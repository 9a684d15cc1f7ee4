"""Static checks on the package source, read with `ast` and never imported.

Every module but `__init__.py` reads each name it imports, and
`resmatch.__all__` lists exactly the public names `__init__.py` imports,
each once, and each of them is read by some module of the package or
named in README.md, so the package exports nothing that only tests call.
A deleted function or field that leaves its import or its export behind
fails here.  Dead private code fails too: every top-level private
function is read somewhere in the package outside its own body, and every
private function reads each parameter it declares.  The only dataclasses
are the two that a NamedTuple cannot stand in for.

`code_lines` is the one definition of the package's code-only line count.
Run this file as a script to print it per module and in total, with the
number of names `resmatch.__all__` exports:

    python tests/test_hygiene.py
"""

import ast
import io
import os
import re
import tokenize
from collections import Counter

import pytest

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "resmatch")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _tree(name: str) -> ast.Module:
    with open(os.path.join(PACKAGE, name)) as fh:
        return ast.parse(fh.read(), filename=name)


def _imported(tree: ast.Module) -> list[str]:
    """The names the module's import statements bind, __future__ ones left out."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def unused_imports(tree: ast.Module) -> list[str]:
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in _imported(tree) if name not in read]


def export_faults(tree: ast.Module) -> list[str]:
    """Duplicates in __all__, then the names that __all__ and the public
    imports do not share."""
    exported = _exported(tree)
    public = {name for name in _imported(tree) if not name.startswith("_")}
    dupes = sorted({name for name in exported if exported.count(name) > 1})
    return dupes + sorted(public.symmetric_difference(exported))


def _exported(tree: ast.Module) -> list[str]:
    (exported,) = [ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["__all__"]]
    return exported


def unused_exports(init: ast.Module, trees: dict[str, ast.Module], readme: str) -> list[str]:
    """The names __all__ exports that no module in trees reads and that the
    readme text never opens a code span with."""
    read = {name for tree in trees.values() for name in _reads(tree)}
    return [name for name in _exported(init)
            if name not in read and not re.search(rf"`{re.escape(name)}\b", readme)]


def _private(node: ast.AST) -> bool:
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.endswith("__"))


def _reads(node: ast.AST) -> list[str]:
    """The names and attributes read under node."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Attribute)
            or (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))]


def unreferenced_private_functions(trees: dict[str, ast.Module]) -> list[str]:
    """module:name of each top-level private function that no code of the
    package reads outside the function's own body."""
    read = Counter(name for tree in trees.values() for name in _reads(tree))
    return [f"{module}:{node.name}" for module, tree in sorted(trees.items())
            for node in tree.body
            if _private(node) and read[node.name] == _reads(node).count(node.name)]


# callbacks whose parameters their caller fixes: warnings.showwarning's, for one
FIXED_SIGNATURES = {"cli.py:_show_warning"}


def unread_parameters(module: str, tree: ast.Module) -> list[str]:
    """module:function(parameter) for each parameter of a private function
    that the function's body never reads."""
    faults = []
    for node in ast.walk(tree):
        if not _private(node) or f"{module}:{node.name}" in FIXED_SIGNATURES:
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        read = set(_reads(ast.Module(body=node.body, type_ignores=[])))
        faults += [f"{module}:{node.name}({p.arg})" for p in params if p.arg not in read]
    return faults


def _decorator_name(node: ast.expr) -> str | None:
    node = getattr(node, "func", node)  # @dataclass(frozen=True) is a call
    return getattr(node, "id", None) or getattr(node, "attr", None)


def dataclass_names(tree: ast.Module) -> list[str]:
    """The classes decorated with `dataclass`, bare, called or as `dataclasses.dataclass`."""
    return [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and "dataclass" in map(_decorator_name, node.decorator_list)]


# tokens that hold no code: comments and the layout of lines and blocks
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def code_lines(path: str) -> int:
    """The number of lines of the Python file at path that hold a token other
    than a comment, a docstring (the string that opens a module, class or
    function body, found with `ast`) or layout."""
    with open(path) as fh:
        text = fh.read()
    docstrings = {(node.body[0].lineno, node.body[0].col_offset)
                  for node in ast.walk(ast.parse(text))
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT and not (tok.type == tokenize.STRING and tok.start in docstrings):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py") and f != "__init__.py")


@pytest.mark.parametrize("name", MODULES)
def test_module_reads_every_name_it_imports(name):
    assert unused_imports(_tree(name)) == []


def test_all_lists_each_public_import_once():
    assert export_faults(_tree("__init__.py")) == []


def test_every_export_is_used_by_the_package_or_documented():
    with open(README) as fh:
        readme = fh.read()
    trees = {name: _tree(name) for name in MODULES}
    assert unused_exports(_tree("__init__.py"), trees, readme) == []


def test_every_private_function_is_referenced():
    trees = {name: _tree(name) for name in [*MODULES, "__init__.py"]}
    assert unreferenced_private_functions(trees) == []


def test_only_graph_and_tolerance_function_are_dataclasses():
    """Every other record is a `typing.NamedTuple`, which compiles no methods
    at import.  These two need what a tuple cannot give: `Graph` caches its
    adjacency in the instance `__dict__` and leaves `coords` out of its hash,
    and `ToleranceFunction` validates in `__post_init__`, while
    `typing.NamedTuple` forbids overriding `__new__`.  A matching is no record:
    it is the frozenset of its edges, as `Graph.edges` is, so its `len` is its
    edge count and it needs no class.  A new dataclass must state its reason here."""
    found = sorted(name for module in MODULES for name in dataclass_names(_tree(module)))
    assert found == ["Graph", "ToleranceFunction"]


@pytest.mark.parametrize("name", MODULES)
def test_private_functions_read_every_parameter(name):
    assert unread_parameters(name, _tree(name)) == []


def test_checks_catch_planted_faults(tmp_path):
    planted = ast.parse("import os\nfrom re import sub, compile as c\nsub('a', 'b', c)\n")
    assert unused_imports(planted) == ["os"]
    stale = ast.parse("from .graph import Graph, nu\n__all__ = ['Graph', 'nu', 'nu', 'gone']\n")
    assert export_faults(stale) == ["nu", "gone"]
    # exported but read by no module and named in no code span of the readme
    unused = ast.parse("from .m import Graph, nu, spare\n__all__ = ['Graph', 'nu', 'spare']\n")
    reader = ast.parse("def f(g: Graph):\n    return g\n")
    readme = "`nu(g)` is the matching number; a spare edge is not `spared`.\n"
    assert export_faults(unused) == []
    assert unused_exports(unused, {"m.py": reader}, readme) == ["spare"]
    dead = ast.parse("def _gone():\n    return _gone()\n\ndef _kept(x):\n    return x\n")
    caller = ast.parse("from .m import _kept\nobj._kept(1)\n")
    assert unreferenced_private_functions({"m.py": dead, "n.py": caller}) == ["m.py:_gone"]
    unread = ast.parse("def _f(a, b, *c, d, **e):\n    def inner():\n        return a + e\n"
                       "    return inner\n\nclass K:\n    def _m(self, x):\n        return 1\n")
    assert unread_parameters("m.py", unread) == [
        "m.py:_f(b)", "m.py:_f(d)", "m.py:_f(c)", "m.py:_m(self)", "m.py:_m(x)"
    ]
    records = ast.parse("@dataclass(frozen=True)\nclass A:\n    x: int\n\n@dataclasses.dataclass\n"
                        "class B:\n    y: int\n\n@dataclass\nclass C:\n    z: int\n\n"
                        "class D(NamedTuple):\n    w: int\n\n@functools.total_ordering\n"
                        "class E:\n    pass\n")
    assert dataclass_names(records) == ["A", "B", "C"]
    warning_hook = ast.parse("def _show_warning(message, category):\n    print(message)\n")
    assert unread_parameters("cli.py", warning_hook) == []
    assert unread_parameters("graph.py", warning_hook) == ["graph.py:_show_warning(category)"]
    # counted: import, def, both lines of s, both lines of the return, class, y
    source = tmp_path / "m.py"
    source.write_text('"""Module\ndocstring."""\n\n# a comment\nimport os  # trailing\n\n\n'
                      'def f(x):\n    """Doc."""\n    s = """not a\ndocstring"""\n'
                      '    return (x +\n            1)\n\n\nclass K:\n    "doc"\n    y = 1\n')
    assert code_lines(str(source)) == 8


if __name__ == "__main__":
    counts = {name: code_lines(os.path.join(PACKAGE, name))
              for name in sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))}
    for name, count in counts.items():
        print(f"{count:6} {name}")
    print(f"{sum(counts.values()):6} total, {len(_exported(_tree('__init__.py')))} names exported")
