"""Static checks on the package source, read with `ast` and never imported.

Every module but `__init__.py` reads each name it imports, and
`resmatch.__all__` lists exactly the public names `__init__.py` imports,
each once.  A deleted function or field that leaves its import or its
export behind fails here.  Dead private code fails too: every top-level
private function is read somewhere in the package outside its own body,
and every private function reads each parameter it declares.  The only
dataclasses are the three that a NamedTuple cannot stand in for.
"""

import ast
import os
from collections import Counter

import pytest

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "resmatch")


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
    (exported,) = [ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["__all__"]]
    public = {name for name in _imported(tree) if not name.startswith("_")}
    dupes = sorted({name for name in exported if exported.count(name) > 1})
    return dupes + sorted(public.symmetric_difference(exported))


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


MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py") and f != "__init__.py")


@pytest.mark.parametrize("name", MODULES)
def test_module_reads_every_name_it_imports(name):
    assert unused_imports(_tree(name)) == []


def test_all_lists_each_public_import_once():
    assert export_faults(_tree("__init__.py")) == []


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


def test_checks_catch_planted_faults():
    planted = ast.parse("import os\nfrom re import sub, compile as c\nsub('a', 'b', c)\n")
    assert unused_imports(planted) == ["os"]
    stale = ast.parse("from .graph import Graph, nu\n__all__ = ['Graph', 'nu', 'nu', 'gone']\n")
    assert export_faults(stale) == ["nu", "gone"]
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
