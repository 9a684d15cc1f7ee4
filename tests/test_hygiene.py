"""Static checks on the package source, read with `ast` and never imported.

Every module but `__init__.py` reads each name it imports, and
`resmatch.__all__` lists exactly the public names `__init__.py` imports,
each once.  A deleted function or field that leaves its import or its
export behind fails here.
"""

import ast
import os

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


MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py") and f != "__init__.py")


@pytest.mark.parametrize("name", MODULES)
def test_module_reads_every_name_it_imports(name):
    assert unused_imports(_tree(name)) == []


def test_all_lists_each_public_import_once():
    assert export_faults(_tree("__init__.py")) == []


def test_checks_catch_planted_faults():
    planted = ast.parse("import os\nfrom re import sub, compile as c\nsub('a', 'b', c)\n")
    assert unused_imports(planted) == ["os"]
    stale = ast.parse("from .graph import Graph, nu\n__all__ = ['Graph', 'nu', 'nu', 'gone']\n")
    assert export_faults(stale) == ["nu", "gone"]
