"""The benchmark tracer wraps resmatch functions by name; keep those names,
and keep `spectrum` the one entry to the enumerator that it traces."""

import ast
import importlib
import importlib.util
import inspect
import os
import sys

from resmatch.cli import main

BENCHMARKS = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")
TRACER = os.path.join(BENCHMARKS, "tracer.py")


def _boundaries() -> dict:
    spec = importlib.util.spec_from_file_location("resmatch_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


def test_every_traced_boundary_resolves():
    missing = [
        f"{home}.{name}"
        for home, functions in _boundaries().items()
        for name in functions
        if not callable(getattr(importlib.import_module(home), name, None))
    ]
    assert not missing


def test_enumerator_is_traced_as_a_generator():
    enumerator = importlib.import_module("resmatch.spectrum")._iter_maximum_matchings
    assert "_iter_maximum_matchings" in _boundaries()["resmatch.spectrum"]
    assert inspect.isgeneratorfunction(enumerator)


def test_every_benchmark_import_from_resmatch_resolves():
    with open(os.path.join(BENCHMARKS, "run.py")) as fh:
        tree = ast.parse(fh.read())
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "resmatch"
        for alias in node.names
    ]
    assert ("resmatch.matching", "max_matching_bipartite") in imports
    missing = [f"{home}.{name}" for home, name in imports
               if not hasattr(importlib.import_module(home), name)]
    assert not missing


FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def test_every_enumeration_is_one_spectrum_call(tmp_path, capsys, monkeypatch):
    """spectrum is the one pass: each command that enumerates calls it once
    per graph, wrapped wherever a module holds it as the tracer wraps it, and
    the enumerator starts only inside it."""
    home = importlib.import_module("resmatch.spectrum")
    depth = [0]
    calls = {"spectrum": 0, "enum": 0, "enum outside spectrum": 0}

    def counted_spectrum(*args, **kwargs):
        calls["spectrum"] += 1
        depth[0] += 1
        try:
            return real_spectrum(*args, **kwargs)
        finally:
            depth[0] -= 1

    def counted_enum(*args, **kwargs):
        calls["enum"] += 1
        calls["enum outside spectrum"] += not depth[0]
        return real_enum(*args, **kwargs)

    real_spectrum, real_enum = home.spectrum, home._iter_maximum_matchings
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "resmatch" or name.startswith("resmatch."))]
    for real, wrapper in ((real_spectrum, counted_spectrum), (real_enum, counted_enum)):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, wrapper)

    p5, cnf = os.path.join(FIXTURES, "p5.mg"), os.path.join(FIXTURES, "example_m1.cnf")
    art = str(tmp_path / "art.mg")
    commands = [  # (argv, exit code, graphs enumerated)
        (["reduce", cnf, "--variant", "L", "--output", art], 0, 0),
        (["verify", art, cnf, "--variant", "L"], 0, 0),
        (["verify", art, cnf, "--variant", "L", "--exhaustive"], 0, 1),
        (["compute", p5], 0, 1),
        (["compute", p5, "--k", "1", "--f", "const:0"], 0, 1),
        (["bench", "random:n=8,count=2,p=1/3", "--trials", "3"], 0, 2),
    ]
    for argv, code, graphs in commands:
        for key in calls:
            calls[key] = 0
        assert main(argv) == code, argv
        capsys.readouterr()
        assert calls == {"spectrum": graphs, "enum": graphs, "enum outside spectrum": 0}, argv
