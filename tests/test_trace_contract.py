"""The benchmark tracer wraps resmatch functions by name; keep those names."""

import ast
import importlib
import importlib.util
import inspect
import os

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
