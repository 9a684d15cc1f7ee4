"""The benchmark tracer wraps resmatch functions by name; keep those names."""

import importlib
import importlib.util
import inspect
import os

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "tracer.py")


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
