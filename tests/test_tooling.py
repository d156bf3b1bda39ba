"""The per-layer tracer of perfbench names ratsqrt functions by string.

``perfbench/run.py --trace 1`` looks every name up with ``getattr`` when it
installs its wrappers, so renaming or deleting a traced function breaks the
traced benchmark.  These tests read the tracer's tables and check them
against the package.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(name):
    return importlib.import_module(f"ratsqrt.{name}")


def test_traced_functions_exist(tracing):
    for mod, names in tracing.TARGETS.items():
        for name in names:
            assert callable(getattr(_module(mod), name, None)), f"{mod}.{name}"


def test_traced_methods_exist(tracing):
    for mod, classes in tracing.METHODS.items():
        for cls_name, methods in classes.items():
            cls = getattr(_module(mod), cls_name, None)
            assert inspect.isclass(cls), f"{mod}.{cls_name}"
            for name in methods:
                assert callable(getattr(cls, name, None)), \
                    f"{mod}.{cls_name}.{name}"


def test_traced_generators_are_generator_functions(tracing):
    for mod, names in tracing.GENERATORS.items():
        for name in names:
            fn = getattr(_module(mod), name, None)
            assert inspect.isgeneratorfunction(fn), f"{mod}.{name}"
