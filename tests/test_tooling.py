"""The repository's tools.

The per-layer tracer of perfbench names ratsqrt functions by string.
``perfbench/run.py --trace 1`` looks every name up with ``getattr`` when it
installs its wrappers, so renaming or deleting a traced function breaks the
traced benchmark.  These tests read the tracer's tables and check them
against the package.  ``tools/code_lines.py`` counts the package's code
lines.
"""

import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import ratsqrt

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
CODE_LINES = ROOT / "tools" / "code_lines.py"


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


def _code_lines(*argv):
    out = subprocess.run([sys.executable, str(CODE_LINES), *argv],
                         capture_output=True, text=True, check=True).stdout
    rows = dict(line.split() for line in out.splitlines())
    return int(rows.pop("total")), {k: int(v) for k, v in rows.items()}


def test_code_lines_of_the_package():
    total, rows = _code_lines()
    package = Path(ratsqrt.__file__).parent
    assert set(rows) == {p.name for p in package.glob("*.py")}
    assert total == sum(rows.values()) > 0


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    (tmp_path / "m.py").write_text(
        '"""Module\ndocstring."""\n\n# a comment\nx = (1,  # trailing\n'
        '     2)\n\n\nclass C:\n    """Doc."""\n\n    def f(self):\n'
        '        """Doc\n        string."""\n        return """a\nb"""\n')
    # x = (1, / 2) / class C: / def f(self): / return """a / b"""
    assert _code_lines(str(tmp_path)) == (6, {"m.py": 6})
