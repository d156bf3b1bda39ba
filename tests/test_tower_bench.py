"""Microbenchmark of tower arithmetic: multiply and inverse at heights 1
and 2.

The rounds are fixed, so the whole file runs in well under a second; the
timings appear in pytest-benchmark's table.  Run it alone with

    PYTHONPATH=src python -m pytest tests/test_tower_bench.py
"""

import operator

import pytest
from sympy.polys.domains import QQ

from ratsqrt.numberfield import NumberField

ROUNDS, ITERATIONS = 25, 4


def _operands(height):
    """Two dense elements of QQ(sqrt 2) or of QQ(sqrt 2)(b), b^2 = a."""
    K = NumberField(None, "a", [QQ(-2), QQ(0), QQ(1)])
    a = K.gen()
    if height == 1:
        return a * QQ(5, 7) + QQ(3, 2), a * QQ(-2, 3) + QQ(1, 5)
    L = NumberField(K, "b", [-a, K.zero(), K.one()])
    b, a = L.gen(), L.lift(a)
    x = a * QQ(5, 7) + QQ(3, 2) + (a * QQ(-1, 4) + QQ(2, 3)) * b
    y = a * QQ(-2, 3) + QQ(1, 5) + (a * QQ(3, 5) - 2) * b
    return x, y


@pytest.mark.parametrize("height", [1, 2])
def test_multiply(benchmark, height):
    x, y = _operands(height)
    prod = benchmark.pedantic(operator.mul, args=(x, y), rounds=ROUNDS,
                              iterations=ITERATIONS)
    assert prod == y * x
    assert x * x.inverse() == 1


@pytest.mark.parametrize("height", [1, 2])
def test_inverse(benchmark, height):
    x, _y = _operands(height)
    inv = benchmark.pedantic(x.inverse, rounds=ROUNDS, iterations=ITERATIONS)
    assert x * inv == 1
