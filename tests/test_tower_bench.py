"""Microbenchmark of tower arithmetic: multiply and inverse at heights 1
and 2, and gcd and division with remainder of two degree-6 polynomials
over the height-2 tower.

The rounds are fixed, so the whole file runs in about a second; the
timings appear in pytest-benchmark's table.  Run it alone with

    PYTHONPATH=src python -m pytest tests/test_tower_bench.py
"""

import operator

import pytest
from sympy.polys.domains import QQ

from ratsqrt import unipoly as up
from ratsqrt.numberfield import NumberField

ROUNDS, ITERATIONS = 25, 4


def _operands(height):
    """Two dense elements of QQ(sqrt 2) or of QQ(sqrt 2)(b), b^2 = a."""
    K = NumberField(None, "a", {(0,): QQ(-2), (2,): QQ(1)})
    a = K.gen()
    if height == 1:
        return a * QQ(5, 7) + QQ(3, 2), a * QQ(-2, 3) + QQ(1, 5)
    L = NumberField(K, "b", {(0,): -a, (2,): K.one()})
    b, a = L.gen(), L.lift(a)
    x = a * QQ(5, 7) + QQ(3, 2) + (a * QQ(-1, 4) + QQ(2, 3)) * b
    y = a * QQ(-2, 3) + QQ(1, 5) + (a * QQ(3, 5) - 2) * b
    return x, y


def _polynomials():
    """Two degree-6 polynomials over the height-2 tower with a common
    quadratic factor, and that factor made monic."""
    x, y = _operands(2)
    common = {(0,): x, (1,): y, (2,): x * y}
    p = up.mul(common, {(0,): y, (1,): x + 1, (3,): y * y, (4,): x})
    q = up.mul(common, {(0,): x - y, (2,): x * x, (3,): 3 * y, (4,): x + y})
    return p, q, up.monic(common)


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


def test_gcd(benchmark):
    p, q, common = _polynomials()
    g = benchmark.pedantic(up.gcd, args=(p, q), rounds=ROUNDS, iterations=1)
    assert g == common


def test_divmod_poly(benchmark):
    p, q, _common = _polynomials()
    quo, r = benchmark.pedantic(up.divmod_poly, args=(p, q), rounds=ROUNDS,
                                iterations=1)
    assert up.deg(p) == up.deg(q) == 6 and up.deg(r) < 6
    assert up.add(up.mul(quo, q), r) == p
