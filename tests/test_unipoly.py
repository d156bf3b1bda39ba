"""Sparse polynomial arithmetic over exact fields, on exponent dicts."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ
from sympy.polys.rings import PolyElement

from ratsqrt import unipoly as up
from ratsqrt.mpoly import _ring


def P(*coeffs):
    """The univariate exponent dict of a coefficient list, lowest first."""
    return {(i,): QQ(c) for i, c in enumerate(coeffs) if c}


def _random(rng, n, lo, hi):
    return up.clean({(i,): QQ(rng.randint(lo, hi)) for i in range(n)})


class TestBasics:
    def test_clean_and_deg(self):
        assert up.clean({(0,): QQ(1), (1,): QQ(2), (2,): QQ(0)}) == P(1, 2)
        assert up.deg(P(1, 0, 3)) == 2
        assert up.deg({}) == -1

    def test_add_sub(self):
        a, b = P(1, 2), P(3, -2)
        assert up.add(a, b) == P(4)
        assert up.add(a, {e: -c for e, c in a.items()}) == {}

    def test_mul(self):
        # (x - 1)(x + 1) = x^2 - 1
        assert up.mul(P(-1, 1), P(1, 1)) == P(-1, 0, 1)
        assert up.mul(P(2), P(0, 0, 3)) == P(0, 0, 6)
        assert up.mul({}, P(1, 1)) == {}

    def test_divmod(self):
        # x^3 - 1 = (x - 1)(x^2 + x + 1)
        q, r = up.divmod_poly(P(-1, 0, 0, 1), P(-1, 1))
        assert q == P(1, 1, 1)
        assert r == {}
        q, r = up.divmod_poly(P(1, 0, 1), P(0, 1))
        assert q == P(0, 1) and r == P(1)

    def test_derivative(self):
        assert up.derivative(P(3, 2, 1)) == P(2, 2)
        assert up.derivative(P(5)) == {}

    def test_several_variables(self):
        # d/dv (u^2 v + v^3) = u^2 + 3 v^2; (u + v)(u - v) = u^2 - v^2
        f = {(2, 1): QQ(1), (0, 3): QQ(1)}
        assert up.derivative(f, 1) == {(2, 0): QQ(1), (0, 2): QQ(3)}
        assert up.mul({(1, 0): QQ(1), (0, 1): QQ(1)},
                      {(1, 0): QQ(1), (0, 1): QQ(-1)}) == {(2, 0): QQ(1),
                                                           (0, 2): QQ(-1)}
        # (u + 1)*v at (u, v) -> (u - 1, v + 2) is u*v + 2*u
        assert up.translate({(1, 1): QQ(1), (0, 1): QQ(1)},
                            (QQ(-1), QQ(2))) == {(1, 1): QQ(1), (1, 0): QQ(2)}


class TestGcd:
    def test_gcd_known(self):
        # gcd(x^2 - 1, x^2 - 2x + 1) = x - 1
        g = up.gcd(P(-1, 0, 1), P(1, -2, 1))
        assert g == P(-1, 1)

    def test_gcd_coprime(self):
        g = up.gcd(P(1, 1), P(2, 1))
        assert up.deg(g) == 0

    def test_gcd_common_factor_property(self):
        rng = random.Random(7)
        for _ in range(50):
            a = _random(rng, 4, -4, 4)
            b = _random(rng, 4, -4, 4)
            c = up.add(_random(rng, 3, -3, 3), P(0, 0, 0, 1))
            if not a or not b:
                continue
            g1 = up.gcd(up.mul(a, c), up.mul(b, c))
            g2 = up.monic(up.mul(up.gcd(a, b), c))
            assert up.gcd(g1, g2) == up.monic(c) or g1 == g2

    def test_radical(self):
        # (x - 1)^2 (x + 2) -> (x - 1)(x + 2)
        sq = up.mul(up.mul(P(-1, 1), P(-1, 1)), P(2, 1))
        assert up.radical(sq) == up.monic(up.mul(P(-1, 1), P(2, 1)))


class TestFactor:
    def test_factor_x2_minus_1(self):
        c, factors = up.factor_rational(P(-1, 0, 1))
        assert c == 1
        assert factors == [(P(-1, 1), 1), (P(1, 1), 1)]

    def test_factor_x4_plus_1_irreducible(self):
        # no rational roots and no rational quadratic split
        _c, factors = up.factor_rational(P(1, 0, 0, 0, 1))
        assert factors == [(P(1, 0, 0, 0, 1), 1)]

    def test_factor_three_linear(self):
        # (1 + 4x) * x * (x - 4) = -4x - 15x^2 + 4x^3
        p = up.mul(up.mul(P(1, 4), P(0, 1)), P(-4, 1))
        _c, factors = up.factor_rational(p)
        assert len(factors) == 3
        assert all(up.deg(f) == 1 for f, _m in factors)

    def test_factor_remultiplies(self):
        rng = random.Random(11)
        for _ in range(200):
            p = _random(rng, rng.randint(2, 13), -5, 5)
            if not p:
                continue
            c, factors = up.factor_rational(p)
            prod = {(0,): QQ(c)}
            for f, m in factors:
                for _ in range(m):
                    prod = up.mul(prod, f)
            assert prod == p

    def test_rational_roots(self):
        # 2x^2 - 3x + 1 has roots 1 and 1/2; x^2 - x has 0 and 1
        assert up.rational_roots(P(1, -3, 2)) == [QQ(1, 2), QQ(1)]
        assert up.rational_roots(P(0, -1, 1)) == [QQ(0), QQ(1)]
        assert up.rational_roots(P(1, 0, 1)) == []


# -- quadratics, split by their discriminant ----------------------------------

_FACTOR_LIST = PolyElement.factor_list


def _factor_list_route(p):
    """factor_rational through sympy's factor_list, as it factors every
    polynomial of degree >= 3."""
    cont, factors = _FACTOR_LIST(_ring(("t",)).from_dict(p))
    out = []
    for f, m in sorted(factors, key=lambda fm: (fm[0].degree(),
                                                fm[0].to_dense())):
        cont *= f.LC**m
        out.append((up.monic(dict(f)), m))
    return cont, out


_q = st.builds(QQ, st.integers(-9, 9), st.integers(1, 4))
_nonzero = _q.filter(bool)


def _from_roots(a, r1, r2):
    """a*(t - r1)*(t - r2)."""
    return up.clean({(2,): a, (1,): -a * (r1 + r2), (0,): a * r1 * r2})


def _quadratic(a, b, c):
    return up.clean({(2,): a, (1,): b, (0,): c})


QUADRATICS = {
    "two rational roots": st.tuples(_nonzero, _q, _q).filter(
        lambda arr: arr[1] != arr[2]).map(lambda arr: _from_roots(*arr)),
    "double root": st.builds(lambda a, r: _from_roots(a, r, r), _nonzero, _q),
    "irreducible": st.builds(_quadratic, _nonzero, _q, _nonzero).filter(
        lambda p: up.deg(_factor_list_route(p)[1][0][0]) == 2),
    "zero constant term": st.builds(_quadratic, _nonzero, _nonzero,
                                    st.just(QQ(0))),
    "non-monic": st.builds(_from_roots, _nonzero.filter(lambda a: a != 1),
                           _q, _q),
    "negative leading coefficient": st.builds(
        _quadratic, _nonzero.map(lambda a: -abs(a)), _q, _q),
}


class TestQuadratics:
    @pytest.mark.parametrize("kind", sorted(QUADRATICS))
    def test_match_the_factor_list_route(self, kind, monkeypatch):
        calls = []
        monkeypatch.setattr(PolyElement, "factor_list",
                            lambda f: calls.append(f) or _FACTOR_LIST(f))

        @settings(max_examples=40, deadline=None, derandomize=True,
                  database=None)
        @given(QUADRATICS[kind])
        def check(p):
            content, factors = up.factor_rational(p)
            ref_content, ref_factors = _factor_list_route(p)
            assert content == ref_content
            # the same factors with the same multiplicities, in the same
            # order, each listing its terms in the same order
            assert ([(list(f.items()), m) for f, m in factors]
                    == [(list(f.items()), m) for f, m in ref_factors])

        check()
        assert calls == []


# -- cubics certified irreducible by a root scan mod a prime ------------------


def _cubic(a, b, c, d):
    return up.clean({(3,): a, (2,): b, (1,): c, (0,): d})


CUBICS = {
    "dense": st.builds(_cubic, _nonzero, _q, _q, _q),
    "rational root": st.builds(
        lambda a, r, b, c: up.mul({(1,): a, (0,): -a * r},
                                  _quadratic(QQ(1), b, c)),
        _nonzero, _q, _q, _q),
    "three rational roots": st.builds(
        lambda a, r, s, t: up.mul(_from_roots(a, r, s), {(1,): QQ(1),
                                                         (0,): -t}),
        _nonzero, _q, _q, _q),
    "no constant term": st.builds(_cubic, _nonzero, _q, _q, st.just(QQ(0))),
    # a denominator or leading numerator divisible by every scanned prime
    "primes divide the coefficients": st.builds(
        _cubic, st.sampled_from([QQ(1, 101), QQ(101 * 103), QQ(3, 149)]),
        _q, _q, _nonzero),
}


class TestCubics:
    @pytest.mark.parametrize("kind", sorted(CUBICS))
    def test_match_the_factor_list_route(self, kind):
        @settings(max_examples=40, deadline=None, derandomize=True,
                  database=None)
        @given(CUBICS[kind])
        def check(p):
            content, factors = up.factor_rational(p)
            ref_content, ref_factors = _factor_list_route(p)
            assert content == ref_content
            assert ([(list(f.items()), m) for f, m in factors]
                    == [(list(f.items()), m) for f, m in ref_factors])

        check()

    def test_an_irreducible_cubic_runs_no_factor_list(self, monkeypatch):
        calls = []
        monkeypatch.setattr(PolyElement, "factor_list",
                            lambda f: calls.append(f) or _FACTOR_LIST(f))
        # 2t^3 - t + 1/3 has roots mod 101, 103 and 107, none mod 109
        p = _cubic(QQ(2), QQ(0), QQ(-1), QQ(1, 3))
        assert up.factor_rational(p) == _factor_list_route(p)
        assert calls == []

    def test_a_cubic_every_prime_divides_falls_back(self, monkeypatch):
        calls = []
        monkeypatch.setattr(PolyElement, "factor_list",
                            lambda f: calls.append(f) or _FACTOR_LIST(f))
        lead = QQ(1, 1)
        for prime in up._CUBIC_PRIMES:
            lead *= prime
        p = _cubic(lead, QQ(0), QQ(-1), QQ(1))
        assert up.factor_rational(p) == _factor_list_route(p)
        assert len(calls) == 1

    def test_a_reducible_cubic_is_never_certified(self):
        # t^3 - 2t^2 - t + 2 = (t - 2)(t - 1)(t + 1) has a root mod
        # every prime
        assert not up._rootless_cubic(_cubic(QQ(1), QQ(-2), QQ(-1), QQ(2)))


# -- the same dicts as sympy's ring elements ----------------------------------

_coeff = st.builds(QQ, st.integers(-3, 3), st.integers(1, 3))


def _dicts(nvars, max_exp=3):
    return st.dictionaries(
        st.tuples(*[st.integers(0, max_exp)] * nvars), _coeff,
        max_size=5).map(up.clean)


@st.composite
def _pair(draw):
    nvars = draw(st.integers(1, 3))
    return nvars, draw(_dicts(nvars)), draw(_dicts(nvars))


def _ring_of(nvars):
    return _ring(tuple(f"x{i}" for i in range(nvars)))


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


class TestAgainstRingElements:
    @PROPERTY
    @given(_pair(), st.lists(_coeff, min_size=3, max_size=3))
    def test_sparse_arithmetic(self, case, shift):
        nvars, p, q = case
        R = _ring_of(nvars)
        pe, qe = R.from_dict(p), R.from_dict(q)
        assert up.add(p, q) == dict(pe + qe)
        assert up.mul(p, q) == dict(pe * qe)
        for axis in range(nvars):
            assert up.derivative(p, axis) == dict(pe.diff(R.gens[axis]))
        point = [g + c for g, c in zip(R.gens, shift)]
        assert up.translate(p, shift[:nvars]) == dict(pe.compose(
            list(zip(R.gens, point))))

    @PROPERTY
    @given(_dicts(1, max_exp=6), _dicts(1, max_exp=4), _dicts(1, max_exp=2))
    def test_division_and_gcd(self, p, q, common):
        R = _ring_of(1)
        pe, qe = R.from_dict(p), R.from_dict(q)
        if q:
            quo, r = up.divmod_poly(p, q)
            assert (quo, r) == tuple(dict(x) for x in pe.div(qe))
        # a drawn common factor, so that most gcds are not constant
        p, q = up.mul(p, common), up.mul(q, common)
        h = R.from_dict(p).gcd(R.from_dict(q))
        assert up.gcd(p, q) == (dict(h.monic()) if h else {})


# the two internal consistency checks stay in force under ``python -O``,
# which strips plain assert statements: each is made to fail by a stand-in
# for the routine it cross-checks
_OPTIMIZED_CHECKS = """
import sys
from sympy.polys.domains import QQ
from ratsqrt import numberfield, unipoly as up

if not sys.flags.optimize:
    raise SystemExit("not running under -O")

def expect(name, fn):
    try:
        fn()
    except AssertionError:
        print(name)

up.gcd = lambda p, q: {(1,): QQ(1), (0,): QQ(1)}
expect("radical", lambda: up.radical({(2,): QQ(1), (0,): QQ(-2)}))
K = numberfield.NumberField(None, "a", {(0,): QQ(-2), (2,): QQ(1)})
up.gcd = lambda p, q: {(0,): K.one()}
expect("factor_over_height1", lambda: numberfield.factor_over_height1(
    K, {(2,): K.one(), (0,): K.from_rational(-2)}))
"""


def test_consistency_checks_raise_under_python_O():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_CHECKS],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["radical", "factor_over_height1"]
