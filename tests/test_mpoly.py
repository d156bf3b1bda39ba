"""Sparse multivariate polynomials, rational functions, and substitution."""

import ast
import inspect
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ
from sympy.polys.orderings import lex
from sympy.polys.rings import PolyElement, PolyRing

from test_golden import EXTENSION_ROOTS
from test_kernels import FIELDS, _coeff

from ratsqrt import mpoly
from ratsqrt.engine import DEFAULT_CONFIG, INCONCLUSIVE, Config, decide
from ratsqrt.errors import OddDegree, ResourceLimit, ZeroDenominator
from ratsqrt.mpoly import (
    _PROBES,
    MultiPoly,
    _coeff_str,
    _coerce,
    _common,
    _ring,
    RationalFunction,
    RationalMap,
    dehomogenize,
    effective_vars,
    factor_list,
    homogenize,
    is_homogeneous,
    is_perfect_square,
    mgcd,
    poly_str,
    quadratic_field,
    radicand_reduce,
    rf_str,
    squarefree_part,
    substitute,
)
from ratsqrt.parser import map_from_json, parse_poly, parse_rational
from ratsqrt.report import dumps, verdict_report
from ratsqrt.witness import verify_witness


def P(text, vs):
    return parse_poly(text, vs)


class TestArithmetic:
    def test_construction_and_equality(self):
        x = MultiPoly.var(("X", "Y"), "X")
        y = MultiPoly.var(("X", "Y"), "Y")
        assert (x + y) * (x - y) == x * x - y * y
        assert x - x == MultiPoly.zero(("X", "Y"))

    def test_pow_and_scale(self):
        x = MultiPoly.var(("X",), "X")
        assert (x + 1) ** 2 == x * x + x * 2 + 1
        assert x ** 0 == MultiPoly.const(("X",), 1)

    def test_degrees(self):
        p = P("X^2*Y + Y^3 + 1", ("X", "Y"))
        assert p.total_degree() == 3
        assert p.degree_in("X") == 2
        assert p.degree_in("Y") == 3

    def test_derivative(self):
        p = P("X^3 + X*Y^2", ("X", "Y"))
        assert p.derivative("X") == P("3*X^2 + Y^2", ("X", "Y"))

    def test_eval_and_subs(self):
        p = P("X^2 + 2*Y", ("X", "Y"))
        assert p.eval_at({"X": F(3), "Y": F(1, 2)}) == 10
        assert p.subs_var("Y", F(5)) == P("X^2 + 10", ("X", "Y"))

    def test_with_vars_extension_and_projection(self):
        p = P("X + 1", ("X",))
        q = p.with_vars(("X", "Y"))
        assert q.vars == ("X", "Y")
        assert q.with_vars(("X",)) == p

    def test_str_round_trip(self):
        for text in ("X^2 - 1", "3*X*Y - 1/2*Y^3 + 7", "X1^4 + X2^4"):
            p = parse_poly(text)
            assert parse_poly(poly_str(p), p.vars) == p


class TestFactorization:
    def test_mgcd(self):
        a = P("(X + Y)^2*(X - 1)", ("X", "Y"))
        b = P("(X + Y)*(X + 2)", ("X", "Y"))
        g = mgcd(a, b)
        assert g.monic() == P("X + Y", ("X", "Y")).monic()

    def test_factor_list_remultiplies(self):
        p = P("2*(X - 1)^2*(X + Y)", ("X", "Y"))
        const, factors = factor_list(p)
        prod = MultiPoly.const(p.vars, const)
        for f, m in factors:
            prod = prod * f ** m
        assert prod == p

    def test_squarefree_part_preserves_square_class(self):
        # p / squarefree_part(p) must be a perfect square, exactly
        for text in ("(1 - X)*(1 + X)^2", "4*X^2*(X - 1)", "X^3*Y^2 - X^3"):
            p = parse_poly(text)
            f = squarefree_part(p)
            assert squarefree_part(f) == f
            ratio = RationalFunction(p, f)
            assert is_perfect_square(ratio) is not None

    def test_squarefree_part_drops_even_factors(self):
        p = P("(X - 1)^2*(X + 1)", ("X",))
        assert squarefree_part(p).monic() == P("X + 1", ("X",)).monic()

    def test_radicand_reduce(self):
        # p/q and squarefree part of p*q share the square class
        p = P("1 - X^2", ("X",))
        q = P("(1 + X)^2", ("X",))
        f = radicand_reduce(p, q)
        assert squarefree_part(f) == f
        assert is_perfect_square(RationalFunction(p, q * f)) is not None


class TestHomogeneity:
    def test_is_homogeneous(self):
        assert is_homogeneous(P("X^2 + X*Y", ("X", "Y"))) == 2
        assert is_homogeneous(P("X^2 + Y", ("X", "Y"))) is None

    def test_homogenize_dehomogenize(self):
        p = P("X^2 + Y + 1", ("X", "Y"))
        h = homogenize(p, "z")
        assert is_homogeneous(h) == 2
        assert h.vars[0] == "z"

    def test_dehomogenize_even(self):
        p = P("X1^4 + X2^4", ("X1", "X2"))
        d = dehomogenize(p, "X2")
        assert d == P("X1^4 + 1", ("X1", "X2")).with_vars(d.vars)

    def test_dehomogenize_odd_rejected(self):
        with pytest.raises(OddDegree):
            dehomogenize(P("X1^3 + X2^3", ("X1", "X2")), "X2")

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=3),
           st.data())
    def test_dehomogenized_squarefree_form_is_squarefree(self, degrees, data):
        # a product of forms, repeated factors likely, reduced to the
        # squarefree form that rule 4 and the alphabets pass
        p = MultiPoly.const(XYZ, 1)
        for d in degrees + degrees[:1]:
            monos = [(i, j, d - i - j) for i in range(d + 1)
                     for j in range(d + 1 - i)]
            cs = data.draw(st.lists(st.integers(-2, 2), min_size=len(monos),
                                    max_size=len(monos)))
            p = p * MultiPoly(XYZ, {e: QQ(c) for e, c in zip(monos, cs) if c})
        assume(not p.is_zero())
        f = squarefree_part(p)
        assume(not f.is_constant() and is_homogeneous(f) % 2 == 0)
        g = dehomogenize(f, "Z")
        assert squarefree_part(g) == g
        assert all(m == 1 for _f, m in g.pe.sqf_list()[1])

    def test_effective_vars(self):
        assert effective_vars(P("Y^2 + 1", ("X", "Y", "Z"))) == ["Y"]


class TestRationalFunction:
    def test_reduction(self):
        g = RationalFunction(P("X^2 - 1", ("X",)), P("X - 1", ("X",)))
        assert g == RationalFunction.from_poly(P("X + 1", ("X",)))

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            RationalFunction(P("X", ("X",)), MultiPoly.zero(("X",)))

    def test_arithmetic(self):
        x = RationalFunction.from_poly(P("X", ("X",)))
        one = RationalFunction.from_poly(P("1", ("X",)))
        assert (one / x) * x == one


class TestSubstitute:
    def test_matches_sympy(self):
        f = P("X^2*Y - Y + 3", ("X", "Y"))
        m = RationalMap(
            ("X", "Y"),
            {
                "X": parse_rational("(X + 1)/(Y - 2)", ("X", "Y")),
                "Y": parse_rational("X*Y", ("X", "Y")),
            },
        )
        img = substitute(f, m)
        X, Y = sp.symbols("X Y")
        expect = sp.cancel(
            (((X + 1) / (Y - 2)) ** 2 * (X * Y)) - X * Y + 3
        )
        got = sp.cancel(img.num.pe.as_expr() / img.den.pe.as_expr())
        assert sp.simplify(got - expect) == 0

    def test_homomorphism_on_products(self):
        a = P("X + 1", ("X",))
        b = P("X^2 - 2", ("X",))
        m = RationalMap(("X",), {"X": parse_rational("(1 - X)/(1 + X)", ("X",))})
        assert substitute(a * b, m) == substitute(a, m) * substitute(b, m)


class TestPerfectSquare:
    def test_square_detected_with_root(self):
        g = parse_rational("(X^2 - 2*X + 1)/(X^2 + 2*X + 1)", ("X",))
        h = is_perfect_square(g)
        assert h is not None
        assert h * h == g

    def test_non_square(self):
        assert is_perfect_square(parse_rational("X", ("X",))) is None
        assert is_perfect_square(parse_rational("4*X^2 + 1", ("X",))) is None

    def test_constant_squares(self):
        assert is_perfect_square(parse_rational("9/4", ("X",))) is not None
        assert is_perfect_square(parse_rational("-4", ("X",))) is None


class TestCoerce:
    def test_rational_stays_rational(self):
        assert _coerce(sp.Rational(-3, 4))[0].is_QQ


# --------------------------------------------------------------------------
# the univariate-image certificates against the sympy kernels they skip

XYZ = ("X", "Y", "Z")
CERT = settings(max_examples=120, deadline=None, derandomize=True,
                database=None)
# Y - Z + 1 vanishes when Y = a + 1, Z = a + 2, at every probe a: as a
# factor of the leading coefficient in X it leaves no degree-preserving
# image in X, so the certificates must fall back to sympy
KILLER = P("Y - Z + 1", XYZ)


def _small(r=None):
    """Nonzero polynomials in X, Y, Z of up to 3 terms, degree at most 1 in
    each variable, with small coefficients of QQ, or of QQ(sqrt(r))."""
    if r is None:
        coeff = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
    else:
        K, root = quadratic_field(r)
        coeff = st.builds(lambda a, b: K.convert(a) + root * K.convert(b),
                          st.integers(-3, 3), st.integers(-3, 3))
    term = st.tuples(st.tuples(*[st.integers(0, 1)] * 3), coeff)
    return st.lists(term, min_size=1, max_size=3).map(
        lambda ts: MultiPoly(XYZ, dict(ts))
    ).filter(lambda p: not p.is_zero())


def _factor(r=None):
    """a, or KILLER*X*a + b: a factor whose leading coefficient in X
    vanishes at every probe.  With b constant, every image of it at probe
    0 is constant once the degree drop goes unnoticed."""
    b = st.one_of(_small(r), st.integers(1, 3).map(
        lambda c: MultiPoly.const(XYZ, c)))
    return st.one_of(
        _small(r),
        st.builds(lambda a, b: KILLER * MultiPoly.var(XYZ, "X") * a + b,
                  _small(r), b),
    ).filter(lambda p: not p.is_zero())


def _reference_squarefree_part(p):
    """squarefree_part without the image certificate."""
    if p.is_constant():
        return p
    const, factors = p.pe.sqf_list()
    out = p.pe.ring(const)
    for f, m in factors:
        if m % 2 == 1:
            out *= f
    return MultiPoly.of(out)


def _reference_is_squarefree(p):
    return p.is_constant() or all(m == 1 for _f, m in p.pe.sqf_list()[1])


def _always_cancelled(num, den):
    """RationalFunction's reduction with sympy's cancel on every
    non-constant pair."""
    if not num.is_constant() and not den.is_constant():
        rn, rd = _common(num, den)
        rn, rd = rn.cancel(rd)
        num, den = MultiPoly.of(rn), MultiPoly.of(rd)
    if num.is_zero():
        den = MultiPoly.const(den.vars, 1)
    lc = den.leading_coeff()
    return num * (den.pe.ring.domain.one / lc), den.monic()


class TestImageCertificates:
    def test_killer_vanishes_at_every_probe(self):
        for a in _PROBES:
            assert KILLER.eval_at({"Y": a + 1, "Z": a + 2}) == 0

    @CERT
    @given(_factor(), _factor(), st.booleans())
    def test_squarefree_part_matches_sqf_list(self, q, r, square):
        p = q * q * r if square else q * r
        assert squarefree_part(p) == _reference_squarefree_part(p)
        assert (squarefree_part(p) == p) == _reference_is_squarefree(p)

    @CERT
    @given(_factor(), _factor(), _factor(), st.booleans())
    def test_reduction_matches_always_cancelling(self, a, b, c, common):
        num, den = (a * c, b * c) if common else (a, b)
        g = RationalFunction(num, den)
        assert (g.num, g.den) == _always_cancelled(num, den)

    def test_extension_takes_the_sympy_path(self):
        a = parse_rational("X + sqrt(2)*Y", XYZ[:2], quadratic_field(2)[0]).num
        b = P("X - Y", XYZ[:2])
        p = a * a * b
        assert squarefree_part(p) == _reference_squarefree_part(p)
        g = RationalFunction(a * b, a)
        assert (g.num, g.den) == _always_cancelled(a * b, a)
        assert g.den.is_constant()

    # c is small: cancel over a quadratic field on two products of
    # KILLER-sized factors can take seconds, and so could shrinking
    @settings(CERT, max_examples=60,
              phases=[p for p in Phase if p is not Phase.shrink])
    @given(st.sampled_from(sorted(FIELDS)).flatmap(
        lambda name: st.tuples(_factor(FIELDS[name]), _factor(FIELDS[name]),
                               _small(FIELDS[name]), st.booleans())))
    def test_reduction_over_each_field_matches_always_cancelling(self, case):
        a, b, c, common = case
        num, den = (a * c, b * c) if common else (a, b)
        g = RationalFunction(num, den)
        assert (g.num, g.den) == _always_cancelled(num, den)

    def test_declined_images_fall_back_to_sympy(self):
        # _P divides a coefficient's denominator, or the leading coefficient
        # in X of every image: no probe certifies, and sympy's kernels decide
        XY, p = XYZ[:2], mpoly._P
        den = MultiPoly(XY, {(1, 1): QQ(1, p), (0, 0): QQ(1)})
        lead = MultiPoly(XY, {(2, 0): QQ(p), (1, 1): QQ(1), (0, 0): QQ(1)})
        for q in (den, lead, den * den * P("X - Y", XY)):
            assert not mpoly._squarefree_by_images(q.pe)
            assert squarefree_part(q) == _reference_squarefree_part(q)
        for num, dn in ((den, P("X - Y", XY)), (lead, P("X*Y + 1", XY)),
                        (den * P("X + Y", XY), den * P("X - Y", XY))):
            assert not mpoly._coprime_by_images(*_common(num, dn))
            g = RationalFunction(num, dn)
            assert (g.num, g.den) == _always_cancelled(num, dn)

    def test_a_probe_declined_mod_p_moves_to_the_next(self):
        # the leading coefficient Y + _P - 1 in X is _P at probe 0 (Y = 1)
        # only, so probe 1 certifies
        q = MultiPoly(XYZ[:2], {(2, 1): QQ(1), (2, 0): QQ(mpoly._P - 1),
                                (0, 0): QQ(1)})
        assert mpoly._image(q.pe, 0, 0) is None
        assert mpoly._image(q.pe, 0, 1) is not None
        assert mpoly._squarefree_by_images(q.pe)

    def test_golden_extension_witnesses_run_no_cancel(self, monkeypatch):
        calls = []
        cancel = PolyElement.cancel
        monkeypatch.setattr(PolyElement, "cancel",
                            lambda f, g: calls.append(f.ring.domain)
                            or cancel(f, g))
        # over QQ(sqrt(-7)) and QQ(i): both fractions of each map are coprime
        for text in EXTENSION_ROOTS:
            assert decide(parse_poly(text)).witness.extension is not None
        assert calls == []

    def test_no_image_above_the_size_cap(self, monkeypatch):
        # the degree-20,000 image in X once cost 48 s; sqf_list takes
        # well under a second
        calls = []
        monkeypatch.setattr(mpoly, "_coprime_mod_p",
                            lambda *a: calls.append(a) or True)
        p = P("X^20000*Y - 1", ("X", "Y"))
        assert squarefree_part(p) == p
        assert calls == []


# --------------------------------------------------------------------------
# a common monomial is divided out before cancel


def _spy_cancel(monkeypatch):
    calls = []
    cancel = PolyElement.cancel
    monkeypatch.setattr(PolyElement, "cancel",
                        lambda f, g: calls.append(f.ring.domain)
                        or cancel(f, g))
    return calls


def _over(r, text, variables=XYZ):
    K = None if r is None else quadratic_field(r)[0]
    return parse_rational(text, variables, K).num


def _monomial(exponents):
    return MultiPoly(XYZ, {exponents: QQ(1)})


_EXPONENTS = st.tuples(*[st.integers(0, 3)] * 3)


class TestCommonMonomial:
    @pytest.mark.parametrize("r, num, den", [
        (None, "X^3*(Y + 1)", "X^3*(Y - 2)"),
        (None, "X^3*Y*(X + Y + 1)", "X^3*(X - Y)"),
        (None, "X^2*Y^2*(X + Z)", "X^3*Y*(Y + 2*Z)"),
        (None, "X^3*Y", "X^3"),
        (2, "X^3*(X + sqrt(2)*Y)", "X^3*(Y - 1)"),
        (-7, "X^3*(sqrt(7)*I*X - Z)", "2*X^3*Y*(X + Z)"),
    ])
    def test_coprime_cofactors_run_no_cancel(self, monkeypatch, r, num, den):
        num, den = _over(r, num), _over(r, den)
        ref = _always_cancelled(num, den)
        calls = _spy_cancel(monkeypatch)
        g = RationalFunction(num, den)
        assert calls == []
        assert (g.num, g.den) == ref

    def test_a_common_factor_left_still_cancels(self, monkeypatch):
        num, den = P("X^3*(Y + 1)*(Y + Z)", XYZ), P("X^3*(Y - 1)*(Y + Z)", XYZ)
        ref = _always_cancelled(num, den)
        calls = _spy_cancel(monkeypatch)
        g = RationalFunction(num, den)
        assert len(calls) == 1
        assert (g.num, g.den) == ref

    @settings(CERT, max_examples=60)
    @given(_EXPONENTS, _EXPONENTS, _factor(), _factor(), _small(),
           st.booleans())
    def test_monomial_factors_match_always_cancelling(self, m1, m2, a, b,
                                                      c, common):
        num, den = _monomial(m1) * a, _monomial(m2) * b
        if common:
            num, den = num * c, den * c
        g = RationalFunction(num, den)
        assert (g.num, g.den) == _always_cancelled(num, den)

    def test_verifying_a_weierstrass_witness_runs_no_cancel(self,
                                                             monkeypatch):
        # rule 6 on Y^2 = X^3 + X + 1: the witness's image of f has a
        # denominator that shares a power of the parameter with its numerator
        f = P("Y^2 - X^3 - X - 1", ("X", "Y"))
        v = decide(f)
        assert v.steps[-1].rule == "cubic-triple-point"
        with monkeypatch.context() as m:
            m.setattr(mpoly, "_coprime_by_images", lambda a, b: False)
            m.setattr(mpoly, "_cancel", lambda a, b: a.cancel(b))
            ref = verify_witness(v.witness, f)
        calls = _spy_cancel(monkeypatch)
        h = verify_witness(v.witness, f)
        assert calls == []
        assert h is not None and h == ref and rf_str(h) == rf_str(ref)


# --------------------------------------------------------------------------
# squarefree parts from the factors a radicand is written in


def _spy_sqf_list(monkeypatch):
    calls = []
    sqf_list = PolyElement.sqf_list
    monkeypatch.setattr(PolyElement, "sqf_list",
                        lambda f, *args: calls.append(f) or sqf_list(f, *args))
    return calls


# proportional, non-coprime and non-squarefree factors, constants and
# monomials
_FACTOR_POOL = ["X - 1", "2*X - 2", "X + 1", "X^2 - 1", "X^2 + 2*X + 1",
                "X + 3", "X - Y", "X*Y + 1", "Y^2 - X", "-3*X + 1", "X", "Y",
                "3", "1/2", "X^2*Y"]
_MONOMIALS = ["1", "X", "Y", "X^2", "X*Y", "Y^2"]


def _small_factor_text():
    """1-3 terms of degree <= 2 in X, Y with coefficients -3..3."""
    term = st.tuples(st.sampled_from([-3, -2, -1, 1, 2, 3]),
                     st.sampled_from(_MONOMIALS))
    return st.lists(term, min_size=1, max_size=3, unique_by=lambda t: t[1]).map(
        lambda ts: " + ".join(f"{c}*{m}" for c, m in ts))


def _power_text(f, k, nested, minus):
    """(f)^k, as ((f)^2)^(k/2) when nested and k is even, after a unary
    minus when minus."""
    body = f"({f})"
    if nested and k % 2 == 0:
        body = f"({body}^2)^{k // 2}"
    elif k > 1:
        body += f"^{k}"
    return "-" + body if minus else body


def _product_texts():
    """Products of 1-4 factors over QQ with exponents 1-4, some over a
    denominator."""
    factor = st.builds(_power_text,
                       st.one_of(st.sampled_from(_FACTOR_POOL),
                                 _small_factor_text()),
                       st.integers(1, 4), st.booleans(), st.booleans())
    den = st.sampled_from(["", "", "", "/2", "/X", "/(X - 1)", "/(X^2 - 1)",
                           "/(Y + 2)^2"])
    return st.tuples(st.lists(factor, min_size=1, max_size=4), den).map(
        lambda t: "*".join(t[0]) + t[1])


class TestSquarefreePartFromFactors:
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(_product_texts())
    def test_matches_the_bare_element_and_sqf_list(self, text):
        p = parse_rational(text, ("X", "Y")).num
        want = _reference_squarefree_part(p)
        assert squarefree_part(MultiPoly.of(p.pe)) == want
        assert squarefree_part(p) == want

    @pytest.mark.parametrize("text, reduced", [
        ("(X + Y - 2*Z - 2)^2*(X + 2*Y - Z + 2)", "X + 2*Y - Z + 2"),
        ("(-2*X + 3)*(-3*X^2 - 5*X + 9)^2", "-18*X + 27"),
    ])
    def test_a_written_square_runs_no_sqf_list(self, monkeypatch, text,
                                               reduced):
        g = parse_rational(text)
        calls = _spy_sqf_list(monkeypatch)
        v = decide(g.num, g.den)
        assert calls == []
        assert v.steps[0].data["reduced"] == reduced
        assert v.steps[0].data["reduced"] == poly_str(
            _reference_squarefree_part(MultiPoly.of(g.num.pe)))

    @pytest.mark.parametrize("text, reduced", [
        ("(X^2 - 1)*(X - 1)", "X + 1"),            # not coprime
        ("(X^2 + 2*X + 1)*(X + 3)", "X + 3"),      # not squarefree
    ])
    def test_uncertified_factors_fall_back(self, monkeypatch, text, reduced):
        g = parse_rational(text)
        assert g.num.factors is not None
        calls = _spy_sqf_list(monkeypatch)
        assert poly_str(radicand_reduce(g.num, g.den)) == reduced
        assert len(calls) == 1

    def test_products_concatenate_the_lists(self):
        XY = ("X", "Y")
        a = parse_rational("(X - 1)^2", XY).num
        b = parse_rational("3*(X + Y)", XY).num
        bare = MultiPoly.of(b.pe)
        assert (a * b).factors == a.factors + b.factors
        assert (a * 2).factors == (2 * a).factors == a.factors
        assert (a * MultiPoly.const(XY, 3)).factors == a.factors
        assert (a * bare).factors is None
        assert bare == b and hash(bare) == hash(b)
        for q in (-a, a + 0, a - b, a**2, a.monic(), a.with_vars(XYZ),
                  squarefree_part(a * b)):
            assert q.factors is None

    def test_a_denominator_1_is_not_multiplied_in(self):
        XY = ("X", "Y")
        p = parse_rational("(X + 1)*(X - Y)", XY).num
        assert radicand_reduce(p, MultiPoly.const(XY, 1)) is p
        with pytest.raises(ValueError):
            radicand_reduce(p, MultiPoly.const(XYZ, 1))


# --------------------------------------------------------------------------
# one ring element


def _sympy_users():
    """The functions and methods of mpoly whose bodies name `sp`."""
    users = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = child.name if owner is None else f"{owner}.{child.name}"
            elif isinstance(child, ast.Name) and child.id == "sp":
                users.add(owner)
            visit(child, name)

    visit(ast.parse(Path(mpoly.__file__).read_text()), None)
    return users


def test_a_multipoly_is_one_ring_element():
    """A MultiPoly is one element of a _ring-built ring: its variables are
    the ring's generator names, it has no bridge to sympy expressions, and
    mpoly meets sympy's expression API only to build rings and fields."""
    for name in ("from_sympy", "to_sympy", "terms", "scale", "__rsub__"):
        assert not hasattr(MultiPoly, name), name
    assert list(inspect.signature(MultiPoly.of).parameters) == ["pe"]
    K, root = quadratic_field(2)
    for variables, domain, c in ((("X", "Y"), QQ, QQ(1, 2)),
                                 (("X", "Y"), K, root), ((), QQ, QQ(3))):
        p = MultiPoly.of(_ring(variables, domain).ground_new(c))
        assert p.pe.ring.domain == domain
        assert p.vars == variables == tuple(str(s) for s in p.pe.ring.symbols)
    assert _sympy_users() == {"_ring", "_field", "quadratic_field"}


# --------------------------------------------------------------------------
# QQ(sqrt(r)) from its minimal polynomial t^2 - r


def _reference_field(r):
    """QQ(sqrt(r)) from an AlgebraicNumber, as mpoly once built it: sympy
    then computes a primitive element and its minimal polynomial."""
    minpoly = sp.Poly([1, 0, -r], sp.Dummy("t"))
    return QQ.algebraic_field(sp.AlgebraicNumber((minpoly, sp.sqrt(r))))


SQUAREFREE_RADICANDS = [r for r in range(-30, 31) if r not in (0, 1)
                        and all(r % (p * p) for p in (2, 3, 5))]


def _element_lists(pe):
    return {e: c.to_list() for e, c in pe.items()}


class TestFieldFromMinimalPolynomial:
    @pytest.mark.parametrize("r", SQUAREFREE_RADICANDS)
    def test_matches_the_algebraic_number_construction(self, r):
        K, ref = mpoly._field(r), _reference_field(r)
        # the old field's generator is an AlgebraicNumber, the new one's the
        # surd itself, so the two print alike but do not compare equal
        assert str(K) == str(ref) and mpoly._radicand(K) == r
        assert K.mod.dom == ref.mod.dom == QQ
        assert K.mod.to_list() == ref.mod.to_list()
        rng = random.Random(r)

        def pair():
            coeffs = [QQ(rng.randint(-9, 9), rng.randint(1, 4)) for _ in "ab"]
            return K(coeffs), ref(coeffs)

        for _ in range(10):
            (x, x_ref), (y, y_ref) = pair(), pair()
            assert (x * y).to_list() == (x_ref * y_ref).to_list()
            if x:
                assert (K.one / x).to_list() == (ref.one / x_ref).to_list()

        ring, ring_ref = (PolyRing(sp.symbols("X Y"), k, lex) for k in (K, ref))

        def polys():
            terms = {(rng.randint(0, 1), rng.randint(0, 1)): pair()
                     for _ in range(3)}
            return (ring.from_dict({e: a for e, (a, _b) in terms.items()}),
                    ring_ref.from_dict({e: b for e, (_a, b) in terms.items()}))

        for _ in range(2):
            (f, f_ref), (g, g_ref), (h, h_ref) = polys(), polys(), polys()
            if not (f and g and h):
                continue
            lc, factors = (f * f * g).sqf_list()
            lc_ref, factors_ref = (f_ref * f_ref * g_ref).sqf_list()
            assert lc.to_list() == lc_ref.to_list()
            assert [(_element_lists(q), k) for q, k in factors] == \
                [(_element_lists(q), k) for q, k in factors_ref]
            out = (f * g).cancel(f * h)
            out_ref = (f_ref * g_ref).cancel(f_ref * h_ref)
            assert [_element_lists(q) for q in out] == \
                [_element_lists(q) for q in out_ref]


def test_a_new_field_factors_nothing(monkeypatch):
    # sympy's sqrt(r) of an integer it has not seen runs a bounded factorint
    # of r to pull squares out, which quadratic_field has already done
    calls = []
    factorint = sp.ntheory.factor_.factorint
    monkeypatch.setattr(sp.ntheory.factor_, "factorint",
                        lambda *a, **k: calls.append(a) or factorint(*a, **k))
    p, q = sp.nextprime(10**12), sp.nextprime(2 * 10**12)
    sp.sqrt(-p * q - 4)
    assert calls, "the spy sees sympy's sqrt factor its radicand"
    calls.clear()
    for r in (-1, -p * q, p * q, 3 * p):
        K = mpoly._field.__wrapped__(int(r))
        assert calls == []
        # the root is the very expression sympy's sqrt(r) builds
        assert mpoly._radicand(K) == r and K.ext.as_expr() == sp.sqrt(r)
        calls.clear()


# the warm-up radicand of a benchmark worker, then a decision whose witness
# needs the first quadratic field of the process, read back from its JSON
_FIRST_FIELD = r"""
import json
import sys

from ratsqrt import decide, parse_rational
from ratsqrt.parser import map_from_json

decide(parse_rational("X^2 + 3*X*Y - 5").num)
calls = []


def spy(module, name):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    setattr(module, name, counted)


for module in ("sympy", "sympy.polys.numberfields",
               "sympy.polys.numberfields.minpoly",
               "sympy.polys.numberfields.subfield"):
    for name in ("minimal_polynomial", "primitive_element"):
        if hasattr(sys.modules[module], name):
            spy(sys.modules[module], name)
before = set(sys.modules)
g = parse_rational("-2*X^2 + X*Y - 3*Y^2 - 1")
v = decide(g.num, g.den)
doc = v.witness.to_json()
back = map_from_json(doc)
print(json.dumps({"extension": doc.get("extension"),
                  "read_back": back.to_json() == doc,
                  "imported": sorted(set(sys.modules) - before),
                  "calls": calls}))
"""


def test_the_first_quadratic_field_costs_no_solver_and_no_import():
    # a benchmark worker is a fresh process and pays each first-use cost
    # in every pass; building a field from an AlgebraicNumber ran sympy's
    # number-field solver and imported 16 tensor and combinatorics modules
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", _FIRST_FIELD], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert out["extension"] == "I" and out["read_back"]
    assert out["imported"] == [] and out["calls"] == []


# p*q with p, q of 25 digits: no bounded factorization splits it
UNSPLIT = sp.nextprime(10**24) * sp.nextprime(3 * 10**24)


class TestBoundedRadicandReduction:
    @pytest.mark.parametrize("c, r", [
        (12, 3), (-50, -2), (F(3, 8), 6), (-1, -1),
        (3 * sp.nextprime(10**20) ** 2, 3),
        (-7**2 * sp.nextprime(10**30), -sp.nextprime(10**30)),
        (sp.nextprime(2**15) * sp.nextprime(2**20),
         sp.nextprime(2**15) * sp.nextprime(2**20)),
    ])
    def test_reduces_exactly(self, c, r):
        K, root = quadratic_field(c)
        assert K is mpoly._field(r)
        assert root * root == K.convert_from(QQ(F(c).numerator,
                                                F(c).denominator), QQ)

    def test_an_unsplit_cofactor_below_the_cube_bound(self, monkeypatch):
        # the cofactors factorint leaves: squarefree when below L^3 and not
        # a square, or prime; anything else is out of reach
        L = mpoly._TRIAL_BOUND
        p, q, s = (sp.nextprime(k * L) for k in (1, 2, 3))
        big = -sp.nextprime(L**4)
        fields = [mpoly._field(p * q), mpoly._field(big)]
        monkeypatch.setattr(sp, "factorint", lambda n, limit: {n: 1})
        reduce = quadratic_field.__wrapped__
        assert [reduce(c)[0] for c in (p * q, big)] == fields
        for c in (p * p, p * q * s):
            with pytest.raises(ResourceLimit):
                reduce(c)

    def test_decide_ends_under_its_timeout(self):
        g = parse_rational(f"-X^2 - {UNSPLIT}")
        t0 = time.monotonic()
        v = decide(g.num, g.den, Config(timeout=1))
        assert time.monotonic() - t0 < 2
        assert v.outcome == INCONCLUSIVE and v.witness is None
        assert v.steps[-1].rule == "resource-limit"

    def test_a_map_over_an_unsplit_field_is_refused(self):
        doc = {"variables": ["X"], "assignments": {"X": "X"},
               "extension": f"sqrt({UNSPLIT})"}
        t0 = time.monotonic()
        with pytest.raises(ResourceLimit):
            map_from_json(doc)
        assert time.monotonic() - t0 < 2


# --------------------------------------------------------------------------
# printing coefficients a + b*sqrt(r) without sympy expressions


def _sympy_text(a, b, r):
    """str of the sympy number a + b*sqrt(r), without spaces."""
    a, b = (sp.Rational(q.numerator, q.denominator) for q in (a, b))
    return str(a + b * sp.sqrt(r)).replace(" ", "")


class TestSurdPrinter:
    RADICANDS = (-1, -2, -3, -7, -30, -69, 2, 3, 5, 6, 7, 30, 69)

    def test_matches_sympy_str(self):
        rng = random.Random(25)
        seen = set()
        for _ in range(5000):
            r = rng.choice(self.RADICANDS)
            a = QQ(rng.randint(-30, 30), rng.randint(1, 9)) \
                if rng.random() < 0.8 else QQ(0)
            k = rng.choice([-1, 1, rng.randint(-30, 30) or 1])
            b = QQ(k, rng.randint(1, 9))
            K, root = quadratic_field(r)
            c = K.convert(a) + K.convert(b) * root
            assert _coeff_str(c) == _sympy_text(a, b, r)
            if not a:
                seen.add("a = 0")
            elif r < 0:
                seen.add("r = -1" if r == -1 else "r < -1")
            elif a > 0 > b:
                seen.add("a > 0 > b")
            else:
                seen.add("a first" if float(a) < float(b) * r**0.5
                         else "root first")
            if abs(b.numerator) == 1:
                seen.add("|b| = 1/d")
        assert seen == {"a = 0", "r = -1", "r < -1", "a > 0 > b", "a first",
                        "root first", "|b| = 1/d"}

    def test_extension_matches_sympy_str(self):
        rng = random.Random(26)
        x = RationalFunction.from_poly(MultiPoly.var(("X",), "X"))
        for _ in range(1000):
            c = QQ(rng.randint(-60, 60) or 1, rng.randint(1, 30))
            m = RationalMap(("X",), {"X": x}, extension=c)
            want = str(sp.sqrt(sp.Rational(c.numerator, c.denominator)))
            assert m.to_json()["extension"] == want

    def test_a_verdict_over_a_quadratic_field_prints_without_sympy(
            self, monkeypatch):
        # no sympy.sqrt and no Basic.__str__: nothing builds or prints a
        # sympy expression
        g = parse_rational("-X^2 - Y^2 - 2")
        v = decide(g.num, g.den)
        assert v.witness.extension == -2

        def refuse(*_args):
            raise AssertionError("a sympy expression was built or printed")

        monkeypatch.setattr(sp, "sqrt", refuse)
        monkeypatch.setattr(sp.Basic, "__str__", refuse)
        report = verdict_report("-X^2 - Y^2 - 2", v, DEFAULT_CONFIG)
        witness = report["witness"]
        assert witness["extension"] == "sqrt(2)*I"
        assert witness["assignments"]["X"] == \
            "((-2*sqrt(2)*I)*X)/(X^2 + Y^2 + 1)"
        assert "sqrt(2)*I" in dumps(report)


# --------------------------------------------------------------------------
# exact square roots on the remainder's terms


def _ring_op_monic_sqrt(p):
    """_monic_sqrt with ring operations on the remainder and the root, as
    mpoly once took it: a ring product and a ring difference per root
    term."""
    ring = p.ring
    if any(e % 2 for e in p.LM):
        return None
    box = [d // 2 for d in p.degrees()]
    s = ring({tuple(e // 2 for e in p.LM): ring.domain.one})
    r = p - s * s
    while r:
        m = ring.monomial_div(r.LM, s.LM)
        if m is None or any(e > b for e, b in zip(m, box)):
            return None
        t = ring({m: r.LC / 2})
        r -= (s + s + t) * t
        s += t
    return s


def _root_candidates(r):
    """Nonzero polynomials in X, Y of up to 4 terms, degree at most 2 in
    each variable, with small coefficients: small enough that squaring
    over QQ(sqrt(-7)) stays cheap."""
    term = st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                     _coeff(r))
    return st.lists(term, min_size=1, max_size=4).map(
        lambda ts: MultiPoly(("X", "Y"), dict(ts))
    ).filter(lambda p: not p.is_zero())


def _squares_and_perturbations():
    """(root, p): p the lex-monic square of root over QQ, QQ(sqrt(2)) or
    QQ(sqrt(-7)), or that square with one term added (then root is None),
    made lex-monic again."""
    def case(r):
        bump = st.one_of(st.none(), st.tuples(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            st.integers(-3, 3).filter(bool)))
        return st.tuples(_root_candidates(r), bump)

    def build(pair):
        s, bump = pair
        p = s.pe * s.pe
        if bump is not None:
            e, c = bump
            p = p + p.ring({e: p.ring.domain.convert(c)})
            if not p:
                return None, p
        return (None if bump else s.pe.quo_ground(s.pe.LC)), \
            p.quo_ground(p.LC)

    return st.sampled_from(sorted(FIELDS)).flatmap(
        lambda name: case(FIELDS[name])).map(build).filter(lambda t: t[1])


class TestMonicSqrtOnTerms:
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(_squares_and_perturbations())
    def test_matches_the_ring_op_reference(self, case):
        root, p = case
        got = mpoly._monic_sqrt(p)
        assert got == _ring_op_monic_sqrt(p)
        if root is not None:
            assert got == root and got.ring is p.ring
        if got is not None:
            assert got * got == p

    @pytest.mark.parametrize("text, branch", [
        ("X^3 + X + 1", "odd leading exponent"),
        ("X^2 + X*Y^2", "outside the half-degree box"),
        ("X^2 + 2*X + 1 + Y", "negative exponent"),
        ("X^2*Y^2 + X", "negative exponent"),
    ])
    def test_each_none_branch(self, text, branch):
        for r in (None, 2, -7):
            K = QQ if r is None else quadratic_field(r)[0]
            pe = parse_poly(text, ("X", "Y")).pe.set_ring(_ring(("X", "Y"), K))
            assert mpoly._monic_sqrt(pe) is None, branch
            assert _ring_op_monic_sqrt(pe) is None, branch


# --------------------------------------------------------------------------
# constants by mul_ground


def _by_operands(p, c):
    """p * c through _operands, for a constant c, as MultiPoly.__mul__ once
    multiplied it: a constant carries the empty factor list."""
    a, b = p._operands(c)
    return mpoly._listed(a * b, () if a.is_ground else p.factors)


def _same(got, want):
    assert got == want
    assert got.pe.ring is want.pe.ring
    assert got.factors == want.factors


class TestConstantMultiply:
    XY = ("X", "Y")
    K2, SQRT2 = quadratic_field(2)

    @pytest.mark.parametrize("c", [3, -1, 0, F(-2, 3), F(0), QQ(5, 7), QQ(0),
                                   True])
    @pytest.mark.parametrize("text, r", [
        ("(X - 1)^2*(X + Y)", None), ("X^2 - 3*X*Y + 1/2", None),
        ("7/3", None), ("0", None),
        ("(X + sqrt(2)*Y)*(X - 1)", 2), ("sqrt(2)*X - Y + 1", 2),
    ])
    def test_a_rational_matches_the_operands_route(self, text, r, c):
        field = None if r is None else quadratic_field(r)[0]
        p = parse_rational(text, self.XY, field).num
        _same(p * c, _by_operands(p, c))
        _same(c * p, _by_operands(p, c))

    @pytest.mark.parametrize("text", [
        "(X + sqrt(2)*Y)*(X - 1)", "sqrt(2)*X - Y + 1", "sqrt(2)", "X - 1"])
    def test_an_element_of_the_own_field(self, text):
        p = parse_rational(text, self.XY, self.K2).num
        for c in (self.SQRT2, self.K2([QQ(1, 2), QQ(-3)]), self.K2.zero,
                  self.K2.one):
            _same(p * c, _by_operands(p, c))

    def test_a_field_element_times_a_rational_polynomial(self):
        for text in ("(X - 1)^2*(X + Y)", "X*Y + 2", "5"):
            p = parse_rational(text, self.XY).num
            for c in (self.SQRT2, self.K2([QQ(2), QQ(0)])):
                _same(p * c, _by_operands(p, c))
            assert (p * self.SQRT2).pe.ring.domain == self.K2

    def test_lists_are_kept_and_a_constant_gets_the_empty_one(self):
        p = parse_rational("3*(X - 1)^2*(X + Y)", self.XY).num
        assert p.factors is not None
        for c in (2, F(1, 2), QQ(-3)):
            assert (p * c).factors == (c * p).factors == p.factors
        assert (MultiPoly.const(self.XY, 4) * 3).factors == ()
        assert (MultiPoly.of(p.pe) * 3).factors is None

    def test_two_fields_still_raise(self):
        p = parse_rational("sqrt(2)*X + 1", self.XY, self.K2).num
        _K3, sqrt3 = quadratic_field(3)
        with pytest.raises(ValueError):
            p * sqrt3
        with pytest.raises(ValueError):
            sqrt3 * p

    @pytest.mark.parametrize("num, den, r", [
        ("(X - 1)^2*(X + 2)", "2", None),
        ("X^2 + 1", "3*X - 6", None),
        ("X - Y", "1/2*X*Y + 3", None),
        ("sqrt(2)*X + 1", "3*X + 1", 2),
        ("X + 1", "sqrt(2)*X + 1", 2),
        ("X + 1", "sqrt(2)*X + sqrt(2)", 2),
        ("sqrt(7)*I*X^2 - Y", "(2 + sqrt(7)*I)*Y + 1", -7),
    ])
    def test_rational_function_normal_forms(self, num, den, r):
        field = None if r is None else quadratic_field(r)[0]
        n = parse_rational(num, self.XY, field).num
        d = parse_rational(den, self.XY, field).num
        g = RationalFunction(n, d)
        if not n.is_constant() and not d.is_constant():
            rn, rd = _common(n, d)
            rn, rd = rn.cancel(rd)
            n, d = MultiPoly.of(rn), MultiPoly.of(rd)
        lc = d.leading_coeff()
        want = _by_operands(n, d.pe.ring.domain.one / lc)
        _same(g.num, want)
        assert g.den == d.monic()
        assert rf_str(g) == rf_str(RationalFunction(want, d.monic(),
                                                    reduce=False))
