"""The exact ring kernels of mpoly and parser against sympy references.

Random small polynomials over QQ, Q(sqrt(2)) and Q(sqrt(-7)) are reduced,
decomposed and square-tested by the package and by sympy's expression-level
functions; the parser is checked against sympify on generated texts.
"""

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ratsqrt.errors import ZeroDenominator
from ratsqrt.mpoly import (
    MultiPoly,
    RationalFunction,
    is_perfect_square,
    squarefree_part,
)
from ratsqrt.parser import parse_rational

VARS = ("X", "Y")
SYMS = sp.symbols(VARS)
FIELDS = {"QQ": None, "QQ(sqrt(2))": sp.sqrt(2), "QQ(sqrt(-7))": sp.sqrt(-7)}
KERNEL = settings(max_examples=25, deadline=None, derandomize=True,
                  database=None)


def _coeff(theta):
    small = st.integers(-3, 3)
    if theta is None:
        return st.builds(sp.Rational, small, st.integers(1, 3))
    return st.builds(lambda a, b: a + b * theta, small, small)


def polys(theta):
    """Nonzero polynomials of up to 3 terms, degree at most 1 in each
    variable, over QQ(theta)."""
    term = st.tuples(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                     _coeff(theta))
    return st.lists(term, max_size=3).map(
        lambda ts: MultiPoly(VARS, dict(ts))
    ).filter(lambda p: not p.is_zero())


def field_polys():
    """(theta, p1, p2, p3) over QQ(theta); theta is None for QQ."""
    return st.sampled_from(sorted(FIELDS)).flatmap(
        lambda name: st.tuples(
            st.just(FIELDS[name]), *(polys(FIELDS[name]) for _ in range(3))
        )
    )


def _normal_form(num_expr, den_expr):
    """sympy's reduced fraction, read back with a graded-lex monic
    denominator."""
    n, d = sp.fraction(sp.cancel(num_expr / den_expr, extension=True))
    g = RationalFunction(
        MultiPoly.from_sympy(n, VARS), MultiPoly.from_sympy(d, VARS),
        reduce=False,
    )
    # a constant denominator leaves quotients such as 7/(7 - sqrt(-7))
    num = {e: sp.expand(sp.radsimp(c)) for e, c in g.num.terms.items()}
    return RationalFunction(MultiPoly(VARS, num), g.den, reduce=False)


def _negative(c):
    """The sign convention of square roots: the rational part decides,
    else the coefficient of the irrationality."""
    a, rest = sp.expand(c).as_coeff_Add()
    return a < 0 if a != 0 else rest.as_coeff_Mul()[0] < 0


class TestReduction:
    @KERNEL
    @given(field_polys())
    def test_matches_sympy_cancel(self, ps):
        _, a, b, c = ps
        g = RationalFunction(a * c, b * c)
        assert g == _normal_form((a * c).to_sympy(), (b * c).to_sympy())
        assert g.den.leading_coeff() == 1


class TestSquarefreePart:
    @KERNEL
    @given(field_polys())
    def test_matches_sympy_sqf_list(self, ps):
        _, a, b, c = ps
        p = a * b * b * c * c * c
        # QQ, not ZZ, for rational input: the constant the part carries
        opts = ({"domain": "QQ"} if p.coefficients_rational()
                else {"extension": True})
        const, factors = sp.sqf_list(p.to_sympy(), *SYMS, **opts)
        ref = sp.sympify(const)
        for f, m in factors:
            if m % 2:
                ref *= f
        assert squarefree_part(p) == MultiPoly.from_sympy(ref, VARS)


class TestPerfectSquare:
    @KERNEL
    @given(field_polys())
    def test_square_gives_sign_normalized_root(self, ps):
        theta, a, b, _ = ps
        h = RationalFunction(a, b)
        root = is_perfect_square(h * h, theta)
        assert root is not None
        assert root * root == h * h
        assert root in (h, RationalFunction(-h.num, h.den, reduce=False))
        assert not _negative(root.num.leading_coeff())

    @KERNEL
    @given(field_polys(), st.integers(-3, 3))
    def test_square_times_linear_factor_is_not_square(self, ps, a):
        theta, h, _, _ = ps
        lin = MultiPoly(VARS, {(1, 0): 1, (0, 0): -a})
        g = RationalFunction.from_poly(h * h * lin)
        assert is_perfect_square(g, theta) is None


# -- parser -----------------------------------------------------------------

def _leaf(token):
    expr = dict(zip(VARS, SYMS)).get(token) or sp.Integer(token)
    return token, expr


def _binary(t):
    (ta, a), op, (tb, b) = t
    text = f"({ta} {op} {tb})"
    if a is None or b is None:
        return text, None
    if op == "/":
        return text, None if sp.cancel(b) == 0 else a / b
    return text, {"+": a + b, "-": a - b, "*": a * b}[op]


def _texts():
    """(text, sympy value) pairs; the value is None when some divisor is
    zero."""
    leaves = st.one_of(st.integers(0, 5).map(str), st.sampled_from(VARS))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(_binary),
            st.tuples(inner, st.integers(0, 3)).map(
                lambda t: (f"({t[0][0]})^{t[1]}",
                           None if t[0][1] is None else t[0][1] ** t[1])
            ),
            inner.map(lambda t: (f"-{t[0]}", None if t[1] is None else -t[1])),
        )

    return st.recursive(leaves.map(_leaf), extend, max_leaves=8)


class TestParser:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_texts())
    def test_matches_sympify(self, case):
        text, ref = case
        if ref is None:
            with pytest.raises(ZeroDenominator):
                parse_rational(text, VARS)
            return
        assert sp.sympify(text.replace("^", "**")) == ref
        g = parse_rational(text, VARS)
        assert g == _normal_form(*sp.fraction(sp.together(ref)))

    def test_zero_divisor_raises(self):
        for text in ("1/(X - X)", "X/(X - X)^2", "(X + 1)/(2*X - X - X)"):
            with pytest.raises(ZeroDenominator):
                parse_rational(text)

    def test_variables_in_order_of_first_appearance(self):
        g = parse_rational("Z/(Y - X) + X")
        assert g.vars == ("Z", "Y", "X")


# -- no expression trees on the rational path ------------------------------

def test_corpus_decides_without_expression_kernels(monkeypatch):
    """Every corpus root and bundled alphabet is decided with sympy's
    expression-level kernels unavailable."""
    from ratsqrt.cli import run_corpus
    from ratsqrt.engine import Config

    for name in ("cancel", "together", "simplify", "sqf_list", "factor_list"):
        def refuse(*_args, _name=name, **_kwargs):
            raise AssertionError(f"sympy.{_name} called")

        monkeypatch.setattr(sp, name, refuse)
    reports, mismatches = run_corpus(Config(), out=lambda _line: None)
    assert len(reports) == 9 and not mismatches
