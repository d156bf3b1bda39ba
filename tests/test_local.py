"""Plane-curve germ analysis: multiplicity, blowups, Milnor numbers, ADE."""

from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ

import pytest

from ratsqrt.errors import NonIsolated, WrongMultiplicity
from ratsqrt.localanalysis import (
    DOUBLE_PLUS_SIMPLE,
    THREE_DISTINCT_LINES,
    TRIPLE_LINE,
    classify_germ,
    cubic_cone,
    intersection_multiplicity,
    lp_blowup_finite,
    lp_derivative,
    lp_add,
    lp_form,
    lp_mul,
    lp_multiplicity,
    milnor_number,
    milnor_via_jets,
    strict_transform_at,
)
from ratsqrt.numberfield import NumberField


def germ(entries):
    return {e: QQ(c) for e, c in entries.items()}


class TestGermBasics:
    def test_multiplicity(self):
        assert lp_multiplicity(germ({(2, 0): 1, (0, 3): 1})) == 2
        assert lp_multiplicity(germ({(0, 0): 5})) == 0
        with pytest.raises(NonIsolated):
            lp_multiplicity({})

    def test_form(self):
        P = germ({(2, 0): 1, (1, 1): 2, (0, 3): 1})
        assert lp_form(P, 2) == germ({(2, 0): 1, (1, 1): 2})

    def test_derivative(self):
        P = germ({(3, 0): 1, (1, 2): 1})
        assert lp_derivative(P, 0) == germ({(2, 0): 3, (0, 2): 1})

    def test_mul(self):
        # (u + v)(u - v) = u^2 - v^2
        a = germ({(1, 0): 1, (0, 1): 1})
        b = germ({(1, 0): 1, (0, 1): -1})
        assert lp_mul(a, b) == germ({(2, 0): 1, (0, 2): -1})


class TestIntersectionMultiplicity:
    def test_transverse_lines(self):
        u = germ({(1, 0): 1})
        v = germ({(0, 1): 1})
        assert intersection_multiplicity(u, v) == 1

    def test_line_and_curve(self):
        # I(v, v - u^3) = I(v, u^3) = 3
        v = germ({(0, 1): 1})
        c = germ({(0, 1): 1, (3, 0): -1})
        assert intersection_multiplicity(v, c) == 3

    def test_tangent_conics(self):
        # I(v - u^2, v - 2u^2) = 2
        a = germ({(0, 1): 1, (2, 0): -1})
        b = germ({(0, 1): 1, (2, 0): -2})
        assert intersection_multiplicity(a, b) == 2

    def test_nonisolated_rejected(self):
        # both germs share the component v = 0
        a = germ({(0, 1): 1})
        b = germ({(1, 1): 1})
        with pytest.raises(NonIsolated):
            intersection_multiplicity(a, b)


class TestMilnor:
    # values cross-checked between the Euclidean recursion and the
    # stabilized jet-quotient dimension inside milnor_number itself
    CATALOG = {
        "A1": ({(2, 0): 1, (0, 2): 1}, 1),
        "A2": ({(2, 0): 1, (0, 3): 1}, 2),
        "A3": ({(2, 0): 1, (0, 4): 1}, 3),
        "D4": ({(2, 1): 1, (0, 3): -1}, 4),
        "E6": ({(3, 0): 1, (0, 4): 1}, 6),
        "E8": ({(3, 0): 1, (0, 5): 1}, 8),
        "x3+y6": ({(3, 0): 1, (0, 6): 1}, 10),
    }

    def test_catalog(self):
        for name, (P, mu) in self.CATALOG.items():
            assert milnor_number(germ(P)) == mu, name

    def test_jet_route_agrees_alone(self):
        P = germ({(3, 0): 1, (1, 3): 1})  # E7
        fu = lp_derivative(P, 0)
        fv = lp_derivative(P, 1)
        assert milnor_via_jets(fu, fv) == 7

    def test_smooth_point(self):
        # regular germ: no critical point, mu = 0
        assert milnor_number(germ({(1, 0): 1, (0, 2): 1})) == 0


class TestConeShape:
    def test_three_distinct_lines(self):
        # uv(u + v): discriminant of the binary cubic is nonzero
        cone = germ({(2, 1): 1, (1, 2): 1})
        assert cubic_cone(cone)[0] == THREE_DISTINCT_LINES

    def test_double_plus_simple(self):
        # u^2 v
        cone = germ({(2, 1): 1})
        assert cubic_cone(cone)[0] == DOUBLE_PLUS_SIMPLE

    def test_triple_line(self):
        cone = germ({(3, 0): 1})
        assert cubic_cone(cone)[0] == TRIPLE_LINE
        # (u + v)^3 expanded
        cone = germ({(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1})
        assert cubic_cone(cone)[0] == TRIPLE_LINE

    def test_repeated_directions_rational(self):
        # the repeated factor of a cubic cone over the rationals is itself
        # rational, so no field extension is ever needed
        cone = germ({(2, 1): 1})  # u^2 v: repeated direction along u = 0
        _shape, direction = cubic_cone(cone)
        assert direction is not None


class TestClassifyGerm:
    CASES = [
        ({(2, 0): 1, (0, 2): 1}, "A1"),
        ({(2, 0): 1, (0, 3): 1}, "A2"),
        ({(2, 0): 1, (0, 5): 1}, "A4"),
        ({(2, 1): 1, (0, 3): -1}, "D4"),
        ({(2, 1): 1, (0, 4): 1}, "D5"),
        ({(3, 0): 1, (0, 4): 1}, "E6"),
        ({(3, 0): 1, (1, 3): 1}, "E7"),
        ({(3, 0): 1, (0, 5): 1}, "E8"),
        ({(3, 0): 1, (0, 6): 1}, "NonSimple"),
        ({(4, 0): 1, (0, 4): 1}, "NonSimple"),
    ]

    def test_catalog(self):
        for P, label in self.CASES:
            c = classify_germ(germ(P))
            assert c.label() == label, (P, label, c)

    def test_smooth_rejected(self):
        with pytest.raises(WrongMultiplicity):
            classify_germ(germ({(1, 0): 1}))

    def test_cross_assertions_hold(self):
        # a three-line cone always has mu exactly 4
        P = germ({(2, 1): 1, (1, 2): 1, (3, 0): 1})
        c = classify_germ(P)
        shape = cubic_cone(lp_form(P, 3))[0]
        assert (shape != THREE_DISTINCT_LINES) or c.mu == 4

    def test_strict_transform_of_cusp(self):
        # u^2 + v^3 blown up along its repeated direction becomes smooth
        P = germ({(2, 0): 1, (0, 3): 1})
        cone = lp_form(P, 2)
        # treat the double cone u^2 as a repeated direction problem: blow up
        # and check the strict transform has multiplicity 1
        _shape, direction = cubic_cone(lp_mul(cone, germ({(0, 1): 1})))
        st = strict_transform_at(P, direction)
        assert lp_multiplicity(st) <= 2


def _reference_shape(cone):
    """Reference: the binary-cubic discriminant (nonzero iff three distinct
    lines) and Hessian (zero iff a triple line)."""
    a, b, c, d = (cone.get((3 - j, j), 0) for j in range(4))
    disc = (18 * a * b * c * d - 4 * b**3 * d + b * b * c * c
            - 4 * a * c**3 - 27 * a * a * d * d)
    if disc:
        return THREE_DISTINCT_LINES
    hess = (b * b - 3 * a * c, b * c - 9 * a * d, c * c - 3 * b * d)
    return DOUBLE_PLUS_SIMPLE if any(hess) else TRIPLE_LINE


def _reference_blowup_finite(P, t0):
    """Reference: f(u, u*(t0 + v)) / u^m expanded term by term."""
    m = lp_multiplicity(P)
    out = {}
    for (i, j), c in P.items():
        for l in range(j + 1):
            e = (i + j - m, l)
            out[e] = out.get(e, 0) + c * comb(j, l) * t0 ** (j - l)
    return {e: c for e, c in out.items() if c}


def _is_repeated(cone, direction):
    """Whether `direction` is a line of multiplicity >= 2 in the cone."""
    if direction[0] == "infinite":
        return not cone.get((0, 3)) and not cone.get((1, 2))
    t0 = direction[1]
    p = [cone.get((3 - j, j), 0) for j in range(4)]
    return (not sum(c * t0**j for j, c in enumerate(p))
            and not sum(j * c * t0 ** (j - 1) for j, c in enumerate(p) if j))


def _product(lines):
    out = {(0, 0): 1}
    for a, b in lines:
        out = lp_mul(out, {e: c for e, c in (((1, 0), a), ((0, 1), b)) if c})
    return out


def _check_cone(cone):
    shape, direction = cubic_cone(cone)
    assert shape == _reference_shape(cone)
    assert (direction is None) == (shape == THREE_DISTINCT_LINES)
    if direction is not None:
        assert _is_repeated(cone, direction)
    return direction


SQRT2 = NumberField(None, "a", [-2, 0, 1])
_small = st.integers(-3, 3)
_line = st.tuples(_small, _small).filter(any)
# which of the three drawn lines make up the product: distinct, one
# doubled, or one tripled
_pattern = st.sampled_from([(0, 1, 2), (0, 0, 1), (0, 0, 0)])
_in_sqrt2 = st.tuples(_small, _small).map(
    lambda ab: SQRT2.from_rational(ab[0]) + ab[1] * SQRT2.gen())
_sqrt2_line = st.tuples(_in_sqrt2, _in_sqrt2).filter(any)
_tail = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(
        lambda e: 4 <= sum(e) <= 5),
    _in_sqrt2, max_size=4)


class TestConeReference:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.lists(_line, min_size=3, max_size=3), _pattern)
    def test_products_of_three_lines(self, lines, pattern):
        cone = _product([(QQ(a), QQ(b)) for a, b in
                         (lines[k] for k in pattern)])
        direction = _check_cone(cone)
        if pattern != (0, 1, 2):
            a, b = lines[0]
            assert direction == (("infinite",) if not b
                                 else ("finite", QQ(-a, b)))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.tuples(_small, _small, _small, _small).filter(any))
    def test_random_binary_cubics(self, coeffs):
        _check_cone({(3 - j, j): QQ(c) for j, c in enumerate(coeffs) if c})

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.lists(_sqrt2_line, min_size=3, max_size=3), _pattern, _tail,
           _in_sqrt2)
    def test_germs_over_a_quadratic_field(self, lines, pattern, tail, t0):
        P = lp_add(_product([lines[k] for k in pattern]), tail)
        direction = _check_cone(lp_form(P, 3))
        if direction is not None and direction[0] == "finite":
            assert strict_transform_at(P, direction) == \
                _reference_blowup_finite(P, direction[1])
        assert lp_blowup_finite(P, t0) == _reference_blowup_finite(P, t0)
