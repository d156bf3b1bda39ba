"""Projective models, singular loci, and the high-multiplicity point search."""

from itertools import combinations_with_replacement

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import PolyElement

from ratsqrt import RATIONALIZABLE, decide, geometry, unipoly
from ratsqrt.errors import NonReduced
from ratsqrt.geometry import (
    AlgebraicPoint,
    SingularityRecord,
    all_simple,
    build_model,
    centre_from_records,
    high_mult_point_search,
    milnor_sum,
    multiplicity_at,
    singular_points,
    triple_point_of_cubic,
)
from ratsqrt.ideal import groebner
from ratsqrt.localanalysis import classify_germ
from ratsqrt.mpoly import (
    MultiPoly,
    _ring,
    effective_vars,
    homogenize,
    is_homogeneous,
    listed,
    quadratic_field,
    squarefree_part,
)
from ratsqrt.parser import parse_poly, parse_rational


def bhabha_radicand():
    # numerator times denominator of the degree-6 two-variable radicand
    p = parse_poly("(X + Y)*(1 + X*Y)", ("X", "Y"))
    q = parse_poly("X + Y - 4*X*Y + X^2*Y + X*Y^2", ("X", "Y"))
    from ratsqrt.mpoly import squarefree_part

    return squarefree_part(p * q)


class TestBuildModel:
    def test_degrees_and_shape(self):
        m = build_model(parse_poly("X^3 - Y^2", ("X", "Y")))
        assert m.f.total_degree() == 3
        assert is_homogeneous(m.V) == 3
        assert is_homogeneous(m.B) == 4
        # odd degree: the branch curve acquires the line at infinity
        assert m.B.degree_in(m.B.vars[0]) >= 1

    def test_even_degree_branch_is_plain_homogenization(self):
        m = build_model(parse_poly("X^4 + Y^4", ("X", "Y")))
        assert m.B == homogenize(m.f, m.B.vars[0])

    def test_quadratic_floor(self):
        # V always has degree at least 2 (the w^2 term)
        m = build_model(parse_poly("X - 1", ("X",)))
        assert m.V.total_degree() == 2
        assert m.B is None

    def test_unused_vars_dropped(self):
        m = build_model(parse_poly("X^2 + 1", ("X", "Y")))
        assert m.f.vars == ("X",)


class TestSingularPoints:
    def test_smooth_curve_has_none(self):
        B = build_model(parse_poly("X^4 + Y^4 + 1", ("X", "Y"))).B
        assert singular_points(B) == []

    def test_nodal_cubic(self):
        # Y^2 = X^2 (X + 1) has exactly one singular point, the node at 0
        B = build_model(parse_poly("X^2*(X + 1) - Y^2", ("X", "Y"))).B
        pts = singular_points(B)
        rational = [(p, m) for p, m in pts if p.field is None]
        assert any(m == 2 for _p, m in rational)

    def test_nonreduced_rejected(self):
        m = build_model(parse_poly("X^2 + Y^2", ("X", "Y")))
        sq = m.B * m.B
        with pytest.raises(NonReduced):
            singular_points(sq)

    def test_square_of_the_line_at_infinity_rejected(self):
        # s^2 * B is not reduced, though its chart s = 1 is the smooth conic
        m = build_model(parse_poly("X^2 + Y^2 - 1", ("X", "Y")))
        s = MultiPoly.var(m.B.vars, m.B.vars[0])
        with pytest.raises(NonReduced):
            singular_points(s * s * m.B)

    def test_conjugacy_classes_counted(self):
        # irrational singular points are reported once per Galois class,
        # with the class size recorded; this degree-6 product has 11 classes
        # of which one is a conjugate pair over a quadratic field
        dj = parse_poly(
            "(X+1)*(X-1)*(Y+1)*(X+Y+1)*(16*X+(4+Y)^2)", ("X", "Y")
        )
        B = build_model(dj).B
        pts = singular_points(B)
        assert len(pts) == 11
        pairs = [p for p, _m in pts if p.class_size == 2]
        assert len(pairs) == 1
        assert pairs[0].field is not None

    def test_points_at_infinity_in_charts_1_and_2(self):
        # Y = 0 and Y = 1 meet the four lines X^2 = -1, X^2 = 2 in four
        # conjugate pairs; at infinity the two horizontal lines meet in a
        # node (0:1:0) and the four vertical ones in (0:0:1)
        B = build_model(
            parse_poly("Y*(X^2+1)*(X^2-2)*(Y-1)", ("X", "Y"))
        ).B
        pts = singular_points(B)
        assert [(p.chart, p.class_size, m) for p, m in pts if p.chart == 0] \
            == [(0, 2, 2)] * 4
        # reference for chart 1: gcd of B, B_s and B_y2 on s = 0, y1 = 1
        s, y1, y2 = sp.symbols(B.vars)
        b = B.pe.as_expr()
        on_line = [sp.Poly(e.subs({s: 0, y1: 1}), y2)
                   for e in (b, sp.diff(b, s), sp.diff(b, y2))]
        g = on_line[0]
        for e in on_line[1:]:
            g = sp.gcd(g, e)
        chart1 = [(p.proj, m) for p, m in pts if p.chart == 1]
        assert [(0, 1, r) for r in sp.roots(g)] == [pr for pr, _m in chart1]
        assert [m for _pr, m in chart1] == [2]
        # reference for chart 2: the least degree of B(s, y1, 1)
        at_pole = sp.Poly(b.subs(y2, 1), s, y1)
        least = min(sum(e) for e in at_pole.monoms())
        assert least == 4
        assert [(p.proj, m) for p, m in pts if p.chart == 2] \
            == [((0, 0, 1), least)]

    def test_chart_c_solves_the_unknowns_after_coordinate_c(self, monkeypatch):
        # a spy on the solver also sees its hyperplane cuts; these inputs
        # make none
        ks = []
        solve = geometry._solve_ideal
        monkeypatch.setattr(
            geometry, "_solve_ideal",
            lambda gens, ring, k: ks.append(k) or solve(gens, ring, k),
        )
        singular_points(build_model(parse_poly("X^4 + Y^4 + 1", ("X", "Y"))).B)
        assert ks == [2, 1, 0]
        ks.clear()
        V = build_model(parse_poly("X1^4 + X2^4 + 1", ("X1", "X2"))).V
        assert high_mult_point_search(V) == (None, True)
        assert ks == [3, 2, 1, 0]

    def test_deterministic_order(self):
        # the solver's order, the same on every call; the records sorted
        model = build_model(bhabha_radicand())
        a = [p.sort_key() for p, _m in singular_points(model.B)]
        b = [p.sort_key() for p, _m in singular_points(model.B)]
        keys = [r.point.sort_key() for r in all_simple(model)[1]]
        assert a == b and keys == sorted(a)


class TestAllSimple:
    def test_bhabha_all_simple_sum(self):
        # degree-6 radicand; every singularity simple, total Milnor 17
        m = build_model(bhabha_radicand())
        ok, records = all_simple(m)
        assert ok
        assert milnor_sum(records) == 17
        D = m.B.total_degree()
        assert milnor_sum(records) <= (D - 1) * (D - 2)

    def test_fermat_quartic_nonsimple(self):
        m = build_model(parse_poly("X^4 + Y^4", ("X", "Y")))
        ok, records = all_simple(m)
        assert not ok
        assert any(r.label == "NonSimple" and r.multiplicity == 4 for r in records)

    def test_node_is_a1(self):
        m = build_model(parse_poly("X^2*(X + 1) - Y^2", ("X", "Y")))
        _ok, records = all_simple(m)
        assert any(r.label == "A1" for r in records)


class TestOneGermPerPoint:
    def test_one_translation_per_singular_point(self, monkeypatch):
        shifts = []
        translate = unipoly.translate
        monkeypatch.setattr(
            unipoly, "translate",
            lambda P, shift: shifts.append(shift) or translate(P, shift),
        )
        _ok, records = all_simple(build_model(bhabha_radicand()))
        assert len(records) == 7
        assert len(shifts) == len(records)

    def test_all_simple_calls_the_module_global(self, monkeypatch):
        # the tracer wraps module globals, so --trace 1 sees the point search
        # inside all_simple only if all_simple looks it up there
        calls = []
        find = geometry._product_singular_points
        monkeypatch.setattr(
            geometry, "_product_singular_points",
            lambda form, factors: calls.append(factors) or find(form, factors))
        m = build_model(bhabha_radicand())
        all_simple(m)
        assert calls == [m.factors]


def _triple_point_of(F):
    """The triple point of a cubic form F, from the singular points of its
    branch curve z*F, z the first coordinate."""
    z = MultiPoly.var(F.vars, F.vars[0])
    return triple_point_of_cubic(singular_points(z * F))


class TestTriplePoint:
    def test_concurrent_lines_found(self):
        # X*Y*(X + Y): three lines through the origin
        B = build_model(parse_poly("X*Y*(X + Y)", ("X", "Y"))).B
        assert triple_point_of_cubic(singular_points(B)) is not None

    def test_generic_cubic_has_none(self):
        B = build_model(parse_poly("X*Y*(X + Y + 1)", ("X", "Y"))).B
        assert triple_point_of_cubic(singular_points(B)) is None

    def test_nodal_cubic_has_none(self):
        B = build_model(parse_poly("X^2*(X + 1) - Y^2", ("X", "Y"))).B
        assert triple_point_of_cubic(singular_points(B)) is None

    @pytest.mark.parametrize("text", [
        "X^2*Y", "(X + Y - Z)^2*(X - 2*Z)", "Z^2*(X + Y + Z)",
        "X^3", "(X - Y + 3*Z)^3",
    ])
    def test_repeated_factor_rejected(self, text):
        # l^2*m and l^3 have a triple point; they must not be taken for one
        F3 = parse_poly(text, ("Z", "X", "Y"))
        with pytest.raises(NonReduced):
            _triple_point_of(F3)


def _nullspace_triple_point(F):
    """Reference: the kernel of the six second-partial rows of a cubic,
    normalized at its first nonzero entry, as (chart, coordinates)."""
    terms = dict(F.pe.terms())
    rows = []
    for i, j in combinations_with_replacement(range(3), 2):
        row = [QQ(0)] * 3
        for e, c in unipoly.derivative(unipoly.derivative(terms, i), j).items():
            row[e.index(1)] = c
        rows.append(row)
    kernel = DomainMatrix(rows, (len(rows), 3), QQ).nullspace().to_list()
    if not kernel:
        return None
    vec = kernel[0]
    piv = next(i for i, x in enumerate(vec) if x)
    return piv, tuple(x / vec[piv] for x in vec)


def _triple_point(F):
    pt = _triple_point_of(F)
    return None if pt is None else (pt.chart, pt.proj)


_ZXY = ("z", "X", "Y")
_small = st.integers(-3, 3)


class TestTriplePointReference:
    @pytest.mark.parametrize("text, chart", [
        ("X*(X-z)*(X+2*z)", 2), ("Y*(Y-z)*(Y+2*z)", 1),
        ("(X-z)*(Y-2*z)*(X+Y-3*z)", 0),
    ])
    def test_concurrent_lines(self, text, chart):
        F = parse_poly(text, _ZXY)
        assert _triple_point(F) == _nullspace_triple_point(F)
        assert _triple_point(F)[0] == chart

    @pytest.mark.parametrize("text", ["X^3+Y^3+z^3"])
    def test_no_triple_point(self, text):
        F = parse_poly(text, _ZXY)
        assert _triple_point(F) is None is _nullspace_triple_point(F)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.tuples(_small, _small, _small),
           st.lists(st.tuples(_small, _small, _small), min_size=3, max_size=3))
    def test_three_lines_through_a_rational_point(self, p, us):
        # each line u x p passes through p; three distinct lines meet there
        assume(any(p))
        lines = [(u[1] * p[2] - u[2] * p[1], u[2] * p[0] - u[0] * p[2],
                  u[0] * p[1] - u[1] * p[0]) for u in us]
        assume(all(any(l) for l in lines))
        for a, b in ((0, 1), (0, 2), (1, 2)):
            cross = (lines[a][1] * lines[b][2] - lines[a][2] * lines[b][1],
                     lines[a][2] * lines[b][0] - lines[a][0] * lines[b][2],
                     lines[a][0] * lines[b][1] - lines[a][1] * lines[b][0])
            assume(any(cross))
        F = parse_poly("*".join(f"({a}*z+({b})*X+({c})*Y)"
                                for a, b, c in lines), _ZXY)
        got = _triple_point(F)
        assert got == _nullspace_triple_point(F)
        chart = next(i for i, x in enumerate(p) if x)
        assert got == (chart, tuple(QQ(x, p[chart]) for x in p))


class TestHighMultSearch:
    def test_point_at_infinity_in_chart_2(self):
        # W^2 = X^3 + Y: the closure z*w^2 = X^3 + Y*z^2 is singular only
        # at (z:X:Y:w) = (0:0:1:0)
        V = build_model(parse_poly("X^3 + Y", ("X", "Y"))).V
        pt, certified = high_mult_point_search(V)
        assert not certified
        assert (pt.chart, pt.proj) == (2, (0, 0, 1, 0))

    def test_quadric_never_certified_empty_without_rank(self):
        # cusp surface: W^2 = X^3 - Y^2 has a double point at the origin
        V = build_model(parse_poly("X^3 - Y^2", ("X", "Y"))).V
        pt, certified = high_mult_point_search(V)
        assert pt is not None
        assert multiplicity_at(V, pt) == V.total_degree() - 1

    def test_smooth_quartic_certified_empty(self):
        # W^2 = X1^4 + X2^4 + X3^4 dehomogenized: smooth branch; the
        # degree-4 closure has no triple point, and both the chart loop and
        # the branch-curve records certify it
        model = build_model(parse_poly("X1^4 + X2^4 + 1", ("X1", "X2")))
        assert high_mult_point_search(model.V) == (None, True)
        _ok, records = all_simple(model)
        assert centre_from_records(model, [r.point for r in records]) \
            == (None, True)

    def test_returned_point_multiplicity_verified(self):
        # the nodal cubic's closure has its double point at the affine
        # origin (1:0:0:0), over the node of the branch curve
        model = build_model(parse_poly("X^2*(X + 1) - Y^2", ("X", "Y")))
        pt, certified = high_mult_point_search(model.V)
        assert (pt.chart, pt.proj, pt.field, certified) == (0, (1, 0, 0, 0),
                                                            None, False)
        assert multiplicity_at(model.V, pt) == model.V.total_degree() - 1
        points = [p for p, _m in singular_points(model.B)]
        assert centre_from_records(model, points) == (pt, False)


def _bivariate(terms, swap=False):
    """A polynomial in X, Y from {(i, j): c}; `swap` exchanges X and Y."""
    return MultiPoly(("X", "Y"), {(j, i) if swap else (i, j): QQ(c)
                                  for (i, j), c in terms.items() if c})


def _monomials(d):
    return [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]


_c = st.integers(-3, 3)
_nz = st.sampled_from([-3, -2, -1, 1, 2, 3])


def _dense(d):
    n = len(_monomials(d))
    return st.lists(_nz, min_size=n, max_size=n).map(
        lambda cs: _bivariate(dict(zip(_monomials(d), cs))))


def _sparse(d):
    return st.builds(
        lambda terms, i, c: _bivariate({**terms, (i, d - i): c}),
        st.dictionaries(st.sampled_from(_monomials(d)), _nz, min_size=2,
                        max_size=5),
        st.integers(0, d), _nz)


def _low_degree_in_x(d):
    # a*X^k + b(Y)*X + e(Y), k = 1 or 2, a constant for k = 2: F has
    # multiplicity d - 1 at (0:1:0) for k = 1, and for k = 2 the tangent
    # cone a*z^(d-2) there, so the centres are (0:1:0:+-sqrt(a)), rational
    # or not; swapped, the point is (0:0:1) in chart 2
    def build(k, a, b, e, top, swap):
        terms = {(1, j): c for j, c in enumerate(b)}
        terms.update({(0, j): c for j, c in enumerate(e)})
        terms[(0, d)] = top
        if k == 2:
            terms[(2, 0)] = a
        return _bivariate(terms, swap)
    return st.builds(build, st.sampled_from([1, 2]),
                     st.sampled_from([1, 4, 9, 2, 3, -1, -2]),
                     st.lists(_c, min_size=d, max_size=d),
                     st.lists(_c, min_size=d, max_size=d), _nz, st.booleans())


def _in_one_linear_form(d):
    # g(a*X + b*Y), g of degree d: F is d lines through one point at
    # infinity, of multiplicity d on F and on V, so no centre
    def build(a, b, g):
        return parse_poly(" + ".join(f"({c})*({a}*X + ({b})*Y)^{k}"
                                     for k, c in enumerate(g + [1])),
                          ("X", "Y"))
    return st.builds(build, _nz, _c, st.lists(_c, min_size=d, max_size=d))


def _irrational_at_infinity(d):
    # q^2 * l^(d-4) + q * m + low with q = X^2 - n*Y^2: F is singular at
    # the conjugate points (0:+-sqrt(n):1) at infinity
    def build(n, l, m, low):
        q = {(2, 0): 1, (0, 2): -n}
        top = _bivariate(q) ** 2 * _bivariate(l) ** (d - 4)
        return top + _bivariate(q) * _bivariate(m) + _bivariate(low)
    return st.builds(
        build, st.sampled_from([2, 3, 5, -1]),
        st.tuples(_c, _nz).map(lambda ab: {(1, 0): ab[0], (0, 1): ab[1]}),
        st.dictionaries(st.sampled_from([(i, d - 3 - i) for i in range(d - 2)]),
                        _c),
        st.dictionaries(st.sampled_from(_monomials(d - 2)), _c))


def _result(res):
    pt, certified = res
    return (None if pt is None else pt.to_json()), certified


# examples per family: a generic curve of degree 5 or 6 takes all_simple
# about a tenth of a second, the others a few milliseconds
@pytest.mark.parametrize("family, examples", [
    (_dense, 8), (_sparse, 25), (_low_degree_in_x, 40),
    (_in_one_linear_form, 25), (_irrational_at_infinity, 10),
], ids=lambda x: getattr(x, "__name__", x))
def test_centre_from_records_matches_the_search(family, examples):
    @settings(max_examples=examples, deadline=None, derandomize=True,
              database=None)
    @given(st.integers(4, 6).flatmap(family))
    def check(f):
        f = squarefree_part(f)
        assume(tuple(effective_vars(f)) == ("X", "Y") and f.total_degree() >= 4)
        model = build_model(f)
        _ok, records = all_simple(model)
        points = [r.point for r in records]
        assert (_result(centre_from_records(model, points))
                == _result(high_mult_point_search(model.V)))

    check()


def _line(a, b, c):
    return _bivariate({(0, 0): a, (1, 0): b, (0, 1): c})


def _product(polys):
    out = polys[0]
    for p in polys[1:]:
        out = out * p
    return out


def _lines_general():
    return st.lists(st.builds(_line, _c, _c, _c), min_size=3,
                    max_size=3).map(_product)


def _lines_concurrent_affine():
    # three lines b*(X - p) + c*(Y - q) through the point (p, q)
    return st.builds(
        lambda p, q, dirs: _product([_line(-b * p - c * q, b, c)
                                     for b, c in dirs]),
        _c, _c, st.lists(st.tuples(_c, _c), min_size=3, max_size=3))


def _lines_concurrent_at_infinity():
    # three parallel lines: a cubic in one linear form, a cone
    return st.builds(
        lambda b, c, offsets: _product([_line(a, b, c) for a in offsets]),
        _nz, _c, st.lists(_c, min_size=3, max_size=3, unique=True))


def _conic_and_line():
    return st.builds(
        lambda conic, line: _bivariate(conic) * line,
        st.dictionaries(st.sampled_from(_monomials(2)), _c, min_size=1),
        st.builds(_line, _c, _c, _c))


def _singular_at(square_cone):
    # Q(u, v) + C(u, v) at u = X - p, v = Y - q: a double point at (p, q),
    # a cusp when the tangent cone Q is a square (a*u + b*v)^2
    def build(p, q, cone, cubic):
        u, v = _line(-p, 1, 0), _line(-q, 0, 1)
        a, b, c = cone
        Q = (a * u + b * v) ** 2 if square_cone else (a * u * u + b * u * v
                                                      + c * v * v)
        return Q + sum((k * u ** i * v ** (3 - i)
                        for i, k in enumerate(cubic)), 0 * u)
    return st.builds(build, _c, _c, st.lists(_c, min_size=3, max_size=3),
                     st.lists(_c, min_size=4, max_size=4))


def _weierstrass():
    # Y^2 = X^3 + a*X + b, smooth when 4a^3 + 27b^2 != 0, X and Y swapped
    # or not
    return st.builds(
        lambda a, b, swap: _bivariate({(0, 2): 1, (3, 0): -1, (1, 0): -a,
                                       (0, 0): -b}, swap),
        _c, _c, st.booleans())


def _irrational_affine_nodes():
    # (X^2 - n)*(Y - a*X - c): the nodes (+-sqrt(n), ...) are conjugate;
    # (X^2 + e*Y^2 - n)*(Y - c) meets its line where X^2 = n - e*c^2
    n = st.sampled_from([2, 3, 5, -1, 6])
    return st.one_of(
        st.builds(lambda n, a, c: _bivariate({(2, 0): 1, (0, 0): -n})
                  * _line(-c, -a, 1), n, _c, _c),
        st.builds(lambda n, e, c: _bivariate({(2, 0): 1, (0, 2): e,
                                              (0, 0): -n}) * _line(-c, 0, 1),
                  n, st.sampled_from([1, -1, 2]), _c))


# (l, t): the line l through the origin and a form t with t = 1 at the
# point at infinity of l
_ROOT_LINES = [((1, 0), (0, 1)), ((0, 1), (-1, 0)), ((1, -1), (1, 0))]


def _repeated_root_of_top_form():
    # f3 = l^2 * m, f2 = n*t^2 + l*r: f2 takes the value n, not a square,
    # at the double root of f3, so the centres above it are irrational
    def build(lt, m, n, r, low):
        (lx, ly), (tx, ty) = lt
        l, t = _line(0, lx, ly), _line(0, tx, ty)
        return l * l * _line(0, *m) + n * t * t + l * _line(0, *r) \
            + _bivariate(low)
    return st.builds(build, st.sampled_from(_ROOT_LINES),
                     st.tuples(_c, _c), st.sampled_from([2, 3, 5, -1, -2, 6]),
                     st.tuples(_c, _c),
                     st.dictionaries(st.sampled_from(_monomials(1)), _c))


@pytest.mark.parametrize("family, examples", [
    (_lines_general, 30), (_lines_concurrent_affine, 20),
    (_lines_concurrent_at_infinity, 15), (_conic_and_line, 30),
    (lambda: _singular_at(False), 25), (lambda: _singular_at(True), 25),
    (_weierstrass, 15), (_irrational_affine_nodes, 20),
    (_repeated_root_of_top_form, 25),
], ids=["three-lines", "concurrent-affine", "concurrent-at-infinity",
        "conic-and-line", "nodal", "cuspidal", "weierstrass",
        "irrational-affine-nodes", "repeated-root-of-f3"])
def test_cubic_centre_and_triple_point_from_the_branch_curve(family, examples):
    # the centre read off the singular points of B = s*F is the search's,
    # and the triple point the kernel of F's second partials
    @settings(max_examples=examples, deadline=None, derandomize=True,
              database=None)
    @given(family())
    def check(f):
        assume(not f.is_zero())
        f = squarefree_part(f)
        assume(tuple(effective_vars(f)) == ("X", "Y") and f.total_degree() == 3)
        model = build_model(f)
        points = singular_points(model.B)
        assert (_result(centre_from_records(model, [p for p, _m in points]))
                == _result(high_mult_point_search(model.V)))
        tp = triple_point_of_cubic(points)
        assert ((None if tp is None else (tp.chart, tp.proj))
                == _nullspace_triple_point(homogenize(f, "z")))

    check()


# the solver's ring for three unknowns: generators x2 > x1 > x0
_X210 = ("x2", "x1", "x0")


def _system(*texts):
    """Chart polynomials as elements of the solver's ring."""
    return [parse_poly(t, _X210).pe for t in texts]


def _value(p, fld, coords):
    """p at coords, listed in the order of its ring's generators."""
    total = QQ.zero if fld is None else fld.zero()
    for e, c in p.terms():
        term = c if fld is None else fld.from_rational(c)
        for a, exp in zip(coords, e):
            term = term * a**exp
        total = total + term
    return total


def _solve(*texts):
    return geometry._solve_ideal(_system(*texts), _ring(_X210), 3)


class TestLexSolve:
    """The lex solver `_solve_ideal` on systems in three unknowns."""

    def test_zero_unknowns(self):
        ring = _ring(())
        assert geometry._solve_ideal([ring(3)], ring, 0) == ([], True)
        assert geometry._solve_ideal([], ring, 0) == ([(None, ())], True)

    def test_empty_system_is_certified(self):
        assert _solve("x0^2 + 1", "x0*x1 - 1", "x1") == ([], True)

    def test_rational_points_in_order(self):
        sols, complete = _solve("x0^2 - 1", "x1 - x0", "x2")
        assert complete
        assert [coords for _fld, coords in sols] == [(1, 1, 0), (-1, -1, 0)]

    @pytest.mark.parametrize("texts", [
        ("x0^2 - 2", "x1^2 - 3", "x2 - x0*x1"),
        ("x0^3 - x0 - 1", "x1^2 - x0", "x2 - x1^3"),
        ("x0^2 - 2", "x1^2 - 2", "x2 - 1"),
    ])
    def test_points_satisfy_every_equation_over_their_tower(self, texts):
        sols, complete = _solve(*texts)
        assert sols and complete
        for fld, coords in sols:
            assert len(coords) == 3
            for p in _system(*texts):
                assert not _value(p, fld, coords[::-1])

    def test_splitting_over_the_first_level(self):
        # x1^2 = 2 splits over QQ(sqrt(2)): two classes, both at height 1
        sols, complete = _solve("x0^2 - 2", "x1^2 - 2", "x2")
        assert complete
        assert [fld.height for fld, _c in sols] == [1, 1]

    def test_roots_above_the_tower_cap_make_it_incomplete(self):
        assert _solve("x0^2 - 2", "x1^2 - 3", "x2^2 - 5") == ([], False)

    def test_positive_dimensional_system_yields_a_point(self):
        # the hyperbola x0*x1 = 1: the cut x0 = 0 misses it, x0 = 1 meets it
        sols, complete = _solve("x0*x1 - 1", "x2 - x1")
        assert not complete
        assert [coords for _fld, coords in sols] == [(1, 1, 1)]

    def test_quadric_charts_of_the_hung_inputs(self):
        # charts of the order-(D-2) partials: each point is a zero of all
        found = 0
        for text in ("X^2*Y + Z^2 + 1", "X^3 + Y^3 + Z^3 + 1"):
            V = build_model(parse_poly(text)).V
            D = V.total_degree()
            quadrics = geometry._order_partials(V.pe, D - 2)
            for _chart, points, _c in geometry._vanishing_points(quadrics):
                for fld, proj in points:
                    found += 1
                    for q in quadrics:
                        assert not _value(q, fld, proj)
        assert found


def _reference_order_partials(form, order):
    """The enumeration _order_partials replaced: every combination of axes
    differentiated from the form again."""
    seen = {}
    for combo in combinations_with_replacement(range(form.ring.ngens), order):
        d = form
        for axis in combo:
            d = d.diff(axis)
            if not d:
                break
        if d:
            seen[tuple(sorted(d.items()))] = d
    return [seen[k] for k in sorted(seen)]


class TestOrderPartials:
    FORMS = ("X^2*Y + Z^2 + 1", "X^3 + Y^3 + Z^3 + 1", "X1^4 + X2^4 + X3^4",
             "X^2*(X + 1) - Y^2", "X*Y^3 + Y + 1")

    @pytest.mark.parametrize("text", FORMS)
    def test_same_partials_in_the_same_order(self, text):
        V = build_model(parse_poly(text)).V
        for order in range(V.total_degree() + 2):
            assert geometry._order_partials(V.pe, order) == \
                _reference_order_partials(V.pe, order)

    def test_one_derivative_per_axis_multiset(self, monkeypatch):
        # 5 coordinates: 5 first partials and 15 second, 30 diffs before
        V = build_model(parse_poly("X1^4 + X2^4 + X3^4 + X1*X2*X3")).V
        calls = []
        real = PolyElement.diff
        monkeypatch.setattr(PolyElement, "diff",
                            lambda p, x: calls.append(x) or real(p, x))
        geometry._order_partials(V.pe, 2)
        assert len(calls) == 5 + 15


class TestFormsOnly:
    """The point searches read a polynomial as a projective form; a
    polynomial with terms of different degrees is refused."""

    NOT_A_FORM = ("s*X^2 + Y + X*Y", ("s", "X", "Y"))

    def test_singular_points(self):
        with pytest.raises(ValueError, match="form"):
            singular_points(parse_poly(*self.NOT_A_FORM))

    def test_multiplicity_at(self):
        pt = AlgebraicPoint(None, (QQ(1), QQ(0), QQ(0)), 0)
        with pytest.raises(ValueError, match="form"):
            multiplicity_at(parse_poly(*self.NOT_A_FORM), pt)

    def test_triple_point_of_cubic(self):
        # the triple point is read off the branch curve's singular points
        with pytest.raises(ValueError, match="form"):
            _triple_point_of(parse_poly("X^3 + s*Y + 1", ("s", "X", "Y")))


class TestMultiplicityAt:
    def test_origin_of_node(self):
        B = build_model(parse_poly("X^2*(X + 1) - Y^2", ("X", "Y"))).B
        pts = singular_points(B)
        for p, m in pts:
            assert multiplicity_at(B, p) == m


# --------------------------------------------------------------------------
# branch curves read through their factors


_XY = ("X", "Y")
_R = st.sampled_from([2, 3, 5, -1])


def _factor_texts(p, q):
    """Lines, conics and cusps, some through the point (p, q): concurrent
    lines, conics tangent there, and conics X^2 - r, Y^2 - r whose points
    lie over QQ(sqrt(r)) or, meeting, over a height-2 tower."""
    return st.one_of(
        st.builds(lambda b, c: f"{b}*(X - {p}) + {c}*(Y - {q})", _nz, _c),
        st.builds(lambda a, b, c: f"{a} + {b}*X + {c}*Y", _c, _c, _nz),
        st.builds(lambda r: f"X^2 - {r}", _R),
        st.builds(lambda r: f"Y^2 - {r}", _R),
        st.builds(lambda r: f"X^2 + Y^2 - {r}", _R),
        st.builds(lambda e: f"Y - {q} - {e}*(X - {p})^2", _nz),
        st.builds(lambda a: f"(Y - {q})^2 - {a}*(X - {p})^3", _nz),
    )


def _products():
    """A product of 2-4 such factors, each listed as it is written."""
    return st.tuples(_c, _c).flatmap(lambda pq: st.lists(
        _factor_texts(*pq), min_size=2, max_size=4)).map(
        lambda texts: _product([listed(parse_poly(t, _XY)) for t in texts]))


def _whole_curve_records(B):
    """The records of B's singular points as singular_points(B) finds them,
    each classified on its germ, sorted by point."""
    records = []
    for pt, _m in singular_points(B):
        cls = classify_germ(pt.germ)
        records.append(
            SingularityRecord(pt, cls.multiplicity, cls.mu, cls.label()))
    return sorted(records, key=lambda rec: rec.point.sort_key())


class TestProductStrata:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(_products())
    def test_the_records_of_the_strata_are_those_of_the_whole_curve(self, f):
        assume(f.total_degree() <= 7)
        f = squarefree_part(f)
        assume(tuple(effective_vars(f)) == _XY and f.total_degree() >= 3)
        model = build_model(f)
        odd = f.total_degree() % 2
        assume(len(model.factors) - odd >= 2)
        whole = _whole_curve_records(model.B)
        # read through the listed factors, then with F(s, X, Y) whole
        for m in (model, build_model(MultiPoly.of(f.pe))):
            ok, records = all_simple(m)
            assert ok == all(rec.simple for rec in whole)
            assert [r.point.sort_key() for r in records] == [
                r.point.sort_key() for r in whole]
            assert [r.to_json() for r in records] == [r.to_json() for r in whole]
        assert len(build_model(MultiPoly.of(f.pe)).factors) == 1 + odd

    def test_a_factor_list_records_the_factors_of_the_branch_curve(self):
        # odd degree: the line at infinity s is a factor, listed first
        f = squarefree_part(parse_poly("(X - 1)*(X^2 + Y^2 - 5)", _XY))
        model = build_model(f)
        s = model.B.vars[0]
        assert model.factors[0] == MultiPoly.var(model.B.vars, s).pe
        product = MultiPoly.const(model.B.vars, 1)
        for g in model.factors:
            product = product * MultiPoly.of(g)
        assert product.monic() == model.B.monic()
        # no list, or a list of one factor: s and F(s, X, Y)
        for g in (MultiPoly.of(parse_poly("X^3 + Y^2 + 1", _XY).pe),
                  listed(parse_poly("X^3 + Y^2 + 1", _XY))):
            model = build_model(g)
            s = model.B.vars[0]
            assert model.factors == (MultiPoly.var(model.B.vars, s).pe,
                                     homogenize(model.f, s).pe)

    def test_a_list_over_a_quadratic_field_is_not_read(self):
        # f's coefficients are rational, so f has moved to QQ, while its
        # listed factors stay over QQ(sqrt 2): F(s, X, Y) is B's one factor
        K = quadratic_field(2)[0]
        text = "(X - sqrt(2)*Y)*(X + sqrt(2)*Y)*(X - 1)*(Y - 1)"
        f = parse_rational(text, _XY, K).num
        assert f.coefficients_rational()
        assert any(g.ring is not f.pe.ring for g, _k in f.factors)
        model = build_model(f)
        s = model.B.vars[0]
        assert model.factors == (homogenize(model.f, s).pe,)
        v = decide(f)
        assert v.outcome == RATIONALIZABLE
        assert [r.to_json() for r in v.singularities] == [
            r.to_json() for r in _whole_curve_records(model.B)]
        assert [(r.label, r.point.class_size) for r in v.singularities] == [
            ("A1", 1), ("A1", 1), ("A1", 2), ("A1", 2)]


def _chart0_basis(form):
    """The reduced lex basis of a form's first partials on chart 0."""
    ring = _ring(("x1", "x0"))
    gens = [ring.from_dict({e[1:][::-1]: c for e, c in p.items()})
            for p in geometry._order_partials(form, 1)]
    return groebner([g for g in gens if g], ring)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5).flatmap(_sparse))
def test_chart_0_of_s_times_F_is_chart_0_of_F(f):
    # at s = 1, F + F_s, F_y1, F_y2 and F_s, F_y1, F_y2 both generate
    # (F, F_y1, F_y2), by the Euler identity
    assume(f.total_degree() >= 1)
    F = homogenize(f, "s")
    s = MultiPoly.var(F.vars, "s")
    assert _chart0_basis((s * F).pe) == _chart0_basis(F.pe)
