"""Plane-curve germ analysis: multiplicity, cone shape, Milnor numbers, ADE."""

from fractions import Fraction
from math import comb

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

import pytest

from ratsqrt import localanalysis
from ratsqrt import unipoly as up
from ratsqrt.errors import NonIsolated, WrongMultiplicity
from ratsqrt.localanalysis import (
    DOUBLE_PLUS_SIMPLE,
    THREE_DISTINCT_LINES,
    TRIPLE_LINE,
    _degree,
    classify_germ,
    cubic_cone,
    intersection_multiplicity,
    lp_form,
    lp_multiplicity,
    milnor_number,
    milnor_via_jets,
)
from ratsqrt.numberfield import NFElem, NumberField
from ratsqrt.unipoly import add, derivative, mul


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
        assert derivative(P, 0) == germ({(2, 0): 3, (0, 2): 1})

    def test_mul(self):
        # (u + v)(u - v) = u^2 - v^2
        a = germ({(1, 0): 1, (0, 1): 1})
        b = germ({(1, 0): 1, (0, 1): -1})
        assert mul(a, b) == germ({(2, 0): 1, (0, 2): -1})


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
        fu = derivative(P, 0)
        fv = derivative(P, 1)
        assert milnor_via_jets(fu, fv) == 7

    def test_smooth_point(self):
        # regular germ: no critical point, mu = 0
        assert milnor_number(germ({(1, 0): 1, (0, 2): 1})) == 0

    def test_non_isolated_rejected_by_the_bezout_bound(self):
        # u^2 v + u^3 + u^3 v + u^6 = u^2 (v + u + u v + u^4): both partials
        # vanish on u = 0, and each route stops past the Bezout bound 5 * 3
        P = germ({(2, 1): 1, (3, 0): 1, (3, 1): 1, (6, 0): 1})
        fu, fv = derivative(P, 0), derivative(P, 1)
        with pytest.raises(NonIsolated):
            intersection_multiplicity(fu, fv)
        with pytest.raises(NonIsolated):
            milnor_via_jets(fu, fv)
        with pytest.raises(NonIsolated):
            classify_germ(P)

    def test_zero_partial_rejected_at_once(self):
        # P = v^2: f_u = 0, so (f_u, f_v) has infinite colength
        fv = germ({(0, 1): 2})
        with pytest.raises(NonIsolated):
            milnor_via_jets({}, fv)
        with pytest.raises(NonIsolated):
            milnor_via_jets(fv, {})

    def test_bounds_reached_exactly(self):
        # I(v - u^3, v) = 3 = deg * deg, and mu(u^4 + v^4) = 9 = 3 * 3: a
        # value equal to the Bezout bound is still returned
        assert intersection_multiplicity(germ({(0, 1): 1, (3, 0): -1}),
                                         germ({(0, 1): 1})) == 3
        assert milnor_via_jets(germ({(3, 0): 4}), germ({(0, 3): 4})) == 9


class TestConeShape:
    def test_three_distinct_lines(self):
        # uv(u + v): discriminant of the binary cubic is nonzero
        cone = germ({(2, 1): 1, (1, 2): 1})
        assert cubic_cone(cone) == THREE_DISTINCT_LINES

    def test_double_plus_simple(self):
        # u^2 v
        cone = germ({(2, 1): 1})
        assert cubic_cone(cone) == DOUBLE_PLUS_SIMPLE

    def test_triple_line(self):
        cone = germ({(3, 0): 1})
        assert cubic_cone(cone) == TRIPLE_LINE
        # (u + v)^3 expanded
        cone = germ({(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1})
        assert cubic_cone(cone) == TRIPLE_LINE


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
        shape = cubic_cone(lp_form(P, 3))
        assert (shape != THREE_DISTINCT_LINES) or c.mu == 4

    @pytest.mark.parametrize("P, mu", [
        ({(2, 1): 1, (1, 2): 1, (3, 0): 1}, 5),  # three lines: mu = 4
        ({(2, 1): 1, (0, 4): 1}, 4),  # double line: mu >= 5
        ({(3, 0): 1, (0, 4): 1}, 9),  # triple line: mu <= 8 or mu >= 10
        ({(3, 0): 1, (0, 4): 1}, 5),
    ])
    def test_mu_the_cone_rules_out_raises(self, monkeypatch, P, mu):
        monkeypatch.setattr(localanalysis, "milnor_number", lambda P: mu)
        with pytest.raises(WrongMultiplicity):
            classify_germ(germ(P))


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


def _product(lines):
    out = {(0, 0): 1}
    for a, b in lines:
        out = mul(out, {e: c for e, c in (((1, 0), a), ((0, 1), b)) if c})
    return out


def _repeated_direction(cone):
    """Reference: the repeated line of a cubic cone with two or three
    equal lines, ('infinite',) for u = 0 and ('finite', t0) for v = t0*u,
    t0 the repeated root of p(t) = cone(1, t) by the closed forms for a
    double and a triple root."""
    a, b, c, d = (cone.get((3 - j, j), 0) for j in range(4))
    if not c and not d:
        return ("infinite",)
    if not c * c - 3 * b * d:
        return ("finite", -c / (3 * d))
    return ("finite", (9 * a * d - b * c) / (2 * (c * c - 3 * b * d)))


def _reference_classify(P):
    """Reference: the blowup classification of a multiplicity-3 germ.  The
    germ is simple exactly when its strict transform along the repeated
    cone direction has multiplicity <= 2; it is then D(mu) unless the cone
    is a triple line, which gives E(mu)."""
    shape = _reference_shape(lp_form(P, 3))
    mu = milnor_number(P)
    if shape == THREE_DISTINCT_LINES:
        return "D", mu
    direction = _repeated_direction(lp_form(P, 3))
    if direction[0] == "infinite":
        strict = {(i, i + j - 3): c for (i, j), c in P.items()}
    else:
        strict = _reference_blowup_finite(P, direction[1])
    if lp_multiplicity(strict) >= 3:
        return "NonSimple", mu
    return ("E" if shape == TRIPLE_LINE else "D"), mu


def _check_cone(cone):
    assert cubic_cone(cone) == _reference_shape(cone)


SQRT2 = NumberField(None, "a", {(0,): QQ(-2), (2,): QQ(1)})
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
        _check_cone(_product([(QQ(a), QQ(b)) for a, b in
                              (lines[k] for k in pattern)]))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.tuples(_small, _small, _small, _small).filter(any))
    def test_random_binary_cubics(self, coeffs):
        _check_cone({(3 - j, j): QQ(c) for j, c in enumerate(coeffs) if c})

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.lists(_sqrt2_line, min_size=3, max_size=3), _pattern, _tail)
    def test_germs_over_a_quadratic_field(self, lines, pattern, tail):
        P = add(_product([lines[k] for k in pattern]), tail)
        _check_cone(lp_form(P, 3))


# a germ of multiplicity 3: a product of three lines, some repeated, plus
# one to three terms of degree 4..7, all over QQ or all over QQ(sqrt 2);
# lines along the axes are drawn often, so that sparse tails reach E7, E8
# and the series beyond
_coefficient = {"QQ": st.sampled_from([0, 0, 1, -1, 2]).map(QQ),
                "QQ(sqrt 2)": _in_sqrt2}


@st.composite
def _germs_of_multiplicity_3(draw):
    coef = _coefficient[draw(st.sampled_from(sorted(_coefficient)))]
    lines = draw(st.lists(st.tuples(coef, coef).filter(any), min_size=3,
                          max_size=3))
    tail = draw(st.dictionaries(
        st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(
            lambda e: 4 <= sum(e) <= 7),
        coef.filter(bool), min_size=1, max_size=3))
    return add(_product([lines[k] for k in draw(_pattern)]), tail)


class TestClassifyReference:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(_germs_of_multiplicity_3())
    def test_cone_and_mu_agree_with_the_blowup(self, P):
        # a non-isolated germ is rejected once a Milnor route exceeds the
        # Bezout bound of its two partials
        try:
            expected = _reference_classify(P)
        except NonIsolated:
            with pytest.raises(NonIsolated):
                classify_germ(P)
            return
        c = classify_germ(P)
        assert (c.kind, c.mu, c.multiplicity) == (*expected, 3)


# -- reference: both Milnor routes over the field, as they were before they
# ran fraction-free; the Euclidean recursion divides by the top coefficient,
# and the jet dimension row-reduces the matrix truncated at N afresh for
# every N


def _reference_intersection(P, Q):
    P, Q = up.clean(P), up.clean(Q)
    bound = _degree(P) * _degree(Q)
    total = 0
    while True:
        if not P or not Q:
            raise NonIsolated("zero germ")
        if P.get((0, 0), 0) or Q.get((0, 0), 0):
            return total
        if total > bound:
            raise NonIsolated("past the Bezout bound")
        f = {(i,): c for (i, j), c in P.items() if j == 0}
        g = {(i,): c for (i, j), c in Q.items() if j == 0}
        if not f and not g:
            raise NonIsolated("both divisible by v")
        if not f:
            total += min(g)[0]
            P = {(i, j - 1): c for (i, j), c in P.items()}
        elif not g:
            total += min(f)[0]
            Q = {(i, j - 1): c for (i, j), c in Q.items()}
        else:
            (df,), (dg,) = max(f), max(g)
            if df > dg:
                P, Q, f, g, df, dg = Q, P, g, f, dg, df
            Q = add(Q, mul({(dg - df, 0): -(g[(dg,)] / f[(df,)])}, P))


def _reference_jet_dim(fu, fv, N):
    monos = [(i, d - i) for d in range(N) for i in range(d + 1)]
    index = {m: k for k, m in enumerate(monos)}
    rows = []
    for gen in (fu, fv):
        mult = lp_multiplicity(gen)
        for a in range(N):
            for b in range(N - a - mult):
                row = [0] * len(monos)
                for (i, j), c in gen.items():
                    if i + a + j + b < N:
                        row[index[(i + a, j + b)]] += c
                rows.append(row)
    return len(monos) - _rank(rows)


def _rank(rows):
    """Rank over QQ or one number field: each entry x of a field of degree
    n becomes its n x n rational multiplication matrix, which multiplies
    the rank by n.  The rows are sparse, and so is the matrix."""
    field = next((c.field for row in rows for c in row
                  if isinstance(c, NFElem)), None)
    basis = [QQ.one] if field is None else [NFElem(field, u) for u in field.units]
    n = len(basis)
    blocks = {}

    def block(x):
        """Column j: the coordinates of x times basis element j."""
        if x not in blocks:
            blocks[x] = [p.vec if isinstance(p, NFElem) else (QQ(p),)
                         for p in (x * b for b in basis)]
        return blocks[x]

    entries = {}
    for r, row in enumerate(rows):
        for col, x in enumerate(row):
            if x:
                for j, column in enumerate(block(x)):
                    for i, c in enumerate(column):
                        if c:
                            entries.setdefault(r * n + i, {})[col * n + j] = c
    shape = (len(rows) * n, len(rows[0]) * n if rows else 0)
    # Gauss-Jordan over QQ; the fraction-free default of rank() takes
    # several times longer on these rows
    _rref, pivots = DomainMatrix(entries, shape, QQ).rref(method="GJ")
    return len(pivots) // n


def _reference_jets(fu, fv):
    if not fu or not fv:
        raise NonIsolated("a zero partial")
    bound = _degree(fu) * _degree(fv)
    N, prev = 3, None
    while True:
        dim = _reference_jet_dim(fu, fv, N)
        if dim == prev:
            return dim
        if dim > bound:
            raise NonIsolated("past the Bezout bound")
        prev, N = dim, N + 1


def _outcome(route, fu, fv):
    try:
        return route(fu, fv)
    except NonIsolated:
        return NonIsolated


_SQRT2_SQRT3 = NumberField(SQRT2, "b", {(0,): SQRT2.from_rational(-3),
                                         (2,): SQRT2.one()})
_in_tower = st.tuples(_in_sqrt2, _in_sqrt2).map(
    lambda xy: _SQRT2_SQRT3.lift(xy[0]) + _SQRT2_SQRT3.lift(xy[1])
    * _SQRT2_SQRT3.gen())
_germ_coefficient = {
    "QQ": st.builds(QQ, st.integers(-3, 3), st.integers(1, 2)),
    "QQ(sqrt 2)": _in_sqrt2,
    "QQ(sqrt 2, sqrt 3)": _in_tower,
}


@st.composite
def _germs(draw):
    """A germ of multiplicity 2 or more and degree at most 5; about every
    fourth one is l^2 times a germ of degree at most 2, for a line l
    through the origin, so that its partials share l and the germ is not
    isolated."""
    coef = _germ_coefficient[draw(st.sampled_from(sorted(_germ_coefficient)))]
    squared = draw(st.integers(0, 3)) == 0
    top = 2 if squared else 5
    P = up.clean(draw(st.dictionaries(
        st.tuples(st.integers(0, top), st.integers(0, top)).filter(
            lambda e: (0 if squared else 2) <= sum(e) <= top),
        coef, min_size=1, max_size=5)))
    if squared:
        line = up.clean({(1, 0): draw(coef), (0, 1): draw(coef)})
        P = mul(mul(line, line), P)
    return P


class TestMilnorRoutesAgainstReference:
    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None)
    @given(_germs())
    def test_both_routes_match_the_field_routines(self, P):
        fu, fv = derivative(P, 0), derivative(P, 1)
        assert (_outcome(intersection_multiplicity, fu, fv)
                == _outcome(_reference_intersection, fu, fv))
        assert (_outcome(milnor_via_jets, fu, fv)
                == _outcome(_reference_jets, fu, fv))


# -- Milnor numbers on certified jets, against both routes run on the whole
# germ, which stay the reference


def _whole_germ(P):
    """Reference: both routes on the untruncated germ, cross-checked."""
    fu, fv = derivative(P, 0), derivative(P, 1)
    via_int = _outcome(intersection_multiplicity, fu, fv)
    assert via_int == _outcome(milnor_via_jets, fu, fv)
    return via_int


def _jets(P):
    try:
        return milnor_number(P)
    except NonIsolated:
        return NonIsolated


# the two monomials of a quasi-homogeneous normal form, and its Milnor
# number; adding terms of weighted degree above 1 keeps the Milnor number
# (the germ stays semi-quasi-homogeneous), and so does a linear change of
# coordinates
NORMAL_FORMS = {
    "A1": (((2, 0), (0, 2)), 1), "A3": (((2, 0), (0, 4)), 3),
    "A5": (((2, 0), (0, 6)), 5), "D4": (((2, 1), (0, 3)), 4),
    "D5": (((2, 1), (0, 4)), 5), "D6": (((2, 1), (0, 5)), 6),
    "E6": (((3, 0), (0, 4)), 6), "E7": (((3, 0), (1, 3)), 7),
    "E8": (((3, 0), (0, 5)), 8), "X9": (((4, 0), (0, 4)), 9),
    "J10": (((3, 0), (0, 6)), 10), "W12": (((4, 0), (0, 5)), 12),
}


def _above_the_diagram(form, top):
    """The monomials of total degree <= top and of weighted degree above 1,
    for the weights that give both monomials of `form` weighted degree 1."""
    (a, b), (c, d) = form
    det = a * d - b * c
    wu, wv = Fraction(d - b, det), Fraction(a - c, det)
    return [(i, j) for i in range(top + 1) for j in range(top + 1 - i)
            if i * wu + j * wv > 1]


def _linear_change(P, a, b, c, d):
    """P(a*u + b*v, c*u + d*v)."""
    top = _degree(P)
    x, y = up.clean({(1, 0): a, (0, 1): b}), up.clean({(1, 0): c, (0, 1): d})
    xs, ys = [{(0, 0): 1}], [{(0, 0): 1}]
    for _ in range(top):
        xs.append(mul(xs[-1], x))
        ys.append(mul(ys[-1], y))
    out = {}
    for (i, j), k in P.items():
        out = add(out, {e: k * t for e, t in mul(xs[i], ys[j]).items()})
    return out


@st.composite
def _normal_form_germs(draw, name, field):
    """A normal form with nonzero coefficients, plus terms above its Newton
    diagram up to degree 6, in linear coordinates over `field`."""
    form = NORMAL_FORMS[name][0]
    coef = _germ_coefficient[field]
    nonzero = coef.filter(bool)
    P = {e: draw(nonzero) for e in form}
    tail = _above_the_diagram(form, 6)
    for e in draw(st.lists(st.sampled_from(tail), max_size=4, unique=True)):
        P[e] = draw(coef)
    a, b, c, d = (draw(coef) for _ in range(4))
    assume(a * d - b * c)
    return _linear_change(up.clean(P), a, b, c, d)


@st.composite
def _non_isolated_germs(draw, field):
    """l^2 * h for a line l through the origin and a nonzero h of degree
    <= 2 over `field`: both partials vanish on l.  The degree stays low,
    since each route runs up to the Bezout bound before it rejects the
    germ."""
    coef = _germ_coefficient[field]
    line = up.clean({(1, 0): draw(coef), (0, 1): draw(coef)})
    assume(line)
    h = up.clean(draw(st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(
            lambda e: sum(e) <= 2), coef, min_size=1, max_size=4)))
    assume(h)
    return mul(mul(line, line), h)


def _derandomized(strategy, max_examples):
    """A decorator running a check on `max_examples` derandomized draws."""
    return lambda check: settings(
        max_examples=max_examples, deadline=None, derandomize=True,
        database=None)(given(strategy)(check))


@st.composite
def _hidden_a_k(draw, k, field):
    """(u + s*v^2)^2 + t*v^(k+1), an A_k germ whose low jets mislead: the
    3-jet u^2 + 2*s*u*v^2 is A_3 and the 4-jet a square; in linear
    coordinates over `field`."""
    coef = _germ_coefficient[field]
    s, t = draw(coef.filter(bool)), draw(coef.filter(bool))
    P = {(2, 0): 1, (1, 2): 2 * s, (0, 4): s * s, (0, k + 1): t}
    a, b, c, d = (draw(coef) for _ in range(4))
    assume(a * d - b * c)
    return _linear_change(up.clean(P), a, b, c, d)


class TestJetMilnorAgainstTheWholeGerm:
    @pytest.mark.parametrize("field", sorted(_germ_coefficient))
    @pytest.mark.parametrize("name", sorted(NORMAL_FORMS))
    def test_normal_forms(self, name, field):
        @_derandomized(_normal_form_germs(name, field), 3)
        def check(P):
            assert _jets(P) == _whole_germ(P) == NORMAL_FORMS[name][1]

        check()

    @pytest.mark.parametrize("field", sorted(_germ_coefficient))
    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_misleading_jets(self, k, field):
        @_derandomized(_hidden_a_k(k, field), 3)
        def check(P):
            assert _jets(P) == _whole_germ(P) == k

        check()

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(_germs())
    def test_random_germs(self, P):
        assert _jets(P) == _whole_germ(P)

    @pytest.mark.parametrize("field", sorted(_germ_coefficient))
    def test_non_isolated_germs_raise(self, field):
        @_derandomized(_non_isolated_germs(field), 8)
        def check(P):
            assert _whole_germ(P) is NonIsolated
            with pytest.raises(NonIsolated):
                milnor_number(P)

        check()

    def test_a_certified_jet_skips_the_whole_germ(self, monkeypatch):
        # u^2 + v^2 + v^6: the 3-jet has mu = 1 and 1 + 1 <= 3, so the
        # degree-6 germ itself is never computed
        degrees = []
        routes = localanalysis._routes
        monkeypatch.setattr(localanalysis, "_routes",
                            lambda P: degrees.append(_degree(P)) or routes(P))
        assert milnor_number(germ({(2, 0): 1, (0, 2): 1, (0, 6): 1})) == 1
        assert degrees == [2]

    def test_an_uncertified_jet_is_not_trusted(self, monkeypatch):
        # (u - v^2)^2 + v^7 is A_6.  Its 3-jet u^2 - 2uv^2 has mu = 3 > 3 - 1,
        # which certifies nothing; its 4-jet is a square, not isolated, so
        # the order doubles past the degree and the whole germ is computed
        degrees = []
        routes = localanalysis._routes
        monkeypatch.setattr(localanalysis, "_routes",
                            lambda P: degrees.append(_degree(P)) or routes(P))
        P = germ({(2, 0): 1, (1, 2): -2, (0, 4): 1, (0, 7): 1})
        assert milnor_number(P) == 6
        assert degrees == [3, 4, 7]
