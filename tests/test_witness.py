"""Construction, composition, and verification of rationalizing maps."""

from itertools import islice, product

import pytest
import sympy as sp
from hypothesis import HealthCheck, Phase, assume, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import AlgebraicField, QQ
from sympy.polys.orderings import lex
from sympy.polys.rings import PolyElement, PolyRing

from prop_helpers import to_sympy
from test_kernels import _coeff
from ratsqrt import mpoly, witness
from ratsqrt.engine import Config, decide
from ratsqrt.errors import (
    DegenerateProjection,
    WrongMultiplicity,
    ZeroDenominator,
)
from ratsqrt.geometry import build_model, high_mult_point_search
from ratsqrt.mpoly import (
    MultiPoly,
    RationalFunction,
    RationalMap,
    is_perfect_square,
    substitute,
)
from ratsqrt.parser import parse_poly, parse_rational
from ratsqrt.witness import (
    _height_tuples,
    _height_values,
    compose,
    conic_has_point,
    homogeneous_lift,
    parametrize_from_point,
    point_on_quadric,
    projection_witness,
    quadric_witness,
    verify_witness,
)


HEIGHT = Config.max_height


class TestQuadricWitness:
    def test_unit_circle(self):
        f = parse_poly("1 - X^2", ("X",))
        res = quadric_witness(f, HEIGHT)
        assert res is not None
        m, h = res
        assert h * h == substitute(f, m)

    def test_linear(self):
        f = parse_poly("X - 1", ("X",))
        res = quadric_witness(f, HEIGHT)
        assert res is not None
        m, h = res
        assert verify_witness(m, f) is not None

    def test_bivariate_quadric(self):
        f = parse_poly("X*Y + 1", ("X", "Y"))
        res = quadric_witness(f, HEIGHT)
        assert res is not None

    def test_extension_fallback(self):
        # X - 7 has no rational point with small height on w^2 = x - 7
        # unless the scan finds one; either way the witness must verify
        f = parse_poly("X - 7", ("X",))
        res = quadric_witness(f, height=3)
        assert res is not None
        m, _h = res
        assert verify_witness(m, f) is not None

    @pytest.mark.parametrize(
        "text", ["-X^2 - Y^2 - 7", "-2*X^2 - 2*X - 4", "-X^2 - 2*Y^2 - 3"]
    )
    def test_definite_quadric_witness_over_extension(self, text):
        # no real point: the centre and the map live over Q(sqrt(r)), and
        # the image is r*s^2 with r a square only there
        f = parse_poly(text)
        res = quadric_witness(f, HEIGHT)
        assert res is not None
        m, h = res
        assert m.extension is not None
        assert h * h == substitute(f, m)
        lc = to_sympy(h.num.leading_coeff())
        assert sp.expand(lc**2).is_Rational


class TestPointOnQuadric:
    def test_point_satisfies_equation(self):
        f = parse_poly("1 - X^2", ("X",))
        coords, ext = point_on_quadric(f, HEIGHT)
        # coords = (1, x..., w) with w^2 = f(x)
        x = coords[1]
        w = coords[-1]
        assert sp.simplify(w * w - (1 - x * x)) == 0


class TestVerifierWork:
    """The verifier takes exact square roots instead of a squarefree
    decomposition, and a definite quadric skips the point scan."""

    DEFINITE = "-(2*X^2 + X*Y + 3*Y^2 + 5)"

    def test_no_squarefree_decomposition(self, monkeypatch):
        f = parse_poly(self.DEFINITE)
        m, _h = quadric_witness(f, HEIGHT)
        image = substitute(f, m)
        calls = []
        for name in ("sqf_list", "cancel"):
            kernel = getattr(PolyElement, name)

            def spy(self, *args, _name=name, _kernel=kernel, **kwargs):
                calls.append(_name)
                return _kernel(self, *args, **kwargs)

            monkeypatch.setattr(PolyElement, name, spy)
        assert verify_witness(m, f) is not None
        assert "sqf_list" not in calls
        calls.clear()
        assert is_perfect_square(image, m.extension) is not None
        assert calls == []

    def test_definite_quadric_takes_the_origin(self):
        f = parse_poly(self.DEFINITE)
        coords, ext = point_on_quadric(f, HEIGHT)
        assert coords[:-1] == [1, 0, 0] and ext == -5
        # the scan it skips: no value among its first 1,000 tuples is a
        # rational square
        for x0 in islice(_height_tuples(2, 50), 1000):
            value = QQ.to_sympy(f.eval_at(dict(zip(f.vars, x0))))
            assert not sp.sqrt(value).is_rational


class TestNegativityOnlyBelowZeroAtTheOrigin:
    """point_on_quadric asks negative_everywhere only when f(0) < 0: the
    origin is the scan's first tuple, so f(0) >= 0 already shows that f is
    not negative everywhere."""

    def _spied(self, monkeypatch, text):
        calls = []
        real = witness.negative_everywhere
        monkeypatch.setattr(witness, "negative_everywhere",
                            lambda f: calls.append(f) or real(f))
        f = parse_poly(text)
        return f, point_on_quadric(f, HEIGHT), calls

    def test_not_asked_when_f_of_0_is_not_negative(self, monkeypatch):
        f, (coords, ext), calls = self._spied(monkeypatch, "X^2 - 3*Y^2 + 1")
        assert calls == []
        assert coords == [1, 0, 0, 1] and ext is None
        assert not witness.negative_everywhere(f)

    def test_still_asked_when_f_of_0_is_negative(self, monkeypatch):
        text = "-2*X^2 + X*Y - 3*Y^2 - 1"
        f, (coords, ext), calls = self._spied(monkeypatch, text)
        assert calls == [f]
        assert coords[:-1] == [1, 0, 0] and ext == -1


def _with_full_scan(fn, *args):
    """fn(*args) with Legendre's test switched off, so that every quadric
    is scanned."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(witness, "conic_has_point", lambda _f: True)
        return fn(*args)


def _never(*_args):
    raise AssertionError("called")


class TestLegendreBeforeTheScan:
    """A univariate quadric whose conic has no rational point skips the
    scan and takes the scan's own fallback."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
    def test_no_point_means_the_full_scan_finds_none(self, a, b, c):
        assume(a)
        f = MultiPoly(("X",), {(2,): a, (1,): b, (0,): c})
        if not conic_has_point(f):
            full = _with_full_scan(point_on_quadric, f, 10)
            assert full[1] is not None
            assert point_on_quadric(f, 10) == full

    def test_hopeless_quadric_keeps_its_witness(self, monkeypatch):
        f = parse_poly("-9*X^2 - 6*X + 5", ("X",))
        assert not conic_has_point(f)
        assert quadric_witness(f, HEIGHT) == \
            _with_full_scan(quadric_witness, f, HEIGHT)
        full = _with_full_scan(point_on_quadric, f, HEIGHT)
        calls = []
        eval_at = MultiPoly.eval_at
        monkeypatch.setattr(MultiPoly, "eval_at",
                            lambda p, v: calls.append(v) or eval_at(p, v))
        assert point_on_quadric(f, HEIGHT) == full
        assert len(calls) <= 2

    @pytest.mark.parametrize("sign", [1, -1])
    def test_large_coefficients_are_not_factored(self, sign, monkeypatch):
        # N = p*q with p, q of 25 digits: factorint would not split it
        N = sp.nextprime(10**24) * sp.nextprime(3 * 10**24)
        f = MultiPoly(("X",), {(2,): N, (0,): sign})
        full = _with_full_scan(point_on_quadric, f, HEIGHT)
        asked = []
        has_point = witness.conic_has_point
        monkeypatch.setattr(witness, "conic_has_point",
                            lambda g: asked.append(g) or has_point(g))
        monkeypatch.setattr(witness, "sqf_normal", _never)
        assert point_on_quadric(f, HEIGHT) == full
        # N*X^2 + 1 is a square at its first tuple, x = 0, and asks
        # nothing; N*X^2 - 1 asks and is scanned as without the test
        assert len(asked) == (sign < 0)
        assert full[1] == (None if sign > 0 else -1)


def _reference_height_tuples(n, height):
    """The enumeration _height_tuples replaced: a list of index lists per
    top index, with n = 1 handled apart."""
    vals = _height_values(height)
    if n == 1:
        for v in vals:
            yield (v,)
        return
    for top in range(len(vals)):
        stack = [[]]
        for _k in range(n):
            stack = [s + [i] for s in stack for i in range(top + 1)]
        for s in stack:
            if max(s) == top:
                yield tuple(vals[i] for i in s)


class TestHeightTuplesReference:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("height", [1, 3, 10, 50])
    def test_same_sequence(self, n, height):
        assert list(islice(_height_tuples(n, height), 3000)) == \
            list(islice(_reference_height_tuples(n, height), 3000))


class TestParametrize:
    def test_wrong_multiplicity_rejected(self):
        # centre not of multiplicity D-1 leaves higher powers of the line
        # parameter in the expansion
        V = build_model(parse_poly("X^4 + Y^4 + 1", ("X", "Y"))).V
        with pytest.raises(WrongMultiplicity, match=r"has a t\^4 term"):
            parametrize_from_point(V, [1, 0, 0, 0])

    def test_projection_from_node(self):
        f = parse_poly("X^2*(X + 1) - Y^2", ("X", "Y"))
        V = build_model(f).V
        pt, _c = high_mult_point_search(V)
        assert pt is not None and pt.field is None
        m = projection_witness(V, pt)
        assert m is not None
        assert verify_witness(m, f) is not None


def _reference_parametrize(H, q, extension=None):
    """The construction parametrize_from_point replaced: expand H(t*q + v)
    by a general substitution and read off its coefficients in t."""
    coords = H.vars
    source_vars = coords[1:-1]
    pivot = next((i for i, c in enumerate(q) if c), None)
    if pivot is None:
        raise WrongMultiplicity("projection centre must be a projective point")
    one_slot = [i for i in range(len(coords)) if i != pivot][-1]
    ring = ("t",) + tuple(source_vars)
    t = MultiPoly.var(ring, "t")
    line = {}
    params = iter(source_vars)
    vpart = {}
    for i, name in enumerate(coords):
        if i == pivot:
            vpart[i] = MultiPoly.zero(ring)
        elif i == one_slot:
            vpart[i] = MultiPoly.const(ring, 1)
        else:
            vpart[i] = MultiPoly.var(ring, next(params))
        line[name] = RationalFunction.from_poly(t * q[i] + vpart[i])
    expanded = substitute(H, RationalMap(ring, line)).num
    te = expanded.degree_in("t")
    if te > 1:
        raise WrongMultiplicity(
            f"expansion has a t^{te} term; centre multiplicity is not D-1"
        )
    Ap = expanded.derivative("t").with_vars(source_vars)
    Bp = MultiPoly.of(expanded.pe.subs(0, 0)).with_vars(source_vars)  # t = 0
    if Ap.is_zero():
        raise DegenerateProjection("residual-intersection form vanishes")
    den = Bp * -q[0] + Ap * vpart[0].with_vars(source_vars)
    if den.is_zero():
        raise DegenerateProjection("projection denominator vanishes")
    assignments = {}
    for slot, name in enumerate(coords[1:-1], start=1):
        num = Bp * -q[slot] + Ap * vpart[slot].with_vars(source_vars)
        assignments[name] = RationalFunction(num, den)
    return RationalMap(source_vars, assignments, extension=extension)


def _outcome(build, H, q, extension):
    """The map, or the class and text of the refusal."""
    try:
        m = build(H, q, extension)
    except (WrongMultiplicity, DegenerateProjection) as e:
        return type(e).__name__, str(e)
    return m, m.extension


SMALL = st.integers(-3, 3)
X, Y = sp.symbols("X Y")
XY = PolyRing((X, Y), QQ, lex)


@st.composite
def _centres(draw):
    """(H, q, extension): the closure H of W^2 = f and a centre on it.

    f is a quadric in one to three variables, a negative definite one, a
    bivariate cubic with a node at a small rational point, or a quartic
    linear in Y, which has a triple point at infinity.  The centre is the
    one the engine would take (a quadric point, over QQ(sqrt(c)) when
    the quadric is definite or the scan height too small to find a
    rational one, or the multiplicity-(D-1) point the search finds) or a
    small integer point, mostly of the wrong multiplicity.
    """
    kind = draw(st.sampled_from(["quadric", "definite", "cubic", "quartic"]))
    names = ("X", "Y", "Z")[:draw(st.integers(1, 3))]
    if kind == "quadric":
        exps = [e for e in product(range(3), repeat=len(names)) if sum(e) <= 2]
        f = MultiPoly(names, {e: draw(SMALL) for e in exps})
    elif kind == "definite":
        # -(c_0 + c_1 X^2 + ...): the exponent of X_j is 2 in term j + 1
        f = MultiPoly(names, {
            tuple(2 * (i == j + 1) for j in range(len(names))):
                -draw(st.integers(1, 3))
            for i in range(len(names) + 1)
        })
    elif kind == "cubic":
        u, v = X - draw(SMALL), Y - draw(SMALL)
        f = MultiPoly.of(XY.from_expr(sum(
            draw(SMALL) * u**i * v**(d - i)
            for d in (2, 3) for i in range(d + 1)
        )))
    else:
        a, b = (sum(draw(SMALL) * X**i for i in range(top))
                for top in (5, 4))
        f = MultiPoly.of(XY.from_expr(a + b * Y))
    assume(not f.is_constant())
    model = build_model(f)
    if draw(st.booleans()):
        q = draw(st.lists(SMALL, min_size=len(model.V.vars),
                          max_size=len(model.V.vars)))
        return model.V, q, None
    if kind in ("quadric", "definite"):
        try:
            height = draw(st.sampled_from([1, 2, 50]))
            q, ext = point_on_quadric(model.f, height)
        except DegenerateProjection:
            assume(False)
        return model.V, q, ext
    pt, _certified = high_mult_point_search(model.V)
    assume(pt is not None and pt.field is None)
    return model.V, list(pt.proj), None


class TestPolarProjection:
    """The projection reads A and B off the polars of H instead of
    expanding H(t*q + v); maps and refusals must not change."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(_centres())
    def test_matches_the_substitution(self, case):
        H, q, ext = case
        assert _outcome(parametrize_from_point, H, q, ext) == \
            _outcome(_reference_parametrize, H, q, ext)


def _always_cancelled_reference(H, q, extension=None):
    """_reference_parametrize with every fraction reduced by sympy's
    cancel, no image certificate asked."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(mpoly, "_coprime_by_images", lambda a, b: False)
        m.setattr(mpoly, "_cancel", lambda a, b: a.cancel(b))
        return _reference_parametrize(H, q, extension)


def _vanishing_at(draw, point, degree):
    """A form of `degree` in len(point) coordinates with small integer
    coefficients, adjusted at one monomial to vanish at `point`; None when
    the point has no nonzero coordinate to adjust at."""
    n = len(point)
    exps = [e for e in product(range(degree + 1), repeat=n)
            if sum(e) == degree]
    form = {e: QQ(draw(SMALL)) for e in exps}
    j = next((i for i, c in enumerate(point) if c), None)
    if j is None:
        return None
    value = sum(c * _monomial_at(e, point) for e, c in form.items())
    top = tuple(degree * (i == j) for i in range(n))
    form[top] -= value / point[j] ** degree
    return form


def _monomial_at(e, point):
    out = QQ(1)
    for x, k in zip(point, e):
        out *= x**k
    return out


@st.composite
def _reducible_closures(draw):
    """(H, q, extension): H = L*Q or L*M*Q in (z, X..., w), with L and M
    linear forms in z, X... and Q = w^2 - g(z, X...) all through q, so
    that A and B share L (or L*M).  q = (z0, x..., w0) has z0 in {0, 1}
    and w0 rational or in QQ(sqrt r), r in {2, -3}; its other coordinates
    are small integers."""
    names = ("X", "Y")[:draw(st.integers(1, 2))]
    base = [QQ(draw(st.integers(0, 1)))] + [QQ(draw(SMALL)) for _ in names]
    c = QQ(draw(st.sampled_from([1, 4, 2, -3, 8])))
    extension = None if mpoly._rational_sqrt(c) is not None else c
    w0 = mpoly._rational_sqrt(c) or mpoly.quadratic_field(c)[1]
    g = _vanishing_at(draw, base, 2)
    assume(g is not None)
    j = next(i for i, x in enumerate(base) if x)
    g[tuple(2 * (i == j) for i in range(len(base)))] += c / base[j] ** 2
    n = len(base)
    Q = MultiPoly(("z", *names, "w"), {
        **{e + (0,): -x for e, x in g.items()}, (0,) * n + (2,): 1})
    H = Q
    for _ in range(draw(st.integers(1, 2))):
        L = _vanishing_at(draw, base, 1)
        H = H * MultiPoly(("z", *names, "w"), {e + (0,): x
                                               for e, x in L.items()})
    assume(not H.is_zero())
    return H, [*base, w0], extension


class TestReducedWithoutCancel:
    """parametrize_from_point builds every coordinate reduced from one
    gcd(A, B) and a common monomial; it must equal the always-cancelled
    reference, on closures whose A and B share a factor."""

    def test_matches_the_always_cancelled_reference(self):
        gcd_runs = []
        cofactors = PolyElement.cofactors

        @settings(max_examples=80, deadline=None, derandomize=True,
                  database=None,
                  suppress_health_check=[HealthCheck.filter_too_much])
        @given(_reducible_closures())
        def check(case):
            H, q, ext = case
            ref = _outcome(_always_cancelled_reference, H, q, ext)
            with pytest.MonkeyPatch.context() as m:
                m.setattr(PolyElement, "cofactors",
                          lambda f, g: gcd_runs.append(1) or cofactors(f, g))
                m.setattr(PolyElement, "cancel", _no_cancel)
                assert _outcome(parametrize_from_point, H, q, ext) == ref

        check()
        assert gcd_runs

    def test_a_centre_at_infinity_reads_v_i_over_v_0(self, monkeypatch):
        # Y^2 = X^3 + X + 1 from its centre (0:0:1:1): the X coordinate is
        # A*Y over A*X, so Y/X with no arithmetic
        model = build_model(parse_poly("Y^2 - X^3 - X - 1", ("X", "Y")))
        ref = _always_cancelled_reference(model.V, [0, 0, 1, 1])
        monkeypatch.setattr(PolyElement, "cancel", _no_cancel)
        m = parametrize_from_point(model.V, [0, 0, 1, 1])
        assert m == ref
        assert str(m.assignments["X"]) == "RationalFunction('(Y)/(X)')"


def _no_cancel(*_args):
    raise AssertionError("cancel ran")


@pytest.mark.parametrize("text", ["-X^2 - Y^2 - 2", "-9*X^2 - 6*X + 5"])
def test_rational_centre_coordinates_enter_the_field_without_sympy(
        monkeypatch, text):
    # each quadric's centre has its w in QQ(sqrt(r)) and its other
    # coordinates in QQ, which move into the field as domain elements
    def refuse(self, a):
        raise AssertionError("a coefficient went through a sympy number")

    monkeypatch.setattr(AlgebraicField, "from_sympy", refuse)
    p = parse_poly(text)
    v = decide(p)
    assert v.witness is not None and v.witness.extension is not None
    assert verify_witness(v.witness, p) is not None


class TestVerify:
    def test_rejects_missing_assignment(self):
        f = parse_poly("X*Y + 1", ("X", "Y"))
        m = RationalMap(("X",), {"X": parse_rational("X^2", ("X",))})
        assert verify_witness(m, f) is None

    def test_rejects_constant_map(self):
        f = parse_poly("X - 1", ("X",))
        m = RationalMap(("X",), {"X": parse_rational("4", ("X",))})
        assert verify_witness(m, f) is None

    def test_rejects_non_square_image(self):
        f = parse_poly("X", ("X",))
        m = RationalMap(("X",), {"X": parse_rational("X^3", ("X",))})
        assert verify_witness(m, f) is None

    def test_accepts_square_image(self):
        f = parse_poly("X", ("X",))
        m = RationalMap(("X",), {"X": parse_rational("X^2", ("X",))})
        h = verify_witness(m, f)
        assert h is not None and h * h == substitute(f, m)


class TestCompose:
    def test_substitution_order(self):
        f = parse_poly("X - 2", ("X",))
        outer = RationalMap(("X",), {"X": parse_rational("X^2 + 1", ("X",))})
        inner = RationalMap(("X",), {"X": parse_rational("(X^2 + 1)/(2*X)", ("X",))})
        c = compose(outer, inner)
        lhs = substitute(f, c)
        step = substitute(f, outer)
        rhs_num = substitute(step.num, inner)
        rhs_den = substitute(step.den, inner)
        assert lhs == rhs_num / rhs_den

    def test_composite_rationalizes_both(self):
        # the standard two-step solution for {X-1, X-2}
        outer = RationalMap(("X",), {"X": parse_rational("X^2 + 1", ("X",))})
        inner = RationalMap(("X",), {"X": parse_rational("(X^2 + 1)/(2*X)", ("X",))})
        c = compose(outer, inner)
        for text in ("X - 1", "X - 2"):
            assert verify_witness(c, parse_poly(text, ("X",))) is not None


def _compose_route_lift(inner, ring, dehom_var):
    """The lift homogeneous_lift replaced, unverified: compose the inner map
    with X_i -> X_i/X_n, multiply each coordinate by X_n, then set
    X_n -> X_n."""
    xn = MultiPoly.var(ring, dehom_var)
    xn_rf = RationalFunction.from_poly(xn)
    frac_map = RationalMap(ring, {
        v: RationalFunction(MultiPoly.var(ring, v), xn)
        for v in inner.source_vars})
    assignments = {
        v: xn_rf * g for v, g in compose(inner, frac_map).assignments.items()}
    assignments[dehom_var] = xn_rf
    return RationalMap(ring, assignments, extension=inner.extension)


def _built(build):
    """The JSON of the map build() returns, or the class of its refusal."""
    try:
        return build().to_json()
    except ZeroDenominator as e:
        return type(e).__name__


@st.composite
def _inner_maps(draw):
    """(inner, ring, var): a map in lowest terms over QQ or QQ(sqrt(r)),
    r in {2, 5, -1, -7}, of one to three chart variables, each coordinate
    of degree <= 2 on either side, and the ring of its lift, the chart
    with var = W put in at any place.  Half of the maps are over the whole
    ring and assign W -> W, as an alphabet's padded map does; some of
    those, as a supplied candidate may, involve W in other coordinates."""
    r = draw(st.sampled_from([None, 2, 5, -1, -7]))
    chart = ("X", "Y", "Z")[:draw(st.integers(1, 3))]
    at = draw(st.integers(0, len(chart)))
    ring = chart[:at] + ("W",) + chart[at:]
    padded = draw(st.booleans())
    source = ring if padded else chart
    params = source if padded and draw(st.integers(0, 2)) == 0 else chart
    exps = [e for e in product(range(3), repeat=len(params)) if sum(e) <= 2]

    def poly():
        terms = draw(st.dictionaries(st.sampled_from(exps), _coeff(r),
                                     max_size=4))
        return MultiPoly(params, terms).with_vars(source)

    assignments = {}
    for v in chart:
        num, den = poly(), poly()
        if den.is_zero():
            den = MultiPoly.const(source, 1)
        assignments[v] = RationalFunction(num, den)
    if padded:
        assignments["W"] = RationalFunction.from_poly(
            MultiPoly.var(source, "W"))
    extension = r if r is not None and draw(st.booleans()) else None
    return RationalMap(source, assignments, extension=extension), ring, "W"


class TestHomogeneousLift:
    def test_lift_verifies(self):
        hom = parse_poly("X1^2 - X2^2", ("X1", "X2"))
        inner_f = parse_poly("X1^2 - 1", ("X1",))
        res = quadric_witness(inner_f, HEIGHT)
        assert res is not None
        lifted = homogeneous_lift(res[0], hom, "X2")
        assert lifted is not None
        m, h = lifted
        assert h * h == substitute(hom, m)

    def test_lift_of_a_polynomial_map(self):
        # constant denominators lift too: X1 -> X1^2 rationalizes X1, so
        # X1 -> X1^2/X2, X2 -> X2 rationalizes X1*X2
        hom = parse_poly("X1*X2", ("X1", "X2"))
        inner = RationalMap(("X1",), {"X1": parse_rational("X1^2", ("X1",))})
        m, h = homogeneous_lift(inner, hom, "X2")
        assert m.assignments["X1"] == parse_rational("X1^2/X2", ("X1", "X2"))
        assert h * h == substitute(hom, m)

    def test_lift_of_a_padded_map(self):
        # an alphabet's map carries the identity X2 -> X2 for the variable
        # it dehomogenized in; the lift replaces it by X2 -> X2 itself
        hom = parse_poly("X1*X2", ("X1", "X2"))
        inner = RationalMap(("X1", "X2"), {
            "X1": parse_rational("X1^2", ("X1", "X2")),
            "X2": parse_rational("X2", ("X1", "X2"))})
        m, h = homogeneous_lift(inner, hom, "X2")
        assert m.to_json()["assignments"] == {"X1": "(X1^2)/(X2)", "X2": "X2"}
        assert h * h == substitute(hom, m)

    def test_a_coordinate_involving_the_chart_variable_is_read_at_1(self):
        # a supplied candidate of an alphabet may involve X2; the lift
        # reads it at X2 = 1, as the composition with X1 -> X1/X2 did
        vs = ("X1", "X2")
        hom = parse_poly("X1*X2", vs)
        inner = RationalMap(vs, {"X1": parse_rational("X1^2*X2", vs),
                                 "X2": parse_rational("X2", vs)})
        m, h = homogeneous_lift(inner, hom, "X2")
        assert m == _compose_route_lift(inner, vs, "X2")
        assert m.to_json()["assignments"] == {"X1": "(X1^2)/(X2)", "X2": "X2"}

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None,
              phases=[p for p in Phase if p is not Phase.shrink])
    @given(_inner_maps())
    def test_matches_the_compose_route(self, case):
        # the lift is built in lowest terms with no compose or substitute,
        # and with no cancel unless a coordinate involves W; verification
        # is stubbed out, so that a map that is no witness is still built
        # and compared
        inner, ring, var = case
        ref = _built(lambda: _compose_route_lift(inner, ring, var))
        cancels = []
        cancel = mpoly._cancel
        with pytest.MonkeyPatch.context() as m:
            m.setattr(mpoly, "_cancel",
                      lambda a, b: cancels.append(1) or cancel(a, b))
            m.setattr(witness, "compose", _never)
            m.setattr(witness, "substitute", _never)
            m.setattr(witness, "verify_witness", lambda m, f: True)
            lifted = _built(lambda: homogeneous_lift(
                inner, MultiPoly.var(ring, var), var)[0])
        if not any(var in g.vars and (g.num.degree_in(var) > 0
                                      or g.den.degree_in(var) > 0)
                   for g in inner.assignments.values()):
            assert cancels == []
        assert lifted == ref

    def test_lift_quartic(self):
        hom = parse_poly("X1^4 + X2^4 + X3^4", ("X1", "X2", "X3"))
        from ratsqrt.engine import decide

        v = decide(hom)
        assert v.outcome == "Rationalizable"
        if v.witness is not None:
            assert verify_witness(v.witness, hom) is not None
