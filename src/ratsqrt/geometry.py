"""Projective models attached to a square root and their singularity data.

For a squarefree radicand f of degree d in n variables this module builds:

* the hypersurface model: the projective closure of W^2 = f, an equation of
  degree D = max(d, 2) in n + 2 coordinates (z, x_1..x_n, w);
* for n = 2, the branch curve B = s^(2r-d) * F, F the homogenization of
  f in s, of the double cover u^2 = s^(2r) f(y/s) with r = ceil(d/2): a
  plane projective curve of even degree 2r whose singular points carry the
  whole classification (the cover is singular exactly over the singular
  points of B, with germs of the same ADE type).

Two searches share one chart loop (:func:`_vanishing_points`): the
singular points of B (order-1 partials) and the points of multiplicity
D - 1 on a hypersurface (order D - 2, projection centres for explicit
witnesses), the latter for three or more variables only.  By the Euler
identity each is the common zero set of every partial derivative of one
order.  Chart c sets coordinate c to 1 and every earlier coordinate to 0,
so the charts partition projective space and each point turns up once,
in the chart of its first nonzero coordinate.  Each chart goes to one
solver (:func:`_solve_ideal`): the reduced lex Groebner basis, computed
fraction-free over ZZ by :func:`ratsqrt.ideal.groebner` and made monic
over QQ at the end, then triangular back-substitution over a number-field
tower of height at most two.  The basis [1] certifies an empty chart, a
zero-dimensional basis is solved exactly, and a positive-dimensional one
is cut by rational hyperplanes until a point turns up.  Singular points of
B are grouped into Galois conjugacy classes, and each class is classified
once over its tower (:mod:`ratsqrt.localanalysis`).  For a bivariate
radicand every projection centre lies over a singular point of B, at
infinity when d >= 4, so :func:`centre_from_records` reads the centres off
those points instead of solving the closure again; a cubic's triple point
is read off the same points (:func:`triple_point_of_cubic`).

A form stays one element of sympy's sparse ring over QQ from
:class:`~ratsqrt.mpoly.MultiPoly` down to the solver.  Below it, where
coefficients lie in a point's number-field tower, a polynomial is an
exponent dict of :mod:`ratsqrt.unipoly`, the shape of the ring's own
elements: the germ at a point (:func:`_germ`) and each univariate equation
of the back-substitution (:func:`_specialize`).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import unipoly as up
from .errors import NonReduced
from .ideal import groebner
from .localanalysis import classify_germ, lp_form, lp_multiplicity
from .mpoly import (
    MultiPoly,
    _ring,
    homogenize,
    is_homogeneous,
    on_effective_vars,
)
from .numberfield import (
    NFElem,
    NumberField,
    elem_str,
    factor_over_height1,
    field_coerce,
    field_one,
    field_zero,
)


def fresh_name(base, taken):
    name = base
    while name in taken:
        name = name + "_"
    return name


def _form(p: MultiPoly):
    """The ring element of a form over QQ."""
    if not p.coefficients_rational():
        raise ValueError("geometric analysis requires rational coefficients")
    if is_homogeneous(p) is None:
        raise ValueError("geometric analysis requires a form")
    return p.pe


# --------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class AlgebraicPoint:
    """A projective point over a number-field tower of height <= 2.

    `proj` is the full coordinate tuple with the pivot (chart) coordinate
    equal to 1 and every earlier coordinate zero; `class_size` is the number
    of Galois conjugates represented by this point.  :func:`singular_points`
    keeps in `germ` the curve's equation translated so that the point is the
    origin of its chart; the other searches leave it None.
    """

    field: object  # None (rationals) or NumberField
    proj: tuple
    chart: int
    class_size: int = 1
    germ: dict | None = dc_field(default=None, compare=False, repr=False)

    def coords_str(self):
        return tuple(elem_str(c) for c in self.proj)

    def sort_key(self):
        return (self.chart, _tower_key(self.field), _coords_key(self.proj))

    def to_json(self):
        out = {"chart": self.chart, "coordinates": list(self.coords_str())}
        if self.field is not None:
            out["field"] = [
                {"generator": g, "min_poly": [elem_str(c) for c in m]}
                for g, m in self.field.describe()
            ]
        if self.class_size != 1:
            out["conjugates"] = self.class_size
        return out


def _tower_key(field):
    if field is None:
        return ()
    return tuple(
        (g, tuple(_elem_key(c) for c in m)) for g, m in field.describe()
    )


def _elem_key(e):
    if isinstance(e, NFElem):
        return tuple(_elem_key(c) for c in e.rep)
    return (e,)


def _coords_key(coords):
    return tuple(_elem_key(c) for c in coords)


@dataclass(frozen=True)
class SingularityRecord:
    point: AlgebraicPoint
    multiplicity: int
    mu: int | None
    label: str

    @property
    def simple(self):
        return self.label != "NonSimple"

    def to_json(self):
        return {
            "point": self.point.to_json(),
            "multiplicity": self.multiplicity,
            "milnor": self.mu,
            "class": self.label,
        }


@dataclass(frozen=True)
class GeometricModel:
    f: MultiPoly
    V: MultiPoly  # hypersurface equation, degree D = max(d, 2)
    B: MultiPoly | None  # branch curve s^(2r-d) * F(s, ...), bivariate only


def build_model(f: MultiPoly) -> GeometricModel:
    """Hypersurface closure of W^2 = f, plus the branch curve when bivariate."""
    fr = on_effective_vars(f)
    d = fr.total_degree()
    r = (d + 1) // 2
    zname = fresh_name("z", fr.vars)
    wname = fresh_name("w", fr.vars)
    wring = fr.vars + (wname,)
    w = MultiPoly.var(wring, wname)
    V = homogenize(w * w - fr.with_vars(wring), zname)
    B = None
    if len(fr.vars) == 2:
        sname = fresh_name("s", fr.vars)
        Fs = homogenize(fr, sname)
        s = MultiPoly.var(Fs.vars, sname)
        B = s ** (2 * r - d) * Fs
    return GeometricModel(fr, V, B)


# --------------------------------------------------------------------------
# back-substitution and the chart loop, shared by every point search


def _specialize(g, field, coords):
    """Plug a partial solution into the unknowns x_0..x_{j-1} of a basis
    element, j = len(coords); univariate exponent dict in x_j.  The ring
    lists the unknowns from x_{k-1} down to x_0, so x_i is generator
    k - 1 - i."""
    axis = g.ring.ngens - 1 - len(coords)
    out = {}
    for e, c in g.items():
        val = field_coerce(field, c)
        for a, exp in zip(coords, reversed(e)):
            if exp:
                val = val * (a**exp)
        k = (e[axis],)
        out[k] = out[k] + val if k in out else val
    return up.clean(out)


def _extend(field, coords, g):
    """Extend a partial solution by each root of g (one per conjugacy class).

    g is a univariate exponent dict of degree >= 1 over `field`.  Returns
    (field', coords') pairs, or None when the roots would need a tower
    level above the height-2 cap.  Every factor split off is monic.
    """
    g = up.radical(g)
    if up.deg(g) == 1:
        factors = [g]
    elif field is None:
        factors = [f for f, _m in up.factor_rational(g)[1]]
    elif field.height == 1:
        factors = factor_over_height1(field, g)
    else:
        return None
    out = []
    for f in factors:
        if up.deg(f) == 1:
            out.append((field, coords + (-f.get((0,), field_zero(field)),)))
        else:
            K = NumberField(field, "a" if field is None else "b", f)
            out.append((K, tuple(K.lift(c) for c in coords) + (K.gen(),)))
    return out


def _order_partials(form, order):
    """All distinct nonzero order-`order` partial derivatives.

    Each is one derivative of a nonzero partial of the order below, along
    an axis no lower than the last it was taken along, so every multiset
    of axes is differentiated once.
    """
    level = [(0, form)] if form else []  # (lowest axis left, partial)
    for _k in range(order):
        level = [
            (axis, d.diff(axis))
            for first, d in level
            for axis in range(first, form.ring.ngens)
        ]
        level = [(axis, d) for axis, d in level if d]
    seen = {tuple(sorted(d.items())): d for _axis, d in level}
    return [seen[k] for k in sorted(seen)]


def _vanishing_points(form, order):
    """Common zeros of every order-`order` partial of a form, chart by chart.

    Yields (chart, [(field, proj)], complete) for chart = 0..n-1, n the
    number of coordinates.  Chart c sets coordinate c to 1 and every earlier
    coordinate to 0, so the charts partition projective space.  Each partial
    goes straight into the solver's ring, whose generators are the k =
    n - 1 - c later coordinates, reversed, under lex order; a partial of a
    form is a form, so dropping coordinate c never merges two terms.
    `proj` is the full coordinate tuple of a point and `complete` certifies
    that the chart's list is exhaustive.
    """
    nvars = form.ring.ngens
    partials = _order_partials(form, order)
    for chart in range(nvars):
        k = nvars - 1 - chart
        ring = _ring(tuple(f"x{i}" for i in reversed(range(k))))
        gens = [ring.from_dict({e[chart + 1 :][::-1]: c for e, c in p.items()
                                if not any(e[:chart])})
                for p in partials]
        sols, complete = _solve_ideal([g for g in gens if g], ring, k)
        points = [
            (fld, (field_zero(fld),) * chart + (field_one(fld),) + coords)
            for fld, coords in sols
        ]
        yield chart, points, complete


# hyperplanes x_i = c tried, in order, on a free variable of a
# positive-dimensional system
_CUTS = (0, 1, -1, 2, -2)


def _solve_ideal(gens, ring, k):
    """Common zeros of nonzero elements of `ring`, whose generators are the
    k unknowns x_{k-1}, ..., x_0 in that order under lex.

    Returns (solutions, complete): each solution is a (field, coords) pair,
    coords = (x_0, ..., x_{k-1}) over a tower of height <= 2, one per Galois
    conjugacy class, and `complete` certifies that the list covers every
    common zero over the algebraic closure.  The reduced lex Groebner basis
    with x_{k-1} > ... > x_0 is triangular: [1] means no zero, a pure-power
    leading monomial in every variable means finitely many, solved level by
    level from x_0 up.  :func:`ratsqrt.ideal.groebner` computes it
    fraction-free on primitive integer polynomials and makes each element
    monic over QQ only at the end.  A positive-dimensional system is cut by
    hyperplanes on its lowest free variable until a point turns up, and is
    never complete.  With k = 0 the system is a list of constants, decided
    without a basis: any one leaves no solution, and no generator at all
    leaves the empty tuple.
    """
    if k == 0:
        return ([], True) if gens else ([(None, ())], True)
    basis = groebner(gens, ring)
    if any(g.is_ground for g in basis):
        return [], True
    pure = {e.index(max(e)) for e in (g.LM for g in basis) if sum(e) == max(e)}
    free = [i for i in range(k) if k - 1 - i not in pure]
    if free:
        x = ring.gens[k - 1 - free[0]]
        for c in _CUTS:
            sols, _ = _solve_ideal(basis + [x - c], ring, k)
            if sols:
                return sols, False
        return [], False
    # level j: the basis elements in x_0..x_j only that involve x_j
    levels = [[] for _ in range(k)]
    for g in basis:
        first = min(i for e in g.itermonoms() for i, n in enumerate(e) if n)
        levels[k - 1 - first].append(g)
    partial = [(None, ())]
    complete = True
    for level in levels:
        grown = []
        for field, coords in partial:
            eqs = [_specialize(g, field, coords) for g in level]
            eqs = [s for s in eqs if s]
            g = eqs[0]
            for s in eqs[1:]:
                g = up.gcd(g, s)
            if up.deg(g) < 1:
                continue
            roots = _extend(field, coords, g)
            if roots is None:
                complete = False
                continue
            grown.extend(roots)
        partial = grown
    return partial, complete


# --------------------------------------------------------------------------
# singular points of the branch curve


def singular_points(B: MultiPoly):
    """All singular points of a reduced plane projective curve, one
    representative per Galois conjugacy class, with multiplicities, in the
    solver's order: chart by chart, each chart's classes in the order
    :func:`_extend` splits them off, the order :func:`high_mult_point_search`
    meets its candidates in too.

    The singular points are the common zeros of the first partials, taken
    chart by chart by :func:`_vanishing_points`: for coordinates
    (s, y1, y2), chart 0 covers s != 0 (two unknowns), chart 1 covers
    s = 0, y1 != 0 (one unknown) and chart 2 the point (0:0:1) alone.  A
    chart that is not solved completely has infinitely many singular
    points, which happens exactly when B has a repeated factor (s^2 | B
    included), and raises NonReduced.  Each point's germ is built once,
    kept on the point for classification, and gives its multiplicity.
    """
    if len(B.vars) != 3:
        raise ValueError("singular_points expects a plane projective curve")
    form = _form(B)
    results = []
    for chart, points, complete in _vanishing_points(form, 1):
        if not complete:
            raise NonReduced("branch curve must be squarefree")
        for fld, proj in points:
            size = 1 if fld is None else fld.absolute_degree()
            germ = _germ(form, chart, proj)
            pt = AlgebraicPoint(fld, proj, chart, size, germ)
            results.append((pt, lp_multiplicity(germ)))
    return results


def _germ(form, chart, proj):
    """A form restricted to a chart, as an exponent dict translated so that
    the point `proj` of that chart is the origin.  Setting coordinate
    `chart` to 1 never merges two terms of a form."""
    return up.translate({e[:chart] + e[chart + 1 :]: c for e, c in form.items()},
                        proj[:chart] + proj[chart + 1 :])


def multiplicity_at(g: MultiPoly, p: AlgebraicPoint) -> int:
    """Least total degree after translating p to the origin of its chart;
    0 means the point is not on {g = 0}."""
    germ = _germ(_form(g), p.chart, p.proj)
    return lp_multiplicity(germ) if germ else 0


def all_simple(model: GeometricModel):
    """(every branch-curve singularity is simple, full record list).

    The double cover u^2 = B is singular exactly above singular points of
    the reduced branch curve (the u-partial forces u = 0), and the germ
    u^2 = g(x, y) is a Du Val singularity of the same letter and index as
    the plane germ g; so the surface-side hypothesis is checked entirely
    on B.  Each point is classified on the germ :func:`singular_points`
    built for it, and the records are sorted by point.
    """
    if model.B is None:
        raise ValueError("all_simple requires the bivariate branch curve")
    records = []
    for pt, _m in singular_points(model.B):
        cls = classify_germ(pt.germ)
        records.append(
            SingularityRecord(pt, cls.multiplicity, cls.mu, cls.label()))
    records.sort(key=lambda rec: rec.point.sort_key())
    return all(rec.simple for rec in records), records


# --------------------------------------------------------------------------
# multiplicity-3 points of plane cubics


def triple_point_of_cubic(points):
    """The point of multiplicity 3 of a squarefree plane cubic F, or None,
    read off :func:`singular_points` of its branch curve B = s*F.

    A triple point of F is singular on B, and B's multiplicity there is
    F's plus one when the point lies on s = 0 (chart > 0).
    """
    return next((pt for pt, m in points if m - (pt.chart > 0) == 3), None)


# --------------------------------------------------------------------------
# search for points of multiplicity D - 1 on a hypersurface


def high_mult_point_search(H: MultiPoly):
    """Search for a point of multiplicity D - 1 on the degree-D hypersurface H.

    Returns (point or None, certified_empty).  It serves three or more
    variables; bivariate closures go to :func:`centre_from_records`.  By the
    Euler identity the multiplicity-(D-1) locus is the common zero set of
    the order-(D-2) partials, which are quadrics; :func:`_vanishing_points`
    solves them chart by chart, chart c in the unknowns after coordinate
    c, whatever their number.  Every candidate is checked by :func:`multiplicity_at`.
    certified_empty is True only when every chart was solved completely
    (no positive-dimensional part, no root above the tower cap) and no
    point was found, so a missing point is a nonexistence proof exactly
    then.
    """
    D = H.total_degree()
    if D < 2:
        raise ValueError("hypersurface degree must be at least 2")
    best = None
    certified = True
    for chart, points, complete in _vanishing_points(_form(H), D - 2):
        certified = certified and complete
        for fld, proj in points:
            pt = AlgebraicPoint(fld, proj, chart, 1)
            if multiplicity_at(H, pt) != D - 1:
                continue
            if fld is None:
                return pt, False
            if best is None:
                best = pt
    if best is not None:
        return best, False
    return None, certified


def centre_from_records(model: GeometricModel, points):
    """:func:`high_mult_point_search` on the closure V of a bivariate
    W^2 = f of degree d >= 3, read off the singular points of the branch
    curve B = s^(d mod 2) * F that :func:`singular_points` found.

    Off z = 0 a point of V has multiplicity <= 2, and 2 exactly at
    (1:x:y:0) over an affine singular point of f, which counts for a cubic
    (d - 1 = 2) only.  On z = 0 a point of multiplicity d - 1 lies over a
    singular point (0:x0:y0) of B: it is (0:x0:y0:0) when F has
    multiplicity d - 1 there, and (0:x0:y0:w0) with w0^2 = c when F's
    tangent cone there is exactly c*z^(d-2) (Fulton, ch. 3).  Each point
    gives those candidates in V's coordinates (z, x, y, w), w0 from the
    solver's own :func:`_extend`, and each is checked by
    :func:`multiplicity_at`.  The first rational candidate in point order
    is returned, else the first one.  :func:`singular_points` returns
    every singular point of B or raises, so no candidate certifies that V
    has no such point.
    """
    V = model.V
    d = V.total_degree()
    if model.B is None or d < 3:
        raise ValueError("expected a bivariate model of degree at least 3")
    first = None
    for pt in points:
        if pt.chart > 0:
            cands = _centres_above(pt, d)
        elif d == 3:
            cands = [(pt.field, pt.proj + (field_zero(pt.field),))]
        else:
            continue
        for fld, proj in cands:
            cand = AlgebraicPoint(fld, proj, pt.chart, 1)
            if multiplicity_at(V, cand) != d - 1:
                continue
            if fld is None:
                return cand, False
            if first is None:
                first = cand
    return first, first is None


def _centres_above(pt, d):
    """The (field, proj) candidates of V over a singular point of B at
    s = 0.  B's germ there is s^(d mod 2) times F's, in (s, other)."""
    k = d % 2
    order = lp_multiplicity(pt.germ) - k
    if order == d - 1:
        return [(pt.field, pt.proj + (field_zero(pt.field),))]
    cone = lp_form(pt.germ, d - 2 + k)
    if order != d - 2 or list(cone) != [(d - 2 + k, 0)]:
        return []
    # a point at s = 0 has one unknown, so its field has height <= 1 and
    # w0 stays within the tower cap
    c = cone[(d - 2 + k, 0)]
    return _extend(pt.field, pt.proj, {(2,): field_one(pt.field), (0,): -c})


def milnor_sum(records):
    """Sum of Milnor numbers weighted by conjugacy-class size."""
    total = 0
    for rec in records:
        if rec.mu is not None:
            total += rec.mu * rec.point.class_size
    return total
