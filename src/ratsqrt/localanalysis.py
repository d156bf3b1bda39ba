"""Local analysis of plane-curve germs over an exact field.

A germ is a bivariate polynomial in local coordinates (u, v) centred at the
origin, stored as a dict mapping exponent pairs (i, j) to nonzero
coefficients.  Coefficients live in an exact field K: sympy's QQ elements
when K is the rationals, :class:`~ratsqrt.numberfield.NFElem` otherwise; the
`field` argument of each routine is None or the NumberField accordingly.

The module provides:

* multiplicity, tangent cone and its shape (for cubic cones: three distinct
  lines / double plus simple line / triple line, decided by the binary-cubic
  discriminant and Hessian);
* blowup strict transforms in both charts;
* the Milnor number of an isolated germ, computed by two independent
  methods that are cross-checked on every call — a Euclidean recursion for
  the intersection multiplicity of the two partial derivatives, and the
  dimension of the jet-truncated local algebra K[u,v]/((f_u, f_v) + m^N)
  stabilized in N;
* ADE classification of germs of multiplicity 2 and 3 (A/D/E with index,
  or NonSimple), with multiplicity >= 4 immediately NonSimple.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import unipoly as up
from .errors import NonIsolated, WrongMultiplicity
from .numberfield import field_coerce, field_one, field_zero

# cap on the accumulated intersection multiplicity before declaring the
# germ non-isolated; generous for the curve degrees this package meets
DEFAULT_MULT_CAP = 400


# --------------------------------------------------------------------------
# germ arithmetic


def lp_clean(P):
    return {e: c for e, c in P.items() if c}


def lp_add(P, Q):
    out = dict(P)
    for e, c in Q.items():
        s = out.get(e, 0) + c if e in out else c
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def lp_mul(P, Q):
    out = {}
    for (i1, j1), c1 in P.items():
        for (i2, j2), c2 in Q.items():
            e = (i1 + i2, j1 + j2)
            s = out.get(e, 0) + c1 * c2 if e in out else c1 * c2
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def lp_eval_origin(P):
    return P.get((0, 0), 0)


def lp_multiplicity(P):
    """Order of vanishing at the origin; raises on the zero germ."""
    if not P:
        raise NonIsolated("zero germ has no multiplicity")
    return min(sum(e) for e in P)


def lp_form(P, d):
    """Terms of total degree exactly d (the tangent cone when d = mult)."""
    return {(i, j): c for (i, j), c in P.items() if i + j == d}


def lp_derivative(P, axis):
    """Partial derivative along `axis` of an exponent dict in any number of
    variables."""
    out = {}
    for e, c in P.items():
        if e[axis]:
            out[e[:axis] + (e[axis] - 1,) + e[axis + 1 :]] = c * e[axis]
    return lp_clean(out)


def lp_restrict_u(P):
    """Restriction to v = 0, as a coefficient list in u."""
    if not P:
        return []
    n = max(i for i, j in P) + 1
    out = [0] * n
    for (i, j), c in P.items():
        if j == 0:
            out[i] = c
    zero = next(iter(P.values()))
    zero = zero - zero
    return up.trim([c if c else zero for c in out])


def lp_divide_v(P):
    """Exact division by v (every term must have j >= 1)."""
    return {(i, j - 1): c for (i, j), c in P.items()}


def lp_blowup_finite(P, t0, field):
    """Strict transform in the chart (u, v) -> (u, u*(t0 + v)).

    The centre direction is the line v = t0*u; the result is
    f(u, u*(t0+v)) / u^m with m the multiplicity.
    """
    m = lp_multiplicity(P)
    t0 = field_coerce(field, t0)
    one = field_one(field)
    out = {}
    for (i, j), c in P.items():
        # u^i * u^j * (t0 + v)^j, then shift u-exponent down by m
        for l in range(j + 1):
            cl = c * (comb(j, l) * (t0 ** (j - l) if j > l else one))
            e = (i + j - m, l)
            s = out.get(e, 0) + cl if e in out else cl
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def lp_blowup_infinite(P):
    """Strict transform in the chart (u, v) -> (v*u, v) (direction u = 0)."""
    m = lp_multiplicity(P)
    return {(i, i + j - m): c for (i, j), c in P.items()}


# --------------------------------------------------------------------------
# tangent-cone shape for cubic cones

THREE_DISTINCT_LINES = "ThreeDistinctLines"
DOUBLE_PLUS_SIMPLE = "DoublePlusSimpleLine"
TRIPLE_LINE = "TripleLine"


def cubic_cone_shape(cone, field):
    """Shape of a nonzero binary cubic form, decided exactly over K.

    Writes the cone as a*u^3 + b*u^2 v + c*u v^2 + d*v^3 and uses the
    discriminant 18abcd - 4b^3 d + b^2 c^2 - 4ac^3 - 27a^2 d^2 (nonzero iff
    the three roots are distinct over the algebraic closure) and the Hessian
    (identically zero iff the form is a perfect cube of a linear form).
    """
    z = field_zero(field)
    a = cone.get((3, 0), z)
    b = cone.get((2, 1), z)
    c = cone.get((1, 2), z)
    d = cone.get((0, 3), z)
    disc = (
        18 * (a * b * c * d)
        - 4 * (b * b * b * d)
        + b * b * c * c
        - 4 * (a * c * c * c)
        - 27 * (a * a * d * d)
    )
    if disc:
        return THREE_DISTINCT_LINES
    hess = (b * b - 3 * (a * c), b * c - 9 * (a * d), c * c - 3 * (b * d))
    if not any(hess):
        return TRIPLE_LINE
    return DOUBLE_PLUS_SIMPLE


def repeated_cone_directions(cone, field):
    """Directions of multiplicity >= 2 in a binary form, each K-rational.

    A direction is ('finite', t0) for the line v = t0*u or ('infinite',)
    for the line u = 0.  Any direction of multiplicity >= 2 in a form over K
    is fixed by the Galois action (repeated multiplicities single it out),
    hence has a K-rational slope; this extracts it with univariate gcds
    over K and never extends the field.
    """
    m = lp_multiplicity(cone)
    # p(t) = cone(1, t): coefficient of t^j is the (m-j, j) coefficient
    p = [0] * (m + 1)
    for (i, j), c in cone.items():
        p[j] = c
    zero = field_zero(field)
    p = up.trim([c if c else zero for c in p])
    out = []
    if m - up.deg(p) >= 2:
        out.append(("infinite",))
    if up.deg(p) >= 1:
        g = up.gcd(p, up.derivative(p))
        if up.deg(g) >= 1:
            r = up.radical(g)
            if up.deg(r) != 1:
                # distinct repeated slopes would be separately Galois-stable
                # and hence rational; a cubic cone admits at most one
                raise WrongMultiplicity(
                    "unexpected repeated-direction structure in tangent cone"
                )
            out.append(("finite", -r[0] / r[1]))
    return out


def strict_transform_at(P, direction, field):
    if direction[0] == "infinite":
        return lp_blowup_infinite(P)
    return lp_blowup_finite(P, direction[1], field)


# --------------------------------------------------------------------------
# Milnor number, two independent routes


def _intersection_rec(P, Q, field, budget):
    """Intersection multiplicity of the germs P, Q at the origin.

    Euclidean recursion on the restrictions to v = 0: swap so the restriction
    of P has the smaller degree, cancel the leading term of Q's restriction
    with a monomial multiple of P, and split off factors of v when a
    restriction vanishes.  `budget` caps the accumulated multiplicity;
    exceeding it means the germs share a component (non-isolated).
    """
    if not P or not Q:
        raise NonIsolated("intersection with the zero germ is infinite")
    if lp_eval_origin(P) or lp_eval_origin(Q):
        return 0
    if budget <= 0:
        raise NonIsolated("intersection multiplicity exceeds the cap")
    f = lp_restrict_u(P)
    g = lp_restrict_u(Q)
    if not f and not g:
        raise NonIsolated("both germs are divisible by v")
    if not f:
        # P = v * P1: I(P, Q) = I(v, Q) + I(P1, Q), and I(v, Q) = val_u g
        return up.valuation(g) + _intersection_rec(
            lp_divide_v(P), Q, field, budget - up.valuation(g)
        )
    if not g:
        return up.valuation(f) + _intersection_rec(
            P, lp_divide_v(Q), field, budget - up.valuation(f)
        )
    if up.deg(f) > up.deg(g):
        return _intersection_rec(Q, P, field, budget)
    # cancel the top coefficient of g with a monomial multiple of P
    c = g[-1] / f[-1]
    k = up.deg(g) - up.deg(f)
    shift = {(k, 0): -c}
    Q2 = lp_add(Q, lp_mul(shift, P))
    return _intersection_rec(P, Q2, field, budget)


def intersection_multiplicity(P, Q, field, budget=DEFAULT_MULT_CAP):
    return _intersection_rec(lp_clean(P), lp_clean(Q), field, budget)


def _row_reduce_rank(rows, field):
    """Rank of a list of coefficient-vector rows over the exact field."""
    rank = 0
    rows = [list(r) for r in rows if any(r)]
    ncols = len(rows[0]) if rows else 0
    pivot_rows = []
    for row in rows:
        for prow, pcol in pivot_rows:
            if row[pcol]:
                c = row[pcol]
                for i in range(pcol, ncols):
                    if prow[i]:
                        row[i] = row[i] - c * prow[i]
        for col in range(ncols):
            if row[col]:
                inv = field_one(field) / row[col]
                row = [x * inv for x in row]
                pivot_rows.append((row, col))
                rank += 1
                break
    return rank


def _jet_quotient_dim(fu, fv, N, field):
    """dim_K K[u,v] / ((fu, fv) + m^N) via a truncated-monomial matrix."""
    monos = [(i, j) for d in range(N) for i in range(d + 1) for j in [d - i]]
    index = {m: k for k, m in enumerate(monos)}
    z = field_zero(field)
    rows = []
    for gen in (fu, fv):
        mult = lp_multiplicity(gen) if gen else N
        for a in range(N):
            for b in range(N - a):
                if a + b + mult >= N:
                    continue
                row = [z] * len(monos)
                nonzero = False
                for (i, j), c in gen.items():
                    e = (i + a, j + b)
                    if i + a + j + b < N:
                        row[index[e]] = row[index[e]] + c
                        nonzero = True
                if nonzero:
                    rows.append(row)
    return len(monos) - _row_reduce_rank(rows, field)


def milnor_via_jets(fu, fv, field, cap=DEFAULT_MULT_CAP):
    """Stabilized jet dimension: grows the truncation order N until the
    quotient dimension repeats, which certifies m^N is inside (fu, fv)."""
    if not fu and not fv:
        raise NonIsolated("both partial derivatives vanish identically")
    N = 3
    prev = None
    while True:
        dim = _jet_quotient_dim(fu, fv, N, field)
        if prev is not None and dim == prev:
            return dim
        if dim > cap:
            raise NonIsolated("jet dimension exceeds the cap")
        prev = dim
        N += 1


def milnor_number(P, field, cap=DEFAULT_MULT_CAP):
    """Milnor number of the isolated germ P at the origin.

    Computed twice — intersection multiplicity of the partials by Euclidean
    recursion, and stabilized jet-quotient dimension — and cross-checked.
    """
    fu = lp_derivative(P, 0)
    fv = lp_derivative(P, 1)
    if not fu and not fv:
        raise NonIsolated("constant germ")
    via_int = intersection_multiplicity(fu, fv, field, cap)
    via_jet = milnor_via_jets(fu, fv, field, cap)
    if via_int != via_jet:
        raise NonIsolated(
            f"Milnor routes disagree ({via_int} vs {via_jet}); germ rejected"
        )
    return via_int


# --------------------------------------------------------------------------
# ADE classification


@dataclass(frozen=True)
class Classification:
    """Singularity type of a germ: kind in {'A','D','E','NonSimple'},
    `mu` the Milnor number when computed (None for multiplicity >= 4),
    `multiplicity` the order of vanishing, `cone_shape` for cubic cones."""

    kind: str
    mu: int | None
    multiplicity: int
    cone_shape: str | None = None

    @property
    def simple(self):
        return self.kind in ("A", "D", "E")

    def label(self):
        if self.kind == "NonSimple":
            return "NonSimple"
        return f"{self.kind}{self.mu}"


def classify_germ(P, field, cap=DEFAULT_MULT_CAP):
    """ADE classification of a singular germ at the origin.

    Multiplicity 2 germs are A(mu).  Multiplicity 3 germs are resolved by a
    single blowup: if some first-neighbourhood multiplicity exceeds 2 the
    germ is not simple; otherwise a cone with at least two distinct lines
    gives D(mu) and a triple-line cone gives E6/E7/E8 according to mu.
    Multiplicity >= 4 is never simple.
    """
    P = lp_clean(P)
    m = lp_multiplicity(P)
    if m < 2:
        raise WrongMultiplicity(f"germ has multiplicity {m}; not singular")
    if m >= 4:
        return Classification("NonSimple", None, m)
    if m == 2:
        mu = milnor_number(P, field, cap)
        return Classification("A", mu, 2)
    cone = lp_form(P, 3)
    shape = cubic_cone_shape(cone, field)
    mu = milnor_number(P, field, cap)
    if shape == THREE_DISTINCT_LINES:
        if mu != 4:
            raise WrongMultiplicity(
                f"three-line cubic cone must have mu = 4, got {mu}"
            )
        return Classification("D", 4, 3, shape)
    # exactly one repeated direction; its strict-transform multiplicity
    # decides simplicity (simple directions blow up to smooth points)
    dirs = repeated_cone_directions(cone, field)
    worst = 0
    for direction in dirs:
        st = lp_clean(strict_transform_at(P, direction, field))
        worst = max(worst, lp_multiplicity(st))
    if worst >= 3:
        return Classification("NonSimple", mu, 3, shape)
    if shape == DOUBLE_PLUS_SIMPLE:
        if mu < 5:
            raise WrongMultiplicity(
                f"double-plus-simple cone must have mu >= 5, got {mu}"
            )
        return Classification("D", mu, 3, shape)
    if mu not in (6, 7, 8):
        raise WrongMultiplicity(
            f"triple-line cone with tame blowup must have mu in 6..8, got {mu}"
        )
    return Classification("E", mu, 3, shape)
