"""Local analysis of plane-curve germs over an exact field.

A germ is a bivariate polynomial in local coordinates (u, v) centred at the
origin, stored as an exponent dict of :mod:`ratsqrt.unipoly`: exponent
pairs (i, j) mapped to nonzero coefficients, whose sums, products and
partial derivatives are that module's.  Coefficients live in an exact field
K: sympy's QQ elements, or :class:`~ratsqrt.numberfield.NFElem` of one
number field, freely mixed.  Every coefficient carries its field and
combines with plain ints, so no routine takes a field argument.

The module provides:

* multiplicity, tangent cone and, for cubic cones, the shape (three
  distinct lines / double plus simple line / triple line), read from one
  gcd(p, p') with p(t) = cone(1, t);
* the Milnor number of an isolated germ, computed by two independent
  methods that are cross-checked on every germ computed — a Euclidean
  recursion for the intersection multiplicity of the two partial
  derivatives, and the dimension of the jet-truncated local algebra
  K[u,v]/((f_u, f_v) + m^N) stabilized in N, one echelon form kept across
  N — each stopped once it exceeds the Bezout bound, the product of the
  degrees of the two partials, which a finite Milnor number never exceeds.
  Both cancel fraction-free: over QQ on primitive integer germs, over a
  tower with one inverse to scale a divisor or pivot whose coordinates
  grow tall.  Both run on a jet of the germ, truncated at a degree T that
  the jet's own Milnor number mu certifies once mu + 1 <= T, since a germ
  with Milnor number mu is (mu + 1)-determined (Greuel, Lossen, Shustin,
  *Introduction to Singularities and Deformations*, ch. I.2);
* ADE classification of germs of multiplicity 2 and 3 (A/D/E with index,
  or NonSimple) from the multiplicity, the cone shape and the Milnor
  number, with no blowup; multiplicity >= 4 is immediately NonSimple.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from sympy.polys.domains import QQ

from . import unipoly as up
from .errors import NonIsolated, WrongMultiplicity
from .numberfield import NFElem, coordinate_bits

# --------------------------------------------------------------------------
# germ helpers; the arithmetic is that of :mod:`ratsqrt.unipoly`


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


def lp_restrict_u(P):
    """Restriction to v = 0, as a univariate exponent dict in u."""
    return {(i,): c for (i, j), c in P.items() if j == 0}


def lp_divide_v(P):
    """Exact division by v (every term must have j >= 1)."""
    return {(i, j - 1): c for (i, j), c in P.items()}


def _degree(P):
    return max((sum(e) for e in P), default=0)


# --------------------------------------------------------------------------
# tangent-cone shape for cubic cones

THREE_DISTINCT_LINES = "ThreeDistinctLines"
DOUBLE_PLUS_SIMPLE = "DoublePlusSimpleLine"
TRIPLE_LINE = "TripleLine"


def cubic_cone(cone):
    """Shape of a nonzero binary cubic form over K.

    With p(t) = cone(1, t), the line u = 0 has multiplicity 3 - deg p, and
    the highest multiplicity of a line v = t*u is 1 + deg gcd(p, p'), since
    a cubic has at most one repeated root.
    """
    p = {(j,): c for (_i, j), c in cone.items()}
    repeated = max(3 - up.deg(p), 1 + up.deg(up.gcd(p, up.derivative(p))))
    return (THREE_DISTINCT_LINES, DOUBLE_PLUS_SIMPLE, TRIPLE_LINE)[repeated - 1]


# --------------------------------------------------------------------------
# Milnor number, two independent routes


def _primitive(P):
    """A nonzero germ over QQ times the positive rational that makes its
    coefficients coprime ints."""
    vals = P.values()
    s = QQ(lcm(*(c.denominator for c in vals)), gcd(*(c.numerator for c in vals)))
    return {e: int(c * s) for e, c in P.items()}


# bits a coordinate over a tower may reach before its germ or row is scaled
# to a coefficient 1, which costs an inverse
MAX_BITS = 64


def _scaled(P, k, tower):
    """P times a nonzero constant that keeps its coefficients small: over QQ
    the inverse of the gcd of its ints; over a tower, the inverse of its
    coefficient at k, once a numerator or denominator of its coordinates
    outgrows MAX_BITS bits."""
    if not tower:
        g = gcd(*P.values())
        return P if g < 2 else {e: c // g for e, c in P.items()}
    if max(map(coordinate_bits, P.values())) <= MAX_BITS:
        return P
    inv = QQ.one / P[k]
    return {e: x * inv for e, x in P.items()}


def _cancel(a, R, c, S):
    """a*R - c*S for two sparse rows or germs, zero entries dropped."""
    out = dict(R) if a == 1 else {k: a * x for k, x in R.items()}
    for k, y in S.items():
        out[k] = out[k] - c * y if k in out else -c * y
    return {k: x for k, x in out.items() if x}


def intersection_multiplicity(P, Q):
    """Intersection multiplicity of the germs P, Q at the origin.

    Euclidean recursion on the restrictions to v = 0: swap so the restriction
    of P has the smaller degree, cancel the leading term of Q's restriction
    with a monomial multiple of P, and split off factors of v when a
    restriction vanishes.  The cancellation divides by nothing: it replaces
    Q by f_top*Q - g_top*u^k*P, and a nonzero constant factor does not
    change I(P, Q).  Over QQ the germs are primitive integer germs and P
    loses its content before each step; over a tower, P is scaled to the
    top coefficient 1 by one inverse once its coordinates grow tall.  The
    accumulated multiplicity is a lower bound on I(P, Q), which is at most
    deg P * deg Q whenever it is finite (Bezout; Fulton, *Algebraic
    Curves*, ch. 3 and 5); a total above that bound means the germs share
    a component (non-isolated).
    """
    P, Q = up.clean(P), up.clean(Q)
    bound = _degree(P) * _degree(Q)
    tower = any(isinstance(c, NFElem) for c in (*P.values(), *Q.values()))
    if P and Q and not tower:
        P, Q = _primitive(P), _primitive(Q)
    # f, g: the restrictions of P, Q, renewed only when their germ changes
    f, g = lp_restrict_u(P), lp_restrict_u(Q)
    total = 0
    while True:
        if not P or not Q:
            raise NonIsolated("intersection with the zero germ is infinite")
        if lp_eval_origin(P) or lp_eval_origin(Q):
            return total
        if total > bound:
            raise NonIsolated("intersection multiplicity exceeds the Bezout"
                              " bound")
        if not f and not g:
            raise NonIsolated("both germs are divisible by v")
        if not f:
            # P = v * P1: I(P, Q) = I(v, Q) + I(P1, Q), and I(v, Q) = val_u g
            total += min(g)[0]
            P = lp_divide_v(P)
            f = lp_restrict_u(P)
        elif not g:
            total += min(f)[0]
            Q = lp_divide_v(Q)
            g = lp_restrict_u(Q)
        else:
            (df,), (dg,) = max(f), max(g)
            if df > dg:
                P, Q, f, g, df, dg = Q, P, g, f, dg, df
            scaled, k = _scaled(P, (df, 0), tower), dg - df
            if scaled is not P:
                P, f = scaled, lp_restrict_u(scaled)
            Q = _cancel(P[(df, 0)], Q, g[(dg,)],
                        {(i + k, j): c for (i, j), c in P.items()})
            g = lp_restrict_u(Q)


def _row(gen, a, b, top):
    """gen * u^a v^b below the degree `top` as a sparse row, a monomial
    u^i v^j at column (i+j)(i+j+1)/2 + i: by degree, then by i."""
    return {(d + a + b) * (d + a + b + 1) // 2 + i + a: c
            for (i, j), c in gen.items() for d in [i + j] if d + a + b < top}


def milnor_via_jets(fu, fv):
    """Stabilized jet dimension: grows the truncation order N until the
    dimension of K[u,v] / ((fu, fv) + m^N) repeats, which certifies m^N is
    inside (fu, fv).

    The rows gen*u^a v^b with a + b + mult(gen) < N span the truncated
    ideal.  One echelon form of these rows, truncated at a degree `top` >= N,
    is kept across N, and order N adds only the rows with
    a + b + mult = N - 1; when N passes `top` the form is built again at
    twice the order.  Truncation commutes with row operations and a reduced
    row is zero before its pivot, so the truncated rank is the number of
    pivots of degree < N.  A row is reduced at its leading column only, as
    a*row - c*pivot, with no division; a new pivot is scaled as the divisor
    of :func:`intersection_multiplicity` is: over QQ to a primitive integer
    row, over a tower to the coefficient 1 once it grows tall.

    Each jet dimension is a lower bound on the Milnor number I(fu, fv),
    which is at most deg fu * deg fv whenever it is finite (Bezout), so a
    dimension above that bound means the germ is not isolated; so does a
    zero partial."""
    if not fu or not fv:
        raise NonIsolated("a partial derivative vanishes identically")
    bound = _degree(fu) * _degree(fv)
    tower = any(isinstance(c, NFElem) for c in (*fu.values(), *fv.values()))
    gens = [(g if tower else _primitive(g), lp_multiplicity(g)) for g in (fu, fv)]
    N, top = 3, 0
    prev = None
    while True:
        low = N - 1
        if N > top:
            top, low, pivots, pending = 2 * N, 0, {}, []
        for gen, mult in gens:
            for d in range(max(low - mult, 0), N - mult):
                pending.extend(_row(gen, a, d - a, top) for a in range(d + 1))
        cols = N * (N + 1) // 2
        rows, pending = pending, []
        for row in rows:
            # every pivot lies before cols, so a lead past it waits
            while row and (lead := min(row)) in pivots:
                row = _cancel(pivots[lead][lead], row, row[lead], pivots[lead])
            if row and lead < cols:
                pivots[lead] = _scaled(row, lead, tower)
            elif row:
                pending.append(row)
        dim = cols - len(pivots)
        if prev is not None and dim == prev:
            return dim
        if dim > bound:
            raise NonIsolated("jet dimension exceeds the Bezout bound")
        prev = dim
        N += 1


def _routes(P):
    """The Milnor numbers of P by both routes; NonIsolated when P is
    constant or not isolated."""
    fu = up.derivative(P, 0)
    fv = up.derivative(P, 1)
    if not fu and not fv:
        raise NonIsolated("constant germ")
    return intersection_multiplicity(fu, fv), milnor_via_jets(fu, fv)


def _cross_checked(via_int, via_jet):
    if via_int != via_jet:
        raise NonIsolated(
            f"Milnor routes disagree ({via_int} vs {via_jet}); germ rejected"
        )
    return via_int


def milnor_number(P):
    """Milnor number of the isolated germ P at the origin.

    Computed twice — intersection multiplicity of the partials by Euclidean
    recursion, and stabilized jet-quotient dimension — and cross-checked,
    on the jet j^T P of the terms of degree <= T, from T = mult(P) + 1 on.
    A germ with Milnor number mu is (mu + 1)-determined (Greuel, Lossen,
    Shustin, *Introduction to Singularities and Deformations*, ch. I.2), so
    when the jet has mu' with mu' + 1 <= T, P is right-equivalent to its
    jet and mu(P) = mu'.  Otherwise T becomes mu' + 1, or doubles when the
    jet is not isolated, until T reaches deg P and P itself is computed.
    """
    top = _degree(P)
    T = lp_multiplicity(P) + 1
    while T < top:
        try:
            routes = _routes({e: c for e, c in P.items() if sum(e) <= T})
        except NonIsolated:
            T *= 2
            continue
        mu = _cross_checked(*routes)
        if mu + 1 <= T:
            return mu
        T = mu + 1
    return _cross_checked(*_routes(P))


# --------------------------------------------------------------------------
# ADE classification


@dataclass(frozen=True)
class Classification:
    """Singularity type of a germ: kind in {'A','D','E','NonSimple'},
    `mu` the Milnor number when computed (None for multiplicity >= 4),
    `multiplicity` the order of vanishing."""

    kind: str
    mu: int | None
    multiplicity: int

    def label(self):
        if self.kind == "NonSimple":
            return "NonSimple"
        return f"{self.kind}{self.mu}"


def classify_germ(P):
    """ADE classification of a singular germ at the origin.

    Multiplicity 2 germs are A(mu).  A multiplicity 3 germ is classified
    by its tangent cone and mu alone (Greuel, Lossen, Shustin,
    *Introduction to Singularities and Deformations*, ch. I.2): three
    distinct lines give D4 and a double line D(mu), mu >= 5; a triple line
    gives E6/E7/E8 when mu <= 8, and every other germ with that cone has
    mu >= 10 and is not simple.  A mu the cone rules out raises
    WrongMultiplicity.  Multiplicity >= 4 is never simple.
    """
    P = up.clean(P)
    m = lp_multiplicity(P)
    if m < 2:
        raise WrongMultiplicity(f"germ has multiplicity {m}; not singular")
    if m >= 4:
        return Classification("NonSimple", None, m)
    if m == 2:
        return Classification("A", milnor_number(P), 2)
    shape = cubic_cone(lp_form(P, 3))
    mu = milnor_number(P)
    if shape == THREE_DISTINCT_LINES:
        if mu != 4:
            raise WrongMultiplicity(
                f"three-line cubic cone must have mu = 4, got {mu}"
            )
        return Classification("D", 4, 3)
    if shape == DOUBLE_PLUS_SIMPLE:
        if mu < 5:
            raise WrongMultiplicity(
                f"double-plus-simple cone must have mu >= 5, got {mu}"
            )
        return Classification("D", mu, 3)
    if mu in (6, 7, 8):
        return Classification("E", mu, 3)
    if mu < 10:
        raise WrongMultiplicity(
            f"triple-line cone must have mu in 6..8 or mu >= 10, got {mu}"
        )
    return Classification("NonSimple", mu, 3)
