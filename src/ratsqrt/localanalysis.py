"""Local analysis of plane-curve germs over an exact field.

A germ is a bivariate polynomial in local coordinates (u, v) centred at the
origin, stored as a dict mapping exponent pairs (i, j) to nonzero
coefficients.  Coefficients live in an exact field K: sympy's QQ elements,
or :class:`~ratsqrt.numberfield.NFElem` of one number field, freely mixed.
Every coefficient carries its field and combines with plain ints, so no
routine takes a field argument.

The module provides:

* translation of an exponent dict in any number of variables;
* multiplicity, tangent cone and, for cubic cones, the shape (three
  distinct lines / double plus simple line / triple line), read from one
  gcd(p, p') with p(t) = cone(1, t);
* the Milnor number of an isolated germ, computed by two independent
  methods that are cross-checked on every call — a Euclidean recursion for
  the intersection multiplicity of the two partial derivatives, and the
  dimension of the jet-truncated local algebra K[u,v]/((f_u, f_v) + m^N)
  stabilized in N, a rank taken with the row reduction that tower inverses
  use too — each stopped at the fixed cap DEFAULT_MULT_CAP;
* ADE classification of germs of multiplicity 2 and 3 (A/D/E with index,
  or NonSimple) from the multiplicity, the cone shape and the Milnor
  number, with no blowup; multiplicity >= 4 is immediately NonSimple.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import unipoly as up
from .errors import NonIsolated, WrongMultiplicity
from .numberfield import row_reduce

# cap on the accumulated intersection multiplicity and the jet dimension
# before declaring the germ non-isolated; generous for the curve degrees
# this package meets
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


def lp_translate(P, shift):
    """P(x + shift) for an exponent dict in any number of variables."""
    for k, a in enumerate(shift):
        if not a:
            continue
        out = {}
        for e, c in P.items():
            i = e[k]
            for t in range(i + 1):
                ct = c * (comb(i, t) * a ** (i - t)) if t < i else c
                ne = e[:k] + (t,) + e[k + 1 :]
                s = out.get(ne, 0) + ct if ne in out else ct
                if s:
                    out[ne] = s
                elif ne in out:
                    del out[ne]
        P = out
    return P


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
    p = up.trim([cone.get((3 - j, j), 0) for j in range(4)])
    repeated = max(3 - up.deg(p), 1 + up.deg(up.gcd(p, up.derivative(p))))
    return (THREE_DISTINCT_LINES, DOUBLE_PLUS_SIMPLE, TRIPLE_LINE)[repeated - 1]


# --------------------------------------------------------------------------
# Milnor number, two independent routes


def intersection_multiplicity(P, Q):
    """Intersection multiplicity of the germs P, Q at the origin.

    Euclidean recursion on the restrictions to v = 0: swap so the restriction
    of P has the smaller degree, cancel the leading term of Q's restriction
    with a monomial multiple of P, and split off factors of v when a
    restriction vanishes.  An accumulated multiplicity that reaches
    DEFAULT_MULT_CAP means the germs share a component (non-isolated).
    """
    P, Q = lp_clean(P), lp_clean(Q)
    total = 0
    while True:
        if not P or not Q:
            raise NonIsolated("intersection with the zero germ is infinite")
        if lp_eval_origin(P) or lp_eval_origin(Q):
            return total
        if total >= DEFAULT_MULT_CAP:
            raise NonIsolated("intersection multiplicity exceeds the cap")
        f = lp_restrict_u(P)
        g = lp_restrict_u(Q)
        if not f and not g:
            raise NonIsolated("both germs are divisible by v")
        if not f:
            # P = v * P1: I(P, Q) = I(v, Q) + I(P1, Q), and I(v, Q) = val_u g
            total += up.valuation(g)
            P = lp_divide_v(P)
        elif not g:
            total += up.valuation(f)
            Q = lp_divide_v(Q)
        else:
            if up.deg(f) > up.deg(g):
                P, Q, f, g = Q, P, g, f
            # cancel the top coefficient of g with a monomial multiple of P
            shift = {(up.deg(g) - up.deg(f), 0): -(g[-1] / f[-1])}
            Q = lp_add(Q, lp_mul(shift, P))


def _jet_quotient_dim(fu, fv, N):
    """dim_K K[u,v] / ((fu, fv) + m^N) via a truncated-monomial matrix."""
    monos = [(i, j) for d in range(N) for i in range(d + 1) for j in [d - i]]
    index = {m: k for k, m in enumerate(monos)}
    rows = []
    for gen in (fu, fv):
        mult = lp_multiplicity(gen) if gen else N
        for a in range(N):
            for b in range(N - a):
                if a + b + mult >= N:
                    continue
                row = [0] * len(monos)
                nonzero = False
                for (i, j), c in gen.items():
                    e = (i + a, j + b)
                    if i + a + j + b < N:
                        row[index[e]] = row[index[e]] + c
                        nonzero = True
                if nonzero:
                    rows.append(row)
    return len(monos) - sum(1 for row in row_reduce(rows) if any(row))


def milnor_via_jets(fu, fv):
    """Stabilized jet dimension: grows the truncation order N until the
    quotient dimension repeats, which certifies m^N is inside (fu, fv)."""
    if not fu and not fv:
        raise NonIsolated("both partial derivatives vanish identically")
    N = 3
    prev = None
    while True:
        dim = _jet_quotient_dim(fu, fv, N)
        if prev is not None and dim == prev:
            return dim
        if dim > DEFAULT_MULT_CAP:
            raise NonIsolated("jet dimension exceeds the cap")
        prev = dim
        N += 1


def milnor_number(P):
    """Milnor number of the isolated germ P at the origin.

    Computed twice — intersection multiplicity of the partials by Euclidean
    recursion, and stabilized jet-quotient dimension — and cross-checked.
    """
    fu = lp_derivative(P, 0)
    fv = lp_derivative(P, 1)
    if not fu and not fv:
        raise NonIsolated("constant germ")
    via_int = intersection_multiplicity(fu, fv)
    via_jet = milnor_via_jets(fu, fv)
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
    P = lp_clean(P)
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
