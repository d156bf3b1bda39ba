"""Explicit rationalizing substitutions and their symbolic verification.

A witness is a :class:`~ratsqrt.mpoly.RationalMap` phi with phi(f) a perfect
square in the rational-function field.  Witnesses are built by projecting
the hypersurface closure of W^2 = f from a point of multiplicity D - 1:
expanding H(t*q + v) = t*A(v) + B(v) (all lower powers of t vanish by the
multiplicity hypothesis), the residual intersection of the line through q
with direction v is t = -B(v)/A(v), giving rational formulas for every
coordinate.  For degree <= 2 the centre is any regular point of the quadric,
found by a bounded-height rational scan with a quadratic-extension fallback.

Every constructed map passes through :func:`verify_witness` before leaving
this module; an unverifiable candidate is discarded, never emitted.
"""

from __future__ import annotations

from fractions import Fraction

import sympy as sp

from .errors import (
    DegenerateProjection,
    UndefinedVariable,
    WrongMultiplicity,
    ZeroDenominator,
)
from .mpoly import (
    MultiPoly,
    RationalFunction,
    RationalMap,
    _rational_sqrt,
    effective_vars,
    is_perfect_square,
    substitute,
)


def _poly_compose(f: MultiPoly, values):
    """Evaluate f with each variable replaced by a MultiPoly in a new ring.

    `values` maps every variable of f to a MultiPoly; all values share one
    variable tuple, which becomes the ring of the result.
    """
    ring = next(iter(values.values())).vars
    out = MultiPoly.zero(ring)
    for e, c in f.terms.items():
        term = MultiPoly.const(ring, c)
        for var, exp in zip(f.vars, e):
            if exp:
                term = term * values[var] ** exp
        out = out + term
    return out


def point_on_quadric(f: MultiPoly, height=50):
    """A regular point on the quadric W^2 = f (deg f <= 2), as projective
    coordinates (1, x..., w) for the closure in (z, x..., w).

    Scans rational x-values in height order looking for f(x) a rational
    square; if the scan fails, the first regular x-value is kept and
    sqrt(f(x)) adjoined as a quadratic irrationality.

    Returns (coords: list of sympy constants, extension: sqrt expr or None).
    """
    varnames = [v for v in f.vars]
    n = len(varnames)

    def regular(x0, w0):
        if w0 != 0:
            return True
        # on w = 0 the point is regular iff some partial of f survives
        vals = dict(zip(varnames, x0))
        for v in varnames:
            if f.derivative(v).eval_at(vals) != 0:
                return True
        return False

    # fast evaluation path: all-rational coefficients stay in Fraction
    frac_terms = None
    if all(c.is_Rational for c in f.terms.values()):
        frac_terms = {e: Fraction(int(c.p), int(c.q)) for e, c in f.terms.items()}

    def value_at(x0):
        if frac_terms is None:
            return f.eval_at(dict(zip(varnames, x0)))
        total = Fraction(0)
        for e, c in frac_terms.items():
            term = c
            for xi, exp in zip(x0, e):
                if exp:
                    term *= xi ** exp
            total += term
        return sp.Rational(total)

    fallback = None
    count = 0
    budget = max(200, 20 * height)
    for x0 in _height_tuples(n, height):
        count += 1
        if count > budget:
            break
        c = value_at(x0)
        if not c.is_Rational:
            continue
        root = _rational_sqrt(c)
        if root is not None and regular(x0, root):
            coords = [sp.Integer(1)] + [sp.Rational(v) for v in x0] + [root]
            return coords, None
        if fallback is None and c != 0:
            fallback = (x0, c)
    if fallback is None:
        raise DegenerateProjection("no usable point found on the quadric")
    x0, c = fallback
    w0 = sp.sqrt(c)
    coords = [sp.Integer(1)] + [sp.Rational(v) for v in x0] + [w0]
    return coords, w0


_HEIGHT_VALS = {}


def _height_values(height):
    if height not in _HEIGHT_VALS:
        vals = [Fraction(0)]
        for h in range(1, height + 1):
            for d in range(1, h + 1):
                for num in range(-h, h + 1):
                    q = Fraction(num, d)
                    if max(abs(q.numerator), q.denominator) == h:
                        vals.append(q)
        _HEIGHT_VALS[height] = vals
    return _HEIGHT_VALS[height]


def _height_tuples(n, height):
    """Rational n-tuples enumerated by increasing height, deterministic."""
    vals = _height_values(height)

    if n == 1:
        for v in vals:
            yield (v,)
        return
    # enumerate by the maximum value-index in the tuple
    for top in range(len(vals)):
        stack = [[]]
        for _k in range(n):
            stack = [s + [i] for s in stack for i in range(top + 1)]
        for s in stack:
            if max(s) == top:
                yield tuple(vals[i] for i in s)


def parametrize_from_point(H: MultiPoly, q, extension=None):
    """Projection witness from a multiplicity-(D-1) point q of H.

    H is homogeneous of degree D with coordinate order (z, X_1..X_n, w):
    z the homogenizing variable and w the square-root coordinate; q is a
    list of sympy constants (projective coordinates).  The affine line space
    is the hyperplane complementary to q's pivot coordinate, affinized by
    setting its last coordinate to 1; the surviving parameters are renamed
    X_1..X_n, so the result is a substitution in the original variables.
    """
    coords = H.vars
    D = H.total_degree()
    n = len(coords) - 2
    source_vars = coords[1:-1]
    qv = [sp.sympify(c) for c in q]
    pivot = next((i for i, c in enumerate(qv) if c != 0), None)
    if pivot is None:
        raise WrongMultiplicity("projection centre must be a projective point")
    free = [i for i in range(len(coords)) if i != pivot]
    param_slots = free[:-1]
    one_slot = free[-1]
    ring = ("t",) + tuple(source_vars)
    t = MultiPoly.var(ring, "t")
    values = {}
    params = iter(source_vars)
    vpart = {}
    for i, name in enumerate(coords):
        base = t.scale(qv[i]) if qv[i] != 0 else MultiPoly.zero(ring)
        if i == pivot:
            values[name] = base
            vpart[i] = MultiPoly.zero(ring)
        elif i == one_slot:
            values[name] = base + 1
            vpart[i] = MultiPoly.const(ring, 1)
        else:
            p = MultiPoly.var(ring, next(params))
            values[name] = base + p
            vpart[i] = p
    expanded = _poly_compose(H, values)
    # split by t-degree: multiplicity D-1 forces H(t q + v) = t*A(v) + B(v)
    A = {}
    B = {}
    for e, c in expanded.terms.items():
        te, rest = e[0], e[1:]
        if te == 0:
            B[rest] = c
        elif te == 1:
            A[rest] = c
        else:
            raise WrongMultiplicity(
                f"expansion has a t^{te} term; centre multiplicity is not D-1"
            )
    Ap = MultiPoly(source_vars, A)
    Bp = MultiPoly(source_vars, B)
    if Ap.is_zero():
        raise DegenerateProjection("residual-intersection form vanishes")
    # residual point: t = -B/A, so coordinate i maps to -B*q_i + A*v_i
    den = Bp.scale(-qv[0]) + Ap * MultiPoly(
        source_vars, {e[1:]: c for e, c in vpart[0].terms.items()}
    )
    if den.is_zero():
        raise DegenerateProjection("projection denominator vanishes")
    assignments = {}
    for slot, name in enumerate(coords[1:-1], start=1):
        vi = MultiPoly(source_vars, {e[1:]: c for e, c in vpart[slot].terms.items()})
        num = Bp.scale(-qv[slot]) + Ap * vi
        assignments[name] = RationalFunction(num, den)
    return RationalMap(source_vars, assignments, extension=extension)


def verify_witness(m: RationalMap, f: MultiPoly):
    """The square root of the image of f under m, or None.

    Checks that m assigns every effective variable of f, that m is not a
    constant map, and that substitute(f, m) is a perfect square.
    """
    for v in effective_vars(f):
        if v not in m.assignments:
            return None
    if not m.is_nonconstant():
        return None
    try:
        g = substitute(f, m)
    except (ZeroDenominator, UndefinedVariable):
        return None
    return is_perfect_square(g, m.extension)


def compose(outer: RationalMap, inner: RationalMap) -> RationalMap:
    """The substitution applying `outer` first, then `inner` to its output,
    i.e. substitute(f, compose(o, i)) == substitute over substitute."""
    assignments = {}
    for v, g in outer.assignments.items():
        num_img = substitute(g.num, inner)
        den_img = substitute(g.den, inner)
        assignments[v] = num_img / den_img
    if outer.extension is not None and inner.extension is not None:
        if sp.simplify(outer.extension - inner.extension) != 0:
            raise ValueError("cannot compose maps over different extensions")
    ext = outer.extension if outer.extension is not None else inner.extension
    return RationalMap(inner.source_vars, assignments, extension=ext)


def quadric_witness(f: MultiPoly, height=50):
    """Witness for deg <= 2 squarefree f via the quadric parametrization;
    returns (map, h) verified, or None if construction degenerates."""
    from .geometry import build_model

    model = build_model(f)
    try:
        coords, ext = point_on_quadric(model.f, height)
        m = parametrize_from_point(model.V, coords, extension=ext)
    except (DegenerateProjection, WrongMultiplicity):
        return None
    h = verify_witness(m, model.f)
    if h is None:
        return None
    return m, h


def projection_witness(V: MultiPoly, point):
    """Witness from a rational multiplicity-(D-1) point on the hypersurface
    closure V (AlgebraicPoint from the geometry search); verified or None."""
    if point.field is not None:
        return None
    coords = [sp.Rational(c) for c in point.proj]
    try:
        return parametrize_from_point(V, coords)
    except (DegenerateProjection, WrongMultiplicity):
        return None


def homogeneous_lift(inner: RationalMap, hom_f: MultiPoly, dehom_var: str):
    """Lift a witness of the dehomogenized radicand to the homogeneous one.

    For even-degree homogeneous f with f(X) = X_n^d * ftilde(X'/X_n), a
    witness psi of the squarefree part of ftilde lifts to
    X_i -> X_n * psi_i(X_1/X_n, ..., X_{n-1}/X_n), X_n -> X_n, so the
    coordinate ratios reproduce psi and the leftover X_n^d factor is a
    square because d is even.  The lift is verified before emission.
    """
    ring = hom_f.vars
    xn = MultiPoly.var(ring, dehom_var)
    xn_rf = RationalFunction.from_poly(xn)
    frac_map = RationalMap(
        inner.source_vars,
        {
            v: RationalFunction(MultiPoly.var(ring, v), xn)
            for v in inner.source_vars
        },
    )
    assignments = {}
    for v, g in inner.assignments.items():
        num_img = substitute(g.num, frac_map)
        den_img = substitute(g.den, frac_map)
        assignments[v] = xn_rf * (num_img / den_img)
    assignments[dehom_var] = RationalFunction.from_poly(xn)
    lifted = RationalMap(ring, assignments, extension=inner.extension)
    h = verify_witness(lifted, hom_f)
    if h is None:
        return None
    return lifted, h
