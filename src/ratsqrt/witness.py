"""Explicit rationalizing substitutions and their symbolic verification.

A witness is a :class:`~ratsqrt.mpoly.RationalMap` phi with phi(f) a perfect
square in the rational-function field.  Witnesses are built by projecting
the hypersurface closure of W^2 = f from a point of multiplicity D - 1:
H(t*q + v) = t*A(v) + B(v) (the higher powers of t vanish by the
multiplicity hypothesis), and the residual intersection of the line
through q with direction v is t = -B(v)/A(v), giving rational formulas
for every coordinate.  By Taylor's formula B = H(v) and A is the polar
(q.grad)H at v, so both are read off derivatives of H, with no expansion
of H along the line.  For degree <= 2 the centre is any regular point of
the quadric, found by a bounded-height rational scan with a
quadratic-extension fallback; a quadric with f < 0 on all of R^n has no
real point to find, so it goes to the fallback at once.

Every map passes through :func:`verify_witness` before it is emitted:
:func:`quadric_witness` and :func:`homogeneous_lift` check what they build,
and the callers of :func:`projection_witness` check its map against their
radicand.  An unverifiable candidate is discarded, never emitted.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import gcd

from sympy.ntheory import is_quad_residue
from sympy.polys.domains import QQ
from sympy.solvers.diophantine.diophantine import sqf_normal

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
    _coerce,
    _element,
    _join,
    _rational,
    _rational_sqrt,
    _ring,
    is_perfect_square,
    quadratic_field,
    substitute,
)


# integers above this size are not factored for Legendre's test
_LEGENDRE_BITS = 40


def point_on_quadric(f: MultiPoly, height):
    """A regular point on the quadric W^2 = f (deg f <= 2), as projective
    coordinates (1, x..., w) for the closure in (z, x..., w).

    Scans rational x-values in height order looking for f(x) a rational
    square; if the scan fails, the first x-value with f(x) != 0 is kept and
    w = sqrt(f(x)) adjoined as a quadratic irrationality.  When f < 0 on
    all of R^n (:func:`negative_everywhere`) no value can be a square, so
    the scan is skipped and the origin, its first tuple, is taken at once.
    That is asked only when f has rational coefficients and f(0) < 0: the
    origin already shows any other f not to be negative everywhere.
    Neither can one when f is univariate and its conic has no rational
    point (:func:`conic_has_point`), asked once the scan has found its
    fallback, the first x-value with f(x) != 0: the scan then stops there,
    so the point is the same, and a scan that ends at its first tuple asks
    nothing.

    Returns (coords, extension): the coordinates are QQ elements, except w
    in the fallback, an element of QQ(sqrt(c)) for the rational
    extension c = f(x); extension is None for a rational point.
    """

    def regular(x0, w0):
        if w0:
            return True
        # on w = 0 the point is regular iff some partial of f survives
        vals = dict(zip(f.vars, x0))
        return any(f.derivative(v).eval_at(vals) for v in f.vars)

    c = f.constant_value()
    if f.coefficients_rational() and c < 0 and negative_everywhere(f):
        return [QQ.one, *[QQ.zero] * len(f.vars), quadratic_field(c)[1]], c
    fallback = None
    conic = (len(f.vars) == 1 and f.total_degree() == 2
             and f.coefficients_rational())
    budget = max(200, 20 * height)
    for count, x0 in enumerate(_height_tuples(len(f.vars), height), 1):
        if count > budget:
            break
        c = _rational(f.eval_at(dict(zip(f.vars, x0))))
        if c is None:
            continue
        root = _rational_sqrt(c)
        if root is not None and regular(x0, root):
            return [QQ.one, *x0, root], None
        if fallback is None and c:
            fallback = (x0, c)
            if conic and not conic_has_point(f):
                break
    if fallback is None:
        raise DegenerateProjection("no usable point found on the quadric")
    x0, c = fallback
    return [QQ.one, *x0, quadratic_field(c)[1]], c


def negative_everywhere(f: MultiPoly):
    """Whether f, of total degree <= 2 with rational coefficients, is < 0
    at every real point.  Completing the square in each variable in turn,
    f = a*x^2 + L*x + R has supremum R - L^2/(4a) over x when a < 0, is
    unbounded when a > 0 or (a = 0 and L != 0), and is R when a = L = 0;
    the constant left at the end is the maximum of f."""
    if not f.coefficients_rational() or f.total_degree() > 2:
        return False
    g = f.pe
    for x in g.ring.gens:
        a = g.coeff(x**2)
        L = g.diff(x) - x * (2 * a)
        R = g - x * (x * a + L)
        if a > 0 or (a == 0 and L):
            return False
        g = R - (L * L).quo_ground(4 * a) if a else R
    return g.coeff(1) < 0


def conic_has_point(f: MultiPoly):
    """Whether the conic W^2 = a*X^2 + b*X*Z + c*Z^2 of f = a*X^2 + b*X + c
    over QQ, a != 0, has a rational point, by Legendre's theorem.

    With d = b^2 - 4ac, 4a*f = (2a*X + b)^2 - d, so the conic is
    U^2 - d*Z^2 - a*V^2 = 0 in U = 2aX + bZ, V = 2W; a coefficient n/m
    may be replaced by n*m, which differs from it by the square m^2.  The
    squarefree normal form A, B, C of that (pairwise coprime) has a point
    iff not all three have one sign and -BC, -CA, -AB are squares mod |A|,
    |B|, |C|.  A square f (d = 0) counts as having one.

    So does a conic whose d or a, as the integer n*m, has more than
    _LEGENDRE_BITS bits: the normal form factors both, which has no time
    bound (on a 2-vCPU Xeon the worst of eight random 40-bit semiprimes
    took 2 ms, of eight 60-bit ones 250 ms), while the scan it would save
    costs a few milliseconds.
    """
    a, b, c = (f.pe.get((k,), QQ.zero) for k in (2, 1, 0))
    d = b * b - 4 * a * c
    if not d:
        return True
    dd, aa = d.numerator * d.denominator, a.numerator * a.denominator
    if max(abs(dd), abs(aa)).bit_length() > _LEGENDRE_BITS:
        return True
    A, B, C = map(int, sqf_normal(1, -dd, -aa))
    if (A > 0) == (B > 0) == (C > 0):
        return False
    return (is_quad_residue(-B * C, abs(A)) and is_quad_residue(-C * A, abs(B))
            and is_quad_residue(-A * B, abs(C)))


@lru_cache(maxsize=16)
def _height_values(height):
    """The rationals of height at most `height`, in height order."""
    vals = [QQ.zero]
    for h in range(1, height + 1):
        for d in range(1, h + 1):
            for num in range(-h, h + 1):
                if max(abs(num), d) == h and gcd(num, d) == 1:
                    vals.append(QQ(num, d))
    return tuple(vals)


def _height_tuples(n, height):
    """Rational n-tuples enumerated by increasing height, deterministic."""
    vals = _height_values(height)
    # by the largest value-index `top` in the tuple, then lexicographically;
    # a head that reaches top takes any last index, any other head only top,
    # so no tuple is built and thrown away
    for top in range(len(vals)):
        for head in product(range(top + 1), repeat=n - 1):
            for last in range(top + 1) if top in head else (top,):
                yield tuple(vals[i] for i in (*head, last))


def parametrize_from_point(H: MultiPoly, q, extension=None):
    """Projection witness from a multiplicity-(D-1) point q of H.

    H is homogeneous of degree D with coordinate order (z, X_1..X_n, w):
    z the homogenizing variable and w the square-root coordinate; q is a
    list of projective coordinates (ints, Fractions, QQ elements, or
    elements of QQ(sqrt(extension))).  The affine line space
    is the hyperplane complementary to q's pivot coordinate, affinized by
    setting its last coordinate to 1; the surviving parameters are renamed
    X_1..X_n, so the result is a substitution in the original variables.

    H(t*q + v) = sum_k t^k (q.grad)^k H(v) / k!, so B is H and A the polar
    (q.grad)H, both restricted to the line space; the polars of order
    k >= 2 must vanish there.
    """
    coords = H.vars
    source_vars = coords[1:-1]
    pivot = next((i for i, c in enumerate(q) if c), None)
    if pivot is None:
        raise WrongMultiplicity("projection centre must be a projective point")
    one_slot = [i for i in range(len(coords)) if i != pivot][-1]
    slots = [i for i in range(len(coords)) if i not in (pivot, one_slot)]
    domains, q = zip(*(_coerce(c) for c in q))
    K = _join((H.pe.ring.domain, *domains))
    q = [_element(K, c) for c in q]
    h = H.pe.set_ring(_ring(coords, K))
    ring = _ring(source_vars, K)

    def polar(P):
        """(q.grad)P."""
        out = P.ring.zero
        for i, c in enumerate(q):
            if c:
                out += P.diff(i).mul_ground(c)
        return out

    def restrict(P):
        """P on the line space: pivot coordinate 0, one-slot coordinate 1,
        the others renamed X_1..X_n."""
        terms = {}
        for e, c in P.items():
            if not e[pivot]:
                m = tuple(e[i] for i in slots)
                terms[m] = terms.get(m, K.zero) + c
        return ring.from_dict(terms)

    A = polar(h)
    # multiplicity D-1 forces H(t q + v) = t*A(v) + B(v)
    te, P, k = 1, A, 1
    while P:
        P, k = polar(P), k + 1
        if restrict(P):
            te = k
    if te > 1:
        raise WrongMultiplicity(
            f"expansion has a t^{te} term; centre multiplicity is not D-1"
        )
    Ap = MultiPoly.of(restrict(A))
    Bp = MultiPoly.of(restrict(h))
    if Ap.is_zero():
        raise DegenerateProjection("residual-intersection form vanishes")
    # v_i: 0 at the pivot, 1 at the one slot, X_j at the j-th other slot
    vpart = {pivot: MultiPoly.zero(source_vars),
             one_slot: MultiPoly.const(source_vars, 1)}
    vpart.update(
        (i, MultiPoly.var(source_vars, v)) for i, v in zip(slots, source_vars)
    )
    # residual point: t = -B/A, so coordinate i maps to -B*q_i + A*v_i
    den = Bp * -q[0] + Ap * vpart[0]
    if den.is_zero():
        raise DegenerateProjection("projection denominator vanishes")
    assignments = {}
    for slot, name in enumerate(coords[1:-1], start=1):
        num = Bp * -q[slot] + Ap * vpart[slot]
        assignments[name] = RationalFunction(num, den)
    return RationalMap(source_vars, assignments, extension=extension)


def verify_witness(m: RationalMap, f: MultiPoly):
    """The square root of the image of f under m, or None.

    Checks that m is not a constant map, that it assigns every effective
    variable of f (substitute raises UndefinedVariable otherwise), and that
    substitute(f, m) is a perfect square.
    """
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
    if None not in (outer.extension, inner.extension) \
            and outer.extension != inner.extension:
        raise ValueError("cannot compose maps over different extensions")
    assignments = {}
    for v, g in outer.assignments.items():
        num_img = substitute(g.num, inner)
        den_img = substitute(g.den, inner)
        assignments[v] = num_img / den_img
    ext = outer.extension if outer.extension is not None else inner.extension
    return RationalMap(inner.source_vars, assignments, extension=ext)


def quadric_witness(f: MultiPoly, height):
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
    closure V (AlgebraicPoint from the geometry search), or None.  The map
    is not verified here; the caller checks it against its radicand."""
    if point.field is not None:
        return None
    try:
        return parametrize_from_point(V, point.proj)
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
        ring,
        {
            v: RationalFunction(MultiPoly.var(ring, v), xn)
            for v in inner.source_vars
        },
    )
    assignments = {
        v: xn_rf * g for v, g in compose(inner, frac_map).assignments.items()
    }
    assignments[dehom_var] = xn_rf
    lifted = RationalMap(ring, assignments, extension=inner.extension)
    h = verify_witness(lifted, hom_f)
    if h is None:
        return None
    return lifted, h
