"""Randomized property suites shared by the acceptance gate.

All generators take an explicit seeded Random instance, so every run of the
suite exercises the same cases.
"""

import random

import sympy as sp
from sympy.polys.domains import QQ

from ratsqrt.alphabet import decide_alphabet
from ratsqrt.engine import decide
from ratsqrt.geometry import all_simple, build_model, milnor_sum
from ratsqrt.mpoly import (
    MultiPoly,
    RationalFunction,
    RationalMap,
    _radicand,
    _rational,
    effective_vars,
    is_perfect_square,
    squarefree_part,
    substitute,
)
from ratsqrt.witness import verify_witness


def to_sympy(c):
    """A coefficient as a sympy number a + b*sqrt(r)."""
    q = _rational(c)
    if q is not None:
        return QQ.to_sympy(q)
    b, a = c.to_list()
    return QQ.to_sympy(a) + QQ.to_sympy(b) * sp.sqrt(_radicand(c))


def rand_univariate(rng, min_deg=1, max_deg=4):
    """Dense random univariate polynomial over ('X',), nonzero leading term."""
    d = rng.randint(min_deg, max_deg)
    terms = {}
    for i in range(d):
        c = rng.randint(-5, 5)
        if c:
            terms[(i,)] = QQ(c)
    terms[(d,)] = QQ(rng.choice([-3, -2, -1, 1, 2, 3]))
    return MultiPoly(("X",), terms)


def rand_bivariate(rng, deg, dense=False):
    """Random bivariate polynomial of total degree exactly deg.  With
    `dense` every coefficient is nonzero, which keeps the curve generic
    (irreducible with at worst nodal singularities, with overwhelming
    probability)."""
    terms = {}
    for i in range(deg + 1):
        for j in range(deg + 1 - i):
            c = rng.choice([-3, -2, -1, 1, 2, 3]) if dense else rng.randint(-3, 3)
            if c:
                terms[(i, j)] = QQ(c)
    # force the stated total degree
    lead = rng.randint(0, deg)
    terms[(lead, deg - lead)] = QQ(rng.choice([-2, -1, 1, 2]))
    return MultiPoly(("X", "Y"), terms)


def rand_square_factor(rng):
    d = rng.randint(1, 2)
    terms = {(i,): QQ(rng.randint(-3, 3)) for i in range(d)}
    terms[(d,)] = QQ(rng.choice([-2, -1, 1, 2]))
    return MultiPoly(("X",), {e: c for e, c in terms.items() if c})


def _nonzero(rng):
    return QQ(rng.choice([-3, -2, -1, 1, 2, 3]))


def _poly(variables, terms):
    return MultiPoly(variables, {e: c for e, c in terms.items() if c})


def rand_cascade_radicand(rng, family):
    """A radicand of one of seven shapes which, between them, reach every
    rule of the decision cascade: 0 a constant times a square (rule 1),
    1 univariate over (X, Y) (rules 2, 3, 5), 2 univariate (3, 5), 3 a
    binary form of degree 2 or 4 (3, 4), 4 bivariate of degree 2-4 (3, 6,
    7), 5 a cubic in X, Y, Z linear in Y (8), 6 a diagonal cubic in X, Y,
    Z (9)."""
    if family == 0:
        h = rand_square_factor(rng)
        return h * h * _nonzero(rng)
    if family == 1:
        return rand_univariate(rng).with_vars(("X", "Y"))
    if family == 2:
        return rand_univariate(rng)
    if family == 3:
        d = rng.choice([2, 4])
        terms = {(i, d - i): QQ(rng.randint(-3, 3)) for i in range(d + 1)}
        terms[(0, d)] = _nonzero(rng)
        return _poly(("X", "Y"), terms)
    if family == 4:
        return rand_bivariate(rng, rng.randint(2, 4))
    xyz = ("X", "Y", "Z")
    if family == 5:
        a = {(i, 0, j): QQ(rng.randint(-2, 2))
             for i in range(3) for j in range(3 - i)}
        b = {(i, 0, j): QQ(rng.randint(-2, 2))
             for i in range(4) for j in range(4 - i)}
        a[(2, 0, 0)], b[(0, 0, 2)] = _nonzero(rng), _nonzero(rng)
        return _poly(xyz, a) * MultiPoly.var(xyz, "Y") + _poly(xyz, b)
    return _poly(xyz, {(3, 0, 0): _nonzero(rng), (0, 3, 0): _nonzero(rng),
                       (0, 0, 3): _nonzero(rng), (0, 0, 0): _nonzero(rng)})


def draw_cascade_radicands(n=35, seed=2020):
    """n nonzero radicands from rand_cascade_radicand, the shapes in turn."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        f = rand_cascade_radicand(rng, len(out) % 7)
        if not f.is_zero():
            out.append(f)
    return out


def suite_square_multiple_invariance(n=200, seed=20260823):
    """sqrt(f) and sqrt(f * h^2) always get the same verdict."""
    rng = random.Random(seed)
    checked = 0
    while checked < n:
        f = rand_univariate(rng)
        h = rand_square_factor(rng)
        if f.is_zero() or h.is_zero():
            continue
        a = decide(f).outcome
        b = decide(f * h * h).outcome
        assert a == b, (f, h, a, b)
        checked += 1
    return checked


def _apply_affine_univ(f, a, b):
    m = RationalMap(
        ("X",),
        {"X": RationalFunction.from_poly(
            MultiPoly(("X",), {(1,): QQ(a), (0,): QQ(b)} if b else {(1,): QQ(a)})
        )},
    )
    img = substitute(f, m)
    assert img.den.is_constant()
    return img.num


def _apply_shear_bivar(f, c, swap):
    # (X, Y) -> (Y, X) optionally, then X -> X + c*Y: always invertible
    xy = ("X", "Y")
    x = MultiPoly.var(xy, "X")
    y = MultiPoly.var(xy, "Y")
    gx, gy = (y, x) if swap else (x, y)
    m = RationalMap(
        xy,
        {"X": RationalFunction.from_poly(gx + gy * QQ(c)),
         "Y": RationalFunction.from_poly(gy)},
    )
    img = substitute(f, m)
    assert img.den.is_constant()
    return img.num


def suite_affine_invariance(n=200, seed=7191):
    """Verdicts are invariant under invertible affine variable changes."""
    rng = random.Random(seed)
    checked = 0
    while checked < n:
        if checked % 8 == 7:
            f = rand_bivariate(rng, rng.randint(2, 3))
            if f.is_zero() or f.is_constant():
                continue
            g = _apply_shear_bivar(f, rng.randint(-2, 2), rng.random() < 0.5)
        else:
            f = rand_univariate(rng)
            a = rng.choice([-3, -2, -1, 1, 2, 3])
            g = _apply_affine_univ(f, a, rng.randint(-4, 4))
        va = decide(f).outcome
        vb = decide(g).outcome
        assert va == vb, (f, g, va, vb)
        checked += 1
    return checked


def rand_map(rng):
    num = rand_univariate(rng, 0, 3)
    den = rand_univariate(rng, 0, 2)
    if den.is_zero():
        den = MultiPoly.const(("X",), 1)
    return RationalMap(("X",), {"X": RationalFunction(num, den)})


def suite_witness_gate(n=200, seed=424242):
    """verify_witness only ever accepts maps whose image is an exact square;
    engine-emitted witnesses always pass it."""
    rng = random.Random(seed)
    checked = 0
    while checked < n:
        f = rand_univariate(rng)
        if f.is_zero():
            continue
        if checked % 2 == 0:
            m = rand_map(rng)
        else:
            v = decide(f)
            if v.witness is None:
                checked += 1
                continue
            m = v.witness
            assert verify_witness(m, f) is not None, f
        h = verify_witness(m, f)
        if h is not None:
            assert h * h == substitute(f, m), (f, m)
        checked += 1
    return checked


def suite_alphabet_permutation(n=200, seed=90210):
    """Alphabet outcome does not depend on root order."""
    rng = random.Random(seed)
    checked = 0
    while checked < n:
        k = rng.randint(2, 3)
        if checked % 8 == 7:
            polys = [rand_univariate(rng, 1, 1) for _ in range(k)]
        else:
            polys = [rand_univariate(rng, 1, 3) for _ in range(k)]
        if any(p.is_zero() or p.is_constant() for p in polys):
            continue
        roots = [(f"f{i}", p) for i, p in enumerate(polys)]
        base = decide_alphabet(roots).outcome
        perm = list(roots)
        rng.shuffle(perm)
        again = decide_alphabet(perm).outcome
        assert base == again, (polys, base, again)
        checked += 1
    return checked


def suite_milnor_bound(n=200, seed=5150):
    """On generically generated branch curves, the total Milnor number of
    the simple singularities stays within (D-1)(D-2) for D the curve
    degree.  Degenerate families (line pairs, inflectional tangencies) can
    exceed the bound, so the generator draws dense generic coefficients."""
    rng = random.Random(seed)
    checked = 0
    while checked < n:
        f = squarefree_part(rand_bivariate(rng, rng.randint(3, 4), dense=True))
        if f.is_constant() or len(effective_vars(f)) != 2:
            continue
        model = build_model(f.with_vars(tuple(effective_vars(f))))
        _ok, records = all_simple(model)
        D = model.B.total_degree()
        assert milnor_sum(records) <= (D - 1) * (D - 2), (f, records)
        checked += 1
    return checked
