"""Sparse polynomial arithmetic over an arbitrary exact field.

A polynomial in n variables is an exponent dict: it maps exponent n-tuples
to nonzero coefficients, and the zero polynomial is the empty dict.  That is
the shape of sympy's ring elements too, so a :class:`PolyElement` over QQ
converts by ``dict(pe)`` and back by ``ring.from_dict``.  The coefficient
type only needs exact field arithmetic through the usual operators (+, -, *,
/) and truthiness for the zero test, so every routine here works uniformly
over the rationals (sympy's QQ elements) and over the number-field towers of
:mod:`ratsqrt.numberfield`; a coefficient carries its field and combines with
plain ints, so no routine takes a field argument.

In any number of variables: :func:`add`, :func:`mul`, :func:`derivative`
and :func:`translate`, which serve the germs of
:mod:`ratsqrt.localanalysis` and :mod:`ratsqrt.geometry`.  In one variable,
with exponents 1-tuples, the Euclidean routines: division with remainder,
monic gcd and squarefree part, which serve the point searches, Trager's
pull-back and the multiplication table of each number field.
:func:`factor_rational` factors over the rationals on sympy's sparse ring
QQ[t], except a quadratic, which the square root of its discriminant
splits.
"""

from __future__ import annotations

import operator
from math import comb

from sympy.polys.domains import QQ

from .mpoly import _qq, _rational_sqrt, _ring


def clean(P):
    """Drop zero coefficients, so that every coefficient left is nonzero."""
    return {e: c for e, c in P.items() if c}


def add(P, Q):
    out = dict(P)
    for e, c in Q.items():
        out[e] = out[e] + c if e in out else c
    return clean(out)


def mul(P, Q):
    out = {}
    for e1, c1 in P.items():
        for e2, c2 in Q.items():
            e = tuple(map(operator.add, e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return clean(out)


def derivative(P, axis=0):
    """Partial derivative along `axis`."""
    return {e[:axis] + (e[axis] - 1,) + e[axis + 1 :]: c * e[axis]
            for e, c in P.items() if e[axis]}


def translate(P, shift):
    """P(x + shift), one variable at a time, each power of a shift
    coordinate computed once."""
    for k, a in enumerate(shift):
        if not a:
            continue
        powers = [a**t for t in range(max((e[k] for e in P), default=0) + 1)]
        out = {}
        for e, c in P.items():
            i = e[k]
            for t in range(i + 1):
                ct = c * (comb(i, t) * powers[i - t]) if t < i else c
                ne = e[:k] + (t,) + e[k + 1 :]
                out[ne] = out[ne] + ct if ne in out else ct
        P = clean(out)
    return P


# --- univariate: exponents are 1-tuples --------------------------------------


def deg(p):
    return max(p)[0] if p else -1  # -1 for the zero polynomial


def divmod_poly(p, q):
    """Exact field division with remainder; q must be nonzero."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    dq = deg(q)
    inv = 1 / q[(dq,)]  # one field inverse per call
    tail = [(i, b) for (i,), b in q.items() if i != dq]
    r = dict(p)
    quo = {}
    while r:
        (dr,) = top = max(r)
        if dr < dq:
            break
        c = r.pop(top) * inv  # the leading term cancels exactly
        k = dr - dq
        quo[(k,)] = c
        for i, b in tail:
            e = (k + i,)
            s = r[e] - c * b if e in r else -c * b
            if s:
                r[e] = s
            else:
                r.pop(e, None)
    return quo, r


def rem(p, q):
    return divmod_poly(p, q)[1]


def monic(p):
    if not p:
        return {}
    inv = 1 / p[max(p)]
    return {e: c * inv for e, c in p.items()}


def gcd(p, q):
    """Monic greatest common divisor; gcd(0, 0) = 0 by convention."""
    while q:
        p, q = q, rem(p, q)
    return monic(p)


def radical(p):
    """Product of the distinct irreducible factors, made monic.

    Note this differs from the odd-multiplicity part used for radicand
    reduction: factors of even multiplicity do appear in the radical.
    """
    if not p:
        raise ValueError("squarefree part of the zero polynomial")
    if deg(p) == 0:
        return monic(p)
    quo, r = divmod_poly(p, gcd(p, derivative(p)))
    if r:
        raise AssertionError("p is not divisible by gcd(p, p')")
    return monic(quo)


# --- rational-coefficient helpers on sympy's sparse rings --------------------


def factor_rational(p):
    """Factor a nonzero polynomial over the rationals.

    Returns (content, [(factor, multiplicity), ...]) where each factor is a
    monic exponent dict and content * prod(factor^mult) == p.
    """
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    if deg(p) == 0:
        return p[(0,)], []
    if deg(p) == 2:
        return _factor_quadratic(p)
    cont, factors = _ring(("t",)).from_dict(p).factor_list()
    out = []
    for f, m in sorted(factors, key=lambda fm: (fm[0].degree(), fm[0].to_dense())):
        cont *= f.LC**m
        out.append((monic(dict(f)), m))
    return cont, out


def _factor_quadratic(p):
    """factor_rational of a quadratic a*t^2 + b*t + c, split by the square
    root of its discriminant.  The content, factors and order are those of
    the factor_list route: that route sorts the primitive integer factors
    q*t - s of two rational roots s/q by their dense coefficients (q, -s),
    and lists a factor's terms by ascending degree."""
    a, b, c = (_qq(p.get((k,), 0)) for k in (2, 1, 0))
    d = _rational_sqrt(b * b - 4 * a * c)
    if d is None:
        return a, [(monic({e: _qq(p[e]) for e in sorted(p)}), 1)]
    roots = sorted({(d - b) / (2 * a), (-d - b) / (2 * a)},
                   key=lambda r: (r.denominator, -r.numerator))
    m = 2 if len(roots) == 1 else 1
    return a, [({(0,): -r, (1,): QQ.one} if r else {(1,): QQ.one}, m)
               for r in roots]


def rational_roots(p):
    """All rational roots of p (without multiplicity), sorted."""
    _, factors = factor_rational(p)
    return sorted({-f.get((0,), QQ.zero) for f, _m in factors if deg(f) == 1})
