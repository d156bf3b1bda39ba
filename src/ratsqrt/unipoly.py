"""Dense univariate polynomial arithmetic over an arbitrary exact field.

A polynomial is a plain list of coefficients, lowest degree first, with the
top coefficient nonzero (the zero polynomial is the empty list).  The
coefficient type only needs exact field arithmetic through the usual
operators (+, -, *, /) and truthiness for the zero test, so every routine
here works uniformly over the rationals (sympy's QQ elements) and over the
number-field towers of :mod:`ratsqrt.numberfield`.  Tower elements do their
own arithmetic; this module serves polynomials over them: the gcds and
squarefree parts of the point searches and of Trager's pull-back, and the
products that fill each field's multiplication table.

Monic gcd and squarefree part are the workhorses used by the higher-level
modules; :func:`factor_rational` factors over the rationals on sympy's
sparse polynomial ring QQ[t].
"""

from __future__ import annotations

from sympy.polys.domains import QQ

from .mpoly import _ring


def trim(p):
    """Drop trailing zero coefficients so the invariant lc != 0 holds."""
    while p and not p[-1]:
        p.pop()
    return p


def deg(p):
    return len(p) - 1  # -1 for the zero polynomial


def add(p, q):
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        a = p[i] if i < len(p) else 0
        b = q[i] if i < len(q) else 0
        out.append(a + b)
    return trim(out)


def mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] = out[i + j] + a * b
    # normalize plain-int zeros introduced above to field elements
    return trim([c if c else p[0] - p[0] for c in out])


def divmod_poly(p, q):
    """Exact field division with remainder; q must be nonzero."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(p)
    trim(r)
    quo = []
    dq = deg(q)
    lc = q[-1]
    inv = 1 / lc  # one field inverse per call
    while deg(r) >= dq and r:
        c = r[-1] * inv
        k = deg(r) - dq
        quo.append((k, c))
        for i in range(len(q)):
            r[k + i] = r[k + i] - c * q[i]
        r.pop()  # leading term cancels exactly
        trim(r)
    if quo:
        zero = lc - lc
        out = [zero] * (max(k for k, _ in quo) + 1)
        for k, c in quo:
            out[k] = c
    else:
        out = []
    return trim(out), r


def rem(p, q):
    return divmod_poly(p, q)[1]


def monic(p):
    if not p:
        return []
    inv = 1 / p[-1]
    return [c * inv for c in p]


def gcd(p, q):
    """Monic greatest common divisor; gcd(0, 0) = 0 by convention."""
    a, b = list(p), list(q)
    trim(a)
    trim(b)
    while b:
        a, b = b, rem(a, b)
    return monic(a)


def derivative(p):
    if len(p) <= 1:
        return []
    return trim([p[i] * i for i in range(1, len(p))])


def radical(p):
    """Product of the distinct irreducible factors, made monic.

    Note this differs from the odd-multiplicity part used for radicand
    reduction: factors of even multiplicity do appear in the radical.
    """
    if not p:
        raise ValueError("squarefree part of the zero polynomial")
    if deg(p) == 0:
        return monic(p)
    g = gcd(p, derivative(p))
    quo, r = divmod_poly(p, g)
    assert not r
    return monic(quo)


def valuation(p):
    """Order of vanishing at 0 (index of lowest nonzero coefficient)."""
    for i, c in enumerate(p):
        if c:
            return i
    raise ValueError("valuation of the zero polynomial")


# --- rational-coefficient helpers on sympy's sparse rings --------------------


def from_ring(pe):
    """Coefficient list of a univariate ring element over QQ."""
    out = [QQ.zero] * (pe.degree() + 1)
    for (i,), c in pe.terms():
        out[i] = c
    return out


def factor_rational(p):
    """Factor a nonzero polynomial over the rationals.

    Returns (content, [(factor, multiplicity), ...]) where each factor is a
    monic coefficient list and content * prod(factor^mult) == p.
    """
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    if deg(p) == 0:
        return p[0], []
    pe = _ring(("t",)).from_dict({(i,): c for i, c in enumerate(p) if c})
    cont, factors = pe.factor_list()
    out = []
    for f, m in sorted(factors, key=lambda fm: (fm[0].degree(), fm[0].to_dense())):
        coeffs = from_ring(f)
        lc = coeffs[-1]
        cont *= lc**m
        out.append(([c / lc for c in coeffs], m))
    return cont, out


def rational_roots(p):
    """All rational roots of p (without multiplicity), sorted."""
    _, factors = factor_rational(p)
    roots = []
    for f, _m in factors:
        if deg(f) == 1:
            roots.append(-f[0] / f[1])
    return sorted(set(roots))
