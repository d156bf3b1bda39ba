"""Reduced lex Groebner bases over QQ, computed fraction-free over ZZ.

:func:`groebner` has the contract of sympy's ``groebnertools.groebner`` on a
lex ring over QQ and runs the same algorithm, the improved Buchberger of
Becker and Weispfenning (*Groebner Bases*, GTM 141, p. 232): an initial
interreduction, the Gebauer-Moeller criteria in :func:`_update`, and the
critical pair with the least lcm first.  A reduced basis is unique, so it
returns the list sympy returns.  Only the arithmetic differs:

* a polynomial is a dict from packed exponent vectors to integers, kept
  primitive with a positive leading coefficient, so no rational is formed
  until the basis is made monic at the very end;
* an exponent vector is one int (Monagan, Pearce, CASC 2007): _BITS bits
  per variable, the first generator highest, the top bit of each field a
  guard that stays clear.  Lex order is then integer order, a monomial
  product is one addition, and m divides m' exactly when m' - m has no
  guard bit set (a borrow sets the guard of the field it leaves);
* a division step scales by the divisor's leading coefficient instead of
  dividing by it, and every few steps the content is taken out.

An exponent that does not fit its field raises ResourceLimit, whether it
is an input's or one that a reduction would form; nothing is ever wrapped.
"""

from __future__ import annotations

from math import gcd, lcm

from sympy.polys.domains import QQ

from .errors import ResourceLimit

_BITS = 16  # per variable: 15 exponent bits and the guard bit
_EXP = _BITS - 1
_CONTENT_EVERY = 8  # division steps between two content removals


def _too_wide():
    return ResourceLimit(f"an exponent does not fit the Groebner kernel's "
                         f"{_EXP}-bit packing")


def _lcm(a, b, guard):
    """Fieldwise maximum of two packed exponent vectors."""
    ge = ((a | guard) - b) & guard  # the guard of field i: a_i >= b_i
    mask = ge - (ge >> _EXP)
    return a & mask | b & ~mask


def _scale(num, den, *polys):
    """Each polynomial times num / den in place, den dividing every
    coefficient."""
    for p in polys:
        for m in p:
            p[m] = p[m] * num // den


def _primitive(p):
    """p divided by its content, with a positive leading coefficient."""
    if p:
        c = gcd(*p.values())
        _scale(1, c if p[max(p)] > 0 else -c, p)
    return p


def _entry(p, guard):
    """(leading monomial, p, fieldwise maximum of its monomials)."""
    top = 0
    for m in p:
        top = _lcm(top, m, guard)
    return max(p), p, top


def _sub(p, entry, d, b, guard):
    """p -= b * x^d * g in place, entry = (LM(g), g, top)."""
    _lm, g, top = entry
    if (top + d) & guard:
        raise _too_wide()
    for m, c in g.items():
        c = p.pop(m + d, 0) - b * c
        if c:
            p[m + d] = c


def _reduce(p, divisors, guard):
    """A primitive multiple of the remainder of p on division by the entries
    `divisors`, each term divided by the first whose leading monomial
    divides it; p is consumed."""
    r = {}
    steps = 0
    while p:
        m = max(p)
        for entry in divisors:
            if not (m - entry[0]) & guard:
                break
        else:
            r[m] = p.pop(m)
            continue
        c, lc = p[m], entry[1][entry[0]]
        h = gcd(c, lc)
        if lc != h:  # lc and h are positive
            _scale(lc // h, 1, p, r)
        _sub(p, entry, m - entry[0], c // h, guard)
        steps += 1
        if steps % _CONTENT_EVERY == 0 and p:
            _scale(1, gcd(*p.values(), *r.values()), p, r)
    return _primitive(r)


def groebner(gens, ring):
    """The reduced Groebner basis of the ideal of `gens`, elements of the lex
    ring `ring` over QQ: each element monic, sorted by leading monomial
    descending, as sympy's ``groebnertools.groebner`` returns it."""
    shifts = [_BITS * i for i in reversed(range(ring.ngens))]
    guard = sum(1 << (s + _EXP) for s in shifts)
    f = []
    for g in filter(None, gens):
        if max((x for e in g for x in e), default=0) >> _EXP:
            raise _too_wide()
        den = lcm(*(c.denominator for c in g.values()))
        f.append(_primitive({sum(x << s for x, s in zip(e, shifts)):
                             int(c.numerator * (den // c.denominator))
                             for e, c in g.items()}))
    while True:  # interreduce the generators, as [BW] page 203
        f1 = [r for i, p in enumerate(f)
              if (r := _reduce(dict(p), [_entry(q, guard) for q in f[:i]],
                               guard))]
        if f1 == f:
            break
        f = f1
    basis = [_entry(p, guard) for p in f]
    G, pairs = set(), {}
    for i in sorted(range(len(basis)), key=lambda i: basis[i][0]):
        G = _update(G, pairs, i, basis, guard)
    while pairs:
        i, j = min(pairs, key=pairs.get)
        l = pairs.pop((i, j))
        (mi, gi, _), (mj, gj, _) = basis[i], basis[j]
        h = gcd(gi[mi], gj[mj])
        p = {}
        _sub(p, basis[i], l - mi, -(gj[mj] // h), guard)
        _sub(p, basis[j], l - mj, gi[mi] // h, guard)
        p = _reduce(p, sorted((basis[g] for g in G), key=lambda e: e[0]),
                    guard)
        if p:
            basis.append(_entry(p, guard))
            G = _update(G, pairs, len(basis) - 1, basis, guard)
    # G is a Groebner basis: reduce each element by the others, which
    # leaves zero for one whose leading monomial another one divides
    reduced = [_reduce(dict(basis[i][1]), [basis[j] for j in G if j != i],
                       guard) for i in G]
    mask = (1 << _BITS) - 1
    return [ring.from_dict({tuple(m >> s & mask for s in shifts):
                            QQ(c, p[max(p)]) for m, c in p.items()})
            for p in sorted(filter(None, reduced), key=max, reverse=True)]


def _update(G, pairs, ih, basis, guard):
    """Gebauer-Moeller ([BW] page 230): add to `pairs` (pair -> lcm of the
    leading monomials) the pairs of the new element ih that the criteria
    keep, drop the old pairs it makes redundant, and return the new G."""
    mh = basis[ih][0]
    C, D = set(G), []
    while C:
        ig = C.pop()
        mg = basis[ig][0]
        l = _lcm(mh, mg, guard)
        if mh + mg == l or all((l - _lcm(mh, basis[ip][0], guard)) & guard
                               for ip in (*C, *D)):
            D.append(ig)
    for (i, j), l in list(pairs.items()):
        if not (l - mh) & guard and _lcm(basis[i][0], mh, guard) != l \
                and _lcm(basis[j][0], mh, guard) != l:
            del pairs[i, j]
    for ig in D:
        l = _lcm(mh, basis[ig][0], guard)
        if mh + basis[ig][0] != l:
            pairs[ih, ig] = l
    return {ig for ig in G if (basis[ig][0] - mh) & guard} | {ih}
