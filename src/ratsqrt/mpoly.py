"""Sparse multivariate polynomials, rational functions and substitution maps.

A MultiPoly is one element of sympy's sparse polynomial ring
(``PolyElement``), and its variable tuple is the names of that ring's
generators: the ring is ``PolyRing(vars, K, lex)``, and K is QQ, or the
one quadratic field QQ(sqrt(r)), r a squarefree integer, that a witness
built from a non-rational quadric point needs.  A polynomial is
over QQ exactly when its coefficients are rational; an operand over QQ is
lifted into the field of the other, and two different quadratic fields
never meet in one operation.  Rings and fields are built once and cached,
so arithmetic, substitution and the exact kernels (cancellation, gcd,
squarefree decomposition, factorization, the perfect-square test) all run
on ring elements, never on expression trees.

Two certificates let the reductions skip sympy's kernels on inputs that
need no work; each decides from univariate images mod the prime
P = 2^31 - 1, in one variable y, with every other variable set to a fixed
small integer.  An image is degree-preserving when P divides neither its
leading coefficient nor a coefficient's denominator; then any factor over
QQ, taken primitive, keeps its degree in y mod P.  A polynomial over QQ is
squarefree when, for each variable y, some degree-preserving image is
coprime to its derivative: a square factor q^2 involving y would leave
q(y)^2 in it.  A fraction is already reduced when, for each variable both
sides involve, some degree-preserving images of the two are coprime; over
QQ(sqrt(r)) these are images of the norms a0^2 - r*a1^2 of the two sides,
since a common factor g gives their norms the common factor N(g).  Norms
certify coprimality only, never squarefreeness.  A polynomial over QQ that
the images do not certify squarefree, but that carries the factors it was
written in (MultiPoly.factors), has those certified instead, each one
squarefree and every pair coprime; its squarefree part is then read off
their exponents (squarefree_part).  A fraction the images
do not certify loses the common monomial of its two sides and is tried
again.  When no image decides, sqf_list or cancel runs.  They also run
when an image could be too large to be worth building: when a bound on
its degree times its coefficient bits, read off the exponents and
coefficients, exceeds a fixed cap.

The canonical term order for printing and for leading coefficients is
graded lexicographic in the declared variable order.  sympy's expression
API is met at one edge only: building the rings and fields.  Coefficients
print from their rational parts, an irrational one a + b*sqrt(r) in the
form sympy's str gives it (_surd_str), and a RationalFunction keeps its
text once printed, so a witness printed by the deciding step is not
printed again by the report.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import isqrt, lcm
from numbers import Rational
from operator import add, mul, sub

import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.orderings import lex
from sympy.polys.polyclasses import ANP
from sympy.polys.rings import PolyRing

from .errors import (
    OddDegree,
    ResourceLimit,
    UndefinedVariable,
    ZeroDenominator,
    ZeroRadicand,
)


def grlex_key(exp):
    return (sum(exp), exp)


# --------------------------------------------------------------------------
# coefficient domains and rings


@lru_cache(maxsize=256)
def _ring(variables, domain=QQ):
    return PolyRing([sp.Symbol(v) for v in variables], domain, lex)


@lru_cache(maxsize=256)
def _names(ring):
    """The variable tuple of a _ring-built ring: its generator names."""
    return tuple(s.name for s in ring.symbols)


@lru_cache(maxsize=64)
def _field(r):
    """QQ(sqrt(r)) for a squarefree integer r != 1, built from its minimal
    polynomial t^2 - r: sympy takes the pair (t^2 - r, sqrt(r)) as it is,
    and computes no primitive element and no minimal polynomial.  The root
    is built unevaluated, as sympy's sqrt(r) of a squarefree r reads: a
    power of |r| times I when r < 0, so that sympy does not factor r again
    to simplify it."""
    minpoly = sp.Poly([1, 0, -r], sp.Dummy("t"), domain=QQ)
    root = sp.Pow(abs(r), sp.S.Half, evaluate=False)
    if r < 0:
        root = sp.I if r == -1 else sp.Mul(sp.I, root, evaluate=False)
    return QQ.algebraic_field((minpoly, root))


def _radicand(x):
    """r for a field QQ(sqrt(r)) from _field, or for an element of one: the
    modulus of either is t^2 - r."""
    return int(-(x if isinstance(x, ANP) else x.one).mod[-1])


# The trial-division bound L of the radicand reduction.
_TRIAL_BOUND = 2**15


@lru_cache(maxsize=256)
def quadratic_field(c):
    """(QQ(sqrt(c)), sqrt(c) as its element) for a rational c that is not a
    rational square.

    The squarefree part r of c comes from factorint bounded by trial
    division up to L = _TRIAL_BOUND, so a cofactor it leaves unsplit has no
    prime factor up to L.  Such a cofactor is squarefree when it is prime,
    or when it is below L^3 and not a square: it then has at most two prime
    factors, and they differ.  Any other cofactor raises ResourceLimit."""
    c = _qq(c)
    n, r, s = abs(c.numerator * c.denominator), -1 if c < 0 else 1, 1
    for p, k in sp.factorint(n, limit=_TRIAL_BOUND).items():
        if p > _TRIAL_BOUND and (p >= _TRIAL_BOUND**3 or isqrt(p) ** 2 == p) \
                and not sp.isprime(p):
            raise ResourceLimit(f"bounded trial division leaves a composite"
                                f" factor of {p.bit_length()} bits in {c}")
        r *= p ** (k % 2)
        s *= p ** (k // 2)
    if r == 1:
        raise ValueError(f"{c} is a rational square")
    K = _field(r)
    return K, K([QQ(s, c.denominator), QQ.zero])


def _qq(c):
    """An int, Fraction or QQ element as an element of QQ."""
    return c if QQ.of_type(c) else QQ(c.numerator, c.denominator)


def _element(K, c):
    """A coefficient, an int, a QQ element or an element of K, as an
    element of K; K.convert would take an int several times slower, and a
    QQ element into a quadratic field through a sympy number."""
    if type(c) is int:
        c = QQ.dtype(c)
    return c if K.of_type(c) else K.convert_from(c, QQ)


def _ground(K, c):
    """A rational, such as an int, Fraction or QQ element, or an element of
    K, as an element of K; None for anything else, such as an element of
    another field."""
    if isinstance(c, ANP):
        return c if not K.is_QQ and _radicand(c) == _radicand(K) else None
    if isinstance(c, Rational) or QQ.of_type(c):
        return _element(K, _qq(c))
    return None


def _rational(c):
    """A coefficient as an element of QQ, or None when it is irrational."""
    if not isinstance(c, ANP):
        return c
    rep = c.to_list()
    return None if len(rep) > 1 else rep[0] if rep else QQ.zero


def _coerce(c):
    """(domain, element) of a coefficient: an int, Fraction, QQ or field
    element."""
    if isinstance(c, ANP):
        return _field(_radicand(c)), c
    return QQ, _qq(c)


def _join(domains):
    """QQ, or the one quadratic field among `domains`."""
    out = QQ
    for K in domains:
        if K is not out and not K.is_QQ:
            if not out.is_QQ and K != out:
                raise ValueError("coefficients from two different quadratic fields")
            out = K
    return out


def _common(*polys):
    """The ring elements of polys (one variable tuple) over one domain."""
    K = _join(p.pe.ring.domain for p in polys)
    return [
        p.pe if p.pe.ring.domain is K else p.pe.set_ring(_ring(p.vars, K))
        for p in polys
    ]


class MultiPoly:
    """Immutable sparse polynomial: the ring element ``pe`` and ``vars``,
    the names of its ring's generators.

    ``factors`` is None, or a tuple of (ring element, exponent) pairs whose
    product is pe up to a nonzero constant: the factors the polynomial was
    written in.  parse_rational sets it on a numerator typed as a product
    of powers of parenthesized sums, variables and constants, and
    :func:`listed` gives any polynomial one.  A product of two polynomials
    that carry one, a constant carrying the empty tuple, concatenates them;
    with_vars and dehomogenize map it factor by factor, squarefree_part
    keeps it or lists its odd factors, and every other constructor leaves
    it None.  squarefree_part and the branch curve of
    :func:`ratsqrt.geometry.build_model` read it; equality and hashing
    ignore it."""

    __slots__ = ("vars", "pe", "factors")

    def __init__(self, variables, terms):
        """From {exponent tuple: coefficient}, coefficients as in _coerce."""
        coeffs = {tuple(e): _coerce(c) for e, c in terms.items()}
        ring = _ring(tuple(variables), _join(K for K, _c in coeffs.values()))
        self.vars = _names(ring)
        self.pe = _canonical(ring.from_dict({e: c for e, (_K, c) in coeffs.items()}))
        self.factors = None

    @classmethod
    def of(cls, pe):
        """Wrap an element of a _ring-built ring."""
        self = object.__new__(cls)
        self.vars = _names(pe.ring)
        self.pe = _canonical(pe)
        self.factors = None
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls.of(_ring(tuple(variables)).zero)

    @classmethod
    def const(cls, variables, c):
        K, c = _coerce(c)
        return cls.of(_ring(tuple(variables), K).ground_new(c))

    @classmethod
    def var(cls, variables, name):
        variables = tuple(variables)
        return cls.of(_ring(variables).gens[variables.index(name)])

    # -- basic structure -----------------------------------------------------

    def is_zero(self):
        return not self.pe

    def is_constant(self):
        return self.pe.is_ground

    def constant_value(self):
        return self.pe.get(self.pe.ring.zero_monom, QQ.zero)

    def total_degree(self):
        return max((sum(e) for e in self.pe.itermonoms()), default=-1)

    def degree_in(self, name):
        return self.pe.degree(self.vars.index(name)) if self.pe else -1

    def leading_term(self):
        exp = max(self.pe.itermonoms(), key=grlex_key)
        return exp, self.pe[exp]

    def leading_coeff(self):
        return self.leading_term()[1] if self.pe else QQ.zero

    def sorted_terms(self):
        return sorted(self.pe.items(), key=lambda t: (sum(t[0]), t[0]),
                      reverse=True)

    def coefficients_rational(self):
        return self.pe.ring.domain.is_QQ

    # -- ring operations -----------------------------------------------------

    def _check_vars(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def _operands(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.vars, other)
        self._check_vars(other)
        return _common(self, other)

    def __add__(self, other):
        a, b = self._operands(other)
        return MultiPoly.of(a + b)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly.of(-self.pe)

    def __sub__(self, other):
        a, b = self._operands(other)
        return MultiPoly.of(a - b)

    def __mul__(self, other):
        """The product; an int, Fraction or QQ element, or an element of
        self's own field, scales the ring element by one mul_ground, and
        any other operand, a polynomial or an element of another field,
        joins self in one domain first (raising ValueError for two
        quadratic fields).  The factor lists of the two concatenate, a
        constant carrying the empty list."""
        c = None if isinstance(other, MultiPoly) else _ground(
            self.pe.ring.domain, other)
        fa = () if self.pe.is_ground else self.factors
        if c is not None:
            return _listed(self.pe.mul_ground(c), fa)
        a, b = self._operands(other)
        fb = () if b.is_ground else other.factors
        return _listed(a * b, None if fa is None or fb is None else fa + fb)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return MultiPoly.of(self.pe**n)

    def monic(self):
        """Normalize the graded-lex leading coefficient to 1."""
        if not self.pe:
            return self
        return MultiPoly.of(_divided(self.pe, self.leading_coeff()))

    def derivative(self, name):
        return MultiPoly.of(self.pe.diff(self.vars.index(name)))

    # -- variable plumbing -----------------------------------------------------

    def with_vars(self, variables):
        """Re-read in a new variable tuple (superset/permutation of the old),
        the factor list factor by factor."""
        variables = tuple(variables)
        if variables == self.vars:
            return self
        idx = []
        for v, d in zip(self.vars, self.pe.degrees()):
            if d > 0 and v not in variables:
                raise ValueError(f"cannot drop effective variable {v}")
            idx.append(variables.index(v) if v in variables else None)

        def moved(pe):
            out = _ring(variables, pe.ring.domain).zero
            for e, c in pe.items():
                ne = [0] * len(variables)
                for i, exp in enumerate(e):
                    if exp:
                        ne[idx[i]] = exp
                out[tuple(ne)] = c
            return out

        return _listed(moved(self.pe), None if self.factors is None else
                       tuple((moved(f), k) for f, k in self.factors))

    def eval_at(self, values):
        """Full evaluation; values maps every effective variable to a coefficient."""
        point = [
            _coerce(values[v])[1] if v in values else None for v in self.vars
        ]
        total = QQ.zero
        for e, c in self.pe.items():
            for i, exp in enumerate(e):
                if exp:
                    if point[i] is None:
                        raise UndefinedVariable(self.vars[i])
                    c = c * point[i] ** exp
            total += c
        return total

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.pe == other.pe

    def __hash__(self):
        return hash((self.vars, self.pe))

    def __repr__(self):
        return f"MultiPoly({poly_str(self)!r})"


def _divided(pe, c):
    """pe / c, for a nonzero c of pe's domain, as one inverse and one
    mul_ground: quo_ground divides every coefficient, and QQ.quo wraps
    each quotient once more."""
    one = pe.ring.domain.one
    return pe if c == one else pe.mul_ground(one / c)


def _listed(pe, factors):
    """MultiPoly.of(pe), carrying the factor list `factors`."""
    p = MultiPoly.of(pe)
    p.factors = factors
    return p


def listed(p: MultiPoly) -> MultiPoly:
    """p carrying a factor list: its own, else p as its one factor."""
    return p if p.factors is not None else _listed(p.pe, ((p.pe, 1),))


def _canonical(pe):
    """pe, moved to QQ when its coefficients are all rational."""
    if pe.ring.domain.is_QQ or any(_rational(c) is None for c in pe.values()):
        return pe
    return pe.set_ring(_ring(_names(pe.ring)))


# --------------------------------------------------------------------------
# printing in the parser grammar


def _q_str(q):
    """A rational as p or p/q."""
    n, d = q.numerator, q.denominator
    return str(n) if d == 1 else f"{n}/{d}"


def _surd_str(a, b, r):
    """a + b*sqrt(r), for rationals a and b != 0 and a squarefree integer
    r != 0, 1, as sympy's str prints it, without spaces: sqrt(r), I or
    sqrt(-r)*I, times b as k*root/d, after a when r < 0.  When r > 0 the
    smaller of a and b*sqrt(r) comes first, unless a > 0 > b, which puts
    a first too (sympy's order of the terms of an Add)."""
    root = f"sqrt({r})" if r > 0 else "I" if r == -1 else f"sqrt({-r})*I"
    k, d = b.numerator, b.denominator
    body = root if abs(k) == 1 else f"{abs(k)}*{root}"
    if d != 1:
        body += f"/{d}"
    if not a:
        return "-" + body if k < 0 else body
    if r < 0 or a > 0 > k:
        a_first = True
    else:  # whether a < b*sqrt(r): a < 0 < b, or by squares for one sign
        a_first = a < 0 < k or (a * a < b * b * r) == (k > 0)
    if a_first:
        return _q_str(a) + ("-" if k < 0 else "+") + body
    return ("-" if k < 0 else "") + body + ("+" if a > 0 else "-") + _q_str(abs(a))


def _coeff_str(c):
    q = _rational(c)
    if q is not None:
        return _q_str(q)
    b, a = c.to_list()
    return _surd_str(a, b, _radicand(c))


def _sqrt_str(c):
    """sqrt(c), for a rational c, as _surd_str prints it."""
    q = _rational_sqrt(c)
    if q is not None:
        return _q_str(q)
    K, root = quadratic_field(c)
    return _surd_str(QQ.zero, root.to_list()[0], _radicand(K))


def poly_str(p: MultiPoly) -> str:
    """Canonical string in the input grammar (round-trippable)."""
    if not p.pe:
        return "0"
    out = []
    for e, c in p.sorted_terms():
        mono = "*".join(name if k == 1 else f"{name}^{k}"
                        for name, k in zip(p.vars, e) if k)
        q = _rational(c)
        if q is None:
            negative, body = False, f"({_coeff_str(c)})"
        else:
            negative, body = q < 0, _q_str(abs(q))
            if mono and body == "1":
                body = ""
        body = body + "*" + mono if body and mono else body or mono
        if out:
            out.append(" - " if negative else " + ")
        elif negative:
            out.append("-")
        out.append(body)
    return "".join(out)


# --------------------------------------------------------------------------
# exact kernels on sympy's sparse polynomial rings


def mgcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Greatest common divisor, normalized to graded-lex leading coefficient 1."""
    a._check_vars(b)
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    ra, rb = _common(a, b)
    return MultiPoly.of(ra.gcd(rb)).monic()


def factor_list(p: MultiPoly):
    """(constant, [(MultiPoly factor, multiplicity), ...]) with monic factors,
    deterministically sorted."""
    c, factors = p.pe.factor_list()
    out = []
    for f, m in factors:
        mp = MultiPoly.of(f)
        c *= mp.leading_coeff() ** m
        out.append((mp.monic(), m))
    out.sort(key=lambda fm: (fm[0].total_degree(), poly_str(fm[0])))
    return c, out


# the values a of the univariate images below: generator j goes to a + j
_PROBES = (0, 1, -1, 2, 3)

# the prime the images are taken mod: a repeated or common factor over QQ
# can be taken primitive, so its leading coefficient in y divides that of
# an image, and the factor survives mod _P whenever that coefficient does
_P = (1 << 31) - 1


def _image(pe, y, a):
    """The coefficients in generator y, highest first, of pe (over QQ) mod
    _P with every other generator j set to a + j; None, as not
    degree-preserving, when _P divides a coefficient's denominator or the
    image's leading coefficient."""
    deg = pe.degree(y)
    out = [0] * (deg + 1)
    for e, c in pe.items():
        d = c.denominator
        if d % _P == 0:
            return None
        v = c.numerator if d == 1 else c.numerator * pow(d, -1, _P)
        for j, k in enumerate(e):
            if k and j != y:
                v *= pow(a + j, k, _P)
        out[deg - e[y]] = (out[deg - e[y]] + v) % _P
    return out if out[0] else None


def _coprime_mod_p(f, g):
    """Whether f and g, dense over F_P, highest coefficient first and
    nonzero, have no common factor of positive degree (Euclid)."""
    while len(g) > 1:
        inv, f = pow(g[0], -1, _P), list(f)
        for k in range(len(f) - len(g) + 1):
            q = f[k] * inv % _P
            if q:
                for i in range(1, len(g)):
                    f[k + i] = (f[k + i] - q * g[i]) % _P
        r = f[max(len(f) - len(g) + 1, 0):]
        lead = next((i for i, c in enumerate(r) if c), None)
        if lead is None:
            return False
        f, g = g, r[lead:]
    return True


def _squarefree_mod_p(g):
    """Whether g, as in _coprime_mod_p, is coprime to its derivative."""
    n = len(g) - 1
    return _coprime_mod_p(g, [c * (n - i) % _P for i, c in enumerate(g[:-1])])


# the largest degree x coefficient bits of an image worth building: a
# sparse input of high degree, such as X^20000*Y - 1, has images that cost
# far more than sqf_list or cancel on the input itself
_IMAGE_CAP = 1 << 14


def _image_size(pe, y):
    """An upper bound on degree x coefficient bits of every image of pe in
    generator y taken over the integers, before reduction mod _P: a
    coefficient sums at most len(pe) integers, each a scaled coefficient
    times the probe values of the other generators."""
    probe = (max(map(abs, _PROBES)) + pe.ring.ngens).bit_length()
    den = lcm(*(c.denominator for c in pe.values()))
    bits = max((c.numerator * den).bit_length() + (sum(e) - e[y]) * probe
               for e, c in pe.items())
    return pe.degree(y) * (bits + len(pe).bit_length())


def _certified(pes, test):
    """Whether, for every generator that each of `pes` (elements of one
    ring over QQ) involves, some probe gives degree-preserving images of
    them all on which `test` holds.  False means undecided, and so does an
    image above _IMAGE_CAP."""
    for y in range(pes[0].ring.ngens):
        if any(pe.degree(y) < 1 for pe in pes):
            continue
        if any(_image_size(pe, y) > _IMAGE_CAP for pe in pes):
            return False
        for a in _PROBES:
            images = [_image(pe, y, a) for pe in pes]
            if None not in images and test(*images):
                break
        else:
            return False
    return True


def _squarefree_by_images(pe):
    """A certificate that pe, over QQ, is squarefree: if q^2 divides pe and
    q involves y, then q(y, a)^2 divides every degree-preserving image in
    y, so one squarefree image per variable rules every such q out."""
    return pe.ring.domain.is_QQ and _certified([pe], _squarefree_mod_p)


def _norm(pe):
    """a0^2 - r*a1^2 over QQ, for pe = a0 + a1*sqrt(r) over QQ(sqrt(r))."""
    parts = ({}, {})
    for e, c in pe.items():
        for part, q in zip(parts, reversed(c.to_list())):
            if q:
                part[e] = q
    a0, a1 = (_ring(_names(pe.ring)).from_dict(part) for part in parts)
    return a0 * a0 - (a1 * a1).mul_ground(QQ(_radicand(pe.ring.domain)))


def _coprime_by_images(a, b):
    """A certificate that gcd(a, b) = 1: a common factor involves a variable
    both involve, and it divides their degree-preserving images in it.
    Over QQ(sqrt(r)) the images are those of the norms: a common factor g
    of a and b makes N(g), of positive degree, a common factor of N(a) and
    N(b)."""
    if not a.ring.domain.is_QQ:
        a, b = _norm(a), _norm(b)
    return _certified([a, b], _coprime_mod_p)


def _monomial_divided(a, b):
    """a and b divided by their common monomial, the componentwise minimum
    of their exponents; None when that monomial is 1."""
    m = tuple(map(min, *a.itermonoms(), *b.itermonoms()))
    if not any(m):
        return None
    return tuple(p.new({tuple(x - y for x, y in zip(e, m)): c
                        for e, c in p.iterterms()}) for p in (a, b))


def _cancel(a, b):
    """a and b divided by their gcd, up to one constant factor, for a pair
    the images did not certify coprime.  Their common monomial is divided
    out first, and cancel runs only when the quotients are not certified
    coprime either."""
    divided = _monomial_divided(a, b)
    if divided:
        a, b = divided
        if a.is_ground or b.is_ground or _coprime_by_images(a, b):
            return a, b
    return a.cancel(b)


def _odd_part_of_factors(p):
    """LC(p) times the monic factors of odd exponent in p's factor list, its
    factors equal once made monic merged, listing those factors; None
    unless p and the list are over QQ and the images certify every factor
    of degree >= 2 squarefree and every pair of factors coprime."""
    ring = p.pe.ring
    if p.factors is None or not ring.domain.is_QQ:
        return None
    exponents = {}
    for f, k in p.factors:
        if f.ring is not ring:
            return None
        if not f.is_ground:
            f = _divided(f, f.LC)
            exponents[f] = exponents.get(f, 0) + k
    fs = list(exponents)
    if not all(max(map(sum, f.itermonoms())) < 2 or _squarefree_by_images(f)
               for f in fs):
        return None
    if not all(_coprime_by_images(f, g)
               for i, f in enumerate(fs) for g in fs[i + 1:]):
        return None
    odd = tuple((f, 1) for f, k in exponents.items() if k % 2)
    out = ring.ground_new(p.pe.LC)
    for f, _k in odd:
        out *= f
    return _listed(out, odd)


def squarefree_part(p: MultiPoly) -> MultiPoly:
    """The squarefree f with p = f * h^2 exactly (h polynomial).

    The constant factor is carried along so that p and f differ by a genuine
    polynomial square: a witness verified against f is then automatically a
    witness for p.  f is LC(p), p's leading coefficient in lex order, times
    the lex-monic irreducible factors of odd multiplicity, a deterministic
    representative of p modulo square multiples.

    Certification order: a p that the images certify squarefree is f
    itself, with p's factor list.  Otherwise, when p carries a factor list
    over QQ whose factors, once merged, are certified squarefree and
    pairwise coprime, each irreducible factor of p divides one of them
    exactly once, so f is LC(p) times the monic factors of odd exponent,
    and those factors are its list.  Otherwise sqf_list decomposes p, and
    f carries no list.
    """
    if p.is_zero():
        raise ZeroRadicand("squarefree part of zero is undefined")
    if p.is_constant() or _squarefree_by_images(p.pe):
        return p
    out = _odd_part_of_factors(p)
    if out is not None:
        return out
    const, factors = p.pe.sqf_list()
    out = p.pe.ring(const)
    for f, m in factors:
        if m % 2 == 1:
            out *= f
    return MultiPoly.of(out)


def radicand_reduce(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Squarefree polynomial whose square root is equivalent to sqrt(p/q).

    Multiplying by the square of the denominator and stripping even powers
    preserves rationalizability in both directions.  A denominator 1 is
    not multiplied in, so p keeps its factor list; otherwise p*q is listed
    as p's list, or p, followed by q's list, or q (see :func:`listed`).
    """
    if p.is_zero():
        raise ZeroRadicand("sqrt(0) is trivially rational")
    if q.is_zero():
        raise ZeroDenominator("denominator polynomial is zero")
    p._check_vars(q)
    if q.is_constant() and q.constant_value() == 1:
        return squarefree_part(p)
    return squarefree_part(listed(p) * listed(q))


def effective_vars(f: MultiPoly):
    return [v for v, d in zip(f.vars, f.pe.degrees()) if d > 0]


def on_effective_vars(f: MultiPoly) -> MultiPoly:
    """f read over its effective variables; a constant keeps its ring."""
    return f.with_vars(tuple(effective_vars(f)) or f.vars)


def is_homogeneous(f: MultiPoly):
    """Total degree if all terms share it, else None."""
    if f.is_zero():
        raise ZeroRadicand("homogeneity of zero is undefined")
    degs = {sum(e) for e in f.pe.itermonoms()}
    return degs.pop() if len(degs) == 1 else None


def homogenize(f: MultiPoly, new_var: str) -> MultiPoly:
    """Homogenize with a fresh variable, prepended to the variable tuple."""
    if new_var in f.vars:
        raise ValueError(f"{new_var} already occurs")
    d = f.total_degree()
    variables = (new_var,) + f.vars
    out = _ring(variables, f.pe.ring.domain).zero
    for e, c in f.pe.items():
        out[(d - sum(e),) + e] = c
    return MultiPoly.of(out)


def dehomogenize(f: MultiPoly, var: str) -> MultiPoly:
    """Set `var` to 1 in a squarefree form f of even total degree, by
    dropping its exponent: in a form the other exponents determine it, so
    no two terms merge, and a nonzero f stays nonzero.

    For even degree the square roots of f and of the result are
    rationalizable together; no such equivalence is available for odd degree,
    so that case is rejected.  A factor list is mapped factor by factor,
    as each factor of a form is a form.  The result is squarefree, as f
    is: write f = var^m * g~ with var not dividing g~, so that g~ is the
    homogenization of the result, and homogenization is multiplicative, so
    a square q^2 dividing the result would put the square of q's
    homogenization into f.
    """
    d = is_homogeneous(f)
    if d is None:
        raise ValueError("input is not homogeneous")
    if d % 2 == 1:
        raise OddDegree("dehomogenization equivalence requires even total degree")
    if var not in f.vars:
        raise ValueError(f"{var} is not a variable of the ring")
    i = f.vars.index(var)
    # a univariate form keeps its variable, so that the ring is not empty
    variables = f.vars[:i] + f.vars[i + 1:] or (var,)

    def dropped(pe):
        return _ring(variables, pe.ring.domain).from_dict(
            {e[:i] + e[i + 1:] or (0,): c for e, c in pe.items()})

    return _listed(dropped(f.pe), None if f.factors is None else
                   tuple((dropped(g), k) for g, k in f.factors))


# --------------------------------------------------------------------------
# rational functions


class RationalFunction:
    """Reduced fraction of MultiPoly; denominator graded-lex monic.
    Immutable: its text, once rf_str has printed it, is kept."""

    __slots__ = ("num", "den", "_text")

    def __init__(self, num: MultiPoly, den: MultiPoly, reduce=True):
        num._check_vars(den)
        if den.is_zero():
            raise ZeroDenominator("rational function with zero denominator")
        # a constant on either side leaves nothing to cancel, and neither
        # does a certified coprime pair: cancel would only rescale them,
        # which the monic normalization below undoes
        if reduce and not num.is_constant() and not den.is_constant():
            rn, rd = _common(num, den)
            if not _coprime_by_images(rn, rd):
                num, den = map(MultiPoly.of, _cancel(rn, rd))
        if num.is_zero():
            den = MultiPoly.const(den.vars, 1)
        lc = den.leading_coeff()
        one = den.pe.ring.domain.one
        if lc != one:
            num = num * (one / lc)
            den = den.monic()
        self.num = num
        self.den = den
        self._text = None

    @classmethod
    def from_poly(cls, p: MultiPoly):
        return cls(p, MultiPoly.const(p.vars, 1), reduce=False)

    @property
    def vars(self):
        return self.num.vars

    def is_constant(self):
        return self.num.is_constant() and self.den.is_constant()

    def __mul__(self, other):
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.num.is_zero():
            raise ZeroDenominator("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFunction({rf_str(self)!r})"


def rf_str(g: RationalFunction) -> str:
    if g._text is None:
        if g.den.is_constant() and g.den.constant_value() == 1:
            g._text = poly_str(g.num)
        else:
            g._text = f"({poly_str(g.num)})/({poly_str(g.den)})"
    return g._text


# --------------------------------------------------------------------------
# substitution maps


class RationalMap:
    """Assignment of one rational function to each source variable.

    `extension` optionally records the rational c whose square root
    generates the coefficient field QQ(sqrt(c)) of the assignments; it is
    serialized as sqrt(c).
    """

    __slots__ = ("source_vars", "assignments", "extension")

    def __init__(self, source_vars, assignments, extension=None):
        self.source_vars = tuple(source_vars)
        self.assignments = dict(assignments)
        self.extension = None if extension is None else _qq(extension)
        for v, g in self.assignments.items():
            if not isinstance(g, RationalFunction):
                raise TypeError(f"assignment for {v} is not a RationalFunction")

    @classmethod
    def identity(cls, variables):
        variables = tuple(variables)
        return cls(
            variables,
            {
                v: RationalFunction.from_poly(MultiPoly.var(variables, v))
                for v in variables
            },
        )

    def is_nonconstant(self):
        return any(not g.is_constant() for g in self.assignments.values())

    def __eq__(self, other):
        if not isinstance(other, RationalMap):
            return NotImplemented
        return (
            self.source_vars == other.source_vars
            and self.assignments == other.assignments
        )

    def __repr__(self):
        body = ", ".join(
            f"{v} -> {rf_str(g)}" for v, g in sorted(self.assignments.items())
        )
        return f"RationalMap({body})"

    def to_json(self):
        out = {
            "variables": list(self.source_vars),
            "assignments": {
                v: rf_str(g) for v, g in sorted(self.assignments.items())
            },
        }
        # without a recorded extension, irrational coefficients name their
        # field QQ(sqrt(r)), so that the document can be read back
        ext = self.extension
        if ext is None:
            ext = next((_radicand(P.pe.ring.domain)
                        for g in self.assignments.values()
                        for P in (g.num, g.den)
                        if not P.coefficients_rational()), None)
        if ext is not None:
            out["extension"] = _sqrt_str(ext)
        return out


def substitute(f: MultiPoly, m: RationalMap) -> RationalFunction:
    """Image of f under the homomorphism defined by m, in lowest terms.

    Variables whose images share a denominator d form one group G; with
    D_G the total degree of f in G, each term is multiplied by
    d^(D_G - |e|_G), so d^D_G, not a power of d per variable, is cleared.
    A term is the product of the nonzero powers it needs, scaled by its
    coefficient with one mul_ground.
    """
    needed = effective_vars(f)
    for v in needed:
        if v not in m.assignments:
            raise UndefinedVariable(f"no assignment for effective variable {v}")
    if not needed:
        return RationalFunction.from_poly(
            MultiPoly.const(m.source_vars or f.vars, f.constant_value())
        )
    target_vars = m.assignments[needed[0]].vars
    idx = [f.vars.index(v) for v in needed]
    parts = [m.assignments[v].num.with_vars(target_vars) for v in needed]
    parts += [m.assignments[v].den.with_vars(target_vars) for v in needed]
    # f's coefficients enter the ring of the images
    *ring_parts, coeffs = _common(*parts, f)
    ring = ring_parts[0].ring
    k = len(needed)
    nums = ring_parts[:k]
    dens, group = [], []
    for d in ring_parts[k:]:
        if d not in dens:
            dens.append(d)
        group.append(dens.index(d))
    # x_v = n_v/d_G: |e|_G is the degree of a term in G, D_G its maximum
    sizes = [[0] * len(dens) for _e in coeffs]
    for e, size in zip(coeffs, sizes):
        for j, i in enumerate(idx):
            size[group[j]] += e[i]
    tops = [max(col) for col in zip(*sizes)]
    num_pows = [[g**j for j in range(f.degree_in(v) + 1)]
                for g, v in zip(nums, needed)]
    den_pows = [[d**j for j in range(top + 1)] for d, top in zip(dens, tops)]
    total_num = ring.zero
    for (e, c), size in zip(coeffs.items(), sizes):
        # never empty: a term free of G's variables takes d^D_G, D_G >= 1
        powers = [num_pows[j][e[i]] for j, i in enumerate(idx) if e[i]]
        powers += [den_pows[G][top - size[G]] for G, top in enumerate(tops)
                   if top > size[G]]
        total_num += reduce(mul, powers).mul_ground(c)
    total_den = ring.one
    for G, top in enumerate(tops):
        total_den *= den_pows[G][top]
    return RationalFunction(MultiPoly.of(total_num), MultiPoly.of(total_den))


# --------------------------------------------------------------------------
# perfect-square testing


def _rational_sqrt(c):
    """Exact square root in QQ of a rational c, or None."""
    if c < 0:
        return None
    p, q = isqrt(c.numerator), isqrt(c.denominator)
    if p * p == c.numerator and q * q == c.denominator:
        return QQ(p, q)
    return None


def _field_sqrt(c, K):
    """A square root of c within K (QQ or QQ(theta), theta^2 = r), or None."""
    q = _rational(c)
    if q is not None:
        p = _rational_sqrt(q)
        if p is not None or K.is_QQ:
            return p
        # c = r*t^2 = (t*theta)^2
        t = _rational_sqrt(q / _radicand(K))
        return None if t is None else K([t, QQ.zero])
    # (p + t*theta)^2 = p^2 + r t^2 + 2pt theta
    b, a = c.to_list()
    disc = _rational_sqrt(a * a - _radicand(K) * b * b)
    if disc is None:
        return None
    for p2 in ((a + disc) / 2, (a - disc) / 2):
        p = _rational_sqrt(p2)
        if p:
            return K([b / (2 * p), p])
    return None


def _sign_normalize(h: RationalFunction) -> RationalFunction:
    """Of h and -h, the one whose leading coefficient a + b*theta has a > 0,
    or a = 0 and b > 0."""
    lc = h.num.leading_coeff()
    rep = lc.to_list() if isinstance(lc, ANP) else [lc]
    if (rep[-1] if rep[-1] else rep[0]) < 0:
        return RationalFunction(-h.num, h.den, reduce=False)
    return h


def _monic_sqrt(p):
    """The lex-monic s with s^2 = p, for a lex-monic ring element p, or
    None.  Root terms come in lex order: the next one is t = LT(r)/(2*LT(s))
    for the remainder r = p - s^2, and must stay inside the box of half
    p's degree in each variable; None also when p's leading exponent is odd
    or LT(s) does not divide LT(r).  r and s are plain dicts of terms, and
    r -= (2*s + t)*t touches at most |s| + 1 of r's entries; LT(s) stays
    the first root term, since every later one is lex-smaller."""
    lead = p.LM
    if any(e % 2 for e in lead):
        return None
    box = [d // 2 for d in p.degrees()]
    top = tuple(e // 2 for e in lead)
    zero = p.ring.domain.zero
    s = {top: p.ring.domain.one}
    r = dict(p.iterterms())
    del r[lead]
    while r:
        lm = max(r)
        m = tuple(map(sub, lm, top))
        if any(e < 0 or e > b for e, b in zip(m, box)):
            return None
        c = r[lm] / 2
        c2 = c + c
        update = [(tuple(map(add, e, m)), a * c2) for e, a in s.items()]
        update.append((tuple(map(add, m, m)), c * c))
        for e, a in update:
            v = r.get(e, zero) - a
            if v:
                r[e] = v
            else:
                del r[e]
        s[m] = c
    return p.new(s)


def is_perfect_square(g: RationalFunction, extension=None):
    """Return h with h^2 = g when it exists, else None.

    g = N/D is reduced, so it is a square iff N = a * s_N^2 and
    D = b * s_D^2 with s_N, s_D lex-monic and a/b a square c^2 of the
    coefficient field; then h = c * s_N / s_D, already in lowest terms.
    The roots s_N, s_D are taken exactly, term by term (_monic_sqrt).
    `extension` is the rational c of the map g came from: the constant may
    be a square only in QQ(sqrt(c)), as -7 = sqrt(-7)^2.
    """
    if g.num.is_zero():
        return RationalFunction.from_poly(MultiPoly.zero(g.vars))
    num, den = _common(g.num, g.den)
    K = num.ring.domain
    if K.is_QQ and extension is not None:
        K = quadratic_field(extension)[0]
    s_num = _monic_sqrt(_divided(num, num.LC))
    s_den = None if s_num is None else _monic_sqrt(_divided(den, den.LC))
    if s_den is None:
        return None
    root_c = _field_sqrt(num.LC / den.LC, K)
    if root_c is None:
        return None
    h = RationalFunction(MultiPoly.of(s_num) * root_c, MultiPoly.of(s_den),
                         reduce=False)
    return _sign_normalize(h)
