"""Number-field towers of height at most two, with exact arithmetic.

Algebraic numbers enter this package only as coordinates of singular points
of plane curves: an x-coordinate algebraic over the rationals and, above it,
a y-coordinate algebraic over that first extension.  A tower of height two
is therefore all we ever need; asking for more raises
:class:`~ratsqrt.errors.TowerTooDeep`.

Representation.  A field is None for the rationals, whose elements are
sympy's QQ elements, or a :class:`NumberField`, which stores, per level, a
generator name and a monic irreducible minimal polynomial over the level
below, an exponent dict as in :mod:`ratsqrt.unipoly`
(:meth:`NumberField.describe` gives the dense coefficient lists that
reports print).  An element, :class:`NFElem`, is a flat tuple of integer
coordinates on the basis a^i b^j of the whole tower, i running fastest,
over one positive common denominator, in lowest terms (H. Cohen, *A Course
in Computational Algebraic Number Theory*, sections 2.2 and 4.2), so
equality is a tuple compare, an element of the level below is a zero-padded
prefix and :meth:`NumberField.lift` is padding.  Each field builds once an
integer table of the products of its basis elements, over one denominator;
a product of two elements reads that table and takes one gcd at the end,
and an inverse solves x*y = 1 on the integer matrix of multiplication by
x, fraction-free (Bareiss).  The rational coordinates are
:attr:`NFElem.vec`; the tower-shaped view that reports and sort keys read,
the trimmed coefficient tuple over the level below, is :attr:`NFElem.rep`.
An element combines with ints, QQ elements and elements of its own field
through ordinary operators, so the generic routines of
:mod:`ratsqrt.unipoly` and :mod:`ratsqrt.localanalysis` take no field
argument.  Zero testing is canonical: zero is the all-zero vector over 1.
An element with a rational value hashes as that rational, as it also
compares equal to it and to any element of another field with that value,
and unequal to an irrational element of another field.  Two irrational
elements of two fields, like arithmetic across fields, raise ValueError:
lift one first.

Splitting a squarefree polynomial g over a height-one field follows
Trager's norm method.  Over a quadratic field QQ(a), one Euclid over the
field splits g into two parts.  Its conjugation-invariant part
q = gcd(g, gbar) has rational coefficients and factors over the
rationals; a rational quadratic factor then splits exactly when its
discriminant is a square in the field.  The rest, h = g/q, has the
squarefree norm h*hbar, whose rational factors pull back to the factors
of h with one gcd each, with no resultant and no shift.  Over a field of
higher degree, and for a rational factor of q of even degree >= 4, the
norm is a resultant, after a shift that makes it squarefree, factored on
sympy's sparse ring QQ[x, y] and pulled back with gcds over the field.
"""

from __future__ import annotations

from math import gcd, lcm

from sympy.polys.domains import QQ

from . import unipoly as up
from .errors import TowerTooDeep, ZeroInversion
from .mpoly import _qq, _rational_sqrt, _ring

MAX_HEIGHT = 2


def field_zero(field):
    return QQ.zero if field is None else field.zero()


def field_one(field):
    return QQ.one if field is None else field.one()


def field_coerce(field, c):
    """A rational or a lower-level element as an element of `field`."""
    return _qq(c) if field is None else field.lift(c)


class NumberField:
    """A tower QQ(a) or QQ(a)(b); QQ itself is None."""

    def __init__(self, base, gen_name, minpoly):
        if base is not None and base.height >= MAX_HEIGHT:
            raise TowerTooDeep("number-field towers are capped at height 2")
        n = up.deg(minpoly)
        if n < 2:
            raise ValueError("minimal polynomial must have degree >= 2")
        if minpoly[(n,)] != 1:
            raise ValueError("minimal polynomial must be monic")
        self.base = base  # None means the rationals
        self.gen_name = gen_name
        self.minpoly = {e: field_coerce(base, c) for e, c in minpoly.items()}
        self.height = 1 if base is None else base.height + 1
        m = 1 if base is None else base.degree
        self.degree = m * n
        self.units = [tuple(int(r == k) for r in range(self.degree))
                      for k in range(self.degree)]
        # basis element a^i b^j, index i + m*j, as a monomial over the level
        # below; the table lists (k, l, r, c) when the product of basis
        # elements k and l, times the denominator tden, has c at index r
        lower = [QQ.one] if base is None else [_lowest(base, u, 1) for u in base.units]
        basis = [{(j,): c} for j in range(n) for c in lower]
        table = [(k, l, m * j + i, c) for k, p in enumerate(basis)
                 for l, q in enumerate(basis)
                 for (j,), e in up.rem(up.mul(p, q), self.minpoly).items()
                 for i, c in enumerate((e,) if base is None else e.vec) if c]
        self.tden = lcm(*(c.denominator for *_, c in table))
        self.table = [(k, l, r, int(c * self.tden)) for k, l, r, c in table]

    # -- element construction -------------------------------------------

    def zero(self):
        return _lowest(self, (0,) * self.degree, 1)

    def one(self):
        return _lowest(self, self.units[0], 1)

    def from_rational(self, c):
        c = _qq(c)
        return _lowest(self, (c.numerator,) + (0,) * (self.degree - 1), c.denominator)

    def gen(self):
        return _lowest(self, self.units[1 if self.base is None else self.base.degree], 1)

    def lift(self, e):
        """Coerce an element of a lower level (or a rational) into this field."""
        if isinstance(e, NFElem):
            if e.field is self:
                return e
            if self.base is not None and e.field is self.base:
                return _lowest(self, e.num + (0,) * (self.degree - len(e.num)), e.den)
            raise ValueError("element does not belong to this tower")
        return self.from_rational(e)

    def absolute_degree(self):
        return self.degree

    def describe(self):
        """Human-readable tower description, deterministic: per level, the
        generator name and the dense coefficient list of its minimal
        polynomial, lowest degree first."""
        levels = []
        f = self
        while f is not None:
            zero = field_zero(f.base)
            levels.append((f.gen_name, [f.minpoly.get((i,), zero)
                                        for i in range(up.deg(f.minpoly) + 1)]))
            f = f.base
        levels.reverse()
        return levels

    def __repr__(self):
        names = [g for g, _ in self.describe()]
        return f"NumberField(QQ({', '.join(names)}))"


def _lowest(field, num, den):
    """The element num/den of `field`, den > 0, brought to lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
    e = object.__new__(NFElem)
    e.field, e.num, e.den = field, tuple(num), den
    return e


class NFElem:
    """Element of a NumberField: integer coordinates `num` on the basis
    a^i b^j over the positive denominator `den`, in lowest terms;
    immutable once built."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, vec):
        """The element with the rational coordinates `vec`."""
        vec = [_qq(c) for c in vec]
        den = lcm(*(c.denominator for c in vec))
        self.field, self.den = field, den
        self.num = tuple(c.numerator * (den // c.denominator) for c in vec)

    @property
    def vec(self):
        """The QQ coordinates on the basis a^i b^j."""
        return tuple(QQ(x, self.den) for x in self.num)

    @property
    def rep(self):
        """The trimmed coefficient tuple over the level below."""
        base = self.field.base
        if base is None:
            coeffs = list(self.vec)
        else:
            m = base.degree
            coeffs = [_lowest(base, self.num[j:j + m], self.den)
                      for j in range(0, self.field.degree, m)]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return tuple(coeffs)

    # -- coercion --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, NFElem):
            if other.field is self.field:
                return other
            raise ValueError("elements of different number fields; lift"
                             " the lower one with NumberField.lift")
        if isinstance(other, (int, QQ.dtype)):
            return self.field.from_rational(other)
        return NotImplemented

    # -- ring operations --------------------------------------------------

    def _plus(self, other, sign):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self.den, o.den
        return _lowest(self.field,
                       [x * b + sign * y * a for x, y in zip(self.num, o.num)],
                       a * b)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _lowest(self.field, [-x for x in self.num], self.den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, NFElem):
            f = self._coerce(other).field
            return _lowest(f, _times(f.table, self.num, other.num),
                           self.den * other.den * f.tden)
        if isinstance(other, (int, QQ.dtype)):
            p = other.numerator
            return _lowest(self.field, [x * p for x in self.num],
                           self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self):
        """Solve self*y = 1 on the integers.  Column k of the matrix M is
        _times(table, num, e_k), tden times num*e_k, so y = den*tden*x for
        M x = e_0.  Bareiss's fraction-free elimination makes M upper
        triangular with +-det(M) last on its diagonal, or finds a column
        without a pivot when self is zero or a zero divisor; the
        back-substitution then gives the integers det(M)*x (Cramer's rule),
        one exact division each."""
        field, n = self.field, self.field.degree
        cols = [_times(field.table, self.num, e) for e in field.units]
        rows = [[col[i] for col in cols] + [int(i == 0)] for i in range(n)]
        prev = 1
        for k in range(n):
            p = next((i for i in range(k, n) if rows[i][k]), None)
            if p is None:
                raise ZeroInversion("element is zero or a zero divisor"
                                    " (minpoly not irreducible?)")
            rows[k], rows[p] = rows[p], rows[k]
            top = rows[k]
            for i in range(k + 1, n):
                row = rows[i]
                rows[i] = [0] * (k + 1) + [
                    (top[k] * row[j] - row[k] * top[j]) // prev
                    for j in range(k + 1, n + 1)]
            prev = top[k]
        det, x = prev, [0] * n
        for i in reversed(range(n)):
            row = rows[i]
            rest = sum(row[j] * x[j] for j in range(i + 1, n))
            x[i] = (det * row[n] - rest) // row[i]
        if det < 0:
            det, x = -det, [-v for v in x]
        scale = self.den * field.tden
        return _lowest(field, [v * scale for v in x], det)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates --------------------------------------------------------

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, NFElem) and other.field is not self.field:
            # across fields a rational value meets only its own value, as
            # in __hash__; two irrational elements need a lift, as in
            # arithmetic, and _coerce raises
            if any(self.num[1:]) and any(other.num[1:]):
                self._coerce(other)
            return (not any(self.num[1:]) and not any(other.num[1:])
                    and (self.num[0], self.den) == (other.num[0], other.den))
        if isinstance(other, (int, QQ.dtype, NFElem)):
            o = self._coerce(other)
            return self.num == o.num and self.den == o.den
        return NotImplemented

    def __hash__(self):
        if any(self.num[1:]):
            return hash((id(self.field), self.num, self.den))
        return hash(QQ(self.num[0], self.den))

    def __repr__(self):
        return f"NFElem({self.field.gen_name}: {self.rep})"


def coordinate_bits(c):
    """The bit length of the largest numerator or denominator among the
    coordinates of a rational or a tower element."""
    parts = c.num + (c.den,) if isinstance(c, NFElem) else (c.numerator, c.denominator)
    return max(abs(x) for x in parts).bit_length()


def _times(table, x, y):
    """Product of two integer coordinate vectors through a multiplication
    table."""
    out = [0] * len(x)
    for k, l, r, c in table:
        out[r] += x[k] * y[l] * c
    return out


# --------------------------------------------------------------------------
# splitting over a height-one field


def factor_over_height1(field: NumberField, poly):
    """Split a monic squarefree polynomial over a height-one field.

    `poly` is a univariate exponent dict with NFElem coefficients over
    `field` (monic, squarefree).  Returns a list of monic irreducible factors
    (exponent dicts), sorted by degree and then by the dense tuple of their
    coefficients.  Raises TowerTooDeep if `field` is not height one.
    """
    if field.height != 1:
        raise TowerTooDeep("norm factorization implemented for height-one fields")
    poly = {e: field.lift(c) for e, c in poly.items()}
    if up.deg(poly) <= 1:
        return [poly]
    if field.degree == 2:
        factors = _split_over_quadratic(field, poly)
    else:
        factors = _split_by_norm(field, poly)
    total = {(0,): field.one()}
    for f in factors:
        total = up.mul(total, f)
    if total != poly:
        raise AssertionError("norm factorization lost a factor")
    factors.sort(key=lambda f: (up.deg(f), tuple(
        f[(i,)].rep if (i,) in f else () for i in range(up.deg(f) + 1))))
    return factors


def _split_over_quadratic(field, g):
    """The monic irreducible factors of g over K = QQ(a), a^2 + p*a + c = 0,
    from its conjugation-invariant part q = gcd(g, gbar) and h = g/q, the
    bar mapping a to its conjugate -p - a.

    q has rational coefficients, and factor_rational splits it.  The
    factors over K of an irreducible rational polynomial are conjugate, of
    one degree, and number 1 or 2, so one of odd degree stays irreducible.
    A rational quadratic with discriminant e splits over K exactly when
    e*D is a rational square, D = p^2 - 4c, its roots written through
    sqrt(D) = 2a + p; one of even degree >= 4 takes the norm route.  h
    shares no factor with hbar, which would divide q and h, and then g
    twice; so its norm h*hbar is squarefree and, by Trager's theorem, the
    gcds of h with the rational factors of its norm are its factors, with
    no resultant and no shift."""
    p = field.minpoly.get((1,), QQ.zero)
    D = p * p - 4 * field.minpoly.get((0,), QQ.zero)
    sqrt_D = field.gen() * 2 + p
    abar = -sqrt_D + field.gen()

    def bar(P):
        return {e: c.vec[0] + c.vec[1] * abar for e, c in P.items()}

    q = up.gcd(g, bar(g))
    h = up.divmod_poly(g, q)[0]
    factors = []
    for f, _m in _rational_factors(q):
        n, b = up.deg(f), f.get((1,), QQ.zero)
        s = _rational_sqrt((b * b - 4 * f.get((0,), QQ.zero)) * D) if n == 2 else None
        if s is not None:
            root = sqrt_D * (s / D)
            factors += [{(0,): (b + sign * root) * QQ(1, 2), (1,): field.one()}
                        for sign in (1, -1)]
        elif n <= 2 or n % 2:
            factors.append(_over(field, f))
        else:
            factors += _split_by_norm(field, _over(field, f))
    if up.deg(h) == 1:
        factors.append(h)
    elif up.deg(h) > 1:
        for f, _m in _rational_factors(up.mul(h, bar(h))):
            f = up.gcd(h, _over(field, f))
            if up.deg(f) >= 1:
                factors.append(f)
    return factors


def _over(field, f):
    """A polynomial over QQ as one over `field`."""
    return {e: field.from_rational(c) for e, c in f.items()}


def _rational_factors(p):
    """factor_rational's factors of p, whose coefficients over a height-one
    field have rational values."""
    return up.factor_rational({e: c.vec[0] for e, c in p.items()})[1]


def _split_by_norm(field, poly):
    """The factors of `poly` by Trager's norm method: push the problem down
    to the rationals with a resultant, after a shift y -> y - s*a that
    makes it squarefree, factor there (both on sympy's sparse ring
    QQ[x, y]), and pull the factors back with gcds over the field."""
    # QQ[x, y] with x first, so the resultant eliminates the generator x
    ring = _ring(("x", "y"))
    x, y = ring.gens
    m = ring.from_dict({(i, 0): c for (i,), c in field.minpoly.items()})
    G = ring.from_dict({(i, k): c for (k,), e in poly.items()
                        for i, c in enumerate(e.rep) if c})
    for s in range(0, 40):
        # G_s(x, y) = poly with the generator replaced by x and y -> y - s*x
        norm = m.resultant(G.compose(y, y - s * x))
        if norm.gcd(norm.diff(norm.ring.gens[0])).degree() == 0:
            break
    else:  # pragma: no cover - shift always found at desk scale
        raise TowerTooDeep("no squarefree norm shift found")
    _, rat_factors = norm.factor_list()
    factors = []
    shift = (field.gen() * s,)
    for nf_poly, _m in rat_factors:
        # n_i(y + s*alpha) over the field
        comp = up.translate(_over(field, nf_poly), shift)
        g = up.gcd(poly, comp)
        if up.deg(g) >= 1:
            factors.append(g)
    return factors


def elem_str(e):
    """Deterministic human-readable form of a rational or NFElem."""
    if not isinstance(e, NFElem):
        return str(e)
    gen = e.field.gen_name
    parts = []
    for i, c in enumerate(e.rep):
        cs = elem_str(c)
        if cs == "0":
            continue
        if i == 0:
            parts.append(cs)
        else:
            head = gen if i == 1 else f"{gen}^{i}"
            if cs == "1":
                parts.append(head)
            elif "+" in cs or cs.startswith("-"):
                parts.append(f"({cs})*{head}")
            else:
                parts.append(f"{cs}*{head}")
    return " + ".join(parts) if parts else "0"


def roots_in_field(field, poly):
    """Roots of `poly` lying in `field` (height <= 1), via linear factors."""
    if field is None:
        return up.rational_roots(poly) if poly else []
    return [-f.get((0,), field.zero()) / f[(1,)]
            for f in factor_over_height1(field, poly) if up.deg(f) == 1]
