"""Number-field towers of height at most two, with exact arithmetic.

Algebraic numbers enter this package only as coordinates of singular points
of plane curves: an x-coordinate algebraic over the rationals and, above it,
a y-coordinate algebraic over that first extension.  A tower of height two
is therefore all we ever need; asking for more raises
:class:`~ratsqrt.errors.TowerTooDeep`.

Representation.  A field is None for the rationals, whose elements are
sympy's QQ elements, or a :class:`NumberField`, which stores, per level, a
generator name and a monic irreducible minimal polynomial over the level
below (coefficient lists as in :mod:`ratsqrt.unipoly`).  An element is a
dense coefficient list over the level below, reduced modulo the minimal
polynomial, wrapped in :class:`NFElem`.  An element combines with ints,
QQ elements and elements of its own field through ordinary operators (an
element of the level below is lifted first, with :meth:`NumberField.lift`),
so the generic routines of :mod:`ratsqrt.unipoly` and
:mod:`ratsqrt.localanalysis` take no field argument.  Zero testing is
canonical: the reduced representation of zero is the all-zero list.

Splitting a polynomial over a height-one field uses Trager's norm method:
push the problem down to the rationals with a resultant, factor there (both
on sympy's sparse ring QQ[x, y]), and pull the factors back with gcds over
the extension.
"""

from __future__ import annotations

from sympy.polys.domains import QQ

from . import unipoly as up
from .errors import TowerTooDeep, ZeroInversion
from .mpoly import _qq, _ring

MAX_HEIGHT = 2


def field_zero(field):
    return QQ.zero if field is None else field.zero()


def field_one(field):
    return QQ.one if field is None else field.one()


def field_coerce(field, c):
    """A rational or a lower-level element as an element of `field`."""
    return _qq(c) if field is None else field.lift(c)


class NumberField:
    """A tower QQ ( = height 0) or QQ(a) or QQ(a)(b)."""

    def __init__(self, base, gen_name, minpoly):
        if base is not None and base.height >= MAX_HEIGHT:
            raise TowerTooDeep("number-field towers are capped at height 2")
        if len(minpoly) < 3:
            raise ValueError("minimal polynomial must have degree >= 2")
        if minpoly[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        self.base = base  # None means the rationals
        self.gen_name = gen_name
        self.minpoly = [field_coerce(base, c) for c in minpoly]
        self.top_degree = up.deg(minpoly)
        self.height = 1 if base is None else base.height + 1

    # -- element construction -------------------------------------------

    def zero(self):
        return NFElem(self, [])

    def one(self):
        return NFElem(self, [field_one(self.base)])

    def from_rational(self, c):
        c = _qq(c)
        if not c:
            return self.zero()
        return NFElem(self, [field_coerce(self.base, c)])

    def gen(self):
        return NFElem(self, [field_zero(self.base), field_one(self.base)])

    def lift(self, e):
        """Coerce an element of a lower level (or a rational) into this field."""
        if isinstance(e, NFElem):
            if e.field is self:
                return e
            if self.base is not None and e.field is self.base:
                return NFElem(self, [e])
            raise ValueError("element does not belong to this tower")
        return self.from_rational(e)

    def absolute_degree(self):
        d = self.top_degree
        return d if self.base is None else d * self.base.absolute_degree()

    def describe(self):
        """Human-readable tower description, deterministic."""
        levels = []
        f = self
        while f is not None:
            levels.append((f.gen_name, list(f.minpoly)))
            f = f.base
        levels.reverse()
        return levels

    def __repr__(self):
        names = [g for g, _ in self.describe()]
        return f"NumberField(QQ({', '.join(names)}))"


class NFElem:
    """Element of a NumberField; immutable once built."""

    __slots__ = ("field", "rep")

    def __init__(self, field, rep):
        self.field = field
        self.rep = tuple(up.trim(list(rep)))

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

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return NFElem(self.field, up.add(list(self.rep), list(o.rep)))

    __radd__ = __add__

    def __neg__(self):
        return NFElem(self.field, up.neg(list(self.rep)))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        prod = up.mul(list(self.rep), list(o.rep))
        return NFElem(self.field, up.rem(prod, self.field.minpoly))

    __rmul__ = __mul__

    def inverse(self):
        if not self.rep:
            raise ZeroInversion("cannot invert zero in a number field")
        g, s, _t = up.gcdex(list(self.rep), self.field.minpoly)
        if up.deg(g) != 0:
            raise ZeroInversion("element is a zero divisor (minpoly not irreducible?)")
        # g is monic, so s * rep = 1 modulo the minimal polynomial
        return NFElem(self.field, up.rem(s, self.field.minpoly))

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
        return bool(self.rep)

    def __eq__(self, other):
        if isinstance(other, (int, QQ.dtype, NFElem)):
            o = self._coerce(other)
            if o is NotImplemented:
                return NotImplemented
            return self.rep == o.rep
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.rep))

    def __repr__(self):
        return f"NFElem({self.field.gen_name}: {self.rep})"


# --------------------------------------------------------------------------
# Trager norm-based splitting over a height-one field


def factor_over_height1(field: NumberField, poly):
    """Split a monic squarefree polynomial over a height-one field.

    `poly` is a coefficient list of NFElem over `field` (monic, squarefree).
    Returns a list of monic irreducible factors (coefficient lists), sorted
    deterministically.  Raises TowerTooDeep if `field` is not height one.
    """
    if field.height != 1:
        raise TowerTooDeep("norm factorization implemented for height-one fields")
    poly = [field.lift(c) for c in poly]
    if up.deg(poly) <= 1:
        return [poly]
    # QQ[x, y] with x first, so the resultant eliminates the generator x
    ring = _ring(("x", "y"))
    m, *coeffs = (ring.from_dict({(i, 0): c for i, c in enumerate(rep) if c})
                  for rep in [field.minpoly] + [c.rep for c in poly])
    x, y = ring.gens
    for s in range(0, 40):
        # G_s(x, y) = poly with the generator replaced by x and y -> y - s*x
        g = ring.zero
        for c in reversed(coeffs):
            g = g * (y - s * x) + c
        norm = m.resultant(g)
        if norm.gcd(norm.diff(norm.ring.gens[0])).degree() == 0:
            break
    else:  # pragma: no cover - shift always found at desk scale
        raise TowerTooDeep("no squarefree norm shift found")
    _, rat_factors = norm.factor_list()
    factors = []
    shift_arg = [field.gen() * s, field.one()]  # y + s*alpha
    for nf_poly, _m in rat_factors:
        # n_i(y + s*alpha) over the field, by Horner composition
        comp = []
        for c in reversed(up.from_ring(nf_poly)):
            comp = up.add(up.mul(comp, shift_arg), [field.from_rational(c)])
        g = up.gcd(poly, comp)
        if up.deg(g) >= 1:
            factors.append(g)
    total = [field.one()]
    for f in factors:
        total = up.mul(total, f)
    assert up.trim(total) == up.trim(poly), "norm factorization lost a factor"
    factors.sort(key=lambda f: (up.deg(f), tuple(c.rep for c in f)))
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
    factors = factor_over_height1(field, poly)
    roots = []
    for f in factors:
        if up.deg(f) == 1:
            roots.append(-f[0] / f[1])
    return roots
