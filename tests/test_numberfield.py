"""Number-field tower arithmetic and factorization over towers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, Rational
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

from ratsqrt import unipoly as up
from ratsqrt.errors import TowerTooDeep, ZeroInversion
from ratsqrt.geometry import _elem_key
from ratsqrt.numberfield import (
    NFElem,
    NumberField,
    elem_str,
    _times,
    factor_over_height1,
    roots_in_field,
)


def q_sqrt2():
    # minimal polynomial t^2 - 2 over the rationals
    return NumberField(None, "a", {(0,): QQ(-2), (2,): QQ(1)})


def tower_sqrt2_sqrt3():
    K = q_sqrt2()
    # t^2 - 3 stays irreducible over Q(sqrt 2)
    return NumberField(K, "b", {(0,): K.from_rational(-3), (2,): K.one()})


class TestHeightOne:
    def test_generator_squares_to_two(self):
        K = q_sqrt2()
        a = K.gen()
        assert a * a == K.from_rational(2)

    def test_arithmetic(self):
        K = q_sqrt2()
        a = K.gen()
        e = (a + 1) * (a - 1)  # = 2 - 1 = 1
        assert e == K.one()
        assert (a + 3) - a == K.from_rational(3)

    def test_inverse(self):
        K = q_sqrt2()
        a = K.gen()
        e = a + 1
        assert e * e.inverse() == K.one()
        # (1 + sqrt2)^-1 = sqrt2 - 1
        assert e.inverse() == a - 1

    def test_inverse_of_zero(self):
        K = q_sqrt2()
        with pytest.raises(ZeroInversion):
            K.zero().inverse()

    def test_division_and_pow(self):
        K = q_sqrt2()
        a = K.gen()
        assert (a ** 4) == K.from_rational(4)
        assert (K.one() / a) * a == K.one()

    def test_absolute_degree(self):
        assert q_sqrt2().absolute_degree() == 2
        assert tower_sqrt2_sqrt3().absolute_degree() == 4

    def test_minpoly_is_an_exponent_dict(self):
        K = q_sqrt2()
        assert K.minpoly == {(0,): QQ(-2), (2,): QQ(1)}
        with pytest.raises(ValueError):
            NumberField(None, "a", {(1,): QQ(1)})
        with pytest.raises(ValueError):
            NumberField(None, "a", {(0,): QQ(-2), (2,): QQ(3)})


class TestDescribe:
    def test_dense_lists_with_zero_coefficients(self):
        # reports print these lists and sort keys read them, zeros included
        L = tower_sqrt2_sqrt3()
        K = L.base
        assert K.describe() == [("a", [QQ(-2), QQ(0), QQ(1)])]
        (a, ka), (b, lb) = L.describe()
        assert (a, ka) == ("a", [QQ(-2), QQ(0), QQ(1)])
        assert b == "b" and lb == [K.from_rational(-3), K.zero(), K.one()]
        assert all(c.field is K for c in lb)
        assert [elem_str(c) for c in lb] == ["-3", "0", "1"]


class TestTower:
    def test_tower_arithmetic(self):
        L = tower_sqrt2_sqrt3()
        b = L.gen()
        a = L.lift(L.base.gen())
        prod = a * b  # sqrt 6
        assert prod * prod == L.from_rational(6)

    def test_tower_inverse_random(self):
        rng = random.Random(3)
        K = q_sqrt2()
        L = tower_sqrt2_sqrt3()
        for field in (K, L):
            one = field.one()
            for _ in range(50):
                e = field.from_rational(rng.randint(-5, 5)) + field.gen() * (
                    field.from_rational(rng.randint(-5, 5))
                )
                if not e:
                    continue
                assert e * e.inverse() == one

    def test_integer_inverse_matches_row_reduction(self):
        # the inverse by a rational solve of sum_k y_k (num*e_k) = 1, the
        # columns num*e_k scaled by tden, which the integer solve replaced
        def reduced(e):
            field = e.field
            n = field.degree
            cols = DomainMatrix([[QQ(c) for c in _times(field.table, e.num, u)]
                                 for u in field.units], (n, n), QQ)
            one = DomainMatrix([[QQ(int(k == 0))] for k in range(n)], (n, 1), QQ)
            y = cols.transpose().lu_solve(one).to_list()
            return NFElem(field, [c for c, in y]) * (e.den * field.tden)

        rng = random.Random(11)
        for field in (q_sqrt2(), tower_sqrt2_sqrt3()):
            for _ in range(100):
                e = NFElem(field, [QQ(rng.randint(-9, 9), rng.randint(1, 6))
                                   for _ in range(field.degree)])
                if e:
                    assert e.inverse() == reduced(e)

    def test_zero_divisor_of_a_tower_raises(self):
        # t^2 - 2 = (t - a)(t + a) over QQ(a), a^2 = 2: b - a is no unit
        K = q_sqrt2()
        L = NumberField(K, "b", {(0,): K.from_rational(-2), (2,): K.one()})
        for e in (L.gen() - L.lift(K.gen()), L.zero()):
            with pytest.raises(ZeroInversion):
                e.inverse()

    def test_levels_meet_only_through_lift(self):
        L = tower_sqrt2_sqrt3()
        a, b = L.base.gen(), L.gen()
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError):
                x * y
            with pytest.raises(ValueError):
                x + y
        assert L.lift(a) * b == b * L.lift(a)

    def test_fields_meet_in_sets_by_rational_value(self):
        K, L = q_sqrt2(), tower_sqrt2_sqrt3()
        assert len({K.one(), L.one()}) == 1
        assert len({K.from_rational(QQ(1, 2)), L.from_rational(QQ(1, 2)),
                    QQ(1, 2)}) == 1
        assert K.one() != L.from_rational(2)
        a = L.base.gen()
        assert a != L.one() and L.gen() != K.one()
        assert len({K.zero(), L.zero(), a}) == 2
        # two irrational elements of two fields meet only after a lift
        for x, y in ((a, L.lift(a)), (L.lift(a), a), (K.gen(), L.gen())):
            with pytest.raises(ValueError):
                x == y

    def test_zero_test_after_chains(self):
        L = tower_sqrt2_sqrt3()
        b = L.gen()
        e = (b + 1) * (b - 1) - L.from_rational(2)  # 3 - 1 - 2 = 0
        assert not e
        assert e == L.zero()


class TestFactorOverTower:
    def test_x2_minus_2_splits(self):
        K = q_sqrt2()
        a = K.gen()
        poly = {(0,): K.from_rational(-2), (2,): K.one()}
        factors = factor_over_height1(K, poly)
        assert len(factors) == 2
        for f in factors:
            assert up.deg(f) == 1
            root = -f[(0,)] / f[(1,)]
            assert root == a or root == -a

    def test_irreducible_stays(self):
        K = q_sqrt2()
        poly = {(0,): K.from_rational(-3), (2,): K.one()}  # x^2 - 3
        factors = factor_over_height1(K, poly)
        assert len(factors) == 1
        assert up.deg(factors[0]) == 2

    def test_roots_in_field(self):
        K = q_sqrt2()
        a = K.gen()
        # x^2 - 2 has both square roots of 2 in the field
        roots = roots_in_field(K, {(0,): K.from_rational(-2), (2,): K.one()})
        assert sorted(roots, key=elem_str) == sorted([a, -a], key=elem_str)
        # x^2 - a*x has the root 0, which no dict stores
        roots = roots_in_field(K, {(1,): -a, (2,): K.one()})
        assert sorted(roots, key=elem_str) == sorted([K.zero(), a], key=elem_str)
        assert all(r.field is K for r in roots)


class TestPrinting:
    def test_elem_str_rational(self):
        K = q_sqrt2()
        assert elem_str(K.from_rational(QQ(3, 2))) == "3/2"
        assert elem_str(QQ(7)) == "7"

    def test_elem_str_deterministic(self):
        K = q_sqrt2()
        e = K.gen() + 1
        assert elem_str(e) == elem_str(K.gen() + 1)


class TestReducibleMinpoly:
    def test_zero_divisor_raises(self):
        # t^2 - 1 = (t - 1)(t + 1): a - 1 is a zero divisor, not a unit
        K = NumberField(None, "a", {(0,): QQ(-1), (2,): QQ(1)})
        with pytest.raises(ZeroInversion):
            (K.gen() - 1).inverse()


# -- reference: the recursive tower arithmetic ------------------------------
#
# An element is a coefficient list over the level below, reduced modulo the
# minimal polynomial, and every operation recurses through dense polynomial
# arithmetic; an inverse runs the extended Euclidean algorithm.  The flat
# elements must agree with it on every operation and on every view that
# reports read.


def _ref_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _ref_add(p, q):
    n = max(len(p), len(q))
    return _ref_trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                      for i in range(n)])


def _ref_sub(p, q):
    return _ref_add(p, [-c for c in q])


def _ref_mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            if a and b:
                out[i + j] = out[i + j] + a * b
    return _ref_trim([c if c else p[0] - p[0] for c in out])


def _ref_divmod(p, q):
    r = _ref_trim(list(p))
    quo = [0] * max(len(r) - len(q) + 1, 0)
    while r and len(r) >= len(q):
        c = r[-1] / q[-1]
        k = len(r) - len(q)
        quo[k] = c
        for i, b in enumerate(q):
            r[k + i] = r[k + i] - c * b
        r.pop()
        _ref_trim(r)
    return _ref_trim(quo), r


def _ref_gcdex(p, q):
    """(g, s) with s*p = g modulo q, g monic."""
    a, b = list(p), list(q)
    one = q[-1] / q[-1]
    s0, s1 = [one], []
    while b:
        quo, r = _ref_divmod(a, b)
        a, b = b, r
        s0, s1 = s1, _ref_sub(s0, _ref_mul(quo, s1))
    inv = 1 / a[-1]
    return [c * inv for c in a], [c * inv for c in s0]


class RefField:
    def __init__(self, base, gen_name, minpoly):
        self.base, self.gen_name = base, gen_name
        self.minpoly = [c if base is None else base.lift(c) for c in minpoly]

    def lift(self, c):
        if isinstance(c, RefElem) and c.field is self:
            return c
        c = QQ(c) if isinstance(c, int) else c
        return RefElem(self, [c if self.base is None else self.base.lift(c)])


class RefElem:
    def __init__(self, field, rep):
        self.field = field
        self.rep = tuple(_ref_trim(list(rep)))

    def __add__(self, other):
        o = self.field.lift(other)
        return RefElem(self.field, _ref_add(list(self.rep), list(o.rep)))

    __radd__ = __add__

    def __neg__(self):
        return RefElem(self.field, [-c for c in self.rep])

    def __sub__(self, other):
        return self + (-self.field.lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self.field.lift(other)
        prod = _ref_mul(list(self.rep), list(o.rep))
        return RefElem(self.field, _ref_divmod(prod, self.field.minpoly)[1])

    __rmul__ = __mul__

    def inverse(self):
        if not self.rep:
            raise ZeroInversion("zero")
        g, s = _ref_gcdex(list(self.rep), self.field.minpoly)
        if len(g) != 1:
            raise ZeroInversion("zero divisor")
        return RefElem(self.field, _ref_divmod(s, self.field.minpoly)[1])

    def __truediv__(self, other):
        return self * self.field.lift(other).inverse()

    def __rtruediv__(self, other):
        return self.field.lift(other) * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.lift(1)
        for _ in range(n):
            out = out * self
        return out

    def __bool__(self):
        return bool(self.rep)

    def __eq__(self, other):
        return self.rep == self.field.lift(other).rep


def _ref_key(e):
    return tuple(_ref_key(c) for c in e.rep) if isinstance(e, RefElem) else (e,)


def _ref_str(e):
    if not isinstance(e, RefElem):
        return str(e)
    parts = []
    for i, c in enumerate(e.rep):
        cs = _ref_str(c)
        if cs == "0":
            continue
        head = e.field.gen_name if i == 1 else f"{e.field.gen_name}^{i}"
        if i == 0:
            parts.append(cs)
        elif cs == "1":
            parts.append(head)
        elif "+" in cs or cs.startswith("-"):
            parts.append(f"({cs})*{head}")
        else:
            parts.append(f"{cs}*{head}")
    return " + ".join(parts) if parts else "0"


def _tower(levels):
    """The flat field and the reference field of a tower, each level given
    by the integer coefficients of its minimal polynomial over the level
    below, a lower-level coefficient by its own integer coefficients."""
    flat = ref = None
    for name, minpoly in zip("ab", levels):
        if flat is None:
            flat_mp = {(i,): QQ(c) for i, c in enumerate(minpoly) if c}
            ref_mp = [QQ(c) for c in minpoly]
        else:
            pad = flat.absolute_degree()
            flat_mp = {(i,): _flat_elem(flat, c + (0,) * (pad - len(c)))
                       for i, c in enumerate(minpoly) if any(c)}
            ref_mp = [_ref_elem(ref, c) for c in minpoly]
        flat, ref = NumberField(flat, name, flat_mp), RefField(ref, name, ref_mp)
    return flat, ref


def _flat_elem(field, coords):
    """The element with QQ coordinates `coords` on the basis a^i b^j."""
    return NFElem(field, [QQ(c) for c in coords])


def _ref_elem(field, coords):
    """The same element, as a coefficient list over the level below."""
    if field.base is None:
        return RefElem(field, [QQ(c) for c in coords])
    m = len(coords) // (len(field.minpoly) - 1)
    return RefElem(field, [_ref_elem(field.base, coords[j:j + m])
                           for j in range(0, len(coords), m)])


# height one of degree 2 and 3, height two of degree 4
TOWERS = [
    [(-2, 0, 1)],
    [(7, 0, 1)],
    [(1, 1, 1)],
    [(-2, 0, 0, 1)],
    [(-1, -1, 0, 1)],
    [(-2, 0, 1), ((-3,), (), (1,))],
    [(-2, 0, 1), ((0, -1), (), (1,))],
    [(1, 0, 1), ((-1, -1), (), (1,))],
    [(-2, 0, 1), ((1,), (0, 1), (1,))],
]

_rational = st.builds(QQ, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def _case(draw):
    levels = draw(st.sampled_from(TOWERS))
    flat, ref = _tower(levels)
    degree = flat.absolute_degree()
    coords = st.lists(_rational, min_size=degree, max_size=degree)
    return flat, ref, draw(coords), draw(coords)


def _agree(x, r):
    assert [_elem_key(c) for c in x.rep] == [_ref_key(c) for c in r.rep]
    assert all(c.field is x.field.base for c in x.rep if isinstance(c, NFElem))
    assert _elem_key(x) == _ref_key(r)
    assert elem_str(x) == _ref_str(r)
    assert bool(x) == bool(r)


class TestAgainstRecursiveReference:
    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(_case(), st.integers(-2, 3), st.sampled_from([1, -3, QQ(2, 5)]))
    def test_operations_agree(self, case, n, q):
        flat, ref, cx, cy = case
        x, rx = _flat_elem(flat, cx), _ref_elem(ref, cx)
        y, ry = _flat_elem(flat, cy), _ref_elem(ref, cy)
        _agree(x, rx)
        assert (x == y) == (rx == ry)
        assert (x == q) == (rx == q)
        for got, want in ((x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry),
                          (x + q, rx + q), (q - x, q - rx), (x * q, rx * q),
                          (x / q, rx / q)):
            _agree(got, want)
        if y:
            _agree(x / y, rx / ry)
            _agree(y.inverse(), ry.inverse())
            _agree(q / y, q / ry)
        else:
            with pytest.raises(ZeroInversion):
                y.inverse()
        if x or n >= 0:
            _agree(x ** n, rx ** n)


# -- reference: rational coordinate vectors ---------------------------------
#
# An element is its tuple of QQ coordinates on the basis a^i b^j, i running
# fastest.  A product multiplies the two as polynomials in a and b, reduces
# the b-degree with the minimal polynomial of b, whose coefficients are
# polynomials in a, and then the a-degree with that of a; an inverse solves
# the multiplication matrix with sympy's Matrix over the rationals.


def _vec_mul(levels, x, y):
    m1 = [QQ(c) for c in levels[0]]
    m2 = ([[QQ(t) for t in c] for c in levels[1]] if len(levels) > 1
          else [[QQ(0)], [QQ(1)]])
    n1, n2 = len(m1) - 1, len(m2) - 1
    prod = {}
    for k, xk in enumerate(x):
        for l, yl in enumerate(y):
            e = (k % n1 + l % n1, k // n1 + l // n1)
            prod[e] = prod.get(e, QQ(0)) + xk * yl
    for j in range(2 * n2 - 2, n2 - 1, -1):  # b^j = -b^(j-n2) * (m2 - b^n2)
        for i in sorted(e[0] for e in prod if e[1] == j):
            c = prod.pop((i, j))
            for k in range(n2):
                for t, mt in enumerate(m2[k]):
                    e = (i + t, j - n2 + k)
                    prod[e] = prod.get(e, QQ(0)) - c * mt
    for i in range(max(e[0] for e in prod), n1 - 1, -1):
        for j in range(n2):
            c = prod.pop((i, j), QQ(0))
            for t in range(n1):
                e = (i - n1 + t, j)
                prod[e] = prod.get(e, QQ(0)) - c * m1[t]
    return tuple(prod.get((i, j), QQ(0)) for j in range(n2) for i in range(n1))


def _vec_inverse(levels, x):
    """The inverse's coordinates, or None when x is not a unit."""
    n = len(x)
    units = [tuple(QQ(int(r == k)) for r in range(n)) for k in range(n)]
    cols = [_vec_mul(levels, x, e) for e in units]
    M = Matrix(n, n, lambda r, k: Rational(int(cols[k][r].numerator),
                                           int(cols[k][r].denominator)))
    if M.det() == 0:
        return None
    y = M.LUsolve(Matrix([1] + [0] * (n - 1)))
    return tuple(QQ(int(c.p), int(c.q)) for c in y)


@st.composite
def _vec_case(draw):
    levels = draw(st.sampled_from(TOWERS))
    flat, _ref = _tower(levels)
    coords = st.lists(_rational, min_size=flat.degree, max_size=flat.degree)
    # a third of the draws make y rational-valued, so hashing meets both kinds
    cy = draw(coords)
    if draw(st.integers(0, 2)) == 0:
        cy = cy[:1] + [QQ(0)] * (flat.degree - 1)
    return levels, flat, draw(coords), cy


class TestAgainstRationalVectors:
    @settings(max_examples=120, deadline=None, derandomize=True,
              database=None)
    @given(_vec_case())
    def test_arithmetic_hash_rep_and_lift(self, case):
        levels, flat, cx, cy = case
        x, y = _flat_elem(flat, cx), _flat_elem(flat, cy)
        vx, vy = tuple(QQ(c) for c in cx), tuple(QQ(c) for c in cy)
        assert x.vec == vx and y.vec == vy
        assert (x + y).vec == tuple(a + b for a, b in zip(vx, vy))
        assert (x - y).vec == tuple(a - b for a, b in zip(vx, vy))
        assert (x * y).vec == _vec_mul(levels, vx, vy)
        inv = _vec_inverse(levels, vy)
        if inv is None:
            with pytest.raises(ZeroInversion):
                y.inverse()
        else:
            assert y.inverse().vec == inv
        # equality is a compare of coordinates, and equal elements hash alike
        assert (x == y) == (vx == vy)
        same = (x * y - y * x + y) / 1
        assert same == y and hash(same) == hash(y)
        if not any(vy[1:]):
            assert y == vy[0] and hash(y) == hash(vy[0])
            assert len({y, vy[0]}) == 1
        # rep: the coordinates over the level below, trimmed
        base = flat.base
        m = 1 if base is None else base.degree
        rep = [vx[j:j + m] for j in range(0, flat.degree, m)]
        while rep and not any(rep[-1]):
            rep.pop()
        assert [c.vec if base is not None else (c,) for c in x.rep] == rep
        if base is not None:
            z, w = _flat_elem(base, cx[:m]), _flat_elem(base, cy[:m])
            assert flat.lift(z).vec == vx[:m] + (QQ(0),) * (flat.degree - m)
            assert flat.lift(z * w) == flat.lift(z) * flat.lift(w)
            assert flat.lift(z) + y == y + flat.lift(z)


class TestHashAgreesWithEquality:
    def test_rational_values_hash_as_rationals(self):
        for field in (q_sqrt2(), tower_sqrt2_sqrt3()):
            three = field.from_rational(3)
            assert three == 3 and hash(three) == hash(3)
            assert len({three, 3}) == 1
            assert len({field.from_rational(QQ(1, 3)), QQ(1, 3)}) == 1
            assert hash(field.zero()) == hash(0)

    def test_equal_elements_hash_alike(self):
        L = tower_sqrt2_sqrt3()
        b = L.gen()
        x = b * L.lift(L.base.gen()) + QQ(1, 2)
        y = (x * 6 - 1) / 6 + QQ(1, 6)
        assert x == y and hash(x) == hash(y)
        assert len({x, y, L.from_rational(2)}) == 2
