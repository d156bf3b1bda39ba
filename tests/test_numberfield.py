"""Number-field tower arithmetic and factorization over towers."""

import random
from sympy.polys.domains import QQ

import pytest

from ratsqrt import unipoly as up
from ratsqrt.errors import TowerTooDeep, ZeroInversion
from ratsqrt.numberfield import (
    NumberField,
    elem_str,
    factor_over_height1,
    roots_in_field,
)


def q_sqrt2():
    # minimal polynomial t^2 - 2 over the rationals
    return NumberField(None, "a", [QQ(-2), QQ(0), QQ(1)])


def tower_sqrt2_sqrt3():
    K = q_sqrt2()
    # t^2 - 3 stays irreducible over Q(sqrt 2)
    return NumberField(K, "b", [K.from_rational(-3), K.zero(), K.one()])


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

    def test_levels_meet_only_through_lift(self):
        L = tower_sqrt2_sqrt3()
        a, b = L.base.gen(), L.gen()
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError):
                x * y
            with pytest.raises(ValueError):
                x + y
        assert L.lift(a) * b == b * L.lift(a)

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
        poly = [K.from_rational(-2), K.zero(), K.one()]
        factors = factor_over_height1(K, poly)
        assert len(factors) == 2
        for f in factors:
            assert up.deg(f) == 1
            root = -f[0] / f[1]
            assert root == a or root == -a

    def test_irreducible_stays(self):
        K = q_sqrt2()
        poly = [K.from_rational(-3), K.zero(), K.one()]  # x^2 - 3
        factors = factor_over_height1(K, poly)
        assert len(factors) == 1
        assert up.deg(factors[0]) == 2

    def test_roots_in_field(self):
        K = q_sqrt2()
        a = K.gen()
        # x^2 - 2 has both square roots of 2 in the field
        roots = roots_in_field(K, [K.from_rational(-2), K.zero(), K.one()])
        assert sorted(roots, key=elem_str) == sorted([a, -a], key=elem_str)


class TestPrinting:
    def test_elem_str_rational(self):
        K = q_sqrt2()
        assert elem_str(K.from_rational(QQ(3, 2))) == "3/2"
        assert elem_str(QQ(7)) == "7"

    def test_elem_str_deterministic(self):
        K = q_sqrt2()
        e = K.gen() + 1
        assert elem_str(e) == elem_str(K.gen() + 1)
