"""Dense univariate polynomial arithmetic over exact fields."""

import random
from sympy.polys.domains import QQ

from ratsqrt import unipoly as up


def P(*coeffs):
    return [QQ(c) for c in coeffs]


class TestBasics:
    def test_trim_and_deg(self):
        assert up.trim(P(1, 2, 0, 0)) == P(1, 2)
        assert up.deg(P(1, 0, 3)) == 2
        assert up.deg([]) == -1

    def test_add_sub(self):
        a, b = P(1, 2), P(3, -2)
        assert up.add(a, b) == P(4)

    def test_mul(self):
        # (x - 1)(x + 1) = x^2 - 1
        assert up.mul(P(-1, 1), P(1, 1)) == P(-1, 0, 1)
        assert up.mul(P(2), P(0, 0, 3)) == P(0, 0, 6)
        assert up.mul([], P(1, 1)) == []

    def test_divmod(self):
        # x^3 - 1 = (x - 1)(x^2 + x + 1)
        q, r = up.divmod_poly(P(-1, 0, 0, 1), P(-1, 1))
        assert q == P(1, 1, 1)
        assert r == []
        q, r = up.divmod_poly(P(1, 0, 1), P(0, 1))
        assert q == P(0, 1) and r == P(1)

    def test_valuation(self):
        p = P(0, 0, 5, 1)
        assert up.valuation(p) == 2
        assert up.valuation(P(7)) == 0

    def test_derivative(self):
        assert up.derivative(P(3, 2, 1)) == P(2, 2)
        assert up.derivative(P(5)) == []


class TestGcd:
    def test_gcd_known(self):
        # gcd(x^2 - 1, x^2 - 2x + 1) = x - 1
        g = up.gcd(P(-1, 0, 1), P(1, -2, 1))
        assert up.monic(g) == P(-1, 1)

    def test_gcd_coprime(self):
        g = up.gcd(P(1, 1), P(2, 1))
        assert up.deg(g) == 0

    def test_gcd_common_factor_property(self):
        rng = random.Random(7)
        for _ in range(50):
            a = up.trim([QQ(rng.randint(-4, 4)) for _ in range(4)])
            b = up.trim([QQ(rng.randint(-4, 4)) for _ in range(4)])
            c = [QQ(rng.randint(-3, 3)) for _ in range(3)] + [QQ(1)]
            if not a or not b:
                continue
            g1 = up.monic(up.gcd(up.mul(a, c), up.mul(b, c)))
            g2 = up.monic(up.mul(up.gcd(a, b), c))
            assert up.monic(up.gcd(g1, g2)) == up.monic(c) or g1 == g2

    def test_radical(self):
        # (x - 1)^2 (x + 2) -> (x - 1)(x + 2)
        sq = up.mul(up.mul(P(-1, 1), P(-1, 1)), P(2, 1))
        assert up.monic(up.radical(sq)) == up.monic(up.mul(P(-1, 1), P(2, 1)))


class TestFactor:
    def test_factor_x2_minus_1(self):
        c, factors = up.factor_rational(P(-1, 0, 1))
        assert c == 1
        assert sorted(f for f, _m in factors) == [P(-1, 1), P(1, 1)]

    def test_factor_x4_plus_1_irreducible(self):
        # no rational roots and no rational quadratic split
        _c, factors = up.factor_rational(P(1, 0, 0, 0, 1))
        assert factors == [(P(1, 0, 0, 0, 1), 1)]

    def test_factor_three_linear(self):
        # (1 + 4x) * x * (x - 4) = -4x - 15x^2 + 4x^3
        p = up.mul(up.mul(P(1, 4), P(0, 1)), P(-4, 1))
        _c, factors = up.factor_rational(p)
        assert len(factors) == 3
        assert all(up.deg(f) == 1 for f, _m in factors)

    def test_factor_remultiplies(self):
        rng = random.Random(11)
        for _ in range(200):
            p = up.trim([QQ(rng.randint(-5, 5)) for _ in range(rng.randint(2, 13))])
            if not p:
                continue
            c, factors = up.factor_rational(p)
            prod = [QQ(c)]
            for f, m in factors:
                for _ in range(m):
                    prod = up.mul(prod, f)
            assert prod == p

    def test_rational_roots(self):
        # 2x^2 - 3x + 1 has roots 1 and 1/2
        assert sorted(up.rational_roots(P(1, -3, 2))) == [QQ(1, 2), QQ(1)]
        assert up.rational_roots(P(1, 0, 1)) == []
