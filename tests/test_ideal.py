"""The fraction-free lex Groebner kernel against sympy's Buchberger.

A reduced Groebner basis is unique, so `ideal.groebner` must return the very
list sympy's ``groebnertools.groebner`` returns: on random systems in one to
five unknowns with rational coefficients, whose zero sets are empty, finite
or positive-dimensional, and on every chart system that deciding the corpus
radicands and the bundled alphabets solves.
"""

from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ
from sympy.polys.groebnertools import groebner as sympy_groebner

from ratsqrt import geometry, unipoly
from ratsqrt.cli import run_corpus
from ratsqrt.engine import Config, decide
from ratsqrt.errors import ResourceLimit
from ratsqrt.ideal import groebner
from ratsqrt.mpoly import _ring
from ratsqrt.parser import parse_poly


def _names(k):
    """The solver's ring for k unknowns: generators x_{k-1} > ... > x_0."""
    return tuple(f"x{i}" for i in reversed(range(k)))


@st.composite
def _systems(draw):
    """(ring, generators) in k unknowns, with generators of 1-3 terms of
    total degree <= 2.  Either up to k + 1 such generators, so that fewer
    than k leave a positive-dimensional zero set and one more an empty one,
    generically; or one generator c*x_i^2 + (terms of degree <= 1) per
    unknown, whose zero set is finite (and possibly empty)."""
    k = draw(st.integers(1, 5))
    ring = _ring(_names(k))
    coeff = st.builds(QQ, st.sampled_from([-3, -2, -1, 1, 2, 3]),
                      st.integers(1, 4))

    def poly(degree):
        # a monomial of degree <= `degree`: its unknowns, with repeats
        expo = st.lists(st.integers(0, k - 1), max_size=degree).map(
            lambda xs: tuple(xs.count(i) for i in range(k)))
        return st.dictionaries(expo, coeff, min_size=1, max_size=3).map(
            ring.from_dict)

    if draw(st.booleans()):
        return ring, draw(st.lists(poly(2), min_size=1, max_size=k + 1))
    return ring, [x**2 * draw(coeff) + draw(poly(1)) for x in ring.gens]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_systems())
def test_matches_sympy_on_random_systems(system):
    ring, gens = system
    assert groebner(gens, ring) == sympy_groebner(gens, ring)


@pytest.mark.parametrize("texts, shape", [
    (("x0^2 + 1", "x0*x1 - 1", "x1"), "empty"),
    (("2/3*x0 - 1/2", "x0^2 - 1"), "empty"),
    (("x0^2 - 2", "x1^2 - 3", "x2 - x0*x1"), "finite"),
    (("x1^2 + x2^2 - 1", "x1 - 1/2*x0^3", "x2*x0 - 1/3"), "finite"),
    (("x0*x1 - 1", "x2 - x1"), "positive"),
    (("x2^2 - x1*x0", "x2*x1 - 2*x0"), "positive"),
])
def test_matches_sympy_on_each_zero_set_shape(texts, shape):
    ring = _ring(_names(3))
    gens = [parse_poly(t, _names(3)).pe for t in texts]
    basis = groebner(gens, ring)
    assert basis == sympy_groebner(gens, ring)
    if shape == "empty":
        assert basis == [ring.one]
    else:
        # a pure power of every unknown leads some element exactly when
        # the zero set is finite
        pure = {e.index(max(e)) for e in (g.LM for g in basis)
                if sum(e) == max(e)}
        assert (len(pure) == ring.ngens) == (shape == "finite")


# rule 8 on three variables: charts of up to four unknowns
RULE_8_INPUTS = ("X^2*Y + Z^2 + 1", "X^3 + Y^3 + Z^3 + 1")


def test_matches_sympy_on_the_corpus_charts(monkeypatch):
    # every system the solver takes; it solves a univariate one by the
    # monic gcd of its equations, which is its reduced basis
    systems = []
    real = geometry._solve_ideal
    monkeypatch.setattr(geometry, "_solve_ideal", lambda gens, ring, k: (
        systems.append((gens, ring)) if k else None) or real(gens, ring, k))
    _reports, mismatches = run_corpus(Config(), out=lambda _line: None)
    assert not mismatches
    for text in RULE_8_INPUTS:
        decide(parse_poly(text))
    assert {ring.ngens for _g, ring in systems} == {1, 2, 3, 4}
    for gens, ring in systems:
        basis = sympy_groebner(gens, ring)
        assert groebner(gens, ring) == basis
        if ring.ngens == 1 and gens:
            assert basis == [ring.from_dict(reduce(unipoly.gcd, map(dict, gens),
                                                   {}))]


def test_exponents_too_wide_for_the_packing_are_refused():
    ring = _ring(("x1", "x0"))
    x1, x0 = ring.gens
    with pytest.raises(ResourceLimit, match="packing"):
        groebner([x0 ** (1 << 15) - 1], ring)
    # each input exponent fits, but reducing x1^2 by x1 - x0^20000 would
    # form x0^40000
    with pytest.raises(ResourceLimit, match="packing"):
        groebner([x1 - x0 ** 20000, x1**2 - 1], ring)
    assert groebner([x1 - x0 ** 20000, x1 - 1], ring) == [x1 - 1,
                                                          x0 ** 20000 - 1]
