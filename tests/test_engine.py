"""Decision cascade for single square roots."""

import json
import math
import time
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import prop_helpers
from test_golden import EXTENSION_ROOTS

from ratsqrt import engine
from ratsqrt.alphabet import subset_products
from ratsqrt.cli import _corpus_entries
from ratsqrt.engine import (
    INCONCLUSIVE,
    NOT_RATIONALIZABLE,
    RATIONALIZABLE,
    RULE_REFS,
    Config,
    complete,
    decide,
)
from ratsqrt.errors import ResourceLimit, ZeroDenominator
from ratsqrt.mpoly import MultiPoly, quadratic_field, substitute
from ratsqrt.parser import (
    load_alphabet,
    map_from_json,
    parse_poly,
    parse_rational,
)
from ratsqrt.witness import verify_witness


def rules(v):
    return [s.rule for s in v.steps]


def assert_witness_ok(v, p, q=None):
    assert v.witness is not None
    g = substitute(p, v.witness)
    if q is not None:
        g = g / substitute(q, v.witness)
    from ratsqrt.mpoly import is_perfect_square

    assert is_perfect_square(g) is not None


class TestReduction:
    def test_constant_radicand(self):
        v = decide(parse_poly("4", ("X",)))
        assert v.outcome == RATIONALIZABLE
        assert "constant-radicand" in rules(v)

    def test_zero_radicand(self):
        v = decide(MultiPoly.zero(("X",)))
        assert v.outcome == RATIONALIZABLE

    def test_square_multiple_reduces_to_constant(self):
        v = decide(parse_poly("(X + 1)^2", ("X",)))
        assert v.outcome == RATIONALIZABLE
        assert "constant-radicand" in rules(v)

    def test_effective_variable_pruning(self):
        v = decide(parse_poly("X^2 + 1", ("X", "Y", "Z")))
        assert "effective-variables" in rules(v)
        assert v.outcome == RATIONALIZABLE

    def test_denominator_contributes(self):
        # sqrt((1-X)/(1+X)) reduces to sqrt(1 - X^2) up to a square
        p = parse_poly("1 - X", ("X",))
        q = parse_poly("1 + X", ("X",))
        v = decide(p, q)
        assert v.outcome == RATIONALIZABLE
        assert_witness_ok(v, p, q)


class TestUnivariate:
    def test_degree_one(self):
        p = parse_poly("X - 1", ("X",))
        v = decide(p)
        assert v.outcome == RATIONALIZABLE
        assert_witness_ok(v, p)

    def test_degree_two(self):
        p = parse_poly("1 - X^2", ("X",))
        v = decide(p)
        assert v.outcome == RATIONALIZABLE
        assert_witness_ok(v, p)

    def test_degree_three_not(self):
        v = decide(parse_poly("1 - X^3", ("X",)))
        assert v.outcome == NOT_RATIONALIZABLE
        assert rules(v)[-1] == "univariate-degree"

    def test_degree_four_not(self):
        v = decide(parse_poly("X^4 + 1", ("X",)))
        assert v.outcome == NOT_RATIONALIZABLE

    def test_three_odd_roots_not(self):
        # (1 + 4X) X (X - 4): three zeros of odd multiplicity
        v = decide(parse_poly("(1 + 4*X)*X*(X - 4)", ("X",)))
        assert v.outcome == NOT_RATIONALIZABLE


class TestHomogeneous:
    def test_fermat_two_vars(self):
        v = decide(parse_poly("X1^4 + X2^4", ("X1", "X2")))
        assert v.outcome == NOT_RATIONALIZABLE
        assert "homogeneous-reduction" in rules(v)
        assert "univariate-degree" in rules(v)

    def test_fermat_three_vars(self):
        p = parse_poly("X1^4 + X2^4 + X3^4", ("X1", "X2", "X3"))
        v = decide(p)
        assert v.outcome == RATIONALIZABLE
        assert "homogeneous-reduction" in rules(v)
        if v.witness is not None:
            assert verify_witness(v.witness, p) is not None

    def test_quadratic_homogeneous_uses_quadric(self):
        p = parse_poly("X1^2 - X2^2", ("X1", "X2"))
        v = decide(p)
        assert v.outcome == RATIONALIZABLE
        assert_witness_ok(v, p)


class TestBivariate:
    def test_cubic_with_triple_point(self):
        # an affine triple point of F is a double point of the cubic
        # surface w^2 z = F, which projection from it parametrizes
        for text in ("X*Y*(X + Y)", "X^3 + Y^3", "(X - 1)*(Y - 2)*(X + Y - 3)"):
            p = parse_poly(text, ("X", "Y"))
            v = decide(p)
            assert v.outcome == RATIONALIZABLE
            assert rules(v)[-1] == "cubic-triple-point"
            assert verify_witness(v.witness, p) is not None
        # a triple point at infinity makes the surface a cone
        v = decide(parse_poly("(X + Y)*(X + Y + 1)*(X + Y + 3)", ("X", "Y")))
        assert v.outcome == NOT_RATIONALIZABLE
        assert rules(v)[-1] == "cubic-triple-point"
        assert v.steps[-1].data["triple_point"]["chart"] > 0

    def test_cubic_without_triple_point(self):
        p = parse_poly("X^2*(X + 1) - Y^2", ("X", "Y"))
        v = decide(p)
        assert v.outcome == RATIONALIZABLE
        assert_witness_ok(v, p)

    @pytest.mark.parametrize("text", ["X^2*(X + 1) - Y^2", "Y^2 - X^3 - X - 1"])
    def test_cubic_reads_its_centre_off_one_singular_point_pass(
            self, monkeypatch, text):
        # the triple point and the projection centre, affine or at
        # infinity, both come from the singular points of B = s*F
        curves = []
        find = engine.singular_points

        def refuse(V):
            raise AssertionError("a bivariate cubic reached the search")

        monkeypatch.setattr(engine, "singular_points",
                            lambda B: curves.append(B) or find(B))
        monkeypatch.setattr(engine, "high_mult_point_search", refuse)
        p = parse_poly(text, ("X", "Y"))
        v = decide(p)
        assert rules(v)[-1] == "cubic-triple-point"
        assert_witness_ok(v, p)
        assert len(curves) == 1

    def test_bhabha_not_rationalizable(self):
        p = parse_poly("(X + Y)*(1 + X*Y)", ("X", "Y"))
        q = parse_poly("X + Y - 4*X*Y + X^2*Y + X*Y^2", ("X", "Y"))
        v = decide(p, q)
        assert v.outcome == NOT_RATIONALIZABLE
        terminal = v.steps[-1]
        assert terminal.rule == "simple-singularities"
        assert terminal.data["all_simple"] is True
        assert terminal.data["degree"] == 6
        assert v.singularities is not None

    def test_quartic_all_simple_rationalizable(self):
        # degree-4 bivariate with only simple singularities
        p = parse_poly("(X^2 - 1)*(Y^2 - 1)", ("X", "Y"))
        v = decide(p)
        assert v.outcome == RATIONALIZABLE

    def test_nonsimple_falls_through(self):
        # X^4 + Y^4: multiplicity-4 branch point; the degree criterion does
        # not apply and no multiplicity-3 point exists on the closure
        v = decide(parse_poly("X^4 + Y^4 + X^2", ("X", "Y")))
        assert v.outcome in (RATIONALIZABLE, INCONCLUSIVE)


class TestCertificates:
    def test_steps_have_known_rules(self):
        for text in ("1 - X^2", "1 - X^3", "X1^4 + X2^4"):
            v = decide(parse_poly(text))
            for s in v.steps:
                assert s.rule in RULE_REFS
                assert isinstance(s.to_json()["paper_ref"], str)

    def test_timings_recorded(self):
        v = decide(parse_poly("1 - X^2", ("X",)))
        assert "radicand-reduction" in v.timings

    def test_witness_always_verified_when_present(self):
        for text in ("X - 7", "X*(X - 4)", "X*Y + 1", "1 - X^2"):
            p = parse_poly(text)
            v = decide(p)
            if v.witness is not None:
                assert verify_witness(v.witness, p) is not None

    def test_config_respected(self):
        v = decide(parse_poly("1 - X^2", ("X",)), config=Config(max_height=5))
        assert v.outcome == RATIONALIZABLE


class TestConfigLimits:
    """A limit that would switch itself off (a timeout of 0 or NaN) or
    stop every input (a negative one), or a count that is not an integer
    >= 0, is refused when the Config is built."""

    @pytest.mark.parametrize("timeout", [
        0, 0.0, -1, math.nan, math.inf, -math.inf, None, "1"])
    def test_bad_timeout(self, timeout):
        with pytest.raises(ValueError, match="timeout"):
            Config(timeout=timeout)

    @pytest.mark.parametrize("name", [
        "max_height", "max_subset_size", "ordering_budget"])
    @pytest.mark.parametrize("value", [-3, -1, 1.5, None, "2"])
    def test_bad_count(self, name, value):
        with pytest.raises(ValueError, match=name):
            Config(**{name: value})

    def test_limits_at_their_edges(self):
        c = Config(timeout=1e-12, max_height=0, max_subset_size=0,
                   ordering_budget=0)
        assert (c.timeout, c.max_height) == (1e-12, 0)
        assert Config(timeout=2).timeout == 2

    @pytest.mark.parametrize("timeout", [0, math.nan, -1])
    def test_decide_never_runs_with_a_limit_switched_off(self, timeout):
        # each used to decide X^2 + Y^2 - 1: 0 and NaN without any limit,
        # -1 as Inconclusive with a resource-limit step
        with pytest.raises(ValueError, match="timeout"):
            decide(parse_poly("X^2 + Y^2 - 1"), None, Config(timeout=timeout))


class TestInconclusive:
    def test_drell_yan_products(self):
        # degree-6 product with a non-simple branch point: the implemented
        # criteria cannot decide it and must say so
        f2 = parse_poly("-X1*X2*(4*X3*(X3 + X2) - X1*X2)", ("X1", "X2", "X3"))
        f3 = parse_poly(
            "X1*(X2^2*(X1 - 4*X3) + X3*X1*(X3 - 2*X2))", ("X1", "X2", "X3")
        )
        v = decide(f2 * f3)
        assert v.outcome == INCONCLUSIVE
        assert rules(v)[-1] == "inconclusive"
        assert any(
            s.rule == "simple-singularities" and not s.data["all_simple"]
            for s in v.steps
        )


class TestIrrationalCoefficients:
    """Radicands over QQ(sqrt(2)), which only the API can pass: the
    geometric criteria need rational coefficients, so these end before
    build-model; quadrics still decide."""

    @pytest.mark.parametrize("text, variables", [
        ("X^4 + sqrt(2)*Y^4 + 1", ("X", "Y")),
        ("X^3 + sqrt(2)*Y^2 + 1", ("X", "Y")),
        ("X^2*Y + sqrt(2)*Z^2 + 1", ("X", "Y", "Z")),
    ])
    def test_geometric_cases_are_inconclusive(self, text, variables):
        # once a ValueError out of geometry
        g = parse_rational(text, variables, quadratic_field(2)[0])
        v = decide(g.num, g.den)
        assert v.outcome == INCONCLUSIVE
        assert rules(v)[-1] == "inconclusive"
        assert "rational coefficients" in v.steps[-1].data["note"]
        assert "build-model" not in v.timings

    def test_quadric_keeps_its_witness(self):
        g = parse_rational("X^2 + sqrt(2)*Y^2 + 1", ("X", "Y"),
                           quadratic_field(2)[0])
        v = decide(g.num, g.den)
        assert v.outcome == RATIONALIZABLE
        assert rules(v)[-1] == "degree-at-most-2"
        assert_witness_ok(v, g.num)

    def test_witness_round_trips_through_json(self):
        # the scan finds the rational point (0, 0, 1), so the map records
        # no extension; only its coefficients are irrational, and its JSON
        # form names their field
        g = parse_rational("X^2 + sqrt(2)*Y^2 + 1", ("X", "Y"),
                           quadratic_field(2)[0])
        m = decide(g.num, g.den).witness
        doc = m.to_json()
        assert doc["extension"] == "sqrt(2)"
        back = map_from_json(doc)
        assert back == m and back.extension == 2
        assert verify_witness(back, g.num) is not None


class TestResourceLimit:
    def test_reduction_over_budget_is_inconclusive(self):
        # a budget no rule can meet: the radicand reduction already
        # exceeds it, and the verdict must still be a certificate
        v = decide(parse_poly("X^2 + Y^2 - 1"), config=Config(timeout=1e-12))
        assert v.outcome == INCONCLUSIVE
        assert v.witness is None
        assert rules(v)[-1] == "resource-limit"
        assert "radicand-reduction" in v.steps[-1].data["detail"]

    def _clock(self, monkeypatch, *readings):
        ticks = iter(readings)
        monkeypatch.setattr(engine, "time",
                            SimpleNamespace(monotonic=lambda: next(ticks)))
        return engine._RuleClock(1.0)

    def test_interrupt_after_budget_propagates(self, monkeypatch):
        clock = self._clock(monkeypatch, 0.0, 5.0)

        def interrupted():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            clock.run("high-multiplicity-point", interrupted)
        assert clock.timings == {"high-multiplicity-point": 5.0}

    def test_over_budget_return_raises_resource_limit(self, monkeypatch):
        clock = self._clock(monkeypatch, 0.0, 5.0)
        with pytest.raises(ResourceLimit, match="high-multiplicity-point"):
            clock.run("high-multiplicity-point", lambda: 42)
        assert clock.timings == {"high-multiplicity-point": 5.0}


# the step data the chart-loop search gave for centres (0:x0:y0:w0) with
# w0 != 0: f is at most quadratic in X with a constant coefficient c of
# X^2, so F's tangent cone at (0:1:0) is c*z^(d-2) and w0^2 = c
_W_CENTRES = {
    "X^2 + X*Y^3 + Y^4 + 1": {
        "witness": {"variables": ["X", "Y"], "assignments": {
            "X": "(-X^4 - Y^4 + X^2)/(X*Y^3 - 2*X^3)", "Y": "(Y)/(X)"}},
        "square_root": "(X^4 + Y^4 - Y^3 + X^2)/(X*Y^3 - 2*X^3)",
        "projection_centre": {"chart": 1,
                              "coordinates": ["0", "1", "0", "1"]}},
    "4*X^2 + X*Y^3 + Y^4 + Y + 1": {
        "witness": {"variables": ["X", "Y"], "assignments": {
            "X": "(-X^4 - X^3*Y - Y^4 + X^2)/(X*Y^3 - 4*X^3)",
            "Y": "(Y)/(X)"}},
        "square_root": "(2*X^4 + 2*X^3*Y + 2*Y^4 - Y^3 + 2*X^2)"
                       "/(X*Y^3 - 4*X^3)",
        "projection_centre": {"chart": 1,
                              "coordinates": ["0", "1", "0", "2"]}},
    "2*X^2 + X*Y^3 + Y^4 + 1": {
        "witness": None,
        "note": "projection centre is not rational; witness omitted"},
}


class TestCentresOffTheBranchCurve:
    """Projection centres with w != 0, read off the branch-curve records;
    no benchmark input reaches them."""

    @pytest.mark.parametrize("text", list(_W_CENTRES))
    def test_rule_7_step_data(self, text):
        f = parse_poly(text)
        v = decide(f)
        assert v.outcome == RATIONALIZABLE
        assert rules(v) == ["radicand-reduction", "simple-singularities"]
        data = v.steps[-1].data
        expected = _W_CENTRES[text]
        assert {k: data[k] for k in expected} == expected
        assert (data["degree"], data["all_simple"], data["milnor_sum"]) == (
            4, True, 2)
        if expected["witness"] is not None:
            assert verify_witness(v.witness, f) is not None

    def test_rule_8_point(self):
        f = parse_poly("X^2 + X*Y^4 + Y^5 + 1")
        v = decide(f)
        assert v.outcome == RATIONALIZABLE
        assert rules(v) == ["radicand-reduction", "simple-singularities",
                            "high-multiplicity-point"]
        data = v.steps[-1].data
        assert data["point"] == {"chart": 1,
                                 "coordinates": ["0", "1", "0", "1"]}
        assert data["hypersurface_degree"] == 5
        assert data["witness"] == {"variables": ["X", "Y"], "assignments": {
            "X": "(-X^5 - Y^5 + X^3)/(X*Y^4 - 2*X^4)", "Y": "(Y)/(X)"}}
        assert data["square_root"] == ("(X^5 + Y^5 - Y^4 + X^3)"
                                       "/(X*Y^4 - 2*X^4)")
        assert verify_witness(v.witness, f) is not None


def test_chart_loop_search_only_for_three_variables(monkeypatch):
    # bivariate radicands take their centres from the branch curve's
    # singular points: cubics in rule 6, the others in rules 7 and 8
    searched, looked_up = [], []
    search, lookup = engine.high_mult_point_search, engine.centre_from_records

    def spy_search(V):
        searched.append((len(V.vars) - 2, V.total_degree()))
        return search(V)

    def spy_lookup(model, points):
        looked_up.append(model.V.total_degree())
        return lookup(model, points)

    monkeypatch.setattr(engine, "high_mult_point_search", spy_search)
    monkeypatch.setattr(engine, "centre_from_records", spy_lookup)
    for text in ("X^3 + Y^2 - 1", "X^2*(X + 1) - Y^2", "X^4 + Y^4 + 1",
                 "X1^4 + X2^4 + X3^4", "X^4 + Y^4 + X^2",
                 "X^2 + X*Y^4 + Y^5 + 1", "X*Y*Z + 1", "X^2*Y + Z^2 + 1",
                 "X^3 + Y^3 + Z^3 + 1"):
        decide(parse_poly(text))
    assert sorted(searched) == [(3, 3), (3, 3), (3, 3)]
    assert sorted(looked_up) == [3, 3, 4, 4, 4, 5]


class TestHighMultiplicitySolver:
    """Inputs whose rule-8 charts have three or four unknowns; each used to
    run until killed, and each decides within the budget now."""

    @pytest.mark.parametrize("text", [
        "X^3 + Y^3 + Z^3 + 1",
        "X^4 + Y^4 + Z^4 + W^4 + X*Y*Z + 1",
    ])
    def test_certified_empty(self, text):
        t0 = time.perf_counter()
        v = decide(parse_poly(text), config=Config(timeout=1))
        assert time.perf_counter() - t0 < 1
        assert v.outcome == INCONCLUSIVE
        assert rules(v)[-1] == "inconclusive"
        assert v.steps[-1].data["high_mult_search_certified_empty"] is True

    @pytest.mark.parametrize("text", [
        "X^2*Y + Z^2 + 1",
        # linear in Y, from the roots-3var benchmark workload (seed 3)
        "-3*X*Y*Z + 2*X^2 + 3*X*Y + 3*X*Z + Y*Z + X - 2*Y + Z + 2",
    ])
    def test_linear_in_one_variable_gets_a_witness(self, text):
        f = parse_poly(text)
        t0 = time.perf_counter()
        v = decide(f, config=Config(timeout=1))
        assert time.perf_counter() - t0 < 1
        assert v.outcome == RATIONALIZABLE
        assert rules(v)[-1] == "high-multiplicity-point"
        assert verify_witness(v.witness, f) is not None


def _univariate_x():
    """Polynomials in X of degree <= 4 with small integer coefficients."""
    return st.lists(st.integers(-3, 3), min_size=1, max_size=5).map(
        lambda cs: MultiPoly(("X", "Y"), {(i, 0): c for i, c in enumerate(cs)
                                          if c})
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_univariate_x().filter(lambda a: not a.is_zero()), _univariate_x())
def test_linear_in_y_never_not_rationalizable(a, b):
    # W^2 = a(X)*Y + b(X) is rational (solve for Y), so NotRationalizable
    # would expose a wrong rule-7 verdict
    f = a * MultiPoly.var(("X", "Y"), "Y") + b
    assert decide(f).outcome != NOT_RATIONALIZABLE


_small = st.integers(-3, 3)
_normal = st.tuples(_small, _small).filter(any)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.tuples(_small, _small), st.lists(_normal, min_size=3, max_size=3),
       st.lists(_small, min_size=3, max_size=3, unique=True))
def test_three_lines_of_a_cubic(point, normals, offsets):
    # three lines through one affine point: W^2 = f is a cubic surface with
    # a double point there, rational by projection from it; three parallel
    # lines: a cone over a smooth plane cubic, which is not rational
    assume(all(a * d != b * c for (a, b), (c, d) in
               zip(normals, normals[1:] + normals[:1])))
    x0, y0 = point
    f = parse_poly("*".join(f"({a}*(X - ({x0})) + ({b})*(Y - ({y0})))"
                            for a, b in normals), ("X", "Y"))
    v = decide(f)
    assert v.outcome == RATIONALIZABLE
    assert rules(v)[-1] == "cubic-triple-point"
    assert verify_witness(v.witness, f) is not None
    a, b = normals[0]
    f = parse_poly("*".join(f"({a}*X + ({b})*Y + ({c}))" for c in offsets),
                   ("X", "Y"))
    assert decide(f).outcome == NOT_RATIONALIZABLE


class TestProjectionNotes:
    """What a step records when the projection witness cannot be built or
    does not verify; rule 6 decides X^3 + Y^2 - 1 from the rational
    centre (0:0:1:1), rule 8 decides X*Y*Z + 1."""

    def test_degenerate_projection_is_noted(self, monkeypatch):
        monkeypatch.setattr(engine, "projection_witness", lambda V, pt: None)
        v = decide(parse_poly("X^3 + Y^2 - 1"))
        assert v.outcome == RATIONALIZABLE and v.witness is None
        data = v.steps[-1].data
        assert v.steps[-1].rule == "cubic-triple-point"
        assert data["witness"] is None
        assert data["note"] == "projection degenerated"

    def test_failed_verification_is_noted(self, monkeypatch):
        monkeypatch.setattr(engine, "verify_witness", lambda m, f: None)
        v = decide(parse_poly("X^3 + Y^2 - 1"))
        assert v.outcome == RATIONALIZABLE and v.witness is None
        data = v.steps[-1].data
        assert data["witness"] is None
        assert data["note"] == ("candidate failed verification and was"
                                " discarded")

    @staticmethod
    def _slow_witness(monkeypatch, seconds):
        """A clock that only the projection witness advances."""
        now = [0.0]
        monkeypatch.setattr(engine, "time",
                            SimpleNamespace(monotonic=lambda: now[0]))
        build = engine.projection_witness

        def slow(V, pt):
            now[0] += seconds
            return build(V, pt)

        monkeypatch.setattr(engine, "projection_witness", slow)

    @pytest.mark.parametrize("text", ["X^3 + Y^2 - 1", "X*Y*Z + 1"])
    def test_witness_time_is_recorded(self, monkeypatch, text):
        self._slow_witness(monkeypatch, 0.5)
        v = decide(parse_poly(text), config=Config(timeout=1))
        assert v.outcome == RATIONALIZABLE and v.witness is not None
        assert v.timings["high-multiplicity-point"] == 0.5

    @pytest.mark.parametrize("text", ["X^3 + Y^2 - 1", "X*Y*Z + 1"])
    def test_witness_over_budget_is_inconclusive(self, monkeypatch, text):
        self._slow_witness(monkeypatch, 5.0)
        v = decide(parse_poly(text), config=Config(timeout=1))
        assert v.outcome == INCONCLUSIVE
        assert rules(v)[-1] == "resource-limit"
        assert "high-multiplicity-point" in v.steps[-1].data["detail"]

    def test_rule_8_without_a_projection_keeps_its_verdict(self, monkeypatch):
        monkeypatch.setattr(engine, "projection_witness", lambda V, pt: None)
        v = decide(parse_poly("X*Y*Z + 1"))
        assert v.outcome == RATIONALIZABLE and v.witness is None
        step = v.steps[-1]
        assert step.rule == "high-multiplicity-point"
        assert "witness" not in step.data
        assert step.data["point"]["coordinates"] == ["0", "1", "0", "0", "0"]


def _agreement_radicands():
    """(name, p, q): the corpus roots, every subset product of the bundled
    alphabets, the golden file's roots with quadratic-field witnesses, and
    a seeded draw whose shapes reach every rule of the cascade."""
    base, entries = _corpus_entries()
    out = []
    for e in entries:
        if e["kind"] == "root":
            g = parse_rational(e["input"])
            out.append((e["input"], g.num, g.den))
            continue
        _vars, roots = load_alphabet(
            json.loads(base.joinpath(e["input"]).read_text()))
        polys = [f for _l, f in roots]
        out += [(f"{e['tag']} {J}", prod, None) for J, prod in
                subset_products(polys, Config.max_subset_size)]
    for text in EXTENSION_ROOTS:
        g = parse_rational(text)
        out.append((text, g.num, g.den))
    out += [(str(f), f, None) for f in prop_helpers.draw_cascade_radicands()]
    return out


_WITNESS_KEYS = {"witness", "square_root", "projection_centre", "note"}


def _snapshot(v):
    """What a verdict reports, steps as serialized (key order included)."""
    return (v.outcome, [json.dumps(s.to_json()) for s in v.steps], v.witness,
            v.witness_sqrt,
            v.singularities and [r.to_json() for r in v.singularities])


def test_outcome_only_decision_agrees_with_the_full_one():
    # witness=False skips every witness but decides the same way: same
    # outcome, same rules, same step data once the witness entries go; and
    # complete() turns it into the full verdict, once: completing again,
    # or completing a verdict that is not Rationalizable, changes nothing
    seen = set()
    for name, p, q in _agreement_radicands():
        full = decide(p, q)
        bare = decide(p, q, witness=False)
        assert bare.outcome == full.outcome, name
        assert rules(bare) == rules(full), name
        assert [s.data for s in bare.steps] == [
            {k: x for k, x in s.data.items() if k not in _WITNESS_KEYS}
            for s in full.steps], name
        assert bare.witness is None and bare.witness_sqrt is None, name
        before = _snapshot(bare)
        assert complete(bare) is bare, name
        assert _snapshot(bare) == _snapshot(full), name
        if full.outcome != RATIONALIZABLE:
            assert _snapshot(bare) == before, name
        assert complete(bare) is bare, name
        assert _snapshot(bare) == _snapshot(full), name
        seen.update(rules(full))
    assert seen == set(RULE_REFS) - {"resource-limit"}


@pytest.mark.parametrize("text, builder, rule", [
    ("X^2 + Y^2 - 1", "quadric_witness", "degree-at-most-2"),
    ("X^3 + Y^2 - 1", "projection_witness", "high-multiplicity-point"),
    ("X*Y*Z + 1", "projection_witness", "high-multiplicity-point"),
    ("X*Y^3 + Z^4", "homogeneous_lift", "homogeneous-reduction"),
], ids=["rule-3", "rule-6", "rule-8", "rule-4-lift"])
def test_limit_reached_during_completion(monkeypatch, text, builder, rule):
    # a clock that only the witness builder advances: the decision holds,
    # completion exceeds the budget and ends Inconclusive as a fresh
    # decision does, the deciding step replaced by resource-limit
    now = [0.0]
    monkeypatch.setattr(engine, "time",
                        SimpleNamespace(monotonic=lambda: now[0]))
    real = getattr(engine, builder)

    def slow(*args):
        now[0] += 5.0
        return real(*args)

    monkeypatch.setattr(engine, builder, slow)
    config = Config(timeout=1)
    v = decide(parse_poly(text), config=config, witness=False)
    assert v.outcome == RATIONALIZABLE
    deciding = rules(v)
    assert complete(v) is v
    assert v.outcome == INCONCLUSIVE and v.witness is None
    assert rules(v) == deciding[:-1] + ["resource-limit"]
    assert rule in v.steps[-1].data["detail"]
    assert v.timings[rule] >= 5.0
    assert _snapshot(v) == _snapshot(decide(parse_poly(text), config=config))
