"""Simultaneous rationalizability of root sets."""

import json
from importlib import resources

import pytest

from ratsqrt import alphabet, engine, witness
from ratsqrt.alphabet import (
    decide_alphabet,
    sequential_rationalize,
    subset_products,
)
from ratsqrt.engine import (
    INCONCLUSIVE,
    NOT_RATIONALIZABLE,
    RATIONALIZABLE,
    Config,
)
from ratsqrt.errors import TooManyRoots
from ratsqrt.mpoly import (
    RationalMap,
    effective_vars,
    poly_str,
    rf_str,
    squarefree_part,
    substitute,
)
from ratsqrt.parser import load_alphabet, parse_poly, parse_rational
from ratsqrt.report import alphabet_report
from ratsqrt.witness import verify_witness


def roots(*texts, vs=("X",)):
    return [(f"f{i+1}", parse_poly(t, vs)) for i, t in enumerate(texts)]


HIGGS = roots("X", "1 + 4*X", "X*(X - 4)")
PAIR = roots("X - 1", "X - 2")
DIJET = roots(
    "X + 1", "X - 1", "Y + 1", "X + Y + 1", "16*X + (4 + Y)^2",
    vs=("X", "Y"),
)
CAP = Config.max_subset_size


class TestSubsetProducts:
    def test_count_and_reduction(self):
        polys = [f for _l, f in HIGGS]
        out = list(subset_products(polys, CAP))
        assert len(out) == 7
        for _J, prod in out:
            assert squarefree_part(prod) == prod

    def test_enumeration_order(self):
        # certification order: singletons, then sizes n down to 2, each
        # size in lexicographic order
        polys = [f for _l, f in DIJET]
        order = [J for J, _p in subset_products(polys, CAP)]
        assert order[:6] == [(0,), (1,), (2,), (3,), (4,), (0, 1, 2, 3, 4)]
        assert order[6:11] == [
            (0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4),
            (1, 2, 3, 4),
        ]
        sizes = [len(J) for J in order[5:]]
        assert sizes == sorted(sizes, reverse=True) and sizes[-1] == 2
        for size in range(2, 6):
            block = [J for J in order[5:] if len(J) == size]
            assert block == sorted(block)
        assert len(order) == len(set(order)) == 2 ** 5 - 1

    def test_products_built_lazily(self, monkeypatch):
        # a consumer that stops after k subsets pays for k products only
        calls = []
        real = alphabet.squarefree_part
        monkeypatch.setattr(
            alphabet, "squarefree_part", lambda p: calls.append(p) or real(p)
        )
        polys = [f for _l, f in DIJET]
        gen = subset_products(polys, CAP)
        for _ in range(7):
            next(gen)
        assert len(calls) == 7

    def test_singletons_reproduce_inputs(self):
        polys = [f for _l, f in PAIR]
        for J, prod in subset_products(polys, CAP):
            if len(J) == 1:
                assert prod.monic() == polys[J[0]].monic()

    def test_cap_enforced(self):
        polys = [parse_poly(f"X - {k}", ("X",)) for k in range(13)]
        with pytest.raises(TooManyRoots):
            list(subset_products(polys, CAP))
        small = [parse_poly(f"X - {k}", ("X",)) for k in range(5)]
        assert len(list(subset_products(small, cap=5))) == 2 ** 5 - 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            list(subset_products([], CAP))


class TestDecideAlphabet:
    def test_higgs_certificate(self):
        v = decide_alphabet(HIGGS)
        assert v.outcome == NOT_RATIONALIZABLE
        c = v.certificate
        assert c is not None
        assert c.reduced_product.total_degree() == 3
        assert len(c.reduced_product.vars) == 1 or len(
            [x for x in c.reduced_product.vars if c.reduced_product.degree_in(x)]
        ) == 1
        assert c.inner.outcome == NOT_RATIONALIZABLE

    def test_pair_composite_witness(self):
        v = decide_alphabet(PAIR)
        assert v.outcome == RATIONALIZABLE
        assert v.witness is not None
        for _l, f in PAIR:
            assert verify_witness(v.witness, f) is not None
        assert set(v.root_squares) == {"f1", "f2"}

    def test_dijet_full_subset_certificate(self):
        v = decide_alphabet(DIJET)
        assert v.outcome == NOT_RATIONALIZABLE
        assert v.certificate.reduced_product.total_degree() == 6
        # the inner verdict rests on the all-simple degree criterion
        assert any(
            s.rule == "simple-singularities" and s.data["all_simple"]
            for s in v.certificate.inner.steps
        )

    def test_drell_yan_inconclusive_with_trace(self):
        dy = roots(
            "X1*(X1 - 4*X3)",
            "-X1*X2*(4*X3*(X3 + X2) - X1*X2)",
            "X1*(X2^2*(X1 - 4*X3) + X3*X1*(X3 - 2*X2))",
            vs=("X1", "X2", "X3"),
        )
        v = decide_alphabet(dy)
        assert v.outcome == INCONCLUSIVE
        assert any(n.startswith("all roots homogeneous") for n in v.notes)
        blocked = [e for e in v.trace if e["outcome"] == INCONCLUSIVE]
        assert {e["degree"] for e in blocked} == {6, 8}
        for e in blocked:
            assert e["obstruction"]["reason"].startswith("branch curve")

    def test_monotonicity_superset_stays_not_rationalizable(self):
        bigger = HIGGS + roots("X + 9")[:1]
        bigger = HIGGS + [("g1", parse_poly("X + 9", ("X",)))]
        v = decide_alphabet(bigger)
        assert v.outcome == NOT_RATIONALIZABLE

    def test_singleton_alphabet(self):
        v = decide_alphabet(roots("X - 1"))
        assert v.outcome == RATIONALIZABLE
        assert v.witness is not None

    def test_stops_at_the_certificate(self, monkeypatch):
        # products after the certificate are never multiplied or reduced
        yielded = []
        real = alphabet.subset_products

        def counting(*args, **kwargs):
            for item in real(*args, **kwargs):
                yielded.append(item[0])
                yield item

        monkeypatch.setattr(alphabet, "subset_products", counting)
        alph = HIGGS + [("g1", parse_poly("X + 9", ("X",)))]
        v = decide_alphabet(alph)
        assert v.outcome == NOT_RATIONALIZABLE
        assert len(yielded) == len(v.trace) < 2 ** 4 - 1
        assert v.certificate.labels == tuple(alph[j][0] for j in yielded[-1])

    def test_one_witness_check_per_root(self, monkeypatch):
        # after the search, the final gate checks each root once and its
        # square roots become the report's root_squares
        calls = []
        real = alphabet.verify_witness
        monkeypatch.setattr(
            alphabet, "verify_witness",
            lambda m, f: calls.append((m, f)) or real(m, f),
        )
        v = decide_alphabet(PAIR)
        assert v.outcome == RATIONALIZABLE
        assert len(calls) == len(PAIR)
        assert all(m == v.witness for m, _f in calls)
        assert [f for _m, f in calls] == [f for _l, f in PAIR]
        assert set(v.root_squares) == {"f1", "f2"}

    @pytest.mark.parametrize("alpha", [
        PAIR,
        roots("X", "X + 1", "X + Y", vs=("X", "Y")),
        roots("X*Y", "Y*Z", "X*Z", vs=("X", "Y", "Z")),
    ], ids=["pair", "three", "homogeneous"])
    def test_no_radicand_decided_twice(self, monkeypatch, alpha):
        # each radicand is decided once, outcome only: phase 1 decides the
        # distinct subset products in trace order, and after it phase 2 and
        # the search complete cached verdicts, deciding only new images
        calls = []
        real_decide = alphabet.decide

        def spy_decide(p, q, config, *, witness=True):
            calls.append((witness, (tuple(effective_vars(p)), poly_str(p))))
            return real_decide(p, q, config, witness=witness)

        monkeypatch.setattr(alphabet, "decide", spy_decide)
        # Rationalizable needs the search, so both phases ran
        v = decide_alphabet(alpha)
        assert v.outcome == RATIONALIZABLE
        keys = [k for _w, k in calls]
        assert len(keys) == len(set(keys))
        assert not any(w for w, _k in calls)
        products = list(dict.fromkeys(e["reduced_product"] for e in v.trace))
        assert [k[1] for k in keys[:len(products)]] == products

    @pytest.mark.parametrize("name, curves", [
        ("dijet", 1), ("drellyan", 6), ("higgs", 0), ("pair", 0),
    ])
    def test_each_branch_curve_analysed_once(self, monkeypatch, name, curves):
        # a singleton's witness is built from the model and records of its
        # phase-1 decision, so rule 7 runs once per distinct curve
        seen = []
        real = engine.all_simple
        monkeypatch.setattr(engine, "all_simple", lambda model: (
            seen.append(poly_str(model.B)) or real(model)))
        doc = json.loads(resources.files("ratsqrt").joinpath(
            "data", f"{name}.json").read_text())
        decide_alphabet(load_alphabet(doc)[1])
        assert len(seen) == len(set(seen)) == curves

    @pytest.mark.parametrize("alpha", [
        HIGGS,
        roots("X + Y", "X + Y + 1", "X + Y - 1", vs=("X", "Y")),
    ], ids=["higgs", "parallel-lines"])
    def test_not_rationalizable_builds_no_witness(self, monkeypatch, alpha):
        # phase 1 reads only outcomes, and phase 2 never starts
        built = []
        for module, name in ((engine, "quadric_witness"),
                             (engine, "projection_witness"),
                             (engine, "homogeneous_lift"),
                             (engine, "verify_witness"),
                             (witness, "verify_witness"),
                             (alphabet, "verify_witness")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real, name=name:
                                built.append(name) or real(*a))
        v = decide_alphabet(alpha)
        assert v.outcome == NOT_RATIONALIZABLE
        assert all(e["outcome"] == RATIONALIZABLE for e in v.trace[:-1])
        assert built == []

    def test_homogeneous_alphabet_lifts_its_witness(self):
        # an all-even homogeneous alphabet is solved dehomogenized and the
        # witness lifted back; the lifted map rationalizes every root
        hom = roots("X*Y", "Y*Z", "X*Z", vs=("X", "Y", "Z"))
        v = decide_alphabet(hom)
        assert any(n.startswith("all roots homogeneous") for n in v.notes)
        assert v.outcome == RATIONALIZABLE
        for label, f in hom:
            h = verify_witness(v.witness, f)
            assert h is not None
            assert v.root_squares[label] == rf_str(h)

    def test_permutation_invariant_outcome(self):
        import itertools

        for perm in itertools.permutations(PAIR):
            assert decide_alphabet(list(perm)).outcome == RATIONALIZABLE
        for perm in itertools.permutations(HIGGS):
            assert decide_alphabet(list(perm)).outcome == NOT_RATIONALIZABLE


class TestSequentialSearch:
    def test_pair_solution_verifies(self):
        polys = [f for _l, f in PAIR]
        found = sequential_rationalize(polys)
        assert found is not None
        m, hs = found
        assert len(hs) == len(polys)
        for f, h in zip(polys, hs):
            assert h == verify_witness(m, f)
            assert h * h == substitute(f, m)

    def test_dead_end_recovery(self):
        # X -> X^4 + 1 rationalizes X - 1 but turns X - 2 into the
        # non-rationalizable X^4 - 1; the search must backtrack past it
        bad = RationalMap(("X",), {"X": parse_rational("X^4 + 1", ("X",))})
        polys = [f for _l, f in PAIR]
        assert verify_witness(bad, polys[0]) is not None
        assert verify_witness(bad, polys[1]) is None
        found = sequential_rationalize(polys, extra_witnesses=[bad])
        assert found is not None
        m, hs = found
        assert m != bad
        for f, h in zip(polys, hs):
            assert h is not None and h == verify_witness(m, f)

    def test_a_candidate_without_a_homogeneous_lift_is_a_dead_end(self):
        # X -> Y/(Z - 1)^2 rationalizes the dehomogenized roots, but its
        # denominator vanishes at Z = 1, where the lift reads it; the
        # search backs out of it and finds a witness that lifts
        XYZ = ("X", "Y", "Z")
        alpha = roots("X*Y", "Y*Z", "X*Z", vs=XYZ)
        bad = RationalMap(XYZ, {"X": parse_rational("Y/(Z - 1)^2", XYZ),
                                "Y": parse_rational("Y", XYZ)})
        v = decide_alphabet(alpha, extra_witnesses=[bad])
        assert v.outcome == RATIONALIZABLE
        assert v.witness != bad
        for _l, f in alpha:
            assert verify_witness(v.witness, f) is not None
        assert witness.homogeneous_lift(bad, alpha[0][1], "Z") is None

    def test_single_root(self):
        f = parse_poly("X - 1", ("X",))
        m, (h,) = sequential_rationalize([f])
        assert h * h == substitute(f, m)

    def test_the_first_witness_is_not_composed_with_the_identity(
            self, monkeypatch):
        # the running map starts as the identity, so the first accepted
        # witness becomes it: one composition for two roots, where
        # composing with the identity made two, and the same report
        calls = []
        real = alphabet.compose
        monkeypatch.setattr(alphabet, "compose",
                            lambda o, i: calls.append((o, i)) or real(o, i))
        doc = {"roots": [{"radicand": "X - 8"}, {"radicand": "X - 6"}]}
        v = decide_alphabet(load_alphabet(doc)[1])
        assert len(calls) == 1
        report = alphabet_report(doc, v, Config())
        assert report["witness"] == {"assignments": {
            "X": "(33/4*X^4 + 3*X^3 - 13/2*X^2 + 3*X + 33/4)"
                 "/(X^4 - 2*X^2 + 1)"}, "variables": ["X"]}
        assert report["root_square_roots"] == {
            "r1": "(1/2*X^2 + 3*X + 1/2)/(X^2 - 1)",
            "r2": "(3/2*X^2 + X + 3/2)/(X^2 - 1)"}

    def test_failure_is_none_not_a_proof(self):
        # roots that are individually fine but given no ordering budget
        polys = [f for _l, f in PAIR]
        cfg = Config()
        cfg.ordering_budget = 0
        assert sequential_rationalize(polys, cfg) is None
