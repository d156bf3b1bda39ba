"""End-to-end acceptance gate: ten criteria, one printed line each.

Each test prints a single PASS/FAIL line (routed past pytest's capture so
the scoreboard is always visible) and enforces the stated time budget.
"""

import sys
import time

from ratsqrt.alphabet import decide_alphabet
from ratsqrt.engine import (
    INCONCLUSIVE,
    NOT_RATIONALIZABLE,
    RATIONALIZABLE,
    Config,
    decide,
)
from ratsqrt.localanalysis import classify_germ, milnor_via_jets
from ratsqrt.mpoly import RationalMap, effective_vars
from ratsqrt.parser import parse_poly, parse_rational
from ratsqrt.report import dumps, strip_timings
from ratsqrt.unipoly import derivative
from ratsqrt.witness import verify_witness

import conftest
import prop_helpers as props


def scoreboard(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'}  criterion {num}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.record_scoreboard_line(line)
    assert ok, line


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()

    def elapsed(self):
        return time.monotonic() - self.start

    def ok(self):
        return self.elapsed() < self.limit


def test_criterion_01_basic_examples():
    b = Budget(2.0)  # < 1 s each
    f = parse_poly("1 - X^2", ("X",))
    v1 = decide(f)
    ok = (
        v1.outcome == RATIONALIZABLE
        and v1.witness is not None
        and verify_witness(v1.witness, f) is not None
    )
    v2 = decide(parse_poly("1 - X^3", ("X",)))
    ok = ok and v2.outcome == NOT_RATIONALIZABLE and b.ok()
    scoreboard(
        1, ok,
        f"sqrt(1-X^2) {v1.outcome} with verified witness;"
        f" sqrt(1-X^3) {v2.outcome} ({b.elapsed():.2f}s)",
    )


def test_criterion_02_bhabha():
    b = Budget(10.0)
    p = parse_poly("(X + Y)*(1 + X*Y)", ("X", "Y"))
    q = parse_poly("X + Y - 4*X*Y + X^2*Y + X*Y^2", ("X", "Y"))
    v = decide(p, q)
    terminal = v.steps[-1]
    ok = (
        v.outcome == NOT_RATIONALIZABLE
        and terminal.rule == "simple-singularities"
        and terminal.data["degree"] == 6
        and terminal.data["all_simple"] is True
        and all(r["class"] != "NonSimple" for r in terminal.data["singularities"])
        and b.ok()
    )
    scoreboard(
        2, ok,
        f"degree-6 radicand {v.outcome}, all-simple table with"
        f" {len(terminal.data['singularities'])} entries ({b.elapsed():.2f}s)",
    )


def test_criterion_03_higgs_alphabet():
    b = Budget(2.0)
    roots = [
        ("f1", parse_poly("X", ("X",))),
        ("f2", parse_poly("1 + 4*X", ("X",))),
        ("f3", parse_poly("X*(X - 4)", ("X",))),
    ]
    v = decide_alphabet(roots)
    c = v.certificate
    prod = c.reduced_product if c else None
    ok = (
        v.outcome == NOT_RATIONALIZABLE
        and prod is not None
        and prod.total_degree() == 3
        and len(effective_vars(prod)) == 1
        and b.ok()
    )
    scoreboard(
        3, ok,
        f"{v.outcome} via subset {sorted(c.labels) if c else None},"
        f" degree-3 univariate product ({b.elapsed():.2f}s)",
    )


def test_criterion_04_dijet_alphabet():
    b = Budget(60.0)
    roots = [
        ("f1", parse_poly("X + 1", ("X", "Y"))),
        ("f2", parse_poly("X - 1", ("X", "Y"))),
        ("f3", parse_poly("Y + 1", ("X", "Y"))),
        ("f4", parse_poly("X + Y + 1", ("X", "Y"))),
        ("f5", parse_poly("16*X + (4 + Y)^2", ("X", "Y"))),
    ]
    v = decide_alphabet(roots)
    c = v.certificate
    simple_step = None
    if c is not None:
        for s in c.inner.steps:
            if s.rule == "simple-singularities":
                simple_step = s
    ok = (
        v.outcome == NOT_RATIONALIZABLE
        and c is not None
        and c.reduced_product.total_degree() == 6
        and simple_step is not None
        and simple_step.data["all_simple"] is True
        and b.ok()
    )
    scoreboard(
        4, ok,
        f"{v.outcome} via degree-6 subset product with only simple"
        f" singularities ({b.elapsed():.2f}s)",
    )


def test_criterion_05_fermat_quartics():
    b = Budget(20.0)  # < 10 s each
    v2 = decide(parse_poly("X1^4 + X2^4", ("X1", "X2")))
    rules2 = [s.rule for s in v2.steps]
    v3 = decide(parse_poly("X1^4 + X2^4 + X3^4", ("X1", "X2", "X3")))
    rules3 = [s.rule for s in v3.steps]
    ok = (
        v2.outcome == NOT_RATIONALIZABLE
        and "homogeneous-reduction" in rules2
        and v3.outcome == RATIONALIZABLE
        and "homogeneous-reduction" in rules3
        and b.ok()
    )
    scoreboard(
        5, ok,
        f"X1^4+X2^4 {v2.outcome}; X1^4+X2^4+X3^4 {v3.outcome}, both via"
        f" dehomogenization ({b.elapsed():.2f}s)",
    )


def test_criterion_06_drell_yan():
    b = Budget(120.0)
    vs = ("X1", "X2", "X3")
    roots = [
        ("f1", parse_poly("X1*(X1 - 4*X3)", vs)),
        ("f2", parse_poly("-X1*X2*(4*X3*(X3 + X2) - X1*X2)", vs)),
        ("f3", parse_poly("X1*(X2^2*(X1 - 4*X3) + X3*X1*(X3 - 2*X2))", vs)),
    ]
    v = decide_alphabet(roots)
    blocked = [e for e in v.trace if e["outcome"] == INCONCLUSIVE]
    ok = (
        v.outcome == INCONCLUSIVE
        and all(e["outcome"] != NOT_RATIONALIZABLE for e in v.trace)
        and {e["degree"] for e in blocked} == {6, 8}
        and all(
            e["obstruction"]["reason"] == "branch curve has non-simple singularities"
            for e in blocked
        )
        and b.ok()
    )
    scoreboard(
        6, ok,
        f"{v.outcome}; degree-6 and degree-8 products obstructed by"
        f" non-simple singularities, nothing over-claimed"
        f" ({b.elapsed():.2f}s)",
    )


def test_criterion_07_pair_with_dead_end():
    b = Budget(5.0)
    roots = [
        ("f1", parse_poly("X - 1", ("X",))),
        ("f2", parse_poly("X - 2", ("X",))),
    ]
    # the dead-end candidate rationalizes X-1 but sends X-2 to the
    # non-rationalizable X^4 - 1; the search must back out of it
    dead_end = RationalMap(("X",), {"X": parse_rational("X^4 + 1", ("X",))})
    v = decide_alphabet(roots, extra_witnesses=[dead_end])
    ok = v.outcome == RATIONALIZABLE and v.witness is not None
    if ok:
        for _l, f in roots:
            ok = ok and verify_witness(v.witness, f) is not None
    ok = ok and b.ok()
    scoreboard(
        7, ok,
        f"{{X-1, X-2}} {v.outcome} with composite verified witness despite"
        f" the X->X^4+1 dead end ({b.elapsed():.2f}s)",
    )


def test_criterion_08_singularity_catalog():
    b = Budget(5.0)
    from sympy.polys.domains import QQ

    catalog = [
        ({(2, 0): QQ(1), (0, 2): QQ(1)}, "A1", 1),
        ({(2, 0): QQ(1), (0, 3): QQ(1)}, "A2", 2),
        ({(2, 0): QQ(1), (0, 4): QQ(1)}, "A3", 3),
        ({(2, 0): QQ(1), (0, 5): QQ(1)}, "A4", 4),
        ({(2, 0): QQ(1), (0, 6): QQ(1)}, "A5", 5),
        ({(2, 1): QQ(1), (0, 3): QQ(-1)}, "D4", 4),
        ({(3, 0): QQ(1), (0, 4): QQ(1)}, "E6", 6),
        ({(3, 0): QQ(1), (1, 3): QQ(1)}, "E7", 7),
        ({(3, 0): QQ(1), (0, 5): QQ(1)}, "E8", 8),
        ({(3, 0): QQ(1), (0, 6): QQ(1)}, "NonSimple", 10),
        ({(4, 0): QQ(1), (0, 4): QQ(1)}, "NonSimple", None),
    ]
    ok = True
    for germ, label, mu in catalog:
        c = classify_germ(germ)
        if c.label() != label or c.mu != mu:
            ok = False
            break
        if mu is not None:
            # the jet-quotient route must agree independently
            jets = milnor_via_jets(derivative(germ, 0), derivative(germ, 1))
            if jets != mu:
                ok = False
                break
    ok = ok and b.ok()
    scoreboard(
        8, ok,
        f"{len(catalog)} germs classified, both Milnor routes agreeing"
        f" ({b.elapsed():.2f}s)",
    )


def test_criterion_09_property_suites():
    b = Budget(600.0)
    counts = {
        "square-multiples": props.suite_square_multiple_invariance(),
        "affine-changes": props.suite_affine_invariance(),
        "witness-gate": props.suite_witness_gate(),
        "alphabet-permutation": props.suite_alphabet_permutation(),
        "milnor-bound": props.suite_milnor_bound(),
    }
    ok = all(n >= 200 for n in counts.values()) and b.ok()
    scoreboard(
        9, ok,
        "; ".join(f"{k} x{n}" for k, n in counts.items())
        + f" ({b.elapsed():.1f}s)",
    )


def test_criterion_10_determinism():
    from ratsqrt.cli import run_corpus

    b = Budget(300.0)
    cfg = Config()
    sink = lambda *_a, **_k: None
    r1, m1 = run_corpus(cfg, out=sink)
    r2, m2 = run_corpus(cfg, out=sink)
    s1 = dumps([strip_timings(r) for r in r1])
    s2 = dumps([strip_timings(r) for r in r2])
    ok = not m1 and not m2 and s1.encode() == s2.encode() and b.ok()
    scoreboard(
        10, ok,
        f"two corpus runs byte-identical over {len(r1)} reports, timings"
        f" excluded ({b.elapsed():.1f}s)",
    )
