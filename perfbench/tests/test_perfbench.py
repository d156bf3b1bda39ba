"""Tests of the benchmark itself (not of the engine).

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _children():
    pid = os.getpid()
    out = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        out += (task / "children").read_text().split()
    return out


# -- inputs -----------------------------------------------------------------


def test_same_seed_gives_byte_identical_inputs():
    code = ("import json, sys; sys.path.insert(0, 'perfbench'); "
            "import workloads; print(json.dumps({w: workloads.generate(w, 11)"
            " for w in sorted(workloads.WORKLOADS)}, sort_keys=True))")
    outs = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        outs.append(subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                                   env=env, capture_output=True, check=True)
                    .stdout)
    assert outs[0] == outs[1]
    here = json.dumps({w: workloads.generate(w, 11)
                       for w in sorted(workloads.WORKLOADS)}, sort_keys=True)
    assert here.encode() + b"\n" == outs[0]
    assert workloads.generate("roots-mixed", 12) != workloads.generate(
        "roots-mixed", 11)


def test_workloads_have_fixed_sizes_and_distinct_inputs():
    for w in workloads.WORKLOADS:
        items = workloads.generate(w, 3)
        assert len(items) >= 100, w  # p90 needs 10 samples beyond it
        assert len(items) == len(workloads.generate(w, 4))
        keys = [workloads._key(it) for it in items]
        assert len(set(keys)) == len(keys)
        assert workloads.WARMUP_TEXT not in keys


def test_univariate_and_binary_form_radicands_are_squarefree():
    import sympy

    for seed in (1, 2, 9):
        texts = [it["text"] for it in workloads.generate("roots-mixed", seed)
                 if it["cat"] in ("univariate", "binary-form")]
        assert len(texts) == 80
        for text in texts:
            _c, factors = sympy.sqf_list(check.parse(text))
            assert all(m == 1 for _f, m in factors), text


# -- checker ----------------------------------------------------------------


def _root_report(outcome, witness=None):
    report = {"outcome": outcome, "steps": []}
    if witness is not None:
        report["witness"] = witness
    return {"report": json.dumps(report)}


CIRCLE = {"kind": "root", "text": "1 - X^2", "expect": None}
CIRCLE_WITNESS = {"variables": ["X"],
                  "assignments": {"X": "(2*X)/(X^2 + 1)"},
                  "square_root": "(X^2 - 1)/(X^2 + 1)"}


def test_checker_accepts_a_true_witness():
    problems, witnessed = check.check(
        CIRCLE, _root_report("Rationalizable", CIRCLE_WITNESS))
    assert problems == [] and witnessed


def test_checker_rejects_a_forged_witness():
    forged = dict(CIRCLE_WITNESS, square_root="(X^2 - 2)/(X^2 + 1)")
    problems, _ = check.check(CIRCLE, _root_report("Rationalizable", forged))
    assert any("does not square" in p for p in problems)
    constant = {"variables": ["X"], "assignments": {"X": "0"},
                "square_root": "1"}
    problems, _ = check.check(CIRCLE, _root_report("Rationalizable", constant))
    assert any("degenerate" in p for p in problems)


def test_checker_rejects_a_flipped_verdict():
    problems, _ = check.check(CIRCLE, _root_report("NotRationalizable"))
    assert problems
    cubic = {"kind": "root", "text": "1 - X^3", "expect": None}
    assert check.check(cubic, _root_report("Rationalizable"))[0]
    assert not check.check(cubic, _root_report("NotRationalizable"))[0]
    assert not check.check(cubic, _root_report("Inconclusive"))[0]
    lines = {"kind": "alphabet", "expect": None,
             "doc": {"roots": [{"label": "a", "radicand": "X - 1"},
                               {"label": "b", "radicand": "X - 2"}]}}
    assert check.check(lines, {"report": json.dumps(
        {"outcome": "NotRationalizable"})})[0]


def test_alphabet_reference_follows_the_genus_of_the_cover():
    ref = check.reference_univariate_alphabet
    assert ref(["X - 1", "X - 2"]) == "Rationalizable"
    assert ref(["X - 1", "X - 2", "X - 3"]) == "NotRationalizable"
    assert ref(["X^2 + 1", "X^2 + 2"]) == "NotRationalizable"
    assert ref(["1 - X^2", "(1 - X^2)*(X - 3)^2"]) == "Rationalizable"
    assert ref(["X", "X + 1", "X*(X + 1)"]) == "Rationalizable"


def test_root_reference():
    assert check.reference_root("(X^2 + 1)*(X - 3)^2") == "Rationalizable"
    assert check.reference_root("(X - 1)/(X^2 + 2)") == "NotRationalizable"
    assert check.reference_root("X^4 + 3*X^2*Y^2 + Y^4") == "NotRationalizable"
    assert check.reference_root("X^3*Y - X*Y^3") == "NotRationalizable"
    assert check.reference_root("X^2*Y^2") == "Rationalizable"
    assert check.reference_root("X^3 + Y^3 + 1") is None


# -- guard ------------------------------------------------------------------


def test_guard_stops_a_hanging_input_within_the_grace():
    item = {"id": 0, "kind": "root", "cat": "stress",
            "text": "X^3 + Y^3 + Z^3 + 1", "expect": None}
    t0 = time.monotonic()
    _setup, results, done = run.run_worker([item], "roots-3var",
                                           time.monotonic() + 60)
    guard_ms = (run.TIMEOUT_3VAR_S + run.GRACE_S) * 1000.0
    (res,) = results
    assert res["stopped"] and res.get("outcome") is None
    assert guard_ms - 5 <= res["ms"] <= guard_ms + 100
    assert run.latencies_ms(results, done, guard_ms) == [guard_ms]
    assert done["done"]
    assert time.monotonic() - t0 < 30
    assert _children() == []


def test_latencies_are_scaled_by_the_calibration_loops_around_them():
    results = [{"stopped": False, "cpu_ms": 30.0, "cal_ms": 10.0},
               {"stopped": False, "cpu_ms": 30.0, "cal_ms": 20.0},
               {"stopped": True, "cpu_ms": 900.0, "cal_ms": 40.0}]
    ref = run.CAL_REF_MS
    assert run.latencies_ms(results, {"cal_ms": 40.0}, 1250.0) == [
        30.0 * ref / 15.0, 30.0 * ref / 30.0, 1250.0]


def test_worker_without_the_engine_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roots-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- tracing ----------------------------------------------------------------


def _mixed_items():
    """A few inputs of every workload, ending with a stress input that the
    guard stops."""
    alphabets = workloads.generate("alphabets", 5)
    items = (workloads.generate("roots-mixed", 5)[:8]
             + workloads.generate("roots-curves", 5)[:4]
             + [it for it in alphabets if it["cat"] == "corpus:shifted-pair"]
             + [it for it in alphabets if it["cat"] == "small"][:4]
             + [it for it in workloads.generate("roots-3var", 5)
                if it["text"] == workloads.STRESS_3VAR[0]])
    for i, it in enumerate(items):
        it["id"] = i
    return items


def test_traced_counters_repeat_exactly(tmp_path):
    items = _mixed_items()
    layers = []
    for k in range(2):
        _s, results, done = run.run_worker(
            items, "roots-3var", time.monotonic() + 150,
            trace_path=tmp_path / f"spans-{k}.jsonl")
        assert sum(r["stopped"] for r in results) == 1
        layers.append(done["layers"])
    counts = [name for name, unit in run.tracing.metric_names()
              if unit in ("count", "ratio")]
    assert {n: layers[0][n] for n in counts} == {n: layers[1][n]
                                                 for n in counts}
    first = layers[0]
    assert first["guard.stopped"] == 1
    assert first["engine.decide.calls"] > 0
    assert first["alphabet.subset_products.yielded"] > 0
    assert first["alphabet.decide.calls"] > 0
    assert 0 < first["sympy.sqf_list.calls"]
    lines = (tmp_path / "spans-0.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["stopped_inputs"] == [len(items) - 1]
    assert len(lines) > 1
    assert _children() == []


def test_benchmark_json_lists_every_workload_and_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(
        run.METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(
        run.tracing.metric_names() + list(run.OVERHEAD))
    for w in spec["workloads"]:
        n = len(workloads.generate(w["name"], 1))
        assert f"(N={n})" in w["why"]
