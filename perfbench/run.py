"""The ratsqrt benchmark: four closed-loop workloads from one seed.

    python3 perfbench/run.py --workload roots-mixed --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

Run it from the repository root.  Each workload is a fixed, seeded list of
input texts (workloads.py).  One pass runs the whole list in a fresh worker
process (worker.py), a single client sending the next input only after the
previous one returned.  Passes repeat, each in a new worker, while another
pass still fits in ``--seconds``; there is always at least one.  Runs are
never cut short by time, so every share is an exact count over a fixed N.

Every output is checked outside the timed path against references that do
not use the engine (check.py); passes must agree input by input, and the
digest of the reports with timings stripped must be identical.  A failed
check is printed and makes the exit code 1; a guard stop is not a failed
check but counts as a failed input.

``--trace 0`` reports the end-to-end metrics (METRICS); ``--trace 1`` runs
one untraced and one traced pass and reports the per-layer metrics
(tracing.py) with the tracing overhead.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it show each metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import mpmath  # installed with sympy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
OUT = ROOT / ".perfbench"

METRICS = (  # name, unit
    ("setup_s", "s"),
    ("throughput_per_s", "inputs/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("decided_share", "ratio"),
    ("witness_share", "ratio"),
    ("completed_share", "ratio"),
    ("peak_rss_mb", "MB"),
)
OVERHEAD = (("trace.untraced_throughput_per_s", "inputs/s"),
            ("trace.traced_throughput_per_s", "inputs/s"),
            ("trace.overhead_ratio", "ratio"))

# roots-3var calls decide with Config(timeout=T) and stops an input at T
# plus a grace; the other workloads keep the default Config (30 s soft
# timeout) under a guard that no input comes near.
TIMEOUT_3VAR_S = 1.0
GRACE_S = 0.25
# CPU ms of worker.calibrate at the reference host speed: about its median
# on the 2-vCPU Xeon host the benchmark was set up on
CAL_REF_MS = 10.0
GUARD_S = 10.0
SETUP_ONLY_WORKERS = 3
DEADLINE_S = 170.0  # the whole run, so it ends within 180 s


class BenchError(RuntimeError):
    pass


def limits(workload):
    """(Config timeout or None for the default, guard seconds)."""
    if workload == "roots-3var":
        return TIMEOUT_3VAR_S, TIMEOUT_3VAR_S + GRACE_S
    return None, GUARD_S


def machine():
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    return {"python": platform.python_version(), "sympy": sympy.__version__,
            "ground_types": GROUND_TYPES, "nproc": os.cpu_count()}


# --------------------------------------------------------------------------
# workers


def _worker_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(items, workload, deadline, trace_path=None):
    """One pass in a fresh worker: (setup_s, results, done)."""
    timeout, guard_s = limits(workload)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")], cwd=str(ROOT),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=_worker_env(),
        text=True)
    killer = threading.Timer(max(deadline - time.monotonic(), 0.1), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if not ready.strip() or not json.loads(ready).get("ready"):
            raise BenchError("worker did not start (is src/ratsqrt present?)")
        proc.stdin.write(json.dumps({
            "items": items, "timeout": timeout, "guard_s": guard_s,
            "trace": trace_path is not None,
            "trace_path": str(trace_path) if trace_path else None}) + "\n")
        proc.stdin.flush()
        results = []
        done = None
        for line in proc.stdout:
            msg = json.loads(line)
            if msg.get("done"):
                done = msg
                break
            results.append(msg)
        if done is None:
            raise BenchError("worker ended early or passed the run deadline")
        return setup_s, results, done
    finally:
        killer.cancel()
        proc.stdin.close()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


# --------------------------------------------------------------------------
# evaluation


def _terminal(item, report):
    if item["kind"] == "root":
        return report["steps"][-1]["rule"] if report["steps"] else "none"
    cert = report.get("certificate")
    if cert is not None:
        steps = cert["inner_steps"]
        return f"certificate:{steps[-1]['rule'] if steps else 'none'}"
    return f"alphabet:{report['outcome']}"


def _stripped(res):
    """The report of a result without its timings, or None."""
    if res.get("report") is None:
        return None
    report = json.loads(res["report"])
    return json.dumps({k: v for k, v in report.items() if k != "timings"},
                      sort_keys=True)


def evaluate(items, results):
    """Check one pass: (per-input records, problems found)."""
    per_input = []
    problems = []
    for item, res in zip(items, results):
        rec = {"id": item["id"], "ms": res["ms"], "stopped": res["stopped"],
               "outcome": res.get("outcome"), "problems": [],
               "terminal": "error"}
        if res["error"] is not None:
            rec["problems"].append(f"raised {res['error']}")
        elif not res["stopped"]:
            rec["stripped"] = _stripped(res)
            rec["terminal"] = _terminal(item, json.loads(res["report"]))
            found, rec["witness"] = check.check(item, res)
            rec["problems"] += found
        else:
            rec["terminal"] = "stopped"
        for p in rec["problems"]:
            problems.append(f"input {item['id']} ({item['cat']}): {p}")
        per_input.append(rec)
    return per_input, problems


def digest(per_input):
    h = hashlib.sha256()
    for rec in per_input:
        h.update((rec.get("stripped") or ("stopped" if rec["stopped"]
                                          else "error")).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def shares(per_input):
    ok = [r for r in per_input if not r["stopped"] and not r["problems"]
          and r["outcome"] is not None]
    decided = [r for r in ok if r["outcome"] in (
        check.RATIONALIZABLE, check.NOT_RATIONALIZABLE)]
    rational = [r for r in per_input if r["outcome"] == check.RATIONALIZABLE]
    witnessed = [r for r in rational if r.get("witness") and not r["problems"]]
    return {"completed": len(ok), "decided": len(decided),
            "rationalizable": len(rational), "witnessed": len(witnessed)}


_LETTER = {check.RATIONALIZABLE: "R", check.NOT_RATIONALIZABLE: "N",
           workloads.INCONCLUSIVE: "I"}


def compare_recorded(workload, seed, outcomes, digest_now):
    """Lines comparing a run with the outcomes recorded in properties.json
    for the same workload and seed (reported, never a failed check: a change
    that decides more inputs changes them legitimately)."""
    path = HERE / "properties.json"
    if not path.exists():
        return []
    rec = json.loads(path.read_text()).get(workload, {}).get(
        "seeds", {}).get(str(seed))
    if rec is None:
        return []
    if rec["digest"] == digest_now:
        return [f"report digest matches the recorded one ({digest_now})"]
    out = [f"REPORT DIGEST CHANGED: recorded {rec['digest']}, now {digest_now}"]
    out += [f"VERDICT CHANGED: input {i}: recorded {a}, now {b}"
            for i, (a, b) in enumerate(zip(rec["outcomes"], outcomes))
            if a != b]
    return out


def latencies_ms(results, done, guard_ms):
    """Each input's latency in one pass: the worker's CPU time for its whole
    path, scaled to the reference host speed, or its guard time when the
    guard stopped it.

    The engine is single-threaded and does no I/O, so its CPU time is its
    wall time less what the host gave to others.  What CPU time still
    carries is the host's own speed, which on a shared host drifts by a
    factor of up to three within a pass and shifts whole passes by 15 %.
    The worker therefore times a fixed loop (worker.calibrate) before each
    input and after the last, and an input's CPU time is scaled by
    CAL_REF_MS over the mean of the two loops around it."""
    cal = [res["cal_ms"] for res in results] + [done["cal_ms"]]
    return [guard_ms if res["stopped"]
            else res["cpu_ms"] * 2.0 * CAL_REF_MS / (cal[k] + cal[k + 1])
            for k, res in enumerate(results)]


def percentile(values, q):
    """Harrell-Davis estimate of the q-th percentile: the mean of the order
    statistics weighted by the chance that each is the q-th percentile of
    the population.  One order statistic jumps whenever the percentile falls
    between two clusters of latencies, as a p90 between a few slow shapes
    and the bulk does; this estimate moves smoothly with the mix."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    cdf = [mpmath.betainc(a, b, 0, k / n, regularized=True)
           for k in range(n + 1)]
    return float(sum((cdf[k + 1] - cdf[k]) * x
                     for k, x in enumerate(ordered)))


# --------------------------------------------------------------------------
# a run


def run_workload(workload, seed, seconds, trace, log):
    start = time.monotonic()
    deadline = start + DEADLINE_S
    items = workloads.generate(workload, seed)
    n = len(items)
    # workers that run nothing, for more set-up samples
    setups = [run_worker([], workload, deadline)[0]
              for _ in range(SETUP_ONLY_WORKERS)]
    passes = []
    while True:
        t_pass = time.monotonic()
        setup_s, results, done = run_worker(items, workload, deadline)
        setups.append(setup_s)
        passes.append((results, done))
        last = time.monotonic() - t_pass
        if trace or time.monotonic() - start + last > seconds:
            break
    traced = None
    if trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload}-{seed}.jsonl"
        traced = run_worker(items, workload, deadline, trace_path=path)

    # checks run on pass 1; every later pass must write the same reports
    first, problems = evaluate(items, passes[0][0])
    base_digest = digest(first)
    later = [(f"pass {k}", results)
             for k, (results, _done) in enumerate(passes[1:], start=2)]
    if traced is not None:
        later.append(("the traced pass", traced[1]))
    for label, results in later:
        for rec, res in zip(first, results):
            if _stripped(res) != rec.get("stripped"):
                problems.append(f"input {rec['id']}: {label} wrote another"
                                " report than pass 1")

    counts = shares(first)
    guard_ms = limits(workload)[1] * 1000.0
    latencies = [ms for results, done in passes
                 for ms in latencies_ms(results, done, guard_ms)]
    busy_s = sum(latencies) / 1000.0
    throughput = counts["completed"] * len(passes) / busy_s
    end_to_end = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": throughput,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90),
        "decided_share": counts["decided"] / n,
        "witness_share": (counts["witnessed"] / counts["rationalizable"]
                          if counts["rationalizable"] else 0.0),
        "completed_share": counts["completed"] / n,
        "peak_rss_mb": max(done["peak_rss_mb"] for _, done in passes),
    }
    samples = {
        "setup_s": f"{len(setups)} worker starts",
        "throughput_per_s": f"{counts['completed'] * len(passes)} inputs in "
                            f"{busy_s:.2f} scaled CPU s",
        "latency_p50_ms": f"{len(latencies)} latencies ({n} inputs x "
                          f"{len(passes)} passes)",
        "latency_p90_ms": f"{len(latencies)} latencies, "
                          f"{len(latencies) - -(-9 * len(latencies) // 10)} "
                          "beyond",
        "decided_share": f"{counts['decided']}/{n}",
        "witness_share": f"{counts['witnessed']}/{counts['rationalizable']}",
        "completed_share": f"{counts['completed']}/{n}",
        "peak_rss_mb": f"max of {len(passes)} workers",
    }
    rules = Counter(r["terminal"] if not r["problems"] else "failed-check"
                    for r in first)
    log(f"== {workload}  seed {seed}  N={n}  passes={len(passes)}  "
        f"digest={base_digest}")
    log("   terminal rules: " + ", ".join(
        f"{k} {v / n:.3f}" for k, v in sorted(rules.items())))
    for name, unit in METRICS:
        log(f"   {name:18s} {end_to_end[name]:12.4f} {unit:9s} "
            f"[{samples[name]}]")
    cals = [res["cal_ms"] for results, _ in passes for res in results]
    cpu_s = sum(guard_ms if res["stopped"] else res["cpu_ms"]
                for results, _ in passes for res in results) / 1000.0
    log(f"   calibration loop   {statistics.median(cals):12.4f} ms        "
        f"[median of {len(cals)}, reference {CAL_REF_MS} ms; unscaled: "
        f"{counts['completed'] * len(passes) / cpu_s:.4f} inputs/s]")
    outcomes = "".join(_LETTER.get(r["outcome"], "S" if r["stopped"] else "E")
                       for r in first)
    for line in compare_recorded(workload, seed, outcomes, base_digest):
        log(f"   {line}")
    for p in problems:
        log(f"   FAILED CHECK: {p}")
    failed = n - counts["completed"]
    result = {"correct": not problems, "attempted": n, "failed": failed}
    OUT.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "n": n, "digest": base_digest,
              "cal_end_ms": [d["cal_ms"] for _r, d in passes],
              "outcomes": outcomes, "passes": len(passes),
              "machine": machine(), "metrics": end_to_end,
              "terminal_rules": {k: v / n for k, v in sorted(rules.items())},
              "inputs": [{"id": r["id"], "cat": it["cat"],
                          "terminal": r["terminal"],
                          "ms": [res[r["id"]]["ms"] for res, _d in passes],
                          "cpu_ms": [res[r["id"]]["cpu_ms"]
                                     for res, _d in passes],
                          "cal_ms": [res[r["id"]]["cal_ms"]
                                     for res, _d in passes]}
                         for r, it in zip(first, items)]}
    if trace:
        layers = traced[2]["layers"]
        traced_tp = counts["completed"] * 1000.0 / sum(
            latencies_ms(traced[1], traced[2], guard_ms))
        layers["trace.untraced_throughput_per_s"] = throughput
        layers["trace.traced_throughput_per_s"] = traced_tp
        layers["trace.overhead_ratio"] = throughput / traced_tp
        record["layers"] = layers
        units = tracing.metric_names() + list(OVERHEAD)
        for name, unit in units:
            log(f"   {name:48s} {layers[name]:14.4f} {unit}")
        result["metrics"] = {k: {"value": layers[k], "unit": u}
                             for k, u in units}
    else:
        result["metrics"] = {name: {"value": end_to_end[name], "unit": unit}
                             for name, unit in METRICS}
    (OUT / f"run-{workload}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    def log(line):
        print(line, flush=True)

    info = machine()
    log("machine: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    names = (sorted(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    try:
        results = {w: run_workload(w, args.seed, args.seconds,
                                   bool(args.trace), log) for w in names}
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (res,) = results.values()
        out = {k: res[k] for k in ("correct", "attempted", "failed",
                                   "metrics")}
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}/{k}": v for w, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
