"""Benchmark worker: one fresh process per workload pass.

Protocol, over stdin/stdout, one JSON object per line:

1. the worker imports ratsqrt, decides the warm-up radicand once and prints
   ``{"ready": true}``;
2. it reads one job ``{"items", "timeout", "guard_s", "trace", "trace_path"}``;
3. it runs the items one at a time and prints one result per item, then a
   final ``{"done": true, ...}`` line with its peak RSS and the traced
   per-layer metrics (when tracing).

An input's latency covers the public path end to end: for a root
``parse_rational -> decide -> verdict_report -> dumps``, for an alphabet
``load_alphabet -> decide_alphabet -> alphabet_report -> dumps``; it is
recorded both as wall time (``ms``) and as the worker's CPU time
(``cpu_ms``, every thread of the process).  Before each input, and once
after the last, the worker times a fixed calibration loop (``cal_ms``),
outside the input's timing, so that run.py can scale CPU times to a
reference host speed.  A hang
guard (a one-shot SIGALRM timer) raises into the pure-Python engine loop
at ``guard_s``; the input is then reported as stopped, at its guard time,
whatever the engine returned while unwinding.

Run it only through run.py.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


class GuardStop(BaseException):
    """Raised by the hang guard; a BaseException so no engine handler that
    catches Exception can swallow it."""


class Guard:
    def __init__(self):
        self.fired = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, _signum, _frame):
        self.fired = True
        raise GuardStop()

    def run(self, fn, seconds):
        """(value or None, stopped) of fn() under a one-shot timer."""
        self.fired = False
        value = None
        try:
            signal.setitimer(signal.ITIMER_REAL, seconds)
            try:
                value = fn()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except GuardStop:
            pass
        return value, self.fired


def calibrate():
    """CPU ms of a fixed piece of pure-Python work (big-int arithmetic and
    dict updates) that uses nothing of ratsqrt or sympy, so no change to
    them can change it."""
    c0 = time.process_time()
    d = {}
    x = 1
    for i in range(15000):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        d[x >> 54] = d.get(x >> 54, 0) + i
    return (time.process_time() - c0) * 1000.0


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main():
    from ratsqrt import alphabet, engine, parser, report

    import workloads

    engine.decide(parser.parse_rational(workloads.WARMUP_TEXT).num)
    _emit({"ready": True})

    job = json.loads(sys.stdin.readline())
    config = (engine.Config(timeout=job["timeout"]) if job["timeout"]
              else engine.Config())
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    def run_root(text):
        g = parser.parse_rational(text)
        v = engine.decide(g.num, g.den, config)
        out = report.dumps(report.verdict_report(text, v, config))
        return v.outcome, v.steps[-1].rule if v.steps else None, out

    def run_alphabet(doc):
        _vars, roots = parser.load_alphabet(doc)
        v = alphabet.decide_alphabet(roots, config)
        out = report.dumps(report.alphabet_report(doc, v, config))
        return v.outcome, None, out

    guard = Guard()
    for item in job["items"]:
        cal_ms = calibrate()
        if tracer is not None:
            tracer.begin_input(item["id"])
        if item["kind"] == "root":
            fn = lambda: run_root(item["text"])  # noqa: E731
        else:
            fn = lambda: run_alphabet(item["doc"])  # noqa: E731
        t0, c0 = time.perf_counter(), time.process_time()
        error = None
        try:
            value, stopped = guard.run(fn, job["guard_s"])
        except Exception as e:  # reported as a failed input, never dropped
            value, stopped, error = None, False, f"{type(e).__name__}: {e}"
        ms = (time.perf_counter() - t0) * 1000.0
        cpu_ms = (time.process_time() - c0) * 1000.0
        if tracer is not None:
            tracer.end_input(stopped)
        res = {"id": item["id"], "ms": ms, "cpu_ms": cpu_ms,
               "cal_ms": cal_ms, "stopped": stopped, "error": error}
        if value is not None and not stopped:
            res["outcome"], res["rule"], res["report"] = value
        _emit(res)
    done = {"done": True, "cal_ms": calibrate(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0}
    if tracer is not None:
        tracer.uninstall()
        done["layers"] = tracer.metrics()
        tracer.write(job["trace_path"])
    _emit(done)


if __name__ == "__main__":
    main()
