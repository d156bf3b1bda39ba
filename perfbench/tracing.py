"""Per-layer tracing from outside the engine.

The tracer wraps the public functions of each ratsqrt module wherever the
function object is bound among the ``ratsqrt.*`` module globals (a function
imported by name lives in the importer's namespace too, for example
``ratsqrt.engine.build_model``), and replaces the ``sp`` name of each
ratsqrt module with a stand-in that times a few sympy entry points, so only
calls made by ratsqrt itself are counted, never sympy's internal calls.

Each call becomes a span ``[id, parent, name, input, start, end, flag]``
kept in memory and written out when the run ends.  Self time is a span's
duration minus the time its child spans cover.  Spans and counters of an
input stopped by the hang guard are excluded from the metrics, because how
far a stopped input got depends on machine speed; only ``guard.stopped``
counts them.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# module -> functions traced, each reported as <module>.<function>.calls and
# .self_ms (sympy entry points as sympy.<function>.*)
TARGETS = {
    "parser": ("parse_rational", "load_alphabet"),
    "mpoly": ("radicand_reduce", "squarefree_part", "factor_list", "mgcd",
              "substitute", "is_perfect_square"),
    "unipoly": ("factor_rational", "rational_roots"),
    "numberfield": ("factor_over_height1", "roots_in_field"),
    "localanalysis": ("classify_germ", "milnor_number", "milnor_via_jets",
                      "intersection_multiplicity"),
    "geometry": ("build_model", "singular_points", "all_simple",
                 "triple_point_of_cubic", "multiplicity_at",
                 "high_mult_point_search"),
    "witness": ("quadric_witness", "point_on_quadric", "projection_witness",
                "verify_witness", "homogeneous_lift", "compose"),
    "engine": ("decide",),
    "alphabet": ("decide_alphabet", "sequential_rationalize"),
    "report": ("verdict_report", "alphabet_report", "dumps"),
}
METHODS = {"mpoly": {"RationalFunction": ("__init__",)}}
SYMPY = ("sqf_list", "cancel", "gcd", "resultant", "expand", "sympify")
GENERATORS = {"alphabet": ("subset_products",)}

# entry points additionally report .total_ms
ENTRY = ("engine.decide", "alphabet.decide_alphabet",
         "alphabet.sequential_rationalize", "alphabet.subset_products",
         "geometry.high_mult_point_search", "witness.quadric_witness",
         "witness.verify_witness")
# functions whose result says whether the attempt succeeded
SHARES = {"witness.quadric_witness": "found_share",
          "geometry.high_mult_point_search": "found_share",
          "witness.verify_witness": "accept_share"}
RULES = ("radicand-reduction", "degree-at-most-2", "homogeneous-reduction",
         "build-model", "cubic-triple-point", "simple-singularities",
         "high-multiplicity-point")


def _succeeded(name, result):
    if name == "geometry.high_mult_point_search":
        return result[0] is not None
    return result is not None


def _functions():
    """Traced names in report order: functions, methods, generators, sympy."""
    out = []
    for mod, fns in TARGETS.items():
        out += [f"{mod}.{fn}" for fn in fns]
        out += [f"{mod}.{cls}.{m}" for cls, ms in METHODS.get(mod, {}).items()
                for m in ms]
        out += [f"{mod}.{fn}" for fn in GENERATORS.get(mod, ())]
    return out + [f"sympy.{fn}" for fn in SYMPY]


EXTRA = (("alphabet.subset_products.yielded", "count"),
         ("alphabet.decide.calls", "count"),
         ("alphabet.decide.repeat_share", "ratio"),
         ("alphabet.subsets.decided_share", "ratio"),
         ("guard.stopped", "count"))


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in _functions():
        out += [(f"{name}.calls", "count"), (f"{name}.self_ms", "ms")]
        if name in ENTRY:
            out.append((f"{name}.total_ms", "ms"))
        if name in SHARES:
            out.append((f"{name}.{SHARES[name]}", "ratio"))
    out += [(f"engine.rule.{r}.ms", "ms") for r in RULES]
    return out + list(EXTRA)


class _SympyStandIn:
    """Attribute proxy for the sympy module with a few functions timed."""

    def __init__(self, module, tracer):
        self._module = module
        for fn in SYMPY:
            setattr(self, fn, tracer.wrap(f"sympy.{fn}", getattr(module, fn)))

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.input = None
        self.stopped = set()
        self.counters = []  # (input, name, amount)
        self.seen = set()  # radicands decided inside the current alphabet
        self.alphabet_depth = 0
        self._undo = []

    # -- spans --------------------------------------------------------------

    def _enter(self, name):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([sid, parent, name, self.input, time.perf_counter(),
                           None, None])
        self.stack.append(sid)
        return sid

    def _exit(self, sid, flag=None):
        rec = self.spans[sid]
        rec[5] = time.perf_counter()
        rec[6] = flag
        if self.stack and self.stack[-1] == sid:
            self.stack.pop()

    def count(self, name, amount=1):
        self.counters.append((self.input, name, amount))

    def begin_input(self, input_id):
        self.input = input_id
        self.stack = []
        self.seen = set()
        self.alphabet_depth = 0

    def end_input(self, stopped):
        if stopped:
            self.stopped.add(self.input)
        self.input = None

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name, fn):
        enter, leave = self._enter, self._exit
        if name == "engine.decide":
            return self._wrap_decide(fn)
        if name == "alphabet.decide_alphabet":
            return self._wrap_alphabet(fn)
        if name in SHARES:
            def shared(*args, **kwargs):
                sid = enter(name)
                found = None
                try:
                    result = fn(*args, **kwargs)
                    found = _succeeded(name, result)
                    return result
                finally:
                    leave(sid, found)
            return shared

        def plain(*args, **kwargs):
            sid = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(sid)
        return plain

    def _wrap_decide(self, fn):
        enter, leave, count = self._enter, self._exit, self.count

        def decide(*args, **kwargs):
            phase1 = bool(self.stack) and \
                self.spans[self.stack[-1]][2] == "alphabet.decide_alphabet"
            if self.alphabet_depth:
                p = args[0]
                q = args[1] if len(args) > 1 else kwargs.get("q")
                key = (p, q)
                count("alphabet.decide.calls")
                if key in self.seen:
                    count("alphabet.decide.repeats")
                self.seen.add(key)
                if phase1:
                    count("alphabet.subsets.decided")
            sid = enter("engine.decide")
            try:
                v = fn(*args, **kwargs)
            finally:
                leave(sid)
            for rule, seconds in v.timings.items():
                count(f"engine.rule.{rule}.ms", seconds * 1000.0)
            return v
        return decide

    def _wrap_alphabet(self, fn):
        enter, leave = self._enter, self._exit

        def decide_alphabet(*args, **kwargs):
            self.alphabet_depth += 1
            sid = enter("alphabet.decide_alphabet")
            try:
                return fn(*args, **kwargs)
            finally:
                leave(sid)
                self.alphabet_depth -= 1
        return decide_alphabet

    def wrap_generator(self, name, fn):
        """Time a generator's iteration: one span per next(), flag 1 when it
        yielded a value."""
        enter, leave, count = self._enter, self._exit, self.count

        def generator(*args, **kwargs):
            it = fn(*args, **kwargs)
            count(f"{name}.calls")

            def iterate():
                while True:
                    sid = enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        leave(sid, 0)
                        return
                    except BaseException:
                        leave(sid, 0)
                        raise
                    leave(sid, 1)
                    yield item
            return iterate()
        return generator

    # -- installation -------------------------------------------------------

    def install(self):
        import importlib

        import sympy

        mods = {m: importlib.import_module(f"ratsqrt.{m}") for m in TARGETS}
        wrapped = {}
        for mod, fns in TARGETS.items():
            for fn in fns:
                orig = getattr(mods[mod], fn)
                wrapped[id(orig)] = (orig, self.wrap(f"{mod}.{fn}", orig))
        for mod, fns in GENERATORS.items():
            for fn in fns:
                orig = getattr(mods[mod], fn)
                wrapped[id(orig)] = (orig, self.wrap_generator(f"{mod}.{fn}",
                                                               orig))
        ratsqrt_mods = [m for n, m in sorted(sys.modules.items())
                        if (n == "ratsqrt" or n.startswith("ratsqrt."))
                        and m is not None]
        for module in ratsqrt_mods:
            for gname, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, gname, hit[1])
            if getattr(module, "sp", None) is sympy:
                self._set(module, "sp", _SympyStandIn(sympy, self))
        for mod, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(mods[mod], cls_name)
                for m in methods:
                    self._set(cls, m, self.wrap(f"{mod}.{cls_name}.{m}",
                                                getattr(cls, m)))

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo = []

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics over the inputs that were not stopped."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[1] is not None and s[5] is not None:
                child[s[1]] += s[5] - s[4]
        calls = defaultdict(int)
        self_ms = defaultdict(float)
        total_ms = defaultdict(float)
        ok = defaultdict(int)
        for s in spans:
            if s[3] in self.stopped or s[5] is None:
                continue
            name, dur = s[2], s[5] - s[4]
            self_ms[name] += (dur - child[s[0]]) * 1000.0
            total_ms[name] += dur * 1000.0
            if name in GENERATOR_NAMES:
                ok[name] += s[6] or 0
            else:
                calls[name] += 1
                if s[6]:
                    ok[name] += 1
        extra = defaultdict(float)
        for inp, name, amount in self.counters:
            if inp not in self.stopped:
                extra[name] += amount
        out = {}
        for name in _functions():
            out[f"{name}.calls"] = (int(extra[f"{name}.calls"])
                                    if name in GENERATOR_NAMES else calls[name])
            out[f"{name}.self_ms"] = self_ms[name]
            if name in ENTRY:
                out[f"{name}.total_ms"] = total_ms[name]
            if name in SHARES:
                out[f"{name}.{SHARES[name]}"] = (
                    ok[name] / calls[name] if calls[name] else 0.0)
        for r in RULES:
            out[f"engine.rule.{r}.ms"] = extra[f"engine.rule.{r}.ms"]
        yielded = ok["alphabet.subset_products"]
        decides = int(extra["alphabet.decide.calls"])
        out["alphabet.subset_products.yielded"] = yielded
        out["alphabet.decide.calls"] = decides
        out["alphabet.decide.repeat_share"] = (
            extra["alphabet.decide.repeats"] / decides if decides else 0.0)
        out["alphabet.subsets.decided_share"] = (
            extra["alphabet.subsets.decided"] / yielded if yielded else 0.0)
        out["guard.stopped"] = len(self.stopped)
        return out

    def write(self, path):
        """Write every span, one JSON array per line (times in microseconds
        from the first span)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][4] if self.spans else 0.0
        with path.open("w") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "input",
                                            "start_us", "end_us", "flag"],
                                 "stopped_inputs": sorted(self.stopped)})
                     + "\n")
            for sid, parent, name, inp, start, end, flag in self.spans:
                fh.write(json.dumps([
                    sid, parent, name, inp, round((start - t0) * 1e6, 1),
                    None if end is None else round((end - t0) * 1e6, 1),
                    flag]) + "\n")


GENERATOR_NAMES = {f"{mod}.{fn}" for mod, fns in GENERATORS.items()
                   for fn in fns}
