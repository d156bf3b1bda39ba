"""JSON report construction and serialization.

Schema (single root):
  { "version", "input", "outcome", "witness"?, "steps":
    [{"rule", "paper_ref", "data"}], "singularities"?, "timings", "config" }

Alphabet reports replace "steps" by the per-subset audit "trace" and carry
an optional "certificate" and per-root square-root table.  All polynomials
are serialized in the input expression grammar, so reports round-trip
through the parser.  Serialization is deterministic (sorted keys, no
whitespace variation); the "timings" field is the only run-dependent part,
and comparisons for reproducibility exclude it.
"""

from __future__ import annotations

import json

from .engine import Config, Verdict
from .mpoly import poly_str, rf_str


def _version():
    from . import __version__

    return __version__


def _timings(timings):
    return {k: round(t, 6) for k, t in timings.items()}


def verdict_report(input_text: str, v: Verdict, config: Config) -> dict:
    out = {
        "version": _version(),
        "input": input_text,
        "outcome": v.outcome,
        "steps": [s.to_json() for s in v.steps],
        "timings": _timings(v.timings),
        "config": config.to_json(),
    }
    if v.witness is not None:
        out["witness"] = v.witness.to_json()
        if v.witness_sqrt is not None:
            out["witness"]["square_root"] = rf_str(v.witness_sqrt)
    if v.singularities is not None:
        out["singularities"] = [r.to_json() for r in v.singularities]
    return out


def alphabet_report(input_doc, verdict, config: Config) -> dict:
    out = {
        "version": _version(),
        "input": input_doc,
        "outcome": verdict.outcome,
        "trace": verdict.trace,
        "notes": verdict.notes,
        "timings": _timings(verdict.timings),
        "config": config.to_json(),
    }
    if verdict.witness is not None:
        out["witness"] = verdict.witness.to_json()
        out["root_square_roots"] = verdict.root_squares
    if verdict.certificate is not None:
        out["certificate"] = verdict.certificate.to_json()
    return out


def singularity_report(input_text: str, model, simple, timings) -> dict:
    """Report of a branch-curve singularity table; `simple` is the
    (all simple, records) pair of :func:`~ratsqrt.geometry.all_simple`.
    No limit acts on the table, so the config block holds the defaults."""
    ok, records = simple
    return {
        "version": _version(),
        "input": input_text,
        "radicand": poly_str(model.f),
        "branch_curve": poly_str(model.B),
        "branch_degree": model.B.total_degree(),
        "singularities": [r.to_json() for r in records],
        "all_simple": ok,
        "timings": _timings(timings),
        "config": Config().to_json(),
    }


def dumps(report: dict) -> str:
    """Standard JSON: a NaN or an infinity raises ValueError."""
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def strip_timings(report: dict) -> dict:
    """Copy of a report without run-dependent timing data, for comparisons."""
    out = {k: v for k, v in report.items() if k != "timings"}
    return json.loads(json.dumps(out))
