"""Command-line interface.

Subcommands:
  analyze EXPR        decide rationalizability of one square root
  alphabet INPUT...   decide a set of roots (JSON document or expressions)
  singularities EXPR  branch-curve singularity table for a bivariate radicand
  corpus              run the bundled example corpus against expectations

Exit codes: 0 success (including Inconclusive outcomes), 2 parse or schema
error, 3 resource exhaustion, 4 radicand not bivariate after reduction
(singularities only), 5 corpus expectation mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from importlib import resources

from . import __version__
from .alphabet import decide_alphabet
from .engine import Config, _RuleClock, decide, valid_count, valid_seconds
from .errors import RatsqrtError, ResourceLimit, SchemaError, TooManyRoots
from .geometry import all_simple, build_model
from .mpoly import effective_vars, poly_str, radicand_reduce
from .parser import _json_document, load_alphabet, parse_rational
from .report import (
    alphabet_report,
    dumps,
    singularity_report,
    verdict_report,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_RESOURCE = 3
EXIT_NOT_BIVARIATE = 4
EXIT_CORPUS_MISMATCH = 5


def _seconds(text):
    """A time budget, as :func:`valid_seconds` defines it."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not valid_seconds(value):
        raise argparse.ArgumentTypeError(
            f"expected a finite number of seconds > 0, got {text!r}")
    return value


def _count(text):
    """A bound, as :func:`valid_count` defines it."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if not valid_count(value):
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


_FLAGS = {
    "vars": dict(help="comma-separated variable order"),
    "json": dict(metavar="PATH", help="write the JSON report"),
    "witness": dict(action="store_true", help="print the witness"),
    "trace": dict(action="store_true", help="print certificate steps"),
    "max-height": dict(type=_count, default=Config.max_height, metavar="N",
                       help="rational point-scan height bound"),
    "max-subset-size": dict(type=_count, default=Config.max_subset_size,
                            metavar="K",
                            help="alphabet size cap for subset enumeration"),
    "timeout": dict(type=_seconds, default=Config.timeout, metavar="SECONDS",
                    help="per-rule soft time budget"),
}


def _add_flags(p, names):
    """Register the named flags, the ones the subcommand's handler reads."""
    for name in names.split():
        p.add_argument(f"--{name}", **_FLAGS[name])


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="ratsqrt",
        description="decide whether square roots of rational functions admit"
        " rationalizing substitutions",
    )
    ap.add_argument("--version", action="version", version=f"ratsqrt {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="decide one square root")
    p.add_argument("expr", help="radicand p/q as an expression")
    _add_flags(p, "vars json witness trace max-height timeout")

    p = sub.add_parser("alphabet", help="decide a set of square roots")
    p.add_argument("input", nargs="+",
                   help="path to an alphabet JSON document (*.json), or"
                   " radicand expressions (one per root)")
    _add_flags(p, "vars json witness trace max-height max-subset-size timeout")

    p = sub.add_parser("singularities",
                       help="singularity table of the branch curve")
    p.add_argument("expr", help="bivariate radicand expression")
    _add_flags(p, "vars json")

    p = sub.add_parser("corpus", help="run the bundled example corpus")
    _add_flags(p, "json max-height max-subset-size timeout")
    return ap


def _config(args):
    """The Config of the limit flags the subcommand has; defaults for the
    others."""
    return Config(**{f.name: getattr(args, f.name) for f in fields(Config)
                     if hasattr(args, f.name)})


def _varlist(args):
    if args.vars:
        return tuple(v.strip() for v in args.vars.split(","))
    return None


def _emit(report, args):
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(dumps(report))


def _print_witness(doc):
    for v in doc["variables"]:
        print(f"    {v} -> {doc['assignments'][v]}")
    if "extension" in doc:
        print(f"    coefficients in Q({doc['extension']})")
    if "square_root" in doc:
        print(f"    square root of the image: {doc['square_root']}")


def cmd_analyze(args):
    config = _config(args)
    g = parse_rational(args.expr, _varlist(args))
    v = decide(g.num, g.den, config)
    report = verdict_report(args.expr, v, config)
    print(f"outcome: {v.outcome}")
    print(f"decided by: {v.steps[-1].rule}")
    if args.witness and v.witness is not None:
        print("witness (verified):")
        _print_witness(report["witness"])
    if args.trace:
        for s in v.steps:
            print(f"  [{s.rule}] {s.ref}")
    if "singularities" in report:
        _print_singularity_rows(report["singularities"])
    _emit(report, args)
    return EXIT_OK


def _print_singularity_rows(rows):
    if not rows:
        print("no singular points")
        return
    print("singular points of the branch curve:")
    for r in rows:
        coords = ", ".join(r["point"]["coordinates"])
        conj = f" (x{r['point']['conjugates']} conjugates)" if "conjugates" in r["point"] else ""
        print(f"  ({coords})  m={r['multiplicity']}  mu={r['milnor']}"
              f"  class={r['class']}{conj}")


def _load_alphabet_arg(inputs, variables):
    if len(inputs) == 1 and inputs[0].endswith(".json"):
        if variables is not None:
            raise SchemaError("an alphabet document declares its own"
                              " variables; --vars applies to expressions")
        with open(inputs[0], encoding="utf-8") as fh:
            doc = _json_document(fh.read())
        return doc, load_alphabet(doc)
    doc = {"roots": [{"radicand": t} for t in inputs]}
    if variables:
        doc["variables"] = list(variables)
    return doc, load_alphabet(doc)


def cmd_alphabet(args):
    config = _config(args)
    doc, (variables, roots) = _load_alphabet_arg(args.input, _varlist(args))
    v = decide_alphabet(roots, config)
    report = alphabet_report(doc, v, config)
    print(f"outcome: {v.outcome}")
    if v.certificate is not None:
        c = v.certificate
        print(f"certificate subset: {{{', '.join(c.labels)}}}")
        print(f"  reduced product: {poly_str(c.reduced_product)}"
              f"  (degree {c.reduced_product.total_degree()})")
    if args.witness and v.witness is not None:
        print("simultaneous witness (verified on every root):")
        _print_witness(report["witness"])
        for label, h in v.root_squares.items():
            print(f"    sqrt of image of {label}: {h}")
    if args.trace:
        print("subset audit:")
        for e in v.trace:
            print(f"  {{{', '.join(e['subset'])}}} degree {e['degree']}:"
                  f" {e['outcome']}")
    for note in v.notes:
        print(f"note: {note}")
    _emit(report, args)
    return EXIT_OK


def cmd_singularities(args):
    g = parse_rational(args.expr, _varlist(args))
    f = radicand_reduce(g.num, g.den)
    n = len(effective_vars(f))
    if n != 2:
        print(f"error: radicand reduces to {n} effective variable(s);"
              " the singularity table needs exactly 2", file=sys.stderr)
        return EXIT_NOT_BIVARIATE
    clock = _RuleClock(math.inf)  # records timings; no limit acts on the table
    model = clock.run("build-model", lambda: build_model(f))
    simple = clock.run("simple-singularities", lambda: all_simple(model))
    report = singularity_report(args.expr, model, simple, clock.timings)
    print(f"branch curve: {report['branch_curve']}"
          f"  (degree {report['branch_degree']})")
    _print_singularity_rows(report["singularities"])
    print(f"all simple: {report['all_simple']}")
    _emit(report, args)
    return EXIT_OK


def _corpus_entries():
    base = resources.files("ratsqrt").joinpath("data")
    text = base.joinpath("corpus.json").read_text()
    entries = json.loads(text)
    if not isinstance(entries, list) or not entries:
        raise SchemaError("corpus must be a non-empty JSON list")
    return base, entries


def run_corpus(config, out=print):
    """Run every corpus entry; returns (reports, mismatches)."""
    base, entries = _corpus_entries()
    reports = []
    mismatches = []
    for e in entries:
        tag, kind, expected = e["tag"], e["kind"], e["expected"]
        if kind == "root":
            g = parse_rational(e["input"])
            v = decide(g.num, g.den, config)
            reports.append(verdict_report(e["input"], v, config))
        elif kind == "alphabet":
            doc = json.loads(base.joinpath(e["input"]).read_text())
            _vars, roots = load_alphabet(doc)
            v = decide_alphabet(roots, config)
            reports.append(alphabet_report(doc, v, config))
        else:
            raise SchemaError(f"corpus entry {tag}: unknown kind {kind!r}")
        ok = v.outcome == expected
        if not ok:
            mismatches.append(tag)
        out(f"{'PASS' if ok else 'FAIL'}  {tag}: {v.outcome}"
            + ("" if ok else f" (expected {expected})"))
    return reports, mismatches


def cmd_corpus(args):
    reports, mismatches = run_corpus(_config(args))
    _emit(reports, args)
    if mismatches:
        print(f"{len(mismatches)} mismatch(es): {', '.join(mismatches)}")
        return EXIT_CORPUS_MISMATCH
    print("all corpus expectations met")
    return EXIT_OK


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handler = {
        "analyze": cmd_analyze,
        "alphabet": cmd_alphabet,
        "singularities": cmd_singularities,
        "corpus": cmd_corpus,
    }[args.command]
    try:
        return handler(args)
    except (ResourceLimit, TooManyRoots) as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except (RatsqrtError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
