"""Command-line interface: exit codes, reports, corpus runner."""

import argparse
import json
import math
from dataclasses import fields

import pytest

from ratsqrt import cli
from ratsqrt.engine import Config
from ratsqrt.errors import ZeroRadicand
from ratsqrt.mpoly import MultiPoly, radicand_reduce
from ratsqrt.report import dumps, strip_timings


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_rationalizable_with_witness(self, capsys, tmp_path):
        out_file = tmp_path / "r.json"
        code, out, _err = run(
            capsys, "analyze", "1 - X^2", "--witness", "--json", str(out_file)
        )
        assert code == 0
        assert "Rationalizable" in out
        assert "X ->" in out
        report = json.loads(out_file.read_text())
        assert report["outcome"] == "Rationalizable"
        assert "witness" in report
        assert report["steps"][-1]["rule"] == "degree-at-most-2"

    def test_not_rationalizable(self, capsys):
        code, out, _err = run(capsys, "analyze", "1 - X^3")
        assert code == 0
        assert "NotRationalizable" in out
        assert "univariate-degree" in out

    def test_rational_function_input(self, capsys):
        code, out, _err = run(
            capsys, "analyze",
            "(X + Y)*(1 + X*Y)/(X + Y - 4*X*Y + X^2*Y + X*Y^2)",
        )
        assert code == 0
        assert "NotRationalizable" in out

    def test_parse_error_exit_2(self, capsys):
        code, _out, err = run(capsys, "analyze", "2X + 1")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv", [
        ["analyze", "(" * 300 + "X" + ")" * 300],
        ["analyze", "--", "-" * 2000 + "X"],
        ["alphabet", "X", "(" * 300 + "X" + ")" * 300],
    ])
    def test_deep_nesting_exit_2(self, capsys, argv):
        # once a RecursionError with a traceback and exit 1
        code, _out, err = run(capsys, *argv)
        assert code == 2
        assert err == "error: nesting too deep (at offset 100)\n"

    def test_duplicate_vars_exit_2(self, capsys):
        code, _out, err = run(capsys, "analyze", "X^2+Y^2-1", "--vars", "X,Y,X")
        assert code == 2
        assert "duplicate variable names" in err

    @pytest.mark.parametrize("names", ["1X,Y", "X,,Y"])
    def test_vars_must_be_identifiers(self, capsys, names):
        code, _out, err = run(capsys, "analyze", "X^2+Y^2-1", "--vars", names)
        assert code == 2
        assert "identifiers" in err and "unknown variable" not in err

    def test_inconclusive_is_exit_0(self, capsys):
        code, out, _err = run(
            capsys, "analyze",
            "-X1*X2*(4*X3*(X3 + X2) - X1*X2)*X1*(X2^2*(X1 - 4*X3)"
            " + X3*X1*(X3 - 2*X2))",
        )
        assert code == 0
        assert "Inconclusive" in out


class TestAlphabet:
    def test_file_input(self, capsys, tmp_path):
        doc = {
            "variables": ["X"],
            "roots": [{"label": "a", "radicand": "X - 1"},
                      {"label": "b", "radicand": "X - 2"}],
        }
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps(doc))
        code, out, _err = run(capsys, "alphabet", str(path), "--witness")
        assert code == 0
        assert "Rationalizable" in out

    def test_expression_input(self, capsys):
        code, out, _err = run(
            capsys, "alphabet", "X", "1 + 4*X", "X*(X - 4)", "--trace"
        )
        assert code == 0
        assert "NotRationalizable" in out
        assert "certificate subset" in out

    def test_single_expression_with_a_slash(self, capsys):
        # only a name ending in .json is read as a document
        code, out, err = run(capsys, "alphabet", "X^2/4 - 1")
        assert code == 0, err
        assert "outcome: Rationalizable" in out

    def test_vars_with_a_document_exit_2(self, capsys, tmp_path):
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps({"roots": [{"radicand": "X - 1"}]}))
        code, _out, err = run(capsys, "alphabet", str(path), "--vars", "Y,X")
        assert code == 2
        assert "declares its own variables" in err

    def test_deep_document_exit_2(self, capsys, tmp_path):
        # once a RecursionError from json.load with a traceback and exit 1
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, _out, err = run(capsys, "alphabet", str(path))
        assert code == 2
        assert err == "error: invalid JSON: nesting too deep\n"

    def test_schema_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"roots": []}')
        code, _out, err = run(capsys, "alphabet", str(path))
        assert code == 2

    def test_directory_exit_2(self, capsys, tmp_path):
        # once an IsADirectoryError with a traceback and exit 1
        path = tmp_path / "d.json"
        path.mkdir()
        code, _out, err = run(capsys, "alphabet", str(path))
        assert code == 2
        assert err.startswith("error: ") and str(path) in err

    def test_not_utf8_exit_2(self, capsys, tmp_path):
        # once a UnicodeDecodeError with a traceback and exit 1
        path = tmp_path / "latin1.json"
        path.write_bytes('{"roots": [{"radicand": "X - 1", "label": "\u00e9"}]}'
                         .encode("latin-1"))
        code, _out, err = run(capsys, "alphabet", str(path))
        assert code == 2
        assert err.startswith("error: ") and "utf-8" in err


class TestSingularities:
    def test_table(self, capsys, tmp_path):
        out_file = tmp_path / "s.json"
        code, out, _err = run(
            capsys, "singularities", "X^4 + Y^4", "--json", str(out_file)
        )
        assert code == 0
        assert "NonSimple" in out
        report = json.loads(out_file.read_text())
        assert report["all_simple"] is False

    def test_smooth(self, capsys):
        code, out, _err = run(capsys, "singularities", "X^4 + Y^4 + 1")
        assert code == 0
        assert "no singular points" in out

    def test_report_to_a_directory_exit_2(self, capsys, tmp_path):
        # once an IsADirectoryError with a traceback and exit 1
        code, _out, err = run(capsys, "singularities", "X^4 + Y^4",
                              "--json", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_not_bivariate_exit_4(self, capsys):
        code, _out, err = run(capsys, "singularities", "X^2 - 1")
        assert code == 4

    def test_zero_radicand_exit_2(self, capsys):
        code, _out, err = run(capsys, "singularities", "0")
        assert code == 2
        with pytest.raises(ZeroRadicand) as zero:
            radicand_reduce(MultiPoly.zero(("X",)), MultiPoly.const(("X",), 1))
        assert err == f"error: {zero.value}\n"

    def test_reduces_like_decide(self, capsys):
        # the square factor in the denominator goes, as in decide
        _code, plain, _err = run(capsys, "singularities", "X^4 + Y^4")
        code, out, _err = run(capsys, "singularities", "(X^4 + Y^4)/(X + 1)^2")
        assert code == 0 and out == plain


class TestCorpus:
    def test_all_green(self, capsys):
        code, out, _err = run(capsys, "corpus")
        assert code == 0
        assert "FAIL" not in out

    def test_flipped_expectation_exit_5(self, capsys, monkeypatch):
        base, entries = cli._corpus_entries()
        entries[0]["expected"] = (
            "NotRationalizable"
            if entries[0]["expected"] == "Rationalizable"
            else "Rationalizable"
        )
        monkeypatch.setattr(cli, "_corpus_entries", lambda: (base, entries))
        code, out, _err = run(capsys, "corpus")
        assert code == 5
        assert "FAIL" in out

    def test_empty_corpus_exit_2(self, capsys, monkeypatch):
        from ratsqrt.errors import SchemaError

        monkeypatch.setattr(
            cli, "_corpus_entries",
            lambda: (_ for _ in ()).throw(SchemaError("empty corpus")),
        )
        code, _out, err = run(capsys, "corpus")
        assert code == 2


# the flags each subcommand registers: the ones its handler reads
KEPT = {
    "analyze": {"--vars", "--json", "--witness", "--trace", "--max-height",
                "--timeout"},
    "alphabet": {"--vars", "--json", "--witness", "--trace", "--max-height",
                 "--max-subset-size", "--timeout"},
    "singularities": {"--vars", "--json"},
    "corpus": {"--json", "--max-height", "--max-subset-size", "--timeout"},
}
POSITIONAL = {"analyze": ["X"], "alphabet": ["X"], "singularities": ["X*Y"],
              "corpus": []}


def _options(command):
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {o for a in sub.choices[command]._actions for o in a.option_strings
            if o not in ("-h", "--help")}


class TestFlags:
    @pytest.mark.parametrize("command", sorted(KEPT))
    def test_option_set(self, command):
        assert _options(command) == KEPT[command]

    def test_nineteen_flag_slots(self):
        assert sum(len(_options(c)) for c in KEPT) == 19

    @pytest.mark.parametrize("argv", [
        ["analyze", "X", "--max-subset-size", "3"],
        ["singularities", "X*Y", "--witness"],
        ["singularities", "X*Y", "--timeout", "1"],
        ["corpus", "--vars", "X"],
        ["corpus", "--trace"],
    ])
    def test_dropped_flag_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    # a limit of 0, below 0, NaN or infinite seconds, or a bound that is not
    # an integer >= 0, would switch a limit off or stop every input
    @pytest.mark.parametrize("argv", [
        ["analyze", "X", "--timeout", "0"],
        ["analyze", "X", "--timeout", "-1"],
        ["analyze", "X", "--timeout", "nan"],
        ["analyze", "X", "--timeout", "inf"],
        ["corpus", "--timeout", "-inf"],
        ["alphabet", "X", "--timeout", "soon"],
        ["analyze", "X", "--max-height", "-1"],
        ["analyze", "X", "--max-height", "1.5"],
        ["alphabet", "X", "--max-subset-size", "-1"],
        ["corpus", "--max-subset-size", "two"],
    ])
    def test_bad_limit_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 2
        assert "expected" in capsys.readouterr().err

    # the flag types and Config apply one predicate per kind of limit
    @pytest.mark.parametrize("flag_type, field, parse, text", [
        *[(cli._seconds, "timeout", float, t)
          for t in ("1", "1e-12", "0", "-1", "nan", "inf")],
        *[(cli._count, "max_height", int, t) for t in ("0", "7", "-0", "-1")],
    ])
    def test_flag_accepts_what_config_accepts(self, flag_type, field, parse,
                                              text):
        try:
            Config(**{field: parse(text)})
        except ValueError:
            with pytest.raises(argparse.ArgumentTypeError):
                flag_type(text)
        else:
            assert flag_type(text) == parse(text)

    def test_zero_bounds_accepted(self, capsys):
        code, _out, err = run(capsys, "alphabet", "X", "--max-subset-size", "0")
        assert code == 3 and "subset cap 0" in err
        code, out, _err = run(capsys, "analyze", "X^2 + 7", "--max-height", "0")
        assert code == 0 and "outcome: Rationalizable" in out

    # X^2 + 7 is a square at X = 3, beyond height 1: there the scan falls
    # back to Q(sqrt(7))
    @pytest.mark.parametrize("flags, extension", [
        ([], None), (["--max-height", "1"], "sqrt(7)"),
    ])
    def test_max_height_acts(self, capsys, tmp_path, flags, extension):
        path = tmp_path / "r.json"
        code, out, _err = run(capsys, "analyze", "X^2 + 7", "--witness",
                              "--json", str(path), *flags)
        assert code == 0 and "X ->" in out
        witness = json.loads(path.read_text())["witness"]
        assert witness.get("extension") == extension

    def test_timeout_acts_on_analyze(self, capsys):
        code, out, _err = run(capsys, "analyze", "X^2 + Y^2 - 1",
                              "--timeout", "1e-12")
        assert code == 0
        assert "decided by: resource-limit" in out

    def test_max_subset_size_acts(self, capsys):
        code, _out, err = run(capsys, "alphabet", "X", "X+1",
                              "--max-subset-size", "1")
        assert code == 3
        assert "subset cap 1" in err

    def test_timeout_acts_on_corpus(self, capsys):
        code, out, _err = run(capsys, "corpus", "--timeout", "1e-12")
        assert code == 5
        assert "FAIL" in out


class TestDefaults:
    def test_flags_default_to_config(self):
        # each limit flag a subcommand has defaults to its Config field
        for command, flags in KEPT.items():
            args = cli._build_parser().parse_args(
                [command, *POSITIONAL[command]])
            for f in fields(Config):
                if f"--{f.name.replace('_', '-')}" in flags:
                    assert getattr(args, f.name) == f.default
                else:
                    assert not hasattr(args, f.name)
            assert cli._config(args) == Config()


class TestReports:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_dumps_refuses_non_finite(self, value):
        with pytest.raises(ValueError):
            dumps({"config": {"timeout": value}})

    def test_round_trip_and_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _o, _e = run(
                capsys, "analyze", "X*(X - 4)", "--json", str(path)
            )
            assert code == 0
        ra = strip_timings(json.loads(a.read_text()))
        rb = strip_timings(json.loads(b.read_text()))
        assert ra == rb

    def test_outcome_token_matches_json(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        _c, out, _e = run(capsys, "analyze", "X - 7", "--json", str(path))
        report = json.loads(path.read_text())
        assert report["outcome"] in out

    @pytest.mark.parametrize("argv, rules", [
        # per-rule sums over the alphabet's decisions: its singletons are
        # quadrics, its products univariate
        (["alphabet", "X", "1 + 4*X", "X*(X - 4)"],
         {"radicand-reduction", "degree-at-most-2"}),
        (["singularities", "X^4 + Y^4"], {"build-model", "simple-singularities"}),
    ])
    def test_timings_block(self, capsys, tmp_path, argv, rules):
        path = tmp_path / "r.json"
        code, _o, _e = run(capsys, *argv, "--json", str(path))
        assert code == 0
        report = json.loads(path.read_text())
        assert rules <= set(report["timings"])
        assert all(t >= 0 for t in report["timings"].values())
        del report["timings"]
        assert strip_timings(json.loads(path.read_text())) == report
