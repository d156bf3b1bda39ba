"""Command-line interface: exit codes, reports, corpus runner."""

import json

import pytest

from ratsqrt import cli
from ratsqrt.engine import Config
from ratsqrt.errors import ZeroRadicand
from ratsqrt.mpoly import MultiPoly, radicand_reduce
from ratsqrt.report import strip_timings


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

    def test_schema_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"roots": []}')
        code, _out, err = run(capsys, "alphabet", str(path))
        assert code == 2


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


class TestDefaults:
    def test_flags_default_to_config(self):
        for command in (["analyze", "X"], ["alphabet", "X"],
                        ["singularities", "X*Y"], ["corpus"]):
            args = cli._build_parser().parse_args(command)
            assert cli._config(args) == Config()


class TestReports:
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
