"""Reports compared byte for byte with a recorded golden file.

``tests/data/golden_reports.json`` holds the timings-stripped reports of the
corpus entries and of three inputs whose witnesses live over a quadratic
field Q(sqrt(r)): two definite quadrics and a two-root alphabet.  The corpus
alone has no such witness.  A change that alters any report text, including
the printing of irrational coefficients and of the ``extension`` entry,
fails here.  To record the file again after an intended change of report
text, run ``PYTHONPATH=src python tests/test_golden.py``.
"""

from pathlib import Path

from ratsqrt.alphabet import decide_alphabet
from ratsqrt.cli import run_corpus
from ratsqrt.engine import Config, decide
from ratsqrt.parser import load_alphabet, parse_rational
from ratsqrt.report import alphabet_report, dumps, strip_timings, verdict_report

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_reports.json"

# witnesses over Q(sqrt(-7)), Q(i) and Q(sqrt(-69))
EXTENSION_ROOTS = ("-X^2 - Y^2 - 7", "-2*X^2 - 2*X - 4")
EXTENSION_ALPHABET = {"roots": [{"radicand": "3*X - 4"},
                                {"radicand": "-2*X - 5"}]}


def current_reports():
    config = Config()
    reports, mismatches = run_corpus(config, out=lambda _line: None)
    assert not mismatches
    for text in EXTENSION_ROOTS:
        g = parse_rational(text)
        reports.append(verdict_report(text, decide(g.num, g.den, config), config))
    _vars, roots = load_alphabet(EXTENSION_ALPHABET)
    reports.append(alphabet_report(
        EXTENSION_ALPHABET, decide_alphabet(roots, config), config))
    return dumps([strip_timings(r) for r in reports])


def test_reports_match_golden():
    text = current_reports()
    assert '"extension"' in text
    assert text == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(current_reports())
