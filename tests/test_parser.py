"""Expression parsing and alphabet document validation."""

import json

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ

from ratsqrt.errors import (
    NonIntegerExponent,
    ParseSyntaxError,
    RatsqrtError,
    SchemaError,
)
from ratsqrt.mpoly import (
    MultiPoly,
    RationalFunction,
    poly_str,
    quadratic_field,
    rf_str,
)
from ratsqrt.parser import (
    infer_variables,
    load_alphabet,
    map_from_json,
    parse_poly,
    parse_rational,
)


class TestGrammar:
    def test_precedence(self):
        assert parse_poly("1 + 2*X^2") == parse_poly("1 + (2*(X^2))", ("X",)).with_vars(("X",))
        assert parse_poly("-X^2", ("X",)) == parse_poly("-(X^2)", ("X",))

    def test_whitespace_insensitive(self):
        a = parse_rational("( X + Y ) * ( 1 + X * Y )")
        b = parse_rational("(X+Y)*(1+X*Y)")
        assert a == b

    def test_fraction_coefficients(self):
        p = parse_poly("1/2*X + 3", ("X",))
        assert poly_str(p) in ("1/2*X + 3", "3 + 1/2*X")

    def test_division_in_rational(self):
        g = parse_rational("(X^2 - 1)/(X - 1)", ("X",))
        assert rf_str(g) == "X + 1"

    def test_power_of_parenthesized(self):
        assert parse_poly("(X + 1)^2", ("X",)) == parse_poly(
            "X^2 + 2*X + 1", ("X",)
        )

    def test_round_trip(self):
        for text in ("X - 7", "16*X + (4 + Y)^2", "X1*(X1 - 4*X3)"):
            p = parse_poly(text)
            assert parse_poly(poly_str(p), p.vars) == p


class TestRejections:
    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseSyntaxError):
            parse_poly("2X", ("X",))

    def test_decimals_rejected(self):
        with pytest.raises(ParseSyntaxError):
            parse_poly("0.5*X", ("X",))

    def test_non_integer_exponent(self):
        with pytest.raises((NonIntegerExponent, ParseSyntaxError)):
            parse_poly("X^(1/2)", ("X",))

    def test_unknown_variable(self):
        with pytest.raises(ParseSyntaxError):
            parse_poly("X + Z", ("X", "Y"))

    def test_nonconstant_denominator_not_a_poly(self):
        with pytest.raises(ParseSyntaxError):
            parse_poly("1/(X + 1)", ("X",))

    def test_offset_reported(self):
        try:
            parse_poly("X + + 1", ("X",))
        except ParseSyntaxError as e:
            assert e.offset >= 0
        else:  # pragma: no cover
            pytest.fail("expected a syntax error")


class TestVariables:
    def test_infer_order_of_first_appearance(self):
        assert infer_variables(["Y + X", "Z*X"]) == ["Y", "X", "Z"]

    def test_declared_ring_kept(self):
        p = parse_poly("X", ("X", "Y"))
        assert p.vars == ("X", "Y")

    @pytest.mark.parametrize("text, r", [("X + sqrt(2)", 2), ("X + I", -1)])
    def test_field_atoms_are_not_inferred(self, text, r):
        # once "unexpected trailing input", and a second variable I
        field = quadratic_field(r)[0]
        assert parse_rational(text, None, field) == \
            parse_rational(text, ("X",), field)


class TestAlphabetDocuments:
    def test_higgs_shape(self):
        doc = {
            "variables": ["X"],
            "roots": [
                {"label": "f1", "radicand": "X"},
                {"label": "f2", "radicand": "1 + 4*X"},
                {"label": "f3", "radicand": "X*(X - 4)"},
            ],
        }
        variables, roots = load_alphabet(doc)
        assert tuple(variables) == ("X",)
        assert [l for l, _f in roots] == ["f1", "f2", "f3"]
        assert all(f.vars == ("X",) for _l, f in roots)

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            load_alphabet({"roots": []})

    def test_unknown_keys_rejected(self):
        with pytest.raises(SchemaError):
            load_alphabet({"roots": [{"radicand": "X"}], "extra": 1})

    def test_duplicate_labels_rejected(self):
        with pytest.raises(SchemaError):
            load_alphabet(
                {"roots": [{"label": "a", "radicand": "X"},
                           {"label": "a", "radicand": "X + 1"}]}
            )

    def test_default_labels(self):
        _v, roots = load_alphabet({"roots": [{"radicand": "X"},
                                             {"radicand": "X - 1"}]})
        assert [l for l, _f in roots] == ["r1", "r2"]

    def test_string_document(self):
        _v, roots = load_alphabet('{"roots": [{"radicand": "X - 1"}]}')
        assert len(roots) == 1

    def test_bad_json_string(self):
        with pytest.raises(SchemaError):
            load_alphabet("{not json")


class TestMapSerialization:
    def test_round_trip(self):
        from ratsqrt.mpoly import RationalMap

        m = RationalMap(
            ("X",), {"X": parse_rational("(2*X)/(X^2 + 1)", ("X",))}
        )
        doc = m.to_json()
        back = map_from_json(doc)
        assert back.source_vars == m.source_vars
        assert back.assignments["X"] == m.assignments["X"]

    @pytest.mark.parametrize("alphabet, extension", [
        (("-X^2 - Y^2 - 7",), "sqrt(7)*I"),
        (("-2*X^2 - 2*X - 4",), "2*I"),
        (("3*X - 4", "-2*X - 5"), "sqrt(69)*I/3"),
    ])
    def test_extension_round_trip(self, alphabet, extension):
        from ratsqrt.alphabet import decide_alphabet
        from ratsqrt.engine import Config
        from ratsqrt.witness import verify_witness

        _vars, roots = load_alphabet(
            {"roots": [{"radicand": text} for text in alphabet]})
        m = decide_alphabet(roots, Config()).witness
        doc = m.to_json()
        assert doc["extension"] == extension
        back = map_from_json(json.dumps(doc))
        assert back == m and back.extension == m.extension
        assert back.to_json() == doc
        for _label, f in roots:
            assert verify_witness(back, f) is not None

    @pytest.mark.parametrize("doc", [
        {"variables": ["X"], "extension": "sqrt(7)*I",
         "assignments": {"X": '__import__("pathlib").Path("{path}").touch()'
                              ' or X'}},
        {"variables": ["X"], "extension": '__import__("pathlib").Path('
                                          '"{path}").touch() or sqrt(2)',
         "assignments": {"X": "X"}},
        {"variables": ["X"], "extension": "sqrt(7)*I",
         "assignments": {"X": "sqrt(2)*X"}},
        {"variables": ["X"], "extension": "sqrt(4)", "assignments": {"X": "X"}},
        {"variables": ["X"], "extension": "1 + sqrt(2)",
         "assignments": {"X": "X"}},
        {"variables": ["X"], "assignments": {"X": "I*X"}},
        {"variables": "X", "assignments": {"X": "X"}},
        {"variables": ["X"], "assignments": {"X": 1}},
        {"variables": ["X"], "assignments": {"X": "X"}, "eval": "X"},
        {"variables": ["X"], "assignments": {"Y": "X"}},
    ])
    def test_hostile_document_rejected(self, doc, tmp_path):
        path = tmp_path / "touched"
        text = json.dumps(doc).replace("{path}", str(path))
        with pytest.raises(RatsqrtError):
            map_from_json(text)
        assert not path.exists()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([-1, -3, -7, -69, 2, 5]),
           st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 6),
                              st.integers(-4, 4), st.integers(1, 6)),
                    min_size=1, max_size=3))
    def test_field_coefficients_round_trip(self, r, coeffs):
        # every coefficient a + b*sqrt(r) prints in sympy's form and reads
        # back over the declared field
        field, root = quadratic_field(r)
        x = MultiPoly.var(("X",), "X")
        p = MultiPoly.zero(("X",))
        for k, (a, da, b, db) in enumerate(coeffs):
            c = field.convert(QQ(a, da)) + field.convert(QQ(b, db)) * root
            p = p + x**k * c
        g = RationalFunction(p, x + root)
        assert parse_rational(rf_str(g), ("X",), field) == g

    @pytest.mark.parametrize("text", ["1/sqrt(7)*I", "sqrt(7)*I^2", "I",
                                      "sqrt(2)", "sqrt(7)*Id"])
    def test_atoms_outside_the_field_rejected(self, text):
        field = quadratic_field(-7)[0]
        with pytest.raises(ParseSyntaxError):
            parse_rational(text, ("X",), field)


# -- untrusted input ---------------------------------------------------------

# fixed examples, and no shrinking, which would rerun failing parses
FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                database=None, phases=[Phase.explicit, Phase.generate])

_TOKENS = ["X", "Y", "I", "sqrt", "0", "1", "2", "7", "+", "-", "*", "/",
           "^", "(", ")", " ", ".", ",", "#", "\u00e9", "\\", '"', "{"]


def _texts():
    """Well-formed, malformed and hostile texts alike.  At most ten tokens,
    digits one per token, keep every power small enough to expand."""
    return st.lists(st.sampled_from(_TOKENS), max_size=10).map("".join)


def _json(leaf):
    keys = st.sampled_from(["variables", "roots", "radicand", "label",
                            "assignments", "extension", "X", "eval"])
    return st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(-3, 3), leaf),
        lambda inner: st.one_of(st.lists(inner, max_size=3),
                                st.dictionaries(keys, inner, max_size=3)),
        max_leaves=8,
    )


def _documents(shaped):
    """A document as a dict or as JSON text, shaped or free-form, or a text
    that is not JSON at all."""
    return st.one_of(shaped, shaped.map(json.dumps), _json(_texts()),
                     _json(_texts()).map(json.dumps), _texts())


_NAMES = st.lists(st.sampled_from(["X", "Y", "I", "sqrt", "1X", ""]),
                  max_size=3)


def _alphabets():
    root = st.fixed_dictionaries(
        {"radicand": _texts()},
        optional={"label": st.one_of(_texts(), st.integers(0, 2))})
    return _documents(st.fixed_dictionaries(
        {"roots": st.lists(root, max_size=3)}, optional={"variables": _NAMES}))


def _maps():
    extension = st.one_of(_texts(), st.sampled_from(
        ["sqrt(7)*I", "2*I", "sqrt(69)*I/3", "sqrt(2)", "sqrt(0)"]))
    return _documents(st.fixed_dictionaries(
        {"variables": _NAMES,
         "assignments": st.dictionaries(st.sampled_from(["X", "Y", "I"]),
                                        _texts(), max_size=2)},
        optional={"extension": extension}))


def _parsed_or_refused(read, *args):
    try:
        read(*args)
    except RatsqrtError:
        pass


class TestUntrustedInput:
    """Generated input is parsed or refused with a RatsqrtError; no other
    exception escapes the readers."""

    @FUZZ
    @given(_texts(), st.sampled_from([None, -7, 2]))
    def test_parse_rational(self, text, r):
        _parsed_or_refused(parse_rational, text)
        if r is not None:
            _parsed_or_refused(parse_rational, text, ("X", "Y"),
                               quadratic_field(r)[0])

    @FUZZ
    @given(_alphabets())
    def test_load_alphabet(self, doc):
        _parsed_or_refused(load_alphabet, doc)

    @FUZZ
    @given(_maps())
    def test_map_from_json(self, doc):
        _parsed_or_refused(map_from_json, doc)

    # 300 nested parentheses or 2,000 unary minus signs used to exhaust
    # the stack of the recursive descent
    DEEP = ["(" * 300 + "X" + ")" * 300, "-" * 2000 + "X",
            "-(" * 150 + "X" + ")" * 150]

    @pytest.mark.parametrize("text", DEEP)
    def test_deep_expression_refused(self, text):
        with pytest.raises(ParseSyntaxError, match="nesting") as e:
            parse_rational(text)
        assert e.value.offset == 100

    @pytest.mark.parametrize("text", DEEP)
    def test_deep_radicand_refused(self, text):
        with pytest.raises(ParseSyntaxError, match="nesting"):
            load_alphabet({"roots": [{"radicand": "X"}, {"radicand": text}]})

    @pytest.mark.parametrize("text", DEEP)
    def test_deep_assignment_refused(self, text):
        with pytest.raises(ParseSyntaxError, match="nesting"):
            map_from_json({"variables": ["X"], "assignments": {"X": text}})

    @pytest.mark.parametrize("reader", [load_alphabet, map_from_json])
    def test_deep_document_refused(self, reader):
        # json.loads raises RecursionError on a document this deep
        with pytest.raises(SchemaError, match="nesting too deep"):
            reader("[" * 100_000 + "]" * 100_000)

    def test_nesting_up_to_the_cap_parses(self):
        x = parse_rational("X")
        assert parse_rational("(" * 100 + "X" + ")" * 100) == x
        assert parse_rational("-" * 100 + "X") == x
        assert parse_rational("-(" * 50 + "X" + ")" * 50) == x
