"""Expression parsing and alphabet document validation."""

import json
import re
import time

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ

from ratsqrt.errors import (
    NonIntegerExponent,
    ParseSyntaxError,
    RatsqrtError,
    SchemaError,
    ZeroDenominator,
)
from ratsqrt.mpoly import (
    MultiPoly,
    RationalFunction,
    _field_sqrt,
    _ring,
    poly_str,
    quadratic_field,
    rf_str,
)
from ratsqrt import parser
from ratsqrt.parser import (
    _IDENT,
    _MAX_DEPTH,
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

    def test_each_radicand_parsed_once(self, monkeypatch):
        # without "variables" they are the identifiers in order of first
        # appearance, and no parse runs only to find them
        texts = []
        parse = parser._Parser.parse
        monkeypatch.setattr(parser._Parser, "parse",
                            lambda self: texts.append(self.text) or parse(self))
        variables, roots = load_alphabet(
            {"roots": [{"radicand": "Y - 1"}, {"radicand": "X*Y + Y"}]})
        assert texts == ["Y - 1", "X*Y + Y"]
        assert variables == ("Y", "X")
        assert [f for _l, f in roots] == [parse_poly("Y - 1", ("Y", "X")),
                                          parse_poly("X*Y + Y", ("Y", "X"))]

    def test_syntax_error_comes_before_a_denominator(self):
        # every radicand is read before any denominator is checked, as
        # when a parse of each text inferred the variables first
        doc = {"roots": [{"radicand": "1/X"}, {"radicand": "X +"}]}
        with pytest.raises(ParseSyntaxError, match="end of input"):
            load_alphabet(doc)
        with pytest.raises(ParseSyntaxError, match="end of input"):
            infer_variables([r["radicand"] for r in doc["roots"]])


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


# -- the one-pass parser against ring arithmetic -------------------------------


class _RefScanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            raise ParseSyntaxError(f"expected '{ch}'", self.pos)
        self.pos += 1

    def match(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def ident(self):
        self.skip_ws()
        m = _IDENT.match(self.text, self.pos)
        if not m:
            return None
        self.pos = m.end()
        return m.group()

    def integer(self):
        self.skip_ws()
        m = re.compile(r"[0-9]+").match(self.text, self.pos)
        if not m:
            return None
        end = m.end()
        if end < len(self.text) and self.text[end] == ".":
            raise ParseSyntaxError("decimal literals are not accepted", self.pos)
        self.pos = end
        return int(m.group())


class _RefParser:
    """The reference evaluator: every token becomes a (numerator,
    denominator) pair of ring elements, combined by ring arithmetic."""

    def __init__(self, text, variables=None, field=None):
        self.sc = _RefScanner(text)
        if variables is None:
            atoms = () if field is None else ("I", "sqrt")
            variables = dict.fromkeys(
                v for v in _IDENT.findall(text) if v not in atoms)
        self.vars = tuple(variables)
        self.ring = _ring(self.vars) if field is None else _ring(self.vars, field)
        self.gens = dict(zip(self.vars, self.ring.gens))
        self.depth = 0

    def parse(self):
        node = self.expr()
        self.sc.skip_ws()
        if self.sc.pos != len(self.sc.text):
            raise ParseSyntaxError("unexpected trailing input", self.sc.pos)
        return RationalFunction(MultiPoly.of(node[0]), MultiPoly.of(node[1]))

    def _nested(self, parse):
        if self.depth == _MAX_DEPTH:
            raise ParseSyntaxError("nesting too deep", self.sc.pos - 1)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def _frac(self, num, den):
        if den.is_ground:
            return num.quo_ground(den.LC), self.ring.one
        return num, den

    def expr(self):
        num, den = self.term()
        while True:
            if self.sc.match("+"):
                n2, d2 = self.term()
            elif self.sc.match("-"):
                n2, d2 = self.term()
                n2 = -n2
            else:
                return num, den
            if d2 == den:
                num = num + n2
            else:
                num, den = num * d2 + n2 * den, den * d2

    def term(self):
        num, den = self.factor()
        while True:
            if self.sc.match("*"):
                n2, d2 = self.factor()
                num, den = self._frac(num * n2, den * d2)
            elif self.sc.match("/"):
                pos = self.sc.pos
                n2, d2 = self.factor()
                if not n2:
                    raise ZeroDenominator(f"division by zero at offset {pos}")
                num, den = self._frac(num * d2, den * n2)
            else:
                return num, den

    def factor(self):
        if self.sc.match("-"):
            num, den = self._nested(self.factor)
            return -num, den
        num, den = self.base()
        if self.sc.match("^"):
            pos = self.sc.pos
            if self.sc.peek() == "-" or self.sc.peek() == "(":
                raise NonIntegerExponent(
                    f"exponent must be a nonnegative integer literal (offset {pos})")
            n = self.sc.integer()
            if n is None:
                raise NonIntegerExponent(
                    f"exponent must be a nonnegative integer literal (offset {pos})")
            if n == 0:
                return self.ring.one, self.ring.one
            return num**n, den**n
        return num, den

    def base(self):
        ch = self.sc.peek()
        if ch == "(":
            self.sc.expect("(")
            node = self._nested(self.expr)
            self.sc.expect(")")
            return node
        if ch.isdigit():
            return self.ring(self.sc.integer()), self.ring.one
        name = self.sc.ident()
        if name is None:
            if ch == "":
                raise ParseSyntaxError("unexpected end of input", self.sc.pos)
            raise ParseSyntaxError(f"unexpected character '{ch}'", self.sc.pos)
        if name in self.gens:
            return self.gens[name], self.ring.one
        pos = self.sc.pos - len(name)
        if self.ring.domain.is_QQ or name not in ("I", "sqrt"):
            raise ParseSyntaxError(f"unknown variable '{name}'", pos)
        return self._root(name, pos), self.ring.one

    def _root(self, name, pos):
        n = -1
        if name == "sqrt":
            self.sc.expect("(")
            n = self.sc.integer()
            if n is None:
                raise ParseSyntaxError("expected an integer", self.sc.pos)
            self.sc.expect(")")
            text, end = self.sc.text, self.sc.pos + 2
            if text.startswith("*I", self.sc.pos) and not _IDENT.match(text, end):
                self.sc.pos = end
                if text[:pos].rstrip().endswith("/") or self.sc.peek() == "^":
                    raise ParseSyntaxError("parenthesize sqrt(n)*I", pos)
                n = -n
        K = self.ring.domain
        root = _field_sqrt(K.convert(n), K)
        if root is None:
            raise ParseSyntaxError(f"sqrt({n}) is not in the declared field", pos)
        return self.ring.ground_new(root)


def _outcome(read):
    """read()'s value, or the type, message and offset of its error."""
    try:
        return read()
    except RatsqrtError as e:
        return type(e), str(e), getattr(e, "offset", None)


_ATOMS = ["0", "1", "2", "3", "12", "X", "Y", "I", "sqrt(7)*I", "sqrt(28)*I",
          "sqrt(4)", "sqrt(7)", "sqrt( 7 )*I"]


def _spaced(parts):
    return st.lists(st.sampled_from(["", "", " "]), min_size=len(parts),
                    max_size=len(parts)).map(
        lambda ws: "".join(w + p for w, p in zip(ws, parts)))


def _expressions():
    """Well-formed texts: sums, products, quotients, unary minus, powers and
    parentheses over integers, X, Y and the atoms of QQ(sqrt(-7)), with
    whitespace here and there."""
    leaf = st.sampled_from(_ATOMS)

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).flatmap(
                lambda t: _spaced(list(t))),
            inner.flatmap(lambda t: _spaced(["-", t])),
            inner.flatmap(lambda t: _spaced(["(", t, ")"])),
            st.tuples(inner, st.sampled_from(["0", "1", "2", "3"])).flatmap(
                lambda t: _spaced(["(", t[0], ")", "^", t[1]])),
        )

    return st.recursive(leaf, extend, max_leaves=10)


_SOUP = ["X", "Y", "I", "I2", "sqrt", "0", "1", "7", "+", "-", "*", "/", "^",
         "(", ")", " ", ".", "é", "_"]


class TestAgainstRingArithmetic:
    """The one-pass parser gives what token-by-token ring arithmetic gives,
    value or error alike, over QQ and over QQ(sqrt(-7))."""

    SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                        database=None)

    @SETTINGS
    @given(_expressions(), st.sampled_from([None, -7]),
           st.sampled_from([None, ("X", "Y")]))
    def test_well_formed_texts(self, text, r, variables):
        field = None if r is None else quadratic_field(r)[0]
        want = _outcome(lambda: _RefParser(text, variables, field).parse())
        got = _outcome(lambda: parse_rational(text, variables, field))
        assert got == want

    @SETTINGS
    @given(st.lists(st.sampled_from(_SOUP), max_size=12).map("".join),
           st.sampled_from([None, -7]))
    def test_token_soup(self, text, r):
        field = None if r is None else quadratic_field(r)[0]
        want = _outcome(lambda: _RefParser(text, None, field).parse())
        got = _outcome(lambda: parse_rational(text, None, field))
        assert got == want

    @pytest.mark.parametrize("text", [
        "sqrt(7)*I2", "1/sqrt(7)*I", "2 / sqrt(7)*I", "sqrt(7)*I^2",
        "sqrt(7) *I", "sqrt(7)*I_", "X/X", "X^2/X + 1", "(X+1)/(2+0*X)",
        "1/(X - X)", "0/X", "-(X+1)*(X-1)/(X-1)", "2^3^2", "X^0/0^0",
        "(2)^3*X/(4*Y)^2", "X^2.5", "1.", "1 .5", "(X", "X)", "", "   ",
    ])
    def test_edge_texts(self, text):
        field = quadratic_field(-7)[0]
        for f in (None, field):
            want = _outcome(lambda: _RefParser(text, None, f).parse())
            assert _outcome(lambda: parse_rational(text, None, f)) == want


_XY = ("X", "Y")


class TestFactorLists:
    """The factor list parse_rational records on a numerator written as a
    product of powers of parenthesized sums, variables and constants."""

    @pytest.mark.parametrize("text, factors", [
        ("(X + 1)^2*(X - Y)", [("X + 1", 2), ("X - Y", 1)]),
        ("-(X + 1)^2*3*X^2*Y/2", [("X + 1", 2), ("X", 2), ("Y", 1)]),
        ("2*(X - Y)*-(X + 1)^2", [("X - Y", 1), ("X + 1", 2)]),
        ("((X + 1)^2)^3*(X - 1)", [("X + 1", 6), ("X - 1", 1)]),
        ("((X + 1)*(Y - 1))^2", [("X + 1", 2), ("Y - 1", 2)]),
        ("(X + 1)*(X - 1)^0*(2 + 0*X)", [("X + 1", 1), ("2", 1)]),
        ("X^3/X*(Y + 1)", [("Y + 1", 1), ("X", 2)]),
        ("-X^2*Y", [("X", 2), ("Y", 1)]),
        ("3/4", []),
    ])
    def test_the_list(self, text, factors):
        g = parse_rational(text, _XY)
        assert g.num.factors == tuple((parse_poly(f, _XY).pe, k)
                                      for f, k in factors)

    @pytest.mark.parametrize("text", [
        "(X + 1)^2 + 1", "(X + 1)*(X - 1) - X", "X*(X + 1) + (X + 1)",
        "X^2 + Y", "(X + 1)^2/(X + 1)", "(X^2 - 1)/(X - 1)",
        "X/((Y + 1)/(X + 2))", "0*(X + 1)^2", "0",
    ])
    def test_sums_cancellation_and_a_divided_fraction_drop_it(self, text):
        assert parse_rational(text, _XY).num.factors is None

    @pytest.mark.parametrize("text, factors", [
        ("(X + 1)^2/X", [("X + 1", 2)]),
        ("(X + 1)^2/(Y + 1)", [("X + 1", 2)]),
        ("X*(X + 1)/(X - 1)", [("X + 1", 1), ("X", 1)]),
        ("(X + 1)/(2 + 0*X)", [("X + 1", 1)]),
        ("(X + 1)/Y^2*(X - 1)", [("X + 1", 1), ("X - 1", 1)]),
        ("(X + Y)*(1 + X*Y)/(X + Y - 4*X*Y + X^2*Y + X*Y^2)",
         [("X + Y", 1), ("1 + X*Y", 1)]),
    ])
    def test_a_division_keeps_the_numerators_list(self, text, factors):
        g = parse_rational(text, _XY)
        assert g.num.factors == tuple((parse_poly(f, _XY).pe, k)
                                      for f, k in factors)

    @TestAgainstRingArithmetic.SETTINGS
    @given(_expressions(), st.sampled_from([None, -7]))
    def test_its_product_is_the_numerator_up_to_a_constant(self, text, r):
        field = None if r is None else quadratic_field(r)[0]
        try:
            g = parse_rational(text, _XY, field)
        except RatsqrtError:
            return
        if g.num.factors is not None:
            product = MultiPoly.const(_XY, 1)
            for f, k in g.num.factors:
                product = product * MultiPoly.of(f) ** k
            assert not g.num.is_zero()
            assert product.monic() == g.num.monic()


def test_power_of_a_sum_costs_what_the_ring_power_costs():
    # the sum is built once and handed to the ring's multinomial power, so
    # the parse takes about as long as that power alone
    x, y = _ring(("X", "Y")).gens

    def best(run):
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            out = run()
            times.append(time.perf_counter() - t0)
        return out, min(times)

    want, ring_s = best(lambda: (x + y + 1) ** 120)
    got, parse_s = best(lambda: parse_rational("(X + Y + 1)^120"))
    assert got.num.pe == want and got.den.is_constant()
    assert parse_s < 3 * ring_s
