"""Recursive-descent parser for polynomial and rational-function input.

Grammar (whitespace insignificant between tokens):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | base ('^' integer)?
    base    := rational | identifier | '(' expr ')'
    rational:= integer ('/' integer)?   -- only when both parts are literals

Multiplication is always explicit (``2*X``, never ``2X``), exponents are
nonnegative integer literals, and decimal numbers are rejected.  Division is
permitted anywhere; the parse therefore produces a
:class:`~ratsqrt.mpoly.RationalFunction`, and :func:`parse_poly` additionally
demands a constant denominator.

Alphabets arrive as JSON documents::

    {"variables": ["X", "Y"],              # optional; inferred if absent
     "roots": [{"radicand": "X - 1", "label": "w1"},
               {"radicand": "X - 2"}]}

Substitution maps serialize as JSON with one expression string per variable
plus an optional ``extension`` entry sqrt(c) naming a quadratic
irrationality; see :func:`map_from_json`.  Their coefficients are read by
the same parser over the declared field QQ(sqrt(c)), with the constant
atoms ``I`` and ``sqrt(<integer>)`` (written ``sqrt(n)*I`` for sqrt(-n)),
exactly as sympy prints such numbers.  Nothing is ever evaluated.
"""

from __future__ import annotations

import json
import re

from .errors import (
    NonIntegerExponent,
    ParseSyntaxError,
    SchemaError,
    ZeroDenominator,
)
from .mpoly import (
    MultiPoly,
    RationalFunction,
    RationalMap,
    _field_sqrt,
    _rational,
    _ring,
    quadratic_field,
)

_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_INT = re.compile(r"[0-9]+")
# levels of parentheses and unary minus a text may nest; each level costs
# the descent a few stack frames, so deeper input would exhaust the stack
_MAX_DEPTH = 100


class _Scanner:
    def __init__(self, text: str):
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
        m = _INT.match(self.text, self.pos)
        if not m:
            return None
        end = m.end()
        if end < len(self.text) and self.text[end] == ".":
            raise ParseSyntaxError("decimal literals are not accepted", self.pos)
        self.pos = end
        return int(m.group())


class _Parser:
    """Parses into a (numerator, denominator) pair over a ring fixed up
    front: the given variables, or the text's identifiers in order of first
    appearance (each one a variable in any text that parses), with
    coefficients in QQ or in a given quadratic field, whose constant atoms
    I and sqrt are never variables.  Constant denominators are folded into
    the numerator as they arise."""

    def __init__(self, text, variables=None, field=None):
        self.sc = _Scanner(text)
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
        return node

    def _nested(self, parse):
        """parse() one level of parentheses or unary minus deeper, the
        token just read; past _MAX_DEPTH levels the input is refused."""
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
                    raise ZeroDenominator(
                        f"division by zero at offset {pos}"
                    )
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
                    f"exponent must be a nonnegative integer literal (offset {pos})"
                )
            n = self.sc.integer()
            if n is None:
                raise NonIntegerExponent(
                    f"exponent must be a nonnegative integer literal (offset {pos})"
                )
            if n == 0:  # also for a zero base, as 0^0 = 1
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
        """The constant I, sqrt(n) or sqrt(n)*I as an element of the ring's
        quadratic field.  sqrt(n)*I, as sympy prints sqrt(-n), is read as one
        atom, so it may not follow '/' nor take an exponent."""
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


def parse_rational(text, variables=None, field=None):
    """Parse an expression string into a RationalFunction.

    With ``variables`` given (distinct identifiers, in a list or tuple),
    only those names are accepted and the result lives in that exact ring;
    otherwise variables are collected in order of first appearance.  With a
    quadratic ``field``, its elements may be written with the atoms ``I``
    and ``sqrt(<integer>)``.
    """
    if variables is not None:
        _check_variables(variables)
    p = _Parser(text, variables, field)
    num, den = p.parse()
    return RationalFunction(MultiPoly.of(num), MultiPoly.of(den))


def parse_poly(text, variables=None):
    """Parse a polynomial; division by non-constants is a syntax-level error."""
    g = parse_rational(text, variables)
    if not g.den.is_constant():
        raise ParseSyntaxError(
            "expected a polynomial but the expression has a non-constant "
            "denominator",
            0,
        )
    return g.num


def infer_variables(texts):
    """Variables across several expressions, in order of first appearance."""
    out = []
    seen = set()
    for text in texts:
        p = _Parser(text)
        p.parse()
        for v in p.vars:
            if v not in seen:
                seen.add(v)
                out.append(v)
    return out


# --------------------------------------------------------------------------
# alphabet documents


def _json_document(doc):
    """The value a JSON text encodes; any other doc is returned as it is."""
    if not isinstance(doc, str):
        return doc
    try:
        return json.loads(doc)
    except json.JSONDecodeError as e:
        raise SchemaError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise SchemaError("invalid JSON: nesting too deep") from None


def _check_variables(variables):
    if not isinstance(variables, (list, tuple)) or not all(
        isinstance(v, str) and _IDENT.fullmatch(v) for v in variables
    ):
        raise SchemaError("'variables' must be a list of identifiers")
    if len(set(variables)) != len(variables):
        raise SchemaError("duplicate variable names")
    return variables


def load_alphabet(doc):
    """Validate an alphabet JSON document (dict or string).

    Returns (variables, [(label, radicand MultiPoly), ...]).
    """
    doc = _json_document(doc)
    if not isinstance(doc, dict):
        raise SchemaError("alphabet document must be a JSON object")
    unknown = set(doc) - {"variables", "roots"}
    if unknown:
        raise SchemaError(f"unknown keys in alphabet document: {sorted(unknown)}")
    if "roots" not in doc or not isinstance(doc["roots"], list) or not doc["roots"]:
        raise SchemaError("alphabet document needs a non-empty 'roots' array")
    texts = []
    labels = []
    for i, entry in enumerate(doc["roots"]):
        if not isinstance(entry, dict) or "radicand" not in entry:
            raise SchemaError(f"roots[{i}] must be an object with a 'radicand'")
        bad = set(entry) - {"radicand", "label"}
        if bad:
            raise SchemaError(f"unknown keys in roots[{i}]: {sorted(bad)}")
        if not isinstance(entry["radicand"], str):
            raise SchemaError(f"roots[{i}].radicand must be a string")
        label = entry.get("label", f"r{i + 1}")
        if not isinstance(label, str):
            raise SchemaError(f"roots[{i}].label must be a string")
        texts.append(entry["radicand"])
        labels.append(label)
    if len(set(labels)) != len(labels):
        raise SchemaError("duplicate root labels")
    if "variables" in doc:
        variables = _check_variables(doc["variables"])
    else:
        variables = infer_variables(texts)
    roots = [
        (label, parse_poly(text, variables)) for label, text in zip(labels, texts)
    ]
    return tuple(variables), roots


# --------------------------------------------------------------------------
# substitution-map round-trip


_SQRT_ATOM = re.compile(r"sqrt\(([0-9]+)\)(\*I)?|I")


def _extension(text):
    """The rational c of an extension text sqrt(c), as RationalMap.to_json
    writes it (``sqrt(7)*I``, ``2*I``, ``sqrt(69)*I/3``)."""
    atom = _SQRT_ATOM.search(text)
    if atom is None:
        raise SchemaError(f"extension {text!r} is not a square root")
    n = int(atom.group(1) or 1) * (-1 if atom.group(2) or atom.group() == "I" else 1)
    try:
        field = quadratic_field(n)[0]
    except ValueError:
        raise SchemaError(f"extension {text!r} is rational") from None
    root = parse_rational(text, (), field).num.constant_value()
    if _rational(root) is not None or _rational(root * root) is None:
        raise SchemaError(f"extension {text!r} is not a square root")
    return _rational(root * root)


def map_from_json(doc):
    """A RationalMap from its JSON form (dict or string); see
    RationalMap.to_json.  Malformed documents raise SchemaError."""
    doc = _json_document(doc)
    if not isinstance(doc, dict) or set(doc) - {"variables", "assignments",
                                                 "extension"}:
        raise SchemaError("a map is an object with 'variables', 'assignments'"
                          " and an optional 'extension'")
    variables = _check_variables(doc.get("variables"))
    assignments = doc.get("assignments")
    ext = doc.get("extension")
    if not isinstance(assignments, dict) or not all(
        isinstance(t, str) for t in assignments.values()
    ):
        raise SchemaError("'assignments' must map variables to strings")
    if set(assignments) - set(variables):
        raise SchemaError("'assignments' may only assign declared variables")
    if ext is not None and not isinstance(ext, str):
        raise SchemaError("'extension' must be a string")
    c = None if ext is None else _extension(ext)
    field = None if c is None else quadratic_field(c)[0]
    return RationalMap(
        variables,
        {v: parse_rational(t, variables, field) for v, t in assignments.items()},
        extension=c,
    )
