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
plus an optional ``extension`` entry naming a quadratic irrationality; see
:func:`map_from_json`.
"""

from __future__ import annotations

import json
import re

import sympy as sp

from .errors import (
    NonIntegerExponent,
    ParseSyntaxError,
    SchemaError,
    ZeroDenominator,
)
from .mpoly import MultiPoly, RationalFunction, RationalMap, _from_ring, _ring

_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_INT = re.compile(r"[0-9]+")


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
    appearance (each one a variable in any text that parses).  Constant
    denominators are folded into the numerator as they arise."""

    def __init__(self, text, variables=None):
        self.sc = _Scanner(text)
        if variables is None:
            variables = dict.fromkeys(_IDENT.findall(text))
        self.vars = list(variables)
        self.ring = _ring(self.vars)
        self.gens = dict(zip(self.vars, self.ring.gens))

    def parse(self):
        node = self.expr()
        self.sc.skip_ws()
        if self.sc.pos != len(self.sc.text):
            raise ParseSyntaxError("unexpected trailing input", self.sc.pos)
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
            num, den = self.factor()
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
            node = self.expr()
            self.sc.expect(")")
            return node
        if ch.isdigit():
            return self.ring(self.sc.integer()), self.ring.one
        name = self.sc.ident()
        if name is None:
            if ch == "":
                raise ParseSyntaxError("unexpected end of input", self.sc.pos)
            raise ParseSyntaxError(f"unexpected character '{ch}'", self.sc.pos)
        if name not in self.gens:
            raise ParseSyntaxError(
                f"unknown variable '{name}'", self.sc.pos - len(name)
            )
        return self.gens[name], self.ring.one


def parse_rational(text, variables=None):
    """Parse an expression string into a RationalFunction.

    With ``variables`` given, only those names are accepted and the result
    lives in that exact ring; otherwise variables are collected in order of
    first appearance.
    """
    p = _Parser(text, variables)
    num, den = p.parse()
    if not den.is_ground:
        num, den = num.cancel(den)
    ring = tuple(p.vars)
    return RationalFunction(
        _from_ring(num, ring), _from_ring(den, ring), reduce=False
    )


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


def load_alphabet(doc):
    """Validate an alphabet JSON document (dict or string).

    Returns (variables, [(label, radicand MultiPoly), ...]).
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as e:
            raise SchemaError(f"invalid JSON: {e}") from None
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
        variables = doc["variables"]
        if not isinstance(variables, list) or not all(
            isinstance(v, str) and _IDENT.fullmatch(v) for v in variables
        ):
            raise SchemaError("'variables' must be a list of identifiers")
        if len(set(variables)) != len(variables):
            raise SchemaError("duplicate variable names")
    else:
        variables = infer_variables(texts)
    roots = [
        (label, parse_poly(text, variables)) for label, text in zip(labels, texts)
    ]
    return tuple(variables), roots


# --------------------------------------------------------------------------
# substitution-map round-trip


def map_to_json(m: RationalMap):
    return m.to_json()


def map_from_json(doc):
    if isinstance(doc, str):
        doc = json.loads(doc)
    variables = tuple(doc["variables"])
    ext_name = None
    ext_value = None
    if "extension" in doc:
        ext_name = "_ext"
        ext_value = sp.sympify(doc["extension"])
    assignments = {}
    for v, text in doc["assignments"].items():
        # the serialized form writes the irrationality inline, e.g. sqrt(-7);
        # sympify-compatible, so parse through sympy for extension maps
        if ext_value is not None:
            expr = sp.cancel(sp.together(sp.sympify(text.replace("^", "**"))))
            num, den = sp.fraction(expr)
            assignments[v] = RationalFunction(
                MultiPoly.from_sympy(num, variables),
                MultiPoly.from_sympy(den, variables),
                reduce=False,
            )
        else:
            assignments[v] = parse_rational(text, variables)
    return RationalMap(variables, assignments, extension=ext_value)
