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

The text is read in one pass, one token ahead, and the ring (its variables
and coefficient field) is fixed before the first token.  A product of
integer literals, variables, their powers and field atoms is gathered into
one term: a coefficient and one exponent list, with a division by a
monomial subtracting exponents.  A sum of such terms is gathered into an
exponent dict {exponent tuple: coefficient}, and the ring element is built
from it once, with ``from_dict``, at the end of the text or of the
parenthesized sum.  Ring arithmetic runs only where a sum meets another
factor: products, quotients and powers of multi-term polynomials stay on
the ring's ``*`` and ``**``, so ``(X + Y + 1)^120`` costs what the ring's
multinomial power costs.  A denominator that turns out constant is folded
into the numerator.

A numerator written as a product of powers of parenthesized sums,
variables and constants also keeps that product, as its factor list of
(ring element, exponent) pairs: a parenthesized sum is one factor, a
variable another, a constant none.  Unary minus keeps the list, ``^n``
multiplies its exponents, and a division leaves the numerator's list as
it is; a sum, a division by a fraction with a non-constant denominator,
or a common factor cancelled between numerator and denominator drops
it.  parse_rational hands the list to the numerator's MultiPoly, where
squarefree_part reads it.

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
    _divided,
    _element,
    _field_sqrt,
    _listed,
    _rational,
    _ring,
    quadratic_field,
)

_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
# one token after optional whitespace: an integer literal, an identifier or
# any other single character, or none of them at the end of the text
_TOKEN = re.compile(r"\s*(?:([0-9]+)|([A-Za-z_][A-Za-z_0-9]*)|(.))?", re.S)
_INT, _NAME = 1, 2
# levels of parentheses and unary minus a text may nest; each level costs
# the descent a few stack frames, so deeper input would exhaust the stack
_MAX_DEPTH = 100


class _Frac:
    """A fraction of ring elements; a denominator None stands for 1.
    `factors`, when not None, is a tuple of (ring element, exponent) pairs
    whose product is the numerator up to a constant."""

    __slots__ = ("num", "den", "factors")

    def __init__(self, num, den=None, factors=None):
        self.num, self.den, self.factors = num, den, factors


def _times(a, b):
    """a*b for ring elements or None, which stands for 1."""
    return b if a is None else a if b is None else a * b


def _poly(ring, terms):
    """The ring element of {exponent tuple: coefficient}."""
    K = ring.domain
    return ring.from_dict({e: _element(K, c) for e, c in terms.items()})


def _powers(ring, exponents):
    """The factor list of a monic monomial: (generator, exponent) pairs."""
    return tuple((x, k) for x, k in zip(ring.gens, exponents) if k)


def _quo(K, a, b):
    """a/b for coefficients as _element takes them."""
    return K.quo(_element(K, a), _element(K, b))


class _Parser:
    """Parses into a (numerator, denominator) pair over a ring fixed up
    front: the given variables, or the text's identifiers in order of first
    appearance (each one a variable in any text that parses), with
    coefficients in QQ or in a given quadratic field, whose constant atoms
    I and sqrt are never variables.

    The descent reads one token ahead: `tok` is its text ("" at the end),
    `kind` the number of its group in _TOKEN (None at the end), `at` its
    offset and `pos` the offset just past it.  A factor is a monomial
    (coefficient, ((variable index, exponent), ...)) or a _Frac of ring
    elements; see the module docstring for how terms and sums gather."""

    def __init__(self, text, variables=None, field=None):
        if variables is None:
            atoms = () if field is None else ("I", "sqrt")
            variables = dict.fromkeys(
                v for v in _IDENT.findall(text) if v not in atoms)
        self.vars = tuple(variables)
        self.ring = _ring(self.vars) if field is None else _ring(self.vars, field)
        self.units = {v: ((i, 1),) for i, v in enumerate(self.vars)}
        self.text = text
        self.pos = 0
        self.depth = 0
        self._next()

    def _next(self):
        m = _TOKEN.match(self.text, self.pos)
        self.kind = k = m.lastindex
        self.tok = m.group(k) if k else ""
        self.at = m.start(k) if k else m.end()
        self.pos = m.end()

    def _expect(self, ch):
        if self.tok != ch:
            raise ParseSyntaxError(f"expected '{ch}'", self.at)
        self._next()

    def _integer(self):
        """The integer literal at the token, read, or None."""
        if self.kind != _INT:
            return None
        if self.text.startswith(".", self.pos):
            raise ParseSyntaxError("decimal literals are not accepted", self.at)
        n = int(self.tok)
        self._next()
        return n

    def parse(self):
        """(numerator, denominator, factor list of the numerator or None)."""
        value = self.expr()
        if self.kind is not None:
            raise ParseSyntaxError("unexpected trailing input", self.at)
        ring = self.ring
        if isinstance(value, dict):
            # a monomial lists its variables, a sum of monomials nothing
            num, den = _poly(ring, value), ring.one
            factors = _powers(ring, next(iter(value))) if len(value) == 1 else None
        else:
            num, den, factors = value.num, value.den, value.factors
            den = ring.one if den is None else den
        return num, den, factors if num else None

    def _nested(self, parse, at):
        """parse() one level of parentheses or unary minus deeper, the
        token at offset `at` just read; past _MAX_DEPTH levels the input is
        refused."""
        if self.depth == _MAX_DEPTH:
            raise ParseSyntaxError("nesting too deep", at)
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def expr(self):
        """A dict {exponent tuple: coefficient} when every term is a
        monomial, else a _Frac."""
        terms, frac, sign = {}, None, 1
        while True:
            t = self.term(sign)
            if isinstance(t, _Frac):
                if frac is None:
                    frac = t
                elif frac.den == t.den:
                    frac = _Frac(frac.num + t.num, frac.den)
                else:
                    frac = _Frac(_times(frac.num, t.den) + _times(t.num, frac.den),
                                 _times(frac.den, t.den))
            else:
                c, e = t
                terms[e] = terms.get(e, 0) + c
            if self.tok == "+":
                sign = 1
            elif self.tok == "-":
                sign = -1
            else:
                break
            self._next()
        if frac is not None and terms:
            rest = _poly(self.ring, terms)
            frac = _Frac(frac.num + _times(rest, frac.den), frac.den)
        return terms if frac is None else frac

    def term(self, c):
        """c times a product: a monomial (coefficient, exponent tuple), or
        a _Frac when a factor is one or a monomial divides."""
        e, frac, divided = [0] * len(self.vars), None, False
        value, divide = self.factor(), False
        while True:
            if isinstance(value, _Frac):
                if divide:
                    if not value.num:
                        raise ZeroDenominator(f"division by zero at offset {at}")
                    value = (_Frac(self.ring.one, value.num, ())
                             if value.den is None
                             else _Frac(value.den, value.num))
                frac = value if frac is None else _Frac(
                    frac.num * value.num, _times(frac.den, value.den),
                    None if frac.factors is None or value.factors is None
                    else frac.factors + value.factors)
            else:
                q, mono = value
                if not divide:
                    c = c * q
                    for i, k in mono:
                        e[i] += k
                elif not q:
                    raise ZeroDenominator(f"division by zero at offset {at}")
                else:
                    c = _quo(self.ring.domain, c, q)
                    for i, k in mono:
                        e[i] -= k
                    divided = divided or bool(mono)
            if self.tok == "*":
                divide = False
            elif self.tok == "/":
                divide, at = True, self.pos
            else:
                break
            self._next()
            value = self.factor()
        if frac is None and not divided:
            return c, tuple(e)
        # the monomial's negative exponents go to the denominator
        ring = self.ring
        top = tuple(k if k > 0 else 0 for k in e)
        bottom = tuple(-k if k < 0 else 0 for k in e)
        if frac is None:
            num, den, factors = _poly(ring, {top: c}), None, ()
        elif c == 1 and not any(top):
            num, den, factors = frac.num, frac.den, frac.factors
        else:
            num = frac.num.mul_term((top, _element(ring.domain, c)))
            den, factors = frac.den, frac.factors
        if any(bottom):
            den = _times(_poly(ring, {bottom: 1}), den)
        if den is not None and den.is_ground:
            num, den = _divided(num, den.LC), None
        if factors is not None:
            factors += _powers(ring, top)
        return _Frac(num, den, factors)

    def factor(self):
        if self.tok == "-":
            at = self.at
            self._next()
            value = self._nested(self.factor, at)
            if isinstance(value, _Frac):
                return _Frac(-value.num, value.den, value.factors)
            return -value[0], value[1]
        value = self.base()
        if self.tok != "^":
            return value
        at = self.pos
        self._next()
        n = None if self.tok in ("-", "(") else self._integer()
        if n is None:
            raise NonIntegerExponent(
                f"exponent must be a nonnegative integer literal (offset {at})"
            )
        if n == 0:  # also for a zero base, as 0^0 = 1
            return 1, ()
        if isinstance(value, _Frac):
            factors = value.factors
            if factors is not None:
                factors = tuple((f, k * n) for f, k in factors)
            return _Frac(value.num**n, None if value.den is None
                         else value.den**n, factors)
        c, mono = value
        return c**n, tuple((i, k * n) for i, k in mono)

    def base(self):
        tok, at = self.tok, self.at
        if tok == "(":
            self._next()
            value = self._nested(self.expr, at)
            self._expect(")")
            if not isinstance(value, dict):
                return value
            if len(value) > 1:
                pe = _poly(self.ring, value)
                return _Frac(pe, None, ((pe, 1),))
            [(e, c)] = value.items()
            return c, tuple((i, k) for i, k in enumerate(e) if k)
        if self.kind == _INT:
            return self._integer(), ()
        if self.kind != _NAME:
            if tok == "":
                raise ParseSyntaxError("unexpected end of input", at)
            raise ParseSyntaxError(f"unexpected character '{tok}'", at)
        self._next()
        unit = self.units.get(tok)
        if unit is not None:
            return 1, unit
        if self.ring.domain.is_QQ or tok not in ("I", "sqrt"):
            raise ParseSyntaxError(f"unknown variable '{tok}'", at)
        return self._root(tok, at), ()

    def _root(self, name, at):
        """The constant I, sqrt(n) or sqrt(n)*I, the name at offset `at`
        just read, as an element of the ring's quadratic field.
        sqrt(n)*I, as sympy prints sqrt(-n), is read as one atom, so it may
        not follow '/' nor take an exponent."""
        n = -1
        if name == "sqrt":
            self._expect("(")
            n = self._integer()
            if n is None:
                raise ParseSyntaxError("expected an integer", self.at)
            if self.tok != ")":
                raise ParseSyntaxError("expected ')'", self.at)
            text, end = self.text, self.pos
            star = text.startswith("*I", end) and not _IDENT.match(text, end + 2)
            if star:
                self.pos = end + 2
            self._next()
            if star:
                if text[:at].rstrip().endswith("/") or self.tok == "^":
                    raise ParseSyntaxError("parenthesize sqrt(n)*I", at)
                n = -n
        K = self.ring.domain
        root = _field_sqrt(_element(K, n), K)
        if root is None:
            raise ParseSyntaxError(f"sqrt({n}) is not in the declared field", at)
        return root


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
    num, den, factors = _Parser(text, variables, field).parse()
    return RationalFunction(_listed(num, factors), MultiPoly.of(den))


def _polynomial(g):
    """The numerator of g, when its denominator is constant."""
    if not g.den.is_constant():
        raise ParseSyntaxError(
            "expected a polynomial but the expression has a non-constant "
            "denominator",
            0,
        )
    return g.num


def parse_poly(text, variables=None):
    """Parse a polynomial; division by non-constants is a syntax-level error."""
    return _polynomial(parse_rational(text, variables))


def _identifiers(texts):
    """The identifiers of the texts, in order of first appearance."""
    return list(dict.fromkeys(v for text in texts for v in _IDENT.findall(text)))


def infer_variables(texts):
    """Variables across several expressions, in order of first appearance;
    every text must parse."""
    texts = list(texts)
    for text in texts:
        _Parser(text).parse()
    return _identifiers(texts)


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
        polys = [parse_poly(text, variables) for text in texts]
    else:
        # the identifiers in order of first appearance, each text parsed
        # once; every text is read before any denominator is checked, so a
        # syntax error anywhere comes first, as infer_variables would raise it
        variables = _identifiers(texts)
        fractions = [parse_rational(text, variables) for text in texts]
        polys = [_polynomial(g) for g in fractions]
    return tuple(variables), list(zip(labels, polys))


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
