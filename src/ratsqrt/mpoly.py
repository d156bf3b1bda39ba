"""Sparse multivariate polynomials, rational functions and substitution maps.

MultiPoly is the radicand universe: an ordered variable tuple plus a mapping
from exponent vectors to nonzero coefficients.  Coefficients are sympy
expressions, normally rational numbers; a single quadratic irrationality
(e.g. sqrt(-7)) is allowed so that substitution witnesses built from
non-rational quadric points stay exact.  The canonical term order is graded
lexicographic in the declared variable order, which makes equality, hashing
and printing representational.

The exact kernels (cancellation, gcd, squarefree decomposition,
factorization, the perfect-square test) run on sympy's sparse polynomial
rings (``PolyElement``), never on expression trees.  ``_to_ring`` and
``_from_ring`` are the one conversion boundary: ``PolyRing(vars, K, lex)``
with the generators in variable order, K = QQ when every coefficient is
rational, else the quadratic field QQ(theta) of coefficients a + b*theta.
Everything layered on top only uses the functions exported here.
"""

from __future__ import annotations

from fractions import Fraction

import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.orderings import lex
from sympy.polys.rings import PolyRing

from .errors import (
    OddDegree,
    UndefinedVariable,
    ZeroDenominator,
    ZeroRadicand,
)

def _canon_coeff(c):
    if isinstance(c, sp.Rational):
        return c
    if isinstance(c, Fraction):
        return sp.Rational(c.numerator, c.denominator)
    if isinstance(c, int):
        return sp.Integer(c)
    return sp.expand(sp.sympify(c))


def _inverse(c):
    """1/c, with a quadratic irrationality kept in the canonical a + b*theta
    form (the denominator rationalized)."""
    return sp.Integer(1) / c if c.is_Rational else sp.radsimp(1 / c)


def grlex_key(exp):
    return (sum(exp), exp)


class MultiPoly:
    """Immutable sparse polynomial over an ordered variable tuple."""

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, variables, terms):
        self.vars = tuple(variables)
        clean = {}
        for exp, c in terms.items():
            c = _canon_coeff(c)
            if c != 0:
                clean[tuple(exp)] = c
        self.terms = clean
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def const(cls, variables, c):
        return cls(variables, {(0,) * len(tuple(variables)): c})

    @classmethod
    def var(cls, variables, name):
        variables = tuple(variables)
        exp = [0] * len(variables)
        exp[variables.index(name)] = 1
        return cls(variables, {tuple(exp): 1})

    @classmethod
    def from_sympy(cls, expr, variables):
        variables = tuple(variables)
        syms = [sp.Symbol(v) for v in variables]
        poly = sp.Poly(sp.expand(expr), *syms) if syms else None
        if poly is None:
            return cls.const(variables, sp.expand(expr))
        terms = {exp: c for exp, c in poly.terms()}
        return cls(variables, terms)

    # -- basic structure -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * len(self.vars), sp.Integer(0))

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name):
        if not self.terms:
            return -1
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def leading_term(self):
        exp = max(self.terms, key=grlex_key)
        return exp, self.terms[exp]

    def leading_coeff(self):
        return self.leading_term()[1] if self.terms else sp.Integer(0)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def coefficients_rational(self):
        return all(c.is_Rational for c in self.terms.values())

    # -- ring operations -----------------------------------------------------

    def _check_vars(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.vars, other)
        self._check_vars(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, sp.Integer(0)) + c
        return MultiPoly(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.vars, other)
        self._check_vars(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                terms[exp] = terms.get(exp, sp.Integer(0)) + c1 * c2
        return MultiPoly(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def scale(self, c):
        return MultiPoly(self.vars, {e: co * c for e, co in self.terms.items()})

    def monic(self):
        """Normalize the graded-lex leading coefficient to 1."""
        if not self.terms:
            return self
        lc = self.leading_coeff()
        return self.scale(_inverse(lc))

    def derivative(self, name):
        i = self.vars.index(name)
        terms = {}
        for e, c in self.terms.items():
            if e[i] > 0:
                ne = list(e)
                ne[i] -= 1
                terms[tuple(ne)] = c * e[i]
        return MultiPoly(self.vars, terms)

    # -- variable plumbing -----------------------------------------------------

    def with_vars(self, variables):
        """Re-read in a new variable tuple (superset/permutation of the old)."""
        variables = tuple(variables)
        idx = []
        for v in self.vars:
            if self.degree_in(v) > 0 and v not in variables:
                raise ValueError(f"cannot drop effective variable {v}")
            idx.append(variables.index(v) if v in variables else None)
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * len(variables)
            for i, exp in enumerate(e):
                if exp:
                    ne[idx[i]] = exp
            terms[tuple(ne)] = c
        return MultiPoly(variables, terms)

    def eval_at(self, values):
        """Full evaluation; values maps every effective variable to a coefficient."""
        total = sp.Integer(0)
        vals = [
            _canon_coeff(values[v]) if v in values else None for v in self.vars
        ]
        for e, c in self.terms.items():
            term = c
            for i, exp in enumerate(e):
                if exp:
                    if vals[i] is None:
                        raise UndefinedVariable(self.vars[i])
                    term = term * vals[i] ** exp
            total += term
        return sp.expand(total)

    def subs_var(self, name, value):
        """Partially substitute one variable by a constant; result keeps vars."""
        i = self.vars.index(name)
        terms = {}
        value = _canon_coeff(value)
        for e, c in self.terms.items():
            ne = list(e)
            ne[i] = 0
            ne = tuple(ne)
            coeff = c * value ** e[i]
            terms[ne] = terms.get(ne, sp.Integer(0)) + coeff
        return MultiPoly(self.vars, terms)

    # -- sympy bridge -----------------------------------------------------------

    def to_sympy(self):
        expr = sp.Integer(0)
        for e, c in self.terms.items():
            mono = c
            for i, exp in enumerate(e):
                if exp:
                    mono = mono * sp.Symbol(self.vars[i]) ** exp
            expr += mono
        return expr

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.vars, tuple(sorted(self.terms.items(), key=lambda t: t[0])))
            )
        return self._hash

    def __repr__(self):
        return f"MultiPoly({poly_str(self)!r})"


# --------------------------------------------------------------------------
# printing in the parser grammar


def _coeff_str(c):
    if c.is_Rational:
        return str(c)
    # linear combination over a quadratic irrationality
    return str(c).replace(" ", "")


def poly_str(p: MultiPoly) -> str:
    """Canonical string in the input grammar (round-trippable)."""
    if not p.terms:
        return "0"
    parts = []
    for e, c in p.sorted_terms():
        factors = []
        for name, exp in zip(p.vars, e):
            if exp == 1:
                factors.append(name)
            elif exp > 1:
                factors.append(f"{name}^{exp}")
        neg = c.is_Rational and c < 0
        mag = -c if neg else c
        if factors and mag == 1:
            body = "*".join(factors)
        elif factors:
            body = _coeff_str(mag) + "*" + "*".join(factors)
        else:
            body = _coeff_str(mag)
        if not c.is_Rational:
            body = "(" + _coeff_str(c) + ")" + ("*" + "*".join(factors) if factors else "")
            neg = False
        parts.append(("-" if neg else "+", body))
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


# --------------------------------------------------------------------------
# exact kernels on sympy's sparse polynomial rings


def _ring(variables, domain=QQ):
    return PolyRing([sp.Symbol(v) for v in variables], domain, lex)


def _qq(c):
    return QQ(c.numerator, c.denominator)


def _fraction(c):
    return Fraction(c.numerator, c.denominator)


def _frac_ring(variables, *terms):
    """Exponent dicts with Fraction coefficients (the form of geometry,
    numberfield and unipoly) as elements of one ring over QQ."""
    ring = _ring(variables)
    return [ring.from_dict({e: _qq(c) for e, c in t.items()}) for t in terms]


def _frac_terms(pe):
    """The exponent dict with Fraction coefficients of a ring element."""
    return {e: _fraction(c) for e, c in pe.terms()}


def _to_ring(*polys: MultiPoly):
    """The polynomials (sharing one variable tuple) as elements of one ring:
    over QQ when every coefficient is rational, else over the quadratic
    field QQ(theta) of their coefficients."""
    variables = polys[0].vars
    if all(p.coefficients_rational() for p in polys):
        ring = _ring(variables)
        return [
            ring.from_dict({e: QQ(c.p, c.q) for e, c in p.terms.items()})
            for p in polys
        ]
    K, elems = _quadratic_field([c for p in polys for c in p.terms.values()])
    ring = _ring(variables, K)
    it = iter(elems)
    return [ring.from_dict({e: next(it) for e in p.terms}) for p in polys]


def _theta(c):
    """The irrationality of an irrational c = a + b*theta, scaled so that
    its rational coefficient is 1."""
    return c.as_coeff_Add()[1].as_coeff_Mul()[1]


def _split(c, theta):
    """(a, b) with c = a + b*theta and a, b rational, or None."""
    a, rest = c.as_coeff_Add()
    b = sp.expand(rest / theta)
    return (a, b) if a.is_Rational and b.is_Rational else None


def _quadratic_field(coeffs):
    """QQ(theta) for coefficients a + b*theta (a, b and theta^2 rational),
    with the coefficients as its elements."""
    theta = _theta(next(c for c in coeffs if not c.is_Rational))
    r = sp.expand(theta**2)
    if not r.is_Rational:
        raise ValueError(f"{theta} does not generate a quadratic field")
    theta = sp.sqrt(r)  # the generator _to_sympy reads back from t^2 - r
    minpoly = sp.Poly([1, 0, -r], sp.Dummy("t"))
    K = QQ.algebraic_field(sp.AlgebraicNumber((minpoly, theta)))
    elems = []
    for c in coeffs:
        parts = _split(c, theta)
        if parts is None:
            raise ValueError(f"coefficient {c} is not in QQ({theta})")
        a, b = parts
        elems.append(K([QQ(b.p, b.q), QQ(a.p, a.q)]))
    return K, elems


def _to_sympy(K):
    """Converter from QQ or _quadratic_field elements to sympy numbers."""
    if K.is_QQ:
        return K.to_sympy
    theta = sp.sqrt(-QQ.to_sympy(K.mod.to_list()[-1]))  # minpoly t^2 - r

    def to_sympy(c):
        a, b = (c.to_list()[::-1] + [0, 0])[:2]
        return QQ.to_sympy(a) + QQ.to_sympy(b) * theta

    return to_sympy


def _from_ring(pe, variables) -> MultiPoly:
    to_sympy = _to_sympy(pe.ring.domain)
    return MultiPoly(variables, {e: to_sympy(c) for e, c in pe.terms()})


def mgcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Greatest common divisor, normalized to graded-lex leading coefficient 1."""
    a._check_vars(b)
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    ra, rb = _to_ring(a, b)
    return _from_ring(ra.gcd(rb), a.vars).monic()


def factor_list(p: MultiPoly):
    """(constant, [(MultiPoly factor, multiplicity), ...]) with monic factors,
    deterministically sorted."""
    (pe,) = _to_ring(p)
    const, factors = pe.factor_list()
    out = []
    c = _to_sympy(pe.ring.domain)(const)
    for f, m in factors:
        mp = _from_ring(f, p.vars)
        lc = mp.leading_coeff()
        c *= lc**m
        out.append((mp.monic(), m))
    out.sort(key=lambda fm: (fm[0].total_degree(), poly_str(fm[0])))
    return sp.expand(c), out


def _sqf_list(p: MultiPoly):
    (pe,) = _to_ring(p)
    return pe.ring, pe.sqf_list()


def squarefree_part(p: MultiPoly) -> MultiPoly:
    """The squarefree f with p = f * h^2 exactly (h polynomial).

    The constant factor is carried along so that p and f differ by a genuine
    polynomial square: a witness verified against f is then automatically a
    witness for p.  Factor order is canonical, making the output a
    deterministic representative of p modulo square multiples.
    """
    if p.is_zero():
        raise ZeroRadicand("squarefree part of zero is undefined")
    if p.is_constant():
        return p
    ring, (const, factors) = _sqf_list(p)
    out = ring(const)
    for f, m in factors:
        if m % 2 == 1:
            out *= f
    return _from_ring(out, p.vars)


def radical(p: MultiPoly) -> MultiPoly:
    """Product of all distinct irreducible factors (reduced form), monic."""
    if p.is_zero():
        raise ZeroRadicand("radical of zero is undefined")
    if p.is_constant():
        return MultiPoly.const(p.vars, 1)
    ring, (_, factors) = _sqf_list(p)
    out = ring.one
    for f, _m in factors:
        out *= f
    return _from_ring(out, p.vars).monic()


def is_squarefree(p: MultiPoly) -> bool:
    if p.is_zero():
        return False
    if p.is_constant():
        return True
    _, (_, factors) = _sqf_list(p)
    return all(m == 1 for _f, m in factors)


def radicand_reduce(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Squarefree polynomial whose square root is equivalent to sqrt(p/q).

    Multiplying by the square of the denominator and stripping even powers
    preserves rationalizability in both directions.
    """
    if p.is_zero():
        raise ZeroRadicand("sqrt(0) is trivially rational")
    if q.is_zero():
        raise ZeroDenominator("denominator polynomial is zero")
    return squarefree_part(p * q)


def effective_vars(f: MultiPoly):
    return [v for v in f.vars if f.degree_in(v) > 0]


def is_homogeneous(f: MultiPoly):
    """Total degree if all terms share it, else None."""
    if f.is_zero():
        raise ZeroRadicand("homogeneity of zero is undefined")
    degs = {sum(e) for e in f.terms}
    return degs.pop() if len(degs) == 1 else None


def homogenize(f: MultiPoly, new_var: str, degree=None) -> MultiPoly:
    """Homogenize with a fresh variable, prepended to the variable tuple."""
    if new_var in f.vars:
        raise ValueError(f"{new_var} already occurs")
    d = f.total_degree() if degree is None else degree
    variables = (new_var,) + f.vars
    terms = {}
    for e, c in f.terms.items():
        terms[(d - sum(e),) + e] = c
    return MultiPoly(variables, terms)


def dehomogenize(f: MultiPoly, var: str) -> MultiPoly:
    """Set `var` to 1 and squarefree-reduce; valid only for even total degree.

    For even degree the square roots of f and of the result are
    rationalizable together; no such equivalence is available for odd degree,
    so that case is rejected.
    """
    d = is_homogeneous(f)
    if d is None:
        raise ValueError("input is not homogeneous")
    if d % 2 == 1:
        raise OddDegree("dehomogenization equivalence requires even total degree")
    if var not in f.vars:
        raise ValueError(f"{var} is not a variable of the ring")
    g = f.subs_var(var, 1)
    rest = tuple(v for v in f.vars if v != var)
    if not rest:
        rest = (var,)  # univariate homogeneous: keep ring nonempty
    g = g.with_vars(rest)
    if g.is_zero():
        raise ZeroRadicand("dehomogenization vanished (var divides f to top degree)")
    return squarefree_part(g)


# --------------------------------------------------------------------------
# rational functions


class RationalFunction:
    """Reduced fraction of MultiPoly; denominator graded-lex monic."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly, reduce=True):
        num._check_vars(den)
        if den.is_zero():
            raise ZeroDenominator("rational function with zero denominator")
        # a constant on either side leaves nothing to cancel
        if reduce and not num.is_constant() and not den.is_constant():
            rn, rd = _to_ring(num, den)
            rn, rd = rn.cancel(rd)
            num = _from_ring(rn, num.vars)
            den = _from_ring(rd, den.vars)
        if num.is_zero():
            den = MultiPoly.const(den.vars, 1)
        lc = den.leading_coeff()
        if lc != 1:
            inv = _inverse(lc)
            num = num.scale(inv)
            den = den.scale(inv)
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p: MultiPoly):
        return cls(p, MultiPoly.const(p.vars, 1), reduce=False)

    @property
    def vars(self):
        return self.num.vars

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.is_constant() and self.den.is_constant()

    def __add__(self, other):
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other):
        return RationalFunction(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __mul__(self, other):
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.num.is_zero():
            raise ZeroDenominator("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __pow__(self, n):
        if n < 0:
            return RationalFunction(self.den, self.num) ** (-n)
        return RationalFunction(self.num**n, self.den**n, reduce=False)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFunction({rf_str(self)!r})"


def rf_str(g: RationalFunction) -> str:
    if g.den.is_constant() and g.den.constant_value() == 1:
        return poly_str(g.num)
    return f"({poly_str(g.num)})/({poly_str(g.den)})"


# --------------------------------------------------------------------------
# substitution maps


class RationalMap:
    """Assignment of one rational function to each source variable.

    `extension` optionally records a quadratic irrationality (a sympy sqrt
    expression) generating the coefficient field of the assignments.
    """

    __slots__ = ("source_vars", "assignments", "extension")

    def __init__(self, source_vars, assignments, extension=None):
        self.source_vars = tuple(source_vars)
        self.assignments = dict(assignments)
        self.extension = extension
        for v, g in self.assignments.items():
            if not isinstance(g, RationalFunction):
                raise TypeError(f"assignment for {v} is not a RationalFunction")

    @classmethod
    def identity(cls, variables):
        variables = tuple(variables)
        return cls(
            variables,
            {
                v: RationalFunction.from_poly(MultiPoly.var(variables, v))
                for v in variables
            },
        )

    def is_nonconstant(self):
        return any(not g.is_constant() for g in self.assignments.values())

    def __eq__(self, other):
        if not isinstance(other, RationalMap):
            return NotImplemented
        return (
            self.source_vars == other.source_vars
            and self.assignments == other.assignments
        )

    def __repr__(self):
        body = ", ".join(
            f"{v} -> {rf_str(g)}" for v, g in sorted(self.assignments.items())
        )
        return f"RationalMap({body})"

    def to_json(self):
        out = {
            "variables": list(self.source_vars),
            "assignments": {
                v: rf_str(g) for v, g in sorted(self.assignments.items())
            },
        }
        if self.extension is not None:
            out["extension"] = str(self.extension)
        return out


def substitute(f: MultiPoly, m: RationalMap) -> RationalFunction:
    """Image of f under the homomorphism defined by m, in lowest terms."""
    needed = effective_vars(f)
    for v in needed:
        if v not in m.assignments:
            raise UndefinedVariable(f"no assignment for effective variable {v}")
    if not needed:
        return RationalFunction.from_poly(
            MultiPoly.const(m.source_vars or f.vars, f.constant_value())
        )
    target_vars = m.assignments[needed[0]].vars
    degs = [f.degree_in(v) for v in needed]
    idx = [f.vars.index(v) for v in needed]
    parts = [m.assignments[v].num.with_vars(target_vars) for v in needed]
    parts += [m.assignments[v].den.with_vars(target_vars) for v in needed]
    # f's coefficients enter as constants so that all share one ring
    parts += [MultiPoly.const(target_vars, c) for c in f.terms.values()]
    ring_parts = _to_ring(*parts)
    ring = ring_parts[0].ring
    k = len(needed)
    nums, dens, coeffs = ring_parts[:k], ring_parts[k:2 * k], ring_parts[2 * k:]
    # clearing denominators: x_v = n_v/d_v, times prod d_v^deg_v
    num_pows = [[g**j for j in range(d + 1)] for g, d in zip(nums, degs)]
    den_pows = [[g**j for j in range(d + 1)] for g, d in zip(dens, degs)]
    total_num = ring.zero
    for e, c in zip(f.terms, coeffs):
        term = c
        for j, i in enumerate(idx):
            term = term * num_pows[j][e[i]] * den_pows[j][degs[j] - e[i]]
        total_num += term
    total_den = ring.one
    for j in range(k):
        total_den *= den_pows[j][degs[j]]
    return RationalFunction(
        _from_ring(total_num, target_vars), _from_ring(total_den, target_vars)
    )


# --------------------------------------------------------------------------
# perfect-square testing


def _rational_sqrt(c):
    """Exact square root of a nonnegative sympy Rational, or None."""
    if not c.is_Rational or c < 0:
        return None
    p, q = sp.Integer(c.p), sp.Integer(c.q)
    rp, rq = sp.integer_nthroot(p, 2), sp.integer_nthroot(q, 2)
    if rp[1] and rq[1]:
        return sp.Rational(rp[0], rq[0])
    return None


def _field_sqrt(c, extension=None):
    """Square root of a constant c = a + b*theta within QQ(theta), or None.

    theta (with theta^2 rational) is the given extension, else the
    irrationality of c itself; a rational c with no extension is tested
    within QQ.
    """
    c = sp.expand(c)
    if c == 0:
        return sp.Integer(0)
    theta = extension
    if theta is None and not c.is_Rational:
        theta = _theta(c)
    if theta is None:
        return _rational_sqrt(c)
    r = sp.expand(theta**2)
    parts = _split(c, theta)
    if parts is None or not r.is_Rational:
        return None
    a, b = parts
    if b == 0:
        # c = p^2, or c = r*q^2 = (q*theta)^2
        p = _rational_sqrt(a)
        if p is not None:
            return p
        q = _rational_sqrt(a / r)
        return None if q is None else q * theta
    # (p + q*theta)^2 = p^2 + r q^2 + 2pq theta
    disc = _rational_sqrt(a * a - r * b * b)
    if disc is None:
        return None
    for p2 in ((a + disc) / 2, (a - disc) / 2):
        p = _rational_sqrt(p2)
        if p is not None and p != 0:
            return p + b / (2 * p) * theta
    return None


def _sign_normalize(h: RationalFunction) -> RationalFunction:
    """Of h and -h, the one whose leading coefficient a + b*theta has a > 0,
    or a = 0 and b > 0."""
    a, rest = h.num.leading_coeff().as_coeff_Add()
    negative = a < 0 if a != 0 else rest.as_coeff_Mul()[0] < 0
    if negative:
        return RationalFunction(-h.num, h.den, reduce=False)
    return h


def is_perfect_square(g: RationalFunction, extension=None):
    """Return h with h^2 = g when it exists, else None.

    g = N/D is a square iff N*D = c * s^2 with c a square constant of the
    coefficient field; then h = sqrt(c) * s / D, reduced.  The squarefree
    decomposition decides this: every multiplicity even and c a square.
    `extension` is the quadratic irrationality of the map g came from: c
    may be a square only there, as -7 = sqrt(-7)^2.
    """
    if g.num.is_zero():
        return RationalFunction.from_poly(MultiPoly.zero(g.vars))
    num, den = _to_ring(g.num, g.den)
    const, factors = (num * den).sqf_list()
    s = num.ring.one
    for f, m in factors:
        if m % 2 == 1:
            return None
        s *= f ** (m // 2)
    root_c = _field_sqrt(_to_sympy(num.ring.domain)(const), extension)
    if root_c is None:
        return None
    h = RationalFunction(_from_ring(s, g.vars).scale(root_c), g.den)
    return _sign_normalize(h)
