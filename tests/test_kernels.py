"""The exact ring kernels against sympy references.

Random small polynomials over QQ, Q(sqrt(2)) and Q(sqrt(-7)) are reduced,
decomposed, substituted and square-tested by the package and by sympy's
expression-level functions; the parser is checked against sympify on
generated texts; the rational factorization and norm factorization that
unipoly and numberfield run on sparse rings are checked the same way; the
"negative everywhere" test of a quadric is checked against the principal
minors of its Hessian and its maximum.
"""

import ast
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ
from sympy.polys.orderings import lex
from sympy.polys.rings import PolyRing

from prop_helpers import to_sympy
import ratsqrt
from ratsqrt import geometry, localanalysis, numberfield, unipoly
from ratsqrt.engine import decide
from ratsqrt.errors import ZeroDenominator
from ratsqrt.mpoly import (
    MultiPoly,
    RationalFunction,
    RationalMap,
    is_perfect_square,
    quadratic_field,
    squarefree_part,
    substitute,
)
from ratsqrt.numberfield import NumberField, factor_over_height1
from ratsqrt.parser import parse_poly, parse_rational
from ratsqrt.witness import negative_everywhere

VARS = ("X", "Y")
SYMS = sp.symbols(VARS)
# each field QQ(sqrt(r)) by its r; None for QQ
FIELDS = {"QQ": None, "QQ(sqrt(2))": 2, "QQ(sqrt(-7))": -7}
# no shrinking: it would rerun the slow sympy references (cancel over
# Q(sqrt(-7)) above all) for minutes before a failure is reported
KERNEL = settings(max_examples=25, deadline=None, derandomize=True,
                  database=None,
                  phases=[p for p in Phase if p is not Phase.shrink])


def _coeff(r):
    """Coefficients a/b of QQ, or a + b*sqrt(r) of QQ(sqrt(r)), built as
    field elements."""
    small = st.integers(-3, 3)
    if r is None:
        return st.builds(QQ, small, st.integers(1, 3))
    K, root = quadratic_field(r)
    return st.builds(lambda a, b: K.convert(a) + root * K.convert(b),
                     small, small)


def polys(r):
    """Nonzero polynomials of up to 3 terms, degree at most 1 in each
    variable, over QQ(sqrt(r))."""
    term = st.tuples(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                     _coeff(r))
    return st.lists(term, max_size=3).map(
        lambda ts: MultiPoly(VARS, dict(ts))
    ).filter(lambda p: not p.is_zero())


def field_polys():
    """(r, p1, p2, p3) over QQ(sqrt(r)); r is None for QQ."""
    return st.sampled_from(sorted(FIELDS)).flatmap(
        lambda name: st.tuples(
            st.just(FIELDS[name]), *(polys(FIELDS[name]) for _ in range(3))
        )
    )


def _read(expr, variables=VARS, r=None):
    """The polynomial expression expr over QQ, or over QQ(sqrt(r))."""
    if r is None:
        return MultiPoly.of(PolyRing(variables, QQ, lex).from_expr(expr))
    text = str(expr).replace("**", "^")
    return parse_rational(text, variables, quadratic_field(r)[0]).num


def _normal_form(num_expr, den_expr, variables=VARS, r=None):
    """sympy's reduced fraction over QQ(sqrt(r)), read back with a
    graded-lex monic denominator."""
    n, d = sp.fraction(sp.cancel(num_expr / den_expr, extension=True))
    return RationalFunction(_read(n, variables, r), _read(d, variables, r),
                            reduce=False)


def _negative(c):
    """The sign convention of square roots: the rational part decides,
    else the coefficient of the irrationality."""
    a, rest = sp.expand(c).as_coeff_Add()
    return a < 0 if a != 0 else rest.as_coeff_Mul()[0] < 0


class TestReduction:
    @KERNEL
    @given(field_polys())
    def test_matches_sympy_cancel(self, ps):
        r, a, b, c = ps
        g = RationalFunction(a * c, b * c)
        assert g == _normal_form((a * c).pe.as_expr(), (b * c).pe.as_expr(),
                                 r=r)
        assert to_sympy(g.den.leading_coeff()) == 1


class TestSquarefreePart:
    @KERNEL
    @given(field_polys())
    def test_matches_sympy_sqf_list(self, ps):
        r, a, b, c = ps
        p = a * b * b * c * c * c
        # QQ, not ZZ, for rational input: the constant the part carries
        opts = ({"domain": "QQ"} if p.coefficients_rational()
                else {"extension": True})
        const, factors = sp.sqf_list(p.pe.as_expr(), *SYMS, **opts)
        ref = sp.sympify(const)
        for f, m in factors:
            if m % 2:
                ref *= f
        assert squarefree_part(p) == _read(ref, VARS, r)


class TestPerfectSquare:
    @KERNEL
    @given(field_polys())
    def test_square_gives_sign_normalized_root(self, ps):
        r, a, b, _ = ps
        h = RationalFunction(a, b)
        root = is_perfect_square(h * h, r)
        assert root is not None
        assert root * root == h * h
        assert root in (h, RationalFunction(-h.num, h.den, reduce=False))
        assert not _negative(to_sympy(root.num.leading_coeff()))

    @KERNEL
    @given(field_polys(), st.integers(-3, 3))
    def test_square_times_linear_factor_is_not_square(self, ps, a):
        r, h, _, _ = ps
        lin = MultiPoly(VARS, {(1, 0): 1, (0, 0): -a})
        g = RationalFunction.from_poly(h * h * lin)
        assert is_perfect_square(g, r) is None

    @KERNEL
    @given(st.sampled_from([None, -7]).flatmap(
        lambda r: st.tuples(st.just(r), *(polys(r) for _ in range(3)))),
        st.sampled_from(["h^2", "c*h^2", "h^2*q"]),
        st.sampled_from([QQ(c) for c in (4, 9, -1, 2, -7, -28)]
                        + [QQ(9, 4), QQ(-7, 9)]))
    def test_agrees_with_sqf_list_reference(self, ps, kind, c):
        r, a, b, q = ps
        h = RationalFunction(a, b)
        g = h * h
        if kind == "c*h^2":
            g = g * RationalFunction.from_poly(MultiPoly.const(VARS, c))
        elif kind == "h^2*q":
            g = g * RationalFunction.from_poly(q)
        root = is_perfect_square(g, r)
        assert (root is not None) == _square_reference(g, r)
        if root is not None:
            assert root * root == g


def _square_reference(g, r):
    """Whether g = N/D is a square over QQ(sqrt(r)): every multiplicity of
    sympy's sqf_list of N and of D even, and t^2 - (the quotient of their
    constants) split there."""
    opts = {"domain": "QQ"} if r is None else {"extension": sp.sqrt(r)}
    consts = []
    for p in (g.num, g.den):
        const, factors = sp.sqf_list(p.pe.as_expr(), *SYMS, **opts)
        if any(m % 2 for _f, m in factors):
            return False
        consts.append(const)
    t = sp.Dummy("t")
    _c, split = sp.factor_list(t**2 - consts[0] / consts[1], t, **opts)
    return any(sp.degree(f, t) == 1 for f, _m in split)


VARS3 = ("X", "Y", "Z")
SHARING = {"all shared": (0, 0, 0), "partly shared": (0, 0, 1),
           "all distinct": (0, 1, 2)}


def polys3(degree, size):
    """Nonzero polynomials over QQ in VARS3 of up to `size` terms, degree
    at most `degree` in each variable."""
    exp = st.integers(0, degree)
    term = st.tuples(st.tuples(exp, exp, exp), _coeff(None))
    return st.lists(term, max_size=size).map(
        lambda ts: MultiPoly(VARS3, dict(ts))
    ).filter(lambda p: not p.is_zero())


class TestSubstitute:
    # over QQ only: reducing such images over Q(sqrt(-7)) can take a minute
    @KERNEL
    @given(polys3(2, 4),
           st.lists(polys3(1, 2), min_size=3, max_size=3),
           st.lists(polys3(1, 2), min_size=3, max_size=3),
           st.sampled_from(sorted(SHARING)))
    def test_matches_sympy_subs(self, f, nums, dens, sharing):
        assignments = {
            v: RationalFunction(n, dens[k])
            for v, n, k in zip(VARS3, nums, SHARING[sharing])
        }
        img = substitute(f, RationalMap(VARS3, assignments))
        syms = sp.symbols(VARS3)
        expr = sp.together(f.pe.as_expr().subs(
            {x: g.num.pe.as_expr() / g.den.pe.as_expr()
             for x, g in zip(syms, assignments.values())},
            simultaneous=True))
        assert img == _normal_form(*sp.fraction(expr), VARS3)


def _quadratics():
    """(n, H, b, c): f = x^T H x / 2 + b^T x + c in n variables with H
    negative definite, positive definite or any nonsingular symmetric
    integer matrix."""
    def build(n, kind, entries, b, c):
        M = sp.Matrix(n, n, entries[:n * n])
        H = {"negative definite": -(M.T * M + sp.eye(n)),
             "positive definite": M.T * M + sp.eye(n),
             "any": M + M.T}[kind]
        return n, H, sp.Matrix(b[:n]), c

    small = st.integers(-3, 3)
    return st.builds(
        build, st.integers(1, 3),
        st.sampled_from(["negative definite", "positive definite", "any"]),
        st.lists(small, min_size=9, max_size=9),
        st.lists(small, min_size=3, max_size=3), st.integers(-6, 6),
    ).filter(lambda q: q[1].det() != 0)


class TestNegativeEverywhere:
    @KERNEL
    @given(_quadratics())
    def test_matches_principal_minors_and_maximum(self, quadratic):
        n, H, b, c = quadratic
        xs = sp.Matrix(sp.symbols(VARS3[:n]))
        f = _read(sp.expand((xs.T * H * xs)[0] / 2 + (b.T * xs)[0] + c),
                  VARS3[:n])
        # Sylvester: H < 0 iff its leading minors alternate, starting < 0
        definite = all((-1) ** k * H[:k, :k].det() > 0
                       for k in range(1, n + 1))
        # a nonsingular H that is not negative definite leaves f unbounded
        top = H.LUsolve(-b)
        maximum = (top.T * H * top)[0] / 2 + (b.T * top)[0] + c
        assert negative_everywhere(f) == (definite and maximum < 0)

    @pytest.mark.parametrize("text, expected", [
        ("-X^2 - 1", True), ("-X^2 + Y - 1", False),
        ("-(X - Y)^2 - 1", True), ("-(X - Y)^2 + X - Y - 1", True),
        ("-(X - Y)^2 + X - 1", False), ("-(X - Y)^2 + X - Y", False),
        ("-3", True), ("0*X - 1", True), ("X - 1", False), ("-X^2", False),
    ])
    def test_singular_hessians(self, text, expected):
        assert negative_everywhere(parse_poly(text, ("X", "Y"))) == expected


# -- parser -----------------------------------------------------------------

def _leaf(token):
    expr = dict(zip(VARS, SYMS)).get(token) or sp.Integer(token)
    return token, expr


def _binary(t):
    (ta, a), op, (tb, b) = t
    text = f"({ta} {op} {tb})"
    if a is None or b is None:
        return text, None
    if op == "/":
        return text, None if sp.cancel(b) == 0 else a / b
    return text, {"+": a + b, "-": a - b, "*": a * b}[op]


def _texts():
    """(text, sympy value) pairs; the value is None when some divisor is
    zero."""
    leaves = st.one_of(st.integers(0, 5).map(str), st.sampled_from(VARS))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(_binary),
            st.tuples(inner, st.integers(0, 3)).map(
                lambda t: (f"({t[0][0]})^{t[1]}",
                           None if t[0][1] is None else t[0][1] ** t[1])
            ),
            inner.map(lambda t: (f"-{t[0]}", None if t[1] is None else -t[1])),
        )

    return st.recursive(leaves.map(_leaf), extend, max_leaves=8)


class TestParser:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_texts())
    def test_matches_sympify(self, case):
        text, ref = case
        if ref is None:
            with pytest.raises(ZeroDenominator):
                parse_rational(text, VARS)
            return
        assert sp.sympify(text.replace("^", "**")) == ref
        g = parse_rational(text, VARS)
        assert g == _normal_form(*sp.fraction(sp.together(ref)))

    def test_zero_divisor_raises(self):
        for text in ("1/(X - X)", "X/(X - X)^2", "(X + 1)/(2*X - X - X)"):
            with pytest.raises(ZeroDenominator):
                parse_rational(text)

    def test_variables_in_order_of_first_appearance(self):
        g = parse_rational("Z/(Y - X) + X")
        assert g.vars == ("Z", "Y", "X")


# -- factorization on sparse rings ------------------------------------------

def _rationals():
    return st.builds(QQ, st.integers(-3, 3), st.integers(1, 3))


def _expr(terms, syms):
    return sp.Add(*(sp.Rational(c.numerator, c.denominator)
                    * sp.Mul(*(x**i for x, i in zip(syms, e)))
                    for e, c in terms.items()))


def _univariate():
    return st.lists(_rationals(), min_size=1, max_size=4).map(
        lambda cs: {(i,): c for i, c in enumerate(cs) if c})


class TestFactorRational:
    @KERNEL
    @given(st.lists(_univariate(), min_size=1, max_size=4))
    def test_matches_sympy_factor_list(self, parts):
        p = {(0,): QQ(1)}
        for q in parts:
            p = unipoly.mul(p, q) if q else p
        t = sp.Symbol("t")
        content, factors = unipoly.factor_rational(p)
        ref_content, ref_factors = sp.factor_list(_expr(p, (t,)), t)
        ref = {}
        for f, m in ref_factors:
            poly = sp.Poly(f, t)
            ref_content *= poly.LC() ** m
            ref[tuple(QQ(c.p, c.q)
                      for c in poly.monic().all_coeffs()[::-1])] = m
        assert content == ref_content
        dense = [tuple(f.get((i,), QQ(0)) for i in range(unipoly.deg(f) + 1))
                 for f, _m in factors]
        assert dict(zip(dense, (m for _f, m in factors))) == ref
        assert [len(f) for f in dense] == sorted(len(f) for f in dense)


def _height1_case(d):
    """(field, a monic squarefree product of small factors over it)."""
    K = NumberField(None, "a", {(0,): QQ(-d), (2,): QQ(1)})
    coeff = st.builds(lambda x, y: K.from_rational(x) + K.from_rational(y) * K.gen(),
                      st.integers(-2, 2), st.integers(-2, 2))
    factor = st.lists(coeff, min_size=1, max_size=2).map(
        lambda cs: unipoly.clean({(i,): c for i, c in enumerate(cs + [K.one()])}))

    def product(fs):
        p = {(0,): K.one()}
        for f in fs:
            p = unipoly.mul(p, f)
        return K, unipoly.radical(p)

    return st.lists(factor, min_size=1, max_size=3).map(product)


class TestFactorOverHeight1:
    @KERNEL
    @given(st.sampled_from([2, -7]).flatmap(
        lambda d: st.tuples(st.just(d), _height1_case(d))))
    def test_product_and_count_match_sympy(self, case):
        d, (K, p) = case
        factors = factor_over_height1(K, p)
        total = {(0,): K.one()}
        for f in factors:
            total = unipoly.mul(total, f)
        assert total == p
        t, theta = sp.Symbol("t"), sp.sqrt(d)
        expr = sum(sp.Rational(c.numerator, c.denominator) * theta**j * t**i
                   for (i,), e in p.items() for j, c in enumerate(e.rep))
        _, ref = sp.factor_list(expr, t, extension=theta)
        assert len(factors) == len(ref)


# -- no expression trees on the rational path ------------------------------

# decide() inputs that reach the ring resultant and the norm factorization:
# a conjugate class of four A1 points over QQ(sqrt(2))(sqrt(3)); a
# projection centre read off the branch-curve records; an A9 point at
# infinity of the branch curve; a projection centre of three variables,
# searched by the lex Groebner solver with three chart unknowns
PATH_INPUTS = {
    "(X^2-2)^2+(Y^2-3)^2": "Rationalizable",
    "Y^2-X^6-1": "Rationalizable",
    "X^5+Y^4+1": "NotRationalizable",
    "X^2*Y+Z^2+1": "Rationalizable",
}


def test_corpus_decides_without_expression_kernels(monkeypatch):
    """Every corpus root, bundled alphabet, path input and witness over
    Q(sqrt(r)) is decided with sympy's expression-level kernels
    unavailable, and no module but mpoly reaches sympy's expression API."""
    from ratsqrt import parser, witness
    from ratsqrt.alphabet import decide_alphabet
    from ratsqrt.cli import run_corpus
    from ratsqrt.engine import Config
    from ratsqrt.parser import load_alphabet

    for name in ("cancel", "together", "simplify", "sqf_list", "factor_list",
                 "resultant", "gcd", "degree", "expand", "sympify",
                 "radsimp"):
        def refuse(*_args, _name=name, **_kwargs):
            raise AssertionError(f"sympy.{_name} called")

        monkeypatch.setattr(sp, name, refuse)
    reports, mismatches = run_corpus(Config(), out=lambda _line: None)
    assert len(reports) == 9 and not mismatches

    ks = []
    solve = geometry._solve_ideal
    monkeypatch.setattr(geometry, "_solve_ideal",
                        lambda gens, ring, k: ks.append(k) or solve(gens, ring, k))
    for text, outcome in PATH_INPUTS.items():
        assert decide(parse_poly(text)).outcome == outcome
    assert 3 in ks  # rule 8 solved charts with three unknowns
    v = decide(parse_poly("(X^2-2)^2+(Y^2-3)^2"))
    assert [len(r.point.field.describe()) for r in v.singularities] == [2]

    # witnesses over Q(sqrt(-7)), Q(i) and Q(sqrt(-69))
    for text in ("-X^2 - Y^2 - 7", "-2*X^2 - 2*X - 4"):
        assert decide(parse_poly(text)).witness.extension is not None
    _vars, roots = load_alphabet({"roots": [{"radicand": "3*X - 4"},
                                            {"radicand": "-2*X - 5"}]})
    assert decide_alphabet(roots, Config()).witness.extension is not None

    for module in (geometry, numberfield, unipoly, localanalysis, parser,
                   witness):
        assert not hasattr(module, "sp"), module.__name__


def test_no_module_imports_fractions():
    """Rationals below mpoly are sympy's QQ elements, so no ratsqrt module
    imports the fractions module."""
    for path in sorted(Path(ratsqrt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            assert "fractions" not in names, path.name


def test_one_polynomial_system_solver():
    """Every polynomial system goes through geometry._solve_ideal: it is the
    only caller of groebner, and no module does linear algebra through
    sympy.polys.matrices."""
    callers = set()
    for path in sorted(Path(ratsqrt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                names = []
            assert not any(n.startswith("sympy.polys.matrices")
                           for n in names), path.name
            if isinstance(node, ast.FunctionDef):
                callers.update(
                    (path.stem, node.name) for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                    and "groebner" in (getattr(call.func, "id", None),
                                       getattr(call.func, "attr", None))
                )
    assert callers == {("geometry", "_solve_ideal")}
