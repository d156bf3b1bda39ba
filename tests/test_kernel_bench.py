"""Microbenchmark of the kernels the alphabets spend most on: the
squarefree part of a squarefree radicand, which its univariate images mod
a prime certify without a decomposition, and of two radicands typed with
a square factor, whose factor lists the images certify instead; the quadric witness, built from
the polars of the closure at its centre, once for a quadric with a small
rational point and once for one whose conic has none, which Legendre's
theorem tells before any scan, and once for a definite quadric, built over
QQ(sqrt(r)) from the origin; the verification of a trivariate quadric's
map, a substitution and two exact square roots, and the perfect-square
test of a bivariate quartic square; and the reduction of a coprime fraction
over QQ(i), which the images of the norms certify without a gcd over the
field.  Also of the projection-centre lookup that bivariate radicands of
degree >= 4 read off their branch-curve records, and of rule 6 on a
Weierstrass cubic: the singular points of its branch curve, which give
both its triple point, none, and its projection centre; of an alphabet that
phase 1 certifies NotRationalizable, so that only outcomes are decided
and no witness is built; of the pair alphabet, Rationalizable, where
phase 1 is followed by the completion of each root's witness and the
simultaneous search; of the lex Groebner basis of the chart-0 system of
two branch curves, one smooth and one with irrational singular points;
and of the ADE classification of two germs, a node over a height-2 tower
and a rational germ with Milnor number 6, both Milnor routes
cross-checked; and of the decision of a product of two quadrics and a line,
whose branch curve has nodes over a height-2 tower, and of a product of
three concurrent lines and a circle, whose branch curve is read through
its factors.  Also of building QQ(sqrt(r)) for a radicand met for the
first time: both field caches are cleared before every round.  At the text edges: the parse of a dense quartic in three
variables, and the report of a quadric witness over QQ(sqrt(-2)), printed
from fresh copies of its functions so that every round prints them.
Also of the three splitting and reduction kernels of the singular points
and witnesses of bivariate radicands: the split of (y + 3 + a)(y^2 - 7)
over QQ(sqrt 2), read off its conjugation-invariant part with no
resultant; the factorization of an irreducible cubic over QQ, certified
by a root scan mod a prime with no factor_list; and the projection map of
a Weierstrass cubic from its centre at infinity, reduced from one
gcd(A, B) with no cancel.  Also of rule 4's path on a roots-3var
ternary quartic: its dehomogenization, and the lift of its chart's
verified witness, homogenized coordinate by coordinate and verified.

The rounds are fixed, so the whole file runs in a second or two; the
timings appear in pytest-benchmark's table.  Run it alone with

    PYTHONPATH=src python -m pytest tests/test_kernel_bench.py
"""

from dataclasses import replace

from sympy.polys.domains import QQ

from ratsqrt import geometry, mpoly
from ratsqrt import unipoly as up
from ratsqrt.alphabet import decide_alphabet
from ratsqrt.engine import (
    DEFAULT_CONFIG,
    NOT_RATIONALIZABLE,
    RATIONALIZABLE,
    Config,
    decide,
)
from ratsqrt.geometry import (
    all_simple,
    build_model,
    centre_from_records,
    singular_points,
    triple_point_of_cubic,
)
from ratsqrt.ideal import groebner
from ratsqrt.localanalysis import classify_germ
from ratsqrt.mpoly import (
    MultiPoly,
    RationalFunction,
    RationalMap,
    _ring,
    dehomogenize,
    is_perfect_square,
    poly_str,
    quadratic_field,
    rf_str,
    squarefree_part,
    substitute,
)
from ratsqrt.numberfield import NumberField, factor_over_height1
from ratsqrt.parser import parse_poly, parse_rational
from ratsqrt.report import dumps, verdict_report
from ratsqrt.witness import (
    homogeneous_lift,
    parametrize_from_point,
    quadric_witness,
    verify_witness,
)

ROUNDS, ITERATIONS = 25, 4


def test_squarefree_part_of_a_squarefree_quartic(benchmark):
    p = parse_poly("X^4 + 2*X^2*Y*Z - 3*Y^3*Z + Z^4 - X*Y + 5")
    out = benchmark.pedantic(squarefree_part, args=(p,), rounds=ROUNDS,
                             iterations=ITERATIONS)
    assert out == p


def _bench_written_square(benchmark, text, reduced):
    p = parse_rational(text).num
    out = benchmark.pedantic(squarefree_part, args=(p,), rounds=ROUNDS,
                             iterations=ITERATIONS)
    assert poly_str(out) == reduced


def test_squarefree_part_of_a_square_times_a_plane(benchmark):
    # a roots-3var "square-times-linear" input
    _bench_written_square(benchmark, "(X + Y - 2*Z - 2)^2*(X + 2*Y - Z + 2)",
                          "X + 2*Y - Z + 2")


def test_squarefree_part_of_a_line_times_a_squared_quadric(benchmark):
    _bench_written_square(benchmark, "(-2*X + 3)*(-3*X^2 - 5*X + 9)^2",
                          "-18*X + 27")


def test_quadric_witness_of_a_univariate_quadric(benchmark):
    f = parse_poly("-9*X^2 + 6*X + 8")
    m, h = benchmark.pedantic(quadric_witness, args=(f, Config.max_height),
                              rounds=ROUNDS, iterations=ITERATIONS)
    assert h * h == substitute(f, m)


def test_quadric_witness_of_a_conic_without_rational_points(benchmark):
    # W^2 = -9X^2 - 6X + 5 has no rational point: the witness is built over
    # QQ(sqrt(5)) from the origin, with no scan of heights
    f = parse_poly("-9*X^2 - 6*X + 5")
    m, h = benchmark.pedantic(quadric_witness, args=(f, Config.max_height),
                              rounds=ROUNDS, iterations=ITERATIONS)
    assert m.extension == 5 and h * h == substitute(f, m)


def test_quadric_witness_of_a_definite_quadric(benchmark):
    # f < 0 on all of R^2: the centre is the origin with w = sqrt(-3)
    f = parse_poly("-X^2 - 2*Y^2 - 3")
    m, h = benchmark.pedantic(quadric_witness, args=(f, Config.max_height),
                              rounds=ROUNDS, iterations=ITERATIONS)
    assert m.extension == -3 and h * h == substitute(f, m)


def test_verify_witness_of_a_trivariate_quadric(benchmark):
    # a roots-mixed "trivariate-quadric" input
    f = parse_poly("X^2 - 2*X*Z + Y*Z + 3*Y - 1")
    m, h = quadric_witness(f, Config.max_height)
    out = benchmark.pedantic(verify_witness, args=(m, f), rounds=ROUNDS,
                             iterations=ITERATIONS)
    assert out == h


def test_is_perfect_square_of_a_bivariate_quartic_square(benchmark):
    g = parse_rational("(2*X^2 - X*Y + 3*Y^2 - X + 4)^2/(X*Y + 1)^2",
                       ("X", "Y"))
    h = benchmark.pedantic(is_perfect_square, args=(g,), rounds=ROUNDS,
                           iterations=ITERATIONS)
    assert rf_str(h) == "(2*X^2 - X*Y + 3*Y^2 - X + 4)/(X*Y + 1)"


def test_coprime_fraction_over_qq_i(benchmark):
    _K, i = quadratic_field(-1)
    num = MultiPoly(("X", "Y"), {(2, 1): 1, (1, 0): i, (0, 2): 1, (0, 0): -3})
    den = MultiPoly(("X", "Y"), {(1, 2): 1, (0, 1): 2 * i, (0, 0): -1})
    g = benchmark.pedantic(RationalFunction, args=(num, den), rounds=ROUNDS,
                           iterations=ITERATIONS)
    assert (g.num, g.den) == (num, den)


def test_quadratic_field_of_a_fresh_radicand(benchmark):
    def clear():
        quadratic_field.cache_clear()
        mpoly._field.cache_clear()

    K, root = benchmark.pedantic(quadratic_field, args=(QQ(-69, 4),),
                                 setup=clear, rounds=ROUNDS)
    assert str(K) == "QQ<sqrt(69)*I>" and root.to_list() == [QQ(1, 2), 0]


def test_projection_centre_from_the_records_of_a_quartic(benchmark):
    # linear in Y: F has the triple point (0:0:1) at infinity, so the
    # closure has the rational centre (0:0:1:0) of multiplicity 3
    model = build_model(parse_poly("X^3*Y + X^2 + Y + 1"))
    _ok, records = all_simple(model)
    points = [r.point for r in records]
    pt, certified = benchmark.pedantic(
        centre_from_records, args=(model, points), rounds=ROUNDS,
        iterations=ITERATIONS)
    assert (pt.chart, pt.proj, pt.field, certified) == (2, (0, 0, 1, 0),
                                                        None, False)


def test_rule_6_on_a_weierstrass_cubic(benchmark):
    # Y^2 = X^3 + X + 1: the branch curve s*F is singular only at the
    # flex (0:0:1) where the line s = 0 meets F, which carries the
    # rational centre (0:0:1:1)
    model = build_model(parse_poly("Y^2 - X^3 - X - 1", ("X", "Y")))

    def rule_6():
        points = singular_points(model.B)
        return (triple_point_of_cubic(points),
                centre_from_records(model, [p for p, _m in points]))

    tp, (pt, certified) = benchmark.pedantic(rule_6, rounds=ROUNDS,
                                             iterations=ITERATIONS)
    assert tp is None
    assert (pt.chart, pt.proj, pt.field, certified) == (2, (0, 0, 1, 1),
                                                        None, False)


def test_decide_alphabet_certified_in_phase_1(benchmark):
    # the Higgs alphabet: six Rationalizable subset products before the
    # cubic product of f2 and f3 certifies NotRationalizable
    roots = [(label, parse_poly(text, ("X",))) for label, text in
             (("f1", "X"), ("f2", "1 + 4*X"), ("f3", "X*(X - 4)"))]
    v = benchmark.pedantic(decide_alphabet, args=(roots,), rounds=ROUNDS,
                           iterations=ITERATIONS)
    assert v.outcome == NOT_RATIONALIZABLE
    assert v.certificate.labels == ("f2", "f3")


def test_decide_alphabet_rationalizable_pair(benchmark):
    # X - 1 and X - 2: phase 1 decides three linear or quadric products,
    # completion builds the two roots' witnesses from their phase-1
    # verdicts, and the search composes them into one map
    roots = [(label, parse_poly(text, ("X",))) for label, text in
             (("f1", "X - 1"), ("f2", "X - 2"))]
    v = benchmark.pedantic(decide_alphabet, args=(roots,), rounds=ROUNDS,
                           iterations=ITERATIONS)
    assert v.outcome == RATIONALIZABLE
    assert set(v.root_squares) == {"f1", "f2"}


def _chart_0_system(text):
    """The first partials of the branch curve of a bivariate radicand at
    s = 1, as `singular_points` hands them to the solver: generators x1 = Y
    and x0 = X."""
    B = build_model(parse_poly(text, ("X", "Y"))).B
    ring = _ring(("x1", "x0"))
    gens = [ring.from_dict({e[1:][::-1]: c for e, c in d.items()})
            for d in geometry._order_partials(B.pe, 1)]
    return [g for g in gens if g], ring


def test_groebner_of_a_smooth_quartic_branch_curve(benchmark):
    # a smooth ternary quartic, dehomogenized: no affine singular point
    gens, ring = _chart_0_system("X^4 + 2*X^3*Y - X^2*Y^2 + 3*X*Y^3 - 2*Y^4"
                                 " + X^3 - Y^3 + 2*X*Y + X - 3*Y + 1")
    basis = benchmark.pedantic(groebner, args=(gens, ring), rounds=ROUNDS,
                               iterations=ITERATIONS)
    assert basis == [ring.one]


def test_groebner_of_irrational_singular_points(benchmark):
    # eight nodes: (+-sqrt(3), +-sqrt(2)), and X + Y + 2 = 0 meets
    # X^2 = 3 and Y^2 = 2 at two conjugate pairs each
    gens, ring = _chart_0_system("(X^2 - 3)*(Y^2 - 2)*(X + Y + 2)")
    basis = benchmark.pedantic(groebner, args=(gens, ring), rounds=ROUNDS,
                               iterations=ITERATIONS)
    x1, x0 = ring.gens
    assert basis == [
        x1**3 + x1**2 * x0 + 2 * x1**2 - 2 * x1 - 2 * x0 - 4,
        x1 * x0**2 - 3 * x1 + x0**3 + 2 * x0**2 - 3 * x0 - 6,
        x0**4 + 4 * x0**3 - x0**2 - 12 * x0 - 6,
    ]


def test_classify_germ_of_a_node_over_a_height_2_tower(benchmark):
    # of the eight nodes of (X^2 - 3)*(Y^2 - 2)*(X + Y + 2), the pair
    # (+-sqrt 3, +-sqrt 2) lies over QQ(a)(b), a^2 = 3, b^2 = 2
    B = build_model(parse_poly("(X^2 - 3)*(Y^2 - 2)*(X + Y + 2)", ("X", "Y"))).B
    pt = next(pt for pt, _m in singular_points(B)
              if pt.field is not None and pt.field.height == 2)
    c = benchmark.pedantic(classify_germ, args=(pt.germ,), rounds=ROUNDS,
                           iterations=ITERATIONS)
    assert (c.label(), c.mu, c.multiplicity) == ("A1", 1, 2)


def test_decide_a_product_with_tower_nodes(benchmark):
    # a roots-curves "product" input: its branch curve has nodes over
    # QQ(sqrt 3) and over the height-2 tower QQ(sqrt 3)(sqrt 2), which
    # Trager's algorithm splits off, and two rational D4 points
    f = parse_poly("(X^2 - 3)*(Y^2 - 2)*(X + Y + 2)", ("X", "Y"))
    v = benchmark.pedantic(decide, args=(f,), rounds=ROUNDS,
                           iterations=ITERATIONS)
    assert v.outcome == NOT_RATIONALIZABLE
    assert [s.rule for s in v.steps][-1] == "simple-singularities"
    assert sorted(r.label for r in v.singularities) == ["A1"] * 4 + ["D4"] * 2


def test_decide_three_concurrent_lines_and_a_circle(benchmark):
    # a roots-curves "product" input, read through its factors: the
    # circle's singular points and the pairwise intersections of the
    # line at infinity, three lines through (1, 0) and the circle, eleven
    # small systems in place of the degree-4 partials of the whole curve
    g = parse_rational("(X - 1)*(Y - X + 1)*(Y + 5*X - 5)*(X^2 + Y^2 - 5)")
    v = benchmark.pedantic(decide, args=(g.num, g.den), rounds=ROUNDS,
                           iterations=ITERATIONS)
    assert v.outcome == NOT_RATIONALIZABLE
    assert [s.rule for s in v.steps][-1] == "simple-singularities"
    assert sorted((r.label, r.point.class_size) for r in v.singularities) \
        == [("A1", 1)] * 7 + [("A1", 2)] * 2 + [("D4", 1)]


def test_classify_germ_with_milnor_number_6(benchmark):
    # 2(v - u^2)^2 + 3u^5 v - u^8 + 5u^2 v^3, an A6 point: both routes
    # run to mu = 6
    germ = {e: QQ(c) for e, c in {(0, 2): 2, (2, 1): -4, (4, 0): 2, (5, 1): 3,
                                  (8, 0): -1, (2, 3): 5}.items()}
    c = benchmark.pedantic(classify_germ, args=(germ,), rounds=ROUNDS,
                           iterations=ITERATIONS)
    assert (c.label(), c.mu, c.multiplicity) == ("A6", 6, 2)


def test_parse_a_dense_quartic_in_three_variables(benchmark):
    # all 35 monomials of degree <= 4 in X, Y, Z, nonzero coefficients
    p = MultiPoly(("X", "Y", "Z"), {
        (i, j, k): (-3, -2, -1, 1, 2, 3)[(i + 2 * j + 3 * k) % 6]
        for i in range(5) for j in range(5 - i) for k in range(5 - i - j)})
    g = benchmark.pedantic(parse_rational, args=(poly_str(p),),
                           rounds=ROUNDS, iterations=ITERATIONS)
    assert g.num == p and len(p.pe) == 35


def _unprinted(v):
    """v with copies of its witness functions that rf_str has not printed."""
    def copy(g):
        return RationalFunction(g.num, g.den, reduce=False)

    m = v.witness
    witness = RationalMap(m.source_vars,
                          {x: copy(g) for x, g in m.assignments.items()},
                          m.extension)
    return replace(v, witness=witness, witness_sqrt=copy(v.witness_sqrt))


def test_report_of_a_witness_over_qq_sqrt_minus_2(benchmark):
    text = "-X^2 - Y^2 - 2"
    g = parse_rational(text)
    v = decide(g.num, g.den)

    def report():
        return dumps(verdict_report(text, _unprinted(v), DEFAULT_CONFIG))

    out = benchmark.pedantic(report, rounds=ROUNDS, iterations=ITERATIONS)
    assert '"extension": "sqrt(2)*I"' in out


def test_factor_over_height1_of_a_1_plus_2_cubic(benchmark):
    # (y + 3 + a)(y^2 - 7) over QQ(a), a^2 = 2: the invariant part
    # gcd(g, gbar) = y^2 - 7 stays irreducible, since 28*8 is no square
    K = NumberField(None, "a", {(0,): QQ(-2), (2,): QQ(1)})
    a = K.gen()
    g = up.mul({(0,): a + 3, (1,): K.one()},
               {(0,): K.from_rational(-7), (2,): K.one()})
    factors = benchmark.pedantic(factor_over_height1, args=(K, g),
                                 rounds=ROUNDS, iterations=ITERATIONS)
    assert [up.deg(f) for f in factors] == [1, 2]


def test_factor_rational_of_an_irreducible_cubic(benchmark):
    # 2t^3 - t + 1/3: no root mod 109
    p = {(3,): QQ(2), (1,): QQ(-1), (0,): QQ(1, 3)}
    content, factors = benchmark.pedantic(up.factor_rational, args=(p,),
                                          rounds=ROUNDS, iterations=ITERATIONS)
    assert content == 2 and len(factors) == 1


def test_parametrize_from_point_on_a_weierstrass_cubic(benchmark):
    # Y^2 = X^3 + X + 1 from its centre (0:0:1:1) at infinity
    model = build_model(parse_poly("Y^2 - X^3 - X - 1", ("X", "Y")))
    m = benchmark.pedantic(parametrize_from_point, args=(model.V, [0, 0, 1, 1]),
                           rounds=ROUNDS, iterations=ITERATIONS)
    assert rf_str(m.assignments["X"]) == "(Y)/(X)"


def test_rule_4_dehomogenize_and_lift_a_ternary_quartic(benchmark):
    # a roots-3var homogeneous quartic whose chart Z = 1 has a triple point
    f = parse_poly("-X^4 + 2*X^2*Y*Z + 3*X*Y*Z^2 + 3*X*Z^3 - Z^4")
    inner = decide(dehomogenize(f, "Z")).witness
    assert inner is not None

    def path():
        dehomogenize(f, "Z")
        return homogeneous_lift(inner, f, "Z")

    m, h = benchmark.pedantic(path, rounds=ROUNDS, iterations=ITERATIONS)
    assert m == decide(f).witness
    assert h * h == substitute(f, m)
