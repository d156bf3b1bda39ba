"""Seeded input lists for the four benchmark workloads.

Every workload is a fixed list of input texts drawn from ``--seed``: the
same seed gives byte-identical texts, and the engine only ever sees the
generated text.  Each category contributes a fixed number of inputs, so a
new seed changes coefficients but never the mix of shapes.

An input is a dict with
  ``id``       position in the list,
  ``kind``     ``"root"`` (one radicand text) or ``"alphabet"`` (a document),
  ``cat``      the generator category,
  ``text``     the radicand text (roots) or ``doc`` the alphabet document,
  ``expect``   the outcome fixed by construction or by corpus.json, or None.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

RATIONALIZABLE = "Rationalizable"
NOT_RATIONALIZABLE = "NotRationalizable"
INCONCLUSIVE = "Inconclusive"

CORPUS = Path(__file__).resolve().parent.parent / "src" / "ratsqrt" / "data"

# Radicand decided once by every worker before timing starts; generate()
# keeps it out of every workload.
WARMUP_TEXT = "X^2 + 3*X*Y - 5"

# The 3-variable stress radicands that hang in the rule-8 scan today.
STRESS_3VAR = ("X^3 + Y^3 + Z^3 + 1", "X^2*Y + Z^2 + 1",
               "X^4 + Y^4 + Z^4 + W^4 + X*Y*Z + 1")


def poly_text(terms, names):
    """Expression text for {exponent tuple: int coefficient}, graded order."""
    items = sorted(((e, c) for e, c in terms.items() if c),
                   key=lambda ec: (-sum(ec[0]), [-x for x in ec[0]]))
    if not items:
        return "0"
    out = ""
    for e, c in items:
        mono = "*".join(n if k == 1 else f"{n}^{k}"
                        for n, k in zip(names, e) if k)
        mag = abs(c)
        body = mono if mono and mag == 1 else (
            f"{mag}*{mono}" if mono else str(mag))
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out


def _monomials(nvars, deg):
    """Exponent tuples of total degree exactly deg."""
    if nvars == 1:
        return [(deg,)]
    return [(i,) + rest for i in range(deg, -1, -1)
            for rest in _monomials(nvars - 1, deg - i)]


def _up_to(nvars, deg):
    return [e for d in range(deg, -1, -1) for e in _monomials(nvars, d)]


def _nonzero(rng, lo=-3, hi=3):
    c = 0
    while c == 0:
        c = rng.randint(lo, hi)
    return c


def _univariate(rng, d):
    """Degree-d polynomial in X.  A quadratic gets a square constant term, so
    the point scan finds a rational point at once (the quadratic-extension
    fallback has a stratum of its own)."""
    terms = {(i,): rng.randint(-5, 5) for i in range(d)}
    terms[(d,)] = rng.choice([-3, -2, -1, 1, 2, 3])
    if d == 2:
        terms[(0,)] = rng.choice([1, 4, 9])
    return terms


def _dense(rng, names, deg):
    """Polynomial of total degree deg in names, coefficients in [-3, 3]."""
    n = len(names)
    terms = {e: rng.randint(-3, 3) for e in _up_to(n, deg)}
    top = _monomials(n, deg)
    if not any(terms[e] for e in top):
        terms[rng.choice(top)] = _nonzero(rng)
    return terms


def _form(rng, n, deg):
    """Homogeneous form of degree deg in n variables, all coefficients set."""
    terms = {e: rng.randint(-3, 3) for e in _monomials(n, deg)}
    if not any(terms.values()):
        terms[(deg,) + (0,) * (n - 1)] = 1
    return terms


# --------------------------------------------------------------------------
# roots-mixed: squarefree part of degree <= 2, or univariate of any degree


def _squarefree(text):
    import sympy

    _c, factors = sympy.sqf_list(sympy.sympify(text.replace("^", "**")))
    return all(m == 1 for _f, m in factors)


def _squarefree_univariate(rng, d):
    """Squarefree degree-d polynomial in X.  A square factor, which a seed
    draws by chance, can leave an odd part of degree <= 2 and send the
    input down the witness path, ten to fifty times slower, so such
    polynomials are drawn again: every seed then has the same mix."""
    while True:
        text = poly_text(_univariate(rng, d), ("X",))
        if _squarefree(text):
            return text


def _mixed_univariate(rng, i):
    return _squarefree_univariate(rng, 1 + i % 4)


def _mixed_square_multiple(rng, i):
    f = _squarefree_univariate(rng, 1 + i % 4)
    h = poly_text(_univariate(rng, 1 + i // 4 % 2), ("X",))
    return f"({f})*({h})^2"


def _mixed_ratio(rng, i):
    p, q = _univariate(rng, 1 + i % 3), _univariate(rng, 1 + i // 3 % 2)
    p[(0,)], q[(0,)] = rng.choice([1, 4, 9]), rng.choice([1, 4, 9])
    return f"({poly_text(p, ('X',))})/({poly_text(q, ('X',))})"


def _definite_univariate(rng, _i):
    """-(a*X^2 + b*X + c) with no real root and c > 0: no rational point, so
    the point scan falls back to a quadratic extension."""
    a, c = rng.randint(1, 5), rng.randint(1, 9)
    # b != 0: -(a*X^2 + c) is decided three times faster
    b = rng.choice([v for v in range(-5, 6) if v and v * v < 4 * a * c])
    return poly_text({(2,): -a, (1,): -b, (0,): -c}, ("X",))


def _bivariate_quadric(rng, i):
    """Quadric with every coefficient nonzero and a square constant term, so
    the point scan finds the rational point over the origin first.  The X^2
    coefficient is +-2 or +-3 at two positions in fourteen and +-1 at the
    others; the first kind takes about a third longer, so a share left to
    the seed would move the 90th percentile from seed to seed."""
    terms = {e: _nonzero(rng) for e in _up_to(2, 2)}
    terms[(2, 0)] = rng.choice([-1, 1]) * (rng.choice([2, 3]) if i % 7 == 0
                                           else 1)
    terms[(0, 0)] = rng.choice([1, 4, 9])
    return poly_text(terms, ("X", "Y"))


def _definite_quadric(rng, _i):
    """-(a*X^2 + b*X*Y + c*Y^2 + e) with b^2 < 4*a*c and e > 0: the quadric
    has no real point, so the scan falls back to a quadratic extension."""
    a, c = rng.randint(1, 3), rng.randint(1, 3)
    b = rng.choice([v for v in range(-3, 4) if v * v < 4 * a * c])
    terms = {(2, 0): -a, (1, 1): -b, (0, 2): -c, (0, 0): -rng.randint(1, 7)}
    return poly_text(terms, ("X", "Y"))


# (quadratic monomials, linear monomial) of the trivariate quadrics, in turn
_TRIVARIATE_SHAPES = (
    (((2, 0, 0), (0, 2, 0), (0, 0, 2)), (1, 0, 0)),
    (((1, 1, 0), (0, 1, 1), (1, 0, 1)), (0, 1, 0)),
    (((2, 0, 0), (0, 1, 1), (0, 0, 2)), (0, 0, 1)),
    (((1, 1, 0), (0, 0, 2), (2, 0, 0)), (0, 1, 0)),
    (((0, 2, 0), (1, 0, 1), (0, 1, 1)), (1, 0, 0)),
    (((1, 1, 0), (0, 2, 0), (0, 0, 2)), (0, 0, 1)),
    (((2, 0, 0), (1, 0, 1), (0, 1, 1)), (0, 1, 0)),
    (((0, 2, 0), (1, 1, 0), (1, 0, 1)), (0, 0, 1)),
)


def _trivariate_quadric(rng, i):
    """Three of the six quadratic monomials (a fixed pattern per position),
    one linear term and a square constant term."""
    names = ("X", "Y", "Z")
    quad, lin = _TRIVARIATE_SHAPES[i % len(_TRIVARIATE_SHAPES)]
    terms = {e: _nonzero(rng) for e in quad}
    terms[lin] = _nonzero(rng)
    terms[(0, 0, 0)] = rng.choice([1, 4, 9])
    return poly_text(terms, names)


def _binary_form(rng, i):
    """Squarefree even-degree binary form of degree 4 or 6 (rule 4, then
    univariate); drawn again on a square factor, as in
    _squarefree_univariate."""
    while True:
        text = poly_text(_form(rng, 2, 4 + 2 * (i % 2)), ("X", "Y"))
        if _squarefree(text):
            return text


# --------------------------------------------------------------------------
# roots-curves: bivariate radicands of degree 3 to 6


def _curve_dense(deg):
    def gen(rng, _i):
        terms = {e: rng.choice([-3, -2, -1, 1, 2, 3]) for e in _up_to(2, deg)}
        return poly_text(terms, ("X", "Y"))
    return gen


def _curve_weierstrass(rng, _i):
    """a*Y^2 + b*X*Y + c*Y - X^3 + d*X^2 + e*X + g with a square: the closure
    has a rational double point at infinity, so rule 6 finds a witness."""
    terms = {(0, 2): rng.choice([1, 4]), (1, 1): rng.randint(-2, 2),
             (0, 1): rng.randint(-2, 2), (3, 0): -1, (2, 0): rng.randint(-3, 3),
             (1, 0): rng.randint(-3, 3), (0, 0): rng.randint(-3, 3)}
    return poly_text(terms, ("X", "Y"))


def _sparse_patterns(count):
    """Fixed monomial supports of the sparse curves, the same for every
    seed: one monomial of the top degree 3..6 and three of lower degree."""
    rng = random.Random("sparse-curve-supports")
    out = []
    for k in range(count):
        deg = 3 + k % 4
        out.append([rng.choice(_monomials(2, deg))]
                   + rng.sample(_up_to(2, deg - 1), 3))
    return out


_SPARSE_SUPPORTS = _sparse_patterns(12)


def _curve_sparse(rng, i):
    support = _SPARSE_SUPPORTS[i % len(_SPARSE_SUPPORTS)]
    return poly_text({e: _nonzero(rng) for e in support}, ("X", "Y"))


def _curve_product(rng, i):
    """Products of lines, conics and cusps with non-nodal singularities:
    irrational singular points, tacnodes, triple points and cusp pairs."""
    a, b = rng.choice([2, 3, 5, 6, 7]), rng.choice([2, 3, 5, 6, 7])
    c, e = _nonzero(rng), rng.choice([2, 3, 5])
    shape = i % 5
    if shape == 0:
        return f"(X^2 - {a})*(Y^2 - {b})*(X + Y + {abs(c)})"
    if shape == 1:  # two cusps sharing their tangent
        return f"(Y^2 - {a}*X^3)*(Y^2 - {b + a}*X^3)"
    if shape == 2:  # tacnode: two conics tangent at the origin
        return f"(Y - X^2)*(Y - {e}*X^2)*(X - {abs(c)})"
    if shape == 3:  # three concurrent lines through (c, 0) and a conic
        return (f"(X - {abs(c)})*(Y - X + {abs(c)})*(Y + {a}*X - {a * abs(c)})"
                f"*(X^2 + Y^2 - {b})")
    return f"(Y^2 - {a}*X^3)*(X^2 + Y^2 - {b})"


# --------------------------------------------------------------------------
# roots-3var: 3 and 4 variables, degree 3 and 4


def _quartic_supports(count):
    """Fixed supports of the sparse ternary quartic forms, the same for
    every seed: X^4, Z^4, two monomials with Y and up to two more."""
    rng = random.Random("ternary-quartic-supports")
    with_y = [e for e in _monomials(3, 4) if e[1]]
    return [sorted({(4, 0, 0), (0, 0, 4)} | set(rng.sample(with_y, 2))
                   | set(rng.sample(_monomials(3, 4), 2)))
            for _ in range(count)]


_QUARTIC_SUPPORTS = _quartic_supports(21)


def _three_homogeneous(rng, i):
    """Sparse ternary quartic form on a fixed support, seeded coefficients."""
    support = _QUARTIC_SUPPORTS[i % len(_QUARTIC_SUPPORTS)]
    return poly_text({e: _nonzero(rng) for e in support}, ("X", "Y", "Z"))


def _linear(rng, names):
    terms = {e: rng.randint(-3, 3) for e in _monomials(len(names), 1)}
    terms[(1,) + (0,) * (len(names) - 1)] = _nonzero(rng)
    terms[(0,) * len(names)] = _nonzero(rng)
    return poly_text(terms, names)


def _three_square_times(rng, _i):
    """L^2 * M with L, M linear in X, Y, Z: degree 3, squarefree part M."""
    names = ("X", "Y", "Z")
    return f"({_linear(rng, names)})^2*({_linear(rng, names)})"


def _three_linear_in_one(rng, i):
    """f = a*Y + b with a, b in X, Z and deg f in 3..4 (Y occurs linearly)."""
    deg = 3 + i % 2
    a = _dense(rng, ("X", "Z"), deg - 1)
    b = _dense(rng, ("X", "Z"), rng.choice([2, deg]))
    terms = {(x, 1, z): c for (x, z), c in a.items()}
    terms.update({(x, 0, z): c for (x, z), c in b.items()})
    return poly_text(terms, ("X", "Y", "Z"))


# --------------------------------------------------------------------------
# alphabets


def _doc(texts, variables=None):
    doc = {"roots": [{"label": f"f{i + 1}", "radicand": t}
                     for i, t in enumerate(texts)]}
    if variables:
        doc["variables"] = list(variables)
    return doc


# root degrees of the small alphabets, in turn (two linear roots are the
# line-pairs category)
_SMALL_DEGREES = ((1, 2), (2, 2), (1, 3), (2, 3), (3, 3), (1, 1, 1),
                  (1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 2, 3), (2, 2, 3))


def _alphabet_small(rng, i):
    """2 or 3 univariate roots of degree 1 to 3 (the permutation suite),
    each squarefree and the roots pairwise coprime, so that no seed turns an
    input into an alphabet of fewer roots."""
    import sympy

    x = sympy.Symbol("X")
    degrees = _SMALL_DEGREES[i % len(_SMALL_DEGREES)]
    while True:
        texts = [poly_text(_univariate(rng, d), ("X",)) for d in degrees]
        polys = [sympy.Poly(sympy.sympify(t.replace("^", "**")), x)
                 for t in texts]
        if all(sympy.gcd(p, p.diff(x)).degree() == 0 for p in polys) and all(
                sympy.gcd(p, q).degree() == 0
                for k, p in enumerate(polys) for q in polys[k + 1:]):
            return _doc(texts, ("X",))


def _distinct_ints(rng, k, lo=-9, hi=9):
    return rng.sample(range(lo, hi + 1), k)


def _line(v):
    """The text of X - v."""
    return poly_text({(1,): 1, (0,): -v}, ("X",))


def _alphabet_two_lines(rng, _i):
    """X - a, X - b with a != b: rationalizable by construction, and the
    sequential search finds the witness."""
    a, b = _distinct_ints(rng, 2)
    return _doc([_line(a), _line(b)], ("X",))


def _line_pairs(count):
    """a*X + b, c*X + d with distinct zeros: rationalizable, but whether the
    sequential search finds a witness depends on the coefficients, so some
    end Inconclusive, at twice the time.  The pairs are the same for every
    seed: a seeded draw changed how many end Inconclusive, and with it the
    workload's time, its 90th percentile and its decided share."""
    rng = random.Random("alphabet-line-pairs")
    out = []
    while len(out) < count:
        a, b, c, d = (_nonzero(rng), _nonzero(rng, -5, 5), _nonzero(rng),
                      _nonzero(rng, -5, 5))
        if a * d != b * c:
            out.append(_doc([poly_text({(1,): a, (0,): b}, ("X",)),
                             poly_text({(1,): c, (0,): d}, ("X",))], ("X",)))
    return out


_LINE_PAIRS = _line_pairs(4)


def _alphabet_line_pair(_rng, i):
    return _LINE_PAIRS[i]


def _alphabet_three_lines(rng, _i):
    """Three distinct linear roots: their product is a squarefree cubic, so
    the alphabet is not rationalizable by construction."""
    return _doc([_line(v) for v in _distinct_ints(rng, 3)], ("X",))


def _alphabet_wide(size):
    """size distinct roots, a third of them X^2 + c and the rest linear: the
    product of three linear roots is a squarefree cubic, so the alphabet is
    not rationalizable by construction."""
    def gen(rng, _i):
        quadratic = size // 3
        texts = [_line(v) for v in _distinct_ints(rng, size - quadratic, -20, 20)]
        texts += [f"X^2 + {v}" for v in rng.sample(range(1, 30), quadratic)]
        return _doc(texts, ("X",))
    return gen


# --------------------------------------------------------------------------
# the workloads


def _corpus():
    return {e["tag"]: e for e in json.loads((CORPUS / "corpus.json").read_text())}


def _corpus_root(tag):
    e = _corpus()[tag]
    return {"kind": "root", "cat": f"corpus:{tag}", "text": e["input"],
            "expect": e["expected"]}


def _corpus_alphabet(tag):
    e = _corpus()[tag]
    doc = json.loads((CORPUS / e["input"]).read_text())
    return {"kind": "alphabet", "cat": f"corpus:{tag}", "doc": doc,
            "expect": e["expected"]}


# (category, count, generator, outcome fixed by construction or None)
WORKLOADS = {
    "roots-mixed": [
        ("univariate", 60, _mixed_univariate, None),
        ("square-multiple", 20, _mixed_square_multiple, None),
        ("ratio", 20, _mixed_ratio, None),
        ("definite-univariate", 4, _definite_univariate, RATIONALIZABLE),
        ("bivariate-quadric", 14, _bivariate_quadric, RATIONALIZABLE),
        ("definite-quadric", 4, _definite_quadric, RATIONALIZABLE),
        ("trivariate-quadric", 8, _trivariate_quadric, RATIONALIZABLE),
        ("binary-form", 20, _binary_form, None),
    ],
    "roots-curves": [
        ("weierstrass-cubic", 16, _curve_weierstrass, RATIONALIZABLE),
        ("dense-cubic", 11, _curve_dense(3), None),
        ("dense-quartic", 11, _curve_dense(4), None),
        ("sparse", 48, _curve_sparse, None),
        ("product", 12, _curve_product, None),
    ],
    "roots-3var": [
        ("square-times-linear", 10, _three_square_times, RATIONALIZABLE),
        ("homogeneous-quartic", 83, _three_homogeneous, None),
        ("linear-in-one", 3, _three_linear_in_one, None),
    ],
    "alphabets": [
        ("small", 67, _alphabet_small, None),
        ("two-lines", 16, _alphabet_two_lines, RATIONALIZABLE),
        ("line-pairs", 4, _alphabet_line_pair, None),
        ("three-lines", 8, _alphabet_three_lines, NOT_RATIONALIZABLE),
        ("wide-9", 1, _alphabet_wide(9), NOT_RATIONALIZABLE),
    ],
}

FIXED = {
    "roots-mixed": lambda: [_corpus_root("unit-circle"),
                            _corpus_root("unit-cubic")],
    "roots-curves": lambda: [_corpus_root("bhabha"),
                             _corpus_root("fermat-quartic-2")],
    "roots-3var": lambda: [{"kind": "root", "cat": "stress", "text": t,
                            "expect": None} for t in STRESS_3VAR]
    + [_corpus_root("fermat-quartic-3")],
    "alphabets": lambda: [_corpus_alphabet(t) for t in (
        "higgs-production", "dijet-production", "drell-yan", "shifted-pair")],
}


def _key(item):
    return item["text"] if item["kind"] == "root" else json.dumps(
        item["doc"], sort_keys=True)


def generate(workload, seed):
    """The fixed input list of `workload` for `seed`."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    items = FIXED[workload]()
    seen = {_key(it) for it in items} | {WARMUP_TEXT}
    for cat, count, gen, expect in WORKLOADS[workload]:
        made = 0
        while made < count:
            out = gen(rng, made)
            item = ({"kind": "root", "text": out} if isinstance(out, str)
                    else {"kind": "alphabet", "doc": out})
            item.update(cat=cat, expect=expect)
            if _key(item) in seen:
                continue
            seen.add(_key(item))
            items.append(item)
            made += 1
    # interleave the categories, so a burst of machine noise during a run
    # spreads over all of them instead of shifting one
    rng.shuffle(items)
    for i, it in enumerate(items):
        it["id"] = i
    return items
