"""Independent checks of the engine's outputs, using sympy only.

Nothing here imports ratsqrt.  A check reads the input text and the JSON
report the engine wrote and returns a list of problems (empty when the
output is correct):

* a reported witness is substituted into the radicand, and the reported
  square root must square to the image exactly (up to a rational square
  constant); the map must be dominant, its Jacobian of full rank at a
  pseudo-random point;
* the outcome must agree with a reference wherever theory fixes one:
  - the odd-multiplicity part of the radicand (``sympy.sqf_list``) of
    degree <= 2 means Rationalizable;
  - a univariate one of degree >= 3, or a binary form with more than two
    odd-multiplicity points on the projective line, means
    NotRationalizable;
  - a univariate alphabet is rationalizable exactly when the
    (Z/2)^r double cover of the line it defines has genus 0, that is when
    its r independent square classes have B = 4 - 2^(2-r) branch points
    (r = 0, or r = 1 and B = 2, or r = 2 and B = 3);
  - the outcome an input has by construction, or its corpus.json
    expectation, must be met exactly.

An Inconclusive outcome where theory fixes an answer is honest, so it
fails no check; it only does not count as decided.
"""

from __future__ import annotations

import json
import random

import sympy as sp

RATIONALIZABLE = "Rationalizable"
NOT_RATIONALIZABLE = "NotRationalizable"


def parse(text):
    """sympy expression of a text in the engine's grammar (generated or
    engine-written text only: this uses sympify)."""
    return sp.sympify(text.replace("^", "**"))


def _odd_part(expr):
    """(constant, [odd-multiplicity squarefree factors]) of an expression."""
    num, den = sp.fraction(sp.cancel(sp.together(expr)))
    radicand = sp.expand(num * den)
    if radicand.is_number:
        return radicand, []
    const, factors = sp.sqf_list(radicand)
    return const, [f for f, m in factors if m % 2 == 1]


def reference_root(text):
    """Outcome theory fixes for sqrt(text), or None."""
    const, odd = _odd_part(parse(text))
    gens = sorted(set().union(*(f.free_symbols for f in odd)), key=str) \
        if odd else []
    degree = sum(sp.Poly(f, *gens).total_degree() for f in odd) if odd else 0
    if degree <= 2:
        return RATIONALIZABLE
    if len(gens) == 1:
        return NOT_RATIONALIZABLE
    if len(gens) == 2:
        polys = [sp.Poly(f, *gens) for f in odd]
        if all(p.is_homogeneous for p in polys) and degree % 2 == 0:
            # each squarefree binary form of degree k has k distinct points
            # on the projective line, all of odd multiplicity
            return NOT_RATIONALIZABLE if degree > 2 else RATIONALIZABLE
    return None


def reference_univariate_alphabet(texts):
    """Outcome of a univariate alphabet from the genus of its double cover,
    or None when the roots are not all univariate in one variable."""
    exprs = [sp.expand(parse(t)) for t in texts]
    syms = set().union(*(e.free_symbols for e in exprs))
    if len(syms) != 1:
        return None
    (x,) = syms
    columns = {}  # irreducible factor -> parity vector over the roots
    degrees = []
    for i, e in enumerate(exprs):
        poly = sp.Poly(e, x)
        degrees.append(poly.degree() % 2)
        for f, m in poly.factor_list()[1]:
            key = f.monic().as_expr()
            columns.setdefault(key, [0] * len(exprs))[i] ^= m % 2
    cols = [(sp.Poly(k, x).degree(), v) for k, v in columns.items()]
    cols.append((1, degrees))  # the point at infinity
    rank = _gf2_rank([v for _d, v in cols])
    branch = sum(d for d, v in cols if any(v))
    ok = rank == 0 or (rank == 1 and branch == 2) or (rank == 2 and branch == 3)
    return RATIONALIZABLE if ok else NOT_RATIONALIZABLE


def _gf2_rank(vectors):
    rows = [int("".join(map(str, v)), 2) for v in vectors if any(v)]
    rank = 0
    while rows:
        pivot = max(rows)
        rows.remove(pivot)
        if pivot:
            rank += 1
            top = pivot.bit_length() - 1
            rows = [r ^ pivot if r >> top & 1 else r for r in rows]
            rows = [r for r in rows if r]
    return rank


def check_witness(radicand_texts, witness, square_roots):
    """Problems with a witness: the image of each radicand must be the
    square of its reported square root (up to a rational square constant,
    since the engine may normalize the radicand's constant differently),
    and the map must be dominant."""
    problems = []
    assignments = {sp.Symbol(v): parse(t)
                   for v, t in witness["assignments"].items()}
    for label, text in radicand_texts.items():
        const, odd = _odd_part(parse(text))
        image = (const * sp.Mul(*odd)).subs(assignments, simultaneous=True)
        h = parse(square_roots[label])
        ratio = sp.radsimp(sp.cancel(sp.together(image / (h * h))))
        if not (ratio.is_number and ratio != 0
                and sp.sqrt(ratio).is_rational):
            problems.append(f"witness does not square {label}")
    if not _dominant(assignments):
        problems.append("witness map is degenerate (Jacobian rank deficient)")
    return problems


def _dominant(assignments):
    """Jacobian of full rank at one of a few pseudo-random points."""
    syms = sorted(assignments, key=str)
    params = sorted({s for g in assignments.values() for s in g.free_symbols},
                    key=str)
    if len(params) < len(syms):
        return False
    jac = sp.Matrix([[sp.diff(assignments[s], t) for t in params]
                     for s in syms])
    rng = random.Random(0)
    for _ in range(3):
        point = {t: sp.Rational(rng.randint(-97, 97), rng.randint(1, 13))
                 for t in params}
        value = jac.subs(point)
        if all(v.is_finite for v in value) and value.rank() == len(syms):
            return True
    return False


def check(item, result):
    """Problems with one completed input (item from workloads.generate,
    result from the worker)."""
    report = json.loads(result["report"])
    outcome = report["outcome"]
    problems = []
    if item["kind"] == "root":
        reference = reference_root(item["text"])
        texts = {"root": item["text"]}
        witness = report.get("witness")
        roots = {"root": witness.get("square_root")} if witness else {}
    else:
        texts = {r.get("label", f"r{i + 1}"): r["radicand"]
                 for i, r in enumerate(item["doc"]["roots"])}
        reference = reference_univariate_alphabet(list(texts.values()))
        witness = report.get("witness")
        roots = report.get("root_square_roots", {})
    expect = item.get("expect")
    if expect is not None and outcome != expect:
        problems.append(f"outcome {outcome}, expected {expect}")
    if reference is not None and outcome in (RATIONALIZABLE, NOT_RATIONALIZABLE) \
            and outcome != reference:
        problems.append(f"outcome {outcome} contradicts reference {reference}")
    if witness is not None:
        if outcome != RATIONALIZABLE:
            problems.append(f"witness reported with outcome {outcome}")
        missing = [k for k in texts if roots.get(k) is None]
        if missing:
            problems.append(f"no square root reported for {missing}")
        else:
            problems += check_witness(texts, witness, roots)
    return problems, witness is not None
