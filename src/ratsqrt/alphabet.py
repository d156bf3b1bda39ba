"""Simultaneous rationalizability of a finite set of square roots.

Two one-directional criteria are implemented:

* If the alphabet is rationalizable, every product over a non-empty index
  subset is rationalizable as a single square root; contrapositively, the
  first subset product decided NotRationalizable certifies the whole
  alphabet NotRationalizable (phase 1).  Subsets are decided in
  certification order, singletons first and then the largest subsets, and
  each product is built only when its turn comes.  Phase 1 reads only
  outcomes, so it decides without building witnesses.

* A Rationalizable outcome requires an explicit simultaneous witness
  (phase 2): the witness of each root found Rationalizable in phase 1 is
  built from its phase-1 verdict (engine.complete), then roots are
  rationalized sequentially — rationalize one, substitute the witness into
  the rest, reduce, repeat — searching over root orderings and witness
  choices, and the resulting composite map is verified against every
  original root before being emitted.  Each radicand is decided once.

The converse of the subset-product criterion is unknown, so "all products
rationalizable" alone never yields Rationalizable; when no simultaneous
witness is found the outcome is Inconclusive.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, permutations

from .engine import (
    INCONCLUSIVE,
    NOT_RATIONALIZABLE,
    RATIONALIZABLE,
    Config,
    DEFAULT_CONFIG,
    Verdict,
    complete,
    decide,
)
from .errors import TooManyRoots
from .mpoly import (
    MultiPoly,
    RationalFunction,
    RationalMap,
    dehomogenize,
    is_homogeneous,
    is_perfect_square,
    listed,
    on_effective_vars,
    poly_str,
    radicand_reduce,
    rf_str,
    squarefree_part,
    substitute,
)
from .witness import compose, homogeneous_lift, verify_witness


@dataclass(frozen=True)
class SubsetCertificate:
    labels: tuple
    reduced_product: MultiPoly
    inner: Verdict

    def to_json(self):
        return {
            "subset": list(self.labels),
            "reduced_product": poly_str(self.reduced_product),
            "degree": self.reduced_product.total_degree(),
            "inner_outcome": self.inner.outcome,
            "inner_steps": [s.to_json() for s in self.inner.steps],
        }


@dataclass
class AlphabetVerdict:
    outcome: str
    witness: RationalMap | None = None
    certificate: SubsetCertificate | None = None
    trace: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    root_squares: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)


def subset_products(roots, cap):
    """The non-empty index subsets with their squarefree-reduced products,
    built lazily in certification order.

    Singletons come first (cheap, common), then sizes n down to 2, each size
    in lexicographic order.  Larger products accumulate degree, and the
    degree criteria only certify non-rationalizability above degree
    thresholds, so the richest certificates live at the top; this keeps the
    emitted certificate aligned with the worked reference alphabets.
    `roots` is a list of MultiPoly over a common variable tuple.
    """
    if not roots:
        raise ValueError("empty alphabet")
    if len(roots) > cap:
        raise TooManyRoots(
            f"{len(roots)} roots exceed the subset cap {cap};"
            " raise max_subset_size explicitly to proceed"
        )
    n = len(roots)
    for size in (1, *range(n, 1, -1)):
        for J in combinations(range(n), size):
            prod = roots[J[0]]
            for j in J[1:]:
                prod = prod * roots[j]
            yield J, squarefree_part(prod)


def _common_ring(roots):
    universe = []
    for f in roots:
        for v in f.vars:
            if v not in universe:
                universe.append(v)
    universe = tuple(universe)
    return universe, [f.with_vars(universe) for f in roots]


def _shared_dehomogenization(roots):
    """Apply one dehomogenization variable to an all-even homogeneous
    alphabet of squarefree roots; returns (variable or None, transformed
    roots)."""
    for f in roots:
        d = is_homogeneous(f)
        if d is None or d % 2 == 1:
            return None, roots
    ring = roots[0].vars
    eff = [v for v in ring if any(f.degree_in(v) > 0 for f in roots)]
    if not eff:
        return None, roots
    var = eff[-1]
    _, out = _common_ring(
        [dehomogenize(f, var) if f.degree_in(var) > 0 else f for f in roots]
    )
    return var, out


def decide_alphabet(roots, config: Config = None, extra_witnesses=None):
    """Alphabet verdict for a list of (label, radicand MultiPoly).

    `extra_witnesses` optionally supplies candidate maps tried before the
    computed ones during the sequential search (they are still subject to
    the verification gate, so unsound candidates are simply dead ends).
    """
    config = config or DEFAULT_CONFIG
    labels = [l for l, _f in roots]
    universe, polys = _common_ring([f for _l, f in roots])
    verdictnotes = []
    # each root listed as a factor, so that a subset product is written in
    # its roots (MultiPoly.factors)
    reduced = [listed(squarefree_part(f)) for f in polys]
    for l, f, g in zip(labels, polys, reduced):
        if f.total_degree() > 8 and g.total_degree() < f.total_degree():
            verdictnotes.append(
                f"root {l} contains square factors of high degree; if it"
                " arose from an earlier substitution, analysing the"
                " original alphabet is more decisive"
            )
    dehom_var, polys = _shared_dehomogenization(reduced)
    if dehom_var is not None:
        verdictnotes.append(
            f"all roots homogeneous of even degree: shared dehomogenization"
            f" in {dehom_var} applied first"
        )
    trace = []
    singleton = {}
    decided = {}  # one verdict per radicand, see _decide_once

    def verdict(outcome, m=None, cert=None, squares=None):
        # an alphabet's timings: the per-rule sums over its decisions
        timings = Counter()
        for v in decided.values():
            timings.update(v.timings)
        return AlphabetVerdict(outcome, m, cert, trace, verdictnotes,
                               squares or {}, dict(timings))

    for J, prod in subset_products(polys, config.max_subset_size):
        v = _decide_once(decided, prod, config)
        entry = {
            "subset": [labels[j] for j in J],
            "reduced_product": poly_str(prod),
            "degree": prod.total_degree(),
            "outcome": v.outcome,
        }
        if v.outcome == INCONCLUSIVE:
            entry["obstruction"] = _obstruction_note(v)
        trace.append(entry)
        if len(J) == 1:
            singleton[J[0]] = v
        if v.outcome == NOT_RATIONALIZABLE:
            cert = SubsetCertificate(tuple(labels[j] for j in J), prod, v)
            return verdict(NOT_RATIONALIZABLE, cert=cert)
    # phase 2: a simultaneous witness is required for Rationalizable
    blocked = []
    for i, v in sorted(singleton.items()):
        if complete(v).outcome != RATIONALIZABLE:
            blocked.append(f"root {labels[i]} undecided individually")
        elif v.witness is None and not extra_witnesses:
            blocked.append(
                f"root {labels[i]} rationalizable by criterion but without"
                " an explicit witness"
            )
    if blocked:
        verdictnotes.extend(blocked)
        return verdict(INCONCLUSIVE)
    # a witness of dehomogenized roots is lifted back inside the search, so
    # that one without a lift is a dead end the search backs out of
    unlifted = False

    def lift(m):
        nonlocal unlifted
        out = _lift_alphabet_witness(m, reduced, dehom_var)
        unlifted = unlifted or out is None
        return out

    found = sequential_rationalize(
        polys, config, extra_witnesses=extra_witnesses, decided=decided,
        lift=None if dehom_var is None else lift)
    if found is None:
        verdictnotes.append(
            "simultaneous witness found for the dehomogenized roots but"
            " it has no verified homogeneous lift" if unlifted else
            "no simultaneous witness found within the search budget; the"
            " subset criterion alone cannot prove rationalizability"
        )
        return verdict(INCONCLUSIVE)
    m, roots_of_images = found
    squares = {l: rf_str(h) for l, h in zip(labels, roots_of_images)}
    return verdict(RATIONALIZABLE, m, squares=squares)


def _decide_once(decided, f, config):
    """decide(f, witness=False), once per radicand: `decided` maps each
    radicand, read over its effective variables, to its verdict, which
    complete() upgrades in place when a witness is wanted.  decide drops
    the other variables first, so a verdict reached over more variables has
    the same outcome and witness; only its steps differ, and the search
    reads only the witness."""
    key = on_effective_vars(f)
    if key not in decided:
        decided[key] = decide(f, None, config, witness=False)
    return decided[key]


def _lift_alphabet_witness(m, reduced, dehom_var):
    """Lift a witness of the dehomogenized roots to the reduced homogeneous
    roots: (lifted map, [square root of each image]), or None."""
    k = next(
        (i for i, f in enumerate(reduced) if f.degree_in(dehom_var) > 0), 0
    )
    lifted = homogeneous_lift(m, reduced[k], dehom_var)
    if lifted is None:
        return None
    lifted_map, h = lifted
    hs = [
        h if i == k else verify_witness(lifted_map, f)
        for i, f in enumerate(reduced)
    ]
    if any(g is None for g in hs):
        return None
    return lifted_map, hs


def _obstruction_note(v: Verdict):
    for s in v.steps:
        if s.rule == "simple-singularities" and not s.data.get("all_simple", True):
            bad = [
                r for r in s.data["singularities"] if r["class"] == "NonSimple"
            ]
            return {
                "reason": "branch curve has non-simple singularities",
                "non_simple_points": bad,
            }
    return {"reason": v.steps[-1].rule}


def sequential_rationalize(roots, config: Config = None, extra_witnesses=None,
                           decided=None, lift=None):
    """Search for one map rationalizing every root: (map, [square root of
    each root's image]), or None.

    Tries root orderings (up to the configured budget) and, per step,
    witness candidates for the current reduced image; each accepted witness
    is composed into the running substitution, which is finally verified
    against all original roots, and that check yields the square roots.
    The running substitution starts as the identity, so the first accepted
    witness, padded to every variable, becomes it without a composition.
    `decided` optionally holds verdicts already reached, as
    :func:`_decide_once` keeps them; the search adds its own, so no reduced
    image is decided twice.  `lift`, when given, turns a map that
    rationalizes every root into the result instead, or into None, a dead
    end that the search backs out of.
    Failure is not a non-rationalizability proof.
    """
    config = config or DEFAULT_CONFIG
    universe, roots = _common_ring(list(roots))
    if not universe:
        return None
    extra = list(extra_witnesses or [])
    decided = {} if decided is None else decided

    def candidates(f):
        out = [w for w in extra if verify_witness(w, f) is not None]
        # complete verified its witness against f, which is already reduced
        v = complete(_decide_once(decided, f, config))
        if v.witness is not None:
            out.append(v.witness)
        return out

    def extend(m, remaining):
        if not remaining:
            hs = []
            for f in roots:
                h = verify_witness(m, f)
                if h is None:
                    return None
                hs.append(h)
            return (m, hs) if lift is None else lift(m)
        f = remaining[0]
        img = substitute(f, m)
        if is_perfect_square(img, m.extension) is not None:
            return extend(m, remaining[1:])
        red = radicand_reduce(img.num, img.den)
        if red.is_constant():
            return None  # constant non-square image: dead end
        for w in candidates(red):
            w_full = _pad_map(w, universe)
            nxt = extend(w_full if m is identity else compose(m, w_full),
                         remaining[1:])
            if nxt is not None:
                return nxt
        return None

    identity = RationalMap.identity(universe)
    count = 0
    for order in permutations(range(len(roots))):
        count += 1
        if count > config.ordering_budget:
            break
        found = extend(identity, [roots[i] for i in order])
        if found is not None:
            return found
    return None


def _pad_map(w, universe):
    """Extend a witness to the full variable universe with identities; its
    assignments are in lowest terms already, so they are not reduced
    again."""
    assignments = {}
    for v in universe:
        if v in w.assignments:
            g = w.assignments[v]
            assignments[v] = RationalFunction(
                g.num.with_vars(universe), g.den.with_vars(universe),
                reduce=False)
        else:
            assignments[v] = RationalFunction.from_poly(
                MultiPoly.var(universe, v)
            )
    return RationalMap(universe, assignments, extension=w.extension)
