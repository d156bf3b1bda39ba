"""Decision cascade for the rationalizability of a single square root.

Given sqrt(p/q), the radicand is first replaced by the squarefree
(odd-multiplicity) part f of p*q, which preserves the verdict in both
directions.  The criteria are then applied in a fixed order:

1. constant radicand -> rationalizable trivially;
2. unused variables dropped;
3. degree <= 2 -> rationalizable, with a quadric-parametrization witness;
4. even-degree homogeneous -> dehomogenize and recurse (witness lifted back);
5. one variable -> rationalizable iff degree <= 2 (so: not rationalizable);
6. two variables, degree 3 -> rationalizable iff the projective cubic
   surface w^2 z = F is not a cone, that is, iff the plane cubic F has no
   multiplicity-3 point on the line z = 0 at infinity; the triple point is
   read off the singular points of the branch curve s*F, and so is the
   projection centre, a double point of the surface;
7. two variables, other degree -> if every singularity of the branch curve
   of the double cover is simple (ADE), rationalizable iff degree <= 4;
8. a point of multiplicity D-1 on the hypersurface closure of W^2 = f
   -> rationalizable by projection from that point; for two variables
   such points lie over the singular points at infinity of the branch
   curve, and are read off rule 7's records; for three or more variables
   the closure is searched;
9. otherwise Inconclusive; so too, before rule 6, a radicand with
   irrational coefficients, which the geometric criteria do not take.

Every step is recorded in a replayable certificate; resource or tower
limits surface as Inconclusive with an explanatory step, never as a wrong
verdict.  The cascade decides outcomes only; a witness is built after it,
by complete(), from what the deciding rule computed, and an emitted
witness always passes symbolic verification first.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from functools import partial

from .errors import ResourceLimit, TowerTooDeep
from .geometry import (
    all_simple,
    build_model,
    centre_from_records,
    high_mult_point_search,
    milnor_sum,
    singular_points,
    triple_point_of_cubic,
)
from .mpoly import (
    MultiPoly,
    RationalMap,
    dehomogenize,
    effective_vars,
    is_homogeneous,
    poly_str,
    radicand_reduce,
    rf_str,
)
from .witness import (
    homogeneous_lift,
    projection_witness,
    quadric_witness,
    verify_witness,
)

RATIONALIZABLE = "Rationalizable"
NOT_RATIONALIZABLE = "NotRationalizable"
INCONCLUSIVE = "Inconclusive"

RULE_REFS = {
    "radicand-reduction": "square factors under the root are irrelevant: the"
    " radicand is replaced by the odd-multiplicity part of numerator times"
    " denominator",
    "constant-radicand": "a constant radicand is a square over the"
    " algebraically closed constant field",
    "effective-variables": "variables that do not occur in the reduced"
    " radicand are dropped before analysis",
    "degree-at-most-2": "for degree at most 2 the quadric W^2 = f is a"
    " rational hypersurface; projection from a regular point gives a"
    " rationalizing substitution",
    "homogeneous-reduction": "an even-degree homogeneous radicand is"
    " rationalizable exactly when its dehomogenization in one fewer"
    " variable is",
    "univariate-degree": "with one variable, the square root is"
    " rationalizable exactly when the squarefree radicand has degree at"
    " most 2",
    "cubic-triple-point": "for a bivariate cubic the square root is"
    " rationalizable exactly when the projective cubic has no point of"
    " multiplicity 3",
    "simple-singularities": "when every singularity of the branch curve of"
    " the double cover is simple (ADE), the square root is rationalizable"
    " exactly when the degree is at most 4",
    "high-multiplicity-point": "a point of multiplicity D-1 on the"
    " degree-D hypersurface closure of W^2 = f makes the hypersurface"
    " rational via projection, so the square root is rationalizable",
    "inconclusive": "no implemented criterion decides this radicand; absence"
    " of a multiplicity-(D-1) point is not a proof of non-rationalizability",
    "resource-limit": "a resource limit was reached before any criterion"
    " could decide; the outcome is reported as Inconclusive",
}


@dataclass(frozen=True)
class Step:
    rule: str
    data: dict

    @property
    def ref(self):
        return RULE_REFS[self.rule]

    def to_json(self):
        return {"rule": self.rule, "paper_ref": self.ref, "data": self.data}


@dataclass
class Verdict:
    outcome: str
    witness: RationalMap | None = None
    witness_sqrt: object | None = None
    steps: list = field(default_factory=list)
    singularities: list | None = None
    timings: dict = field(default_factory=dict)
    # the witness builder that complete() runs; never serialized
    pending: object = field(default=None, repr=False, compare=False)


def valid_seconds(value):
    """A time budget: a finite number of seconds above zero."""
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0


def valid_count(value):
    """A bound: an integer >= 0."""
    return isinstance(value, int) and value >= 0


@dataclass
class Config:
    max_height: int = 50
    max_subset_size: int = 12
    ordering_budget: int = 24
    timeout: float = 30.0

    def __post_init__(self):
        if not valid_seconds(self.timeout):
            raise ValueError("timeout must be a finite number of seconds > 0,"
                             f" got {self.timeout!r}")
        for name in ("max_height", "max_subset_size", "ordering_budget"):
            if not valid_count(getattr(self, name)):
                raise ValueError(f"{name} must be an integer >= 0,"
                                 f" got {getattr(self, name)!r}")

    def to_json(self):
        return asdict(self)


DEFAULT_CONFIG = Config()


class _RuleClock:
    """The record of one decision: its certificate steps, its per-rule
    timings and the soft per-rule budget.  run() raises ResourceLimit when
    a rule returned after exceeding the budget; an exception raised by the
    rule itself (KeyboardInterrupt included) propagates."""

    def __init__(self, timeout):
        self.timeout = timeout
        self.steps = []
        self.timings = {}

    def run(self, rule, fn):
        t0 = time.monotonic()
        try:
            out = fn()
        finally:
            dt = time.monotonic() - t0
            self.timings[rule] = self.timings.get(rule, 0.0) + dt
        if dt > self.timeout:
            raise ResourceLimit(f"rule '{rule}' exceeded {self.timeout}s")
        return out

    def step(self, rule, data):
        self.steps.append(Step(rule, data))

    def verdict(self, outcome, rule, data, records=None, pending=None):
        """The verdict, decided by the step (rule, data); `pending` builds
        its witness, see complete()."""
        self.step(rule, data)
        return Verdict(outcome, None, None, self.steps, records, self.timings,
                       pending)


def decide(p: MultiPoly, q: MultiPoly | None = None, config: Config = None,
           *, witness: bool = True) -> Verdict:
    """Verdict for sqrt(p/q) (q omitted means denominator 1).

    The cascade decides the outcome only.  A Rationalizable verdict keeps a
    builder over what its deciding rule computed, and complete() builds the
    witness from it as a separate stage.  With witness=False that stage is
    left for the caller: the verdict's witness and square root are None and
    its steps carry no witness, square root, projection centre or witness
    note.  Rule 8 still searches for its point, which is the decision.
    """
    config = config or DEFAULT_CONFIG
    clock = _RuleClock(config.timeout)
    if q is None:
        q = MultiPoly.const(p.vars, 1)
    try:
        if p.is_zero():
            v = clock.verdict(
                RATIONALIZABLE, "radicand-reduction",
                {"reduced": "0", "note": "sqrt(0) = 0 is rational"},
                pending=lambda: _identity_witness(p))
        else:
            f = clock.run("radicand-reduction", lambda: radicand_reduce(p, q))
            clock.step("radicand-reduction",
                       {"input": f"({poly_str(p)})/({poly_str(q)})",
                        "reduced": poly_str(f), "degree": f.total_degree()})
            v = _decide_reduced(f, clock, config)
    except (ResourceLimit, TowerTooDeep) as e:
        v = clock.verdict(INCONCLUSIVE, "resource-limit", {"detail": str(e)})
    return complete(v) if witness else v


def complete(v: Verdict) -> Verdict:
    """Build the witness of a verdict from decide(..., witness=False), in
    place, and return the verdict: then it equals a fresh decide(...).

    The builder runs once, under the clock of the decision, and its step
    data (witness, square root, projection centre or note) joins the
    deciding step.  A resource or tower limit reached while building makes
    the verdict Inconclusive, as it does inside the cascade: the deciding
    step gives way to a resource-limit step.  A completed, NotRationalizable
    or Inconclusive verdict is returned unchanged.
    """
    build, v.pending = v.pending, None
    if build is None:
        return v
    try:
        v.witness, v.witness_sqrt, data = build()
    except (ResourceLimit, TowerTooDeep) as e:
        v.outcome, v.singularities = INCONCLUSIVE, None
        v.steps[-1] = Step("resource-limit", {"detail": str(e)})
        return v
    v.steps[-1].data.update(data)
    return v


def _decide_reduced(f, clock, config):
    # rule 1: constant radicand
    if f.is_constant():
        return clock.verdict(RATIONALIZABLE, "constant-radicand",
                             {"value": poly_str(f)},
                             pending=lambda: _identity_witness(f))
    # rule 2: effective variables
    eff = effective_vars(f)
    if tuple(eff) != f.vars:
        clock.step("effective-variables", {"kept": eff})
        f = f.with_vars(tuple(eff))
    d = f.total_degree()
    # rule 3: degree <= 2; the rule keeps its timing key without a witness
    if d <= 2:
        clock.run("degree-at-most-2", lambda: None)
        return clock.verdict(RATIONALIZABLE, "degree-at-most-2", {"degree": d},
                             pending=lambda: _found(clock.run(
                                 "degree-at-most-2",
                                 lambda: quadric_witness(f, config.max_height))))
    # rule 4: even-degree homogeneous reduction; the inner witness is lifted
    # back, and the inner step keeps the witness of the dehomogenized root
    if is_homogeneous(f) == d and d % 2 == 0:
        var = eff[-1]
        g = clock.run("homogeneous-reduction", lambda: dehomogenize(f, var))
        clock.step("homogeneous-reduction",
                   {"variable": var, "dehomogenized": poly_str(g),
                    "degree": g.total_degree()})
        inner = _decide_reduced(g, clock, config)
        if inner.pending is not None:
            inner.pending = partial(_lift, inner.pending, f, var, clock)
        return inner
    # rule 5: univariate
    if len(eff) == 1:
        return clock.verdict(NOT_RATIONALIZABLE, "univariate-degree",
                             {"degree": d})
    if not f.coefficients_rational():
        return clock.verdict(INCONCLUSIVE, "inconclusive", {
            "note": "the geometric criteria need rational coefficients"})
    model = clock.run("build-model", lambda: build_model(f))
    # rule 6: bivariate cubic.  The closure w^2 z = F is a cone, and so not
    # rational, exactly when F has a triple point on z = 0 (f is a cubic in
    # one linear form); an affine triple point is a double point of it
    if len(eff) == 2 and d == 3:
        points = clock.run("cubic-triple-point",
                           lambda: singular_points(model.B))
        tp = triple_point_of_cubic(points)
        if tp is not None and tp.chart > 0:
            return clock.verdict(NOT_RATIONALIZABLE, "cubic-triple-point",
                                 {"triple_point": tp.to_json(),
                                  "decides": "not rationalizable"})
        return clock.verdict(
            RATIONALIZABLE, "cubic-triple-point",
            {"triple_point": None if tp is None else tp.to_json(),
             "decides": "rationalizable"},
            pending=lambda: _criterion_witness(
                model, f, clock, [pt for pt, _m in points]))
    # rule 7: bivariate, all-simple branch curve
    records = points = None
    if len(eff) == 2:
        ok, records = clock.run("simple-singularities", lambda: all_simple(model))
        points = [r.point for r in records]
        data = {
            "degree": d,
            "branch_degree": model.B.total_degree(),
            "all_simple": ok,
            "milnor_sum": milnor_sum(records),
            "singularities": [r.to_json() for r in records],
        }
        if ok:
            return clock.verdict(
                RATIONALIZABLE if d <= 4 else NOT_RATIONALIZABLE,
                "simple-singularities", data, records,
                (lambda: _criterion_witness(model, f, clock, points))
                if d <= 4 else None)
        clock.step("simple-singularities", data)
    # rule 8: high-multiplicity point on the hypersurface closure
    V = model.V
    pt, certified = _centre(model, clock, points)
    if pt is not None:
        return clock.verdict(RATIONALIZABLE, "high-multiplicity-point",
                             {"point": pt.to_json(),
                              "hypersurface_degree": V.total_degree()},
                             records,
                             lambda: _found(_projection(model, f, clock, pt)[0]))
    # rule 9: inconclusive
    return clock.verdict(INCONCLUSIVE, "inconclusive",
                         {"high_mult_search_certified_empty": certified,
                          "hypersurface_degree": V.total_degree()},
                         records=records)


def _found(pair, **data):
    """(map, square root, step data) of a (map, square root) pair or None."""
    if pair is None:
        return None, None, {}
    m, h = pair
    return m, h, {"witness": m.to_json(), "square_root": rf_str(h), **data}


def _identity_witness(f):
    """Identity witness for a constant radicand, zero included, when it
    verifies."""
    if not f.vars:
        return None, None, {}
    m = RationalMap.identity(f.vars)
    h = verify_witness(m, f)
    return (m, h, {}) if h is not None else (None, None, {})


def _lift(build, f, var, clock):
    """The witness of rule 4: the inner witness lifted back to f."""
    m, h, data = build()
    if m is not None:
        m, h = clock.run("homogeneous-reduction",
                         lambda: homogeneous_lift(m, f, var)) or (None, None)
    return m, h, data


def _centre(model, clock, points):
    """(point, certified_empty): a point of multiplicity D - 1 on the
    hypersurface V, read off the singular points of the branch curve when
    f is bivariate, otherwise searched for on V."""
    return clock.run(
        "high-multiplicity-point",
        lambda: high_mult_point_search(model.V) if model.B is None
        else centre_from_records(model, points))


def _projection(model, f, clock, pt):
    """((map, square root), None) of the projection from the centre pt,
    when pt is rational and the map verifies on f, else (None, a note on
    why not).  Projection and verification run under the
    high-multiplicity-point clock."""
    if pt is None:
        return None, "existence by criterion; no projection centre found"
    if pt.field is not None:
        return None, "projection centre is not rational; witness omitted"

    def build():
        m = projection_witness(model.V, pt)
        return m, None if m is None else verify_witness(m, f)

    m, h = clock.run("high-multiplicity-point", build)
    if m is None:
        return None, "projection degenerated"
    if h is None:
        return None, "candidate failed verification and was discarded"
    return (m, h), None


def _criterion_witness(model, f, clock, points):
    """(map, square root, step data) of a projection witness for a verdict
    that a criterion has already given."""
    pt, _certified = _centre(model, clock, points)
    pair, note = _projection(model, f, clock, pt)
    if pair is None:
        return None, None, {"witness": None, "note": note}
    return _found(pair, projection_centre=pt.to_json())
