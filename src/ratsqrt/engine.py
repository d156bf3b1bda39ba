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
   multiplicity-3 point on the line z = 0 at infinity;
7. two variables, other degree -> if every singularity of the branch curve
   of the double cover is simple (ADE), rationalizable iff degree <= 4;
8. a point of multiplicity D-1 on the hypersurface closure of W^2 = f
   -> rationalizable by projection from that point; for two variables and
   degree >= 4 such points lie over the singular points at infinity of the
   branch curve, and are read off rule 7's records, otherwise the closure
   is searched;
9. otherwise Inconclusive; so too, before rule 6, a radicand with
   irrational coefficients, which the geometric criteria do not take.

Every step is recorded in a replayable certificate; resource or tower
limits surface as Inconclusive with an explanatory step, never as a wrong
verdict.  An emitted witness always passes symbolic verification first.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

from .errors import ResourceLimit, TowerTooDeep
from .geometry import (
    all_simple,
    build_model,
    centre_from_records,
    high_mult_point_search,
    milnor_sum,
    triple_point_of_cubic,
)
from .mpoly import (
    MultiPoly,
    RationalFunction,
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

    def verdict(self, outcome, rule, data, m=None, h=None, records=None):
        """The verdict, decided by the step (rule, data)."""
        self.step(rule, data)
        return Verdict(outcome, m, h, self.steps, records, self.timings)


def decide(p: MultiPoly, q: MultiPoly | None = None, config: Config = None,
           *, witness: bool = True) -> Verdict:
    """Verdict for sqrt(p/q) (q omitted means denominator 1).

    With witness=False only the outcome is wanted: the cascade is the same
    and so are its steps, but no witness is built or verified, so the
    verdict's witness and square root are None and the steps carry no
    witness, square root, projection centre or witness note.  Rule 8 still
    searches for its point, which is the decision.
    """
    config = config or DEFAULT_CONFIG
    clock = _RuleClock(config.timeout)
    if q is None:
        q = MultiPoly.const(p.vars, 1)
    if p.is_zero():
        ident = h = None
        if p.vars and witness:
            ident = RationalMap.identity(p.vars)
            h = RationalFunction.from_poly(MultiPoly.zero(p.vars))
        return clock.verdict(RATIONALIZABLE, "radicand-reduction",
                             {"reduced": "0", "note": "sqrt(0) = 0 is rational"},
                             ident, h)
    try:
        f = clock.run("radicand-reduction", lambda: radicand_reduce(p, q))
        clock.step("radicand-reduction",
                   {"input": f"({poly_str(p)})/({poly_str(q)})",
                    "reduced": poly_str(f), "degree": f.total_degree()})
        return _decide_reduced(f, clock, config, witness)
    except (ResourceLimit, TowerTooDeep) as e:
        return clock.verdict(INCONCLUSIVE, "resource-limit", {"detail": str(e)})


def _decide_reduced(f, clock, config, witness):
    # rule 1: constant radicand
    if f.is_constant():
        m, h = _identity_witness(f) if witness else (None, None)
        return clock.verdict(RATIONALIZABLE, "constant-radicand",
                             {"value": poly_str(f)}, m, h)
    # rule 2: effective variables
    eff = effective_vars(f)
    if tuple(eff) != f.vars:
        clock.step("effective-variables", {"kept": eff})
        f = f.with_vars(tuple(eff))
    d = f.total_degree()
    # rule 3: degree <= 2
    if d <= 2:
        res = clock.run("degree-at-most-2",
                        lambda: quadric_witness(f, config.max_height)
                        if witness else None)
        data = {"degree": d}
        m = h = None
        if res is not None:
            m, h = res
            data["witness"] = m.to_json()
            data["square_root"] = rf_str(h)
        return clock.verdict(RATIONALIZABLE, "degree-at-most-2", data, m, h)
    # rule 4: even-degree homogeneous reduction
    if is_homogeneous(f) == d and d % 2 == 0:
        var = eff[-1]
        g = clock.run("homogeneous-reduction", lambda: dehomogenize(f, var))
        clock.step("homogeneous-reduction",
                   {"variable": var, "dehomogenized": poly_str(g),
                    "degree": g.total_degree()})
        inner = _decide_reduced(g, clock, config, witness)
        if inner.outcome == RATIONALIZABLE and inner.witness is not None:
            lifted = clock.run(
                "homogeneous-reduction",
                lambda: homogeneous_lift(inner.witness, f, var),
            )
            if lifted is not None:
                inner.witness, inner.witness_sqrt = lifted
            else:
                inner.witness = inner.witness_sqrt = None
        elif inner.outcome == RATIONALIZABLE:
            inner.witness = inner.witness_sqrt = None
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
        tp = clock.run("cubic-triple-point",
                       lambda: triple_point_of_cubic(model.F))
        if tp is not None and tp.chart > 0:
            return clock.verdict(NOT_RATIONALIZABLE, "cubic-triple-point",
                                 {"triple_point": tp.to_json(),
                                  "decides": "not rationalizable"})
        data = {"triple_point": None if tp is None else tp.to_json(),
                "decides": "rationalizable"}
        m = h = None
        if witness:
            m, h, pdata = _criterion_witness(model, f, clock)
            data.update(pdata)
        return clock.verdict(RATIONALIZABLE, "cubic-triple-point", data, m, h)
    # rule 7: bivariate, all-simple branch curve
    records = None
    if len(eff) == 2:
        ok, records = clock.run("simple-singularities", lambda: all_simple(model))
        data = {
            "degree": d,
            "branch_degree": model.B.total_degree(),
            "all_simple": ok,
            "milnor_sum": milnor_sum(records),
            "singularities": [r.to_json() for r in records],
        }
        if ok:
            outcome = RATIONALIZABLE if d <= 4 else NOT_RATIONALIZABLE
            m = h = None
            if outcome == RATIONALIZABLE and witness:
                m, h, pdata = _criterion_witness(model, f, clock, records)
                data.update(pdata)
            return clock.verdict(outcome, "simple-singularities", data, m, h,
                                 records)
        clock.step("simple-singularities", data)
    # rule 8: high-multiplicity point on the hypersurface closure
    V = model.V
    pt, certified, m, h, _note = _projection(model, f, clock, records,
                                             witness)
    if pt is not None:
        data = {"point": pt.to_json(), "hypersurface_degree": V.total_degree()}
        if m is not None:
            data["witness"] = m.to_json()
            data["square_root"] = rf_str(h)
        return clock.verdict(RATIONALIZABLE, "high-multiplicity-point", data,
                             m, h, records)
    # rule 9: inconclusive
    return clock.verdict(INCONCLUSIVE, "inconclusive",
                         {"high_mult_search_certified_empty": certified,
                          "hypersurface_degree": V.total_degree()},
                         records=records)


def _identity_witness(f):
    """Identity witness for a constant radicand, when it verifies."""
    if not f.vars:
        return None, None
    m = RationalMap.identity(f.vars)
    h = verify_witness(m, f)
    if h is None:
        return None, None
    return m, h


def _projection(model, f, clock, records=None, witness=True):
    """Find a point of multiplicity D - 1 on the hypersurface V, project
    from it when it is rational and `witness` asks for a map, and verify
    the map on f.  With the branch-curve records (two variables, degree
    >= 4) the candidates are read off them; otherwise V is searched.  The
    search, the projection and the verification all run under the
    high-multiplicity-point clock.

    Returns (point, certified_empty, map, square root, note): map and
    square root are None unless the witness verified, and the note says
    why not.
    """
    V = model.V
    pt, certified = clock.run(
        "high-multiplicity-point",
        lambda: high_mult_point_search(V) if records is None
        else centre_from_records(model, records))
    if pt is None:
        note = "existence by criterion; no projection centre found"
        return None, certified, None, None, note
    if pt.field is not None:
        note = "projection centre is not rational; witness omitted"
        return pt, certified, None, None, note
    if not witness:
        return pt, certified, None, None, "witness not asked for"

    def build():
        m = projection_witness(V, pt)
        return m, None if m is None else verify_witness(m, f)

    m, h = clock.run("high-multiplicity-point", build)
    if m is None:
        return pt, certified, None, None, "projection degenerated"
    if h is None:
        note = "candidate failed verification and was discarded"
        return pt, certified, None, None, note
    return pt, certified, m, h, None


def _criterion_witness(model, f, clock, records=None):
    """(map, square root, step data) of a projection witness for a verdict
    that a criterion has already given."""
    pt, _certified, m, h, note = _projection(model, f, clock, records)
    if m is None:
        return None, None, {"witness": None, "note": note}
    return m, h, {"witness": m.to_json(), "square_root": rf_str(h),
                  "projection_centre": pt.to_json()}

