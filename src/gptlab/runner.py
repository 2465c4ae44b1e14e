"""Theory definitions, postulate checking and structured reports.

A theory is a state space plus a group and a set of allowed effects, loaded
from a small JSON schema.  ``check_postulates`` runs the five postulate
probes (plus the continuity variant) against a composite partner and emits a
deterministic, serializable report; every Fail carries a witness that can be
replayed through the originating operation.  Loading searches no group: the
vertex group of an ``"auto"`` polytope is searched by ``check_postulates``,
the one reader of it, for capacity, P3 and P3C.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from gptlab.config import resolve_tol
from gptlab.errors import (
    BudgetExceededError,
    UnsupportedRepresentationError,
    ValidationError,
)
from gptlab.convex import (
    BallRep,
    PolytopeRep,
    QuantumRep,
    SimplexRep,
    StateSpace,
    cone_contains,
    contains_effect,
    extremal_effects,
    two_outcome,
    validate_space,
    vertices_of,
)
from gptlab.composites import (
    MAX_TENSOR,
    MIN_TENSOR,
    Composite,
    chsh_value,
    compose,
    local_tomography_check,
)
from gptlab.discrimination import (
    CapacityResult,
    admissible_bit_dimensions,
    capacity,
    fit_capacity_exponent,
)
from gptlab.models import (
    classical,
    gbit_ball,
    quantum,
    square_gbit,
    square_measurements,
)
from gptlab.symmetry import (
    FiniteMatrixGroup,
    _vertex_table,
    continuity_check,
    is_g2_exception,
    polytope_symmetry_group,
    strict_convexity_check,
    transitivity_check,
    two_bit_face_dimension_test,
)

PASS = "pass"
FAIL = "fail"
PROBES_PASS = "probes_pass"
INDETERMINATE = "indeterminate"

POSTULATE_KEYS = ("P1", "P2", "P3", "P3C", "P4", "P4prime")

CAPACITY_EXHAUSTED = "capacity search budget exhausted"
BUDGET_EXHAUSTED = "budget exhausted: "


# ---------------------------------------------------------------------------
# Theory definitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoryDefinition:
    """Parsed theory: space family/parameters, group spec, allowed effects."""

    name: str
    space_spec: dict
    group_spec: dict = field(default_factory=lambda: {"kind": "auto"})
    allowed_effects: object = "all"  # "all" or an array of functionals

    def build(self) -> StateSpace:
        return build_space(self)


def _spec_field(spec: dict, key: str, what: str):
    if key not in spec:
        raise ValidationError(f"{what} needs a {key!r} field")
    return spec[key]


def _int_field(spec: dict, key: str, what: str) -> int:
    value = _spec_field(spec, key, what)
    # bool is an int subclass; a float or string would be truncated by int()
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValidationError(f"{what} field {key!r} must be an integer, got {value!r}")
    return int(value)


def _float_array(value, what: str) -> np.ndarray:
    """``value`` as a float array; JSON's NaN and Infinity are rejected."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be numbers: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} must be finite numbers")
    return arr


def build_space(td: TheoryDefinition) -> StateSpace:
    """Construct and validate the state space described by a definition.

    Nothing is searched here.  A built-in family keeps its own group, and a
    ``"finite"`` group is checked against the vertices.  A polytope with
    group kind ``"auto"`` is built without a group: ``check_postulates``,
    which reads it, searches it, and ``capacity`` searches vertex
    symmetries only when they can save an LP.  Another caller that wants
    the group calls ``polytope_symmetry_group(space.rep.vertices)``."""
    spec = td.space_spec
    family = spec.get("family")
    kind = td.group_spec.get("kind", "auto")
    if kind not in ("auto", "finite"):
        raise ValidationError(f"unknown group kind {kind!r}")
    if family == "classical":
        space = classical(_int_field(spec, "N", family))
    elif family == "ball":
        space = gbit_ball(_int_field(spec, "d", family))
    elif family == "square":
        space = square_gbit()
    elif family == "quantum":
        space = quantum(_int_field(spec, "N", family))
    elif family == "polytope":
        verts = _float_array(_spec_field(spec, "vertices", family), "polytope vertices")
        if verts.ndim != 2 or verts.size == 0:
            raise ValidationError("polytope vertices must be a non-empty list of rows")
        space = StateSpace(name=td.name, rep=PolytopeRep.with_facets(verts))
        validate_space(space)
    else:
        raise ValidationError(f"unknown space family {family!r}")
    if kind == "finite":
        # explicit matrices replace the family's canonical group; they are
        # checked here as permutations of a vertex list, which P3 and
        # capacity read
        try:
            verts = vertices_of(space)
        except UnsupportedRepresentationError:
            raise ValidationError(
                f"{space.name}: group kind {kind!r} needs a vertex list, and this "
                f"{family} space has none (use kind 'auto')"
            ) from None
        matrices = _float_array(_spec_field(td.group_spec, "matrices", "finite group"),
                                "group matrices")
        perms = _vertex_table(verts, matrices, resolve_tol(None))
        space = replace(space, group=FiniteMatrixGroup(matrices, perms=perms))
    if not _all_effects_allowed(td.allowed_effects):
        allowed = np.atleast_2d(_float_array(td.allowed_effects, "allowed effects"))
        for f in allowed:
            if not contains_effect(space, f):
                raise ValidationError("allowed effect outside [0, 1] on the state space")
    return space


def _all_effects_allowed(allowed) -> bool:
    return isinstance(allowed, str) and allowed == "all"


def theory_from_dict(data: dict) -> TheoryDefinition:
    if not isinstance(data, dict) or not isinstance(data.get("space"), dict):
        raise ValidationError("theory JSON must contain a 'space' object")
    group = data.get("group", {"kind": "auto"})
    if not isinstance(group, dict):
        raise ValidationError("theory JSON 'group' must be an object")
    allowed = data.get("allowed_effects", "all")
    if not _all_effects_allowed(allowed):
        allowed = _float_array(allowed, "allowed effects")
    return TheoryDefinition(
        name=str(data.get("name", "unnamed")),
        space_spec=dict(data["space"]),
        group_spec=dict(group),
        allowed_effects=allowed,
    )


def load_json(path: str):
    """Parse a JSON file; an unreadable file or malformed JSON is a ValidationError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON in {path}: {exc}") from exc


def load_theory(path: str) -> TheoryDefinition:
    return theory_from_dict(load_json(path))


# ---------------------------------------------------------------------------
# Deterministic JSON writer (17 significant digits, sorted keys)
# ---------------------------------------------------------------------------

def dump_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if value != value or value in (float("inf"), float("-inf")):
            raise ValidationError("non-finite float in report")
        return format(value, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return dump_json(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join("  " * (indent + 1) + dump_json(v, indent + 1) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            items.append(
                "  " * (indent + 1) + json.dumps(str(key)) + ": " + dump_json(obj[key], indent + 1)
            )
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise ValidationError(f"cannot serialize {type(obj)!r}")


# ---------------------------------------------------------------------------
# Postulate report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PostulateReport:
    theory: str
    partner: str | None
    rule: str
    seed: int
    tolerance: float
    metrics: dict
    postulates: dict

    def to_dict(self) -> dict:
        return {
            "theory": self.theory,
            "partner": self.partner,
            "rule": self.rule,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "metrics": self.metrics,
            "postulates": self.postulates,
        }

    @staticmethod
    def from_dict(data: dict) -> "PostulateReport":
        return PostulateReport(
            theory=data["theory"],
            partner=data["partner"],
            rule=data["rule"],
            seed=int(data["seed"]),
            tolerance=float(data["tolerance"]),
            metrics=dict(data["metrics"]),
            postulates={k: dict(v) for k, v in data["postulates"].items()},
        )

    @property
    def any_budget_exhausted(self) -> bool:
        # an indeterminate status for another reason, such as P2's missing
        # reference space, is not a budget running out
        return any(
            entry.get("status") == INDETERMINATE
            and (entry.get("reason") == CAPACITY_EXHAUSTED
                 or str(entry.get("reason")).startswith(BUDGET_EXHAUSTED))
            for entry in self.postulates.values()
        )


def report_render(report: PostulateReport, format: str = "json") -> str:
    """Deterministic serialization; the JSON form round-trips exactly."""
    if format == "json":
        return dump_json(report.to_dict()) + "\n"
    if format == "md":
        lines = [
            f"# Postulate report: {report.theory}",
            "",
            f"- partner: {report.partner or report.theory}",
            f"- composite rule: {report.rule}",
            f"- seed: {report.seed}, tolerance: {report.tolerance:g}",
            "",
            "| postulate | status | detail |",
            "|---|---|---|",
        ]
        for key in POSTULATE_KEYS:
            entry = report.postulates[key]
            detail = entry.get("reason") or ("witness attached" if entry.get("witness") else "")
            lines.append(f"| {key} | {entry['status']} | {detail} |")
        lines.append("")
        lines.append("## Metrics")
        lines.append("")
        for key in sorted(report.metrics):
            lines.append(f"- {key}: {report.metrics[key]}")
        lines.append("")
        return "\n".join(lines)
    raise ValidationError(f"unknown report format {format!r}")


def report_parse(text: str) -> PostulateReport:
    return PostulateReport.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Individual postulate probes
# ---------------------------------------------------------------------------

def _status(status: str, witness=None, reason: str | None = None) -> dict:
    entry: dict = {"status": status}
    if witness is not None:
        entry["witness"] = witness
    if reason is not None:
        entry["reason"] = reason
    return entry


def _check_p1(space: StateSpace, partner: StateSpace) -> dict:
    # product states span V_A ⊗ V_B, under either rule, iff each part's
    # states span its own space; no composite is built
    if local_tomography_check(Composite(space, partner, MIN_TENSOR, space=None)):
        return _status(PASS)
    return _status(FAIL, witness={"expected_dim": space.ambient_dim * partner.ambient_dim - 1})


def _check_p2(space: StateSpace, cap: CapacityResult, tol: float) -> dict:
    if not cap.exact:
        return _status(INDETERMINATE, reason=CAPACITY_EXHAUSTED)
    n = cap.n
    if n == 1:
        return _status(PROBES_PASS, reason="trivial state space")
    if not isinstance(space.rep, PolytopeRep):
        # by theorem: every face of a simplex is a simplex, every face of
        # quantum(N) is quantum(m), and every proper exposed face of a ball
        # is a single point
        return _status(PROBES_PASS)
    if n > 2:
        return _status(INDETERMINATE, reason="no reference state space of capacity N-1")
    # Every two-outcome measurement attaining {0, 1} is complete, so each
    # exposed face must contain a single state.
    effects = extremal_effects(space, tol=tol)
    values = vertices_of(space) @ effects.T  # one column per effect
    sizes = np.sum(values >= 1.0 - tol, axis=0)
    bad = np.nonzero((values.min(axis=0) <= tol) & (sizes > 1))[0]
    if bad.size:
        return _status(
            FAIL,
            witness={
                "effect": effects[bad[0]].tolist(),
                "face_extreme_points": int(sizes[bad[0]]),
                "required": 1,
            },
            reason="a complete-measurement face has more than one state",
        )
    return _status(PROBES_PASS)


def _check_p3(space: StateSpace, tol: float) -> dict:
    result = transitivity_check(space, tol=tol)
    if result.transitive:
        return _status(PASS)
    return _status(FAIL, witness={"stranded_state": result.stranded.tolist()})


def _check_p3c(space: StateSpace) -> dict:
    if continuity_check(space):
        return _status(PASS)
    kind = type(space.group).__name__
    return _status(FAIL, witness={"group_kind": kind},
                   reason="no continuous family achieves the required transitions")


def _check_p4(space: StateSpace, allowed_effects, tol: float) -> dict:
    if _all_effects_allowed(allowed_effects):
        # Definitional for built-in theories: every functional with values in
        # [0, 1] is declared an allowed measurement outcome.
        return _status(PASS)
    allowed = np.atleast_2d(np.asarray(allowed_effects, dtype=float))
    if not isinstance(space.rep, (PolytopeRep, SimplexRep)):
        return _status(
            INDETERMINATE,
            reason="restricted effect list on a continuous space: only listed effects checked",
        )
    # f is in the convex hull of the allowed effects iff (f, 1) is in the cone
    # of the rows (a_i, 1)
    hull_rows = np.column_stack([allowed, np.ones(allowed.shape[0])])
    for f in extremal_effects(space, tol=tol):
        if not cone_contains(hull_rows, np.append(f, 1.0), tol):
            return _status(
                FAIL,
                witness={"missing_extremal_effect": f.tolist()},
                reason="extremal functional not reachable from the allowed effects",
            )
    return _status(PASS)


def _check_p4_prime(space: StateSpace) -> dict:
    """Every non-interior state has a perfectly distinguishable partner, by
    theorem on every family.  On a ball it is the antipode, in quantum theory
    an orthogonal pure state.  On a polytope with two or more vertices, a
    vertex v is the unique maximum over the vertices of some affine f, so
    e = (f - min f) / (max f - min f) is an effect with e(v) = 1 and
    e(w) = 0 at a vertex w where f is least.  A boundary state on a facet
    h >= 0 gets e = 1 - h / max h in the same way.  Quantum(1) and a
    one-vertex polytope are a single state and have no boundary."""
    rep = space.rep
    if isinstance(rep, BallRep):
        return _status(PASS)
    single = rep.n == 1 if isinstance(rep, QuantumRep) else vertices_of(space).shape[0] == 1
    return _status(PASS, reason="no non-interior states" if single else None)


def _canonical_binary_measurements(space: StateSpace):
    """Two distinguished two-outcome measurements for CHSH metrics, when natural."""
    rep = space.rep
    if isinstance(rep, PolytopeRep) and space.ambient_dim == 3:
        candidates = list(square_measurements())
        for m in candidates:
            if not all(contains_effect(space, e) for e in m.effects):
                return None  # the fiducial readouts are not effects of this polytope
        return candidates
    if isinstance(rep, SimplexRep) and rep.n >= 2:
        m = two_outcome(np.eye(space.ambient_dim)[1])
        return [m, m]
    return None


def _chsh_metric(space: StateSpace, partner: StateSpace, rule: str,
                 tol: float) -> float | None:
    """CHSH of the fiducial readouts, the maximum over the composite's
    vertices; None where a part has no such readouts: balls, quantum
    systems, classical(1) and polytopes whose coordinates do not fit them.

    Two simplices score 2 with no composite and no readouts built, or None
    when one is classical(1).  Max = min for classical parts,
    so under either rule the composite is the simplex of products.  Both
    settings are the one measurement {e_1, u − e_1}, so CHSH = 2|⟨α⊗β⟩| ≤ 2
    for its ±1 observables α and β, and the product of the two level-1
    vertices reaches 2.  Only a pair with a polytope part is composed: the
    square under either rule, or a simplex with a square-fiducial partner."""
    if isinstance(space.rep, SimplexRep) and isinstance(partner.rep, SimplexRep):
        return 2.0 if min(space.rep.n, partner.rep.n) >= 2 else None
    ma = _canonical_binary_measurements(space)
    mb = _canonical_binary_measurements(partner)
    if ma is None or mb is None:
        return None
    try:
        comp = compose(space, partner, rule, tol=tol)
    except UnsupportedRepresentationError:
        return None
    return float(np.max(chsh_value(comp, vertices_of(comp.space), ma, mb)))


def _metric(fn, *args):
    """A metric's value, or None when computing it runs out of budget."""
    try:
        return fn(*args)
    except BudgetExceededError:
        return None


# ---------------------------------------------------------------------------
# Main entry point
# ---------------------------------------------------------------------------

def check_postulates(theory: TheoryDefinition, partner: TheoryDefinition | None = None,
                     rule: str = MIN_TENSOR, seed: int = 0,
                     tol: float | None = None) -> PostulateReport:
    """Run all postulate probes for a theory (composite checks against
    ``partner``, which defaults to the theory itself).  ``seed`` is only
    recorded in the report: no probe draws random numbers.

    The vertex group of an ``"auto"`` polytope is searched here, once, and
    ``capacity`` (through its ``perms``), P3 and P3C read it; the partner's
    group is never read, so it is not searched.  A search past
    SYMMETRY_NODE_BUDGET leaves P3 and P3C indeterminate with the budget
    reason, and every other entry is filled; ``capacity`` then runs
    without a group and searches vertex symmetries only where they save
    an LP.  If a mark can save an LP before the ⌊β⌋ bound ends its search,
    that is the same search again, and it runs past the same budget."""
    if rule not in (MIN_TENSOR, MAX_TENSOR):
        raise ValueError(f"unknown composition rule {rule!r}")
    tol = resolve_tol(tol)
    space = build_space(theory)
    search_error = None
    if space.group is None:  # an "auto" polytope
        try:
            space = replace(space, group=polytope_symmetry_group(space.rep.vertices))
        except BudgetExceededError as exc:
            search_error = exc  # capacity runs without the group
    partner_space = build_space(partner) if partner is not None else space

    cap = capacity(space, tol=tol)
    postulates: dict[str, dict] = {}

    def exhausted(exc: BudgetExceededError) -> dict:
        return _status(INDETERMINATE, reason=f"{BUDGET_EXHAUSTED}{exc}")

    def run(key: str, fn, *args) -> None:
        try:
            postulates[key] = fn(*args)
        except BudgetExceededError as exc:
            postulates[key] = exhausted(exc)

    run("P1", _check_p1, space, partner_space)
    run("P2", _check_p2, space, cap, tol)
    if search_error is None:
        run("P3", _check_p3, space, tol)
        run("P3C", _check_p3c, space)
    else:  # the two entries that read the group
        postulates["P3"] = exhausted(search_error)
        postulates["P3C"] = exhausted(search_error)
    run("P4", _check_p4, space, theory.allowed_effects, tol)
    run("P4prime", _check_p4_prime, space)

    k = space.ambient_dim
    metrics: dict = {
        "K": k,
        "N": cap.n,
        "capacity_exact": cap.exact,
        "r": fit_capacity_exponent([(cap.n, k)]) if cap.n is not None else None,
        "strictly_convex": _metric(lambda: bool(strict_convexity_check(space, tol=tol))),
        "bit_dimension": None,
        "bit_dimension_admissible": None,
        "g2_exception": None,
        "chsh_max": _metric(_chsh_metric, space, partner_space, rule, tol),
    }
    if cap.n == 2:
        d = k - 1
        metrics["bit_dimension"] = d
        metrics["bit_dimension_admissible"] = bool(
            d in admissible_bit_dimensions(max(1, d.bit_length()))
            and two_bit_face_dimension_test(d)
        )
        metrics["g2_exception"] = is_g2_exception(d)

    return PostulateReport(
        theory=theory.name,
        partner=partner.name if partner is not None else None,
        rule=rule,
        seed=seed,
        tolerance=tol,
        metrics=metrics,
        postulates=postulates,
    )
