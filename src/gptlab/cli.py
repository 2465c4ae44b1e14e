"""Command-line interface: check, capacity, compose, chsh, report.

Exit codes: 0 completed run, 2 validation error, 3 budget exhaustion.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from gptlab import config
from gptlab.errors import (
    BudgetExceededError,
    GptError,
    UnsupportedRepresentationError,
    ValidationError,
)
from gptlab.composites import MAX_TENSOR, MIN_TENSOR, Composite, chsh_value, compose
from gptlab.convex import (
    Measurement,
    PolytopeRep,
    StateSpace,
    contains_state,
    validate_space,
    vertices_of,
)
from gptlab.discrimination import capacity
from gptlab.runner import (
    PostulateReport,
    _float_array,
    build_space,
    check_postulates,
    dump_json,
    load_json,
    load_theory,
    report_render,
    theory_from_dict,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


def cmd_check(args) -> int:
    theory = load_theory(args.theory)
    partner = load_theory(args.partner) if args.partner else None
    report = check_postulates(
        theory, partner=partner, rule=args.rule, seed=args.seed
    )
    print(report_render(report, format=args.format), end="")
    return EXIT_BUDGET if report.any_budget_exhausted else EXIT_OK


def cmd_capacity(args) -> int:
    theory = load_theory(args.theory)
    result = capacity(build_space(theory))
    out = {
        "theory": theory.name,
        "capacity": result.n,
        "exact": result.exact,
        "lower_bound": result.lower_bound,
    }
    print(dump_json(out))
    return EXIT_OK if result.exact else EXIT_BUDGET


def _composite_to_dict(comp: Composite, a_dict: dict, b_dict: dict, name: str) -> dict:
    if comp.space is None:
        raise UnsupportedRepresentationError("composite has no finite vertex list to serialize")
    return {
        "name": name,
        "rule": comp.rule,
        "parts": [a_dict, b_dict],
        "k_a": comp.k_a,
        "k_b": comp.k_b,
        "vertices": vertices_of(comp.space).tolist(),
    }


def _composite_from_dict(data: dict) -> Composite:
    parts = data.get("parts")
    if not parts or len(parts) != 2:
        raise ValidationError("composite JSON must list its two parts")
    part_a = build_space(theory_from_dict(parts[0]))
    part_b = build_space(theory_from_dict(parts[1]))
    rule = data.get("rule")
    if rule not in (MIN_TENSOR, MAX_TENSOR):
        raise ValidationError(f"composite rule must be 'min' or 'max', got {rule!r}")
    dims = (part_a.ambient_dim, part_b.ambient_dim)
    if (data.get("k_a"), data.get("k_b")) != dims:
        raise ValidationError(f"composite k_a, k_b must be its parts' dimensions {dims}")
    k = dims[0] * dims[1]
    verts = _float_array(data["vertices"], "composite vertices")
    if verts.ndim != 2 or verts.shape[1] != k:
        raise ValidationError(f"composite vertices must be rows of length k_a * k_b = {k}")
    space = StateSpace(name=data.get("name", "composite"), rep=PolytopeRep.with_facets(verts))
    validate_space(space)
    return Composite(part_a, part_b, rule, space)


def cmd_compose(args) -> int:
    a_dict = load_json(args.a)
    b_dict = load_json(args.b)
    part_a = build_space(theory_from_dict(a_dict))
    part_b = build_space(theory_from_dict(b_dict))
    comp = compose(part_a, part_b, args.rule)
    name = f"{args.rule}({part_a.name},{part_b.name})"
    payload = _composite_to_dict(comp, a_dict, b_dict, name)
    text = dump_json(payload) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    else:
        print(text, end="")
    return EXIT_OK


def _parse_settings(data: dict) -> tuple[list[Measurement], list[Measurement]]:
    try:
        a = [Measurement(_float_array(m, "CHSH settings")) for m in data["A"]]
        b = [Measurement(_float_array(m, "CHSH settings")) for m in data["B"]]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"settings JSON must contain 'A' and 'B' measurement lists: {exc}")
    if len(a) != 2 or len(b) != 2:
        raise ValidationError("CHSH needs exactly two settings per side")
    return a, b


def cmd_chsh(args) -> int:
    comp = _composite_from_dict(load_json(args.composite))
    a_meas, b_meas = _parse_settings(load_json(args.settings))
    if args.state:
        state = _float_array(load_json(args.state)["state"], "state")
        if not contains_state(comp.space, state):
            raise ValidationError("state is not in the composite state space")
        value = chsh_value(comp, state, a_meas, b_meas)
        print(dump_json({"chsh": value}))
        return EXIT_OK
    verts = vertices_of(comp.space)
    values = chsh_value(comp, verts, a_meas, b_meas)
    best = int(np.argmax(values))  # the first vertex attaining the maximum
    print(dump_json({"chsh_max": float(values[best]), "argmax_vertex": verts[best].tolist()}))
    return EXIT_OK


def cmd_report(args) -> int:
    report = PostulateReport.from_dict(load_json(args.report))
    print(report_render(report, format=args.format), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gptlab",
        description="Convex state spaces, composites and postulate checks.",
    )
    parser.add_argument("--tol", type=float, default=None, help="run-wide numeric tolerance")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the postulate checker on a theory")
    p.add_argument("theory")
    p.add_argument("--partner", default=None)
    p.add_argument("--rule", choices=["min", "max"], default="min")
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the report; the checks draw no random numbers")
    p.add_argument("--format", choices=["json", "md"], default="json")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("capacity", help="compute the capacity of a theory")
    p.add_argument("theory")
    p.set_defaults(fn=cmd_capacity)

    p = sub.add_parser("compose", help="build a composite state space")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--rule", choices=["min", "max"], required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("chsh", help="evaluate CHSH on a composite")
    p.add_argument("composite")
    p.add_argument("--settings", required=True)
    p.add_argument("--state", default=None)
    p.set_defaults(fn=cmd_chsh)

    p = sub.add_parser("report", help="re-render a saved report")
    p.add_argument("report")
    p.add_argument("--format", choices=["json", "md"], default="md")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    previous_tol = config.get_tol()
    if args.tol is not None:
        try:
            config.set_tol(args.tol)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    try:
        return args.fn(args)
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (GptError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    finally:
        config.set_tol(previous_tol)


if __name__ == "__main__":
    sys.exit(main())
