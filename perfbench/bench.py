"""One benchmark run of one workload, in its own process.

Started by ``perfbench/run.py``, which pins BLAS/OpenMP threads to 1 and
puts ``src`` on ``PYTHONPATH`` before this process imports numpy.  Prints
detail lines, then one JSON result as the last line of standard output.

Untraced run (``--trace 0``): set-up is repeated and its median reported;
then whole passes run until ``--seconds`` would be exceeded (at least the
workload's minimum), and the end-to-end metrics are taken from them.

Traced run (``--trace 1``): pass 0 runs untraced, again with the tracer
installed, and untraced once more; all three must give byte-identical
outputs, and answers are checked with the tracer removed.  The per-layer
metrics come from the traced pass; spans are written to ``perfbench/out/``
when the run ends.
"""

from __future__ import annotations

import time

_T_START = time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gptlab  # noqa: E402
from gptlab.lp import _kernel  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

_IMPORT_S = time.process_time() - _T_START

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Untraced runs time on the process's CPU clock.  The workloads are one
# thread, so that is wall time less the time the CPU was taken away from the
# process: preemption by other processes, and hypervisor steal where Linux
# is built with paravirtual steal accounting.  Traced runs use the wall
# clock, as the tracer does, so that traced and untraced passes compare.
CLOCK = time.process_time

# The shared host's speed changes by 10-40% within seconds and minutes for
# the same work in the same process, more than a run can average out.  A
# fixed calibration unit of the kinds of work the workloads do (interpreter
# work, small numpy calls, 2 MiB matrix products, small-tableau pivots and
# rational arithmetic), which no change to gptlab can alter, is timed after
# set-up, before and after every pass and, within a pass, once for every
# CALIBRATION_EVERY_S of operations.  Each pass's times are scaled by
# CALIBRATION_REF_S / (median unit time during and around the pass), and
# set-up by the calibration after it, so the end-to-end times are in seconds
# of a host that runs the unit in CALIBRATION_REF_S.  The raw times are in
# the detail line.
CALIBRATION_REF_S = 0.012
CALIBRATION_UNITS = 5
# set-up is scaled by a longer calibration: back to back, two units' times
# can differ by a third
SETUP_CALIBRATION_UNITS = 25
CALIBRATION_EVERY_S = 0.25


@dataclass
class PassResult:
    wall: float
    labels: list
    latencies: list
    ok: list
    digests: list
    calibrations: list


def time_ops(ops: list, calibrate_every_s: float | None = None,
             clock=CLOCK) -> tuple:
    """Run the operations in order, timing each on ``clock``.

    With ``calibrate_every_s``, after each operation one calibration unit runs
    for every ``calibrate_every_s`` passed since the last ones, so the units
    sample the pass evenly in time however long its operations are; their
    time is left out of the pass's wall time.
    """
    outputs, errors, latencies, calibrations = [], [], [], []
    begin = last_calibration = clock()
    for op in ops:
        start = clock()
        try:
            out, err = op.run(), None
        except Exception as exc:  # a failing operation is counted, not fatal
            out, err = None, type(exc).__name__
        latencies.append(clock() - start)
        outputs.append(out)
        errors.append(err)
        if calibrate_every_s is not None:
            owed = int((clock() - last_calibration) / calibrate_every_s)
            if owed:
                calibrations += [_timed_unit() for _ in range(owed)]
                last_calibration = clock()
    wall = clock() - begin - sum(calibrations)
    return wall, latencies, outputs, errors, calibrations


def check_ops(ops: list, timed: tuple) -> PassResult:
    """Check the outputs of ``time_ops`` against the expected answers."""
    wall, latencies, outputs, errors, calibrations = timed
    ok, digests = [], []
    for op, out, err in zip(ops, outputs, errors):
        ok.append(err is None and bool(op.check(out)))
        digests.append(f"error:{err}" if err is not None else op.digest(out))
    return PassResult(wall, [op.label for op in ops], latencies, ok, digests, calibrations)


def run_pass(ops: list, calibrate_every_s: float | None = None, clock=CLOCK) -> PassResult:
    return check_ops(ops, time_ops(ops, calibrate_every_s, clock))


_CAL_SMALL = np.arange(81.0).reshape(9, 9)
_CAL_LARGE = np.arange(512.0 * 512.0).reshape(512, 512) / 512.0**2  # 2 MiB, past L2
_CAL_TABLEAU = np.linspace(1.0, 2.0, 40 * 80).reshape(40, 80)


def _calibration_unit() -> float:
    """The kinds of work the workloads do, none of it gptlab code:
    interpreter work, small numpy calls, cache-sized matrix products,
    pivots on a small tableau and rational arithmetic."""
    acc = 0.0
    exact = Fraction(0)
    tableau = _CAL_TABLEAU.copy()
    for i in range(400):
        acc += float((_CAL_SMALL @ _CAL_SMALL[i % 9]).sum())
        acc += sum({j: j * i for j in range(12)}.values())
        exact += Fraction(i + 1, 7) * Fraction(3, i % 13 + 2) - Fraction(i % 5, 11)
        if i % 4 == 0:
            row, col = i % 40, (7 * i) % 80
            tableau[row] /= 1.0 + abs(tableau[row, col])
            tableau -= 1e-3 * np.outer(tableau[:, col], tableau[row])
        if i % 28 == 0:
            acc += float((_CAL_LARGE @ _CAL_LARGE[i % 512]).sum())
    return acc + float(exact) + float(tableau.sum())


def _timed_unit() -> float:
    start = CLOCK()
    _calibration_unit()
    return CLOCK() - start


def calibrate(units: int = CALIBRATION_UNITS) -> list:
    """Times of a few calibration units, now."""
    return [_timed_unit() for _ in range(units)]


def environment() -> dict:
    return {
        "kernel": _kernel.KERNEL_NAME,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(HERE.parent),
        "gptlab": gptlab.__version__,
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile.

    A mean of all order statistics weighted by a beta(p(n+1), (1-p)(n+1))
    distribution.  When the operations of a pass are of many kinds, a single
    order statistic jumps between kinds from run to run; this estimate moves
    smoothly.  The incomplete beta integrals are taken numerically.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n == 1:
        return float(x[0])
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = max(4, 2**16 // n)  # grid points per order statistic
    t = (np.arange(steps * n) + 0.5) / (steps * n)
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))])[::steps]
    return float(np.diff(cdf) @ x / cdf[-1])


def median_ms_by_label(passes: list) -> dict:
    by_label: dict[str, list] = {}
    for p in passes:
        for label, lat in zip(p.labels, p.latencies):
            by_label.setdefault(label, []).append(lat)
    return {label: 1e3 * statistics.median(v) for label, v in sorted(by_label.items())}


def _timings(wl, passes: list, scales: list) -> dict:
    """wall, p50 and tail over the passes, each pass's times multiplied by its scale."""
    # latency of the successful operations; of all of them if none succeeded
    latencies = [lat * s for p, s in zip(passes, scales) for lat, ok in zip(p.latencies, p.ok) if ok]
    latencies = latencies or [lat * s for p, s in zip(passes, scales) for lat in p.latencies]
    return {
        "wall_s": hd_quantile([p.wall * s for p, s in zip(passes, scales)], 0.5),
        "op_p50_ms": 1e3 * hd_quantile(latencies, 0.5),
        "op_tail_ms": 1e3 * hd_quantile(latencies, wl.tail_pct / 100),
        "samples": len(latencies),
    }


def untraced_run(wl, prepared, seconds: float, setup_s: float) -> tuple[dict, list, dict]:
    first = calibrate(SETUP_CALIBRATION_UNITS)
    before = first[-CALIBRATION_UNITS:]
    passes: list[PassResult] = []
    scales: list[float] = []
    begin = time.perf_counter()
    while True:
        passes.append(run_pass(prepared.ops(len(passes)), CALIBRATION_EVERY_S))
        after = calibrate()
        units = before + passes[-1].calibrations + after
        scales.append(CALIBRATION_REF_S / statistics.median(units))
        before = after
        elapsed = time.perf_counter() - begin
        if len(passes) >= wl.min_passes and elapsed * (1 + 1 / len(passes)) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    timed = _timings(wl, passes, scales)
    raw = _timings(wl, passes, [1.0] * len(passes))
    setup_scale = CALIBRATION_REF_S / statistics.median(first)
    metrics = {
        "wall_s": _metric(timed["wall_s"], "s"),
        "setup_s": _metric(setup_s * setup_scale, "s"),
        "op_p50_ms": _metric(timed["op_p50_ms"], "ms"),
        "op_tail_ms": _metric(timed["op_tail_ms"], "ms"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    detail = {
        "passes": len(passes),
        "ops_per_pass": len(passes[0].labels),
        "timed_s": time.perf_counter() - begin,
        "latency_samples": timed["samples"],
        "tail_percentile": wl.tail_pct,
        "samples_beyond_tail": int(round(timed["samples"] * (1 - wl.tail_pct / 100))),
        "raw": {"wall_s": raw["wall_s"], "setup_s": setup_s, "op_p50_ms": raw["op_p50_ms"],
                "op_tail_ms": raw["op_tail_ms"]},
        "scales": scales,
        "pass_walls_s": [p.wall for p in passes],
        "median_ms_by_label": median_ms_by_label(passes),
    }
    return metrics, passes, detail


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced pass
# ---------------------------------------------------------------------------

PER_LAYER_UNITS = {
    "lp.calls": "count", "lp.iterations": "count", "lp.infeasible": "count",
    "lp.self_s": "s", "lp.kernel_calls": "count", "lp.kernel_s": "s", "lp.pivot_cells": "cells",
    "convex.contains_calls": "count", "convex.contains_s": "s",
    "convex.effect_range_calls": "count", "convex.effect_range_s": "s",
    "convex.validate_s": "s", "convex.self_s": "s",
    "discrimination.distinguishable_calls": "count",
    "discrimination.distinguishable_hits": "count",
    "discrimination.distinguishable_hit_ratio": "ratio",
    "discrimination.distinguishable_s": "s", "discrimination.capacity_calls": "count",
    "discrimination.capacity_s": "s", "discrimination.self_s": "s",
    "geometry.dd_calls": "count", "geometry.dd_s": "s", "geometry.dd_exact_calls": "count",
    "geometry.dd_exact_s": "s", "geometry.dd_rays_out": "count",
    "geometry.canonicalize_calls": "count", "geometry.canonicalize_rows_in": "count",
    "geometry.canonicalize_s": "s", "geometry.self_s": "s",
    "composites.compose_calls": "count", "composites.compose_s": "s",
    "composites.composite_vertices": "count", "composites.self_s": "s",
    "symmetry.transitivity_s": "s", "symmetry.strict_convexity_s": "s",
    "symmetry.face_extract_calls": "count", "symmetry.self_s": "s",
    "runner.build_space_s": "s", "runner.group_search_s": "s",
    "runner.P1_s": "s", "runner.P2_s": "s", "runner.P3_s": "s", "runner.P3C_s": "s",
    "runner.P4_s": "s", "runner.P4prime_s": "s", "runner.chsh_metric_s": "s",
    "runner.render_s": "s", "runner.self_s": "s",
    "harness.self_s": "s",
    "trace.spans": "count", "trace.overhead_frac": "ratio",
    "run.failed_frac": "ratio",
}


def per_layer(tracer: Tracer, passes: list) -> dict:
    """Metrics of the traced pass ``passes[1]``, between two untraced ones."""
    traced = passes[1]
    untraced_wall = statistics.mean([passes[0].wall, passes[2].wall])
    rows = tracer.summary()

    def calls(name):
        return rows.get(name, {}).get("calls", 0)

    def self_s(name):
        return rows.get(name, {}).get("self_s", 0.0)

    def count(name, which="count_a"):
        return rows.get(name, {}).get(which, 0)

    def layer_self(layer):
        return sum(r["self_s"] for n, r in rows.items() if n.rsplit(".", 1)[0] == layer)

    hits = count("discrimination.distinguishable")
    dcalls = calls("discrimination.distinguishable")
    n_ops = sum(len(p.ok) for p in passes)
    values = {
        "lp.calls": calls("lp.lp_solve"),
        "lp.iterations": count("lp.lp_solve"),
        "lp.infeasible": count("lp.lp_solve", "count_b"),
        "lp.self_s": layer_self("lp"),
        "lp.kernel_calls": calls("lp.kernel.run_pivots"),
        "lp.kernel_s": layer_self("lp.kernel"),
        "lp.pivot_cells": count("lp.kernel.run_pivots"),
        "convex.contains_calls": calls("convex.contains_state"),
        "convex.contains_s": self_s("convex.contains_state"),
        "convex.effect_range_calls": calls("convex.effect_range"),
        "convex.effect_range_s": self_s("convex.effect_range"),
        "convex.validate_s": self_s("convex.validate_space"),
        "convex.self_s": layer_self("convex"),
        "discrimination.distinguishable_calls": dcalls,
        "discrimination.distinguishable_hits": hits,
        "discrimination.distinguishable_hit_ratio": hits / dcalls if dcalls else 0.0,
        "discrimination.distinguishable_s": self_s("discrimination.distinguishable"),
        "discrimination.capacity_calls": calls("discrimination.capacity"),
        "discrimination.capacity_s": self_s("discrimination.capacity"),
        "discrimination.self_s": layer_self("discrimination"),
        "geometry.dd_calls": calls("geometry.dual_cone_rays"),
        "geometry.dd_s": self_s("geometry.dual_cone_rays"),
        "geometry.dd_exact_calls": calls("geometry.dual_cone_rays_exact"),
        "geometry.dd_exact_s": self_s("geometry.dual_cone_rays_exact"),
        "geometry.dd_rays_out": count("geometry.dual_cone_rays")
        + count("geometry.dual_cone_rays_exact"),
        "geometry.canonicalize_calls": calls("geometry.canonicalize_vertices"),
        "geometry.canonicalize_rows_in": count("geometry.canonicalize_vertices"),
        "geometry.canonicalize_s": self_s("geometry.canonicalize_vertices"),
        "geometry.self_s": layer_self("geometry"),
        "composites.compose_calls": calls("composites.compose"),
        "composites.compose_s": self_s("composites.compose"),
        "composites.composite_vertices": count("composites.compose"),
        "composites.self_s": layer_self("composites"),
        "symmetry.transitivity_s": self_s("symmetry.transitivity_check"),
        "symmetry.strict_convexity_s": self_s("symmetry.strict_convexity_check"),
        "symmetry.face_extract_calls": calls("symmetry.face_extract"),
        "symmetry.self_s": layer_self("symmetry"),
        "runner.build_space_s": self_s("runner.build_space"),
        "runner.group_search_s": self_s("runner.polytope_symmetry_group"),
        "runner.P1_s": self_s("runner._check_p1"),
        "runner.P2_s": self_s("runner._check_p2"),
        "runner.P3_s": self_s("runner._check_p3"),
        "runner.P3C_s": self_s("runner._check_p3c"),
        "runner.P4_s": self_s("runner._check_p4"),
        "runner.P4prime_s": self_s("runner._check_p4_prime"),
        "runner.chsh_metric_s": self_s("runner._chsh_metric"),
        "runner.render_s": self_s("runner.report_render"),
        "runner.self_s": layer_self("runner"),
        "harness.self_s": traced.wall - tracer.top_level_time(),
        "trace.spans": len(tracer.spans),
        "trace.overhead_frac": traced.wall / untraced_wall - 1.0,
        "run.failed_frac": sum(p.ok.count(False) for p in passes) / n_ops,
    }
    return {name: _metric(values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def traced_run(prepared, tag: str) -> tuple[dict, list, dict]:
    """Pass 0 untraced, traced, and untraced again; checks run untraced."""
    wall_clock = time.perf_counter
    untraced = run_pass(prepared.ops(0), clock=wall_clock)
    ops = prepared.ops(0)
    tracer = Tracer()
    tracer.install(extra_namespaces=[vars(workloads)])
    try:
        timed = time_ops(ops, clock=wall_clock)
    finally:
        tracer.uninstall()
    traced = check_ops(ops, timed)
    untraced_again = run_pass(prepared.ops(0), clock=wall_clock)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{tag}.json"
    tracer.dump(str(spans_path))
    detail = {
        "ops_per_pass": len(ops),
        "identical_outputs": traced.digests == untraced.digests == untraced_again.digests,
        "untraced_wall_s": [untraced.wall, untraced_again.wall],
        "traced_wall_s": traced.wall,
        "spans_file": str(spans_path.relative_to(HERE.parent)),
        "layers": {name: row for name, row in sorted(tracer.summary().items())},
    }
    passes = [untraced, traced, untraced_again]
    return per_layer(tracer, passes), passes, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--plant-wrong", action="store_true")
    args = parser.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    golden = workloads.load_golden()
    if args.plant_wrong:
        workloads.plant_wrong(golden)

    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        start = CLOCK()
        prepared = wl.setup(args.seed, args.tiny, golden)
        prepared.warmup()
        setup_times.append(CLOCK() - start)
    setup_s = _IMPORT_S + statistics.median(setup_times)

    tag = f"{args.workload}-seed{args.seed}"
    if args.trace:
        metrics, passes, detail = traced_run(prepared, tag)
        identical = detail["identical_outputs"]
    else:
        metrics, passes, detail = untraced_run(wl, prepared, args.seconds, setup_s)
        identical = True
    detail.update(
        workload=args.workload, seed=args.seed, trace=args.trace, tiny=args.tiny,
        import_s=_IMPORT_S, setup_runs_s=setup_times, environment=environment(),
    )

    attempted = sum(len(p.ok) for p in passes)
    failed_labels = [lab for p in passes for lab, ok in zip(p.labels, p.ok) if not ok]
    unexpected = sorted({lab for lab in failed_labels if lab not in prepared.known_failures})
    detail["failed_frac"] = len(failed_labels) / attempted
    detail["failed_ops"] = sorted(set(failed_labels))
    detail["unexpected_failures"] = unexpected
    result = {
        "correct": identical and not unexpected,
        "attempted": attempted,
        "failed": len(failed_labels),
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{tag}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
