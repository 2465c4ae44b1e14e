#!/usr/bin/env python3
"""gptlab benchmark: one command, four workloads, every metric by name and unit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: check_corpus, capacity_ns, compose_max, membership (see
perfbench/NOTES.md).  With ``--trace 0`` the last line of standard output is
a JSON object with the end-to-end metrics; with ``--trace 1`` it has the
per-layer metrics of a traced pass.

Each run is a fresh process with BLAS/OpenMP threads pinned to 1; the
package is imported from ``src`` of the checkout, so nothing is installed.
``--tiny`` runs a few operations per workload (used by perfbench/smoke.py);
``--plant-wrong`` corrupts one golden answer per workload to show that a
wrong answer is counted as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def expected_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit that a run must print, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def valid_result(line: str, trace: int) -> str | None:
    """None when ``line`` is a well-formed result, else the reason it is not."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "last line is not JSON"
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int):
        return "failed must be a whole number"
    metrics = result["metrics"]
    want = expected_metrics(trace)
    if set(metrics) != set(want):
        return f"metric names differ: {sorted(set(metrics) ^ set(want))}"
    for name, unit in want.items():
        if metrics[name].get("unit") != unit:
            return f"{name}: unit {metrics[name].get('unit')!r}, expected {unit!r}"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--plant-wrong", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "gptlab" / "__init__.py").is_file():
        print(f"gptlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, str(HERE / "bench.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    cmd += ["--tiny"] if args.tiny else []
    cmd += ["--plant-wrong"] if args.plant_wrong else []
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        print(f"{args.workload}: run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"{args.workload}: run failed with code {child.returncode}", file=sys.stderr)
        return 1
    problem = valid_result(lines[-1], args.trace)
    if problem is not None:
        print("\n".join(lines[:-1]))
        print(f"{args.workload}: malformed result: {problem}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
