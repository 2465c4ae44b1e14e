#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny size; takes well under a minute.

For every workload it checks that:
- an untraced and a traced run print every metric of BENCHMARK.json with its
  unit, and report correct answers (check_corpus also counts its known
  classical(4) failure);
- two traced runs with the same seed give identical counts;
- the layer separation holds: no LP on compose_max, no double description
  on capacity_ns and membership;
- a planted wrong golden answer shows up as failed_frac > 0.

Usage, from the root of a checkout: python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("check_corpus", "capacity_ns", "compose_max", "membership")
COUNT_UNITS = {"count", "cells"}


def run(workload: str, trace: int, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = run(workload, trace)
            printed = {name: m["unit"] for name, m in got["metrics"].items()}
            assert printed == want, f"{workload} trace={trace}: {printed} != {want}"
            assert got["correct"], f"{workload} trace={trace}: incorrect answers"
            if workload == "check_corpus":
                assert got["failed"] >= 1, "classical(4) should count as failed"
            else:
                assert got["failed"] == 0, f"{workload}: {got['failed']} failed"

        first, second = run(workload, 1), run(workload, 1)
        counts = {n: m["value"] for n, m in first["metrics"].items() if m["unit"] in COUNT_UNITS}
        again = {n: m["value"] for n, m in second["metrics"].items() if m["unit"] in COUNT_UNITS}
        assert counts == again, f"{workload}: traced counts differ between runs"
        if workload == "compose_max":
            assert counts["lp.calls"] == 0, "compose_max ran an LP"
        if workload in ("capacity_ns", "membership"):
            dd = counts["geometry.dd_calls"] + counts["geometry.dd_exact_calls"]
            assert dd == 0, f"{workload} ran double description in its timed phase"

        planted = run(workload, 0, "--plant-wrong")
        assert planted["failed"] / planted["attempted"] > 0, f"{workload}: planted error missed"
        assert not planted["correct"], f"{workload}: planted error reported as correct"
        print(f"{workload}: ok")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
