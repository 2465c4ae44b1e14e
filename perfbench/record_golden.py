#!/usr/bin/env python3
"""Record the golden answers the benchmark checks against (perfbench/golden.json).

Run once per accepted change of expected output, from the root of a checkout:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/record_golden.py

It takes a few minutes, because it also runs the cases too long for a
benchmark run: the full capacity search of the 24-vertex no-signalling
polytope (N = 4, exact, verified witness) and the max-tensor squares of the
cube (1408 vertices) and the octahedron (684 vertices).

Recorded:
- check_corpus: per theory and rule, postulate statuses and the N and K
  metrics, which must agree on every recording seed, and the SHA-256 of the
  full JSON report for the default seed.  Operations that raise are listed as
  known failures; for classical(4..6), which raise today, the expectation is
  the classical(3) pattern with N = K = the level count.
- capacity_ns: N for every two-facet face of the no-signalling polytope.
- compose_max: the vertex count of every composed pair.
- membership: distinguishability of every vertex pair of the no-signalling
  polytope, in the benchmark's own canonical vertex order.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import time
from itertools import combinations

import numpy as np

from gptlab.composites import compose
from gptlab.convex import PolytopeRep, StateSpace
from gptlab.discrimination import capacity, distinguishable, verify_witness
from gptlab.lp import _kernel
from gptlab.runner import build_space, check_postulates, report_render

import workloads as W

RECORD_SEEDS = (0, 1, 2)


def record_check_corpus() -> dict:
    theories: dict[str, dict] = {}
    known: list[str] = []
    for name, rule in W.CORPUS_OPS:
        key = f"{name}|{rule}"
        td = W.corpus_theory(name)
        seen = set()
        digest = None
        try:
            for seed in RECORD_SEEDS:
                text = report_render(check_postulates(td, rule=rule, seed=seed), "json")
                report = json.loads(text)
                statuses = {k: v["status"] for k, v in report["postulates"].items()}
                seen.add(json.dumps(
                    [statuses, report["metrics"]["N"], report["metrics"]["K"]], sort_keys=True
                ))
                if seed == W.GOLDEN_SEED:
                    digest = hashlib.sha256(text.encode()).hexdigest()
        except Exception as exc:  # recorded as a known failure
            print(f"  {key}: {type(exc).__name__}: {exc}", flush=True)
            known.append(key)
            continue
        if len(seen) != 1:
            raise SystemExit(f"{key}: statuses depend on the seed: {seen}")
        statuses, n, k = json.loads(seen.pop())
        theories[key] = {"statuses": statuses, "N": n, "K": k, "digest": digest}
    for key in known:
        name, rule = key.split("|")
        level = int(name[len("classical("):-1])
        pattern = theories[f"classical(3)|{rule}"]
        theories[key] = {"statuses": pattern["statuses"], "N": level, "K": level,
                         "derived_from": f"classical(3)|{rule}"}
    return {"theories": theories, "known_failures": known}


def record_capacity_ns() -> dict:
    ns = W.no_signalling_polytope()
    start = time.perf_counter()
    full = capacity(ns, lp_budget=100_000)
    full_s = time.perf_counter() - start
    print(f"  full no-signalling polytope: N={full.n} in {full_s:.1f} s", flush=True)
    verts = W.canonical_vertices(ns)
    faces = {}
    for (a, b), idx in sorted(W.ns_two_facet_faces(verts).items()):
        space = StateSpace(name=f"ns-face-{a}-{b}", rep=PolytopeRep(verts[idx]))
        result = capacity(space, lp_budget=100_000)
        if not (result.exact and verify_witness(space, result.witness)):
            raise SystemExit(f"face {a}-{b}: capacity not exact or witness not verified")
        faces[f"{a}-{b}"] = result.n
    return {
        "faces": faces,
        "full_ns": {
            "N": full.n,
            "exact": full.exact,
            "verified": bool(verify_witness(ns, full.witness)),
            "seconds": round(full_s, 1),
        },
    }


def record_compose_max() -> dict:
    counts = {}
    pairs = list(W.COMPOSE_MENU) + list(W.TINY_COMPOSE_MENU) + W.GOLDEN_ONLY_PAIRS
    for a, b in dict.fromkeys(pairs):
        start = time.perf_counter()
        comp = compose(build_space(W.corpus_theory(a)), build_space(W.corpus_theory(b)), "max")
        counts[f"{a}|{b}"] = int(comp.space.rep.vertices.shape[0])
        print(f"  {a}|{b}: {counts[f'{a}|{b}']} in {time.perf_counter() - start:.1f} s", flush=True)
    return counts


def record_membership() -> dict:
    ns = W.no_signalling_polytope()
    verts = W.canonical_vertices(ns)
    pairs = list(combinations(range(len(verts)), 2))
    labels = "".join(
        "1" if distinguishable(ns, verts[[i, j]]) is not None else "0" for i, j in pairs
    )
    return {"ns": {"n_vertices": len(verts), "pairs": [list(p) for p in pairs],
                   "labels": labels}}


def main() -> None:
    golden = {
        "recorded_with": {
            "kernel": _kernel.KERNEL_NAME,
            "numpy": np.__version__,
            "python": platform.python_version(),
        }
    }
    for name, fn in (("check_corpus", record_check_corpus), ("capacity_ns", record_capacity_ns),
                     ("compose_max", record_compose_max), ("membership", record_membership)):
        start = time.perf_counter()
        print(f"{name} ...", flush=True)
        golden[name] = fn()
        print(f"{name} done in {time.perf_counter() - start:.1f} s", flush=True)
    with open(W.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {W.GOLDEN_PATH}")


if __name__ == "__main__":
    sys.exit(main())
