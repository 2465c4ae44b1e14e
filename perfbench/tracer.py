"""Outside-in span tracer for the gptlab package.

The tracer wraps chosen module-level functions of ``gptlab`` from outside the
package; it edits no source file.  Modules bind many of these functions with
``from ... import``, so installing a wrapper replaces every module-level
binding of the original function object: in each ``gptlab.*`` module, in the
``gptlab`` package namespace and in any extra namespace given (the harness's
own globals).  ``gptlab.lp._kernel.run_pivots`` is looked up as an attribute
at call time, so it is wrapped the same way.

Each call records one span: (name, parent span index, start, end).  Spans are
kept in memory; ``Tracer.dump`` writes them out when the run ends.  Self time
is a span's duration minus the time covered by its child spans.  A few spans
also record a count taken from the call's arguments or result (LP iterations,
rays returned, tableau cells pivoted).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function) pairs traced, grouped by layer.  The span name is
# "<layer>.<function>"; the kernel is its own span inside the lp layer.
TRACED = {
    "lp": [
        ("gptlab.lp.engine", "lp_solve"),
        ("gptlab.lp.engine", "lp_feasible"),
    ],
    "lp.kernel": [("gptlab.lp._kernel", "run_pivots")],
    "geometry": [
        ("gptlab.geometry", "dual_cone_rays"),
        ("gptlab.geometry", "dual_cone_rays_exact"),
        ("gptlab.geometry", "canonicalize_vertices"),
        ("gptlab.geometry", "extremal_effect_vectors"),
        ("gptlab.geometry", "affine_dimension"),
    ],
    "convex": [
        ("gptlab.convex", "contains_state"),
        ("gptlab.convex", "effect_range"),
        ("gptlab.convex", "contains_effect"),
        ("gptlab.convex", "effect_in_cone"),
        ("gptlab.convex", "extremal_effects"),
        ("gptlab.convex", "validate_space"),
        ("gptlab.convex", "affine_dim_of"),
        ("gptlab.convex", "sample_state"),
        ("gptlab.convex", "sample_pure_state"),
    ],
    "discrimination": [
        ("gptlab.discrimination", "distinguishable"),
        ("gptlab.discrimination", "capacity"),
        ("gptlab.discrimination", "verify_witness"),
        ("gptlab.discrimination", "complete_measurement"),
    ],
    "composites": [
        ("gptlab.composites", "compose"),
        ("gptlab.composites", "chsh_value"),
        ("gptlab.composites", "local_tomography_check"),
        ("gptlab.composites", "maximally_mixed_composite"),
        ("gptlab.composites", "max_tensor_contains"),
        ("gptlab.composites", "no_signalling_check"),
    ],
    "symmetry": [
        ("gptlab.symmetry", "transitivity_check"),
        ("gptlab.symmetry", "continuity_check"),
        ("gptlab.symmetry", "strict_convexity_check"),
        ("gptlab.symmetry", "face_extract"),
        ("gptlab.symmetry", "equivalence_probe"),
        ("gptlab.symmetry", "orbit_states"),
        ("gptlab.symmetry", "maximally_mixed"),
        ("gptlab.symmetry", "validate_group"),
    ],
    "runner": [
        ("gptlab.runner", "check_postulates"),
        ("gptlab.runner", "build_space"),
        ("gptlab.runner", "polytope_symmetry_group"),
        ("gptlab.runner", "_check_p1"),
        ("gptlab.runner", "_check_p2"),
        ("gptlab.runner", "_check_p3"),
        ("gptlab.runner", "_check_p3c"),
        ("gptlab.runner", "_check_p4"),
        ("gptlab.runner", "_check_p4_prime"),
        ("gptlab.runner", "_chsh_metric"),
        ("gptlab.runner", "report_render"),
        ("gptlab.runner", "load_theory"),
    ],
}


def _lp_iterations(args, result):
    return result.iterations, result.status == "infeasible"


def _kernel_cells(args, result):
    # run_pivots(T, basis, tol, max_iter) -> (status, iterations)
    return result[1] * args[0].size, 0


def _rows_out(args, result):
    return len(result), 0


def _rows_in(args, result):
    return int(np.atleast_2d(np.asarray(args[0])).shape[0]), 0


def _hit(args, result):
    return int(result is not None), 0


def _composite_vertices(args, result):
    space = result.space
    if space is None or not hasattr(space.rep, "vertices"):
        return 0, 0
    return int(space.rep.vertices.shape[0]), 0


# Per-span extractors of (count_a, count_b) from (args, result).
EXTRACTORS = {
    "lp.lp_solve": _lp_iterations,
    "lp.kernel.run_pivots": _kernel_cells,
    "geometry.dual_cone_rays": _rows_out,
    "geometry.dual_cone_rays_exact": _rows_out,
    "geometry.canonicalize_vertices": _rows_in,
    "discrimination.distinguishable": _hit,
    "composites.compose": _composite_vertices,
}


class Tracer:
    """Records spans while installed; restores every binding on ``uninstall``."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, float, float]] = []
        self.count_a: dict[str, float] = defaultdict(float)
        self.count_b: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[dict, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        extract = EXTRACTORS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, parent, start, end)
            if extract is not None:
                a, b = extract(args, result)
                self.count_a[name] += a
                self.count_b[name] += b
            return result

        return wrapper

    def install(self, extra_namespaces=()) -> None:
        wrappers: dict[int, object] = {}
        originals: dict[int, object] = {}
        for layer, entries in TRACED.items():
            for module_name, func_name in entries:
                module = sys.modules[module_name]
                fn = getattr(module, func_name)
                wrappers[id(fn)] = self._wrap(f"{layer}.{func_name}", fn)
                originals[id(fn)] = fn
        namespaces = [
            vars(module) for name, module in sorted(sys.modules.items())
            if (name == "gptlab" or name.startswith("gptlab.")) and module is not None
        ]
        namespaces.extend(extra_namespaces)
        for ns in namespaces:
            for key, value in list(ns.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and originals[id(value)] is value:
                    self._restore.append((ns, key, value))
                    ns[key] = wrapper

    def uninstall(self) -> None:
        for ns, key, value in reversed(self._restore):
            ns[key] = value
        self._restore.clear()

    # -- analysis -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time, self time and the extracted counts."""
        child_time = [0.0] * len(self.spans)
        for name_id, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name_id, parent, start, end) in enumerate(self.spans):
            row = out.setdefault(self.names[name_id], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        for name, row in out.items():
            row["count_a"] = self.count_a.get(name, 0)
            row["count_b"] = self.count_b.get(name, 0)
        return out

    def top_level_time(self) -> float:
        return sum(end - start for _, parent, start, end in self.spans if parent < 0)

    def dump(self, path: str) -> None:
        """Write the spans as JSON: names once, then [name, parent, start, end] rows."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "spans": [
                        [n, p, round(s - t0, 9), round(e - t0, 9)] for n, p, s, e in self.spans
                    ],
                },
                fh,
                separators=(",", ":"),
            )
