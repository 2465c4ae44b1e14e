"""The benchmark tracer wraps gptlab functions by name; they must still exist.
Tiny benchmark runs must still reproduce the golden answers, and every seed-0
corpus report its golden digest."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from gptlab import geometry, runner
from gptlab.lp import engine as lp_engine
from gptlab.runner import check_postulates, report_render

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    traced = _load_tracer().TRACED
    missing = [
        f"{module_name}.{func_name}"
        for entries in traced.values()
        for module_name, func_name in entries
        if not callable(getattr(importlib.import_module(module_name), func_name, None))
    ]
    assert missing == []
    names = {func_name for entries in traced.values() for _, func_name in entries}
    assert {"dual_cone_rays_exact", "orbit_states", "maximally_mixed_composite",
            "load_theory", "_check_p2", "run_pivots"} <= names


def _tiny_run(workload: str) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", "0", "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tiny_compose_max_run_matches_golden_vertex_counts():
    # perfbench/run.py checks every composite's vertex count against golden.json
    result = _tiny_run("compose_max")
    assert result["correct"]
    assert result["failed"] == 0


@pytest.mark.parametrize("workload", ["capacity_ns", "membership"])
def test_tiny_run_matches_golden_answers(workload):
    # capacity witnesses on no-signalling faces; membership and
    # distinguishability answers
    result = _tiny_run(workload)
    assert result["correct"]
    assert result["failed"] == 0


def test_tiny_check_corpus_run_matches_golden_report_digests():
    # at seed 0 every report must hash to its recorded digest, and
    # classical(4), whose facets do not span the ambient space, must complete
    result = _tiny_run("check_corpus")
    assert result["correct"]
    assert result["failed"] == 0


def test_every_seed0_corpus_report_matches_its_golden_digest(monkeypatch):
    # the refactor gate: every check of the check_corpus workload renders the
    # report bytes recorded in golden.json (statuses, N and K where no digest
    # is recorded)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    expected = golden["check_corpus"]["theories"]
    seed = workloads.GOLDEN_SEED
    mismatched = []
    for name, rule in workloads.CORPUS_OPS:
        key = f"{name}|{rule}"
        text = report_render(check_postulates(workloads.corpus_theory(name), rule=rule, seed=seed))
        if not workloads._report_matches(text, expected[key], seed):
            mismatched.append(key)
    assert mismatched == []
    assert sum("digest" in expected[f"{n}|{r}"] for n, r in workloads.CORPUS_OPS) == 41


@pytest.mark.parametrize("workload, lps, iterations", [
    ("check_corpus", 39, 98),
    ("capacity_ns", 56, 304),
    ("membership", 100, 617),
], ids=["check_corpus-39", "capacity_ns-56", "membership-100"])
def test_seed0_pass_zero_solves_its_pinned_number_of_lps(monkeypatch, workload, lps, iterations):
    # the LP gate: the lp.calls and lp.iterations a traced seed-0 benchmark
    # run reports per pass, counted in-process; every answer must still be
    # right.  check_corpus validates its JSON polytopes and the square by
    # their facets; every capacity search stops at ⌊β⌋, which capacity_ns's
    # rank-deficient faces get from a DD in their span, and decides each
    # candidate by one cone test over the same facets; membership's pair
    # queries on the no-signalling polytope take the cone test over its
    # product facets
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    prepared = workloads.WORKLOADS[workload].setup(0, False, workloads.load_golden())
    solutions = []
    solve = lp_engine.lp_solve

    def counting_solve(*args, **kwargs):
        solutions.append(solve(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(lp_engine, "lp_solve", counting_solve)
    wrong = [op.label for op in prepared.ops(0) if not op.check(op.run())]
    assert wrong == []
    assert len(solutions) == lps
    assert sum(s.iterations for s in solutions) == iterations


def _count_calls(monkeypatch, name: str, calls: dict) -> None:
    """Count the calls of ``geometry.<name>`` in ``calls[name]``, through every
    gptlab module that imported it, as the benchmark tracer does."""
    original = getattr(geometry, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if (module is not None and module.__name__.startswith("gptlab")
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, counting)


def test_seed0_compose_max_pass_zero_runs_its_pinned_number_of_dds(monkeypatch):
    # the DD gate: the geometry.dd_calls and geometry.dd_exact_calls a traced
    # seed-0 compose_max run reports per pass, counted in-process in every
    # gptlab namespace that holds the entry points; every answer must still
    # be right.  Each op enumerates its part once when both parts have equal
    # vertices (square|square, 5-gon|5-gon) and twice otherwise, then the
    # composite: exact for square|square and square|cube (9 ops), float for
    # the other 15
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    prepared = workloads.WORKLOADS["compose_max"].setup(0, False, workloads.load_golden())
    calls = {"dual_cone_rays": 0, "dual_cone_rays_exact": 0}
    for name in calls:
        _count_calls(monkeypatch, name, calls)
    wrong = [op.label for op in prepared.ops(0) if not op.check(op.run())]
    assert wrong == []
    assert calls == {"dual_cone_rays": 53, "dual_cone_rays_exact": 9}


def test_seed0_check_corpus_pass_zero_builds_two_composites(monkeypatch):
    # the composite gate: a check composes only for the CHSH metric of a
    # pair with a polytope part, which among the corpus is the square under
    # either rule; two simplices score 2 by theorem, and balls and quantum
    # systems have no readouts to score
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    prepared = workloads.WORKLOADS["check_corpus"].setup(0, False, workloads.load_golden())
    built = []
    compose = runner.compose

    def counting_compose(a, b, rule, **kwargs):
        built.append((a.name, b.name, rule))
        return compose(a, b, rule, **kwargs)

    monkeypatch.setattr(runner, "compose", counting_compose)
    wrong = [op.label for op in prepared.ops(0) if not op.check(op.run())]
    assert wrong == []
    assert built == [("square", "square", "max"), ("square", "square", "min")]
