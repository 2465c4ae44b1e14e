"""The four benchmark workloads.

Every workload is closed loop: one client, one thread, and the next
operation starts when the previous one returns.  A workload's operations are
grouped into passes; ``Prepared.ops(k)`` builds pass ``k`` from the seed
alone, so a traced and an untraced run of the same pass get the same inputs.
Only the generated inputs reach the program.

Each ``Op`` has a timed ``run``, an untimed ``check`` against the golden
answers (or against labels fixed by construction), and a ``digest`` of its
output used to compare traced and untraced runs byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from gptlab.composites import compose
from gptlab.convex import (
    PolytopeRep,
    StateSpace,
    contains_effect,
    contains_state,
    extremal_effects,
    vertices_of,
)
from gptlab.discrimination import capacity, distinguishable, verify_witness
from gptlab.models import classical, square_gbit
from gptlab.runner import build_space, check_postulates, load_theory, report_render

from make_corpus import slug

HERE = Path(__file__).resolve().parent
CORPUS_DIR = HERE / "corpus"
GOLDEN_PATH = HERE / "golden.json"

# Full report digests are recorded for this benchmark seed only; statuses, N
# and K are checked on every seed.
GOLDEN_SEED = 0


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    digest: Callable[[object], str]


@dataclass
class Prepared:
    ops: Callable[[int], list[Op]]
    warmup: Callable[[], None]
    known_failures: frozenset = field(default_factory=frozenset)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, bool, dict], Prepared]
    # Each run makes at least this many passes.  The tail percentile is the
    # highest that left ten successful samples beyond it in that many passes
    # when the benchmark was defined; it is fixed so that it means the same
    # on every commit.
    min_passes: int
    tail_pct: float


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array_digest(arr: np.ndarray) -> str:
    return _sha(np.ascontiguousarray(np.round(np.asarray(arr, dtype=float), 9) + 0.0).tobytes())


def canonical_vertices(space: StateSpace) -> np.ndarray:
    """Vertices in the benchmark's own lexicographic order, independent of
    the order the program returns them in."""
    verts = np.asarray(vertices_of(space), dtype=float)
    return verts[np.lexsort(np.round(verts, 9).T[::-1])]


def corpus_theory(name: str):
    return load_theory(str(CORPUS_DIR / f"{slug(name)}.json"))


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


# ---------------------------------------------------------------------------
# check_corpus: the `gptlab check` user journey over the corpus
# ---------------------------------------------------------------------------

BUILTINS = (
    [f"classical({n})" for n in range(1, 7)]
    + [f"ball({d})" for d in range(1, 5)]
    + [f"quantum({n})" for n in range(1, 5)]
    + ["square"]
)
POLYGONS = [f"{n}-gon" for n in range(3, 13)]
SOLIDS = ["cube", "octahedron", "tesseract"]
MIN_RULE = BUILTINS + POLYGONS + SOLIDS
# The max rule on the 7-gon and larger polygons and on the tesseract is left
# out: one such check takes longer than a whole run (see NOTES.md).
MAX_RULE = BUILTINS + POLYGONS[:4]
CORPUS_OPS = [(t, "min") for t in MIN_RULE] + [(t, "max") for t in MAX_RULE]
TINY_CORPUS_OPS = [("classical(2)", "min"), ("classical(4)", "min"), ("square", "min"),
                   ("3-gon", "max")]


def _report_matches(text: str, expected: dict, seed: int) -> bool:
    report = json.loads(text)
    statuses = {k: v["status"] for k, v in report["postulates"].items()}
    if statuses != expected["statuses"]:
        return False
    if report["metrics"]["N"] != expected["N"] or report["metrics"]["K"] != expected["K"]:
        return False
    if seed == GOLDEN_SEED and "digest" in expected:
        return _sha(text.encode()) == expected["digest"]
    return True


def setup_check_corpus(seed: int, tiny: bool, golden: dict) -> Prepared:
    expected = golden["check_corpus"]["theories"]
    op_list = TINY_CORPUS_OPS if tiny else CORPUS_OPS
    theories = {name: corpus_theory(name) for name in {t for t, _ in op_list}}

    def make(name: str, rule: str) -> Op:
        key = f"{name}|{rule}"
        td = theories[name]
        return Op(
            label=key,
            run=lambda: report_render(check_postulates(td, rule=rule, seed=seed), "json"),
            check=lambda text: _report_matches(text, expected[key], seed),
            digest=lambda text: _sha(text.encode()),
        )

    def ops(k: int) -> list[Op]:
        order = _rng(seed, 1, k).permutation(len(op_list))
        return [make(*op_list[i]) for i in order]

    def warmup() -> None:
        for name in ("classical(2)", "square"):
            report_render(check_postulates(corpus_theory(name), seed=seed), "json")

    known = frozenset(golden["check_corpus"]["known_failures"])
    return Prepared(ops=ops, warmup=warmup, known_failures=known)


# ---------------------------------------------------------------------------
# capacity_ns: capacity searches on faces of the no-signalling polytope
# ---------------------------------------------------------------------------

# Facets of the square gbit with vertices (1, x, y), x, y in {0, 1}:
# x >= 0, 1 - x >= 0, y >= 0, 1 - y >= 0.  Their Kronecker products are the
# 16 positivity facets p(ab|xy) >= 0 of the no-signalling polytope.
SQUARE_FACETS = np.array([[0.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, -1.0]])
NS_FACETS = np.array([np.kron(f, g) for f in SQUARE_FACETS for g in SQUARE_FACETS])
# Faces where two facets are tight have 8, 10, 11 or 12 vertices.  A pass
# runs the capacity search on all 16 faces with 8 vertices, in seeded order
# and with their vertices in seeded order.  One size keeps the latencies of
# a pass alike, so the median and the tail percentile do not fall between
# two sizes, and taking every face of it keeps the work of each pass the
# same.  The 8-vertex faces have N = 4, the capacity of the whole polytope.
FACE_SIZE = 8


def no_signalling_polytope() -> StateSpace:
    sq = square_gbit()
    return compose(sq, sq, "max").space


def ns_two_facet_faces(ns_vertices: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """Vertex indices of every face cut out by two of the 16 facets."""
    tight = np.abs(ns_vertices @ NS_FACETS.T) <= 1e-9
    faces = {}
    for a in range(len(NS_FACETS)):
        for b in range(a + 1, len(NS_FACETS)):
            faces[(a, b)] = np.nonzero(tight[:, a] & tight[:, b])[0]
    return faces


def _capacity_digest(result) -> str:
    parts = [str(result.n), str(result.exact)]
    if result.witness is not None:
        parts.append(_array_digest(result.witness.states))
        parts.append(_array_digest(result.witness.measurement.effects))
    return _sha("|".join(parts).encode())


def setup_capacity_ns(seed: int, tiny: bool, golden: dict) -> Prepared:
    expected = golden["capacity_ns"]["faces"]
    verts = canonical_vertices(no_signalling_polytope())
    faces = ns_two_facet_faces(verts)
    pool = [key for key, idx in sorted(faces.items()) if len(idx) == FACE_SIZE]
    per_pass = 1 if tiny else len(pool)

    def make(key: tuple[int, int], rng: np.random.Generator) -> Op:
        face = verts[faces[key]][rng.permutation(len(faces[key]))]
        label = f"{key[0]}-{key[1]}"
        space = StateSpace(name=f"ns-face-{label}", rep=PolytopeRep(face))

        def check(result) -> bool:
            return (
                result.n == expected[label]
                and result.exact
                and verify_witness(space, result.witness)
            )

        return Op(
            label=label,
            run=lambda: capacity(space, lp_budget=100_000),
            check=check,
            digest=_capacity_digest,
        )

    def ops(k: int) -> list[Op]:
        rng = _rng(seed, 2, k)
        return [make(pool[i], rng) for i in rng.permutation(len(pool))[:per_pass]]

    def warmup() -> None:
        c2 = classical(2)
        capacity(compose(c2, c2, "max").space)

    return Prepared(ops=ops, warmup=warmup)


# ---------------------------------------------------------------------------
# compose_max: max-tensor composition (double description)
# ---------------------------------------------------------------------------

# (part A, part B) -> times per pass; the expected vertex counts are in
# golden.json.  Square and cube rows are integral and take the
# exact-rational path, polygon rows the float path.  Besides the square's
# 24 vertices, every composite has 128 to 144 vertices, so latencies are
# alike and the median and tail percentile stay inside one population.
# The hexagon, cube and octahedron squares (552, 1408 and 684 vertices, 6 to
# 31 s each) are checked only when the golden answers are recorded; the
# hexagon square is also built by check_corpus (max rule on the 6-gon).
COMPOSE_MENU = {
    ("square", "square"): 2,
    ("5-gon", "5-gon"): 8,
    ("square", "6-gon"): 7,
    ("square", "cube"): 7,
}
TINY_COMPOSE_MENU = {("square", "square"): 1, ("3-gon", "5-gon"): 1}
GOLDEN_ONLY_PAIRS = [("6-gon", "6-gon"), ("cube", "cube"), ("octahedron", "octahedron")]


def _permuted(space: StateSpace, rng: np.random.Generator) -> StateSpace:
    """A fresh copy of a polytope part with its vertices in seeded order."""
    if not isinstance(space.rep, PolytopeRep):
        return space
    verts = space.rep.vertices
    return StateSpace(
        name=space.name, rep=PolytopeRep(verts[rng.permutation(len(verts))]), group=space.group
    )


def setup_compose_max(seed: int, tiny: bool, golden: dict) -> Prepared:
    expected = golden["compose_max"]
    menu = TINY_COMPOSE_MENU if tiny else COMPOSE_MENU
    pairs = [pair for pair, times in menu.items() for _ in range(times)]
    parts = {name: build_space(corpus_theory(name)) for pair in menu for name in pair}

    def make(a: str, b: str, rng: np.random.Generator) -> Op:
        key = f"{a}|{b}"
        part_a, part_b = _permuted(parts[a], rng), _permuted(parts[b], rng)

        def check(comp) -> bool:
            verts = vertices_of(comp.space)
            return verts.shape[0] == expected[key] and bool(
                np.max(np.abs(verts[:, 0] - 1.0)) <= 1e-9
            )

        return Op(
            label=key,
            run=lambda: compose(part_a, part_b, "max"),
            check=check,
            digest=lambda comp: _array_digest(canonical_vertices(comp.space)),
        )

    def ops(k: int) -> list[Op]:
        rng = _rng(seed, 3, k)
        return [make(*pairs[i], rng) for i in rng.permutation(len(pairs))]

    def warmup() -> None:
        compose(parts["square"], parts["square"], "max")

    return Prepared(ops=ops, warmup=warmup)


# ---------------------------------------------------------------------------
# membership: many small queries against fixed, already-built spaces
# ---------------------------------------------------------------------------

# Queries of one pass, by (space, kind).  As many queries are faster than the
# max(pentagon, pentagon) state queries as are slower, so the median falls in
# the middle of those and the 95th percentile inside the distinguishability
# queries, away from the boundary between two kinds.
# Distinguishability runs on the no-signalling polytope only: on
# max(pentagon, pentagon) one pair query takes 8 to 630 ms, so a few of them
# would set the time of a whole pass.
MEMBERSHIP_MIX = {
    ("ns", "effect_in"): 10, ("ns", "effect_out"): 10,
    ("max5", "effect_in"): 10, ("max5", "effect_out"): 10,
    ("ns", "state_out"): 20, ("ns", "state_in"): 40,
    ("max5", "state_in"): 100, ("max5", "state_out"): 100,
    ("ns", "vertex_pair"): 50, ("ns", "vertex_interior_pair"): 50,
}
TINY_MEMBERSHIP_MIX = {key: max(1, n // 10) for key, n in MEMBERSHIP_MIX.items()}
WARMUP_MIX = {key: 2 for key in MEMBERSHIP_MIX}


@dataclass
class _Fixture:
    space: StateSpace
    verts: np.ndarray          # canonical order
    part_effects: np.ndarray   # extremal effects of the (identical) parts
    part_verts: np.ndarray
    pairs: list                # [(i, j, distinguishable)] in canonical order


def _fixture(space: StateSpace, part: StateSpace, pairs: list = ()) -> _Fixture:
    return _Fixture(
        space=space,
        verts=canonical_vertices(space),
        part_effects=extremal_effects(part),
        part_verts=vertices_of(part),
        pairs=list(pairs),
    )


def _queries(fx: _Fixture, kind: str, count: int, rng: np.random.Generator) -> list:
    """(function name, argument, expected answer) triples."""
    verts = fx.verts
    if kind == "state_in":
        weights = rng.dirichlet(np.ones(len(verts)), size=count)
        return [("contains_state", w @ verts, True) for w in weights]
    if kind == "state_out":
        # a vertex pushed 1% outward from the centroid leaves the polytope
        centroid = verts.mean(axis=0)
        picks = rng.integers(len(verts), size=count)
        return [("contains_state", centroid + 1.01 * (verts[i] - centroid), False) for i in picks]
    if kind == "effect_in":
        # products of part effects are effects of the max tensor
        out = []
        for _ in range(count):
            ea, eb = rng.dirichlet(np.ones(len(fx.part_effects)), size=2) @ fx.part_effects
            out.append(("contains_effect", np.kron(ea, eb), True))
        return out
    if kind == "effect_out":
        # 1.01 times a product of effects that attain 1 exceeds 1 on a product state
        top = fx.part_effects[np.max(fx.part_verts @ fx.part_effects.T, axis=0) >= 1 - 1e-9]
        picks = rng.integers(len(top), size=(count, 2))
        return [("contains_effect", 1.01 * np.kron(top[i], top[j]), False) for i, j in picks]
    if kind == "vertex_pair":
        picks = rng.integers(len(fx.pairs), size=count)
        return [
            ("distinguishable", verts[[fx.pairs[p][0], fx.pairs[p][1]]], fx.pairs[p][2])
            for p in picks
        ]
    if kind == "vertex_interior_pair":
        # an effect that is 0 on an interior point is 0 everywhere, so a
        # vertex and an interior point are never perfectly distinguishable
        picks = rng.integers(len(verts), size=count)
        weights = rng.dirichlet(np.ones(len(verts)), size=count)
        return [
            ("distinguishable", np.vstack([verts[i], w @ verts]), False)
            for i, w in zip(picks, weights)
        ]
    raise ValueError(kind)


def _answer(fn: str, space: StateSpace, arg) -> bool:
    if fn == "contains_state":
        return bool(contains_state(space, arg))
    if fn == "contains_effect":
        return bool(contains_effect(space, arg))
    return distinguishable(space, arg) is not None


def _pair_labels(entry: dict) -> list:
    return [(i, j, bit == "1") for (i, j), bit in zip(entry["pairs"], entry["labels"])]


def setup_membership(seed: int, tiny: bool, golden: dict) -> Prepared:
    sq = square_gbit()
    pentagon = build_space(corpus_theory("5-gon"))
    fixtures = {
        "ns": _fixture(compose(sq, sq, "max").space, sq, _pair_labels(golden["membership"]["ns"])),
        "max5": _fixture(compose(pentagon, pentagon, "max").space, pentagon),
    }
    mix = TINY_MEMBERSHIP_MIX if tiny else MEMBERSHIP_MIX

    def make(name: str, kind: str, fn: str, arg, want: bool) -> Op:
        space = fixtures[name].space
        return Op(
            label=f"{name}:{kind}",
            run=lambda: _answer(fn, space, arg),
            check=lambda got: got == want,
            digest=lambda got: str(got),
        )

    def build(rng: np.random.Generator, use_mix: dict) -> list[Op]:
        ops = []
        for (name, kind), count in sorted(use_mix.items()):
            ops += [make(name, kind, *q) for q in _queries(fixtures[name], kind, count, rng)]
        return [ops[i] for i in rng.permutation(len(ops))]

    def ops(k: int) -> list[Op]:
        return build(_rng(seed, 4, k), mix)

    def warmup() -> None:
        for op in build(_rng(seed, 5), WARMUP_MIX):
            op.run()

    return Prepared(ops=ops, warmup=warmup)


# Why each workload was chosen: BENCHMARK.json and NOTES.md.
WORKLOADS = {
    w.name: w
    for w in [
        # three passes: the median of two is their mean, so one pass in a
        # slow stretch of the host would move it by half its slowdown
        Workload("check_corpus", setup_check_corpus, min_passes=3, tail_pct=85.0),
        Workload("capacity_ns", setup_capacity_ns, min_passes=2, tail_pct=65.0),
        Workload("compose_max", setup_compose_max, min_passes=3, tail_pct=85.0),
        # p99 here tracked the host's timing jitter (ten-run spread 0.19);
        # p95 lies inside the slowest kind of query
        Workload("membership", setup_membership, min_passes=3, tail_pct=95.0),
    ]
}


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def plant_wrong(golden: dict) -> None:
    """Corrupt one expectation per workload, for the harness self-test."""
    golden["check_corpus"]["theories"]["square|min"]["K"] += 1
    golden["capacity_ns"]["faces"] = {k: v + 1 for k, v in golden["capacity_ns"]["faces"].items()}
    golden["compose_max"]["square|square"] += 1
    entry = golden["membership"]["ns"]
    entry["labels"] = "".join("0" if b == "1" else "1" for b in entry["labels"])
