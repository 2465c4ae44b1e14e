"""The capacity gate: N, ``exact`` and the witness bytes stay the same.

``capacity_digests.json`` holds the SHA-256 of (N, ``exact``, witness state
bytes, witness effect bytes) of ``capacity`` at its default budget on the 14
corpus polytopes, with their groups and without; the no-signalling polytope;
its 16 faces with 8 vertices, each cut out by two of its 16 positivity
facets, vertices in one seeded order; the 5-cube; and the 5- and
6-cross-polytopes.  Each input is searched with the ⌊β⌋ bound and with
``_capacity_bound`` patched to None.  A change to the capacity search that is meant to keep its results must pass
this test unchanged.  A change that alters them on purpose records the file
again with

    PYTHONPATH=src python tests/test_capacity_digests.py
"""

import hashlib
import json
from dataclasses import replace
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from gptlab import discrimination
from gptlab.composites import compose
from gptlab.convex import PolytopeRep, StateSpace, vertices_of
from gptlab.models import square_gbit
from gptlab.runner import build_space, load_theory
from gptlab.symmetry import polytope_symmetry_group

ROOT = Path(__file__).resolve().parents[1]
DIGESTS_PATH = Path(__file__).resolve().parent / "capacity_digests.json"
CORPUS_POLYTOPES = ["square"] + [f"{n}-gon" for n in range(3, 13)] + [
    "cube", "octahedron", "tesseract"]
FACE_ORDER_SEED = 0


def _spaces() -> list[StateSpace]:
    spaces = []
    for name in CORPUS_POLYTOPES:
        space = build_space(load_theory(str(ROOT / "perfbench" / "corpus" / f"{name}.json")))
        if space.group is None:  # an "auto" polytope: the group a check searches
            space = replace(space, group=polytope_symmetry_group(space.rep.vertices))
        spaces += [space, replace(space, name=f"{name}-groupless", group=None)]
    sq = square_gbit()
    ns = replace(compose(sq, sq, "max").space, name="ns")
    spaces.append(ns)
    verts = vertices_of(ns)
    facets = np.array([[0.0, 1, 0], [1, -1, 0], [0, 0, 1], [1, 0, -1]])
    tight = np.abs(verts @ np.array([np.kron(f, g) for f in facets for g in facets]).T) <= 1e-9
    rng = np.random.default_rng(FACE_ORDER_SEED)
    for a, b in combinations(range(16), 2):
        face = verts[tight[:, a] & tight[:, b]]
        if face.shape[0] == 8:
            spaces.append(StateSpace(name=f"ns-face-{a}-{b}",
                                     rep=PolytopeRep(face[rng.permutation(8)])))
    corners = np.array(list(product((-1.0, 1.0), repeat=5)))
    spaces.append(StateSpace(name="5-cube", rep=PolytopeRep(np.column_stack([np.ones(32), corners]))))
    for d in (5, 6):
        e = np.eye(d)
        spaces.append(StateSpace(name=f"{d}-cross", rep=PolytopeRep(
            np.column_stack([np.ones(2 * d), np.vstack([e, -e])]))))
    return spaces


def _digest(result: discrimination.CapacityResult) -> str:
    states, effects = result.witness.states, result.witness.measurement.effects
    head = f"{result.n}|{result.exact}|{states.shape}|{effects.shape}|"
    return hashlib.sha256(head.encode() + states.tobytes() + effects.tobytes()).hexdigest()


def capacity_digests() -> dict[str, str]:
    spaces = _spaces()
    digests = {}
    for bound in ("bound", "unbounded"):
        with pytest.MonkeyPatch.context() as m:
            if bound == "unbounded":
                m.setattr(discrimination, "_capacity_bound", lambda *args: None)
            for space in spaces:
                digests[f"{space.name}|{bound}"] = _digest(discrimination.capacity(space))
    return digests


def test_every_capacity_keeps_its_recorded_digest():
    expected = json.loads(DIGESTS_PATH.read_text())
    got = capacity_digests()
    assert len(got) == 2 * (2 * len(CORPUS_POLYTOPES) + 1 + 16 + 3)
    assert sorted(got) == sorted(expected)
    assert [key for key in got if got[key] != expected[key]] == []


if __name__ == "__main__":
    DIGESTS_PATH.write_text(json.dumps(capacity_digests(), indent=1, sort_keys=True) + "\n")
