#!/usr/bin/env python3
"""Write the benchmark corpus as theory JSON files under perfbench/corpus/.

The corpus is built in code, so nothing is downloaded:

- built-in families: classical(1..6), ball(1..4), quantum(1..4), square;
- regular 3..12-gons, the polygon theories of Janotta, Gogolin, Barrett &
  Brunner, NJP 13, 063024 (2011);
- the cube, the octahedron and the tesseract.

Each file is in the format ``gptlab check`` reads.  The 24-vertex
no-signalling polytope of Barrett, PRA 75, 032304 (2007) is not a file: the
workloads build it as ``compose(square, square, "max")``.

Usage: python3 perfbench/make_corpus.py
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"


def regular_polygon(n: int) -> list[list[float]]:
    return [
        [1.0, math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)] for k in range(n)
    ]


def theories() -> list[dict]:
    out: list[dict] = []
    out += [{"name": f"classical({n})", "space": {"family": "classical", "N": n}} for n in range(1, 7)]
    out += [{"name": f"ball({d})", "space": {"family": "ball", "d": d}} for d in range(1, 5)]
    out += [{"name": f"quantum({n})", "space": {"family": "quantum", "N": n}} for n in range(1, 5)]
    out.append({"name": "square", "space": {"family": "square"}})
    out += [
        {"name": f"{n}-gon", "space": {"family": "polytope", "vertices": regular_polygon(n)}}
        for n in range(3, 13)
    ]
    cube = [[1.0, *map(float, p)] for p in itertools.product([-1, 1], repeat=3)]
    octahedron = []
    for axis in range(3):
        for sign in (1.0, -1.0):
            v = [0.0, 0.0, 0.0]
            v[axis] = sign
            octahedron.append([1.0, *v])
    tesseract = [[1.0, *map(float, p)] for p in itertools.product([-1, 1], repeat=4)]
    for name, verts in (("cube", cube), ("octahedron", octahedron), ("tesseract", tesseract)):
        out.append({"name": name, "space": {"family": "polytope", "vertices": verts}})
    return out


def slug(name: str) -> str:
    """File stem for a theory name: ``classical(4)`` -> ``classical-4``."""
    return name.replace("(", "-").replace(")", "")


def main() -> None:
    CORPUS_DIR.mkdir(exist_ok=True)
    for theory in theories():
        path = CORPUS_DIR / f"{slug(theory['name'])}.json"
        path.write_text(json.dumps(theory, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(theories())} theories to {CORPUS_DIR}")


if __name__ == "__main__":
    main()
