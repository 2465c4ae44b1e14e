"""The report gate: `gptlab check` JSON bytes stay the same across refactors.

``report_digests.json`` holds the SHA-256 of the rendered JSON report of every
``check_corpus`` benchmark check, plus the built-in families ball(1..8),
quantum(1..4) and classical(7, 8), under both composition rules and at seeds
0, 1, 2, 3 and 11.  A change that is meant to keep every report byte must
pass this test unchanged.  A change that alters reports on purpose records
the file again with

    PYTHONPATH=src python tests/test_report_digests.py
"""

import hashlib
import importlib
import json
import sys
from pathlib import Path

from gptlab.runner import TheoryDefinition, check_postulates, report_render

ROOT = Path(__file__).resolve().parents[1]
DIGESTS_PATH = Path(__file__).resolve().parent / "report_digests.json"
SEEDS = (0, 1, 2, 3, 11)
RULES = ("min", "max")
FAMILIES = (
    [("ball", "d", d) for d in range(1, 9)]
    + [("quantum", "N", n) for n in range(1, 5)]
    + [("classical", "N", n) for n in (7, 8)]
)


def _checks():
    """(key, theory, rule, seed) for every gated report."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    theories = [(f"corpus:{name}", workloads.corpus_theory(name), rule)
                for name, rule in workloads.CORPUS_OPS]
    for family, field, size in FAMILIES:
        name = f"{family}({size})"
        td = TheoryDefinition(name=name, space_spec={"family": family, field: size})
        theories += [(f"family:{name}", td, rule) for rule in RULES]
    return [(f"{key}|{rule}|{seed}", td, rule, seed)
            for key, td, rule in theories for seed in SEEDS]


def report_digests() -> dict[str, str]:
    return {
        key: hashlib.sha256(
            report_render(check_postulates(td, rule=rule, seed=seed)).encode()
        ).hexdigest()
        for key, td, rule, seed in _checks()
    }


def test_every_report_renders_its_recorded_bytes():
    expected = json.loads(DIGESTS_PATH.read_text())
    got = report_digests()
    assert len(got) == 375
    assert sorted(got) == sorted(expected)
    assert [key for key in got if got[key] != expected[key]] == []


if __name__ == "__main__":
    DIGESTS_PATH.write_text(json.dumps(report_digests(), indent=1, sort_keys=True) + "\n")
