"""The benchmark tracer wraps gptlab functions by name; they must still exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
