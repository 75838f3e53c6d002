"""The benchmark's tracer wraps maxleaf functions by module and name.

perfbench/spans.py lists them in TARGETS; a name that no longer resolves
drops its per-layer metrics from a traced run.  This test loads that
file by path, without editing it, and checks every name.
"""

import importlib.util
import sys
from pathlib import Path

import maxleaf  # noqa: F401  loads every module the tracer looks up

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_name_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module_name, attr, _ in spans.TARGETS:
        owner = sys.modules.get(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
