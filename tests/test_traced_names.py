"""The ``layer.name`` strings that the benchmark's tracer reads name functions
it wraps, so that renaming or dropping a traced function fails here instead
of reading 0 in a per-layer metric."""

import ast
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402


def test_every_traced_name_is_a_wrapped_function():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    traced = re.compile(rf"(?:{'|'.join(spans.LAYERS)})\.\w+")
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    names = {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and traced.fullmatch(node.value) and node.value not in metrics
    }
    assert set(spans.RESULT_COUNTERS) < names
    assert sorted(names - set(spans.public_functions().values())) == []
