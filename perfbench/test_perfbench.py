"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")

DIGEST_SCRIPT = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
import gen
h = hashlib.sha256()
for i in range(6):
    p = gen.decide_pair(3, i)
    h.update((p.left + p.right + repr(p)).encode())
    h.update(repr(gen.join_case(3, i)).encode())
    h.update(repr(gen.search_cycle(3, i)).encode())
print(h.hexdigest())
"""


def test_generator_is_byte_identical_for_a_seed():
    digests = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", DIGEST_SCRIPT, str(HERE)],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        digests.add(out.stdout)
    assert len(digests) == 1
    assert gen.join_case(3, 1) == gen.join_case(3, 1)
    assert gen.decide_pair(3, 0) != gen.decide_pair(4, 0)


def _namespace_snapshot() -> dict:
    return {
        (name, attr): obj
        for name, module in list(sys.modules.items())
        if name == "oidcheck" or name.startswith("oidcheck.")
        for attr, obj in vars(module).items()
    }


def test_tracer_restores_every_patched_attribute():
    import oidcheck.entail

    spans.public_functions()  # imports every layer module before the snapshot
    before = _namespace_snapshot()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert oidcheck.entail.find_homomorphism is not before["oidcheck.entail", "find_homomorphism"]
        assert {m.__name__ for m, _, _ in tracer.patched} >= {"oidcheck", "oidcheck.oracle"}
    finally:
        tracer.restore()
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def _main(*argv) -> tuple[dict, list[str]]:
    """The result object and the names of the metrics printed above it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    lines = out.getvalue().strip().splitlines()
    printed = [line.split()[0] for line in lines[:-1] if line.startswith("  ")]
    return json.loads(lines[-1]), printed


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_of_each_workload(workload):
    before = _namespace_snapshot()
    for trace, declared in (("0", "end_to_end"), ("1", "per_layer")):
        result, printed = _main("--workload", workload, "--seconds", "0.01", "--trace", trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[declared]}
        assert set(result["metrics"]) <= set(printed)
        assert all(NAME.fullmatch(name) for name in printed)
        for metric in BENCHMARK[declared]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    after = _namespace_snapshot()
    assert all(after[key] is before[key] for key in before)


def test_declared_names_are_well_formed():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))


def test_reference_join_matches_nested_loops():
    rule = gen.CROSS_RULE
    facts = [("R", ("a", "b")), ("R", ("b", "c")), ("R", ("b", "b")), ("S", ("c",)), ("S", ("b",))]
    edges = [args for pred, args in facts if pred == "R"]
    expected = {
        (x, y, z) for x, y in edges for y2, z in edges if y2 == y and ("S", (z,)) in facts
    }
    got = {(m["x"], m["y"], m["z"]) for m in gen.ref_matchings(rule.body, facts)}
    assert got == expected
