"""Benchmark for oidcheck: one workload per run, a closed loop with one caller.

    python3 perfbench/run.py --workload decide-mix|eval-join|search-hard
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the package is imported from ``src``. Inputs
come from the benchmark's own seeded generator (``gen.py``) and every output
is checked against the answer the generator fixed. The loop runs whole
cycles of ops until the ops have taken ``--seconds`` in total, each op under
the workload's per-op limit (``workloads.json``). The gated times are scaled
to a reference host speed (``hostspeed.py``); unscaled ones print as ``wall.*``.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the loop runs untraced for half the time and then traced for the other half,
and the per-layer metrics come from the traced half (see ``spans.py``). Each
metric is printed by name with its unit, and the last line of output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETTINGS = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
REPORTED_FAILURES = 5
# Each op's time is scaled by the mean of the host-speed factors measured
# before and after it (see hostspeed.py), the host being timed after every
# CALIBRATE_SECONDS of op time. Ops stopped by the limit, which is wall time,
# keep the limit.
CALIBRATE_SECONDS = 0.1
# ops_per_s is the median rate over blocks of whole cycles of at least this
# much op time
BLOCK_SECONDS = 2.0


class OpTimeout(Exception):
    """Raised by the per-op alarm. Nothing in the package catches broad
    exceptions, so it leaves ``cli.main`` and the deciders unchanged."""


def _alarm(signum, frame):
    raise OpTimeout


@dataclass
class LoopResult:
    latencies: list = field(default_factory=list)  # s; failed and over-limit ops at the limit
    scaled: list = field(default_factory=list)  # the same, at reference host speed
    busy: float = 0.0  # s the ops took
    attempted: int = 0
    failed: int = 0
    over_limit: int = 0
    digest: object = field(default_factory=hashlib.sha256)
    digest_ops: int = 0
    blocks: list = field(default_factory=list)  # (ops, scaled op time) per block
    factors: list = field(default_factory=list)  # host factor per calibration window

    @property
    def ops_per_s(self) -> float:
        """Median block rate at reference host speed."""
        return statistics.median(ops / busy for ops, busy in self.blocks)

    @property
    def wall_ops_per_s(self) -> float:
        return self.attempted / self.busy


def run_loop(cycles, seconds: float, limit: float, digest_ops: int, tracer=None) -> LoopResult:
    """Run whole cycles until the ops have taken ``seconds``."""
    res = LoopResult()
    pending: list[tuple[float, bool]] = []  # (time, finished) of ops not yet scaled
    factor = hostspeed.factor()
    block_start, block_time = 0, 0.0

    def calibrate() -> None:
        nonlocal factor
        end = hostspeed.factor()
        f = (factor + end) / 2
        res.scaled.extend(t * f if finished else t for t, finished in pending)
        res.factors.append(f)
        pending.clear()
        factor = end

    for ops in cycles:
        for op in ops:
            if tracer is not None:
                tracer.op = res.attempted
            start = time.perf_counter()
            try:
                try:
                    signal.setitimer(signal.ITIMER_REAL, limit)
                    output = op.run()
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                status = "ok"
            except OpTimeout:
                status = "over-limit"
            except Exception:  # the program failed on this op; count it and go on
                status = "error"
                detail = traceback.format_exc()
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.stack.clear()  # an alarm between a push and its try leaves a frame

            if status == "ok":
                verdict, correct = op.check(output)
                if not correct:
                    status = "wrong"
                    detail = f"verdict {verdict}, output {output!r:.300}"
            else:
                verdict = status
            if status in ("error", "wrong"):
                res.failed += 1
                if res.failed <= REPORTED_FAILURES:
                    print(f"op {res.attempted} ({op.kind}) {status}: {detail}", file=sys.stderr)
            res.over_limit += status == "over-limit"
            res.attempted += 1
            res.busy += elapsed
            res.latencies.append(elapsed if status == "ok" else max(elapsed, limit))
            pending.append((res.latencies[-1], status == "ok"))
            block_time += res.latencies[-1]
            if res.attempted <= digest_ops:
                res.digest.update(f"{op.kind}:{verdict}\n".encode())
                res.digest_ops = res.attempted
            if sum(t for t, _ in pending) >= CALIBRATE_SECONDS:
                calibrate()
        if block_time >= BLOCK_SECONDS or res.busy >= seconds:
            if pending:
                calibrate()
            res.blocks.append((res.attempted - block_start, sum(res.scaled[block_start:])))
            block_start, block_time = res.attempted, 0.0
        if res.busy >= seconds:
            return res
    raise AssertionError("op streams are endless")


IMPORT_TIMER = (
    "import time; start = time.perf_counter(); import oidcheck.cli; "
    "print(time.perf_counter() - start)"
)


def measure_setup(starts: int) -> tuple[float, float]:
    """Median time a fresh interpreter takes to import ``oidcheck.cli``, at
    reference host speed and unscaled."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    command = [sys.executable, "-c", IMPORT_TIMER]
    times, scaled = [], []
    for _ in range(starts + 1):  # the first start writes the bytecode cache
        factor = hostspeed.factor()
        child = subprocess.run(
            command, env=env, cwd=ROOT, check=True, timeout=60, capture_output=True, text=True
        )
        times.append(float(child.stdout))
        scaled.append(times[-1] * factor)
    return statistics.median(scaled[1:]), statistics.median(times[1:])


def percentile(samples: list, p: int) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def end_to_end(res: LoopResult, setup: tuple[float, float]) -> tuple[dict, dict]:
    """The gated metrics, at reference host speed, and those printed only:
    the unscaled times, shares that can be 0, a peak set by the single
    largest op, and p99 where a run has the samples for it."""
    ms = [s * 1000 for s in res.scaled]
    wall_ms = [s * 1000 for s in res.latencies]
    gated = {
        "setup_s": (setup[0], "s"),
        "ops_per_s": (res.ops_per_s, "1/s"),
        "latency_ms.p50": (percentile(ms, 50), "ms"),
        "latency_ms.p90": (percentile(ms, 90), "ms"),
    }
    printed = {
        "wall.setup_s": (setup[1], "s"),
        "wall.ops_per_s": (res.wall_ops_per_s, "1/s"),
        "wall.latency_ms.p50": (percentile(wall_ms, 50), "ms"),
        "wall.latency_ms.p90": (percentile(wall_ms, 90), "ms"),
        "host_factor.median": (statistics.median(res.factors), "ratio"),
        "failed_share": (res.failed / res.attempted, "ratio"),
        "over_limit_share": (res.over_limit / res.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # a percentile is reported only with at least ten samples beyond it
    if len(ms) >= 1000:
        printed["latency_ms.p99"] = (percentile(ms, 99), "ms")
    return gated, printed


def print_loop(label: str, res: LoopResult) -> None:
    n = res.attempted
    print(f"{label}: {n} ops in {res.busy:.3f} s of op time, {len(res.blocks)} blocks; "
          f"failed_share {res.failed / n:.4f} ({res.failed}/{n}); "
          f"over_limit_share {res.over_limit / n:.4f} ({res.over_limit}/{n})")
    print(f"{label}: verdict digest sha256:{res.digest.hexdigest()[:16]} over the first "
          f"{res.digest_ops} ops")


def print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETTINGS["workloads"]))
    ap.add_argument("--seed", type=int, default=SETTINGS["default_seed"])
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "oidcheck" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'oidcheck'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports oidcheck, so only once the path is set

    settings = SETTINGS["workloads"][args.workload]
    limit, digest_ops = settings["limit_s"], settings["digest_ops"]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s of ops, "
          f"per-op limit {limit:g} s")
    print(f"loop: {settings['loop']}")

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    signal.signal(signal.SIGALRM, _alarm)
    try:
        def cycles():
            return workloads.CYCLES[args.workload](args.seed, workdir)

        if args.trace:
            import spans

            plain = run_loop(cycles(), args.seconds / 2, limit, digest_ops)
            print_loop("untraced", plain)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_loop(cycles(), args.seconds / 2, limit, digest_ops, tracer)
            finally:
                tracer.restore()
            print_loop("traced", traced)
            span_file = OUT / f"spans-{args.workload}-{args.seed}.tsv"
            tracer.write(span_file)
            print(f"spans: {tracer.next_id} recorded, {len(tracer.spans)} written to "
                  f"{span_file.relative_to(ROOT)}")
            metrics = tracer.metrics(traced.attempted)
            metrics["trace.overhead"] = (traced.ops_per_s / plain.ops_per_s, "ratio")
            runs = (plain, traced)
        else:
            setup = measure_setup(SETTINGS["setup_starts"])
            res = run_loop(cycles(), args.seconds, limit, digest_ops)
            print_loop("run", res)
            print(f"samples: {res.attempted} latencies, {res.attempted // 10} beyond p90, "
                  f"{res.attempted // 100} beyond p99")
            metrics, printed = end_to_end(res, setup)
            print_metrics(printed)
            runs = (res,)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print_metrics(metrics)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
