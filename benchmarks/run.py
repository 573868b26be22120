"""Benchmark for twistdance: one closed-loop client, one process, no threads.

Usage (from the repository root):

    python3 benchmarks/run.py --workload dance-trace --seed 1 --seconds 20 --trace 0

Each run decides a fixed list of ``RATE[workload] * seconds`` items, item
``i`` generated from ``(seed, i)`` alone, in order.  The list never depends
on how fast the run goes, so every run of a seed does the same work.  Only
the per-item work is timed, and times are reported at reference speed (see
``reference.py``); every item is then checked outside the timed region, and
a failed check or an exception counts the item as failed.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from spans the benchmark records around its calls into the program.
Human-readable lines come first; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# Items per second of --seconds, calibrated so that the timed work of a run
# takes about --seconds on a 2-core x86-64 box.  Fixed constants, never
# measured at run time.
RATE = {"dance-trace": 495, "deadlock-tail": 9.95, "solve-survey": 27}
SETUP_CHILDREN = 21  # timed child interpreters per run, after one warm-up
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
LAYERS = ("codec", "model", "facing", "scheduler", "solver", "timeline", "bench")


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    digest: str
    notes: list[str] = field(default_factory=list)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with at least ten samples above it (nearest
    rank), falling back to the median for tiny runs."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 50.0, ordered[math.ceil(n / 2) - 1]


def child_seconds(mode: str, runs: int) -> float:
    """Median start-up seconds, at reference speed, of fresh interpreters
    started one at a time; the first, which may write bytecode caches, is
    discarded.  The kernel is timed just before and just after the batch."""
    from reference import NOMINAL_NS, kernel_ns

    cmd = [sys.executable, "-I", os.path.join(HERE, "setup_child.py"), SRC, mode]
    kernel = [kernel_ns() for _ in range(2)]
    out = []
    for _ in range(runs + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        out.append(float(done.stdout.strip()))
    kernel += [kernel_ns() for _ in range(2)]
    return statistics.median(out[1:]) * NOMINAL_NS / statistics.median(kernel)


def timed_pass(items, work, tr, check=None, digest=None):
    """Run every item; return per-item nanoseconds at reference speed and
    failure messages."""
    from reference import Scaler

    scaler = Scaler()
    failures: list[str] = []
    for i, item in enumerate(items):
        try:
            with tr.span("bench.item"):
                start = time.perf_counter_ns()
                out = work(item, tr)
                elapsed = time.perf_counter_ns() - start
            scaler.add(elapsed)
            if check is not None:
                with tr.span("bench.check"):
                    problems = check(item, out, tr, digest)
                if problems:
                    failures.append(f"item {i}: {'; '.join(problems[:3])}")
        except Exception as err:  # a failing item must not stop the run
            failures.append(f"item {i}: {type(err).__name__}: {err}")
    scaler.flush()
    return scaler.scaled, failures


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    """One run: set-up children, then the item list, timed and checked."""
    sys.path[:0] = [p for p in (SRC, HERE) if p not in sys.path]
    from spans import OFF, Tracer
    from workloads import dance_check, dance_work, solve_check, solve_work

    from inputs import dance_item, deadlock_item, solve_item

    make, work, check = {
        "dance-trace": (dance_item, dance_work, dance_check),
        "deadlock-tail": (deadlock_item, dance_work, dance_check),
        "solve-survey": (solve_item, solve_work, solve_check),
    }[workload]
    items = [make(seed, i) for i in range(max(1, math.ceil(RATE[workload] * seconds)))]
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        metrics["cli.import_ms"] = (child_seconds("cli", 5) * 1e3, "ms")
    else:
        metrics["setup_s"] = (child_seconds("dance", SETUP_CHILDREN), "s")
    gc.collect()
    gc.freeze()  # the item list is long-lived; keep it out of collections

    digest = hashlib.sha256()
    if not trace:
        latencies, failures = timed_pass(items, work, OFF, check, digest)
        metrics.update(end_to_end(latencies))
    else:
        plain, _ = timed_pass(items, work, OFF)
        tr = Tracer()
        latencies, failures = timed_pass(items, work, tr, check, digest)
        metrics.update(per_layer(tr, len(items)))
        overhead = sum(latencies) / sum(plain) - 1 if len(latencies) == len(plain) == len(items) else 0.0
        metrics["trace.overhead"] = (overhead, "ratio")
    gc.unfreeze()
    notes = [f"latency_tail_ms is p{tail(latencies)[0]:g} of {len(latencies)} samples"] if latencies else []
    return Result(len(items), len(failures), metrics, digest.hexdigest(), notes + failures)


def end_to_end(latencies: list[float]) -> dict[str, tuple[float, str]]:
    if not latencies:  # every item raised; the run reports failure, not figures
        latencies = [0]
    return {
        "items_per_s": (len(latencies) / (sum(latencies) / 1e9) if any(latencies) else 0.0, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) / 1e6, "ms"),
        "latency_tail_ms": (tail(latencies)[1] / 1e6, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tr, items: int) -> dict[str, tuple[float, str]]:
    """Span times are means per item; counts are totals over the run."""
    c = tr.counts

    def per_item(name: str, scale: float) -> float:
        return tr.span_ns(name) / items / scale

    search_ns = tr.times_ns["scheduler.deadlock_search"]
    out = {
        "codec.parse_us": (per_item("codec.parse", 1e3), "us"),
        "codec.json_us": (per_item("codec.json", 1e3), "us"),
        "codec.json_bytes": (c["codec.json_bytes"], "bytes"),
        "timeline.svg_us": (per_item("timeline.svg", 1e3), "us"),
        "timeline.svg_bytes": (c["timeline.svg_bytes"], "bytes"),
        "scheduler.search_ms": (per_item("scheduler.search", 1e6), "ms"),
        "scheduler.deadlock_states": (c["scheduler.deadlock_states"], "count"),
        "scheduler.states_per_s": (
            c["scheduler.deadlock_states"] / (search_ns / 1e9) if search_ns else 0.0,
            "1/s",
        ),
        "scheduler.feasible": (c["scheduler.feasible"], "count"),
        "scheduler.deadlock": (c["scheduler.deadlock"], "count"),
        "scheduler.facing_parity": (c["scheduler.facing_parity"], "count"),
        "scheduler.witness_steps": (c["scheduler.witness_steps"], "count"),
        "scheduler.routes_us": (per_item("scheduler.routes", 1e3), "us"),
        "scheduler.verify_us": (per_item("scheduler.verify", 1e3), "us"),
        "model.plan_us": (per_item("model.plan", 1e3), "us"),
        "model.paths_us": (per_item("model.paths", 1e3), "us"),
        "facing.gate_us": (per_item("facing.gate", 1e3), "us"),
        "facing.matching_solve_us": (per_item("facing.matching_solve", 1e3), "us"),
        "facing.gate_rejects": (c["facing.gate_rejects"], "count"),
        "solver.min_dancers_ms": (per_item("solver.min_dancers", 1e6), "ms"),
        "solver.survey_ms": (per_item("solver.survey", 1e6), "ms"),
        "solver.placements_tried": (c["solver.placements_tried"], "count"),
        "solver.survey_rows": (c["solver.survey_rows"], "count"),
        "solver.parity_rejected_ratio": (
            c["solver.parity_rejected"] / c["solver.survey_rows"] if c["solver.survey_rows"] else 0.0,
            "ratio",
        ),
    }
    layer_ns = tr.layer_times_ns()
    for layer in LAYERS:
        total, own = layer_ns.get(layer, (0, 0))
        out[f"{layer}.total_us"] = (total / items / 1e3, "us")
        out[f"{layer}.self_us"] = (own / items / 1e3, "us")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RATE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "twistdance", "__init__.py")):
        print(f"error: no twistdance package under {SRC}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))

    print(f"{args.workload} seed {args.seed}: {result.attempted} items, {result.failed} failed")
    for note in result.notes[:20]:
        print(note)
    for name, (value, unit) in result.metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"digest {result.digest}")
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
