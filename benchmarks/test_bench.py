"""The benchmark's own test: traced runs repeat exactly, seeds matter.

    python3 -m pytest benchmarks/test_bench.py -q

Two traced runs on one seed must give the same verdict counts, states,
placements, survey rows, output bytes and digest of every verdict, JSON
trace and SVG; another seed must give another digest.  Short runs keep the
test quick; the item list only gets longer with ``--seconds``.
"""

import pytest

from run import measure

SECONDS = 0.5


def _counts(result):
    return {
        name: value
        for name, (value, unit) in result.metrics.items()
        if unit in ("count", "bytes") or name == "solver.parity_rejected_ratio"
    }


@pytest.mark.parametrize("workload", ["dance-trace", "deadlock-tail", "solve-survey"])
def test_traced_runs_repeat_and_depend_on_the_seed(workload):
    first = measure(workload, 7, SECONDS, trace=True)
    again = measure(workload, 7, SECONDS, trace=True)
    other = measure(workload, 8, SECONDS, trace=True)
    assert first.failed == again.failed == other.failed == 0, first.notes + other.notes
    assert _counts(first) == _counts(again)
    assert first.digest == again.digest
    assert other.digest != first.digest
    busy = {
        "dance-trace": ("scheduler.feasible", "scheduler.witness_steps", "timeline.svg_bytes"),
        "deadlock-tail": ("scheduler.deadlock", "scheduler.deadlock_states"),
        "solve-survey": ("solver.placements_tried", "solver.survey_rows", "facing.gate_rejects"),
    }[workload]
    assert all(_counts(first)[name] > 0 for name in busy)
