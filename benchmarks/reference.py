"""Reference-speed time: wall time scaled by a fixed calibration kernel.

On the shared 2-core box these constants come from, the same code ran at
speeds up to 2x apart between 2-second windows, in phases lasting from
seconds to minutes, in wall and CPU time alike.  No run length within the
benchmark's budget averages that away: ten runs spread by up to 25 %.  So a
run also times a fixed kernel -- benchmark code and the standard library
only, never the program -- between items, and reports each item's time
scaled by ``NOMINAL_NS / kernel time``.  Scaled time is the wall time the
item would take at the speed where the kernel takes ``NOMINAL_NS``; a change
to the program moves it in the same proportion as wall time.
"""

from __future__ import annotations

import json
import statistics
import time

from inputs import dance_item, path_parities

NOMINAL_NS = 5_500_000  # kernel median on the reference box
CAL_EVERY_NS = 300_000_000  # item work between two calibrations


def _kernel() -> int:
    acc = 0
    for j in range(6):
        item = dance_item(-1, j)
        acc += len(json.loads(json.dumps({"t": item.text.split(), "p": list(item.points)}))["t"])
        acc += sum(path_parities(item.text, item.points))
    seen = set()
    for a in range(120):
        for b in range(120):
            seen.add((a, b, a ^ b))
    return acc + len(seen)


def kernel_ns() -> float:
    """Median nanoseconds of three runs of the kernel."""
    times = []
    for _ in range(3):
        start = time.perf_counter_ns()
        _kernel()
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times)


class Scaler:
    """Collects raw item nanoseconds and scales each batch by the mean of
    the calibrations taken just before and just after it."""

    def __init__(self) -> None:
        self.scaled: list[float] = []
        self._raw: list[int] = []
        self._since = 0
        self._before = kernel_ns()

    def add(self, ns: int) -> None:
        self._raw.append(ns)
        self._since += ns
        if self._since >= CAL_EVERY_NS:
            self.flush()

    def flush(self) -> None:
        if self._raw:
            after = kernel_ns()
            factor = 2 * NOMINAL_NS / (self._before + after)
            self.scaled += [ns * factor for ns in self._raw]
            self._before, self._raw, self._since = after, [], 0
