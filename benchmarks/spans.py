"""In-memory spans and counters for the traced benchmark run.

Spans are recorded by the benchmark around its calls into the program's
public functions; nothing inside ``twistdance`` is instrumented.  The
untraced run uses :data:`OFF`, whose spans cost one no-op ``with``.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

_NULL = nullcontext()


class Tracer:
    """Spans as ``[name, parent index, start ns, end ns]`` plus named counts."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.times_ns: Counter[str] = Counter()
        self._open: list[int] = []
        self._closed = -1

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, self._open[-1] if self._open else -1, perf_counter_ns(), 0])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][3] = perf_counter_ns()
            self._closed = idx

    def last_ns(self) -> int:
        """Duration of the span closed most recently."""
        _, _, start, end = self.spans[self._closed]
        return end - start

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def add_time(self, name: str, ns: int) -> None:
        self.times_ns[name] += ns

    def layer_times_ns(self) -> dict[str, tuple[int, int]]:
        """Total and self time per layer (the span name before the first dot).

        Total counts each span whose ancestors belong to other layers, so
        nested spans of one layer are not counted twice; self time is a
        span's duration minus the durations of its direct children.
        """
        child_ns = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list[int]] = {}
        for idx, (name, parent, start, end) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            acc = out.setdefault(layer, [0, 0])
            acc[1] += end - start - child_ns[idx]
            p = parent
            while p >= 0 and self.spans[p][0].split(".", 1)[0] != layer:
                p = self.spans[p][1]
            if p < 0:
                acc[0] += end - start
        return {layer: (t, s) for layer, (t, s) in out.items()}

    def span_ns(self, name: str) -> int:
        return sum(end - start for n, _, start, end in self.spans if n == name)


class _Off:
    enabled = False

    def span(self, name: str):
        return _NULL

    def last_ns(self) -> int:
        return 0

    def count(self, name: str, n: int = 1) -> None:
        pass

    def add_time(self, name: str, ns: int) -> None:
        pass


OFF = _Off()
