"""Every diagram up to a few events, for exhaustive small-scope checks.

A diagram of m events is listed once up to renaming: crossing ids (classical
and virtual alike) and bar ids are numbered by first appearance, while the
strands and signs of classical crossings are free.  So there are 1, 6, 16,
106 and 426 diagrams of 1 to 5 events.  This module imports only ``model``,
so the listing shares nothing with the code it is used to check.
"""

from __future__ import annotations

from typing import Iterator

from twistdance.model import (
    ClassicalPass,
    CrossingSign,
    Diagram,
    Event,
    Strand,
    TwistBar,
    VirtualPass,
    validate,
)

_OTHER = {Strand.OVER: Strand.UNDER, Strand.UNDER: Strand.OVER}


def _openings(crossing_id: int) -> list[tuple[Event, Event]]:
    """The first pass of a new crossing, paired with the pass that closes it."""
    pairs: list[tuple[Event, Event]] = [(VirtualPass(crossing_id), VirtualPass(crossing_id))]
    for strand in Strand:
        for sign in CrossingSign:
            pairs.append(
                (
                    ClassicalPass(crossing_id, strand, sign),
                    ClassicalPass(crossing_id, _OTHER[strand], sign),
                )
            )
    return pairs


def small_diagrams(m: int) -> Iterator[Diagram]:
    """Every diagram of exactly ``m`` events, each once, in a fixed order.

    Each position holds a new bar, the first pass of a new crossing, or the
    closing pass of a crossing still open; a position is left for every
    closing pass still owed.
    """

    def extend(events: list[Event], owed: list[Event], crossings: int, bars: int):
        room = m - len(events)
        if room == 0:
            yield validate(events)
            return
        if room > len(owed):
            yield from extend([*events, TwistBar(bars + 1)], owed, crossings, bars + 1)
        if room > len(owed) + 1:
            for first, closing in _openings(crossings + 1):
                yield from extend([*events, first], [*owed, closing], crossings + 1, bars)
        for i, closing in enumerate(owed):
            yield from extend([*events, closing], owed[:i] + owed[i + 1 :], crossings, bars)

    yield from extend([], [], 0, 0)
