"""Text codec for twisted virtual Gauss codes, plus the JSON trace format.

Grammar (case-sensitive; separators are runs of space, tab, newline or
comma):

    diagram := event ((',' | WS)+ event)*
    event   := ('O' | 'U') INT SIGN?    classical pass, sign defaults to '+'
             | 'V' INT                  virtual pass
             | 'T' INT?                 twist bar
    SIGN    := '+' | '-'
    INT     := [1-9][0-9]*

Bare ``T`` tokens receive sequential bar ids 1, 2, ... in reading order;
mixing bare and explicit bar ids can therefore collide and is rejected by
validation.  ``serialize`` always emits explicit signs and bar ids, single
space separated, so ``parse(serialize(d)) == d`` for every valid diagram and
``serialize(parse(s))`` is a fixed point after one pass.

``parse`` accepts ``str`` or raw ``bytes`` and never raises anything other
than :class:`LexError` or a ``model.DiagramError``; spans are byte offsets
into the (UTF-8 encoded) input.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .model import (
    ClassicalPass,
    CrossingSign,
    Diagram,
    DiagramError,
    Event,
    Strand,
    TwistBar,
    VirtualPass,
    validate,
)

if TYPE_CHECKING:
    from .scheduler import Schedule

__all__ = ["SourceSpan", "LexError", "parse", "serialize", "token", "trace_to_json"]


@dataclass(frozen=True)
class SourceSpan:
    """Half-open byte range [byte_start, byte_end) into the original input."""

    byte_start: int
    byte_end: int


class LexError(ValueError):
    """A token that does not match the diagram grammar."""

    def __init__(self, message: str, span: SourceSpan) -> None:
        super().__init__(message)
        self.span = span


_RUN_RE = re.compile(rb"[^ \t\n,]+")  # a maximal run of non-separator bytes
_TOKEN_RE = re.compile(rb"([OU])([1-9][0-9]*)([+-]?)|V([1-9][0-9]*)|T([1-9][0-9]*)?")


def parse(text: str | bytes) -> Diagram:
    """Parse a Gauss-code string into a validated Diagram.

    Raises LexError for unrecognized tokens and the model's DiagramError
    subclasses (annotated with the offending token's span) for structural
    violations.
    """
    data = text.encode("utf-8") if isinstance(text, str) else bytes(text)
    events: list[Event] = []
    spans: list[SourceSpan] = []
    next_auto_bar = 1
    for found in _RUN_RE.finditer(data):
        run, (i, j) = found.group(), found.span()
        m = _TOKEN_RE.fullmatch(run)
        if m is None:
            raise LexError(f"unrecognized token {run!r}", SourceSpan(i, j))
        try:
            ident = int(m.group(2) or m.group(4) or m.group(5) or b"0")
        except ValueError:  # more digits than the interpreter's int-string limit
            raise LexError(f"id too long in token {run[:12]!r}...", SourceSpan(i, j)) from None
        if m.group(1) is not None:
            strand = Strand.OVER if m.group(1) == b"O" else Strand.UNDER
            sign = CrossingSign.NEGATIVE if m.group(3) == b"-" else CrossingSign.POSITIVE
            events.append(ClassicalPass(ident, strand, sign))
        elif m.group(4) is not None:
            events.append(VirtualPass(ident))
        elif m.group(5) is not None:
            events.append(TwistBar(ident))
        else:
            events.append(TwistBar(next_auto_bar))
            next_auto_bar += 1
        spans.append(SourceSpan(i, j))
    try:
        return validate(events)
    except DiagramError as err:
        if err.event_index is not None:
            err.span = spans[err.event_index]
        raise


def token(event: Event) -> str:
    """Canonical token for one event (explicit sign and bar id)."""
    if isinstance(event, ClassicalPass):
        return f"{event.strand.value}{event.crossing_id}{event.sign.value}"
    if isinstance(event, VirtualPass):
        return f"V{event.crossing_id}"
    return f"T{event.bar_id}"


def serialize(diagram: Diagram) -> str:
    """Canonical single-space-separated token string; empty diagram -> ''."""
    return " ".join(token(ev) for ev in diagram.events)


def trace_to_json(schedule: "Schedule") -> str:
    """Serialize a schedule as a compact JSON trace.

    Logical timestamps are the linearization indices; step facings are the
    dancer's facing after executing the step.  The ``plan`` object is
    omitted for bare schedules that carry none.  A non-empty step list
    requires a plan (the diagram supplies the event tokens).
    """
    if schedule.steps and schedule.plan is None:
        raise ValueError("a schedule with steps needs its plan to name events")
    steps = []
    for t, step in enumerate(schedule.steps):
        ev = schedule.plan.diagram.events[step.event_index]
        steps.append(
            {
                "t": t,
                "dancer": step.dancer,
                "event_index": step.event_index,
                "event": token(ev),
                "facing": step.facing_after.name.lower(),
            }
        )
    payload: dict = {"steps": steps, "feasible": schedule.feasible}
    if schedule.plan is not None:
        plan = schedule.plan
        plan_obj: dict = {
            "points": list(plan.points),
            "k": plan.k,
            "rule": plan.rule.value,
        }
        if plan.facings is not None:
            plan_obj["facings"] = [f.name.lower() for f in plan.facings]
        payload["plan"] = plan_obj
    return json.dumps(payload, separators=(",", ":"))
