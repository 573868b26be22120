"""Text codec for twisted virtual Gauss codes, plus the two outputs of a
schedule: the JSON trace and the SVG timeline.

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
space separated, so ``parse(serialize(d)) == d`` for every diagram that
``model.validate`` accepts (it refuses ids that are not ints >= 1 and
strands or signs that are not enum members, which have no token) and
``serialize(parse(s))`` is a fixed point after one pass.

``parse`` accepts a ``str`` or a bytes-like object and refuses anything
else, such as an int that ``bytes()`` would read as that many NUL bytes,
with ``ValueError`` before any conversion.  Given text, it never raises
anything other than :class:`LexError` or a ``model.DiagramError``; spans
are byte offsets into the (UTF-8 encoded) input.  A ``str`` is encoded
with ``surrogateescape``, so a command-line argument's undecodable bytes
are lexed as the bytes they were.  The lexer keeps no spans: one split at
the four separators yields the runs, and a span is found only for the
error raised.

Each run is looked up in ``_EVENTS``, one module-level table from a
canonical token to its event, shared by every parse in the process and
bounded by ``_EVENT_CAP``.  A bare sign is read as ``+`` and a bare ``T``
takes the next bar id in reading order, and each is looked up as the token
it stands for, so every key is canonical.  A run not in the table is
checked alone against the canonical-token pattern, and its event is made
once per text by its class's constructor; the events a parse made, and
only those, are added in reading order while the table is below its cap.
So once a process has parsed diagrams with the same tokens, ``parse``
reads another such diagram, written in canonical tokens, without making an
event or running a regular expression.  What the table holds never
changes a diagram, a token table, an error or its span.  Events are frozen
values, and two diagrams may hold the same event object: nothing may rely
on event identity.

The diagram ``parse`` returns already holds its token table, the
canonical token of every event (see ``_tokens``): the runs themselves, a
bare one rewritten as the token it was looked up as.  No ``token()`` call
is made per event, so neither output of a dance request formats a token.

Both outputs read a schedule's steps from its move columns (see
``scheduler``), never from ``Step`` objects, and label events from the
token table.  Both refuse a schedule that is not a ``Schedule`` with
``ValueError``, and check nothing else: a ``Schedule`` is checked when it
is built, so its steps name a dancer of its plan and an event of its
diagram.  ``trace_to_json`` formats each step from one fixed template,
joined with the dancer's head and the event's cell, each built once per
call, and the facing's tail.  A canonical token matches
``[OUVT][0-9]+[+-]?`` and so needs no JSON escaping.

``svg_timeline`` draws one horizontal lane per dancer, x position equal to
the linearization index.  Forward-facing travel is drawn solid,
backward-facing travel dashed; colors distinguish dancers.  Output is
plain SVG 1.1 text, byte-identical across runs for identical inputs so it
can be golden-file tested.  Each lane's constant fragments (its colour,
its y position and the dash pattern) are formatted once, before any step.
Then one pass over the steps formats each step once, straight into its
lane's lists: one line segment, from the x position and facing the lane's
previous step left, and one dot-and-label entry, each joined from those
fragments and the step's x position.  The lanes' lists are then joined in
lane order, each lane's segments before its dots.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import count, islice
from threading import Lock

from .model import (
    ClassicalPass,
    CrossingSign,
    Diagram,
    DiagramError,
    Event,
    Strand,
    TwistBar,
    VirtualPass,
    _check_member,
    _groups,
    validate,
)
from .scheduler import Schedule

__all__ = ["SourceSpan", "LexError", "parse", "serialize", "token", "trace_to_json", "svg_timeline"]


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


_TOKEN_RE = re.compile(r"[OU][1-9][0-9]*[+-]|V[1-9][0-9]*|T[1-9][0-9]*")  # a canonical token
# The grammar's separators become spaces, and the other ASCII bytes that
# ``str.split()`` cuts at become NUL, which no token holds.  Decoded as ASCII
# with ``surrogateescape``, the text then has no other whitespace, so
# ``split()`` cuts at the four separators alone, and a run that held such a
# byte is still one run, which the lexer refuses.
_SEPARATE = bytes.maketrans(b"\t\n,\v\f\r\x1c\x1d\x1e\x1f", b"   " + bytes(7))

_EVENTS: dict[str, Event] = {}  # a canonical token -> its event
_EVENTS_LOCK = Lock()  # held to check the cap and add entries
_EVENT_CAP = 4096
"""The most tokens ``_EVENTS`` keeps.  Crossing ids are dense small ints
numbered from 1, so a few hundred tokens make up nearly every diagram a
process parses (299 over the seed-1 dance-trace benchmark); once the table
is full, a token not in it is lexed on every parse.  Filled with every
token of the ids 1 to 683 (both signs on both strands, a virtual crossing
and a bar), ``tracemalloc`` reads about 147 bytes per entry (the event,
its key and the dict's slots) on CPython 3.11, so about 600 kB at the
cap."""


def parse(text: str | bytes) -> Diagram:
    """Parse a Gauss-code string into a validated Diagram that holds its
    token table.

    ``text`` is a ``str`` or a bytes-like object (``bytes``, ``bytearray``,
    ``memoryview``, ...); anything else, an int, a list of ints or
    ``None`` included, is refused with ``ValueError`` before any
    conversion.  Raises LexError for unrecognized tokens and the model's
    DiagramError subclasses (annotated with the offending token's span)
    for structural violations.  A ``str`` is encoded with
    ``surrogateescape``, so the undecodable bytes of a command-line
    argument come back as themselves; a lone surrogate that no byte maps
    to is a LexError.
    """
    if isinstance(text, str):
        try:
            data = text.encode("utf-8", "surrogateescape")
        except UnicodeEncodeError as err:
            start = len(text[: err.start].encode("utf-8", "surrogateescape"))
            raise LexError(
                f"unencodable character {text[err.start]!r}",
                SourceSpan(start, start + 3),  # a surrogate's three bytes in UTF-8 form
            ) from None
    else:
        try:
            data = bytes(memoryview(text))
        except TypeError:  # ``bytes(text)`` would read an int as that many NUL bytes
            raise ValueError(
                f"text must be a str or a bytes-like object, got {type(text).__name__}"
            ) from None
    runs = data.translate(_SEPARATE).decode("ascii", "surrogateescape").split()
    events = list(map(_EVENTS.get, runs))
    if None in events:  # a run not in the table, or a bare one, which never is
        _lex(data, runs, events)
    try:
        diagram = validate(events)
    except DiagramError as err:
        if err.event_index is not None:
            err.span = _span(data, err.event_index)
        raise
    diagram.__dict__["_token_table"] = tuple(runs)
    return diagram


def _lex(data: bytes, runs: list[str], events: list[Event | None]) -> None:
    """Fill each ``None`` of ``events``, the ``_EVENTS`` entries of
    ``runs``, with its run's event, and make each run its canonical token;
    raises LexError at the first run in reading order that is no token or
    whose id is too long for an int.  ``runs`` are the runs of the text
    ``data``.

    A bare sign is read as '+' and a bare ``T`` takes the next bar id; each
    is then looked up as that canonical token.  A run still not found is
    checked alone against ``_TOKEN_RE`` and its event is made by its
    class's constructor, once per text; the runs made are kept, in reading
    order, while the table is below its cap."""
    bars = count(1)
    made: dict[str, Event] = {}
    for at, ev in enumerate(events):
        if ev is not None:
            continue
        run = runs[at]
        if run == "T":
            run = runs[at] = f"T{next(bars)}"
        elif run[0] in "OU" and run[-1] not in "+-":
            run = runs[at] = run + "+"
        ev = _EVENTS.get(run) or made.get(run)
        if ev is None:
            if _TOKEN_RE.fullmatch(run) is None:
                span = _span(data, at)
                raise LexError(f"unrecognized token {data[span.byte_start : span.byte_end]!r}", span)
            try:
                if run[0] == "V":
                    ev = VirtualPass(int(run[1:]))
                elif run[0] == "T":
                    ev = TwistBar(int(run[1:]))
                else:
                    ev = ClassicalPass(int(run[1:-1]), Strand(run[0]), CrossingSign(run[-1]))
            except ValueError:  # more digits than the interpreter's int-string limit
                span = _span(data, at)
                run = data[span.byte_start : span.byte_end]
                raise LexError(f"id too long in token {run[:12]!r}...", span) from None
            made[run] = ev
        events[at] = ev
    if made:
        with _EVENTS_LOCK:
            _EVENTS.update(islice(made.items(), max(_EVENT_CAP - len(_EVENTS), 0)))


def _span(data: bytes, at: int) -> SourceSpan:
    """The span of the run at token position ``at``, found by matching the
    runs again: spans are needed only on the way out with an error."""
    return SourceSpan(*list(re.finditer(rb"[^ \t\n,]+", data))[at].span())


def token(event: Event) -> str:
    """Canonical token for one event (explicit sign and bar id).  Anything
    that is not a ``ClassicalPass``, ``VirtualPass`` or ``TwistBar`` that
    ``validate`` accepts, such as an event with a string strand or a
    ``bool`` id, is refused with ``ValueError`` by ``validate``'s own check
    of an event alone."""
    try:
        _groups((event,))
    except DiagramError:
        raise ValueError(
            f"event must be a ClassicalPass, VirtualPass or TwistBar that validate accepts, got {event!r}"
        ) from None
    if type(event) is ClassicalPass:
        return f"{event.strand.value}{event.crossing_id}{event.sign.value}"
    if type(event) is VirtualPass:
        return f"V{event.crossing_id}"
    return f"T{event.bar_id}"


def serialize(diagram: Diagram) -> str:
    """Canonical single-space-separated token string; empty diagram -> ''.

    A diagram that is not a ``Diagram`` is refused with ``ValueError``."""
    _check_member("diagram", diagram, Diagram)
    return " ".join(_tokens(diagram))


def _tokens(diagram: Diagram) -> tuple[str, ...]:
    """The canonical token of every event, in event order: the token table
    that the JSON trace and the SVG timeline index by ``event_index``.

    A diagram from ``parse`` holds it from the start, taken from the runs
    of its text.  Any other diagram, one made by ``validate``,
    ``dataclasses.replace``, ``retrograde`` or a copy, starts without one
    (see ``model.Diagram``), and it is built here with ``token()``, once,
    on first read, and kept on the diagram, the way a witness keeps its
    ``steps``."""
    table = diagram.__dict__.get("_token_table")
    if table is None:
        table = diagram.__dict__["_token_table"] = tuple(token(ev) for ev in diagram.events)
    return table


_ENCODER = json.JSONEncoder(separators=(",", ":"))  # ``json.dumps`` would build one per call
_FACING_NAMES = ("forward", "backward")
_FACING_TAILS = ('forward"}', 'backward"}')  # by facing bit


def trace_to_json(schedule: Schedule) -> str:
    """Serialize a schedule as a compact JSON trace.

    Logical timestamps are the linearization indices; step facings are the
    dancer's facing after executing the step.  The ``plan`` object is
    omitted for bare schedules that carry none.  ``schedule`` must be a
    ``Schedule``, otherwise ``ValueError``; its constructor has checked the
    rest (see ``Schedule``), so a schedule with steps has a plan whose
    diagram supplies the event tokens.

    Each step is formatted from one fixed template, reading its dancer,
    event index and facing bit from the schedule's columns, which hold ints;
    an event's cell (its index and token) and a dancer's head (its id) are
    formatted once per call, for every event and every dancer of the plan;
    canonical tokens match ``[OUVT][0-9]+[+-]?``, so they never need JSON
    escaping.  One module-level ``json.JSONEncoder`` writes the rest.
    """
    _check_member("schedule", schedule, Schedule)
    dancers, events, facings = schedule._move_columns
    plan = schedule.plan
    tail: dict = {"feasible": schedule.feasible}
    if plan is not None:
        plan_obj: dict = {"points": list(plan.points), "k": plan.k, "rule": plan.rule.value}
        if plan.facings is not None:
            plan_obj["facings"] = [_FACING_NAMES[f] for f in plan.facings]
        tail["plan"] = plan_obj
    cells = heads = []
    if dancers:  # then the schedule has a plan
        cells = [f'{e},"event":"{tok}","facing":"' for e, tok in enumerate(_tokens(plan.diagram))]
        heads = [f',"dancer":{d},"event_index":' for d in range(plan.n)]
    steps = ",".join([
        f'{{"t":{t}{heads[d]}{cells[e]}{_FACING_TAILS[f]}'
        for t, d, e, f in zip(count(), dancers, events, facings)
    ])
    return '{"steps":[' + steps + "]," + _ENCODER.encode(tail)[1:]


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")
_DASH = "6,4"  # backward-facing stroke pattern; forward is solid
# layout, in SVG user units
_LANE_HEIGHT = 44
_STEP_WIDTH = 46
_MARGIN = 16
_LABEL_WIDTH = 72
_FONT_SIZE = 12


def svg_timeline(schedule: Schedule) -> str:
    """Render a schedule as an SVG timeline string.

    As in ``trace_to_json``, the schedule must be a ``Schedule``, otherwise
    ``ValueError``.  Its plan gives one lane per dancer, the start facings
    and the event labels; a schedule with steps has one, and each step's
    dancer has its lane (see ``Schedule``).
    """
    _check_member("schedule", schedule, Schedule)
    dancers, events, facings = schedule._move_columns
    plan = schedule.plan
    lanes = plan.n if plan is not None else 0

    total = len(dancers)
    width = 2 * _MARGIN + _LABEL_WIDTH + max(total, 1) * _STEP_WIDTH
    height = 2 * _MARGIN + lanes * _LANE_HEIGHT
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]

    labels = [tok.rstrip("+-") for tok in _tokens(plan.diagram)] if total else []
    # per lane: its label and segments, its dots and its constant fragments
    lines: list[list[str]] = []
    dots: list[list[str]] = []
    fragments = []
    for d in range(lanes):
        color = _PALETTE[d % len(_PALETTE)]
        cy = _MARGIN + d * _LANE_HEIGHT + _LANE_HEIGHT // 2
        lines.append([
            f'<text x="{_MARGIN}" y="{cy + _FONT_SIZE // 2}" '
            f'font-family="monospace" font-size="{_FONT_SIZE}" '
            f'fill="{color}">dancer {d}</text>'
        ])
        dots.append([])
        if not total:  # the fragments serve steps only
            continue
        # a segment's middle and its end, solid after a forward facing and
        # dashed after a backward one (indexed by the facing bit), and a
        # dot's middle and the start of its label
        stroke = f'" y2="{cy}" stroke="{color}" stroke-width="2"'
        fragments.append((
            f'" y1="{cy}" x2="',
            (f"{stroke}/>", f'{stroke} stroke-dasharray="{_DASH}"/>'),
            f'" cy="{cy}" r="4" fill="{color}"/>\n<text x="',
            f'" y="{cy - 8}" text-anchor="middle" '
            f'font-family="monospace" font-size="{_FONT_SIZE}" fill="#333333">',
        ))

    prev_x = [str(_MARGIN + _LABEL_WIDTH)] * lanes  # where each lane's next segment starts
    before = list(plan.designated) if lanes else []  # and the facing it starts from
    step_x = _MARGIN + _LABEL_WIDTH + _STEP_WIDTH // 2
    for d, e, f in zip(dancers, events, facings):
        x = str(step_x)  # made text once, for both of the step's entries
        line_mid, line_end, dot_mid, label_start = fragments[d]
        lines[d].append(f'<line x1="{prev_x[d]}{line_mid}{x}{line_end[before[d]]}')
        dots[d].append(f'<circle cx="{x}{dot_mid}{x}{label_start}{labels[e]}</text>')
        prev_x[d] = x
        before[d] = f
        step_x += _STEP_WIDTH
    for mine, my_dots in zip(lines, dots):
        out += mine
        out += my_dots

    out.append("</svg>")
    return "\n".join(out) + "\n"
