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
are lexed as the bytes they were.  The lexer keeps no spans: one
``findall`` yields each run's groups, and a span is found only for the
error raised.

The diagram ``parse`` returns already holds its token table, the
canonical token of every event (see ``_tokens``), taken from one split of
the lexed text: every run lexed as a token, so each run is its event's
token as written, and only a bare sign (read as ``+``) or a bare ``T``
(given its assigned id) is rewritten.  No ``token()`` call is made per
event, so neither output of a dance request formats a token.

Both outputs read a schedule's steps from its move columns (see
``scheduler``), never from ``Step`` objects, and label events from the
token table; both refuse a schedule that is not a ``Schedule`` with
``ValueError``.  ``trace_to_json`` formats each step from one fixed
template, joined with the dancer's head and the event's cell, each built
once per call, and the facing's tail.  A canonical token matches
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
from itertools import count

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


# One match per maximal run of non-separator bytes: a token, or else the whole
# run in the last group.  ``findall`` reads an unmatched group as b"".
_LEX_RE = re.compile(
    rb"(?:([OU])([1-9][0-9]*)([+-]?)|V([1-9][0-9]*)|T([1-9][0-9]*)?)(?![^ \t\n,])"
    rb"|([^ \t\n,]+)"
)
_STRAND = {b"O": Strand.OVER, b"U": Strand.UNDER}
_SIGN = {b"": CrossingSign.POSITIVE, b"+": CrossingSign.POSITIVE, b"-": CrossingSign.NEGATIVE}


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
    # each event filled through its class's slots, bypassing the frozen
    # __init__ (see ``model``)
    new = object.__new__
    set_crossing = ClassicalPass.crossing_id.__set__
    set_strand = ClassicalPass.strand.__set__
    set_sign = ClassicalPass.sign.__set__
    set_virtual = VirtualPass.crossing_id.__set__
    set_bar = TwistBar.bar_id.__set__
    events: list[Event] = []
    append = events.append
    bare: list[int] = []  # positions of the events written with a bare sign or a bare T
    next_auto_bar = 1
    for at, (strand, digits, sign, virtual, bar, bad) in enumerate(_LEX_RE.findall(data)):
        if bad:
            raise LexError(f"unrecognized token {bad!r}", _span(data, at))
        try:
            ident = int(digits or virtual or bar or b"0")
        except ValueError:  # more digits than the interpreter's int-string limit
            span = _span(data, at)
            run = data[span.byte_start : span.byte_end]
            raise LexError(f"id too long in token {run[:12]!r}...", span) from None
        if strand:
            ev = new(ClassicalPass)
            set_crossing(ev, ident)
            set_strand(ev, _STRAND[strand])
            set_sign(ev, _SIGN[sign])
            if not sign:
                bare.append(at)
        elif virtual:
            ev = new(VirtualPass)
            set_virtual(ev, ident)
        else:
            ev = new(TwistBar)
            if not bar:
                ident = next_auto_bar
                next_auto_bar += 1
                bare.append(at)
            set_bar(ev, ident)
        append(ev)
    try:
        diagram = validate(events)
    except DiagramError as err:
        if err.event_index is not None:
            err.span = _span(data, err.event_index)
        raise
    # every run lexed as a token, so the text is ASCII and its runs are the
    # events' tokens as written
    table = data.decode().replace(",", " ").split()
    for at in bare:  # a bare sign reads as '+', a bare T as its assigned id
        table[at] = f"T{events[at].bar_id}" if table[at] == "T" else table[at] + "+"
    diagram.__dict__["_token_table"] = tuple(table)
    return diagram


def _span(data: bytes, at: int) -> SourceSpan:
    """The span of the run at token position ``at``, found by lexing again:
    spans are needed only on the way out with an error."""
    return SourceSpan(*list(_LEX_RE.finditer(data))[at].span())


def token(event: Event) -> str:
    """Canonical token for one event (explicit sign and bar id)."""
    if isinstance(event, ClassicalPass):  # ``_value_``: ``.value`` is a property call per read
        return f"{event.strand._value_}{event.crossing_id}{event.sign._value_}"
    if isinstance(event, VirtualPass):
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

    A diagram from ``parse`` holds it from the start, split from the lexed
    text.  Any other diagram, one made by ``validate``,
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
    ``Schedule``, and a non-empty step list requires a plan (the diagram
    supplies the event tokens) and ``Step`` entries whose dancer ids and
    event indices are ints (not bools), whose event indices lie in
    ``0..m-1`` and whose facings are ``Facing`` members; otherwise
    ``ValueError`` (see ``Schedule._columns``).

    Each step is formatted from one fixed template, reading its dancer,
    event index and facing bit from the schedule's columns, which hold ints;
    an event's cell (its index and token) and a dancer's head (its id) are
    formatted once per call, the heads for the dancer ids present, whatever
    their range; canonical tokens match ``[OUVT][0-9]+[+-]?``, so they never
    need JSON escaping.  One module-level ``json.JSONEncoder`` writes the
    rest.
    """
    _check_member("schedule", schedule, Schedule)
    dancers, events, facings = schedule._columns()
    plan = schedule.plan
    tail: dict = {"feasible": schedule.feasible}
    if plan is not None:
        plan_obj: dict = {"points": list(plan.points), "k": plan.k, "rule": plan.rule.value}
        if plan.facings is not None:
            plan_obj["facings"] = [_FACING_NAMES[f] for f in plan.facings]
        tail["plan"] = plan_obj
    cells = (
        [f'{e},"event":"{tok}","facing":"' for e, tok in enumerate(_tokens(plan.diagram))]
        if dancers else []
    )
    heads = {d: f',"dancer":{d},"event_index":' for d in set(dancers)}
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

    As in ``trace_to_json``, the schedule must be a ``Schedule``, and one
    with steps needs its plan, which gives the lanes, the start facings and
    the event labels, and ``Step`` entries with int dancer ids and event
    indices, event indices in ``0..m-1`` and ``Facing`` facings; otherwise
    ``ValueError``.  A step whose dancer has no lane is left out.
    """
    _check_member("schedule", schedule, Schedule)
    dancers, events, facings = schedule._columns()
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
        if 0 <= d < lanes:
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
