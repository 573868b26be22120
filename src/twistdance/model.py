"""Core diagram model: events on a closed oriented curve.

A twisted virtual Gauss code is read along the knot as a cyclic sequence of
events: classical crossing passes (over or under strand, signed), virtual
crossing passes, and twist bars.  A ``Diagram`` enforces the structural
grammar when it is built, by every route (see there), and
``validate(events)`` is ``Diagram(events)``; ``paths_of`` splits the cycle
at a set of initial points.

Every walk along the cycle is cut by ``_walks``, one slice per point of the
cycle repeated: a path (one lap), a dancer's route over k consecutive paths
(``scheduler.routes_of``), and the same walks over any per-event table in
place of the events, such as the scheduler's ``(slot, delta)`` steps.

Gaps are the positions between consecutive events where an initial point may
sit: gap ``g`` lies immediately before event ``g``.  The empty diagram (the
bare unknot) has a single gap 0.

Classical and virtual crossings are labelled in separate namespaces, so
``O1`` pairs with ``U1`` while ``V1`` pairs with the other ``V1``.  The
pairing of classical passes is decided here alone: a ``Diagram`` groups them
once, as it is checked, and keeps the groups as ``Diagram._crossings``,
beside the codec's token table and the scheduler's compiled forms, and the
scheduler numbers its balance slots from them.

The three event classes are frozen dataclasses with slots: an event has no
``__dict__``.  ``codec.parse`` keeps one event per token in a bounded
table and hands the same event object to every diagram that holds that
token, so events may be shared between diagrams, and nothing may rely on
event identity; equality and hash read the fields.  A token not in the
table gets a new event from its class's constructor, and the ``Diagram``
that holds it, not the event's constructor, checks every event.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence, TypeVar, Union

__all__ = [
    "CrossingSign",
    "Strand",
    "ClassicalPass",
    "VirtualPass",
    "TwistBar",
    "Event",
    "Diagram",
    "DiagramError",
    "DuplicateStrand",
    "UnpairedCrossing",
    "SignMismatch",
    "DuplicateBar",
    "DuplicateGap",
    "validate",
    "check_points",
    "path_event_indices",
    "paths_of",
]


class CrossingSign(Enum):
    """Handedness of a classical crossing; stored for fidelity, never read
    by any dance rule."""

    POSITIVE = "+"
    NEGATIVE = "-"


class Strand(Enum):
    OVER = "O"
    UNDER = "U"


@dataclass(frozen=True, slots=True)
class ClassicalPass:
    """One passage through a classical crossing on the given strand."""

    crossing_id: int
    strand: Strand
    sign: CrossingSign = CrossingSign.POSITIVE


@dataclass(frozen=True, slots=True)
class VirtualPass:
    """One passage through a virtual crossing; never restricts a dancer."""

    crossing_id: int


@dataclass(frozen=True, slots=True)
class TwistBar:
    """A tick mark on the strand; flips the facing of any dancer crossing it.

    The id exists only for traceability and has no semantic weight.
    """

    bar_id: int


Event = Union[ClassicalPass, VirtualPass, TwistBar]

_Cycle = TypeVar("_Cycle", tuple, list)  # one entry per event, walked by ``_walks``


class DiagramError(ValueError):
    """An event sequence that is not a valid twisted virtual Gauss code.

    ``event_index`` points at the event where the first violation was
    detected.  A malformed event (see :class:`Diagram`) is refused first,
    with this base class itself; the checks then run in a fixed order
    (strand duplication, crossing pairing, sign agreement, bar uniqueness)
    so every invalid sequence maps to exactly one error class.  ``span`` is
    attached by the codec when the sequence came from text.
    """

    def __init__(self, message: str, event_index: int | None = None) -> None:
        super().__init__(message)
        self.event_index = event_index
        self.span = None


class DuplicateStrand(DiagramError):
    """A classical crossing crossed twice on the same strand."""


class UnpairedCrossing(DiagramError):
    """A classical or virtual crossing id that does not occur exactly twice."""


class SignMismatch(DiagramError):
    """The two passes of one classical crossing carry different signs."""


class DuplicateBar(DiagramError):
    """A twist-bar id that occurs more than once."""


class DuplicateGap(ValueError):
    """Two initial points placed in the same gap."""


@dataclass(frozen=True)
class Diagram:
    """A validated cyclic event sequence; index order is the orientation.

    Every diagram is checked when it is built, by every route: the
    constructor, :func:`validate`, ``codec.parse``, ``dataclasses.replace``,
    a copy, a deep copy, a pickle and ``scheduler.retrograde``.  ``events``
    may be any iterable of events and is kept verbatim, as a tuple.
    ``events`` that are not an iterable, such as ``None``, are refused with
    :class:`DiagramError` itself and no index.  A malformed event is refused
    first, with :class:`DiagramError` itself, at the first such index: an
    object whose type is not exactly ``ClassicalPass``, ``VirtualPass`` or
    ``TwistBar``, an id that is not an ``int`` >= 1 (a ``bool`` is
    refused), or a strand or sign that is not a ``Strand`` or
    ``CrossingSign`` member.  Otherwise the subclass of
    :class:`DiagramError` for the first violated check is raised, in the
    order: DuplicateStrand, UnpairedCrossing (a virtual crossing seen three
    times, then a crossing seen once), SignMismatch, DuplicateBar; each at
    the first index where it fails.

    One pass, ``_groups``, groups the indices of each classical crossing,
    virtual crossing and bar; each group then names its first failure as a
    (check, index) pair, the checks numbered in the order above, and the
    least is raised.

    Three forms derived from the events are kept on it, outside the fields.
    ``_crossings`` holds each classical crossing's two event indices, by
    id, in order of first pass: the classical groups of the check, kept as
    it is built.  The codec keeps the diagram's token table (see
    ``codec._tokens``): ``codec.parse`` sets it from the lexed text, and any
    other diagram gets it once first read.  The scheduler keeps one
    compiled form per crossing rule, its slots numbered from
    ``_crossings``, with the wait-for clauses and live sets its relaxations
    proved (see ``scheduler._Compiled``), made on the first search,
    minimization or survey under that rule.  Equality, hash, repr and
    ``dataclasses.replace`` read the fields alone, and pickling and copying
    carry the events alone: ``__setstate__`` builds the copy as the
    constructor does, so it holds its own ``_crossings`` at once and builds
    its other forms when asked.
    """

    events: tuple[Event, ...]

    def __post_init__(self) -> None:
        try:
            evs = tuple(self.events)
        except TypeError:  # not iterable
            raise DiagramError(f"events must be an iterable of events, got {self.events!r}") from None
        groups = _groups(evs)
        failures: list[tuple[int, int, type[DiagramError], str]] = []  # (check, index, class, message)
        fail = failures.append  # at most once per group
        for kind, by_id in groups.items():
            for ident, at in by_id.items():
                if kind is TwistBar:
                    if len(at) > 1:
                        fail((4, at[1], DuplicateBar, f"twist bar {ident} appears twice"))
                elif len(at) == 1:
                    name = "classical" if kind is ClassicalPass else "virtual"
                    fail((2, at[0], UnpairedCrossing, f"{name} crossing {ident} appears only once"))
                elif kind is VirtualPass:
                    if len(at) > 2:
                        fail((1, at[2], UnpairedCrossing,
                              f"virtual crossing {ident} appears more than twice"))
                else:
                    first, second = evs[at[0]], evs[at[1]]
                    # a crossing has two strands, so its third pass repeats one
                    again = at[1] if second.strand is first.strand else at[2] if len(at) > 2 else None
                    if again is not None:
                        strand = evs[again].strand.name.lower()
                        fail((0, again, DuplicateStrand,
                              f"crossing {ident} passed twice on the {strand} strand"))
                    elif second.sign is not first.sign:
                        signs = f"{first.sign.value} and one signed {second.sign.value}"
                        fail((3, at[1], SignMismatch, f"crossing {ident} has one pass signed {signs}"))
        if failures:
            _, i, error, message = min(failures)  # groups share no index, so no two pairs tie
            raise error(message, i)
        # frozen, so written past ``__setattr__``; each crossing now has two passes
        self.__dict__.update(events=evs, _crossings=groups[ClassicalPass])

    def __getstate__(self) -> dict[str, tuple[Event, ...]]:
        return {"events": self.events}

    def __setstate__(self, state: dict[str, tuple[Event, ...]]) -> None:
        self.__init__(**state)  # checked and paired as the constructor does

    @property
    def gap_count(self) -> int:
        """Number of placement positions: one per event, or 1 when empty."""
        return max(len(self.events), 1)


def validate(events: Iterable[Event]) -> Diagram:
    """The diagram of ``events``: ``Diagram(events)``, which checks them
    (see :class:`Diagram`) and keeps the sequence verbatim, as a tuple."""
    return Diagram(events)


def _groups(evs: Sequence[object]) -> dict[type, dict[int, list[int]]]:
    """The indices of each classical crossing, virtual crossing and bar, by
    class and id: the check of every event alone, which ``Diagram`` and
    ``codec.token`` share.  A malformed event is refused with
    :class:`DiagramError` itself at the first such index: an object whose
    type is not exactly ``ClassicalPass``, ``VirtualPass`` or ``TwistBar``,
    an id that is not an ``int`` >= 1 (a ``bool`` is refused), or a strand
    or sign that is not a ``Strand`` or ``CrossingSign`` member."""
    groups: dict[type, dict[int, list[int]]] = {ClassicalPass: {}, VirtualPass: {}, TwistBar: {}}
    for i, ev in enumerate(evs):
        kind = type(ev)
        if kind is ClassicalPass:
            ident = ev.crossing_id
            if type(ev.strand) is not Strand or type(ev.sign) is not CrossingSign:
                ident = None  # refused with the malformed ids below
        elif kind is VirtualPass:
            ident = ev.crossing_id
        elif kind is TwistBar:
            ident = ev.bar_id
        else:
            raise DiagramError(f"not an event: {ev!r}", i)
        if type(ident) is not int or ident < 1:
            raise DiagramError(
                f"malformed event {ev!r}: ids are ints >= 1, "
                "strands and signs are Strand and CrossingSign members",
                i,
            )
        groups[kind].setdefault(ident, []).append(i)
    return groups


def check_points(diagram: Diagram, points: Iterable[int]) -> tuple[int, ...]:
    """Validate a tuple of initial points: distinct gaps, listed in cyclic order.

    ``points`` must be an iterable and each point an ``int`` gap index (a
    ``bool`` is refused); any violation raises ``ValueError``.

    Cyclic order means that walking the diagram forward from ``points[0]``
    meets the remaining points in list order.  Returns the normalized tuple.
    A ``diagram`` that is not a ``Diagram`` (such as its Gauss-code string)
    raises ``ValueError`` first.
    """
    _check_member("diagram", diagram, Diagram)
    try:
        pts = tuple(points)
    except TypeError:  # not iterable
        raise ValueError(f"points must be an iterable of gap index ints, got {points!r}") from None
    if not pts:
        raise ValueError("at least one initial point is required")
    gaps = diagram.gap_count
    for p in pts:
        if isinstance(p, bool) or not isinstance(p, int):
            raise ValueError(f"gap index must be an int, got {p!r}")
        if not 0 <= p < gaps:
            raise ValueError(f"gap index {p} out of range 0..{gaps - 1}")
    seen: set[int] = set()
    for p in pts:
        if p in seen:
            raise DuplicateGap(f"two initial points share gap {p}")
        seen.add(p)
    offsets = [(p - pts[0]) % gaps for p in pts]
    if any(offsets[i] >= offsets[i + 1] for i in range(len(offsets) - 1)):
        raise ValueError(f"initial points {pts} are not in cyclic order")
    return pts


def _check_bound(name: str, value: int, most: int | None = None) -> None:
    """Refuse a count that is not an ``int`` >= 1 (a ``bool`` included), or
    exceeds ``most``, with ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be an int >= 1, got {value!r}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be in 1..{most}, got {value}")


def _check_member(name: str, value: object, kind: type) -> None:
    """Refuse a value that is not an instance of ``kind``, such as an enum
    member's string value or a diagram's Gauss code, with ``ValueError``."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")


def path_event_indices(diagram: Diagram, points: Iterable[int]) -> list[tuple[int, ...]]:
    """Event indices of each path, in path order.

    Path ``i`` runs from ``points[i]`` up to (excluding events at or after)
    ``points[i+1]``, wrapping cyclically; a single point yields the whole
    cycle starting there.
    """
    pts = check_points(diagram, points)
    return _walks(tuple(range(len(diagram.events))), pts, 1)


def paths_of(diagram: Diagram, points: Iterable[int]) -> list[tuple[Event, ...]]:
    """The event subsequences of each path.

    Concatenating the result in order reproduces the event cycle starting at
    ``points[0]`` exactly once.
    """
    pts = check_points(diagram, points)
    return _walks(diagram.events, pts, 1)


def _walks(cycle: _Cycle, pts: Sequence[int], laps: int) -> list[_Cycle]:
    """The walk from each of checked points ``pts`` over ``laps`` consecutive
    paths: the entries of ``cycle``, one per event, from gap ``pts[i]`` up to
    gap ``pts[i + laps]`` (mod n), with ``laps // n`` whole turns of the
    cycle besides.  Each walk is one slice of the cycle repeated, so a walk
    that wraps past the last event needs no branch.  The empty diagram has
    one empty walk per point."""
    m, n = len(cycle), len(pts)
    if not m:
        return [cycle] * n
    turns = laps // n
    ring = cycle * (turns + 2)  # a walk starts in the first copy and is shorter than turns + 1
    return [ring[p : p + (pts[(i + laps) % n] - p) % m + m * turns] for i, p in enumerate(pts)]
