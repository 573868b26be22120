"""Dance scheduling: feasibility search over dancer interleavings.

A plan fixes a diagram, n initial points (one dancer per gap), a lap count
k (each dancer walks the k consecutive paths after its start point), a dance
rule (forward or matching) and a crossing rule.  A dance is a strict
linearization: dancers take their next events one at a time, and classical
crossings constrain the order.

Under the over-first rule, an under-strand pass of crossing c is allowed
only while the completed over-passes of c outnumber the completed
under-passes: each over pass deposits one permission and each under pass
consumes one, aggregated over all dancers.  The under-first rule is the
mirror image; the unrestricted rule never blocks.  Virtual passes and twist
bars never block under any rule.

The forward rule is the matching rule with every initial point designated
forward, so past plan construction the dance rule is read only through
``DancePlan.designated``.  Facing requirements are pure parity constraints
(see ``facing``) and are checked before any search, so an infeasible verdict
distinguishes a facing mismatch from a scheduling deadlock.

Past the facing gate, Deadlock does not depend on the lap count: a plan
deadlocks at k exactly when ``_waiting``, a relaxation that lets a consuming
step run once some deposit of its crossing has been reached by anyone and
spends nothing, leaves a dancer waiting on its n arcs alone (k = 1).  The
proof has three parts.  Write arc a for the path from point a to point
a + 1, so that at lap count k dancer a walks arcs a, a + 1, ..., a + k - 1
(mod n).

(a) At k = 1 the relaxation is exact.  The arcs partition the cycle, so
each event is walked once, and each classical crossing has one deposit and
one consumer.  The order in which the relaxation runs the steps is a real
schedule: a consuming step comes after the one deposit of its crossing,
which nobody else can spend.  So if nobody is stuck, the plan is feasible.

(b) ``_waiting`` answers the same at k as at 1.  Let R be the slots reached
at k = 1, and run the relaxation at k against R.  Dancer a walks arc a
exactly as at k = 1.  If it completes arc a, it walks arc a + 1 exactly as
dancer a + 1 did at k = 1, and so on.  Every deposit it makes was made at
k = 1, so R is closed under the run at k and the slots reached at k lie in
R.  They also contain R, since each dancer's first arc is its arc at k = 1.
So the reached set is R at every k: a dancer whose first arc is stuck at
k = 1 stays stuck, and if no arc is stuck every dancer completes all k of
its arcs.

(c) Feasible at 1 implies feasible at k.  Replay a 1-lap schedule k times:
in phase j the move that dancer a made is made by dancer a - j (mod n),
who walks arc a as its j-th arc.  Each phase walks every event once, so it
starts and ends with every balance 0 and repeats the 1-lap balances
exactly.

A dancer stuck in the relaxation is stuck in every real schedule (see
``_waiting``), so Deadlock(k) iff stuck(k) iff stuck(1) iff Deadlock(1).
``_Compiled.waits`` therefore decides Deadlock with one linear pass over
the arcs, whatever k is, answered as ``Infeasible(DEADLOCK, 1)``, the 1
counting the root.

Deadlock is a cycle of waits.  Fix the crossing rule, and for a consuming
event e write d(e) for the deposit of e's crossing.  Under a placement P
draw e -> e' when the consuming event e' lies in the arc that holds d(e),
before d(e); equivalently, no point of P lies in gaps e' + 1, ..., d(e),
read cyclically.  Then P deadlocks iff this wait-for graph has a cycle.
By (a), at k = 1 a consuming event e runs in the relaxation iff d(e) is
reached, and d(e) is reached iff every consuming event before it in its
arc runs; ``_waiting`` computes the least fixpoint of these two rules.  If
the graph has a cycle, each event on it can run only after the next one
has, so none of them runs and some dancer is stuck.  Conversely, if a
dancer waits at e, then d(e) is not reached, so the dancer of the arc that
holds d(e) waits at a consuming event e' before d(e): e -> e', and e'
waits too.  So from any waiting event the edges can be followed forever
through waiting events, and in a finite graph that walk closes a cycle.
``_Compiled.wait_cycle`` is the walk, one step per arc, which walks the
waits it is given: the ``waits`` of the same points, so the verdict and
its cycle come from one run of the relaxation.  The cycle's clause, which
``_Compiled.deadlocks`` learns, is the union of the gaps e' + 1, ..., d(e)
over its edges.  The clause speaks for every placement of the diagram: a
placement with no point in it keeps each edge of the cycle, so it
deadlocks too.

Only a feasible plan is searched, for its witness: a depth-first search
over the vector of per-dancer route positions, memoizing states proven
dead.  Successors are tried in dancer-id order, so it yields the
lexicographically least witness interleaving.  A plan with no balance
slot (the unrestricted rule, or no classical crossing) is not searched:
nothing can block, so that witness is each dancer's whole route in
dancer-id order (see ``_Compiled.witness``).

A safe move (an over pass under over-first, an under pass under under-first,
a virtual pass, a twist bar, any step under unrestricted) is never blocked
and only raises balances, so it can be moved to the front of any completion:
a state is feasible exactly when the state after any of its safe moves is.
The search therefore remembers dead states by the state reached after every
safe move has run, named by how many consuming steps each dancer has taken,
and once one safe move from a state has failed it tries no further dancer
there.  Only dead states are pruned, so the witness stays the
lexicographically least one.

``schedule_search``, ``min_dancers`` and ``survey`` take the diagram's one
compiled form under the crossing rule, kept on the diagram (see
``_Compiled``), and ask each placement the same three questions in order:
the facing gate on its path parities, read off the compiled bar prefix by
``facing._parities``, its ``waits`` on its arcs (never on the facings or
k), and, for a feasible plan only, its ``witness``, the one place where
routes are built and searched.

Every schedule holds its move columns, three int sequences with one
entry per step: the dancer, the event index and the facing bit after the
step (0 forward, 1 backward).  A schedule built from its steps has them
read off the steps, once, when its constructor has checked them.  A
witness has them read off the search's dancer sequence in one loop with no
object per step: each move takes the next event of its dancer's route and
XORs that event's twist-bar flag, read off the compiled bar prefix, into
the dancer's facing bit; its ``Schedule.steps`` is derived from them once,
on first read.  The JSON trace and the SVG timeline format from the
columns alone.

``oracle_schedule`` answers the same question by brute force over
interleavings, with no memoization and with crossing counts recounted from
the raw prefix; it exists to cross-check the search and is kept deliberately
independent of it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import combinations, count
from operator import xor
from typing import Callable, Iterable, Iterator, Sequence, TypeVar, Union

from .facing import Facing, _bar_prefix, _parities, matching_check
from .model import (
    ClassicalPass,
    Diagram,
    Strand,
    TwistBar,
    _check_bound,
    _check_member,
    _walks,
    check_points,
)

__all__ = [
    "CrossingRule",
    "RuleKind",
    "InfeasibleReason",
    "DancePlan",
    "Step",
    "Schedule",
    "Infeasible",
    "InstanceTooLarge",
    "ORACLE_STEP_LIMIT",
    "routes_of",
    "schedule_search",
    "oracle_schedule",
    "retrograde",
    "retrograde_points",
    "verify_schedule",
]


class CrossingRule(Enum):
    OVER_FIRST = "over-first"
    UNDER_FIRST = "under-first"
    UNRESTRICTED = "unrestricted"


class RuleKind(Enum):
    FORWARD = "forward"
    MATCHING = "matching"


class InfeasibleReason(Enum):
    FACING_PARITY = "FacingParity"
    DEADLOCK = "Deadlock"


@dataclass(frozen=True)
class DancePlan:
    """A diagram with placement, lap count, dance rule and crossing rule.

    ``diagram`` must be a ``Diagram``, ``k`` an ``int`` >= 1 (a ``bool`` is
    refused), the points ints accepted by ``check_points``, and both rules
    members of their enums; otherwise ``ValueError``.
    ``facings`` designates one facing per initial point, an iterable of
    ``Facing`` values, and is required exactly when the rule is matching;
    ``designated`` reads the forward rule as every point designated
    forward.
    """

    diagram: Diagram
    points: tuple[int, ...]
    k: int
    rule: RuleKind = RuleKind.FORWARD
    facings: tuple[Facing, ...] | None = None
    crossing_rule: CrossingRule = CrossingRule.OVER_FIRST

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", check_points(self.diagram, self.points))
        _check_bound("lap count", self.k)
        _check_member("rule", self.rule, RuleKind)
        _check_member("crossing_rule", self.crossing_rule, CrossingRule)
        if self.rule is RuleKind.MATCHING:
            if self.facings is None:
                raise ValueError("matching rule needs facings, one per initial point")
            try:
                object.__setattr__(self, "facings", tuple(self.facings))
            except TypeError:  # not iterable
                raise ValueError(f"facings must be Facing values, got {self.facings!r}") from None
            if len(self.facings) != len(self.points):
                raise ValueError(
                    f"{len(self.facings)} facings for {len(self.points)} points"
                )
            if not all(isinstance(f, Facing) for f in self.facings):
                raise ValueError(f"facings must be Facing values, got {self.facings!r}")
        elif self.facings is not None:
            raise ValueError("facings are only meaningful under the matching rule")

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def designated(self) -> tuple[Facing, ...]:
        """The facing designated at each initial point: all forward under
        the forward rule."""
        return self.facings if self.facings is not None else (Facing.FORWARD,) * self.n


@dataclass(frozen=True, slots=True)
class Step:
    """One linearized move: a dancer executes the event at ``event_index``.

    ``route_position`` is the step's index within that dancer's own route;
    ``facing_after`` is the dancer's facing once the event is done.
    """

    dancer: int
    route_position: int
    event_index: int
    facing_after: Facing


@dataclass(frozen=True)
class Schedule:
    """A complete linearization of all dancers' routes.

    ``feasible`` is True for constructed witnesses; the CLI also emits
    non-feasible placeholder schedules so infeasible runs still produce a
    trace file.

    The constructor alone decides what a schedule is.  It makes ``steps`` a
    tuple, once, and refuses with ``ValueError``: steps that are not an
    iterable, a ``feasible`` that is not a ``bool``, a plan that is neither
    ``None`` nor a ``DancePlan``, steps without a plan to name their events,
    and, at the first step that has one, an entry that is not a ``Step``, a
    dancer, route position or event index that is not an ``int`` (a
    ``bool`` included), a dancer outside the plan's ``0..n-1``, an event
    index outside the diagram's ``0..m-1`` and a facing that is not a
    ``Facing``.  It then keeps the schedule's move columns (see the module
    docstring), which the JSON trace and the SVG timeline read, so neither
    checks a field again.  Whether the steps follow the plan's routes, its
    facings and its crossing rule is left to ``verify_schedule``.

    A witness from the search is made by ``_from_moves`` from its columns,
    past the constructor, and holds no ``Step``: ``steps`` is built from
    the columns with ``Step``'s own constructor, each route position
    counted per dancer, once, on first read, and then kept.  Equality,
    hash, repr, pickling and ``dataclasses.replace`` go through the fields
    and read ``steps`` as any caller does.
    """

    steps: tuple[Step, ...]
    feasible: bool = True
    plan: DancePlan | None = None

    def __post_init__(self) -> None:
        try:
            steps = iter(self.steps)
        except TypeError:  # not iterable
            raise ValueError(f"steps must be an iterable of Step, got {self.steps!r}") from None
        steps = tuple(steps)  # read once, so a generator is not used up by a check
        object.__setattr__(self, "steps", steps)
        _check_member("feasible", self.feasible, bool)
        plan = self.plan
        if plan is not None:
            _check_member("plan", plan, DancePlan)
        elif steps:
            raise ValueError("a schedule with steps needs its plan to name events")
        columns: tuple[tuple[int, ...], ...] = ((), (), ())
        if steps:
            lanes, m = plan.n, len(plan.diagram.events)
            for s in steps:
                _check_member("step", s, Step)
                # a route position may be any int: its order is ``verify_schedule``'s
                for name, value, bound in [
                    ("dancer", s.dancer, lanes),
                    ("route position", s.route_position, None),
                    ("event index", s.event_index, m),
                ]:
                    if isinstance(value, bool) or not isinstance(value, int):
                        raise ValueError(f"{name} {value!r} is not an int")
                    if bound is not None and not 0 <= value < bound:
                        raise ValueError(f"{name} {value} outside 0..{bound - 1}")
                _check_member("facing", s.facing_after, Facing)
            columns = (
                tuple(s.dancer for s in steps),
                tuple(s.event_index for s in steps),
                tuple(int(s.facing_after) for s in steps),
            )
        object.__setattr__(self, "_move_columns", columns)

    def __getattr__(self, name: str) -> tuple[Step, ...]:
        # reached only for an attribute not set: ``steps`` of a witness not yet read
        columns = self.__dict__.get("_move_columns")
        if name != "steps" or columns is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        positions = [count() for _ in range(self.plan.n)]
        steps = tuple(Step(d, next(positions[d]), e, Facing(f)) for d, e, f in zip(*columns))
        object.__setattr__(self, "steps", steps)
        return steps


def _from_moves(
    plan: DancePlan, routes: list[tuple[int, ...]], moves: list[int], prefix: Sequence[int]
) -> Schedule:
    """The witness whose dancer sequence is ``moves``, as its columns: each
    move takes the next event of its dancer's route and XORs that event's
    twist-bar flag into the dancer's facing bit, which starts at the
    dancer's designated facing.  The flags are read off ``prefix``, the
    diagram's bar prefix (see ``facing``), event e's as
    ``prefix[e] ^ prefix[e + 1]``.  The caller supplies it: the search its
    compiled ``prefix``, the oracle one it builds with ``_bar_prefix``."""
    bars = list(map(xor, prefix, prefix[1:]))
    walks = [iter(route) for route in routes]
    bits = [int(f) for f in plan.designated]  # each dancer's facing bit
    events: list[int] = []
    facings: list[int] = []
    for d in moves:
        e = next(walks[d])
        bits[d] ^= bars[e]
        events.append(e)
        facings.append(bits[d])
    schedule = object.__new__(Schedule)
    schedule.__dict__.update(
        feasible=True, plan=plan, _move_columns=(tuple(moves), tuple(events), tuple(facings))
    )
    return schedule


@dataclass(frozen=True)
class Infeasible:
    """Certified failure: facing parities cannot work, or every reachable
    interleaving deadlocks.

    ``states_explored`` counts the states a deadlocked search entered, the
    root included.  A Deadlock from ``schedule_search`` always has 1, the
    root alone, since the relaxation decides it before any search (see the
    module docstring), and the witness search, run only on feasible plans,
    never answers one; ``oracle_schedule`` reports its own brute-force
    nodes.  It is 0 for a facing-parity failure.
    """

    reason: InfeasibleReason
    states_explored: int = 0


class InstanceTooLarge(ValueError):
    """The brute-force oracle refuses plans beyond its step guard."""


class _SearchExhausted(RuntimeError):
    """The witness search ran out of states on routes the relaxation calls
    feasible, which the module docstring proves cannot happen; ``states``
    counts the states it entered, the root included."""

    def __init__(self, states: int) -> None:
        super().__init__(f"the witness search exhausted {states} states of a feasible plan")
        self.states = states


ORACLE_STEP_LIMIT = 16

_T = TypeVar("_T")

# The strand that spends a permission the other strand deposits; none if unrestricted.
_CONSUMER = {CrossingRule.OVER_FIRST: Strand.UNDER, CrossingRule.UNDER_FIRST: Strand.OVER}


def routes_of(plan: DancePlan) -> list[tuple[int, ...]]:
    """Per-dancer event-index routes: dancer i walks paths i..i+k-1 (mod n).

    A plan that is not a ``DancePlan`` is refused with ``ValueError``."""
    _check_member("plan", plan, DancePlan)
    return _walks(tuple(range(len(plan.diagram.events))), plan.points, plan.k)


def schedule_search(plan: DancePlan) -> Union[Schedule, Infeasible]:
    """Decide the plan and produce a witness schedule or a certified failure.

    A plan that is not a ``DancePlan`` is refused with ``ValueError``.
    The facing gate runs first: a plan whose path parities refuse its
    designated facings is ``Infeasible(FACING_PARITY, 0)`` without a search.

    Arcs and routes are lowered to ``(slot, delta)`` steps: the rule's
    consuming strand of a classical crossing is -1 (it spends a held
    permission), the other strand +1 (it deposits one), and virtual passes,
    twist bars and all steps under the unrestricted rule are ``(0, 0)``.  A
    step runs only when ``delta >= 0 or balance[slot] > 0``; slot 0 stays 0,
    so the ``(0, -1)`` that ends each arc or route never runs.

    Next the relaxation runs on the n arcs at k = 1 (see ``_waiting``).  It
    decides Deadlock at every lap count (see the module docstring), so a
    dancer left waiting there makes the plan ``Infeasible(DEADLOCK, 1)``:
    the 1 counts the root, the only state entered.  No wait-for cycle is
    walked: the verdict is all a plan needs.

    Otherwise the plan is feasible, and ``_Compiled.witness`` builds the
    witness, the lexicographically least feasible dancer-id sequence, by a
    depth-first search when a slot exists.  Balances are pure functions of
    the position vector, so a set of dead states is a sound memo.

    Steps with ``delta >= 0`` are safe: never blocked, and they only raise
    balances, so a state is feasible exactly when the state after any one of
    its safe moves is.  Two uses follow.  The memo key is the state reached
    after all safe moves, named by each dancer's count of consuming steps
    taken and read as one mixed-radix int: a dancer that has taken c waits
    at its (c+1)-th consuming step, the route end counting as one.  A safe
    move leaves the key alone and a consuming move adds the dancer's stride.
    And once the subtree under a safe move fails, the state is dead, so no
    later dancer is tried there.  ``states_explored`` counts the states the
    reduced search enters.
    """
    _check_member("plan", plan, DancePlan)
    compiled = _Compiled.of(plan.diagram, plan.crossing_rule)
    if not matching_check(_parities(compiled.prefix, plan.points), plan.designated, plan.k):
        return Infeasible(InfeasibleReason.FACING_PARITY, 0)
    if compiled.waits(plan.points):
        return Infeasible(InfeasibleReason.DEADLOCK, 1)
    return compiled.witness(plan)


class _Compiled:
    """A diagram compiled once under a crossing rule and applied to any
    number of its placements: its twist-bar ``prefix`` parities (see
    ``facing``) and its ``table``, one ``(slot, delta)`` per event (see
    ``schedule_search``), with the slot count, and each slot's ``deposit``
    and ``consumer`` event index, the chord d(c) -> e(c) of its crossing
    (see the module docstring).  The steps of an arc or a route are its
    walk over the table, cut by ``model._walks`` as paths and routes are
    cut from the events.  Every caller reads a placement's path
    parities off ``prefix`` with ``_parities`` (for the facing gate), then
    asks its ``waits``, then the ``witness`` of a plan that passed both.
    The ``wait_cycle`` of deadlocked points is walked from their ``waits``.

    ``min_dancers`` and ``survey`` walk the n-placements of a diagram with
    ``placements``, in ascending order, each beside what the caller makes
    of its path parities t.  t is fixed by the bar-prefix parities at the
    points (``prefix[p]`` at each point p, see ``facing``), which a second
    ``combinations`` over the prefix yields beside each placement, so the
    walk runs ``_parities`` once per distinct tuple of those bits and the
    caller's function of t once per distinct t, at most 2**n times each.

    They ask Deadlock through ``deadlocks``, which keeps what each
    relaxation proves, as gap masks (bit g for gap g), and answers from it
    where it can.  Deadlock is monotone in the point set: a new point can
    only cut wait-for edges (see the module docstring).  So when a
    placement's ``waits`` are not empty, its ``wait_cycle``, walked from
    those same waits with no second run of the relaxation, names a set of
    gaps, a clause, such that every placement of the diagram missing it
    deadlocks too; and when they are empty, every placement holding a live
    set, points that do not deadlock, does not deadlock either.  A later
    placement whose mask misses a kept clause, or holds a kept live set, is
    answered without the relaxation, at one ``&`` per fact.  So each point
    set is relaxed at most once per instance, and the answer is the one the
    relaxation gives, so no row, plan, witness or count changes.  Each
    relaxation keeps at most one fact, so the kept facts grow only with the
    relaxations run.

    One instance per diagram and crossing rule is kept on the diagram,
    outside its fields, and ``of`` hands it out (see ``model.Diagram``):
    ``schedule_search``, ``min_dancers`` and ``survey`` on one diagram
    compile it once, and a solve request, which asks ``min_dancers`` under
    both dance rules and then ``survey``, shares its clauses and live sets
    between the three calls.  ``schedule_search`` asks ``waits`` once and
    keeps nothing.  An instance keeps only proved facts, each written by
    rebinding its whole list, so threads that share a diagram never read a
    fact that is not proved: an update lost to a race costs a relaxation
    later, never a verdict.
    """

    def __init__(self, diagram: Diagram, crossing_rule: CrossingRule) -> None:
        self.m = len(diagram.events)
        self.gaps = diagram.gap_count
        self.prefix = _bar_prefix(diagram)
        spender = _CONSUMER.get(crossing_rule)
        slots: dict[int, int] = {}  # classical crossing id -> balance slot
        self.table = table = [(0, 0)] * self.m
        # each slot's chord d(c) -> e(c): the event indices of its (slot, 1)
        # and (slot, -1) entries, filled in the same pass; entry 0 stands
        # for no slot
        self.deposit = deposit = [0]
        self.consumer = consumer = [0]
        for e, ev in enumerate(diagram.events if spender is not None else ()):
            if type(ev) is ClassicalPass:
                slot = slots.get(ev.crossing_id)
                if slot is None:  # the crossing's first pass
                    slot = slots[ev.crossing_id] = len(deposit)
                    deposit.append(0)
                    consumer.append(0)
                if ev.strand is spender:
                    table[e] = (slot, -1)
                    consumer[slot] = e
                else:
                    table[e] = (slot, 1)
                    deposit[slot] = e
        self.slot_count = len(slots)
        self.clauses: list[int] = []  # gap masks: points that miss one deadlock
        self.live: list[int] = []  # gap masks: points that hold one do not

    @classmethod
    def of(cls, diagram: Diagram, crossing_rule: CrossingRule) -> _Compiled:
        """The instance kept on ``diagram`` for ``crossing_rule``, compiled
        on first use (see ``model.Diagram``)."""
        kept = diagram.__dict__.setdefault("_compiled", {})
        compiled = kept.get(crossing_rule)
        if compiled is None:
            compiled = kept[crossing_rule] = cls(diagram, crossing_rule)
        return compiled

    def waits(self, points: Sequence[int]) -> dict[int, int]:
        """``_waiting`` on the n arcs of checked points, sorted first: each
        dancer left waiting, numbered by its point's place in ascending
        order, with the slot it waits on.  Empty exactly when the points do
        not deadlock past the facing gate, at every lap count.  Linear in m
        whatever k is (see the module docstring).  Each arc's steps are its
        one-lap walk over the event table (``model._walks``), ended with
        ``(0, -1)``."""
        arcs = [walk + [(0, -1)] for walk in _walks(self.table, sorted(points), 1)]
        return _waiting(arcs, self.slot_count)

    def wait_cycle(self, points: Sequence[int], waits: dict[int, int]) -> list[tuple[int, int]]:
        """A cycle of the wait-for graph of checked points (see the module
        docstring), as its edges ``(e, e')`` in walk order, each e' the e of
        the next edge, walked from ``waits``, the points' own ``waits``; the
        relaxation is not run again.  From the first waiting dancer, each
        step finds the arc that holds d(e) by bisecting the points and moves
        to the event its dancer waits at, until a dancer repeats: at most n
        steps.  A slot's deposit and consuming event are read off
        ``deposit`` and ``consumer``, compiled once, not searched for in
        the table.  Points in any cyclic order name the same arcs, so they
        are sorted first, as ``waits`` sorts them.  Points that do not deadlock wait on
        nothing, and their cycle is empty."""
        if not waits:
            return []
        points = sorted(points)
        deposit, consumer = self.deposit, self.consumer
        walk: list[int] = []  # the dancers walked, in order
        dancer = min(waits)
        while dancer not in walk:
            walk.append(dancer)
            held = deposit[waits[dancer]]
            dancer = (bisect_right(points, held) - 1) % len(points)  # -1: the last arc, which wraps
        loop = [consumer[waits[d]] for d in walk[walk.index(dancer) :]]
        return list(zip(loop, loop[1:] + loop[:1]))

    def placements(
        self, n: int, of_t: Callable[[tuple[int, ...]], _T]
    ) -> Iterator[tuple[tuple[int, ...], _T]]:
        """Each n-placement in ascending order, beside ``of_t(t)`` of its
        path parities t, made once per distinct tuple of prefix bits and
        once per distinct t (see above)."""
        of_t = cache(of_t)
        by_bits: dict[tuple[int, ...], _T] = {}
        gaps = self.gaps
        for placement, bits in zip(combinations(range(gaps), n), combinations(self.prefix[:gaps], n)):
            if bits not in by_bits:
                by_bits[bits] = of_t(_parities(self.prefix, placement))
            yield placement, by_bits[bits]

    def deadlocks(self, points: Sequence[int]) -> bool:
        """Whether checked points deadlock, answered from the facts kept so
        far where one decides them, and otherwise by one relaxation, whose
        outcome is kept as a new fact (see above).

        Points whose gaps miss a kept clause deadlock, and points that hold
        a kept live set do not.  Any others are relaxed: if they deadlock,
        ``_relaxed`` keeps the clause of their wait-for cycle.  If they do
        not, a deletion loop finds a minimal live set inside them: each
        point in ascending order is dropped for good when the points left,
        at least one, do not deadlock, decided from a kept clause or else
        by one relaxation, whose clause is kept when they do.  By
        monotonicity a point kept once stays needed, so the points left
        are a minimal live set, and it is kept.  A new fact replaces each
        kept one of its kind that contains it, since it decides every
        placement that one does.  No kept fact lies inside it: a clause
        there would be missed by the points, a live set there held by
        them, and neither decided them.
        """
        if not self.slot_count:  # nothing ever waits
            return False
        mask = 0  # bit g set for a point at gap g
        for p in points:
            mask |= 1 << p
        for clause in self.clauses:
            if not mask & clause:
                return True
        for live in self.live:
            if live & mask == live:
                return False
        if self._relaxed(points):
            return True
        left = sorted(points)
        for p in sorted(points):
            fewer = [q for q in left if q != p]
            kept = mask & ~(1 << p)
            if fewer and all(kept & clause for clause in self.clauses) and not self._relaxed(fewer):
                left, mask = fewer, kept
        self.live = [live for live in self.live if live & mask != mask] + [mask]
        return False

    def _relaxed(self, points: Sequence[int]) -> bool:
        """Whether checked points deadlock, by one relaxation; when they
        do, the clause of their ``wait_cycle``, the gaps e' + 1, ..., d(e)
        of each of its edges, is kept."""
        waits = self.waits(points)
        if not waits:
            return False
        m, table, deposit, clause = self.m, self.table, self.deposit, 0
        for e, after in self.wait_cycle(points, waits):
            first = after + 1
            span = (deposit[table[e][0]] - first) % m + 1
            gaps = ((1 << span) - 1) << first % m
            clause |= gaps | gaps >> m  # the part past gap m - 1 wraps to gap 0
        clause &= (1 << m) - 1
        self.clauses = [c for c in self.clauses if c & clause != clause] + [clause]
        return True

    def witness(self, plan: DancePlan) -> Schedule:
        """The lex-least witness of a plan of this diagram and crossing rule
        whose points have no ``waits`` and so is feasible, built by
        ``_from_moves`` from the plan's ``routes_of`` and the compiled
        ``prefix``.  This is the one place that chooses how its moves are
        found.  With no slot (the unrestricted rule, or no classical
        crossing) nothing can block, so the search would move dancer 0 to
        its route end, then dancer 1, and so on: each dancer's whole route
        is read off the routes in dancer order, with no table walked.
        Otherwise ``_moves`` searches each route's k-lap walk over the
        event table, ended with ``(0, -1)``."""
        routes = routes_of(plan)
        if not self.slot_count:
            moves = [d for d, route in enumerate(routes) for _ in route]
        else:
            lowered = [walk + [(0, -1)] for walk in _walks(self.table, plan.points, plan.k)]
            moves = _moves(lowered, self.slot_count)
        return _from_moves(plan, routes, moves, self.prefix)


def _waiting(lowered: list[list[tuple[int, int]]], slot_count: int) -> dict[int, int]:
    """Relaxed reachability over lowered routes: each dancer left waiting,
    with the slot it waits on.

    Every dancer runs as far as it can.  A deposit always runs and marks its
    slot reached; a consuming step runs once its slot has been reached by
    anyone, and spends nothing.  Dancers waiting on a slot are woken when it
    is first reached, so the cost is linear in total route length.

    In a real schedule a consuming step needs a positive balance, so some
    deposit of its slot comes first.  Hence no real schedule takes a dancer
    past the point where the relaxation stops it: a dancer left waiting
    short of its route end proves Deadlock.  On the n arcs (k = 1) none
    left waiting proves feasibility at every lap count as well, so the test
    is exact there (see the module docstring), and ``_Compiled.waits``, its
    one caller, runs it only on the arcs.
    """
    reached = [False] * (slot_count + 1)  # slot 0 is never reached
    waiting: dict[int, list[int]] = {}  # slot -> dancers waiting on it
    at = [0] * len(lowered)
    work = list(range(len(lowered)))
    while work:
        d = work.pop()
        steps, p = lowered[d], at[d]
        while True:
            slot, delta = steps[p]
            if delta > 0:
                reached[slot] = True
                if slot in waiting:
                    work += waiting.pop(slot)
            elif delta and not reached[slot]:
                break
            p += 1
        at[d] = p
        if slot:  # slot 0 is the route end
            waiting.setdefault(slot, []).append(d)
    return {d: slot for slot, dancers in waiting.items() for d in dancers}


def _moves(lowered: list[list[tuple[int, int]]], slot_count: int) -> list[int]:
    """The witness search: the lexicographically least dancer-id sequence
    that completes every route, given as its lowered steps, each route
    ended with ``(0, -1)``.  It reads only those steps, never facings, and
    runs only on routes whose arcs leave ``_waiting`` nobody waiting, which
    are feasible (see the module docstring), so it always finds one.  If it
    ever runs out of states, the proof or the code is wrong, and it raises
    ``_SearchExhausted`` with the count of states it entered, the root
    included; no caller turns that into a verdict.

    It runs only when a slot exists (``_Compiled.witness`` answers a plan
    with none), so every route has at least one event and there is a move
    to make.  Every new state is scanned from dancer 0."""
    n = len(lowered)
    total = sum(map(len, lowered)) - n  # the ends never run

    # dancer d's memo stride: the product, over earlier dancers, of their
    # consuming steps plus one, the never-running route end counting as one
    stride = [1]
    for steps in lowered[:-1]:
        stride.append(stride[-1] * sum(delta < 0 for _, delta in steps))

    positions = [0] * n
    balance = [0] * (slot_count + 1)  # slot -> deposits minus consumptions
    dead: set[int] = set()
    moves: list[int] = []
    resume = [0]  # per depth: next dancer id to try at this state
    explored = 1
    key = 0  # mixed-radix count of the consuming steps each dancer has taken

    while True:
        d = resume[-1]
        while d < n:
            slot, delta = lowered[d][positions[d]]
            # a safe move leaves key alone, and key is not dead while dancers are tried here
            if delta >= 0 or (balance[slot] > 0 and key + stride[d] not in dead):
                balance[slot] += delta
                positions[d] += 1
                if delta < 0:
                    key += stride[d]
                explored += 1
                resume[-1] = d + 1
                moves.append(d)
                if len(moves) == total:
                    return moves
                resume.append(0)
                break
            d += 1
        else:
            dead.add(key)
            resume.pop()
            if not moves:
                raise _SearchExhausted(explored)
            d = moves.pop()
            positions[d] -= 1
            slot, delta = lowered[d][positions[d]]
            balance[slot] -= delta
            if delta < 0:
                key -= stride[d]
            else:  # a safe move failed, so its state is dead too
                resume[-1] = n


def oracle_schedule(plan: DancePlan) -> Union[Schedule, Infeasible]:
    """Brute-force reference: try interleavings in lexicographic dancer-id
    order, recounting the crossing prefix rule directly at every step.

    Facing feasibility is likewise re-derived by walking each route and
    counting its twist bars, with no parity-vector algebra.  Guarded to
    ``ORACLE_STEP_LIMIT`` total steps, k * m, refused before any route is
    built; must agree with ``schedule_search`` on every plan within the
    guard.  A plan that is not a ``DancePlan`` is refused with
    ``ValueError``.
    """
    _check_member("plan", plan, DancePlan)
    total = plan.k * len(plan.diagram.events)  # the routes' total length
    if total > ORACLE_STEP_LIMIT:
        raise InstanceTooLarge(
            f"{total} total steps exceeds the oracle guard of {ORACLE_STEP_LIMIT}"
        )
    routes = routes_of(plan)
    events = plan.diagram.events
    n = len(routes)
    k = plan.k
    starts = plan.designated
    for d, route in enumerate(routes):
        flips = sum(1 for idx in route if isinstance(events[idx], TwistBar))
        end = starts[d] if flips % 2 == 0 else starts[d].flipped()
        if end is not starts[(d + k) % n]:
            return Infeasible(InfeasibleReason.FACING_PARITY, 0)

    rule = plan.crossing_rule
    merge: list[int] = []
    positions = [0] * n
    nodes = 0

    def allows(idx: int) -> bool:
        ev = events[idx]
        if not isinstance(ev, ClassicalPass) or rule is CrossingRule.UNRESTRICTED:
            return True
        overs = unders = 0
        for past in merge:
            pev = events[past]
            if isinstance(pev, ClassicalPass) and pev.crossing_id == ev.crossing_id:
                if pev.strand is Strand.OVER:
                    overs += 1
                else:
                    unders += 1
        if rule is CrossingRule.OVER_FIRST:
            return ev.strand is Strand.OVER or overs > unders
        return ev.strand is Strand.UNDER or unders > overs

    def extend() -> list[int] | None:
        nonlocal nodes
        nodes += 1
        if len(merge) == total:
            return []
        for d in range(n):
            if positions[d] < len(routes[d]):
                idx = routes[d][positions[d]]
                if allows(idx):
                    merge.append(idx)
                    positions[d] += 1
                    rest = extend()
                    merge.pop()
                    positions[d] -= 1
                    if rest is not None:
                        return [d] + rest
        return None

    moves = extend()
    if moves is None:
        return Infeasible(InfeasibleReason.DEADLOCK, nodes)
    return _from_moves(plan, routes, moves, _bar_prefix(plan.diagram))


def retrograde(diagram: Diagram) -> Diagram:
    """Orientation reversal: the event order flips, nothing else changes.

    A diagram that is not a ``Diagram`` is refused with ``ValueError``."""
    _check_member("diagram", diagram, Diagram)
    return Diagram(tuple(reversed(diagram.events)))


def retrograde_points(diagram: Diagram, points: Iterable[int]) -> tuple[int, ...]:
    """Map a placement onto the reversed diagram: gap g goes to (m - g) mod m.

    The points are checked first, as a ``DancePlan`` checks them
    (``check_points``).  Returned in ascending order, which is a cyclic
    order of the image set.  The empty diagram's one gap maps to itself.
    """
    pts = check_points(diagram, points)
    gaps = diagram.gap_count
    return tuple(sorted((gaps - p) % gaps for p in pts))


def verify_schedule(schedule: Schedule) -> list[str]:
    """Independently re-check a schedule against its plan.

    A schedule that is not a ``Schedule`` is refused with ``ValueError``.
    The types and ranges of its fields were checked when it was built (see
    ``Schedule``), so what is left is whether it follows its plan.  Returns
    a list of violation descriptions (empty means clean): no plan to verify
    against, per-dancer route completeness and order, facing evolution from
    the rule's start facings with a flip at every twist bar and nowhere
    else, end-facing conformance, and the crossing rule's prefix
    inequality.
    """
    _check_member("schedule", schedule, Schedule)
    problems: list[str] = []
    plan = schedule.plan
    if plan is None:
        return ["schedule carries no plan to verify against"]
    routes = routes_of(plan)
    events = plan.diagram.events
    n = len(routes)

    by_dancer: list[list[Step]] = [[] for _ in range(n)]
    for step in schedule.steps:
        by_dancer[step.dancer].append(step)

    starts = plan.designated
    for d, steps in enumerate(by_dancer):
        route = routes[d]
        if [s.route_position for s in steps] != list(range(len(route))):
            problems.append(f"dancer {d}: route positions not 0..{len(route) - 1} in order")
        if [s.event_index for s in steps] != list(route):
            problems.append(f"dancer {d}: steps do not follow the route")
            continue
        facing = starts[d]
        for s in steps:
            if isinstance(events[s.event_index], TwistBar):
                facing = facing.flipped()
            if s.facing_after is not facing:
                problems.append(
                    f"dancer {d}: facing at route position {s.route_position} "
                    f"should be {facing.letter}"
                )
        designated = starts[(d + plan.k) % n]
        if facing is not designated:
            problems.append(
                f"dancer {d}: ends {facing.letter} at a point designated {designated.letter}"
            )

    rule = plan.crossing_rule
    if rule is not CrossingRule.UNRESTRICTED:
        balance: dict[int, int] = {}
        for t, step in enumerate(schedule.steps):
            ev = events[step.event_index]
            if not isinstance(ev, ClassicalPass):
                continue
            bal = balance.get(ev.crossing_id, 0)
            if rule is CrossingRule.OVER_FIRST and ev.strand is Strand.UNDER and bal <= 0:
                problems.append(f"step {t}: under pass of crossing {ev.crossing_id} unpermitted")
            if rule is CrossingRule.UNDER_FIRST and ev.strand is Strand.OVER and bal >= 0:
                problems.append(f"step {t}: over pass of crossing {ev.crossing_id} unpermitted")
            balance[ev.crossing_id] = bal + (1 if ev.strand is Strand.OVER else -1)

    return problems
