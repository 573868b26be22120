"""Minimization and enumeration over placements.

``min_dancers`` finds the least dancer count (then lap count, then
placement) that makes a fixed diagram danceable within the given bounds;
``survey`` tabulates every placement at one (n, k).  Feasibility is
constant in k past the facing gate (see ``scheduler``).  Deadlock is
monotone in the point set: a new point can only cut wait-for edges (see
``scheduler``), so a placement that does not deadlock keeps not
deadlocking as points are added.  The facing gate at a bounded k is not
monotone in n, so the n bound is exhausted rather than pruned.  Iteration
orders are fixed, making both results deterministic.

Each call takes its diagram's one ``_Compiled`` under the crossing rule,
compiled on the diagram's first call under that rule and kept on it
(``_Compiled.of``), walks the n-placements in ascending order with its
``placements``, and asks each placement what ``schedule_search`` asks of
one plan, in the same order: the facing gate on its path parities t, then
``deadlocks``.  That instance keeps each wait-for clause and each live set
a relaxation proves, so a solve request, ``min_dancers`` under both dance
rules and then ``survey`` on one diagram, relaxes each point set at most
once between its three calls (see ``_Compiled``).  The forward gate is the
matching gate, the forward rule being the matching rule with every point
designated forward; ``_gate`` is that test for a placement's one row when
facings are not enumerated.  At a fixed (n, k) the gate reads a placement
only through t, of which there are at most 2**n, and the walk hands each
placement beside what the caller makes of its t, made once per distinct t.
``survey`` passes its row templates: the rows of a placement depend on it
only through t, so they are built once per distinct t as ``(facings, gate
passes)`` pairs, every placement that has t shares them, and its rows
share its one Deadlock verdict.  ``min_dancers`` passes the least lap
count whose gate passes t.  Deadlock is asked where the relaxation would
be: in ``survey`` only past the gate, and in ``min_dancers`` only of a
placement whose least passing k is below the best so far.

``min_dancers`` returns the first feasible row of the surveys at (1, 1),
(1, 2), ..., (n_max, k_max), and searches that one placement for its
witness, but it walks the n-placements once per n.  Deadlock reads neither
the facings nor k, so at one n the first feasible row is at the least k
whose gate some placement that does not deadlock passes, and at that k it
is the first such placement.  So each distinct t is gated at k = 1, 2, ...
up to its first passing k, which is at most 2n by Facts 1 and 2 (see
``facing``): the work does not grow with k_max.  Deadlock is asked only
of a placement whose k is below the best so far, and a hit at the floor
ends the pass: no placement passes either gate at a k below it.  The
floor is 1 when the total twist-bar parity T is 0 and 2 * (n & -n)
otherwise, the least k with (k / gcd(n, k)) * T even (Fact 1; the
forward gate is stricter).
The rows scanned up to the hit are counted, not built: (k - 1) *
C(gaps, n) + index + 1 at a hit, k_max * C(gaps, n) at an n without one.

``survey`` keeps the rows it builds in ``_ROWS``, one module-level table
shared by every survey in the process and bounded by ``_ROW_CAP``, as
``codec`` keeps events.  A placement's rows depend only on the placement,
its row template and its one Deadlock verdict, so the table maps each
template to two maps, for the live and the deadlocked verdict, from a
placement tuple to the tuple of its rows, and to the template itself.
``survey`` looks its template up once per distinct t and then each
placement with one dict read.  The rows of a placement not found are
built where it is missed, from the template the table holds, so rows
built under one template share its facing tuples; a row is feasible when
the gate passes it and the placement does not deadlock, and its reason is
``FACING_PARITY`` when the gate refuses it, else ``DEADLOCK`` when the
placement deadlocks, else None.  ``survey`` makes each such row with
``object.__new__`` and fills its four fields through ``SurveyRow``'s slot
descriptors, which is what the frozen dataclass ``__init__`` does through
``object.__setattr__`` at about twice the cost; the rows are
``SurveyRow``s all the same.  Then ``_keep`` takes ``_ROWS_LOCK`` and adds
the placement's rows, with the template if the table lacks it, while they
fit under the cap together, counting only what it inserted.  A survey that
builds no row takes no lock.  What the table holds never changes a
survey's rows.  Rows are frozen values, and two surveys may return the
same row object: nothing may rely on row identity.  ``survey`` counts its
rows by arithmetic first and refuses more than ``SURVEY_ROW_LIMIT``.

With k free, the number of dancers a diagram needs, its danceability
number, is the least n with an n-placement that does not deadlock:
Deadlock reads neither the facings nor k, and at k = 2n every placement
passes the facing gate (Facts 1 and 2, see ``facing``).  So
``min_dancers`` with k_max >= 2 * n_max finds it whenever it is at most
n_max.  Over-first on a diagram is under-first on it with every strand
swapped, and under unrestricted nobody waits, so the number is 1 there.
Three facts bound it under the other two rules, each read off the
wait-for graph (see ``scheduler``): e -> e' exactly when no point lies in
gaps e' + 1, ..., d(e), that is, between e' and d(e).  So the graph of a
placement reads only the cyclic order of the classical passes and the
points.

(i) The number is at most max(c, 1) for c classical crossings.  Points at
the gaps of the c deposits cut every edge, since gap d(e) holds a point;
with no crossing there is no edge, and one point does not deadlock.

(ii) Inserting a twist bar or a virtual pass anywhere never changes it,
so neither does a virtual crossing, two such passes.  Such an event x is
on no edge.  Put each point of a placement of the diagram D without x at
the gap of D + x before the same event: the points keep their number and
their places among the classical passes, so the graph is the same, and
number(D + x) <= number(D).  Deleting x merges the two gaps beside it, and
no classical pass lies between them, so a placement of D + x maps to one
of D with at most as many points and the same graph: number(D) <=
number(D + x).  So a twisted virtual diagram needs as many dancers as its
classical passes alone; twist bars change only the least lap count.

(iii) Inserting one classical crossing c anywhere, either strand first,
raises it by 0 or 1.  Deleting c's passes maps a placement of D + c to one
of D as in (ii), whose graph is that of D + c less c's consuming event u
and its edges; a subgraph of an acyclic graph is acyclic, so number(D) <=
number(D + c).  Conversely, take a placement of D at n = number(D) that
does not deadlock, keep each point before the same event, and add one at
the gap right after u.  Then u ends its arc, so no edge e -> u exists,
which needs u before d(e) in one arc, and u is on no cycle; the edges
among D's consuming events are those of D or fewer, so no cycle avoids u
either, and number(D + c) <= n + 1.  So the number of a sub-diagram on
some of the crossings is a lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb
from threading import Lock

from .facing import Facing, _matching_solutions, matching_solve
from .model import Diagram, _check_bound, _check_member
from .scheduler import (
    CrossingRule,
    DancePlan,
    InfeasibleReason,
    RuleKind,
    Schedule,
    _Compiled,
)

__all__ = ["SURVEY_ROW_LIMIT", "SolveReport", "SurveyRow", "min_dancers", "survey"]

SURVEY_ROW_LIMIT = 2**22
"""The most rows one ``survey`` call builds.  It counts rows, not bytes:
``tracemalloc`` reads about 74 bytes per returned row when facings are
enumerated (7 dancers on 14 gaps), the 2**n rows of a placement sharing
its placement tuple, so about 310 MB at the limit, and about 195 bytes per
row otherwise (10 dancers on 20 gaps, under either dance rule), so about
820 MB, on CPython 3.11.  Beside them, rows are kept in the table of built
rows up to ``_ROW_CAP``, at most about 9 MB (see there).  It admits every
placement and facing assignment of 8 dancers on 16 gaps (3,294,720 rows);
a call that would build more is refused before it builds any."""


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a bounded minimization.

    ``plan``/``schedule`` hold the first feasible hit in lexicographic
    (n, k, placement) order, or None when the bounds were exhausted; the
    schedule is the hit's witness ``Schedule``, never an ``Infeasible``,
    since only a plan that passed the facing gate and does not deadlock is
    searched (see ``_Compiled.witness``).
    ``n_searched`` and ``k_searched`` are ``(1, n_max)`` and ``(1, k_max)``
    when the bounds were exhausted, and ``(1, n)`` and ``(1, k)`` of the hit
    otherwise.  The hit is the first feasible row of ``survey`` at (1, 1),
    (1, 2), ..., (n_max, k_max) in turn, and ``placements_tried`` counts the
    rows scanned, one per (n, k, placement), the hit included.  They are
    counted, not examined: every k up to ``k_max`` at each smaller n is in
    the count, although no lap count past 2n is tried (see the module
    docstring).
    """

    plan: DancePlan | None
    schedule: Schedule | None
    n_searched: tuple[int, int]
    k_searched: tuple[int, int]
    placements_tried: int

    @property
    def feasible(self) -> bool:
        return self.plan is not None


@dataclass(frozen=True, slots=True)
class SurveyRow:
    """One row of ``survey``: a placement, the facings it is tried with
    (None under the forward rule), and its verdict.  Rows are frozen
    values, stored where a survey misses them in a table shared by every
    survey in the process, under its lock and within its bound, and two
    surveys may return the same row object: nothing may rely on row
    identity."""

    placement: tuple[int, ...]
    facings: tuple[Facing, ...] | None
    feasible: bool
    reason: InfeasibleReason | None


# a survey row before its verdict: the facings it is tried with, and whether
# the facing gate passes them
_Row = tuple[tuple[Facing, ...] | None, bool]
_Rows = dict[tuple[int, ...], tuple[SurveyRow, ...]]  # each placement's rows, by its tuple
# the rows kept under one row template, live then deadlocked, and the template
# itself, whose facing tuples every row built under it shares
_Kept = tuple[_Rows, _Rows, tuple[_Row, ...]]

_ROWS: dict[tuple[_Row, ...], _Kept] = {}  # a row template -> its kept rows
_ROWS_LOCK = Lock()  # held to add templates and rows and count them
_ROW_CAP = 2**15
"""The most rows and template pairs ``_ROWS`` keeps: ``_rows_held`` counts
each row kept and, for each template kept, its ``(facings, gate passes)``
pairs, as many as one placement's rows.  A survey stores a placement's
rows where it misses them, under ``_ROWS_LOCK``, while the count stays
within the cap.  A template the table lacks is admitted only with the
rows of the placement that missed it, in one check that counts both, so
the table never spends room on a template no row uses.  One pass of the
solve-survey benchmark over its 540 seed-1 items keeps 17,100 rows of
2,363 placements and 9 templates of 56 pairs, and answers 95.5 % of its
52,761 placements from the table; the cap holds that about twice over.
Clearing that table frees about 92 bytes per row (1.57 MB) by
``tracemalloc`` on CPython 3.11.  Full, it holds about 2.7 MB with the
rows of 7 dancers on 14 gaps with their facings enumerated and about 9 MB
with the single rows of 10-dancer placements, whose tuples it then holds
alone."""
_rows_held = 0  # the rows and template pairs in ``_ROWS``, counted under its lock


def _keep(template: tuple[_Row, ...], dead: bool, placement: tuple[int, ...], made: tuple[SurveyRow, ...]) -> None:
    """Add the rows a survey just built for a placement with this row
    template and Deadlock verdict to ``_ROWS``, with the template if the
    table lacks it, while they fit under ``_ROW_CAP`` together.  Only what
    is inserted is counted: rows or a template another survey added first
    are not counted again."""
    global _rows_held
    with _ROWS_LOCK:
        kept = _ROWS.get(template)
        # a template the table lacks is counted with these rows: as many pairs as rows
        width = len(made) * (2 if kept is None else 1)
        if _rows_held + width <= _ROW_CAP:
            if kept is None:
                kept = _ROWS[template] = {}, {}, template
            if kept[dead].setdefault(placement, made) is made:
                _rows_held += width


def _gate(t: tuple[int, ...], k: int, matching: bool) -> _Row:
    """The one row of a placement with path parities t at lap count k when
    facings are not enumerated: its solved facings under the matching rule
    and None under the forward rule, and whether the facing gate passes.
    ``matching_solve`` seeds every orbit forward, so its least solution is
    all forward exactly when the forward gate passes."""
    facings = matching_solve(t, k)
    return (facings if matching else None), facings is not None and (matching or not any(facings))


def min_dancers(
    diagram: Diagram,
    rule: RuleKind = RuleKind.FORWARD,
    crossing_rule: CrossingRule = CrossingRule.OVER_FIRST,
    *,
    k_max: int,
    n_max: int,
) -> SolveReport:
    """Smallest feasible (n, k, placement) in lexicographic order.

    Placements are the size-n gap subsets in ascending tuple order (each
    cyclic placement enumerated once, canonicalized by its starting index).
    Under the matching rule the facings of each candidate come from
    ``matching_solve``.  ``k_max`` and ``n_max`` must be ints >= 1, ``n_max``
    may not exceed the diagram's gap count, the diagram must be a
    ``Diagram`` and the two rules must be members of their enums; otherwise
    ``ValueError``.  Only the first feasible placement gets a witness, and
    the work does not grow with ``k_max``.
    """
    _check_member("diagram", diagram, Diagram)
    _check_bound("n_max", n_max, diagram.gap_count)
    _check_bound("k_max", k_max)
    _check_member("rule", rule, RuleKind)
    _check_member("crossing_rule", crossing_rule, CrossingRule)
    compiled = _Compiled.of(diagram, crossing_rule)
    matching = rule is RuleKind.MATCHING

    def least(t: tuple[int, ...]) -> tuple[int, tuple[Facing, ...] | None]:
        """The least k in 1..k_max whose gate passes t (k_max + 1 if none),
        and that row's facings; every t passes by k = 2n."""
        gates = ((k, _gate(t, k, matching)) for k in range(1, k_max + 1))
        return next(((k, f) for k, (f, ok) in gates if ok), (k_max + 1, None))

    tried = 0
    for n in range(1, n_max + 1):
        # the least (k, index) of a non-deadlocked placement, with its points
        # and facings; (k_max + 1, -1) if none, which counts every row below
        best = k_max + 1, -1, (), None
        for index, (placement, (k, facings)) in enumerate(compiled.placements(n, least)):
            if k < best[0] and not compiled.deadlocks(placement):
                best = k, index, placement, facings
                if k == (2 * (n & -n) if compiled.prefix[-1] else 1):  # no k below passes (Fact 1)
                    break
        k, index, placement, facings = best
        tried += (k - 1) * comb(compiled.gaps, n) + index + 1
        if k <= k_max:
            plan = DancePlan(diagram, placement, k, rule, facings, crossing_rule)
            return SolveReport(plan, compiled.witness(plan), (1, n), (1, k), tried)
    return SolveReport(None, None, (1, n_max), (1, k_max), tried)


def survey(
    diagram: Diagram,
    rule: RuleKind,
    crossing_rule: CrossingRule,
    n: int,
    k: int,
    *,
    enumerate_facings: bool = False,
) -> list[SurveyRow]:
    """One row per canonical placement at fixed (n, k).

    Under the matching rule each placement is tried with its solved facing
    assignment; with ``enumerate_facings`` every one of the 2**n assignments
    gets its own row instead (distinct facings over one placement can differ
    at the facing gate, so the exhaustive view matters).  The forward rule
    does not read ``enumerate_facings``, and its rows' facings are None.
    Rows whose facings the placement's path parities refuse are recorded as
    ``FACING_PARITY``; the other rows of a placement share its verdict, from
    the scheduler's linear deadlock test with no search.  The 2**n
    assignments are built only when they are enumerated.  ``n`` and ``k``
    must be ints >= 1, ``n`` may not exceed the diagram's gap count, the
    diagram must be a ``Diagram``, the two rules must be members of their
    enums and ``enumerate_facings`` must be a ``bool``; otherwise
    ``ValueError``.  The rows number C(gaps, n), times 2**n
    when facings are enumerated under the matching rule; a survey of more
    than ``SURVEY_ROW_LIMIT`` rows is refused with ``ValueError`` before any
    row is built.
    """
    _check_member("diagram", diagram, Diagram)
    _check_bound("n", n, diagram.gap_count)
    _check_bound("k", k)
    _check_member("rule", rule, RuleKind)
    _check_member("crossing_rule", crossing_rule, CrossingRule)
    _check_member("enumerate_facings", enumerate_facings, bool)
    matching = rule is RuleKind.MATCHING
    enumerated = enumerate_facings and matching
    count = comb(diagram.gap_count, n) * (2**n if enumerated else 1)
    if count > SURVEY_ROW_LIMIT:
        raise ValueError(f"a survey of {count} rows exceeds SURVEY_ROW_LIMIT = {SURVEY_ROW_LIMIT}")
    # each row filled through the slots, bypassing the frozen __init__ (see above)
    new = object.__new__
    set_placement = SurveyRow.placement.__set__
    set_facings = SurveyRow.facings.__set__
    set_feasible = SurveyRow.feasible.__set__
    set_reason = SurveyRow.reason.__set__
    parity, deadlock = InfeasibleReason.FACING_PARITY, InfeasibleReason.DEADLOCK
    rows: list[SurveyRow] = []
    append = rows.append
    compiled = _Compiled.of(diagram, crossing_rule)
    deadlocks = compiled.deadlocks
    every_facing = list(product(Facing, repeat=n)) if enumerated else None

    def template(t: tuple[int, ...]) -> tuple[bool, _Kept]:
        """Whether any row of a placement with path parities t passes the
        gate, and its template's entry in ``_ROWS``, or an empty one beside
        the template when the table lacks it."""
        if every_facing is not None:  # some row passes iff there is a solution
            solutions = _matching_solutions(t, k)
            rows_of_t, any_passes = tuple([(f, f in solutions) for f in every_facing]), bool(solutions)
        else:
            gate = _gate(t, k, matching)
            rows_of_t, any_passes = (gate,), gate[1]
        return any_passes, _ROWS.get(rows_of_t) or ({}, {}, rows_of_t)

    for placement, (any_passes, kept) in compiled.placements(n, template):
        # a placement whose rows all fail the gate is not asked whether it deadlocks
        dead = any_passes and deadlocks(placement)
        made = kept[dead].get(placement)
        if made is not None:
            rows += made
            continue
        start = len(rows)
        live, reason = not dead, deadlock if dead else None
        for facings, passes in kept[2]:
            row = new(SurveyRow)
            set_placement(row, placement)
            set_facings(row, facings)
            set_feasible(row, passes and live)
            set_reason(row, reason if passes else parity)
            append(row)
        _keep(kept[2], dead, placement, tuple(rows[start:]))
    return rows
