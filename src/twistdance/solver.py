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

Each call compiles its diagram once into a ``_Compiled``, which keeps no
answer, and asks each placement what ``schedule_search`` asks of one plan,
in the same order: the facing gate on its path parities, then its
``waits``.  The forward gate is the matching gate, the forward rule
being the matching rule with every point designated forward; ``_gate`` is
that test for a placement's one row when facings are not enumerated.  At a
fixed (n, k) the gate reads a placement only through its path parities t,
of which there are at most 2**n.

Both calls read the n-placements through one walk, ``_placements``, in
ascending order, each beside what the caller makes of its t.  t is fixed
by the bar-prefix parities at the points (``prefix[p]`` at each point p,
see ``facing``), which a second ``combinations`` over the prefix yields
beside each placement, so the walk runs ``_parities`` once per distinct
tuple of those bits and the caller's function of t once per distinct t,
at most 2**n times each.  ``survey`` passes its row templates: the rows of
a placement depend on it only through t, so they are built once per
distinct t as ``(facings, gate passes)`` pairs, every placement that has t
shares them, and its rows share its one Deadlock verdict.  ``min_dancers``
passes the least lap count whose gate passes t.

Both calls learn clauses as they go.  When a placement's ``waits`` are
not empty it deadlocks, and its ``cycle``, walked from those same waits
with no second run of the relaxation, names a set of gaps, the clause,
such that every placement of the diagram missing it deadlocks too (see
``scheduler``).  A later placement whose gap mask misses a clause learned
so far is answered Deadlock without the relaxation, at one ``&`` per
clause (``_deadlocks``).  So each placement is relaxed at most once per
call.  The clauses are locals of the call, never kept on the
``_Compiled``, and the answer is the one the relaxation gives, so no row,
plan, witness or count changes.  They are asked where the relaxation
would be: in ``survey`` only past the gate, and in ``min_dancers`` only
of a placement whose least passing k is below the best so far.

``min_dancers`` returns the first feasible row of the surveys at (1, 1),
(1, 2), ..., (n_max, k_max), and searches that one placement for its
witness, but it walks the n-placements once per n.  Deadlock reads neither
the facings nor k, so at one n the first feasible row is at the least k
whose gate some placement that does not deadlock passes, and at that k it
is the first such placement.  So each distinct t is gated at k = 1, 2, ...
up to its first passing k, which is at most 2n by Facts 1 and 2 (see
``facing``): the work does not grow with k_max.  Deadlock is asked only
of a placement whose k is below the best so far, and a hit at k = 1 ends
the pass.  The rows scanned up to the hit are counted, not built:
(k - 1) * C(gaps, n) + index + 1 at a hit, k_max * C(gaps, n) at an n
without one.

``survey`` makes each row with ``object.__new__`` and fills its four fields
through ``SurveyRow``'s slot descriptors, which is what the frozen
dataclass ``__init__`` does through ``object.__setattr__`` at about twice
the cost; the rows are ``SurveyRow``s all the same.  It counts its rows by
arithmetic first and refuses more than ``SURVEY_ROW_LIMIT``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from math import comb
from typing import Callable, Iterator, TypeVar

from .facing import Facing, _matching_solutions, _parities, matching_solve
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
``tracemalloc`` reads about 77 bytes per row when facings are enumerated,
the 2**n rows of a placement sharing its placement tuple, so about 320 MB
at the limit, and about 146 bytes per row otherwise, so about 610 MB.  It
admits every placement and facing assignment of 8 dancers on 16 gaps
(3,294,720 rows); a call that would build more is refused before it builds
any."""


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a bounded minimization.

    ``plan``/``schedule`` hold the first feasible hit in lexicographic
    (n, k, placement) order, or None when the bounds were exhausted.
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
    placement: tuple[int, ...]
    facings: tuple[Facing, ...] | None
    feasible: bool
    reason: InfeasibleReason | None


_T = TypeVar("_T")

# a survey row before its verdict: the facings it is tried with, and whether
# the facing gate passes them
_Row = tuple[tuple[Facing, ...] | None, bool]


def _gate(t: tuple[int, ...], k: int, matching: bool) -> _Row:
    """The one row of a placement with path parities t at lap count k when
    facings are not enumerated: its solved facings under the matching rule
    and None under the forward rule, and whether the facing gate passes.
    ``matching_solve`` seeds every orbit forward, so its least solution is
    all forward exactly when the forward gate passes."""
    facings = matching_solve(t, k)
    return (facings if matching else None), facings is not None and (matching or not any(facings))


def _deadlocks(compiled: _Compiled, placement: tuple[int, ...], clauses: list[int]) -> bool:
    """Whether checked points deadlock.

    A placement whose gaps miss one of the ``clauses`` learned so far
    deadlocks (see ``scheduler``), so it is answered without the
    relaxation.  Any other is asked its ``waits``, one run of the
    relaxation, and if some dancer waits the clause of its ``cycle``,
    walked from those waits, is learned.  The new clause replaces every
    clause that contains it, since a placement that misses one of those
    misses it too; it is never itself contained in one already kept, since
    the placement hits each of those and misses it.
    """
    mask = 0  # bit g set for a point at gap g
    for p in placement:
        mask |= 1 << p
    for clause in clauses:
        if not mask & clause:
            return True
    waits = compiled.waits(placement)
    if waits:
        clause = compiled.cycle(placement, waits)
        clauses[:] = [c for c in clauses if c & clause != clause]
        clauses.append(clause)
    return bool(waits)


def _placements(
    compiled: _Compiled, n: int, of_t: Callable[[tuple[int, ...]], _T]
) -> Iterator[tuple[tuple[int, ...], _T]]:
    """Each n-placement of the compiled diagram in ascending order, beside
    ``of_t(t)`` of its path parities t.

    t is fixed by the bar-prefix parities at the points (see the module
    docstring), which a second ``combinations`` over the prefix yields
    beside each placement, so ``_parities`` runs once per distinct tuple of
    those bits and ``of_t`` once per distinct t, at most 2**n times each.
    """
    of_t = cache(of_t)
    by_bits: dict[tuple[int, ...], _T] = {}
    gaps = compiled.gaps
    for placement, bits in zip(combinations(range(gaps), n), combinations(compiled.prefix[:gaps], n)):
        if bits not in by_bits:
            by_bits[bits] = of_t(_parities(compiled.prefix, placement))
        yield placement, by_bits[bits]


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
    may not exceed the diagram's gap count, and the two rules must be
    members of their enums; otherwise ``ValueError``.  Only the first
    feasible placement gets a witness, and the work does not grow with
    ``k_max``.
    """
    _check_bound("n_max", n_max, diagram.gap_count)
    _check_bound("k_max", k_max)
    _check_member("rule", rule, RuleKind)
    _check_member("crossing_rule", crossing_rule, CrossingRule)
    compiled = _Compiled(diagram, crossing_rule)
    clauses: list[int] = []  # learned in this call, and good for every n
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
        for index, (placement, (k, facings)) in enumerate(_placements(compiled, n, least)):
            if k < best[0] and not _deadlocks(compiled, placement, clauses):
                best = k, index, placement, facings
                if k == 1:
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
    must be ints >= 1, ``n`` may not exceed the diagram's gap count, and the
    two rules must be members of their enums; otherwise ``ValueError``.  The
    rows number C(gaps, n), times 2**n when facings are enumerated under the
    matching rule; a survey of more than ``SURVEY_ROW_LIMIT`` rows is refused
    with ``ValueError`` before any row is built.
    """
    _check_bound("n", n, diagram.gap_count)
    _check_bound("k", k)
    _check_member("rule", rule, RuleKind)
    _check_member("crossing_rule", crossing_rule, CrossingRule)
    matching = rule is RuleKind.MATCHING
    enumerated = enumerate_facings and matching
    count = comb(diagram.gap_count, n) * (2**n if enumerated else 1)
    if count > SURVEY_ROW_LIMIT:
        raise ValueError(f"a survey of {count} rows exceeds SURVEY_ROW_LIMIT = {SURVEY_ROW_LIMIT}")
    refused = (False, InfeasibleReason.FACING_PARITY)
    decided = {False: (True, None), True: (False, InfeasibleReason.DEADLOCK)}
    # each row filled through the slots, bypassing the frozen __init__ (see above)
    new = object.__new__
    set_placement = SurveyRow.placement.__set__
    set_facings = SurveyRow.facings.__set__
    set_feasible = SurveyRow.feasible.__set__
    set_reason = SurveyRow.reason.__set__
    rows: list[SurveyRow] = []
    append = rows.append
    compiled = _Compiled(diagram, crossing_rule)
    clauses: list[int] = []  # learned in this call
    every_facing = list(product(Facing, repeat=n)) if enumerated else None

    def template(t: tuple[int, ...]) -> tuple[list[_Row], bool]:
        """The rows of a placement with path parities t, and whether any
        passes the gate."""
        if every_facing is not None:  # some row passes iff there is a solution
            solutions = _matching_solutions(t, k)
            return [(f, f in solutions) for f in every_facing], bool(solutions)
        gate = _gate(t, k, matching)
        return [gate], gate[1]

    for placement, (rows_of_t, any_passes) in _placements(compiled, n, template):
        # a placement whose rows all fail the gate is not asked whether it deadlocks
        verdict = decided[any_passes and _deadlocks(compiled, placement, clauses)]
        for facings, ok in rows_of_t:
            feasible, reason = verdict if ok else refused
            row = new(SurveyRow)
            set_placement(row, placement)
            set_facings(row, facings)
            set_feasible(row, feasible)
            set_reason(row, reason)
            append(row)
    return rows
