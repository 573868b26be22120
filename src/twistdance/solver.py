"""Minimization and enumeration over placements.

``min_dancers`` finds the least dancer count (then lap count, then
placement) that makes a fixed diagram danceable within the given bounds;
``survey`` tabulates every placement at one (n, k).  Feasibility is
constant in k past the facing gate (see ``scheduler``), still not monotone
in n, so the n bound is exhausted rather than pruned.  Iteration orders are
fixed, making both results deterministic.

Each call compiles its diagram once through the scheduler's compiled path,
the one ``schedule_search`` applies to a single plan.  The forward gate is
the matching gate, the forward rule being the matching rule with every point
designated forward.  At a fixed (n, k) the gate reads a placement only
through its path parities t, of which there are at most 2**n, so each call
decides the gate once per distinct t and shares the answer with every
placement that has it.  Past the gate Deadlock is decided by one linear pass
over a placement's arcs that reads neither the facings nor k, so a
placement is decided at most once per n and all its gate-passing facing
rows share that verdict.  Its path parities do not depend on k either, so
``min_dancers`` reads them once per n as well.  Nothing is searched except
the witness of the first feasible placement of ``min_dancers``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .facing import Facing, _matching_solutions, matching_solve
from .model import Diagram, _check_bound
from .scheduler import (
    CrossingRule,
    DancePlan,
    InfeasibleReason,
    RuleKind,
    Schedule,
    _Compiled,
    _witness,
)

__all__ = ["SolveReport", "SurveyRow", "min_dancers", "survey"]


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a bounded minimization.

    ``plan``/``schedule`` hold the first feasible hit in lexicographic
    (n, k, placement) order, or None when the bounds were exhausted.
    ``n_searched`` and ``k_searched`` are ``(1, n_max)`` and ``(1, k_max)``
    when the bounds were exhausted, and ``(1, n)`` and ``(1, k)`` of the hit
    otherwise, although every k up to ``k_max`` was examined at each smaller
    n; ``placements_tried`` counts every (n, k, placement) combination
    evaluated.
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


def _designated(t: tuple[int, ...], k: int, rule: RuleKind) -> tuple[Facing, ...] | None:
    """The facings a placement with path parities ``t`` is tried with, or
    None when the parities alone refuse the rule, so the search would answer
    ``FACING_PARITY`` without running.  The forward gate is the matching
    gate: ``matching_solve`` seeds every orbit forward, so its least solution
    is all forward exactly when every window parity is 0."""
    facings = matching_solve(t, k)
    return None if rule is RuleKind.FORWARD and facings is not None and any(facings) else facings


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
    ``matching_solve``.  ``k_max`` and ``n_max`` must be ints >= 1, and
    ``n_max`` may not exceed the diagram's gap count; otherwise
    ``ValueError``.  Only the first feasible placement gets a witness.
    """
    gaps = diagram.gap_count
    _check_bound("n_max", n_max, gaps)
    _check_bound("k_max", k_max)
    compiled = _Compiled(diagram, crossing_rule)
    tried = 0
    for n in range(1, n_max + 1):
        # placement -> its path parities, and its verdict past the gate; neither depends on k
        parities: dict[tuple[int, ...], tuple[int, ...]] = {}
        deadlocked: dict[tuple[int, ...], bool] = {}
        for k in range(1, k_max + 1):
            gate: dict[tuple[int, ...], tuple[Facing, ...] | None] = {}  # t -> _designated(t, k, rule)
            for placement in combinations(range(gaps), n):
                tried += 1
                if placement not in parities:
                    parities[placement] = compiled.parities(placement)
                t = parities[placement]
                if t not in gate:
                    gate[t] = _designated(t, k, rule)
                designated = gate[t]
                if designated is None:
                    continue
                if placement not in deadlocked:
                    deadlocked[placement] = compiled.deadlocked(placement)
                if deadlocked[placement]:
                    continue
                routes, moves = compiled.search(placement, k)
                facings = designated if rule is RuleKind.MATCHING else None
                plan = DancePlan(diagram, placement, k, rule, facings, crossing_rule)
                return SolveReport(plan, _witness(plan, routes, moves), (1, n), (1, k), tried)
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
    at the facing gate, so the exhaustive view matters).  Rows whose facings
    the placement's path parities refuse are recorded as ``FACING_PARITY``
    without a search.  The gate is decided once per distinct parity vector:
    which of the 2**n assignments pass, or the solved assignment, is shared
    by every placement with the same path parities, and the 2**n assignments
    are built only when they are enumerated.  Past the gate the verdict
    depends on the placement alone, so each placement is decided at most
    once, by the scheduler's linear deadlock test with no search, and every
    gate-passing facing row shares that verdict.  ``n`` and ``k`` must be
    ints >= 1, and ``n`` may not exceed the diagram's gap count; otherwise
    ``ValueError``.
    """
    gaps = diagram.gap_count
    _check_bound("n", n, gaps)
    _check_bound("k", k)
    compiled = _Compiled(diagram, crossing_rule)

    def verdict(placement: tuple[int, ...]) -> tuple[bool, InfeasibleReason | None]:
        if compiled.deadlocked(placement):
            return False, InfeasibleReason.DEADLOCK
        return True, None

    refused = (False, InfeasibleReason.FACING_PARITY)
    rows: list[SurveyRow] = []
    if rule is RuleKind.MATCHING and enumerate_facings:
        every_facing = list(product((Facing.FORWARD, Facing.BACKWARD), repeat=n))
        # t -> whether each every_facing row passes the gate, or None when none does
        passes: dict[tuple[int, ...], list[bool] | None] = {}
        for placement in combinations(range(gaps), n):
            t = compiled.parities(placement)
            if t not in passes:
                solutions = _matching_solutions(t, k)
                passes[t] = [facings in solutions for facings in every_facing] if solutions else None
            flags = passes[t]
            if flags is None:
                rows += [SurveyRow(placement, facings, *refused) for facings in every_facing]
            else:
                shared = verdict(placement)
                rows += [
                    SurveyRow(placement, facings, *(shared if ok else refused))
                    for facings, ok in zip(every_facing, flags)
                ]
        return rows
    gate: dict[tuple[int, ...], tuple[Facing, ...] | None] = {}  # t -> _designated(t, k, rule)
    for placement in combinations(range(gaps), n):
        t = compiled.parities(placement)
        if t not in gate:
            gate[t] = _designated(t, k, rule)
        designated = gate[t]
        if designated is None:
            rows.append(SurveyRow(placement, None, *refused))
        else:
            facings = designated if rule is RuleKind.MATCHING else None
            rows.append(SurveyRow(placement, facings, *verdict(placement)))
    return rows
