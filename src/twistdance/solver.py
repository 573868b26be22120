"""Minimization and enumeration over placements.

``min_dancers`` finds the least dancer count (then lap count, then
placement) that makes a fixed diagram danceable within the given bounds;
``survey`` tabulates every placement at one (n, k).  Feasibility is
constant in k past the facing gate (see ``scheduler``), still not monotone
in n, so the n bound is exhausted rather than pruned.  Iteration orders are
fixed, making both results deterministic.

Each call compiles its diagram once and asks each placement what
``schedule_search`` asks of one plan, in the same order: the facing gate on
its path parities, then ``deadlocked``, then, for the minimum of
``min_dancers`` only, its ``witness``.  The forward gate is the matching
gate, the forward rule being the matching rule with every point designated
forward.  At a fixed (n, k) the gate reads a placement only through its
path parities t, of which there are at most 2**n, so each call decides the
gate once per distinct t and shares the answer with every placement that
has it.  Past the gate Deadlock is decided by one linear pass over a
placement's arcs that reads neither the facings nor k, so a placement is
decided at most once per n and all its gate-passing facing rows share that
verdict.  Its path parities do not depend on k either, so ``min_dancers``
reads them once per n as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

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
    ``matching_solve``.  ``k_max`` and ``n_max`` must be ints >= 1, ``n_max``
    may not exceed the diagram's gap count, and the two rules must be
    members of their enums; otherwise ``ValueError``.  Only the first
    feasible placement gets a witness.
    """
    gaps = diagram.gap_count
    _check_bound("n_max", n_max, gaps)
    _check_bound("k_max", k_max)
    _check_member("rule", rule, RuleKind)
    _check_member("crossing_rule", crossing_rule, CrossingRule)
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
                facings = designated if rule is RuleKind.MATCHING else None
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
    at the facing gate, so the exhaustive view matters).  Rows whose facings
    the placement's path parities refuse are recorded as ``FACING_PARITY``
    without a search.  The gate is decided once per distinct parity vector
    t: the rows of a placement with parities t, as facings and whether the
    gate passes them, are shared by every placement with the same t, and
    the 2**n assignments are built only when they are enumerated.  Past the
    gate the verdict depends on the placement alone, so each placement with
    a passing row is decided once, by the scheduler's linear deadlock test
    with no search, and every passing row shares that verdict.  ``n`` and
    ``k`` must be ints >= 1, ``n`` may not exceed the diagram's gap count,
    and the two rules must be members of their enums; otherwise
    ``ValueError``.
    """
    gaps = diagram.gap_count
    _check_bound("n", n, gaps)
    _check_bound("k", k)
    _check_member("rule", rule, RuleKind)
    _check_member("crossing_rule", crossing_rule, CrossingRule)
    compiled = _Compiled(diagram, crossing_rule)
    every_facing: list[tuple[Facing, ...]] | None = None
    if rule is RuleKind.MATCHING and enumerate_facings:
        every_facing = list(product((Facing.FORWARD, Facing.BACKWARD), repeat=n))
    # t -> the rows of a placement with path parities t, as (facings, gate
    # passes) pairs, and whether any of them passes
    templates: dict[
        tuple[int, ...], tuple[list[tuple[tuple[Facing, ...] | None, bool]], bool]
    ] = {}
    refused = (False, InfeasibleReason.FACING_PARITY)
    rows: list[SurveyRow] = []
    for placement in combinations(range(gaps), n):
        t = compiled.parities(placement)
        if t not in templates:
            if every_facing is not None:
                solutions = _matching_solutions(t, k)
                template = [(facings, facings in solutions) for facings in every_facing]
            else:
                designated = _designated(t, k, rule)
                facings = designated if rule is RuleKind.MATCHING else None
                template = [(facings, designated is not None)]
            templates[t] = template, any(ok for _, ok in template)
        template, any_passes = templates[t]
        deadlocked = any_passes and compiled.deadlocked(placement)
        shared = (False, InfeasibleReason.DEADLOCK) if deadlocked else (True, None)
        rows += [
            SurveyRow(placement, facings, *(shared if ok else refused)) for facings, ok in template
        ]
    return rows
