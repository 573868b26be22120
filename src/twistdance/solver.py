"""Minimization and enumeration over placements.

``min_dancers`` finds the least dancer count (then lap count, then
placement) that makes a fixed diagram danceable within the given bounds;
``survey`` tabulates every placement at one (n, k).  Feasibility is not
assumed monotone in n or k, so bounds are exhausted rather than pruned.
Iteration orders are fixed, making both results deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .facing import Facing, forward_rule_ok, matching_check, matching_solve, parity_vector
from .model import Diagram
from .scheduler import (
    CrossingRule,
    DancePlan,
    Infeasible,
    InfeasibleReason,
    RuleKind,
    Schedule,
    _decide,
)

__all__ = ["SolveReport", "SurveyRow", "min_dancers", "survey"]


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a bounded minimization.

    ``plan``/``schedule`` hold the first feasible hit in lexicographic
    (n, k, placement) order, or None when the bounds were exhausted.
    ``n_searched`` and ``k_searched`` are the inclusive ranges actually
    examined; ``placements_tried`` counts every (n, k, placement)
    combination evaluated.
    """

    plan: DancePlan | None
    schedule: Schedule | None
    n_searched: tuple[int, int]
    k_searched: tuple[int, int]
    placements_tried: int

    @property
    def feasible(self) -> bool:
        return self.plan is not None


@dataclass(frozen=True)
class SurveyRow:
    placement: tuple[int, ...]
    facings: tuple[Facing, ...] | None
    feasible: bool
    reason: InfeasibleReason | None


def _plan_for(
    diagram: Diagram,
    placement: tuple[int, ...],
    k: int,
    rule: RuleKind,
    crossing_rule: CrossingRule,
) -> DancePlan | None:
    """Build the plan to try for one placement, or None when the placement's
    path parities alone refuse the rule: under the forward rule some route
    flips its facing an odd number of times, under the matching rule no facing
    assignment exists (parity-inconsistent orbits).  Either way the search
    would answer ``FACING_PARITY`` without running."""
    t = parity_vector(diagram, placement)
    if rule is RuleKind.FORWARD:
        if not forward_rule_ok(t, k):
            return None
        return DancePlan(diagram, placement, k, rule, None, crossing_rule)
    facings = matching_solve(t, k)
    if facings is None:
        return None
    return DancePlan(diagram, placement, k, rule, facings, crossing_rule)


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
    ``matching_solve``.  ``n_max`` may not exceed the diagram's gap count.
    """
    gaps = diagram.gap_count
    if not 1 <= n_max <= gaps:
        raise ValueError(f"n_max must be in 1..{gaps}, got {n_max}")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    tried = 0
    for n in range(1, n_max + 1):
        for k in range(1, k_max + 1):
            for placement in combinations(range(gaps), n):
                tried += 1
                plan = _plan_for(diagram, placement, k, rule, crossing_rule)
                if plan is None:
                    continue
                result = _decide(plan)  # _plan_for has gated the facings
                if isinstance(result, Schedule):
                    return SolveReport(plan, result, (1, n), (1, k), tried)
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
    gets its own row instead (distinct facings over one placement can differ,
    so the exhaustive view matters).  Rows whose facings the placement's
    path parities refuse are recorded as ``FACING_PARITY`` without a search.
    """
    gaps = diagram.gap_count
    if not 1 <= n <= gaps:
        raise ValueError(f"n must be in 1..{gaps}, got {n}")
    rows: list[SurveyRow] = []
    for placement in combinations(range(gaps), n):
        if rule is RuleKind.MATCHING and enumerate_facings:
            t = parity_vector(diagram, placement)
            for facings in product((Facing.FORWARD, Facing.BACKWARD), repeat=n):
                if matching_check(t, facings, k):
                    plan = DancePlan(diagram, placement, k, rule, facings, crossing_rule)
                    rows.append(_row(plan))
                else:
                    rows.append(
                        SurveyRow(placement, facings, False, InfeasibleReason.FACING_PARITY)
                    )
            continue
        plan = _plan_for(diagram, placement, k, rule, crossing_rule)
        if plan is None:
            rows.append(SurveyRow(placement, None, False, InfeasibleReason.FACING_PARITY))
        else:
            rows.append(_row(plan))
    return rows


def _row(plan: DancePlan) -> SurveyRow:
    """The row of a plan whose facings the caller has already gated."""
    result = _decide(plan)
    if isinstance(result, Infeasible):
        return SurveyRow(plan.points, plan.facings, False, result.reason)
    return SurveyRow(plan.points, plan.facings, True, None)
