"""Exhaustive small-scope checks over every diagram of a few events.

``--small-scope-events`` sets the largest diagram checked: 4 events by
default, at most 5, which CI runs.
"""

from itertools import combinations

import pytest

from twistdance.facing import matching_solve, parity_vector
from twistdance.scheduler import (
    ORACLE_STEP_LIMIT,
    CrossingRule,
    DancePlan,
    Infeasible,
    RuleKind,
    oracle_schedule,
    schedule_search,
)

from small_scope import small_diagrams

# diagrams and oracle-checked plans of m events, for each m
DIAGRAMS = {1: 1, 2: 6, 3: 16, 4: 106, 5: 426}
PLANS = {1: 72, 2: 864, 3: 2_208, 4: 38_160, 5: 139_302}


@pytest.fixture
def max_events(request):
    return request.config.getoption("--small-scope-events")


def _plans(d):
    """Every plan of ``d`` within the oracle's guard: each placement, each k
    with k * m <= ORACLE_STEP_LIMIT, every crossing rule, the forward rule
    and the matching rule with solved facings (where the gate admits any)."""
    m = len(d.events)
    for n in range(1, m + 1):
        for points in combinations(range(m), n):
            t = parity_vector(d, points)
            for k in range(1, ORACLE_STEP_LIMIT // m + 1):
                facings = matching_solve(t, k)
                for crossing in CrossingRule:
                    yield DancePlan(d, points, k, RuleKind.FORWARD, None, crossing)
                    if facings is not None:
                        yield DancePlan(d, points, k, RuleKind.MATCHING, facings, crossing)


def _outcome(result):
    if isinstance(result, Infeasible):
        return result.reason
    return result.steps


def test_the_listing_counts_every_diagram_once(max_events):
    for m in range(1, max_events + 1):
        assert sum(1 for _ in small_diagrams(m)) == DIAGRAMS[m]


def test_search_agrees_with_the_oracle_on_every_small_diagram(max_events):
    for m in range(1, max_events + 1):
        plans = 0
        for d in small_diagrams(m):
            for plan in _plans(d):
                plans += 1
                assert _outcome(schedule_search(plan)) == _outcome(oracle_schedule(plan)), plan
        assert plans == PLANS[m], m
