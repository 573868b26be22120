from itertools import combinations

import pytest

from twistdance.codec import parse
from twistdance.facing import Facing
from twistdance.scheduler import (
    CrossingRule,
    DancePlan,
    Infeasible,
    InfeasibleReason,
    RuleKind,
    schedule_search,
    verify_schedule,
)
from twistdance.solver import min_dancers, survey

from corpus import diagram_corpus

TREFOIL = "O1+ U2+ O3+ U1+ O2+ U3+"
BAR_TREFOIL = "O1+ U2+ O3+ T1 U1+ O2+ U3+"


def test_trefoil_needs_two_dancers():
    report = min_dancers(parse(TREFOIL), k_max=1, n_max=6)
    assert report.feasible
    assert report.plan.n == 2
    assert report.plan.k == 1
    assert verify_schedule(report.schedule) == []


def test_trefoil_first_feasible_placement_is_lexicographic():
    report = min_dancers(parse(TREFOIL), k_max=1, n_max=6)
    # placements (0,1) and (0,2) precede it; (0,1) deadlocks
    assert report.plan.points == (0, 2)


def test_bar_trefoil_minimal_k_is_four_at_two_dancers():
    report = min_dancers(parse(BAR_TREFOIL), k_max=4, n_max=2)
    assert report.feasible
    assert report.plan.n == 2
    assert report.plan.k == 4
    assert verify_schedule(report.schedule) == []


def test_empty_diagram_minimum():
    report = min_dancers(parse(""), k_max=1, n_max=1)
    assert report.feasible
    assert report.plan.n == 1 and report.plan.k == 1
    assert report.schedule.steps == ()


def test_exhausted_bounds():
    report = min_dancers(parse(TREFOIL), k_max=1, n_max=1)
    assert not report.feasible
    assert report.schedule is None
    assert report.n_searched == (1, 1)
    assert report.k_searched == (1, 1)
    assert report.placements_tried == 6


def test_bounds_validated():
    d = parse(TREFOIL)
    with pytest.raises(ValueError):
        min_dancers(d, k_max=1, n_max=7)
    with pytest.raises(ValueError):
        min_dancers(d, k_max=0, n_max=1)


def test_min_dancers_is_deterministic():
    a = min_dancers(parse(BAR_TREFOIL), k_max=4, n_max=2)
    b = min_dancers(parse(BAR_TREFOIL), k_max=4, n_max=2)
    assert a == b


def test_matching_rule_uses_solved_facings():
    # k=1 has no consistent assignment (odd flip back to the same point);
    # k=2 cancels the flips, so the solver lands there with all-forward
    report = min_dancers(parse("T1"), RuleKind.MATCHING, k_max=2, n_max=1)
    assert report.feasible
    assert report.plan.k == 2
    assert report.plan.facings == (Facing.FORWARD,)
    exhausted = min_dancers(parse("T1"), RuleKind.MATCHING, k_max=1, n_max=1)
    assert not exhausted.feasible


def test_survey_trefoil_two_dancers():
    rows = survey(parse(TREFOIL), RuleKind.FORWARD, CrossingRule.OVER_FIRST, 2, 1)
    assert len(rows) == 15
    assert [r.placement for r in rows] == list(combinations(range(6), 2))
    assert any(r.feasible for r in rows)
    for r in rows:
        assert r.reason in (None, InfeasibleReason.DEADLOCK)


def test_survey_single_bar():
    rows = survey(parse("T1"), RuleKind.FORWARD, CrossingRule.OVER_FIRST, 1, 1)
    assert len(rows) == 1
    assert rows[0].placement == (0,)
    assert not rows[0].feasible
    assert rows[0].reason is InfeasibleReason.FACING_PARITY
    rows2 = survey(parse("T1"), RuleKind.FORWARD, CrossingRule.OVER_FIRST, 1, 2)
    assert len(rows2) == 1 and rows2[0].feasible


def test_survey_matching_default_solves_one_assignment_per_placement():
    rows = survey(parse("T1 T2"), RuleKind.MATCHING, CrossingRule.OVER_FIRST, 1, 1)
    # both bars sit on the single path of either placement, so the solved
    # assignment is all-forward and nothing blocks
    assert [r.placement for r in rows] == [(0,), (1,)]
    for r in rows:
        assert r.feasible and r.facings == (Facing.FORWARD,)
    unsolvable = survey(parse("T1"), RuleKind.MATCHING, CrossingRule.OVER_FIRST, 1, 1)
    assert len(unsolvable) == 1
    assert not unsolvable[0].feasible
    assert unsolvable[0].facings is None
    assert unsolvable[0].reason is InfeasibleReason.FACING_PARITY


def test_survey_matching_enumerates_facings():
    d = parse("T1 T2")
    rows = survey(
        d, RuleKind.MATCHING, CrossingRule.OVER_FIRST, 2, 1, enumerate_facings=True
    )
    assert len(rows) == 1 * 4  # C(2,2) placements x 2^2 facings
    feas = [r for r in rows if r.feasible]
    # bars on both paths: solutions are exactly (F,B) and (B,F)
    assert [r.facings for r in feas] == [
        (Facing.FORWARD, Facing.BACKWARD),
        (Facing.BACKWARD, Facing.FORWARD),
    ]
    for r in rows:
        if not r.feasible:
            assert r.reason is InfeasibleReason.FACING_PARITY


def test_crossing_free_minimum_is_pure_parity():
    # with nothing to block, the smallest feasible (n, k) is the first one
    # whose parity windows all cancel
    from twistdance.facing import forward_rule_ok, parity_vector

    for code in ("T1 V1 V1 T2", "T1 T2 T3", "V1 V1", "T1 V1 T2 V1 T3"):
        d = parse(code)
        gaps = d.gap_count
        expected = None
        for n in range(1, min(3, gaps) + 1):
            for k in (1, 2, 3):
                for pts in combinations(range(gaps), n):
                    if forward_rule_ok(parity_vector(d, pts), k):
                        expected = (n, k, pts)
                        break
                if expected:
                    break
            if expected:
                break
        report = min_dancers(d, k_max=3, n_max=min(3, gaps))
        if expected is None:
            assert not report.feasible
        else:
            assert (report.plan.n, report.plan.k, report.plan.points) == expected


def test_survey_rows_match_direct_search():
    d = parse(BAR_TREFOIL)
    rows = survey(d, RuleKind.FORWARD, CrossingRule.OVER_FIRST, 2, 4)
    for row in rows:
        result = schedule_search(DancePlan(d, row.placement, 4))
        assert row.feasible == (not isinstance(result, Infeasible))


def test_survey_enumerated_facings_match_direct_search():
    reasons = set()
    for d in diagram_corpus(41, 8, max_events=8):
        for rule in (CrossingRule.OVER_FIRST, CrossingRule.UNDER_FIRST):
            for n in range(1, min(3, d.gap_count) + 1):
                for k in (1, 2):
                    rows = survey(d, RuleKind.MATCHING, rule, n, k, enumerate_facings=True)
                    assert len(rows) == len(list(combinations(range(d.gap_count), n))) * 2**n
                    for row in rows:
                        plan = DancePlan(d, row.placement, k, RuleKind.MATCHING, row.facings, rule)
                        result = schedule_search(plan)
                        assert row.feasible == (not isinstance(result, Infeasible))
                        assert row.reason is (result.reason if not row.feasible else None)
                        reasons.add(row.reason)
    assert reasons == {None, InfeasibleReason.FACING_PARITY, InfeasibleReason.DEADLOCK}
