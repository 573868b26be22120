import pickle
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from copy import deepcopy
from dataclasses import FrozenInstanceError, fields, replace
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twistdance.codec import parse
from twistdance.facing import Facing, forward_rule_ok, matching_check, matching_solve, parity_vector
from twistdance.model import ClassicalPass, CrossingSign, Strand, TwistBar, VirtualPass
from twistdance.scheduler import (
    ORACLE_STEP_LIMIT,
    CrossingRule,
    DancePlan,
    Infeasible,
    InfeasibleReason,
    RuleKind,
    Schedule,
    Step,
    _Compiled,
    retrograde,
    retrograde_points,
    schedule_search,
    verify_schedule,
)
from twistdance.solver import SURVEY_ROW_LIMIT, SurveyRow, min_dancers, survey

from corpus import all_placements, diagram_corpus
from strategies import diagrams

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


def test_a_lap_bound_can_raise_the_least_dancer_count():
    # the README's example: the bar trefoil needs 2 dancers with k free, at
    # k = 4, but 3 under matching with k <= 2, and none under forward
    d = parse(BAR_TREFOIL)
    for rule in RuleKind:
        assert min_dancers(d, rule, k_max=4, n_max=7).plan.points == (0, 2)
    assert min_dancers(d, RuleKind.MATCHING, k_max=2, n_max=7).plan.points == (0, 1, 2)
    assert not min_dancers(d, RuleKind.FORWARD, k_max=2, n_max=7).feasible


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
    for d in [parse(""), *diagram_corpus(41, 8, max_events=8)]:
        for rule in CrossingRule:
            for n in range(1, min(3, d.gap_count) + 1):
                for k in (1, 2, 3):
                    rows = survey(d, RuleKind.MATCHING, rule, n, k, enumerate_facings=True)
                    assert len(rows) == len(list(combinations(range(d.gap_count), n))) * 2**n
                    for row in rows:
                        plan = DancePlan(d, row.placement, k, RuleKind.MATCHING, row.facings, rule)
                        result = schedule_search(plan)
                        assert row.feasible == (not isinstance(result, Infeasible))
                        assert row.reason is (result.reason if not row.feasible else None)
                        reasons.add(row.reason)
    assert reasons == {None, InfeasibleReason.FACING_PARITY, InfeasibleReason.DEADLOCK}


def test_survey_builds_no_routes(monkeypatch):
    import twistdance.scheduler

    cases = [
        (d, rule, n, k)
        for d in diagram_corpus(43, 8, max_events=10)
        for rule in CrossingRule
        for n in range(1, min(3, d.gap_count) + 1)
        for k in (1, 2, 3)
    ]

    def rows():
        return [
            survey(d, RuleKind.MATCHING, rule, n, k, enumerate_facings=True)
            for d, rule, n, k in cases
        ]

    expected = rows()

    def no_routes(plan):
        raise AssertionError("a survey verdict needs no routes")

    monkeypatch.setattr(twistdance.scheduler, "routes_of", no_routes)
    assert rows() == expected
    assert {row.reason for table in expected for row in table} == {
        None,
        InfeasibleReason.FACING_PARITY,
        InfeasibleReason.DEADLOCK,
    }


def _pinned_bounds():
    """The (diagram, n_max) inputs of the call-count pins: seed 47's corpus at
    n_max = min(3, gaps), where no report exhausts at k_max = 3, the same
    diagrams at n_max = 1 and two diagrams that exhaust under over-first."""
    corpus = diagram_corpus(47, 20, max_events=10)
    return [
        *((d, min(3, d.gap_count)) for d in corpus),
        *((d, 1) for d in corpus),
        (parse("U1+ O1+ U2+ O2+"), 1),
        (parse("U1+ O1+ U2+ T1 O2+"), 2),
    ]


def test_survey_and_min_dancers_relax_each_placement_at_most_once(monkeypatch):
    # a placement's verdict and its wait-for cycle come from one run of the
    # relaxation, one call of its waits; every survey with a Deadlock row has
    # learned at least one clause, its first deadlock's
    relaxed = Counter()  # sorted points -> relaxation runs
    waits = _Compiled.waits

    def counted(self, points):
        relaxed[tuple(sorted(points))] += 1
        return waits(self, points)

    monkeypatch.setattr(_Compiled, "waits", counted)
    learned = 0
    for d, n_max in _pinned_bounds():
        for rule, crossing in product(RuleKind, CrossingRule):
            relaxed.clear()
            min_dancers(d, rule, crossing, k_max=3, n_max=n_max)
            assert max(relaxed.values(), default=0) <= 1, (d, rule, crossing)
            for n, enumerate_facings in product(range(1, n_max + 1), (False, True)):
                relaxed.clear()
                rows = survey(d, rule, crossing, n, 2, enumerate_facings=enumerate_facings)
                assert max(relaxed.values(), default=0) <= 1, (d, rule, crossing, n)
                learned += any(row.reason is InfeasibleReason.DEADLOCK for row in rows)
    assert learned >= 50, learned


def _prefix_bits(d, n):
    """The distinct tuples of bar-prefix bits over the n-placements of ``d``:
    the parity of the twist bars before each point, read off its events."""
    before = [sum(isinstance(ev, TwistBar) for ev in d.events[:g]) % 2 for g in range(d.gap_count)]
    return {tuple(before[p] for p in points) for points in combinations(range(d.gap_count), n)}


def test_min_dancers_and_survey_read_path_parities_once_per_distinct_prefix_bits(monkeypatch):
    # a placement's path parities are fixed by the bar-prefix bits at its
    # points, so both calls read them once per distinct tuple of bits and
    # min_dancers only up to its hit
    import twistdance.scheduler

    calls = Counter()  # dancer count -> _parities calls
    parities = twistdance.scheduler._parities

    def counted(prefix, pts):
        calls[len(pts)] += 1
        return parities(prefix, pts)

    monkeypatch.setattr(twistdance.scheduler, "_parities", counted)
    shared = exhausted = 0
    for d, n_max in _pinned_bounds():
        bits = {n: len(_prefix_bits(d, n)) for n in range(1, n_max + 1)}
        shared += any(bits[n] < comb(d.gap_count, n) for n in bits)
        for rule, crossing in product(RuleKind, CrossingRule):
            calls.clear()
            report = min_dancers(d, rule, crossing, k_max=3, n_max=n_max)
            assert all(calls[n] <= bits.get(n, 0) for n in calls), (d, rule, crossing)
            if not report.feasible:
                exhausted += 1
                assert calls == bits, (d, rule, crossing)
            for n, k, enumerate_facings in product(bits, (1, 2), (False, True)):
                calls.clear()
                survey(d, rule, crossing, n, k, enumerate_facings=enumerate_facings)
                assert calls == {n: bits[n]}, (d, rule, crossing, n, k)
    assert shared >= 10, shared
    assert exhausted >= 10, exhausted


def test_min_dancers_refuses_a_bool_bound():
    d = parse(TREFOIL)
    with pytest.raises(ValueError):
        min_dancers(d, k_max=True, n_max=1)
    with pytest.raises(ValueError):
        min_dancers(d, k_max=1, n_max=True)


def test_min_dancers_and_survey_refuse_rules_that_are_not_enum_members():
    # a string crossing rule used to be searched as unrestricted, and a
    # string dance rule read as forward
    d = parse("O1+ U1+")
    bad = [
        ("rule", "forward", CrossingRule.OVER_FIRST),
        ("rule", "matching", CrossingRule.OVER_FIRST),
        ("rule", CrossingRule.OVER_FIRST, CrossingRule.OVER_FIRST),
        ("crossing_rule", RuleKind.FORWARD, "over-first"),
        ("crossing_rule", RuleKind.MATCHING, None),
        ("crossing_rule", RuleKind.FORWARD, RuleKind.FORWARD),
    ]
    for name, rule, crossing in bad:
        with pytest.raises(ValueError, match=f"^{name} must be"):
            min_dancers(d, rule, crossing, k_max=1, n_max=1)
        for enumerate_facings in (False, True):
            with pytest.raises(ValueError, match=f"^{name} must be"):
                survey(d, rule, crossing, 1, 1, enumerate_facings=enumerate_facings)


def test_survey_refuses_a_fractional_k():
    with pytest.raises(ValueError):
        survey(parse(TREFOIL), RuleKind.FORWARD, CrossingRule.OVER_FIRST, 2, 1.5)


def test_survey_refuses_a_bool_k_on_every_diagram():
    # True used to pass as 1 on one diagram and raise on another
    for code in ("T1 O1 U1", "O1 U1 T1 T2"):
        for rule in CrossingRule:
            with pytest.raises(ValueError):
                survey(parse(code), RuleKind.MATCHING, rule, 2, True, enumerate_facings=True)


def test_survey_refuses_a_bool_or_zero_n():
    for n in (True, 0):
        with pytest.raises(ValueError):
            survey(parse(TREFOIL), RuleKind.FORWARD, CrossingRule.OVER_FIRST, n, 1)


def test_survey_refuses_k_zero_with_or_without_enumerated_facings():
    for rule in RuleKind:
        for enumerate_facings in (False, True):
            with pytest.raises(ValueError):
                survey(
                    parse("T1 T2"), rule, CrossingRule.OVER_FIRST, 2, 0,
                    enumerate_facings=enumerate_facings,
                )


def _outcome(result):
    """A search result with every facing left out."""
    if isinstance(result, Infeasible):
        return result
    return tuple((s.dancer, s.route_position, s.event_index) for s in result.steps)


def test_search_outcome_does_not_depend_on_gate_passing_facings():
    # survey decides a placement once and shares the verdict with every
    # facing row that passes the gate: past the gate, only facing_after may
    # differ between two facing assignments of one (placement, k, rule)
    shared = set()
    for d in diagram_corpus(67, 10, max_events=7):
        for crossing in CrossingRule:
            for points in all_placements(d, n_max=3):
                for k in (1, 2, 3):
                    t = parity_vector(d, points)
                    plans = [
                        DancePlan(d, points, k, RuleKind.MATCHING, f, crossing)
                        for f in product((Facing.FORWARD, Facing.BACKWARD), repeat=len(points))
                        if matching_check(t, f, k)
                    ]
                    if forward_rule_ok(t, k):
                        plans.append(DancePlan(d, points, k, RuleKind.FORWARD, None, crossing))
                    outcomes = {_outcome(schedule_search(plan)) for plan in plans}
                    assert len(outcomes) <= 1, (d, points, k, crossing)
                    if len(plans) > 1:
                        shared |= {type(o) for o in outcomes}
    assert shared == {tuple, Infeasible}


def _least_feasible(d, rule, crossing, k_max, n_max):
    """``min_dancers`` as a loop of public ``schedule_search`` calls."""
    tried = 0
    for n in range(1, n_max + 1):
        for k in range(1, k_max + 1):
            for points in combinations(range(d.gap_count), n):
                tried += 1
                facings = None
                if rule is RuleKind.MATCHING:
                    facings = matching_solve(parity_vector(d, points), k)
                    if facings is None:
                        continue
                plan = DancePlan(d, points, k, rule, facings, crossing)
                result = schedule_search(plan)
                if isinstance(result, Schedule):
                    return plan, result, tried
    return None, None, tried


def test_survey_modes_agree_beyond_the_oracle():
    # the solved-facings row is the enumerated row with those facings, and the
    # forward row has the verdict of the all-forward enumerated row
    seen = Counter()
    for d in diagram_corpus(137, 30, max_events=9):
        for rule in CrossingRule:
            for n in range(1, min(3, d.gap_count) + 1):
                for k in range(1, 2 * n + 2):
                    every = {
                        (row.placement, row.facings): row
                        for row in survey(d, RuleKind.MATCHING, rule, n, k, enumerate_facings=True)
                    }
                    solved = survey(d, RuleKind.MATCHING, rule, n, k)
                    forward = survey(d, RuleKind.FORWARD, rule, n, k)
                    for s, f in zip(solved, forward, strict=True):
                        assert s.placement == f.placement
                        facings = matching_solve(parity_vector(d, s.placement), k)
                        if facings is None:
                            refused = (False, InfeasibleReason.FACING_PARITY)
                            assert s == SurveyRow(s.placement, None, *refused), (d, rule, k)
                        else:
                            assert s == every[s.placement, facings], (d, rule, k)
                        all_forward = every[f.placement, (Facing.FORWARD,) * n]
                        assert f.facings is None, (d, rule, k)
                        assert (f.feasible, f.reason) == (all_forward.feasible, all_forward.reason)
                        seen[s.reason, f.reason] += 1
    assert len(seen) >= 5 and sum(seen.values()) > 40_000, seen


def test_min_dancers_past_twice_n_max_laps_finds_what_twice_n_max_finds():
    # the gate has period 2n in k and the verdict past it does not depend on
    # k, so the least feasible k, if any, is at most 2n; placements_tried and
    # k_searched still grow with k_max when the bounds are exhausted
    hits_past_one_lap = 0
    for d in [parse(BAR_TREFOIL), *diagram_corpus(131, 40, max_events=8)]:
        n_max = d.gap_count
        for rule, crossing in product(RuleKind, CrossingRule):
            base = min_dancers(d, rule, crossing, k_max=2 * n_max, n_max=n_max)
            hits_past_one_lap += base.feasible and base.plan.k > 1
            for k_max in (2 * n_max + 1, 3 * n_max + 2, 4 * n_max + 3):
                report = min_dancers(d, rule, crossing, k_max=k_max, n_max=n_max)
                assert report.plan == base.plan, (d, rule, crossing, k_max)
                if base.plan is None:
                    assert report.schedule is None
                else:
                    assert report.schedule.steps == base.schedule.steps
    assert hits_past_one_lap >= 20


def test_min_dancers_matches_a_loop_of_direct_searches():
    outcomes = set()
    for d in [parse(BAR_TREFOIL), *diagram_corpus(29, 30, max_events=8)]:
        n_max = min(3, d.gap_count)
        for rule, crossing, k_max in product(RuleKind, CrossingRule, (1, 3)):
            report = min_dancers(d, rule, crossing, k_max=k_max, n_max=n_max)
            plan, schedule, tried = _least_feasible(d, rule, crossing, k_max, n_max)
            assert report.plan == plan
            assert report.placements_tried == tried
            if plan is None:
                assert report.schedule is None
            else:
                assert report.plan.facings == plan.facings
                assert report.schedule.steps == schedule.steps
                assert report.schedule.plan == plan
            outcomes.add((rule, report.feasible))
    assert len(outcomes) == 4


def test_survey_builds_facing_tuples_only_when_it_enumerates(monkeypatch):
    import twistdance.solver

    # one placement of 16 points: enumerating would make 2**16 facing tuples
    d = parse(" ".join([f"O{i}+" for i in range(1, 9)] + [f"U{i}+" for i in range(1, 9)]))
    cases = [(RuleKind.FORWARD, 16), (RuleKind.MATCHING, 16), (RuleKind.MATCHING, 2)]
    expected = [survey(d, rule, CrossingRule.OVER_FIRST, n, 1) for rule, n in cases]

    def no_product(*args, **kwargs):
        raise AssertionError("facing tuples are built only to enumerate them")

    monkeypatch.setattr(twistdance.solver, "product", no_product)
    assert [survey(d, rule, CrossingRule.OVER_FIRST, n, 1) for rule, n in cases] == expected
    with pytest.raises(AssertionError):
        survey(d, RuleKind.MATCHING, CrossingRule.OVER_FIRST, 2, 1, enumerate_facings=True)


def test_step_and_survey_row_survive_pickle_deepcopy_and_replace():
    step = Step(1, 2, 3, Facing.BACKWARD)
    rows = [
        SurveyRow((0, 2), (Facing.FORWARD, Facing.BACKWARD), False, InfeasibleReason.DEADLOCK),
        SurveyRow((1,), None, True, None),
    ]
    # rows as survey builds them, filled through the slots
    surveyed = [
        row
        for rule, enumerate_facings in [
            (RuleKind.FORWARD, False),
            (RuleKind.MATCHING, False),
            (RuleKind.MATCHING, True),
        ]
        for row in survey(
            parse(BAR_TREFOIL), rule, CrossingRule.OVER_FIRST, 3, 2,
            enumerate_facings=enumerate_facings,
        )
    ]
    assert {row.reason for row in surveyed} == {
        None,
        InfeasibleReason.FACING_PARITY,
        InfeasibleReason.DEADLOCK,
    }
    assert {row.facings is None for row in surveyed} == {False, True}
    # survey sets these four slots and runs no __init__, so the declaration
    # may grow no field and no __post_init__ without survey following it
    assert [f.name for f in fields(SurveyRow)] == ["placement", "facings", "feasible", "reason"]
    assert not hasattr(SurveyRow, "__post_init__")
    for row in surveyed:
        assert type(row) is SurveyRow
        built = SurveyRow(row.placement, row.facings, row.feasible, row.reason)
        assert row == built and hash(row) == hash(built) and repr(row) == repr(built)
    # events as parse builds them (an explicit and a bare bar, a defaulted and
    # a "-" sign), beside their twins built here
    parsed = parse("O1+ U2- V1 T7 U1 O2- V1 T").events
    built_events = (
        ClassicalPass(1, Strand.OVER),
        ClassicalPass(2, Strand.UNDER, CrossingSign.NEGATIVE),
        VirtualPass(1),
        TwistBar(7),
        ClassicalPass(1, Strand.UNDER, CrossingSign.POSITIVE),
        ClassicalPass(2, Strand.OVER, CrossingSign.NEGATIVE),
        VirtualPass(1),
        TwistBar(1),
    )
    # parse makes each new event with these fields and no others
    assert [f.name for f in fields(ClassicalPass)] == ["crossing_id", "strand", "sign"]
    assert [f.name for f in fields(VirtualPass)] == ["crossing_id"]
    assert [f.name for f in fields(TwistBar)] == ["bar_id"]
    for kind in (ClassicalPass, VirtualPass, TwistBar):
        assert not hasattr(kind, "__post_init__")
    assert len(parsed) == len(built_events)
    for event, built in zip(parsed, built_events):
        assert type(event) is type(built) and type(built) in (ClassicalPass, VirtualPass, TwistBar)
        assert event == built and hash(event) == hash(built) and repr(event) == repr(built)
    assert replace(parsed[1], sign=CrossingSign.POSITIVE) == ClassicalPass(2, Strand.UNDER)
    assert replace(parsed[7], bar_id=2) == TwistBar(2)
    for value in (step, *rows, *surveyed, *parsed, *built_events):
        assert not hasattr(value, "__dict__")
        for copied in (pickle.loads(pickle.dumps(value)), deepcopy(value), replace(value)):
            assert copied == value and hash(copied) == hash(value)
        with pytest.raises(FrozenInstanceError):
            setattr(value, fields(value)[0].name, None)
    assert replace(step, dancer=0) == Step(0, 2, 3, Facing.BACKWARD)
    assert replace(rows[0], feasible=True, reason=None) == SurveyRow(
        (0, 2), (Facing.FORWARD, Facing.BACKWARD), True, None
    )
    # witnesses hold their move columns and derive steps on first read:
    # each is checked, and copied, once before that read and once after
    witnesses = [
        lambda: schedule_search(DancePlan(parse(BAR_TREFOIL), (0, 4), 4)),
        lambda: schedule_search(
            DancePlan(
                parse(BAR_TREFOIL), (0, 1, 4), 2, RuleKind.MATCHING,
                (Facing.BACKWARD, Facing.FORWARD, Facing.FORWARD),
            )
        ),
        lambda: min_dancers(
            parse(BAR_TREFOIL), RuleKind.MATCHING, CrossingRule.OVER_FIRST, k_max=4, n_max=3
        ).schedule,
    ]
    for read_first in (False, True):
        for make in witnesses:
            witness, twin = make(), make()
            if read_first:
                assert len(witness.steps) == len(twin.steps)
            copies = [pickle.loads(pickle.dumps(witness)), deepcopy(witness)]
            built = Schedule(
                tuple(Step(s.dancer, s.route_position, s.event_index, s.facing_after) for s in twin.steps),
                twin.feasible,
                twin.plan,
            )
            assert Facing.BACKWARD in {s.facing_after for s in built.steps}
            # steps given as a list (which would make the schedule unhashable
            # and unequal to the witness) or as a generator are kept as the
            # same tuple
            listed = Schedule(list(twin.steps), twin.feasible, twin.plan)
            generated = Schedule((s for s in twin.steps), twin.feasible, twin.plan)
            for value in (witness, *copies, listed, generated):
                assert type(value) is Schedule
                assert value == built and hash(value) == hash(built) and repr(value) == repr(built)
                assert value._move_columns == built._move_columns
                assert {type(i) for column in value._move_columns for i in column} == {int}
                assert verify_schedule(value) == []
                with pytest.raises(FrozenInstanceError):
                    setattr(value, "steps", ())
            assert replace(witness, steps=built.steps) == built
            assert replace(witness) == built
            assert replace(witness, steps=built.steps[:-1]) != built


def _counting(monkeypatch, name):
    """Count the calls the solver makes to one of its facing helpers."""
    import twistdance.solver

    calls = []
    helper = getattr(twistdance.solver, name)

    def counted(t, k):
        calls.append((t, k))
        return helper(t, k)

    monkeypatch.setattr(twistdance.solver, name, counted)
    return calls


def test_survey_decides_the_gate_once_per_parity_vector(monkeypatch):
    solutions = _counting(monkeypatch, "_matching_solutions")
    solved = _counting(monkeypatch, "matching_solve")
    shared = 0
    for d in diagram_corpus(73, 20, max_events=10):
        for n in range(1, min(3, d.gap_count) + 1):
            placements = list(combinations(range(d.gap_count), n))
            vectors = {parity_vector(d, p) for p in placements}
            shared += len(vectors) < len(placements)
            for k, crossing in product((1, 2, 3), CrossingRule):
                solutions.clear()
                survey(d, RuleKind.MATCHING, crossing, n, k, enumerate_facings=True)
                assert sorted(solutions) == sorted((t, k) for t in vectors)
                for rule in RuleKind:
                    solved.clear()
                    survey(d, rule, crossing, n, k)
                    assert sorted(solved) == sorted((t, k) for t in vectors)
    assert shared >= 20, shared


def _gates_until_pass(t, rule, k_max):
    """The (t, k) gates at k = 1, 2, ... up to the first k whose gate passes
    under ``rule``, or up to ``k_max``."""
    matching = rule is RuleKind.MATCHING
    for k in range(1, k_max + 1):
        yield t, k
        if (matching_solve(t, k) is not None) if matching else forward_rule_ok(t, k):
            return


def test_min_dancers_decides_the_gate_once_per_parity_vector_and_lap_count(monkeypatch):
    solved = _counting(monkeypatch, "matching_solve")
    shared = exhausted = 0
    for d, n_max in _pinned_bounds():
        k_max = 3
        vectors = {
            parity_vector(d, p)
            for n in range(1, n_max + 1)
            for p in combinations(range(d.gap_count), n)
        }
        shared += len(vectors) < sum(comb(d.gap_count, n) for n in range(1, n_max + 1))
        for rule, crossing in product(RuleKind, CrossingRule):
            gates = [g for t in vectors for g in _gates_until_pass(t, rule, k_max)]
            solved.clear()
            report = min_dancers(d, rule, crossing, k_max=k_max, n_max=n_max)
            assert len(solved) == len(set(solved)), (d, rule, crossing)
            assert set(solved) <= set(gates), (d, rule, crossing)
            if not report.feasible:
                exhausted += 1
                assert sorted(solved) == sorted(gates), (d, rule, crossing)
    assert shared >= 10, shared
    assert exhausted >= 10, exhausted


def test_min_dancers_does_not_scale_with_k_max(monkeypatch):
    # every t passes the gate by k = 2n and the verdict past it does not
    # depend on k, so no t is gated past 2n; an exhausted report still counts
    # every row of every lap count up to k_max
    solved = _counting(monkeypatch, "matching_solve")
    k_max, exhausted = 1000, 0
    for d, n_max in _pinned_bounds():
        for rule, crossing in product(RuleKind, CrossingRule):
            solved.clear()
            report = min_dancers(d, rule, crossing, k_max=k_max, n_max=n_max)
            for t, gated in Counter(t for t, _ in solved).items():
                assert gated <= 2 * len(t), (d, rule, crossing, t)
            base = min_dancers(d, rule, crossing, k_max=2 * n_max, n_max=n_max)
            assert report.plan == base.plan, (d, rule, crossing)
            if not report.feasible:
                exhausted += 1
                rows = sum(comb(d.gap_count, n) for n in range(1, n_max + 1))
                assert report.placements_tried == k_max * rows, (d, rule, crossing)
                assert (report.n_searched, report.k_searched) == ((1, n_max), (1, k_max))
    assert exhausted >= 10, exhausted


@given(diagrams(max_events=8), st.sampled_from(CrossingRule), st.data())
def test_an_enumerated_row_is_refused_exactly_when_the_gate_refuses_its_facings(d, crossing, data):
    n = data.draw(st.integers(1, min(3, d.gap_count)))
    k = data.draw(st.integers(1, 2 * n + 1))
    rows = survey(d, RuleKind.MATCHING, crossing, n, k, enumerate_facings=True)
    assert len(rows) == comb(d.gap_count, n) * 2**n
    for row in rows:
        gate = matching_check(parity_vector(d, row.placement), row.facings, k)
        assert (row.reason is InfeasibleReason.FACING_PARITY) == (not gate)
        assert row.feasible <= gate


def test_survey_retrograde_duality_beyond_the_oracle():
    # over-first rows on D are under-first rows on retrograde(D): gap g goes
    # to (m - g) mod m, and each facing moves with its point
    mirror = {
        CrossingRule.OVER_FIRST: CrossingRule.UNDER_FIRST,
        CrossingRule.UNDER_FIRST: CrossingRule.OVER_FIRST,
    }
    beyond = Counter()
    for d in diagram_corpus(71, 8, max_events=12):
        m = len(d.events)
        if m == 0:
            continue
        rd = retrograde(d)
        for n, k, crossing in product(range(1, min(3, m) + 1), (1, 2, 3, 4), mirror):
            rows = survey(d, RuleKind.MATCHING, crossing, n, k, enumerate_facings=True)
            dual = {
                (row.placement, row.facings): (row.feasible, row.reason)
                for row in survey(rd, RuleKind.MATCHING, mirror[crossing], n, k, enumerate_facings=True)
            }
            assert len(dual) == len(rows)
            for row in rows:
                points = retrograde_points(d, row.placement)
                at = dict(zip(row.placement, row.facings))
                facings = tuple(at[(m - q) % m] for q in points)
                assert dual[points, facings] == (row.feasible, row.reason), (d, row, k, crossing)
                if k * m > ORACLE_STEP_LIMIT:
                    beyond[row.reason] += 1
    assert sum(beyond.values()) > 1000 and len(beyond) == 3, beyond


def _survey_rows(d, rule, crossing, k_max, n_max):
    """Every (k, row) of the surveys ``min_dancers`` scans, in its order."""
    for n in range(1, n_max + 1):
        for k in range(1, k_max + 1):
            for row in survey(d, rule, crossing, n, k):
                yield k, row


def test_min_dancers_is_the_first_feasible_survey_row():
    outcomes = Counter()
    for d in [parse(BAR_TREFOIL), *diagram_corpus(89, 30, max_events=8)]:
        n_max = min(3, d.gap_count)
        for rule, crossing, k_max in product(RuleKind, CrossingRule, (1, 3)):
            report = min_dancers(d, rule, crossing, k_max=k_max, n_max=n_max)
            scanned = 0
            for k, row in _survey_rows(d, rule, crossing, k_max, n_max):
                scanned += 1
                if row.feasible:
                    assert report.plan.points == row.placement, (d, rule, crossing, k_max)
                    assert (report.plan.k, report.plan.facings) == (k, row.facings)
                    break
            else:
                assert not report.feasible, (d, rule, crossing, k_max)
                assert (report.n_searched, report.k_searched) == ((1, n_max), (1, k_max))
            assert report.placements_tried == scanned, (d, rule, crossing, k_max)
            outcomes[rule, report.feasible] += 1
    assert len(outcomes) == 4, outcomes


def _solve_request(d, crossing, n):
    """What one solve request asks of a diagram: the least dancer count under
    both dance rules, then every facing assignment at (n, 2)."""
    reports = [min_dancers(d, rule, crossing, k_max=2, n_max=n) for rule in RuleKind]
    return reports, survey(d, RuleKind.MATCHING, crossing, n, 2, enumerate_facings=True)


def test_a_solve_request_compiles_each_diagram_once_per_crossing_rule(monkeypatch):
    made = Counter()  # (diagram object, crossing rule) -> instances built
    init = _Compiled.__init__

    def counted(self, diagram, crossing):
        made[id(diagram), crossing] += 1
        init(self, diagram, crossing)

    monkeypatch.setattr(_Compiled, "__init__", counted)
    outcomes = set()
    for d in [parse(BAR_TREFOIL), *diagram_corpus(97, 12, max_events=10)]:
        n = min(3, d.gap_count)
        for crossing in CrossingRule:
            reports, rows = _solve_request(d, crossing, n)
            outcomes.update(report.feasible for report in reports)
            outcomes.update(row.reason for row in rows)
            # and a dance request on the same diagram and rule compiles nothing more
            schedule_search(DancePlan(d, (0,), 1, crossing_rule=crossing))
            assert made[id(d), crossing] == 1, (d, crossing)
        assert sum(made[id(d), crossing] for crossing in CrossingRule) == 3
    assert outcomes == {False, True, None, InfeasibleReason.FACING_PARITY, InfeasibleReason.DEADLOCK}


def test_a_solve_request_relaxes_each_point_set_at_most_once_per_crossing_rule(monkeypatch):
    # a clause or a live set kept from one call decides the same points in
    # the next, so min_dancers twice and survey relax a point set at most
    # once between them, and each relaxation keeps at most one fact
    relaxed = Counter()  # (instance, sorted points) -> relaxation runs
    waits = _Compiled.waits

    def counted(self, points):
        relaxed[id(self), tuple(sorted(points))] += 1
        return waits(self, points)

    monkeypatch.setattr(_Compiled, "waits", counted)
    kept = 0
    for d in [parse(BAR_TREFOIL), *diagram_corpus(97, 30, max_events=10)]:
        n = min(3, d.gap_count)
        for crossing in CrossingRule:
            relaxed.clear()
            _solve_request(d, crossing, n)
            for n_survey in range(1, n + 1):  # more surveys relax nothing they share
                survey(d, RuleKind.FORWARD, crossing, n_survey, 1)
            assert max(relaxed.values(), default=0) <= 1, (d, crossing)
            compiled = _Compiled.of(d, crossing)
            facts = len(compiled.clauses) + len(compiled.live)
            assert facts <= sum(relaxed.values()), (d, crossing)
            kept += facts
    assert kept >= 100, kept


def test_a_placement_of_hundreds_of_points_is_answered_without_deep_recursion():
    # the descent to a minimal live set called itself once per dropped point
    # and ran out of stack between 470 and 500 events
    d = parse(" ".join(f"O{i}+ U{i}+" for i in range(1, 301)))
    (row,) = survey(d, RuleKind.FORWARD, CrossingRule.OVER_FIRST, 600, 1)
    assert row == SurveyRow(tuple(range(600)), None, True, None)
    (live,) = _Compiled.of(d, CrossingRule.OVER_FIRST).live
    points = [g for g in range(600) if live >> g & 1]
    assert len(points) == 1 and not _Compiled(d, CrossingRule.OVER_FIRST).waits(points)


def _solved(text):
    """A parsed diagram that has kept its compiled form under every rule."""
    d = parse(text)
    for crossing in CrossingRule:
        _solve_request(d, crossing, min(2, d.gap_count))
    assert set(d.__dict__["_compiled"]) == set(CrossingRule)
    return d


def test_the_kept_compiled_form_is_absent_from_every_copy():
    d = _solved(BAR_TREFOIL)
    copies = [pickle.loads(pickle.dumps(d)), deepcopy(d), replace(d), retrograde(retrograde(d))]
    for copy in copies:
        assert copy == d and "_compiled" not in copy.__dict__, copy
        # each copy compiles its own when asked, and answers the same
        assert _solve_request(copy, CrossingRule.OVER_FIRST, 2) == _solve_request(
            d, CrossingRule.OVER_FIRST, 2
        )
        assert _Compiled.of(copy, CrossingRule.OVER_FIRST) is not _Compiled.of(d, CrossingRule.OVER_FIRST)


def test_the_kept_compiled_form_changes_no_equality_hash_or_repr():
    for text in [BAR_TREFOIL, TREFOIL, "U1+ O1+ U2+ T1 O2+", ""]:
        fresh = parse(text)
        d = _solved(text)
        assert d == fresh and hash(d) == hash(fresh) and repr(d) == repr(fresh), text
        assert {d: 1}[fresh] == 1
        assert DancePlan(d, (0,), 1) == DancePlan(fresh, (0,), 1)


def test_threads_sharing_one_diagram_answer_as_one_thread_does():
    # four threads ask surveys and minima of one parsed diagram at once; the
    # facts they keep are each proved, so a lost update costs a relaxation
    # and every answer equals a sequential run on a fresh parse
    texts = [BAR_TREFOIL, TREFOIL, "O1+ U2+ V1 O3+ T1 U1+ O2+ V1 U3+ T2"]

    def request(d, crossing):
        reports = [min_dancers(d, rule, crossing, k_max=3, n_max=3) for rule in RuleKind]
        rows = [survey(d, RuleKind.MATCHING, crossing, n, 2, enumerate_facings=True) for n in (1, 2, 3)]
        return reports, rows

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter between threads often
    try:
        for text, crossing in product(texts, CrossingRule):
            shared = parse(text)
            start = threading.Barrier(4)

            def run():
                start.wait()
                return request(shared, crossing)

            with ThreadPoolExecutor(max_workers=4) as pool:
                answers = [f.result() for f in [pool.submit(run) for _ in range(4)]]
            expected = request(parse(text), crossing)
            assert all(answer == expected for answer in answers), (text, crossing)
    finally:
        sys.setswitchinterval(switch)


def _bars(m):
    """A diagram of m twist bars and nothing else, so m gaps."""
    return parse(" ".join(f"T{i}" for i in range(1, m + 1)))


def test_survey_refuses_more_rows_than_its_limit_before_building_any(monkeypatch):
    import twistdance.scheduler
    import twistdance.solver

    def no_compile(*args, **kwargs):
        raise AssertionError("a refused survey compiles nothing and scans no placement")

    monkeypatch.setattr(twistdance.solver, "_Compiled", no_compile)
    rows = comb(24, 12) * 2**12  # 1.1e10 rows
    with pytest.raises(ValueError, match=f"{rows} rows exceeds SURVEY_ROW_LIMIT = {SURVEY_ROW_LIMIT}"):
        survey(_bars(24), RuleKind.MATCHING, CrossingRule.OVER_FIRST, 12, 1, enumerate_facings=True)
    # every placement and facing assignment of 8 dancers on 16 gaps is admitted
    monkeypatch.undo()
    monkeypatch.setattr(twistdance.scheduler, "combinations", lambda *args: iter(()))
    assert comb(16, 8) * 2**8 == 3_294_720 <= SURVEY_ROW_LIMIT
    assert survey(_bars(16), RuleKind.MATCHING, CrossingRule.OVER_FIRST, 8, 1, enumerate_facings=True) == []


def test_survey_admits_exactly_its_row_limit(monkeypatch):
    import twistdance.solver

    d = _bars(7)
    # rule, enumerate_facings, rows: the forward rule enumerates no facings
    cases = [
        (RuleKind.MATCHING, True, comb(7, 3) * 2**3),
        (RuleKind.MATCHING, False, comb(7, 3)),
        (RuleKind.FORWARD, True, comb(7, 3)),
        (RuleKind.FORWARD, False, comb(7, 3)),
    ]
    for rule, enumerate_facings, rows in cases:
        monkeypatch.setattr(twistdance.solver, "SURVEY_ROW_LIMIT", rows)
        table = survey(d, rule, CrossingRule.OVER_FIRST, 3, 1, enumerate_facings=enumerate_facings)
        assert len(table) == rows
        monkeypatch.setattr(twistdance.solver, "SURVEY_ROW_LIMIT", rows - 1)
        with pytest.raises(ValueError, match=f"^a survey of {rows} rows exceeds SURVEY_ROW_LIMIT = {rows - 1}$"):
            survey(d, rule, CrossingRule.OVER_FIRST, 3, 1, enumerate_facings=enumerate_facings)
