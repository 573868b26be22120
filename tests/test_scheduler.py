import random
import re
from collections import Counter
from dataclasses import replace
from itertools import combinations, product

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from twistdance.codec import parse, serialize, token, trace_to_json
from twistdance.facing import (
    Facing,
    _bar_prefix,
    forward_rule_ok,
    matching_check,
    matching_solve,
    parity_vector,
    window_parity,
)
from twistdance.model import (
    ClassicalPass,
    Diagram,
    DuplicateGap,
    Strand,
    TwistBar,
    VirtualPass,
    path_event_indices,
    paths_of,
    validate,
)
from twistdance.scheduler import (
    CrossingRule,
    DancePlan,
    Infeasible,
    InfeasibleReason,
    InstanceTooLarge,
    ORACLE_STEP_LIMIT,
    RuleKind,
    Schedule,
    Step,
    _Compiled,
    _moves,
    _waiting,
    _from_moves,
    oracle_schedule,
    retrograde,
    retrograde_points,
    routes_of,
    schedule_search,
    verify_schedule,
)

from corpus import all_placements, diagram_corpus, random_diagram
from strategies import diagrams, plan_geometries

TREFOIL = "O1+ U2+ O3+ U1+ O2+ U3+"
BAR_TREFOIL = "O1+ U2+ O3+ T1 U1+ O2+ U3+"

F = Facing.FORWARD
B = Facing.BACKWARD


def feasible(result):
    return isinstance(result, Schedule)


# ---------------------------------------------------------------- routes


def _arcs(m, pts):
    """Each path's event indices by modular arithmetic alone: from each
    point p up to the next, the whole cycle when there is one point."""
    if m == 0:
        return [()]
    n = len(pts)
    return [tuple((p + j) % m for j in range((pts[(i + 1) % n] - p) % m or m)) for i, p in enumerate(pts)]


def _lower(table, routes):
    """Each route or arc looked up in the event table one event at a time,
    ``(0, -1)`` ending each."""
    return [[table[e] for e in route] + [(0, -1)] for route in routes]


def test_paths_and_routes_are_the_modular_arcs_of_every_placement():
    # m twist bars, so every gap subset in every cyclic order is a placement;
    # k runs past two whole turns of the points, where routes wrap repeatedly
    plans = 0
    for m in range(9):
        d = validate(TwistBar(b) for b in range(1, m + 1))
        for n in range(1, d.gap_count + 1):
            for placement in combinations(range(d.gap_count), n):
                for r in range(n):
                    points = placement[r:] + placement[:r]
                    arcs = _arcs(m, points)
                    assert path_event_indices(d, points) == arcs, (m, points)
                    assert paths_of(d, points) == [tuple(d.events[j] for j in arc) for arc in arcs]
                    for k in range(1, 2 * n + 2):
                        routes = [sum((arcs[(i + lap) % n] for lap in range(k)), ()) for i in range(n)]
                        assert routes_of(DancePlan(d, points, k)) == routes, (m, points, k)
                        plans += 1
    assert plans == 16_642


def test_routes_trefoil_k1():
    plan = DancePlan(parse(TREFOIL), (0, 3), 1)
    assert routes_of(plan) == [(0, 1, 2), (3, 4, 5)]


def test_routes_trefoil_k2():
    plan = DancePlan(parse(TREFOIL), (0, 3), 2)
    assert routes_of(plan) == [(0, 1, 2, 3, 4, 5), (3, 4, 5, 0, 1, 2)]


def test_routes_total_steps_is_k_times_m():
    rng = random.Random(9)
    for d in diagram_corpus(31, 12):
        gaps = d.gap_count
        n = rng.randint(1, min(3, gaps))
        points = tuple(sorted(rng.sample(range(gaps), n)))
        k = rng.randint(1, 3)
        routes = routes_of(DancePlan(d, points, k))
        assert sum(len(r) for r in routes) == k * len(d.events)


def test_plan_rejects_bad_geometry():
    d = parse(TREFOIL)
    with pytest.raises(DuplicateGap):
        DancePlan(d, (1, 1), 1)
    with pytest.raises(ValueError):
        DancePlan(d, (0, 3), 0)
    with pytest.raises(ValueError):
        DancePlan(d, (0, 3), 1, RuleKind.MATCHING, None)
    with pytest.raises(ValueError):
        DancePlan(d, (0, 3), 1, RuleKind.MATCHING, (F,))
    with pytest.raises(ValueError):
        DancePlan(d, (0, 3), 1, RuleKind.FORWARD, (F, F))


def test_plan_rejects_facings_that_are_not_facing_values():
    d = parse(TREFOIL)
    for facings in ((0, 0), ("F", "F"), (F, 1), 5, F):
        with pytest.raises(ValueError, match="Facing"):
            DancePlan(d, (0, 3), 1, RuleKind.MATCHING, facings)


def test_plan_rejects_a_lap_count_that_is_not_an_int():
    d = parse(TREFOIL)
    for k in (2.0, "2", True, None):
        with pytest.raises(ValueError, match="lap count"):
            DancePlan(d, (0, 3), k)


def test_plan_rejects_rules_that_are_not_enum_members():
    # "over-first" used to be searched as unrestricted and answer FEASIBLE on
    # this plan, which deadlocks under over-first
    d = parse("O1+ U1+")
    assert schedule_search(DancePlan(d, (1,), 1)) == Infeasible(InfeasibleReason.DEADLOCK, 1)
    for crossing in ("over-first", "unrestricted", None, RuleKind.FORWARD):
        with pytest.raises(ValueError, match="^crossing_rule must be a CrossingRule"):
            DancePlan(d, (1,), 1, crossing_rule=crossing)
    for rule in ("forward", "matching", None, CrossingRule.OVER_FIRST):
        with pytest.raises(ValueError, match="^rule must be a RuleKind"):
            DancePlan(d, (1,), 1, rule=rule)


def test_plan_rejects_points_that_are_not_ints():
    d = parse(TREFOIL)
    for points in ((0.0,), ("0",), (True,), (0, 3.0), (False, 3)):
        with pytest.raises(ValueError, match="gap index"):
            DancePlan(d, points, 1)


def test_designated_is_all_forward_under_the_forward_rule():
    d = parse(TREFOIL)
    assert DancePlan(d, (0, 3), 1).designated == (F, F)
    assert DancePlan(d, (0, 3), 1, RuleKind.MATCHING, [F, B]).designated == (F, B)


# ---------------------------------------------------------------- search


def test_search_checks_the_points_once(monkeypatch):
    import twistdance.facing
    import twistdance.scheduler

    calls = []
    for module in (twistdance.scheduler, twistdance.facing):
        def counted(*args, _check=module.check_points):
            calls.append(args)
            return _check(*args)
        monkeypatch.setattr(module, "check_points", counted)
    assert feasible(schedule_search(DancePlan(parse(BAR_TREFOIL), (0, 4), 4)))
    assert len(calls) == 1


def test_trefoil_two_dancer_witness_is_deterministic():
    d = parse(TREFOIL)
    schedule = schedule_search(DancePlan(d, (0, 3), 1))
    assert feasible(schedule)
    trace = [(s.dancer, token(d.events[s.event_index])) for s in schedule.steps]
    assert trace == [
        (0, "O1+"),
        (1, "U1+"),
        (1, "O2+"),
        (0, "U2+"),
        (0, "O3+"),
        (1, "U3+"),
    ]
    assert verify_schedule(schedule) == []


def test_trefoil_single_dancer_deadlocks():
    result = schedule_search(DancePlan(parse(TREFOIL), (0,), 1))
    assert isinstance(result, Infeasible)
    assert result.reason is InfeasibleReason.DEADLOCK
    assert result.states_explored >= 1


def test_bar_trefoil_feasible_at_k4():
    result = schedule_search(DancePlan(parse(BAR_TREFOIL), (0, 4), 4))
    assert feasible(result)
    assert verify_schedule(result) == []


def test_bar_trefoil_facing_parity_blocks_small_k():
    for k in (1, 2, 3):
        result = schedule_search(DancePlan(parse(BAR_TREFOIL), (0, 4), k))
        assert isinstance(result, Infeasible)
        assert result.reason is InfeasibleReason.FACING_PARITY


def test_single_bar_needs_even_laps():
    d = parse("T1")
    assert feasible(schedule_search(DancePlan(d, (0,), 2)))
    result = schedule_search(DancePlan(d, (0,), 1))
    assert isinstance(result, Infeasible)
    assert result.reason is InfeasibleReason.FACING_PARITY


def test_empty_diagram_trivially_feasible():
    result = schedule_search(DancePlan(parse(""), (0,), 1))
    assert feasible(result)
    assert result.steps == ()


def test_matching_rule_start_facings_recorded():
    d = parse("T1 T2")
    plan = DancePlan(d, (0, 1), 1, RuleKind.MATCHING, (F, B))
    schedule = schedule_search(plan)
    assert feasible(schedule)
    assert verify_schedule(schedule) == []
    # dancer 0 flips at its bar and must end backward at point 1
    end = {s.dancer: s.facing_after for s in schedule.steps}
    assert end[0] is B and end[1] is F


def test_search_order_prefers_low_dancer_ids():
    # both dancers free: dancer 0 should finish before dancer 1 starts
    d = parse("V1 V1")
    schedule = schedule_search(DancePlan(d, (0, 1), 1))
    assert [s.dancer for s in schedule.steps] == [0, 1]


# ---------------------------------------------------------------- oracle


def test_oracle_matches_spec_examples():
    d = parse(TREFOIL)
    assert feasible(oracle_schedule(DancePlan(d, (0, 3), 1)))
    single = oracle_schedule(DancePlan(d, (0,), 1))
    assert isinstance(single, Infeasible)
    assert single.reason is InfeasibleReason.DEADLOCK
    empty = oracle_schedule(DancePlan(parse(""), (0,), 1))
    assert feasible(empty) and empty.steps == ()


def test_oracle_guard():
    with pytest.raises(InstanceTooLarge):
        oracle_schedule(DancePlan(parse(TREFOIL), (0,), 3))


def test_the_oracle_refuses_before_it_builds_any_route(monkeypatch):
    import twistdance.scheduler

    def no_routes(plan):
        raise AssertionError("a refused plan needs no routes")

    monkeypatch.setattr(twistdance.scheduler, "routes_of", no_routes)
    with pytest.raises(InstanceTooLarge, match="^18 total steps"):  # k * m = 3 * 6
        oracle_schedule(DancePlan(parse(TREFOIL), (0, 3), 3))


def test_oracle_agrees_with_search_on_corpus():
    disagreements = []
    for d in diagram_corpus(7, 10):
        for points in all_placements(d, n_max=3):
            for k in (1, 2):
                if k * len(d.events) > 16:
                    continue
                plan = DancePlan(d, points, k)
                fast = schedule_search(plan)
                slow = oracle_schedule(plan)
                if feasible(fast) != feasible(slow):
                    disagreements.append((d, points, k))
    assert disagreements == []


def test_oracle_and_search_return_the_same_lex_least_witness():
    # both are specified to yield the lexicographically least feasible
    # dancer-id sequence, so feasible witnesses must coincide exactly
    for d in diagram_corpus(19, 8):
        for points in all_placements(d, n_max=2):
            plan = DancePlan(d, points, 1)
            fast = schedule_search(plan)
            slow = oracle_schedule(plan)
            if feasible(fast) and feasible(slow):
                assert fast.steps == slow.steps


def test_forward_rule_is_matching_with_every_point_designated_forward():
    for d in diagram_corpus(53, 14):
        for points in all_placements(d, n_max=3):
            for k in (1, 2, 3):
                forward = DancePlan(d, points, k)
                matching = DancePlan(d, points, k, RuleKind.MATCHING, (F,) * len(points))
                assert _outcome(schedule_search(forward)) == _outcome(schedule_search(matching))
                if k * len(d.events) <= 16:
                    assert _outcome(oracle_schedule(forward)) == _outcome(
                        oracle_schedule(matching)
                    )


# ------------------------------------------------------ safe-move reduction


def _unreduced_search(plan):
    """The search without the safe-move reduction: every dancer is tried at
    every state and dead states are keyed by the raw position vector."""
    if not matching_check(parity_vector(plan.diagram, plan.points), plan.designated, plan.k):
        return Infeasible(InfeasibleReason.FACING_PARITY, 0)
    routes = routes_of(plan)
    n, total = len(routes), sum(len(r) for r in routes)
    consumers = {CrossingRule.OVER_FIRST: Strand.UNDER, CrossingRule.UNDER_FIRST: Strand.OVER}
    consumer = consumers.get(plan.crossing_rule)
    slots = {}
    lowered_event = [
        (slots.setdefault(ev.crossing_id, len(slots) + 1), -1 if ev.strand is consumer else 1)
        if consumer is not None and isinstance(ev, ClassicalPass) else (0, 0)
        for ev in plan.diagram.events
    ]
    lowered = [[lowered_event[idx] for idx in route] + [(0, -1)] for route in routes]
    stride = [1]
    for route in routes[:-1]:
        stride.append(stride[-1] * (len(route) + 1))
    positions, balance = [0] * n, [0] * (len(slots) + 1)
    key, dead, moves, resume = 0, set(), [], [0]
    while len(moves) < total:
        d = resume[-1]
        while d < n:
            slot, delta = lowered[d][positions[d]]
            if (delta >= 0 or balance[slot] > 0) and key + stride[d] not in dead:
                balance[slot] += delta
                positions[d] += 1
                key += stride[d]
                resume[-1] = d + 1
                moves.append(d)
                resume.append(0)
                break
            d += 1
        else:
            dead.add(key)
            resume.pop()
            if not moves:
                return Infeasible(InfeasibleReason.DEADLOCK)
            d = moves.pop()
            positions[d] -= 1
            slot, delta = lowered[d][positions[d]]
            balance[slot] -= delta
            key -= stride[d]
    return _from_moves(plan, routes, moves, _bar_prefix(plan.diagram))


def test_reduced_search_agrees_with_the_unreduced_search_beyond_the_oracle():
    checked = Counter()
    for d in diagram_corpus(83, 8, max_events=10):
        for points in all_placements(d, n_max=3):
            for k in (1, 2, 3):
                if k * len(d.events) <= ORACLE_STEP_LIMIT:
                    continue
                for rule in CrossingRule:
                    plan = DancePlan(d, points, k, crossing_rule=rule)
                    fast, slow = schedule_search(plan), _unreduced_search(plan)
                    if feasible(slow):
                        assert feasible(fast) and fast.steps == slow.steps
                        checked["feasible"] += 1
                    else:
                        assert not feasible(fast) and fast.reason is slow.reason
                        checked[slow.reason] += 1
    assert min(checked.values()) >= 500, checked


TAIL_DIAGRAM = (
    "O6- U5+ V2 U3+ V2 V5 V6 U1+ O1+ V7 V3 V10 U6- V4 V4 V3 "
    "V1 V8 V1 O5+ O2+ V6 U4- O3+ U2+ V8 V7 V10 O4- V9 V9 V5"
)
TAIL_POINTS = (0, 1, 2, 3, 12, 15, 24, 25)


def test_tail_plan_deadlocks_in_few_states():
    # the unreduced search needs 2,154,904 states to exhaust this plan
    d = parse(TAIL_DIAGRAM)
    result = schedule_search(DancePlan(d, TAIL_POINTS, 4))
    assert result.reason is InfeasibleReason.DEADLOCK
    assert result.states_explored < 10_000
    dual = DancePlan(
        retrograde(d), retrograde_points(d, TAIL_POINTS), 4, crossing_rule=CrossingRule.UNDER_FIRST
    )
    result = schedule_search(dual)
    assert result.reason is InfeasibleReason.DEADLOCK
    assert result.states_explored < 10_000


TAIL_80_DIAGRAM = (
    "V3 V27 V12 V12 V14 V4 V15 V13 V22 U8- V25 V17 V27 V28 U4- V10 V19 O9- V22 V21 "
    "O7- V21 O5- V3 O6- U7- V19 V11 V8 U9- V5 V1 U6- V24 V17 V26 V29 O3- U10- V23 "
    "V13 V20 V26 V23 V30 O10- O8- V24 V28 V18 U3- V29 V15 O2+ V9 O4- U2+ V1 V8 V2 "
    "U5- V16 V25 V10 V7 V20 V16 V11 V5 V18 U1- V4 V7 O1- V2 V6 V14 V9 V6 V30"
)
TAIL_80_POINTS = (15, 16, 26, 43, 46, 49, 51, 59, 67, 75, 76)


def test_80_event_tail_plan_is_refuted_before_the_search():
    # the search alone needs 2,569,400 states to exhaust this plan
    d = parse(TAIL_80_DIAGRAM)
    result = schedule_search(DancePlan(d, TAIL_80_POINTS, 4))
    assert result.reason is InfeasibleReason.DEADLOCK
    assert result.states_explored == 1
    dual = DancePlan(
        retrograde(d),
        retrograde_points(d, TAIL_80_POINTS),
        4,
        crossing_rule=CrossingRule.UNDER_FIRST,
    )
    result = schedule_search(dual)
    assert result.reason is InfeasibleReason.DEADLOCK
    assert result.states_explored == 1


def test_search_state_counts_on_deep_deadlocks(monkeypatch):
    import twistdance.scheduler

    # with the relaxation off, the memo alone bounds these searches; a memo key
    # that merged distinct states, or split one, would change the counts.  The
    # search runs only on feasible plans, so it raises when it exhausts, and
    # its error carries the count
    monkeypatch.setattr(twistdance.scheduler, "_waiting", lambda lowered, slot_count: {})
    d = parse(TAIL_DIAGRAM)
    with pytest.raises(RuntimeError) as exhausted:
        schedule_search(DancePlan(d, TAIL_POINTS, 4))
    assert exhausted.value.states == 5778
    d = parse(TAIL_80_DIAGRAM)
    dual = DancePlan(
        retrograde(d),
        retrograde_points(d, TAIL_80_POINTS),
        4,
        crossing_rule=CrossingRule.UNDER_FIRST,
    )
    with pytest.raises(RuntimeError) as exhausted:
        schedule_search(dual)
    assert exhausted.value.states == 365571


def test_deadlocks_are_decided_without_building_routes(monkeypatch):
    import twistdance.scheduler

    def no_routes(plan):
        raise AssertionError("a deadlock needs no routes")

    def no_cycle(self, points, waits):
        raise AssertionError("a plan's deadlock needs no wait-for cycle")

    monkeypatch.setattr(twistdance.scheduler, "routes_of", no_routes)
    monkeypatch.setattr(_Compiled, "wait_cycle", no_cycle)
    d = parse(TAIL_80_DIAGRAM)
    dual = DancePlan(
        retrograde(d),
        retrograde_points(d, TAIL_80_POINTS),
        4,
        crossing_rule=CrossingRule.UNDER_FIRST,
    )
    for plan in (DancePlan(d, TAIL_80_POINTS, 4), dual):
        assert schedule_search(plan) == Infeasible(InfeasibleReason.DEADLOCK, 1)


# ------------------------------------------------------------- relaxation


def _waiting_in_relaxation(plan):
    compiled = _Compiled(plan.diagram, plan.crossing_rule)
    return bool(_waiting(_lower(compiled.table, routes_of(plan)), compiled.slot_count))


def _has_cycle(d, points, rule):
    """Whether G_P has a directed cycle, by Kahn's algorithm: the event cycle
    x -> x + 1 (mod m) without the edge into each point's gap, plus one chord
    per classical crossing from its deposit to its consumer."""
    m = len(d.events)
    heads = [[] if (x + 1) % m in points else [(x + 1) % m] for x in range(m)]
    passes = {}
    for e, ev in enumerate(d.events):
        if isinstance(ev, ClassicalPass):
            passes.setdefault(ev.crossing_id, {})[ev.strand] = e
    deposit, consumer = Strand.OVER, Strand.UNDER
    if rule is CrossingRule.UNDER_FIRST:
        deposit, consumer = consumer, deposit
    for pair in passes.values():
        heads[pair[deposit]].append(pair[consumer])
    indegree = [0] * m
    for out in heads:
        for head in out:
            indegree[head] += 1
    ready = [x for x in range(m) if not indegree[x]]
    removed = 0
    while ready:
        removed += 1
        for head in heads[ready.pop()]:
            indegree[head] -= 1
            if not indegree[head]:
                ready.append(head)
    return removed < m


def test_relaxation_refutes_no_feasible_plan_beyond_the_oracle():
    checked = Counter()
    rules = (CrossingRule.OVER_FIRST, CrossingRule.UNDER_FIRST)
    for d in diagram_corpus(91, 4, max_events=10):
        for points in all_placements(d, n_max=3):
            facings = [None, *product((F, B), repeat=len(points))]
            for k, rule, f in product((1, 2, 3), rules, facings):
                if k * len(d.events) <= ORACLE_STEP_LIMIT:
                    continue
                if f is None:
                    plan = DancePlan(d, points, k, crossing_rule=rule)
                else:
                    plan = DancePlan(d, points, k, RuleKind.MATCHING, f, rule)
                slow = _unreduced_search(plan)
                if not feasible(slow) and slow.reason is InfeasibleReason.FACING_PARITY:
                    continue
                # the relaxation is exact: it refutes every deadlock and nothing else
                assert _waiting_in_relaxation(plan) != feasible(slow), (
                    serialize(d), points, k, rule, f
                )
                checked["feasible" if feasible(slow) else "refuted"] += 1
    assert min(checked.values()) >= 500, checked


def test_waits_is_the_relaxation_on_the_lowered_arcs():
    # every cyclic order of each point set, so arcs that wrap past the last
    # event, such as those of (m - 1, 0), are walked over the table too;
    # waits numbers the dancers by the sorted points, and any cyclic order
    # waits exactly when the sorted one does
    seen = Counter()
    for d in [parse(""), *diagram_corpus(53, 30, max_events=10)]:
        m = len(d.events)
        for rule in CrossingRule:
            compiled = _Compiled(d, rule)
            for placement in all_placements(d, n_max=3):
                expected = _waiting(_lower(compiled.table, _arcs(m, placement)), compiled.slot_count)
                for r in range(len(placement)):
                    points = placement[r:] + placement[:r]
                    lowered = _lower(compiled.table, _arcs(m, points))
                    assert bool(_waiting(lowered, compiled.slot_count)) == bool(expected)
                    assert compiled.waits(points) == expected, (serialize(d), points, rule)
                    seen[bool(expected), len(points) == 1, points[0] > points[-1]] += 1
    assert all(seen[stuck, single, False] for stuck in (False, True) for single in (False, True))
    assert seen[True, False, True] and seen[False, False, True]


def test_waits_is_the_acyclicity_of_the_event_graph_at_40_events():
    # an oracle at any size, sharing nothing with the relaxation: points
    # deadlock exactly when G_P, the event cycle cut at the points plus the
    # crossings' deposit -> consumer chords, has a directed cycle
    rng = random.Random(40)
    diagrams = [random_diagram(rng, 40, allow_empty=False) for _ in range(30)]
    verdicts = Counter()
    for d in diagrams:
        m = len(d.events)
        for rule in (CrossingRule.OVER_FIRST, CrossingRule.UNDER_FIRST):
            compiled = _Compiled(d, rule)
            for _ in range(300):
                placement = sorted(rng.sample(range(m), rng.randint(1, min(6, m))))
                r = rng.randrange(len(placement))
                points = tuple(placement[r:] + placement[:r])
                deadlocked = bool(compiled.waits(points))
                assert deadlocked == _has_cycle(d, points, rule), (serialize(d), points, rule)
                verdicts[deadlocked] += 1
    assert min(verdicts[True], verdicts[False]) >= 1_000, verdicts


def test_points_that_do_not_deadlock_have_an_empty_wait_for_cycle():
    # walked from waits that are empty, the cycle has no edge, and points
    # that do not deadlock keep no clause they miss: they keep themselves as
    # a live set, both points alone deadlocking
    d = parse(BAR_TREFOIL)
    for points in [(0, 2), (2, 0)]:
        compiled = _Compiled(d, CrossingRule.OVER_FIRST)
        waits = compiled.waits(points)
        assert waits == {}
        assert compiled.wait_cycle(points, waits) == []
        assert not compiled.deadlocks(points) and compiled.live == [0b101]
        assert all(clause & 0b101 for clause in compiled.clauses), compiled.clauses
    compiled = _Compiled(d, CrossingRule.OVER_FIRST)
    waits = compiled.waits((0,))
    assert waits and compiled.wait_cycle((0,), waits)
    assert compiled.deadlocks((0,)) and len(compiled.clauses) == 1 and compiled.clauses[0]
    assert compiled.live == []


@given(diagrams(max_events=10), st.sampled_from(CrossingRule))
def test_the_compiled_chords_are_each_slots_table_entries(d, rule):
    compiled = _Compiled(d, rule)
    deposit, consumer = compiled.deposit, compiled.consumer
    assert len(deposit) == len(consumer) == compiled.slot_count + 1
    for slot in range(1, compiled.slot_count + 1):
        assert deposit[slot] == compiled.table.index((slot, 1))
        assert consumer[slot] == compiled.table.index((slot, -1))


def test_with_no_slot_the_witness_is_the_searchs_own_at_40_events():
    # unrestricted plans, and diagrams with no classical crossing under every
    # rule, are answered without a search; one spare slot that no step uses
    # makes _moves run its depth-first search on the same routes instead
    rng = random.Random(41)
    checked = Counter()
    for i in range(24):
        if i % 2:  # no classical crossing: 40 events of virtual pairs and bars
            v = rng.randint(0, 20)
            events = [VirtualPass(j) for j in range(1, v + 1) for _ in (0, 1)]
            events += [TwistBar(b) for b in range(1, 41 - 2 * v)]
            rng.shuffle(events)
            d = validate(events)
        else:
            d = random_diagram(rng, 40, allow_empty=False)
        m = len(d.events)
        if m <= ORACLE_STEP_LIMIT:  # beyond the oracle's guard at every k
            continue
        crossings = any(isinstance(ev, ClassicalPass) for ev in d.events)
        rules = [CrossingRule.UNRESTRICTED] if crossings else list(CrossingRule)
        for _ in range(4):
            points = tuple(sorted(rng.sample(range(m), rng.randint(1, min(4, m)))))
            n = len(points)
            for k, rule in product(range(1, 2 * n + 2), rules):
                facings = matching_solve(parity_vector(d, points), k)
                if facings is None:
                    continue
                plan = DancePlan(d, points, k, RuleKind.MATCHING, facings, rule)
                assert k * m > ORACLE_STEP_LIMIT
                compiled = _Compiled(d, rule)
                assert compiled.slot_count == 0
                searched = _moves(_lower(compiled.table, routes_of(plan)), 1)
                witness = schedule_search(plan)
                assert witness._move_columns == _from_moves(plan, routes_of(plan), searched, compiled.prefix)._move_columns
                assert verify_schedule(witness) == []
                checked[crossings] += 1
    assert min(checked[True], checked[False]) >= 50, checked


def test_a_plan_nothing_can_block_never_enters_the_search(monkeypatch):
    import twistdance.scheduler
    from twistdance.solver import min_dancers

    def no_search(lowered, slot_count):
        raise AssertionError("a plan with no balance slot needs no search")

    monkeypatch.setattr(twistdance.scheduler, "_moves", no_search)
    checked = Counter()
    for d in diagram_corpus(47, 60, max_events=10):
        crossings = any(isinstance(ev, ClassicalPass) for ev in d.events)
        rules = [CrossingRule.UNRESTRICTED] if crossings else list(CrossingRule)
        for rule in rules:
            for points, k in product(all_placements(d, n_max=2), (1, 2, 3)):
                facings = matching_solve(parity_vector(d, points), k)
                if facings is not None:
                    plan = DancePlan(d, points, k, RuleKind.MATCHING, facings, rule)
                    assert verify_schedule(schedule_search(plan)) == []
                    checked[crossings] += 1
            for dance_rule in RuleKind:
                report = min_dancers(d, dance_rule, rule, k_max=4, n_max=2)
                if report.schedule is not None:
                    assert verify_schedule(report.schedule) == []
                    checked["min_dancers"] += 1
    assert min(checked[True], checked[False], checked["min_dancers"]) >= 50, checked


@given(
    plan_geometries(max_events=8, n_max=3, k_max=4),
    st.sampled_from((CrossingRule.OVER_FIRST, CrossingRule.UNDER_FIRST)),
)
def test_a_dancer_stuck_in_the_relaxation_proves_deadlock(geometry, rule):
    d, points, k = geometry
    assume(k * len(d.events) <= ORACLE_STEP_LIMIT)
    facings = matching_solve(parity_vector(d, points), k)
    assume(facings is not None)
    plan = DancePlan(d, points, k, RuleKind.MATCHING, facings, rule)
    if _waiting_in_relaxation(plan):
        result = oracle_schedule(plan)
        assert not feasible(result) and result.reason is InfeasibleReason.DEADLOCK


# ------------------------------------------------------- lap-count theorem


def _phase_witness(plan):
    """The 1-lap moves replayed k times: in phase j the move of dancer a is
    made by dancer a - j (mod n), who walks arc a as its j-th arc."""
    one_lap = _Compiled(plan.diagram, plan.crossing_rule).witness(replace(plan, k=1))
    assert not isinstance(one_lap, Infeasible), plan
    moves = [step.dancer for step in one_lap.steps]
    phases = [(a - j) % plan.n for j in range(plan.k) for a in moves]
    return _from_moves(plan, routes_of(plan), phases, _bar_prefix(plan.diagram))


def _gated_plan(geometry, rule):
    d, points, k = geometry
    assume(k * len(d.events) <= ORACLE_STEP_LIMIT)
    facings = matching_solve(parity_vector(d, points), k)
    assume(facings is not None)
    return DancePlan(d, points, k, RuleKind.MATCHING, facings, rule)


@given(
    plan_geometries(max_events=8, n_max=4, k_max=4),
    st.sampled_from((CrossingRule.OVER_FIRST, CrossingRule.UNDER_FIRST)),
)
def test_past_the_gate_deadlock_is_the_relaxation_on_the_arcs(geometry, rule):
    plan = _gated_plan(geometry, rule)
    result = oracle_schedule(plan)
    assert feasible(result) or result.reason is InfeasibleReason.DEADLOCK
    assert (not feasible(result)) == _waiting_in_relaxation(replace(plan, k=1))


@given(
    plan_geometries(max_events=8, n_max=4, k_max=4),
    st.sampled_from((CrossingRule.OVER_FIRST, CrossingRule.UNDER_FIRST)),
)
def test_the_phase_witness_is_a_schedule_of_every_feasible_plan(geometry, rule):
    plan = _gated_plan(geometry, rule)
    assume(feasible(oracle_schedule(plan)))
    assert verify_schedule(_phase_witness(plan)) == []


def test_every_deadlock_at_a_higher_lap_count_is_a_deadlock_of_its_one_lap_plan():
    # a 1-lap plan has m steps, so the oracle covers it for every diagram of
    # at most 16 events, whatever k the deadlock was found at
    checked = 0
    for d in diagram_corpus(101, 40, max_events=16):
        for points in all_placements(d, n_max=2):
            t = parity_vector(d, points)
            one_lap = matching_solve(t, 1)
            if one_lap is None:
                continue
            deadlocked = {
                rule
                for k, rule in product((2, 3), CrossingRule)
                if (facings := matching_solve(t, k)) is not None
                and not feasible(
                    schedule_search(DancePlan(d, points, k, RuleKind.MATCHING, facings, rule))
                )
            }
            for rule in deadlocked:
                plan = DancePlan(d, points, 1, RuleKind.MATCHING, one_lap, rule)
                slow = oracle_schedule(plan)
                assert not feasible(slow) and slow.reason is InfeasibleReason.DEADLOCK, plan
                checked += 1
    assert checked >= 1000, checked


# ------------------------------------------------------------- retrograde


def test_retrograde_reverses_event_order():
    assert retrograde(parse(TREFOIL)) == parse("U3+ O2+ U1+ O3+ U2+ O1+")
    assert retrograde(parse("")) == parse("")


def test_retrograde_is_an_involution():
    d = parse(BAR_TREFOIL)
    assert retrograde(retrograde(d)) == d


def test_retrograde_point_mapping():
    d = parse(TREFOIL)
    assert retrograde_points(d, (0, 3)) == (0, 3)
    assert retrograde_points(d, (1, 4)) == (2, 5)
    assert retrograde_points(parse(""), (0,)) == (0,)


def test_retrograde_points_refuses_what_a_plan_refuses():
    d = parse(BAR_TREFOIL)
    for points in [(100,), (True,), (), 5, (0, 3, 1)]:
        with pytest.raises(ValueError):
            DancePlan(d, points, 1)
        with pytest.raises(ValueError):
            retrograde_points(d, points)
    with pytest.raises(DuplicateGap):
        retrograde_points(d, (1, 1))
    assert retrograde_points(d, (3, 0)) == retrograde_points(d, (0, 3)) == (0, 4)


def test_retrograde_duality_on_corpus():
    disagreements = []
    for d in diagram_corpus(23, 10):
        rd = retrograde(d)
        for points in all_placements(d, n_max=2):
            for k in (1, 2):
                forward_plan = DancePlan(d, points, k, crossing_rule=CrossingRule.OVER_FIRST)
                mirror_plan = DancePlan(
                    rd, retrograde_points(d, points), k, crossing_rule=CrossingRule.UNDER_FIRST
                )
                if feasible(schedule_search(forward_plan)) != feasible(
                    schedule_search(mirror_plan)
                ):
                    disagreements.append((d, points, k))
    assert disagreements == []


# ------------------------------------------- metamorphic relations beyond the oracle


def _plans_of(d):
    """Plans of n <= 2 dancers and k <= 3 laps on d: forward, and with the
    least matching facings when the parities admit any."""
    for points in all_placements(d, n_max=2):
        for k in (1, 2, 3):
            yield points, k, RuleKind.FORWARD, None
            facings = matching_solve(parity_vector(d, points), k)
            if facings is not None:
                yield points, k, RuleKind.MATCHING, facings


def test_rotation_keeps_the_verdict_and_shifts_the_witness():
    rng = random.Random(61)
    beyond = 0
    for i, d in enumerate(diagram_corpus(61, 24, max_events=12)):
        m = len(d.events)
        if m < 2:
            continue
        r = rng.randrange(1, m)
        rotated = Diagram(d.events[r:] + d.events[:r])
        crossing_rule = list(CrossingRule)[i % 3]
        for points, k, rule, facings in _plans_of(d):
            shifted = tuple((p - r) % m for p in points)
            result = schedule_search(DancePlan(d, points, k, rule, facings, crossing_rule))
            image = schedule_search(DancePlan(rotated, shifted, k, rule, facings, crossing_rule))
            beyond += k * m > ORACLE_STEP_LIMIT
            if not feasible(result):
                assert image == result, (d, r, points, k, rule)
                continue
            assert feasible(image), (d, r, points, k, rule)
            assert image.steps == tuple(
                replace(s, event_index=(s.event_index - r) % m) for s in result.steps
            ), (d, r, points, k, rule)
    assert beyond > 1000


def test_relabelling_crossing_ids_keeps_the_verdict_and_the_witness():
    rng = random.Random(67)
    beyond = 0
    for i, d in enumerate(diagram_corpus(67, 24, max_events=12)):
        classical = sorted({ev.crossing_id for ev in d.events if isinstance(ev, ClassicalPass)})
        virtual = sorted({ev.crossing_id for ev in d.events if isinstance(ev, VirtualPass)})
        to_classical = dict(zip(classical, rng.sample(classical, len(classical))))
        to_virtual = dict(zip(virtual, rng.sample(virtual, len(virtual))))
        relabelled = Diagram(
            tuple(
                replace(ev, crossing_id=to_classical[ev.crossing_id])
                if isinstance(ev, ClassicalPass)
                else VirtualPass(to_virtual[ev.crossing_id])
                if isinstance(ev, VirtualPass)
                else ev
                for ev in d.events
            )
        )
        crossing_rule = list(CrossingRule)[i % 3]
        for points, k, rule, facings in _plans_of(d):
            result = schedule_search(DancePlan(d, points, k, rule, facings, crossing_rule))
            image = schedule_search(DancePlan(relabelled, points, k, rule, facings, crossing_rule))
            beyond += k * len(d.events) > ORACLE_STEP_LIMIT
            assert _outcome(image) == _outcome(result), (d, relabelled, points, k, rule)
    assert beyond > 1000


# ------------------------------------------------------- crossing rules


def _outcome(result):
    """What a search decided, without the plan: the steps or the failure."""
    return result.steps if feasible(result) else result


def _swap_strands(d):
    swap = {Strand.OVER: Strand.UNDER, Strand.UNDER: Strand.OVER}
    return Diagram(
        tuple(
            replace(ev, strand=swap[ev.strand]) if isinstance(ev, ClassicalPass) else ev
            for ev in d.events
        )
    )


def _classical_to_virtual(d):
    fresh = max((ev.crossing_id for ev in d.events if isinstance(ev, VirtualPass)), default=0)
    return Diagram(
        tuple(
            VirtualPass(fresh + ev.crossing_id) if isinstance(ev, ClassicalPass) else ev
            for ev in d.events
        )
    )


def test_under_first_is_over_first_on_the_strand_swap():
    for d in diagram_corpus(29, 14):
        swapped = _swap_strands(d)
        for points in all_placements(d, n_max=3):
            for k in (1, 2):
                under = DancePlan(d, points, k, crossing_rule=CrossingRule.UNDER_FIRST)
                over = DancePlan(swapped, points, k, crossing_rule=CrossingRule.OVER_FIRST)
                assert _outcome(schedule_search(under)) == _outcome(schedule_search(over))


def test_unrestricted_is_over_first_with_classical_crossings_made_virtual():
    for d in diagram_corpus(37, 14):
        virtual = _classical_to_virtual(d)
        for points in all_placements(d, n_max=3):
            for k in (1, 2):
                free = DancePlan(d, points, k, crossing_rule=CrossingRule.UNRESTRICTED)
                over = DancePlan(virtual, points, k, crossing_rule=CrossingRule.OVER_FIRST)
                assert _outcome(schedule_search(free)) == _outcome(schedule_search(over))


def test_sparse_crossing_ids_larger_than_the_diagram():
    assert [s.dancer for s in _witness("O1000 U7 O7 U1000", (0, 2), 1).steps] == [0, 1, 0, 1]
    for code in ("O1000 U7 O7 U1000", "V900 O1000 U7 V900 O7 U1000"):
        d = parse(code)
        for rule in (CrossingRule.OVER_FIRST, CrossingRule.UNDER_FIRST):
            for points in all_placements(d, n_max=4):
                for k in range(1, 16 // len(d.events) + 1):
                    plan = DancePlan(d, points, k, crossing_rule=rule)
                    fast, slow = schedule_search(plan), oracle_schedule(plan)
                    assert feasible(fast) == feasible(slow)
                    if feasible(fast):
                        assert fast.steps == slow.steps
                        assert verify_schedule(fast) == []


# ------------------------------------------------------------- verifier


def _witness(code=TREFOIL, points=(0, 3), k=1):
    schedule = schedule_search(DancePlan(parse(code), points, k))
    assert feasible(schedule)
    return schedule


def test_verifier_rejects_missing_steps():
    schedule = _witness()
    assert verify_schedule(replace(schedule, steps=schedule.steps[:-1]))


def test_verifier_rejects_out_of_route_order():
    schedule = _witness()
    steps = list(schedule.steps)
    # swap dancer 0's first two steps (positions 0 and 3 in the linearization)
    steps[0], steps[3] = steps[3], steps[0]
    assert verify_schedule(replace(schedule, steps=tuple(steps)))


def test_verifier_rejects_wrong_facing():
    schedule = _witness(BAR_TREFOIL, (0, 4), 4)
    steps = list(schedule.steps)
    steps[0] = replace(steps[0], facing_after=steps[0].facing_after.flipped())
    assert verify_schedule(replace(schedule, steps=tuple(steps)))


def test_verifier_rejects_prefix_violation():
    schedule = _witness()
    steps = list(schedule.steps)
    # moving dancer 1's U1+ before dancer 0's O1+ keeps per-dancer order
    steps[0], steps[1] = steps[1], steps[0]
    problems = verify_schedule(replace(schedule, steps=tuple(steps)))
    assert any("unpermitted" in p for p in problems)


def test_verifier_rejects_under_first_prefix_violation():
    plan = DancePlan(parse(TREFOIL), (0, 3), 1, crossing_rule=CrossingRule.UNDER_FIRST)
    schedule = schedule_search(plan)
    steps = list(schedule.steps)
    # moving dancer 0's O1+ before dancer 1's U1+ keeps per-dancer order
    steps[0], steps[1] = steps[1], steps[0]
    problems = verify_schedule(replace(schedule, steps=tuple(steps)))
    assert problems == ["step 0: over pass of crossing 1 unpermitted"]


def test_verifier_accepts_search_witnesses_on_corpus():
    for d in diagram_corpus(45, 10):
        for points in all_placements(d, n_max=2):
            plan = DancePlan(d, points, 2)
            result = schedule_search(plan)
            if feasible(result):
                assert verify_schedule(result) == []


def test_verifier_flags_a_wrong_end_facing_under_both_rules():
    d = parse("T1")
    for plan in (
        DancePlan(d, (0,), 1),
        DancePlan(d, (0,), 1, RuleKind.MATCHING, (F,)),
    ):
        # the facing evolution is right (the bar flips F to B) but the
        # dancer ends B at a point designated F
        schedule = Schedule((Step(0, 0, 0, B),), True, plan)
        problems = verify_schedule(schedule)
        assert len(problems) == 1 and problems[0].startswith("dancer 0: ends")


def test_verifier_requires_plan():
    # a schedule with no plan is reported, not raised; a step that is not a
    # Step, or whose dancer id or event index is not an int or is out of
    # range, is refused when the schedule is built, so the verifier never
    # sees one
    assert verify_schedule(Schedule((), True, None)) == ["schedule carries no plan to verify against"]
    plan = DancePlan(parse(BAR_TREFOIL), (0,), 1)
    for dancer, event_index in [(0.0, 0), (None, 0), (True, 0), (0, 0.5), (0, "1"), (0, False)]:
        with pytest.raises(ValueError, match="is not an int"):
            Schedule((Step(dancer, 0, event_index, F),), True, plan)
    plan = DancePlan(parse(TREFOIL), (0, 3), 1)  # 2 dancers, 6 events
    for dancer, event_index, error in [
        (5, 0, "dancer 5 outside 0..1"),
        (-1, 0, "dancer -1 outside 0..1"),
        (0, 6, "event index 6 outside 0..5"),
    ]:
        with pytest.raises(ValueError, match=re.escape(error)):
            Schedule((Step(dancer, 0, event_index, F),), True, plan)
    for step in (1, None, (0, 0, 0, F)):
        with pytest.raises(ValueError, match=re.escape(f"step must be a Step, got {step!r}")):
            Schedule((Step(0, 0, 0, F), step), True, plan)


@pytest.mark.parametrize("value", [TREFOIL, None], ids=["Gauss code", "None"])
@pytest.mark.parametrize(
    "function, error",
    [
        ("schedule_search", "plan must be a DancePlan"),
        ("oracle_schedule", "plan must be a DancePlan"),
        ("routes_of", "plan must be a DancePlan"),
        ("verify_schedule", "schedule must be a Schedule"),
        ("trace_to_json", "schedule must be a Schedule"),
        ("svg_timeline", "schedule must be a Schedule"),
    ],
)
def test_a_plan_or_schedule_of_another_type_is_refused(function, error, value):
    import twistdance

    with pytest.raises(ValueError) as refused:
        getattr(twistdance, function)(value)
    assert str(refused.value) == f"{error}, got {value!r}"


@pytest.mark.parametrize(
    "steps, feasible, plan, error",
    [
        ((), True, "x", "plan must be a DancePlan, got 'x'"),
        ((), True, TREFOIL, f"plan must be a DancePlan, got {TREFOIL!r}"),
        (5, True, DancePlan(parse(TREFOIL), (0, 3), 1), "steps must be an iterable of Step, got 5"),
        (None, True, None, "steps must be an iterable of Step, got None"),
        # a trace would write ``"feasible":"yes"``, which is not a JSON boolean
        ((), "yes", None, "feasible must be a bool, got 'yes'"),
        ((), 1, None, "feasible must be a bool, got 1"),
        ((), None, DancePlan(parse(TREFOIL), (0, 3), 1), "feasible must be a bool, got None"),
    ],
    ids=[
        "plan 'x'", "plan a Gauss code", "steps 5", "steps None",
        "feasible 'yes'", "feasible 1", "feasible None",
    ],
)
def test_a_schedule_whose_plan_or_steps_are_of_another_type_is_refused(steps, feasible, plan, error):
    # refused when the schedule is built, so neither output nor the verifier
    # is ever handed one
    with pytest.raises(ValueError) as refused:
        Schedule(steps, feasible, plan)
    assert str(refused.value) == error


def test_steps_given_as_a_generator_are_kept():
    # the steps are made a tuple once, so a generator is not used up by a
    # first pass over it
    plan = DancePlan(parse("O1+ U1+"), (0,), 1)
    witness = schedule_search(plan)
    assert len(witness.steps) == 2
    schedule = Schedule((s for s in witness.steps), True, plan)
    assert schedule.steps == witness.steps
    assert trace_to_json(schedule) == trace_to_json(witness)
    assert trace_to_json(schedule).count('"t":') == 2
    assert verify_schedule(schedule) == []


# ------------------------------------------------------------- properties


def test_unrestricted_rule_always_feasible_when_parity_allows():
    for d in diagram_corpus(61, 12):
        for points in all_placements(d, n_max=2):
            for k in (1, 2):
                t = parity_vector(d, points)
                if not forward_rule_ok(t, k):
                    continue
                plan = DancePlan(d, points, k, crossing_rule=CrossingRule.UNRESTRICTED)
                assert feasible(schedule_search(plan))


def test_feasible_schedules_cover_each_event_k_times():
    for d in diagram_corpus(77, 12):
        if not d.events:
            continue
        for points in all_placements(d, n_max=2):
            for k in (1, 2):
                result = schedule_search(DancePlan(d, points, k))
                if feasible(result):
                    counts = Counter(s.event_index for s in result.steps)
                    assert counts == {i: k for i in range(len(d.events))}


def test_end_facings_match_window_parity():
    rng = random.Random(2718)
    checked = 0
    while checked < 400:
        d = diagram_corpus(rng.randrange(10_000), 1)[0]
        gaps = d.gap_count
        n = rng.randint(1, min(3, gaps))
        points = tuple(sorted(rng.sample(range(gaps), n)))
        k = rng.randint(1, 4)
        t = parity_vector(d, points)
        facings = matching_solve(t, k)
        if facings is None:
            continue
        plan = DancePlan(
            d, points, k, RuleKind.MATCHING, facings, CrossingRule.UNRESTRICTED
        )
        schedule = schedule_search(plan)
        assert feasible(schedule)
        ends = list(facings)
        for step in schedule.steps:
            if isinstance(d.events[step.event_index], TwistBar):
                ends[step.dancer] = ends[step.dancer].flipped()
        for i in range(n):
            expected = Facing(facings[i].value ^ window_parity(t, i, k))
            assert ends[i] is expected
            checked += 1
