"""Exhaustive small-scope checks over every diagram of a few events.

``--small-scope-events`` sets the largest diagram checked: 4 events by
default, and at least 6 for the danceability census.  CI runs every check
at 5 events, the wait-for cycle and lap-count checks (``-k "wait_for_cycle
or lap_count"``) at 6 and the census (``-k census``) at 8; the oracle,
``min_dancers``, retrograde and diagram move checks stop at 5, past which
their counts below are not pinned.
"""

import pickle
import random
from collections import Counter
from copy import copy, deepcopy
from dataclasses import replace
from itertools import combinations, product

import pytest

from twistdance.facing import matching_solve, parity_vector
from twistdance.model import ClassicalPass, CrossingSign, Strand, TwistBar, VirtualPass, validate
from twistdance.scheduler import (
    ORACLE_STEP_LIMIT,
    CrossingRule,
    DancePlan,
    Infeasible,
    InfeasibleReason,
    RuleKind,
    _Compiled,
    _SearchExhausted,
    oracle_schedule,
    retrograde,
    retrograde_points,
    schedule_search,
    verify_schedule,
)
from twistdance.solver import min_dancers, survey

from corpus import all_placements, diagram_corpus
from small_scope import small_diagrams

# diagrams and oracle-checked plans of m events, for each m
DIAGRAMS = {1: 1, 2: 6, 3: 16, 4: 106, 5: 426, 6: 3_076}
PLANS = {1: 72, 2: 864, 3: 2_208, 4: 38_160, 5: 139_302}
# min_dancers reports of m events that exhaust their bounds, of 12 per diagram
EXHAUSTED = {1: 6, 2: 0, 3: 96, 4: 0, 5: 2_556}
# deadlocked (diagram, crossing rule, placement) triples of m events, under
# over-first and under-first
DEADLOCKED = {1: 0, 2: 8, 3: 48, 4: 960, 5: 7_600, 6: 126_960}
# (diagram, crossing rule) pairs of m events with a classical crossing, whose
# placement at the gaps of the deposits is checked, under the same two rules
DEPOSITED = {1: 0, 2: 8, 3: 24, 4: 192, 5: 800, 6: 6_000}
# diagrams of m events by their danceability number, under over-first and
# under-first alike; under unrestricted every diagram's number is 1
CENSUS = {
    1: {1: 1},
    2: {1: 6},
    3: {1: 16},
    4: {1: 98, 2: 8},
    5: {1: 386, 2: 40},
    6: {1: 2_468, 2: 592, 3: 16},
    7: {1: 12_160, 2: 3_584, 3: 112},
    8: {1: 81_724, 2: 39_392, 3: 2_368, 4: 32},
}
# (verdict, k) -> plans of m events on at most 3 points, at k = 1 and k = 4,
# under over-first and under-first, the forward rule and the least matching
# facings, each checked against its dual on the retrograde diagram; k = 4 is
# past the oracle's guard from 5 events on
RETROGRADE = {
    1: {("FacingParity", 1): 2, ("Feasible", 4): 4},
    2: {
        ("Feasible", 1): 54, ("Feasible", 4): 56, ("FacingParity", 1): 2,
        ("Deadlock", 1): 16, ("Deadlock", 4): 16,
    },
    3: {("FacingParity", 1): 224, ("Feasible", 4): 322, ("FacingParity", 4): 30, ("Deadlock", 4): 96},
    4: {
        ("Feasible", 1): 3_664, ("Feasible", 4): 3_824, ("FacingParity", 1): 416,
        ("FacingParity", 4): 208, ("Deadlock", 1): 1_856, ("Deadlock", 4): 1_904,
    },
    5: {
        ("FacingParity", 1): 21_300, ("Feasible", 4): 21_420, ("FacingParity", 4): 8_160,
        ("Deadlock", 4): 13_020,
    },
}
# whether the witness search exhausts -> (diagram, crossing rule, placement of
# at most 3 points, k in 2..4) cases of m events, under over-first and
# under-first
LAP_COUNT = {
    1: {False: 6},
    2: {False: 84, True: 24},
    3: {False: 528, True: 144},
    4: {False: 6_024, True: 2_880},
    5: {False: 42_060, True: 21_840},
    6: {False: 429_240, True: 327_456},
}
# (move, change of the danceability number) -> cases grown from diagrams of
# m events, under over-first and under-first; at m <= 4 they come to 1,228
# bars, 3,578 virtual crossings and 7,156 classical ones, 1,248 of them +1
MOVES = {
    1: {("bar", 0): 4, ("virtual", 0): 6, ("classical", 0): 12},
    2: {("bar", 0): 36, ("virtual", 0): 72, ("classical", 0): 128, ("classical", 1): 16},
    3: {("bar", 0): 128, ("virtual", 0): 320, ("classical", 0): 560, ("classical", 1): 80},
    4: {("bar", 0): 1_060, ("virtual", 0): 3_180, ("classical", 0): 5_208, ("classical", 1): 1_152},
    5: {("bar", 0): 5_112, ("virtual", 0): 17_892, ("classical", 0): 28_840, ("classical", 1): 6_944},
}


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


def _reports(m):
    """Every ``min_dancers`` report on a diagram of m events: both dance
    rules, every crossing rule, n_max = m and k_max in {1, 2m + 1}."""
    for d in small_diagrams(m):
        for rule, crossing, k_max in product(RuleKind, CrossingRule, (1, 2 * m + 1)):
            yield d, rule, crossing, k_max, min_dancers(d, rule, crossing, k_max=k_max, n_max=m)


def test_min_dancers_is_the_first_feasible_survey_row_on_every_small_diagram(max_events):
    for m in range(1, max_events + 1):
        exhausted = 0
        for d, rule, crossing, k_max, report in _reports(m):
            case = d, rule, crossing, k_max
            scanned = 0
            rows = (
                (n, k, row)
                for n in range(1, m + 1)
                for k in range(1, k_max + 1)
                for row in survey(d, rule, crossing, n, k)
            )
            for n, k, row in rows:
                scanned += 1
                if row.feasible:
                    assert (report.plan.points, report.plan.k) == (row.placement, k), case
                    assert report.plan.facings == row.facings, case
                    assert (report.n_searched, report.k_searched) == ((1, n), (1, k)), case
                    break
            else:
                exhausted += 1
                assert not report.feasible, case
                assert (report.n_searched, report.k_searched) == ((1, m), (1, k_max)), case
            assert report.placements_tried == scanned, case
        assert exhausted == EXHAUSTED[m], m


def test_enough_laps_find_the_least_dancer_count_that_does_not_deadlock(max_events):
    # at k = 2n every row passes the facing gate (Facts 1 and 2 of the facing
    # module), so the least n with a feasible row there is the least n with a
    # placement that does not deadlock
    for m in range(1, max_events + 1):
        for d, rule, crossing, k_max, report in _reports(m):
            if k_max < 2 * m:
                continue
            least = None
            # every n, downward, so every row is checked and the least n is kept
            for n in range(m, 0, -1):
                rows = survey(d, rule, crossing, n, 2 * n)
                assert all(row.reason is not InfeasibleReason.FACING_PARITY for row in rows)
                if any(row.feasible for row in rows):
                    least = n
            assert (report.plan.n if report.feasible else None) == least, (d, rule, crossing)


_MIRROR = {CrossingRule.OVER_FIRST: CrossingRule.UNDER_FIRST, CrossingRule.UNDER_FIRST: CrossingRule.OVER_FIRST}


def _verdict_and_dual(d, rd, points, k, rule, facings, crossing):
    """The verdicts of a plan on ``d`` and of its dual on ``rd``, the
    retrograde diagram: gap g goes to (m - g) mod m, each matching facing
    moves with its point, and over-first and under-first swap.  Every
    witness must verify."""
    m = len(d.events)
    dual_points = retrograde_points(d, points)
    dual_facings = None
    if facings is not None:
        at = dict(zip(points, facings))
        dual_facings = tuple(at[(m - q) % m] for q in dual_points)
    verdicts = []
    for plan in (
        DancePlan(d, points, k, rule, facings, crossing),
        DancePlan(rd, dual_points, k, rule, dual_facings, _MIRROR[crossing]),
    ):
        result = schedule_search(plan)
        assert isinstance(result, Infeasible) or verify_schedule(result) == [], plan
        verdicts.append(result.reason.value if isinstance(result, Infeasible) else "Feasible")
    return verdicts


def test_retrograde_duality_on_every_small_diagram_beyond_the_oracle(max_events):
    # over-first on D and under-first on retrograde(D), and the other way
    # round, get the same verdict on every placement of at most 3 points, at
    # k = 1 and at k = 4, past the oracle's guard from 5 events on, under
    # the forward rule and with the least matching facings
    for m in range(1, max_events + 1):
        plans = Counter()
        for d in small_diagrams(m):
            rd = retrograde(d)
            for n, k, crossing in product(range(1, min(3, m) + 1), (1, 4), _MIRROR):
                for points in combinations(range(m), n):
                    facings = matching_solve(parity_vector(d, points), k)
                    rules = [(RuleKind.FORWARD, None)]
                    rules += [(RuleKind.MATCHING, facings)] if facings is not None else []
                    for rule, f in rules:
                        verdict, dual = _verdict_and_dual(d, rd, points, k, rule, f, crossing)
                        assert verdict == dual, (d, points, k, rule, crossing)
                        plans[verdict, k] += 1
        assert plans == RETROGRADE[m], m


def test_the_lap_count_theorem_holds_by_search_on_every_small_diagram(max_events):
    # points whose arcs wait at k = 1 deadlock at every k, and points whose
    # arcs do not are never exhausted by the witness search, which runs
    # without the relaxation (see the scheduler module), at k = 2, 3 and 4
    rules = (CrossingRule.OVER_FIRST, CrossingRule.UNDER_FIRST)
    for m in range(1, max_events + 1):
        cases = Counter()
        for d, rule in product(small_diagrams(m), rules):
            compiled = _Compiled(d, rule)
            for points in (p for n in range(1, min(3, m) + 1) for p in combinations(range(m), n)):
                waits = bool(compiled.waits(points))
                for k in (2, 3, 4):
                    try:
                        compiled.witness(DancePlan(d, points, k, crossing_rule=rule))
                    except _SearchExhausted:
                        exhausted = True
                    else:
                        exhausted = False
                    assert exhausted == waits, (d, rule, points, k)
                    cases[exhausted] += 1
        assert cases == LAP_COUNT[m], m


def _wait_for(d, rule, points):
    """The wait-for graph of a placement, from its definition: an edge
    e -> e' for consuming passes e and e' when no point lies in gaps
    e' + 1, ..., d(e), read cyclically, d(e) being the other pass of e's
    crossing."""
    m = len(d.events)
    consuming = Strand.UNDER if rule is CrossingRule.OVER_FIRST else Strand.OVER
    passes = {}  # crossing id -> strand -> event index
    for i, ev in enumerate(d.events):
        if isinstance(ev, ClassicalPass):
            passes.setdefault(ev.crossing_id, {})[ev.strand] = i
    deposit = {at[consuming]: at[s] for at in passes.values() for s in at if s is not consuming}
    return {
        (e, after)
        for e, held in deposit.items()
        for after in deposit
        if not any((after + j) % m in points for j in range(1, (held - after) % m + 1))
    }


def _has_cycle(edges):
    """Whether a graph has a cycle: strip the events with no edge out to an
    event left until none is left, or none can be stripped."""
    left = {e for edge in edges for e in edge}
    while left:
        sinks = {e for e in left if not any(a == e and b in left for a, b in edges)}
        if not sinks:
            return True
        left -= sinks
    return False


def _check_cycle(compiled, d, rule, points, waits):
    """``wait_cycle`` of deadlocked points, walked from their ``waits``, is
    a closed walk of edges of their wait-for graph, and the one clause that
    a fresh instance keeps when ``deadlocks`` is asked of them misses them."""
    edges = compiled.wait_cycle(points, waits)
    assert edges and set(edges) <= _wait_for(d, rule, set(points)), (d, rule, points)
    assert [after for _, after in edges] == [e for e, _ in edges[1:] + edges[:1]]
    fresh = _Compiled(d, rule)
    assert fresh.deadlocks(points), (d, rule, points)
    [clause] = fresh.clauses
    assert not clause & sum(1 << p for p in points), (d, rule, points)
    return clause


def test_every_deadlock_has_a_wait_for_cycle_whose_clause_decides_the_diagram(max_events):
    # the clause of a deadlocked placement is missed by it, and every
    # placement of the same diagram that misses the clause deadlocks;
    # Deadlock is monotone in the points, a new point only cutting edges; and
    # a point at the gap of every deposit starts each deposit's arc, cutting
    # every edge, so the least n that does not deadlock is at most max(c, 1)
    # for c classical crossings
    rules = (CrossingRule.OVER_FIRST, CrossingRule.UNDER_FIRST)
    for m in range(1, max_events + 1):
        deadlocked = bounded = 0
        for d, rule in product(small_diagrams(m), rules):
            compiled = _Compiled(d, rule)
            placements = {
                points: sum(1 << p for p in points)
                for n in range(1, m + 1)
                for points in combinations(range(m), n)
            }
            dead = {points: compiled.waits(points) for points in placements}  # empty: not dead
            deposit = Strand.OVER if rule is CrossingRule.OVER_FIRST else Strand.UNDER
            deposits = tuple(
                g for g, ev in enumerate(d.events)
                if isinstance(ev, ClassicalPass) and ev.strand is deposit
            )
            if deposits:
                bounded += 1
                assert not dead[deposits], (d, rule, deposits)
            least = min(len(points) for points in placements if not dead[points])
            assert least <= max(len(deposits), 1), (d, rule)
            for points in placements:
                assert _has_cycle(_wait_for(d, rule, set(points))) == bool(dead[points]), (d, points)
                if dead[points]:
                    deadlocked += 1
                    clause = _check_cycle(compiled, d, rule, points, dead[points])
                    for other, mask in placements.items():
                        assert dead[other] or mask & clause, (d, rule, points, other)
                else:
                    for g in set(range(m)) - set(points):
                        assert not dead[tuple(sorted((*points, g)))], (d, rule, points, g)
        assert deadlocked == DEADLOCKED[m], m
        assert bounded == DEPOSITED[m], m


def _paired_per_event(d, rule):
    """The compiled ``(table, deposit, consumer, slot_count)`` as one pass
    over the events pairs them: each crossing gets the next slot at its
    first pass, the rule's consuming strand is -1 and the other +1."""
    spender = {CrossingRule.OVER_FIRST: Strand.UNDER, CrossingRule.UNDER_FIRST: Strand.OVER}.get(rule)
    slots = {}
    table, deposit, consumer = [(0, 0)] * len(d.events), [0], [0]
    for e, ev in enumerate(d.events if spender is not None else ()):
        if isinstance(ev, ClassicalPass):
            if ev.crossing_id not in slots:
                slots[ev.crossing_id] = len(deposit)
                deposit.append(0)
                consumer.append(0)
            slot = slots[ev.crossing_id]
            if ev.strand is spender:
                table[e], consumer[slot] = (slot, -1), e
            else:
                table[e], deposit[slot] = (slot, 1), e
    return table, deposit, consumer, len(slots)


def test_the_compiled_slots_are_the_per_event_pairing_on_every_small_diagram(max_events):
    # the slots numbered from the crossings a diagram paired when it was
    # built, and from those each copy paired when it was built, are the ones
    # a pass over the events pairs, under every rule
    for m in range(max_events + 1):
        for d in small_diagrams(m) if m else [validate([])]:
            copies = [copy(d), deepcopy(d), pickle.loads(pickle.dumps(d)), replace(d)]
            for same in copies:
                assert "_crossings" in same.__dict__, (d, same)
                assert same._crossings == d._crossings and same._crossings is not d._crossings
            for rule in CrossingRule:
                want = _paired_per_event(d, rule)
                for source in (d, *copies):
                    compiled = _Compiled(source, rule)
                    got = compiled.table, compiled.deposit, compiled.consumer, compiled.slot_count
                    assert got == want, (d, rule, source is d)


def test_kept_facts_answer_every_placement_as_a_fresh_relaxation_does(max_events):
    # one kept instance per diagram and rule is asked whether every
    # placement deadlocks, at every n, in a seeded shuffled order; each
    # answer, from a kept clause, a kept live set or a relaxation, is the
    # relaxation's of a fresh instance, and past 2 events at most half are
    # relaxed; asked again, it relaxes none
    rules = (CrossingRule.OVER_FIRST, CrossingRule.UNDER_FIRST)
    rng = random.Random(37)
    for m in range(1, max_events + 1):
        asked = relaxed = 0
        for d, rule in product(small_diagrams(m), rules):
            kept = _Compiled(d, rule)
            waits = kept.waits

            def counted(points):
                nonlocal relaxed
                relaxed += 1
                return waits(points)

            kept.waits = counted
            placements = [points for n in range(1, m + 1) for points in combinations(range(m), n)]
            rng.shuffle(placements)
            for points in placements:
                fresh = bool(_Compiled(d, rule).waits(points))
                assert kept.deadlocks(points) == fresh, (d, rule, points)
            asked += len(placements)
            # asked again, in a new order, every answer is a kept fact's, and
            # each kept fact decides every placement it speaks for
            before = relaxed
            rng.shuffle(placements)
            for points in placements:
                dead = bool(waits(points))
                assert kept.deadlocks(points) == dead, (d, rule, points)
                mask = sum(1 << p for p in points)
                assert dead or all(mask & clause for clause in kept.clauses), (d, rule, points)
                assert not dead or all(live & ~mask for live in kept.live), (d, rule, points)
            assert relaxed == before, (d, rule)
        assert m < 3 or relaxed <= asked // 2, (m, relaxed, asked)


def test_the_wait_for_cycle_agrees_with_an_independent_cycle_search():
    # random diagrams of up to 12 events, every placement of at most 3
    # points in each of its cyclic orders
    rules = (CrossingRule.OVER_FIRST, CrossingRule.UNDER_FIRST)
    seen = {True: 0, False: 0}
    for d, rule in product(diagram_corpus(59, 40, max_events=12), rules):
        compiled = _Compiled(d, rule)
        for placement in all_placements(d, n_max=3):
            cyclic = _has_cycle(_wait_for(d, rule, set(placement)))
            seen[cyclic] += 1
            for r in range(len(placement)):
                points = placement[r:] + placement[:r]
                waits = compiled.waits(points)
                assert bool(waits) == cyclic, (d, rule, points)
                if cyclic:
                    _check_cycle(compiled, d, rule, points, waits)
    assert min(seen.values()) >= 1000, seen


def _number(d, rule):
    """The danceability number of ``d`` with k free: the least n with a
    placement whose ``waits`` are empty.  At k = 2n every row passes the
    facing gate (Facts 1 and 2 of the facing module), so this is the least
    n of a feasible plan; a point at every deposit bounds it by the gap
    count."""
    compiled = _Compiled(d, rule)
    gaps = range(d.gap_count)
    return next(
        n for n in range(1, d.gap_count + 1)
        if any(not compiled.waits(points) for points in combinations(gaps, n))
    )


def test_the_danceability_census_of_every_small_diagram(max_events):
    # how many dancers each diagram needs: the mirror rules agree, because
    # the listing is closed under swapping strands, and unrestricted never
    # waits
    for m in range(1, max(max_events, 6) + 1):
        census = {rule: Counter() for rule in CrossingRule}
        for d in small_diagrams(m):
            for rule in CrossingRule:
                census[rule][_number(d, rule)] += 1
        assert census[CrossingRule.OVER_FIRST] == CENSUS[m], m
        assert census[CrossingRule.UNDER_FIRST] == CENSUS[m], m
        assert census[CrossingRule.UNRESTRICTED] == {1: sum(CENSUS[m].values())}, m


def _grown(d):
    """Each diagram one move grows ``d`` into, with the move: a twist bar at
    each of the m + 1 positions, and a virtual crossing or a classical one,
    either strand first, at each pair of positions among m + 2 events.  The
    new id, m + 1, is past every id of the listing."""
    events = list(d.events)
    m = len(events)
    new = m + 1
    for i in range(m + 1):
        yield "bar", validate([*events[:i], TwistBar(new), *events[i:]])
    over, under = (ClassicalPass(new, s, CrossingSign.POSITIVE) for s in (Strand.OVER, Strand.UNDER))
    pairs = [("virtual", VirtualPass(new), VirtualPass(new))]
    pairs += [("classical", over, under), ("classical", under, over)]
    for i, j in combinations(range(m + 2), 2):
        for move, first, second in pairs:
            rest = iter(events)
            grown = [first if g == i else second if g == j else next(rest) for g in range(m + 2)]
            yield move, validate(grown)


def test_the_danceability_number_under_diagram_moves(max_events):
    # twist bars and virtual crossings never change the number, and one
    # classical crossing raises it by at most 1 (see the solver module)
    rules = (CrossingRule.OVER_FIRST, CrossingRule.UNDER_FIRST)
    for m in range(1, max_events + 1):
        changes = Counter()
        for d, rule in product(small_diagrams(m), rules):
            before = _number(d, rule)
            for move, grown in _grown(d):
                change = _number(grown, rule) - before
                assert change in ((0, 1) if move == "classical" else (0,)), (d, rule, move, grown)
                changes[move, change] += 1
        assert changes == MOVES[m], m
