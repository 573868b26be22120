"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Every expected value here is either pinned from an independent
brute-force computation or asserted against the library's own documented
contract at its stated tolerance (exact, unless a runtime bound is given).
"""

from __future__ import annotations

import random
import time
from itertools import combinations, product

from twistdance.codec import LexError, parse, serialize
from twistdance.facing import (
    Facing,
    matching_check,
    matching_solve,
    parity_vector,
    window_parity,
)
from twistdance.model import (
    ClassicalPass,
    CrossingSign,
    DiagramError,
    Strand,
    TwistBar,
    VirtualPass,
    validate,
)
from twistdance.scheduler import (
    CrossingRule,
    DancePlan,
    Infeasible,
    InfeasibleReason,
    RuleKind,
    Schedule,
    oracle_schedule,
    retrograde,
    retrograde_points,
    schedule_search,
    verify_schedule,
)
from twistdance.solver import min_dancers

from corpus import all_placements, diagram_corpus, random_diagram

TREFOIL = "O1+ U2+ O3+ U1+ O2+ U3+"
BAR_TREFOIL = "O1+ U2+ O3+ T1 U1+ O2+ U3+"

F = Facing.FORWARD
B = Facing.BACKWARD


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_1_trefoil_two_danceable():
    start = time.perf_counter()
    report = min_dancers(parse(TREFOIL), k_max=1, n_max=6)
    singles = [schedule_search(DancePlan(parse(TREFOIL), (g,), 1)) for g in range(6)]
    elapsed = time.perf_counter() - start
    ok = (
        report.feasible
        and report.plan.n == 2
        and all(
            isinstance(r, Infeasible) and r.reason is InfeasibleReason.DEADLOCK
            for r in singles
        )
        and elapsed < 1.0
    )
    _report("criterion 1: trefoil 2-danceability", ok, f"{elapsed:.3f}s")


def test_criterion_2_bar_trefoil_minimal_k_is_four():
    start = time.perf_counter()
    d = parse(BAR_TREFOIL)
    placements = list(combinations(range(7), 2))
    feasible_k: dict[int, list[tuple[int, ...]]] = {}
    for k in (1, 2, 3, 4):
        feasible_k[k] = [
            pts
            for pts in placements
            if isinstance(schedule_search(DancePlan(d, pts, k)), Schedule)
        ]
    witness = schedule_search(DancePlan(d, (0, 4), 4))
    elapsed = time.perf_counter() - start
    ok = (
        feasible_k[1] == []
        and feasible_k[2] == []
        and feasible_k[3] == []
        and feasible_k[4] != []
        and isinstance(witness, Schedule)
        and verify_schedule(witness) == []
        and elapsed < 5.0
    )
    _report("criterion 2: one-bar trefoil needs k=4 at n=2", ok, f"{elapsed:.3f}s")


def test_criterion_3_double_bar_trefoil_k1():
    d = parse("O1+ T1 T2 U2+ O3+ U1+ O2+ U3+")
    points = (0, 5)  # both bars land on the first path
    t = parity_vector(d, points)
    result = schedule_search(DancePlan(d, points, 1))
    ok = (
        t == (0, 0)
        and isinstance(result, Schedule)
        and verify_schedule(result) == []
    )
    _report("criterion 3: two bars on one path dance at n=2, k=1", ok)


def _two_bar_cases(seed: int, want: int):
    """(diagram, n=3 placement) pairs whose two bars fall on distinct paths."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < want:
        c = rng.randint(1, 3)
        v = rng.randint(0, (8 - 2 * c - 2) // 2)
        events = []
        for i in range(1, c + 1):
            sign = rng.choice((CrossingSign.POSITIVE, CrossingSign.NEGATIVE))
            events += [ClassicalPass(i, Strand.OVER, sign), ClassicalPass(i, Strand.UNDER, sign)]
        events += [VirtualPass(j) for j in range(1, v + 1) for _ in (0, 1)]
        events += [TwistBar(1), TwistBar(2)]
        rng.shuffle(events)
        d = validate(events)
        gaps = d.gap_count
        placements = [
            pts
            for pts in combinations(range(gaps), 3)
            if sorted(parity_vector(d, pts)) == [0, 1, 1]
        ]
        if placements:
            cases.append((d, rng.choice(placements)))
    return cases


def test_criterion_4_matching_rule_facing_sensitivity():
    cases = _two_bar_cases(seed=404, want=30)
    ok = True
    detail = ""
    for d, points in cases:
        t = parity_vector(d, points)
        # k=1: single orbit, even total parity -> exactly two consistent classes
        solutions = [f for f in product((F, B), repeat=3) if matching_check(t, f, 1)]
        solved = matching_solve(t, 1)
        if solved is None or len(solutions) != 2 or solved != min(solutions):
            ok, detail = False, f"k=1 classes wrong for {serialize(d)} {points}"
            break
        # k=3: every assignment is parity-feasible (total parity is even)
        if not all(matching_check(t, f, 3) for f in product((F, B), repeat=3)):
            ok, detail = False, f"k=3 parity gap for {serialize(d)} {points}"
            break
        # scheduling at k=3 ignores facings beyond the gate: all assignments
        # agree, and any witness found must verify clean
        outcomes = set()
        for f in product((F, B), repeat=3):
            res = schedule_search(DancePlan(d, points, 3, RuleKind.MATCHING, f))
            outcomes.add(isinstance(res, Schedule))
            if isinstance(res, Schedule) and verify_schedule(res):
                ok, detail = False, f"dirty witness for {serialize(d)} {points} {f}"
                break
        if not ok:
            break
        if len(outcomes) != 1:
            ok, detail = False, f"facing-dependent scheduling for {serialize(d)} {points}"
            break
    _report("criterion 4: matching-rule facing sensitivity", ok, detail or f"{len(cases)} cases")


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    corpus = diagram_corpus(seed=1205, count=80, max_events=8)
    disagreements = []
    plans = 0
    for d in corpus:
        for points in all_placements(d, n_max=3):
            for k in (1, 2):
                if k * len(d.events) > 16:
                    continue
                plan = DancePlan(d, points, k)
                fast = schedule_search(plan)
                slow = oracle_schedule(plan)
                plans += 1
                fast_ok = isinstance(fast, Schedule)
                slow_ok = isinstance(slow, Schedule)
                if fast_ok != slow_ok or (
                    not fast_ok and fast.reason is not slow.reason
                ):
                    disagreements.append((serialize(d), points, k))
    elapsed = time.perf_counter() - start
    ok = not disagreements and elapsed < 120.0
    _report(
        "criterion 5: oracle equivalence",
        ok,
        f"{plans} plans, {len(disagreements)} disagreements, {elapsed:.1f}s",
    )


def test_criterion_6_retrograde_duality():
    corpus = diagram_corpus(seed=1205, count=80, max_events=8)
    disagreements = []
    plans = 0
    for d in corpus:
        rd = retrograde(d)
        for points in all_placements(d, n_max=3):
            for k in (1, 2):
                over = schedule_search(
                    DancePlan(d, points, k, crossing_rule=CrossingRule.OVER_FIRST)
                )
                under = schedule_search(
                    DancePlan(
                        rd,
                        retrograde_points(d, points),
                        k,
                        crossing_rule=CrossingRule.UNDER_FIRST,
                    )
                )
                plans += 1
                if isinstance(over, Schedule) != isinstance(under, Schedule):
                    disagreements.append((serialize(d), points, k))
    ok = not disagreements
    _report(
        "criterion 6: retrograde duality",
        ok,
        f"{plans} plan pairs, {len(disagreements)} disagreements",
    )


def test_criterion_7_facing_algebra():
    # part 1: simulated end facings through witness schedules
    rng = random.Random(777)
    checked = 0
    bad = 0
    while checked < 10_000:
        d = random_diagram(rng, max_events=8, allow_empty=False)
        gaps = d.gap_count
        n = rng.randint(1, min(3, gaps))
        points = tuple(sorted(rng.sample(range(gaps), n)))
        k = rng.randint(1, 4)
        t = parity_vector(d, points)
        facings = matching_solve(t, k)
        if facings is None:
            continue
        crossing = rng.choice(
            (CrossingRule.UNRESTRICTED, CrossingRule.UNRESTRICTED, CrossingRule.OVER_FIRST)
        )
        schedule = schedule_search(
            DancePlan(d, points, k, RuleKind.MATCHING, facings, crossing)
        )
        if not isinstance(schedule, Schedule):
            continue  # over-first deadlock: no witness to check
        ends = list(facings)
        for step in schedule.steps:
            if isinstance(d.events[step.event_index], TwistBar):
                ends[step.dancer] = ends[step.dancer].flipped()
        for i in range(n):
            expected = Facing(facings[i].value ^ window_parity(t, i, k))
            if ends[i] is not expected:
                bad += 1
            checked += 1

    # part 2: matching_solve vs exhaustive facing enumeration
    solver_bad = 0
    for n in range(1, 5):
        for bits in product((0, 1), repeat=n):
            for k in range(1, 9):
                solved = matching_solve(bits, k)
                sols = [
                    f for f in product((F, B), repeat=n) if matching_check(bits, f, k)
                ]
                if solved is None:
                    if sols:
                        solver_bad += 1
                elif not sols or solved != min(sols):
                    solver_bad += 1
    ok = bad == 0 and solver_bad == 0
    _report(
        "criterion 7: facing algebra",
        ok,
        f"{checked} end-facing checks, {bad}+{solver_bad} disagreements",
    )


def test_criterion_8_codec_roundtrip_and_fuzz():
    corpus = diagram_corpus(seed=88, count=1000, max_events=8)
    roundtrip_bad = sum(1 for d in corpus if parse(serialize(d)) != d)

    rng = random.Random(2024)
    alphabet = b"OUVT0123456789+- ,\t\nXabc"
    crashes = 0
    fuzzed = 0
    for _ in range(50_000):
        data = rng.randbytes(rng.randint(0, 24))
        fuzzed += 1
        try:
            parse(data)
        except (LexError, DiagramError):
            pass
        except Exception:
            crashes += 1
    for _ in range(50_000):
        data = bytes(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        fuzzed += 1
        try:
            parse(data)
        except (LexError, DiagramError):
            pass
        except Exception:
            crashes += 1
    # ids around CPython's 4,300-digit int-string limit, alone or among short tokens
    for _ in range(400):
        digits = b"9" * rng.randint(4290, 4310)
        token = rng.choice([b"O", b"U", b"V", b"T"]) + digits + rng.choice([b"", b"+", b"-"])
        data = rng.choice([b"", b"O1 U1 "]) + token + rng.choice([b"", b" V2 V2"])
        fuzzed += 1
        try:
            parse(data)
        except (LexError, DiagramError):
            pass
        except Exception:
            crashes += 1
    ok = roundtrip_bad == 0 and crashes == 0
    _report(
        "criterion 8: codec roundtrip and fuzz",
        ok,
        f"1000 roundtrips, {fuzzed} fuzz inputs, {roundtrip_bad}+{crashes} failures",
    )
