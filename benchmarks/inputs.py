"""Seeded inputs for the benchmark, generated as text from ``(seed, i)`` alone.

Nothing here imports ``twistdance``.  Parities, matching facings and
state-space caps are computed from the generated text by the small model
below, so a change to the program cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

CROSSINGS = ("over-first", "under-first", "unrestricted")
RULES = ("forward", "matching")
FLIP = {"O": "U", "U": "O"}
CROSS_SHARE = 0.15  # deadlock-tail: share of live slots in crossings that join two paths
CAP_BAND = (4.35, 4.55)  # deadlock-tail: log10 of prod(route length + 1)
SOLVE_N_MAX, SOLVE_K_MAX = 3, 2  # solve-survey: bounds for min_dancers


@dataclass(frozen=True)
class DanceItem:
    """One ``dance`` request: a diagram, a placement and the plan's rules."""

    text: str
    points: tuple[int, ...]
    k: int
    rule: str
    facings: tuple[str, ...] | None  # "F"/"B" per point, matching rule only
    crossing: str
    expect_feasible: bool
    cap_log10: float  # log10 of the product of (route length + 1)


@dataclass(frozen=True)
class SolveItem:
    """One ``solve`` request: two minimizations and one facing survey."""

    text: str
    crossing: str
    survey_n: int
    survey_k: int


# ------------------------------------------------------------ text-side model


def kinds(text: str) -> list[str]:
    """Event kind letter (O, U, V or T) of every token, in reading order."""
    return [tok[0] for tok in text.replace(",", " ").split()]


def arcs(m: int, points: tuple[int, ...]) -> list[range]:
    """Event positions of each path: from one point up to the next, cyclically."""
    n = len(points)
    out = []
    for i, start in enumerate(points):
        span = (points[(i + 1) % n] - start) % m or m
        out.append(range(start, start + span))
    return out


def path_parities(text: str, points: tuple[int, ...]) -> list[int]:
    ks = kinds(text)
    m = len(ks)
    return [sum(ks[j % m] == "T" for j in arc) % 2 for arc in arcs(m, points)]


def window_parity(t: list[int], i: int, k: int) -> int:
    n = len(t)
    return sum(t[(i + j) % n] for j in range(k)) % 2


def forward_ok(t: list[int], k: int) -> bool:
    return all(window_parity(t, i, k) == 0 for i in range(len(t)))


def matching_ok(t: list[int], facings: tuple[str, ...], k: int) -> bool:
    n = len(t)
    bit = [f == "B" for f in facings]
    return all(bit[i] ^ window_parity(t, i, k) == bit[(i + k) % n] for i in range(n))


def least_matching_facings(t: list[int], k: int) -> tuple[str, ...] | None:
    """Lexicographically least designated facings (F < B) meeting the
    matching rule, or None.  Walks each orbit of i -> i + k (mod n)."""
    n = len(t)
    f: list[int | None] = [None] * n
    for start in range(n):
        if f[start] is not None:
            continue
        f[start], i, bit = 0, start, 0
        while True:
            bit ^= window_parity(t, i, k)
            i = (i + k) % n
            if i == start:
                if bit:
                    return None
                break
            f[i] = bit
    return tuple("FB"[b] for b in f)


def cap_log10(text: str, points: tuple[int, ...], k: int) -> float:
    """log10 of the position-vector space the search can visit."""
    m = len(kinds(text))
    lengths = [len(a) for a in arcs(m, points)]
    n = len(lengths)
    return sum(
        math.log10(sum(lengths[(i + lap) % n] for lap in range(k)) + 1) for i in range(n)
    )


# --------------------------------------------------------------- generators


def _rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{i}")


def _render(slots: list[tuple[str, int] | None], crossing: str, signs: dict[int, str]) -> str:
    """Tokens for filled slots; under-first diagrams swap every O and U."""
    out = []
    for kind, ident in slots:
        if kind in "OU":
            if crossing == "under-first":
                kind = FLIP[kind]
            out.append(f"{kind}{ident}{signs[ident]}")
        else:
            out.append(f"{kind}{ident}")
    return " ".join(out)


def _fill_pairs(
    rng: random.Random,
    slots: list,
    pairs: list[tuple[int, int]],
    classical: float,
    first_over: bool,
    signs: dict[int, str],
) -> None:
    """Fill each pair of slot positions with a classical or virtual crossing.

    With ``first_over`` the earlier position of a classical pair takes the
    over pass, so reading from gap 0 every O precedes its U.  Ids continue
    after those already in ``slots``.
    """
    c = max((s[1] for s in slots if s and s[0] in "OU"), default=0)
    v = max((s[1] for s in slots if s and s[0] == "V"), default=0)
    for a, b in pairs:
        lo, hi = sorted((a, b))
        if rng.random() < classical:
            c += 1
            over, under = (lo, hi) if first_over or rng.random() < 0.5 else (hi, lo)
            slots[over], slots[under] = ("O", c), ("U", c)
            signs[c] = rng.choice("+-")
        else:
            v += 1
            slots[lo] = slots[hi] = ("V", v)


def _pair_up(rng: random.Random, free: list[int]) -> list[tuple[int, int]]:
    free = list(free)
    rng.shuffle(free)
    return list(zip(free[0::2], free[1::2]))


def _place_bars(rng: random.Random, free: list[int], arc_of: list[int], n: int, rule: str) -> list[int]:
    """Bar positions: an even count on every path (forward rule) or an even
    total (matching rule), which is what lets the facing gate pass."""
    if rule == "forward":
        bars = []
        for a in range(n):
            mine = [p for p in free if arc_of[p] == a]
            bars += rng.sample(mine, 2 * rng.randint(0, len(mine) // 7))
        return bars
    return rng.sample(free, 2 * rng.randint(0, len(free) // 7))


def _finish(slots, bars, crossing, signs, points, k, rule, expect_feasible) -> DanceItem:
    for j, p in enumerate(sorted(bars), start=1):
        slots[p] = ("T", j)
    text = _render(slots, crossing, signs)
    facings = None
    if rule == "matching":
        facings = least_matching_facings(path_parities(text, points), k)
    return DanceItem(text, points, k, rule, facings, crossing, expect_feasible,
                     cap_log10(text, points, k))


def dance_item(seed: int, i: int) -> DanceItem:
    """A feasible plan with a long witness.

    Every crossing rule and dance rule appears in a fixed rotation by ``i``.
    Over-first diagrams put every O before its U when read from gap 0 and
    gap 0 always holds a dancer, so dancers finishing in id order is a
    schedule; under-first diagrams are the O/U mirror image.
    """
    rng = _rng("dance-trace", seed, i)
    crossing = CROSSINGS[i % 3]
    rule = RULES[(i // 3) % 2]
    n = rng.randint(1, 4)
    k = rng.randint(1, 3)
    m = max(n + 1, round(rng.randint(70, 150) / k))
    points = (0, *sorted(rng.sample(range(1, m), n - 1)))
    arc_of = [a for a, arc in enumerate(arcs(m, points)) for _ in arc]
    bars = _place_bars(rng, list(range(m)), arc_of, n, rule)
    rest = sorted(set(range(m)) - set(bars))
    if len(rest) % 2:  # pairs need an even slot count: lengthen the last path
        rest.append(m)
        arc_of.append(n - 1)
        m += 1
    slots: list = [None] * m
    signs: dict[int, str] = {}
    _fill_pairs(rng, slots, _pair_up(rng, rest), 0.65, crossing != "unrestricted", signs)
    return _finish(slots, bars, crossing, signs, points, k, rule, True)


def deadlock_item(seed: int, i: int) -> DanceItem:
    """A plan that deadlocks only after its reachable state space is exhausted.

    k = 1, so every event is walked exactly once.  Two or three dancers end
    in a circular wait: dancer j passes U of crossing x_j and only later O
    of x_{j+1}, so no U of the cycle can ever go.  Every other crossing has
    its O before its U in reading order from gap 0, which never blocks for
    good, so the search visits the whole reachable prefix space before it
    can report Deadlock.  Path lengths are drawn until
    log10(prod(route length + 1)) falls inside ``CAP_BAND``.
    """
    rng = _rng("deadlock-tail", seed, i)
    crossing = CROSSINGS[i % 2]
    rule = RULES[(i // 2) % 2]
    n = 3 + (i // 4) % 3
    while True:
        base = 10 ** (rng.uniform(*CAP_BAND) / n) - 1
        lengths = [max(5, round(base * rng.uniform(0.7, 1.3))) for _ in range(n)]
        lengths[0] += sum(lengths) % 2  # an even event count pairs up
        if CAP_BAND[0] <= sum(math.log10(x + 1) for x in lengths) <= CAP_BAND[1]:
            break
    m = sum(lengths)
    points = tuple(sum(lengths[:a]) for a in range(n))
    arc_of = [a for a in range(n) for _ in range(lengths[a])]
    slots: list = [None] * m
    cycle = rng.sample(range(n), rng.randint(2, min(3, n)))
    unreachable: list[int] = []
    for j, a in enumerate(cycle):
        end = points[a] + lengths[a]
        u_at = end - rng.randint(2, 3)
        o_at = rng.randrange(u_at + 1, end)
        slots[u_at] = ("U", j + 1)
        slots[o_at] = ("O", (j + 1) % len(cycle) + 1)
        unreachable += [p for p in range(u_at + 1, end) if p != o_at]
    signs = {j + 1: rng.choice("+-") for j in range(len(cycle))}
    free = [p for p in range(m) if slots[p] is None]
    bars = _place_bars(rng, free, arc_of, n, rule)
    unreachable = [p for p in unreachable if p not in bars]
    live = [p for p in free if p not in set(bars) | set(unreachable)]
    # an unreachable slot gets a virtual pass paired with a live slot, so no
    # reachable under pass ever waits on an over pass nobody can reach
    for v, p in enumerate(unreachable, start=1):
        q = live.pop(rng.randrange(len(live)))
        slots[p] = slots[q] = ("V", v)
    # Most crossings stay within one path.  A few join an early slot of one
    # path (the O) to a late slot of a later path (the U): the later dancer
    # waits, never for good, and the reachable share of the space stays
    # similar from item to item.
    by_arc = [[p for p in live if arc_of[p] == a] for a in range(n)]
    shared = []
    for _ in range(round(len(live) * CROSS_SHARE / 2)):
        a, b = sorted(rng.sample(range(n), 2))
        early = by_arc[a][: len(by_arc[a]) // 2]
        late = by_arc[b][len(by_arc[b]) // 2 :]
        if early and late:
            o, u = rng.choice(early), rng.choice(late)
            by_arc[a].remove(o)
            by_arc[b].remove(u)
            shared.append((o, u))
    odd = [a for a in range(n) if len(by_arc[a]) % 2]  # an even count of paths
    for a, b in zip(odd[0::2], odd[1::2]):
        shared.append((by_arc[a].pop(0), by_arc[b].pop()))
    _fill_pairs(rng, slots, shared, 1.0, True, signs)
    for group in by_arc:
        _fill_pairs(rng, slots, _pair_up(rng, group), 0.85, True, signs)
    return _finish(slots, bars, crossing, signs, points, 1, rule, False)


def solve_item(seed: int, i: int) -> SolveItem:
    """A small diagram (at most 12 events) for minimization and a survey.

    The crossing rule and the survey's (n, k) rotate with ``i``; the
    diagram mixes classical and virtual crossings and twist bars like the
    unit-test corpus.
    """
    rng = _rng("solve-survey", seed, i)
    crossing = CROSSINGS[i % 3]
    m = rng.randint(9, 12)
    c = rng.randint(2, m // 2)
    v = rng.randint(0, (m - 2 * c) // 2)
    positions = list(range(m))
    rng.shuffle(positions)
    slots: list = [None] * m
    signs: dict[int, str] = {}
    pairs = list(zip(positions[: c + v], positions[m - c - v :]))
    _fill_pairs(rng, slots, pairs[:c], 1.0, False, signs)
    _fill_pairs(rng, slots, pairs[c:], 0.0, False, signs)
    bars = positions[c + v : m - c - v]
    for j, p in enumerate(sorted(bars), start=1):
        slots[p] = ("T", j)
    text = _render(slots, "over-first", signs)
    return SolveItem(text, crossing, 2 + (i // 3) % 2, 1 + (i // 6) % 2)
