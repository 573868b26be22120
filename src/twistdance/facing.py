"""Facing algebra over twist-bar parities.

A dancer's facing is a bit (forward = 0) and every twist bar flips it, so
once a placement is fixed all facing questions reduce to XORs of per-path
twist-bar parities.  The dance rules then have closed-form predicates
instead of step-by-step simulation; the scheduler's property tests tie the
two views together.
"""

from __future__ import annotations

from enum import IntEnum
from itertools import accumulate, product
from math import gcd
from operator import xor
from typing import Iterable, Sequence

from .model import Diagram, TwistBar, check_points

__all__ = [
    "Facing",
    "parity_vector",
    "window_parity",
    "forward_rule_ok",
    "matching_check",
    "matching_solve",
]


class Facing(IntEnum):
    """Dancer orientation along the curve; flipping twice is the identity."""

    FORWARD = 0
    BACKWARD = 1

    def flipped(self) -> "Facing":
        return _FLIPPED[self]

    @property
    def letter(self) -> str:
        return "F" if self is Facing.FORWARD else "B"

    @classmethod
    def from_letter(cls, text: str) -> "Facing":
        cleaned = text.strip().upper()
        if cleaned in ("F", "FORWARD"):
            return cls.FORWARD
        if cleaned in ("B", "BACKWARD"):
            return cls.BACKWARD
        raise ValueError(f"facing must be F or B, got {text!r}")


_FLIPPED = (Facing.BACKWARD, Facing.FORWARD)  # indexed by the facing bit


def parity_vector(diagram: Diagram, points: Iterable[int]) -> tuple[int, ...]:
    """Per-path twist-bar counts mod 2, one bit per initial point."""
    return _parities(_bar_prefix(diagram), check_points(diagram, points))


def _bar_prefix(diagram: Diagram) -> list[int]:
    """``prefix[j]``: the parity of the twist bars among the first j events."""
    return list(accumulate((isinstance(ev, TwistBar) for ev in diagram.events), xor, initial=0))


def _parities(prefix: Sequence[int], pts: Sequence[int]) -> tuple[int, ...]:
    """``parity_vector`` of checked points, read from a diagram's bar prefix.

    Path i runs from gap ``pts[i]`` to gap ``pts[i + 1]``; a path that wraps
    past the last event (a single point's path always does) adds the parity
    of the whole cycle.
    """
    total = prefix[-1]
    ends = (*pts[1:], pts[0])
    return tuple(prefix[a] ^ prefix[b] ^ (total if b <= a else 0) for a, b in zip(pts, ends))


def window_parity(t: Sequence[int], i: int, k: int) -> int:
    """Net facing flip over the k paths starting at path i, wrapping cyclically.

    Whole traversals of the vector contribute its total parity; only the
    remainder is summed term by term.
    """
    n = len(t)
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    full, rem = divmod(k, n)
    parity = (full * sum(t)) % 2
    for j in range(rem):
        parity ^= t[(i + j) % n]
    return parity


def forward_rule_ok(t: Sequence[int], k: int) -> bool:
    """True iff every dancer's k-path route flips its facing an even number
    of times, i.e. everyone who starts forward also ends forward."""
    return matching_check(t, (Facing.FORWARD,) * len(t), k)


def matching_check(t: Sequence[int], f: Sequence[Facing], k: int) -> bool:
    """True iff each dancer, starting at point i with facing f[i], arrives at
    point (i + k) mod n showing that point's designated facing.

    Only the endpoint constrains a dancer; initial points passed mid-route
    impose nothing.
    """
    n = len(t)
    if len(f) != n:
        raise ValueError(f"facing assignment has length {len(f)}, expected {n}")
    return all(
        (f[i].value ^ window_parity(t, i, k)) == f[(i + k) % n].value
        for i in range(n)
    )


def matching_solve(t: Sequence[int], k: int) -> tuple[Facing, ...] | None:
    """Find a designated-facing assignment satisfying the matching rule.

    The endpoint map i -> (i + k) mod n splits the indices into gcd(n, k)
    orbits; an orbit is consistent iff its window parities XOR to zero, and
    each consistent orbit has exactly two assignments.  Returns the
    lexicographically least solution (forward < backward, index order), or
    None when some orbit is inconsistent.
    """
    n = len(t)
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    f: list[Facing | None] = [None] * n
    for start in range(n):
        if f[start] is not None:
            continue
        f[start] = Facing.FORWARD  # seed each orbit's smallest index
        i, bit = start, 0
        while True:
            bit ^= window_parity(t, i, k)
            i = (i + k) % n
            if i == start:
                if bit:
                    return None
                break
            f[i] = Facing(bit)
    return tuple(f)  # type: ignore[arg-type]


def _matching_solutions(t: Sequence[int], k: int) -> set[tuple[int, ...]]:
    """Every assignment ``matching_check`` accepts, as tuples of facing bits.

    The orbit of index i under the endpoint map is the indices congruent to
    i mod gcd(n, k), and flipping a whole orbit of a solution gives another,
    so the solutions are ``matching_solve``'s with any set of orbits flipped.
    """
    least = matching_solve(t, k)
    if least is None:
        return set()
    g = gcd(len(t), k)
    return {
        tuple(f ^ flips[i % g] for i, f in enumerate(least))
        for flips in product((0, 1), repeat=g)
    }
