"""SVG timeline rendering of a schedule.

One horizontal lane per dancer, x position equal to the linearization index.
Forward-facing travel is drawn solid, backward-facing travel dashed; colors
distinguish dancers.  Output is plain SVG 1.1 text, byte-identical across
runs for identical inputs so it can be golden-file tested.
"""

from __future__ import annotations

from .codec import token
from .scheduler import Facing, Schedule

__all__ = ["svg_timeline"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")
_DASH = "6,4"  # backward-facing stroke pattern; forward is solid
# layout, in SVG user units
_LANE_HEIGHT = 44
_STEP_WIDTH = 46
_MARGIN = 16
_LABEL_WIDTH = 72
_FONT_SIZE = 12


def svg_timeline(schedule: Schedule) -> str:
    """Render a schedule as an SVG timeline string.

    As in ``trace_to_json``, a schedule with steps needs its plan, which
    gives the lanes, the start facings and the event labels.
    """
    plan = schedule.plan
    if schedule.steps and plan is None:
        raise ValueError("a schedule with steps needs its plan to name events")
    lanes = plan.n if plan is not None else 0

    total = len(schedule.steps)
    width = 2 * _MARGIN + _LABEL_WIDTH + max(total, 1) * _STEP_WIDTH
    height = 2 * _MARGIN + lanes * _LANE_HEIGHT
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]

    def x_at(t: int) -> int:
        return _MARGIN + _LABEL_WIDTH + t * _STEP_WIDTH + _STEP_WIDTH // 2

    def y_at(d: int) -> int:
        return _MARGIN + d * _LANE_HEIGHT + _LANE_HEIGHT // 2

    labels: dict[int, str] = {}  # event index -> its label, computed once
    by_lane: list[list[tuple[int, str, Facing]]] = [[] for _ in range(lanes)]
    for t, step in enumerate(schedule.steps):
        if 0 <= step.dancer < lanes:
            idx = step.event_index
            if idx not in labels:
                labels[idx] = token(plan.diagram.events[idx]).rstrip("+-")
            by_lane[step.dancer].append((x_at(t), labels[idx], step.facing_after))

    for d, mine in enumerate(by_lane):
        color = _PALETTE[d % len(_PALETTE)]
        cy = y_at(d)
        out.append(
            f'<text x="{_MARGIN}" y="{cy + _FONT_SIZE // 2}" '
            f'font-family="monospace" font-size="{_FONT_SIZE}" '
            f'fill="{color}">dancer {d}</text>'
        )
        facing_before = plan.designated[d]
        prev_x = _MARGIN + _LABEL_WIDTH
        for x, _, facing_after in mine:
            dash = f' stroke-dasharray="{_DASH}"' if facing_before is Facing.BACKWARD else ""
            out.append(
                f'<line x1="{prev_x}" y1="{cy}" x2="{x}" y2="{cy}" '
                f'stroke="{color}" stroke-width="2"{dash}/>'
            )
            facing_before = facing_after
            prev_x = x
        for x, label, _ in mine:
            out.append(f'<circle cx="{x}" cy="{cy}" r="4" fill="{color}"/>')
            out.append(
                f'<text x="{x}" y="{cy - 8}" text-anchor="middle" '
                f'font-family="monospace" font-size="{_FONT_SIZE}" '
                f'fill="#333333">{label}</text>'
            )

    out.append("</svg>")
    return "\n".join(out) + "\n"
