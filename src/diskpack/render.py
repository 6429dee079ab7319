"""Deterministic SVG rendering of packings: container outline, filled disks,
optional dashed ring boundaries from the phase trace, optional index labels."""

from __future__ import annotations

from .files import PackingFile

_PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#e15759",
    "#76b7b2",
    "#59a14f",
    "#edc948",
    "#b07aa1",
    "#ff9da7",
    "#9c755f",
    "#bab0ac",
)

_VIEWBOX = "-1.05 -1.05 2.1 2.1"
_SIZE = 640  # width and height in pixels


def _num(v: float) -> str:
    return format(float(v), ".12g")


def render_svg(
    packing: PackingFile,
    show_rings: bool = False,
    labels: bool = False,
) -> str:
    """Render a packing as a standalone SVG document (y axis pointing up)."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_VIEWBOX}" '
        f'width="{_SIZE}" height="{_SIZE}">',
        '<circle cx="0" cy="0" r="1" fill="none" stroke="#000000" '
        'stroke-width="0.01"/>',
    ]
    if show_rings:
        for ev in packing.trace or ():
            if ev.get("event") != "ring_created":
                continue
            cx, cy = ev["cx"], ev["cy"]
            parts.append(
                f'<circle cx="{_num(cx)}" cy="{_num(-cy)}" r="{_num(ev["r_out"])}" '
                'fill="none" stroke="#888888" stroke-width="0.004" '
                'stroke-dasharray="0.03 0.02"/>'
            )
    for i, (r, x, y) in enumerate(packing.placements):
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(
            f'<circle cx="{_num(x)}" cy="{_num(-y)}" r="{_num(r)}" '
            f'fill="{color}" fill-opacity="0.85" stroke="#333333" '
            'stroke-width="0.003"/>'
        )
    if labels:
        for i, (r, x, y) in enumerate(packing.placements):
            parts.append(
                f'<text x="{_num(x)}" y="{_num(-y)}" font-size="{_num(max(r, 0.02))}" '
                'text-anchor="middle" dominant-baseline="middle" '
                f'fill="#000000">{i}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
