"""CSV and SVG artifact formats.

The sweep CSV is a byte-stable contract: fixed header, floats rendered with
17 significant digits, one row per grid point.  SVG plots are hand-rendered
so their bytes depend only on the numbers that go in.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .metrics import SweepRow

SWEEP_CSV_HEADER = ("kind,schedule,t_max,t_min,weight,beta,seed,"
                    "layout_preservation,semantic_alignment,ab_gap")


def table_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The one CSV renderer: every artifact table is written through it.

    Integers and strings are written as they are, ``None`` as a blank cell,
    and every other number with 17 significant digits.
    """
    lines = [",".join(header)]
    lines.extend(",".join(_cell(value) for value in row) for row in rows)
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer, str)):
        return str(value)
    return f"{float(value):.17g}"


def sweep_table_csv(rows: Iterable[SweepRow]) -> str:
    """One line per sweep row; beta is blank outside guidance."""
    return table_csv(SWEEP_CSV_HEADER.split(","), (
        (row.kind, row.schedule_kind, row.t_max, row.t_min, row.weight, row.beta,
         row.seed, row.metrics.layout_preservation, row.metrics.semantic_alignment,
         row.metrics.ab_gap) for row in rows))


def path_csv(latents: Sequence[np.ndarray], noises: Sequence[np.ndarray],
             sampling_steps: Sequence[int], levels: Sequence[int],
             seed: int) -> str:
    """Trajectory table: one row per latent, noise columns blank on the last."""
    d = latents[0].size
    header = ["index", "sampling_step", "training_step",
              *(f"x{j}" for j in range(d)), *(f"eps{j}" for j in range(d)), "seed"]
    return table_csv(header, (
        [i, sampling_steps[i], levels[i], *latent,
         *(noises[i] if i < len(noises) else [None] * d), seed]
        for i, latent in enumerate(latents)))


_PALETTE = ("#3366cc", "#dc3912", "#109618", "#ff9900", "#990099",
            "#0099c6", "#dd4477", "#66aa00")


def svg_scatter(groups: Sequence[tuple[str, np.ndarray]], title: str = "",
                connect: bool = False) -> str:
    """Scatter plot of 2-D point groups; one color and legend entry per group.

    ``groups`` is a sequence of (label, points) with points of shape (n, 2).
    With ``connect`` the points of each group are joined by a polyline.
    """
    width, height, margin = 640, 640, 56
    pts = np.vstack([np.atleast_2d(points) for _, points in groups])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    lo = lo - 0.06 * span
    hi = hi + 0.06 * span
    span = hi - lo

    def sx(v: float) -> float:
        return margin + (v - lo[0]) / span[0] * (width - 2 * margin)

    def sy(v: float) -> float:
        return height - margin - (v - lo[1]) / span[1] * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#888"/>',
    ]
    if title:
        parts.append(f'<text x="{width / 2:.1f}" y="{margin - 20}" text-anchor="middle" '
                     f'font-family="monospace" font-size="14">{title}</text>')
    for gi, (label, points) in enumerate(groups):
        points = np.atleast_2d(points)
        color = _PALETTE[gi % len(_PALETTE)]
        if connect and len(points) > 1:
            coords = " ".join(f"{sx(p[0]):.2f},{sy(p[1]):.2f}" for p in points)
            parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                         f'stroke-width="1" opacity="0.6"/>')
        for p in points:
            parts.append(f'<circle cx="{sx(p[0]):.2f}" cy="{sy(p[1]):.2f}" r="4" '
                         f'fill="{color}" fill-opacity="0.8"/>')
        ly = margin + 18 + 16 * gi
        parts.append(f'<circle cx="{margin + 12}" cy="{ly - 4}" r="4" fill="{color}"/>')
        parts.append(f'<text x="{margin + 22}" y="{ly}" font-family="monospace" '
                     f'font-size="12">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
