"""Minimal self-contained SVG charts for audit and sweep artifacts.

Text is assembled directly with fixed float formatting, so a given input
always yields byte-identical output — no plotting library, no embedded
timestamps, no randomized element ids.  Two chart kinds: an episode scatter
with fitted and published schedules overlaid, and a multi-series line chart
for parameter sweeps.
"""

from __future__ import annotations

import math
from typing import Sequence

from .estimation import _REGIMES

__all__ = ["scatter_chart", "line_chart"]

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 62, 18, 36, 46

#: One color per ``_REGIMES`` label, in its order (the legend's), then the fallback.
REGIME_COLORS = dict(zip((*_REGIMES, None),
                         ("#8c8c8c", "#2b6cb0", "#b7791f", "#c53030", "#555555"), strict=True))

SERIES_COLORS = ("#2b6cb0", "#b7791f", "#2f855a", "#c53030", "#6b46c1")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _ticks(lo: float, hi: float, n: int = 5) -> list:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


class _Frame:
    """Maps data coordinates into the plot rectangle."""

    def __init__(self, xlo, xhi, ylo, yhi):
        if xhi <= xlo:
            xhi = xlo + 1.0
        if yhi <= ylo:
            yhi = ylo + 1.0
        self.xlo, self.xhi, self.ylo, self.yhi = xlo, xhi, ylo, yhi

    def x(self, v: float) -> float:
        frac = (v - self.xlo) / (self.xhi - self.xlo)
        return MARGIN_L + frac * (WIDTH - MARGIN_L - MARGIN_R)

    def y(self, v: float) -> float:
        frac = (v - self.ylo) / (self.yhi - self.ylo)
        return HEIGHT - MARGIN_B - frac * (HEIGHT - MARGIN_T - MARGIN_B)


def _header(title: str) -> list:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH // 2}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" fill="#111111">{title}</text>',
    ]


def _axes(frame: _Frame, xlabel: str, ylabel: str) -> list:
    parts = [
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="#999999"/>'
    ]
    for tx in _ticks(frame.xlo, frame.xhi):
        px = frame.x(tx)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{HEIGHT - MARGIN_B}" x2="{_fmt(px)}" '
            f'y2="{HEIGHT - MARGIN_B + 4}" stroke="#999999"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{HEIGHT - MARGIN_B + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10" fill="#333333">{tx:.3g}</text>'
        )
    for ty in _ticks(frame.ylo, frame.yhi):
        py = frame.y(ty)
        parts.append(
            f'<line x1="{MARGIN_L - 4}" y1="{_fmt(py)}" x2="{MARGIN_L}" '
            f'y2="{_fmt(py)}" stroke="#999999"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 7}" y="{_fmt(py + 3)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10" fill="#333333">{ty:.3g}</text>'
        )
    parts.append(
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11" fill="#111111">{xlabel}</text>'
    )
    parts.append(
        f'<text x="14" y="{HEIGHT // 2}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="11" fill="#111111" transform="rotate(-90 14 {HEIGHT // 2})">{ylabel}</text>'
    )
    return parts


def _legend(i: int, name: str, color: str) -> list:
    """The i-th legend entry, a swatch and its label, at the top right."""
    y = MARGIN_T + 14 * i
    return [
        f'<rect x="{WIDTH - 150}" y="{y + 4}" width="10" height="10" fill="{color}"/>',
        f'<text x="{WIDTH - 136}" y="{y + 12}" font-family="sans-serif" '
        f'font-size="10" fill="#333333">{name}</text>',
    ]


def _polyline(frame: _Frame, pts: Sequence, color: str, dash: str = "") -> str:
    coords = " ".join(f"{_fmt(frame.x(x))},{_fmt(frame.y(y))}" for x, y in pts)
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="1.8"{dash_attr}/>'
    )


def scatter_chart(
    points: Sequence,     # (theta, b, regime-or-None)
    fitted: Sequence,     # polyline vertices of the fitted schedule
    published: Sequence,  # polyline vertices of the published schedule
) -> str:
    xs = [p[0] for p in points] or [0.0]
    ys = [p[1] for p in points] or [0.0]
    for extra in fitted, published:
        xs += [v[0] for v in extra]
        ys += [v[1] for v in extra]
    frame = _Frame(min(min(xs), 0.0), max(xs), min(min(ys), 0.0), max(ys) * 1.05 + 1e-12)

    parts = _header("episodes vs fitted schedule") + _axes(frame, "theta", "bailout b")
    parts.append(_polyline(frame, published, "#2f855a", dash="6 3"))
    parts.append(_polyline(frame, fitted, "#111111"))
    for theta, b, regime in points:
        color = REGIME_COLORS.get(regime, REGIME_COLORS[None])
        parts.append(
            f'<circle cx="{_fmt(frame.x(theta))}" cy="{_fmt(frame.y(b))}" r="2.4" '
            f'fill="{color}" fill-opacity="0.75"/>'
        )
    entries = [("fitted", "#111111"), ("published", "#2f855a")] + [
        (k, v) for k, v in REGIME_COLORS.items() if k
    ]
    for i, (name, color) in enumerate(entries):
        parts += _legend(i, name, color)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def line_chart(
    x: Sequence,
    series: Sequence,               # (name, values) pairs
    xlabel: str,
    title: str = "parameter sweep",
) -> str:
    finite_vals = [
        v for _, values in series for v in values if v is not None and math.isfinite(v)
    ]
    ylo = min(finite_vals + [0.0])
    yhi = max(finite_vals) if finite_vals else 1.0
    frame = _Frame(min(x), max(x), ylo, yhi * 1.05 + 1e-12)

    parts = _header(title) + _axes(frame, xlabel, "value")
    for i, (name, values) in enumerate(series):
        color = SERIES_COLORS[i % len(SERIES_COLORS)]
        pts = [
            (xv, yv)
            for xv, yv in zip(x, values)
            if yv is not None and math.isfinite(yv)
        ]
        if pts:
            parts.append(_polyline(frame, pts, color))
        parts += _legend(i, name, color)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
