"""Minimal standalone SVG line charts.

Deterministic output (same data, same bytes), no external assets, valid
XML; enough for eyeballing sweep and trajectory CSVs without pulling in a
plotting stack.
"""
from __future__ import annotations

import math

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _tick_values(lo: float, hi: float, target: int = 5) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi):
        return []
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10 * mag
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if (hi - lo) / (mult * mag) <= target + 0.5:
            step = mult * mag
            break
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    v = first
    while v <= hi + step * 1e-9:
        ticks.append(0.0 if abs(v) < step * 1e-9 else v)
        v += step
    return ticks


def _escape(text: str) -> str:
    """`text` with ``&``, ``<`` and ``>`` written as XML entities."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def render_line_chart(
    series: dict[str, list[tuple[float, float]]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    width: int = 720,
    height: int = 480,
) -> str:
    """Render named (x, y) point lists as one SVG document string."""
    points = [p for pts in series.values() for p in pts]
    if not points:
        raise ValueError("nothing to plot")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad_y = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    left, right, top, bottom = 64, 18, 46 if title else 24, 48
    plot_w = width - left - right
    plot_h = height - top - bottom

    def px(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        out.append(f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="15">{_escape(title)}</text>')

    for v in _tick_values(x_lo, x_hi):
        if x_lo <= v <= x_hi:
            x = px(v)
            out.append(f'<line x1="{x:.2f}" y1="{top}" x2="{x:.2f}" y2="{top + plot_h}" stroke="#e0e0e0"/>')
            out.append(f'<text x="{x:.2f}" y="{top + plot_h + 16}" text-anchor="middle">{_escape(_fmt(v))}</text>')
    for v in _tick_values(y_lo, y_hi):
        if y_lo <= v <= y_hi:
            y = py(v)
            out.append(f'<line x1="{left}" y1="{y:.2f}" x2="{left + plot_w}" y2="{y:.2f}" stroke="#e0e0e0"/>')
            out.append(f'<text x="{left - 6}" y="{y + 4:.2f}" text-anchor="end">{_escape(_fmt(v))}</text>')

    out.append(
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" fill="none" stroke="#404040"/>'
    )
    if x_label:
        out.append(
            f'<text x="{left + plot_w / 2:.1f}" y="{height - 8}" text-anchor="middle">{_escape(x_label)}</text>'
        )
    if y_label:
        out.append(
            f'<text x="14" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 14 {top + plot_h / 2:.1f})">{_escape(y_label)}</text>'
        )

    for idx, (name, pts) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        if coords:
            out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        ly = top + 14 + 16 * idx
        lx = left + plot_w - 150
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}">{_escape(name)}</text>')

    out.append("</svg>")
    return "\n".join(out)
