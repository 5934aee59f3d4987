"""Minimal self-contained SVG emission: line charts and square heatmaps.

No plotting dependency; output is deterministic for identical inputs.
"""

from __future__ import annotations

from typing import Sequence

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

_FONT = 'font-family="Helvetica,Arial,sans-serif"'
WIDTH, HEIGHT = 720, 440  # a line chart's size in px
CELL = 22  # a heatmap cell's side in px
N_TICKS = 5  # intervals between an axis' ticks


def _escape(text: str) -> str:
    """Escape &, < and > for SVG text content (xml.sax.saxutils would import http.client)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


def _ticks(lo: float, hi: float) -> list[float]:
    step = (hi - lo) / N_TICKS
    return [lo + i * step for i in range(N_TICKS + 1)]


def line_chart(
    series: Sequence[tuple[str, Sequence[tuple[float, float]]]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """SVG line chart for (name, [(x, y), ...]) series, on a y axis from 0 to 1."""
    left, right, top, bottom = 64, 170, 40, 52
    pw, ph = WIDTH - left - right, HEIGHT - top - bottom
    xs = [x for _, pts in series for x, _ in pts]
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def px(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y: float) -> float:
        return top + ph - y * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" {_FONT} '
            f'font-size="16">{_escape(title)}</text>'
        )
    for tx in _ticks(x_lo, x_hi):
        out.append(
            f'<line x1="{_fmt(px(tx))}" y1="{top + ph}" x2="{_fmt(px(tx))}" '
            f'y2="{top + ph + 4}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_fmt(px(tx))}" y="{top + ph + 18}" text-anchor="middle" '
            f'{_FONT} font-size="11">{_fmt(tx)}</text>'
        )
    for ty in _ticks(0.0, 1.0):
        out.append(
            f'<line x1="{left}" y1="{_fmt(py(ty))}" x2="{left + pw}" '
            f'y2="{_fmt(py(ty))}" stroke="#e0e0e0"/>'
        )
        out.append(
            f'<text x="{left - 6}" y="{_fmt(py(ty) + 4)}" text-anchor="end" '
            f'{_FONT} font-size="11">{_fmt(ty)}</text>'
        )
    out.append(
        f'<rect x="{left}" y="{top}" width="{pw}" height="{ph}" fill="none" stroke="black"/>'
    )
    if x_label:
        out.append(
            f'<text x="{left + pw / 2:.0f}" y="{HEIGHT - 12}" text-anchor="middle" '
            f'{_FONT} font-size="12">{_escape(x_label)}</text>'
        )
    if y_label:
        out.append(
            f'<text x="16" y="{top + ph / 2:.0f}" text-anchor="middle" {_FONT} '
            f'font-size="12" transform="rotate(-90 16 {top + ph / 2:.0f})">'
            f"{_escape(y_label)}</text>"
        )
    for idx, (name, pts) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        if pts:
            coords = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in pts)
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
            for x, y in pts:
                out.append(
                    f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="2.5" fill="{color}"/>'
                )
        ly = top + 14 + idx * 16
        out.append(
            f'<line x1="{left + pw + 10}" y1="{ly - 4}" x2="{left + pw + 30}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{left + pw + 34}" y="{ly}" {_FONT} font-size="11">{_escape(name)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _heat_color(v: float | None) -> str:
    if v is None:
        return "#dddddd"
    v = max(-1.0, min(1.0, v))
    if v >= 0:
        k = round(255 * (1 - v))
        return f"rgb(255,{k},{k})"
    k = round(255 * (1 + v))
    return f"rgb({k},{k},255)"


def heatmap(
    values: Sequence[Sequence[float | None]],
    labels: Sequence[str],
    title: str = "",
) -> str:
    """Square heatmap for values in [-1, 1]; None cells render gray."""
    n = len(labels)
    left, top = 110, 120
    width = left + n * CELL + 30
    height = top + n * CELL + 30
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{width / 2:.0f}" y="22" text-anchor="middle" {_FONT} '
            f'font-size="15">{_escape(title)}</text>'
        )
    for j, name in enumerate(labels):
        x = left + j * CELL + CELL / 2
        out.append(
            f'<text x="{_fmt(x)}" y="{top - 6}" text-anchor="start" {_FONT} font-size="10" '
            f'transform="rotate(-60 {_fmt(x)} {top - 6})">{_escape(name)}</text>'
        )
    for i, name in enumerate(labels):
        y = top + i * CELL
        out.append(
            f'<text x="{left - 6}" y="{y + CELL / 2 + 4:.1f}" text-anchor="end" '
            f'{_FONT} font-size="10">{_escape(name)}</text>'
        )
        for j in range(n):
            v = values[i][j]
            out.append(
                f'<rect x="{left + j * CELL}" y="{y}" width="{CELL}" height="{CELL}" '
                f'fill="{_heat_color(v)}" stroke="#f5f5f5"/>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
