"""Minimal deterministic SVG line charts (diagnostic output only)."""
from __future__ import annotations

from typing import Sequence

__all__ = ["svg_line_chart"]

_WIDTH, _HEIGHT = 720, 420
_MARGIN = 54
_PALETTE = ("#1b6ca8", "#c0392b", "#1e8449", "#8e44ad", "#d68910", "#117a8b")


def _widen(lo: float, hi: float) -> float:
    """``hi``, moved off a flat range [lo, lo]: to lo + 1, or to lo + |lo|
    where adding 1 leaves lo unchanged."""
    if hi != lo:
        return hi
    return lo + 1.0 if lo + 1.0 != lo else lo + abs(lo)


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def svg_line_chart(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str,
    x_label: str = "t",
    y_label: str = "",
) -> str:
    """Render labelled (x, y) series as a static SVG string."""
    xs = [x for _, sx, _ in series for x in sx]
    ys = [y for _, _, sy in series for y in sy]
    if not xs:
        raise ValueError("no data to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_hi = _widen(x_lo, x_hi)
    y_hi = _widen(y_lo, y_hi)
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(x: float) -> float:
        return _MARGIN + (x - x_lo) / (x_hi - x_lo) * (_WIDTH - 2 * _MARGIN)

    def py(y: float) -> float:
        return _HEIGHT - _MARGIN - (y - y_lo) / (y_hi - y_lo) * (_HEIGHT - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    axis = (
        f'M {_MARGIN} {_MARGIN} L {_MARGIN} {_HEIGHT - _MARGIN} '
        f'L {_WIDTH - _MARGIN} {_HEIGHT - _MARGIN}'
    )
    parts.append(f'<path d="{axis}" stroke="#333" fill="none"/>')
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<text x="{px(tx):.1f}" y="{_HEIGHT - _MARGIN + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tx:.4g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        parts.append(
            f'<text x="{_MARGIN - 6}" y="{py(ty):.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{ty:.4g}</text>'
        )
    parts.append(
        f'<text x="{_WIDTH / 2:.1f}" y="{_HEIGHT - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>'
    )
    if y_label:
        parts.append(
            f'<text x="16" y="{_HEIGHT / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {_HEIGHT / 2:.1f})">{y_label}</text>'
        )
    for idx, (label, sx, sy) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(sx, sy))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN + 16 * idx + 10
        parts.append(
            f'<line x1="{_WIDTH - _MARGIN - 70}" y1="{ly}" x2="{_WIDTH - _MARGIN - 50}" '
            f'y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN - 44}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
