"""Minimal dependency-free SVG charts for the report emitters.

These are deliberately plain line/box/bar renderings; every coordinate is
formatted with 9 significant digits so chart files are byte-reproducible.
"""

from __future__ import annotations

import math
from pathlib import Path

from .serialize import fmt9

WIDTH = 640
HEIGHT = 400
MARGIN_LEFT = 60
MARGIN_RIGHT = 20
MARGIN_TOP = 40
MARGIN_BOTTOM = 50
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def _finite(values):
    return [v for v in values if v is not None and math.isfinite(v)]


class _Scale:
    def __init__(self, lo: float, hi: float, out_lo: float, out_hi: float):
        if hi <= lo:
            hi = lo + 1.0
        self.lo, self.hi, self.out_lo, self.out_hi = lo, hi, out_lo, out_hi

    def __call__(self, v: float) -> float:
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.out_lo + frac * (self.out_hi - self.out_lo)


def _document(title: str, cfg_hash: str, body: list[str]) -> str:
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!-- config_hash={cfg_hash} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:g}" y="22" text-anchor="middle" font-size="15">{title}</text>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _axes(xs: _Scale, ys: _Scale, x_label: str, y_label: str) -> list[str]:
    body = [
        f'<line x1="{MARGIN_LEFT}" y1="{HEIGHT - MARGIN_BOTTOM}" x2="{WIDTH - MARGIN_RIGHT}" '
        f'y2="{HEIGHT - MARGIN_BOTTOM}" stroke="black"/>',
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{HEIGHT - MARGIN_BOTTOM}" stroke="black"/>',
        f'<text x="{(MARGIN_LEFT + WIDTH - MARGIN_RIGHT) / 2:g}" y="{HEIGHT - 12}" '
        f'text-anchor="middle" font-size="12">{x_label}</text>',
        f'<text x="16" y="{(MARGIN_TOP + HEIGHT - MARGIN_BOTTOM) / 2:g}" text-anchor="middle" '
        f'font-size="12" transform="rotate(-90 16 {(MARGIN_TOP + HEIGHT - MARGIN_BOTTOM) / 2:g})">'
        f"{y_label}</text>",
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = xs.lo + frac * (xs.hi - xs.lo)
        yv = ys.lo + frac * (ys.hi - ys.lo)
        body.append(
            f'<text x="{fmt9(xs(xv))}" y="{HEIGHT - MARGIN_BOTTOM + 16}" text-anchor="middle" '
            f'font-size="10">{fmt9(xv)}</text>'
        )
        body.append(
            f'<text x="{MARGIN_LEFT - 6}" y="{fmt9(ys(yv) + 3)}" text-anchor="end" '
            f'font-size="10">{fmt9(yv)}</text>'
        )
    return body


def line_chart(
    path: str | Path,
    series: list[tuple[str, list[float], list[float]]],
    title: str,
    x_label: str,
    y_label: str,
    cfg_hash: str,
):
    all_x = _finite([x for _, xs, _ in series for x in xs])
    all_y = _finite([y for _, _, ys in series for y in ys])
    xs = _Scale(min(all_x, default=0.0), max(all_x, default=1.0), MARGIN_LEFT, WIDTH - MARGIN_RIGHT)
    ys = _Scale(min(all_y, default=0.0), max(all_y, default=1.0), HEIGHT - MARGIN_BOTTOM, MARGIN_TOP)
    body = _axes(xs, ys, x_label, y_label)
    for i, (name, sx, sy) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(
            f"{fmt9(xs(x))},{fmt9(ys(y))}"
            for x, y in zip(sx, sy)
            if y is not None and math.isfinite(y)
        )
        body.append(f'<polyline fill="none" stroke="{color}" stroke-width="1" points="{points}"/>')
        body.append(
            f'<text x="{WIDTH - MARGIN_RIGHT - 4}" y="{MARGIN_TOP + 14 * (i + 1)}" '
            f'text-anchor="end" font-size="11" fill="{color}">{name}</text>'
        )
    Path(path).write_text(_document(title, cfg_hash, body), encoding="utf-8")


def box_chart(
    path: str | Path,
    boxes: list[tuple[str, float, float, float, float, float]],
    title: str,
    y_label: str,
    cfg_hash: str,
):
    """Boxes are (label, min, q1, q2, q3, max)."""
    values = _finite([v for _, *stats in boxes for v in stats])
    ys = _Scale(min(values, default=0.0), max(values, default=1.0), HEIGHT - MARGIN_BOTTOM, MARGIN_TOP)
    xs = _Scale(0.0, float(len(boxes)), MARGIN_LEFT, WIDTH - MARGIN_RIGHT)
    body = _axes(xs, ys, "", y_label)
    half = 0.3
    for i, (label, mn, q1, q2, q3, mx) in enumerate(boxes):
        cx = i + 0.5
        color = PALETTE[i % len(PALETTE)]
        x0, x1 = fmt9(xs(cx - half)), fmt9(xs(cx + half))
        xc = fmt9(xs(cx))
        body.extend(
            [
                f'<line x1="{xc}" y1="{fmt9(ys(mn))}" x2="{xc}" y2="{fmt9(ys(q1))}" stroke="{color}"/>',
                f'<line x1="{xc}" y1="{fmt9(ys(q3))}" x2="{xc}" y2="{fmt9(ys(mx))}" stroke="{color}"/>',
                f'<rect x="{x0}" y="{fmt9(ys(q3))}" width="{fmt9(xs(cx + half) - xs(cx - half))}" '
                f'height="{fmt9(ys(q1) - ys(q3))}" fill="none" stroke="{color}"/>',
                f'<line x1="{x0}" y1="{fmt9(ys(q2))}" x2="{x1}" y2="{fmt9(ys(q2))}" '
                f'stroke="{color}" stroke-width="2"/>',
                f'<text x="{xc}" y="{HEIGHT - MARGIN_BOTTOM + 16}" text-anchor="middle" '
                f'font-size="10">{label}</text>',
            ]
        )
    Path(path).write_text(_document(title, cfg_hash, body), encoding="utf-8")


def bar_chart(
    path: str | Path,
    labels: list[str],
    values: list[float],
    title: str,
    y_label: str,
    cfg_hash: str,
):
    finite = _finite(values)
    ys = _Scale(0.0, max(finite, default=1.0), HEIGHT - MARGIN_BOTTOM, MARGIN_TOP)
    xs = _Scale(0.0, float(len(labels)), MARGIN_LEFT, WIDTH - MARGIN_RIGHT)
    body = _axes(xs, ys, "", y_label)
    for i, (label, value) in enumerate(zip(labels, values)):
        if value is None or not math.isfinite(value):
            continue
        x0 = xs(i + 0.15)
        width = xs(i + 0.85) - x0
        body.append(
            f'<rect x="{fmt9(x0)}" y="{fmt9(ys(value))}" width="{fmt9(width)}" '
            f'height="{fmt9(ys(0.0) - ys(value))}" fill="{PALETTE[0]}"/>'
        )
        body.append(
            f'<text x="{fmt9(xs(i + 0.5))}" y="{HEIGHT - MARGIN_BOTTOM + 16}" text-anchor="middle" '
            f'font-size="9">{label}</text>'
        )
    Path(path).write_text(_document(title, cfg_hash, body), encoding="utf-8")


def roc_chart(
    path: str | Path,
    curves: list[tuple[str, list[float], list[float], float]],
    title: str,
    cfg_hash: str,
):
    """Curves are (label, fpr, tpr, auc); includes the chance diagonal."""
    xs = _Scale(0.0, 1.0, MARGIN_LEFT, WIDTH - MARGIN_RIGHT)
    ys = _Scale(0.0, 1.0, HEIGHT - MARGIN_BOTTOM, MARGIN_TOP)
    body = _axes(xs, ys, "false positive rate", "true positive rate")
    body.append(
        f'<line x1="{fmt9(xs(0.0))}" y1="{fmt9(ys(0.0))}" x2="{fmt9(xs(1.0))}" '
        f'y2="{fmt9(ys(1.0))}" stroke="#999999" stroke-dasharray="4 3"/>'
    )
    for i, (label, fpr, tpr, auc) in enumerate(curves):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(f"{fmt9(xs(x))},{fmt9(ys(y))}" for x, y in zip(fpr, tpr))
        body.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        body.append(
            f'<text x="{WIDTH - MARGIN_RIGHT - 4}" y="{HEIGHT - MARGIN_BOTTOM - 14 * (len(curves) - i)}" '
            f'text-anchor="end" font-size="11" fill="{color}">{label} (area {fmt9(auc)})</text>'
        )
    Path(path).write_text(_document(title, cfg_hash, body), encoding="utf-8")
