"""Minimal hand-rolled SVG output: line plots and diverging heatmaps.

Plots are a convenience; the CSV files are the contract.  No plotting
library is involved so the CLI stays dependency-light.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = ["line_plot_svg", "heatmap_svg"]

_PALETTE = ["#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#e67e22", "#16a085", "#2c3e50"]

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _scale(values: np.ndarray, lo: float, hi: float, out_lo: float, out_hi: float):
    span = hi - lo if hi > lo else 1.0
    return out_lo + (values - lo) * (out_hi - out_lo) / span


def _frame(title: str, xlabel: str, ylabel: str) -> list[str]:
    """The opening of every plot: root, white background, title and axis labels."""
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{_W / 2}" y="{_H - 12}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{_H / 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {_H / 2})">{ylabel}</text>',
    ]


def _ticks(x_ticks, y_ticks) -> list[str]:
    """Tick labels from (pixel, value) pairs: below the x axis, left of the y axis."""
    return [
        f'<text x="{px:.1f}" y="{_H - _MB + 16}" text-anchor="middle" '
        f'font-size="10">{tick:.3g}</text>'
        for px, tick in x_ticks
    ] + [
        f'<text x="{_ML - 6}" y="{py + 3:.1f}" text-anchor="end" '
        f'font-size="10">{tick:.3g}</text>'
        for py, tick in y_ticks
    ]


def _write(path, parts: list[str]) -> Path:
    path = Path(path)
    path.write_text("\n".join([*parts, "</svg>"]))
    return path


def line_plot_svg(path, x, series: dict, title: str = "", xlabel: str = "", ylabel: str = "") -> Path:
    """Write a line plot; ``series`` maps legend labels to y arrays."""
    x = np.asarray(x, dtype=float)
    ys = {k: np.asarray(v, dtype=float) for k, v in series.items()}
    y_all = np.concatenate(list(ys.values()))
    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    y_lo, y_hi = float(np.min(y_all)), float(np.max(y_all))
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    x_ticks = np.linspace(x_lo, x_hi, 5)
    y_ticks = np.linspace(y_lo, y_hi, 5)
    parts = [
        *_frame(title, xlabel, ylabel),
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        f'fill="none" stroke="#888"/>',
        *_ticks(
            zip(_scale(x_ticks, x_lo, x_hi, _ML, _W - _MR), x_ticks),
            zip(_scale(y_ticks, y_lo, y_hi, _H - _MB, _MT), y_ticks),
        ),
    ]
    for i, (label, y) in enumerate(ys.items()):
        color = _PALETTE[i % len(_PALETTE)]
        px = _scale(x, x_lo, x_hi, _ML, _W - _MR)
        py = _scale(y, y_lo, y_hi, _H - _MB, _MT)
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{_W - _MR - 8}" y="{_MT + 16 + 14 * i}" text-anchor="end" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    return _write(path, parts)


def _diverging_color(v: float) -> str:
    """v in [-1, 1] -> blue-white-red hex color."""
    v = max(-1.0, min(1.0, v))
    if v >= 0:
        r, g, b = 255, round(255 * (1 - v)), round(255 * (1 - v))
    else:
        r, g, b = round(255 * (1 + v)), round(255 * (1 + v)), 255
    return f"#{r:02x}{g:02x}{b:02x}"


def heatmap_svg(path, x, y, z, title: str = "", xlabel: str = "", ylabel: str = "") -> Path:
    """Write a heatmap of z[i, j] over (x[i], y[j]) with a diverging scale.

    The color scale is symmetric about zero (positive red, negative blue).
    A grid finer than the plot's pixels is drawn at evenly spaced cells.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if z.shape != (x.size, y.size):
        raise ValueError("z must have shape (len(x), len(y))")
    vmax = float(np.max(np.abs(z))) or 1.0

    plot_w, plot_h = _W - _ML - _MR, _H - _MT - _MB
    # at most one cell per pixel: evenly spaced cells on each axis, both ends included
    picks = (np.unique(np.linspace(0, n - 1, min(n, px)).round().astype(int))
             for n, px in zip(z.shape, (plot_w, plot_h)))
    z = z[np.ix_(*picks)]
    cw, ch = plot_w / z.shape[0], plot_h / z.shape[1]
    parts = _frame(title, xlabel, ylabel)
    for i in range(z.shape[0]):
        for j in range(z.shape[1]):
            px = _ML + i * cw
            py = _H - _MB - (j + 1) * ch
            color = _diverging_color(z[i, j] / vmax)
            parts.append(
                f'<rect x="{px:.2f}" y="{py:.2f}" width="{cw + 0.5:.2f}" '
                f'height="{ch + 0.5:.2f}" fill="{color}"/>'
            )
    # the end values, at the outer edges of the first and last cells
    parts += _ticks(((_ML, x[0]), (_ML + plot_w, x[-1])), ((_H - _MB, y[0]), (_MT, y[-1])))
    return _write(path, parts)
