"""Minimal deterministic SVG output for curves, nets, and fibers."""

from __future__ import annotations

import numpy as np

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_SIZE = 640  # figure width and height in pixels


def _fmt(x):
    return f"{x:.6f}"


def svg_figure(paths=(), points=(), segments=()) -> str:
    """Render 2-d polylines, point markers, and segments as an SVG string.

    Inputs with more than two coordinates are projected onto their first two.
    """
    chunks = []
    boxes = []

    def to2d(arr):
        a = np.asarray(arr, dtype=float)
        return a[:, :2] if a.ndim == 2 else a.reshape(-1, 2)

    paths = [to2d(p) for p in paths]
    points = [to2d(p) for p in points]
    segments = [(to2d(s)) for s in segments]
    for group in (*paths, *points, *segments):
        if len(group):
            boxes.append((group.min(axis=0), group.max(axis=0)))
    if not boxes:
        lo = np.array([-1.0, -1.0])
        hi = np.array([1.0, 1.0])
    else:
        lo = np.min([b[0] for b in boxes], axis=0)
        hi = np.max([b[1] for b in boxes], axis=0)
    span = np.maximum(hi - lo, 1e-9)
    pad = 0.05 * float(np.max(span))
    lo, hi = lo - pad, hi + pad
    scale = _SIZE / float(np.max(hi - lo))

    def tx(p):
        q = (p - lo) * scale
        return q[:, 0], _SIZE - q[:, 1]  # flip y for screen coordinates

    for i, path in enumerate(paths):
        xs, ys = tx(path)
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))
        chunks.append(f'<polyline fill="none" stroke="{_PALETTE[i % len(_PALETTE)]}" '
                      f'stroke-width="1.2" points="{pts}"/>')
    for i, seg in enumerate(segments):
        xs, ys = tx(seg)
        for a in range(0, len(xs) - 1, 2):
            chunks.append(f'<line stroke="{_PALETTE[(i + 2) % len(_PALETTE)]}" '
                          f'stroke-width="0.6" x1="{_fmt(xs[a])}" y1="{_fmt(ys[a])}" '
                          f'x2="{_fmt(xs[a + 1])}" y2="{_fmt(ys[a + 1])}"/>')
    for i, grp in enumerate(points):
        xs, ys = tx(grp)
        for x, y in zip(xs, ys):
            chunks.append(f'<circle fill="{_PALETTE[(i + 1) % len(_PALETTE)]}" '
                          f'r="2.0" cx="{_fmt(x)}" cy="{_fmt(y)}"/>')
    body = "\n".join(chunks)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
            f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">\n{body}\n</svg>\n')
