"""Catalog of analytic closed curves and surfaces, plus manifest/CSV loading.

Every catalog shape carries an evaluator (parameter -> point with first
derivatives) so local graphs can be resampled analytically.  Raw point data
(JSON ``points`` arrays or CSV rows) produces immersions without evaluators.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .errors import InputError
from .immersion import SampledImmersion

TWO_PI = 2.0 * math.pi


class CurveEvaluator:
    """Closed curve t in [0, period) -> R^n with analytic first derivative."""

    m = 1

    def __init__(self, n, period, point_fn, velocity_fn):
        self.n = n
        self.period = period
        self._point = point_fn
        self._velocity = velocity_fn

    def point(self, t):
        return self._point(np.asarray(t, dtype=float))

    def jacobian(self, t):
        return self._velocity(np.asarray(t, dtype=float))

    def tangent_frame(self, t):
        v = self.jacobian(t)
        return v / np.linalg.norm(v, axis=-1, keepdims=True)


class SurfaceEvaluator:
    """Closed surface (u, v) -> R^3 with analytic Jacobian."""

    m = 2

    def __init__(self, n, point_fn, jacobian_fn, graph_heights_fn=None):
        self.n = n
        self._point = point_fn
        self._jacobian = jacobian_fn
        self.graph_heights = graph_heights_fn  # optional closed-form fill

    def point(self, t):
        return self._point(np.asarray(t, dtype=float))

    def jacobian(self, t):
        return self._jacobian(np.asarray(t, dtype=float))

    def tangent_frame(self, t):
        jac = self.jacobian(np.asarray(t, dtype=float))
        q, _ = np.linalg.qr(jac)
        return q


def _circle_evaluator(radius, center=(0.0, 0.0)):
    center = np.asarray(center, dtype=float)

    def point(t):
        return center + radius * np.stack([np.cos(t), np.sin(t)], axis=-1)

    def velocity(t):
        return radius * np.stack([-np.sin(t), np.cos(t)], axis=-1)

    return CurveEvaluator(2, TWO_PI, point, velocity)


def _ellipse_evaluator(a, b):
    def point(t):
        return np.stack([a * np.cos(t), b * np.sin(t)], axis=-1)

    def velocity(t):
        return np.stack([-a * np.sin(t), b * np.cos(t)], axis=-1)

    return CurveEvaluator(2, TWO_PI, point, velocity)


def _circle3d_evaluator(radius, tilt):
    ct, st = math.cos(tilt), math.sin(tilt)

    def point(t):
        return radius * np.stack([np.cos(t), np.sin(t) * ct, np.sin(t) * st],
                                 axis=-1)

    def velocity(t):
        return radius * np.stack([-np.sin(t), np.cos(t) * ct, np.cos(t) * st],
                                 axis=-1)

    return CurveEvaluator(3, TWO_PI, point, velocity)


def _torus_knot_evaluator(p, q, big_radius, tube_radius):
    def point(t):
        w = big_radius + tube_radius * np.cos(q * t)
        return np.stack([w * np.cos(p * t), w * np.sin(p * t),
                         tube_radius * np.sin(q * t)], axis=-1)

    def velocity(t):
        w = big_radius + tube_radius * np.cos(q * t)
        dw = -tube_radius * q * np.sin(q * t)
        return np.stack([dw * np.cos(p * t) - w * p * np.sin(p * t),
                         dw * np.sin(p * t) + w * p * np.cos(p * t),
                         tube_radius * q * np.cos(q * t)], axis=-1)

    return CurveEvaluator(3, TWO_PI, point, velocity)


def _rounded_rectangle_evaluator(width, height, corner_radius):
    rc = corner_radius
    lx, ly = width - 2 * rc, height - 2 * rc
    if lx < 0 or ly < 0 or rc <= 0:
        raise InputError("rounded rectangle needs 0 < corner_radius <= min(w,h)/2")
    la = math.pi / 2 * rc
    lengths = np.array([lx, la, ly, la, lx, la, ly, la])
    starts = np.concatenate([[0.0], np.cumsum(lengths)])
    period = float(starts[-1])
    # piece data: straights (start point, direction) and arcs (center, angle0)
    sx, sy = lx / 2, ly / 2
    pieces = [
        ("s", np.array([-sx, -height / 2]), np.array([1.0, 0.0])),
        ("a", np.array([sx, -sy]), -math.pi / 2),
        ("s", np.array([width / 2, -sy]), np.array([0.0, 1.0])),
        ("a", np.array([sx, sy]), 0.0),
        ("s", np.array([sx, height / 2]), np.array([-1.0, 0.0])),
        ("a", np.array([-sx, sy]), math.pi / 2),
        ("s", np.array([-width / 2, sy]), np.array([0.0, -1.0])),
        ("a", np.array([-sx, -sy]), math.pi),
    ]

    def evaluate(t, want_velocity):
        t = np.mod(t, period)
        idx = np.clip(np.searchsorted(starts, t, side="right") - 1, 0, 7)
        out = np.zeros(t.shape + (2,))
        for i, (kind, a, b) in enumerate(pieces):
            sel = idx == i
            if not np.any(sel):
                continue
            s = t[sel] - starts[i]
            if kind == "s":
                out[sel] = b[None, :] if want_velocity else a[None, :] + s[..., None] * b[None, :]
            else:
                ang = b + s / rc
                if want_velocity:
                    out[sel] = np.stack([-np.sin(ang), np.cos(ang)], axis=-1)
                else:
                    out[sel] = a[None, :] + rc * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        return out

    return CurveEvaluator(2, period,
                          lambda t: evaluate(t, False),
                          lambda t: evaluate(t, True))


def _sphere_evaluator(radius):
    def point(t):
        lon, lat = t[..., 0], t[..., 1]
        return radius * np.stack([np.cos(lat) * np.cos(lon),
                                  np.cos(lat) * np.sin(lon),
                                  np.sin(lat)], axis=-1)

    def jacobian(t):
        lon, lat = t[..., 0], t[..., 1]
        d_lon = radius * np.stack([-np.cos(lat) * np.sin(lon),
                                   np.cos(lat) * np.cos(lon),
                                   np.zeros_like(lon)], axis=-1)
        d_lat = radius * np.stack([-np.sin(lat) * np.cos(lon),
                                   -np.sin(lat) * np.sin(lon),
                                   np.cos(lat)], axis=-1)
        return np.stack([d_lon, d_lat], axis=-1)

    def graph_heights(origin, e_frame, n_frame, x_targets):
        # point = origin + x.e + u.n on the sphere |p| = radius; quadratic in u
        w = origin[None, :] + x_targets @ e_frame.T
        b = float(origin @ n_frame[:, 0])
        disc = b * b - (np.sum(w * w, axis=1) - radius * radius)
        if np.any(disc < 0):
            return None
        u = -b + math.copysign(1.0, b) * np.sqrt(disc)
        return u[:, None]

    ev = SurfaceEvaluator(3, point, jacobian, graph_heights)

    def tangent_frame(t):
        # complement of the radial direction; regular at the poles
        p = point(np.asarray(t, dtype=float)) / radius
        eye = np.broadcast_to(np.eye(3), p.shape[:-1] + (3, 3))
        q, _ = np.linalg.qr(np.concatenate([p[..., None], eye], axis=-1))
        return q[..., 1:3]

    ev.tangent_frame = tangent_frame
    return ev


def _torus_evaluator(big_radius, tube_radius):
    def point(t):
        u, v = t[..., 0], t[..., 1]
        w = big_radius + tube_radius * np.cos(v)
        return np.stack([w * np.cos(u), w * np.sin(u),
                         tube_radius * np.sin(v)], axis=-1)

    def jacobian(t):
        u, v = t[..., 0], t[..., 1]
        w = big_radius + tube_radius * np.cos(v)
        d_u = np.stack([-w * np.sin(u), w * np.cos(u), np.zeros_like(u)], axis=-1)
        d_v = tube_radius * np.stack([-np.sin(v) * np.cos(u),
                                      -np.sin(v) * np.sin(u),
                                      np.cos(v)], axis=-1)
        return np.stack([d_u, d_v], axis=-1)

    return SurfaceEvaluator(3, point, jacobian)


def _closed_curve_immersion(evaluator, n_samples):
    ts = np.arange(n_samples) * (evaluator.period / n_samples)
    positions = evaluator.point(ts)
    neighbors = [((i - 1) % n_samples, (i + 1) % n_samples)
                 for i in range(n_samples)]
    return SampledImmersion(m=1, n=evaluator.n, positions=positions,
                            neighbors=neighbors, params=ts,
                            evaluator=evaluator)


def _grid_faces_torus(nu, nv):
    def vid(i, j):
        return (i % nu) * nv + (j % nv)

    faces = []
    for i in range(nu):
        for j in range(nv):
            faces.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            faces.append((vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)))
    return np.array(faces, dtype=int)


def _torus_immersion(evaluator, nu, nv):
    us = np.arange(nu) * (TWO_PI / nu)
    vs = np.arange(nv) * (TWO_PI / nv)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    params = np.column_stack([uu.ravel(), vv.ravel()])
    positions = evaluator.point(params)
    faces = _grid_faces_torus(nu, nv)
    return SampledImmersion(m=2, n=3, positions=positions, faces=faces,
                            params=params, evaluator=evaluator)


def _sphere_immersion(evaluator, nu, nv):
    # nv latitude bands; rings at interior latitudes plus the two poles
    lats = -math.pi / 2 + np.arange(1, nv) * (math.pi / nv)
    lons = np.arange(nu) * (TWO_PI / nu)
    params = [(0.0, -math.pi / 2)]
    for lat in lats:
        for lon in lons:
            params.append((lon, lat))
    params.append((0.0, math.pi / 2))
    params = np.array(params)
    positions = evaluator.point(params)

    south, north = 0, len(params) - 1

    def rid(ring, i):
        return 1 + ring * nu + (i % nu)

    faces = []
    for i in range(nu):  # south fan
        faces.append((south, rid(0, i + 1), rid(0, i)))
    for ring in range(len(lats) - 1):
        for i in range(nu):
            faces.append((rid(ring, i), rid(ring, i + 1), rid(ring + 1, i + 1)))
            faces.append((rid(ring, i), rid(ring + 1, i + 1), rid(ring + 1, i)))
    for i in range(nu):  # north fan
        faces.append((north, rid(len(lats) - 1, i), rid(len(lats) - 1, i + 1)))
    return SampledImmersion(m=2, n=3, positions=positions,
                            faces=np.array(faces, dtype=int), params=params,
                            evaluator=evaluator)


def _parse_grid(samples):
    if isinstance(samples, str):
        parts = samples.lower().split("x")
        if len(parts) != 2:
            raise InputError(f"expected NxM sample grid, got {samples!r}")
        return int(parts[0]), int(parts[1])
    if isinstance(samples, (list, tuple)):
        return int(samples[0]), int(samples[1])
    n = int(samples)
    side = max(8, int(round(math.sqrt(n))))
    return side, side


def make_shape(name: str, params: dict | None = None, samples=4096) -> SampledImmersion:
    """Build a catalog shape by name with the given parameters."""
    params = dict(params or {})
    name = name.replace("_", "-").lower()
    if name == "circle":
        ev = _circle_evaluator(params.get("radius", 1.0),
                               params.get("center", (0.0, 0.0)))
        return _closed_curve_immersion(ev, int(samples))
    if name == "ellipse":
        ev = _ellipse_evaluator(params.get("a", 1.0), params.get("b", 0.6))
        return _closed_curve_immersion(ev, int(samples))
    if name in ("rounded-rectangle", "rounded-rect"):
        ev = _rounded_rectangle_evaluator(params.get("width", 2.0),
                                          params.get("height", 1.5),
                                          params.get("corner_radius", 0.5))
        return _closed_curve_immersion(ev, int(samples))
    if name == "circle3d":
        ev = _circle3d_evaluator(params.get("radius", 1.0),
                                 params.get("tilt", 0.2))
        return _closed_curve_immersion(ev, int(samples))
    if name in ("torus-knot", "torusknot"):
        ev = _torus_knot_evaluator(int(params.get("p", 2)), int(params.get("q", 3)),
                                   params.get("R", 2.0), params.get("tube", 0.5))
        return _closed_curve_immersion(ev, int(samples))
    if name == "sphere":
        nu, nv = _parse_grid(samples)
        return _sphere_immersion(_sphere_evaluator(params.get("radius", 1.0)), nu, nv)
    if name == "torus":
        nu, nv = _parse_grid(samples)
        return _torus_immersion(_torus_evaluator(params.get("R", 2.0),
                                                 params.get("r", 0.5)), nu, nv)
    raise InputError(f"unknown catalog shape {name!r}")


def immersion_from_points(points, m=1, closed=True, faces=None) -> SampledImmersion:
    """Raw sample data: closed polyline (m=1) or triangulated surface (m=2)."""
    positions = np.asarray(points, dtype=float)
    if m == 1:
        if not closed:
            raise InputError("only closed curves are supported")
        n_samples = positions.shape[0]
        neighbors = [((i - 1) % n_samples, (i + 1) % n_samples)
                     for i in range(n_samples)]
        return SampledImmersion(m=1, n=positions.shape[1], positions=positions,
                                neighbors=neighbors)
    if faces is None:
        raise InputError("m=2 point data requires faces")
    return SampledImmersion(m=2, n=positions.shape[1], positions=positions,
                            faces=np.asarray(faces, dtype=int))


def load_manifest(path) -> SampledImmersion:
    """Load an immersion from a JSON manifest or a CSV of samples."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"no such input file: {path}")
    if path.suffix.lower() == ".csv":
        with open(path, newline="") as fh:
            rows = [[float(x) for x in row] for row in csv.reader(fh) if row]
        return immersion_from_points(np.array(rows))
    try:
        spec = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON manifest {path}: {exc}") from exc
    return immersion_from_manifest(spec)


def immersion_from_manifest(spec: dict) -> SampledImmersion:
    if "shape" in spec:
        return make_shape(spec["shape"], spec.get("params"),
                          spec.get("samples", 4096))
    if "points" in spec:
        return immersion_from_points(spec["points"], m=int(spec.get("m", 1)),
                                     closed=bool(spec.get("closed", True)),
                                     faces=spec.get("faces"))
    raise InputError("manifest needs either a 'shape' or a 'points' entry")


def write_samples_csv(path, immersion: SampledImmersion):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in immersion.positions:
            writer.writerow([repr(float(x)) for x in row])
