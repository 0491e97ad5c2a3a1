"""Catalog of analytic closed curves and surfaces, plus manifest/CSV loading.

Every catalog shape carries an ``Evaluator`` (parameter -> point and first
derivatives, from one function per shape) so local graphs can be resampled
analytically.  Raw point data (JSON ``points`` arrays or CSV rows) produces
immersions without evaluators.
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


class Evaluator:
    """A closed curve (m = 1, t in [0, period)) or surface (m = 2,
    t = (u, v)) in R^n with its analytic first derivatives.

    ``point_jacobian(t)`` returns new arrays of the points and the
    Jacobians, from one evaluation of the sines and cosines they share: a curve's Jacobian is
    its (..., n) velocity, a surface's (..., n, 2) in any layout.  ``point`` and
    ``jacobian`` are its two halves.  ``graph_heights``, where given, fills
    a surface patch in closed form.
    """

    def __init__(self, n, m, point_jacobian, period=None, graph_heights=None):
        self.n = n
        self.m = m
        self.period = period
        self._point_jacobian = point_jacobian
        self.graph_heights = graph_heights

    def point_jacobian(self, t):
        return self._point_jacobian(np.asarray(t, dtype=float))

    def point(self, t):
        return self._point_jacobian(np.asarray(t, dtype=float))[0]

    def jacobian(self, t):
        return self._point_jacobian(np.asarray(t, dtype=float))[1]

    def tangent_frame(self, t):
        jac = self.jacobian(t)
        if self.m == 1:
            return jac / np.linalg.norm(jac, axis=-1, keepdims=True)
        q, _ = np.linalg.qr(jac)
        return q


def _circle_evaluator(radius, center=(0.0, 0.0)):
    center = np.asarray(center, dtype=float)

    def point_velocity(t):
        cos, sin = np.cos(t), np.sin(t)
        return (center + radius * np.stack([cos, sin], axis=-1),
                radius * np.stack([-sin, cos], axis=-1))

    return Evaluator(2, 1, point_velocity, TWO_PI)


def _ellipse_evaluator(a, b):
    def point_velocity(t):
        cos, sin = np.cos(t), np.sin(t)
        return (np.stack([a * cos, b * sin], axis=-1),
                np.stack([-a * sin, b * cos], axis=-1))

    return Evaluator(2, 1, point_velocity, TWO_PI)


def _circle3d_evaluator(radius, tilt):
    ct, st = math.cos(tilt), math.sin(tilt)

    def point_velocity(t):
        cos, sin = np.cos(t), np.sin(t)
        return (radius * np.stack([cos, sin * ct, sin * st], axis=-1),
                radius * np.stack([-sin, cos * ct, cos * st], axis=-1))

    return Evaluator(3, 1, point_velocity, TWO_PI)


def _torus_knot_evaluator(p, q, big_radius, tube_radius):
    def point_velocity(t):
        cos_p, sin_p = np.cos(p * t), np.sin(p * t)
        cos_q, sin_q = np.cos(q * t), np.sin(q * t)
        w = big_radius + tube_radius * cos_q
        dw = -tube_radius * q * sin_q
        return (np.stack([w * cos_p, w * sin_p, tube_radius * sin_q], axis=-1),
                np.stack([dw * cos_p - w * p * sin_p,
                          dw * sin_p + w * p * cos_p,
                          tube_radius * q * cos_q], axis=-1))

    return Evaluator(3, 1, point_velocity, TWO_PI)


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

    def point_velocity(t):
        t = np.mod(t, period)
        idx = np.clip(np.searchsorted(starts, t, side="right") - 1, 0, 7)
        point, velocity = np.zeros(t.shape + (2,)), np.zeros(t.shape + (2,))
        for i, (kind, a, b) in enumerate(pieces):
            sel = idx == i
            if not np.any(sel):
                continue
            s = t[sel] - starts[i]
            if kind == "s":
                point[sel] = a[None, :] + s[..., None] * b[None, :]
                velocity[sel] = b[None, :]
            else:
                ang = b + s / rc
                cos, sin = np.cos(ang), np.sin(ang)
                point[sel] = a[None, :] + rc * np.stack([cos, sin], axis=-1)
                velocity[sel] = np.stack([-sin, cos], axis=-1)
        return point, velocity

    return Evaluator(2, 1, point_velocity, period)


def _sphere_evaluator(radius):
    def point_jacobian(t):
        cos_lon, sin_lon = np.cos(t[..., 0]), np.sin(t[..., 0])
        cos_lat, sin_lat = np.cos(t[..., 1]), np.sin(t[..., 1])
        point = radius * np.stack([cos_lat * cos_lon, cos_lat * sin_lon,
                                   sin_lat], axis=-1)
        d_lon = radius * np.stack([-cos_lat * sin_lon, cos_lat * cos_lon,
                                   np.zeros_like(cos_lon)], axis=-1)
        d_lat = radius * np.stack([-sin_lat * cos_lon, -sin_lat * sin_lon,
                                   cos_lat], axis=-1)
        return point, np.swapaxes(np.stack([d_lon, d_lat], axis=-2), -1, -2)

    def graph_heights(origin, e_frame, n_frame, x_targets):
        # point = origin + x.e + u.n on the sphere |p| = radius; quadratic in u
        w = origin[None, :] + x_targets @ e_frame.T
        b = float(origin @ n_frame[:, 0])
        disc = b * b - (np.sum(w * w, axis=1) - radius * radius)
        if np.any(disc < 0):
            return None
        u = -b + math.copysign(1.0, b) * np.sqrt(disc)
        return u[:, None]

    ev = Evaluator(3, 2, point_jacobian, graph_heights=graph_heights)

    def tangent_frame(t):
        # complement of the radial direction; regular at the poles
        p = point_jacobian(np.asarray(t, dtype=float))[0] / radius
        eye = np.broadcast_to(np.eye(3), p.shape[:-1] + (3, 3))
        q, _ = np.linalg.qr(np.concatenate([p[..., None], eye], axis=-1))
        return q[..., 1:3]

    ev.tangent_frame = tangent_frame
    return ev


def _torus_evaluator(big_radius, tube_radius):
    def point_jacobian(t):
        cos_u, sin_u = np.cos(t[..., 0]), np.sin(t[..., 0])
        cos_v, sin_v = np.cos(t[..., 1]), np.sin(t[..., 1])
        w = big_radius + tube_radius * cos_v
        jac = np.zeros(t.shape[:-1] + (2, 3))  # returned transposed
        jac[..., 0, 0], jac[..., 0, 1] = -w * sin_u, w * cos_u
        jac[..., 1, :] = tube_radius * np.stack(
            [-sin_v * cos_u, -sin_v * sin_u, cos_v], axis=-1)
        return (np.stack([w * cos_u, w * sin_u, tube_radius * sin_v], axis=-1),
                np.swapaxes(jac, -1, -2))

    return Evaluator(3, 2, point_jacobian)


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
