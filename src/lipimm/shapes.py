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
from ._util import Workspace

TWO_PI = 2.0 * math.pi


class Evaluator:
    """A closed curve (m = 1, t in [0, period)) or surface (m = 2,
    t = (u, v)) in R^n with its analytic first derivatives.

    ``point_jacobian(t)`` returns new arrays of the points and the
    Jacobians, from one evaluation of the sines and cosines they share: a curve's Jacobian is
    its (..., n) velocity, a surface's (..., n, 2) in any layout.  ``point`` and
    ``jacobian`` are its two halves.  ``graph_heights``, where given, fills
    a surface patch in closed form.

    ``bound``, where given, is an L with |D^2 f(t)[d, d]| <= L |d|^2 for
    every t and d, or with J L-Lipschitz.  By Taylor's theorem
    |f(t + d) - f(t) - J(t) d| is then at most (L/2) |d|^2, and the fills
    stop a surface Newton row or a curve root on that bound without
    evaluating at its last step.  A wrapper that scales the points by s
    scales L by s.  With ``writes_work`` the function also
    takes a ``Workspace`` as ``point_jacobian(t, work)`` and writes its
    points, Jacobians and temporaries there, so a Newton loop allocates
    nothing per step; the arrays it returns are then views of ``work``,
    overwritten by its next call.
    """

    def __init__(self, n, m, point_jacobian, period=None, graph_heights=None,
                 bound=None, writes_work=False):
        self.n = n
        self.m = m
        self.period = period
        self._point_jacobian = point_jacobian
        self._writer = point_jacobian if writes_work else None
        self.graph_heights = graph_heights
        self.bound = bound

    @property
    def writes_work(self):
        """Whether ``point_jacobian(t, work)`` writes into ``work``: the
        function the evaluator was built with is in place, and no wrapper
        is installed over this ``point_jacobian`` (a wrapper's arrays are
        its own)."""
        return (self._point_jacobian is self._writer
                and "point_jacobian" not in vars(self))

    def point_jacobian(self, t, work=None):
        t = np.asarray(t, dtype=float)
        if work is None:
            return self._point_jacobian(t)
        return self._point_jacobian(t, work)

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

    # |f''| = |radius|
    return Evaluator(2, 1, point_velocity, TWO_PI, bound=abs(radius))


def _ellipse_evaluator(a, b):
    def point_velocity(t):
        cos, sin = np.cos(t), np.sin(t)
        return (np.stack([a * cos, b * sin], axis=-1),
                np.stack([-a * sin, b * cos], axis=-1))

    # f'' = -(a cos, b sin), so |f''| <= max(|a|, |b|)
    return Evaluator(2, 1, point_velocity, TWO_PI, bound=max(abs(a), abs(b)))


def _circle3d_evaluator(radius, tilt):
    ct, st = math.cos(tilt), math.sin(tilt)

    def point_velocity(t):
        cos, sin = np.cos(t), np.sin(t)
        return (radius * np.stack([cos, sin * ct, sin * st], axis=-1),
                radius * np.stack([-sin, cos * ct, cos * st], axis=-1))

    # |f''| = |radius|, as on the plane circle it rotates
    return Evaluator(3, 1, point_velocity, TWO_PI, bound=abs(radius))


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

    # f'' = (w'' - w p^2) e + 2 w' p e' + (0, 0, -r q^2 sin qt), e = (cos pt,
    # sin pt, 0): by the triangle inequality, p^2 (R + r) + 2 |p q| r + 2 q^2 r
    big, tube = abs(big_radius), abs(tube_radius)
    return Evaluator(3, 1, point_velocity, TWO_PI, bound=p * p * (big + tube)
                     + 2 * abs(p * q) * tube + 2 * q * q * tube)


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

    # unit speed, turning at 1/rc on the arcs: f' is 1/rc-Lipschitz
    return Evaluator(2, 1, point_velocity, period, bound=1.0 / rc)


def _sphere_evaluator(radius):
    def point_jacobian(t, work=None):
        work = Workspace() if work is None else work
        point, jac, cos_lat, sin_lat, lon, product = _surface_work(t, work)
        for i, trig in enumerate((np.cos, np.sin)):
            trig(t[..., 0], out=lon)
            np.multiply(radius, np.multiply(cos_lat, lon, out=product),
                        out=point[..., i])
            np.multiply(-radius, np.multiply(sin_lat, lon, out=product),
                        out=jac[..., 1, i])  # d_lat
        np.multiply(radius, sin_lat, out=point[..., 2])
        np.negative(point[..., 1], out=jac[..., 0, 0])  # d_lon
        jac[..., 0, 1] = point[..., 0]
        jac[..., 0, 2] = radius * 0.0
        np.multiply(radius, cos_lat, out=jac[..., 1, 2])
        return point, np.swapaxes(jac, -1, -2)

    def graph_heights(origin, e_frame, n_frame, x_targets):
        # point = origin + x.e + u.n on the sphere |p| = radius; quadratic in u
        w = origin[None, :] + x_targets @ e_frame.T
        b = float(origin @ n_frame[:, 0])
        disc = b * b - (np.sum(w * w, axis=1) - radius * radius)
        if np.any(disc < 0):
            return None
        u = -b + math.copysign(1.0, b) * np.sqrt(disc)
        return u[:, None]

    # each second partial has norm at most |radius|, so |D^2 f[d, d]| is at
    # most |radius| (|a| + |b|)^2 <= 2 |radius| |d|^2
    ev = Evaluator(3, 2, point_jacobian, graph_heights=graph_heights,
                   bound=2.0 * abs(radius), writes_work=True)

    def tangent_frame(t):
        # complement of the radial direction; regular at the poles
        p = point_jacobian(np.asarray(t, dtype=float))[0] / radius
        eye = np.broadcast_to(np.eye(3), p.shape[:-1] + (3, 3))
        q, _ = np.linalg.qr(np.concatenate([p[..., None], eye], axis=-1))
        return q[..., 1:3]

    ev.tangent_frame = tangent_frame
    return ev


def _torus_evaluator(big_radius, tube_radius):
    def point_jacobian(t, work=None):
        work = Workspace() if work is None else work
        point, jac, cos_v, sin_v, u, w = _surface_work(t, work)
        np.multiply(tube_radius, cos_v, out=w)
        w += big_radius
        np.multiply(tube_radius, sin_v, out=point[..., 2])
        np.multiply(tube_radius, cos_v, out=jac[..., 1, 2])  # d_v
        for i, trig in enumerate((np.cos, np.sin)):
            trig(t[..., 0], out=u)
            np.multiply(w, u, out=point[..., i])
            np.multiply(-tube_radius, np.multiply(sin_v, u, out=u),
                        out=jac[..., 1, i])
        np.negative(point[..., 1], out=jac[..., 0, 0])  # d_u
        jac[..., 0, 1] = point[..., 0]
        jac[..., 0, 2] = 0.0
        return point, np.swapaxes(jac, -1, -2)

    # |f_uu| <= R + r, |f_uv| <= r and |f_vv| = r, so |D^2 f[d, d]| is at
    # most (R + r) a^2 + 2 r |a b| + r b^2 <= (R + 2 r) |d|^2
    return Evaluator(3, 2, point_jacobian,
                     bound=abs(big_radius) + 2.0 * abs(tube_radius),
                     writes_work=True)


def _surface_work(t, work):
    """A surface's (..., 3) points and (..., 2, 3) Jacobian rows, returned
    transposed, the cos and sin of its second parameter t[..., 1], and two
    arrays for temporaries, all in ``work``.  Each point and Jacobian entry
    is then written by one product of contiguous factors, in the order of
    the stacked expressions it replaces, so every bit is theirs."""
    shape = t.shape[:-1]
    cos_1, sin_1, *scratch = (work.take(name, shape) for name in (
        "cos 1", "sin 1", "scratch 0", "scratch 1"))
    np.cos(t[..., 1], out=cos_1)
    np.sin(t[..., 1], out=sin_1)
    return (work.take("point", shape + (3,)),
            work.take("jacobian", shape + (2, 3)), cos_1, sin_1, *scratch)


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
