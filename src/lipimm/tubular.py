"""Tubular neighborhood sizing, fiber intersections, and probe certificates.

Around a codimension-one graph patch carrying a transversal unit field T, the
fiber map F(x, t) = (x, u(x)) + t T(x) is injective for |t| < eps = cos(gamma)/L
and its image swallows a sigma-collar of the inner half patch, with
sigma = min{(rho/2) cos(gamma), cos^2(gamma) / (2 L (1+lambda))}.  The probes
below certify both properties pointwise at desk scale, plus the underlying
projected-separation inequality |(x,u(x)) - pi_perp(x,u(x))| >= |x-y| cos(gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InputError,
    NonTransversalError,
)
from ._util import bisect, halton
from .immersion import GraphPatch

BISECTION_ITERATIONS = 80  # bracket shrinks by 2^-80, far below float noise


@dataclass(frozen=True)
class TubeParams:
    epsilon: float
    sigma: float
    rho: float
    gamma: float
    L: float
    lam: float
    active_branch: str  # which term of the min defines sigma

    def to_dict(self):
        return {"epsilon": self.epsilon, "sigma": self.sigma, "rho": self.rho,
                "gamma": self.gamma, "L": self.L, "lambda": self.lam,
                "active_branch": self.active_branch}


def tube_params(rho: float, lam: float, big_l: float, gamma: float) -> TubeParams:
    """Tube sizes eps and sigma for slope lambda, field constant L, angle gamma."""
    if gamma >= math.pi / 2:
        raise InputError("tube sizing requires gamma < pi/2")
    if big_l <= 0 or rho <= 0:
        raise InputError("need L > 0 and rho > 0")
    eps = math.cos(gamma) / big_l
    first = (rho / 2.0) * math.cos(gamma)
    second = math.cos(gamma) ** 2 / (2.0 * big_l * (1.0 + lam))
    branch = "half-patch" if first <= second else "curvature"
    return TubeParams(eps, min(first, second), rho, gamma, big_l, lam, branch)


def _to_patch_coords(patch: GraphPatch, direction, anchor):
    d = patch.isometry.rotation.T @ np.asarray(direction, dtype=float)
    a = patch.isometry.pull_back(np.asarray(anchor, dtype=float))
    return d, a


def _graph_normal_dots(patch: GraphPatch, d_chart):
    """<graph normal, direction> over the grid; codimension one only."""
    du = patch._du  # (G, 1)
    normals = np.concatenate([-du, np.ones((len(du), 1))], axis=1)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return normals @ d_chart


@dataclass
class FiberHit:
    point: np.ndarray   # ambient R^n
    chart_x: float
    t: float


def fiber_intersection(patch: GraphPatch, direction, anchor) -> FiberHit | None:
    """Unique intersection of the line ``anchor + t direction`` with the patch.

    Transversality (the direction never tangent to the graph) makes the
    chart residual strictly monotone in t, so the root, if the line meets the
    graph over the chart footprint at all, is unique and found by bisection.
    """
    if patch.k != 1 or patch.m != 1:
        raise DimensionMismatchError(
            "line-fiber intersection is a codimension-one curve operation")
    d, a = _to_patch_coords(patch, direction, anchor)
    dots = _graph_normal_dots(patch, d)
    if np.min(np.abs(dots)) < 1e-12:
        raise NonTransversalError(
            "direction is tangent to the patch graph somewhere")
    hits = _fiber_batch(patch.x_nodes, patch.u[:, 0][None, :],
                        a[None, :], d[None, :], patch.radius)
    t_star, x_star, ok = hits
    if not ok[0]:
        return None
    point_chart = np.array([x_star[0],
                            np.interp(x_star[0], patch.x_nodes, patch.u[:, 0])])
    return FiberHit(patch.isometry.apply(point_chart), float(x_star[0]),
                    float(t_star[0]))


def _fiber_batch(x_nodes, u_rows, anchors, directions, radius):
    """Vectorized bisection for many (anchor, direction, graph) triples.

    u_rows: (B, G) graph values over shared x_nodes; anchors/directions: (B, 2)
    in patch coordinates.  Returns (t, x, ok) arrays.
    """
    b = len(anchors)
    ax, ay = anchors[:, 0], anchors[:, 1]
    dx, dy = directions[:, 0], directions[:, 1]

    # t-range keeping the chart coordinate inside the grid; near-vertical
    # lines (dx ~ 0) stay inside for every t as long as the anchor does
    x_lim = radius * (1.0 - 1e-12)
    vertical = np.abs(dx) < 1e-300
    safe_dx = np.where(vertical, 1.0, dx)
    t_at_minus = (-x_lim - ax) / safe_dx
    t_at_plus = (x_lim - ax) / safe_dx
    t_lo = np.where(vertical, -np.inf, np.minimum(t_at_minus, t_at_plus))
    t_hi = np.where(vertical, np.inf, np.maximum(t_at_minus, t_at_plus))
    t_cap = np.abs(ay) + np.max(np.abs(u_rows), axis=1) + x_lim + 1.0
    t_lo = np.maximum(t_lo, -t_cap)
    t_hi = np.minimum(t_hi, t_cap)
    outside = vertical & (np.abs(ax) >= x_lim)
    t_hi = np.where(outside, t_lo, t_hi)  # empty interval: no footprint

    rows = np.arange(b)

    def residual(t):
        x = ax + t * dx
        u = _interp_rows(x_nodes, u_rows, x, rows)
        return ay + t * dy - u

    r_lo = residual(t_lo)
    r_hi = residual(t_hi)
    ok = (r_lo * r_hi <= 0) & (t_hi > t_lo)
    lo, hi = bisect(residual, t_lo, t_hi, r_lo, BISECTION_ITERATIONS)
    t = 0.5 * (lo + hi)
    return t, ax + t * dx, ok


def _interp_rows(x_nodes, u_rows, x, rows):
    step = x_nodes[1] - x_nodes[0]
    pos = (x - x_nodes[0]) / step
    i0 = np.clip(np.floor(pos).astype(int), 0, len(x_nodes) - 2)
    frac = pos - i0
    return (1 - frac) * u_rows[rows, i0] + frac * u_rows[rows, i0 + 1]


class ChartField:
    """Unit direction field on a chart, interpolated from sample values."""

    def __init__(self, xs, vectors):
        order = np.argsort(xs)
        self.xs = xs[order]
        base = vectors[order]
        # align consecutive signs so interpolation never crosses zero
        for i in range(1, len(base)):
            if float(base[i] @ base[i - 1]) < 0:
                base[i] = -base[i]
        self.vectors = base

    def at(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.stack([np.interp(x, self.xs, self.vectors[:, j])
                        for j in range(self.vectors.shape[1])], axis=-1)
        return out / np.linalg.norm(out, axis=-1, keepdims=True)

    def measured_lipschitz(self):
        dx = np.diff(self.xs)
        dv = np.linalg.norm(np.diff(self.vectors, axis=0), axis=1)
        good = dx > 1e-14
        return float(np.max(dv[good] / dx[good])) if np.any(good) else 0.0


def chart_direction_field(field, j: int) -> ChartField:
    """Interpolant of a direction field's T over chart j's coordinates."""
    ids, _, t_vals = field.chart_field(j)
    xs = field.chart_coords(j, ids)[:, 0]
    return ChartField(xs, t_vals.copy())


@dataclass
class InjectivityReport:
    injective: bool
    min_separation: float
    trials: int
    epsilon: float

    def to_dict(self):
        return {"injective": bool(self.injective),
                "min_separation": self.min_separation,
                "trials": self.trials, "epsilon": self.epsilon}


def _segment_distances(p1, d1, p2, d2, eps1, eps2):
    """Min distances between fiber segments p_i + t d_i, |t| < eps_i (2-d)."""
    delta = p2 - p1
    cross = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    cd2 = delta[:, 0] * d2[:, 1] - delta[:, 1] * d2[:, 0]
    cd1 = delta[:, 0] * d1[:, 1] - delta[:, 1] * d1[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_star = np.where(np.abs(cross) > 1e-300, cd2 / cross, np.inf)
        s_star = np.where(np.abs(cross) > 1e-300, cd1 / cross, np.inf)
    crossing = (np.abs(t_star) < eps1) & (np.abs(s_star) < eps2)

    def point_to_segment(q, p, d, eps):
        along = np.clip(np.einsum("ij,ij->i", q - p, d), -eps, eps)
        return np.linalg.norm(q - p - along[:, None] * d, axis=1)

    ends = [point_to_segment(p1 + e1 * eps1 * d1, p2, d2, eps2)
            for e1 in (-1.0, 1.0)]
    ends += [point_to_segment(p2 + e2 * eps2 * d2, p1, d1, eps1)
             for e2 in (-1.0, 1.0)]
    dist = np.min(np.stack(ends), axis=0)
    return np.where(crossing, 0.0, dist), crossing


def injectivity_probe(patch: GraphPatch, t_field: ChartField, epsilon: float,
                      trials: int, *, rho: float | None = None,
                      seed: int = 42) -> InjectivityReport:
    """Probe fiber-pair separation of F(x, t) = (x, u(x)) + t T(x).

    For every sampled chart pair (x, y) the whole fiber segments |t| < epsilon
    are compared: the closed-form crossing parameters decide collisions
    exactly, and the reported minimum is the true segment separation, not a
    sampled one.
    """
    if patch.m != 1 or patch.k != 1:
        raise DimensionMismatchError("probes operate on codimension-one curve "
                                     "charts")
    rho = rho if rho is not None else patch.radius
    pts = halton(trials, 2, offset=seed)
    x = (2 * pts[:, 0] - 1) * rho
    y = (2 * pts[:, 1] - 1) * rho
    distinct = np.abs(x - y) > 1e-15
    x, y = x[distinct], y[distinct]
    rot = patch.isometry.rotation
    tx = (rot.T @ t_field.at(x).T).T
    ty = (rot.T @ t_field.at(y).T).T
    ux = np.interp(x, patch.x_nodes, patch.u[:, 0])
    uy = np.interp(y, patch.x_nodes, patch.u[:, 0])
    dist, crossing = _segment_distances(np.column_stack([x, ux]), tx,
                                        np.column_stack([y, uy]), ty,
                                        epsilon, epsilon)
    min_sep = float(np.min(dist)) if len(dist) else math.inf
    return InjectivityReport(not bool(np.any(crossing)), min_sep, trials,
                             epsilon)


@dataclass
class InclusionReport:
    all_reached: bool
    reached: int
    count: int
    max_fiber_offset: float
    epsilon: float
    sigma: float

    def to_dict(self):
        return {"all_reached": bool(self.all_reached), "reached": self.reached,
                "count": self.count, "max_fiber_offset": self.max_fiber_offset,
                "epsilon": self.epsilon, "sigma": self.sigma}


def inclusion_probe(patch: GraphPatch, t_field: ChartField, params: TubeParams,
                    count: int, *, seed: int = 42) -> InclusionReport:
    """Verify that every point sigma-close to the inner half patch is hit.

    Points z with dist(z, graph over B_{rho/2}) < sigma must satisfy
    z = F(x, t) for some chart x and |t| < epsilon; each probe point is
    resolved by bisection on the fiber-alignment residual.
    """
    if patch.m != 1 or patch.k != 1:
        raise DimensionMismatchError("probes operate on codimension-one curve "
                                     "charts")
    pts = halton(count, 3, offset=seed)
    x0 = (2 * pts[:, 0] - 1) * (params.rho / 2.0)
    radius = pts[:, 1] * params.sigma * (1 - 1e-9)
    phi = 2 * math.pi * pts[:, 2]
    u0 = np.interp(x0, patch.x_nodes, patch.u[:, 0])
    z = np.column_stack([x0, u0]) + radius[:, None] * \
        np.column_stack([np.cos(phi), np.sin(phi)])

    # solve cross(z - (x, u(x)), T(x)) = 0 for x near x0
    window = max(4.0 * params.sigma / math.cos(params.gamma),
                 4.0 * patch.grid_step)
    lo = x0 - window
    hi = x0 + window
    rot = patch.isometry.rotation

    def residual(x):
        u = np.interp(x, patch.x_nodes, patch.u[:, 0])
        t_chart = (rot.T @ t_field.at(x).T).T
        wx = z[:, 0] - x
        wy = z[:, 1] - u
        return wx * t_chart[:, 1] - wy * t_chart[:, 0]

    r_lo = residual(lo)
    r_hi = residual(hi)
    bracketed = r_lo * r_hi <= 0
    lo, hi = bisect(residual, lo, hi, r_lo, BISECTION_ITERATIONS)
    x_star = 0.5 * (lo + hi)
    u_star = np.interp(x_star, patch.x_nodes, patch.u[:, 0])
    t_chart = (rot.T @ t_field.at(x_star).T).T
    t_val = (z[:, 0] - x_star) * t_chart[:, 0] + (z[:, 1] - u_star) * t_chart[:, 1]
    recon = np.column_stack([x_star, u_star]) + t_val[:, None] * t_chart
    hit = bracketed & (np.linalg.norm(recon - z, axis=1) < 1e-10) \
        & (np.abs(t_val) < params.epsilon)
    reached = int(np.count_nonzero(hit))
    worst = float(np.max(np.abs(t_val[hit]))) if reached else math.inf
    return InclusionReport(reached == count, reached, count, worst,
                           params.epsilon, params.sigma)


@dataclass
class SeparationReport:
    min_ratio: float
    cos_gamma: float
    holds: bool
    pairs: int

    def to_dict(self):
        return {"min_ratio": self.min_ratio, "cos_gamma": self.cos_gamma,
                "holds": bool(self.holds), "pairs": self.pairs}


def separation_check(patch: GraphPatch, t_field: ChartField, gamma: float,
                     pairs: int = 20000, *, rho: float | None = None,
                     seed: int = 42) -> SeparationReport:
    """Projected-separation inequality behind the tube injectivity.

    For sampled pairs (x, y), the distance from (x, u(x)) to the line through
    (y, u(y)) along T(y) must be at least |x - y| cos(gamma) (within 1e-9).
    """
    rho = rho if rho is not None else patch.radius
    pts = halton(pairs, 2, offset=seed)
    x = (2 * pts[:, 0] - 1) * rho
    y = (2 * pts[:, 1] - 1) * rho
    ux = np.interp(x, patch.x_nodes, patch.u[:, 0])
    uy = np.interp(y, patch.x_nodes, patch.u[:, 0])
    t_chart = (patch.isometry.rotation.T @ t_field.at(y).T).T
    w = np.column_stack([x - y, ux - uy])
    along = np.einsum("ij,ij->i", w, t_chart)
    dist = np.linalg.norm(w - along[:, None] * t_chart, axis=1)
    base = np.abs(x - y)
    good = base > 1e-14
    ratios = dist[good] / base[good]
    min_ratio = float(np.min(ratios)) if np.any(good) else math.inf
    cg = math.cos(gamma)
    return SeparationReport(min_ratio, cg, min_ratio >= cg - 1e-9,
                            int(np.count_nonzero(good)))

