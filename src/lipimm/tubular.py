"""Tubular neighborhood sizing and probe certificates.

Around a codimension-one graph patch carrying a transversal unit field T, the
fiber map F(x, t) = (x, u(x)) + t T(x) is injective for |t| < eps = cos(gamma)/L
and its image swallows a sigma-collar of the inner half patch, with
sigma = min{(rho/2) cos(gamma), cos^2(gamma) / (2 L (1+lambda))}.  The probes
below certify both properties pointwise at desk scale, plus the underlying
projected-separation inequality |(x,u(x)) - pi_perp(x,u(x))| >= |x-y| cos(gamma).
Inclusion solves each fiber in closed form, on a cell of u and T.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InputError,
)
from ._util import halton
from .immersion import GraphPatch


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
    if not (0 < rho < math.inf and 0 < big_l < math.inf and math.isfinite(lam)
            and -math.inf < gamma < math.pi / 2):  # NaN fails too
        raise InputError("tube sizing needs finite rho > 0, L > 0, lambda and "
                         "gamma < pi/2")
    eps = math.cos(gamma) / big_l
    first = (rho / 2.0) * math.cos(gamma)
    second = math.cos(gamma) ** 2 / (2.0 * big_l * (1.0 + lam))
    branch = "half-patch" if first <= second else "curvature"
    return TubeParams(eps, min(first, second), rho, gamma, big_l, lam, branch)


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
        comps = [np.interp(x, self.xs, v) for v in self.vectors.T]
        # np.linalg.norm's sum over two components, without its slow reduce
        norm = np.sqrt(sum(c * c for c in comps))
        return np.stack(comps, axis=-1) / norm[:, None]


def chart_direction_field(field, j: int) -> ChartField:
    """Interpolant of a direction field's T over chart j's coordinates."""
    ids, _, t_vals = field.chart_field(j)
    xs = field.net.chart_coords(j, ids)[:, 0]
    return ChartField(xs, t_vals.copy())


@dataclass
class InjectivityReport:
    injective: bool
    min_separation: float
    trials: int
    epsilon: float
    to_dict = asdict


def _segment_distances(p1, d1, p2, d2, eps1, eps2):
    """Min distances between fiber segments p_i + t d_i, |t| < eps_i (2-d);
    each point and direction is an (x, y) pair of 1-D component arrays."""
    (x1, y1), (dx1, dy1), (x2, y2), (dx2, dy2) = p1, d1, p2, d2
    cross = dx1 * dy2 - dy1 * dx2
    cd2 = (x2 - x1) * dy2 - (y2 - y1) * dx2
    cd1 = (x2 - x1) * dy1 - (y2 - y1) * dx1
    with np.errstate(divide="ignore", invalid="ignore"):
        t_star = np.where(np.abs(cross) > 1e-300, cd2 / cross, np.inf)
        s_star = np.where(np.abs(cross) > 1e-300, cd1 / cross, np.inf)
    crossing = (np.abs(t_star) < eps1) & (np.abs(s_star) < eps2)
    least = None
    for (q, dq, eq), (p, d, ep) in (((p1, d1, eps1), (p2, d2, eps2)),
                                    ((p2, d2, eps2), (p1, d1, eps1))):
        for e in (-1.0, 1.0):  # the squared distance of an end q to p + t d
            wx, wy = (dq[i] * (e * eq) + q[i] - p[i] for i in (0, 1))
            along = np.clip(wx * d[0] + wy * d[1], -ep, ep)
            # np.linalg.norm's sum, in component order
            sq = np.square(wx - along * d[0]) + np.square(wy - along * d[1])
            least = sq if least is None else np.minimum(least, sq, out=least)
    # one sqrt of the least: sqrt is monotone and correctly rounded
    dist = np.sqrt(least, out=least)
    return np.where(crossing, 0.0, dist), crossing


def _probe_radius(patch, rho, draws, what):
    """rho, by default the chart radius, after every probe's checks: a curve
    chart, a draw, 0 < rho <= the chart radius (past the chart np.interp
    holds u constant, and a probe there would test another graph)."""
    if patch.m != 1 or patch.k != 1:
        raise DimensionMismatchError("probes operate on codimension-one curve "
                                     "charts")
    if not draws >= 1:  # no draw would pass vacuously
        raise InputError(f"a probe needs {what} >= 1, got {draws}")
    rho = patch.radius if rho is None else rho
    if not 0 < rho <= patch.radius:  # NaN too
        raise InputError(f"a probe needs 0 < rho <= {patch.radius}, got {rho}")
    return rho


def injectivity_probe(patch: GraphPatch, t_field: ChartField, epsilon: float,
                      trials: int, *, rho: float | None = None,
                      seed: int = 42) -> InjectivityReport:
    """Probe fiber-pair separation of F(x, t) = (x, u(x)) + t T(x).

    For every sampled chart pair (x, y) the whole fiber segments |t| < epsilon
    are compared: the closed-form crossing parameters decide collisions
    exactly, and the reported minimum is the true segment separation, not a
    sampled one.
    """
    rho = _probe_radius(patch, rho, trials, "trials")
    x, y = (2 * halton(trials, 2, offset=seed).T - 1) * rho
    distinct = np.abs(x - y) > 1e-15
    x, y = x[distinct], y[distinct]
    tx, ty = (patch.isometry.rotation.T @ t_field.at(v).T for v in (x, y))
    ux, uy = (np.interp(v, patch.x_nodes, patch.u[:, 0]) for v in (x, y))
    dist, crossing = _segment_distances((x, ux), tx, (y, uy), ty, epsilon,
                                        epsilon)
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
    to_dict = asdict


def _raw_residual(patch: GraphPatch, t_field: ChartField, z, x):
    """Rows x, r, u(x), V(x): r = (z - (x, u(x))) x V(x) is the fiber
    alignment residual with the chart field V before it is normalized, which
    scales r by |V| > 0 and so keeps its sign."""
    u = np.interp(x, patch.x_nodes, patch.u[:, 0])
    rot = patch.isometry.rotation
    ax, ay = (np.interp(x, t_field.xs, v) for v in t_field.vectors.T)
    vx = rot[0, 0] * ax + rot[1, 0] * ay
    vy = rot[0, 1] * ax + rot[1, 1] * ay
    return np.array([x, (z[:, 0] - x) * vy - (z[:, 1] - u) * vx, u, vx, vy])


def _fiber_feet(patch: GraphPatch, t_field: ChartField, z, lo, hi):
    """Chart points x in [lo, hi] whose fiber passes through z, one per row,
    and whether the residual changes sign over [lo, hi].

    A bracket is split at its middle breakpoint of u or T, keeping the sign
    change, until none is inside.  u and V are linear on that cell, so the
    residual is c0 + c1 s + c2 s^2 in s = (x - lo) / (hi - lo): the stable
    formula's root in [0, 1], then one Newton step, where z - (x, u) is
    short and the residual keeps the bits that c0, a cell away, loses."""
    breaks = np.union1d(patch.x_nodes, t_field.xs)
    ends = _raw_residual(patch, t_field, z, np.stack([lo, hi]))
    bracketed = ends[1, 0] * ends[1, 1] <= 0
    bounds = np.stack([np.searchsorted(breaks, lo, side="right"),
                       np.searchsorted(breaks, hi, side="left")])
    while (inner := bounds[0] < bounds[1]).any():
        mid = (bounds[0] + bounds[1]) // 2
        new = _raw_residual(patch, t_field, z, breaks.take(mid, mode="clip"))
        up = (new[1] > 0) == (ends[1, 0] > 0)  # the root lies above
        for side, keep, bound in ((0, inner & up, mid + 1),
                                  (1, inner & ~up, mid)):
            np.copyto(ends[:, side], new, where=keep)
            np.copyto(bounds[side], bound, where=keep)
    lo, c0, u, vx, vy = ends[:, 0]
    dx, _, du, dvx, dvy = ends[:, 1] - ends[:, 0]  # the changes over the cell
    wx, wy = z[:, 0] - lo, z[:, 1] - u  # w = z - (x, u) at lo
    c1 = (wx * dvy - wy * dvx) + (du * vx - dx * vy)
    c2 = du * dvx - dx * dvy
    q = -0.5 * (c1 + np.copysign(np.sqrt(np.maximum(
        c1 * c1 - 4.0 * c2 * c0, 0.0)), c1))
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = np.array([c0 / q, q / c2])  # take the nearer the cell
        s = np.choose(np.argmin(np.fmin(np.abs(roots - 0.5), np.inf), 0), roots)
        s = np.clip(np.nan_to_num(s, nan=0.5), 0.0, 1.0)
        x = lo + s * dx
        step = _raw_residual(patch, t_field, z, x)[1] * dx / (c1 + 2 * c2 * s)
    x -= np.nan_to_num(step, posinf=0.0, neginf=0.0)
    return np.clip(x, lo, ends[0, 1]), bracketed


def inclusion_probe(patch: GraphPatch, t_field: ChartField, params: TubeParams,
                    count: int, *, seed: int = 42) -> InclusionReport:
    """Verify that every point sigma-close to the inner half patch is hit.

    Points z with dist(z, graph over B_{rho/2}) < sigma must satisfy
    z = F(x, t) for some chart x and |t| < epsilon; each probe point's
    fiber foot x is solved in closed form by ``_fiber_feet``.
    """
    _probe_radius(patch, params.rho, count, "count")
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
    x_star, bracketed = _fiber_feet(patch, t_field, z, x0 - window,
                                    x0 + window)
    u_star = np.interp(x_star, patch.x_nodes, patch.u[:, 0])
    t_chart = (patch.isometry.rotation.T @ t_field.at(x_star).T).T
    t_val = (z[:, 0] - x_star) * t_chart[:, 0] + (z[:, 1] - u_star) * t_chart[:, 1]
    gap = np.column_stack([x_star, u_star]) + t_val[:, None] * t_chart - z
    hit = bracketed & (np.sqrt(gap[:, 0] ** 2 + gap[:, 1] ** 2) < 1e-10) \
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
    to_dict = asdict


def separation_check(patch: GraphPatch, t_field: ChartField, gamma: float,
                     pairs: int = 20000, *, rho: float | None = None,
                     seed: int = 42) -> SeparationReport:
    """Projected-separation inequality behind the tube injectivity.

    For sampled pairs (x, y), the distance from (x, u(x)) to the line through
    (y, u(y)) along T(y) must be at least |x - y| cos(gamma) (within 1e-9).
    """
    rho = _probe_radius(patch, rho, pairs, "pairs")
    x, y = (2 * halton(pairs, 2, offset=seed).T - 1) * rho
    ux, uy = (np.interp(v, patch.x_nodes, patch.u[:, 0]) for v in (x, y))
    wx, wy = x - y, ux - uy
    tx, ty = patch.isometry.rotation.T @ t_field.at(y).T
    along = wx * tx + wy * ty
    # the rejection normed by np.linalg.norm's sum
    dist = np.sqrt(np.square(wx - along * tx) + np.square(wy - along * ty))
    good = np.abs(wx) > 1e-14
    ratios = dist[good] / np.abs(wx[good])
    compared = int(np.count_nonzero(good))
    min_ratio = float(np.min(ratios)) if compared else math.inf
    cg = math.cos(gamma)
    # no compared pair is no evidence
    return SeparationReport(min_ratio, cg, compared > 0 and
                            min_ratio >= cg - 1e-9, compared)

