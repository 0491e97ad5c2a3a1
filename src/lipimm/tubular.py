"""Tubular neighborhood sizing and probe certificates.

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

    def squared_to_segment(q, p, d, eps):
        along = np.clip(np.einsum("ij,ij->i", q - p, d), -eps, eps)
        rej = q - p - along[:, None] * d
        # np.linalg.norm's sum, in component order
        return rej[:, 0] * rej[:, 0] + rej[:, 1] * rej[:, 1]

    ends = [squared_to_segment(p1 + e1 * eps1 * d1, p2, d2, eps2)
            for e1 in (-1.0, 1.0)]
    ends += [squared_to_segment(p2 + e2 * eps2 * d2, p1, d1, eps1)
             for e2 in (-1.0, 1.0)]
    # one sqrt of the least: sqrt is monotone and correctly rounded
    dist = np.sqrt(np.min(np.stack(ends), axis=0))
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
    if not trials >= 1:  # no draw would pass vacuously
        raise InputError(f"a probe needs trials >= 1, got {trials}")
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
    if not count >= 1:  # no draw would pass vacuously
        raise InputError(f"a probe needs count >= 1, got {count}")
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
    if not pairs >= 1:  # no draw would pass vacuously
        raise InputError(f"a probe needs pairs >= 1, got {pairs}")
    rho = rho if rho is not None else patch.radius
    pts = halton(pairs, 2, offset=seed)
    x = (2 * pts[:, 0] - 1) * rho
    y = (2 * pts[:, 1] - 1) * rho
    ux = np.interp(x, patch.x_nodes, patch.u[:, 0])
    uy = np.interp(y, patch.x_nodes, patch.u[:, 0])
    t_chart = (patch.isometry.rotation.T @ t_field.at(y).T).T
    w = np.column_stack([x - y, ux - uy])
    along = np.einsum("ij,ij->i", w, t_chart)
    rej = w - along[:, None] * t_chart  # normed by np.linalg.norm's sum
    base = np.abs(x - y)
    good = base > 1e-14
    ratios = np.sqrt(rej[:, 0] ** 2 + rej[:, 1] ** 2)[good] / base[good]
    min_ratio = float(np.min(ratios)) if np.any(good) else math.inf
    cg = math.cos(gamma)
    return SeparationReport(min_ratio, cg, min_ratio >= cg - 1e-9,
                            int(np.count_nonzero(good)))

