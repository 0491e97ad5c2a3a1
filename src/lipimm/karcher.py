"""Riemannian center of mass on a Grassmannian for finite Dirac mixtures.

The center of a mixture supported in a ball B_rho(c) with rho < pi/(4 kappa^(1/2))
(kappa an upper curvature bound, = 2 on Grassmannians with max{k, n-k} >= 2)
is the unique minimizer of P(p) = sum_i w_i d(p, x_i)^2 on that ball.  It is
computed by the Riemannian fixed-point iteration p <- exp_p(sum w_i log_p x_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InadmissibleSupportError,
    NonConvergenceError,
)
from .grassmann import (
    GrassmannTangent,
    Subspace,
    exp_map,
    geodesic_distance,
    log_map,
)

KAPPA_GRASSMANN = 2.0  # sectional curvature upper bound, max{k, n-k} >= 2
MAX_ITER = 10_000  # fixed-point iterations before NonConvergenceError


def admissible_radius(kappa: float = KAPPA_GRASSMANN) -> float:
    """Largest admissible support/ball radius, pi / (4 kappa^(1/2))."""
    return math.pi / (4.0 * math.sqrt(kappa))


@dataclass(frozen=True)
class DiracMixture:
    """Finitely supported probability measure on one Grassmannian."""

    atoms: tuple[Subspace, ...]
    weights: np.ndarray

    def __post_init__(self):
        if len(self.atoms) == 0:
            raise DimensionMismatchError("mixture needs at least one atom")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(self.atoms),) or np.any(w <= 0):
            raise DimensionMismatchError("weights must be positive, one per atom")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise DimensionMismatchError("weights must sum to 1")
        shape = self.atoms[0].frame.shape
        for a in self.atoms:
            if a.frame.shape != shape:
                raise DimensionMismatchError("atoms live in different Grassmannians")
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "weights", w)


@dataclass
class MeanReport:
    mean: Subspace
    iterations: int
    final_gradient_norm: float
    admissible_ball_center: Subspace
    admissible_ball_radius: float
    energy_trace: list[float] = field(default_factory=list)


def energy(p: Subspace, mu: DiracMixture) -> float:
    """P(p) = sum_i w_i d(p, x_i)^2."""
    return float(sum(w * geodesic_distance(p, a) ** 2
                     for a, w in zip(mu.atoms, mu.weights)))


def _mean_tangent(p: Subspace, mu: DiracMixture) -> GrassmannTangent:
    delta = np.zeros_like(p.frame)
    for a, w in zip(mu.atoms, mu.weights):
        if geodesic_distance(p, a) > math.pi / 2 - 1e-6:
            raise InadmissibleSupportError(
                "atom at or beyond the cut locus of the evaluation point"
            )
        delta += w * log_map(p, a).delta
    return GrassmannTangent(p, delta)


def energy_gradient(p: Subspace, mu: DiracMixture) -> GrassmannTangent:
    """grad P(p) = -2 sum_i w_i log_p(x_i); vanishes exactly at the center."""
    return _mean_tangent(p, mu).scaled(-2.0)


def karcher_mean(mu: DiracMixture, tol: float = 1e-10, *,
                 center: Subspace | None = None,
                 kappa: float = KAPPA_GRASSMANN) -> MeanReport:
    """Fixed-point iteration for the center of mass of ``mu``.

    The admissible ball is centered at ``center`` (first atom by default) and
    must contain the support within radius < pi/(4 kappa^(1/2)).  Energy is
    non-increasing along the iteration; a step-halving fallback guards the
    rare float-level increase.  Mixtures of lines (or of hyperplanes, via
    their normal lines) run through a closed-form vector iteration that is
    algebraically the same scheme.
    """
    c = center if center is not None else mu.atoms[0]
    n, k = c.n, c.k
    if k == 1 or k == n - 1:
        return _karcher_mean_lines(mu, tol, c, kappa)
    return _karcher_mean_general(mu, tol, c, kappa)


def _karcher_mean_general(mu, tol, c, kappa):
    radius = max(geodesic_distance(c, a) for a in mu.atoms)
    bound = admissible_radius(kappa)
    if radius >= bound:
        raise InadmissibleSupportError(
            f"support radius {radius:.6f} >= admissible bound {bound:.6f}"
        )

    p = c
    trace = [energy(p, mu)]
    for it in range(MAX_ITER):
        v = _mean_tangent(p, mu)
        grad_norm = 2.0 * v.norm()
        if grad_norm <= tol:
            return MeanReport(p, it, grad_norm, c, radius, trace)
        step = 1.0
        while True:
            candidate = exp_map(p, v.scaled(step))
            e_new = energy(candidate, mu)
            if e_new <= trace[-1] + 1e-15 or step < 1e-8:
                break
            step *= 0.5  # strict convexity makes this fallback rare
        p = candidate
        trace.append(e_new)
    v = _mean_tangent(p, mu)
    grad_norm = 2.0 * v.norm()
    if grad_norm <= tol:
        return MeanReport(p, MAX_ITER, grad_norm, c, radius, trace)
    raise NonConvergenceError(
        f"gradient norm {grad_norm:.3e} > tol {tol:.3e} after {MAX_ITER} iterations"
    )


def _karcher_mean_lines(mu, tol, c, kappa):
    """Vectorized fixed-point iteration on lines through the origin.

    Hyperplane mixtures are mapped through the orthogonal complement, an
    isometry of Grassmannians, and mapped back at the end.
    """
    n, k = c.n, c.k
    flip = k == n - 1 and n > 2
    if flip:
        atoms = [a.complement() for a in mu.atoms]
        center_vec = c.complement().frame[:, 0]
    else:
        atoms = list(mu.atoms)
        center_vec = c.frame[:, 0]
    x = np.stack([a.frame[:, 0] for a in atoms])  # (A, n)
    w = mu.weights

    def tangent_at(u):
        dots = x @ u
        signs = np.where(dots >= 0, 1.0, -1.0)
        cosines = np.clip(np.abs(dots), 0.0, 1.0)
        theta = np.arccos(cosines)
        sin_t = np.sqrt(np.maximum(1.0 - cosines * cosines, 0.0))
        factor = np.where(theta < 1e-12, 1.0, theta / np.where(sin_t == 0, 1.0, sin_t))
        contrib = (w * factor)[:, None] * (signs[:, None] * x - cosines[:, None] * u)
        return contrib.sum(axis=0), theta

    _, theta0 = tangent_at(center_vec)
    radius = float(np.max(theta0))
    bound = admissible_radius(kappa)
    if radius >= bound:
        raise InadmissibleSupportError(
            f"support radius {radius:.6f} >= admissible bound {bound:.6f}"
        )

    u = center_vec
    trace = [float(w @ theta0 ** 2)]
    it = 0
    while it < MAX_ITER:
        v, theta = tangent_at(u)
        grad_norm = 2.0 * float(np.linalg.norm(v))
        if grad_norm <= tol:
            break
        step = 1.0
        while True:
            nv = np.linalg.norm(v) * step
            direction = v / np.linalg.norm(v)
            candidate = math.cos(nv) * u + math.sin(nv) * direction
            candidate /= np.linalg.norm(candidate)
            _, theta_new = tangent_at(candidate)
            e_new = float(w @ theta_new ** 2)
            if e_new <= trace[-1] + 1e-15 or step < 1e-8:
                break
            step *= 0.5
        u = candidate
        trace.append(e_new)
        it += 1
    else:
        raise NonConvergenceError(
            f"line mean did not reach tol {tol:.3e} in {MAX_ITER} iterations")
    mean_line = Subspace(u[:, None])
    mean = mean_line.complement() if flip else mean_line
    return MeanReport(mean, it, grad_norm, c, radius, trace)


def stability_constant(kappa: float, rho: float) -> float:
    """C(kappa, rho) = 1 + (kappa^(1/2) rho)^(-1) tan(2 kappa^(1/2) rho)."""
    if kappa <= 0:
        raise InadmissibleSupportError("kappa must be positive")
    if not 0 < rho < admissible_radius(kappa):
        raise InadmissibleSupportError(
            f"rho must lie in (0, {admissible_radius(kappa):.6f}); got {rho}"
        )
    x = math.sqrt(kappa) * rho
    return 1.0 + math.tan(2.0 * x) / x


@dataclass
class StabilityReport:
    lhs: float
    rhs: float
    constant: float
    holds: bool
    center: Subspace


def _match_atom(atom: Subspace, atoms: list[Subspace]) -> int:
    for i, a in enumerate(atoms):
        if atom.same_subspace(a):
            return i
    return -1


def verify_stability(mu1: DiracMixture, mu2: DiracMixture, kappa: float,
                     rho: float, *, center: Subspace | None = None,
                     tol: float = 1e-10) -> StabilityReport:
    """Check d(q1, q2) <= C(kappa, rho) * sum d(q2, x) |w1(x) - w2(x)|.

    Both supports must fit in one admissible ball of radius rho; candidate
    centers are the given one, every atom, and the mean of the pooled atoms.
    """
    candidates = [] if center is None else [center]
    candidates += list(mu1.atoms) + list(mu2.atoms)
    chosen = None
    for c in candidates:
        if all(geodesic_distance(c, a) < rho for a in mu1.atoms) and \
           all(geodesic_distance(c, a) < rho for a in mu2.atoms):
            chosen = c
            break
    if chosen is None:
        raise InadmissibleSupportError(
            f"no common admissible ball of radius {rho} found for both supports"
        )
    if rho >= admissible_radius(kappa):
        raise InadmissibleSupportError("rho exceeds the admissible bound")

    q1 = karcher_mean(mu1, tol, center=chosen, kappa=kappa).mean
    q2 = karcher_mean(mu2, tol, center=chosen, kappa=kappa).mean
    lhs = geodesic_distance(q1, q2)

    # total variation of mu1 - mu2 over the union of atoms
    union: list[Subspace] = []
    w1: list[float] = []
    w2: list[float] = []
    for a, w in zip(mu1.atoms, mu1.weights):
        union.append(a)
        w1.append(float(w))
        w2.append(0.0)
    for a, w in zip(mu2.atoms, mu2.weights):
        i = _match_atom(a, union)
        if i >= 0:
            w2[i] += float(w)
        else:
            union.append(a)
            w1.append(0.0)
            w2.append(float(w))
    c_const = stability_constant(kappa, rho)
    rhs = c_const * float(sum(geodesic_distance(q2, a) * abs(u - v)
                              for a, u, v in zip(union, w1, w2)))
    return StabilityReport(lhs, rhs, c_const, lhs <= rhs + 1e-9, chosen)
