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
    complement_frames,
    exp_map,
    geodesic_distance,
    geodesic_distances,
    log_map_all,
    principal_angles_all,
)

KAPPA_GRASSMANN = 2.0  # sectional curvature upper bound, max{k, n-k} >= 2
MAX_ITER = 10_000  # fixed-point iterations before NonConvergenceError


def admissible_radius(kappa: float = KAPPA_GRASSMANN) -> float:
    """Largest admissible support/ball radius, pi / (4 kappa^(1/2))."""
    return math.pi / (4.0 * math.sqrt(kappa))


@dataclass(frozen=True)
class DiracMixture:
    """Finitely supported probability measure on one Grassmannian; ``frames``
    stacks the atoms' frames, (atoms, n, k)."""

    atoms: tuple[Subspace, ...]
    weights: np.ndarray
    frames: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.atoms) == 0:
            raise DimensionMismatchError("mixture needs at least one atom")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(self.atoms),) or np.any(w <= 0):
            raise DimensionMismatchError("weights must be positive, one per atom")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise DimensionMismatchError("weights must sum to 1")
        if len({a.frame.shape for a in self.atoms}) > 1:
            raise DimensionMismatchError("atoms live in different Grassmannians")
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "frames",
                           np.stack([a.frame for a in self.atoms]))


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
    return float(mu.weights @ geodesic_distances(p.frame, mu.frames) ** 2)


def _mean_tangent(p: Subspace, frames, weights, angles) -> GrassmannTangent:
    """sum_i w_i log_p(x_i), from the atoms' principal angles at p."""
    if np.max(np.linalg.norm(angles, axis=-1)) > math.pi / 2 - 1e-6:
        raise InadmissibleSupportError(
            "atom at or beyond the cut locus of the evaluation point")
    deltas = log_map_all(p.frame, frames, angles)
    return GrassmannTangent(p, np.einsum("a,anj->nj", weights, deltas))


def energy_gradient(p: Subspace, mu: DiracMixture) -> GrassmannTangent:
    """grad P(p) = -2 sum_i w_i log_p(x_i); vanishes exactly at the center."""
    angles = principal_angles_all(p.frame, mu.frames)
    return _mean_tangent(p, mu.frames, mu.weights, angles).scaled(-2.0)


def karcher_mean(mu: DiracMixture, tol: float = 1e-10, *,
                 center: Subspace | None = None,
                 kappa: float = KAPPA_GRASSMANN) -> MeanReport:
    """Fixed-point iteration for the center of mass of ``mu``.

    The admissible ball is centered at ``center`` (first atom by default) and
    must contain the support within radius < pi/(4 kappa^(1/2)).  Energy is
    non-increasing along the iteration; a step-halving fallback guards the
    rare float-level increase.  Each iterate's principal angles to the atoms
    are computed once, as one stack, for the radius, the cut-locus check, the
    energy and the log maps.  k-planes with k > n - k are averaged through
    their complements (an isometry), and the mean mapped back.
    """
    c = center if center is not None else mu.atoms[0]
    flip = c.k > c.n - c.k
    frames = complement_frames(mu.frames) if flip else mu.frames
    w = mu.weights
    p = c.complement() if flip else c
    angles = principal_angles_all(p.frame, frames)
    dist = np.linalg.norm(angles, axis=-1)
    radius = float(np.max(dist))
    bound = admissible_radius(kappa)
    if radius >= bound:
        raise InadmissibleSupportError(
            f"support radius {radius:.6f} >= admissible bound {bound:.6f}"
        )

    trace = [float(w @ dist ** 2)]
    for it in range(MAX_ITER + 1):
        v = _mean_tangent(p, frames, w, angles)
        grad_norm = 2.0 * v.norm()
        if grad_norm <= tol:
            return MeanReport(p.complement() if flip else p, it, grad_norm, c,
                              radius, trace)
        step = 1.0
        while True:
            candidate = exp_map(p, v.scaled(step))
            new_angles = principal_angles_all(candidate.frame, frames)
            e_new = float(w @ np.linalg.norm(new_angles, axis=-1) ** 2)
            if e_new <= trace[-1] + 1e-15 or step < 1e-8:
                break
            step *= 0.5  # strict convexity makes this fallback rare
        p, angles = candidate, new_angles
        trace.append(e_new)
    raise NonConvergenceError(
        f"gradient norm {grad_norm:.3e} > tol {tol:.3e} after {MAX_ITER} iterations"
    )


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


def verify_stability(mu1: DiracMixture, mu2: DiracMixture, kappa: float,
                     rho: float, *, center: Subspace | None = None,
                     tol: float = 1e-10) -> StabilityReport:
    """Check d(q1, q2) <= C(kappa, rho) * sum d(q2, x) |w1(x) - w2(x)|.

    Both supports must fit in one admissible ball of radius rho; candidate
    centers are the given one, every atom, and the mean of the pooled atoms.
    """
    candidates = ([] if center is None else [center]) + list(mu1.atoms) \
        + list(mu2.atoms)
    if len({c.frame.shape for c in candidates}) > 1:
        raise DimensionMismatchError("subspaces live in different Grassmannians")
    atoms = np.concatenate([mu1.frames, mu2.frames])
    inside = np.all(geodesic_distances(
        np.stack([c.frame for c in candidates])[:, None], atoms) < rho, axis=1)
    if not np.any(inside):
        raise InadmissibleSupportError(
            f"no common admissible ball of radius {rho} found for both supports"
        )
    chosen = candidates[int(np.argmax(inside))]
    if rho >= admissible_radius(kappa):
        raise InadmissibleSupportError("rho exceeds the admissible bound")

    q1 = karcher_mean(mu1, tol, center=chosen, kappa=kappa).mean
    q2 = karcher_mean(mu2, tol, center=chosen, kappa=kappa).mean
    lhs = geodesic_distance(q1, q2)

    # total variation of mu1 - mu2 over the union of atoms
    union = list(mu1.atoms)
    w1 = list(mu1.weights)
    w2 = [0.0] * len(union)
    for a, w in zip(mu2.atoms, mu2.weights):
        i = next((i for i, b in enumerate(union) if a.same_subspace(b)), -1)
        if i < 0:
            union.append(a)
            w1.append(0.0)
            w2.append(0.0)
        w2[i] += float(w)
    c_const = stability_constant(kappa, rho)
    rhs = c_const * float(
        geodesic_distances(q2.frame, np.stack([a.frame for a in union]))
        @ np.abs(np.subtract(w1, w2)))
    return StabilityReport(lhs, rhs, c_const, lhs <= rhs + 1e-9, chosen)
