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
from ._util import unchecked
from .grassmann import (
    GrassmannTangent,
    Subspace,
    complement_frames,
    exp_map_all,
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


_CUT_LOCUS = "atom at or beyond the cut locus of the evaluation point"


def _beyond_cut_locus(angles) -> np.ndarray:
    """Per row of (..., A, k) principal angles: an atom is about to reach
    the cut locus of the evaluation point."""
    return np.max(np.linalg.norm(angles, axis=-1), axis=-1) \
        > math.pi / 2 - 1e-6


def _atom_sum(weights, values):
    """sum_a w[s, a] values[s, a] per row s, added in atom order, so that
    atoms of weight 0 appended to a row leave its sum unchanged."""
    w = weights.reshape(weights.shape + (1,) * (values.ndim - 2))
    total = w[:, 0] * values[:, 0]
    for a in range(1, values.shape[1]):
        total = total + w[:, a] * values[:, a]
    return total


def energy_gradient(p: Subspace, mu: DiracMixture) -> GrassmannTangent:
    """grad P(p) = -2 sum_i w_i log_p(x_i); vanishes exactly at the center."""
    angles = principal_angles_all(p.frame, mu.frames)
    if _beyond_cut_locus(angles):
        raise InadmissibleSupportError(_CUT_LOCUS)
    deltas = log_map_all(p.frame, mu.frames, angles)
    return GrassmannTangent(p, -2.0 * _atom_sum(mu.weights[None],
                                                deltas[None])[0])


@dataclass
class MeanStack:
    """Centers of mass of a stack of mixtures: the (S, n, k) mean frames
    and, per row, the iterations, final gradient norm, support radius about
    its center and energy trace that ``MeanReport`` gives for one."""

    means: np.ndarray
    iterations: np.ndarray
    gradient_norms: np.ndarray
    radii: np.ndarray
    energy_traces: list


def karcher_means(frames, weights, centers, tol: float = 1e-10, *,
                  kappa: float = KAPPA_GRASSMANN) -> MeanStack:
    """Fixed-point iteration for the centers of mass of S mixtures at once.

    Row s holds the atom frames ``frames[s]`` (A, n, k) with ``weights[s]``
    and its admissible-ball center ``centers[s]``; a row with fewer atoms is
    padded with weight-0 copies of one of its atoms, which change neither
    its radius nor its sums.  Each row runs the iteration of
    ``karcher_mean``: it stops on its own, halves its own step, and comes
    out as its one-row call does.  Each iterate's principal angles to the
    atoms are computed once, as one stack over the rows still active.  When
    rows fail, the error of the first failing row is raised, once every
    row before it has finished.
    """
    frames = np.asarray(frames, dtype=float)
    w = np.asarray(weights, dtype=float)
    rows, atoms, n, k = frames.shape
    flip = k > n - k
    if flip:  # average the complements, an isometry, and map the means back
        frames = complement_frames(frames.reshape(-1, n, k)).reshape(
            rows, atoms, n, n - k)
        p = complement_frames(np.asarray(centers, dtype=float))
    else:
        p = np.array(centers, dtype=float)  # the iterates overwrite it
    angles = principal_angles_all(p[:, None], frames)
    dist = np.linalg.norm(angles, axis=-1)
    radii = np.max(dist, axis=1)
    bound = admissible_radius(kappa)
    errors = {s: InadmissibleSupportError(
        f"support radius {radii[s]:.6f} >= admissible bound {bound:.6f}")
        for s in np.flatnonzero(radii >= bound).tolist()}
    energies = _atom_sum(w, dist ** 2)
    traces = [[e] for e in energies.tolist()]
    iterations = np.zeros(rows, dtype=int)
    grad_norms = np.zeros(rows)
    active = np.flatnonzero(radii < bound)
    for it in range(MAX_ITER + 1):
        if errors:  # rows after a failed one cannot change the outcome
            active = active[active < min(errors)]
        far = _beyond_cut_locus(angles[active])
        errors.update((s, InadmissibleSupportError(_CUT_LOCUS))
                      for s in active[far].tolist())
        active = active[~far]
        if not len(active):
            break
        v = _atom_sum(w[active], log_map_all(p[active, None], frames[active],
                                             angles[active]))
        grad_norms[active] = 2.0 * np.linalg.norm(v, axis=(1, 2))
        iterations[active] = it
        going = grad_norms[active] > tol
        active, v = active[going], v[going]
        step = np.ones(len(active))
        todo = np.arange(len(active))
        while len(todo):
            s = active[todo]
            candidates = exp_map_all(p[s], v[todo] * step[todo, None, None])
            new_angles = principal_angles_all(candidates[:, None], frames[s])
            e_new = _atom_sum(w[s], np.linalg.norm(new_angles, axis=-1) ** 2)
            # strict convexity makes the step-halving fallback rare
            ok = (e_new <= energies[s] + 1e-15) | (step[todo] < 1e-8)
            p[s[ok]], angles[s[ok]], energies[s[ok]] = \
                candidates[ok], new_angles[ok], e_new[ok]
            for row, e in zip(s[ok].tolist(), e_new[ok].tolist()):
                traces[row].append(e)
            todo = todo[~ok]
            step[todo] *= 0.5
    errors.update((s, NonConvergenceError(
        f"gradient norm {grad_norms[s]:.3e} > tol {tol:.3e} after "
        f"{MAX_ITER} iterations")) for s in active.tolist())
    if errors:
        raise errors[min(errors)]
    return MeanStack(complement_frames(p) if flip else p, iterations,
                     grad_norms, radii, traces)


def karcher_mean(mu: DiracMixture, tol: float = 1e-10, *,
                 center: Subspace | None = None,
                 kappa: float = KAPPA_GRASSMANN) -> MeanReport:
    """Fixed-point iteration for the center of mass of ``mu``: a one-row
    ``karcher_means``.

    The admissible ball is centered at ``center`` (first atom by default) and
    must contain the support within radius < pi/(4 kappa^(1/2)).  Energy is
    non-increasing along the iteration; a step-halving fallback guards the
    rare float-level increase.  k-planes with k > n - k are averaged through
    their complements (an isometry), and the mean mapped back.
    """
    c = center if center is not None else mu.atoms[0]
    stack = karcher_means(mu.frames[None], mu.weights[None], c.frame[None],
                          tol, kappa=kappa)
    return MeanReport(unchecked(Subspace, frame=stack.means[0]),
                      int(stack.iterations[0]),
                      float(stack.gradient_norms[0]), c,
                      float(stack.radii[0]), stack.energy_traces[0])


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
