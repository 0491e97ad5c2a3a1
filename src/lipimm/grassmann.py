"""Grassmannian points, geodesics, principal angles, and sphere metrics.

Subspaces of R^n are carried as orthonormal frames (n x k column matrices).
All distances use the principal-angle metric d(E, G) = (sum theta_i^2)^(1/2),
the unique O(n)-invariant metric with that normalization.  The unit sphere
S^m carries the intrinsic (angular) metric, together with the Hausdorff
distance on finite point sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._util import unchecked
from .errors import CutLocusError, DegenerateFrameError, DimensionMismatchError

PROJECTOR_TOL = 1e-10
CUT_LOCUS_TOL = 1e-10


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional linear subspace of R^n, stored as an orthonormal frame."""

    frame: np.ndarray  # (n, k), columns orthonormal

    def __post_init__(self):
        frame = np.asarray(self.frame, dtype=float)
        if frame.ndim != 2:
            raise DegenerateFrameError("frame must be a 2-d array")
        object.__setattr__(self, "frame", frame)
        _check_orthonormal(frame)

    @property
    def n(self) -> int:
        return self.frame.shape[0]

    @property
    def k(self) -> int:
        return self.frame.shape[1]

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the subspace (basis independent)."""
        return self.frame @ self.frame.T

    def same_subspace(self, other: "Subspace") -> bool:
        """Basis-free equality: compare orthogonal projectors entrywise."""
        if self.n != other.n or self.k != other.k:
            return False
        return bool(np.max(np.abs(self.projector() - other.projector()))
                    <= PROJECTOR_TOL)

    def complement(self) -> "Subspace":
        """Deterministic orthonormal frame for the orthogonal complement."""
        cached = getattr(self, "_complement", None)
        if cached is None:
            q, _ = np.linalg.qr(np.hstack([self.frame, np.eye(self.n)]))
            cached = Subspace(q[:, self.k:self.n])
            object.__setattr__(self, "_complement", cached)
        return cached


@dataclass(frozen=True)
class PrincipalAngles:
    """Principal angles between two k-planes, ascending in [0, pi/2]."""

    angles: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.angles, dtype=float)
        object.__setattr__(self, "angles", a)

    def norm(self) -> float:
        return float(np.linalg.norm(self.angles))


@dataclass(frozen=True)
class GrassmannTangent:
    """Tangent vector at ``base``: an n x k array with base^T . delta = 0."""

    base: Subspace
    delta: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.delta, dtype=float)
        object.__setattr__(self, "delta", d)
        if d.shape != self.base.frame.shape:
            raise DimensionMismatchError("tangent shape does not match base frame")
        if np.max(np.abs(self.base.frame.T @ d)) > 1e-9:
            raise DimensionMismatchError("tangent is not orthogonal to base frame")

    def norm(self) -> float:
        return float(np.linalg.norm(self.delta))

    def scaled(self, c: float) -> "GrassmannTangent":
        return GrassmannTangent(self.base, c * self.delta)


@dataclass(frozen=True)
class SpherePointSet:
    """A finite, nonempty set of unit vectors in R^(m+1)."""

    points: np.ndarray  # (N, m+1)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[0] == 0:
            raise DimensionMismatchError("sphere point set must be nonempty")
        norms = np.linalg.norm(pts, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            raise DimensionMismatchError("sphere points must be unit vectors")
        object.__setattr__(self, "points", pts)


def _check_orthonormal(frames: np.ndarray):
    """Raise unless every (n, k) frame in the stack has orthonormal columns."""
    gram = np.swapaxes(frames, -1, -2) @ frames
    if np.max(np.abs(gram - np.eye(frames.shape[-1]))) > 1e-10:
        raise DegenerateFrameError("frame columns are not orthonormal")


def orthonormalize(raw_frame: np.ndarray) -> Subspace:
    """Orthonormalize independent columns, preserving their span."""
    raw = np.asarray(raw_frame, dtype=float)
    if raw.ndim == 1:
        raw = raw[:, None]
    return orthonormalize_all(raw[None])[0]


def orthonormalize_all(raw_frames: np.ndarray) -> list[Subspace]:
    """Orthonormalize each (n, k) matrix of an (S, n, k) stack at once.

    The rank and orthonormality checks run once over the whole stack.
    """
    raw = np.asarray(raw_frames, dtype=float)
    if raw.ndim != 3:
        raise DegenerateFrameError("frames must be an (S, n, k) stack")
    svals = np.linalg.svd(raw, compute_uv=False)
    if raw.shape[-1] > raw.shape[-2] or np.any(svals[..., -1] <= 1e-10):
        raise DegenerateFrameError(
            f"rank-deficient frame: smallest singular value "
            f"{np.min(svals[..., -1]):.3e}"
        )
    q, r = np.linalg.qr(raw)
    # fix signs so the result does not depend on LAPACK conventions
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    frames = q * signs[..., None, :]
    _check_orthonormal(frames)
    return [unchecked(Subspace, frame=frame) for frame in frames]


def _check_pair(e: Subspace, g: Subspace):
    if e.n != g.n or e.k != g.k:
        raise DimensionMismatchError(
            f"subspace mismatch: ({e.n},{e.k}) vs ({g.n},{g.k})"
        )


def principal_angles(e: Subspace, g: Subspace) -> PrincipalAngles:
    """Principal angles from the singular values of E^T G.

    Uses the sine/cosine hybrid of scipy.linalg.subspace_angles, which is
    accurate for angles near 0 as well as near pi/2.  The operands are
    ordered deterministically so the result is exactly symmetric in (E, G).
    """
    _check_pair(e, g)
    a, b = e.frame, g.frame
    if a.tobytes() == b.tobytes():
        return PrincipalAngles(np.zeros(e.k))
    if a.tobytes() > b.tobytes():
        a, b = b, a
    angles = scipy.linalg.subspace_angles(a, b)  # descending
    return PrincipalAngles(np.sort(np.clip(angles, 0.0, np.pi / 2)))


def geodesic_distance(e: Subspace, g: Subspace) -> float:
    """Principal-angle geodesic distance (sum theta_i^2)^(1/2)."""
    return principal_angles(e, g).norm()


def log_map(base: Subspace, target: Subspace) -> GrassmannTangent:
    """Inverse exponential map; valid while every principal angle < pi/2."""
    _check_pair(base, target)
    theta = principal_angles(base, target).angles
    if theta.size and theta[-1] >= np.pi / 2 - CUT_LOCUS_TOL:
        raise CutLocusError(
            f"largest principal angle {theta[-1]:.12f} at or beyond pi/2"
        )
    p, q = base.frame, target.frame
    m = q.T @ p  # nonsingular away from the cut locus
    at = q.T - m @ p.T
    bt = np.linalg.solve(m, at)
    u, s, vt = np.linalg.svd(bt.T, full_matrices=False)
    delta = (u * np.arctan(s)) @ vt
    # remove numerical leakage into the base directions
    delta = delta - p @ (p.T @ delta)
    return GrassmannTangent(base, delta)


def exp_map(base: Subspace, v: GrassmannTangent) -> Subspace:
    """Geodesic exponential map from the thin SVD of the tangent."""
    if v.base.frame.shape != base.frame.shape or not v.base.same_subspace(base):
        raise DimensionMismatchError("tangent is not based at the given subspace")
    u, s, vt = np.linalg.svd(v.delta, full_matrices=False)
    frame = (base.frame @ vt.T) * np.cos(s) @ vt + (u * np.sin(s)) @ vt
    q, r = np.linalg.qr(frame)  # re-orthonormalize against roundoff
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return Subspace(q * signs)


def sphere_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Intrinsic (angular) distance between two unit vectors.

    Evaluated through the chord, 2 arcsin(|u - v| / 2), which agrees with
    arccos <u, v> on unit vectors and is exact at both ends of [0, pi].
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < 1e-15 or nv < 1e-15:
        raise DimensionMismatchError("sphere_angle of a zero vector")
    chord = np.linalg.norm(u / nu - v / nv)
    return float(2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0)))


def sphere_angle_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All pairwise angles between rows of two unit-vector arrays.

    Chords are formed by explicit differences so that identical points are at
    distance exactly zero.  Intended for the patch-sized sets that arise here,
    not for bulk nearest-neighbor work.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    chord = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))


def hausdorff_distance(a: SpherePointSet, b: SpherePointSet) -> float:
    """Hausdorff distance of finite sphere point sets under the angular metric."""
    angles = sphere_angle_matrix(a.points, b.points)
    d_ab = float(np.max(np.min(angles, axis=1)))
    d_ba = float(np.max(np.min(angles, axis=0)))
    return max(d_ab, d_ba)


def random_subspace(n: int, k: int, rng: np.random.Generator) -> Subspace:
    """Uniform-ish random point of G_{n,k} from a Gaussian matrix."""
    return orthonormalize(rng.standard_normal((n, k)))


def random_tangent(base: Subspace, rng: np.random.Generator,
                   norm: float | None = None) -> GrassmannTangent:
    """Random tangent at ``base``, optionally rescaled to a given norm."""
    raw = rng.standard_normal(base.frame.shape)
    delta = raw - base.frame @ (base.frame.T @ raw)
    if norm is not None:
        d = np.linalg.norm(delta)
        if d < 1e-15:
            raise DegenerateFrameError("degenerate random tangent")
        delta = delta * (norm / d)
    return GrassmannTangent(base, delta)
