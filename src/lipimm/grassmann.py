"""Grassmannian points, geodesics, principal angles, and sphere metrics.

Subspaces of R^n are carried as orthonormal frames (n x k column matrices).
All distances use the principal-angle metric d(E, G) = (sum theta_i^2)^(1/2),
the unique O(n)-invariant metric with that normalization.  Angles (Bjorck
and Golub 1973), log and exponential maps (Edelman, Arias and Smith 1998)
and complements are computed over frame stacks; the single-pair functions
are one-row views of the stacked ones.  The unit sphere S^m carries the
intrinsic (angular) metric, together with the Hausdorff distance on finite
point sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _check_orthonormal(frames: np.ndarray):
    """Raise unless every (n, k) frame in the stack has orthonormal columns."""
    gram = np.swapaxes(frames, -1, -2) @ frames
    if np.max(np.abs(gram - np.eye(frames.shape[-1])), initial=0.0) > 1e-10:
        raise DegenerateFrameError("frame columns are not orthonormal")


def orthonormalize(raw_frame: np.ndarray) -> Subspace:
    """A one-row ``_orthonormal_frames``: the columns, orthonormalized."""
    raw = np.asarray(raw_frame, dtype=float)
    if raw.ndim == 1:
        raw = raw[:, None]
    return unchecked(Subspace, frame=_orthonormal_frames(raw[None])[0])


def _orthonormal_frames(raw_frames: np.ndarray) -> np.ndarray:
    """Orthonormalize every (n, k) matrix of an (S, n, k) stack, preserving
    its span; the rank and orthonormality checks run once over the stack."""
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
    return frames


def complement_frames(frames: np.ndarray) -> np.ndarray:
    """Orthonormal frames of the complements of an (S, n, k) stack: one
    stacked QR of [F, I], deterministic per frame, checked once."""
    s, n, k = frames.shape
    q, _ = np.linalg.qr(np.concatenate(
        [frames, np.broadcast_to(np.eye(n), (s, n, n))], axis=2))
    _check_orthonormal(q[:, :, k:])
    return q[:, :, k:]


def _pair_stacks(a, b):
    """Two frame stacks broadcast to (S, n, k), and their leading shape."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape[-2:] != b.shape[-2:] or a.ndim < 2:
        raise DimensionMismatchError(
            f"subspace mismatch: {a.shape[-2:]} vs {b.shape[-2:]}")
    a, b = np.broadcast_arrays(a, b)
    return (a.reshape((-1,) + a.shape[-2:]), b.reshape((-1,) + a.shape[-2:]),
            a.shape[:-2])


def principal_angles_all(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles (..., k), ascending in [0, pi/2], between the frames
    of two broadcastable (..., n, k) stacks.

    Bjorck-Golub hybrid: with singular values cos(theta) of A^T B and
    sin(theta) of B - A A^T B, the i-th largest cosine and the i-th smallest
    sine belong to one angle, read as arcsin of the sine where cos^2 >= 1/2
    and as arccos of the cosine elsewhere.  Each pair takes the frame that is
    smaller at the first entry where they differ as A, so the result is
    exactly symmetric, and identical frames are at exactly 0.
    """
    a, b, lead = _pair_stacks(a, b)
    s, n, k = a.shape
    flat_a, flat_b = a.reshape(s, n * k), b.reshape(s, n * k)
    differ = flat_a != flat_b
    first = (np.arange(s), np.argmax(differ, axis=1))
    swap = (flat_a[first] > flat_b[first])[:, None, None]
    a, b = np.where(swap, b, a), np.where(swap, a, b)
    m = np.swapaxes(a, 1, 2) @ b
    cosines = np.linalg.svd(m, compute_uv=False)
    sines = np.linalg.svd(b - a @ m, compute_uv=False)[:, ::-1]
    theta = np.where(cosines ** 2 >= 0.5, np.arcsin(np.clip(sines, 0.0, 1.0)),
                     np.arccos(np.clip(cosines, 0.0, 1.0)))
    theta[~np.any(differ, axis=1)] = 0.0
    return np.sort(np.clip(theta, 0.0, np.pi / 2)).reshape(lead + (k,))


def geodesic_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Geodesic distances between the frames of two broadcastable stacks."""
    return np.linalg.norm(principal_angles_all(a, b), axis=-1)


def geodesic_distance(e: Subspace, g: Subspace) -> float:
    """Principal-angle geodesic distance (sum theta_i^2)^(1/2)."""
    return float(geodesic_distances(e.frame[None], g.frame[None])[0])


def log_map_all(base: np.ndarray, targets: np.ndarray,
                angles: np.ndarray | None = None) -> np.ndarray:
    """Tangent deltas (..., n, k) of the inverse exponential maps at
    ``base`` to ``targets`` (broadcastable stacks), given or computing their
    principal angles; every angle must stay below pi/2, the cut locus."""
    p, q, lead = _pair_stacks(base, targets)
    theta = principal_angles_all(p, q) if angles is None else angles
    if theta.size and np.max(theta) >= np.pi / 2 - CUT_LOCUS_TOL:
        raise CutLocusError(
            f"largest principal angle {np.max(theta):.12f} at or beyond pi/2")
    pt, qt = np.swapaxes(p, 1, 2), np.swapaxes(q, 1, 2)
    m = qt @ p  # nonsingular away from the cut locus
    bt = np.linalg.solve(m, qt - m @ pt)
    u, s, vt = np.linalg.svd(np.swapaxes(bt, 1, 2), full_matrices=False)
    delta = (u * np.arctan(s)[:, None, :]) @ vt
    # remove numerical leakage into the base directions
    return (delta - p @ (pt @ delta)).reshape(lead + p.shape[1:])


def log_map(base: Subspace, target: Subspace) -> GrassmannTangent:
    """Inverse exponential map; valid while every principal angle < pi/2."""
    return GrassmannTangent(base, log_map_all(base.frame[None],
                                              target.frame[None])[0])


def exp_map_all(base: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Frames (S, n, k) of the geodesic exponential maps at the frames
    ``base`` of an (S, n, k) stack of tangent deltas, from their thin SVDs,
    orthonormalized against roundoff."""
    u, s, vt = np.linalg.svd(deltas, full_matrices=False)
    frames = ((base @ np.swapaxes(vt, 1, 2)) * np.cos(s)[:, None, :] @ vt
              + (u * np.sin(s)[:, None, :]) @ vt)
    return _orthonormal_frames(frames)


def exp_map(base: Subspace, v: GrassmannTangent) -> Subspace:
    """Geodesic exponential map: a one-row ``exp_map_all``."""
    if v.base.frame.shape != base.frame.shape or not v.base.same_subspace(base):
        raise DimensionMismatchError("tangent is not based at the given subspace")
    return unchecked(Subspace,
                     frame=exp_map_all(base.frame[None], v.delta[None])[0])


def sphere_angle_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All pairwise angles between rows of two unit-vector arrays.

    Angles are 2 arcsin(|u - v| / 2), through chords formed by explicit
    differences: exact at both ends of [0, pi], and identical points are at
    distance exactly zero.  Intended for the patch-sized sets that arise here,
    not for bulk nearest-neighbor work.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    chord = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))


def hausdorff_of(dist: np.ndarray) -> float:
    """Hausdorff distance of two finite sets from their distance matrix."""
    return max(float(np.max(np.min(dist, axis=1))),
               float(np.max(np.min(dist, axis=0))))


# angle entries per block of image pairs: a few 2 MB arrays at a time,
# whatever the number and widths of the pairs
HAUSDORFF_BLOCK = 1 << 18


def worst_image_hausdorff(a, a_sets, b, b_sets, *, lines: bool) -> float:
    """Worst Hausdorff distance over pairs of unit-vector images, free of the
    sign of b.  ``a_sets`` and ``b_sets`` are CSR pairs (ids, ptr) of one
    row per pair: pair i is the rows ``a[ids[ptr[i]:ptr[i + 1]]]`` of
    ``a_sets`` against those of ``b_sets`` in b, each at least one row.

    With ``lines`` every angle is the nearer of those to b and -b (images of
    lines), else a pair takes the smaller of its Hausdorff distances to b and
    to -b.  Blocks of pairs are padded into stacks of at most
    ``HAUSDORFF_BLOCK`` angle entries, both signs in one call; padding is
    +inf in the minima and left out of the maxima.  Every pair's value is
    ``hausdorff_of`` over its ``sphere_angle_matrix`` bit for bit, and the
    values fold with a left ``max`` from 0, which passes over a NaN.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    (a_ids, a_ptr), (b_ids, b_ptr) = a_sets, b_sets
    rows = max(1, HAUSDORFF_BLOCK // (2 * np.diff(a_ptr).max()
                                      * np.diff(b_ptr).max()))
    worst = 0.0
    for s in range(0, len(a_ptr) - 1, rows):
        va, ma = _padded_rows(a, a_ids, a_ptr[s:s + rows + 1])
        vb, mb = _padded_rows(b, b_ids, b_ptr[s:s + rows + 1])
        # (pair, sign, a row, b row) angles, as sphere_angle_matrix forms them
        ang = difference_norms(va[:, None, :, None, :],
                               np.stack([vb, -vb], axis=1)[:, :, None])
        ang /= 2.0
        ang = 2.0 * np.arcsin(np.clip(ang, 0.0, 1.0, out=ang), out=ang)
        np.copyto(ang, np.inf, where=~(ma[:, None, :, None] & mb[:, None, None, :]))
        if lines:
            ang = np.minimum(ang[:, :1], ang[:, 1:])
        from_a = np.where(ma[:, None], ang.min(axis=3), -np.inf).max(axis=2)
        from_b = np.where(mb[:, None], ang.min(axis=2), -np.inf).max(axis=2)
        # max(from_a, from_b), then min(plus, minus), as Python orders NaN
        h = np.where(from_b > from_a, from_b, from_a)
        h = h[:, 0] if lines else np.where(h[:, 1] < h[:, 0], h[:, 1], h[:, 0])
        for d in h.tolist():
            worst = max(worst, d)
    return worst


def difference_norms(a, b) -> np.ndarray:
    """``np.linalg.norm(a - b, axis=-1)`` over the broadcast of a and b, bit
    for bit, summed one coordinate at a time: ``add.reduce`` sums fewer than
    8 terms from the left, but calls its loop once per output, and the norm
    keeps three copies of the differences."""
    if a.shape[-1] >= 8:  # a pairwise sum
        diff = a - b
        return np.sqrt(np.add.reduce(diff * diff, axis=-1))
    total = a[..., 0] - b[..., 0]
    total *= total
    for k in range(1, a.shape[-1]):
        diff = a[..., k] - b[..., k]
        diff *= diff
        total += diff
    return np.sqrt(total, out=total)


def _padded_rows(vectors, ids, ptr):
    """The vectors of the rows of ids that the offsets ``ptr`` (a slice of a
    CSR pair's) bound, as an (S, W, n) stack padded with zeros, and its
    (S, W) mask of real rows."""
    counts = np.diff(ptr)
    valid = np.arange(counts.max()) < counts[:, None]
    stack = np.zeros(valid.shape + vectors.shape[1:])
    stack[valid] = vectors[ids[ptr[0]:ptr[-1]]]
    return stack, valid

