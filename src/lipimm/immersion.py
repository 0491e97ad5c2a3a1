"""Sampled immersions, local graph patches, and (r, lambda) verification.

An immersion is carried as parameter samples with adjacency (a cycle for
curves, a triangulation for surfaces), optionally backed by an analytic
evaluator.  The central object is the local patch: the connected component
through a base sample of the preimage of a ball under projection to a chosen
m-plane, written as a graph u: B_r -> R^k over that plane, with the measured
sup-norm of Du.  The derivative norm is the column norm
||Du|| = (sum_j |d_j u|^2)^(1/2).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InputError,
    InsufficientSamplingError,
    NotAGraphError,
)
from .grassmann import Subspace, orthonormalize, orthonormalize_all
from ._util import bisect, max_quotient, unchecked

GRID_CELLS_PER_RADIUS = {1: 64, 2: 16}  # m=1: 129 nodes; m=2: 33x33 nodes
_SOLVE_BLOCK = 256  # rows per batched curve solve
# failures that fail one sample of a check; any other error aborts the check
_SAMPLE_ERRORS = (NotAGraphError, InsufficientSamplingError, InputError)


def delta(l: int, r: float, lam: float) -> float:
    """Scale ladder delta_l = (3 (1 + lambda))^(-l) r."""
    if r <= 0 or lam < 0:
        raise InputError("need r > 0 and lambda >= 0")
    return r / (3.0 * (1.0 + lam)) ** l


@dataclass(frozen=True)
class EuclideanIsometry:
    """Rigid motion A(x) = R x + T with R in SO(n)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        _check_rotations(r[None])

    @staticmethod
    def embedding(origin_image: np.ndarray, plane: Subspace) -> "EuclideanIsometry":
        """Deterministic isometry with A(0) = origin and A(R^m x {0}) = origin + E."""
        origin = np.asarray(origin_image, dtype=float)
        return EuclideanIsometry.embeddings(origin[None], plane.frame[None])[0]

    @staticmethod
    def embeddings(origin_images: np.ndarray,
                   frames: np.ndarray) -> list["EuclideanIsometry"]:
        """``embedding`` for (S, n) origins and (S, n, m) frames at once.

        One stacked QR completes every frame; the SO(n) check runs once over
        the whole stack.
        """
        s, n, m = frames.shape
        q, _ = np.linalg.qr(np.concatenate(
            [frames, np.broadcast_to(np.eye(n), (s, n, n))], axis=2))
        rotations = np.concatenate([frames, q[:, :, m:n]], axis=2)
        flip = np.linalg.det(rotations) < 0
        rotations[flip, :, -1] = -rotations[flip, :, -1]
        _check_rotations(rotations)
        return [unchecked(EuclideanIsometry, rotation=r, translation=t)
                for r, t in zip(rotations, origin_images)]

    def apply(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(pts) @ self.rotation.T + self.translation

    def pull_back(self, pts: np.ndarray) -> np.ndarray:
        return (np.asarray(pts) - self.translation) @ self.rotation


def _check_rotations(rotations: np.ndarray):
    """Raise unless every (n, n) matrix in the stack lies in SO(n)."""
    gram = np.swapaxes(rotations, -1, -2) @ rotations
    if np.max(np.abs(gram - np.eye(rotations.shape[-1]))) > 1e-10:
        raise DimensionMismatchError("rotation is not orthogonal")
    if np.max(np.abs(np.linalg.det(rotations) - 1.0)) > 1e-8:
        raise DimensionMismatchError("rotation must have determinant +1")


class SampledImmersion:
    """A closed m-manifold immersed in R^n, given by samples plus adjacency."""

    def __init__(self, m, n, positions, *, neighbors=None, faces=None,
                 params=None, evaluator=None):
        if m not in (1, 2):
            raise InputError("intrinsic dimension must be 1 or 2")
        self.m = int(m)
        self.n = int(n)
        self.positions = np.asarray(positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != self.n:
            raise InputError("positions must be an (N, n) array")
        self.params = None if params is None else np.asarray(params, dtype=float)
        self.evaluator = evaluator
        self.faces = None if faces is None else np.asarray(faces, dtype=int)
        self._checked = {}  # cache of passed (r, lambda, rule) verifications

        if neighbors is None:
            if self.faces is None:
                raise InputError("need neighbors (m=1) or faces (m=2)")
            neighbors = _neighbors_from_faces(len(self.positions), self.faces)
        self._adj = [np.asarray(sorted(set(nb)), dtype=int) for nb in neighbors]
        self._validate()
        self.volume = self._compute_volume()
        self.sample_spacing = self._compute_spacing()

    # -- construction helpers -------------------------------------------------

    def _validate(self):
        n_samples = len(self.positions)
        min_deg = 2 if self.m == 1 else 3
        for i, nb in enumerate(self._adj):
            if len(nb) < min_deg:
                raise InputError(f"sample {i} has {len(nb)} < {min_deg} neighbors")
            if np.any(nb < 0) or np.any(nb >= n_samples):
                raise InputError(f"sample {i} has out-of-range neighbors")
        seen = np.zeros(n_samples, dtype=bool)
        queue = deque([0])
        seen[0] = True
        while queue:
            v = queue.popleft()
            for w in self._adj[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        if not np.all(seen):
            raise InputError("adjacency is not connected (one closed manifold only)")
        if self.evaluator is not None and self.params is not None:
            recon = self.evaluator.point(self.params)
            if np.max(np.linalg.norm(recon - self.positions, axis=1)) > 1e-9:
                raise InputError("samples do not lie on the evaluator")
        # curves must be plain cycles
        if self.m == 1 and any(len(nb) != 2 for nb in self._adj):
            raise InputError("m=1 adjacency must be a single cycle")
        n_samples = len(self.positions)
        self._id_cycle = self.m == 1 and all(
            set(nb) == {(i - 1) % n_samples, (i + 1) % n_samples}
            for i, nb in enumerate(self._adj))

    def _compute_volume(self):
        if self.m == 1:
            total = 0.0
            for i, nb in enumerate(self._adj):
                for j in nb:
                    if j > i:
                        total += float(np.linalg.norm(self.positions[i] - self.positions[j]))
            return total
        p = self.positions
        a = p[self.faces[:, 1]] - p[self.faces[:, 0]]
        b = p[self.faces[:, 2]] - p[self.faces[:, 0]]
        cross = np.cross(a, b)
        return float(0.5 * np.sum(np.linalg.norm(cross, axis=1)))

    def _compute_spacing(self):
        lengths = []
        for i in range(min(len(self.positions), 512)):
            for j in self._adj[i]:
                lengths.append(np.linalg.norm(self.positions[i] - self.positions[j]))
        return float(np.median(lengths))

    # -- basic queries ---------------------------------------------------------

    def __len__(self):
        return len(self.positions)

    def neighbors(self, q: int) -> np.ndarray:
        return self._adj[q]

    def tangent_plane(self, q: int) -> Subspace:
        return self.tangent_planes([q])[0]

    def tangent_planes(self, ids) -> list[Subspace]:
        """Tangent planes at many samples from one evaluator call."""
        if self.evaluator is None or self.params is None:
            raise InputError("tangent rule needs an analytic evaluator")
        ids = np.asarray(ids, dtype=int)
        outside = (ids < 0) | (ids >= len(self))
        if np.any(outside):
            raise InputError(f"sample id {ids[np.argmax(outside)]} out of range")
        frames = self.evaluator.tangent_frame(self.params[ids])
        frames = np.asarray(frames, dtype=float)
        return orthonormalize_all(frames.reshape(len(ids), self.n, self.m))

    def best_fit_plane(self, q: int, radius: float) -> Subspace:
        """Principal m-plane of the local patch members within ``radius``.

        Two passes: a Euclidean ball seeds the plane, the graph component over
        that plane refines it.  Frames are sign-canonicalized so the result is
        deterministic.
        """
        f_q = self.positions[q]
        dist = np.linalg.norm(self.positions - f_q, axis=1)
        seed_ids = np.nonzero(dist < 2.0 * radius)[0]
        if len(seed_ids) <= self.m:
            raise InsufficientSamplingError(
                f"not enough samples near {q} for a best-fit plane")
        plane = _principal_plane(self.positions[seed_ids] - f_q, self.m)
        members = q_component(self, q, plane, radius)
        if len(members) > self.m:
            plane = _principal_plane(self.positions[members] - f_q, self.m)
        return plane


def _has_curve_evaluator(f: SampledImmersion) -> bool:
    return f.m == 1 and f.evaluator is not None and f.params is not None


def _neighbors_from_faces(n_samples, faces):
    neighbors = [set() for _ in range(n_samples)]
    for a, b, c in faces:
        neighbors[a].update((b, c))
        neighbors[b].update((a, c))
        neighbors[c].update((a, b))
    return neighbors


def _principal_plane(centered: np.ndarray, m: int) -> Subspace:
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    frame = vt[:m].T.copy()
    for j in range(m):  # canonical sign: dominant entry positive
        col = frame[:, j]
        lead = np.argmax(np.abs(col))
        if col[lead] < 0:
            frame[:, j] = -col
    return orthonormalize(frame)


def q_component(f: SampledImmersion, q: int, plane: Subspace, rho: float) -> np.ndarray:
    """Connected component through q of samples whose plane projection is in B_rho.

    Depends only on the plane and f(q), not on any isometry completing it.
    """
    if q < 0 or q >= len(f):
        raise InputError(f"sample id {q} out of range")
    if plane.k != f.m or plane.n != f.n:
        raise DimensionMismatchError("plane dimension must match the immersion")
    rel = f.positions - f.positions[q]
    proj = rel @ plane.frame
    mask = np.einsum("ij,ij->i", proj, proj) < rho * rho
    if not mask[q]:
        return np.array([q], dtype=int)  # q itself always projects to 0
    if f._id_cycle:
        # the component is a contiguous id run around q on the cycle
        n = len(f)
        false_pos = np.nonzero(~mask)[0]
        if len(false_pos) == 0:
            return np.arange(n)
        # nearest ids outside the mask on either side of q, cyclically
        k = int(np.searchsorted(false_pos, q))
        right = false_pos[k] - q if k < len(false_pos) else false_pos[0] + n - q
        left = q - false_pos[k - 1] if k > 0 else q + n - false_pos[-1]
        return np.sort((q + np.arange(-left + 1, right)) % n)
    seen = np.zeros(len(f), dtype=bool)
    seen[q] = True
    queue = deque([q])
    while queue:
        v = queue.popleft()
        for w in f.neighbors(v):
            if mask[w] and not seen[w]:
                seen[w] = True
                queue.append(w)
    return np.nonzero(seen)[0]


@dataclass
class GraphPatch:
    """One local graph representation over an m-plane through f(q)."""

    base: int
    plane: Subspace
    isometry: EuclideanIsometry
    radius: float
    x_nodes: np.ndarray          # (G,) for m=1, axis array for m=2
    u: np.ndarray                # (G, k) or (G, G, k); NaN outside the disk
    lambda_measured: float
    member_samples: np.ndarray
    member_proj: np.ndarray
    member_heights: np.ndarray
    m: int
    k: int
    grid_step: float
    mask: np.ndarray | None = None  # m=2 disk mask

    def normal_frame(self) -> np.ndarray:
        return self.isometry.rotation[:, self.m:]

    def height_at(self, x) -> np.ndarray:
        """Interpolated graph value(s) at chart coordinates x."""
        x = np.asarray(x, dtype=float)
        if self.m == 1:
            xs = np.atleast_1d(x)
            out = np.stack([np.interp(xs, self.x_nodes, self.u[:, j])
                            for j in range(self.k)], axis=-1)
            return out if x.ndim else out[0]
        return _bilinear(self.x_nodes, self.u, np.atleast_2d(x))

    def du_at(self, x) -> np.ndarray:
        if self.m != 1:
            raise NotImplementedError("du_at is provided for curves only")
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.stack([np.interp(xs, self.x_nodes, self._du[:, j])
                        for j in range(self.k)], axis=-1)
        return out

    def ambient(self, x) -> np.ndarray:
        """Map chart coordinates to R^n points on the graph."""
        x = np.atleast_2d(np.asarray(x, dtype=float).reshape(-1, self.m))
        u = self.height_at(x if self.m == 2 else x[:, 0])
        u = np.atleast_2d(u).reshape(len(x), self.k)
        return self.isometry.apply(np.hstack([x, u]))


def _bilinear(axis, grid, pts):
    step = axis[1] - axis[0]
    ij = (pts - axis[0]) / step
    i0 = np.clip(np.floor(ij).astype(int), 0, len(axis) - 2)
    frac = ij - i0
    out = np.zeros((len(pts), grid.shape[-1]))
    for di in (0, 1):
        for dj in (0, 1):
            w = (frac[:, 0] if di else 1 - frac[:, 0]) * \
                (frac[:, 1] if dj else 1 - frac[:, 1])
            out += w[:, None] * grid[i0[:, 0] + di, i0[:, 1] + dj]
    return out


def _detect_fold(proj, positions, step, base_id, member_ids):
    """Projection-injectivity heuristic at sample resolution.

    A fold (or slope blow-up) shows up as two member samples projecting within
    half a grid cell of each other while sitting more than four grid cells
    apart in R^n.  Candidate pairs are found by scanning windows in the order
    of the first chart coordinate, so the cost stays near-linear.
    """
    m_count = len(member_ids)
    if m_count < 2:
        return
    order = np.argsort(proj[:, 0], kind="stable")
    p = proj[order]
    close, far = 0.5 * step, 4.0 * step
    for off in range(1, m_count):
        gap = p[off:, 0] - p[:-off, 0]
        if np.min(gap) >= close:
            break
        cand = np.nonzero(gap < close)[0]
        dp = p[cand + off] - p[cand]
        if proj.shape[1] > 1:
            cand = cand[np.einsum("ij,ij->i", dp, dp) < close * close]
        if len(cand) == 0:
            continue
        first, second = order[cand], order[cand + off]
        da = positions[second] - positions[first]
        bad = np.einsum("ij,ij->i", da, da) > far * far
        if np.any(bad):
            i, j = first[np.argmax(bad)], second[np.argmax(bad)]
            raise NotAGraphError(
                f"projection folds near sample {base_id}: members "
                f"{member_ids[i]} and {member_ids[j]} overlap in the chart while "
                f"{np.linalg.norm(positions[j] - positions[i]):.2e} apart in R^n")


def _curve_brackets(f, q, plane, r, step, x_nodes):
    """Per-sample setup of the analytic curve fill.

    Finds the component through q, runs the fold and monotonicity checks and
    returns the members, their projections and a parameter bracket (lo, hi)
    for every chart node.  The projection is strictly monotone in the
    parameter along the component (fold detection runs first), so member
    parameters bracket every node.
    """
    members = q_component(f, q, plane, r)
    member_pos = f.positions[members]
    proj = (member_pos - f.positions[q]) @ plane.frame
    _detect_fold(proj, member_pos, step, q, members)
    # unwrap periodic parameters into a contiguous window around q
    t_q = f.params[q]
    period = f.evaluator.period
    t_members = t_q + (f.params[members] - t_q + period / 2) % period - period / 2
    order = np.argsort(t_members)
    t_sorted = t_members[order]
    p_sorted = proj[order, 0]
    dp = np.diff(p_sorted)
    if np.all(dp > 0):
        sign = 1.0
    elif np.all(dp < 0):
        sign = -1.0
    else:
        raise NotAGraphError(
            f"projection is not monotone along the component of sample {q}")
    # member parameters bracket every node; extend two sample spacings at the
    # rim, where the true graph continues just beyond the outermost member
    spacing = period / len(f)
    idx = np.searchsorted(sign * p_sorted, sign * x_nodes)
    lo = t_sorted[np.maximum(idx - 1, 0)]
    hi = t_sorted[np.minimum(idx, len(t_sorted) - 1)]
    lo = np.where(idx == 0, t_sorted[0] - 2 * spacing, lo)
    hi = np.where(idx == len(t_sorted), t_sorted[-1] + 2 * spacing, hi)
    return members, proj, lo, hi


def _solve_curve_rows(ev, f_q, e_vecs, lo, hi, x_nodes):
    """Solve (ev.point(t) - f_q[s]) . e_vecs[s] = x_nodes for every row s.

    ``lo`` and ``hi`` are (S, G) parameter brackets.  Bisection narrows every
    bracket at once and Newton polishes to machine precision.  Returns the
    (S, G) roots and an (S,) flag for rows with a bracket that straddles no
    root.
    """
    f_q = f_q[:, None, :]
    e_col = e_vecs[:, :, None]

    def residual(t):
        return np.matmul(ev.point(t) - f_q, e_col)[..., 0] - x_nodes

    r_lo = residual(lo)
    r_hi = residual(hi)
    # a bracket endpoint may already solve the node (e.g. the base sample at
    # x = 0); collapse those brackets instead of testing the sign product
    hit_hi = np.abs(r_hi) <= 1e-12
    lo = np.where(hit_hi, hi, lo)
    r_lo = np.where(hit_hi, r_hi, r_lo)
    hit_lo = np.abs(r_lo) <= 1e-12
    hi = np.where(hit_lo, lo, hi)
    r_hi = np.where(hit_lo, r_lo, r_hi)
    unresolved = np.any((r_lo * r_hi > 0) & ~hit_lo & ~hit_hi, axis=1)
    lo, hi = bisect(residual, lo, hi, r_lo, 24)
    t_star = 0.5 * (lo + hi)
    for _ in range(4):
        slope = np.matmul(ev.jacobian(t_star), e_col)[..., 0]
        step_t = residual(t_star) / np.where(np.abs(slope) < 1e-300, 1e-300, slope)
        t_star = np.clip(t_star - step_t, lo - 1e-9, hi + 1e-9)
    return t_star, unresolved


def _analytic_curve_patches(f, ids, plane_of, r, cells):
    """Graph patches of a curve with an evaluator, solved in one batched pass.

    ``plane_of(q)`` gives the plane at base sample q.  The per-sample setup
    (plane, component, fold and monotonicity checks, brackets) runs sample
    by sample; the bisection and Newton solve runs once over the (S, G)
    brackets of every sample that passed it.  Returns one (patch, error)
    pair per id, the error being what ``extract_graph_patch`` raises there.
    """
    step = r / cells
    x_nodes = np.linspace(-r, r, 2 * cells + 1)
    outcomes = [None] * len(ids)
    rows = []
    for i, q in enumerate(ids):
        try:
            plane = plane_of(q)
            rows.append((i, q, plane) + _curve_brackets(f, q, plane, r, step, x_nodes))
        except _SAMPLE_ERRORS as exc:
            outcomes[i] = (None, exc)
    if not rows:
        return outcomes
    index, base, planes, members, projs, lo, hi = zip(*rows)
    f_q = f.positions[list(base)]
    frames = np.stack([plane.frame for plane in planes])
    isometries = EuclideanIsometry.embeddings(f_q, frames)
    n_frames = np.stack([iso.rotation[:, 1:] for iso in isometries])
    e_vecs, lo, hi = frames[:, :, 0], np.stack(lo), np.stack(hi)
    t = np.empty_like(lo)
    unresolved = np.empty(len(base), dtype=bool)
    # rows are independent; blocks of rows keep the solver's arrays in cache
    for a in range(0, len(base), _SOLVE_BLOCK):
        b = slice(a, a + _SOLVE_BLOCK)
        t[b], unresolved[b] = _solve_curve_rows(f.evaluator, f_q[b], e_vecs[b],
                                                lo[b], hi[b], x_nodes)
    u = np.matmul(f.evaluator.point(t) - f_q[:, None, :], n_frames)
    off_center = np.max(np.abs(u[:, cells]), axis=1) > 1e-9
    lams, du = _lambda_on_curve_grid(u, step)
    for j, (i, q) in enumerate(zip(index, base)):
        if unresolved[j]:
            outcomes[i] = (None, InsufficientSamplingError(
                f"patch at sample {q} is not resolved out to its rim"))
        elif off_center[j]:
            outcomes[i] = (None, NotAGraphError(
                f"patch at {q} does not pass through f(q)"))
        else:
            heights = (f.positions[members[j]] - f_q[j]) @ n_frames[j]
            patch = GraphPatch(q, planes[j], isometries[j], r, x_nodes, u[j],
                               float(lams[j]), members[j], projs[j], heights,
                               1, f.n - 1, step)
            patch._du = du[j]
            outcomes[i] = (patch, None)
    return outcomes


def _fill_surface_grid(f, q, e_frame, n_frame, members, x_grid, in_disk):
    """Analytic graph values by 2-d Newton in the surface parameters."""
    ev = f.evaluator
    f_q = f.positions[q]
    if getattr(ev, "graph_heights", None) is not None:
        u = ev.graph_heights(f_q, e_frame, n_frame, x_grid[in_disk])
        if u is not None:
            out = np.full((len(x_grid), n_frame.shape[1]), np.nan)
            out[in_disk] = u
            return out
    targets = x_grid[in_disk]
    member_proj = (f.positions[members] - f_q) @ e_frame
    nearest = np.argmin(np.linalg.norm(targets[:, None, :] - member_proj[None, :, :],
                                       axis=2), axis=1)
    t = f.params[members][nearest].copy()
    for _ in range(40):
        pts = ev.point(t)
        res = (pts - f_q) @ e_frame - targets
        if np.max(np.abs(res)) < 1e-13:
            break
        jac = ev.jacobian(t)  # (T, n, 2)
        a = np.einsum("tnk,nj->tkj", jac, e_frame)  # (T, 2, 2)
        step = np.linalg.solve(a, res[..., None])[..., 0]
        t = t - step
    pts = ev.point(t)
    res = (pts - f_q) @ e_frame - targets
    if np.max(np.abs(res)) > 1e-9:
        raise NotAGraphError(
            f"grid fill did not converge on the patch at sample {q}")
    out = np.full((len(x_grid), n_frame.shape[1]), np.nan)
    out[in_disk] = (pts - f_q) @ n_frame
    return out


def _interp_curve_grid(q, proj, heights, x_nodes, step):
    order = np.argsort(proj)
    p_sorted = proj[order]
    h_sorted = heights[order]
    keep = np.concatenate([[True], np.diff(p_sorted) > 1e-14])
    p_sorted, h_sorted = p_sorted[keep], h_sorted[keep]
    if p_sorted[0] > x_nodes[0] + step or p_sorted[-1] < x_nodes[-1] - step:
        raise InsufficientSamplingError(
            f"samples cover [{p_sorted[0]:.4f}, {p_sorted[-1]:.4f}] of the "
            f"requested chart at sample {q}")
    u = np.stack([np.interp(x_nodes, p_sorted, h_sorted[:, j])
                  for j in range(h_sorted.shape[1])], axis=-1)
    return u


def _derivative_1d(u, step):
    """Node-wise derivative along axis -2 of (..., G, k) graph values:
    second-order central inside, one-sided at the rim."""
    du = np.empty_like(u)
    du[..., 1:-1, :] = (u[..., 2:, :] - u[..., :-2, :]) / (2 * step)
    du[..., 0, :] = (-3 * u[..., 0, :] + 4 * u[..., 1, :] - u[..., 2, :]) / (2 * step)
    du[..., -1, :] = (3 * u[..., -1, :] - 4 * u[..., -2, :] + u[..., -3, :]) / (2 * step)
    return du


def _lambda_on_curve_grid(u, step):
    """Slope sup_x ||Du(x)|| of (..., G, k) graph values, one per grid."""
    du = _derivative_1d(u, step)
    return np.max(np.linalg.norm(du, axis=-1), axis=-1), du


def _derivative_2d_axis(u, valid, step, axis):
    """Axis derivative on a masked grid: central inside, one-sided at the rim."""
    u = np.moveaxis(u, axis, 0)
    v = np.moveaxis(valid, axis, 0)
    g = u.shape[0]
    pad_u = np.full((2,) + u.shape[1:], np.nan)
    pad_v = np.zeros((2,) + v.shape[1:], dtype=bool)
    up = np.concatenate([pad_u, np.where(v[..., None], u, np.nan), pad_u])
    vp = np.concatenate([pad_v, v, pad_v])
    i = np.arange(2, g + 2)
    central = vp[i - 1] & vp[i + 1]
    fwd2 = vp[i + 1] & vp[i + 2]
    bwd2 = vp[i - 1] & vp[i - 2]
    fwd1 = vp[i + 1]
    bwd1 = vp[i - 1]
    with np.errstate(invalid="ignore"):
        d_central = (up[i + 1] - up[i - 1]) / (2 * step)
        d_fwd2 = (-3 * up[i] + 4 * up[i + 1] - up[i + 2]) / (2 * step)
        d_bwd2 = (3 * up[i] - 4 * up[i - 1] + up[i - 2]) / (2 * step)
        d_fwd1 = (up[i + 1] - up[i]) / step
        d_bwd1 = (up[i] - up[i - 1]) / step
    du = np.full_like(u, np.nan)
    for cond, val in [(bwd1, d_bwd1), (fwd1, d_fwd1), (bwd2, d_bwd2),
                      (fwd2, d_fwd2), (central, d_central)]:
        du = np.where((cond & v)[..., None], val, du)
    return np.moveaxis(du, 0, axis)


def _lambda_on_surface_grid(u, valid, step):
    d0 = _derivative_2d_axis(u, valid, step, axis=0)
    d1 = _derivative_2d_axis(u, valid, step, axis=1)
    norm_sq = np.sum(d0 * d0, axis=-1) + np.sum(d1 * d1, axis=-1)
    lam = float(np.sqrt(np.nanmax(np.where(valid, norm_sq, np.nan))))
    return lam, np.stack([d0, d1], axis=-1)


def extract_graph_patch(f: SampledImmersion, q: int, plane: Subspace,
                        r: float, grid_cells: int | None = None) -> GraphPatch:
    """Extract the local graph of f over ``plane`` through f(q) on B_r.

    Curves with an analytic evaluator go through the batched solver that
    ``check_r_lambda`` runs over all samples, here with a single row.
    """
    cells = grid_cells or GRID_CELLS_PER_RADIUS[f.m]
    if _has_curve_evaluator(f):
        [(patch, err)] = _analytic_curve_patches(f, [q], lambda _: plane, r, cells)
        if err is not None:
            raise err
        return patch
    step = r / cells
    e_frame = plane.frame
    isometry = EuclideanIsometry.embedding(f.positions[q], plane)
    n_frame = isometry.rotation[:, f.m:]
    members = q_component(f, q, plane, r)
    f_q = f.positions[q]
    rel = f.positions[members] - f_q
    proj = rel @ e_frame
    heights = rel @ n_frame
    _detect_fold(proj, f.positions[members], step, q, members)

    k = f.n - f.m
    if f.m == 1:
        x_nodes = np.linspace(-r, r, 2 * cells + 1)
        if len(members) < 4:
            raise InsufficientSamplingError(
                f"only {len(members)} samples in the patch at {q}")
        u = _interp_curve_grid(q, proj[:, 0], heights, x_nodes, step)
        if np.max(np.abs(u[cells])) > 1e-9:
            raise NotAGraphError(f"patch at {q} does not pass through f(q)")
        lam, du = _lambda_on_curve_grid(u, step)
        patch = GraphPatch(q, plane, isometry, r, x_nodes, u, float(lam),
                           members, proj, heights, 1, k, step)
        patch._du = du
        return patch

    axis = np.linspace(-r, r, 2 * cells + 1)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    x_grid = np.column_stack([gx.ravel(), gy.ravel()])
    in_disk = np.einsum("ij,ij->i", x_grid, x_grid) <= r * r * (1 + 1e-12)
    if f.evaluator is not None and f.params is not None:
        u_flat = _fill_surface_grid(f, q, e_frame, n_frame, members, x_grid, in_disk)
    else:
        u_flat = _interp_surface_grid(f, q, proj, heights, x_grid, in_disk, step)
    shape = (len(axis), len(axis))
    u = u_flat.reshape(shape + (k,))
    valid = in_disk.reshape(shape)
    center = (cells, cells)
    if np.max(np.abs(u[center])) > 1e-9:
        raise NotAGraphError(f"patch at {q} does not pass through f(q)")
    lam, du = _lambda_on_surface_grid(u, valid, step)
    patch = GraphPatch(q, plane, isometry, r, axis, u, lam, members, proj,
                       heights, 2, k, step, mask=valid)
    patch._du = du
    return patch


def _interp_surface_grid(f, q, proj, heights, x_grid, in_disk, step):
    from scipy.interpolate import LinearNDInterpolator

    if len(proj) < 6:
        raise InsufficientSamplingError(
            f"only {len(proj)} samples in the patch at {q}")
    interp = LinearNDInterpolator(proj, heights)
    u = np.full((len(x_grid), heights.shape[1]), np.nan)
    u[in_disk] = interp(x_grid[in_disk])
    hole = in_disk & np.any(np.isnan(u), axis=1)
    if np.any(hole):
        # the convex hull of the members clips the rim; a one-cell ring of
        # unreachable nodes is tolerated and excluded from the slope scan
        dist_to_rim = np.linalg.norm(x_grid[hole], axis=1)
        r = np.max(np.linalg.norm(x_grid[in_disk], axis=1))
        if np.any(dist_to_rim < r - 2 * step):
            raise InsufficientSamplingError(
                f"interior chart nodes unreachable at sample {q}")
        in_disk[hole] = False
    return u


def plane_for(f: SampledImmersion, q: int, rule, r: float,
              lam: float) -> Subspace:
    """Resolve a plane rule ('tangent', 'best-fit', mapping, or callable)."""
    if isinstance(rule, str):
        if rule == "tangent":
            return f.tangent_plane(q)
        if rule in ("best-fit", "best_fit"):
            return f.best_fit_plane(q, delta(1, r, lam))
        raise InputError(f"unknown plane rule {rule!r}")
    if callable(rule):
        return rule(q)
    return rule[q]


@dataclass
class CheckReport:
    passed: bool
    r: float
    lam: float
    worst_lambda: float
    worst_sample: int
    lambdas: np.ndarray
    plane_rule: str
    errors: list = field(default_factory=list)
    patches: dict = field(default_factory=dict)

    def to_dict(self):
        return {"passed": bool(self.passed), "r": self.r, "lambda": self.lam,
                "worst_lambda": self.worst_lambda,
                "worst_sample": int(self.worst_sample),
                "plane_rule": self.plane_rule,
                "errors": [str(e) for e in self.errors]}


def check_r_lambda(f: SampledImmersion, r: float, lam: float,
                   plane_rule="tangent", *, keep_patches=False,
                   sample_ids=None) -> CheckReport:
    """Verify the local-graph condition ||Du|| <= lambda at every sample.

    Curves with an analytic evaluator are solved in one batched pass over
    all sample ids: the tangent rule resolves every plane from one evaluator
    call, and one bisection and Newton solve fills every patch grid.
    Surfaces and raw point clouds extract one patch per sample.  Failures
    are collected per sample and the first in ``ids`` order is raised with
    its type and a ``sample {q}:`` prefix.
    """
    if r <= 0 or lam <= 0:
        raise InputError("need r > 0 and lambda > 0")
    ids = list(range(len(f))) if sample_ids is None else list(sample_ids)
    rule_name = plane_rule if isinstance(plane_rule, str) else "explicit"

    def plane_of(q):
        return plane_for(f, q, plane_rule, r, lam)

    if _has_curve_evaluator(f):
        if isinstance(plane_rule, str) and plane_rule == "tangent":
            plane_of = dict(zip(ids, f.tangent_planes(ids))).__getitem__
        outcomes = _analytic_curve_patches(f, ids, plane_of, r,
                                           GRID_CELLS_PER_RADIUS[1])
    else:
        outcomes = []
        for q in ids:
            try:
                outcomes.append((extract_graph_patch(f, q, plane_of(q), r), None))
            except _SAMPLE_ERRORS as exc:
                outcomes.append((None, exc))

    lambdas = np.full(len(f), np.nan)
    errors = []
    patches = {}
    for q, outcome in zip(ids, outcomes):
        patch, err = outcome
        if err is not None:
            errors.append((q, err))
            continue
        lambdas[q] = patch.lambda_measured
        if keep_patches:
            patches[q] = patch
    if errors:
        q, err = errors[0]
        raise type(err)(f"sample {q}: {err}")
    worst = int(np.nanargmax(lambdas))
    report = CheckReport(bool(np.nanmax(lambdas) <= lam), r, lam,
                         float(lambdas[worst]), worst, lambdas, rule_name,
                         [], patches)
    if report.passed and sample_ids is None:
        f._checked[(r, lam, rule_name)] = True
    return report


@dataclass
class FunctionCheckReport:
    passed: bool
    r: float
    lam: float
    worst_quotient: float
    worst_sample: int
    injective: bool
    injectivity_violations: list

    def to_dict(self):
        return {"passed": bool(self.passed), "r": self.r, "lambda": self.lam,
                "worst_quotient": self.worst_quotient,
                "worst_sample": int(self.worst_sample),
                "injective": bool(self.injective),
                "injectivity_violations": self.injectivity_violations}


def check_r_lambda_function(f: SampledImmersion, r: float, lam: float,
                            plane_rule="best-fit") -> FunctionCheckReport:
    """Lipschitz-graph check by difference quotients between member samples.

    Also enforces injectivity of f on every patch: no two member samples may
    coincide in R^n (within 1e-9) while carrying distinct ids.
    """
    worst, worst_q = 0.0, -1
    violations = []
    for q in range(len(f)):
        plane = plane_for(f, q, plane_rule, r, lam)
        members = q_component(f, q, plane, r)
        if len(members) < 2:
            continue
        rel = f.positions[members] - f.positions[q]
        proj = rel @ plane.frame
        heights = rel @ plane.complement().frame
        dx = np.linalg.norm(proj[:, None, :] - proj[None, :, :], axis=2)
        dz = np.linalg.norm(heights[:, None, :] - heights[None, :, :], axis=2)
        damb = np.linalg.norm(f.positions[members][:, None, :]
                              - f.positions[members][None, :, :], axis=2)
        upper = np.triu(np.ones_like(dx, dtype=bool), k=1)
        coincident = upper & (damb < 1e-9)
        if np.any(coincident):
            i, j = np.argwhere(coincident)[0]
            violations.append((int(members[i]), int(members[j])))
            continue
        q_max = max_quotient(dz, dx)
        # projection collisions with distinct heights mean the patch is not a graph
        not_graph = upper & (dx <= 1e-14) & (dz > 1e-12)
        if np.any(not_graph):
            q_max = math.inf
        if q_max > worst:
            worst, worst_q = q_max, q
    injective = not violations
    passed = injective and worst <= lam
    return FunctionCheckReport(passed, r, lam, worst, worst_q, injective,
                               violations)


@dataclass
class GraphSystem:
    """Patches (A_j, u_j) over a common radius and grid, one per net point."""

    isometries: list
    grids: np.ndarray       # (s, G, k) stacked graph values (m=1)
    x_nodes: np.ndarray
    radius: float

    @staticmethod
    def from_patches(patches) -> "GraphSystem":
        radius = patches[0].radius
        x_nodes = patches[0].x_nodes
        for p in patches:
            if p.radius != radius or p.u.shape != patches[0].u.shape:
                raise DimensionMismatchError(
                    "graph system patches must share radius and grid")
        grids = np.stack([p.u for p in patches])
        return GraphSystem([p.isometry for p in patches], grids, x_nodes, radius)

    def __len__(self):
        return len(self.isometries)


def graph_system_distance(g1: GraphSystem, g2: GraphSystem) -> float:
    """Sum over patches of ||R - R~||_op + |T - T~| + ||u - u~||_C0."""
    if len(g1) != len(g2) or g1.grids.shape != g2.grids.shape \
            or g1.radius != g2.radius:
        raise DimensionMismatchError("graph systems have mismatched shapes")
    total = 0.0
    for a, b, ua, ub in zip(g1.isometries, g2.isometries, g1.grids, g2.grids):
        rot = float(np.linalg.norm(a.rotation - b.rotation, 2))
        tra = float(np.linalg.norm(a.translation - b.translation))
        sup = float(np.nanmax(np.linalg.norm(ua - ub, axis=-1)))
        total += rot + tra + sup
    return total


@dataclass
class IntersectReport:
    distance_bound_holds: bool
    worst_ratio: float
    inclusion_applicable: bool
    inclusion_holds: bool
    missing: list


def patch_intersection_check(f: SampledImmersion, p: int, q: int, rho: float,
                          lam: float, plane_rule="tangent", r=None) -> IntersectReport:
    """Check |f(q) - f(x)| < (1 + lambda) rho on U_{rho,q}, and the inclusion
    U_{delta,p} subset U_{rho,q} whenever the delta-sets of p and q meet."""
    r = rho if r is None else r
    plane_q = plane_for(f, q, plane_rule, r, lam)
    members_q = q_component(f, q, plane_q, rho)
    dist = np.linalg.norm(f.positions[members_q] - f.positions[q], axis=1)
    bound = (1.0 + lam) * rho
    worst = float(np.max(dist) / bound) if len(dist) else 0.0
    distance_ok = bool(np.all(dist < bound))

    d = rho / (3.0 * (1.0 + lam))
    plane_p = plane_for(f, p, plane_rule, r, lam)
    dq = q_component(f, q, plane_q, d)
    dp = q_component(f, p, plane_p, d)
    applicable = bool(np.intersect1d(dq, dp).size)
    missing = []
    if applicable:
        missing = sorted(set(dp.tolist()) - set(members_q.tolist()))
    return IntersectReport(distance_ok, worst, applicable, not missing, missing)
