"""Sampled immersions, local graph patches, and (r, lambda) verification.

An immersion is carried as parameter samples with adjacency (a cycle for
curves, a triangulation for surfaces), optionally backed by an analytic
evaluator.  The central object is the local patch: the connected component
through a base sample of the preimage of a ball under projection to a chosen
m-plane, written as a graph u: B_r -> R^k over that plane, with the measured
sup-norm of Du.  The derivative norm is the column norm
||Du|| = (sum_j |d_j u|^2)^(1/2).  Each immersion keeps one patch store:
a patch is built once per (r, lambda, plane rule) and sample, by the check
or by the first net, field or correspondence that asks for it.
"""

from __future__ import annotations

import math
from itertools import chain
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InputError,
    InsufficientSamplingError,
    NotAGraphError,
)
from .grassmann import (
    Subspace,
    complement_frames,
    orthonormalize,
    orthonormalize_all,
)
from ._util import bisect, max_quotient, unchecked

GRID_CELLS_PER_RADIUS = {1: 64, 2: 16}  # m=1: 129 nodes; m=2: 33x33 nodes
PLANE_RULES = ("tangent", "best-fit")
# rows per block of a batched patch solve, by m: a curve row's 129 nodes are
# cheap, while more surface rows than this only raise the peak memory
_SOLVE_ROWS = {1: 256, 2: 15}
# failures that fail one sample of a check; any other error aborts the check
_SAMPLE_ERRORS = (NotAGraphError, InsufficientSamplingError, InputError)
COINCIDENCE_TOL = 1e-9  # distinct points closer than this in R^n coincide


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
    def embeddings(origin_images: np.ndarray,
                   frames: np.ndarray) -> list["EuclideanIsometry"]:
        """Deterministic isometries with A(0) = origin and
        A(R^m x {0}) = origin + E, for (S, n) origins and (S, n, m) frames.

        One stacked QR completes every frame; the SO(n) check runs once over
        the whole stack.
        """
        rotations = np.concatenate([frames, complement_frames(frames)], axis=2)
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
        self._patch_store = {}  # (r, lambda, rule) -> {id: (patch, error)}

        n_samples = len(self.positions)
        if neighbors is None:
            if self.faces is None:
                raise InputError("need neighbors (m=1) or faces (m=2)")
            if self.faces.ndim != 2 or self.faces.shape[1] != 3:
                raise InputError("faces must be an (F, 3) array")
            if np.any((self.faces < 0) | (self.faces >= n_samples)):
                raise InputError("faces name out-of-range samples")
            # every face makes its three vertices neighbors of each other
            rows = self.faces[:, [0, 0, 1, 1, 2, 2]].ravel()
            cols = self.faces[:, [1, 2, 0, 2, 0, 1]].ravel()
        else:
            counts = [len(nb) for nb in neighbors]
            if len(counts) != n_samples:
                raise InputError("need one neighbor list per sample")
            rows = np.repeat(np.arange(n_samples), counts)
            cols = np.fromiter(chain.from_iterable(neighbors), dtype=int,
                               count=len(rows))
        # CSR adjacency: the sorted, distinct neighbors of sample i are
        # _indices[_indptr[i]:_indptr[i + 1]]
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        fresh = np.ones(len(rows), dtype=bool)
        fresh[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        self._indices = cols[fresh]
        self._indptr = np.zeros(n_samples + 1, dtype=int)
        np.cumsum(np.bincount(rows[fresh], minlength=n_samples),
                  out=self._indptr[1:])
        self._validate()
        self.volume = self._compute_volume()
        self.sample_spacing = self._compute_spacing()

    # -- construction helpers -------------------------------------------------

    def _validate(self):
        n_samples = len(self.positions)
        min_deg = 2 if self.m == 1 else 3
        degree = np.diff(self._indptr)
        out_of_range = np.zeros(n_samples, dtype=bool)
        out_of_range[np.repeat(np.arange(n_samples), degree)[
            (self._indices < 0) | (self._indices >= n_samples)]] = True
        bad = (degree < min_deg) | out_of_range
        if np.any(bad):
            i = int(np.argmax(bad))
            if degree[i] < min_deg:
                raise InputError(f"sample {i} has {degree[i]} < {min_deg} neighbors")
            raise InputError(f"sample {i} has out-of-range neighbors")
        # sample i next to i +- 1 only; such a cycle needs no BFS to be
        # connected, and a BFS would take N / 2 steps around it
        self._id_cycle = False
        if self.m == 1 and np.all(degree == 2):
            i = np.arange(n_samples)
            ends = np.sort(np.stack([(i - 1) % n_samples, (i + 1) % n_samples],
                                    axis=1), axis=1)
            self._id_cycle = np.array_equal(self._indices.reshape(-1, 2), ends)
        if not self._id_cycle and len(
                _frontier_bfs(self._indptr, self._indices, 0)) < n_samples:
            raise InputError("adjacency is not connected (one closed manifold only)")
        if self.evaluator is not None and self.params is not None:
            recon = self.evaluator.point(self.params)
            if np.max(np.linalg.norm(recon - self.positions, axis=1)) > 1e-9:
                raise InputError("samples do not lie on the evaluator")
        # curves must be plain cycles
        if self.m == 1 and np.any(degree != 2):
            raise InputError("m=1 adjacency must be a single cycle")

    def _compute_volume(self):
        if self.m == 1:
            # one norm per edge, summed in id order: the volume feeds the net
            # size bound, and a stacked norm can differ in the last bit
            total = 0.0
            for i in range(len(self.positions)):
                for j in self.neighbors(i):
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
            for j in self.neighbors(i):
                lengths.append(np.linalg.norm(self.positions[i] - self.positions[j]))
        return float(np.median(lengths))

    # -- basic queries ---------------------------------------------------------

    def __len__(self):
        return len(self.positions)

    def neighbors(self, q: int) -> np.ndarray:
        return self._indices[self._indptr[q]:self._indptr[q + 1]]

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
    return q_components(f, q, plane, [rho])[0]


def q_components(f: SampledImmersion, q: int, plane: Subspace,
                 radii) -> list[np.ndarray]:
    """U_{rho,q} over ``plane`` for every rho in ``radii``, from one traversal.

    The traversal runs at the largest radius and projects only the samples
    it reaches: on an id cycle a window of ids around q, on any other
    adjacency a frontier BFS.  Every smaller radius is cut from that
    component and its stored projections, since the components are nested.
    Each result equals ``q_component`` at its radius, sorted by id.
    """
    if q < 0 or q >= len(f):
        raise InputError(f"sample id {q} out of range")
    if plane.k != f.m or plane.n != f.n:
        raise DimensionMismatchError("plane dimension must match the immersion")
    radii2 = np.array([rho * rho for rho in radii], dtype=float)
    # the traversal's ball; a NaN radius has an empty ball and a component {q}
    reach2 = np.max(radii2, initial=0.0, where=~np.isnan(radii2))
    if f._id_cycle:
        return _cycle_components(f, q, plane.frame, radii2, reach2)
    return _graph_components(f, q, plane.frame, radii2, reach2)


def _squared_projections(f, q, frame, ids):
    """|pi(f(p) - f(q))|^2 for the samples ``ids``, row for row as the
    projection of all samples would give them."""
    rel = f.positions[ids] - f.positions[q]
    if len(ids) == 1:  # a one-row product takes another BLAS path
        return _squared_projections(f, q, frame, np.repeat(ids, 2))[:1]
    proj = rel @ frame
    return np.einsum("ij,ij->i", proj, proj)


def _cycle_components(f, q, frame, radii2, reach2):
    """``q_components`` on an id cycle, where a component is a run of ids.

    A window of ids around q doubles until both its ends project outside
    the largest ball; the runs are then read from the window, every radius
    at once.  A projection is at most the arc length, so on a curved arc the
    run reaches past rho / sample spacing ids: the window starts at twice
    that.  A window that would wrap onto itself is replaced by the whole
    cycle.
    """
    n = len(f)
    half = 2 * math.sqrt(reach2) / f.sample_spacing if f.sample_spacing > 0 else n
    half = int(half) + 1 if half < n else n
    while 2 * half + 1 <= n:
        ids = (q + np.arange(-half, half + 1)) % n
        d2 = _squared_projections(f, q, frame, ids)
        if d2[0] >= reach2 and d2[-1] >= reach2:
            inside = d2 < radii2[:, None]
            # nearest ids outside each ball on either side of q
            right = q + np.argmin(inside[:, half:], axis=1)
            left = q - np.argmin(inside[:, half::-1], axis=1)
            wraps = q < half or q + half >= n
            return [np.array([q], dtype=int) if lo == hi else
                    np.sort(np.arange(lo + 1, hi) % n) if wraps else
                    np.arange(lo + 1, hi)
                    for lo, hi in zip(left.tolist(), right.tolist())]
        half *= 2
    d2 = _squared_projections(f, q, frame, np.arange(n))
    return [_cycle_run(d2 < rho2, q) for rho2 in radii2]


def _cycle_run(mask, q):
    """The run of ids around q on which ``mask`` holds, on the whole cycle."""
    if not mask[q]:
        return np.array([q], dtype=int)  # q itself always projects to 0
    n = len(mask)
    false_pos = np.nonzero(~mask)[0]
    if len(false_pos) == 0:
        return np.arange(n)
    # nearest ids outside the mask on either side of q, cyclically
    k = int(np.searchsorted(false_pos, q))
    right = false_pos[k] - q if k < len(false_pos) else false_pos[0] + n - q
    left = q - false_pos[k - 1] if k > 0 else q + n - false_pos[-1]
    return np.sort((q + np.arange(-left + 1, right)) % n)


def _graph_components(f, q, frame, radii2, reach2):
    """``q_components`` over the CSR adjacency by frontier BFS.

    The BFS at the largest radius projects each neighbor it reaches once.
    Each smaller radius, largest first, runs a BFS without projections
    inside the component of the radius before it.
    """
    d2 = np.empty(len(f))
    d2[q] = 0.0

    def project(ids):
        d2[ids] = _squared_projections(f, q, frame, ids)
        return d2[ids] < reach2

    members = _frontier_bfs(f._indptr, f._indices, q, project)
    out = [None] * len(radii2)
    for i in np.argsort(-radii2, kind="stable"):
        inside = d2[members] < radii2[i]
        if np.count_nonzero(inside) <= 1:  # q alone, or no ball at all
            members = np.array([q], dtype=int)
        elif not np.all(inside):
            allowed = np.zeros(len(f), dtype=bool)
            allowed[members[inside]] = True
            members = _frontier_bfs(f._indptr, f._indices, q,
                                    allowed.__getitem__)
        out[i] = members
    return out


def _frontier_bfs(indptr, indices, q, admit=None):
    """Sorted ids reached from q over the CSR adjacency (indptr, indices).

    Each BFS step gathers the unseen neighbors of the frontier as one sorted
    array and keeps those ``admit`` accepts (all without ``admit``); admit
    sees every sample at most once.
    """
    seen = np.zeros(len(indptr) - 1, dtype=bool)
    seen[q] = True
    frontier = np.array([q], dtype=int)
    parts = [frontier]
    while len(frontier):
        reached = np.concatenate([indices[a:b] for a, b in zip(
            indptr[frontier].tolist(), indptr[frontier + 1].tolist())])
        reached = np.unique(reached[~seen[reached]])
        seen[reached] = True
        frontier = reached if admit is None else reached[admit(reached)]
        parts.append(frontier)
    return np.sort(np.concatenate(parts))


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


def _curve_brackets(f, q, members, proj, x_nodes):
    """Parameter brackets (lo, hi) of every chart node of the curve patch at q.

    The projection must be strictly monotone in the parameter along the
    component (fold detection runs first), so member parameters bracket
    every node.
    """
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
    return lo, hi


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


def _fill_surface_rows(ev, f_q, e_frames, n_frames, t, targets):
    """Graph heights (S, T, k) of every row s over the chart nodes
    ``targets``, and an (S,) flag for rows whose fill did not converge.

    The evaluator's closed-form ``graph_heights`` fills each row it can.
    The other rows solve (ev.point(t) - f_q[s]) . e_frames[s] = targets by
    Newton from the (S, T, 2) parameters ``t``, with the 2x2 Jacobian E^T J
    inverted in closed form; a row steps until its residual is below 1e-13,
    at most 40 times, and fails if it stays above 1e-9.
    """
    closed_form = getattr(ev, "graph_heights", None)
    heights = np.empty((len(t), len(targets), n_frames.shape[-1]))
    newton = []
    for s in range(len(t)):
        h = None if closed_form is None else closed_form(
            f_q[s], e_frames[s], n_frames[s], targets)
        if h is None:
            newton.append(s)
        else:
            heights[s] = h
    f_q, e_frames, t = f_q[newton, None], e_frames[newton], t[newton]
    pts = np.empty(t.shape[:-1] + (f_q.shape[-1],))
    active = np.arange(len(t))
    for _ in range(40):
        pts[active] = ev.point(t[active])
        res = np.matmul(pts[active] - f_q[active], e_frames[active]) - targets
        going = ~(np.max(np.abs(res), axis=(1, 2)) < 1e-13)  # NaN keeps going
        active, res = active[going], res[going]
        if not len(active):
            break
        # per node a = J^T E, the transpose of the residual's Jacobian E^T J
        jac_t = np.swapaxes(ev.jacobian(t[active]), -1, -2)
        a = np.matmul(jac_t.reshape(len(active), -1, f_q.shape[-1]),
                      e_frames[active]).reshape(res.shape + (2,))
        det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
        t[active] -= np.stack([a[..., 1, 1] * res[..., 0] - a[..., 1, 0] * res[..., 1],
                               a[..., 0, 0] * res[..., 1] - a[..., 0, 1] * res[..., 0]],
                              axis=-1) / det[..., None]
    pts[active] = ev.point(t[active])  # rows still stepping after 40 steps
    res = np.matmul(pts[active] - f_q[active], e_frames[active]) - targets
    heights[newton] = np.matmul(pts - f_q, n_frames[newton])
    failed = np.zeros(len(heights), dtype=bool)
    failed[np.asarray(newton, dtype=int)[active]] = \
        ~(np.max(np.abs(res), axis=(1, 2)) <= 1e-9)
    return heights, failed


def _analytic_patches(f, ids, plane_of, r):
    """Graph patches of an immersion with an evaluator, solved in batched
    blocks.

    ``plane_of(q)`` gives the plane at base sample q.  The per-sample setup
    (plane, component, fold check; on a curve the parameter brackets) runs
    sample by sample.  The solve and the slope scan then run once per block
    of rows: bisection and Newton on a curve, ``_fill_surface_rows`` from
    each node's nearest member on a surface.  Returns one (patch, error)
    pair per id, the error being what ``extract_graph_patch`` raises there.
    """
    m, k, ev = f.m, f.n - f.m, f.evaluator
    step, axis, x_grid, in_disk = _chart_grid(m, r)
    nodes = x_grid[in_disk]
    valid = in_disk.reshape((len(axis),) * m)
    outcomes = [None] * len(ids)
    rows = []
    for i, q in enumerate(ids):
        try:
            plane = plane_of(q)
            members = q_component(f, q, plane, r)
            proj = (f.positions[members] - f.positions[q]) @ plane.frame
            _detect_fold(proj, f.positions[members], step, q, members)
            rows.append((i, q, plane, members, proj, None if m == 2 else
                         _curve_brackets(f, q, members, proj, nodes[:, 0])))
        except _SAMPLE_ERRORS as exc:
            outcomes[i] = (None, exc)
    if not rows:
        return outcomes
    index, base, planes, members, projs, brackets = zip(*rows)
    f_q = f.positions[list(base)]
    frames = np.stack([plane.frame for plane in planes])
    isometries = EuclideanIsometry.embeddings(f_q, frames)
    n_frames = np.stack([iso.rotation[:, m:] for iso in isometries])
    # rows are independent; blocks of rows keep the solver's arrays in cache
    for a in range(0, len(base), _SOLVE_ROWS[m]):
        b = slice(a, a + _SOLVE_ROWS[m])
        js = range(a, min(b.stop, len(base)))
        if m == 1:
            lo, hi = map(np.stack, zip(*brackets[b]))
            t, failed = _solve_curve_rows(ev, f_q[b], frames[b, :, 0],
                                          lo, hi, nodes[:, 0])
            on_disk = np.matmul(ev.point(t) - f_q[b, None], n_frames[b])
        else:  # each node starts from its nearest member's parameters
            gaps = [nodes[:, None, :] - projs[j] for j in js]
            t = np.stack([f.params[members[j]][np.argmin(
                np.einsum("tmi,tmi->tm", gap, gap), axis=1)]
                for j, gap in zip(js, gaps)])
            on_disk, failed = _fill_surface_rows(ev, f_q[b], frames[b],
                                                 n_frames[b], t, nodes)
        u = np.full((len(js), len(x_grid), k), np.nan)
        u[:, in_disk] = on_disk
        off_center = np.max(np.abs(u[:, len(x_grid) // 2]), axis=1) > 1e-9
        u = u.reshape((len(js),) + valid.shape + (k,))
        if m == 1:
            lams, du = _lambda_on_curve_grid(u, step)
        else:
            lams, du = _lambda_on_surface_grid(
                u, np.broadcast_to(valid, u.shape[:-1]), step)
        for s, j in enumerate(js):
            q = base[j]
            if failed[s] and m == 1:
                outcomes[index[j]] = (None, InsufficientSamplingError(
                    f"patch at sample {q} is not resolved out to its rim"))
            elif failed[s]:
                outcomes[index[j]] = (None, NotAGraphError(
                    f"grid fill did not converge on the patch at sample {q}"))
            elif off_center[s]:
                outcomes[index[j]] = (None, NotAGraphError(
                    f"patch at {q} does not pass through f(q)"))
            else:
                heights = (f.positions[members[j]] - f_q[j]) @ n_frames[j]
                patch = GraphPatch(q, planes[j], isometries[j], r, axis, u[s],
                                   float(lams[s]), members[j], projs[j],
                                   heights, m, k, step,
                                   mask=valid if m == 2 else None)
                patch._du = du[s]
                outcomes[index[j]] = (patch, None)
    return outcomes


def _chart_grid(m, r):
    """Grid step, axis, (G^m, m) chart nodes and disk mask of the chart B_r."""
    cells = GRID_CELLS_PER_RADIUS[m]
    axis = np.linspace(-r, r, 2 * cells + 1)
    x_grid = np.stack(np.meshgrid(*[axis] * m, indexing="ij"), axis=-1).reshape(-1, m)
    in_disk = np.einsum("ij,ij->i", x_grid, x_grid) <= r * r * (1 + 1e-12)
    return r / cells, axis, x_grid, in_disk


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
    """Derivative along grid axis 0 or 1 of (..., G, G, k) values on
    (..., G, G) masks: central inside, one-sided at the rim."""
    u = np.moveaxis(u, axis - 3, 0)
    v = np.moveaxis(valid, axis - 2, 0)
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
    return np.moveaxis(du, 0, axis - 3)


def _lambda_on_surface_grid(u, valid, step):
    """Slopes sup ||Du|| of (..., G, G, k) graph values, one per grid."""
    d0 = _derivative_2d_axis(u, valid, step, axis=0)
    d1 = _derivative_2d_axis(u, valid, step, axis=1)
    norm_sq = np.sum(d0 * d0, axis=-1) + np.sum(d1 * d1, axis=-1)
    lam = np.sqrt(np.nanmax(np.where(valid, norm_sq, np.nan), axis=(-2, -1)))
    return lam, np.stack([d0, d1], axis=-1)


def extract_graph_patch(f: SampledImmersion, q: int, plane: Subspace,
                        r: float) -> GraphPatch:
    """Extract the local graph of f over ``plane`` through f(q) on B_r.

    Immersions with an analytic evaluator go through the batched solver that
    ``check_r_lambda`` runs over all samples, here with a single row.
    """
    if f.evaluator is not None and f.params is not None:
        [(patch, err)] = _analytic_patches(f, [q], lambda _: plane, r)
        if err is not None:
            raise err
        return patch
    cells = GRID_CELLS_PER_RADIUS[f.m]
    step, axis, x_grid, in_disk = _chart_grid(f.m, r)
    e_frame = plane.frame
    [isometry] = EuclideanIsometry.embeddings(f.positions[q][None], e_frame[None])
    n_frame = isometry.rotation[:, f.m:]
    members = q_component(f, q, plane, r)
    f_q = f.positions[q]
    rel = f.positions[members] - f_q
    proj = rel @ e_frame
    heights = rel @ n_frame
    _detect_fold(proj, f.positions[members], step, q, members)

    k = f.n - f.m
    if f.m == 1:
        if len(members) < 4:
            raise InsufficientSamplingError(
                f"only {len(members)} samples in the patch at {q}")
        u = _interp_curve_grid(q, proj[:, 0], heights, axis, step)
        if np.max(np.abs(u[cells])) > 1e-9:
            raise NotAGraphError(f"patch at {q} does not pass through f(q)")
        lam, du = _lambda_on_curve_grid(u, step)
        patch = GraphPatch(q, plane, isometry, r, axis, u, float(lam),
                           members, proj, heights, 1, k, step)
        patch._du = du
        return patch

    u_flat = _interp_surface_grid(f, q, proj, heights, x_grid, in_disk, step)
    shape = (len(axis), len(axis))
    u = u_flat.reshape(shape + (k,))
    valid = in_disk.reshape(shape)
    if np.max(np.abs(u[cells, cells])) > 1e-9:
        raise NotAGraphError(f"patch at {q} does not pass through f(q)")
    lam, du = _lambda_on_surface_grid(u, valid, step)
    patch = GraphPatch(q, plane, isometry, r, axis, u, float(lam), members, proj,
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
    """The plane at sample q under a rule of ``PLANE_RULES``."""
    if rule == "tangent":
        return f.tangent_plane(q)
    if rule == "best-fit":
        return f.best_fit_plane(q, delta(1, r, lam))
    raise InputError(f"unknown plane rule {rule!r}")


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

    def to_dict(self):
        return {"passed": bool(self.passed), "r": self.r, "lambda": self.lam,
                "worst_lambda": self.worst_lambda,
                "worst_sample": int(self.worst_sample),
                "plane_rule": self.plane_rule,
                "errors": [str(e) for e in self.errors]}


def graph_patches(f: SampledImmersion, ids, r: float, lam: float,
                  plane_rule) -> list[GraphPatch]:
    """The patches at sample ids from f's patch store, where each is built
    once per (r, lambda, plane rule) and sample.

    The misses are built in one pass: under the tangent rule an immersion
    with an evaluator resolves their planes from one evaluator call, and
    one batched solve fills their grids; raw point clouds extract one patch
    per sample.  The first failure in ``ids`` order is raised with its type
    and a ``sample {q}:`` prefix.
    """
    store = f._patch_store.setdefault((r, lam, plane_rule), {})
    missing = [q for q in dict.fromkeys(ids) if q not in store]

    def plane_of(q):
        return plane_for(f, q, plane_rule, r, lam)

    if f.evaluator is None or f.params is None:
        for q in missing:
            try:
                store[q] = (extract_graph_patch(f, q, plane_of(q), r), None)
            except _SAMPLE_ERRORS as exc:
                store[q] = (None, exc)
    elif missing:
        if plane_rule == "tangent":
            plane_of = dict(zip(missing, f.tangent_planes(missing))).__getitem__
        store.update(zip(missing, _analytic_patches(f, missing, plane_of, r)))
    for q in ids:
        if store[q][1] is not None:
            raise type(store[q][1])(f"sample {q}: {store[q][1]}")
    return [store[q][0] for q in ids]


def check_r_lambda(f: SampledImmersion, r: float, lam: float,
                   plane_rule="tangent", *, sample_ids=None) -> CheckReport:
    """Verify the local-graph condition ||Du|| <= lambda at every sample.

    The patches come from ``graph_patches``, so nets, fields and
    correspondences read the check's patches instead of building them again.
    The first failure in ``ids`` order is raised with a ``sample {q}:`` prefix.
    """
    if r <= 0 or lam <= 0:
        raise InputError("need r > 0 and lambda > 0")
    if plane_rule not in PLANE_RULES:
        raise InputError(f"unknown plane rule {plane_rule!r}")
    ids = list(range(len(f))) if sample_ids is None else list(sample_ids)
    lambdas = np.full(len(f), np.nan)
    lambdas[ids] = [patch.lambda_measured
                    for patch in graph_patches(f, ids, r, lam, plane_rule)]
    worst = int(np.nanargmax(lambdas))
    return CheckReport(bool(np.nanmax(lambdas) <= lam), r, lam,
                       float(lambdas[worst]), worst, lambdas, plane_rule)


def passes_stored_check(f: SampledImmersion, r: float, lam: float,
                        plane_rule) -> bool:
    """Whether f's patch store holds a patch with slope <= lambda at every
    sample, so that ``check_r_lambda`` would pass without building one."""
    store = f._patch_store.get((r, lam, plane_rule), {})
    return all(q in store and store[q][1] is None
               and store[q][0].lambda_measured <= lam for q in range(len(f)))


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


def check_r_lambda_function(f: SampledImmersion, r: float,
                            lam: float) -> FunctionCheckReport:
    """Lipschitz-graph check by difference quotients between member samples
    over best-fit planes.

    Also enforces injectivity of f on every patch: no two member samples may
    coincide in R^n (within ``COINCIDENCE_TOL``) while carrying distinct ids.
    """
    worst, worst_q = 0.0, -1
    violations = []
    for q in range(len(f)):
        plane = plane_for(f, q, "best-fit", r, lam)
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
        coincident = upper & (damb < COINCIDENCE_TOL)
        if np.any(coincident):
            i, j = np.argwhere(coincident)[0]
            violations.append((int(members[i]), int(members[j])))
            continue
        q_max = max_quotient(dz[upper], dx[upper])
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
                             lam: float) -> IntersectReport:
    """Check |f(q) - f(x)| < (1 + lambda) rho on U_{rho,q}, and the inclusion
    U_{delta,p} subset U_{rho,q} whenever the delta-sets of p and q meet,
    over tangent planes."""
    plane_q = f.tangent_plane(q)
    d = rho / (3.0 * (1.0 + lam))
    members_q, dq = q_components(f, q, plane_q, [rho, d])
    dist = np.linalg.norm(f.positions[members_q] - f.positions[q], axis=1)
    bound = (1.0 + lam) * rho
    worst = float(np.max(dist) / bound) if len(dist) else 0.0
    distance_ok = bool(np.all(dist < bound))

    plane_p = f.tangent_plane(p)
    dp = q_component(f, p, plane_p, d)
    applicable = bool(np.intersect1d(dq, dp).size)
    missing = []
    if applicable:
        missing = sorted(set(dp.tolist()) - set(members_q.tolist()))
    return IntersectReport(distance_ok, worst, applicable, not missing, missing)
