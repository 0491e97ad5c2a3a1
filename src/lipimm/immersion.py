"""Sampled immersions, local graph patches, and (r, lambda) verification.

An immersion is carried as parameter samples with adjacency (a cycle for
curves, a triangulation for surfaces), optionally backed by an analytic
evaluator.  The central object is the local patch: the connected component
through a base sample of the preimage of a ball under projection to a chosen
m-plane, written as a graph u: B_r -> R^k over that plane, with the measured
sup-norm of Du.  The derivative norm is the column norm
||Du|| = (sum_j |d_j u|^2)^(1/2).  A patch at q is the rigid motion
A_q(x) = R x + f(q), whose rotation R frames the plane in its first m
columns, and the heights u with their Du and slope on the chart grid.
Each immersion keeps one patch store, one ``PatchRows`` record of arrays
per ``_store_key``: a patch is a row, built once per sample, by the check
or by the first net, field or correspondence that asks for it.  A
``GraphPatch`` is the one-sample view of a row.  Planes are resolved as
one (S, n, m) frame array with one error per row (``planes_for``), which
every consumer slices; a ``Subspace`` is only a one-plane view.
"""

from __future__ import annotations

import math
from itertools import chain
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    InputError,
    InsufficientSamplingError,
    NotAGraphError,
)
from .grassmann import (
    Subspace,
    _orthonormal_frames,
    complement_frames,
    difference_norms,
)
from ._util import (
    Workspace,
    bracketed_newton,
    inverse_hermite,
    max_quotient,
    rounding_floor,
    unchecked,
)

GRID_CELLS_PER_RADIUS = {1: 64, 2: 16}  # m=1: 129 nodes; m=2: 33x33 nodes
PLANE_RULES = ("tangent", "best-fit")
# rows per block of a batched patch solve, by m: a curve row's 129 nodes are
# cheap, while more surface rows than this only raise the peak memory
_SOLVE_ROWS = {1: 256, 2: 15}
# rows per block of a whole-immersion pass (seed balls, components,
# quotients), which keeps its padded (rows, members, n) stacks a few MB
_PASS_ROWS = 256
# (name, count) of the surface fill's workspace arrays that the start of a
# block takes each node's eight member scalars into, one (S, T) array each:
# the fill reuses them, so the start adds no arrays of its own
_START_BUFFERS = (("etj", 4), ("res", 2), ("pairs", 2))
# (row, id) keys of a block of rows in one stacked mesh traversal, which
# bounds its (rows * N) seen flags to 1 MB
_MESH_KEYS = 2 ** 20
COINCIDENCE_TOL = 1e-9  # distinct points closer than this in R^n coincide
# largest |<f(t) - f(q), e> - x| of a chart node's root, in sample spacings
CURVE_RESIDUAL_SPACINGS = 1e-7


def delta(l: int, r: float, lam: float) -> float:
    """Scale ladder delta_l = (3 (1 + lambda))^(-l) r."""
    if not (0 < r < math.inf and 0 <= lam < math.inf):
        raise InputError("need r > 0 and lambda >= 0, both finite")
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


def _embedding_rotations(frames: np.ndarray) -> np.ndarray:
    """Deterministic (S, n, n) rotations in SO(n) whose first m columns are
    the (S, n, m) ``frames``, bit for bit.  One stacked QR completes every
    frame; the SO(n) check runs once over the whole stack."""
    rotations = np.concatenate([frames, complement_frames(frames)], axis=2)
    flip = np.linalg.det(rotations) < 0
    rotations[flip, :, -1] = -rotations[flip, :, -1]
    _check_rotations(rotations)
    return rotations


def _check_rotations(rotations: np.ndarray):
    """Raise unless every (n, n) matrix in the stack lies in SO(n)."""
    gram = np.swapaxes(rotations, -1, -2) @ rotations
    if np.max(np.abs(gram - np.eye(rotations.shape[-1])), initial=0.0) > 1e-10:
        raise DimensionMismatchError("rotation is not orthogonal")
    if np.max(np.abs(np.linalg.det(rotations) - 1.0), initial=0.0) > 1e-8:
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
        # _store_key -> (PatchRows, (N,) row of each sample or -1)
        self._patch_store = {}

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
                _stacked_bfs(self, np.array([0]), 1)) < n_samples:
            raise InputError("adjacency is not connected (one closed manifold only)")
        if self.evaluator is not None and self.params is not None:
            recon = self.evaluator.point(self.params)
            if np.max(np.linalg.norm(recon - self.positions, axis=1)) > 1e-9:
                raise InputError("samples do not lie on the evaluator")
        # curves must be plain cycles
        if self.m == 1 and np.any(degree != 2):
            raise InputError("m=1 adjacency must be a single cycle")

    @cached_property
    def _simplices(self):
        """Corners (m + 1, F) of the edges or faces, and the CSR (ptr, ids)
        of those at each sample: at i, ids[ptr[i]:ptr[i + 1]]."""
        if self.m == 2 and self.faces is None:
            raise InputError("raw surface samples need faces")
        rows = np.repeat(np.arange(len(self)), np.diff(self._indptr))
        corners = np.stack([rows, self._indices])[:, rows < self._indices] \
            if self.m == 1 else np.ascontiguousarray(self.faces.T)
        ptr = np.concatenate([[0], np.cumsum(np.bincount(
            corners.ravel(), minlength=len(self)))])
        return corners, ptr, np.argsort(corners.T.ravel(),
                                        kind="stable") // (self.m + 1)

    def _edge_lengths(self, stop):
        """|f(i) - f(j)| of the CSR edges (i, j) with i < ``stop``, in CSR
        order.  Each is the square root of one ``vecdot``, the BLAS dot that
        ``np.linalg.norm`` of a single vector takes; a row-wise norm can
        differ in the last bit."""
        rows = np.repeat(np.arange(stop), np.diff(self._indptr[:stop + 1]))
        d = self.positions[rows] - self.positions[self._indices[:len(rows)]]
        return rows, np.sqrt(np.vecdot(d, d))

    def _compute_volume(self):
        if self.m == 1:
            # each edge (i, j > i) once, summed in CSR order by the sequential
            # cumsum: the volume feeds the net size bound
            rows, lengths = self._edge_lengths(len(self))
            return float(np.cumsum(lengths[self._indices > rows])[-1])
        p = self.positions
        a = p[self.faces[:, 1]] - p[self.faces[:, 0]]
        b = p[self.faces[:, 2]] - p[self.faces[:, 0]]
        cross = np.cross(a, b)
        return float(0.5 * np.sum(np.linalg.norm(cross, axis=1)))

    def _compute_spacing(self):
        return float(np.median(self._edge_lengths(min(len(self), 512))[1]))

    # -- basic queries ---------------------------------------------------------

    def __len__(self):
        return len(self.positions)

    def neighbors(self, q: int) -> np.ndarray:
        return self._indices[self._indptr[q]:self._indptr[q + 1]]

    def tangent_plane(self, q: int) -> Subspace:
        return unchecked(Subspace, frame=self.tangent_planes([q])[0])

    def tangent_planes(self, ids) -> np.ndarray:
        """(S, n, m) tangent frames at samples ``ids``, one evaluator call."""
        if self.evaluator is None or self.params is None:
            raise InputError("tangent rule needs an analytic evaluator")
        ids = _checked_ids(self, ids)
        frames = self.evaluator.tangent_frame(self.params[ids])
        frames = np.asarray(frames, dtype=float)
        return _orthonormal_frames(frames.reshape(len(ids), self.n, self.m))

    def best_fit_planes(self, ids, radius: float) -> tuple[np.ndarray, list]:
        """The (S, n, m) frames at the samples ``ids`` and one error per row
        (None, or the error of a NaN frame), in passes over blocks of rows:
        the principal m-plane of the patch members within ``radius``.

        The samples within 2 ``radius`` of f(q) (``_ball_blocks``) seed the
        plane at q, and the component U_{radius,q} over it refines it.
        Frames are sign-canonicalized so the result is deterministic.  A
        seed ball with at most m samples gives its sample an
        InsufficientSamplingError; the others take the same stacked SVDs.
        """
        ids = _checked_ids(self, ids)
        frames, errors = np.full((len(ids), self.n, self.m), np.nan), []
        for a, ptr, seeds in _ball_blocks(self.positions, ids, 2.0 * radius):
            counts = np.diff(ptr)
            rows = np.flatnonzero(counts > self.m)
            qs = ids[a + rows]
            plane = _principal_frames(self, qs, seeds, ptr[rows], counts[rows])
            members, offsets = component_ladders(self, qs, plane, [radius])[0]
            size = np.diff(offsets)
            refine = np.nonzero(size > self.m)[0]
            plane[refine] = _principal_frames(self, qs[refine], members,
                                              offsets[refine], size[refine])
            frames[a + rows] = plane
            errors += [None if c > self.m else InsufficientSamplingError(
                f"not enough samples near {q} for a best-fit plane")
                for q, c in zip(ids[a:a + len(counts)].tolist(),
                                counts.tolist())]
        return frames, errors


def _checked_ids(f, ids):
    ids = np.asarray(ids, dtype=int).reshape(-1)
    outside = (ids < 0) | (ids >= len(f))
    if np.any(outside):
        raise InputError(f"sample id {ids[np.argmax(outside)]} out of range")
    return ids


def _principal_frames(f, bases, flat, starts, counts):
    """Orthonormal, sign-canonical principal m-frames of the rows
    f(flat[starts[s]:starts[s] + counts[s]]) - f(bases[s]).  Rows of one
    count share a stacked SVD: each SVD sees the matrix it would see alone,
    where zero-padding would change the last bits of some frames."""
    raw = np.empty((len(bases), f.n, f.m))
    for c in np.unique(counts).tolist():
        rows = np.nonzero(counts == c)[0]
        rel = (f.positions[flat[starts[rows, None] + np.arange(c)]]
               - f.positions[bases[rows], None])
        raw[rows] = np.swapaxes(
            np.linalg.svd(rel, full_matrices=False)[2][:, :f.m], 1, 2)
    # canonical sign: the dominant entry of every column positive
    lead = np.take_along_axis(raw, np.argmax(np.abs(raw), axis=1)[:, None], 1)
    return _orthonormal_frames(np.where(lead < 0, -raw, raw))


def _ball_blocks(positions, qs, radius):
    """Per block of ``_PASS_ROWS`` bases q in ``qs``: its offset and the
    ids p with |f(p) - f(q)| < radius, as CSR (ptr, ids), rows ascending.

    A uniform grid hash over at most three coordinates, with cells at least
    ``radius`` wide, hands q the samples of the 3^d cells around its own:
    O(N + output).  Candidates are kept by the row-wise norm that
    |f - f(q)| over all samples gives them.
    """
    d = min(positions.shape[1], 3)
    coords = positions[:, :d]
    low = coords.min(axis=0)
    # at most 2^20 cells a side, so the cell keys fit in int64; a NaN or
    # nonpositive radius keeps no candidate
    width = max(float(np.max(coords.max(axis=0) - low)) / 2 ** 20,
                radius * (1 + 1e-6), np.finfo(float).tiny)
    cells = np.floor((coords - low) / width).astype(np.int64) + 1
    dims = cells.max(axis=0) + 2  # a free cell on either side
    strides = np.cumprod(np.concatenate([[1], dims[:0:-1]]))[::-1]
    keys = cells @ strides
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    shifts = np.stack(np.meshgrid(*[[-1, 0, 1]] * d, indexing="ij"),
                      axis=-1).reshape(-1, d) @ strides
    for a in range(0, len(qs), _PASS_ROWS):
        block = qs[a:a + _PASS_ROWS]
        near = (keys[block, None] + shifts).reshape(-1)
        first = np.searchsorted(sorted_keys, near, "left")
        count = np.searchsorted(sorted_keys, near, "right") - first
        row = np.repeat(np.arange(len(block)), count.reshape(len(block), -1)
                        .sum(axis=1))
        slot = np.arange(len(row)) + np.repeat(first - np.cumsum(count)
                                               + count, count)
        cand = order[slot]
        dist = np.linalg.norm(positions[cand] - positions[block[row]], axis=1)
        keep = dist < radius
        row, cand = row[keep], cand[keep]
        cand = cand[np.lexsort((cand, row))]
        ptr = np.zeros(len(block) + 1, dtype=int)
        np.cumsum(np.bincount(row, minlength=len(block)), out=ptr[1:])
        yield a, ptr, cand


def q_component(f: SampledImmersion, q: int, plane: Subspace, rho: float) -> np.ndarray:
    """Connected component through q of samples whose plane projection is in B_rho.

    Depends only on the plane and f(q), not on any isometry completing it.
    """
    if q < 0 or q >= len(f):
        raise InputError(f"sample id {q} out of range")
    if plane.k != f.m or plane.n != f.n:
        raise DimensionMismatchError("plane dimension must match the immersion")
    return component_ladders(f, np.array([q]), plane.frame[None], [rho])[0][0]


def component_ladders(f: SampledImmersion, bases, frames, radii) -> list:
    """U_{rho,q} at every base q of the (S,) ``bases`` over its frame in the
    (S, n, m) ``frames``, for every rho in ``radii``: one CSR pair
    (ids, ptr) per radius, row s the ascending ids[ptr[s]:ptr[s + 1]] of
    base s.  On an id cycle one window pass (``cycle_runs``) per block of
    rows, on any other adjacency one stacked frontier BFS."""
    radii2 = [rho * rho for rho in radii]
    # the traversal's ball; a NaN radius has an empty ball and a component {q}
    reach2 = max((r2 for r2 in radii2 if r2 == r2), default=0.0)
    radii2 = np.array(radii2, dtype=float)
    n = len(f)
    if f._id_cycle:
        start, length = cycle_runs(f, bases, frames, radii2, reach2)
        return [_run_stack(start[:, i], length[:, i], n)
                for i in range(len(radii2))]
    rows = max(1, _MESH_KEYS // n)
    blocks = [[keys + a * n for keys in _mesh_components(
        f, bases[a:a + rows], frames[a:a + rows], radii2, reach2)]
        for a in range(0, len(bases), rows)]
    ladders = []
    for i in range(len(radii2)):
        keys = np.concatenate([block[i] for block in blocks]
                              + [np.empty(0, dtype=int)])
        ladders.append((keys % n,
                        np.searchsorted(keys, np.arange(len(bases) + 1) * n)))
    return ladders


def cycle_runs(f, bases, frames, radii2, reach2):
    """U_{rho,q} on an id cycle for every rho^2 in ``radii2`` as the run of
    ids start .. start + length - 1 mod N: the (S, R) starts and lengths,
    from one ``_cycle_components`` window pass per block of rows."""
    start = np.empty((len(bases), len(radii2)), dtype=int)
    length = np.empty_like(start)
    for a in range(0, len(bases), _PASS_ROWS):
        qs = bases[a:a + _PASS_ROWS]
        left, right = _cycle_components(f, qs, frames[a:a + _PASS_ROWS],
                                        radii2, reach2)
        start[a:a + len(qs)] = (qs - left + 1).T
        length[a:a + len(qs)] = (left + right - 1).T
    return start, length


def _padded_components(f, bases, frames, rho):
    """U_{rho,q} of every base q over its frame in the (S, n, m) ``frames``,
    padded with q to an (S, W) id array, and the (S,) member counts."""
    ids, ptr = component_ladders(f, bases, frames, [rho])[0]
    counts = np.diff(ptr)
    col = np.arange(np.max(counts, initial=1))
    pos = ptr[:-1, None] + np.minimum(col, counts[:, None] - 1)
    return np.where(col < counts[:, None], ids[pos], bases[:, None]), counts


def _squared_projections(f, qs, frames, ids):
    """|pi(f(p) - f(q))|^2 for the (S, W) samples ``ids`` of (S,) bases over
    their (S, n, m) ``frames``: each row's product is the BLAS product the
    projection of all samples would take, bit for bit, for W = 1 too."""
    proj = (f.positions[ids] - f.positions[qs][:, None, :]) @ frames
    proj = proj.reshape(-1, proj.shape[-1])
    return np.einsum("ij,ij->i", proj, proj).reshape(ids.shape)


def _cycle_components(f, qs, frames, radii2, reach2):
    """U_{rho,q} on an id cycle, where it is the run of ids
    q - left + 1 .. q + right - 1 mod N, for the (S,) bases ``qs`` over
    their (S, n, m) ``frames`` and every rho^2 in ``radii2``: the (R, S)
    arrays ``left`` and ``right``.

    A window of ids around each q doubles until both its ends project
    outside the largest ball; the runs are read from the window, every
    radius at once.  A projection is at most the arc length, so the windows
    start at twice rho / sample spacing.  A window that would wrap onto
    itself is replaced by the whole cycle.
    """
    n = len(f)
    half = 2 * math.sqrt(reach2) / f.sample_spacing if f.sample_spacing > 0 else n
    half = int(half) + 1 if half < n else n
    left = right = None
    pending = slice(None)  # the rows whose window is not yet wide enough
    while True:
        wraps = 2 * half + 1 > n
        if wraps:  # ids q - N .. q + N: the nearest ids outside, cyclically
            half = n
        base = qs[pending]
        d2 = _squared_projections(f, base, frames[pending],
                                  (base[:, None] + np.arange(-half, half + 1)) % n)
        inside = d2 < radii2[:, None, None]
        inside[..., half] = True  # q alone is the run of an empty or NaN ball
        if left is None:
            left = inside[..., half::-1].argmin(axis=-1)
            right = inside[..., half:].argmin(axis=-1)
        else:
            left[:, pending] = inside[..., half::-1].argmin(axis=-1)
            right[:, pending] = inside[..., half:].argmin(axis=-1)
        if wraps:  # a ball without an outside id holds the whole cycle
            whole = left == 0
            left[whole] = np.broadcast_to(qs + 1, left.shape)[whole]
            right[whole] = np.broadcast_to(n - qs, left.shape)[whole]
            return left, right
        ends = d2[:, ::2 * half]
        if ends.min() >= reach2:  # NaN is not
            return left, right
        pending = np.arange(len(qs))[pending][~np.all(ends >= reach2, axis=1)]
        half *= 2


def _run_stack(start, length, n):
    """The CSR pair of the runs ``start + arange(length)`` mod n, each run's
    ids ascending: a run that wraps lists the ids past the wrap first."""
    ptr = np.zeros(len(length) + 1, dtype=int)
    np.cumsum(length, out=ptr[1:])
    wrap = np.where(start < 0, -start, np.where(start + length > n, n - start,
                                                0))
    start, wrap, each = (np.repeat(v, length) for v in (start, wrap, length))
    i = np.arange(len(each)) - np.repeat(ptr[:-1], length)
    return (start + (i + wrap) % each) % n, ptr


def _mesh_components(f, qs, frames, radii2, reach2):
    """U_{rho,q} of the (S,) bases ``qs`` over their (S, n, m) ``frames``
    on the CSR adjacency for every rho^2 in ``radii2``, as the ascending
    keys row * N + id of each radius: one frontier BFS over the keys of all
    rows (``_stacked_bfs``).

    The BFS at the largest radius projects each key it reaches once,
    against its row's frame, in one stacked product per step.  Each smaller
    radius, largest first, runs a BFS without projections inside the
    component of the radius before it, for the rows it cuts.
    """
    n, rows = len(f), np.arange(len(qs))
    sources = rows * n + qs
    d2_parts = [np.zeros(len(qs))]

    def project(keys):
        row, ids = np.divmod(keys, n)
        d2 = _squared_projections(f, qs[row], frames[row], ids[:, None])[:, 0]
        inside = d2 < reach2
        d2_parts.append(d2[inside])
        return inside

    keys = _stacked_bfs(f, sources, len(qs), project)
    order = np.argsort(keys)
    keys, d2 = keys[order], np.concatenate(d2_parts)[order]
    out = [None] * len(radii2)
    for i in np.argsort(-radii2, kind="stable"):
        row = keys // n
        inside = d2 < radii2[i]
        held = np.bincount(row[inside], minlength=len(qs))
        alone = held <= 1  # q alone, or no ball at all
        cut = ~alone & (held < np.bincount(row, minlength=len(qs)))
        if np.any(alone | cut):
            allowed = np.zeros(len(qs) * n, dtype=bool)
            allowed[keys[inside & cut[row]]] = True
            cut_keys = _stacked_bfs(f, sources[cut], len(qs),
                                    allowed.__getitem__)
            kept = np.sort(np.concatenate(
                [keys[~(alone | cut)[row]], sources[alone], cut_keys]))
            keys, d2 = kept, d2[np.searchsorted(keys, kept)]
        out[i] = keys
    return out


def _csr_rows(ptr, ids):
    """Positions of the entries of CSR rows ``ids``, and each row's length."""
    count = ptr[ids + 1] - ptr[ids]
    return (np.repeat(ptr[ids] - np.cumsum(count) + count, count)
            + np.arange(count.sum()), count)


def _csr_take(pair, rows):
    """The CSR pair (ids, ptr) of the rows ``rows`` of the CSR ``pair``."""
    at, count = _csr_rows(pair[1], rows)
    ptr = np.zeros(len(count) + 1, dtype=int)
    np.cumsum(count, out=ptr[1:])
    return pair[0][at], ptr


def _stacked_bfs(f, sources, n_rows, admit=None):
    """Keys row * N + id reached over f's CSR adjacency from the source keys,
    at most one per row, in the order reached: the BFS of every row in one
    frontier.

    Each step gathers the neighbors of all frontier keys at once, keeps the
    unseen ones once each (one sort) and of those the keys ``admit``
    accepts (all without ``admit``); admit sees every key at most once.
    """
    n = len(f)
    seen = np.zeros(n_rows * n, dtype=bool)
    seen[sources] = True
    frontier, parts = sources, [sources]
    while len(frontier):
        row, ids = np.divmod(frontier, n)
        at, count = _csr_rows(f._indptr, ids)
        reached = np.repeat(row * n, count) + f._indices[at]
        # distinct keys by a sort (return_index): np.unique's hash is slower
        reached = np.unique(reached[~seen[reached]], return_index=True)[0]
        seen[reached] = True
        frontier = reached if admit is None else reached[admit(reached)]
        parts.append(frontier)
    return np.concatenate(parts)


@dataclass
class GraphPatch:
    """One local graph representation over an m-plane through f(q): the
    one-sample view of a row of ``PatchRows``."""

    base: int
    isometry: EuclideanIsometry
    radius: float
    x_nodes: np.ndarray          # (G,) for m=1, axis array for m=2
    u: np.ndarray                # (G, k) or (G, G, k); NaN outside the disk
    lambda_measured: float
    m: int
    k: int
    grid_step: float


@dataclass
class PatchRows:
    """Graph patches over the chart B_radius with nodes ``x_nodes`` on each
    axis, one row per sample ``bases[i]``: the rotation of
    A_q(x) = R x + f(q), whose first m columns frame the plane, the heights
    u (NaN outside the disk), Du and the slope sup ||Du||.  A row whose
    build failed holds its error and a NaN slope."""

    radius: float
    x_nodes: np.ndarray
    bases: np.ndarray          # (S,)
    rotation: np.ndarray       # (S, n, n)
    u: np.ndarray              # (S, G, k), or (S, G, G, k) for m=2
    du: np.ndarray             # (S, G, k), or (S, G, G, k, 2) for m=2
    slope: np.ndarray          # (S,)
    errors: list               # (S,) None or the row's error

    @classmethod
    def empty(cls, f, r, bases):
        """NaN rows without errors at the samples ``bases``."""
        s, m, k = len(bases), f.m, f.n - f.m
        grid = (s,) + (2 * GRID_CELLS_PER_RADIUS[m] + 1,) * m + (k,)
        return cls(r, _chart_grid(m, r)[1], np.asarray(bases, dtype=int),
                   np.full((s, f.n, f.n), np.nan), np.full(grid, np.nan),
                   np.full(grid + (() if m == 1 else (2,)), np.nan),
                   np.full(s, np.nan), [None] * s)

    def extend(self, rows):
        """Append the rows of ``rows``; without rows of its own, take its
        arrays."""
        own = len(self.bases)
        for name in ("bases", "rotation", "u", "du", "slope"):
            setattr(self, name, np.concatenate([getattr(self, name),
                                                getattr(rows, name)])
                    if own else getattr(rows, name))
        self.errors += rows.errors

    def graph_patch(self, f, i) -> GraphPatch:
        """Row i of patches of f as a ``GraphPatch``."""
        q, m = int(self.bases[i]), f.m
        isometry = unchecked(EuclideanIsometry, rotation=self.rotation[i],
                             translation=f.positions[q])
        return GraphPatch(q, isometry, self.radius, self.x_nodes, self.u[i],
                          float(self.slope[i]), m, f.n - m,
                          self.radius / GRID_CELLS_PER_RADIUS[m])


def _bilinear(axis, grid, pts, chart=None):
    """Bilinear values of ``grid`` over the square grid ``axis`` at points
    ``pts``; with ``chart``, of the stacked grids grid[chart[i]] at pts[i]."""
    lead = () if chart is None else (chart,)
    step = axis[1] - axis[0]
    ij = (pts - axis[0]) / step
    i0 = np.clip(np.floor(ij).astype(int), 0, len(axis) - 2)
    frac = ij - i0
    out = np.zeros((len(pts), grid.shape[-1]))
    for di in (0, 1):
        for dj in (0, 1):
            w = (frac[:, 0] if di else 1 - frac[:, 0]) * \
                (frac[:, 1] if dj else 1 - frac[:, 1])
            out += w[:, None] * grid[lead + (i0[:, 0] + di, i0[:, 1] + dj)]
    return out


def _detect_fold(f, bases, members, counts, proj, step):
    """Projection-injectivity heuristic at sample resolution: the
    NotAGraphError or None of each row of padded (S, W) ``members``.

    A fold (or slope blow-up) shows up as two member samples projecting within
    half a grid cell of each other while sitting more than four grid cells
    apart in R^n.  Pairs are scanned at growing offsets in the order of the
    first chart coordinate, padding last as +inf.  A sorted row's smallest
    gap never shrinks as the offset grows, so the scan stops at the first
    offset where no row has a gap below half a cell.
    """
    x = np.where(np.arange(members.shape[1]) < counts[:, None], proj[..., 0], np.inf)
    order = np.argsort(x, axis=1, kind="stable")
    x, ids = (np.take_along_axis(v, order, axis=1) for v in (x, members))
    p = np.take_along_axis(proj, order[..., None], axis=1)
    close, far = 0.5 * step, 4.0 * step
    errors = [None] * len(bases)
    for off in range(1, members.shape[1]):
        with np.errstate(invalid="ignore"):  # inf - inf between pads
            s, i = np.nonzero(x[:, off:] - x[:, :-off] < close)
        if not len(s):
            break
        if proj.shape[-1] > 1:
            dp = p[s, i + off] - p[s, i]
            near = np.einsum("ij,ij->i", dp, dp) < close * close
            s, i = s[near], i[near]
        da = f.positions[ids[s, i + off]] - f.positions[ids[s, i]]
        bad = np.einsum("ij,ij->i", da, da) > far * far
        rows, first = np.unique(s[bad], return_index=True)
        for row, a in zip(rows.tolist(), i[bad][first].tolist()):
            i_id, j_id = ids[row, a], ids[row, a + off]
            errors[row] = NotAGraphError(
                f"projection folds near sample {bases[row]}: members "
                f"{i_id} and {j_id} overlap in the chart while "
                f"{np.linalg.norm(f.positions[j_id] - f.positions[i_id]):.2e}"
                " apart in R^n")
        x[rows] = np.inf  # a row stops at its first fold
    return errors


def _curve_brackets(f, bases, members, counts, proj, x_nodes):
    """Brackets of every chart node of the curve patches over padded (S, W)
    ``members``: (S, W + 2) ends (each row's sorted member parameters
    between two rim ends), the (S, G) indices of each node's lower and upper
    end, and each row's NotAGraphError or None.  The projection must be
    strictly monotone along the component, so members bracket every node.
    """
    # unwrap periodic parameters into a contiguous window around q
    t_q = f.params[bases][:, None]
    period = f.evaluator.period
    t_members = t_q + (f.params[members] - t_q + period / 2) % period - period / 2
    pad = np.arange(members.shape[1]) >= counts[:, None]
    order = np.argsort(np.where(pad, np.inf, t_members), axis=1, kind="stable")
    t_sorted = np.take_along_axis(t_members, order, axis=1)
    p_sorted = np.take_along_axis(proj[..., 0], order, axis=1)
    dp = np.diff(p_sorted, axis=1)
    rising = np.all((dp > 0) | pad[:, 1:], axis=1)
    monotone = rising | np.all((dp < 0) | pad[:, 1:], axis=1)
    errors = [None if ok else NotAGraphError(
        f"projection is not monotone along the component of sample {q}")
        for q, ok in zip(bases.tolist(), monotone.tolist())]
    # the members below each node, as the sorted row's searchsorted counts
    # them: on a rising row those with p < x, on a falling one those with
    # p > x; all rows' members are placed among the nodes by one search
    s, w = np.nonzero(~pad)
    up = rising[s]
    at = np.empty(len(s), dtype=np.intp)
    at[up] = np.searchsorted(x_nodes, p_sorted[s[up], w[up]], side="right")
    at[~up] = np.searchsorted(x_nodes, p_sorted[s[~up], w[~up]], side="left")
    g = len(x_nodes)
    below = np.bincount(s * (g + 1) + at, minlength=len(bases) * (g + 1))
    below = np.cumsum(below.reshape(len(bases), g + 1)[:, :g], axis=1)
    idx = np.where(rising[:, None], below, counts[:, None] - below)
    # member parameters bracket every node; extend two sample spacings at the
    # rim, where the true graph continues just beyond the outermost member;
    # past the upper rim end a row's padding holds finite parameters
    spacing = period / len(f)
    rows = np.arange(len(bases))
    ends = np.concatenate([t_sorted[:, :1] - 2 * spacing, t_sorted,
                           t_sorted[:, -1:]], axis=1)
    ends[rows, counts + 1] = t_sorted[rows, counts - 1] + 2 * spacing
    return ends, idx, idx + 1, errors


def _solve_curve_rows(ev, f_q, e_vecs, n_frames, ends, i_lo, i_hi, x_nodes,
                      residual_tol=np.inf):
    """Graph heights (ev.point(t) - f_q[s]) . n_frames[s] over the chart
    nodes of every row s, at the roots t of (ev.point(t) - f_q[s]) .
    e_vecs[s] = x_nodes.

    Row s brackets its nodes by ends[s, i_lo[s]] and ends[s, i_hi[s]] of
    the (S, E) parameters ``ends``, each evaluated once with its slope;
    bracketed Newton solves them from their ends' ``inverse_hermite``
    points, with the evaluator's ``bound``.  A root takes its point from
    the last Newton evaluation, at t or, certified, f(t) + f'(t) d, or
    else evaluates it again.  Returns the (S, G, k) heights, an (S,) flag
    for rows with a bracket that straddles no root, and the (S,) largest
    |residual| of each row's roots.  A bracket end solves its node within
    1e-12, or 1e-14 |f_q| where that is larger (the rounding of points),
    but never beyond the ``residual_tol`` it must meet.
    """
    f_q = f_q[:, None, :]
    e_col = e_vecs[:, :, None]
    last = []

    def along(v):  # the component along e_vecs[s] of (S, ., n) vectors
        return np.matmul(v, e_col)[..., 0]

    def residual_slope(t):
        last.clear()  # the previous points, freed before the next
        points, velocity = ev.point_jacobian(t)
        points -= f_q
        last.extend((points, velocity))
        return along(points) - x_nodes, along(velocity)

    # each end's parameter, residual but for the node, and slope, taken to
    # both ends of every bracket by one flat index
    points, velocity = ev.point_jacobian(ends)
    points -= f_q
    rows = ends.shape[1] * np.arange(len(ends))[:, None]
    flat = np.stack([i_lo, i_hi]) + rows
    (lo, hi), (r_lo, r_hi), (s_lo, s_hi) = (
        np.take(v.reshape(-1), flat)
        for v in (ends, along(points), along(velocity)))
    del points, velocity, rows, flat  # freed before Newton, as the slopes
    r_lo -= x_nodes
    r_hi -= x_nodes
    # a bracket endpoint may already solve the node (e.g. the base sample at
    # x = 0); collapse those brackets instead of testing the sign product
    hit = np.minimum(np.maximum(1e-12, 1e-14 * np.max(np.abs(f_q), axis=-1)),
                     residual_tol)
    hit_hi = np.abs(r_hi) <= hit
    np.copyto(lo, hi, where=hit_hi)
    np.copyto(r_lo, r_hi, where=hit_hi)
    hit_lo = np.abs(r_lo) <= hit
    np.copyto(hi, lo, where=hit_lo)
    np.copyto(r_hi, r_lo, where=hit_lo)
    unresolved = np.any((r_lo * r_hi > 0) & ~hit_lo & ~hit_hi, axis=1)
    start = inverse_hermite(lo, hi, r_lo, r_hi, s_lo, s_hi)
    del s_lo, s_hi
    t, step, confirm = bracketed_newton(
        residual_slope, lo, hi, r_lo, r_hi, rounding_floor(f_q), start,
        ev.bound)
    points, velocity = last  # f(t) + f'(t) d - f_q at the certified steps
    np.add(points, np.multiply(velocity, step[..., None], out=velocity),
           out=points, where=(step != 0)[..., None])
    if confirm.any():
        s, g = np.nonzero(confirm)
        points[s, g] = ev.point(t[s, g]) - f_q[s, 0]
    res = np.max(np.abs(along(points) - x_nodes), axis=1)  # NaN: largest
    return np.matmul(points, n_frames), unresolved, res


def _fill_stops(f_q):
    """Residual stops of the patch fills at the (S, n) points f_q: 1e-13,
    or 1e-14 |f_q| where that is larger, as the rounding of points grows
    with |f_q|.  A surface Newton row stops below its stop and fails 1e4
    stops off; a patch whose height at the chart centre is 1e4 stops off
    does not pass through f(q)."""
    return np.maximum(1e-13, 1e-14 * np.max(np.abs(f_q), axis=-1))


def _fill_surface_rows(ev, f_q, e_frames, n_frames, t, targets, stop,
                       work=None):
    """Graph heights (S, T, k) of every row s over the chart nodes
    ``targets``, and an (S,) flag for rows whose fill did not converge.

    The evaluator's closed-form ``graph_heights`` fills each row it can.
    The other rows solve (ev.point(t) - f_q[s]) . e_frames[s] = targets by
    Newton from the (S, T, 2) parameters ``t``, which it overwrites, with
    the 2x2 Jacobian E^T J inverted in closed form; each step reads points
    and Jacobians, in any layout, from one ``point_jacobian`` call.  A row
    steps until its largest |residual| is below ``stop[s]``, at most 40
    times, and fails if it stays 1e4 times above it, or at once when its
    parameters turn non-finite or too coarse to resolve that bound.  With
    the evaluator's ``bound`` L, a row whose step d from t has
    (L/2) max |d|^2 <= stop/2 stops without evaluating at t + d, at the
    heights (f(t) + J d - f_q) . N: by Taylor's theorem they are within
    stop/2 of those of f(t + d), and the other half of the stop covers the
    rounding of f(t) + J d, a few units in the last place of |f_q|.  The
    rows still stepping are the first rows of the arrays of the
    ``Workspace`` ``work`` (a new one by default), which every step writes
    into; the points returned by the evaluator become f(t) - f_q in place.
    """
    closed_form = ev.graph_heights
    heights = np.zeros((len(t), len(targets), n_frames.shape[-1]))  # 0: failed
    newton = []
    for s in range(len(t)):
        h = None if closed_form is None else closed_form(
            f_q[s], e_frames[s], n_frames[s], targets)
        if h is None:
            newton.append(s)
        else:
            heights[s] = h
    failed = np.zeros(len(heights), dtype=bool)
    if not newton:
        return heights, failed
    work = Workspace() if work is None else work
    rows = np.array(newton)  # the rows still stepping, first in every array
    if len(rows) < len(t):
        t = t[rows]
    f_q, e_frames, stop = f_q[rows, None], e_frames[rows], stop[rows]
    bound = ev.bound
    evaluate = ev.point_jacobian if ev.writes_work else \
        lambda t, work: ev.point_jacobian(t)
    n, shape = len(rows), t.shape[1:-1]
    for i in range(41):  # after 40 steps a row passes within 1e4 stops
        # the largest |t| of each row, at flat index k; no step undoes inf/NaN
        size = np.abs(t[:n], out=work.take("pairs", t[:n].shape))
        size = size.reshape(n, -1)
        k = np.argmax(size, axis=1)
        big = size[np.arange(n), k]
        if not (keep := np.isfinite(big)).all():
            failed[rows[~keep]] = True
            n, k, big = _keep_first(keep, t, f_q, e_frames, stop, rows), \
                k[keep], big[keep]
            if not n:
                break
        rel, jac = evaluate(t[:n], work)  # the points, less f_q in place:
        for j in range(rel.shape[-1]):  # a length-n broadcast is slow
            np.subtract(rel[..., j], f_q[:n, :, j], out=rel[..., j])
        res = np.matmul(rel, e_frames[:n],
                        out=work.take("res", (n,) + shape + (2,)))
        res -= targets
        # per node J^T E, the transpose of the residual's Jacobian E^T J
        a = work.take("etj", res.shape + (2,))
        np.matmul(np.swapaxes(jac, -1, -2).reshape(n, -1, rel.shape[-1]),
                  e_frames[:n], out=a.reshape(n, -1, 2))
        err = np.max(np.abs(res, out=work.take("pairs", res.shape)),
                     axis=(1, 2))  # NaN keeps a row going
        done = (err < stop[:n]) | (i == 40) & (err <= 1e4 * stop[:n])
        # a row fails where a unit in the last place of its largest |t| moves
        # that node's residual past the failure bound: no step brings it back
        move = np.max(np.abs(a.reshape(n, -1, 2)[np.arange(n), k]),
                      axis=-1) * np.spacing(big)
        fail = ~done & ((i == 40) | (move > 1e4 * stop[:n]))
        step = _solve2((a[..., 0, 0], a[..., 1, 0], a[..., 0, 1],
                        a[..., 1, 1]), (res[..., 0], res[..., 1]), work)
        certified = np.zeros(n, dtype=bool)
        if bound is not None:  # Taylor's remainder at t - step, <= stop/2
            sq = np.square(step, out=work.take("pairs", step.shape))
            sq = np.add(sq[..., 0], sq[..., 1],
                        out=work.take("det", sq.shape[:-1]))
            certified = ~done & ~fail & \
                (bound * np.max(sq, axis=1) <= stop[:n])
        if (stops := done | fail | certified).any():
            failed[rows[:n][fail]] = True
            at = rows[:n][done]
            heights[at] = np.matmul(rel[done], n_frames[at])
            if certified.any():  # f(t) + J d - f_q, d = -step, in place
                at = rows[:n][certified]
                products = work.take("pairs", (2,) + rel.shape[:-1])
                for j in range(rel.shape[-1]):
                    np.multiply(jac[..., j, 0], step[..., 0], out=products[0])
                    np.multiply(jac[..., j, 1], step[..., 1], out=products[1])
                    rel[..., j] -= np.add(*products, out=products[0])
                heights[at] = np.matmul(rel[certified], n_frames[at])
            n = _keep_first(~stops, t, f_q, e_frames, stop, rows, step)
            if not n:
                break
        t[:n] -= step[:n]
    return heights, failed


def _keep_first(keep, *arrays):
    """Move the rows ``keep`` of the first len(keep) rows of each array to
    its front, in order; return how many they are."""
    n = int(np.count_nonzero(keep))
    for array in arrays:
        array[:n] = array[:len(keep)][keep]
    return n


def _det2(a):
    """Determinants of 2x2 matrices given by their entries a00, a01, a10, a11."""
    return a[0] * a[3] - a[1] * a[2]


def _solve2(a, b, work=None):
    """x with a x = b by the adjugate, in one (..., 2) array, for 2x2 a as
    ``_det2`` takes them and b = (b0, b1); inf or NaN where a is singular.
    With a ``Workspace`` ``work``, x and its temporaries are its arrays."""
    work = Workspace() if work is None else work
    shape = np.shape(b[0])
    out = work.take("x", shape + (2,))
    det, product = work.take("det", shape), work.take("pairs", shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(a[0], a[3], out=det)
        det -= np.multiply(a[1], a[2], out=product)
        for x, (i, j, c, d) in zip((out[..., 0], out[..., 1]),
                                   ((3, 1, 0, 1), (0, 2, 1, 0))):
            np.multiply(a[i], b[c], out=x)  # a_i b_c - a_j b_d
            x -= np.multiply(a[j], b[d], out=product)
            x /= det
    return out


def _tangent_steps(near, nodes):
    """Parameters t + (E^T J)^-1 (x - p): one Newton step to the chart nodes
    x from their nearest members, whose taken (S, T) scalars ``near``, eight
    of them, are E^T J's entries, the chart projection p (overwritten by
    x - p) and the parameters t."""
    for i in (0, 1):
        np.subtract(nodes[:, i], near[4 + i], out=near[4 + i])
    t = _solve2(near, near[4:6])
    for i in (0, 1):
        t[..., i] += near[6 + i]
    return t


def _block_patches(f, ids, planes, r):
    """The ``PatchRows`` of the samples ``ids``, each row's error being what
    ``extract_graph_patch`` raises there, over the (frames, errors)
    ``planes`` of ``planes_for``: a sample without a plane keeps its
    plane's error, and the others take one ``_padded_components`` pass and
    one ``_component_patches`` build per block of ``_PASS_ROWS``."""
    frames, errors = planes
    out = PatchRows.empty(f, r, ids)
    out.errors = list(errors)
    rows = np.flatnonzero([err is None for err in errors])
    bases = _checked_ids(f, out.bases[rows])
    for a in range(0, len(rows), _PASS_ROWS):
        block = rows[a:a + _PASS_ROWS]
        members, counts = _padded_components(f, bases[a:a + _PASS_ROWS],
                                             frames[block], r)
        _component_patches(f, out, block, frames[block], members, counts)
    return out


def _component_patches(f, out, slots, frames, members, counts):
    """Build the rows ``slots`` of the ``PatchRows`` ``out``, and their
    errors, from the padded (S, W) components ``members`` with ``counts``
    members at its bases over the (S, n, m) plane ``frames``: one batched
    projection and fold scan (a fold error comes first), then the fill and
    the slope scan per block of ``_SOLVE_ROWS`` rows.  With an
    evaluator a curve takes bracketed Newton (residuals within
    ``CURVE_RESIDUAL_SPACINGS`` sample spacings) and a surface
    ``_fill_surface_rows`` from one ``_tangent_steps`` step past each
    node's nearest member, with the E^T J of the member's singularity test,
    or from that member's nearest mesh neighbour where E^T J is singular;
    raw samples take ``_fill_simplex_rows``.  A surface's slope scan takes
    the stencils of one ``_stencil_plan`` of its chart grid."""
    m, k, ev, r = f.m, f.n - f.m, f.evaluator, out.radius
    bases = out.bases[slots]
    analytic = ev is not None and f.params is not None
    step, axis, x_grid, in_disk = _chart_grid(m, r)
    nodes = x_grid[in_disk]
    valid = in_disk.reshape((len(axis),) * m)
    plan = _stencil_plan(valid) if m == 2 else None
    f_q = f.positions[bases]
    rel = f.positions[members] - f_q[:, None]
    proj = rel @ frames
    errors = _detect_fold(f, bases, members, counts, proj, step)
    if not analytic and m == 1:  # members must reach the rim to a grid step
        low, high = proj[..., 0].min(axis=1), proj[..., 0].max(axis=1)
        errors = [fold or (InsufficientSamplingError(
            f"samples cover [{a:.4f}, {b:.4f}] of the requested chart at "
            f"sample {q}") if a > step - r or b < r - step else None)
            for fold, q, a, b in zip(errors, bases.tolist(), low.tolist(),
                                     high.tolist())]
    elif m == 1:
        ends, i_lo, i_hi, bent = _curve_brackets(f, bases, members, counts,
                                                 proj, nodes[:, 0])
        errors = [fold or other for fold, other in zip(errors, bent)]
    elif analytic:  # E^T J at every member, |det| against its squared entries
        etj = np.swapaxes(frames, 1, 2)[:, None] @ ev.jacobian(f.params[members])
        # (8, S W) rows of each member's E^T J, projection and parameters
        scalars = np.dstack([etj.reshape(members.shape + (4,)), proj,
                             f.params[members]]).reshape(-1, 8).T.copy()
        singular = np.abs(_det2(scalars)).reshape(members.shape) <= \
            1e-8 * np.sum(etj * etj, axis=(-2, -1))
        # |p|^2 of each member's projection p; padding is nearest to no node
        proj_sq = np.where(np.arange(members.shape[1]) < counts[:, None],
                           np.einsum("swi,swi->sw", proj, proj), np.inf)
    keep = np.flatnonzero([err is None for err in errors])
    rotations = _embedding_rotations(frames[keep])
    out.rotation[slots[keep]] = rotations
    n_frames = np.ascontiguousarray(rotations[:, :, m:])
    residual_tol = CURVE_RESIDUAL_SPACINGS * f.sample_spacing
    stops = _fill_stops(f_q)
    work = Workspace()  # the surface fill's arrays, reused block to block
    # rows are independent; blocks of rows keep the fill's arrays in cache
    for a in range(0, len(keep), _SOLVE_ROWS[m]):
        b = slice(a, a + _SOLVE_ROWS[m])
        js = keep[b]
        qs = bases[js].tolist()
        if not analytic:
            on_disk, fill_errors = _fill_simplex_rows(
                f, bases[js], frames[js], n_frames[b], members[js],
                counts[js], r)
        elif m == 1:
            w = np.max(counts[js]) + 2  # ends past the block's rims: padding
            on_disk, failed, res_max = _solve_curve_rows(
                ev, f_q[js], frames[js, :, 0], n_frames[b], ends[js, :w],
                i_lo[js], i_hi[js], nodes[:, 0], residual_tol)
            fill_errors = [InsufficientSamplingError(
                f"patch at sample {q} is not resolved out to its rim" if fail
                else f"patch at sample {q} has a chart node the curve does not"
                f" reach (residual {res:.1e})") if fail or not res <= residual_tol
                else None for q, fail, res in zip(qs, failed, res_max.tolist())]
        else:
            w = np.max(counts[js])  # the block's own padded width
            # each node's nearest member p, by |p|^2 - 2 x.p, and one Newton
            # step from it
            near = np.argmin(proj_sq[js, None, :w] - 2 * np.matmul(
                nodes, np.swapaxes(proj[js, :w], 1, 2)), axis=2)
            # each node's eight member scalars, taken into fill buffers that
            # hold nothing until the fill runs
            index = near + members.shape[1] * js[:, None]
            taken = chain(*(work.take(name, (c,) + index.shape)
                            for name, c in _START_BUFFERS))
            t = _tangent_steps([np.take(row, index, out=out, mode="clip")
                                for row, out in zip(scalars, taken)], nodes)
            for s, p in zip(*np.nonzero(singular[js, :w])):
                # the parameters of the member's nearest mesh neighbour
                at, nb = near[s] == p, f.neighbors(members[js[s], p])
                gap = nodes[at, None] - (f.positions[nb] - f_q[js[s]]) @ \
                    frames[js[s]]
                t[s, at] = f.params[nb[np.argmin(
                    np.einsum("tki,tki->tk", gap, gap), axis=1)]]
            on_disk, failed = _fill_surface_rows(ev, f_q[js], frames[js],
                                                 n_frames[b], t, nodes,
                                                 stops[js], work)
            del near, index, t  # before the slope scan
            fill_errors = [NotAGraphError(
                f"grid fill did not converge on the patch at sample {q}")
                if fail else None for q, fail in zip(qs, failed.tolist())]
        u = np.full((len(js), len(x_grid), k), np.nan)
        u[:, in_disk] = on_disk
        off_center = np.max(np.abs(u[:, len(x_grid) // 2]), axis=1) > \
            1e4 * stops[js]
        lams, du = _lambda_on_grid(u, step, plan)
        u = u.reshape((len(js),) + valid.shape + (k,))
        out.u[slots[js]] = u
        out.du[slots[js]] = du.reshape(u.shape + du.shape[3:])
        out.slope[slots[js]] = lams
        for j, q, fill, oc in zip(js.tolist(), qs, fill_errors,
                                  off_center.tolist()):
            errors[j] = fill or (NotAGraphError(
                f"patch at {q} does not pass through f(q)") if oc else None)
    for i, err in zip(slots.tolist(), errors):
        out.errors[i] = err
    out.slope[slots[[err is not None for err in errors]]] = np.nan


def _fill_simplex_rows(f, bases, frames, n_frames, members, counts, r):
    """Heights (S, T, k) over the T disk nodes of the chart B_r of the
    polygon or triangle mesh through raw samples, and each row's
    InsufficientSamplingError or None.  A node takes the barycentric mix of
    the corner heights of the first edge or face that covers it in the
    chart among those at the row's component (on a surface, and at its
    mesh neighbours: faces past the rim reach into the disk), trying the
    nodes of each bounding box.  One of rank < m in the chart covers
    nothing; a bare disk node fails its row."""
    (corners, ptr, star), n, s_rows = f._simplices, len(f), len(bases)
    step, axis, x_grid, in_disk = _chart_grid(f.m, r)
    m, g, n_simplices = f.m, len(axis), corners.shape[1]
    row = np.repeat(np.arange(s_rows), counts)
    ids = members[np.arange(members.shape[1]) < counts[:, None]]
    # distinct keys by a sort (return_index): np.unique's hash is far slower
    if m == 2:  # and their mesh neighbours
        at, held = _csr_rows(f._indptr, ids)
        row, ids = np.divmod(np.unique(np.concatenate(
            [row * n + ids, np.repeat(row * n, held) + f._indices[at]]),
            return_index=True)[0], n)
    at, held = _csr_rows(ptr, ids)
    row, simplex = np.divmod(np.unique(np.repeat(row, held) * n_simplices
                                       + star[at], return_index=True)[0],
                             n_simplices)
    # corner c of simplex p lies at x[c, p] in the chart, z[c, p] above it
    rel = np.take(f.positions, np.take(corners, simplex, axis=1), axis=0) \
        - np.take(f.positions[bases], row, axis=0)
    x = np.einsum("cpn,pnm->cpm", rel, np.take(frames, row, axis=0))
    z = np.einsum("cpn,pnk->cpk", rel, np.take(n_frames, row, axis=0))
    # the weights of corners 1..m at a point y are (y - x[0]) @ adj / det,
    # with e @ adj = det I, so that trace(e @ adj) = m det
    e = np.moveaxis(x[1:] - x[0], 0, 1)
    adj = np.ones_like(e) if m == 1 else \
        np.swapaxes(e[:, ::-1, ::-1], 1, 2) * [[1, -1], [-1, 1]]
    det = np.einsum("pij,pji->p", e, adj) / m
    solid = np.abs(det) > 1e-12 * np.sum(e * e, axis=(1, 2)) ** (m / 2)
    # the grid nodes of every bounding box, those on its sides whatever the
    # rounding, at flat grid indices (the last axis runs fastest)
    lo = np.maximum(np.ceil((x.min(axis=0) + r) / step - 1e-6), 0).astype(int)
    span = np.maximum(np.minimum(np.floor((x.max(axis=0) + r) / step + 1e-6),
                                 g - 1) + 1 - lo, 0).astype(int)
    per = np.where(solid, np.prod(span, axis=1), 0)
    cand = np.repeat(np.arange(len(row)), per)
    rest = np.arange(len(cand)) - np.repeat(np.cumsum(per) - per, per)
    node = np.take(lo[:, -1], cand) + rest % np.take(span[:, -1], cand)
    if m == 2:
        node += (np.take(lo[:, 0], cand) + rest // np.take(span[:, 1], cand)) * g
    w = np.ascontiguousarray(np.einsum(  # (m, Q): fast sums over m
        "qi,qij->jq", np.take(x_grid, node, axis=0) - np.take(x[0], cand, 0),
        np.take(adj, cand, axis=0))) / np.take(det, cand)
    inside = np.flatnonzero((w.min(axis=0) >= -1e-12)
                            & (w.sum(axis=0) <= 1.0 + 1e-12))
    # the first covering simplex of every (row, node)
    cover, first = np.unique(row[cand[inside]] * len(x_grid) + node[inside],
                             return_index=True)
    pick = inside[first]
    s = cand[pick]
    heights = np.full((s_rows * len(x_grid), z.shape[-1]), np.nan)
    heights[cover] = z[0, s] + np.einsum("jq,jqk->qk", w[:, pick],
                                         z[1:, s] - z[0, s])
    heights = heights.reshape(s_rows, len(x_grid), -1)[:, in_disk]
    return heights, [None if not bare.any() else InsufficientSamplingError(
        f"chart node {x_grid[in_disk][np.argmax(bare)].round(4).tolist()} "
        f"of the patch at sample {q} lies on no edge or face near it")
        for q, bare in zip(bases.tolist(), np.isnan(heights[..., 0]))]


def _chart_grid(m, r):
    """Grid step, axis, (G^m, m) chart nodes and disk mask of the chart B_r."""
    cells = GRID_CELLS_PER_RADIUS[m]
    axis = np.linspace(-r, r, 2 * cells + 1)
    x_grid = np.stack(np.meshgrid(*[axis] * m, indexing="ij"), axis=-1).reshape(-1, m)
    in_disk = np.einsum("ij,ij->i", x_grid, x_grid) <= r * r * (1 + 1e-12)
    return r / cells, axis, x_grid, in_disk


def _derivative_1d(u, step):
    """Node-wise derivative along axis -2 of (..., G, k) graph values:
    second-order central inside, one-sided at the rim."""
    du = np.empty_like(u)
    du[..., 1:-1, :] = (u[..., 2:, :] - u[..., :-2, :]) / (2 * step)
    du[..., 0, :] = (-3 * u[..., 0, :] + 4 * u[..., 1, :] - u[..., 2, :]) / (2 * step)
    du[..., -1, :] = (3 * u[..., -1, :] - 4 * u[..., -2, :] + u[..., -3, :]) / (2 * step)
    return du


# the derivative stencils along a grid axis, in the order they win at a
# node: the offsets (in steps along the axis) whose nodes each one reads,
# and the derivative at node i from u(d), the values d steps from i
_STENCILS = [
    ((-1, 1), lambda u, step: (u(1) - u(-1)) / (2 * step)),
    ((1, 2), lambda u, step: (-3 * u(0) + 4 * u(1) - u(2)) / (2 * step)),
    ((-1, -2), lambda u, step: (3 * u(0) - 4 * u(-1) + u(-2)) / (2 * step)),
    ((1,), lambda u, step: (u(1) - u(0)) / step),
    ((-1,), lambda u, step: (u(0) - u(-1)) / step),
]


def _stencil_plan(valid):
    """The stencil of every node of a (G, G) grid mask, per grid axis:
    (axis, flat offset of one step, stencil, flat indices of the valid
    nodes that take it).  A node takes the first of ``_STENCILS`` whose
    nodes are all valid: central inside, one-sided at the rim."""
    g = len(valid)
    pad = np.pad(valid, 2)
    plan = []
    for axis, unit in ((0, g), (1, 1)):
        ok = {d: np.roll(pad, -d, axis)[2:-2, 2:-2].ravel()
              for d in range(-2, 3)}
        free = ok[0]  # valid nodes without a stencil yet
        for needs, stencil in _STENCILS:
            take = free & np.logical_and.reduce([ok[d] for d in needs])
            free = free & ~take
            plan.append((axis, unit, stencil, np.flatnonzero(take)))
    return plan


def _derivative_2d(u, plan, step):
    """Du: (S, G*G, k, 2) of (S, G*G, k) values on a grid with the stencil
    ``plan``; NaN at nodes without a stencil."""
    du = np.full(u.shape + (2,), np.nan)
    with np.errstate(invalid="ignore"):  # rows that did not converge
        for axis, unit, stencil, i in plan:
            du[..., axis][:, i] = stencil(lambda d: u[:, i + d * unit], step)
    return du


def _lambda_on_grid(u, step, plan=None):
    """Slopes sup ||Du|| of (S, G, k) curve values, or of (S, G*G, k)
    surface values with the stencil ``plan`` of their grid, one per row,
    and Du: (S, G, k) on a curve, (S, G*G, k, 2) else."""
    du = _derivative_1d(u, step) if plan is None else \
        _derivative_2d(u, plan, step)
    ds = [du] if plan is None else [du[..., 0], du[..., 1]]
    norm_sq = sum(np.sum(d * d, axis=-1) for d in ds)
    return np.sqrt(np.nanmax(norm_sq, axis=-1)), du


def extract_graph_patch(f: SampledImmersion, q: int, plane: Subspace,
                        r: float) -> GraphPatch:
    """Extract the local graph of f over ``plane`` through f(q) on B_r: its
    ``q_component``, then the one-row block build ``check_r_lambda`` runs."""
    members = q_component(f, q, plane, r)[None]
    rows = PatchRows.empty(f, r, [q])
    _component_patches(f, rows, np.array([0]), plane.frame[None], members,
                       np.array([members.shape[1]]))
    if rows.errors[0] is not None:
        raise rows.errors[0]
    return rows.graph_patch(f, 0)


def planes_for(f: SampledImmersion, ids, rule, r: float,
               lam: float) -> tuple[np.ndarray, list]:
    """The (S, n, m) frames at sample ids under a rule of ``PLANE_RULES``
    and one error per row (None, or the error of a NaN frame), resolved in
    one pass.  An id out of range, or the tangent rule without an
    evaluator, gives an InputError; a thin best-fit seed ball an
    InsufficientSamplingError."""
    if rule not in PLANE_RULES:
        raise InputError(f"unknown plane rule {rule!r}")
    ids = np.asarray(ids, dtype=int).reshape(-1)
    frames = np.full((len(ids), f.n, f.m), np.nan)
    if rule == "tangent" and (f.evaluator is None or f.params is None):
        return frames, [InputError("tangent rule needs an analytic "
                                   "evaluator")] * len(ids)
    inside = (ids >= 0) & (ids < len(f))
    frames[inside], found = (
        f.best_fit_planes(ids[inside], delta(1, r, lam)) if rule == "best-fit"
        else (f.tangent_planes(ids[inside]), [None] * len(ids)))
    found = iter(found)
    return frames, [next(found) if ok else InputError(
        f"sample id {q} out of range")
        for q, ok in zip(ids.tolist(), inside.tolist())]


def planes_of(planes) -> np.ndarray:
    """The frames of a ``planes_for`` pair; raises its first error."""
    for err in planes[1]:
        if err is not None:
            raise err
    return planes[0]


@dataclass
class CheckReport:
    passed: bool
    r: float
    lam: float
    worst_lambda: float
    worst_sample: int
    lambdas: np.ndarray
    plane_rule: str

    def to_dict(self):
        return {"passed": bool(self.passed), "r": self.r, "lambda": self.lam,
                "worst_lambda": self.worst_lambda,
                "worst_sample": int(self.worst_sample),
                "plane_rule": self.plane_rule}


def _store_key(r, lam, plane_rule):
    """What a patch depends on: a best-fit plane on lambda through its seed
    radius delta_1, a tangent plane not at all."""
    return (r, plane_rule, delta(1, r, lam)) if plane_rule == "best-fit" \
        else (r, plane_rule)


def graph_patches(f: SampledImmersion, ids, r: float, lam: float,
                  plane_rule) -> tuple[PatchRows, np.ndarray]:
    """The patches at sample ids from f's patch store: the ``PatchRows`` of
    one ``_store_key``, built once per sample, and the row of each id in
    them.  The misses take one ``_block_patches`` pass over the frames of
    one ``planes_for`` pass, so a sample without a plane fails alone.  Only
    the misses before the first stored error or out-of-range id in ``ids``
    order are built, up to the first plane error, which is stored: no later
    sample can fail first.  The first failure in ``ids`` order is raised
    with its type and a ``sample {q}:`` prefix."""
    rows, index = f._patch_store.setdefault(
        _store_key(r, lam, plane_rule),
        (PatchRows.empty(f, r, []), np.full(len(f), -1)))
    ids = np.asarray(ids, dtype=int).reshape(-1)
    at, failed = _stored_rows(rows, index, ids)
    stop = int(np.argmax(failed)) if failed.any() else len(ids)
    missing = ids[:stop][at[:stop] < 0]
    missing = missing[np.sort(np.unique(missing, return_index=True)[1])]
    if len(missing):
        frames, errors = planes_for(f, missing, plane_rule, r, lam)
        cut = next((i + 1 for i, err in enumerate(errors) if err is not None),
                   len(missing))
        index[missing[:cut]] = len(rows.bases) + np.arange(cut)
        rows.extend(_block_patches(f, missing[:cut],
                                   (frames[:cut], errors[:cut]), r))
        at, failed = _stored_rows(rows, index, ids)
    if failed.any():
        q, a = (int(v[np.argmax(failed)]) for v in (ids, at))
        err = rows.errors[a] if a >= 0 else \
            InputError(f"sample id {q} out of range")
        raise type(err)(f"sample {q}: {err}")
    return rows, at


def _stored_rows(rows, index, ids):
    """The row of each of ``ids`` in ``rows`` by its (N,) ``index`` (-1 for
    none), and whether the id is out of range or its row failed: a failed
    row's slope is NaN."""
    inside = (ids >= 0) & (ids < len(index))
    at = np.where(inside, index[ids % len(index)], -1)
    # a row of -1 reads the appended 0.0, which does not fail
    return at, ~inside | np.isnan(np.append(rows.slope, 0.0)[at])


def check_r_lambda(f: SampledImmersion, r: float, lam: float,
                   plane_rule="tangent", *, sample_ids=None) -> CheckReport:
    """Verify the local-graph condition ||Du|| <= lambda at every sample.

    The patches come from ``graph_patches``, so nets, fields and
    correspondences read the check's patches instead of building them again.
    The first failure in ``ids`` order is raised with a ``sample {q}:`` prefix.
    """
    if not (0 < r < math.inf and 0 < lam < math.inf):
        raise InputError("need r > 0 and lambda > 0, both finite")
    if plane_rule not in PLANE_RULES:
        raise InputError(f"unknown plane rule {plane_rule!r}")
    ids = np.asarray(range(len(f)) if sample_ids is None else sample_ids,
                     dtype=int).reshape(-1)
    if not len(ids):
        raise InputError("need at least one sample to check")
    lambdas = np.full(len(f), np.nan)
    rows, at = graph_patches(f, ids, r, lam, plane_rule)
    lambdas[ids] = rows.slope[at]
    worst = int(np.nanargmax(lambdas))
    return CheckReport(bool(np.nanmax(lambdas) <= lam), r, lam,
                       float(lambdas[worst]), worst, lambdas, plane_rule)


def passes_stored_check(f: SampledImmersion, r: float, lam: float,
                        plane_rule) -> bool:
    """Whether f's patch store holds a patch with slope <= lambda at every
    sample, so that ``check_r_lambda`` would pass without building one."""
    rows, index = f._patch_store.get(_store_key(r, lam, plane_rule),
                                     (None, [-1]))
    # a failed row's slope is NaN
    return np.min(index) >= 0 and bool(np.all(rows.slope[index] <= lam))


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
    coincide in R^n (within ``COINCIDENCE_TOL``) while carrying distinct ids;
    such a patch adds no quotient.  Two members whose projections differ by
    at most 1e-14 while their heights differ by more than 1e-12 make the
    quotient infinite.  After ``best_fit_planes``, each block of rows takes
    one component pass and one quotient pass.
    """
    frames = planes_of(f.best_fit_planes(range(len(f)), delta(1, r, lam)))
    normals = complement_frames(frames)
    quotients = np.zeros(len(f))
    violations = []
    for a in range(0, len(f), _PASS_ROWS):
        qs = np.arange(a, min(a + _PASS_ROWS, len(f)))
        members, counts = _padded_components(f, qs, frames[qs], r)
        points = f.positions[members]
        rel = points - f.positions[qs, None]
        quotients[qs], found = (_curve_quotients if f.m == 1 else
                                _pairwise_quotients)(
            points, counts, rel @ frames[qs], rel @ normals[qs])
        violations += [(int(members[s, i]), int(members[s, j]))
                       for s, i, j in found]
    quotients[np.isnan(quotients)] = 0.0  # a NaN quotient never counts
    worst_q = int(np.argmax(quotients)) if np.max(quotients) > 0 else -1
    worst = float(quotients[worst_q]) if worst_q >= 0 else 0.0
    injective = not violations
    passed = injective and worst <= lam
    return FunctionCheckReport(passed, r, lam, worst, worst_q, injective,
                               violations)


def _pairwise_quotients(points, counts, proj, heights):
    """Per row s of padded (S, W, .) member points, projections and heights
    with (S,) ``counts``: the largest |dz| / |dx| over all member pairs, and
    the first coincident pair (s, i, j), i < j, of every row with one."""
    quotients, found = np.zeros(len(counts)), []
    for s, c in enumerate(counts.tolist()):
        dx, dz, damb = (np.linalg.norm(v[s, :c, None] - v[s, None, :c], axis=2)
                        for v in (proj, heights, points))
        upper = np.triu(np.ones((c, c), dtype=bool), k=1)
        coincident = np.argwhere(upper & (damb < COINCIDENCE_TOL))
        if len(coincident):
            found.append((s, *coincident[0].tolist()))
        elif np.any(upper & (dx <= 1e-14) & (dz > 1e-12)):
            quotients[s] = math.inf  # not a graph over the plane
        else:
            quotients[s] = max_quotient(dz[upper], dx[upper])
    return quotients, found


def _curve_quotients(points, counts, proj, heights):
    """``_pairwise_quotients`` of curve patches from one sort by x.

    In x order, sup |dz| / |dx| over all member pairs is the sup over
    adjacent pairs: for x_i < x_l < x_j, |z_j - z_i| <= |z_j - z_l| +
    |z_l - z_i|.  Coincidence and collisions are not left to adjacency: the
    rows with two members within 2 ``COINCIDENCE_TOL`` in x, the only rows
    that can hold either, compare all their member pairs.
    """
    key = np.where(np.arange(proj.shape[1]) < counts[:, None], proj[..., 0],
                   np.inf)
    order = np.argsort(key, axis=1, kind="stable")
    x, z = (np.take_along_axis(v, order[..., None], axis=1)
            for v in (proj, heights))
    key = np.take_along_axis(key, order, axis=1)
    dx = np.linalg.norm(np.diff(x, axis=1), axis=2)
    dz = np.linalg.norm(np.diff(z, axis=1), axis=2)
    keep = np.isfinite(key[:, 1:]) & (dx > 1e-14)
    with np.errstate(divide="ignore", invalid="ignore"):  # inf - inf, 0 / 0
        quotients = np.max(np.where(keep, dz / dx, 0.0), axis=1, initial=0.0)
        ties = np.nonzero(np.any(np.diff(key, axis=1) < 2 * COINCIDENCE_TOL,
                                 axis=1))[0]
    quotients[ties], found = _pairwise_quotients(
        points[ties], counts[ties], proj[ties], heights[ties])
    return quotients, [(ties[s], i, j) for s, i, j in found]


@dataclass
class GraphSystem:
    """Patches (A_j, u_j) over a common radius and grid, one per net point:
    A_j(x) = rotations[j] x + translations[j]."""

    rotations: np.ndarray     # (s, n, n)
    translations: np.ndarray  # (s, n)
    grids: np.ndarray         # (s, G, k) stacked graph values (m=1)
    radius: float


def graph_system_distance(g1: GraphSystem, g2: GraphSystem) -> float:
    """Sum over patches of ||R - R~||_op + |T - T~| + ||u - u~||_C0.

    Each term is one pass over the stack of patches, and the sum runs in
    patch order, so the total is that of a patch-by-patch loop bit for bit.
    """
    if g1.grids.shape != g2.grids.shape or g1.radius != g2.radius:
        raise DimensionMismatchError("graph systems have mismatched shapes")
    rot = np.max(np.linalg.svd(g1.rotations - g2.rotations, compute_uv=False),
                 axis=-1)
    tra = g1.translations - g2.translations
    # a row times a column is the dot product the norm of one vector takes
    tra = np.sqrt((tra[:, None, :] @ tra[:, :, None])[:, 0, 0])
    sup = np.nanmax(difference_norms(g1.grids, g2.grids).reshape(
        len(g1.grids), -1), axis=1)
    return float(np.cumsum(rot + tra + sup)[-1])
