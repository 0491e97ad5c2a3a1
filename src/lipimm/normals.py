"""Averaged normal machinery: cutoff, direction fields, and normal-space means.

In codimension one, a unit normal is chosen per net chart, sign-aligned
between charts, and averaged with a smooth cutoff into a nonvanishing field S
whose span is globally well defined.  In higher codimension the same weights
drive Dirac mixtures of normal k-spaces whose Riemannian centers of mass give
the averaged normal N(q).  All bounds carry the explicit constants
L = [3(1+lambda)]^(6m+4)/r, gamma = pi/4 + arctan(lambda)/2,
sigma = cos^2(gamma) / (2 L (1+lambda)), and 4^(12m+6)/r.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InputError,
    InvariantViolationError,
    LipimmError,
    RegimeError,
    WellDefinednessError,
)
from ._util import unchecked
from .grassmann import (
    Subspace,
    complement_frames,
    geodesic_distances,
    worst_image_hausdorff,
)
from .karcher import DiracMixture, karcher_means
from .immersion import (
    SampledImmersion,
    _bilinear,
    _csr_rows,
    _csr_take,
    planes_for,
    planes_of,
)
from .nets import DeltaNet, _net_on

RAMP_WIDTH = 0.25  # cutoff slope plateau 1/(1 - RAMP_WIDTH) = 4/3
SPAN_TOL = 1e-9  # rad; chart spans of S must agree this well on overlaps


def _bump_ramp(x):
    """C-infinity monotone 0 -> 1 transition on [0, 1]."""
    x = np.clip(x, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(x > 0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
        b = np.where(x < 1, np.exp(-1.0 / np.maximum(1.0 - x, 1e-300)), 0.0)
    return a / (a + b)


_RAMP_GRID = np.linspace(0.0, 1.0, 65537)
_RAMP_VALUES = _bump_ramp(_RAMP_GRID)
# cumulative integral of the ramp by Simpson on the dense grid
_RAMP_INTEGRAL = np.concatenate([
    [0.0],
    np.cumsum((_RAMP_VALUES[1:] + _RAMP_VALUES[:-1]) / 2) * (_RAMP_GRID[1] - _RAMP_GRID[0]),
])


def _ramp_integral(x):
    return np.interp(np.clip(x, 0.0, 1.0), _RAMP_GRID, _RAMP_INTEGRAL)


@dataclass(frozen=True)
class CutoffSpec:
    """Smooth cutoff g: 1 below ``inner``, 0 above 1, slope within [-2, 0].

    The descending step integrates a plateau profile of height 1/(1 - a)
    (a = 1/4) with smooth bump ramps, so max |g'| = 4 / (3 (1 - inner)) <= 2
    for every inner <= 1/3.
    """

    inner: float

    def __post_init__(self):
        if not 0 < self.inner <= 1.0 / 3.0 + 1e-12:
            raise InputError("cutoff inner radius must lie in (0, 1/3]")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise InputError("cutoff argument must be nonnegative")
        s = (t - self.inner) / (1.0 - self.inner)
        mid = np.clip(1.0 - self._step(np.clip(s, 0.0, 1.0)), 0.0, 1.0)
        return np.where(t < self.inner, 1.0, np.where(t > 1.0, 0.0, mid))

    @staticmethod
    def _step(s):
        a = RAMP_WIDTH
        v = 1.0 / (1.0 - a)
        low = v * a * _ramp_integral(s / a)
        mid = v * (a / 2.0 + (s - a))
        high = v * (a / 2.0 + (1.0 - 2.0 * a)) + v * a * (0.5 - _ramp_integral((1.0 - s) / a))
        return np.where(s < a, low, np.where(s <= 1.0 - a, mid, high))


def make_cutoff(lam: float) -> CutoffSpec:
    """Cutoff with inner radius delta_1 / r = 1 / (3 (1 + lambda))."""
    return CutoffSpec(1.0 / (3.0 * (1.0 + lam)))


@dataclass(frozen=True)
class ConstantsBundle:
    m: int
    lam: float
    r: float
    L_codim1: float
    L_highercodim: float
    gamma: float
    epsilon: float
    sigma: float
    Lambda: float
    Lambda_sharp: float

    def to_dict(self):
        return {"m": self.m, "lambda": self.lam, "r": self.r,
                "L_codim1": self.L_codim1,
                "L_highercodim": self.L_highercodim,
                "gamma": self.gamma, "cos_gamma": math.cos(self.gamma),
                "epsilon": self.epsilon, "sigma": self.sigma,
                "Lambda": self.Lambda, "Lambda_sharp": self.Lambda_sharp}


def constants(m: int, lam: float, r: float) -> ConstantsBundle:
    """All pipeline constants for dimension m, slope lambda, patch radius r."""
    if m < 1 or not (0 <= lam < math.inf and 0 < r < math.inf):
        raise InputError("need m >= 1, lambda >= 0 and r > 0, both finite")
    big_l = (3.0 * (1.0 + lam)) ** (6 * m + 4) / r
    gamma = math.pi / 4 + 0.5 * math.atan(lam)
    eps = math.cos(gamma) / big_l
    sigma = math.cos(gamma) ** 2 / (2.0 * big_l * (1.0 + lam))
    lam_big = (1.0 + math.tan(gamma)) * (1.0 + lam + r * big_l)
    return ConstantsBundle(m, lam, r, big_l, 4.0 ** (12 * m + 6) / r, gamma,
                           eps, sigma, lam_big, 2.0 * (1.0 + lam) ** 2)


def chart_normals(net: DeltaNet, js, sample_ids):
    """The unit normals nu_j of every chart j of ``js`` at its member
    samples, stacked in chart order, in one pass over the patch store's rows
    of the charts: row i of the CSR pair ``sample_ids`` = (ids, ptr) holds
    the samples of chart js[i].

    Membership in U_{delta_0, q_j} is found by one ``searchsorted`` over the
    keys j * N + id of ``member_stack(0)``.  The chart coordinates are
    ``chart_coords``'s (c, n) @ (n, m) product, for the charts of one row
    count in one stacked product, which is each chart's own bit for bit.
    """
    rows, at = net.patches(js)
    js = np.asarray(js, dtype=int).reshape(-1)
    ids, ptr = sample_ids
    counts = np.diff(ptr)
    members, offsets = net.member_stack(0)
    n = max(len(net.f), 1 + int(ids.max(initial=0)))
    keys = np.repeat(np.arange(len(net)) * n, np.diff(offsets)) + members
    wanted = np.repeat(js * n, counts) + ids
    found = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    missing = (keys[found] != wanted) | (ids < 0)
    if np.any(missing):
        i = int(np.argmax(missing))
        raise InputError(f"sample {ids[i]} is not a member of the patch at "
                         f"sample {net.points[wanted[i] // n]}")
    frames = rows.rotation[at, :, :net.f.m]
    x = np.empty((len(ids), net.f.m))
    for count in set(counts.tolist()) - {0}:
        same = np.flatnonzero(counts == count)
        block = ptr[same, None] + np.arange(count)
        x[block] = (net.f.positions[ids[block]]
                    - net.f.positions[net.points[js[same]], None]) \
            @ frames[same]
    return _unit_normals(rows.rotation[at], counts,
                         _chart_slopes(rows, at, counts, x))


def _chart_slopes(rows, at, counts, x):
    """Du of the patch at row at[j] of ``rows`` at the next counts[j] rows
    of the (R, m) chart coordinates x, for all charts at once: on curves by
    ``np.interp``'s formula over the shared nodes, on surfaces bilinear,
    from a chart's ``_inpaint`` grid where one of its rows reads a NaN
    cell."""
    chart = np.repeat(at, counts)
    xp = rows.x_nodes
    if x.shape[1] == 1:
        fp = rows.du[..., 0]
        x = x[:, 0]
        j = np.clip(np.searchsorted(xp, x, "right") - 1, 0, len(xp) - 2)
        left, right = fp[chart, j], fp[chart, j + 1]
        slope = (right - left) / (xp[j + 1] - xp[j])
        du = np.where(x == xp[j], left, slope * (x - xp[j]) + left)
        du = np.where(x >= xp[-1], fp[chart, -1],
                      np.where(x < xp[0], fp[chart, 0], du))
        return du[:, None]
    grids = rows.du[..., 0, :]
    du = _bilinear(xp, grids, x, chart)
    bad = ~np.all(np.isfinite(du), axis=1)
    for row in np.unique(chart[bad]).tolist():  # inpainting keeps finite cells
        own = chart == row
        du[own] = _bilinear(xp, _inpaint(grids[row]), x[own])
    return du


def _unit_normals(rotations, counts, du):
    """The graph normals (-Du, 1) / |(-Du, 1)| of the rows ``du``, counts[j]
    rows per chart, through chart j's (n, n) rotation; charts with one row
    count share one stacked product, which is each chart's own product bit
    for bit."""
    normal = np.concatenate([-du, np.ones((len(du), 1))], axis=1)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    starts = np.cumsum(counts) - counts
    for count in set(counts.tolist()) - {0}:
        same = np.flatnonzero(counts == count)
        rows = starts[same, None] + np.arange(count)
        normal[rows] = normal[rows] @ np.swapaxes(rotations[same], 1, 2)
    return normal


def _inpaint(grid):
    """Replace NaN derivative cells by neighbor means for interpolation only."""
    out = grid.copy()
    for _ in range(3):
        bad = np.isnan(out[..., 0])
        if not np.any(bad):
            break
        padded = np.pad(out, ((1, 1), (1, 1), (0, 0)), constant_values=np.nan)
        stacks = np.stack([padded[2:, 1:-1], padded[:-2, 1:-1],
                           padded[1:-1, 2:], padded[1:-1, :-2]])
        counts = np.sum(~np.isnan(stacks), axis=0)
        with np.errstate(invalid="ignore"):
            fill = np.nansum(stacks, axis=0) / np.maximum(counts, 1)
        fill[counts == 0] = np.nan  # isolated corners stay unfilled this pass
        out[bad] = fill[bad]
    return np.nan_to_num(out, nan=0.0)


class DirectionField:
    """Global projection direction: S and T = S/|S| per sample.

    The charts' S and T rows follow the rows of the net's
    ``member_stack(3)``; each sample's T is its first chart's.
    """

    def __init__(self, f, net, t_global, s_norm, chart_of, overlap_max,
                 s_vals, t_vals):
        self.f = f
        self.net = net
        self.T = t_global                # (N, n), sign from the owning chart
        self.S_norm = s_norm             # (N,)
        self.chart_of = chart_of         # (N,) owning chart index
        self.overlap_span_max = overlap_max
        self._S, self._T = s_vals, t_vals
        self._quotients = None           # T's chart quotients, all charts

    def chart_field(self, j: int):
        """Chart j's delta_3-member ids with their S and T values."""
        self.net._point(j)
        ids, ptr = self.net.member_stack(3)
        rows = slice(ptr[j], ptr[j + 1])
        return ids[rows], self._S[rows], self._T[rows]


def _cutoff_atoms(f: SampledImmersion, net: DeltaNet, ids: np.ndarray):
    """The delta_2-cover atoms of samples ``ids``, in one pass: each atom's
    row in ``ids``, its net index k and its cutoff weight g_k (0 kept)."""
    charts, ptr = net.cover_index(2)
    at, count = _csr_rows(ptr, ids)
    rows, ks = np.repeat(np.arange(len(ids)), count), charts[at]
    dist = np.linalg.norm(f.positions[net.points[ks]]
                          - f.positions[ids[rows]], axis=1)
    return rows, ks, make_cutoff(net.lam).value(dist / net.delta(2))


def _chart_sums(f: SampledImmersion, net: DeltaNet, js: np.ndarray,
                ids: np.ndarray):
    """S at the pairs (chart js[i], sample ids[i]): the sum of g_k w_k over
    the cover atoms, each plane normal w_k signed against chart js[i]'s
    normal at its center.  Atoms of weight 0 count in the sum and in the
    angle check.

    Returns the (len(ids), n) sums and None, or the first failing pair and
    its error.
    """
    rows, ks, g = _cutoff_atoms(f, net, ids)
    patches, at = net.patches()
    w = patches.rotation[at, :, f.m]
    # each chart's normal at its center, its base sample at x = 0
    centers = chart_normals(net, range(len(net)),
                            (net.points, np.arange(len(net) + 1)))
    counts = np.bincount(rows, minlength=len(ids))
    starts = np.cumsum(counts) - counts
    dots = np.empty(len(ks))
    sums = np.zeros((len(ids), f.n))
    # per atom count: a product over zero-padded rows can differ in the
    # last bit from the product over the row's own atoms
    for count in set(counts.tolist()) - {0}:
        same = np.nonzero(counts == count)[0]
        atoms = starts[same, None] + np.arange(count)
        normals = w[ks[atoms]]
        dots[atoms] = (normals @ centers[js[same], :, None])[..., 0]
        signed = g[atoms] * np.where(dots[atoms] >= 0, 1.0, -1.0)
        sums[same] = (signed[:, None, :] @ normals)[:, 0]
    angles = np.arccos(np.clip(np.abs(dots), 0.0, 1.0))
    arctan_lam = math.atan(net.lam)
    failing = counts == 0
    failing[rows[angles > arctan_lam + 1e-9]] = True
    if not np.any(failing):
        return sums, None
    i = int(np.argmax(failing))
    if counts[i] == 0:
        return sums, (i, InvariantViolationError(
            f"sample {ids[i]} is not covered at delta_2 scale; the net is "
            f"not fine enough (level >= 4 required)"))
    own = slice(starts[i], starts[i] + counts[i])
    return sums, (i, InvariantViolationError(
        f"plane normal of chart {ks[own][np.argmax(angles[own])]} is "
        f"{np.max(angles[own]):.4f} rad from chart {js[i]}'s reference "
        f"normal, beyond arctan(lambda) = {arctan_lam:.4f}"))


def direction_field(f: SampledImmersion, net: DeltaNet) -> DirectionField:
    """Build the global direction field and check chart-overlap agreement.

    Chart representatives S_j may differ by a global sign between charts;
    their spans must agree on every overlap sample to ``SPAN_TOL``.  All
    (chart, delta_3-member) pairs are solved as one stack.  An error names
    the first chart j that fails: its first failing member row, else its
    |S| bound, else its first failing overlap row.
    """
    if f.n != f.m + 1:
        raise DimensionMismatchError("direction field needs codimension 1")
    if net.level < 4:
        raise InputError("direction field needs a net of level >= 4 "
                         "(a delta_4-net) for the lower bound on |S|")
    ids, offsets = net.member_stack(3)
    js = np.repeat(np.arange(len(net)), np.diff(offsets))
    s_vals, failure = _chart_sums(f, net, js, ids)
    norms = np.linalg.norm(s_vals, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_vals = s_vals / norms[:, None]
    # a sample's first chart owns it; its other charts are overlaps
    owned, first, owner = np.unique(ids, return_index=True,
                                    return_inverse=True)
    owner = first[owner]
    overlaps = np.nonzero(owner != np.arange(len(ids)))[0]
    u, v = t_vals[owner[overlaps]], t_vals[overlaps]
    v = np.where((np.vecdot(u, v) < 0)[:, None], -v, v)
    # the angle between the spanned lines, from the rejection: stable near 0
    rej = u - np.vecdot(u, v)[:, None] * v
    spans = np.arcsin(np.clip(np.sqrt(np.vecdot(rej, rej)), 0.0, 1.0))

    failures = [] if failure is None else [(js[failure[0]], 0, failure[1])]
    lower = 1.0 / (1.0 + net.lam)
    small = np.nonzero(norms < lower - 1e-12)[0]
    if len(small):
        j = js[small[0]]
        chart = js == j
        failures.append((j, 1, InvariantViolationError(
            f"|S| = {np.min(norms[chart]):.6f} < (1+lambda)^-1 = "
            f"{lower:.6f} at sample {ids[chart][np.argmin(norms[chart])]} "
            f"in chart {j}")))
    wide = np.nonzero(spans > SPAN_TOL)[0]
    if len(wide):
        i, p = overlaps[wide[0]], ids[overlaps[wide[0]]]
        failures.append((js[i], 2, WellDefinednessError(
            f"span of S disagrees by {spans[wide[0]]:.3e} rad at sample {p} "
            f"between charts {js[owner[i]]} and {js[i]}")))
    if failures:
        raise min(failures, key=lambda failing: failing[:2])[2]
    if len(owned) < len(f):
        raise InvariantViolationError(
            f"{len(f) - len(owned)} samples not covered by any delta_3-chart")
    # every sample is owned, so ``owned`` is 0..N-1
    return DirectionField(f, net, t_vals[first], norms[first], js[first],
                          float(np.max(spans, initial=0.0)), s_vals, t_vals)


@dataclass
class AngleBoundReport:
    gamma: float
    precondition_ok: bool
    worst_hausdorff: float
    hausdorff_bound: float
    worst_angle: float
    holds: bool

    to_dict = asdict


def transfer_net(net: DeltaNet, f_other: SampledImmersion) -> DeltaNet:
    """Reuse a net's point ids and plane rule on a companion immersion."""
    if (len(f_other), f_other.m, f_other.n) != (len(net.f), net.f.m, net.f.n):
        raise DimensionMismatchError(
            "companion immersion must share the sample grid and dimensions")
    frames = planes_of(planes_for(f_other, net.points, net.plane_rule, net.r,
                                  net.lam))
    return _net_on(f_other, net.r, net.lam, net.level, net.points, frames,
                   net.plane_rule)


def angle_bound_check(field: DirectionField, f_other: SampledImmersion,
                      chart_ids=None) -> AngleBoundReport:
    """Check angle(T(q), nu_j(p)) <= gamma = pi/4 + arctan(lambda)/2.

    The closeness precondition bounds the Hausdorff distance between the
    chart normal images of the two immersions by pi/4 - arctan(lambda)/2;
    precondition failure is reported distinctly from conclusion failure.
    """
    net = field.net
    lam = net.lam
    gamma = math.pi / 4 + 0.5 * math.atan(lam)
    bound_h = math.pi / 4 - 0.5 * math.atan(lam)
    net_other = net if f_other is field.f else transfer_net(net, f_other)
    ids = np.array(list(range(len(net)) if chart_ids is None else chart_ids),
                   dtype=int)
    same = net_other is net
    if not len(ids):
        return AngleBoundReport(gamma, True, 0.0, bound_h, 0.0, True)
    nets = (net,) if same else (net, net_other)
    sets = [_csr_take(n.member_stack(1), ids) for n in nets]
    images = [chart_normals(n, ids, s) for n, s in zip(nets, sets)]
    img_other, starts = images[-1], sets[-1][1]
    counts = np.diff(starts)
    # |T . nu| (span-level angles: sign free) of each chart's delta_3-member
    # rows of T and its delta_1 images, one stacked product per shape
    t_starts = net.member_stack(3)[1]
    t_counts = np.diff(t_starts)[ids]
    shapes = t_counts * (counts.max() + 1) + counts
    dots = []
    for shape in np.unique(shapes).tolist():
        at = np.flatnonzero(shapes == shape)
        t_vals = field._T[t_starts[ids[at], None]
                          + np.arange(t_counts[at[0]])]
        nu = img_other[starts[at, None] + np.arange(counts[at[0]])]
        dots.append(np.abs(t_vals @ np.swapaxes(nu, 1, 2)).reshape(-1))
    worst_angle = float(np.max(np.arccos(np.clip(np.concatenate(dots), 0.0,
                                                 1.0))))
    # Hausdorff distance between (closures of) the chart normal images,
    # insensitive to the overall sign choice of either chart normal; an
    # image is at distance exactly 0 from itself
    worst_h = 0.0
    if not same:
        (a, b), (a_ptr, b_ptr) = images, [ptr for _, ptr in sets]
        worst_h = worst_image_hausdorff(a, (np.arange(len(a)), a_ptr),
                                        b, (np.arange(len(b)), b_ptr),
                                        lines=False)
    pre_ok = worst_h < bound_h
    return AngleBoundReport(gamma, pre_ok, worst_h, bound_h, worst_angle,
                            bool(pre_ok and worst_angle <= gamma + 1e-12))


@dataclass
class LipschitzReport:
    empirical: float
    bound: float
    holds: bool
    chart: int

    to_dict = asdict


def field_lipschitz_check(field: DirectionField, j: int) -> LipschitzReport:
    """Empirical chart-Lipschitz constant of T against [3(1+lam)]^(6m+4)/r:
    chart j of one ``chart_quotients`` call over all charts, kept by the
    field."""
    net = field.net
    net._point(j)
    if field._quotients is None:
        field._quotients = net.chart_quotients(
            range(len(net)),
            lambda a, b: np.linalg.norm(field._T[a] - field._T[b], axis=-1))
    bound = (3.0 * (1.0 + net.lam)) ** (6 * net.f.m + 4) / net.r
    emp = float(field._quotients[j])
    return LipschitzReport(emp, bound, emp <= bound, j)


class NormalMeasureField:
    """Per-sample Dirac mixtures of chart normal spaces and their means.

    The chart and sample normal spaces are resolved once, as two stacks.
    The mixtures of a list of samples are built in one pass, and their
    means solved as one stack; each sample's mean is solved once per field.
    """

    def __init__(self, f: SampledImmersion, net: DeltaNet):
        if net.lam > 0.25:
            raise RegimeError(
                "averaged normal spaces need lambda <= 1/4")
        self.f = f
        self.net = net
        self._chart_frames = complement_frames(net.frames)
        self._sample_frames = complement_frames(
            f.tangent_planes(range(len(f))))
        self._means = np.empty(self._sample_frames.shape)
        self._solved = np.zeros(len(f), dtype=bool)
        self._quotients = None  # N's chart quotients, all charts
        self.support_bound = math.pi / 12

    def _mixtures(self, ids: np.ndarray):
        """The cutoff-weighted mixtures at samples ``ids``, built in one pass.

        Returns their (S, A) chart indices and weights, padded to the largest
        atom count A with weight-0 copies of each row's first atom; each
        row's atom count and support margin (its atoms' largest distance to
        nu(q)); and None, or the first failing row and its error.
        """
        rows, ks, raw = _cutoff_atoms(self.f, self.net, ids)
        keep = raw > 0
        ks, raw, rows = ks[keep], raw[keep], rows[keep]
        counts = np.bincount(rows, minlength=len(ids))
        slot = np.arange(len(ks)) - (np.cumsum(counts) - counts)[rows]
        shape = (len(ids), max(int(counts.max(initial=0)), 1))
        charts = np.zeros(shape, dtype=int)
        charts[rows[slot == 0]] = ks[slot == 0, None]
        charts[rows, slot] = ks
        weights, margin = np.zeros(shape), np.zeros(shape)
        weights[rows, slot] = raw
        margin[rows, slot] = geodesic_distances(
            self._chart_frames[ks], self._sample_frames[ids[rows]])
        # each row's sum as a sum over its own atoms, in numpy's order
        for count in set(counts.tolist()) - {0}:
            same = counts == count
            weights[same] /= weights[same, :count].sum(axis=1)[:, None]
        worst = np.max(margin, axis=1)
        failing = (counts == 0) | (worst >= self.support_bound)
        if not np.any(failing):
            return charts, weights, counts, worst, None
        row = int(np.argmax(failing))
        q = int(ids[row])
        if counts[row] == 0:
            error = InvariantViolationError(
                f"sample {q} is not covered at delta_2 scale")
        else:
            error = InvariantViolationError(
                f"normal space of chart {charts[row, np.argmax(margin[row])]} "
                f"is {worst[row]:.4f} rad from nu({q}), at or beyond pi/12")
        return charts, weights, counts, worst, (row, error)

    def measure(self, q: int) -> DiracMixture:
        charts, weights, counts, _, failure = self._mixtures(np.array([q]))
        if failure:
            raise failure[1]
        atoms = charts[0, :counts[0]]
        return DiracMixture(
            tuple(unchecked(Subspace, frame=self._chart_frames[k])
                  for k in atoms), weights[0, :counts[0]])

    def support_margins(self, ids) -> np.ndarray:
        """Each sample's largest atom distance to nu(q), below pi/12."""
        *_, margins, failure = self._mixtures(np.asarray(ids, dtype=int))
        if failure:
            raise failure[1]
        return margins

    def support_margin(self, q: int) -> float:
        return float(self.support_margins([q])[0])

    def means(self, ids) -> np.ndarray:
        """The averaged normals N(q) of samples ``ids``, as (S, n, k) frames:
        centers of mass in B_{pi/6}(nu(q)), solved as one stack.

        An error names the first sample in ``ids`` whose mixture or mean
        fails, as ``mean`` on that sample alone does.
        """
        ids = np.asarray(ids, dtype=int)
        todo = ids[~self._solved[ids]]
        todo = todo[np.sort(np.unique(todo, return_index=True)[1])]
        if len(todo):
            charts, weights, _, _, failure = self._mixtures(todo)
            solve = todo[:len(todo) if failure is None else failure[0]]
            if len(solve):
                centers = self._sample_frames[solve]
                means = karcher_means(self._chart_frames[charts[:len(solve)]],
                                      weights[:len(solve)], centers,
                                      1e-10).means
                outside = geodesic_distances(means, centers) >= math.pi / 6
                if np.any(outside):
                    raise InvariantViolationError(
                        f"averaged normal left B_(pi/6)(nu("
                        f"{solve[np.argmax(outside)]}))")
                self._means[solve] = means
                self._solved[solve] = True
            if failure:
                raise failure[1]
        return self._means[ids]

    def mean(self, q: int) -> Subspace:
        """The averaged normal N(q): a one-sample ``means``."""
        return unchecked(Subspace, frame=self.means([q])[0])


def n_lipschitz_check(nfield: NormalMeasureField, j: int) -> LipschitzReport:
    """Empirical chart-Lipschitz constant of N against 4^(12m+6)/r: chart j
    of one ``chart_quotients`` call over all charts, kept by the field.
    Where a mean fails, chart j takes a call of its own, which raises only
    for a failure at its own members."""
    net = nfield.net
    net._point(j)
    bound = 4.0 ** (12 * nfield.f.m + 6) / net.r
    if nfield._quotients is None:
        try:
            nfield._quotients = _n_quotients(nfield, range(len(net)))
        except LipimmError:
            emp = float(_n_quotients(nfield, [j])[0])
            return LipschitzReport(emp, bound, emp <= bound, j)
    emp = float(nfield._quotients[j])
    return LipschitzReport(emp, bound, emp <= bound, j)


def _n_quotients(nfield: NormalMeasureField, js) -> np.ndarray:
    """N's chart quotients of the charts ``js``, with the means at the
    members of those with at least two members solved as one stack."""
    ids, offsets = nfield.net.member_stack(3)
    js = np.asarray(js, dtype=int)
    rows = _csr_rows(offsets, js[np.diff(offsets)[js] >= 2])[0]
    means = np.empty((len(ids),) + nfield._means.shape[1:])
    if len(rows):
        means[rows] = nfield.means(ids[rows])
    return nfield.net.chart_quotients(
        js, lambda a, b: geodesic_distances(means[a], means[b]))
