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
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CoherenceViolationError,
    DimensionMismatchError,
    InputError,
    InvariantViolationError,
    RegimeError,
    WellDefinednessError,
)
from ._util import max_quotient
from .grassmann import Subspace, geodesic_distance
from .karcher import DiracMixture, karcher_mean
from .immersion import GraphPatch, SampledImmersion, plane_for
from .nets import DeltaNet, _net_on

RAMP_WIDTH = 0.25  # cutoff slope plateau 1/(1 - RAMP_WIDTH) = 4/3


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

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        s = (t - self.inner) / (1.0 - self.inner)
        inside = (s > 0) & (s < 1)
        return np.where(inside, -self._step_slope(s) / (1.0 - self.inner), 0.0)

    @staticmethod
    def _step(s):
        a = RAMP_WIDTH
        v = 1.0 / (1.0 - a)
        low = v * a * _ramp_integral(s / a)
        mid = v * (a / 2.0 + (s - a))
        high = v * (a / 2.0 + (1.0 - 2.0 * a)) + v * a * (0.5 - _ramp_integral((1.0 - s) / a))
        return np.where(s < a, low, np.where(s <= 1.0 - a, mid, high))

    @staticmethod
    def _step_slope(s):
        a = RAMP_WIDTH
        v = 1.0 / (1.0 - a)
        return v * np.where(s < a, _bump_ramp(s / a),
                            np.where(s <= 1.0 - a, 1.0, _bump_ramp((1.0 - s) / a)))


def make_cutoff(lam: float) -> CutoffSpec:
    """Cutoff with inner radius delta_1 / r = 1 / (3 (1 + lambda))."""
    return CutoffSpec(1.0 / (3.0 * (1.0 + lam)))


def cutoff_g(t, spec: CutoffSpec):
    """Evaluate the cutoff (vectorized); see CutoffSpec for the guarantees."""
    return spec.value(t)


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
    if m < 1 or lam < 0 or r <= 0:
        raise InputError("need m >= 1, lambda >= 0, r > 0")
    big_l = (3.0 * (1.0 + lam)) ** (6 * m + 4) / r
    gamma = math.pi / 4 + 0.5 * math.atan(lam)
    eps = math.cos(gamma) / big_l
    sigma = math.cos(gamma) ** 2 / (2.0 * big_l * (1.0 + lam))
    lam_big = (1.0 + math.tan(gamma)) * (1.0 + lam + r * big_l)
    return ConstantsBundle(m, lam, r, big_l, 4.0 ** (12 * m + 6) / r, gamma,
                           eps, sigma, lam_big, 2.0 * (1.0 + lam) ** 2)


class PatchNormalField:
    """Continuous unit normal over a codimension-one graph patch.

    The normal is the graph normal (-Du, 1)/sqrt(1 + |Du|^2) carried through
    the patch isometry; its component along the isometry's last axis is
    positive, which fixes the sign deterministically.
    """

    def __init__(self, patch: GraphPatch):
        if patch.k != 1:
            raise DimensionMismatchError(
                "unit normal fields require codimension one")
        self.patch = patch
        du = patch._du  # (G, 1) for m=1; (G, G, 1, 2) for m=2
        if patch.m == 1:
            self._du_grid = du[:, 0][:, None]          # (G, 1): du/dx
        else:
            grid = du[:, :, 0, :]                      # (G, G, 2)
            self._du_grid = _inpaint(grid)

    def at(self, x) -> np.ndarray:
        """Unit normals at chart coordinates x (vectorized)."""
        p = self.patch
        if p.m == 1:
            xs = np.atleast_1d(np.asarray(x, dtype=float))
            du = np.interp(xs, p.x_nodes, self._du_grid[:, 0])[:, None]
        else:
            from .immersion import _bilinear
            du = _bilinear(p.x_nodes, self._du_grid, np.atleast_2d(x))
        graph_normal = np.concatenate([-du, np.ones((len(du), 1))], axis=1)
        graph_normal /= np.linalg.norm(graph_normal, axis=1, keepdims=True)
        return graph_normal @ self.patch.isometry.rotation.T

    def at_samples(self, sample_ids) -> np.ndarray:
        p = self.patch
        lookup = {int(s): i for i, s in enumerate(p.member_samples)}
        rows = [lookup[int(s)] for s in sample_ids]
        proj = p.member_proj[rows]
        return self.at(proj[:, 0] if p.m == 1 else proj)

    def at_center(self) -> np.ndarray:
        x0 = 0.0 if self.patch.m == 1 else np.zeros((1, 2))
        return self.at(x0)[0]


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


def unit_normal_patch(patch: GraphPatch) -> PatchNormalField:
    """Continuous, deterministically signed unit normal over a patch."""
    return PatchNormalField(patch)


def normal_space(f: SampledImmersion, q: int) -> Subspace:
    """The normal k-space of the immersion at sample q."""
    return f.tangent_plane(q).complement()


def normal_sign_alignment(f: SampledImmersion, net: DeltaNet, j: int, k: int) -> int:
    """+1 / -1 dichotomy of two chart normals on their shared delta_1-samples."""
    shared = np.intersect1d(net.members(j, 1), net.members(k, 1))
    if len(shared) == 0:
        raise InputError(f"charts {j} and {k} do not meet at delta_1 scale")
    nu_j = unit_normal_patch(net.patch(j)).at_samples(shared)
    nu_k = unit_normal_patch(net.patch(k)).at_samples(shared)
    dots = np.einsum("ij,ij->i", nu_j, nu_k)
    if np.all(dots > 0):
        return 1
    if np.all(dots < 0):
        return -1
    raise CoherenceViolationError(
        f"chart normals {j}/{k} agree on some shared samples and disagree on "
        f"others; the sampling cannot represent a valid immersion")


class DirectionField:
    """Global projection direction: S, T = S/|S|, omega = span S per sample."""

    def __init__(self, f, net, t_global, s_norm, omega, chart_of, chart_data,
                 overlap_max, cutoff):
        self.f = f
        self.net = net
        self.T = t_global                # (N, n), sign from the owning chart
        self.S_norm = s_norm             # (N,)
        self.omega = omega               # (N, n) canonical-sign span generators
        self.chart_of = chart_of         # (N,) owning chart index
        self.chart_data = chart_data     # j -> (sample ids, S values, T values)
        self.overlap_span_max = overlap_max
        self.cutoff = cutoff

    def chart_coords(self, j: int, sample_ids) -> np.ndarray:
        """pi . A_j^{-1} . f coordinates of samples in chart j."""
        q_j = int(self.net.points[j])
        rel = self.f.positions[sample_ids] - self.f.positions[q_j]
        return rel @ self.net.planes[j].frame

    def chart_field(self, j: int):
        return self.chart_data[j]


def averaged_vector_S(f: SampledImmersion, net: DeltaNet, q: int,
                      reference_j: int) -> np.ndarray:
    """The cutoff-weighted sum of sign-aligned chart-plane normals at q."""
    if f.n != f.m + 1:
        raise DimensionMismatchError("averaged vector field needs codimension 1")
    if q not in set(net.members(reference_j, 3).tolist()):
        raise InputError(f"sample {q} is not in the delta_3-patch of chart "
                         f"{reference_j}")
    cutoff = make_cutoff(net.lam)
    builder = _FieldBuilder(f, net, cutoff)
    s_vals = builder.chart_s(reference_j, np.array([q]))
    return s_vals[0]


class _FieldBuilder:
    def __init__(self, f, net, cutoff):
        self.f = f
        self.net = net
        self.cutoff = cutoff
        self.w = np.stack([net.patch(j).normal_frame()[:, 0]
                           for j in range(len(net))])
        self.nu_at_center = np.stack([
            unit_normal_patch(net.patch(j)).at_center()
            for j in range(len(net))])
        self.arctan_lam = math.atan(net.lam)
        self._weights_cache = {}

    def weights_at(self, p: int):
        if p not in self._weights_cache:
            d2 = self.net.delta(2)
            ks = self.net.cover_index(2)[p]
            dist = np.linalg.norm(
                self.f.positions[self.net.points[ks]] - self.f.positions[p],
                axis=1)
            self._weights_cache[p] = (ks, self.cutoff.value(dist / d2))
        return self._weights_cache[p]

    def signs_for_chart(self, j: int, ks: np.ndarray) -> np.ndarray:
        """Sign-fix the plane normals w_k against chart j's reference normal."""
        ref = self.nu_at_center[j]
        dots = self.w[ks] @ ref
        signs = np.where(dots >= 0, 1.0, -1.0)
        angles = np.arccos(np.clip(np.abs(dots), 0.0, 1.0))
        if np.any(angles > self.arctan_lam + 1e-9):
            k_bad = ks[int(np.argmax(angles))]
            raise InvariantViolationError(
                f"plane normal of chart {k_bad} is {np.max(angles):.4f} rad "
                f"from chart {j}'s reference normal, beyond arctan(lambda) = "
                f"{self.arctan_lam:.4f}")
        return signs

    def chart_s(self, j: int, sample_ids: np.ndarray) -> np.ndarray:
        out = np.zeros((len(sample_ids), self.f.n))
        for row, p in enumerate(sample_ids):
            ks, g_w = self.weights_at(int(p))
            if len(ks) == 0:
                raise InvariantViolationError(
                    f"sample {p} is not covered at delta_2 scale; the net is "
                    f"not fine enough (level >= 4 required)")
            signs = self.signs_for_chart(j, ks)
            out[row] = (g_w * signs) @ self.w[ks]
        return out


def direction_field(f: SampledImmersion, net: DeltaNet,
                    *, span_tol: float = 1e-9) -> DirectionField:
    """Build the global direction field and check chart-overlap agreement.

    Chart representatives S_j may differ by a global sign between charts;
    their spans must agree on every overlap sample to ``span_tol``.
    """
    if f.n != f.m + 1:
        raise DimensionMismatchError("direction field needs codimension 1")
    if net.level < 4:
        raise InputError("direction field needs a net of level >= 4 "
                         "(a delta_4-net) for the lower bound on |S|")
    cutoff = make_cutoff(net.lam)
    builder = _FieldBuilder(f, net, cutoff)
    n_samples = len(f)
    lower = 1.0 / (1.0 + net.lam)

    cover3 = net.cover_index(3)
    t_global = np.zeros((n_samples, f.n))
    s_norm = np.zeros(n_samples)
    omega = np.zeros((n_samples, f.n))
    chart_of = np.full(n_samples, -1, dtype=int)
    chart_data = {}
    overlap_max = 0.0

    for j in range(len(net)):
        ids = net.members(j, 3)
        s_vals = builder.chart_s(j, ids)
        norms = np.linalg.norm(s_vals, axis=1)
        if np.any(norms < lower - 1e-12):
            p_bad = ids[int(np.argmin(norms))]
            raise InvariantViolationError(
                f"|S| = {np.min(norms):.6f} < (1+lambda)^-1 = {lower:.6f} at "
                f"sample {p_bad} in chart {j}")
        t_vals = s_vals / norms[:, None]
        chart_data[j] = (ids, s_vals, t_vals)
        fresh = chart_of[ids] < 0
        for row, p in enumerate(ids):
            if fresh[row]:
                chart_of[p] = j
                t_global[p] = t_vals[row]
                s_norm[p] = norms[row]
                omega[p] = _canonical_sign(t_vals[row])
            else:
                # overlap: spans must agree even though signs may flip
                dist = _line_span_distance(t_global[p], t_vals[row])
                overlap_max = max(overlap_max, dist)
                if dist > span_tol:
                    raise WellDefinednessError(
                        f"span of S disagrees by {dist:.3e} rad at sample {p} "
                        f"between charts {chart_of[p]} and {j}")
    uncovered = np.nonzero(chart_of < 0)[0]
    if len(uncovered):
        raise InvariantViolationError(
            f"{len(uncovered)} samples not covered by any delta_3-chart")
    return DirectionField(f, net, t_global, s_norm, omega, chart_of,
                          chart_data, overlap_max, cutoff)


def _canonical_sign(v):
    lead = np.argmax(np.abs(v))
    return v if v[lead] >= 0 else -v


def _line_span_distance(u, v):
    """Angle between the lines spanned by unit vectors, stable near zero."""
    if float(u @ v) < 0:
        v = -v
    rej = u - float(u @ v) * v
    return float(np.arcsin(np.clip(np.linalg.norm(rej), 0.0, 1.0)))


@dataclass
class AngleBoundReport:
    gamma: float
    precondition_ok: bool
    worst_hausdorff: float
    hausdorff_bound: float
    worst_angle: float
    holds: bool

    def to_dict(self):
        return {"gamma": self.gamma,
                "precondition_ok": bool(self.precondition_ok),
                "worst_hausdorff": self.worst_hausdorff,
                "hausdorff_bound": self.hausdorff_bound,
                "worst_angle": self.worst_angle, "holds": bool(self.holds)}


def transfer_net(net: DeltaNet, f_other: SampledImmersion,
                 plane_rule="tangent") -> DeltaNet:
    """Reuse a net's point ids on a companion immersion (shared sample grid)."""
    if len(f_other) != len(net.f):
        raise DimensionMismatchError(
            "companion immersion must share the sample grid")
    planes = [plane_for(f_other, int(q), plane_rule, net.r, net.lam)
              for q in net.points]
    return _net_on(f_other, net.r, net.lam, net.level, net.points, planes,
                   plane_rule)


def angle_bound_check(field: DirectionField, f_other: SampledImmersion,
                      net_other: DeltaNet | None = None,
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
    if net_other is None:
        net_other = net if f_other is field.f else transfer_net(net, f_other)
    ids = range(len(net)) if chart_ids is None else chart_ids
    same = net_other is net

    worst_h = 0.0
    worst_angle = 0.0
    for j in ids:
        nu_self = unit_normal_patch(net.patch(j))
        nu_other = nu_self if same else unit_normal_patch(net_other.patch(j))
        img_self = nu_self.at_samples(net.members(j, 1))
        img_other = img_self if same else \
            nu_other.at_samples(net_other.members(j, 1))
        if not same:
            # Hausdorff distance between (closures of) the chart normal
            # images, insensitive to the overall sign choice of either chart
            # normal; an image is at distance exactly 0 from itself
            worst_h = max(worst_h, min(
                _hausdorff_unit(img_self, img_other),
                _hausdorff_unit(img_self, -img_other)))
        sample_ids, _, t_vals = field.chart_field(j)
        dots = np.abs(t_vals @ img_other.T)  # span-level angle: sign free
        ang = float(np.max(np.arccos(np.clip(dots, 0.0, 1.0))))
        worst_angle = max(worst_angle, ang)
    pre_ok = worst_h < bound_h
    return AngleBoundReport(gamma, pre_ok, worst_h, bound_h, worst_angle,
                            bool(pre_ok and worst_angle <= gamma + 1e-12))


def _hausdorff_unit(a, b):
    from .grassmann import sphere_angle_matrix
    angles = sphere_angle_matrix(a, b)
    return max(float(np.max(np.min(angles, axis=1))),
               float(np.max(np.min(angles, axis=0))))


@dataclass
class LipschitzReport:
    empirical: float
    bound: float
    holds: bool
    chart: int

    def to_dict(self):
        return {"empirical": self.empirical, "bound": self.bound,
                "holds": bool(self.holds), "chart": self.chart}


def field_lipschitz_check(field: DirectionField, j: int) -> LipschitzReport:
    """Empirical chart-Lipschitz constant of T against [3(1+lam)]^(6m+4)/r."""
    net = field.net
    ids, _, t_vals = field.chart_field(j)
    x = field.chart_coords(j, ids)
    bound = (3.0 * (1.0 + net.lam)) ** (6 * net.f.m + 4) / net.r
    if len(ids) < 2:
        return LipschitzReport(0.0, bound, True, j)
    dx = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
    dt = np.linalg.norm(t_vals[:, None, :] - t_vals[None, :, :], axis=2)
    emp = max_quotient(dt, dx)
    return LipschitzReport(emp, bound, emp <= bound, j)


class NormalMeasureField:
    """Per-sample Dirac mixtures of chart normal spaces and their means."""

    def __init__(self, f: SampledImmersion, net: DeltaNet):
        if net.lam > 0.25:
            raise RegimeError(
                "averaged normal spaces need lambda <= 1/4")
        self.f = f
        self.net = net
        self.cutoff = make_cutoff(net.lam)
        self._normal_spaces = [net.planes[j].complement()
                               for j in range(len(net))]
        self._mean_cache = {}
        self.support_bound = math.pi / 12

    def measure(self, q: int) -> DiracMixture:
        ks, weights, _ = self._measure_parts(q)
        atoms = tuple(self._normal_spaces[k] for k in ks)
        return DiracMixture(atoms, weights)

    def _measure_parts(self, q: int):
        ks = self.net.cover_index(2)[q]
        if len(ks) == 0:
            raise InvariantViolationError(
                f"sample {q} is not covered at delta_2 scale")
        dist = np.linalg.norm(
            self.f.positions[self.net.points[ks]] - self.f.positions[q], axis=1)
        raw = self.cutoff.value(dist / self.net.delta(2))
        keep = raw > 0
        ks, raw = ks[keep], raw[keep]
        nu_q = normal_space(self.f, q)
        margins = np.array([geodesic_distance(self._normal_spaces[k], nu_q)
                            for k in ks])
        if np.any(margins >= self.support_bound):
            k_bad = ks[int(np.argmax(margins))]
            raise InvariantViolationError(
                f"normal space of chart {k_bad} is {np.max(margins):.4f} rad "
                f"from nu({q}), at or beyond pi/12")
        return ks, raw / raw.sum(), float(np.max(margins))

    def support_margin(self, q: int) -> float:
        return self._measure_parts(q)[2]

    def mean(self, q: int) -> Subspace:
        """The averaged normal N(q): center of mass in B_{pi/6}(nu(q))."""
        if q not in self._mean_cache:
            mu = self.measure(q)
            report = karcher_mean(mu, 1e-10, center=normal_space(self.f, q))
            if geodesic_distance(report.mean, normal_space(self.f, q)) >= math.pi / 6:
                raise InvariantViolationError(
                    f"averaged normal left B_(pi/6)(nu({q}))")
            self._mean_cache[q] = report.mean
        return self._mean_cache[q]


def normal_measure(f: SampledImmersion, net: DeltaNet, q: int) -> DiracMixture:
    """The cutoff-weighted mixture of chart normal spaces at sample q."""
    return NormalMeasureField(f, net).measure(q)


def averaged_normal_N(f: SampledImmersion, net: DeltaNet, q: int) -> Subspace:
    """Center of mass of the normal-space mixture, centered at nu(q)."""
    return NormalMeasureField(f, net).mean(q)


def n_lipschitz_check(nfield: NormalMeasureField, j: int) -> LipschitzReport:
    """Empirical chart-Lipschitz constant of N against 4^(12m+6)/r."""
    net = nfield.net
    f = nfield.f
    ids = net.members(j, 3)
    q_j = int(net.points[j])
    x = (f.positions[ids] - f.positions[q_j]) @ net.planes[j].frame
    bound = 4.0 ** (12 * f.m + 6) / net.r
    if len(ids) < 2:
        return LipschitzReport(0.0, bound, True, j)
    means = [nfield.mean(int(p)) for p in ids]
    # pair by pair: a stacked norm can differ in the last bit for m >= 2,
    # and only the pairs the quotient reads need a geodesic distance
    dx = np.zeros((len(ids), len(ids)))
    dn = np.zeros_like(dx)
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            dx[a, b] = np.linalg.norm(x[a] - x[b])
            if dx[a, b] > 1e-14:
                dn[a, b] = geodesic_distance(means[a], means[b])
    emp = max_quotient(dn, dx)
    return LipschitzReport(emp, bound, emp <= bound, j)
