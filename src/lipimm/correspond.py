"""Projection-built correspondences between nearby immersions, and the
convergence harness that produces and verifies a Lipschitz-graph limit.

For every source sample p the target point is the unique transversal
intersection of the fiber through f1(p) (the line along the direction field
in codimension one, the affine normal-space fiber in higher codimension)
with the target's local graph over the chart covering p.  On analytic
targets the root is solved at parameter level, so the identity
correspondence is exact to round-off.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    ClosenessError,
    DimensionMismatchError,
    InputError,
    NonTransversalError,
)
from ._util import bracketed_newton, rounding_floor
from .grassmann import complement_frames, worst_image_hausdorff
from .immersion import (
    GraphSystem,
    SampledImmersion,
    check_r_lambda,
    check_r_lambda_function,
    graph_system_distance,
)
from .nets import DeltaNet, build_net
from .normals import (
    DirectionField,
    NormalMeasureField,
    constants,
    direction_field,
    transfer_net,
)

# largest |<f2(theta) - f1(p), c>| of a fiber root, in target sample spacings
FIBER_RESIDUAL_SPACINGS = 1e-7
# refined target points closer than this many target sample spacings coincide
COINCIDENCE_SPACINGS = 1e-7


def fiber_residual_tol(target: SampledImmersion) -> float:
    """Largest |residual| of a fiber root on ``target``, which scales with
    it: ``FIBER_RESIDUAL_SPACINGS`` target sample spacings."""
    return FIBER_RESIDUAL_SPACINGS * target.sample_spacing


# ---------------------------------------------------------------------------
# closeness preconditions


@dataclass
class ClosenessReport:
    graph_distance: float
    graph_threshold: float
    graph_ok: bool
    hausdorff_worst: float
    hausdorff_bound: float
    hausdorff_ok: bool
    charts: int

    @property
    def strict_ok(self):
        return self.graph_ok and self.hausdorff_ok

    to_dict = asdict


def _sample_normals_codim1(f: SampledImmersion) -> np.ndarray:
    """A continuous global unit normal at every sample (codimension one)."""
    if f.evaluator is None:
        raise InputError("closeness checks need analytic evaluators")
    if f.m == 1:
        tan = f.evaluator.tangent_frame(f.params)
        return np.column_stack([-tan[:, 1], tan[:, 0]])
    jac = f.evaluator.jacobian(f.params)
    normal = np.cross(jac[..., 0], jac[..., 1])
    return normal / np.linalg.norm(normal, axis=1, keepdims=True)


def _chart_hausdorff(net1: DeltaNet, net2: DeltaNet, vec1, vec2, lines: bool):
    """Worst per-chart Hausdorff distance between chart direction images."""
    return worst_image_hausdorff(vec1, net1.member_stack(1),
                                 vec2, net2.member_stack(1), lines=lines)


def closeness_report(f1: SampledImmersion, f2: SampledImmersion,
                     net1: DeltaNet, net2: DeltaNet,
                     g1: GraphSystem, g2: GraphSystem) -> ClosenessReport:
    """Both closeness gauges: graph-system distance and normal-image
    Hausdorff distance, against their formula thresholds.

    ``g1`` and ``g2`` are the graph systems of ``net1`` and ``net2``.  An
    immersion compared with itself on one net is at distance 0 in both
    gauges (identical unit vectors are at chord distance exactly 0); the
    gauges are not computed then.
    """
    lam, r = net1.lam, net1.r
    cb = constants(f1.m, lam, r)
    threshold = cb.sigma / (3.0 * (1.0 + lam) * (1.0 + r))
    same = f1 is f2 and net1 is net2
    g_dist = 0.0 if same else graph_system_distance(g1, g2)
    bound_h = math.pi / 4 - 0.5 * math.atan(lam)
    if same:
        worst_h = 0.0
    elif f1.n == f1.m + 1:
        worst_h = _chart_hausdorff(net1, net2, _sample_normals_codim1(f1),
                                   _sample_normals_codim1(f2), lines=False)
    else:
        # higher codimension: tangent-line images in the Grassmann metric
        # stand in for the sphere images (complement map is an isometry)
        worst_h = _chart_hausdorff(net1, net2,
                                   f1.evaluator.tangent_frame(f1.params),
                                   f2.evaluator.tangent_frame(f2.params),
                                   lines=True)
    return ClosenessReport(g_dist, threshold, g_dist < threshold,
                           worst_h, bound_h, worst_h < bound_h, len(net1))


def graph_system(net: DeltaNet) -> GraphSystem:
    rows, at = net.patches()
    return GraphSystem(rows.rotation[at], net.f.positions[net.points],
                       rows.u[at], rows.radius)


# ---------------------------------------------------------------------------
# fiber roots on analytic targets


def _project_to_curve(f2: SampledImmersion, net2: DeltaNet, chart: np.ndarray,
                      anchors: np.ndarray, constraints: np.ndarray):
    """Solve <f2(theta) - anchor, c> = 0 per sample on chart components.

    ``constraints`` is one unit vector per sample, orthogonal to its fiber;
    transversality makes the residual strictly monotone on the chart, so
    bracketed Newton over the delta_1-member parameter bracket finds the
    unique root.  Returns the roots, their points and a flag per sample:
    its bracket changed sign and the root's residual is at most
    ``fiber_residual_tol``.
    """
    ev = f2.evaluator
    period = ev.period
    spacing = period / len(f2)
    # each chart's bracket: its delta_1-members' parameters unwrapped around
    # t_q, widened by two spacings
    ids, ptr = net2.member_stack(1)
    t_q = np.repeat(f2.params[net2.points], np.diff(ptr))
    t_m = t_q + (f2.params[ids] - t_q + period / 2) % period - period / 2
    lo = (np.minimum.reduceat(t_m, ptr[:-1]) - 2 * spacing)[chart]
    hi = (np.maximum.reduceat(t_m, ptr[:-1]) + 2 * spacing)[chart]

    def residual(points):
        return np.einsum("ij,ij->i", points - anchors, constraints)

    def residual_slope(theta):
        points, velocity = ev.point_jacobian(theta)
        last[:] = [points]
        return (residual(points),
                np.einsum("ij,ij->i", velocity, constraints))

    last = []
    r_lo = residual(ev.point(lo))
    r_hi = residual(ev.point(hi))
    ok = r_lo * r_hi <= 0
    theta, _, confirm = bracketed_newton(residual_slope, lo, hi, r_lo, r_hi,
                                         rounding_floor(anchors))
    # the roots' points, from the last Newton evaluation where it was at them
    points = last[0]
    points[confirm] = ev.point(theta[confirm])
    # a sign change without a root (the target jumps across the fiber)
    # leaves a residual: that fiber missed
    ok &= np.abs(residual(points)) <= fiber_residual_tol(f2)
    return theta, points, ok


# ---------------------------------------------------------------------------
# the correspondence


@dataclass
class Correspondence:
    source: SampledImmersion
    target: SampledImmersion
    net: DeltaNet
    net_target: DeltaNet
    phi_points: np.ndarray       # (N, n) target points on the fibers
    phi_params: np.ndarray       # (N,) target curve parameters
    nearest_target: np.ndarray   # (N,) nearest target sample ids
    chart_used: np.ndarray       # (N,) net chart per source sample
    fiber_offsets: np.ndarray    # (N,) |f2(phi(p)) - f1(p)|
    line_residual_max: float     # worst off-fiber component (definitional)
    chart_consistency_max: float  # worst disagreement between covering charts
    closeness: ClosenessReport
    # the chart quotients of f2 . phi over all charts, once asked for
    _quotients: np.ndarray | None = field(default=None, repr=False,
                                          compare=False)

    def max_displacement(self) -> float:
        return float(np.max(self.fiber_offsets))


def build_correspondence(f1: SampledImmersion, f2: SampledImmersion,
                         net: DeltaNet,
                         proj_field: DirectionField | NormalMeasureField,
                         *, strict: bool = False,
                         net_target: DeltaNet | None = None) -> Correspondence:
    """Project every source sample along its fiber onto the target graph.

    The formula closeness gauges are always evaluated and reported;
    with ``strict`` they gate the construction (precondition unmet -> error,
    no projection attempted).  Otherwise projection proceeds whenever the
    fibers actually meet the target charts, which holds far beyond the
    conservative formula thresholds.
    """
    if len(f1) != len(f2) or f1.m != f2.m or f1.n != f2.n:
        raise DimensionMismatchError(
            "correspondence needs companion immersions on one sample grid")
    if f2.evaluator is None:
        raise InputError("the target immersion needs an analytic evaluator")
    net2 = net_target if net_target is not None else transfer_net(net, f2)
    g1 = graph_system(net)
    g2 = g1 if net2 is net else graph_system(net2)
    closeness = closeness_report(f1, f2, net, net2, g1, g2)
    if strict and not closeness.strict_ok:
        raise ClosenessError(
            f"closeness preconditions unmet: graph distance "
            f"{closeness.graph_distance:.3e} vs threshold "
            f"{closeness.graph_threshold:.3e}, Hausdorff "
            f"{closeness.hausdorff_worst:.3e} vs {closeness.hausdorff_bound:.3e}; "
            f"no projection attempted")

    n_samples = len(f1)
    anchors = f1.positions
    if isinstance(proj_field, DirectionField):
        chart = proj_field.chart_of
        # constraint: unit vector orthogonal to the fiber line (codim 1, m=1)
        if f1.m != 1:
            raise InputError("correspondences are built for curves here")
        t_vecs = proj_field.T
        constraints = np.column_stack([-t_vecs[:, 1], t_vecs[:, 0]])
        second_chart = _covering_chart(proj_field.net, 1)
    else:
        chart = _covering_chart(net, 0)
        if np.any(chart < 0):
            raise InputError(f"sample {int(np.argmax(chart < 0))} is not "
                             f"covered at delta_3 scale")
        # higher codimension: the fiber is p + N(p); the constraint spans its
        # m-dimensional complement
        constraints = np.ascontiguousarray(complement_frames(
            proj_field.means(range(n_samples)))[:, :, 0])
        second_chart = _covering_chart(net, 1)

    theta, points, ok = _project_to_curve(f2, net2, chart, anchors,
                                          constraints)
    if not np.all(ok):
        missing = int(np.count_nonzero(~ok))
        raise ClosenessError(
            f"{missing} fibers missed the target charts; the immersions are "
            f"not close enough for the projection")
    offsets = np.linalg.norm(points - anchors, axis=1)
    line_residual = float(np.max(np.abs(
        np.einsum("ij,ij->i", points - anchors, constraints))))

    # chart independence: recompute through a second covering chart
    has_second = second_chart >= 0
    if np.any(has_second):
        _, pts2, ok2 = _project_to_curve(f2, net2, second_chart[has_second],
                                         anchors[has_second],
                                         constraints[has_second])
        consistency = float(np.max(np.where(
            ok2, np.linalg.norm(points[has_second] - pts2, axis=1), 0.0)))
    else:
        consistency = 0.0

    nearest = _nearest_params(f2, theta)
    return Correspondence(f1, f2, net, net2, points, theta, nearest, chart,
                          offsets, line_residual, consistency, closeness)


def _covering_chart(net: DeltaNet, rank: int) -> np.ndarray:
    """Per sample, the net index at ``rank`` of its delta_3 cover, or -1.

    Cover rows run in chart order, so rank 0 is the chart a direction field
    takes a sample's T from, and rank 1 the chart that cross-checks it.
    """
    charts, ptr = net.cover_index(3)
    at = np.minimum(ptr[:-1] + rank, len(charts) - 1)
    return np.where(np.diff(ptr) > rank, charts[at], -1)


def _nearest_params(f2: SampledImmersion, theta: np.ndarray) -> np.ndarray:
    period = f2.evaluator.period
    spacing = period / len(f2)
    return np.mod(np.round(theta / spacing).astype(int), len(f2))


# ---------------------------------------------------------------------------
# bijectivity and Lipschitz verification


@dataclass
class BijectivityReport:
    injective: bool
    surjective: bool
    nearest_collisions: int
    refined_min_separation: float
    surjectivity_tolerance: float
    coverage_gaps: list

    def to_dict(self):
        return {"injective": bool(self.injective),
                "surjective": bool(self.surjective),
                "nearest_collisions": self.nearest_collisions,
                "refined_min_separation": self.refined_min_separation,
                "surjectivity_tolerance": self.surjectivity_tolerance,
                "coverage_gaps": [int(g) for g in self.coverage_gaps[:32]]}


def verify_bijectivity(c: Correspondence) -> BijectivityReport:
    """Sample-scale injectivity and surjectivity of the correspondence.

    Nearest-sample collisions are expected at sub-sample displacements; they
    are resolved by comparing the refined target points, and two that
    coincide within ``COINCIDENCE_SPACINGS`` target sample spacings make
    the map non-injective.
    Surjectivity asks every target sample to lie within twice the target
    sample spacing of some projected point.
    """
    order = np.argsort(c.nearest_target, kind="stable")
    _, starts, counts = np.unique(c.nearest_target[order], return_index=True,
                                  return_counts=True)
    refined_min = math.inf
    for start, count in zip(starts[counts > 1], counts[counts > 1]):
        pts = c.phi_points[order[start:start + count]]
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        refined_min = min(refined_min,
                          float(np.min(d[np.triu_indices(count, k=1)])))

    tol = 2.0 * c.target.sample_spacing
    # arc-parameter proximity is the right gauge on closed curves
    period = c.target.evaluator.period
    params_sorted = np.sort(np.mod(c.phi_params, period))
    t = np.mod(c.target.params, period)
    i = np.searchsorted(params_sorted, t)
    near = params_sorted[np.stack([i, i - 1], axis=1) % len(params_sorted)]
    dist = np.abs(t[:, None] - near)
    d = np.min(np.minimum(dist, period - dist), axis=1)
    speed = np.linalg.norm(c.target.evaluator.jacobian(t), axis=1)
    gaps = np.nonzero(d * speed > tol)[0].tolist()
    coincide = COINCIDENCE_SPACINGS * c.target.sample_spacing
    return BijectivityReport(refined_min >= coincide, not gaps,
                             len(order) - len(starts), refined_min, tol, gaps)


@dataclass
class ReparametrizedLipschitzReport:
    empirical: float
    bound_formula: float
    bound_sharp: float
    holds_formula: bool
    holds_sharp: bool
    chart: int

    to_dict = asdict


def reparametrized_lipschitz(c: Correspondence, j: int) -> ReparametrizedLipschitzReport:
    """Chart-Lipschitz constant of the reparametrized target f2 . phi:
    chart j of one ``chart_quotients`` call over all charts, kept by the
    correspondence."""
    net = c.net
    net._point(j)
    if c._quotients is None:
        ids = net.member_stack(3)[0]
        c._quotients = net.chart_quotients(
            range(len(net)), lambda a, b: np.linalg.norm(
                c.phi_points[ids[a]] - c.phi_points[ids[b]], axis=-1))
    cb = constants(c.source.m, net.lam, net.r)
    emp = float(c._quotients[j])
    return ReparametrizedLipschitzReport(emp, cb.Lambda, cb.Lambda_sharp,
                                         emp <= cb.Lambda,
                                         emp <= cb.Lambda_sharp, j)


# ---------------------------------------------------------------------------
# convergence harness


@dataclass
class ConvergenceReport:
    kept: list
    dropped: list                 # (index, reason)
    closeness: list               # ClosenessReport per kept successor
    to_limit: list                # uniform distance of each kept member to the limit
    successive: list              # uniform distance between consecutive kept members
    limit: SampledImmersion | None
    limit_check: object | None
    conclusive: bool
    origin_distances: list        # min |f^i| per member (normalization record)

    def decay_table(self):
        rows = []
        for idx, i in enumerate(self.kept):
            rows.append({"member": i, "to_limit": self.to_limit[idx],
                         "successive": self.successive[idx]
                         if idx < len(self.successive) else None})
        return rows


def convergence_harness(family, r: float, lam: float, *,
                        level: int = 5) -> ConvergenceReport:
    """Project a family onto its first member's charts and verify the limit.

    Every member must pass the local-graph check.  Members whose fibers fail
    to meet the reference charts are dropped (the finite analogue of passing
    to a subsequence); the closeness gauges of the kept members are recorded.
    An input the correspondence cannot use raises ``InputError`` instead.
    The limit candidate is the last kept member's reparametrization; it must
    pass the Lipschitz-graph function check including patch injectivity.
    """
    family = list(family)
    if len(family) < 2:
        raise InputError("a family needs at least two members")
    origin_distances = [float(np.min(np.linalg.norm(f.positions, axis=1)))
                        for f in family]
    for f in family:
        rep = check_r_lambda(f, r, lam)
        if not rep.passed:
            raise InputError(
                f"family member fails the (r, lambda) check: worst "
                f"{rep.worst_lambda:.4f}")

    f1 = family[0]
    net = build_net(f1, r, lam, level)
    if f1.n != f1.m + 1:
        proj_field = NormalMeasureField(f1, net)
    else:
        proj_field = direction_field(f1, net)

    kept = [0]
    dropped = []
    closeness = []
    reparams = [f1.positions]
    for i, f_i in enumerate(family[1:], start=1):
        try:
            corr = build_correspondence(f1, f_i, net, proj_field)
        except (ClosenessError, NonTransversalError) as exc:
            dropped.append((i, str(exc)))
            continue
        kept.append(i)
        closeness.append(corr.closeness)
        reparams.append(corr.phi_points)
    if len(kept) < 2:
        return ConvergenceReport(kept, dropped, closeness, [], [], None, None,
                                 False, origin_distances)

    limit_positions = reparams[-1]
    limit = SampledImmersion(
        m=f1.m, n=f1.n, positions=limit_positions,
        neighbors=[f1.neighbors(i) for i in range(len(f1))])
    to_limit = [float(np.max(np.linalg.norm(p - limit_positions, axis=1)))
                for p in reparams]
    successive = [float(np.max(np.linalg.norm(a - b, axis=1)))
                  for a, b in zip(reparams, reparams[1:])]
    limit_check = check_r_lambda_function(limit, r, lam)
    return ConvergenceReport(kept, dropped, closeness, to_limit, successive,
                             limit, limit_check, True, origin_distances)
