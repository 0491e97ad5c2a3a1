import dataclasses
import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipimm.correspond import (
    _chart_hausdorff,
    _covering_chart,
    build_correspondence,
    closeness_report,
    convergence_harness,
    graph_system,
    reparametrized_lipschitz,
    verify_bijectivity,
)
import lipimm.correspond as correspond_mod
import lipimm.grassmann as grassmann_mod
import lipimm.immersion as immersion_mod
import lipimm.nets as nets_mod
from lipimm import _util
from lipimm.errors import ClosenessError, InputError, InsufficientSamplingError
from lipimm.grassmann import Subspace, hausdorff_of, sphere_angle_matrix
from lipimm.immersion import (
    EuclideanIsometry,
    GraphPatch,
    GraphSystem,
    check_r_lambda,
    graph_system_distance,
)
from lipimm.nets import DeltaNet, build_net
from lipimm.normals import (
    NormalMeasureField,
    angle_bound_check,
    constants,
    direction_field,
    transfer_net,
)
from lipimm.shapes import make_shape


@pytest.fixture(scope="module")
def circle():
    return make_shape("circle", {"radius": 1.0}, 2048)


@pytest.fixture(scope="module")
def circle_net(circle):
    return build_net(circle, 0.2, 0.25, 5)


@pytest.fixture(scope="module")
def circle_dir_field(circle, circle_net):
    return direction_field(circle, circle_net)


# ---------------------------------------------------------------------------
# correspondence construction


def test_identity_correspondence_exact(circle, circle_net, circle_dir_field):
    corr = build_correspondence(circle, circle, circle_net, circle_dir_field,
                                net_target=circle_net)
    assert corr.max_displacement() <= 1e-10
    assert corr.line_residual_max <= 1e-9
    assert corr.chart_consistency_max <= 1e-9
    assert corr.closeness.graph_distance == 0.0
    assert corr.closeness.hausdorff_worst == 0.0
    assert corr.closeness.strict_ok
    assert np.array_equal(corr.nearest_target, np.arange(len(circle)))


def test_covering_chart_ranks(circle_net, circle_dir_field):
    cover = circle_net.cover_index(3)
    # cover lists run in chart order: rank 0 is the field's owning chart
    assert np.array_equal(_covering_chart(circle_net, 0),
                          circle_dir_field.chart_of)
    second = _covering_chart(circle_net, 1)
    for p, js in enumerate(cover):
        others = [j for j in js if j != circle_dir_field.chart_of[p]]
        assert second[p] == (others[0] if others else -1)
    beyond = max(len(js) for js in cover)
    assert np.all(_covering_chart(circle_net, beyond) == -1)


def test_nearby_circle_radial_identification(circle, circle_net, circle_dir_field):
    target = make_shape("circle", {"radius": 1.001}, 2048)
    corr = build_correspondence(circle, target, circle_net, circle_dir_field)
    assert corr.max_displacement() == pytest.approx(0.001, rel=1e-4)
    assert float(np.min(corr.fiber_offsets)) == pytest.approx(0.001, rel=1e-4)
    # phi is the radial identification: parameters agree
    spacing = 2 * math.pi / 2048
    dt = np.abs(np.mod(corr.phi_params - circle.params + math.pi, 2 * math.pi)
                - math.pi)
    assert np.max(dt) < spacing / 50
    assert corr.line_residual_max <= 1e-9
    assert corr.chart_consistency_max <= 1e-9


def test_fiber_roots_make_few_evaluator_calls(circle, circle_net,
                                             circle_dir_field, evaluator_calls,
                                             per_call):
    # bracket ends, a few bracketed Newton iterations of one fused point
    # and slope call each, and the points of the roots that the last
    # iteration moved, for the owning and the second covering charts
    target = make_shape("circle", {"radius": 1.001}, 2048)
    counter = evaluator_calls(target.evaluator)
    solves = per_call(correspond_mod, "_project_to_curve", counter)
    build_correspondence(circle, target, circle_net, circle_dir_field)
    assert len(solves) == 2
    assert max(solves) <= 5


def test_offset_circle_strict_closeness_refusal(circle, circle_net, circle_dir_field):
    sigma = constants(1, 0.25, 0.2).sigma
    target = make_shape("circle", {"radius": 1.0,
                                   "center": (10 * sigma, 0.0)}, 2048)
    with pytest.raises(ClosenessError):
        build_correspondence(circle, target, circle_net, circle_dir_field,
                             strict=True)
    # default policy records the violated gauge but projects anyway
    corr = build_correspondence(circle, target, circle_net, circle_dir_field)
    assert not corr.closeness.graph_ok
    assert corr.max_displacement() <= 10 * sigma + 1e-12


def test_bijectivity_identity_and_nearby(circle, circle_net, circle_dir_field):
    target = make_shape("circle", {"radius": 1.001}, 2048)
    corr = build_correspondence(circle, target, circle_net, circle_dir_field)
    report = verify_bijectivity(corr)
    assert report.injective
    assert report.surjective
    assert not report.coverage_gaps


def test_bijectivity_decimated_coverage_detected(circle, circle_net, circle_dir_field):
    target = make_shape("circle", {"radius": 1.001}, 2048)
    corr = build_correspondence(circle, target, circle_net, circle_dir_field)
    # collapse the projected points onto every eighth fiber: the surviving
    # coverage is 8 sample spacings apart, past the 2-spacing tolerance
    doctored_params = corr.phi_params.copy()
    doctored_params = doctored_params[(np.arange(len(doctored_params)) // 8) * 8]
    doctored = dataclasses.replace(corr, phi_params=doctored_params)
    report = verify_bijectivity(doctored)
    assert not report.surjective
    assert len(report.coverage_gaps) > 0


def test_bijectivity_refined_points_coinciding_within_tolerance(
        circle, circle_net, circle_dir_field):
    target = make_shape("circle", {"radius": 1.001}, 2048)
    corr = build_correspondence(circle, target, circle_net, circle_dir_field)
    # send source sample 1 to sample 0's target, 1e-12 away from it
    points = corr.phi_points.copy()
    nearest = corr.nearest_target.copy()
    points[1] = points[0] + np.array([1e-12, 0.0])
    nearest[1] = nearest[0]
    report = verify_bijectivity(dataclasses.replace(
        corr, phi_points=points, nearest_target=nearest))
    assert report.nearest_collisions >= 1
    assert report.refined_min_separation == pytest.approx(1e-12, rel=1e-3)
    assert not report.injective


@functools.cache
def dilated_correspondence(scale):
    """The radius-1.001 correspondence of circle 1024, with source, target
    and (r, lambda) = (0.2, 0.25) dilated by ``scale``."""
    source = make_shape("circle", {"radius": scale}, 1024)
    target = make_shape("circle", {"radius": 1.001 * scale}, 1024)
    net = build_net(source, 0.2 * scale, 0.25, 5)
    return build_correspondence(source, target, net,
                                direction_field(source, net))


@settings(max_examples=40, deadline=None)
@given(scale=st.sampled_from([1e-6, 1e3]),
       sample=st.integers(0, 1022),
       separation=st.sampled_from([None, 0.0, 1e-12, 1e-10, 1e-8, 1e-6,
                                   1e-4]),
       every=st.sampled_from([1, 2, 8]))
def test_bijectivity_verdicts_are_invariant_under_dilation(scale, sample,
                                                           separation, every):
    # a dilation multiplies every distance by the scale, so verdicts read
    # at sample scale must not move; ``separation`` (in target sample
    # spacings) moves the next sample's point next to this one's, and
    # keeping every ``every``-th parameter thins the coverage
    def verdicts(corr):
        points = corr.phi_points.copy()
        nearest = corr.nearest_target.copy()
        if separation is not None:
            points[sample + 1] = points[sample] + np.array(
                [separation * corr.target.sample_spacing, 0.0])
            nearest[sample + 1] = nearest[sample]
        params = corr.phi_params[(np.arange(len(points)) // every) * every]
        report = verify_bijectivity(dataclasses.replace(
            corr, phi_points=points, nearest_target=nearest,
            phi_params=params))
        return report.injective, report.surjective

    assert verdicts(dilated_correspondence(scale)) == \
        verdicts(dilated_correspondence(1.0))


def test_reparametrized_lipschitz_bounds(circle, circle_net, circle_dir_field):
    target = make_shape("circle", {"radius": 1.001}, 2048)
    corr = build_correspondence(circle, target, circle_net, circle_dir_field)
    worst = 0.0
    for j in range(0, len(circle_net), 64):
        rep = reparametrized_lipschitz(corr, j)
        assert rep.holds_formula
        assert rep.holds_sharp
        worst = max(worst, rep.empirical)
    assert worst == pytest.approx(1.001, abs=1e-2)  # chart metric distortion
    assert worst <= 3.125
    rep = reparametrized_lipschitz(corr, 0)
    assert rep.bound_formula == pytest.approx(1.2543e6, rel=1e-3)
    assert rep.bound_sharp == pytest.approx(3.125, abs=1e-12)


def test_identity_lipschitz_is_chart_distortion(circle, circle_net, circle_dir_field):
    corr = build_correspondence(circle, circle, circle_net, circle_dir_field,
                                net_target=circle_net)
    rep = reparametrized_lipschitz(corr, 10)
    # chart distortion of the circle over its tangent at delta_3 scale
    assert rep.empirical == pytest.approx(1.0, abs=1e-4)


def test_closeness_report_thresholds(circle, circle_net):
    target = make_shape("circle", {"radius": 1.001}, 2048)
    net2 = transfer_net(circle_net, target)
    rep = closeness_report(circle, target, circle_net, net2,
                           graph_system(circle_net), graph_system(net2))
    cb = constants(1, 0.25, 0.2)
    assert rep.graph_threshold == pytest.approx(
        cb.sigma / (3 * 1.25 * 1.2), rel=1e-12)
    assert rep.hausdorff_bound == pytest.approx(
        math.pi / 4 - 0.5 * math.atan(0.25), rel=1e-12)
    assert rep.hausdorff_ok
    # 2048 charts each contributing ~1e-3 make the strict graph gauge fail
    assert rep.graph_distance > rep.graph_threshold


def _chart_hausdorff_loop(net1, net2, vec1, vec2, lines):
    """The chart-by-chart gauge that ``_chart_hausdorff`` stacks."""
    worst = 0.0
    for j in range(len(net1)):
        a = vec1[net1.members(j, 1)]
        b = vec2[net2.members(j, 1)]
        plus, minus = sphere_angle_matrix(a, b), sphere_angle_matrix(a, -b)
        d = hausdorff_of(np.minimum(plus, minus)) if lines else \
            min(hausdorff_of(plus), hausdorff_of(minus))
        worst = max(worst, d)
    return worst


def _graph_distance_loop(g1, g2):
    """The patch-by-patch sum that ``graph_system_distance`` stacks."""
    total = 0.0
    for ra, rb, ta, tb, ua, ub in zip(g1.rotations, g2.rotations,
                                      g1.translations, g2.translations,
                                      g1.grids, g2.grids):
        rot = float(np.linalg.norm(ra - rb, 2))
        tra = float(np.linalg.norm(ta - tb))
        sup = float(np.nanmax(np.linalg.norm(ua - ub, axis=-1)))
        total += rot + tra + sup
    return total


def _gauge_pair(kind):
    """Two nearby immersions, a level-5 net on the first, its transfer to
    the second, and each immersion's chart direction vectors."""
    if kind == "circle":
        f = make_shape("circle", {"radius": 1.0}, 1024)
        g = make_shape("circle", {"radius": 1.001}, 1024)
        vectors = correspond_mod._sample_normals_codim1
    else:  # two members of the codim2-family
        f, g = [make_shape("circle3d", {"radius": radius, "tilt": 0.2}, 512)
                for radius in (1.5, 1.25)]
        vectors = lambda h: h.evaluator.tangent_frame(h.params)  # noqa: E731
    net = build_net(f, 0.2, 0.25, 5)
    return f, g, net, transfer_net(net, g), vectors(f), vectors(g)


@pytest.mark.parametrize("kind", ["circle", "circle3d"])
def test_stacked_gauges_equal_the_chart_loops(kind):
    f, g, net, net2, vec1, vec2 = _gauge_pair(kind)
    for lines in (False, True):
        assert _chart_hausdorff(net, net2, vec1, vec2, lines) == \
            _chart_hausdorff_loop(net, net2, vec1, vec2, lines)
    g1, g2 = graph_system(net), graph_system(net2)
    assert graph_system_distance(g1, g2) == _graph_distance_loop(g1, g2)
    assert graph_system_distance(g2, g1) == _graph_distance_loop(g2, g1)
    # moved translations, whose norms the dot product of each vector gives;
    # a NaN grid cell is passed over in its patch's sup
    rng = np.random.default_rng(7)
    g3 = dataclasses.replace(g2, grids=g2.grids.copy(),
                             translations=g2.translations
                             + rng.normal(0, 0.01, g2.translations.shape))
    g3.grids[3, :5] = np.nan
    assert graph_system_distance(g1, g3) == _graph_distance_loop(g1, g3)
    # one patch at a time, where the sum rounds no term away
    for j in range(0, len(g1.grids), 5):
        one = [GraphSystem(g.rotations[j:j + 1], g.translations[j:j + 1],
                           g.grids[j:j + 1], g.radius)
               for g in (g1, g3)]
        assert graph_system_distance(*one) == _graph_distance_loop(*one)


@pytest.mark.parametrize("n", [2, 3])
def test_chart_hausdorff_on_ragged_charts(monkeypatch, n):
    # one-member charts next to wide ones, in blocks of a few charts each
    rng = np.random.default_rng(n)
    f = make_shape("circle", {"radius": 1.0}, 256)
    vec1, vec2 = (rng.standard_normal((256, n)) for _ in range(2))
    vec1 /= np.linalg.norm(vec1, axis=1, keepdims=True)
    vec2 /= np.linalg.norm(vec2, axis=1, keepdims=True)
    vec2[:128] = vec1[:128] + 1e-3 * vec2[:128]  # near pairs and far pairs
    vec2[200] = np.nan  # a NaN chart value is passed over by the fold
    sizes1 = [1, 40, 1, 1, 3, 60, 1, 17, 2, 1, 33, 1]
    sizes2 = [1, 1, 50, 1, 7, 60, 2, 1, 1, 25, 33, 1]

    def ragged(sizes):
        sets = [[np.array([j]), np.sort(rng.choice(256, size, replace=False))]
                for j, size in enumerate(sizes)]
        sets[9][1][0] = 200
        return DeltaNet(f, 0.2, 0.25, 0, np.arange(len(sizes)),
                        [None] * len(sizes), sets)

    net1, net2 = ragged(sizes1), ragged(sizes2)
    for block in (1 << 18, 30000, 1):  # all, 4 and 1 charts a block
        monkeypatch.setattr(grassmann_mod, "HAUSDORFF_BLOCK", block)
        for lines in (False, True):
            assert _chart_hausdorff(net1, net2, vec1, vec2, lines) == \
                _chart_hausdorff_loop(net1, net2, vec1, vec2, lines)


def test_chart_hausdorff_on_wide_charts():
    # circle 4096 at level 5: 69 delta_1-members a chart, 4096 charts, in
    # blocks bounded by HAUSDORFF_BLOCK angle entries
    f = make_shape("circle", {"radius": 1.0}, 4096)
    g = make_shape("circle", {"radius": 1.001}, 4096)
    net = build_net(f, 0.2, 0.25, 5, verify_immersion=False)
    net2 = transfer_net(net, g)
    assert max(len(net.members(j, 1)) for j in range(len(net))) == 69
    vec1, vec2 = (correspond_mod._sample_normals_codim1(h) for h in (f, g))
    assert _chart_hausdorff(net, net2, vec1, vec2, False) == \
        _chart_hausdorff_loop(net, net2, vec1, vec2, False)


def test_transfer_net_keeps_the_plane_rule():
    f = make_shape("circle", {"radius": 1.0}, 512)
    target = make_shape("circle", {"radius": 1.001}, 512)
    net = build_net(f, 0.2, 0.25, 4, "best-fit")
    moved = transfer_net(net, target)
    assert moved.plane_rule == "best-fit"
    for q, frame in zip(moved.points, moved.frames):
        [best_fit], [err] = target.best_fit_planes([int(q)], net.delta(1))
        assert err is None and np.array_equal(frame, best_fit)
    # charts on matching planes move by about the 0.001 radius change;
    # tangent target planes against best-fit source planes read ~500
    dist = graph_system_distance(graph_system(net), graph_system(moved))
    assert dist < 0.01 * len(net)


def test_consumers_read_the_checked_patches(monkeypatch):
    f = make_shape("circle", {"radius": 1.0}, 512)
    g = make_shape("circle", {"radius": 1.001}, 512)
    built = {}
    real = immersion_mod._block_patches

    def recording(shape, ids, planes, r):
        rows = real(shape, ids, planes, r)
        built[id(shape)] = rows
        return rows

    monkeypatch.setattr(immersion_mod, "_block_patches", recording)
    for shape in (f, g):
        assert check_r_lambda(shape, 0.2, 0.25).passed
    assert [built[id(h)].bases.tolist() for h in (f, g)] == \
        [list(range(512))] * 2
    # from here on no patch may be built, and no check run again
    calls = []
    for module, name in [(immersion_mod, "_block_patches"),
                         (immersion_mod, "extract_graph_patch"),
                         (nets_mod, "check_r_lambda")]:
        monkeypatch.setattr(module, name,
                            lambda *args, name=name: calls.append(name))
    net = build_net(f, 0.2, 0.25, 5)
    field = direction_field(f, net)
    assert angle_bound_check(field, g).holds
    system = graph_system(net)
    corr = build_correspondence(f, g, net, field)
    assert calls == []
    # the store holds the checks' rows, each sample's at its own id
    for on, shape in ((net, f), (corr.net_target, g)):
        rows, at = on.patches()
        assert rows.u is built[id(shape)].u
        assert at.tolist() == on.points.tolist()
    assert np.array_equal(system.rotations, built[id(f)].rotation[net.points])
    assert np.array_equal(system.grids, built[id(f)].u[net.points])


def test_the_chain_builds_no_patch_objects(monkeypatch):
    # the check, a level-5 net, its field, the angle check and the graph
    # system read the patch store's arrays and the net's frame array: they
    # build no GraphPatch, no EuclideanIsometry and no Subspace, in bulk or
    # one at a time
    built = []
    init, post = GraphPatch.__init__, EuclideanIsometry.__post_init__
    check = Subspace.__post_init__
    monkeypatch.setattr(GraphPatch, "__init__", lambda self, *args: (
        built.append(GraphPatch), init(self, *args))[1])
    monkeypatch.setattr(EuclideanIsometry, "__post_init__", lambda self: (
        built.append(EuclideanIsometry), post(self))[1])
    monkeypatch.setattr(Subspace, "__post_init__", lambda self: (
        built.append(Subspace), check(self))[1])
    unchecked = _util.unchecked
    for module in list(sys.modules.values()):
        if module.__name__.startswith("lipimm.") and \
                getattr(module, "unchecked", None) is unchecked:
            monkeypatch.setattr(module, "unchecked", lambda cls, **fields: (
                built.append(cls), unchecked(cls, **fields))[1])
    f = make_shape("circle", {"radius": 1.0}, 1024)
    assert check_r_lambda(f, 0.2, 0.25).passed
    net = build_net(f, 0.2, 0.25, 5)
    field = direction_field(f, net)
    assert angle_bound_check(field, f).holds
    assert len(graph_system(net).grids) == len(net)
    assert built == []
    # the one-sample view is seen: one of each
    net.patch(0)
    assert built.count(GraphPatch) == built.count(EuclideanIsometry) == \
        built.count(Subspace) == 1
    # in codimension 2 a transferred net and the averaged normals of its
    # field read frame arrays too
    built.clear()
    g, h = (make_shape("circle3d", {"radius": radius, "tilt": 0.2}, 512)
            for radius in (1.0, 1.001))
    moved = transfer_net(build_net(g, 0.2, 0.25, 5), h)
    assert NormalMeasureField(h, moved).means(range(0, 512, 16)).shape == \
        (32, 3, 2)
    assert built == []


# ---------------------------------------------------------------------------
# higher codimension


@pytest.fixture(scope="module")
def tilted():
    return make_shape("circle3d", {"radius": 1.0, "tilt": 0.2}, 1024)


def test_higher_codim_correspondence(tilted):
    net = build_net(tilted, 0.2, 0.25, 5)
    nfield = NormalMeasureField(tilted, net)
    target = make_shape("circle3d", {"radius": 1.001, "tilt": 0.2}, 1024)
    corr = build_correspondence(tilted, target, net, nfield)
    assert corr.max_displacement() == pytest.approx(0.001, rel=1e-3)
    assert corr.line_residual_max <= 1e-9
    report = verify_bijectivity(corr)
    assert report.injective and report.surjective
    # identical tangent lines are at chord distance exactly 0
    ident = build_correspondence(tilted, tilted, net, nfield, net_target=net)
    assert ident.closeness.graph_distance == 0.0
    assert ident.closeness.hausdorff_worst == 0.0
    lines = tilted.evaluator.tangent_frame(tilted.params)
    assert _chart_hausdorff(net, net, lines, lines, lines=True) == 0.0


# ---------------------------------------------------------------------------
# convergence harness


def test_harness_constant_family(circle):
    rep = convergence_harness([circle, circle, circle], 0.2, 0.25)
    assert rep.conclusive
    assert rep.kept == [0, 1, 2]
    assert max(rep.to_limit) <= 1e-10
    assert rep.limit_check.passed


def test_harness_circle_family_decay():
    family = [make_shape("circle", {"radius": 1.0 + 2.0 ** -i}, 1024)
              for i in range(1, 6)]
    rep = convergence_harness(family, 0.2, 0.25)
    assert rep.conclusive
    assert rep.kept == [0, 1, 2, 3, 4]
    # successive uniform distances halve exactly (2^-i law)
    ratios = np.array(rep.successive[1:]) / np.array(rep.successive[:-1])
    assert np.allclose(ratios, 0.5, atol=0.01)
    # to-limit distances are non-increasing
    assert all(a >= b - 1e-12 for a, b in zip(rep.to_limit, rep.to_limit[1:]))
    assert rep.limit_check.passed
    assert rep.limit_check.injective


def test_harness_ellipse_family():
    family = [make_shape("ellipse", {"a": 1.0, "b": 1.0 - 0.06 * 2.0 ** -i}, 1024)
              for i in range(5)]
    rep = convergence_harness(family, 0.2, 0.25)
    assert rep.conclusive
    assert len(rep.kept) == 5
    assert all(a >= b - 1e-12 for a, b in zip(rep.successive, rep.successive[1:]))
    assert rep.limit_check.passed


def test_limit_graph_sandwich_property():
    # the limit's local set over a best-fit plane is a graph over almost all
    # of B_rho: projections reach both rims and leave no interior gaps, at
    # three patch radii, with a two-sample-spacing tolerance
    family = [make_shape("circle", {"radius": 1.0 + 2.0 ** -i}, 1024)
              for i in range(1, 5)]
    rep = convergence_harness(family, 0.2, 0.25)
    limit = rep.limit
    spacing = 2 * math.pi / 1024 * 1.1  # arc spacing of the reparametrization
    from lipimm.immersion import q_component
    for rho in (0.1, 0.15, 0.2):
        for q in (0, 341, 682):
            [frame], [err] = limit.best_fit_planes([q], 0.05)
            assert err is None
            plane = Subspace(frame)
            members = q_component(limit, q, plane, rho)
            proj = np.sort(
                (limit.positions[members] - limit.positions[q]) @ plane.frame[:, 0])
            assert proj[0] <= -(rho - 2 * spacing)   # covers the lower rim
            assert proj[-1] >= rho - 2 * spacing     # covers the upper rim
            assert np.max(np.diff(proj)) <= 2 * spacing  # no interior gaps
            assert proj[0] >= -rho and proj[-1] <= rho   # inside B_rho


def test_harness_records_origin_distances():
    family = [make_shape("circle", {"radius": 1.0 + 2.0 ** -i}, 512)
              for i in range(1, 4)]
    rep = convergence_harness(family, 0.2, 0.25, level=4)
    assert rep.origin_distances == pytest.approx([1.5, 1.25, 1.125], abs=1e-9)


def test_harness_raises_on_an_unusable_input():
    # correspondences are built for curves only: a family of surfaces is an
    # input error, not a member to drop from the subsequence
    family = [make_shape("torus", {"R": big_r, "r": 0.5}, "16x32")
              for big_r in (2.0, 2.001)]
    with pytest.raises(InputError):
        convergence_harness(family, 0.1, 0.25, level=4)


def test_a_chart_node_across_a_gap_fails_its_sample(gapped_circle):
    # a 1e-3 gap at pi is wider than a chart cell of r = 0.2: nodes of the
    # patches near pi fall into it, and their brackets change sign across
    # the jump without a curve point on the node
    gapped = gapped_circle(512, 1e-3)
    with pytest.raises(InsufficientSamplingError, match="does not reach"):
        check_r_lambda(gapped, 0.2, 0.25)


def test_a_fiber_across_a_gap_is_a_missed_fiber(gapped_circle):
    # the fiber through angle pi of the circle meets no point of the gapped
    # target, yet its bracket changes sign across the gap: the polished root
    # keeps a residual of about gap / 2 and must not count as found
    circle = make_shape("circle", {"radius": 1.0}, 512)
    gapped = gapped_circle(512, 1e-4)
    assert check_r_lambda(gapped, 0.2, 0.25).passed
    net = build_net(circle, 0.2, 0.25, 5)
    with pytest.raises(ClosenessError, match="^1 fibers missed"):
        build_correspondence(circle, gapped, net, direction_field(circle, net))
    rep = convergence_harness([circle, gapped], 0.2, 0.25)
    assert rep.kept == [0]
    assert [i for i, _ in rep.dropped] == [1]
    assert not rep.conclusive


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e3])
def test_root_tolerances_scale_with_the_curve(scale, gapped_circle):
    # both root tolerances count sample spacings: a dilation keeps the
    # failing chart node and the missed fiber, and the intact circle passes
    with pytest.raises(InsufficientSamplingError,
                       match="sample 242 has a chart node the curve does not"):
        check_r_lambda(gapped_circle(512, 1e-3, scale), 0.2 * scale, 0.25)
    circle = gapped_circle(512, 0.0, scale)
    assert check_r_lambda(circle, 0.2 * scale, 0.25).passed
    net = build_net(circle, 0.2 * scale, 0.25, 5)
    with pytest.raises(ClosenessError, match="^1 fibers missed"):
        build_correspondence(circle, gapped_circle(512, 1e-4, scale), net,
                             direction_field(circle, net))
