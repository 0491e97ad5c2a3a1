import dataclasses
import math

import numpy as np
import pytest

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
import lipimm.immersion as immersion_mod
import lipimm.nets as nets_mod
from lipimm.errors import ClosenessError, InputError
from lipimm.immersion import check_r_lambda, graph_system_distance
from lipimm.nets import build_net
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


def test_transfer_net_keeps_the_plane_rule():
    f = make_shape("circle", {"radius": 1.0}, 512)
    target = make_shape("circle", {"radius": 1.001}, 512)
    net = build_net(f, 0.2, 0.25, 4, "best-fit")
    moved = transfer_net(net, target)
    assert moved.plane_rule == "best-fit"
    for q, plane in zip(moved.points, moved.planes):
        best_fit = target.best_fit_plane(int(q), net.delta(1))
        assert np.array_equal(plane.frame, best_fit.frame)
    # charts on matching planes move by about the 0.001 radius change;
    # tangent target planes against best-fit source planes read ~500
    dist = graph_system_distance(graph_system(net), graph_system(moved))
    assert dist < 0.01 * len(net)


def test_consumers_read_the_checked_patches(monkeypatch):
    f = make_shape("circle", {"radius": 1.0}, 512)
    g = make_shape("circle", {"radius": 1.001}, 512)
    built = {}
    real = immersion_mod._analytic_patches

    def recording(shape, ids, plane_of, r):
        outcomes = real(shape, ids, plane_of, r)
        built.update({(id(shape), q): patch
                      for q, (patch, _) in zip(ids, outcomes)})
        return outcomes

    monkeypatch.setattr(immersion_mod, "_analytic_patches", recording)
    for shape in (f, g):
        assert check_r_lambda(shape, 0.2, 0.25).passed
    assert len(built) == 1024
    # from here on no patch may be built, and no check run again
    calls = []
    for module, name in [(immersion_mod, "_analytic_patches"),
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
    for j, (own, target) in enumerate(zip(net.patches(),
                                          corr.net_target.patches())):
        q = int(net.points[j])
        assert own is built[(id(f), q)]
        assert target is built[(id(g), q)]
        assert system.isometries[j] is built[(id(f), q)].isometry


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
            plane = limit.best_fit_plane(q, 0.05)
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


def gapped_circle(samples, gap):
    """The unit circle with its angles (pi - gap/2, pi + gap/2) skipped:
    the parameter runs at a rate 1 - gap/(2 pi) and jumps the gap at pi."""
    from lipimm.immersion import SampledImmersion
    from lipimm.shapes import CurveEvaluator

    rate = 1.0 - gap / (2 * math.pi)

    def angle(t):
        t = np.mod(t, 2 * math.pi)
        return rate * t + gap * (t >= math.pi)

    def point(t):
        a = angle(t)
        return np.stack([np.cos(a), np.sin(a)], axis=-1)

    def velocity(t):
        a = angle(t)
        return rate * np.stack([-np.sin(a), np.cos(a)], axis=-1)

    ev = CurveEvaluator(2, 2 * math.pi, point, velocity)
    params = np.arange(samples) * (2 * math.pi / samples)
    return SampledImmersion(1, 2, ev.point(params), params=params, evaluator=ev,
                            neighbors=[((i - 1) % samples, (i + 1) % samples)
                                       for i in range(samples)])


def test_a_fiber_across_a_gap_is_a_missed_fiber():
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
