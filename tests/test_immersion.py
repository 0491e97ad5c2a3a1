import math

import numpy as np
import pytest

from lipimm.errors import InputError, NotAGraphError
from lipimm.grassmann import orthonormalize
from lipimm.immersion import (
    EuclideanIsometry,
    GraphSystem,
    check_r_lambda,
    check_r_lambda_function,
    delta,
    extract_graph_patch,
    graph_system_distance,
    patch_intersection_check,
    q_component,
)
from lipimm.shapes import immersion_from_points, make_shape


@pytest.fixture(scope="module")
def circle():
    return make_shape("circle", {"radius": 1.0}, 4096)


def line(v):
    return orthonormalize(np.asarray(v, dtype=float)[:, None])


# ---------------------------------------------------------------------------
# delta ladder


def test_delta_ladder_values():
    assert delta(0, 0.2, 0.25) == 0.2
    assert delta(1, 0.2, 0.25) == pytest.approx(0.2 / 3.75, abs=1e-15)
    assert delta(5, 0.2, 0.25) == pytest.approx(2.6970e-4, abs=1e-7)
    ds = [delta(l, 0.2, 0.25) for l in range(7)]
    assert all(a > b for a, b in zip(ds, ds[1:]))


# ---------------------------------------------------------------------------
# q-components


def test_q_component_covers_everything_for_large_rho():
    sphere = make_shape("sphere", {"radius": 1.0}, "24x12")
    plane = sphere.tangent_plane(40)
    members = q_component(sphere, 40, plane, 10.0)
    assert len(members) == len(sphere)


def test_q_component_circle_tangent_arc(circle):
    q = 0
    plane = circle.tangent_plane(q)
    members = q_component(circle, q, plane, 0.2)
    # the tangent-line projection of the unit circle is sin(theta); the arc
    # has parameter half-width arcsin(0.2)
    half_width = math.asin(0.2)
    thetas = circle.params[members]
    thetas = (thetas + math.pi) % (2 * math.pi) - math.pi
    assert np.max(np.abs(thetas)) <= half_width + 2 * math.pi / 4096
    expected = 2 * int(half_width / (2 * math.pi / 4096)) + 1
    assert abs(len(members) - expected) <= 2


def test_disconnected_input_rejected():
    # two parallel circles bundled as one immersion: invalid at construction
    t = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    c1 = np.column_stack([np.cos(t), np.sin(t), np.zeros_like(t)])
    c2 = c1 + np.array([0.0, 0.0, 1.0])
    pts = np.vstack([c1, c2])
    neighbors = [((i - 1) % 32, (i + 1) % 32) for i in range(32)]
    neighbors += [(32 + (i - 1) % 32, 32 + (i + 1) % 32) for i in range(32)]
    from lipimm.immersion import SampledImmersion
    with pytest.raises(InputError):
        SampledImmersion(m=1, n=3, positions=pts, neighbors=neighbors)


# ---------------------------------------------------------------------------
# graph patches


def test_circle_patch_analytic_graph(circle):
    q = 0
    patch = extract_graph_patch(circle, q, circle.tangent_plane(q), 0.2)
    # u(x) = 1 - sqrt(1 - x^2) in inward-normal orientation (sign free)
    expected = 1.0 - np.sqrt(1.0 - patch.x_nodes ** 2)
    got = np.abs(patch.u[:, 0])
    assert np.max(np.abs(got - expected)) < 1e-10
    assert patch.lambda_measured == pytest.approx(0.2 / math.sqrt(0.96), abs=2e-5)


def test_flat_part_of_rounded_rectangle_has_zero_slope():
    shape = make_shape("rounded-rectangle",
                       {"width": 4.0, "height": 3.0, "corner_radius": 0.5}, 4096)
    # pick the sample nearest the middle of the bottom straight (t = lx / 2)
    period = shape.evaluator.period
    q = int(round(1.5 / period * 4096))
    patch = extract_graph_patch(shape, q, shape.tangent_plane(q), 0.1)
    assert patch.lambda_measured < 1e-9


def test_circle_patch_folds_near_r_equal_one(circle):
    with pytest.raises(NotAGraphError):
        extract_graph_patch(circle, 0, circle.tangent_plane(0), 0.9999)


def test_patch_isometry_choice_independence(circle):
    # U_{rho,q}^E must not depend on the isometry, only on E and f(q)
    q = 17
    plane = circle.tangent_plane(q)
    m1 = q_component(circle, q, plane, 0.15)
    flipped = orthonormalize(-plane.frame)
    m2 = q_component(circle, q, flipped, 0.15)
    assert np.array_equal(m1, m2)


def test_lambda_invariant_under_rigid_motion():
    # compare the interpolation path against itself under a rigid motion
    base = make_shape("circle", {"radius": 1.0}, 2048)
    raw = immersion_from_points(base.positions)
    patch0 = extract_graph_patch(raw, 10, base.tangent_plane(10), 0.2)
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    moved = immersion_from_points(base.positions @ rot.T + np.array([0.3, -1.2]))
    plane_moved = orthonormalize(rot @ patch0.plane.frame)
    patch1 = extract_graph_patch(moved, 10, plane_moved, 0.2)
    assert patch1.lambda_measured == pytest.approx(patch0.lambda_measured, abs=1e-10)


def test_patch_center_and_tangent_conditions(circle):
    patch = extract_graph_patch(circle, 5, circle.tangent_plane(5), 0.2)
    center = len(patch.x_nodes) // 2
    assert abs(patch.u[center, 0]) < 1e-9
    assert np.linalg.norm(patch.du_at(0.0)) < 1e-6  # Du(0) = 0 over the tangent


# ---------------------------------------------------------------------------
# (r, lambda) checks


def test_check_circle_passes_at_psec_threshold(circle):
    report = check_r_lambda(circle, 0.2, 0.25)
    assert report.passed
    assert report.worst_lambda == pytest.approx(0.204124, abs=1e-3)


def test_check_circle_fails_beyond_threshold(circle):
    report = check_r_lambda(circle, 0.25, 0.25)
    assert not report.passed
    assert report.worst_lambda == pytest.approx(0.258199, abs=1e-3)


def test_check_radius_r_circle_threshold_exact():
    lam = 0.25
    big_r = 0.5
    r_star = lam * big_r / math.sqrt(1 + lam * lam)
    shape = make_shape("circle", {"radius": big_r}, 4096)
    assert check_r_lambda(shape, r_star, lam).passed
    assert not check_r_lambda(shape, r_star * 1.05, lam).passed


def test_check_monotonicity_in_r_and_lambda(circle):
    ids = list(range(0, 4096, 512))
    base = check_r_lambda(circle, 0.2, 0.25, sample_ids=ids)
    assert base.passed
    assert check_r_lambda(circle, 0.2, 0.30, sample_ids=ids).passed
    assert check_r_lambda(circle, 0.15, 0.25, sample_ids=ids).passed


def test_check_raises_first_failure_in_id_order(circle):
    # both samples fold at r ~ 1; the error names the first id as given
    with pytest.raises(NotAGraphError) as info:
        check_r_lambda(circle, 0.9999, 0.25, sample_ids=[7, 3])
    assert str(info.value).startswith("sample 7:")


@pytest.mark.parametrize("name, params", [
    ("circle", {"radius": 1.0}),
    ("ellipse", {"a": 1.0, "b": 0.6}),
    ("rounded-rectangle", {"width": 2.0, "height": 1.5, "corner_radius": 0.5}),
    ("circle3d", {"radius": 1.0, "tilt": 0.2}),
    ("torus-knot", {"p": 2, "q": 3, "R": 2.0, "tube": 0.5}),
])
def test_batched_check_matches_single_patches(name, params):
    # the batched check and the one-row extraction share one solver, so the
    # slopes and graph values agree exactly, in codimension 1 and 2
    shape = make_shape(name, params, 1024)
    ids = [0, 129, 400, 777, 1023]
    report = check_r_lambda(shape, 0.1, 1.0, sample_ids=ids, keep_patches=True)
    for q in ids:
        batched = report.patches[q]
        single = extract_graph_patch(shape, q, batched.plane, 0.1)
        assert batched.lambda_measured == single.lambda_measured
        assert report.lambdas[q] == single.lambda_measured
        assert np.array_equal(batched.u, single.u)
        assert batched.u.shape == (129, shape.n - 1)


# ---------------------------------------------------------------------------
# Lipschitz-function checks (no evaluator)


def test_function_check_rounded_rectangle_points_only():
    shape = make_shape("rounded-rectangle",
                       {"width": 3.0, "height": 2.0, "corner_radius": 0.5}, 4096)
    raw = immersion_from_points(shape.positions)
    report = check_r_lambda_function(raw, 0.1, 0.25)
    assert report.passed
    assert report.injective


def test_function_check_detects_self_intersection():
    # figure eight: injective parametrization, crossing image
    t = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    pts = np.column_stack([np.sin(t), np.sin(t) * np.cos(t)])
    raw = immersion_from_points(pts)
    report = check_r_lambda_function(raw, 0.2, 0.6, plane_rule="best-fit")
    assert not report.injective or not report.passed


# ---------------------------------------------------------------------------
# graph-system metric


def make_system(shape, ids, r):
    patches = [extract_graph_patch(shape, q, shape.tangent_plane(q), r)
               for q in ids]
    return GraphSystem.from_patches(patches)


def test_graph_system_distance_zero_and_translation(circle):
    ids = [0, 1000, 2000]
    g1 = make_system(circle, ids, 0.2)
    assert graph_system_distance(g1, g1) == 0.0
    g2 = GraphSystem(
        [EuclideanIsometry(i.rotation, i.translation + np.array([0.01, 0.0]))
         if n == 0 else i for n, i in enumerate(g1.isometries)],
        g1.grids.copy(), g1.x_nodes, g1.radius)
    assert graph_system_distance(g1, g2) == pytest.approx(0.01, abs=1e-12)
    g3 = GraphSystem(
        [EuclideanIsometry(i.rotation, i.translation + np.array([0.01, 0.0]))
         for i in g1.isometries],
        g1.grids.copy(), g1.x_nodes, g1.radius)
    assert graph_system_distance(g1, g3) == pytest.approx(0.03, abs=1e-12)


def test_graph_system_metric_axioms(circle):
    rng = np.random.default_rng(0)
    ids = [0, 512]
    base = make_system(circle, ids, 0.2)
    systems = [base]
    for _ in range(3):
        pert = GraphSystem(
            [EuclideanIsometry(i.rotation,
                               i.translation + rng.normal(0, 0.01, 2))
             for i in base.isometries],
            base.grids + rng.normal(0, 0.001, base.grids.shape),
            base.x_nodes, base.radius)
        systems.append(pert)
    for a in systems:
        for b in systems:
            dab = graph_system_distance(a, b)
            assert dab == pytest.approx(graph_system_distance(b, a), abs=1e-12)
            for c in systems:
                assert dab <= (graph_system_distance(a, c)
                               + graph_system_distance(c, b) + 1e-10)


# ---------------------------------------------------------------------------
# patch intersection inequalities


def test_patch_intersection_same_point(circle):
    report = patch_intersection_check(circle, 3, 3, 0.2, 0.25)
    assert report.distance_bound_holds
    assert report.inclusion_applicable
    assert report.inclusion_holds


def test_patch_intersection_chord_bound(circle):
    report = patch_intersection_check(circle, 100, 0, 0.2, 0.25)
    assert report.distance_bound_holds
    assert report.worst_ratio < 1.0


def test_patch_intersection_random_pairs_on_torus():
    torus = make_shape("torus", {"R": 2.0, "r": 0.5}, "48x24")
    rng = np.random.default_rng(1)
    applicable = 0
    for trial in range(500):
        p, q = rng.integers(0, len(torus), 2)
        if trial % 10 == 0:
            q = p  # delta-patches are near-singletons here: meeting pairs
        report = patch_intersection_check(torus, int(p), int(q), 0.1, 0.25)
        assert report.distance_bound_holds
        if report.inclusion_applicable:
            applicable += 1
            assert report.inclusion_holds
    assert applicable >= 50  # the sweep must exercise the inclusion branch
