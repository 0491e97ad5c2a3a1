import copy
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lipimm.immersion as immersion_mod
from lipimm.errors import InputError, NotAGraphError
from lipimm.grassmann import orthonormalize, random_subspace
from lipimm.immersion import (
    PLANE_RULES,
    EuclideanIsometry,
    GraphSystem,
    SampledImmersion,
    _analytic_patches,
    check_r_lambda,
    check_r_lambda_function,
    delta,
    extract_graph_patch,
    graph_system_distance,
    patch_intersection_check,
    plane_for,
    q_component,
    q_components,
)
from lipimm.shapes import SurfaceEvaluator, immersion_from_points, make_shape


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


def reference_component(f, q, plane, rho):
    """U_{rho,q} by brute force: project every sample, then BFS over the
    samples inside the ball."""
    proj = (f.positions - f.positions[q]) @ plane.frame
    inside = np.einsum("ij,ij->i", proj, proj) < rho * rho
    seen, stack = {q}, [q]
    while stack:
        for w in f.neighbors(stack.pop()).tolist():
            if inside[w] and w not in seen:
                seen.add(w)
                stack.append(w)
    return np.array(sorted(seen))


def _shuffled_cycle(f, seed):
    """The cycle f with its sample ids permuted: no longer an id cycle."""
    perm = np.random.default_rng(seed).permutation(len(f))
    new_id = np.argsort(perm)  # sample perm[i] becomes sample i
    neighbors = [new_id[f.neighbors(p)] for p in perm]
    return SampledImmersion(1, f.n, f.positions[perm], neighbors=neighbors,
                            params=f.params[perm], evaluator=f.evaluator)


@functools.lru_cache(maxsize=None)
def component_shape(name):
    if name == "circle":
        return make_shape("circle", {"radius": 1.0}, 256)
    if name == "ellipse":
        return make_shape("ellipse", {"a": 1.0, "b": 0.4}, 301)
    if name == "shuffled circle":
        return _shuffled_cycle(make_shape("circle", {"radius": 1.0}, 200), 5)
    if name == "raw cloud":
        t = np.linspace(0, 2 * np.pi, 240, endpoint=False)
        wobble = 0.02 * np.random.default_rng(3).standard_normal((240, 3))
        return immersion_from_points(
            np.column_stack([np.cos(t), np.sin(3 * t) / 3, np.sin(t)]) + wobble)
    if name == "torus":
        return make_shape("torus", {"R": 2.0, "r": 0.5}, "16x32")
    return make_shape("sphere", {"radius": 1.0}, "24x12")


COMPONENT_SHAPES = ("circle", "ellipse", "shuffled circle", "raw cloud",
                    "torus", "sphere")


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(COMPONENT_SHAPES),
       seam=st.sampled_from([0, -1, None]), q_frac=st.floats(0.0, 1.0),
       tangent=st.booleans(), seed=st.integers(0, 2 ** 16),
       scales=st.lists(st.floats(-1.5, 3.0), min_size=1, max_size=7))
def test_component_ladder_matches_brute_force(name, seam, q_frac, tangent,
                                              seed, scales):
    # every level of one traversal equals the brute-force component at its
    # radius, and lies in the level before; radii run from below the sample
    # spacing to 10^3 spacings, beyond every shape's diameter
    f = component_shape(name)
    n = len(f)
    q = (min(int(q_frac * n), n - 1) if seam is None else seam % n)
    if tangent and f.evaluator is not None:
        plane = f.tangent_plane(q)
    else:
        plane = random_subspace(f.n, f.m, np.random.default_rng(seed))
    radii = sorted((f.sample_spacing * 10.0 ** s for s in scales), reverse=True)
    ladder = q_components(f, q, plane, radii)
    assert len(ladder) == len(radii)
    for rho, members in zip(radii, ladder):
        assert np.array_equal(members, reference_component(f, q, plane, rho))
    for outer, inner in zip(ladder, ladder[1:]):
        assert np.all(np.isin(inner, outer))


@pytest.mark.parametrize("name", COMPONENT_SHAPES)
def test_component_ladder_ends(name):
    # below the nearest neighbor's projection only q is left; beyond the
    # diameter every sample is
    f = component_shape(name)
    for q in (0, len(f) - 1):
        plane = (f.tangent_plane(q) if f.evaluator is not None
                 else f.best_fit_plane(q, 4 * f.sample_spacing))
        nearest = np.min(np.linalg.norm(
            (f.positions[f.neighbors(q)] - f.positions[q]) @ plane.frame, axis=1))
        diameter = np.max(np.linalg.norm(f.positions - f.positions[q], axis=1))
        whole, alone = q_components(f, q, plane, [1.01 * diameter, 0.5 * nearest])
        assert np.array_equal(whole, np.arange(len(f)))
        assert np.array_equal(alone, [q])


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


def test_malformed_adjacency_rejected():
    torus = make_shape("torus", {"R": 2.0, "r": 0.5}, "8x8")
    faces = torus.faces.copy()
    faces[5, 1] = len(torus)
    with pytest.raises(InputError, match="out-of-range"):
        SampledImmersion(2, 3, torus.positions, faces=faces)
    with pytest.raises(InputError, match="one neighbor list per sample"):
        SampledImmersion(1, 2, np.eye(2)[[0, 1, 0]],
                         neighbors=[(1, 2), (0, 2)])


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


def test_curve_check_makes_few_evaluator_calls_per_block(evaluator_calls,
                                                        per_call):
    # bracketed Newton from the secant point: two bracket ends, about three
    # Newton iterations of a point and a slope, and the points at the roots
    circle = make_shape("circle", {"radius": 1.0}, 1024)
    counter = evaluator_calls(circle.evaluator)
    blocks = per_call(immersion_mod, "_solve_curve_rows", counter)
    check_r_lambda(circle, 0.2, 0.25)
    assert len(blocks) == 4  # 256 rows each
    assert max(blocks) <= 12
    assert counter.calls <= sum(blocks) + 1  # and one for the tangent frames


@pytest.mark.parametrize("name, params", [
    ("circle", {"radius": 1.0}),
    ("ellipse", {"a": 1.0, "b": 0.6}),
    ("rounded-rectangle", {"width": 2.0, "height": 1.5, "corner_radius": 0.5}),
    ("circle3d", {"radius": 1.0, "tilt": 0.2}),
    ("torus-knot", {"p": 2, "q": 3, "R": 2.0, "tube": 0.5}),
])
def test_batched_check_matches_single_patches(name, params):
    # the batched check and the one-row extraction share one solver, so
    # every field of the patches agrees exactly, in codimension 1 and 2
    shape = make_shape(name, params, 1024)
    ids = [0, 129, 400, 777, 1023]
    for rule in PLANE_RULES:
        report = check_r_lambda(shape, 0.1, 1.0, rule, sample_ids=ids)
        # the batched solve as check_r_lambda calls it under each rule
        if rule == "tangent":
            plane_of = dict(zip(ids, shape.tangent_planes(ids))).__getitem__
        else:
            def plane_of(q):
                return plane_for(shape, q, rule, 0.1, 1.0)
        outcomes = _analytic_patches(shape, ids, plane_of, 0.1)
        for q, (batched, err) in zip(ids, outcomes):
            assert err is None
            single = extract_graph_patch(shape, q, batched.plane, 0.1)
            assert batched.lambda_measured == single.lambda_measured
            assert report.lambdas[q] == single.lambda_measured
            assert batched.u.shape == (129, shape.n - 1)
            assert (batched.base, batched.radius, batched.m, batched.k,
                    batched.grid_step) == (single.base, single.radius,
                                           single.m, single.k,
                                           single.grid_step)
            for a, b in [
                    (batched.plane.frame, single.plane.frame),
                    (batched.isometry.rotation, single.isometry.rotation),
                    (batched.isometry.translation,
                     single.isometry.translation),
                    (batched.x_nodes, single.x_nodes),
                    (batched.u, single.u),
                    (batched._du, single._du),
                    (batched.member_samples, single.member_samples),
                    (batched.member_proj, single.member_proj),
                    (batched.member_heights, single.member_heights)]:
                assert a.shape == b.shape and np.array_equal(a, b)


@pytest.fixture(scope="module")
def torus():
    return make_shape("torus", {"R": 2.0, "r": 0.5}, "16x32")


def sheared(torus):
    """The torus over parameters (a, b) -> (a + b, b): the same surface and
    samples, over a chart that is not conformal."""
    ev = torus.evaluator
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])
    chart = SurfaceEvaluator(3, lambda t: ev.point(t @ shear.T),
                             lambda t: ev.jacobian(t @ shear.T) @ shear)
    return SampledImmersion(2, 3, torus.positions, faces=torus.faces,
                            params=torus.params @ np.linalg.inv(shear).T,
                            evaluator=chart)


def test_sheared_torus_patches_build_in_few_newton_steps(torus):
    # Newton with the Jacobian of its residual converges quadratically, so
    # a chart far from conformal needs a few steps per patch, not 40
    f = sheared(torus)
    ids = list(range(0, len(f), 8))
    planes = f.tangent_planes(ids)  # tangent frames call the Jacobian too
    calls = []
    jacobian = f.evaluator.jacobian
    f.evaluator.jacobian = lambda t: calls.append(1) or jacobian(t)
    lams = [extract_graph_patch(f, q, plane, 0.1).lambda_measured
            for q, plane in zip(ids, planes)]
    f.evaluator.jacobian = jacobian
    assert len(calls) <= 5 * len(ids)
    # the same surface: every patch builds, with the catalog torus's slopes
    report = check_r_lambda(f, 0.1, 0.25)
    reference = check_r_lambda(torus, 0.1, 0.25)
    assert report.passed
    assert np.max(np.abs(report.lambdas - reference.lambdas)) <= 1e-12
    assert np.max(np.abs(np.array(lams) - reference.lambdas[ids])) <= 1e-12


def test_sphere_newton_fill_matches_closed_form():
    sphere = make_shape("sphere", {"radius": 1.0}, "24x12")
    newton = copy.copy(sphere)
    newton.evaluator = copy.copy(sphere.evaluator)
    newton.evaluator.graph_heights = None
    newton._patch_store = {}
    poles = [0, len(sphere) - 1]
    ids = [q for q in range(len(sphere)) if q not in poles]
    closed = check_r_lambda(sphere, 0.2, 0.25, sample_ids=ids)
    solved = check_r_lambda(newton, 0.2, 0.25, sample_ids=ids)
    assert np.nanmax(np.abs(solved.lambdas - closed.lambdas)) <= 1e-12
    for q in ids:
        a = sphere._patch_store[(0.2, 0.25, "tangent")][q][0]
        b = newton._patch_store[(0.2, 0.25, "tangent")][q][0]
        assert np.nanmax(np.abs(a.u - b.u)) <= 1e-12
        assert np.nanmax(np.abs(a._du - b._du)) <= 1e-12
    # the lon/lat chart is singular at the poles, where Newton cannot start
    for q in poles:
        with pytest.raises(NotAGraphError):
            extract_graph_patch(newton, q, sphere.tangent_plane(q), 0.2)


def test_batched_surface_check_matches_single_patches(torus):
    report = check_r_lambda(torus, 0.1, 0.25)
    store = torus._patch_store[(0.1, 0.25, "tangent")]
    for q in (0, 37, 200, 311, 511):
        batched = store[q][0]
        single = extract_graph_patch(torus, q, batched.plane, 0.1)
        assert abs(batched.lambda_measured - single.lambda_measured) <= 1e-14
        assert report.lambdas[q] == batched.lambda_measured
        assert np.array_equal(np.isnan(batched.u), np.isnan(single.u))
        assert np.nanmax(np.abs(batched.u - single.u)) <= 1e-14
        assert np.nanmax(np.abs(batched._du - single._du)) <= 1e-14
        assert np.array_equal(batched.member_samples, single.member_samples)


def test_failing_row_of_a_surface_block_fails_alone():
    # without its closed form the sphere's north pole does not converge;
    # its block neighbours are built and stored all the same
    sphere = make_shape("sphere", {"radius": 1.0}, "24x12")
    sphere.evaluator.graph_heights = None
    pole = len(sphere) - 1
    ids = [pole - 3, pole - 1, pole, 100]
    with pytest.raises(NotAGraphError) as info:
        check_r_lambda(sphere, 0.2, 0.25, sample_ids=ids)
    assert str(info.value).startswith(f"sample {pole}:")
    store = sphere._patch_store[(0.2, 0.25, "tangent")]
    assert store[pole][0] is None
    for q in (pole - 3, pole - 1, 100):
        patch, err = store[q]
        assert err is None
        single = extract_graph_patch(sphere, q, patch.plane, 0.2)
        assert np.nanmax(np.abs(patch.u - single.u)) <= 1e-14


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
    report = check_r_lambda_function(raw, 0.2, 0.6)
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
