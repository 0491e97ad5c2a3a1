import copy
import functools
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lipimm.immersion as immersion_mod
from lipimm.errors import (
    InputError,
    InsufficientSamplingError,
    LipimmError,
    NotAGraphError,
)
from lipimm._util import bracketed_newton, inverse_hermite, rounding_floor
from lipimm.grassmann import Subspace, orthonormalize
from lipimm.immersion import (
    PLANE_RULES,
    CheckReport,
    GraphSystem,
    SampledImmersion,
    _block_patches,
    _padded_components,
    check_r_lambda,
    check_r_lambda_function,
    component_ladders,
    delta,
    extract_graph_patch,
    graph_patches,
    graph_system_distance,
    planes_for,
    planes_of,
    q_component,
)
from lipimm.shapes import Evaluator, immersion_from_points, make_shape

from conftest import (
    complement,
    csr_rows,
    random_subspace,
    shuffled_cycle,
)


def ladder_at(f, q, frame, radii):
    """U_{rho,q} over the (n, m) ``frame`` for every rho in ``radii``: the
    one row of each CSR pair of a one-base ``component_ladders`` pass."""
    return [ids for ids, _ in
            component_ladders(f, np.array([q]), frame[None], radii)]


def base_ladders(ladders):
    """Each base's ladder, its row of every radius, from the CSR pairs of a
    ``component_ladders`` pass."""
    return list(zip(*map(csr_rows, ladders)))


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


@functools.lru_cache(maxsize=None)
def component_shape(name):
    if name == "circle":
        return make_shape("circle", {"radius": 1.0}, 256)
    if name == "ellipse":
        return make_shape("ellipse", {"a": 1.0, "b": 0.4}, 301)
    if name == "shuffled circle":
        return shuffled_cycle(make_shape("circle", {"radius": 1.0}, 200), 5)
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
    ladder = ladder_at(f, q, plane.frame, radii)
    assert len(ladder) == len(radii)
    for rho, members in zip(radii, ladder):
        assert np.array_equal(members, reference_component(f, q, plane, rho))
    for outer, inner in zip(ladder, ladder[1:]):
        assert np.all(np.isin(inner, outer))


@pytest.mark.parametrize("name, params, samples", [
    ("circle", {"radius": 1.0}, 257),
    ("ellipse", {"a": 1.0, "b": 0.4}, 301),
    ("circle3d", {"radius": 1.0, "tilt": 0.3}, 200),
    ("torus-knot", {"p": 2, "q": 3}, 500),
    ("rounded-rectangle", {"width": 3.0, "height": 2.0,
                           "corner_radius": 0.5}, 400),
    ("circle", {"radius": 1.0}, 9),  # every window wraps
])
def test_stacked_window_pass_matches_q_component(name, params, samples):
    # one pass over all samples gives each sample's run, in ascending ids
    # and padded with the sample itself, exactly as its own q_component and
    # the brute-force component
    f = make_shape(name, params, samples)
    ids = np.arange(len(f))
    frames = f.tangent_planes(ids)
    planes = [Subspace(frame) for frame in frames]
    for rho in (3.5 * f.sample_spacing, 0.3):
        members, counts = _padded_components(f, ids, frames, rho)
        for q, plane in zip(ids, planes):
            run = members[q, :counts[q]]
            assert np.array_equal(run, q_component(f, q, plane, rho))
            assert np.array_equal(run, reference_component(f, q, plane, rho))
            assert np.all(members[q, counts[q]:] == q)
    # a net's ladders: every radius of every row from one pass
    radii = [0.3 / 3.75 ** level for level in range(5)]
    for q, ladder in zip(ids, base_ladders(
            component_ladders(f, ids, frames, radii))):
        for rho, members in zip(radii, ladder):
            assert np.array_equal(members,
                                  reference_component(f, q, planes[q], rho))
    if samples == 9:
        # the windows would wrap onto themselves: the whole cycle instead
        members, counts = _padded_components(f, ids, frames, 1.5)
        assert np.all(counts == 9)
        assert np.array_equal(members, np.tile(ids, (9, 1)))


@pytest.mark.parametrize("name", COMPONENT_SHAPES)
def test_component_ladder_ends(name):
    # below the nearest neighbor's projection only q is left; beyond the
    # diameter every sample is
    f = component_shape(name)
    for q in (0, len(f) - 1):
        plane = (f.tangent_plane(q) if f.evaluator is not None
                 else Subspace(planes_of(f.best_fit_planes(
                     [q], 4 * f.sample_spacing))[0]))
        nearest = np.min(np.linalg.norm(
            (f.positions[f.neighbors(q)] - f.positions[q]) @ plane.frame, axis=1))
        diameter = np.max(np.linalg.norm(f.positions - f.positions[q], axis=1))
        whole, alone = ladder_at(f, q, plane.frame,
                                 [1.01 * diameter, 0.5 * nearest])
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


def test_disconnected_mesh_rejected():
    # two tori side by side as one triangulation: its one-row traversal from
    # sample 0 reaches only the first
    torus = make_shape("torus", {"R": 2.0, "r": 0.5}, "8x8")
    pts = np.vstack([torus.positions, torus.positions + [6.0, 0.0, 0.0]])
    faces = np.vstack([torus.faces, torus.faces + len(torus)])
    with pytest.raises(InputError, match="not connected"):
        SampledImmersion(2, 3, pts, faces=faces)


def per_row_components(f, q, frame, radii):
    """The ladder of base q on a mesh by one frontier BFS per row: project each
    sample reached at the largest radius once, then cut each smaller
    radius, largest first, by a BFS inside the component before it."""
    def bfs(admit):
        seen = np.zeros(len(f), dtype=bool)
        seen[q] = True
        frontier = np.array([q])
        parts = [frontier]
        while len(frontier):
            reached = np.concatenate([f.neighbors(p) for p in frontier])
            reached = np.unique(reached[~seen[reached]])
            seen[reached] = True
            frontier = reached[admit(reached)]
            parts.append(frontier)
        return np.sort(np.concatenate(parts))

    radii2 = np.array([rho * rho for rho in radii], dtype=float)
    reach2 = max((r2 for r2 in radii2.tolist() if r2 == r2), default=0.0)
    d2 = np.empty(len(f))
    d2[q] = 0.0

    def project(ids):
        # as the former per-row code: a one-row product is taken as two
        rel = f.positions[ids if len(ids) > 1 else np.repeat(ids, 2)] \
            - f.positions[q]
        proj = (rel @ frame)[:len(ids)]
        d2[ids] = np.einsum("ij,ij->i", proj, proj)
        return d2[ids] < reach2

    members = bfs(project)
    out = [None] * len(radii)
    for i in np.argsort(-radii2, kind="stable"):
        inside = d2[members] < radii2[i]
        if np.count_nonzero(inside) <= 1:
            members = np.array([q])
        elif not np.all(inside):
            allowed = np.zeros(len(f), dtype=bool)
            allowed[members[inside]] = True
            members = bfs(allowed.__getitem__)
        out[i] = members
    return out


@functools.lru_cache(maxsize=None)
def mesh_shape(name):
    if name == "raw torus":
        torus = make_shape("torus", {"R": 2.0, "r": 0.5}, "16x32")
        return immersion_from_points(torus.positions, m=2, faces=torus.faces)
    shape, samples = name.split()
    return make_shape(shape, {}, samples)


MESH_RADII = ([0.1], [0.1, 0.05, 0.02, 0.01], [0.3, 0.2], [0.5, 0.0, math.nan])


@pytest.mark.parametrize("name", ["torus 16x32", "torus 64x64",
                                  "sphere 16x32", "raw torus"])
def test_stacked_mesh_traversal_matches_the_per_row_bfs(name, lipimm_calls):
    # every row's ladder equals its own BFS's, id for id; the 64x64 torus
    # runs all 4096 rows, so its traversal takes several blocks of rows
    f = mesh_shape(name)
    ids = np.arange(len(f))
    frames = (f.tangent_planes(ids) if f.evaluator is not None
              else planes_of(f.best_fit_planes(ids, 0.3)))
    blocks = lipimm_calls(immersion_mod._mesh_components)
    for radii in MESH_RADII:
        ladders = base_ladders(component_ladders(f, ids, frames, radii))
        for q, ladder in zip(ids, ladders):
            reference = per_row_components(f, q, frames[q], radii)
            assert len(ladder) == len(radii)
            for members, expected in zip(ladder, reference):
                assert np.array_equal(members, expected)
    rows = immersion_mod._MESH_KEYS // len(f)
    assert blocks.calls == len(MESH_RADII) * -(-len(f) // rows)
    assert (blocks.calls > len(MESH_RADII)) == (len(f) == 4096)


def test_mesh_component_leaves_out_the_far_side_of_the_tube():
    # at radius 0.5 the tangent disk of the torus's outer equator also
    # holds the inner side of the tube, which the mesh does not connect
    # to q: the component is a strict part of the projected ball
    f = mesh_shape("torus 16x32")
    ids = np.arange(len(f))
    frames = f.tangent_planes(ids)
    cut = 0
    for q, members in zip(ids, csr_rows(
            component_ladders(f, ids, frames, [0.5])[0])):
        proj = (f.positions - f.positions[q]) @ frames[q]
        ball = np.flatnonzero(np.einsum("ij,ij->i", proj, proj) < 0.25)
        assert np.all(np.isin(members, ball))
        cut += len(members) < len(ball)
        assert np.array_equal(members,
                              reference_component(f, q, Subspace(frames[q]), 0.5))
    assert cut > 0


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
    plane_moved = orthonormalize(rot @ base.tangent_plane(10).frame)
    patch1 = extract_graph_patch(moved, 10, plane_moved, 0.2)
    assert patch1.lambda_measured == pytest.approx(patch0.lambda_measured, abs=1e-10)


def test_patch_center_and_tangent_conditions(circle):
    rows, [at] = graph_patches(circle, [5], 0.2, 0.25, "tangent")
    patch = rows.graph_patch(circle, at)
    center = len(patch.x_nodes) // 2
    assert abs(patch.u[center, 0]) < 1e-9
    # Du(0) = 0 over the tangent
    assert np.linalg.norm(np.interp(0.0, rows.x_nodes, rows.du[at, :, 0])) \
        < 1e-6


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
    # one call for the bracket ends and their slopes, and one fused point
    # and slope call from the inverse Hermite points, whose Newton steps
    # the circle's bound certifies: no root is evaluated again
    circle = make_shape("circle", {"radius": 1.0}, 1024)
    counter = evaluator_calls(circle.evaluator)
    blocks = per_call(immersion_mod, "_solve_curve_rows", counter)
    check_r_lambda(circle, 0.2, 0.25)
    assert len(blocks) == 4  # 256 rows each
    assert max(blocks) <= 2
    assert counter.calls <= sum(blocks) + 1  # and one for the tangent frames


def test_curve_check_evaluates_few_parameters_per_chart_node(
        evaluator_calls):
    # each row's ~67 bracket ends once and one Newton evaluation of its 129
    # nodes: 1.53 per node, where the secant points with a confirming
    # evaluation took 3.61, and each node's own two ends and its root
    # again 6.01
    circle = make_shape("circle", {"radius": 1.0}, 1024)
    counter = evaluator_calls(circle.evaluator)
    check_r_lambda(circle, 0.2, 0.25)
    assert counter.params <= 1.6 * len(circle) * 129


def test_circle3d_check_evaluates_few_parameters_per_chart_node(
        evaluator_calls):
    # the first member of the codimension-2 family: ~23 bracket ends per
    # row and one Newton evaluation, 1.19 per node (3.31 before)
    f = make_shape("circle3d", {"radius": 1.5, "tilt": 0.2}, 512)
    counter = evaluator_calls(f.evaluator)
    check_r_lambda(f, 0.2, 0.25)
    assert counter.params <= 1.25 * len(f) * 129


CURVES = [
    ("circle", {"radius": 1.0, "center": (0.4, -2.0)}),
    ("ellipse", {"a": 1.0, "b": 0.6}),
    ("rounded-rectangle", {"width": 2.0, "height": 1.5, "corner_radius": 0.5}),
    ("circle3d", {"radius": 1.0, "tilt": 0.2}),
    ("torus-knot", {"p": 2, "q": 3, "R": 2.0, "tube": 0.5}),
]


def same_errors(got, want):
    """Assert that the rows of two ``PatchRows`` fail alike, in every
    error's type and message; return a mask of the rows that do not."""
    assert [(type(e), str(e)) for e in got.errors] == \
        [(type(e), str(e)) for e in want.errors]
    return np.array([err is None for err in want.errors], dtype=bool)


@pytest.mark.parametrize("rule", PLANE_RULES)
@pytest.mark.parametrize("r", [0.1, 0.2, 0.3])
@pytest.mark.parametrize("name, params", CURVES)
def test_certified_curve_fill_keeps_every_outcome(name, params, r, rule,
                                                  evaluator_calls):
    # with the evaluator's bound L a root whose Newton step d has
    # (L/2) d^2 <= 1e-15 (1 + |f(q)|) takes the point f(t) + f'(t) d;
    # without it the root is evaluated again.  The bound saves evaluations,
    # every outcome and message is the same, every height agrees to
    # 1e-14 (1 + |f(q)|) and every slope to that over the grid step
    f = make_shape(name, params, 512)
    ids = list(range(len(f)))
    planes = planes_for(f, ids, rule, r, 0.25)
    counter = evaluator_calls(f.evaluator)
    got = _block_patches(f, ids, planes, r)
    certified, counter.params = counter.params, 0
    f.evaluator.bound = None
    want = _block_patches(f, ids, planes, r)
    assert certified < counter.params
    ok = same_errors(got, want)
    assert ok.any()
    tol = 1e-14 * (1 + np.max(np.abs(f.positions[want.bases[ok]]), axis=1))
    step = r / immersion_mod.GRID_CELLS_PER_RADIUS[1]
    assert np.array_equal(np.isnan(got.u[ok]), np.isnan(want.u[ok]))
    for a, b, bound in [(got.u, want.u, tol), (got.du, want.du, tol / step),
                        (got.slope, want.slope, tol / step)]:
        gap = np.abs(a[ok] - b[ok]).reshape(len(tol), -1)
        assert np.all(np.nanmax(gap, axis=1) <= bound)


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
        planes = planes_for(shape, ids, rule, 0.1, 1.0)
        rows = _block_patches(shape, ids, planes, 0.1)
        assert rows.errors == [None] * len(ids)
        assert rows.u.shape == (len(ids), 129, shape.n - 1)
        assert np.array_equal(rows.rotation[:, :, :1], planes_of(planes))
        for i, (q, frame) in enumerate(zip(ids, planes_of(planes))):
            batched = rows.graph_patch(shape, i)
            single = extract_graph_patch(shape, q, Subspace(frame), 0.1)
            assert batched.lambda_measured == single.lambda_measured
            assert report.lambdas[q] == single.lambda_measured
            assert (batched.base, batched.radius, batched.m, batched.k,
                    batched.grid_step) == (single.base, single.radius,
                                           single.m, single.k,
                                           single.grid_step)
            for a, b in [
                    (batched.isometry.rotation, single.isometry.rotation),
                    (batched.isometry.translation,
                     single.isometry.translation),
                    (batched.x_nodes, single.x_nodes),
                    (batched.u, single.u)]:
                assert a.shape == b.shape and np.array_equal(a, b)
            # and its Du, which the one-row build of the extraction holds
            one = _block_patches(shape, [q], (frame[None], [None]), 0.1)
            assert np.array_equal(one.du[0], rows.du[i])


@pytest.fixture(scope="module")
def torus():
    return make_shape("torus", {"R": 2.0, "r": 0.5}, "16x32")


def sheared(torus):
    """The torus over parameters (a, b) -> (a + b, b): the same surface and
    samples, over a chart that is not conformal."""
    ev = torus.evaluator
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])

    def point_jacobian(t):
        point, jacobian = ev.point_jacobian(t @ shear.T)
        return point, jacobian @ shear

    chart = Evaluator(3, 2, point_jacobian)
    return SampledImmersion(2, 3, torus.positions, faces=torus.faces,
                            params=torus.params @ np.linalg.inv(shear).T,
                            evaluator=chart)


def test_sheared_torus_patches_build_in_few_newton_steps(torus):
    # Newton with the Jacobian of its residual converges quadratically, so
    # a chart far from conformal needs a few steps per patch, not 40
    f = sheared(torus)
    ids = list(range(0, len(f), 8))
    planes = f.tangent_planes(ids)
    calls = []  # one fused point and Jacobian call per Newton step
    point_jacobian = f.evaluator.point_jacobian
    f.evaluator.point_jacobian = lambda t: calls.append(1) or point_jacobian(t)
    lams = [extract_graph_patch(f, q, Subspace(frame), 0.1).lambda_measured
            for q, frame in zip(ids, planes)]
    f.evaluator.point_jacobian = point_jacobian
    assert len(ids) <= len(calls) <= 5 * len(ids)
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
    # the poles too: the lon/lat chart is singular there, so their nodes
    # start from the poles' mesh neighbours
    closed = check_r_lambda(sphere, 0.2, 0.25)
    solved = check_r_lambda(newton, 0.2, 0.25)
    assert np.max(np.abs(solved.lambdas - closed.lambdas)) <= 1e-12
    (a, at), (b, bt) = (graph_patches(f, range(len(f)), 0.2, 0.25, "tangent")
                        for f in (sphere, newton))
    for name in ("u", "du"):
        gap = np.abs(getattr(a, name)[at] - getattr(b, name)[bt])
        assert np.all(np.nanmax(gap.reshape(len(at), -1), axis=1) <= 1e-12)


def test_batched_surface_check_matches_single_patches(torus):
    report = check_r_lambda(torus, 0.1, 0.25)
    ids = [0, 37, 200, 311, 511]
    rows, at = graph_patches(torus, ids, 0.1, 0.25, "tangent")
    frames = rows.rotation[at, :, :2]
    for q, i, frame in zip(ids, at, frames):
        single = extract_graph_patch(torus, q, Subspace(frame), 0.1)
        assert abs(rows.slope[i] - single.lambda_measured) <= 1e-14
        assert report.lambdas[q] == rows.slope[i]
        assert np.array_equal(np.isnan(rows.u[i]), np.isnan(single.u))
        assert np.nanmax(np.abs(rows.u[i] - single.u)) <= 1e-14
    one = _block_patches(torus, ids, (frames, [None] * len(ids)), 0.1)
    assert np.nanmax(np.abs(rows.du[at] - one.du)) <= 1e-14


def test_failing_row_of_a_surface_block_fails_alone():
    # without its closed form, and with a Jacobian ten times too large on
    # the polar cap above 87 degrees, Newton at the north pole crawls and
    # does not converge in its 40 steps; its block neighbours, whose nodes
    # stay below 86.6 degrees, are built and stored all the same
    sphere = make_shape("sphere", {"radius": 1.0}, "24x12")
    sphere.evaluator.graph_heights = None
    point_jacobian, cap = sphere.evaluator.point_jacobian, math.radians(87.0)

    def steep_cap(t):
        point, jacobian = point_jacobian(t)
        return point, jacobian * np.where(t[..., 1] < cap, 1.0,
                                          10.0)[..., None, None]

    sphere.evaluator.point_jacobian = steep_cap
    pole = len(sphere) - 1
    ids = [pole - 3, pole - 1, pole, 100]
    with pytest.raises(NotAGraphError) as info:
        check_r_lambda(sphere, 0.2, 0.25, sample_ids=ids)
    assert str(info.value).startswith(f"sample {pole}:")
    rows, index = sphere._patch_store[(0.2, "tangent")]
    assert isinstance(rows.errors[index[pole]], NotAGraphError)
    assert np.isnan(rows.slope[index[pole]])
    for q in (pole - 3, pole - 1, 100):
        i = index[q]
        assert rows.errors[i] is None
        plane = Subspace(rows.rotation[i, :, :2].copy())
        single = extract_graph_patch(sphere, q, plane, 0.2)
        assert np.nanmax(np.abs(rows.u[i] - single.u)) <= 1e-14


def test_check_takes_one_component_pass_per_block(lipimm_calls):
    # the setup reads its components from one window pass per block of
    # rows, and asks q_component for none
    circle = make_shape("circle", {"radius": 1.0}, 1024)
    passes = lipimm_calls(immersion_mod._cycle_components)
    singles = lipimm_calls(immersion_mod.q_component)
    assert check_r_lambda(circle, 0.2, 0.25).passed
    assert passes.calls == math.ceil(len(circle) / immersion_mod._PASS_ROWS)
    assert singles.calls == 0


# ---------------------------------------------------------------------------
# the block setup of patch fills against the former per-sample loop


def reference_fold(proj, positions, step, base_id, member_ids):
    """The former one-sample fold scan: raises at the first fold."""
    order = np.argsort(proj[:, 0], kind="stable")
    p = proj[order]
    close, far = 0.5 * step, 4.0 * step
    for off in range(1, len(member_ids)):
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
                f"{member_ids[i]} and {member_ids[j]} overlap in the chart "
                f"while {np.linalg.norm(positions[j] - positions[i]):.2e} "
                "apart in R^n")


def reference_brackets(f, q, members, proj, x_nodes):
    """The former one-sample bracket pass."""
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
    spacing = period / len(f)
    idx = np.searchsorted(sign * p_sorted, sign * x_nodes)
    lo = t_sorted[np.maximum(idx - 1, 0)]
    hi = t_sorted[np.minimum(idx, len(t_sorted) - 1)]
    lo = np.where(idx == 0, t_sorted[0] - 2 * spacing, lo)
    hi = np.where(idx == len(t_sorted), t_sorted[-1] + 2 * spacing, hi)
    return lo, hi


def reference_derivative_2d_axis(u, valid, step, axis):
    """The former derivative along grid axis 0 or 1 of (..., G, G, k)
    values on (..., G, G) masks: five full ``np.where`` passes."""
    u = np.moveaxis(u, axis - 3, 0)
    v = np.moveaxis(valid, axis - 2, 0)
    pad_u = np.full((2,) + u.shape[1:], np.nan)
    pad_v = np.zeros((2,) + v.shape[1:], dtype=bool)
    up = np.concatenate([pad_u, np.where(v[..., None], u, np.nan), pad_u])
    vp = np.concatenate([pad_v, v, pad_v])
    i = np.arange(2, u.shape[0] + 2)
    du = np.full_like(u, np.nan)
    # the stencils the mask allows, later ones winning: one-sided of order
    # 1, then 2, then central
    with np.errstate(invalid="ignore"):
        for ok, val in [
                (vp[i - 1], (up[i] - up[i - 1]) / step),
                (vp[i + 1], (up[i + 1] - up[i]) / step),
                (vp[i - 1] & vp[i - 2],
                 (3 * up[i] - 4 * up[i - 1] + up[i - 2]) / (2 * step)),
                (vp[i + 1] & vp[i + 2],
                 (-3 * up[i] + 4 * up[i + 1] - up[i + 2]) / (2 * step)),
                (vp[i - 1] & vp[i + 1], (up[i + 1] - up[i - 1]) / (2 * step))]:
            du = np.where((ok & v)[..., None], val, du)
    return np.moveaxis(du, 0, axis - 3)


def reference_lambda_on_grid(u, valid, step, m):
    """The former slope scan of (..., G^m, k) values on (..., G^m) masks:
    slopes and Du, (..., G, k) on a curve and (..., G, G, k, 2) else."""
    ds = [immersion_mod._derivative_1d(u, step)] if m == 1 else [
        reference_derivative_2d_axis(u, valid, step, axis) for axis in (0, 1)]
    norm_sq = sum(np.sum(d * d, axis=-1) for d in ds)
    lam = np.sqrt(np.nanmax(np.where(valid, norm_sq, np.nan),
                            axis=tuple(range(-m, 0))))
    return lam, ds[0] if m == 1 else np.stack(ds, axis=-1)


def reference_patches(f, ids, planes, r):
    """The former ``_block_patches``: plane, component, fold scan and
    brackets sample by sample, surface fills from each node's nearest
    member, then the same batched solve and the former slope scan."""
    im = immersion_mod
    m, k, ev = f.m, f.n - f.m, f.evaluator
    step, axis, x_grid, in_disk = im._chart_grid(m, r)
    nodes = x_grid[in_disk]
    valid = in_disk.reshape((len(axis),) * m)
    out = im.PatchRows.empty(f, r, ids)
    outcomes = out.errors
    rows = []
    for i, (q, frame, err) in enumerate(zip(ids, *planes)):
        if err is not None:
            outcomes[i] = err
            continue
        plane = Subspace(frame)
        try:
            members = q_component(f, q, plane, r)
            proj = (f.positions[members] - f.positions[q]) @ plane.frame
            if len(members) > 1:
                reference_fold(proj, f.positions[members], step, q, members)
            rows.append((i, q, plane, members, proj, None if m == 2 else
                         reference_brackets(f, q, members, proj, nodes[:, 0])))
        except (NotAGraphError, InsufficientSamplingError, InputError) as exc:
            outcomes[i] = exc
    if not rows:
        return out
    index, base, planes, members, projs, brackets = zip(*rows)
    f_q = f.positions[list(base)]
    frames = np.stack([plane.frame for plane in planes])
    rotations = im._embedding_rotations(frames)
    n_frames = rotations[:, :, m:].copy()
    residual_tol = im.CURVE_RESIDUAL_SPACINGS * f.sample_spacing
    for a in range(0, len(base), im._SOLVE_ROWS[m]):
        b = slice(a, a + im._SOLVE_ROWS[m])
        js = range(a, min(b.stop, len(base)))
        if m == 1:
            lo, hi = map(np.stack, zip(*brackets[b]))
            # a (lo, hi) pair as bracket ends with the indices of each half
            g = np.broadcast_to(np.arange(lo.shape[1]), lo.shape)
            on_disk, failed, res_max = im._solve_curve_rows(
                ev, f_q[b], frames[b, :, 0], n_frames[b],
                np.concatenate([lo, hi], axis=1), g, g + lo.shape[1],
                nodes[:, 0])
        else:
            gaps = [nodes[:, None, :] - projs[j] for j in js]
            t = np.stack([f.params[members[j]][np.argmin(
                np.einsum("tmi,tmi->tm", gap, gap), axis=1)]
                for j, gap in zip(js, gaps)])
            on_disk, failed = im._fill_surface_rows(
                ev, f_q[b], frames[b], n_frames[b], t, nodes,
                im._fill_stops(f_q[b]))
        u = np.full((len(js), len(x_grid), k), np.nan)
        u[:, in_disk] = on_disk
        off_center = np.max(np.abs(u[:, len(x_grid) // 2]), axis=1) > \
            1e4 * im._fill_stops(f_q[b])
        u = u.reshape((len(js),) + valid.shape + (k,))
        lams, du = reference_lambda_on_grid(
            u, np.broadcast_to(valid, u.shape[:-1]), step, m)
        for s, j in enumerate(js):
            q = base[j]
            if failed[s] and m == 1:
                outcomes[index[j]] = InsufficientSamplingError(
                    f"patch at sample {q} is not resolved out to its rim")
            elif m == 1 and not res_max[s] <= residual_tol:
                outcomes[index[j]] = InsufficientSamplingError(
                    f"patch at sample {q} has a chart node the curve does not "
                    f"reach (residual {res_max[s]:.1e})")
            elif failed[s]:
                outcomes[index[j]] = NotAGraphError(
                    f"grid fill did not converge on the patch at sample {q}")
            elif off_center[s]:
                outcomes[index[j]] = NotAGraphError(
                    f"patch at {q} does not pass through f(q)")
            else:
                at = index[j]
                out.rotation[at], out.u[at], out.du[at] = \
                    rotations[j], u[s], du[s]
                out.slope[at] = lams[s]
    return out


def assert_same_outcomes(f, ids, planes, r):
    """``_block_patches`` equals the per-sample reference bit for bit,
    and names the same error; returns the errors."""
    got = _block_patches(f, ids, planes, r)
    assert_same_rows(got, reference_patches(f, ids, planes, r))
    return [err for err in got.errors if err is not None]


def assert_same_rows(got, want):
    """``PatchRows`` agree in every error's type and message, and in every
    array of the rows without one, byte for byte."""
    ok = same_errors(got, want)
    assert got.radius == want.radius
    for a, b in [(got.x_nodes, want.x_nodes)] + [
            (getattr(got, name)[ok], getattr(want, name)[ok])
            for name in ("bases", "rotation", "u", "du", "slope")]:
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype,
                                                   b.tobytes())


@pytest.mark.parametrize("rule", PLANE_RULES)
@pytest.mark.parametrize("name, params, samples, r", [
    ("circle", {"radius": 1.0}, 512, 0.2),
    ("ellipse", {"a": 1.0, "b": 0.6}, 512, 0.1),
    ("circle3d", {"radius": 1.0, "tilt": 0.2}, 512, 0.2),
    ("torus-knot", {"p": 2, "q": 3, "R": 2.0, "tube": 0.5}, 512, 0.1),
    ("rounded-rectangle", {"width": 2.0, "height": 1.5,
                           "corner_radius": 0.5}, 512, 0.1),
    ("torus", {"R": 2.0, "r": 0.5}, "16x32", 0.1),
    ("sphere", {"radius": 1.0}, "24x12", 0.2),
])
def test_block_setup_matches_the_per_sample_loop(name, params, samples, r,
                                                 rule):
    f = make_shape(name, params, samples)
    ids = np.random.default_rng(len(f)).permutation(len(f)).tolist()
    assert_same_outcomes(f, ids, planes_for(f, ids, rule, r, 0.25), r)


def reference_curve_brackets(f, bases, members, counts, proj, x_nodes):
    """The former bracket pass: (S, G) brackets (lo, hi) from one
    ``searchsorted`` per row, and whether each row rises."""
    t_q = f.params[bases][:, None]
    period = f.evaluator.period
    t_members = t_q + (f.params[members] - t_q + period / 2) % period - period / 2
    pad = np.arange(members.shape[1]) >= counts[:, None]
    order = np.argsort(np.where(pad, np.inf, t_members), axis=1, kind="stable")
    t_sorted = np.take_along_axis(t_members, order, axis=1)
    p_sorted = np.take_along_axis(proj[..., 0], order, axis=1)
    rising = np.all((np.diff(p_sorted, axis=1) > 0) | pad[:, 1:], axis=1)
    sign = np.where(rising, 1.0, -1.0)
    spacing = period / len(f)
    idx = np.stack([np.searchsorted(s * p[:c], s * x_nodes) for s, p, c in
                    zip(sign.tolist(), p_sorted, counts.tolist())])
    last = counts[:, None] - 1
    lo = np.take_along_axis(t_sorted, np.maximum(idx - 1, 0), axis=1)
    hi = np.take_along_axis(t_sorted, np.minimum(idx, last), axis=1)
    lo = np.where(idx == 0, lo - 2 * spacing, lo)
    hi = np.where(idx > last, hi + 2 * spacing, hi)
    return lo, hi, rising


def reference_solve_curve_rows(ev, f_q, e_vecs, n_frames, lo, hi, x_nodes,
                               residual_tol):
    """The curve fill without shared ends or a certified last step: both
    ends of every bracket evaluated with their slopes, bracketed Newton from
    their inverse Hermite points, and the points at the roots evaluated
    again."""
    f_q = f_q[:, None, :]
    e_col = e_vecs[:, :, None]

    def along(v):
        return np.matmul(v, e_col)[..., 0]

    def residual_slope(t):
        points, velocity = ev.point_jacobian(t)
        points -= f_q
        return along(points) - x_nodes, along(velocity)

    r_lo, s_lo = residual_slope(lo)
    r_hi, s_hi = residual_slope(hi)
    hit = np.minimum(np.maximum(1e-12, 1e-14 * np.max(np.abs(f_q), axis=-1)),
                     residual_tol)
    hit_hi = np.abs(r_hi) <= hit
    lo = np.where(hit_hi, hi, lo)
    r_lo = np.where(hit_hi, r_hi, r_lo)
    hit_lo = np.abs(r_lo) <= hit
    hi = np.where(hit_lo, lo, hi)
    r_hi = np.where(hit_lo, r_lo, r_hi)
    unresolved = np.any((r_lo * r_hi > 0) & ~hit_lo & ~hit_hi, axis=1)
    t, _, _ = bracketed_newton(
        residual_slope, lo, hi, r_lo, r_hi, rounding_floor(f_q),
        inverse_hermite(lo, hi, r_lo, r_hi, s_lo, s_hi))
    points = ev.point(t) - f_q
    res = np.max(np.abs(along(points) - x_nodes), axis=1)
    return np.matmul(points, n_frames), unresolved, res


@pytest.mark.parametrize("rule", PLANE_RULES)
@pytest.mark.parametrize("name, params, r", [
    ("circle", {"radius": 1.0}, 0.2),
    ("ellipse", {"a": 1.0, "b": 0.6}, 0.1),
    ("circle3d", {"radius": 1.0, "tilt": 0.2}, 0.2),
    ("torus-knot", {"p": 2, "q": 3, "R": 2.0, "tube": 0.5}, 0.1),
    ("rounded-rectangle", {"width": 2.0, "height": 1.5,
                           "corner_radius": 0.5}, 0.1),
])
def test_bracket_ends_fill_as_the_bracket_pairs(name, params, r, rule):
    # the ends evaluated once per row and gathered, and the roots' points
    # from the last Newton step, against both ends of every bracket and
    # the points at the roots evaluated again: the same bytes, on rising
    # and falling rows and on brackets past the outermost members.  Without
    # the evaluator's bound no step is certified, so every root's point is
    # one the curve evaluates
    f = make_shape(name, params, 512)
    f.evaluator.bound = None
    all_frames, errors = planes_for(f, list(range(len(f))), rule, r, 0.25)
    # too few seeds for a best fit
    assert all(isinstance(err, InsufficientSamplingError)
               for err in errors if err is not None)
    bases = np.flatnonzero([err is None for err in errors])
    frames = all_frames[bases]
    members, counts = _padded_components(f, bases, frames, r)
    proj = (f.positions[members] - f.positions[bases][:, None]) @ frames
    nodes = immersion_mod._chart_grid(1, r)[2][:, 0]
    ends, i_lo, i_hi, errors = immersion_mod._curve_brackets(
        f, bases, members, counts, proj, nodes)
    lo, hi, rising = reference_curve_brackets(f, bases, members, counts,
                                              proj, nodes)
    assert np.isfinite(ends).all()  # padding included: it is evaluated
    keep = np.flatnonzero([err is None for err in errors])
    assert len(keep) > len(f) // 2
    ends, i_lo, i_hi, lo, hi, rising, counts, bases, frames = (
        v[keep] for v in (ends, i_lo, i_hi, lo, hi, rising, counts, bases,
                          frames))
    assert not rising.all() if rule == "best-fit" else rising.all()
    assert (i_lo == 0).any() and (i_hi == counts[:, None] + 1).any()
    for got, want in [(i_lo, lo), (i_hi, hi)]:
        assert np.take_along_axis(ends, got, axis=1).tobytes() == want.tobytes()
    f_q = f.positions[bases]
    n_frames = immersion_mod._embedding_rotations(frames)[:, :, 1:].copy()
    tol = immersion_mod.CURVE_RESIDUAL_SPACINGS * f.sample_spacing
    rows = immersion_mod._SOLVE_ROWS[1]
    for a in range(0, len(bases), rows):
        b = slice(a, a + rows)
        args = (f.evaluator, f_q[b], frames[b, :, 0], n_frames[b])
        got = immersion_mod._solve_curve_rows(
            *args, ends[b], i_lo[b], i_hi[b], nodes, tol)
        want = reference_solve_curve_rows(*args, lo[b], hi[b], nodes, tol)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


def tilted_planes(f, angles):
    """Planes tilted off the tangent line by ``angles[q % len(angles)]``."""
    def plane_of(q):
        tangent = f.evaluator.tangent_frame(f.params[q]).reshape(f.n, 1)
        frame = np.linalg.qr(np.column_stack([tangent, np.eye(f.n)]))[0]
        angle = angles[q % len(angles)]
        return line(math.cos(angle) * frame[:, 0] + math.sin(angle) * frame[:, 1])
    return plane_of


def duplicated_circle(samples, at):
    """The unit circle with sample ``at`` given twice."""
    ev = make_shape("circle", {"radius": 1.0}, 8).evaluator
    params = np.arange(samples) * (2 * math.pi / samples)
    params = np.insert(params, at, params[at])
    n = len(params)
    return SampledImmersion(1, 2, ev.point(params), params=params, evaluator=ev,
                            neighbors=[((i - 1) % n, (i + 1) % n)
                                       for i in range(n)])


# ---------------------------------------------------------------------------
# the surface fill's arithmetic: one stencil plan per chart grid, Newton
# from each member's tangent step, and stops that scale with the chart


@pytest.mark.parametrize("mask", ["disk", "random"])
@pytest.mark.parametrize("k", [1, 2])
def test_stencil_plan_matches_the_five_pass_scan(mask, k):
    # Du and the slopes from the plan equal the former np.where chain bit
    # for bit on a stack of rows that are NaN off the mask, one of them
    # with a NaN node inside it as well
    step, axis, _, in_disk = immersion_mod._chart_grid(2, 0.3)
    g = len(axis)
    rng = np.random.default_rng(k)
    valid = in_disk.reshape(g, g) if mask == "disk" else \
        rng.random((g, g)) < 0.7
    u = rng.normal(size=(5, g * g, k))
    u[:, ~valid.ravel()] = np.nan
    u[0, np.flatnonzero(valid)[len(u[0]) // 4]] = np.nan
    lams, du = immersion_mod._lambda_on_grid(
        u, step, immersion_mod._stencil_plan(valid))
    want_lams, want_du = reference_lambda_on_grid(
        u.reshape(5, g, g, k), np.broadcast_to(valid, (5, g, g)), step, 2)
    assert lams.tobytes() == want_lams.tobytes()
    assert du.reshape(want_du.shape).tobytes() == want_du.tobytes()


def node_evaluations(ev, monkeypatch):
    """A one-item list that counts the parameter points ``ev`` evaluates,
    over every call of its ``_point_jacobian``."""
    count, point_jacobian = [0], ev._point_jacobian

    def counting(t):
        count[0] += math.prod(np.shape(t)[:-1])
        return point_jacobian(t)
    monkeypatch.setattr(ev, "_point_jacobian", counting)
    return count


TORUS = ("torus", {"R": 2.0, "r": 0.5})
SPHERE = ("sphere", {"radius": 1.0})


@pytest.mark.parametrize("name, params, samples, every, r", [
    *[(*TORUS, samples, 1, r) for samples in ("16x32", "32x64")
      for r in (0.1, 0.2, 0.3)],
    *[(*TORUS, "64x64", 4, r) for r in (0.1, 0.2, 0.3)],
    (*TORUS, "16x32", 1, 0.5),  # near-singular E^T J at the tube's sides
    *[(*SPHERE, samples, 1, r) for samples in ("24x12", "48x24")
      for r in (0.15, 0.2, 0.3)],
])
def test_tangent_step_starts_keep_every_outcome(name, params, samples,
                                                every, r, monkeypatch):
    # Newton from one tangent step past each node's nearest member: no row
    # changes its error, every torus patch keeps its bytes, and the sphere
    # without its closed form moves by rounding only.  The member start
    # takes more node evaluations, so the patch below does replace the start
    f = make_shape(name, params, samples)
    f.evaluator.graph_heights = None
    ids = list(range(0, len(f), every))
    planes = planes_for(f, ids, "tangent", r, 0.25)
    count = node_evaluations(f.evaluator, monkeypatch)
    got = _block_patches(f, ids, planes, r)
    tangent_count, count[0] = count[0], 0
    monkeypatch.setattr(immersion_mod, "_tangent_steps",  # at the member
                        lambda near, nodes: np.moveaxis(near[6:], 0, -1).copy())
    want = _block_patches(f, ids, planes, r)
    assert count[0] > tangent_count
    if (name, samples, r) == ("torus", "16x32", 0.1):
        # the check's 1,175,232 and 1,583,296, less its 512 plane evaluations
        assert (tangent_count, count[0]) == (1_174_720, 1_582_784)
    if name == "torus":
        assert_same_rows(got, want)
    else:
        ok = same_errors(got, want)
        assert np.max(np.abs(got.slope[ok] - want.slope[ok])) <= 1e-13
        assert np.nanmax(np.abs(got.u[ok] - want.u[ok])) <= 1e-13


def reference_solve2(a, b):
    """The former stacked 2x2 solve: both adjugate components stacked, then
    divided by the determinant."""
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.stack([a[..., 1, 1] * b[..., 0] - a[..., 0, 1] * b[..., 1],
                         a[..., 0, 0] * b[..., 1] - a[..., 1, 0] * b[..., 0]],
                        axis=-1) / det[..., None]


def reference_tangent_starts(f, out, slots, frames, members, counts):
    """The former tangent-step start of every fill block of one
    ``_component_patches`` call: each node's nearest member gathered by
    (row, member) index pairs, then one ``reference_solve2``."""
    im = immersion_mod
    step, _, x_grid, in_disk = im._chart_grid(2, out.radius)
    nodes = x_grid[in_disk]
    bases = out.bases[slots]
    proj = (f.positions[members] - f.positions[bases][:, None]) @ frames
    keep = np.flatnonzero([err is None for err in im._detect_fold(
        f, bases, members, counts, proj, step)])
    etj = np.swapaxes(frames, 1, 2)[:, None] @ \
        f.evaluator.jacobian(f.params[members])
    proj_sq = np.where(np.arange(members.shape[1]) < counts[:, None],
                       np.einsum("swi,swi->sw", proj, proj), np.inf)
    starts = []
    for a in range(0, len(keep), im._SOLVE_ROWS[2]):
        js = keep[a:a + im._SOLVE_ROWS[2]]
        w = np.max(counts[js])
        near = np.argmin(proj_sq[js, None, :w] - 2 * np.matmul(
            nodes, np.swapaxes(proj[js, :w], 1, 2)), axis=2)
        nearest = (js[:, None], near)
        starts.append(f.params[members[nearest]] + reference_solve2(
            etj[nearest], nodes - proj[nearest]))
    return starts


@pytest.mark.parametrize("name, params, samples, every, r", [
    *[(*TORUS, samples, 1, 0.1) for samples in ("16x32", "32x64")],
    (*TORUS, "64x64", 4, 0.1),
    (*TORUS, "16x32", 1, 0.5),  # near-singular E^T J at the tube's sides
    (*SPHERE, "24x12", 1, 0.2),
])
def test_flat_take_starts_equal_the_gathered_starts(name, params, samples,
                                                    every, r, monkeypatch):
    # the start takes each node's member scalars by one flat index and
    # solves in components: the former gathers and stacked solve, byte for
    # byte, at every node of every block (singular members included)
    f = make_shape(name, params, samples)
    f.evaluator.graph_heights = None
    ids = list(range(0, len(f), every))
    planes = planes_for(f, ids, "tangent", r, 0.25)
    calls, starts = [], []
    component_patches = immersion_mod._component_patches
    tangent_steps = immersion_mod._tangent_steps

    def recording_components(*args):
        calls.append(args)
        return component_patches(*args)

    def recording_starts(near, nodes):
        starts.append(tangent_steps(near, nodes))
        return starts[-1].copy()
    monkeypatch.setattr(immersion_mod, "_component_patches",
                        recording_components)
    monkeypatch.setattr(immersion_mod, "_tangent_steps", recording_starts)
    _block_patches(f, ids, planes, r)
    want = [t for args in calls for t in reference_tangent_starts(*args)]
    assert len(starts) == len(want) > 0
    assert all(got.tobytes() == ref.tobytes()
               for got, ref in zip(starts, want, strict=True))


def test_torus_check_evaluation_budget(monkeypatch):
    # 1,175,232 node evaluations (2.88 per disk node of the 512 patches)
    # from tangent-step starts and certified last steps, against 1,455,776
    # (3.57) with a confirming evaluation and 1,863,840 from the members
    f = make_shape(*TORUS, "16x32")
    count = node_evaluations(f.evaluator, monkeypatch)
    assert check_r_lambda(f, 0.1, 0.25).passed
    disk_nodes = np.count_nonzero(immersion_mod._chart_grid(2, 0.1)[3])
    assert count[0] <= 2.9 * len(f) * disk_nodes


@pytest.mark.parametrize("name, params, samples, r", [
    *[(*TORUS, samples, r) for samples in ("16x32", "32x64")
      for r in (0.1, 0.2, 0.3)],
    *[(*SPHERE, "24x12", r) for r in (0.1, 0.2, 0.3)],
])
def test_certified_last_steps_keep_every_outcome(name, params, samples, r,
                                                 monkeypatch):
    # with the evaluator's bound L a row stops without evaluating again once
    # (L/2) |step|^2 is at most half its stop; without it the row evaluates
    # at the stepped parameters to confirm.  The bound saves evaluations,
    # every outcome and message is the same, and every height, derivative
    # and slope agrees to 1e-12
    f = make_shape(name, params, samples)
    f.evaluator.graph_heights = None
    ids = list(range(len(f)))
    planes = planes_for(f, ids, "tangent", r, 0.25)
    counts, point_jacobian = [], Evaluator.point_jacobian

    def counting(ev, t, work=None):  # the evaluator keeps its workspace
        counts.append(math.prod(np.shape(t)[:-1]))
        return point_jacobian(ev, t, work)
    monkeypatch.setattr(Evaluator, "point_jacobian", counting)
    assert f.evaluator.bound is not None and f.evaluator.writes_work
    got = _block_patches(f, ids, planes, r)
    certified, counts[:] = sum(counts), []
    f.evaluator.bound = None
    want = _block_patches(f, ids, planes, r)
    assert certified < sum(counts)
    ok = same_errors(got, want)
    assert np.max(np.abs(got.slope[ok] - want.slope[ok])) <= 1e-12
    assert np.array_equal(np.isnan(got.u[ok]), np.isnan(want.u[ok]))
    assert np.nanmax(np.abs(got.u[ok] - want.u[ok])) <= 1e-12
    assert np.nanmax(np.abs(got.du[ok] - want.du[ok])) <= 1e-12


def test_torus_check_traced_peak():
    # the surface fill holds no per-node gathers, and its Newton steps
    # write into one workspace, which the start borrows from: the check of
    # torus 16x32 at (0.1, 0.25) peaks at 16.5 MiB of traced allocations
    # (16.0 with per-step arrays). The bound is 17.0 MiB, the peak of a
    # fill with per-node gathers, + 0.25
    f = make_shape(*TORUS, "16x32")
    tracemalloc.start()
    try:
        check_r_lambda(f, 0.1, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17.25 * 2 ** 20


def test_diverged_surface_rows_are_evaluated_no_more(monkeypatch):
    # over best-fit planes of radius 0.1 (whose seeds lie on one tube
    # circle) 256 rows of torus 16x32 cannot converge: their plane holds
    # the surface normal, and the first step throws their parameters to
    # |t| ~ 1e13, where one unit in the last place moves a point by ~1e-3.
    # Such a row fails at its next evaluation (1,212,976 node evaluations)
    # instead of stepping 40 times until its parameters turn non-finite
    # (8,672,896), and the evaluator never sees non-finite parameters (it
    # warned of invalid values in cos and sin)
    f = make_shape(*TORUS, "16x32")
    ids = list(range(len(f)))
    planes = f.best_fit_planes(ids, 0.1)
    count = node_evaluations(f.evaluator, monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = immersion_mod._block_patches(f, ids, planes, 0.1)
    errors = [str(err) for err in rows.errors if err is not None]
    assert len(errors) == 256
    assert all(e.startswith("grid fill did not converge") for e in errors)
    assert count[0] <= 1_250_000


def dilated(f, s):
    """s f: the same samples, faces and parameters, with every point and
    Jacobian of the evaluator, and its second-derivative bound, scaled by
    s."""
    ev = copy.copy(f.evaluator)
    point_jacobian = ev._point_jacobian
    ev._point_jacobian = lambda t: tuple(s * a for a in point_jacobian(t))
    ev.bound = None if ev.bound is None else s * ev.bound
    return SampledImmersion(f.m, f.n, s * f.positions, faces=f.faces,
                            params=f.params, evaluator=ev)


@pytest.mark.parametrize("name, params, samples, r", [
    (*TORUS, "16x32", 0.1), (*SPHERE, "24x12", 0.2)])
def test_surface_check_is_invariant_under_dilation(name, params, samples, r,
                                                   monkeypatch):
    # s f checked at (s r, lambda) has the verdict and worst slope of f,
    # and at s = 1e3 its Newton fill does the work of f's: the stops grow
    # with |f(q)| (at s = 1e3 every row took 40 steps, at 1e6 one failed)
    f = make_shape(name, params, samples)
    f.evaluator.graph_heights = None  # the sphere's is for its own radius
    reports, counts = {}, {}
    for s in (1.0, 1e-3, 1e3, 1e6):
        g = dilated(f, s)
        count = node_evaluations(g.evaluator, monkeypatch)
        reports[s] = check_r_lambda(g, s * r, 0.25)
        counts[s] = count[0]
    for s, report in reports.items():
        assert report.passed == reports[1.0].passed
        assert abs(report.worst_lambda - reports[1.0].worst_lambda) <= 1e-9
    assert counts[1e3] <= 1.25 * counts[1.0]


def test_block_setup_names_each_samples_first_error(gapped_circle):
    # folds at the tips of a thin ellipse; a sparse circle over planes
    # tilted by 1 rad (not monotone), pi/2 (a fold) or not at all, mixed in
    # one block; a duplicated sample (not monotone); and the 1e-3 gap,
    # whose nodes the curve does not reach
    thin = make_shape("ellipse", {"a": 1.0, "b": 0.05}, 512)
    sparse = make_shape("circle", {"radius": 1.0}, 64)
    twice = duplicated_circle(256, 10)
    gapped = gapped_circle(512, 1e-3)
    errors = []
    for f, plane_of, r in [
            (thin, None, 0.2), (sparse, tilted_planes(sparse, [0.0, 1.0,
                                                               math.pi / 2]), 0.2),
            (twice, None, 0.2), (gapped, None, 0.2)]:
        ids = np.random.default_rng(len(f)).permutation(len(f)).tolist()
        for rule in PLANE_RULES if plane_of is None else ["given"]:
            planes = planes_for(f, ids, rule, r, 0.25) if plane_of is None \
                else (np.stack([plane_of(q).frame for q in ids]),
                      [None] * len(ids))
            errors += assert_same_outcomes(f, ids, planes, r)
    kinds = {str(err).split(" sample")[0] for err in errors}
    assert kinds == {"projection folds near",
                     "projection is not monotone along the component of",
                     "patch at"}


def test_raw_fold_scan_matches_the_per_sample_scan():
    # a polyline near an astroid: charts at its rounded cusps fold, the
    # others build or see too few samples; extract_graph_patch scans one row
    t = np.linspace(0, 2 * np.pi, 3000, endpoint=False)
    pts = np.column_stack([np.cos(t) ** 3 + 0.1 * np.cos(t),
                           np.sin(t) ** 3 + 0.1 * np.sin(t)])
    raw = immersion_from_points(pts)
    r, folds, built = 0.2, 0, 0
    for q in range(0, 750, 6):
        plane = line(pts[q + 1] - pts[q - 1])
        members = q_component(raw, q, plane, r)
        proj = (pts[members] - pts[q]) @ plane.frame
        try:
            reference_fold(proj, pts[members], r / 64, q, members)
            want = None
        except NotAGraphError as exc:
            want, folds = str(exc), folds + 1
        try:
            extract_graph_patch(raw, q, plane, r)
            got, built = None, built + 1
        except (NotAGraphError, InsufficientSamplingError) as exc:
            got = str(exc)
        assert got == want if want else not str(got).startswith("projection")
    assert folds >= 40 and built >= 40


@pytest.mark.parametrize("chart_dims", [1, 2])
@pytest.mark.parametrize("gap, apart, folds", [
    (0.5 * (1 - 1e-9), 4.0 * (1 + 1e-9), True),
    (0.5 * (1 + 1e-9), 4.0 * (1 + 1e-9), False),
    (0.5 * (1 - 1e-9), 4.0 * (1 - 1e-9), False),
    (0.5 * (1 + 1e-9), 4.0 * (1 - 1e-9), False),
])
def test_fold_thresholds_are_half_a_cell_and_four_cells(gap, apart, folds,
                                                        chart_dims):
    # members 1 and 2 sit ``gap`` grid cells apart in the chart and
    # ``apart`` cells apart in R^3; a fold needs both gap < 0.5 and
    # apart > 4, just inside either threshold.  In a 2-d chart the gap is
    # the length of (0.3 gap, 0.95394 gap), whose first coordinate alone
    # is well below half a cell
    step = 0.01
    positions = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                          [0.0, 0.0, 1.0 + apart * step]])
    first = (1.0 if chart_dims == 1 else 0.3) * gap * step
    proj = np.zeros((1, 3, chart_dims))
    proj[0, :, 0] = [-20 * step, 0.0, first]
    if chart_dims == 2:
        proj[0, 2, 1] = math.sqrt((gap * step) ** 2 - first ** 2)
    f = type("Samples", (), {"positions": positions})
    [error] = immersion_mod._detect_fold(f, [7], np.array([[0, 1, 2]]),
                                         np.array([3]), proj, step)
    assert (error is not None) == folds
    if folds:
        assert str(error).startswith(
            "projection folds near sample 7: members 1 and 2 overlap")


# ---------------------------------------------------------------------------
# raw samples: the fill from the polygon or triangle mesh they define


def raw_copy(f):
    """f's samples and adjacency without its evaluator."""
    return immersion_from_points(f.positions, m=f.m,
                                 faces=f.faces if f.m == 2 else None)


def raw_fill_errors(f, r, every, rule):
    """Largest |lambda - lambda_raw| and sup |u - u_raw| over all grid nodes,
    rim included, of the patches at every ``every``-th sample of f and of its
    raw copy, both over the plane f resolves there."""
    raw, ids = raw_copy(f), list(range(0, len(f), every))
    slopes, heights = [], []
    for q, frame in zip(ids, planes_of(planes_for(f, ids, rule, r, 0.25))):
        exact, pl = (extract_graph_patch(g, q, Subspace(frame), r)
                     for g in (f, raw))
        assert np.array_equal(np.isnan(exact.u), np.isnan(pl.u))
        slopes.append(abs(exact.lambda_measured - pl.lambda_measured))
        heights.append(np.nanmax(np.abs(exact.u - pl.u)))
    return max(slopes), max(heights)


@pytest.mark.parametrize("name, params, rule, r, samples, bounds", [
    # (samples, largest |d lambda|, largest sup |d u|) at two resolutions;
    # measured: circle 1.4e-5, 3.0e-7 and 8.1e-7, 7.5e-8; ellipse 1.5e-4,
    # 3.4e-7 and 3.6e-5, 8.5e-8
    ("circle", {"radius": 1.0}, "best-fit", 0.2, (4096, 8192),
     ((2e-5, 4e-7), (2e-6, 1e-7))),
    ("ellipse", {"a": 1.0, "b": 0.6}, "best-fit", 0.2, (4096, 8192),
     ((2e-4, 4e-7), (5e-5, 1e-7))),
    # measured: torus 0.045, 0.021 and 0.040, 5.6e-3; sphere 0.16, 4.3e-3
    # and 0.069, 1.1e-3
    ("torus", {"R": 2.0, "r": 0.5}, "tangent", 0.2, ("32x16", "64x32"),
     ((0.05, 0.025), (0.05, 7e-3))),
    ("sphere", {"radius": 1.0}, "tangent", 0.2, ("48x24", "96x48"),
     ((0.17, 5e-3), (0.08, 1.3e-3))),
])
def test_raw_fill_converges_to_the_analytic_fill(name, params, rule, r,
                                                 samples, bounds):
    # the piecewise-linear fill of raw samples against the solved graph over
    # the same planes: heights agree to O(h^2), rim nodes included, and
    # slopes to within the stated bounds
    errors = []
    for size, (slope_bound, height_bound) in zip(samples, bounds):
        f = make_shape(name, params, size)
        slope, height = raw_fill_errors(f, r, max(1, len(f) // 32), rule)
        assert slope <= slope_bound and height <= height_bound
        errors.append((slope, height))
    (coarse_slope, coarse_height), (fine_slope, fine_height) = errors
    assert coarse_height >= 3 * fine_height
    if name == "ellipse":
        assert coarse_slope >= 3 * fine_slope


def test_raw_circle_fails_where_the_analytic_circle_fails():
    # the fill lerps on the edges that cross the rim instead of holding the
    # outermost member's height: the raw circle fails at (0.2, 0.2) with the
    # analytic slope, 0.204124 up to grid error
    circle = make_shape("circle", {"radius": 1.0}, 4096)
    analytic = check_r_lambda(circle, 0.2, 0.2, "best-fit")
    raw = check_r_lambda(raw_copy(circle), 0.2, 0.2, "best-fit")
    assert not analytic.passed and not raw.passed
    assert abs(raw.worst_lambda - analytic.worst_lambda) <= 2e-5


def test_raw_mesh_check_fails_with_a_typed_error():
    # sample 9 of the fine torus folds over its best-fit plane; no sample
    # may end the check in an untyped error
    torus = raw_copy(make_shape("torus", {"R": 2.0, "r": 0.5}, "64x128"))
    try:
        report = check_r_lambda(torus, 0.2, 0.5, "best-fit")
    except LipimmError as exc:
        assert str(exc).startswith("sample ")
    else:
        assert isinstance(report, CheckReport)


def test_mesh_fill_reaches_the_rim_past_the_component():
    # at sample 14763 of the 192x96 sphere a rim node of the chart lies
    # beyond the faces with a corner in the component: between the chord of
    # two outside vertices and the rim.  The faces at the component's mesh
    # neighbours cover it (measured: 2.0e-4 in height, 0.016 in slope)
    sphere = make_shape("sphere", {"radius": 1.0}, "192x96")
    plane = sphere.tangent_plane(14763)
    exact, pl = (extract_graph_patch(f, 14763, plane, 0.2)
                 for f in (sphere, raw_copy(sphere)))
    assert np.array_equal(np.isnan(exact.u), np.isnan(pl.u))
    assert np.nanmax(np.abs(exact.u - pl.u)) <= 3e-4
    assert abs(exact.lambda_measured - pl.lambda_measured) <= 0.02


def test_component_without_rank_covers_no_chart_node():
    # the torus seen edge-on at sample 0: the faces at its component
    # project onto a segment of the chart, so no face covers a disk node
    torus = raw_copy(make_shape("torus", {"R": 2.0, "r": 0.5}, "16x32"))
    normal = torus.positions[0] / np.linalg.norm(torus.positions[0])
    plane = orthonormalize(np.column_stack([normal, [0.0, 0.0, 1.0]]))
    with pytest.raises(InsufficientSamplingError, match="lies on no edge"):
        extract_graph_patch(torus, 0, plane, 0.1)


def test_tangent_patches_do_not_depend_on_lambda(lipimm_calls):
    # a tangent patch is keyed by (r, rule): a second lambda reads the store
    def circle():
        return make_shape("circle", {"radius": 1.0}, 512)

    fresh = [check_r_lambda(circle(), 0.2, lam) for lam in (0.25, 0.5)]
    shared = circle()
    builds = lipimm_calls(immersion_mod._block_patches)
    reports = [check_r_lambda(shared, 0.2, lam) for lam in (0.25, 0.5)]
    assert builds.calls == 1
    for report, want in zip(reports, fresh):
        assert (report.passed, report.worst_lambda, report.worst_sample) == \
            (want.passed, want.worst_lambda, want.worst_sample)
        assert np.array_equal(report.lambdas, want.lambdas)
    # a best-fit patch depends on lambda through its seed radius delta_1
    for lam in (0.25, 0.5):
        check_r_lambda(shared, 0.2, lam, "best-fit")
    assert builds.calls == 3


def test_a_check_of_no_sample_is_input_error(circle):
    # no check passes or fails vacuously
    with pytest.raises(InputError, match="at least one sample"):
        check_r_lambda(circle, 0.2, 0.25, sample_ids=[])


def test_the_store_holds_no_member_arrays():
    # circle 4096 at r = 0.3: every patch has about 400 members.  The
    # store's record is the (N, G, k) heights and Du, the (N, n, n)
    # rotations, three (N,) vectors (bases, slopes, row index) and the
    # chart nodes: 8.65 MB, where copies of the members and their
    # projections took 24.8 MB more.  The check fails; its rows stay stored
    f = make_shape("circle", {"radius": 1.0}, 4096)
    assert not check_r_lambda(f, 0.3, 0.25).passed
    [(rows, index)] = f._patch_store.values()
    arrays = [v for v in vars(rows).values() if isinstance(v, np.ndarray)]
    n, g = len(f), len(rows.x_nodes)
    assert sorted(a.shape for a in arrays + [index]) == sorted(
        [(n,)] * 3 + [(g,), (n, g, 1), (n, g, 1), (n, 2, 2)])
    assert sum(a.nbytes for a in arrays + [index]) == \
        8 * (n * (2 * g + 4 + 3) + g) < 8.7e6


def test_plane_errors_keep_their_sample_prefix():
    # a sample without a plane fails alone, named as every failure of the
    # check is named
    circle = make_shape("circle", {"radius": 1.0}, 256)
    with pytest.raises(InputError) as info:
        check_r_lambda(raw_copy(circle), 0.2, 0.25)
    assert str(info.value) == \
        "sample 0: tangent rule needs an analytic evaluator"
    with pytest.raises(InputError) as info:
        check_r_lambda(circle, 0.2, 0.25, sample_ids=[300])
    assert str(info.value) == "sample 300: sample id 300 out of range"


def test_one_plane_pass_fails_thin_seed_balls_alone(lipimm_calls):
    # best-fit planes at (0.1, 0.25) on sphere 48x24: 818 of the 1,106
    # seed balls hold at most 2 samples.  One plane pass gives those
    # samples their error and the others their planes; the first failure
    # in id order is sample 0's plane error, so the store keeps that
    # outcome, the one of its plane resolved alone, and nothing else
    f = make_shape(*SPHERE, "48x24")
    balls = lipimm_calls(immersion_mod._ball_blocks)
    for _ in range(2):  # the second check reads the store
        with pytest.raises(InsufficientSamplingError) as info:
            check_r_lambda(f, 0.1, 0.25, "best-fit")
        assert str(info.value) == \
            "sample 0: not enough samples near 0 for a best-fit plane"
    assert balls.calls == 1
    [(rows, index)] = f._patch_store.values()
    ids = list(range(len(f)))
    alone = [planes_for(f, [q], "best-fit", 0.1, 0.25) for q in ids]
    assert sum(err is None for _, [err] in alone) == 288
    assert rows.bases.tolist() == np.flatnonzero(index >= 0).tolist() == [0]
    assert_same_rows(rows, _block_patches(f, [0], alone[0], 0.1))


def test_patches_are_built_only_up_to_the_first_plane_error():
    # on sphere 48x24 at (0.1, 0.25), best-fit: the samples with a plane
    # before the first thin seed ball in id order are built, that sample's
    # plane error is stored and raised, and no later sample is resolved
    f = make_shape(*SPHERE, "48x24")
    frames, errors = planes_for(f, range(len(f)), "best-fit", 0.1, 0.25)
    good = [q for q, err in enumerate(errors) if err is None]
    thin = [q for q, err in enumerate(errors) if err is not None]
    # a row that failed has a NaN frame, as a failed patch row a NaN slope
    assert np.isnan(frames[thin]).all() and np.isfinite(frames[good]).all()
    ids = good[:3] + [thin[5]] + good[3:6] + [thin[0]]
    with pytest.raises(InsufficientSamplingError) as info:
        check_r_lambda(f, 0.1, 0.25, "best-fit", sample_ids=ids)
    assert str(info.value) == f"sample {thin[5]}: {errors[thin[5]]}"
    [(rows, index)] = f._patch_store.values()
    assert rows.bases.tolist() == ids[:4]
    assert index[ids[:4]].tolist() == [0, 1, 2, 3]
    assert np.count_nonzero(index >= 0) == 4
    assert_same_rows(rows, _block_patches(
        f, ids[:4], (frames[ids[:4]], [errors[q] for q in ids[:4]]), 0.1))


def test_a_first_plane_error_raises_before_any_patch_is_built(lipimm_calls):
    # sphere 96x48 at (0.1, 0.25), best-fit: sample 0's seed ball is thin,
    # so the check raises from its plane pass alone, in 0.06-0.07 s (it
    # built the 2,688 patches with a plane first, in 0.83-1.00 s)
    f = make_shape(*SPHERE, "96x48")
    builds = lipimm_calls(immersion_mod._component_patches)
    start = time.perf_counter()
    with pytest.raises(InsufficientSamplingError) as info:
        check_r_lambda(f, 0.1, 0.25, "best-fit")
    assert time.perf_counter() - start < 0.3
    assert str(info.value) == \
        "sample 0: not enough samples near 0 for a best-fit plane"
    assert builds.calls == 0


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
    # figure eight: injective parametrization, crossing image; no two
    # samples coincide, and the patches through the crossing are steep
    t = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    pts = np.column_stack([np.sin(t), np.sin(t) * np.cos(t)])
    raw = immersion_from_points(pts)
    report = check_r_lambda_function(raw, 0.2, 0.6)
    assert (report.worst_quotient, report.worst_sample) == \
        (1.5078154101626282, 315)
    assert report.injective and report.injectivity_violations == []
    assert not report.passed


def test_function_check_names_a_duplicated_sample():
    # sample 10 repeated as sample 11: every patch holding both reports the
    # pair and adds no quotient
    circle = make_shape("circle", {"radius": 1.0}, 256).positions
    raw = immersion_from_points(np.insert(circle, 10, circle[10], axis=0))
    report = check_r_lambda_function(raw, 0.2, 0.25)
    assert not report.injective and not report.passed
    assert report.injectivity_violations == [(10, 11)] * 18
    assert (report.worst_quotient, report.worst_sample) == \
        (0.18618539952758859, 229)


def test_function_check_projection_tie_is_not_a_graph():
    # a flat side of a rounded rectangle with one sample split into two that
    # share their x but differ by 1e-6 in height
    rect = make_shape("rounded-rectangle", {"width": 3.0, "height": 2.0,
                                            "corner_radius": 0.5}, 512)
    pts = np.insert(rect.positions, 56, rect.positions[56] + [0.0, 5e-7],
                    axis=0)
    pts[57] = rect.positions[56] - [0.0, 5e-7]
    report = check_r_lambda_function(immersion_from_points(pts), 0.2, 0.25)
    assert report.worst_quotient == math.inf and report.worst_sample == 45
    assert report.injective and not report.passed


def test_function_check_names_the_first_thin_seed_ball():
    # sample 45 of the thinned circle has no neighbor within 2 delta_1
    circle = make_shape("circle", {"radius": 1.0}, 256).positions
    raw = immersion_from_points(
        np.delete(circle, list(range(45, 50)) + list(range(51, 56)), axis=0))
    with pytest.raises(InsufficientSamplingError) as info:
        check_r_lambda_function(raw, 0.2, 0.25)
    assert str(info.value) == "not enough samples near 45 for a best-fit plane"
    with pytest.raises(InputError, match="need r > 0"):
        check_r_lambda_function(raw, 0.0, 0.25)


def reference_best_fit_plane(f, q, radius):
    """The best-fit plane sample by sample: the seed ball from the distances
    to all samples, one SVD per plane, brute-force components."""
    def principal(centered):
        frame = np.linalg.svd(centered, full_matrices=False)[2][:f.m].T.copy()
        for j in range(f.m):
            if frame[np.argmax(np.abs(frame[:, j])), j] < 0:
                frame[:, j] = -frame[:, j]
        return orthonormalize(frame)

    f_q = f.positions[q]
    seed = np.nonzero(np.linalg.norm(f.positions - f_q, axis=1) < 2 * radius)[0]
    if len(seed) <= f.m:
        raise InsufficientSamplingError(
            f"not enough samples near {q} for a best-fit plane")
    plane = principal(f.positions[seed] - f_q)
    members = reference_component(f, q, plane, radius)
    return principal(f.positions[members] - f_q) if len(members) > f.m \
        else plane


def reference_function_check(f, r, lam):
    """(worst quotient, worst sample, violations) from one pass per sample
    over every member pair."""
    worst, worst_q, violations = 0.0, -1, []
    for q in range(len(f)):
        plane = reference_best_fit_plane(f, q, delta(1, r, lam))
        members = reference_component(f, q, plane, r)
        rel = f.positions[members] - f.positions[q]
        proj, heights = rel @ plane.frame, rel @ complement(plane).frame
        pts = f.positions[members]
        dx, dz, damb = (np.linalg.norm(a[:, None] - a[None], axis=2)
                        for a in (proj, heights, pts))
        upper = np.triu(np.ones_like(dx, dtype=bool), k=1)
        if np.any(upper & (damb < 1e-9)):
            i, j = np.argwhere(upper & (damb < 1e-9))[0]
            violations.append((int(members[i]), int(members[j])))
            continue
        keep = upper & (dx > 1e-14)
        q_max = float(np.max(dz[keep] / dx[keep])) if np.any(keep) else 0.0
        if np.any(upper & (dx <= 1e-14) & (dz > 1e-12)):
            q_max = math.inf
        if q_max > worst:
            worst, worst_q = q_max, q
    return worst, worst_q, violations


def _function_check_inputs():
    t = np.linspace(0, 2 * np.pi, 300, endpoint=False)
    wobble = 0.01 * np.random.default_rng(4).standard_normal((300, 3))
    yield immersion_from_points(np.column_stack(
        [np.cos(t), np.sin(2 * t) / 2, np.sin(t)]) + wobble), 0.3, 0.5
    yield make_shape("torus-knot", {"p": 2, "q": 3}, 600), 0.2, 0.25
    yield make_shape("ellipse", {"a": 1.0, "b": 0.4}, 301), 0.15, 0.5
    yield shuffled_cycle(make_shape("ellipse", {"a": 1.0, "b": 0.5}, 200),
                          7), 0.2, 0.25
    sphere = make_shape("sphere", {"radius": 1.0}, "16x8")
    yield immersion_from_points(sphere.positions, m=2,
                                faces=sphere.faces), 1.0, 0.5


@pytest.mark.parametrize("index", range(5))
def test_function_check_matches_the_pairwise_reference(index):
    # sorted adjacent pairs on curves, all pairs on surfaces, against every
    # pair of every patch; the adjacency bound holds in exact arithmetic,
    # so the quotients may differ by rounding only
    f, r, lam = list(_function_check_inputs())[index]
    worst, worst_q, violations = reference_function_check(f, r, lam)
    report = check_r_lambda_function(f, r, lam)
    assert report.worst_sample == worst_q
    assert report.worst_quotient == pytest.approx(worst, rel=1e-12)
    assert report.injectivity_violations == violations


@pytest.mark.parametrize("name, params, samples", [
    ("circle", {"radius": 1.0}, 200),
    ("ellipse", {"a": 1.0, "b": 0.4}, 301),
    ("rounded-rectangle", {"width": 3.0, "height": 2.0,
                           "corner_radius": 0.5}, 400),
    ("circle3d", {"radius": 1.0, "tilt": 0.3}, 257),
    ("torus-knot", {"p": 2, "q": 3}, 600),
    ("sphere", {"radius": 1.0}, "16x8"),
])
def test_best_fit_planes_match_the_sample_by_sample_planes(name, params,
                                                           samples):
    # the stacked pass (grid-hash seed balls, SVDs grouped by member count,
    # window components) gives every frame bit for bit, and a one-row pass
    # gives the error the reference raises
    f = make_shape(name, params, samples)
    for radius in (2 * f.sample_spacing, 8 * f.sample_spacing):
        frames = planes_of(f.best_fit_planes(range(len(f)), radius))
        for q, frame in enumerate(frames):
            assert np.array_equal(frame,
                                  reference_best_fit_plane(f, q, radius).frame)
    with pytest.raises(InsufficientSamplingError, match="near 3 for"):
        planes_of(f.best_fit_planes([3], 1e-3 * f.sample_spacing))


def _jittered(name, params, samples, seed):
    """Samples of a catalog curve at jittered parameters, as raw points (no
    two patches are congruent, so the worst sample is unique), and a patch
    radius of at most 12 sample spacings and 0.4 radii of curvature."""
    ev = make_shape(name, params, 8).evaluator
    rng = np.random.default_rng(seed)
    t = (np.arange(samples) + rng.uniform(-0.3, 0.3, samples)) / samples
    dense = ev.point(np.linspace(0.0, ev.period, 4096, endpoint=False))
    step = np.roll(dense, -1, axis=0) - dense
    length = np.linalg.norm(step, axis=1)
    curvature = np.max(np.linalg.norm(np.roll(step, -1, axis=0) - step,
                                      axis=1) / length ** 2)
    spacing = np.median(length) * 4096 / samples
    return ev.point(t * ev.period), min(12 * spacing, 0.4 / curvature)


CATALOG_CURVES = st.one_of(
    st.builds(lambda r: ("circle", {"radius": r}), st.floats(0.5, 2.0)),
    st.builds(lambda a, b: ("ellipse", {"a": a, "b": b}),
              st.floats(0.8, 1.2), st.floats(0.6, 0.8)),
    st.builds(lambda r, tilt: ("circle3d", {"radius": r, "tilt": tilt}),
              st.floats(0.5, 2.0), st.floats(0.0, 0.6)),
    st.builds(lambda tube: ("torus-knot", {"p": 2, "q": 3, "tube": tube}),
              st.floats(0.3, 0.6)),
    st.builds(lambda w, h, c: ("rounded-rectangle", {
        "width": w, "height": h, "corner_radius": c}),
        st.floats(2.0, 3.0), st.floats(1.5, 2.0), st.floats(0.4, 0.6)))


@settings(max_examples=40, deadline=None)
@given(shape=CATALOG_CURVES, samples=st.integers(500, 800),
       seed=st.integers(0, 2 ** 16), shift=st.integers(1, 10 ** 6))
def test_function_check_is_invariant_under_relabeling_and_rigid_motion(
        shape, samples, seed, shift):
    pts, r = _jittered(*shape, samples, seed)
    base = check_r_lambda_function(immersion_from_points(pts), r, 0.25)
    # sample i becomes sample i + shift
    rolled = check_r_lambda_function(
        immersion_from_points(np.roll(pts, shift, axis=0)), r, 0.25)
    assert math.isclose(rolled.worst_quotient, base.worst_quotient,
                        rel_tol=1e-12, abs_tol=1e-12)
    assert rolled.worst_sample == (base.worst_sample + shift) % samples
    rng = np.random.default_rng(seed)
    rotation, _ = np.linalg.qr(rng.standard_normal((pts.shape[1],) * 2))
    moved = check_r_lambda_function(immersion_from_points(
        pts @ rotation.T + rng.uniform(-3, 3, pts.shape[1])), r, 0.25)
    assert math.isclose(moved.worst_quotient, base.worst_quotient,
                        rel_tol=1e-12, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# graph-system metric


def make_system(shape, ids, r):
    rows, at = graph_patches(shape, ids, r, 0.25, "tangent")
    return GraphSystem(rows.rotation[at], shape.positions[ids], rows.u[at], r)


def test_graph_system_distance_zero_and_translation(circle):
    ids = [0, 1000, 2000]
    g1 = make_system(circle, ids, 0.2)
    assert graph_system_distance(g1, g1) == 0.0
    moved = g1.translations.copy()
    moved[0] += [0.01, 0.0]
    g2 = GraphSystem(g1.rotations, moved, g1.grids.copy(), g1.radius)
    assert graph_system_distance(g1, g2) == pytest.approx(0.01, abs=1e-12)
    g3 = GraphSystem(g1.rotations, g1.translations + [0.01, 0.0],
                     g1.grids.copy(), g1.radius)
    assert graph_system_distance(g1, g3) == pytest.approx(0.03, abs=1e-12)


def test_graph_system_metric_axioms(circle):
    rng = np.random.default_rng(0)
    ids = [0, 512]
    base = make_system(circle, ids, 0.2)
    systems = [base]
    for _ in range(3):
        pert = GraphSystem(
            base.rotations,
            base.translations + rng.normal(0, 0.01, base.translations.shape),
            base.grids + rng.normal(0, 0.001, base.grids.shape), base.radius)
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


def intersection_sets(f, p, q, rho, lam):
    """U_{rho,q}, U_{delta,q} and U_{delta,p} over tangent planes, with
    delta = rho / (3 (1 + lambda)), and each member's |f(q) - f(x)| over
    (1 + lambda) rho."""
    d = rho / (3.0 * (1.0 + lam))
    members_q, dq = ladder_at(f, q, f.tangent_planes([q])[0], [rho, d])
    [dp] = ladder_at(f, p, f.tangent_planes([p])[0], [d])
    ratios = np.linalg.norm(f.positions[members_q] - f.positions[q],
                            axis=1) / ((1.0 + lam) * rho)
    return members_q, dq, dp, ratios


def test_patch_intersection_same_point(circle):
    members_q, dq, dp, ratios = intersection_sets(circle, 3, 3, 0.2, 0.25)
    assert np.all(ratios < 1.0)
    assert np.intersect1d(dq, dp).size
    assert np.all(np.isin(dp, members_q))


def test_patch_intersection_chord_bound(circle):
    *_, ratios = intersection_sets(circle, 100, 0, 0.2, 0.25)
    assert np.max(ratios) < 1.0


def test_patch_intersection_random_pairs_on_torus():
    # |f(q) - f(x)| < (1 + lambda) rho on U_{rho,q}, and U_{delta,p} lies in
    # U_{rho,q} wherever the delta-sets of p and q meet
    torus = make_shape("torus", {"R": 2.0, "r": 0.5}, "48x24")
    rng = np.random.default_rng(1)
    applicable = 0
    for trial in range(500):
        p, q = rng.integers(0, len(torus), 2)
        if trial % 10 == 0:
            q = p  # delta-patches are near-singletons here: meeting pairs
        members_q, dq, dp, ratios = intersection_sets(torus, int(p), int(q),
                                                      0.1, 0.25)
        assert np.all(ratios < 1.0)
        if np.intersect1d(dq, dp).size:
            applicable += 1
            assert np.all(np.isin(dp, members_q))
    assert applicable >= 50  # the sweep must exercise the inclusion branch
