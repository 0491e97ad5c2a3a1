import dataclasses
import itertools
import math

import numpy as np
import pytest

import lipimm.normals as normals_mod
from lipimm.errors import (
    DimensionMismatchError,
    InputError,
    InvariantViolationError,
    RegimeError,
    WellDefinednessError,
)
from lipimm.grassmann import (
    geodesic_distance,
    geodesic_distances,
    hausdorff_of,
    orthonormalize,
    sphere_angle_matrix,
)
from lipimm.immersion import _bilinear
from lipimm.karcher import karcher_mean
from lipimm.nets import DeltaNet, build_net, net_from_points
from lipimm.normals import (
    NormalMeasureField,
    angle_bound_check,
    chart_normals,
    constants,
    direction_field,
    field_lipschitz_check,
    make_cutoff,
    n_lipschitz_check,
    transfer_net,
)
from lipimm.shapes import make_shape

from conftest import complement, csr_of, csr_rows, scaled


def cutoff_derivative(spec, t):
    """g'(t) of the cutoff ``spec``: the slope of its descending step, the
    plateau profile 1/(1 - a) with its bump ramps, over [inner, 1]."""
    t = np.asarray(t, dtype=float)
    s = (t - spec.inner) / (1.0 - spec.inner)
    a, ramp = normals_mod.RAMP_WIDTH, normals_mod._bump_ramp
    slope = 1.0 / (1.0 - a) * np.where(
        s < a, ramp(s / a), np.where(s <= 1.0 - a, 1.0, ramp((1.0 - s) / a)))
    return np.where((s > 0) & (s < 1), -slope / (1.0 - spec.inner), 0.0)


def member_normals(net, j, sample_ids):
    """Unit normals of a codimension-one chart j at member samples: a
    one-chart ``chart_normals``."""
    return chart_normals(net, [j], csr_of([sample_ids]))


def one_chart(shape, q, r):
    """The net of the one point q at (r, 0.25) over its tangent plane, and
    its patch's rotation: its chart 0 is the patch at q."""
    net = net_from_points(shape, r, 0.25, 1, [q])
    rows, [at] = net.patches([0])
    return net, rows.rotation[at]


@pytest.fixture(scope="module")
def circle():
    return make_shape("circle", {"radius": 1.0}, 4096)


@pytest.fixture(scope="module")
def circle_net(circle):
    return build_net(circle, 0.2, 0.25, 5)


@pytest.fixture(scope="module")
def circle_field(circle, circle_net):
    return direction_field(circle, circle_net)


@pytest.fixture(scope="module")
def circle1024_net():
    return build_net(make_shape("circle", {"radius": 1.0}, 1024), 0.2, 0.25,
                     5)


@pytest.fixture(scope="module")
def circle2048_net():
    return build_net(make_shape("circle", {"radius": 1.0}, 2048), 0.2, 0.25,
                     5)


@pytest.fixture(scope="module")
def sphere_net():
    sphere = make_shape("sphere", {"radius": 1.0}, "48x24")
    return build_net(sphere, 0.15, 0.25, 5)


@pytest.fixture(scope="module")
def tilted():
    return make_shape("circle3d", {"radius": 1.0, "tilt": 0.2}, 2048)


@pytest.fixture(scope="module")
def tilted_net(tilted):
    return build_net(tilted, 0.2, 0.25, 5)


@pytest.fixture(scope="module")
def tilted_field(tilted, tilted_net):
    return NormalMeasureField(tilted, tilted_net)


# ---------------------------------------------------------------------------
# cutoff


def test_cutoff_endpoint_values():
    g = make_cutoff(0.25)
    assert g.value(0.0) == 1.0
    assert g.value(2.0) == 0.0
    assert np.all(g.value(np.linspace(0, g.inner * 0.999, 100)) == 1.0)
    assert np.all(g.value(np.linspace(1.0 + 1e-12, 3.0, 100)) == 0.0)


def test_cutoff_range_and_slope_bound():
    for lam in (0.0, 0.25, 1.0, 4.0):
        g = make_cutoff(lam)
        ts = np.linspace(0.0, 2.0, 100001)
        vals = g.value(ts)
        assert np.all((0.0 <= vals) & (vals <= 1.0))
        der = cutoff_derivative(g, ts)
        assert np.all(der <= 0.0)
        assert np.min(der) >= -2.0 - 1e-9


def test_cutoff_derivative_matches_finite_differences():
    g = make_cutoff(0.25)
    ts = np.linspace(0.01, 1.99, 4001)
    h = 1e-6
    fd = (g.value(ts + h) - g.value(ts - h)) / (2 * h)
    assert np.max(np.abs(fd - cutoff_derivative(g, ts))) < 5e-5


def test_cutoff_monotone_and_continuous():
    g = make_cutoff(0.25)
    ts = np.linspace(0.0, 1.5, 20001)
    vals = g.value(ts)
    assert np.all(np.diff(vals) <= 1e-15)
    assert np.max(np.abs(np.diff(vals))) < 2.5 * (ts[1] - ts[0]) * 2.0


def test_cutoff_rejects_negative_argument():
    with pytest.raises(InputError):
        make_cutoff(0.25).value(-0.1)


# ---------------------------------------------------------------------------
# constants


def test_constants_reference_values():
    c = constants(1, 0.25, 0.2)
    assert c.gamma == pytest.approx(0.907888, abs=1e-6)
    assert math.cos(c.gamma) == pytest.approx(0.61543, abs=2e-5)
    assert c.L_codim1 == pytest.approx(2.7497e6, rel=1e-4)
    assert c.epsilon == pytest.approx(2.238e-7, rel=1e-3)
    assert c.sigma == pytest.approx(5.510e-8, rel=1e-3)
    assert c.L_highercodim == pytest.approx(4 ** 18 / 0.2, rel=1e-12)
    assert c.Lambda == pytest.approx(1.2543e6, rel=1e-3)
    assert c.Lambda_sharp == pytest.approx(3.125, abs=1e-12)


def test_constants_degenerate_lambdas():
    c1 = constants(1, 1.0, 0.2)
    assert c1.gamma == pytest.approx(3 * math.pi / 8, abs=1e-12)
    assert math.cos(c1.gamma) == pytest.approx(0.382683, abs=1e-6)
    c0 = constants(1, 0.0, 0.2)
    assert c0.gamma == pytest.approx(math.pi / 4, abs=1e-15)
    assert c0.sigma == pytest.approx(0.5 / (2 * c0.L_codim1), rel=1e-12)


# ---------------------------------------------------------------------------
# unit normals on patches


def test_unit_normal_flat_patch():
    shape = make_shape("rounded-rectangle",
                       {"width": 4.0, "height": 3.0, "corner_radius": 0.5}, 4096)
    q = int(round(1.5 / shape.evaluator.period * 4096))
    net, rotation = one_chart(shape, q, 0.1)
    normals = member_normals(net, 0, net.members(0, 0))
    expected = rotation[:, 1]
    assert np.max(np.linalg.norm(normals - expected, axis=1)) < 1e-9


def test_unit_normal_circle_is_radial(circle):
    net, rotation = one_chart(circle, 0, 0.2)
    members = net.members(0, 0)[::16]
    normals = member_normals(net, 0, members)
    radial = circle.positions[members]
    dots = np.abs(np.einsum("ij,ij->i", normals, radial))
    assert np.all(dots > 1 - 1e-6)
    # deterministic sign: positive component along the isometry's last axis
    last = rotation[:, 1]
    assert np.all(normals @ last > 0)


def test_unit_normal_orthogonal_to_tangents(circle):
    net, _ = one_chart(circle, 100, 0.2)
    members = net.members(0, 0)[::8]
    normals = member_normals(net, 0, members)
    tangents = circle.evaluator.jacobian(circle.params[members])
    tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)
    assert np.max(np.abs(np.einsum("ij,ij->i", normals, tangents))) < 2e-5


# ---------------------------------------------------------------------------
# sign alignment


def test_sign_alignment_self_and_adjacent(circle, circle_net):
    # the chart normals of a chart and of its neighbor agree in sign on the
    # delta_1-samples they share: each graph normal's last patch-frame
    # component is positive
    for j, k in ((0, 0), (0, 1)):
        shared = np.intersect1d(circle_net.members(j, 1),
                                circle_net.members(k, 1))
        nu_j, nu_k = np.split(chart_normals(circle_net, [j, k],
                                            csr_of([shared, shared])), 2)
        assert len(shared) and np.all(np.einsum("ij,ij->i", nu_j, nu_k) > 0)


def _flip_row(rows, i):
    """A copy of the curve ``PatchRows`` whose row i is the same physical
    graph written with the rotated-by-pi rotation, which has the opposite
    continuous normal: its chart coordinates negated, u(x) -> -u(-x)."""
    flipped = dataclasses.replace(rows, rotation=rows.rotation.copy(),
                                  u=rows.u.copy(), du=rows.du.copy())
    flipped.rotation[i] = -rows.rotation[i]
    flipped.u[i] = -rows.u[i, ::-1]
    flipped.du[i] = rows.du[i, ::-1]
    return flipped


def test_sign_alignment_detects_negated_patch(circle, monkeypatch):
    # a chart written with the rotated-by-pi isometry has the opposite
    # normals; S signs its plane normals against its chart's normal at the
    # center, so that chart's S flips and its span, T up to sign, stays
    net = build_net(circle, 0.2, 0.25, 5)
    members = net.members(1, 0)[:5]
    a = member_normals(net, 1, members)
    field = direction_field(circle, net)
    rows, at = net.patches()
    flipped = _flip_row(rows, at[1])
    real = DeltaNet.patches
    monkeypatch.setattr(DeltaNet, "patches", lambda self, js=None: (
        flipped, real(self, js)[1]))
    b = member_normals(net, 1, members)
    assert np.allclose(a, -b, atol=1e-12)
    flipped_field = direction_field(circle, net)
    for j in (0, 1, 2):
        s_vals = field.chart_field(j)[1]
        assert np.array_equal(flipped_field.chart_field(j)[1],
                              -s_vals if j == 1 else s_vals)


# ---------------------------------------------------------------------------
# averaged field


def test_averaged_vector_lower_bound_flat():
    flat = make_shape("circle", {"radius": 2.0}, 2048)
    net = build_net(flat, 0.2, 0.25, 5)
    ids, s_vals, _ = direction_field(flat, net).chart_field(100)
    s = s_vals[list(ids).index(100)]
    assert np.linalg.norm(s) >= 1.0  # aligned sum with one unit weight


def test_averaged_vector_is_a_row_of_the_direction_field(circle, circle_net,
                                                         circle_field):
    # S at one (chart, sample) pair is the field's row of that pair
    for j in (0, 2047, 4095):
        ids, s_vals, _ = circle_field.chart_field(j)
        for row in (0, len(ids) - 1):
            sums, failure = normals_mod._chart_sums(
                circle, circle_net, np.array([j]), ids[row:row + 1])
            assert failure is None
            assert np.array_equal(sums[0], s_vals[row])
            assert np.linalg.norm(sums[0]) >= 1 / (1 + circle_net.lam)


def _reference_field(f, net):
    """The chart-by-chart direction field: per-sample cutoff weights, sign
    fixes and sums over each chart's delta_3-members, then a per-row span
    test on every overlap; returns T, |S|, owning charts, every chart's
    (ids, S, T) and the largest overlap span distance."""
    cutoff = make_cutoff(net.lam)
    rows, at = net.patches()
    w = rows.rotation[at, :, f.m]
    nu_at_center = np.concatenate([member_normals(net, j, [q])
                                   for j, q in enumerate(net.points)])
    weights = {}
    t_global = np.zeros((len(f), f.n))
    s_norm = np.zeros(len(f))
    chart_of = np.full(len(f), -1, dtype=int)
    charts, overlap_max = [], 0.0
    cover = csr_rows(net.cover_index(2))
    for j in range(len(net)):
        ids = net.members(j, 3)
        s_vals = np.zeros((len(ids), f.n))
        for row, p in enumerate(ids):
            if p not in weights:
                ks = cover[p]
                dist = np.linalg.norm(
                    f.positions[net.points[ks]] - f.positions[p], axis=1)
                weights[p] = (ks, cutoff.value(dist / net.delta(2)))
            ks, g_w = weights[p]
            signs = np.where(w[ks] @ nu_at_center[j] >= 0, 1.0, -1.0)
            s_vals[row] = (g_w * signs) @ w[ks]
        norms = np.linalg.norm(s_vals, axis=1)
        t_vals = s_vals / norms[:, None]
        charts.append((ids, s_vals, t_vals))
        fresh = chart_of[ids] < 0
        for row, p in enumerate(ids):
            if fresh[row]:
                chart_of[p] = j
                t_global[p] = t_vals[row]
                s_norm[p] = norms[row]
                continue
            u, v = t_global[p], t_vals[row]
            if float(u @ v) < 0:
                v = -v
            rej = u - float(u @ v) * v
            overlap_max = max(overlap_max, float(
                np.arcsin(np.clip(np.linalg.norm(rej), 0.0, 1.0))))
    return t_global, s_norm, chart_of, charts, overlap_max


@pytest.mark.parametrize("net_name",
                         ["circle_net", "sphere_net", "circle1024_net"])
def test_stacked_field_matches_the_chart_by_chart_reference(request,
                                                            net_name):
    # circle4096 has real overlaps (span distances up to 4.7e-16); every
    # value is the one the chart-by-chart pass gives, bit for bit
    net = request.getfixturevalue(net_name)
    field = direction_field(net.f, net)
    t_global, s_norm, chart_of, charts, overlap_max = \
        _reference_field(net.f, net)
    assert np.array_equal(field.T, t_global)
    assert np.array_equal(field.S_norm, s_norm)
    assert np.array_equal(field.chart_of, chart_of)
    assert field.overlap_span_max == overlap_max
    for j, reference in enumerate(charts):
        for got, want in zip(field.chart_field(j), reference):
            assert np.array_equal(got, want)
    if net_name == "circle_net":
        assert 0.0 < overlap_max <= 1e-15


def _field_error(monkeypatch, net, failures):
    """direction_field's error on a circle-2048 net (chart j's delta_3-members
    are samples j-1, j, j+1) with failures injected: ("uncovered", s)
    empties sample s's delta_2-cover; ("far", s) leaves it one atom, 20
    samples away, of weight 0; ("angle", j) turns chart j's reference
    normal by 0.5 rad; ("span", j) scales and tilts it, so that the angle
    check passes but the signs of the atoms split."""
    cover = csr_rows(net.cover_index(2))
    refs = {}
    for kind, at in failures:
        if kind == "uncovered":
            cover[at] = np.empty(0, dtype=int)
        elif kind == "far":
            cover[at] = np.array([at + 20])
        else:
            refs[int(net.points[at])] = kind
    real_cover, real_normals = net.cover_index, normals_mod._unit_normals

    def normals(rotations, counts, du):
        # the field's reference normals: one row per chart, at its center
        out = real_normals(rotations, counts, du)
        for nu, q in zip(out, net.points.tolist()):
            t = np.array([-nu[1], nu[0]])
            if refs.get(q) == "angle":
                nu[:] = math.cos(0.5) * nu + math.sin(0.5) * t
            elif refs.get(q) == "span":
                nu[:] = 1e6 * (nu + 100.0 * t)
        return out

    with monkeypatch.context() as m:
        m.setattr(net, "cover_index", lambda iota: csr_of(cover)
                  if iota == 2 else real_cover(iota))
        m.setattr(normals_mod, "_unit_normals", normals)
        with pytest.raises(Exception) as info:
            direction_field(net.f, net)
    return type(info.value), str(info.value)


def test_direction_field_raises_for_the_first_failing_chart_and_row(
        monkeypatch, circle2048_net):
    # a chart-by-chart pass raises, for the first chart that fails, a
    # failing member row first, then the chart's |S| bound, then its
    # overlap rows; sample s belongs to charts s-1, s and s+1
    net = circle2048_net
    single = {kind: _field_error(monkeypatch, net, [(kind, at)])
              for kind, at in (("uncovered", 101), ("far", 101),
                               ("angle", 100), ("span", 100))}
    assert single == {
        "uncovered": (InvariantViolationError,
                      "sample 101 is not covered at delta_2 scale; the net "
                      "is not fine enough (level >= 4 required)"),
        "far": (InvariantViolationError,
                "|S| = 0.000000 < (1+lambda)^-1 = 0.800000 at sample 101 in "
                "chart 100"),
        "angle": (InvariantViolationError,
                  "plane normal of chart 95 is 0.5153 rad from chart 100's "
                  "reference normal, beyond arctan(lambda) = 0.2450"),
        "span": (WellDefinednessError,
                 "span of S disagrees by 2.280e-03 rad at sample 99 between "
                 "charts 98 and 100"),
    }
    # one failure per chart: the first chart's failure is raised
    for order in itertools.permutations(single):
        failures = [(kind, 100 * i + (kind in ("uncovered", "far")))
                    for i, kind in enumerate(order, start=1)]
        assert _field_error(monkeypatch, net, failures) == single[order[0]]
    # two failures in chart 100: rows, then |S|, then overlap rows
    for failures, first in ((["angle", "uncovered"], "angle"),
                            (["angle", "far"], "angle"),
                            (["span", "uncovered"], "uncovered"),
                            (["span", "far"], "far")):
        injected = [(kind, 101 if kind in ("uncovered", "far") else 100)
                    for kind in failures]
        assert _field_error(monkeypatch, net, injected) == single[first]


def test_direction_field_min_norm_regression(circle_field):
    assert float(np.min(circle_field.S_norm)) >= 0.8
    assert float(np.min(circle_field.S_norm)) == pytest.approx(11.7447, abs=1e-3)


def test_direction_field_overlap_agreement(circle_field):
    assert circle_field.overlap_span_max <= 1e-9


def test_direction_field_requires_level_4(circle):
    net1 = build_net(circle, 0.2, 0.25, 1)
    with pytest.raises(InputError):
        direction_field(circle, net1)


def test_direction_field_on_sphere(sphere_net):
    sphere = sphere_net.f
    field = direction_field(sphere, sphere_net)
    assert field.overlap_span_max <= 1e-9
    assert float(np.min(field.S_norm)) >= 0.8
    # the averaged direction of a sphere is radial
    dots = np.abs(np.einsum("ij,ij->i", field.T, sphere.positions))
    assert np.min(dots) > 0.99


def test_surface_normals_inpaint_only_when_a_nan_cell_is_read(sphere_net,
                                                              lipimm_calls):
    # the field reads each chart at its center, where no cell is NaN; a
    # point near the rim reads NaN cells and gets the normal of the
    # inpainted grid, bit for bit, from one inpainting per chart
    inpaint = normals_mod._inpaint
    inpaints = lipimm_calls(inpaint)
    direction_field(sphere_net.f, sphere_net)
    assert inpaints.calls == 0
    rows, at = sphere_net.patches([0])
    pts = rows.radius * np.array([[0.0, 0.0], [0.3, -0.2], [0.999, 0.0],
                                  [0.0, -0.999], [0.7, 0.7]])
    du = _bilinear(rows.x_nodes, inpaint(rows.du[at[0], :, :, 0, :]), pts)
    normal = np.concatenate([-du, np.ones((len(du), 1))], axis=1)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    want = normal @ rows.rotation[at[0]].T

    def normals_at(x):
        count = np.array([len(x)])
        du = normals_mod._chart_slopes(rows, at, count, x)
        return normals_mod._unit_normals(rows.rotation[at], count, du)

    assert np.array_equal(normals_at(pts[:2]), want[:2])
    assert inpaints.calls == 0
    assert np.array_equal(normals_at(pts), want)
    assert inpaints.calls == 1


def test_angle_bound_check_self(circle_field, circle):
    report = angle_bound_check(circle_field, circle)
    assert report.precondition_ok
    assert report.worst_hausdorff == 0.0
    assert report.holds
    assert report.worst_angle <= math.atan(0.25) + 1e-9  # self-case margin
    assert report.gamma == pytest.approx(0.907888, abs=1e-6)


def test_angle_bound_check_nearby_circle(circle, circle_net, circle_field):
    other = make_shape("circle", {"radius": 1.01}, 4096)
    ids = range(0, 4096, 32)
    report = angle_bound_check(circle_field, other, chart_ids=ids)
    assert report.precondition_ok
    assert report.holds
    assert report.worst_angle < report.gamma
    # the stacked precondition is the chart-by-chart gauge bit for bit
    net_other = transfer_net(circle_net, other)
    worst = 0.0
    for j in ids:
        a = member_normals(circle_net, j, circle_net.members(j, 1))
        b = member_normals(net_other, j, net_other.members(j, 1))
        worst = max(worst, min(hausdorff_of(sphere_angle_matrix(a, b)),
                               hausdorff_of(sphere_angle_matrix(a, -b))))
    assert report.worst_hausdorff == worst > 0.0


def test_transfer_to_other_dimensions_is_a_dimension_mismatch():
    # a circle's net does not move to a circle in R^3 on the same sample
    # grid: its tangent lines live in R^2, so the transfer and the angle
    # check raise the typed error, not a numpy matmul error
    f = make_shape("circle", {"radius": 1.0}, 256)
    g = make_shape("circle3d", {"radius": 1.0, "tilt": 0.2}, 256)
    net = build_net(f, 0.2, 0.25, 4)
    with pytest.raises(DimensionMismatchError):
        transfer_net(net, g)
    with pytest.raises(DimensionMismatchError):
        angle_bound_check(direction_field(f, net), g)


def reference_normals_at(rows, i, x):
    """The former one-patch normals of the curve chart of row i of
    ``rows``: np.interp of Du at chart coordinates x, the graph normal, the
    patch rotation."""
    du = np.interp(x, rows.x_nodes, rows.du[i, :, 0])[:, None]
    normal = np.concatenate([-du, np.ones((len(du), 1))], axis=1)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    return normal @ rows.rotation[i].T


def reference_at_samples(net, j, sample_ids):
    """The former one-patch normals of chart j at member samples, at their
    ``chart_coords``."""
    rows, [i] = net.patches([j])
    return reference_normals_at(rows, i,
                                net.chart_coords(j, sample_ids)[:, 0])


@pytest.mark.parametrize("shape, params, r, lam, rule, target", [
    ("circle", {}, 0.2, 0.25, "tangent", None),
    ("circle", {}, 0.2, 0.25, "tangent", {"radius": 1.001}),
    ("ellipse", {"a": 1.0, "b": 0.6}, 0.1, 0.5, "best-fit", None),
])
def test_stacked_chart_normals_match_each_patch(shape, params, r, lam, rule,
                                                target):
    # the normal images of every chart at its delta_1-members, and at its
    # center, are the one-patch normals bit for bit; onto a target, its
    # transferred net's images, and the worst angle the chart loop finds
    f = make_shape(shape, params, 1024)
    net = build_net(f, r, lam, 5, rule)
    field = direction_field(f, net)
    on = net if target is None else transfer_net(
        net, make_shape(shape, dict(params, **target), 1024))
    charts = range(len(on))
    members = [on.members(j, 1) for j in charts]
    got = chart_normals(on, charts, csr_of(members))
    want = [reference_at_samples(on, j, m) for j, m in zip(charts, members)]
    assert got.tobytes() == np.concatenate(want).tobytes()
    rows, at = on.patches()
    ones = np.ones(len(on), dtype=int)
    centers = normals_mod._unit_normals(
        rows.rotation[at], ones,
        normals_mod._chart_slopes(rows, at, ones, np.zeros((len(on), 1))))
    assert centers.tobytes() == np.concatenate(
        [reference_normals_at(rows, i, np.zeros(1)) for i in at]).tobytes()
    worst = 0.0
    for j, images in enumerate(want):
        dots = np.abs(field.chart_field(j)[2] @ images.T)
        worst = max(worst, float(np.max(np.arccos(np.clip(dots, 0.0, 1.0)))))
    assert angle_bound_check(field, on.f).worst_angle == worst


def test_stacked_surface_normals_inpaint_each_chart(sphere_net):
    # every member of every patch, rim included, where rows read NaN cells
    # of the slope grid: each chart's rows as its own field gives them
    net = sphere_net
    charts = range(len(net))
    members = [net.members(j, 0) for j in charts]
    got = chart_normals(net, charts, csr_of(members))
    want = [member_normals(net, j, m) for j, m in zip(charts, members)]
    assert got.tobytes() == np.concatenate(want).tobytes()
    rows, at = net.patches()
    assert any(not np.isfinite(_bilinear(rows.x_nodes, rows.du[i, :, :, 0, :],
                                         net.chart_coords(j, m))).all()
               for j, i, m in zip(charts, at, members))


def test_chart_normals_name_a_sample_outside_the_patch(circle_net):
    outside = int(circle_net.members(0, 0)[-1]) + 1
    with pytest.raises(InputError, match=f"sample {outside} is not a member"):
        chart_normals(circle_net, [0], csr_of([[outside]]))
    # a negative id is no member either, though its key j * N - 1 is the
    # last sample's key in chart j - 1, which holds that sample
    assert circle_net.members(0, 0)[-1] == len(circle_net.f) - 1
    with pytest.raises(InputError, match="sample -1 is not a member"):
        chart_normals(circle_net, [1], csr_of([[-1]]))


def test_field_lipschitz_regression(circle_field):
    worst = 0.0
    for j in range(0, len(circle_field.net), 4):
        rep = field_lipschitz_check(circle_field, j)
        assert rep.holds
        worst = max(worst, rep.empirical)
    assert worst <= 2.7497e6
    assert worst == pytest.approx(1.0, abs=1e-3)  # pinned: unit rotation rate


def test_field_lipschitz_constant_field_is_zero(circle_field):
    # a chart with a single delta_3 sample has empirical constant 0
    rep = field_lipschitz_check(circle_field, 0)
    assert rep.empirical > 0  # degenerate net charts hold ~5 samples
    bound = (3 * 1.25) ** 10 / 0.2
    assert rep.bound == pytest.approx(bound, rel=1e-12)


# ---------------------------------------------------------------------------
# higher codimension


def test_normal_measure_single_atom():
    sparse = make_shape("circle3d", {"radius": 1.0, "tilt": 0.2}, 256)
    net = build_net(sparse, 0.2, 0.25, 5)
    nfield = NormalMeasureField(sparse, net)
    mu = nfield.measure(10)
    assert len(mu.atoms) == 1
    n_q = nfield.mean(10)
    assert n_q.same_subspace(mu.atoms[0])


def test_normal_measure_support_bound(tilted, tilted_field):
    margins = [tilted_field.support_margin(q) for q in range(0, 2048, 64)]
    assert max(margins) < math.pi / 12
    assert max(margins) <= 0.25  # chain of bounds: <= lambda <= 1/4


def test_normal_measure_weight_normalization(tilted_field):
    mu = tilted_field.measure(77)
    assert float(np.sum(mu.weights)) == pytest.approx(1.0, abs=1e-12)
    assert len(mu.atoms) >= 1


def test_stacked_mixtures_match_the_per_sample_reference(
        monkeypatch, tilted, tilted_net):
    # rows of 9 atoms cut to 5..9, so that the stack pads them: every
    # weight and margin is still the one a sample's own mixture gives
    ids = np.arange(0, 2048, 37)
    cover = csr_rows(tilted_net.cover_index(2))
    for i, q in enumerate(ids):
        cover[q] = cover[q][:5 + i % 5]
    monkeypatch.setattr(tilted_net, "cover_index",
                        lambda iota: csr_of(cover))
    nfield = NormalMeasureField(tilted, tilted_net)
    charts, weights, counts, margins, failure = nfield._mixtures(ids)
    assert failure is None and set(counts.tolist()) == {5, 6, 7, 8, 9}
    for row, q in enumerate(ids):
        ks = cover[q]
        raw = make_cutoff(tilted_net.lam).value(np.linalg.norm(
            tilted.positions[tilted_net.points[ks]] - tilted.positions[q],
            axis=1) / tilted_net.delta(2))
        ks, raw = ks[raw > 0], raw[raw > 0]
        reference = geodesic_distances(nfield._chart_frames[ks],
                                       nfield._sample_frames[q])
        c = counts[row]
        assert np.array_equal(charts[row, :c], ks)
        assert np.all(charts[row, c:] == ks[0])
        assert np.array_equal(weights[row, :c], raw / raw.sum())
        assert np.all(weights[row, c:] == 0.0)
        assert margins[row] == np.max(reference)


def test_regime_error_beyond_quarter(circle):
    net = build_net(circle, 0.2, 0.3, 5, verify_immersion=False)
    with pytest.raises(RegimeError):
        NormalMeasureField(circle, net)


def test_averaged_normal_matches_grid_oracle(tilted, tilted_field):
    q = 123
    mu = tilted_field.measure(q)
    mean = tilted_field.mean(q)
    cvec = tilted.tangent_plane(q).frame[:, 0]
    qq, _ = np.linalg.qr(np.column_stack([cvec, np.eye(3)]))
    e1, e2 = qq[:, 1], qq[:, 2]
    atoms_l = np.stack([complement(a).frame[:, 0] for a in mu.atoms])
    w = mu.weights
    best, best_val = None, np.inf
    for rho in np.arange(0.0, 0.06, 1e-3):
        if rho == 0.0:
            pts = cvec[None, :]
        else:
            n_phi = max(8, int(np.ceil(2 * np.pi * rho / 1e-3)))
            phi = np.linspace(0, 2 * np.pi, n_phi, endpoint=False)
            pts = (np.cos(rho) * cvec[None, :]
                   + np.sin(rho) * (np.cos(phi)[:, None] * e1[None, :]
                                    + np.sin(phi)[:, None] * e2[None, :]))
        d = np.arccos(np.clip(np.abs(pts @ atoms_l.T), 0.0, 1.0))
        vals = d ** 2 @ w
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val, best = float(vals[i]), pts[i]
    oracle = complement(orthonormalize(best[:, None]))
    assert geodesic_distance(mean, oracle) <= 1e-3


def test_averaged_normal_two_symmetric_atoms(tilted):
    # symmetric mixture about nu(q) averages back to nu(q)
    from conftest import random_tangent
    from lipimm.grassmann import exp_map, log_map
    from lipimm.karcher import DiracMixture
    nu_q = complement(tilted.tangent_plane(0))
    rng = np.random.default_rng(3)
    v = random_tangent(nu_q, rng, norm=0.2)
    a = exp_map(nu_q, v)
    b = exp_map(nu_q, scaled(v, -1.0))
    mu = DiracMixture((a, b), np.array([0.5, 0.5]))
    mean = karcher_mean(mu, center=nu_q).mean
    assert geodesic_distance(mean, nu_q) < 1e-9


def test_n_lipschitz_and_smoothness_proxy(tilted, tilted_field):
    worst = 0.0
    for j in range(0, 2048, 16):
        rep = n_lipschitz_check(tilted_field, j)
        assert rep.holds
        worst = max(worst, rep.empirical)
    assert worst <= 4 ** 18 / 0.2
    assert worst == pytest.approx(1.0, abs=1e-2)  # pinned: unit rotation rate
    # smoothness proxy: successive differences along the curve neither jump
    # nor oscillate: second differences stay bounded by the first ones
    ids = list(range(300, 340))
    means = [tilted_field.mean(q) for q in ids]
    first = np.array([geodesic_distance(means[i], means[i + 1])
                      for i in range(len(means) - 1)])
    second = np.abs(np.diff(first))
    assert np.all(first > 0)
    assert np.max(second) < 10 * np.median(first)


def test_codim1_normal_measure_consistent_with_direction_field(circle, circle_net, circle_field):
    # in codimension one the normal-space mean must span the same line as S
    nf = NormalMeasureField(circle, circle_net)
    for q in (0, 511, 2047):
        mean = nf.mean(q)
        t_line = orthonormalize(circle_field.T[q][:, None])
        assert geodesic_distance(mean, t_line) < 0.3  # same up to tilt of S


def test_n_lipschitz_computes_no_mean_below_two_members(monkeypatch):
    sparse = make_shape("circle3d", {"radius": 1.0, "tilt": 0.2}, 512)
    net = build_net(sparse, 0.2, 0.25, 5)
    j = next(j for j in range(len(net)) if len(net.members(j, 3)) < 2)
    nfield = NormalMeasureField(sparse, net)
    calls = []
    original = NormalMeasureField.means
    monkeypatch.setattr(NormalMeasureField, "means", lambda self, ids:
                        calls.append(ids) or original(self, ids))
    rep = n_lipschitz_check(nfield, j)
    assert rep.empirical == 0.0 and rep.holds
    assert calls == []


def test_means_take_a_constant_number_of_stacked_angle_calls(
        angle_calls_per_means):
    # margins, the iteration's start and the B_(pi/6) check: one stacked
    # call each, however many samples; means that iterate add one per step
    sparse = make_shape("circle3d", {"radius": 1.0, "tilt": 0.2}, 512)
    net = build_net(sparse, 0.2, 0.25, 5)
    NormalMeasureField(sparse, net).means(range(512))
    NormalMeasureField(sparse, net).means(range(0, 512, 64))
    assert angle_calls_per_means == [3, 3]


def test_means_raise_for_the_first_failing_sample(monkeypatch):
    # sample 100's mixture holds a chart normal a quarter turn away (beyond
    # pi/12), sample 300 is not covered, and the mean of sample 400 is moved
    # out of B_(pi/6)(nu(400)): a stack raises what the per-sample path
    # raises on its first failing sample
    sparse = make_shape("circle3d", {"radius": 1.0, "tilt": 0.2}, 512)
    net = build_net(sparse, 0.2, 0.25, 5)
    nfield = NormalMeasureField(sparse, net)
    cover = csr_rows(net.cover_index(2))
    nfield._chart_frames[cover[100][0]] = nfield._sample_frames[228]
    cover[300] = np.empty(0, dtype=int)
    monkeypatch.setattr(net, "cover_index", lambda iota: csr_of(cover))
    solve = normals_mod.karcher_means

    def leaving(frames, weights, centers, tol):
        stack = solve(frames, weights, centers, tol)
        moved = np.all(centers == nfield._sample_frames[400], axis=(1, 2))
        stack.means[moved] = nfield._sample_frames[272]
        return stack

    monkeypatch.setattr(normals_mod, "karcher_means", leaving)

    def error(ids):
        with pytest.raises(InvariantViolationError) as info:
            nfield.means(ids)
        return str(info.value)

    single = {}
    for q in (100, 300, 400):
        with pytest.raises(InvariantViolationError) as info:
            nfield.mean(q)
        single[q] = str(info.value)
    assert "rad from nu(100), at or beyond pi/12" in single[100]
    assert single[300] == "sample 300 is not covered at delta_2 scale"
    assert single[400] == "averaged normal left B_(pi/6)(nu(400))"
    for order in itertools.permutations((100, 300, 400)):
        assert error([0, *order, 5]) == single[order[0]]
    assert nfield.means([0, 5]).shape == (2, 3, 2)
