import math

import numpy as np
import pytest

from lipimm.errors import InputError
from lipimm._util import halton
from lipimm.immersion import delta, extract_graph_patch
from lipimm.nets import build_net
from lipimm.normals import constants, direction_field
from lipimm.shapes import make_shape
from lipimm.tubular import (
    ChartField,
    _segment_distances,
    chart_direction_field,
    inclusion_probe,
    injectivity_probe,
    separation_check,
    tube_params,
)


@pytest.fixture(scope="module")
def circle():
    return make_shape("circle", {"radius": 1.0}, 4096)


@pytest.fixture(scope="module")
def pipeline(circle):
    net = build_net(circle, 0.2, 0.25, 5)
    field = direction_field(circle, net)
    cb = constants(1, 0.25, 0.2)
    d3 = delta(3, 0.2, 0.25)
    params = tube_params(d3, 0.25, cb.L_codim1, cb.gamma)
    return net, field, cb, params


# ---------------------------------------------------------------------------
# tube parameters


def test_tube_params_reference_values():
    cb = constants(1, 0.25, 0.2)
    d3 = delta(3, 0.2, 0.25)
    tp = tube_params(d3, 0.25, cb.L_codim1, cb.gamma)
    assert tp.epsilon == pytest.approx(2.238e-7, rel=1e-3)
    assert tp.sigma == pytest.approx(5.510e-8, rel=1e-3)
    assert tp.active_branch == "curvature"
    assert (d3 / 2) * math.cos(cb.gamma) == pytest.approx(1.167e-3, rel=1e-3)


def test_tube_params_limits():
    tp_small = tube_params(1.0, 0.25, 1e9, 0.9)
    assert tp_small.epsilon < 1e-9 and tp_small.sigma < 1e-9
    tp0 = tube_params(1.0, 0.0, 2.0, 0.0)
    assert tp0.epsilon == pytest.approx(0.5)
    assert tp0.sigma == pytest.approx(min(0.5, 1.0 / (2 * 2.0)))


def test_tube_params_gamma_range():
    with pytest.raises(InputError):
        tube_params(1.0, 0.25, 1.0, math.pi / 2)


def test_tube_params_monotonicity():
    base = tube_params(0.01, 0.25, 100.0, 0.9)
    assert tube_params(0.01, 0.30, 100.0, 0.9).sigma <= base.sigma
    assert tube_params(0.01, 0.25, 200.0, 0.9).sigma <= base.sigma
    assert tube_params(0.02, 0.25, 100.0, 0.9).sigma >= base.sigma


# ---------------------------------------------------------------------------
# probes


def test_injectivity_probe_flat_field():
    shape = make_shape("rounded-rectangle",
                       {"width": 4.0, "height": 3.0, "corner_radius": 0.5}, 4096)
    q = int(round(1.5 / shape.evaluator.period * 4096))
    patch = extract_graph_patch(shape, q, shape.tangent_plane(q), 0.1)
    normal = patch.isometry.rotation[:, 1]
    tf = ChartField(np.array([-0.1, 0.1]), np.stack([normal, normal]))
    rep = injectivity_probe(patch, tf, 10.0, 2000)
    assert rep.injective  # parallel fibers never collide


def test_injectivity_probe_pipeline(circle, pipeline):
    net, field, cb, params = pipeline
    patch = net.patch(0)
    tf = chart_direction_field(field, 0)
    rep = injectivity_probe(patch, tf, params.epsilon, 100000,
                            rho=params.rho)
    assert rep.injective
    assert rep.min_separation > 0
    assert rep.trials == 100000


def test_injectivity_probe_inflated_epsilon_collides(circle, pipeline):
    # the circle's fibers are near-radial and meet around the center, at
    # distance ~1/L_measured ~ 1; inflating epsilon past that scale must
    # produce detected crossings
    net, field, cb, params = pipeline
    patch = net.patch(0)
    tf = chart_direction_field(field, 0)
    rep = injectivity_probe(patch, tf, params.epsilon * 1e7, 20000,
                            rho=params.rho)
    assert not rep.injective
    assert rep.min_separation == 0.0


def test_inclusion_probe_pipeline(circle, pipeline):
    net, field, cb, params = pipeline
    patch = net.patch(0)
    tf = chart_direction_field(field, 0)
    rep = inclusion_probe(patch, tf, params, 10000)
    assert rep.all_reached
    assert rep.reached == rep.count == 10000
    assert rep.max_fiber_offset < params.epsilon


def test_inclusion_probe_beyond_sigma_not_asserted(circle, pipeline):
    # points at distance 2 sigma sit outside the guaranteed collar; the
    # report marks them instead of failing
    net, field, cb, params = pipeline
    patch = net.patch(0)
    tf = chart_direction_field(field, 0)
    inflated = tube_params(params.rho, params.lam, params.L / 2, params.gamma)
    assert inflated.sigma == pytest.approx(2 * params.sigma, rel=1e-12)
    rep = inclusion_probe(patch, tf, inflated, 2000)
    assert rep.count == 2000  # may or may not reach all; no exception either way


def test_separation_inequality_pipeline(circle, pipeline):
    net, field, cb, params = pipeline
    worst = math.inf
    for j in (0, 1024, 2048):
        patch = net.patch(j)
        tf = chart_direction_field(field, j)
        rep = separation_check(patch, tf, cb.gamma, 20000, rho=params.rho)
        assert rep.holds
        worst = min(worst, rep.min_ratio)
    assert worst >= math.cos(cb.gamma) - 1e-9


def test_separation_full_radius(circle, pipeline):
    # the inequality also holds over the full patch radius for the pipeline
    net, field, cb, params = pipeline
    patch = net.patch(77)
    tf = chart_direction_field(field, 77)
    rep = separation_check(patch, tf, cb.gamma, 20000, rho=delta(3, 0.2, 0.25))
    assert rep.holds


def reference_separation_ratio(patch, t_field, gamma, pairs, rho, seed=42):
    """The least ratio of ``separation_check``, its distances normed by
    np.linalg.norm."""
    pts = halton(pairs, 2, offset=seed)
    x, y = (2 * pts[:, 0] - 1) * rho, (2 * pts[:, 1] - 1) * rho
    ux = np.interp(x, patch.x_nodes, patch.u[:, 0])
    uy = np.interp(y, patch.x_nodes, patch.u[:, 0])
    t_chart = (patch.isometry.rotation.T @ t_field.at(y).T).T
    w = np.column_stack([x - y, ux - uy])
    along = np.einsum("ij,ij->i", w, t_chart)
    dist = np.linalg.norm(w - along[:, None] * t_chart, axis=1)
    good = np.abs(x - y) > 1e-14
    return float(np.min(dist[good] / np.abs(x - y)[good]))


def test_probe_norms_are_numpys_two_component_norm(circle, pipeline):
    # the separation and inclusion probes norm their (N, 2) rows as the
    # squares summed in order: np.linalg.norm's reduce, bit for bit, in the
    # least separation ratio of three charts, and on rows of every scale,
    # the inclusion probe's 1e-10 hit bound among them
    net, field, cb, params = pipeline
    for j in (0, 77, 1024):
        patch = net.patch(j)
        tf = chart_direction_field(field, j)
        rep = separation_check(patch, tf, cb.gamma, 20000, rho=params.rho)
        assert rep.min_ratio == reference_separation_ratio(
            patch, tf, cb.gamma, 20000, params.rho)
    rng = np.random.default_rng(13)
    for scale in (1e-300, 1e-12, 1e-10, 1e-6, 1.0, 1e6, 1e150):
        v = rng.normal(size=(20_000, 2)) * scale
        assert np.sqrt(v[:, 0] ** 2 + v[:, 1] ** 2).tobytes() == \
            np.linalg.norm(v, axis=1).tobytes()


def reference_segment_distances(p1, d1, p2, d2, eps1, eps2):
    """The four end-to-segment distances as norms, then their minimum."""
    delta_ = p2 - p1
    cross = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    cd2 = delta_[:, 0] * d2[:, 1] - delta_[:, 1] * d2[:, 0]
    cd1 = delta_[:, 0] * d1[:, 1] - delta_[:, 1] * d1[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_star = np.where(np.abs(cross) > 1e-300, cd2 / cross, np.inf)
        s_star = np.where(np.abs(cross) > 1e-300, cd1 / cross, np.inf)
    crossing = (np.abs(t_star) < eps1) & (np.abs(s_star) < eps2)

    def point_to_segment(q, p, d, eps):
        along = np.clip(np.einsum("ij,ij->i", q - p, d), -eps, eps)
        return np.linalg.norm(q - p - along[:, None] * d, axis=1)

    ends = [point_to_segment(p1 + e * eps1 * d1, p2, d2, eps2)
            for e in (-1.0, 1.0)]
    ends += [point_to_segment(p2 + e * eps2 * d2, p1, d1, eps1)
             for e in (-1.0, 1.0)]
    return np.where(crossing, 0.0, np.min(np.stack(ends), axis=0)), crossing


def test_segment_distances_take_one_sqrt_of_the_least_square():
    # sqrt is monotone and correctly rounded: the root of the least squared
    # distance is the least distance, bit for bit; parallel pairs included.
    # Each square is the two components' sum that np.linalg.norm takes
    rng = np.random.default_rng(11)
    p1, p2 = rng.normal(size=(2, 100_000, 2))
    d1, d2 = rng.normal(size=(2, 100_000, 2))
    d2[:1000] = d1[:1000]
    d1 /= np.linalg.norm(d1, axis=1, keepdims=True)
    d2 /= np.linalg.norm(d2, axis=1, keepdims=True)
    got = _segment_distances(p1, d1, p2, d2, 0.3, 0.7)
    want = reference_segment_distances(p1, d1, p2, d2, 0.3, 0.7)
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got[1], want[1])
    assert 0 < np.count_nonzero(want[1]) < len(p1)


def test_chart_field_normalizes_by_the_norm_of_its_components():
    # the squares summed in order equal np.linalg.norm's reduce over the
    # two components bit for bit, at nodes, between them and past the ends
    rng = np.random.default_rng(12)
    xs = np.sort(rng.uniform(-0.2, 0.2, 40))
    vectors = rng.normal(size=(40, 2))
    field = ChartField(xs, vectors / np.linalg.norm(vectors, axis=1,
                                                    keepdims=True))
    x = np.concatenate([xs, rng.uniform(-0.25, 0.25, 100_000)])
    out = np.stack([np.interp(x, field.xs, field.vectors[:, j])
                    for j in range(2)], axis=-1)
    want = out / np.linalg.norm(out, axis=-1, keepdims=True)
    assert field.at(x).tobytes() == want.tobytes()
