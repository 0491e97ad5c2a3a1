import json

import numpy as np
import pytest

from lipimm.errors import InputError
from lipimm.grassmann import orthonormalize
from lipimm.immersion import check_r_lambda, delta
from lipimm.nets import build_net, verify_net_bounds
from lipimm.shapes import make_shape


@pytest.fixture(scope="module")
def circle():
    return make_shape("circle", {"radius": 1.0}, 4096)


@pytest.fixture(scope="module")
def circle_net_l1(circle):
    return build_net(circle, 0.2, 0.25, 1)


def test_net_of_size_one_when_patch_covers_all():
    small = make_shape("circle", {"radius": 0.05}, 256)
    # delta_1 = r / 3.75 exceeds the diameter of the 0.05-circle
    net = build_net(small, 0.4, 0.25, 1, verify_immersion=False)
    assert len(net) == 1


def test_circle_l1_regression(circle_net_l1):
    # greedy net size pinned: between pi/(delta_1 (1+lambda)) ~ 47 and the
    # cardinality bound ~ 441
    assert len(circle_net_l1) == 117
    report = verify_net_bounds(circle_net_l1)
    assert report.size_bound == pytest.approx(441.786, abs=1e-2)
    assert report.size_bound_holds
    assert report.multiplicity_bound == pytest.approx(3.75 ** 2, abs=1e-12)
    assert report.worst_multiplicity == 1


def test_circle_l2_bounds(circle):
    net = build_net(circle, 0.2, 0.25, 2)
    report = verify_net_bounds(net)
    assert len(net) == 409  # regression
    assert report.size_bound_holds
    assert report.multiplicity_bound_holds
    assert report.worst_multiplicity <= 3.75 ** 4


def test_multiplicity_bound_formula(circle_net_l1):
    assert (3.0 * 1.25) ** 6 == pytest.approx(2780.914, abs=1e-3)


def test_net_determinism(circle):
    a = build_net(circle, 0.2, 0.25, 1)
    b = build_net(circle, 0.2, 0.25, 1)
    assert np.array_equal(a.points, b.points)


def test_net_under_relabeled_storage():
    # ids, not memory order, drive the greedy loop: relabeling the samples
    # yields an equally sized, equally valid net seeded at the new id 0
    base = make_shape("circle", {"radius": 1.0}, 512)
    from lipimm.shapes import immersion_from_points
    raw = immersion_from_points(base.positions)
    rolled = immersion_from_points(np.roll(base.positions, -7, axis=0))
    na = build_net(raw, 0.2, 0.3, 1, plane_rule="best-fit",
                   verify_immersion=False)
    nb = build_net(rolled, 0.2, 0.3, 1, plane_rule="best-fit",
                   verify_immersion=False)
    assert len(na) == len(nb)
    assert nb.points[0] == 0
    # the two nets are the same up to the relabeling's rotation of the circle
    spacing = 2 * np.pi / 512
    pa = raw.positions[na.points[1]]
    pb = rolled.positions[nb.points[1]]
    ang = abs(np.arctan2(pa[1], pa[0]) - (np.arctan2(pb[1], pb[0]) - 7 * spacing))
    assert min(ang, 2 * np.pi - ang) < 1e-9


def test_cover_and_separation_invariants(circle_net_l1):
    net = circle_net_l1
    covered = np.zeros(len(net.f), dtype=bool)
    for j in range(len(net)):
        covered[net.members(j, net.level)] = True
        covered[net.points[j]] = True
    assert np.all(covered)
    # nested-net property: a delta-net is a delta'-net for delta < delta'
    for iota in range(net.level + 1):
        c = np.zeros(len(net.f), dtype=bool)
        for j in range(len(net)):
            c[net.members(j, iota)] = True
            c[net.points[j]] = True
        assert np.all(c)
    # separation: delta_{l+1}-patches pairwise disjoint
    owner = np.full(len(net.f), -1)
    for j in range(len(net)):
        ids = net.members(j, net.level + 1)
        assert np.all(owner[ids] == -1)
        owner[ids] = j


def test_inclusion_chain_on_net_pairs(circle_net_l1):
    # if the delta_{l+1}-patches of two net points meet, each is inside the
    # other's delta_l-patch
    net = circle_net_l1
    l = net.level
    sets_l1 = [set(net.members(j, l + 1).tolist()) for j in range(len(net))]
    sets_l = [set(net.members(j, l).tolist()) for j in range(len(net))]
    for j in range(len(net)):
        for k in range(len(net)):
            if j != k and sets_l1[j] & sets_l1[k]:
                assert sets_l1[k] <= sets_l[j]


def test_z_sets_against_brute_force(circle_net_l1):
    net = circle_net_l1
    sets1 = [set(net.members(j, 1).tolist()) for j in range(len(net))]
    for j in range(0, len(net), 11):
        brute = {k for k in range(len(net)) if sets1[j] & sets1[k]}
        assert set(net.z_set(1, j).tolist()) == brute
        assert j in net.z_set(1, j)


def test_z_iota0_full_when_radius_exceeds_diameter():
    small = make_shape("circle", {"radius": 1.0}, 512)
    net = build_net(small, 3.0, 1.2, 1, verify_immersion=False)
    z0 = net.z_set(0, 0)
    assert len(z0) == len(net)  # U_{r,.} is the whole manifold


def test_z_of_point_contains_own_chart(circle):
    net5 = build_net(circle, 0.2, 0.25, 5)
    for p in (0, 17, 2048):
        z = net5.z_of_point(p)
        assert len(z) > 0
        assert int(net5.points[p]) == p  # degenerate level-5 net: all samples
        assert p in z
        assert len(z) <= (3 * 1.25) ** 6
    report = verify_net_bounds(net5)
    assert report.size_bound_holds and report.multiplicity_bound_holds
    assert report.worst_multiplicity == 19  # regression


@pytest.mark.slow
def test_torus_net_bounds_levels_1_2():
    torus = make_shape("torus", {"R": 2.0, "r": 0.5}, "64x64")
    for level, expected_mult in [(1, 1), (2, 1)]:
        net = build_net(torus, 0.1, 0.25, level)
        report = verify_net_bounds(net)
        assert report.size_bound_holds
        assert report.multiplicity_bound_holds
        assert len(net) == 4096          # sample-resolution regime: regression
        assert report.worst_multiplicity == expected_mult


def test_net_json_round_trip(circle, circle_net_l1):
    payload = json.loads(circle_net_l1.to_json(z_iotas=(1,)))
    assert payload["level"] == 1
    assert payload["points"][0] == 0
    assert len(payload["points"]) == len(circle_net_l1)
    assert payload["z_sets"]["1,0"] == sorted(circle_net_l1.z_set(1, 0).tolist())
    # reuse across invocations: the serialized points rebuild the same net
    from lipimm.nets import net_from_points
    rebuilt = net_from_points(circle, payload["r"], payload["lambda"],
                              payload["level"], payload["points"])
    assert np.array_equal(rebuilt.points, circle_net_l1.points)
    assert np.array_equal(rebuilt.members(5, 1), circle_net_l1.members(5, 1))


def test_plane_rule_is_tangent_or_best_fit():
    # only named rules: a check under one callable must not admit a net
    # under another, here radial lines over which the circle is no graph
    f = make_shape("circle", {"radius": 1.0}, 1024)
    radial = lambda q: orthonormalize(f.positions[q])  # noqa: E731
    tangents = {q: f.tangent_plane(q) for q in range(len(f))}
    for rule in (f.tangent_plane, radial, tangents, "best_fit", "normal"):
        with pytest.raises(InputError):
            check_r_lambda(f, 0.2, 0.25, rule)
        with pytest.raises(InputError):
            build_net(f, 0.2, 0.25, 1, rule)


@pytest.mark.parametrize("shape, samples, r, level", [
    ("circle", 1024, 0.2, 5),
    # r = 0.6 fails the check, but its delta_0-patches hold 34 samples on
    # average where r = 0.1 gives 3
    ("torus", "16x32", 0.6, 2),
])
def test_ladder_net_equals_net_of_single_radius_components(monkeypatch, shape,
                                                           samples, r, level):
    # one traversal per net point must give the net that one q_component
    # call per radius gives
    from lipimm import nets
    from lipimm.immersion import q_component

    f = make_shape(shape, {}, samples)
    verify = shape == "circle"
    net = build_net(f, r, 0.25, level, verify_immersion=verify)
    monkeypatch.setattr(nets, "q_components", lambda f, q, plane, radii: [
        q_component(f, q, plane, rho) for rho in radii])
    reference = build_net(f, r, 0.25, level, verify_immersion=verify)
    assert np.array_equal(net.points, reference.points)
    for ladder, expected in zip(net.member_sets, reference.member_sets):
        assert len(ladder) == level + 2
        assert all(np.array_equal(a, b) for a, b in zip(ladder, expected))
    for iota in (2, 3):
        assert all(np.array_equal(a, b) for a, b in
                   zip(net.cover_index(iota), reference.cover_index(iota)))
    for iota in range(level + 1):
        for j in range(len(net)):
            assert np.array_equal(net.z_set(iota, j), reference.z_set(iota, j))
