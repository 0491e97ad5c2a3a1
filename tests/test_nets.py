import json

import numpy as np
import pytest

from lipimm._util import max_quotient
from lipimm.correspond import build_correspondence, reparametrized_lipschitz
from lipimm.errors import InputError, InvariantViolationError
from lipimm.grassmann import Subspace, geodesic_distances, orthonormalize
from lipimm.immersion import (
    check_r_lambda,
    delta,
    graph_patches,
    planes_for,
    planes_of,
    q_component,
)
from lipimm.nets import (
    DeltaNet,
    _assert_separation,
    _net_on,
    build_net,
    net_from_points,
    verify_net_bounds,
)
from lipimm.normals import (
    NormalMeasureField,
    direction_field,
    field_lipschitz_check,
    n_lipschitz_check,
)
from lipimm.shapes import make_shape

from conftest import csr_of, csr_rows, shuffled_cycle


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
        z = csr_rows(net5.cover_index(2))[p]
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
    rebuilt = net_from_points(circle, payload["r"], payload["lambda"],
                              payload["level"], payload["points"])
    assert np.array_equal(rebuilt.points, circle_net_l1.points)
    assert np.array_equal(rebuilt.members(5, 1), circle_net_l1.members(5, 1))


@pytest.mark.parametrize("level, points", [(1, []), (0, [0]), (-1, [0])],
                         ids=["no point", "level 0", "level -1"])
def test_net_from_points_rejects_what_build_net_rejects(level, points):
    # no point at all, or a level below 1, is an input error, as for
    # build_net: not a numpy stacking error, and not a net
    f = make_shape("circle", {"radius": 1.0}, 256)
    with pytest.raises(InputError):
        net_from_points(f, 0.2, 0.25, level, points)


@pytest.mark.parametrize("j", [-1, 85])
def test_members_of_a_chart_out_of_range_is_input_error(j):
    # circle 256 at level 1 has 85 charts; -1 must not read the last one
    net = build_net(make_shape("circle", {"radius": 1.0}, 256), 0.2, 0.25, 1)
    assert len(net) == 85
    with pytest.raises(InputError, match="net index"):
        net.members(j, 0)


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


def _per_point_greedy(f, r, lam, level, plane_rule, verify):
    """The greedy net as a loop over net points: the lowest uncovered id,
    its plane, then one ``q_component`` call per radius of its ladder."""
    covered = np.zeros(len(f), dtype=bool)
    points, planes, ladders = [], [], []
    while not np.all(covered):
        q = int(np.argmin(covered))
        if verify:
            rows, [at] = graph_patches(f, [q], r, lam, plane_rule)
            plane = Subspace(rows.rotation[at, :, :f.m].copy())
        else:
            plane = Subspace(planes_of(planes_for(f, [q], plane_rule, r,
                                                  lam))[0])
        ladder = [q_component(f, q, plane, delta(iota, r, lam))
                  for iota in range(level + 2)]
        points.append(q)
        planes.append(plane)
        ladders.append(ladder)
        covered[ladder[level]] = True
        covered[q] = True
    stacks = [csr_of([ladder[iota] for ladder in ladders])
              for iota in range(level + 2)]
    return DeltaNet(f, r, lam, level, np.array(points),
                    np.stack([plane.frame for plane in planes]), stacks,
                    plane_rule)


@pytest.mark.parametrize("shape, samples, r, level, plane_rule, verify", [
    pytest.param("circle", 1024, 0.2, 5, "tangent", True,
                 id="circle-1024-0.2-5"),
    pytest.param("circle3d", 512, 0.2, 5, "tangent", True,
                 id="circle3d-512-0.2-5"),
    # r = 0.6 fails the check, but its delta_0-patches hold 34 samples on
    # average where r = 0.1 gives 3
    pytest.param("torus", "16x32", 0.6, 2, "tangent", False,
                 id="torus-16x32-0.6-2"),
    # r = 0.3 fails the check; every plane comes from best_fit_planes
    pytest.param("circle", 1024, 0.3, 2, "best-fit", False,
                 id="circle-1024-0.3-2-best-fit-unverified"),
])
def test_ladder_net_equals_net_of_single_radius_components(
        shape, samples, r, level, plane_rule, verify):
    # one component pass over all samples must give the net that the greedy
    # loop over net points, one q_component call per radius, gives
    f = make_shape(shape, {}, samples)
    net = build_net(f, r, 0.25, level, plane_rule, verify_immersion=verify)
    reference = _per_point_greedy(f, r, 0.25, level, plane_rule, verify)
    assert np.array_equal(net.points, reference.points)
    assert np.array_equal(net.frames, reference.frames)
    assert len(net.stacks) == level + 2
    for iota in range(level + 2):
        for a, b in zip(net.member_stack(iota), reference.member_stack(iota)):
            assert np.array_equal(a, b)
    for iota in (2, 3):
        for a, b in zip(net.cover_index(iota), reference.cover_index(iota)):
            assert np.array_equal(a, b)
    for iota in range(level + 1):
        for j in range(len(net)):
            assert np.array_equal(net.z_set(iota, j), reference.z_set(iota, j))


def _first_shared_sample(net):
    """The former point-by-point separation loop: the first (earlier point,
    point, sample) in net order whose sample an earlier point holds."""
    owner = {}
    for j in range(len(net)):
        for p in net.members(j, net.level + 1).tolist():
            if p in owner:
                return owner[p], j, p
            owner[p] = j
    return None


@pytest.mark.parametrize("points", [[0, 1], [0, 200, 201], [5, 400, 2, 4],
                                    [5, 400, 6]])
def test_separation_names_the_first_shared_sample(points):
    # net points this close have overlapping delta_2-patches at level 1; the
    # error names the pair and sample the loop over net points meets first
    f = make_shape("circle", {"radius": 1.0}, 512)
    net = _net_on(f, 0.2, 0.25, 1, points, f.tangent_planes(points),
                  "tangent")
    earlier, later, sample = _first_shared_sample(net)
    with pytest.raises(InvariantViolationError) as info:
        _assert_separation(net)
    assert str(info.value) == (
        f"net points {earlier} and {later} share sample {sample} in their "
        "delta_2-patches")


def test_separated_points_pass_the_separation_check():
    f = make_shape("circle", {"radius": 1.0}, 512)
    net = build_net(f, 0.2, 0.25, 2)
    assert _first_shared_sample(net) is None
    _assert_separation(net)


def reference_cover_index(net, iota):
    """The former nested loop: every chart's members appended in chart
    order."""
    lists = [[] for _ in range(len(net.f))]
    for j in range(len(net.points)):
        for p in net.members(j, iota):
            lists[p].append(j)
    return [np.asarray(v, dtype=int) for v in lists]


def reference_z_set(net, cover, iota, j):
    hits = {j}
    for p in net.members(j, iota):
        hits.update(cover[p].tolist())
    return np.asarray(sorted(hits), dtype=int)


@pytest.mark.parametrize("shape, samples, r, levels", [
    ("circle", 1024, 0.2, (1, 2, 5)), ("torus", "16x32", 0.1, (1, 2))])
def test_cover_index_and_z_sets_match_the_nested_loops(shape, samples, r,
                                                       levels):
    f = make_shape(shape, {}, samples)
    for level in levels:
        net = build_net(f, r, 0.25, level)
        for iota in range(level + 2):
            cover = reference_cover_index(net, iota)
            got = csr_rows(net.cover_index(iota))
            assert len(got) == len(cover)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, cover))
            if iota <= level:
                for j in range(len(net)):
                    assert net.z_set(iota, j).tobytes() == \
                        reference_z_set(net, cover, iota, j).tobytes()


def reference_chart_quotient(net, j, distances):
    """The former one-chart quotient: chart j's delta_3-members in chart
    coordinates, their pairs a < b, and ``max_quotient`` of
    ``distances(a, b)`` over |x_a - x_b|, for member rows a, b."""
    ids = net.members(j, 3)
    if len(ids) < 2:
        return 0.0
    x = net.chart_coords(j, ids)
    a, b = np.triu_indices(len(ids), k=1)
    return max_quotient(distances(a, b), np.linalg.norm(x[a] - x[b], axis=1))


def test_lipschitz_views_equal_the_one_chart_quotients():
    # T, f2 . phi and N: each chart's view of the one all-chart call is the
    # chart's own quotient, bit for bit
    f = make_shape("circle", {"radius": 1.0}, 2048)
    net = build_net(f, 0.2, 0.25, 5)
    field = direction_field(f, net)
    corr = build_correspondence(
        f, make_shape("circle", {"radius": 1.001}, 2048), net, field)
    for j in range(len(net)):
        t_vals = field.chart_field(j)[2]
        pts = corr.phi_points[net.members(j, 3)]
        assert field_lipschitz_check(field, j).empirical == \
            reference_chart_quotient(net, j, lambda a, b: np.linalg.norm(
                t_vals[a] - t_vals[b], axis=1))
        assert reparametrized_lipschitz(corr, j).empirical == \
            reference_chart_quotient(net, j, lambda a, b: np.linalg.norm(
                pts[a] - pts[b], axis=1))
    assert {len(net.members(j, 3)) for j in range(len(net))} == {3}
    tilted = make_shape("circle3d", {"radius": 1.0, "tilt": 0.2}, 2048)
    net = build_net(tilted, 0.2, 0.25, 5)
    nfield, alone = (NormalMeasureField(tilted, net) for _ in range(2))
    for j in range(0, len(net), 8):
        means = alone.means(net.members(j, 3))
        assert n_lipschitz_check(nfield, j).empirical == \
            reference_chart_quotient(net, j, lambda a, b: geodesic_distances(
                means[a], means[b]))
    assert {len(net.members(j, 3)) for j in range(len(net))} == {3}


def test_n_lipschitz_raises_only_for_a_failure_at_its_own_members():
    # chart k's normal turned a quarter turn: the mixtures that hold it fail,
    # so the all-chart call fails; a chart with such a member raises, one
    # without gives its own quotient
    tilted = make_shape("circle3d", {"radius": 1.0, "tilt": 0.2}, 2048)
    net = build_net(tilted, 0.2, 0.25, 5)
    nfield, clean = (NormalMeasureField(tilted, net) for _ in range(2))
    charts, ptr = net.cover_index(2)
    k = int(charts[ptr[100]])
    nfield._chart_frames[k] = nfield._sample_frames[612]
    near = next(j for j in range(len(net)) if 100 in net.members(j, 3))
    with pytest.raises(InvariantViolationError, match="at or beyond pi/12"):
        n_lipschitz_check(nfield, near)
    assert n_lipschitz_check(nfield, 1000).empirical == \
        n_lipschitz_check(clean, 1000).empirical > 0.0
    assert nfield._quotients is None


@pytest.mark.parametrize("name, r, level", [
    ("circle", 0.2, 2), ("torus", 0.1, 1), ("shuffled circle", 0.2, 2)])
def test_memberships_are_one_csr_pair_per_scale(name, r, level):
    # the id cycle, the mesh and a cycle of shuffled ids (the BFS path):
    # at every scale the members are one CSR pair whose rows ascend and
    # hold their base, a chart's members are a view of it, and the cover
    # index is its inverse
    f = {"circle": lambda: make_shape("circle", {}, 1024),
         "torus": lambda: make_shape("torus", {}, "16x32"),
         "shuffled circle": lambda: shuffled_cycle(
             make_shape("circle", {}, 512), 3)}[name]()
    assert f._id_cycle == (name == "circle")
    net = build_net(f, r, 0.25, level)
    for iota in range(level + 2):
        ids, ptr = net.member_stack(iota)
        assert (ptr[0], ptr[-1], len(ptr)) == (0, len(ids), len(net) + 1)
        assert np.all(np.diff(ptr) >= 0)
        pairs = set()
        for j, q in enumerate(net.points.tolist()):
            row = net.members(j, iota)
            assert np.all(np.diff(row) > 0) and q in row
            assert np.shares_memory(row, ids)
            pairs.update((j, p) for p in row.tolist())
        charts, cover_ptr = net.cover_index(iota)
        assert (cover_ptr[0], cover_ptr[-1], len(cover_ptr)) == \
            (0, len(charts), len(f) + 1)
        inverse = set()
        for p, js in enumerate(csr_rows((charts, cover_ptr))):
            assert np.all(np.diff(js) > 0)
            inverse.update((j, p) for j in js.tolist())
        assert inverse == pairs
