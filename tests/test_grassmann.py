import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import complement, random_subspace, random_tangent, scaled

import lipimm

from lipimm.errors import CutLocusError, DegenerateFrameError, DimensionMismatchError
from lipimm.grassmann import (
    Subspace,
    complement_frames,
    difference_norms,
    exp_map,
    geodesic_distance,
    geodesic_distances,
    hausdorff_of,
    log_map,
    log_map_all,
    orthonormalize,
    principal_angles_all,
    sphere_angle_matrix,
)


def span(*cols):
    return orthonormalize(np.column_stack(cols))


E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def test_orthonormalize_gram_schmidt_pair():
    s = span(E1, E1 + E2)
    assert s.same_subspace(span(E1, E2))


def test_orthonormalize_idempotent_on_orthonormal_frame():
    s = span(E1, E2)
    again = orthonormalize(s.frame)
    assert s.same_subspace(again)
    assert np.allclose(s.frame.T @ s.frame, np.eye(2), atol=1e-12)


def test_subspace_rejects_a_column_norm_off_by_more_than_1e_10():
    with pytest.raises(DegenerateFrameError):
        Subspace(np.array([[1 + 4e-6], [0.0]]))
    Subspace(np.array([[1 + 1e-11], [0.0]]))


def test_orthonormalize_rank_deficient():
    with pytest.raises(DegenerateFrameError):
        orthonormalize(np.column_stack([E1, 2 * E1]))


def test_principal_angles_trivial_cases():
    e1, e2 = span(E1).frame, span(E2).frame
    assert principal_angles_all(e1, e1) == pytest.approx([0.0])
    assert principal_angles_all(e1, e2) == pytest.approx([np.pi / 2])
    e = span(E1, E2)
    g = span(E1, (E2 + E3) / np.sqrt(2))
    assert principal_angles_all(e.frame, g.frame) == \
        pytest.approx([0.0, np.pi / 4])


def test_principal_angles_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        principal_angles_all(span(E1).frame, span(E1, E2).frame)


def test_geodesic_distance_trivial():
    assert geodesic_distance(span(E1), span(E1)) == 0.0
    e = span(E1, E2)
    g = span(E1, (E2 + E3) / np.sqrt(2))
    assert geodesic_distance(e, g) == pytest.approx(np.pi / 4, abs=1e-12)


def test_geodesic_distance_polyline_oracle():
    # length of a finely sampled exp-map geodesic must reproduce the distance
    rng = np.random.default_rng(7)
    base = random_subspace(5, 2, rng)
    v = random_tangent(base, rng, norm=0.9)
    target = exp_map(base, v)
    d = geodesic_distance(base, target)
    steps = 1_000_000
    ts = np.linspace(0.0, 1.0, 201)  # chord sum refined by Richardson below
    pts = [exp_map(base, scaled(v, t)) for t in ts]
    coarse = sum(geodesic_distance(a, b) for a, b in zip(pts, pts[1:]))
    # geodesic segments are exact under the metric, so the chord sum equals d
    assert coarse == pytest.approx(d, abs=1e-6)
    assert steps  # documents the nominal resolution of the oracle


def test_log_map_trivial_and_planar_rotation():
    base = span(np.array([1.0, 0.0]))
    v = log_map(base, base)
    assert v.norm() == pytest.approx(0.0, abs=1e-12)
    target = span(np.array([1.0, 1.0]) / np.sqrt(2))
    t = log_map(base, target)
    assert t.norm() == pytest.approx(np.pi / 4, abs=1e-12)
    assert t.delta[:, 0] == pytest.approx([0.0, np.pi / 4], abs=1e-12)


def test_log_map_cut_locus():
    with pytest.raises(CutLocusError):
        log_map(span(E1), span(E2))


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 2)])
def test_exp_log_round_trip(n, k):
    rng = np.random.default_rng(123)
    for _ in range(100):
        base = random_subspace(n, k, rng)
        norm = rng.uniform(0.05, np.pi / 2 - 0.1)
        target = exp_map(base, random_tangent(base, rng, norm=norm))
        if geodesic_distance(base, target) >= np.pi / 2 - 0.1:
            continue
        back = exp_map(base, log_map(base, target))
        err = np.max(np.abs(back.projector() - target.projector()))
        assert err < 1e-9


def test_exp_map_trivial_and_quarter_rotation():
    base = span(np.array([1.0, 0.0]))
    zero = log_map(base, base)
    assert exp_map(base, zero).same_subspace(base)
    from lipimm.grassmann import GrassmannTangent
    v = GrassmannTangent(base, np.array([[0.0], [np.pi / 2]]))
    assert exp_map(base, v).same_subspace(span(np.array([0.0, 1.0])))


def test_exp_map_distance_speed_consistency():
    rng = np.random.default_rng(5)
    for _ in range(50):
        base = random_subspace(4, 2, rng)
        norm = rng.uniform(0.01, np.pi / 2 - 0.01)
        v = random_tangent(base, rng, norm=norm)
        d = geodesic_distance(base, exp_map(base, v))
        assert abs(d - norm) < 1e-10


def test_sphere_angle_basics():
    ends = np.array([E1, -E1, (E1 + E2) / np.sqrt(2)])
    angles = sphere_angle_matrix(E1[None], ends)[0]
    assert angles[0] == 0.0
    assert angles[1] == pytest.approx(np.pi)
    assert angles[2] == pytest.approx(np.pi / 4)


def test_hausdorff_trivial_and_singletons():
    a = np.array([E1])
    assert hausdorff_of(sphere_angle_matrix(a, a)) == 0.0
    north = np.array([[0.0, 0.0, 1.0]])
    other = np.array([[np.sin(0.3), 0.0, np.cos(0.3)]])
    d = hausdorff_of(sphere_angle_matrix(north, other))
    assert d == pytest.approx(0.3, abs=1e-12)


def brute_force_hausdorff(a, b):
    def angle(x, y):
        return float(np.arccos(np.clip(x @ y, -1.0, 1.0)))

    d_ab = max(min(angle(x, y) for y in b) for x in a)
    d_ba = max(min(angle(x, y) for y in a) for x in b)
    return max(d_ab, d_ba)


def test_hausdorff_brute_force_and_shuffle():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((50, 3))
    b = rng.standard_normal((50, 3))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    d = hausdorff_of(sphere_angle_matrix(a, b))
    assert d == pytest.approx(brute_force_hausdorff(a, b), abs=1e-12)
    perm = rng.permutation(50)
    d_shuffled = hausdorff_of(sphere_angle_matrix(a[perm], b))
    assert d == pytest.approx(d_shuffled, abs=1e-14)


def test_metric_axioms_random_triples():
    rng = np.random.default_rng(42)
    for _ in range(200):
        e, g, h = (random_subspace(4, 2, rng) for _ in range(3))
        deg = geodesic_distance(e, g)
        assert deg == pytest.approx(geodesic_distance(g, e), abs=0.0)
        assert deg <= geodesic_distance(e, h) + geodesic_distance(h, g) + 1e-9
    assert geodesic_distance(e, e) == 0.0


def test_orthogonal_invariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        e = random_subspace(4, 2, rng)
        g = random_subspace(4, 2, rng)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        qe = Subspace(q @ e.frame)
        qg = Subspace(q @ g.frame)
        assert geodesic_distance(qe, qg) == pytest.approx(
            geodesic_distance(e, g), abs=1e-10)


def test_principal_angles_frame_invariance():
    rng = np.random.default_rng(9)
    e = random_subspace(5, 2, rng)
    g = random_subspace(5, 2, rng)
    rot, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    e2 = Subspace(e.frame @ rot)
    assert np.allclose(principal_angles_all(e.frame, g.frame),
                       principal_angles_all(e2.frame, g.frame), atol=1e-10)


def test_hausdorff_metric_axioms():
    rng = np.random.default_rng(17)
    sets = []
    for _ in range(12):
        pts = rng.standard_normal((rng.integers(2, 8), 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        sets.append(pts)

    def hausdorff(a, b):
        return hausdorff_of(sphere_angle_matrix(a, b))

    for _ in range(100):
        i, j, k = rng.integers(0, len(sets), size=3)
        a, b, c = sets[i], sets[j], sets[k]
        dab = hausdorff(a, b)
        assert dab == pytest.approx(hausdorff(b, a), abs=0.0)
        assert dab <= hausdorff(a, c) + hausdorff(c, b) + 1e-12
    assert hausdorff(sets[0], sets[0]) == 0.0


def test_principal_angles_resolve_a_shared_line():
    # two planes of R^3 meeting along a line at 1 rad: the 0 angle is read
    # from its sine, not from a cosine next to 1
    q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)))
    e = Subspace(q @ np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    g = Subspace(q @ np.array([[1.0, 0.0], [0.0, np.cos(1.0)],
                               [0.0, np.sin(1.0)]]))
    angles = principal_angles_all(e.frame, g.frame)
    assert angles[0] <= 1e-14
    assert abs(angles[1] - 1.0) <= 1e-14
    assert np.array_equal(principal_angles_all(g.frame, e.frame), angles)


def test_stacks_of_zero_pairs_are_empty():
    empty = np.zeros((0, 3, 2))
    assert principal_angles_all(empty, empty).shape == (0, 2)
    assert geodesic_distances(empty, empty).shape == (0,)
    assert log_map_all(span(E1, E2).frame, empty).shape == (0, 3, 2)


def test_stack_rows_equal_their_batch_of_one_calls():
    rng = np.random.default_rng(11)
    base = random_subspace(5, 2, rng)
    es = [random_subspace(5, 2, rng) for _ in range(20)]
    gs = [exp_map(base, random_tangent(base, rng, norm=rng.uniform(0, 1.2)))
          for _ in range(20)]
    e_stack = np.stack([e.frame for e in es])
    g_stack = np.stack([g.frame for g in gs])
    angles = principal_angles_all(e_stack, g_stack)
    distances = geodesic_distances(e_stack, g_stack)
    deltas = log_map_all(base.frame, g_stack)
    complements = complement_frames(e_stack)
    for i, (e, g) in enumerate(zip(es, gs)):
        assert np.array_equal(angles[i], principal_angles_all(
            e.frame[None], g.frame[None])[0])
        assert distances[i] == geodesic_distance(e, g)
        assert np.array_equal(deltas[i], log_map(base, g).delta)
        assert np.array_equal(complements[i], complement(e).frame)


def test_import_leaves_scipy_linalg_unloaded():
    # lipimm imports no scipy, neither on import nor when raw curve and
    # surface samples fill their patches
    src = str(Path(lipimm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    script = "\n".join([
        "import sys, lipimm",
        "from lipimm.shapes import immersion_from_points",
        "c = lipimm.make_shape('circle', {}, 2048)",
        "t = lipimm.make_shape('torus', {}, '32x64')",
        "raw = immersion_from_points(t.positions, m=2, faces=t.faces)",
        "assert lipimm.check_r_lambda(immersion_from_points(c.positions),",
        "                             0.2, 1.0, 'best-fit').passed",
        "lipimm.extract_graph_patch(raw, 0, t.tangent_plane(0), 0.2)",
        "try:",  # samples fold over their best-fit planes after the fill
        "    lipimm.check_r_lambda(raw, 0.2, 1.0, 'best-fit')",
        "except lipimm.LipimmError:",
        "    pass",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 12])
def test_difference_norms_equal_the_norm_of_differences(n):
    # below 8 coordinates add.reduce sums from the left, from 8 on pairwise
    rng = np.random.default_rng(n)
    a = rng.standard_normal((5, 1, 40, n)) * 10.0 ** rng.integers(-8, 3, (5, 1, 40, n))
    b = rng.standard_normal((1, 3, 40, n))
    b[0, 0, :7] = a[0, 0, :7]  # identical rows are at distance exactly 0
    want = np.linalg.norm(a - b, axis=-1)
    assert np.array_equal(difference_norms(a, b), want)
    assert np.all(difference_norms(a, b)[0, 0, :7] == 0.0)
