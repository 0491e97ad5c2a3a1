import json
import math

import numpy as np
import pytest

from lipimm.errors import InputError
from lipimm.shapes import (
    immersion_from_manifest,
    immersion_from_points,
    load_manifest,
    make_shape,
)


def test_circle_samples_and_volume():
    c = make_shape("circle", {"radius": 2.0}, 1024)
    assert len(c) == 1024
    assert np.allclose(np.linalg.norm(c.positions, axis=1), 2.0)
    assert c.volume == pytest.approx(2 * math.pi * 2.0, rel=1e-4)


def test_circle_center_parameter():
    c = make_shape("circle", {"radius": 1.0, "center": (3.0, -1.0)}, 256)
    assert np.allclose(np.linalg.norm(c.positions - [3.0, -1.0], axis=1), 1.0)


def test_ellipse_and_knot_on_evaluator():
    e = make_shape("ellipse", {"a": 1.0, "b": 0.6}, 512)
    assert e.evaluator is not None
    knot = make_shape("torus-knot", {"p": 2, "q": 3, "R": 2.0, "tube": 0.5}, 2048)
    assert knot.n == 3
    # the knot lies on its torus
    w = np.sqrt(knot.positions[:, 0] ** 2 + knot.positions[:, 1] ** 2)
    on_torus = (w - 2.0) ** 2 + knot.positions[:, 2] ** 2
    assert np.allclose(on_torus, 0.25, atol=1e-12)


def test_rounded_rectangle_perimeter_and_c1():
    shape = make_shape("rounded-rectangle",
                       {"width": 2.0, "height": 1.5, "corner_radius": 0.5}, 2048)
    expected = 2 * 1.0 + 2 * 0.5 + 2 * math.pi * 0.5
    assert shape.evaluator.period == pytest.approx(expected, abs=1e-12)
    assert shape.volume == pytest.approx(expected, rel=1e-4)
    # unit-speed parametrization: velocities are unit vectors everywhere
    ts = np.linspace(0, expected, 4096, endpoint=False)
    speeds = np.linalg.norm(shape.evaluator.jacobian(ts), axis=1)
    assert np.allclose(speeds, 1.0, atol=1e-12)


def test_sphere_triangulation_closed():
    s = make_shape("sphere", {"radius": 1.0}, "16x8")
    assert len(s) == 16 * 7 + 2
    assert np.allclose(np.linalg.norm(s.positions, axis=1), 1.0)
    # closed surface: every edge borders exactly two faces
    from collections import Counter
    edges = Counter()
    for a, b, c in s.faces:
        for u, v in ((a, b), (b, c), (a, c)):
            edges[min(u, v), max(u, v)] += 1
    assert set(edges.values()) == {2}
    assert s.volume == pytest.approx(4 * math.pi, rel=0.05)


def test_torus_triangulation_closed_and_volume():
    t = make_shape("torus", {"R": 2.0, "r": 0.5}, "32x32")
    assert len(t) == 1024
    from collections import Counter
    edges = Counter()
    for a, b, c in t.faces:
        for u, v in ((a, b), (b, c), (a, c)):
            edges[min(u, v), max(u, v)] += 1
    assert set(edges.values()) == {2}
    assert t.volume == pytest.approx(4 * math.pi ** 2, rel=0.01)


@pytest.mark.parametrize("name, params", [("sphere", {"radius": 1.0}),
                                          ("torus", {"R": 2.0, "r": 0.5})])
def test_batched_tangent_planes_match_single(name, params):
    f = make_shape(name, params, "8x16")
    batched = f.tangent_planes(range(len(f)))
    for q, plane in enumerate(batched):
        assert np.array_equal(plane.frame, f.tangent_plane(q).frame)


def test_tilted_circle_plane():
    c = make_shape("circle3d", {"radius": 1.0, "tilt": 0.3}, 512)
    normal = np.array([0.0, -math.sin(0.3), math.cos(0.3)])
    assert np.max(np.abs(c.positions @ normal)) < 1e-12


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"shape": "circle", "params": {"radius": 1.5},
                                "samples": 128}))
    f = load_manifest(path)
    assert len(f) == 128
    assert np.allclose(np.linalg.norm(f.positions, axis=1), 1.5)


def test_raw_points_manifest():
    t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    pts = np.column_stack([np.cos(t), np.sin(t), 0 * t])
    f = immersion_from_manifest({"m": 1, "n": 3, "points": pts.tolist(),
                                 "closed": True})
    assert f.evaluator is None
    assert len(f) == 64


def test_csv_loading(tmp_path):
    t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    pts = np.column_stack([np.cos(t), np.sin(t)])
    path = tmp_path / "pts.csv"
    path.write_text("\n".join(f"{float(x)!r},{float(y)!r}" for x, y in pts) + "\n")
    f = load_manifest(path)
    assert len(f) == 64
    assert f.n == 2


def test_unknown_shape_and_bad_manifest(tmp_path):
    with pytest.raises(InputError):
        make_shape("dodecahedron")
    with pytest.raises(InputError):
        load_manifest(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        load_manifest(bad)
    with pytest.raises(InputError):
        immersion_from_manifest({"foo": 1})


def test_evaluator_consistency_enforced():
    c = make_shape("circle", {"radius": 1.0}, 64)
    from lipimm.immersion import SampledImmersion
    bad_positions = c.positions.copy()
    bad_positions[3] += 1e-6
    with pytest.raises(InputError):
        SampledImmersion(m=1, n=2, positions=bad_positions,
                         neighbors=[c.neighbors(i) for i in range(64)],
                         params=c.params, evaluator=c.evaluator)


def test_sparse_raw_circle_insufficient_for_patches():
    t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    raw = immersion_from_points(np.column_stack([np.cos(t), np.sin(t)]))
    from lipimm.errors import InsufficientSamplingError
    from lipimm.immersion import extract_graph_patch
    from lipimm.grassmann import orthonormalize
    plane = orthonormalize(np.array([[0.0], [1.0]]))
    with pytest.raises(InsufficientSamplingError):
        extract_graph_patch(raw, 0, plane, 0.2)
