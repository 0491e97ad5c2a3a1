import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipimm.errors import InputError
from lipimm.immersion import check_r_lambda
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
    assert batched.shape == (len(f), f.n, f.m)
    for q, frame in enumerate(batched):
        assert np.array_equal(frame, f.tangent_plane(q).frame)


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


def _looped_volume_and_spacing(f):
    """Volume and sample spacing as one norm per CSR edge in a Python loop:
    the reference the stacked edge norms must match bit for bit."""
    volume = 0.0
    for i in range(len(f)):
        for j in f.neighbors(i):
            if j > i:
                volume += float(np.linalg.norm(f.positions[i] - f.positions[j]))
    lengths = [np.linalg.norm(f.positions[i] - f.positions[j])
               for i in range(min(len(f), 512)) for j in f.neighbors(i)]
    return volume, float(np.median(lengths))


@pytest.mark.parametrize("name, params, samples", [
    ("circle", {"radius": 1.3, "center": (0.4, -2.0)}, 1024),
    ("ellipse", {"a": 1.0, "b": 0.35}, 777),
    ("rounded-rectangle", {"width": 3.0, "height": 2.0,
                           "corner_radius": 0.5}, 1000),
    ("circle3d", {"radius": 1.5, "tilt": 0.3}, 513),
    ("torus-knot", {"p": 3, "q": 5, "R": 2.0, "tube": 0.7}, 2048),
    ("sphere", {"radius": 1.0}, "24x12"),
    ("torus", {"R": 2.0, "r": 0.5}, "32x16"),
])
def test_volume_and_spacing_match_the_edge_loop(name, params, samples):
    shape = make_shape(name, params, samples)
    volume, spacing = _looped_volume_and_spacing(shape)
    assert shape.sample_spacing == spacing
    if shape.m == 1:
        assert shape.volume == volume
        raw = immersion_from_points(shape.positions[::-1])
        assert (raw.volume, raw.sample_spacing) == \
            _looped_volume_and_spacing(raw)


CATALOG = [
    ("circle", {"radius": 1.3, "center": (0.4, -2.0)}, 64),
    ("ellipse", {"a": 1.0, "b": 0.6}, 64),
    ("rounded-rectangle", {"width": 2.0, "height": 1.5,
                           "corner_radius": 0.5}, 64),
    ("circle3d", {"radius": 1.0, "tilt": 0.2}, 64),
    ("torus-knot", {"p": 2, "q": 3, "R": 2.0, "tube": 0.5}, 64),
    ("sphere", {"radius": 1.3}, "8x6"),
    ("torus", {"R": 2.0, "r": 0.5}, "8x8"),
]


@pytest.mark.parametrize("name, params, samples", CATALOG)
def test_jacobian_matches_central_differences(name, params, samples):
    ev = make_shape(name, params, samples).evaluator
    rng = np.random.default_rng(7)
    if ev.m == 1:
        t = rng.uniform(0.0, ev.period, 200)
    else:  # latitudes off the sphere's poles
        t = np.column_stack([rng.uniform(0.0, 2 * math.pi, 200),
                             rng.uniform(-1.4, 1.4, 200)])
    point, jacobian = ev.point_jacobian(t)
    assert np.array_equal(point, ev.point(t))
    assert np.array_equal(jacobian, ev.jacobian(t))
    columns = jacobian[..., None] if ev.m == 1 else jacobian
    h = 1e-6
    for j, step in enumerate(h * np.eye(ev.m)):
        step = step[0] if ev.m == 1 else step
        central = (ev.point(t + step) - ev.point(t - step)) / (2 * h)
        assert np.max(np.abs(central - columns[..., j])) <= 1e-6


# catalog shapes of one size and one shape ratio in (0, 1]
SIZED = {
    "torus": lambda size, ratio: {"R": size, "r": ratio * size},
    "sphere": lambda size, ratio: {"radius": size},
    "circle": lambda size, ratio: {"radius": size},
    "circle3d": lambda size, ratio: {"radius": size, "tilt": 3.0 * ratio},
    "ellipse": lambda size, ratio: {"a": size, "b": ratio * size},
    "torus-knot": lambda size, ratio: {"R": size, "tube": ratio * size},
    "rounded-rectangle": lambda size, ratio: {
        "width": size, "height": ratio * size, "corner_radius": ratio * size / 4},
}


@settings(max_examples=140, deadline=None)
@given(name=st.sampled_from(sorted(SIZED)), size=st.floats(0.01, 100.0),
       ratio=st.floats(0.01, 1.0), seed=st.integers(0, 2 ** 16))
def test_second_derivative_bound_holds(name, size, ratio, seed):
    # Taylor's theorem with the catalog bound L: |f(t + d) - f(t) - J(t) d|
    # is at most (L/2) |d|^2, at random parameters t and steps d of length
    # 1e-4 to 3, on tori with tube radius up to R, spheres and the catalog
    # curves, up to the rounding of the points
    shape = make_shape(name, SIZED[name](size, ratio), "8x8" if name in (
        "torus", "sphere") else 8)
    ev = shape.evaluator
    rng = np.random.default_rng(seed)
    t = rng.uniform(-4.0, 4.0, (500, 2))
    d = rng.normal(size=(500, 2))
    d *= np.exp(rng.uniform(math.log(1e-4), math.log(3.0), (500, 1))) / \
        np.linalg.norm(d, axis=1, keepdims=True)
    if ev.m == 1:  # one parameter: t's first, and d of the same length
        t, d = t[:, 0], np.linalg.norm(d, axis=1) * np.sign(d[:, 0])
    point, jacobian = ev.point_jacobian(t)
    linear = jacobian * d[:, None] if ev.m == 1 else \
        np.einsum("tij,tj->ti", jacobian, d)
    remainder = ev.point(t + d) - point - linear
    bound = 0.5 * ev.bound * (d * d if ev.m == 1 else np.sum(d * d, axis=1))
    assert np.all(np.linalg.norm(remainder, axis=1) <= bound + 1e-14 * size)


@pytest.mark.parametrize("name, params, samples, r, lam, worst, digest", [
    ("circle", {"radius": 1.0}, 512, 0.2, 0.25, "0.20412201275717745",
     "5794fb1b72e70c0b"),
    ("ellipse", {"a": 1.0, "b": 0.6}, 512, 0.1, 1.0, "0.28719705678016516",
     "f9c7bc23ccb9e29c"),
    ("rounded-rectangle", {"width": 2.0, "height": 1.5, "corner_radius": 0.5},
     1000, 0.1, 1.0, "0.20412201275722186", "fb461e566debb9d6"),
    ("circle3d", {"radius": 1.0, "tilt": 0.2}, 512, 0.2, 0.25,
     "0.20412201275720354", "eb7e2a4c040cb258"),
    ("torus-knot", {"p": 2, "q": 3, "R": 2.0, "tube": 0.5}, 1024, 0.1, 1.0,
     "0.05821358851005384", "0689b2faa101f486"),
    ("sphere", {"radius": 1.0}, "24x12", 0.2, 0.25, "0.20158834816954105",
     "19154f8df5b18839"),
    ("sphere, Newton fill", {"radius": 1.0}, "24x12", 0.2, 0.25,
     "0.20158834816959809", "19154f8df5b18839"),
    ("torus", {"R": 2.0, "r": 0.5}, "16x32", 0.1, 0.25, "0.19202219008601748",
     "3d1fc51fcf5de993"),
])
def test_evaluator_bits_and_worst_slope_are_pinned(name, params, samples, r,
                                                    lam, worst, digest):
    # a change in the order of an evaluator's operations moves the last bit
    # of some points or Jacobians (the digest of both at the samples), and
    # through the roots the worst slope
    f = make_shape(name.split(",")[0], params, samples)
    point, jacobian = f.evaluator.point_jacobian(f.params)
    assert hashlib.sha256(point.tobytes() + jacobian.tobytes()).hexdigest()[
        :16] == digest
    if name.endswith("Newton fill"):
        f.evaluator.graph_heights = None
    assert repr(check_r_lambda(f, r, lam).worst_lambda) == worst
