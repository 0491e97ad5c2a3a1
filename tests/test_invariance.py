"""What the theory guarantees of the checks and nets, as properties: the
worst slope and the net sizes do not depend on where the immersion sits in
R^n, on how its samples are numbered, or on its scale, and the slopes do
not shrink as the chart radius grows."""

import copy

import numpy as np
import pytest

from lipimm.immersion import SampledImmersion, check_r_lambda
from lipimm.nets import build_net
from lipimm.shapes import make_shape

# shape, parameters, samples, r, lambda, net levels; the torus nets are
# built unverified at r = 0.6, where a delta_1-patch holds more than its
# point (at r = 0.1 every sample is a net point)
SHAPES = {
    "circle": ("circle", {}, 1024, 0.2, 0.25, (1, 2, 5), 0.2),
    "ellipse": ("ellipse", {"a": 1.0, "b": 0.6}, 1024, 0.1, 0.5, (1, 2, 5),
                0.1),
    "torus": ("torus", {"R": 2.0, "r": 0.5}, "16x32", 0.1, 0.25, (1, 2),
              0.6),
}


def moved(f, rotation, shift, roll=0, scale=1.0):
    """x -> scale (rotation x) + shift applied to f, its evaluator included,
    with sample i renumbered i + roll (mod N)."""
    ev = copy.copy(f.evaluator)
    point_jacobian = ev._point_jacobian

    def image(t):
        p, jac = point_jacobian(t)
        jac = rotation @ jac if f.m == 2 else jac @ rotation.T
        return scale * (p @ rotation.T) + shift, scale * jac

    ev._point_jacobian = image
    ev.graph_heights = None  # a closed form is for the shape in place
    if ev.bound is not None:  # a rotation keeps |D^2 f|
        ev.bound *= scale
    old = (np.arange(len(f)) - roll) % len(f)  # new sample i is old[i]
    positions = scale * (f.positions[old] @ rotation.T) + shift
    if f.m == 1:
        return SampledImmersion(1, f.n, positions, neighbors=[
            ((i - 1) % len(f), (i + 1) % len(f)) for i in range(len(f))],
            params=f.params[old], evaluator=ev)
    return SampledImmersion(2, f.n, positions, faces=(f.faces + roll) % len(f),
                            params=f.params[old], evaluator=ev)


def verdict(g, name, scale=1.0):
    """The check's verdict and worst slope, and the net sizes, of g at the
    shape's (scale r, lambda)."""
    _, _, _, r, lam, levels, net_r = SHAPES[name]
    report = check_r_lambda(g, scale * r, lam)
    sizes = [len(build_net(g, scale * net_r, lam, level,
                           verify_immersion=net_r == r)) for level in levels]
    return report.passed, report.worst_lambda, sizes


@pytest.fixture(scope="module", params=sorted(SHAPES))
def shape(request):
    name, params, samples = SHAPES[request.param][:3]
    f = make_shape(name, params, samples)
    return request.param, f, verdict(f, request.param)


def test_invariant_under_rigid_motions(shape):
    name, f, (passed, worst, sizes) = shape
    assert passed
    rng = np.random.default_rng(7)
    for _ in range(3):
        rotation, _ = np.linalg.qr(rng.standard_normal((f.n, f.n)))
        got = verdict(moved(f, rotation, rng.uniform(-3, 3, f.n)), name)
        assert got[0] == passed
        assert abs(got[1] - worst) <= 1e-9
        assert got[2] == sizes


def test_invariant_under_rotation_of_the_sample_index(shape):
    # the patches do not depend on the ids: the worst slope is the same bit
    # for bit.  A greedy net starts at sample 0, so renumbering moves its
    # first point; on the circle and the torus the renumbered samples are
    # the same point set up to a symmetry, and the sizes are the same, but
    # on the ellipse the greedy from another start may take one point less
    # or more (210 / 784 points at levels 1 / 2 against 209 / 783 measured)
    name, f, (passed, worst, sizes) = shape
    rng = np.random.default_rng(8)
    for roll in rng.integers(1, len(f), 3).tolist():
        got = verdict(moved(f, np.eye(f.n), 0.0, roll), name)
        assert got[:2] == (passed, worst)
        if name == "ellipse":
            assert all(abs(a - b) <= 1 for a, b in zip(got[2], sizes))
        else:
            assert got[2] == sizes


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e3, 1e6])
def test_dilation_law(shape, scale):
    # s f checked at (s r, lambda): the same verdict, worst slope and net
    # sizes
    name, f, (passed, worst, sizes) = shape
    got = verdict(moved(f, np.eye(f.n), 0.0, scale=scale), name, scale)
    assert got[0] == passed
    assert abs(got[1] - worst) <= 1e-9
    assert got[2] == sizes


@pytest.mark.parametrize("name, params, samples", [
    ("circle", {}, 512),
    ("ellipse", {"a": 1.0, "b": 0.6}, 1024),
    ("circle3d", {"radius": 1.0, "tilt": 0.2}, 2048),
    ("torus-knot", {"p": 2, "q": 3, "R": 2.0, "tube": 0.5}, 2048),
    ("torus", {"R": 2.0, "r": 0.5}, "16x32"),
])
def test_slopes_grow_with_the_radius(name, params, samples):
    # on a fold-free shape the patch over B_r of a tangent plane is the
    # patch over B_r' cut to B_r for r < r', so sup |Du| cannot shrink as r
    # grows, at any sample; the curves' components hold from 9 to 131
    # members over these radii
    f = make_shape(name, params, samples)
    slopes = np.stack([check_r_lambda(f, r, 100.0).lambdas
                       for r in (0.05, 0.1, 0.15, 0.2)])
    assert np.all(np.diff(slopes, axis=0) >= 0)
