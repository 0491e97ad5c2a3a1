import math

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import lipimm.immersion as immersion_mod
from lipimm._util import (
    NEWTON_ITERATIONS,
    bisect,
    bracketed_newton,
    halton,
    inverse_hermite,
    rounding_floor,
)
from lipimm.grassmann import orthonormalize
from lipimm.immersion import (
    _curve_brackets,
    _solve_curve_rows,
    check_r_lambda,
    q_component,
)
from lipimm.shapes import make_shape


SHAPES = {
    "circle": lambda v: {"radius": 0.5 + 2.5 * v},
    "ellipse": lambda v: {"a": 1.0, "b": 0.4 + 0.6 * v},
    "circle3d": lambda v: {"radius": 1.0, "tilt": 1.2 * v},
    "torus-knot": lambda v: {"R": 2.0, "tube": 0.3 + 0.4 * v},
    "rounded-rectangle": lambda v: {"width": 2.0, "height": 1.5,
                                    "corner_radius": 0.2 + 0.5 * v},
}


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(SHAPES)),
       shape_param=st.floats(0.0, 1.0),
       samples=st.sampled_from([512, 1024, 2048]),
       base=st.floats(0.0, 1.0, exclude_max=True),
       radius=st.floats(0.02, 0.2),
       tilt=st.floats(-0.3, 0.3),
       normal=st.floats(0.0, 2 * math.pi))
# the rim node x = -0.2 lies where the corner arc meets the vertical side:
# its residual is flat to 2e-13 across the bracket, and Newton and
# bisection both reach a residual of 0.0 at parameters 3.2e-11 apart
@example(name="rounded-rectangle", shape_param=0.0, samples=512, base=0.0,
         radius=0.2, tilt=-1e-12, normal=0.0)
def test_roots_match_a_long_bisection(name, shape_param, samples, base,
                                      radius, tilt, normal):
    # the chart nodes of one patch, over a line tilted off the tangent
    f = make_shape(name, SHAPES[name](shape_param), samples)
    q = int(base * len(f))
    tangent = f.evaluator.tangent_frame(f.params[q])
    frame = np.linalg.qr(np.column_stack([tangent, np.eye(f.n)]))[0]
    normal_dir = frame[:, 1] if f.n == 2 else (
        math.cos(normal) * frame[:, 1] + math.sin(normal) * frame[:, 2])
    plane = orthonormalize(
        (math.cos(tilt) * frame[:, 0] + math.sin(tilt) * normal_dir)[:, None])
    members = q_component(f, q, plane, radius)
    # a radius below the sample spacing leaves no orientation to bracket by
    if len(members) < 4:
        reject()
    proj = (f.positions[members] - f.positions[q]) @ plane.frame
    x_nodes = np.linspace(-radius, radius, 129)
    # the bracket pass over one row
    ends, i_lo, i_hi, [err] = _curve_brackets(
        f, np.array([q]), members[None], np.array([len(members)]), proj[None],
        x_nodes)
    [lo], [hi] = (np.take_along_axis(ends, i, axis=1) for i in (i_lo, i_hi))
    if err is not None:  # the tilted line folds the component
        reject()
    f_q, e = f.positions[q], plane.frame[:, 0]

    def residual(t):
        return (f.evaluator.point(t) - f_q) @ e - x_nodes

    def residual_slope(t):
        return residual(t), f.evaluator.jacobian(t) @ e

    r_lo, r_hi = residual(lo), residual(hi)
    t, _, _ = bracketed_newton(residual_slope, lo.copy(), hi.copy(),
                               r_lo.copy(), r_hi, rounding_floor(f_q))
    ref_lo, ref_hi = bisect(residual, lo, hi, r_lo, 200)
    straddle = r_lo * r_hi <= 0
    assert np.count_nonzero(straddle) >= 127  # at most the two rim nodes
    bound = 4e-15 * (1 + np.max(np.abs(f_q)))
    # a simple root, |r'| >= 1/16, is fixed to the bound: a unit in the last
    # place of 1 + |f_q| in the residual moves it by less.  Where the
    # residual is flatter the floats fix no root that closely, and the
    # residual at the root is held to what a slope of 1/16 gives instead
    r_t, slope = residual_slope(t)
    simple = straddle & (np.abs(slope) >= 1 / 16)
    assert np.max(np.abs(t - 0.5 * (ref_lo + ref_hi))[simple]) <= bound
    assert np.max(np.abs(r_t)[straddle & ~simple], initial=0.0) <= bound / 16


def test_a_bracket_end_that_is_a_root_stays_the_root():
    # sin has its root 0 at an end of the first two brackets
    calls = []

    def residual_slope(t):
        calls.append(t)
        return np.sin(t), np.cos(t)

    lo, hi = np.array([0.0, -1.0, 3.0]), np.array([1.0, 0.0, 3.5])
    t, _, _ = bracketed_newton(residual_slope, lo, hi, np.sin(lo),
                               np.sin(hi), 1e-15)
    assert t[0] == 0.0 and t[1] == 0.0
    assert abs(t[2] - math.pi) <= 4.5e-16
    assert len(calls) <= 4


def test_each_root_stops_on_its_own():
    # the first root meets its loose floor while the others still step, so
    # it comes out the same alone and in a block only if it stops there
    targets, floors = np.array([0.1, 0.5, 0.9]), np.array([1e-3, 1e-15, 1e-15])

    def solve(rows):
        c = targets[rows]
        lo, hi = np.zeros(len(rows)), np.full(len(rows), 1.5)
        return bracketed_newton(lambda t: (np.sin(t) - c, np.cos(t)), lo, hi,
                                -c, np.sin(hi) - c, floors[rows])[0]

    assert solve([0, 1, 2]).tolist() == [solve([i])[0] for i in range(3)]


def test_held_roots_are_where_the_last_call_was():
    # the third root takes a step in the last iteration, so the last call
    # is not at it; the other two end where that call evaluated them.
    # Without a bound no step is certified: the third is to be confirmed
    c, floors = np.array([0.1, 0.5, 0.9]), np.array([1e-3, 1e-15, 1e-15])
    calls = []

    def residual_slope(t):
        calls.append(t.copy())
        return np.sin(t) - c, np.cos(t)

    t, step, confirm = bracketed_newton(
        residual_slope, np.zeros(3), np.full(3, 1.5), -c, np.sin(1.5) - c,
        floors)
    assert (~confirm).tolist() == (calls[-1] == t).tolist() == \
        [True, True, False]
    assert not step.any()


def test_inverse_hermite_start_is_exact_on_a_cubic_inverse():
    # where t(r) is a cubic, the start interpolates it exactly: with t(r) =
    # 0.3 + 2 r + r^2 / 2 + r^3 / 4 (increasing), the root r = 0 is at 0.3
    def inverse(r):
        return 0.3 + 2 * r + r * r / 2 + r ** 3 / 4

    def inverse_slope(r):
        return 2 + r + 0.75 * r * r

    r_lo, r_hi = np.array([-0.5, -0.01, -2.0]), np.array([0.25, 0.3, 0.1])
    calls = []

    def residual_slope(t):  # records the start and stops there
        calls.append(t.copy())
        return np.zeros_like(t), np.ones_like(t)

    lo, hi = inverse(r_lo), inverse(r_hi)
    bracketed_newton(residual_slope, lo, hi, r_lo.copy(), r_hi, 1e-15,
                     inverse_hermite(lo, hi, r_lo, r_hi, 1 / inverse_slope(r_lo),
                                     1 / inverse_slope(r_hi)))
    assert np.max(np.abs(calls[0] - 0.3)) <= 1e-15


def test_certified_steps_stop_at_the_first_evaluation():
    # |sin''| <= 1: from the inverse Hermite start, one evaluation certifies
    # every Newton step, each root is that step past the evaluation, and
    # the residual there is within the floor
    c = np.array([-0.3, 0.1, 0.5, 0.8])
    lo, hi = np.arcsin(c) - 0.01, np.arcsin(c) + 0.013
    calls = []

    def residual_slope(t):
        calls.append(t.copy())
        return np.sin(t) - c, np.cos(t)

    ends = (lo, hi, np.sin(lo) - c, np.sin(hi) - c)
    start = inverse_hermite(*ends, np.cos(lo), np.cos(hi))
    t, step, confirm = bracketed_newton(
        residual_slope, *(v.copy() for v in ends), 1e-15, start.copy(), 1.0)
    assert len(calls) == 1 and not confirm.any()
    assert np.array_equal(calls[0] + step, t)
    assert np.max(np.abs(np.sin(t) - c)) <= 1e-15
    # without the bound the same start evaluates again at the stepped roots
    calls.clear()
    bracketed_newton(residual_slope, *ends, 1e-15, start)
    assert len(calls) == 2


def test_a_bracket_without_sign_change_is_flagged():
    # the unit circle through f_q = (1, 0) over its tangent line: node x sits
    # at t = asin(x); the second row's brackets all lie past their roots
    ev = make_shape("circle", {"radius": 1.0}, 64).evaluator
    x_nodes = np.linspace(-0.1, 0.1, 5)
    roots = np.arcsin(x_nodes)
    lo = np.stack([roots - 0.01, roots + 0.02])
    hi = np.stack([roots + 0.01, roots + 0.05])
    f_q = np.array([[1.0, 0.0], [1.0, 0.0]])
    e_vecs = np.array([[0.0, 1.0], [0.0, 1.0]])
    n_frames = np.array([[[-1.0], [0.0]], [[-1.0], [0.0]]])
    # a (lo, hi) pair as bracket ends with the indices of each half
    ends, g = np.concatenate([lo, hi], axis=1), np.arange(len(x_nodes))
    heights, unresolved, res_max = _solve_curve_rows(
        ev, f_q, e_vecs, n_frames, ends, np.stack([g, g]),
        np.stack([g, g]) + len(g), x_nodes)
    assert unresolved.tolist() == [False, True]
    assert res_max[0] <= 1e-15 and res_max[1] > 1e-3
    assert np.max(np.abs(heights[0, :, 0] - (1 - np.cos(roots)))) <= 1e-15


def test_rounded_rectangle_block_stops_well_under_the_cap(evaluator_calls,
                                                          per_call):
    # a stop relative to |t| cycled at the last bit of this block's roots
    # and ran all its iterations; 8 evaluator calls are at most 5 of them
    f = make_shape("rounded-rectangle", {}, 2048)
    counter = evaluator_calls(f.evaluator)
    blocks = per_call(immersion_mod, "_solve_curve_rows", counter)
    check_r_lambda(f, 0.1, 1.0, sample_ids=range(256))
    assert len(blocks) == 1
    assert blocks[0] <= 8 < NEWTON_ITERATIONS


def reference_halton(count, dim, offset=0):
    """The former Halton loop: int64 digits by % and //, while any index
    has digits left."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    idx = np.arange(offset + 1, offset + count + 1)
    out = np.empty((count, dim))
    for d in range(dim):
        base = primes[d]
        n = idx.astype(np.int64)
        value = np.zeros(count)
        denom = np.ones(count)
        while np.any(n > 0):
            denom *= base
            value += (n % base) / denom
            n //= base
        out[:, d] = value
    return out


@pytest.mark.parametrize("count, dim, offset", [
    (100_000, 2, 0), (10_000, 3, 42), (20_000, 2, 7), (1_000, 3, 999),
    (7, 2, 0), (100_000, 10, 5), (0, 2, 3), (1, 1, 0),
    (1_000, 3, 2 ** 32 - 500), (100, 2, 2 ** 40 + 3)])
def test_halton_matches_the_integer_digit_loop(count, dim, offset):
    assert halton(count, dim, offset=offset).tobytes() == \
        reference_halton(count, dim, offset).tobytes()


def reference_bisect(residual, lo, hi, r_lo, iters):
    """Bisection through all ``iters`` steps."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        r_mid = residual(mid)
        take_low = (r_mid > 0) == (r_lo > 0)
        lo = np.where(take_low, mid, lo)
        r_lo = np.where(take_low, r_mid, r_lo)
        hi = np.where(take_low, hi, mid)
    return lo, hi


def test_bisection_returns_at_its_fixed_point():
    # brackets about 2 wide around roots in (-1.2, 1.2) reach adjacent
    # floats within 64 halvings; the steps after that change nothing, so
    # the early return gives the bytes of all 80 steps
    rng = np.random.default_rng(3)
    c = rng.uniform(-0.9, 0.9, 1000)
    lo, hi = np.arcsin(c) - rng.uniform(0, 1, 1000), np.full(1000, 1.6)
    calls = []

    def residual(t):
        calls.append(1)
        return np.sin(t) - c

    got = bisect(residual, lo, hi, np.sin(lo) - c, 80)
    steps = len(calls)
    want = reference_bisect(residual, lo, hi, np.sin(lo) - c, 80)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
    assert steps < 70
