"""The benchmark's checks accept the program's outputs on small inputs and
reject the same outputs made wrong on purpose.

    python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import lipimm as lp  # noqa: E402

import checks  # noqa: E402
from spans import Tracer  # noqa: E402

R, LAM = 0.2, 0.25
CENTER = np.array([0.7, -1.3])


@pytest.fixture(scope="module")
def circle():
    return lp.make_shape("circle", {"center": tuple(CENTER)}, 512)


@pytest.fixture(scope="module")
def chain(circle):
    net = lp.build_net(circle, R, LAM, 4)
    field = lp.direction_field(circle, net)
    target = lp.make_shape("circle", {"radius": 1.001, "center": tuple(CENTER)},
                           512)
    return net, field, lp.build_correspondence(circle, target, net, field)


def test_slope_check_rejects_a_perturbed_slope(circle):
    rep = lp.check_r_lambda(circle, R, LAM)
    want = checks.circle_worst_slope(R)
    assert checks.slope_check(rep.passed, rep.worst_lambda, want, LAM, True) == []
    assert checks.slope_check(rep.passed, rep.worst_lambda + 0.01, want, LAM,
                              True)
    assert checks.slope_check(not rep.passed, rep.worst_lambda, want, LAM, True)


def test_slope_bound_check_rejects_a_slope_above_the_curvature_bound(circle):
    rep = lp.check_r_lambda(circle, R, LAM)
    bound = checks.curvature_slope_bound(1.0, R)
    assert checks.slope_bound_check(rep.lambdas, rep.passed, LAM, bound) == []
    steep = rep.lambdas.copy()
    steep[17] = bound + 0.01
    assert checks.slope_bound_check(steep, True, LAM, bound)


@pytest.mark.parametrize("level", [1, 2])
def test_net_check_rejects_a_net_with_a_point_dropped(circle, level):
    net = lp.build_net(circle, R, LAM, level)
    report = lp.verify_net_bounds(net)
    length = checks.polygon_length(circle.positions)
    members = [net.members(j, 2) for j in range(len(net))]
    assert checks.net_check(net.points, members, circle.positions, length, 1,
                            level, R, LAM, report) == []
    keep = np.arange(len(net)) != len(net) // 2
    problems = checks.net_check(net.points[keep],
                                [m for m, k in zip(members, keep) if k],
                                circle.positions, length, 1, level, R, LAM,
                                report)
    assert any("from the net" in p for p in problems)


def test_field_check_rejects_a_tilted_field(circle, chain):
    _, field, _ = chain
    assert checks.field_check(field.S_norm, field.T, circle.positions, CENTER,
                              LAM, R) == []
    c, s = np.cos(0.05), np.sin(0.05)
    tilted = field.T @ np.array([[c, s], [-s, c]])
    assert checks.field_check(field.S_norm, tilted, circle.positions, CENTER,
                              LAM, R)
    assert checks.field_check(field.S_norm * 0.6, field.T, circle.positions,
                              CENTER, LAM, R)


def test_displacement_checks_reject_an_off_displacement(circle, chain):
    _, _, corr = chain
    offsets = corr.fiber_offsets
    assert checks.displacement_check(offsets, 0.001, 1e-9) == []
    off = offsets.copy()
    off[3] += 1e-6
    assert checks.displacement_check(off, 0.001, 1e-9)
    assert checks.concentric_target_check(corr.phi_points, corr.phi_params,
                                          circle.positions, CENTER, 1.001,
                                          LAM, R) == []
    moved = corr.phi_points.copy()
    moved[3] += 1e-6 * (moved[3] - CENTER)
    assert checks.concentric_target_check(moved, corr.phi_params,
                                          circle.positions, CENTER, 1.001,
                                          LAM, R)
    swapped = corr.phi_params.copy()
    swapped[[5, 6]] = swapped[[6, 5]]
    assert checks.concentric_target_check(corr.phi_points, swapped,
                                          circle.positions, CENTER, 1.001,
                                          LAM, R)


def test_tube_params_check_rejects_an_off_epsilon():
    cb = lp.constants(1, LAM, R)
    d3 = lp.delta(3, R, LAM)
    params = lp.tube_params(d3, LAM, cb.L_codim1, cb.gamma)
    assert checks.tube_params_check(params, 1, LAM, R, d3) == []
    wrong = lp.tube_params(d3, LAM, cb.L_codim1 * 1.01, cb.gamma)
    assert checks.tube_params_check(wrong, 1, LAM, R, d3)


def test_normal_space_check_rejects_a_tilted_normal_space():
    tangents = checks.central_tangents(
        lp.make_shape("circle3d", {"tilt": 0.2}, 64).positions, [0, 9])
    frames = []
    for t in tangents:
        q, _ = np.linalg.qr(np.column_stack([t, np.eye(3)]))
        frames.append(q[:, 1:3])
    assert checks.normal_space_check(frames, tangents) == []
    frames[1] = frames[1] + 1e-6 * tangents[1][:, None]
    assert checks.normal_space_check(frames, tangents)


def test_tracer_counts_rebuilt_patches_and_self_times(circle):
    original = lp.check_r_lambda
    tracer = Tracer()
    tracer.install()
    try:
        f = lp.make_shape("circle", {}, 256)
        net = lp.build_net(f, R, LAM, 1)
        net.patch(0)
        net.patch(0)  # cached by the net: not built again
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert lp.check_r_lambda is original
    assert lp.immersion.check_r_lambda is original
    assert metrics["immersion.checked_samples"] == 256
    assert metrics["immersion.patches_built"] == 257
    assert metrics["immersion.patches_rebuilt"] == 1
    assert metrics["nets.net_points"] == len(net)
    assert metrics["immersion.components"] > 0
    own = tracer.self_times()
    assert all(value >= 0.0 for value in own.values())
    spans = tracer.span_rows()
    top = sum(end - start for _, start, end, parent in spans if parent < 0)
    assert sum(own.values()) == pytest.approx(top)
