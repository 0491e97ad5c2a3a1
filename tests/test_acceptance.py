"""Acceptance suite: every criterion at its stated tolerance, timed.

Each test prints one `ACCEPTANCE <n>: PASS/FAIL` line (run pytest with -s to
see them).  Shared pipeline state is built lazily inside the first criterion
that needs it, so the stated runtime budgets account for the work they
require.
"""

import math
import time

import numpy as np
import pytest

from conftest import complement, random_subspace, random_tangent, scaled

from lipimm.correspond import (
    build_correspondence,
    convergence_harness,
    reparametrized_lipschitz,
    verify_bijectivity,
)
from lipimm.grassmann import (
    Subspace,
    exp_map,
    geodesic_distance,
    log_map,
    orthonormalize,
)
from lipimm.immersion import check_r_lambda, delta
from lipimm.karcher import (
    DiracMixture,
    energy,
    energy_gradient,
    karcher_mean,
    stability_constant,
    verify_stability,
)
from lipimm.nets import build_net, verify_net_bounds
from lipimm.normals import (
    NormalMeasureField,
    angle_bound_check,
    constants,
    direction_field,
    field_lipschitz_check,
    n_lipschitz_check,
)
from lipimm.shapes import make_shape
from lipimm.tubular import (
    chart_direction_field,
    inclusion_probe,
    injectivity_probe,
    separation_check,
    tube_params,
)

_STATE = {}


def shared(key, builder):
    if key not in _STATE:
        _STATE[key] = builder()
    return _STATE[key]


def circle4096():
    return shared("circle", lambda: make_shape("circle", {"radius": 1.0}, 4096))


def circle_net():
    return shared("net", lambda: build_net(circle4096(), 0.2, 0.25, 5))


def circle_field():
    return shared("field", lambda: direction_field(circle4096(), circle_net()))


def report(n, ok, elapsed, budget, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n}: {status} ({elapsed:.1f}s / budget {budget}s) {detail}")
    assert ok, f"criterion {n}: {detail}"
    assert elapsed < budget, f"criterion {n} exceeded {budget}s ({elapsed:.1f}s)"


def test_acceptance_01_grassmann_metric_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    ok = True
    for n, k in [(3, 1), (4, 2), (5, 2)]:
        for _ in range(200):
            e, g, h = (random_subspace(n, k, rng) for _ in range(3))
            deg = geodesic_distance(e, g)
            ok &= deg == geodesic_distance(g, e)
            ok &= deg <= geodesic_distance(e, h) + geodesic_distance(h, g) + 1e-9
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            ok &= abs(geodesic_distance(Subspace(q @ e.frame),
                                        Subspace(q @ g.frame)) - deg) <= 1e-10
    worst_rt = 0.0
    for n, k in [(3, 1), (4, 2), (5, 2)]:
        for _ in range(40):
            base = random_subspace(n, k, rng)
            norm = rng.uniform(0.05, math.pi / 2 - 0.1)
            target = exp_map(base, random_tangent(base, rng, norm=norm))
            if geodesic_distance(base, target) >= math.pi / 2 - 0.1:
                continue
            back = exp_map(base, log_map(base, target))
            worst_rt = max(worst_rt, float(np.max(np.abs(
                back.projector() - target.projector()))))
    ok &= worst_rt < 1e-9
    report(1, ok, time.monotonic() - t0, 5,
           f"metric axioms + O(n) invariance on 600 triples; round-trip "
           f"{worst_rt:.2e} < 1e-9")


def _polar_grid_minimizer(mu, center, radius, step=1e-3):
    c = center.frame[:, 0]
    q, _ = np.linalg.qr(np.column_stack([c, np.eye(3)]))
    e1, e2 = q[:, 1], q[:, 2]
    atoms = np.column_stack([a.frame[:, 0] for a in mu.atoms])
    w = mu.weights
    best_val, best_vec = np.inf, c
    for rho in np.arange(0.0, radius + step, step):
        if rho == 0.0:
            pts = c[None, :]
        else:
            n_phi = max(8, int(np.ceil(2 * math.pi * rho / step)))
            phi = np.linspace(0.0, 2 * math.pi, n_phi, endpoint=False)
            pts = (np.cos(rho) * c[None, :]
                   + np.sin(rho) * (np.cos(phi)[:, None] * e1[None, :]
                                    + np.sin(phi)[:, None] * e2[None, :]))
        d = np.arccos(np.clip(np.abs(pts @ atoms), 0.0, 1.0))
        vals = d ** 2 @ w
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val, best_vec = float(vals[i]), pts[i]
    return orthonormalize(best_vec[:, None])


def test_acceptance_02_karcher_grid_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    worst_gap = 0.0
    for _ in range(20):
        c = random_subspace(3, 1, rng)
        atoms = [exp_map(c, random_tangent(c, rng, norm=rng.uniform(0.02, 0.2)))
                 for _ in range(3)]
        w = rng.uniform(0.2, 1.0, 3)
        mu = DiracMixture(tuple(atoms), w / w.sum())
        mean = karcher_mean(mu, center=c).mean
        oracle = _polar_grid_minimizer(mu, c, 0.25)
        worst_gap = max(worst_gap, geodesic_distance(mean, oracle))
    ok = worst_gap <= 1e-3

    worst_fd = 0.0
    for _ in range(100):
        n, k = [(3, 1), (4, 2)][int(rng.integers(0, 2))]
        p = random_subspace(n, k, rng)
        atoms = [exp_map(p, random_tangent(p, rng, norm=rng.uniform(0.05, 0.4)))
                 for _ in range(3)]
        w = rng.uniform(0.2, 1.0, 3)
        mu = DiracMixture(tuple(atoms), w / w.sum())
        grad = energy_gradient(p, mu)
        direction = random_tangent(p, rng, norm=1.0)
        h = 1e-5
        fd = (energy(exp_map(p, scaled(direction, h)), mu)
              - energy(exp_map(p, scaled(direction, -h)), mu)) / (2 * h)
        analytic = float(np.sum(grad.delta * direction.delta))
        worst_fd = max(worst_fd, abs(fd - analytic) / max(abs(fd), 1e-12))
    ok &= worst_fd < 1e-5
    report(2, ok, time.monotonic() - t0, 60,
           f"grid-oracle gap {worst_gap:.2e} <= 1e-3; finite-difference "
           f"relative error {worst_fd:.2e} < 1e-5")


def test_acceptance_03_stability():
    t0 = time.monotonic()
    c_val = stability_constant(2.0, math.pi / 6)
    ok = 15.99 < c_val < 16.00
    rng = np.random.default_rng(11)
    violations = 0
    for _ in range(200):
        center = random_subspace(4, 2, rng)
        n_atoms = int(rng.integers(1, 4))
        mixtures = []
        for _ in range(2):
            atoms = [exp_map(center,
                             random_tangent(center, rng,
                                            norm=rng.uniform(0.0, 0.3)))
                     for _ in range(n_atoms)]
            w = rng.uniform(0.1, 1.0, n_atoms)
            mixtures.append(DiracMixture(tuple(atoms), w / w.sum()))
        rep = verify_stability(mixtures[0], mixtures[1], 2.0, 0.35,
                               center=center)
        violations += 0 if rep.holds else 1
    ok &= violations == 0
    report(3, ok, time.monotonic() - t0, 120,
           f"C(2, pi/6) = {c_val:.6f} in (15.99, 16.00); "
           f"{violations} violations in 200 stability pairs")


def test_acceptance_04_r_lambda_threshold():
    t0 = time.monotonic()
    passing = check_r_lambda(circle4096(), 0.2, 0.25)
    failing = check_r_lambda(circle4096(), 0.25, 0.25)
    ok = passing.passed and abs(passing.worst_lambda - 0.204124) <= 1e-3
    ok &= (not failing.passed) and abs(failing.worst_lambda - 0.258199) <= 1e-3
    report(4, ok, time.monotonic() - t0, 10,
           f"pass at (0.2, 0.25) with worst {passing.worst_lambda:.6f}; "
           f"fail at (0.25, 0.25) with worst {failing.worst_lambda:.6f}")


def test_acceptance_05_net_bounds():
    t0 = time.monotonic()
    ok = True
    pinned = {}
    for level, expected_size, expected_mult in [(1, 117, 1), (2, 409, 2)]:
        net = build_net(circle4096(), 0.2, 0.25, level)
        rep = verify_net_bounds(net)
        ok &= rep.size_bound_holds and rep.multiplicity_bound_holds
        ok &= len(net) == expected_size
        ok &= rep.worst_multiplicity == expected_mult
        pinned[f"circle l{level}"] = (len(net), rep.worst_multiplicity)
    torus = shared("torus", lambda: make_shape("torus", {"R": 2.0, "r": 0.5},
                                               "64x64"))
    for level, expected_size, expected_mult in [(1, 4096, 1), (2, 4096, 1)]:
        net = build_net(torus, 0.1, 0.25, level)
        rep = verify_net_bounds(net)
        ok &= rep.size_bound_holds and rep.multiplicity_bound_holds
        ok &= len(net) == expected_size
        ok &= rep.worst_multiplicity == expected_mult
        pinned[f"torus l{level}"] = (len(net), rep.worst_multiplicity)
    report(5, ok, time.monotonic() - t0, 60,
           f"zero bound violations; pinned sizes/multiplicities {pinned}")


def test_acceptance_06_averaged_field():
    t0 = time.monotonic()
    field = circle_field()
    min_s = float(np.min(field.S_norm))
    ok = min_s >= 0.8
    ok &= field.overlap_span_max <= 1e-9
    angle = angle_bound_check(field, circle4096())
    ok &= angle.precondition_ok and angle.holds
    ok &= angle.worst_angle <= 0.907888 + 1e-6
    worst_lip = 0.0
    for j in range(len(circle_net())):
        worst_lip = max(worst_lip, field_lipschitz_check(field, j).empirical)
    ok &= worst_lip <= 2.7497e6
    ok &= abs(worst_lip - 1.000003) <= 1e-3  # pinned measured value
    report(6, ok, time.monotonic() - t0, 60,
           f"min |S| {min_s:.4f} >= 0.8; overlap {field.overlap_span_max:.2e}; "
           f"worst angle {angle.worst_angle:.4f} <= 0.907888; empirical "
           f"T-Lipschitz {worst_lip:.6f} (bound 2.7497e6)")


def test_acceptance_07_tube_suite():
    t0 = time.monotonic()
    cb = constants(1, 0.25, 0.2)
    d3 = delta(3, 0.2, 0.25)
    params = tube_params(d3, 0.25, cb.L_codim1, cb.gamma)
    ok = abs(params.epsilon - 2.238e-7) <= 1e-10 + 1e-3 * params.epsilon
    ok &= abs(params.sigma - 5.510e-8) <= 1e-10 + 1e-3 * params.sigma
    patch = circle_net().patch(0)
    t_field = chart_direction_field(circle_field(), 0)
    inj = injectivity_probe(patch, t_field, params.epsilon, 100_000, rho=d3)
    ok &= inj.injective
    inc = inclusion_probe(patch, t_field, params, 10_000)
    ok &= inc.all_reached and inc.reached == 10_000
    worst_ratio = math.inf
    for j in (0, 1365, 2730):
        sep = separation_check(circle_net().patch(j),
                               chart_direction_field(circle_field(), j),
                               cb.gamma, 20_000, rho=d3)
        ok &= sep.holds
        worst_ratio = min(worst_ratio, sep.min_ratio)
    ok &= worst_ratio >= math.cos(cb.gamma) - 1e-9
    report(7, ok, time.monotonic() - t0, 120,
           f"injectivity 1e5 trials at eps {params.epsilon:.3e}; inclusion "
           f"{inc.reached}/10000 within sigma {params.sigma:.3e}; separation "
           f"ratio {worst_ratio:.4f} >= cos gamma {math.cos(cb.gamma):.4f}")


def test_acceptance_08_correspondence():
    t0 = time.monotonic()
    target = shared("circle1001",
                    lambda: make_shape("circle", {"radius": 1.001}, 4096))
    ident = build_correspondence(circle4096(), circle4096(), circle_net(),
                                 circle_field(), net_target=circle_net())
    ok = ident.max_displacement() <= 1e-10
    corr = build_correspondence(circle4096(), target, circle_net(),
                                circle_field())
    disp = corr.max_displacement()
    ok &= abs(disp - 0.001) <= 0.1 * 0.001
    bij = verify_bijectivity(corr)
    ok &= bij.injective and bij.surjective
    worst_lip = 0.0
    for j in range(0, len(circle_net()), 16):
        rep = reparametrized_lipschitz(corr, j)
        worst_lip = max(worst_lip, rep.empirical)
    ok &= worst_lip <= 3.125 and worst_lip <= 1.2543e6
    report(8, ok, time.monotonic() - t0, 60,
           f"identity exact ({ident.max_displacement():.2e}); displacement "
           f"{disp:.6f} = 0.001 +- 10%; bijective; f-hat Lipschitz "
           f"{worst_lip:.4f} <= 3.125")


def test_acceptance_09_convergence_demo():
    t0 = time.monotonic()
    family = [make_shape("circle", {"radius": 1.0 + 2.0 ** -i}, 2048)
              for i in range(1, 9)]
    rep = convergence_harness(family, 0.2, 0.25)
    ok = rep.conclusive and len(rep.kept) >= 2
    # uniform distances follow the analytic 2^-i law within 20%
    d = np.asarray(rep.successive)
    scale = d[0] * 2.0  # c in d_i ~ c 2^-i, from the first kept step
    law = scale * 2.0 ** -(np.arange(1, len(d) + 1))
    ok &= bool(np.all(np.abs(d - law) <= 0.2 * law))
    ok &= all(a >= b - 1e-12 for a, b in zip(rep.to_limit, rep.to_limit[1:]))
    ok &= rep.limit_check.passed and rep.limit_check.injective
    report(9, ok, time.monotonic() - t0, 120,
           f"kept {len(rep.kept)}/8 members; decay within "
           f"{float(np.max(np.abs(d - law) / law)):.1%} of the 2^-i law; "
           f"limit passes the Lipschitz-graph check "
           f"(worst quotient {rep.limit_check.worst_quotient:.4f})")


def test_acceptance_10_higher_codimension():
    t0 = time.monotonic()
    tilted = shared("tilted2048",
                    lambda: make_shape("circle3d",
                                       {"radius": 1.0, "tilt": 0.2}, 2048))
    net = build_net(tilted, 0.2, 0.25, 5)
    nfield = NormalMeasureField(tilted, net)
    margins = [nfield.support_margin(q) for q in range(0, 2048, 16)]
    ok = max(margins) < math.pi / 12

    worst_oracle = 0.0
    for q in (100, 700, 1500):
        mu = nfield.measure(q)
        mean = nfield.mean(q)
        cvec = tilted.tangent_plane(q).frame[:, 0]
        qmat, _ = np.linalg.qr(np.column_stack([cvec, np.eye(3)]))
        atoms = np.column_stack([complement(a).frame[:, 0] for a in mu.atoms])
        best, best_val = None, np.inf
        for rho in np.arange(0.0, 0.06, 1e-3):
            if rho == 0.0:
                pts = cvec[None, :]
            else:
                n_phi = max(8, int(np.ceil(2 * math.pi * rho / 1e-3)))
                phi = np.linspace(0, 2 * math.pi, n_phi, endpoint=False)
                pts = (np.cos(rho) * cvec[None, :]
                       + np.sin(rho) * (np.cos(phi)[:, None] * qmat[:, 1][None, :]
                                        + np.sin(phi)[:, None] * qmat[:, 2][None, :]))
            dvals = np.arccos(np.clip(np.abs(pts @ atoms), 0.0, 1.0))
            vals = dvals ** 2 @ mu.weights
            i = int(np.argmin(vals))
            if vals[i] < best_val:
                best_val, best = float(vals[i]), pts[i]
        oracle = complement(orthonormalize(best[:, None]))
        worst_oracle = max(worst_oracle, geodesic_distance(mean, oracle))
    ok &= worst_oracle <= 1e-3

    worst_lip = 0.0
    for j in range(0, len(net), 16):
        worst_lip = max(worst_lip, n_lipschitz_check(nfield, j).empirical)
    ok &= worst_lip <= 4 ** 18 / 0.2

    family = [make_shape("circle3d", {"radius": 1.0 + 2.0 ** -i, "tilt": 0.2},
                         2048) for i in range(1, 9)]
    conv = convergence_harness(family, 0.2, 0.25)
    ok &= conv.conclusive and conv.limit_check.passed
    report(10, ok, time.monotonic() - t0, 180,
           f"support margin {max(margins):.4f} < pi/12 = {math.pi / 12:.4f}; "
           f"N grid-oracle gap {worst_oracle:.2e} <= 1e-3; N-Lipschitz "
           f"{worst_lip:.3f} <= 3.44e11; R^3 family demo end-to-end "
           f"({len(conv.kept)}/8 kept)")
