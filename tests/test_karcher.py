import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complement, random_subspace, random_tangent, scaled

from lipimm.errors import InadmissibleSupportError
from lipimm.grassmann import (
    Subspace,
    exp_map,
    geodesic_distance,
    log_map,
    orthonormalize,
)
from lipimm.karcher import (
    DiracMixture,
    admissible_radius,
    energy,
    energy_gradient,
    karcher_mean,
    karcher_means,
    stability_constant,
    verify_stability,
)
import lipimm.karcher as karcher_mod


def line(v):
    return orthonormalize(np.asarray(v, dtype=float)[:, None])


def mixture(atoms, weights):
    return DiracMixture(tuple(atoms), np.asarray(weights, dtype=float))


# ---------------------------------------------------------------------------
# energy / gradient


def test_energy_single_atom():
    n = line([1.0, 0.0, 0.0])
    mu = mixture([n], [1.0])
    assert energy(n, mu) == 0.0
    p = exp_map(n, random_tangent(n, np.random.default_rng(0), norm=np.pi / 4))
    assert energy(p, mu) == pytest.approx(np.pi ** 2 / 16, abs=1e-10)


def test_energy_two_equal_atoms():
    rng = np.random.default_rng(1)
    p = random_subspace(4, 2, rng)
    x1 = exp_map(p, random_tangent(p, rng, norm=0.3))
    x2 = exp_map(p, random_tangent(p, rng, norm=0.45))
    mu = mixture([x1, x2], [0.5, 0.5])
    a, b = geodesic_distance(p, x1), geodesic_distance(p, x2)
    assert energy(p, mu) == pytest.approx((a * a + b * b) / 2, abs=1e-12)


def test_gradient_zero_at_single_atom():
    n = line([0.0, 1.0, 0.0])
    g = energy_gradient(n, mixture([n], [1.0]))
    assert g.norm() == pytest.approx(0.0, abs=1e-12)


def test_gradient_zero_at_symmetric_midpoint():
    rng = np.random.default_rng(2)
    base = random_subspace(4, 2, rng)
    v = random_tangent(base, rng, norm=0.25)
    x1 = exp_map(base, v)
    x2 = exp_map(base, scaled(v, -1.0))
    g = energy_gradient(base, mixture([x1, x2], [0.5, 0.5]))
    assert g.norm() < 1e-10


def finite_difference_directional(p, mu, direction, h=1e-5):
    e_plus = energy(exp_map(p, scaled(direction, h)), mu)
    e_minus = energy(exp_map(p, scaled(direction, -h)), mu)
    return (e_plus - e_minus) / (2 * h)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        n, k = rng.choice([(3, 1), (4, 2)])
        p = random_subspace(n, k, rng)
        atoms = [exp_map(p, random_tangent(p, rng, norm=rng.uniform(0.05, 0.4)))
                 for _ in range(3)]
        w = rng.uniform(0.2, 1.0, size=3)
        mu = mixture(atoms, w / w.sum())
        grad = energy_gradient(p, mu)
        direction = random_tangent(p, rng, norm=1.0)
        fd = finite_difference_directional(p, mu, direction)
        analytic = float(np.sum(grad.delta * direction.delta))
        worst = max(worst, abs(fd - analytic) / max(1.0, abs(fd)))
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# karcher_mean


def test_mean_of_single_atom():
    n = line([1.0, 2.0, 2.0])
    report = karcher_mean(mixture([n], [1.0]))
    assert report.mean.same_subspace(n)
    assert report.iterations <= 1
    assert report.final_gradient_norm <= 1e-10


def test_mean_two_atoms_is_geodesic_midpoint():
    rng = np.random.default_rng(4)
    a = random_subspace(3, 1, rng)
    v = random_tangent(a, rng, norm=0.6)
    b = exp_map(a, v)
    midpoint = exp_map(a, scaled(v, 0.5))
    # distance 0.6 exceeds the admissible radius seen from either atom, so the
    # caller supplies the midpoint as ball center
    report = karcher_mean(mixture([a, b], [0.5, 0.5]), center=midpoint)
    assert geodesic_distance(report.mean, midpoint) < 1e-9
    assert report.final_gradient_norm <= 1e-10


def test_mean_atom_order_invariance():
    rng = np.random.default_rng(5)
    c = random_subspace(4, 2, rng)
    atoms = [exp_map(c, random_tangent(c, rng, norm=rng.uniform(0.05, 0.3)))
             for _ in range(4)]
    w = np.array([0.4, 0.3, 0.2, 0.1])
    m1 = karcher_mean(mixture(atoms, w), center=c).mean
    perm = [2, 0, 3, 1]
    m2 = karcher_mean(mixture([atoms[i] for i in perm], w[perm]), center=c).mean
    assert geodesic_distance(m1, m2) < 1e-9


def test_mean_energy_monotone_and_inside_ball():
    rng = np.random.default_rng(6)
    c = random_subspace(4, 2, rng)
    atoms = [exp_map(c, random_tangent(c, rng, norm=rng.uniform(0.1, 0.45)))
             for _ in range(5)]
    w = rng.uniform(0.1, 1.0, 5)
    report = karcher_mean(mixture(atoms, w / w.sum()), center=c)
    trace = np.array(report.energy_trace)
    assert np.all(np.diff(trace) <= 1e-15)
    assert geodesic_distance(report.mean, c) <= report.admissible_ball_radius + 1e-9


def test_mean_equivariance_under_rotation():
    rng = np.random.default_rng(7)
    c = random_subspace(4, 2, rng)
    atoms = [exp_map(c, random_tangent(c, rng, norm=0.3)) for _ in range(3)]
    w = np.array([0.5, 0.3, 0.2])
    m = karcher_mean(mixture(atoms, w), center=c).mean
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    rotated = [Subspace(q @ a.frame) for a in atoms]
    m_rot = karcher_mean(mixture(rotated, w), center=Subspace(q @ c.frame)).mean
    assert geodesic_distance(m_rot, Subspace(q @ m.frame)) < 1e-8


# Mixtures of 1-4 atoms within 0.3 of a random center, in G(3,1), G(3,2),
# G(4,2) and G(5,1).  The means run to a gradient norm of 1e-13, so that one
# iteration more or fewer cannot show at the 1e-12 the properties assert.
MIXTURES = st.tuples(st.sampled_from([(3, 1), (3, 2), (4, 2), (5, 1)]),
                     st.integers(1, 4), st.floats(0.0, 0.3),
                     st.integers(0, 2 ** 32 - 1))


def drawn_mixture(dims, atoms, spread, seed):
    rng = np.random.default_rng(seed)
    c = random_subspace(*dims, rng)
    frames = [exp_map(c, random_tangent(c, rng, norm=rng.uniform(0, spread)))
              for _ in range(atoms)]
    w = rng.uniform(0.1, 1.0, atoms)
    return mixture(frames, w / w.sum()), c, rng


def projector_gap(a, b):
    return float(np.max(np.abs(a - b)))


@settings(max_examples=60, deadline=None)
@given(MIXTURES)
def test_mean_is_orthogonally_equivariant(draw):
    mu, c, rng = drawn_mixture(*draw)
    q, _ = np.linalg.qr(rng.standard_normal((c.n, c.n)))  # det +1 or -1
    mean = karcher_mean(mu, 1e-13, center=c).mean
    moved = mixture([Subspace(q @ a.frame) for a in mu.atoms], mu.weights)
    mean_moved = karcher_mean(moved, 1e-13, center=Subspace(q @ c.frame)).mean
    assert projector_gap(mean_moved.projector(),
                         q @ mean.projector() @ q.T) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(MIXTURES)
def test_mean_commutes_with_the_complement(draw):
    # the mean of the complements is the complement of the mean
    mu, c, _ = drawn_mixture(*draw)
    mean = karcher_mean(mu, 1e-13, center=c).mean
    complements = mixture([complement(a) for a in mu.atoms], mu.weights)
    mean_c = karcher_mean(complements, 1e-13, center=complement(c)).mean
    assert projector_gap(mean_c.projector(),
                         np.eye(c.n) - mean.projector()) <= 1e-12


# Ragged stacks of 1-6 mixtures of 1-8 atoms in G(3,1), G(3,2) or G(4,2).
# Each row's center lies up to 0.2 from where its atoms were drawn, so rows
# iterate, and atoms spread up to 0.6 put some supports beyond the
# admissible radius 0.555 of their center.
STACKS = st.tuples(
    st.sampled_from([(3, 1), (3, 2), (4, 2)]),
    st.lists(st.tuples(st.integers(1, 8), st.floats(0.0, 0.6),
                       st.integers(0, 2 ** 32 - 1)), min_size=1, max_size=6),
    st.booleans())


def drawn_rows(dims, rows):
    """(mixture, center) per row, and the rows padded into one stack with
    weight-0 copies of each row's first atom."""
    drawn = []
    for atoms, spread, seed in rows:
        mu, c, rng = drawn_mixture(dims, atoms, spread, seed)
        drawn.append((mu, exp_map(c, random_tangent(
            c, rng, norm=rng.uniform(0.0, 0.2)))))
    width = max(len(mu.atoms) for mu, _ in drawn)
    frames = np.stack([np.concatenate(
        [mu.frames] + [mu.frames[:1]] * (width - len(mu.atoms)))
        for mu, _ in drawn])
    weights = np.stack([np.pad(mu.weights, (0, width - len(mu.atoms)))
                        for mu, _ in drawn])
    centers = np.stack([center.frame for _, center in drawn])
    return drawn, frames, weights, centers


def overshooting(exp, taken):
    """``exp_map_all`` that goes 2.5 times as far along every tangent longer
    than 1e-3, so that full steps raise the energy and are halved; each row
    it moves is added to ``taken``."""
    def wrapped(base, deltas):
        taken.append(len(deltas))
        long = np.linalg.norm(deltas, axis=(1, 2)) > 1e-3
        return exp(base, np.where(long[:, None, None], 2.5 * deltas, deltas))
    return wrapped


def single_outcomes(drawn):
    """Per row, its one-row ``karcher_mean`` report or the error it raises."""
    out = []
    for mu, center in drawn:
        try:
            out.append(karcher_mean(mu, 1e-12, center=center))
        except InadmissibleSupportError as exc:
            out.append(exc)
    return out


@settings(max_examples=60, deadline=None)
@given(STACKS)
def test_stacked_means_match_the_one_row_means(draw):
    dims, rows, overshoot = draw
    drawn, frames, weights, centers = drawn_rows(dims, rows)
    with pytest.MonkeyPatch.context() as mp:
        if overshoot:
            mp.setattr(karcher_mod, "exp_map_all",
                       overshooting(karcher_mod.exp_map_all, []))
        singles = single_outcomes(drawn)
        failed = [out for out in singles if isinstance(out, Exception)]
        if failed:  # the first failing row in order is the one reported
            with pytest.raises(InadmissibleSupportError) as info:
                karcher_means(frames, weights, centers, 1e-12)
            assert str(info.value) == str(failed[0])
            return
        stack = karcher_means(frames, weights, centers, 1e-12)
    for s, report in enumerate(singles):
        assert np.max(np.abs(stack.means[s] - report.mean.frame)) <= 1e-14
        assert stack.iterations[s] == report.iterations
        assert stack.gradient_norms[s] == report.final_gradient_norm
        assert stack.radii[s] == report.admissible_ball_radius
        assert stack.energy_traces[s] == report.energy_trace


def test_stacked_means_halve_steps_per_row(monkeypatch):
    # with overshooting steps every iterating row halves a step, each on
    # its own, and ends where its one-row call ends
    rows = [(1, 0.0, 1), (4, 0.3, 2), (8, 0.4, 3), (2, 0.2, 4)]
    drawn, frames, weights, centers = drawn_rows((4, 2), rows)
    taken = []
    monkeypatch.setattr(karcher_mod, "exp_map_all",
                        overshooting(karcher_mod.exp_map_all, taken))
    stack = karcher_means(frames, weights, centers, 1e-12)
    assert sum(taken) > int(np.sum(stack.iterations)) > 0
    for s, report in enumerate(single_outcomes(drawn)):
        assert np.max(np.abs(stack.means[s] - report.mean.frame)) <= 1e-14
        assert stack.iterations[s] == report.iterations


def test_stacked_means_report_the_first_failing_row():
    # rows 1, 2 and 4 leave the admissible ball, each at its own radius
    rows = [(3, 0.2, 5), (8, 0.6, 6), (8, 0.6, 11), (2, 0.1, 7), (8, 0.6, 1)]
    drawn, frames, weights, centers = drawn_rows((3, 2), rows)
    singles = single_outcomes(drawn)
    assert [isinstance(out, Exception) for out in singles] == \
        [False, True, True, False, True]
    for first in (1, 2, 4):
        keep = [0, 3] + list(range(first, 5))
        with pytest.raises(InadmissibleSupportError) as info:
            karcher_means(frames[keep], weights[keep], centers[keep], 1e-12)
        assert str(info.value) == str(singles[first])


def test_mean_inadmissible_support():
    a = line([1.0, 0.0, 0.0])
    b = exp_map(a, random_tangent(a, np.random.default_rng(8), norm=0.7))
    with pytest.raises(InadmissibleSupportError):
        karcher_mean(mixture([a, b], [0.5, 0.5]))  # 0.7 > pi/(4 sqrt 2) from a


def grid_search_oracle(mu, center, radius, step=1e-3):
    """Brute-force minimizer of the energy over a geodesic polar grid on G_{3,1}."""
    c = center.frame[:, 0]
    # orthonormal tangent frame at the center line
    q, _ = np.linalg.qr(np.column_stack([c, np.eye(3)]))
    e1, e2 = q[:, 1], q[:, 2]
    best_val, best_vec = np.inf, c
    atoms = np.column_stack([a.frame[:, 0] for a in mu.atoms])  # (3, A)
    w = mu.weights
    radii = np.arange(0.0, radius + step, step)
    for rho in radii:
        if rho == 0.0:
            pts = c[None, :]
        else:
            n_phi = max(8, int(np.ceil(2 * np.pi * rho / step)))
            phi = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
            pts = (np.cos(rho) * c[None, :]
                   + np.sin(rho) * (np.cos(phi)[:, None] * e1[None, :]
                                    + np.sin(phi)[:, None] * e2[None, :]))
        d = np.arccos(np.clip(np.abs(pts @ atoms), 0.0, 1.0))
        vals = d ** 2 @ w
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val, best_vec = float(vals[i]), pts[i]
    return line(best_vec)


def test_mean_matches_grid_oracle_g31():
    rng = np.random.default_rng(9)
    for _ in range(20):
        c = random_subspace(3, 1, rng)
        atoms = [exp_map(c, random_tangent(c, rng, norm=rng.uniform(0.02, 0.2)))
                 for _ in range(3)]
        w = rng.uniform(0.2, 1.0, 3)
        mu = mixture(atoms, w / w.sum())
        report = karcher_mean(mu, center=c)
        oracle = grid_search_oracle(mu, c, radius=0.25)
        assert geodesic_distance(report.mean, oracle) <= 1e-3


# ---------------------------------------------------------------------------
# stability constant and inequality


def test_stability_constant_reference_value():
    c = stability_constant(2.0, math.pi / 6)
    assert 15.99 < c < 16.00


def test_stability_constant_small_rho_limit():
    # 1 + tan(2x)/x -> 3 as x -> 0
    assert stability_constant(2.0, 1e-8) == pytest.approx(3.0, abs=1e-6)


def test_stability_constant_direct_formula():
    x = math.sqrt(2.0) * 0.2
    expected = 1.0 + math.tan(2 * x) / x
    assert stability_constant(2.0, 0.2) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(3.2447, abs=2e-3)


def test_stability_constant_rho_out_of_range():
    with pytest.raises(InadmissibleSupportError):
        stability_constant(2.0, admissible_radius(2.0) + 1e-6)


def test_verify_stability_identical_measures():
    rng = np.random.default_rng(10)
    c = random_subspace(4, 2, rng)
    atoms = [exp_map(c, random_tangent(c, rng, norm=0.2)) for _ in range(3)]
    mu = mixture(atoms, [0.5, 0.3, 0.2])
    report = verify_stability(mu, mu, 2.0, 0.3, center=c)
    assert report.lhs == pytest.approx(0.0, abs=1e-9)
    assert report.rhs == pytest.approx(0.0, abs=1e-12)
    assert report.holds


def test_verify_stability_single_atom_perturbation():
    rng = np.random.default_rng(11)
    n = random_subspace(4, 2, rng)
    m = exp_map(n, random_tangent(n, rng, norm=0.3))
    mu2 = mixture([n], [1.0])
    mu1 = mixture([n, m], [0.9, 0.1])
    report = verify_stability(mu1, mu2, 2.0, 0.35, center=n)
    assert report.rhs == pytest.approx(report.constant * 0.1 * 0.3, rel=1e-9)
    assert report.holds


def test_verify_stability_random_sweep_g42():
    rng = np.random.default_rng(12)
    rho = 0.35
    for _ in range(200):
        c = random_subspace(4, 2, rng)
        n_atoms = int(rng.integers(1, 4))
        atoms1 = [exp_map(c, random_tangent(c, rng, norm=rng.uniform(0.0, 0.3)))
                  for _ in range(n_atoms)]
        atoms2 = [exp_map(c, random_tangent(c, rng, norm=rng.uniform(0.0, 0.3)))
                  for _ in range(n_atoms)]
        w1 = rng.uniform(0.1, 1.0, n_atoms)
        w2 = rng.uniform(0.1, 1.0, n_atoms)
        report = verify_stability(mixture(atoms1, w1 / w1.sum()),
                                  mixture(atoms2, w2 / w2.sum()),
                                  2.0, rho, center=c)
        assert report.holds
