"""The benchmark's workloads: inputs made from a seed, the library calls a
CLI user's commands make, and a correctness check on every output.

Sizes are below the acceptance sizes so that one run holds whole rounds;
each workload is still dominated by the layer it was chosen for (README).
"""

from __future__ import annotations

import math
import time

import numpy as np

import checks

R, LAM = 0.2, 0.25


class OperationFailed(Exception):
    """An operation raised; the rest of the round depends on its output."""


class Round:
    """Times the program's calls of one round and records their verdicts.

    Only the calls are timed; the benchmark's own checks run between them.
    """

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong = []       # (operation, problems) of outputs that fail checks
        self.errors = []      # (operation, exception) of operations that raised

    def call(self, label, fn, check):
        """Run one operation, then check its output with ``check``."""
        self.attempted += 1
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            out = fn()
        except Exception as exc:  # any raise is a failed operation
            self.failed += 1
            self.errors.append((label, repr(exc)))
            raise OperationFailed(label) from exc
        finally:
            self.wall += time.perf_counter() - wall
            self.cpu += time.process_time() - cpu
        problems = check(out)
        if problems:
            self.failed += 1
            self.wrong.append((label, problems))
        return out


def _every_16th(count, rng):
    return range(int(rng.integers(16)), count, 16)


class CircleChain:
    """check -> nets -> field -> tubes -> correspondences on a unit circle."""

    name = "circle-chain"
    samples = 1024

    def build(self, lp, seed):
        rng = np.random.default_rng(seed)
        center = rng.uniform(-2.0, 2.0, 2)
        return {
            "rng": rng,
            "center": center,
            "source": lp.make_shape("circle", {"center": tuple(center)},
                                    self.samples),
            "target": lp.make_shape("circle", {"radius": 1.001,
                                               "center": tuple(center)},
                                    self.samples),
        }

    def run(self, lp, inputs, rnd):
        f, g = inputs["source"], inputs["target"]
        c, rng = inputs["center"], inputs["rng"]
        for r, passes in ((R, True), (0.25, False)):
            rnd.call(f"check r={r}", lambda: lp.check_r_lambda(f, r, LAM),
                     lambda rep: checks.slope_check(
                         rep.passed, rep.worst_lambda,
                         checks.circle_worst_slope(r), LAM, passes))
        length = checks.polygon_length(f.positions)
        for level in (1, 2, 5):
            net = _checked_net(lp, rnd, f, R, level, length)

        field = rnd.call("direction field", lambda: lp.direction_field(f, net),
                         lambda fd: checks.field_check(fd.S_norm, fd.T,
                                                       f.positions, c, LAM, R))
        rnd.call("angle bound", lambda: lp.angle_bound_check(field, f),
                 lambda rep: checks.angle_check(rep, LAM))
        t_bound = checks.tube_constants(1, LAM, R)["L"]
        rnd.call("T-Lipschitz on every chart",
                 lambda: [lp.field_lipschitz_check(field, j)
                          for j in range(len(net))],
                 lambda reps: checks.lipschitz_check(
                     [rep.empirical for rep in reps], t_bound))

        self._tubes(lp, net, field, rng, rnd)

        rnd.call("identity correspondence",
                 lambda: lp.build_correspondence(f, f, net, field,
                                                 net_target=net),
                 lambda corr: checks.displacement_check(
                     corr.fiber_offsets, 0.0, 1e-10))
        corr = rnd.call(
            "correspondence onto radius 1.001",
            lambda: lp.build_correspondence(f, g, net, field),
            lambda corr: checks.displacement_check(corr.fiber_offsets, 0.001,
                                                   1e-9)
            + checks.concentric_target_check(corr.phi_points, corr.phi_params,
                                             f.positions, c, 1.001, LAM, R))
        rnd.call("bijectivity", lambda: lp.verify_bijectivity(corr),
                 checks.bijectivity_check)
        sharp = 2.0 * (1.0 + LAM) ** 2
        rnd.call("reparametrized Lipschitz, every 16th chart",
                 lambda: [lp.reparametrized_lipschitz(corr, j)
                          for j in _every_16th(len(net), rng)],
                 lambda reps: checks.lipschitz_check(
                     [rep.empirical for rep in reps], sharp))

    def _tubes(self, lp, net, field, rng, rnd):
        """The tube probes of acceptance 07 on seed-chosen charts."""
        cb = lp.constants(1, LAM, R)
        d3 = lp.delta(3, R, LAM)
        params = rnd.call("tube parameters",
                          lambda: lp.tube_params(d3, LAM, cb.L_codim1,
                                                 cb.gamma),
                          lambda p: checks.tube_params_check(p, 1, LAM, R, d3))
        first = int(rng.integers(len(net)))
        probe_seed = int(rng.integers(1000))
        patch = net.patch(first)
        t_field = lp.tubular.chart_direction_field(field, first)
        rnd.call("injectivity probe",
                 lambda: lp.injectivity_probe(patch, t_field, params.epsilon,
                                              100_000, rho=d3, seed=probe_seed),
                 lambda rep: checks.probe_check(rep.injective, "injectivity"))
        rnd.call("inclusion probe",
                 lambda: lp.inclusion_probe(patch, t_field, params, 10_000,
                                            seed=probe_seed),
                 lambda rep: checks.probe_check(
                     rep.all_reached and rep.reached == 10_000, "inclusion"))
        charts = [(first + k * len(net) // 3) % len(net) for k in range(3)]
        cos_gamma = math.cos(cb.gamma)
        rnd.call("separation on three charts",
                 lambda: [lp.separation_check(
                     net.patch(j), lp.tubular.chart_direction_field(field, j),
                     cb.gamma, 20_000, rho=d3, seed=probe_seed)
                     for j in charts],
                 lambda reps: checks.probe_check(
                     all(rep.holds and rep.min_ratio >= cos_gamma - 1e-9
                         for rep in reps), "separation"))


def _checked_net(lp, rnd, f, r, level, volume):
    """One net with its bounds, as ``lipimm net`` builds and certifies it."""

    def build():
        net = lp.build_net(f, r, LAM, level)
        return net, lp.verify_net_bounds(net)

    net, _ = rnd.call(
        f"net level {level}", build,
        lambda out: checks.net_check(
            out[0].points, [out[0].members(j, 2) for j in range(len(out[0]))],
            f.positions, volume, f.m, level, r, LAM, out[1]))
    return net


class TorusNets:
    """The m = 2 surface path: a torus check and its level-1 and -2 nets.

    The catalog torus has no placement parameter, so its inputs are the
    same for every seed.
    """

    name = "torus-nets"
    grid = "16x32"
    big_r, tube_r, r = 2.0, 0.5, 0.1

    def build(self, lp, seed):
        return {"torus": lp.make_shape("torus", {"R": self.big_r,
                                                 "r": self.tube_r}, self.grid)}

    def run(self, lp, inputs, rnd):
        f = inputs["torus"]
        kappa = 1.0 / self.tube_r  # largest principal curvature
        bound = checks.curvature_slope_bound(kappa, self.r)
        rnd.call(f"check r={self.r}", lambda: lp.check_r_lambda(f, self.r, LAM),
                 lambda rep: checks.slope_bound_check(rep.lambdas, rep.passed,
                                                      LAM, bound))
        area = checks.mesh_area(f.positions, f.faces)
        for level in (1, 2):
            _checked_net(lp, rnd, f, self.r, level, area)


class Codim2Family:
    """The convergence harness on tilted circles in R^3, then the averaged
    normal spaces of its first member on every 16th sample and chart."""

    name = "codim2-family"
    samples = 512
    members = 3
    tilt = 0.2

    def radii(self):
        return [1.0 + 2.0 ** -i for i in range(1, self.members + 1)]

    def build(self, lp, seed):
        family = [lp.make_shape("circle3d", {"radius": radius,
                                             "tilt": self.tilt}, self.samples)
                  for radius in self.radii()]
        return {"family": family, "rng": np.random.default_rng(seed)}

    def run(self, lp, inputs, rnd):
        family, rng = inputs["family"], inputs["rng"]
        radii = self.radii()
        rnd.call("convergence harness",
                 lambda: lp.convergence_harness(family, R, LAM),
                 lambda rep: checks.harness_check(rep, radii))
        f = family[0]
        net = _checked_net(lp, rnd, f, R, 5, checks.polygon_length(f.positions))
        probed = np.asarray(_every_16th(len(f), rng))
        nfield, _ = rnd.call(
            "support margins, every 16th sample",
            lambda: _field_with_margins(lp, f, net, probed),
            lambda out: checks.support_check(out[1]))
        rnd.call("averaged normal spaces, every 16th sample",
                 lambda: [nfield.mean(int(q)).frame for q in probed],
                 lambda frames: checks.normal_space_check(
                     frames, checks.central_tangents(f.positions, probed)))
        n_bound = 4.0 ** (12 * f.m + 6) / R
        rnd.call("N-Lipschitz, every 16th chart",
                 lambda: [lp.n_lipschitz_check(nfield, j)
                          for j in _every_16th(len(net), rng)],
                 lambda reps: checks.lipschitz_check(
                     [rep.empirical for rep in reps], n_bound))


def _field_with_margins(lp, f, net, sample_ids):
    nfield = lp.NormalMeasureField(f, net)
    return nfield, [nfield.support_margin(int(q)) for q in sample_ids]


WORKLOADS = {w.name: w for w in (CircleChain(), TorusNets(), Codim2Family())}
