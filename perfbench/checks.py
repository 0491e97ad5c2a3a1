"""Correctness checks on the workloads' outputs.

Each check recomputes what it compares against from the inputs (positions,
the shape's analytic facts, the paper's formulas) and returns a list of
problems; an empty list means the output is correct.  None of them compares
against a saved copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

# Central-difference slopes on 129-node patch grids agree with the analytic
# slope to well under this; the acceptance criteria use the same tolerance.
SLOPE_TOL = 1e-3


def delta(level: int, r: float, lam: float) -> float:
    """delta_l = r / (3 (1 + lambda))^l."""
    return r / (3.0 * (1.0 + lam)) ** level


def tube_constants(m: int, lam: float, r: float) -> dict:
    """L, gamma, epsilon and sigma from the paper's formulas."""
    big_l = (3.0 * (1.0 + lam)) ** (6 * m + 4) / r
    gamma = math.pi / 4 + 0.5 * math.atan(lam)
    return {"L": big_l, "gamma": gamma,
            "epsilon": math.cos(gamma) / big_l,
            "sigma": math.cos(gamma) ** 2 / (2.0 * big_l * (1.0 + lam))}


def polygon_length(positions: np.ndarray) -> float:
    """Length of the closed polyline through the samples in id order."""
    return float(np.sum(np.linalg.norm(
        np.roll(positions, -1, axis=0) - positions, axis=1)))


def mesh_area(positions: np.ndarray, faces: np.ndarray) -> float:
    a = positions[faces[:, 1]] - positions[faces[:, 0]]
    b = positions[faces[:, 2]] - positions[faces[:, 0]]
    return float(0.5 * np.sum(np.linalg.norm(np.cross(a, b), axis=1)))


def slope_check(passed, worst, expected, lam, expect_pass) -> list:
    """A check's verdict and worst slope against the analytic worst slope."""
    problems = []
    if abs(worst - expected) > SLOPE_TOL:
        problems.append(f"worst slope {worst:.6f}, analytic {expected:.6f}")
    if bool(passed) != expect_pass:
        problems.append(f"verdict {'pass' if passed else 'fail'} at lambda "
                        f"{lam}, expected {'pass' if expect_pass else 'fail'}")
    if bool(passed) != (worst <= lam):
        problems.append(f"verdict disagrees with worst slope {worst:.6f}")
    return problems


def circle_worst_slope(r: float) -> float:
    """Steepest slope of the unit circle's graph over its tangent on B_r."""
    return r / math.sqrt(1.0 - r * r)


def curvature_slope_bound(kappa: float, rho: float) -> float:
    """Largest slope over a tangent plane on B_rho when |curvature| <= kappa.

    The normal turns by at most kappa per unit arc length, and arc length s
    reaches projected distance at least sin(kappa s) / kappa.
    """
    return kappa * rho / math.sqrt(1.0 - (kappa * rho) ** 2)


def slope_bound_check(lambdas, passed, lam, bound) -> list:
    problems = []
    worst = float(np.nanmax(lambdas))
    if np.any(np.isnan(lambdas)):
        problems.append("some samples have no slope")
    if not passed or worst > lam:
        problems.append(f"check fails with worst slope {worst:.6f} > {lam}")
    if worst > bound + SLOPE_TOL:
        problems.append(f"worst slope {worst:.6f} above the curvature bound "
                        f"{bound:.6f}")
    return problems


def net_check(points, delta2_members, positions, volume, m, level, r, lam,
              report) -> list:
    """Size and multiplicity bounds and coverage, recomputed.

    ``delta2_members`` lists, per net point, the samples of its
    delta_2-patch.  Coverage is measured from positions: a sample in the
    delta_l-patch of a net point lies within delta_l sqrt(1 + lambda^2) of
    it, because the patch is a lambda-Lipschitz graph.
    """
    problems = []
    points = np.asarray(points, dtype=int)
    size_bound = delta(level + 1, r, lam) ** (-m) * volume
    if len(points) > size_bound:
        problems.append(f"net size {len(points)} > bound {size_bound:.1f}")
    counts = np.bincount(np.concatenate(delta2_members),
                         minlength=len(positions))
    mult_bound = (3.0 * (1.0 + lam)) ** ((level + 1) * m)
    if counts.max() > mult_bound:
        problems.append(f"multiplicity {counts.max()} > bound {mult_bound:.1f}")
    if report.size != len(points) or report.worst_multiplicity != counts.max():
        problems.append("bounds report disagrees with the net")
    if not (report.size_bound_holds and report.multiplicity_bound_holds):
        problems.append("bounds report says a bound fails")
    reach = delta(level, r, lam) * math.sqrt(1.0 + lam * lam)
    dist, _ = cKDTree(positions[points]).query(positions)
    if dist.max() > reach * (1 + 1e-9):
        far = int(np.argmax(dist))
        problems.append(f"sample {far} is {dist.max():.3e} from the net, "
                        f"beyond {reach:.3e}")
    return problems


def field_check(s_norm, t_vecs, positions, center, lam, r) -> list:
    """|S| >= 1/(1+lambda), and T radial up to sign on a unit circle.

    S at p is a positive combination of the unit normals at net points
    within delta_2 of p, each within asin(delta_2) of the radial direction.
    """
    problems = []
    lower = 1.0 / (1.0 + lam)
    if np.min(s_norm) < lower - 1e-12:
        problems.append(f"min |S| {np.min(s_norm):.6f} < {lower:.6f}")
    radial = positions - center
    radial /= np.linalg.norm(radial, axis=1, keepdims=True)
    off = np.abs(t_vecs[:, 0] * radial[:, 1] - t_vecs[:, 1] * radial[:, 0])
    limit = delta(2, r, lam)
    if np.max(off) > limit:
        problems.append(f"T leaves the radial line by sin {np.max(off):.3e} "
                        f"> {limit:.3e}")
    return problems


def angle_check(report, lam) -> list:
    gamma = tube_constants(1, lam, 1.0)["gamma"]
    if not (report.precondition_ok and report.holds):
        return ["angle bound check fails"]
    if report.worst_angle > gamma + 1e-12:
        return [f"worst angle {report.worst_angle:.6f} > gamma {gamma:.6f}"]
    return []


def lipschitz_check(empirical, bound) -> list:
    worst = max(empirical)
    if worst > bound:
        return [f"empirical Lipschitz constant {worst:.6g} > {bound:.6g}"]
    return []


def tube_params_check(params, m, lam, r, rho) -> list:
    want = tube_constants(m, lam, r)
    problems = []
    for name in ("epsilon", "sigma"):
        got = getattr(params, name)
        if abs(got - want[name]) > 1e-12 * want[name]:
            problems.append(f"{name} {got:.6e}, formula gives "
                            f"{want[name]:.6e}")
    if abs(params.rho - rho) > 1e-15:
        problems.append(f"rho {params.rho} != {rho}")
    return problems


def displacement_check(offsets, expected, tol) -> list:
    worst = float(np.max(offsets))
    best = float(np.min(offsets))
    if worst > expected + tol or best < expected - tol:
        return [f"displacements in [{best:.3e}, {worst:.3e}], expected "
                f"{expected:.3e} +- {tol:.1e}"]
    return []


def concentric_target_check(phi_points, phi_params, positions, center,
                            radius, lam, r) -> list:
    """Targets on the circle of ``radius`` about ``center``, each near its
    source's radius, in the source's cyclic order.

    The fiber through f(p) runs along T(p), within asin(delta_2) of the
    radius, so its crossing with the concentric circle leaves the radius by
    at most (radius - 1) tan(asin(delta_2)).
    """
    problems = []
    rel = phi_points - center
    norms = np.linalg.norm(rel, axis=1)
    if np.max(np.abs(norms - radius)) > 1e-9:
        problems.append(f"target norms off {radius} by "
                        f"{np.max(np.abs(norms - radius)):.3e}")
    src = positions - center
    src_norm = np.linalg.norm(src, axis=1)
    cross = np.abs(src[:, 0] * rel[:, 1] - src[:, 1] * rel[:, 0]) \
        / (src_norm * norms)
    dot = np.einsum("ij,ij->i", src, rel)
    d2 = delta(2, r, lam)
    limit = (radius - 1.0) * math.tan(math.asin(d2)) / radius + 1e-12
    if np.any(dot <= 0) or np.max(cross) > limit:
        problems.append(f"a target leaves its source radius by sin "
                        f"{np.max(cross):.3e} > {limit:.3e}")
    steps = np.diff(np.unwrap(np.append(phi_params, phi_params[0])))
    if np.any(steps <= 0) or abs(np.sum(steps) - 2 * math.pi) > 1e-9:
        problems.append("target parameters are not cyclically monotone")
    return problems


def bijectivity_check(report) -> list:
    if not (report.injective and report.surjective):
        return [f"bijectivity fails: injective={report.injective}, "
                f"surjective={report.surjective}"]
    return []


def probe_check(ok: bool, what: str) -> list:
    return [] if ok else [f"{what} fails"]


def harness_check(report, radii) -> list:
    """A concentric family converges with uniform distances |r_i - r_(i+1)|."""
    problems = []
    if not report.conclusive or report.kept != list(range(len(radii))):
        problems.append(f"kept {report.kept} of {len(radii)} members")
        return problems
    want = np.abs(np.diff(radii))
    got = np.asarray(report.successive)
    if got.shape != want.shape or np.max(np.abs(got - want)) > 1e-9:
        problems.append(f"successive distances {got.tolist()}, expected "
                        f"{want.tolist()}")
    to_limit = report.to_limit
    if any(a < b - 1e-12 for a, b in zip(to_limit, to_limit[1:])):
        problems.append("distances to the limit increase")
    if not (report.limit_check.passed and report.limit_check.injective):
        problems.append("the limit fails its Lipschitz-graph check")
    return problems


def normal_space_check(frames, tangents, tol=1e-9) -> list:
    """Every averaged normal space is orthogonal to the curve's tangent."""
    worst = max(float(np.max(np.abs(frame.T @ t)))
                for frame, t in zip(frames, tangents))
    if worst > tol:
        return [f"averaged normal space meets the tangent at {worst:.3e}"]
    return []


def central_tangents(positions: np.ndarray, ids) -> np.ndarray:
    """Unit tangents of a closed sampled curve from central differences."""
    ids = np.asarray(ids)
    n = len(positions)
    chord = positions[(ids + 1) % n] - positions[(ids - 1) % n]
    return chord / np.linalg.norm(chord, axis=1, keepdims=True)


def support_check(margins, bound=math.pi / 12) -> list:
    worst = max(margins)
    return [] if worst < bound else [f"support margin {worst:.4f} >= {bound:.4f}"]
