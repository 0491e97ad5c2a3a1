"""Command-line front end: shape catalog, verifications, and pipeline demos.

Exit codes: 0 all verifications pass; 1 a verified conclusion is violated;
2 malformed input (no report file is written); 3 a precondition of the
underlying result is unmet, kept distinct from conclusion failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import correspond as correspond_mod
from . import nets as nets_mod
from . import normals as normals_mod
from . import tubular as tubular_mod
from ._svg import svg_figure
from .errors import (
    ClosenessError,
    CoherenceViolationError,
    InadmissibleSupportError,
    InputError,
    InvariantViolationError,
    LipimmError,
    NonConvergenceError,
    NotAGraphError,
    RegimeError,
    WellDefinednessError,
)
from .grassmann import Subspace
from .immersion import PLANE_RULES, check_r_lambda, delta
from .karcher import DiracMixture, karcher_mean
from .shapes import load_manifest, make_shape, write_samples_csv

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3

_PRECONDITION_ERRORS = (ClosenessError, InadmissibleSupportError, RegimeError,
                        NonConvergenceError)
_CONCLUSION_ERRORS = (InvariantViolationError, WellDefinednessError,
                      CoherenceViolationError, NotAGraphError)


def _dump_json(path, payload):
    if path:
        Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1)
                              + "\n")


def _dump_csv(path, rows, header=None):
    if not path:
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(header)
        writer.writerows(rows)


def _parse_params(items):
    out = {}
    for item in items or []:
        if "=" not in item:
            raise InputError(f"--param expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


_SHAPE_FLAGS = ["radius", "tilt", "a", "b", "width", "height",
                "corner_radius", "R", "r", "p", "q", "tube"]


def cmd_shapes(args) -> int:
    params = {}
    for flag in _SHAPE_FLAGS:
        value = getattr(args, f"shape_{flag}")
        if value is not None:
            params[flag] = value
    if args.center:
        params["center"] = [float(x) for x in args.center.split(",")]
    params.update(_parse_params(args.param))
    shape = make_shape(args.name, params, args.samples)
    manifest = {"shape": args.name.replace("_", "-"), "params": params,
                "samples": args.samples, "m": shape.m, "n": shape.n}
    _dump_json(args.out, manifest)
    if args.csv:
        write_samples_csv(args.csv, shape)
    if args.svg:
        Path(args.svg).write_text(svg_figure(paths=[
            np.vstack([shape.positions, shape.positions[:1]])]))
    print(f"shape {args.name}: {len(shape)} samples, volume {shape.volume:.6f}")
    return EXIT_PASS


def cmd_check(args) -> int:
    f = load_manifest(args.manifest)
    report = check_r_lambda(f, args.r, args.lam, args.plane_rule)
    _dump_json(args.out, report.to_dict())
    status = "pass" if report.passed else "FAIL"
    print(f"(r, lambda) check {status}: worst slope {report.worst_lambda:.6f} "
          f"at sample {report.worst_sample} (bound {args.lam})")
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_net(args) -> int:
    f = load_manifest(args.manifest)
    net = nets_mod.build_net(f, args.r, args.lam, args.level, args.plane_rule)
    bounds = nets_mod.verify_net_bounds(net)
    payload = {"net": json.loads(net.to_json(z_iotas=args.z_iota or ())),
               "bounds": bounds.to_dict()}
    _dump_json(args.out, payload)
    if args.csv:
        _dump_csv(args.csv, [[int(p)] for p in net.points], ["sample_id"])
    if args.svg and f.n == 2:
        Path(args.svg).write_text(svg_figure(
            paths=[np.vstack([f.positions, f.positions[:1]])],
            points=[f.positions[net.points]]))
    print(f"net level {args.level}: {len(net)} points; size bound "
          f"{bounds.size_bound:.1f} ({'ok' if bounds.size_bound_holds else 'VIOLATED'}); "
          f"multiplicity {bounds.worst_multiplicity} <= "
          f"{bounds.multiplicity_bound:.1f} "
          f"({'ok' if bounds.multiplicity_bound_holds else 'VIOLATED'})")
    ok = bounds.size_bound_holds and bounds.multiplicity_bound_holds
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_normals(args) -> int:
    f = load_manifest(args.manifest)
    cb = normals_mod.constants(f.m, args.lam, args.r)
    net = nets_mod.build_net(f, args.r, args.lam, args.level, args.plane_rule)
    payload = {"constants": cb.to_dict()}
    rows = []
    if f.n == f.m + 1:
        field = normals_mod.direction_field(f, net)
        worst_lip = 0.0
        for j in range(len(net)):
            worst_lip = max(worst_lip,
                            normals_mod.field_lipschitz_check(field, j).empirical)
        angle = normals_mod.angle_bound_check(field, f)
        payload["direction_field"] = {
            "min_S_norm": float(np.min(field.S_norm)),
            "S_lower_bound": 1.0 / (1.0 + args.lam),
            "overlap_span_max": field.overlap_span_max,
            "T_lipschitz_empirical": worst_lip,
            "T_lipschitz_bound": cb.L_codim1,
            "angle_check": angle.to_dict(),
        }
        for p in range(len(f)):
            s_vec = field.T[p] * field.S_norm[p]
            rows.append([p, *map(repr, s_vec.tolist()),
                         *map(repr, field.T[p].tolist()),
                         repr(float(field.S_norm[p]))])
        header = ["sample", *[f"S{i}" for i in range(f.n)],
                  *[f"T{i}" for i in range(f.n)], "S_norm"]
        ok = (float(np.min(field.S_norm)) >= payload["direction_field"]["S_lower_bound"]
              and field.overlap_span_max <= normals_mod.SPAN_TOL
              and worst_lip <= cb.L_codim1 and angle.holds)
    else:
        nfield = normals_mod.NormalMeasureField(f, net)
        step = max(1, len(f) // args.max_samples if args.max_samples else 1)
        sample_ids = range(0, len(f), step)
        margins = [nfield.support_margin(q) for q in sample_ids]
        worst_lip = 0.0
        for j in range(0, len(net), step):
            worst_lip = max(worst_lip,
                            normals_mod.n_lipschitz_check(nfield, j).empirical)
        payload["normal_field"] = {
            "support_margin_max": max(margins),
            "support_bound": math.pi / 12,
            "N_lipschitz_empirical": worst_lip,
            "N_lipschitz_bound": cb.L_highercodim,
        }
        for q in sample_ids:
            frame = nfield.mean(q).frame
            rows.append([q, *map(repr, frame.flatten().tolist())])
        header = ["sample", *[f"N{i}" for i in range(len(rows[0]) - 1)]]
        ok = max(margins) < math.pi / 12 and worst_lip <= cb.L_highercodim
    _dump_json(args.out, payload)
    _dump_csv(args.csv, rows, header)
    print(json.dumps(payload.get("direction_field") or payload.get("normal_field"),
                     sort_keys=True))
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_karcher(args) -> int:
    spec = json.loads(Path(args.atoms).read_text())
    try:
        frames = [Subspace(np.asarray(fr, dtype=float))
                  for fr in spec["frames"]]
        weights = np.asarray(spec["weights"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise InputError(f"atoms file needs 'frames' and 'weights': {exc}")
    center = Subspace(np.asarray(spec["center"], dtype=float)) \
        if "center" in spec else None
    mu = DiracMixture(tuple(frames), weights)
    report = karcher_mean(mu, args.tol, center=center)
    payload = {"mean_frame": report.mean.frame.tolist(),
               "iterations": report.iterations,
               "final_gradient_norm": report.final_gradient_norm,
               "admissible_ball_radius": report.admissible_ball_radius}
    _dump_json(args.out, payload)
    print(f"karcher mean: gradient norm {report.final_gradient_norm:.3e} "
          f"after {report.iterations} iterations")
    return EXIT_PASS


def cmd_tube(args) -> int:
    f = load_manifest(args.manifest)
    if f.n != f.m + 1 or f.m != 1:
        raise InputError("tube demos run on codimension-one curves")
    cb = normals_mod.constants(f.m, args.lam, args.r)
    net = nets_mod.build_net(f, args.r, args.lam, args.level, args.plane_rule)
    field = normals_mod.direction_field(f, net)
    d3 = delta(3, args.r, args.lam)
    params = tubular_mod.tube_params(d3, args.lam, cb.L_codim1, cb.gamma)
    patch = net.patches([args.chart])[0]
    t_field = tubular_mod.chart_direction_field(field, args.chart)
    inj = tubular_mod.injectivity_probe(patch, t_field, params.epsilon,
                                        args.probes, rho=d3, seed=args.seed)
    inc = tubular_mod.inclusion_probe(patch, t_field, params,
                                      max(1, args.probes // 10),
                                      seed=args.seed)
    sep = tubular_mod.separation_check(patch, t_field, cb.gamma,
                                       args.probes, rho=d3, seed=args.seed)
    payload = {"params": params.to_dict(), "injectivity": inj.to_dict(),
               "inclusion": inc.to_dict(), "separation": sep.to_dict()}
    _dump_json(args.out, payload)
    if args.svg:
        chart_pts = patch.ambient(patch.x_nodes[::4][:, None])
        fibers = []
        scale = 0.05 * params.rho / params.epsilon
        for x in patch.x_nodes[::16]:
            base = patch.ambient(np.array([[x]]))[0]
            direction = t_field.at(np.array([x]))[0]
            fibers.append(base - scale * params.epsilon * direction)
            fibers.append(base + scale * params.epsilon * direction)
        Path(args.svg).write_text(svg_figure(paths=[chart_pts],
                                             segments=[np.array(fibers)]))
    print(f"tube: epsilon {params.epsilon:.3e}, sigma {params.sigma:.3e} "
          f"({params.active_branch} branch); injective={inj.injective} "
          f"inclusion={inc.all_reached} separation={sep.holds}")
    ok = inj.injective and inc.all_reached and sep.holds
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_correspond(args) -> int:
    f1 = load_manifest(args.manifest)
    f2 = load_manifest(args.target)
    net = nets_mod.build_net(f1, args.r, args.lam, args.level, args.plane_rule)
    if f1.n == f1.m + 1:
        proj_field = normals_mod.direction_field(f1, net)
    else:
        proj_field = normals_mod.NormalMeasureField(f1, net)
    corr = correspond_mod.build_correspondence(f1, f2, net, proj_field,
                                               strict=args.strict)
    bij = correspond_mod.verify_bijectivity(corr)
    worst_lip = 0.0
    for j in range(0, len(net), max(1, len(net) // 64)):
        worst_lip = max(worst_lip,
                        correspond_mod.reparametrized_lipschitz(corr, j).empirical)
    payload = {"closeness": corr.closeness.to_dict(),
               "max_displacement": corr.max_displacement(),
               "line_residual_max": corr.line_residual_max,
               "chart_consistency_max": corr.chart_consistency_max,
               "bijectivity": bij.to_dict(),
               "reparametrized_lipschitz_empirical": worst_lip}
    _dump_json(args.out, payload)
    if args.csv:
        rows = [[p, *map(repr, corr.phi_points[p].tolist())]
                for p in range(len(f1))]
        _dump_csv(args.csv, rows, ["sample", *[f"phi{i}" for i in range(f1.n)]])
    if args.svg and f1.n == 2:
        seg = np.empty((2 * len(f1), 2))
        seg[0::2] = f1.positions
        seg[1::2] = corr.phi_points
        Path(args.svg).write_text(svg_figure(
            paths=[np.vstack([f1.positions, f1.positions[:1]]),
                   np.vstack([f2.positions, f2.positions[:1]])],
            segments=[seg[:256]]))
    print(f"correspondence: max displacement {corr.max_displacement():.6f}, "
          f"injective={bij.injective} surjective={bij.surjective}")
    ok = bij.injective and bij.surjective \
        and corr.line_residual_max <= correspond_mod.FIBER_RESIDUAL_TOL \
        and corr.chart_consistency_max <= 1e-9
    return EXIT_PASS if ok else EXIT_FAIL


def _load_family(path):
    spec = json.loads(Path(path).read_text())
    members = []
    if "members" in spec:
        base = Path(path).parent
        for entry in spec["members"]:
            members.append(load_manifest(base / entry))
    elif "radii" in spec:
        shape = spec.get("shape", "circle")
        params = dict(spec.get("params", {}))
        for radius in spec["radii"]:
            params_i = dict(params, radius=radius)
            members.append(make_shape(shape, params_i,
                                      spec.get("samples", 2048)))
    elif "params_list" in spec:
        for params_i in spec["params_list"]:
            members.append(make_shape(spec["shape"], params_i,
                                      spec.get("samples", 2048)))
    else:
        raise InputError("family file needs 'members', 'radii', or "
                         "'params_list'")
    return members


def cmd_converge(args) -> int:
    family = _load_family(args.family)
    report = correspond_mod.convergence_harness(family, args.r, args.lam,
                                                level=args.level)
    if not report.conclusive:
        payload = {"conclusive": False,
                   "kept": report.kept,
                   "dropped": [[i, reason] for i, reason in report.dropped]}
        _dump_json(args.out, payload)
        print("convergence: inconclusive (no admissible subsequence of "
              "length >= 2)")
        return EXIT_PRECONDITION
    payload = {"conclusive": True, "kept": report.kept,
               "dropped": [[i, reason] for i, reason in report.dropped],
               "decay": report.decay_table(),
               "limit_check": report.limit_check.to_dict(),
               "origin_distances": report.origin_distances}
    _dump_json(args.out, payload)
    if args.csv:
        rows = [[row["member"], repr(row["to_limit"]),
                 repr(row["successive"]) if row["successive"] is not None else ""]
                for row in report.decay_table()]
        _dump_csv(args.csv, rows, ["member", "to_limit", "successive"])
    if args.svg and family[0].n == 2:
        paths = [np.vstack([f.positions, f.positions[:1]]) for f in family[:4]]
        paths.append(np.vstack([report.limit.positions,
                                report.limit.positions[:1]]))
        Path(args.svg).write_text(svg_figure(paths=paths))
    print(f"convergence: kept {len(report.kept)}/{len(family)} members; "
          f"limit check {'pass' if report.limit_check.passed else 'FAIL'} "
          f"(worst quotient {report.limit_check.worst_quotient:.6f})")
    return EXIT_PASS if report.limit_check.passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lipimm",
        description="Quantitative checks for immersions with local Lipschitz "
                    "graph representations")
    sub = parser.add_subparsers(dest="command", required=True)

    # shared flags; each command registers only the ones its handler reads
    flags = {
        "--out": dict(help="JSON report path"),
        "--csv": dict(help="CSV output path"),
        "--svg": dict(help="SVG figure path"),
        "--r": dict(type=float, required=True),
        "--lambda": dict(dest="lam", type=float, required=True),
        "--plane-rule": dict(default="tangent", choices=PLANE_RULES),
        "--level": dict(type=int, default=5, choices=range(1, 7), metavar="1..6"),
    }

    def common(p, *names):
        for name in ("--out",) + names:
            p.add_argument(name, **flags[name])

    p = sub.add_parser("shapes", help="generate a catalog shape")
    p.add_argument("name")
    p.add_argument("--param", action="append",
                   help="shape parameter key=value (repeatable)")
    p.add_argument("--samples", default=4096,
                   help="sample count (N or NxM for surfaces)")
    for flag in _SHAPE_FLAGS:
        kind = int if flag in ("p", "q") else float
        p.add_argument(f"--{flag.replace('_', '-')}", dest=f"shape_{flag}",
                       type=kind, default=None)
    p.add_argument("--center", help="center as 'x,y' (circle)")
    common(p, "--csv", "--svg")
    p.set_defaults(handler=cmd_shapes)

    p = sub.add_parser("check", help="verify the local-graph condition")
    p.add_argument("--manifest", required=True)
    common(p, "--r", "--lambda", "--plane-rule")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("net", help="build a delta-net and certify its bounds")
    p.add_argument("--manifest", required=True)
    p.add_argument("--z-iota", type=int, action="append",
                   help="serialize Z-sets at this scale index (repeatable)")
    common(p, "--csv", "--svg", "--r", "--lambda", "--plane-rule", "--level")
    p.set_defaults(handler=cmd_net)

    p = sub.add_parser("normals", help="averaged normal field and its bounds")
    p.add_argument("--manifest", required=True)
    p.add_argument("--max-samples", type=int, default=512,
                   help="subsample cap for higher-codimension sweeps")
    common(p, "--csv", "--r", "--lambda", "--plane-rule", "--level")
    p.set_defaults(handler=cmd_normals)

    p = sub.add_parser("karcher", help="Riemannian center of mass of atoms")
    p.add_argument("--atoms", required=True,
                   help="JSON with 'frames' and 'weights'")
    p.add_argument("--tol", type=float, default=1e-10)
    common(p)
    p.set_defaults(handler=cmd_karcher)

    p = sub.add_parser("tube", help="tube sizes and probe certificates")
    p.add_argument("--manifest", required=True)
    p.add_argument("--chart", type=int, default=0)
    p.add_argument("--probes", type=int, default=20000)
    p.add_argument("--seed", type=int, default=42)
    common(p, "--svg", "--r", "--lambda", "--plane-rule", "--level")
    p.set_defaults(handler=cmd_tube)

    p = sub.add_parser("correspond", help="project one immersion onto another")
    p.add_argument("--manifest", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--strict", action="store_true",
                   help="refuse when the conservative closeness gauges fail")
    common(p, "--csv", "--svg", "--r", "--lambda", "--plane-rule", "--level")
    p.set_defaults(handler=cmd_correspond)

    p = sub.add_parser("converge", help="family convergence demo")
    p.add_argument("--family", required=True)
    common(p, "--csv", "--svg", "--r", "--lambda", "--level")
    p.set_defaults(handler=cmd_converge)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (InputError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _PRECONDITION_ERRORS as exc:
        print(f"precondition unmet: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except _CONCLUSION_ERRORS as exc:
        print(f"conclusion violated: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except LipimmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
