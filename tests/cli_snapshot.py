"""Write every output of a fixed set of lipimm CLI invocations to a folder.

    python tests/cli_snapshot.py OUTDIR [--src SRC]

Runs 28 invocations of ``python -m lipimm.cli`` with ``SRC`` (the ``src``
folder of this tree by default) first on ``PYTHONPATH``, one after another
inside OUTDIR.  Each invocation's JSON, CSV and SVG files land in OUTDIR,
next to its ``<name>.stdout``, ``<name>.stderr`` and ``<name>.exit``.  Two
trees give the same outputs when ``diff -r`` of their two folders is empty:

    python tests/cli_snapshot.py /tmp/a --src <other tree>/src
    python tests/cli_snapshot.py /tmp/b
    diff -r /tmp/a /tmp/b

Pytest does not collect this file (its name has no ``test_`` prefix).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

RL = ["--r", "0.2", "--lambda", "0.25"]
CIRCLE = ["--manifest", "circle.json"]
CIRCLE3D = ["--manifest", "circle3d.json"]

# (name, argv); every output file is named after its invocation
INVOCATIONS = [
    ("shapes_circle", ["shapes", "circle", "--samples", "4096",
                       "--out", "circle.json", "--csv", "circle.csv",
                       "--svg", "circle.svg"]),
    ("shapes_circle_1001", ["shapes", "circle", "--radius", "1.001",
                            "--samples", "4096", "--out", "circle_1001.json"]),
    ("shapes_ellipse", ["shapes", "ellipse", "--samples", "4096",
                        "--out", "ellipse.json"]),
    ("shapes_torus", ["shapes", "torus", "--samples", "16x32",
                      "--out", "torus.json", "--svg", "torus.svg"]),
    ("shapes_sphere", ["shapes", "sphere", "--samples", "24x12",
                       "--out", "sphere.json"]),
    ("shapes_circle3d", ["shapes", "circle3d", "--samples", "2048",
                         "--out", "circle3d.json"]),
    ("shapes_circle3d_1001", ["shapes", "circle3d", "--radius", "1.001",
                              "--samples", "2048",
                              "--out", "circle3d_1001.json"]),
    ("check_circle_pass", ["check", *CIRCLE, *RL,
                           "--out", "check_circle_pass.json"]),
    ("check_circle_fail", ["check", *CIRCLE, "--r", "0.25", "--lambda", "0.25",
                           "--out", "check_circle_fail.json"]),
    ("check_ellipse_best_fit", ["check", "--manifest", "ellipse.json",
                                "--r", "0.1", "--lambda", "0.5",
                                "--plane-rule", "best-fit",
                                "--out", "check_ellipse_best_fit.json"]),
    ("check_torus", ["check", "--manifest", "torus.json", "--r", "0.1",
                     "--lambda", "0.25", "--out", "check_torus.json"]),
    ("check_sphere", ["check", "--manifest", "sphere.json", "--r", "0.2",
                      "--lambda", "0.5", "--out", "check_sphere.json"]),
    ("check_circle3d", ["check", *CIRCLE3D, *RL, "--out", "check_circle3d.json"]),
    ("net_circle_1", ["net", *CIRCLE, *RL, "--level", "1", "--z-iota", "1",
                      "--out", "net_circle_1.json", "--csv", "net_circle_1.csv",
                      "--svg", "net_circle_1.svg"]),
    ("net_circle_5", ["net", *CIRCLE, *RL, "--level", "5",
                      "--out", "net_circle_5.json"]),
    ("net_torus_2", ["net", "--manifest", "torus.json", "--r", "0.1",
                     "--lambda", "0.25", "--level", "2",
                     "--out", "net_torus_2.json"]),
    ("net_ellipse_best_fit_2", ["net", "--manifest", "ellipse.json",
                                "--r", "0.1", "--lambda", "0.5",
                                "--plane-rule", "best-fit", "--level", "2",
                                "--out", "net_ellipse_best_fit_2.json"]),
    ("normals_circle", ["normals", *CIRCLE, *RL, "--out", "normals_circle.json",
                        "--csv", "normals_circle.csv"]),
    ("normals_circle3d", ["normals", *CIRCLE3D, *RL,
                          "--out", "normals_circle3d.json",
                          "--csv", "normals_circle3d.csv"]),
    ("normals_sphere_4", ["normals", "--manifest", "sphere.json", "--r", "0.2",
                          "--lambda", "0.5", "--level", "4",
                          "--out", "normals_sphere_4.json"]),
    ("karcher", ["karcher", "--atoms", "atoms.json", "--tol", "1e-12",
                 "--out", "karcher.json"]),
    ("tube_circle_0", ["tube", *CIRCLE, *RL, "--chart", "0",
                       "--out", "tube_circle_0.json",
                       "--svg", "tube_circle_0.svg"]),
    ("tube_circle_7", ["tube", *CIRCLE, *RL, "--chart", "7",
                       "--out", "tube_circle_7.json"]),
    ("correspond_circle", ["correspond", *CIRCLE, "--target", "circle_1001.json",
                           *RL, "--out", "correspond_circle.json",
                           "--csv", "correspond_circle.csv",
                           "--svg", "correspond_circle.svg"]),
    ("correspond_circle3d", ["correspond", *CIRCLE3D,
                             "--target", "circle3d_1001.json", *RL,
                             "--out", "correspond_circle3d.json"]),
    ("converge_circle", ["converge", "--family", "family_circle.json", *RL,
                         "--out", "converge_circle.json",
                         "--csv", "converge_circle.csv",
                         "--svg", "converge_circle.svg"]),
    ("converge_circle3d", ["converge", "--family", "family_circle3d.json", *RL,
                           "--out", "converge_circle3d.json"]),
    ("net_level_0", ["net", *CIRCLE, *RL, "--level", "0",
                     "--out", "net_level_0.json"]),
]

# the input files that no invocation writes
INPUTS = {
    "atoms.json": {"frames": [[[1.0], [0.0], [0.0]],
                              [[0.9553364891256060], [0.2955202066613396],
                               [0.0]]],
                   "weights": [0.5, 0.5]},
    "family_circle.json": {"shape": "circle", "samples": 1024,
                           "radii": [1.5, 1.25, 1.125, 1.0625]},
    "family_circle3d.json": {"shape": "circle3d", "samples": 1024,
                             "params_list": [{"radius": 1.0 + 2.0 ** -i,
                                              "tilt": 0.2}
                                             for i in range(1, 5)]},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src")
    args = parser.parse_args(argv)
    out = args.outdir
    out.mkdir(parents=True, exist_ok=True)
    for name, payload in INPUTS.items():
        (out / name).write_text(json.dumps(payload))
    path = [str(args.src.resolve()), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    failed = 0
    for name, cli_args in INVOCATIONS:
        done = subprocess.run([sys.executable, "-m", "lipimm.cli", *cli_args],
                              cwd=out, env=env, capture_output=True)
        (out / f"{name}.stdout").write_bytes(done.stdout)
        (out / f"{name}.stderr").write_bytes(done.stderr)
        (out / f"{name}.exit").write_text(f"{done.returncode}\n")
        failed += b"Traceback" in done.stderr
        print(f"{name}: exit {done.returncode}", flush=True)
    print(f"{len(INVOCATIONS)} invocations, {failed} with a traceback")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
