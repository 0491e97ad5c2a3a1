import json
import math

import numpy as np
import pytest

from lipimm.cli import main


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def circle_manifest(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "circle.json"
    assert run(["shapes", "circle", "--param", "radius=1.0",
                "--samples", "2048", "--out", str(path)]) == 0
    return path


def test_shapes_writes_manifest_and_csv(tmp_path):
    out = tmp_path / "torus.json"
    csv_path = tmp_path / "torus.csv"
    code = run(["shapes", "torus", "--param", "R=2.0", "--param", "r=0.5",
                "--samples", "16x16", "--out", str(out), "--csv", str(csv_path)])
    assert code == 0
    manifest = json.loads(out.read_text())
    assert manifest["shape"] == "torus"
    assert len(csv_path.read_text().strip().splitlines()) == 256


def test_shapes_unknown_name_is_input_error(tmp_path):
    assert run(["shapes", "klein-bottle", "--out",
                str(tmp_path / "x.json")]) == 2


def test_shapes_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        run(["shapes", "circle", "--param", "radius=1.0", "--samples", "512",
             "--out", str(path), "--csv", str(path.with_suffix(".csv"))])
    assert a.read_bytes() == b.read_bytes()
    assert a.with_suffix(".csv").read_bytes() == b.with_suffix(".csv").read_bytes()


def test_check_pass_and_fail_exit_codes(circle_manifest, tmp_path):
    out = tmp_path / "report.json"
    assert run(["check", "--manifest", str(circle_manifest),
                "--r", "0.2", "--lambda", "0.25", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert abs(report["worst_lambda"] - 0.204124) < 1e-3
    assert run(["check", "--manifest", str(circle_manifest),
                "--r", "0.25", "--lambda", "0.25"]) == 1


def test_check_report_byte_determinism(circle_manifest, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert run(["check", "--manifest", str(circle_manifest), "--r", "0.2",
                    "--lambda", "0.25", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_check_missing_file_no_report(tmp_path):
    out = tmp_path / "never.json"
    assert run(["check", "--manifest", str(tmp_path / "nope.json"),
                "--r", "0.2", "--lambda", "0.25", "--out", str(out)]) == 2
    assert not out.exists()


def test_net_command(circle_manifest, tmp_path):
    out = tmp_path / "net.json"
    code = run(["net", "--manifest", str(circle_manifest), "--r", "0.2",
                "--lambda", "0.25", "--level", "1", "--out", str(out),
                "--z-iota", "1"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["bounds"]["size_bound_holds"]
    assert payload["net"]["points"][0] == 0
    assert "1,0" in payload["net"]["z_sets"]


def test_karcher_command(tmp_path):
    e1 = [[1.0], [0.0], [0.0]]
    tilted = [[math.cos(0.3)], [math.sin(0.3)], [0.0]]
    atoms = {"frames": [e1, tilted], "weights": [0.5, 0.5]}
    path = tmp_path / "atoms.json"
    path.write_text(json.dumps(atoms))
    out = tmp_path / "mean.json"
    assert run(["karcher", "--atoms", str(path), "--tol", "1e-12",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["final_gradient_norm"] <= 1e-12
    mean = np.asarray(payload["mean_frame"])[:, 0]
    expected = np.array([math.cos(0.15), math.sin(0.15), 0.0])
    assert min(np.linalg.norm(mean - expected),
               np.linalg.norm(mean + expected)) < 1e-9


def test_karcher_inadmissible_support_precondition(tmp_path):
    a = [[1.0], [0.0]]
    b = [[0.0], [1.0]]  # distance pi/2, beyond the admissible radius
    path = tmp_path / "atoms.json"
    path.write_text(json.dumps({"frames": [a, b], "weights": [0.5, 0.5]}))
    assert run(["karcher", "--atoms", str(path)]) == 3


def test_tube_command(circle_manifest, tmp_path):
    out = tmp_path / "tube.json"
    svg = tmp_path / "tube.svg"
    code = run(["tube", "--manifest", str(circle_manifest), "--chart", "0",
                "--r", "0.2", "--lambda", "0.25", "--probes", "2000",
                "--seed", "7", "--out", str(out), "--svg", str(svg)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["params"]["active_branch"] == "curvature"
    assert payload["injectivity"]["injective"]
    assert payload["inclusion"]["all_reached"]
    assert svg.read_text().startswith("<svg")


@pytest.mark.parametrize("command, flag, value", [
    ("check", "--r", "nan"), ("net", "--r", "nan"), ("tube", "--r", "nan"),
    ("check", "--r", "inf"), ("check", "--lambda", "inf"),
    ("check", "--lambda", "nan"), ("net", "--lambda", "inf"),
])
def test_non_finite_radius_or_slope_is_input_error(circle_manifest, tmp_path,
                                                   command, flag, value):
    # neither a traceback nor a verdict: no check can pass or fail at a
    # non-finite r or lambda
    out = tmp_path / "report.json"
    args = {"--r": "0.2", "--lambda": "0.25", flag: value}
    argv = [command, "--manifest", str(circle_manifest), "--out", str(out)]
    argv += [a for item in args.items() for a in item]
    if command == "net":
        argv += ["--level", "1"]
    if command == "tube":
        argv += ["--chart", "0"]
    assert run(argv) == 2
    assert not out.exists()


@pytest.mark.parametrize("probes", ["0", "-5"])
def test_tube_without_probes_is_input_error(circle_manifest, tmp_path, probes):
    # a probe of no pair would pass injectivity, inclusion and separation
    out = tmp_path / "tube.json"
    assert run(["tube", "--manifest", str(circle_manifest), "--chart", "0",
                "--r", "0.2", "--lambda", "0.25", "--probes", probes,
                "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("chart", ["-1", "99999"])
def test_tube_rejects_a_chart_outside_the_net(tmp_path, chart):
    manifest = tmp_path / "circle.json"
    assert run(["shapes", "circle", "--samples", "512",
                "--out", str(manifest)]) == 0
    out = tmp_path / "tube.json"
    code = run(["tube", "--manifest", str(manifest), "--chart", chart,
                "--r", "0.2", "--lambda", "0.25", "--out", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("flag", [
    ("check", "--threads", "2"), ("check", "--seed", "1"),
    ("check", "--csv", "x.csv"), ("check", "--svg", "x.svg"),
    ("check", "--level", "3"), ("normals", "--svg", "x.svg"),
    ("karcher", "--csv", "x.csv"), ("karcher", "--svg", "x.svg"),
    ("tube", "--csv", "x.csv"), ("converge", "--plane-rule", "best-fit"),
])
def test_check_rejects_flags_it_does_not_read(circle_manifest, tmp_path, flag):
    # every required argument is given, so exit 2 comes from the flag
    command, *extra = flag
    atoms = tmp_path / "atoms.json"
    atoms.write_text(json.dumps({"frames": [[[1.0], [0.0]]], "weights": [1.0]}))
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"radii": [1.0, 1.001], "samples": 512}))
    rl = ["--r", "0.2", "--lambda", "0.25"]
    required = {"check": ["--manifest", str(circle_manifest), *rl],
                "normals": ["--manifest", str(circle_manifest), *rl],
                "karcher": ["--atoms", str(atoms)],
                "tube": ["--manifest", str(circle_manifest), *rl],
                "converge": ["--family", str(family), *rl]}
    with pytest.raises(SystemExit) as info:
        run([command, *required[command], *extra])
    assert info.value.code == 2


def test_correspond_command_and_strict(circle_manifest, tmp_path):
    target = tmp_path / "target.json"
    run(["shapes", "circle", "--param", "radius=1.001", "--samples", "2048",
         "--out", str(target)])
    out = tmp_path / "corr.json"
    code = run(["correspond", "--manifest", str(circle_manifest),
                "--target", str(target), "--r", "0.2", "--lambda", "0.25",
                "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert abs(payload["max_displacement"] - 0.001) < 1e-4
    assert payload["bijectivity"]["injective"]
    # the strict closeness gauge fails for this pair: exit 3, distinct
    # from a conclusion failure
    assert run(["correspond", "--manifest", str(circle_manifest),
                "--target", str(target), "--r", "0.2", "--lambda", "0.25",
                "--strict"]) == 3


def test_converge_command(tmp_path):
    family = {"shape": "circle",
              "radii": [1.5, 1.25, 1.125, 1.0625],
              "samples": 1024}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    out = tmp_path / "converge.json"
    csv_path = tmp_path / "decay.csv"
    code = run(["converge", "--family", str(path), "--r", "0.2",
                "--lambda", "0.25", "--out", str(out), "--csv", str(csv_path)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["conclusive"]
    assert payload["limit_check"]["passed"]
    assert len(payload["decay"]) == 4
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "member,to_limit,successive"
    assert len(lines) == 5


def test_converge_inconclusive_family(tmp_path):
    # two far-away members whose fibers miss the reference charts: the
    # subsequence degenerates and the demo reports "precondition unmet"
    family = {"shape": "circle",
              "params_list": [{"radius": 1.0},
                              {"radius": 1.0, "center": [0.0, 5.0]},
                              {"radius": 1.0, "center": [5.0, 0.0]}],
              "samples": 512}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    out = tmp_path / "report.json"
    code = run(["converge", "--family", str(path), "--r", "0.2",
                "--lambda", "0.25", "--out", str(out)])
    assert code == 3
    payload = json.loads(out.read_text())
    assert payload["conclusive"] is False
    assert len(payload["dropped"]) == 2


def test_normals_command(circle_manifest, tmp_path):
    out = tmp_path / "normals.json"
    code = run(["normals", "--manifest", str(circle_manifest), "--r", "0.2",
                "--lambda", "0.25", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    field = payload["direction_field"]
    assert field["min_S_norm"] >= field["S_lower_bound"]
    assert field["overlap_span_max"] <= 1e-9
    assert field["angle_check"]["holds"]


def test_raw_torus_manifest_check_ends_in_a_typed_error(tmp_path, capsys):
    # the 32x64 torus as raw points and faces, over best-fit planes: a
    # sample of it folds, which the check reports without a traceback
    from lipimm.shapes import make_shape

    torus = make_shape("torus", {"R": 2.0, "r": 0.5}, "32x64")
    manifest = tmp_path / "torus.json"
    manifest.write_text(json.dumps({"m": 2, "n": 3,
                                    "points": torus.positions.tolist(),
                                    "faces": torus.faces.tolist()}))
    code = main(["check", "--manifest", str(manifest), "--r", "0.3",
                 "--lambda", "0.5", "--plane-rule", "best-fit",
                 "--out", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    assert (code, err.startswith("conclusion violated: sample ")) == (1, True) \
        or (code, err.startswith("error: sample ")) == (2, True)
    assert "Traceback" not in err
