import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import persrec
from persrec.cli import main


def run(argv):
    return main([str(a) for a in argv])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_gen_pl_writes_function_and_truth(tmp_path):
    # all three families share one body; smooth ones at a coarse grid
    for family, args, n_samples in [
        ("pl", ["--n", 5], 7),
        ("harmonic", ["--samples-per-unit", 200], 201),
        ("spline", ["--samples-per-unit", 200, "--knots", 12], 201),
    ]:
        out = tmp_path / f"{family}.json"
        assert run(["gen", family, *args, "--seed", 42, "--out", out]) == 0
        func = read_json(out)
        truth = read_json(tmp_path / f"{family}.truth.json")
        assert len(func["vertices"] if family == "pl" else func["xs"]) == n_samples
        if family == "pl":
            assert len(truth["critical_points"]) == 5
        assert {c["kind"] for c in truth["critical_points"]} == {"min", "max"}


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["gen", "pl", "--n", 8, "--seed", 3, "--out", a])
    run(["gen", "pl", "--n", 8, "--seed", 3, "--out", b])
    assert a.read_text() == b.read_text()


def test_gen_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["gen", "pl", "--n", 5])
    assert exc.value.code == 2


def test_full_pl_pipeline_round_trip(tmp_path):
    f = tmp_path / "f.json"
    run(["gen", "pl", "--n", 12, "--seed", 5, "--out", f])
    for deg in (90, 85, 80):
        assert run(["diagram", "--in", f, "--angle-deg", deg, "--out", tmp_path / f"d{deg}.json"]) == 0
    func = read_json(f)
    (x0, y0), (x1, y1) = func["vertices"][0], func["vertices"][-1]
    for algorithm in ("rolling", "naive"):
        rec = tmp_path / f"rec-{algorithm}.json"
        assert run([
            "reconstruct-pl",
            "--in-t", tmp_path / "d90.json",
            "--in-s", tmp_path / "d85.json",
            "--in-r", tmp_path / "d80.json",
            "--start", f"{x0},{y0}",
            "--end", f"{x1},{y1}",
            "--algorithm", algorithm,
            "--out", rec,
        ]) == 0
        rep = tmp_path / f"rep-{algorithm}.json"
        assert run(["verify", "--points", rec, "--truth", tmp_path / "f.truth.json", "--tol", 1e-6, "--out", rep]) == 0
        report = read_json(rep)
        assert report["ok"] and report["matched"] == 12


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_reconstruct_pl_rejects_a_tolerance_that_is_not_finite(tmp_path, tol, capsys):
    f = tmp_path / "f.json"
    run(["gen", "pl", "--n", 3, "--seed", 5, "--out", f])
    for deg in (90, 85, 80):
        run(["diagram", "--in", f, "--angle-deg", deg, "--out", tmp_path / f"d{deg}.json"])
    capsys.readouterr()
    assert run([
        "reconstruct-pl",
        "--in-t", tmp_path / "d90.json",
        "--in-s", tmp_path / "d85.json",
        "--in-r", tmp_path / "d80.json",
        "--start", "0,0",
        "--end", "1,0",
        "--match-tol", tol,
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "match_tol" in err


def test_verify_fails_on_wrong_truth(tmp_path):
    rec = tmp_path / "rec.json"
    rec.write_text(json.dumps({"vertices": [[0.0, 0.0], [1.0, 1.0]]}))
    truth = tmp_path / "t.json"
    truth.write_text(json.dumps({"critical_points": [{"x": 0.5, "y": 0.5, "kind": "min"}]}))
    assert run(["verify", "--points", rec, "--truth", truth]) == 1


def test_diagram_strict_rejects_non_admissible(tmp_path):
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"vertices": [[0.0, 2.5], [0.5, 4.0], [2.0, 0.5], [4.0, 2.5]]}))
    deg = math.degrees(math.atan(0.1))
    assert run(["diagram", "--in", f, "--angle-deg", deg, "--out", tmp_path / "d.json", "--strict"]) == 1
    assert run(["diagram", "--in", f, "--angle-deg", deg, "--out", tmp_path / "d.json"]) == 0
    assert read_json(tmp_path / "d.json")["admissible"] is False


def test_diagram_json_shape(tmp_path):
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"vertices": [[0.0, 2.5], [0.5, 4.0], [2.0, 0.5], [4.0, 2.5]]}))
    run(["diagram", "--in", f, "--angle-deg", 90, "--out", tmp_path / "d.json"])
    d = read_json(tmp_path / "d.json")
    assert d["direction_deg"] == 90.0
    deaths = [p["death"] for p in d["points"]]
    assert deaths.count("inf") == 1
    assert d["admissible"] is True


def test_landscape_and_reconstruct_landscapes_round_trip(tmp_path):
    f = tmp_path / "f.json"
    run(["gen", "pl", "--n", 6, "--seed", 8, "--out", f])
    run(["diagram", "--in", f, "--angle-deg", 90, "--out", tmp_path / "d.json"])
    assert run(["landscape", "--in", tmp_path / "d.json", "--levels", 8, "--out", tmp_path / "l.json"]) == 0
    ls = read_json(tmp_path / "l.json")
    assert [l["level"] for l in ls] == list(range(1, 9))
    # sampling at 4096 per unit puts every generator vertex on the grid
    assert run([
        "reconstruct-landscapes",
        "--in-landscapes", tmp_path / "l.json",
        "--in-function", f,
        "--samples-per-unit", 4096,
        "--out", tmp_path / "pts.json",
    ]) == 0
    got = read_json(tmp_path / "pts.json")
    truth = read_json(tmp_path / "f.truth.json")["critical_points"]
    for c in truth:
        assert any(
            abs(p["x"] - c["x"]) < 1e-9 and p["kind"] == c["kind"] for p in got
        ), c


def test_reconstruct_smooth_cli(tmp_path):
    xs = np.linspace(-1.2, 1.2, 24001)
    ys = 4.0 * xs**3 - 3.0 * xs
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"xs": xs.tolist(), "ys": ys.tolist()}))
    assert run(["reconstruct-smooth", "--in", f, "--out", tmp_path / "out.json"]) == 0
    out = read_json(tmp_path / "out.json")
    assert out["alternation_ok"] is True
    kinds = [p["kind"] for p in out["critical_points"]]
    assert kinds == ["max", "min"]
    assert out["critical_points"][0]["x"] == pytest.approx(-0.5, abs=1e-3)


def test_reconstruct_smooth_rejects_vertex_input(tmp_path):
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"vertices": [[0.0, 0.0], [1.0, 1.0]]}))
    assert run(["reconstruct-smooth", "--in", f]) == 1


def test_emit_plot_data(tmp_path):
    f = tmp_path / "f.json"
    dat = tmp_path / "f.dat"
    run(["gen", "pl", "--n", 4, "--seed", 1, "--out", f, "--emit-plot-data", dat])
    rows = [line.split() for line in dat.read_text().strip().splitlines()]
    assert all(len(r) == 2 for r in rows)
    assert len(rows) == 6
    float(rows[0][0]), float(rows[0][1])


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "pl", "--seed", 1, "--n", 3, "--domain", "abc"],
        ["gen", "spline", "--seed", 1, "--domain", "0,1,2"],
        ["reconstruct-pl", "--in-t", "t", "--in-s", "s", "--in-r", "r", "--start", "0", "--end", "1,0"],
        ["reconstruct-pl", "--in-t", "t", "--in-s", "s", "--in-r", "r", "--start", "0,0", "--end", "1;0"],
    ],
    ids=["domain-not-numbers", "domain-three-values", "start-one-value", "end-wrong-separator"],
)
def test_malformed_pair_exits_2_with_usage(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "expected 'a,b'" in err


def test_closed_stdout_exits_quietly():
    # the output (about 0.5 MB) outgrows the pipe buffer, so the write meets
    # the closed pipe inside the command, not only at the final flush
    env = dict(os.environ, PYTHONPATH=str(Path(persrec.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "persrec.cli", "gen", "harmonic", "--seed", "1", "--domain", "0,2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_missing_file_is_domain_error(tmp_path):
    assert run(["diagram", "--in", tmp_path / "nope.json", "--angle-deg", 90]) == 1
