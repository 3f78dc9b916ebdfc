import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import persrec
from persrec.cli import _load, _load_diagram, _load_function, _load_landscapes, build_parser, main
from persrec.generators import gen_harmonic, gen_pl, gen_spline
from persrec.geometry import Angle
from persrec.landscape import landscapes
from persrec.persistence import PLFunction, directional_diagram
from persrec.reconstruct_smooth import SampledFunction


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
    rec, rep = tmp_path / "rec.json", tmp_path / "rep.json"
    assert run([
        "reconstruct-pl",
        "--in-t", tmp_path / "d90.json",
        "--in-s", tmp_path / "d85.json",
        "--in-r", tmp_path / "d80.json",
        "--start", f"{x0},{y0}",
        "--end", f"{x1},{y1}",
        "--out", rec,
    ]) == 0
    assert run(["verify", "--points", rec, "--truth", tmp_path / "f.truth.json", "--tol", 1e-6, "--out", rep]) == 0
    report = read_json(rep)
    assert report["ok"] and report["matched"] == 12


def test_reconstruct_pl_has_no_algorithm_option(capsys):
    with pytest.raises(SystemExit) as exc:
        run([
            "reconstruct-pl", "--in-t", "t", "--in-s", "s", "--in-r", "r",
            "--start", "0,0", "--end", "1,0", "--algorithm", "naive",
        ])
    assert exc.value.code == 2
    assert "unrecognized arguments: --algorithm naive" in capsys.readouterr().err


# 1e-300 is finite, but its square underflows to 0, so it would match nothing
@pytest.mark.parametrize("tol", ["nan", "inf", "1e-300"])
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


def verify_report(tmp_path, points, truth):
    """Exit status and report of `verify` on the given points and truth
    files' contents."""
    (tmp_path / "p.json").write_text(json.dumps(points))
    (tmp_path / "t.json").write_text(json.dumps(truth))
    status = run([
        "verify", "--points", tmp_path / "p.json", "--truth", tmp_path / "t.json", "--out", tmp_path / "rep.json",
    ])
    return status, read_json(tmp_path / "rep.json")


def pl_truth(tmp_path):
    run(["gen", "pl", "--seed", 1, "--n", 3, "--out", tmp_path / "f.json"])
    return read_json(tmp_path / "f.truth.json")


def test_verify_reports_a_spurious_point(tmp_path):
    truth = pl_truth(tmp_path)
    points = {"critical_points": [*truth["critical_points"], {"x": 0.5, "y": 0.5, "kind": "min"}]}
    status, report = verify_report(tmp_path, points, truth)
    assert status == 1 and not report["ok"]
    assert report["matched"] == 3 and report["missed"] == [] and report["spurious"] == [[0.5, 0.5]]


def test_verify_reports_mislabelled_points(tmp_path):
    truth = pl_truth(tmp_path)
    flip = {"min": "max", "max": "min"}
    points = {"critical_points": [dict(c, kind=flip[c["kind"]]) for c in truth["critical_points"]]}
    status, report = verify_report(tmp_path, points, truth)
    assert status == 1 and report["matched"] == 3 and report["spurious"] == []
    assert [(m["kind"], m["recovered_kind"]) for m in report["mislabelled"]] == [
        (c["kind"], flip[c["kind"]]) for c in truth["critical_points"]
    ]


def test_verify_matches_points_one_to_one(tmp_path):
    # both truth points lie within tol of the one recovered point: it stands
    # for the first of them only, so the second is missed
    truth = {"critical_points": [{"x": 0.5, "y": 0.5, "kind": "min"}, {"x": 0.5, "y": 0.5 + 4e-7, "kind": "min"}]}
    points = {"critical_points": [{"x": 0.5, "y": 0.5 + 3e-7, "kind": "min"}]}
    status, report = verify_report(tmp_path, points, truth)
    assert status == 1 and report["matched"] == 1 and report["missed"] == [[0.5, 0.5 + 4e-7]]


def test_verify_leaves_boundary_points_out(tmp_path):
    # the first and last vertices, and points of kind endpoint, are boundary
    # points on either side; a point with no kind is not mislabelled
    points = {"vertices": [[0.0, 1.0], [0.5, 0.5], [1.0, 1.0]]}
    truth = {
        "critical_points": [
            {"x": 0.0, "y": 0.0, "kind": "endpoint"},
            {"x": 0.5, "y": 0.5, "kind": "min"},
            {"x": 2.0, "y": 0.0, "kind": "endpoint"},
        ]
    }
    status, report = verify_report(tmp_path, points, truth)
    assert status == 0 and report["ok"]
    assert (report["truth_points"], report["recovered_points"], report["matched"]) == (1, 1, 1)


# max(0.0, nan) is 0.0, so a NaN coordinate would match any point
@pytest.mark.parametrize("nan_in", ["points", "truth"])
def test_verify_rejects_a_nan_coordinate_naming_its_file(tmp_path, monkeypatch, nan_in, capsys):
    monkeypatch.chdir(tmp_path)
    for name in ("points", "truth"):
        y = math.nan if name == nan_in else 0.5
        Path(f"{name}.json").write_text(json.dumps({"critical_points": [{"x": 0.5, "y": y, "kind": "min"}]}))
    assert run(["verify", "--points", "points.json", "--truth", "truth.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {nan_in}.json: ") and "finite" in err


# an infinite tolerance would match any point to any other
@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_verify_tol_below_zero_or_not_a_number_exits_2_with_usage(value, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--points", "p", "--truth", "t", "--tol", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "expected a finite number >= 0" in err


# an unknown kind in the points file would be reported mislabelled, and a
# miscased "Endpoint" in the truth file would count as an interior point
@pytest.mark.parametrize(
    "bad_in, kind", [("points", "banana"), ("truth", "Endpoint"), ("points", 1)], ids=["banana", "Endpoint", "number"]
)
def test_verify_rejects_a_kind_that_is_no_critical_kind_naming_its_file(tmp_path, monkeypatch, bad_in, kind, capsys):
    monkeypatch.chdir(tmp_path)
    for name in ("points", "truth"):
        point = {"x": 0.0, "y": 0.0, "kind": kind if name == bad_in else "max"}
        Path(f"{name}.json").write_text(json.dumps({"critical_points": [point]}))
    assert run(["verify", "--points", "points.json", "--truth", "truth.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad_in}.json: ") and "CriticalKind" in err


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


@pytest.mark.parametrize(
    "family, args, generated",
    [
        ("pl", ["--n", 5], lambda: gen_pl(5, 7)),
        ("harmonic", ["--samples-per-unit", 200], lambda: gen_harmonic(7, samples_per_unit=200)),
        ("spline", ["--samples-per-unit", 200, "--knots", 12], lambda: gen_spline(7, knots=12, samples_per_unit=200)),
    ],
    ids=["pl", "harmonic", "spline"],
)
def test_a_function_file_reads_back_to_the_generated_function(tmp_path, family, args, generated):
    run(["gen", family, *args, "--seed", 7, "--out", tmp_path / "f.json"])
    f, _ = generated()
    g = _load(tmp_path / "f.json", _load_function)
    assert type(g) is (PLFunction if family == "pl" else SampledFunction)
    assert np.array_equal(f.xs, g.xs) and np.array_equal(f.ys, g.ys)


# degrees(radians(1.5)) is 1.5000000000000002: the file keeps the angle given
@pytest.mark.parametrize("deg", [85.0, 1.5])
def test_a_diagram_file_reads_back_to_the_diagram_at_the_angle_given(tmp_path, deg):
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"vertices": [[0.0, 2.5], [0.5, 4.0], [2.0, 0.5], [4.0, 2.5]]}))
    assert run(["diagram", "--in", f, "--angle-deg", deg, "--out", tmp_path / "d.json"]) == 0
    data = read_json(tmp_path / "d.json")
    assert data["direction_deg"] == deg
    assert sum(p["death"] == "inf" for p in data["points"]) == 1
    d = _load(tmp_path / "d.json", _load_diagram)
    assert d.direction == Angle.from_degrees(deg)
    assert d.points == directional_diagram(_load(f, _load_function), Angle.from_degrees(deg)).points


def test_a_landscapes_file_reads_back_to_the_landscapes(tmp_path):
    # 8 levels of a diagram with 4 finite points: the last ones are zero
    run(["gen", "pl", "--n", 6, "--seed", 8, "--out", tmp_path / "f.json"])
    run(["diagram", "--in", tmp_path / "f.json", "--angle-deg", 90, "--out", tmp_path / "d.json"])
    assert run(["landscape", "--in", tmp_path / "d.json", "--levels", 8, "--out", tmp_path / "l.json"]) == 0
    ls = _load(tmp_path / "l.json", _load_landscapes)
    assert ls == landscapes(_load(tmp_path / "d.json", _load_diagram), 8)
    assert ls[-1].is_zero


def test_landscape_and_reconstruct_landscapes_round_trip(tmp_path):
    f = tmp_path / "f.json"
    run(["gen", "pl", "--n", 6, "--seed", 8, "--out", f])
    run(["diagram", "--in", f, "--angle-deg", 90, "--out", tmp_path / "d.json"])
    assert run(["landscape", "--in", tmp_path / "d.json", "--levels", 8, "--out", tmp_path / "l.json"]) == 0
    ls = read_json(tmp_path / "l.json")
    assert [l["level"] for l in ls] == list(range(1, 9))
    # a PL function is decoded at its own vertices, so the points are exact
    assert run([
        "reconstruct-landscapes",
        "--in-landscapes", tmp_path / "l.json",
        "--in-function", f,
        "--out", tmp_path / "pts.json",
    ]) == 0
    got = read_json(tmp_path / "pts.json")["critical_points"]
    truth = read_json(tmp_path / "f.truth.json")["critical_points"]
    assert [p for p in got if p["kind"] != "endpoint"] == truth
    assert run(["verify", "--points", tmp_path / "pts.json", "--truth", tmp_path / "f.truth.json", "--tol", 0]) == 0


def test_reconstruct_landscapes_has_no_samples_per_unit_option(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["reconstruct-landscapes", "--in-landscapes", "l", "--in-function", "f", "--samples-per-unit", 10])
    assert exc.value.code == 2
    assert "unrecognized arguments: --samples-per-unit 10" in capsys.readouterr().err


def test_landscape_has_no_essential_cap_option(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["landscape", "--in", "d", "--essential-cap", 2.0])
    assert exc.value.code == 2
    assert "unrecognized arguments: --essential-cap 2.0" in capsys.readouterr().err


def test_reconstruct_landscapes_rejects_a_nan_sample(tmp_path, capsys):
    (tmp_path / "l.json").write_text(json.dumps([{"level": 1, "vertices": [[0.0, 0.0], [0.5, 0.5], [1.0, 0.0]]}]))
    # json writes a NaN sample as the bare token NaN, which json reads back
    (tmp_path / "f.json").write_text(json.dumps({"xs": [0.0, 0.25, 0.5, 0.75, 1.0], "ys": [0.0, 1.0, math.nan, 1.0, 0.0]}))
    assert run([
        "reconstruct-landscapes",
        "--in-landscapes", tmp_path / "l.json",
        "--in-function", tmp_path / "f.json",
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err


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


def test_reconstruct_smooth_rejects_a_tau_that_is_not_a_number(tmp_path, capsys):
    f = tmp_path / "f.json"
    run(["gen", "harmonic", "--samples-per-unit", 2000, "--seed", 1, "--out", f])
    capsys.readouterr()
    assert run(["reconstruct-smooth", "--in", f, "--tau", "nan"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "tau" in err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "spline", "--seed", 1, "--domain", "0,1e308"],
        ["gen", "harmonic", "--seed", 1, "--samples-per-unit", 1e308, "--domain", "0,10"],
        ["gen", "harmonic", "--seed", 1, "--domain", "0,inf"],
        ["gen", "spline", "--seed", 1, "--domain", "0,inf"],
    ],
    ids=["spline-count-past-float-range", "harmonic-count-past-float-range", "harmonic-infinite-end", "spline-infinite-end"],
)
def test_a_domain_or_grid_past_the_float_range_is_an_error(argv, capsys):
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_a_negative_pair_parses_after_an_equals_sign():
    # argparse reads "-1,1" after a space as an option, so the help says to use "="
    gen = build_parser().parse_args(["gen", "pl", "--seed", "1", "--n", "3", "--domain=-1,1"])
    assert gen.domain == (-1.0, 1.0)
    rp = build_parser().parse_args(
        ["reconstruct-pl", "--in-t", "t", "--in-s", "s", "--in-r", "r", "--start=-1,0.5", "--end=1,-2"]
    )
    assert (rp.start, rp.end) == ((-1.0, 0.5), (1.0, -2.0))


@pytest.mark.parametrize("value", ["0", "-5", "nan", "inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "harmonic", "--seed", 1],
        ["gen", "spline", "--seed", 1],
    ],
    ids=["gen-harmonic", "gen-spline"],
)
def test_bad_samples_per_unit_exits_2_with_usage(argv, value, capsys):
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--samples-per-unit", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "expected a positive finite number" in err


@pytest.mark.parametrize("value", ["0", "-3", "1.5", "nan"])
def test_bad_levels_exits_2_with_usage(value, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["landscape", "--in", "d.json", "--levels", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "argument --levels: " in err
    assert ("expected a positive integer" in err) == (value in ("0", "-3"))


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
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_missing_file_is_domain_error(tmp_path):
    assert run(["diagram", "--in", tmp_path / "nope.json", "--angle-deg", 90]) == 1


PL_FILE = {"vertices": [[0.0, 0.0], [0.5, 1.0], [1.0, 0.0]]}
HUGE = 10**400


@pytest.mark.parametrize(
    "command, contents",
    [
        (["diagram", "--angle-deg", 90, "--in"], {"vertices": 5}),
        (["verify", "--truth", "f.json", "--points"], [[1]]),
        (["landscape", "--in"], {"direction_deg": 90, "points": 3}),
        (["reconstruct-landscapes", "--in-function", "f.json", "--in-landscapes"], {"level": 1}),
        # an integer literal past the float range, read as a float, is not finite
        (["diagram", "--angle-deg", 90, "--in"], {"vertices": [[0, 0], [1, HUGE], [2, 0]]}),
        (["verify", "--truth", "f.json", "--points"], {"vertices": [[0, 0], [1, HUGE], [2, 0]]}),
        (["landscape", "--in"], {"direction_deg": 90, "points": [{"birth": HUGE, "death": "inf"}]}),
        (["reconstruct-landscapes", "--in-function", "f.json", "--in-landscapes"], [{"level": 1, "vertices": [[0, 0], [HUGE, 0]]}]),
        (["reconstruct-smooth", "--in"], {"xs": [0, 1, 2], "ys": [0, HUGE, 0]}),
    ],
    ids=[
        "diagram", "verify", "landscape", "reconstruct-landscapes",
        "diagram-huge-int", "verify-huge-int", "landscape-huge-int", "reconstruct-landscapes-huge-int",
        "reconstruct-smooth-huge-int",
    ],
)
def test_a_file_of_the_wrong_shape_is_an_error_naming_it(tmp_path, monkeypatch, command, contents, capsys):
    monkeypatch.chdir(tmp_path)
    Path("f.json").write_text(json.dumps(PL_FILE))
    Path("bad.json").write_text(json.dumps(contents))
    assert run([*command, "bad.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad.json: ") and "Traceback" not in err


def diagram_file(tmp_path, points):
    path = tmp_path / "d.json"
    # json writes NaN and inf as the bare tokens NaN and Infinity, which it reads back
    path.write_text(json.dumps({"direction_deg": 90.0, "points": points}))
    return path


@pytest.mark.parametrize(
    "points",
    [
        [{"birth": math.nan, "death": "inf"}],
        [{"birth": 0.0, "death": "inf"}, {"birth": 0.5, "death": math.inf}],
        [{"birth": "nan", "death": "inf"}],
    ],
    ids=["nan-essential-birth", "infinite-finite-death", "nan-string-birth"],
)
def test_landscape_rejects_a_diagram_with_a_number_that_is_not_finite(tmp_path, points, capsys):
    d = diagram_file(tmp_path, points)
    assert run(["landscape", "--in", d, "--out", tmp_path / "l.json"]) == 1
    assert not (tmp_path / "l.json").exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize(
    "vertices, rule",
    [
        ([[0, 0], [1, 1], [2, 0], [1, 0]], "t decreases"),
        ([[0, 0], [1, -1], [2, 0]], "u must be >= 0"),
        ([[0, 0], [1, 1]], "0 at both ends"),
        ([[0, 0], [1, 5], [2, 0]], "slope"),
        ([[0, 0], [1, 1 + 1e-9], [2, 0]], "slope"),
    ],
    ids=["t-falls", "u-below-zero", "nonzero-end", "slope-5", "slope-off-by-1e-9"],
)
def test_reconstruct_landscapes_rejects_a_level_that_is_no_landscape(tmp_path, monkeypatch, vertices, rule, capsys):
    monkeypatch.chdir(tmp_path)
    Path("l.json").write_text(json.dumps([{"level": 1, "vertices": [[0, 0], [1, 1], [2, 0]]},
                                          {"level": 2, "vertices": vertices}]))
    Path("f.json").write_text(json.dumps(PL_FILE))
    assert run(["reconstruct-landscapes", "--in-landscapes", "l.json", "--in-function", "f.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: l.json: level 2: ") and rule in err


@pytest.mark.parametrize(
    "levels, rule",
    [((1.7, 2), "level 1.7: a level is an integer >= 1"), ((1, 0), "level 0: a level is an integer >= 1"),
     ((1, -3), "level -3: a level is an integer >= 1"), ((2, 2), "levels must be distinct")],
    ids=["fraction", "zero", "negative", "repeated"],
)
def test_reconstruct_landscapes_rejects_a_level_number_that_is_no_level(tmp_path, monkeypatch, levels, rule, capsys):
    monkeypatch.chdir(tmp_path)
    Path("l.json").write_text(json.dumps([{"level": k, "vertices": [[0, 0], [1, 1], [2, 0]]} for k in levels]))
    Path("f.json").write_text(json.dumps(PL_FILE))
    assert run(["reconstruct-landscapes", "--in-landscapes", "l.json", "--in-function", "f.json"]) == 1
    assert capsys.readouterr().err.startswith(f"error: l.json: {rule}")


def test_reconstruct_landscapes_rejects_a_nan_landscape_vertex(tmp_path, capsys):
    (tmp_path / "l.json").write_text(json.dumps([{"level": 1, "vertices": [[0.0, 0.0], [0.5, math.nan], [1.0, 0.0]]}]))
    (tmp_path / "f.json").write_text(json.dumps(PL_FILE))
    assert run([
        "reconstruct-landscapes", "--in-landscapes", tmp_path / "l.json", "--in-function", tmp_path / "f.json",
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err
