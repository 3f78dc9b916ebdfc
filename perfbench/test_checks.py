"""The benchmark's checks pass on correct outputs and flag each kind of error.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import persrec
from persrec.persistence import CriticalKind, CriticalPoint, Diagram, PersistencePoint
from persrec.landscape import Landscape

import checks
import loop
import spans
from workloads import WORKLOADS, LandscapeDecode, PLTriple, SmoothFiveLine

HERE = Path(__file__).resolve().parent


def _flip(p: CriticalPoint) -> CriticalPoint:
    other = CriticalKind.LOCAL_MAX if p.kind is CriticalKind.LOCAL_MIN else CriticalKind.LOCAL_MIN
    return dataclasses.replace(p, kind=other)


@pytest.fixture(scope="module")
def harmonic():
    f, truth = persrec.gen_harmonic(3)
    return f, truth


def test_exact_points_match(harmonic):
    f, truth = harmonic
    assert checks.match_points(truth, truth, f.step).ok


def test_point_within_one_step_matches(harmonic):
    f, truth = harmonic
    got = [dataclasses.replace(truth[0], x=truth[0].x + 0.9 * f.step)] + truth[1:]
    assert checks.match_points(got, truth, f.step).ok


def test_point_moved_beyond_tolerance_is_missed_and_spurious(harmonic):
    f, truth = harmonic
    got = [dataclasses.replace(truth[5], x=truth[5].x + 2 * f.step)] + truth[:5] + truth[6:]
    assert checks.match_points(got, truth, f.step) == checks.Mismatch(missed=1, spurious=1)


def test_flipped_kind_is_mislabelled(harmonic):
    f, truth = harmonic
    got = truth[:3] + [_flip(truth[3])] + truth[4:]
    assert checks.match_points(got, truth, f.step) == checks.Mismatch(mislabelled=1)


def test_dropped_point_is_missed(harmonic):
    f, truth = harmonic
    assert checks.match_points(truth[1:], truth, f.step) == checks.Mismatch(missed=1)


def test_added_point_is_spurious(harmonic):
    f, truth = harmonic
    twin = dataclasses.replace(truth[2], x=truth[2].x + 0.5 * f.step)
    assert checks.match_points(truth + [twin], truth, f.step) == checks.Mismatch(spurious=1)


def test_y_tolerance_separates_points_at_one_abscissa():
    truth = [CriticalPoint(0.5, 0.2, CriticalKind.LOCAL_MIN)]
    got = [CriticalPoint(0.5, 0.2 + 1e-6, CriticalKind.LOCAL_MIN)]
    assert checks.match_points(got, truth, 1e-9, y_tol=1e-9) == checks.Mismatch(missed=1, spurious=1)


def _run_op(workload, spec):
    inp = workload.make(spec)
    return inp, workload.operate(spans.plain_api(), inp)


def test_pl_check_passes_and_flags_a_dropped_point():
    wl = PLTriple()
    inp, (diagrams, heights, points) = _run_op(wl, (20, 5))
    assert not any(wl.check(inp, (diagrams, heights, points)).values())
    interior = [p for p in points if p not in (inp[2].start, inp[2].end)]
    dropped = [p for p in points if p != interior[3]]
    assert wl.check(inp, (diagrams, heights, dropped))["reconstruct_pl.missed_points"] == 1


def test_pl_check_rejects_a_wrong_essential_birth():
    wl = PLTriple()
    inp, (diagrams, heights, points) = _run_op(wl, (20, 5))
    d = diagrams[1]
    shifted = tuple(PersistencePoint(p.birth - 1e-3, None) if p.is_essential else p for p in d.points)
    bad = [diagrams[0], Diagram(d.direction, shifted), diagrams[2]]
    with pytest.raises(checks.CheckFailed):
        wl.check(inp, (bad, heights, points))


def test_pl_check_flags_the_match_tol_fault():
    wl = PLTriple()
    inp, out = _run_op(wl, (400, 115))
    faults = wl.check(inp, out)
    assert faults["reconstruct_pl.missed_points"] >= 1


def test_smooth_check_counts_the_raised_estimator():
    wl = SmoothFiveLine()
    inp = wl.make(40)
    with pytest.raises(persrec.DegenerateEstimator) as exc:
        wl.operate(spans.plain_api(), inp)
    assert wl.check(inp, exc.value) == {"reconstruct_smooth.raised": 1}


@pytest.fixture(scope="module")
def decoded():
    wl = LandscapeDecode()
    inp, out = _run_op(wl, wl.PANEL[0])
    return wl, inp, out


def test_landscape_properties_hold(decoded):
    _, _, (d, levels, _) = decoded
    assert checks.landscape_faults(levels, checks.capped_pairs(d.points)) == []


def test_landscape_with_a_raised_vertex_fails_the_area_identity(decoded):
    _, _, (d, levels, _) = decoded
    top = levels[0]
    j = max(range(len(top.vertices)), key=lambda i: top.vertices[i][1])
    verts = list(top.vertices)
    verts[j] = (verts[j][0], verts[j][1] + 1e-3)
    raised = [Landscape(1, tuple(verts))] + levels[1:]
    faults = checks.landscape_faults(raised, checks.capped_pairs(d.points))
    assert any("area" in msg for msg in faults)


def test_landscape_levels_out_of_order_are_flagged(decoded):
    _, _, (d, levels, _) = decoded
    swapped = [dataclasses.replace(levels[1], level=1), dataclasses.replace(levels[0], level=2)] + levels[2:]
    faults = checks.landscape_faults(swapped, checks.capped_pairs(d.points))
    assert any("exceeds" in msg for msg in faults)


def test_landscape_check_passes_and_flags_a_dropped_point(decoded):
    wl, inp, (d, levels, points) = decoded
    assert not any(wl.check(inp, (d, levels, points)).values())
    interior = [p for p in points if p.kind is not CriticalKind.ENDPOINT]
    dropped = [p for p in points if p != interior[0]]
    assert wl.check(inp, (d, levels, dropped))["landscape.missed_points"] == 1


def test_capped_pairs_caps_the_essential_class_at_the_top_height():
    points = (PersistencePoint(0.1, 0.7), PersistencePoint(0.0, None), PersistencePoint(0.3, 0.9))
    assert sorted(checks.capped_pairs(points)) == [(0.0, 0.9), (0.1, 0.7), (0.3, 0.9)]


def test_min_projection_is_the_lowest_vertex_height():
    theta = math.radians(80.0)
    xs, ys = [0.0, 0.5, 1.0], [1.0, -0.2, 0.4]
    expected = min(x * math.cos(theta) + y * math.sin(theta) for x, y in zip(xs, ys))
    assert checks.min_projection(xs, ys, theta) == expected


def test_tracer_restores_rebound_globals_and_measures_self_time():
    before = {(m, a): getattr(m, a) for m, attrs in spans.INNER_CALLS.items() for a in attrs}
    tracer = spans.Tracer()
    wl = SmoothFiveLine()
    inp = wl.make(1)
    with tracer.instrument() as api:
        wl.operate(api, inp)
    assert {(m, a): getattr(m, a) for m, a in before} == before
    self_ns, calls = tracer.self_ns()
    assert calls["reconstruct_smooth.pl_proxy"] == 5
    assert calls["reconstruct_smooth.filter_and_locate"] == 1
    total = sum(end - start for name, start, end, parent, _ in tracer.spans if parent < 0)
    assert sum(self_ns.values()) == total


def test_every_workload_round_is_the_whole_panel_in_seeded_order():
    for wl in WORKLOADS.values():
        first, again, other = wl.round(7, 0), wl.round(7, 0), wl.round(8, 0)
        assert first == again and sorted(first) == sorted(wl.PANEL)
        assert first != other


def test_benchmark_json_lists_the_metrics_the_loop_prints():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == loop.per_layer_names()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    cmd = [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "pl-triple",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
