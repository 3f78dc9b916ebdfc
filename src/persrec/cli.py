"""Command-line front end wiring generators, diagrams, landscapes, and
reconstructions into file-based pipelines.

Angles are degrees everywhere on the CLI and in files. Every randomized
command requires --seed, so identical invocations produce identical files.
Every number in an input file must be finite. Exit codes: 0 success, 1 domain
errors (e.g. a non-admissible direction under --strict, or an input file of
the wrong shape, named in the message) and, silently, a standard output
closed by its reader, 2 argument errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .generators import gen_harmonic, gen_pl, gen_spline
from .geometry import Angle, Point2
from .landscape import Landscape, landscapes, reconstruct_from_landscapes
from .persistence import (
    CriticalKind,
    CriticalPoint,
    Diagram,
    PersistencePoint,
    PLFunction,
    critical_heights,
    directional_diagram,
    is_admissible,
)
from .reconstruct_pl import TripleConfig, rolling_ball_reconstruct
from .reconstruct_smooth import SampledFunction, SmoothConfig, five_line_reconstruct, pl_proxy


def _finite(value) -> float:
    """value, a JSON number or a string in an input file, as a float; it must
    be finite."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"numbers must be finite, got {number}")
    return number


def _load(path: str, parse):
    """parse applied to the JSON in the file at path, every number of which
    is read as a finite float. A file that is not JSON, or whose contents
    parse cannot read, is a ValueError naming the file."""
    with open(path) as fh:
        try:
            return parse(json.load(fh, parse_float=_finite, parse_int=_finite, parse_constant=_finite))
        except (TypeError, KeyError, IndexError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _write_json(obj, path: str | None) -> None:
    text = json.dumps(obj, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_plot_data(path: str, blocks: list[list[tuple[float, float]]]) -> None:
    """Plain two-column x,y data; multiple blocks are blank-line separated."""
    with open(path, "w") as fh:
        for b, block in enumerate(blocks):
            if b:
                fh.write("\n")
            for x, y in block:
                fh.write(f"{x!r} {y!r}\n")


def _parse_pair(text: str) -> tuple[float, float]:
    try:
        a, b = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected 'a,b', got {text!r}") from exc
    return a, b


def _samples_per_unit(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _levels(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    # an infinite tolerance would match any point to any other
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _truth_path(out: str) -> str:
    return out[: -len(".json")] + ".truth.json" if out.endswith(".json") else out + ".truth.json"


def _load_function(data: dict):
    """Function files hold either {"vertices": [[x,y],..]} or {"xs":[..],"ys":[..]}."""
    if "vertices" in data:
        verts = data["vertices"]
        return PLFunction([v[0] for v in verts], [v[1] for v in verts])
    if "xs" in data and "ys" in data:
        return SampledFunction(data["xs"], data["ys"])
    raise ValueError("function file must contain either 'vertices' or 'xs'/'ys'")


def _load_diagram(data: dict) -> Diagram:
    """A diagram file holds {"direction_deg": deg, "points": [{"birth": b,
    "death": d}, ..]}, where the essential point's death is the string "inf"."""
    points = tuple(
        PersistencePoint(_finite(p["birth"]), None if p["death"] == "inf" else _finite(p["death"]))
        for p in data["points"]
    )
    return Diagram(Angle.from_degrees(_finite(data["direction_deg"])), points)


def _level(value) -> int:
    k = _finite(value)
    if k != int(k) or k < 1:
        raise ValueError(f"level {k:g}: a level is an integer >= 1")
    return int(k)


def _load_landscapes(data: list) -> list[Landscape]:
    """A landscapes file holds [{"level": k, "vertices": [[t, u], ..]}, ..],
    with distinct levels k, each an integer >= 1. A nonzero level must be a
    landscape as `Landscape` states it: t never decreases, u >= 0 with u = 0
    at both ends, and every piece has slope -1, 0 or +1, within 4 eps times
    the level's largest |t| or |u|."""
    ls = [Landscape(_level(l["level"]), tuple((_finite(t), _finite(u)) for t, u in l["vertices"])) for l in data]
    if len({l.level for l in ls}) < len(ls):
        raise ValueError("levels must be distinct")
    for l in ls:
        if l.is_zero:
            continue
        t, u = np.array(l.vertices).T
        dt, du = np.diff(t), np.abs(np.diff(u))
        if np.any(dt < 0):
            raise ValueError(f"level {l.level}: t decreases")
        if np.any(u < 0) or u[0] != 0 or u[-1] != 0:
            raise ValueError(f"level {l.level}: u must be >= 0, and 0 at both ends")
        if np.any(np.minimum(du, np.abs(du - dt)) > 4 * np.finfo(float).eps * np.abs(l.vertices).max()):
            raise ValueError(f"level {l.level}: a piece has a slope other than -1, 0 or +1")
    return ls


def _points_to_dicts(points: list[CriticalPoint]) -> list[dict]:
    return [{"x": p.x, "y": p.y, "kind": p.kind.value} for p in points]


def _load_points(data: dict) -> list[tuple[float, float, CriticalKind | None]]:
    """The interior points of a points file as (x, y, kind), kind None where
    the file gives none. A file holds {"vertices": [[x, y], ..]}, whose first
    and last are boundary points, or {"critical_points": [..]} as
    `_points_to_dicts` writes it, where a point of kind "endpoint" is a
    boundary point. Boundary points are left out; a kind that is no
    `CriticalKind` value is an error."""
    if "vertices" in data:
        return [(_finite(x), _finite(y), None) for x, y in data["vertices"][1:-1]]
    if "critical_points" in data:
        points = [(_finite(p["x"]), _finite(p["y"]), CriticalKind(p["kind"])) for p in data["critical_points"]]
        return [p for p in points if p[2] is not CriticalKind.ENDPOINT]
    raise ValueError("points file must contain either 'vertices' or 'critical_points'")


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen(args) -> int:
    if args.family == "pl":
        f, truth = gen_pl(args.n, args.seed, args.domain)
    elif args.family == "harmonic":
        f, truth = gen_harmonic(args.seed, args.domain, samples_per_unit=args.samples_per_unit)
    else:
        f, truth = gen_spline(args.seed, args.domain, knots=args.knots, samples_per_unit=args.samples_per_unit)
    pairs = list(zip(f.xs.tolist(), f.ys.tolist()))
    func_dict = {"vertices": pairs} if args.family == "pl" else {"xs": f.xs.tolist(), "ys": f.ys.tolist()}

    truth_dict = {"critical_points": _points_to_dicts(truth)}
    if args.out:
        _write_json(func_dict, args.out)
        _write_json(truth_dict, _truth_path(args.out))
    else:
        _write_json({"function": func_dict, "truth": truth_dict}, None)
    if args.emit_plot_data:
        _write_plot_data(args.emit_plot_data, [pairs])
    return 0


def cmd_diagram(args) -> int:
    f = _load(args.infile, _load_function)
    v = Angle.from_degrees(args.angle_deg)
    sampled = isinstance(f, SampledFunction)
    d = directional_diagram(pl_proxy(f) if sampled else f, v)
    out = {
        "direction_deg": args.angle_deg,
        "points": [{"birth": p.birth, "death": "inf" if p.is_essential else p.death} for p in d.points],
    }
    if not sampled:
        out["admissible"] = is_admissible(f, v)
        if not out["admissible"]:
            print(f"warning: direction {args.angle_deg} deg is not admissible for this function", file=sys.stderr)
            if args.strict:
                return 1
    _write_json(out, args.out)
    return 0


def cmd_landscape(args) -> int:
    ls = landscapes(_load(args.infile, _load_diagram), args.levels)
    _write_json([{"level": l.level, "vertices": l.vertices} for l in ls], args.out)
    if args.emit_plot_data:
        _write_plot_data(args.emit_plot_data, [list(l.vertices) for l in ls if not l.is_zero])
    return 0


def cmd_reconstruct_pl(args) -> int:
    loaded = [
        _load(path, lambda data: (_load_diagram(data), data.get("admissible") is False))
        for path in (args.in_t, args.in_s, args.in_r)
    ]
    flagged = [name for name, (_, flag) in zip("TSR", loaded) if flag]
    if flagged:
        print(f"warning: non-admissible direction(s) in {', '.join(flagged)}; "
              "reconstruction may omit critical points", file=sys.stderr)
        if args.strict:
            return 1
    (d_t, _), (d_s, _), (d_r, _) = loaded
    cfg = TripleConfig(
        d_t.direction,
        d_s.direction,
        d_r.direction,
        Point2(*args.start),
        Point2(*args.end),
        args.match_tol,
    )
    points = rolling_ball_reconstruct(
        critical_heights(d_t), critical_heights(d_s), critical_heights(d_r), cfg
    )
    _write_json({"vertices": [[p.x, p.y] for p in points]}, args.out)
    if args.emit_plot_data:
        _write_plot_data(args.emit_plot_data, [[(p.x, p.y) for p in points]])
    return 0


def cmd_reconstruct_smooth(args) -> int:
    f = _load(args.infile, _load_function)
    if not isinstance(f, SampledFunction):
        raise ValueError("reconstruct-smooth expects a sampled function file ('xs'/'ys')")
    cfg = SmoothConfig(tau=args.tau, steep_deg=args.steep_deg, shallow_deg=args.shallow_deg)
    result = five_line_reconstruct(f, cfg)
    _write_json(
        {
            "critical_points": _points_to_dicts(result.points),
            "alternation_ok": result.alternation_ok,
            "warnings": result.warnings,
        },
        args.out,
    )
    if args.emit_plot_data:
        _write_plot_data(args.emit_plot_data, [[(p.x, p.y) for p in result.points]])
    return 0


def cmd_reconstruct_landscapes(args) -> int:
    ls = _load(args.in_landscapes, _load_landscapes)
    # a PL function is decoded at its own vertices, where its extrema lie
    f = _load(args.in_function, _load_function)
    points = reconstruct_from_landscapes(ls, f.ys, f.xs)
    _write_json({"critical_points": _points_to_dicts(points)}, args.out)
    if args.emit_plot_data:
        _write_plot_data(args.emit_plot_data, [[(p.x, p.y) for p in points]])
    return 0


def cmd_verify(args) -> int:
    recovered = _load(args.points, _load_points)
    truth = _load(args.truth, _load_points)
    tol = args.tol
    free = set(range(len(recovered)))
    missed, mislabelled = [], []
    for tx, ty, kind in truth:
        # the nearest unused recovered point, by the larger of |dx| and |dy|
        dist, k = min(
            ((max(abs(tx - recovered[k][0]), abs(ty - recovered[k][1])), k) for k in free),
            default=(math.inf, None),
        )
        if not dist <= tol:
            missed.append([tx, ty])
            continue
        free.remove(k)
        got = recovered[k][2]
        if kind and got and got is not kind:
            mislabelled.append({"x": tx, "y": ty, "kind": kind.value, "recovered_kind": got.value})
    spurious = [list(recovered[k][:2]) for k in sorted(free)]
    report = {
        "truth_points": len(truth),
        "recovered_points": len(recovered),
        "matched": len(truth) - len(missed),
        "missed": missed,
        "spurious": spurious,
        "mislabelled": mislabelled,
        "tol": tol,
        "ok": not (missed or spurious or mislabelled),
    }
    _write_json(report, args.out)
    return 0 if report["ok"] else 1


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="persrec",
        description="Reconstruct functions from directional sublevel-set persistence diagrams.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    gen = sub.add_parser("gen", help="generate a seeded test function plus ground truth")
    gsub = gen.add_subparsers(dest="family", required=True)
    for family in ("pl", "harmonic", "spline"):
        g = gsub.add_parser(family)
        g.add_argument("--seed", type=int, required=True)
        g.add_argument("--domain", type=_parse_pair, default="0,1", help="a,b (default 0,1); --domain=-1,1 for a < 0")
        g.add_argument("--out", help="function JSON path; truth goes to <out>.truth.json")
        g.add_argument("--emit-plot-data", metavar="PATH", help="write plain x,y columns")
        if family == "pl":
            g.add_argument("--n", type=int, required=True, help="interior critical points")
        else:
            g.add_argument("--samples-per-unit", type=_samples_per_unit, default=10_000.0)
        if family == "spline":
            g.add_argument("--knots", type=int, default=30)
        g.set_defaults(func=cmd_gen, family=family)

    d = sub.add_parser("diagram", help="directional persistence diagram of a function file")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--angle-deg", type=float, required=True)
    d.add_argument("--out")
    d.add_argument("--strict", action="store_true", help="exit 1 if the direction is not admissible")
    d.set_defaults(func=cmd_diagram)

    l = sub.add_parser("landscape", help="exact persistence landscapes of a diagram file")
    l.add_argument("--in", dest="infile", required=True)
    l.add_argument("--levels", type=_levels, default=10)
    l.add_argument("--out")
    l.add_argument("--emit-plot-data", metavar="PATH")
    l.set_defaults(func=cmd_landscape)

    rp = sub.add_parser("reconstruct-pl", help="triple-intersection reconstruction from three diagrams")
    rp.add_argument("--in-t", required=True, help="diagram for the steepest direction (e.g. 90 deg)")
    rp.add_argument("--in-s", required=True, help="diagram for the middle direction (e.g. 85 deg)")
    rp.add_argument("--in-r", required=True, help="diagram for the shallowest direction (e.g. 80 deg)")
    rp.add_argument(
        "--start", type=_parse_pair, required=True, help="x,y of the left boundary point; --start=-1,0 for x < 0"
    )
    rp.add_argument(
        "--end", type=_parse_pair, required=True, help="x,y of the right boundary point; --end=-1,0 for x < 0"
    )
    rp.add_argument("--match-tol", type=float, default=TripleConfig.match_tol)
    rp.add_argument("--strict", action="store_true")
    rp.add_argument("--out")
    rp.add_argument("--emit-plot-data", metavar="PATH")
    rp.set_defaults(func=cmd_reconstruct_pl)

    rs = sub.add_parser("reconstruct-smooth", help="five-line reconstruction of a sampled function")
    rs.add_argument("--in", dest="infile", required=True)
    rs.add_argument("--tau", type=float, default=SmoothConfig.tau)
    rs.add_argument("--steep-deg", type=float, default=SmoothConfig.steep_deg)
    rs.add_argument("--shallow-deg", type=float, default=SmoothConfig.shallow_deg)
    rs.add_argument("--out")
    rs.add_argument("--emit-plot-data", metavar="PATH")
    rs.set_defaults(func=cmd_reconstruct_smooth)

    rl = sub.add_parser("reconstruct-landscapes", help="decode critical points from selected landscapes")
    rl.add_argument("--in-landscapes", required=True)
    rl.add_argument("--in-function", required=True)
    rl.add_argument("--out")
    rl.add_argument("--emit-plot-data", metavar="PATH")
    rl.set_defaults(func=cmd_reconstruct_landscapes)

    v = sub.add_parser(
        "verify",
        help="match recovered points one to one against a ground-truth file, boundary "
        "points left out; exit 1 on a missed, spurious or mislabelled point",
    )
    v.add_argument("--points", required=True)
    v.add_argument("--truth", required=True)
    v.add_argument("--tol", type=_tolerance, default=1e-6, help="largest |dx| and |dy| of a match")
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader stopped reading (e.g. `| head`): nothing to report, and
        # the interpreter's final flush must not meet the closed pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, RuntimeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
