"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload pl-triple --seed 1 --seconds 30 --trace 0

The workload runs in a fresh interpreter (`loop.py`), started here with the
launch time on the monotonic clock, so its set-up time counts the interpreter
start, the imports and one warm-up operation. The program is imported from
the `src` directory of the checkout this file sits in, never from elsewhere.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TIMEOUT_S = 170


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 < args.seconds <= 60:
        p.error("--seconds must lie in (0, 60]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "persrec" / "__init__.py").is_file():
        print(f"run.py: no program sources at {SRC / 'persrec'}", file=sys.stderr)
        return 2
    cmd = [
        sys.executable,
        str(HERE / "loop.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--launched-ns", str(time.monotonic_ns()),
    ]
    try:
        return subprocess.run(cmd, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
