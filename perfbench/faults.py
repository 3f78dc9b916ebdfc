"""Failed operations of one pass over each workload's panel, split by cause.

    python3 perfbench/faults.py

Untimed. For every failed `pl-triple` function it also reruns the
reconstruction with `match_tol = 1e-9`, which tells whether the failure is
the `match_tol` fault.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import persrec  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    api = spans.plain_api()
    for wl in WORKLOADS.values():
        failed, causes = 0, Counter()
        for spec in wl.PANEL:
            inp = wl.make(spec)
            try:
                out = wl.operate(api, inp)
            except wl.errors as exc:
                out = exc
            faults = {k: v for k, v in wl.check(inp, out).items() if v}
            if not faults:
                continue
            failed += 1
            causes.update(faults.keys())
            if wl.name == "pl-triple":
                f, truth, cfg = inp
                strict = persrec.TripleConfig.default(cfg.start, cfg.end, match_tol=1e-9)
                points = persrec.rolling_ball_reconstruct(*out[1], strict)
                fixed = not any(wl.check((f, truth, strict), (out[0], out[1], points)).values())
                print(f"  {wl.name} {spec}: {faults}; passes with match_tol=1e-9: {fixed}")
        print(f"{wl.name}: {failed} of {len(wl.PANEL)} failed; operations per cause: {dict(causes)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
