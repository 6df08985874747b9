"""Benchmark of ramify: one workload per run, exact output checks, every metric.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census-q2-32 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, measured with tracing
off, their times scaled to a reference loop's speed in the same run (see
``harness.REF_RATE``; the measured times are printed too); with
``--trace 1`` the per-layer metrics of one traced solve, the tracing
overhead against untraced solves of the same run, and it writes the raw
spans under ``perfbench/out/``.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program is imported from ``src/`` of the checkout; when
that is missing the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from harness import run
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ramify" / "__init__.py").is_file():
        print(f"error: no ramify sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    result, report = run(
        workload, args.seed, args.seconds, bool(args.trace), SRC, HERE / "out"
    )
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    for line in report:
        print(f"  {line}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
