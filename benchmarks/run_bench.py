#!/usr/bin/env python3
"""Run the microbenchmark suite headlessly and write ``BENCH_micro.json``.

The perf-regression entry point: no pytest session, no fixtures — just
median wall-times per benchmark plus machine/commit metadata, written to
the repo root (or ``--output``) so the perf trajectory of the codebase
can be tracked commit over commit.  Equivalent to ``repro bench``.

    python benchmarks/run_bench.py            # full run, 5 repeats
    python benchmarks/run_bench.py --repeats 3 --grid 256
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.experiments.bench import (  # noqa: E402
    BENCH_FILENAME,
    run_microbench,
    write_report,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=str(ROOT / BENCH_FILENAME),
        help=f"report path (default: <repo root>/{BENCH_FILENAME})",
    )
    parser.add_argument("--repeats", type=int, default=5, help="timed repeats per benchmark")
    parser.add_argument("--grid", type=int, default=512, help="square grid edge length")
    parser.add_argument("--levels", type=int, default=5, help="decomposition levels")
    args = parser.parse_args(argv)

    def progress(name: str, row: dict) -> None:
        extra = ""
        if "events_per_sec" in row:
            extra = f"  ({row['events_per_sec']:,.0f} events/s)"
        print(
            f"  {name:32s} median {row['median_s'] * 1e3:9.2f} ms"
            f"  (min {row['min_s'] * 1e3:.2f}){extra}"
        )

    print(f"microbench: {args.grid}x{args.grid}, {args.levels} levels, "
          f"{args.repeats} repeats")
    report = run_microbench(
        repeats=args.repeats,
        grid=(args.grid, args.grid),
        levels=args.levels,
        progress=progress,
    )
    path = write_report(report, args.output)
    print(f"report written to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
