"""Compare two checkouts on the benchmark's end-to-end metrics.

Runs ``PAIRS`` alternating pairs (base first on even pairs, head first
on odd ones) of ``bench/run.py --trace 0`` for every workload in each
checkout, pair ``k`` using seed ``k`` on both sides, saves every run's
JSON in ``--runs-dir``, then gives each (workload, metric) one verdict:

* ``improved``   — head wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the base's IQR;
* ``regressed``  — base wins at least 9/10 of the pairs and the medians
  differ by more than the base's IQR, or head's median is worse than
  base's by more than the bound (a share of base's median);
* ``unresolved`` — either side's IQR/median exceeds the metric's bound,
  unless every head run reads better than every base run;
* ``unchanged``  — otherwise.

The paired rules resolve a change smaller than the bound on a workload
whose spread is far below it.  Bounds and directions come from the
head's ``BENCHMARK.json``; each run lasts its ``run_seconds``.  Exits 1
on any regression or when head fails a larger share of its units.

    python3 bench/compare.py BASE_DIR HEAD_DIR [--runs-dir DIR]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

SIDES = ("base", "head")
#: Alternating pairs per workload; pair ``k`` runs seed ``k``.
PAIRS = 10


def iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(base: list[float], head: list[float], bound: float, better: str) -> str:
    """The verdict for paired runs ``base[k]`` / ``head[k]`` of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    mb, mh = statistics.median(base), statistics.median(head)
    gain = sign * (mb - mh)  # > 0: head is better
    need = math.ceil(0.9 * len(base))
    if sum(sign * (b - h) > 0 for b, h in zip(base, head)) >= need and gain > iqr(base):
        return "improved"
    if sum(sign * (h - b) > 0 for b, h in zip(base, head)) >= need and -gain > iqr(base):
        return "regressed"
    all_better = max(sign * h for h in head) < min(sign * b for b in base)
    spread = max(iqr(base) / abs(mb), iqr(head) / abs(mh))
    if spread > bound and not all_better:
        return "unresolved"
    if -gain > bound * abs(mb):
        return "regressed"
    return "unchanged"


def run_pairs(base: str, head: str, runs_dir: str, spec: dict) -> dict:
    """``{(workload, side): [result of pair 0, 1, ...]}``."""
    dirs = dict(zip(SIDES, (base, head)))
    runs: dict = {}
    for k in range(PAIRS):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for name in (w["name"] for w in spec["workloads"]):
            for side in order:
                out = os.path.join(runs_dir, f"{side}_{name}_{k}.json")
                cmd = [sys.executable, "bench/run.py", "--workload", name, "--seed", str(k),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0", "--out", out]
                subprocess.run(cmd, cwd=dirs[side], check=True, stdout=subprocess.DEVNULL,
                               timeout=900)
                with open(out) as fh:
                    runs.setdefault((name, side), []).append(json.load(fh)["result"])
                print(f"pair {k} {side} {name} done", file=sys.stderr)
    return runs


def judge(runs: dict, spec: dict) -> int:
    status = 0
    for name in (w["name"] for w in spec["workloads"]):
        sides = {s: runs[(name, s)] for s in SIDES}
        fails = {
            s: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
            for s, rs in sides.items()
        }
        print(f"{name}: failed share base={fails['base']:.4f} head={fails['head']:.4f}")
        if fails["head"] > fails["base"]:
            print(f"  head fails more units than base on {name}")
            status = 1
        for m in spec["end_to_end"]:
            vals = {s: [r["metrics"][m["name"]]["value"] for r in sides[s]] for s in SIDES}
            v = verdict(vals["base"], vals["head"], m["bound"], m["better"])
            status |= v == "regressed"
            cells = "  ".join(
                f"{s} {statistics.median(vals[s]):.5g} (iqr {iqr(vals[s]):.3g})" for s in SIDES
            )
            print(f"  {m['name']:<12} {cells}  bound {m['bound']:.0%}  -> {v}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="base checkout (root of the repository)")
    ap.add_argument("head", help="head checkout (its BENCHMARK.json sets the bounds)")
    ap.add_argument("--runs-dir", help="where each run's JSON goes (default: a new temp dir)")
    args = ap.parse_args(argv)
    runs_dir = os.path.abspath(args.runs_dir or tempfile.mkdtemp(prefix="bench-runs-"))
    os.makedirs(runs_dir, exist_ok=True)
    print(f"runs in {runs_dir}", file=sys.stderr)
    with open(os.path.join(args.head, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return judge(run_pairs(args.base, args.head, runs_dir, spec), spec)


if __name__ == "__main__":
    sys.exit(main())
