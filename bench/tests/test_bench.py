"""Contract tests for ``bench/run.py`` and ``bench/compare.py``.

The CLI runs use ``--quick`` (a small fixed unit count per workload), so
the whole module takes about a minute.  Run with
``PYTHONPATH=src python -m pytest bench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import compare
import run

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _bench(*args: str) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-2].startswith("diagnostics ")
    return json.loads(lines[-1]), json.loads(lines[-2].split(" ", 1)[1])


@pytest.fixture(scope="module")
def quick_all():
    return _bench("--workload", "all", "--seed", "0", "--quick")


@pytest.fixture(scope="module")
def quick_all_traced():
    return _bench("--workload", "all", "--seed", "0", "--quick", "--trace", "1")


def test_spec_is_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in SPEC["end_to_end"])
    assert all(0 <= m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]


def test_every_end_to_end_metric_for_every_workload(quick_all):
    result, _ = quick_all
    assert result["correct"] and result["failed"] == 0
    expected = {
        f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC["end_to_end"]
    }
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_p90_only_with_ten_samples_beyond_it(quick_all):
    _, diag = quick_all
    assert all("unit_p90_s" not in diag["runs"][w] for w in WORKLOADS)
    assert run.p90([1.0] * (run.P90_MIN_UNITS - 1)) is None
    values = [float(v) for v in range(1, run.P90_MIN_UNITS + 1)]
    assert sum(v > run.p90(values) for v in values) >= 10


def test_every_per_layer_metric_for_every_workload(quick_all_traced):
    result, _ = quick_all_traced
    assert result["correct"] and result["failed"] == 0
    expected = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_traced_digest_equals_untraced_digest(quick_all, quick_all_traced):
    _, diag = quick_all
    _, traced = quick_all_traced
    for w in WORKLOADS:
        runs = traced["runs"][w]
        assert runs["result_digest"] == runs["untraced_digest"]
        assert runs["result_digest"] == diag["runs"][w]["result_digest"]


def test_self_times_sum_to_traced_wall(quick_all_traced):
    result, diag = quick_all_traced
    for w in WORKLOADS:
        total = sum(
            v["value"] for k, v in result["metrics"].items()
            if k.startswith(f"{w}.") and k.endswith(".self_s")
        )
        wall = diag["runs"][w]["traced_unit_mean_s"]
        assert total == pytest.approx(wall, rel=0.02)


def test_same_seed_same_digest_other_seed_other_digest(quick_all):
    _, diag = quick_all
    _, again = _bench("--workload", "scenario_sweep", "--seed", "0", "--quick")
    _, other = _bench("--workload", "scenario_sweep", "--seed", "1", "--quick")
    assert again["result_digest"] == diag["runs"]["scenario_sweep"]["result_digest"]
    assert other["result_digest"] != again["result_digest"]


class _Instant:
    """A workload whose units take no time."""

    rss_units = 5

    def inputs(self, i):
        return i

    def run(self, i):
        return i

    def check(self, i, out):
        return out == i

    def digest(self, out):
        return str(out)


def test_timed_run_completes_rss_units_before_stopping():
    p = run.measure(_Instant(), 0.01, seconds=1e-9)
    assert len(p.raw) == _Instant.rss_units and p.failed == 0
    assert p.peak_rss_mb is not None and p.peak_rss_mb > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


#: Runs argv[1:] as a Linux child subreaper, so any process the command
#: leaves behind becomes this script's child; prints the command's exit
#: code and whether such an orphan showed up, then reaps the orphans.
_SUBREAPER = """
import ctypes, os, subprocess, sys
ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
try:
    os.waitpid(-1, os.WNOHANG)
    orphans = True
except ChildProcessError:
    orphans = False
while orphans:
    try:
        os.waitpid(-1, 0)
    except ChildProcessError:
        break
print(code, orphans)
"""


@pytest.mark.parametrize("workload", ["sweep_pool", "cluster_rounds"])
def test_a_pooled_run_leaves_no_process_behind(workload):
    done = subprocess.run(
        [sys.executable, "-c", _SUBREAPER, sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", "0", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.stdout.split() == ["0", "False"], done.stderr


_STEADY = [10.0, 10.1, 9.9, 10.0, 10.05] * 2


@pytest.mark.parametrize(
    "base, head, expected",
    [
        ([10.0] * 9 + [10.2], [9.0] * 10, "improved"),
        (_STEADY, [10.02, 10.1, 9.95, 10.0, 10.0] * 2, "unchanged"),
        # 5 % worse in every pair: below the 10 % bound, but resolved by the pairs.
        (_STEADY, [1.05 * v for v in _STEADY], "regressed"),
        (_STEADY, [11.5, 11.6, 11.4, 11.5, 11.55] * 2, "regressed"),
        # 8 % worse in 8/10 pairs: too few pairs, and within the bound.
        (_STEADY, [1.08 * v for v in _STEADY[:8]] + _STEADY[8:], "unchanged"),
        ([10.0, 14.0, 7.0, 12.0, 9.0] * 2, [10.5, 13.0, 8.0, 12.5, 9.5] * 2, "unresolved"),
    ],
)
def test_compare_verdicts(base, head, expected):
    assert compare.verdict(base, head, 0.1, "lower") == expected
