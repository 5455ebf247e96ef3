"""Tests for repro.experiments.trace and repro.cli."""

import csv
import io
import json

import pytest

from repro.cli import FIGURES, build_parser, main
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.experiments.trace import (
    records_to_rows,
    scenario_summary,
    to_csv_text,
    to_json_text,
    write_csv,
)


@pytest.fixture(scope="module")
def result():
    return run_scenario(ScenarioConfig(max_steps=5, seed=0))


class TestTrace:
    def test_rows_match_records(self, result):
        rows = records_to_rows(result.records)
        assert len(rows) == 5
        assert rows[0]["step"] == 0
        assert rows[0]["io_time"] == result.records[0].io_time

    def test_csv_roundtrip(self, result):
        text = to_csv_text(result.records)
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == 5
        assert float(parsed[2]["io_time"]) == pytest.approx(result.records[2].io_time)

    def test_write_csv(self, result, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(result.records, str(path))
        assert path.exists()
        assert len(path.read_text().splitlines()) == 6  # header + 5 rows

    def test_json(self, result):
        data = json.loads(to_json_text(result.records))
        assert len(data) == 5
        assert data[0]["target_rung"] == result.records[0].target_rung

    def test_summary_keys(self, result):
        s = scenario_summary(result)
        assert s["steps"] == 5
        assert s["policy"] == "cross-layer"
        assert s["mean_io_time"] == pytest.approx(result.mean_io_time)
        # Summary must be JSON-serialisable.
        json.dumps(s)


class TestCliParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scenario_defaults(self):
        args = build_parser().parse_args(["scenario"])
        assert args.app == "xgc" and args.policy == "cross-layer"

    def test_figure_name_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_registry_covers_all_eval_figures(self):
        expected = {f"fig{n:02d}" for n in (1, 2, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)}
        assert expected | {
            "headline",
            "threetier",
            "campaign",
            "resilience",
            "stability",
            "qosplane",
            "cluster",
        } == set(FIGURES)


class TestCliCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig08" in out and "headline" in out

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Lustre" in out and "Tango" in out and "768 MB" in out

    def test_scenario_json(self, capsys):
        assert main(["scenario", "--app", "cfd", "--steps", "4", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["steps"] == 4 and data["app"] == "cfd"

    def test_scenario_text_and_csv(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        code = main(["scenario", "--steps", "3", "--csv", str(path)])
        assert code == 0
        assert "mean I/O time" in capsys.readouterr().out
        assert path.exists()

    def test_scenario_estimator_flag(self, capsys):
        assert main(["scenario", "--steps", "3", "--estimator", "mean", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["steps"] == 3

    def test_figure_fast(self, capsys):
        assert main(["figure", "fig05", "--fast"]) == 0
        assert "weight vs cardinality" in capsys.readouterr().out

    def test_stability_json(self, capsys):
        code = main(["stability", "--steps", "4", "--controllers", "pid",
                     "--inputs", "step", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["rows"]) == 1
        assert data["rows"][0]["controller"] == "pid"
        assert data["rows"][0]["reference"] == "step"

    def test_stability_rejects_unknown_controller(self, capsys):
        assert main(["stability", "--controllers", "lqr"]) == 2
        assert "unknown controller" in capsys.readouterr().err

    def test_figure_out_file(self, capsys, tmp_path):
        path = tmp_path / "fig05.txt"
        assert main(["figure", "fig05", "--fast", "--out", str(path)]) == 0
        assert "weight vs cardinality" in path.read_text()

    def test_export_command(self, capsys, tmp_path):
        import json

        path = tmp_path / "fig05.json"
        assert main(["export", "fig05", str(path), "--fast"]) == 0
        data = json.loads(path.read_text())
        assert "weight_vs_cardinality" in data


class TestJsonNativeLists:
    """Regression: JSON output used to ship ``weights``/``bucket_times``
    as ``";"``-joined strings because the row flattener was shared with
    the CSV writer."""

    def test_json_keeps_native_lists(self, result):
        data = json.loads(to_json_text(result.records))
        for row, rec in zip(data, result.records):
            assert row["weights"] == list(rec.weights)
            assert row["bucket_times"] == pytest.approx(list(rec.bucket_times))
            assert all(isinstance(w, int) for w in row["weights"])

    def test_csv_still_flattens(self, result):
        parsed = list(csv.DictReader(io.StringIO(to_csv_text(result.records))))
        rec = next(r for r in result.records if len(r.weights) > 1)
        row = parsed[rec.step]
        assert row["weights"] == ";".join(str(w) for w in rec.weights)
        assert ";" in row["bucket_times"]

    def test_roundtrip_csv_matches_json(self, result):
        """Both formats carry the same values, just shaped differently."""
        data = json.loads(to_json_text(result.records))
        parsed = list(csv.DictReader(io.StringIO(to_csv_text(result.records))))
        for jrow, crow in zip(data, parsed):
            assert [int(w) for w in crow["weights"].split(";") if w] == jrow["weights"]
            assert float(crow["io_time"]) == pytest.approx(jrow["io_time"])


class TestCliObservability:
    def test_scenario_trace_and_metrics_out(self, capsys, tmp_path):
        from repro.obs import OBS
        from repro.obs.export import read_events_jsonl

        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main([
            "scenario", "--steps", "3", "--json",
            "--trace-out", str(trace), "--metrics-out", str(metrics),
        ])
        assert code == 0
        events = read_events_jsonl(str(trace))
        names = {e["name"] for e in events}
        assert {"controller.decision", "cgroup.weight_change", "scenario"} <= names
        snap = json.loads(metrics.read_text())
        assert snap["controller.decisions"]["series"][0]["value"] == 3
        # The CLI restores the disabled default afterwards.
        assert not OBS.enabled and len(OBS.tracer) == 0

    def test_metrics_out_csv(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.csv"
        assert main(["scenario", "--steps", "2", "--json",
                     "--metrics-out", str(metrics)]) == 0
        assert metrics.read_text().startswith("metric,kind,labels")

    def test_figure_accepts_obs_flags(self, capsys, tmp_path):
        trace = tmp_path / "fig.jsonl"
        assert main(["figure", "fig05", "--fast", "--trace-out", str(trace)]) == 0
        assert trace.exists()

    def test_plain_run_stays_disabled(self, capsys):
        from repro.obs import OBS

        assert main(["scenario", "--steps", "2", "--json"]) == 0
        assert not OBS.enabled and len(OBS.tracer) == 0
