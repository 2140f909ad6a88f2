"""Round-trip tests for the bench trajectory store (ISSUE 6 satellite)."""

import json
from pathlib import Path

import pytest

from repro.bench import (SCHEMA_VERSION, append_run, baseline_run,
                         latest_run, read_trajectory)
from repro.exceptions import SpecificationError

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestAppendReadRoundTrip:
    def test_missing_file_reads_empty(self, tmp_path):
        trajectory = read_trajectory(tmp_path / "BENCH.json", "compiler")
        assert trajectory == {"schema": SCHEMA_VERSION,
                              "benchmark": "compiler", "runs": []}

    def test_append_creates_and_accumulates(self, tmp_path):
        path = tmp_path / "BENCH.json"
        append_run(path, {"mode": "full", "label": "baseline",
                          "instances": [{"name": "grid", "wall_s": 9.0}]},
                   benchmark="compiler")
        append_run(path, {"mode": "full",
                          "instances": [{"name": "grid", "wall_s": 1.0}]},
                   benchmark="compiler")
        trajectory = read_trajectory(path)
        assert trajectory["schema"] == SCHEMA_VERSION
        assert trajectory["benchmark"] == "compiler"
        assert [run["run_id"] for run in trajectory["runs"]] == [1, 2]
        assert trajectory["runs"][0]["label"] == "baseline"
        # every appended record is stamped with provenance
        for run in trajectory["runs"]:
            assert run["schema"] == SCHEMA_VERSION
            assert run["recorded_at"]
            assert run["environment"]["python"]

    def test_round_trip_preserves_payload(self, tmp_path):
        path = tmp_path / "BENCH.json"
        payload = {"mode": "smoke", "instances": [
            {"name": "line-1024", "wall_s": 0.5, "depth": 42, "swaps": 7}]}
        append_run(path, dict(payload))
        run = read_trajectory(path)["runs"][0]
        for key, value in payload.items():
            assert run[key] == value

    def test_file_is_plain_json(self, tmp_path):
        path = tmp_path / "BENCH.json"
        append_run(path, {"mode": "full"})
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["runs"][0]["mode"] == "full"


class TestSchemaGuard:
    def test_legacy_report_is_rejected(self, tmp_path):
        # The pre-trajectory single-report format is no longer migrated.
        path = tmp_path / "BENCH_solver.json"
        legacy = {"generated_by": "scripts/bench_solver.py",
                  "mode": "full", "instances": [{"name": "grid"}],
                  "acceptance": {"ok": True}}
        path.write_text(json.dumps(legacy), encoding="utf-8")
        with pytest.raises(SpecificationError, match="schema"):
            read_trajectory(path, "solver")

    def test_append_after_legacy_is_rejected_and_keeps_file(self, tmp_path):
        path = tmp_path / "BENCH_solver.json"
        text = json.dumps({"mode": "full", "instances": []})
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SpecificationError, match="schema"):
            append_run(path, {"mode": "full"}, benchmark="solver")
        assert path.read_text(encoding="utf-8") == text

    def test_non_object_document_is_rejected(self, tmp_path):
        path = tmp_path / "BENCH.json"
        path.write_text("[]", encoding="utf-8")
        with pytest.raises(SpecificationError, match="schema"):
            read_trajectory(path)

    def test_newer_schema_is_rejected(self, tmp_path):
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps({"schema": SCHEMA_VERSION + 1,
                                    "runs": []}), encoding="utf-8")
        with pytest.raises(SpecificationError, match="schema"):
            read_trajectory(path)

    @pytest.mark.parametrize("name, kind", [
        ("BENCH_compiler.json", "compiler"), ("BENCH_solver.json", "solver")])
    def test_committed_trajectories_load_unchanged(self, name, kind):
        path = REPO_ROOT / name
        document = json.loads(path.read_text(encoding="utf-8"))
        assert read_trajectory(path, kind) == document


class TestRunSelection:
    def _trajectory(self, tmp_path):
        path = tmp_path / "BENCH.json"
        append_run(path, {"mode": "full", "label": "baseline",
                          "wall_s": 9.0})
        append_run(path, {"mode": "smoke", "wall_s": 0.2})
        append_run(path, {"mode": "full", "wall_s": 1.0})
        return read_trajectory(path)

    def test_latest_run(self, tmp_path):
        trajectory = self._trajectory(tmp_path)
        assert latest_run(trajectory)["wall_s"] == 1.0
        assert latest_run(trajectory, mode="smoke")["wall_s"] == 0.2
        assert latest_run({"runs": []}) is None

    def test_baseline_run_prefers_label(self, tmp_path):
        trajectory = self._trajectory(tmp_path)
        assert baseline_run(trajectory)["label"] == "baseline"
        assert baseline_run(trajectory, mode="full")["wall_s"] == 9.0

    def test_baseline_falls_back_to_earliest(self, tmp_path):
        path = tmp_path / "BENCH.json"
        append_run(path, {"mode": "full", "wall_s": 5.0})
        append_run(path, {"mode": "full", "wall_s": 1.0})
        trajectory = read_trajectory(path)
        assert baseline_run(trajectory)["wall_s"] == 5.0
        assert baseline_run(trajectory, mode="smoke") is None
