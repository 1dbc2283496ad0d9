"""RunRecord serialization and the JSON file helpers."""

import json

import pytest

from repro.experiments import (SCHEMA, RunRecord, build, read_records,
                               run_scenario, write_json, write_records)


def _record() -> RunRecord:
    return run_scenario(build("fig14_load_balance", steps=2))


class TestRunRecord:
    def test_dict_round_trip(self):
        rec = _record()
        assert RunRecord.from_dict(rec.to_dict()) == rec

    def test_json_round_trip_is_exact(self):
        rec = _record()
        text = json.dumps(rec.to_dict(), indent=2, sort_keys=True)
        assert RunRecord.from_dict(json.loads(text)) == rec

    def test_dict_holds_plain_json_types(self):
        # the sweep runner's bit-identity guarantee rests on this
        doc = _record().to_dict()
        json.dumps(doc)  # must not raise
        assert isinstance(doc["final_parts"], list)
        assert all(isinstance(p, int) for p in doc["final_parts"])
        assert all(isinstance(d, float) for d in doc["step_durations"])

    def test_balancing_fields(self):
        rec = _record()
        assert rec.sds_moved > 0
        assert rec.migration_bytes > 0
        # the corner distribution balances in the very first sweep
        assert rec.parts_events and rec.parts_events[0][0] == 0
        assert len(rec.imbalance_history) == 2

    def test_balance_events_telemetry(self):
        """Per-event telemetry: one row per balancer invocation, and the
        aggregate counters are the sums over events."""
        rec = _record()
        assert len(rec.balance_events) == 2  # interval=1, 2 steps
        first = rec.balance_events[0]
        assert set(first) == {"step", "strategy", "sds_moved",
                              "migration_bytes", "imbalance_before",
                              "imbalance_after", "recovery"}
        assert first["step"] == 0
        assert first["recovery"] is False  # no churn in this scenario
        assert first["strategy"] == rec.balancer_resolved
        assert first["sds_moved"] > 0
        assert first["migration_bytes"] > 0
        # the first sweep drains the corner hotspot
        assert first["imbalance_after"] < first["imbalance_before"]
        assert rec.sds_moved == sum(e["sds_moved"]
                                    for e in rec.balance_events)
        assert rec.migration_bytes == sum(e["migration_bytes"]
                                          for e in rec.balance_events)

    def test_balancer_resolved_recorded(self):
        assert _record().balancer_resolved == "tree"  # the auto default
        rec = run_scenario(build("fig14_load_balance",
                                 steps=1).with_balancer("greedy"))
        assert rec.balancer_resolved == "greedy"

    def test_serial_record_defaults(self):
        rec = run_scenario(build("solve_serial", nx=8, eps_factor=2.0,
                                 steps=2))
        assert rec.solver == "serial"
        assert rec.makespan == 0.0
        assert rec.step_durations == []
        assert rec.total_error is not None


class TestFiles:
    def test_write_and_read_records(self, tmp_path):
        recs = [_record(), run_scenario(build("solve_serial", nx=8,
                                              eps_factor=2.0, steps=1))]
        path = tmp_path / "out.json"
        write_records(str(path), recs)
        doc = json.loads(path.read_text())
        assert doc["schema"] == SCHEMA
        assert read_records(str(path)) == recs

    def test_read_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/v9", "records": []}))
        with pytest.raises(ValueError):
            read_records(str(path))

    def test_write_json_stamps_schema(self, tmp_path):
        path = tmp_path / "payload.json"
        write_json(str(path), {"hello": [1, 2, 3]})
        doc = json.loads(path.read_text())
        assert doc["schema"] == SCHEMA
        assert doc["hello"] == [1, 2, 3]
