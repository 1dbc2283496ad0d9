"""The streaming record writer against the stock ``json.dump`` rendering.

:func:`write_records` streams a record field by field and renders a
columnar :class:`EventLog` straight from its arrays; the file must
still be byte-for-byte what ``json.dump(doc, fh, indent=2,
sort_keys=True)`` over ``RunRecord.to_dict()`` writes.  That rendering
lives here only, as the oracle.
"""

import io
import json
import math
from dataclasses import asdict, replace

import pytest

from repro.experiments import (SCHEMA, RunRecord, build, read_records,
                               run_scenario, write_json, write_records)
from repro.service import EventLog, summarize_record


def _oracle(payload) -> bytes:
    """What the writer wrote before it streamed: one ``json.dump``."""
    doc = {"schema": SCHEMA}
    doc.update(payload)
    buf = io.StringIO()
    json.dump(doc, buf, indent=2, sort_keys=True)
    buf.write("\n")
    return buf.getvalue().encode("utf-8")


def _oracle_records(records) -> bytes:
    return _oracle({"records": [r.to_dict() for r in records]})


def _written(tmp_path, records) -> bytes:
    path = tmp_path / "records.json"
    write_records(str(path), records)
    return path.read_bytes()


def _edge_log() -> EventLog:
    """Rows json renders specially: signed zero, subnormal and huge
    floats, non-finite extras, names that need escaping."""
    log = EventLog(['quote"d', "back\\slash", "ténant-名前", "new\nline",
                    "plain"])
    log.arrival(-0.0, 0, 0)
    log.arrival(5e-324, 1, 1)
    log.shed(1.7976931348623157e308, 2, 2, 0)
    log.start(1e-310, 3, 3, -0.0)
    log.finish(1e300, 2, 4, math.nan, math.inf, -math.inf)
    log.start(2.5, 0, 5, math.nan)
    log.shed(3.0, 1, 6, 2 ** 62)
    log.finish(0.1 + 0.2, 3, 7, 1e-7, 123456789.125, 0.0)
    return log


def _service_record(events) -> RunRecord:
    return RunRecord(scenario="edge", solver="service",
                     spec={"note": "line\nbreak", "nested": {"b": 1,
                                                             "a": [1.5]}},
                     service_events=events)


SCENARIOS = [
    ("service_poisson", {}),
    ("service_bursty", {}),
    ("service_overload", {}),
    ("service_extreme", {"horizon": 2e-4}),
]


class TestByteParity:
    @pytest.mark.parametrize("name,overrides", SCENARIOS,
                             ids=[s[0] for s in SCENARIOS])
    def test_service_scenarios(self, tmp_path, name, overrides):
        rec = run_scenario(build(name, **overrides))
        assert type(rec.service_events) is EventLog
        assert len(rec.service_events) > 0
        assert _written(tmp_path, [rec]) == _oracle_records([rec])

    def test_autoscaled_scenario_has_scale_events(self, tmp_path):
        rec = run_scenario(build("flash_crowd"))
        assert rec.scale_events
        assert _written(tmp_path, [rec]) == _oracle_records([rec])

    def test_mixed_solver_and_service_records(self, tmp_path):
        recs = [run_scenario(build("fig14_load_balance", steps=2)),
                run_scenario(build("service_poisson")),
                run_scenario(build("solve_serial", nx=8, eps_factor=2.0,
                                   steps=1))]
        assert _written(tmp_path, recs) == _oracle_records(recs)

    def test_empty_event_log(self, tmp_path):
        rec = _service_record(EventLog(["a"]))
        assert _written(tmp_path, [rec]) == _oracle_records([rec])

    def test_empty_records(self, tmp_path):
        assert _written(tmp_path, []) == _oracle_records([])

    def test_edge_rows(self, tmp_path):
        rec = _service_record(_edge_log())
        data = _written(tmp_path, [rec])
        assert data == _oracle_records([rec])
        text = data.decode("ascii")  # ensure_ascii escapes the names
        for token in ("NaN", "Infinity", "-Infinity", "-0.0", "5e-324"):
            assert token in text

    def test_non_finite_timestamps(self, tmp_path):
        log = EventLog(["a"])
        log.arrival(math.nan, 0, 0)
        log.arrival(math.inf, 0, 1)
        log.arrival(-math.inf, 0, 2)
        log.arrival(1e308, 0, 3)
        log.arrival(1e308, 0, 4)  # the chunk sum overflows: slow path
        rec = _service_record(log)
        assert _written(tmp_path, [rec]) == _oracle_records([rec])

    def test_plain_list_events(self, tmp_path):
        rec = run_scenario(build("service_poisson"))
        loaded = RunRecord.from_dict(rec.to_dict())
        assert type(loaded.service_events) is list
        assert _written(tmp_path, [loaded]) == _oracle_records([rec])

    def test_write_json_payload(self, tmp_path):
        payload = {"zeta": [1, {"y": None, "x": "é"}], "alpha": math.inf,
                   "mid": {}, "empty": [], "text": "a\nb"}
        path = tmp_path / "payload.json"
        write_json(str(path), payload)
        assert path.read_bytes() == _oracle(payload)


class TestIterJson:
    @pytest.mark.parametrize("level", [0, 1, 3])
    def test_matches_dumps_reindented(self, level):
        log = _edge_log()
        text = json.dumps(list(log), indent=2, sort_keys=True)
        expected = text.replace("\n", "\n" + "  " * level)
        assert "".join(log.iter_json(level)) == expected

    def test_empty(self):
        assert list(EventLog(["a"]).iter_json(4)) == ["[]"]

    def test_chunks_are_bounded(self):
        log = EventLog(["a"])
        for j in range(10000):
            log.arrival(j * 1e-6, 0, j)
        chunks = list(log.iter_json(2))
        assert len(chunks) >= 3
        assert max(len(c) for c in chunks) < len("".join(chunks)) / 2
        assert "".join(chunks) == json.dumps(
            list(log), indent=2, sort_keys=True).replace("\n", "\n    ")


class TestContract:
    def test_round_trip(self, tmp_path):
        recs = [run_scenario(build("service_bursty")),
                run_scenario(build("fig14_load_balance", steps=1))]
        path = tmp_path / "records.json"
        write_records(str(path), recs)
        assert read_records(str(path)) == recs

    def test_writer_never_builds_event_dicts(self, tmp_path, monkeypatch):
        rec = run_scenario(build("service_overload"))
        expected = _oracle_records([rec])

        def no_dicts(self, i):
            raise AssertionError("EventLog._event called while writing")

        monkeypatch.setattr(EventLog, "_event", no_dicts)
        assert _written(tmp_path, [rec]) == expected

    def test_to_dict_does_not_deep_copy_the_log(self, monkeypatch):
        rec = run_scenario(build("service_poisson"))
        # the dict of the same record holding its events as plain dicts
        expected = asdict(replace(rec,
                                  service_events=list(rec.service_events)))

        def no_copy(self, memo):
            raise AssertionError("EventLog deep-copied")

        monkeypatch.setattr(EventLog, "__deepcopy__", no_copy,
                            raising=False)
        d = rec.to_dict()
        assert d == expected
        assert type(d["service_events"]) is list
        assert summarize_record(RunRecord.from_dict(d)) == \
            summarize_record(rec)


class TestAtomicWrite:
    def test_failure_mid_write_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "records.json"
        path.write_text("previous contents\n")
        rec = run_scenario(build("service_poisson"))

        def broken(self, level=0):
            yield "[\n"
            raise RuntimeError("disk full")

        monkeypatch.setattr(EventLog, "iter_json", broken)
        with pytest.raises(RuntimeError, match="disk full"):
            write_records(str(path), [rec])
        assert path.read_text() == "previous contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["records.json"]

    def test_failure_leaves_no_file(self, tmp_path):
        path = tmp_path / "payload.json"
        with pytest.raises(TypeError):
            write_json(str(path), {"bad": object()})
        assert list(tmp_path.iterdir()) == []

    def test_overwrites_existing_file(self, tmp_path):
        path = tmp_path / "payload.json"
        path.write_text("x" * 10000)
        write_json(str(path), {"a": 1})
        assert path.read_bytes() == _oracle({"a": 1})
