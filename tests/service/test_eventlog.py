"""The columnar :class:`EventLog` and its list-of-dicts contract.

The manager appends typed rows; everything downstream (persistence,
summaries, parity asserts) must see exactly the dicts the historical
per-dict path produced.
"""

import json

import pytest

from repro.experiments import build
from repro.service import EventLog, run_service
from repro.service.telemetry import summarize_service


def _sample() -> EventLog:
    log = EventLog(["a", "b"])
    log.arrival(0.0, 0, 0)
    log.arrival(1.5, 1, 0)
    log.shed(1.5, 1, 0, 4)
    log.start(2.0, 0, 0, 2.0)
    log.finish(5.0, 0, 0, 2.0, 5.0, 3.0)
    return log


EXPECTED = [
    {"kind": "arrival", "t": 0.0, "tenant": "a", "job": 0},
    {"kind": "arrival", "t": 1.5, "tenant": "b", "job": 0},
    {"kind": "shed", "t": 1.5, "tenant": "b", "job": 0, "depth": 4},
    {"kind": "start", "t": 2.0, "tenant": "a", "job": 0, "wait": 2.0},
    {"kind": "finish", "t": 5.0, "tenant": "a", "job": 0, "wait": 2.0,
     "makespan": 5.0, "service": 3.0},
]


class TestView:
    def test_len_and_iteration(self):
        log = _sample()
        assert len(log) == 5
        assert list(log) == EXPECTED

    def test_indexing(self):
        log = _sample()
        assert log[0] == EXPECTED[0]
        assert log[4] == EXPECTED[4]
        assert log[-1] == EXPECTED[-1]
        assert log[-5] == EXPECTED[0]

    def test_indexing_out_of_range(self):
        log = _sample()
        with pytest.raises(IndexError):
            log[5]
        with pytest.raises(IndexError):
            log[-6]

    def test_slicing_materializes_dicts(self):
        log = _sample()
        assert log[1:3] == EXPECTED[1:3]
        assert log[::2] == EXPECTED[::2]
        assert log[:] == EXPECTED


class TestEquality:
    def test_eq_eventlog(self):
        assert _sample() == _sample()

    def test_eq_list_of_dicts(self):
        log = _sample()
        assert log == EXPECTED
        assert not (log == EXPECTED[:-1])
        assert not (log == [])

    def test_empty(self):
        log = EventLog(["a"])
        assert len(log) == 0
        assert list(log) == []
        assert log == []
        assert log == EventLog(["a"])

    def test_mismatched_rows_not_equal(self):
        log, other = _sample(), _sample()
        other.arrival(9.0, 0, 1)
        assert not (log == other)

    def test_eq_unrelated_type_falls_through(self):
        assert _sample().__eq__(42) is NotImplemented
        assert _sample() != 42


class TestDownstream:
    def test_summarize_columnar_matches_dicts(self):
        log = _sample()
        assert (summarize_service(log, 10.0)
                == summarize_service(list(log), 10.0))

    def test_summarize_columnar_matches_dicts_many_tenants(self):
        # 64 tenants, thousands of rows: per-tenant-index buckets must
        # reproduce the per-event name lookup exactly
        rec = run_service(build("service_extreme", horizon=2e-4))
        log = rec.service_events
        assert type(log) is EventLog and len(log) > 1000
        assert (summarize_service(log, 2e-4)
                == summarize_service(list(log), 2e-4))

    def test_summarize_skips_tenants_without_events(self):
        log = EventLog(["idle", "busy", "also-idle"])
        log.arrival(0.0, 1, 0)
        summary = summarize_service(log, 1.0)
        assert list(summary["tenants"]) == ["busy"]
        assert summary == summarize_service(list(log), 1.0)

    def test_record_json_round_trip(self):
        rec = run_service(build("service_poisson", horizon=5e-4))
        assert type(rec.service_events) is EventLog
        d = rec.to_dict()
        assert type(d["service_events"]) is list
        round_tripped = json.loads(json.dumps(d))
        assert rec.service_events == round_tripped["service_events"]
        assert (summarize_service(rec.service_events, 5e-4)
                == summarize_service(round_tripped["service_events"], 5e-4))
