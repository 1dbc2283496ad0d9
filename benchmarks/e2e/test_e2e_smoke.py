"""Smoke test of the end-to-end benchmark: every workload shrunk, one
timed rep and one traced rep each, through the worker's own code
(in-process, so the whole module runs in a few seconds)."""

import json
import os
import sys

import pytest

import run as e2e
import worker
from tracer import LAYERS, layer_self_from_events
from workloads import WORKLOADS

SPEC = json.loads((e2e.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _repro_bindings():
    """Every attribute of every loaded ``repro`` module and class."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            out[(name, key)] = value
            if isinstance(value, type):
                for attr, member in list(vars(value).items()):
                    out[(name, key, attr)] = member
    return out


@pytest.fixture(scope="module")
def reps(tmp_path_factory):
    """``{workload: (timed rep, traced rep)}``, with the worker's
    environment: no ``REPRO_*`` overrides, the DES profile on only for
    the traced rep."""
    tmp = tmp_path_factory.mktemp("e2e")
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        for key in [k for k in os.environ if k.startswith("REPRO_")]:
            mp.delenv(key)
        timed = {w: worker.run_rep(w, 0, str(tmp / f"{w}.json"), shrink=True)
                 for w in WORKLOADS}
        before = _repro_bindings()
        mp.setenv("REPRO_DES_PROFILE", "1")
        for pid, w in enumerate(WORKLOADS, start=1):
            traced = worker.run_rep(
                w, 0, str(tmp / f"{w}-traced.json"), shrink=True, trace=True,
                trace_out=str(tmp / f"{w}-spans.json"), pid=pid)
            traced["spans"] = json.loads(
                (tmp / f"{w}-spans.json").read_text(encoding="utf-8"))
            out[w] = (timed[w], traced)
        after = _repro_bindings()
    out["_leaked"] = [k for k in before if after.get(k) is not before[k]]
    out["_dir"] = tmp
    return out


def _self_reference(timed):
    """A reference that pins each shrunk workload to its own timed rep."""
    return {"seed": 0, "workloads": {
        w: {"digest": timed[w]["digest"],
            "total_error": timed[w]["total_error"]} for w in timed}}


def _judged(reps, reference):
    for w in WORKLOADS:
        pair = [dict(r) for r in reps[w]]
        e2e.judge(pair, w, 0, reference)
        yield w, pair


def test_every_benchmark_metric_is_emitted_with_its_unit(reps):
    reference = _self_reference({w: reps[w][0] for w in WORKLOADS})
    for w, (timed, traced) in _judged(reps, reference):
        assert timed["failure"] is None and traced["failure"] is None, w
        e2e_metrics = e2e.end_to_end([timed])
        layer_metrics = e2e.per_layer(traced, timed["window_s"])
        for section, emitted in (("end_to_end", e2e_metrics),
                                 ("per_layer", layer_metrics)):
            for metric in SPEC[section]:
                assert metric["name"] in emitted, (w, metric["name"])
                assert emitted[metric["name"]]["unit"] == metric["unit"]
        assert e2e_metrics["failed_frac"]["median"] == 0
        for metric in SPEC["end_to_end"]:
            assert e2e_metrics[metric["name"]]["median"] > 0, (w, metric)


def test_self_times_plus_unattributed_equal_traced_wall(reps):
    for w in WORKLOADS:
        traced = reps[w][1]
        layers = e2e.per_layer(traced, None)
        total = (sum(layers[f"{layer}.self_s"]["value"] for layer in LAYERS)
                 + layers["trace.unattributed_s"]["value"])
        wall = layers["trace.wall_s"]["value"]
        assert total == pytest.approx(wall, rel=0.01), w
        assert layers["trace.unattributed_s"]["value"] >= -1e-9, w


def test_chrome_trace_sums_match_the_layer_table(reps):
    for pid, w in enumerate(WORKLOADS, start=1):
        traced = reps[w][1]
        events = traced["spans"]
        assert {e["ph"] for e in events} == {"M", "X"}
        sums = layer_self_from_events(events)
        for layer, row in traced["trace"]["layers"].items():
            assert sums.get((pid, layer), 0.0) == pytest.approx(
                row["self_s"], rel=1e-6, abs=1e-9), (w, layer)


def test_tracing_leaves_repro_as_it_found_it(reps):
    assert reps["_leaked"] == []


def test_tampered_reference_digest_fails_every_rep(reps):
    reference = _self_reference({w: reps[w][0] for w in WORKLOADS})
    for entry in reference["workloads"].values():
        entry["digest"] = "0" * 64
    for w, pair in _judged(reps, reference):
        assert e2e.end_to_end(pair)["failed_frac"]["median"] == 1.0, w
        assert "wall_s" not in e2e.end_to_end(pair)


def test_invariant_checker_catches_lost_bytes(reps):
    # the churn record has ghost, migration and recovery traffic
    path = reps["_dir"] / "churn_rebalance.json"
    record = json.loads(path.read_text(encoding="utf-8"))["records"][0]
    assert record["recovery_events"] and record["balance_events"]
    assert worker.check_invariants(record, None) == []
    record["bytes_by_class"]["remote"] -= 1
    record["busy_total"][0] = 10 * record["makespan"]
    assert len(worker.check_invariants(record, None)) == 2


@pytest.mark.parametrize("fail_at,attempted", [(0, 1), (3, 3)])
def test_a_raising_rep_ends_its_workload_and_is_reported(monkeypatch,
                                                         fail_at, attempted):
    # spawn #0 is the warm-up, which counts as a rep only if it fails;
    # the first spawn to raise ends the workload, traced process included
    digest = json.loads(e2e.REFERENCE.read_text(encoding="utf-8"))[
        "workloads"]["schedule_extreme"]["digest"]
    calls = []

    def fake_spawn(workload, seed, record, shrink=False, trace=False,
                   trace_out=None, pid=1):
        calls.append(trace)
        if len(calls) - 1 == fail_at:
            return {"error": "exit 1: RuntimeError"}
        return {"traced": trace, "wall_s": 1.0, "setup_s": 1.0,
                "window_s": 1.0, "peak_rss_mb": 1.0, "work_units": 1.0,
                "digest": digest, "total_error": None, "violations": []}

    monkeypatch.setattr(e2e, "spawn", fake_spawn)
    result = e2e.run(["schedule_extreme"], 0, None, True,
                     None)["schedule_extreme"]
    assert len(calls) == fail_at + 1 and True not in calls
    assert (result["attempted"], result["failed"]) == (attempted, 1)
    line = e2e.contract_line(result, trace=False)
    assert (line["correct"], line["attempted"], line["failed"]) == (
        False, attempted, 1)


def test_worker_environment_drops_repro_overrides():
    parent = {"REPRO_COST_MODEL": "hierarchy", "REPRO_DES_PROFILE": "1",
              "PATH": "/bin"}
    env = e2e.worker_env(parent, trace=False)
    assert not [k for k in env if k.startswith("REPRO_")]
    assert env["PATH"] == "/bin" and env["PYTHONHASHSEED"] == "0"
    assert all(env[k] == "1" for k in ("OMP_NUM_THREADS",
                                       "OPENBLAS_NUM_THREADS",
                                       "MKL_NUM_THREADS"))
    traced = e2e.worker_env(parent, trace=True)
    assert {k for k in traced if k.startswith("REPRO_")} == {
        "REPRO_DES_PROFILE"}
