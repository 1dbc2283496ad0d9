"""Composition: every registered value of every pluggable axis, crossed.

A run is fully set by its spec, so the pluggable layers compose only if
specs that cross them all run correctly.  The axes are the kernel
backend, the balancing strategy, the cost model, the network topology
and the initial placement; every value comes from its registry, so a
newly registered implementation joins each check below without an edit
here.

* **Full product** — every spec runs the forced churn schedule of
  ``test_chaos`` (a straggle, a failure, a join) and keeps the churn
  invariants, conserves bytes per route class, and records balancing
  only through its own strategy or the forced evacuation; one
  process-pool sweep over the product equals the serial run.
* **Pairwise subsets** — the costlier checks (batched DES path ==
  per-event reference; numerics-on error independent of the schedule
  axes) run on a greedy subset in which every pair of values from two
  different axes appears at least once.  The covering is asserted, not
  assumed.
* **Service** — backend x cost model x topology x autoscaling on
  ``flash_crowd``: batched == per-event, the admission accounting
  closes, and the fleet stays inside its autoscale band.
* **Random churn** — hypothesis draws every axis plus a fault schedule.
"""

import dataclasses
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amt.topology import topology_names
from repro.core.strategies import strategy_names
from repro.costmodel import cost_model_names
from repro.experiments import (PartitionSpec, TopologySpec, build,
                               run_scenario, run_sweep)
from repro.service.runner import run_service, summarize_record
from repro.solver.backends import backend_names

from test_chaos import (FORCED, assert_churn_invariants, base_spec,
                        fault_schedules)

#: backend, balancer, cost model, topology, placement — in spec order
AXES = (tuple(backend_names()), tuple(strategy_names()),
        tuple(cost_model_names()), tuple(topology_names()),
        PartitionSpec.PLACEMENTS)
PRODUCT = list(itertools.product(*AXES))


def combo_spec(backend, balancer, cost_model, topology, placement,
               faults=FORCED):
    """The chaos probe with every axis set.  ``rack_size=2`` puts the
    three initial nodes in two racks, so placement and the route
    classes have something to act on; four steps still reach the
    forced join under every cost model."""
    spec = base_spec(faults=faults, balancer=balancer, steps=4)
    return spec.replace(
        kernel_backend=backend, cost_model=cost_model,
        cluster=dataclasses.replace(
            spec.cluster,
            topology=TopologySpec(kind=topology, rack_size=2)),
        partition=dataclasses.replace(spec.partition, placement=placement))


def _pairs(row):
    return {((i, row[i]), (j, row[j]))
            for i, j in itertools.combinations(range(len(row)), 2)}


def _all_pairs(axes):
    return {((i, a), (j, b))
            for i, j in itertools.combinations(range(len(axes)), 2)
            for a in axes[i] for b in axes[j]}


def pairwise_rows(axes):
    """Greedy pairwise-covering subset of ``product(*axes)``: each row
    is the first product row covering the most still-uncovered pairs."""
    uncovered = _all_pairs(axes)
    candidates = list(itertools.product(*axes))
    rows = []
    while uncovered:
        best = max(candidates, key=lambda row: len(_pairs(row) & uncovered))
        rows.append(best)
        uncovered -= _pairs(best)
    return rows


def assert_pairwise(rows, axes):
    """Every pair of values from two different axes occurs in a row."""
    covered = set().union(*map(_pairs, rows))
    missing = _all_pairs(axes) - covered
    assert not missing, f"value pairs never run together: {sorted(missing)}"


PAIRWISE = pairwise_rows(AXES)


def assert_bytes_conserved(rec):
    """Per-route-class telemetry adds up to the bytes the run sent."""
    sent = (rec.ghost_bytes
            + sum(e["migration_bytes"] for e in rec.balance_events)
            + sum(e["recovery_bytes"] for e in rec.recovery_events))
    assert sum(rec.bytes_by_class.values()) == sent


def assert_routed_through(rec, balancer):
    assert rec.balancer_resolved == balancer
    strategies = {e["strategy"] for e in rec.balance_events}
    assert strategies <= {balancer, "evacuate"}, strategies


def _id(row):
    return "-".join(str(v) for v in row)


@pytest.fixture(scope="module")
def product_records():
    """Serial records of the full product, keyed by axis values."""
    return {row: run_scenario(combo_spec(*row)) for row in PRODUCT}


class TestCovering:
    def test_product_spans_every_registered_name(self):
        for axis, values in enumerate(AXES):
            assert {row[axis] for row in PRODUCT} == set(values)
        assert all(len(values) >= 2 for values in AXES)

    def test_pairwise_rows_cover_every_pair(self):
        assert_pairwise(PAIRWISE, AXES)
        assert len(PAIRWISE) < len(PRODUCT)
        # the last greedy row was picked for a pair no earlier row had
        with pytest.raises(AssertionError, match="never run together"):
            assert_pairwise(PAIRWISE[:-1], AXES)


class TestFullProduct:
    @pytest.mark.parametrize("row", PRODUCT, ids=_id)
    def test_churn_invariants_and_routing(self, product_records, row):
        rec = product_records[row]
        assert_churn_invariants(rec)
        assert_bytes_conserved(rec)
        assert_routed_through(rec, row[1])
        assert (rec.backend_resolved, rec.cost_model_resolved) == \
            (row[0], row[2])
        assert [e["kind"] for e in rec.recovery_events] == ["fail", "join"]
        assert 3 in rec.final_parts  # the joiner was absorbed

    def test_sweep_equals_serial(self, product_records):
        specs = [combo_spec(*row) for row in PRODUCT]
        assert run_sweep(specs, max_workers=2) == list(
            product_records.values())


class TestPairwise:
    @pytest.mark.parametrize("row", PAIRWISE, ids=_id)
    def test_batched_matches_per_event(self, product_records,
                                       run_per_event, row):
        assert (run_per_event(combo_spec(*row)).to_dict()
                == product_records[row].to_dict())

    def test_numerics_independent_of_schedule_axes(self):
        """The schedule decides *when* SD kernels run, never *what* they
        compute: per backend, the error is bit-identical whatever the
        balancer, cost model, topology or placement; across backends it
        agrees to round-off."""
        errors = {}
        for row in PAIRWISE:
            spec = combo_spec(*row).replace(compute_numerics=True,
                                            track_error=True)
            errors.setdefault(row[0], set()).add(
                run_scenario(spec).total_error)
        assert sorted(errors) == sorted(AXES[0])
        for backend, values in errors.items():
            assert len(values) == 1, (backend, values)
        flat = [v for values in errors.values() for v in values]
        assert max(flat) == pytest.approx(min(flat), rel=1e-12)


#: flash_crowd at a tenth of its rate and one job at a time: every
#: spec sheds, every autoscaled spec grows, and even the slowest
#: pricing (sparse x hierarchy) completes a job within the horizon
SERVICE_BASE = build("flash_crowd", rate=1e4, concurrent=1)
SERVICE_AXES = (AXES[0], AXES[2], AXES[3], (True, False))


def service_spec(backend, cost_model, topology, autoscale):
    spec = SERVICE_BASE.replace(
        kernel_backend=backend, cost_model=cost_model,
        cluster=dataclasses.replace(
            SERVICE_BASE.cluster,
            topology=TopologySpec(kind=topology, rack_size=2)))
    return spec if autoscale else spec.replace(autoscale=None)


def _job_lifecycles(events):
    """Per-job event kinds, in order."""
    jobs = {}
    for e in events:
        jobs.setdefault((e["tenant"], e["job"]), []).append(e["kind"])
    return jobs


@pytest.mark.parametrize("row", list(itertools.product(*SERVICE_AXES)),
                         ids=_id)
def test_service_composition(row):
    spec = service_spec(*row)
    rec = run_scenario(spec)
    assert rec.to_dict() == run_service(spec,
                                        wave_batching=False).to_dict()
    assert (rec.backend_resolved, rec.cost_model_resolved) == row[:2]
    summary = summarize_record(rec)
    lifecycles = Counter(tuple(kinds) for kinds in
                         _job_lifecycles(rec.service_events).values())
    assert set(lifecycles) <= {("arrival", "shed"), ("arrival",),
                               ("arrival", "start"),
                               ("arrival", "start", "finish")}, lifecycles
    in_flight = lifecycles[("arrival",)] + lifecycles[("arrival", "start")]
    assert (summary["shed"], summary["completed"], summary["in_flight"]) \
        == (lifecycles[("arrival", "shed")],
            lifecycles[("arrival", "start", "finish")], in_flight)
    assert summary["offered"] == summary["shed"] + summary["admitted"]
    assert summary["admitted"] == summary["completed"] + summary["in_flight"]
    assert summary["shed"] > 0 and summary["completed"] >= 1
    band = spec.autoscale
    if band is None:
        assert rec.scale_events == []
    else:
        assert any(e["action"] == "join" for e in rec.scale_events)
        for e in rec.scale_events:
            assert band.min_nodes <= e["nodes"] <= band.max_nodes, e


@given(row=st.tuples(*(st.sampled_from(values) for values in AXES)),
       faults=fault_schedules())
@settings(max_examples=15, deadline=None)
def test_random_churn_composition(run_per_event, row, faults):
    spec = combo_spec(*row, faults=faults)
    rec = run_scenario(spec)
    assert_churn_invariants(rec)
    assert_bytes_conserved(rec)
    assert_routed_through(rec, row[1])
    assert rec.to_dict() == run_per_event(spec).to_dict()
