"""Chaos/determinism harness: random churn x every registered balancer.

The elastic-cluster invariants (DESIGN.md substitution 4) must hold for
*any* fault schedule, not just the curated scenarios:

* **conservation** — every SD keeps exactly one owner through
  evacuation; nothing is lost or duplicated;
* **no dead owners** — once a node fails, no recorded ownership (at any
  balance event, or at the end) assigns it an SD;
* **determinism** — bit-identical ``RunRecord``s across repeated runs
  and across ``run_sweep`` vs serial execution, faults and all;
* **batching parity** — the batched DES path and the per-event
  reference produce the identical record under any churn.

Schedules are drawn valid-by-construction (increasing times, fails only
while >= 2 nodes live, sequential join ids) over a small schedule-only
scenario so hundreds of runs stay cheap.  A fixed "forced" schedule is
also pinned per balancer; ``tests/integration/test_composition.py``
reuses it, with :func:`assert_churn_invariants`, to cross every
balancer with every other pluggable axis.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategies import strategy_names
from repro.experiments import (ChurnEvent, ClusterSpec, FaultSpec, MeshSpec,
                               PartitionSpec, PolicySpec, ScenarioSpec,
                               run_scenario, run_sweep)

ALL = strategy_names()

#: Virtual length of the no-fault base run (mesh 32, 4x4 SDs, 3 nodes,
#: 5 steps, default speeds) — measured once; events are placed relative
#: to it, including slightly beyond the end (a legal no-op).
BASE_SPAN = None


def base_spec(faults=None, balancer="auto", nodes=3, steps=5):
    return ScenarioSpec(
        name="chaos_probe",
        mesh=MeshSpec(nx=32, sd_nx=4, eps_factor=2.0),
        cluster=ClusterSpec(num_nodes=nodes, faults=faults),
        partition=PartitionSpec(method="blocks"),
        policy=PolicySpec(kind="interval", interval=1, balancer=balancer),
        num_steps=steps)


def _span():
    global BASE_SPAN
    if BASE_SPAN is None:
        BASE_SPAN = run_scenario(base_spec()).makespan
    return BASE_SPAN


@st.composite
def fault_schedules(draw, initial_nodes=3):
    """A valid-by-construction churn schedule for the probe scenario."""
    span = _span()
    num_events = draw(st.integers(1, 3))
    events = []
    alive = set(range(initial_nodes))
    known = initial_nodes
    straggle_end = {}
    t = 0.0
    for _ in range(num_events):
        t += draw(st.floats(0.08, 0.45)) * span
        kind = draw(st.sampled_from(["fail", "join", "straggle"]))
        if kind == "fail" and len(alive) >= 2:
            node = draw(st.sampled_from(sorted(alive)))
            alive.discard(node)
            events.append(ChurnEvent("fail", t, node))
        elif kind == "join":
            rate = draw(st.floats(0.5, 2.0)) * 1e9
            events.append(ChurnEvent("join", t, known, rate=rate))
            alive.add(known)
            known += 1
        else:
            # no overlapping windows on one node (FaultSchedule rejects)
            candidates = sorted(n for n in alive
                                if straggle_end.get(n, 0.0) <= t)
            if not candidates:
                continue
            node = draw(st.sampled_from(candidates))
            stop = t + draw(st.floats(0.05, 0.3)) * span
            factor = draw(st.floats(0.2, 0.9))
            straggle_end[node] = stop
            events.append(ChurnEvent("straggle", t, node, stop=stop,
                                     factor=factor))
    penalty = draw(st.floats(0.0, 1.0))
    return FaultSpec(events=tuple(events), recovery_penalty=penalty)


def failed_before_end(rec):
    """Node ids that failed during the run, per the recovery telemetry."""
    return [e["node"] for e in rec.recovery_events if e["kind"] == "fail"]


def assert_churn_invariants(rec, num_sds=16):
    """Conservation + no-dead-owner over the whole recorded timeline."""
    assert len(rec.final_parts) == num_sds
    max_nodes = rec.spec["cluster"]["num_nodes"] + sum(
        1 for e in rec.spec["cluster"]["faults"]["events"]
        if e["kind"] == "join")
    assert all(0 <= p < max_nodes for p in rec.final_parts)
    dead = set(failed_before_end(rec))
    assert not dead & set(rec.final_parts), \
        f"final ownership references dead nodes {dead & set(rec.final_parts)}"
    for _step, parts in rec.parts_events:
        assert len(parts) == num_sds  # conservation at every event
    # once a failed node's SDs are evacuated, no later recorded
    # ownership may hand anything back to it.  The evacuation entry is
    # the first event at or after the failure's step that excludes the
    # dead node (entries are chronological; same-step entries recorded
    # before the failure may still legitimately include it).  A joiner
    # owns nothing until it is absorbed, so for a joiner the search
    # starts at its first ownership: entries recorded before it joined
    # exclude it even when they share its failure's step.
    fail_steps = {e["node"]: e["step"] for e in rec.recovery_events
                  if e["kind"] == "fail"}
    joiners = {e["node"] for e in rec.recovery_events if e["kind"] == "join"}
    for node, fail_step in fail_steps.items():
        start = 0
        if node in joiners:
            start = next((i for i, (_s, p) in enumerate(rec.parts_events)
                          if node in p), 0)
        tail = [i for i, (s, p) in enumerate(rec.parts_events)
                if i >= start and s >= fail_step and node not in p]
        assert tail, f"no evacuation recorded for dead node {node}"
        for s, parts in rec.parts_events[tail[0]:]:
            assert node not in parts, \
                f"SDs reassigned to dead node {node} at step {s}"
    # every fail in the schedule within the run was handled
    for e in rec.recovery_events:
        if e["kind"] == "fail":
            assert e["sds_evacuated"] >= 0
            assert e["recovery_bytes"] >= 0


@pytest.mark.parametrize("name", ALL)
class TestChaos:
    @given(faults=fault_schedules())
    @settings(max_examples=8, deadline=None)
    def test_invariants_and_repeat_determinism(self, name, faults):
        spec = base_spec(faults=faults, balancer=name)
        rec = run_scenario(spec)
        assert_churn_invariants(rec)
        assert rec.balancer_resolved == name
        # bit-identical repeat: schedules, telemetry, everything
        assert run_scenario(spec) == rec

    @given(faults=fault_schedules())
    @settings(max_examples=6, deadline=None)
    def test_batched_matches_per_event(self, name, faults, run_per_event):
        """Fault handlers read busy times mid-step; deferred completions
        must answer them exactly as the per-event path does."""
        spec = base_spec(faults=faults, balancer=name)
        assert (run_scenario(spec).to_dict()
                == run_per_event(spec).to_dict())

    @given(faults=fault_schedules())
    @settings(max_examples=6, deadline=None)
    def test_never_balancing_still_evacuates(self, name, faults):
        """Correctness does not depend on the policy: with balancing
        off, failed nodes are still mechanically evacuated."""
        spec = base_spec(faults=faults, balancer=name).replace(
            policy=PolicySpec(balancer=name))
        rec = run_scenario(spec)
        assert_churn_invariants(rec)
        for e in rec.balance_events:
            # the only balance events a never-policy run may record are
            # the forced evacuations
            assert e["recovery"] and e["strategy"] == "evacuate"


#: The forced schedule driven through every registered balancer: an
#: early straggle, a mid-run failure, a late join — all three churn
#: kinds in one run.
FORCED = FaultSpec(events=(
    ChurnEvent("straggle", 0.08e-4, 2, stop=0.3e-4, factor=0.4),
    ChurnEvent("fail", 0.35e-4, 0),
    ChurnEvent("join", 0.6e-4, 3, rate=1.5e9),
))

#: A joiner that fails between its absorption and the next step start:
#: its join, absorption and evacuation all carry one step label.
JOIN_THEN_FAIL = FaultSpec(events=(
    ChurnEvent("fail", 0.6e-5, 0),
    ChurnEvent("join", 1.0e-5, 3, rate=1e9),
    ChurnEvent("fail", 1.4e-5, 3),
))


@pytest.mark.parametrize("name", ALL)
class TestForcedSchedule:
    def test_forced_schedule_invariants(self, name):
        rec = run_scenario(base_spec(faults=FORCED, balancer=name))
        assert_churn_invariants(rec)
        assert failed_before_end(rec) == [0]
        assert [e["kind"] for e in rec.recovery_events] == ["fail", "join"]
        # the joiner ends up owning SDs: absorption happened
        assert 3 in rec.final_parts
        # at least the evacuation event is recovery-tagged
        assert any(e["recovery"] for e in rec.balance_events)

    def test_joiner_failing_in_its_join_step(self, name):
        """The checker must not mistake the entries recorded before the
        join for the joiner's evacuation."""
        rec = run_scenario(base_spec(faults=JOIN_THEN_FAIL, balancer=name))
        assert len({e["step"] for e in rec.recovery_events}) == 1
        assert any(3 in parts for _step, parts in rec.parts_events)
        assert_churn_invariants(rec)
        assert failed_before_end(rec) == [0, 3]

    def test_sweep_bit_identical_to_serial(self, name):
        """The acceptance contract under churn: a process-pool sweep
        over fault scenarios equals serial execution bit for bit."""
        specs = [base_spec(faults=FORCED, balancer=name),
                 base_spec(faults=FORCED, balancer=name, steps=4)]
        serial = run_sweep(specs, serial=True)
        parallel = run_sweep(specs, serial=False, max_workers=2)
        assert parallel == serial


class TestCuratedScenarioDeterminism:
    """The registry's churn scenarios run deterministically serial vs
    sweep — the ISSUE-4 acceptance criterion, pinned per scenario."""

    @pytest.mark.parametrize("scenario", ["hetero_churn", "fault_recovery",
                                          "straggler_tail"])
    def test_registry_scenarios_sweep_parity(self, scenario):
        from repro.experiments import build
        spec = build(scenario, steps=4)
        serial = run_sweep([spec, spec], serial=True)
        parallel = run_sweep([spec, spec], serial=False, max_workers=2)
        assert parallel == serial
        assert serial[0] == serial[1]
