"""End-to-end parity of the DES fast path across whole scenarios.

The fast path has two pieces — deferred completions
(``SimCluster.wave_batching``) and the solver's step-plan cache.  Each
must leave every :class:`RunRecord` field bit-identical on full
scenario runs, including makespans, step
durations, imbalance history, and byte accounting.  (The committed
goldens pin the same property against the repository history; these
tests pin it pairwise within one checkout, over scenarios with
balancing, faults, and hierarchical topologies.)
"""

import json

import numpy as np
import pytest

from repro.experiments import build, run_scenario
from repro.mesh.decomposition import Decomposition
from repro.solver.distributed import DistributedSolver

#: small but feature-covering: balancing + drift, fault + recovery,
#: rack topology with per-link contention, and the churn scenarios
#: (straggles, failures and joins on the batched path)
SCENARIOS = [
    ("hetero_drift", {"steps": 6}),
    ("fault_recovery", {"steps": 4}),
    ("rack_locality", {"steps": 4}),
    ("hetero_churn", {"steps": 6}),
    ("straggler_tail", {"steps": 6}),
    ("wan_joiner", {"steps": 6}),
]


def _record(name, overrides, run=run_scenario):
    rec = run(build(name, **overrides))
    return json.dumps(rec.to_dict(), sort_keys=True)


def _uncache_plans(monkeypatch):
    """The parity oracle for the plan cache: a ``_plan`` attribute that
    never holds a plan, so every step compiles its own."""
    monkeypatch.setattr(DistributedSolver, "_plan",
                        property(lambda self: None,
                                 lambda self, plan: None),
                        raising=False)


@pytest.mark.parametrize("name,overrides", SCENARIOS)
def test_wave_batching_produces_identical_records(name, overrides,
                                                  run_per_event):
    off = _record(name, overrides, run=run_per_event)
    assert _record(name, overrides) == off


@pytest.mark.parametrize("name,overrides", SCENARIOS)
def test_plan_cache_produces_identical_records(name, overrides, monkeypatch):
    cached = _record(name, overrides)
    _uncache_plans(monkeypatch)
    assert _record(name, overrides) == cached


@pytest.mark.parametrize("name,steps", [
    ("hetero_drift", 20),    # moves SDs for 11 steps, then settles
    ("fault_recovery", 8),   # evacuation + rebalancing, then quiet
    ("rack_locality", 8),    # never balances
])
def test_plan_compiled_once_per_ownership_change(name, steps, monkeypatch):
    """The plan is rebuilt exactly at the steps that follow an SD move,
    and reused everywhere else."""
    built = []
    compile_plan = DistributedSolver._build_plan

    def counting(self):
        built.append(self._current_step)
        return compile_plan(self)

    monkeypatch.setattr(DistributedSolver, "_build_plan", counting)
    rec = run_scenario(build(name, steps=steps))
    moved_after = {e["step"] + 1 for e in rec.balance_events
                   if e["sds_moved"] > 0}
    assert built == [0] + sorted(s for s in moved_after if 0 < s < steps)
    assert len(built) < steps


def _run_l_shape():
    from repro.mesh.domain import DomainMask
    from repro.mesh.grid import UniformGrid
    from repro.mesh.subdomain import SubdomainGrid
    from repro.solver.model import NonlocalHeatModel

    grid = UniformGrid(64, 64)
    sg = SubdomainGrid(64, 64, 8, 8)
    mask = DomainMask.l_shape(sg, notch=0.5)
    parts = np.arange(sg.num_subdomains) % 3
    DistributedSolver(NonlocalHeatModel(epsilon=4 * grid.h), grid, sg,
                      parts, num_nodes=3, domain_mask=mask,
                      compute_numerics=False).run(None, 2)


@pytest.mark.parametrize("run", [
    lambda: run_scenario(build("hetero_drift", steps=6)),
    lambda: run_scenario(build("fault_recovery", steps=4)),
    lambda: run_scenario(build("scale_extreme", mesh=128, sd_axis=8,
                               nodes=4, steps=2)),
    _run_l_shape,
], ids=["hetero_drift", "fault_recovery", "scale_extreme", "l_shape"])
def test_plan_consumer_runs_are_contiguous_in_sd_order(run, monkeypatch):
    """Every compiled plan holds one ghost run per consumer SD, in SD
    order, each with exactly that SD's messages: the runs concatenate
    back to the per-message order, so egress planning sees the
    messages as before."""
    checked = []
    compile_plan = DistributedSolver._build_plan

    def checking(self):
        plan = compile_plan(self)
        consumers = [sd for sd, _run in plan.ghost_runs]
        assert consumers == sorted(set(consumers))
        decomp = Decomposition(self.sd_grid, self.parts,
                               len(self.cluster.nodes))
        active = self._active
        src_node, dst_node, _, dst_sd, nbytes = decomp.ghost_messages(
            self.operator.radius, active)
        expected = list(zip(dst_sd, zip(src_node, dst_node, nbytes)))
        assert expected
        assert [(sd, msg) for sd, msgs in plan.ghost_runs
                for msg in msgs] == expected
        checked.append(len(consumers))
        return plan

    monkeypatch.setattr(DistributedSolver, "_build_plan", checking)
    run()
    assert checked


def test_everything_on_matches_everything_off(monkeypatch, run_per_event):
    """The full fast path vs the full seed path on one drifting,
    balanced scenario — the combined gate."""
    fast = _record("hetero_drift", {"steps": 6})
    _uncache_plans(monkeypatch)
    assert _record("hetero_drift", {"steps": 6}, run=run_per_event) == fast


class TestScaleExtreme:
    def test_tiny_run_is_schedule_only(self):
        spec = build("scale_extreme", mesh=128, sd_axis=4, nodes=4, steps=2)
        assert spec.cluster.num_nodes == 4
        rec = run_scenario(spec)
        assert rec.scenario == "scale_extreme"
        assert rec.makespan > 0
        assert len(rec.step_durations) == 2

    def test_default_shape(self):
        spec = build("scale_extreme")
        assert spec.mesh.nx == 2048
        assert spec.mesh.sd_nx == 64  # 4096 SDs
        assert spec.cluster.num_nodes == 512
        assert spec.cluster.cores_per_node == 1
        assert spec.partition.method == "blocks"
        assert not spec.compute_numerics  # pure schedule measurement
        assert spec.cluster.spawn_overhead == 0.0
