"""Flat-model bit-parity: the cost-model layer must be invisible.

The refactor's safety contract (DESIGN.md substitution 7): with the
``flat`` model — whether requested explicitly or resolved from
``auto`` — every schedule is bit-identical to the pre-refactor seed
arithmetic.  Pinned here as

* the ``fault_recovery`` golden (committed before the cost-model layer
  existed; its schedule values must keep matching exactly),
* RunRecord equality between ``auto``-resolved and explicitly pinned
  flat runs, on the distributed solver and on all three curated
  service workloads, with wave batching on and off.
"""

import json
import os

import pytest

from repro.experiments import build, run_scenario
from repro.service.runner import run_service

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "golden",
                      "fault_recovery.json")

#: schedule quantities — exact, machine-independent virtual time
SCHEDULE_FIELDS = ("makespan", "step_durations", "imbalance_history",
                   "ghost_bytes", "bytes_by_class", "balance_events",
                   "recovery_events", "parts_events", "final_parts",
                   "busy_total")

SERVICE_SCENARIOS = ("service_poisson", "service_bursty",
                     "service_overload")


def records_equal(a, b, ignore_spec=False):
    da, db = a.to_dict(), b.to_dict()
    if ignore_spec:
        da.pop("spec"), db.pop("spec")
        da.pop("cost_model_resolved"), db.pop("cost_model_resolved")
    return da == db


class TestDistributedFlatParity:
    @pytest.mark.parametrize("waves", ["0", "1"])
    def test_fault_recovery_matches_golden_schedule(self, run_per_event,
                                                    waves):
        """The flat run reproduces the golden's schedule bit for bit —
        with and without wave batching (both must resolve the same
        work floats)."""
        run = run_scenario if waves == "1" else run_per_event
        with open(GOLDEN, "r", encoding="utf-8") as fh:
            golden = json.load(fh)["record"]
        rec = run(build("fault_recovery")).to_dict()
        for field in SCHEDULE_FIELDS:
            assert rec[field] == golden[field], field
        assert rec["cost_model_resolved"] == "flat"

    def test_auto_and_explicit_flat_agree(self):
        spec = build("quickstart", nx=32, sd_axis=4, nodes=4, steps=3)
        auto = run_scenario(spec)
        pinned = run_scenario(spec.replace(cost_model="flat"))
        assert pinned.cost_model_resolved == auto.cost_model_resolved \
            == "flat"
        assert records_equal(auto, pinned, ignore_spec=True)

    def test_hierarchy_actually_changes_the_schedule(self):
        """The parity above is meaningful only if a non-flat model
        would have been visible."""
        spec = build("quickstart", nx=32, sd_axis=4, nodes=4, steps=3)
        flat = run_scenario(spec)
        hier = run_scenario(spec.replace(cost_model="hierarchy"))
        assert hier.makespan > flat.makespan


class TestServiceFlatParity:
    @pytest.mark.parametrize("scenario", SERVICE_SCENARIOS)
    @pytest.mark.parametrize("waves", [True, False],
                             ids=["waves-on", "waves-off"])
    def test_explicit_flat_pin_is_a_noop(self, scenario, waves):
        spec = build(scenario)
        auto = run_service(spec, wave_batching=waves)
        pinned = run_service(spec.replace(cost_model="flat"),
                             wave_batching=waves)
        assert auto.cost_model_resolved == pinned.cost_model_resolved \
            == "flat"
        assert records_equal(auto, pinned, ignore_spec=True)
