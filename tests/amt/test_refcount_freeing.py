"""Reference counting alone frees the runtime's per-step objects.

A distributed step resolves thousands of futures and tasks; a service
run admits thousands of jobs.  None of them may be left in a reference
cycle, or only the cyclic collector could free them, and on the
fleet-scale workloads its full collections cost a third of the run.

The runtime's classes use ``__slots__`` without ``__weakref__``, so
these tests read liveness off :func:`gc.get_objects`, which lists every
tracked object still alive.  With the collector disabled and never
invoked, anything a cycle holds stays listed; anything reference
counting freed is gone.
"""

import gc

import pytest

from repro.amt.cluster import SimTask
from repro.amt.future import Future
from repro.experiments import build, run_scenario
from repro.service.manager import _Job

#: the per-step and per-job objects the runtime allocates
TRACKED = (Future, SimTask, _Job)


def _alive(types):
    return [o for o in gc.get_objects() if type(o) in types]


@pytest.fixture
def collector_off():
    """Disable the cyclic collector; yield a leak check.

    The check returns the instances of :data:`TRACKED` created since
    the fixture started that are still alive.  Instances that already
    existed stay referenced meanwhile, so their ids cannot be reused.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = _alive(TRACKED)
        seen = {id(o) for o in before}
        yield lambda: [o for o in _alive(TRACKED) if id(o) not in seen]
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("name,overrides", [
    # ghost runs, c1/c2 tasks, waves and step barriers
    ("scale_extreme", {"mesh": 256, "sd_axis": 16, "nodes": 16,
                       "steps": 3}),
    # plus balancing, migration barriers and real numerics
    ("hetero_drift", {"steps": 6}),
    # plus a straggle, a failure (orphan requeue, checkpoint re-fetch)
    # and a join: the fault schedule's hooks must not outlive the run
    ("hetero_churn", {"mesh": 128, "sd_axis": 8, "nodes": 4,
                      "steps": 12}),
])
def test_solver_run_leaves_no_cycles(collector_off, name, overrides):
    spec = build(name, **overrides)
    rec = run_scenario(spec)
    assert rec.makespan > 0
    leaked = collector_off()
    assert leaked == [], f"{len(leaked)} objects left in cycles"


def test_service_run_leaves_no_cycles(collector_off):
    """Jobs still in flight at the horizon stay with the cluster's
    queued events; every finished job, resolved future and completed
    task must already be gone."""
    spec = build("service_extreme", horizon=2e-4)
    rec = run_scenario(spec)
    finished = {f"{e['tenant']}/{e['job']}" for e in rec.service_events
                if e["kind"] == "finish"}
    assert finished
    done = {
        Future: Future.is_ready,
        SimTask: lambda task: task.future.is_ready(),
        _Job: lambda job: job.label in finished,
    }
    leaked = [o for o in collector_off() if done[type(o)](o)]
    assert leaked == [], f"{len(leaked)} objects left in cycles"
