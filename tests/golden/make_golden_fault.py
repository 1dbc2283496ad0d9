"""Regenerate the fault-recovery golden record (``fault_recovery.json``).

Run from the repository root::

    PYTHONPATH=src python tests/golden/make_golden_fault.py

The fixture pins the complete :class:`repro.experiments.RunRecord` of
the ``fault_recovery`` registry scenario: a numerics-on 3-node run in
which node 1 fails mid-run — its SDs are evacuated through the pinned
``tree`` strategy, its in-flight kernels are requeued with the recovery
penalty, and the final temperatures still match the serial solver.

Everything the scenario depends on is pinned (``tree`` balancer,
``direct`` kernel backend, ``flat`` cost model, block partition), so
the record does not move if an ``auto`` default ever changes.
Virtual-time fields (makespan, step durations, events) are
machine-independent and compared exactly by the regression test
(``tests/solver/test_fault_recovery.py``); the numeric error fields are
compared to a relative tolerance.

The file is committed; rerun this script only when the *intended*
schedule or fault model changes, and say so in the commit message.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from repro.experiments import build, run_scenario, write_json  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    rec = run_scenario(build("fault_recovery"))
    assert rec.recovery_events, "scenario no longer injects a failure"
    path = os.path.join(HERE, "fault_recovery.json")
    write_json(path, {"record": rec.to_dict()})
    print(f"wrote {path}: makespan={rec.makespan:.6g}s, "
          f"{len(rec.recovery_events)} recovery event(s), "
          f"total error {rec.total_error:.6g}")


if __name__ == "__main__":
    main()
