"""Shared fixtures."""

from unittest import mock

import pytest


@pytest.fixture(scope="session")
def run_per_event():
    """``run_scenario`` on the per-event reference path.

    Every solver the runner builds gets ``cluster.wave_batching =
    False``: one DES event per task completion, the oracle that batched
    runs must reproduce bit for bit.
    """
    from repro.experiments import run_scenario
    from repro.experiments import runner

    build_solver = runner.build_solver

    def per_event_solver(*args, **kwargs):
        solver = build_solver(*args, **kwargs)
        solver.cluster.wave_batching = False
        return solver

    def run(spec):
        with mock.patch.object(runner, "build_solver", per_event_solver):
            return run_scenario(spec)

    return run
