"""Tests for time-varying node capacity traces."""

import pytest

from repro.models.workload import drift_ramp, step_interference


class TestStepInterference:
    def test_rate_profile(self):
        tr = step_interference(10.0, start=5.0, stop=10.0, slowdown=0.5)
        assert tr.rate(0.0) == 10.0
        assert tr.rate(7.0) == 5.0
        assert tr.rate(12.0) == 10.0

    def test_interference_from_time_zero(self):
        tr = step_interference(10.0, start=0.0, stop=5.0, slowdown=0.2)
        assert tr.rate(1.0) == pytest.approx(2.0)
        assert tr.rate(6.0) == 10.0

    def test_completion_spans_window(self):
        tr = step_interference(10.0, start=5.0, stop=10.0, slowdown=0.5)
        # 75 units from t=0: 50 in [0,5), then 25 at rate 5 -> 5s more
        assert tr.time_to_complete(75.0, 0.0) == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="slowdown"):
            step_interference(1.0, 0.0, 1.0, slowdown=0.0)
        with pytest.raises(ValueError, match="start < stop"):
            step_interference(1.0, 5.0, 5.0)


class TestDriftRamp:
    def test_builds_ramps_between_the_rate_vectors(self):
        from repro.amt.cluster import ConstantSpeed, RampSpeed
        traces = drift_ramp([1.0, 2.0, 3.0], [3.0, 2.0, 1.0],
                            start=5.0, stop=15.0)
        assert isinstance(traces[0], RampSpeed)
        assert isinstance(traces[1], ConstantSpeed)  # unchanged rate
        assert isinstance(traces[2], RampSpeed)
        assert traces[0].rate(0.0) == 1.0
        assert traces[0].rate(10.0) == pytest.approx(2.0)
        assert traces[0].rate(20.0) == 3.0
        assert traces[2].rate(20.0) == 1.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="matching rate vectors"):
            drift_ramp([1.0, 2.0], [1.0], start=0.0, stop=1.0)
