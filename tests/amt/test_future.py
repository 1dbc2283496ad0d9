"""Unit tests for the single-threaded futures layer."""

import pytest

from repro.amt import future as future_mod
from repro.amt.future import Future, FutureError, when_all


def _ready(value=None):
    fut = Future()
    fut._set_value(value)
    return fut


def _has_exception(fut):
    return fut.is_ready() and fut._exception is not None


def _failed(exc):
    fut = Future()
    fut._set_exception(exc)
    return fut


class TestFuture:
    def test_not_ready_initially(self):
        fut = Future()
        assert not fut.is_ready()
        assert not _has_exception(fut)

    def test_none_is_a_value(self):
        fut = Future()
        fut._set_value(None)
        assert fut.is_ready()
        assert fut.get() is None

    def test_value_future_has_no_exception(self):
        assert not _has_exception(_ready(3))

    def test_resolved_future_rejects_either_fulfilment(self):
        done, failed = _ready(1), _failed(KeyError("k"))
        for fut in (done, failed):
            with pytest.raises(FutureError, match="already resolved"):
                fut._set_value(2)
            with pytest.raises(FutureError, match="already resolved"):
                fut._set_exception(ValueError())
        assert done.get() == 1
        with pytest.raises(KeyError):
            failed.get()

    def test_callbacks_run_once_in_attach_order(self):
        fut = Future()
        order = []
        for tag in "abc":
            fut._add_callback(lambda f, tag=tag: order.append(tag))
        fut._set_value(None)
        assert order == ["a", "b", "c"]
        with pytest.raises(FutureError):
            fut._set_value(None)
        assert order == ["a", "b", "c"]

    def test_resolve_runs_callbacks_and_late_ones_immediately(self):
        fut = Future()
        assert not fut.is_ready()
        got = []
        fut._add_callback(lambda f: got.append(f.get()))
        fut._set_value(41)
        assert fut.is_ready() and fut.get() == 41
        assert not _has_exception(fut)
        assert got == [41]
        # late callbacks run immediately
        fut._add_callback(lambda f: got.append(f.get() + 1))
        assert got == [41, 42]

    def test_double_resolve_rejected(self):
        fut = Future()
        fut._set_value(1)
        with pytest.raises(FutureError):
            fut._set_value(2)

    def test_pending_get_raises_instead_of_blocking(self):
        fut = Future()
        with pytest.raises(FutureError, match="not ready"):
            fut.get()

    def test_exception_path(self):
        fut = Future()
        fut._set_exception(ValueError("boom"))
        assert fut.is_ready() and _has_exception(fut)
        with pytest.raises(ValueError, match="boom"):
            fut.get()

    def test_resolve_none_is_a_bound_event_action(self):
        fut = Future()
        fut._resolve_none()
        assert fut.get() is None


class TestWhenAll:
    def test_empty_ready_immediately(self):
        f = when_all([])
        assert f.is_ready()
        assert f.get() == []

    def test_fires_after_last(self):
        futs = [Future() for _ in range(3)]
        combined = when_all(iter(futs))
        futs[0]._set_value(0)
        futs[2]._set_value(2)
        assert not combined.is_ready()
        futs[1]._set_value(1)
        assert combined.get() == futs
        assert [f.get() for f in combined.get()] == [0, 1, 2]

    def test_all_already_ready(self):
        combined = when_all([_ready(i) for i in range(4)])
        assert combined.is_ready()
        assert [f.get() for f in combined.get()] == [0, 1, 2, 3]

    def test_mixed_with_already_ready(self):
        pending = Future()
        out = when_all([_ready("x"), pending])
        assert not out.is_ready()
        pending._set_value("y")
        assert out.is_ready()

    def test_exceptional_input_still_completes(self):
        combined = when_all([_ready(1), _failed(ValueError())])
        assert combined.is_ready()
        assert _has_exception(combined.get()[1])

    def test_repeated_input_counts_each_occurrence(self):
        fut = Future()
        combined = when_all([fut, fut])
        assert not combined.is_ready()
        fut._set_value(5)
        assert combined.get() == [fut, fut]


class TestBarrierGroups:
    """The ``_group``/``_wave`` slots wave batching reads."""

    def test_unobserved_future_has_no_group(self):
        fut = Future()
        assert fut._group is None and fut._wave is None

    def test_when_all_tags_inputs_with_its_output(self):
        futs = [Future(), Future()]
        out = when_all(futs)
        assert all(f._group is out for f in futs)

    def test_second_barrier_marks_input_multi(self):
        shared, own = Future(), Future()
        first = when_all([shared, own])
        when_all([shared])
        assert shared._group is future_mod._MULTI
        assert own._group is first

    def test_callback_marks_input_multi(self):
        fut = Future()
        fut._add_callback(lambda f: None)
        assert fut._group is future_mod._MULTI

    def test_barrier_does_not_clear_multi(self):
        fut = Future()
        fut._add_callback(lambda f: None)
        when_all([fut])
        assert fut._group is future_mod._MULTI

    def test_ready_input_is_not_tagged(self):
        ready = _ready(1)
        when_all([ready])
        ready._add_callback(lambda f: None)
        assert ready._group is None
        assert future_mod._active_group is None

    def test_wave_hook_fires_on_each_new_subscriber(self):
        fut = Future()
        calls = []
        fut._wave = lambda: calls.append(future_mod._active_group)
        when_all([fut])
        fut._add_callback(lambda f: None)
        assert calls == [None, None]

    def test_wave_hook_subscriptions_are_untagged(self):
        """Subscriptions a wave hook makes while a barrier is subscribing
        must not inherit that barrier's tag."""
        inner = Future()
        outer = Future()
        outer._wave = lambda: inner._add_callback(lambda f: None)
        barrier = when_all([outer])
        assert outer._group is barrier
        assert inner._group is future_mod._MULTI
