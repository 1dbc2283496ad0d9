"""Futures modelled on HPX's local control objects (LCOs).

The paper (Sec. 5) relies on ``hpx::async``/``hpx::future`` for wait-free
asynchronous execution and futurization-based synchronization.  This module
provides the Python analogue the simulated cluster
(:mod:`repro.amt.cluster`) hands out:

* :class:`Future` — a single-assignment value: :meth:`Future.get` returns
  the value (or raises the stored exception);
* :func:`when_all` — the barrier, mirroring ``hpx::when_all``.

Every future is resolved from the one thread that drives the
discrete-event simulator (:mod:`repro.amt.des`), so nothing here locks and
``get`` never blocks: callers drain the simulator first.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Sequence

__all__ = ["Future", "when_all", "FutureError"]


class FutureError(RuntimeError):
    """Raised on invalid future protocol usage.

    Examples: resolving a future twice, or reading one the simulator has
    not resolved yet.
    """


_PENDING = "pending"
_READY = "ready"
_EXCEPTIONAL = "exceptional"

#: Barrier-group sentinel: a :class:`Future` observed by more than
#: one subscriber (or by anything other than a single
#: :func:`when_all` barrier).  Wave batching may only delay such a
#: future's resolution if it is the *final* member of the wave.
_MULTI = object()

#: The :func:`when_all` output future currently subscribing to its
#: inputs, or ``None`` outside a barrier subscription loop.  Lets
#: :meth:`Future._add_callback` stamp each input with the barrier
#: observing it, so the simulated cluster can tell which ready-queue runs
#: share one barrier (safe to batch) from futures with ad-hoc observers
#: (must resolve at their true completion time).
_active_group: Optional["Future"] = None


class Future:
    """A single-assignment container for a value produced asynchronously.

    Mirrors the ``hpx::future`` semantics the paper's Listing 1 shows:
    ``async`` returns a future immediately; ``get`` reads the result.
    A pending future's ``get`` raises :class:`FutureError` instead of
    blocking, because no other thread could ever resolve it.

    Two slots support the cluster's barrier-aware wave batching
    (see DESIGN.md, "Deferred runs"):

    * ``_group`` — ``None`` until observed; then either the single
      :func:`when_all` barrier subscribed to this future, or the
      :data:`_MULTI` sentinel once any other observer appears.
      Resolution clears it again once the callbacks have run: a
      resolved future never joins a wave, and a barrier tag left in
      place would close a reference cycle (the barrier's value lists
      its inputs), which only the cyclic collector could free.
    * ``_wave`` — set by the cluster while this future sits *inside* a
      formed wave whose end it does not terminate; called (zero-arg) the
      moment a new subscriber attaches, which reverts the wave to
      per-task form so the subscriber sees the true completion time.
    """

    __slots__ = ("_state", "_value", "_exception", "_callbacks",
                 "_group", "_wave")

    def __init__(self) -> None:
        self._state = _PENDING
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: List[Callable[["Future"], None]] = []
        self._group = None
        self._wave = None

    # -- inspection ----------------------------------------------------
    def is_ready(self) -> bool:
        """Return ``True`` once a value or exception has been stored."""
        return self._state != _PENDING

    def get(self) -> Any:
        """Return the value, or raise the stored exception.

        Raises :class:`FutureError` while the future is pending.
        """
        if self._state == _PENDING:
            raise FutureError(
                "future is not ready; single-threaded futures cannot "
                "block (run the simulator first)")
        if self._state == _EXCEPTIONAL:
            assert self._exception is not None
            raise self._exception
        return self._value

    def _add_callback(self, cb: Callable[["Future"], None]) -> None:
        global _active_group
        if self._state == _PENDING:
            self._callbacks.append(cb)
            g = _active_group
            if g is None:
                self._group = _MULTI
            elif self._group is None:
                self._group = g
            elif self._group is not g:
                self._group = _MULTI
            wave = self._wave
            if wave is not None:
                # Materializing may resolve futures whose callbacks
                # attach further subscriptions; those must not inherit
                # this barrier's group tag.
                prev, _active_group = _active_group, None
                try:
                    wave()
                finally:
                    _active_group = prev
        else:
            cb(self)

    def _resolve_none(self) -> None:
        """``_set_value(None)`` as a bound zero-arg callback.

        Simulation hot paths (message deliveries) schedule this method
        directly as the event action instead of allocating a lambda per
        message.
        """
        self._set_value(None)

    # -- fulfilment (used by the runtime) ----------------------------------
    def _set_value(self, value: Any) -> None:
        if self._state != _PENDING:
            raise FutureError("future already resolved")
        self._value = value
        self._state = _READY
        callbacks = self._callbacks
        self._callbacks = []
        for cb in callbacks:
            cb(self)
        self._group = None

    def _set_exception(self, exc: BaseException) -> None:
        if self._state != _PENDING:
            raise FutureError("future already resolved")
        self._exception = exc
        self._state = _EXCEPTIONAL
        callbacks = self._callbacks
        self._callbacks = []
        for cb in callbacks:
            cb(self)
        self._group = None


def when_all(futures: Iterable[Future]) -> Future:
    """Return a future that becomes ready when all inputs are ready.

    The result value is the list of input futures (as with
    ``hpx::when_all``); exceptions are *not* propagated here — callers
    inspect the individual futures, which keeps error handling explicit.
    """
    global _active_group
    futs: Sequence[Future] = list(futures)
    out = Future()
    if not futs:
        out._set_value([])
        return out

    state = [len(futs)]

    def one_done(_f: Future) -> None:
        state[0] -= 1
        if state[0] == 0:
            out._set_value(list(futs))

    # Tag each input with the barrier observing it (see Future
    # ``_group``) so wave batching knows these subscriptions all fire
    # together when the run's last member completes.  Save/restore: a
    # subscription may materialize a wave whose callbacks build further
    # barriers reentrantly.
    prev = _active_group
    _active_group = out
    try:
        for f in futs:
            f._add_callback(one_done)
    finally:
        _active_group = prev
    return out
