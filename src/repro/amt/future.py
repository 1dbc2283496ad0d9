"""Futures and promises modelled on HPX's local control objects (LCOs).

The paper (Sec. 5) relies on ``hpx::async``/``hpx::future`` for wait-free
asynchronous execution and futurization-based synchronization.  This module
provides the Python analogue used by every runtime in :mod:`repro.amt`:

* :class:`Promise` — the write side: exactly one call to
  :meth:`Promise.set_value` or :meth:`Promise.set_exception`.
* :class:`Future` — the read side: :meth:`Future.get` blocks until a value
  (or raises the stored exception), :meth:`Future.then` attaches
  continuations, and the module-level combinators :func:`when_all` /
  :func:`dataflow` mirror ``hpx::when_all`` / ``hpx::dataflow``.

Futures here are thread-safe so the same objects work both under the real
thread-pool executor (:mod:`repro.amt.executor`) and under the
single-threaded discrete-event simulator (:mod:`repro.amt.des`), where the
"blocking" get is only ever called once the simulator has quiesced.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, List, Optional, Sequence

__all__ = [
    "Future",
    "LocalFuture",
    "Promise",
    "make_ready_future",
    "make_exceptional_future",
    "when_all",
    "local_when_all",
    "dataflow",
    "FutureError",
]


class FutureError(RuntimeError):
    """Raised on invalid future/promise protocol usage.

    Examples: resolving a promise twice, or retrieving a future that can
    never become ready (no promise attached).
    """


_PENDING = "pending"
_READY = "ready"
_EXCEPTIONAL = "exceptional"

#: Barrier-group sentinel: a :class:`LocalFuture` observed by more than
#: one subscriber (or by anything other than a single
#: :func:`local_when_all` barrier).  Wave batching may only delay such a
#: future's resolution if it is the *final* member of the wave.
_MULTI = object()

#: The :func:`local_when_all` output future currently subscribing to its
#: inputs, or ``None`` outside a barrier subscription loop.  Lets
#: :meth:`LocalFuture._add_callback` stamp each input with the barrier
#: observing it, so the simulated cluster can tell which ready-queue runs
#: share one barrier (safe to batch) from futures with ad-hoc observers
#: (must resolve at their true completion time).
_active_group: Optional["LocalFuture"] = None


class Future:
    """A single-assignment container for a value produced asynchronously.

    Mirrors the ``hpx::future`` semantics the paper's Listing 1 shows:
    ``async`` returns a future immediately; ``get`` synchronizes.

    Instances are created either by a :class:`Promise`, by
    :func:`make_ready_future`, or by the runtimes' ``async_`` entry points.
    """

    __slots__ = ("_cond", "_state", "_value", "_exception", "_callbacks")

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._state = _PENDING
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: List[Callable[["Future"], None]] = []

    # -- inspection ----------------------------------------------------
    def is_ready(self) -> bool:
        """Return ``True`` once a value or exception has been stored."""
        with self._cond:
            return self._state != _PENDING

    def has_exception(self) -> bool:
        """Return ``True`` if the future completed with an exception."""
        with self._cond:
            return self._state == _EXCEPTIONAL

    # -- synchronization ------------------------------------------------
    def get(self, timeout: Optional[float] = None) -> Any:
        """Block until ready and return the value (or raise the exception).

        Parameters
        ----------
        timeout:
            Maximum seconds to wait; ``None`` waits forever.  A timeout
            raises :class:`FutureError` rather than returning ``None`` so
            that callers cannot confuse "no value yet" with a real value.
        """
        with self._cond:
            if not self._cond.wait_for(lambda: self._state != _PENDING, timeout):
                raise FutureError("future.get() timed out")
            if self._state == _EXCEPTIONAL:
                assert self._exception is not None
                raise self._exception
            return self._value

    def wait(self, timeout: Optional[float] = None) -> None:
        """Block until the future is ready without consuming the value."""
        with self._cond:
            if not self._cond.wait_for(lambda: self._state != _PENDING, timeout):
                raise FutureError("future.wait() timed out")

    # -- continuations ---------------------------------------------------
    def then(self, fn: Callable[["Future"], Any]) -> "Future":
        """Attach a continuation; returns a future for ``fn(self)``.

        The continuation runs synchronously on the thread that fulfils the
        promise (or immediately if already ready), matching HPX's default
        ``launch::sync`` continuation policy for lightweight work.
        """
        out = type(self)()

        def runner(done: "Future") -> None:
            try:
                out._set_value(fn(done))
            except BaseException as exc:  # noqa: BLE001 - forwarded to future
                out._set_exception(exc)

        self._add_callback(runner)
        return out

    def _add_callback(self, cb: Callable[["Future"], None]) -> None:
        run_now = False
        with self._cond:
            if self._state == _PENDING:
                self._callbacks.append(cb)
            else:
                run_now = True
        if run_now:
            cb(self)

    def _resolve_none(self) -> None:
        """``_set_value(None)`` as a bound zero-arg callback.

        Simulation hot paths (message deliveries) schedule this method
        directly as the event action instead of allocating a lambda per
        message.
        """
        self._set_value(None)

    # -- fulfilment (used by Promise and runtimes) -------------------------
    def _set_value(self, value: Any) -> None:
        with self._cond:
            if self._state != _PENDING:
                raise FutureError("future already resolved")
            self._value = value
            self._state = _READY
            callbacks = self._callbacks
            self._callbacks = []
            self._cond.notify_all()
        for cb in callbacks:
            cb(self)

    def _set_exception(self, exc: BaseException) -> None:
        with self._cond:
            if self._state != _PENDING:
                raise FutureError("future already resolved")
            self._exception = exc
            self._state = _EXCEPTIONAL
            callbacks = self._callbacks
            self._callbacks = []
            self._cond.notify_all()
        for cb in callbacks:
            cb(self)


class LocalFuture(Future):
    """Lock-free :class:`Future` for single-threaded runtimes.

    The simulated cluster (:mod:`repro.amt.cluster`) resolves up to
    millions of futures per run, all from the one thread driving the DES;
    the per-instance ``threading.Condition`` of :class:`Future` is pure
    allocation and locking overhead there.  Semantics are identical except
    that ``get``/``wait`` never block: a pending ``LocalFuture`` raises
    :class:`FutureError` immediately, because no other thread could ever
    resolve it — callers drain the simulator first.

    Two extra slots support the cluster's barrier-aware wave batching
    (see DESIGN.md, "Deferred runs"):

    * ``_group`` — ``None`` until observed; then either the single
      :func:`local_when_all` barrier subscribed to this future, or the
      :data:`_MULTI` sentinel once any other observer appears.
    * ``_wave`` — set by the cluster while this future sits *inside* a
      formed wave whose end it does not terminate; called (zero-arg) the
      moment a new subscriber attaches, which reverts the wave to
      per-task form so the subscriber sees the true completion time.
    """

    __slots__ = ("_group", "_wave")

    def __init__(self) -> None:
        self._cond = None
        self._state = _PENDING
        self._value = None
        self._exception = None
        self._callbacks = []
        self._group = None
        self._wave = None

    # -- inspection ----------------------------------------------------
    def is_ready(self) -> bool:
        return self._state != _PENDING

    def has_exception(self) -> bool:
        return self._state == _EXCEPTIONAL

    # -- synchronization ------------------------------------------------
    def get(self, timeout: Optional[float] = None) -> Any:
        if self._state == _PENDING:
            raise FutureError(
                "LocalFuture is not ready; single-threaded futures cannot "
                "block (run the simulator first)")
        if self._state == _EXCEPTIONAL:
            assert self._exception is not None
            raise self._exception
        return self._value

    def wait(self, timeout: Optional[float] = None) -> None:
        if self._state == _PENDING:
            raise FutureError(
                "LocalFuture is not ready; single-threaded futures cannot "
                "block (run the simulator first)")

    # -- continuations / fulfilment ---------------------------------------
    def _add_callback(self, cb: Callable[[Future], None]) -> None:
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

    def _set_value(self, value: Any) -> None:
        if self._state != _PENDING:
            raise FutureError("future already resolved")
        self._value = value
        self._state = _READY
        callbacks = self._callbacks
        self._callbacks = []
        for cb in callbacks:
            cb(self)

    def _set_exception(self, exc: BaseException) -> None:
        if self._state != _PENDING:
            raise FutureError("future already resolved")
        self._exception = exc
        self._state = _EXCEPTIONAL
        callbacks = self._callbacks
        self._callbacks = []
        for cb in callbacks:
            cb(self)


class Promise:
    """The producer side of a :class:`Future` (HPX ``hpx::promise``)."""

    __slots__ = ("_future",)

    def __init__(self) -> None:
        self._future = Future()

    def get_future(self) -> Future:
        """Return the (single, shared) future associated with this promise."""
        return self._future

    def set_value(self, value: Any = None) -> None:
        """Fulfil the promise with ``value``; may be called exactly once."""
        self._future._set_value(value)

    def set_exception(self, exc: BaseException) -> None:
        """Fail the promise with ``exc``; may be called exactly once."""
        self._future._set_exception(exc)


def make_ready_future(value: Any = None) -> Future:
    """Return a future that is already fulfilled with ``value``."""
    fut = Future()
    fut._set_value(value)
    return fut


def make_exceptional_future(exc: BaseException) -> Future:
    """Return a future that is already failed with ``exc``."""
    fut = Future()
    fut._set_exception(exc)
    return fut


def when_all(futures: Iterable[Future]) -> Future:
    """Return a future that becomes ready when all inputs are ready.

    The result value is the list of input futures (as with
    ``hpx::when_all``); exceptions are *not* propagated here — callers
    inspect the individual futures, which keeps error handling explicit.
    """
    futs: Sequence[Future] = list(futures)
    out = Future()
    if not futs:
        out._set_value([])
        return out

    remaining = [len(futs)]
    lock = threading.Lock()

    def one_done(_f: Future) -> None:
        with lock:
            remaining[0] -= 1
            fire = remaining[0] == 0
        if fire:
            out._set_value(list(futs))

    for f in futs:
        f._add_callback(one_done)
    return out


def local_when_all(futures: Iterable[Future]) -> Future:
    """Lock-free :func:`when_all` for single-threaded runtimes.

    Same contract as :func:`when_all` but counts completions without a
    lock and returns a :class:`LocalFuture`.  Only safe when every input
    future is resolved from one thread (the DES hot path).
    """
    global _active_group
    futs: Sequence[Future] = list(futures)
    out = LocalFuture()
    if not futs:
        out._set_value([])
        return out

    state = [len(futs)]

    def one_done(_f: Future) -> None:
        state[0] -= 1
        if state[0] == 0:
            out._set_value(list(futs))

    # Tag each input with the barrier observing it (see LocalFuture
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


def dataflow(fn: Callable[..., Any], *futures: Future) -> Future:
    """Run ``fn`` once every input future is ready (HPX ``hpx::dataflow``).

    ``fn`` receives the *values* of the input futures.  If any input
    carries an exception, the output future carries the first such
    exception instead of running ``fn`` — this is how the solvers chain
    per-SD timestep tasks without explicit synchronization barriers.
    """
    out = Future()

    def fire(_ignored: Future) -> None:
        try:
            values = [f.get(timeout=0.0) if not f.is_ready() else f.get() for f in futures]
        except BaseException as exc:  # noqa: BLE001 - forwarded to future
            out._set_exception(exc)
            return
        try:
            out._set_value(fn(*values))
        except BaseException as exc:  # noqa: BLE001 - forwarded to future
            out._set_exception(exc)

    when_all(futures)._add_callback(fire)
    return out
