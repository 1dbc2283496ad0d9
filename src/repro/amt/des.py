"""Discrete-event simulation core used to model the distributed cluster.

The paper evaluates its solver on a real HPX/MPI cluster.  Offline, in pure
Python, wall-clock scaling numbers would reflect interpreter overheads
rather than the schedule the paper studies, so the distributed runtime
accounts *virtual time* through this simulator while the numerics run for
real (see DESIGN.md, substitution 1).

The simulator is a classic event-queue design:

* :class:`Event` — (time, priority, seq, action) tuples ordered by time;
  ``seq`` breaks ties deterministically in insertion order.
* :class:`Simulator` — owns the event queue and the virtual clock.  Actions
  are plain callables that may schedule further events.

Determinism is a design requirement (tests assert bit-identical virtual
schedules across runs), hence the explicit tie-breaking and the absence of
any wall-clock coupling.

The queue is a single binary heap of ``(time, priority, seq, event)``
tuples (see DESIGN.md, "DES fast path").  Tuple keys keep comparisons in
C; ``seq`` is unique so the event object itself is never compared.
Cancelled events are compacted lazily: they are dropped in bulk once they
outnumber live ones instead of lingering forever.

Opt-in profiling (``REPRO_DES_PROFILE=1`` or ``Simulator(profile=True)``)
accumulates per-event-class wall-time counters; schedulers tag events via
``schedule(..., klass="delivery")``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Event", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on invalid simulator usage (e.g. scheduling in the past)."""


class Event:
    """A scheduled action in virtual time.

    Attributes
    ----------
    time:
        Virtual time at which the action fires.
    priority:
        Secondary ordering key; lower fires first at equal times.  The
        cluster uses this to drain message *deliveries* before task
        *completions* at identical timestamps, which keeps ghost data
        visibly arriving before dependent tasks are reconsidered.
    cancelled:
        Cancelled events stay queued but are skipped when popped.
    klass:
        Optional profiling label (e.g. ``"delivery"``); only consulted
        when the simulator runs with profiling enabled.
    """

    __slots__ = ("time", "priority", "seq", "action", "cancelled", "klass",
                 "_queue")

    def __init__(self, time: float, priority: int, seq: int,
                 action: Callable[[], None],
                 klass: Optional[str] = None) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.cancelled = False
        self.klass = klass
        self._queue: Optional[_HeapQueue] = None

    def cancel(self) -> None:
        """Mark the event so it is skipped when its time comes."""
        if not self.cancelled:
            self.cancelled = True
            queue = self._queue
            if queue is not None:
                queue.note_cancel()

    def _key(self) -> Tuple[float, int, int]:
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self._key() < other._key()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6g} prio={self.priority}{flag}>"


#: Queue entries are plain tuples so ordering stays in C.  ``seq`` is
#: unique, so the trailing :class:`Event` is never compared.
_Entry = Tuple[float, int, int, Event]

#: Lazy compaction threshold: compact once cancelled entries both exceed
#: this count and outnumber live ones.
_COMPACT_MIN = 512


class _HeapQueue:
    """Seed-style binary heap, with tuple keys and lazy compaction."""

    __slots__ = ("_heap", "live", "_cancelled")

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self.live = 0
        self._cancelled = 0

    def push(self, entry: _Entry) -> None:
        entry[3]._queue = self
        heapq.heappush(self._heap, entry)
        self.live += 1

    def note_cancel(self) -> None:
        self.live -= 1
        self._cancelled += 1
        if self._cancelled > _COMPACT_MIN and self._cancelled > self.live:
            self.compact()

    def compact(self) -> None:
        """Drop cancelled entries in bulk and re-heapify."""
        self._heap = [e for e in self._heap if not e[3].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def peek(self) -> Optional[_Entry]:
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3].cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
            else:
                return entry
        return None

    def pop_front(self) -> _Entry:
        """Pop the entry just returned by :meth:`peek`."""
        entry = heapq.heappop(self._heap)
        entry[3]._queue = None
        self.live -= 1
        return entry


class Simulator:
    """Deterministic event-driven virtual clock.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("fires at t=1.5"))
        sim.run()
        assert sim.now == 1.5

    Parameters
    ----------
    profile:
        Accumulate per-event-class wall-time counters in
        :attr:`profile`.  Defaults to ``REPRO_DES_PROFILE``.
    """

    def __init__(self, profile: Optional[bool] = None) -> None:
        self._queue = _HeapQueue()
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        self._run_until: Optional[float] = None
        #: priority of the event being executed; ``+inf`` outside
        #: :meth:`run`, so a reader outside the loop ranks
        #: after every same-time event (the cluster's done rule reads it)
        self._priority: float = math.inf
        self._processed = 0
        if profile is None:
            profile = os.environ.get("REPRO_DES_PROFILE", "") not in ("", "0")
        #: ``{event class: [count, seconds]}`` when profiling, else ``None``.
        self.profile: Optional[Dict[str, List[Any]]] = {} if profile else None

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of (non-cancelled) events executed so far."""
        return self._processed

    @property
    def run_until(self) -> Optional[float]:
        """The ``until`` boundary of the active :meth:`run`, else ``None``.

        Batching layers that consume *future* work inside one event (the
        service arrival pump's drain-ahead) must not reach past this
        cut: an observer reading state when ``run(until=t)`` returns
        would otherwise see effects from beyond ``t``.
        """
        return self._run_until

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next live event, or ``None`` if none queued.

        Lets batching layers (the service arrival pump) check whether any
        event could fire before a candidate time without popping anything.
        """
        entry = self._queue.peek()
        return entry[0] if entry is not None else None

    # -- scheduling --------------------------------------------------------
    def schedule(self, time: float, action: Callable[[], None],
                 priority: int = 0, klass: Optional[str] = None) -> Event:
        """Schedule ``action`` at absolute virtual ``time``.

        Raises :class:`SimulationError` if ``time`` is in the past: virtual
        time only moves forward, which is what makes busy-time accounting
        consistent.  ``klass`` tags the event for the opt-in profiler.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now={self._now}): time moves forward"
            )
        ev = Event(float(time), priority, next(self._seq), action, klass)
        self._queue.push((ev.time, ev.priority, ev.seq, ev))
        return ev

    def schedule_after(self, delay: float, action: Callable[[], None],
                       priority: int = 0, klass: Optional[str] = None) -> Event:
        """Schedule ``action`` ``delay`` virtual seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule(self._now + delay, action, priority, klass)

    # -- execution -----------------------------------------------------------
    def _execute(self, ev: Event) -> None:
        # the caller (run) restores ``_priority`` to +inf on exit
        self._priority = ev.priority
        profile = self.profile
        if profile is None:
            ev.action()
            return
        t0 = perf_counter()
        ev.action()
        dt = perf_counter() - t0
        cell = profile.get(ev.klass or "event")
        if cell is None:
            profile[ev.klass or "event"] = cell = [0, 0.0]
        cell[0] += 1
        cell[1] += dt

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drain the event queue; return the final virtual time.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time (the triggering event
            is left in the queue; an event *exactly at* ``until`` still
            fires).  The clock always lands exactly on ``until`` when it
            lies ahead of ``now`` — including when the queue drains
            early, so back-to-back ``run(until=...)`` windows tile
            virtual time without gaps.  The clock never moves backwards:
            ``until`` in the past of ``now`` leaves the clock where it
            is.
        max_events:
            Safety valve against runaway schedules; raises
            :class:`SimulationError` *before* the offending event is
            popped or counted, so the queue and ``events_processed``
            stay consistent.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._run_until = until
        executed = 0
        queue = self._queue
        try:
            while True:
                entry = queue.peek()
                if entry is None:
                    # drained before reaching ``until``: the clock still
                    # advances to the requested time, exactly as it does
                    # when a later event exists beyond the boundary —
                    # otherwise back-to-back ``run(until=...)`` windows
                    # (the service layer's polling loop) would measure
                    # short windows against a stale ``now``
                    if until is not None and until > self._now:
                        self._now = until
                    break
                ev = entry[3]
                if until is not None and ev.time > until:
                    if until > self._now:
                        self._now = until
                    break
                if max_events is not None and executed >= max_events:
                    raise SimulationError(f"exceeded max_events={max_events}")
                queue.pop_front()
                self._now = ev.time
                self._processed += 1
                executed += 1
                self._execute(ev)
        finally:
            self._running = False
            self._run_until = None
            self._priority = math.inf
        return self._now

    # -- profiling ---------------------------------------------------------
    def profile_report(self) -> str:
        """Human-readable per-event-class timing table (profiling mode)."""
        if self.profile is None:
            return "DES profiling disabled (set REPRO_DES_PROFILE=1)"
        lines = [f"{'class':<14} {'count':>10} {'seconds':>10}"]
        total_n = 0
        total_s = 0.0
        for klass in sorted(self.profile):
            count, secs = self.profile[klass]
            total_n += count
            total_s += secs
            lines.append(f"{klass:<14} {count:>10} {secs:>10.4f}")
        lines.append(f"{'total':<14} {total_n:>10} {total_s:>10.4f}")
        return "\n".join(lines)
