"""Performance counters modelled on ``hpx::performance_counters``.

The load balancer (paper Sec. 7) polls exactly one counter —
``busy_time`` per node — and resets all counters after each balancing
iteration (Algorithm 1, line 35) so every node's busy fraction is measured
over the same window.  This module provides:

* :class:`Counter` — monotone accumulator with an observation window
  (``value`` since the last reset, ``total`` since creation).
* :class:`BusyTimeCounter` — adds interval tracking so a node can mark
  ``begin_work``/``end_work`` spans; overlapping spans from multiple cores
  accumulate additively, mirroring HPX's per-thread aggregation.
* :class:`CounterRegistry` — AGAS registration and the ``reset_all``
  bulk operation.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .agas import AddressSpace

__all__ = ["Counter", "BusyTimeCounter", "CounterRegistry", "BUSY_TIME"]

#: Canonical counter kind polled by the load balancer.
BUSY_TIME = "busy_time"


class Counter:
    """A resettable accumulator.

    ``value()`` reports the accumulation since the most recent
    :meth:`reset`; ``total()`` reports the lifetime accumulation.  The
    distinction matters: Algorithm 1 computes node power from the *window*
    value so that stale history does not mask recent slowdowns.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._window = 0.0
        self._lifetime = 0.0

    def add(self, amount: float) -> None:
        """Accumulate ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self._window += amount
        self._lifetime += amount

    def value(self) -> float:
        """Accumulation since the last reset."""
        return self._window

    def total(self) -> float:
        """Lifetime accumulation (never reset)."""
        return self._lifetime

    def reset(self, now: Optional[float] = None) -> None:
        """Zero the observation window (lifetime total is preserved).

        ``now`` is the virtual time the new window starts at.  The base
        counter has no notion of in-flight work, so it ignores it;
        :class:`BusyTimeCounter` uses it to clip open work intervals at
        the window boundary.
        """
        self._window = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name} window={self._window:.6g}>"


class BusyTimeCounter(Counter):
    """Busy-time accumulator fed by explicit work intervals.

    Each simulated core brackets task execution with ``begin_work(t)`` /
    ``end_work(t)``; the counter accumulates the interval lengths.
    Concurrent intervals add up — two cores busy for one second
    contribute two busy-seconds, exactly like summing HPX's per-worker
    idle-rate counters.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._open: Dict[int, float] = {}
        self._next_token = 0

    def begin_work(self, now: float) -> int:
        """Open a work interval at time ``now``; returns a token."""
        token = self._next_token
        self._next_token += 1
        self._open[token] = now
        return token

    def end_work(self, now: float, token: int) -> None:
        """Close the interval identified by ``token`` at time ``now``."""
        try:
            start = self._open.pop(token)
        except KeyError:
            raise ValueError(f"unknown work token {token}") from None
        if now < start:
            raise ValueError(f"end_work at t={now} before begin at t={start}")
        self.add(now - start)

    def reset(self, now: Optional[float] = None) -> None:
        """Zero the window, clipping open intervals at ``now``.

        A core that is mid-task when the balancer resets counters
        (Algorithm 1 line 35) has an open interval straddling the window
        boundary.  The span *before* the reset belongs to the old
        window, so each open interval is credited up to ``now`` into the
        closing window (keeping the lifetime total exact) and its start
        is re-based to ``now`` — the new window measures only work done
        inside it.  Without the clip, ``end_work`` after the reset
        charged the entire pre-reset span to the new window, inflating
        the eq.-8 node power of any node busy at the poll.

        ``now`` is required whenever intervals are open; a plain
        ``reset()`` stays valid for quiescent counters.
        """
        if self._open:
            if now is None:
                raise ValueError(
                    f"{self.name}: reset with {len(self._open)} open work "
                    f"interval(s) needs the current time to clip them")
            for token, start in self._open.items():
                if now < start:
                    raise ValueError(
                        f"{self.name}: reset at t={now} before open "
                        f"interval start t={start}")
                # flows through add() so the lifetime total stays exact
                self.add(now - start)
                self._open[token] = now
        super().reset(now)


class CounterRegistry:
    """Registry of named busy-time counters, resolvable through AGAS.

    Counter names follow the HPX convention
    ``/counters/<locality>/busy_time`` (e.g. ``/counters/node2/busy_time``).
    """

    PREFIX = "/counters"

    def __init__(self, agas: Optional[AddressSpace] = None) -> None:
        self.agas = agas if agas is not None else AddressSpace()
        # creation-order index: the balancer resets all counters every
        # step (Algorithm 1 line 35), and an AGAS prefix scan with a
        # name split per counter is O(total counters x name length) per
        # poll — noticeable at 512+ nodes.  Counters created through the
        # registry are listed here at creation instead.
        self._counters: List[Counter] = []

    def create_busy_time(self, locality: str) -> BusyTimeCounter:
        """Create and register the busy-time counter for ``locality``."""
        counter = BusyTimeCounter(f"{self.PREFIX}/{locality}/{BUSY_TIME}")
        self.agas.register(counter.name, counter)  # raises on duplicates
        self._counters.append(counter)
        return counter

    def reset_all(self, now: Optional[float] = None) -> int:
        """Reset every counter, in creation order; return the count.

        This is Algorithm 1 line 35:
        ``reset_all(hpx::performance_counters::busy_time)``.  Walks the
        creation-order list rather than an AGAS prefix scan, so the
        per-step reset is O(counters) with no name parsing.

        ``now`` is the virtual time the new measurement window starts
        at; busy-time counters use it to clip work intervals that are
        open at the reset (see :meth:`BusyTimeCounter.reset`) and it is
        required when any interval is open.
        """
        for counter in self._counters:
            counter.reset(now)
        return len(self._counters)
