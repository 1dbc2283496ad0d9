"""Thread-pool async executor — the *real* execution runtime.

This is the Python analogue of HPX's threading subsystem for a single
compute node (the paper's Sec. 8.2 "shared memory implementation").  Work
is submitted with :meth:`TaskExecutor.async_` which immediately returns a
:class:`repro.amt.future.Future`; a fixed pool of worker threads drains the
queue.  NumPy kernels release the GIL for the bulk of their work, so the
futurized shared-memory solver genuinely overlaps SD computations.

Busy time per worker is accounted so that the same
:class:`repro.amt.counters.CounterRegistry` machinery the load balancer
polls in simulation can also be polled against real executions.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable, List, Optional

from .future import Future

__all__ = ["TaskExecutor"]


class _WorkItem:
    __slots__ = ("fn", "args", "kwargs", "future")

    def __init__(self, fn: Callable[..., Any], args: tuple, kwargs: dict, future: Future):
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.future = future


class TaskExecutor:
    """A fixed-size thread pool with an HPX-style ``async_`` interface.

    Parameters
    ----------
    num_threads:
        Number of worker threads ("CPUs" in the paper's Figs. 9–10).
    name:
        Used to key the per-worker busy-time counters.

    Notes
    -----
    The executor tracks, per worker, the cumulative wall-clock seconds
    spent inside task bodies (``busy_time``) and exposes the aggregate via
    :meth:`busy_time`.  Combined with :meth:`elapsed` this yields the same
    busy-fraction statistic as ``hpx::performance_counters::busy_time``.
    """

    def __init__(self, num_threads: int, name: str = "executor") -> None:
        if num_threads < 1:
            raise ValueError(f"num_threads must be >= 1, got {num_threads}")
        self.name = name
        self.num_threads = num_threads
        self._queue: "queue.SimpleQueue[Optional[_WorkItem]]" = queue.SimpleQueue()
        self._busy = [0.0] * num_threads
        self._busy_lock = threading.Lock()
        self._shutdown = False
        self._t0 = time.perf_counter()
        self._threads: List[threading.Thread] = []
        for i in range(num_threads):
            t = threading.Thread(target=self._worker, args=(i,), daemon=True,
                                 name=f"{name}-worker-{i}")
            t.start()
            self._threads.append(t)

    # -- submission -----------------------------------------------------
    def async_(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        """Schedule ``fn(*args, **kwargs)``; return its future immediately."""
        if self._shutdown:
            raise RuntimeError("executor has been shut down")
        fut = Future()
        self._queue.put(_WorkItem(fn, args, kwargs, fut))
        return fut

    def map_async(self, fn: Callable[..., Any], items: List[Any]) -> List[Future]:
        """Submit ``fn(item)`` for every item; return the list of futures."""
        return [self.async_(fn, item) for item in items]

    # -- accounting -----------------------------------------------------
    def busy_time(self) -> float:
        """Total seconds all workers spent executing task bodies."""
        with self._busy_lock:
            return sum(self._busy)

    def busy_time_per_worker(self) -> List[float]:
        """Per-worker busy seconds (copy)."""
        with self._busy_lock:
            return list(self._busy)

    def elapsed(self) -> float:
        """Wall-clock seconds since construction or the last reset."""
        return time.perf_counter() - self._t0

    def reset_counters(self) -> None:
        """Zero busy times and restart the elapsed clock.

        Matches the paper's Algorithm 1 line 35
        (``reset_all(busy_time)``) performed after each balancing step.
        """
        with self._busy_lock:
            for i in range(len(self._busy)):
                self._busy[i] = 0.0
        self._t0 = time.perf_counter()

    # -- lifecycle --------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and (optionally) join the workers."""
        if self._shutdown:
            return
        self._shutdown = True
        for _ in self._threads:
            self._queue.put(None)
        if wait:
            for t in self._threads:
                t.join()

    def __enter__(self) -> "TaskExecutor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()

    # -- worker loop ------------------------------------------------------
    def _worker(self, index: int) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            start = time.perf_counter()
            try:
                result = item.fn(*item.args, **item.kwargs)
            except BaseException as exc:  # noqa: BLE001 - forwarded to future
                item.future._set_exception(exc)
            else:
                item.future._set_value(result)
            finally:
                dt = time.perf_counter() - start
                with self._busy_lock:
                    self._busy[index] += dt
