"""Wall-clock spans around the entry points of ``repro``'s layers.

:class:`Tracer` wraps the functions and methods named in :data:`LAYERS`
while it is installed, and records one span per call: name, layer,
start, end and the enclosing span.  A layer's *self time* is the time
its spans cover minus the time their child spans cover, so the self
times of all layers plus the time outside every span add up to the
traced window exactly.

Spans live in memory; :func:`chrome_events` renders them as Chrome
trace-event JSON (``ph: "X"`` complete events, one thread per layer),
which Perfetto and ``chrome://tracing`` open as they are.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layer -> (module, attribute path) of every callable wrapped for it.
#: Module-level functions are also replaced wherever another ``repro``
#: module imported them by name.  The cost-model layer is filled in at
#: install time with every registered model class.
LAYERS: Dict[str, List[Tuple[str, str]]] = {
    "experiments.spec": [("repro.experiments.registry", "build")],
    "experiments.record": [("repro.experiments.results",
                            "RunRecord.to_dict")],
    "experiments.serialize": [("repro.experiments.results",
                               "write_records")],
    "solver.operator": [("repro.experiments.runner", "cached_operator")],
    "partition": [("repro.experiments.spec", "PartitionSpec.build"),
                  ("repro.partition.placement", "apply_placement")],
    "mesh.plan": [("repro.mesh.decomposition", "Decomposition.__init__"),
                  ("repro.mesh.decomposition",
                   "Decomposition.ghost_messages"),
                  ("repro.mesh.decomposition", "Decomposition.case_split")],
    "solver.construct": [("repro.solver.distributed",
                          "DistributedSolver.__init__")],
    # the solver's own step orchestration outside the DES loop: the
    # step-0 plan compile and task submission, the result arrays
    "solver.drive": [("repro.solver.distributed", "DistributedSolver.run")],
    "solver.exact": [("repro.solver.exact", f"ManufacturedProblem.{m}")
                     for m in ("__init__", "source", "exact",
                               "initial_condition")]
                    + [("repro.solver.exact", "step_error")],
    "solver.kernel": [("repro.solver.kernel",
                       "NonlocalOperator.apply_block")],
    "costmodel": [],
    "core.balance": [("repro.core.strategies.base",
                      "BalanceStrategy.balance_step")],
    "amt.cluster": [("repro.amt.cluster", f"SimCluster.{m}")
                    for m in ("submit", "submit_group", "resubmit", "send",
                              "send_many", "send_group", "timer",
                              "fail_node", "add_node", "run")],
    "amt.des": [("repro.amt.des", "Simulator.run")],
    "service.arrivals": [("repro.service.arrivals",
                          "generate_arrival_arrays")],
    "service.telemetry": [("repro.service.telemetry", "summarize_service")],
}

_COST_METHODS = ("task_work", "work_scale")

#: one recorded call: (name, layer, start, end, parent span index or -1)
Span = Tuple[str, str, float, float, int]


class Tracer:
    """Installs span-recording wrappers; :meth:`uninstall` restores them.

    Also counts what the kernel layer computes (``kernel_flops`` and
    ``kernel_bytes``, from block sizes; the flops are direct-stencil
    equivalents whatever backend runs) and keeps every
    :class:`~repro.amt.des.Simulator` that ran, so its opt-in event
    profile can be read afterwards.
    """

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self._restore: List[Tuple[Any, str, Any]] = []
        self.kernel_flops = 0.0
        self.kernel_bytes = 0.0
        self.simulators: Dict[int, Any] = {}

    # -- installation ------------------------------------------------------
    def install(self) -> "Tracer":
        import importlib
        from repro.costmodel.registry import (cost_model_names,
                                              get_cost_model_class)
        from repro.costmodel.base import CostModel
        hooks = {"NonlocalOperator.apply_block": self._count_kernel,
                 "Simulator.run": self._keep_simulator}
        try:
            for layer, targets in LAYERS.items():
                for module_name, path in targets:
                    owner = importlib.import_module(module_name)
                    if "." in path:
                        cls_name, attr = path.split(".")
                        self._patch(getattr(owner, cls_name), attr, layer,
                                    path, hooks.get(path))
                    else:
                        self._patch_function(owner, path, layer)
            classes = [CostModel] + [get_cost_model_class(n)
                                     for n in cost_model_names()]
            for cls in classes:
                for attr in _COST_METHODS:
                    if attr in vars(cls):
                        self._patch(cls, attr, "costmodel",
                                    f"{cls.__name__}.{attr}")
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr: str, layer: str, name: str,
               hook: Optional[Callable] = None) -> None:
        original = vars(owner)[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, layer, hook))

    def _patch_function(self, module, attr: str, layer: str) -> None:
        original = getattr(module, attr)
        wrapped = self._wrap(original, attr, layer, None)
        # re-exports and ``from x import f`` bindings hold the original
        # object; replace every one so no call path escapes the span
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def _wrap(self, fn: Callable, name: str, layer: str,
              hook: Optional[Callable]) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, layer, t0, t1, parent)
        return traced

    # -- hooks -------------------------------------------------------------
    def _count_kernel(self, args) -> None:
        op, padded = args[0], args[1]
        r = op.radius
        rows, cols = padded.shape[0] - 2 * r, padded.shape[1] - 2 * r
        # the direct stencil's count (one multiply-add per neighbour per
        # DP), the same work the simulated cluster charges; the FFT and
        # sparse backends do other arithmetic for the same update, so a
        # rate built on this is nominal, not the hardware's flop rate
        self.kernel_flops += op.flops_per_dp() * rows * cols
        # one read of the padded block, one write of the update
        self.kernel_bytes += 8.0 * (padded.size + rows * cols)

    def _keep_simulator(self, args) -> None:
        self.simulators.setdefault(id(args[0]), args[0])


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the duration of its direct children."""
    own = [end - start for _name, _layer, start, end, _parent in spans]
    for _name, _layer, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_table(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Calls and summed self time per layer, every layer present."""
    table = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        row = table[span[1]]
        row["calls"] += 1
        row["self_s"] += own
    return table


def chrome_events(spans: List[Span], origin: float, pid: int,
                  process: str) -> List[Dict[str, Any]]:
    """Spans as Chrome trace events: process ``pid`` named ``process``,
    one thread per layer, times in microseconds from ``origin``.  Each
    event carries its span ``id`` and ``parent`` so self times can be
    recomputed from the file alone (:func:`layer_self_from_events`)."""
    tids = {layer: i + 1 for i, layer in enumerate(LAYERS)}
    events: List[Dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": pid,
         "args": {"name": process}}]
    events += [{"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": layer}} for layer, tid in tids.items()]
    for i, (name, layer, start, end, parent) in enumerate(spans):
        events.append({"ph": "X", "name": name, "cat": layer, "pid": pid,
                       "tid": tids[layer], "ts": (start - origin) * 1e6,
                       "dur": (end - start) * 1e6,
                       "args": {"id": i, "parent": parent}})
    return events


def layer_self_from_events(events: List[Dict[str, Any]]
                           ) -> Dict[Tuple[int, str], float]:
    """``{(pid, layer): self seconds}`` recomputed from Chrome events."""
    spans: Dict[int, Dict[int, Span]] = defaultdict(dict)
    for e in events:
        if e["ph"] == "X":
            spans[e["pid"]][e["args"]["id"]] = (
                e["name"], e["cat"], e["ts"] * 1e-6,
                (e["ts"] + e["dur"]) * 1e-6, e["args"]["parent"])
    out: Dict[Tuple[int, str], float] = defaultdict(float)
    for pid, by_id in spans.items():
        rows = [by_id[i] for i in range(len(by_id))]
        for span, own in zip(rows, self_times(rows)):
            out[(pid, span[1])] += own
    return dict(out)
