"""Structured run results: the one record every entry point emits.

A :class:`RunRecord` captures everything the paper's evaluation (and the
CLI's ``--json`` flag) reads off a run: the virtual makespan, per-step
durations, the busy-time imbalance history, ghost/migration traffic,
balancing events, and — for numeric runs — the per-step errors against
the manufactured exact solution.

Records hold only plain JSON types (ints, floats, strings, lists,
``None``) so that

* ``RunRecord.from_dict(rec.to_dict()) == rec`` exactly (no ndarray or
  tuple/list ambiguity), which is what lets the parallel sweep runner
  guarantee bit-identical results to serial execution, and
* files written by ``--json`` round-trip losslessly (Python's float
  repr is shortest-exact).

Files are written by one streaming writer (:func:`write_json`): it
emits the bytes ``json.dump(doc, fh, indent=2, sort_keys=True)`` would,
field by field, renders a columnar service event log straight from its
arrays, and replaces the target atomically.
"""

from __future__ import annotations

import contextlib
import json
import os
import uuid
from dataclasses import asdict, dataclass, field, fields, replace
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["RunRecord", "SCHEMA", "write_json", "write_records",
           "read_records"]

#: Schema tag stamped into every JSON file this module writes.
#: v2: per-event ``balance_events`` telemetry replaced the aggregate
#: ``sds_moved``/``migration_bytes`` counters (now derived properties),
#: and ``balancer_resolved`` records the strategy that ran.
#: v3: elastic-cluster churn — ``recovery_events`` (one dict per node
#: failure/join the run handled), a ``recovery`` flag on every balance
#: event, and ``ClusterSpec.faults`` in the embedded spec.
#: v4: network topology — per-route-class byte telemetry
#: (``bytes_by_class``: ``remote`` on the flat model, ``intra_rack`` /
#: ``inter_rack`` / ``wan`` on the rack hierarchies), plus
#: ``ClusterSpec.topology`` and ``PartitionSpec.placement`` in the
#: embedded spec.
#: v5: the multi-tenant solve service — ``service_events`` (the raw
#: arrival/shed/start/finish stream of a ``solver == "service"`` run;
#: empty on solver records) and ``"service"`` as a third ``solver``
#: value with a :class:`repro.service.ServiceSpec` dict in ``spec``.
#: v6: closed-loop autoscaling — ``scale_events`` (one dict per
#: autoscale decision/transition of a service run: ``scale_out`` /
#: ``join`` / ``drain`` / ``retire`` rows from
#: :class:`repro.amt.autoscale.AutoscaleController`; empty when
#: autoscaling is off) and ``ServiceSpec.autoscale`` in the embedded
#: spec.
#: v7: pluggable task-cost models — ``cost_model_resolved`` records the
#: model that priced the run's tasks (``flat`` reproduces the pre-v7
#: arithmetic bit for bit), plus ``ScenarioSpec.cost_model`` /
#: ``ScenarioSpec.work_factors``, ``ServiceSpec.cost_model``, and
#: ``ClusterSpec.memory`` (the node cache hierarchy shape-aware models
#: price against) in the embedded spec.
SCHEMA = "repro.experiments/v7"


@dataclass
class RunRecord:
    """Diagnostics of one scenario run (serial or distributed).

    Serial runs leave the cluster-only fields at their empty defaults
    (``makespan`` 0.0, no step durations, no traffic).
    """

    #: registry name (or ad-hoc label) of the scenario that ran
    scenario: str = ""
    #: "serial", "distributed", or "service"
    solver: str = "distributed"
    #: the spec that produced this run, as ``ScenarioSpec.to_dict()``
    spec: Dict[str, Any] = field(default_factory=dict)
    #: timesteps integrated
    num_steps: int = 0
    #: timestep used (virtual-time runs still integrate real dt)
    dt: Optional[float] = None
    #: virtual seconds from first task to last barrier
    makespan: float = 0.0
    #: virtual duration of each timestep
    step_durations: List[float] = field(default_factory=list)
    #: max/mean busy-time ratio measured at the end of each step
    imbalance_history: List[float] = field(default_factory=list)
    #: ghost bytes sent over the run
    ghost_bytes: int = 0
    #: bytes per network route class (``remote`` on the flat model;
    #: ``intra_rack``/``inter_rack``/``wan`` on topology models — see
    #: :mod:`repro.amt.topology`); classes partition the traffic, so
    #: the values sum to the run's total network bytes
    bytes_by_class: Dict[str, int] = field(default_factory=dict)
    #: one dict per balancer invocation (including no-op decisions):
    #: ``{step, strategy, sds_moved, migration_bytes, imbalance_before,
    #: imbalance_after}`` — see :class:`repro.core.strategies
    #: .BalanceEvent`; the aggregate ``sds_moved``/``migration_bytes``
    #: are derived properties summing these events
    balance_events: List[Dict[str, Any]] = field(default_factory=list)
    #: one dict per churn event the run handled, in virtual-time order:
    #: ``{time, kind, node, sds_evacuated, tasks_requeued,
    #: recovery_bytes}`` — see :class:`repro.amt.faults.RecoveryEvent`
    recovery_events: List[Dict[str, Any]] = field(default_factory=list)
    #: raw event stream of a multi-tenant service run, in virtual-time
    #: order: ``{kind: arrival|shed|start|finish, t, tenant, job, ...}``
    #: dicts (see :mod:`repro.service.manager`); empty for solver runs.
    #: Live service runs store the columnar
    #: :class:`repro.service.telemetry.EventLog` here (it indexes,
    #: iterates, and compares as the same list of dicts).
    #: :func:`write_records` streams its JSON text straight from the
    #: arrays and :meth:`to_dict` renders it to plain dicts; both give
    #: what the list of dicts would.  Reduce with
    #: :func:`repro.service.summarize_service`
    service_events: List[Dict[str, Any]] = field(default_factory=list)
    #: autoscale decision/transition log of a service run with a
    #: closed-loop policy, in virtual-time order: ``{t, action, node,
    #: nodes, ...}`` dicts (``action`` one of ``scale_out`` / ``join``
    #: / ``drain`` / ``retire``; decision rows carry the observation's
    #: ``utilization`` / ``p99_wait`` / ``shed_rate`` /
    #: ``queue_depth``) — see :mod:`repro.amt.autoscale`.  Empty when
    #: autoscaling is off; cost it with
    #: :func:`repro.amt.autoscale.node_seconds`
    scale_events: List[Dict[str, Any]] = field(default_factory=list)
    #: ``[step, parts_after]`` per balancing event that moved SDs
    parts_events: List[List[Any]] = field(default_factory=list)
    #: SD ownership at the end of the run
    final_parts: List[int] = field(default_factory=list)
    #: per-node busy time accumulated over the whole run
    busy_total: List[float] = field(default_factory=list)
    #: per-step errors vs the exact solution (eq. 7), if tracked
    errors: Optional[List[float]] = None
    #: summed eq.-(7) error (None when errors were not tracked)
    total_error: Optional[float] = None
    #: kernel backend that executed the numerics: the spec's request
    #: after the radius heuristic resolved it (deterministic, so sweep
    #: parity is unaffected; "" in records written before the backend
    #: field existed)
    backend_resolved: str = ""
    #: balancing strategy the run was wired with: the policy's request
    #: after the ``auto`` default resolved it ("" for serial runs and
    #: pre-strategy records)
    balancer_resolved: str = ""
    #: task-cost model that priced the run's simulated tasks: the
    #: spec's request after the ``auto`` → ``flat`` default resolved
    #: it ("" for serial runs and records written before the
    #: cost-model layer existed)
    cost_model_resolved: str = ""

    @property
    def sds_moved(self) -> int:
        """Total SDs moved by balancing (sum over ``balance_events``)."""
        return sum(int(e["sds_moved"]) for e in self.balance_events)

    @property
    def migration_bytes(self) -> int:
        """Total migration bytes charged (sum over ``balance_events``)."""
        return sum(int(e["migration_bytes"]) for e in self.balance_events)

    @property
    def recovery_bytes(self) -> int:
        """Checkpoint re-fetch bytes (sum over ``recovery_events``)."""
        return sum(int(e["recovery_bytes"]) for e in self.recovery_events)

    def to_dict(self) -> Dict[str, Any]:
        events = self.service_events
        if type(events) is list:
            return asdict(self)
        # asdict would deep-copy a columnar log (it is no dataclass)
        # only for the copy to be replaced; render its dicts instead
        d = asdict(replace(self, service_events=[]))
        d["service_events"] = list(events)
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "RunRecord":
        return cls(**d)


def _json_chunks(value: Any, level: int) -> Iterable[str]:
    """The text ``json.dumps(value, indent=2, sort_keys=True)`` gives,
    with every line after the first indented ``level`` more levels.

    Run records are written field by field, lists holding records item
    by item, and anything with an ``iter_json`` method (the columnar
    service event log) renders itself; every other value goes through
    the stock encoder, which is exact re-indented because JSON escapes
    every newline inside a string.
    """
    if hasattr(value, "iter_json"):
        return value.iter_json(level)
    if isinstance(value, RunRecord):
        return _object_chunks([(f.name, getattr(value, f.name))
                               for f in fields(value)], level)
    if isinstance(value, list) and any(isinstance(v, RunRecord)
                                       for v in value):
        return _array_chunks(value, level)
    text = json.dumps(value, indent=2, sort_keys=True)
    return (text.replace("\n", "\n" + "  " * level),)


def _object_chunks(items: Iterable[Tuple[str, Any]],
                   level: int) -> Iterator[str]:
    items = sorted(items)
    if not items:
        yield "{}"
        return
    pad = "\n" + "  " * (level + 1)
    head = "{"
    for key, value in items:
        yield f"{head}{pad}{encode_basestring_ascii(key)}: "
        yield from _json_chunks(value, level + 1)
        head = ","
    yield "\n" + "  " * level + "}"


def _array_chunks(values: List[Any], level: int) -> Iterator[str]:
    pad = "\n" + "  " * (level + 1)
    head = "["
    for value in values:
        yield head + pad
        yield from _json_chunks(value, level + 1)
        head = ","
    yield "\n" + "  " * level + "]"


def write_json(path: str, payload: Dict[str, Any]) -> None:
    """Write ``payload`` (plus the schema tag) as pretty JSON.

    The file holds exactly the bytes ``json.dump(doc, fh, indent=2,
    sort_keys=True)`` plus a newline would, but payload values may also
    be run records (or lists of them), which are streamed without
    building their dicts.  The text goes to a sibling temporary file
    that replaces ``path`` only once it is complete, so a failure
    mid-write leaves any previous file intact and no partial one.
    """
    doc = {"schema": SCHEMA}
    doc.update(payload)
    tmp = f"{path}.{uuid.uuid4().hex[:12]}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            write = fh.write
            for chunk in _object_chunks(doc.items(), 0):
                write(chunk)
            write("\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_records(path: str, records: List[RunRecord]) -> None:
    """Serialize a list of run records to ``path``."""
    write_json(path, {"records": list(records)})


def read_records(path: str) -> List[RunRecord]:
    """Load run records written by :func:`write_records`."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"{path}: unknown schema {doc.get('schema')!r}")
    return [RunRecord.from_dict(d) for d in doc["records"]]
