"""Reduction of the raw service event stream into headline metrics.

:func:`summarize_service` is a pure function of the event list (plus
the horizon), so it works identically on a live run's
``JobManager.events`` and on the ``service_events`` field of a record
loaded back from JSON — the reporting layer and the benches both call
it on whichever they have.

:class:`EventLog` is the columnar in-memory form of that stream: the
manager appends typed rows into parallel arrays (a byte per kind, a
float64 per timestamp, …) instead of allocating one dict per event,
and the log lazily renders dicts on access so every consumer of the
list-of-dicts shape — :func:`summarize_service`, the reporting tables,
parity asserts — sees byte-identical events.  Persistence skips the
dicts altogether: :meth:`EventLog.iter_json` renders the JSON text of
the stream straight from the arrays, and the record writer
(:func:`repro.experiments.write_records`) streams it to the file (see
DESIGN.md, "Service fast path").
"""

from __future__ import annotations

import json
import math
from array import array
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

__all__ = ["EventLog", "percentile", "jain_fairness", "summarize_service"]

#: kind codes for the columnar log (order is meaningless; values are an
#: internal encoding, never persisted)
_ARRIVAL, _SHED, _START, _FINISH = 0, 1, 2, 3
_KIND_NAMES = ("arrival", "shed", "start", "finish")

#: events rendered per chunk by :meth:`EventLog.iter_json`
_JSON_CHUNK = 4096

_float_repr = float.__repr__
_INF = float("inf")


def _json_number(x: Any) -> str:
    """``x`` as :mod:`json` writes it; floats take json's own route,
    ``float.__repr__`` or ``NaN`` / ``Infinity`` / ``-Infinity``."""
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x == _INF:
            return "Infinity"
        if x == -_INF:
            return "-Infinity"
        return _float_repr(x)
    return json.dumps(x)


class EventLog:
    """Columnar service telemetry with a lazy list-of-dicts view.

    Parallel arrays hold one entry per event: ``kind`` (byte code),
    ``t`` (float64), ``tenant`` (index into the tenant-name table) and
    ``job``; kind-specific extras ride in one more column: ``None`` for
    arrivals, a shed's queue ``depth`` as the plain int (sheds are most
    events under overload, and a small int allocates nothing), a tuple
    for starts (``wait``) and finishes (``wait``/``makespan``/
    ``service``).  Indexing and iteration materialize the exact
    dicts the per-dict path appended, so the log compares equal to (and
    serializes as) the historical list-of-dicts stream.
    """

    __slots__ = ("_names", "_kind", "_t", "_tenant", "_job", "_extra")

    def __init__(self, tenant_names: Sequence[str]) -> None:
        self._names = list(tenant_names)
        self._kind = array("b")
        self._t = array("d")
        self._tenant = array("i")
        self._job = array("q")
        self._extra: List[Any] = []

    # -- appends (manager hot path) ---------------------------------------
    def arrival(self, t: float, tenant: int, job: int) -> None:
        self._kind.append(_ARRIVAL)
        self._t.append(t)
        self._tenant.append(tenant)
        self._job.append(job)
        self._extra.append(None)

    def shed(self, t: float, tenant: int, job: int, depth: int) -> None:
        self._kind.append(_SHED)
        self._t.append(t)
        self._tenant.append(tenant)
        self._job.append(job)
        self._extra.append(depth)

    def start(self, t: float, tenant: int, job: int, wait: float) -> None:
        self._kind.append(_START)
        self._t.append(t)
        self._tenant.append(tenant)
        self._job.append(job)
        self._extra.append((wait,))

    def finish(self, t: float, tenant: int, job: int, wait: float,
               makespan: float, service: float) -> None:
        self._kind.append(_FINISH)
        self._t.append(t)
        self._tenant.append(tenant)
        self._job.append(job)
        self._extra.append((wait, makespan, service))

    # -- list-of-dicts view ------------------------------------------------
    def _event(self, i: int) -> Dict[str, Any]:
        kind = self._kind[i]
        e: Dict[str, Any] = {"kind": _KIND_NAMES[kind], "t": self._t[i],
                             "tenant": self._names[self._tenant[i]],
                             "job": self._job[i]}
        extra = self._extra[i]
        if kind == _SHED:
            e["depth"] = extra
        elif kind == _START:
            e["wait"] = extra[0]
        elif kind == _FINISH:
            e["wait"], e["makespan"], e["service"] = extra
        return e

    def __len__(self) -> int:
        return len(self._kind)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._event(j) for j in range(*i.indices(len(self)))]
        n = len(self._kind)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("event index out of range")
        return self._event(i)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        for i in range(len(self._kind)):
            yield self._event(i)

    # -- JSON rendering ----------------------------------------------------
    def iter_json(self, level: int = 0) -> Iterator[str]:
        """The JSON text of ``list(self)``, in chunks, without any dict.

        Joined, the chunks are exactly ``json.dumps(list(self),
        indent=2, sort_keys=True)`` with every line after the first
        indented ``level`` more levels: the text the list has when it
        sits ``level`` containers deep in an indent-2 document.  Each
        chunk renders up to ``_JSON_CHUNK`` events straight from the
        arrays, so memory stays bounded whatever the log's length.
        """
        n = len(self._kind)
        if not n:
            yield "[]"
            return
        item = "\n" + "  " * (level + 1)
        key = item + "  "
        names = [encode_basestring_ascii(name) for name in self._names]
        # one template per kind, keys in sorted order; ``job`` is always
        # an int (the column is int64), the extras go through json's
        # number rules (``%s`` of an exact int is already its repr)
        arrival = (f'{{{key}"job": %d,{key}"kind": "arrival",{key}"t": %s,'
                   f'{key}"tenant": %s{item}}}')
        shed = (f'{{{key}"depth": %s,{key}"job": %d,{key}"kind": "shed",'
                f'{key}"t": %s,{key}"tenant": %s{item}}}')
        start = (f'{{{key}"job": %d,{key}"kind": "start",{key}"t": %s,'
                 f'{key}"tenant": %s,{key}"wait": %s{item}}}')
        finish = (f'{{{key}"job": %d,{key}"kind": "finish",'
                  f'{key}"makespan": %s,{key}"service": %s,{key}"t": %s,'
                  f'{key}"tenant": %s,{key}"wait": %s{item}}}')
        num = _json_number
        sep = "," + item
        head = "[" + item
        for lo in range(0, n, _JSON_CHUNK):
            hi = min(lo + _JSON_CHUNK, n)
            t_col = self._t[lo:hi]
            total = sum(t_col)
            # a finite sum means every timestamp is finite, so the plain
            # repr is json's text for all of them (an overflowing sum
            # only costs the slower per-value path)
            t_text = map(_float_repr if total - total == 0 else num, t_col)
            rows: List[str] = []
            append = rows.append
            for kind, t, tenant, job, extra in zip(
                    self._kind[lo:hi], t_text, self._tenant[lo:hi],
                    self._job[lo:hi], self._extra[lo:hi]):
                if kind == _ARRIVAL:
                    append(arrival % (job, t, names[tenant]))
                elif kind == _SHED:
                    append(shed % (extra if type(extra) is int
                                   else num(extra), job, t, names[tenant]))
                elif kind == _START:
                    append(start % (job, t, names[tenant], num(extra[0])))
                else:
                    wait, makespan, service = extra
                    append(finish % (job, num(makespan), num(service), t,
                                     names[tenant], num(wait)))
            yield head + sep.join(rows)
            head = sep
        yield "\n" + "  " * level + "]"

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, EventLog):
            return (self._names == other._names
                    and self._kind == other._kind
                    and self._t == other._t
                    and self._tenant == other._tenant
                    and self._job == other._job
                    and self._extra == other._extra)
        if isinstance(other, (list, tuple)):
            return (len(other) == len(self)
                    and all(self._event(i) == e
                            for i, e in enumerate(other)))
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EventLog {len(self)} events, {len(self._names)} tenants>"


def percentile(values: Iterable[float], q: float) -> float:
    """The q-th percentile by the nearest-rank method.

    Deterministic and interpolation-free (``ceil(q/100 * n)``-th order
    statistic), so summaries round-trip exactly through JSON and never
    depend on numpy version differences.  Returns 0.0 for an empty
    sample (a run with no finished jobs has no latency, not NaN).
    ``q`` is validated before the empty-sample shortcut, so a bad
    quantile fails loudly regardless of the sample.
    """
    if not 0 < q <= 100:
        raise ValueError(f"percentile q must be in (0, 100], got {q}")
    data = sorted(values)
    if not data:
        return 0.0
    rank = math.ceil(q / 100.0 * len(data))
    return data[rank - 1]


def jain_fairness(shares: List[float]) -> float:
    """Jain's fairness index of per-tenant shares: 1.0 when equal,
    ``1/n`` when one tenant monopolizes.  Empty/zero input → 1.0
    (nothing was served, nobody was treated unfairly)."""
    if not shares or all(s == 0 for s in shares):
        return 1.0
    num = sum(shares) ** 2
    den = len(shares) * sum(s * s for s in shares)
    return num / den


def summarize_service(events: List[Dict[str, Any]], horizon: float,
                      weights: Optional[Dict[str, float]] = None
                      ) -> Dict[str, Any]:
    """Headline service metrics from the raw event stream.

    Counting rules: ``offered`` arrivals split exactly into ``shed``
    plus admitted; admitted jobs are ``completed`` or still
    ``in_flight`` (queued or running) at the horizon.  ``goodput`` is
    completed jobs per virtual second; latency percentiles are over
    completed jobs only (an in-flight job has no makespan yet), while
    queue-wait percentiles are over *started* jobs, so overload shows
    up as both shed load and growing waits.

    ``weights`` (tenant name → entitlement) normalizes the fairness
    index: each tenant's share is ``completed / weight``, so 1.0 means
    everyone got throughput proportional to entitlement.  The share
    list is seeded from the *weights* mapping, not from the event
    stream — an entitled tenant that never appears in the events
    contributes a 0 share and drags the index down (two tenants with
    completions ``[1, 0]`` read 0.5), instead of silently vanishing.
    Without weights the index is over raw completion counts of the
    tenants that did appear.
    """
    offered = shed = started = completed = 0
    waits: List[float] = []
    makespans: List[float] = []
    tenants: Dict[str, Dict[str, Any]] = {}

    def bucket(name: str) -> Dict[str, Any]:
        if name not in tenants:
            tenants[name] = {"offered": 0, "shed": 0, "completed": 0,
                             "waits": [], "makespans": []}
        return tenants[name]

    if isinstance(events, EventLog):
        # columnar fast path: walk the typed arrays directly instead of
        # materializing one dict per event; the accumulations (and thus
        # every number in the summary) are identical.  Buckets resolve
        # once per tenant index, on first sight, so tenants without
        # events still get no bucket
        names = events._names
        by_index: List[Optional[Dict[str, Any]]] = [None] * len(names)
        for i, (kind, tenant) in enumerate(zip(events._kind,
                                               events._tenant)):
            b = by_index[tenant]
            if b is None:
                b = by_index[tenant] = bucket(names[tenant])
            if kind == _ARRIVAL:
                offered += 1
                b["offered"] += 1
            elif kind == _SHED:
                shed += 1
                b["shed"] += 1
            elif kind == _START:
                wait = events._extra[i][0]
                started += 1
                waits.append(wait)
                b["waits"].append(wait)
            else:
                makespan = events._extra[i][1]
                completed += 1
                makespans.append(makespan)
                b["completed"] += 1
                b["makespans"].append(makespan)
    else:
        for e in events:
            kind = e["kind"]
            b = bucket(e["tenant"])
            if kind == "arrival":
                offered += 1
                b["offered"] += 1
            elif kind == "shed":
                shed += 1
                b["shed"] += 1
            elif kind == "start":
                started += 1
                waits.append(e["wait"])
                b["waits"].append(e["wait"])
            elif kind == "finish":
                completed += 1
                makespans.append(e["makespan"])
                b["completed"] += 1
                b["makespans"].append(e["makespan"])

    per_tenant = {}
    for name, b in sorted(tenants.items()):
        per_tenant[name] = {
            "offered": b["offered"], "shed": b["shed"],
            "completed": b["completed"],
            "goodput": b["completed"] / horizon,
            "p50_wait": percentile(b["waits"], 50),
            "p99_wait": percentile(b["waits"], 99),
            "p50_makespan": percentile(b["makespans"], 50),
            "p99_makespan": percentile(b["makespans"], 99),
        }
    return {
        "horizon": horizon,
        "offered": offered,
        "shed": shed,
        "admitted": offered - shed,
        "started": started,
        "completed": completed,
        "in_flight": (offered - shed) - completed,
        "offered_rate": offered / horizon,
        "goodput": completed / horizon,
        "p50_wait": percentile(waits, 50),
        "p99_wait": percentile(waits, 99),
        "p50_makespan": percentile(makespans, 50),
        "p99_makespan": percentile(makespans, 99),
        "fairness": jain_fairness(
            [per_tenant.get(name, {}).get("completed", 0) / w
             for name, w in sorted(weights.items())] if weights else
            [t["completed"] for t in per_tenant.values()]),
        "tenants": per_tenant,
    }
