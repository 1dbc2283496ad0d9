"""Topology-aware hierarchical network models with per-link contention.

The paper's Fig. 13 roll-off comes from communication on a real Skylake
cluster, where not every node pair is equidistant: SDs on the same node
share memory, nodes in the same rack talk through the top-of-rack
switch, and racks talk through (typically oversubscribed) uplinks.

This module models the network (DESIGN.md substitution 5).  A
:class:`Topology` routes each ``src → dst`` message onto a list of
:class:`LinkHop` entries; every traversed link charges its own latency
and wire time and — when it is a FIFO link — serializes concurrent
messages on it in arrival order.  Messages are
attributed to a **route class** (``"remote"``, ``"intra_rack"``,
``"inter_rack"``, ``"wan"``) for the per-hop-class byte telemetry the
experiment records carry (``RunRecord.bytes_by_class``); the classes
partition the traffic, so their byte counts always sum to
``bytes_sent``.

Implementations:

* :class:`FlatTopology` — the default: one latency + bandwidth egress
  link per node, concurrent sends serialized on it (the seed network
  model, whose arithmetic and float operation order it keeps, so
  goldens and committed benchmark records do not move);
* :class:`SwitchedTopology` — two-level: nodes grouped into racks,
  intra-rack messages pay only the NIC, inter-rack messages additionally
  traverse the source rack's uplink and the destination rack's downlink,
  both FIFO links whose bandwidth is oversubscribed
  (``rack_size / oversubscription`` NICs' worth shared by the rack);
* :class:`HierarchicalTopology` — intra-node (free, shared memory) /
  intra-rack / inter-rack tiers with fully differentiated per-tier
  latency and bandwidth, explicit node → rack assignment, and optional
  **WAN racks** whose up/downlinks use a third, far-slower tier (the
  ``wan_joiner`` scenario: an elastic joiner provisioned across a WAN).

Everything here is deterministic arithmetic on virtual time — no wall
clock, no randomness — so schedules stay bit-identical across runs and
machines (DESIGN.md substitution 1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["LinkHop", "Topology", "FlatTopology", "SwitchedTopology",
           "HierarchicalTopology", "topology_names", "DEFAULT_LATENCY",
           "DEFAULT_BANDWIDTH"]

#: The flat model's defaults: ~5 us MPI latency, 10 Gb/s NIC.
DEFAULT_LATENCY = 5e-6
DEFAULT_BANDWIDTH = 1.25e9


class LinkHop:
    """One link of a route: identity, cost parameters, FIFO behavior.

    ``key`` identifies the physical link (e.g. ``("egress", 3)`` or
    ``("uplink", 1)``); messages traversing the same FIFO key serialize
    on it in arrival order.  ``fifo=False`` models a link with enough
    parallel capacity that contention is negligible.
    """

    __slots__ = ("key", "latency", "bandwidth", "fifo")

    def __init__(self, key: Tuple, latency: float, bandwidth: float,
                 fifo: bool = True) -> None:
        self.key = key
        self.latency = float(latency)
        self.bandwidth = float(bandwidth)
        self.fifo = fifo

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<LinkHop {self.key} lat={self.latency:g} "
                f"bw={self.bandwidth:g}{' fifo' if self.fifo else ''}>")


def _check_link(latency: float, bandwidth: float, what: str) -> None:
    if latency < 0 or bandwidth <= 0:
        raise ValueError(
            f"{what} needs latency >= 0 and bandwidth > 0, "
            f"got latency={latency}, bandwidth={bandwidth}")


class _CompiledRoute:
    """A route lowered to slot indices and plain floats.

    The per-message hot path must not chase :class:`LinkHop` objects or
    hash tuple link keys: each hop is reduced to ``(slot, latency,
    bandwidth)`` where ``slot`` indexes the topology's flat ready-time
    array (``-1`` for non-FIFO hops), and the route's telemetry class is
    an interned integer id into the per-class byte array.
    """

    __slots__ = ("hops", "class_id")

    def __init__(self, hops: Tuple[Tuple[int, float, float], ...],
                 class_id: int) -> None:
        self.hops = hops
        self.class_id = class_id


class Topology:
    """Route + charge engine shared by every topology.

    Subclasses implement :meth:`route` (the static hop list for a node
    pair) and :meth:`route_class` (the telemetry class the message's
    bytes are attributed to); :meth:`plan_send` walks the hops,
    serializing on FIFO links and accumulating latency + wire time, and
    maintains the ``bytes_sent`` / ``messages_sent`` counters plus the
    per-route-class byte map ``bytes_by_class``.

    Link state is **per run**: :meth:`reset` clears both the FIFO
    backlog and the counters (the distributed solver calls it at run
    start, so a reused topology object cannot leak the previous run's
    egress backlog into the next run's first sends);
    :meth:`release_node` drops a failed node's private-link
    reservations so a later same-id bookkeeping reuse can never inherit
    a ghost backlog.
    """

    #: registry name; subclasses override
    kind = "topology"

    def __init__(self) -> None:
        #: link key -> slot into :attr:`_link_free` (append-only; slots
        #: survive stat resets so FIFO backlog semantics are unchanged)
        self._link_slot: Dict[Tuple, int] = {}
        #: absolute virtual time each FIFO link is next free, by slot
        self._link_free: List[float] = []
        #: memoized compiled routes (static: independent of link state)
        self._route_cache: Dict[Tuple[int, int], _CompiledRoute] = {}
        self.bytes_sent = 0
        self.messages_sent = 0
        #: interned route classes and their byte totals, by class id
        self._class_ids: Dict[str, int] = {}
        self._class_names: List[str] = []
        self._class_bytes: List[int] = []

    @property
    def bytes_by_class(self) -> Dict[str, int]:
        """Bytes per route class (a class appears once it carried a
        message; classes partition the traffic, so
        ``sum(bytes_by_class.values()) == bytes_sent`` always holds)."""
        return dict(zip(self._class_names, self._class_bytes))

    # -- interface ---------------------------------------------------------
    def route(self, src: int, dst: int) -> Sequence[LinkHop]:
        """The ordered links a ``src → dst`` message traverses."""
        raise NotImplementedError

    def route_class(self, src: int, dst: int) -> str:
        """Telemetry class of the route (attributed once per message)."""
        raise NotImplementedError

    def rack_of(self, node: int) -> int:
        """Rack id of ``node`` (flat topologies: everything in rack 0)."""
        return 0

    # -- engine ------------------------------------------------------------
    def plan_send(self, src: int, dst: int, nbytes: int, now: float) -> float:
        """Account a message and return its virtual delivery time.

        Self-sends are free and uncounted (shared memory inside a node); every
        other message is charged per traversed link — FIFO links start
        no earlier than their previous message's wire time ends.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if src == dst:
            return now
        self.bytes_sent += nbytes
        self.messages_sent += 1
        route = self._route_cache.get((src, dst))
        if route is None:
            route = self._compile_route(src, dst)
        self._class_bytes[route.class_id] += nbytes
        link_free = self._link_free
        t = now
        for slot, latency, bandwidth in route.hops:
            wire = nbytes / bandwidth
            if slot >= 0:
                free = link_free[slot]
                start = free if free > t else t
                link_free[slot] = start + wire
                t = start + latency + wire
            else:
                t = t + latency + wire
        return t

    def _compile_route(self, src: int, dst: int) -> _CompiledRoute:
        hops = []
        for hop in self.route(src, dst):
            if hop.fifo:
                slot = self._link_slot.get(hop.key)
                if slot is None:
                    slot = len(self._link_free)
                    self._link_slot[hop.key] = slot
                    self._link_free.append(0.0)
            else:
                slot = -1
            hops.append((slot, hop.latency, hop.bandwidth))
        cls = self.route_class(src, dst)
        cid = self._class_ids.get(cls)
        if cid is None:
            cid = len(self._class_names)
            self._class_ids[cls] = cid
            self._class_names.append(cls)
            self._class_bytes.append(0)
        route = _CompiledRoute(tuple(hops), cid)
        self._route_cache[(src, dst)] = route
        return route

    # -- state management --------------------------------------------------
    def reset(self) -> None:
        """Clear all per-run state: FIFO backlog and byte counters."""
        self._link_free = [0.0] * len(self._link_free)
        self.reset_stats()

    def reset_stats(self) -> None:
        """Zero the byte/message counters (link backlog is kept).

        Routes and class ids are recompiled lazily, so — exactly like
        the pre-slot dict accounting — a class reappears in
        :attr:`bytes_by_class` only once it carries a message again.
        """
        self.bytes_sent = 0
        self.messages_sent = 0
        self._route_cache = {}
        self._class_ids = {}
        self._class_names = []
        self._class_bytes = []

    def release_node(self, node: int) -> None:
        """Drop ``node``'s private-link reservations (node failed).

        Shared links (rack uplinks) keep their backlog — messages
        already on the wire still occupy the switch — but the dead
        node's NIC no longer exists, so its egress reservation must not
        delay a later send bookkept under the same id.
        """
        slot = self._link_slot.get(("egress", node))
        if slot is not None:
            self._link_free[slot] = 0.0


class FlatTopology(Topology):
    """Single-tier topology: every pair one egress hop — the default.

    ``transfer = latency + nbytes / bandwidth``; with
    ``serialize_egress`` concurrent sends from one node queue on its NIC
    (it pushes one message at a time), which reproduces the "boundary
    SDs grow with node count ⇒ slight roll-off" of the paper's Fig. 13.
    Intra-node messages are free: SDs on one node share memory.  The
    arithmetic and float operation order are the seed model's, so the
    committed goldens reproduce exactly.
    """

    kind = "flat"

    def __init__(self, latency: float = DEFAULT_LATENCY,
                 bandwidth: float = DEFAULT_BANDWIDTH,
                 serialize_egress: bool = True) -> None:
        super().__init__()
        _check_link(latency, bandwidth, "flat link")
        self.latency = float(latency)
        self.bandwidth = float(bandwidth)
        self.serialize_egress = serialize_egress

    def route(self, src: int, dst: int) -> Sequence[LinkHop]:
        return (LinkHop(("egress", src), self.latency, self.bandwidth,
                        fifo=self.serialize_egress),)

    def route_class(self, src: int, dst: int) -> str:
        return "remote"


class SwitchedTopology(Topology):
    """Two-level racks with oversubscribed uplinks.

    Nodes are grouped into racks of ``rack_size`` (``rack = node //
    rack_size``, so elastic joiners land in well-defined racks too).
    Intra-rack messages pay only the sender's NIC — identical cost to
    the flat model.  Inter-rack messages additionally traverse the
    source rack's **uplink** and the destination rack's **downlink**:
    FIFO links shared by the whole rack whose bandwidth is
    ``bandwidth * rack_size / oversubscription`` (``oversubscription =
    rack_size`` gives one NIC's worth for the whole rack; larger values
    starve it further), plus a switch latency per traversed switch hop.
    """

    kind = "switched"

    def __init__(self, rack_size: int = 4,
                 latency: float = DEFAULT_LATENCY,
                 bandwidth: float = DEFAULT_BANDWIDTH,
                 oversubscription: float = 4.0,
                 uplink_latency: Optional[float] = None,
                 uplink_bandwidth: Optional[float] = None) -> None:
        super().__init__()
        if rack_size < 1:
            raise ValueError(f"rack_size must be >= 1, got {rack_size}")
        if oversubscription <= 0:
            raise ValueError(
                f"oversubscription must be > 0, got {oversubscription}")
        _check_link(latency, bandwidth, "NIC link")
        self.rack_size = int(rack_size)
        self.latency = float(latency)
        self.bandwidth = float(bandwidth)
        self.oversubscription = float(oversubscription)
        self.uplink_latency = (2.0 * self.latency if uplink_latency is None
                               else float(uplink_latency))
        self.uplink_bandwidth = (
            self.bandwidth * self.rack_size / self.oversubscription
            if uplink_bandwidth is None else float(uplink_bandwidth))
        _check_link(self.uplink_latency, self.uplink_bandwidth, "uplink")

    def rack_of(self, node: int) -> int:
        if node < 0:
            raise ValueError(f"node must be >= 0, got {node}")
        return node // self.rack_size

    def route(self, src: int, dst: int) -> Sequence[LinkHop]:
        nic = LinkHop(("egress", src), self.latency, self.bandwidth)
        r_src, r_dst = self.rack_of(src), self.rack_of(dst)
        if r_src == r_dst:
            return (nic,)
        return (nic,
                LinkHop(("uplink", r_src), self.uplink_latency,
                        self.uplink_bandwidth),
                LinkHop(("downlink", r_dst), self.uplink_latency,
                        self.uplink_bandwidth))

    def route_class(self, src: int, dst: int) -> str:
        return ("intra_rack" if self.rack_of(src) == self.rack_of(dst)
                else "inter_rack")


class HierarchicalTopology(Topology):
    """Intra-node / intra-rack / inter-rack tiers with WAN racks.

    The three message classes of a hierarchical cluster, each with its
    own latency and bandwidth:

    * **intra-node** — ``src == dst``: shared memory, free (the flat
      model's convention, kept so SDs co-located on a node never pay);
    * **intra-rack** — one hop over the sender's NIC at the
      ``latency`` / ``bandwidth`` tier;
    * **inter-rack** — NIC, then the source rack's uplink and the
      destination rack's downlink at the ``rack_latency`` /
      ``rack_bandwidth`` tier (both FIFO, shared per rack).

    Racks listed in ``wan_racks`` are reached over a fourth-tier WAN
    link instead: their up/downlinks use ``wan_latency`` /
    ``wan_bandwidth``, and such routes are classed ``"wan"`` — the
    ``wan_joiner`` scenario provisions an elastic joiner there.

    ``racks`` pins the initial nodes' rack ids explicitly; nodes beyond
    the list (elastic joiners) land in ``join_rack`` when given, else
    in ``node // rack_size``.
    """

    kind = "hierarchical"

    def __init__(self, rack_size: int = 4,
                 racks: Optional[Sequence[int]] = None,
                 join_rack: Optional[int] = None,
                 latency: float = DEFAULT_LATENCY,
                 bandwidth: float = DEFAULT_BANDWIDTH,
                 rack_latency: Optional[float] = None,
                 rack_bandwidth: Optional[float] = None,
                 wan_latency: float = 5e-3,
                 wan_bandwidth: float = 1.25e7,
                 wan_racks: Sequence[int] = ()) -> None:
        super().__init__()
        if rack_size < 1:
            raise ValueError(f"rack_size must be >= 1, got {rack_size}")
        _check_link(latency, bandwidth, "intra-rack link")
        self.rack_size = int(rack_size)
        self.latency = float(latency)
        self.bandwidth = float(bandwidth)
        self.rack_latency = (4.0 * self.latency if rack_latency is None
                             else float(rack_latency))
        self.rack_bandwidth = (0.5 * self.bandwidth if rack_bandwidth is None
                               else float(rack_bandwidth))
        _check_link(self.rack_latency, self.rack_bandwidth, "inter-rack link")
        _check_link(wan_latency, wan_bandwidth, "wan link")
        self.wan_latency = float(wan_latency)
        self.wan_bandwidth = float(wan_bandwidth)
        self.wan_racks = frozenset(int(r) for r in wan_racks)
        if racks is not None:
            racks = tuple(int(r) for r in racks)
            if any(r < 0 for r in racks):
                raise ValueError("rack ids must be >= 0")
        self.racks = racks
        self.join_rack = None if join_rack is None else int(join_rack)
        if self.join_rack is not None and self.join_rack < 0:
            raise ValueError(f"join_rack must be >= 0, got {self.join_rack}")
        if self.join_rack is not None and self.racks is None:
            # without an explicit initial assignment there is no way to
            # tell joiners from initial nodes, and join_rack would
            # silently swallow the whole cluster into one rack
            raise ValueError("join_rack requires an explicit racks "
                             "assignment for the initial nodes")

    def rack_of(self, node: int) -> int:
        if node < 0:
            raise ValueError(f"node must be >= 0, got {node}")
        if self.racks is not None and node < len(self.racks):
            return self.racks[node]
        if self.join_rack is not None:
            return self.join_rack
        return node // self.rack_size

    def _switch_params(self, rack: int) -> Tuple[float, float]:
        if rack in self.wan_racks:
            return self.wan_latency, self.wan_bandwidth
        return self.rack_latency, self.rack_bandwidth

    def route(self, src: int, dst: int) -> Sequence[LinkHop]:
        nic = LinkHop(("egress", src), self.latency, self.bandwidth)
        r_src, r_dst = self.rack_of(src), self.rack_of(dst)
        if r_src == r_dst:
            return (nic,)
        up_lat, up_bw = self._switch_params(r_src)
        dn_lat, dn_bw = self._switch_params(r_dst)
        return (nic,
                LinkHop(("uplink", r_src), up_lat, up_bw),
                LinkHop(("downlink", r_dst), dn_lat, dn_bw))

    def route_class(self, src: int, dst: int) -> str:
        r_src, r_dst = self.rack_of(src), self.rack_of(dst)
        if r_src == r_dst:
            return "intra_rack"
        if r_src in self.wan_racks or r_dst in self.wan_racks:
            return "wan"
        return "inter_rack"


def topology_names() -> List[str]:
    """Registered topology kinds, in registration order."""
    return ["flat", "switched", "hierarchical"]
