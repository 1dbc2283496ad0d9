"""Tests for AGAS and the performance-counter registry."""

import pytest

from repro.amt.agas import AddressSpace, AgasError
from repro.amt.counters import BusyTimeCounter, Counter, CounterRegistry


class TestAddressSpace:
    def test_register_resolve_roundtrip(self):
        agas = AddressSpace()
        obj = object()
        agas.register("/objects/sd/1", obj)
        assert agas.resolve("/objects/sd/1") is obj

    def test_duplicate_registration_raises(self):
        agas = AddressSpace()
        agas.register("/x", 1)
        with pytest.raises(AgasError, match="already registered"):
            agas.register("/x", 2)

    def test_resolve_unknown_raises(self):
        with pytest.raises(AgasError, match="unknown name"):
            AddressSpace().resolve("/nope")

    def test_names_must_be_absolute(self):
        with pytest.raises(AgasError, match="must start with"):
            AddressSpace().register("relative/name", 1)

    def test_name_normalization(self):
        agas = AddressSpace()
        agas.register("//a///b/", "v")
        assert agas.resolve("/a/b") == "v"

    def test_resolve_normalizes_the_query(self):
        agas = AddressSpace()
        agas.register("/a/b", "v")
        assert agas.resolve("//a/b/") == "v"

    def test_names_collide_after_normalization(self):
        agas = AddressSpace()
        agas.register("/a/b", 1)
        with pytest.raises(AgasError, match="already registered"):
            agas.register("//a//b/", 2)

    @pytest.mark.parametrize("name, message", [
        ("", "must start with"), ("/", "empty AGAS name"),
        ("//", "empty AGAS name")])
    def test_degenerate_names_rejected(self, name, message):
        with pytest.raises(AgasError, match=message):
            AddressSpace().register(name, 1)

    def test_len_and_iter(self):
        agas = AddressSpace()
        agas.register("/b", 2)
        agas.register("/a", 1)
        assert len(agas) == 2
        assert list(agas) == ["/a", "/b"]


class TestCounter:
    def test_starts_at_zero(self):
        c = Counter("/c")
        assert c.value() == 0.0
        assert c.total() == 0.0

    def test_add_accumulates(self):
        c = Counter("/c")
        c.add(1.5)
        c.add(2.5)
        assert c.value() == 4.0

    def test_negative_add_raises(self):
        with pytest.raises(ValueError):
            Counter("/c").add(-1.0)

    def test_reset_zeroes_window_not_total(self):
        c = Counter("/c")
        c.add(3.0)
        c.reset()
        c.add(1.0)
        assert c.value() == 1.0
        assert c.total() == 4.0


class TestBusyTimeCounter:
    def test_interval_accumulates(self):
        c = BusyTimeCounter("/b")
        tok = c.begin_work(10.0)
        c.end_work(12.5, tok)
        assert c.value() == 2.5

    def test_overlapping_intervals_add(self):
        """Two cores busy over the same second -> two busy-seconds."""
        c = BusyTimeCounter("/b")
        t1 = c.begin_work(0.0)
        t2 = c.begin_work(0.0)
        c.end_work(1.0, t1)
        c.end_work(1.0, t2)
        assert c.value() == 2.0

    def test_unknown_token_raises(self):
        with pytest.raises(ValueError, match="unknown work token"):
            BusyTimeCounter("/b").end_work(1.0, 99)

    def test_end_before_begin_raises(self):
        c = BusyTimeCounter("/b")
        tok = c.begin_work(5.0)
        with pytest.raises(ValueError, match="before begin"):
            c.end_work(4.0, tok)

    def test_reset_clips_open_interval_at_reset_time(self):
        """The confirmed busy-window bug: begin_work(0); reset at t=5;
        end_work(12) must put 7.0 in the new window — not the full 12.0
        pre-reset-straddling span."""
        c = BusyTimeCounter("/b")
        tok = c.begin_work(0.0)
        c.reset(5.0)
        assert c.value() == 0.0       # new window starts empty
        assert c.total() == 5.0       # clipped span kept in the lifetime
        c.end_work(12.0, tok)
        assert c.value() == 7.0       # only the in-window portion
        assert c.total() == 12.0

    def test_reset_clips_every_open_interval(self):
        c = BusyTimeCounter("/b")
        t1 = c.begin_work(0.0)
        t2 = c.begin_work(2.0)
        c.reset(4.0)
        assert c.total() == 4.0 + 2.0
        c.end_work(5.0, t1)
        c.end_work(6.0, t2)
        assert c.value() == 1.0 + 2.0
        c.reset()  # no interval left open: a reset needs no time

    def test_reset_with_open_intervals_requires_now(self):
        c = BusyTimeCounter("/b")
        c.begin_work(1.0)
        with pytest.raises(ValueError, match="open work interval"):
            c.reset()

    def test_reset_before_open_start_raises(self):
        c = BusyTimeCounter("/b")
        c.begin_work(3.0)
        with pytest.raises(ValueError, match="before open"):
            c.reset(2.0)

    def test_quiescent_reset_needs_no_time(self):
        c = BusyTimeCounter("/b")
        tok = c.begin_work(0.0)
        c.end_work(2.0, tok)
        c.reset()
        assert c.value() == 0.0
        assert c.total() == 2.0


class TestCounterRegistry:
    def test_create_registers_in_agas(self):
        reg = CounterRegistry()
        c = reg.create_busy_time("node0")
        assert reg.agas.resolve("/counters/node0/busy_time") is c

    def test_reset_all_walks_creation_order(self):
        """Creation order, not name order: lexicographic sorting put
        ``node10`` before ``node2`` once a cluster reached ten nodes.
        The first counter the reset reaches reports the bad time."""
        reg = CounterRegistry()
        counters = [reg.create_busy_time(f"node{i}") for i in range(12)]
        counters[2].begin_work(5.0)
        counters[10].begin_work(5.0)
        with pytest.raises(ValueError, match="/counters/node2/busy_time"):
            reg.reset_all(now=1.0)

    def test_reset_all_matches_algorithm1_line35(self):
        reg = CounterRegistry()
        a = reg.create_busy_time("node0")
        b = reg.create_busy_time("node1")
        a.add(1.0)
        b.add(2.0)
        n = reg.reset_all()
        assert n == 2
        assert a.value() == 0.0 and b.value() == 0.0

    def test_create_names_the_counter_by_locality(self):
        c = CounterRegistry().create_busy_time("node3")
        assert isinstance(c, BusyTimeCounter)
        assert c.name == "/counters/node3/busy_time"

    def test_reset_all_without_counters(self):
        assert CounterRegistry().reset_all(now=1.0) == 0

    def test_reset_all_keeps_every_lifetime_total(self):
        reg = CounterRegistry()
        counters = [reg.create_busy_time(f"node{i}") for i in range(3)]
        for i, c in enumerate(counters):
            c.add(float(i + 1))
        reg.reset_all()
        assert [c.value() for c in counters] == [0.0, 0.0, 0.0]
        assert [c.total() for c in counters] == [1.0, 2.0, 3.0]

    def test_registry_uses_the_given_address_space(self):
        agas = AddressSpace()
        agas.register("/objects/sd/0", "sd")
        reg = CounterRegistry(agas)
        c = reg.create_busy_time("node0")
        assert agas.names() == ["/counters/node0/busy_time",
                                "/objects/sd/0"]
        assert agas.resolve("/counters/node0/busy_time") is c

    def test_duplicate_locality_raises(self):
        reg = CounterRegistry()
        reg.create_busy_time("node0")
        with pytest.raises(Exception):
            reg.create_busy_time("node0")

    def test_reset_all_clips_open_intervals_at_now(self):
        """Algorithm 1 line 35 with work in flight: the bulk reset
        threads the poll time through to every busy counter."""
        reg = CounterRegistry()
        a = reg.create_busy_time("node0")
        b = reg.create_busy_time("node1")
        tok = a.begin_work(0.0)
        b.add(3.0)
        n = reg.reset_all(now=10.0)
        assert n == 2
        assert a.value() == 0.0 and b.value() == 0.0
        a.end_work(14.0, tok)
        assert a.value() == 4.0  # only the post-reset span
        assert a.total() == 14.0
