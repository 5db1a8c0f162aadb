"""Tests for the N-peer fabric: lifecycle, multiplexing, teardown.

The scenarios a single endpoint pair never exercises: peers joining
and leaving while traffic is in flight, many concurrent ordered channels
multiplexed over shared endpoints, and window back-pressure with several
senders funnelling into one receiver.
"""

import asyncio

import pytest

from repro.runtime.fabric import FIRST_FABRIC_CHANNEL, Fabric, FabricError
from repro.runtime.protocols import ProtocolFailure
from repro.runtime.runner import measure_live


class TestPeerLifecycle:
    def test_join_and_leave(self, drive):
        async def body():
            fabric = Fabric(mode="cr")
            await fabric.add_peer("a")
            await fabric.add_peer("b")
            names = fabric.peer_names
            await fabric.remove_peer("a")
            remaining = fabric.peer_names
            await fabric.close()
            return names, remaining, fabric.peers_joined, fabric.peers_left

        names, remaining, joined, left = drive(body())
        assert set(names) == {"a", "b"}
        assert remaining == ["b"]
        assert (joined, left) == (2, 1)

    def test_duplicate_peer_rejected(self, drive):
        async def body():
            fabric = Fabric(mode="cr")
            await fabric.add_peer("a")
            try:
                with pytest.raises(FabricError):
                    await fabric.add_peer("a")
            finally:
                await fabric.close()

        drive(body())

    def test_unknown_peer_rejected(self, drive):
        async def body():
            fabric = Fabric(mode="cr")
            await fabric.add_peer("a")
            try:
                with pytest.raises(FabricError):
                    await fabric.connect("a", "ghost")
                with pytest.raises(FabricError):
                    await fabric.remove_peer("ghost")
            finally:
                await fabric.close()

        drive(body())

    def test_self_connection_rejected(self, drive):
        async def body():
            fabric = Fabric(mode="cr")
            await fabric.add_peer("a")
            try:
                with pytest.raises(FabricError):
                    await fabric.connect("a", "a")
            finally:
                await fabric.close()

        drive(body())

    def test_closed_fabric_rejects_everything(self, drive):
        async def body():
            fabric = Fabric(mode="cr")
            await fabric.add_peer("a")
            await fabric.close()
            with pytest.raises(FabricError):
                await fabric.add_peer("b")

        drive(body())

    def test_peer_leaves_mid_traffic_gracefully(self, drive):
        """A graceful leave drains the peer's connections first: every
        word sent before the leave is delivered, nothing is lost."""

        async def body():
            fabric = Fabric(mode="cm5", drop_rate=0.05, reorder_rate=0.1,
                            seed=11)
            for name in ("a", "b", "c"):
                await fabric.add_peer(name)
            ab = await fabric.connect("a", "b")
            cb = await fabric.connect("c", "b")
            await ab.send(list(range(40)))
            await cb.send(list(range(100, 140)))
            # Leave while retransmissions may still be in flight.
            await fabric.remove_peer("a", drain=True)
            await cb.drain()
            got_ab = ab.channel.receive_buffer.read()
            got_cb = cb.channel.receive_buffer.read()
            open_after = fabric.open_connections
            await fabric.close()
            return got_ab, got_cb, open_after

        got_ab, got_cb, open_after = drive(body())
        assert got_ab == list(range(40))
        assert got_cb == list(range(100, 140))
        assert open_after == 1  # only c->b survived the leave

    def test_hard_leave_expires_inflight_datagrams(self, drive):
        """A hard (drain=False) leave abandons in-flight traffic: the
        hub counts it as expired rather than delivering to the corpse."""

        async def body():
            fabric = Fabric(mode="cm5", reorder_rate=0.0, latency=0.01)
            await fabric.add_peer("a")
            await fabric.add_peer("b")
            conn = await fabric.connect("a", "b")
            await conn.send(list(range(16)))  # in flight for 10 ms
            await fabric.remove_peer("b", drain=False)
            await asyncio.sleep(0.05)
            expired = fabric.hub.expired
            await fabric.close()
            return expired

        assert drive(body()) > 0

    def test_crash_expires_inflight_datagrams(self, drive):
        """Frames already sent toward a peer that then crashes are in
        flight when it detaches: the hub expires them.  (Pushed after
        the detach, they would count as blackholed instead.)"""

        async def body():
            fabric = Fabric(mode="cm5", reorder_rate=0.0, latency=0.01)
            await fabric.add_peer("a")
            await fabric.add_peer("b")
            conn = await fabric.connect("a", "b")
            await conn.send(list(range(16)))  # queued for the next flush
            await fabric.crash_peer("b")
            await asyncio.sleep(0.05)
            expired = fabric.hub.expired
            await fabric.close()
            return expired

        assert drive(body()) > 0


class TestMultiplexing:
    def test_connections_get_distinct_channel_ids(self, drive):
        async def body():
            fabric = Fabric(mode="cr")
            await fabric.add_peer("a")
            await fabric.add_peer("b")
            conns = [await fabric.connect("a", "b") for _ in range(5)]
            cids = [conn.cid for conn in conns]
            await fabric.close()
            return cids

        cids = drive(body())
        assert len(set(cids)) == 5
        assert all(cid >= FIRST_FABRIC_CHANNEL for cid in cids)

    def test_concurrent_channels_between_one_pair_stay_independent(self, drive):
        """Several ordered channels over the same two endpoints must not
        bleed sequence state into each other, even with faults on."""

        async def body():
            fabric = Fabric(mode="cm5", drop_rate=0.05, reorder_rate=0.2,
                            seed=5)
            await fabric.add_peer("a")
            await fabric.add_peer("b")
            conns = [await fabric.connect("a", "b") for _ in range(4)]
            payloads = [list(range(base, base + 30))
                        for base in (0, 1000, 2000, 3000)]

            async def pump(conn, words):
                await conn.send(words)
                await conn.drain()

            await asyncio.gather(*(
                pump(conn, words) for conn, words in zip(conns, payloads)
            ))
            got = [conn.channel.receive_buffer.read() for conn in conns]
            await fabric.close()
            return got, payloads

        got, payloads = drive(body())
        assert got == payloads

    def test_concurrent_drain_across_many_channels(self, drive):
        """Draining every channel concurrently (the load generator's
        shape) completes without cross-channel interference."""

        async def body():
            fabric = Fabric(mode="cm5", drop_rate=0.03, reorder_rate=0.1,
                            seed=7)
            names = ["a", "b", "c", "d"]
            for name in names:
                await fabric.add_peer(name)
            conns = [await fabric.connect(src, dst)
                     for src, dst in zip(names, names[1:] + names[:1])]
            for i, conn in enumerate(conns):
                await conn.send(list(range(i * 100, i * 100 + 25)))
            await asyncio.gather(*(conn.drain() for conn in conns))
            ok = all(
                conn.channel.receive_buffer.read()
                == list(range(i * 100, i * 100 + 25))
                for i, conn in enumerate(conns)
            )
            outstanding = [conn.outstanding for conn in conns]
            await fabric.close()
            return ok, outstanding

        ok, outstanding = drive(body())
        assert ok
        assert outstanding == [0, 0, 0, 0]

    def test_backpressure_with_many_senders_into_one_endpoint(self, drive):
        """Tiny windows + several senders targeting one receiver: every
        sender must make progress through back-pressure, not deadlock or
        interleave into corruption."""

        async def body():
            fabric = Fabric(mode="cm5", drop_rate=0.02, reorder_rate=0.1,
                            seed=3)
            names = ["sink", "s0", "s1", "s2"]
            for name in names:
                await fabric.add_peer(name)
            conns = [await fabric.connect(src, "sink", window=2)
                     for src in ("s0", "s1", "s2")]

            async def pump(conn, base):
                await conn.send(list(range(base, base + 40)))
                await conn.drain()

            await asyncio.gather(*(
                pump(conn, i * 1000) for i, conn in enumerate(conns)
            ))
            got = [conn.channel.receive_buffer.read() for conn in conns]
            await fabric.close()
            return got

        got = drive(body())
        assert got == [list(range(b, b + 40)) for b in (0, 1000, 2000)]


class TestConnectionLifecycle:
    def test_close_is_idempotent_and_forgets_the_connection(self, drive):
        async def body():
            fabric = Fabric(mode="cr")
            await fabric.add_peer("a")
            await fabric.add_peer("b")
            conn = await fabric.connect("a", "b")
            await conn.send([1, 2, 3])
            await conn.close()
            await conn.close()  # second close is a no-op
            opened, closed = fabric.connections_opened, fabric.connections_closed
            count = fabric.open_connections
            await fabric.close()
            return opened, closed, count

        assert drive(body()) == (1, 1, 0)

    def test_send_after_close_fails_loudly(self, drive):
        async def body():
            fabric = Fabric(mode="cr")
            await fabric.add_peer("a")
            await fabric.add_peer("b")
            conn = await fabric.connect("a", "b")
            await conn.close()
            try:
                with pytest.raises(ProtocolFailure):
                    await conn.send([1])
            finally:
                await fabric.close()

        drive(body())

    def test_fabric_close_reaps_every_connection_and_task(self, drive):
        """Nothing — wheel tasks, posted sends, delayed acks — may
        outlive fabric.close()."""

        async def body():
            baseline = set(asyncio.all_tasks())
            fabric = Fabric(mode="cm5", drop_rate=0.05, seed=2)
            names = [f"p{i}" for i in range(4)]
            for name in names:
                await fabric.add_peer(name)
            conns = [await fabric.connect(src, dst)
                     for src in names[:2] for dst in names if src != dst]
            for conn in conns:
                await conn.send(list(range(10)))
            await fabric.close()  # hard close, traffic possibly in flight
            await asyncio.sleep(0.05)
            leaked = [t for t in asyncio.all_tasks() - baseline
                      if not t.done()]
            return fabric.open_connections, leaked

        open_count, leaked = drive(body())
        assert open_count == 0
        assert leaked == []


class TestUDPFabric:
    def test_udp_fabric_round_trip(self, drive):
        async def body():
            fabric = Fabric(mode="cm5", transport="udp")
            await fabric.add_peer("a")
            await fabric.add_peer("b")
            conn = await fabric.connect("a", "b")
            await conn.send(list(range(20)))
            await conn.drain()
            got = conn.channel.receive_buffer.read()
            await fabric.close()
            return got

        assert drive(body()) == list(range(20))

    def test_udp_fabric_rejects_cr_mode_and_fault_knobs(self):
        with pytest.raises(ValueError):
            Fabric(mode="cr", transport="udp")
        with pytest.raises(ValueError):
            Fabric(mode="cm5", transport="udp", drop_rate=0.1)

    def test_measure_live_on_udp_runs_over_a_two_peer_fabric(self):
        result = measure_live("single", transport="udp", message_words=32,
                              deadline=10.0)
        assert result.completed and result.transport == "udp"
        assert set(result.detail["counters"]) == {"src", "dst"}

    def test_measure_live_on_udp_rejects_cr_mode_and_fault_knobs(self):
        with pytest.raises(ValueError, match="only cm5"):
            measure_live("single", mode="cr", transport="udp")
        with pytest.raises(ValueError, match="no fault knobs"):
            measure_live("single", transport="udp", drop_rate=0.1)
