"""Tests for the loopback (fault-injecting / CR) and UDP transports."""

import asyncio

import pytest

from repro.runtime.transport import (
    FaultProfile,
    LoopbackHub,
    UDPTransport,
)


def collect(transport):
    """Attach a recording receiver; returns the record list."""
    received = []
    transport.set_receiver(
        lambda datagrams, src: received.extend((data, src)
                                               for data in datagrams))
    return received


async def settle(seconds: float = 0.02) -> None:
    """Let scheduled deliveries (including reorder delays) run."""
    await asyncio.sleep(seconds)


class TestLoopbackClean:
    def test_delivers_datagrams_with_source_address(self, drive):
        async def body():
            hub = LoopbackHub()
            a, b = hub.attach("a"), hub.attach("b")
            received = collect(b)
            a.send_now("b", b"hello")
            await settle()
            return received

        assert drive(body()) == [(b"hello", "a")]

    def test_unknown_destination_is_blackholed(self, drive):
        async def body():
            hub = LoopbackHub()
            a = hub.attach("a")
            a.send_now("nowhere", b"x")
            await settle()
            return hub.blackholed, hub.dropped

        # A blackhole is not a fault: `dropped` must stay clean so the
        # demo/bench fault statistics only reflect injected losses.
        assert drive(body()) == (1, 0)

    def test_duplicate_address_rejected(self):
        hub = LoopbackHub()
        hub.attach("a")
        with pytest.raises(ValueError):
            hub.attach("a")

    def test_detach_on_close(self, drive):
        async def body():
            hub = LoopbackHub()
            a, b = hub.attach("a"), hub.attach("b")
            await b.close()
            a.send_now("b", b"x")
            await settle()
            return hub.blackholed, hub.dropped

        assert drive(body()) == (1, 0)


class TestFaultInjection:
    def test_drops_are_seeded_and_counted(self, drive):
        async def body(seed):
            hub = LoopbackHub.cm5(drop_rate=0.3, reorder_rate=0.0, seed=seed)
            a, b = hub.attach("a"), hub.attach("b")
            received = collect(b)
            for i in range(100):
                a.send_now("b", bytes([i]))
            await settle()
            return len(received), hub.dropped

        first = drive(body(7))
        again = drive(body(7))
        assert first == again  # same seed, same fate
        delivered, dropped = first
        assert delivered + dropped == 100
        assert 0 < dropped < 100

    def test_duplication(self, drive):
        async def body():
            hub = LoopbackHub.cm5(dup_rate=1.0, reorder_rate=0.0)
            a, b = hub.attach("a"), hub.attach("b")
            received = collect(b)
            a.send_now("b", b"x")
            await settle()
            return len(received), hub.duplicated

        assert drive(body()) == (2, 1)

    def test_reordering_overtakes(self, drive):
        async def body():
            # First datagram always reordered (held 5 ms), rest never.
            hub = LoopbackHub.cm5(reorder_rate=1.0, reorder_delay=0.005)
            a, b = hub.attach("a"), hub.attach("b")
            received = collect(b)
            a.send_now("b", b"first")
            hub.faults.reorder_rate = 0.0
            a.send_now("b", b"second")
            await settle(0.05)
            return [data for data, _src in received]

        assert drive(body()) == [b"second", b"first"]

    def test_fault_rates_validated(self):
        with pytest.raises(ValueError):
            FaultProfile(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultProfile(corrupt_rate=-0.1)

    def test_corruption_damages_but_still_delivers(self, drive):
        """corrupt_rate flips a bit and delivers: the hub models wire
        damage, the endpoint's frame checksum is what must catch it."""

        async def body():
            hub = LoopbackHub.cm5(corrupt_rate=1.0, reorder_rate=0.0)
            a, b = hub.attach("a"), hub.attach("b")
            received = collect(b)
            a.send_now("b", b"pristine")
            await settle()
            return received, hub.corrupted

        received, corrupted = drive(body())
        assert corrupted == 1
        assert len(received) == 1
        data, _src = received[0]
        assert data != b"pristine"
        assert len(data) == len(b"pristine")  # one bit, not truncation

    def test_reorder_delay_must_exceed_latency(self):
        """Regression: a profile whose reorder_delay is <= its base
        latency silently never reorders anything — the 'held' datagram
        arrives with (or before) its successors."""
        with pytest.raises(ValueError):
            FaultProfile(reorder_rate=0.5, latency=0.01, reorder_delay=0.005)
        with pytest.raises(ValueError):
            FaultProfile(reorder_rate=0.5, latency=0.002, reorder_delay=0.002)
        # Without reordering enabled the pair is unconstrained...
        FaultProfile(reorder_rate=0.0, latency=0.01, reorder_delay=0.005)
        # ...and negative times are never valid.
        with pytest.raises(ValueError):
            FaultProfile(latency=-0.001)

    def test_delivery_to_peer_detached_mid_flight_expires(self, drive):
        """Regression: datagrams already scheduled with ``call_later``
        were delivered to transports that had detached in the meantime —
        traffic materialising on closed endpoints."""

        async def body():
            hub = LoopbackHub.cm5(latency=0.01, reorder_rate=0.0)
            a, b = hub.attach("a"), hub.attach("b")
            received = collect(b)
            a.send_now("b", b"late")   # in flight for 10 ms
            await b.close()              # detach before it lands
            await settle(0.05)
            return received, hub.delivered, hub.expired

        received, delivered, expired = drive(body())
        assert received == []
        assert delivered == 0
        assert expired == 1

    def test_reattached_address_does_not_get_stale_datagrams(self, drive):
        """A new transport on a reused address must not receive
        datagrams addressed to its predecessor."""

        async def body():
            hub = LoopbackHub.cm5(latency=0.01, reorder_rate=0.0)
            a, b = hub.attach("a"), hub.attach("b")
            a.send_now("b", b"for the old b")
            await b.close()
            b2 = hub.attach("b")         # same address, new transport
            received = collect(b2)
            await settle(0.05)
            return received, hub.expired

        received, expired = drive(body())
        assert received == []
        assert expired == 1


class TestCRMode:
    def test_cr_hub_advertises_services(self):
        hub = LoopbackHub.cr()
        transport = hub.attach("a")
        assert transport.provides_in_order
        assert transport.provides_reliability
        assert hub.mode == "cr"

    def test_cm5_hub_advertises_nothing(self):
        transport = LoopbackHub.cm5().attach("a")
        assert not transport.provides_in_order
        assert not transport.provides_reliability

    def test_cr_mode_is_lossless_fifo(self, drive):
        async def body():
            hub = LoopbackHub.cr()
            a, b = hub.attach("a"), hub.attach("b")
            received = collect(b)
            for i in range(50):
                a.send_now("b", bytes([i]))
            await settle()
            return [data[0] for data, _src in received], hub.dropped

        order, dropped = drive(body())
        assert order == list(range(50))
        assert dropped == 0

    def test_cr_fault_stats_stay_clean_even_after_detach(self, drive):
        async def body():
            hub = LoopbackHub.cr()
            a, b = hub.attach("a"), hub.attach("b")
            await b.close()
            a.send_now("b", b"x")  # blackholed, not a fault
            await settle()
            return hub.wire_counters()

        assert drive(body()) == {
            "delivered": 0, "dropped": 0, "duplicated": 0,
            "reordered": 0, "corrupted": 0, "partitioned": 0,
            "blackholed": 1, "expired": 0,
        }

    def test_wire_counters_matches_the_attribute_properties(self, drive):
        """wire_counters() is the one-stop dict; the legacy attribute
        names must read the same registry."""
        async def body():
            hub = LoopbackHub.cm5(drop_rate=0.3, reorder_rate=0.0, seed=3)
            a, b = hub.attach("a"), hub.attach("b")
            collect(b)
            for i in range(60):
                a.send_now("b", bytes([i]))
            await settle()
            return hub.wire_counters(), (
                hub.delivered, hub.dropped, hub.duplicated,
                hub.reordered, hub.blackholed,
            )

        counters, attrs = drive(body())
        assert attrs == (
            counters["delivered"], counters["dropped"],
            counters["duplicated"], counters["reordered"],
            counters["blackholed"],
        )
        assert counters["delivered"] + counters["dropped"] == 60
        assert counters["dropped"] > 0

    def test_cr_hub_refuses_fault_injection(self):
        with pytest.raises(ValueError):
            LoopbackHub(FaultProfile(drop_rate=0.1), ordered=True, reliable=True)


class _Spike:
    """A chaos stand-in that delays every datagram by ``delay``."""

    def __init__(self):
        self.delay = 0.0

    def filter(self, src, dst, data):
        return data, None, self.delay


class TestCRLatencySpike:
    def test_link_returns_to_the_ready_queue_once_the_spike_lands(
            self, drive):
        """Regression: a CR link stayed on the loop-timer path forever
        after one delayed datagram.  Arrival stays FIFO across the
        spike's start and end, and once the delayed datagrams land the
        next send on the link schedules no loop timer."""

        async def body():
            loop = asyncio.get_running_loop()
            hub = LoopbackHub.cr()
            spike = hub.chaos = _Spike()
            a, b = hub.attach("a"), hub.attach("b")
            got = collect(b)
            a.send_now("b", b"0")          # before the spike
            spike.delay = 0.02
            for i in range(1, 4):
                a.send_now("b", str(i).encode())
            spike.delay = 0.0
            for i in range(4, 7):          # clamped behind the spike
                a.send_now("b", str(i).encode())
            while len(got) < 7:
                await asyncio.sleep(0.005)
            timers = len(loop._scheduled)
            a.send_now("b", b"7")
            extra = len(loop._scheduled) - timers
            await asyncio.sleep(0)
            return [d for d, _ in got], extra, hub._fifo_due

        order, extra, due = drive(body())
        assert order == [str(i).encode() for i in range(8)]
        assert extra == 0
        assert due == {}


class TestInjectReplay:
    def test_inject_bypasses_fault_policy(self, drive):
        """hub.inject() is the chaos replay path: held bytes re-enter
        delivery even when the static profile would drop everything."""

        async def body():
            hub = LoopbackHub.cm5(drop_rate=1.0, reorder_rate=0.0)
            a, b = hub.attach("a"), hub.attach("b")
            received = collect(b)
            a.send_now("b", b"eaten")       # static profile drops it
            assert hub.inject("b", b"replayed", "a")
            await settle()
            return received, hub.dropped

        received, dropped = drive(body())
        assert received == [(b"replayed", "a")]
        assert dropped == 1

    def test_inject_to_missing_destination_expires(self, drive):
        async def body():
            hub = LoopbackHub.cm5()
            hub.attach("a")
            ok = hub.inject("gone", b"late", "a")
            return ok, hub.expired

        ok, expired = drive(body())
        assert not ok
        assert expired == 1


async def bind_or_skip(host: str = "127.0.0.1", port: int = 0):
    """Bind a UDP socket, or skip when the environment forbids it."""
    try:
        return await UDPTransport.bind(host, port)
    except (OSError, PermissionError) as exc:
        pytest.skip(f"UDP sockets unavailable: {exc}")


class TestUDPLifecycle:
    """Satellite: UDP socket lifecycle — close, detach, crash-restart."""

    def test_send_after_close_raises(self, drive):
        async def body():
            transport = await bind_or_skip()
            dst = transport.local_address
            await transport.close()
            with pytest.raises(RuntimeError):
                transport.send_now(dst, b"too late")
            with pytest.raises(RuntimeError):
                transport.local_address
            return True

        assert drive(body())

    def test_close_is_idempotent(self, drive):
        async def body():
            transport = await bind_or_skip()
            await transport.close()
            await transport.close()
            return True

        assert drive(body())

    def test_receiver_detach_mid_traffic_discards_quietly(self, drive):
        """Detaching the receiver callback mid-traffic must not raise on
        late arrivals — they are counted received and discarded."""

        async def body():
            a = await bind_or_skip()
            b = await bind_or_skip()
            received = collect(b)
            a.send_now(b.local_address, b"one")
            for _ in range(100):
                if received:
                    break
                await asyncio.sleep(0.01)
            b.set_receiver(None)  # detach while the peer keeps sending
            a.send_now(b.local_address, b"two")
            await asyncio.sleep(0.05)
            counts = (len(received), b.datagrams_received)
            await a.close()
            await b.close()
            return counts

        callbacks, arrived = drive(body())
        assert callbacks == 1
        assert arrived >= 1  # "two" may race close; "one" is guaranteed

    def test_crash_restart_on_same_port_smoke(self, drive):
        """A 'process restart': close the socket, rebind the same port,
        and traffic flows to the new incarnation."""

        async def body():
            a = await bind_or_skip()
            b = await bind_or_skip()
            host, port = b.local_address
            await b.close()          # crash
            try:
                b2 = await UDPTransport.bind(host, port)  # restart
            except OSError:
                pytest.skip("cannot rebind the port (environment policy)")
            received = collect(b2)
            for _ in range(100):
                a.send_now((host, port), b"hello again")
                if received:
                    break
                await asyncio.sleep(0.01)
            await a.close()
            await b2.close()
            return received

        received = drive(body())
        assert received
        assert received[0][0] == b"hello again"


class TestUDP:
    def test_udp_round_trip(self, drive):
        async def body():
            a = await UDPTransport.bind()
            b = await UDPTransport.bind()
            received = collect(b)
            a.send_now(b.local_address, b"over the wire")
            for _ in range(100):
                if received:
                    break
                await asyncio.sleep(0.01)
            await a.close()
            await b.close()
            return received

        received = drive(body())
        assert len(received) == 1
        assert received[0][0] == b"over the wire"

    def test_udp_advertises_no_services(self, drive):
        async def body():
            transport = await UDPTransport.bind()
            flags = (transport.provides_in_order, transport.provides_reliability)
            await transport.close()
            return flags

        assert drive(body()) == (False, False)
