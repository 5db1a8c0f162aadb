"""Tests for RuntimeEndpoint's batched send path and close.

The fire-and-forget path used to create one asyncio task per posted
frame (no strong reference, swallowed exceptions, and — the deeper
hazard — no ordering guarantee between two tasks for the same channel).
Frames now join a per-destination FIFO queue drained by one flush per
event-loop tick; these tests pin the surface guarantees: errors surface
to a counter, close never drops queued frames, and a stuck transport
cannot hang close forever.
"""

import asyncio
import cProfile
import gc
from pathlib import Path

import repro
from repro.runtime import Fabric
from repro.runtime.endpoint import RuntimeEndpoint
from repro.runtime.frames import data_frame
from repro.runtime.protocols import OrderedChannelReceiver
from repro.runtime.transport import LoopbackHub


class _ExplodingTransport:
    """A transport whose send always raises, for surfacing-path tests."""

    provides_in_order = False
    provides_reliability = False
    local_address = "boom"

    def __init__(self):
        self.receiver = None

    def set_receiver(self, receiver):
        self.receiver = receiver

    async def send(self, dst, data):
        raise OSError("wire on fire")

    async def close(self):
        pass


class _StallingTransport(_ExplodingTransport):
    """A transport whose send blocks until released."""

    def __init__(self):
        super().__init__()
        self.release = None  # created lazily on the running loop
        self.sends = 0

    async def send(self, dst, data):
        if self.release is None:
            self.release = asyncio.Event()
        await self.release.wait()
        self.sends += 1


class TestPostFrame:
    def test_queued_frames_survive_gc_and_drain_in_order(self, drive):
        """Regression: posted frames must not be lost to a GC pass (the
        old per-frame tasks were only weakly referenced by asyncio)."""

        async def body():
            transport = _StallingTransport()
            ep = RuntimeEndpoint(transport, name="src")
            frame = data_frame(channel=1, seq=0, payload=[1, 2])
            for _ in range(4):
                ep.post_frame("dst", frame)
            pending_queued = ep.pending_posts
            await asyncio.sleep(0)       # flush runs, drainer spawns
            await asyncio.sleep(0)       # drainer reaches its stall
            gc.collect()                 # must not reap the drainer
            pending_during = ep.pending_posts
            transport.release.set()
            for _ in range(100):
                if ep.pending_posts == 0:
                    break
                await asyncio.sleep(0.002)
            return pending_queued, pending_during, ep.pending_posts, transport.sends

        queued, during, after, sends = drive(body())
        assert queued == 4
        assert during >= 1   # still accounted while the transport stalls
        assert after == 0
        # An async-only transport gets the queued run as one container.
        assert sends == 1

    def test_posted_send_errors_surface_to_the_counter(self, drive):
        """Regression: a raised posted send was a swallowed task
        exception — invisible to callers and to the event loop."""

        async def body():
            unhandled = []
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(
                lambda _loop, ctx: unhandled.append(ctx)
            )
            ep = RuntimeEndpoint(_ExplodingTransport(), name="src")
            frame = data_frame(channel=1, seq=0, payload=[1])
            ep.post_frame("dst", frame)
            for _ in range(100):
                if ep.send_errors:
                    break
                await asyncio.sleep(0.002)
            await asyncio.sleep(0.01)    # let stray exceptions surface
            return ep.send_errors, ep.pending_posts, unhandled

        errors, pending, unhandled = drive(body())
        assert errors == 1
        assert pending == 0
        assert unhandled == []

    def test_close_waits_for_inflight_posts(self, drive):
        """close() must not turn pending posted sends into packet loss."""

        async def body():
            hub = LoopbackHub.cr()
            a, b = hub.attach("a"), hub.attach("b")
            ep = RuntimeEndpoint(a, name="src")
            got = []
            b.set_receiver(lambda data, src: got.append(data))
            frame = data_frame(channel=1, seq=0, payload=[7])
            ep.post_frame("b", frame)
            await ep.close()
            await asyncio.sleep(0.01)
            return len(got), ep.pending_posts

        delivered, pending = drive(body())
        assert delivered == 1
        assert pending == 0

    def test_close_cancels_a_send_stuck_past_the_grace_period(self, drive):
        async def body():
            transport = _StallingTransport()
            ep = RuntimeEndpoint(transport, name="src")
            frame = data_frame(channel=1, seq=0, payload=[1])
            ep.post_frame("dst", frame)
            await asyncio.sleep(0)       # flush; the drainer will stall
            # Nobody releases it: close's bounded wait must cancel.
            await asyncio.wait_for(ep.close(), 5.0)
            return ep.pending_posts, transport.sends

        assert drive(body()) == (0, 0)

    def test_same_destination_frames_stay_in_post_order(self, drive):
        """Regression (the ordering hazard): with one task per posted
        frame, an async transport could interleave two sends for the
        same channel and put them on the wire out of order.  The FIFO
        queue + single drainer makes that impossible by construction."""

        class _YieldingTransport(_ExplodingTransport):
            """First send parks longer than the second: a task-per-frame
            sender emits seq 1 before seq 0."""

            def __init__(self):
                super().__init__()
                self.wire = []
                self._sends = 0

            async def send(self, dst, data):
                self._sends += 1
                if self._sends == 1:
                    await asyncio.sleep(0.02)
                self.wire.append(bytes(data))

        from repro.runtime.frames import decode_frame, is_batch, iter_batch

        async def body():
            transport = _YieldingTransport()
            ep = RuntimeEndpoint(transport, name="src")
            first = data_frame(channel=1, seq=0, payload=[1])
            ep.post_frame("dst", first)
            await asyncio.sleep(0)        # flush tick: first goes alone
            second = data_frame(channel=1, seq=1, payload=[2])
            ep.post_frame("dst", second)
            await asyncio.sleep(0.1)
            seqs = []
            for datagram in transport.wire:
                if is_batch(datagram):
                    seqs.extend(decode_frame(s).seq for s in iter_batch(datagram))
                else:
                    seqs.append(decode_frame(datagram).seq)
            return seqs

        assert drive(body()) == [0, 1]


class TestBatching:
    def test_burst_to_one_peer_coalesces_into_one_datagram(self, drive):
        async def body():
            hub = LoopbackHub.cr()
            a, b = hub.attach("a"), hub.attach("b")
            ep = RuntimeEndpoint(a, name="src")
            rx = RuntimeEndpoint(b, name="dst")
            got = []
            rx.bind(1, lambda frame, src: got.append(frame.seq))
            for seq in range(6):
                ep.post_frame("b", data_frame(channel=1, seq=seq, payload=[seq]))
            await asyncio.sleep(0.01)
            return (a.datagrams_sent, ep.batches_sent, ep.batched_frames,
                    rx.frames_received, got)

        datagrams, batches, batched, received, got = drive(body())
        assert datagrams == 1
        assert batches == 1
        assert batched == 6
        assert received == 6
        assert got == list(range(6))     # in-order unbundle

    def test_lone_frame_skips_the_container(self, drive):
        async def body():
            hub = LoopbackHub.cr()
            a, b = hub.attach("a"), hub.attach("b")
            ep = RuntimeEndpoint(a, name="src")
            rx = RuntimeEndpoint(b, name="dst")
            got = []
            rx.bind(1, lambda frame, src: got.append(frame.seq))
            ep.post_frame("b", data_frame(channel=1, seq=5, payload=[1]))
            await asyncio.sleep(0.01)
            return a.datagrams_sent, ep.batches_sent, got

        datagrams, batches, got = drive(body())
        assert datagrams == 1
        assert batches == 0              # singletons ride bare
        assert got == [5]

    def test_distinct_destinations_get_distinct_datagrams(self, drive):
        async def body():
            hub = LoopbackHub.cr()
            a = hub.attach("a")
            b, c = hub.attach("b"), hub.attach("c")
            ep = RuntimeEndpoint(a, name="src")
            got_b, got_c = [], []
            RuntimeEndpoint(b, name="b").bind(
                1, lambda frame, src: got_b.append(frame.seq))
            RuntimeEndpoint(c, name="c").bind(
                1, lambda frame, src: got_c.append(frame.seq))
            for seq in range(4):
                ep.post_frame("b", data_frame(channel=1, seq=seq, payload=[1]))
                ep.post_frame("c", data_frame(channel=1, seq=seq, payload=[1]))
            await asyncio.sleep(0.01)
            return a.datagrams_sent, got_b, got_c

        datagrams, got_b, got_c = drive(body())
        assert datagrams == 2            # one container per destination
        assert got_b == list(range(4))
        assert got_c == list(range(4))


#: Calls the runtime makes for one untraced DATA frame, from
#: ``post_frame`` to ``OrderedChannelReceiver._on_frame`` handing the
#: payload to the application (measured on CPython 3.11).  The untraced
#: path may not grow: with 7-call spans and a call per counter bump the
#: same frame took 112.
UNTRACED_FRAME_CALL_BUDGET = 88

#: Where the ``repro`` package's source files live.
REPRO_SRC = str(Path(repro.__file__).parent)


def _runtime_calls(stats) -> int:
    """Calls made by ``repro`` code in a profile: its own functions plus
    the built-ins it calls directly (the event loop's internals and the
    test's own code are left out, so the count does not depend on how
    many loop turns the frame took)."""

    def ours(func) -> bool:
        return func[0].startswith(REPRO_SRC)

    total = 0
    for func, (_cc, calls, _tt, _ct, callers) in stats.items():
        if func[0] != "~":
            total += calls if ours(func) else 0
        else:
            total += sum(edge[0] for caller, edge in callers.items()
                         if ours(caller))
    return total


class TestUntracedCallBudget:
    def test_one_data_frame_stays_within_its_call_budget(self, drive):
        """One DATA frame through post_frame -> flush -> hub -> decode
        -> dispatch -> OrderedChannelReceiver._on_frame on a two-peer
        loopback fabric, tracing off, costs a fixed number of calls."""

        async def body():
            fabric = Fabric("cr")
            src = await fabric.add_peer("src")
            dst = await fabric.add_peer("dst")
            arrived = []
            receiver = OrderedChannelReceiver(
                dst, channel=1, ack_every=1000, ack_delay=60.0,
                deliver=lambda seq, payload: arrived.append(seq))
            try:
                async def one_frame(seq):
                    src.post_frame(dst.local_address,
                                   data_frame(1, seq, [seq] * 15))
                    while len(arrived) <= seq:
                        await asyncio.sleep(0)

                # The first frame creates every counter name and the
                # delayed-ack timer; the second is the steady state.
                await one_frame(0)
                profiler = cProfile.Profile()
                profiler.enable()
                await one_frame(1)
                profiler.disable()
                profiler.create_stats()
                return _runtime_calls(profiler.stats), arrived
            finally:
                receiver.close()
                await fabric.close()

        calls, arrived = drive(body())
        assert arrived == [0, 1]
        assert calls <= UNTRACED_FRAME_CALL_BUDGET, calls
