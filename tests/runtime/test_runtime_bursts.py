"""A burst of datagrams behaves exactly like its datagrams one by one.

The flush hands a destination's datagrams to the transport in one
``send_now(dst, *datagrams)`` call, the loopback hub hands the
survivors of its delivery policy over in one call, and the endpoint
decodes the burst in one ``_on_datagram`` pass.  Grouping is a cost
saving only: these tests hold each edge to the one-datagram-at-a-time
path on the same input.

* Endpoint: the same handler calls (runs and their order), the same
  receive counters, and the same traced RECV/CORRUPT events, each RECV
  stamped with its own datagram's arrival, whether a damaged or an
  undecodable datagram sits in the burst or not.
* Hub: on the virtual clock, the same datagrams arrive in the same
  order at the same times, with the same delivery counters, under a
  seeded CM-5 fault profile, a chaos injector, the CR hub's FIFO clamp
  under a latency spike, and a destination that detaches while a
  burst is queued.
"""

import asyncio
import itertools
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

import repro.runtime.endpoint as endpoint_module
from repro.runtime import EventType, Fabric, FrameKind, Tracer
from repro.runtime.chaos import ChaosInjector
from repro.runtime.endpoint import RuntimeEndpoint
from repro.runtime.frames import Frame, encode_batch, encode_frame
from repro.runtime.transport import LoopbackHub

#: Hypothesis runs the hub examples through the ``drive_virtual``
#: runner, a stateless factory, so sharing it across examples is safe.
_SHARED_RUNNER = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])

#: Channels the endpoint tests bind; a frame for ``_UNBOUND`` is unrouted.
_BOUND = (1, 2, 3)
_UNBOUND = 4

#: Events a received frame or datagram produces at the endpoint.
_RX_EVENTS = (EventType.RECV, EventType.ACK_RX, EventType.CREDIT_RX,
              EventType.CORRUPT)

#: Fourteen bytes that are no frame header (the magic byte is wrong).
_GARBAGE = b"\xff" * 14


# -- endpoint -----------------------------------------------------------------

class _Silent:
    """A transport the endpoint only receives through."""

    provides_in_order = provides_reliability = False
    local_address = "rx"

    def set_receiver(self, receiver):
        pass

    def send_now(self, dst, *datagrams):
        raise AssertionError("the receive tests send nothing")

    async def close(self):
        pass


class _Clock:
    """A stand-in for the endpoint's ``time`` module: every reading is
    one more than the last, so each datagram's arrival is distinct."""

    def __init__(self):
        self._ticks = itertools.count(1)

    def perf_counter_ns(self):
        return next(self._ticks)


_frames = st.builds(
    Frame,
    kind=st.sampled_from([FrameKind.DATA, FrameKind.CUM_ACK,
                          FrameKind.CREDIT_UPDATE]),
    channel=st.sampled_from(_BOUND + (_UNBOUND,)),
    seq=st.integers(0, 50),
    aux=st.integers(0, 3),
    payload=st.lists(st.integers(0, 9), max_size=3).map(tuple),
)

#: A datagram: its frames and its fate on the wire.  A damaged datagram
#: has bit ``flip`` inverted; an undecodable one carries a bad header
#: after its first ``flip % len(frames)`` frames, under a good CRC.
_datagrams = st.tuples(
    st.lists(_frames, min_size=1, max_size=5),
    st.sampled_from(["intact", "intact", "intact", "damaged", "undecodable"]),
    st.integers(0, 10_000),
)


def _wire(frames, fate, flip):
    encoded = [encode_frame(frame) for frame in frames]
    if fate == "undecodable":
        encoded.insert(flip % len(encoded), _GARBAGE)
    data = encode_batch(encoded)
    if fate == "damaged":
        bit = flip % (8 * len(data))
        damaged = bytearray(data)
        damaged[bit // 8] ^= 1 << (bit % 8)
        data = bytes(damaged)
    return data


def _receive(bursts, traced, one_at_a_time):
    """Feed ``bursts`` to a fresh endpoint, whole or datagram by
    datagram; return its handler calls, counters and received events."""
    tracer = Tracer() if traced else None
    endpoint = RuntimeEndpoint(_Silent(), name="rx", tracer=tracer)
    calls = []

    def handler(channel):
        def on_run(frames, src):
            calls.append((channel, src, [
                (f.kind, f.channel, f.seq, f.aux, f.payload) for f in frames]))
            if tracer is not None:
                # Places the call among the endpoint's own events.
                tracer.emit(EventType.MARK, endpoint="handler",
                            channel=channel, seq=frames[0].seq)
        return on_run

    for channel in _BOUND:
        endpoint.bind(channel, handler(channel))
    with mock.patch.object(endpoint_module, "time", _Clock()):
        for index, burst in enumerate(bursts):
            src = f"peer{index % 2}"
            if one_at_a_time:
                for data in burst:
                    endpoint._on_datagram((data,), src)
            else:
                endpoint._on_datagram(tuple(burst), src)
    counters = {name: endpoint.counters.get(name) for name in (
        "frames_received", "corrupt_datagrams", "decode_errors", "unrouted")}
    events = tracer.events() if traced else []
    return calls, counters, events


def _stamps_follow_datagrams(events, fates):
    """Every received event carries its own datagram's arrival: the
    frames of one datagram share a stamp, distinct datagrams do not,
    and the stamps rise in wire order."""
    received = [e for e in events if e.etype in _RX_EVENTS]
    stamps = []
    index = 0
    for frames, fate in fates:
        if fate == "undecodable":
            continue          # lost whole: no event at all
        count = 1 if fate == "damaged" else frames
        group = {e.ts_ns for e in received[index:index + count]}
        assert len(group) == 1, group
        stamps.append(group.pop())
        index += count
    assert index == len(received)
    assert stamps == sorted(set(stamps))


@given(bursts=st.lists(st.lists(_datagrams, min_size=1, max_size=8),
                       min_size=1, max_size=4),
       traced=st.booleans())
@settings(max_examples=150, deadline=None)
def test_a_burst_is_received_as_its_datagrams_one_by_one(bursts, traced):
    wire = [[_wire(*datagram) for datagram in burst] for burst in bursts]
    whole = _receive(wire, traced, one_at_a_time=False)
    alone = _receive(wire, traced, one_at_a_time=True)
    calls, counters, events = whole
    assert calls == alone[0]
    assert counters == alone[1]

    fates = [(len(frames), fate) for burst in bursts
             for frames, fate, _flip in burst]
    intact = [(frames, fate) for burst in bursts
              for frames, fate, _flip in burst if fate == "intact"]
    assert counters["corrupt_datagrams"] == sum(
        fate == "damaged" for _n, fate in fates)
    assert counters["decode_errors"] == sum(
        fate == "undecodable" for _n, fate in fates)
    assert counters["frames_received"] == sum(
        len(frames) for frames, _fate in intact)
    # Runs end at datagram boundaries: every frame of an intact datagram
    # arrives in its own datagram's runs, in wire order.
    assert [frame[1:] for _ch, _src, run in calls for frame in run] == [
        (f.channel, f.seq, f.aux, f.payload)
        for frames, _fate in intact for f in frames
        if f.channel != _UNBOUND]
    if not traced:
        return

    def identity(event):
        return (event.etype, event.endpoint, event.channel, event.seq,
                event.aux, event.kind, event.dur_ns, event.origin)

    assert list(map(identity, events)) == list(map(identity, alone[2]))
    _stamps_follow_datagrams(events, fates)
    _stamps_follow_datagrams(alone[2], fates)


# -- hub ----------------------------------------------------------------------

def _record(transport, loop, log):
    """Log ``(virtual time, datagram)`` for every datagram received."""
    transport.set_receiver(lambda datagrams, src: log.extend(
        (loop.time(), src, data) for data in datagrams))


async def _send(sender, dst, bursts, gap, one_at_a_time, between=None):
    for index, burst in enumerate(bursts):
        if between is not None:
            between(index)
        if one_at_a_time:
            for data in burst:
                sender.send_now(dst, data)
        else:
            sender.send_now(dst, *burst)
        await asyncio.sleep(gap)
    await asyncio.sleep(0.05)    # past every reorder delay and spike


def _payloads(sizes):
    counter = itertools.count()
    return [[b"d%d" % next(counter) for _ in range(size)] for size in sizes]


_burst_sizes = st.lists(st.integers(1, 8), min_size=1, max_size=6)


@given(sizes=_burst_sizes, seed=st.integers(0, 2**16),
       gap=st.sampled_from([0.0, 0.001, 0.003]))
@_SHARED_RUNNER
def test_cm5_faults_draw_the_same_for_a_burst(drive_virtual, sizes, seed,
                                              gap):
    bursts = _payloads(sizes)

    async def run(one_at_a_time):
        loop = asyncio.get_running_loop()
        hub = LoopbackHub.cm5(drop_rate=0.2, dup_rate=0.2, reorder_rate=0.3,
                              corrupt_rate=0.2, reorder_delay=0.002,
                              seed=seed)
        a, b = hub.attach("a"), hub.attach("b")
        log = []
        _record(b, loop, log)
        await _send(a, "b", bursts, gap, one_at_a_time)
        return log, hub.wire_counters(), (a.datagrams_sent, a.bytes_sent,
                                          b.datagrams_received)

    whole = drive_virtual(run(False))
    assert whole == drive_virtual(run(True))
    assert whole[1]["delivered"] == len(whole[0]) == whole[2][2]


@given(sizes=_burst_sizes, seed=st.integers(0, 2**16),
       reliable=st.booleans())
@_SHARED_RUNNER
def test_chaos_filters_each_datagram_of_a_burst(drive_virtual, sizes, seed,
                                                reliable):
    """A chaos injector sees every datagram of a burst in order: burst
    loss and damage draw per datagram, a partition that opens and
    heals between bursts suppresses (cm5) or holds and replays (CR)
    each, and a latency spike delays each."""
    bursts = _payloads(sizes)

    async def run(one_at_a_time):
        loop = asyncio.get_running_loop()
        fabric = Fabric(mode="cr" if reliable else "cm5",
                        reorder_rate=0.0 if reliable else 0.2, seed=seed)
        hub = fabric.hub
        a, b = hub.attach("a"), hub.attach("b")
        log = []
        _record(b, loop, log)
        injector = ChaosInjector(fabric, seed=seed)
        injector.set_burst(drop=0.25, corrupt=0.25)

        def script(index):
            step = index % 4
            if step == 1:
                injector.partition_link("a", "b")
            elif step == 2:
                injector.heal_all()
                injector.spike_latency(0.004)
            elif step == 3:
                injector.spike_latency(0.0)

        try:
            await _send(a, "b", bursts, 0.001, one_at_a_time, script)
            injector.heal_all()
            await asyncio.sleep(0.05)
            return log, hub.wire_counters(), injector.replayed
        finally:
            await fabric.close()

    whole = drive_virtual(run(False))
    assert whole == drive_virtual(run(True))
    if reliable:
        # Lossless: every datagram arrives once, in send order.
        assert [data for _t, _src, data in whole[0]] == [
            data for burst in bursts for data in burst]


class _Spike:
    """A chaos stand-in that delays the datagrams it names."""

    def __init__(self, delays):
        self.delays = delays

    def filter(self, src, dst, data):
        return data, None, self.delays.get(data, 0.0)


@given(sizes=_burst_sizes,
       spiked=st.sets(st.integers(0, 47), max_size=12),
       delay=st.sampled_from([0.001, 0.004, 0.02]))
@_SHARED_RUNNER
def test_cr_clamp_keeps_a_burst_fifo_under_a_spike(drive_virtual, sizes,
                                                   spiked, delay):
    """The CR hub's per-link clamp holds inside a burst: a spike that
    starts or clears between two datagrams of one burst delays them
    exactly as it would have delayed them sent one by one, and
    arrival stays in send order."""
    bursts = _payloads(sizes)
    names = [data for burst in bursts for data in burst]
    delays = {names[i]: delay for i in spiked if i < len(names)}

    async def run(one_at_a_time):
        loop = asyncio.get_running_loop()
        hub = LoopbackHub.cr()
        hub.chaos = _Spike(delays)
        a, b = hub.attach("a"), hub.attach("b")
        log = []
        _record(b, loop, log)
        await _send(a, "b", bursts, 0.002, one_at_a_time)
        return log, hub.wire_counters(), dict(hub._fifo_due)

    whole = drive_virtual(run(False))
    assert whole == drive_virtual(run(True))
    log, _counters, due = whole
    assert [data for _t, _src, data in log] == names
    assert due == {}


def test_a_burst_queued_for_a_detached_peer_expires_whole(drive_virtual):
    """A destination that detaches (or is replaced by a new transport
    at its address) while a burst waits in the ready queue gets none of
    it: each datagram counts as expired, none as delivered."""

    async def run(one_at_a_time, reattach):
        loop = asyncio.get_running_loop()
        hub = LoopbackHub.cm5(reorder_rate=0.0)
        a, b = hub.attach("a"), hub.attach("b")
        log = []
        _record(b, loop, log)
        burst = [b"x", b"y", b"z"]
        if one_at_a_time:
            for data in burst:
                a.send_now("b", data)
        else:
            a.send_now("b", *burst)
        hub.detach("b")
        if reattach:
            _record(hub.attach("b"), loop, log)
        await asyncio.sleep(0.01)
        return log, hub.wire_counters()

    for reattach in (False, True):
        log, counters = drive_virtual(run(False, reattach))
        assert (log, counters) == drive_virtual(run(True, reattach))
        assert log == []
        assert (counters["expired"], counters["delivered"]) == (3, 0)


def test_the_flush_sends_one_burst_per_destination(drive_virtual):
    """An endpoint's flush puts each destination's datagrams on the
    wire in one ``send_now`` call, sealed as before; the receiving
    endpoint takes them in one pass."""

    async def body():
        hub = LoopbackHub.cm5(reorder_rate=0.0)
        sent = []
        tx = RuntimeEndpoint(hub.attach("a"), name="a")
        rx = RuntimeEndpoint(hub.attach("b"), name="b")
        passes = []
        runs = []
        rx.bind(1, lambda frames, src: runs.append([f.seq for f in frames]))
        on_datagram = rx._on_datagram

        def spy(datagrams, src):
            passes.append(len(datagrams))
            on_datagram(datagrams, src)

        rx.transport.set_receiver(spy)
        send_now = tx.transport.send_now

        def count(dst, *datagrams):
            sent.append((dst, len(datagrams)))
            send_now(dst, *datagrams)

        tx.transport.send_now = count
        # Each 256-word frame fills more than half a flush MTU, so each
        # takes a datagram of its own.
        for seq in range(4):
            tx.post_frame("b", Frame(FrameKind.DATA, 1, seq, 0,
                                     tuple([seq] * 256)))
        await asyncio.sleep(0.01)
        return sent, passes, runs, tx.transport.datagrams_sent

    sent, passes, runs, datagrams = drive_virtual(body())
    assert sent == [("b", 4)]
    assert datagrams == 4
    assert passes == [4]
    assert runs == [[0], [1], [2], [3]]
