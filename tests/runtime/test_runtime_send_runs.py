"""The send side pays each feature once per run of packets.

``OrderedChannelSender.send`` takes a run of packets and admits, in one
step, every packet the window and the credit leave room for; the bulk
sender queues and tracks its whole data phase as one run and releases
a ``FINAL_ACK``'s packets in one pass.  These tests hold each of them
to the packet-at-a-time code it replaced, kept here as a reference
subclass: the same sequence numbers, wire bytes, source buffer, credit
ledger, counters and trace events, wherever the run has to wait.
"""

import asyncio
import itertools
import types
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

import repro.runtime.endpoint as endpoint_module
from repro.arch.attribution import Feature
from repro.runtime import (
    BackoffPolicy, EventType, FlowControlConfig, Frame, FrameKind, Tracer,
    credit_words, cum_ack_frame,
)
from repro.runtime.endpoint import RuntimeEndpoint
from repro.runtime.frames import credit_update_frame, decode_datagram
from repro.runtime.protocols import (
    BulkSender, OrderedChannelSender, ProtocolFailure,
)

#: Hypothesis runs each example through the ``drive_virtual`` runner,
#: a stateless factory, so sharing it across examples is safe.
_SHARED_RUNNER = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])

#: A packet never holds more words than this, so a grant of this many
#: bytes past what is used always lets the next packet go.
_MAX_WORDS = 24


class _Wire:
    """A transport that keeps every datagram the flush hands it."""

    local_address = "src"

    def __init__(self, reliable: bool) -> None:
        self.provides_in_order = self.provides_reliability = reliable
        self.datagrams = []

    def set_receiver(self, receiver) -> None:
        pass

    def send_now(self, dst, *datagrams) -> None:
        self.datagrams.extend(map(bytes, datagrams))

    async def close(self) -> None:
        pass


class _PacketAtATimeSender(OrderedChannelSender):
    """The ordered sender before runs: each packet waits for the window
    and the credit, takes its sequence number under its own span, and
    is encoded, tracked and charged on its own."""

    async def send(self, *packets):
        seqs = [await self._send_one(words) for words in packets]
        return seqs[0] if seqs else self._next_seq

    async def _send_one(self, words):
        if self._closed:
            raise ProtocolFailure("channel sender is closed")
        if self._failure is not None:
            raise self._failure
        endpoint = self.endpoint
        attr = endpoint.attribution
        flow = self.flow
        nbytes = len(words) * 4

        def frame_of(seq):
            return Frame(FrameKind.DATA, self.channel, seq, 0, tuple(words))

        if endpoint.cr_mode:
            if flow is not None and not flow.can_send(nbytes):
                await self._await_credit(nbytes)
            seq = self._next_seq
            self._next_seq += 1
            endpoint.send_frame(self.dst, frame_of(seq), Feature.BASE)
            if flow is not None:
                with attr.spans[Feature.FLOW_CONTROL]:
                    flow.consume(nbytes)
            return seq
        tracked = self.retransmitter.entries
        while len(tracked) >= self.window:
            self._space.clear()
            await self._space.wait()
            if self._closed:
                raise ProtocolFailure("channel sender is closed")
            self._raise_if_failed()
        if flow is not None and not flow.can_send(nbytes):
            await self._await_credit(nbytes)
        with attr.spans[Feature.IN_ORDER]:
            seq = self._next_seq
            self._next_seq += 1
        data = endpoint.send_frame(self.dst, frame_of(seq), Feature.BASE)
        with attr.spans[Feature.FAULT_TOLERANCE]:
            self.retransmitter.track(seq, data)
            self._wire[seq] = data
        if flow is not None:
            with attr.spans[Feature.FLOW_CONTROL]:
                flow.consume(nbytes)
        return seq


def _snapshot(sender, endpoint, wire, tracer):
    """Everything the send path leaves behind that a reader can see."""
    rtx = sender.retransmitter
    flow = sender.flow
    timer = rtx._timer
    events = []
    if tracer is not None:
        for event in tracer.events():
            # The endpoint stamps SEND and FLUSH from its own clock (a
            # counter here); every other event reads the real one, and
            # FLOW_UNBLOCK's aux is a real duration.
            stamped = event.etype in (EventType.SEND, EventType.FLUSH)
            events.append((event.etype, event.channel, event.seq,
                           event.aux if stamped else None, event.kind,
                           event.ts_ns if stamped else None,
                           event.dur_ns if stamped else None))
    return {
        "next_seq": sender._next_seq,
        "on_wire": list(wire.datagrams),
        "queued": {dst: list(queue) for dst, queue in endpoint._out.items()},
        "entries": [(key, entry.deadline, entry.first_sent, entry.data,
                     entry.attempt, entry.sample_rtt)
                    for key, entry in rtx.entries.items()],
        "tracked_peak": rtx.tracked_peak,
        "timer": None if timer is None else timer._when,
        "mirror": dict(sender._wire),
        "credit": (flow.limit_bytes, flow.limit_msgs, flow.used_bytes,
                   flow.used_msgs, flow.updates_applied,
                   flow._credit.is_set()),
        "frames_sent": endpoint.frames_sent,
        "sent_by_kind": dict(endpoint.sent_by_kind),
        "blocked": (sender.counters["flow.blocked"],
                    sender.counters["acks_received"]),
        "events": events,
    }


async def _settle():
    """Let a send run until it finishes or waits on its peer."""
    for _ in range(12):
        await asyncio.sleep(0)


def _release(sender, step):
    """Answer a waiting sender as its peer would: a cumulative ack of
    ``acked`` more packets (cm5), carrying a grant that lets at least
    the next packet through, or that grant alone (CR)."""
    acked, extra_bytes, extra_msgs = step
    flow = sender.flow
    credit = credit_words(
        max(flow.limit_bytes, flow.used_bytes + 4 * _MAX_WORDS) + extra_bytes,
        max(flow.limit_msgs, flow.used_msgs + 1) + extra_msgs)
    if sender.endpoint.cr_mode:
        frame = credit_update_frame(sender.channel, credit)
    else:
        tracked = sender.retransmitter.entries
        base = min(tracked) if tracked else sender._next_seq
        upto = min(base + acked, sender._next_seq)
        frame = cum_ack_frame(sender.channel, upto, credit=credit)
    sender._on_frame([frame], "dst")


async def _script(cls, mode, traced, cfg, window, runs, steps):
    """Send ``runs`` through a fresh ``cls`` sender, releasing it with
    the next of ``steps`` whenever it waits; returns a snapshot after
    every settle and each run's returned sequence number."""
    clock = itertools.count(1_000)
    fake_time = types.SimpleNamespace(perf_counter_ns=lambda: next(clock))
    with mock.patch.object(endpoint_module, "time", fake_time):
        wire = _Wire(reliable=mode == "cr")
        tracer = Tracer() if traced else None
        endpoint = RuntimeEndpoint(wire, name="src", tracer=tracer)
        sender = cls(endpoint, "dst", channel=5, window=window, flow=cfg,
                     backoff=BackoffPolicy(initial=5.0, ceiling=5.0))
        log = []
        pending = iter(itertools.cycle(steps))
        try:
            for number, sizes in enumerate(runs):
                packets = [tuple(range(number * 100 + index,
                                       number * 100 + index + size))
                           for index, size in enumerate(sizes)]
                task = asyncio.ensure_future(sender.send(*packets))
                for _ in range(200):
                    await _settle()
                    log.append(_snapshot(sender, endpoint, wire, tracer))
                    if task.done():
                        break
                    _release(sender, next(pending))
                log.append(("first", task.result()))
            await _settle()
            log.append(_snapshot(sender, endpoint, wire, tracer))
        finally:
            await sender.close()
    return log


_STEPS = st.lists(st.tuples(st.integers(1, 8), st.integers(0, 200),
                            st.integers(0, 4)), min_size=1, max_size=12)

_CREDIT = st.builds(FlowControlConfig, window_bytes=st.integers(1, 400),
                    window_msgs=st.integers(1, 12))


class TestRunAtATimeMatchesPacketAtATime:
    @_SHARED_RUNNER
    @given(mode=st.sampled_from(["cm5", "cr"]), traced=st.booleans(),
           cfg=_CREDIT, window=st.integers(1, 8),
           runs=st.lists(st.lists(st.integers(1, _MAX_WORDS), min_size=1,
                                  max_size=8), min_size=1, max_size=5),
           steps=_STEPS)
    def test_same_wire_buffer_ledger_and_trace(self, drive_virtual, mode,
                                               traced, cfg, window, runs,
                                               steps):
        """Runs of 1-8 packets of random sizes, on either kind of
        channel, that stop part way on the window or the credit and go
        on after acks or grants: every snapshot of the run-at-a-time
        sender equals the packet-at-a-time sender's."""
        got = drive_virtual(_script(OrderedChannelSender, mode, traced,
                                    cfg, window, runs, steps))
        want = drive_virtual(_script(_PacketAtATimeSender, mode, traced,
                                     cfg, window, runs, steps))
        assert got == want
        if traced:
            # One SEND per DATA frame, each stamped with the trace
            # context its own frame carries on the wire.
            final = got[-1]
            frames = [frame for datagram in final["on_wire"]
                      for frame in decode_datagram(datagram)]
            sends = [event[5] for event in final["events"]
                     if event[0] is EventType.SEND]
            assert [frame.origin_ts_ns for frame in frames] == sends
            assert len(set(sends)) == len(sends) == sum(map(len, runs))

    def test_a_run_stops_part_way_on_the_window(self, drive_virtual):
        """A run longer than the window's room admits what fits in one
        step, waits, and finishes after an ack: two encode passes, two
        tracking passes, two credit charges."""

        async def body():
            wire = _Wire(reliable=False)
            endpoint = RuntimeEndpoint(wire, name="src")
            sender = OrderedChannelSender(endpoint, "dst", channel=5,
                                          window=4, flow=FlowControlConfig())
            spans = endpoint.attribution.span_count
            try:
                task = asyncio.ensure_future(
                    sender.send(*[(seq,) * 8 for seq in range(6)]))
                await _settle()
                assert not task.done()
                assert sorted(sender.retransmitter.entries) == [0, 1, 2, 3]
                first_step = (spans(Feature.IN_ORDER),
                              spans(Feature.FAULT_TOLERANCE),
                              spans(Feature.FLOW_CONTROL))
                _release(sender, (2, 0, 0))
                await _settle()
                assert task.done() and task.result() == 0
                return (first_step, spans(Feature.IN_ORDER),
                        sorted(sender.retransmitter.entries),
                        sender.flow.used_msgs, endpoint.frames_sent)
            finally:
                await sender.close()

        first_step, in_order, tracked, used, sent = drive_virtual(body())
        assert first_step == (1, 1, 1)
        assert (in_order, tracked, used, sent) == (2, [2, 3, 4, 5], 6, 6)

    def test_a_run_stopped_on_credit_goes_on_in_one_step(self,
                                                         drive_virtual):
        """Credit for three packets stops a run of six with window room
        to spare; the ack that brings the grant also frees the window,
        so the other three go in one more step, not two."""

        async def body():
            wire = _Wire(reliable=False)
            endpoint = RuntimeEndpoint(wire, name="src")
            sender = OrderedChannelSender(
                endpoint, "dst", channel=5, window=4,
                flow=FlowControlConfig(window_msgs=3))
            try:
                task = asyncio.ensure_future(
                    sender.send(*[(seq,) * 8 for seq in range(6)]))
                await _settle()
                assert not task.done()
                assert sorted(sender.retransmitter.entries) == [0, 1, 2]
                _release(sender, (3, 0, 2))
                await _settle()
                assert task.done()
                return (endpoint.attribution.span_count(Feature.IN_ORDER),
                        sorted(sender.retransmitter.entries))
            finally:
                await sender.close()

        assert drive_virtual(body()) == (2, [3, 4, 5])


def test_a_waiting_run_returns_its_own_first_sequence_number(drive_virtual):
    """A run that waits for the window while another send on the same
    channel goes ahead returns the number its first packet got, not
    the one that was next when it started."""

    async def body():
        endpoint = RuntimeEndpoint(_Wire(reliable=False), name="src")
        sender = OrderedChannelSender(endpoint, "dst", channel=5, window=2)
        try:
            ahead = asyncio.ensure_future(sender.send((1,), (2,), (3,)))
            await _settle()
            behind = asyncio.ensure_future(sender.send((4,)))
            await _settle()
            sender._on_frame([cum_ack_frame(5, 2)], "dst")
            await _settle()
            sender._on_frame([cum_ack_frame(5, 4)], "dst")
            await _settle()
            return ahead.result(), behind.result(), sender.sent
        finally:
            await sender.close()

    assert drive_virtual(body()) == (0, 3, 4)


class _PerKeyReleaseBulkSender(BulkSender):
    """The bulk sender's release path before one-pass releases: every
    tracked key copied and tested, each covered packet released
    through an ``ack`` of its own."""

    def _release_transfer(self, xfer, total):
        for key in self.retransmitter.tracked_keys():
            if (isinstance(key, tuple) and key[0] in ("data", "dealloc")
                    and key[1] == xfer):
                self.retransmitter.ack(key)

    def _on_final_ack(self, frame):
        xfer = frame.seq
        state = self._inflight.get(xfer)
        if state is None:
            self.counters["stale_final_acks"] += 1
            return
        high_water = frame.aux
        total = state.total_words
        for key in self.retransmitter.tracked_keys():
            if (isinstance(key, tuple) and key[0] == "data"
                    and key[1] == xfer):
                offset = key[2]
                take = min(self.packet_words, total - offset)
                if offset + take <= high_water:
                    self.retransmitter.ack(key)
        for offset in frame.payload:
            self.retransmitter.ack(("data", xfer, int(offset)))
        if high_water >= total:
            self._release_transfer(xfer, total)
            if not state.future.done():
                state.future.set_result(high_water)


async def _bulk_script(cls, totals, packet_words, acks):
    """Start one transfer per entry of ``totals``, then feed the first
    one the ``acks`` (high-water mark, selective offsets) a little
    virtual time apart; returns the tracked keys, the RTT estimator and
    the transfer futures after each ack."""
    wire = _Wire(reliable=False)
    endpoint = RuntimeEndpoint(wire, name="src")
    sender = cls(endpoint, "dst", packet_words=packet_words,
                 backoff=BackoffPolicy(initial=5.0, ceiling=5.0))
    tasks = []
    try:
        for xfer, total in enumerate(totals, start=1):
            tasks.append(asyncio.ensure_future(
                sender.send(list(range(total)), timeout=60.0)))
            await _settle()
            sender._on_frame([Frame(FrameKind.ALLOC_REPLY, sender.channel,
                                    seq=xfer)], "dst")
            await _settle()
        log = []
        rtx = sender.retransmitter
        for high_water, sacks in acks:
            await asyncio.sleep(0.001)
            sender._on_frame([Frame(FrameKind.FINAL_ACK, sender.channel,
                                    seq=1, aux=high_water,
                                    payload=tuple(sacks))], "dst")
            log.append((list(rtx.entries), rtx.rtt.srtt, rtx.rtt.rttvar,
                        rtx.rtt.samples, rtx.rtt.rto, rtx.acked,
                        sender.stale_final_acks, tasks[0].done()))
        return log
    finally:
        await sender.close()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)


class TestFinalAckReleasesInOnePass:
    @_SHARED_RUNNER
    @given(first=st.integers(1, 120), other=st.integers(1, 120),
           packet_words=st.integers(1, 32),
           acks=st.lists(st.tuples(st.integers(0, 130),
                                   st.lists(st.integers(0, 130), max_size=6)),
                         min_size=1, max_size=6))
    def test_same_released_set_and_estimator(self, drive_virtual, first,
                                             other, packet_words, acks):
        """Partial FINAL_ACKs (a high-water mark plus selective offsets,
        valid or not) and complete ones release exactly the keys the
        per-key loop released, leave the RTT estimator in the same
        state, and never touch another transfer's keys."""
        got = drive_virtual(_bulk_script(BulkSender, (first, other),
                                         packet_words, acks))
        want = drive_virtual(_bulk_script(_PerKeyReleaseBulkSender,
                                          (first, other), packet_words,
                                          acks))
        assert got == want
        others = {("data", 2, offset)
                  for offset in range(0, other, packet_words)}
        others.add(("dealloc", 2))
        for entries, *_ in got:
            assert others <= set(entries)
