"""Tests for the user-facing channels API."""

import pytest

from repro import quick_cr_setup, quick_setup
from repro.api import Endpoint, bulk_put, open_channel
from repro.api.channel import ChannelReceiveBuffer


def cmam_endpoints():
    sim, a, b, _net = quick_setup()
    return sim, Endpoint(a), Endpoint(b)


def cr_endpoints():
    sim, a, b, _net = quick_cr_setup()
    return sim, Endpoint(a), Endpoint(b)


class TestEndpoint:
    def test_one_endpoint_per_node(self):
        sim, a, b, _net = quick_setup()
        Endpoint(a)
        with pytest.raises(ValueError):
            Endpoint(a)

    def test_active_message_roundtrip(self):
        sim, ea, eb = cmam_endpoints()
        got = []

        @eb.on("ping")
        def ping(node, *words):
            got.append(words)

        ea.send_am(eb, "ping", (1, 2, 3, 4))
        sim.run()
        assert got == [(1, 2, 3, 4)]


class TestChannel:
    def test_cmam_channel_orders_data(self):
        sim, ea, eb = cmam_endpoints()
        channel = open_channel(ea, eb)
        payload = list(range(7, 107))
        packets = channel.send(payload)
        sim.run()
        channel.close()
        assert channel.mode == "cmam"
        assert packets == 25
        assert channel.receive_buffer.read() == payload

    def test_channel_multiple_sends_concatenate(self):
        sim, ea, eb = cmam_endpoints()
        channel = open_channel(ea, eb)
        channel.send([1, 2, 3])
        channel.send([4, 5])
        sim.run()
        channel.close()
        assert channel.receive_buffer.read() == [1, 2, 3, 4, 5]

    def test_windowed_channel(self):
        sim, ea, eb = cmam_endpoints()
        channel = open_channel(ea, eb, window=4)
        payload = list(range(1, 129))
        channel.send(payload)
        sim.run()
        channel.close()
        assert channel.mode == "windowed"
        assert channel.receive_buffer.read() == payload

    def test_cr_channel_selected_automatically(self):
        sim, ea, eb = cr_endpoints()
        channel = open_channel(ea, eb)
        payload = list(range(1, 65))
        channel.send(payload)
        sim.run()
        assert channel.mode == "cr"
        assert channel.receive_buffer.read() == payload
        assert channel.outstanding == 0  # no source buffering on CR

    def test_record_callback(self):
        sim, ea, eb = cmam_endpoints()
        channel = open_channel(ea, eb)
        seen = []
        channel.receive_buffer.on_record(seen.append)
        channel.send([1, 2, 3, 4, 5, 6, 7, 8])
        sim.run()
        channel.close()
        assert seen == [(1, 2, 3, 4), (5, 6, 7, 8)]

    def test_cross_network_rejected(self):
        sim1, ea, _eb = cmam_endpoints()
        sim2, _ec, ed = cmam_endpoints()
        with pytest.raises(ValueError):
            open_channel(ea, ed)


class TestReceiveBuffer:
    def test_read_and_len_agree_over_mixed_and_empty_payloads(self):
        buffer = ChannelReceiveBuffer()
        assert len(buffer) == 0 and buffer.read() == []
        expected = []
        for seq, payload in enumerate([(1, 2, 3), (), (4,), (), (),
                                       tuple(range(5, 21)), (21, 22)]):
            buffer._deliver(seq, payload)
            expected.extend(payload)
            assert len(buffer) == len(expected)
            assert buffer.read() == expected
        assert len(buffer.records) == 7

    def test_read_returns_a_fresh_list(self):
        buffer = ChannelReceiveBuffer()
        buffer._deliver(0, (1, 2))
        buffer.read().append(3)
        assert buffer.read() == [1, 2]


class TestBulk:
    def test_cmam_bulk_roundtrip(self):
        sim, ea, eb = cmam_endpoints()
        data = list(range(42, 142))
        result = bulk_put(ea, eb, data)
        assert result.completed
        assert result.mode == "cmam"
        assert result.data == data
        assert result.packets == 25

    def test_cr_bulk_roundtrip(self):
        sim, ea, eb = cr_endpoints()
        data = list(range(1, 33))
        result = bulk_put(ea, eb, data)
        assert result.completed
        assert result.mode == "cr"
        assert result.data == data

    def test_sequential_bulk_transfers(self):
        sim, ea, eb = cmam_endpoints()
        first = bulk_put(ea, eb, [1, 2, 3, 4])
        second = bulk_put(ea, eb, [9, 8, 7, 6, 5])
        assert first.completed and second.completed
        assert second.data == [9, 8, 7, 6, 5]

    def test_bidirectional_bulk(self):
        sim, ea, eb = cmam_endpoints()
        there = bulk_put(ea, eb, [1, 2, 3, 4])
        back = bulk_put(eb, ea, [5, 6, 7, 8])
        assert there.completed and back.completed
        assert back.data == [5, 6, 7, 8]

    def test_cross_network_rejected(self):
        sim1, ea, _eb = cmam_endpoints()
        sim2, _ec, ed = cmam_endpoints()
        with pytest.raises(ValueError):
            bulk_put(ea, ed, [1])
