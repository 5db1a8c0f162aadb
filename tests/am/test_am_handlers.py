"""Unit tests for handler utilities."""

from repro.am.handlers import CollectingHandler
from repro.network.cm5 import CM5Network
from repro.node import Node
from repro.sim.engine import Simulator


def make_node():
    sim = Simulator()
    return Node(0, sim, CM5Network(sim))


def test_collecting_handler():
    node = make_node()
    collector = CollectingHandler()
    collector(node, 1, 2)
    collector(node, 3)
    assert collector.count == 2
    assert collector.invocations == [(1, 2), (3,)]
    assert collector.flat_words() == [1, 2, 3]
