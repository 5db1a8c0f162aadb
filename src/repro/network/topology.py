"""Topology abstraction for the detailed network models.

A topology is a directed multigraph of router/endpoint vertices.  Endpoint
vertices are the processing nodes (integers); router vertices are
topology-specific hashables.  Routing algorithms query ``next_hops`` to
enumerate the legal forwarding choices at each vertex — one choice means
deterministic routing, several mean multipath adaptivity (the mechanism
behind "arbitrary delivery order", Section 2.2).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

Vertex = Hashable


class Topology:
    """Base class; concrete topologies implement the three queries below."""

    @property
    def endpoints(self) -> Sequence[int]:
        """The processing-node vertices (integer ids)."""
        raise NotImplementedError

    def vertices(self) -> Iterable[Vertex]:
        """All vertices (endpoints + routers)."""
        raise NotImplementedError

    def next_hops(self, at: Vertex, dst: int) -> List[Vertex]:
        """Legal forwarding choices at ``at`` toward endpoint ``dst``.

        Must be non-empty for every reachable destination, and every choice
        must make progress (no cycles for any selection sequence).
        """
        raise NotImplementedError

    # -- helpers shared by concrete topologies --------------------------------

    def path(self, src: int, dst: int, chooser=None) -> List[Vertex]:
        """Walk from ``src`` to ``dst`` selecting hops with ``chooser``
        (a callable taking the choice list; defaults to first-choice,
        i.e. deterministic routing)."""
        if chooser is None:
            chooser = lambda choices: choices[0]
        at: Vertex = src
        walk: List[Vertex] = [at]
        guard = 0
        while at != dst:
            choices = self.next_hops(at, dst)
            if not choices:
                raise ValueError(f"no route from {at} toward {dst}")
            at = chooser(choices)
            walk.append(at)
            guard += 1
            if guard > 10_000:
                raise RuntimeError("routing walk did not converge (cycle?)")
        return walk

    def path_diversity(self, src: int, dst: int) -> int:
        """Number of distinct minimal paths (product of choice counts along
        a first-choice walk; exact for the tree/mesh topologies here)."""
        if src == dst:
            return 1
        count = 1
        at: Vertex = src
        while at != dst:
            choices = self.next_hops(at, dst)
            count *= len(choices)
            at = choices[0]
        return count


class StarTopology(Topology):
    """Degenerate single-switch topology — useful in unit tests."""

    def __init__(self, n_endpoints: int) -> None:
        if n_endpoints < 2:
            raise ValueError("need at least two endpoints")
        self.n = n_endpoints
        self._hub = ("hub",)

    @property
    def endpoints(self) -> Sequence[int]:
        return range(self.n)

    def vertices(self) -> Iterable[Vertex]:
        yield from range(self.n)
        yield self._hub

    def next_hops(self, at: Vertex, dst: int) -> List[Vertex]:
        if at == dst:
            return []
        if at == self._hub:
            return [dst]
        return [self._hub]
