"""Virtual queues over replication sets.

``counts[fset]`` is the number of packets currently held by exactly the node
set ``fset``. A packet whose set would grow to cover every node leaves the
counts and is tallied in ``delivered``, so ``admitted == delivered +
total_backlog()`` after every update.
"""

from __future__ import annotations

from .errors import SchedulingError
from .graph import Digraph


class VirtualQueueState:
    __slots__ = ("graph", "counts", "admitted", "delivered", "_full", "_src")

    def __init__(self, graph: Digraph):
        self.graph = graph
        self.counts: dict[int, int] = {}
        self.admitted = 0
        self.delivered = 0
        self._full = graph.full_mask
        self._src = graph.source_mask

    def admit(self, count: int):
        """Add externally arrived packets at the source singleton."""
        if count < 0:
            raise ValueError("negative arrival count")
        if count == 0:
            return
        self.admitted += count
        self.counts[self._src] = self.counts.get(self._src, 0) + count

    def transmit(self, fset: int, eid: int):
        """Move one packet held at exactly ``fset`` across boundary edge ``eid``.

        Raises SchedulingError when the queue is empty or the edge does not
        leave the set: both indicate a policy bug and the run must abort.
        """
        a, b = self.graph.edges[eid]
        if not (fset >> a) & 1 or (fset >> b) & 1:
            raise SchedulingError(
                f"edge {eid} does not leave node set {fset:#x}")
        have = self.counts.get(fset, 0)
        if have < 1:
            raise SchedulingError(f"transmit from empty queue {fset:#x}")
        if have == 1:
            del self.counts[fset]
        else:
            self.counts[fset] = have - 1
        nxt = fset | (1 << b)
        if nxt == self._full:
            self.delivered += 1
        else:
            self.counts[nxt] = self.counts.get(nxt, 0) + 1

    def weight(self, fset: int, eid: int) -> int:
        """Backlog differential across ``eid``: the count at ``fset`` minus the
        count at the grown set, reading absent sets and the full set as 0."""
        b = self.graph.edges[eid][1]
        nxt = fset | (1 << b)
        q_next = 0 if nxt == self._full else self.counts.get(nxt, 0)
        return self.counts.get(fset, 0) - q_next

    def total_backlog(self) -> int:
        return sum(self.counts.values())

    def received_count(self, node: int) -> int:
        """Distinct packets held by ``node``: everything delivered plus every
        in-flight packet whose set contains the node."""
        total = self.delivered
        for fset, q in self.counts.items():
            if (fset >> node) & 1:
                total += q
        return total
