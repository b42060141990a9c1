"""Scheduling policies: max-weight, in-order multi-class, static tree, randomized.

All decide functions are pure given their state and return what to send over
the active edge (or None to idle); the caller applies the move. ``edge_weight``
turns the same candidate rules into the per-edge weights of the slotted model.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from .errors import ConstructionError, SchedulingError
from .graph import (Arborescence, Digraph, ReachableSequence, out_edges,
                    sequence_from_arborescence)
from .queues import VirtualQueueState


def best_transition(state: VirtualQueueState, eid: int) -> tuple[int, int] | None:
    """Best (node set, backlog differential) for the active edge, or None when
    no nonempty queue has the edge on its out-boundary.

    Ranks by differential, then by smaller set, then by smaller bitmask, so
    the choice is deterministic.
    """
    g = state.graph
    a, b = g.edges[eid]
    bbit = 1 << b
    full = g.full_mask
    counts = state.counts
    best = None
    best_key = None
    for fset, q in counts.items():
        if not (fset >> a) & 1 or fset & bbit:
            continue
        nxt = fset | bbit
        w = q - (0 if nxt == full else counts.get(nxt, 0))
        key = (w, -(fset.bit_count()), -fset)
        if best_key is None or key > best_key:
            best_key = key
            best = (fset, w)
    return best


def max_weight_decide(state: VirtualQueueState, eid: int) -> int | None:
    """Node set whose packet the max-weight policy sends over the active edge,
    or None to idle when no candidate has a strictly positive differential."""
    best = best_transition(state, eid)
    if best is None or best[1] <= 0:
        return None
    return best[0]


def assign_class(rng: np.random.Generator, k: int) -> int:
    """Uniform class label for an arriving packet; consumes one draw."""
    if k < 1:
        raise ValueError("need at least one class")
    return int(rng.integers(k))


class MultiClassState:
    """In-order delivery state for k packet classes.

    ``highest[c][i]`` is the highest in-order packet index of class ``c``
    received by node ``i``; the source entry is the class's arrival count.
    A mirrored VirtualQueueState tracks how many packets (of any class) sit at
    each exact replication set. The mirror is maintained move-by-move, which
    makes the weight lookups O(1) instead of O(k*n); ``histogram`` rebuilds
    it from the indices so a run can check the two agree.
    """

    __slots__ = ("graph", "k", "highest", "mirror")

    def __init__(self, graph: Digraph, k: int):
        if k < 1:
            raise ValueError("need at least one class")
        self.graph = graph
        self.k = k
        self.highest = [[0] * graph.n for _ in range(k)]
        self.mirror = VirtualQueueState(graph)

    def admit_packet(self, c: int):
        self.highest[c][self.graph.source] += 1
        self.mirror.admit(1)

    def packet_set(self, c: int, p: int) -> int:
        """Bitmask of nodes currently holding packet ``p`` of class ``c``."""
        mask = 0
        for v, r in enumerate(self.highest[c]):
            if r >= p:
                mask |= 1 << v
        return mask

    def received_count(self, node: int) -> int:
        return sum(row[node] for row in self.highest)

    def histogram(self) -> tuple[dict[int, int], int]:
        """The mirror's (counts, delivered), rebuilt from the indices in
        O(k*n log n): per class, walk the nodes from the highest index down;
        each index level holds (level - next lower level) packets at the
        nodes whose index is at least that level, and the lowest level's
        packets are delivered everywhere."""
        counts: dict[int, int] = {}
        delivered = 0
        for row in self.highest:
            order = sorted(range(len(row)), key=row.__getitem__, reverse=True)
            fset = 0
            for v, lower in zip(order, order[1:]):
                fset |= 1 << v
                if row[v] > row[lower]:
                    counts[fset] = counts.get(fset, 0) + row[v] - row[lower]
            delivered += row[order[-1]]
        return counts, delivered


def _multiclass_best(state: MultiClassState, eid: int) -> tuple[int, int] | None:
    """Best (class, differential) among eligible head-of-line packets for the
    active edge, ties to the lowest class; None when no class is eligible.

    A class is eligible when its next in-order packet for the edge's head
    exists and is already present at the edge's tail.
    """
    g = state.graph
    i, j = g.edges[eid]
    jbit = 1 << j
    full = g.full_mask
    counts = state.mirror.counts
    highest = state.highest
    src = g.source
    n = g.n
    best = None
    best_w = None
    for c in range(state.k):
        row = highest[c]
        p = row[j] + 1
        if p > row[src] or row[i] < p:
            continue
        fset = 0
        for v in range(n):
            if row[v] >= p:
                fset |= 1 << v
        nxt = fset | jbit
        w = counts.get(fset, 0) - (0 if nxt == full else counts.get(nxt, 0))
        if best_w is None or w > best_w:
            best_w = w
            best = c
    if best is None:
        return None
    return best, best_w


def multiclass_decide(state: MultiClassState, eid: int) -> int | None:
    """Class whose head-of-line packet the multi-class policy sends over the
    active edge, or None to idle when no eligible class has positive weight."""
    best = _multiclass_best(state, eid)
    if best is None or best[1] <= 0:
        return None
    return best[0]


def multiclass_apply(state: MultiClassState, c: int, eid: int):
    """Deliver class ``c``'s next in-order packet to the edge's head."""
    g = state.graph
    i, j = g.edges[eid]
    row = state.highest[c]
    p = row[j] + 1
    if p > row[g.source]:
        raise SchedulingError(f"class {c} has no packet {p} yet")
    if row[i] < p:
        raise SchedulingError(f"class {c} packet {p} is absent at node {i}")
    fset = state.packet_set(c, p)
    row[j] = p
    state.mirror.transmit(fset, eid)


def edge_weight(state: VirtualQueueState | MultiClassState, eid: int) -> int:
    """Largest backlog differential attainable on the edge under the state's
    candidate rule (nonempty queues for the virtual-queue policy, eligible
    head-of-line packets for the multi-class one), floored at zero."""
    if isinstance(state, VirtualQueueState):
        best = best_transition(state, eid)
    elif isinstance(state, MultiClassState):
        best = _multiclass_best(state, eid)
    else:
        raise TypeError(f"no edge weight rule for {type(state).__name__}")
    return max(best[1], 0) if best is not None else 0


def static_tree_decide(state: MultiClassState, trees: Sequence[Arborescence],
                       eid: int) -> int | None:
    """Class owning the active edge, if its next in-order packet for the head
    is present at the tail. Classes are bound to edge-disjoint trees, so at
    most one class can own an edge."""
    i, j = state.graph.edges[eid]
    for c, tree in enumerate(trees):
        if eid in tree.edge_set:
            row = state.highest[c]
            p = row[j] + 1
            if p <= row[state.graph.source] and row[i] >= p:
                return c
            return None
    return None


@dataclass(frozen=True)
class RandomizedTable:
    """Stationary forwarding distribution for the randomized policy.

    ``entries[eid]`` lists (node-set mask, probability) pairs: given that the
    edge is the active one, the probability of attempting to move a packet of
    that class across it. Residual probability means idle. ``cum[eid]`` holds
    the running sums of the entry's probabilities, added left to right, so
    the pair at position i covers the draws in [cum[eid][i-1], cum[eid][i]).
    """

    entries: tuple[tuple[tuple[int, float], ...], ...]

    @cached_property
    def cum(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(accumulate(p for _, p in entry)) for entry in self.entries)

    def csv_rows(self) -> Iterator[str]:
        yield "edge,bits,probability"
        for eid, entry in enumerate(self.entries):
            for fset, p in entry:
                yield f"{eid},{fset},{p:.12g}"


def default_eps(capacity: int, lam: float, n: int) -> float:
    """Rate margin used when none is configured: half the slack below
    capacity, or a small constant when at/above capacity."""
    if lam < capacity:
        return (capacity - lam) / 2
    return 1 / (4 * n)


def sample_reachable_sequences(g: Digraph, count: int,
                               rng: np.random.Generator) -> list[ReachableSequence]:
    """Sample growth sequences by repeatedly crossing a uniformly chosen
    out-boundary edge. Requires every node reachable from the source.

    The out-boundary is kept as an ascending list of edge ids: when node b
    joins the set, the edges into b leave it and b's edges to nodes outside
    the set enter it.
    """
    full = g.full_mask
    into: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    out: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid, (a, b) in enumerate(g.edges):
        out[a].append((eid, b))
        into[b].append((eid, a))
    start = out_edges(g, g.source_mask)
    seqs = []
    for _ in range(count):
        fset = g.source_mask
        boundary = list(start)
        seq = []
        while fset != full:
            if not boundary:
                raise ValueError("a node is unreachable from the source")
            eid = boundary[int(rng.integers(len(boundary)))]
            seq.append((fset, eid))
            b = g.edges[eid][1]
            fset |= 1 << b
            for e, a in into[b]:
                if (fset >> a) & 1:
                    del boundary[bisect_left(boundary, e)]
            for e, h in out[b]:
                if not (fset >> h) & 1:
                    insort(boundary, e)
        seqs.append(tuple(seq))
    return seqs


def build_randomized_table(g: Digraph, trees: Sequence[Arborescence],
                           extra_sequences: Sequence[ReachableSequence],
                           eps: float) -> RandomizedTable:
    """Build the stationary randomized forwarding table.

    Each spanning tree contributes its canonical growth sequence: the pair at
    position j (1-based) gets conditional probability 1 - eps*(n-j)/n, so one
    slot drains each tree stage at rate 1 - eps*(n-j)/n and every stage keeps
    a positive per-slot margin of eps/n over the stage feeding it. Each extra
    sequence adds eps*j/(2*n^2*B') at position j, with B' the number of extra
    sequences, spreading a small stabilizing mass over node sets off the
    trees. Raises ConstructionError when a probability would be negative or a
    per-edge total would exceed 1 (the table must stay realizable by a single
    transmission per activation).
    """
    if eps <= 0:
        raise ConstructionError("rate margin eps must be positive")
    n = g.n
    acc: list[dict[int, float]] = [{} for _ in range(g.m)]
    for tree in trees:
        seq = sequence_from_arborescence(g, tree)
        for j, (fset, eid) in enumerate(seq, start=1):
            p = 1.0 - eps * (n - j) / n
            if p < 0:
                raise ConstructionError(
                    f"eps={eps} makes the tree allocation negative at step {j}")
            acc[eid][fset] = acc[eid].get(fset, 0.0) + p
    bprime = len(extra_sequences)
    for seq in extra_sequences:
        for j, (fset, eid) in enumerate(seq, start=1):
            p = eps * j / (2 * n * n * bprime)
            acc[eid][fset] = acc[eid].get(fset, 0.0) + p
    entries = []
    for eid in range(g.m):
        total = sum(acc[eid].values())
        if total > 1.0 + 1e-9:
            raise ConstructionError(
                f"edge {eid} carries total probability {total:.6f} > 1")
        entries.append(tuple(sorted(acc[eid].items())))
    return RandomizedTable(tuple(entries))


def randomized_decide(table: RandomizedTable, state: VirtualQueueState,
                      eid: int, rng: np.random.Generator) -> int | None:
    """Sample a node set from the edge's entry; idle on the residual mass or
    when the sampled queue is empty (the policy never substitutes a class, as
    that would change its stationary behavior).

    One uniform draw u picks the first pair whose running sum in
    ``table.cum`` exceeds u, found by bisection; an empty entry idles
    without a draw.
    """
    entry = table.entries[eid]
    if not entry:
        return None
    i = bisect_right(table.cum[eid], float(rng.random()))
    if i == len(entry):
        return None
    fset = entry[i][0]
    if state.counts.get(fset, 0) > 0:
        return fset
    return None
