"""Scheduling policies: max-weight, in-order multi-class, static tree, randomized.

Every policy's packets sit in ``VirtualQueueState`` replication-set queues;
``MultiClassState`` adds each class's in-order indices. All decide functions
are pure given their state and return what to send over the active edge (or
None to idle); the caller applies the move. ``edge_weight`` turns the same
candidate rules into the per-edge weights of the slotted model.
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConstructionError, SchedulingError
from .graph import (Arborescence, Digraph, ReachableSequence, out_edges,
                    sequence_from_arborescence)
from .queues import VirtualQueueState


def max_weight_decide(state: VirtualQueueState, eid: int) -> int | None:
    """Node set whose packet the max-weight policy sends over the active edge:
    of the queues holding the edge's tail and not its head, the one with the
    largest strictly positive backlog differential, ties to the smaller set,
    then the smaller bitmask; None to idle.

    A differential is at most the set's count, so a smaller count is skipped.
    ``counts`` never holds the full set, so completing a packet reads 0 there.
    """
    a, b = state.graph.edges[eid]
    want = 1 << a
    sel = want | 1 << b
    counts = state.counts
    best = None
    best_w = 0
    for fset in counts:
        if fset & sel != want:
            continue
        q = counts[fset]
        if q < best_w:
            continue
        w = q - counts.get(fset | sel, 0)
        if w > best_w:
            best, best_w = fset, w
        elif w == best_w > 0 and (fset.bit_count(), fset) < (best.bit_count(), best):
            best = fset
    return best


class MultiClassState(VirtualQueueState):
    """In-order delivery state for k packet classes, on max-weight's queues.

    ``highest[c][i]`` is the highest in-order packet index of class ``c``
    received by node ``i``; the source entry is the class's arrival count.
    ``inflight[c]`` lists the replication-set bitmask of every class-``c``
    packet not yet held by every node, oldest first, so packet ``p`` sits at
    position ``p - 1 - highest[c][source]`` (counted from the end) and the
    moves read a head-of-line set without a pass over the nodes.
    The inherited ``counts`` and ``delivered`` tally the packets of every
    class by exact replication set, move by move, which makes the weight
    lookups O(1) instead of O(k*n); ``histogram`` and ``received_count``
    read the indices alone so a run can check the two agree. Only ``admit``,
    which takes each packet's class from ``labels``, and ``multiclass_apply``
    write the state; its ``transmit`` refuses.
    """

    __slots__ = ("highest", "inflight", "labels")

    def __init__(self, graph: Digraph, k: int, labels: Iterable[int]):
        if k < 1:
            raise ValueError("need at least one class")
        super().__init__(graph)
        self.highest = [[0] * graph.n for _ in range(k)]
        self.inflight: list[list[int]] = [[] for _ in range(k)]
        self.labels = iter(labels)

    def admit(self, count: int):
        """Admit ``count`` packets at the source, one per next label;
        ValueError if ``count`` < 0, before any label is taken, or if the
        labels run out, after admitting one packet per label there was."""
        src = self.graph.source
        before = self.admitted
        for c in islice(self.labels, count):
            self.highest[c][src] += 1
            self.inflight[c].append(self.graph.source_mask)
            VirtualQueueState.admit(self, 1)
        if self.admitted - before != count:
            raise ValueError(f"the class labels ran out: admitted "
                             f"{self.admitted - before} of {count} packets")

    def transmit(self, fset: int, eid: int):
        raise SchedulingError("an in-order state moves packets only by multiclass_apply")

    def received_count(self, node: int) -> int:
        return sum(row[node] for row in self.highest)

    def histogram(self) -> tuple[dict[int, int], int]:
        """(counts, delivered) rebuilt from the indices in O(k*n log n):
        per class, walk the nodes from the highest index down; each index
        level holds (level - next lower level) packets at the nodes whose
        index is at least that level, and the lowest level's packets are
        delivered everywhere."""
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


def multiclass_decide(state: MultiClassState, eid: int) -> int | None:
    """Class whose head-of-line packet the multi-class policy sends over the
    active edge: of the eligible classes, the one with the largest strictly
    positive differential, ties to the lowest class; None to idle.

    A class is eligible when its next in-order packet for the edge's head
    exists, is already present at the edge's tail and has an in-flight set.
    A differential is at most the head-of-line count, so a smaller count is
    skipped. ``counts`` never holds the full set, so completing a packet
    reads 0 there.
    """
    g = state.graph
    i, j = g.edges[eid]
    jbit = 1 << j
    counts = state.counts
    inflight = state.inflight
    src = g.source
    best = None
    best_w = 0
    for c, row in enumerate(state.highest):
        hj = row[j]
        if row[i] <= hj:
            continue
        pos = hj - row[src]  # packet hj + 1's position; < 0 once it arrived
        sets = inflight[c]
        if not -len(sets) <= pos < 0:
            continue
        fset = sets[pos]
        q = counts.get(fset, 0)
        if q <= best_w:
            continue
        w = q - counts.get(fset | jbit, 0)
        if w > best_w:
            best_w = w
            best = c
    return best


def multiclass_apply(state: MultiClassState, c: int, eid: int):
    """Deliver class ``c``'s next in-order packet to the edge's head: the
    in-order state's one move, its counts moved by the base ``transmit``."""
    g = state.graph
    i, j = g.edges[eid]
    row = state.highest[c]
    p = row[j] + 1
    if p > row[g.source]:
        raise SchedulingError(f"class {c} has no packet {p} yet")
    if row[i] < p:
        raise SchedulingError(f"class {c} packet {p} is absent at node {i}")
    sets = state.inflight[c]
    pos = p - 1 - row[g.source]
    if pos < -len(sets):
        raise SchedulingError(f"class {c} packet {p} has no in-flight set")
    fset = sets[pos]
    VirtualQueueState.transmit(state, fset, eid)
    row[j] = p
    sets[pos] = fset | 1 << j
    if sets[pos] == g.full_mask:
        del sets[pos]  # in-order delivery: the completed packet is the oldest


def edge_weight(state: VirtualQueueState, eid: int) -> int:
    """Differential of the move the state's policy makes over the edge
    (``max_weight_decide``'s set, or the head-of-line set of the class
    ``multiclass_decide`` picks), or 0 when it idles; both keep only a
    strictly positive differential."""
    if isinstance(state, MultiClassState):
        c = multiclass_decide(state, eid)
        if c is None:
            return 0
        row = state.highest[c]
        fset = state.inflight[c][row[state.graph.edges[eid][1]] - row[state.graph.source]]
    elif isinstance(state, VirtualQueueState):
        fset = max_weight_decide(state, eid)
        if fset is None:
            return 0
    else:
        raise TypeError(f"no edge weight rule for {type(state).__name__}")
    counts = state.counts
    return counts[fset] - counts.get(fset | 1 << state.graph.edges[eid][1], 0)


def tree_owners(g: Digraph, trees: Sequence[Arborescence]) -> list[int]:
    """``owner[eid]``: the class ``c`` whose tree ``trees[c]`` holds the
    edge, or -1 for an edge on no tree. Classes are bound to edge-disjoint
    trees, so at most one class can own an edge."""
    owner = [-1] * g.m
    for c, tree in enumerate(trees):
        for eid in tree.edge_ids:
            owner[eid] = c
    return owner


def static_tree_decide(state: MultiClassState, owner: Sequence[int],
                       eid: int) -> int | None:
    """Class owning the active edge (``owner`` from ``tree_owners``), if its
    next in-order packet for the head is present at the tail; None to idle,
    also on an edge no tree holds."""
    c = owner[eid]
    if c < 0:
        return None
    g = state.graph
    i, j = g.edges[eid]
    row = state.highest[c]
    p = row[j] + 1
    if p <= row[g.source] and row[i] >= p:
        return c
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


# Values per block drawn by ``_blocks``. numpy's block forms of ``poisson``,
# ``integers`` and ``random`` consume a generator as repeated scalar calls
# would, so the size is not observable.
_BLOCK_DRAWS = 1024
_WORD_MASK = 0xFFFF_FFFF


def _blocks(draw: Callable, *args, **kwargs) -> Iterator:
    """The values of repeated scalar ``draw(*args, **kwargs)`` calls, one at
    a time, taken from blocks of ``draw(*args, size=_BLOCK_DRAWS, **kwargs)``;
    a block is drawn only when the previous one is used up."""
    return chain.from_iterable(iter(
        lambda: draw(*args, size=_BLOCK_DRAWS, **kwargs).tolist(), None))


@contextmanager
def _bounded_indices(rng: np.random.Generator) -> Iterator[Callable[[int], int]]:
    """Yield ``index(k)``, which returns what ``int(rng.integers(k))`` would,
    taking its 32-bit words from ``_blocks(rng.integers, 0, 2**32,
    dtype=np.uint32)``.

    numpy's bounded rule for ``k <= 2**32`` (Lemire 2019): ``k == 1`` takes no
    word; otherwise ``x = w * k`` for the next word ``w``, and while the low 32
    bits of ``x`` are below ``(2**32 - k) % k`` (tested only once they are
    below ``k``) the next word replaces ``w``; the index is ``x >> 32``. On
    exit, also by an exception, the generator is reset to its state on entry
    and advanced by exactly the words used, drawn as one block, which leaves
    it where the scalar calls would, PCG64's buffered half-word included.
    """
    saved = rng.bit_generator.state
    next_word = _blocks(rng.integers, 0, 1 << 32, dtype=np.uint32).__next__
    used = 0

    def index(k: int) -> int:
        nonlocal used
        if k == 1:
            return 0
        x = next_word() * k
        used += 1
        if x & _WORD_MASK < k:
            threshold = ((1 << 32) - k) % k
            while x & _WORD_MASK < threshold:
                x = next_word() * k
                used += 1
        return x >> 32

    try:
        yield index
    finally:
        rng.bit_generator.state = saved
        if used:
            rng.integers(0, 1 << 32, size=used, dtype=np.uint32)


def sample_reachable_sequences(g: Digraph, count: int,
                               rng: np.random.Generator) -> list[ReachableSequence]:
    """Sample growth sequences by repeatedly crossing a uniformly chosen
    out-boundary edge. Requires every node reachable from the source.

    The out-boundary is an edge-id bitmask ``bnd``. ``inmask[v]`` and
    ``outmask[v]`` hold the edges into and out of node v, and ``entered``
    is the OR of ``inmask`` over the set, i.e. the edges whose head is
    already in it. When node b joins, ``bnd = (bnd & ~inmask[b]) |
    (outmask[b] & ~entered)``. A boundary of k edges picks its j-th lowest
    set bit for ``j = int(rng.integers(k))``, which is ``boundary[j]`` of the
    ascending edge-id list; it is found by clearing the j lowest set bits or
    the k - 1 - j highest, whichever is fewer. The words of those scalar
    calls are drawn in blocks (``_bounded_indices``), so the sequences and
    the generator state afterwards, on the unreachable-node error too, equal
    the scalar calls'.
    """
    full = g.full_mask
    heads = [b for _, b in g.edges]
    inmask = [0] * g.n
    outmask = [0] * g.n
    for eid, (a, b) in enumerate(g.edges):
        outmask[a] |= 1 << eid
        inmask[b] |= 1 << eid
    start = sum(1 << eid for eid in out_edges(g, g.source_mask))
    seqs = []
    with _bounded_indices(rng) as index:
        for _ in range(count):
            fset = g.source_mask
            entered = inmask[g.source]
            bnd = start
            seq = []
            while fset != full:
                if not bnd:
                    raise ValueError("a node is unreachable from the source")
                k = bnd.bit_count()
                j = index(k)
                x = bnd
                if 2 * j < k:
                    for _ in range(j):
                        x &= x - 1
                    eid = (x & -x).bit_length() - 1
                else:
                    for _ in range(k - 1 - j):
                        x ^= 1 << (x.bit_length() - 1)
                    eid = x.bit_length() - 1
                seq.append((fset, eid))
                b = heads[eid]
                fset |= 1 << b
                entered |= inmask[b]
                bnd = (bnd & ~inmask[b]) | (outmask[b] & ~entered)
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
    if not eps > 0:
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
    if extra_sequences:
        # Every sequence has n - 1 positions, and position j adds the same
        # float in each of them.
        bprime = len(extra_sequences)
        extra_p = [eps * j / (2 * n * n * bprime) for j in range(1, n)]
        for seq in extra_sequences:
            for (fset, eid), p in zip(seq, extra_p):
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
                      eid: int, uniform: Callable[[], float]) -> int | None:
    """Sample a node set from the edge's entry; idle on the residual mass or
    when the sampled queue is empty (the policy never substitutes a class, as
    that would change its stationary behavior).

    One call ``uniform()`` gives a draw u in [0, 1) (``Generator.random``,
    or the next value of a block of them); u picks the first pair whose
    running sum in ``table.cum`` exceeds u, found by bisection. An empty
    entry idles without a draw.
    """
    entry = table.entries[eid]
    if not entry:
        return None
    i = bisect_right(table.cum[eid], uniform())
    if i == len(entry):
        return None
    fset = entry[i][0]
    if state.counts.get(fset, 0) > 0:
        return fset
    return None
