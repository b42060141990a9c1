"""Scheduling policies: max-weight, in-order multi-class, static tree, randomized.

Every policy's packets sit in ``VirtualQueueState`` replication-set queues;
``MultiClassState`` adds each class's in-order indices. All decide functions
are pure given their state and return what to send over the active edge (or
None to idle). Max-weight's caller applies the move. ``in_order_rules``
binds the in-order family's rules to a state once: its checked write path,
``apply``; its ``step``, whose no-move form is ``decide`` (the multiclass
scan moves its winner itself, and static-tree's owner test moves through
``apply``); and its slotted edge weight. ``multiclass_decide``,
``static_tree_decide`` and ``multiclass_apply`` are each one call of those
rules. ``edge_weight`` is max-weight's slotted edge weight, the differential
of ``max_weight_decide``'s move.
``randomized_picks`` resolves the randomized policy's picks for a chunk of
events at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConstructionError, SchedulingError
from .graph import Arborescence, Digraph
# Unused here: the benchmark tracer swaps it by name (ROADMAP item 1).
from .graph import out_edges  # noqa: F401
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
    which takes each packet's class from ``labels``, and the ``step`` and
    ``apply`` of ``in_order_rules`` write the state; its ``transmit`` refuses.
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
        if count < 0:
            raise ValueError("negative arrival count")
        src = self.graph.source
        labelled = 0
        for c in islice(self.labels, count):
            self.highest[c][src] += 1
            self.inflight[c].append(self.graph.source_mask)
            labelled += 1
        VirtualQueueState.admit(self, labelled)
        if labelled != count:
            raise ValueError(f"the class labels ran out: admitted "
                             f"{labelled} of {count} packets")

    def transmit(self, fset: int, eid: int):
        raise SchedulingError("an in-order state moves packets only by in_order_rules' "
                              "apply or step")

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


def in_order_rules(state: MultiClassState, owner: Sequence[int] | None = None
                   ) -> tuple[Callable[[int], int | None], Callable[[int, int], None],
                              Callable[[int], int], Callable[..., int | None]]:
    """The in-order policy's four rules bound to ``state``: ``(decide,
    apply, weight, step)``, closures over its index rows, in-flight sets and
    queue counts and over per-edge tail, head and head-bit tables. A run
    binds them once; they see every write to a class's row and in-flight
    list and to the counts, but not a class added or an attribute replaced
    after binding. Only these closures look up a head-of-line set in the
    in-flight lists: the multiclass ``step`` inline on the hot path,
    ``apply`` as part of its checks, and ``weight`` for the class ``decide``
    picked.

    ``step(eid)`` decides the class whose head-of-line packet goes over the
    active edge, moves that packet unless it idles, and returns the class,
    or None to idle; ``step(eid, move=False)`` is ``decide(eid)``, which
    moves nothing. Multiclass (``owner`` None): of the eligible classes, the
    one with the largest strictly positive differential, ties to the lowest
    class. A class is eligible when its next in-order packet for the edge's
    head exists, is already present at the edge's tail and has an in-flight
    set. A differential is at most the head-of-line count, so a smaller
    count is skipped; ``counts`` never holds the full set, so completing a
    packet reads 0 there. Static-tree (``owner`` from ``tree_owners``): the
    class owning the edge, if its next in-order packet for the head is
    present at the tail; None also on an edge no tree holds.

    ``apply(c, eid)`` delivers class ``c``'s next in-order packet to the
    edge's head: the checked write path of a replayed move. It raises
    SchedulingError, before any write, when the packet does not exist yet,
    is absent at the tail or lacks an in-flight set, when the edge does not
    leave its set, or when that set's queue is empty. The static-tree
    ``step`` is its owner test, the first two refusals, then ``apply``. The
    multiclass ``step`` makes the same move from the row, position, set and
    count its scan read, under the same refusals: it checks the edge again,
    and the others are comparisons the scan made on those values.

    ``weight(eid)`` is the edge's slotted weight: the differential of the
    head-of-line set of the class ``decide`` picks, or 0 when it idles.
    """
    g = state.graph
    highest, inflight, counts = state.highest, state.inflight, state.counts
    src, full = g.source, g.full_mask
    tails = [a for a, _ in g.edges]
    heads = [b for _, b in g.edges]
    head_bits = [1 << b for b in heads]

    def send(row: list[int], sets: list[int], pos: int, fset: int, have: int,
             j: int, jbit: int):
        """The move, unchecked: the packet at position ``pos`` of ``sets``,
        held by exactly ``fset`` (``have`` packets), reaches node ``j``."""
        if have == 1:
            del counts[fset]
        else:
            counts[fset] = have - 1
        row[j] += 1
        nxt = fset | jbit
        if nxt == full:
            state.delivered += 1
            del sets[pos]  # in-order delivery: the completed packet is the oldest
        else:
            counts[nxt] = counts.get(nxt, 0) + 1
            sets[pos] = nxt

    def apply(c: int, eid: int):
        i = tails[eid]
        j = heads[eid]
        row = highest[c]
        p = row[j] + 1
        if p > row[src]:
            raise SchedulingError(f"class {c} has no packet {p} yet")
        if row[i] < p:
            raise SchedulingError(f"class {c} packet {p} is absent at node {i}")
        sets = inflight[c]
        pos = p - 1 - row[src]
        if pos < -len(sets):
            raise SchedulingError(f"class {c} packet {p} has no in-flight set")
        fset = sets[pos]
        if not (fset >> i) & 1 or (fset >> j) & 1:
            raise SchedulingError(f"edge {eid} does not leave node set {fset:#x}")
        have = counts.get(fset, 0)
        if have < 1:
            raise SchedulingError(f"transmit from empty queue {fset:#x}")
        send(row, sets, pos, fset, have, j, head_bits[eid])

    if owner is None:
        classes = list(zip(range(len(highest)), highest, inflight))

        def step(eid: int, move: bool = True) -> int | None:
            i = tails[eid]
            j = heads[eid]
            jbit = head_bits[eid]
            best = None
            best_w = 0
            for c, row, sets in classes:
                hj = row[j]
                if row[i] <= hj:
                    continue
                pos = hj - row[src]  # packet hj + 1's position; < 0 once it arrived
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
                    hit = row, sets, pos, fset, q
            if best is None or not move:
                return best
            row, sets, pos, fset, q = hit
            if not (fset >> i) & 1 or fset & jbit:
                raise SchedulingError(f"edge {eid} does not leave node set {fset:#x}")
            send(row, sets, pos, fset, q, j, jbit)
            return best
    else:
        def step(eid: int, move: bool = True) -> int | None:
            c = owner[eid]
            if c < 0:
                return None
            row = highest[c]
            p = row[heads[eid]] + 1
            if p > row[src] or row[tails[eid]] < p:
                return None
            if move:
                apply(c, eid)
            return c

    def decide(eid: int) -> int | None:
        return step(eid, False)

    def weight(eid: int) -> int:
        c = decide(eid)
        if c is None:
            return 0
        row = highest[c]
        fset = inflight[c][row[heads[eid]] - row[src]]
        return counts[fset] - counts.get(fset | head_bits[eid], 0)

    return decide, apply, weight, step


def multiclass_decide(state: MultiClassState, eid: int) -> int | None:
    """The multiclass ``decide`` of ``in_order_rules``, bound for one call."""
    return in_order_rules(state)[0](eid)


def multiclass_apply(state: MultiClassState, c: int, eid: int):
    """The ``apply`` of ``in_order_rules``, bound for one call."""
    in_order_rules(state)[1](c, eid)


def edge_weight(state: VirtualQueueState, eid: int) -> int:
    """Max-weight's slotted edge weight: the differential of
    ``max_weight_decide``'s set over the edge, or 0 when it idles."""
    fset = max_weight_decide(state, eid)
    if fset is None:
        return 0
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
    """The static-tree ``decide`` of ``in_order_rules``, bound for one call."""
    return in_order_rules(state, owner)[0](eid)


class TableSearch(NamedTuple):
    """``RandomizedTable.search``: the flat edge-major search ``keys``, each
    edge's index one past its last pair (``ends``) and head bit
    (``head_bits``), and the int32 ``guide``: per edge and bucket of draws,
    the pair every draw in the bucket picks, or -1 when a key boundary lies
    inside the bucket."""

    keys: np.ndarray
    ends: np.ndarray
    head_bits: np.ndarray
    guide: np.ndarray


@dataclass(frozen=True, eq=False)
class RandomizedTable:
    """Stationary forwarding distribution for the randomized policy.

    The table is four arrays, edge-major: ``fsets`` holds each pair's
    node-set mask (int64, so of graphs up to 63 nodes), ``probs`` its
    probability, ``sizes`` each edge's pair count and ``heads`` each edge's
    head node. ``entries[eid]``, built on first read, lists edge eid's
    (node-set mask, probability) pairs: given that the edge is the active
    one, the probability of attempting to move a packet of that class
    across it. Residual probability means idle. A draw u in [0, 1) picks
    the first pair whose running sum of the entry's probabilities, added
    left to right, exceeds u, and idles when none does. Two tables are
    equal when their arrays are.

    ``search`` holds those running sums as one flat edge-major int64 key
    each, ``eid * (2**53 + 1) + min(ceil(sum * 2**53), 2**53)``, so one
    ``np.searchsorted`` finds the pairs of a whole block of events. The keys
    are exact for the draws of ``Generator.random``, which are multiples of
    2**-53 in [0, 1): for such a draw u, ``u * 2**53`` is an integer below
    2**53, and ``sum > u`` holds exactly when the key's second term exceeds
    it. The edge's offset is added as an integer, never to a float, so
    nothing rounds, and each edge's keys and draws stay below the next
    edge's, up to 1023 edges. Its guide (Chen and Asau 1974) cuts each
    edge's draws into ``_GUIDE_BUCKETS`` buckets by their top bits; a bucket
    with no key boundary inside it holds the one pair all its draws pick.
    """

    fsets: np.ndarray
    probs: np.ndarray
    sizes: np.ndarray
    heads: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, RandomizedTable):
            return NotImplemented
        return all(map(np.array_equal, (self.fsets, self.probs, self.sizes, self.heads),
                       (other.fsets, other.probs, other.sizes, other.heads)))

    @cached_property
    def entries(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        fset_list, prob_list = self.fsets.tolist(), self.probs.tolist()
        ends = np.cumsum(self.sizes).tolist()
        return tuple(tuple(zip(fset_list[a:b], prob_list[a:b]))
                     for a, b in zip([0] + ends, ends))

    @cached_property
    def search(self) -> TableSearch:
        """Built on first read. Each edge's running sums are one
        ``np.cumsum``, which adds left to right. ConstructionError when a
        pair's edge head already lies in its node set, since every pick
        must grow its set by exactly one node."""
        fsets, probs, sizes = self.fsets, self.probs, self.sizes
        m = len(sizes)
        if m * _KEY_STRIDE > 1 << 63:
            raise ValueError(f"a table search holds at most 1023 edges, got {m}")
        ends = np.cumsum(sizes)
        head_bits = np.left_shift(1, self.heads)
        inside = np.flatnonzero(fsets & np.repeat(head_bits, sizes))
        if len(inside):
            pair = int(inside[0])
            eid = int(np.searchsorted(ends, pair, side="right"))
            raise ConstructionError(f"edge {eid}'s head {int(self.heads[eid])} already "
                                    f"lies in node set {int(fsets[pair]):#x}")
        # In place, so no more than two arrays of the keys' size are alive.
        scaled = np.concatenate([np.cumsum(entry)
                                 for entry in np.split(probs, ends[:-1])])
        scaled *= _DRAW_SCALE
        np.ceil(scaled, out=scaled)
        np.minimum(scaled, _DRAW_SCALE, out=scaled)
        keys = scaled.astype(np.int64)
        del scaled
        keys += np.repeat(np.arange(m, dtype=np.int64) * _KEY_STRIDE, sizes)
        # A bucket's first and last draw find the same pair exactly when no
        # key lies between them.
        low = (np.arange(m, dtype=np.int64)[:, None] * _KEY_STRIDE
               + (np.arange(_GUIDE_BUCKETS, dtype=np.int64) << _GUIDE_SHIFT)).ravel()
        guide = np.searchsorted(keys, low, side="right")
        low += (1 << _GUIDE_SHIFT) - 1
        guide[guide != np.searchsorted(keys, low, side="right")] = -1
        return TableSearch(keys, ends, head_bits, guide.astype(np.int32))

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


_WORD_MASK = 0xFFFF_FFFF
# A draw of ``Generator.random`` times this is an integer; the table search
# keys of consecutive edges are this plus one apart.
_DRAW_SCALE = float(1 << 53)
_KEY_STRIDE = (1 << 53) + 1
# A draw's guide bucket is ``int(u * 2**53) >> _GUIDE_SHIFT``: 128 per edge.
_GUIDE_SHIFT = 46
_GUIDE_BUCKETS = 1 << (53 - _GUIDE_SHIFT)


# ``_SELECT8[v, r]`` is the position of byte ``v``'s ``r``-th lowest set bit.
_SELECT8 = np.array([[i for i in range(8) if v >> i & 1] + [0] * (8 - v.bit_count())
                     for v in range(256)], dtype=np.int64)
_TWO32 = np.uint64(1 << 32)
# Every byte of a word 0x01, and every byte 0x80.
_BYTE_ONES = np.uint64(0x0101_0101_0101_0101)
_BYTE_TOPS = np.uint64(0x8080_8080_8080_8080)


def sample_reachable_sequences(g: Digraph, count: int, rng: np.random.Generator
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``count`` growth sequences by repeatedly crossing a uniformly
    chosen out-boundary edge: ``(sets, eids)``, two ``(count, n - 1)`` int64
    arrays whose row s holds sequence s's node sets and the edges crossed
    out of them, in step order. Requires every node reachable from the
    source, and n <= 63, since the node sets are int64 bitmasks.

    A boundary of k edges picks its j-th lowest edge id by Lemire's (2019)
    bounded rule, numpy's for ``integers(k)``: a 32-bit word w gives ``j =
    w * k >> 32``, unless the product's low half is below ``(2**32 - k) %
    k`` and the step redraws. Step t of row s reads word ``s * (n - 1) + t``
    of one block of ``count * (n - 1)`` words, whatever its size
    (``sim._BLOCK_DRAWS`` does not bound the sampler); a one-edge boundary
    reads its word too and takes j = 0. A step's redraws take fresh words,
    drawn after the block and every earlier redraw: one word per redrawing
    row, rows in ascending order, round after round until none is left. A
    set holding the source has at least c out-edges, c the broadcast
    capacity, so when c >= 2 a step redraws with probability below k /
    2**32. An empty boundary raises ValueError (a node is unreachable),
    with the block and the earlier steps' redraws drawn.

    Every row takes step t at once, in numpy. The boundary is an edge
    bitmask. ``inmask[v]`` and ``outmask[v]`` hold the edges into and out
    of node v, and ``entered`` is the OR of ``inmask`` over the set, i.e.
    the edges whose head is already in it. The first boundary is
    ``outmask[source]``, since a ``Digraph`` has no self-loops. When node b
    joins, ``bnd = (bnd & ~inmask[b]) | (outmask[b] & ~entered)``. Each
    row's boundary is a column of m // 64 + 1 uint64 words, word-major, so
    each step sums every row's word popcounts down one axis. Its j-th set
    bit is found word first, then byte: the running count of the row's
    words picks the word holding the bit and the bit's rank in it; one
    multiply turns the word's byte popcounts into their running counts (at
    most 64, so no byte carries), which pick the byte, and a per-byte
    select table gives the bit.
    """
    n = g.n
    if n > 63:
        raise ValueError(f"sampled node sets are int64 bitmasks, so n must be "
                         f"at most 63, got {n}")
    n_words = g.m // 64 + 1
    inmask = [0] * n
    outmask = [0] * n
    for eid, (a, b) in enumerate(g.edges):
        outmask[a] |= 1 << eid
        inmask[b] |= 1 << eid

    def as_words(masks: list[int]) -> np.ndarray:  # column i holds masks[i]
        return np.frombuffer(b"".join(mask.to_bytes(8 * n_words, "little")
                                      for mask in masks),
                             dtype="<u8").reshape(len(masks), n_words).T.copy()

    not_in, out_words = ~as_words(inmask), as_words(outmask)
    head_of = np.array([b for _, b in g.edges], dtype=np.int64)
    words = rng.integers(0, 1 << 32, size=(count, n - 1), dtype=np.uint32).T.copy()
    sets = np.empty((count, n - 1), dtype=np.int64)
    eids = np.empty((count, n - 1), dtype=np.int64)
    fset = np.full(count, g.source_mask, dtype=np.int64)
    # Per row: the edges whose head is not in the set yet, and the boundary.
    open_ = np.repeat(not_in[:, g.source:g.source + 1], count, axis=1)
    bnd = np.repeat(out_words[:, g.source:g.source + 1], count, axis=1)
    # ``below[w]`` counts a row's boundary edges in the words below word w.
    below = np.zeros((n_words + 1, count), dtype=np.uint64)
    rows = np.arange(count)
    for t in range(n - 1):
        np.cumsum(np.bitwise_count(bnd), axis=0, out=below[1:])
        k = below[-1]
        if not k.all():
            raise ValueError("a node is unreachable from the source")
        x = words[t] * k
        threshold = (_TWO32 - k) % k
        redraw = np.flatnonzero(x & _WORD_MASK < threshold)
        while len(redraw):
            fresh = rng.integers(0, 1 << 32, size=len(redraw), dtype=np.uint32)
            x[redraw] = fresh * k[redraw]
            redraw = redraw[x[redraw] & _WORD_MASK < threshold[redraw]]
        j = x >> 32
        word = (below[1:] <= j).sum(axis=0)  # the word holding set bit j
        rank = j - below[word, rows]
        chosen = bnd[word, rows]
        # Byte i of ``ends`` counts the word's set bits in its bytes 0..i;
        # at most 64, so no byte carries into the next.
        ends = np.bitwise_count(chosen.view(np.uint8)).view(np.uint64) * _BYTE_ONES
        # The bytes whose count ends at or below ``rank`` lie below the byte
        # holding the bit: per byte, (0x80 + rank) - end keeps its top bit.
        shift = np.bitwise_count(((rank * _BYTE_ONES | _BYTE_TOPS) - ends) & _BYTE_TOPS) * 8
        rank -= (ends << 8 >> shift) & 0xFF
        eid = 64 * word + shift + _SELECT8[(chosen >> shift) & 0xFF, rank]
        sets[:, t] = fset
        eids[:, t] = eid
        b = head_of[eid]
        fset |= np.left_shift(1, b)
        not_in_b = not_in.take(b, axis=1)
        open_ &= not_in_b
        bnd &= not_in_b
        bnd |= out_words.take(b, axis=1) & open_
    return sets, eids


def build_randomized_table(g: Digraph, trees: Sequence[Arborescence],
                           extra_sequences: tuple[np.ndarray, np.ndarray],
                           eps: float) -> RandomizedTable:
    """Build the stationary randomized forwarding table.

    Each spanning tree contributes its growth sequence, its ``edge_ids`` in
    the order ``tree_packing`` gives them: the pair at position j (1-based)
    gets conditional probability 1 - eps*(n-j)/n, so one slot drains each
    tree stage at rate 1 - eps*(n-j)/n and every stage keeps a positive
    per-slot margin of eps/n over the stage feeding it. Each extra sequence
    adds eps*j/(2*n^2*B') at position j, with B' the number of extra
    sequences, spreading a small stabilizing mass over node sets off the
    trees. ``extra_sequences`` is ``sample_reachable_sequences``' pair of
    ``(B', n - 1)`` arrays, node sets and edge ids, and the trees become
    the same pair of ``(c, n - 1)`` rows: a row's sets are the source
    singleton, then the running OR of its edges' head bits. Raises
    ConstructionError when a tree is not n - 1 edges each leaving the set
    before it, when a probability would be negative (p_j never decreases in
    j, so position 1 is tested), or when a per-edge total would exceed 1
    (the table must stay realizable by a single transmission per
    activation).

    Every (edge, set) pair's probability is summed from 0.0 in one order:
    the trees' rows, then the extra sequences' (``np.add.at`` adds in index
    order); each edge's total, for the check, is Python's ``sum`` of its
    pairs in the order each first occurs.
    """
    if not eps > 0:
        raise ConstructionError("rate margin eps must be positive")
    n = g.n
    tails, heads = np.array(g.edges, dtype=np.int64).reshape(g.m, 2).T.copy()
    for i, tree in enumerate(trees):
        if len(tree.edge_ids) != n - 1:
            raise ConstructionError(f"tree {i} has {len(tree.edge_ids)} edges, not {n - 1}")
    tree_eids = np.array([tree.edge_ids for tree in trees], dtype=np.int64
                         ).reshape(len(trees), n - 1)
    bits = np.left_shift(1, heads[tree_eids])
    tree_sets = np.full_like(tree_eids, g.source_mask)
    tree_sets[:, 1:] |= np.bitwise_or.accumulate(bits[:, :-1], axis=1)
    grows = ((tree_sets >> tails[tree_eids]) & 1 == 1) & (tree_sets & bits == 0)
    if not grows.all():
        i = int(grows.all(axis=1).argmin())
        raise ConstructionError(f"tree {i}'s edges do not each leave the set before it")
    tree_p = 1.0 - eps * (n - np.arange(1, n)) / n
    if tree_sets.size and tree_p[0] < 0:
        raise ConstructionError(f"eps={eps} makes the tree allocation negative at step 1")
    sets, eids = extra_sequences
    # Every sequence has n - 1 positions, and position j adds the same float
    # in each of them; with no sequence the divisor is never used.
    extra_p = eps * np.arange(1, n) / (2 * n * n * max(len(sets), 1))
    return RandomizedTable(*_summed_pairs(
        g.m, np.concatenate((tree_sets, sets)).ravel(),
        np.concatenate((tree_eids, eids)).ravel(),
        np.concatenate((np.broadcast_to(tree_p, tree_sets.shape),
                        np.broadcast_to(extra_p, sets.shape))).ravel()), heads)


def _summed_pairs(m: int, fsets: np.ndarray, edges: np.ndarray, probs: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``build_randomized_table``'s sums: each distinct (edge, set) pair's
    node set and summed probability, edge-major and by set, and each edge's
    pair count; ConstructionError on the first edge whose total exceeds 1."""
    # One key per pair, ordered as the pairs sort.
    set_ids, set_rank = np.unique(fsets, return_inverse=True)
    width = max(len(set_ids), 1)
    keys, inverse = np.unique(edges * width + set_rank.ravel(), return_inverse=True)
    inverse = inverse.ravel()
    sums = np.zeros(len(keys))
    np.add.at(sums, inverse, probs)
    first = np.full(len(keys), len(probs))
    np.minimum.at(first, inverse, np.arange(len(probs)))
    pair_edges = keys // width
    sizes = np.bincount(pair_edges, minlength=m)
    by_first = sums[np.argsort(pair_edges * len(probs) + first)].tolist()
    ends = np.cumsum(sizes).tolist()
    for eid, (a, b) in enumerate(zip([0] + ends, ends)):
        total = sum(by_first[a:b])
        if total > 1.0 + 1e-9:
            raise ConstructionError(
                f"edge {eid} carries total probability {total:.6f} > 1")
    return set_ids[keys % width], sums, sizes


def randomized_decide(table: RandomizedTable, state: VirtualQueueState,
                      eid: int, rng: np.random.Generator) -> int | None:
    """Node set the randomized policy sends over the active edge: one event
    of ``randomized_picks``, which draws one ``rng.random()`` over a
    non-empty entry and none over an empty one; None to idle on the residual
    mass or when the picked set's queue is empty (the policy never
    substitutes a class, as that would change its stationary behavior).

    The engine settles a window of picks at a time instead; the benchmark
    tracer swaps ``sim.randomized_decide`` by name (ROADMAP item 1).
    """
    at, pairs = randomized_picks(table, np.array([eid]), rng)
    if len(at) and state.counts.get(fset := int(table.fsets[pairs[0]]), 0) > 0:
        return fset
    return None


def randomized_picks(table: RandomizedTable, eids: np.ndarray,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The randomized policy's picks for a chunk of events, one active edge
    each in the int array ``eids``: ``(at, pairs)``, the ascending positions
    in ``eids`` of the events that pick a pair, and each pick's index into
    the table's pairs (``table.fsets`` holds its node set). Every other
    event idles, on an empty entry or the residual mass. The picks read no
    queue; a pick moves a packet only when its set's queue is not empty.

    The events over a non-empty entry take one uniform each, in event order,
    from one ``rng.random(size=count)``, which leaves the generator where
    ``count`` scalar draws would; a chunk with no such event draws none.
    ``table.search``'s guide resolves each draw whose bucket holds no key
    boundary; one ``np.searchsorted`` over the exact keys finds the pair
    whose running sum first exceeds each other draw.
    """
    search = table.search
    live = np.flatnonzero(table.sizes[eids])
    live_eids = eids[live]
    draws = (rng.random(size=len(live)) * _DRAW_SCALE).astype(np.int64)
    pairs = search.guide[live_eids * _GUIDE_BUCKETS + (draws >> _GUIDE_SHIFT)]
    open_ = np.flatnonzero(pairs < 0)
    pairs[open_] = np.searchsorted(search.keys, live_eids[open_] * _KEY_STRIDE
                                   + draws[open_], side="right")
    hit = pairs < search.ends[live_eids]
    return live[hit], pairs[hit]
