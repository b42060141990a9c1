"""Independent reference implementations used to pin expected values.

These deliberately avoid the library's algorithms: reachability runs as a
fixed point instead of a search, min cuts and matchings are brute force,
disjoint paths come from exhaustive combination, multiclass set counts are
taken one node set at a time, and the packet ledger tracks every packet's
replication set explicitly.

The next six are the slow forms of paths the library now runs faster:
tree packing that re-runs every sink's max-flow per candidate edge,
sequence sampling that rescans every edge for the out-boundary per step,
the randomized decide's linear walk of the cumulative distribution, the
slotted activation choice that totals every member of the family, the
multiclass choice that rebuilds each head-of-line set from the index
matrix, and the max-weight ranking of every candidate set, non-positive
differentials included. The fast forms must give the same trees,
sequences, decisions and activations, and the same (class, differential)
pair or set wherever the ranked differential is positive.

``sequence_from_arborescence`` rescans a tree for its canonical growth
order, the order ``tree_packing`` must give each tree's edges in and the
order the table oracles read.

``assign_class`` draws one class label per scalar call; the engine draws
the same stream in blocks.

``exact_randomized_table`` states the randomized table's probability rule
in exact ``Fraction`` arithmetic, so the engine's float table is checked
against the rule rather than against a stored hash; ``dict_randomized_table``
is the table built one pair at a time into a dict per edge, in the float
order the engine's array build must keep bit for bit. ``table_from_entries``
packs such per-edge entries into the engine's ``RandomizedTable`` arrays.

``slotted_capacity_lp`` gives the slotted model's exact capacity from a
linear program over the activation family (scipy, tests only); the library
has no slotted capacity of its own to compare it with.

The last three, ``replay_max_weight``, ``replay_randomized`` and
``replay_in_order`` (multiclass and static-tree), replay whole runs from the
documented RNG and loop protocol with those slow forms, one scalar call per
random value: each arrival count, active edge, class label and policy
uniform. So the engine's event loop, and its rule that every stream is drawn
in blocks yet used as the scalar calls would, are checked against their
description.
"""
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from bcastsim.errors import ConstructionError
from bcastsim.graph import Arborescence, Digraph, broadcast_capacity, max_flow, out_edges
from bcastsim.policies import RandomizedTable, default_eps


def reachable_fixed_point(g, mask):
    """Reachability of every member of ``mask`` from the source inside the
    induced subgraph, by relaxation to a fixed point."""
    if not (mask >> g.source) & 1:
        return False
    have = 1 << g.source
    changed = True
    while changed:
        changed = False
        for a, b in g.edges:
            abit, bbit = 1 << a, 1 << b
            if have & abit and mask & bbit and not have & bbit:
                have |= bbit
                changed = True
    return have == mask


def reachable_sets(g):
    """Every proper reachable node set, ascending, by testing every mask."""
    return [mask for mask in range(1 << g.n)
            if mask != g.full_mask and reachable_fixed_point(g, mask)]


def brute_cut_value(g, cut):
    return sum(1 for a, b in g.edges
               if (cut >> a) & 1 and not (cut >> b) & 1)


def brute_st_cut(g, s, t, allowed=None):
    """Minimum count of edges (of ``allowed`` ids, default all) leaving a
    node set that holds s but not t, over every such set."""
    ids = range(g.m) if allowed is None else [e for e in allowed if 0 <= e < g.m]
    pairs = [g.edges[e] for e in ids]
    return min(sum(1 for a, b in pairs if (mask >> a) & 1 and not (mask >> b) & 1)
               for mask in range(1 << g.n)
               if (mask >> s) & 1 and not (mask >> t) & 1)


def brute_min_cut(g):
    """Minimum out-edge count over every source-containing proper subset."""
    best = None
    for mask in range(1 << g.n):
        if not (mask >> g.source) & 1 or mask == g.full_mask:
            continue
        val = brute_cut_value(g, mask)
        if best is None or val < best:
            best = val
    return best


def all_simple_paths(g, s, t):
    """Every simple s->t path as a frozenset of edge ids."""
    paths = []

    def walk(node, visited, used):
        if node == t:
            paths.append(frozenset(used))
            return
        for eid, (tail, nxt) in enumerate(g.edges):
            if tail == node and nxt not in visited:
                walk(nxt, visited | {nxt}, used + [eid])

    walk(s, {s}, [])
    return paths


def max_disjoint_paths(g, s, t):
    """Largest set of pairwise edge-disjoint simple s->t paths, exhaustively."""
    paths = all_simple_paths(g, s, t)

    def best(idx, used):
        if idx == len(paths):
            return 0
        skip = best(idx + 1, used)
        if not paths[idx] & used:
            return max(skip, 1 + best(idx + 1, used | paths[idx]))
        return skip

    return best(0, frozenset())


def independent_arborescence_check(g, edge_ids):
    """Spanning-tree check by walking each node's unique parent chain back to
    the source."""
    ids = list(edge_ids)
    if len(ids) != g.n - 1:
        return False
    parent = {}
    for eid in ids:
        a, b = g.edges[eid]
        if b in parent or b == g.source:
            return False
        parent[b] = a
    for v in range(g.n):
        if v == g.source:
            continue
        seen = set()
        node = v
        while node != g.source:
            if node in seen or node not in parent:
                return False
            seen.add(node)
            node = parent[node]
    return True


def sequence_from_arborescence(g, tree):
    """The tree's canonical growth sequence of (node set, edge id) steps, by
    rescanning: from the source singleton, each step crosses the lowest-id
    tree edge whose tail is covered and head is not. Raises ValueError when
    the edges are not a source-rooted arborescence. ``tree_packing`` gives
    every tree's edges in this order."""
    fset = g.source_mask
    seq = []
    remaining = sorted(tree.edge_ids)
    while remaining:
        for pos, eid in enumerate(remaining):
            a, b = g.edges[eid]
            if (fset >> a) & 1 and not (fset >> b) & 1:
                seq.append((fset, eid))
                fset |= 1 << b
                del remaining[pos]
                break
        else:
            raise ValueError("edge set is not a source-rooted arborescence")
    return tuple(seq)


def all_growth_sequences(g):
    """Every growth sequence of the graph (exponential; tiny graphs only)."""
    full = g.full_mask
    out = []

    def grow(fset, seq):
        if fset == full:
            out.append(tuple(seq))
            return
        for eid, (a, b) in enumerate(g.edges):
            if (fset >> a) & 1 and not (fset >> b) & 1:
                grow(fset | (1 << b), seq + [(fset, eid)])

    grow(g.source_mask, [])
    return out


def validate_reachable_sequence(g, seq):
    """Check the growth-sequence contract: starts at the source singleton,
    adds exactly one new node per step along an out-boundary edge, ends
    covering all nodes."""
    if len(seq) != g.n - 1:
        return False
    expect = g.source_mask
    for fset, eid in seq:
        if fset != expect:
            return False
        a, b = g.edges[eid]
        if not (fset >> a) & 1 or (fset >> b) & 1:
            return False
        expect = fset | (1 << b)
    return expect == g.full_mask


def brute_matchings(g):
    """All edge subsets with pairwise disjoint endpoints (as undirected)."""
    masks = []
    for mask in range(1 << g.m):
        ok = True
        chosen = [g.edges[e] for e in range(g.m) if (mask >> e) & 1]
        for i in range(len(chosen)):
            for j in range(i + 1, len(chosen)):
                if set(chosen[i]) & set(chosen[j]):
                    ok = False
        if ok:
            masks.append(mask)
    return masks


def pairwise_conflicts(g):
    """Primary-interference conflict masks by testing every pair of edges:
    edges conflict when they share an endpoint in either role."""
    m = g.m
    conflict = [0] * m
    for e in range(m):
        ae, be = g.edges[e]
        for f in range(e + 1, m):
            af, bf = g.edges[f]
            if len({ae, be, af, bf}) < 4:
                conflict[e] |= 1 << f
                conflict[f] |= 1 << e
    return conflict


def slotted_capacity_lp(g, fam):
    """Exact slotted broadcast capacity: the largest lam such that some convex
    combination x of the family's members gives edge rates that carry lam
    units of flow from the source to every sink, one flow per sink sharing
    those rates (by Edmonds' branching theorem, the broadcast capacity of the
    averaged graph). One LP, solved by scipy's HiGHS; scipy is a test-only
    dependency, imported here so the other oracles do without it.

    Variables: the member weights x, lam, then f[t][e] per sink and edge.
    """
    from scipy.optimize import linprog

    members, m = len(fam.masks), g.m
    sinks = [t for t in range(g.n) if t != g.source]
    lam_var = members
    size = members + 1 + len(sinks) * m

    def flow(k, e):
        return members + 1 + k * m + e

    a_ub, b_ub = [], []
    for k in range(len(sinks)):
        for e in range(m):  # f[t][e] <= sum of x over the members holding e
            row = [0.0] * size
            row[flow(k, e)] = 1.0
            for i, mask in enumerate(fam.masks):
                if (mask >> e) & 1:
                    row[i] = -1.0
            a_ub.append(row)
            b_ub.append(0.0)
    a_eq = [[1.0] * members + [0.0] * (size - members)]
    b_eq = [1.0]
    for k, t in enumerate(sinks):
        for v in range(g.n):  # out - in = lam at the source, -lam at t
            row = [0.0] * size
            for e, (a, b) in enumerate(g.edges):
                if a == v:
                    row[flow(k, e)] += 1.0
                if b == v:
                    row[flow(k, e)] -= 1.0
            row[lam_var] = -1.0 if v == g.source else 1.0 if v == t else 0.0
            a_eq.append(row)
            b_eq.append(0.0)
    cost = [0.0] * size
    cost[lam_var] = -1.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq,
                  b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"capacity LP failed: {res.message}")
    return -res.fun


def count_exactly_at(state, gset):
    """Packets of a MultiClassState replicated at exactly the node set
    ``gset``, computed set by set from the in-order indices: per class, the
    positive part of (lowest index inside the set minus highest index outside
    it). For the full node set this counts packets delivered everywhere."""
    if gset == 0:
        raise ValueError("empty node set")
    n = state.graph.n
    total = 0
    for row in state.highest:
        lo = min(row[v] for v in range(n) if (gset >> v) & 1)
        hi = max((row[v] for v in range(n) if not (gset >> v) & 1), default=0)
        if lo > hi:
            total += lo - hi
    return total


def packet_set(state, c, p):
    """Bitmask of the nodes of a MultiClassState holding packet ``p`` of
    class ``c``, read off the in-order indices."""
    mask = 0
    for v, r in enumerate(state.highest[c]):
        if r >= p:
            mask |= 1 << v
    return mask


class PacketLedger:
    """Shadow bookkeeping: the exact replication set of every packet, updated
    from the decisions alone."""

    def __init__(self, g):
        self.g = g
        self.sets: dict[tuple[int, int], int] = {}

    def admit(self, c, index):
        self.sets[(c, index)] = self.g.source_mask

    def move(self, c, index, node):
        self.sets[(c, index)] |= 1 << node

    def histogram(self):
        """Counts of in-flight replication sets (full-set packets excluded)."""
        full = self.g.full_mask
        return Counter(m for m in self.sets.values() if m != full)

    def delivered(self):
        full = self.g.full_mask
        return sum(1 for m in self.sets.values() if m == full)

    def in_flight(self, c):
        """Class ``c``'s replication sets short of the full set, by index."""
        full = self.g.full_mask
        return [m for (cc, _), m in sorted(self.sets.items())
                if cc == c and m != full]


def edge_subgraph(g, ids):
    """The ``Digraph`` of ``g``'s nodes and source and of the edges whose ids
    are in ``ids``, in ascending id order."""
    return Digraph(g.n, [g.edges[eid] for eid in sorted(ids)], g.source)


def rescanning_tree_packing(g):
    """Greedy arborescence packing where each candidate edge is checked by a
    fresh max-flow to every sink over the remaining edges without it (a
    ``Digraph`` of those edges alone)."""
    avail = set(range(g.m))
    sinks = [t for t in range(g.n) if t != g.source]
    trees = []
    for residual in range(broadcast_capacity(g) - 1, -1, -1):
        rest = set(avail)
        tree = []
        mask = g.source_mask
        while mask != g.full_mask:
            for eid in sorted(rest):
                a, b = g.edges[eid]
                if (mask >> a) & 1 and not (mask >> b) & 1 and (
                        residual == 0 or all(
                            max_flow(edge_subgraph(g, rest - {eid}), g.source, t,
                                     at_least=residual) >= residual
                            for t in sinks)):
                    break
            else:
                raise RuntimeError("arborescence extraction failed")
            tree.append(eid)
            rest.discard(eid)
            mask |= 1 << b
        trees.append(Arborescence(tuple(tree)))
        avail.difference_update(tree)
    return trees


def rescanning_sample_sequences(g, count, rng):
    """Growth-sequence sampler that recomputes the out-boundary from every
    edge on each step: a list of ``(node set, edge id)`` tuples per
    sequence. Its draw rule, in Python ints: step t of sequence s reads word
    ``s * (n - 1) + t`` of one block of 32-bit words, and a boundary of k
    edges takes its ``w * k >> 32``-th edge, unless ``w * k % 2**32`` is
    below ``(2**32 - k) % k``, when the step redraws: the redrawing
    sequences take one fresh word each, in sequence order, round after
    round, before the next step. An empty boundary raises before the step's
    redraws."""
    steps = g.n - 1
    block = rng.integers(0, 1 << 32, size=count * steps, dtype=np.uint32).tolist()
    fsets = [g.source_mask] * count
    seqs = [[] for _ in range(count)]
    for t in range(steps):
        boundaries = [out_edges(g, fset) for fset in fsets]
        if not all(boundaries):
            raise ValueError("a node is unreachable from the source")
        ks = [len(boundary) for boundary in boundaries]
        cuts = [((1 << 32) - k) % k for k in ks]
        products = [block[s * steps + t] * k for s, k in enumerate(ks)]
        redraw = [s for s in range(count) if products[s] % (1 << 32) < cuts[s]]
        while redraw:
            fresh = rng.integers(0, 1 << 32, size=len(redraw), dtype=np.uint32)
            for s, word in zip(redraw, fresh.tolist()):
                products[s] = word * ks[s]
            redraw = [s for s in redraw if products[s] % (1 << 32) < cuts[s]]
        for s, boundary in enumerate(boundaries):
            eid = boundary[products[s] >> 32]
            seqs[s].append((fsets[s], eid))
            fsets[s] |= 1 << g.edges[eid][1]
    return [tuple(seq) for seq in seqs]


def sequence_rows(sample):
    """``sample_reachable_sequences``' ``(sets, eids)`` arrays as the
    rescanning sampler's tuples."""
    sets, eids = sample
    return [tuple(zip(row_sets, row_eids))
            for row_sets, row_eids in zip(sets.tolist(), eids.tolist())]


def exact_randomized_table(g, trees, extra_sequences, eps):
    """The randomized table as one exact ``{node set: Fraction}`` dict per
    edge: position j (1-based) of each tree's canonical growth sequence adds
    1 - eps*(n-j)/n to its (set, edge) pair, and position j of each of the
    B' extra sequences (``sequence_rows``' tuples) adds eps*j/(2*n^2*B'),
    with ``eps`` taken exactly. Raises ValueError on a negative tree
    probability or a per-edge total above 1."""
    n = g.n
    eps = Fraction(eps)
    table = [{} for _ in range(g.m)]
    weighted = []
    for tree in trees:
        for j, pair in enumerate(sequence_from_arborescence(g, tree), start=1):
            p = 1 - eps * (n - j) / n
            if p < 0:
                raise ValueError(f"negative tree probability at position {j}")
            weighted.append((pair, p))
    for seq in extra_sequences:
        for j, pair in enumerate(seq, start=1):
            weighted.append((pair, eps * j / (2 * n * n * len(extra_sequences))))
    for (fset, eid), p in weighted:
        table[eid][fset] = table[eid].get(fset, 0) + p
    for eid, entry in enumerate(table):
        if sum(entry.values()) > 1:
            raise ValueError(f"edge {eid} carries total probability above 1")
    return table


def table_from_entries(entries, g):
    """The ``RandomizedTable`` of graph ``g`` whose ``entries`` are
    ``entries``: per edge, a sequence of (node-set mask, probability) pairs."""
    sizes = np.array([len(entry) for entry in entries], dtype=np.int64)
    count = int(sizes.sum())
    fsets = np.fromiter((fset for entry in entries for fset, _ in entry),
                        dtype=np.int64, count=count)
    probs = np.fromiter((p for entry in entries for _, p in entry),
                        dtype=np.float64, count=count)
    heads = np.array([b for _, b in g.edges], dtype=np.int64)
    return RandomizedTable(fsets, probs, sizes, heads)


def dict_randomized_table(g, trees, extra_sequences, eps):
    """The randomized table built one (set, edge) pair at a time into a
    float dict per edge: the tree pairs, tree by tree, then the extra
    sequences (``sequence_rows``' tuples) row by row, each sum
    starting from 0.0; each edge's total is Python's ``sum`` of its dict.
    Raises ConstructionError where the engine must."""
    if not eps > 0:
        raise ConstructionError("rate margin eps must be positive")
    n = g.n
    acc = [{} for _ in range(g.m)]
    for tree in trees:
        for j, (fset, eid) in enumerate(sequence_from_arborescence(g, tree), start=1):
            p = 1.0 - eps * (n - j) / n
            if p < 0:
                raise ConstructionError(
                    f"eps={eps} makes the tree allocation negative at step {j}")
            acc[eid][fset] = acc[eid].get(fset, 0.0) + p
    for seq in extra_sequences:
        for j, (fset, eid) in enumerate(seq, start=1):
            p = eps * j / (2 * n * n * len(extra_sequences))
            acc[eid][fset] = acc[eid].get(fset, 0.0) + p
    for eid in range(g.m):
        total = sum(acc[eid].values())
        if total > 1.0 + 1e-9:
            raise ConstructionError(
                f"edge {eid} carries total probability {total:.6f} > 1")
    return table_from_entries([sorted(entry.items()) for entry in acc], g)


def linear_cdf_decide(table, state, eid, rng):
    """Randomized decide by walking the edge's entry and summing its
    probabilities until the sum exceeds one uniform draw."""
    entry = table.entries[eid]
    if not entry:
        return None
    u = float(rng.random())
    acc = 0.0
    for fset, p in entry:
        acc += p
        if u < acc:
            return fset if state.counts.get(fset, 0) > 0 else None
    return None


def scanning_choose_activation(weights, fam):
    """Member of the family with the largest total weight; negative weights
    are floored at zero, so idling an activated edge is never penalized. Ties
    keep the earliest member in family order."""
    best_mask = 0
    best_total = None
    for mask in fam.masks:
        total = 0
        mm = mask
        while mm:
            low = mm & -mm
            w = weights[low.bit_length() - 1]
            if w > 0:
                total += w
            mm ^= low
        if best_total is None or total > best_total:
            best_total = total
            best_mask = mask
    return best_mask


def rebuilding_multiclass_best(state, eid):
    """Best (class, differential) among the eligible head-of-line packets,
    ties to the lowest class, with each head-of-line set rebuilt from the
    index matrix by a pass over the nodes."""
    g = state.graph
    i, j = g.edges[eid]
    jbit = 1 << j
    full = g.full_mask
    counts = state.counts
    src = g.source
    best = None
    best_w = None
    for c, row in enumerate(state.highest):
        p = row[j] + 1
        if p > row[src] or row[i] < p:
            continue
        fset = 0
        for v in range(g.n):
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


def scanning_tree_class(state, trees, eid):
    """The static-tree move over the edge: the class ``c`` whose tree
    ``trees[c]`` holds the edge, found by a scan of the trees, when its next
    in-order packet for the head has arrived and is at the tail; else
    None."""
    g = state.graph
    i, j = g.edges[eid]
    for c, tree in enumerate(trees):
        if eid in tree.edge_ids:
            row = state.highest[c]
            return c if row[j] < row[g.source] and row[i] > row[j] else None
    return None


def ranking_best_transition(state, eid):
    """Best (node set, backlog differential) for the active edge, or None when
    no nonempty queue has the edge on its out-boundary.

    Ranks every candidate, non-positive differentials included, by
    differential, then by smaller set, then by smaller bitmask.
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


def assign_class(rng, k):
    """Uniform class label for an arriving packet by one scalar draw; the
    engine draws the same labels from the class stream in blocks."""
    if k < 1:
        raise ValueError("need at least one class")
    return int(rng.integers(k))


def admit_class(state, c):
    """Admit one packet of class ``c`` to an in-order state, through its
    ``admit`` with a one-label stream."""
    state.labels = iter((c,))
    state.admit(1)


def _streams(config):
    """The run's four generators: arrivals, active edges, class labels,
    policy."""
    return [np.random.default_rng(seq)
            for seq in np.random.SeedSequence(config.seed).spawn(4)]


class _CountQueues:
    """Virtual queues as a plain count dict: packets per exact replication
    set short of the full set, plus admitted and delivered totals."""

    def __init__(self, g):
        self.graph = g
        self.counts = {}
        self.admitted = self.delivered = 0

    def admit(self, a):
        self.admitted += a
        if a:
            src = self.graph.source_mask
            self.counts[src] = self.counts.get(src, 0) + a

    def forward(self, fset, eid):
        counts = self.counts
        counts[fset] -= 1
        if not counts[fset]:
            del counts[fset]
        nxt = fset | 1 << self.graph.edges[eid][1]
        if nxt == self.graph.full_mask:
            self.delivered += 1
        else:
            counts[nxt] = counts.get(nxt, 0) + 1

    def sample(self):
        """(admitted, delivered, backlog, received per node)."""
        received = tuple(
            self.delivered + sum(q for fset, q in self.counts.items() if fset >> v & 1)
            for v in range(self.graph.n))
        return self.admitted, self.delivered, sum(self.counts.values()), received


class _LedgerQueues:
    """In-order classes kept in a ``PacketLedger``: each arrival takes one
    scalar label, the index matrix is read off the ledger, and a plain count
    dict beside it counts the in-flight sets for the weights."""

    def __init__(self, g, k, cls_rng):
        self.graph = g
        self.cls_rng = cls_rng
        self.ledger = PacketLedger(g)
        self.arrived = [0] * k
        self.done = [0] * k  # leading packets of each class held everywhere
        self.counts = {}
        self._view = None

    def admit(self, a):
        src = self.graph.source_mask
        for _ in range(a):
            c = assign_class(self.cls_rng, len(self.arrived))
            self.arrived[c] += 1
            self.ledger.admit(c, self.arrived[c])
            self.counts[src] = self.counts.get(src, 0) + 1
        if a:
            self._view = None

    def view(self):
        """The state as the multiclass rules read it: ``highest[c][v]`` is
        the longest run of class-``c`` packets from index 1 that node ``v``
        holds, and ``counts`` counts the in-flight sets."""
        if self._view is None:
            sets = self.ledger.sets
            highest = []
            for c in range(len(self.arrived)):
                row = []
                for v in range(self.graph.n):
                    p = self.done[c]
                    while p < self.arrived[c] and sets[(c, p + 1)] >> v & 1:
                        p += 1
                    row.append(p)
                highest.append(row)
            self._view = SimpleNamespace(graph=self.graph, highest=highest,
                                         counts=self.counts)
        return self._view

    def forward(self, c, eid):
        """Move class ``c``'s next in-order packet for the edge's head."""
        g = self.graph
        j = g.edges[eid][1]
        p = self.view().highest[c][j] + 1
        old = self.ledger.sets[(c, p)]
        self.ledger.move(c, p, j)
        self.counts[old] -= 1
        if not self.counts[old]:
            del self.counts[old]
        nxt = old | 1 << j
        if nxt != g.full_mask:
            self.counts[nxt] = self.counts.get(nxt, 0) + 1
        while (self.done[c] < self.arrived[c]
               and self.ledger.sets[(c, self.done[c] + 1)] == g.full_mask):
            self.done[c] += 1
        self._view = None

    def sample(self):
        """(admitted, delivered, backlog, received per node)."""
        sets = self.ledger.sets.values()
        received = tuple(sum(1 for m in sets if m >> v & 1)
                         for v in range(self.graph.n))
        return (len(self.ledger.sets), self.ledger.delivered(),
                sum(self.ledger.histogram().values()), received)


def _replay(config, g, fam, queues, move, weight=None):
    """Drive a run by the documented loop protocol with scalar draws:
    ``(run_csv, received_csv, rate)``.

    Every event draws one scalar Poisson arrival count from the arrival
    stream and admits it (``queues.admit``). A mini-slot slot is ``m`` events
    at rate lam/m, each then drawing one scalar uniform active edge from the
    activation stream and calling ``move`` on it. A slotted slot is one event
    at rate lam: admit, ``weight`` every edge on the state after admission,
    activate the heaviest member of ``fam``, then ``move`` over its edges in
    ascending id order, each on the state its predecessors left. The state
    is sampled at slot 0, every ``sample_every`` slots and at the horizon;
    the rate is the slope of the minimum received count from the last sample
    at or before the burn-in (a tenth of the horizon unless set).
    """
    arr_rng, act_rng, _, _ = _streams(config)
    rows = []

    def sample(slot):
        admitted, delivered, backlog, received = queues.sample()
        rows.append((slot, admitted, delivered, min(received), backlog, received))

    mini_slot = config.time_model == "mini-slot"
    per_slot = g.m if mini_slot else 1
    sample(0)
    for slot in range(1, config.horizon + 1):
        for _ in range(per_slot):
            queues.admit(int(arr_rng.poisson(config.lam / per_slot)))
            if mini_slot:
                move(int(act_rng.integers(0, g.m)))
            else:
                weights = [weight(eid) for eid in range(g.m)]
                chosen = scanning_choose_activation(weights, fam)
                for eid in range(g.m):
                    if chosen >> eid & 1:
                        move(eid)
        if slot % config.sample_every == 0 or slot == config.horizon:
            sample(slot)

    run_lines = ["slot,admitted,delivered,min_received,backlog"]
    run_lines += [",".join(map(str, row[:5])) for row in rows]
    recv_lines = ["slot," + ",".join(f"recv_{v}" for v in range(g.n))]
    recv_lines += [",".join(map(str, (row[0], *row[5]))) for row in rows]
    burn_in = config.burn_in if config.burn_in is not None else config.horizon // 10
    base = [row for row in rows if row[0] <= burn_in][-1]
    last = rows[-1]
    rate = (last[3] - base[3]) / (last[0] - base[0])
    return "\n".join(run_lines) + "\n", "\n".join(recv_lines) + "\n", rate


def replay_max_weight(config, g, fam=None):
    """A max-weight run replayed with a plain count dict and
    ``ranking_best_transition``: ``(run_csv, received_csv, rate)``.

    Max-weight reads only the arrival and active-edge streams. An event moves
    the best transition over its edge when that differential is positive; a
    slotted edge weighs the best differential, floored at 0.
    """
    queues = _CountQueues(g)

    def move(eid):
        best = ranking_best_transition(queues, eid)
        if best is not None and best[1] > 0:
            queues.forward(best[0], eid)

    def weight(eid):
        best = ranking_best_transition(queues, eid)
        return max(best[1], 0) if best is not None else 0

    return _replay(config, g, fam, queues, move, weight)


def replay_randomized(config, g):
    """A mini-slot randomized run replayed with a plain count dict and
    scalar draws: ``(run_csv, received_csv, rate, table_csv)``.

    Set-up packs the trees and samples the extra sequences from the policy
    stream with the rescanning oracles, then builds the table one pair at a
    time (``dict_randomized_table``). Each event
    whose edge has a non-empty entry then takes one scalar uniform from the
    policy stream through ``linear_cdf_decide``.
    """
    pol_rng = _streams(config)[3]
    trees = rescanning_tree_packing(g)
    eps = config.eps if config.eps is not None else default_eps(len(trees), config.lam, g.n)
    bprime = config.extra_sequences if config.extra_sequences is not None else 4 * g.m
    extra = rescanning_sample_sequences(g, bprime, pol_rng)
    table = dict_randomized_table(g, trees, extra, eps)
    queues = _CountQueues(g)

    def move(eid):
        fset = linear_cdf_decide(table, queues, eid, pol_rng)
        if fset is not None:
            queues.forward(fset, eid)

    table_csv = "\n".join(table.csv_rows()) + "\n"
    return (*_replay(config, g, None, queues, move), table_csv)


def replay_in_order(config, g, fam=None):
    """A multiclass or static-tree run replayed packet by packet in a
    ``PacketLedger``: ``(run_csv, received_csv, rate)``.

    Each admitted packet takes one scalar label from the class stream, in
    arrival order. Multiclass moves the class ``rebuilding_multiclass_best``
    picks when its differential is positive (a slotted edge weighs that
    differential, floored at 0); static-tree binds class ``c`` to the
    ``c``-th packed tree and moves the edge's owner whenever its next
    in-order packet for the head is at the tail.
    """
    cls_rng = _streams(config)[2]
    static = config.policy == "static-tree"
    trees = rescanning_tree_packing(g) if static else None
    queues = _LedgerQueues(g, len(trees) if static else config.classes, cls_rng)

    def multiclass_move(eid):
        best = rebuilding_multiclass_best(queues.view(), eid)
        if best is not None and best[1] > 0:
            queues.forward(best[0], eid)

    def static_tree_move(eid):
        c = scanning_tree_class(queues.view(), trees, eid)
        if c is not None:
            queues.forward(c, eid)

    def weight(eid):
        best = rebuilding_multiclass_best(queues.view(), eid)
        return max(best[1], 0) if best is not None else 0

    move = static_tree_move if static else multiclass_move
    return _replay(config, g, fam, queues, move, weight)
