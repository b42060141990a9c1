"""Independent reference implementations used to pin expected values.

These deliberately avoid the library's algorithms: reachability runs as a
fixed point instead of a search, min cuts and matchings are brute force,
disjoint paths come from exhaustive combination, multiclass set counts are
taken one node set at a time, and the packet ledger tracks every packet's
replication set explicitly.

The last three are the slow forms of paths the library now runs faster:
tree packing that re-runs every sink's max-flow per candidate edge,
sequence sampling that rescans every edge for the out-boundary per step,
and the randomized decide's linear walk of the cumulative distribution.
The fast forms must give the same trees, sequences and decisions.
"""

from collections import Counter

from bcastsim.graph import Arborescence, broadcast_capacity, max_flow, out_edges


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


def rescanning_tree_packing(g):
    """Greedy arborescence packing where each candidate edge is checked by a
    fresh max-flow to every sink over the remaining edges without it."""
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
                            max_flow(g, g.source, t, allowed=rest - {eid},
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
    edge on each step."""
    seqs = []
    for _ in range(count):
        fset = g.source_mask
        seq = []
        while fset != g.full_mask:
            boundary = out_edges(g, fset)
            if not boundary:
                raise ValueError("a node is unreachable from the source")
            eid = boundary[int(rng.integers(len(boundary)))]
            seq.append((fset, eid))
            fset |= 1 << g.edges[eid][1]
        seqs.append(tuple(seq))
    return seqs


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
