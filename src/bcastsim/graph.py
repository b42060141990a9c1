"""Directed graphs, flows, arborescence packing, and replication-set machinery.

Node subsets are plain integer bitmasks (bit ``i`` set means node ``i`` is in
the set). An edge's id is its position in the edge list, and every
deterministic tie-break in the package uses ascending edge id.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import CapabilityError, ParseError

# Proper-subset enumeration is exponential in n; refuse beyond this width.
SUBSET_ENUM_NODE_LIMIT = 25


def mask_from_nodes(nodes: Iterable[int]) -> int:
    mask = 0
    for v in nodes:
        mask |= 1 << v
    return mask


class Digraph:
    """Simple digraph with unit-capacity edges and a designated source node.

    ``edges`` is an ordered tuple of (tail, head) pairs; node indices run in
    ``[0, n)``. Self-loops and repeated directed edges are rejected.
    Instances are never mutated after construction and are safe to share.
    """

    __slots__ = ("n", "edges", "source", "out_adj", "in_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], source: int):
        edges = tuple((int(a), int(b)) for a, b in edges)
        if n < 1:
            raise ValueError("node count must be positive")
        if not 0 <= source < n:
            raise ValueError(f"source {source} out of range for n={n}")
        seen = set()
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) out of range for n={n}")
            if a == b:
                raise ValueError(f"self-loop at node {a}")
            if (a, b) in seen:
                raise ValueError(f"duplicate edge ({a},{b})")
            seen.add((a, b))
        self.n = n
        self.edges = edges
        self.source = source
        out_adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        in_adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for eid, (a, b) in enumerate(edges):
            out_adj[a].append((eid, b))
            in_adj[b].append((eid, a))
        self.out_adj = out_adj
        self.in_adj = in_adj

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def source_mask(self) -> int:
        return 1 << self.source

    def __repr__(self):
        return f"Digraph(n={self.n}, m={self.m}, source={self.source})"


def parse_graph(text: str) -> Digraph:
    """Parse an edge-list document: header ``n m r`` then ``m`` lines ``u v``.

    Blank lines and lines starting with ``#`` are ignored. Raises ParseError
    naming the offending line number.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, line))
    if not rows:
        raise ParseError("empty graph document")
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 3:
        raise ParseError(f"line {lineno}: expected header 'n m r'")
    try:
        n, m, r = (int(p) for p in parts)
    except ValueError:
        raise ParseError(f"line {lineno}: non-integer header field") from None
    if n < 1:
        raise ParseError(f"line {lineno}: node count must be positive")
    if m < 0:
        raise ParseError(f"line {lineno}: negative edge count")
    if not 0 <= r < n:
        raise ParseError(f"line {lineno}: source {r} out of range")
    if len(rows) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges: list[tuple[int, int]] = []
    seen = set()
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer endpoint") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {lineno}: node index out of range")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop")
        if (u, v) in seen:
            raise ParseError(f"line {lineno}: duplicate edge ({u},{v})")
        seen.add((u, v))
        edges.append((u, v))
    return Digraph(n, edges, r)


def format_graph(g: Digraph) -> str:
    """Inverse of parse_graph (modulo comments and blank lines)."""
    lines = [f"{g.n} {g.m} {g.source}"]
    lines.extend(f"{a} {b}" for a, b in g.edges)
    return "\n".join(lines) + "\n"


def max_flow(g: Digraph, s: int, t: int, allowed: Iterable[int] | None = None,
             at_least: int | None = None) -> int:
    """Maximum s->t flow with unit edge capacities (shortest augmenting paths).

    ``allowed`` restricts the usable edge ids; ``at_least`` stops augmenting
    once that flow value is reached, so the return value is capped at it.
    """
    if s == t:
        raise ValueError("source and sink coincide")
    head: list[int] = []
    cap: list[int] = []
    adj: list[list[int]] = [[] for _ in range(g.n)]
    use = None if allowed is None else set(allowed)
    for eid, (a, b) in enumerate(g.edges):
        if use is not None and eid not in use:
            continue
        adj[a].append(len(cap))
        head.append(b)
        cap.append(1)
        adj[b].append(len(cap))
        head.append(a)
        cap.append(0)
    flow = 0
    while at_least is None or flow < at_least:
        parent = [-1] * g.n
        parent[s] = -2
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if u == t:
                break
            for arc in adj[u]:
                v = head[arc]
                if cap[arc] > 0 and parent[v] == -1:
                    parent[v] = arc
                    queue.append(v)
        if parent[t] == -1:
            break
        v = t
        while v != s:
            arc = parent[v]
            cap[arc] -= 1
            cap[arc ^ 1] += 1
            v = head[arc ^ 1]
        flow += 1
    return flow


def capacity_bottleneck(g: Digraph) -> tuple[int, int]:
    """Broadcast capacity and one bottleneck sink attaining it.

    The capacity is the minimum over non-source nodes t of the max-flow from
    the source to t; ties resolve to the lowest-index sink.
    """
    if g.n < 2:
        raise ValueError("need at least two nodes")
    best_val: int | None = None
    best_sink = -1
    for t in range(g.n):
        if t == g.source:
            continue
        val = max_flow(g, g.source, t, at_least=best_val)
        if best_val is None or val < best_val:
            best_val, best_sink = val, t
            if best_val == 0:
                break
    return best_val, best_sink


def broadcast_capacity(g: Digraph) -> int:
    return capacity_bottleneck(g)[0]


def cut_capacity(g: Digraph, cut: int) -> int:
    """Number of edges leaving the node set ``cut`` (a bitmask containing the
    source; must be a proper subset of the nodes)."""
    full = g.full_mask
    if cut & ~full:
        raise ValueError("cut contains nodes outside the graph")
    if not (cut >> g.source) & 1:
        raise ValueError("cut must contain the source")
    if cut == full:
        raise ValueError("cut must be a proper subset of the nodes")
    count = 0
    for a, b in g.edges:
        if (cut >> a) & 1 and not (cut >> b) & 1:
            count += 1
    return count


def out_edges(g: Digraph, fset: int) -> list[int]:
    """Edge ids crossing out of the node set, ascending."""
    return [eid for eid, (a, b) in enumerate(g.edges)
            if (fset >> a) & 1 and not (fset >> b) & 1]


def in_edges(g: Digraph, fset: int) -> list[int]:
    """Edge ids with both endpoints inside the node set, ascending."""
    return [eid for eid, (a, b) in enumerate(g.edges)
            if (fset >> a) & 1 and (fset >> b) & 1]


def set_plus_edge(g: Digraph, fset: int, eid: int) -> int:
    """The node set grown by the head of boundary edge ``eid``."""
    a, b = g.edges[eid]
    if not (fset >> a) & 1 or (fset >> b) & 1:
        raise ValueError(f"edge {eid} is not on the out-boundary of the set")
    return fset | (1 << b)


def is_reachable_set(g: Digraph, fset: int) -> bool:
    """True when the set contains the source and its induced subgraph reaches
    every member from the source."""
    if not (fset >> g.source) & 1:
        return False
    if fset & ~g.full_mask:
        return False
    seen = g.source_mask
    stack = [g.source]
    while stack:
        u = stack.pop()
        for _, v in g.out_adj[u]:
            vbit = 1 << v
            if fset & vbit and not seen & vbit:
                seen |= vbit
                stack.append(v)
    return seen == fset


def enumerate_reachable_sets(g: Digraph) -> Iterator[int]:
    """All proper reachable subsets, in ascending bitmask order."""
    if g.n > SUBSET_ENUM_NODE_LIMIT:
        raise CapabilityError(
            f"subset enumeration capped at n={SUBSET_ENUM_NODE_LIMIT}, got n={g.n}")
    r = g.source
    low = (1 << r) - 1
    full = g.full_mask
    for rest in range(1 << (g.n - 1)):
        mask = ((rest & ~low) << 1) | (rest & low) | (1 << r)
        if mask == full:
            continue
        if is_reachable_set(g, mask):
            yield mask


@dataclass(frozen=True)
class Arborescence:
    """Source-rooted directed spanning tree, stored as edge ids."""

    edge_ids: tuple[int, ...]

    @cached_property
    def edge_set(self) -> frozenset[int]:
        return frozenset(self.edge_ids)


def is_arborescence(g: Digraph, edge_ids: Iterable[int]) -> bool:
    """Exactly n-1 edges, in-degree 1 everywhere but the source, all nodes
    reached from the source using only these edges."""
    ids = list(edge_ids)
    if len(ids) != g.n - 1 or len(set(ids)) != len(ids):
        return False
    indeg = [0] * g.n
    children: list[list[int]] = [[] for _ in range(g.n)]
    for eid in ids:
        a, b = g.edges[eid]
        indeg[b] += 1
        children[a].append(b)
    if indeg[g.source] != 0:
        return False
    if any(indeg[v] != 1 for v in range(g.n) if v != g.source):
        return False
    seen = {g.source}
    stack = [g.source]
    while stack:
        for v in children[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n


def tree_packing(g: Digraph) -> list[Arborescence]:
    """Pack edge-disjoint source-rooted spanning arborescences, one per unit
    of broadcast capacity.

    Extracts trees one at a time. A tree is grown greedily from the source by
    lowest edge id, but an edge is only committed if removing it (and the
    partial tree) still leaves enough residual flow from the source to every
    node for the trees yet to be extracted; the search backtracks otherwise.
    The revalidation makes every greedy step safe, so backtracking is a
    defensive measure rather than the expected path.
    """
    total = broadcast_capacity(g)
    if total == 0:
        return []
    avail = set(range(g.m))
    trees = []
    for residual in range(total - 1, -1, -1):
        tree = _extract_arborescence(g, avail, residual)
        if tree is None:
            raise RuntimeError("arborescence extraction failed on a feasible graph")
        trees.append(Arborescence(tuple(tree)))
        avail.difference_update(tree)
    return trees


def _extract_arborescence(g: Digraph, avail: set[int], residual: int) -> list[int] | None:
    full = g.full_mask
    sinks = [t for t in range(g.n) if t != g.source]

    def safe(chosen: set[int], eid: int) -> bool:
        if residual == 0:
            return True
        keep = avail - chosen - {eid}
        for t in sinks:
            if max_flow(g, g.source, t, allowed=keep, at_least=residual) < residual:
                return False
        return True

    def grow(mask: int, chosen: list[int], chosen_set: set[int]) -> list[int] | None:
        if mask == full:
            return chosen
        for eid in sorted(avail - chosen_set):
            a, b = g.edges[eid]
            if (mask >> a) & 1 and not (mask >> b) & 1 and safe(chosen_set, eid):
                chosen.append(eid)
                chosen_set.add(eid)
                result = grow(mask | (1 << b), chosen, chosen_set)
                if result is not None:
                    return result
                chosen.pop()
                chosen_set.discard(eid)
        return None

    return grow(g.source_mask, [], set())


ReachableSequence = tuple[tuple[int, int], ...]


def sequence_from_arborescence(g: Digraph, tree: Arborescence) -> ReachableSequence:
    """Growth sequence of (node set, edge id) steps covering the tree.

    Starting from the source singleton, repeatedly crosses the lowest-id tree
    edge whose tail is already covered, so the result is deterministic and its
    edges are exactly the tree's.
    """
    fset = g.source_mask
    seq: list[tuple[int, int]] = []
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


def validate_reachable_sequence(g: Digraph, seq: ReachableSequence) -> bool:
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
