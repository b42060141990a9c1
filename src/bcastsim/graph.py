"""Directed graphs, flows, arborescence packing and growth sequences.

Node subsets are plain integer bitmasks (bit ``i`` set means node ``i`` is in
the set). An edge's id is its position in the edge list, and every
deterministic tie-break in the package uses ascending edge id.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import ParseError

# Largest node count of any graph: set-up runs one max-flow per sink.
MAX_NODES = 1000


class Digraph:
    """Simple digraph with unit-capacity edges and a designated source node.

    ``edges`` is an ordered tuple of (tail, head) pairs; node indices run in
    ``[0, n)``. Self-loops and repeated directed edges are rejected.
    ``full_mask`` and ``source_mask`` are the node-set bitmasks of every node
    and of the source alone. Instances are never mutated after construction
    and are safe to share.
    """

    __slots__ = ("n", "edges", "source", "full_mask", "source_mask")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], source: int):
        if n < 1:
            raise ValueError("node count must be positive")
        if n > MAX_NODES:  # before reading edges, which may be a generator
            raise ValueError(f"node count must be at most {MAX_NODES}, got {n}")
        edges = tuple((int(a), int(b)) for a, b in edges)
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
        self.full_mask = (1 << n) - 1
        self.source_mask = 1 << source

    @property
    def m(self) -> int:
        return len(self.edges)

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
    try:
        Digraph(n, (), r)
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from None
    if m < 0:
        raise ParseError(f"line {lineno}: negative edge count")
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


def max_flow(g: Digraph, s: int, t: int, allowed: Iterable[int] | None = None,
             at_least: int | None = None, used: set[int] | None = None) -> int:
    """Maximum s->t flow with unit edge capacities (shortest augmenting paths).

    ``allowed`` restricts the usable edge ids; ``at_least`` stops augmenting
    once that flow value is reached, so the return value is capped at it.
    When ``used`` is given, the ids of the edges carrying the returned flow
    are added to it.
    """
    if s == t:
        raise ValueError("source and sink coincide")
    head: list[int] = []
    cap: list[int] = []
    arc_edge: list[int] = []
    adj: list[list[int]] = [[] for _ in range(g.n)]
    use = None if allowed is None else set(allowed)
    for eid, (a, b) in enumerate(g.edges):
        if use is not None and eid not in use:
            continue
        arc_edge.append(eid)
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
    if used is not None:
        used.update(eid for i, eid in enumerate(arc_edge) if cap[2 * i] == 0)
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


def out_edges(g: Digraph, fset: int) -> list[int]:
    """Edge ids crossing out of the node set, ascending."""
    return [eid for eid, (a, b) in enumerate(g.edges)
            if (fset >> a) & 1 and not (fset >> b) & 1]


@dataclass(frozen=True)
class Arborescence:
    """Source-rooted directed spanning tree, stored as edge ids."""

    edge_ids: tuple[int, ...]

    @cached_property
    def edge_set(self) -> frozenset[int]:
        return frozenset(self.edge_ids)


def reaches_all(n: int, source: int, edges: Iterable[tuple[int, int]]) -> bool:
    """Whether every node in ``range(n)`` is reachable from ``source`` over
    the (tail, head) pairs in ``edges``."""
    children: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        children[a].append(b)
    seen = {source}
    stack = [source]
    while stack:
        for v in children[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def is_arborescence(g: Digraph, edge_ids: Iterable[int]) -> bool:
    """Exactly n-1 edges, all nodes reached from the source using only these
    edges. Reaching each other node takes an edge into it, so with n-1 edges
    every other node has in-degree 1 and the source 0."""
    pairs = [g.edges[eid] for eid in edge_ids]
    return len(pairs) == g.n - 1 and reaches_all(g.n, g.source, pairs)


def tree_packing(g: Digraph) -> list[Arborescence]:
    """Pack edge-disjoint source-rooted spanning arborescences, one per unit
    of broadcast capacity.

    Extracts trees one at a time. A tree is grown from the source by the
    lowest-id boundary edge whose removal, together with the partial tree,
    still leaves enough flow from the source to every node for the trees yet
    to be extracted. Lovász's constructive proof of Edmonds' branching theorem
    shows that such an edge always exists, so the growth never backtracks.
    """
    avail = set(range(g.m))
    trees = []
    for residual in range(broadcast_capacity(g) - 1, -1, -1):
        tree = _extract_arborescence(g, avail, residual)
        trees.append(Arborescence(tuple(tree)))
        avail.difference_update(tree)
    return trees


def _extract_arborescence(g: Digraph, avail: set[int], residual: int) -> list[int]:
    sinks = [t for t in range(g.n) if t != g.source]
    rest = set(avail)
    # witness[t]: the edges of one flow of value ``residual`` from the source
    # to t inside ``rest`` (None until first needed). Dropping an edge off
    # the witness leaves that flow intact, so only sinks whose witness uses
    # the candidate edge need a new max-flow.
    witness: dict[int, set[int] | None] = dict.fromkeys(sinks)

    def safe(eid: int) -> bool:
        if residual == 0:
            return True
        keep = rest - {eid}
        for t in sinks:
            if witness[t] is not None and eid not in witness[t]:
                continue
            used: set[int] = set()
            if max_flow(g, g.source, t, allowed=keep, at_least=residual, used=used) < residual:
                return False
            # A flow inside rest - {eid} is also one inside rest, so it stays
            # t's witness whether or not eid is taken.
            witness[t] = used
        return True

    tree = []
    mask = g.source_mask
    while mask != g.full_mask:
        for eid in sorted(rest):
            a, b = g.edges[eid]
            if (mask >> a) & 1 and not (mask >> b) & 1 and safe(eid):
                break
        else:
            raise RuntimeError("arborescence extraction failed on a feasible graph")
        tree.append(eid)
        rest.discard(eid)
        mask |= 1 << b
    return tree


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
