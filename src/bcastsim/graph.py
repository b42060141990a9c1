"""Directed graphs, flows and arborescence packing.

Node subsets are plain integer bitmasks (bit ``i`` set means node ``i`` is in
the set). An edge's id is its position in the edge list, and every
deterministic tie-break in the package uses ascending edge id.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import ParseError

# Largest node count of any graph: set-up runs one max-flow per sink, each
# augmenting search costing O(n) operations on n-bit masks.
MAX_NODES = 1000


class Digraph:
    """Simple digraph with unit-capacity edges and a designated source node.

    ``edges`` is an ordered tuple of (tail, head) pairs; node indices run in
    ``[0, n)``. Self-loops and repeated directed edges are rejected, and so
    is a node count, source or endpoint that is not an integer (numpy
    integers are; a float or string is not).
    ``full_mask`` and ``source_mask`` are the node-set bitmasks of every node
    and of the source alone. Instances are never mutated after construction
    and are safe to share.
    """

    __slots__ = ("n", "edges", "source", "full_mask", "source_mask")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], source: int):
        n = _integer(n, "node count")
        source = _integer(source, "source")
        if n < 1:
            raise ValueError("node count must be positive")
        if n > MAX_NODES:
            raise ValueError(f"node count must be at most {MAX_NODES}, got {n}")
        if not 0 <= source < n:
            raise ValueError(f"source {source} out of range for n={n}")
        # Checked as read, so a generator stops at the first bad edge.
        seen: dict[tuple[int, int], None] = {}
        for a, b in edges:
            a, b = _integer(a, "edge endpoint"), _integer(b, "edge endpoint")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) out of range for n={n}")
            if a == b:
                raise ValueError(f"self-loop at node {a}")
            if (a, b) in seen:
                raise ValueError(f"duplicate edge ({a},{b})")
            seen[a, b] = None
        self.n = n
        self.edges = tuple(seen)
        self.source = source
        self.full_mask = (1 << n) - 1
        self.source_mask = 1 << source

    @property
    def m(self) -> int:
        return len(self.edges)

    def __repr__(self):
        return f"Digraph(n={self.n}, m={self.m}, source={self.source})"


def _integer(value, what: str) -> int:
    """``value`` as a Python int, by ``operator.index``; ValueError naming
    it when it is not an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def numbered_lines(text: str) -> Iterator[tuple[int, str]]:
    """``(line number, stripped line)`` of every line that is neither blank
    nor a ``#`` comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_graph(text: str) -> Digraph:
    """Parse an edge-list document: header ``n m r`` then ``m`` lines ``u v``.

    Blank lines and lines starting with ``#`` are ignored. ``Digraph`` checks
    the graph rules; a ParseError about one line names it.
    """
    rows = list(numbered_lines(text))
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
    if m < 0:
        raise ParseError(f"line {lineno}: negative edge count")
    if len(rows) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(rows) - 1}")

    def pairs():
        nonlocal lineno
        for lineno, line in rows[1:]:
            parts = line.split()
            if len(parts) != 2:
                raise ValueError("expected 'u v'")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError("non-integer endpoint") from None
            yield u, v

    # Digraph reads one pair at a time, so lineno is the line it read last.
    try:
        return Digraph(n, pairs(), r)
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from None


def _out_masks(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Per node, the bitmask of the heads of its edges in ``edges``."""
    out = [0] * n
    for a, b in edges:
        out[a] |= 1 << b
    return out


def _residual(base: list[int], flow: set[tuple[int, int]]) -> list[int]:
    """Residual masks of ``flow`` over the edges whose heads ``base``
    holds: each flow edge a->b leaves a's mask and puts a into b's."""
    res = base[:]
    for a, b in flow:
        res[a] &= ~(1 << b)
        res[b] |= 1 << a
    return res


def _augment(base: list[int], res: list[int], flow: set[tuple[int, int]],
             s: int, t: int) -> bool:
    """Push one more unit from s to t along a shortest residual path; False
    when there is none.

    ``base[u]`` holds the heads of u's usable edges and ``flow`` the (tail,
    head) pairs of those carrying one unit. ``res[u]`` holds every v that u
    reaches in the residual graph: over its unused edge u->v, or by
    cancelling the unit on v->u. Crossing u->v cancels that unit when v->u
    carries one and fills u->v otherwise, so no antiparallel pair ever
    carries two units; ``flow`` and ``res`` are updated in place. The search
    expands one node at a time by ``res[u] & ~seen`` and reads the parents
    off the new bits: O(n) operations on n-bit masks per search, whatever
    the edge count.
    """
    parent = [s] * len(res)
    seen = 1 << s
    queue = [s]
    for u in queue:
        new = res[u] & ~seen
        if (new >> t) & 1:
            parent[t] = u
            break
        seen |= new
        while new:
            low = new & -new
            v = low.bit_length() - 1
            parent[v] = u
            queue.append(v)
            new ^= low
    else:
        return False
    v = t
    while v != s:
        u = parent[v]
        if (v, u) in flow:
            flow.remove((v, u))
            res[v] |= 1 << u
            res[u] &= base[u] | ~(1 << v)
        else:
            flow.add((u, v))
            res[u] &= ~(1 << v)
            res[v] |= 1 << u
        v = u
    return True


def max_flow(g: Digraph, s: int, t: int, at_least: int | None = None) -> int:
    """Maximum s->t flow with unit edge capacities (shortest augmenting paths
    over bitmask residuals, ``_augment``).

    ``at_least`` stops augmenting once that flow value is reached, so the
    return value is capped at it.
    """
    if s == t:
        raise ValueError("source and sink coincide")
    base = _out_masks(g.n, g.edges)
    res = base[:]
    flow: set[tuple[int, int]] = set()
    value = 0
    while (at_least is None or value < at_least) and _augment(base, res, flow, s, t):
        value += 1
    return value


def capacity_bottleneck(g: Digraph) -> tuple[int, int]:
    """Broadcast capacity and one bottleneck sink attaining it.

    The capacity is the minimum over non-source nodes t of the max-flow from
    the source to t, one ``max_flow`` call per sink, each capped at the
    least value so far; ties resolve to the lowest-index sink.
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
    """Source-rooted directed spanning tree, stored as edge ids.

    ``tree_packing`` stores each tree's edges in its canonical growth order,
    which ``build_randomized_table`` reads as the tree's growth sequence.
    """

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
    ``_extract_arborescence`` answers each check on bitmask residuals,
    repairing one witness flow per sink by a walk and one augmenting search.
    Whether an edge may be taken is a fact about the remaining edges, so the
    trees do not depend on which witness flows are kept.

    Each tree's ``edge_ids`` are in the order its edges were taken, which is
    its canonical growth order: from the source singleton, every step takes
    the lowest-id tree edge that leaves the nodes reached so far
    (``_extract_arborescence`` says why).
    """
    avail = set(range(g.m))
    trees = []
    for residual in range(broadcast_capacity(g) - 1, -1, -1):
        tree = _extract_arborescence(g, avail, residual)
        trees.append(Arborescence(tuple(tree)))
        avail.difference_update(tree)
    return trees


def _drop_walk(flow: set[tuple[int, int]], a: int, b: int, s: int, t: int) -> None:
    """Remove from ``flow`` one s->t walk of its edges through a->b,
    leaving a flow one unit smaller.

    The walk follows flow edges forward from b to t and backward from a to
    s. Every node it meets short of t (or s) still has a flow edge out of
    it (or into it), as conservation held before and only the walk's own
    edges are gone; no flow edge leaves t or enters s, as no augmenting
    path passes them.
    """
    flow.remove((a, b))
    while b != t:
        nxt = next(f for f in flow if f[0] == b)
        flow.remove(nxt)
        b = nxt[1]
    while a != s:
        nxt = next(f for f in flow if f[1] == a)
        flow.remove(nxt)
        a = nxt[0]


def _extract_arborescence(g: Digraph, avail: set[int], residual: int) -> list[int]:
    """One tree of ``tree_packing`` over the edges in ``avail``, leaving
    ``residual`` units from the source to every sink in the rest.

    ``rest`` lists the remaining edge ids, ascending, and ``rest_out`` holds
    the heads of each node's remaining edges; both are updated once per
    accepted edge. witness[t] is one flow of value
    ``residual`` from the source to t inside the rest (None until first
    needed), as a set of (tail, head) pairs. Removing an edge the witness
    does not use leaves that flow intact, so ``safe(e)`` rechecks only the
    sinks whose witness uses e, each on a copy of ``rest_out`` without e.
    It drops one source->t walk through e (``_drop_walk``), which leaves
    ``residual - 1`` units inside the rest without e, and runs one
    augmenting search over the residual masks of that flow. By Ford and
    Fulkerson the search succeeds exactly when the rest without e carries
    ``residual`` units to t, and its flow becomes t's witness. A sink with
    no witness yet runs ``residual`` searches from the empty flow.

    The edges come back in the tree's canonical growth order. Each step
    takes the lowest-id crossing edge e that is safe. A tree edge f with a
    lower id that also crosses at that step was found unsafe there. ``rest``
    only shrinks, so the rest without f can only lose flow from then on, and
    f stays unsafe; f is never taken, a contradiction. So no lower-id tree
    edge crosses at the step that takes e.
    """
    s = g.source
    sinks = [t for t in range(g.n) if t != s]
    rest = sorted(avail)
    rest_out = _out_masks(g.n, (g.edges[eid] for eid in rest))
    witness: dict[int, set[tuple[int, int]] | None] = dict.fromkeys(sinks)

    def safe(eid: int) -> bool:
        if residual == 0:
            return True
        edge = a, b = g.edges[eid]
        keep = rest_out[:]
        keep[a] &= ~(1 << b)
        for t in sinks:
            flow = witness[t]
            if flow is None:
                flow, searches = set(), residual
            elif edge in flow:
                flow, searches = set(flow), 1
                _drop_walk(flow, a, b, s, t)
            else:
                continue
            res = _residual(keep, flow)
            for _ in range(searches):
                if not _augment(keep, res, flow, s, t):
                    return False
            # A flow inside rest - {eid} is also one inside rest, so it stays
            # t's witness whether or not eid is taken.
            witness[t] = flow
        return True

    tree = []
    mask = g.source_mask
    while mask != g.full_mask:
        for eid in rest:
            a, b = g.edges[eid]
            if (mask >> a) & 1 and not (mask >> b) & 1 and safe(eid):
                break
        else:
            raise RuntimeError("arborescence extraction failed on a feasible graph")
        tree.append(eid)
        rest.remove(eid)
        rest_out[a] &= ~(1 << b)
        mask |= 1 << b
    return tree

