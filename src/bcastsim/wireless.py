"""Feasible edge activations and max-weight activation for the slotted model.

The per-edge weights come from ``policies.edge_weight``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import CapabilityError, ParseError
from .graph import Digraph

# Enumerating all matchings is exponential in the edge count.
MATCHING_ENUM_EDGE_LIMIT = 20


@dataclass(frozen=True)
class ActivationFamily:
    """Feasible simultaneous activations, each a bitmask over edge ids.

    The empty activation is always a member (idling is feasible) and members
    are unique.
    """

    edge_count: int
    masks: tuple[int, ...]

    def __post_init__(self):
        limit = 1 << self.edge_count
        seen = set()
        for mask in self.masks:
            if not 0 <= mask < limit:
                raise ValueError(f"activation {mask:#x} references unknown edges")
            if mask in seen:
                raise ValueError(f"duplicate activation {mask:#x}")
            seen.add(mask)
        if 0 not in seen:
            raise ValueError("the empty activation must be a member")


def make_family(edge_count: int, masks: Sequence[int]) -> ActivationFamily:
    """Family from raw masks; the empty activation is prepended if absent."""
    masks = tuple(masks)
    if 0 not in masks:
        masks = (0,) + masks
    return ActivationFamily(edge_count, masks)


def wireline_family(edge_count: int) -> ActivationFamily:
    """No interference: idle or activate every edge at once."""
    return make_family(edge_count, ((1 << edge_count) - 1,))


def _conflicts(g: Digraph) -> list[int]:
    # Primary interference: edges conflict when they share an endpoint in
    # either role.
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


def primary_interference_family(g: Digraph, maximal_only: bool = False) -> ActivationFamily:
    """All matchings of the graph (edges viewed as undirected for conflicts).

    With ``maximal_only`` the family holds just the maximal matchings plus the
    empty activation, which keeps the family small on dense graphs; the
    max-weight activation is unchanged because edge weights are non-negative.
    """
    m = g.m
    conflict = _conflicts(g)
    if maximal_only:
        return make_family(m, sorted(_maximal_matchings(m, conflict)))
    if m > MATCHING_ENUM_EDGE_LIMIT:
        raise CapabilityError(
            f"matching enumeration capped at m={MATCHING_ENUM_EDGE_LIMIT}, "
            f"got m={m}; use activation = primary-maximal")
    masks: list[int] = []

    def extend(mask: int, banned: int, start: int):
        masks.append(mask)
        for e in range(start, m):
            ebit = 1 << e
            if not banned & ebit:
                extend(mask | ebit, banned | conflict[e] | ebit, e + 1)

    extend(0, 0, 0)
    return ActivationFamily(m, tuple(masks))


def _maximal_matchings(m: int, conflict: list[int]) -> list[int]:
    # Maximal matchings are the maximal independent sets of the conflict
    # relation; enumerate them as maximal cliques of its complement
    # (Bron-Kerbosch with pivoting).
    if m == 0:
        return [0]
    full = (1 << m) - 1
    compat = [full & ~conflict[e] & ~(1 << e) for e in range(m)]
    out: list[int] = []

    def bk(r: int, p: int, x: int):
        if p == 0 and x == 0:
            out.append(r)
            return
        pux = p | x
        pivot, best = -1, -1
        mm = pux
        while mm:
            low = mm & -mm
            u = low.bit_length() - 1
            mm ^= low
            cnt = (p & compat[u]).bit_count()
            if cnt > best:
                best, pivot = cnt, u
        cand = p & ~compat[pivot]
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            bk(r | low, p & compat[v], x & compat[v])
            p &= ~low
            x |= low

    bk(0, full, 0)
    return out


def parse_activation_family(text: str, edge_count: int) -> ActivationFamily:
    """One feasible set per line as space-separated edge ids; ``-`` is the
    empty set; ``#`` comments and blank lines are ignored."""
    masks: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "-":
            masks.append(0)
            continue
        mask = 0
        for tok in line.split():
            try:
                e = int(tok)
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer edge id") from None
            if not 0 <= e < edge_count:
                raise ParseError(f"line {lineno}: edge id {e} out of range")
            ebit = 1 << e
            if mask & ebit:
                raise ParseError(f"line {lineno}: repeated edge id {e}")
            mask |= ebit
        masks.append(mask)
    try:
        return make_family(edge_count, masks)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def choose_activation(weights: Sequence[int], fam: ActivationFamily) -> int:
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
