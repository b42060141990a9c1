"""Feasible edge activations and max-weight activation for the slotted model.

The per-edge weights come from the policy's bound ``weight``
(``sim._set_up_policy``): ``policies.edge_weight`` for max-weight, the
``weight`` of ``policies.in_order_rules`` for the multiclass policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import CapabilityError, ParseError
from .graph import Digraph, numbered_lines

# The most members a primary-interference family may hold; the count of
# maximal matchings grows exponentially with the edge count.
MAX_FAMILY_MEMBERS = 1 << 18

_INT64_MAX = (1 << 63) - 1


class DuplicateActivation(ValueError):
    """A member that repeats an earlier one; ``index`` is its position in
    the family's masks."""

    def __init__(self, mask: int, index: int):
        super().__init__(f"duplicate activation {mask:#x}")
        self.index = index


@dataclass(frozen=True)
class ActivationFamily:
    """Feasible simultaneous activations, each a bitmask over edge ids.

    The empty activation is always a member (idling is feasible) and members
    are unique. ``holders[e]`` is an int64 array of the indices of the
    members that activate edge e, ascending; it is built on first use.
    """

    edge_count: int
    masks: tuple[int, ...]

    def __post_init__(self):
        limit = 1 << self.edge_count
        seen = set()
        for index, mask in enumerate(self.masks):
            if not 0 <= mask < limit:
                raise ValueError(f"activation {mask:#x} references unknown edges")
            if mask in seen:
                raise DuplicateActivation(mask, index)
            seen.add(mask)
        if 0 not in seen:
            raise ValueError("the empty activation must be a member")

    @cached_property
    def holders(self) -> tuple[np.ndarray, ...]:
        holders: list[list[int]] = [[] for _ in range(self.edge_count)]
        for i, mask in enumerate(self.masks):
            while mask:
                low = mask & -mask
                holders[low.bit_length() - 1].append(i)
                mask ^= low
        return tuple(np.array(h, dtype=np.int64) for h in holders)


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
    # either role. inc[v] is the bitmask of the edges touching node v.
    inc = [0] * g.n
    for e, (a, b) in enumerate(g.edges):
        inc[a] |= 1 << e
        inc[b] |= 1 << e
    return [(inc[a] | inc[b]) & ~(1 << e) for e, (a, b) in enumerate(g.edges)]


def primary_interference_family(g: Digraph) -> ActivationFamily:
    """The maximal matchings of the graph (edges viewed as undirected for
    conflicts) plus the empty activation, in ascending mask order.

    Every matching lies inside a maximal one and edge weights are floored at
    zero, so the best total is the same as over all matchings. Raises
    CapabilityError when the family would pass MAX_FAMILY_MEMBERS members.
    """
    # Maximal matchings are the maximal independent sets of the conflict
    # relation; enumerate them as maximal cliques of its complement
    # (Bron-Kerbosch with pivoting).
    full = (1 << g.m) - 1
    compat = [full & ~(c | 1 << e) for e, c in enumerate(_conflicts(g))]
    out: list[int] = []

    def bk(r: int, p: int, x: int):
        if p == 0 and x == 0:
            out.append(r)
            # With the empty activation the family has one member more.
            if len(out) >= MAX_FAMILY_MEMBERS:
                raise CapabilityError(
                    f"primary interference family capped at "
                    f"{MAX_FAMILY_MEMBERS} members; the graph has more "
                    f"maximal matchings")
            return
        pivot, best = -1, -1
        mm = p | x
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
    return make_family(g.m, sorted(out))


def parse_activation_family(text: str, edge_count: int) -> ActivationFamily:
    """One feasible set per line as space-separated edge ids; ``-`` is the
    empty set; ``#`` comments and blank lines are ignored."""
    masks: list[int] = []
    linenos: list[int] = []
    for lineno, line in numbered_lines(text):
        linenos.append(lineno)
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
    except DuplicateActivation as exc:
        # make_family puts the empty activation first when no line holds it.
        lineno = linenos[exc.index - (0 not in masks)]
        raise ParseError(f"line {lineno}: {exc}") from None
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def choose_activation(weights: Sequence[int], fam: ActivationFamily) -> int:
    """Member of the family with the largest total weight; negative weights
    are floored at zero, so idling an activated edge is never penalized. Ties
    keep the earliest member in family order.

    Each positive weight is added to the totals of the members that hold its
    edge, and ``argmax`` returns the first largest total. The totals are
    int64 while no member's total can pass 2**63 - 1, and Python ints
    otherwise, so every weight is summed exactly.
    """
    positive = [(e, w) for e, w in enumerate(weights) if w > 0]
    # A member holds at most edge_count edges.
    small = all(w <= _INT64_MAX // fam.edge_count for _, w in positive)
    totals = np.zeros(len(fam.masks), dtype=np.int64 if small else object)
    holders = fam.holders
    for e, w in positive:
        totals[holders[e]] += w
    return fam.masks[int(totals.argmax())]
