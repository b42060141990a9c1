"""Built-in graphs used by presets and tests."""

from __future__ import annotations

import re

from .graph import Digraph

_NAME = re.compile(r"^(path|star)(\d+)$")


def diamond4() -> Digraph:
    """Four-node diamond with two edge-disjoint spanning trees (capacity 2).

    Nodes: 0 source, then 1, 2, 3; edges 01, 12, 23, 02, 03, 31.
    """
    return Digraph(4, [(0, 1), (1, 2), (2, 3), (0, 2), (0, 3), (3, 1)], 0)


def path_graph(n: int) -> Digraph:
    if n < 2:
        raise ValueError("path needs at least two nodes")
    return Digraph(n, ((i, i + 1) for i in range(n - 1)), 0)


def star_graph(n: int) -> Digraph:
    if n < 2:
        raise ValueError("star needs at least two nodes")
    return Digraph(n, ((0, i) for i in range(1, n)), 0)


def by_name(name: str) -> Digraph | None:
    """Resolve a builtin fixture name (diamond4, pathN, starN), else None."""
    if name == "diamond4":
        return diamond4()
    match = _NAME.match(name)
    if match:
        kind, count = match.group(1), int(match.group(2))
        return path_graph(count) if kind == "path" else star_graph(count)
    return None
