import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from bcastsim import Digraph, random_digraph
from bcastsim.fixtures import diamond4

# Diamond edge ids in fixture order: source r=0, then a=1, b=2, c=3.
RA, AB, BC, RB, RC, CA = range(6)

# Node-set bitmasks on the diamond.
R_ = 0b0001
RA_SET = 0b0011
RB_SET = 0b0101
RC_SET = 0b1001
RAB = 0b0111
RAC = 0b1011
RBC = 0b1101
FULL = 0b1111


@pytest.fixture
def d4():
    return diamond4()


@st.composite
def small_graphs(draw, max_n=6, max_m=None, min_n=2):
    """``random_digraph`` with min_n..max_n nodes and any feasible edge count,
    capped at ``max_m`` where that still leaves a spanning tree possible."""
    n = draw(st.integers(min_n, max_n))
    top = n * (n - 1) // 2
    if max_m is not None:
        top = max(n - 1, min(top, max_m))
    m = draw(st.integers(n - 1, top))
    return random_digraph(n, m, draw(st.integers(0, 2 ** 16)))


@st.composite
def any_digraphs(draw, max_n=7):
    """A ``Digraph`` over any set of directed pairs, in any order, with any
    source: unlike ``random_digraph`` it may hold both directions of a pair
    and nodes unreachable from the source."""
    n = draw(st.integers(1, max_n))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Digraph(n, edges, draw(st.integers(0, n - 1)))
