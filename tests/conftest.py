import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from bcastsim import random_digraph
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
def small_graphs(draw, max_n=6):
    """``random_digraph`` with 2..max_n nodes and any feasible edge count."""
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(n - 1, n * (n - 1) // 2))
    return random_digraph(n, m, draw(st.integers(0, 2 ** 16)))
