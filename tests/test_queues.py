import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcastsim import SchedulingError
from bcastsim.fixtures import diamond4
from bcastsim.graph import out_edges
from bcastsim.policies import best_transition
from bcastsim.queues import VirtualQueueState
from oracles import reachable_fixed_point

from conftest import AB, BC, CA, FULL, R_, RA, RAB, RA_SET


@pytest.fixture
def state(d4):
    return VirtualQueueState(d4)


class TestAdmit:
    def test_admit_three(self, state):
        state.admit(3)
        assert state.counts == {R_: 3}
        assert state.admitted == 3

    def test_admit_zero_is_a_no_op(self, state):
        state.admit(0)
        assert state.counts == {}
        assert state.admitted == 0

    def test_admits_accumulate(self, state):
        state.admit(2)
        state.admit(5)
        assert state.counts[R_] == 7

    def test_negative_rejected(self, state):
        with pytest.raises(ValueError):
            state.admit(-1)


class TestTransmit:
    def test_moves_one_packet(self, state):
        state.admit(1)
        state.transmit(R_, RA)
        assert state.counts == {RA_SET: 1}

    def test_final_hop_delivers(self, state):
        state.counts[RAB] = 1
        state.admitted = 1
        state.transmit(RAB, BC)
        assert state.delivered == 1
        assert FULL not in state.counts and RAB not in state.counts

    def test_empty_queue_is_a_policy_bug(self, state):
        with pytest.raises(SchedulingError):
            state.transmit(R_, RA)

    def test_non_boundary_edge_is_a_policy_bug(self, state):
        state.admit(1)
        with pytest.raises(SchedulingError):
            state.transmit(R_, CA)  # tail not in the set


class TestWeight:
    """The backlog differential, as ``best_transition`` reports it."""

    def test_difference(self, state):
        state.counts.update({R_: 5, RA_SET: 2})
        assert best_transition(state, RA) == (R_, 3)

    def test_negative(self, state):
        state.counts.update({R_: 1, RA_SET: 5})
        assert best_transition(state, RA) == (R_, -4)

    def test_full_set_reads_zero(self, state):
        state.counts.update({RAB: 2})
        assert best_transition(state, BC) == (RAB, 2)


class TestCounters:
    def test_backlog(self, state):
        assert state.total_backlog() == 0
        state.counts.update({R_: 2, RA_SET: 1})
        assert state.total_backlog() == 3

    def test_backlog_after_deliveries(self, state):
        state.admit(10)
        for _ in range(4):
            state.transmit(R_, RA)
            state.transmit(RA_SET, AB)
            state.transmit(RAB, BC)
        assert state.delivered == 4
        assert state.total_backlog() == 6

    def test_received_source_equals_admitted(self, state):
        state.admit(7)
        state.transmit(R_, RA)
        assert state.received_count(0) == state.admitted == 7

    def test_received_empty(self, state):
        assert all(state.received_count(v) == 0 for v in range(4))

    def test_received_counts_delivered_and_members(self, state):
        state.counts[RA_SET] = 3
        state.delivered = 2
        state.admitted = 5
        assert state.received_count(1) == 5
        assert state.received_count(2) == 2


# Each op is (admit amount) or (queue index, edge index) resolved against the
# live state, so any generated sequence is a valid schedule.
ops = st.lists(
    st.one_of(st.integers(min_value=0, max_value=3),
              st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))),
    max_size=200)


@settings(deadline=None, max_examples=150)
@given(ops=ops)
def test_conservation_under_any_schedule(ops):
    g = diamond4()
    state = VirtualQueueState(g)
    received_before = [0] * g.n
    for op in ops:
        if isinstance(op, int):
            state.admit(op)
        else:
            nonempty = sorted(state.counts)
            if not nonempty:
                continue
            fset = nonempty[op[0] % len(nonempty)]
            boundary = out_edges(g, fset)
            eid = boundary[op[1] % len(boundary)]
            before = dict(state.counts)
            state.transmit(fset, eid)
            # A single move changes each individual queue by at most one.
            keys = set(before) | set(state.counts)
            assert all(abs(state.counts.get(k, 0) - before.get(k, 0)) <= 1
                       for k in keys)
            # Every live queue is keyed by a reachable replication set.
            assert all(reachable_fixed_point(g, k) for k in state.counts)
        assert state.admitted == state.delivered + state.total_backlog()
        received_now = [state.received_count(v) for v in range(g.n)]
        assert all(a >= b for a, b in zip(received_now, received_before))
        received_before = received_now
