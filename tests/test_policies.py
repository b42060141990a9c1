from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcastsim import (Arborescence, ConstructionError, Digraph,
                      SchedulingError, broadcast_capacity, tree_packing)
from bcastsim.cli import resolve_graph
from bcastsim.fixtures import path_graph
from bcastsim.graph import out_edges
from bcastsim.sim import random_digraph
from bcastsim import sim
from bcastsim.policies import (MultiClassState, build_randomized_table,
                               default_eps, edge_weight, in_order_rules,
                               max_weight_decide, multiclass_apply,
                               multiclass_decide, randomized_decide,
                               randomized_picks, sample_reachable_sequences,
                               static_tree_decide, tree_owners)
from bcastsim.queues import VirtualQueueState
from bcastsim.sim import SimConfig
from bcastsim.wireless import wireline_family

from conftest import (AB, BC, CA, R_, RA, RAB, RAC, RA_SET, RB, RBC, RC,
                      RC_SET, any_digraphs, small_graphs)
from oracles import (PacketLedger, admit_class, assign_class,
                     count_exactly_at, dict_randomized_table,
                     exact_randomized_table, linear_cdf_decide, packet_set,
                     ranking_best_transition, rebuilding_multiclass_best,
                     rescanning_sample_sequences, scanning_tree_class,
                     sequence_rows, table_from_entries, validate_reachable_sequence)

BLUE = Arborescence((RA, AB, BC))
RED = Arborescence((RB, RC, CA))
# No extra sequence on the diamond's four nodes.
NONE = (np.zeros((0, 3), dtype=np.int64),) * 2


class TestMaxWeightDecide:
    def test_prefers_larger_differential(self, d4):
        state = VirtualQueueState(d4)
        state.counts.update({R_: 4, RA_SET: 1})
        assert max_weight_decide(state, RA) == R_

    def test_idles_on_empty_state(self, d4):
        state = VirtualQueueState(d4)
        assert all(max_weight_decide(state, e) is None for e in range(d4.m))

    def test_zero_weight_idles(self, d4):
        state = VirtualQueueState(d4)
        state.counts.update({R_: 1, RA_SET: 1})
        assert max_weight_decide(state, RA) is None

    def test_negative_weight_idles(self, d4):
        state = VirtualQueueState(d4)
        state.counts.update({R_: 1, RA_SET: 5})
        assert max_weight_decide(state, RA) is None

    def test_tie_breaks_toward_smaller_set(self, d4):
        state = VirtualQueueState(d4)
        # Both {r} and {r,c} can use edge ra with weight 2.
        state.counts.update({R_: 2, RC_SET: 2})
        assert max_weight_decide(state, RA) == R_

    def test_tie_breaks_toward_smaller_mask(self, d4):
        state = VirtualQueueState(d4)
        # {r,a} and {r,c} both offer edge weight 1 on their boundary... use
        # edge rb: candidates {r}, {r,a}, {r,c}, {r,a,c} (those lacking b).
        state.counts.update({RA_SET: 3, RAC: 1, 0b1001: 3})
        assert max_weight_decide(state, RB) == RA_SET


@st.composite
def queue_states(draw):
    """A VirtualQueueState on a small random graph where every nonempty
    proper node set, the ones a node short of full included, is absent, an
    empty queue, or holds one or two packets, so ties and zero or negative
    differentials are common. Never the full set, which the queues never
    hold."""
    g = draw(small_graphs(6))
    values = draw(st.lists(st.sampled_from([None, 0, 1, 2]),
                           min_size=g.full_mask - 1, max_size=g.full_mask - 1))
    state = VirtualQueueState(g)
    state.counts.update((fset, q) for fset, q in enumerate(values, 1) if q is not None)
    return state


@settings(max_examples=300, deadline=2000)
@given(state=queue_states())
def test_max_weight_matches_ranking_oracle(state):
    """On every edge the pruned scan picks the oracle's set when the oracle's
    differential is positive and idles otherwise, and the edge weight is
    that differential floored at zero."""
    for eid in range(state.graph.m):
        ranked = ranking_best_transition(state, eid)
        w = ranked[1] if ranked is not None else 0
        assert max_weight_decide(state, eid) == (ranked[0] if w > 0 else None)
        assert edge_weight(state, eid) == max(w, 0)


class TestAssignClass:
    def test_single_class(self):
        rng = np.random.default_rng(0)
        assert all(assign_class(rng, 1) == 0 for _ in range(50))

    def test_uniform(self):
        rng = np.random.default_rng(1)
        draws = 100_000
        counts = np.bincount([assign_class(rng, 4) for _ in range(draws)],
                             minlength=4)
        sigma = (draws * 0.25 * 0.75) ** 0.5
        assert all(abs(c - draws / 4) < 3 * sigma for c in counts)

    def test_deterministic_per_seed(self):
        a = [assign_class(np.random.default_rng(5), 7) for _ in range(1)]
        b = [assign_class(np.random.default_rng(5), 7) for _ in range(1)]
        assert a == b

    def test_rejects_no_classes(self):
        with pytest.raises(ValueError):
            assign_class(np.random.default_rng(0), 0)


def mc_state(g, rows):
    """State with the given index rows; each row's source entry is its
    class's arrival count. The in-flight lists hold the oracle's set of every
    packet some node still lacks."""
    state = MultiClassState(g, len(rows), iter(()))
    state.highest = [list(row) for row in rows]
    state.inflight = [[packet_set(state, c, p)
                       for p in range(min(row) + 1, row[g.source] + 1)]
                      for c, row in enumerate(rows)]
    # Rebuild the queue counts from the rows they must summarize.
    state.admitted = sum(row[g.source] for row in rows)
    for gset in range(1, 1 << g.n):
        cnt = count_exactly_at(state, gset)
        if cnt:
            if gset == g.full_mask:
                state.delivered = cnt
            else:
                state.counts[gset] = cnt
    assert state.histogram() == (state.counts, state.delivered)
    return state


class TestMultiClassDecide:
    def test_single_class_hand_trace(self, d4):
        # r holds packets 1..2, a holds packet 1, b and c hold nothing.
        state = mc_state(d4, [[2, 1, 0, 0]])
        assert count_exactly_at(state, RA_SET) == 1
        assert count_exactly_at(state, RAB) == 0
        assert multiclass_decide(state, AB) == 0

    def test_caught_up_head_idles(self, d4):
        state = mc_state(d4, [[2, 2, 2, 2]])
        assert multiclass_decide(state, AB) is None

    def test_head_of_line_absent_at_tail(self, d4):
        # Packet 1 of the class sits at {r,b}; edge ab's tail a lacks it.
        state = mc_state(d4, [[1, 0, 1, 0]])
        assert multiclass_decide(state, AB) is None

    def test_positive_weight_required(self, d4):
        # One packet at {r,a}, another at {r,a,b}: moving over ab has weight 0.
        state = mc_state(d4, [[2, 2, 1, 0]])
        assert state.counts == {RA_SET: 1, RAB: 1}
        assert multiclass_decide(state, AB) is None

    def test_tie_breaks_to_lowest_class(self, d4):
        state = mc_state(d4, [[1, 1, 0, 0], [1, 1, 0, 0]])
        assert multiclass_decide(state, AB) == 0

    def test_final_hop_weight_ignores_delivered(self, d4):
        # Many packets already delivered; the last hop must stay attractive.
        state = mc_state(d4, [[9, 9, 9, 8]])
        assert state.delivered == 8
        assert multiclass_decide(state, BC) == 0


class TestMultiClassApply:
    def test_increments_head(self, d4):
        state = mc_state(d4, [[5, 4, 0, 0]])
        multiclass_apply(state, 0, AB)
        assert state.highest[0][2] == 1

    def test_node_delivery_total_rises_by_one(self, d4):
        state = mc_state(d4, [[5, 4, 0, 0]])
        before = state.received_count(2)
        multiclass_apply(state, 0, AB)
        assert state.received_count(2) == before + 1

    def test_head_never_passes_source(self, d4):
        state = mc_state(d4, [[2, 0, 0, 0]])
        multiclass_apply(state, 0, RA)
        multiclass_apply(state, 0, RA)
        with pytest.raises(SchedulingError):
            multiclass_apply(state, 0, RA)
        assert state.highest[0][1] == state.highest[0][d4.source]

    def test_absent_packet_rejected(self, d4):
        state = mc_state(d4, [[1, 0, 1, 0]])
        with pytest.raises(SchedulingError):
            multiclass_apply(state, 0, AB)

    def test_counts_stay_in_step(self, d4):
        state = MultiClassState(d4, 2, iter(()))
        rng = np.random.default_rng(3)
        for _ in range(400):
            if rng.random() < 0.3:
                admit_class(state, assign_class(rng, 2))
            eid = int(rng.integers(d4.m))
            c = multiclass_decide(state, eid)
            if c is not None:
                multiclass_apply(state, c, eid)
            for gset in range(1, 1 << d4.n):
                expect = count_exactly_at(state, gset)
                if gset == d4.full_mask:
                    assert state.delivered == expect
                else:
                    assert state.counts.get(gset, 0) == expect
            assert state.histogram() == (state.counts, state.delivered)


class TestMultiClassWritePath:
    """``admit`` and the moves of ``in_order_rules`` (its ``step`` and
    ``apply``) are the only writers of an in-order state, and none lets the
    queue counts leave the indices behind."""

    def test_admit_takes_the_next_labels(self, d4):
        state = MultiClassState(d4, 2, iter([0, 1, 1]))
        state.admit(3)
        assert state.counts == {R_: 3}
        assert state.admitted == 3
        assert [row[d4.source] for row in state.highest] == [1, 2]
        assert state.inflight == [[R_], [R_, R_]]
        assert state.histogram() == (state.counts, state.delivered)

    def test_transmit_refused(self, d4):
        state = MultiClassState(d4, 2, iter([0, 1, 1]))
        state.admit(3)
        before = (dict(state.counts), [list(r) for r in state.highest],
                  [list(s) for s in state.inflight])
        with pytest.raises(SchedulingError, match="only by in_order_rules' apply"):
            state.transmit(R_, RA)
        assert (state.counts, state.highest, state.inflight) == before
        assert state.delivered == 0

    def test_running_out_of_labels_raises(self, d4):
        """A finite label stream that ends early admits one packet per label
        and says how many, instead of admitting fewer than asked silently."""
        state = MultiClassState(d4, 2, iter([0]))
        with pytest.raises(ValueError, match="admitted 1 of 3 packets"):
            state.admit(3)
        assert state.admitted == 1 and state.counts == {R_: 1}
        assert state.histogram() == (state.counts, state.delivered)
        state.admit(0)
        with pytest.raises(ValueError, match="admitted 0 of 1 packets"):
            state.admit(1)

    def test_negative_admit_takes_no_label(self, d4):
        state = MultiClassState(d4, 2, iter([1, 0]))
        with pytest.raises(ValueError, match="^negative arrival count$"):
            state.admit(-1)
        assert state.admitted == 0 and state.counts == {}
        state.admit(1)
        assert [row[d4.source] for row in state.highest] == [0, 1]


# Each op admits a packet (first entry 0) or activates an edge; the second
# entry picks the class or the edge.
MOVES = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2 ** 16)), max_size=80)


@pytest.mark.parametrize("policy", ["multiclass", "static-tree"])
@settings(max_examples=200, deadline=2000)
@given(g=small_graphs(), classes=st.integers(1, 4), moves=MOVES)
def test_histogram_matches_counts_and_ledger(policy, g, classes, moves):
    """After every move of either in-order policy, the histogram rebuilt from
    the index matrix equals the incremental queue counts and a per-packet
    ledger, the in-flight lists equal the ledger's sets, and the multiclass
    choice and the bound multiclass weight on every edge equal the positive
    pair of the oracle that rebuilds each head-of-line set, or (None, 0)
    without one."""
    trees = tree_packing(g)
    owner = tree_owners(g, trees)
    state = MultiClassState(g, classes if policy == "multiclass" else len(trees),
                            iter(()))
    weight = in_order_rules(state)[2]
    ledger = PacketLedger(g)
    for kind, pick in moves:
        if kind == 0:
            c = pick % len(state.highest)
            admit_class(state, c)
            ledger.admit(c, state.highest[c][g.source])
        else:
            eid = pick % g.m
            if policy == "multiclass":
                c = multiclass_decide(state, eid)
            else:
                c = static_tree_decide(state, owner, eid)
            if c is not None:
                j = g.edges[eid][1]
                ledger.move(c, state.highest[c][j] + 1, j)
                multiclass_apply(state, c, eid)
        counts, delivered = state.histogram()
        assert (counts, delivered) == (state.counts, state.delivered)
        assert counts == ledger.histogram()
        assert delivered == ledger.delivered()
        assert state.inflight == [ledger.in_flight(c) for c in range(len(state.highest))]
        for e in range(g.m):
            ranked = rebuilding_multiclass_best(state, e)
            expected = ranked if ranked is not None and ranked[1] > 0 else (None, 0)
            assert (multiclass_decide(state, e), weight(e)) == expected


@pytest.mark.parametrize("policy", ["multiclass", "static-tree"])
@settings(max_examples=200, deadline=2000)
@given(g=small_graphs(), classes=st.integers(1, 4), moves=MOVES)
def test_bound_decide_matches_the_oracles(policy, g, classes, moves):
    """Rules bound once, before any packet arrives, keep deciding as the
    oracles do while the state they close over changes: after every admit
    and every move of the bound ``apply``, the bound ``decide`` on every
    edge equals the positive pick of ``rebuilding_multiclass_best``
    (multiclass) or the tree scan of ``scanning_tree_class`` (static-tree),
    and the bound multiclass ``weight`` equals that pick's differential, or
    0 without one."""
    trees = tree_packing(g)
    static = policy == "static-tree"
    state = MultiClassState(g, len(trees) if static else classes, iter(()))
    decide, apply, weight, _ = in_order_rules(state, tree_owners(g, trees) if static else None)

    def expected(eid):
        if static:
            return scanning_tree_class(state, trees, eid)
        ranked = rebuilding_multiclass_best(state, eid)
        return ranked[0] if ranked is not None and ranked[1] > 0 else None

    def expected_weight(eid):
        ranked = rebuilding_multiclass_best(state, eid)
        return ranked[1] if ranked is not None and ranked[1] > 0 else 0

    for kind, pick in moves:
        if kind == 0:
            admit_class(state, pick % len(state.highest))
        else:
            eid = pick % g.m
            c = decide(eid)
            if c is not None:
                apply(c, eid)
        assert [decide(e) for e in range(g.m)] == [expected(e) for e in range(g.m)]
        if not static:
            assert ([weight(e) for e in range(g.m)]
                    == [expected_weight(e) for e in range(g.m)])
        assert state.histogram() == (state.counts, state.delivered)


@pytest.mark.parametrize("policy", ["multiclass", "static-tree"])
@settings(max_examples=200, deadline=2000)
@given(g=small_graphs(), classes=st.integers(1, 4), moves=MOVES)
def test_bound_step_is_decide_then_apply(policy, g, classes, moves):
    """The bound ``step`` is the bound ``decide`` then ``apply``: on twin
    states that see the same admits, a step on one returns the class that
    ``decide`` picks on the other, and after it and ``apply`` of that class
    the two states are equal. The no-move form, ``step(eid, move=False)``,
    writes nothing."""
    trees = tree_packing(g)
    owner = tree_owners(g, trees) if policy == "static-tree" else None
    k = len(trees) if owner is not None else classes
    stepped, applied = MultiClassState(g, k, iter(())), MultiClassState(g, k, iter(()))
    step = in_order_rules(stepped, owner)[3]
    decide, apply, _, _ = in_order_rules(applied, owner)

    def snapshot(state):
        return (dict(state.counts), [list(row) for row in state.highest],
                [list(sets) for sets in state.inflight], state.delivered, state.admitted)

    for kind, pick in moves:
        if kind == 0:
            c = pick % k
            admit_class(stepped, c)
            admit_class(applied, c)
        else:
            eid = pick % g.m
            before = snapshot(stepped)
            assert [step(e, move=False) for e in range(g.m)] == [decide(e) for e in range(g.m)]
            assert snapshot(stepped) == before
            c = decide(eid)
            if c is not None:
                apply(c, eid)
            assert step(eid) == c
        assert snapshot(stepped) == snapshot(applied)


def _no_packet(state, c, eid):
    j = state.graph.edges[eid][1]
    state.highest[c][j] = state.highest[c][state.graph.source]
    return True


def _absent_at_tail(state, c, eid):
    i, j = state.graph.edges[eid]
    if i == state.graph.source:  # the source holds every arrived packet
        return False
    state.highest[c][i] = state.highest[c][j]
    return True


def _no_in_flight_set(state, c, eid):
    state.inflight[c].clear()
    return True


def _head_of_line_pos(state, c, eid):
    row = state.highest[c]
    return row[state.graph.edges[eid][1]] - row[state.graph.source]


def _edge_inside_set(state, c, eid):
    state.inflight[c][_head_of_line_pos(state, c, eid)] |= 1 << state.graph.edges[eid][1]
    return True


def _tail_outside_set(state, c, eid):
    state.inflight[c][_head_of_line_pos(state, c, eid)] &= ~(1 << state.graph.edges[eid][0])
    return True


def _empty_queue(state, c, eid):
    del state.counts[state.inflight[c][_head_of_line_pos(state, c, eid)]]
    return True


# Each corruption turns a valid move (c, eid) into a bad one, or reports that
# it cannot for this move; the message is the apply's refusal.
BAD_MOVES = pytest.mark.parametrize("corrupt, message", [
    (_no_packet, r"class \d+ has no packet \d+ yet"),
    (_absent_at_tail, r"class \d+ packet \d+ is absent at node \d+"),
    (_no_in_flight_set, r"class \d+ packet \d+ has no in-flight set"),
    (_edge_inside_set, r"edge \d+ does not leave node set 0x[0-9a-f]+"),
    (_tail_outside_set, r"edge \d+ does not leave node set 0x[0-9a-f]+"),
    (_empty_queue, r"transmit from empty queue 0x[0-9a-f]+"),
])


@BAD_MOVES
def test_bound_apply_refuses_a_bad_move(d4, corrupt, message):
    """The bound ``apply`` raises each of its five refusals on a move made
    bad (the edge's, for a set that holds its head or lacks its tail), and
    writes nothing first."""
    state = mc_state(d4, [[2, 1, 0, 0]])  # class 0 can send packet 1 over ab
    apply = in_order_rules(state)[1]
    assert corrupt(state, 0, AB)
    before = (dict(state.counts), [list(r) for r in state.highest],
              [list(s) for s in state.inflight], state.delivered)
    with pytest.raises(SchedulingError, match=message):
        apply(0, AB)
    assert (state.counts, state.highest, state.inflight, state.delivered) == before


@BAD_MOVES
def test_a_replayed_bad_move_is_refused(d4, monkeypatch, corrupt, message):
    """A slotted memo hit replays its moves through the bound ``apply``, so
    a move made bad just before its replay raises the same refusal out of
    ``run``."""
    set_up = sim._set_up_policy
    corrupted = []

    def corrupting(*args):
        built = set_up(*args)

        def replay(c, eid):
            if not corrupted and corrupt(built.state, c, eid):
                corrupted.append((c, eid))
            built.replay(c, eid)

        return built._replace(replay=replay)

    monkeypatch.setattr(sim, "_set_up_policy", corrupting)
    cfg = SimConfig(lam=0.5, horizon=2000, seed=4, time_model="slotted-wireless",
                    policy="multiclass", classes=2, sample_every=100)
    with pytest.raises(SchedulingError, match=message):
        sim.run(cfg, d4, wireline_family(d4.m))
    assert corrupted


# The refusals each in-order step makes itself. The multiclass scan skips a
# class whose next packet is missing or absent at the tail, or has no
# in-flight set or an empty queue, and one whose set holds the edge's head
# differs by 0; the static-tree owner test is the first two checks.
STEP_REFUSES = {"multiclass": {_tail_outside_set},
                "static-tree": {_no_in_flight_set, _edge_inside_set, _tail_outside_set,
                                _empty_queue}}


@pytest.mark.parametrize("policy", ["multiclass", "static-tree"])
@BAD_MOVES
def test_a_bound_step_refuses_or_skips_a_bad_move(d4, policy, corrupt, message):
    """On a move made bad, the bound ``step`` raises the ``apply``'s refusal
    for each check it makes itself and idles on the others, and writes
    nothing either way."""
    state = mc_state(d4, [[2, 1, 0, 0]])  # class 0 can send packet 1 over ab
    step = in_order_rules(state, tree_owners(d4, [BLUE]) if policy == "static-tree"
                          else None)[3]
    assert step(AB, move=False) == 0
    assert corrupt(state, 0, AB)
    before = (dict(state.counts), [list(r) for r in state.highest],
              [list(s) for s in state.inflight], state.delivered)
    if corrupt in STEP_REFUSES[policy]:
        with pytest.raises(SchedulingError, match=message):
            step(AB)
    else:
        assert step(AB) is None
    assert (state.counts, state.highest, state.inflight, state.delivered) == before


class TestStaticTree:
    def test_owner_table(self, d4):
        owner = tree_owners(d4, [BLUE, RED])
        assert [owner[e] for e in (RA, AB, BC, RB, RC, CA)] == [0, 0, 0, 1, 1, 1]
        assert owner.count(-1) == d4.m - 6

    def test_edge_owned_by_blue_tree(self, d4):
        state = mc_state(d4, [[3, 2, 1, 0], [3, 0, 1, 1]])
        assert static_tree_decide(state, tree_owners(d4, [BLUE, RED]), AB) == 0

    def test_ineligible_owner_idles_instead_of_borrowing(self, d4):
        # Class 0 owns ab but its head packet is not at a yet.
        state = mc_state(d4, [[3, 0, 0, 0], [3, 3, 3, 3]])
        assert static_tree_decide(state, tree_owners(d4, [BLUE, RED]), AB) is None

    def test_edge_on_no_tree(self):
        g = Digraph(3, [(0, 1), (0, 2), (1, 2)], 0)
        trees = tree_packing(g)
        assert broadcast_capacity(g) == 1
        unused = [e for e in range(g.m) if e not in trees[0].edge_set]
        owner = tree_owners(g, trees)
        state = mc_state(g, [[2, 0, 0]])
        for eid in unused:
            assert static_tree_decide(state, owner, eid) is None

    def test_only_forwards_over_own_tree(self, d4):
        state = MultiClassState(d4, 2, iter(()))
        rng = np.random.default_rng(11)
        trees = [BLUE, RED]
        owner = tree_owners(d4, trees)
        for _ in range(600):
            if rng.random() < 0.4:
                admit_class(state, assign_class(rng, 2))
            eid = int(rng.integers(d4.m))
            c = static_tree_decide(state, owner, eid)
            if c is not None:
                assert eid in trees[c].edge_set
                multiclass_apply(state, c, eid)


class TestRandomizedTable:
    def test_tree_only_probabilities(self, d4):
        eps = 0.08
        table = build_randomized_table(d4, [BLUE, RED], NONE, eps)
        by_edge = {e: dict(table.entries[e]) for e in range(d4.m)}
        assert by_edge[RA][R_] == pytest.approx(1 - 3 * eps / 4)
        assert by_edge[AB][RA_SET] == pytest.approx(1 - 2 * eps / 4)
        assert by_edge[BC][RAB] == pytest.approx(1 - eps / 4)
        assert by_edge[RB][R_] == pytest.approx(1 - 3 * eps / 4)
        assert by_edge[CA][RBC] == pytest.approx(1 - eps / 4)

    def test_per_edge_mass_bound(self, d4):
        eps = 0.1
        rng = np.random.default_rng(2)
        extra = sample_reachable_sequences(d4, 24, rng)
        table = build_randomized_table(d4, [BLUE, RED], extra, eps)
        bound = 1 - d4.m * 0 - eps / (2 * d4.n)
        for entry in table.entries:
            total = sum(p for _, p in entry)
            assert total <= bound + 1e-12
            assert all(p >= 0 for _, p in entry)

    def test_infeasible_eps_rejected(self, d4):
        with pytest.raises(ConstructionError):
            build_randomized_table(d4, [BLUE, RED], NONE, 2.0)
        with pytest.raises(ConstructionError):
            build_randomized_table(d4, [BLUE, RED], NONE, 0.0)
        with pytest.raises(ConstructionError):
            build_randomized_table(d4, [BLUE, RED], NONE, float("nan"))

    @pytest.mark.parametrize("bad, message", [
        (Arborescence((BC, AB, RA)), "tree 1's edges do not each leave the set before it"),
        (Arborescence((RB, RC)), "tree 1 has 2 edges, not 3"),
    ], ids=["blue-reversed", "one-edge-short"])
    def test_a_tree_not_in_growth_order_is_refused(self, d4, bad, message):
        with pytest.raises(ConstructionError) as refusal:
            build_randomized_table(d4, [RED, bad], NONE, 0.1)
        assert str(refusal.value) == message

    def test_csv_rows(self, d4):
        table = build_randomized_table(d4, [BLUE, RED], NONE, 0.1)
        rows = list(table.csv_rows())
        assert rows[0] == "edge,bits,probability"
        assert len(rows) == 1 + 6

    def test_default_eps(self):
        assert default_eps(2, 1.9, 4) == pytest.approx(0.05)
        assert default_eps(2, 2.4, 4) == pytest.approx(1 / 16)
        # Half the slack strictly below capacity; 1/(4n) from capacity up.
        assert default_eps(2, 0.0, 4) == 1.0
        assert default_eps(3, 2.5, 6) == 0.25
        assert default_eps(2, 2.0, 4) == 1 / 16
        assert default_eps(2, 1e9, 5) == 1 / 20
        assert default_eps(1, float(np.nextafter(1.0, 0.0)), 3) > 0


# ``Generator.random`` draws are the multiples of 2**-53 in [0, 1).
GRID = 2 ** 53


def _search_sums(table, eid):
    """The edge's running sums as ``table.search`` keys them, in units of
    2**-53: each key less the edge's offset ``eid * (2**53 + 1)``."""
    search = table.search
    end = search.ends[eid]
    return [int(k) - eid * (GRID + 1) for k in search.keys[end - table.sizes[eid]:end]]


def _assert_matches_exact_rule(g, trees, extra, eps):
    """The engine's table holds the exact rule's pairs, in set order, with
    each probability equal to it within float rounding and each running sum
    the search keys within float rounding plus the keys' 2**-53 grid; or
    the engine refuses the table exactly where the rule does. Its entries
    equal the one-pair-at-a-time dict build's bit for bit, and so does its
    refusal message. Returns the table, or None on a refusal."""
    rows = sequence_rows(extra)
    try:
        want = dict_randomized_table(g, trees, rows, eps)
    except ConstructionError as exc:
        want = exc
    try:
        exact = exact_randomized_table(g, trees, rows, eps)
    except ValueError:
        with pytest.raises(ConstructionError) as refusal:
            build_randomized_table(g, trees, extra, eps)
        assert str(refusal.value) == str(want)
        return None
    table = build_randomized_table(g, trees, extra, eps)
    assert table.entries == want.entries
    for eid, entry in enumerate(table.entries):
        want = sorted(exact[eid].items())
        assert [fset for fset, _ in entry] == [fset for fset, _ in want]
        running = 0
        for (_, p), (_, q), k in zip(entry, want, _search_sums(table, eid),
                                     strict=True):
            running += q
            assert abs(p - q) <= 1e-12
            assert abs(Fraction(k, GRID) - running) <= 1e-12 + 2 ** -53
    return table


class TestRandomizedTableRule:
    """``build_randomized_table`` against the exact-arithmetic oracle."""

    def test_diamond_with_extra_sequences(self, d4):
        extra = sample_reachable_sequences(d4, 24, np.random.default_rng(2))
        assert _assert_matches_exact_rule(d4, [BLUE, RED], extra, 0.1)

    def test_refusals(self, d4):
        # A negative tree probability, and one edge shared by two trees.
        assert _assert_matches_exact_rule(d4, [BLUE, RED], NONE, 2.0) is None
        assert _assert_matches_exact_rule(d4, [BLUE, BLUE], NONE, 0.1) is None

    # Below capacity, at it (the 1/(4n) margin) and the rnd-setup-25 load.
    @pytest.mark.parametrize("spec,lam", [("random(12,30,3)", 0.5),
                                          ("random(12,30,3)", 1.0),
                                          ("random(25,200,1)", 3.0)])
    def test_fixed_graphs_at_default_eps(self, spec, lam):
        g = resolve_graph(spec)
        trees = tree_packing(g)
        extra = sample_reachable_sequences(g, 4 * g.m, np.random.default_rng(1))
        assert _assert_matches_exact_rule(g, trees, extra,
                                          default_eps(len(trees), lam, g.n))

    @settings(max_examples=80, deadline=4000)
    @given(g=small_graphs(7), seed=st.integers(0, 2 ** 16),
           count=st.integers(0, 40),
           eps=st.floats(1e-6, 1.0) | st.sampled_from([1e-9, 0.5, 1.0]))
    def test_drawn_graphs(self, g, seed, count, eps):
        extra = sample_reachable_sequences(g, count, np.random.default_rng(seed))
        _assert_matches_exact_rule(g, tree_packing(g), extra, eps)


class _Draws:
    """Stand-in generator whose ``random()`` returns preset draws in turn,
    and ``random(size=k)`` the next ``k`` of them; ``taken`` counts them."""

    def __init__(self, draws):
        self._draws = iter(draws)
        self.taken = 0

    def random(self, size=None):
        if size is None:
            self.taken += 1
            return next(self._draws)
        block = np.array([next(self._draws) for _ in range(size)], dtype=float)
        self.taken += size
        return block


# Probabilities that make zero-width pairs and repeated running sums likely.
PROBS = st.sampled_from([0.0, 0.1, 0.125, 0.2, 1 / 3]) | st.floats(0, 0.25)


def _grid_draws(sums, extra=()):
    """Draws a generator can make: 0, the largest, the grid points nearest
    each of ``extra``, and at, just below and just above each of ``sums``
    (``_search_sums``: the first grid point at or above each running sum)."""
    points = {0, GRID - 1}
    points.update(int(x * GRID) for x in extra)
    for k in sums:
        points.update((k - 1, k, k + 1))
    return [k / GRID for k in sorted(points) if 0 <= k < GRID]


def _holding_every_set(g, table):
    state = VirtualQueueState(g)
    state.counts.update({fset: 1 for entry in table.entries for fset, _ in entry})
    return state


def _sent(pick, state):
    """The set a randomized pick of node set ``pick`` moves a packet from:
    none when the pick idles or the set's queue is empty."""
    if pick is not None and state.counts.get(pick, 0) >= 1:
        return pick
    return None


def _chunk_picks(table, eids, blocks, rng):
    """Per event of ``eids``, cut into chunks of the sizes ``blocks``, the
    node set of the pair ``randomized_picks`` picks, or None: its positions
    are ascending and distinct, one pair each, of the event's edge."""
    picks = []
    ends = table.search.ends
    chunks = np.split(np.array(eids, dtype=np.int64), np.cumsum(blocks)[:-1])
    for chunk in chunks:
        at, pairs = randomized_picks(table, chunk, rng)
        assert len(at) == len(pairs)
        assert (np.diff(at) > 0).all()
        row = [None] * len(chunk)
        for i, pair in zip(at.tolist(), pairs.tolist()):
            eid = chunk[i]
            assert ends[eid] - table.sizes[eid] <= pair < ends[eid]
            row[i] = int(table.fsets[pair])
        picks += row
    return picks


def _assert_picks_match_linear_cdf(g, table, state, eids, draws, blocks):
    """``randomized_picks`` over ``eids``, cut into ``blocks``, against
    ``linear_cdf_decide``: the same pair on a state holding every set, the
    same move on ``state``, and the same draws taken."""
    ours = _Draws(draws)
    picks = _chunk_picks(table, eids, blocks, ours)
    assert len(picks) == len(eids)
    every, exact, ref = _holding_every_set(g, table), _Draws(draws), _Draws(draws)
    for eid, pick in zip(eids, picks):
        assert pick == linear_cdf_decide(table, every, eid, exact)
        assert _sent(pick, state) == linear_cdf_decide(table, state, eid, ref)
    assert ours.taken == exact.taken == ref.taken


class TestRandomizedDecide:
    def test_empty_entry_idles(self, d4):
        table = build_randomized_table(d4, [BLUE], NONE, 0.1)
        state = VirtualQueueState(d4)
        state.admit(5)
        rng = np.random.default_rng(0)
        # Edge ca appears in no blue-tree pair, so its entry is empty.
        assert table.entries[CA] == ()
        assert randomized_decide(table, state, CA, rng) is None

    def test_empty_queue_idles(self, d4):
        table = build_randomized_table(d4, [BLUE, RED], NONE, 0.1)
        state = VirtualQueueState(d4)  # nothing admitted
        rng = np.random.default_rng(0)
        assert all(randomized_decide(table, state, e, rng) is None
                   for e in range(d4.m) for _ in range(20))

    def test_sampling_matches_table_mass(self, d4):
        eps = 0.2
        table = build_randomized_table(d4, [BLUE, RED], NONE, eps)
        state = VirtualQueueState(d4)
        state.admit(10 ** 6)
        rng = np.random.default_rng(42)
        draws = 20000
        hits = sum(randomized_decide(table, state, RA, rng) == R_
                   for _ in range(draws))
        expect = 1 - 3 * eps / 4
        sigma = (draws * expect * (1 - expect)) ** 0.5
        assert abs(hits - draws * expect) < 4 * sigma

    @settings(max_examples=60, deadline=2000)
    @given(g=small_graphs(7), seed=st.integers(0, 2 ** 16),
           count=st.integers(0, 8))
    def test_one_event_matches_linear_cdf_on_built_tables(self, g, seed, count):
        """The one-event decide on built tables, whose entries may be empty:
        the linear walk's set, with the generator left where one scalar
        ``random()`` leaves it, and untouched over an empty entry."""
        trees = tree_packing(g)
        rng = np.random.default_rng(seed)
        extra = sample_reachable_sequences(g, count, rng)
        table = build_randomized_table(
            g, trees, extra, default_eps(len(trees), len(trees) / 2, g.n))
        state = VirtualQueueState(g)
        for entry in table.entries:
            for fset, _ in entry:
                state.counts[fset] = int(rng.integers(2))
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for eid in list(range(g.m)) * 4:
            before = ours.bit_generator.state
            assert (randomized_decide(table, state, eid, ours)
                    == linear_cdf_decide(table, state, eid, ref))
            assert ours.bit_generator.state == ref.bit_generator.state
            if not table.entries[eid]:
                assert ours.bit_generator.state == before

    @settings(max_examples=60, deadline=2000)
    @given(g=small_graphs(7), seed=st.integers(0, 2 ** 16),
           blocks=st.lists(st.integers(0, 9), max_size=8))
    def test_matches_linear_cdf_on_built_tables(self, g, seed, blocks):
        """The block picker on built tables, whose entries may be empty, over
        blocks of any size (an empty one too), then the rest in one block;
        it takes the uniforms the scalar decides would, and no more."""
        trees = tree_packing(g)
        rng = np.random.default_rng(seed)
        extra = sample_reachable_sequences(g, 2 * g.m, rng)
        table = build_randomized_table(
            g, trees, extra, default_eps(len(trees), len(trees) / 2, g.n))
        state = VirtualQueueState(g)
        for entry in table.entries:
            for fset, _ in entry:
                state.counts[fset] = int(rng.integers(2))
        # Descending edge ids too, whose search keys come in descending order.
        eids = list(range(g.m)) * 4 + list(range(g.m - 1, -1, -1)) * 4
        cuts = np.cumsum(blocks, dtype=np.int64)
        sizes = np.diff(cuts[cuts <= len(eids)], prepend=0, append=len(eids))
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        picks = _chunk_picks(table, eids, sizes, ours)
        for eid, pick in zip(eids, picks, strict=True):
            assert _sent(pick, state) == linear_cdf_decide(table, state, eid, ref)
        assert ours.random() == ref.random()

    @settings(max_examples=150, deadline=2000)
    @given(probs=st.lists(PROBS, max_size=6), held=st.integers(0, 63),
           extra=st.lists(st.floats(0, 1, exclude_max=True), max_size=4))
    def test_matches_linear_cdf_at_every_boundary(self, probs, held, extra):
        """Draws at, just below and just above every running sum, including
        zero-width pairs and the residual (idle) mass, in one block and one
        event a block, in ascending and in descending order; an empty entry
        draws nothing."""
        # The head, node 7, lies in none of the sets.
        g = Digraph(8, [(0, 7)], 0)
        entry = tuple((1 << i, p) for i, p in enumerate(probs))
        table = table_from_entries((entry,), g)
        state = VirtualQueueState(g)
        state.counts.update({1 << i: 1 for i in range(6) if (held >> i) & 1})
        if not entry:
            none = _Draws([])
            assert _chunk_picks(table, [0] * 3, [3, 0], none) == [None] * 3
            assert none.taken == 0
            return
        ascending = _grid_draws(_search_sums(table, 0), extra)
        for draws in (ascending, ascending[::-1]):
            for blocks in ([len(draws)], [1] * len(draws)):
                _assert_picks_match_linear_cdf(g, table, state, [0] * len(draws),
                                               draws, blocks)

    def test_widest_table_keys_stay_exact(self):
        """600 entries, the most edges a 25-node simple digraph has: running
        sums ending at exactly 1.0 and at 1 + 1e-9, zero-width pairs and
        empty entries. The int64 keys neither overflow nor misorder."""
        g = Digraph(25, [(a, b) for a in range(25) for b in range(25) if a != b], 0)
        shapes = ((0.25, 0.25, 0.5), (0.5, 0.5 + 1e-9), (), (0.1, 0.0, 0.3),
                  (1.0,), (1 / 3, 1 / 3, 1 / 3 + 1e-9))
        entries = []
        for eid, (a, b) in enumerate(g.edges):
            others = [v for v in range(25) if v not in (a, b)]
            probs = shapes[eid % len(shapes)]
            entries.append(tuple((1 << a | 1 << others[j], p)
                                 for j, p in enumerate(probs)))
        table = table_from_entries(entries, g)
        keys = table.search.keys
        assert len(keys) == sum(map(len, entries))
        assert (np.diff(keys) >= 0).all() and keys[0] >= 0
        eids, draws = [], []
        for eid in range(g.m):
            grid = _grid_draws(_search_sums(table, eid))
            eids += [eid] * len(grid)
            draws += grid
        order = np.random.default_rng(0).permutation(len(eids))
        eids = [eids[i] for i in order]
        draws = [draws[i] for i in order]
        blocks = [1024] * (len(eids) // 1024) + [len(eids) % 1024]
        _assert_picks_match_linear_cdf(g, table, _holding_every_set(g, table),
                                       eids, draws, blocks)

    def test_search_refuses_a_pair_whose_head_lies_in_its_set(self):
        """Every pick must grow its set by exactly one node, as the settle
        takes the sets one size at a time: edge 1 (0 -> 2)'s second pair
        already holds node 2."""
        g = Digraph(3, [(0, 1), (0, 2)], 0)
        grows = ((0b001, 0.5),), ((0b001, 0.25), (0b011, 0.25))
        assert len(table_from_entries(grows, g).search.keys) == 3
        holds = ((0b001, 0.5),), ((0b001, 0.25), (0b101, 0.25))
        with pytest.raises(ConstructionError,
                           match="edge 1's head 2 already lies in node set 0x5"):
            table_from_entries(holds, g).search

    def test_search_refuses_more_edges_than_its_keys_hold(self):
        pairs = [(a, b) for a in range(33) for b in range(33) if a != b]
        widest = table_from_entries(((),) * 1023, Digraph(33, pairs[:1023], 0))
        assert len(widest.search.keys) == 0
        with pytest.raises(ValueError, match="at most 1023 edges"):
            table_from_entries(((),) * 1024, Digraph(33, pairs[:1024], 0)).search


class TestSampledSequences:
    def test_valid_and_deterministic(self, d4):
        seqs = sample_reachable_sequences(d4, 16, np.random.default_rng(9))
        again = sample_reachable_sequences(d4, 16, np.random.default_rng(9))
        assert sequence_rows(seqs) == sequence_rows(again)
        assert seqs[0].shape == seqs[1].shape == (16, 3)
        assert seqs[0].dtype == seqs[1].dtype == np.int64
        assert all(validate_reachable_sequence(d4, s) for s in sequence_rows(seqs))

    def test_unreachable_graph_rejected(self):
        g = Digraph(3, [(0, 1), (2, 1)], 0)
        with pytest.raises(ValueError):
            sample_reachable_sequences(g, 1, np.random.default_rng(0))

    def test_refuses_more_nodes_than_int64_sets_hold(self):
        rng = np.random.default_rng(0)
        assert sample_reachable_sequences(path_graph(63), 1, rng)[0].shape == (1, 62)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="at most 63, got 64"):
            sample_reachable_sequences(path_graph(64), 1, rng)
        assert rng.bit_generator.state == before

    @staticmethod
    def _assert_matches_oracle(g, count, seed):
        """Same sequences as the rescanning oracle, or the same
        unreachable-node error, and the same generator state afterwards. One scalar
        ``integers(5)`` first leaves PCG64 holding a buffered half-word,
        which the block draws must carry in and out; ``random()`` would read
        a fresh 64-bit output and miss it."""
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        outcomes = []
        for sample, rng in ((sample_reachable_sequences, ours),
                            (rescanning_sample_sequences, ref)):
            rng.integers(5)
            try:
                seqs = sample(g, count, rng)
            except ValueError as exc:
                outcomes.append(("error", str(exc)))
                continue
            outcomes.append(seqs if isinstance(seqs, list) else sequence_rows(seqs))
        assert outcomes[0] == outcomes[1]
        assert ours.bit_generator.state == ref.bit_generator.state
        assert ours.integers(7) == ref.integers(7)

    @settings(max_examples=150, deadline=2000)
    @given(g=st.one_of(small_graphs(7), any_digraphs(7)),
           seed=st.integers(0, 2 ** 16), count=st.integers(0, 12))
    def test_matches_rescanning_oracle(self, g, seed, count):
        """``any_digraphs`` adds antiparallel pairs, where a joining node's
        out-edge can point back into the set, and unreachable nodes."""
        self._assert_matches_oracle(g, count, seed)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_rescanning_oracle_complete_bidirectional(self, seed):
        # 132 edges: the boundary mask spans more than two 64-bit words.
        g = Digraph(12, [(a, b) for a in range(12) for b in range(12) if a != b], 0)
        self._assert_matches_oracle(g, 60, seed)

    @pytest.mark.parametrize("spec,count", [
        ("random(25,200,1)", 800),  # ~19,000 words: many blocks
        ("diamond4", 40),
        ("random(12,30,3)", 0),
        # Capacity 1: a one-edge boundary reads its word and takes edge 0.
        ("random(12,30,3)", 120),
        ("random(25,40,2)", 160),
    ])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_rescanning_oracle_fixed(self, spec, count, seed):
        self._assert_matches_oracle(resolve_graph(spec), count, seed)

    @staticmethod
    def _straddling_graph(m: int, lone: bool) -> Digraph:
        """A graph of ``m`` edges whose source out-edges take the ids around
        64, so the first boundary straddles the first two words (for m > 64;
        at m <= 64 they take word 0's top bits). With ``lone``, one more
        node hangs off the last by a single edge, so the capacity is 1."""
        n = 12 if m < 100 else 17
        g = random_digraph(n, m - lone, m)
        edges = [*g.edges, *[(n - 1, n)] * lone]
        out = [e for e in edges if e[0] == 0]
        rest = [e for e in edges if e[0] != 0]
        at = min(64 - len(out) // 2, m - len(out))
        return Digraph(n + lone, rest[:at] + out + rest[at:], 0)

    @pytest.mark.parametrize("m", [63, 64, 65, 127, 128, 129])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_rescanning_oracle_across_word_boundaries(self, m, seed):
        """One, two and three boundary words, the top word empty at m = 64
        and m = 128."""
        g = self._straddling_graph(m, False)
        ids = out_edges(g, g.source_mask)
        assert g.m == m and (max(ids) < 64 if m <= 64 else min(ids) < 64 <= max(ids))
        self._assert_matches_oracle(g, 3 * m, seed)

    @pytest.mark.parametrize("m, seed", [(65, 0), (65, 6), (128, 0), (128, 2)])
    def test_matches_rescanning_oracle_with_a_lone_edge(self, m, seed):
        """A capacity-1 graph of two and three words: every row's last step
        crosses the lone node's one edge."""
        g = self._straddling_graph(m, True)
        assert g.m == m and broadcast_capacity(g) == 1
        self._assert_matches_oracle(g, 3 * m, seed)

    def test_single_edge_boundaries_read_their_words(self):
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        rng.integers(5)
        ref.integers(5)
        seqs = sample_reachable_sequences(path_graph(5), 30, rng)
        assert sequence_rows(seqs) == [tuple((2 ** (i + 1) - 1, i) for i in range(4))] * 30
        ref.integers(0, 1 << 32, size=120, dtype=np.uint32)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_unreachable_node_leaves_scalar_state(self):
        g = Digraph(4, [(0, 1), (0, 2), (1, 2), (3, 1)], 0)
        ours, ref = np.random.default_rng(3), np.random.default_rng(3)
        with pytest.raises(ValueError):
            sample_reachable_sequences(g, 2, ours)
        with pytest.raises(ValueError):
            rescanning_sample_sequences(g, 2, ref)
        assert ours.bit_generator.state == ref.bit_generator.state


class _Words:
    """Stand-in generator serving preset 32-bit words in turn:
    ``integers(0, 2**32, size=size, dtype=np.uint32)`` the next ``size``.
    ``position`` counts the words served; it has no ``bit_generator``, so
    a sampler that reset its generator would fail on it."""

    def __init__(self, words):
        self.words = [int(w) for w in words]
        self.position = 0

    def integers(self, low, high, size, dtype):
        assert (low, high, dtype) == (0, 1 << 32, np.uint32)
        count = int(np.prod(size))
        block = self.words[self.position:self.position + count]
        assert len(block) == count, "the stand-in ran out of words"
        self.position += count
        return np.array(block, dtype=np.uint32).reshape(size)


class TestLockstepRedraw:
    """The sampler against the rescanning oracle fed the same words. On the
    complete bidirectional 6-node graph every boundary has at least 5 edges,
    so no step redraws unless a word is forced: a word of 0 is redrawn for
    the 5 edges out of the source, and a word whose product's low half
    equals the threshold is kept."""

    G = Digraph(6, [(a, b) for a in range(6) for b in range(6) if a != b], 0)
    ROWS = 8

    def _words(self, forced, steps=5):
        # A few words past the block, for the redraws.
        words = np.random.default_rng(3).integers(
            1, 1 << 32, size=self.ROWS * steps + 8, dtype=np.uint32).tolist()
        for position, word in forced.items():
            words[position] = word
        return words

    def _assert_matches_oracle(self, words, g=G):
        ours, ref = _Words(words), _Words(words)
        got = sequence_rows(sample_reachable_sequences(g, self.ROWS, ours))
        assert got == rescanning_sample_sequences(g, self.ROWS, ref)
        assert ours.position == ref.position
        return got, ours.position

    def test_without_a_redraw_one_block_is_served(self):
        assert self._assert_matches_oracle(self._words({}))[1] == self.ROWS * 5

    @pytest.mark.parametrize("row", [0, 3, ROWS - 1])
    def test_a_redraw_takes_a_fresh_word(self, row):
        words = self._words({row * 5: 0})
        got, position = self._assert_matches_oracle(words)
        assert position == self.ROWS * 5 + 1
        # The first word after the block, over the source's 5 out-edges.
        assert got[row][0][1] == out_edges(self.G, 1)[words[self.ROWS * 5] * 5 >> 32]

    @pytest.mark.parametrize("row", [0, 3, ROWS - 1])
    def test_a_redraw_in_a_later_step(self, row):
        """Step 2 crosses out of a 3-node set, a boundary of 9 edges."""
        _, position = self._assert_matches_oracle(self._words({row * 5 + 2: 0}))
        assert position == self.ROWS * 5 + 1

    def test_redraws_go_round_by_round_in_row_order(self):
        """Rows 1 and 6 redraw; row 1's fresh word is 0 again, so row 6
        takes the second fresh word and row 1 the third."""
        words = self._words({1 * 5: 0, 6 * 5: 0, self.ROWS * 5: 0})
        got, position = self._assert_matches_oracle(words)
        assert position == self.ROWS * 5 + 3
        first = out_edges(self.G, 1)
        assert got[6][0][1] == first[words[self.ROWS * 5 + 1] * 5 >> 32]
        assert got[1][0][1] == first[words[self.ROWS * 5 + 2] * 5 >> 32]

    def test_each_row_redraws_over_its_own_boundary(self):
        """Every row's step 1 word is 0. The node the source reaches first
        sets the next boundary's size, 3 or 5 here, neither a power of two,
        so every row redraws over a boundary that differs between rows."""
        g = Digraph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4)], 0)
        words = self._words({row * 4 + 1: 0 for row in range(self.ROWS)}, steps=4)
        got, position = self._assert_matches_oracle(words, g)
        assert position == self.ROWS * 4 + self.ROWS
        assert len({len(out_edges(g, row[1][0])) for row in got}) == 2

    def test_a_zero_word_over_a_power_of_two_boundary_is_kept(self):
        """Step 1 crosses out of a 2-node set, a boundary of 8 edges, whose
        threshold (2**32 - 8) % 8 is 0: no word is redrawn there."""
        assert self._assert_matches_oracle(self._words({3 * 5 + 1: 0}))[1] == self.ROWS * 5

    def test_low_half_at_the_threshold_is_kept(self):
        k = 5
        threshold = ((1 << 32) - k) % k
        word = threshold * pow(k, -1, 1 << 32) % (1 << 32)
        assert word * k % (1 << 32) == threshold
        assert self._assert_matches_oracle(self._words({3 * 5: word}))[1] == self.ROWS * 5


def test_one_class_per_packet_matches_max_weight(d4):
    """With every packet in its own class, the multi-class rule and the
    virtual-queue max-weight rule pick actions of identical weight on every
    mini-slot (not necessarily identical packets)."""
    state = MultiClassState(d4, 1, iter(()))  # class 0 stays empty
    rng = np.random.default_rng(123)
    for _ in range(2500):
        if rng.random() < 0.3:
            # Open a fresh class for the arriving packet.
            state.highest.append([0] * d4.n)
            state.inflight.append([])
            admit_class(state, len(state.highest) - 1)
        eid = int(rng.integers(d4.m))
        c = multiclass_decide(state, eid)
        fset = max_weight_decide(state, eid)
        if c is None:
            assert fset is None
        else:
            assert fset is not None
            # The head-of-line packet of the chosen class must have the
            # max-weight differential in the queue counts (a full set reads 0).
            j = d4.edges[eid][1]
            p = state.highest[c][j] + 1
            chosen = packet_set(state, c, p)
            assert state.inflight[c][p - 1 - state.highest[c][d4.source]] == chosen
            nxt = chosen | 1 << j
            counts = state.counts
            w = counts.get(chosen, 0) - (
                0 if nxt == d4.full_mask else counts.get(nxt, 0))
            assert w == counts[fset] - counts.get(fset | 1 << j, 0)
            multiclass_apply(state, c, eid)


def test_multiclass_edge_weight_floor(d4):
    state = mc_state(d4, [[2, 2, 1, 0]])
    # Only candidate move over ab has weight 0; floored result is 0.
    assert in_order_rules(state)[2](AB) == 0
    state2 = mc_state(d4, [[3, 0, 0, 0]])
    assert in_order_rules(state2)[2](RA) == 3
