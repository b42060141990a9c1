import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcastsim import (Arborescence, ConstructionError, Digraph,
                      SchedulingError, broadcast_capacity, tree_packing)
from bcastsim.policies import (MultiClassState, RandomizedTable, assign_class,
                               best_transition, build_randomized_table,
                               default_eps, edge_weight, max_weight_decide,
                               multiclass_apply, multiclass_decide,
                               randomized_decide, sample_reachable_sequences,
                               static_tree_decide)
from bcastsim.queues import VirtualQueueState

from conftest import (AB, BC, CA, R_, RA, RAB, RAC, RA_SET, RB, RBC, RC,
                      RC_SET, small_graphs)
from oracles import (PacketLedger, count_exactly_at, linear_cdf_decide,
                     rescanning_sample_sequences, validate_reachable_sequence)

BLUE = Arborescence((RA, AB, BC))
RED = Arborescence((RB, RC, CA))


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

    def test_best_transition_reports_weight(self, d4):
        state = VirtualQueueState(d4)
        state.counts.update({R_: 4, RA_SET: 1})
        assert best_transition(state, RA) == (R_, 3)


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
    class's arrival count."""
    state = MultiClassState(g, len(rows))
    state.highest = [list(row) for row in rows]
    # Rebuild the mirror from the rows it must summarize.
    state.mirror.admitted = sum(row[g.source] for row in rows)
    for gset in range(1, 1 << g.n):
        cnt = count_exactly_at(state, gset)
        if cnt:
            if gset == g.full_mask:
                state.mirror.delivered = cnt
            else:
                state.mirror.counts[gset] = cnt
    assert state.histogram() == (state.mirror.counts, state.mirror.delivered)
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
        assert state.mirror.counts == {RA_SET: 1, RAB: 1}
        assert multiclass_decide(state, AB) is None

    def test_tie_breaks_to_lowest_class(self, d4):
        state = mc_state(d4, [[1, 1, 0, 0], [1, 1, 0, 0]])
        assert multiclass_decide(state, AB) == 0

    def test_final_hop_weight_ignores_delivered(self, d4):
        # Many packets already delivered; the last hop must stay attractive.
        state = mc_state(d4, [[9, 9, 9, 8]])
        assert state.mirror.delivered == 8
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

    def test_mirror_stays_in_step(self, d4):
        state = MultiClassState(d4, 2)
        rng = np.random.default_rng(3)
        for _ in range(400):
            if rng.random() < 0.3:
                state.admit_packet(assign_class(rng, 2))
            eid = int(rng.integers(d4.m))
            c = multiclass_decide(state, eid)
            if c is not None:
                multiclass_apply(state, c, eid)
            for gset in range(1, 1 << d4.n):
                expect = count_exactly_at(state, gset)
                if gset == d4.full_mask:
                    assert state.mirror.delivered == expect
                else:
                    assert state.mirror.counts.get(gset, 0) == expect
            assert state.histogram() == (state.mirror.counts, state.mirror.delivered)


# Each op admits a packet (first entry 0) or activates an edge; the second
# entry picks the class or the edge.
MOVES = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2 ** 16)), max_size=80)


@pytest.mark.parametrize("policy", ["multiclass", "static-tree"])
@settings(max_examples=200, deadline=2000)
@given(g=small_graphs(), classes=st.integers(1, 4), moves=MOVES)
def test_histogram_matches_mirror_and_ledger(policy, g, classes, moves):
    """After every move of either in-order policy, the histogram rebuilt from
    the index matrix equals the incremental mirror and a per-packet ledger."""
    trees = tree_packing(g)
    state = MultiClassState(g, classes if policy == "multiclass" else len(trees))
    ledger = PacketLedger(g)
    for kind, pick in moves:
        if kind == 0:
            c = pick % state.k
            state.admit_packet(c)
            ledger.admit(c, state.highest[c][g.source])
        else:
            eid = pick % g.m
            if policy == "multiclass":
                c = multiclass_decide(state, eid)
            else:
                c = static_tree_decide(state, trees, eid)
            if c is not None:
                j = g.edges[eid][1]
                ledger.move(c, state.highest[c][j] + 1, j)
                multiclass_apply(state, c, eid)
        counts, delivered = state.histogram()
        assert (counts, delivered) == (state.mirror.counts, state.mirror.delivered)
        assert counts == ledger.histogram()
        assert delivered == ledger.delivered()


class TestStaticTree:
    def test_edge_owned_by_blue_tree(self, d4):
        state = mc_state(d4, [[3, 2, 1, 0], [3, 0, 1, 1]])
        assert static_tree_decide(state, [BLUE, RED], AB) == 0

    def test_ineligible_owner_idles_instead_of_borrowing(self, d4):
        # Class 0 owns ab but its head packet is not at a yet.
        state = mc_state(d4, [[3, 0, 0, 0], [3, 3, 3, 3]])
        assert static_tree_decide(state, [BLUE, RED], AB) is None

    def test_edge_on_no_tree(self):
        g = Digraph(3, [(0, 1), (0, 2), (1, 2)], 0)
        trees = tree_packing(g)
        assert broadcast_capacity(g) == 1
        unused = [e for e in range(g.m) if e not in trees[0].edge_set]
        state = mc_state(g, [[2, 0, 0]])
        for eid in unused:
            assert static_tree_decide(state, trees, eid) is None

    def test_only_forwards_over_own_tree(self, d4):
        state = MultiClassState(d4, 2)
        rng = np.random.default_rng(11)
        trees = [BLUE, RED]
        for _ in range(600):
            if rng.random() < 0.4:
                state.admit_packet(assign_class(rng, 2))
            eid = int(rng.integers(d4.m))
            c = static_tree_decide(state, trees, eid)
            if c is not None:
                assert eid in trees[c].edge_set
                multiclass_apply(state, c, eid)


class TestRandomizedTable:
    def test_tree_only_probabilities(self, d4):
        eps = 0.08
        table = build_randomized_table(d4, [BLUE, RED], [], eps)
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
            build_randomized_table(d4, [BLUE, RED], [], 2.0)
        with pytest.raises(ConstructionError):
            build_randomized_table(d4, [BLUE, RED], [], 0.0)

    def test_csv_rows(self, d4):
        table = build_randomized_table(d4, [BLUE, RED], [], 0.1)
        rows = list(table.csv_rows())
        assert rows[0] == "edge,bits,probability"
        assert len(rows) == 1 + 6

    def test_default_eps(self):
        assert default_eps(2, 1.9, 4) == pytest.approx(0.05)
        assert default_eps(2, 2.4, 4) == pytest.approx(1 / 16)


class _Draws:
    """Stand-in generator whose ``random()`` returns preset draws in turn."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def random(self):
        return next(self._draws)


# Probabilities that make zero-width pairs and repeated running sums likely.
PROBS = st.sampled_from([0.0, 0.1, 0.125, 0.2, 1 / 3]) | st.floats(0, 0.25)


class TestRandomizedDecide:
    def test_empty_entry_idles(self, d4):
        table = build_randomized_table(d4, [BLUE], [], 0.1)
        state = VirtualQueueState(d4)
        state.admit(5)
        rng = np.random.default_rng(0)
        # Edge ca appears in no blue-tree pair, so its entry is empty.
        assert table.entries[CA] == ()
        assert randomized_decide(table, state, CA, rng) is None

    def test_empty_queue_idles(self, d4):
        table = build_randomized_table(d4, [BLUE, RED], [], 0.1)
        state = VirtualQueueState(d4)  # nothing admitted
        rng = np.random.default_rng(0)
        assert all(randomized_decide(table, state, e, rng) is None
                   for e in range(d4.m) for _ in range(20))

    def test_sampling_matches_table_mass(self, d4):
        eps = 0.2
        table = build_randomized_table(d4, [BLUE, RED], [], eps)
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
    @given(g=small_graphs(7), seed=st.integers(0, 2 ** 16))
    def test_matches_linear_cdf_on_built_tables(self, g, seed):
        trees = tree_packing(g)
        rng = np.random.default_rng(seed)
        extra = sample_reachable_sequences(g, 2 * g.m, rng)
        table = build_randomized_table(
            g, trees, extra, default_eps(len(trees), len(trees) / 2, g.n))
        state = VirtualQueueState(g)
        for entry in table.entries:
            for fset, _ in entry:
                state.counts[fset] = int(rng.integers(2))
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(8):
            for eid in range(g.m):
                assert (randomized_decide(table, state, eid, ours)
                        == linear_cdf_decide(table, state, eid, ref))
        assert ours.random() == ref.random()

    @settings(max_examples=150, deadline=2000)
    @given(probs=st.lists(PROBS, max_size=6), held=st.integers(0, 63),
           extra=st.lists(st.floats(0, 1, exclude_max=True), max_size=4))
    def test_matches_linear_cdf_at_every_boundary(self, probs, held, extra):
        """Draws at, just below and just above every running sum, including
        zero-width pairs and the residual (idle) mass."""
        entry = tuple((1 << i, p) for i, p in enumerate(probs))
        table = RandomizedTable((entry,))
        state = VirtualQueueState(Digraph(2, [(0, 1)], 0))
        state.counts.update({1 << i: 1 for i in range(6) if (held >> i) & 1})
        if not entry:
            assert randomized_decide(table, state, 0, _Draws([])) is None
            return
        draws = list(extra) + [0.0]
        for c in table.cum[0]:
            draws += [c, np.nextafter(c, 0.0), np.nextafter(c, 1.0)]
        for u in draws:
            assert (randomized_decide(table, state, 0, _Draws([u]))
                    == linear_cdf_decide(table, state, 0, _Draws([u])))


class TestSampledSequences:
    def test_valid_and_deterministic(self, d4):
        seqs = sample_reachable_sequences(d4, 16, np.random.default_rng(9))
        again = sample_reachable_sequences(d4, 16, np.random.default_rng(9))
        assert seqs == again
        assert all(validate_reachable_sequence(d4, s) for s in seqs)

    def test_unreachable_graph_rejected(self):
        g = Digraph(3, [(0, 1), (2, 1)], 0)
        with pytest.raises(ValueError):
            sample_reachable_sequences(g, 1, np.random.default_rng(0))

    @settings(max_examples=80, deadline=2000)
    @given(g=small_graphs(7), seed=st.integers(0, 2 ** 16),
           count=st.integers(0, 12))
    def test_matches_rescanning_oracle(self, g, seed, count):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert (sample_reachable_sequences(g, count, ours)
                == rescanning_sample_sequences(g, count, ref))
        assert ours.random() == ref.random()


def test_one_class_per_packet_matches_max_weight(d4):
    """With every packet in its own class, the multi-class rule and the
    virtual-queue max-weight rule pick actions of identical weight on every
    mini-slot (not necessarily identical packets)."""
    state = MultiClassState(d4, 1)  # class 0 stays empty
    rng = np.random.default_rng(123)
    for _ in range(2500):
        if rng.random() < 0.3:
            # Open a fresh class for the arriving packet.
            state.highest.append([0] * d4.n)
            state.k += 1
            state.admit_packet(state.k - 1)
        eid = int(rng.integers(d4.m))
        c = multiclass_decide(state, eid)
        fset = max_weight_decide(state.mirror, eid)
        if c is None:
            assert fset is None
        else:
            assert fset is not None
            # The head-of-line packet of the chosen class must have the
            # max-weight differential in the mirror (a full set reads 0).
            j = d4.edges[eid][1]
            chosen = state.packet_set(c, state.highest[c][j] + 1)
            nxt = chosen | 1 << j
            counts = state.mirror.counts
            w = counts.get(chosen, 0) - (
                0 if nxt == d4.full_mask else counts.get(nxt, 0))
            assert w == best_transition(state.mirror, eid)[1]
            multiclass_apply(state, c, eid)


def test_multiclass_edge_weight_floor(d4):
    state = mc_state(d4, [[2, 2, 1, 0]])
    # Only candidate move over ab has weight 0; floored result is 0.
    assert edge_weight(state, AB) == 0
    state2 = mc_state(d4, [[3, 0, 0, 0]])
    assert edge_weight(state2, RA) == 3
