from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcastsim import (Arborescence, ConstructionError, Digraph,
                      SchedulingError, broadcast_capacity, tree_packing)
from bcastsim.cli import resolve_graph
from bcastsim.fixtures import path_graph
from bcastsim.policies import (MultiClassState, RandomizedTable,
                               _bounded_indices, build_randomized_table,
                               default_eps, edge_weight, max_weight_decide,
                               multiclass_apply, multiclass_decide,
                               randomized_decide, randomized_picks,
                               sample_reachable_sequences, static_tree_decide,
                               tree_owners)
from bcastsim.queues import VirtualQueueState

from conftest import (AB, BC, CA, R_, RA, RAB, RAC, RA_SET, RB, RBC, RC,
                      RC_SET, any_digraphs, small_graphs)
from oracles import (PacketLedger, admit_class, assign_class,
                     count_exactly_at, exact_randomized_table,
                     linear_cdf_decide, packet_set,
                     ranking_best_transition, rebuilding_multiclass_best,
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
    """``admit`` and ``multiclass_apply`` are the only writers of an in-order
    state, and neither lets the queue counts leave the indices behind."""

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
        with pytest.raises(SchedulingError):
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
        with pytest.raises(ValueError):
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
    choice and edge weight on every edge equal the positive pair of the
    oracle that rebuilds each head-of-line set, or (None, 0) without one."""
    trees = tree_packing(g)
    owner = tree_owners(g, trees)
    state = MultiClassState(g, classes if policy == "multiclass" else len(trees),
                            iter(()))
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
            assert (multiclass_decide(state, e), edge_weight(state, e)) == expected


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
        with pytest.raises(ConstructionError):
            build_randomized_table(d4, [BLUE, RED], [], float("nan"))

    def test_csv_rows(self, d4):
        table = build_randomized_table(d4, [BLUE, RED], [], 0.1)
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
    keys, _, sizes, ends = table.search
    return [int(k) - eid * (GRID + 1) for k in keys[ends[eid] - sizes[eid]:ends[eid]]]


def _assert_matches_exact_rule(g, trees, extra, eps):
    """The engine's table holds the exact rule's pairs, in set order, with
    each probability equal to it within float rounding and each running sum
    the search keys within float rounding plus the keys' 2**-53 grid; or
    the engine refuses the table exactly where the rule does. Returns the
    table, or None on a refusal."""
    try:
        exact = exact_randomized_table(g, trees, extra, eps)
    except ValueError:
        with pytest.raises(ConstructionError):
            build_randomized_table(g, trees, extra, eps)
        return None
    table = build_randomized_table(g, trees, extra, eps)
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
        assert _assert_matches_exact_rule(d4, [BLUE, RED], [], 2.0) is None
        assert _assert_matches_exact_rule(d4, [BLUE, BLUE], [], 0.1) is None

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
    """The set the randomized step moves on ``pick``: none when the pick
    idles or the set's queue is empty."""
    if pick is not None and state.counts.get(pick[0], 0) >= 1:
        return pick[0]
    return None


def _assert_picks_match_linear_cdf(g, table, state, eids, draws, blocks):
    """``randomized_picks`` over ``eids``, cut into ``blocks``, against
    ``linear_cdf_decide``: the same pair on a state holding every set, the
    same move on ``state``, the grown set, and the same draws taken."""
    ours = _Draws(draws)
    edge_blocks = np.split(np.array(eids, dtype=np.int64), np.cumsum(blocks)[:-1])
    picks = list(randomized_picks(table, g, edge_blocks, ours))
    assert len(picks) == len(eids)
    every, exact, ref = _holding_every_set(g, table), _Draws(draws), _Draws(draws)
    for eid, pick in zip(eids, picks):
        chosen = None if pick is None else pick[0]
        assert chosen == linear_cdf_decide(table, every, eid, exact)
        assert _sent(pick, state) == linear_cdf_decide(table, state, eid, ref)
        if pick is not None:
            assert pick[1] == pick[0] | 1 << g.edges[eid][1]
    assert ours.taken == exact.taken == ref.taken


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
        eids = list(range(g.m)) * 8
        cuts = np.cumsum(blocks, dtype=np.int64)
        edge_blocks = np.split(np.array(eids, dtype=np.int64), cuts[cuts <= len(eids)])
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        picks = list(randomized_picks(table, g, edge_blocks, ours))
        for eid, pick in zip(eids, picks, strict=True):
            assert _sent(pick, state) == linear_cdf_decide(table, state, eid, ref)
        assert ours.random() == ref.random()

    @settings(max_examples=150, deadline=2000)
    @given(probs=st.lists(PROBS, max_size=6), held=st.integers(0, 63),
           extra=st.lists(st.floats(0, 1, exclude_max=True), max_size=4))
    def test_matches_linear_cdf_at_every_boundary(self, probs, held, extra):
        """Draws at, just below and just above every running sum, including
        zero-width pairs and the residual (idle) mass, in one block and one
        event a block; an empty entry draws nothing."""
        entry = tuple((1 << i, p) for i, p in enumerate(probs))
        table = RandomizedTable((entry,))
        g = Digraph(2, [(0, 1)], 0)
        state = VirtualQueueState(g)
        state.counts.update({1 << i: 1 for i in range(6) if (held >> i) & 1})
        if not entry:
            none = _Draws([])
            blocks = [np.zeros(3, dtype=np.int64), np.zeros(0, dtype=np.int64)]
            assert list(randomized_picks(table, g, blocks, none)) == [None] * 3
            assert none.taken == 0
            return
        draws = _grid_draws(_search_sums(table, 0), extra)
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
        table = RandomizedTable(tuple(entries))
        keys = table.search[0]
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

    def test_search_refuses_more_edges_than_its_keys_hold(self):
        assert len(RandomizedTable(((),) * 1023).search[0]) == 0
        with pytest.raises(ValueError, match="at most 1023 edges"):
            RandomizedTable(((),) * 1024).search


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

    @staticmethod
    def _assert_matches_oracle(g, count, seed):
        """Same sequences as the scalar oracle, or the same unreachable-node
        error, and the same generator state afterwards. One scalar
        ``integers(5)`` first leaves PCG64 holding a buffered half-word,
        which the block draws must carry in and out; ``random()`` would read
        a fresh 64-bit output and miss it."""
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        outcomes = []
        for sample, rng in ((sample_reachable_sequences, ours),
                            (rescanning_sample_sequences, ref)):
            rng.integers(5)
            try:
                outcomes.append(sample(g, count, rng))
            except ValueError as exc:
                outcomes.append(("error", str(exc)))
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
    ])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_rescanning_oracle_fixed(self, spec, count, seed):
        self._assert_matches_oracle(resolve_graph(spec), count, seed)

    def test_single_edge_boundaries_draw_no_word(self):
        rng = np.random.default_rng(4)
        rng.integers(5)
        before = rng.bit_generator.state
        seqs = sample_reachable_sequences(path_graph(5), 30, rng)
        assert seqs == [tuple((2 ** (i + 1) - 1, i) for i in range(4))] * 30
        assert rng.bit_generator.state == before

    def test_unreachable_node_leaves_scalar_state(self):
        g = Digraph(4, [(0, 1), (0, 2), (1, 2), (3, 1)], 0)
        ours, ref = np.random.default_rng(3), np.random.default_rng(3)
        with pytest.raises(ValueError):
            sample_reachable_sequences(g, 2, ours)
        with pytest.raises(ValueError):
            rescanning_sample_sequences(g, 2, ref)
        assert ours.bit_generator.state == ref.bit_generator.state


class TestBoundedIndices:
    """``_bounded_indices`` replays numpy's bounded rule for ``integers(k)``.
    Near k = 2**31 a large share of words is rejected and redrawn, which
    sampled boundaries (k <= 200) almost never see. The even k make a
    threshold one too high (or ``<=`` for ``<``) reject whole residue
    classes; k = 1 must take no word."""

    @pytest.mark.parametrize("k", [1, 2 ** 31 + 1, 3 * 2 ** 30 + 1, 2 ** 31,
                                   3 * 2 ** 30, 200])
    def test_equals_scalar_integers(self, k):
        ours, ref = np.random.default_rng(k % 1009), np.random.default_rng(k % 1009)
        for rng in (ours, ref):
            rng.integers(5)
        with _bounded_indices(ours) as index:
            drawn = [index(k) for _ in range(2000)]
        assert drawn == [int(ref.integers(k)) for _ in range(2000)]
        assert ours.bit_generator.state == ref.bit_generator.state


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
    assert edge_weight(state, AB) == 0
    state2 = mc_state(d4, [[3, 0, 0, 0]])
    assert edge_weight(state2, RA) == 3
