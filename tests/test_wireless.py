import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcastsim import CapabilityError, Digraph, ParseError, sim, wireless
from bcastsim.cli import build_activation, resolve_graph
from bcastsim.policies import (MultiClassState, edge_weight, in_order_rules,
                               max_weight_decide, multiclass_apply, multiclass_decide)
from bcastsim.queues import VirtualQueueState
from bcastsim.sim import SimConfig, received_csv, run, run_csv
from bcastsim.wireless import (ActivationFamily, _conflicts, choose_activation,
                               make_family, parse_activation_family,
                               primary_interference_family, wireline_family)

from conftest import R_, RA, RA_SET, RB, small_graphs
from oracles import (admit_class, assign_class, brute_matchings, pairwise_conflicts,
                     replay_in_order, replay_max_weight, scanning_choose_activation)

TRIANGLE = Digraph(3, [(0, 1), (1, 2), (2, 0)], 0)
TWO_DISJOINT = Digraph(4, [(0, 1), (2, 3)], 0)


class TestFamilyType:
    def test_empty_set_required(self):
        with pytest.raises(ValueError):
            ActivationFamily(2, (0b01,))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            ActivationFamily(2, (0, 0b01, 0b01))

    def test_out_of_range_mask(self):
        with pytest.raises(ValueError):
            ActivationFamily(1, (0, 0b10))

    def test_make_family_prepends_empty(self):
        fam = make_family(2, [0b01])
        assert fam.masks == (0, 0b01)

    def test_wireline(self):
        assert wireline_family(3).masks == (0, 0b111)
        assert wireline_family(0).masks == (0,)

    def test_holders(self):
        fam = ActivationFamily(3, (0b011, 0, 0b100))
        assert [h.tolist() for h in fam.holders] == [[0], [0], [2]]
        assert all(h.dtype == np.int64 for h in fam.holders)
        assert wireline_family(0).holders == ()


class TestPrimaryInterference:
    def test_triangle_only_singletons(self):
        fam = primary_interference_family(TRIANGLE)
        assert sorted(fam.masks) == [0b000, 0b001, 0b010, 0b100]

    def test_two_disjoint_edges(self):
        fam = primary_interference_family(TWO_DISJOINT)
        assert fam.masks == (0, 0b11)

    def test_diamond_matches_brute_force(self, d4):
        fam = primary_interference_family(d4)
        every = set(brute_matchings(d4))
        maximal = {m for m in every
                   if not any(m != o and m & o == m for o in every)}
        assert set(fam.masks) == maximal | {0}
        assert fam.masks[0] == 0

    def test_direction_ignored_for_conflicts(self):
        # Head-to-head edges still conflict.
        g = Digraph(3, [(0, 1), (2, 1)], 0)
        fam = primary_interference_family(g)
        assert 0b11 not in fam.masks

    def test_guard(self):
        n = 22
        g = Digraph(n, [(0, i) for i in range(1, n)], 0)
        fam = primary_interference_family(g)
        # A star admits no two compatible edges: singletons are the maxima.
        assert len(fam.masks) == g.m + 1 == 22

    def test_member_cap(self, monkeypatch):
        g = resolve_graph("random(12,30,3)")  # 714 maximal matchings
        monkeypatch.setattr(wireless, "MAX_FAMILY_MEMBERS", 715)
        assert len(primary_interference_family(g).masks) == 715
        monkeypatch.setattr(wireless, "MAX_FAMILY_MEMBERS", 714)
        with pytest.raises(CapabilityError, match="capped at 714 members"):
            primary_interference_family(g)

    @pytest.mark.parametrize("spec", ["diamond4", "star6", "random(12,30,3)"])
    def test_both_spellings_build_one_family(self, spec):
        g = resolve_graph(spec)
        assert (build_activation("primary", g).masks
                == build_activation("primary-maximal", g).masks)

    @settings(max_examples=200, deadline=2000)
    @given(g=small_graphs(7), data=st.data())
    def test_conflicts_match_the_pairwise_oracle(self, g, data):
        # Add the reverse of some edges, so that antiparallel pairs occur.
        back = data.draw(st.lists(st.sampled_from(g.edges), unique=True))
        g = Digraph(g.n, [*g.edges, *((b, a) for a, b in back)], g.source)
        assert _conflicts(g) == pairwise_conflicts(g)


class TestParseFamily:
    def test_round_trip(self):
        text = "-\n0\n1\n0 3\n# comment\n"
        fam = parse_activation_family(text, 4)
        assert fam.masks == (0, 0b0001, 0b0010, 0b1001)

    def test_empty_set_added_when_missing(self):
        fam = parse_activation_family("0 1\n", 2)
        assert fam.masks == (0, 0b11)

    def test_bad_edge_id(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_activation_family("7\n", 3)

    def test_repeated_edge_in_line(self):
        with pytest.raises(ParseError, match="repeated"):
            parse_activation_family("1 1\n", 3)

    def test_duplicate_set(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_activation_family("0\n0\n", 3)

    @pytest.mark.parametrize("text,message", [
        ("0\n# c\n0\n", "line 3: duplicate activation 0x1"),
        ("-\n1\n\n-\n", "line 4: duplicate activation 0x0"),
        ("2\n0 1\n2\n0 1\n", "line 3: duplicate activation 0x4"),
    ])
    def test_duplicate_set_names_its_line(self, text, message):
        """With and without an empty-set line, which decides whether the
        family puts an empty activation ahead of the first line."""
        with pytest.raises(ParseError) as exc:
            parse_activation_family(text, 3)
        assert str(exc.value) == message

    def test_non_integer(self):
        with pytest.raises(ParseError, match="non-integer"):
            parse_activation_family("x\n", 3)


class TestEdgeWeight:
    def test_no_packets_means_zero(self, d4):
        assert edge_weight(VirtualQueueState(d4), RA) == 0

    def test_single_candidate(self, d4):
        state = VirtualQueueState(d4)
        state.counts[R_] = 3
        assert edge_weight(state, RA) == 3

    def test_max_over_candidates(self, d4):
        state = VirtualQueueState(d4)
        state.counts[R_] = 2       # weight 2 - 1 = 1 against {r,b}
        state.counts[0b1011] = 3   # {r,a,c} -> +rb covers everyone: weight 3
        state.counts[0b0101] = 1   # {r,b}: rb's head already inside
        assert edge_weight(state, RB) == 3

    def test_negative_floored(self, d4):
        state = VirtualQueueState(d4)
        state.counts.update({R_: 1, RA_SET: 5})
        assert edge_weight(state, RA) == 0


class TestChooseActivation:
    def test_all_zero_picks_first(self):
        fam = primary_interference_family(TRIANGLE)
        assert choose_activation([0, 0, 0], fam) == 0

    def test_two_disjoint_edges_both_activated(self):
        fam = primary_interference_family(TWO_DISJOINT)
        assert choose_activation([5, 3], fam) == 0b11

    def test_triangle_picks_heaviest_single(self):
        fam = primary_interference_family(TRIANGLE)
        assert choose_activation([5, 3, 4], fam) == 0b001

    def test_member_and_maximal_exhaustively(self, d4):
        fam = primary_interference_family(d4)
        rng = np.random.default_rng(7)
        for _ in range(100):
            weights = rng.integers(-3, 9, size=d4.m).tolist()
            chosen = choose_activation(weights, fam)
            assert chosen in fam.masks

            def total(mask):
                return sum(max(weights[e], 0) for e in range(d4.m)
                           if (mask >> e) & 1)

            assert total(chosen) == max(total(m) for m in fam.masks)


# Negative, zero and tied weights.
WEIGHTS = st.integers(-3, 4)


def floored_total(weights, mask):
    return sum(max(w, 0) for e, w in enumerate(weights) if (mask >> e) & 1)


@st.composite
def families(draw):
    """A family over up to 8 edges, made by ``make_family`` or parsed from
    text, with the empty member at any position or (then prepended) absent."""
    m = draw(st.integers(0, 8))
    masks = draw(st.lists(st.integers(1, (1 << m) - 1), unique=True,
                          max_size=24)) if m else []
    at = draw(st.integers(0, len(masks) + 1))
    if at <= len(masks):
        masks.insert(at, 0)
    if draw(st.booleans()):
        return make_family(m, masks)
    lines = ["-" if mask == 0 else
             " ".join(str(e) for e in range(m) if (mask >> e) & 1)
             for mask in masks]
    return parse_activation_family("# drawn\n" + "\n".join(lines) + "\n", m)


def weight_lists(m):
    """Small weights mixed with ones from just under to twice the largest
    weight that keeps every member's total inside int64, so that totals of
    either type occur and int64 totals would overflow."""
    edge = ((1 << 63) - 1) // max(m, 1)
    return st.lists(st.one_of(WEIGHTS, st.integers(edge - 2, 2 * edge)),
                    min_size=m, max_size=m)


class TestChooseActivationMatchesScan:
    @settings(max_examples=500, deadline=2000)
    @given(fam=families(), data=st.data())
    def test_any_family(self, fam, data):
        weights = data.draw(weight_lists(fam.edge_count))
        assert choose_activation(weights, fam) == scanning_choose_activation(weights, fam)

    def test_totals_at_the_int64_limit(self):
        """At the bound the full member's total fits in int64; one above it
        the total passes 2**63 - 1, and the full member must still win."""
        fam = make_family(3, [0b001, 0b111])
        bound = ((1 << 63) - 1) // 3
        assert choose_activation([bound] * 3, fam) == 0b111
        assert choose_activation([bound + 1] * 3, fam) == 0b111

    @settings(max_examples=200, deadline=2000)
    @given(g=small_graphs(7, max_m=10), data=st.data())
    def test_primary_families_reach_the_best_matching(self, g, data):
        fam = primary_interference_family(g)
        weights = data.draw(st.lists(WEIGHTS, min_size=g.m, max_size=g.m))
        chosen = choose_activation(weights, fam)
        assert chosen == scanning_choose_activation(weights, fam)
        assert floored_total(weights, chosen) == max(
            floored_total(weights, mask) for mask in brute_matchings(g))


def _grow(state: VirtualQueueState, target: int):
    """Admit one packet and forward it over edges into ``target`` until it is
    held by exactly ``target`` (delivered, when that is every node)."""
    g = state.graph
    state.admit(1)
    fset = g.source_mask
    while fset != target:
        eid = next(e for e, (a, b) in enumerate(g.edges)
                   if fset >> a & 1 and not fset >> b & 1 and target >> b & 1)
        state.transmit(fset, eid)
        fset |= 1 << g.edges[eid][1]


def _grow_in_order(state: MultiClassState, c: int, target: int):
    """Admit one packet of class ``c`` and forward it over edges into
    ``target`` until it is held by exactly ``target``; every node of
    ``target`` must hold the class's older packets."""
    g = state.graph
    admit_class(state, c)
    fset = g.source_mask
    while fset != target:
        eid = next(e for e, (a, b) in enumerate(g.edges)
                   if fset >> a & 1 and not fset >> b & 1 and target >> b & 1)
        multiclass_apply(state, c, eid)
        fset |= 1 << g.edges[eid][1]


class TestActivationMemo:
    """``run`` memoises each slotted slot's moves by the part of the state
    its decides read: max-weight by the queue counts, multiclass by the
    in-flight sets while they hold at most m packets."""

    @settings(max_examples=150, deadline=2000)
    @given(g=small_graphs(6), data=st.data())
    def test_equal_counts_give_equal_weights(self, g, data):
        """Two states with equal counts, reached by different histories (other
        admissions, deliveries, moves and insertion orders), weigh every edge
        alike, so the counts are a sound memo key."""
        first = VirtualQueueState(g)
        for _ in range(data.draw(st.integers(0, 30))):
            fsets = sorted(first.counts)
            if not fsets or data.draw(st.booleans()):
                first.admit(data.draw(st.integers(1, 3)))
                continue
            fset = data.draw(st.sampled_from(fsets))
            out = [e for e, (a, b) in enumerate(g.edges)
                   if fset >> a & 1 and not fset >> b & 1]
            if out:
                first.transmit(fset, data.draw(st.sampled_from(out)))
        second = VirtualQueueState(g)
        for _ in range(data.draw(st.integers(1, 3))):
            _grow(second, g.full_mask)
        for fset, count in sorted(first.counts.items(), reverse=True):
            for _ in range(count):
                _grow(second, fset)
        assert second.counts == first.counts
        assert ([edge_weight(second, e) for e in range(g.m)]
                == [edge_weight(first, e) for e in range(g.m)])

    @settings(max_examples=150, deadline=2000)
    @given(g=small_graphs(6), classes=st.integers(1, 3), data=st.data())
    def test_equal_in_flight_sets_give_equal_decides(self, g, classes, data):
        """Two in-order states with equal in-flight sets, reached by different
        histories (the second delivers extra packets everywhere first, so its
        indices are shifted), weigh and decide every edge alike and make the
        same slot of moves, so the in-flight sets are a sound memo key."""
        first = MultiClassState(g, classes, iter(()))
        for _ in range(data.draw(st.integers(0, 40))):
            c = data.draw(st.integers(0, classes - 1))
            row = first.highest[c]
            movable = [e for e, (a, b) in enumerate(g.edges) if row[b] < row[a]]
            if not movable or data.draw(st.booleans()):
                admit_class(first, c)
            else:
                multiclass_apply(first, c, data.draw(st.sampled_from(movable)))
        second = MultiClassState(g, classes, iter(()))
        for c in range(classes):
            for _ in range(data.draw(st.integers(1, 3))):
                _grow_in_order(second, c, g.full_mask)
        for c, sets in enumerate(first.inflight):
            for fset in sets:
                _grow_in_order(second, c, fset)
        assert second.inflight == first.inflight
        assert second.counts == first.counts
        second_weight, first_weight = in_order_rules(second)[2], in_order_rules(first)[2]
        assert ([second_weight(e) for e in range(g.m)]
                == [first_weight(e) for e in range(g.m)])
        assert ([multiclass_decide(second, e) for e in range(g.m)]
                == [multiclass_decide(first, e) for e in range(g.m)])
        for e in range(g.m):
            c = multiclass_decide(first, e)
            assert multiclass_decide(second, e) == c
            if c is not None:
                multiclass_apply(first, c, e)
                multiclass_apply(second, c, e)
        assert second.inflight == first.inflight

    @staticmethod
    def _counted_run(cfg, g, fam, monkeypatch):
        """The run's CSVs and the weight vectors it searched (its misses)."""
        searched = []

        def counted(weights, fam):
            searched.append(tuple(weights))
            return choose_activation(weights, fam)

        monkeypatch.setattr(sim, "choose_activation", counted)
        res = run(cfg, g, fam)
        return (run_csv(res), received_csv(res)), searched

    @pytest.mark.parametrize("policy", ["max-weight", "multiclass"])
    def test_a_small_limit_leaves_a_run_unchanged(self, policy, monkeypatch):
        """A limit of 3 holds only the smallest keys (a multiclass key counts
        one item per class besides its in-flight sets), so the memo clears on
        nearly every miss; the outputs must not change."""
        g = resolve_graph("random(6,10,1)")
        fam = primary_interference_family(g)
        cfg = SimConfig(lam=0.3, horizon=1500, seed=5, time_model="slotted-wireless",
                        policy=policy, classes=2, sample_every=100)
        outputs, searched = self._counted_run(cfg, g, fam, monkeypatch)
        assert len(searched) < cfg.horizon / 2  # most slots hit
        monkeypatch.setattr(sim, "MEMO_KEY_LIMIT", 3)
        small_outputs, small_searched = self._counted_run(cfg, g, fam, monkeypatch)
        assert small_outputs == outputs
        assert len(small_searched) > len(searched)

    def test_a_hit_replays_the_moves(self, monkeypatch):
        """A count-keyed hit replays the moves its miss made: the per-edge
        decides run on the miss slots only, one per activated edge, every
        move still passes through ``transmit`` (each adds one node to one
        packet's set, so they number the received counts' sum less the
        admissions), and the outputs equal the replay that searches each
        slot afresh."""
        g = resolve_graph("random(6,10,1)")
        fam = primary_interference_family(g)
        cfg = SimConfig(lam=0.3, horizon=1500, seed=5, time_model="slotted-wireless",
                        sample_every=100)
        activated, decides, moves = [], [], []
        transmit = VirtualQueueState.transmit

        def counted_activation(weights, fam):
            activated.append(choose_activation(weights, fam))
            return activated[-1]

        def counted_decide(state, eid):
            decides.append(eid)
            return max_weight_decide(state, eid)

        def counted_transmit(state, fset, eid):
            moves.append(eid)
            transmit(state, fset, eid)

        monkeypatch.setattr(sim, "choose_activation", counted_activation)
        monkeypatch.setattr(sim, "max_weight_decide", counted_decide)
        monkeypatch.setattr(VirtualQueueState, "transmit", counted_transmit)
        res = run(cfg, g, fam)
        assert len(activated) < cfg.horizon / 2  # most slots hit
        # The counts never outgrow m here, so every slot is count-keyed.
        assert len(decides) == sum(smask.bit_count() for smask in activated)
        last = res.samples[-1]
        assert len(moves) == sum(last.received) - last.admitted > len(decides)
        assert (run_csv(res), received_csv(res), res.rate) == replay_max_weight(cfg, g, fam)

    def test_an_in_order_hit_replays_the_moves(self, monkeypatch):
        """An in-flight-keyed hit replays the moves its miss made: each
        search weighs the m edges (one decide each) and steps each activated
        edge once (one decide each), a hit decides nothing, a miss moves
        only through the bound ``step`` and a hit only through the bound
        ``apply``, and the outputs equal the replay that searches each slot
        afresh. The counts wrap the rules that set-up binds
        (``in_order_rules``)."""
        g = resolve_graph("random(6,10,1)")
        fam = primary_interference_family(g)
        cfg = SimConfig(lam=0.3, horizon=1500, seed=5, time_model="slotted-wireless",
                        policy="multiclass", classes=2, sample_every=100)
        activated, decides, stepped, replayed = [], [], [], []

        def counted_activation(weights, fam):
            activated.append(choose_activation(weights, fam))
            return activated[-1]

        def counted_rules(state, owner=None):
            decide, apply, weight, step = in_order_rules(state, owner)

            def counted_decide(eid):
                decides.append(eid)
                return decide(eid)

            def counted_apply(c, eid):
                replayed.append(eid)
                apply(c, eid)

            def counted_weight(eid):  # the bound weight decides once
                decides.append(eid)
                return weight(eid)

            def counted_step(eid):  # decides once, moves unless it idles
                decides.append(eid)
                c = step(eid)
                if c is not None:
                    stepped.append(eid)
                return c

            return counted_decide, counted_apply, counted_weight, counted_step

        monkeypatch.setattr(sim, "choose_activation", counted_activation)
        monkeypatch.setattr(sim, "in_order_rules", counted_rules)
        res = run(cfg, g, fam)
        assert len(activated) < cfg.horizon / 2  # most slots hit
        assert len(decides) == sum(g.m + smask.bit_count() for smask in activated)
        last = res.samples[-1]
        moves = stepped + replayed
        # More moves than the miss slots' steps: the hits made the rest.
        assert (len(moves) == sum(last.received) - last.admitted
                > sum(smask.bit_count() for smask in activated))
        assert len(stepped) <= sum(smask.bit_count() for smask in activated)
        assert replayed
        assert (run_csv(res), received_csv(res), res.rate) == replay_in_order(cfg, g, fam)

    @staticmethod
    def _keyed_run(cfg, g, fam, key_of, monkeypatch):
        """The run's samples (one per slot), the key of every slot, read off
        the state the slot starts from (after its admissions), and the slots
        that searched; it undoes the test's patches."""
        latest, keys, searched = [None], [], []
        state_type = MultiClassState if cfg.policy == "multiclass" else VirtualQueueState
        admit, total_backlog = state_type.admit, VirtualQueueState.total_backlog

        def keyed_admit(state, count):
            admit(state, count)
            latest[0] = key_of(state)

        def sampled_backlog(state):  # once per sample, after the slot's events
            keys.append(latest[0])
            latest[0] = key_of(state)
            return total_backlog(state)

        def counted(weights, fam):
            searched.append(len(keys))  # the slot now running
            return choose_activation(weights, fam)

        monkeypatch.setattr(state_type, "admit", keyed_admit)
        monkeypatch.setattr(VirtualQueueState, "total_backlog", sampled_backlog)
        monkeypatch.setattr(sim, "choose_activation", counted)
        samples = run(cfg, g, fam).samples
        monkeypatch.undo()
        return samples, keys[1:], searched  # the sample at slot 0 closes no slot

    def test_a_full_memo_is_cleared(self, monkeypatch):
        """With a sample every slot, each slot's moves are the received
        counts' growth less its admissions. For both families the searches
        must be the misses of a memo that stores every key but an in-order
        one past m packets, sizes an entry by its key's items (count pairs,
        or in-flight sets plus one per class) plus its moves, and is cleared
        whenever the next entry would take it past the bound."""
        g = resolve_graph("random(6,10,1)")
        fam = primary_interference_family(g)
        limit = 60

        def count_key(state):
            return frozenset(state.counts.items())

        def in_flight_key(state):
            if state.admitted - state.delivered <= g.m:
                return tuple(map(tuple, state.inflight))

        for policy, lam, key_of, items in [
                ("max-weight", 0.3, count_key, len),
                ("multiclass", 0.4, in_flight_key, lambda key: len(key) + sum(map(len, key)))]:
            cfg = SimConfig(lam=lam, horizon=1000, seed=5, time_model="slotted-wireless",
                            policy=policy, classes=2, sample_every=1)
            monkeypatch.setattr(sim, "MEMO_KEY_LIMIT", limit)
            samples, keys, searched = self._keyed_run(cfg, g, fam, key_of, monkeypatch)
            assert len(keys) == cfg.horizon
            memo, size, misses = set(), 0, []
            for slot, (key, before, after) in enumerate(zip(keys, samples, samples[1:]), 1):
                if key in memo:
                    continue
                misses.append(slot)
                if key is not None:
                    moves = (sum(after.received) - sum(before.received)
                             - (after.admitted - before.admitted))
                    if size + items(key) + moves > limit:
                        memo.clear()
                        size = 0
                    memo.add(key)
                    size += items(key) + moves
            assert searched == misses
            assert len(misses) > len({keys[slot - 1] for slot in misses})  # cleared
            # Only an in-order state past m packets goes unstored.
            assert (None in keys) == (policy == "multiclass")


def test_forwarding_on_activation_preserves_conservation(d4):
    fam = primary_interference_family(d4)
    state = MultiClassState(d4, 2, iter(()))
    weight = in_order_rules(state)[2]
    rng = np.random.default_rng(21)
    for _ in range(300):
        for _ in range(int(rng.poisson(1.0))):
            admit_class(state, assign_class(rng, 2))
        weights = [weight(e) for e in range(d4.m)]
        smask = choose_activation(weights, fam)
        for e in range(d4.m):
            if (smask >> e) & 1:
                c = multiclass_decide(state, e)
                if c is not None:
                    multiclass_apply(state, c, e)
        assert state.admitted == state.delivered + state.total_backlog()
