import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcastsim import CapabilityError, Digraph, ParseError, wireless
from bcastsim.cli import build_activation, resolve_graph
from bcastsim.policies import (MultiClassState, edge_weight, multiclass_apply,
                               multiclass_decide)
from bcastsim.queues import VirtualQueueState
from bcastsim.sim import SimConfig, received_csv, run, run_csv
from bcastsim.wireless import (ActivationFamily, _conflicts, choose_activation,
                               make_family, parse_activation_family,
                               primary_interference_family, wireline_family)

from conftest import R_, RA, RA_SET, RB, small_graphs
from oracles import (assign_class, brute_matchings, pairwise_conflicts,
                     scanning_choose_activation)

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

    def test_holds_and_width(self):
        fam = ActivationFamily(3, (0b011, 0, 0b100))
        assert fam.holds == (0b001, 0b001, 0b100)
        assert fam.width == 2
        assert wireline_family(0).holds == ()
        assert wireline_family(0).width == 0


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

    def test_unknown_state_type(self):
        with pytest.raises(TypeError):
            edge_weight(object(), 0)


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


class TestChooseActivationMatchesScan:
    @settings(max_examples=500, deadline=2000)
    @given(fam=families(), data=st.data())
    def test_any_family(self, fam, data):
        weights = data.draw(st.lists(WEIGHTS, min_size=fam.edge_count,
                                     max_size=fam.edge_count))
        assert choose_activation(weights, fam) == scanning_choose_activation(weights, fam)

    @settings(max_examples=200, deadline=2000)
    @given(g=small_graphs(7, max_m=10), data=st.data())
    def test_primary_families_reach_the_best_matching(self, g, data):
        fam = primary_interference_family(g)
        weights = data.draw(st.lists(WEIGHTS, min_size=g.m, max_size=g.m))
        chosen = choose_activation(weights, fam)
        assert chosen == scanning_choose_activation(weights, fam)
        assert floored_total(weights, chosen) == max(
            floored_total(weights, mask) for mask in brute_matchings(g))


class TestActivationMemo:
    @staticmethod
    def _vectors(data, m):
        """Weight vectors drawn from a small pool, so that they repeat."""
        pool = data.draw(st.lists(st.lists(WEIGHTS, min_size=m, max_size=m),
                                  min_size=1, max_size=6))
        return data.draw(st.lists(st.sampled_from(pool), max_size=40))

    @settings(max_examples=200, deadline=2000)
    @given(fam=families(), data=st.data())
    def test_answers_equal_a_fresh_search(self, fam, data):
        memo = {}
        for weights in self._vectors(data, fam.edge_count):
            assert (choose_activation(weights, fam, memo)
                    == choose_activation(weights, fam)
                    == scanning_choose_activation(weights, fam))
            assert memo[tuple(weights)] == choose_activation(weights, fam)

    @settings(max_examples=200, deadline=2000)
    @given(fam=families(), limit=st.integers(0, 40), data=st.data())
    def test_a_small_limit_bounds_the_memo(self, fam, limit, data):
        m = fam.edge_count
        memo = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wireless, "MEMO_WEIGHT_LIMIT", limit)
            for weights in self._vectors(data, m):
                assert (choose_activation(weights, fam, memo)
                        == scanning_choose_activation(weights, fam))
                # One entry stays even when a vector alone is over the limit.
                assert len(memo) * m <= limit or len(memo) == 1

    @pytest.mark.parametrize("policy", ["max-weight", "multiclass"])
    def test_a_small_limit_leaves_a_run_unchanged(self, policy, monkeypatch):
        g = resolve_graph("random(6,10,1)")
        fam = primary_interference_family(g)
        cfg = SimConfig(lam=0.45, horizon=1500, seed=5, time_model="slotted-wireless",
                        policy=policy, classes=2, sample_every=100)
        default = run(cfg, g, fam)
        monkeypatch.setattr(wireless, "MEMO_WEIGHT_LIMIT", 3 * g.m)
        small = run(cfg, g, fam)
        assert ((run_csv(small), received_csv(small))
                == (run_csv(default), received_csv(default)))

    def test_a_full_memo_is_cleared(self, monkeypatch):
        fam = wireline_family(2)
        monkeypatch.setattr(wireless, "MEMO_WEIGHT_LIMIT", 4)
        memo = {}
        for weights in ([1, 0], [0, 1], [1, 1]):
            choose_activation(weights, fam, memo)
        assert memo == {(1, 1): 0b11}


def test_forwarding_on_activation_preserves_conservation(d4):
    fam = primary_interference_family(d4)
    state = MultiClassState(d4, 2)
    rng = np.random.default_rng(21)
    for _ in range(300):
        for _ in range(int(rng.poisson(1.0))):
            state.admit_packet(assign_class(rng, 2))
        weights = [edge_weight(state, e) for e in range(d4.m)]
        smask = choose_activation(weights, fam)
        for e in range(d4.m):
            if (smask >> e) & 1:
                c = multiclass_decide(state, e)
                if c is not None:
                    multiclass_apply(state, c, e)
        mirror = state.mirror
        assert mirror.admitted == mirror.delivered + mirror.total_backlog()
