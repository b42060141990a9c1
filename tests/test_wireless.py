import numpy as np
import pytest

from bcastsim import CapabilityError, Digraph, ParseError
from bcastsim.policies import (MultiClassState, assign_class, edge_weight,
                               multiclass_apply, multiclass_decide)
from bcastsim.queues import VirtualQueueState
from bcastsim.wireless import (MATCHING_ENUM_EDGE_LIMIT, ActivationFamily,
                               choose_activation, make_family,
                               parse_activation_family,
                               primary_interference_family, wireline_family)

from conftest import R_, RA, RA_SET, RB
from oracles import brute_matchings

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


class TestPrimaryInterference:
    def test_triangle_only_singletons(self):
        fam = primary_interference_family(TRIANGLE)
        assert sorted(fam.masks) == [0b000, 0b001, 0b010, 0b100]

    def test_two_disjoint_edges(self):
        fam = primary_interference_family(TWO_DISJOINT)
        assert sorted(fam.masks) == [0b00, 0b01, 0b10, 0b11]

    def test_diamond_matches_brute_force(self, d4):
        fam = primary_interference_family(d4)
        assert sorted(fam.masks) == sorted(brute_matchings(d4))
        assert fam.masks[0] == 0

    def test_direction_ignored_for_conflicts(self):
        # Head-to-head edges still conflict.
        g = Digraph(3, [(0, 1), (2, 1)], 0)
        fam = primary_interference_family(g)
        assert 0b11 not in fam.masks

    def test_maximal_only_diamond(self, d4):
        fam = primary_interference_family(d4, maximal_only=True)
        every = set(brute_matchings(d4))
        maximal = {m for m in every
                   if not any(m != o and m & o == m for o in every)}
        assert set(fam.masks) == maximal | {0}

    def test_guard(self):
        n = 22
        g = Digraph(n, [(0, i) for i in range(1, n)], 0)
        with pytest.raises(CapabilityError,
                           match="use activation = primary-maximal"):
            primary_interference_family(g)
        fam = primary_interference_family(g, maximal_only=True)
        # A star admits no two compatible edges: singletons are the maxima.
        assert len(fam.masks) == g.m + 1
        assert g.m > MATCHING_ENUM_EDGE_LIMIT


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
