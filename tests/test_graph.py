import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcastsim import (Arborescence, Digraph, ParseError, broadcast_capacity,
                      capacity_bottleneck, parse_graph, random_digraph,
                      tree_packing)
from bcastsim.fixtures import path_graph, star_graph
from bcastsim.graph import (is_arborescence, max_flow, out_edges,
                            sequence_from_arborescence)

from conftest import (AB, BC, CA, FULL, R_, RA, RAB, RAC, RBC, RA_SET, RB,
                      RB_SET, RC, RC_SET, small_graphs)
from oracles import (all_growth_sequences, brute_cut_value, brute_min_cut,
                     independent_arborescence_check, max_disjoint_paths,
                     reachable_fixed_point, reachable_sets,
                     rescanning_tree_packing, validate_reachable_sequence)

D4_TEXT = """4 6 0
0 1
1 2
2 3
0 2
0 3
3 1
"""


def small_random_graphs(count, n_range=(3, 8), seed_base=7000):
    for i in range(count):
        n = n_range[0] + i % (n_range[1] - n_range[0] + 1)
        max_m = n * (n - 1) // 2
        m = max(n - 1, (i * 5) % (max_m + 1))
        yield random_digraph(n, m, seed=seed_base + i)


class TestParse:
    def test_diamond_document(self, d4):
        g = parse_graph(D4_TEXT)
        assert g.n == 4 and g.m == 6 and g.source == 0
        assert g.edges == d4.edges

    def test_single_edge(self):
        g = parse_graph("2 1 0\n0 1\n")
        assert g.edges == ((0, 1),)

    def test_comments_and_blanks_ignored(self):
        g = parse_graph("# diamond\n\n2 1 0\n# edge\n0 1\n")
        assert g.m == 1

    def test_index_out_of_range(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("2 1 0\n0 2\n")

    def test_self_loop(self):
        with pytest.raises(ParseError, match="self-loop"):
            parse_graph("2 1 0\n1 1\n")

    def test_duplicate_edge(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_graph("3 2 0\n0 1\n0 1\n")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_graph("2 1\n0 1\n")

    def test_wrong_edge_count(self):
        with pytest.raises(ParseError, match="edge lines"):
            parse_graph("3 2 0\n0 1\n")

    def test_bad_source(self):
        with pytest.raises(ParseError, match="source"):
            parse_graph("2 1 5\n0 1\n")

    def test_node_count_over_the_cap_names_the_header_line(self):
        with pytest.raises(ParseError,
                           match="line 1: node count must be at most 1000"):
            parse_graph("1001 0 0\n")

    def test_round_trip(self):
        for g in small_random_graphs(12):
            again = parse_graph(f"{g.n} {g.m} {g.source}\n"
                                + "".join(f"{a} {b}\n" for a, b in g.edges))
            assert again.edges == g.edges
            assert (again.n, again.source) == (g.n, g.source)


class TestMaxFlow:
    def test_diamond_to_far_corner(self, d4):
        assert max_flow(d4, 0, 3) == 2
        assert max_disjoint_paths(d4, 0, 3) == 2

    def test_two_routes_single_bottleneck(self):
        # r->a->b plus r->b: two paths into b but one into a.
        g = Digraph(3, [(0, 1), (1, 2), (0, 2)], 0)
        assert max_flow(g, 0, 1) == 1
        assert max_flow(g, 0, 2) == 2

    def test_sink_without_in_edges(self):
        g = Digraph(3, [(0, 1)], 0)
        assert max_flow(g, 0, 2) == 0

    def test_same_node_rejected(self, d4):
        with pytest.raises(ValueError):
            max_flow(d4, 1, 1)

    def test_matches_disjoint_path_oracle(self):
        for g in small_random_graphs(25, n_range=(3, 6), seed_base=7100):
            for t in range(1, g.n):
                assert max_flow(g, 0, t) == max_disjoint_paths(g, 0, t)

    def test_at_least_caps_the_result(self, d4):
        assert max_flow(d4, 0, 3, at_least=1) == 1

    def test_allowed_subset(self, d4):
        assert max_flow(d4, 0, 3, allowed={RC}) == 1
        assert max_flow(d4, 0, 3, allowed={RA, AB}) == 0

    @settings(max_examples=100, deadline=2000)
    @given(g=small_graphs(7), data=st.data())
    def test_used_edges_form_value_disjoint_paths(self, g, data):
        """The reported edges carry one unit each and hold exactly ``value``
        edge-disjoint source->t paths, also under ``allowed`` and
        ``at_least``."""
        t = data.draw(st.integers(1, g.n - 1))
        allowed = data.draw(st.none() | st.sets(st.integers(0, g.m - 1)))
        at_least = data.draw(st.none() | st.integers(0, 3))
        used = set()
        value = max_flow(g, 0, t, allowed=allowed, at_least=at_least, used=used)
        assert value == max_flow(g, 0, t, allowed=allowed, at_least=at_least)
        if allowed is not None:
            assert used <= allowed
        net = [0] * g.n
        for eid in used:
            a, b = g.edges[eid]
            net[a] -= 1
            net[b] += 1
        assert net[0] == -value and net[t] == value
        assert not any(net[v] for v in range(1, g.n) if v != t)
        sub = Digraph(g.n, [g.edges[eid] for eid in sorted(used)], 0)
        assert max_disjoint_paths(sub, 0, t) == value


class TestCapacity:
    def test_diamond(self, d4):
        assert broadcast_capacity(d4) == 2

    def test_directed_path(self):
        assert broadcast_capacity(path_graph(3)) == 1

    def test_unreachable_node(self):
        g = Digraph(3, [(0, 1), (2, 1)], 0)
        assert broadcast_capacity(g) == 0

    def test_bottleneck_witness(self, d4):
        value, sink = capacity_bottleneck(d4)
        assert value == 2
        assert max_flow(d4, 0, sink) == 2

    def test_equals_brute_force_min_cut(self):
        for g in small_random_graphs(40):
            assert broadcast_capacity(g) == brute_min_cut(g)

    @settings(max_examples=100, deadline=2000)
    @given(g=small_graphs(7))
    def test_equals_brute_force_min_cut_property(self, g):
        assert broadcast_capacity(g) == brute_min_cut(g)

    def test_capacity_at_most_half_the_nodes(self):
        # Holds because random graphs never orient a pair both ways.
        for g in small_random_graphs(40, seed_base=7200):
            assert broadcast_capacity(g) <= g.n / 2


class TestCutCapacity:
    def test_source_singleton(self, d4):
        assert brute_cut_value(d4, R_) == 3

    def test_all_but_one_sink(self, d4):
        for t in range(1, 4):
            cut = FULL & ~(1 << t)
            indeg = sum(1 for _, b in d4.edges if b == t)
            assert brute_cut_value(d4, cut) == indeg

    def test_min_over_cuts_matches_capacity(self, d4):
        assert brute_min_cut(d4) == 2 == broadcast_capacity(d4)


class TestTreePacking:
    def test_diamond_packs_two_disjoint_trees(self, d4):
        trees = tree_packing(d4)
        assert len(trees) == 2
        assert not (trees[0].edge_set & trees[1].edge_set)
        for t in trees:
            assert is_arborescence(d4, t.edge_ids)
            assert independent_arborescence_check(d4, t.edge_ids)

    def test_path_packs_itself(self):
        g = path_graph(4)
        trees = tree_packing(g)
        assert len(trees) == 1
        assert sorted(trees[0].edge_ids) == [0, 1, 2]

    def test_zero_capacity_gives_no_trees(self):
        g = Digraph(3, [(0, 1), (2, 1)], 0)
        assert tree_packing(g) == []

    @settings(max_examples=150, deadline=2000)
    @given(g=small_graphs(6), data=st.data())
    def test_is_arborescence_matches_parent_chain_oracle(self, g, data):
        """Edge-id lists of every length up to n, repeats included, and every
        packed tree in any order."""
        ids = data.draw(st.lists(st.integers(0, g.m - 1), max_size=g.n))
        assert is_arborescence(g, ids) == independent_arborescence_check(g, ids)
        for t in tree_packing(g):
            order = data.draw(st.permutations(t.edge_ids))
            assert is_arborescence(g, order) and independent_arborescence_check(g, order)

    @staticmethod
    def check_packing(g):
        """One spanning arborescence per unit of capacity, pairwise
        edge-disjoint, each confirmed by the parent-chain oracle."""
        trees = tree_packing(g)
        assert len(trees) == broadcast_capacity(g)
        used = set()
        for t in trees:
            assert independent_arborescence_check(g, t.edge_ids)
            assert not (used & t.edge_set)
            used |= t.edge_set

    def test_random_graphs_validated(self):
        self.check_packing(random_digraph(8, 20, seed=7))

    def test_many_small_graphs(self):
        for g in small_random_graphs(20, n_range=(4, 9), seed_base=7300):
            self.check_packing(g)

    @settings(max_examples=100, deadline=2000)
    @given(g=small_graphs(7))
    def test_property_packing_is_valid(self, g):
        self.check_packing(g)

    @settings(max_examples=100, deadline=2000)
    @given(g=small_graphs(7))
    def test_matches_rescanning_oracle(self, g):
        """Witness flows skip only max-flows that cannot fail, so the trees
        equal those of re-running every sink's max-flow per edge."""
        assert tree_packing(g) == rescanning_tree_packing(g)


class TestReachableSets:
    def test_examples(self, d4):
        assert reachable_fixed_point(d4, RAB)
        assert not reachable_fixed_point(d4, 0b0110)  # no source
        assert reachable_fixed_point(d4, RAC)

    def test_out_edges(self, d4):
        assert out_edges(d4, R_) == [RA, RB, RC]
        assert out_edges(d4, FULL) == []
        assert out_edges(d4, RA_SET) == [AB, RB, RC]

    def test_growth_preserves_reachability(self):
        for g in small_random_graphs(10, n_range=(3, 6), seed_base=7500):
            for fset in reachable_sets(g):
                for eid in out_edges(g, fset):
                    assert reachable_fixed_point(g, fset | 1 << g.edges[eid][1])

    def test_enumerate_diamond(self, d4):
        assert reachable_sets(d4) == sorted(
            [R_, RA_SET, RB_SET, RC_SET, RAB, RAC, RBC])

    def test_enumerate_two_node(self):
        g = Digraph(2, [(0, 1)], 0)
        assert reachable_sets(g) == [0b01]

    def test_enumerate_star(self):
        g = star_graph(3)
        assert reachable_sets(g) == [0b001, 0b011, 0b101]

    def test_enumerate_ascending_and_source_offset(self):
        g = Digraph(3, [(1, 0), (1, 2)], 1)
        sets = reachable_sets(g)
        assert sets == sorted(sets)
        assert all((m >> 1) & 1 for m in sets)


class TestSequences:
    def test_blue_tree_sequence(self, d4):
        seq = sequence_from_arborescence(d4, Arborescence((RA, AB, BC)))
        assert seq == ((R_, RA), (RA_SET, AB), (RAB, BC))

    def test_red_tree_sequence(self, d4):
        seq = sequence_from_arborescence(d4, Arborescence((RB, RC, CA)))
        assert seq == ((R_, RB), (RB_SET, RC), (RBC, CA))

    def test_single_edge_tree(self):
        g = Digraph(2, [(0, 1)], 0)
        assert sequence_from_arborescence(g, Arborescence((0,))) == ((0b01, 0),)

    def test_rejects_non_tree(self, d4):
        with pytest.raises(ValueError):
            sequence_from_arborescence(d4, Arborescence((AB, BC, CA)))

    def test_sequence_invariants_on_random_packings(self):
        for g in small_random_graphs(12, n_range=(4, 8), seed_base=7600):
            for tree in tree_packing(g):
                seq = sequence_from_arborescence(g, tree)
                assert validate_reachable_sequence(g, seq)
                assert sorted(eid for _, eid in seq) == sorted(tree.edge_ids)

    def test_every_diamond_reachable_set_in_some_sequence(self, d4):
        covered = set()
        for seq in all_growth_sequences(d4):
            covered.update(fset for fset, _ in seq)
        assert covered == set(reachable_sets(d4))

    def test_validator_rejects_broken_chains(self, d4):
        good = sequence_from_arborescence(d4, Arborescence((RA, AB, BC)))
        assert validate_reachable_sequence(d4, good)
        assert not validate_reachable_sequence(d4, good[:2])
        assert not validate_reachable_sequence(d4, (good[0], good[2], good[1]))


class TestDigraphValidation:
    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Digraph(2, [(0, 0)], 0)
        with pytest.raises(ValueError):
            Digraph(2, [(0, 1), (0, 1)], 0)
        with pytest.raises(ValueError):
            Digraph(2, [(0, 5)], 0)
        with pytest.raises(ValueError):
            Digraph(2, [(0, 1)], 3)
