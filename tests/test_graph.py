import hashlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcastsim import (Arborescence, Digraph, ParseError, broadcast_capacity,
                      capacity_bottleneck, parse_graph, random_digraph,
                      tree_packing)
from bcastsim.fixtures import path_graph, star_graph
from bcastsim.graph import _augment, _out_masks, is_arborescence, max_flow, out_edges
from bcastsim.wireless import parse_activation_family

from conftest import (AB, BC, CA, FULL, R_, RA, RAB, RAC, RBC, RA_SET, RB,
                      RB_SET, RC, RC_SET, any_digraphs, small_graphs)
from oracles import (all_growth_sequences, brute_cut_value, brute_min_cut, brute_st_cut,
                     edge_subgraph, independent_arborescence_check, max_disjoint_paths,
                     reachable_fixed_point, reachable_sets,
                     rescanning_tree_packing, sequence_from_arborescence,
                     validate_reachable_sequence)

# Graphs of both kinds: ``any_digraphs`` may hold both edges of a pair, so
# an augmenting path can cancel a unit on an edge whose reverse also exists,
# and any node may be the source. Flows need two nodes.
EITHER_GRAPHS = st.one_of(small_graphs(7), any_digraphs(7)).filter(lambda g: g.n >= 2)


def flow_edges(g, s, t, at_least=None):
    """``max_flow``'s value and the ids of the edges carrying that flow, from
    the same augmenting searches (``graph._augment``)."""
    base = _out_masks(g.n, g.edges)
    res = base[:]
    flow = set()
    value = 0
    while (at_least is None or value < at_least) and _augment(base, res, flow, s, t):
        value += 1
    return value, {eid for eid, edge in enumerate(g.edges) if edge in flow}


D4_TEXT = """4 6 0
0 1
1 2
2 3
0 2
0 3
3 1
"""


def graph_fields(text):
    g = parse_graph(text)
    return g.n, g.edges, g.source


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

    @pytest.mark.parametrize("parse, text", [
        (graph_fields, "3 2 1\n1 0\n1 2\n"),
        (lambda t: parse_activation_family(t, 3).masks, "-\n0 2\n1\n"),
    ], ids=["graph", "family"])
    def test_comments_and_blanks_ignored(self, parse, text):
        """Both text formats read their lines through one reader."""
        noisy = "# head\n\n" + "\n  # indented\n\t\n".join(text.splitlines()) + "\n#"
        assert parse(noisy) == parse(text)

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

    @pytest.mark.parametrize("bad, message", [
        ("2 3", "edge (2,3) out of range for n=3"),
        ("2 2", "self-loop at node 2"),
        ("0 1", "duplicate edge (0,1)"),
    ], ids=["range", "self-loop", "duplicate"])
    def test_digraph_edge_rules_name_their_line(self, bad, message):
        """``Digraph``'s own message, prefixed with the number of the line
        that holds the bad edge, counting comment lines."""
        with pytest.raises(ParseError, match=f"^{re.escape(f'line 5: {message}')}$"):
            parse_graph(f"3 3 0\n0 1\n# c\n1 2\n{bad}\n")

    def test_a_wrong_edge_line_count_wins_over_a_bad_source(self):
        """The count is a text rule, checked before ``Digraph`` runs."""
        with pytest.raises(ParseError, match="^expected 2 edge lines, found 1$"):
            parse_graph("2 2 5\n0 1\n")

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
        assert max_flow(edge_subgraph(d4, {RC}), 0, 3) == 1
        assert max_flow(edge_subgraph(d4, {RA, AB}), 0, 3) == 0

    def test_second_path_cancels_the_unit_on_an_antiparallel_edge(self):
        """The only shortest path, 0-1-2-3, puts a unit on 1->2. The second
        path comes back 2->1, which cancels that unit rather than fill the
        edge 2->1, so the flow is the only maximum one in which no pair
        carries a unit both ways."""
        edges = [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (5, 3),
                 (0, 6), (6, 7), (7, 2), (2, 1)]
        g = Digraph(8, edges, 0)
        assert max_flow(g, 0, 3) == 2
        value, used = flow_edges(g, 0, 3)
        assert value == 2
        want = {(0, 1), (1, 4), (4, 5), (5, 3), (0, 6), (6, 7), (7, 2), (2, 3)}
        assert used == {edges.index(e) for e in want}

    @settings(max_examples=150, deadline=2000)
    @given(g=EITHER_GRAPHS, data=st.data())
    def test_used_edges_form_value_disjoint_paths(self, g, data):
        """The value is the least s-t cut, capped by ``at_least``; the edges
        carrying it carry one unit each, never both edges of a pair, and
        hold exactly ``value`` edge-disjoint s->t paths, also on the
        subgraph of an ``allowed`` set of edge ids."""
        s = g.source
        t = data.draw(st.sampled_from([v for v in range(g.n) if v != s]))
        ids = st.integers(0, g.m - 1) if g.m else st.nothing()
        allowed = data.draw(st.none() | st.sets(ids))
        at_least = data.draw(st.none() | st.integers(0, 3))
        h = g if allowed is None else edge_subgraph(g, allowed)
        value, used = flow_edges(h, s, t, at_least)
        assert value == max_flow(h, s, t, at_least=at_least)
        cut = brute_st_cut(g, s, t, allowed)
        assert value == (cut if at_least is None else min(cut, at_least))
        net = [0] * h.n
        for eid in used:
            a, b = h.edges[eid]
            net[a] -= 1
            net[b] += 1
        assert net[s] == -value and net[t] == value
        assert not any(net[v] for v in range(h.n) if v not in (s, t))
        pairs = {h.edges[eid] for eid in used}
        assert not any((b, a) in pairs for a, b in pairs)
        sub = Digraph(h.n, [h.edges[eid] for eid in sorted(used)], s)
        assert max_disjoint_paths(sub, s, t) == value


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

    @settings(max_examples=150, deadline=2000)
    @given(g=EITHER_GRAPHS)
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

    @settings(max_examples=150, deadline=2000)
    @given(g=EITHER_GRAPHS)
    # Dense graphs on which a witness kept from before its edge was taken
    # would pass an edge that leaves too little flow; few drawn graphs do.
    @example(g=random_digraph(6, 14, 314231))
    @example(g=random_digraph(7, 16, 827134))
    def test_matches_rescanning_oracle(self, g):
        """Witness flows skip only max-flows that cannot fail, and a
        repaired witness answers exactly what a fresh max-flow would, so the
        trees equal those of re-running every sink's max-flow per edge."""
        assert tree_packing(g) == rescanning_tree_packing(g)

    @staticmethod
    def assert_in_growth_order(g, trees):
        for tree in trees:
            assert tree.edge_ids == tuple(
                eid for _, eid in sequence_from_arborescence(g, tree))

    @settings(max_examples=150, deadline=2000)
    @given(g=any_digraphs(9).filter(lambda g: g.n >= 2))
    def test_trees_come_in_their_canonical_growth_order(self, g):
        """Each tree's edges in the order it took them, as the rescanning
        oracle orders them: the lowest-id tree edge leaving the set so far
        at every step. Graphs with antiparallel pairs reach the steps where
        a lower-id crossing edge is unsafe."""
        self.assert_in_growth_order(g, tree_packing(g))

    @pytest.mark.parametrize("spec, count, digest", [
        ((25, 200, 1), 4, "b9473d02d2d3ae24e25896663be17a126795ed2eeb8dd33c642acbd6175532d0"),
        ((14, 70, 4), 3, "77a43fdba8153edf29006ffa048a2169fed282d6ff4680fa3ca53b1f4de0840d"),
        ((40, 400, 3), 6, "464f6a39375677f84ffcbd43e35a60e77a8398c03ab895d8aa2e08fd8cbffce4"),
    ], ids=["random(25,200,1)", "random(14,70,4)", "random(40,400,3)"])
    def test_packings_of_larger_graphs_are_pinned(self, spec, count, digest):
        """sha256 of the repr of the trees' edge-id tuples, as packed by
        a max-flow per sink and candidate edge; the property tests never
        pack a graph above 9 nodes."""
        g = random_digraph(*spec)
        trees = tree_packing(g)
        ids = tuple(t.edge_ids for t in trees)
        assert len(ids) == count
        self.assert_in_growth_order(g, trees)
        assert hashlib.sha256(repr(ids).encode()).hexdigest() == digest


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

    @pytest.mark.parametrize("n, source, message", [
        (0, 0, "node count must be positive"),
        (1001, 0, "node count must be at most 1000, got 1001"),
        (2, 3, "source 3 out of range for n=2"),
        (3.0, 0, "node count must be an integer, got 3.0"),
        ("3", 0, "node count must be an integer, got '3'"),
        (2, 0.0, "source must be an integer, got 0.0"),
    ], ids=["no-nodes", "too-many-nodes", "source", "float-n", "str-n", "float-source"])
    def test_node_count_and_source_are_checked_before_any_edge(self, n, source, message):
        edges = iter([(0, 1)])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Digraph(n, edges, source)
        assert list(edges) == [(0, 1)]

    @pytest.mark.parametrize("bad, message", [
        ((0, 5), "edge (0,5) out of range for n=3"),
        ((1, 1), "self-loop at node 1"),
        ((0, 1), "duplicate edge (0,1)"),
        ((0, 1.9), "edge endpoint must be an integer, got 1.9"),
        (("1", 2), "edge endpoint must be an integer, got '1'"),
    ], ids=["range", "self-loop", "duplicate", "float-endpoint", "str-endpoint"])
    def test_stops_reading_at_the_first_bad_edge(self, bad, message):
        edges = iter([(0, 1), (1, 2), bad, (2, 2), (0, 1)])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Digraph(3, edges, 0)
        assert list(edges) == [(2, 2), (0, 1)]

    def test_reads_numpy_integers_as_python_ints(self):
        g = Digraph(np.int64(3), [(np.int32(0), np.int64(1)), (np.uint8(1), 2)],
                    np.int16(0))
        assert (g.n, g.edges, g.source) == (3, ((0, 1), (1, 2)), 0)
        assert {type(x) for x in (g.n, g.source, *sum(g.edges, ()))} == {int}
