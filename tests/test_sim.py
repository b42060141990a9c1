import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcastsim import (CapabilityError, SchedulingError, SimConfig,
                      broadcast_capacity, broadcast_rate, parse_graph,
                      random_digraph, run, sweep_k)
from bcastsim import graph, policies, sim
from bcastsim.graph import Digraph, reaches_all
from bcastsim.sim import (MAX_ARRIVAL_RATE, MAX_IN_ORDER_RATE, TIME_MODELS,
                          _entered_all, received_csv, run_csv, sweep_csv)
from bcastsim.cli import resolve_graph
from bcastsim.wireless import (make_family, primary_interference_family,
                                wireline_family)
from conftest import small_graphs
from oracles import replay_in_order, replay_max_weight, replay_randomized

# D4 minus the return edge ca: an acyclic graph with capacity 1.
DAG4 = Digraph(4, [(0, 1), (1, 2), (2, 3), (0, 2), (0, 3)], 0)


class TestConfigValidation:
    def test_valid_default(self, d4):
        assert SimConfig(lam=1.0, horizon=10).validation_errors(d4) == []

    def test_collects_every_error(self):
        cfg = SimConfig(lam=-1, horizon=0, policy="nope", sample_every=0)
        errs = cfg.validation_errors()
        assert len(errs) == 4

    @pytest.mark.parametrize("eps", [0.0, -0.5, float("nan")])
    def test_eps_must_be_positive(self, eps):
        cfg = SimConfig(lam=1, horizon=10, policy="randomized", eps=eps)
        assert f"eps must be positive, got {eps}" in cfg.validation_errors()

    def test_multiclass_needs_classes(self):
        cfg = SimConfig(lam=1, horizon=10, policy="multiclass", classes=0)
        assert any("classes" in e for e in cfg.validation_errors())

    def test_slotted_needs_family(self, d4):
        cfg = SimConfig(lam=1, horizon=10, time_model="slotted-wireless")
        assert any("activation family" in e for e in cfg.validation_errors(d4))
        with pytest.raises(ValueError):
            run(cfg, d4)

    def test_family_rejected_in_mini_slot_mode(self, d4):
        cfg = SimConfig(lam=1, horizon=10)
        with pytest.raises(ValueError):
            run(cfg, d4, wireline_family(d4.m))

    def test_family_for_another_graph_rejected(self, d4):
        cfg = SimConfig(lam=1, horizon=10, time_model="slotted-wireless")
        message = f"activation family built for {d4.m + 1} edges, graph has {d4.m}"
        assert message in cfg.validation_errors(d4, wireline_family(d4.m + 1))
        with pytest.raises(ValueError, match=message):
            run(cfg, d4, wireline_family(d4.m + 1))

    @pytest.mark.parametrize("policy", ["static-tree", "randomized"])
    def test_tree_policies_need_capacity(self, policy):
        """Node 2 is unreachable from the source, so no tree spans the graph."""
        g = Digraph(3, [(0, 1), (2, 1)], 0)
        with pytest.raises(ValueError, match=f"{policy} policy needs broadcast capacity >= 1"):
            run(SimConfig(lam=1, horizon=10, policy=policy), g)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0,
                                     2 * MAX_ARRIVAL_RATE])
    def test_lambda_must_be_finite_and_non_negative(self, d4, lam):
        cfg = SimConfig(lam=lam, horizon=10)
        errs = cfg.validation_errors(d4)
        assert len(errs) == 1 and "arrival rate" in errs[0]
        with pytest.raises(ValueError, match="arrival rate"):
            run(cfg, d4)

    def test_lambda_at_the_poisson_limit_accepted(self, d4):
        assert SimConfig(lam=MAX_ARRIVAL_RATE, horizon=10).validation_errors(d4) == []

    @pytest.mark.parametrize("policy", ["multiclass", "static-tree"])
    def test_in_order_lambda_capped(self, d4, policy):
        """The in-order policies admit packets one at a time, so their rate
        has a cap of its own; the virtual-queue policies admit in bulk."""
        at_cap = SimConfig(lam=MAX_IN_ORDER_RATE, horizon=10, policy=policy)
        assert at_cap.validation_errors(d4) == []
        over = replace(at_cap, lam=2 * MAX_IN_ORDER_RATE)
        assert over.validation_errors(d4) == [
            f"arrival rate must be at most 10000 for policy '{policy}', "
            f"got {2 * MAX_IN_ORDER_RATE}"]
        for other in ("max-weight", "randomized"):
            assert replace(over, policy=other).validation_errors(d4) == []

    @pytest.mark.parametrize("time_model", TIME_MODELS)
    @pytest.mark.parametrize("n", [1, 2])
    def test_edgeless_graph_rejected(self, n, time_model):
        g = Digraph(n, [], 0)
        cfg = SimConfig(lam=0.0, horizon=10, time_model=time_model)
        fam = make_family(0, ()) if time_model == "slotted-wireless" else None
        assert "the graph needs at least one edge" in cfg.validation_errors(g, fam)
        with pytest.raises(ValueError, match="at least one edge"):
            run(cfg, g, fam)

    def test_subset_policies_capped(self):
        g = Digraph(26, [(0, i) for i in range(1, 26)], 0)
        with pytest.raises(CapabilityError):
            run(SimConfig(lam=1.0, horizon=10), g)
        # The cap decides the type even when other errors come with it.
        with pytest.raises(CapabilityError) as info:
            run(SimConfig(lam=-1.0, horizon=10), g)
        assert "capped at n=25" in str(info.value)
        assert "arrival rate" in str(info.value)
        # Without the cap the same other error is a plain ValueError.
        with pytest.raises(ValueError, match="arrival rate"):
            run(SimConfig(lam=-1.0, horizon=10, policy="multiclass"), g)

    def test_large_graphs_fine_for_multiclass(self):
        g = Digraph(26, [(0, i) for i in range(1, 26)], 0)
        cfg = SimConfig(lam=0.5, horizon=20, policy="multiclass", classes=2,
                        sample_every=10)
        assert run(cfg, g).samples[-1].admitted > 0


class TestRunBasics:
    def test_zero_arrivals(self, d4):
        res = run(SimConfig(lam=0.0, horizon=500, sample_every=100), d4)
        assert all(s.admitted == s.delivered == s.backlog == 0
                   for s in res.samples)
        assert res.rate == 0.0

    def test_deterministic_replay(self, d4):
        cfg = SimConfig(lam=1.5, horizon=2000, seed=9, sample_every=250)
        assert run(cfg, d4) == run(cfg, d4)

    def test_seeds_differ(self, d4):
        cfg = SimConfig(lam=1.5, horizon=2000, seed=1, sample_every=250)
        other = SimConfig(lam=1.5, horizon=2000, seed=2, sample_every=250)
        assert run(cfg, d4) != run(other, d4)

    def test_deterministic_replay_all_policies(self, d4):
        for policy, extra in (("max-weight", {}),
                              ("multiclass", {"classes": 4}),
                              ("static-tree", {}),
                              ("randomized", {"eps": 0.05})):
            cfg = SimConfig(lam=1.2, horizon=800, seed=5, sample_every=200,
                            policy=policy, **extra)
            assert run(cfg, d4) == run(cfg, d4)

    def test_shared_arrival_paths_across_policies(self, d4):
        cfg_a = SimConfig(lam=1.5, horizon=1500, seed=3, sample_every=1500)
        cfg_b = SimConfig(lam=1.5, horizon=1500, seed=3, sample_every=1500,
                          policy="multiclass", classes=4)
        res_a, res_b = run(cfg_a, d4), run(cfg_b, d4)
        assert res_a.samples[-1].admitted == res_b.samples[-1].admitted

    def test_samples_on_grid_and_horizon(self, d4):
        res = run(SimConfig(lam=1.0, horizon=1050, sample_every=500), d4)
        assert [s.slot for s in res.samples] == [0, 500, 1000, 1050]

    def test_monotone_counters(self, d4):
        res = run(SimConfig(lam=1.5, horizon=3000, seed=2, sample_every=300), d4)
        for prev, cur in zip(res.samples, res.samples[1:]):
            assert cur.admitted >= prev.admitted
            assert cur.delivered >= prev.delivered
            assert cur.min_received >= prev.min_received
            assert all(a >= b for a, b in zip(cur.received, prev.received))

    def test_conservation_at_every_sample(self, d4):
        res = run(SimConfig(lam=1.9, horizon=5000, seed=4, sample_every=100), d4)
        for s in res.samples:
            assert s.admitted == s.delivered + s.backlog


class TestBroadcastRate:
    def test_zero_run(self, d4):
        res = run(SimConfig(lam=0.0, horizon=100, sample_every=10), d4)
        assert broadcast_rate(res) == 0.0

    def test_static_tree_saturated(self, d4):
        # Overloaded input: each tree pipelines one packet per slot per class.
        res = run(SimConfig(lam=2.5, horizon=20000, seed=1,
                            policy="static-tree"), d4)
        assert res.rate == pytest.approx(2.0, rel=0.02)

    def test_rate_bounded_by_admissions(self, d4):
        for seed in (1, 2, 3):
            res = run(SimConfig(lam=1.2, horizon=2000, seed=seed,
                                sample_every=200), d4)
            last = res.samples[-1]
            assert broadcast_rate(res, burn_in=0) <= last.admitted / last.slot

    def test_bad_burn_in(self, d4):
        res = run(SimConfig(lam=1.0, horizon=100, sample_every=10), d4)
        with pytest.raises(ValueError):
            broadcast_rate(res, burn_in=100)


class TestRandomDigraph:
    def test_two_nodes_resamples_to_the_connected_option(self):
        for seed in range(12):
            g = random_digraph(2, 1, seed)
            assert g.edges == ((0, 1),)

    def test_deterministic(self):
        assert random_digraph(9, 17, 3).edges == random_digraph(9, 17, 3).edges

    def test_round_trip(self):
        g = random_digraph(12, 30, 5)
        again = parse_graph(f"{g.n} {g.m} {g.source}\n"
                            + "".join(f"{a} {b}\n" for a, b in g.edges))
        assert again.edges == g.edges

    def test_capacity_positive(self):
        for seed in range(20):
            assert broadcast_capacity(random_digraph(6, 9, seed)) >= 1

    def test_no_antiparallel_pairs(self):
        g = random_digraph(10, 40, 2)
        pairs = set(g.edges)
        assert not any((b, a) in pairs for a, b in pairs)

    # sha256 of repr(edges) as drawn before the numpy decoding and the
    # in-degree prefilter; the bench workloads use the first three graphs.
    @pytest.mark.parametrize("n, m, seed, digest", [
        (14, 70, 4, "8e5e2f97f32bc38064dfa9c71e810e08af2b4be425594be5703d3b9741813f19"),
        (12, 30, 3, "b86af99ad5a5bbc1d1e62bce6729b05e8fe582c4a07d4a149bb903dd9fdcca4c"),
        (25, 200, 1, "772d5f7c61f58069407c243061963468858909cc0c57b3bac73a8c08ccf7685a"),
        (8, 16, 2, "93b725abd2ce3831eb6efac8eb18f2b53e390062d3b9c68d9dae96fe0333aa74"),
    ])
    def test_pinned_graphs(self, n, m, seed, digest):
        edges = random_digraph(n, m, seed).edges
        assert hashlib.sha256(repr(edges).encode()).hexdigest() == digest

    @settings(max_examples=300, deadline=2000)
    @given(n=st.integers(2, 7), data=st.data())
    def test_prefilter_keeps_every_reachable_draw(self, n, data):
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True))
        heads = np.array([b for _, b in edges], dtype=np.int64)
        if reaches_all(n, 0, edges):
            assert _entered_all(n, heads)

    def test_infeasible_sizes_rejected(self):
        with pytest.raises(ValueError):
            random_digraph(4, 2, 0)
        with pytest.raises(ValueError):
            random_digraph(4, 7, 0)

    def test_no_connected_sample_is_a_value_error(self, monkeypatch):
        # A tree-sized edge count rarely yields an arborescence from node 0.
        # Each draw is rejected by a reachability walk, never a max-flow.
        def no_flow(*args, **kwargs):
            raise AssertionError("random_digraph ran a max-flow")

        monkeypatch.setattr(graph, "max_flow", no_flow)
        with pytest.raises(ValueError) as err:
            random_digraph(12, 11, 1)
        assert str(err.value) == ("no connected sample found for n=12, m=11, "
                                  "seed=1; use more edges or another seed")

    def test_twenty_node_instance(self):
        # Desk-scale stand-in for a 20-node, 176-edge experiment topology.
        g = random_digraph(20, 176, 1)
        cap = broadcast_capacity(g)
        assert cap == 5
        assert 1 <= cap <= g.n / 2


class TestLoopReplay:
    """``run`` against a slow replay of the documented protocol with scalar
    draws: many draw blocks per stream, and a sample cadence that does not
    divide the horizon."""

    @pytest.mark.parametrize("spec, lam_mini, lam_slotted, burn_in", [
        ("diamond4", 1.9, 0.6, None),
        ("random(6,10,1)", 0.9, 0.45, 500),
        ("random(6,10,5)", 0.9, 0.45, None),
    ])
    @pytest.mark.parametrize("time_model", TIME_MODELS)
    def test_outputs_match_the_replay(self, spec, lam_mini, lam_slotted, burn_in,
                                      time_model):
        g = resolve_graph(spec)
        slotted = time_model == "slotted-wireless"
        fam = primary_interference_family(g) if slotted else None
        cfg = SimConfig(lam=lam_slotted if slotted else lam_mini, horizon=1300,
                        seed=3, time_model=time_model, sample_every=250,
                        burn_in=burn_in)
        res = run(cfg, g, fam)
        assert (run_csv(res), received_csv(res), res.rate) == replay_max_weight(cfg, g, fam)

    def test_overloaded_slotted_run_matches_the_replay(self):
        """Above the slotted capacity the backlog grows, so the queue counts,
        and with them the activation memo's keys, seldom repeat."""
        g = resolve_graph("random(6,10,1)")
        fam = primary_interference_family(g)
        cfg = SimConfig(lam=3.0, horizon=1300, seed=3, time_model="slotted-wireless",
                        sample_every=250)
        res = run(cfg, g, fam)
        assert (run_csv(res), received_csv(res), res.rate) == replay_max_weight(cfg, g, fam)

    @pytest.mark.parametrize("lam", [5e17, 1e18])
    def test_huge_rate_slotted_run_matches_the_replay(self, d4, lam):
        """Edge weights pass 2**63 - 1 within a few slots, so the activation
        totals must stay exact past int64."""
        fam = primary_interference_family(d4)
        cfg = SimConfig(lam=lam, horizon=40, seed=3, time_model="slotted-wireless",
                        sample_every=10)
        res = run(cfg, d4, fam)
        assert (run_csv(res), received_csv(res), res.rate) == replay_max_weight(cfg, d4, fam)

    @pytest.mark.parametrize("spec, lam", [
        ("diamond4", 1.6), ("random(6,10,1)", 0.85), ("random(6,10,5)", 0.85)])
    def test_randomized_outputs_match_the_replay(self, spec, lam):
        """Many blocks of policy uniforms, after the set-up's draws from the
        same stream."""
        g = resolve_graph(spec)
        cfg = SimConfig(lam=lam, horizon=1300, seed=3, policy="randomized",
                        sample_every=250)
        res = run(cfg, g)
        table_csv = "\n".join(res.rand_table.csv_rows()) + "\n"
        assert ((run_csv(res), received_csv(res), res.rate, table_csv)
                == replay_randomized(cfg, g))

    @pytest.mark.parametrize("spec, lam_mini, lam_slotted, classes", [
        ("diamond4", 1.6, 0.6, 3),
        ("random(6,10,1)", 0.85, 0.45, 2),
        ("random(6,10,5)", 0.85, 0.45, 1),
    ])
    @pytest.mark.parametrize("time_model", TIME_MODELS)
    def test_multiclass_outputs_match_the_replay(self, spec, lam_mini, lam_slotted,
                                                 classes, time_model):
        """In mini-slot mode more than one block of class labels is used."""
        g = resolve_graph(spec)
        slotted = time_model == "slotted-wireless"
        fam = primary_interference_family(g) if slotted else None
        cfg = SimConfig(lam=lam_slotted if slotted else lam_mini, horizon=1300,
                        seed=3, time_model=time_model, policy="multiclass",
                        classes=classes, sample_every=250)
        res = run(cfg, g, fam)
        assert (run_csv(res), received_csv(res), res.rate) == replay_in_order(cfg, g, fam)

    @pytest.mark.parametrize("spec, lam", [
        ("diamond4", 1.6), ("random(6,10,1)", 0.85), ("random(8,16,2)", 0.9)])
    def test_static_tree_outputs_match_the_replay(self, spec, lam):
        g = resolve_graph(spec)
        cfg = SimConfig(lam=lam, horizon=1300, seed=3, policy="static-tree",
                        sample_every=250)
        res = run(cfg, g)
        assert (run_csv(res), received_csv(res), res.rate) == replay_in_order(cfg, g)


@st.composite
def small_runs(draw):
    """A short run of any policy on a graph of at most 6 nodes, in either
    time model where the policy has one, with its activation family."""
    g = draw(small_graphs(6, min_n=3))
    policy, slotted = draw(st.sampled_from(
        [(p, False) for p in sim.POLICIES]
        + [("max-weight", True), ("multiclass", True)]))
    horizon = draw(st.integers(10, 400))
    cfg = SimConfig(
        lam=draw(st.sampled_from([0.9, 0.2, 0.5, 1.4, 2.0, 2.8])), horizon=horizon,
        seed=draw(st.integers(0, 2 ** 16)),
        time_model="slotted-wireless" if slotted else "mini-slot",
        policy=policy, classes=draw(st.integers(1, 4)),
        sample_every=draw(st.integers(1, 120)),
        burn_in=draw(st.none() | st.integers(0, horizon - 1)))
    fam = None
    if slotted:
        fam = draw(st.sampled_from([primary_interference_family,
                                    lambda g: wireline_family(g.m)]))(g)
    return cfg, g, fam


@settings(max_examples=250, deadline=5000)
@given(small_runs())
def test_any_small_run_matches_its_replay(case):
    """Every policy and time model on drawn graphs, rates, cadences and
    burn-ins; the slotted replay searches each slot's activation afresh, so
    this also checks ``run``'s activation memo."""
    cfg, g, fam = case
    res = run(cfg, g, fam)
    got = (run_csv(res), received_csv(res), res.rate)
    if cfg.policy == "max-weight":
        assert got == replay_max_weight(cfg, g, fam)
    elif cfg.policy == "randomized":
        table_csv = "\n".join(res.rand_table.csv_rows()) + "\n"
        assert (*got, table_csv) == replay_randomized(cfg, g)
    else:
        assert got == replay_in_order(cfg, g, fam)


class TestBlockDraws:
    """``run`` draws every random stream in blocks of ``policies._BLOCK_DRAWS``
    values and uses them one at a time: arrival counts, active edges, class
    labels, policy uniforms and the sampler's words. That gives the scalar
    calls' values only while numpy's block and scalar forms consume a
    generator alike, which these tests check draw by draw and by the
    generator state after three blocks."""

    @staticmethod
    def _pair(seed):
        # A few 32-bit draws first, as set-up makes on the policy stream, so
        # a half-used word may carry into the blocks.
        gens = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in gens:
            rng.integers(5, size=3)
            [rng.integers(5) for _ in range(3)]
        return gens

    def _assert_blocks_equal_scalars(self, seed, size, draw, *args):
        block, scalar = self._pair(seed)
        drawn = [x for _ in range(3)
                 for x in getattr(block, draw)(*args, size=size).tolist()]
        assert drawn == [getattr(scalar, draw)(*args) for _ in range(3 * size)]
        assert block.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("size", [1, 3, 7, 257, 1024])
    def test_random_blocks_equal_scalar_calls(self, size):
        self._assert_blocks_equal_scalars(size, size, "random")

    def test_random_blocks_of_mixed_sizes_equal_scalar_calls(self):
        """The randomized picker draws one block per block of events, sized
        by the events over a non-empty entry, so the sizes vary."""
        sizes = (0, 1, 7, 1024, 0, 7)
        block, scalar = self._pair(11)
        drawn = [x for size in sizes for x in block.random(size=size).tolist()]
        assert drawn == [scalar.random() for _ in range(sum(sizes))]
        assert block.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 16, 1000])
    @pytest.mark.parametrize("size", [1, 3, 7, 257])
    def test_integer_blocks_equal_scalar_calls(self, k, size):
        self._assert_blocks_equal_scalars(k * size, size, "integers", k)

    @pytest.mark.parametrize("m", [1, 2, 70])
    @pytest.mark.parametrize("size", [1, 7, 257])
    def test_edge_blocks_equal_scalar_calls(self, m, size):
        self._assert_blocks_equal_scalars(m * size, size, "integers", 0, m)

    # 0 draws nothing; numpy samples below 10 by inversion, from 10 on by
    # transformed rejection.
    @pytest.mark.parametrize("lam", [0.0, 0.04, 9.99, 10.0, 37.5])
    @pytest.mark.parametrize("size", [1, 7, 257])
    def test_poisson_blocks_equal_scalar_calls(self, lam, size):
        self._assert_blocks_equal_scalars(size, size, "poisson", lam)

    @pytest.mark.parametrize("block", [1, 7])
    def test_run_outputs_do_not_depend_on_the_block_size(self, d4, monkeypatch, block):
        fam = primary_interference_family(d4)
        cases = [(SimConfig(lam=1.6, horizon=300, seed=5, policy=policy,
                            classes=3, sample_every=40), None)
                 for policy in sim.POLICIES]
        cases += [(SimConfig(lam=0.6, horizon=300, seed=5, policy=policy,
                             time_model="slotted-wireless", classes=3,
                             sample_every=40), fam)
                  for policy in ("max-weight", "multiclass")]
        cases = [(cfg, d4, f) for cfg, f in cases]
        # An edge into the source leaves no growth set, so its table entry
        # is empty and its events draw no uniform.
        back = Digraph(d4.n, d4.edges + ((1, 0),), d4.source)
        cases.append((SimConfig(lam=1.6, horizon=300, seed=5, policy="randomized",
                                extra_sequences=1, sample_every=40), back, None))

        def outputs():
            out = []
            for cfg, g, f in cases:
                res = run(cfg, g, f)
                table = res.rand_table
                out.append((run_csv(res), received_csv(res),
                            "\n".join(table.csv_rows()) if table else None))
            return out

        default = outputs()
        monkeypatch.setattr(policies, "_BLOCK_DRAWS", block)
        assert outputs() == default


class TestSweep:
    def test_requires_headroom(self, d4):
        with pytest.raises(ValueError):
            sweep_k(d4, 2.0, [1], 100, 1)

    def test_single_k(self, d4):
        rows = sweep_k(d4, 1.0, [2], horizon=1000, seed=1, sample_every=200)
        assert len(rows) == 1 and rows[0][0] == 2

    def test_in_order_single_class_suffices_on_acyclic_graphs(self):
        lam = 0.9 * broadcast_capacity(DAG4)
        rows = sweep_k(DAG4, lam, [1], horizon=8000, seed=2, sample_every=500)
        assert rows[0][1] >= 0.95 * lam


class TestStabilitySignatures:
    def test_below_capacity_backlog_stays_flat(self, d4):
        horizon = 20000
        res = run(SimConfig(lam=0.975 * 2, horizon=horizon, seed=6,
                            sample_every=200), d4)
        half = horizon // 2
        first = max(s.backlog for s in res.samples if 0 < s.slot <= half)
        second = max(s.backlog for s in res.samples if s.slot > half)
        assert second <= 2 * first

    def test_above_capacity_backlog_grows_linearly(self, d4):
        horizon = 10000
        lam = 1.2 * 2
        res = run(SimConfig(lam=lam, horizon=horizon, seed=6,
                            sample_every=500), d4)
        assert res.samples[-1].backlog >= 0.1 * (lam - 2) * horizon


class TestCsv:
    def test_run_csv_header_and_rows(self, d4):
        res = run(SimConfig(lam=1.0, horizon=100, sample_every=50), d4)
        lines = run_csv(res).splitlines()
        assert lines[0] == "slot,admitted,delivered,min_received,backlog"
        assert len(lines) == 1 + len(res.samples)

    def test_received_csv(self, d4):
        res = run(SimConfig(lam=1.0, horizon=100, sample_every=50), d4)
        lines = received_csv(res).splitlines()
        assert lines[0] == "slot,recv_0,recv_1,recv_2,recv_3"

    def test_sweep_csv(self):
        assert sweep_csv([(1, 0.5), (2, 1.25)]).splitlines() == [
            "k,rate", "1,0.500000", "2,1.250000"]


def test_slotted_wireline_run(d4):
    cfg = SimConfig(lam=1.5, horizon=2000, seed=8, sample_every=200,
                    time_model="slotted-wireless")
    res = run(cfg, d4, wireline_family(d4.m))
    assert res.samples[-1].delivered > 0
    for s in res.samples:
        assert s.admitted == s.delivered + s.backlog


def test_uniform_singleton_slots_match_the_mini_slot_engine(d4):
    """One uniformly active edge per slot is a mini-slot by another name: a
    hand-rolled singleton loop must deliver at the engine's per-activation
    rate."""
    from bcastsim.policies import max_weight_decide
    from bcastsim.queues import VirtualQueueState

    lam, steps = 1.9, 90_000
    rng = np.random.default_rng(17)
    state = VirtualQueueState(d4)
    arrivals = rng.poisson(lam / d4.m, size=steps).tolist()
    edges = rng.integers(0, d4.m, size=steps).tolist()
    for a, eid in zip(arrivals, edges):
        if a:
            state.admit(a)
        fset = max_weight_decide(state, eid)
        if fset is not None:
            state.transmit(fset, eid)
    per_slot = d4.m * min(state.received_count(v) for v in range(d4.n)) / steps
    engine = run(SimConfig(lam=lam, horizon=steps // d4.m, seed=17), d4)
    assert per_slot == pytest.approx(engine.rate, rel=0.03)


def test_multiclass_per_node_delivery_never_exceeds_admissions(d4):
    cfg = SimConfig(lam=1.8, horizon=4000, seed=13, policy="multiclass",
                    classes=4, sample_every=200)
    res = run(cfg, d4)
    for s in res.samples:
        assert all(r <= s.admitted for r in s.received)
        assert s.received[0] == s.admitted  # the source holds everything



def _undeliver(g, state):
    # Moving 20 delivered packets back to the source drops every other
    # node's count by 20; one slot of m=6 moves cannot make that up.
    if state.delivered >= 20:
        state.counts[g.source_mask] = (
            state.counts.get(g.source_mask, 0) + state.delivered)
        state.delivered = 0


def _break_conservation(g, state):
    # Only conservation breaks: every received count stays within admitted.
    state.admitted += 1


def _over_deliver(g, state):
    state.admitted += 100
    state.delivered += 100


def _over_receive(g, state):
    state.highest[0][g.source] += 1


def _shift_in_counts(g, state):
    # Move one delivered packet back to the source's set in the queue counts
    # only. Conservation and every received count (read from the in-order
    # indices) still hold; only the histogram check can see it.
    if state.delivered:
        state.delivered -= 1
        state.counts[g.source_mask] = state.counts.get(g.source_mask, 0) + 1


def _forget_in_flight_copies(g, state):
    # Overwrite class 0's oldest in-flight set with the source singleton.
    # The indices and the queue counts are untouched; the next move of that
    # packet takes the wrong set out of the counts, which then disagree with
    # the histogram rebuilt from the indices.
    sets = state.inflight[0]
    if sets:
        sets[0] = g.source_mask


@pytest.mark.parametrize("policy, corrupt, message", [
    ("max-weight", _undeliver, "fell below its previous sample"),
    ("max-weight", _break_conservation, "conservation violated"),
    ("multiclass", _over_deliver, "exceeds min_received"),
    ("multiclass", _over_receive, "exceeds admitted"),
    ("multiclass", _shift_in_counts, "queue counts differ"),
    ("multiclass", _forget_in_flight_copies, "queue counts differ"),
])
def test_record_rejects_corrupted_state(d4, monkeypatch, policy, corrupt, message):
    """Each sample checks the invariants: apply ``corrupt`` after every step
    and expect the matching SchedulingError."""
    set_up = sim._set_up_policy

    def corrupted(*args):
        state, step, table = set_up(*args)

        def bad_step(eid):
            step(eid)
            corrupt(d4, state)

        return state, bad_step, table

    monkeypatch.setattr(sim, "_set_up_policy", corrupted)
    cfg = SimConfig(lam=1.5, horizon=200, seed=3, sample_every=1, policy=policy,
                    classes=2)
    with pytest.raises(SchedulingError, match=message):
        run(cfg, d4)
