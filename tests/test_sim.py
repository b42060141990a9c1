import pytest

from bcastsim import (CapabilityError, SimConfig, broadcast_capacity,
                      broadcast_rate, format_graph, parse_graph,
                      random_digraph, run, sweep_k, wireline_family)
from bcastsim.graph import Digraph
from bcastsim.sim import received_csv, run_csv, sweep_csv

# D4 minus the return edge ca: an acyclic graph with capacity 1.
DAG4 = Digraph(4, [(0, 1), (1, 2), (2, 3), (0, 2), (0, 3)], 0)


class TestConfigValidation:
    def test_valid_default(self, d4):
        assert SimConfig(lam=1.0, horizon=10).validation_errors(d4) == []

    def test_collects_every_error(self):
        cfg = SimConfig(lam=-1, horizon=0, policy="nope", sample_every=0)
        errs = cfg.validation_errors()
        assert len(errs) == 4

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

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
    def test_lambda_must_be_finite_and_non_negative(self, d4, lam):
        cfg = SimConfig(lam=lam, horizon=10)
        errs = cfg.validation_errors(d4)
        assert len(errs) == 1 and "arrival rate" in errs[0]
        with pytest.raises(ValueError, match="arrival rate"):
            run(cfg, d4)

    @pytest.mark.parametrize("n", [1, 2])
    def test_edgeless_graph_rejected_in_mini_slot_mode(self, n):
        g = Digraph(n, [], 0)
        cfg = SimConfig(lam=0.0, horizon=10)
        assert any("at least one edge" in e for e in cfg.validation_errors(g))
        with pytest.raises(ValueError, match="at least one edge"):
            run(cfg, g)

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
        again = parse_graph(format_graph(g))
        assert again.edges == g.edges

    def test_capacity_positive(self):
        for seed in range(20):
            assert broadcast_capacity(random_digraph(6, 9, seed)) >= 1

    def test_no_antiparallel_pairs(self):
        g = random_digraph(10, 40, 2)
        pairs = set(g.edges)
        assert not any((b, a) in pairs for a, b in pairs)

    def test_infeasible_sizes_rejected(self):
        with pytest.raises(ValueError):
            random_digraph(4, 2, 0)
        with pytest.raises(ValueError):
            random_digraph(4, 7, 0)

    def test_twenty_node_instance(self):
        # Desk-scale stand-in for a 20-node, 176-edge experiment topology.
        g = random_digraph(20, 176, 1)
        cap = broadcast_capacity(g)
        assert cap == 5
        assert 1 <= cap <= g.n / 2


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
    import numpy as np

    from bcastsim import VirtualQueueState, max_weight_decide

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
