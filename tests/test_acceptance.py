"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s to see them on success).

Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import time

import numpy as np

from bcastsim import (SimConfig, broadcast_capacity, random_digraph, run,
                      sweep_k, tree_packing)
from bcastsim.fixtures import diamond4
from bcastsim.graph import is_arborescence, out_edges
from bcastsim.policies import (MultiClassState, assign_class, edge_weight,
                               max_weight_decide, multiclass_apply,
                               multiclass_decide)
from bcastsim.queues import VirtualQueueState
from bcastsim.wireless import (choose_activation, primary_interference_family,
                               wireline_family)

from oracles import (PacketLedger, brute_min_cut, count_exactly_at,
                     independent_arborescence_check)

D4 = diamond4()
D4_CAPACITY = 2


def report(criterion: int, ok: bool, detail: str):
    print(f"[acceptance] criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_capacity_oracle():
    t0 = time.perf_counter()
    ok = broadcast_capacity(D4) == D4_CAPACITY
    checked = 0
    for i in range(200):
        n = 3 + i % 6  # 3..8
        max_m = n * (n - 1) // 2
        m = max(n - 1, (i * 7) % (max_m + 1))
        g = random_digraph(n, m, seed=31_000 + i)
        ok = ok and broadcast_capacity(g) == brute_min_cut(g)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(1, ok, f"diamond capacity 2; {checked} random graphs match "
                  f"brute-force min cuts in {elapsed:.1f}s (< 10s)")


def test_criterion_02_tree_packing():
    t0 = time.perf_counter()
    graphs = [D4] + [
        random_digraph(4 + i % 7, max(4 + i % 7 - 1,
                                      (i * 3) % ((4 + i % 7) * (3 + i % 7) // 2 + 1)),
                       seed=32_000 + i)
        for i in range(50)
    ]
    ok = True
    for g in graphs:
        cap = broadcast_capacity(g)
        trees = tree_packing(g)
        ok = ok and len(trees) == cap
        ok = ok and cap <= g.n / 2
        used = set()
        for t in trees:
            ok = ok and is_arborescence(g, t.edge_ids)
            ok = ok and independent_arborescence_check(g, t.edge_ids)
            ok = ok and not (used & t.edge_set)
            used |= t.edge_set
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(2, ok, f"{len(graphs)} graphs packed to capacity, disjoint and "
                  f"spanning, capacity <= n/2, in {elapsed:.1f}s (< 30s)")


def test_criterion_03_saturation_rate():
    t0 = time.perf_counter()
    rates = []
    for seed in range(1, 6):
        cfg = SimConfig(lam=1.95, horizon=100_000, seed=seed)
        rates.append(run(cfg, D4).rate)
    elapsed = time.perf_counter() - t0
    ok = all(1.90 <= r <= 2.00 for r in rates) and elapsed < 60.0
    report(3, ok, "max-weight rates at lambda=1.95: "
                  + " ".join(f"{r:.4f}" for r in rates)
                  + f" all in [1.90, 2.00], {elapsed:.1f}s (< 60s)")


def test_criterion_04_single_class_ceiling():
    horizon = 50_000
    k1, k16 = [], []
    for seed in range(1, 6):
        k1.append(run(SimConfig(lam=1.95, horizon=horizon, seed=seed,
                                policy="multiclass", classes=1), D4).rate)
        k16.append(run(SimConfig(lam=1.95, horizon=horizon, seed=seed,
                                 policy="multiclass", classes=16), D4).rate)
    mean1 = sum(k1) / len(k1)
    mean16 = sum(k16) / len(k16)
    ok = mean16 - mean1 >= 0.05 and mean16 >= 1.85
    report(4, ok, f"single-class mean rate {mean1:.4f} sits >= 0.05 below "
                  f"16-class mean {mean16:.4f}, and 16-class >= 1.85")


def test_criterion_05_class_count_monotonicity():
    ks = [1, 2, 4, 8, 16]
    ok = True
    details = []
    rows = sweep_k(D4, 1.95, ks, horizon=20_000, seed=1, sample_every=500)
    ok &= all(b >= a - 0.05 for (_, a), (_, b) in zip(rows, rows[1:]))
    details.append("diamond4 " + " ".join(f"{r:.3f}" for _, r in rows))
    for seed in (101, 102, 103):
        g = random_digraph(10, 40, seed=seed)
        lam = 0.95 * broadcast_capacity(g)
        rows = sweep_k(g, lam, ks, horizon=8_000, seed=seed, sample_every=500)
        ok &= all(b >= a - 0.05 for (_, a), (_, b) in zip(rows, rows[1:]))
        details.append(f"g{seed} " + " ".join(f"{r:.3f}" for _, r in rows))
    report(5, ok, "rates non-decreasing in k within 0.05: " + "; ".join(details))


def test_criterion_06_static_tree_rate():
    cfg = SimConfig(lam=1.95, horizon=100_000, seed=1, policy="static-tree")
    rate = run(cfg, D4).rate
    ok = rate >= 1.90
    report(6, ok, f"static-tree rate {rate:.4f} >= 1.90 at lambda=1.95")


def test_criterion_07_randomized_stability_and_ceiling():
    horizon = 100_000
    stable = run(SimConfig(lam=1.9, horizon=horizon, seed=2, policy="randomized",
                           eps=0.05), D4)
    half = horizon // 2
    first = max(s.backlog for s in stable.samples if 0 < s.slot <= half)
    second = max(s.backlog for s in stable.samples if s.slot > half)
    ok = second <= 2 * first and stable.rate >= 1.8
    over = run(SimConfig(lam=2.4, horizon=horizon, seed=2, policy="randomized",
                         eps=0.05), D4)
    floor = 0.1 * (2.4 - D4_CAPACITY) * horizon
    ok = ok and over.samples[-1].backlog >= floor
    report(7, ok, f"stable run backlog max ratio {second}/{first} <= 2 with "
                  f"rate {stable.rate:.4f} >= 1.8; overloaded backlog "
                  f"{over.samples[-1].backlog} >= {floor:.0f}")


def test_criterion_08_conservation_and_counting_formula():
    # Randomized operation sequences never break admitted = delivered + backlog.
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(38_000 + seed)
        state = VirtualQueueState(D4)
        kinds = rng.random(10_000)
        amounts = rng.integers(0, 4, size=10_000)
        picks = rng.integers(0, 1 << 20, size=(10_000, 2))
        for i in range(10_000):
            if kinds[i] < 0.4:
                state.admit(int(amounts[i]))
            elif state.counts:
                keys = sorted(state.counts)
                fset = keys[picks[i][0] % len(keys)]
                boundary = out_edges(D4, fset)
                state.transmit(fset, boundary[picks[i][1] % len(boundary)])
            ok = ok and state.admitted == state.delivered + state.total_backlog()
        if not ok:
            break

    # The per-class min/max counting formula matches a per-packet ledger on
    # every mini-slot of 20 seeded short runs.
    full = D4.full_mask
    for seed in range(20):
        rng = np.random.default_rng(39_000 + seed)
        state = MultiClassState(D4, 3)
        ledger = PacketLedger(D4)
        for _ in range(900):
            for _ in range(int(rng.poisson(0.3))):
                c = assign_class(rng, 3)
                state.admit_packet(c)
                ledger.admit(c, state.highest[c][D4.source])
            eid = int(rng.integers(D4.m))
            c = multiclass_decide(state, eid)
            if c is not None:
                head = state.highest[c][D4.edges[eid][1]] + 1
                multiclass_apply(state, c, eid)
                ledger.move(c, head, D4.edges[eid][1])
            hist = ledger.histogram()
            for gset in range(1, 1 << D4.n):
                expect = ledger.delivered() if gset == full else hist.get(gset, 0)
                ok = ok and count_exactly_at(state, gset) == expect
        if not ok:
            break
    report(8, ok, "conservation held across 100x10k random ops; counting "
                  "formula matched the packet ledger on every mini-slot of "
                  "20 runs")


def test_criterion_09_mini_slot_vs_slotted_agreement():
    ok = True
    details = []
    fam = wireline_family(D4.m)
    for seed in range(1, 6):
        mini = run(SimConfig(lam=1.9, horizon=30_000, seed=seed), D4).rate
        slotted = run(SimConfig(lam=1.9, horizon=30_000, seed=seed,
                                time_model="slotted-wireless"), D4, fam).rate
        rel = abs(mini - slotted) / mini
        ok = ok and rel <= 0.03
        details.append(f"{rel:.3f}")
    report(9, ok, "mini-slot vs slotted relative rate gaps: "
                  + " ".join(details) + " all <= 0.03")


def test_criterion_10_wireless_activation_argmax():
    fam = primary_interference_family(D4)
    state = VirtualQueueState(D4)
    rng = np.random.default_rng(40_001)
    ok = True
    for _ in range(3_000):
        state.admit(int(rng.poisson(0.8)))
        weights = [edge_weight(state, e) for e in range(D4.m)]
        chosen = choose_activation(weights, fam)

        def total(mask):
            return sum(max(weights[e], 0) for e in range(D4.m) if (mask >> e) & 1)

        ok = ok and chosen in fam.masks
        ok = ok and total(chosen) == max(total(m) for m in fam.masks)
        mask = chosen
        while mask:
            low = mask & -mask
            eid = low.bit_length() - 1
            fset = max_weight_decide(state, eid)
            if fset is not None:
                state.transmit(fset, eid)
            mask ^= low
        ok = ok and state.admitted == state.delivered + state.total_backlog()
        if not ok:
            break
    report(10, ok, "chosen activation matched the exhaustive argmax and "
                   "conservation held on every slot of a 3000-slot run")
