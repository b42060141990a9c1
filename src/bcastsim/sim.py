"""The simulation engine, metrics, random graphs and sweeps.

``run`` has one loop per time model (mini-slot, slotted wireless). It drives
every policy the same way: ``_set_up_policy`` returns the policy's state, an
``admit(count)`` function and a per-policy ``step(eid)`` function that decides
the move over the active edge and applies it.

Each run owns four independent RNG streams (arrivals, edge activation, class
labels, policy sampling) spawned from one seed, so runs with equal seeds see
identical arrival sample paths regardless of the policy under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import CapabilityError, SchedulingError
from .graph import Digraph, broadcast_capacity, tree_packing
from .policies import (MultiClassState, RandomizedTable, assign_class,
                       build_randomized_table, default_eps, edge_weight,
                       max_weight_decide, multiclass_apply, multiclass_decide,
                       randomized_decide, sample_reachable_sequences,
                       static_tree_decide)
from .queues import VirtualQueueState
from .wireless import ActivationFamily, choose_activation

POLICIES = ("max-weight", "multiclass", "static-tree", "randomized")
TIME_MODELS = ("mini-slot", "slotted-wireless")

# Virtual-queue policies key their state by node subsets; cap the width.
MAX_WEIGHT_NODE_LIMIT = 25

# numpy's Poisson sampler refuses rates above about 9.2e18.
MAX_ARRIVAL_RATE = 1e18

_CHUNK_SLOTS = 1024


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: arrival rate in packets per slot, horizon in slots.

    ``classes`` applies to the multiclass policy; ``eps`` and
    ``extra_sequences`` to the randomized one (defaults: half the capacity
    slack, and four sequences per edge). ``burn_in`` defaults to a tenth of
    the horizon.
    """

    lam: float
    horizon: int
    seed: int = 1
    time_model: str = "mini-slot"
    policy: str = "max-weight"
    classes: int = 1
    eps: float | None = None
    extra_sequences: int | None = None
    sample_every: int = 1000
    burn_in: int | None = None

    def validation_errors(self, g: Digraph | None = None,
                          fam: ActivationFamily | None = None) -> list[str]:
        errs = []
        if not (math.isfinite(self.lam) and self.lam >= 0):
            errs.append(f"arrival rate must be finite and non-negative, got {self.lam}")
        elif self.lam > MAX_ARRIVAL_RATE:
            errs.append(f"arrival rate must be at most {MAX_ARRIVAL_RATE:g}, got {self.lam}")
        if self.horizon < 1:
            errs.append(f"horizon must be at least 1 slot, got {self.horizon}")
        if self.sample_every < 1:
            errs.append(f"sample_every must be positive, got {self.sample_every}")
        if self.policy not in POLICIES:
            errs.append(f"unknown policy '{self.policy}' (choose from {', '.join(POLICIES)})")
        if self.time_model not in TIME_MODELS:
            errs.append(f"unknown time model '{self.time_model}'")
        if self.policy == "multiclass" and self.classes < 1:
            errs.append(f"multiclass policy needs classes >= 1, got {self.classes}")
        if self.eps is not None and self.eps <= 0:
            errs.append(f"eps must be positive, got {self.eps}")
        if self.extra_sequences is not None and self.extra_sequences < 1:
            errs.append(f"extra_sequences must be positive, got {self.extra_sequences}")
        if self.burn_in is not None and not 0 <= self.burn_in < self.horizon:
            errs.append(f"burn_in must lie in [0, horizon), got {self.burn_in}")
        if self.time_model == "slotted-wireless":
            if fam is None and g is not None:
                errs.append("slotted-wireless mode requires an activation family")
            if self.policy not in ("max-weight", "multiclass"):
                errs.append(f"policy '{self.policy}' has no slotted-wireless weights")
        elif fam is not None:
            errs.append("activation family only applies to slotted-wireless mode")
        if g is not None:
            if fam is not None and fam.edge_count != g.m:
                errs.append(f"activation family built for {fam.edge_count} edges, graph has {g.m}")
            if g.m == 0:
                errs.append("the graph needs at least one edge")
            if self._exceeds_node_cap(g):
                errs.append(
                    f"policy '{self.policy}' tracks node subsets and is capped "
                    f"at n={MAX_WEIGHT_NODE_LIMIT}, got n={g.n}")
        return errs

    def _exceeds_node_cap(self, g: Digraph) -> bool:
        """Whether a node-subset policy is asked to run on too wide a graph."""
        return self.policy in ("max-weight", "randomized") and g.n > MAX_WEIGHT_NODE_LIMIT


@dataclass(frozen=True)
class Sample:
    slot: int
    admitted: int
    delivered: int
    min_received: int
    received: tuple[int, ...]
    backlog: int


@dataclass(frozen=True)
class RunResult:
    """Per-run time series plus the burn-in-adjusted broadcast rate."""

    config: SimConfig
    node_count: int
    samples: tuple[Sample, ...]
    rate: float
    rand_table: RandomizedTable | None = None


def broadcast_rate(result: RunResult, burn_in: int | None = None) -> float:
    """Slope of the minimum per-node received count after a warm-up window.

    The baseline is the last recorded sample at or before ``burn_in`` slots
    (default: the configured burn-in, else a tenth of the horizon).
    """
    cfg = result.config
    if burn_in is None:
        burn_in = cfg.burn_in if cfg.burn_in is not None else cfg.horizon // 10
    if not 0 <= burn_in < cfg.horizon:
        raise ValueError(f"burn_in must lie in [0, horizon), got {burn_in}")
    base = result.samples[0]
    for sample in result.samples:
        if sample.slot <= burn_in:
            base = sample
        else:
            break
    last = result.samples[-1]
    return (last.min_received - base.min_received) / (last.slot - base.slot)


def _set_up_policy(config: SimConfig, g: Digraph, cls_rng, pol_rng):
    """The configured policy's state, the VirtualQueueState counting its
    packets (the state itself, or the multiclass mirror), ``admit(count)``,
    ``step(eid)`` (decide the move over the active edge, then apply it unless
    the policy idles) and the randomized table, or None."""
    policy = config.policy
    table = None
    if policy in ("static-tree", "randomized"):
        trees = tree_packing(g)
        if not trees:
            raise ValueError(f"{policy} policy needs broadcast capacity >= 1")
    if policy in ("max-weight", "randomized"):
        state = queues = VirtualQueueState(g)
        admit = state.admit
    else:
        state = MultiClassState(g, len(trees) if policy == "static-tree" else config.classes)
        queues = state.mirror

        def admit(count: int):
            for _ in range(count):
                state.admit_packet(assign_class(cls_rng, state.k))

    if policy == "max-weight":
        def step(eid: int):
            fset = max_weight_decide(state, eid)
            if fset is not None:
                state.transmit(fset, eid)
    elif policy == "randomized":
        eps = config.eps
        if eps is None:
            eps = default_eps(len(trees), config.lam, g.n)
        bprime = config.extra_sequences
        if bprime is None:
            bprime = 4 * g.m
        extra = sample_reachable_sequences(g, bprime, pol_rng)
        table = build_randomized_table(g, trees, extra, eps)

        def step(eid: int):
            fset = randomized_decide(table, state, eid, pol_rng)
            if fset is not None:
                state.transmit(fset, eid)
    elif policy == "multiclass":
        def step(eid: int):
            c = multiclass_decide(state, eid)
            if c is not None:
                multiclass_apply(state, c, eid)
    else:
        def step(eid: int):
            c = static_tree_decide(state, trees, eid)
            if c is not None:
                multiclass_apply(state, c, eid)
    return state, queues, admit, step, table


def run(config: SimConfig, g: Digraph, fam: ActivationFamily | None = None) -> RunResult:
    """Simulate one run and return its sampled time series.

    One loop per time model drives the policy through the ``admit`` and
    ``step`` functions that ``_set_up_policy`` returns. Mini-slot mode: every
    slot is ``m`` mini-slots, each drawing arrivals and one uniformly active
    edge, with at most one transmission. Slotted mode: arrivals once per
    slot, then a max-weight feasible activation forwards at most one packet
    per activated edge, edges applied in ascending id order. Fully
    deterministic given the seed.
    """
    errors = config.validation_errors(g, fam)
    if errors:
        exc = CapabilityError if config._exceeds_node_cap(g) else ValueError
        raise exc("; ".join(errors))

    arr_seq, act_seq, cls_seq, pol_seq = np.random.SeedSequence(config.seed).spawn(4)
    arr_rng = np.random.default_rng(arr_seq)
    act_rng = np.random.default_rng(act_seq)
    cls_rng = np.random.default_rng(cls_seq)
    pol_rng = np.random.default_rng(pol_seq)

    state, queues, admit, step, table = _set_up_policy(config, g, cls_rng, pol_rng)

    samples: list[Sample] = []
    nodes = range(g.n)

    def record(slot: int):
        received = [state.received_count(v) for v in nodes]
        backlog = queues.total_backlog()
        admitted, delivered = queues.admitted, queues.delivered
        min_received = min(received)
        if admitted != delivered + backlog:
            raise SchedulingError(
                f"conservation violated at slot {slot}: admitted={admitted} "
                f"delivered={delivered} backlog={backlog}")
        if delivered > min_received:
            raise SchedulingError(
                f"delivered={delivered} exceeds min_received={min_received} at slot {slot}")
        if max(received) > admitted:
            raise SchedulingError(
                f"a received count exceeds admitted={admitted} at slot {slot}")
        if samples and any(r < p for r, p in zip(received, samples[-1].received)):
            raise SchedulingError(
                f"a received count fell below its previous sample at slot {slot}")
        if state is not queues and state.histogram() != (queues.counts, queues.delivered):
            raise SchedulingError(
                f"the multiclass mirror differs from the in-order indices at slot {slot}")
        samples.append(Sample(slot, admitted, delivered,
                              min_received, tuple(received), backlog))

    record(0)
    m = g.m
    slot = 0
    if config.time_model == "mini-slot":
        lam_mini = config.lam / m
        while slot < config.horizon:
            chunk = min(_CHUNK_SLOTS, config.horizon - slot)
            arrivals = arr_rng.poisson(lam_mini, size=chunk * m).tolist()
            active = act_rng.integers(0, m, size=chunk * m).tolist()
            idx = 0
            for _ in range(chunk):
                for _ in range(m):
                    a = arrivals[idx]
                    if a:
                        admit(a)
                    step(active[idx])
                    idx += 1
                slot += 1
                if slot % config.sample_every == 0 or slot == config.horizon:
                    record(slot)
    else:
        while slot < config.horizon:
            chunk = min(_CHUNK_SLOTS, config.horizon - slot)
            arrivals = arr_rng.poisson(config.lam, size=chunk).tolist()
            for a in arrivals:
                if a:
                    admit(a)
                weights = [edge_weight(state, e) for e in range(m)]
                smask = choose_activation(weights, fam)
                while smask:
                    low = smask & -smask
                    step(low.bit_length() - 1)
                    smask ^= low
                slot += 1
                if slot % config.sample_every == 0 or slot == config.horizon:
                    record(slot)

    result = RunResult(config, g.n, tuple(samples), 0.0, table)
    return replace(result, rate=broadcast_rate(result))


def random_digraph(n: int, m: int, seed: int) -> Digraph:
    """Random simple digraph: ``m`` distinct node pairs, each given a uniform
    direction (never both), rooted at node 0 and resampled until every node is
    reachable from the root.

    One direction per pair keeps the unit-capacity broadcast capacity within
    n/2, matching the bound used by the tree-count checks.
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    max_m = n * (n - 1) // 2
    if not n - 1 <= m <= max_m:
        raise ValueError(f"need n-1 <= m <= n(n-1)/2 = {max_m}, got m={m}")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for _ in range(10000):
        chosen = rng.choice(len(pairs), size=m, replace=False)
        flips = rng.integers(0, 2, size=m)
        edges = []
        for idx, flip in zip(chosen.tolist(), flips.tolist()):
            u, v = pairs[idx]
            edges.append((v, u) if flip else (u, v))
        g = Digraph(n, edges, 0)
        if broadcast_capacity(g) >= 1:
            return g
    raise RuntimeError(f"no connected sample found for n={n}, m={m}, seed={seed}")


def sweep_k(g: Digraph, lam: float, k_values: Sequence[int], horizon: int,
            seed: int, sample_every: int = 1000) -> list[tuple[int, float]]:
    """Multiclass broadcast rate per class count, one run each, sharing the
    seed so every run sees the same arrival sample path."""
    if lam >= broadcast_capacity(g):
        raise ValueError("sweep arrival rate must sit below the broadcast capacity")
    rows = []
    for k in k_values:
        cfg = SimConfig(lam=lam, horizon=horizon, seed=seed, policy="multiclass",
                        classes=k, sample_every=sample_every)
        rows.append((k, run(cfg, g).rate))
    return rows


def run_csv(result: RunResult) -> str:
    lines = ["slot,admitted,delivered,min_received,backlog"]
    lines.extend(
        f"{s.slot},{s.admitted},{s.delivered},{s.min_received},{s.backlog}"
        for s in result.samples)
    return "\n".join(lines) + "\n"


def received_csv(result: RunResult) -> str:
    header = "slot," + ",".join(f"recv_{v}" for v in range(result.node_count))
    lines = [header]
    lines.extend(
        f"{s.slot}," + ",".join(str(c) for c in s.received) for s in result.samples)
    return "\n".join(lines) + "\n"


def sweep_csv(rows: Sequence[tuple[int, float]]) -> str:
    lines = ["k,rate"]
    lines.extend(f"{k},{rate:.6f}" for k, rate in rows)
    return "\n".join(lines) + "\n"
