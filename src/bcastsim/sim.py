"""The simulation engine, metrics, random graphs and sweeps.

``run`` has one event loop for both time models. It drives every policy the
same way: ``_set_up_policy`` returns the policy's state, whose
``admit(count)`` takes the arrivals, and a per-policy ``step(eid)`` function
that decides the move over the active edge and applies it. The time model
sets only how many events a slot has and what one event does. A slotted
slot's moves are a function of the part of the state its decides read, so a
slot whose key was seen before replays the moves stored then instead of
deciding them again.

Each run owns four independent RNG streams (arrivals, edge activation, class
labels, policy sampling) spawned from one seed, so runs with equal seeds see
identical arrival sample paths regardless of the policy under test.

One draw rule covers every stream: values come from numpy's block forms
and are used one at a time, in the order scalar calls would make. Each event
takes one Poisson arrival count and, in mini-slot mode, one uniform active
edge; each admitted packet of an in-order policy takes one class label;
these come from blocks of one size (``policies._blocks``). The randomized
policy's uniforms are drawn per block of active edges, one per event over a
non-empty table entry, in event order (``policies.randomized_picks``).
Set-up's sequence sampling takes its 32-bit words from the policy stream in
blocks too and then resets that stream to exactly the words it used, so the
uniforms start where scalar ``integers(k)`` calls would have left it.
numpy's block forms consume a generator as the scalar calls do, so the block
size is not observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import islice, repeat
from typing import Sequence

import numpy as np

from .errors import CapabilityError, SchedulingError
from .graph import MAX_NODES, Digraph, broadcast_capacity, reaches_all, tree_packing
from .policies import (MultiClassState, RandomizedTable, _block_arrays, _blocks,
                       build_randomized_table, default_eps, edge_weight,
                       max_weight_decide, multiclass_apply, multiclass_decide,
                       randomized_picks, sample_reachable_sequences,
                       static_tree_decide, tree_owners)
# Unused here: the benchmark tracer swaps it by name (ROADMAP item 1).
from .policies import randomized_decide  # noqa: F401
from .queues import VirtualQueueState
from .wireless import ActivationFamily, choose_activation

POLICIES = ("max-weight", "multiclass", "static-tree", "randomized")
TIME_MODELS = ("mini-slot", "slotted-wireless")

# Virtual-queue policies key their state by node subsets; cap the width.
MAX_WEIGHT_NODE_LIMIT = 25

# numpy's Poisson sampler refuses rates above about 9.2e18.
MAX_ARRIVAL_RATE = 1e18

# The in-order policies admit packets one at a time, each with a class label
# and an in-flight entry. No graph within MAX_NODES has a broadcast capacity
# above MAX_NODES - 1, so a faster rate only grows the backlog.
MAX_IN_ORDER_RATE = 1e4

# Each class holds a row of n indices; each extra sequence is sampled in set-up.
MAX_CLASSES = 1000
MAX_EXTRA_SEQUENCES = 10_000

# The most items the slotted memo holds, summed over its entries: each entry
# counts its key's items (queue-count pairs, or in-flight sets plus one per
# class) plus its stored moves. A memo that is full is cleared before the next
# entry goes in. Measured by tracemalloc (CPython 3.11), an item costs ~140
# bytes in a count-keyed memo and 30-50 in an in-flight-keyed one, moves
# included, so a full memo stays near 10 MB.
MEMO_KEY_LIMIT = 1 << 16


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
        elif self.policy in ("multiclass", "static-tree") and self.lam > MAX_IN_ORDER_RATE:
            errs.append(f"arrival rate must be at most {MAX_IN_ORDER_RATE:g} for policy "
                        f"'{self.policy}', got {self.lam}")
        if self.horizon < 1:
            errs.append(f"horizon must be at least 1 slot, got {self.horizon}")
        if self.sample_every < 1:
            errs.append(f"sample_every must be positive, got {self.sample_every}")
        if self.policy not in POLICIES:
            errs.append(f"unknown policy '{self.policy}' (choose from {', '.join(POLICIES)})")
        if self.time_model not in TIME_MODELS:
            errs.append(f"unknown time model '{self.time_model}'")
        if self.policy == "multiclass" and not 1 <= self.classes <= MAX_CLASSES:
            errs.append(f"multiclass policy needs 1 <= classes <= {MAX_CLASSES}, "
                        f"got {self.classes}")
        if self.eps is not None and not self.eps > 0:
            errs.append(f"eps must be positive, got {self.eps}")
        if self.extra_sequences is not None and not (
                1 <= self.extra_sequences <= MAX_EXTRA_SEQUENCES):
            errs.append(f"extra_sequences must lie in [1, {MAX_EXTRA_SEQUENCES}], "
                        f"got {self.extra_sequences}")
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
            errs.extend(self.graph_errors(g))
        return errs

    def graph_errors(self, g: Digraph) -> list[str]:
        """The checks of the graph that need no activation family."""
        errs = []
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
    """The configured policy's state (a VirtualQueueState, or its in-order
    subclass MultiClassState, which draws each packet's class label from
    ``cls_rng``), ``step(eid)`` (decide the move over the active edge, apply
    it unless the policy idles, and return it: a node set or a class, or
    None) and the randomized table, or None. The randomized ``step`` takes
    the edge's pick from ``randomized_picks`` in place of the edge, and
    moves the packet itself: a pair comes from a growth sequence, so its
    edge leaves its set, and only the queue's count needs a check."""
    policy = config.policy
    table = None
    if policy in ("static-tree", "randomized"):
        trees = tree_packing(g)
        if not trees:
            raise ValueError(f"{policy} policy needs broadcast capacity >= 1")
    if policy in ("max-weight", "randomized"):
        state = VirtualQueueState(g)
    else:
        k = len(trees) if policy == "static-tree" else config.classes
        state = MultiClassState(g, k, _blocks(cls_rng.integers, k))
    if policy == "max-weight":
        def step(eid: int):
            fset = max_weight_decide(state, eid)
            if fset is not None:
                state.transmit(fset, eid)
            return fset
    elif policy == "randomized":
        eps = config.eps
        if eps is None:
            eps = default_eps(len(trees), config.lam, g.n)
        bprime = config.extra_sequences
        if bprime is None:
            bprime = 4 * g.m
        extra = sample_reachable_sequences(g, bprime, pol_rng)
        table = build_randomized_table(g, trees, extra, eps)
        counts, full = state.counts, g.full_mask

        def step(pick: tuple[int, int] | None):
            if pick is None:
                return None
            fset, nxt = pick
            have = counts.get(fset, 0)
            if have < 1:
                return None
            if have == 1:
                del counts[fset]
            else:
                counts[fset] = have - 1
            if nxt == full:
                state.delivered += 1
            else:
                counts[nxt] = counts.get(nxt, 0) + 1
            return fset
    elif policy == "multiclass":
        def step(eid: int):
            c = multiclass_decide(state, eid)
            if c is not None:
                multiclass_apply(state, c, eid)
            return c
    else:
        owner = tree_owners(g, trees)

        def step(eid: int):
            c = static_tree_decide(state, owner, eid)
            if c is not None:
                multiclass_apply(state, c, eid)
            return c
    return state, step, table


def run(config: SimConfig, g: Digraph, fam: ActivationFamily | None = None) -> RunResult:
    """Simulate one run and return its sampled time series.

    One event loop drives the policy through ``state.admit`` and ``step``;
    each event admits its arrivals, then acts. Mini-slot: ``m`` events per slot,
    each with Poisson(lam/m) arrivals and one uniform active edge. Slotted:
    one event per slot, with Poisson(lam) arrivals and a max-weight feasible
    activation whose edges step in ascending id order. The randomized
    policy's events take their edges' picks, resolved a block of active
    edges at a time by ``randomized_picks``, instead of the edges.

    The run memoises each slot's moves, the ``(move, eid)`` pairs its steps
    returned, by the part of the state its decides read: max-weight's by the
    queue counts, the in-order policy's by the in-flight sets while they
    hold at most ``m`` packets (a longer state, whose key grows with the
    backlog, is decided afresh and not stored). Under in-order delivery node
    v lacks exactly the last ``row[src] - row[v]`` in-flight packets of its
    class, so the sets fix every class's indices up to a shift, and the
    counts, their tally; ``multiclass_decide``, ``edge_weight`` and
    ``multiclass_apply`` read only those differences, the sets and the
    counts, and break ties by class index, not dict order. A hit replays the
    moves through the family's write path (``state.transmit`` or
    ``multiclass_apply``, whose checks still run), skipping the ``m`` edge
    weights, the search and every per-edge decide. The memo is cleared
    before the next entry would take its summed size (key items plus moves)
    past ``MEMO_KEY_LIMIT``.

    Every random value is used one at a time, in the order scalar calls
    would make, from blocks of one size (the module docstring's draw rule).
    The state is sampled at slot 0, every ``sample_every`` slots and at the
    horizon. Fully deterministic given the seed.
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

    state, step, table = _set_up_policy(config, g, cls_rng, pol_rng)
    admit = state.admit
    in_order = isinstance(state, MultiClassState)

    samples: list[Sample] = []
    nodes = range(g.n)

    def record(slot: int):
        received = [state.received_count(v) for v in nodes]
        backlog = state.total_backlog()
        admitted, delivered = state.admitted, state.delivered
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
        if in_order and state.histogram() != (state.counts, state.delivered):
            raise SchedulingError(
                f"the queue counts differ from the in-order indices at slot {slot}")
        samples.append(Sample(slot, admitted, delivered,
                              min_received, tuple(received), backlog))

    m = g.m
    mini_slot = config.time_model == "mini-slot"
    if mini_slot:
        per_slot, event = m, step
    else:
        per_slot = 1
        if in_order:
            def slot_key():
                if state.admitted - state.delivered <= m:
                    return tuple(map(tuple, state.inflight))

            def key_items(key) -> int:  # the in-flight sets plus one per class
                return len(key) + sum(map(len, key))

            replay = partial(multiclass_apply, state)
        else:
            def slot_key():
                return frozenset(state.counts.items())

            key_items, replay = len, state.transmit
        memo: dict[frozenset | tuple[tuple[int, ...], ...], tuple[tuple[int, int], ...]] = {}
        memo_size = 0

        def event(_):
            nonlocal memo_size
            key = slot_key()
            moves = memo.get(key)  # a None key is never stored
            if moves is None:
                smask = choose_activation([edge_weight(state, e) for e in range(m)], fam)
                moves = []
                while smask:  # the activated edges in ascending id order
                    low = smask & -smask
                    eid = low.bit_length() - 1
                    move = step(eid)
                    if move is not None:
                        moves.append((move, eid))
                    smask ^= low
                if key is not None:
                    size = key_items(key) + len(moves)
                    if memo_size + size > MEMO_KEY_LIMIT:
                        memo.clear()
                        memo_size = 0
                    memo_size += size
                    memo[key] = tuple(moves)
            else:
                for move, eid in moves:
                    replay(move, eid)

    arrivals = _blocks(arr_rng.poisson, config.lam / per_slot)
    if not mini_slot:
        edges = repeat(None)
    elif table is None:
        edges = _blocks(act_rng.integers, 0, m)
    else:
        edges = randomized_picks(table, g, _block_arrays(act_rng.integers, 0, m),
                                 pol_rng)
    events = zip(arrivals, edges)
    record(0)
    for slot in range(1, config.horizon + 1):
        for a, e in islice(events, per_slot):
            if a:
                admit(a)
            event(e)
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
    if not 2 <= n <= MAX_NODES:
        raise ValueError(f"need 2 <= n <= {MAX_NODES} nodes, got n={n}")
    max_m = n * (n - 1) // 2
    if not n - 1 <= m <= max_m:
        raise ValueError(f"need n-1 <= m <= n(n-1)/2 = {max_m}, got m={m}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pair_u, pair_v = np.triu_indices(n, 1)  # the pairs u < v, lexicographic
    for _ in range(10000):
        idx = rng.choice(max_m, size=m, replace=False)
        u, v = pair_u[idx], pair_v[idx]
        flips = rng.integers(0, 2, size=m).astype(bool)
        tails, heads = np.where(flips, v, u), np.where(flips, u, v)
        if _entered_all(n, heads):
            edges = list(zip(tails.tolist(), heads.tolist()))
            if reaches_all(n, 0, edges):  # the same test as capacity >= 1
                return Digraph(n, edges, 0)
    raise ValueError(f"no connected sample found for n={n}, m={m}, seed={seed}; "
                     f"use more edges or another seed")


def _entered_all(n: int, heads: np.ndarray) -> bool:
    """Whether every node but the root 0 is entered by some edge in ``heads``
    (a condition of ``reaches_all`` from node 0, and a cheaper test)."""
    return bool(np.bincount(heads, minlength=n)[1:].all())


def sweep_k(g: Digraph, lam: float, k_values: Sequence[int], horizon: int,
            seed: int, sample_every: int = 1000, *,
            burn_in: int | None = None) -> list[tuple[int, float]]:
    """Multiclass broadcast rate per class count, one mini-slot run each,
    sharing the seed so every run sees the same arrival sample path."""
    if lam >= broadcast_capacity(g):
        raise ValueError("sweep arrival rate must sit below the broadcast capacity")
    rows = []
    for k in k_values:
        cfg = SimConfig(lam=lam, horizon=horizon, seed=seed, policy="multiclass",
                        classes=k, sample_every=sample_every, burn_in=burn_in)
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
