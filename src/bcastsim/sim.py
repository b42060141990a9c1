"""The simulation engine, metrics, random graphs and sweeps.

``run`` has one event loop for both time models, which drives the
queue-driven policies the same way: ``_set_up_policy`` returns the
policy's state, whose ``admit(count)`` takes the arrivals, and a
``step(eid)`` function that decides the move over the active edge and
applies it. The loop makes one pass per sample interval, over that
interval's events; an event admits its arrivals, then steps. Max-weight and
the in-order policies each have a ``(decide, apply, weight)`` rule set,
bound there once per run: max-weight's ``step`` composes ``apply`` after
``decide``; of the in-order ones (``policies.in_order_rules``), the
multiclass ``step`` moves the winner of its own scan, without a second
lookup, and the static-tree one moves through ``apply``. The slotted
weights are ``weight`` and the memo replays go through ``apply``. The time
model sets only how many events a slot has and what one event does. A
slotted slot's moves are a function of the part of the state its decides
read, so a slot whose key was seen before replays the moves stored then
instead of deciding them again. The randomized policy's picks read no
queue, so it has no event loop: ``_settle_run`` settles its queues a window
of events at a time in numpy (``_settle``) and records each sample from the
settled counts.

Each run owns four independent RNG streams (arrivals, edge activation, class
labels, policy sampling) spawned from one seed, so runs with equal seeds see
identical arrival sample paths regardless of the policy under test.

One draw rule covers every stream: values come from numpy's block forms,
in the order scalar calls would make them. Each event takes one Poisson
arrival count and, in mini-slot mode, one uniform active edge; each
admitted packet of an in-order policy takes one class label. The
queue-driven policies use these one at a time from blocks of
``_BLOCK_DRAWS`` values (``_blocks``). The randomized policy draws a window
of events at a time (``_windows``: whole sample intervals, at most
``_WINDOW_EVENTS`` events, an interval longer than that cut into several
windows), in blocks of at most ``_BLOCK_DRAWS`` events: a block's arrival
counts and active edges as one block each, then one uniform per event over
a non-empty table entry, in event order, as one block
(``policies.randomized_picks``). So no block of the run's events holds more
than ``_BLOCK_DRAWS`` values. Set-up's sequence sampling is the exception:
it draws its ``count * (n - 1)`` words as one block, then one fresh word
per redraw (``policies.sample_reachable_sequences``). numpy's block forms
consume a generator as the scalar calls do, so neither the block size nor
the window size is observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, islice, pairwise, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import CapabilityError, SchedulingError
from .graph import (MAX_NODES, Digraph, _integer, broadcast_capacity, reaches_all,
                    tree_packing)
from .policies import (MultiClassState, RandomizedTable, build_randomized_table,
                       default_eps, edge_weight, in_order_rules, max_weight_decide,
                       randomized_picks, sample_reachable_sequences, tree_owners)
# Unused here: the benchmark tracer swaps them by name (ROADMAP item 1).
from .policies import (multiclass_apply, multiclass_decide,  # noqa: F401
                       randomized_decide, static_tree_decide)
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

# The SimConfig fields that must be integers (``None`` stands for a default).
_INTEGER_FIELDS = ("horizon", "seed", "classes", "extra_sequences", "sample_every",
                   "burn_in")

# The most items the slotted memo holds, summed over its entries: each entry
# counts its key's items (queue-count pairs, or in-flight sets plus one per
# class) plus its stored moves. A memo that is full is cleared before the next
# entry goes in. Measured by tracemalloc (CPython 3.11), an item costs ~140
# bytes in a count-keyed memo and 30-50 in an in-flight-keyed one, moves
# included, so a full memo stays near 10 MB.
MEMO_KEY_LIMIT = 1 << 16

# Values per block drawn by ``_blocks``, and the most events in one block of
# the randomized policy's draws (``_settle_run``). numpy's block forms of
# ``poisson``, ``integers`` and ``random`` consume a generator as repeated
# scalar calls would, so the size is not observable.
_BLOCK_DRAWS = 4096

# The most events the randomized policy settles at once (``_windows``), so
# ten sample intervals of 20,000 events settle as one window. On
# random(25,200,1), where 36 % of events pick a pair, a window's draws and
# settle arrays peak at 8.0 bytes per window event by tracemalloc, 2.1 MB
# at the cap, above the 0.7 MB the run holds once its set index is built.
_WINDOW_EVENTS = 1 << 18


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
        # The integer fields that are integers or None; the range checks
        # read only these.
        ints = {}
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            try:
                ints[name] = None if value is None else _integer(value, name)
            except ValueError as exc:
                errs.append(str(exc))
        horizon, classes = ints.get("horizon"), ints.get("classes")
        sample_every, seed = ints.get("sample_every"), ints.get("seed")
        extra, burn_in = ints.get("extra_sequences"), ints.get("burn_in")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            errs.append(f"arrival rate must be finite and non-negative, got {self.lam}")
        elif self.lam > MAX_ARRIVAL_RATE:
            errs.append(f"arrival rate must be at most {MAX_ARRIVAL_RATE:g}, got {self.lam}")
        elif self.policy in ("multiclass", "static-tree") and self.lam > MAX_IN_ORDER_RATE:
            errs.append(f"arrival rate must be at most {MAX_IN_ORDER_RATE:g} for policy "
                        f"'{self.policy}', got {self.lam}")
        if horizon is not None and horizon < 1:
            errs.append(f"horizon must be at least 1 slot, got {horizon}")
        if sample_every is not None and sample_every < 1:
            errs.append(f"sample_every must be positive, got {sample_every}")
        if seed is not None and seed < 0:
            errs.append(f"seed must be non-negative, got {seed}")
        if self.policy not in POLICIES:
            errs.append(f"unknown policy '{self.policy}' (choose from {', '.join(POLICIES)})")
        if self.time_model not in TIME_MODELS:
            errs.append(f"unknown time model '{self.time_model}'")
        if (self.policy == "multiclass" and classes is not None
                and not 1 <= classes <= MAX_CLASSES):
            errs.append(f"multiclass policy needs 1 <= classes <= {MAX_CLASSES}, "
                        f"got {classes}")
        if self.eps is not None and not self.eps > 0:
            errs.append(f"eps must be positive, got {self.eps}")
        if extra is not None and not 1 <= extra <= MAX_EXTRA_SEQUENCES:
            errs.append(f"extra_sequences must lie in [1, {MAX_EXTRA_SEQUENCES}], "
                        f"got {extra}")
        if burn_in is not None and horizon is not None and not 0 <= burn_in < horizon:
            errs.append(f"burn_in must lie in [0, horizon), got {burn_in}")
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


class _Policy(NamedTuple):
    """What ``_set_up_policy`` builds for one run (see there)."""

    state: VirtualQueueState
    step: Callable | None
    weight: Callable[[int], int] | None
    replay: Callable[[int, int], None] | None
    table: RandomizedTable | None


def _set_up_policy(config: SimConfig, g: Digraph, cls_rng, pol_rng) -> _Policy:
    """The configured policy, built once per run: its state (a
    VirtualQueueState, or its in-order subclass MultiClassState, which draws
    each packet's class label from ``cls_rng``); ``step(eid)``, which
    decides the move over the active edge, applies it unless the policy
    idles and returns it (a node set or a class, or None); for the slotted
    families, ``weight(eid)``, the edge's weight, and ``replay(move, eid)``,
    the write path a memo hit replays a move through; and the randomized
    table, or None.

    Max-weight's rules are ``max_weight_decide``, ``state.transmit`` and
    ``edge_weight`` bound to the state (both functions as this module names
    them at set-up, so a tracer can swap the decide), and its ``step``
    composes ``apply`` after ``decide`` below. The in-order policies' rules
    are what ``in_order_rules`` binds: their ``step`` moves under the same
    refusals as their ``apply``. For both, ``replay`` is the ``apply``, so
    every replayed move passes the checked write path. The randomized
    policy has only its state and table: ``_settle_run`` moves its
    packets."""
    policy = config.policy
    if policy in ("static-tree", "randomized"):
        trees = tree_packing(g)
        if not trees:
            raise ValueError(f"{policy} policy needs broadcast capacity >= 1")
    if policy in ("max-weight", "randomized"):
        state = VirtualQueueState(g)
    else:
        k = len(trees) if policy == "static-tree" else config.classes
        state = MultiClassState(g, k, _blocks(cls_rng.integers, k))
    if policy == "randomized":
        eps = config.eps
        if eps is None:
            eps = default_eps(len(trees), config.lam, g.n)
        bprime = config.extra_sequences
        if bprime is None:
            bprime = 4 * g.m
        extra = sample_reachable_sequences(g, bprime, pol_rng)
        table = build_randomized_table(g, trees, extra, eps)
        return _Policy(state, None, None, None, table)
    if policy == "max-weight":
        decide, apply, weight = (partial(max_weight_decide, state), state.transmit,
                                 partial(edge_weight, state))

        def step(eid: int):
            move = decide(eid)
            if move is not None:
                apply(move, eid)
            return move
    else:
        owner = tree_owners(g, trees) if policy == "static-tree" else None
        _, apply, weight, step = in_order_rules(state, owner)
    return _Policy(state, step, weight, apply, None)


def _blocks(draw: Callable, *args, **kwargs) -> Iterator:
    """The values of repeated scalar ``draw(*args, **kwargs)`` calls, one at
    a time, taken from blocks of ``draw(*args, size=_BLOCK_DRAWS, **kwargs)``,
    each drawn only when the previous one is used up."""
    return chain.from_iterable(draw(*args, size=_BLOCK_DRAWS, **kwargs).tolist()
                               for _ in repeat(None))


def run(config: SimConfig, g: Digraph, fam: ActivationFamily | None = None) -> RunResult:
    """Simulate one run and return its sampled time series.

    One event loop drives the queue-driven policy that ``_set_up_policy``
    builds through ``state.admit`` and ``step``, one pass per sample
    interval; each event admits its arrivals, then acts. Mini-slot: ``m``
    events per slot, each with Poisson(lam/m) arrivals and one uniform
    active edge. Slotted: one event per slot, with Poisson(lam) arrivals and
    a max-weight feasible activation whose edges step in ascending id order.

    The randomized policy (mini-slot only) runs no event loop. A pick reads
    no queue and moves a packet iff its set's queue holds one, so
    ``_settle_run`` draws a window of events at a time and settles every
    queue over the window at once, each a walk reflected at 0, one set size
    after another (``_settle``). At each sample slot of the window the state
    is set to the settled counts and recorded, so ``record`` checks the same
    invariants for every policy, and the outputs are those of stepping
    every event.

    The run memoises each slot's moves, the ``(move, eid)`` pairs its steps
    returned, by the part of the state its decides read: max-weight's by the
    queue counts, the in-order policy's by the in-flight sets while they
    hold at most ``m`` packets (a longer state, whose key grows with the
    backlog, is decided afresh and not stored). Under in-order delivery node
    v lacks exactly the last ``row[src] - row[v]`` in-flight packets of its
    class, so the sets fix every class's indices up to a shift, and the
    counts, their tally; the in-order ``step``, ``weight`` and ``apply``
    (``in_order_rules``) read only those differences, the sets and the
    counts, and break ties by class index, not dict order. A hit replays
    the moves through the family's write path (``state.transmit`` or the
    bound in-order ``apply``, whose checks still run), skipping the ``m``
    edge weights, the search and every per-edge decide. The memo is cleared
    before the next entry would take its summed size (key items plus moves)
    past ``MEMO_KEY_LIMIT``.

    Every random value is drawn in the order scalar calls would make it, the
    run's events in blocks of at most ``_BLOCK_DRAWS`` values (the module
    docstring's draw rule).
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

    state, step, weight, replay, table = _set_up_policy(config, g, cls_rng, pol_rng)
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
        else:
            def slot_key():
                return frozenset(state.counts.items())

            key_items = len
        memo: dict[frozenset | tuple[tuple[int, ...], ...], tuple[tuple[int, int], ...]] = {}
        memo_size = 0

        def event(_):
            nonlocal memo_size
            key = slot_key()
            moves = memo.get(key)  # a None key is never stored
            if moves is None:
                smask = choose_activation([weight(e) for e in range(m)], fam)
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

    rate = config.lam / per_slot
    slots = chain(range(config.sample_every, config.horizon, config.sample_every),
                  [config.horizon])
    record(0)
    if table is not None:
        _settle_run(table, g, state, record, slots, rate, arr_rng, act_rng, pol_rng)
    else:
        edges = _blocks(act_rng.integers, 0, m) if mini_slot else repeat(None)
        events = zip(_blocks(arr_rng.poisson, rate), edges)
        done = 0
        for slot in slots:
            for a, e in islice(events, (slot - done) * per_slot):
                if a:
                    admit(a)
                event(e)
            record(slot)
            done = slot

    result = RunResult(config, g.n, tuple(samples), 0.0, table)
    return replace(result, rate=broadcast_rate(result))


def _windows(slots: Iterable[int], per_slot: int, cap: int
             ) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """The run's events cut into the randomized policy's windows, in order:
    ``(events, samples)``, where ``samples`` lists ``(offset, slot)`` for
    each sample slot that ends inside the window, ``offset`` events after
    its start. A window covers as many whole sample intervals as fit in
    ``cap`` events; an interval longer than that is cut into windows of
    ``cap`` events, the last of which ends at its sample."""
    start = 0  # the window's first event
    samples: list[tuple[int, int]] = []
    for slot in slots:
        end = slot * per_slot
        if samples and end - start > cap:
            size = samples[-1][0]
            yield size, samples
            start += size
            samples = []
        while end - start > cap:
            yield cap, []
            start += cap
        samples.append((end - start, slot))
    yield samples[-1][0], samples


class _SetIndex(NamedTuple):
    """Dense ids for the node sets a randomized run's packets can occupy:
    every table pair's set and grown set, the source singleton and the full
    set, ordered by size, then mask. ``set_ids`` and ``grown_ids`` map each
    pair to its two ids, ``masks`` each id to its set, and ``levels`` holds
    the first id of each set size, then the id count."""

    set_ids: np.ndarray
    grown_ids: np.ndarray
    masks: np.ndarray
    levels: list[int]
    source: int
    full: int


# ``_set_index`` sorts the sets by ``size << _SIZE_SHIFT | mask``, exact for
# masks of up to MAX_WEIGHT_NODE_LIMIT nodes.
_SIZE_SHIFT = 58


def _set_index(table: RandomizedTable, g: Digraph) -> _SetIndex:
    """The run's ``_SetIndex``, from one ``np.unique`` of the sets' keys. A
    pick's grown set is one node larger than its set
    (``RandomizedTable.search`` checks it), so only the pairs' sets are
    counted."""
    fsets = table.fsets
    size = np.bitwise_count(fsets).astype(np.int64) << _SIZE_SHIFT
    grown_keys = (size + (1 << _SIZE_SHIFT)) | fsets
    grown_keys |= np.repeat(table.search.head_bits, table.sizes)
    source, full = 1 << _SIZE_SHIFT | g.source_mask, g.n << _SIZE_SHIFT | g.full_mask
    keys, ids = np.unique(np.concatenate((size | fsets, grown_keys, [source, full])),
                          return_inverse=True)
    pairs = len(fsets)
    levels = np.flatnonzero(np.diff(keys >> _SIZE_SHIFT)) + 1
    dtype = np.min_scalar_type(len(keys))
    return _SetIndex(ids[:pairs].astype(dtype), ids[pairs:-2].astype(dtype),
                     keys & ((1 << _SIZE_SHIFT) - 1),
                     [0, *levels.tolist(), len(keys)], int(ids[-2]), int(ids[-1]))


def _stable_order(ids: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(ids, kind="stable")`` for integer ids in ``[0, bound)``:
    a least-significant-digit radix sort, one stable argsort of a 16-bit
    digit per pass. numpy sorts a stable key of 16 bits or less by radix and
    a wider one by timsort, ten times slower on a window's picks, so ids
    below 2**16 take one pass whatever their dtype."""
    order = ids.astype(np.uint16, copy=False).argsort(kind="stable")
    for shift in range(16, (bound - 1).bit_length(), 16):
        digit = (ids[order] >> shift).astype(np.uint16, copy=False)
        order = order[digit.argsort(kind="stable")]
    return order


def _settle(index: _SetIndex, carry_ids: np.ndarray, carry_n: np.ndarray,
            bounds: np.ndarray, draws: Iterable[np.ndarray]
            ) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Settle one window of the randomized policy: ``(ids, counts,
    arrived)``, the ids of the sets that hold a packet at some point in the
    window, ascending; ``counts[i, j]``, set ``ids[i]``'s packets after the
    window's first ``bounds[j]`` events (the full set's count is the
    packets delivered in them); and ``arrived[j]``, the packets that arrive
    in those events.

    The window starts with ``carry_n[i]`` packets at set ``carry_ids[i]``
    (ids ascending, the full set not among them). ``draws`` yields four
    arrays: ``arr_n[i]`` packets arrive at the source at event
    ``arr_at[i]``, and the event at ``pick_at[i]`` picks table pair
    ``pick_pairs[i]`` (both int32); both positions ascend. They are unpacked
    here, so the window's draws are freed once their keys are built. Within
    an event the arrival comes first. A pick moves one packet from its set
    to its grown set when the set's queue holds one, and nothing otherwise,
    so each set's queue is a walk reflected at 0 (Lindley 1952): its count
    after an element is the running sum of its elements (carried count,
    arrivals, -1 per pick) less the running minimum of that sum, where the
    minimum starts at 0, and a pick moves a packet iff the count before it
    is at least 1.

    A pick grows its set by one node, so the sets are settled a size
    (level) at a time, and one level's moves are the next level's arrivals.
    A level keys its elements ``id * stride + k``, ``k`` being 0 for the
    set's zero point, 2 for its carried count, ``2 * event + 4`` for an
    arrival and ``2 * event + 5`` for a pick, ``stride`` the power of two
    above every ``k``, so the keys are distinct. The window's picks are
    sorted by key once (``_stable_order`` on their set ids, a radix sort);
    each level's picks are then one slice, and they keep only their key and
    grown set: a moved packet's key is the grown set's with the pick's
    ``k`` less 1. One sort per level merges the picks, zero points and
    carried counts, each already in key order, with the arrivals. One
    running sum and one running minimum then serve every set of the level:
    each set's zero point adds ``-big``, more negative than any set's
    carried count and arrivals are positive, so it lies below every earlier
    sum and the minimum restarts there. The sums are Python ints (object
    arrays) when they could pass int64.
    """
    arr_at, arr_n, pick_at, pick_pairs = draws
    stride = 1 << (2 * int(bounds[-1]) + 5).bit_length()  # above every k
    widest = int(np.diff(index.levels).max())
    arrivals = int(arr_n.max()) * len(arr_n) if len(arr_n) else 0
    big = int(carry_n.sum()) + arrivals + len(pick_pairs) + 1
    dtype = object if big * (widest + 2) >= 1 << 63 else np.int64
    arrived = np.concatenate(([0], arr_n.cumsum(dtype=dtype))
                             )[np.searchsorted(arr_at, bounds)].tolist()
    source_keys = index.source * stride + 2 * arr_at + 4
    set_keys = np.arange(index.levels[-1], dtype=np.int64) * stride
    # Each pick's key and grown set, by set and each set's picks by event.
    # Each pick array is freed once its sorted copy is made, so with 16-bit
    # set ids no more than 20 bytes per pick are alive at once.
    sid, grown = index.set_ids.take(pick_pairs), index.grown_ids.take(pick_pairs)
    del pick_pairs
    order = _stable_order(sid, index.levels[-1])
    pick_grown = grown.take(order)
    del grown
    sid = sid.take(order)
    pick_at = pick_at.take(order)
    del order
    pick_keys = sid.astype(np.int64)
    del sid
    pick_keys *= stride
    pick_at *= 2
    pick_at += 5
    pick_keys += pick_at
    del pick_at
    pick_cuts = np.searchsorted(pick_keys, np.multiply(index.levels, stride))
    most = int(np.diff(pick_cuts).max())
    pick_cuts = pick_cuts.tolist()
    carry_cuts = np.searchsorted(carry_ids, index.levels).tolist()
    carry_keys = set_keys[carry_ids] + 2
    zeros = np.full(widest, -big, dtype=dtype)
    minus, ones = np.full(most, -1, dtype=dtype), np.ones(most, dtype=np.int64)
    queries = 2 * bounds + 4
    inc_ids = inc_keys = inc_n = np.empty(0, dtype=np.int64)
    ids, counts = [inc_ids], [np.empty((0, len(bounds)), dtype=dtype)]
    for level, (lo, hi) in enumerate(pairwise(index.levels)):
        if lo <= index.source < hi:
            inc_ids = np.full(len(arr_n), index.source)
            inc_keys, inc_n = source_keys, arr_n
        c0, c1 = carry_cuts[level], carry_cuts[level + 1]
        if c0 == c1 and not len(inc_keys):
            continue
        # The level's picks come first, so a moved element below ``picked``
        # is its pick's index within the level.
        picked = pick_cuts[level + 1] - pick_cuts[level]
        level_keys = pick_keys[pick_cuts[level]:pick_cuts[level + 1]]
        keys = np.concatenate((level_keys, set_keys[lo:hi], carry_keys[c0:c1], inc_keys))
        order = keys.argsort(kind="stable")
        walk = np.concatenate((minus[:picked], zeros[:hi - lo], carry_n[c0:c1], inc_n)
                              ).take(order).cumsum()
        walk -= np.minimum.accumulate(walk)  # now the queue after each element
        # A pick moves a packet iff the element before it left a packet.
        moved = order[1:].compress(walk[:-1] > 0)
        moved = moved.compress(moved < picked)
        held = np.zeros(hi - lo, dtype=bool)
        held[carry_ids[c0:c1] - lo] = True
        held[inc_ids - lo] = True
        held = np.flatnonzero(held) + lo
        at = np.searchsorted(keys.take(order), (set_keys[held, None] + queries).ravel())
        ids.append(held)
        counts.append(walk.take(at - 1).reshape(len(held), len(bounds)))
        # A moved packet arrives at the grown set at its pick's event.
        grown = pick_grown[pick_cuts[level]:pick_cuts[level + 1]]
        inc_ids = grown.take(moved).astype(np.int64)
        inc_keys = (level_keys.take(moved) & (stride - 1)) + set_keys[inc_ids] - 1
        inc_n = ones[:len(moved)]
    return np.concatenate(ids), np.concatenate(counts), arrived


def _settle_run(table: RandomizedTable, g: Digraph, state: VirtualQueueState,
                record: Callable[[int], None], slots: Iterable[int], rate: float,
                arr_rng, act_rng, pol_rng):
    """The randomized policy's run after its first sample: each window
    (``_windows``, at most ``_WINDOW_EVENTS`` events) draws its events in
    blocks of at most ``_BLOCK_DRAWS``, each block's arrival counts, active
    edges, then picks (``randomized_picks``), each block's picks as int32
    and each list of blocks freed once it is concatenated;
    ``_settle`` then gives the queue counts at each of its sample slots and
    at its end, and each sample is recorded from the state set to those
    counts."""
    index = _set_index(table, g)
    m, full = g.m, index.full

    def draw(size: int) -> Iterator[np.ndarray]:
        """The window's arrival positions and counts (the non-zero ones),
        then its pick positions and pairs, int32."""
        block = _BLOCK_DRAWS
        arr_at, arr_n, pick_at, pick_pairs = parts = [], [], [], []
        for start in range(0, size, block):
            count = min(block, size - start)
            arrived = arr_rng.poisson(rate, size=count)
            nonzero = np.flatnonzero(arrived)
            arr_at.append(nonzero + start)
            arr_n.append(arrived[nonzero])
            at, pairs = randomized_picks(table, act_rng.integers(0, m, size=count),
                                         pol_rng)
            at += start
            pick_at.append(at.astype(np.int32))
            pick_pairs.append(pairs.astype(np.int32, copy=False))
        for part in parts:  # each list freed once its array is made
            yield np.concatenate(part)
            part.clear()

    carry_ids = carry_n = np.empty(0, dtype=np.int64)
    admitted = delivered = 0
    for size, samples in _windows(slots, m, _WINDOW_EVENTS):
        bounds = [offset for offset, _ in samples]
        if bounds[-1:] != [size]:
            bounds.append(size)
        ids, counts, arrived = _settle(index, carry_ids, carry_n,
                                       np.array(bounds, dtype=np.int64), draw(size))
        masks = index.masks[ids].tolist()
        for (_, slot), column, new in zip(samples, counts.T.tolist(), arrived):
            state.counts = {mask: c for mask, c in zip(masks, column) if c}
            state.delivered = delivered + state.counts.pop(g.full_mask, 0)
            state.admitted = admitted + new
            record(slot)
        last = counts[:, -1]
        keep = (last > 0) & (ids != full)
        carry_ids, carry_n = ids[keep], last[keep]
        delivered += int(last[ids == full].sum())
        admitted += arrived[-1]


def random_digraph(n: int, m: int, seed: int) -> Digraph:
    """Random simple digraph: ``m`` distinct node pairs, each given a uniform
    direction (never both), rooted at node 0 and resampled until every node is
    reachable from the root.

    One direction per pair keeps the unit-capacity broadcast capacity within
    n/2, matching the bound used by the tree-count checks.
    """
    n, m, seed = _integer(n, "n"), _integer(m, "m"), _integer(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
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
