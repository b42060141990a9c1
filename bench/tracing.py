"""Spans and counters for the traced benchmark pass.

The engine is not edited: ``install`` swaps wrappers in at the names the
engine looks up at call time and ``uninstall`` puts the originals back.

* ``sim`` binds the decide/apply functions, ``edge_weight``,
  ``choose_activation`` and the randomized set-up functions at import, so
  they are wrapped in ``sim``'s namespace.
* ``graph`` calls ``max_flow`` and ``capacity_bottleneck`` as module
  globals; ``policies`` binds ``out_edges``.
* ``VirtualQueueState`` and ``MultiClassState`` methods are class attributes.
* ``sim`` reaches numpy's RNGs through its module global ``np``; a stand-in
  records every chunk draw (a call with ``size=``) as a span.

Each wrapped call is one span: name, start, end and parent, kept in flat
arrays and written out at the end. A span's self time is its duration minus
the durations of its children; calls are sequential, so children never
overlap.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

from bcastsim import cli, graph, policies, queues, sim

SETUP_IN_RUN = ("graph.tree_packing", "policies.sample_reachable_sequences",
                "policies.build_randomized_table")
DECIDES = ("max_weight_decide", "multiclass_decide", "static_tree_decide",
           "randomized_decide")


class Tracer:
    """Span store plus observation counters (sum, count, max per name)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counters: dict[str, list[float]] = {}
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def observe(self, name: str, value: float):
        c = self.counters.get(name)
        if c is None:
            self.counters[name] = [value, 1, value]
        else:
            c[0] += value
            c[1] += 1
            if value > c[2]:
                c[2] = value

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording one span per call; ``observe(args, result)`` runs
        after the span closes, so its cost is not charged to ``fn``."""
        nid = self._name_id(name)
        name_ids, parents, starts, ends = (self.name_ids, self.parents,
                                           self.starts, self.ends)
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _swap(self, owner, attr: str, name: str, observe=None):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, observe))

    def install(self):
        obs = self.observe

        def sent(decide):
            key = f"policies.{decide}.sent"

            def after(args, result):
                obs(key, result is not None)
            return after

        def max_weight_after(args, result):
            obs("policies.live_sets", len(args[0].counts))
            obs("policies.max_weight_decide.sent", result is not None)

        def randomized_after(args, result):
            table, _state, eid, _rng = args
            obs("policies.randomized_entry_len", len(table.entries[eid]))
            obs("policies.randomized_decide.sent", result is not None)

        def edge_weight_after(args, result):
            if isinstance(args[0], queues.VirtualQueueState):
                obs("policies.live_sets", len(args[0].counts))

        def activation_after(args, result):
            fam = args[1]
            obs("wireless.members_scanned", len(fam.masks))
            obs("wireless.family_size", len(fam.masks))
            obs("wireless.activated_edges", result.bit_count())

        self._swap(cli, "resolve_graph", "cli.resolve_graph")
        self._swap(cli, "build_activation", "cli.build_activation")
        self._swap(graph, "max_flow", "graph.max_flow")
        self._swap(graph, "capacity_bottleneck", "graph.capacity_bottleneck")
        self._swap(graph, "tree_packing", "graph.tree_packing")
        self._swap(sim, "tree_packing", "graph.tree_packing")
        self._swap(policies, "out_edges", "graph.out_edges")
        for owner in (policies, sim):
            self._swap(owner, "sample_reachable_sequences",
                       "policies.sample_reachable_sequences")
            self._swap(owner, "build_randomized_table",
                       "policies.build_randomized_table")
        self._swap(sim, "max_weight_decide", "policies.max_weight_decide",
                   max_weight_after)
        self._swap(sim, "multiclass_decide", "policies.multiclass_decide",
                   sent("multiclass_decide"))
        self._swap(sim, "static_tree_decide", "policies.static_tree_decide",
                   sent("static_tree_decide"))
        self._swap(sim, "randomized_decide", "policies.randomized_decide",
                   randomized_after)
        self._swap(sim, "multiclass_apply", "policies.multiclass_apply")
        self._swap(policies.MultiClassState, "received_count",
                   "policies.received_count")
        self._swap(queues.VirtualQueueState, "admit", "queues.admit")
        self._swap(queues.VirtualQueueState, "transmit", "queues.transmit")
        self._swap(queues.VirtualQueueState, "received_count",
                   "queues.received_count")
        self._swap(queues.VirtualQueueState, "total_backlog",
                   "queues.total_backlog")
        self._swap(sim, "edge_weight", "wireless.edge_weight",
                   edge_weight_after)
        self._swap(sim, "choose_activation", "wireless.choose_activation",
                   activation_after)
        self._swap(sim, "run", "sim.run")
        self._swap(sim, "sweep_k", "sim.sweep_k")
        self._swap(sim, "run_csv", "sim.run_csv")
        self._swap(sim, "received_csv", "sim.received_csv")
        self._saved.append((sim, "np", sim.np))
        sim.np = _NumpyInSim(self)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def arrays(self):
        """Copies of the span arrays: name id, parent span, start, end."""
        return (np.frombuffer(self.name_ids, dtype=np.int32).copy(),
                np.frombuffer(self.parents, dtype=np.int32).copy(),
                np.frombuffer(self.starts, dtype=np.float64).copy(),
                np.frombuffer(self.ends, dtype=np.float64).copy())

    def write(self, path: Path):
        name_ids, parents, starts, ends = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name_ids=name_ids,
                 parents=parents, starts=starts, ends=ends)


class _TracedGenerator:
    """Delegates to a numpy Generator; draws with ``size=`` become spans."""

    def __init__(self, rng: np.random.Generator, tracer: Tracer):
        self._rng = rng
        self._chunk_integers = tracer.wrap("sim.rng_chunk", rng.integers)
        self.poisson = tracer.wrap("sim.rng_chunk", rng.poisson)
        self.choice = tracer.wrap("sim.rng_chunk", rng.choice)
        self.random = rng.random

    def integers(self, *args, **kwargs):
        if "size" in kwargs:
            return self._chunk_integers(*args, **kwargs)
        return self._rng.integers(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._rng, attr)


class _RandomInSim:
    SeedSequence = np.random.SeedSequence

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def default_rng(self, seed=None):
        return _TracedGenerator(np.random.default_rng(seed), self._tracer)


class _NumpyInSim:
    """Stands in for ``sim.np``: numpy, with traced generators."""

    def __init__(self, tracer: Tracer):
        self.random = _RandomInSim(tracer)

    def __getattr__(self, attr):
        return getattr(np, attr)


def span_totals(names, name_ids, parents, starts, ends):
    """Per name: (calls, inclusive seconds, self seconds).

    Self time is a span's duration minus its direct children's durations.
    """
    name_ids = np.asarray(name_ids, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    dur = np.asarray(ends, dtype=np.float64) - np.asarray(starts, dtype=np.float64)
    child = np.zeros(len(dur))
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    size = len(names)
    calls = np.bincount(name_ids, minlength=size)
    total = np.bincount(name_ids, weights=dur, minlength=size)
    own = np.bincount(name_ids, weights=dur - child, minlength=size)
    return {name: (int(calls[i]), float(total[i]), float(own[i]))
            for i, name in enumerate(names)}


def child_time(names, name_ids, parents, starts, ends, parent_name: str,
               child_names) -> float:
    """Summed duration of direct children named in ``child_names`` under
    spans named ``parent_name``."""
    name_ids = np.asarray(name_ids, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    dur = np.asarray(ends, dtype=np.float64) - np.asarray(starts, dtype=np.float64)
    if parent_name not in names:
        return 0.0
    pid = names.index(parent_name)
    wanted = [names.index(c) for c in child_names if c in names]
    sel = np.isin(name_ids, wanted) & (parents >= 0)
    sel[sel] &= name_ids[parents[sel]] == pid
    return float(dur[sel].sum())


def layer_metrics(tracer: Tracer, events: int, samples: int,
                  overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit). Layers a workload does not
    call report zero."""
    arrays = tracer.arrays()
    totals = span_totals(tracer.names, *arrays)

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def mean(name):
        c = tracer.counters.get(name)
        return c[0] / c[1] if c else 0.0

    def total(name):
        c = tracer.counters.get(name)
        return c[0] if c else 0

    out: dict[str, tuple[float, str]] = {}
    for name in ("cli.resolve_graph", "cli.build_activation",
                 "graph.capacity_bottleneck", "graph.tree_packing",
                 "policies.sample_reachable_sequences",
                 "policies.build_randomized_table"):
        out[f"{name}.s"] = (incl(name), "s")
    for name in ("graph.max_flow", "graph.out_edges"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (own(name), "s")
    for decide in DECIDES:
        name = f"policies.{decide}"
        n = calls(name)
        out[f"{name}.calls"] = (n, "count")
        out[f"{name}.self_s"] = (own(name), "s")
        out[f"{name}.ns_per_call"] = (own(name) / n * 1e9 if n else 0.0, "ns")
        out[f"{name}.send_ratio"] = (total(f"{name}.sent") / n if n else 0.0,
                                     "ratio")
    live = tracer.counters.get("policies.live_sets")
    out["policies.live_sets.mean"] = (mean("policies.live_sets"), "count")
    out["policies.live_sets.max"] = (live[2] if live else 0, "count")
    out["policies.multiclass_apply.calls"] = (calls("policies.multiclass_apply"), "count")
    out["policies.multiclass_apply.self_s"] = (own("policies.multiclass_apply"), "s")
    out["policies.randomized_entry_len.mean"] = (
        mean("policies.randomized_entry_len"), "count")
    for name in ("queues.admit", "queues.transmit", "queues.received_count"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (own(name), "s")
    for name in ("wireless.edge_weight", "wireless.choose_activation"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (own(name), "s")
    out["wireless.members_scanned"] = (total("wireless.members_scanned"), "count")
    out["wireless.activated_edges.mean"] = (mean("wireless.activated_edges"), "count")
    fam = tracer.counters.get("wireless.family_size")
    out["wireless.family_size"] = (fam[2] if fam else 0, "count")
    run_s = incl("sim.run")
    setup_in_run = child_time(tracer.names, *arrays, "sim.run", SETUP_IN_RUN)
    out["sim.run.s"] = (run_s, "s")
    out["sim.loop.self_s"] = (own("sim.run"), "s")
    out["sim.ns_per_event"] = ((run_s - setup_in_run) / events * 1e9 if events else 0.0,
                               "ns")
    out["sim.samples"] = (samples, "count")
    out["sim.csv.s"] = (incl("sim.run_csv") + incl("sim.received_csv"), "s")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return {k: (float(v) if isinstance(v, float) else int(v), unit)
            for k, (v, unit) in out.items()}
