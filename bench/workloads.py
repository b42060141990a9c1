"""Benchmark workloads, output checks and the behaviour fingerprint.

Every workload starts from a CLI graph spec. Its set-up calls are the ones a
caller makes between the spec and the first slot; its unit is the work that
is repeated while measuring. Run seeds are derived from the workload seed,
so one workload seed always gives the same sequence of runs.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from bcastsim import cli, graph, policies, sim
from bcastsim.sim import RunResult, SimConfig

SAMPLE_EVERY = 100
K_VALUES = (1, 2, 4, 8, 16)

# Upper tolerance on a run's rate: over a window of W slots the minimum
# received count can grow by at most the window's arrivals plus the backlog
# queued at the window's start, so rate <= lam + RATE_SIGMAS*sqrt(lam/W) +
# backlog_base/W unless arrivals exceed their Poisson mean by RATE_SIGMAS
# standard deviations.
RATE_SIGMAS = 6.0
# Max-weight below capacity keeps the backlog bounded, so its rate stays
# within this share of lam. On mw-minislot-14 the rate's standard deviation
# over 80 seeds was 1.1 % of lam, so the band is about seven of them wide.
RATE_BAND = 0.08


@dataclass
class Prepared:
    """What set-up hands to the units: the graph and, in slotted mode, the
    activation family."""

    g: graph.Digraph
    fam: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    graph_spec: str
    lam: float
    horizon: int
    setup: Callable[["Workload", int], Prepared]
    unit: Callable[["Workload", Prepared, int], None]
    runs_per_unit: int = 1
    rate_band: float | None = None


def _setup_graph(w: Workload, seed: int) -> Prepared:
    g = cli.resolve_graph(w.graph_spec)
    graph.broadcast_capacity(g)
    return Prepared(g)


def _setup_trees(w: Workload, seed: int) -> Prepared:
    prep = _setup_graph(w, seed)
    graph.tree_packing(prep.g)
    return prep


def _setup_activation(w: Workload, seed: int) -> Prepared:
    prep = _setup_graph(w, seed)
    prep.fam = cli.build_activation("primary-maximal", prep.g)
    return prep


def _setup_randomized(w: Workload, seed: int) -> Prepared:
    prep = _setup_graph(w, seed)
    g = prep.g
    trees = graph.tree_packing(g)
    extra = policies.sample_reachable_sequences(g, 4 * g.m,
                                                np.random.default_rng(seed))
    policies.build_randomized_table(
        g, trees, extra, policies.default_eps(len(trees), w.lam, g.n))
    return prep


def _config(w: Workload, seed: int, **kw) -> SimConfig:
    return SimConfig(lam=w.lam, horizon=w.horizon, seed=seed,
                     sample_every=SAMPLE_EVERY, **kw)


def _unit_max_weight(w: Workload, prep: Prepared, seed: int):
    sim.run(_config(w, seed), prep.g)


def _unit_slotted(w: Workload, prep: Prepared, seed: int):
    sim.run(_config(w, seed, time_model="slotted-wireless"), prep.g, prep.fam)


def _unit_sweep(w: Workload, prep: Prepared, seed: int):
    sim.sweep_k(prep.g, w.lam, K_VALUES, w.horizon, seed, SAMPLE_EVERY)
    sim.run(_config(w, seed, policy="static-tree"), prep.g)


def _unit_randomized(w: Workload, prep: Prepared, seed: int):
    sim.run(_config(w, seed, policy="randomized"), prep.g)


WORKLOADS = {w.name: w for w in (
    Workload("mw-minislot-14", "random(14,70,4)", 2.85, 3000,
             _setup_graph, _unit_max_weight, rate_band=RATE_BAND),
    Workload("mc-sweep-14", "random(14,70,4)", 2.85, 1000,
             _setup_trees, _unit_sweep, runs_per_unit=len(K_VALUES) + 1),
    Workload("mw-slotted-12", "random(12,30,3)", 0.2, 2000,
             _setup_activation, _unit_slotted),
    Workload("rnd-setup-25", "random(25,200,1)", 3.0, 1000,
             _setup_randomized, _unit_randomized),
)}


def run_seed(workload_seed: int, index: int) -> int:
    """Seed of the ``index``-th unit of a pass; independent per index."""
    seq = np.random.SeedSequence(workload_seed, spawn_key=(index,))
    return int(seq.generate_state(1)[0])


@dataclass
class RunTiming:
    """Host timestamps of one run: entry, each recorded sample, exit."""

    config: SimConfig
    samples: int
    enter: float
    stamps: list[float]
    exit: float


class RunLog:
    """Captures every ``sim.run`` call made inside the ``with`` block, also
    the ones ``sweep_k`` makes: its result and its timing. One clock read
    per sample is all it adds to a run."""

    def __init__(self):
        self.runs: list[tuple[RunResult, RunTiming]] = []

    def __enter__(self):
        run, sample = sim.run, sim.Sample
        clock = time.perf_counter
        stamps: list[float] = []

        def logged_run(config, g, fam=None):
            stamps.clear()
            enter = clock()
            result = run(config, g, fam)
            done = clock()
            self.runs.append((result, RunTiming(config, len(result.samples),
                                                enter, list(stamps), done)))
            return result

        def stamped_sample(*args):
            stamps.append(clock())
            return sample(*args)

        self._saved = (run, sample)
        sim.run, sim.Sample = logged_run, stamped_sample
        return self

    def __exit__(self, *exc):
        sim.run, sim.Sample = self._saved
        return False

    def take(self) -> list[tuple[RunResult, RunTiming]]:
        runs, self.runs = self.runs, []
        return runs


def _base_sample(result: RunResult):
    cfg = result.config
    burn_in = cfg.burn_in if cfg.burn_in is not None else cfg.horizon // 10
    base = result.samples[0]
    for s in result.samples:
        if s.slot > burn_in:
            break
        base = s
    return base


def check_run(result: RunResult, rate_band: float | None = None) -> list[str]:
    """Every way the run's output breaks an invariant or a rate bound; an
    empty list means the run is correct."""
    errs = []
    prev = None
    for s in result.samples:
        if s.admitted != s.delivered + s.backlog:
            errs.append(f"slot {s.slot}: admitted {s.admitted} != delivered "
                        f"{s.delivered} + backlog {s.backlog}")
        if s.min_received != min(s.received):
            errs.append(f"slot {s.slot}: min_received {s.min_received} is not "
                        f"the minimum received count")
        if s.delivered > s.min_received:
            errs.append(f"slot {s.slot}: delivered {s.delivered} > "
                        f"min_received {s.min_received}")
        if max(s.received) > s.admitted:
            errs.append(f"slot {s.slot}: a node received more than the "
                        f"{s.admitted} admitted packets")
        if prev is not None:
            if s.slot <= prev.slot:
                errs.append(f"slot {s.slot}: samples out of order")
            if any(b < a for a, b in zip(prev.received, s.received)):
                errs.append(f"slot {s.slot}: a received count decreased")
        prev = s
    lam = result.config.lam
    base, last = _base_sample(result), result.samples[-1]
    window = last.slot - base.slot
    slope = (last.min_received - base.min_received) / window
    if not math.isclose(result.rate, slope, rel_tol=1e-12, abs_tol=1e-12):
        errs.append(f"rate {result.rate} does not match the samples ({slope})")
    tol = RATE_SIGMAS * math.sqrt(lam / window) + base.backlog / window
    if result.rate > lam + tol:
        errs.append(f"rate {result.rate:.4f} exceeds lambda {lam} + {tol:.4f}")
    if rate_band is not None and abs(result.rate - lam) > rate_band * lam:
        errs.append(f"rate {result.rate:.4f} outside lambda {lam} "
                    f"+/- {rate_band:.0%}")
    return errs


def backlog_slope(result: RunResult) -> float:
    """Least-squares backlog growth per slot over the run's second half."""
    half = result.config.horizon / 2
    pts = [(s.slot, s.backlog) for s in result.samples if s.slot >= half]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    return (sum((x - mx) * (y - my) for x, y in pts)
            / sum((x - mx) ** 2 for x, _ in pts))


def fingerprint(result: RunResult) -> dict:
    """Output hash (run CSV + per-node CSV + randomized table CSV), rate,
    final backlog and second-half backlog slope of one run."""
    text = sim.run_csv(result) + sim.received_csv(result)
    if result.rand_table is not None:
        text += "\n".join(result.rand_table.csv_rows()) + "\n"
    cfg = result.config
    return {"policy": cfg.policy, "classes": cfg.classes, "seed": cfg.seed,
            "horizon": cfg.horizon,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "rate": result.rate, "final_backlog": result.samples[-1].backlog,
            "backlog_slope": backlog_slope(result)}


@dataclass
class Tally:
    """Runs attempted and failed, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    fingerprints: list[dict] = field(default_factory=list)

    def check(self, w: Workload, results: list[RunResult]):
        for result in results:
            self.attempted += 1
            errs = check_run(result, w.rate_band)
            self.fingerprints.append(fingerprint(result))
            if errs:
                self.failed += 1
                self.messages.extend(errs[:3])

    def raised(self, exc: BaseException):
        self.attempted += 1
        self.failed += 1
        self.messages.append(f"{type(exc).__name__}: {exc}")


def run_unit(w: Workload, prep: Prepared, seed: int, log: RunLog,
             tally: Tally) -> tuple[float, list[RunTiming]] | None:
    """One unit inside ``log``; returns its wall time and run timings, or
    None when it raised. Every run is checked into ``tally``; the results
    are dropped, so they do not add to the process's memory."""
    t0 = time.perf_counter()
    try:
        w.unit(w, prep, seed)
    except Exception as exc:  # a raising run is a failed run, not a crash
        tally.check(w, [result for result, _ in log.take()])
        tally.raised(exc)
        return None
    wall = time.perf_counter() - t0
    runs = log.take()
    tally.check(w, [result for result, _ in runs])
    return wall, [timing for _, timing in runs]


def robust_unit_seconds(units: list[tuple[float, list[RunTiming]]]) -> float:
    """Host seconds for one unit, with host noise taken out.

    Every unit is a deterministic function of its seed, and the window runs
    each seed several times. Host noise only ever adds time, so each piece
    of work keeps its fastest repeat: per run configuration and seed, the
    pre-loop part (validation and the set-up that ``run`` redoes), each
    sample interval (``SAMPLE_EVERY`` slots with their sampling) and the
    tail; per unit seed, the unit's time outside its runs (``sweep_k``'s
    capacity check). The sum over the distinct seeds, divided by their
    number, is the time of one unit.
    """
    outer: dict[int, float] = {}
    parts: dict[tuple, list[float]] = {}
    for wall, runs in units:
        seed = runs[0].config.seed
        rest = wall - sum(r.exit - r.enter for r in runs)
        outer[seed] = min(outer.get(seed, rest), rest)
        for r in runs:
            cfg = r.config
            key = (cfg.seed, cfg.policy, cfg.classes, cfg.time_model)
            times = [r.stamps[0] - r.enter]
            times.extend(b - a for a, b in zip(r.stamps, r.stamps[1:]))
            times.append(r.exit - r.stamps[-1])
            best = parts.get(key)
            parts[key] = times if best is None else list(map(min, best, times))
    total = sum(outer.values()) + sum(sum(t) for t in parts.values())
    return total / len(outer)


# Host speed drifts by 20 % and more over minutes on a shared machine, which
# no statistic inside one 20 s run can remove. So the window also times a
# fixed pure-Python reference piece, which uses no engine code and mixes the
# engine's kinds of work: streaming a list, dict updates keyed by bitmasks,
# tuple comparisons. Timed metrics are scaled to a host on which that piece
# takes REF_NOMINAL_S.
REF_NOMINAL_S = 0.004
_REF_STREAM = [(i * 40503) % 70 for i in range(12000)]


def reference_piece() -> int:
    counts: dict[int, int] = {}
    best = None
    acc = 0
    for a in _REF_STREAM:
        key = ((a * 2654435761) & 0xFFF) | 1
        q = counts.get(key, 0) + 1
        counts[key] = q
        cand = (q, -key.bit_count(), -key)
        if best is None or cand > best:
            best = cand
        acc ^= key
    return acc


def reference_seconds(samples: list[tuple[int, float]]) -> float:
    """Reference-piece time, estimated like a piece of unit work: the piece
    runs after every unit, keyed by the unit's place in the seed cycle; each
    place keeps its fastest repeat, and the places are averaged."""
    best: dict[int, float] = {}
    for place, t in samples:
        best[place] = min(best.get(place, t), t)
    return sum(best.values()) / len(best)


def unit_slots(w: Workload) -> int:
    return w.runs_per_unit * w.horizon


def run_events(runs: list[RunTiming], m: int) -> int:
    """Engine events of the runs: ``m`` mini-slots per slot, or one per slot
    in slotted mode."""
    return sum(r.config.horizon
               * (1 if r.config.time_model == "slotted-wireless" else m)
               for r in runs)
