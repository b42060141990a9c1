"""Tests of the benchmark itself: output checks, span arithmetic, the
noise-free unit time, and determinism of the traced pass."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from bcastsim import policies, queues, sim
from bcastsim.fixtures import diamond4
from bcastsim.sim import SimConfig

import run as bench_run
from tracing import Tracer, child_time, span_totals
from workloads import (RATE_BAND, WORKLOADS, RunLog, RunTiming, Tally,
                       check_run, reference_seconds, robust_unit_seconds)


@pytest.fixture(scope="module")
def good():
    cfg = SimConfig(lam=1.5, horizon=2000, seed=3, sample_every=100)
    return sim.run(cfg, diamond4())


def _with_sample(result, i, **changes):
    samples = list(result.samples)
    samples[i] = replace(samples[i], **changes)
    return replace(result, samples=tuple(samples))


def _conservation(r):
    return _with_sample(r, 5, backlog=r.samples[5].backlog + 1)


def _decrease(r):
    recv = list(r.samples[7].received)
    recv[2] = r.samples[6].received[2] - 1
    return _with_sample(r, 7, received=tuple(recv), min_received=min(recv))


def _delivered_above_min(r):
    s = r.samples[9]
    return _with_sample(r, 9, delivered=s.min_received + 1,
                        backlog=s.admitted - s.min_received - 1)


def _received_above_admitted(r):
    s = r.samples[4]
    recv = (s.admitted + 1,) + s.received[1:]
    return _with_sample(r, 4, received=recv)


def _wrong_min(r):
    return _with_sample(r, 3, min_received=r.samples[3].min_received + 1)


def _rate_mismatch(r):
    return replace(r, rate=r.rate + 0.01)


def _rate_above_lambda(r):
    return replace(r, config=replace(r.config, lam=r.rate / 2))


@pytest.mark.parametrize("doctor", [
    _conservation, _decrease, _delivered_above_min, _received_above_admitted,
    _wrong_min, _rate_mismatch, _rate_above_lambda])
def test_doctored_run_counts_as_failed(good, doctor):
    assert check_run(good, RATE_BAND) == []
    bad = doctor(good)
    assert check_run(bad)
    tally = Tally()
    tally.check(WORKLOADS["mw-minislot-14"], [bad])
    assert (tally.attempted, tally.failed) == (1, 1)


def test_rate_band(good):
    off = replace(good, config=replace(good.config, lam=good.rate * 1.2))
    assert check_run(off) == []
    assert check_run(off, RATE_BAND)


def test_self_time_on_hand_built_tree():
    names = ["a", "b", "c"]
    # a[0,10] > (b[1,4] > c[2,3]), b[5,9];  a[20,22]
    name_ids = [0, 1, 2, 1, 0]
    parents = [-1, 0, 1, 0, -1]
    starts = [0.0, 1.0, 2.0, 5.0, 20.0]
    ends = [10.0, 4.0, 3.0, 9.0, 22.0]
    totals = span_totals(names, name_ids, parents, starts, ends)
    assert totals["a"] == (2, 12.0, 5.0)
    assert totals["b"] == (2, 7.0, 6.0)
    assert totals["c"] == (1, 1.0, 1.0)
    assert child_time(names, name_ids, parents, starts, ends, "a", ["b"]) == 7.0
    assert child_time(names, name_ids, parents, starts, ends, "a", ["c"]) == 0.0


def test_tracer_records_parents_and_restores_names():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    name_ids, parents, starts, ends = tracer.arrays()
    assert [tracer.names[i] for i in name_ids] == ["outer", "inner", "inner"]
    assert parents.tolist() == [-1, 0, 0]
    calls, total, own = span_totals(tracer.names, name_ids, parents, starts,
                                    ends)["outer"]
    assert calls == 1
    assert own == pytest.approx(total - (ends[1:] - starts[1:]).sum())
    tracer.install()
    tracer.uninstall()
    assert sim.max_weight_decide is policies.max_weight_decide
    assert queues.VirtualQueueState.transmit.__name__ == "transmit"
    assert sim.np is np


def _timing(seed, pre, steps, post):
    stamps = [pre]
    for s in steps:
        stamps.append(stamps[-1] + s)
    cfg = SimConfig(lam=1.0, horizon=len(steps) * 100, seed=seed)
    return RunTiming(cfg, len(stamps), 0.0, stamps, stamps[-1] + post)


def test_robust_unit_seconds_keeps_the_fastest_repeat():
    # Seed 1 runs three times: one repeat has a slow second interval, one a
    # slow pre-loop part and 8 s spent outside its run. Seed 2 runs once.
    units = [(2.8, [_timing(1, 0.5, [0.1, 0.1, 0.1], 0.0)]),
             (9.6, [_timing(1, 0.5, [0.1, 0.9, 0.1], 0.0)]),
             (7.3, [_timing(1, 5.0, [0.1, 0.1, 0.1], 0.0)]),
             (1.0, [_timing(2, 0.2, [0.2, 0.2], 0.1)])]
    seed1 = 2.0 + 0.5 + 0.3
    seed2 = (1.0 - 0.7) + 0.2 + 0.4 + 0.1
    assert robust_unit_seconds(units) == pytest.approx((seed1 + seed2) / 2)


def test_reference_seconds_keeps_fastest_repeat_per_place():
    samples = [(0, 0.005), (1, 0.009), (0, 0.004), (1, 0.006), (0, 0.020)]
    assert reference_seconds(samples) == pytest.approx((0.004 + 0.006) / 2)


@pytest.mark.parametrize("name", ["mw-minislot-14", "mw-slotted-12"])
def test_traced_counts_repeat_exactly(name, tmp_path):
    w = WORKLOADS[name]
    passes = []
    for i in range(2):
        tally = Tally()
        with RunLog() as log:
            metrics, _ = bench_run.traced_pass(w, 5, log, tally,
                                               tmp_path / f"spans{i}.npz")
        assert tally.failed == 0, tally.messages
        counts = {k: v for k, (v, unit) in metrics.items()
                  if unit in ("count", "ratio") and k != "trace.overhead_frac"}
        passes.append((counts, tally.fingerprints))
    assert passes[0] == passes[1]
    assert passes[0][0]["policies.max_weight_decide.calls"] > 0
    assert sim.run.__module__ == "bcastsim.sim"
    assert (tmp_path / "spans1.npz").is_file()
