"""The slotted model's exact capacity and max-weight's response around it.

``oracles.slotted_capacity_lp`` gives the slotted broadcast capacity lam* of a
graph under an activation family. Below lam*, slotted max-weight delivers the
arrival rate. Above it, max-weight has no admission control, and on ``path3``
its delivered rate follows the fluid limit (3 - lam)/5: the two edges conflict,
so one of them serves per slot, and max-weight keeps the first queue about
twice the second. The backlog's least-squares slope over the second half of
a run tells the two regimes apart: flat below lam*, growing above it.
"""

from statistics import linear_regression

import pytest

from bcastsim import SimConfig, broadcast_capacity, run
from bcastsim.cli import resolve_graph
from bcastsim.wireless import primary_interference_family, wireline_family

from oracles import slotted_capacity_lp

SLOTTED_CAPACITY = {
    "path3": 1 / 2,
    "diamond4": 2 / 3,
    "random(8,16,2)": 1 / 2,
    "random(12,30,3)": 3 / 7,
}


@pytest.fixture
def capacity_lp():
    pytest.importorskip("scipy")
    return slotted_capacity_lp


@pytest.mark.parametrize("spec,lam_star", SLOTTED_CAPACITY.items())
def test_primary_interference_capacity(capacity_lp, spec, lam_star):
    g = resolve_graph(spec)
    lam = capacity_lp(g, primary_interference_family(g))
    assert lam == pytest.approx(lam_star, abs=1e-9)


@pytest.mark.parametrize("spec", SLOTTED_CAPACITY)
def test_wireline_capacity_is_broadcast_capacity(capacity_lp, spec):
    g = resolve_graph(spec)
    lam = capacity_lp(g, wireline_family(g.m))
    assert lam == pytest.approx(broadcast_capacity(g), abs=1e-9)


@pytest.mark.parametrize("spec", ["path3", "diamond4", "random(8,16,2)"])
def test_max_weight_delivers_below_capacity(spec):
    g = resolve_graph(spec)
    lam = 0.9 * SLOTTED_CAPACITY[spec]
    result = run(SimConfig(lam=lam, horizon=20_000, seed=1,
                           time_model="slotted-wireless"),
                 g, primary_interference_family(g))
    assert result.rate == pytest.approx(lam, rel=0.03)


@pytest.mark.parametrize("lam", [1.5, 2.5])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_max_weight_overload_follows_fluid_limit(lam, seed):
    g = resolve_graph("path3")
    result = run(SimConfig(lam=lam, horizon=20_000, seed=seed,
                           time_model="slotted-wireless"),
                 g, primary_interference_family(g))
    assert result.rate == pytest.approx((3 - lam) / 5, abs=0.01)


def backlog_slope(result):
    """Least-squares slope, in packets per slot, of the sampled backlog over
    the second half of the run."""
    half = [s for s in result.samples if 2 * s.slot >= result.config.horizon]
    return linear_regression([s.slot for s in half], [s.backlog for s in half]).slope


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("spec, lam, stable", [
    ("path3", 0.45, True), ("diamond4", 0.6, True),
    ("path3", 0.55, False), ("diamond4", 0.75, False),
])
def test_max_weight_backlog_slope_around_capacity(spec, lam, stable, seed):
    """At 0.9 lam* the backlog stays flat: seeds 1-5 measured |slope| at
    most 0.0009 against the bound 0.01 lam. At 1.1 lam* it grows: seeds 1-5
    measured 0.053-0.145 against the bound 0.05 lam."""
    g = resolve_graph(spec)
    result = run(SimConfig(lam=lam, horizon=20_000, seed=seed, sample_every=100,
                           time_model="slotted-wireless"),
                 g, primary_interference_family(g))
    slope = backlog_slope(result)
    if stable:
        assert abs(slope) <= 0.01 * lam
    else:
        assert slope >= 0.05 * lam
