"""bcastsim benchmark: one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the engine is imported from ``src/``. With
``--trace 0`` it sets up the workload several times, runs one warm-up unit,
then repeats units for ``S`` seconds and reports the end-to-end metrics. With
``--trace 1`` it runs one fixed unit untraced and then the same unit traced,
and reports the per-layer metrics; the spans go to
``.bench_out/spans-<workload>.npz``. Every run's output is checked. The last
line of stdout is the result object; the line before it carries the
environment, the per-run fingerprints and any failure messages.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The timed window cycles through this many unit seeds and runs each at
# least MIN_REPEATS times, so every piece of work has a clean repeat.
SEEDS_PER_PASS = 2
MIN_REPEATS = 3
# Set-up is repeated in slices of at least this long (at least once). A slice
# follows a unit whenever set-up has so far taken less than SETUP_SHARE of
# the window, so its samples are spread over the whole window.
SETUP_SLICE_S = 0.05
SETUP_SHARE = 0.2


def _load_engine():
    if not (SRC / "bcastsim" / "__init__.py").is_file():
        sys.exit(f"bench: no bcastsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bcastsim
    if Path(bcastsim.__file__).resolve().parent != (SRC / "bcastsim").resolve():
        sys.exit(f"bench: bcastsim was imported from {bcastsim.__file__}, not {SRC}")


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "commit": _git_commit(), "workload_seed": seed}


def timed_pass(w, seed: int, seconds: float, log, tally) -> tuple[dict, dict]:
    """End-to-end metrics: set-up median and slots/s, both scaled to the
    reference host speed, and peak memory."""
    from workloads import (REF_NOMINAL_S, reference_piece, reference_seconds,
                           robust_unit_seconds, run_seed, run_unit, unit_slots)

    clock = time.perf_counter
    setup_times: list[float] = []

    def set_up():
        begin = clock()
        while True:
            t0 = clock()
            prep = w.setup(w, seed)
            setup_times.append(clock() - t0)
            if clock() - begin >= SETUP_SLICE_S:
                return prep

    prep = set_up()
    run_unit(w, prep, run_seed(seed, 0), log, tally)  # warm-up, not timed
    units = []
    ref_samples = []
    attempts = 0
    start = clock()
    while (clock() - start < seconds
           or attempts < SEEDS_PER_PASS * MIN_REPEATS
           or attempts % SEEDS_PER_PASS):
        place = attempts % SEEDS_PER_PASS
        unit = run_unit(w, prep, run_seed(seed, 1 + place), log, tally)
        attempts += 1
        if unit is not None:
            units.append(unit)
        gc.collect()  # leftovers of one unit do not land in the next
        t0 = clock()
        reference_piece()
        ref_samples.append((place, clock() - t0))
        if sum(setup_times) < SETUP_SHARE * (clock() - start):
            set_up()
    slots = unit_slots(w)
    host = reference_seconds(ref_samples) / REF_NOMINAL_S
    rate = slots / robust_unit_seconds(units) if units else 0.0
    run_time = sum(r.exit - r.enter for _, runs in units for r in runs)
    setup_times.sort()
    setup_s = setup_times[len(setup_times) // 2]
    metrics = {
        "slots_per_s": (rate * host, "1/s"),
        "setup_s": (setup_s / host, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    info = {"setup_reps": len(setup_times), "units": len(units),
            "host_slowness": host, "slots_per_s_host": rate, "setup_s_host": setup_s,
            "slots_per_s_plain": slots * len(units) / run_time if run_time else 0.0}
    return metrics, info


def traced_pass(w, seed: int, log, tally, spans_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics from one traced unit, plus the trace overhead
    against the same unit untraced; the spans are written to ``spans_path``."""
    from tracing import Tracer, layer_metrics
    from workloads import run_events, run_seed, run_unit

    def fixed_unit():
        t0 = time.perf_counter()
        prep = w.setup(w, seed)
        unit = run_unit(w, prep, run_seed(seed, 1), log, tally)
        return time.perf_counter() - t0, prep, unit

    run_unit(w, w.setup(w, seed), run_seed(seed, 0), log, tally)  # warm-up
    plain_wall, _, plain = fixed_unit()
    plain_prints = tally.fingerprints[-w.runs_per_unit:]
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, prep, unit = fixed_unit()
    finally:
        tracer.uninstall()
    if plain is None or unit is None:
        return {}, {}
    if tally.fingerprints[-w.runs_per_unit:] != plain_prints:
        tally.failed += 1
        tally.messages.append("traced runs differ from the untraced runs")
    runs = unit[1]
    metrics = layer_metrics(
        tracer, events=run_events(runs, prep.g.m),
        samples=sum(r.samples for r in runs),
        overhead_frac=traced_wall / plain_wall - 1)
    tracer.write(spans_path)
    return metrics, {"spans": len(tracer.starts), "spans_file": str(spans_path)}


def main(argv=None) -> int:
    _load_engine()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import RATE_BAND, RATE_SIGMAS, WORKLOADS, RunLog, Tally

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")

    w = WORKLOADS[args.workload]
    tally = Tally()
    with RunLog() as log:
        if args.trace:
            metrics, info = traced_pass(w, args.seed, log, tally,
                                        ROOT / ".bench_out" / f"spans-{w.name}.npz")
        else:
            metrics, info = timed_pass(w, args.seed, args.seconds, log, tally)
    info.update(workload=w.name, trace=args.trace, env=environment(args.seed),
                rate_sigmas=RATE_SIGMAS, rate_band=RATE_BAND,
                failures=tally.messages[:20], fingerprints=tally.fingerprints)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
