"""Regenerate ``bench/fingerprint.json``: the fingerprint of every run in
each workload's fixed unit (workload seed 1, unit 1: the unit the traced
pass runs).

    python3 bench/fingerprint.py

A change meant to keep behaviour leaves the file byte-identical, and
``git diff`` shows what moved. Nothing gates on it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

SEED = 1


def main() -> int:
    run._load_engine()
    from workloads import WORKLOADS, RunLog, Tally, run_seed, run_unit

    out = {"workload_seed": SEED, "unit": 1, "workloads": {}}
    for w in WORKLOADS.values():
        tally = Tally()
        with RunLog() as log:
            run_unit(w, w.setup(w, SEED), run_seed(SEED, 1), log, tally)
        if tally.failed:
            sys.exit(f"{w.name}: {tally.messages}")
        out["workloads"][w.name] = tally.fingerprints
    path = Path(__file__).with_name("fingerprint.json")
    path.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
