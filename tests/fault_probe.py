"""A fault probe of the test suite: break the code one small fault at a time
and check that the tests named for each fault catch it.

    python3 tests/fault_probe.py [--list] [NAME ...]

Each fault is a file under the repository root, exact old texts and their
replacements, and the pytest ids that must catch it. The probe copies
``src/``, ``tests/``, ``presets/``, ``pyproject.toml`` and ``README.md``
into a temporary directory,
first runs every named test on the unbroken copy (a probe of a red suite
proves nothing), then for each fault writes the broken file into the copy,
runs that fault's tests with ``-x`` and puts the file back. It prints one
line per fault, caught or missed, and exits 1 when a fault is missed or
cannot be applied. The working tree is never written: the copy holds every
file pytest, Hypothesis and Python would write.

The file name has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900


@dataclass(frozen=True)
class Fault:
    name: str
    path: str
    edits: tuple[tuple[str, str], ...]
    tests: tuple[str, ...]


POLICIES = "src/bcastsim/policies.py"
SIM = "src/bcastsim/sim.py"
GRAPH = "src/bcastsim/graph.py"
CLI = "src/bcastsim/cli.py"

# The tests that pin the in-order write path and its refusals.
APPLY_TESTS = ("tests/test_policies.py::TestMultiClassApply",
               "tests/test_policies.py::test_bound_apply_refuses_a_bad_move",
               "tests/test_policies.py::test_a_replayed_bad_move_is_refused")
DECIDE_TESTS = ("tests/test_policies.py::TestMultiClassDecide",
                "tests/test_policies.py::test_bound_decide_matches_the_oracles",
                "tests/test_policies.py::test_histogram_matches_counts_and_ledger",
                "tests/test_golden.py")
# The tests that pin the in-order step's move and its refusals.
STEP_TESTS = ("tests/test_policies.py::test_bound_step_is_decide_then_apply",
              "tests/test_policies.py::test_a_bound_step_refuses_or_skips_a_bad_move",
              "tests/test_golden.py")
REPLAY_TESTS = ("tests/test_wireless.py::TestActivationMemo", "tests/test_sim.py",
                "tests/test_golden.py")
RANDOMIZED_TESTS = ("tests/test_policies.py::TestRandomizedTable",
                    "tests/test_policies.py::TestRandomizedTableRule",
                    "tests/test_policies.py::TestRandomizedDecide",
                    "tests/test_sim.py", "tests/test_golden.py")
# The tests that pin how a graph or an activation family is read.
GRAPH_INPUT_TESTS = ("tests/test_graph.py::TestParse",
                     "tests/test_graph.py::TestDigraphValidation")
# The tests that pin the sampled growth sequences and the words they take.
SAMPLER_TESTS = ("tests/test_policies.py::TestSampledSequences",
                 "tests/test_policies.py::TestLockstepRedraw")
# The tests that pin max-flow values, the edges carrying a flow and packed trees.
FLOW_TESTS = ("tests/test_graph.py::TestMaxFlow", "tests/test_graph.py::TestCapacity",
              "tests/test_graph.py::TestTreePacking")
WIRELESS = "src/bcastsim/wireless.py"


def _drop(text: str) -> tuple[str, str]:
    return text, ""


FAULTS = (
    Fault("apply: no 'has no packet yet' check", POLICIES, (_drop(
        '        if p > row[src]:\n'
        '            raise SchedulingError(f"class {c} has no packet {p} yet")\n'),),
        APPLY_TESTS),
    Fault("apply: no 'absent at the tail' check", POLICIES, (_drop(
        '        if row[i] < p:\n'
        '            raise SchedulingError(f"class {c} packet {p} is absent at node {i}")\n'),),
        APPLY_TESTS),
    Fault("apply: no 'no in-flight set' check", POLICIES, (_drop(
        '        if pos < -len(sets):\n'
        '            raise SchedulingError(f"class {c} packet {p} has no in-flight set")\n'),),
        APPLY_TESTS),
    Fault("apply: no 'edge does not leave the set' check", POLICIES, (_drop(
        '        if not (fset >> i) & 1 or (fset >> j) & 1:\n'
        '            raise SchedulingError(f"edge {eid} does not leave node set {fset:#x}")\n'),),
        APPLY_TESTS),
    Fault("apply: no 'empty queue' check", POLICIES, (_drop(
        '        have = counts.get(fset, 0)\n'
        '        if have < 1:\n'
        '            raise SchedulingError(f"transmit from empty queue {fset:#x}")\n'),),
        APPLY_TESTS),
    Fault("in-order admit without its negative-count check", POLICIES, (_drop(
        "        if count < 0:\n"
        '            raise ValueError("negative arrival count")\n'),),
        ("tests/test_policies.py::TestMultiClassWritePath",)),
    Fault("decide: '<' for '<=' in the tail skip test", POLICIES, ((
        "                if row[i] <= hj:\n", "                if row[i] < hj:\n"),),
        DECIDE_TESTS),
    Fault("decide: ties to the highest class", POLICIES, (
        ("                if q <= best_w:\n", "                if q < best_w:\n"),
        ("                w = q - counts.get(fset | jbit, 0)\n"
         "                if w > best_w:\n",
         "                w = q - counts.get(fset | jbit, 0)\n"
         "                if w > best_w or w == best_w > 0:\n")),
        DECIDE_TESTS),
    Fault("picker: side='left' in searchsorted", POLICIES, ((
        '+ draws[open_], side="right")', '+ draws[open_], side="left")'),),
        RANDOMIZED_TESTS),
    Fault("guide: a bucket with a key boundary inside it taken as resolved", POLICIES,
          (_drop('        guide[guide != np.searchsorted(keys, low, side="right")] = -1\n'),),
          RANDOMIZED_TESTS),
    Fault("table search without its head-in-set check", POLICIES, ((
        "        if len(inside):\n", "        if False:\n"),), RANDOMIZED_TESTS),
    Fault("table search: floor for ceil", POLICIES, ((
        "np.ceil(scaled, out=scaled)", "np.floor(scaled, out=scaled)"),),
        RANDOMIZED_TESTS),
    Fault("memo key drops class 0's in-flight sets", SIM, ((
        "return tuple(map(tuple, state.inflight))",
        "return tuple(map(tuple, state.inflight[1:]))"),), REPLAY_TESTS),
    Fault("max-weight replay skips transmit on a hit", SIM, ((
        "    return _Policy(state, step, weight, apply, None)\n",
        "    replay = apply if policy != \"max-weight\" else lambda fset, eid: None\n"
        "    return _Policy(state, step, weight, replay, None)\n"),),
        REPLAY_TESTS),
    Fault("max-weight step returns the move without applying it", SIM, (_drop(
        "            if move is not None:\n"
        "                apply(move, eid)\n"),), REPLAY_TESTS),
    Fault("multiclass step without its edge re-check", POLICIES, (_drop(
        "            if not (fset >> i) & 1 or fset & jbit:\n"
        '                raise SchedulingError(f"edge {eid} does not leave node set {fset:#x}")\n'),),
        STEP_TESTS),
    Fault("static-tree step moves on move=False", POLICIES, ((
        "            if move:\n"
        "                apply(c, eid)\n",
        "            apply(c, eid)\n"),), STEP_TESTS),
    Fault("static-tree owner test without its tail half", POLICIES, ((
        "            if p > row[src] or row[tails[eid]] < p:\n",
        "            if p > row[src]:\n"),), STEP_TESTS),
    Fault("no-move form moves the packet", POLICIES, ((
        "        return step(eid, False)\n", "        return step(eid)\n"),), DECIDE_TESTS),
    Fault("the move's delivery keeps the completed in-flight set", POLICIES, (_drop(
        "            del sets[pos]  # in-order delivery: the completed packet is the oldest\n"),),
        STEP_TESTS),
    Fault("multiclass step moves the last eligible class, not the winner", POLICIES, ((
        "                    hit = row, sets, pos, fset, q\n",
        "                hit = row, sets, pos, fset, q\n"),), STEP_TESTS),
    Fault("in-order weight reads the head-of-line set one position late", POLICIES, ((
        "fset = inflight[c][row[heads[eid]] - row[src]]",
        "fset = inflight[c][row[heads[eid]] - row[src] + 1]"),), DECIDE_TESTS),
    Fault("settle: an arrival ordered after the pick of its own event", SIM, ((
        "source_keys = index.source * stride + 2 * arr_at + 4",
        "source_keys = index.source * stride + 2 * arr_at + 6"),), RANDOMIZED_TESTS),
    Fault("settle: the running minimum not reset at a set's first element", SIM, ((
        "zeros = np.full(widest, -big, dtype=dtype)",
        "zeros = np.full(widest, 0, dtype=dtype)"),), RANDOMIZED_TESTS),
    Fault("settle: a snapshot reads the element after its sample slot", SIM, ((
        "queries = 2 * bounds + 4", "queries = 2 * bounds + 6"),), RANDOMIZED_TESTS),
    Fault("settle: no object-dtype fallback for huge arrival sums", SIM, ((
        "dtype = object if big * (widest + 2) >= 1 << 63 else np.int64",
        "dtype = np.int64"),), RANDOMIZED_TESTS),
    Fault("settle: a pick on an empty queue still moves a packet", SIM, ((
        "moved = order[1:].compress(walk[:-1] > 0)", "moved = order[1:]"),),
        RANDOMIZED_TESTS),
    Fault("settle: a moved pick's key built from its own set, not its grown set", SIM, ((
        "inc_keys = (level_keys.take(moved) & (stride - 1)) + set_keys[inc_ids] - 1",
        "inc_keys = level_keys.take(moved) - 1"),), RANDOMIZED_TESTS),
    Fault("settle: the pick sort reads only the low 16 bits of a set id", SIM, ((
        "range(16, (bound - 1).bit_length(), 16)", "range(16, 16, 16)"),),
        RANDOMIZED_TESTS),
    Fault("window draw: a block's pick positions not offset by its start", SIM,
          (_drop("            at += start\n"),), RANDOMIZED_TESTS),
    Fault("_blocks overdraws its block", SIM, ((
        "draw(*args, size=_BLOCK_DRAWS, **kwargs).tolist()",
        "draw(*args, size=_BLOCK_DRAWS + 1, **kwargs).tolist()"),),
        ("tests/test_sim.py::TestBlockDraws",)),
    Fault("Digraph reads ids by int(), not operator.index", GRAPH, (
        _drop('        n = _integer(n, "node count")\n'),
        _drop('        source = _integer(source, "source")\n'),
        ('a, b = _integer(a, "edge endpoint"), _integer(b, "edge endpoint")',
         "a, b = int(a), int(b)")),
        GRAPH_INPUT_TESTS),
    Fault("Digraph without its duplicate-edge check", GRAPH, (_drop(
        "            if (a, b) in seen:\n"
        '                raise ValueError(f"duplicate edge ({a},{b})")\n'),),
        GRAPH_INPUT_TESTS),
    Fault("Digraph checks the source after the edges", GRAPH, (
        _drop("        if not 0 <= source < n:\n"
              '            raise ValueError(f"source {source} out of range for n={n}")\n'),
        ("        self.n = n\n",
         "        if not 0 <= source < n:\n"
         '            raise ValueError(f"source {source} out of range for n={n}")\n'
         "        self.n = n\n")),
        GRAPH_INPUT_TESTS),
    Fault("Digraph reads every edge before checking one", GRAPH, ((
        "        for a, b in edges:\n", "        for a, b in list(edges):\n"),),
        GRAPH_INPUT_TESTS),
    Fault("line reader without its '#' skip", GRAPH, ((
        '        if line and not line.startswith("#"):\n', "        if line:\n"),),
        GRAPH_INPUT_TESTS),
    Fault("trees without its arborescence check", CLI, (_drop(
        "        if any(not is_arborescence(g, t.edge_ids) for t in packing):\n"
        '            raise RuntimeError("internal error: packing failed validation")\n'),),
        ("tests/test_cli.py::TestTrees",)),
    Fault("tree_packing's loop bound off by one", GRAPH, ((
        "range(broadcast_capacity(g) - 1, -1, -1)",
        "range(broadcast_capacity(g) - 2, -1, -1)"),),
        ("tests/test_graph.py::TestTreePacking",)),
    Fault("sampler: the lockstep starts from the next node's out-edges", POLICIES, ((
        "out_words[:, g.source:g.source + 1]", "out_words[:, g.source + 1:g.source + 2]"),),
        SAMPLER_TESTS),
    Fault("sampler: '<=' for '<' in the redraw test", POLICIES, ((
        "redraw = np.flatnonzero(x & _WORD_MASK < threshold)",
        "redraw = np.flatnonzero(x & _WORD_MASK <= threshold)"),), SAMPLER_TESTS),
    Fault("sampler: a redraw rereads the block's words, not fresh ones", POLICIES, ((
        "rng.integers(0, 1 << 32, size=len(redraw), dtype=np.uint32)",
        "words[t - 1, redraw]"),), SAMPLER_TESTS),
    Fault("sampler: a redraw multiplies by the row before's boundary size", POLICIES, ((
        "x[redraw] = fresh * k[redraw]", "x[redraw] = fresh * k[redraw - 1]"),),
        SAMPLER_TESTS),
    Fault("sampler: no empty-boundary check", POLICIES, (_drop(
        "        if not k.all():\n"
        '            raise ValueError("a node is unreachable from the source")\n'),),
        SAMPLER_TESTS),
    Fault("sampler: the popcount select's byte off by one", POLICIES, ((
        "((rank * _BYTE_ONES | _BYTE_TOPS) - ends) & _BYTE_TOPS",
        "((rank * _BYTE_ONES | _BYTE_TOPS) - ends - _BYTE_ONES) & _BYTE_TOPS"),),
        SAMPLER_TESTS),
    Fault("sampler: the select's word index off by one", POLICIES, ((
        "word = (below[1:] <= j).sum(axis=0)", "word = (below[1:] < j).sum(axis=0)"),),
        SAMPLER_TESTS),
    Fault("sampler: the in-word rank not reduced by the lower words' count", POLICIES, ((
        "rank = j - below[word, rows]", "rank = j.copy()"),), SAMPLER_TESTS),
    Fault("sampler: the in-byte rank not reduced by the lower bytes' count", POLICIES,
          (_drop("        rank -= (ends << 8 >> shift) & 0xFF\n"),), SAMPLER_TESTS),
    Fault("table: tree rows summed after the extra rows", POLICIES, (
        ("np.concatenate((tree_sets, sets))", "np.concatenate((sets, tree_sets))"),
        ("np.concatenate((tree_eids, eids))", "np.concatenate((eids, tree_eids))"),
        ("np.concatenate((np.broadcast_to(tree_p, tree_sets.shape),\n"
         "                        np.broadcast_to(extra_p, sets.shape)))",
         "np.concatenate((np.broadcast_to(extra_p, sets.shape),\n"
         "                        np.broadcast_to(tree_p, tree_sets.shape)))")),
        RANDOMIZED_TESTS),
    Fault("table: tree sets include the row's own head", POLICIES, ((
        "tree_sets[:, 1:] |= np.bitwise_or.accumulate(bits[:, :-1], axis=1)",
        "tree_sets |= np.bitwise_or.accumulate(bits, axis=1)"),), RANDOMIZED_TESTS),
    Fault("table: the growth-order check dropped", POLICIES, ((
        "    if not grows.all():\n", "    if False:\n"),), RANDOMIZED_TESTS),
    Fault("table: the negative check read at the last position", POLICIES, ((
        "if tree_sets.size and tree_p[0] < 0:", "if tree_sets.size and tree_p[-1] < 0:"),),
        RANDOMIZED_TESTS),
    Fault("set index: sizes counted without the lowest node", SIM, ((
        "np.bitwise_count(fsets)", "np.bitwise_count(fsets >> 1)"),), RANDOMIZED_TESTS),
    Fault("activation parser: a duplicate's line without the empty-set shift",
          WIRELESS, ((
              "lineno = linenos[exc.index - (0 not in masks)]",
              "lineno = linenos[exc.index]"),),
        ("tests/test_wireless.py::TestParseFamily",)),
    Fault("packing repair drops the removed edge but not its walk", GRAPH, ((
        "                _drop_walk(flow, a, b, s, t)\n",
        "                flow.remove(edge)\n"),), FLOW_TESTS),
    Fault("augment fills u->v where it should cancel the unit on v->u", GRAPH, ((
        "        if (v, u) in flow:\n",
        "        if (v, u) in flow and not (base[u] >> v) & 1:\n"),), FLOW_TESTS),
    Fault("packing keeps a sink's old witness after a repair", GRAPH, ((
        "            witness[t] = flow\n",
        "            if witness[t] is None:\n"
        "                witness[t] = flow\n"),), FLOW_TESTS),
    Fault("packing scans its sorted list from the highest id", GRAPH, ((
        "        for eid in rest:\n", "        for eid in reversed(rest):\n"),),
        FLOW_TESTS),
    Fault("packing stores each tree's edges by id, not in growth order", GRAPH, ((
        "trees.append(Arborescence(tuple(tree)))",
        "trees.append(Arborescence(tuple(sorted(tree))))"),), FLOW_TESTS),
)


def _pytest(copy: Path, tests) -> tuple[int, float]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(copy / "src"))
    start = time.perf_counter()
    try:
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *tests], cwd=copy, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        code = -1
    return code, time.perf_counter() - start


def _broken(text: str, edits) -> str | None:
    """``text`` with every edit applied, or None when an old text does not
    occur exactly once."""
    for old, new in edits:
        if text.count(old) != 1:
            return None
        text = text.replace(old, new)
    return text


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--list", action="store_true", help="list the faults and exit")
    ap.add_argument("names", nargs="*", help="run only faults whose name holds one of these")
    args = ap.parse_args(argv)
    faults = [f for f in FAULTS
              if not args.names or any(n in f.name for n in args.names)]
    if args.list:
        for f in faults:
            print(f"{f.name}  [{f.path}]  {' '.join(f.tests)}")
        return 0
    with tempfile.TemporaryDirectory(prefix="fault-probe-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "presets"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        for part in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / part, copy / part)
        every = sorted({t for f in faults for t in f.tests})
        code, secs = _pytest(copy, every)
        if code != 0:
            print(f"the unbroken copy fails its named tests (pytest exit {code}); "
                  f"no fault was run")
            return 1
        print(f"unbroken copy passes {len(every)} test selections in {secs:.0f} s")
        missed = 0
        for f in faults:
            target = copy / f.path
            original = target.read_text()
            broken = _broken(original, f.edits)
            if broken is None:
                print(f"STALE   {f.name}: an old text does not occur exactly once")
                missed += 1
                continue
            target.write_text(broken)
            try:
                code, secs = _pytest(copy, f.tests)
            finally:
                target.write_text(original)
            verdict = {0: "MISSED", 1: "caught", -1: "TIMEOUT"}.get(code, f"ERROR {code}")
            missed += verdict != "caught"
            print(f"{verdict:7} {f.name} ({secs:.0f} s)", flush=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
