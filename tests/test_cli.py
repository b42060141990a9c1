import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from bcastsim import Arborescence, cli
from bcastsim.cli import main, resolve_graph
from bcastsim.sim import SimConfig, run

FIG2_QUICK = """[experiment]
graph = diamond4
name = quick
seeds = 1 2

[sim]
policy = max-weight
lambda = 1.95
horizon = 2000
sample_every = 200
"""


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestCapacity:
    def test_diamond(self, runner):
        result = runner.invoke(main, ["capacity", "--graph", "diamond4"])
        assert result.exit_code == 0
        assert "broadcast capacity: 2" in result.output

    def test_path(self, runner):
        result = runner.invoke(main, ["capacity", "--graph", "path3"])
        assert result.exit_code == 0
        assert "broadcast capacity: 1" in result.output

    def test_graph_file(self, runner, tmp_path):
        path = write(tmp_path, "g.txt", "3 2 0\n0 1\n1 2\n")
        result = runner.invoke(main, ["capacity", "--graph", str(path)])
        assert result.exit_code == 0
        assert "broadcast capacity: 1" in result.output

    def test_random_spec(self, runner):
        result = runner.invoke(main, ["capacity", "--graph", "random(8,12,3)"])
        assert result.exit_code == 0

    def test_missing_file_exits_2(self, runner):
        result = runner.invoke(main, ["capacity", "--graph", "nowhere.txt"])
        assert result.exit_code == 2

    def test_parse_error_exits_2(self, runner, tmp_path):
        path = write(tmp_path, "bad.txt", "2 1 0\n0 2\n")
        result = runner.invoke(main, ["capacity", "--graph", str(path)])
        assert result.exit_code == 2
        assert "line 2" in result.output


class TestTrees:
    def test_diamond(self, runner):
        result = runner.invoke(main, ["trees", "--graph", "diamond4"])
        assert result.exit_code == 0
        assert "2 edge-disjoint spanning trees" in result.output

    def test_path_is_its_own_tree(self, runner):
        result = runner.invoke(main, ["trees", "--graph", "path4"])
        assert result.exit_code == 0
        assert "1 edge-disjoint spanning tree" in result.output

    def test_zero_capacity(self, runner, tmp_path):
        path = write(tmp_path, "dead.txt", "2 1 0\n1 0\n")
        result = runner.invoke(main, ["trees", "--graph", str(path)])
        assert result.exit_code == 0
        assert "no trees" in result.output

    @pytest.mark.parametrize("packing, message", [
        # Two of path4's three edges, 0->1 and 2->3, which miss node 2.
        ([(0, 2)], "internal error: packing failed validation"),
        ([(0, 1, 2), (0, 1, 2)], "internal error: packing is not edge-disjoint"),
    ], ids=["not-an-arborescence", "shared-edge"])
    def test_a_bad_packing_exits_1(self, runner, monkeypatch, packing, message):
        """The self-checks on the extracted trees, reached by a stand-in
        packing: exit 1 with the message and no traceback."""
        monkeypatch.setattr(cli, "tree_packing",
                            lambda g: [Arborescence(ids) for ids in packing])
        result = runner.invoke(main, ["trees", "--graph", "path4"])
        assert result.exit_code == 1
        assert result.output == f"error: {message}\n"

    def test_a_closed_stdout_exits_1_quietly(self):
        """A stdout whose reader is gone (``| head``) raises BrokenPipeError
        on the first write: exit 1, and nothing on stderr, neither an
        "error:" line nor an "Exception ignored" one from the exit flush."""
        read, write = os.pipe()
        os.close(read)
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "bcastsim.cli", "trees", "--graph", "diamond4"],
                stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, b"")


class TestSimulate:
    def test_writes_csvs_and_prints_rates(self, runner, tmp_path):
        cfg = write(tmp_path, "quick.ini", FIG2_QUICK)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                      "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "quick_seed1.csv").is_file()
        assert (out / "quick_seed2_nodes.csv").is_file()
        header = (out / "quick_seed1.csv").read_text().splitlines()[0]
        assert header == "slot,admitted,delivered,min_received,backlog"
        assert result.output.count("rate") == 2

    def test_rerun_is_byte_identical(self, runner, tmp_path):
        cfg = write(tmp_path, "quick.ini", FIG2_QUICK)
        out = tmp_path / "out"
        runner.invoke(main, ["simulate", "--config", str(cfg), "--out-dir", str(out)])
        first = (out / "quick_seed1.csv").read_bytes()
        runner.invoke(main, ["simulate", "--config", str(cfg), "--out-dir", str(out)])
        assert (out / "quick_seed1.csv").read_bytes() == first

    def test_seed_override_runs_single_seed(self, runner, tmp_path):
        cfg = write(tmp_path, "quick.ini", FIG2_QUICK)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                      "--out-dir", str(out), "--seed", "7"])
        assert result.exit_code == 0
        assert (out / "quick_seed7.csv").is_file()
        assert not (out / "quick_seed1.csv").exists()

    @pytest.mark.parametrize("seeds, override, bad", [
        ("2 -3", None, -3),
        ("1 2", "-1", -1),
    ], ids=["config", "option"])
    def test_negative_seed_is_a_config_error(self, runner, tmp_path, seeds,
                                             override, bad):
        cfg = write(tmp_path, "quick.ini",
                    FIG2_QUICK.replace("seeds = 1 2", f"seeds = {seeds}"))
        out = tmp_path / "out"
        args = ["simulate", "--config", str(cfg), "--out-dir", str(out)]
        if override is not None:
            args += ["--seed", override]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"config error: seed must be non-negative, got {bad}" in result.stderr
        assert not out.exists()

    # zero-arrivals runs in mini-slot mode, d4-wireless in slotted mode, and
    # the last case swaps d4-wireless's matchings for the wireline family.
    @pytest.mark.parametrize("preset, activation", [
        pytest.param("zero-arrivals", None, id="zero-arrivals"),
        pytest.param("d4-wireless", None, id="d4-wireless"),
        pytest.param("d4-wireless", "wireline", id="d4-wireless-wireline"),
    ])
    @pytest.mark.parametrize("header", ["1 0 0", "2 0 0"])
    def test_edgeless_graph_exits_2(self, runner, tmp_path, header, preset,
                                    activation):
        path = write(tmp_path, "g.txt", header + "\n")
        text = Path(f"presets/{preset}.ini").read_text()
        if activation:
            text = text.replace("activation = primary", f"activation = {activation}")
        cfg = write(tmp_path, f"{preset}.ini", text)
        result = runner.invoke(main, ["simulate", "--config", str(cfg), "--graph",
                                      str(path), "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "config error: the graph needs at least one edge" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("policy", ["static-tree", "randomized"])
    def test_tree_policy_without_capacity_exits_2(self, runner, tmp_path, policy):
        """Node 2 of the graph file is unreachable, so no tree spans it."""
        path = write(tmp_path, "g.txt", "3 2 0\n0 1\n2 1\n")
        cfg = write(tmp_path, "quick.ini",
                    FIG2_QUICK.replace("policy = max-weight", f"policy = {policy}"))
        result = runner.invoke(main, ["simulate", "--config", str(cfg), "--graph",
                                      str(path), "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {policy} policy needs broadcast capacity >= 1\n"

    @pytest.mark.parametrize("lam", ["nan", "inf", "1e300"])
    def test_non_finite_lambda_is_a_config_error(self, runner, tmp_path, lam):
        cfg = write(tmp_path, "quick.ini",
                    FIG2_QUICK.replace("lambda = 1.95", f"lambda = {lam}"))
        result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                      "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "config error: arrival rate" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command, policy", [
        ("simulate", "multiclass"), ("simulate", "static-tree"), ("sweep", "multiclass")])
    def test_in_order_lambda_over_the_cap_is_a_config_error(self, runner, tmp_path,
                                                            monkeypatch, command, policy):
        """Each in-order packet is admitted one at a time, so a huge rate
        would never finish; it is refused before any run starts."""
        def never(*args, **kwargs):
            raise AssertionError("the rate was run")

        monkeypatch.setattr(cli, "run", never)
        monkeypatch.setattr(cli, "sweep_k", never)
        text = Path("presets/d4-sweep.ini").read_text()
        text = text.replace("lambda = 1.95", "lambda = 1e17").replace(
            "policy = multiclass", f"policy = {policy}\nclasses = 3")
        cfg = write(tmp_path, "huge.ini", text)
        result = runner.invoke(main, [command, "--config", str(cfg),
                                      "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert result.stderr == (f"config error: arrival rate must be at most 10000 "
                                 f"for policy '{policy}', got 1e+17\n")
        assert not (tmp_path / "out").exists()

    def test_zero_arrivals_preset_shape(self, runner, tmp_path):
        cfg = write(tmp_path, "zero.ini", FIG2_QUICK.replace("1.95", "0.0"))
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                      "--out-dir", str(out)])
        assert result.exit_code == 0
        rows = (out / "quick_seed1.csv").read_text().splitlines()[1:]
        assert all(row.split(",")[2] == "0" for row in rows)

    def test_randomized_writes_table(self, runner, tmp_path):
        text = FIG2_QUICK.replace("policy = max-weight",
                                  "policy = randomized\neps = 0.05")
        text = text.replace("lambda = 1.95", "lambda = 1.5")
        cfg = write(tmp_path, "rand.ini", text)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                      "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        table = (out / "quick_seed1_table.csv").read_text().splitlines()
        assert table[0] == "edge,bits,probability"

    def test_wireless_preset(self, runner, tmp_path):
        result = runner.invoke(main, [
            "simulate", "--config", "presets/d4-wireless.ini",
            "--out-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output

    def test_activation_family_from_file(self, runner, tmp_path):
        fam_file = write(tmp_path, "fam.txt", "-\n0\n3\n0 2\n")
        text = FIG2_QUICK.replace(
            "policy = max-weight",
            f"policy = max-weight\ntime_model = slotted-wireless\n"
            f"activation = file:{fam_file}")
        cfg = write(tmp_path, "wl.ini", text)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                      "--out-dir", str(out), "--seed", "1"])
        assert result.exit_code == 0, result.output
        assert (out / "quick_seed1.csv").is_file()

    def test_bad_activation_family_file_exits_2(self, runner, tmp_path):
        fam_file = write(tmp_path, "fam.txt", "9\n")
        text = FIG2_QUICK.replace(
            "policy = max-weight",
            f"policy = max-weight\ntime_model = slotted-wireless\n"
            f"activation = file:{fam_file}")
        cfg = write(tmp_path, "wl.ini", text)
        result = runner.invoke(main, ["simulate", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "out of range" in result.output

    def test_duplicate_activation_line_exits_2(self, runner, tmp_path):
        fam_file = write(tmp_path, "fam.txt", "0\n# c\n0\n")
        text = FIG2_QUICK.replace(
            "policy = max-weight",
            f"policy = max-weight\ntime_model = slotted-wireless\n"
            f"activation = file:{fam_file}")
        cfg = write(tmp_path, "wl.ini", text)
        result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                      "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert result.stderr == "error: line 3: duplicate activation 0x1\n"

    @pytest.mark.parametrize("activation", ["primary", "primary-maximal"])
    def test_family_over_the_member_cap_exits_2(self, runner, tmp_path,
                                                activation):
        # random(20,80,3) has about two million maximal matchings.
        text = FIG2_QUICK.replace(
            "policy = max-weight",
            f"policy = max-weight\ntime_model = slotted-wireless\n"
            f"activation = {activation}")
        cfg = write(tmp_path, "wl.ini", text)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg), "--graph",
                                      "random(20,80,3)", "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        assert ("error: primary interference family capped at 262144 members"
                in result.stderr)
        assert "Traceback" not in result.stderr
        assert not out.exists()

    def test_node_cap_checked_before_the_family_is_built(self, runner, tmp_path):
        # 26 nodes: 25 source edges and 75 random forward pairs, whose
        # maximal matchings would take far longer to list than the check.
        forward = [(u, v) for u in range(1, 26) for v in range(u + 1, 26)]
        edges = [(0, v) for v in range(1, 26)] + random.Random(0).sample(forward, 75)
        path = write(tmp_path, "g.txt", "26 100 0\n"
                     + "".join(f"{a} {b}\n" for a, b in edges))
        text = FIG2_QUICK.replace(
            "policy = max-weight",
            "policy = max-weight\ntime_model = slotted-wireless\n"
            "activation = primary-maximal")
        cfg = write(tmp_path, "wl.ini", text)
        result = runner.invoke(main, ["simulate", "--config", str(cfg), "--graph",
                                      str(path), "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "config error: policy 'max-weight' tracks node subsets and is " \
            "capped at n=25, got n=26" in result.stderr
        assert "Traceback" not in result.stderr

    def test_activation_in_mini_slot_mode_exits_before_the_family(self, runner,
                                                                  tmp_path):
        text = FIG2_QUICK.replace("policy = max-weight",
                                  "policy = max-weight\nactivation = primary")
        cfg = write(tmp_path, "quick.ini", text)
        result = runner.invoke(main, ["simulate", "--config", str(cfg), "--graph",
                                      "random(20,80,3)", "--out-dir",
                                      str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert result.stderr == ("config error: activation family only applies "
                                 "to slotted-wireless mode\n")

    def test_config_errors_listed_all_at_once(self, runner, tmp_path):
        bad = """[experiment]
graph = diamond4

[sim]
policy = bogus
lambda = -2
horizon = 0
"""
        cfg = write(tmp_path, "bad.ini", bad)
        result = runner.invoke(main, ["simulate", "--config", str(cfg)])
        assert result.exit_code == 2
        errors = [l for l in result.output.splitlines() if l.startswith("config error")]
        assert len(errors) >= 3

    @pytest.mark.parametrize("text, message", [
        (FIG2_QUICK.replace("[sim]\n", "[sim]\nclases = 16\n"),
         "unknown key 'clases' in [sim]"),
        (FIG2_QUICK.replace("seeds", "seed"), "unknown key 'seed' in [experiment]"),
        (FIG2_QUICK + "[simm]\nhorizon = 5\n", "unknown key 'horizon' in [simm]"),
    ], ids=["sim", "experiment", "unknown-section"])
    def test_unknown_key_is_a_config_error(self, runner, tmp_path, text, message):
        cfg = write(tmp_path, "quick.ini", text)
        result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                      "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert f"config error: {message}" in result.stderr
        assert "Traceback" not in result.stderr

    def test_runtime_error_exits_1(self, runner, tmp_path, monkeypatch):
        # A decide that names the full set makes the move refuse mid-run.
        monkeypatch.setattr("bcastsim.sim.max_weight_decide",
                            lambda state, eid: state.graph.full_mask)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config",
                                      "presets/zero-arrivals.ini",
                                      "--out-dir", str(out)])
        assert result.exit_code == 1, result.output
        assert result.stderr == "error: edge 5 does not leave node set 0xf\n"
        assert not list(out.glob("*.csv"))

    def test_missing_config_exits_2(self, runner):
        result = runner.invoke(main, ["simulate", "--config", "missing.ini"])
        assert result.exit_code == 2

    def test_graph_override(self, runner, tmp_path):
        cfg = write(tmp_path, "quick.ini",
                    FIG2_QUICK.replace("lambda = 1.95", "lambda = 0.9"))
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                      "--graph", "path3", "--out-dir", str(out),
                                      "--seed", "1"])
        assert result.exit_code == 0, result.output
        nodes_header = (out / "quick_seed1_nodes.csv").read_text().splitlines()[0]
        assert nodes_header == "slot,recv_0,recv_1,recv_2"


SWEEP_BURN_IN = """[experiment]
graph = diamond4
name = burn
seeds = 1

[sim]
policy = multiclass
lambda = 1.5
horizon = 200
sample_every = 50
burn_in = 150
k_values = 1 2
"""


class TestSweep:
    def test_writes_sweep_csv(self, runner, tmp_path):
        text = """[experiment]
graph = diamond4
name = swp
seeds = 1

[sim]
policy = multiclass
lambda = 1.5
horizon = 1500
sample_every = 300
k_values = 2
"""
        cfg = write(tmp_path, "swp.ini", text)
        out = tmp_path / "out"
        result = runner.invoke(main, ["sweep", "--config", str(cfg),
                                      "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        lines = (out / "swp_sweep.csv").read_text().splitlines()
        assert lines[0] == "k,rate"
        assert len(lines) == 2

    def test_honours_burn_in(self, runner, tmp_path):
        cfg = write(tmp_path, "burn.ini", SWEEP_BURN_IN)
        result = runner.invoke(main, ["sweep", "--config", str(cfg),
                                      "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        g = resolve_graph("diamond4")
        expected = [run(SimConfig(lam=1.5, horizon=200, sample_every=50,
                                  burn_in=150, policy="multiclass", classes=k), g).rate
                    for k in (1, 2)]
        assert result.stdout.splitlines() == [f"k {k}: rate {rate:.6f}"
                                              for k, rate in zip((1, 2), expected)]

    def test_slotted_config_exits_2(self, runner, tmp_path):
        text = SWEEP_BURN_IN.replace(
            "[sim]\n", "[sim]\ntime_model = slotted-wireless\nactivation = primary\n")
        cfg = write(tmp_path, "slotted.ini", text)
        result = runner.invoke(main, ["sweep", "--config", str(cfg),
                                      "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert result.stderr == "config error: sweep runs in mini-slot mode\n"
        assert not (tmp_path / "out").exists()

    def test_requires_multiclass_policy(self, runner, tmp_path):
        cfg = write(tmp_path, "quick.ini", FIG2_QUICK)
        result = runner.invoke(main, ["sweep", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "multiclass" in result.output

    def test_requires_k_values(self, runner, tmp_path):
        text = FIG2_QUICK.replace("policy = max-weight", "policy = multiclass")
        cfg = write(tmp_path, "quick.ini", text)
        result = runner.invoke(main, ["sweep", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "k_values" in result.output


def test_presets_parse(runner, tmp_path):
    for preset in Path("presets").glob("*.ini"):
        if preset.name in ("fig2.ini", "d4-randomized.ini"):
            continue  # long horizons; exercised by the acceptance suite
        result = runner.invoke(main, ["simulate", "--config", str(preset),
                                      "--out-dir", str(tmp_path / preset.stem)])
        assert result.exit_code == 0, (preset, result.output)
