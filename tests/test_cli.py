from pathlib import Path

import pytest
from click.testing import CliRunner

from bcastsim.cli import main

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

    @pytest.mark.parametrize("header", ["1 0 0", "2 0 0"])
    def test_edgeless_graph_exits_2(self, runner, tmp_path, header):
        path = write(tmp_path, "g.txt", header + "\n")
        result = runner.invoke(main, ["simulate", "--config",
                                      "presets/zero-arrivals.ini", "--graph",
                                      str(path), "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "config error: mini-slot mode needs" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda_is_a_config_error(self, runner, tmp_path, lam):
        cfg = write(tmp_path, "quick.ini",
                    FIG2_QUICK.replace("lambda = 1.95", f"lambda = {lam}"))
        result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                      "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "config error: arrival rate" in result.stderr

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
