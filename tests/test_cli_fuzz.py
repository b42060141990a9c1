"""Malformed and extreme inputs to the CLI: graph files, activation-family
files and INI values. Every run must exit 0 or 2 and print no traceback.

Sizes are kept small so that no input which passes validation starts a long
run: huge rates, horizons and node counts appear only next to an input that
validation rejects, or where validation itself rejects them.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bcastsim.cli import main

BASE = {
    "experiment": {"graph": "diamond4", "name": "fz", "seeds": "1"},
    "sim": {"policy": "max-weight", "lambda": "1.0", "horizon": "20",
            "sample_every": "5"},
}

# Graph documents; the largest node count that passes parsing is 4.
BAD_GRAPHS = [
    b"",
    b"# only a comment\n\n# and another\n",
    b"\xff\xfe\xfa\n",
    b"3 2 0\n0 1\n\x80\x81\n",
    b"\x00\x00\n",
    b"3 2\n0 1\n1 2\n",
    b"3 2 0\n0 1\n",
    b"3 1 0\n0 1\n1 2\n",
    b"3 2 0\n0 1\n1 1\n",
    b"3 2 0\n0 1\n0 1\n",
    b"3 1 0\n0 3\n",
    b"3 1 0\n0 -1\n",
    b"x 1 0\n0 1\n",
    b"3 1 0\n0 one\n",
    b"3 2 0\n0 1 2\n1 2\n",
    b"0 0 0\n",
    b"-3 2 0\n0 1\n1 2\n",
    b"3 -1 0\n",
    b"3 1 5\n0 1\n",
    b"1 0 0\n",
    b"2 0 0\n",
    b"3 2 0\n1 2\n2 1\n",
    b"3 2 0\r\n0 1\r\n1 2\r\n",
    b"4 4 0\n0 1\n1 2\n2 3\n3 0\n",
]

# Activation-family documents for the diamond (edge ids 0..5).
BAD_FAMILIES = [
    b"",
    b"# comments only\n# here\n",
    b"\xff\xfe\n0\n",
    b"0 0\n",
    b"6\n",
    b"-1\n",
    b"0\n0\n",
    b"-\n-\n",
    b"x\n",
    b"0 1.5\n",
    b"0 2\n-\n1 3\n",
    b"0 1 2 3 4 5\n",
]

# INI values per key: malformed, out of range, or small and valid.
INI_VALUES = {
    ("experiment", "graph"): ["diamond4", "path3", "star4", "nowhere",
                              "random(5,3,1)", "random(5,6,1)", "random(1,0,0)",
                              "random(6,99,1)", "%(x)s", ""],
    ("experiment", "name"): ["fz", "run 100%", ""],
    ("experiment", "seeds"): ["1", "1 2", "", "x", "-1", "2 -3", "1.5"],
    ("sim", "policy"): ["max-weight", "multiclass", "static-tree", "randomized",
                        "bogus", ""],
    ("sim", "time_model"): ["mini-slot", "slotted-wireless", "bogus"],
    ("sim", "activation"): ["primary", "primary-maximal", "wireline", "bogus",
                            "file:", "file:/nonexistent/fam.txt"],
    ("sim", "lambda"): ["0", "0.5", "1.5", "-1", "nan", "inf", "-inf", "1e19",
                        "1e300", "x", ""],
    ("sim", "horizon"): ["1", "20", "0", "-5", "1.5", "1e3", "x", ""],
    ("sim", "classes"): ["1", "3", "0", "-2", "1000", "1001", "x"],
    ("sim", "eps"): ["0.1", "0", "-0.5", "nan", "x"],
    ("sim", "extra_sequences"): ["2", "0", "-1", "10001", "x"],
    ("sim", "sample_every"): ["1", "7", "0", "-1", "x"],
    ("sim", "burn_in"): ["0", "3", "-1", "20", "99", "x"],
    ("sim", "k_values"): ["1 2", "2 0", "1 1001", "x", ""],
    ("sim", "bogus_key"): ["1"],
}


@pytest.fixture
def runner():
    return CliRunner()


def render(sections):
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   + "\n" for name, keys in sections.items())


def check(result, args):
    assert result.exit_code in (0, 2), (args, result.exit_code, result.output,
                                        result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.stderr


def simulate(runner, tmp_path, config: bytes, *extra):
    cfg = tmp_path / "fz.ini"
    cfg.write_bytes(config)
    args = ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
            *extra]
    result = runner.invoke(main, args)
    check(result, args)
    return result


def capacity(runner, spec):
    args = ["capacity", "--graph", spec]
    result = runner.invoke(main, args)
    check(result, args)
    return result


@pytest.mark.parametrize("doc", BAD_GRAPHS)
def test_graph_files(runner, tmp_path, doc):
    path = tmp_path / "g.txt"
    path.write_bytes(doc)
    capacity(runner, str(path))
    simulate(runner, tmp_path, render(BASE).encode(), "--graph", str(path))


@pytest.mark.parametrize("doc", BAD_FAMILIES)
def test_family_files(runner, tmp_path, doc):
    fam = tmp_path / "fam.txt"
    fam.write_bytes(doc)
    sections = {"experiment": dict(BASE["experiment"]),
                "sim": {**BASE["sim"], "time_model": "slotted-wireless",
                        "activation": f"file:{fam}"}}
    simulate(runner, tmp_path, render(sections).encode())


@pytest.mark.parametrize("spec", [
    "random(400000,1,1)", "random(99999999999999,0,0)", "random(0,0,0)",
    "random(2,5,1)", "random(3,2,-1)", "random(a,b,c)", "random(4,3)",
    "random(12,11,1)",
    "path0", "star1", "",
])
def test_graph_specs(runner, tmp_path, spec):
    capacity(runner, spec)
    simulate(runner, tmp_path, render(BASE).encode(), "--graph", spec)


@pytest.mark.parametrize("config, message", [
    (b"[experiment]\ngraph = diamond4\nname = run 100%\n\n"
     b"[sim]\nlambda = 1.0\nhorizon = 20\n", None),
    (b"[experiment]\ngraph = %(x)s\n\n[sim]\nlambda = 1.0\nhorizon = 20\n",
     "error: graph source '%(x)s'"),
    (b"[sim]\nlambda = 1.0\nhorizon = 20\n\xff\xfe\n", "error:"),
    (b"lambda = 1.0\n", "config parse error"),
    (b"[sim]\nlambda = 1.0\nlambda = 2.0\nhorizon = 20\n", "config parse error"),
    (b"[sim]\nlambda = 1.0\n[sim]\nhorizon = 20\n", "config parse error"),
    (b"[sim]\nlambda = 1.0\nhorizon\n", "config parse error"),
    # A huge horizon and a huge rate are rejected by validation or with
    # another bad key, never run.
    (b"[sim]\nlambda = -1\nhorizon = 1000000000000000000000000000000\n",
     "config error: arrival rate"),
    (b"[sim]\nlambda = 1e19\nhorizon = 20\n", "config error: arrival rate"),
    (b"[sim]\nlambda = 1.0\nhorizon = 1e12\n", "config error: bad value"),
    (b"[sim]\nlambda = 1.0\nhorizon = 20\nseeds = 1\n", "config error: unknown key"),
    (b"[sim]\npolicy = randomized\nlambda = 1.0\nhorizon = 20\neps = nan\n",
     "config error: eps must be positive"),
], ids=["percent", "interpolation-syntax", "bad-utf8", "no-section",
        "duplicate-key", "duplicate-section", "key-without-value",
        "huge-horizon", "huge-lambda", "float-horizon", "misplaced-key",
        "nan-eps"])
def test_config_files(runner, tmp_path, config, message):
    result = simulate(runner, tmp_path, config)
    if message is None:
        assert result.exit_code == 0, result.output
    else:
        assert result.exit_code == 2
        assert message in result.stderr


def test_huge_node_count_stops_at_validation(runner, tmp_path):
    # 26 nodes pass the graph's node cap and break the subset policies' cap.
    path = tmp_path / "g.txt"
    path.write_text("26 1 0\n0 1\n")
    result = simulate(runner, tmp_path, render(BASE).encode(), "--graph", str(path))
    assert result.exit_code == 2
    assert "capped at n=25" in result.stderr


@pytest.mark.parametrize("spec, message", [
    ("header", "node count must be at most 1000, got 1000000"),
    ("path1001", "node count must be at most 1000, got 1001"),
    ("star1000000", "node count must be at most 1000, got 1000000"),
    ("random(1001,1000,1)", "need 2 <= n <= 1000 nodes, got n=1001"),
    ("random(400000,400000,1)", "need 2 <= n <= 1000 nodes, got n=400000"),
    ("random(99999999999999,99999999999999,0)",
     "need 2 <= n <= 1000 nodes, got n=99999999999999"),
], ids=["header", "path", "star", "random", "random-huge", "random-huger"])
def test_node_count_over_the_cap_exits_2(runner, tmp_path, spec, message):
    """Graphs over the 1000-node cap are refused before any per-node work,
    whether the count comes from a file header, a builtin name or a random
    spec."""
    if spec == "header":
        spec = str(tmp_path / "g.txt")
        Path(spec).write_text("1000000 1 0\n0 1\n")
    for result in (capacity(runner, spec),
                   simulate(runner, tmp_path, render(BASE).encode(), "--graph", spec)):
        assert result.exit_code == 2
        assert f"error: {message}" in result.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, message", [
    ("classes", "1001", "multiclass policy needs 1 <= classes <= 1000, got 1001"),
    ("extra_sequences", "10001", "extra_sequences must lie in [1, 10000], got 10001"),
    ("k_values", "2 0", "k_values entries must lie in [1, 1000], got 0"),
    ("k_values", "1 1001", "k_values entries must lie in [1, 1000], got 1001"),
], ids=["classes", "extra_sequences", "k_values-zero", "k_values-over"])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_size_keys_over_the_cap_exit_2(runner, tmp_path, command, key, value, message):
    """Class counts and extra sequences over their caps are config errors
    raised before any run, so no output directory is made."""
    policy = "randomized" if key == "extra_sequences" else "multiclass"
    sections = {"experiment": dict(BASE["experiment"]),
                "sim": {**BASE["sim"], "policy": policy, key: value}}
    cfg = tmp_path / "fz.ini"
    cfg.write_text(render(sections))
    args = [command, "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
    result = runner.invoke(main, args)
    check(result, args)
    assert result.exit_code == 2
    assert f"config error: {message}" in result.stderr
    assert not (tmp_path / "out").exists()


GRAPH_TOKENS = st.sampled_from(["0", "1", "2", "3", "4", "-1", "x", "#", "1.5",
                                "", "\t"])
FAMILY_TOKENS = st.sampled_from(["-", "#", "0", "1", "2", "3", "5", "6", "-1",
                                 "x", ""])


def documents(tokens):
    lines = st.lists(tokens, max_size=4).map(" ".join)
    return st.lists(lines, max_size=8).map("\n".join)


@settings(max_examples=60, deadline=2000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=documents(GRAPH_TOKENS))
def test_generated_graph_files(runner, tmp_path, doc):
    path = tmp_path / "g.txt"
    path.write_text(doc)
    capacity(runner, str(path))
    simulate(runner, tmp_path, render(BASE).encode(), "--graph", str(path))


@settings(max_examples=60, deadline=2000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=documents(FAMILY_TOKENS))
def test_generated_family_files(runner, tmp_path, doc):
    fam = tmp_path / "fam.txt"
    fam.write_text(doc)
    sections = {"experiment": dict(BASE["experiment"]),
                "sim": {**BASE["sim"], "time_model": "slotted-wireless",
                        "activation": f"file:{fam}"}}
    simulate(runner, tmp_path, render(sections).encode())


@settings(max_examples=150, deadline=2000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_generated_ini_values(runner, tmp_path, data):
    sections = {"experiment": dict(BASE["experiment"]), "sim": dict(BASE["sim"])}
    for (section, key), pool in INI_VALUES.items():
        choice = data.draw(st.sampled_from([None, *pool]), label=f"{section}.{key}")
        if choice is not None:
            sections[section][key] = choice
    simulate(runner, tmp_path, render(sections).encode())
