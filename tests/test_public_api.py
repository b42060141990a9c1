"""The package's public surface: ``bcastsim.__all__`` and the README's
library example, which must keep running as documented."""

import re
from pathlib import Path

import bcastsim
from bcastsim.cli import build_activation, load_experiment, resolve_graph

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_is_the_documented_surface():
    assert set(bcastsim.__all__) == {
        # The README library example.
        "SimConfig", "broadcast_capacity", "run", "tree_packing",
        # The types those names take or return.
        "Digraph", "Arborescence", "RunResult", "Sample",
        # Errors.
        "CapabilityError", "ConstructionError", "ParseError", "SchedulingError",
        # Graph input, capacity witness, random graphs, sweeps and rates.
        "parse_graph", "capacity_bottleneck", "random_digraph", "sweep_k",
        "broadcast_rate",
    }
    assert all(hasattr(bcastsim, name) for name in bcastsim.__all__)


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert abs(float(capsys.readouterr().out) - 1.95) < 0.1


def test_readme_config_block_loads(tmp_path):
    """The block loads and passes the checks ``simulate`` runs on the graph
    and activation family it would build."""
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    path = tmp_path / "readme.ini"
    path.write_text(blocks[0])
    exp = load_experiment(path)
    g = resolve_graph(exp.graph_spec)
    fam = build_activation(exp.activation, g) if exp.activation else None
    assert exp.sim.validation_errors(g, fam) == []
