"""Golden outputs: every preset, run once at its first seed, writes files
whose sha256 hashes are pinned here, and so do runs on a random graph: the
in-order policies, which no preset covers, max-weight, which the presets
run only on small fixed graphs where ties are rare, and the randomized
policy on a capacity-1 graph, where the preset's diamond has capacity 2.

A change meant to keep behaviour must pass unchanged. A change meant to alter
output re-pins the hashes and says so.
"""

import configparser
import hashlib
from pathlib import Path

import pytest
from click.testing import CliRunner

from bcastsim.cli import build_activation, main, resolve_graph
from bcastsim.sim import SimConfig, received_csv, run, run_csv

PRESETS = Path(__file__).resolve().parent.parent / "presets"

GOLDEN = {
    "d4-randomized": {
        "d4-randomized_seed2.csv":
            "bd360f77b67c2e35758fe85f8d78d6a838cfe4ed6f59ed624d00f6e9ea612db9",
        "d4-randomized_seed2_nodes.csv":
            "dc11a3dfb5e232dfb95cbb03b99e15c7630724b7b6651c6aa0a30e5654b56887",
        "d4-randomized_seed2_table.csv":
            "9e28ca53022aab145ccdfa3926dc52290411409b729ca9b3562cfdf25a11d634",
    },
    "d4-sweep": {
        "d4-sweep_sweep.csv":
            "0db2c5109e4d5508e03cb275cf600136efece24554ed44bf6bc5cf96ba33bff4",
    },
    "d4-wireless": {
        "d4-wireless_seed1.csv":
            "8422d96ca393fd082b9babd12e1dea0f1f5e02fa945b9cefd1de96e47a624ffc",
        "d4-wireless_seed1_nodes.csv":
            "b90493bda8987916fb0e7b755f3ace6813a9ac60adab10bfbadc30419bf2fc83",
    },
    "fig2": {
        "fig2_seed1.csv":
            "85e4e37a9d6e9999d20f124518d370a66c0283d29d6ffa621fb806f5037894e1",
        "fig2_seed1_nodes.csv":
            "c8d306fa0f60dc3d1090bb79752fa3313730008bda7f8e1c2e3b79972f446150",
    },
    "zero-arrivals": {
        "zero-arrivals_seed1.csv":
            "f7cac3e22fa86c9dff54fa455975b4733dc7534356aca385b056c83643ee0a33",
        "zero-arrivals_seed1_nodes.csv":
            "68c81dd33cc3f3866a521fb0c783d0363392a6c006cb0090ca5f8d624230bdb3",
    },
}


def test_every_preset_is_pinned():
    assert sorted(p.stem for p in PRESETS.glob("*.ini")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_preset_outputs_match(name, tmp_path):
    path = PRESETS / f"{name}.ini"
    parser = configparser.ConfigParser()
    parser.read(path)
    seed = parser["experiment"]["seeds"].split()[0]
    command = "sweep" if parser.has_option("sim", "k_values") else "simulate"
    result = CliRunner().invoke(main, [command, "--config", str(path),
                                       "--seed", seed, "--out-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert written == GOLDEN[name]


# (policy, classes, time model, lambda) on random(8,16,2), horizon 3000 at
# seed 5 -> sha256 of (run_csv, received_csv). The slotted runs use the
# primary-maximal family.
RANDOM_GRAPH_GOLDEN = {
    ("max-weight", 1, "mini-slot", 0.9): (
        "d0765c37d7c4693036829d8b86a667724d5110cac6939d78bf42dee0b2c013ad",
        "25121c59da0298c1d41ea40a01fd52be34474025065a46f99ba868e14df7a975"),
    ("max-weight", 1, "slotted-wireless", 0.3): (
        "1bcd3f246ad22eb587fe47b02b40dd1170db19c66f4dabc4686a23abe064e49a",
        "74536a4f03c3c3cb353bb6c3aa7a7596645cbe96f68f7fd5e4a6e21416594994"),
    ("multiclass", 4, "mini-slot", 0.7): (
        "135a6180383760c4d5f62e82000732a1185a531e1b74d2b294025c2189cfb715",
        "6d60d925080aabbc51f9bf32fbdbbdbcba32072924c6c429d8b0afd87d3827b9"),
    ("static-tree", 1, "mini-slot", 0.7): (
        "2be06591711c7ecdb57c93feb17c10aef70bc337686ba8aff2d76ccc176074c1",
        "15b41c0752a2d183dc2ed5d7c73cf1ec4295715f975da653eac84b2912448fb1"),
    ("multiclass", 3, "slotted-wireless", 0.25): (
        "f02e4d7c06f5a3f9354e8b964c17b83c5347814aed34c197e76c25cf6e9eb845",
        "3213c322601e595e1e3db70842f1445d93da71722209ba92527bc9864dfa070e"),
    # Capacity 1, so the sampler meets one-edge boundaries.
    ("randomized", 1, "mini-slot", 0.7): (
        "d2b929c78f4f807d346b1d19610f0584210aeaebe3f8ada44bfde1ca358a545a",
        "4e62c4ff6578072dbaa09554d54114c46ef632d4ce97bcd71779fe28ce1a1d3c"),
}


@pytest.mark.parametrize("key", sorted(RANDOM_GRAPH_GOLDEN),
                         ids=lambda key: "-".join(map(str, key)))
def test_random_graph_outputs_match(key):
    policy, classes, time_model, lam = key
    g = resolve_graph("random(8,16,2)")
    fam = (build_activation("primary-maximal", g)
           if time_model == "slotted-wireless" else None)
    cfg = SimConfig(lam=lam, horizon=3000, seed=5, policy=policy, classes=classes,
                    time_model=time_model, sample_every=100)
    result = run(cfg, g, fam)
    assert (hashlib.sha256(run_csv(result).encode()).hexdigest(),
            hashlib.sha256(received_csv(result).encode()).hexdigest()) == \
        RANDOM_GRAPH_GOLDEN[key]
