"""Golden outputs: every preset, run once at its first seed, writes files
whose sha256 hashes are pinned here.

A change meant to keep behaviour must pass unchanged. A change meant to alter
output re-pins the hashes and says so.
"""

import configparser
import hashlib
from pathlib import Path

import pytest
from click.testing import CliRunner

from bcastsim.cli import main

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
