"""Command-line front end: capacity, trees, simulate, sweep.

Experiments are described by INI config files (see presets/) so runs are
reproducible from an archived config plus seeds. Exit codes: 0 success,
1 runtime/internal error, 2 usage or config error.
"""

from __future__ import annotations

import configparser
import os
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import click

from . import fixtures
from .errors import CapabilityError, ConstructionError, ParseError
from .graph import (Digraph, capacity_bottleneck, is_arborescence,
                    parse_graph, tree_packing)
from .sim import (MAX_CLASSES, SimConfig, random_digraph, received_csv, run,
                  run_csv, sweep_csv, sweep_k)
from .wireless import (parse_activation_family, primary_interference_family,
                       wireline_family)

EXIT_RUNTIME = 1
EXIT_USAGE = 2

_RANDOM_SPEC = re.compile(r"^random\((\d+),(\d+),(\d+)\)$")


class ConfigError(Exception):
    """Config validation failed; carries every message at once."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("\n".join(self.messages))


def resolve_graph(spec: str) -> Digraph:
    """Builtin name, random(n,m,seed), or an edge-list file path."""
    g = fixtures.by_name(spec)
    if g is not None:
        return g
    match = _RANDOM_SPEC.match(spec.replace(" ", ""))
    if match:
        n, m, seed = (int(x) for x in match.groups())
        return random_digraph(n, m, seed)
    path = Path(spec)
    if not path.is_file():
        raise FileNotFoundError(f"graph source '{spec}' is neither a builtin, "
                                f"a random(n,m,seed) spec, nor a file")
    return parse_graph(path.read_text())


@dataclass(frozen=True)
class Experiment:
    name: str
    graph_spec: str
    seeds: tuple[int, ...]
    sim: SimConfig
    activation: str | None
    k_values: tuple[int, ...] | None


def _parse_ints(raw: str) -> list[int]:
    return [int(tok) for tok in raw.split()]


# Every key a config section may hold, with its parser. The [sim] keys other
# than 'activation' and 'k_values' are SimConfig fields ('lambda' is 'lam'),
# and a field whose key is absent keeps SimConfig's default.
_SECTION_KEYS = {
    "experiment": {"graph": str, "name": str, "seeds": _parse_ints},
    "sim": {"lambda": float, "horizon": int, "time_model": str, "policy": str,
            "classes": int, "eps": float, "extra_sequences": int,
            "sample_every": int, "burn_in": int, "activation": str,
            "k_values": _parse_ints},
}


def load_experiment(path: Path, graph_override: str | None = None,
                    seed_override: int | None = None) -> Experiment:
    """Parse and validate a config file, collecting every error before
    raising ConfigError."""
    if not path.is_file():
        raise ConfigError([f"config file '{path}' not found"])
    # Values are read as written: a '%' is not an interpolation marker.
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(path.read_text())
    except configparser.Error as exc:
        raise ConfigError([f"config parse error: {exc}"]) from None

    errs: list[str] = []
    values: dict[str, dict] = {section: {} for section in _SECTION_KEYS}
    for section in parser.sections():
        known = _SECTION_KEYS.get(section, {})
        for key, raw in parser[section].items():
            if key not in known:
                errs.append(f"unknown key '{key}' in [{section}]")
                continue
            try:
                values[section][key] = known[key](raw)
            except ValueError:
                errs.append(f"bad value for '{key}': {raw!r}")
    exp, simsec = values["experiment"], values["sim"]

    if not parser.has_section("sim"):
        errs.append("missing [sim] section")
    graph_spec = graph_override or exp.get("graph")
    if not graph_spec:
        errs.append("no graph source (set [experiment] graph or pass --graph)")
    seeds = [seed_override] if seed_override is not None else exp.get("seeds", [1])
    if not seeds:
        errs.append("empty seed list")
    errs.extend(f"seed must be non-negative, got {s}" for s in seeds if s < 0)
    for key in ("lambda", "horizon"):
        if not parser.has_option("sim", key):
            errs.append(f"missing '{key}' in [sim]")

    activation = simsec.pop("activation", None)
    k_values = simsec.pop("k_values", None)
    errs.extend(f"k_values entries must lie in [1, {MAX_CLASSES}], got {k}"
                for k in k_values or () if not 1 <= k <= MAX_CLASSES)
    if "lambda" in simsec:
        simsec["lam"] = simsec.pop("lambda")
    # A missing or bad lambda or horizon is already reported; the stand-ins
    # let every other key still be validated.
    cfg = SimConfig(**{"lam": 0.0, "horizon": 1, **simsec})
    errs.extend(cfg.validation_errors())
    if cfg.time_model == "slotted-wireless" and activation is None:
        errs.append("slotted-wireless mode needs an 'activation' entry")
    elif cfg.time_model != "slotted-wireless" and activation is not None:
        errs.append("activation family only applies to slotted-wireless mode")
    if errs:
        raise ConfigError(errs)
    return Experiment(exp.get("name", path.stem), graph_spec, tuple(seeds), cfg,
                      activation, tuple(k_values) if k_values else None)


def build_activation(spec: str, g: Digraph):
    if spec == "wireline":
        return wireline_family(g.m)
    if spec in ("primary", "primary-maximal"):
        return primary_interference_family(g)
    if spec.startswith("file:"):
        path = Path(spec[len("file:"):])
        if not path.is_file():
            raise FileNotFoundError(f"activation family file '{path}' not found")
        return parse_activation_family(path.read_text(), g.m)
    raise ConfigError([f"unknown activation spec '{spec}'"])


def _guard(body):
    try:
        body()
    except ConfigError as exc:
        for msg in exc.messages:
            click.echo(f"config error: {msg}", err=True)
        sys.exit(EXIT_USAGE)
    except BrokenPipeError:
        # The reader closed stdout (``| head``): point it at devnull, so the
        # flush at exit cannot fail again, and end quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_RUNTIME)
    except (ParseError, ConstructionError, CapabilityError, ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    except RuntimeError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_RUNTIME)


@click.group()
def main():
    """Broadcast capacity and scheduling-policy simulator."""


@main.command()
@click.option("--graph", "graph_spec", required=True,
              help="Builtin name, random(n,m,seed), or edge-list file.")
def capacity(graph_spec):
    """Print the broadcast capacity and one bottleneck sink."""

    def body():
        g = resolve_graph(graph_spec)
        value, sink = capacity_bottleneck(g)
        click.echo(f"broadcast capacity: {value}")
        click.echo(f"bottleneck sink: {sink}")

    _guard(body)


@main.command()
@click.option("--graph", "graph_spec", required=True,
              help="Builtin name, random(n,m,seed), or edge-list file.")
def trees(graph_spec):
    """Print a packing of edge-disjoint spanning trees rooted at the source."""

    def body():
        g = resolve_graph(graph_spec)
        packing = tree_packing(g)
        if any(not is_arborescence(g, t.edge_ids) for t in packing):
            raise RuntimeError("internal error: packing failed validation")
        used: set[int] = set()
        for t in packing:
            if used & t.edge_set:
                raise RuntimeError("internal error: packing is not edge-disjoint")
            used |= t.edge_set
        if not packing:
            click.echo("no trees (broadcast capacity is 0)")
            return
        plural = "s" if len(packing) != 1 else ""
        click.echo(f"{len(packing)} edge-disjoint spanning tree{plural}:")
        for idx, t in enumerate(packing):
            edges = " ".join(f"{eid}:{g.edges[eid][0]}->{g.edges[eid][1]}"
                             for eid in t.edge_ids)
            click.echo(f"tree {idx}: {edges}")

    _guard(body)


def _common_run_options(fn):
    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(path_type=Path),
                      help="INI experiment config.")(fn)
    fn = click.option("--graph", "graph_spec", default=None,
                      help="Override the config's graph source.")(fn)
    fn = click.option("--out-dir", default=".", type=click.Path(path_type=Path),
                      help="Directory for CSV artifacts.")(fn)
    fn = click.option("--seed", default=None, type=int,
                      help="Run a single seed instead of the config's list.")(fn)
    return fn


@main.command()
@_common_run_options
def simulate(config_path, graph_spec, out_dir, seed):
    """Run the configured policy once per seed and write time-series CSVs."""

    def body():
        exp = load_experiment(config_path, graph_spec, seed)
        g = resolve_graph(exp.graph_spec)
        # The family can be exponential in the graph: check the graph first.
        if errs := exp.sim.graph_errors(g):
            raise ConfigError(errs)
        fam = build_activation(exp.activation, g) if exp.activation else None
        out_dir.mkdir(parents=True, exist_ok=True)
        for s in exp.seeds:
            result = run(replace(exp.sim, seed=s), g, fam)
            base = out_dir / f"{exp.name}_seed{s}"
            base.with_suffix(".csv").write_text(run_csv(result))
            Path(f"{base}_nodes.csv").write_text(received_csv(result))
            if result.rand_table is not None:
                table_path = Path(f"{base}_table.csv")
                table_path.write_text("\n".join(result.rand_table.csv_rows()) + "\n")
            click.echo(f"seed {s}: rate {result.rate:.6f}")

    _guard(body)


@main.command()
@_common_run_options
def sweep(config_path, graph_spec, out_dir, seed):
    """Sweep the multiclass policy over k_values and write a k,rate CSV.

    The runs are mini-slot runs at the config's first seed."""

    def body():
        exp = load_experiment(config_path, graph_spec, seed)
        if exp.sim.policy != "multiclass":
            raise ConfigError(["sweep requires policy = multiclass"])
        if not exp.k_values:
            raise ConfigError(["sweep requires a k_values list in [sim]"])
        if exp.sim.time_model != "mini-slot":
            raise ConfigError(["sweep runs in mini-slot mode"])
        g = resolve_graph(exp.graph_spec)
        if errs := exp.sim.graph_errors(g):
            raise ConfigError(errs)
        out_dir.mkdir(parents=True, exist_ok=True)
        rows = sweep_k(g, exp.sim.lam, exp.k_values, exp.sim.horizon,
                       exp.seeds[0], exp.sim.sample_every, burn_in=exp.sim.burn_in)
        out_path = out_dir / f"{exp.name}_sweep.csv"
        out_path.write_text(sweep_csv(rows))
        for k, rate in rows:
            click.echo(f"k {k}: rate {rate:.6f}")

    _guard(body)


if __name__ == "__main__":
    main()
