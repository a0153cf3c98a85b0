"""Command line driver: run experiments, generate trees, evaluate bounds."""

from __future__ import annotations

import json
import sys
from pathlib import Path as FilePath

import click

from . import bounds as bounds_mod
from .adversaries import REGISTRY
from .errors import TreeAAError
from .generators import KINDS, generate_tree
from .harness import ExperimentConfig, all_good, emit_report, run_experiment
from .tree_aa import MACHINES


def _parse_seeds(ctx, param, spec: str | None) -> list[int] | None:
    """--seeds callback: "lo:hi" or a comma list; a usage error otherwise."""
    if spec is None:
        return None
    try:
        if ":" in spec:
            lo, hi = spec.split(":", 1)
            return list(range(int(lo), int(hi)))
        return [int(s) for s in spec.split(",")]
    except ValueError:
        raise click.BadParameter(f'expected "lo:hi" or a comma list, got {spec!r}') from None


def _write(path: str, text: str) -> None:
    """Write an --out file; an unwritable path is the CLI's error, not a traceback."""
    try:
        FilePath(path).write_text(text, encoding="utf-8")
    except OSError as exc:  # a missing directory, a directory, no permission
        raise click.ClickException(f"cannot write {path!r}: {exc}") from None


@click.group()
def main():
    """Byzantine approximate agreement on trees."""


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              help="JSON file mirroring the experiment config; flags override it.")
@click.option("--tree", "tree_file", type=click.Path(exists=True, dir_okay=False),
              help="Edge-list file for the input space tree.")
@click.option("--gen", "gen_spec", help="Generator spec kind:size[:seed], e.g. path:1000.")
@click.option("--n", "n", type=int, help="Number of parties.")
@click.option("--t", "t", type=int, help="Corruption budget (t < n/3).")
@click.option("--inputs", default=None,
              help='"random", "endpoints", or comma-separated vertex labels.')
@click.option("--adversary", type=click.Choice(sorted(REGISTRY)), default=None)
@click.option("--seeds", default=None, callback=_parse_seeds,
              help='Range "lo:hi" or comma list, default "0:10".')
@click.option("--mode", type=click.Choice(sorted(MACHINES)), default=None)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), help="Report file.")
@click.option("--format", "out_format", type=click.Choice(["json", "csv"]), default=None)
@click.option("--emit-transcripts", "emit_transcripts",
              type=click.Path(file_okay=False), default=None,
              help="Directory receiving one replayable transcript per seed.")
def run(config_path, tree_file, gen_spec, out_path, **flags):
    """Run a protocol experiment; exit 0 iff every run was valid and 1-close."""
    data: dict = {}
    if config_path:
        try:
            data = json.loads(FilePath(config_path).read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise click.BadParameter(f"not a JSON document: {exc}", param_hint="--config") from None
        if not isinstance(data, dict):
            raise click.BadParameter("the top level must be a JSON object", param_hint="--config")
    if tree_file and gen_spec:
        raise click.UsageError("--tree and --gen are mutually exclusive")
    # Every other flag is named after the config key it sets; an empty tree source is absent.
    flags["tree_source"] = tree_file or gen_spec or None
    data.update((key, value) for key, value in flags.items() if value is not None)
    data.setdefault("seeds", list(range(10)))
    for key in ("tree_source", "n", "t"):
        if key not in data:
            raise click.UsageError(f"missing required option for {key}")
    try:
        cfg = ExperimentConfig.from_dict(data)
        reports = run_experiment(cfg)
    except TreeAAError as exc:
        raise click.ClickException(str(exc)) from exc
    document = emit_report(reports, cfg.out_format)
    if out_path:
        _write(out_path, document)
        click.echo(f"wrote {len(reports)} reports to {out_path}")
    else:
        click.echo(document, nl=False)
    sys.exit(0 if all_good(reports) else 1)


@main.command("gen-tree")
@click.option("--kind", type=click.Choice(KINDS), required=True)
@click.option("--size", type=int, required=True)
@click.option("--seed", type=int, default=0)
@click.option("--out", "out_path", type=click.Path(dir_okay=False))
def gen_tree(kind, size, seed, out_path):
    """Emit a generated tree as an edge-list document."""
    try:
        tree = generate_tree(kind, size, seed)
    except TreeAAError as exc:
        raise click.ClickException(str(exc)) from exc
    if len(tree) == 1:
        text = next(iter(tree.vertices)) + "\n"
    else:
        text = "".join(f"{a} {b}\n" for a, b in sorted(tree.edges()))
    if out_path:
        _write(out_path, text)
        click.echo(f"wrote {len(tree)} vertices to {out_path}")
    else:
        click.echo(text, nl=False)


@main.command("bounds")
@click.option("--n", type=int, required=True)
@click.option("--t", type=int, required=True)
@click.option("--d", type=float, required=True, help="Input diameter.")
@click.option("--r", type=int, default=None,
              help="Round count for the divergence bounds; defaults to lb-rounds.")
def bounds_cmd(n, t, d, r):
    """Evaluate the divergence bounds and the minimum-rounds function."""
    try:
        lb = bounds_mod.lb_rounds(n, t, d)
        rr = r if r is not None else lb
        doc = {
            "n": n,
            "t": t,
            "d": d,
            "r": rr,
            "lb_rounds": lb,
            "k_bound": bounds_mod.k_bound(n, t, rr, d),
            "k_bound_simple": bounds_mod.k_bound_simple(n, t, rr, d),
        }
    except TreeAAError as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(json.dumps(doc, indent=2))


if __name__ == "__main__":
    main()
