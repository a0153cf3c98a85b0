"""Experiment driver: configuration, run matrix execution, verdicts, reports.

A run report's verdicts (validity, pairwise output distance) are always
recomputed from the honest inputs and outputs with the tree oracles; the
protocol under test never grades itself.  Validity asks
``LabeledTree.hull_contains`` whether each distinct output lies in the
honest inputs' hull, by LCA queries, so the hull itself is never built.
"""

from __future__ import annotations

import csv
import io
import json
import random
import zlib
from dataclasses import dataclass, field, fields
from pathlib import Path as FilePath
from typing import Any, Sequence

from . import bounds
from .adversaries import context_for_tree, make_adversary, strategy
from .errors import InvalidParams
from .generators import KINDS, generate_tree
from .tree_aa import protocol, run_final_tree_aa, run_tree_aa_old
from .trees import LabeledTree, parse_tree


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class ExperimentConfig:
    tree_source: str  # "kind:size[:seed]" generator spec or a file path
    n: int
    t: int
    inputs: str | Sequence[str] = "random"  # "random" | "endpoints" | explicit labels
    adversary: str = "silent"
    seeds: Sequence[int] = (0,)
    mode: str = "final"
    out_format: str = "json"
    emit_transcripts: str | None = None

    def __post_init__(self):
        # A JSON config can hold any type; refuse wrong ones before they are used.
        for name in ("n", "t"):
            if not _is_int(getattr(self, name)):
                raise InvalidParams(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not isinstance(self.seeds, (list, tuple)) or not all(map(_is_int, self.seeds)):
            raise InvalidParams(f"seeds must be a list of integers, got {self.seeds!r}")
        for name in ("tree_source", "adversary", "mode", "out_format"):
            if not isinstance(getattr(self, name), str):
                raise InvalidParams(f"{name} must be a string, got {getattr(self, name)!r}")
        if not (isinstance(self.inputs, str) or isinstance(self.inputs, (list, tuple))
                and all(isinstance(label, str) for label in self.inputs)):
            raise InvalidParams(f"inputs must be a string or a list of labels, got {self.inputs!r}")
        if not (self.emit_transcripts is None or isinstance(self.emit_transcripts, str)):
            raise InvalidParams(f"emit_transcripts must be a directory name, got {self.emit_transcripts!r}")
        bounds.check_resilience(self.n, self.t)
        protocol(self.mode)  # InvalidParams for an unknown mode
        strategy(self.adversary)  # and for an unknown adversary
        if self.out_format not in ("json", "csv"):
            raise InvalidParams(f"format must be json or csv, got {self.out_format!r}")
        if not self.seeds:
            raise InvalidParams("need at least one seed")

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise InvalidParams(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


@dataclass
class RunReport:
    seed: int
    mode: str
    n: int
    t: int
    tree_kind: str
    vertices: int
    diameter: int
    rounds: int
    lb_rounds: int
    max_dist: int
    valid: bool
    honest: tuple[int, ...] = ()
    outputs: dict[int, str] = field(default_factory=dict)
    transcript_path: str | None = None

    def to_dict(self) -> dict[str, Any]:
        row = {f.name: getattr(self, f.name) for f in fields(self)}
        row["honest"] = list(self.honest)
        row["outputs"] = {str(pid): label for pid, label in self.outputs.items()}
        return row


_FIELDS = tuple(f.name for f in fields(RunReport))
CSV_COLUMNS = _FIELDS[:_FIELDS.index("valid") + 1]  # the rest are JSON only


def resolve_tree(source: str) -> tuple[LabeledTree, str]:
    """A tree plus its short kind string, from a generator spec or a file."""
    parts = source.split(":")
    if parts[0] in KINDS:
        fields = parts[1:] if len(parts) == 3 else parts[1:] + ["0"]
        try:
            size, seed = map(int, fields)
        except ValueError:  # not two or three fields, or a field is no integer
            raise InvalidParams(
                f"generator spec must be kind:size[:seed] with integers, got {source!r}") from None
        kind = f"{parts[0]}({size})" if parts[0] != "random" or seed == 0 else f"random({size},{seed})"
        return generate_tree(parts[0], size, seed), kind
    path = FilePath(source)
    if not path.exists():
        raise InvalidParams(f"tree file {source!r} does not exist")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, not UTF-8
        raise InvalidParams(f"cannot read tree file {source!r}: {exc}") from None
    return parse_tree(text), path.name


def assign_inputs(tree: LabeledTree, n: int, spec: str | Sequence[str],
                  rng: random.Random) -> dict[int, str]:
    """Input vertex per party id, from an assignment spec."""
    if isinstance(spec, str) and spec == "random":
        pool = sorted(tree.vertices)
        return {pid: rng.choice(pool) for pid in range(1, n + 1)}
    if isinstance(spec, str) and spec == "endpoints":
        a, b = tree.diameter_endpoints
        return {pid: a if pid % 2 else b for pid in range(1, n + 1)}
    labels = spec.split(",") if isinstance(spec, str) else list(spec)
    for label in labels:
        if label not in tree:
            raise InvalidParams(f"input {label!r} is not a vertex of the tree")
    if not labels:
        raise InvalidParams("empty explicit input list")
    return {pid: labels[(pid - 1) % len(labels)] for pid in range(1, n + 1)}


def run_one(tree: LabeledTree, tree_kind: str, n: int, t: int, mode: str,
            adversary_name: str, inputs: dict[int, str], seed: int,
            emit_dir: str | None = None) -> RunReport:
    """Execute one protocol run and grade it with the tree oracles."""
    ctx = context_for_tree(tree, n, t, mode)  # InvalidParams for an unknown mode
    # Module globals looked up per call, so a wrapper installed on either is seen.
    runner = run_final_tree_aa if mode == "final" else run_tree_aa_old
    adversary = make_adversary(adversary_name, ctx)
    outputs, transcript, _ = runner(tree, n, t, inputs, adversary, seed)

    honest = tuple(sorted(outputs))
    labels = [outputs[pid] for pid in honest]
    valid = tree.hull_contains([inputs[pid] for pid in honest], labels)
    lb = bounds.lb_rounds(n, t, float(tree.diameter)) if t >= 1 and tree.diameter > 1 else 0
    transcript_path = None
    if emit_dir is not None:
        out = FilePath(emit_dir)
        labels_crc = zlib.crc32("\n".join(inputs[pid] for pid in sorted(inputs)).encode())
        name = (f"{mode}-{tree_kind.replace('(', '-').rstrip(')')}-n{n}-t{t}-{adversary_name}"
                f"-s{seed}-{labels_crc:08x}.jsonl")
        target = out / name
        try:
            out.mkdir(parents=True, exist_ok=True)
            target.write_text(transcript.to_jsonl(), encoding="utf-8")
        except OSError as exc:  # emit_dir is a file, or not writable
            raise InvalidParams(f"cannot write transcripts to {emit_dir!r}: {exc}") from None
        transcript_path = str(target)
    return RunReport(
        seed=seed,
        mode=mode,
        n=n,
        t=t,
        tree_kind=tree_kind,
        vertices=len(tree),
        diameter=tree.diameter,
        rounds=transcript.rounds_used,
        lb_rounds=lb,
        max_dist=max_distance(tree, labels),
        valid=valid,
        honest=honest,
        outputs=dict(sorted(outputs.items())),
        transcript_path=transcript_path,
    )


def max_distance(tree: LabeledTree, labels: Sequence[str]) -> int:
    """The largest tree distance between two of ``labels``, by two farthest-point
    passes over the distinct ones: in a tree, the label farthest from any
    label is an end of a farthest pair."""
    distinct = list(dict.fromkeys(labels))
    if len(distinct) <= 2:
        return tree.distance(distinct[0], distinct[1]) if len(distinct) == 2 else 0
    far = max(distinct[1:], key=lambda v: tree.distance(distinct[0], v))
    return max(tree.distance(far, v) for v in distinct if v != far)


def run_experiment(cfg: ExperimentConfig) -> list[RunReport]:
    """One report per seed, in seed order."""
    tree, kind = resolve_tree(cfg.tree_source)
    reports = []
    for seed in cfg.seeds:
        rng = random.Random(f"inputs:{seed}")
        inputs = assign_inputs(tree, cfg.n, cfg.inputs, rng)
        reports.append(
            run_one(tree, kind, cfg.n, cfg.t, cfg.mode, cfg.adversary, inputs, seed,
                    cfg.emit_transcripts)
        )
    return reports


def emit_report(reports: Sequence[RunReport], out_format: str) -> str:
    """Render reports as a CSV or JSON document."""
    if not reports:
        raise InvalidParams("no reports to emit")
    if out_format == "csv":
        out = io.StringIO()
        # Python 3.11 quotes a field holding a terminator character, so "\r\n"
        # makes it quote a bare "\r" as well; each row then ends in "\n" alone.
        writer = csv.writer(out, lineterminator="\r\n")
        for row in [CSV_COLUMNS, *([getattr(r, name) for name in CSV_COLUMNS] for r in reports)]:
            writer.writerow(str(v).lower() if isinstance(v, bool) else v for v in row)
            out.seek(out.tell() - 2)
            out.write("\n")
            out.truncate()
        return out.getvalue()
    if out_format == "json":
        return json.dumps([r.to_dict() for r in reports], indent=2) + "\n"
    raise InvalidParams(f"format must be json or csv, got {out_format!r}")


def all_good(reports: Sequence[RunReport]) -> bool:
    """The CLI success criterion: every report valid with 1-close outputs."""
    return all(r.valid and r.max_dist <= 1 for r in reports)
