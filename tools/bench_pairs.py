"""Benchmark two commits against each other in alternating pairs.

    python3 tools/bench_pairs.py --parent PARENT --change CHANGE \
        --pairs long-path=1501:1511 --pairs many-rounds=1511:1521 \
        --claim "what the change claims" --out BENCH_N.json

Both commits are exported with ``git archive`` into a temporary directory,
so uncommitted files and bytecode caches play no part.  For every seed of a
workload, ``perfbench/run.py --workload W --seed S --seconds 20 --trace 0``
(20 being ``run_seconds`` in ``BENCHMARK.json``) runs once in each export,
one after the other: the parent first on odd pairs and the change first on
even pairs.  The last line of each run's output is the perfbench JSON
result.

The output file holds the command, the procedure, the host, the claim, a
summary per workload and metric (median and quartiles per side, in how
many pairs the change was lower and higher, and a verdict; per workload,
each side's failed runs as ``failed/attempted``), the list of regressions
(see ``regressions``) and every raw run.  It is rewritten after every
pair, so an interrupted run keeps the pairs it finished.  SIGTERM exits
with status 143, killing the running perfbench child and removing both
exports first.

A metric's verdict, by its ``better`` direction and ``bound`` in
``BENCHMARK.json``: ``gain`` when the change is better in at least 9 of
every 10 pairs and its median beats the parent's by more than the parent's
interquartile range; ``regression`` when the change's median is worse than
the parent's by more than ``bound`` times the parent's median; otherwise
``unresolved``.  A metric with no bound is never a regression.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_pairs(spec: str) -> tuple[str, list[int]]:
    """``workload=lo:hi`` -> (workload, seeds lo..hi-1)."""
    try:
        workload, seeds = spec.split("=")
        lo, hi = map(int, seeds.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected workload=lo:hi, got {spec!r}") from None
    if hi <= lo:
        raise argparse.ArgumentTypeError(f"empty seed range in {spec!r}")
    return workload, list(range(lo, hi))


def commit_of(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", "--short", f"{rev}^{{commit}}"], cwd=ROOT,
                          check=True, capture_output=True, text=True).stdout.strip()


def export(commit: str, dest: Path) -> None:
    """Extract the committed tree of ``commit`` into ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench failed in {tree} ({workload}, seed {seed}):\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def load_spec() -> dict:
    """The benchmark's declaration, as ``BENCHMARK.json`` holds it."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def verdict(parent: list[float], change: list[float], better: str,
            bound: float | None) -> str:
    """``gain``, ``regression`` or ``unresolved`` for one metric's pairs."""
    sign = 1 if better == "lower" else -1  # sign * (parent - change) > 0: the change is better
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    before, after = quartiles(parent), quartiles(change)
    gap = sign * (before["median"] - after["median"])
    if 10 * wins >= 9 * len(parent) and gap > before["q3"] - before["q1"]:
        return "gain"
    if bound is not None and -gap > bound * abs(before["median"]):
        return "regression"
    return "unresolved"


def summarise(runs: list[dict], spec: dict | None = None) -> dict:
    """Per workload and metric: quartiles per side, the pair counts and,
    for a metric ``spec`` (BENCHMARK.json) declares, a verdict."""
    declared = {m["name"]: m for key in ("end_to_end", "per_layer")
                for m in (spec or {}).get(key, ())}
    summary: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["output"]
        whole = [p for p in pairs.values() if len(p) == 2]
        if not whole:
            continue
        out: dict = {}
        for metric in whole[0]["parent"]["metrics"]:
            values = {side: [p[side]["metrics"][metric]["value"] for p in whole]
                      for side in SIDES}
            lower = sum(c < p for p, c in zip(values["parent"], values["change"]))
            higher = sum(c > p for p, c in zip(values["parent"], values["change"]))
            out[metric] = {
                **{side: quartiles(values[side]) for side in SIDES},
                "change_lower_in_pairs": f"{lower}/{len(whole)}",
                "change_higher_in_pairs": f"{higher}/{len(whole)}",
            }
            if metric in declared:
                m = declared[metric]
                out[metric]["verdict"] = verdict(values["parent"], values["change"],
                                                 m["better"], m.get("bound"))
        for key in ("failed", "attempted"):
            out[key] = {side: sum(p[side][key] for p in whole) for side in SIDES}
        out["failed_share"] = {side: f"{out['failed'][side]}/{out['attempted'][side]}"
                               for side in SIDES}
        summary[workload] = out
    return summary


def regressions(summary: dict) -> list[str]:
    """Every (workload, metric) whose verdict is ``regression``, and every
    workload whose change side failed a larger share of its runs than the parent."""
    found = []
    for workload, out in summary.items():
        found += [f"{workload}: {metric}" for metric, m in out.items()
                  if isinstance(m, dict) and m.get("verdict") == "regression"]
        failed, attempted = out["failed"], out["attempted"]
        if failed["change"] * attempted["parent"] > failed["parent"] * attempted["change"]:
            found.append(f"{workload}: failed share {out['failed_share']['change']} > "
                         f"{out['failed_share']['parent']}")
    return found


def _exit_on_sigterm(signum: int, frame) -> None:
    """SIGTERM as SystemExit: ``subprocess.run`` kills the running perfbench
    child and ``TemporaryDirectory`` removes both exports on the way out."""
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="Parent commit (any git revision).")
    parser.add_argument("--change", required=True, help="Change commit (any git revision).")
    parser.add_argument("--pairs", type=parse_pairs, action="append", required=True,
                        metavar="WORKLOAD=LO:HI", help="A workload and its seeds lo..hi-1.")
    parser.add_argument("--claim", required=True, help="What the pairs are meant to show.")
    parser.add_argument("--out", required=True, help="JSON file to write.")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    spec = load_spec()
    seconds = spec["run_seconds"]

    commits = {"parent": commit_of(args.parent), "change": commit_of(args.change)}
    seeds = ", ".join(f"{w} {s[0]}-{s[-1]}" for w, s in args.pairs)
    doc = {
        "command": f"python3 perfbench/run.py --workload WORKLOAD --seed SEED "
                   f"--seconds {seconds:g} --trace 0",
        "procedure": (
            f"parent = commit {commits['parent']}, change = commit {commits['change']}; "
            f"made by tools/bench_pairs.py; each pair runs both sides one after the other, "
            f"each from a fresh git archive with no bytecode cache; parent first on odd pairs "
            f"and change first on even pairs of each workload; seeds {seeds}; quartiles are "
            f"statistics.quantiles(n=4, method='inclusive')"),
        "host": f"{os.cpu_count()}-core {platform.machine()} host, Python "
                f"{platform.python_version()}, PYTHONDONTWRITEBYTECODE=1",
        "claim": args.claim,
        "summary": {},
        "regressions": [],
        "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(commits[side], trees[side])
        for workload, workload_seeds in args.pairs:
            for i, seed in enumerate(workload_seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for k, side in enumerate(order):
                    output = run_perfbench(trees[side], workload, seed, seconds)
                    doc["runs"].append({"workload": workload, "seed": seed, "side": side,
                                        "ran_first": k == 0, "output": output})
                    ratio = output["metrics"]["run_time_vs_ref"]["value"]
                    print(f"{workload} seed {seed} {side}: run_time_vs_ref {ratio:.4f}",
                          flush=True)
                doc["summary"] = summarise(doc["runs"], spec)
                doc["regressions"] = regressions(doc["summary"])
                Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
