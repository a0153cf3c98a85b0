import argparse
import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def run(workload, seed, side, ratio, failed=0):
    return {"workload": workload, "seed": seed, "side": side, "ran_first": side == "parent",
            "output": {"correct": not failed, "attempted": 10, "failed": failed,
                       "metrics": {"run_time_vs_ref": {"value": ratio, "unit": "ratio"}}}}


def test_parse_pairs():
    assert bench_pairs.parse_pairs("long-path=3:6") == ("long-path", [3, 4, 5])
    for bad in ("long-path", "long-path=3", "long-path=a:b", "long-path=6:6"):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_pairs.parse_pairs(bad)


def test_summary_counts_wins_per_pair_and_skips_a_lone_run():
    runs = [run("w", 1, "parent", 0.5), run("w", 1, "change", 0.4),
            run("w", 2, "change", 0.45), run("w", 2, "parent", 0.6, failed=1),
            run("w", 3, "parent", 0.4), run("w", 3, "change", 0.4),
            run("w", 4, "parent", 0.1)]  # its change run never finished
    summary = bench_pairs.summarise(runs)["w"]
    ratio = summary["run_time_vs_ref"]
    assert ratio["change_lower_in_pairs"] == "2/3"
    assert ratio["change_higher_in_pairs"] == "0/3"  # a tie counts for neither side
    assert ratio["parent"] == {"median": 0.5, "q1": 0.45, "q3": 0.55}
    assert ratio["change"]["median"] == 0.4
    assert summary["failed"] == {"parent": 1, "change": 0}
    assert summary["attempted"] == {"parent": 30, "change": 30}
    assert summary["failed_share"] == {"parent": "1/30", "change": "0/30"}


PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # IQR 0.045


@pytest.mark.parametrize("change, better, bound, expected", [
    ([p - 0.1 for p in PARENT], "lower", 0.15, "gain"),
    ([p - 0.1 for p in PARENT[:9]] + [1.2], "lower", 0.15, "gain"),  # 9 of 10 pairs
    ([p - 0.1 for p in PARENT[:8]] + [1.2, 1.2], "lower", 0.15, "unresolved"),  # 8 of 10
    ([p - 0.04 for p in PARENT], "lower", 0.15, "unresolved"),  # every pair, gap under the IQR
    ([p + 0.1 for p in PARENT], "higher", None, "gain"),
    ([p + 0.1 for p in PARENT], "lower", 0.15, "unresolved"),  # worse, inside the bound
    ([p + 0.2 for p in PARENT], "lower", 0.15, "regression"),  # 0.2 > 0.15 * 1.045
    ([p + 0.2 for p in PARENT], "lower", None, "unresolved"),  # no bound, never a regression
    ([p - 0.2 for p in PARENT], "higher", 0.15, "regression"),
    (PARENT, "lower", 0.0, "unresolved"),  # equal in every pair
])
def test_verdict(change, better, bound, expected):
    assert bench_pairs.verdict(PARENT, change, better, bound) == expected


def test_the_bound_is_relative_to_the_parent_median():
    small = [p / 10 for p in PARENT]  # median 0.1045
    assert bench_pairs.verdict(small, [p + 0.02 for p in small], "lower", 0.15) == "regression"
    assert bench_pairs.verdict(small, [p + 0.01 for p in small], "lower", 0.15) == "unresolved"


def test_summary_gives_a_verdict_to_each_declared_metric():
    runs = []
    for seed, p in enumerate(PARENT):
        for side, ratio in (("parent", p), ("change", p - 0.1)):
            r = run("w", seed, side, ratio)
            r["output"]["metrics"]["peak_mb"] = {"value": 2.0 if side == "parent" else 2.6,
                                                 "unit": "MB"}
            r["output"]["metrics"]["undeclared"] = {"value": 1.0, "unit": "count"}
            runs.append(r)
    summary = bench_pairs.summarise(runs, bench_pairs.load_spec())["w"]
    assert summary["run_time_vs_ref"]["verdict"] == "gain"
    assert summary["peak_mb"]["verdict"] == "regression"  # 2.6 > 2.0 * (1 + 0.25)
    assert "verdict" not in summary["undeclared"]


def test_regressions_name_each_regressed_metric_and_a_larger_failed_share():
    runs = []
    for seed, p in enumerate(PARENT):
        runs += [run("quiet", seed, "parent", p), run("quiet", seed, "change", p),
                 run("worse", seed, "parent", p), run("worse", seed, "change", p + 0.2, failed=1)]
    summary = bench_pairs.summarise(runs, bench_pairs.load_spec())
    assert bench_pairs.regressions(summary) == [
        "worse: run_time_vs_ref", "worse: failed share 10/100 > 0/100"]


@pytest.mark.parametrize("change_failed, expected", [
    (1, []),  # 1/20 is the parent's 2/40
    (2, ["w: failed share 2/20 > 2/40"]),
])
def test_the_failed_share_is_compared_as_a_share(change_failed, expected):
    parent_failed = {0: 1, 1: 1}
    runs = [run("w", seed, side, 0.5, failed=change_failed * (seed == 0) if side == "change"
                else parent_failed.get(seed, 0))
            for seed in range(4) for side in ("parent", "change")]
    for r in runs:
        if r["side"] == "change":
            r["output"]["attempted"] = 5  # half of the parent's 10
    summary = bench_pairs.summarise(runs)
    assert bench_pairs.regressions(summary) == expected


# main with git and perfbench stubbed: its one perfbench child writes its pid, then sleeps.
STUBBED_MAIN = """
import importlib.util, subprocess, sys
spec = importlib.util.spec_from_file_location("bench_pairs", sys.argv[1])
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
bench_pairs.commit_of = lambda rev: rev
bench_pairs.export = lambda commit, dest: dest.mkdir(parents=True)

def run_perfbench(tree, workload, seed, seconds):
    sleeper = "import os, sys, time; open(sys.argv[1], 'w').write(str(os.getpid())); time.sleep(60)"
    subprocess.run([sys.executable, "-c", sleeper, sys.argv[2]], capture_output=True)
    raise AssertionError("the sleeper was not killed")

bench_pairs.run_perfbench = run_perfbench
sys.exit(bench_pairs.main(["--parent", "a", "--change", "b", "--pairs", "w=1:2",
                           "--claim", "none", "--out", sys.argv[3]]))
"""


def test_sigterm_kills_the_perfbench_child_and_removes_the_exports(tmp_path):
    tmp, pid_file = tmp_path / "tmp", tmp_path / "child.pid"
    tmp.mkdir()
    proc = subprocess.Popen(
        [sys.executable, "-c", STUBBED_MAIN, str(TOOL), str(pid_file), str(tmp_path / "out.json")],
        env={**os.environ, "TMPDIR": str(tmp)})
    child = None
    try:
        deadline = time.monotonic() + 30
        while not (pid_file.exists() and pid_file.read_text()):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        child = int(pid_file.read_text())
        assert [p.name for p in tmp.iterdir()][0].startswith("bench_pairs_")
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
        with pytest.raises(ProcessLookupError):  # killed and reaped
            os.kill(child, 0)
        assert not list(tmp.glob("bench_pairs_*"))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if child is not None:
            try:
                os.kill(child, signal.SIGKILL)
            except ProcessLookupError:
                pass
