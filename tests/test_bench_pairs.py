import argparse
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
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
