import csv
import io
import json
import runpy
import struct
import sys
import time

import pytest
from click.testing import CliRunner

from treeaa import harness, parse_tree
from treeaa.cli import main


def test_run_reports_csv(tmp_path):
    runner = CliRunner()
    out = tmp_path / "report.csv"
    result = runner.invoke(main, [
        "run", "--gen", "star:6", "--n", "4", "--t", "1", "--inputs", "v1",
        "--adversary", "silent", "--seeds", "0:3", "--mode", "final",
        "--format", "csv", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("seed,mode,n,t,tree_kind")
    assert len(lines) == 4


def test_run_exit_code_reflects_verdicts(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, [
        "run", "--gen", "path:8", "--n", "4", "--t", "1", "--inputs", "endpoints",
        "--adversary", "split-world", "--seeds", "0,1", "--format", "json",
    ])
    assert result.exit_code == 0, result.output
    reports = json.loads(result.output)
    assert len(reports) == 2
    assert all(rep["valid"] and rep["max_dist"] <= 1 for rep in reports)


def test_run_rejects_bad_threshold():
    runner = CliRunner()
    result = runner.invoke(main, [
        "run", "--gen", "path:8", "--n", "6", "--t", "2",
    ])
    assert result.exit_code != 0
    assert "n/3" in result.output


def test_run_rejects_malformed_seeds():
    runner = CliRunner()
    for seeds in ("x", "1:x", "0,,2"):
        result = runner.invoke(main, [
            "run", "--gen", "path:8", "--n", "4", "--t", "1", "--seeds", seeds,
        ])
        assert result.exit_code == 2, result.output
        assert "--seeds" in result.output
        assert not isinstance(result.exception, ValueError)


def test_run_with_config_file(tmp_path):
    cfg = {
        "tree_source": "star:5",
        "n": 4,
        "t": 1,
        "inputs": "random",
        "adversary": "equivocator",
        "seeds": [0, 1, 2],
        "mode": "legacy",
        "out_format": "json",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    runner = CliRunner()
    result = runner.invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 0, result.output
    assert len(json.loads(result.output)) == 3


def test_run_flags_override_config_values(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tree_source": "path:6", "n": 7, "t": 2}), encoding="utf-8")
    result = CliRunner().invoke(main, ["run", "--config", str(path), "--t", "1"])
    assert result.exit_code == 0, result.output
    reports = json.loads(result.output)
    assert [rep["seed"] for rep in reports] == list(range(10))  # the CLI's default seeds
    assert all(rep["t"] == 1 and rep["n"] == 7 for rep in reports)


def test_run_empty_generator_spec_counts_as_absent():
    result = CliRunner().invoke(main, ["run", "--gen", "", "--n", "4", "--t", "1"])
    assert result.exit_code == 2, result.output
    assert "missing required option for tree_source" in result.output


def test_run_csv_quotes_a_tree_file_name_with_a_comma(tmp_path):
    doc = tmp_path / "my,tree.txt"
    doc.write_text("a b\nb c\nc d\n", encoding="utf-8")
    result = CliRunner().invoke(main, [
        "run", "--tree", str(doc), "--n", "4", "--t", "1", "--seeds", "0:3", "--format", "csv",
    ])
    assert result.exit_code == 0, result.output
    header, *rows = csv.reader(result.output.splitlines())
    assert header == ["seed", "mode", "n", "t", "tree_kind", "vertices", "diameter",
                      "rounds", "lb_rounds", "max_dist", "valid"]
    assert len(rows) == 3
    for row in rows:
        assert len(row) == 11
        assert dict(zip(header, row))["tree_kind"] == "my,tree.txt"


@pytest.mark.parametrize("name", ["my\rtree.txt", "cr\r\nlf.txt", 'q"uote.txt'])
def test_run_csv_reads_back_whatever_the_tree_file_is_named(tmp_path, name):
    doc = tmp_path / name
    doc.write_text("a b\nb c\nc d\n", encoding="utf-8")
    out = tmp_path / "report.csv"
    result = CliRunner().invoke(main, [
        "run", "--tree", str(doc), "--n", "4", "--t", "1", "--seeds", "0:3", "--format", "csv",
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    header, *rows = csv.reader(io.StringIO(out.read_bytes().decode(), newline=""))
    assert len(header) == 11 and len(rows) == 3
    for row in rows:
        assert len(row) == 11
        assert dict(zip(header, row))["tree_kind"] == name


def test_a_piped_report_equals_its_out_file(tmp_path):
    # click.echo strips ANSI escapes when stdout is not a terminal unless told not to.
    doc = tmp_path / "t\x1b[31mx.txt"
    doc.write_text("a b\nb c\nc d\n", encoding="utf-8")
    out = tmp_path / "report.csv"
    args = ["run", "--tree", str(doc), "--n", "4", "--t", "1", "--seeds", "0:2", "--format", "csv"]
    piped = CliRunner().invoke(main, args)
    written = CliRunner().invoke(main, [*args, "--out", str(out)])
    assert piped.exit_code == written.exit_code == 0, piped.output
    assert "\x1b[31m" in out.read_text(encoding="utf-8")
    assert piped.stdout_bytes == out.read_bytes()


CONFIG = {"tree_source": "path:8", "n": 4, "t": 1, "seeds": [0, 1]}


@pytest.mark.parametrize("override", [
    {"seeds": "0:2"},
    {"seeds": [0, "1"]},
    {"seeds": [0, True]},
    {"seeds": 3},
    {"seeds": []},
    {"n": 4.5},
    {"n": True},
    {"t": "1"},
    {"tree_source": 8},
    {"adversary": ["silent"]},
    {"mode": None},
    {"out_format": 1},
    {"out_format": "xml"},
    {"inputs": 5},
    {"inputs": ["v0", 1]},
    {"inputs": []},
    {"emit_transcripts": 1},
])
def test_run_config_rejects_wrong_types(tmp_path, monkeypatch, override):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**CONFIG, **override}), encoding="utf-8")
    seeds_run = []
    monkeypatch.setattr(harness, "run_one", lambda *args: seeds_run.append(args[7]))
    result = CliRunner().invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Error:" in result.output
    assert '"valid"' not in result.output
    assert seeds_run == []  # refused before the first seed


@pytest.mark.parametrize("document", ['{"n": 4,', "[1,2]", '"path:8"', "\xff"])
def test_run_config_must_be_a_json_object(tmp_path, document):
    path = tmp_path / "cfg.json"
    path.write_bytes(document.encode("latin-1"))
    result = CliRunner().invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "--config" in result.output


@pytest.mark.parametrize("source", [["--gen", "path:abc"], ["--gen", "path:5:x"], "path:1e3"],
                         ids=["gen-size", "gen-seed", "config-size"])
def test_run_rejects_malformed_generator_specs(tmp_path, source):
    if isinstance(source, str):  # through a config file
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**CONFIG, "tree_source": source}), encoding="utf-8")
        args, spec = ["--config", str(path)], source
    else:
        args, spec = [*source, "--n", "4", "--t", "1"], source[1]
    result = CliRunner().invoke(main, ["run", *args])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Error:" in result.output and repr(spec) in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("how", ["flag", "config", "config-directory"])
def test_run_rejects_an_unreadable_tree_file(tmp_path, how):
    source = tmp_path / "tree.txt"
    if how == "config-directory":
        source.mkdir()
    else:
        source.write_bytes(b"a b\n\xff c\n")  # not UTF-8
    if how == "flag":
        args = ["--tree", str(source), "--n", "4", "--t", "1"]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**CONFIG, "tree_source": str(source)}), encoding="utf-8")
        args = ["--config", str(path)]
    result = CliRunner().invoke(main, ["run", *args])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Error:" in result.output and repr(str(source)) in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("how", ["run --out", "gen-tree --out", "emit_transcripts"])
def test_an_unwritable_output_path_is_an_error(tmp_path, monkeypatch, how):
    seeds_run = []
    run_one = harness.run_one
    monkeypatch.setattr(harness, "run_one", lambda *args: seeds_run.append(args[7]) or run_one(*args))
    if how == "emit_transcripts":
        target = tmp_path / "taken.txt"
        target.write_text("a file, not a directory\n")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**CONFIG, "tree_source": "path:6", "seeds": [0],
                                    "emit_transcripts": str(target)}), encoding="utf-8")
        args = ["run", "--config", str(path)]
    else:
        target = tmp_path / "missing" / "out.txt"
        args = (["run", "--gen", "path:6", "--n", "4", "--t", "1", "--seeds", "0"]
                if how == "run --out" else ["gen-tree", "--kind", "path", "--size", "6"])
        args += ["--out", str(target)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Error:" in result.output and repr(str(target)) in result.output
    assert "Traceback" not in result.output
    if how == "run --out":  # the report file is opened before the first seed
        assert seeds_run == []


@pytest.mark.parametrize("args", [["gen-tree", "--kind", "path", "--size", "0"],
                                  ["bounds", "--n", "4", "--t", "0", "--d", "10"]],
                         ids=["gen-tree", "bounds"])
def test_a_parameter_the_library_refuses_is_an_error(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Error:" in result.output
    assert "Traceback" not in result.output


def test_gen_tree_prints_a_one_vertex_tree_that_parses_back():
    result = CliRunner().invoke(main, ["gen-tree", "--kind", "binary", "--size", "1"])
    assert result.exit_code == 0, result.output
    assert result.output == "v0\n"
    assert parse_tree(result.output).vertices == {"v0"}


@pytest.mark.filterwarnings("ignore:'treeaa.cli' found in sys.modules:RuntimeWarning")
def test_the_module_runs_as_a_script(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["treeaa", "bounds", "--n", "4", "--t", "1", "--d", "1000"])
    with pytest.raises(SystemExit) as exited:
        runpy.run_module("treeaa.cli", run_name="__main__")
    assert exited.value.code == 0
    assert json.loads(capsys.readouterr().out)["lb_rounds"] == 3


def test_gen_tree_roundtrips_through_run(tmp_path):
    runner = CliRunner()
    doc = tmp_path / "tree.txt"
    gen = runner.invoke(main, ["gen-tree", "--kind", "caterpillar", "--size", "12",
                               "--out", str(doc)])
    assert gen.exit_code == 0, gen.output
    result = runner.invoke(main, [
        "run", "--tree", str(doc), "--n", "4", "--t", "1", "--seeds", "0:2",
    ])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("mode,exit_code", [("final", 1), ("legacy", 0)])
def test_label_too_long_to_send(tmp_path, mode, exit_code):
    # Only final mode sends labels; their length field holds 65,535 bytes.
    doc = tmp_path / "tree.txt"
    doc.write_text("a b\nb " + "x" * 70_000 + "\n")
    result = CliRunner().invoke(main, [
        "run", "--tree", str(doc), "--n", "4", "--t", "1", "--inputs", "endpoints",
        "--mode", mode,
    ])
    assert result.exit_code == exit_code, result.output
    assert not isinstance(result.exception, struct.error)
    if exit_code:
        assert "Error: a label of 70000 UTF-8 bytes" in result.output
        assert "Traceback" not in result.output


def test_bounds_command():
    runner = CliRunner()
    result = runner.invoke(main, ["bounds", "--n", "4", "--t", "1", "--d", "1000"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["lb_rounds"] == 3
    assert doc["k_bound"] <= 1.0


def test_bounds_command_returns_at_once_for_a_huge_round_count():
    start = time.perf_counter()
    result = CliRunner().invoke(main, ["bounds", "--n", "7", "--t", "2", "--d", "10",
                                       "--r", "10000000"])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["k_bound"] == 0.0 and doc["k_bound_simple"] == 0.0
    assert elapsed < 1.0


def test_mutually_exclusive_tree_sources(tmp_path):
    doc = tmp_path / "t.txt"
    doc.write_text("a b\n")
    runner = CliRunner()
    result = runner.invoke(main, [
        "run", "--tree", str(doc), "--gen", "path:4", "--n", "4", "--t", "1",
    ])
    assert result.exit_code != 0
