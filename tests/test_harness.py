import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import treeaa
from treeaa import generate_tree, harness
from treeaa.errors import InvalidParams
from treeaa.simnet import Transcript, replay_transcript
from treeaa.trees import LabeledTree
from treeaa.harness import (
    ExperimentConfig,
    all_good,
    assign_inputs,
    emit_report,
    max_distance,
    resolve_tree,
    run_experiment,
    run_one,
)

import oracles


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 40), st.data())
def test_max_distance_matches_all_pairs(seed, size, data):
    edges = oracles.random_edge_list(random.Random(seed), size)
    tree = LabeledTree(edges) if edges else LabeledTree((), vertices=["n000"])
    labels = data.draw(st.lists(st.sampled_from(sorted(tree.vertices)), max_size=12))
    calls = []
    distance = tree.distance
    tree.distance = lambda u, v: calls.append((u, v)) or distance(u, v)
    assert max_distance(tree, labels) == oracles.max_distance_by_pairs(
        oracles.adjacency(tree), labels)
    distinct = len(set(labels))
    assert len(calls) == (2 * distinct - 2 if distinct > 2 else int(distinct == 2))  # not all pairs


class TestGenerateTree:
    def test_path(self):
        tree = generate_tree("path", 1000)
        assert len(tree) == 1001
        assert tree.diameter == 1000

    def test_star(self):
        tree = generate_tree("star", 50)
        assert len(tree) == 51
        assert tree.diameter == 2

    def test_binary(self):
        tree = generate_tree("binary", 255)
        assert len(tree) == 255
        assert tree.diameter == 14  # complete tree of depth 7

    def test_caterpillar(self):
        tree = generate_tree("caterpillar", 300)
        assert len(tree) == 300

    def test_random_deterministic(self):
        one = generate_tree("random", 200, seed=7)
        two = generate_tree("random", 200, seed=7)
        assert set(one.edges()) == set(two.edges())
        assert set(one.edges()) != set(generate_tree("random", 200, seed=8).edges())

    def test_all_kinds_are_trees(self):
        for kind in ("path", "star", "caterpillar", "binary", "random"):
            for size in (1, 2, 3, 17):
                tree = generate_tree(kind, size, seed=3)
                adj = oracles.adjacency(tree)
                assert tree.diameter == oracles.brute_diameter(adj)

    def test_bad_params(self):
        with pytest.raises(InvalidParams):
            generate_tree("path", 0)
        with pytest.raises(InvalidParams):
            generate_tree("moebius", 5)


class TestConfig:
    def test_rejects_threshold_at_parse_time(self):
        with pytest.raises(InvalidParams):
            ExperimentConfig(tree_source="path:10", n=6, t=2)

    def test_rejects_unknown_keys(self):
        with pytest.raises(InvalidParams):
            ExperimentConfig.from_dict({"tree_source": "path:10", "n": 4, "t": 1, "zap": 1})

    def test_resolve_generator_spec(self):
        tree, kind = resolve_tree("star:5")
        assert kind == "star(5)"
        assert len(tree) == 6

    def test_resolve_file(self, tmp_path):
        doc = tmp_path / "tree.txt"
        doc.write_text("a b\nb c\n", encoding="utf-8")
        tree, kind = resolve_tree(str(doc))
        assert kind == "tree.txt"
        assert len(tree) == 3

    def test_resolve_missing_file(self):
        with pytest.raises(InvalidParams):
            resolve_tree("no-such-file.txt")


class TestAssignInputs:
    def test_explicit_labels_cycle(self, eight_vertex_tree):
        inputs = assign_inputs(eight_vertex_tree, 4, ["v6", "v8"], random.Random(0))
        assert inputs == {1: "v6", 2: "v8", 3: "v6", 4: "v8"}

    def test_explicit_unknown_label(self, eight_vertex_tree):
        with pytest.raises(InvalidParams):
            assign_inputs(eight_vertex_tree, 4, ["zz"], random.Random(0))

    def test_random_valid(self, eight_vertex_tree):
        inputs = assign_inputs(eight_vertex_tree, 8, "random", random.Random(1))
        assert all(v in eight_vertex_tree for v in inputs.values())

    def test_endpoints(self):
        tree = generate_tree("path", 9)
        inputs = assign_inputs(tree, 4, "endpoints", random.Random(0))
        a, b = tree.diameter_endpoints
        assert set(inputs.values()) == {a, b}
        assert tree.distance(inputs[1], inputs[2]) == tree.diameter


class TestRunExperiment:
    def test_unanimous_inputs_all_valid(self):
        cfg = ExperimentConfig(
            tree_source="star:6", n=4, t=1, inputs=["v1"], adversary="silent",
            seeds=(0, 1, 2), mode="final",
        )
        reports = run_experiment(cfg)
        assert len(reports) == 3
        for rep in reports:
            assert rep.valid and rep.max_dist == 0
            assert rep.rounds > 0
            assert rep.tree_kind == "star(6)"
        assert all_good(reports)

    def test_legacy_rounds_dominate_when_vertices_outnumber_diameter(self):
        cfg = dict(tree_source="star:12", n=4, t=1, inputs="random", seeds=(0, 1))
        final = run_experiment(ExperimentConfig(mode="final", **cfg))
        legacy = run_experiment(ExperimentConfig(mode="legacy", **cfg))
        for f, l in zip(final, legacy):
            assert l.rounds >= f.rounds

    def test_transcript_emission(self, tmp_path):
        cfg = ExperimentConfig(
            tree_source="path:6", n=4, t=1, inputs="endpoints", adversary="skew-high",
            seeds=(3,), mode="final", emit_transcripts=str(tmp_path),
        )
        (report,) = run_experiment(cfg)
        assert report.transcript_path is not None
        text = (tmp_path / report.transcript_path.split("/")[-1]).read_text()
        assert text.count("\n") == len(text.splitlines())
        assert '"round":1' in text.splitlines()[0]

    def test_transcript_names_keep_runs_that_differ_only_in_t_apart(self, tmp_path):
        tree, kind = resolve_tree("path:20")
        inputs = assign_inputs(tree, 7, "endpoints", random.Random(0))
        reports = [run_one(tree, kind, 7, t, "final", "silent", inputs, 0, str(tmp_path))
                   for t in (1, 2)]
        assert len({report.transcript_path for report in reports}) == len(list(tmp_path.iterdir())) == 2
        for report in reports:
            text = open(report.transcript_path, encoding="utf-8").read()
            assert len(replay_transcript(Transcript.from_jsonl(text, 7))) == report.rounds
        assert reports[0].rounds != reports[1].rounds

    @pytest.mark.parametrize("sources, inputs", [
        (("random:30:1", "random:30:2"), ("random", "random")),
        (("path:12", "path:12"), ("random", "endpoints")),
    ])
    def test_transcript_names_keep_runs_that_differ_only_in_tree_seed_or_inputs_apart(
            self, tmp_path, sources, inputs):
        reports = [run_experiment(ExperimentConfig(
            tree_source=source, n=4, t=1, inputs=spec, emit_transcripts=str(tmp_path)))[0]
            for source, spec in zip(sources, inputs)]
        assert len({report.transcript_path for report in reports}) == len(list(tmp_path.iterdir())) == 2
        for report in reports:
            text = open(report.transcript_path, encoding="utf-8").read()
            assert len(replay_transcript(Transcript.from_jsonl(text, 4))) == report.rounds

    def test_only_a_nonzero_random_seed_enters_the_kind(self):
        assert [resolve_tree(spec)[1] for spec in ("random:30", "random:30:0", "random:30:7",
                                                   "path:12:7")] == [
            "random(30)", "random(30)", "random(30,7)", "path(12)"]

    def test_verdicts_recomputed_from_oracles(self, eight_vertex_tree):
        tree, kind = resolve_tree("random:12:5")
        rng = random.Random("verdict")
        inputs = assign_inputs(tree, 4, "random", rng)
        report = run_one(tree, kind, 4, 1, "final", "equivocator", inputs, seed=9)
        adj = oracles.adjacency(tree)
        hull = oracles.brute_hull(adj, {inputs[pid] for pid in report.honest})
        for pid in report.honest:
            assert report.outputs[pid] in hull
        assert report.valid

    @pytest.mark.parametrize("inputs, outputs", [
        ("dcdc", "bbbb"),  # inside: on the path d - b - a - c
        ("dcdc", "bbeb"),  # e hangs below b, off every member's path
        ("dede", "bbab"),  # a lies above the members' LCA b
        ("dede", "dedd"),
    ])
    def test_verdict_flags_an_output_outside_the_hull(self, monkeypatch, inputs, outputs):
        # A stub protocol returns the given outputs, so the verdict meets
        # outputs that no simulated run produces.
        tree = LabeledTree([("a", "b"), ("a", "c"), ("b", "d"), ("b", "e")])
        labels = dict(enumerate(outputs, start=1))
        monkeypatch.setattr(harness, "run_final_tree_aa",
                            lambda tree, n, t, inputs, adversary, seed:
                            (labels, Transcript(n, t, seed), {}))
        report = run_one(tree, "five", 4, 1, "final", "silent", dict(enumerate(inputs, start=1)), 0)
        hull = oracles.brute_hull(oracles.adjacency(tree), set(inputs))
        assert report.valid == all(label in hull for label in outputs)

    def test_run_one_rejects_unknown_mode(self):
        tree, kind = resolve_tree("path:20")
        inputs = assign_inputs(tree, 4, "random", random.Random(0))
        with pytest.raises(InvalidParams, match="fast"):
            run_one(tree, kind, 4, 1, "fast", "silent", inputs, seed=0)


class TestEmitReport:
    def make_reports(self):
        cfg = ExperimentConfig(
            tree_source="path:5", n=4, t=1, inputs=("v0", "v5"), seeds=(0, 1),
        )
        return run_experiment(cfg)

    def test_csv_shape(self):
        reports = self.make_reports()
        doc = emit_report(reports, "csv")
        lines = doc.strip().splitlines()
        assert lines[0] == (
            "seed,mode,n,t,tree_kind,vertices,diameter,rounds,lb_rounds,max_dist,valid")
        assert len(lines) == 3
        assert lines[1].startswith("0,final,4,1,path(5),6,5,")

    def test_single_report_is_two_lines(self):
        doc = emit_report(self.make_reports()[:1], "csv")
        assert len(doc.strip().splitlines()) == 2

    def test_json_roundtrip(self):
        reports = self.make_reports()
        doc = emit_report(reports, "json")
        parsed = json.loads(doc)
        assert parsed == [r.to_dict() for r in reports]

    def test_empty_list_is_error(self):
        with pytest.raises(InvalidParams):
            emit_report([], "json")
        with pytest.raises(InvalidParams, match="format must be json or csv"):
            emit_report(self.make_reports(), "xml")


def test_every_exported_name_resolves():
    assert [name for name in treeaa.__all__ if not hasattr(treeaa, name)] == []
