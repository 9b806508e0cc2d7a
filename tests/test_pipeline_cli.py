import dataclasses
import json
import os
import re
import struct

import numpy as np
import pytest

from oracles import artifact_scores_oracle
from treemkl import errors, kernels, pipeline, svm
from treemkl.cli import main
from treemkl.dataio import (StreamFeatureSequence, load_feature_file,
                            load_manifest)
from treemkl.dmkl import ContrastiveConfig
from treemkl.em import EmConfig
from treemkl.hierarchy import Hierarchy, PooledTree, pool_sequence
from treemkl.kernels import kernel_columns
from treemkl.pipeline import evaluate_artifact, fuse_evaluate, load_artifact


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    """One small two-stream dataset plus trained models, reused across
    the CLI tests (training is the slow part)."""
    root = tmp_path_factory.mktemp("cliws")
    data = root / "data"
    assert run_cli("gen-synth", "--out", data, "--classes", 3,
                   "--per-class", 10, "--frames", 32, "--dim", 8,
                   "--signal-level", 2, "--streams", 2, "--seed", 3) == 0
    manifest = data / "manifest.jsonl"
    common = ["--manifest", manifest, "--depth", 3, "--variant", "avg",
              "--seed", 3]
    assert run_cli("train-em", "--out", root / "em_a", "--stream",
                   "appearance", "--max-iters", 6, *common) == 0
    assert run_cli("train-dmkl", "--out", root / "dm_a", "--stream",
                   "appearance", "--iters", 200,
                   "--positive-fraction", 0.5, *common) == 0
    assert run_cli("train-dmkl", "--out", root / "dm_m", "--stream",
                   "motion", "--iters", 200,
                   "--positive-fraction", 0.5, *common) == 0
    return root


class TestTrainingOutputs:
    def test_artifact_schema(self, workspace):
        path = workspace / "em_a" / "model.json"
        art = load_artifact(path)
        assert art.pipeline.depth == 3 and art.config["depth"] == 3
        assert art.pipeline.variant == "averaging"
        assert art.kernel.kind == "rbf" and art.kernel.gamma > 0
        np.testing.assert_array_equal(art.class_ids, [1, 2, 3])
        assert art.beta.shape == (7,) and abs(art.beta.sum() - 1.0) < 1e-9
        assert art.b.shape == (3,)
        assert art.alpha.shape == (3, len(art.support_ids))
        assert len(set(art.support_ids)) == len(art.support_ids)
        assert list(json.loads(path.read_text())["beta"]) == [
            "1:1", "2:1", "2:2", "3:1", "3:2", "3:3", "3:4"]

    @pytest.mark.parametrize("run, route, route_cfg", [
        ("em_a", "train_em_route", EmConfig(max_iters=6, seed=3)),
        ("dm_a", "train_dmkl_route",
         ContrastiveConfig(iterations=200, positive_fraction=0.5, seed=3))])
    def test_route_returns_the_written_documents(self, workspace, run, route,
                                                 route_cfg):
        manifest = workspace / "data" / "manifest.jsonl"
        result = getattr(pipeline, route)(
            load_manifest(manifest), str(manifest.parent),
            pipeline.PipelineConfig(depth=3, variant="avg", seed=3),
            route_cfg, svm.TrainConfig())
        lines = (workspace / run / "trace.csv").read_text().splitlines()
        assert lines[0].split(",") == result.trace_header
        rows = [[float(cell) for cell in line.split(",")]
                for line in lines[1:]]
        assert rows == result.trace_rows
        assert json.loads((workspace / run / "training.json").read_text()) \
            == result.summary
        assert json.loads((workspace / run / "model.json").read_text()) \
            == result.artifact

    def test_trace_csv_headers(self, workspace):
        em_first = (workspace / "em_a" / "trace.csv").read_text().splitlines()
        assert em_first[0] == "iteration,objective,beta_entropy"
        dm_first = (workspace / "dm_a" / "trace.csv").read_text().splitlines()
        assert dm_first[0] == "iteration,loss"

    def test_em_trace_non_increasing(self, workspace):
        lines = (workspace / "em_a" / "trace.csv").read_text().splitlines()[1:]
        vals = [float(line.split(",")[1]) for line in lines]
        assert np.all(np.diff(vals) <= 1e-8)

    def test_em_entropy_column_tracks_concentration(self, workspace):
        lines = (workspace / "em_a" / "trace.csv").read_text().splitlines()[1:]
        entropies = [float(line.split(",")[2]) for line in lines]
        assert entropies[0] == pytest.approx(np.log(7))  # uniform over 7 nodes
        assert entropies[-1] < entropies[0]

    def test_files_listing(self, workspace):
        listing = json.loads((workspace / "em_a" / "files.json").read_text())
        assert "model.json" in listing["files"]
        assert "trace.csv" in listing["files"]


class TestEval:
    def test_eval_metrics(self, workspace):
        out = workspace / "eval_em"
        assert run_cli("eval", "--model", workspace / "em_a" / "model.json",
                       "--manifest", workspace / "data" / "manifest.jsonl",
                       "--out", out) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["overall_accuracy"] >= 0.9
        assert set(metrics["per_class"]) == {"1", "2", "3"}
        assert metrics["n_test"] == 9

    def test_beta_levels_row_sums_to_one(self, workspace):
        out = workspace / "eval_em"
        header, row = (out / "beta_levels.csv").read_text().splitlines()
        assert header == "level_1,level_2,level_3"
        assert abs(sum(float(v) for v in row.split(",")) - 1.0) < 1e-9

    def test_empty_test_split_is_explicit_error(self, workspace, tmp_path):
        src = (workspace / "data" / "manifest.jsonl").read_text().splitlines()
        kept = [line for line in src
                if '"split": "test"' not in line]
        bad = tmp_path / "manifest.jsonl"
        bad.write_text("\n".join(kept) + "\n")
        # feature paths stay relative to the original data directory
        for line in kept[1:]:
            obj = json.loads(line)
            break
        manifest = load_manifest(bad)
        art = load_artifact(workspace / "em_a" / "model.json")
        with pytest.raises(errors.EmptySplit):
            evaluate_artifact(art, manifest, str(workspace / "data"))

    def test_missing_model_is_validation_exit(self, workspace, tmp_path, capsys):
        code = run_cli("eval", "--model", tmp_path / "nope.json",
                       "--manifest", workspace / "data" / "manifest.jsonl",
                       "--out", tmp_path / "o")
        assert code == 2 or isinstance(code, int) and code != 0


class TestFusion:
    def test_weight_one_matches_single_stream(self, workspace):
        manifest = load_manifest(workspace / "data" / "manifest.jsonl")
        art_a = load_artifact(workspace / "dm_a" / "model.json")
        art_m = load_artifact(workspace / "dm_m" / "model.json")
        root = str(workspace / "data")
        single = evaluate_artifact(art_a, manifest, root)
        fused = fuse_evaluate(art_a, art_m, manifest, root,
                              mode="kernel-avg", weight=1.0)
        assert fused["overall_accuracy"] == single["overall_accuracy"]
        assert fused["confusion"] == single["confusion"]

    def test_score_avg_identical_artifacts(self, workspace):
        manifest = load_manifest(workspace / "data" / "manifest.jsonl")
        art_a = load_artifact(workspace / "dm_a" / "model.json")
        root = str(workspace / "data")
        single = evaluate_artifact(art_a, manifest, root)
        fused = fuse_evaluate(art_a, art_a, manifest, root,
                              mode="score-avg", weight=0.5)
        assert fused["confusion"] == single["confusion"]

    def test_fused_at_least_near_best_single(self, workspace):
        manifest = load_manifest(workspace / "data" / "manifest.jsonl")
        art_a = load_artifact(workspace / "dm_a" / "model.json")
        art_m = load_artifact(workspace / "dm_m" / "model.json")
        root = str(workspace / "data")
        acc_a = evaluate_artifact(art_a, manifest, root)["overall_accuracy"]
        acc_m = evaluate_artifact(art_m, manifest, root)["overall_accuracy"]
        fused = fuse_evaluate(art_a, art_m, manifest, root,
                              mode="kernel-avg", weight=0.5)
        assert fused["overall_accuracy"] >= max(acc_a, acc_m) - 0.02

    def test_depth_mismatch_rejected(self, workspace, tmp_path):
        art_a = load_artifact(workspace / "dm_a" / "model.json")
        art_b = dataclasses.replace(
            art_a, pipeline=dataclasses.replace(art_a.pipeline, depth=2))
        manifest = load_manifest(workspace / "data" / "manifest.jsonl")
        with pytest.raises(errors.ConfigMismatch):
            fuse_evaluate(art_a, art_b, manifest, str(workspace / "data"))


class TestScoringPath:
    def test_scores_match_per_class_oracle(self, workspace):
        manifest = load_manifest(workspace / "data" / "manifest.jsonl")
        root = str(workspace / "data")
        by_id = manifest.by_id()
        for run in ("em_a", "dm_a", "dm_m"):
            path = workspace / run / "model.json"
            art = load_artifact(path)
            cfg = art.pipeline
            test_trees, _ = pipeline.load_split_trees(manifest, root, cfg,
                                                      "test")
            support_trees = [pipeline._load_one(by_id[v], root, cfg,
                                                Hierarchy(cfg.depth))
                             for v in art.support_ids]
            cols = kernel_columns(test_trees, support_trees, art.beta,
                                  cfg.variant, art.kernel)
            ref, ref_classes = artifact_scores_oracle(
                json.loads(path.read_text()), cols, art.support_ids,
                np.array([by_id[v].label for v in art.support_ids]))
            got = pipeline._artifact_scores(art, test_trees, manifest, root)
            np.testing.assert_array_equal(art.class_ids, ref_classes)
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(np.argmax(got, axis=1),
                                          np.argmax(ref, axis=1))

    def test_l2_norms_reach_scoring(self, workspace, tmp_path):
        data = workspace / "data"
        assert run_cli("train-dmkl", "--manifest", data / "manifest.jsonl",
                       "--out", tmp_path / "m", "--depth", 3, "--iters", 50,
                       "--feature-norm", "l2", "--node-norm", "l2",
                       "--seed", 3) == 0
        art = load_artifact(tmp_path / "m" / "model.json")
        assert (art.pipeline.feature_norm, art.pipeline.node_norm) == (
            "l2", "l2")

        def unit_rows(rows):
            return rows / np.linalg.norm(rows, axis=1, keepdims=True)

        def l2_tree(record):
            rows = load_feature_file(data / record.appearance).rows
            tree = pool_sequence(StreamFeatureSequence(
                record.video_id, "appearance", unit_rows(rows)), Hierarchy(3))
            return PooledTree(tree.video_id, tree.stream, tree.depth,
                              unit_rows(tree.vectors))

        manifest = load_manifest(data / "manifest.jsonl")
        by_id = manifest.by_id()
        cols = kernel_columns([l2_tree(r) for r in manifest.split("test")],
                              [l2_tree(by_id[v]) for v in art.support_ids],
                              art.beta, art.pipeline.variant, art.kernel)
        ref, _ = artifact_scores_oracle(
            json.loads((tmp_path / "m" / "model.json").read_text()), cols,
            art.support_ids,
            np.array([by_id[v].label for v in art.support_ids]))
        test_trees, _ = pipeline.load_split_trees(manifest, str(data),
                                                  art.pipeline, "test")
        got = pipeline._artifact_scores(art, test_trees, manifest, str(data))
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode,calls", [("eval", 1), ("score-avg", 2),
                                            ("kernel-avg", 1)])
    def test_every_evaluation_reaches_decision_scores(self, workspace,
                                                      monkeypatch, mode,
                                                      calls):
        seen = []
        original = svm.decision_scores

        def counted(*args, **kwargs):
            seen.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(svm, "decision_scores", counted)
        monkeypatch.setattr(pipeline, "decision_scores", counted)
        manifest = load_manifest(workspace / "data" / "manifest.jsonl")
        art_a = load_artifact(workspace / "dm_a" / "model.json")
        art_m = load_artifact(workspace / "dm_m" / "model.json")
        root = str(workspace / "data")
        if mode == "eval":
            evaluate_artifact(art_a, manifest, root)
        else:
            fuse_evaluate(art_a, art_m, manifest, root, mode=mode)
        assert len(seen) == calls


class TestReport:
    def test_grid_layout(self, workspace, tmp_path):
        runs = tmp_path / "runs"
        runs.mkdir()
        for name, acc, depth in (("r1", 0.9, 2), ("r2", 0.95, 3)):
            d = runs / name
            d.mkdir()
            (d / "metrics.json").write_text(json.dumps({
                "overall_accuracy": acc,
                "config": {"route": "em", "variant": "averaging",
                           "depth": depth, "stream": "appearance"}}))
        out = tmp_path / "report"
        assert run_cli("report", "--runs", runs, "--out", out) == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "run,route,variant,depth,stream,accuracy"
        assert len(lines) == 3

    def test_no_runs_is_error(self, tmp_path):
        (tmp_path / "empty").mkdir()
        assert run_cli("report", "--runs", tmp_path / "empty",
                       "--out", tmp_path / "r") == 2

    @pytest.mark.parametrize("metrics", [
        None, "{not json", json.dumps({"config": {}}), "[]"])
    def test_unreadable_runs_are_validation_exits(self, tmp_path, capsys,
                                                  metrics):
        runs = tmp_path / "runs"
        if metrics is not None:
            (runs / "r1").mkdir(parents=True)
            (runs / "r1" / "metrics.json").write_text(metrics)
        assert run_cli("report", "--runs", runs, "--out", tmp_path / "o") == 2
        assert_one_error_line(capsys, str(runs))

    def test_rerun_byte_identical(self, workspace, tmp_path):
        runs = tmp_path / "runs"
        runs.mkdir()
        d = runs / "only"
        d.mkdir()
        (d / "metrics.json").write_text(json.dumps({
            "overall_accuracy": 1.0,
            "config": {"route": "dmkl", "variant": "concatenation",
                       "depth": 4, "stream": "motion"}}))
        assert run_cli("report", "--runs", runs, "--out", tmp_path / "a") == 0
        assert run_cli("report", "--runs", runs, "--out", tmp_path / "b") == 0
        assert (tmp_path / "a" / "report.csv").read_bytes() == \
            (tmp_path / "b" / "report.csv").read_bytes()


def assert_one_error_line(capsys, *needles):
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(lines) == 1 and "Traceback" not in err, err
    for needle in needles:
        assert needle in lines[0], err


class TestExitCodesAndWorkers:
    def test_non_numeric_gamma_is_validation_exit(self, workspace, tmp_path,
                                                  capsys):
        code = run_cli("train-em", "--manifest",
                       workspace / "data" / "manifest.jsonl",
                       "--out", tmp_path / "o", "--depth", 2,
                       "--gamma", "abc")
        assert code == 2
        assert_one_error_line(capsys, "--gamma", "'abc'")

    @pytest.mark.parametrize("gamma", ["inf", "nan", "0", "-1"])
    def test_bad_numeric_gamma_exits_before_loading(self, workspace, tmp_path,
                                                    capsys, monkeypatch,
                                                    gamma):
        loads = []
        real = pipeline.load_split_trees
        monkeypatch.setattr(pipeline, "load_split_trees",
                            lambda *a, **k: loads.append(a) or real(*a, **k))
        code = run_cli("train-em", "--manifest",
                       workspace / "data" / "manifest.jsonl",
                       "--out", tmp_path / "o", "--depth", 2,
                       "--gamma", gamma)
        assert code == 2
        assert_one_error_line(capsys, "gamma")
        assert loads == []

    @pytest.mark.parametrize("command, flag, value, needle", [
        ("train-em", "--seed", "-1", "seed"),
        ("train-dmkl", "--seed", "-1", "seed"),
        ("train-dmkl", "--lr", "nan", "learning_rate"),
        ("train-dmkl", "--lr", "inf", "learning_rate"),
        # an infinite tolerance would be written into an artifact that
        # load_artifact refuses
        ("train-em", "--kkt-tol", "inf", "kkt_tol"),
        ("train-dmkl", "--kkt-tol", "inf", "kkt_tol")])
    def test_bad_seed_or_rate_exits_before_loading(self, workspace, tmp_path,
                                                   capsys, monkeypatch,
                                                   command, flag, value,
                                                   needle):
        loads = []
        real = pipeline.load_split_trees
        monkeypatch.setattr(pipeline, "load_split_trees",
                            lambda *a, **k: loads.append(a) or real(*a, **k))
        code = run_cli(command, "--manifest",
                       workspace / "data" / "manifest.jsonl",
                       "--out", tmp_path / "o", "--depth", 2, flag, value)
        assert code == 2
        assert_one_error_line(capsys, needle)
        assert loads == []

    @pytest.mark.parametrize("field", ["kernel_kind", "stream"])
    def test_config_refuses_unknown_kernel_kind_and_stream(self, field):
        with pytest.raises(errors.ValidationError, match="unknown .* 'foo'"):
            pipeline.PipelineConfig(depth=2, **{field: "foo"})

    def test_contrastive_linear_kernel_is_validation_exit(self, workspace,
                                                          tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli("train-dmkl", "--manifest",
                       workspace / "data" / "manifest.jsonl", "--out", out,
                       "--depth", 2, "--kernel", "linear")
        assert code == 2
        assert_one_error_line(capsys, "rbf", "'linear'")
        assert not (out / "model.json").exists()

    def test_contrastive_moments_over_limit_is_validation_exit(
            self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run_cli("gen-synth", "--out", data, "--classes", 2,
                       "--per-class", 4, "--frames", 64, "--dim", 2) == 0
        out = tmp_path / "o"
        code = run_cli("train-dmkl", "--manifest", data / "manifest.jsonl",
                       "--out", out, "--depth", 7, "--variant", "avg")
        assert code == 2
        assert_one_error_line(capsys, "moment matrix")
        assert not (out / "model.json").exists()

    def test_concatenation_table_over_limit_is_validation_exit(
            self, workspace, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(kernels, "_DENSE_LIMIT", 100)
        out = tmp_path / "o"
        code = run_cli("train-em", "--manifest",
                       workspace / "data" / "manifest.jsonl", "--out", out,
                       "--depth", 2, "--variant", "concat")
        assert code == 2
        assert_one_error_line(capsys, "videos and 3 nodes", "800-byte limit")
        assert not (out / "model.json").exists()

    def test_contrastive_margin_is_gone_and_batch_inert(self, workspace,
                                                         tmp_path, capsys):
        common = ["train-dmkl", "--manifest",
                  workspace / "data" / "manifest.jsonl", "--depth", 2,
                  "--iters", 20]
        with pytest.raises(SystemExit) as exc:
            run_cli(*common, "--out", tmp_path / "m", "--margin", 0.1)
        assert exc.value.code == 2
        assert "unrecognized arguments: --margin" in capsys.readouterr().err
        assert run_cli(*common, "--out", tmp_path / "a") == 0
        assert run_cli(*common, "--out", tmp_path / "b", "--batch", 7) == 0
        for name in ("model.json", "trace.csv", "training.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_hard_margin_artifact_is_strict_json(self, workspace, tmp_path):
        def no_constant(name):
            raise ValueError(f"non-JSON constant {name}")

        out = tmp_path / "hard"
        assert run_cli("train-em", "--manifest",
                       workspace / "data" / "manifest.jsonl",
                       "--out", out, "--depth", 2, "--variant", "concat",
                       "--max-iters", 1, "--c-box", "inf") == 0
        text = (out / "model.json").read_text()
        doc = json.loads(text, parse_constant=no_constant)
        assert doc["config"]["svm"]["c_box"] is None
        art = load_artifact(out / "model.json")
        assert art.svm.c_box == np.inf
        # the round trip writes the same bytes again
        again = tmp_path / "again.json"
        pipeline.save_artifact(doc, again)
        assert again.read_text() == text
        assert run_cli("eval", "--model", out / "model.json",
                       "--manifest", workspace / "data" / "manifest.jsonl",
                       "--out", tmp_path / "eval") == 0
        metrics = (tmp_path / "eval" / "metrics.json").read_text()
        json.loads(metrics, parse_constant=no_constant)

    def test_save_artifact_refuses_non_finite_numbers(self, workspace,
                                                      tmp_path):
        doc = json.loads((workspace / "em_a" / "model.json").read_text())
        doc["config"]["svm"]["kkt_tol"] = np.inf
        with pytest.raises(ValueError):
            pipeline.save_artifact(doc, tmp_path / "model.json")

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "-1"), ("--dim", "-1"), ("--dim", "0"),
        ("--detail-sigma", "nan"), ("--amplitude", "inf"),
        ("--noise-sigma", "inf")])
    def test_bad_synth_spec_exits_before_writing(self, tmp_path, capsys,
                                                 flag, value):
        out = tmp_path / "data"
        assert run_cli("gen-synth", "--out", out, flag, value) == 2
        assert_one_error_line(capsys, flag[2:].replace("-", "_"))
        assert not out.exists()

    def test_optimizer_flag_is_gone(self, workspace, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("train-dmkl", "--manifest",
                    workspace / "data" / "manifest.jsonl", "--depth", 2,
                    "--out", tmp_path / "o", "--optimizer", "sgd")
        assert exc.value.code == 2
        assert "unrecognized arguments: --optimizer" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("keys", [
        ("config", "depth"), ("config", "variant"), ("config", "stream"),
        ("config", "kernel", "kind"), ("config", "kernel", "gamma"),
        ("config", "svm", "c_box"), ("config", "svm", "kkt_tol"),
        ("config", "svm", "max_passes"), ("classes", "1", "b"),
        ("classes", "2", "support")])
    def test_artifact_missing_key_is_named(self, workspace, tmp_path, keys):
        doc = json.loads((workspace / "em_a" / "model.json").read_text())
        node = doc
        for key in keys[:-1]:
            node = node[key]
        del node[keys[-1]]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(errors.ArtifactMismatch, match=".".join(keys)):
            load_artifact(path)

    @pytest.mark.parametrize("edit, named", [
        (lambda d: d["config"].update(depth="abc"), "'config.depth'"),
        (lambda d: d["config"].update(depth=3.7), "'config.depth'"),
        (lambda d: d["config"]["kernel"].update(gamma="x"),
         "'config.kernel.gamma'"),
        (lambda d: d["config"]["svm"].update(c_box="x"),
         "'config.svm.c_box'"),
        (lambda d: d["beta"].update({"1:1": "x"}), "'beta.1:1'"),
        (lambda d: d["classes"].update(one=d["classes"].pop("1")),
         "'classes': class key 'one'"),
        (lambda d: d["classes"]["1"]["support"][0].update(alpha="x"),
         "'classes.1.support.0.alpha'"),
        (lambda d: d["classes"]["1"]["support"][0].update(alpha=np.nan),
         "'classes.1.support.0.alpha'"),
        (lambda d: d["classes"]["1"]["support"][0].update(alpha=-1),
         "'classes.1.support.0.alpha'"),
        (lambda d: d["classes"]["1"].update(b=None), "'classes.1.b'"),
        (lambda d: d["config"].update(depth=2), "'config.depth'"),
        (lambda d: d["config"]["kernel"].update(kind="foo"),
         "'config.kernel': unknown kernel kind 'foo'"),
        (lambda d: d["config"].update(stream="foo"),
         "'config': unknown stream 'foo'"),
    ], ids=["depth-abc", "depth-3.7", "gamma-x", "c_box-x", "beta-x",
            "class-one", "alpha-x", "alpha-nan", "alpha-neg", "b-null",
            "depth-2-on-3", "kind-foo", "stream-foo"])
    def test_artifact_malformed_value_is_named(self, workspace, tmp_path,
                                               capsys, edit, named):
        doc = json.loads((workspace / "em_a" / "model.json").read_text())
        edit(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(errors.ArtifactMismatch, match=re.escape(named)):
            load_artifact(path)
        code = run_cli("eval", "--model", path,
                       "--manifest", workspace / "data" / "manifest.jsonl",
                       "--out", tmp_path / "o")
        assert code == 2
        assert_one_error_line(capsys, named)

    def test_artifact_malformed_sections(self, workspace, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[]")
        with pytest.raises(errors.ArtifactMismatch, match="not a JSON object"):
            load_artifact(path)
        good = (workspace / "em_a" / "model.json").read_text()
        for section in ("beta", "classes"):
            doc = json.loads(good)
            doc[section] = []
            path.write_text(json.dumps(doc))
            with pytest.raises(errors.ArtifactMismatch,
                               match=f"'{section}' is not an object"):
                load_artifact(path)
        for key in ("video_id", "alpha"):
            doc = json.loads(good)
            del doc["classes"]["1"]["support"][0][key]
            path.write_text(json.dumps(doc))
            with pytest.raises(errors.ArtifactMismatch,
                               match=r"classes\.1\.support must list"):
                load_artifact(path)

    def test_eval_artifact_without_depth_is_validation_exit(
            self, workspace, tmp_path, capsys):
        doc = json.loads((workspace / "em_a" / "model.json").read_text())
        del doc["config"]["depth"]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        code = run_cli("eval", "--model", model,
                       "--manifest", workspace / "data" / "manifest.jsonl",
                       "--out", tmp_path / "o")
        assert code == 2
        assert_one_error_line(capsys, "'config.depth'")

    def test_not_converged_is_numerical_exit(self, workspace, tmp_path):
        code = run_cli("train-em", "--manifest",
                       workspace / "data" / "manifest.jsonl",
                       "--out", tmp_path / "o", "--depth", 2,
                       "--variant", "concat", "--stream", "appearance",
                       "--kkt-tol", 1e-14, "--max-passes", 1, "--seed", 3)
        assert code == 3


def manifest_objects(workspace):
    """The workspace manifest's lines as objects, with absolute feature
    paths so that a copy may live anywhere."""
    data = workspace / "data"
    objs = [json.loads(line) for line in
            (data / "manifest.jsonl").read_text().splitlines()]
    for obj in objs[1:]:
        for stream in ("appearance", "motion"):
            obj[stream] = str(data / obj[stream])
    return objs


def write_manifest_lines(path, lines):
    path.write_text("".join((line if isinstance(line, str)
                             else json.dumps(line)) + "\n" for line in lines))
    return path


class TestValidationExits:
    """Bad inputs exit 2 with one ``error:`` line and no traceback."""

    @pytest.mark.parametrize("edit, needle", [
        (lambda ls: ls.insert(2, "5"), ":3: not a JSON object"),
        (lambda ls: ls.insert(2, "null"), ":3: not a JSON object"),
        (lambda ls: ls.insert(2, '"video_id label split"'),
         ":3: not a JSON object"),
        (lambda ls: ls[2].update(appearance=7), ":3: appearance 7 is not a"),
        (lambda ls: ls.insert(2, "{not json"), ":3: bad JSON"),
        (lambda ls: ls.insert(2, ls[0]), ":3: label_names must be the first"),
        (lambda ls: ls[2].pop("split"), ":3: missing keys ['split']"),
        (lambda ls: ls[2].update(video_id=None),
         ":3: video_id None is not a string"),
        (lambda ls: ls[2].update(video_id=["x"]),
         ":3: video_id ['x'] is not a string"),
        (lambda ls: ls[2].update(split=5), ":3: split 5 is not a string"),
        (lambda ls: ls[0]["label_names"].update({"1": None}),
         ":1: label_names value None is not a string"),
    ], ids=["int", "null", "string", "int-path", "bad-json",
            "late-label-names", "missing-split", "null-video-id",
            "list-video-id", "int-split", "null-label-name"])
    def test_bad_manifest_line_exits_before_reading_features(
            self, workspace, tmp_path, capsys, monkeypatch, edit, needle):
        reads = []
        monkeypatch.setattr(pipeline, "load_feature_file",
                            lambda *a, **k: reads.append(a))
        lines = manifest_objects(workspace)
        edit(lines)
        path = write_manifest_lines(tmp_path / "manifest.jsonl", lines)
        code = run_cli("train-em", "--manifest", path,
                       "--out", tmp_path / "o", "--depth", 2)
        assert code == 2
        assert_one_error_line(capsys, f"{path}{needle}")
        assert reads == []

    def test_non_contiguous_class_ids(self, workspace, tmp_path, capsys):
        lines = manifest_objects(workspace)
        lines[0]["label_names"]["5"] = "class_5"
        path = write_manifest_lines(tmp_path / "manifest.jsonl", lines)
        code = run_cli("train-em", "--manifest", path,
                       "--out", tmp_path / "o", "--depth", 2)
        assert code == 2
        assert_one_error_line(capsys, "not contiguous from 1")

    def test_missing_feature_file(self, workspace, tmp_path, capsys):
        lines = manifest_objects(workspace)
        lines[1]["appearance"] = str(tmp_path / "gone.gpf")
        path = write_manifest_lines(tmp_path / "manifest.jsonl", lines)
        code = run_cli("train-em", "--manifest", path,
                       "--out", tmp_path / "o", "--depth", 2)
        assert code == 2
        assert_one_error_line(capsys, "gone.gpf not found")

    @pytest.mark.parametrize("text, needle", [
        ("{not json", "not valid JSON"),
        (None, "format 'treemkl-model-v0', expected 'treemkl-model-v1'")])
    def test_artifact_unreadable(self, workspace, tmp_path, capsys, text,
                                 needle):
        if text is None:
            doc = json.loads((workspace / "em_a" / "model.json").read_text())
            doc["format"] = "treemkl-model-v0"
            text = json.dumps(doc)
        model = tmp_path / "model.json"
        model.write_text(text)
        code = run_cli("eval", "--model", model,
                       "--manifest", workspace / "data" / "manifest.jsonl",
                       "--out", tmp_path / "o")
        assert code == 2
        assert_one_error_line(capsys, str(model), needle)

    def test_support_video_absent_from_manifest(self, workspace, tmp_path,
                                                capsys):
        model = workspace / "em_a" / "model.json"
        gone = json.loads(model.read_text())["classes"]["1"]["support"][0]
        lines = [obj for obj in manifest_objects(workspace)
                 if obj.get("video_id") != gone["video_id"]]
        path = write_manifest_lines(tmp_path / "manifest.jsonl", lines)
        code = run_cli("eval", "--model", model, "--manifest", path,
                       "--out", tmp_path / "o")
        assert code == 2
        assert_one_error_line(capsys, "support videos absent from manifest",
                              gone["video_id"])

    def test_fusion_over_different_class_sets(self, workspace, tmp_path,
                                              capsys):
        doc = json.loads((workspace / "dm_m" / "model.json").read_text())
        del doc["classes"]["3"]
        model_m = tmp_path / "model.json"
        model_m.write_text(json.dumps(doc))
        code = run_cli("fuse-eval", "--model-a", workspace / "dm_a" /
                       "model.json", "--model-m", model_m,
                       "--manifest", workspace / "data" / "manifest.jsonl",
                       "--out", tmp_path / "o")
        assert code == 2
        assert_one_error_line(capsys, "different class sets")


class TestPoolCommand:
    def test_writes_tree_files(self, workspace, tmp_path):
        out = tmp_path / "pooled"
        assert run_cli("pool", "--manifest",
                       workspace / "data" / "manifest.jsonl",
                       "--out", out, "--depth", 3,
                       "--stream", "appearance") == 0
        trees = sorted(os.listdir(out / "trees"))
        assert len(trees) == 30
        from treemkl.hierarchy import load_pooled_file
        tree = load_pooled_file(out / "trees" / trees[0])
        assert tree.depth == 3

    def test_reruns_byte_identical_with_gpt1_headers(self, workspace,
                                                     tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert run_cli("pool", "--manifest",
                           workspace / "data" / "manifest.jsonl",
                           "--out", out, "--depth", 3,
                           "--stream", "appearance") == 0
        names = json.loads((outs[0] / "files.json").read_text())["files"]
        assert len(names) == 30
        for name in names + ["files.json"]:
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes()
        dim, nodes = 8, 7
        for name in names:
            data = (outs[0] / name).read_bytes()
            assert len(data) == 12 + 4 * dim * nodes
            assert data[:4] == b"GPT1"
            assert struct.unpack_from("<II", data, 4) == (dim, nodes)

    @pytest.mark.parametrize("flag, value", [
        ("--variant", "avg"), ("--kernel", "rbf"), ("--gamma", "median"),
        ("--seed", "0"), ("--c-box", "10"), ("--kkt-tol", "1e-6"),
        ("--max-passes", "200")])
    def test_training_flags_are_rejected(self, workspace, tmp_path, capsys,
                                         flag, value):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            run_cli("pool", "--manifest",
                    workspace / "data" / "manifest.jsonl",
                    "--out", out, "--depth", 3, flag, value)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_validation_exit_code(self, tmp_path):
        assert run_cli("pool", "--manifest", tmp_path / "missing.jsonl",
                       "--out", tmp_path / "o", "--depth", 3) == 2
