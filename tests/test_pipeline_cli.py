import argparse
import dataclasses
import errno
import inspect
import json
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from oracles import artifact_scores_oracle
from treemkl import (cli, dataio, dmkl, em, errors, kernels, loading,
                     pipeline, svm)
from treemkl.cli import main
from treemkl.dataio import (StreamFeatureSequence, load_feature_file,
                            load_manifest, write_feature_file)
from treemkl.dmkl import FW_GAP_TOL, ContrastiveConfig
from treemkl.em import STOP_REASONS, EmConfig
from treemkl.hierarchy import Hierarchy, PooledTree, pool_sequence
from treemkl.kernels import kernel_columns
from treemkl.pipeline import evaluate_artifact, fuse_evaluate, load_artifact
from treemkl.synth import SynthSpec


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
    # averaging reaches its vertex in one step; concatenation takes
    # partial steps
    assert run_cli("train-em", "--out", root / "em_c", "--stream",
                   "appearance", "--max-iters", 6, *common,
                   "--variant", "concat") == 0
    assert run_cli("train-dmkl", "--out", root / "dm_a", "--stream",
                   "appearance", "--iters", 200,
                   "--positive-fraction", 0.5, *common) == 0
    assert run_cli("train-dmkl", "--out", root / "dm_m", "--stream",
                   "motion", "--iters", 200,
                   "--positive-fraction", 0.5, *common) == 0
    return root


def summary_of(workspace, run):
    return json.loads((workspace / run / "training.json").read_text())


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
    def test_route_returns_the_written_documents(self, workspace, monkeypatch,
                                                 run, route, route_cfg):
        manifest = workspace / "data" / "manifest.jsonl"
        updates = []
        solve_dual = svm.solve_dual

        def spy(*args):
            sol = solve_dual(*args)
            updates.append(sol.updates)
            return sol

        monkeypatch.setattr(svm, "solve_dual", spy)
        result = getattr(pipeline, route)(
            load_manifest(manifest), str(manifest.parent),
            pipeline.PipelineConfig(depth=3, variant="avg", seed=3),
            route_cfg, svm.TrainConfig())
        # every dual solve is counted, the alternating route's candidates
        # included; its 3 classes are solved once per Gram matrix
        assert result.summary["dual_solves"] == len(updates)
        assert result.summary["pair_updates"] == sum(updates)
        assert len(updates) == 3 if run == "dm_a" else len(updates) > 3
        # the final model's solves close the run
        assert [d["pair_updates"] for d in
                result.summary["final_duals"].values()] == updates[-3:]
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
        lines = (workspace / "em_c" / "trace.csv").read_text().splitlines()[1:]
        vals = [float(line.split(",")[1]) for line in lines]
        iterations = summary_of(workspace, "em_c")["iterations"]
        assert iterations == len(vals) - 1 >= 2
        assert np.all(np.diff(vals) <= 1e-8)

    def test_em_entropy_column_tracks_concentration(self, workspace):
        lines = (workspace / "em_c" / "trace.csv").read_text().splitlines()[1:]
        entropies = [float(line.split(",")[2]) for line in lines]
        assert len(entropies) >= 3
        # uniform over 3 levels: beta = (1/3, 1/6, 1/6, 1/12 x 4)
        assert entropies[0] == pytest.approx(np.log(6))
        assert entropies[-1] < entropies[0]

    def test_em_summary_says_why_it_stopped(self, workspace):
        summary = json.loads(
            (workspace / "em_a" / "training.json").read_text())
        assert set(summary) == {"iterations", "beta_entropy", "dual_solves",
                                "pair_updates", "backtracks", "stop_reason",
                                "kernel_table", "final_duals",
                                "support_trees"}
        assert summary["stop_reason"] in STOP_REASONS
        backtracks = summary["backtracks"]
        assert type(backtracks) is int and backtracks >= 0

    def test_dmkl_summary_says_why_it_stopped(self, workspace):
        summary = summary_of(workspace, "dm_a")
        assert set(summary) == {"iterations", "final_loss", "dual_solves",
                                "pair_updates", "stop_reason", "fw_gap",
                                "fw_gap_bounds_suboptimality", "kernel_table",
                                "final_duals", "support_trees"}
        assert summary["stop_reason"] in dmkl.STOP_REASONS
        gap = summary["fw_gap"]
        assert type(gap) is float and gap >= 0.0
        assert (gap <= FW_GAP_TOL) == (summary["stop_reason"] == "gap")

    def test_dmkl_summary_says_what_the_gap_bounds(self, workspace,
                                                   tmp_path):
        # concatenation's loss is convex in beta, so its gap bounds the
        # suboptimality; averaging's gap only measures stationarity
        assert summary_of(workspace, "dm_a")[
            "fw_gap_bounds_suboptimality"] is False
        assert run_cli("train-dmkl", "--out", tmp_path / "dm_c",
                       "--manifest", workspace / "data" / "manifest.jsonl",
                       "--depth", 3, "--variant", "concat", "--iters", 200,
                       "--positive-fraction", 0.5) == 0
        assert summary_of(tmp_path, "dm_c")[
            "fw_gap_bounds_suboptimality"] is True

    def test_summary_names_the_table_it_held(self, workspace, tmp_path):
        # depth 3: 3 levels and 7 nodes. Averaging holds each unordered
        # level or node pair once: 6 level pairs, a (28, 28) moment matrix;
        # the level table holds each unordered video pair once
        manifest = workspace / "data" / "manifest.jsonl"
        n = len(load_manifest(manifest).split("train"))
        assert run_cli("train-dmkl", "--out", tmp_path / "dm_c",
                       "--manifest", manifest, "--depth", 3,
                       "--variant", "concat", "--iters", 20) == 0
        for root, run, name, shape in (
                (workspace, "em_a", "level_table", [n * (n + 1) // 2, 6]),
                (workspace, "em_c", "level_table", [n * (n + 1) // 2, 3]),
                (workspace, "dm_a", "moments", [28, 28]),
                (tmp_path, "dm_c", "moments", [7, 7])):
            assert summary_of(root, run)["kernel_table"] == {
                "name": name, "shape": shape,
                "bytes": 8 * int(np.prod(shape))}

    def test_vertex_entropy_is_level_entropy(self, workspace):
        # a level-l vertex spreads beta evenly over the level's 2**(l-1)
        # nodes, so its entropy is (l - 1) ln 2
        beta = load_artifact(workspace / "em_a" / "model.json").beta
        level = int(np.count_nonzero(beta)).bit_length()
        assert np.count_nonzero(beta) == 2 ** (level - 1)
        np.testing.assert_array_equal(beta[beta > 0], 0.5 ** (level - 1))
        summary = summary_of(workspace, "em_a")
        assert summary["stop_reason"] == "vertex"
        assert summary["beta_entropy"] == pytest.approx((level - 1)
                                                        * np.log(2))
        last = (workspace / "em_a" / "trace.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[2]) == summary["beta_entropy"]

    def test_root_vertex_entropy_is_written_as_zero(self):
        # a one-hot beta has entropy 0.0, written without a sign
        assert json.dumps(pipeline._entropy(np.eye(7)[0])) == "0.0"

    def test_files_listing(self, workspace):
        listing = json.loads((workspace / "em_a" / "files.json").read_text())
        assert listing["files"] == ["model.json", "support.npy", "trace.csv",
                                    "training.json"]

    @pytest.mark.parametrize("run", ["em_a", "em_c", "dm_a", "dm_m"])
    def test_summary_records_final_duals_and_support_trees(self, workspace,
                                                           run):
        summary = summary_of(workspace, run)
        doc = json.loads((workspace / run / "model.json").read_text())
        c_box = doc["config"]["svm"]["c_box"]
        assert set(summary["final_duals"]) == set(doc["classes"]) == {
            "1", "2", "3"}
        for key, dual in summary["final_duals"].items():
            assert set(dual) == {"pair_updates", "kkt_residual",
                                 "objective", "support", "bound_support"}
            alphas = [sv["alpha"] for sv in doc["classes"][key]["support"]]
            assert dual["support"] == len(alphas) > 0
            assert dual["bound_support"] == alphas.count(c_box)
            assert type(dual["pair_updates"]) is int
            # a warm-started solve may need no update
            assert 0 <= dual["pair_updates"] <= summary["pair_updates"]
            assert dual["kkt_residual"] <= doc["config"]["svm"]["kkt_tol"]
            assert type(dual["objective"]) is float and dual["objective"] < 0
        if run.startswith("dm"):
            assert sum(d["pair_updates"] for d in
                       summary["final_duals"].values()) == \
                summary["pair_updates"]
        rows = np.load(workspace / run / "support.npy")
        assert summary["support_trees"] == {
            "videos": len(doc["support_videos"]),
            "nodes": sum(b > 0 for b in doc["beta"].values()),
            "dim": 8, "bytes": rows.nbytes}
        assert rows.shape == tuple(summary["support_trees"][k]
                                   for k in ("videos", "nodes", "dim"))

    def test_bound_support_counts_alphas_at_c_box(self, workspace, tmp_path):
        # a small box puts support videos on its bound
        assert run_cli("train-dmkl", "--out", tmp_path / "m", "--manifest",
                       workspace / "data" / "manifest.jsonl", "--depth", 3,
                       "--iters", 20, "--c-box", 0.01) == 0
        doc = json.loads((tmp_path / "m" / "model.json").read_text())
        duals = summary_of(tmp_path, "m")["final_duals"]
        for key, dual in duals.items():
            alphas = [sv["alpha"] for sv in doc["classes"][key]["support"]]
            assert dual["bound_support"] == alphas.count(0.01)
        assert sum(d["bound_support"] for d in duals.values()) > 0


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
        by_id = {r.video_id: r for r in manifest.records}
        for run in ("em_a", "dm_a", "dm_m"):
            path = workspace / run / "model.json"
            art = load_artifact(path)
            cfg = art.pipeline
            test_trees, _ = pipeline.load_split_trees(manifest, root, cfg,
                                                      "test")
            support_trees = loading.load_trees(
                [by_id[v] for v in art.support_ids], root, cfg)
            # the stored rows are the support videos' pooled trees at the
            # weighted nodes, bit for bit
            np.testing.assert_array_equal(
                art.support_rows,
                kernels.stack_trees(support_trees)[0][
                    :, np.flatnonzero(art.beta)])
            np.testing.assert_array_equal(
                art.support_labels,
                [by_id[v].label for v in art.support_ids])
            cols = kernel_columns(test_trees, support_trees, art.beta,
                                  cfg.variant, art.kernel)
            ref, ref_classes = artifact_scores_oracle(
                json.loads(path.read_text()), cols, art.support_ids,
                np.array([by_id[v].label for v in art.support_ids]))
            # scoring holds only the weighted nodes of its test trees
            weighted, _ = pipeline.load_split_trees(
                manifest, root, cfg, "test", np.flatnonzero(art.beta))
            got = pipeline._artifact_scores(art, weighted)
            np.testing.assert_array_equal(art.class_ids, ref_classes)
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(np.argmax(got, axis=1),
                                          np.argmax(ref, axis=1))

    def test_scores_from_one_array_are_bit_identical_to_copies(
            self, workspace, monkeypatch):
        # every tree a view of one loaded array, stacked without a copy,
        # against the same trees each in its own array, stacked anew
        manifest = load_manifest(workspace / "data" / "manifest.jsonl")
        root = str(workspace / "data")
        art_a, art_m = (load_artifact(workspace / run / "model.json")
                        for run in ("dm_a", "dm_m"))
        seen = []

        def spy(name, pick):
            real = getattr(pipeline, name)

            def record(*args):
                out = real(*args)
                seen.append(pick(args, out).copy())
                return out
            monkeypatch.setattr(pipeline, name, record)

        # scoring's kernel columns and scores; kernel-avg's Grams and the
        # columns it predicts from
        spy("kernel_columns", lambda args, out: out)
        spy("decision_scores", lambda args, out: out)
        spy("train_one_vs_rest", lambda args, out: args[0].values)
        spy("predict", lambda args, out: args[1])

        def scored():
            seen.clear()
            for art in (load_artifact(workspace / "em_a" / "model.json"),
                        art_a):
                evaluate_artifact(art, manifest, root)
            for mode in ("score-avg", "kernel-avg"):
                fuse_evaluate(art_a, art_m, manifest, root, mode=mode)
            return list(seen)

        views = scored()
        load_split_trees = pipeline.load_split_trees

        def copied(trees):
            return [dataclasses.replace(t, vectors=t.vectors.copy())
                    for t in trees]

        monkeypatch.setattr(pipeline, "load_split_trees",
                            lambda *a: (copied(load_split_trees(*a)[0]),
                                        load_split_trees(*a)[1]))
        copies = scored()
        assert len(views) == len(copies) == 12
        for view, copy in zip(views, copies):
            np.testing.assert_array_equal(view, copy)

    def test_support_trees_are_views_of_the_stored_rows(self, workspace,
                                                        monkeypatch):
        manifest = load_manifest(workspace / "data" / "manifest.jsonl")
        art = load_artifact(workspace / "dm_a" / "model.json")
        assert not art.support_rows.flags.writeable
        seen = []
        real = pipeline.kernel_columns
        monkeypatch.setattr(pipeline, "kernel_columns",
                            lambda *a: seen.append(a[1]) or real(*a))
        evaluate_artifact(art, manifest, str(workspace / "data"))
        (support,) = seen
        assert [t.video_id for t in support] == art.support_ids
        stacked, _ = kernels.stack_trees(support)
        # the kernels read the loaded array in place
        assert np.shares_memory(stacked, art.support_rows)
        assert not stacked.flags.writeable
        np.testing.assert_array_equal(stacked, art.support_rows)

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
        by_id = {r.video_id: r for r in manifest.records}
        cols = kernel_columns([l2_tree(r) for r in manifest.split("test")],
                              [l2_tree(by_id[v]) for v in art.support_ids],
                              art.beta, art.pipeline.variant, art.kernel)
        ref, _ = artifact_scores_oracle(
            json.loads((tmp_path / "m" / "model.json").read_text()), cols,
            art.support_ids,
            np.array([by_id[v].label for v in art.support_ids]))
        test_trees, _ = pipeline.load_split_trees(manifest, str(data),
                                                  art.pipeline, "test",
                                                  np.flatnonzero(art.beta))
        got = pipeline._artifact_scores(art, test_trees)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
        # the stored rows are the normalized pooled trees, bit for bit
        pooled = loading.load_trees([by_id[v] for v in art.support_ids],
                                    str(data), art.pipeline)
        np.testing.assert_array_equal(
            art.support_rows,
            kernels.stack_trees(pooled)[0][:, np.flatnonzero(art.beta)])

    @pytest.mark.parametrize("variant", ["averaging", "concatenation"])
    @pytest.mark.parametrize("beta", [
        [0, 0, 0, 0, 1, 0, 0],                     # one node, 3:2
        [0, 0, 0, 0.25, 0.25, 0.25, 0.25],         # one level
        [0, 0.5, 0.5, 0, 0, 0, 0],                 # another level
        [0.3, 0, 0.2, 0.1, 0, 0.4, 0],             # scattered nodes
        [0.1, 0.2, 0.05, 0.15, 0.1, 0.25, 0.15]],  # every node
        ids=["node", "level-3", "level-2", "scattered", "every"])
    @pytest.mark.parametrize("norms", [("none", "none"), ("l2", "none"),
                                       ("none", "l2")],
                             ids=["raw", "feature-l2", "node-l2"])
    def test_weighted_nodes_score_bit_for_bit_as_full_trees(
            self, workspace, variant, beta, norms):
        manifest = load_manifest(workspace / "data" / "manifest.jsonl")
        root = str(workspace / "data")
        by_id = {r.video_id: r for r in manifest.records}
        art = load_artifact(workspace / "dm_a" / "model.json")
        cfg = dataclasses.replace(art.pipeline, variant=variant,
                                  feature_norm=norms[0], node_norm=norms[1])
        nodes = np.flatnonzero(beta)

        def split(name, held=None):
            return pipeline.load_split_trees(manifest, root, cfg, name,
                                             held)[0]

        support = [by_id[v] for v in art.support_ids]
        support_trees = loading.load_trees(support, root, cfg)
        # training gathers the stored rows from its every-node trees;
        # pooling only the weighted nodes gives the same bits
        gathered = kernels.stack_trees(support_trees)[0][:, nodes]
        np.testing.assert_array_equal(
            gathered, kernels.stack_trees(
                loading.load_trees(support, root, cfg, nodes))[0])
        art = dataclasses.replace(art, pipeline=cfg, beta=np.array(beta),
                                  support_rows=gathered)
        full = kernel_columns(split("test"), support_trees, art.beta,
                              variant, art.kernel)
        weighted = split("test", nodes)
        assert {t.nodes for t in weighted} == {tuple(nodes)}
        cols = kernel_columns(
            weighted, loading.load_trees(support, root, cfg, nodes),
            art.beta[nodes], variant, art.kernel)
        np.testing.assert_array_equal(cols, full)
        model = svm.SvmModel(
            train_ids=art.support_ids,
            labels=np.array([by_id[v].label for v in art.support_ids]),
            class_ids=art.class_ids, alpha=art.alpha, b=art.b)
        np.testing.assert_array_equal(pipeline._artifact_scores(art, weighted),
                                      svm.decision_scores(model, full))
        # fuse-eval's kernel-avg mode retrains on the training Gram
        np.testing.assert_array_equal(
            kernels.gram_matrix(split("train", nodes), art.beta[nodes],
                                variant, art.kernel).values,
            kernels.gram_matrix(split("train"), art.beta, variant,
                                art.kernel).values)

    def test_short_test_video_fails_as_before_with_root_only_beta(
            self, workspace, tmp_path, capsys):
        # the intervals are laid out for the whole depth, so a video too
        # short for the leaves is refused even if only the root is pooled
        lines = manifest_objects(workspace)
        test = next(i for i, obj in enumerate(lines)
                    if i and obj["split"] == "test")
        short = tmp_path / "short.gpf"
        write_feature_file(StreamFeatureSequence(
            lines[test]["video_id"], "appearance", np.ones((3, 8))), short)
        lines[test]["appearance"] = str(short)
        manifest = write_manifest_lines(tmp_path / "manifest.jsonl", lines)
        doc = json.loads((workspace / "dm_a" / "model.json").read_text())
        # a root-only model stores its support videos' roots
        art = load_artifact(workspace / "dm_a" / "model.json")
        by_id = {r.video_id: r for r in load_manifest(
            workspace / "data" / "manifest.jsonl").records}
        roots = kernels.stack_trees(loading.load_trees(
            [by_id[v] for v in art.support_ids], str(workspace / "data"),
            art.pipeline, [0]))[0]
        (tmp_path / "root_only").mkdir()
        root_only = tmp_path / "root_only" / "model.json"
        pipeline.save_artifact(dict(doc, beta={
            key: float(key == "1:1") for key in doc["beta"]}), roots,
            root_only)
        messages = []
        for model in (workspace / "dm_a" / "model.json", root_only):
            assert run_cli("eval", "--model", model, "--manifest", manifest,
                           "--out", tmp_path / "o") == 2
            err = capsys.readouterr().err
            assert "frame_count=3 cannot fill depth=3 (4 leaves)" in err
            assert "Traceback" not in err
            messages.append(err)
        assert messages[0] == messages[1]

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

    @pytest.mark.parametrize("argv", [
        ["eval", "--model", "em_a"],
        ["fuse-eval", "--model-a", "dm_a", "--model-m", "dm_m",
         "--mode", "score-avg"]], ids=["eval", "score-avg"])
    @pytest.mark.parametrize("training", ["dropped", "deleted"])
    def test_scoring_reads_only_test_frames(self, workspace, tmp_path,
                                            monkeypatch, argv, training):
        # the artifact carries its support trees: scoring needs neither
        # the training records nor their feature files
        argv = [workspace / a / "model.json" if a in ("em_a", "dm_a", "dm_m")
                else a for a in argv]
        data = workspace / "data"
        lines = [json.loads(line) for line in
                 (data / "manifest.jsonl").read_text().splitlines()]
        test = [obj for obj in lines[1:] if obj["split"] == "test"]
        copy = tmp_path / "data"
        copy.mkdir()
        kept = lines if training == "deleted" else lines[:1] + test
        for obj in kept[1:]:
            if obj["split"] == "test":
                for stream in ("appearance", "motion"):
                    (copy / obj[stream]).parent.mkdir(parents=True,
                                                      exist_ok=True)
                    (copy / obj[stream]).write_bytes(
                        (data / obj[stream]).read_bytes())
        manifest = write_manifest_lines(copy / "manifest.jsonl", kept)
        reads = []
        real = loading.load_feature_file
        monkeypatch.setattr(loading, "load_feature_file",
                            lambda *a, **k: reads.append(a) or real(*a, **k))
        assert run_cli(*argv, "--manifest", data / "manifest.jsonl",
                       "--out", tmp_path / "full") == 0
        streams = 2 if argv[0] == "fuse-eval" else 1
        assert len(reads) == streams * len(test)
        reads.clear()
        assert run_cli(*argv, "--manifest", manifest,
                       "--out", tmp_path / "test_only") == 0
        assert len(reads) == streams * len(test)
        assert all(str(a[0]).startswith(str(copy)) for a in reads)
        for name in ("metrics.json", "files.json"):
            assert (tmp_path / "full" / name).read_bytes() == \
                (tmp_path / "test_only" / name).read_bytes()


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
        ("train-dmkl", "--iters", "-1", "iterations"),
        ("train-dmkl", "--positive-fraction", "1", "positive_fraction"),
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
        # averaging's moment matrix has one row per unordered node pair:
        # (2016, 2016) at depth 6, within the limit, and (8128, 8128) at
        # depth 7, above it
        data = tmp_path / "data"
        assert run_cli("gen-synth", "--out", data, "--classes", 2,
                       "--per-class", 4, "--frames", 64, "--dim", 2) == 0
        common = ["train-dmkl", "--manifest", data / "manifest.jsonl",
                  "--variant", "avg"]
        assert run_cli(*common, "--out", tmp_path / "d6", "--depth", 6,
                       "--iters", 3) == 0
        assert summary_of(tmp_path, "d6")["kernel_table"] == {
            "name": "moments", "shape": [2016, 2016],
            "bytes": 2016 * 2016 * 8}
        capsys.readouterr()
        out = tmp_path / "o"
        code = run_cli(*common, "--out", out, "--depth", 7)
        assert code == 2
        assert_one_error_line(capsys, "(8128, 8128) moment matrix")
        assert not (out / "model.json").exists()

    def test_concatenation_table_over_limit_is_validation_exit(
            self, workspace, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(kernels, "_DENSE_LIMIT", 100)
        out = tmp_path / "o"
        code = run_cli("train-em", "--manifest",
                       workspace / "data" / "manifest.jsonl", "--out", out,
                       "--depth", 2, "--variant", "concat")
        assert code == 2
        assert_one_error_line(capsys, "videos and 2 levels", "800-byte limit")
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
        (tmp_path / "again").mkdir()
        again = tmp_path / "again" / "model.json"
        pipeline.save_artifact(doc, art.support_rows, again)
        assert again.read_text() == text
        assert (tmp_path / "again" / "support.npy").read_bytes() == \
            (out / "support.npy").read_bytes()
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
            pipeline.save_artifact(doc, np.zeros((1, 1, 1)),
                                   tmp_path / "model.json")
        # refused before any file is written
        assert os.listdir(tmp_path) == []

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

    @pytest.mark.parametrize("flag, value", [("--optimizer", "sgd"),
                                             ("--lr", "0.01")])
    def test_optimizer_flag_is_gone(self, workspace, tmp_path, capsys, flag,
                                    value):
        with pytest.raises(SystemExit) as exc:
            run_cli("train-dmkl", "--manifest",
                    workspace / "data" / "manifest.jsonl", "--depth", 2,
                    "--out", tmp_path / "o", flag, value)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("keys", [
        ("config", "depth"), ("config", "variant"), ("config", "stream"),
        ("config", "kernel", "kind"), ("config", "kernel", "gamma"),
        ("config", "svm", "c_box"), ("config", "svm", "kkt_tol"),
        ("config", "svm", "max_passes"), ("classes", "1", "b"),
        ("classes", "2", "support"), ("support_videos",),
        ("support_file",)])
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
        (lambda d: d["beta"].update({"1:1": d["beta"]["1:1"] + 0.5}),
         "'beta': beta sums to"),
        (lambda d: d.update(classes={}),
         "'classes' needs at least 2 classes, each under one key, got "
         "keys []"),
        (lambda d: d.update(classes={"1": d["classes"]["1"]}),
         "'classes' needs at least 2 classes, each under one key, got "
         "keys ['1']"),
        (lambda d: d.update(classes={"1": d["classes"]["1"],
                                     "01": d["classes"]["2"]}),
         "'classes' needs at least 2 classes, each under one key, got "
         "keys ['01', '1']"),
        (lambda d: [c.update(support=[]) for c in d["classes"].values()],
         "'classes' lists no support video"),
    ], ids=["depth-abc", "depth-3.7", "gamma-x", "c_box-x", "beta-x",
            "class-one", "alpha-x", "alpha-nan", "alpha-neg", "b-null",
            "depth-2-on-3", "kind-foo", "stream-foo", "beta-off-simplex",
            "no-classes", "one-class", "class-1-and-01", "no-support"])
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

    @pytest.mark.parametrize("edit, named", [
        (lambda d, rows, at: (at / "support.npy").unlink(),
         "'support_file': {at}/support.npy not found"),
        (lambda d, rows, at: np.save(at / "support.npy",
                                     rows.astype(np.float32)),
         "'support_file': {at}/support.npy holds float32 values"),
        (lambda d, rows, at: np.save(at / "support.npy", rows[:-1]),
         "'support_file': {at}/support.npy holds shape"),
        (lambda d, rows, at: np.save(at / "support.npy", rows[:, :-1]),
         "'support_file': {at}/support.npy holds shape"),
        (lambda d, rows, at: np.save(at / "support.npy", rows[:, :, :0]),
         "'support_file': {at}/support.npy holds shape"),
        (lambda d, rows, at: np.save(at / "support.npy",
                                     np.where(rows == rows.max(), np.inf,
                                              rows)),
         "'support_file': {at}/support.npy holds a non-finite value"),
        (lambda d, rows, at: np.save(at / "support.npy",
                                     np.array([{"rows": 1}], dtype=object),
                                     allow_pickle=True),
         "'support_file': {at}/support.npy is not a .npy array"),
        (lambda d, rows, at: (at / "support.npy").write_bytes(b"rows"),
         "'support_file': {at}/support.npy is not a .npy array"),
        (lambda d, rows, at: d.update(support_file="../support.npy"),
         "'support_file': '../support.npy' is not a file name"),
        (lambda d, rows, at: d["support_videos"][0].update(label=4),
         "'support_videos.0.label': 4 is not a class id of 'classes'"),
        (lambda d, rows, at: d["support_videos"][0].update(label="1"),
         "'support_videos.0.label' is not an integer"),
        (lambda d, rows, at: d["support_videos"][1].update(
            video_id=d["support_videos"][0]["video_id"]),
         "'support_videos.1.video_id'"),
        (lambda d, rows, at: d["support_videos"].pop(0),
         "'classes.1.support.0.video_id'"),
        (lambda d, rows, at: d["classes"]["1"]["support"][0].update(
            video_id="unlisted"),
         "'classes.1.support.0.video_id': 'unlisted' is not listed in "
         "'support_videos'"),
        (lambda d, rows, at: d.update(format="treemkl-model-v1"),
         "format 'treemkl-model-v1', expected 'treemkl-model-v2'"),
    ], ids=["missing", "float32", "few-rows", "few-nodes", "no-dim",
            "non-finite", "pickled", "not-npy", "path", "label-4",
            "label-str", "listed-twice", "unlisted-first", "unlisted",
            "v1"])
    def test_malformed_support_is_named(self, workspace, tmp_path, capsys,
                                        edit, named):
        doc = json.loads((workspace / "em_a" / "model.json").read_text())
        rows = np.load(workspace / "em_a" / "support.npy")
        at = tmp_path / "m"
        at.mkdir()
        (at / "support.npy").write_bytes(
            (workspace / "em_a" / "support.npy").read_bytes())
        edit(doc, rows, at)
        (at / "model.json").write_text(json.dumps(doc))
        named = named.format(at=at)
        with pytest.raises(errors.ArtifactMismatch, match=re.escape(named)):
            load_artifact(at / "model.json")
        for argv in (["eval", "--model", at / "model.json"],
                     ["fuse-eval", "--model-a", at / "model.json",
                      "--model-m", at / "model.json"]):
            code = run_cli(*argv, "--out", tmp_path / "o", "--manifest",
                           workspace / "data" / "manifest.jsonl")
            assert code == 2
            assert_one_error_line(capsys, named)

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
        monkeypatch.setattr(loading, "load_feature_file",
                            lambda *a, **k: reads.append(a))
        lines = manifest_objects(workspace)
        edit(lines)
        path = write_manifest_lines(tmp_path / "manifest.jsonl", lines)
        code = run_cli("train-em", "--manifest", path,
                       "--out", tmp_path / "o", "--depth", 2)
        assert code == 2
        assert_one_error_line(capsys, f"{path}{needle}")
        assert reads == []

    @pytest.mark.parametrize("edit, error, message", [
        (lambda obj: obj.update(split="val"), errors.ValidationError,
         "bad split 'val'"),
        (lambda obj: [obj.pop(s) for s in ("appearance", "motion")],
         errors.MissingPath, "no stream path present")],
        ids=["val-split", "no-stream"])
    def test_record_error_names_path_and_line(self, workspace, tmp_path,
                                              capsys, edit, error, message):
        lines = manifest_objects(workspace)
        edit(lines[2])
        path = write_manifest_lines(tmp_path / "manifest.jsonl", lines)
        named = f"{path}:3: {lines[2]['video_id']}: {message}"
        with pytest.raises(error) as exc:
            load_manifest(path)
        assert type(exc.value) is error and str(exc.value) == named
        code = run_cli("train-em", "--manifest", path,
                       "--out", tmp_path / "o", "--depth", 2)
        assert code == 2
        assert_one_error_line(capsys, named)

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

    @pytest.mark.parametrize("command", ["train-em", "eval"])
    @pytest.mark.parametrize("feature_path", ["", "."])
    def test_feature_path_that_is_no_file(self, workspace, tmp_path, capsys,
                                          command, feature_path):
        split, flags = (("train", ["--depth", 2]) if command == "train-em"
                        else ("test", ["--model",
                                       workspace / "em_a" / "model.json"]))
        lines = manifest_objects(workspace)
        record = next(obj for obj in lines[1:] if obj["split"] == split)
        record["appearance"] = feature_path
        path = write_manifest_lines(tmp_path / "manifest.jsonl", lines)
        code = run_cli(command, "--manifest", path, "--out", tmp_path / "o",
                       *flags)
        assert code == 2
        assert_one_error_line(
            capsys, f"{record['video_id']}: feature file "
                    f"{os.path.join(tmp_path, feature_path)} not found")

    @pytest.mark.parametrize("text, needle", [
        ("{not json", "not valid JSON"),
        (None, "format 'treemkl-model-v0', expected 'treemkl-model-v2'")])
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

    @pytest.mark.parametrize("command", ["train-em", "eval"])
    def test_file_not_utf8_is_validation_exit(self, workspace, tmp_path,
                                              capsys, command):
        # a UTF-16 byte order mark, then the file as it was
        if command == "train-em":
            src = workspace / "data" / "manifest.jsonl"
            bad = tmp_path / "bad.jsonl"
            argv = ["--manifest", bad, "--depth", 2]
        else:
            src = workspace / "em_a" / "model.json"
            bad = tmp_path / "model.json"
            argv = ["--model", bad,
                    "--manifest", workspace / "data" / "manifest.jsonl"]
        bad.write_bytes(b"\xff\xfe" + src.read_bytes())
        code = run_cli(command, *argv, "--out", tmp_path / "o")
        assert code == 2
        assert_one_error_line(capsys, str(bad), "not valid UTF-8")

    def test_fusion_over_different_class_sets(self, workspace, tmp_path,
                                              capsys):
        # a motion model trained without class 3
        lines = [obj for obj in manifest_objects(workspace)
                 if obj.get("label") != 3 or obj["split"] == "test"]
        manifest = write_manifest_lines(tmp_path / "manifest.jsonl", lines)
        assert run_cli("train-dmkl", "--manifest", manifest, "--out",
                       tmp_path / "m", "--stream", "motion", "--depth", 3,
                       "--variant", "avg", "--iters", 20) == 0
        model_m = tmp_path / "m" / "model.json"
        assert set(json.loads(model_m.read_text())["classes"]) == {"1", "2"}
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


def command_flags(workspace):
    """Every command with its required flags but ``--out``."""
    data = workspace / "data" / "manifest.jsonl"
    model_a = workspace / "dm_a" / "model.json"
    model_m = workspace / "dm_m" / "model.json"
    return {
        "gen-synth": [],
        "pool": ["--manifest", data, "--depth", 2],
        "train-em": ["--manifest", data, "--depth", 2],
        "train-dmkl": ["--manifest", data, "--depth", 2],
        "eval": ["--model", model_a, "--manifest", data],
        "fuse-eval": ["--model-a", model_a, "--model-m", model_m,
                      "--manifest", data],
        "report": ["--runs", workspace],
    }


class TestOutDirectory:
    @pytest.mark.parametrize("command", [
        "gen-synth", "pool", "train-em", "train-dmkl", "eval", "fuse-eval",
        "report"])
    def test_out_that_is_a_file_exits_before_reading(
            self, workspace, tmp_path, capsys, monkeypatch, command):
        reads = []
        for owner, name in ((dataio, "load_manifest"),
                            (pipeline, "load_artifact")):
            monkeypatch.setattr(owner, name, lambda *a, **k: reads.append(a))
        out = tmp_path / "out"
        out.write_text("kept\n")
        code = run_cli(command, *command_flags(workspace)[command],
                       "--out", out)
        assert code == 2
        assert_one_error_line(capsys, f"--out {out}: not a directory")
        assert reads == [] and out.read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["gen-synth", "train-em", "eval"])
    def test_out_under_a_file_exits_before_reading(
            self, workspace, tmp_path, capsys, monkeypatch, command):
        reads = []
        for owner, name in ((dataio, "load_manifest"),
                            (pipeline, "load_artifact")):
            monkeypatch.setattr(owner, name, lambda *a, **k: reads.append(a))
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / "sub" / "run"
        code = run_cli(command, *command_flags(workspace)[command],
                       "--out", out)
        assert code == 2
        assert_one_error_line(capsys,
                              f"--out {out}: {afile} is not a directory")
        assert reads == [] and afile.read_text() == "kept\n"
        assert os.listdir(tmp_path) == ["afile"]

    @pytest.mark.parametrize("command, blocked, code", [
        ("gen-synth", "features", errno.EEXIST),
        ("gen-synth", "files.json", errno.EISDIR),
        ("gen-synth", "manifest.jsonl", errno.EISDIR),
        ("train-em", "model.json", errno.EISDIR)])
    def test_blocked_output_path_is_validation_exit(
            self, workspace, tmp_path, capsys, command, blocked, code):
        # a file where a directory goes, or a directory where a file goes
        out = tmp_path / "out"
        path = out / blocked
        if code == errno.EEXIST:
            out.mkdir()
            path.write_text("kept\n")
        else:
            path.mkdir(parents=True)
        assert run_cli(command, *command_flags(workspace)[command],
                       "--out", out) == 2
        assert_one_error_line(capsys,
                              f"error: {path}: {os.strerror(code)}")

    def test_empty_out_exits_before_writing(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("gen-synth", "--out", "") == 2
        assert_one_error_line(capsys, "--out is empty")
        assert os.listdir(tmp_path) == []


class TestFlagsLeftOut:
    """A command given only its required flags builds every config equal
    to the default of its dataclass or parameter."""

    def test_gen_synth_spec(self, tmp_path):
        assert run_cli("gen-synth", "--out", tmp_path / "d") == 0
        doc = json.loads((tmp_path / "d" / "dataset.json").read_text())
        assert doc["spec"] == dataclasses.asdict(SynthSpec())

    @pytest.mark.parametrize("command, owner, fit, route_arg, route_cfg", [
        ("train-em", em, "em_fit", "em_cfg", EmConfig()),
        ("train-dmkl", dmkl, "dmkl_fit", "cfg", ContrastiveConfig())])
    def test_training_configs(self, workspace, tmp_path, monkeypatch,
                              command, owner, fit, route_arg, route_cfg):
        seen = {}
        real_load = pipeline.load_split_trees
        real_fit = getattr(owner, fit)

        def load(manifest, root, cfg, split):
            seen["pipeline"] = cfg
            return real_load(manifest, root, cfg, split)

        def spy(*args, **kwargs):
            bound = inspect.signature(real_fit).bind(*args, **kwargs)
            seen["route"] = bound.arguments[route_arg]
            seen["svm"] = bound.arguments["svm_cfg"]
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(pipeline, "load_split_trees", load)
        monkeypatch.setattr(owner, fit, spy)
        out = tmp_path / "o"
        assert run_cli(command, *command_flags(workspace)[command],
                       "--out", out) == 0
        assert seen == {"pipeline": pipeline.PipelineConfig(depth=2),
                        "route": route_cfg, "svm": svm.TrainConfig()}
        doc = json.loads((out / "model.json").read_text())
        assert doc["config"]["svm"] == dataclasses.asdict(svm.TrainConfig())

    def test_pool_config(self, workspace, tmp_path, monkeypatch):
        seen = []
        real = loading.load_split_trees
        monkeypatch.setattr(loading, "load_split_trees",
                            lambda m, r, cfg, split: seen.append(cfg)
                            or real(m, r, cfg, split))
        assert run_cli("pool", *command_flags(workspace)["pool"],
                       "--out", tmp_path / "o") == 0
        assert seen == [loading.PoolConfig(depth=2)] * 2

    def test_fuse_eval_mode_and_weight(self, workspace, tmp_path,
                                       monkeypatch):
        calls = []
        monkeypatch.setattr(pipeline, "fuse_evaluate",
                            lambda *a, **k: calls.append(k)
                            or fuse_evaluate(*a, **k))
        out = tmp_path / "o"
        assert run_cli("fuse-eval", *command_flags(workspace)["fuse-eval"],
                       "--out", out) == 0
        assert calls == [{}]
        params = inspect.signature(fuse_evaluate).parameters
        config = json.loads((out / "metrics.json").read_text())["config"]
        assert (config["fusion"], config["weight"]) == (
            params["mode"].default, params["weight"].default)


def test_readme_command_line_flags_exist():
    # every flag the README's command-line section names is one that some
    # subcommand's parser takes
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("## Command line", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*[a-z]", section))
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    known = {flag for p in commands.values()
             for flag in p._option_string_actions}
    assert len(named) > 10 and named <= known, sorted(named - known)


# numpy imports these lazily, on first use, at tens of milliseconds each
# (np.unique and np.median reach numpy.ma); no command needs them.
# numpy.random, also lazy and about 6 MB resident, only gen-synth and a
# random --beta-init start need
LAZY_NUMPY_MODULES = ("numpy.ma", "numpy.polynomial")

STARTUP_PROBE = """\
import json, sys
from treemkl.cli import main
if sys.argv[1].startswith("train-"):
    # fewer bandwidth samples than the small data's (pair, node) entries,
    # as at real sizes, so training takes a subset
    from treemkl import kernels
    kernels._MEDIAN_GAMMA_CAP = 100
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""

# the treemkl modules each command loads: the parser's own, then what the
# command runs
PARSER_MODULES = {"cli", "choices", "errors"}
POOL_MODULES = PARSER_MODULES | {"dataio", "hierarchy", "loading"}
SCORING_MODULES = POOL_MODULES | {"kernels", "pipeline", "simplex", "svm"}
COMMAND_MODULES = {
    "--help": PARSER_MODULES,
    "report": PARSER_MODULES,
    "gen-synth": PARSER_MODULES | {"dataio", "hierarchy", "synth"},
    "pool": POOL_MODULES,
    "eval": SCORING_MODULES,
    "fuse-eval": SCORING_MODULES,
    "train-em": SCORING_MODULES | {"em"},
    "train-dmkl": SCORING_MODULES | {"dmkl"},
}


def fresh_interpreter(*argv):
    """Runs ``python argv...`` with this package importable; its stdout."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(pipeline.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_command_imports_no_lazy_numpy_module(workspace, tmp_path, command):
    # each command in a fresh interpreter, as the command line runs it
    manifest = workspace / "data" / "manifest.jsonl"
    runs = tmp_path / "runs"
    (runs / "r").mkdir(parents=True)
    (runs / "r" / "metrics.json").write_text(json.dumps(
        {"overall_accuracy": 1.0, "config": {"route": "em"}}))
    out = ["--out", tmp_path / "out"]
    argv = {
        "--help": [],
        "report": ["--runs", runs, *out],
        "gen-synth": out,
        "pool": ["--manifest", manifest, "--depth", 3, *out],
        "train-em": ["--manifest", manifest, "--depth", 3, "--max-iters", 2,
                     *out],
        "train-dmkl": ["--manifest", manifest, "--depth", 3, "--iters", 20,
                       *out],
        "eval": ["--model", workspace / "em_a" / "model.json",
                 "--manifest", manifest, *out],
        "fuse-eval": ["--model-a", workspace / "dm_a" / "model.json",
                      "--model-m", workspace / "dm_m" / "model.json",
                      "--manifest", manifest, *out],
    }[command]
    stdout = fresh_interpreter("-c", STARTUP_PROBE, command, *argv)
    code, loaded = json.loads(stdout.splitlines()[-1])
    assert code == 0
    assert [m for m in LAZY_NUMPY_MODULES if m in loaded] == []
    assert ("numpy.random" in loaded) == (command == "gen-synth")
    assert {m.split(".", 1)[1] for m in loaded
            if m.startswith("treemkl.")} == COMMAND_MODULES[command]
    if COMMAND_MODULES[command] == PARSER_MODULES:
        assert "numpy" not in loaded


def test_random_beta_start_loads_numpy_random(workspace, tmp_path):
    stdout = fresh_interpreter(
        "-c", STARTUP_PROBE, "train-em",
        "--manifest", workspace / "data" / "manifest.jsonl", "--depth", 3,
        "--max-iters", 2, "--beta-init", "random", "--out", tmp_path / "out")
    code, loaded = json.loads(stdout.splitlines()[-1])
    assert code == 0 and "numpy.random" in loaded


def test_package_import_loads_no_module():
    stdout = fresh_interpreter(
        "-c", "import json, sys, treemkl; print(json.dumps(sorted("
              "m for m in sys.modules if m.partition('.')[0] in "
              "('numpy', 'treemkl'))))")
    assert json.loads(stdout) == ["treemkl"]


def test_public_names_are_their_owners_objects():
    import treemkl
    assert len(treemkl.__all__) == len(set(treemkl.__all__)) > 50
    for name in treemkl.__all__:
        value = getattr(treemkl, name)
        owner = getattr(value, "__module__", "treemkl.choices")
        assert getattr(sys.modules[owner], name) is value, name
    with pytest.raises(AttributeError, match="no_such_name"):
        treemkl.no_such_name
