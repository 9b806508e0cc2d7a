"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines. The slow training runs (criteria 3, 5, 6, 7) are
shared through a module fixture so each pipeline trains once.
"""

import time

import numpy as np
import pytest

from oracles import central_difference, qp_enumeration_oracle
from conftest import random_trees
from treemkl.cli import main as cli_main
from treemkl.dmkl import (
    ContrastiveConfig,
    _PairTable,
    dmkl_fit,
    loss_grad,
)
from treemkl.em import EmConfig, em_fit
from treemkl.hierarchy import Hierarchy, pool_sequence
from treemkl.kernels import (
    AVERAGING,
    CONCATENATION,
    KernelConfig,
    NodeKernelCache,
    _kernel_matrix,
    combined_kernel,
    gram_matrix,
    kernel_columns,
    median_gamma,
)
from treemkl.simplex import SimplexWeights, to_simplex
from treemkl.svm import TrainConfig, predict, solve_dual, train_one_vs_rest
from treemkl.synth import SynthSpec, gen_sequences, misalign

VARIANTS = (CONCATENATION, AVERAGING)


def _report(num: int, name: str) -> None:
    print(f"[criterion {num:02d}] {name}: PASS")


def build_synth(seed, level, per_class, streams=1, amplitude=1.5, depth=None):
    spec = SynthSpec(num_classes=4, per_class=per_class, frames=32, dim=16,
                     signal_level=level, amplitude=amplitude,
                     noise_sigma=0.5, seed=seed, streams=streams)
    data = gen_sequences(spec)
    h = Hierarchy(depth if depth is not None else level + 1)
    trees = [pool_sequence(s, h) for s in data.sequences["appearance"]]
    tr, te = data.split_indices("train"), data.split_indices("test")
    return {
        "h": h,
        "train": [trees[i] for i in tr],
        "test": [trees[i] for i in te],
        "y_train": data.labels[tr],
        "y_test": data.labels[te],
        "sequences": data.sequences["appearance"],
        "test_idx": te,
        "spec": spec,
    }


@pytest.fixture(scope="module")
def runs():
    """Every training run the acceptance suite needs, executed once."""
    out = {"em_traces": [], "beta_traces": [], "c6": [], "c7": []}

    # criterion 5 material: em, both variants, 5 seeded datasets
    for seed in range(5):
        ds = build_synth(seed, level=2, per_class=25)
        kcfg = KernelConfig("rbf", median_gamma(ds["train"]))
        for variant in VARIANTS:
            res = em_fit(ds["train"], ds["y_train"], variant, kcfg,
                         EmConfig(max_iters=10))
            out["em_traces"].append(res.objective_trace)
            out["beta_traces"].append(res.beta_trace)

    # criterion 6 material: both routes at n = 200, T = 32, dim = 16
    for level in (2, 3):
        share = 2 ** (level - 1) / (2 ** (level + 1) - 1)
        for seed in range(5):
            ds = build_synth(seed, level=level, per_class=50)
            h = ds["h"]
            kcfg = KernelConfig("rbf", median_gamma(ds["train"]))

            t0 = time.process_time()
            em_res = em_fit(ds["train"], ds["y_train"], AVERAGING, kcfg,
                            EmConfig(max_iters=12))
            cols = kernel_columns(ds["test"], ds["train"], em_res.beta,
                                  AVERAGING, kcfg)
            em_acc = float(np.mean(predict(em_res.model, cols)
                                   == ds["y_test"]))
            em_secs = time.process_time() - t0
            out["beta_traces"].append(em_res.beta_trace)
            out["c6"].append({
                "method": "em", "level": level, "seed": seed,
                "mass": float(em_res.beta[h.level_slice(level)].sum()),
                "share": share, "acc": em_acc, "secs": em_secs})

            t0 = time.process_time()
            dm_res = dmkl_fit(ds["train"], ds["y_train"], CONCATENATION,
                              ContrastiveConfig(seed=seed,
                                                positive_fraction=0.5),
                              kcfg)
            gram = gram_matrix(ds["train"], dm_res.weights.beta,
                               CONCATENATION, kcfg)
            model = train_one_vs_rest(gram, ds["y_train"])
            cols = kernel_columns(ds["test"], ds["train"],
                                  dm_res.weights.beta, CONCATENATION, kcfg)
            dm_acc = float(np.mean(predict(model, cols) == ds["y_test"]))
            dm_secs = time.process_time() - t0
            out["beta_traces"].append(dm_res.beta_trace)
            out["c6"].append({
                "method": "dmkl", "level": level, "seed": seed,
                "mass": float(dm_res.weights.beta[h.level_slice(level)].sum()),
                "share": share, "acc": dm_acc, "secs": dm_secs})

    # criterion 7 material: leaf-level content, shifted test sequences
    for seed in range(5):
        ds = build_synth(seed, level=4, per_class=25, depth=4)
        h = ds["h"]
        kcfg = KernelConfig("rbf", median_gamma(ds["train"]))
        shift = ds["spec"].frames // 8
        seqs = ds["sequences"]
        shifted = {}
        for sign in (+1, -1):
            shifted[sign] = [pool_sequence(misalign(seqs[i], sign * shift), h)
                             for i in ds["test_idx"]]
        entry = {"seed": seed}
        for variant in VARIANTS:
            res = dmkl_fit(ds["train"], ds["y_train"], variant,
                           ContrastiveConfig(seed=seed, iterations=2000,
                                             positive_fraction=0.5), kcfg)
            gram = gram_matrix(ds["train"], res.weights.beta, variant, kcfg)
            model = train_one_vs_rest(gram, ds["y_train"])
            out["beta_traces"].append(res.beta_trace)

            def acc(trees):
                cols = kernel_columns(trees, ds["train"], res.weights.beta,
                                      variant, kcfg)
                return float(np.mean(predict(model, cols) == ds["y_test"]))

            clean = acc(ds["test"])
            moved = 0.5 * (acc(shifted[+1]) + acc(shifted[-1]))
            entry[variant] = clean - moved
        out["c7"].append(entry)
    return out


def test_c01_gradient_correctness(rng):
    started = time.process_time()
    for trial in range(50):
        depth = int(rng.integers(1, 4))
        trees = random_trees(rng, n=4, depth=depth, frames=16, dim=3)
        labels = rng.integers(1, 3, size=4)
        labels[0], labels[1] = 1, 2
        batch = _PairTable(labels)
        cfg = KernelConfig("rbf", float(rng.uniform(0.2, 2.0)))
        cache = NodeKernelCache(trees, cfg)
        raw = rng.standard_normal(trees[0].node_count)
        weights = SimplexWeights(raw)
        margin = float(rng.choice([0.0, 0.2]))
        for variant in VARIANTS:
            _, grad = loss_grad(batch.i, batch.j, batch.y, cache, weights,
                                variant, margin)

            def composite(r):
                beta = to_simplex(r)
                k = np.array([combined_kernel(trees[i], trees[j], beta,
                                              variant, cfg)
                              for i, j in zip(batch.i, batch.j)])
                per = np.where(batch.y > 0, (1.0 - k) ** 2,
                               np.maximum(0.0, k - margin) ** 2)
                return float(per.mean())

            fd = central_difference(composite, raw)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-10)
            assert rel <= 1e-5, f"trial {trial} {variant}: rel err {rel:.2e}"
    elapsed = time.process_time() - started
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"
    _report(1, "composite weight gradients match finite differences "
               "(50 instances, both variants)")


def test_c02_psd_closure(rng):
    for trial in range(100):
        n = int(rng.integers(2, 51))
        depth = int(rng.integers(1, 5))
        trees = random_trees(rng, n=n, depth=depth,
                             frames=int(rng.integers(2 ** (depth - 1), 40)),
                             dim=int(rng.integers(2, 8)))
        beta = to_simplex(rng.standard_normal(trees[0].node_count))
        cfg = KernelConfig("rbf", float(rng.uniform(0.1, 3.0)))
        for variant in VARIANTS:
            gram = gram_matrix(trees, beta, variant, cfg)
            lo = gram.min_eigenvalue()
            assert lo >= -1e-8, f"trial {trial} {variant}: min eig {lo:.2e}"
    _report(2, "combined-kernel Gram matrices stay PSD "
               "(100 instances, both variants)")


def test_c03_simplex_preservation(runs):
    checked = 0
    for trace in runs["beta_traces"]:
        assert trace.ndim == 2
        assert trace.min() >= 0.0
        assert trace.max() <= 1.0
        np.testing.assert_array_less(np.abs(trace.sum(axis=1) - 1.0),
                                     1e-9 + np.zeros(trace.shape[0]))
        checked += trace.shape[0]
    assert checked > 1000  # every step of every training run above
    _report(3, f"weights stayed on the simplex at every optimizer/EM step "
               f"({checked} steps, zero violations)")


def test_c04_svm_oracle_equivalence(rng):
    # analytic two-point case, exact within 1e-8
    K = np.array([[1.0, -1.0], [-1.0, 1.0]])
    sol = solve_dual(K, np.array([1.0, -1.0]),
                     TrainConfig(c_box=1e8, kkt_tol=1e-12, max_passes=100))
    np.testing.assert_allclose(sol.alpha, [0.5, 0.5], atol=1e-8)
    assert abs(sol.b) <= 1e-8

    cfg = TrainConfig(c_box=5.0, kkt_tol=1e-10, max_passes=3000)
    for trial in range(100):
        n = int(rng.integers(2, 7))
        X = rng.standard_normal((n, 3))
        K = _kernel_matrix(X, X, KernelConfig("rbf", 0.5))
        K = (K + K.T) / 2
        y = rng.choice([-1.0, 1.0], size=n)
        if not (np.any(y > 0) and np.any(y < 0)):
            y[0] = -y[0]
        sol = solve_dual(K, y, cfg)
        _, obj_star = qp_enumeration_oracle(K, y, cfg.c_box)
        assert abs(sol.objective - obj_star) <= 1e-6, \
            f"trial {trial}: {sol.objective:.9f} vs {obj_star:.9f}"
    _report(4, "dual solver matches the exhaustive QP oracle "
               "(100 instances) and the analytic two-point case")


def test_c05_em_monotonicity(runs):
    assert len(runs["em_traces"]) == 10  # 5 seeds x both variants
    for trace in runs["em_traces"]:
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-8), f"trace rose by {diffs.max():.2e}"
    _report(5, "alternation objective non-increasing at every iteration "
               "(5 seeds, both variants)")


def test_c06_granularity_recovery(runs):
    for method in ("em", "dmkl"):
        for level in (2, 3):
            cells = [r for r in runs["c6"]
                     if r["method"] == method and r["level"] == level]
            assert len(cells) == 5
            hits = sum(1 for r in cells
                       if r["mass"] >= 2 * r["share"] and r["acc"] >= 0.95)
            worst = max(r["secs"] for r in cells)
            assert hits >= 4, (f"{method} level {level}: only {hits}/5 seeds "
                               f"recovered the granularity")
            assert worst < 60.0, f"{method} run took {worst:.1f}s"
    _report(6, "both trainers concentrate weight on the discriminative "
               "level with test accuracy >= 0.95 (>= 4/5 seeds, < 60 s/run)")


def test_c07_misalignment_asymmetry(runs):
    concat_drop = float(np.mean([e[CONCATENATION] for e in runs["c7"]]))
    avg_drop = float(np.mean([e[AVERAGING] for e in runs["c7"]]))
    assert avg_drop <= concat_drop, \
        f"averaging dropped more ({avg_drop:.3f} > {concat_drop:.3f})"
    _report(7, f"under +-T/8 shifts the averaging variant degrades no more "
               f"than concatenation (drops {avg_drop:+.3f} vs "
               f"{concat_drop:+.3f}, 5-seed mean)")


def test_c08_gap_reduction():
    for seed, level in ((0, 1), (1, 2)):
        ds = build_synth(seed, level=level, per_class=15, depth=1)
        train, test = ds["train"], ds["test"]
        kcfg = KernelConfig("rbf", median_gamma(train))
        svm_cfg = TrainConfig()

        # depth-1 pipeline
        beta = np.array([1.0])
        for variant in VARIANTS:
            gram = gram_matrix(train, beta, variant, kcfg)
            model = train_one_vs_rest(gram, ds["y_train"], svm_cfg)
            cols = kernel_columns(test, train, beta, variant, kcfg)
            preds = predict(model, cols)

            # direct baseline: global mean vectors + one plain rbf SVM
            tr_stack = np.stack([t.root for t in train])
            te_stack = np.stack([t.root for t in test])
            K = _kernel_matrix(tr_stack, tr_stack, kcfg)
            iu = np.triu_indices(K.shape[0], k=1)
            K[(iu[1], iu[0])] = K[iu]
            from treemkl.kernels import GramMatrix
            direct_gram = GramMatrix(values=K,
                                     ids=tuple(t.video_id for t in train))
            direct_model = train_one_vs_rest(direct_gram, ds["y_train"],
                                             svm_cfg)
            direct_cols = _kernel_matrix(te_stack, tr_stack, kcfg)
            direct_preds = predict(direct_model, direct_cols)

            np.testing.assert_array_equal(model.alpha, direct_model.alpha)
            np.testing.assert_array_equal(preds, direct_preds)
        # root vectors equal the straight global means bit-for-bit
        for t, i in zip(test, ds["test_idx"]):
            np.testing.assert_array_equal(
                t.root, ds["sequences"][i].rows.mean(axis=0))
    _report(8, "depth-1 pipelines are bit-identical to the plain "
               "global-average-pooling + single-kernel SVM baseline")


def test_c09_duplication_invariance():
    ds = build_synth(3, level=2, per_class=15)
    train, test = ds["train"], ds["test"]
    h = ds["h"]
    kcfg = KernelConfig("rbf", median_gamma(train))
    for variant in VARIANTS:
        beta = to_simplex(np.random.default_rng(3).standard_normal(
            h.node_count))
        gram = gram_matrix(train, beta, variant, kcfg)
        model = train_one_vs_rest(gram, ds["y_train"])
        base_cols = kernel_columns(test, train, beta, variant, kcfg)
        base_preds = predict(model, base_cols)
        for repeat in (2, 3):
            dup_trees = []
            for i in ds["test_idx"]:
                seq = ds["sequences"][i]
                dup = type(seq)(video_id=seq.video_id, stream=seq.stream,
                                rows=np.repeat(seq.rows, repeat, axis=0))
                dup_trees.append(pool_sequence(dup, h))
            dup_cols = kernel_columns(dup_trees, train, beta, variant, kcfg)
            assert np.abs(dup_cols - base_cols).max() <= 1e-12
            np.testing.assert_array_equal(predict(model, dup_cols),
                                          base_preds)
    _report(9, "frame-duplicated videos receive identical kernel rows "
               "(<= 1e-12) and identical predictions")


def test_c10_cli_determinism(tmp_path):
    def pipeline(tag):
        root = tmp_path / tag
        argsets = [
            ["gen-synth", "--out", root / "data", "--classes", 3,
             "--per-class", 8, "--frames", 32, "--dim", 8,
             "--signal-level", 2, "--streams", 2, "--seed", 11],
            ["train-dmkl", "--manifest", root / "data" / "manifest.jsonl",
             "--out", root / "dm_a", "--depth", 3, "--variant", "avg",
             "--stream", "appearance", "--iters", 150,
             "--positive-fraction", 0.5, "--seed", 11],
            ["train-dmkl", "--manifest", root / "data" / "manifest.jsonl",
             "--out", root / "dm_m", "--depth", 3, "--variant", "avg",
             "--stream", "motion", "--iters", 150,
             "--positive-fraction", 0.5, "--seed", 11],
            ["train-em", "--manifest", root / "data" / "manifest.jsonl",
             "--out", root / "em_a", "--depth", 3, "--variant", "concat",
             "--stream", "appearance", "--max-iters", 5, "--seed", 11],
            ["eval", "--model", root / "dm_a" / "model.json",
             "--manifest", root / "data" / "manifest.jsonl",
             "--out", root / "eval_dm"],
            ["fuse-eval", "--model-a", root / "dm_a" / "model.json",
             "--model-m", root / "dm_m" / "model.json",
             "--manifest", root / "data" / "manifest.jsonl",
             "--out", root / "fuse", "--mode", "kernel-avg"],
            ["report", "--runs", root, "--out", root / "report"],
        ]
        for argv in argsets:
            assert cli_main([str(a) for a in argv]) == 0
        return root

    a = pipeline("a")
    b = pipeline("b")
    compared = 0
    for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
        pa, pb = a / rel, b / rel
        assert pb.is_file(), f"{rel} missing in rerun"
        assert pa.read_bytes() == pb.read_bytes(), f"{rel} differs"
        compared += 1
    assert compared > 30
    _report(10, f"CLI pipelines are byte-deterministic "
                f"({compared} files compared across reruns)")
