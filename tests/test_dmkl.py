import tracemalloc

import numpy as np
import pytest

from conftest import random_trees
from oracles import central_difference
from treemkl import dmkl, errors, kernels
from treemkl.dmkl import (
    AdamState,
    ContrastiveConfig,
    _PairTable,
    contrastive_loss,
    dmkl_fit,
    dmkl_then_svm,
    loss_grad,
    pair_moments,
)
from treemkl.hierarchy import Hierarchy, pool_sequence
from treemkl.kernels import (
    AVERAGING,
    CONCATENATION,
    KernelConfig,
    NodeKernelCache,
    combined_kernel,
    gram_matrix,
    kernel_columns,
    median_gamma,
    node_weights,
    node_weights_pullback,
)
from treemkl.simplex import (
    SimplexWeights,
    backprop_through_simplex,
    to_simplex,
)
from treemkl.svm import TrainConfig, predict, train_one_vs_rest
from treemkl.synth import SynthSpec, gen_sequences

RBF = KernelConfig("rbf", 0.6)


def all_pairs(labels):
    """Every pair of ``labels`` with its +/-1 label, from the contrastive
    route's pair table."""
    table = _PairTable(np.asarray(labels))
    return table.i, table.j, table.y


class TestPairLabels:
    def test_definition(self):
        i, j, y = all_pairs([1, 1, 2])
        got = {(int(a), int(b)): int(c) for a, b, c in zip(i, j, y)}
        assert got == {(0, 1): 1, (0, 2): -1, (1, 2): -1}

    def test_all_same_class(self):
        _, _, y = all_pairs([3, 3, 3, 3])
        assert np.all(y == 1.0)
        assert y.size == 6

    def test_too_few(self, rng):
        trees = random_trees(rng, n=1, depth=2)
        with pytest.raises(errors.TooFewVideos):
            dmkl_fit(trees, np.array([1]), AVERAGING, ContrastiveConfig(),
                     RBF)

    def test_pair_supply_exceeds_label_count(self):
        # n(n-1)/2 supervision signals from n labels
        labels = np.arange(20) % 4 + 1
        _, _, y = all_pairs(labels)
        assert y.size == 20 * 19 // 2 > labels.size


class TestContrastiveLoss:
    def test_perfect_agreement_is_zero(self):
        k = np.array([1.0, 1.0, 0.0, 0.0])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        assert contrastive_loss(k, y) == 0.0

    def test_positive_half_way(self):
        assert contrastive_loss(np.array([0.5]), np.array([1.0])) == 0.25

    def test_negative_half_way(self):
        assert contrastive_loss(np.array([0.5]), np.array([-1.0])) == 0.25

    def test_margin_forgives_small_negatives(self):
        k = np.array([0.2])
        assert contrastive_loss(k, np.array([-1.0]), margin=0.3) == 0.0

    def test_nonnegative(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 50))
            k = rng.uniform(0, 1, n)
            y = rng.choice([-1.0, 1.0], n)
            assert contrastive_loss(k, y, margin=float(rng.uniform(0, 0.5))) >= 0


def fd_reference_loss(trees, pairs, raw, variant, cfg, margin):
    """Independent loss path: per-pair combined kernels + the loss formula."""
    beta = to_simplex(raw)
    i, j, y = pairs
    k_vals = np.array([combined_kernel(trees[a], trees[b], beta, variant, cfg)
                       for a, b in zip(i, j)])
    pos = (1.0 - k_vals) ** 2
    neg = np.maximum(0.0, k_vals - margin) ** 2
    return float(np.mean(np.where(y > 0, pos, neg)))


class TestLossGrad:
    def test_zero_at_perfect_configuration(self):
        # one node, all same class, identical trees: kernel is exactly 1
        from treemkl.hierarchy import PooledTree
        base = np.array([[0.5, -0.2]])
        trees = [PooledTree(video_id=f"v{i}", stream="appearance", depth=1,
                            vectors=base) for i in range(3)]
        cache = NodeKernelCache(trees, RBF)
        w = SimplexWeights.uniform(1)
        loss, grad = loss_grad(*all_pairs([1, 1, 1]), cache, w, CONCATENATION)
        assert loss <= 1e-30
        np.testing.assert_allclose(grad, np.zeros(1), atol=1e-16)

    def test_matches_finite_differences(self, rng):
        for trial in range(30):
            depth = int(rng.integers(1, 4))
            trees = random_trees(rng, n=5, depth=depth, frames=16, dim=4)
            labels = rng.integers(1, 3, size=5)
            labels[0], labels[1] = 1, 2
            pairs = all_pairs(labels)
            cache = NodeKernelCache(trees, RBF)
            raw = rng.standard_normal(trees[0].node_count)
            w = SimplexWeights(raw)
            margin = float(rng.choice([0.0, 0.2]))
            for variant in (CONCATENATION, AVERAGING):
                loss, grad = loss_grad(*pairs, cache, w, variant, margin)
                ref = fd_reference_loss(trees, pairs, raw, variant, RBF, margin)
                np.testing.assert_allclose(loss, ref, rtol=1e-10, atol=1e-12)
                fd = central_difference(
                    lambda r: fd_reference_loss(trees, pairs, r, variant,
                                                RBF, margin), raw)
                denom = max(float(np.linalg.norm(fd)), 1e-10)
                assert np.linalg.norm(grad - fd) / denom < 1e-5

    def test_uniform_point_concat_structure(self, rng):
        # at uniform weights the raw gradient is the centered node-kernel
        # response scaled by 1/n (the uniform-point softmax Jacobian)
        trees = random_trees(rng, n=2, depth=2, frames=8, dim=3)
        cache = NodeKernelCache(trees, RBF)
        w = SimplexWeights.uniform(3)
        _, grad = loss_grad(*all_pairs([1, 2]), cache, w, CONCATENATION)
        kappa = np.array([combined_kernel(trees[0], trees[1],
                                          np.eye(3)[m], CONCATENATION, RBF)
                          for m in range(3)])
        k = kappa @ w.beta
        de_dk = 2.0 * max(0.0, k)  # single negative pair
        de_dbeta = de_dk * kappa
        expected = (de_dbeta - de_dbeta.mean()) / 3.0
        np.testing.assert_allclose(grad, expected, atol=1e-12)


class TestPairMoments:
    @pytest.mark.parametrize("fraction", [0.5, None])
    @pytest.mark.parametrize("variant", [CONCATENATION, AVERAGING])
    def test_match_loss_grad_oracle(self, rng, monkeypatch, variant,
                                    fraction):
        # 9 cols x 7 x 7 nodes = 441 elements per row video: averaging
        # streams the 9 row videos 2 at a time, the last block ragged
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 1000)
        trees = random_trees(rng, n=9, depth=3, frames=16, dim=3)
        labels = np.array([1, 1, 2, 3, 2, 1, 3, 3, 2])
        table = _PairTable(labels)
        cache = NodeKernelCache(trees, RBF)
        oracle = NodeKernelCache(trees, RBF)
        A, b, c = pair_moments(cache, table, variant, fraction)
        np.testing.assert_allclose(A, A.T, rtol=0,
                                   atol=1e-14 * np.abs(A).max())
        assert np.linalg.eigvalsh(A)[0] >= -1e-10 * np.trace(A)
        for _ in range(5):
            weights = SimplexWeights(rng.standard_normal(7))
            beta = weights.beta
            w = node_weights(beta, variant)
            loss = w @ A @ w - 2.0 * (b @ w) + c
            grad = backprop_through_simplex(node_weights_pullback(
                2.0 * (A @ w - b), beta, variant), beta)
            if fraction is None:
                want_loss, want_grad = loss_grad(table.i, table.j, table.y,
                                                 oracle, weights, variant)
            else:
                (pos_loss, pos_grad), (neg_loss, neg_grad) = [
                    loss_grad(table.i[s], table.j[s], table.y[s], oracle,
                              weights, variant)
                    for s in (table.y > 0, table.y < 0)]
                want_loss = fraction * pos_loss + (1 - fraction) * neg_loss
                want_grad = fraction * pos_grad + (1 - fraction) * neg_grad
            assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
            assert (np.linalg.norm(grad - want_grad)
                    <= 1e-12 * np.linalg.norm(want_grad))

    def test_one_polarity_cannot_be_rebalanced(self, rng):
        trees = random_trees(rng, n=3, depth=2)
        cache = NodeKernelCache(trees, RBF)
        with pytest.raises(errors.TooFewVideos):
            pair_moments(cache, _PairTable(np.array([1, 2, 3])),
                         CONCATENATION, 0.5)

    def test_moment_matrix_over_limit_rejected_unallocated(self, rng):
        # depth 7 averaging: A would hold 127**4 elements, 2 GB
        trees = random_trees(rng, n=3, depth=7, frames=64, dim=2)
        labels = np.array([1, 1, 2])
        cfg = ContrastiveConfig(iterations=1)
        tracemalloc.start()
        try:
            with pytest.raises(errors.ValidationError,
                               match="moment matrix"):
                dmkl_fit(trees, labels, AVERAGING, cfg, RBF)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 24
        res = dmkl_fit(trees, labels, CONCATENATION, cfg, RBF)
        assert res.weights.beta.size == 127

    def test_concatenation_table_over_limit_rejected(self, rng, monkeypatch):
        # the aligned table, not the (7, 7) moment matrix, is over the limit
        trees = random_trees(rng, n=8, depth=3)
        labels = np.array([1 + (i % 2) for i in range(8)])
        cfg = ContrastiveConfig(iterations=1)
        monkeypatch.setattr(kernels, "_DENSE_LIMIT", 8 * 8 * 7 - 1)
        with pytest.raises(errors.ValidationError,
                           match="8 videos and 7 nodes .* 3584 bytes"):
            dmkl_fit(trees, labels, CONCATENATION, cfg, RBF)
        monkeypatch.setattr(kernels, "_DENSE_LIMIT", 8 * 8 * 7)
        dmkl_fit(trees, labels, CONCATENATION, cfg, RBF)

    def test_non_rbf_kernel_rejected_before_cache(self, rng, monkeypatch):
        trees = random_trees(rng, n=4, depth=2)

        def no_cache(*args, **kwargs):
            raise AssertionError("cache built")

        monkeypatch.setattr(dmkl, "NodeKernelCache", no_cache)
        with pytest.raises(errors.ValidationError, match="'linear'"):
            dmkl_fit(trees, np.array([1, 1, 2, 2]), AVERAGING,
                     ContrastiveConfig(), KernelConfig("linear"))


class TestAdamState:
    def test_first_step_magnitude(self):
        adam = AdamState.zeros(3)
        delta = adam.update(np.array([1.0, -2.0, 0.5]), learning_rate=0.1)
        # bias-corrected first step moves each coordinate by ~lr against
        # the gradient sign
        np.testing.assert_allclose(np.abs(delta), 0.1, rtol=1e-6)
        assert np.all(np.sign(delta) == [-1.0, 1.0, -1.0])

    def test_shape_check(self):
        adam = AdamState.zeros(3)
        with pytest.raises(errors.ShapeMismatch):
            adam.update(np.zeros(4), 0.1)


def synth_setup(seed, level=2, amplitude=1.5, per_class=25):
    spec = SynthSpec(num_classes=4, per_class=per_class, frames=32, dim=16,
                     signal_level=level, amplitude=amplitude,
                     noise_sigma=0.5, seed=seed)
    data = gen_sequences(spec)
    h = Hierarchy(level + 1)
    trees = [pool_sequence(s, h) for s in data.sequences["appearance"]]
    tr, te = data.split_indices("train"), data.split_indices("test")
    return ([trees[i] for i in tr], data.labels[tr],
            [trees[i] for i in te], data.labels[te], h)


class TestDmklFit:
    def test_unknown_beta_init_rejected(self):
        with pytest.raises(errors.ValidationError):
            ContrastiveConfig(beta_init="bogus")

    def test_zero_learning_rate_is_inert(self):
        train, y_train, *_ = synth_setup(0)
        kcfg = KernelConfig("rbf", median_gamma(train))
        cfg = ContrastiveConfig(learning_rate=0.0, iterations=20, seed=3)
        res = dmkl_fit(train, y_train, CONCATENATION, cfg, kcfg)
        np.testing.assert_array_equal(res.weights.beta,
                                      SimplexWeights.uniform(7).beta)
        assert np.all(res.loss_trace == res.loss_trace[0])

    def test_loss_halves_on_separable_data(self):
        train, y_train, *_ = synth_setup(0, amplitude=2.0)
        kcfg = KernelConfig("rbf", median_gamma(train))
        cfg = ContrastiveConfig(seed=0, positive_fraction=0.5)
        res = dmkl_fit(train, y_train, AVERAGING, cfg, kcfg)
        assert res.loss_trace.size == cfg.iterations + 1
        assert res.loss_trace[-1] < 0.5 * res.loss_trace[0]

    def test_concentrates_like_em(self):
        # direction agreement with the alternating route: mass gathers on
        # the signal level (the em counterpart is tested in test_em)
        hits = 0
        for seed in range(3):
            train, y_train, _, _, h = synth_setup(seed)
            kcfg = KernelConfig("rbf", median_gamma(train))
            cfg = ContrastiveConfig(seed=seed, positive_fraction=0.5,
                                    iterations=2000)
            res = dmkl_fit(train, y_train, CONCATENATION, cfg, kcfg)
            mass = res.weights.beta[h.level_slice(2)].sum()
            if mass >= 2 * 2 / h.node_count:
                hits += 1
        assert hits >= 2

    def test_weights_stay_on_simplex(self):
        train, y_train, *_ = synth_setup(1)
        kcfg = KernelConfig("rbf", median_gamma(train))
        res = dmkl_fit(train, y_train, AVERAGING,
                       ContrastiveConfig(iterations=50, seed=1), kcfg)
        beta = res.weights.beta
        assert beta.min() >= 0.0 and beta.max() <= 1.0
        assert abs(beta.sum() - 1.0) <= 1e-9

    def test_deterministic_under_seed(self):
        train, y_train, *_ = synth_setup(2)
        kcfg = KernelConfig("rbf", median_gamma(train))
        cfg = ContrastiveConfig(iterations=40, seed=9)
        r1 = dmkl_fit(train, y_train, CONCATENATION, cfg, kcfg)
        r2 = dmkl_fit(train, y_train, CONCATENATION, cfg, kcfg)
        np.testing.assert_array_equal(r1.weights.raw, r2.weights.raw)
        np.testing.assert_array_equal(r1.loss_trace, r2.loss_trace)

    def test_trace_is_the_exact_loss(self):
        train, y_train, *_ = synth_setup(4, per_class=5)
        kcfg = KernelConfig("rbf", median_gamma(train))
        cache = NodeKernelCache(train, kcfg)
        i, j, y = all_pairs(y_train)
        res = dmkl_fit(train, y_train, AVERAGING,
                       ContrastiveConfig(iterations=30, learning_rate=0.05),
                       kcfg)
        assert res.loss_trace.size == res.beta_trace.shape[0] == 31
        for step in (0, 30):
            want, _ = loss_grad(i, j, y, cache,
                                SimplexWeights(np.log(res.beta_trace[step])),
                                AVERAGING)
            assert abs(res.loss_trace[step] - want) <= 1e-12 * want

    def test_seed_draws_the_random_start(self):
        train, y_train, *_ = synth_setup(2)
        kcfg = KernelConfig("rbf", median_gamma(train))
        cfg = ContrastiveConfig(iterations=0, seed=5, beta_init="random")
        res = dmkl_fit(train, y_train, CONCATENATION, cfg, kcfg)
        np.testing.assert_array_equal(res.weights.beta,
                                      SimplexWeights.init(7, "random", 5).beta)

    def test_single_class_rejected(self, rng):
        trees = random_trees(rng, n=4, depth=2)
        with pytest.raises(errors.SingleClass):
            dmkl_fit(trees, np.ones(4, dtype=int),
                     CONCATENATION, ContrastiveConfig(iterations=1), RBF)

    @pytest.mark.parametrize("variant", [CONCATENATION, AVERAGING])
    @pytest.mark.parametrize("n_labels", [19, 21])
    def test_label_count_must_match_trees(self, rng, monkeypatch, variant,
                                          n_labels):
        trees = random_trees(rng, n=20, depth=2)
        labels = np.array([1 + (i % 2) for i in range(n_labels)])

        def no_cache(*args):
            raise AssertionError("the cache was built before the check")

        monkeypatch.setattr(dmkl, "NodeKernelCache", no_cache)
        with pytest.raises(errors.ShapeMismatch,
                           match=f"{n_labels} labels for 20 videos"):
            dmkl_fit(trees, labels, variant, ContrastiveConfig(iterations=1),
                     RBF)


class TestDmklThenSvm:
    """The one-vs-rest machines ``dmkl_fit`` trains on its frozen weights,
    and ``dmkl_then_svm``, its former name."""

    @pytest.mark.parametrize("variant", [CONCATENATION, AVERAGING])
    def test_model_is_svm_on_gram_matrix(self, variant):
        train, y_train, *_ = synth_setup(7, per_class=6)
        kcfg = KernelConfig("rbf", median_gamma(train))
        svm_cfg = TrainConfig(c_box=3.0)
        res = dmkl_fit(train, y_train, variant,
                       ContrastiveConfig(iterations=40, seed=7), kcfg, svm_cfg)
        gram = gram_matrix(train, res.weights.beta, variant, kcfg)
        plain = train_one_vs_rest(gram, y_train, svm_cfg)
        np.testing.assert_array_equal(res.model.alpha, plain.alpha)
        np.testing.assert_array_equal(res.model.b, plain.b)
        assert res.model.train_ids == gram.ids

    def test_former_name_returns_the_same_result(self):
        train, y_train, *_ = synth_setup(8, per_class=6)
        kcfg = KernelConfig("rbf", median_gamma(train))
        args = (train, y_train, AVERAGING,
                ContrastiveConfig(iterations=30, seed=8), kcfg,
                TrainConfig(c_box=2.0))
        fit, alias = dmkl_fit(*args), dmkl_then_svm(*args)
        for name in ("loss_trace", "beta_trace"):
            np.testing.assert_array_equal(getattr(alias, name),
                                          getattr(fit, name))
        np.testing.assert_array_equal(alias.weights.raw, fit.weights.raw)
        for name in ("alpha", "b", "labels", "class_ids"):
            np.testing.assert_array_equal(getattr(alias.model, name),
                                          getattr(fit.model, name))

    def test_depth1_equals_gap_svm(self):
        spec = SynthSpec(num_classes=3, per_class=12, frames=16, dim=8,
                         signal_level=1, amplitude=1.5, noise_sigma=0.5,
                         seed=4)
        data = gen_sequences(spec)
        h = Hierarchy(1)
        trees = [pool_sequence(s, h) for s in data.sequences["appearance"]]
        tr, te = data.split_indices("train"), data.split_indices("test")
        train, test = [trees[i] for i in tr], [trees[i] for i in te]
        kcfg = KernelConfig("rbf", median_gamma(train))
        res = dmkl_fit(train, data.labels[tr], AVERAGING,
                       ContrastiveConfig(iterations=30, seed=4), kcfg)
        np.testing.assert_array_equal(res.weights.beta, [1.0])
        gram = gram_matrix(train, np.array([1.0]), AVERAGING, kcfg)
        plain = train_one_vs_rest(gram, data.labels[tr])
        np.testing.assert_array_equal(res.model.alpha, plain.alpha)
        cols = kernel_columns(test, train, np.array([1.0]), AVERAGING, kcfg)
        np.testing.assert_array_equal(predict(res.model, cols),
                                      predict(plain, cols))

    def test_separable_test_accuracy(self):
        train, y_train, test, y_test, _ = synth_setup(5, per_class=30)
        kcfg = KernelConfig("rbf", median_gamma(train))
        res = dmkl_fit(train, y_train, AVERAGING,
                       ContrastiveConfig(seed=5, iterations=1000,
                                         positive_fraction=0.5), kcfg)
        cols = kernel_columns(test, train, res.weights.beta, AVERAGING, kcfg)
        assert np.mean(predict(res.model, cols) == y_test) >= 0.95

    def test_builds_cross_tensor_once(self, monkeypatch):
        # the moments and the Gram matrix stream the cross tensor's row
        # blocks; neither builds it
        train, y_train, *_ = synth_setup(3, per_class=6)
        kcfg = KernelConfig("rbf", median_gamma(train))
        calls = []
        monkeypatch.setattr(NodeKernelCache, "cross",
                            lambda cache: calls.append(cache))
        dmkl_fit(train, y_train, AVERAGING,
                 ContrastiveConfig(iterations=5, seed=3), kcfg)
        assert calls == []

    def test_rerun_bit_identical(self):
        train, y_train, *_ = synth_setup(6)
        kcfg = KernelConfig("rbf", median_gamma(train))
        cfg = ContrastiveConfig(iterations=60, seed=6)
        r1 = dmkl_fit(train, y_train, CONCATENATION, cfg, kcfg)
        r2 = dmkl_fit(train, y_train, CONCATENATION, cfg, kcfg)
        np.testing.assert_array_equal(r1.model.alpha, r2.model.alpha)
        np.testing.assert_array_equal(r1.model.b, r2.model.b)
        np.testing.assert_array_equal(r1.weights.beta, r2.weights.beta)
