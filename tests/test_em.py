import dataclasses

import numpy as np
import pytest

from conftest import random_trees
from oracles import averaging_coeffs_oracle
from treemkl import em, errors, kernels
from treemkl.em import EmConfig, beta_objective_coeffs, em_fit
from treemkl.hierarchy import Hierarchy, pool_sequence
from treemkl.kernels import (
    AVERAGING,
    CONCATENATION,
    KernelConfig,
    NodeKernelCache,
    gram_matrix,
    kernel_columns,
    median_gamma,
    node_weights_pullback,
)
from treemkl.simplex import INIT_SCHEMES, SimplexWeights, to_simplex
from treemkl.svm import (TrainConfig, dual_objective, predict,
                         train_one_vs_rest)
from treemkl.synth import SynthSpec, gen_sequences

RBF = KernelConfig("rbf", 0.5)


def trained_instance(rng, n=10, depth=2):
    trees = random_trees(rng, n=n, depth=depth, frames=16, dim=4)
    labels = np.array([1 + (i % 2) for i in range(n)])
    cache = NodeKernelCache(trees, RBF)
    beta = np.full(cache.nodes, 1.0 / cache.nodes)
    gram = gram_matrix(trees, beta, CONCATENATION, RBF)
    model = train_one_vs_rest(gram, labels, TrainConfig(c_box=5.0))
    return trees, labels, cache, model


class TestBetaObjectiveCoeffs:
    def test_zero_alpha_gives_zero(self, rng):
        trees, labels, cache, model = trained_instance(rng)
        zero = dataclasses.replace(model, alpha=np.zeros_like(model.alpha))
        c = beta_objective_coeffs(zero, cache.aligned())
        np.testing.assert_array_equal(c, np.zeros(cache.nodes))
        m = beta_objective_coeffs(zero, cache.cross())
        np.testing.assert_array_equal(m, np.zeros((cache.nodes, cache.nodes)))

    def test_concat_coeffs_nonnegative(self, rng):
        # each coefficient is a quadratic form in a PSD node kernel
        for _ in range(10):
            trees, labels, cache, model = trained_instance(rng)
            c = beta_objective_coeffs(model, cache.aligned())
            assert c.min() >= -1e-10

    def test_single_node_scalar(self, rng):
        trees, labels, cache, model = trained_instance(rng, depth=1)
        c = beta_objective_coeffs(model, cache.aligned())
        assert c.shape == (1,)
        signed = model.alpha * model.signs
        expected = 0.5 * sum(s @ cache.aligned()[:, :, 0] @ s for s in signed)
        np.testing.assert_allclose(c[0], expected)
        assert c[0] >= 0

    def test_averaging_matrix_psd(self, rng):
        for _ in range(10):
            trees, labels, cache, model = trained_instance(rng)
            m = beta_objective_coeffs(model, cache.cross())
            np.testing.assert_allclose(m, m.T, atol=1e-12)
            assert np.linalg.eigvalsh(m)[0] >= -1e-8

    def test_averaging_matches_node_pair_oracle(self, rng):
        trees, labels, cache, model = trained_instance(rng, n=12, depth=3)
        m = beta_objective_coeffs(model, cache.cross())
        ref = averaging_coeffs_oracle(model.alpha, labels,
                                      np.stack([t.vectors for t in trees]),
                                      RBF.gamma)
        np.testing.assert_allclose(m, ref, rtol=0, atol=1e-10)

    def test_averaging_gradient_from_half_contracted_table(self, rng):
        # -2 c(P) is the pullback of the cross-tensor coefficients
        trees, labels, cache, model = trained_instance(rng, n=12, depth=3)
        beta = to_simplex(rng.standard_normal(cache.nodes))
        got = -2.0 * beta_objective_coeffs(model,
                                           cache.half_contracted(beta))
        coeffs = averaging_coeffs_oracle(model.alpha, labels,
                                         np.stack([t.vectors for t in trees]),
                                         RBF.gamma)
        for ref in (-(coeffs + coeffs.T) @ beta,
                    -node_weights_pullback(beta_objective_coeffs(
                        model, cache.cross()), beta, AVERAGING)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_half_contracted_moves_linearly_along_a_step(self, rng):
        trees, labels, cache, model = trained_instance(rng, n=12, depth=3)
        beta = to_simplex(rng.standard_normal(cache.nodes))
        table = cache.half_contracted(beta)
        for v, eta in ((0, 0.5), (4, 0.125), (6, 1.0)):
            vertex = np.zeros(cache.nodes)
            vertex[v] = 1.0
            node_slice = cache.node_slice(v)
            expected = cache.half_contracted((1.0 - eta) * beta + eta * vertex)
            # the step as written and in em_fit's in-place order
            for stepped in ((1.0 - eta) * table + eta * node_slice,
                            (table - node_slice) * (1.0 - eta) + node_slice):
                np.testing.assert_allclose(stepped, expected, rtol=0,
                                           atol=1e-13)

    def test_averaging_rejects_node_major_layout(self, rng):
        trees, labels, cache, model = trained_instance(rng)
        for node_major in (cache.cross().transpose(2, 3, 0, 1),
                           cache.aligned().transpose(2, 0, 1)):
            with pytest.raises(errors.ShapeMismatch):
                beta_objective_coeffs(model, node_major)


def synth_trees(seed, level=2, depth=None, per_class=25):
    spec = SynthSpec(num_classes=4, per_class=per_class, frames=32, dim=16,
                     signal_level=level, amplitude=1.5, noise_sigma=0.5,
                     seed=seed)
    data = gen_sequences(spec)
    h = Hierarchy(depth if depth is not None else level + 1)
    trees = [pool_sequence(s, h) for s in data.sequences["appearance"]]
    tr, te = data.split_indices("train"), data.split_indices("test")
    return ([trees[i] for i in tr], data.labels[tr],
            [trees[i] for i in te], data.labels[te], h)


class TestEmFit:
    def test_depth1_equals_plain_svm(self, rng):
        train, y_train, test, y_test, h = synth_trees(0, level=1, depth=1)
        gamma = median_gamma(train)
        kcfg = KernelConfig("rbf", gamma)
        res = em_fit(train, y_train, CONCATENATION, kcfg)
        np.testing.assert_array_equal(res.beta, [1.0])
        gram = gram_matrix(train, np.array([1.0]), CONCATENATION, kcfg)
        plain = train_one_vs_rest(gram, y_train)
        np.testing.assert_array_equal(res.model.alpha, plain.alpha)
        np.testing.assert_array_equal(res.model.b, plain.b)

    def test_concentrates_on_signal_level(self):
        hits = 0
        for seed in range(3):
            train, y_train, test, y_test, h = synth_trees(seed, level=2)
            kcfg = KernelConfig("rbf", median_gamma(train))
            res = em_fit(train, y_train, CONCATENATION, kcfg,
                         EmConfig(max_iters=12))
            mass = res.beta[h.level_slice(2)].sum()
            share = 2 / h.node_count
            if mass >= 2 * share:
                hits += 1
        assert hits >= 2

    def test_trace_non_increasing(self):
        for variant in (CONCATENATION, AVERAGING):
            train, y_train, *_ = synth_trees(1, level=2)
            kcfg = KernelConfig("rbf", median_gamma(train))
            res = em_fit(train, y_train, variant, kcfg, EmConfig(max_iters=10))
            assert np.all(np.diff(res.objective_trace) <= 1e-8)

    def test_averaging_objective_is_dual_value_at_final_beta(self):
        # the table em_fit moves along each step stays half_contracted(beta)
        train, y_train, *_ = synth_trees(1, level=2)
        kcfg = KernelConfig("rbf", median_gamma(train))
        res = em_fit(train, y_train, AVERAGING, kcfg, EmConfig(max_iters=10))
        assert res.iterations >= 2
        gram = gram_matrix(train, res.beta, AVERAGING, kcfg)
        expected = -sum(dual_objective(gram, a, y) for a, y in
                        zip(res.model.alpha, res.model.signs))
        assert res.objective_trace[-1] == pytest.approx(expected, rel=1e-10)

    def test_beta_stays_on_simplex(self):
        train, y_train, *_ = synth_trees(2, level=2)
        kcfg = KernelConfig("rbf", median_gamma(train))
        res = em_fit(train, y_train, AVERAGING, kcfg, EmConfig(max_iters=6))
        assert res.beta.min() >= 0.0
        assert abs(res.beta.sum() - 1.0) <= 1e-12

    def test_zero_iters_is_plain_svm_at_config_start(self):
        train, y_train, test, y_test, h = synth_trees(0, level=2)
        kcfg = KernelConfig("rbf", median_gamma(train))
        em_cfg = EmConfig(max_iters=0, beta_init="random", seed=5)
        start = SimplexWeights.init(h.node_count, "random", 5).beta
        res = em_fit(train, y_train, AVERAGING, kcfg, em_cfg)
        gram = gram_matrix(train, start, AVERAGING, kcfg)
        plain = train_one_vs_rest(gram, y_train)
        k_cols = kernel_columns(test, train, start, AVERAGING, kcfg)
        np.testing.assert_array_equal(predict(res.model, k_cols),
                                      predict(plain, k_cols))
        np.testing.assert_array_equal(res.model.alpha, plain.alpha)

    @pytest.mark.parametrize("variant", [AVERAGING, CONCATENATION])
    def test_tables_over_limit_rejected(self, rng, monkeypatch, variant):
        trees = random_trees(rng, n=8, depth=3)
        labels = np.array([1 + (i % 2) for i in range(8)])
        monkeypatch.setattr(kernels, "_DENSE_LIMIT", 8 * 8 * 7 - 1)
        with pytest.raises(errors.ValidationError,
                           match="8 videos and 7 nodes .* 3584 bytes"):
            em_fit(trees, labels, variant, RBF)
        monkeypatch.setattr(kernels, "_DENSE_LIMIT", 8 * 8 * 7)
        em_fit(trees, labels, variant, RBF, EmConfig(max_iters=1))

    def test_single_class_rejected(self, rng):
        trees = random_trees(rng, n=6, depth=2)
        with pytest.raises(errors.SingleClass):
            em_fit(trees, np.ones(6, dtype=int), CONCATENATION, RBF)

    @pytest.mark.parametrize("variant", [CONCATENATION, AVERAGING])
    @pytest.mark.parametrize("n_labels", [199, 201])
    def test_label_count_must_match_trees(self, rng, monkeypatch, variant,
                                          n_labels):
        trees = random_trees(rng, n=200, depth=4)
        labels = np.array([1 + (i % 2) for i in range(n_labels)])

        def no_cache(*args):
            raise AssertionError("the cache was built before the check")

        monkeypatch.setattr(em, "NodeKernelCache", no_cache)
        with pytest.raises(errors.ShapeMismatch,
                           match=f"{n_labels} labels for 200 videos"):
            em_fit(trees, labels, variant, RBF)

    def test_start_is_simplex_weights_init(self, rng):
        trees = random_trees(rng, n=8, depth=3)
        labels = np.array([1 + (i % 2) for i in range(8)])
        for scheme in INIT_SCHEMES:
            res = em_fit(trees, labels, AVERAGING, RBF,
                         EmConfig(max_iters=0, beta_init=scheme, seed=5))
            np.testing.assert_array_equal(
                res.beta_trace[0], SimplexWeights.init(7, scheme, 5).beta)

    def test_unknown_beta_init_rejected(self):
        with pytest.raises(errors.ValidationError):
            EmConfig(beta_init="bogus")


class TestEmStops:
    """The early stops of ``em_fit`` on a small problem (8 videos per
    class, depth 3), told apart by counting one-vs-rest solves: each
    iteration solves one candidate per step length it tries."""

    @pytest.fixture
    def fit(self, monkeypatch):
        train, y_train, *_ = synth_trees(0, level=3, depth=3, per_class=8)
        kcfg = KernelConfig("rbf", median_gamma(train))
        solved = []

        def spy(*args):
            solved.append(train_one_vs_rest(*args))
            return solved[-1]

        monkeypatch.setattr(em, "train_one_vs_rest", spy)
        return lambda variant, cfg: (em_fit(train, y_train, variant, kcfg,
                                            cfg), solved)

    def test_vertex_reached(self, fit):
        res, solved = fit(AVERAGING, EmConfig(eta=1.0))
        assert res.iterations == 1
        np.testing.assert_array_equal(res.beta, np.eye(7)[5])
        # no candidate is tried once the step's vertex is beta itself
        assert len(solved) == res.iterations + 1

    @pytest.mark.parametrize("variant", [AVERAGING, CONCATENATION])
    def test_param_tol(self, fit, variant):
        res, solved = fit(variant, EmConfig(param_tol=1e9))
        assert res.iterations == 1
        assert len(solved) == 2 and res.model is solved[-1]
        assert np.count_nonzero(res.beta) == 7

    def test_no_accepted_step(self, fit, monkeypatch):
        monkeypatch.setattr(em, "MAX_HALVINGS", 0)
        res, solved = fit(CONCATENATION, EmConfig(eta=1.0))
        assert res.iterations >= 1
        assert np.count_nonzero(res.beta) == 1
        # one more candidate than accepted steps, and it was rejected
        assert len(solved) == res.iterations + 2
        assert res.model is solved[-2]
