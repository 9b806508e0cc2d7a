import dataclasses

import numpy as np
import pytest

from conftest import random_trees
from oracles import (aligned, averaging_coeffs_oracle, pack_pairs,
                     unpack_pairs)
from treemkl import em, errors, kernels
from treemkl.em import (BACKTRACK_RANGE, EmConfig, backtracked_eta,
                        beta_objective_coeffs, em_fit)
from treemkl.hierarchy import Hierarchy, PooledTree, pool_sequence
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
from treemkl.svm import (SvmModel, TrainConfig, dual_objective, predict,
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
        c = beta_objective_coeffs(zero, pack_pairs(aligned(cache)))
        np.testing.assert_array_equal(c, np.zeros(cache.nodes))
        m = beta_objective_coeffs(zero, pack_pairs(cache.cross()))
        np.testing.assert_array_equal(m, np.zeros((cache.nodes, cache.nodes)))

    def test_concat_coeffs_nonnegative(self, rng):
        # each coefficient is a quadratic form in a PSD node kernel
        for _ in range(10):
            trees, labels, cache, model = trained_instance(rng)
            c = beta_objective_coeffs(model, pack_pairs(aligned(cache)))
            assert c.min() >= -1e-10

    def test_single_node_scalar(self, rng):
        trees, labels, cache, model = trained_instance(rng, depth=1)
        c = beta_objective_coeffs(model, pack_pairs(aligned(cache)))
        assert c.shape == (1,)
        signed = model.alpha * model.signs
        expected = 0.5 * sum(s @ aligned(cache)[:, :, 0] @ s for s in signed)
        np.testing.assert_allclose(c[0], expected)
        assert c[0] >= 0

    def test_averaging_matrix_psd(self, rng):
        for _ in range(10):
            trees, labels, cache, model = trained_instance(rng)
            m = beta_objective_coeffs(model, pack_pairs(cache.cross()))
            np.testing.assert_allclose(m, m.T, atol=1e-12)
            assert np.linalg.eigvalsh(m)[0] >= -1e-8

    def test_averaging_matches_node_pair_oracle(self, rng):
        trees, labels, cache, model = trained_instance(rng, n=12, depth=3)
        m = beta_objective_coeffs(model, pack_pairs(cache.cross()))
        ref = averaging_coeffs_oracle(model.alpha, labels,
                                      np.stack([t.vectors for t in trees]),
                                      RBF.gamma)
        np.testing.assert_allclose(m, ref, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("variant", [CONCATENATION, AVERAGING])
    def test_level_gradient_is_node_gradient_pulled_through_tie(self, rng,
                                                                variant):
        # d/dgamma of the objective at beta = M gamma is M' times its
        # node gradient; both sides from the coefficients of em_fit's
        # level table and of the per-node table
        trees, labels, cache, model = trained_instance(rng, n=12, depth=3)
        tie = Hierarchy(3).level_matrix
        gamma = to_simplex(rng.standard_normal(3))
        beta = tie @ gamma
        table = cache.level_table(tie, variant)
        got = -node_weights_pullback(
            beta_objective_coeffs(model, table).ravel(), gamma, variant)
        if variant == CONCATENATION:
            node_grad = -beta_objective_coeffs(model,
                                               pack_pairs(aligned(cache)))
        else:
            coeffs = averaging_coeffs_oracle(
                model.alpha, labels, np.stack([t.vectors for t in trees]),
                RBF.gamma)
            node_grad = -(coeffs + coeffs.T) @ beta
        ref = tie.T @ node_grad
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("variant", [CONCATENATION, AVERAGING])
    def test_level_table_gram_is_combined_kernel_at_tied_beta(self, rng,
                                                              variant):
        # every Gram em_fit solves on, start and candidates alike, is the
        # fixed table contracted with node_weights(gamma)
        trees, labels, cache, model = trained_instance(rng, n=12, depth=3)
        tie = Hierarchy(3).level_matrix
        table = cache.level_table(tie, variant)
        for gamma in (to_simplex(rng.standard_normal(3)), np.eye(3)[2],
                      np.array([0.5, 0.0, 0.5])):
            got = unpack_pairs(table @ kernels.node_weights(gamma, variant))
            want = cache.combined(tie @ gamma, variant)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_rejects_tables_not_packed_over_video_pairs(self, rng):
        # node-major layouts, and the dense (n, n, ...) pair-major ones
        trees, labels, cache, model = trained_instance(rng)
        for unpacked in (cache.cross().transpose(2, 3, 0, 1),
                         aligned(cache).transpose(2, 0, 1), cache.cross(),
                         aligned(cache), pack_pairs(aligned(cache))[:-1]):
            with pytest.raises(errors.ShapeMismatch, match="55 video pairs"):
                beta_objective_coeffs(model, unpacked)

    @pytest.mark.parametrize("n", [1, 2, 9, 30])
    def test_packed_rows_match_dense_quadratic_forms(self, rng, n):
        # each off-diagonal pair counted twice, the diagonal once: the
        # quadratic forms of the dense symmetric tables, per trailing entry
        labels = np.arange(n) % 3 + 1
        classes = np.unique(labels)
        model = SvmModel(train_ids=[f"v{i}" for i in range(n)],
                         labels=labels, class_ids=classes,
                         alpha=rng.uniform(0.0, 2.0, (classes.size, n)),
                         b=np.zeros(classes.size))
        dense = rng.standard_normal((n, n, 2, 3))
        dense = dense + dense.transpose(1, 0, 2, 3)
        signed = model.alpha * model.signs
        want = 0.5 * np.einsum("ci,ijpq,cj->pq", signed, dense, signed)
        got = beta_objective_coeffs(model, pack_pairs(dense))
        assert got.shape == (2, 3)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())


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


def noisy_level_trees(seed, per_class=6, classes=3, dim=4, depth=3):
    """Trees whose every level holds its class mean plus noise drawn once
    per (video, level) and shared by the level's nodes. Weight spread
    over the levels averages the noise out, so no single level separates
    the classes as well, and from the uniform start the full step to a
    vertex is rejected in both variants."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(1, classes + 1), per_class)
    means = rng.standard_normal((classes, dim))
    tie = Hierarchy(depth).level_matrix
    trees = [PooledTree(f"v{i}", "appearance", depth,
                        means[c - 1] + 0.5 * (tie > 0)
                        @ rng.standard_normal((depth, dim)))
             for i, c in enumerate(labels)]
    return trees, labels, KernelConfig("rbf", median_gamma(trees))


def level_masses(beta, depth):
    """The level weights ``gamma`` of node weights ``beta = M gamma``."""
    h = Hierarchy(depth)
    return np.array([beta[h.level_slice(l)].sum()
                     for l in range(1, depth + 1)])


def step_length(before, after, depth=3):
    """The ``eta`` of the Frank-Wolfe step between node weights ``before``
    and ``after``, read from their level masses."""
    before, after = level_masses(before, depth), level_masses(after, depth)
    v = int(np.argmax(after - before))
    return (after[v] - before[v]) / (1.0 - before[v])


class TestEmFit:
    def test_depth1_equals_plain_svm(self, rng):
        train, y_train, test, y_test, h = synth_trees(0, level=1, depth=1)
        gamma = median_gamma(train)
        kcfg = KernelConfig("rbf", gamma)
        res = em_fit(train, y_train, CONCATENATION, kcfg)
        np.testing.assert_array_equal(res.beta, [1.0])
        assert res.stop_reason == "single_node"
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
        # the Grams em_fit contracts from its level table are those of the
        # node weights it returns; partial steps leave gamma inside the
        # simplex, so every level keeps weight
        train, y_train, kcfg = noisy_level_trees(2)
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
        start = h.level_matrix @ SimplexWeights.init(h.depth, "random",
                                                     5).beta
        res = em_fit(train, y_train, AVERAGING, kcfg, em_cfg)
        gram = gram_matrix(train, start, AVERAGING, kcfg)
        plain = train_one_vs_rest(gram, y_train)
        k_cols = kernel_columns(test, train, start, AVERAGING, kcfg)
        np.testing.assert_array_equal(predict(res.model, k_cols),
                                      predict(plain, k_cols))
        # em_fit contracts its level table, gram_matrix the node kernels:
        # the two Grams agree to rounding
        np.testing.assert_allclose(res.model.alpha, plain.alpha, rtol=0,
                                   atol=1e-9)
        np.testing.assert_array_equal(res.beta, start)
        assert res.stop_reason == "max_iters" and res.backtracks == 0

    @pytest.mark.parametrize("variant, width, what",
                             [(AVERAGING, 6, "level pairs"),
                              (CONCATENATION, 3, "levels")])
    def test_tables_over_limit_rejected(self, rng, monkeypatch, variant,
                                        width, what):
        # depth 3: an (n * (n + 1) / 2, 3 * 4 / 2) averaging table, one
        # entry per unordered video pair and level pair, (n * (n + 1) / 2,
        # 3) for concatenation
        trees = random_trees(rng, n=8, depth=3)
        labels = np.array([1 + (i % 2) for i in range(8)])
        monkeypatch.setattr(kernels, "_DENSE_LIMIT", 36 * width - 1)
        with pytest.raises(errors.ValidationError,
                           match=f"36 pairs of 8 videos and {width} {what} "
                                 f".* {36 * width * 8} bytes"):
            em_fit(trees, labels, variant, RBF)
        monkeypatch.setattr(kernels, "_DENSE_LIMIT", 36 * width)
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
                res.beta_trace[0],
                Hierarchy(3).level_matrix
                @ SimplexWeights.init(3, scheme, 5).beta)

    def test_unknown_beta_init_rejected(self):
        with pytest.raises(errors.ValidationError):
            EmConfig(beta_init="bogus")


class TestEmStops:
    """The early stops of ``em_fit``, told apart by counting one-vs-rest
    solves: each iteration solves one candidate per step length it
    tries."""

    @pytest.fixture
    def solved(self, monkeypatch):
        solved = []

        def spy(*args):
            solved.append(train_one_vs_rest(*args))
            return solved[-1]

        monkeypatch.setattr(em, "train_one_vs_rest", spy)
        return solved

    @pytest.fixture
    def fit(self, solved):
        # 8 videos per class, depth 3, the full step accepted
        train, y_train, *_ = synth_trees(0, level=3, depth=3, per_class=8)
        kcfg = KernelConfig("rbf", median_gamma(train))
        return lambda variant, cfg: (em_fit(train, y_train, variant, kcfg,
                                            cfg), solved)

    def test_vertex_reached(self, fit):
        res, solved = fit(AVERAGING, EmConfig())
        assert res.iterations == 1
        # all the weight on level 3, shared evenly by its four nodes
        np.testing.assert_array_equal(res.beta, [0, 0, 0, .25, .25, .25, .25])
        # no candidate is tried once the step's vertex is beta itself
        assert len(solved) == res.iterations + 1
        assert res.stop_reason == "vertex" and res.backtracks == 0
        # the full step comes first: 4 classes, the start and one candidate
        assert res.dual_solves <= 8

    @pytest.mark.parametrize("variant", [AVERAGING, CONCATENATION])
    def test_param_tol(self, solved, variant):
        # the first step is partial, so the stop is param_tol's, not the
        # vertex's: beta keeps every level
        train, y_train, kcfg = noisy_level_trees(2)
        res = em_fit(train, y_train, variant, kcfg, EmConfig(param_tol=1e9))
        assert res.iterations == 1 and res.stop_reason == "param_tol"
        assert res.backtracks >= 1
        assert len(solved) == res.backtracks + 2 and res.model is solved[-1]
        assert np.count_nonzero(res.beta) == 7

    @pytest.mark.parametrize("variant", [AVERAGING, CONCATENATION])
    def test_no_accepted_step(self, solved, monkeypatch, variant):
        # the full step is rejected and no backtrack is left
        monkeypatch.setattr(em, "MAX_BACKTRACKS", 0)
        train, y_train, kcfg = noisy_level_trees(2)
        res = em_fit(train, y_train, variant, kcfg)
        # one more candidate than accepted steps, and it was rejected
        assert len(solved) == res.iterations + 2
        assert res.model is solved[-2]
        assert res.stop_reason == "no_accepted_step" and res.backtracks == 1
        np.testing.assert_array_equal(res.beta, res.beta_trace[-1])


def true_objective(trees, labels, beta, variant, kcfg, svm_cfg):
    """The traced objective at ``beta``, from a Gram built from scratch."""
    gram = gram_matrix(trees, beta, variant, kcfg)
    model = train_one_vs_rest(gram, labels, svm_cfg)
    return model, -sum(dual_objective(gram, a, y)
                       for a, y in zip(model.alpha, model.signs))


class TestLineSearch:
    @pytest.mark.parametrize("variant", [CONCATENATION, AVERAGING])
    def test_line_search_gets_the_exact_slope(self, monkeypatch, variant):
        # the Danskin slope J'(0) = grad @ (e_v - gamma) that em_fit hands
        # its first backtrack, against a central difference of J along the
        # step it then takes, beta = M gamma, at depth 2
        svm_cfg = TrainConfig(c_box=5.0, kkt_tol=1e-10, max_passes=10_000)
        train, y_train, kcfg = noisy_level_trees(2, depth=2)
        slopes = []
        backtracked = em.backtracked_eta

        def spy(eta, rise, slope):
            slopes.append(slope)
            return backtracked(eta, rise, slope)

        monkeypatch.setattr(em, "backtracked_eta", spy)
        res = em_fit(train, y_train, variant, kcfg, EmConfig(max_iters=1),
                     svm_cfg)
        assert res.backtracks >= 1
        beta = res.beta_trace[0]
        gamma, after = (level_masses(b, 2) for b in res.beta_trace)
        d = Hierarchy(2).level_matrix @ (np.eye(2)[np.argmax(after - gamma)]
                                         - gamma)
        h = 1e-4
        ahead, behind = (true_objective(train, y_train, beta + t * d, variant,
                                        kcfg, svm_cfg)[1] for t in (h, -h))
        assert abs((ahead - behind) / (2 * h) - slopes[0]) \
            <= 1e-5 * abs(slopes[0])

    def test_backtracked_eta_minimizes_the_interpolating_quadratic(self):
        # J(t) = J(0) + g t + a t^2 is interpolated exactly
        g, a = -1.0, 2.0
        for eta in (1.0, 0.75, 0.6):
            rise = g * eta + a * eta * eta
            assert backtracked_eta(eta, rise, g) == pytest.approx(0.25)
        lo, hi = BACKTRACK_RANGE
        # a steep rise clamps to the low end; as the rise shrinks to zero
        # the minimizer rises to eta / 2, the high end
        assert backtracked_eta(1.0, 100.0, -1.0) == lo
        assert hi * 0.5 - 1e-8 < backtracked_eta(0.5, 1e-9, -1.0) <= hi * 0.5
        # a zero slope (beta already optimal along d) still shrinks eta
        assert backtracked_eta(1.0, 1.0, 0.0) == lo

    def test_rejected_full_step(self, monkeypatch):
        train, y_train, kcfg = noisy_level_trees(2)
        res = em_fit(train, y_train, AVERAGING, kcfg, EmConfig(max_iters=1))
        assert res.iterations == 1 and res.backtracks >= 1
        # each backtrack shrinks eta into BACKTRACK_RANGE of the last one
        lo, hi = BACKTRACK_RANGE
        eta = step_length(*res.beta_trace)
        assert lo ** res.backtracks <= eta <= hi ** res.backtracks
        assert res.objective_trace[1] <= res.objective_trace[0] + 1e-10

        # every iteration reads the one fixed level table, whatever the
        # weights it starts from
        tables = []
        coeffs = em.beta_objective_coeffs

        def spy(model, table):
            tables.append(table)
            return coeffs(model, table)

        monkeypatch.setattr(em, "beta_objective_coeffs", spy)
        res = em_fit(train, y_train, AVERAGING, kcfg, EmConfig(max_iters=4))
        assert res.iterations == 4 and res.backtracks >= 4
        assert len(tables) == 4
        assert all(table is tables[0] for table in tables)
        want = NodeKernelCache(train, kcfg).level_table(
            Hierarchy(3).level_matrix, AVERAGING)
        np.testing.assert_array_equal(tables[0], want)
