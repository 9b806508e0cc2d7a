import tracemalloc

import numpy as np
import pytest

from conftest import random_trees
from oracles import central_difference, elementary
from treemkl import errors, kernels
from treemkl.dmkl import ContrastiveConfig, _PairTable, dmkl_fit, pair_moments
from treemkl.em import EmConfig, em_fit
from treemkl.hierarchy import Hierarchy, PooledTree
from treemkl.kernels import (
    AVERAGING,
    CONCATENATION,
    GramMatrix,
    KernelConfig,
    NodeKernelCache,
    combined_kernel,
    fuse_kernels,
    gram_matrix,
    kernel_columns,
    median_gamma,
    node_weights,
    node_weights_pullback,
)
from treemkl.simplex import to_simplex

RBF = KernelConfig(kind="rbf", gamma=0.7)
LIN = KernelConfig(kind="linear")


def tree_from(vectors, video_id="t", depth=None):
    vectors = np.asarray(vectors, dtype=np.float64)
    if depth is None:
        depth = (vectors.shape[0] + 1).bit_length() - 1
    return PooledTree(video_id=video_id, stream="appearance", depth=depth,
                      vectors=vectors)


class TestElementary:
    def test_rbf_self_is_one(self, rng):
        x = rng.standard_normal(5)
        for gamma in (0.1, 1.0, 10.0):
            assert elementary(x, x, KernelConfig("rbf", gamma)) == 1.0

    def test_rbf_unit_distance(self):
        got = elementary(np.array([0.0]), np.array([1.0]),
                         KernelConfig("rbf", 1.0))
        np.testing.assert_allclose(got, np.exp(-1.0))

    def test_linear_dot(self):
        assert elementary(np.array([1.0, 2.0]), np.array([3.0, 4.0]), LIN) == 11.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="vector shapes differ"):
            elementary(np.zeros(2), np.zeros(3), LIN)


class TestKernelConfig:
    @pytest.mark.parametrize("gamma", [np.inf, np.nan, 0, -1, None])
    def test_rbf_needs_finite_positive_gamma(self, gamma):
        with pytest.raises(errors.ValidationError):
            KernelConfig(kind="rbf", gamma=gamma)


class TestCombinedKernel:
    def test_single_node_degenerates_to_elementary(self, rng):
        a = tree_from(rng.standard_normal((1, 4)), "a")
        b = tree_from(rng.standard_normal((1, 4)), "b")
        expected = elementary(a.vectors[0], b.vectors[0], RBF)
        for variant in (CONCATENATION, AVERAGING):
            got = combined_kernel(a, b, np.array([1.0]), variant, RBF)
            np.testing.assert_allclose(got, expected, atol=1e-15)

    def test_concatenation_is_weighted_mean(self):
        # engineered so the two aligned node kernels are 0.2 and 0.6
        gamma = 1.0
        d1 = np.sqrt(-np.log(0.2))
        d2 = np.sqrt(-np.log(0.6))
        a = tree_from([[0.0], [0.0], [0.0]], "a", depth=2)
        b = tree_from([[0.0], [d1], [d2]], "b", depth=2)
        beta = np.array([0.0, 0.5, 0.5])
        got = combined_kernel(a, b, beta, CONCATENATION,
                              KernelConfig("rbf", gamma))
        np.testing.assert_allclose(got, 0.4, atol=1e-12)

    def test_one_hot_averaging_equals_concatenation(self, rng):
        trees = random_trees(rng, n=2, depth=3)
        for node in range(trees[0].node_count):
            beta = np.zeros(trees[0].node_count)
            beta[node] = 1.0
            k_avg = combined_kernel(trees[0], trees[1], beta, AVERAGING, RBF)
            k_cat = combined_kernel(trees[0], trees[1], beta, CONCATENATION, RBF)
            np.testing.assert_allclose(k_avg, k_cat, atol=1e-14)

    def test_values_in_unit_interval(self, rng):
        for _ in range(25):
            trees = random_trees(rng, n=2, depth=int(rng.integers(1, 4)))
            beta = to_simplex(rng.standard_normal(trees[0].node_count))
            for variant in (CONCATENATION, AVERAGING):
                k = combined_kernel(trees[0], trees[1], beta, variant, RBF)
                assert 0.0 <= k <= 1.0

    def test_matches_definition_double_loop(self, rng):
        # independent re-computation straight from the formulas
        trees = random_trees(rng, n=2, depth=3)
        a, b = trees
        beta = to_simplex(rng.standard_normal(a.node_count))
        cat = sum(beta[m] * elementary(a.vectors[m], b.vectors[m], RBF)
                  for m in range(a.node_count))
        avg = sum(beta[m] * beta[n]
                  * elementary(a.vectors[m], b.vectors[n], RBF)
                  for m in range(a.node_count) for n in range(a.node_count))
        np.testing.assert_allclose(
            combined_kernel(a, b, beta, CONCATENATION, RBF), cat, atol=1e-12)
        np.testing.assert_allclose(
            combined_kernel(a, b, beta, AVERAGING, RBF), avg, atol=1e-12)

    def test_shape_mismatch(self, rng):
        a = tree_from(rng.standard_normal((3, 2)), "a")
        b = tree_from(rng.standard_normal((3, 2)), "b")
        with pytest.raises(errors.ShapeMismatch):
            combined_kernel(a, b, np.ones(4) / 4, CONCATENATION, RBF)


class TestGramMatrix:
    def test_single_rbf_tree(self, rng):
        trees = random_trees(rng, n=1, depth=2)
        gram = gram_matrix(trees, np.ones(3) / 3, CONCATENATION, RBF)
        np.testing.assert_allclose(gram.values, [[1.0]])

    def test_psd_random_instances(self, rng):
        # closure claim: combined kernels stay PSD for simplex weights
        for _ in range(20):
            trees = random_trees(rng, n=10, depth=int(rng.integers(1, 4)))
            beta = to_simplex(rng.standard_normal(trees[0].node_count))
            for variant in (CONCATENATION, AVERAGING):
                gram = gram_matrix(trees, beta, variant, RBF)
                assert gram.min_eigenvalue() >= -1e-8

    def test_duplicated_tree_rank_deficient(self, rng):
        t = random_trees(rng, n=1, depth=2)[0]
        dup = PooledTree(video_id="copy", stream=t.stream, depth=t.depth,
                         vectors=t.vectors)
        gram = gram_matrix([t, dup], np.ones(3) / 3, AVERAGING, RBF)
        assert np.allclose(gram.values, gram.values[0, 0])

    def test_exact_symmetry(self, rng):
        trees = random_trees(rng, n=12, depth=3)
        beta = to_simplex(rng.standard_normal(7))
        gram = gram_matrix(trees, beta, AVERAGING, RBF)
        np.testing.assert_array_equal(gram.values, gram.values.T)

    def test_matches_pairwise_combined(self, rng):
        trees = random_trees(rng, n=5, depth=2)
        beta = to_simplex(rng.standard_normal(3))
        for variant in (CONCATENATION, AVERAGING):
            gram = gram_matrix(trees, beta, variant, RBF)
            direct = np.array(
                [[combined_kernel(a, b, beta, variant, RBF) for b in trees]
                 for a in trees])
            np.testing.assert_allclose(gram.values, direct, atol=1e-12)

    def test_kernel_columns_cross_set(self, rng):
        rows = random_trees(rng, n=4, depth=2)
        cols = random_trees(rng, n=3, depth=2)
        beta = to_simplex(rng.standard_normal(3))
        for variant in (CONCATENATION, AVERAGING):
            cols_k = kernel_columns(rows, cols, beta, variant, RBF)
            direct = np.array(
                [[combined_kernel(a, b, beta, variant, RBF) for b in cols]
                 for a in rows])
            np.testing.assert_allclose(cols_k, direct, atol=1e-12)


def pair_grad(trees, beta, variant, cfg=RBF):
    """Production gradient in beta of K(trees[0], trees[1]): the pair's
    node kernels pulled back through the variant's weight map."""
    blocks = NodeKernelCache(trees, cfg).pair_blocks([0], [1], variant)
    return node_weights_pullback(blocks[0], np.asarray(beta, dtype=float),
                                 variant)


class TestKernelGrad:
    def test_concatenation_grad_constant_in_beta(self, rng):
        trees = random_trees(rng, n=2, depth=2)
        g1 = pair_grad(trees, np.array([0.2, 0.3, 0.5]), CONCATENATION)
        g2 = pair_grad(trees, np.array([1.0, 0.0, 0.0]), CONCATENATION)
        np.testing.assert_array_equal(g1, g2)

    def test_averaging_one_hot(self, rng):
        trees = random_trees(rng, n=2, depth=2)
        beta = np.array([0.0, 1.0, 0.0])
        g = pair_grad(trees, beta, AVERAGING)
        k_aligned = elementary(trees[0].vectors[1], trees[1].vectors[1], RBF)
        np.testing.assert_allclose(g[1], 2.0 * k_aligned, atol=1e-14)

    def test_finite_difference_agreement(self, rng):
        # 100 random instances (both variants each)
        for _ in range(50):
            trees = random_trees(rng, n=2, depth=int(rng.integers(1, 4)))
            beta = to_simplex(rng.standard_normal(trees[0].node_count))
            for variant in (CONCATENATION, AVERAGING):
                got = pair_grad(trees, beta, variant)
                fd = central_difference(
                    lambda b: combined_kernel(*trees, b, variant, RBF), beta)
                denom = max(float(np.linalg.norm(fd)), 1e-12)
                assert np.linalg.norm(got - fd) / denom < 1e-6

    def test_shared_occurrence_gradients_agree_in_direction(self, rng):
        # network view of the averaging kernel: the weights enter twice
        # (row and column slot); averaging the two occurrence gradients
        # must point along the analytic gradient (scaled by 1/2)
        from treemkl.kernels import _kernel_matrix
        trees = random_trees(rng, n=2, depth=3)
        beta = to_simplex(rng.standard_normal(7))
        cross = _kernel_matrix(trees[0].vectors, trees[1].vectors, RBF)
        row_slot = cross @ beta          # d k / d beta with column slot fixed
        col_slot = cross.T @ beta        # d k / d beta with row slot fixed
        shared = np.mean([row_slot, col_slot], axis=0)
        analytic = pair_grad(trees, beta, AVERAGING)
        np.testing.assert_allclose(2.0 * shared, analytic, atol=1e-12)


class TestMedianGamma:
    def test_unit_distance_pair(self):
        a = tree_from([[0.0, 0.0]], "a")
        b = tree_from([[1.0, 0.0]], "b")
        np.testing.assert_allclose(median_gamma([a, b]), 1.0)

    def test_identical_trees_degenerate(self, rng):
        t = random_trees(rng, n=1, depth=2)[0]
        dup = PooledTree(video_id="d", stream=t.stream, depth=t.depth,
                         vectors=t.vectors)
        with pytest.raises(errors.DegenerateData):
            median_gamma([t, dup])

    def test_seeded_reproducibility(self, rng, monkeypatch):
        # a cap below the 30 * 29 / 2 * 7 samples makes it draw a subset
        monkeypatch.setattr(kernels, "_MEDIAN_GAMMA_CAP", 100)
        trees = random_trees(rng, n=30, depth=3, frames=32, dim=8)
        assert median_gamma(trees, seed=5) == median_gamma(trees, seed=5)

    @pytest.mark.parametrize("cap", [100, 101])
    def test_chunked_median_is_bit_identical(self, rng, monkeypatch, cap):
        # chunks of 3 samples, the last one ragged, and an even and an odd
        # sample count, against the whole sample's np.median
        monkeypatch.setattr(kernels, "_MEDIAN_GAMMA_CAP", cap)
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 3 * 8 + 2)
        trees = random_trees(rng, n=30, depth=3, frames=32, dim=8)
        vectors = np.stack([t.vectors for t in trees])
        picks = np.random.default_rng(5).choice(30 * 29 // 2 * 7, size=cap,
                                                replace=False)
        pair_idx, node_idx = np.divmod(picks, 7)
        rows, cols = np.triu_indices(30, k=1)
        diff = (vectors[rows[pair_idx], node_idx]
                - vectors[cols[pair_idx], node_idx])
        want = 1.0 / float(np.median(np.sum(diff * diff, axis=1)))
        assert median_gamma(trees, seed=5) == want


class TestFuseKernels:
    def grams(self, rng):
        trees = random_trees(rng, n=4, depth=2)
        beta = np.ones(3) / 3
        ka = gram_matrix(trees, beta, CONCATENATION, RBF)
        km = gram_matrix(trees, beta, AVERAGING, RBF)
        return ka, km

    def test_endpoints(self, rng):
        ka, km = self.grams(rng)
        np.testing.assert_array_equal(fuse_kernels(ka, km, 1.0).values,
                                      ka.values)
        np.testing.assert_array_equal(fuse_kernels(ka, km, 0.0).values,
                                      km.values)

    def test_midpoint(self, rng):
        ka, km = self.grams(rng)
        fused = fuse_kernels(ka, km, 0.5)
        np.testing.assert_allclose(fused.values,
                                   0.5 * ka.values + 0.5 * km.values)

    def test_id_mismatch(self, rng):
        ka, _ = self.grams(rng)
        other = GramMatrix(values=np.eye(4), ids=("x0", "x1", "x2", "x3"))
        with pytest.raises(errors.IdMismatch):
            fuse_kernels(ka, other, 0.5)


class TestNodeKernelCache:
    def test_combined_matches_gram(self, rng):
        trees = random_trees(rng, n=6, depth=3)
        cache = NodeKernelCache(trees, RBF)
        beta = to_simplex(rng.standard_normal(7))
        for variant in (CONCATENATION, AVERAGING):
            expected = np.array(
                [[combined_kernel(a, b, beta, variant, RBF) for b in trees]
                 for a in trees])
            np.testing.assert_allclose(cache.combined(beta, variant),
                                       expected, atol=1e-12)

    @pytest.mark.parametrize("two_sets", [False, True])
    @pytest.mark.parametrize("variant", [CONCATENATION, AVERAGING])
    def test_combined_evaluates_only_weighted_nodes(self, rng, monkeypatch,
                                                    variant, two_sets):
        # a vertex and a three-node support against the untrimmed
        # contraction, over ragged row blocks
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 100)
        rows = random_trees(rng, n=7, depth=3)
        cols = random_trees(rng, n=5, depth=3) if two_sets else None
        evaluated = []
        kernel_matrix = kernels._kernel_matrix

        def counted(*args):
            k = kernel_matrix(*args)
            evaluated.append(k.size)
            return k

        for support in ([2], [0, 4, 6]):
            beta = np.zeros(7)
            beta[support] = to_simplex(rng.standard_normal(len(support)))
            oracle = NodeKernelCache(rows, RBF, cols)
            expected = kernels.contract_table(
                oracle.aligned() if variant == CONCATENATION
                else oracle.cross(), node_weights(beta, variant))
            cache = NodeKernelCache(rows, RBF, cols)
            monkeypatch.setattr(kernels, "_kernel_matrix", counted)
            evaluated.clear()
            got = cache.combined(beta, variant)
            monkeypatch.setattr(kernels, "_kernel_matrix", kernel_matrix)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
            pairs = len(support) ** (1 if variant == CONCATENATION else 2)
            assert sum(evaluated) <= 7 * (5 if two_sets else 7) * pairs

    def test_pair_blocks_match_elementary(self, rng):
        trees = random_trees(rng, n=5, depth=2)
        i_idx = np.array([0, 1, 3])
        j_idx = np.array([2, 4, 0])
        for cfg in (RBF, LIN):
            cache = NodeKernelCache(trees, cfg)
            for variant in (CONCATENATION, AVERAGING):
                blocks = cache.pair_blocks(i_idx, j_idx, variant)
                pairs = ([(m, m) for m in range(3)]
                         if variant == CONCATENATION else
                         [(m, n) for m in range(3) for n in range(3)])
                assert blocks.shape == (3, len(pairs))
                for b, (i, j) in enumerate(zip(i_idx, j_idx)):
                    for p, (m, n) in enumerate(pairs):
                        expected = elementary(trees[i].vectors[m],
                                              trees[j].vectors[n], cfg)
                        np.testing.assert_allclose(blocks[b, p], expected,
                                                   atol=1e-12)

    def test_cross_is_pair_major_across_row_blocks(self, rng, monkeypatch):
        # 5 cols x 3 x 3 nodes = 45 elements per row video: blocks of 2
        # rows over 7 rows, the last one ragged
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 100)
        rows = random_trees(rng, n=7, depth=2)
        cols = random_trees(rng, n=5, depth=2)
        for cfg in (RBF, LIN):
            cache = NodeKernelCache(rows, cfg, cols)
            cross, aligned = cache.cross(), cache.aligned()
            assert cross.shape == (7, 5, 3, 3) and cross.flags.c_contiguous
            assert aligned.shape == (7, 5, 3) and aligned.flags.c_contiguous
            for i, a in enumerate(rows):
                for j, b in enumerate(cols):
                    expected = [[elementary(a.vectors[m], b.vectors[n], cfg)
                                 for n in range(3)] for m in range(3)]
                    np.testing.assert_allclose(cross[i, j], expected,
                                               rtol=0, atol=1e-12)
                    np.testing.assert_allclose(aligned[i, j],
                                               np.diag(expected),
                                               rtol=0, atol=1e-12)

    def test_streamed_combined_matches_built(self, rng, monkeypatch):
        # the row-block reduction against the whole cross tensor
        # contracted with outer(beta, beta), over a ragged last block
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 100)
        rows = random_trees(rng, n=7, depth=2)
        cols = random_trees(rng, n=5, depth=2)
        beta = to_simplex(rng.standard_normal(3))
        cache = NodeKernelCache(rows, RBF, cols)
        np.testing.assert_allclose(
            cache.combined(beta, AVERAGING),
            kernels.contract_table(cache.cross(),
                                   node_weights(beta, AVERAGING)),
            rtol=0, atol=1e-12)

    @pytest.mark.parametrize("two_sets", [False, True])
    @pytest.mark.parametrize("variant", [CONCATENATION, AVERAGING])
    def test_level_table_is_node_table_contracted_with_tie(
            self, rng, monkeypatch, variant, two_sets):
        # 100 elements per block: a two-set cache streams 2 of the 7 rows
        # at a time (45 elements each), a one-set cache 2 against the
        # videos from the first on (63, then fewer); both end ragged
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 100)
        rows = random_trees(rng, n=7, depth=2)
        cols = random_trees(rng, n=5, depth=2) if two_sets else None
        tie = Hierarchy(2).level_matrix
        for cfg in (RBF, LIN):
            cache = NodeKernelCache(rows, cfg, cols)
            got = cache.level_table(tie, variant)
            if variant == CONCATENATION:
                want = cache.aligned() @ tie
            else:
                want = np.einsum("ijmn,ml,nk->ijlk", cache.cross(), tie,
                                 tie).reshape(*got.shape[:2], 4)
            assert got.shape == want.shape and got.flags.c_contiguous
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_one_set_streams_each_pair_once(self, rng, monkeypatch):
        # 8 videos x 3 x 3 nodes = 72 elements per row video: blocks of 3
        # rows, the last one partial, each against the videos from its
        # first row on
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 250)
        n, m, step = 8, 3, 3
        trees = random_trees(rng, n=n, depth=2)
        tie = Hierarchy(2).level_matrix
        evaluated = []
        kernel_matrix = kernels._kernel_matrix

        def counted(*args):
            k = kernel_matrix(*args)
            evaluated.append(k.size)
            return k

        monkeypatch.setattr(kernels, "_kernel_matrix", counted)
        for cfg in (RBF, LIN):
            cache = NodeKernelCache(trees, cfg)
            evaluated.clear()
            table = cache.level_table(tie, AVERAGING)
            assert len(evaluated) == 3
            assert sum(evaluated) <= (n * (n + 1) // 2 + step * n) * m * m
            for i, a in enumerate(trees):
                for j, b in enumerate(trees):
                    k = np.array([[elementary(a.vectors[p], b.vectors[u], cfg)
                                   for u in range(m)] for p in range(m)])
                    np.testing.assert_allclose(table[i, j],
                                               (tie.T @ k @ tie).ravel(),
                                               rtol=0, atol=1e-12)
        labels = np.array([1, 2, 1, 3, 2, 3, 1, 2])
        table = _PairTable(labels)
        cache = NodeKernelCache(trees, RBF)
        A, b, c = pair_moments(cache, table, AVERAGING, None)
        rows = cache.pair_blocks(table.i, table.j, AVERAGING)
        coef = 1.0 / table.y.size
        want_A = sum(coef * np.outer(row, row) for row in rows)
        want_b = sum(coef * row for row, y in zip(rows, table.y) if y > 0)
        np.testing.assert_allclose(A, want_A, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b, want_b, rtol=0, atol=1e-12)

    def test_streamed_combined_mirrors_its_upper_triangle(self, rng,
                                                          monkeypatch):
        # a one-set combined computes the upper triangle, which is what
        # mirrored_gram reads, and mirrors it
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 100)
        trees = random_trees(rng, n=7, depth=2)
        beta = to_simplex(rng.standard_normal(3))
        cache = NodeKernelCache(trees, RBF)
        got = cache.combined(beta, AVERAGING)
        np.testing.assert_array_equal(got, got.T)
        np.testing.assert_allclose(
            got, kernels.contract_table(cache.cross(),
                                        node_weights(beta, AVERAGING)),
            rtol=0, atol=1e-12)

    def test_level_table_checks_tie_shape(self, rng):
        cache = NodeKernelCache(random_trees(rng, n=4, depth=2), RBF)
        with pytest.raises(errors.ShapeMismatch, match="3 nodes"):
            cache.level_table(Hierarchy(3).level_matrix, AVERAGING)


class TestCrossMemory:
    """Peak bytes allocated while node kernels are evaluated and the
    cross tensor is built or streamed.

    numpy reports its buffers to ``tracemalloc``, so the peaks are exact
    and repeat from run to run.
    """

    NR, NC, NODES = 140, 120, 15

    @staticmethod
    def peak_bytes(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def cache(self, rng):
        return NodeKernelCache(random_trees(rng, n=self.NR, depth=4, dim=4),
                               RBF, random_trees(rng, n=self.NC, depth=4,
                                                 dim=4))

    def test_build_peak_close_to_tensor(self, rng):
        cache = self.cache(rng)
        peak = self.peak_bytes(cache.cross)
        assert peak < 1.5 * cache.cross().nbytes

    def test_kernel_matrix_peak_two_outputs(self, rng):
        X = rng.standard_normal((600, 16))
        Y = rng.standard_normal((500, 16))
        peak = self.peak_bytes(lambda: kernels._kernel_matrix(X, Y, RBF))
        assert peak < 2.5 * 600 * 500 * 8

    def test_em_fit_averaging_holds_one_table(self, rng):
        # the fixed (n, n, 4 * 4) level table, and beside it row blocks of
        # the cross kernels and n x n Grams
        n = 200
        trees = random_trees(rng, n=n, depth=4, dim=4)
        labels = np.array([1 + (i % 2) for i in range(n)])
        res = []
        peak = self.peak_bytes(lambda: res.append(em_fit(
            trees, labels, AVERAGING, RBF, EmConfig(max_iters=2))))
        assert res[0].iterations >= 1
        assert peak <= n * n * 16 * 8 + 4 * kernels._BLOCK_ELEMENTS * 8

    def test_median_gamma_squares_in_blocks(self, rng):
        # 60 trees of 4,096-d node vectors: the stacked trees and a few
        # blocks, not three 10,000 x 4,096 sample arrays (654 MB)
        trees = random_trees(rng, n=60, depth=4, frames=8, dim=4096)
        peak = self.peak_bytes(lambda: median_gamma(trees))
        stacked = 60 * self.NODES * 4096 * 8
        assert peak <= stacked + 4 * kernels._BLOCK_ELEMENTS * 8

    @pytest.mark.parametrize("route", ["em_fit", "dmkl_fit", "gram_matrix",
                                       "kernel_columns", "level_table"])
    def test_no_route_builds_cross_tensor(self, rng, monkeypatch, route):
        trees = random_trees(rng, n=12, depth=3, dim=4)
        labels = np.array([1 + (i % 3) for i in range(12)])
        beta = to_simplex(rng.standard_normal(7))

        def no_cross(cache):
            raise AssertionError(f"{route} built the cross tensor")

        monkeypatch.setattr(NodeKernelCache, "cross", no_cross)
        runs = {
            "em_fit": lambda: em_fit(trees, labels, AVERAGING, RBF,
                                     EmConfig(max_iters=2)),
            "dmkl_fit": lambda: dmkl_fit(trees, labels, AVERAGING,
                                         ContrastiveConfig(iterations=2), RBF),
            "gram_matrix": lambda: gram_matrix(trees, beta, AVERAGING, RBF),
            "kernel_columns": lambda: kernel_columns(trees[:5], trees[5:],
                                                     beta, AVERAGING, RBF),
            "level_table": lambda: NodeKernelCache(trees, RBF).level_table(
                Hierarchy(3).level_matrix, AVERAGING),
        }
        runs[route]()

    def assert_wide_rows_stream_in_three_blocks(self, rng, dim):
        """Peak minus output of the averaging ``level_table`` and
        ``combined`` over 40 x 280 trees of depth 4, below 3.5 blocks."""
        cache = NodeKernelCache(random_trees(rng, n=40, depth=4, dim=dim),
                                RBF, random_trees(rng, n=280, depth=4,
                                                  dim=dim))
        assert 280 * self.NODES * dim > kernels._BLOCK_ELEMENTS
        beta = to_simplex(rng.standard_normal(self.NODES))
        gram_bytes = 40 * 280 * 8
        for fn, out_bytes in (
                (lambda: cache.level_table(Hierarchy(4).level_matrix,
                                           AVERAGING), gram_bytes * 16),
                (lambda: cache.combined(beta, AVERAGING), gram_bytes)):
            peak = self.peak_bytes(fn) - out_bytes
            assert peak < 3.5 * kernels._BLOCK_ELEMENTS * 8

    def test_wide_rows_stream_in_three_blocks(self, rng):
        # 280 cols x 15 nodes x dim 128 is about two blocks: computing the
        # column norms once per pass, not per block, leaves the previous
        # block and the next one's two buffers as the working memory
        self.assert_wide_rows_stream_in_three_blocks(rng, 128)

    def test_column_norms_stream_in_blocks(self, rng):
        # at dim 256 the columns' squares made at once would be about four
        # blocks; the pass makes them in row chunks of about one block
        self.assert_wide_rows_stream_in_three_blocks(rng, 256)

    def test_streamed_combined_never_holds_tensor(self, rng):
        cache = self.cache(rng)
        beta = to_simplex(rng.standard_normal(self.NODES))
        peak = self.peak_bytes(lambda: cache.combined(beta, AVERAGING))
        assert peak < self.NR * self.NC * self.NODES ** 2 * 8
