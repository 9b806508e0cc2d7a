import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import random_trees
from oracles import (aligned, central_difference, elementary, pack_pairs,
                     pack_sym, unpack_pairs, whole_array_kernels)
from treemkl import errors, kernels
from treemkl.dmkl import (ContrastiveConfig, _PairTable, _pair_rows, dmkl_fit,
                          pair_moments)
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
    stack_trees,
)
from treemkl.simplex import to_simplex
from treemkl.svm import TrainConfig

RBF = KernelConfig(kind="rbf", gamma=0.7)
LIN = KernelConfig(kind="linear")

# run in a child process: contract_pairs against the oracle unpack_pairs(table
# @ w), bit for bit, over every size and width; prints the cases checked
CONTRACT_PAIRS_CHECK = """
import numpy as np
from oracles import unpack_pairs
from treemkl.kernels import contract_pairs
rng = np.random.default_rng(7)
checked = 0
for n in (1, 2, 3, 7, 64, 280, 281, 500):
    for width in (1, 4, 10):
        table = rng.standard_normal((n * (n + 1) // 2, width))
        w = rng.random(width)
        got, want = contract_pairs(table, w), unpack_pairs(table @ w)
        assert got.shape == want.shape == (n, n), (n, width)
        assert (got.view(np.uint64) == want.view(np.uint64)).all(), (n, width)
        checked += 1
print(checked)
"""


@pytest.fixture
def small_tiles(monkeypatch):
    """Tiles of at least 4 kernel rows and at most 100 elements: over
    trees of 3 nodes, 7 row videos split 2, 2, 3 and column tiles of 3
    videos, the last ones ragged."""
    monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 100)
    monkeypatch.setattr(kernels, "_TILE_ROWS", 4)


def counting_kernel_matrix(monkeypatch):
    """Patch ``_kernel_matrix`` to record the size of every kernel
    matrix it makes; returns the list of sizes."""
    evaluated = []
    kernel_matrix = kernels._kernel_matrix

    def counted(*args):
        k = kernel_matrix(*args)
        evaluated.append(k.size)
        return k

    monkeypatch.setattr(kernels, "_kernel_matrix", counted)
    return evaluated


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

    # 600 videos: row blocks of 109 rows, the last from row 545 on
    N = 600

    def symmetric(self, rng):
        values = rng.standard_normal((self.N, self.N))
        return values + values.T

    def ids(self):
        return tuple(f"v{i}" for i in range(self.N))

    def test_blocked_checks_refuse_late_entries(self, rng):
        # rows from 560 on lie past the first block
        assert kernels._BLOCK_ELEMENTS // self.N < 560
        for at in ((599, 3), (3, 599), (599, 599)):
            values = self.symmetric(rng)
            values[at] = np.nan
            with pytest.raises(errors.ValidationError,
                               match="^gram contains non-finite entries$"):
                GramMatrix(values=values, ids=self.ids())
        for at in ((560, 590), (590, 560), (598, 599)):
            values = self.symmetric(rng)
            values[at] += 1e-9
            with pytest.raises(errors.ValidationError,
                               match=r"^gram is not symmetric within 1e-10$"):
                GramMatrix(values=values, ids=self.ids())
        # every block is checked finite before any is compared, as the
        # whole-matrix checks were ordered
        values = self.symmetric(rng)
        values[1, 2] += 1.0
        values[599, 0] = np.inf
        with pytest.raises(errors.ValidationError, match="non-finite"):
            GramMatrix(values=values, ids=self.ids())

    def test_checks_make_no_full_size_temporary(self, rng):
        # a block of bools, and for a Gram symmetric only within 1e-10 a
        # block of differences, at a time: not the n x n bool array and
        # the two n x n float arrays of abs(v - v.T)
        within = self.symmetric(rng)
        within[3, 4] += 1e-12
        for v, blocks in ((self.symmetric(rng), 0.5), (within, 2)):
            tracemalloc.start()
            try:
                GramMatrix(values=v, ids=self.ids())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= blocks * kernels._BLOCK_ELEMENTS * 8
            assert peak < v.nbytes / 2

    def test_exactly_symmetric_is_derived_from_the_bits(self, rng):
        trees = random_trees(rng, n=9, depth=3)
        beta = to_simplex(rng.standard_normal(7))
        for variant in (CONCATENATION, AVERAGING):
            assert gram_matrix(trees, beta, variant, RBF).exactly_symmetric
        values = self.symmetric(rng)
        assert GramMatrix(values=values, ids=self.ids()).exactly_symmetric
        within = self.symmetric(rng)
        within[590, 560] += 1e-11
        gram = GramMatrix(values=within, ids=self.ids())
        assert not gram.exactly_symmetric
        # -0.0 equals 0.0 but has other bits
        zeros = np.zeros((2, 2))
        zeros[0, 1] = -0.0
        assert not GramMatrix(values=zeros, ids=("a", "b")).exactly_symmetric
        assert GramMatrix(values=np.zeros((0, 0)), ids=()).exactly_symmetric
        with pytest.raises(TypeError):
            GramMatrix(values=values, ids=self.ids(), exactly_symmetric=True)


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

    @pytest.mark.parametrize("m", [1, 3, 7])
    def test_averaging_weights_pack_each_node_pair_once(self, rng, m):
        # any (m, m) block, symmetric or not, and any beta: the packed
        # block weighted by node_weights is beta' K beta, and the pullback
        # of the packed block is that quadratic's gradient
        for _ in range(5):
            K = rng.standard_normal((m, m))
            beta = rng.standard_normal(m)
            w = node_weights(beta, AVERAGING)
            assert w.shape == (m * (m + 1) // 2,)
            np.testing.assert_allclose(pack_sym(K) @ w, beta @ K @ beta,
                                       rtol=1e-13, atol=1e-13)
            got = node_weights_pullback(pack_sym(K), beta, AVERAGING)
            np.testing.assert_allclose(got, (K + K.T) @ beta, rtol=0,
                                       atol=1e-12)
            fd = central_difference(
                lambda b: pack_sym(K) @ node_weights(b, AVERAGING), beta)
            np.testing.assert_allclose(got, fd, rtol=0, atol=1e-8)

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

    @staticmethod
    def oracle(trees, picks):
        # 1 / np.median over the given pair-major (pair, node) entries
        vectors = np.stack([t.vectors for t in trees])
        pair_idx, node_idx = np.divmod(np.asarray(picks), vectors.shape[1])
        rows, cols = np.triu_indices(len(trees), k=1)
        diff = (vectors[rows[pair_idx], node_idx]
                - vectors[cols[pair_idx], node_idx])
        return 1.0 / float(np.median(np.sum(diff * diff, axis=1)))

    @pytest.mark.parametrize("cap", [315, 10_000])
    def test_small_total_takes_every_entry(self, rng, monkeypatch, cap):
        # 10 * 9 / 2 pairs x 7 nodes = 315 entries, at and under the cap
        monkeypatch.setattr(kernels, "_MEDIAN_GAMMA_CAP", cap)
        trees = random_trees(rng, n=10, depth=3, frames=32, dim=8)
        assert median_gamma(trees) == self.oracle(trees, range(315))

    @pytest.mark.parametrize("cap", [100, 101])
    def test_chunked_median_is_bit_identical(self, rng, monkeypatch, cap):
        # chunks of 3 samples, the last one ragged, and an even and an odd
        # sample count, against np.median over the evenly spaced entries
        monkeypatch.setattr(kernels, "_MEDIAN_GAMMA_CAP", cap)
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 3 * 8 + 2)
        trees = random_trees(rng, n=30, depth=3, frames=32, dim=8)
        total = 30 * 29 // 2 * 7
        picks = [k * total // cap for k in range(cap)]
        assert set(np.diff(picks)) == {total // cap, total // cap + 1}
        assert median_gamma(trees) == self.oracle(trees, picks)


class TestPackedPairs:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64])
    def test_offsets_and_inverse_match_triu_indices(self, n):
        # the pairs i <= j of n videos, row by row
        i, j = np.triu_indices(n)
        positions = np.arange(i.size)
        np.testing.assert_array_equal(
            kernels._pair_start(i, n) + j - i, positions)
        starts = kernels._pair_start(np.arange(n + 1), n)
        assert [kernels._pair_start(r, n) for r in range(n + 1)] == list(
            starts)
        assert starts[0] == 0 and starts[n] == i.size
        got_i, got_j = kernels._pair_of(positions, n)
        np.testing.assert_array_equal(got_i, i)
        np.testing.assert_array_equal(got_j, j)
        # the pairs i < j of n videos, as median_gamma reads them: the
        # pairs i <= j - 1 of n - 1
        i, j = np.triu_indices(n, k=1)
        positions = np.arange(i.size)
        np.testing.assert_array_equal(
            kernels._pair_start(i, n - 1) + (j - 1) - i, positions)
        got_i, got_j = kernels._pair_of(positions, n - 1)
        np.testing.assert_array_equal(got_i, i)
        np.testing.assert_array_equal(got_j + 1, j)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_contract_pairs_keeps_the_bits_of_the_unpacked_product(
            self, threads):
        # the one product of the whole table, moved into place: the bits of
        # the packed column unpacked, however OpenBLAS splits its rows
        # among threads (products of row segments would not keep them)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.dirname(os.path.dirname(kernels.__file__)),
                        os.path.dirname(__file__),
                        env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", CONTRACT_PAIRS_CHECK],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split() == ["24"]

    def test_contract_pairs_refuses_tables_not_packed_over_pairs(self):
        for bad in (np.ones((7, 2)), np.ones(6), np.array(1.0),
                    np.ones((3, 3, 1))):
            with pytest.raises(errors.ShapeMismatch, match="packed pairs"):
                kernels.contract_pairs(bad, np.ones(bad.shape[-1:]))


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

    def test_bits_of_the_convex_combination_in_two_arrays(self, rng):
        # w * A + (1 - w) * B bit for bit, exactly symmetric as A and B
        # are, and built beside them in two n x n arrays, not three
        n = 600
        ids = tuple(f"v{i}" for i in range(n))
        a, b = rng.standard_normal((2, n, n))
        ka = GramMatrix(values=a + a.T, ids=ids)
        km = GramMatrix(values=b + b.T, ids=ids)
        for weight in (0.5, 0.3, 1.0 / 3.0, 0.0, 1.0):
            tracemalloc.start()
            try:
                fused = fuse_kernels(ka, km, weight)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            want = weight * ka.values + (1.0 - weight) * km.values
            assert fused.values.tobytes() == want.tobytes()
            assert fused.exactly_symmetric
            assert peak <= 2 * n * n * 8 + kernels._BLOCK_ELEMENTS * 8

    def test_id_mismatch(self, rng):
        ka, _ = self.grams(rng)
        other = GramMatrix(values=np.eye(4), ids=("x0", "x1", "x2", "x3"))
        with pytest.raises(errors.IdMismatch):
            fuse_kernels(ka, other, 0.5)


class TestHeldNodes:
    """Trees that hold only some nodes stack and pair only with trees that
    hold the same ones."""

    def trees(self, rng, *node_sets):
        return [PooledTree(f"v{i}", "appearance", 3,
                           rng.standard_normal((len(nodes), 4)), nodes)
                for i, nodes in enumerate(node_sets)]

    def test_stack_trees_refuses_mixed_node_sets_naming_the_video(self, rng):
        trees = self.trees(rng, (1, 2), (1, 2), (3, 4))
        with pytest.raises(errors.ShapeMismatch,
                           match=r"tree v2 holds nodes \(3, 4\), tree v0"):
            stack_trees(trees)
        stacked, ids = stack_trees(trees[:2])
        assert stacked.shape == (2, 2, 4) and ids == ["v0", "v1"]

    def test_cache_refuses_row_and_col_node_sets_that_differ(self, rng):
        rows, cols = self.trees(rng, (1, 2), (3, 4))
        with pytest.raises(errors.ShapeMismatch, match="node sets"):
            NodeKernelCache([rows], RBF, [cols])

    def test_combined_kernel_refuses_trees_that_hold_different_nodes(
            self, rng):
        a, b = self.trees(rng, (1, 2), (3, 4))
        with pytest.raises(errors.ShapeMismatch,
                           match=r"tree v0 holds nodes \(1, 2\), tree v1"):
            combined_kernel(a, b, np.ones(2) / 2, AVERAGING, RBF)


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
                                                    small_tiles, variant,
                                                    two_sets):
        # a vertex and a three-node support against the untrimmed
        # contraction, over ragged tiles: combined's beta, and a one-set
        # level table whose tie rows outside the support are zero
        rows = random_trees(rng, n=7, depth=3)
        cols = random_trees(rng, n=5, depth=3) if two_sets else None
        evaluated = counting_kernel_matrix(monkeypatch)
        for support in ([2], [0, 4, 6]):
            beta = np.zeros(7)
            beta[support] = to_simplex(rng.standard_normal(len(support)))
            tie = Hierarchy(3).level_matrix * (beta > 0)[:, None]
            oracle = NodeKernelCache(rows, RBF, cols)
            if variant == CONCATENATION:
                node_table = aligned(oracle)
                level_table = node_table @ tie
            else:
                node_table = pack_sym(oracle.cross())
                level_table = pack_sym(np.einsum(
                    "ijmn,ml,nk->ijlk", oracle.cross(), tie, tie))
            runs = [(lambda c: c.combined(beta, variant),
                     node_table @ node_weights(beta, variant))]
            if not two_sets:
                runs.append((lambda c: c.level_table(tie, variant),
                             pack_pairs(level_table)))
            pairs = len(support) ** (1 if variant == CONCATENATION else 2)
            for run, expected in runs:
                evaluated.clear()
                got = run(NodeKernelCache(rows, RBF, cols))
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
                assert sum(evaluated) <= 7 * (5 if two_sets else 7) * pairs

    def test_pair_blocks_match_elementary(self, rng):
        trees = random_trees(rng, n=5, depth=2)
        i_idx = np.array([0, 1, 3])
        j_idx = np.array([2, 4, 0])
        for cfg in (RBF, LIN):
            cache = NodeKernelCache(trees, cfg)
            for variant in (CONCATENATION, AVERAGING):
                blocks = cache.pair_blocks(i_idx, j_idx, variant)
                # averaging: each unordered node pair once, symmetrized
                pairs = ([(m, m) for m in range(3)]
                         if variant == CONCATENATION else
                         [(m, n) for m in range(3) for n in range(m, 3)])
                assert blocks.shape == (3, len(pairs))
                for b, (i, j) in enumerate(zip(i_idx, j_idx)):
                    a, c = trees[i].vectors, trees[j].vectors
                    for p, (m, n) in enumerate(pairs):
                        expected = (elementary(a[m], c[n], cfg)
                                    + elementary(a[n], c[m], cfg)) / 2.0
                        np.testing.assert_allclose(blocks[b, p], expected,
                                                   atol=1e-12)

    @staticmethod
    def pair_rows(cache, variant):
        """``(i, j, rows)``: ``_pair_rows`` of the labels 0, 1, 2, 0, ...
        drained, and the pairs i < j in the order it reads them, from the
        positions of the variant's grid (its tiles left unmade, so no
        kernel is computed), each position's pairs row by row; checks
        each pair's polarity and that each pair appears once."""
        labels = np.arange(cache.rows.shape[0]) % 3
        pos, rows = map(np.concatenate,
                        zip(*_pair_rows(cache, labels, variant)))
        groups = ([slice(m, m + 1) for m in range(cache.nodes)]
                  if variant == CONCATENATION else [slice(None)])
        i, j = [], []
        for r0, r1, c0, c1, _ in cache._cross_blocks(groups, len(groups)):
            ii, jj = np.meshgrid(np.arange(r0, r1), np.arange(c0, c1),
                                 indexing="ij")
            i.append(ii[jj > ii])
            j.append(jj[jj > ii])
        i, j = np.concatenate(i), np.concatenate(j)
        np.testing.assert_array_equal(pos, labels[i] == labels[j])
        # each pair once
        assert sorted(zip(i, j)) == list(zip(*np.triu_indices(labels.size,
                                                              1)))
        return i, j, rows

    def test_pair_rows_pack_the_cross_tensor(self, rng, small_tiles):
        # averaging rows over ragged row and column tiles: the packed
        # cross tensor of every video pair above the diagonal
        trees = random_trees(rng, n=7, depth=2)
        for cfg in (RBF, LIN):
            cache = NodeKernelCache(trees, cfg)
            want = pack_sym(cache.cross())
            i, j, rows = self.pair_rows(cache, AVERAGING)
            assert rows.shape == (21, 6)
            np.testing.assert_allclose(rows, want[i, j], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("depth", [2, 3])
    def test_pair_rows_tile_the_aligned_table(self, rng, monkeypatch, depth):
        # concatenation rows: every node's aligned kernels stacked, each
        # tile position within one block. Each node's row tiles hold 2, 2
        # and 3 of the 7 videos (at least 2 kernel rows), each against the
        # videos from its first on, in column tiles narrowed by the node
        # count: 4 videos wide, ragged, at depth 2 (3 nodes) and 1 at
        # depth 3 (7 nodes). Each pair of the upper triangle is computed
        # once, plus the 1 + 1 + 3 pairs below the diagonal of the square
        # tiles
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 40)
        monkeypatch.setattr(kernels, "_TILE_ROWS", 2)
        nodes = 2 ** depth - 1
        trees = random_trees(rng, n=7, depth=depth, frames=8)
        evaluated = counting_kernel_matrix(monkeypatch)
        one_node = [slice(m, m + 1) for m in range(nodes)]
        for cfg in (RBF, LIN):
            cache = NodeKernelCache(trees, cfg)
            want = aligned(cache)
            evaluated.clear()
            i, j, rows = self.pair_rows(cache, CONCATENATION)
            assert sum(evaluated) == (28 + 5) * nodes
            assert rows.shape == (21, nodes)
            np.testing.assert_allclose(rows, want[i, j], rtol=0, atol=1e-12)
            for r0, r1, c0, c1, _ in cache._cross_blocks(one_node, nodes):
                assert (r1 - r0) * (c1 - c0) * nodes <= 40

    def test_cross_is_pair_major_across_tiles(self, rng, small_tiles):
        # row tiles of 2, 2 and 3 videos, each over column tiles of 3 and 2
        rows = random_trees(rng, n=7, depth=2)
        cols = random_trees(rng, n=5, depth=2)
        for cfg in (RBF, LIN):
            cross = NodeKernelCache(rows, cfg, cols).cross()
            assert cross.shape == (7, 5, 3, 3) and cross.flags.c_contiguous
            for i, a in enumerate(rows):
                for j, b in enumerate(cols):
                    expected = [[elementary(a.vectors[m], b.vectors[n], cfg)
                                 for n in range(3)] for m in range(3)]
                    np.testing.assert_allclose(cross[i, j], expected,
                                               rtol=0, atol=1e-12)

    def test_streamed_combined_matches_built(self, rng, small_tiles):
        # the tile-by-tile reduction against the whole cross tensor,
        # packed, contracted with the packed outer(beta, beta), over
        # ragged tiles
        rows = random_trees(rng, n=7, depth=2)
        cols = random_trees(rng, n=5, depth=2)
        beta = to_simplex(rng.standard_normal(3))
        cache = NodeKernelCache(rows, RBF, cols)
        np.testing.assert_allclose(
            cache.combined(beta, AVERAGING),
            pack_sym(cache.cross()) @ node_weights(beta, AVERAGING),
            rtol=0, atol=1e-12)

    @pytest.mark.parametrize("variant", [CONCATENATION, AVERAGING])
    def test_level_table_is_node_table_contracted_with_tie(
            self, rng, small_tiles, variant):
        # row tiles of 2, 2 and 3 videos, each over the videos from its
        # first on in column tiles of 3 videos, the last ones ragged. The
        # table holds each unordered video pair once: 28 rows for 7
        # videos, not 49
        rows = random_trees(rng, n=7, depth=2)
        tie = Hierarchy(2).level_matrix
        for cfg in (RBF, LIN):
            cache = NodeKernelCache(rows, cfg)
            got = cache.level_table(tie, variant)
            if variant == CONCATENATION:
                want = aligned(cache) @ tie
            else:
                # 2 levels: 3 unordered level pairs, not 4 ordered ones
                want = pack_sym(np.einsum("ijmn,ml,nk->ijlk", cache.cross(),
                                          tie, tie))
                assert want.shape[2] == 3
            want = pack_pairs(want)
            assert want.shape[0] == 28
            assert got.shape == want.shape and got.flags.c_contiguous
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_one_set_streams_each_pair_once(self, rng, monkeypatch):
        # 9 videos x 3 nodes: row tiles of 2, 2, 2 and 3 videos (at least
        # 6 kernel rows), column tiles of 3 videos (81 elements) from each
        # row tile's first video on: 3 + 3 + 2 + 1 tiles covering
        # 2 * 9 + 2 * 7 + 2 * 5 + 3 * 3 = 51 video pairs, each of the 45
        # unordered pairs once plus the 1 + 1 + 1 + 3 pairs below the
        # diagonal of the square tiles
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 100)
        monkeypatch.setattr(kernels, "_TILE_ROWS", 6)
        n, m = 9, 3
        trees = random_trees(rng, n=n, depth=2)
        tie = Hierarchy(2).level_matrix
        evaluated = counting_kernel_matrix(monkeypatch)
        for cfg in (RBF, LIN):
            cache = NodeKernelCache(trees, cfg)
            evaluated.clear()
            table = cache.level_table(tie, AVERAGING)
            assert len(evaluated) == 9
            assert sum(evaluated) == (45 + 6) * m * m
            want = np.empty((n, n, 3))
            for i, a in enumerate(trees):
                for j, b in enumerate(trees):
                    k = np.array([[elementary(a.vectors[p], b.vectors[u], cfg)
                                   for u in range(m)] for p in range(m)])
                    want[i, j] = pack_sym(tie.T @ k @ tie)
            np.testing.assert_allclose(table, pack_pairs(want), rtol=0,
                                       atol=1e-12)
        labels = np.array([1, 2, 1, 3, 2, 3, 1, 2, 3])
        table = _PairTable(labels)
        cache = NodeKernelCache(trees, RBF)
        evaluated.clear()
        A, b, c = pair_moments(cache, labels, AVERAGING, None)
        assert sum(evaluated) == (45 + 6) * m * m
        rows = cache.pair_blocks(table.i, table.j, AVERAGING)
        coef = 1.0 / table.y.size
        want_A = sum(coef * np.outer(row, row) for row in rows)
        want_b = sum(coef * row for row, y in zip(rows, table.y) if y > 0)
        np.testing.assert_allclose(A, want_A, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b, want_b, rtol=0, atol=1e-12)

    def test_one_set_aligned_computes_each_pair_once(self, rng, monkeypatch):
        # one node at a time: row tiles of 2, 2, 2 and 3 of the 9 videos,
        # each against the videos from its first on, into the 45 rows of
        # the packed table
        monkeypatch.setattr(kernels, "_TILE_ROWS", 2)
        n, m = 9, 3
        trees = random_trees(rng, n=n, depth=2)
        tie = Hierarchy(2).level_matrix
        evaluated = counting_kernel_matrix(monkeypatch)
        for cfg in (RBF, LIN):
            cache = NodeKernelCache(trees, cfg)
            evaluated.clear()
            table = cache.level_table(tie, CONCATENATION)
            assert sum(evaluated) == (45 + 6) * m
            assert table.shape == (45, 2)
            np.testing.assert_allclose(table, pack_pairs(aligned(cache) @ tie),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("variant", [CONCATENATION, AVERAGING])
    def test_streamed_combined_unpacks_its_upper_triangle(self, rng,
                                                          small_tiles,
                                                          variant):
        # a one-set combined computes each video pair once, packed, and
        # unpacks it into exactly symmetric values
        trees = random_trees(rng, n=7, depth=2)
        beta = to_simplex(rng.standard_normal(3))
        cache = NodeKernelCache(trees, RBF)
        got = cache.combined(beta, variant)
        np.testing.assert_array_equal(got, got.T)
        node_table = (aligned(cache) if variant == CONCATENATION
                      else pack_sym(cache.cross()))
        np.testing.assert_allclose(
            got, node_table @ node_weights(beta, variant), rtol=0,
            atol=1e-12)

    @pytest.mark.parametrize("variant", [CONCATENATION, AVERAGING])
    def test_combined_refuses_values_over_limit(self, rng, monkeypatch,
                                                variant):
        # combined's one-column level table is the only table it holds
        cache = NodeKernelCache(random_trees(rng, n=7, depth=2), RBF,
                                random_trees(rng, n=5, depth=2))
        beta = to_simplex(rng.standard_normal(3))
        monkeypatch.setattr(kernels, "_DENSE_LIMIT", 7 * 5 - 1)
        with pytest.raises(errors.ValidationError, match="7 x 5 videos"):
            cache.combined(beta, variant)
        monkeypatch.setattr(kernels, "_DENSE_LIMIT", 7 * 5)
        assert cache.combined(beta, variant).shape == (7, 5)

    def test_level_table_checks_tie_shape(self, rng):
        cache = NodeKernelCache(random_trees(rng, n=4, depth=2), RBF)
        with pytest.raises(errors.ShapeMismatch, match="3 nodes"):
            cache.level_table(Hierarchy(3).level_matrix, AVERAGING)

    @pytest.mark.parametrize("variant", [CONCATENATION, AVERAGING])
    def test_level_table_refuses_two_tree_sets(self, rng, variant):
        # the level table is alternating training's, over its one
        # training set; two sets meet only in combined values
        cache = NodeKernelCache(random_trees(rng, n=4, depth=2), RBF,
                                random_trees(rng, n=3, depth=2))
        with pytest.raises(errors.ShapeMismatch, match="single tree set"):
            cache.level_table(Hierarchy(2).level_matrix, variant)

    @pytest.mark.parametrize("variant", [CONCATENATION, AVERAGING])
    def test_all_zero_weights_compute_no_kernel(self, rng, monkeypatch,
                                                variant):
        # no node held: every entry point returns its zeros, in its
        # shape, and evaluates no node kernel
        rows = random_trees(rng, n=7, depth=2)
        cols = random_trees(rng, n=5, depth=2)
        zero = np.zeros(3)
        tie = np.zeros((3, 2))
        width = 2 if variant == CONCATENATION else 3
        evaluated = counting_kernel_matrix(monkeypatch)
        for run, shape in (
                (lambda: gram_matrix(rows, zero, variant, RBF).values,
                 (7, 7)),
                (lambda: kernel_columns(rows, cols, zero, variant, RBF),
                 (7, 5)),
                (lambda: NodeKernelCache(rows, RBF).combined(zero, variant),
                 (7, 7)),
                (lambda: NodeKernelCache(rows, RBF, cols).combined(
                    zero, variant), (7, 5)),
                (lambda: NodeKernelCache(rows, RBF).level_table(tie,
                                                                variant),
                 (28, width))):
            got = run()
            assert got.shape == shape
            np.testing.assert_array_equal(got, 0.0)
        assert evaluated == []

    @pytest.mark.parametrize("dim", [4, 128])
    def test_concatenation_levels_sum_alike_in_any_table(self, rng,
                                                         small_tiles, dim):
        # a node that weighs two levels, a zero row, and levels reduced
        # together or one per table: each level's column has the same bits
        cache = NodeKernelCache(random_trees(rng, n=9, depth=3, dim=dim),
                                RBF)
        tie = rng.random((7, 3)) * Hierarchy(3).level_matrix
        tie[2, 2] = 0.25
        tie[4] = 0.0
        table = cache.level_table(tie, CONCATENATION)
        for level in range(3):
            np.testing.assert_array_equal(
                table[:, level],
                cache.level_table(tie[:, [level]], CONCATENATION)[:, 0])

    def test_one_set_cross_mirrors_two_set_cross(self, rng, small_tiles):
        # a one-set cache computes the upper triangle of video pairs and
        # fills the rest from its mirror; a two-set cache over the same
        # trees computes every pair
        trees = random_trees(rng, n=7, depth=2)
        for cfg in (RBF, LIN):
            one = NodeKernelCache(trees, cfg).cross()
            two = NodeKernelCache(trees, cfg, trees).cross()
            assert one.shape == two.shape == (7, 7, 3, 3)
            np.testing.assert_allclose(one, two, rtol=0, atol=1e-12)


class TestTiles:
    """The tiles of ``_cross_blocks``: at each tile position, each node
    group's tile in turn, at most ``_BLOCK_ELEMENTS / stack`` elements
    unless one column video wide, at least ``_TILE_ROWS`` kernel rows
    whenever the row set has that many, every video pair of a two-set
    cache once, and of a one-set cache each row tile against the videos
    from its first row video on, once."""

    @staticmethod
    def check_tiles(cache, groups=(slice(None),), stack=1):
        nr, nc = cache.rows.shape[0], cache.cols.shape[0]
        a = cache.rows[0, groups[0]].shape[0]
        covered = np.zeros((nr, nc), dtype=int)
        row_tiles = set()
        for r0, r1, c0, c1, tiles in cache._cross_blocks(list(groups),
                                                         stack):
            for g, tile in zip(groups, tiles, strict=True):
                assert tile.shape == (r1 - r0, a, c1 - c0, a)
                assert (tile.size * stack <= kernels._BLOCK_ELEMENTS
                        or c1 - c0 == 1)
                want = kernels._kernel_matrix(cache.rows[r0:r1, None, g],
                                              cache.cols[None, c0:c1, g],
                                              cache.cfg)
                np.testing.assert_allclose(tile.transpose(0, 2, 1, 3), want,
                                           rtol=0, atol=1e-12)
            assert (r1 - r0) * a >= min(kernels._TILE_ROWS, nr * a)
            row_tiles.add((r0, r1))
            covered[r0:r1, c0:c1] += 1
        starts = sorted(row_tiles)
        assert [r0 for r0, _ in starts] == [0] + [r1 for _, r1 in starts[:-1]]
        assert starts[-1][1] == nr
        if cache.cols is not cache.rows:
            np.testing.assert_array_equal(covered, 1)
            return
        for r0, r1 in starts:
            np.testing.assert_array_equal(covered[r0:r1, :r0], 0)
            np.testing.assert_array_equal(covered[r0:r1, r0:], 1)

    @pytest.mark.parametrize("nodes", [slice(None), slice(3, 4),
                                       np.array([0, 4, 6])])
    @pytest.mark.parametrize("n", [3, 12, 130])
    def test_tile_contract(self, rng, n, nodes):
        # depth 4 at the real sizes. All 15 nodes: row tiles of at least
        # 5 videos (75 kernel rows), column tiles of 58 videos. One node:
        # row tiles of at least 64 videos; three leaves: at least 22.
        # Fewer than 64 kernel rows in all (3 videos, or 12 videos of one
        # or three nodes) make one row tile.
        trees = random_trees(rng, n=n, depth=4, dim=2)
        if isinstance(nodes, np.ndarray):
            nodes = nodes + 7       # leaves of a depth-4 tree
        for cache in (NodeKernelCache(trees, RBF),
                      NodeKernelCache(trees, LIN,
                                      random_trees(rng, n=70, depth=4,
                                                   dim=2))):
            self.check_tiles(cache, (nodes,))

    @pytest.mark.parametrize("n", [7, 130])
    def test_one_node_groups_share_one_grid(self, rng, n):
        # concatenation's stream: every node a group of its own, each
        # position's tiles in node order, on the grid of one node's stream
        # narrowed by the node count, all in the stream's one tile array
        trees = random_trees(rng, n=n, depth=3, dim=2)
        one_node = [slice(m, m + 1) for m in range(7)]
        for cache in (NodeKernelCache(trees, RBF),
                      NodeKernelCache(trees, RBF,
                                      random_trees(rng, n=9, depth=3,
                                                   dim=2))):
            self.check_tiles(cache, one_node, stack=7)
            grid = [at for *at, _ in cache._cross_blocks(one_node[:1], 7)]
            starts = []
            for *at, tiles in cache._cross_blocks(one_node, 7):
                starts.append(at)
                first, *rest = [tile.ctypes.data for tile in tiles]
                assert rest == [first] * 6
            assert starts == grid

    @pytest.mark.parametrize("variant", [CONCATENATION, AVERAGING])
    def test_one_tile_array_per_pass(self, rng, monkeypatch, variant):
        # 61 videos of 7 nodes: averaging's grid has 30 row tiles of 2 or 3
        # videos, concatenation's 4 of 15 or 16, each over ragged column
        # tiles from its first video on. Every tile, the largest too, is
        # a view of the one array the pass made its first tile in
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 1000)
        monkeypatch.setattr(kernels, "_TILE_ROWS", 14)
        cache = NodeKernelCache(random_trees(rng, n=61, depth=3, dim=4), RBF)
        groups = ([slice(m, m + 1) for m in range(7)]
                  if variant == CONCATENATION else [slice(None)])
        heights, sizes, first = set(), set(), None
        for r0, r1, c0, c1, tiles in cache._cross_blocks(groups,
                                                         len(groups)):
            heights.add(r1 - r0)
            for tile in tiles:
                first = tile if first is None else first
                sizes.add(tile.size)
                assert np.shares_memory(tile, first)
        assert len(heights) == 2 and len(sizes) > 2

    @pytest.mark.parametrize("depth", [2, 3, 4])
    @pytest.mark.parametrize("n, dim, per_tile", [(6, 3, 2), (8, 16, 4),
                                                  (12, 5, 3), (12, 64, 6)])
    def test_views_and_copies_round_alike(self, rng, monkeypatch, depth, n,
                                          dim, per_tile):
        # row tiles of per_tile videos whose first column tile is the same
        # videos: over views of every node that tile's kernel product is
        # one array times its own transpose, over the node copies it is not
        m = 2 ** depth - 1
        monkeypatch.setattr(kernels, "_TILE_ROWS", per_tile * m)
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", (per_tile * m) ** 2)
        cache = NodeKernelCache(random_trees(rng, n=n, depth=depth, dim=dim),
                                RBF)
        every = np.arange(m)
        # each tile copied: the next one overwrites the stream's array
        views = [(*at, tile.copy())
                 for *at, (tile,) in cache._cross_blocks([slice(None)])]
        copies = [(*at, tile.copy())
                  for *at, (tile,) in cache._cross_blocks([every])]
        assert len(views) == len(copies)
        assert any(r0 == c0 and r1 == c1 for r0, r1, c0, c1, _ in views)
        for (*at, view), (*at_copy, copy) in zip(views, copies):
            assert at == at_copy
            np.testing.assert_array_equal(view, copy)

    @pytest.mark.parametrize("chunk", [1, 50, None])
    def test_tiles_keep_the_bits_of_whole_array_kernels(self, rng,
                                                        monkeypatch, chunk):
        # every tile, made in the stream's one array a chunk of rows at a
        # time, over ragged tiles of 2 or 3 row videos of 7 nodes and 6
        # column videos, against the whole-array steps on its row panel
        # and columns; and the batched oracle path, into a new array
        monkeypatch.setattr(kernels, "_TILE_ROWS", 14)
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 1000)
        if chunk is not None:
            monkeypatch.setattr(kernels, "_KERNEL_CHUNK", chunk)
        trees = random_trees(rng, n=13, depth=3, dim=5)
        for cache in (NodeKernelCache(trees, RBF),
                      NodeKernelCache(trees, RBF,
                                      random_trees(rng, n=8, depth=3, dim=5)),
                      NodeKernelCache(trees, LIN)):
            d = cache.rows.shape[2]
            for r0, r1, c0, c1, (tile,) in cache._cross_blocks(
                    [slice(None)]):
                want = whole_array_kernels(
                    cache.rows[r0:r1].reshape(-1, d).copy(),
                    cache.cols[c0:c1].reshape(-1, d), cache.cfg)
                np.testing.assert_array_equal(tile.reshape(want.shape), want)
        X, Y = rng.standard_normal((2, 4, 6, 5))
        np.testing.assert_array_equal(kernels._kernel_matrix(X, Y, RBF),
                                      whole_array_kernels(X, Y, RBF))

    @pytest.mark.parametrize("n", [7, 9, 10])
    def test_ragged_tiles(self, rng, small_tiles, n):
        trees = random_trees(rng, n=n, depth=2)
        for cache in (NodeKernelCache(trees, RBF),
                      NodeKernelCache(trees, RBF,
                                      random_trees(rng, n=5, depth=2))):
            for nodes in (slice(None), slice(1, 2)):
                self.check_tiles(cache, (nodes,))


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
        # the fixed (n * (n + 1) / 2, 4 * 5 / 2) level table, one entry per
        # unordered video pair and level pair, and beside it tiles of the
        # cross kernels and n x n Grams
        n = 200
        trees = random_trees(rng, n=n, depth=4, dim=4)
        labels = np.array([1 + (i % 2) for i in range(n)])
        res = []
        peak = self.peak_bytes(lambda: res.append(em_fit(
            trees, labels, AVERAGING, RBF, EmConfig(max_iters=2))))
        assert res[0].iterations >= 1
        assert peak <= (n * (n + 1) // 2 * 10 * 8
                        + 4 * kernels._BLOCK_ELEMENTS * 8)

    @pytest.mark.parametrize("variant, width", [(AVERAGING, 10),
                                                (CONCATENATION, 4)])
    def test_em_fit_holds_one_gram_beside_its_table(self, rng, variant,
                                                    width):
        # the level table, the stacked trees, tiles, and one n x n Gram,
        # its contraction written in place: no packed column beside it, no
        # n x n temporaries for its checks, nor a transposed copy per dual
        # solve
        n = 400
        trees = random_trees(rng, n=n, depth=4, dim=4)
        labels = np.array([1 + (i % 2) for i in range(n)])
        # one loose dual solve per class: the peak, not the optimum
        peak = self.peak_bytes(lambda: em_fit(
            trees, labels, variant, RBF, EmConfig(max_iters=0),
            TrainConfig(kkt_tol=1e-2)))
        table = n * (n + 1) // 2 * width * 8
        gram = n * n * 8
        stacked = n * self.NODES * 4 * 8
        # (the packed column alone is 1.22 blocks)
        assert peak <= (table + gram + stacked
                        + kernels._BLOCK_ELEMENTS * 8)

    @pytest.mark.parametrize("n", [600, 2, 1])
    def test_unpack_pairs_copies_row_by_row(self, rng, n):
        # the oracle's values, written row by row: no index arrays (two
        # n(n+1)/2 int64 arrays) and no gathered copy of the pairs beside
        # them
        dense = rng.standard_normal((n, n))
        dense += dense.T
        packed = pack_pairs(dense)
        got = []
        peak = self.peak_bytes(lambda: got.append(unpack_pairs(packed)))
        np.testing.assert_array_equal(got[0], dense)
        assert peak < n * n * 8 + 4096
        for bad in (np.append(packed, 0.0), np.array(1.0)):
            with pytest.raises(ValueError, match="packed pairs"):
                unpack_pairs(bad)

    @pytest.mark.parametrize("width", [1, 4])
    def test_contract_pairs_writes_in_place(self, rng, width):
        # 1,000 videos: the n x n values alone; no n * (n + 1) / 2 packed
        # column (half as large again) beside them
        n = 1000
        table = rng.standard_normal((n * (n + 1) // 2, width))
        w = rng.random(width)
        peak = self.peak_bytes(lambda: kernels.contract_pairs(table, w))
        assert peak < n * n * 8 + 4096

    @pytest.mark.parametrize("variant", [CONCATENATION, AVERAGING])
    def test_one_set_combined_holds_no_packed_column(self, rng, variant):
        # 1,000 videos: the n x n values and, beside them, the stream's
        # tile array and one position's contraction; no n * (n + 1) / 2
        # packed column (about 7.6 blocks here)
        n = 1000
        cache = NodeKernelCache(random_trees(rng, n=n, depth=2, dim=4), RBF)
        beta = to_simplex(rng.standard_normal(3))
        peak = self.peak_bytes(lambda: cache.combined(beta, variant))
        assert peak <= n * n * 8 + 3 * kernels._BLOCK_ELEMENTS * 8

    def test_sparse_beta_gathers_held_columns_once(self, rng):
        # 600 trees at dim 128, 8 of 15 nodes weighted: beside the n x n
        # values, the weighted nodes of every column tree in one copy (4.7
        # MiB) and tiles; not a fancy-indexed copy laid out (nodes, videos,
        # dim) and copied again into rows (9.4 MiB)
        n = 600
        cache = NodeKernelCache(random_trees(rng, n=n, depth=4, dim=128),
                                RBF)
        beta = np.zeros(self.NODES)
        beta[::2] = to_simplex(rng.standard_normal(8))
        peak = self.peak_bytes(lambda: cache.combined(beta, AVERAGING))
        assert peak - n * n * 8 < 6 * 2 ** 20

    def test_median_gamma_squares_in_blocks(self, rng):
        # 60 trees of 4,096-d node vectors: the stacked trees and a few
        # blocks, not three 10,000 x 4,096 sample arrays (654 MB)
        trees = random_trees(rng, n=60, depth=4, frames=8, dim=4096)
        peak = self.peak_bytes(lambda: median_gamma(trees))
        stacked = 60 * self.NODES * 4096 * 8
        assert peak <= stacked + 4 * kernels._BLOCK_ELEMENTS * 8

    @pytest.mark.parametrize("depth", [4, 6])
    def test_contrastive_concatenation_holds_no_node_table(self, rng,
                                                           depth):
        # the pair table and pair weights (about 3 n * n values) or the
        # n x n Gram and its checks, and beside them a fixed number of
        # tiles, whatever the node count: not the (n, n, nodes) aligned
        # table, 15 or 63 times n * n values, nor its rows gathered
        n = 240
        trees = random_trees(rng, n=n, depth=depth, frames=2 ** depth,
                             dim=4)
        labels = np.array([1 + (i % 3) for i in range(n)])
        res = []
        peak = self.peak_bytes(lambda: res.append(dmkl_fit(
            trees, labels, CONCATENATION, ContrastiveConfig(iterations=5),
            RBF)))
        assert res[0].kernel_table == ("moments", (2 ** depth - 1,) * 2)
        assert peak <= 6 * n * n * 8 + 8 * kernels._BLOCK_ELEMENTS * 8

    ROUTES = ["em_fit", "dmkl_fit", "gram_matrix", "kernel_columns",
              "level_table"]

    @staticmethod
    def run_route(rng, route, variant):
        """Run ``route`` under ``variant`` over 12 trees of depth 3."""
        trees = random_trees(rng, n=12, depth=3, dim=4)
        labels = np.array([1 + (i % 3) for i in range(12)])
        beta = to_simplex(rng.standard_normal(7))
        runs = {
            "em_fit": lambda: em_fit(trees, labels, variant, RBF,
                                     EmConfig(max_iters=2)),
            "dmkl_fit": lambda: dmkl_fit(trees, labels, variant,
                                         ContrastiveConfig(iterations=2), RBF),
            "gram_matrix": lambda: gram_matrix(trees, beta, variant, RBF),
            "kernel_columns": lambda: kernel_columns(trees[:5], trees[5:],
                                                     beta, variant, RBF),
            "level_table": lambda: NodeKernelCache(trees, RBF).level_table(
                Hierarchy(3).level_matrix, variant),
        }
        runs[route]()

    @pytest.mark.parametrize("route", ROUTES)
    def test_no_route_builds_cross_tensor(self, rng, monkeypatch, route):
        def refuse(cache):
            raise AssertionError(f"{route} called cross")

        monkeypatch.setattr(NodeKernelCache, "cross", refuse)
        self.run_route(rng, route, AVERAGING)

    @pytest.mark.parametrize("variant", [CONCATENATION, AVERAGING])
    @pytest.mark.parametrize("route", ROUTES)
    def test_no_route_allocates_a_node_table(self, rng, monkeypatch, route,
                                             variant):
        # depth 3: the tables a route may allocate are 3 levels wide, 6
        # level pairs or 1 column, never one entry per node (7)
        empty_table = NodeKernelCache._empty_table

        def guarded(cache, width, *args):
            assert width != cache.nodes, f"{route} allocated a node table"
            return empty_table(cache, width, *args)

        monkeypatch.setattr(NodeKernelCache, "_empty_table", guarded)
        self.run_route(rng, route, variant)

    def assert_wide_rows_stream_in_three_blocks(self, rng, dim):
        """Peak minus output of the averaging ``level_table`` over 280
        trees of depth 4 and ``combined`` over 40 x 280, below 3.5
        blocks."""
        wide = random_trees(rng, n=280, depth=4, dim=dim)
        one_set = NodeKernelCache(wide, RBF)
        cache = NodeKernelCache(random_trees(rng, n=40, depth=4, dim=dim),
                                RBF, wide)
        assert 280 * self.NODES * dim > kernels._BLOCK_ELEMENTS
        beta = to_simplex(rng.standard_normal(self.NODES))
        for fn, out_bytes in (
                (lambda: one_set.level_table(Hierarchy(4).level_matrix,
                                             AVERAGING),
                 280 * 281 // 2 * 10 * 8),
                (lambda: cache.combined(beta, AVERAGING), 40 * 280 * 8)):
            peak = self.peak_bytes(fn) - out_bytes
            assert peak < 3.5 * kernels._BLOCK_ELEMENTS * 8

    def test_wide_rows_stream_in_three_blocks(self, rng):
        # 280 cols x 15 nodes x dim 128 is about two blocks: computing the
        # column norms once per pass, not per tile, leaves at most the
        # previous tile and the next one's two buffers as the working
        # memory
        self.assert_wide_rows_stream_in_three_blocks(rng, 128)

    def test_column_norms_stream_in_blocks(self, rng):
        # at dim 256 the columns' squares made at once would be about four
        # blocks; the pass makes them in row chunks of about one block
        self.assert_wide_rows_stream_in_three_blocks(rng, 256)

    @pytest.mark.parametrize("depth", [4, 6])
    def test_concatenation_tiles_stream_in_one_buffer(self, rng, depth):
        # 140 videos at dim 128, on concatenation's grid narrowed by the
        # node count: at each tile position every node's aligned kernels
        # are made in turn in the stream's one tile array, each from its
        # own copied row panel; not a tile buffer and a row panel held per
        # node (4.4 blocks at depth 4, 11.1 at depth 6)
        cache = NodeKernelCache(random_trees(rng, n=140, depth=depth,
                                             frames=2 ** depth, dim=128),
                                RBF)
        one_node = [slice(m, m + 1) for m in range(cache.nodes)]

        def consume():
            for *_, tiles in cache._cross_blocks(one_node, len(one_node)):
                for _ in tiles:
                    pass

        assert self.peak_bytes(consume) < 2 * kernels._BLOCK_ELEMENTS * 8

    def test_streamed_combined_never_holds_tensor(self, rng):
        cache = self.cache(rng)
        beta = to_simplex(rng.standard_normal(self.NODES))
        peak = self.peak_bytes(lambda: cache.combined(beta, AVERAGING))
        assert peak < self.NR * self.NC * self.NODES ** 2 * 8
