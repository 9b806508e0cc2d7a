import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from conftest import random_trees
from oracles import (central_difference, contrastive_loss, pack_sym,
                     simplex_qp_oracle, unpack_pairs)
from treemkl import dmkl, errors, kernels
from treemkl.dmkl import (
    FW_GAP_TOL,
    STOP_REASONS,
    ContrastiveConfig,
    _PairTable,
    dmkl_fit,
    dmkl_then_svm,
    loss_grad,
    pair_moments,
    quartic_argmin,
    segment_quartic,
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
    """Every pair of ``labels`` with its +/-1 label, from the pair table of
    the per-pair oracle ``loss_grad``."""
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

    def test_compact_dtypes_row_major(self, rng):
        labels = rng.integers(1, 4, size=30)
        table = _PairTable(labels)
        i, j = np.triu_indices(30, k=1)
        assert (table.i.dtype, table.j.dtype, table.y.dtype) == (
            np.int32, np.int32, np.int8)
        np.testing.assert_array_equal(table.i, i)
        np.testing.assert_array_equal(table.j, j)
        np.testing.assert_array_equal(
            table.y, np.where(labels[i] == labels[j], 1, -1))

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


def parent_rows(cache, i, j, variant):
    """``(at, rows)`` batches of the sorted pairs ``(i[at], j[at])`` and
    their rows of node kernels, joined until a batch holds at least
    ``_MOMENT_PANEL`` pairs, as ``pair_moments`` once gathered them. Each
    tile position's node table is built from its ``_cross_blocks`` tiles:
    concatenation stacks copies of its one-node tiles, on the grid
    narrowed by the node count, and averaging packs its cross tile with
    ``pack_sym``. The position's pairs are found by a ``searchsorted``
    walk over ``i``."""
    if variant == CONCATENATION:
        groups = [slice(m, m + 1) for m in range(cache.nodes)]
    else:
        groups = [slice(None)]
    batch, size = [], 0
    for r0, r1, c0, c1, tiles in cache._cross_blocks(groups, len(groups)):
        if variant == CONCATENATION:
            # copies: every tile of a position is a view of one array
            table = np.stack([tile[:, 0, :, 0].copy() for tile in tiles],
                             axis=-1)
        else:
            (tile,) = tiles
            table = pack_sym(tile.transpose(0, 2, 1, 3))
        lo, hi = np.searchsorted(i, (r0, r1))
        inside = (j[lo:hi] >= c0) & (j[lo:hi] < c1)
        at = lo + np.flatnonzero(inside)
        batch.append((at, table[i[at] - r0, j[at] - c0]))
        size += at.size
        if size >= dmkl._MOMENT_PANEL:
            yield tuple(map(np.concatenate, zip(*batch)))
            batch, size = [], 0
    if batch:
        yield tuple(map(np.concatenate, zip(*batch)))


def parent_pair_moments(cache, labels, variant, positive_fraction):
    """``pair_moments`` as it was written over full-length int64 pair
    indices and float64 pair labels and weights, its rows gathered by
    ``parent_rows``: the reference its bits are held to."""
    i, j = np.triu_indices(labels.size, k=1)
    y = np.where(labels[i] == labels[j], 1.0, -1.0)
    q = node_weights(np.ones(cache.nodes), variant).size
    pos, f = y > 0, positive_fraction
    coef = (np.full(pos.size, 1.0 / pos.size) if f is None
            else np.where(pos, f / pos.sum(), (1.0 - f) / (~pos).sum()))
    coef_pos = np.where(pos, coef, 0.0)
    A, b = np.zeros((q, q)), np.zeros(q)
    for at, rows in parent_rows(cache, i, j, variant):
        weighted = coef[at, None] * rows
        for s in range(0, q, dmkl._MOMENT_PANEL):
            e = s + dmkl._MOMENT_PANEL
            A[s:e, s:] += rows[:, s:e].T @ weighted[:, s:]
        b += coef_pos[at] @ rows
    for s in range(dmkl._MOMENT_PANEL, q, dmkl._MOMENT_PANEL):
        A[s:s + dmkl._MOMENT_PANEL, :s] = A[:s, s:s + dmkl._MOMENT_PANEL].T
    return A, b, float(coef_pos.sum())


class TestPairMoments:
    @pytest.mark.parametrize("ragged", [False, True])
    @pytest.mark.parametrize("variant", [CONCATENATION, AVERAGING])
    @pytest.mark.parametrize("fraction", [None, 0.5, 0.3])
    def test_moments_keep_the_bits_of_full_length_weights(
            self, rng, monkeypatch, variant, fraction, ragged):
        if ragged:
            # 61 videos of 7 nodes: averaging streams 30 row tiles of 2 or
            # 3 videos over column tiles of 6 videos, concatenation 4 row
            # tiles of 15 or 16 over column tiles of 8; every diagonal
            # tile holds a partial triangle of pairs
            monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 1000)
            monkeypatch.setattr(kernels, "_TILE_ROWS", 14)
        trees = random_trees(rng, n=61, depth=3, dim=4)
        labels = rng.integers(1, 4, size=61)
        cache = NodeKernelCache(trees, RBF)
        got = pair_moments(cache, labels, variant, fraction)
        want = parent_pair_moments(cache, labels, variant, fraction)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    # (_TILE_ROWS, _BLOCK_ELEMENTS) over 90 videos of 7 nodes, each grid
    # ragged: batches that are one tile position's rows as they are, a
    # view of its table wholly above the diagonal or a copy of a diagonal
    # table's upper triangle, and batches joined from several positions,
    # views among them, for averaging (70, 16000) and for concatenation
    # (14, 4000); (14, 1000) joins every batch
    GRIDS = [(70, 16000), (14, 4000), (14, 1000)]

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("variant", [CONCATENATION, AVERAGING])
    def test_reused_tiles_keep_the_bits(self, rng, monkeypatch, variant,
                                        grid):
        # a batch that held a view of the stream's one tile array past the
        # next tile would read the next tile's kernels
        monkeypatch.setattr(kernels, "_TILE_ROWS", grid[0])
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", grid[1])
        trees = random_trees(rng, n=90, depth=3, dim=4)
        labels = rng.integers(1, 4, size=90)
        cache = NodeKernelCache(trees, RBF)
        got = pair_moments(cache, labels, variant, 0.5)
        want = parent_pair_moments(cache, labels, variant, 0.5)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        # the Gram filled tile by tile and mirrored, against its packed
        # column unpacked
        beta = to_simplex(rng.standard_normal(7))
        np.testing.assert_array_equal(
            cache.combined(beta, variant),
            unpack_pairs(cache.level_table(beta[:, None], variant)[:, 0]))

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("variant", [CONCATENATION, AVERAGING])
    def test_pair_rows_are_c_contiguous(self, rng, monkeypatch, variant,
                                        grid):
        # b's product reads each batch's rows as they are laid out: rows
        # with the pair axis innermost give b other bits. Every batch is
        # C-contiguous float64 (pairs, q), each pair once, and holds at
        # least _MOMENT_PANEL pairs but the last
        monkeypatch.setattr(kernels, "_TILE_ROWS", grid[0])
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", grid[1])
        cache = NodeKernelCache(random_trees(rng, n=90, depth=3, dim=4), RBF)
        q = node_weights(np.ones(7), variant).size
        batches = list(dmkl._pair_rows(cache, np.arange(90) % 3, variant))
        assert sum(pos.size for pos, _ in batches) == 90 * 89 // 2
        for k, (pos, rows) in enumerate(batches):
            assert rows.dtype == np.float64 and rows.flags.c_contiguous
            assert rows.shape == (pos.size, q)
            assert pos.size >= dmkl._MOMENT_PANEL or k == len(batches) - 1

    def test_pair_rows_need_one_tree_set(self, rng):
        cache = NodeKernelCache(random_trees(rng, n=6, depth=2), RBF,
                                random_trees(rng, n=4, depth=2))
        for variant in (CONCATENATION, AVERAGING):
            with pytest.raises(errors.ShapeMismatch,
                               match="single tree set"):
                next(dmkl._pair_rows(cache, np.arange(6) % 2, variant))

    def test_labels_must_match_the_videos(self, rng):
        cache = NodeKernelCache(random_trees(rng, n=6, depth=2), RBF)
        for labels in (np.arange(8) % 2 + 1, np.arange(5) % 2 + 1):
            with pytest.raises(errors.ShapeMismatch,
                               match=f"{labels.size} labels for 6 videos"):
                pair_moments(cache, labels, AVERAGING, None)

    def test_averaging_moments_peak(self, rng):
        # the dmkl-avg shape, 140 videos of 15 nodes at dim 16: the
        # stream's one kernel tile array and one position's packed table,
        # one batch of rows and its weighted copy, A and its panel update;
        # not a new tile per stage per tile (about 5.9 blocks)
        trees = random_trees(rng, n=140, depth=4, dim=16)
        labels = np.arange(140) % 7 + 1
        cache = NodeKernelCache(trees, RBF)
        tracemalloc.start()
        try:
            pair_moments(cache, labels, AVERAGING, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * kernels._BLOCK_ELEMENTS * 8

    def test_pair_bookkeeping_peak(self, rng):
        # 1,200 videos, 719,400 pairs: one polarity byte a pair, with one
        # full-length float64 sum for c at the end, 9 bytes a pair; no
        # room for a pair table of int32 videos beside them, nor for int64
        # indices, float64 labels and full-length weight arrays
        n = 1200
        trees = random_trees(rng, n=n, depth=2, dim=4)
        labels = np.arange(n) % 3 + 1
        cache = NodeKernelCache(trees, RBF)
        tracemalloc.start()
        try:
            pair_moments(cache, labels, CONCATENATION, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pairs = n * (n - 1) // 2
        assert peak <= 10 * pairs + 4 * kernels._BLOCK_ELEMENTS * 8

    def test_pair_rows_peak_is_tiles(self, rng):
        # 1,200 videos, 719,400 pairs, drained: the stream's one tile
        # array (one block), one position's stacked table, a diagonal
        # table's gathered rows and the batch the loop still holds,
        # whatever the pair count; no room for an int64 array over every
        # pair (8 bytes a pair) on any tile, nor a new tile per stage
        n = 1200
        trees = random_trees(rng, n=n, depth=2, dim=4)
        cache = NodeKernelCache(trees, RBF)
        labels = np.arange(n) % 3 + 1
        tracemalloc.start()
        try:
            for _ in dmkl._pair_rows(cache, labels, CONCATENATION):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 5 * kernels._BLOCK_ELEMENTS * 8
        assert peak <= bound < 8 * (n * (n - 1) // 2)

    @pytest.mark.parametrize("fraction", [0.5, None])
    @pytest.mark.parametrize("variant", [CONCATENATION, AVERAGING])
    def test_match_loss_grad_oracle(self, rng, monkeypatch, variant,
                                    fraction):
        # averaging streams the 9 videos of 7 nodes in row tiles of 2, 2,
        # 2 and 3 videos (at least 14 kernel rows), each over column tiles
        # of 6 videos (882 elements) from its first video on, ragged
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 1000)
        monkeypatch.setattr(kernels, "_TILE_ROWS", 14)
        trees = random_trees(rng, n=9, depth=3, frames=16, dim=3)
        labels = np.array([1, 1, 2, 3, 2, 1, 3, 3, 2])
        table = _PairTable(labels)
        cache = NodeKernelCache(trees, RBF)
        oracle = NodeKernelCache(trees, RBF)
        A, b, c = pair_moments(cache, labels, variant, fraction)
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
            pair_moments(cache, np.array([1, 2, 3]), CONCATENATION, 0.5)

    def test_depth_6_averaging_moments_hold_each_node_pair_once(self, rng):
        # 63 nodes: 2016 unordered node pairs, not 63**2 = 3969 ordered
        # ones, so A spans several panels of rows, mirrored below its
        # diagonal
        trees = random_trees(rng, n=4, depth=6, frames=32, dim=2)
        labels = np.array([1, 1, 2, 2])
        table = _PairTable(labels)
        A, b, c = pair_moments(NodeKernelCache(trees, RBF), labels,
                               AVERAGING, None)
        assert A.shape == (2016, 2016) and b.shape == (2016,)
        panel = dmkl._MOMENT_PANEL
        assert 2016 > 2 * panel
        np.testing.assert_array_equal(A[panel:, :panel], A[:panel, panel:].T)
        np.testing.assert_allclose(A, A.T, rtol=0,
                                   atol=1e-14 * np.abs(A).max())
        # the quadratic form is the loss of per-pair combined kernels
        for _ in range(3):
            beta = to_simplex(rng.standard_normal(63))
            w = node_weights(beta, AVERAGING)
            k_vals = np.array([combined_kernel(trees[i], trees[j], beta,
                                               AVERAGING, RBF)
                               for i, j in zip(table.i, table.j)])
            want = contrastive_loss(k_vals, table.y)
            assert abs(w @ A @ w - 2.0 * (b @ w) + c - want) <= 1e-12 * want

    def test_moment_matrix_over_limit_rejected_unallocated(self, rng):
        # depth 7 averaging: A would be (8128, 8128), one row per
        # unordered pair of 127 nodes, 528 MB
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
        # 8 videos of 7 nodes: the moments read the (8, 8, 7) aligned
        # kernels in tiles, so training needs only the 8 x 8 Gram under
        # the limit, and is refused at the Gram above it
        trees = random_trees(rng, n=8, depth=3)
        labels = np.array([1 + (i % 2) for i in range(8)])
        cfg = ContrastiveConfig(iterations=1)
        monkeypatch.setattr(kernels, "_DENSE_LIMIT", 8 * 8)
        assert 8 * 8 * 7 > kernels._DENSE_LIMIT
        dmkl_fit(trees, labels, CONCATENATION, cfg, RBF)
        monkeypatch.setattr(kernels, "_DENSE_LIMIT", 8 * 8 - 1)
        with pytest.raises(errors.ValidationError,
                           match="8 x 8 videos and 1 levels .* 512 bytes"):
            dmkl_fit(trees, labels, CONCATENATION, cfg, RBF)

    def test_non_rbf_kernel_rejected_before_cache(self, rng, monkeypatch):
        trees = random_trees(rng, n=4, depth=2)

        def no_cache(*args, **kwargs):
            raise AssertionError("cache built")

        monkeypatch.setattr(dmkl, "NodeKernelCache", no_cache)
        with pytest.raises(errors.ValidationError, match="'linear'"):
            dmkl_fit(trees, np.array([1, 1, 2, 2]), AVERAGING,
                     ContrastiveConfig(), KernelConfig("linear"))


    def test_builds_no_pair_table(self, rng, monkeypatch):
        # the moments read each pair and its polarity off the tiles and
        # the labels
        def no_table(labels):
            raise AssertionError("pair table built")

        monkeypatch.setattr(dmkl, "_PairTable", no_table)
        trees = random_trees(rng, n=8, depth=2)
        res = dmkl_fit(trees, np.arange(8) % 2 + 1, AVERAGING,
                       ContrastiveConfig(iterations=3), RBF)
        assert res.loss_trace.size >= 1


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

    def test_zero_step_cap_keeps_the_start(self):
        train, y_train, *_ = synth_setup(0)
        kcfg = KernelConfig("rbf", median_gamma(train))
        cfg = ContrastiveConfig(iterations=0, seed=3)
        res = dmkl_fit(train, y_train, CONCATENATION, cfg, kcfg)
        np.testing.assert_array_equal(res.weights.beta,
                                      SimplexWeights.uniform(7).beta)
        assert res.loss_trace.size == res.beta_trace.shape[0] == 1
        assert res.stop_reason == "max_iters" and res.fw_gap > FW_GAP_TOL

    def test_loss_halves_on_separable_data(self):
        train, y_train, *_ = synth_setup(0, amplitude=2.0)
        kcfg = KernelConfig("rbf", median_gamma(train))
        cfg = ContrastiveConfig(seed=0, positive_fraction=0.5)
        res = dmkl_fit(train, y_train, AVERAGING, cfg, kcfg)
        assert res.stop_reason == "gap" and res.fw_gap <= FW_GAP_TOL
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
        np.testing.assert_array_equal(r1.weights.beta, r2.weights.beta)
        np.testing.assert_array_equal(r1.loss_trace, r2.loss_trace)

    @pytest.mark.parametrize("variant", [CONCATENATION, AVERAGING])
    def test_trace_is_the_exact_loss(self, variant):
        # every row, exact zeros of beta included, against the per-pair
        # loss of the kernel values that row's weights give
        train, y_train, *_ = synth_setup(4, per_class=5)
        kcfg = KernelConfig("rbf", median_gamma(train))
        i, j, y = all_pairs(y_train)
        rows = NodeKernelCache(train, kcfg).pair_blocks(i, j, variant)
        res = dmkl_fit(train, y_train, variant, ContrastiveConfig(), kcfg)
        assert res.loss_trace.size == res.beta_trace.shape[0] > 2
        for loss, beta in zip(res.loss_trace, res.beta_trace):
            want = contrastive_loss(rows @ node_weights(beta, variant), y)
            assert abs(loss - want) <= 1e-12 * want

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


def fw_moments(seed, variant):
    """The data, kernel and margin-0 moments of a small depth-3 (7 node)
    contrastive fit rebalanced to ``positive_fraction`` 0.5."""
    train, y_train, *_ = synth_setup(seed, per_class=5)
    kcfg = KernelConfig("rbf", median_gamma(train))
    A, b, c = pair_moments(NodeKernelCache(train, kcfg), y_train, variant,
                           0.5)
    return train, y_train, kcfg, (A, b, c)


def fw_segments(rng, A, b, variant, count=10):
    """Pairwise Frank-Wolfe steps of the loss with moments ``A``, ``b``
    from random points of 7 nodes with a zero or two: the point, the
    direction e_toward - e_away and the step cap."""
    for _ in range(count):
        beta = rng.dirichlet(np.ones(7))
        beta[rng.choice(7, size=int(rng.integers(0, 3)), replace=False)] = 0.0
        beta /= beta.sum()
        grad = node_weights_pullback(
            2.0 * (A @ node_weights(beta, variant) - b), beta, variant)
        support = np.flatnonzero(beta > 0)
        away = int(support[np.argmax(grad[support])])
        toward = int(np.argmin(grad))
        d = np.zeros(7)
        d[toward], d[away] = 1.0, -1.0
        yield beta, d, beta[away]


class TestFrankWolfe:
    @pytest.mark.parametrize("iterations", [0, 3, 4000])
    def test_concatenation_matches_simplex_qp_oracle(self, iterations):
        for seed in (0, 1, 2):
            train, y_train, kcfg, moments = fw_moments(seed, CONCATENATION)
            want_beta, want = simplex_qp_oracle(*moments)
            res = dmkl_fit(train, y_train, CONCATENATION,
                           ContrastiveConfig(iterations=iterations,
                                             positive_fraction=0.5), kcfg)
            # the gap bounds the suboptimality of a convex L
            assert res.fw_gap >= res.loss_trace[-1] - want - 1e-15
            if iterations == 4000:
                assert res.stop_reason == "gap"
                assert abs(res.loss_trace[-1] - want) <= 1e-6
                np.testing.assert_allclose(res.weights.beta, want_beta,
                                           atol=1e-6)

    @pytest.mark.parametrize("variant", [CONCATENATION, AVERAGING])
    def test_quartic_is_the_loss_along_the_segment(self, rng, variant):
        *_, (A, b, c) = fw_moments(3, variant)
        for beta, d, t_max in fw_segments(rng, A, b, variant):
            coeffs = segment_quartic(A, b, c, beta, d, variant)
            for t in np.linspace(-0.5, 1.0, 5) * t_max:
                w = node_weights(beta + t * d, variant)
                want = w @ A @ w - 2.0 * (b @ w) + c
                assert abs(P.polyval(t, coeffs) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("variant", [CONCATENATION, AVERAGING])
    def test_exact_step_beats_a_dense_grid(self, rng, variant):
        *_, (A, b, c) = fw_moments(4, variant)
        for beta, d, t_max in fw_segments(rng, A, b, variant):
            coeffs = segment_quartic(A, b, c, beta, d, variant)
            assert coeffs[1] < 0
            # the unit segment runs past the simplex, where L is the same
            # quartic; its minimizer is more often interior
            for cap in (t_max, 1.0):
                t = quartic_argmin(coeffs, cap)
                assert 0 < t <= cap
                grid = P.polyval(np.linspace(0.0, cap, 20001), coeffs)
                assert (P.polyval(t, coeffs)
                        <= grid.min() + 1e-14 * abs(coeffs[0]))

    @pytest.mark.parametrize("tilt", [-0.01, 0.01])
    def test_argmin_picks_the_lower_well(self, tilt):
        # wells near 0.2 and 0.8, the lower one set by the tilt; the root
        # between them is a maximum
        wells = P.polyadd(P.polymul(P.polymul([-0.2, 1], [-0.2, 1]),
                                    P.polymul([-0.8, 1], [-0.8, 1])),
                          [0.0, tilt])
        t = quartic_argmin(wells, 1.0)
        assert abs(t - (0.8 if tilt < 0 else 0.2)) < 0.05
        assert abs(P.polyval(t, P.polyder(wells))) < 1e-12
        assert quartic_argmin(wells, 0.4) == pytest.approx(0.2, abs=0.05)

    def test_argmin_ignores_rounding_noise_terms(self):
        # concatenation's quartic: a quadratic plus rounding noise
        noisy = np.array([1.0, -1.0, 1.0, 1e-17, 1e-33])
        assert quartic_argmin(noisy, 1.0) == pytest.approx(0.5, abs=1e-15)
        assert quartic_argmin(noisy, 0.3) == 0.3

    @pytest.mark.parametrize("variant", [CONCATENATION, AVERAGING])
    def test_steps_descend_and_drop_nodes_to_exact_zeros(self, variant):
        train, y_train, *_ = synth_setup(5, per_class=8)
        kcfg = KernelConfig("rbf", median_gamma(train))
        res = dmkl_fit(train, y_train, variant,
                       ContrastiveConfig(positive_fraction=0.5), kcfg)
        assert res.stop_reason in STOP_REASONS
        assert np.all(np.diff(res.loss_trace)
                      <= 1e-14 * res.loss_trace[0])
        # each step moves mass between exactly two nodes
        moved = np.count_nonzero(np.diff(res.beta_trace, axis=0), axis=1)
        assert np.all(moved == 2)
        assert np.any(res.weights.beta == 0.0)
        assert not res.weights.beta.flags.writeable


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
        np.testing.assert_array_equal(alias.weights.beta, fit.weights.beta)
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
