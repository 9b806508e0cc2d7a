import numpy as np
import pytest

from conftest import random_sequence
from treemkl import errors
from treemkl.hierarchy import (
    Hierarchy,
    PooledTree,
    build_intervals,
    load_pooled_file,
    pool_sequence,
    write_pooled_file,
)


class TestHierarchyShape:
    def test_node_count(self):
        assert Hierarchy(1).node_count == 1
        assert Hierarchy(4).node_count == 15

    def test_canonical_order_is_level_major(self):
        nodes = Hierarchy(3).nodes
        assert nodes == ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (3, 4))

    def test_node_position_roundtrip(self):
        h = Hierarchy(4)
        for pos, (level, index) in enumerate(h.nodes):
            assert h.node_position(level, index) == pos

    def test_level_slice(self):
        h = Hierarchy(3)
        assert [h.nodes[i] for i in range(*h.level_slice(3).indices(7))] == \
            [(3, 1), (3, 2), (3, 3), (3, 4)]

    @pytest.mark.parametrize("depth", [1, 2, 4, 8])
    def test_level_matrix_columns_sum_to_one(self, depth):
        M = Hierarchy(depth).level_matrix
        assert M.shape == (2 ** depth - 1, depth)
        np.testing.assert_array_equal(M.sum(axis=0), np.ones(depth))
        assert not M.flags.writeable

    def test_level_matrix_shares_each_level_evenly(self, rng):
        h = Hierarchy(4)
        M = h.level_matrix
        for level in range(1, 5):
            column = np.zeros(h.node_count)
            column[h.level_slice(level)] = 0.5 ** (level - 1)
            np.testing.assert_array_equal(M[:, level - 1], column)
        # beta = M gamma is on the node simplex and its level masses are
        # gamma
        gamma = rng.dirichlet(np.ones(4))
        beta = M @ gamma
        assert beta.min() >= 0.0 and beta.sum() == pytest.approx(1.0,
                                                                abs=1e-15)
        masses = [beta[h.level_slice(l)].sum() for l in range(1, 5)]
        np.testing.assert_allclose(masses, gamma, rtol=0, atol=1e-15)


class TestBuildIntervals:
    def test_exact_division(self):
        spans = [(iv.level, iv.start, iv.end)
                 for iv in build_intervals(8, 3)]
        assert spans == [(1, 0, 8),
                         (2, 0, 4), (2, 4, 8),
                         (3, 0, 2), (3, 2, 4), (3, 4, 6), (3, 6, 8)]

    def test_single_frame_identity(self):
        [iv] = build_intervals(1, 1)
        assert (iv.start, iv.end) == (0, 1)

    def test_floor_rule_uneven(self):
        # floor(k*7/2) boundaries: [0,3) and [3,7)
        level2 = [iv for iv in build_intervals(7, 2) if iv.level == 2]
        assert [(iv.start, iv.end) for iv in level2] == [(0, 3), (3, 7)]

    def test_insufficient_frames(self):
        with pytest.raises(errors.InsufficientFrames):
            build_intervals(3, 3)

    def test_partition_properties(self, rng):
        # per level: disjoint cover of [0, T), sizes differing by <= 1
        for _ in range(50):
            depth = int(rng.integers(1, 6))
            frames = int(rng.integers(2 ** (depth - 1), 200))
            per_level = {}
            for iv in build_intervals(frames, depth):
                per_level.setdefault(iv.level, []).append(iv)
            for level, ivs in per_level.items():
                assert ivs[0].start == 0
                assert ivs[-1].end == frames
                for a, b in zip(ivs, ivs[1:]):
                    assert a.end == b.start
                sizes = [iv.end - iv.start for iv in ivs]
                assert sum(sizes) == frames
                assert max(sizes) - min(sizes) <= 1
                assert min(sizes) >= 1


class TestPoolSequence:
    def test_constant_sequence(self):
        seq = random_sequence(np.random.default_rng(0), frames=8, dim=2)
        const = type(seq)(video_id="c", stream="appearance",
                          rows=np.tile([2.5, -1.0], (8, 1)))
        tree = pool_sequence(const, Hierarchy(3))
        np.testing.assert_allclose(tree.vectors,
                                   np.tile([2.5, -1.0], (7, 1)), atol=1e-15)

    def test_known_means(self):
        seq = random_sequence(np.random.default_rng(0), frames=4, dim=1)
        seq = type(seq)(video_id="k", stream="appearance",
                        rows=np.array([[1.0], [3.0], [5.0], [7.0]]))
        tree = pool_sequence(seq, Hierarchy(2))
        np.testing.assert_allclose(tree.vectors.ravel(), [4.0, 2.0, 6.0])

    def test_root_equals_global_mean(self, rng):
        for _ in range(20):
            seq = random_sequence(rng, frames=int(rng.integers(8, 64)), dim=5)
            tree = pool_sequence(seq, Hierarchy(4))
            ref = seq.rows.mean(axis=0)
            err = np.abs(tree.root - ref) / np.maximum(np.abs(ref), 1e-300)
            assert err.max() < 1e-12

    def test_matches_per_node_mean_bit_for_bit(self, rng):
        # one reduction per node and one division: the arithmetic of
        # ndarray.mean per node interval, so every bit agrees
        for frames, depth in ((1, 1), (7, 3), (33, 4), (512, 5)):
            seq = random_sequence(rng, frames=frames, dim=6)
            seq = type(seq)(video_id="s", stream="appearance",
                            rows=seq.rows * 37.5)
            want = [seq.rows[iv.start:iv.end].mean(axis=0)
                    for iv in build_intervals(frames, depth)]
            np.testing.assert_array_equal(
                pool_sequence(seq, Hierarchy(depth)).vectors, want)

    def test_duplication_invariance(self, rng):
        # repeating every frame r times leaves all node means unchanged
        for repeat in (2, 3, 5):
            seq = random_sequence(rng, frames=16, dim=4)
            dup = type(seq)(video_id="d", stream="appearance",
                            rows=np.repeat(seq.rows, repeat, axis=0))
            t0 = pool_sequence(seq, Hierarchy(4))
            t1 = pool_sequence(dup, Hierarchy(4))
            np.testing.assert_allclose(t1.vectors, t0.vectors,
                                       rtol=1e-12, atol=1e-14)

    def test_different_lengths_same_shape(self, rng):
        t0 = pool_sequence(random_sequence(rng, frames=17, dim=3), Hierarchy(3))
        t1 = pool_sequence(random_sequence(rng, frames=64, dim=3), Hierarchy(3))
        assert t0.vectors.shape == t1.vectors.shape

    def test_propagates_insufficient_frames(self, rng):
        seq = random_sequence(rng, frames=3, dim=2)
        with pytest.raises(errors.InsufficientFrames):
            pool_sequence(seq, Hierarchy(4))

    @pytest.mark.parametrize("nodes", [(0,), (1, 2), (3, 5, 6), (0, 4, 14),
                                       tuple(range(15))])
    def test_node_subset_is_bitwise_rows_of_full_tree(self, rng, nodes):
        seq = random_sequence(rng, frames=67, dim=5)
        full = pool_sequence(seq, Hierarchy(4))
        part = pool_sequence(seq, Hierarchy(4), np.array(nodes))
        assert full.nodes == tuple(range(15)) and part.nodes == nodes
        assert part.depth == 4 and part.node_count == len(nodes)
        np.testing.assert_array_equal(part.vectors, full.vectors[list(nodes)])

    def test_node_subset_still_needs_every_leaf(self, rng):
        # the intervals are laid out for the whole depth whatever is pooled
        seq = random_sequence(rng, frames=3, dim=2)
        with pytest.raises(errors.InsufficientFrames) as full:
            pool_sequence(seq, Hierarchy(4))
        with pytest.raises(errors.InsufficientFrames) as root:
            pool_sequence(seq, Hierarchy(4), [0])
        assert str(root.value) == str(full.value)


class TestPooledTreeNodes:
    @pytest.mark.parametrize("nodes", [(), (1, 1), (2, 1), (-1, 0), (0, 7)])
    def test_refuses_nodes_that_are_not_increasing_positions(self, nodes):
        with pytest.raises(errors.ValidationError, match="not increasing"):
            PooledTree("v", "appearance", 3, np.zeros((len(nodes), 2)), nodes)

    def test_refuses_row_count_other_than_node_count(self):
        with pytest.raises(errors.ValidationError, match="3 node vectors"):
            PooledTree("v", "appearance", 3, np.zeros((3, 2)), (0, 1))
        with pytest.raises(errors.ValidationError, match="7 nodes"):
            PooledTree("v", "appearance", 3, np.zeros((3, 2)))

    def test_root_needs_the_root_node(self):
        tree = PooledTree("v", "appearance", 2, np.ones((2, 1)), (1, 2))
        with pytest.raises(errors.ValidationError, match="no root"):
            tree.root


class TestPooledFile:
    def test_roundtrip(self, rng, tmp_path):
        seq = random_sequence(rng, frames=12, dim=3)
        tree = pool_sequence(seq, Hierarchy(3))
        path = tmp_path / "v0.gpt"
        write_pooled_file(tree, path)
        back = load_pooled_file(path, video_id="v0")
        assert back.depth == 3
        np.testing.assert_allclose(back.vectors, tree.vectors, atol=1e-6)

    def test_refuses_tree_without_every_node(self, rng, tmp_path):
        # GPT1 stores 2**D - 1 vectors; a partial tree would read back
        # as a shallower one
        tree = pool_sequence(random_sequence(rng, frames=12, dim=3),
                             Hierarchy(3), [3, 4, 5])
        path = tmp_path / "v0.gpt"
        with pytest.raises(errors.ValidationError, match="holds 3"):
            write_pooled_file(tree, path)
        assert not path.exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.gpt"
        path.write_bytes(b"GPF1" + b"\x00" * 8)
        with pytest.raises(errors.BadMagic):
            load_pooled_file(path)
