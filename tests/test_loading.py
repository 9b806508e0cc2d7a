"""Loading and pooling into one array: every tree a row of it, held once."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from treemkl import errors
from treemkl.dataio import (DatasetManifest, StreamFeatureSequence,
                            VideoRecord, load_feature_file,
                            write_feature_file)
from treemkl.hierarchy import Hierarchy, pool_sequence
from treemkl.kernels import (KernelConfig, NodeKernelCache, median_gamma,
                             stack_trees)
from treemkl.loading import PoolConfig, load_split_trees, load_trees


def write_videos(root, rng, dims, frames=16):
    """One appearance feature file per entry of ``dims``, all train, two
    classes; their manifest."""
    records = []
    for k, dim in enumerate(dims):
        seq = StreamFeatureSequence(f"v{k}", "appearance",
                                    rng.standard_normal((frames, dim)))
        write_feature_file(seq, root / f"v{k}.gpf")
        records.append(VideoRecord(f"v{k}", 1 + k % 2,
                                   appearance=f"v{k}.gpf"))
    return DatasetManifest(records=records)


def peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("node_norm", ["none", "l2"])
@pytest.mark.parametrize("nodes", [None, [1, 4, 5]])
def test_trees_are_read_only_rows_of_one_array(tmp_path, rng, node_norm,
                                               nodes):
    manifest = write_videos(tmp_path, rng, [5] * 6)
    cfg = PoolConfig(depth=3, node_norm=node_norm)
    trees, labels = load_split_trees(manifest, str(tmp_path), cfg, "train",
                                     nodes)
    np.testing.assert_array_equal(labels, [1, 2, 1, 2, 1, 2])
    stacked, ids = stack_trees(trees)
    assert ids == [f"v{k}" for k in range(6)]
    assert stacked.shape == (6, 7 if nodes is None else 3, 5)
    assert not stacked.flags.writeable
    assert not trees[0].vectors.base.flags.writeable
    for k, tree in enumerate(trees):
        assert not tree.vectors.flags.writeable
        assert np.shares_memory(tree.vectors, stacked[k])
    # the bits of pooling each video on its own, normalized after
    for record, tree in zip(manifest.records, trees):
        seq = load_feature_file(tmp_path / record.appearance,
                                video_id=record.video_id)
        want = pool_sequence(seq, Hierarchy(3), nodes).vectors
        if node_norm == "l2":
            want = want / np.linalg.norm(want, axis=1, keepdims=True)
        np.testing.assert_array_equal(tree.vectors, want)
        assert tree.nodes == (tuple(range(7)) if nodes is None
                              else tuple(nodes))


def test_other_lists_are_copied(tmp_path, rng):
    manifest = write_videos(tmp_path, rng, [4] * 5)
    trees = load_trees(manifest.records, str(tmp_path), PoolConfig(depth=2))
    block = trees[0].vectors.base
    by_hand = [replace(t, vectors=t.vectors.copy()) for t in trees]
    for other in (trees[::-1], trees[1:], trees[:-1], by_hand,
                  [trees[0], trees[0]] + trees[2:]):
        stacked, _ = stack_trees(other)
        assert not np.shares_memory(stacked, block)
        np.testing.assert_array_equal(
            stacked, np.stack([t.vectors for t in other]))


def test_feature_dim_must_match_the_first_video(tmp_path, rng):
    manifest = write_videos(tmp_path, rng, [4, 4, 6])
    with pytest.raises(errors.ShapeMismatch,
                       match="v2: 6-d appearance features, v0 has 4"):
        load_split_trees(manifest, str(tmp_path), PoolConfig(depth=2),
                         "train")


def test_pool_sequence_checks_out(rng):
    seq = StreamFeatureSequence("v", "appearance", rng.standard_normal((8, 3)))
    for out in (np.empty((3, 4)), np.empty((3, 3), dtype=np.float32),
                np.empty((3, 3), order="F")):
        with pytest.raises(errors.ShapeMismatch, match="v: out must be"):
            pool_sequence(seq, Hierarchy(2), out=out)
    out = np.empty((3, 3))
    tree = pool_sequence(seq, Hierarchy(2), out=out)
    assert tree.vectors is out and not out.flags.writeable


def test_bandwidth_and_cache_copy_no_trees(tmp_path, rng):
    # 40 videos of 15 nodes at dim 2,048: 9.8 MB of pooled trees, which
    # median_gamma and the cache read in place instead of stacking a copy
    manifest = write_videos(tmp_path, rng, [2048] * 40)
    trees = load_trees(manifest.records, str(tmp_path), PoolConfig(depth=4))
    block = trees[0].vectors.base
    assert block.nbytes == 40 * 15 * 2048 * 8
    gamma = []
    assert peak_bytes(lambda: gamma.append(median_gamma(trees))) \
        < block.nbytes / 2
    copies = [replace(t, vectors=t.vectors.copy()) for t in trees]
    assert gamma[0] == median_gamma(copies)
    cache = []
    cfg = KernelConfig("rbf", gamma[0])
    assert peak_bytes(lambda: cache.append(NodeKernelCache(trees, cfg))) \
        < 64 * 1024
    assert np.shares_memory(cache[0].rows, block)
