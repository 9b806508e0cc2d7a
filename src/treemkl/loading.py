"""Loading and pooling one stream of a manifest's videos.

A load pools its videos into the rows of one (videos, nodes, dim)
float64 array, each in place: every returned tree's ``vectors`` is a
read-only view of its row, and :func:`treemkl.kernels.stack_trees`
hands the whole array to the kernels without copying it, so a run holds
its pooled trees once. Training, scoring (test videos only: a model
artifact stores its support videos' trees) and ``pool`` all load
through :func:`load_trees`. The module imports only the file formats
and the hierarchy, so ``pool`` loads no kernel, solver or training
code.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .choices import NORMS, STREAMS
from .dataio import (DatasetManifest, StreamFeatureSequence, VideoRecord,
                     load_feature_file)
from .errors import EmptySplit, MissingFeatures, ShapeMismatch, ValidationError
from .hierarchy import Hierarchy, PooledTree, pool_sequence


@dataclass(frozen=True)
class PoolConfig:
    """How one stream's videos are pooled: the hierarchy depth, the
    stream, and the l2 norms of frames (``feature_norm``) and of pooled
    node vectors (``node_norm``). ``pool`` runs on it, and
    :class:`treemkl.pipeline.PipelineConfig` extends it for training."""

    depth: int
    stream: str = "appearance"
    feature_norm: str = "none"
    node_norm: str = "none"

    def __post_init__(self):
        if not (1 <= self.depth <= 8):
            raise ValidationError(f"depth {self.depth} outside 1..8")
        if self.stream not in STREAMS:
            raise ValidationError(f"unknown stream {self.stream!r}")
        if self.feature_norm not in NORMS or self.node_norm not in NORMS:
            raise ValidationError("norms must be 'none' or 'l2'")


def _l2_rows(arr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    norms = np.linalg.norm(arr, axis=1, keepdims=True)
    return np.divide(arr, np.where(norms > 0, norms, 1.0), out=out)


def _load_one(record: VideoRecord, root: str,
              cfg: PoolConfig) -> StreamFeatureSequence:
    """The frames of ``record``'s ``cfg.stream``, l2-normalized when
    ``cfg.feature_norm`` says so."""
    rel = record.path_for(cfg.stream)
    if rel is None:
        raise MissingFeatures(
            f"{record.video_id}: no {cfg.stream} stream in manifest")
    path = rel if os.path.isabs(rel) else os.path.join(root, rel)
    if not os.path.isfile(path):
        raise MissingFeatures(
            f"{record.video_id}: feature file {path} not found")
    seq = load_feature_file(path, video_id=record.video_id, stream=cfg.stream)
    if cfg.feature_norm == "l2":
        seq = StreamFeatureSequence(video_id=seq.video_id, stream=seq.stream,
                                    rows=_l2_rows(seq.rows))
    return seq


def load_trees(records: list[VideoRecord], root: str, cfg: PoolConfig,
               nodes=None) -> list[PooledTree]:
    """The pooled trees of ``records``, in order, holding every node or
    only the canonical positions ``nodes`` (see :func:`pool_sequence`):
    tree k's ``vectors`` is a read-only view of row k of one (videos,
    nodes, dim) array, itself read-only once every row is pooled. Every
    video must have the first one's feature dimension; the first that
    does not raises :class:`ShapeMismatch`."""
    hierarchy = Hierarchy(cfg.depth)
    held = hierarchy.node_count if nodes is None else len(nodes)
    block, trees = None, []
    for k, record in enumerate(records):
        seq = _load_one(record, root, cfg)
        if block is None:
            block = np.empty((len(records), held, seq.dim))
        elif seq.dim != block.shape[2]:
            raise ShapeMismatch(
                f"{record.video_id}: {seq.dim}-d {cfg.stream} features, "
                f"{records[0].video_id} has {block.shape[2]}")
        tree = pool_sequence(seq, hierarchy, nodes, out=block[k])
        if cfg.node_norm == "l2":
            # in place, through a writable view of the row: the tree's own
            # view is read-only
            row = block[k]
            tree = replace(tree, vectors=_l2_rows(row, out=row))
        trees.append(tree)
    if block is not None:
        block.flags.writeable = False
    return trees


def load_split_trees(manifest: DatasetManifest, root: str, cfg: PoolConfig,
                     split: str,
                     nodes=None) -> tuple[list[PooledTree], np.ndarray]:
    """Pooled trees plus labels for one split of one stream, in manifest
    order, as :func:`load_trees` pools them; the trees hold every node,
    or only the canonical positions ``nodes``. Scoring passes the nodes a
    model weights, training and ``pool`` pass none."""
    records = [r for r in manifest.split(split)
               if r.path_for(cfg.stream) is not None]
    if not records:
        raise EmptySplit(f"no {split} records carry a {cfg.stream} stream")
    trees = load_trees(records, root, cfg, nodes)
    return trees, np.array([r.label for r in records])
