"""Binary temporal hierarchy and node-wise mean pooling.

Level ``l`` (1-based) splits the frame axis into ``2**(l-1)`` contiguous
intervals; a node is identified by ``(level, index)`` with ``index`` in
``1..2**(l-1)``. The canonical node order is level-major then index, and
every weight vector in the package follows it. Depth ``D`` gives
``2**D - 1`` nodes; the root (level 1) is plain global average pooling.

:func:`write_pooled_file` and :func:`load_pooled_file` are the GPT1
format API: ``pool`` writes one pooled tree per video with the former,
and the latter reads that output back (training pools from the feature
files and does not read it).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dataio import (
    GPT1_MAGIC,
    StreamFeatureSequence,
    _read_container,
    _stem,
    _write_container,
)
from .errors import (InsufficientFrames, NonFinite, ShapeMismatch,
                     ValidationError)


@dataclass(frozen=True)
class Hierarchy:
    depth: int

    def __post_init__(self):
        if self.depth < 1:
            raise ValidationError(f"depth must be >= 1, got {self.depth}")

    @property
    def node_count(self) -> int:
        return 2 ** self.depth - 1

    @property
    def nodes(self) -> tuple[tuple[int, int], ...]:
        """Canonical (level, index) order: level-major, then index."""
        return _nodes(self.depth)

    def node_position(self, level: int, index: int) -> int:
        """0-based position of node (level, index) in canonical order."""
        if not (1 <= level <= self.depth):
            raise ValidationError(f"level {level} outside 1..{self.depth}")
        if not (1 <= index <= 2 ** (level - 1)):
            raise ValidationError(
                f"index {index} outside 1..{2 ** (level - 1)} at level {level}")
        return 2 ** (level - 1) - 1 + (index - 1)

    def level_slice(self, level: int) -> slice:
        """Canonical-order slice covering every node of one level."""
        first = self.node_position(level, 1)
        return slice(first, first + 2 ** (level - 1))

    @property
    def level_matrix(self) -> np.ndarray:
        """``M``, shape (nodes, depth), read-only: ``M[m, l - 1] =
        2**-(l - 1)`` for every node m of level l, else 0. Each column
        sums to 1, so ``beta = M @ gamma`` is on the node simplex for any
        ``gamma`` on the level simplex, and the mass of level l is
        ``gamma[l - 1]``: one weight per level, shared evenly by its
        nodes, as the pyramid match kernel weights its levels."""
        return _level_matrix(self.depth)


@lru_cache(maxsize=None)
def _nodes(depth: int) -> tuple[tuple[int, int], ...]:
    return tuple((l, k)
                 for l in range(1, depth + 1)
                 for k in range(1, 2 ** (l - 1) + 1))


@lru_cache(maxsize=None)
def _positions(depth: int) -> tuple[int, ...]:
    return tuple(range(2 ** depth - 1))


@lru_cache(maxsize=None)
def _level_matrix(depth: int) -> np.ndarray:
    levels = np.array([l for l, _ in _nodes(depth)])
    out = np.where(levels[:, None] == np.arange(1, depth + 1),
                   0.5 ** (levels[:, None] - 1.0), 0.0)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class NodeInterval:
    """Half-open frame interval [start, end) owned by node (level, index)."""

    level: int
    index: int
    start: int
    end: int


@dataclass(frozen=True)
class PooledTree:
    """Node-wise mean vectors for one video and stream.

    ``nodes`` lists the canonical positions the tree holds, increasing;
    it defaults to every node of ``depth``, and scoring holds only the
    nodes a model weights. ``vectors`` has shape (len(nodes), dim), row
    ``k`` the mean over node ``nodes[k]``.
    """

    video_id: str
    stream: str
    depth: int
    vectors: np.ndarray
    nodes: tuple[int, ...] | None = None

    def __post_init__(self):
        vec = np.ascontiguousarray(np.asarray(self.vectors, dtype=np.float64))
        if vec.ndim != 2:
            raise ValidationError(f"vectors must be 2-D, got {vec.shape}")
        if self.depth < 1:
            raise ValidationError(f"depth must be >= 1, got {self.depth}")
        if self.nodes is None:
            nodes = _positions(self.depth)      # one tuple per depth
        else:
            nodes, last = tuple(int(n) for n in self.nodes), 2 ** self.depth - 2
            if not (nodes and 0 <= nodes[0] and nodes[-1] <= last
                    and all(a < b for a, b in zip(nodes, nodes[1:]))):
                raise ValidationError(
                    f"{self.video_id}: nodes {nodes} are not increasing "
                    f"positions in 0..{last}")
        if vec.shape[0] != len(nodes):
            raise ValidationError(
                f"{self.video_id}: {vec.shape[0]} node vectors for "
                f"{len(nodes)} nodes of depth {self.depth}")
        if not np.isfinite(vec).all():
            raise NonFinite(f"{self.video_id}/{self.stream}: non-finite pooled value")
        vec.flags.writeable = False
        object.__setattr__(self, "vectors", vec)
        object.__setattr__(self, "nodes", nodes)

    @property
    def node_count(self) -> int:
        """Nodes held, ``len(nodes)``."""
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def root(self) -> np.ndarray:
        if self.nodes[0] != 0:
            raise ValidationError(f"{self.video_id}: tree holds no root node")
        return self.vectors[0]


def build_intervals(frame_count: int, depth: int) -> list[NodeInterval]:
    """Partition ``[0, frame_count)`` per level with floor-rule boundaries.

    Node ``k`` of level ``l`` covers
    ``[floor((k-1)*T / 2**(l-1)), floor(k*T / 2**(l-1)))``, so each level
    partitions the frame axis exactly and interval sizes differ by at
    most one frame. Requires ``frame_count >= 2**(depth-1)`` so every
    leaf is non-empty.
    """
    if depth < 1:
        raise ValidationError(f"depth must be >= 1, got {depth}")
    leaves = 2 ** (depth - 1)
    if frame_count < leaves:
        raise InsufficientFrames(
            f"frame_count={frame_count} cannot fill depth={depth} "
            f"({leaves} leaves)")
    out = []
    for level in range(1, depth + 1):
        parts = 2 ** (level - 1)
        for index in range(1, parts + 1):
            start = (index - 1) * frame_count // parts
            end = index * frame_count // parts
            out.append(NodeInterval(level=level, index=index,
                                    start=start, end=end))
    return out


@lru_cache(maxsize=256)
def _node_bounds(frame_count: int,
                 depth: int) -> tuple[tuple[tuple[int, int], ...], np.ndarray]:
    """``build_intervals`` as ``(start, end)`` pairs, with the frame count
    of each node as a read-only (nodes, 1) float column."""
    intervals = build_intervals(frame_count, depth)
    counts = np.array([[iv.end - iv.start] for iv in intervals], dtype=float)
    counts.flags.writeable = False
    return tuple((iv.start, iv.end) for iv in intervals), counts


def pool_sequence(seq: StreamFeatureSequence, hierarchy: Hierarchy,
                  nodes=None, out: np.ndarray | None = None) -> PooledTree:
    """Mean-pool ``seq`` over the node intervals of ``hierarchy``: every
    node, or only the canonical positions ``nodes`` (increasing). The
    intervals are laid out for the whole depth either way, so a sequence
    too short for its leaves raises :class:`InsufficientFrames` whichever
    nodes are asked for. The node vectors are written to ``out``, a
    C-contiguous (nodes, dim) float64 array, when given, and the tree
    holds it, marked read-only, as its ``vectors``.

    The root vector equals the global mean of all frames; deeper nodes
    average shorter, better-localized spans.
    """
    bounds, counts = _node_bounds(seq.frame_count, hierarchy.depth)
    if nodes is not None:
        nodes = tuple(int(n) for n in nodes)
        bounds, counts = [bounds[n] for n in nodes], counts[list(nodes)]
    if out is None:
        vectors = np.empty((len(bounds), seq.dim))
    elif (out.shape != (len(bounds), seq.dim) or out.dtype != np.float64
          or not out.flags.c_contiguous):
        raise ShapeMismatch(
            f"{seq.video_id}: out must be a C-contiguous float64 array of "
            f"shape {(len(bounds), seq.dim)}, got {out.dtype} {out.shape}")
    else:
        vectors = out
    # the sum and the division of ndarray.mean, one pass per node
    for pos, (start, end) in enumerate(bounds):
        np.add.reduce(seq.rows[start:end], axis=0, out=vectors[pos])
    vectors /= counts
    return PooledTree(video_id=seq.video_id, stream=seq.stream,
                      depth=hierarchy.depth, vectors=vectors, nodes=nodes)


# --- GPT1 pooled-tree files (the container of dataio) ------------------------

def write_pooled_file(tree: PooledTree, path: str | os.PathLike) -> None:
    """Write ``tree`` in GPT1 form, nodes in canonical order. GPT1 stores
    all ``2**D - 1`` nodes, so a tree that holds fewer is refused."""
    if tree.node_count != 2 ** tree.depth - 1:
        raise ValidationError(
            f"{tree.video_id}: GPT1 stores every node of depth {tree.depth}, "
            f"the tree holds {tree.node_count}")
    _write_container(path, GPT1_MAGIC, tree.vectors)


def load_pooled_file(path: str | os.PathLike, video_id: str | None = None,
                     stream: str = "appearance") -> PooledTree:
    """Load a GPT1 file, such as ``pool`` writes; its node count must be
    ``2**D - 1``."""
    if video_id is None:
        video_id = _stem(path)

    def full_tree(vectors):
        depth = vectors.shape[0].bit_length()
        if 2 ** depth - 1 != vectors.shape[0]:
            raise ValidationError(
                f"{path}: node count {vectors.shape[0]} is not 2**D - 1")
        return PooledTree(video_id=video_id, stream=stream, depth=depth,
                          vectors=vectors)
    return _read_container(path, GPT1_MAGIC, "node", full_tree)
