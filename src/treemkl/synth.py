"""Deterministic multi-granularity synthetic datasets.

Classes are separable at exactly one hierarchy level. Within every
sibling pair of signal-level intervals, each class writes a
class-specific constant vector on the first interval and its negation
on the second, on top of i.i.d. Gaussian frame noise. The signed copies
cancel under any pooling coarser than the signal level, so class means
agree at the root and every level above the signal level, while every
signal-level node carries a full-amplitude class-distinct vector.

Pooling finer than the signal level is made strictly worse, not just
redundant: every video carries its own detail vector that flips sign
between the two halves of each signal-level interval. The flip cancels
exactly at the signal level (and everything above) but leaks
video-specific variation into deeper nodes, the way sub-action detail
varies between recordings without being class-informative. So the
signal level is the unique granularity where classes separate cleanly.

With ``signal_level = 1`` there is no sibling to cancel against, so the
signal simply shifts the global mean and plain average pooling suffices.

Two-stream datasets put an independent copy of the construction in the
motion stream one level deeper, so the streams carry complementary
granularity.

Generation holds one video at a time: each video draws from its own
seed into reused buffers, and :func:`gen_dataset` writes its feature
files before the next one is drawn, so memory does not grow with the
dataset.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .dataio import (
    GPF1_MAGIC,
    DatasetManifest,
    StreamFeatureSequence,
    VideoRecord,
    _write_container,
    write_manifest,
)
from .errors import ShiftTooLarge, SpecInvalid
from .hierarchy import build_intervals


@dataclass(frozen=True)
class SynthSpec:
    num_classes: int = 4
    per_class: int = 50
    frames: int = 32
    dim: int = 16
    signal_level: int = 3
    amplitude: float = 1.5
    noise_sigma: float = 0.5
    detail_sigma: float = 1.5
    seed: int = 0
    streams: int = 1

    def __post_init__(self):
        if self.num_classes < 2:
            raise SpecInvalid(f"num_classes must be >= 2, got {self.num_classes}")
        if self.per_class < 2:
            raise SpecInvalid(f"per_class must be >= 2, got {self.per_class}")
        if self.signal_level < 1:
            raise SpecInvalid(f"signal_level must be >= 1, got {self.signal_level}")
        if self.streams not in (1, 2):
            raise SpecInvalid(f"streams must be 1 or 2, got {self.streams}")
        if self.dim < 1:
            raise SpecInvalid(f"dim must be >= 1, got {self.dim}")
        if not (0 < self.amplitude < np.inf and 0 < self.noise_sigma < np.inf):
            raise SpecInvalid("amplitude and noise_sigma must be finite and > 0")
        if not (0 <= self.detail_sigma < np.inf):
            raise SpecInvalid("detail_sigma must be finite and >= 0")
        if self.seed < 0:
            raise SpecInvalid(f"seed must be >= 0, got {self.seed}")
        deepest = self.signal_level + (1 if self.streams == 2 else 0)
        if self.detail_sigma > 0:
            deepest += 1  # the detail flip needs one level below the signal
        if self.frames < 2 ** (deepest - 1):
            raise SpecInvalid(
                f"frames={self.frames} too short for signal level {deepest}")

    @property
    def total(self) -> int:
        return self.num_classes * self.per_class


@dataclass(frozen=True)
class SynthDataset:
    spec: SynthSpec
    video_ids: list[str]
    labels: np.ndarray
    splits: list[str]
    sequences: dict[str, list[StreamFeatureSequence]]

    def split_indices(self, which: str) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.splits) == which)


def _signal_profile(frames: int, level: int, block_vectors: np.ndarray,
                    amplitude: float) -> np.ndarray:
    """Per-frame class signal at one level.

    ``block_vectors`` holds one vector per sibling pair of level
    intervals; each pair gets +vector on its first interval and -vector
    on its second. At level 1 the single vector covers everything.
    """
    out = np.empty((frames, block_vectors.shape[-1]))
    for iv in build_intervals(frames, level):
        if iv.level == level:
            sign = 1.0 if iv.index % 2 else -1.0
            out[iv.start:iv.end] = (sign * amplitude
                                    * block_vectors[(iv.index - 1) // 2])
    return out


def _detail_signs(frames: int, level: int) -> np.ndarray:
    """(frames, 1) column of +1 on the first and -1 on the second half of
    every level interval; times a detail vector, it cancels exactly at the
    level's pooling (up to one frame when interval lengths are odd). The
    halves are the level + 1 intervals, which cover every frame."""
    out = np.empty((frames, 1))
    for iv in build_intervals(frames, level + 1):
        if iv.level == level + 1:
            out[iv.start:iv.end] = 1.0 if iv.index % 2 else -1.0
    return out


def _stream_plan(spec: SynthSpec) -> list[tuple[str, int]]:
    plan = [("appearance", spec.signal_level)]
    if spec.streams == 2:
        plan.append(("motion", spec.signal_level + 1))
    return plan


def _videos(spec: SynthSpec):
    """Draw the dataset one video at a time, in manifest order.

    Yields ``(video_id, label, split, rows)``, where ``rows`` maps each
    stream to a (frames, dim) float64 buffer that the next video
    overwrites. Each video draws from its own seed, per stream its
    frames x dim noise and then its dim-sized detail vector.
    """
    root_ss = np.random.SeedSequence(spec.seed)
    vec_ss, video_ss = root_ss.spawn(2)
    vec_rng = np.random.default_rng(vec_ss)
    plan = _stream_plan(spec)

    class_vectors: dict[str, np.ndarray] = {}
    for stream, level in plan:
        blocks = max(1, 2 ** (level - 2))
        raw = vec_rng.standard_normal((spec.num_classes, blocks, spec.dim))
        class_vectors[stream] = raw / np.linalg.norm(raw, axis=2, keepdims=True)

    signs = {stream: _detail_signs(spec.frames, level)
             for stream, level in plan}
    rows = {stream: np.empty((spec.frames, spec.dim)) for stream, _ in plan}
    detail_rows = np.empty((spec.frames, spec.dim))
    detail_scale = spec.detail_sigma / np.sqrt(spec.dim)
    train_per_class = max(1, min(spec.per_class - 1,
                                 int(round(0.7 * spec.per_class))))

    for c in range(1, spec.num_classes + 1):
        signal = {stream: _signal_profile(spec.frames, level,
                                          class_vectors[stream][c - 1],
                                          spec.amplitude)
                  for stream, level in plan}
        for v in range(spec.per_class):
            # children are numbered in sequence: one spawn per video
            rng = np.random.default_rng(video_ss.spawn(1)[0])
            for stream, buf in rows.items():
                # the operations of noise_sigma * noise + signal, in place
                rng.standard_normal(out=buf)
                buf *= spec.noise_sigma
                buf += signal[stream]
                if spec.detail_sigma > 0:
                    detail = detail_scale * rng.standard_normal(spec.dim)
                    buf += np.multiply(signs[stream], detail, out=detail_rows)
            yield (f"synth_c{c:02d}_v{v:03d}", c,
                   "train" if v < train_per_class else "test", rows)


def gen_sequences(spec: SynthSpec) -> SynthDataset:
    """Generate the dataset in memory; byte-deterministic under the seed."""
    video_ids: list[str] = []
    labels: list[int] = []
    splits: list[str] = []
    sequences: dict[str, list[StreamFeatureSequence]] = {
        s: [] for s, _ in _stream_plan(spec)}
    for vid, label, split, rows in _videos(spec):
        video_ids.append(vid)
        labels.append(label)
        splits.append(split)
        for stream, buf in rows.items():
            # float32 rounding here keeps in-memory use identical to a
            # write/load cycle through feature files
            sequences[stream].append(StreamFeatureSequence(
                video_id=vid, stream=stream,
                rows=buf.astype(np.float32).astype(np.float64)))
    return SynthDataset(spec=spec, video_ids=video_ids,
                        labels=np.asarray(labels, dtype=int),
                        splits=splits, sequences=sequences)


def gen_dataset(spec: SynthSpec, out_dir: str | os.PathLike) -> DatasetManifest:
    """Write feature files plus a manifest under ``out_dir`` and return
    the manifest (70/30 stratified train/test split). Each video's files
    are written as soon as it is drawn, so memory does not grow with the
    dataset."""
    out_dir = os.fspath(out_dir)
    os.makedirs(os.path.join(out_dir, "features"), exist_ok=True)
    records = []
    for vid, label, split, rows in _videos(spec):
        paths = {}
        for stream, buf in rows.items():
            paths[stream] = os.path.join("features", f"{vid}.{stream}.gpf")
            _write_container(os.path.join(out_dir, paths[stream]),
                             GPF1_MAGIC, buf)
        records.append(VideoRecord(video_id=vid, label=label, split=split,
                                   **paths))
    manifest = DatasetManifest(records=records)
    write_manifest(manifest, os.path.join(out_dir, "manifest.jsonl"))
    return manifest


def misalign(seq: StreamFeatureSequence, shift: int) -> StreamFeatureSequence:
    """Circularly shift frame order; the frame multiset (and hence the
    global mean) is preserved while localized pooling changes."""
    if abs(shift) > seq.frame_count:
        raise ShiftTooLarge(
            f"|shift|={abs(shift)} exceeds frame count {seq.frame_count}")
    return StreamFeatureSequence(video_id=seq.video_id, stream=seq.stream,
                                 rows=np.roll(seq.rows, shift, axis=0))
