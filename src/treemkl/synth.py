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

Generation holds one video per thread: each video draws from its own
seed into its thread's reused buffers, and :func:`gen_dataset` writes
its feature files before the thread draws the next, so memory does not
grow with the dataset. Videos of at least 2^14 values (frames x dim)
per stream are drawn on every usable core, up to 8 threads, smaller
ones on one thread; the output bytes do not depend on the number of
threads.
"""

from __future__ import annotations

import os
import threading
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

# values (frames x dim) of one video-stream from which gen_dataset draws
# on every usable core; below it the threads cost more than they save
_THREAD_MIN_VALUES = 2 ** 14

# most drawing threads: each live thread holds its own buffers, thread
# state and the objects of the video it is drawing, so the thread count
# bounds how far the peak memory can move with timing
_MAX_THREADS = 8

# largest video-stream in values, the limit README states for tables, so
# that no spec asks for buffers numpy cannot allocate
_VIDEO_LIMIT = 2 ** 25


@dataclass(frozen=True)
class SynthSpec:
    """Size, signal level, noise scales and seed of a synthetic dataset."""

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
        if self.frames * self.dim > _VIDEO_LIMIT:
            raise SpecInvalid(
                f"frames * dim = {self.frames * self.dim} values per video "
                f"exceeds the 2^25 limit")


@dataclass(frozen=True, eq=False)
class SynthDataset:
    """A synthetic dataset in memory, its sequences in video order."""

    spec: SynthSpec
    video_ids: list[str]
    labels: np.ndarray
    splits: list[str]
    sequences: dict[str, list[StreamFeatureSequence]]

    def split_indices(self, which: str) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.splits) == which)


def _intervals(frames: int, level: int) -> list[tuple[int, int, int]]:
    """``(start, end, index)`` of each interval at ``level``."""
    return [(iv.start, iv.end, iv.index)
            for iv in build_intervals(frames, level) if iv.level == level]


def _stream_plan(spec: SynthSpec) -> list[tuple[str, int]]:
    plan = [("appearance", spec.signal_level)]
    if spec.streams == 2:
        plan.append(("motion", spec.signal_level + 1))
    return plan


class _Buffers:
    """One thread's reused buffers, each (frames, dim) float64: per stream
    the rows of the video being drawn and the signal of class
    ``signal_class`` added to them, and one of the detail flips; plus the
    dim-sized detail vector and its negation."""

    def __init__(self, spec: SynthSpec):
        shape = (spec.frames, spec.dim)
        streams = [stream for stream, _ in _stream_plan(spec)]
        self.rows = {stream: np.empty(shape) for stream in streams}
        self.signal = {stream: np.empty(shape) for stream in streams}
        self.signal_class = None
        self.flips = np.empty(shape)
        self.detail = np.empty((2, spec.dim))


def _drawer(spec: SynthSpec):
    """Return ``draw(k, buffers)``, which draws video ``k`` (in manifest
    order) into ``buffers.rows`` of a :class:`_Buffers`, overwriting
    them, and returns its ``(video_id, label, split)``.

    Video ``k`` draws from its own seed, the k-th child of one
    ``SeedSequence``, per stream its frames x dim noise and then its
    dim-sized detail vector. No draw reads another's state, so videos may
    be drawn in any order, on any thread, with the same bits.
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

    # Per stream, each signal-level interval with its block of class
    # vectors and whether it is negated: every sibling pair of intervals
    # gets +amplitude * vector on the first and -amplitude * vector on the
    # second; at level 1 the single vector covers everything.
    signal = {stream: [(start, end, (index - 1) // 2, index % 2 == 0)
                       for start, end, index in _intervals(spec.frames, level)]
              for stream, level in plan}
    signed_vectors = {stream: (spec.amplitude * v, -spec.amplitude * v)
                      for stream, v in class_vectors.items()}
    # Per stream and frame, 0 where the detail vector is added and 1 where
    # it is negated: +1 on the first and -1 on the second half of every
    # signal-level interval (the halves are the level + 1 intervals, which
    # cover every frame), so the flip cancels exactly at the signal level's
    # pooling (up to one frame when interval lengths are odd).
    flip_rows = {}
    if spec.detail_sigma > 0:
        for stream, level in plan:
            flips = flip_rows[stream] = np.empty(spec.frames, dtype=np.intp)
            for start, end, index in _intervals(spec.frames, level + 1):
                flips[start:end] = index % 2 == 0
    detail_scale = spec.detail_sigma / np.sqrt(spec.dim)
    train_per_class = max(1, min(spec.per_class - 1,
                                 int(round(0.7 * spec.per_class))))

    def draw(k: int, buffers: _Buffers) -> tuple[str, int, str]:
        c, v = divmod(k, spec.per_class)
        # the k-th spawn(1) child of video_ss, built without spawning
        rng = np.random.default_rng(np.random.SeedSequence(
            video_ss.entropy, spawn_key=(*video_ss.spawn_key, k),
            pool_size=video_ss.pool_size))
        if buffers.signal_class != c:  # rare: videos are taken in order
            for stream, rows in buffers.signal.items():
                signed = signed_vectors[stream]
                for start, end, block, negate in signal[stream]:
                    rows[start:end] = signed[negate][c, block]
            buffers.signal_class = c
        # Signal and flips are written by assignment and take and then added
        # whole: a broadcasting ufunc would allocate iteration buffers per
        # call, up to 128 KiB, on every drawing thread.
        for stream, buf in buffers.rows.items():
            # the operations of noise_sigma * noise + signal, in place
            rng.standard_normal(out=buf)
            buf *= spec.noise_sigma
            buf += buffers.signal[stream]
            if spec.detail_sigma > 0:
                detail = buffers.detail
                rng.standard_normal(out=detail[0])
                detail[0] *= detail_scale
                np.negative(detail[0], out=detail[1])
                # mode="clip" writes out directly; "raise" buffers it
                np.take(detail, flip_rows[stream], axis=0,
                        out=buffers.flips, mode="clip")
                buf += buffers.flips
        return (f"synth_c{c + 1:02d}_v{v:03d}", c + 1,
                "train" if v < train_per_class else "test")

    return draw


def _videos(spec: SynthSpec):
    """Draw the dataset one video at a time, in manifest order.

    Yields ``(video_id, label, split, rows)``, where ``rows`` maps each
    stream to a (frames, dim) float64 buffer that the next video
    overwrites.
    """
    draw = _drawer(spec)
    buffers = _Buffers(spec)
    for k in range(spec.num_classes * spec.per_class):
        yield (*draw(k, buffers), buffers.rows)


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


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def gen_dataset(spec: SynthSpec, out_dir: str | os.PathLike) -> DatasetManifest:
    """Write feature files plus a manifest under ``out_dir`` and return
    the manifest (70/30 stratified train/test split).

    Generation holds one video per thread: a thread draws a video into
    its own reused buffers and writes its feature files, through a reused
    float32 buffer, before it takes the next. Videos of at least 2^14
    values (frames x dim) per stream are drawn by one thread per usable
    core, up to 8 threads and no more than hold 2^25 values per stream
    together; smaller ones are drawn by this thread alone. The number of
    threads does not depend on the number of videos, so neither does
    memory, and every video draws from its own seed, so the output bytes
    do not depend on the number of threads.

    On failure no further video is started, and once every thread has
    stopped, the error of the lowest failing video, the one a single
    thread would have stopped at, is raised, and no manifest is written.
    ``features/`` then holds the files of every earlier video, as after
    one thread, plus those of any later video another thread had already
    taken, which depend on the thread count and on timing.
    """
    out_dir = os.fspath(out_dir)
    os.makedirs(os.path.join(out_dir, "features"), exist_ok=True)
    draw = _drawer(spec)
    count = spec.num_classes * spec.per_class
    records: list[VideoRecord | None] = [None] * count
    failures: dict[int, Exception] = {}
    pending = iter(range(count))
    lock = threading.Lock()
    stop = threading.Event()

    def work(buffers, values32):
        while True:
            with lock:
                k = None if stop.is_set() else next(pending, None)
            if k is None:
                return
            try:
                vid, label, split = draw(k, buffers)
                paths = {}
                for stream, buf in buffers.rows.items():
                    paths[stream] = os.path.join("features",
                                                 f"{vid}.{stream}.gpf")
                    _write_container(os.path.join(out_dir, paths[stream]),
                                     GPF1_MAGIC, buf, out=values32)
                records[k] = VideoRecord(video_id=vid, label=label,
                                         split=split, **paths)
            except Exception as exc:  # raised below, on the caller's thread
                with lock:
                    failures[k] = exc
                    stop.set()

    threads = 1
    if spec.frames * spec.dim >= _THREAD_MIN_VALUES:
        # together the threads hold no more than one video at the limit
        threads = min(_usable_cores(), _MAX_THREADS,
                      _VIDEO_LIMIT // (spec.frames * spec.dim))
    # every thread's buffers exist for the whole loop, so the peak does
    # not depend on when a helper starts or stops
    buffers = [(_Buffers(spec), np.empty((spec.frames, spec.dim), "<f4"))
               for _ in range(threads)]
    helpers = [threading.Thread(target=work, args=b) for b in buffers[1:]]
    for helper in helpers:
        helper.start()
    try:
        work(*buffers[0])
    finally:
        stop.set()
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]
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
