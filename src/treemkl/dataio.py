"""Feature files and dataset manifests.

This module is the boundary where per-frame feature vectors enter the
system: upstream extraction (whatever produced the vectors) is out of
scope, and everything downstream consumes the validated types defined
here.

File formats
------------
Feature files and pooled-tree files share one container::

    magic | u32 dim (LE) | u32 count (LE) | count*dim f32 (LE)

with a row-major payload: ``b"GPF1"`` holds one video's frames for one
stream, ``b"GPT1"`` the ``2**D - 1`` node vectors of one pooled tree
(see :mod:`treemkl.hierarchy`). Files store 32-bit floats; in-memory
arithmetic is 64-bit throughout.

:func:`write_feature_file` and :func:`load_feature_file` are the GPF1
format API: an upstream extractor writes each video's frames for one
stream with the former, and the pipeline reads them with the latter.
The package's own synthetic generator (``gen-synth``) writes the same
container straight from the reused buffers it draws each video into, one
set per drawing thread, so no command calls the writer.

Manifest: JSON lines, one object per video with keys ``video_id``,
``label`` (int, classes are 1..C), optional ``appearance`` / ``motion``
paths, and ``split`` ("train" | "test"). An optional first line
``{"label_names": {"1": "...", ...}}`` names the classes; otherwise
names default to ``class_<id>`` for ids 1..max(label).
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .choices import STREAMS
from .errors import (
    BadMagic,
    DuplicateId,
    MissingPath,
    NonFinite,
    TrailingData,
    Truncated,
    UnknownLabel,
    ValidationError,
    ZeroDim,
    ZeroFrames,
)

GPF1_MAGIC = b"GPF1"
GPT1_MAGIC = b"GPT1"
SPLITS = ("train", "test")


@dataclass(frozen=True, eq=False)
class StreamFeatureSequence:
    """Per-frame feature vectors for one video and one stream.

    ``rows`` has shape (frame_count, dim), dtype float64, and is marked
    read-only; sequences are safe to share across threads.
    """

    video_id: str
    stream: str
    rows: np.ndarray

    def __post_init__(self):
        if self.stream not in STREAMS:
            raise ValidationError(f"unknown stream {self.stream!r}")
        rows = np.ascontiguousarray(np.asarray(self.rows, dtype=np.float64))
        if rows.ndim != 2:
            raise ValidationError(
                f"rows must be 2-D (frames x dim), got shape {rows.shape}")
        if rows.shape[0] < 1:
            raise ZeroFrames(f"{self.video_id}/{self.stream}: zero frames")
        if rows.shape[1] < 1:
            raise ZeroDim(f"{self.video_id}/{self.stream}: zero feature dim")
        if not np.isfinite(rows).all():
            raise NonFinite(
                f"{self.video_id}/{self.stream}: non-finite feature values")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @property
    def frame_count(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class VideoRecord:
    """One manifest entry: id, label, split and a feature file per stream."""

    video_id: str
    label: int
    appearance: str | None = None
    motion: str | None = None
    split: str = "train"

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ValidationError(
                f"{self.video_id}: bad split {self.split!r}")
        if self.appearance is None and self.motion is None:
            raise MissingPath(f"{self.video_id}: no stream path present")

    def path_for(self, stream: str) -> str:
        if stream not in STREAMS:
            raise ValidationError(f"unknown stream {stream!r}")
        return getattr(self, stream)


@dataclass
class DatasetManifest:
    """Videos with unique ids, and class names by id, contiguous from 1."""

    records: list[VideoRecord]
    label_names: dict[int, str] = field(default_factory=dict)

    def __post_init__(self):
        seen = set()
        for rec in self.records:
            if rec.video_id in seen:
                raise DuplicateId(f"duplicate video_id {rec.video_id!r}")
            seen.add(rec.video_id)
        if not self.label_names:
            top = max((r.label for r in self.records), default=0)
            self.label_names = {c: f"class_{c}" for c in range(1, top + 1)}
        ids = sorted(self.label_names)
        if ids != list(range(1, len(ids) + 1)):
            raise UnknownLabel(f"class ids not contiguous from 1: {ids}")
        for rec in self.records:
            if rec.label not in self.label_names:
                raise UnknownLabel(
                    f"{rec.video_id}: label {rec.label} outside "
                    f"declared classes 1..{len(ids)}")

    @property
    def num_classes(self) -> int:
        return len(self.label_names)

    def split(self, which: str) -> list[VideoRecord]:
        if which not in SPLITS:
            raise ValidationError(f"unknown split {which!r}")
        return [r for r in self.records if r.split == which]


# --- GPF1/GPT1 container -----------------------------------------------------

def _write_container(path: str | os.PathLike, magic: bytes,
                     values: np.ndarray, out: np.ndarray | None = None) -> None:
    """Write (count, dim) ``values`` as ``magic | u32 dim | u32 count |
    count*dim <f4``; loading recovers their float32 rounding bit-exactly.

    ``out``, a contiguous ``<f4`` array of the same shape, receives the
    float32 rounding in place of a new array.
    """
    values32 = np.empty(values.shape, "<f4") if out is None else out
    with np.errstate(over="ignore"):  # an overflow is refused just below
        np.copyto(values32, values)
    # min and max are non-finite exactly when some value is, and unlike
    # isfinite they allocate nothing
    if not (np.isfinite(values32.min()) and np.isfinite(values32.max())):
        raise NonFinite(f"{path}: values overflow float32")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<II", values32.shape[1], values32.shape[0]))
        fh.write(values32)


def _read_container(path: str | os.PathLike, magic: bytes,
                    count_name: str, build):
    """Load and validate a container, and return ``build`` of its
    (count, dim) float64 array: the loader's dataclass, which refuses
    non-finite values (float32 -> float64 keeps finiteness).

    Errors name the file and the byte offset where the problem was
    detected; ``count_name`` says what the rows are.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except (FileNotFoundError, IsADirectoryError) as exc:
        raise MissingPath(f"{path}: no such {magic.decode()} file") from exc
    if len(data) < 4 or data[:4] != magic:
        raise BadMagic(f"{path}: offset 0: expected {magic!r}, "
                       f"got {data[:4]!r}")
    if len(data) < 12:
        raise Truncated(f"{path}: offset {len(data)}: header incomplete")
    dim, count = struct.unpack_from("<II", data, 4)
    if count == 0:
        raise ZeroFrames(f"{path}: offset 8: {count_name} count is 0")
    if dim == 0:
        raise ZeroDim(f"{path}: offset 4: feature dim is 0")
    need = 12 + 4 * dim * count
    if len(data) < need:
        raise Truncated(f"{path}: offset {len(data)}: payload declares "
                        f"{count}x{dim} floats ({need} bytes total)")
    if len(data) > need:
        raise TrailingData(f"{path}: offset {need}: {len(data) - need} "
                           f"unexpected trailing bytes")
    raw = np.frombuffer(data, dtype="<f4", count=dim * count, offset=12)
    values = raw.reshape(count, dim).astype(np.float64)
    try:
        return build(values)
    except NonFinite:
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise NonFinite(
            f"{path}: offset {12 + 4 * bad}: non-finite value") from None


def _stem(path: str | os.PathLike) -> str:
    return os.path.splitext(os.path.basename(os.fspath(path)))[0]


def write_feature_file(seq: StreamFeatureSequence, path: str | os.PathLike) -> None:
    """Write ``seq`` in GPF1 form: the writer an upstream feature
    extractor uses to produce input for the pipeline."""
    _write_container(path, GPF1_MAGIC, seq.rows)


def load_feature_file(path: str | os.PathLike, video_id: str | None = None,
                      stream: str = "appearance") -> StreamFeatureSequence:
    """Load and validate a GPF1 feature file; ``video_id`` defaults to
    the file stem."""
    if video_id is None:
        video_id = _stem(path)
    return _read_container(path, GPF1_MAGIC, "frame", lambda rows:
                           StreamFeatureSequence(video_id, stream, rows))


# --- manifests ----------------------------------------------------------------

def _class_id(value, where: str) -> int:
    """An integer, or a string of one; a float such as 1.7 is rejected
    rather than truncated."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValidationError(f"{where} {value!r} is not an integer class id")


def _text(value, where: str) -> str:
    """A string, rejected rather than passed through ``str()``."""
    if not isinstance(value, str):
        raise ValidationError(f"{where} {value!r} is not a string")
    return value


def load_manifest(path: str | os.PathLike) -> DatasetManifest:
    """Parse a JSON-lines manifest into a validated :class:`DatasetManifest`."""
    records: list[VideoRecord] = []
    label_names: dict[int, str] = {}
    if not os.path.isfile(path):
        raise MissingPath(f"{path}: no such manifest")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not valid UTF-8: {exc}") from exc
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            at = f"{path}:{lineno}:"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{at} bad JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise ValidationError(f"{at} not a JSON object")
            if "label_names" in obj and "video_id" not in obj:
                if lineno != 1 and records:
                    raise ValidationError(
                        f"{at} label_names must be the first line")
                names = obj["label_names"]
                if not isinstance(names, dict):
                    raise ValidationError(f"{at} label_names must be an object")
                label_names = {_class_id(k, f"{at} label_names key"):
                               _text(v, f"{at} label_names value")
                               for k, v in names.items()}
                continue
            missing = [k for k in ("video_id", "label", "split") if k not in obj]
            if missing:
                raise ValidationError(f"{at} missing keys {missing}")
            for key in STREAMS:
                if not isinstance(obj.get(key, ""), (str, type(None))):
                    raise ValidationError(
                        f"{at} {key} {obj[key]!r} is not a path")
            entry = dict(video_id=_text(obj["video_id"], f"{at} video_id"),
                         label=_class_id(obj["label"], f"{at} label"),
                         appearance=obj.get("appearance"),
                         motion=obj.get("motion"),
                         split=_text(obj["split"], f"{at} split"))
            try:
                records.append(VideoRecord(**entry))
            except ValidationError as exc:
                raise type(exc)(f"{at} {exc}") from exc
    return DatasetManifest(records=records, label_names=label_names)


def write_manifest(manifest: DatasetManifest, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(
            {"label_names": {str(k): v
                             for k, v in sorted(manifest.label_names.items())}},
            sort_keys=True) + "\n")
        for rec in manifest.records:
            obj = {"video_id": rec.video_id, "label": rec.label,
                   "split": rec.split, "appearance": rec.appearance,
                   "motion": rec.motion}
            obj = {k: v for k, v in obj.items() if v is not None}
            fh.write(json.dumps(obj, sort_keys=True) + "\n")

