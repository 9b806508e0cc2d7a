import json
import re
import struct

import numpy as np
import pytest

from treemkl import errors
from treemkl.dataio import (
    DatasetManifest,
    StreamFeatureSequence,
    VideoRecord,
    load_feature_file,
    load_manifest,
    write_feature_file,
    write_manifest,
)
from treemkl.hierarchy import load_pooled_file


def make_seq(rows, video_id="v0", stream="appearance"):
    return StreamFeatureSequence(video_id=video_id, stream=stream,
                                 rows=np.asarray(rows, dtype=np.float64))


class TestSequenceValidation:
    def test_rejects_nan(self):
        with pytest.raises(errors.NonFinite):
            make_seq([[1.0, np.nan]])

    def test_rejects_empty(self):
        with pytest.raises(errors.ZeroFrames):
            make_seq(np.empty((0, 3)))

    def test_rejects_zero_dim(self):
        with pytest.raises(errors.ZeroDim):
            make_seq(np.empty((3, 0)))

    def test_rows_are_read_only(self):
        seq = make_seq([[1.0, 2.0]])
        with pytest.raises(ValueError):
            seq.rows[0, 0] = 5.0

    def test_shape_accessors(self):
        seq = make_seq(np.zeros((4, 7)))
        assert (seq.frame_count, seq.dim) == (4, 7)


class TestFeatureFileRoundtrip:
    def test_roundtrip_identity(self, rng, tmp_path):
        # float32 values survive a write/load cycle bit-exactly
        rows = rng.standard_normal((5, 3)).astype(np.float32).astype(np.float64)
        seq = make_seq(rows, video_id="clip")
        path = tmp_path / "clip.gpf"
        write_feature_file(seq, path)
        back = load_feature_file(path, video_id="clip")
        assert back.video_id == "clip"
        np.testing.assert_array_equal(back.rows, seq.rows)

    def test_file_size_is_header_plus_payload(self, tmp_path):
        seq = make_seq(np.zeros((100, 2048)))
        path = tmp_path / "big.gpf"
        write_feature_file(seq, path)
        assert path.stat().st_size == 12 + 100 * 2048 * 4

    def test_header_example(self, tmp_path):
        path = tmp_path / "tiny.gpf"
        payload = struct.pack("<6f", *range(6))
        path.write_bytes(b"GPF1" + struct.pack("<II", 2, 3) + payload)
        seq = load_feature_file(path)
        assert (seq.frame_count, seq.dim) == (3, 2)
        np.testing.assert_array_equal(seq.rows,
                                      [[0, 1], [2, 3], [4, 5]])

    def test_write_rejects_nan(self, tmp_path):
        rows = np.ones((2, 2))
        seq = make_seq(rows)
        object.__setattr__(seq, "rows", np.array([[np.inf, 0], [0, 0]]))
        with pytest.raises(errors.NonFinite):
            write_feature_file(seq, tmp_path / "bad.gpf")


# the two formats that share one container: (magic, loader)
FORMATS = ((b"GPF1", load_feature_file), (b"GPT1", load_pooled_file))


def assert_rejected(tmp_path, exc, payload, match=None):
    """Both loaders raise ``exc``, its message matching ``match``, on
    their own magic followed by ``payload`` (``u32 dim | u32 count |
    floats``)."""
    for magic, load in FORMATS:
        path = tmp_path / magic.decode()
        path.write_bytes(magic + payload)
        with pytest.raises(exc, match=match):
            load(path)


class TestFeatureFileErrors:
    def test_bad_magic(self, tmp_path):
        payload = struct.pack("<II", 1, 1) + b"\x00" * 4
        for (_, load), (other, _) in zip(FORMATS, reversed(FORMATS)):
            for wrong in (b"NOPE", other):
                path = tmp_path / "bad"
                path.write_bytes(wrong + payload)
                with pytest.raises(errors.BadMagic):
                    load(path)

    def test_zero_frames(self, tmp_path):
        assert_rejected(tmp_path, errors.ZeroFrames, struct.pack("<II", 2, 0))

    def test_zero_dim(self, tmp_path):
        assert_rejected(tmp_path, errors.ZeroDim, struct.pack("<II", 0, 1))

    def test_truncated_payload(self, tmp_path):
        # header declares 3 rows but only 2 are present
        assert_rejected(tmp_path, errors.Truncated, struct.pack("<II", 2, 3)
                        + struct.pack("<4f", *range(4)))
        assert_rejected(tmp_path, errors.Truncated, struct.pack("<I", 2))

    def test_trailing_bytes(self, tmp_path):
        assert_rejected(tmp_path, errors.TrailingData,
                        struct.pack("<II", 1, 1) + struct.pack("<f", 1.0)
                        + b"junk")

    def test_nonfinite_payload(self, tmp_path):
        # the first non-finite float, the second of the payload, is named
        # by its byte offset
        for bad in (np.inf, -np.inf, np.nan):
            assert_rejected(tmp_path, errors.NonFinite,
                            struct.pack("<II", 1, 3)
                            + struct.pack("<3f", 1.0, bad, np.inf),
                            match="offset 16: non-finite value")

    def test_missing_file(self, tmp_path):
        for _, load in FORMATS:
            with pytest.raises(errors.MissingPath):
                load(tmp_path / "absent")

    def test_directory_is_missing_file(self, tmp_path):
        for _, load in FORMATS:
            with pytest.raises(errors.MissingPath, match="no such"):
                load(tmp_path)

    def test_node_count_not_full_tree(self, tmp_path):
        # 4 node vectors fit no depth (1, 3, 7, ... nodes)
        path = tmp_path / "four.gpt"
        path.write_bytes(b"GPT1" + struct.pack("<II", 1, 4)
                         + struct.pack("<4f", *range(4)))
        with pytest.raises(errors.ValidationError, match=r"not 2\*\*D - 1"):
            load_pooled_file(path)

    def test_roundtrip_property(self, rng, tmp_path):
        # any valid float32-representable sequence survives unchanged
        for trial in range(20):
            frames = int(rng.integers(1, 30))
            dim = int(rng.integers(1, 20))
            rows = (rng.standard_normal((frames, dim)) * 10
                    ).astype(np.float32).astype(np.float64)
            seq = make_seq(rows, video_id=f"t{trial}")
            path = tmp_path / f"t{trial}.gpf"
            write_feature_file(seq, path)
            back = load_feature_file(path)
            np.testing.assert_array_equal(back.rows, seq.rows)


class TestManifest:
    def write_lines(self, tmp_path, lines):
        path = tmp_path / "manifest.jsonl"
        path.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n")
        return path

    def test_three_records(self, tmp_path):
        path = self.write_lines(tmp_path, [
            {"video_id": "a", "label": 1, "appearance": "a.gpf", "split": "train"},
            {"video_id": "b", "label": 2, "motion": "b.gpf", "split": "train"},
            {"video_id": "c", "label": 1, "appearance": "c.gpf", "split": "test"},
        ])
        m = load_manifest(path)
        assert len(m.records) == 3
        assert m.num_classes == 2
        assert [r.video_id for r in m.split("train")] == ["a", "b"]

    def test_duplicate_id(self, tmp_path):
        path = self.write_lines(tmp_path, [
            {"video_id": "a", "label": 1, "appearance": "a.gpf", "split": "train"},
            {"video_id": "a", "label": 2, "appearance": "b.gpf", "split": "train"},
        ])
        with pytest.raises(errors.DuplicateId):
            load_manifest(path)

    def test_unknown_label(self, tmp_path):
        path = self.write_lines(tmp_path, [
            {"label_names": {"1": "walk", "2": "run", "3": "sit", "4": "jump"}},
            {"video_id": "a", "label": 5, "appearance": "a.gpf", "split": "train"},
        ])
        with pytest.raises(errors.UnknownLabel):
            load_manifest(path)

    def test_missing_path(self, tmp_path):
        path = self.write_lines(tmp_path, [
            {"video_id": "a", "label": 1, "split": "train"},
        ])
        with pytest.raises(errors.MissingPath):
            load_manifest(path)

    def test_non_integer_label_is_validation_error(self, tmp_path):
        for label in ("x", 1.7):
            path = self.write_lines(tmp_path, [
                {"video_id": "a", "label": 1, "appearance": "a.gpf",
                 "split": "train"},
                {"video_id": "b", "label": label, "appearance": "b.gpf",
                 "split": "train"},
            ])
            with pytest.raises(errors.ValidationError,
                               match=re.escape(f"{path}:2: label {label!r}")):
                load_manifest(path)

    def test_non_integer_label_names_key_is_validation_error(self, tmp_path):
        path = self.write_lines(tmp_path, [
            {"label_names": {"one": "walk"}},
            {"video_id": "a", "label": 1, "appearance": "a.gpf", "split": "train"},
        ])
        with pytest.raises(errors.ValidationError,
                           match=re.escape(f"{path}:1: label_names key 'one'")):
            load_manifest(path)
        path = self.write_lines(tmp_path, [{"label_names": ["walk"]}])
        with pytest.raises(errors.ValidationError,
                           match=re.escape(f"{path}:1: label_names must be")):
            load_manifest(path)

    def test_roundtrip(self, tmp_path):
        manifest = DatasetManifest(
            records=[
                VideoRecord("a", 1, appearance="a.gpf", split="train"),
                VideoRecord("b", 2, appearance="b.gpf", motion="bm.gpf",
                            split="test"),
            ],
            label_names={1: "walk", 2: "run"})
        path = tmp_path / "m.jsonl"
        write_manifest(manifest, path)
        back = load_manifest(path)
        assert back.records == manifest.records
        assert back.label_names == manifest.label_names
