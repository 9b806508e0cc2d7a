import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from treemkl import errors, synth
from treemkl.cli import main
from treemkl.dataio import load_feature_file
from treemkl.hierarchy import Hierarchy, pool_sequence
from treemkl.synth import (SynthSpec, _videos, gen_dataset, gen_sequences,
                           misalign)


class TestSpecValidation:
    def test_rejects_one_class(self):
        with pytest.raises(errors.SpecInvalid):
            SynthSpec(num_classes=1)

    def test_rejects_short_sequences(self):
        with pytest.raises(errors.SpecInvalid):
            SynthSpec(frames=4, signal_level=4)

    def test_rejects_bad_streams(self):
        with pytest.raises(errors.SpecInvalid):
            SynthSpec(streams=3)

    def test_rejects_video_above_the_limit(self):
        SynthSpec(frames=2 ** 21, dim=16)  # 2^25 values: accepted
        with pytest.raises(errors.SpecInvalid, match="2\\^25"):
            SynthSpec(frames=2 ** 21 + 1, dim=16)

    def test_detail_free_spec_needs_no_level_below_the_signal(self, tmp_path):
        spec = SynthSpec(num_classes=2, per_class=2, frames=4,
                         signal_level=3, detail_sigma=0.0)
        manifest = gen_dataset(spec, tmp_path)
        assert_files_hold_the_rows(manifest, spec, tmp_path)

    @pytest.mark.parametrize("field, value, needle", [
        ("dim", -1, "dim"), ("dim", 0, "dim"),
        ("amplitude", np.inf, "amplitude"), ("amplitude", np.nan, "amplitude"),
        ("amplitude", 0.0, "amplitude"),
        ("noise_sigma", np.inf, "noise_sigma"),
        ("noise_sigma", np.nan, "noise_sigma"),
        ("detail_sigma", np.nan, "detail_sigma"),
        ("detail_sigma", np.inf, "detail_sigma"),
        ("detail_sigma", -0.5, "detail_sigma"),
        ("seed", -1, "seed")])
    def test_rejects_bad_value_before_generating(self, field, value, needle):
        with pytest.raises(errors.SpecInvalid, match=needle):
            SynthSpec(**{field: value})


class TestGenSequences:
    def test_seed_determinism(self):
        spec = SynthSpec(num_classes=3, per_class=4, frames=16, dim=6, seed=5,
                         signal_level=2)
        a = gen_sequences(spec)
        b = gen_sequences(spec)
        for sa, sb in zip(a.sequences["appearance"], b.sequences["appearance"]):
            np.testing.assert_array_equal(sa.rows, sb.rows)

    def test_split_is_stratified_70_30(self):
        spec = SynthSpec(num_classes=4, per_class=10, frames=16, dim=4,
                         signal_level=2, seed=0)
        data = gen_sequences(spec)
        splits = np.asarray(data.splits)
        for c in range(1, 5):
            mask = data.labels == c
            assert np.sum(splits[mask] == "train") == 7
            assert np.sum(splits[mask] == "test") == 3

    def test_gap_separable_when_signal_at_root(self):
        # classes differ in their global mean when the signal level is 1
        spec = SynthSpec(num_classes=2, per_class=20, frames=16, dim=8,
                         signal_level=1, seed=1)
        data = gen_sequences(spec)
        means = np.stack([s.rows.mean(axis=0)
                          for s in data.sequences["appearance"]])
        m1 = means[data.labels == 1].mean(axis=0)
        m2 = means[data.labels == 2].mean(axis=0)
        gap = np.linalg.norm(m1 - m2)
        scatter = max(np.linalg.norm(means[data.labels == c] - m, axis=1).mean()
                      for c, m in ((1, m1), (2, m2)))
        assert gap > scatter

    def test_root_means_equal_but_signal_level_differs(self):
        # sign-balanced placement: root node means agree across classes
        # within sampling error while signal-level node means differ by
        # the full amplitude
        for seed in range(5):
            spec = SynthSpec(num_classes=4, per_class=40, frames=32, dim=16,
                             signal_level=3, amplitude=1.5, noise_sigma=0.5,
                             seed=seed)
            data = gen_sequences(spec)
            h = Hierarchy(3)
            trees = np.stack([pool_sequence(s, h).vectors
                              for s in data.sequences["appearance"]])
            class_means = np.stack([trees[data.labels == c].mean(axis=0)
                                    for c in range(1, 5)])
            # root row (node 0): class means coincide up to noise
            root_gap = np.linalg.norm(
                class_means[:, 0, :] - class_means[:, 0, :].mean(axis=0),
                axis=1).max()
            # level-3 rows: some node separates every class pair by ~amplitude
            sig = class_means[:, h.level_slice(3), :]
            min_sep = min(
                np.linalg.norm(sig[a] - sig[b], axis=1).max()
                for a in range(4) for b in range(a + 1, 4))
            assert root_gap < 0.25
            assert min_sep > 1.5  # ~ amplitude * sqrt(2) minus noise

    def test_detail_cancels_at_signal_level(self):
        # the video-specific detail vector must not disturb signal-level
        # pooling: two videos of one class differ there only by noise
        spec = SynthSpec(num_classes=2, per_class=2, frames=32, dim=8,
                         signal_level=2, noise_sigma=1e-6, detail_sigma=2.0,
                         seed=3)
        data = gen_sequences(spec)
        h = Hierarchy(2)
        t0 = pool_sequence(data.sequences["appearance"][0], h).vectors
        t1 = pool_sequence(data.sequences["appearance"][1], h).vectors
        np.testing.assert_allclose(t0, t1, atol=1e-4)
        # but deeper pooling sees it
        h3 = Hierarchy(3)
        d0 = pool_sequence(data.sequences["appearance"][0], h3).vectors
        d1 = pool_sequence(data.sequences["appearance"][1], h3).vectors
        assert np.abs(d0 - d1).max() > 0.1

    def test_two_streams_have_independent_noise(self):
        spec = SynthSpec(num_classes=2, per_class=4, frames=32, dim=8,
                         signal_level=2, streams=2, seed=7)
        data = gen_sequences(spec)
        app = data.sequences["appearance"][0].rows
        mot = data.sequences["motion"][0].rows
        assert app.shape == mot.shape
        assert np.abs(app - mot).max() > 0.1


# two streams with the detail flip, and an odd frame count so that
# interval lengths are uneven
GOLDEN_SPEC = SynthSpec(num_classes=2, per_class=2, frames=37, dim=3,
                        signal_level=2, streams=2, seed=11)
GOLDEN_SHA256 = {
    "features/synth_c01_v000.appearance.gpf":
        "aa6507da54b3c8ba12bbe4fd736b3a12a7fa6b310a79c1e3527220d1c5a75d0e",
    "features/synth_c01_v000.motion.gpf":
        "15b9ee7275d4dc35ba3bc1633904983c9eb47f5cdb5c7ea048b28408924b9942",
    "features/synth_c01_v001.appearance.gpf":
        "155ef8167c41382d45860b6801ecedee99d1827480c1551342089a201c86c7d3",
    "features/synth_c01_v001.motion.gpf":
        "d1fc7d35b3e13fca3bd7f25f7556641fcdbc5095c22c5bf3c783b753ef065885",
    "features/synth_c02_v000.appearance.gpf":
        "5aa7e4f72d133a5f60af80167d1ec9ca871d874b6c28e171945e569f66ab1d9e",
    "features/synth_c02_v000.motion.gpf":
        "805d23f1dd2038c9bed6e42c1bc2b2aaf7a3256738e05336fb2638d3821b04d6",
    "features/synth_c02_v001.appearance.gpf":
        "13eb58d405ce88033e22239d4277d0d0f56799ca49deaabf67a4119818913e13",
    "features/synth_c02_v001.motion.gpf":
        "89150359c243a7acf18189126fbc911bbafe30b20fb0bbd58fb75dc40e1d5507",
    "manifest.jsonl":
        "96c2f43df54bace8a22d78a90847b7839600f6fc25f1049f896f2861393de8a1",
}


def digests(root):
    return {path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in root.rglob("*") if path.is_file()}


def assert_files_hold_the_rows(manifest, spec, root):
    data = gen_sequences(spec)
    assert [r.video_id for r in manifest.records] == data.video_ids
    assert [r.label for r in manifest.records] == data.labels.tolist()
    assert [r.split for r in manifest.records] == data.splits
    for stream, seqs in data.sequences.items():
        for rec, seq in zip(manifest.records, seqs, strict=True):
            back = load_feature_file(root / rec.path_for(stream))
            np.testing.assert_array_equal(back.rows, seq.rows)


class TestGenDataset:
    def test_files_match_golden_digests(self, tmp_path):
        gen_dataset(GOLDEN_SPEC, tmp_path)
        assert digests(tmp_path) == GOLDEN_SHA256

    def test_files_hold_the_in_memory_rows(self, tmp_path):
        manifest = gen_dataset(GOLDEN_SPEC, tmp_path)
        assert_files_hold_the_rows(manifest, GOLDEN_SPEC, tmp_path)

    def test_peak_memory_does_not_grow_with_dataset(self, tmp_path):
        # videos are written as they are drawn: quadrupling the dataset
        # adds less than one video-stream to the peak
        def peak(per_class):
            spec = SynthSpec(per_class=per_class, frames=256, dim=64)
            tracemalloc.start()
            try:
                gen_dataset(spec, tmp_path / str(per_class))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # first-call allocations that no size repeats
        assert peak(32) - peak(8) < 256 * 64 * 8

    def test_video_seeds_are_spawned_one_at_a_time(self):
        # a video's seed is drawn when the video is: drawing 4,000 videos
        # peaks no higher than drawing 1,000, where one seed spawned up
        # front per video would add about 1 MiB
        def peak(per_class):
            spec = SynthSpec(num_classes=2, per_class=per_class, frames=4,
                             dim=2, signal_level=2)
            tracemalloc.start()
            try:
                for _ in _videos(spec):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # first-call allocations that no size repeats
        assert peak(2000) - peak(500) < 64 * 1024

    def test_writes_loadable_files(self, tmp_path):
        spec = SynthSpec(num_classes=2, per_class=3, frames=16, dim=4,
                         signal_level=2, seed=2)
        manifest = gen_dataset(spec, tmp_path)
        assert (tmp_path / "manifest.jsonl").exists()
        from treemkl.dataio import load_feature_file, load_manifest
        back = load_manifest(tmp_path / "manifest.jsonl")
        assert len(back.records) == 6
        rec = back.records[0]
        seq = load_feature_file(tmp_path / rec.appearance,
                                video_id=rec.video_id)
        assert seq.frame_count == 16

    def test_byte_identical_reruns(self, tmp_path):
        spec = SynthSpec(num_classes=2, per_class=3, frames=16, dim=4,
                         signal_level=2, seed=2)
        gen_dataset(spec, tmp_path / "a")
        gen_dataset(spec, tmp_path / "b")
        for sub in sorted((tmp_path / "a" / "features").iterdir()):
            other = tmp_path / "b" / "features" / sub.name
            assert sub.read_bytes() == other.read_bytes()
        assert (tmp_path / "a" / "manifest.jsonl").read_bytes() == \
            (tmp_path / "b" / "manifest.jsonl").read_bytes()


def use_cores(monkeypatch, cores, gate=None):
    """Make ``gen_dataset`` see ``cores`` usable cores (and, given, use
    ``gate`` as its size gate); returns the list of specs it allocates
    buffers for, one per drawing thread."""
    monkeypatch.setattr(synth, "_usable_cores", lambda: cores)
    if gate is not None:
        monkeypatch.setattr(synth, "_THREAD_MIN_VALUES", gate)
    allocated = []
    real = synth._Buffers

    def buffers(spec):
        allocated.append(spec)
        return real(spec)

    monkeypatch.setattr(synth, "_Buffers", buffers)
    return allocated


class TestThreads:
    """gen_dataset on several threads writes the bytes of one thread."""

    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_golden_digests(self, tmp_path, monkeypatch, cores):
        allocated = use_cores(monkeypatch, cores, gate=0)
        gen_dataset(GOLDEN_SPEC, tmp_path)
        assert len(allocated) == cores
        assert digests(tmp_path) == GOLDEN_SHA256

    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_videos_above_the_gate_hold_the_rows(self, tmp_path, monkeypatch,
                                                 cores):
        spec = SynthSpec(num_classes=2, per_class=3, frames=512, dim=32,
                         streams=2, seed=4)
        assert spec.frames * spec.dim >= synth._THREAD_MIN_VALUES
        allocated = use_cores(monkeypatch, cores)
        manifest = gen_dataset(spec, tmp_path)
        assert len(allocated) == cores
        assert_files_hold_the_rows(manifest, spec, tmp_path)

    def test_videos_below_the_gate_use_one_thread(self, tmp_path,
                                                  monkeypatch):
        spec = SynthSpec(num_classes=2, per_class=3, frames=511, dim=32)
        allocated = use_cores(monkeypatch, 4)
        gen_dataset(spec, tmp_path)
        assert len(allocated) == 1

    @pytest.mark.parametrize("cores, threads", [(6, 6), (64, 8)])
    def test_thread_count_does_not_depend_on_the_video_count(
            self, tmp_path, monkeypatch, cores, threads):
        spec = SynthSpec(num_classes=2, per_class=2, frames=512, dim=32)
        allocated = use_cores(monkeypatch, cores)
        gen_dataset(spec, tmp_path)
        assert len(allocated) == threads

    @pytest.mark.parametrize("cores", [4, 64])
    def test_peak_memory_does_not_grow_with_dataset(self, tmp_path,
                                                    monkeypatch, cores):
        # TestGenDataset's bound at a thread count of another host
        use_cores(monkeypatch, cores)

        def peak(per_class):
            spec = SynthSpec(per_class=per_class, frames=256, dim=64)
            tracemalloc.start()
            try:
                gen_dataset(spec, tmp_path / str(per_class))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # first-call allocations that no size repeats
        assert peak(32) - peak(8) < 256 * 64 * 8

    def test_threads_together_hold_at_most_the_video_limit(self, tmp_path,
                                                           monkeypatch):
        spec = SynthSpec(num_classes=2, per_class=3, frames=512, dim=32)
        allocated = use_cores(monkeypatch, 4)
        monkeypatch.setattr(synth, "_VIDEO_LIMIT", 3 * 512 * 32 - 1)
        gen_dataset(spec, tmp_path)
        assert len(allocated) == 2

    def test_more_threads_than_cores_lose_no_video(self, tmp_path,
                                                   monkeypatch):
        # two threads taking one index would leave another video unwritten
        spec = SynthSpec(num_classes=3, per_class=40, frames=8, dim=2,
                         signal_level=2, seed=9)
        use_cores(monkeypatch, 8, gate=0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            manifest = gen_dataset(spec, tmp_path)
        finally:
            sys.setswitchinterval(interval)
        assert_files_hold_the_rows(manifest, spec, tmp_path)

    def test_failure_names_the_lowest_failing_video(self, tmp_path,
                                                    monkeypatch, capsys):
        # every video overflows float32; on two threads video 0 is written
        # only once video 1 has failed, so the later video fails first
        out = tmp_path / "out"
        argv = ["gen-synth", "--out", str(out), "--classes", "2",
                "--per-class", "3", "--frames", "8", "--dim", "2",
                "--signal-level", "2", "--amplitude", "1e39"]
        use_cores(monkeypatch, 1, gate=0)
        assert main(argv) == 2
        serial = capsys.readouterr().err
        assert serial == (f"error: {out / 'features'}"
                          f"/synth_c01_v000.appearance.gpf: "
                          f"values overflow float32\n")

        use_cores(monkeypatch, 2, gate=0)
        write = synth._write_container
        later_failed = threading.Event()

        def write_in_order(path, magic, values, out):
            if "_v000." in path:
                assert later_failed.wait(timeout=10)
            try:
                write(path, magic, values, out=out)
            except errors.NonFinite:
                if "_v001." in path:
                    later_failed.set()
                raise

        monkeypatch.setattr(synth, "_write_container", write_in_order)
        threads = threading.active_count()
        assert main(argv) == 2
        assert later_failed.is_set()
        assert capsys.readouterr().err == serial
        assert threading.active_count() == threads
        assert not (out / "files.json").exists()


class TestMisalign:
    def seq(self, rng, frames=12):
        from conftest import random_sequence
        return random_sequence(rng, frames=frames, dim=3)

    def test_zero_shift_identity(self, rng):
        seq = self.seq(rng)
        np.testing.assert_array_equal(misalign(seq, 0).rows, seq.rows)

    def test_full_cycle_identity(self, rng):
        seq = self.seq(rng)
        np.testing.assert_array_equal(misalign(seq, seq.frame_count).rows,
                                      seq.rows)

    def test_preserves_frame_multiset(self, rng):
        seq = self.seq(rng)
        shifted = misalign(seq, 5)
        orig = {tuple(r) for r in seq.rows}
        assert {tuple(r) for r in shifted.rows} == orig

    def test_root_pool_invariant(self, rng):
        seq = self.seq(rng, frames=16)
        h = Hierarchy(3)
        for shift in (-7, -1, 3, 11):
            t0 = pool_sequence(seq, h)
            t1 = pool_sequence(misalign(seq, shift), h)
            np.testing.assert_allclose(t1.root, t0.root, atol=1e-12)
            # deeper nodes are allowed to move; that asymmetry is the point
            if shift % seq.frame_count != 0:
                assert np.abs(t1.vectors - t0.vectors).max() > 1e-6

    def test_shift_too_large(self, rng):
        seq = self.seq(rng)
        with pytest.raises(errors.ShiftTooLarge):
            misalign(seq, seq.frame_count + 1)
