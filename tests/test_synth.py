import hashlib
import tracemalloc

import numpy as np
import pytest

from treemkl import errors
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


class TestGenDataset:
    def test_files_match_golden_digests(self, tmp_path):
        gen_dataset(GOLDEN_SPEC, tmp_path)
        digests = {path.relative_to(tmp_path).as_posix():
                   hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in tmp_path.rglob("*") if path.is_file()}
        assert digests == GOLDEN_SHA256

    def test_files_hold_the_in_memory_rows(self, tmp_path):
        manifest = gen_dataset(GOLDEN_SPEC, tmp_path)
        data = gen_sequences(GOLDEN_SPEC)
        assert [r.video_id for r in manifest.records] == data.video_ids
        assert [r.label for r in manifest.records] == data.labels.tolist()
        assert [r.split for r in manifest.records] == data.splits
        for stream, seqs in data.sequences.items():
            for rec, seq in zip(manifest.records, seqs, strict=True):
                back = load_feature_file(tmp_path / rec.path_for(stream))
                np.testing.assert_array_equal(back.rows, seq.rows)

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
