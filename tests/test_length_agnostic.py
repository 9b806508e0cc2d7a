"""The pooling is video-length agnostic: machines trained on 32-frame
videos classify the same classes drawn at other lengths."""

import numpy as np
import pytest

from treemkl.dmkl import ContrastiveConfig, dmkl_fit
from treemkl.em import em_fit
from treemkl.hierarchy import Hierarchy, pool_sequence
from treemkl.kernels import (AVERAGING, CONCATENATION, KernelConfig,
                             kernel_columns, median_gamma)
from treemkl.svm import predict
from treemkl.synth import SynthSpec, gen_sequences

TRAIN_FRAMES = 32
TEST_FRAMES = (8, 12, 57, 128)
H = Hierarchy(4)


def dataset(seed, frames, **overrides):
    spec = dict(num_classes=4, per_class=25, frames=frames, dim=16,
                signal_level=3, seed=seed)
    spec.update(overrides)
    return gen_sequences(SynthSpec(**spec))


def split_trees(data, which):
    idx = data.split_indices(which)
    return ([pool_sequence(data.sequences["appearance"][i], H) for i in idx],
            data.labels[idx])


def test_class_vectors_do_not_depend_on_frames():
    # with almost no noise and no detail, every signal-level node pools to
    # +-amplitude (1.5) times a unit class vector, whatever the video's
    # length
    def signal_nodes(frames):
        data = dataset(0, frames, noise_sigma=1e-9, detail_sigma=0.0)
        trees, labels = split_trees(data, "train")
        return np.stack([t.vectors[H.level_slice(3)] for t in trees]), labels

    base, base_labels = signal_nodes(TRAIN_FRAMES)
    np.testing.assert_allclose(np.linalg.norm(base, axis=-1), 1.5,
                               rtol=0, atol=1e-6)
    for frames in TEST_FRAMES:
        nodes, labels = signal_nodes(frames)
        np.testing.assert_array_equal(labels, base_labels)
        np.testing.assert_allclose(nodes, base, rtol=0, atol=1e-6)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_trained_at_one_length_classifies_every_length(seed):
    train, y_train = split_trees(dataset(seed, TRAIN_FRAMES), "train")
    kcfg = KernelConfig("rbf", median_gamma(train))
    fits = {}
    for variant in (CONCATENATION, AVERAGING):
        res = em_fit(train, y_train, variant, kcfg)
        fits["alternating", variant] = res.beta, res.model
        res = dmkl_fit(train, y_train, variant, ContrastiveConfig(), kcfg)
        fits["contrastive", variant] = res.weights.beta, res.model
    for frames in TEST_FRAMES:
        test, y_test = split_trees(dataset(seed, frames), "test")
        for (route, variant), (beta, model) in fits.items():
            cols = kernel_columns(test, train, beta, variant, kcfg)
            accuracy = np.mean(predict(model, cols) == y_test)
            assert accuracy >= 0.95, (route, variant, frames, accuracy)
