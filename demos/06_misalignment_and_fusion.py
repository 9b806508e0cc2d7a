"""Misalignment robustness of the two variants, and two-stream fusion.

Part 1: test sequences are circularly shifted by one leaf interval.
Aligned (concatenation) matching compares each node against the wrong
content and collapses; cross-pair (averaging) matching can still find
the displaced content in neighboring nodes.

Part 2: a two-stream dataset hides complementary signals in the
appearance and motion streams; convexly combining the two streams'
kernels recovers both.
"""

import numpy as np

from treemkl import (
    AVERAGING,
    CONCATENATION,
    ContrastiveConfig,
    Hierarchy,
    KernelConfig,
    dmkl_fit,
    fuse_kernels,
    gen_sequences,
    gram_matrix,
    kernel_columns,
    median_gamma,
    misalign,
    pool_sequence,
    predict,
    train_one_vs_rest,
)
from treemkl.synth import SynthSpec

print("=== part 1: circular shifts of one leaf interval (depth 4) ===")
spec = SynthSpec(num_classes=4, per_class=25, frames=32, dim=16,
                 signal_level=4, seed=0)
data = gen_sequences(spec)
h = Hierarchy(4)
seqs = data.sequences["appearance"]
trees = [pool_sequence(s, h) for s in seqs]
tr, te = data.split_indices("train"), data.split_indices("test")
train = [trees[i] for i in tr]
shift = spec.frames // 8
kcfg = KernelConfig("rbf", median_gamma(train))

for variant in (CONCATENATION, AVERAGING):
    res = dmkl_fit(train, data.labels[tr], variant,
                   ContrastiveConfig(iterations=1500, positive_fraction=0.5,
                                     seed=0),
                   kcfg)

    def accuracy(test_trees):
        cols = kernel_columns(test_trees, train, res.weights.beta,
                              variant, kcfg)
        return float(np.mean(predict(res.model, cols) == data.labels[te]))

    clean = accuracy([trees[i] for i in te])
    moved = accuracy([pool_sequence(misalign(seqs[i], shift), h) for i in te])
    print(f"{variant:13s}: clean {clean:.3f} -> shifted {moved:.3f} "
          f"(drop {clean - moved:+.3f})")

print("\n=== part 2: two-stream kernel fusion ===")
spec2 = SynthSpec(num_classes=4, per_class=25, frames=32, dim=16,
                  signal_level=2, streams=2, seed=3)
data2 = gen_sequences(spec2)
h2 = Hierarchy(4)
tr2, te2 = data2.split_indices("train"), data2.split_indices("test")
accs = {}
parts = {}
for stream in ("appearance", "motion"):
    strees = [pool_sequence(s, h2) for s in data2.sequences[stream]]
    train_s = [strees[i] for i in tr2]
    test_s = [strees[i] for i in te2]
    kc = KernelConfig("rbf", median_gamma(train_s))
    res = dmkl_fit(train_s, data2.labels[tr2], AVERAGING,
                   ContrastiveConfig(iterations=1500, positive_fraction=0.5,
                                     seed=3), kc)
    gram = gram_matrix(train_s, res.weights.beta, AVERAGING, kc)
    cols = kernel_columns(test_s, train_s, res.weights.beta, AVERAGING, kc)
    parts[stream] = (gram, cols)
    accs[stream] = float(np.mean(predict(res.model, cols)
                                 == data2.labels[te2]))
    print(f"{stream:10s}: accuracy {accs[stream]:.3f}")

fused_gram = fuse_kernels(parts["appearance"][0], parts["motion"][0], 0.5)
fused_cols = 0.5 * parts["appearance"][1] + 0.5 * parts["motion"][1]
fused_model = train_one_vs_rest(fused_gram, data2.labels[tr2])
fused_acc = float(np.mean(predict(fused_model, fused_cols)
                          == data2.labels[te2]))
print(f"fused     : accuracy {fused_acc:.3f} "
      f"(best single stream {max(accs.values()):.3f})")
