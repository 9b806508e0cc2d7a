"""Learning the node weights from video pairs instead of dual solves.

Every pair of training videos carries a binary supervision signal (same
class or not), giving n(n-1)/2 examples from n labels. The weights
descend a contrastive loss over every pair by pairwise Frank-Wolfe
steps, each moving weight between two nodes by the exact minimizer
along that segment, until the Frank-Wolfe gap says no step can help;
the SVMs are trained once afterwards on the frozen kernel.
"""

import numpy as np

from treemkl import (
    CONCATENATION,
    ContrastiveConfig,
    Hierarchy,
    KernelConfig,
    dmkl_fit,
    gen_sequences,
    kernel_columns,
    median_gamma,
    pool_sequence,
    predict,
)
from treemkl.synth import SynthSpec

SIGNAL_LEVEL = 2
spec = SynthSpec(num_classes=4, per_class=30, frames=32, dim=16,
                 signal_level=SIGNAL_LEVEL, seed=1)
data = gen_sequences(spec)
h = Hierarchy(SIGNAL_LEVEL + 1)
trees = [pool_sequence(s, h) for s in data.sequences["appearance"]]
tr, te = data.split_indices("train"), data.split_indices("test")
train, test = [trees[i] for i in tr], [trees[i] for i in te]

n = len(train)
print(f"{n} training labels supply {n * (n - 1) // 2} supervised pairs")

kcfg = KernelConfig("rbf", median_gamma(train))
cfg = ContrastiveConfig(positive_fraction=0.5, seed=1)
result = dmkl_fit(train, data.labels[tr], CONCATENATION, cfg, kcfg)

print("\nstep |      loss | weight mass per level")
for it, (loss, beta) in enumerate(zip(result.loss_trace, result.beta_trace)):
    masses = " ".join(f"{beta[h.level_slice(l)].sum():.2f}"
                      for l in range(1, h.depth + 1))
    print(f"{it:4d} | {loss:9.4f} | {masses}")

print(f"\nloss: {result.loss_trace[0]:.4f} -> {result.loss_trace[-1]:.4f} "
      f"in {result.loss_trace.size - 1} steps")
print(f"stopped on {result.stop_reason}: Frank-Wolfe gap {result.fw_gap:.1e}, "
      "which bounds the loss's distance above its minimum")
beta = result.weights.beta
print("final weights:",
      {f"{l}:{k}": round(float(b), 3)
       for (l, k), b in zip(h.nodes, beta) if b > 0.02})

cols = kernel_columns(test, train, beta, CONCATENATION, kcfg)
acc = float(np.mean(predict(result.model, cols) == data.labels[te]))
print(f"test accuracy after the single SVM step: {acc:.3f}")
