"""Learning the node weights from video pairs instead of dual solves.

Every pair of training videos carries a binary supervision signal (same
class or not), giving n(n-1)/2 examples from n labels. The weights
descend a contrastive loss over every pair through the simplex
reparametrization; the SVMs are trained once afterwards on the frozen
kernel.
"""

import numpy as np

from treemkl import (
    CONCATENATION,
    ContrastiveConfig,
    Hierarchy,
    KernelConfig,
    dmkl_then_svm,
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
cfg = ContrastiveConfig(iterations=1500, positive_fraction=0.5, seed=1)
result = dmkl_then_svm(train, data.labels[tr], CONCATENATION, cfg, kcfg)

print("\niter |      loss | weight mass per level")
for it in range(0, cfg.iterations + 1, 250):
    beta = result.beta_trace[it]
    masses = " ".join(f"{beta[h.level_slice(l)].sum():.2f}"
                      for l in range(1, h.depth + 1))
    print(f"{it:4d} | {result.loss_trace[it]:9.4f} | {masses}")

print(f"\nloss: {result.loss_trace[0]:.4f} -> {result.loss_trace[-1]:.4f}")
beta = result.weights.beta
print("final weights:",
      {f"{l}:{k}": round(float(b), 3)
       for (l, k), b in zip(h.nodes, beta) if b > 0.02})

cols = kernel_columns(test, train, beta, CONCATENATION, kcfg)
acc = float(np.mean(predict(result.model, cols) == data.labels[te]))
print(f"test accuracy after the single SVM step: {acc:.3f}")
