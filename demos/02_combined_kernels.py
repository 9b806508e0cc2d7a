"""The two combined tree kernels and their properties.

With node weights on the simplex and an RBF elementary kernel,
both variants produce values in [0, 1] and positive semi-definite Gram
matrices:

* concatenation sums elementary kernels over aligned node pairs only;
* averaging sums over all cross pairs, weighted by both nodes' weights.
"""

import numpy as np

from treemkl import (
    AVERAGING,
    CONCATENATION,
    Hierarchy,
    KernelConfig,
    NodeKernelCache,
    StreamFeatureSequence,
    combined_kernel,
    gram_matrix,
    median_gamma,
    node_weights_pullback,
    pool_sequence,
)
from treemkl.simplex import to_simplex

rng = np.random.default_rng(1)
h = Hierarchy(3)
trees = [pool_sequence(StreamFeatureSequence(
    video_id=f"v{i}", stream="appearance",
    rows=rng.standard_normal((20, 6))), h) for i in range(12)]

gamma = median_gamma(trees)
print(f"median-heuristic bandwidth: gamma = {gamma:.4f}")
cfg = KernelConfig("rbf", gamma)
beta = to_simplex(rng.standard_normal(h.node_count))

print("\n=== pairwise values stay in [0, 1] ===")
for variant in (CONCATENATION, AVERAGING):
    k01 = combined_kernel(trees[0], trees[1], beta, variant, cfg)
    k00 = combined_kernel(trees[0], trees[0], beta, variant, cfg)
    print(f"{variant:13s}: K(v0, v1) = {k01:.4f}   K(v0, v0) = {k00:.4f}")

print("\n=== PSD closure ===")
for variant in (CONCATENATION, AVERAGING):
    gram = gram_matrix(trees, beta, variant, cfg)
    print(f"{variant:13s}: min eigenvalue of 12x12 Gram = "
          f"{gram.min_eigenvalue():+.2e}")

print("\n=== one-hot weights collapse both variants to one node ===")
one_hot = np.zeros(h.node_count)
one_hot[3] = 1.0
print("concatenation:",
      combined_kernel(trees[0], trees[1], one_hot, CONCATENATION, cfg))
print("averaging:    ",
      combined_kernel(trees[0], trees[1], one_hot, AVERAGING, cfg))

print("\n=== analytic weight gradient vs finite differences ===")
cache = NodeKernelCache(trees, cfg)
for variant in (CONCATENATION, AVERAGING):
    # K(v0, v1) = pair_blocks @ node_weights(beta): pull its node kernels
    # back through the weight map
    grad = node_weights_pullback(cache.pair_blocks([0], [1], variant)[0],
                                 beta, variant)
    step = 1e-6
    fd = np.zeros_like(beta)
    for m in range(beta.size):
        hi, lo = beta.copy(), beta.copy()
        hi[m] += step
        lo[m] -= step
        fd[m] = (combined_kernel(trees[0], trees[1], hi, variant, cfg)
                 - combined_kernel(trees[0], trees[1], lo, variant, cfg)) / (2 * step)
    err = np.abs(grad - fd).max()
    print(f"{variant:13s}: max |analytic - finite difference| = {err:.2e}")
