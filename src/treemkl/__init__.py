"""Hierarchical temporal pooling with learned multi-granularity kernel
weights for sequence classification."""

from .dataio import (
    DatasetManifest,
    StreamFeatureSequence,
    VideoRecord,
    load_feature_file,
    load_manifest,
    write_feature_file,
    write_manifest,
)
from .hierarchy import (
    Hierarchy,
    NodeInterval,
    PooledTree,
    build_intervals,
    load_pooled_file,
    pool_sequence,
    write_pooled_file,
)
from .dmkl import (
    ContrastiveConfig,
    DmklResult,
    contrastive_loss,
    dmkl_fit,
    dmkl_then_svm,
    loss_grad,
)
from .em import (
    EmConfig,
    EmResult,
    beta_objective_coeffs,
    em_fit,
)
from .kernels import (
    AVERAGING,
    CONCATENATION,
    GramMatrix,
    KernelConfig,
    NodeKernelCache,
    combined_kernel,
    fuse_kernels,
    gram_matrix,
    kernel_columns,
    median_gamma,
    node_weights,
    node_weights_pullback,
)
from .pipeline import (
    ModelArtifact,
    PipelineConfig,
    evaluate_artifact,
    fuse_evaluate,
    load_artifact,
    load_split_trees,
    save_artifact,
    train_dmkl_route,
    train_em_route,
)
from .simplex import (
    SimplexWeights,
    backprop_through_simplex,
    to_simplex,
)
from .svm import (
    DualSolution,
    SvmModel,
    TrainConfig,
    decision_scores,
    predict,
    solve_dual,
    train_one_vs_rest,
)
from .synth import SynthSpec, gen_dataset, gen_sequences, misalign

__version__ = "0.1.0"
