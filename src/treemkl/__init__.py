"""Hierarchical temporal pooling with learned multi-granularity kernel
weights for sequence classification.

The public names below resolve on first use (PEP 562), so importing the
package, or one of its modules, loads only the modules that are asked
for: ``from treemkl import Hierarchy`` loads no training code.
"""

import importlib

__version__ = "0.1.0"

# owner module of each public name
_OWNERS = {
    "choices": ("AVERAGING", "CONCATENATION"),
    "dataio": (
        "DatasetManifest",
        "StreamFeatureSequence",
        "VideoRecord",
        "load_feature_file",
        "load_manifest",
        "write_feature_file",
        "write_manifest",
    ),
    "hierarchy": (
        "Hierarchy",
        "NodeInterval",
        "PooledTree",
        "build_intervals",
        "load_pooled_file",
        "pool_sequence",
        "write_pooled_file",
    ),
    "dmkl": (
        "ContrastiveConfig",
        "DmklResult",
        "dmkl_fit",
        "dmkl_then_svm",
        "loss_grad",
    ),
    "em": ("EmConfig", "EmResult", "beta_objective_coeffs", "em_fit"),
    "loading": ("PoolConfig", "load_split_trees"),
    "kernels": (
        "GramMatrix",
        "KernelConfig",
        "NodeKernelCache",
        "combined_kernel",
        "fuse_kernels",
        "gram_matrix",
        "kernel_columns",
        "median_gamma",
        "node_weights",
        "node_weights_pullback",
    ),
    "pipeline": (
        "ModelArtifact",
        "PipelineConfig",
        "evaluate_artifact",
        "fuse_evaluate",
        "load_artifact",
        "save_artifact",
        "train_dmkl_route",
        "train_em_route",
    ),
    "simplex": ("SimplexWeights", "backprop_through_simplex", "to_simplex"),
    "svm": (
        "DualSolution",
        "SvmModel",
        "TrainConfig",
        "decision_scores",
        "predict",
        "solve_dual",
        "train_one_vs_rest",
    ),
    "synth": ("SynthSpec", "gen_dataset", "gen_sequences", "misalign"),
}
_OWNER_OF = {name: module for module, names in _OWNERS.items()
             for name in names}
_MODULES = frozenset(("cli", "errors", *_OWNERS))

__all__ = sorted(_OWNER_OF)


def __getattr__(name: str):
    if name in _OWNER_OF:
        value = getattr(importlib.import_module(f".{_OWNER_OF[name]}",
                                                __name__), name)
    elif name in _MODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
