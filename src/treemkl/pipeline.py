"""End-to-end training and evaluation on manifest-described datasets.

Glue between the file formats and the numerical modules: loading and
pooling one stream of a dataset, resolving the kernel bandwidth,
running either training route, packaging/loading model artifacts, and
scoring test splits (single stream or two-stream fusion). The CLI is a
thin argument-parsing layer over these functions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .dataio import DatasetManifest, VideoRecord, load_feature_file
from .dmkl import ContrastiveConfig, dmkl_then_svm
from .em import EmConfig, em_fit
from .errors import (
    ArtifactMismatch,
    ConfigMismatch,
    EmptySplit,
    MissingFeatures,
    ValidationError,
)
from .hierarchy import Hierarchy, PooledTree, pool_sequence
from .kernels import (
    KernelConfig,
    canonical_variant,
    fuse_kernels,
    gram_matrix,
    kernel_columns,
    median_gamma,
)
from .simplex import check_on_simplex
from .svm import (
    SvmModel,
    TrainConfig,
    decision_scores,
    predict,
    train_one_vs_rest,
)

NORMS = ("none", "l2")


@dataclass(frozen=True)
class PipelineConfig:
    depth: int
    variant: str
    stream: str = "appearance"
    kernel_kind: str = "rbf"
    gamma: float | str = "median"
    feature_norm: str = "none"
    node_norm: str = "none"
    seed: int = 0

    def __post_init__(self):
        if not (1 <= self.depth <= 8):
            raise ValidationError(f"depth {self.depth} outside 1..8")
        object.__setattr__(self, "variant", canonical_variant(self.variant))
        if self.feature_norm not in NORMS or self.node_norm not in NORMS:
            raise ValidationError("norms must be 'none' or 'l2'")
        if isinstance(self.gamma, str) and self.gamma != "median":
            raise ValidationError(f"gamma must be a number or 'median'")


def _l2_rows(arr: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(arr, axis=1, keepdims=True)
    return arr / np.where(norms > 0, norms, 1.0)


def _load_one(record: VideoRecord, root: str, cfg: PipelineConfig,
              hierarchy: Hierarchy) -> PooledTree:
    rel = record.path_for(cfg.stream)
    if rel is None:
        raise MissingFeatures(
            f"{record.video_id}: no {cfg.stream} stream in manifest")
    path = rel if os.path.isabs(rel) else os.path.join(root, rel)
    if not os.path.exists(path):
        raise MissingFeatures(f"{record.video_id}: {path} not found")
    seq = load_feature_file(path, video_id=record.video_id, stream=cfg.stream)
    if cfg.feature_norm == "l2":
        seq = type(seq)(video_id=seq.video_id, stream=seq.stream,
                        rows=_l2_rows(seq.rows))
    tree = pool_sequence(seq, hierarchy)
    if cfg.node_norm == "l2":
        tree = PooledTree(video_id=tree.video_id, stream=tree.stream,
                          depth=tree.depth, vectors=_l2_rows(tree.vectors))
    return tree


def load_split_trees(manifest: DatasetManifest, root: str,
                     cfg: PipelineConfig,
                     split: str) -> tuple[list[PooledTree], np.ndarray]:
    """Pooled trees plus labels for one split of one stream, in manifest
    order."""
    records = [r for r in manifest.split(split)
               if r.path_for(cfg.stream) is not None]
    if not records:
        raise EmptySplit(f"no {split} records carry a {cfg.stream} stream")
    hierarchy = Hierarchy(cfg.depth)
    trees = [_load_one(r, root, cfg, hierarchy) for r in records]
    return trees, np.array([r.label for r in records])


def resolve_gamma(trees: list[PooledTree], cfg: PipelineConfig) -> KernelConfig:
    if cfg.kernel_kind == "linear":
        return KernelConfig(kind="linear")
    gamma = median_gamma(trees, seed=cfg.seed) if cfg.gamma == "median" \
        else float(cfg.gamma)
    return KernelConfig(kind="rbf", gamma=gamma)


# --- artifacts ----------------------------------------------------------------

def build_artifact(cfg: PipelineConfig, route: str, kernel_cfg: KernelConfig,
                   svm_cfg: TrainConfig, beta: np.ndarray, model: SvmModel,
                   manifest: DatasetManifest) -> dict:
    """Assemble the JSON-serializable trained-model artifact."""
    hierarchy = Hierarchy(cfg.depth)
    beta = check_on_simplex(beta)
    beta_doc = {f"{l}:{k}": float(b)
                for (l, k), b in zip(hierarchy.nodes, beta)}
    classes = {}
    for ci, c in enumerate(model.class_ids):
        support = np.flatnonzero(model.alpha[ci] > 0)
        classes[str(int(c))] = {
            "b": float(model.b[ci]),
            "support": [{"video_id": model.train_ids[i],
                         "alpha": float(model.alpha[ci, i])}
                        for i in support],
        }
    return {
        "config": {
            "depth": cfg.depth,
            "variant": cfg.variant,
            "stream": cfg.stream,
            "route": route,
            "kernel": {"kind": kernel_cfg.kind,
                       "gamma": kernel_cfg.gamma},
            "feature_norm": cfg.feature_norm,
            "node_norm": cfg.node_norm,
            "seed": cfg.seed,
            "svm": {"c_box": svm_cfg.c_box, "kkt_tol": svm_cfg.kkt_tol,
                    "max_passes": svm_cfg.max_passes},
        },
        "beta": beta_doc,
        "classes": classes,
        "label_names": {str(k): v
                        for k, v in sorted(manifest.label_names.items())},
    }


def artifact_pipeline_config(artifact: dict) -> PipelineConfig:
    c = artifact["config"]
    return PipelineConfig(depth=int(c["depth"]), variant=c["variant"],
                          stream=c["stream"], kernel_kind=c["kernel"]["kind"],
                          gamma=c["kernel"]["gamma"] or "median",
                          feature_norm=c.get("feature_norm", "none"),
                          node_norm=c.get("node_norm", "none"),
                          seed=int(c.get("seed", 0)))


def artifact_beta(artifact: dict) -> np.ndarray:
    hierarchy = Hierarchy(int(artifact["config"]["depth"]))
    doc = artifact["beta"]
    try:
        beta = np.array([doc[f"{l}:{k}"] for l, k in hierarchy.nodes])
    except KeyError as exc:
        raise ArtifactMismatch(f"beta is missing node {exc}") from exc
    return check_on_simplex(beta)


def artifact_kernel_config(artifact: dict) -> KernelConfig:
    k = artifact["config"]["kernel"]
    return KernelConfig(kind=k["kind"], gamma=k["gamma"])


def artifact_svm_config(artifact: dict) -> TrainConfig:
    s = artifact["config"]["svm"]
    return TrainConfig(c_box=float(s["c_box"]), kkt_tol=float(s["kkt_tol"]),
                       max_passes=int(s["max_passes"]))


# --- training routes ------------------------------------------------------------

@dataclass(frozen=True)
class TrainOutput:
    artifact: dict
    trace: np.ndarray
    trace_kind: str
    beta: np.ndarray = field(repr=False, default=None)
    beta_trace: np.ndarray = field(repr=False, default=None)


def train_em_route(manifest: DatasetManifest, root: str, cfg: PipelineConfig,
                   em_cfg: EmConfig, svm_cfg: TrainConfig) -> TrainOutput:
    trees, labels = load_split_trees(manifest, root, cfg, "train")
    kernel_cfg = resolve_gamma(trees, cfg)
    result = em_fit(trees, labels, cfg.variant, kernel_cfg, em_cfg, svm_cfg)
    artifact = build_artifact(cfg, "em", kernel_cfg, svm_cfg, result.beta,
                              result.model, manifest)
    return TrainOutput(artifact=artifact, trace=result.objective_trace,
                       trace_kind="objective", beta=result.beta,
                       beta_trace=result.beta_trace)


def train_dmkl_route(manifest: DatasetManifest, root: str,
                     cfg: PipelineConfig, contrastive_cfg: ContrastiveConfig,
                     svm_cfg: TrainConfig) -> TrainOutput:
    trees, labels = load_split_trees(manifest, root, cfg, "train")
    kernel_cfg = resolve_gamma(trees, cfg)
    result = dmkl_then_svm(trees, labels, cfg.variant, contrastive_cfg,
                           kernel_cfg, svm_cfg)
    artifact = build_artifact(cfg, "dmkl", kernel_cfg, svm_cfg,
                              result.weights.beta, result.model, manifest)
    return TrainOutput(artifact=artifact, trace=result.loss_trace,
                       trace_kind="loss", beta=result.weights.beta)


# --- evaluation -------------------------------------------------------------------

def _support_ids(artifact: dict) -> list[str]:
    ids: list[str] = []
    seen = set()
    for c in sorted(artifact["classes"], key=int):
        for entry in artifact["classes"][c]["support"]:
            vid = entry["video_id"]
            if vid not in seen:
                seen.add(vid)
                ids.append(vid)
    return ids


def _artifact_scores(artifact: dict, test_trees: list[PooledTree],
                     manifest: DatasetManifest,
                     root: str) -> tuple[np.ndarray, np.ndarray]:
    """Decision scores (tests x classes) plus the sorted class ids."""
    cfg = artifact_pipeline_config(artifact)
    kernel_cfg = artifact_kernel_config(artifact)
    beta = artifact_beta(artifact)
    by_id = manifest.by_id()
    support_ids = _support_ids(artifact)
    missing = [v for v in support_ids if v not in by_id]
    if missing:
        raise ArtifactMismatch(
            f"support videos absent from manifest: {missing[:5]}")
    hierarchy = Hierarchy(cfg.depth)
    support_trees = [_load_one(by_id[v], root, cfg, hierarchy)
                     for v in support_ids]
    pos = {v: i for i, v in enumerate(support_ids)}
    class_ids = np.array(sorted(int(c) for c in artifact["classes"]))
    # each class's alpha is zero on the support videos of other classes
    alpha = np.zeros((class_ids.size, len(support_ids)))
    for ci, c in enumerate(class_ids):
        for e in artifact["classes"][str(c)]["support"]:
            alpha[ci, pos[e["video_id"]]] = e["alpha"]
    model = SvmModel(
        train_ids=support_ids,
        labels=np.array([by_id[v].label for v in support_ids]),
        class_ids=class_ids, alpha=alpha,
        b=np.array([artifact["classes"][str(c)]["b"] for c in class_ids]))
    cols = kernel_columns(test_trees, support_trees, beta, cfg.variant,
                          kernel_cfg)
    return decision_scores(model, cols), class_ids


def _metrics(preds: np.ndarray, truth: np.ndarray,
             label_names: dict[int, str]) -> dict:
    overall = float(np.mean(preds == truth))
    per_class = {}
    confusion: dict[str, dict[str, int]] = {}
    for c in sorted(label_names):
        mask = truth == c
        if mask.any():
            per_class[str(c)] = float(np.mean(preds[mask] == c))
            row: dict[str, int] = {}
            for p in np.unique(preds[mask]):
                row[str(int(p))] = int(np.sum(preds[mask] == p))
            confusion[str(c)] = row
    return {"overall_accuracy": overall, "per_class": per_class,
            "confusion": confusion, "n_test": int(truth.size)}


def evaluate_artifact(artifact: dict, manifest: DatasetManifest,
                      root: str) -> dict:
    """Top-1 metrics of a trained artifact on the manifest's test split."""
    cfg = artifact_pipeline_config(artifact)
    test_trees, truth = load_split_trees(manifest, root, cfg, "test")
    scores, class_ids = _artifact_scores(artifact, test_trees, manifest, root)
    preds = class_ids[np.argmax(scores, axis=1)]
    metrics = _metrics(preds, truth, manifest.label_names)
    metrics["config"] = artifact["config"]
    return metrics


def _check_fusable(art_a: dict, art_m: dict) -> None:
    ca, cm = art_a["config"], art_m["config"]
    for key in ("depth", "variant"):
        if ca[key] != cm[key]:
            raise ConfigMismatch(
                f"artifacts disagree on {key}: {ca[key]} vs {cm[key]}")
    if sorted(art_a["classes"]) != sorted(art_m["classes"]):
        raise ConfigMismatch("artifacts cover different class sets")


def fuse_evaluate(art_a: dict, art_m: dict, manifest: DatasetManifest,
                  root: str, mode: str = "kernel-avg",
                  weight: float = 0.5) -> dict:
    """Two-stream fusion on the test split.

    ``score-avg`` mixes the two artifacts' per-class decision scores.
    ``kernel-avg`` convexly combines the two streams' Gram matrices
    (training and test columns alike) with each stream's own weights
    and bandwidth, then retrains the one-vs-rest duals on the fused
    kernel using the first artifact's solver settings.
    """
    if not (0.0 <= weight <= 1.0):
        raise ValidationError(f"fusion weight {weight} outside [0, 1]")
    _check_fusable(art_a, art_m)
    if mode == "score-avg":
        cfg_a = artifact_pipeline_config(art_a)
        test_a, truth = load_split_trees(manifest, root, cfg_a, "test")
        scores_a, class_ids = _artifact_scores(art_a, test_a, manifest, root)
        cfg_m = artifact_pipeline_config(art_m)
        test_m, truth_m = load_split_trees(manifest, root, cfg_m, "test")
        if [t.video_id for t in test_a] != [t.video_id for t in test_m]:
            raise ConfigMismatch("test splits differ between streams")
        scores_m, _ = _artifact_scores(art_m, test_m, manifest, root)
        fused = weight * scores_a + (1.0 - weight) * scores_m
        preds = class_ids[np.argmax(fused, axis=1)]
    elif mode == "kernel-avg":
        preds, truth = _kernel_avg_predict(art_a, art_m, manifest, root,
                                           weight)
    else:
        raise ValidationError(f"unknown fusion mode {mode!r}")
    metrics = _metrics(preds, truth, manifest.label_names)
    metrics["config"] = {"fusion": mode, "weight": weight,
                         "stream_a": art_a["config"],
                         "stream_m": art_m["config"]}
    return metrics


def _kernel_avg_predict(art_a: dict, art_m: dict, manifest: DatasetManifest,
                        root: str, weight: float):
    cfg_a = artifact_pipeline_config(art_a)
    cfg_m = artifact_pipeline_config(art_m)
    parts = []
    for art, cfg in ((art_a, cfg_a), (art_m, cfg_m)):
        train_trees, train_labels = load_split_trees(manifest, root, cfg,
                                                     "train")
        test_trees, truth = load_split_trees(manifest, root, cfg, "test")
        beta = artifact_beta(art)
        kernel_cfg = artifact_kernel_config(art)
        gram = gram_matrix(train_trees, beta, cfg.variant, kernel_cfg)
        cols = kernel_columns(test_trees, train_trees, beta, cfg.variant,
                              kernel_cfg)
        parts.append((gram, cols, train_labels, truth,
                      [t.video_id for t in train_trees],
                      [t.video_id for t in test_trees]))
    (gram_a, cols_a, labels_a, truth_a, train_ids_a, test_ids_a) = parts[0]
    (gram_m, cols_m, labels_m, truth_m, train_ids_m, test_ids_m) = parts[1]
    if train_ids_a != train_ids_m or test_ids_a != test_ids_m:
        raise ConfigMismatch("splits differ between streams")
    fused_gram = fuse_kernels(gram_a, gram_m, weight)
    fused_cols = weight * cols_a + (1.0 - weight) * cols_m
    model = train_one_vs_rest(fused_gram, labels_a, artifact_svm_config(art_a))
    return predict(model, fused_cols), truth_a
