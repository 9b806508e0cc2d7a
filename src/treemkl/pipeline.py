"""End-to-end training and evaluation on manifest-described datasets.

Glue between the file formats and the numerical modules: loading and
pooling one stream of a dataset, resolving the kernel bandwidth,
running either training route, writing and reading the model artifact
(the one owner of its format), and scoring test splits (single stream
or two-stream fusion). The CLI is a thin argument-parsing layer over
these functions.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .dataio import (STREAMS, DatasetManifest, VideoRecord, _class_id,
                     load_feature_file)
from .dmkl import ContrastiveConfig, dmkl_fit
from .em import EmConfig, em_fit
from .errors import (
    ArtifactMismatch,
    ConfigMismatch,
    EmptySplit,
    MissingFeatures,
    MissingPath,
    ValidationError,
)
from .hierarchy import Hierarchy, PooledTree, pool_sequence
from .kernels import (
    AVERAGING,
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
ARTIFACT_FORMAT = "treemkl-model-v1"


@dataclass(frozen=True)
class PipelineConfig:
    depth: int
    variant: str = AVERAGING
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
        if self.stream not in STREAMS:
            raise ValidationError(f"unknown stream {self.stream!r}")
        if self.feature_norm not in NORMS or self.node_norm not in NORMS:
            raise ValidationError("norms must be 'none' or 'l2'")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if isinstance(self.gamma, str) and self.gamma != "median":
            raise ValidationError("gamma must be a number or 'median'")
        # the kernel's own rules; 1.0 stands in for the median bandwidth
        KernelConfig(self.kernel_kind,
                     1.0 if self.gamma == "median" else self.gamma)


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
            # null is the hard margin: JSON has no infinity
            "svm": {"c_box": svm_cfg.c_box if math.isfinite(svm_cfg.c_box)
                    else None,
                    "kkt_tol": svm_cfg.kkt_tol,
                    "max_passes": svm_cfg.max_passes},
        },
        "beta": beta_doc,
        "classes": classes,
        "label_names": {str(k): v
                        for k, v in sorted(manifest.label_names.items())},
        "format": ARTIFACT_FORMAT,
    }


def save_artifact(artifact: dict, path: str | os.PathLike) -> None:
    """Write a :func:`build_artifact` document as one strict JSON file
    (a non-finite number raises ``ValueError``)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(artifact, indent=2, sort_keys=True,
                            allow_nan=False) + "\n")


@dataclass(frozen=True)
class ModelArtifact:
    """An artifact as :func:`load_artifact` checked it: ``config`` as
    written, ``b`` and ``alpha`` rows by sorted class id, ``alpha`` columns
    by support video, in order of first appearance over the classes."""

    config: dict
    pipeline: PipelineConfig
    kernel: KernelConfig
    svm: TrainConfig
    beta: np.ndarray
    class_ids: np.ndarray
    b: np.ndarray
    support_ids: list[str]
    alpha: np.ndarray


# what an artifact entry of each kind must hold; JSON yields exact types
_KINDS = {
    "an object": lambda v: isinstance(v, dict),
    "a list": lambda v: isinstance(v, list),
    "a string": lambda v: isinstance(v, str),
    "an integer": lambda v: type(v) is int,
    "a number or null":
        lambda v: v is None or type(v) in (int, float) and not math.isnan(v),
    "a finite number": lambda v: type(v) in (int, float) and math.isfinite(v),
    "a finite number or null":
        lambda v: v is None or _KINDS["a finite number"](v),
    "a finite number >= 0": lambda v: _KINDS["a finite number"](v) and v >= 0,
}


def _checked(value, name: str, kind: str, path):
    if not _KINDS[kind](value):
        raise ArtifactMismatch(f"{path}: {name!r} is not {kind}")
    return value


def _made(make, name: str, path, *args, **kwargs):
    """``make(*args, **kwargs)``, a validation error naming entry ``name``."""
    try:
        return make(*args, **kwargs)
    except ValidationError as exc:
        raise ArtifactMismatch(f"{path}: {name!r}: {exc}") from exc


def load_artifact(path: str | os.PathLike) -> ModelArtifact:
    """Parse a :func:`save_artifact` file, checking once each entry that
    evaluation reads; a missing or malformed one raises
    :class:`ArtifactMismatch` naming its dotted key. A null
    ``config.svm.c_box`` is the hard margin, ``inf``."""
    if not os.path.isfile(path):
        raise MissingPath(f"{path}: no such model artifact")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ArtifactMismatch(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ArtifactMismatch(f"{path}: not a JSON object")
    if doc.get("format") != ARTIFACT_FORMAT:
        raise ArtifactMismatch(
            f"{path}: format {doc.get('format')!r}, expected {ARTIFACT_FORMAT!r}")

    def get(keys: str, kind: str):
        node = doc
        for key in keys.split("."):
            if not isinstance(node, dict) or key not in node:
                raise ArtifactMismatch(f"{path}: missing {keys!r}")
            node = node[key]
        return _checked(node, keys, kind, path)

    config = get("config", "an object")
    gamma = get("config.kernel.gamma", "a finite number or null")
    kernel = _made(KernelConfig, "config.kernel", path,
                   kind=get("config.kernel.kind", "a string"), gamma=gamma)
    cfg = _made(PipelineConfig, "config", path,
                depth=get("config.depth", "an integer"),
                variant=get("config.variant", "a string"),
                stream=get("config.stream", "a string"),
                kernel_kind=kernel.kind, gamma=gamma or "median",
                feature_norm=config.get("feature_norm", "none"),
                node_norm=config.get("node_norm", "none"))
    c_box = get("config.svm.c_box", "a number or null")
    svm = _made(TrainConfig, "config.svm", path,
                c_box=math.inf if c_box is None else float(c_box),
                kkt_tol=float(get("config.svm.kkt_tol", "a finite number")),
                max_passes=get("config.svm.max_passes", "an integer"))
    nodes = [f"{l}:{k}" for l, k in Hierarchy(cfg.depth).nodes]
    beta = get("beta", "an object")
    if sorted(beta) != sorted(nodes):
        raise ArtifactMismatch(f"{path}: 'beta' keys do not match 'config.depth'")
    beta = check_on_simplex(np.array(
        [_checked(beta[n], f"beta.{n}", "a finite number", path)
         for n in nodes]))
    keyed = sorted((_made(_class_id, "classes", path, key, "class key"), key)
                   for key in get("classes", "an object"))
    b, entries, columns = [], [], {}
    for ci, (_, key) in enumerate(keyed):
        b.append(get(f"classes.{key}.b", "a finite number"))
        support = get(f"classes.{key}.support", "a list")
        if not all(isinstance(sv, dict) and "video_id" in sv and "alpha" in sv
                   for sv in support):
            raise ArtifactMismatch(f"{path}: classes.{key}.support must list "
                                   f"objects with 'video_id' and 'alpha'")
        for i, sv in enumerate(support):
            at = f"classes.{key}.support.{i}."
            vid = _checked(sv["video_id"], at + "video_id", "a string", path)
            entries.append((ci, columns.setdefault(vid, len(columns)),
                            _checked(sv["alpha"], at + "alpha",
                                     "a finite number >= 0", path)))
    alpha = np.zeros((len(keyed), len(columns)))
    for ci, j, a in entries:
        alpha[ci, j] = a
    return ModelArtifact(config, cfg, kernel, svm, beta,
                         np.array([c for c, _ in keyed]),
                         np.array(b, dtype=np.float64), list(columns), alpha)


# --- training routes ------------------------------------------------------------

@dataclass(frozen=True)
class TrainOutput:
    """Model artifact, trace.csv header and rows, training.json summary."""

    artifact: dict
    trace_header: list[str]
    trace_rows: list[list]
    summary: dict


def _entropy(beta: np.ndarray) -> float:
    positive = beta[beta > 0]
    return float(-(positive * np.log(positive)).sum())


def train_em_route(manifest: DatasetManifest, root: str, cfg: PipelineConfig,
                   em_cfg: EmConfig, svm_cfg: TrainConfig) -> TrainOutput:
    trees, labels = load_split_trees(manifest, root, cfg, "train")
    kernel_cfg = resolve_gamma(trees, cfg)
    result = em_fit(trees, labels, cfg.variant, kernel_cfg, em_cfg, svm_cfg)
    artifact = build_artifact(cfg, "em", kernel_cfg, svm_cfg, result.beta,
                              result.model, manifest)
    rows = [[i, float(v), _entropy(b)] for i, (v, b) in
            enumerate(zip(result.objective_trace, result.beta_trace))]
    return TrainOutput(artifact, ["iteration", "objective", "beta_entropy"],
                       rows, {"iterations": result.iterations,
                              "beta_entropy": _entropy(result.beta)})


def train_dmkl_route(manifest: DatasetManifest, root: str,
                     cfg: PipelineConfig, contrastive_cfg: ContrastiveConfig,
                     svm_cfg: TrainConfig) -> TrainOutput:
    trees, labels = load_split_trees(manifest, root, cfg, "train")
    kernel_cfg = resolve_gamma(trees, cfg)
    result = dmkl_fit(trees, labels, cfg.variant, contrastive_cfg,
                      kernel_cfg, svm_cfg)
    artifact = build_artifact(cfg, "dmkl", kernel_cfg, svm_cfg,
                              result.weights.beta, result.model, manifest)
    rows = [[i, float(v)] for i, v in enumerate(result.loss_trace)]
    return TrainOutput(artifact, ["iteration", "loss"], rows,
                       {"iterations": len(rows) - 1, "final_loss": rows[-1][1]})


# --- evaluation -------------------------------------------------------------------

def _artifact_scores(artifact: ModelArtifact, test_trees: list[PooledTree],
                     manifest: DatasetManifest, root: str) -> np.ndarray:
    """Decision scores, tests x classes in ``artifact.class_ids`` order."""
    by_id = manifest.by_id()
    missing = [v for v in artifact.support_ids if v not in by_id]
    if missing:
        raise ArtifactMismatch(
            f"support videos absent from manifest: {missing[:5]}")
    cfg = artifact.pipeline
    hierarchy = Hierarchy(cfg.depth)
    support_trees = [_load_one(by_id[v], root, cfg, hierarchy)
                     for v in artifact.support_ids]
    model = SvmModel(
        train_ids=artifact.support_ids,
        labels=np.array([by_id[v].label for v in artifact.support_ids]),
        class_ids=artifact.class_ids, alpha=artifact.alpha, b=artifact.b)
    cols = kernel_columns(test_trees, support_trees, artifact.beta,
                          cfg.variant, artifact.kernel)
    return decision_scores(model, cols)


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


def evaluate_artifact(artifact: ModelArtifact, manifest: DatasetManifest,
                      root: str) -> dict:
    """Top-1 metrics of a trained artifact on the manifest's test split."""
    test_trees, truth = load_split_trees(manifest, root, artifact.pipeline,
                                         "test")
    scores = _artifact_scores(artifact, test_trees, manifest, root)
    preds = artifact.class_ids[np.argmax(scores, axis=1)]
    metrics = _metrics(preds, truth, manifest.label_names)
    metrics["config"] = artifact.config
    return metrics


def beta_level_rows(artifact: ModelArtifact) -> tuple[list[str], list[list]]:
    """beta_levels.csv header and its one row: the weight mass on each
    level of the artifact's hierarchy."""
    h = Hierarchy(artifact.pipeline.depth)
    header = [f"level_{l}" for l in range(1, h.depth + 1)]
    masses = [float(artifact.beta[h.level_slice(l)].sum())
              for l in range(1, h.depth + 1)]
    return header, [masses]


def _check_fusable(art_a: ModelArtifact, art_m: ModelArtifact) -> None:
    for key in ("depth", "variant"):
        va, vm = getattr(art_a.pipeline, key), getattr(art_m.pipeline, key)
        if va != vm:
            raise ConfigMismatch(f"artifacts disagree on {key}: {va} vs {vm}")
    if not np.array_equal(art_a.class_ids, art_m.class_ids):
        raise ConfigMismatch("artifacts cover different class sets")


def fuse_evaluate(art_a: ModelArtifact, art_m: ModelArtifact,
                  manifest: DatasetManifest, root: str,
                  mode: str = "kernel-avg", weight: float = 0.5) -> dict:
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
        (test_a, truth), (test_m, _) = (
            load_split_trees(manifest, root, art.pipeline, "test")
            for art in (art_a, art_m))
        if [t.video_id for t in test_a] != [t.video_id for t in test_m]:
            raise ConfigMismatch("test splits differ between streams")
        fused = (weight * _artifact_scores(art_a, test_a, manifest, root) +
                 (1.0 - weight) * _artifact_scores(art_m, test_m, manifest,
                                                   root))
        preds = art_a.class_ids[np.argmax(fused, axis=1)]
    elif mode == "kernel-avg":
        preds, truth = _kernel_avg_predict(art_a, art_m, manifest, root,
                                           weight)
    else:
        raise ValidationError(f"unknown fusion mode {mode!r}")
    metrics = _metrics(preds, truth, manifest.label_names)
    metrics["config"] = {"fusion": mode, "weight": weight,
                         "stream_a": art_a.config,
                         "stream_m": art_m.config}
    return metrics


def _kernel_avg_predict(art_a: ModelArtifact, art_m: ModelArtifact,
                        manifest: DatasetManifest, root: str, weight: float):
    parts = []
    for art in (art_a, art_m):
        cfg = art.pipeline
        train_trees, labels = load_split_trees(manifest, root, cfg, "train")
        test_trees, truth = load_split_trees(manifest, root, cfg, "test")
        parts.append((
            gram_matrix(train_trees, art.beta, cfg.variant, art.kernel),
            kernel_columns(test_trees, train_trees, art.beta, cfg.variant,
                           art.kernel),
            ([t.video_id for t in train_trees],
             [t.video_id for t in test_trees])))
    (gram_a, cols_a, ids_a), (gram_m, cols_m, ids_m) = parts
    if ids_a != ids_m:
        raise ConfigMismatch("splits differ between streams")
    # same videos from one manifest, so both streams share labels and truth
    model = train_one_vs_rest(fuse_kernels(gram_a, gram_m, weight), labels,
                              art_a.svm)
    return predict(model, weight * cols_a + (1.0 - weight) * cols_m), truth
