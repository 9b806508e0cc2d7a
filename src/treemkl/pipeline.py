"""End-to-end training and evaluation on manifest-described datasets.

Glue between the file formats and the numerical modules: resolving
the kernel bandwidth, running either training route, writing and
reading the model artifact (the one owner of its format), and scoring
test splits (single stream or two-stream fusion), on trees that
:mod:`treemkl.loading` loads and pools. A loaded artifact carries its
:class:`~treemkl.svm.SvmModel` and its support videos' pooled trees,
so scoring pools only test videos. The CLI is a thin argument-parsing
layer over these functions. Each training route imports its optimiser
(``em`` or ``dmkl``) when it runs, so scoring never loads them.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .choices import AVERAGING, CONCATENATION, FUSION_MODES
from .dataio import DatasetManifest, _class_id
from .errors import (
    ArtifactMismatch,
    ConfigMismatch,
    MissingPath,
    ValidationError,
)
from .hierarchy import Hierarchy, PooledTree
from .kernels import (
    KernelConfig,
    canonical_variant,
    fuse_kernels,
    gram_matrix,
    kernel_columns,
    median_gamma,
    stack_trees,
)
from .loading import PoolConfig, load_split_trees
from .simplex import check_on_simplex
from .svm import (
    SvmModel,
    TrainConfig,
    decision_scores,
    predict,
    train_one_vs_rest,
)

if TYPE_CHECKING:
    from .dmkl import ContrastiveConfig
    from .em import EmConfig

ARTIFACT_FORMAT = "treemkl-model-v2"
SUPPORT_FILE = "support.npy"


@dataclass(frozen=True)
class PipelineConfig(PoolConfig):
    """A training run's configuration: how its stream is pooled
    (:class:`PoolConfig`), then the combine variant, the kernel and its
    bandwidth (a number, or ``"median"`` for :func:`median_gamma`, which
    takes no random sample). The seed of a random ``--beta-init`` start
    belongs to the route's config (``EmConfig``, ``ContrastiveConfig``)."""

    variant: str = AVERAGING
    kernel_kind: str = "rbf"
    gamma: float | str = "median"

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "variant", canonical_variant(self.variant))
        if isinstance(self.gamma, str) and self.gamma != "median":
            raise ValidationError("gamma must be a number or 'median'")
        # the kernel's own rules; 1.0 stands in for the median bandwidth
        KernelConfig(self.kernel_kind,
                     1.0 if self.gamma == "median" else self.gamma)


def resolve_gamma(trees: list[PooledTree], cfg: PipelineConfig) -> KernelConfig:
    if cfg.kernel_kind == "linear":
        return KernelConfig(kind="linear")
    gamma = median_gamma(trees) if cfg.gamma == "median" else float(cfg.gamma)
    return KernelConfig(kind="rbf", gamma=gamma)


# --- artifacts ----------------------------------------------------------------

def build_artifact(cfg: PipelineConfig, route: str, kernel_cfg: KernelConfig,
                   svm_cfg: TrainConfig, beta: np.ndarray, model: SvmModel,
                   manifest: DatasetManifest, trees: list[PooledTree],
                   seed: int) -> tuple[dict, np.ndarray]:
    """Assemble the JSON-serializable trained-model artifact, which keeps
    the route config's ``seed``, and its support rows, from the model's
    training ``trees`` (every node): ``support_videos`` lists the videos
    with a positive ``alpha`` in some class, in order of first appearance
    over the classes, and row k of the (support videos, weighted nodes,
    dim) float64 rows holds video k's pooled vectors at the nodes with
    non-zero ``beta``, the only ones scoring reads."""
    hierarchy = Hierarchy(cfg.depth)
    beta = check_on_simplex(beta)
    beta_doc = {f"{l}:{k}": float(b)
                for (l, k), b in zip(hierarchy.nodes, beta)}
    classes, order = {}, {}
    for ci, c in enumerate(model.class_ids):
        support = np.flatnonzero(model.alpha[ci] > 0)
        for i in support:
            order.setdefault(int(i), len(order))
        classes[str(int(c))] = {
            "b": float(model.b[ci]),
            "support": [{"video_id": model.train_ids[i],
                         "alpha": float(model.alpha[ci, i])}
                        for i in support],
        }
    rows = list(order)
    block, _ = stack_trees(trees)
    support_rows = block[np.ix_(rows, np.flatnonzero(beta))]
    doc = {
        "config": {
            "depth": cfg.depth,
            "variant": cfg.variant,
            "stream": cfg.stream,
            "route": route,
            "kernel": {"kind": kernel_cfg.kind,
                       "gamma": kernel_cfg.gamma},
            "feature_norm": cfg.feature_norm,
            "node_norm": cfg.node_norm,
            "seed": seed,
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
        "support_videos": [{"video_id": model.train_ids[i],
                            "label": int(model.labels[i])} for i in rows],
        "support_file": SUPPORT_FILE,
        "format": ARTIFACT_FORMAT,
    }
    return doc, support_rows


def save_artifact(artifact: dict, support_rows: np.ndarray,
                  path: str | os.PathLike) -> None:
    """Write a :func:`build_artifact` document as one strict JSON file
    at ``path`` (a non-finite number raises ``ValueError`` before any
    file is written), then its support rows, with ``np.save``, to the
    ``support_file`` it names beside ``path``."""
    text = json.dumps(artifact, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    support = os.path.join(os.path.dirname(path), artifact["support_file"])
    with open(support, "wb") as fh:
        np.save(fh, support_rows, allow_pickle=False)


@dataclass(frozen=True)
class ModelArtifact:
    """An artifact as :func:`load_artifact` checked it: ``config`` as
    written, and the one-vs-rest ``model`` it scores with, whose
    ``train_ids`` and ``labels`` are the ``support_videos`` list and
    whose ``alpha`` is zero outside each class's ``support`` entries.
    Row k of the read-only ``support_rows`` holds support video k's
    pooled vectors at the nodes ``beta`` weights."""

    config: dict
    pipeline: PipelineConfig
    kernel: KernelConfig
    svm: TrainConfig
    beta: np.ndarray
    model: SvmModel
    support_rows: np.ndarray


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
    """Parse a :func:`save_artifact` file and the support rows beside it,
    checking once each entry that evaluation reads; a missing or
    malformed one raises :class:`ArtifactMismatch` naming its dotted
    key. A null ``config.svm.c_box`` is the hard margin, ``inf``."""
    if not os.path.isfile(path):
        raise MissingPath(f"{path}: no such model artifact")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ArtifactMismatch(f"{path}: not valid UTF-8: {exc}") from exc
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
    # a norm left out keeps PipelineConfig's default
    norms = {k: config[k] for k in ("feature_norm", "node_norm")
             if k in config}
    cfg = _made(PipelineConfig, "config", path,
                depth=get("config.depth", "an integer"),
                variant=get("config.variant", "a string"),
                stream=get("config.stream", "a string"),
                kernel_kind=kernel.kind, gamma=gamma or "median", **norms)
    c_box = get("config.svm.c_box", "a number or null")
    svm = _made(TrainConfig, "config.svm", path,
                c_box=math.inf if c_box is None else float(c_box),
                kkt_tol=float(get("config.svm.kkt_tol", "a finite number")),
                max_passes=get("config.svm.max_passes", "an integer"))
    nodes = [f"{l}:{k}" for l, k in Hierarchy(cfg.depth).nodes]
    beta = get("beta", "an object")
    if sorted(beta) != sorted(nodes):
        raise ArtifactMismatch(f"{path}: 'beta' keys do not match 'config.depth'")
    beta = _made(check_on_simplex, "beta", path, np.array(
        [_checked(beta[n], f"beta.{n}", "a finite number", path)
         for n in nodes]))
    keyed = sorted((_made(_class_id, "classes", path, key, "class key"), key)
                   for key in get("classes", "an object"))
    ids = [c for c, _ in keyed]
    if len(ids) < 2 or len(set(ids)) < len(ids):
        raise ArtifactMismatch(f"{path}: 'classes' needs at least 2 classes, "
                               f"each under one key, got keys "
                               f"{[key for _, key in keyed]}")
    listed = get("support_videos", "a list")
    if not all(isinstance(sv, dict) and "video_id" in sv and "label" in sv
               for sv in listed):
        raise ArtifactMismatch(f"{path}: support_videos must list objects "
                               f"with 'video_id' and 'label'")
    columns, labels = {}, []
    for i, sv in enumerate(listed):
        at = f"support_videos.{i}."
        vid = _checked(sv["video_id"], at + "video_id", "a string", path)
        label = _checked(sv["label"], at + "label", "an integer", path)
        if vid in columns:
            raise ArtifactMismatch(f"{path}: {at + 'video_id'!r}: {vid!r} "
                                   f"is listed twice")
        if label not in ids:
            raise ArtifactMismatch(f"{path}: {at + 'label'!r}: {label} is "
                                   f"not a class id of 'classes'")
        columns[vid] = i
        labels.append(label)
    b, entries = [], []
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
            if vid not in columns:
                raise ArtifactMismatch(
                    f"{path}: {at + 'video_id'!r}: {vid!r} is not listed in "
                    f"'support_videos'")
            entries.append((ci, columns[vid],
                            _checked(sv["alpha"], at + "alpha",
                                     "a finite number >= 0", path)))
    if not entries:
        raise ArtifactMismatch(f"{path}: 'classes' lists no support video")
    alpha = np.zeros((len(keyed), len(columns)))
    for ci, j, a in entries:
        alpha[ci, j] = a
    rows = _support_rows(path, get("support_file", "a string"),
                         (len(columns), np.count_nonzero(beta)))
    model = SvmModel(train_ids=list(columns), labels=np.array(labels),
                     class_ids=np.array(ids), alpha=alpha,
                     b=np.array(b, dtype=np.float64))
    return ModelArtifact(config, cfg, kernel, svm, beta, model, rows)


def _support_rows(path, name: str, shape: tuple[int, int]) -> np.ndarray:
    """The read-only float64 rows in the file ``name`` beside the artifact
    at ``path``: finite, of ``shape`` (support videos, weighted nodes)
    plus a feature dimension >= 1. A file that is missing, pickled, not
    a ``.npy`` array or not such rows raises :class:`ArtifactMismatch`
    naming ``support_file``."""
    def refuse(why):
        return ArtifactMismatch(f"{path}: 'support_file': {why}")

    if name in ("", os.curdir, os.pardir) or os.path.basename(name) != name:
        raise refuse(f"{name!r} is not a file name")
    full = os.path.join(os.path.dirname(path), name)
    if not os.path.isfile(full):
        raise refuse(f"{full} not found")
    with open(full, "rb") as fh:
        try:
            rows = np.load(fh, allow_pickle=False)
        except (ValueError, EOFError) as exc:
            raise refuse(f"{full} is not a .npy array: {exc}") from exc
    if not isinstance(rows, np.ndarray):
        raise refuse(f"{full} is not a .npy array")
    if rows.dtype != np.float64:
        raise refuse(f"{full} holds {rows.dtype} values, not float64")
    if rows.ndim != 3 or rows.shape[:2] != shape or rows.shape[2] < 1:
        raise refuse(f"{full} holds shape {rows.shape}, not {shape} "
                     f"support videos x weighted nodes, by a dimension >= 1")
    if not np.isfinite(rows).all():
        raise refuse(f"{full} holds a non-finite value")
    rows.flags.writeable = False
    return rows


# --- training routes ------------------------------------------------------------

@dataclass(frozen=True)
class TrainOutput:
    """Model artifact and its support rows, trace.csv header and rows,
    training.json summary."""

    artifact: dict
    support_rows: np.ndarray
    trace_header: list[str]
    trace_rows: list[list]
    summary: dict


def _entropy(beta: np.ndarray) -> float:
    positive = beta[beta > 0]
    # + 0.0 turns the -0.0 of a one-hot beta into 0.0
    return float(-(positive * np.log(positive)).sum()) + 0.0


def _table_doc(name: str, shape: tuple) -> dict:
    """``training.json``'s record of the fixed float64 table a run held."""
    return {"name": name, "shape": list(shape),
            "bytes": 8 * math.prod(shape)}


def _model_doc(model: SvmModel, svm_cfg: TrainConfig,
               support_rows: np.ndarray) -> dict:
    """``training.json``'s record of the final model: each class's dual
    solve (its pair updates, KKT residual and objective, its support
    videos and those at the upper bound ``c_box``), and the support rows
    the artifact stores."""
    videos, nodes, dim = support_rows.shape
    return {
        "final_duals": {
            str(int(c)): {"pair_updates": sol.updates,
                          "kkt_residual": sol.kkt_residual,
                          "objective": sol.objective,
                          "support": int(np.count_nonzero(sol.alpha > 0)),
                          "bound_support": int(np.count_nonzero(
                              sol.alpha == svm_cfg.c_box))}
            for c, sol in zip(model.class_ids, model.duals)},
        "support_trees": {"videos": videos, "nodes": nodes, "dim": dim,
                          "bytes": support_rows.nbytes},
    }


def train_em_route(manifest: DatasetManifest, root: str, cfg: PipelineConfig,
                   em_cfg: EmConfig, svm_cfg: TrainConfig) -> TrainOutput:
    from .em import em_fit

    trees, labels = load_split_trees(manifest, root, cfg, "train")
    kernel_cfg = resolve_gamma(trees, cfg)
    result = em_fit(trees, labels, cfg.variant, kernel_cfg, em_cfg, svm_cfg)
    artifact, support = build_artifact(cfg, "em", kernel_cfg, svm_cfg,
                                       result.beta, result.model, manifest,
                                       trees, em_cfg.seed)
    rows = [[i, float(v), _entropy(b)] for i, (v, b) in
            enumerate(zip(result.objective_trace, result.beta_trace))]
    return TrainOutput(artifact, support,
                       ["iteration", "objective", "beta_entropy"], rows,
                       {"iterations": result.iterations,
                        "beta_entropy": _entropy(result.beta),
                        "dual_solves": result.dual_solves,
                        "pair_updates": result.pair_updates,
                        "backtracks": result.backtracks,
                        "stop_reason": result.stop_reason,
                        "kernel_table": _table_doc(*result.kernel_table),
                        **_model_doc(result.model, svm_cfg, support)})


def train_dmkl_route(manifest: DatasetManifest, root: str,
                     cfg: PipelineConfig, contrastive_cfg: ContrastiveConfig,
                     svm_cfg: TrainConfig) -> TrainOutput:
    from .dmkl import dmkl_fit, require_rbf

    require_rbf(cfg.kernel_kind)
    trees, labels = load_split_trees(manifest, root, cfg, "train")
    kernel_cfg = resolve_gamma(trees, cfg)
    result = dmkl_fit(trees, labels, cfg.variant, contrastive_cfg,
                      kernel_cfg, svm_cfg)
    artifact, support = build_artifact(cfg, "dmkl", kernel_cfg, svm_cfg,
                                       result.weights.beta, result.model,
                                       manifest, trees, contrastive_cfg.seed)
    rows = [[i, float(v)] for i, v in enumerate(result.loss_trace)]
    return TrainOutput(artifact, support, ["iteration", "loss"], rows,
                       {"iterations": len(rows) - 1, "final_loss": rows[-1][1],
                        "dual_solves": result.model.class_ids.size,
                        "pair_updates": result.model.pair_updates,
                        "stop_reason": result.stop_reason,
                        "fw_gap": result.fw_gap,
                        # the loss is convex in beta for concatenation,
                        # where the gap bounds L - min L; for averaging
                        # it only measures stationarity
                        "fw_gap_bounds_suboptimality":
                            cfg.variant == CONCATENATION,
                        "kernel_table": _table_doc(*result.kernel_table),
                        **_model_doc(result.model, svm_cfg, support)})


# --- evaluation -------------------------------------------------------------------

def _weighted_nodes(artifact: ModelArtifact) -> np.ndarray:
    """The canonical positions of the nodes ``artifact`` weights: the only
    ones scoring pools and holds, since the combined kernel reads no
    other."""
    return np.flatnonzero(artifact.beta)


def _support_columns(artifact: ModelArtifact,
                     test_trees: list[PooledTree]) -> np.ndarray:
    """The combined kernel, tests x support videos in
    ``artifact.model.train_ids`` order, between ``test_trees`` and the
    artifact's support trees: read-only views of its ``support_rows``,
    which the kernels read without copying. ``test_trees`` hold the
    artifact's weighted nodes, as those rows do."""
    cfg = artifact.pipeline
    nodes = _weighted_nodes(artifact)
    support_trees = [PooledTree(video_id=v, stream=cfg.stream,
                                depth=cfg.depth, vectors=row,
                                nodes=tuple(nodes))
                     for v, row in zip(artifact.model.train_ids,
                                       artifact.support_rows)]
    return kernel_columns(test_trees, support_trees, artifact.beta[nodes],
                          cfg.variant, artifact.kernel)


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
            for p in sorted(set(preds[mask].tolist())):
                row[str(int(p))] = int(np.sum(preds[mask] == p))
            confusion[str(c)] = row
    return {"overall_accuracy": overall, "per_class": per_class,
            "confusion": confusion, "n_test": int(truth.size)}


def evaluate_artifact(artifact: ModelArtifact, manifest: DatasetManifest,
                      root: str) -> dict:
    """Top-1 metrics of the artifact model's :func:`predict` on the
    manifest's test split; only the test videos' feature files are read."""
    test_trees, truth = load_split_trees(manifest, root, artifact.pipeline,
                                         "test", _weighted_nodes(artifact))
    preds = predict(artifact.model, _support_columns(artifact, test_trees))
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
    if not np.array_equal(art_a.model.class_ids, art_m.model.class_ids):
        raise ConfigMismatch("artifacts cover different class sets")


def fuse_evaluate(art_a: ModelArtifact, art_m: ModelArtifact,
                  manifest: DatasetManifest, root: str,
                  mode: str = "kernel-avg", weight: float = 0.5) -> dict:
    """Two-stream fusion on the test split.

    ``score-avg`` mixes the two artifact models' per-class decision
    scores, reading only the test videos' feature files. ``kernel-avg``
    convexly combines the two streams' Gram matrices (training and test
    columns alike) with each stream's own weights and bandwidth, then
    retrains the one-vs-rest duals on the fused kernel using the first
    artifact's solver settings.
    """
    if not (0.0 <= weight <= 1.0):
        raise ValidationError(f"fusion weight {weight} outside [0, 1]")
    if mode not in FUSION_MODES:
        raise ValidationError(f"unknown fusion mode {mode!r}")
    _check_fusable(art_a, art_m)
    if mode == "score-avg":
        (test_a, truth), (test_m, _) = (
            load_split_trees(manifest, root, art.pipeline, "test",
                             _weighted_nodes(art))
            for art in (art_a, art_m))
        if [t.video_id for t in test_a] != [t.video_id for t in test_m]:
            raise ConfigMismatch("test splits differ between streams")
        scores_a, scores_m = (
            decision_scores(art.model, _support_columns(art, test))
            for art, test in ((art_a, test_a), (art_m, test_m)))
        fused = weight * scores_a + (1.0 - weight) * scores_m
        preds = art_a.model.class_ids[np.argmax(fused, axis=1)]
    else:
        preds, truth = _kernel_avg_predict(art_a, art_m, manifest, root,
                                           weight)
    metrics = _metrics(preds, truth, manifest.label_names)
    metrics["config"] = {"fusion": mode, "weight": weight,
                         "stream_a": art_a.config,
                         "stream_m": art_m.config}
    return metrics


def _kernel_avg_predict(art_a: ModelArtifact, art_m: ModelArtifact,
                        manifest: DatasetManifest, root: str, weight: float):
    parts = []
    for art in (art_a, art_m):
        cfg, nodes = art.pipeline, _weighted_nodes(art)
        train_trees, labels = load_split_trees(manifest, root, cfg, "train",
                                               nodes)
        test_trees, truth = load_split_trees(manifest, root, cfg, "test",
                                             nodes)
        parts.append((
            gram_matrix(train_trees, art.beta[nodes], cfg.variant,
                        art.kernel),
            kernel_columns(test_trees, train_trees, art.beta[nodes],
                           cfg.variant, art.kernel),
            ([t.video_id for t in train_trees],
             [t.video_id for t in test_trees])))
    (gram_a, cols_a, ids_a), (gram_m, cols_m, ids_m) = parts
    if ids_a != ids_m:
        raise ConfigMismatch("splits differ between streams")
    # same videos from one manifest, so both streams share labels and truth
    model = train_one_vs_rest(fuse_kernels(gram_a, gram_m, weight), labels,
                              art_a.svm)
    return predict(model, weight * cols_a + (1.0 - weight) * cols_m), truth
