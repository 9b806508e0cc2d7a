"""Command-line surface.

Subcommands: ``gen-synth``, ``pool``, ``train-em``, ``train-dmkl``,
``eval``, ``fuse-eval``, ``report``. Every command writes its outputs
under ``--out`` together with a ``files.json`` listing, and reruns with
identical inputs, flags, and seeds produce byte-identical files (no
timestamps, sorted keys, deterministic float formatting).

Exit codes: 0 on success, 2 for validation problems (bad files, flags,
or data), 3 when a solver does not converge.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .dataio import load_manifest
from .dmkl import ContrastiveConfig
from .em import EmConfig
from .errors import EmptySplit, NoRuns, NumericalError, ValidationError
from .hierarchy import write_pooled_file
from .kernels import VARIANT_ALIASES
from .pipeline import (
    PipelineConfig,
    beta_level_rows,
    evaluate_artifact,
    fuse_evaluate,
    load_artifact,
    load_split_trees,
    save_artifact,
    train_dmkl_route,
    train_em_route,
)
from .simplex import INIT_SCHEMES
from .svm import TrainConfig
from .synth import SynthSpec, gen_dataset


class _OutDir:
    """Collects relative paths of produced files into files.json."""

    def __init__(self, path: str):
        self.path = path
        os.makedirs(path, exist_ok=True)
        self.files: list[str] = []

    def target(self, rel: str) -> str:
        full = os.path.join(self.path, rel)
        parent = os.path.dirname(full)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self.files.append(rel)
        return full

    def write_json(self, rel: str, payload: dict) -> None:
        with open(self.target(rel), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def write_csv(self, rel: str, header: list[str],
                  rows: list[list]) -> None:
        with open(self.target(rel), "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_csv_cell(v) for v in row) + "\n")

    def finish(self) -> None:
        listing = {"files": sorted(self.files)}
        with open(os.path.join(self.path, "files.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(json.dumps(listing, indent=2, sort_keys=True) + "\n")


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _manifest_root(manifest_path: str) -> str:
    return os.path.dirname(os.path.abspath(manifest_path))


def _pipeline_config(args) -> PipelineConfig:
    gamma = args.gamma
    if gamma != "median":
        try:
            gamma = float(gamma)
        except ValueError:
            raise ValidationError(
                f"--gamma must be a number or 'median', got {gamma!r}") from None
    return PipelineConfig(depth=args.depth, variant=args.variant,
                          stream=args.stream, kernel_kind=args.kernel,
                          gamma=gamma, feature_norm=args.feature_norm,
                          node_norm=args.node_norm, seed=args.seed)


def _svm_config(args) -> TrainConfig:
    return TrainConfig(c_box=args.c_box, kkt_tol=args.kkt_tol,
                       max_passes=args.max_passes)


# --- commands -------------------------------------------------------------------


def cmd_gen_synth(args) -> int:
    spec = SynthSpec(num_classes=args.classes, per_class=args.per_class,
                     frames=args.frames, dim=args.dim,
                     signal_level=args.signal_level,
                     amplitude=args.amplitude, noise_sigma=args.noise_sigma,
                     detail_sigma=args.detail_sigma, seed=args.seed,
                     streams=args.streams)
    out = _OutDir(args.out)
    manifest = gen_dataset(spec, args.out)
    for rec in manifest.records:
        for stream in ("appearance", "motion"):
            rel = rec.path_for(stream)
            if rel is not None:
                out.files.append(rel)
    out.files.append("manifest.jsonl")
    out.write_json("dataset.json", {
        "videos": len(manifest.records),
        "classes": manifest.num_classes,
        "spec": {k: getattr(spec, k) for k in (
            "num_classes", "per_class", "frames", "dim", "signal_level",
            "amplitude", "noise_sigma", "detail_sigma", "seed", "streams")},
    })
    out.finish()
    return 0


def cmd_pool(args) -> int:
    out = _OutDir(args.out)
    manifest = load_manifest(args.manifest)
    root = _manifest_root(args.manifest)
    cfg = PipelineConfig(depth=args.depth, stream=args.stream,
                         feature_norm=args.feature_norm,
                         node_norm=args.node_norm)
    for split in ("train", "test"):
        try:
            trees, _ = load_split_trees(manifest, root, cfg, split)
        except EmptySplit:
            continue
        for tree in trees:
            rel = os.path.join("trees", f"{tree.video_id}.{cfg.stream}.gpt")
            write_pooled_file(tree, out.target(rel))
    out.finish()
    return 0


def _emit_training(args, result) -> int:
    out = _OutDir(args.out)
    save_artifact(result.artifact, out.target("model.json"))
    out.write_csv("trace.csv", result.trace_header, result.trace_rows)
    out.write_json("training.json", result.summary)
    out.finish()
    return 0


def cmd_train_em(args) -> int:
    manifest = load_manifest(args.manifest)
    em_cfg = EmConfig(max_iters=args.max_iters, param_tol=args.param_tol,
                      eta=args.eta, beta_init=args.beta_init, seed=args.seed)
    result = train_em_route(manifest, _manifest_root(args.manifest),
                            _pipeline_config(args), em_cfg,
                            _svm_config(args))
    return _emit_training(args, result)


def cmd_train_dmkl(args) -> int:
    manifest = load_manifest(args.manifest)
    contrastive = ContrastiveConfig(
        learning_rate=args.lr, iterations=args.iters, seed=args.seed,
        positive_fraction=args.positive_fraction, beta_init=args.beta_init)
    result = train_dmkl_route(manifest, _manifest_root(args.manifest),
                              _pipeline_config(args), contrastive,
                              _svm_config(args))
    return _emit_training(args, result)


def cmd_eval(args) -> int:
    out = _OutDir(args.out)
    artifact = load_artifact(args.model)
    manifest = load_manifest(args.manifest)
    metrics = evaluate_artifact(artifact, manifest,
                                _manifest_root(args.manifest))
    out.write_json("metrics.json", metrics)
    out.write_csv("beta_levels.csv", *beta_level_rows(artifact))
    out.finish()
    return 0


def cmd_fuse_eval(args) -> int:
    out = _OutDir(args.out)
    art_a = load_artifact(args.model_a)
    art_m = load_artifact(args.model_m)
    manifest = load_manifest(args.manifest)
    metrics = fuse_evaluate(art_a, art_m, manifest,
                            _manifest_root(args.manifest),
                            mode=args.mode, weight=args.weight)
    out.write_json("metrics.json", metrics)
    out.finish()
    return 0


def cmd_report(args) -> int:
    if not os.path.isdir(args.runs):
        raise NoRuns(f"{args.runs}: no such runs directory")
    out = _OutDir(args.out)
    header = ["run", "route", "variant", "depth", "stream", "accuracy"]
    rows = []
    for name in sorted(os.listdir(args.runs)):
        metrics_path = os.path.join(args.runs, name, "metrics.json")
        if not os.path.isfile(metrics_path):
            continue
        try:
            with open(metrics_path, "r", encoding="utf-8") as fh:
                metrics = json.load(fh)
            cfg = metrics.get("config", {})
            if "fusion" in cfg:
                cfg = dict(cfg["stream_a"], route="fusion:" + cfg["fusion"],
                           stream="fusion")
            rows.append([name, *(cfg.get(k, "?") for k in header[1:5]),
                         float(metrics["overall_accuracy"])])
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ValidationError(
                f"{metrics_path}: unreadable metrics: {exc!r}") from exc
    if not rows:
        raise NoRuns(f"no run directories with metrics.json under {args.runs}")
    rows.sort(key=lambda r: (str(r[2]), str(r[3]), str(r[4]), str(r[0])))
    out.write_csv("report.csv", header, rows)
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for r in rows:
        lines.append("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))
    with open(out.target("report.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    out.finish()
    return 0


# --- parser ---------------------------------------------------------------------


def _add_pool_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--stream", choices=("appearance", "motion"),
                   default="appearance")
    p.add_argument("--feature-norm", choices=("none", "l2"), default="none")
    p.add_argument("--node-norm", choices=("none", "l2"), default="none")


def _add_common_train_flags(p: argparse.ArgumentParser) -> None:
    _add_pool_flags(p)
    p.add_argument("--variant", choices=sorted(VARIANT_ALIASES),
                   default="avg")
    p.add_argument("--kernel", choices=("rbf", "linear"), default="rbf")
    p.add_argument("--gamma", default="median",
                   help="rbf bandwidth, or 'median' for the data heuristic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--c-box", type=float, default=10.0)
    p.add_argument("--kkt-tol", type=float, default=1e-6)
    p.add_argument("--max-passes", type=int, default=200)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treemkl",
        description="Hierarchical temporal pooling with learned "
                    "multi-granularity kernel weights")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--per-class", type=int, default=50)
    p.add_argument("--frames", type=int, default=32)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--signal-level", type=int, default=3)
    p.add_argument("--amplitude", type=float, default=1.5)
    p.add_argument("--noise-sigma", type=float, default=0.5)
    p.add_argument("--detail-sigma", type=float, default=1.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--streams", type=int, choices=(1, 2), default=1)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("pool", help="write pooled trees for a manifest")
    _add_pool_flags(p)
    p.set_defaults(func=cmd_pool)

    p = sub.add_parser("train-em",
                       help="alternating kernel-weight / SVM training")
    _add_common_train_flags(p)
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--max-iters", type=int, default=50)
    p.add_argument("--param-tol", type=float, default=1e-4)
    p.add_argument("--beta-init", choices=INIT_SCHEMES, default="uniform")
    p.set_defaults(func=cmd_train_em)

    p = sub.add_parser("train-dmkl", help="contrastive kernel-weight training")
    _add_common_train_flags(p)
    p.add_argument("--lr", type=float, default=0.0005)
    p.add_argument("--batch", type=int, help="ignored; every pair is used")
    p.add_argument("--iters", type=int, default=4000)
    p.add_argument("--positive-fraction", type=float, default=None)
    p.add_argument("--beta-init", choices=INIT_SCHEMES, default="uniform")
    p.set_defaults(func=cmd_train_dmkl)

    p = sub.add_parser("eval", help="score a trained model on the test split")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("fuse-eval", help="two-stream fusion evaluation")
    p.add_argument("--model-a", required=True,
                   help="appearance-stream model artifact")
    p.add_argument("--model-m", required=True,
                   help="motion-stream model artifact")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("kernel-avg", "score-avg"),
                   default="kernel-avg")
    p.add_argument("--weight", type=float, default=0.5)
    p.set_defaults(func=cmd_fuse_eval)

    p = sub.add_parser("report", help="summarize completed runs")
    p.add_argument("--runs", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
