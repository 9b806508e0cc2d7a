"""Command-line surface.

Subcommands: ``gen-synth``, ``pool``, ``train-em``, ``train-dmkl``,
``eval``, ``fuse-eval``, ``report``. Every command writes its outputs
under ``--out`` together with a ``files.json`` listing, and reruns with
identical inputs, flags, and seeds at a fixed OpenBLAS thread count
produce byte-identical files (no timestamps, sorted keys, deterministic
float formatting); the thread count can move the last bits of BLAS sums.

Exit codes: 0 on success, 2 for validation problems (bad files, flags,
or data) and for a path that cannot be read or written, 3 when a solver
does not converge.

A flag left out keeps the default of the config field or parameter it
sets; defaults and allowed values have one owner, not this parser.
Each command imports the modules it runs when it runs, so the parser,
``--help`` and ``report`` load no numpy, and no command loads the
training modules of another.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .choices import (FUSION_MODES, INIT_SCHEMES, KERNEL_KINDS, NORMS, STREAMS,
                      VARIANT_ALIASES)
from .errors import EmptySplit, NoRuns, NumericalError, ValidationError


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
        # the listing leaves out files.json itself
        self.write_json("files.json", {"files": sorted(self.files)})


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _manifest_root(manifest_path: str) -> str:
    return os.path.dirname(os.path.abspath(manifest_path))


def _given(args, names) -> dict:
    """The flags among ``names`` that were given (argparse leaves out the
    rest), by name."""
    return {name: getattr(args, name) for name in names if name in args}


def _config(cls, args):
    """A ``cls`` from the given flags named like its fields."""
    return cls(**_given(args, [f.name for f in dataclasses.fields(cls)]))


def _pipeline_config(args):
    from .pipeline import PipelineConfig

    if "gamma" in args and args.gamma != "median":
        try:
            args.gamma = float(args.gamma)
        except ValueError:
            raise ValidationError(f"--gamma must be a number or 'median', "
                                  f"got {args.gamma!r}") from None
    return _config(PipelineConfig, args)


# --- commands -------------------------------------------------------------------


def cmd_gen_synth(args) -> int:
    from .synth import SynthSpec, gen_dataset

    spec = _config(SynthSpec, args)
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
        "spec": dataclasses.asdict(spec),
    })
    out.finish()
    return 0


def cmd_pool(args) -> int:
    from .dataio import load_manifest
    from .hierarchy import write_pooled_file
    from .loading import PoolConfig, load_split_trees

    out = _OutDir(args.out)
    manifest = load_manifest(args.manifest)
    root = _manifest_root(args.manifest)
    cfg = _config(PoolConfig, args)
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


def _train(args, route, route_config) -> int:
    """Run a training ``route`` with the flags' pipeline, route
    (``route_config``) and solver configs, and write its outputs."""
    from .dataio import load_manifest
    from .pipeline import save_artifact
    from .svm import TrainConfig

    manifest = load_manifest(args.manifest)
    result = route(manifest, _manifest_root(args.manifest),
                   _pipeline_config(args), _config(route_config, args),
                   _config(TrainConfig, args))
    out = _OutDir(args.out)
    save_artifact(result.artifact, result.support_rows,
                  out.target("model.json"))
    out.files.append(result.artifact["support_file"])
    out.write_csv("trace.csv", result.trace_header, result.trace_rows)
    out.write_json("training.json", result.summary)
    out.finish()
    return 0


def cmd_train_em(args) -> int:
    from .em import EmConfig
    from .pipeline import train_em_route

    return _train(args, train_em_route, EmConfig)


def cmd_train_dmkl(args) -> int:
    from .dmkl import ContrastiveConfig
    from .pipeline import train_dmkl_route

    return _train(args, train_dmkl_route, ContrastiveConfig)


def cmd_eval(args) -> int:
    from .dataio import load_manifest
    from .pipeline import beta_level_rows, evaluate_artifact, load_artifact

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
    from .dataio import load_manifest
    from .pipeline import fuse_evaluate, load_artifact

    out = _OutDir(args.out)
    art_a = load_artifact(args.model_a)
    art_m = load_artifact(args.model_m)
    manifest = load_manifest(args.manifest)
    metrics = fuse_evaluate(art_a, art_m, manifest,
                            _manifest_root(args.manifest),
                            **_given(args, ("mode", "weight")))
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
    lines = ["  ".join(str(v).ljust(w) for v, w in zip(r, widths))
             for r in [header, *rows]]
    with open(out.target("report.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    out.finish()
    return 0


# --- parser ---------------------------------------------------------------------


def _add_pool_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--stream", choices=STREAMS)
    p.add_argument("--feature-norm", choices=NORMS)
    p.add_argument("--node-norm", choices=NORMS)


def _add_common_train_flags(p: argparse.ArgumentParser) -> None:
    _add_pool_flags(p)
    p.add_argument("--variant", choices=sorted(VARIANT_ALIASES))
    p.add_argument("--kernel", dest="kernel_kind", choices=KERNEL_KINDS)
    p.add_argument("--gamma",
                   help="rbf bandwidth, or 'median' for the data heuristic")
    p.add_argument("--seed", type=int)
    p.add_argument("--c-box", type=float)
    p.add_argument("--kkt-tol", type=float)
    p.add_argument("--max-passes", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treemkl",
        description="Hierarchical temporal pooling with learned "
                    "multi-granularity kernel weights")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, summary: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=summary,
                              argument_default=argparse.SUPPRESS)

    p = add("gen-synth", "generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", dest="num_classes", type=int)
    p.add_argument("--per-class", type=int)
    p.add_argument("--frames", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--signal-level", type=int)
    p.add_argument("--amplitude", type=float)
    p.add_argument("--noise-sigma", type=float)
    p.add_argument("--detail-sigma", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--streams", type=int)
    p.set_defaults(func=cmd_gen_synth)

    p = add("pool", "write pooled trees for a manifest")
    _add_pool_flags(p)
    p.set_defaults(func=cmd_pool)

    p = add("train-em", "alternating kernel-weight / SVM training")
    _add_common_train_flags(p)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--param-tol", type=float)
    p.add_argument("--beta-init", choices=INIT_SCHEMES)
    p.set_defaults(func=cmd_train_em)

    p = add("train-dmkl", "contrastive kernel-weight training")
    _add_common_train_flags(p)
    p.add_argument("--batch", type=int, help="ignored; every pair is used")
    p.add_argument("--iters", dest="iterations", type=int)
    p.add_argument("--positive-fraction", type=float)
    p.add_argument("--beta-init", choices=INIT_SCHEMES)
    p.set_defaults(func=cmd_train_dmkl)

    p = add("eval", "score a trained model on the test split")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = add("fuse-eval", "two-stream fusion evaluation")
    p.add_argument("--model-a", required=True,
                   help="appearance-stream model artifact")
    p.add_argument("--model-m", required=True,
                   help="motion-stream model artifact")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=FUSION_MODES)
    p.add_argument("--weight", type=float)
    p.set_defaults(func=cmd_fuse_eval)

    p = add("report", "summarize completed runs")
    p.add_argument("--runs", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def _check_out(path: str) -> None:
    """Refuse an empty ``--out``, and one that is, or would be made
    under, anything but a directory: its nearest existing ancestor
    decides."""
    if not path:
        raise ValidationError("--out is empty")
    probe = os.path.abspath(path)
    while not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        what = "" if probe == os.path.abspath(path) else f"{probe} is "
        raise ValidationError(f"--out {path}: {what}not a directory")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
