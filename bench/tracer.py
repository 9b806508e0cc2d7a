"""Traced in-process run of one treemkl CLI command.

    python3 bench/tracer.py OUT.json <treemkl arguments...>

Installs timing wrappers over the package's public functions wherever
their callers look them up (module globals and class attributes), runs
``treemkl.cli.main(argv)`` once and writes the spans, the counters and
per-name aggregates to ``OUT.json``. No source file of the package
changes, and the command's own outputs are the same as an untraced run.

Spans stay in memory as ``[name, start, end, parent]`` and are written
out when the command ends. A span's self time is its duration minus
the durations of its direct children; the package runs one thread when
``TREEMKL_WORKERS`` is unset, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

# names whose per-call durations are kept for percentiles
DURATIONS = ("dmkl.loss_grad", "kernels.pair_blocks", "svm.solve_dual")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name, fn, before=None, after=None, on_error=None):
        """Return ``fn`` recording one span per call.

        ``before(args)`` runs ahead of the call and its value is passed to
        ``after(span, result, args, state)``; ``on_error(exc)`` sees an
        exception before it propagates.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            state = before(args) if before else None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error:
                    on_error(exc)
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if after:
                after(span, result, args, state)
            return result
        return traced

    def aggregate(self) -> dict:
        """Calls, busy time (children included) and self time per name."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), inner in zip(self.spans, child_s):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - inner
        return out

    def candidate_solves(self) -> int:
        """One-vs-rest trainings inside each ``em_fit`` beyond its first."""
        per_fit = Counter(parent for name, _, _, parent in self.spans
                          if name == "svm.train_one_vs_rest" and parent >= 0
                          and self.spans[parent][0] == "em.em_fit")
        return sum(n - 1 for n in per_fit.values())


def _replace_everywhere(original, wrapped) -> None:
    """Point every ``treemkl`` module global bound to ``original`` at
    ``wrapped``, so callers that imported the name by value see it too."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "treemkl"
                               or mod_name.startswith("treemkl.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def install(tracer: Tracer) -> None:
    import treemkl.cli  # noqa: F401  (imports every module the CLI uses)
    from treemkl import dataio, dmkl, em, hierarchy, kernels, pipeline, svm
    from treemkl.errors import NotConverged
    from treemkl.kernels import NodeKernelCache
    from treemkl.simplex import SimplexWeights

    counts = tracer.counts

    def cross_before(args):
        return args[0]._cross is None      # a build is the cache's first call

    def cross_after(span, result, args, built):
        span[0] += ".build" if built else ".hit"
        if built:
            counts[span[0] + "_bytes"] += int(result.nbytes)

    def solve_after(span, result, args, state):
        counts["svm.solve_dual.pair_updates"] += int(result.updates)

    def solve_error(exc):
        if isinstance(exc, NotConverged):
            counts["svm.solve_dual.not_converged"] += 1
            counts["svm.solve_dual.pair_updates"] += int(exc.updates)

    def em_after(span, result, args, state):
        counts["em.em_fit.iterations"] += int(result.iterations)

    def videos_after(span, result, args, state):
        counts["pipeline.load_split_trees.videos"] += len(result[0])

    def bytes_after(span, result, args, state):
        counts["dataio.load_feature_file.bytes"] += os.path.getsize(args[0])

    functions = [
        (pipeline, "load_split_trees", "pipeline.load_split_trees", {"after": videos_after}),
        (pipeline, "train_em_route", "pipeline.train_em_route", {}),
        (pipeline, "train_dmkl_route", "pipeline.train_dmkl_route", {}),
        (pipeline, "evaluate_artifact", "pipeline.evaluate_artifact", {}),
        (dataio, "load_feature_file", "dataio.load_feature_file", {"after": bytes_after}),
        (hierarchy, "pool_sequence", "hierarchy.pool_sequence", {}),
        (kernels, "kernel_columns", "kernels.kernel_columns", {}),
        (kernels, "median_gamma", "kernels.median_gamma", {}),
        (svm, "solve_dual", "svm.solve_dual", {"after": solve_after, "on_error": solve_error}),
        (svm, "train_one_vs_rest", "svm.train_one_vs_rest", {}),
        (em, "em_fit", "em.em_fit", {"after": em_after}),
        (em, "beta_objective_coeffs", "em.beta_objective_coeffs", {}),
        (dmkl, "dmkl_then_svm", "dmkl.dmkl_then_svm", {}),
        (dmkl, "dmkl_fit", "dmkl.dmkl_fit", {}),
        (dmkl, "loss_grad", "dmkl.loss_grad", {}),
    ]
    for module, attr, name, hooks in functions:
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(name, original, **hooks))

    methods = [
        (NodeKernelCache, "cross", "kernels.cross",
         {"before": cross_before, "after": cross_after}),
        (NodeKernelCache, "combined", "kernels.combined", {}),
        (NodeKernelCache, "pair_blocks", "kernels.pair_blocks", {}),
        (SimplexWeights, "with_raw", "simplex.with_raw", {}),
    ]
    for owner, attr, name, hooks in methods:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **hooks))


def run(out_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    import treemkl
    import treemkl.cli
    main = tracer.wrap("cli.main", treemkl.cli.main)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    aggregate = tracer.aggregate()
    durations = {name: [end - start for n, start, end, _ in tracer.spans
                        if n == name] for name in DURATIONS}
    doc = {
        "exit_code": code,
        "package": os.path.dirname(os.path.abspath(treemkl.__file__)),
        "main_s": aggregate["cli.main"]["busy_s"],
        "names": aggregate,
        "counts": dict(tracer.counts),
        "candidate_solves": tracer.candidate_solves(),
        "durations": durations,
        "spans": tracer.spans,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 3:
        print("usage: tracer.py OUT.json <treemkl arguments...>", file=sys.stderr)
        sys.exit(2)
    sys.exit(run(sys.argv[1], sys.argv[2:]))
