"""Which library functions are timed, at which binding, and what they count.

Each entry wraps a function where its caller looks it up, so the span fires
on the real call path. ``install(tracer, full=False)`` wraps only the harness
entry points the end-to-end metrics need (a few calls per run);
``full=True`` adds every layer span and count for the per-layer metrics.
"""

from __future__ import annotations

import math
import time
import types
from pathlib import Path

import cohortmetric.extension as extension
import cohortmetric.harness as harness
import cohortmetric.io as cio
import cohortmetric.metric as metric
import cohortmetric.simulate as simulate
import cohortmetric.survival as survival
import cohortmetric.tree as tree
from tracing import Tracer

# Span names in report order, grouped by the module that defines the function.
SPANS = (
    "diffusion.gaussian_kernel",
    "diffusion.markov_normalize",
    "diffusion.spectral_embed",
    "tree.build_topdown",
    "tree.kmeans_split",
    "metric.fit_weighted_metric",
    "metric.weighted_kernel",
    "metric.compute_weight_field",
    "metric.neighborhood_indices",
    "extension.build_reference",
    "extension.asymmetric_kernel",
    "extension.extend_batch",
    "survival.detail.moments",
    "survival.detail.partial",
    "survival.kaplan_meier",
    "survival.logrank_test",
    "harness.fit_pipeline",
    "harness.predict",
    "harness.validate_fold",
    "harness.recommend_pipeline",
    "io.save_model",
    "io.load_model",
    "simulate.generate",
)

# Counts reported next to the spans: name -> unit. "computed" units are
# derived from array shapes, not measured.
COUNTS = {
    "tree.levels": "levels/tree",
    "tree.folders": "folders/tree",
    "metric.iterations": "iters/fit",
    "metric.weight_change_last": "ratio",
    "metric.weighted_kernel.pair_evals": "count-computed",
    "metric.weighted_kernel.bytes": "B-computed",
    "extension.rank": "count",
    "extension.out_of_support": "count",
    "extension.asymmetric_kernel.pair_evals": "count-computed",
    "extension.asymmetric_kernel.bytes": "B-computed",
    "survival.undefined": "count",
    "io.model_bytes": "B",
    "harness.fit_pipeline.child_share": "ratio",
    "trace.overhead_s": "s-computed",
}

FLOAT_BYTES = 8


def _shape(x) -> tuple[int, int]:
    """Rows and columns of an array or a DataMatrix."""
    values = x if hasattr(x, "shape") else x.values
    return int(values.shape[0]), int(values.shape[1])


def _tree(tracer, args, kwargs, result) -> None:
    tracer.record("tree.levels", result.n_levels)
    tracer.record("tree.folders", sum(len(level) for level in result.levels))


def _fit(tracer, args, kwargs, result) -> None:
    tracer.record("metric.iterations", result.iterations)
    tracer.counts["metric.weight_change_last"] = (
        result.history[-1].weight_change if result.history else 0.0)


def _weighted_kernel(tracer, args, kwargs, result) -> None:
    # upper triangle with diagonal, every feature; bytes: inputs read once
    # (points and weight diagonals) plus the dense n x n output written once
    n, m = _shape(args[0])
    tracer.add("metric.weighted_kernel.pair_evals", n * (n + 1) // 2 * m)
    tracer.add("metric.weighted_kernel.bytes", FLOAT_BYTES * (2 * n * m + n * n))


def _asymmetric_kernel(tracer, args, kwargs, result) -> None:
    rows, m = _shape(args[0])
    n_ref, _ = _shape(args[1])
    tracer.add("extension.asymmetric_kernel.pair_evals", rows * n_ref * m)
    tracer.add("extension.asymmetric_kernel.bytes",
               FLOAT_BYTES * ((rows + 2 * n_ref) * m + rows * n_ref))


def _reference(tracer, args, kwargs, result) -> None:
    tracer.counts["extension.rank"] = result.rank


def _extend(tracer, args, kwargs, result) -> None:
    _, in_support = result
    tracer.add("extension.out_of_support", int((~in_support).sum()))


def _detail(tracer, args, kwargs, result) -> None:
    if not result.defined or not math.isfinite(result.alpha):
        tracer.add("survival.undefined", 1)


def _saved(tracer, args, kwargs, result) -> None:
    tracer.counts["io.model_bytes"] = sum(
        p.stat().st_size for p in Path(args[0]).iterdir() if p.is_file())


def install(tracer, full: bool) -> None:
    """Wrap the harness entry points, and with ``full`` every layer."""
    tracer.wrap(harness, "fit_pipeline", "harness.fit_pipeline")
    tracer.wrap(harness, "predict", "harness.predict", items=lambda a: _shape(a[1])[0])
    tracer.wrap(harness, "validate_fold", "harness.validate_fold")
    tracer.wrap(harness, "recommend_pipeline", "harness.recommend_pipeline")
    if not full:
        return
    tracer.wrap(metric, "gaussian_kernel", "diffusion.gaussian_kernel")
    tracer.wrap(metric, "markov_normalize", "diffusion.markov_normalize")
    tracer.wrap(metric, "spectral_embed", "diffusion.spectral_embed")
    tracer.wrap(metric, "build_topdown", "tree.build_topdown", observe=_tree)
    tracer.wrap(tree, "kmeans_split", "tree.kmeans_split")
    tracer.wrap(harness, "fit_weighted_metric", "metric.fit_weighted_metric", observe=_fit)
    tracer.wrap(metric, "weighted_kernel", "metric.weighted_kernel", observe=_weighted_kernel)
    tracer.wrap(metric, "compute_weight_field", "metric.compute_weight_field")
    tracer.wrap(harness, "neighborhood_indices", "metric.neighborhood_indices")
    tracer.wrap(extension, "build_reference", "extension.build_reference", observe=_reference)
    tracer.wrap(extension, "asymmetric_kernel", "extension.asymmetric_kernel",
                observe=_asymmetric_kernel)
    tracer.wrap(harness, "extend_batch", "extension.extend_batch", observe=_extend)
    tracer.wrap(survival.LocalAlphaFunctional, "detail",
                lambda a: f"survival.detail.{a[0].kind}", observe=_detail)
    tracer.wrap(harness, "kaplan_meier", "survival.kaplan_meier")
    tracer.wrap(harness, "logrank_test", "survival.logrank_test")
    tracer.wrap(cio, "save_model", "io.save_model", observe=_saved)
    tracer.wrap(cio, "load_model", "io.load_model")
    tracer.wrap(simulate, "generate", "simulate.generate")


def wrapper_cost_s(calls: int = 20000) -> float:
    """Measured seconds one traced call adds over a direct call (no-op body)."""
    target = types.SimpleNamespace(noop=lambda *args: None)

    def loop(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(1)
        return time.perf_counter() - t0

    direct = min(loop(target.noop) for _ in range(3))
    probe = Tracer()
    probe.wrap(target, "noop", "probe")
    try:
        traced = min(loop(target.noop) for _ in range(3))
    finally:
        probe.restore()
    return max(traced - direct, 0.0) / calls
