"""Coverage of the benchmark's spans, at a tiny size.

Run from the repository root: ``python3 -m pytest bench``. A wrapper put on
a binding the caller never looks up records no span, so every named span
must fire on the workloads meant to exercise it. Tracing must not change
what the library computes.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cohortmetric.harness as harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY = workloads.Sizes(serve_n=200, batch=20, min_batches=5, recommend_n=100,
                       serve_setup_repeats=1, validate_n=400, min_folds=2,
                       setup_repeats=1, setup_seconds=0.0)
SEED = 5

FIT_SPANS = {
    "diffusion.gaussian_kernel", "diffusion.markov_normalize", "diffusion.spectral_embed",
    "tree.build_topdown", "tree.kmeans_split",
    "metric.fit_weighted_metric", "metric.weighted_kernel", "metric.compute_weight_field",
    "metric.neighborhood_indices",
    "extension.build_reference", "extension.asymmetric_kernel", "extension.extend_batch",
    "survival.detail.moments", "survival.detail.partial",
    "harness.fit_pipeline", "harness.predict", "simulate.generate",
}
EXPECTED = {
    "serve-sphere": FIT_SPANS | {"io.save_model", "io.load_model", "survival.kaplan_meier",
                                 "survival.logrank_test", "harness.recommend_pipeline"},
    "validate-random": FIT_SPANS | {"harness.validate_fold"},
}


def run(name, traced, tmp_path):
    kwargs = {"scratch": tmp_path} if name == "serve-sphere" else {}
    with Tracer() as tracer:
        layers.install(tracer, full=traced)
        outcome = workloads.WORKLOADS[name](SEED, 0.0, tracer, sizes=TINY, **kwargs)
    return tracer, outcome


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    workloads.quiet_library()
    out = {}
    for name in workloads.WORKLOADS:
        tmp = tmp_path_factory.mktemp(name)
        out[name] = {traced: run(name, traced, tmp) for traced in (False, True)}
    return out


def test_layer_map_names_every_expected_span():
    assert set().union(*EXPECTED.values()) == set(layers.SPANS)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_every_named_span_fires(runs, name):
    tracer, _ = runs[name][True]
    fired = {s.name for s in tracer.spans}
    assert EXPECTED[name] <= fired, sorted(EXPECTED[name] - fired)
    assert fired <= set(layers.SPANS)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_tracing_leaves_quality_unchanged(runs, name):
    (_, plain), (_, traced) = runs[name][False], runs[name][True]
    quality = {k: v for k, v in plain.report.items() if not k.endswith("_s")}
    assert quality
    assert quality == {k: traced.report[k] for k in quality}
    assert plain.gates == traced.gates
    assert (plain.attempted, plain.failed) == (traced.attempted, traced.failed)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_untraced_run_times_only_entry_points(runs, name):
    tracer, _ = runs[name][False]
    assert {s.name for s in tracer.spans} <= {
        "harness.fit_pipeline", "harness.predict", "harness.validate_fold",
        "harness.recommend_pipeline"}


def test_restore_puts_library_back():
    original = harness.predict
    with Tracer() as tracer:
        layers.install(tracer, full=True)
        assert harness.predict is not original
    assert harness.predict is original


def test_counts_reported(runs):
    tracer, _ = runs["serve-sphere"][True]
    for name in ("tree.levels", "tree.folders", "metric.iterations",
                 "metric.weighted_kernel.pair_evals", "extension.rank",
                 "extension.asymmetric_kernel.pair_evals", "io.model_bytes"):
        assert name in tracer.counts, name
    n, m = TINY.serve_n, 9
    fits = len(tracer.of("metric.weighted_kernel"))
    assert tracer.counts["metric.weighted_kernel.pair_evals"] == fits * n * (n + 1) // 2 * m


def test_benchmark_file_lists_what_run_reports(runs):
    import json

    import run

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    tracer, outcome = runs["serve-sphere"][True]
    e2e = run.end_to_end(tracer, outcome)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v[1] for k, v in e2e.items()}
    per = run.per_layer(tracer, layers)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v[1] for k, v in per.items()}
