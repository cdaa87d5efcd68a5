import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from cohortmetric import io
from cohortmetric.cli import main
from cohortmetric.config import ConfigError, RunConfig, load_config
from cohortmetric.data import DataMatrix
from cohortmetric.harness import (
    estimates_on_truth_scale,
    fit_pipeline,
    predict,
    recommend_pipeline,
    split_indices,
    validate_pipeline,
)
from cohortmetric.rng import substream
from cohortmetric.simulate import (
    GroundTruth,
    TrialSpec,
    gen_propensity_trial,
    gen_sphere_trial,
    generate,
)
from cohortmetric.survival import BALANCE_THRESHOLD, LocalAlphaFunctional, SurvivalRecords


FAST = dict(dim=3, max_iters=2, min_cohort=15)


@pytest.fixture(scope="module")
def small_trial():
    return gen_sphere_trial(TrialSpec("sphere", n=400, seed=21))


@pytest.fixture(scope="module")
def small_model(small_trial):
    cfg = RunConfig(seed=21, **FAST)
    return fit_pipeline(small_trial.data, small_trial.records, cfg)


# --- config ------------------------------------------------------------------


def test_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"seed": 1, "bogus": True}))
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config(p)


def test_config_ranges():
    with pytest.raises(ConfigError):
        RunConfig(estimator="banana")
    with pytest.raises(ConfigError):
        RunConfig(train_fraction=0.0)


@pytest.mark.parametrize("knob,value", [
    ("dim", 0), ("max_iters", 0), ("seed", -1), ("max_iters", 1.5),
])
def test_invalid_metric_knob_reaches_the_fit_only_as_config_error(knob, value):
    from cohortmetric.metric import CohortFunctional, fit_weighted_metric

    X = np.random.default_rng(0).normal(size=(40, 2))
    F = CohortFunctional.from_labels(X[:, 0], 5)
    with pytest.raises(ConfigError, match=knob):
        fit_weighted_metric(X, F, RunConfig(**{"dim": 2, "max_iters": 1, knob: value}))


def test_readme_names_every_config_knob():
    import dataclasses
    import re

    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
    count, knobs = re.search(r"The config has (\d+) knobs: (.*?)\.", readme).groups()
    names = [f.name for f in dataclasses.fields(RunConfig)]
    assert re.findall(r"`(\w+)`", knobs) == names and int(count) == len(names)


def test_readme_names_resolve():
    # each backticked <module>.<name> of a package module names what the module has
    import importlib
    import pkgutil
    import re

    import cohortmetric

    modules = {m.name for m in pkgutil.iter_modules(cohortmetric.__path__)}
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    named = re.findall(r"`(\w+)\.(?!(?:csv|json|toml|txt)`)(\w+)", readme)  # not file names
    checked = sorted({(mod, name) for mod, name in named if mod in modules})
    assert ("metric", "K_BINS") in checked  # the pattern finds the constants
    missing = [f"{mod}.{name}" for mod, name in checked
               if not hasattr(importlib.import_module(f"cohortmetric.{mod}"), name)]
    assert not missing


def test_config_with_trial_section(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"seed": 3, "trial": {"kind": "sphere", "n": 50}}))
    cfg, trial = load_config(p)
    assert cfg.seed == 3
    assert trial.kind == "sphere" and trial.n == 50


# --- csv round trips ------------------------------------------------------------


def test_dataset_csv_roundtrip(tmp_path, small_trial):
    path = tmp_path / "d.csv"
    io.write_dataset_csv(path, small_trial.data, small_trial.records)
    data, records = io.read_dataset_csv(path)
    assert np.array_equal(data.values, small_trial.data.values)
    assert data.values.flags.c_contiguous
    assert np.array_equal(records.times, small_trial.records.times)
    assert np.array_equal(records.events, small_trial.records.events)
    # writing again from the parsed objects is byte-identical
    path2 = tmp_path / "d2.csv"
    io.write_dataset_csv(path2, data, records)
    assert path.read_bytes() == path2.read_bytes()


def test_truth_csv_roundtrip(tmp_path, small_trial):
    path = tmp_path / "t.csv"
    io.write_truth_csv(path, small_trial.data.point_ids, small_trial.truth)
    _, truth = io.read_truth_csv(path)
    assert np.array_equal(truth.true_effect, small_trial.truth.true_effect)
    assert truth.effect_scale == small_trial.truth.effect_scale


def test_curve_csv_roundtrip(tmp_path, small_trial):
    from cohortmetric.survival import kaplan_meier

    curve = kaplan_meier(small_trial.records)
    path = tmp_path / "c.csv"
    io.write_curve_csv(path, curve)
    back = io.read_curve_csv(path)
    assert np.array_equal(back.times, curve.times)
    assert np.array_equal(back.survival, curve.survival)


@pytest.mark.parametrize("cells", ["missing", "extra", "non-numeric"])
@pytest.mark.parametrize("kind", ["dataset", "truth", "records", "curve", "matrix"])
def test_readers_refuse_a_row_of_the_wrong_width(tmp_path, small_trial, kind, cells):
    from cohortmetric.survival import kaplan_meier

    data, records, path = small_trial.data, small_trial.records, tmp_path / f"{kind}.csv"
    write, read = {
        "dataset": (lambda: io.write_dataset_csv(path, data, records), io.read_dataset_csv),
        "truth": (lambda: io.write_truth_csv(path, data.point_ids, small_trial.truth),
                  io.read_truth_csv),
        "records": (lambda: io.write_records_csv(path, records), io.read_records_csv),
        "curve": (lambda: io.write_curve_csv(path, kaplan_meier(records)), io.read_curve_csv),
        "matrix": (lambda: io.write_matrix_csv(path, data.values, data.point_ids,
                                               data.feature_names), io.read_matrix_csv),
    }[kind]
    write()
    read(path)
    lines = path.read_text().splitlines()
    row = lines[2].split(",")
    want = len(lines[0].split(","))
    if cells == "non-numeric":
        row[1] = "abc"  # the second column is a float column in each of these files
        message = "could not convert string to float: 'abc'"
    else:
        row = row[:-1] if cells == "missing" else [*row, row[-1]]
        message = f"{len(row)} cells under a header of {want}"
    lines[2] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"{kind}.csv, line 3: {message}"):
        read(path)


# --- fit / predict -----------------------------------------------------------------


def test_fit_produces_reference_and_weights(small_model):
    assert small_model.ref.n_ref == 400
    assert small_model.metric.weights.point_weights.shape == (400, 9)


def test_predict_training_points_defined(small_trial, small_model):
    preds = predict(small_model, small_trial.data)
    assert preds.in_support.all()
    assert np.isfinite(preds.estimates).mean() > 0.9
    # the cohort size, max(min_cohort, ceil(5% of n_train)), is 20 here
    assert (preds.n_neighbors == 20).all()


def test_scale_conversion():
    truth_time = GroundTruth(np.zeros(3), np.full(3, 0.5), "time_scaling")
    truth_hz = GroundTruth(np.zeros(3), np.full(3, 0.5), "log_hazard")
    alphas = np.array([1.2, -2.4, 0.0])
    np.testing.assert_allclose(
        estimates_on_truth_scale(alphas, truth_time, 1.2), [-1.0, 2.0, 0.0]
    )
    np.testing.assert_allclose(estimates_on_truth_scale(alphas, truth_hz, 1.2), alphas)


# --- validation ---------------------------------------------------------------------


def test_split_indices_deterministic_and_disjoint():
    tr1, te1 = split_indices(100, 0.8, seed=5, fold=3)
    tr2, te2 = split_indices(100, 0.8, seed=5, fold=3)
    assert np.array_equal(tr1, tr2) and np.array_equal(te1, te2)
    assert len(tr1) == 80 and len(te1) == 20
    assert np.array_equal(np.sort(np.concatenate([tr1, te1])), np.arange(100))
    tr3, _ = split_indices(100, 0.8, seed=5, fold=4)
    assert not np.array_equal(tr1, tr3)


@pytest.mark.parametrize("name, index, extra", [
    ("split", 2, (0,)), ("split", 2, (17,)), ("simulate", 0, ()), ("oracle", 3, ()),
    ("bench", 4, (3,)),
])
def test_substreams_keep_their_indices(name, index, extra):
    # fixed numbers: split_indices' folds and the acceptance oracles keep
    # their draws when a stream is retired
    want = np.random.default_rng(np.random.SeedSequence(904, spawn_key=(index, *extra)))
    got = substream(904, name, *extra)
    assert got.integers(2**62, size=4).tolist() == want.integers(2**62, size=4).tolist()


def test_validate_truth_equal_estimator_gives_ones(small_trial, monkeypatch):
    # plug an estimator that returns the truth: all fold correlations = 1
    import cohortmetric.harness as hz

    truth = small_trial.truth

    def fake_validate_fold(dataset, config, fold):
        _, test_idx = split_indices(dataset.data.n_points, config.train_fraction,
                                    config.seed, fold)
        fhat = truth.true_effect[test_idx]
        from cohortmetric.simulate import score_against_truth

        score = score_against_truth(fhat, dataset.truth.true_effect[test_idx])
        return hz.FoldResult(fold, score.correlation, 1.0, len(test_idx), score.defined)

    monkeypatch.setattr(hz, "validate_fold", fake_validate_fold)
    report = hz.validate_pipeline(small_trial, RunConfig(seed=21, repeats=5, **FAST))
    np.testing.assert_allclose(report.correlations, 1.0)
    assert report.histogram_counts.sum() == 5


def test_validate_end_to_end_small(small_trial):
    cfg = RunConfig(seed=21, repeats=2, **FAST)
    report = validate_pipeline(small_trial, cfg)
    assert len(report.folds) == 2
    assert report.correlations.size >= 1
    assert report.histogram_counts.sum() == report.correlations.size


def test_validate_records_fold_failures_and_continues():
    # training split smaller than two cohorts: every fold fails, run continues
    tiny = gen_sphere_trial(TrialSpec("sphere", n=40, seed=22))
    cfg = RunConfig(seed=22, dim=3, max_iters=1, min_cohort=30, repeats=3)
    report = validate_pipeline(tiny, cfg)
    assert len(report.folds) == 3
    assert all(f.error is not None for f in report.folds)
    assert report.correlations.size == 0


def test_validate_records_the_exception_type_of_a_failed_fold(small_trial, monkeypatch):
    import cohortmetric.harness as hz

    fit = hz.fit_pipeline
    calls = []

    def fit_or_fail(*args):
        calls.append(None)
        if len(calls) == 2:
            raise FloatingPointError("boom")
        return fit(*args)

    monkeypatch.setattr(hz, "fit_pipeline", fit_or_fail)
    report = validate_pipeline(small_trial, RunConfig(seed=21, repeats=2, **FAST))
    assert [f.error for f in report.folds] == [None, "FloatingPointError: boom"]
    assert report.summary_lines()[-1].endswith("error=FloatingPointError: boom")


def test_validate_counts_failed_folds(small_trial, monkeypatch):
    import cohortmetric.harness as hz

    fit = hz.fit_pipeline
    calls = []

    def fail_first(*args):
        calls.append(None)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("singular")
        return fit(*args)

    monkeypatch.setattr(hz, "fit_pipeline", fail_first)
    report = validate_pipeline(small_trial, RunConfig(seed=21, repeats=2, **FAST))
    assert report.n_failed == 1
    assert report.folds[0].error == "LinAlgError: singular" and report.folds[1].error is None
    lines = report.summary_lines()
    assert lines[1] == "failed folds: 1"
    clean = hz.ValidationReport(report.folds[1:], report.correlations, report.histogram_edges,
                                report.histogram_counts)
    assert clean.n_failed == 0 and "failed folds: 0" in clean.summary_lines()


def test_fit_too_large_for_memory_fails_before_any_kernel(small_trial, monkeypatch, tmp_path, capsys):
    import cohortmetric.harness as hz
    import cohortmetric.metric as metric

    kernels = []
    monkeypatch.setattr(metric, "gaussian_kernel", lambda *a, **k: kernels.append(a))
    n, m = small_trial.data.values.shape
    need = hz.estimate_fit_bytes(n, m)
    monkeypatch.setattr(hz, "_physical_memory_bytes", lambda: need - 1)
    with pytest.raises(hz.FitTooLargeError) as info:
        fit_pipeline(small_trial.data, small_trial.records, RunConfig(seed=21, **FAST))
    assert isinstance(info.value, ValueError)
    msg = str(info.value)
    assert f"n={n} " in msg and f"m={m} " in msg
    assert f"{need / 1e6:.0f} MB" in msg and f"{(need - 1) / 1e6:.0f} MB" in msg
    assert kernels == []

    monkeypatch.setattr(hz, "_physical_memory_bytes", lambda: 1)
    cfg = write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["fit", "--config", str(cfg), "--data", str(out / "dataset.csv"),
                 "--out", str(out)]) == 1
    assert "physical memory" in capsys.readouterr().err
    assert kernels == []


def test_fit_memory_estimate_grows_with_size():
    from cohortmetric.harness import estimate_fit_bytes

    assert estimate_fit_bytes(2000, 9) < estimate_fit_bytes(4500, 9)
    assert estimate_fit_bytes(2000, 9) < estimate_fit_bytes(2000, 30)
    # the two measured peaks (136 and 275 MB) are covered within 10%
    assert 136e6 <= estimate_fit_bytes(2000, 9) <= 1.1 * 136e6
    assert 275e6 <= estimate_fit_bytes(4500, 9) <= 1.1 * 275e6


def _last_line_of_a_fresh_interpreter(code: str) -> str:
    """Run `code` in a new Python process on this library, with one BLAS
    thread, and return the last line it prints."""
    import os
    import subprocess
    import sys

    import cohortmetric

    src = str(Path(cohortmetric.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=600)
    return out.stdout.splitlines()[-1]


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's VmHWM")
def test_fit_memory_estimate_bounds_a_measured_fit():
    from cohortmetric.harness import estimate_fit_bytes

    n = 1500
    # the child's ru_maxrss would start from the peak of the process that
    # forked it (this one), so it reads its own high-water mark instead; the
    # estimate is stated for one BLAS thread
    code = (
        "from cohortmetric.config import RunConfig\n"
        "from cohortmetric.harness import fit_pipeline\n"
        "from cohortmetric.simulate import TrialSpec, generate\n"
        f"ds = generate(TrialSpec('sphere', n={n}, seed=0))\n"
        "fit_pipeline(ds.data, ds.records, RunConfig(seed=0))\n"
        "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
    )
    peak_bytes = 1024 * int(_last_line_of_a_fresh_interpreter(code))  # VmHWM is in KiB
    assert peak_bytes < estimate_fit_bytes(n, 9)


def test_the_library_never_imports_scipy_stats(tmp_path):
    """scipy.stats adds about 33 MB to every process; the library takes its
    two scalar functions from scipy.special instead. No module of the
    library needs scipy.cluster either."""
    code = (
        "import sys\n"
        "from cohortmetric import io\n"
        "from cohortmetric.config import RunConfig\n"
        "from cohortmetric.harness import fit_pipeline, predict, recommend_pipeline\n"
        "from cohortmetric.simulate import TrialSpec, generate\n"
        "import cohortmetric.cli\n"
        "ds = generate(TrialSpec('random', n=300, seed=3))\n"
        f"model = fit_pipeline(ds.data, ds.records, RunConfig(seed=3, **{FAST!r}))\n"
        f"io.save_model({str(tmp_path / 'model')!r}, model)\n"
        f"model = io.load_model({str(tmp_path / 'model')!r})\n"
        "predict(model, ds.data)\n"
        "assert recommend_pipeline(model, ds.data, ds.records).logrank is not None\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.stats', 'scipy.cluster'))))\n"
    )
    assert _last_line_of_a_fresh_interpreter(code) == "[]"


# --- recommendation -------------------------------------------------------------------


def test_recommend_partition_and_sizes(small_trial, small_model):
    report = recommend_pipeline(small_model, small_trial.data, small_trial.records, 0.5)
    sizes = report.group_sizes
    total = sizes["recommended"] + sizes["neutral"] + sizes["anti_recommended"]
    assert total + report.n_undefined == small_trial.data.n_points


def test_recommend_huge_threshold_all_neutral(small_trial, small_model):
    report = recommend_pipeline(small_model, small_trial.data, small_trial.records, 1e9)
    assert report.group_sizes["recommended"] == 0
    assert report.group_sizes["anti_recommended"] == 0
    assert report.curve_recommended is None


def test_fit_constant_outcomes_zero_weights():
    rng = np.random.default_rng(33)
    X = rng.uniform(size=(300, 4))
    # every patient has an event: the local estimate is identically zero
    records = SurvivalRecords(
        np.full(300, 0.7), np.ones(300, dtype=int), (rng.random(300) < 0.5).astype(int)
    )
    cfg = RunConfig(seed=33, dim=3, max_iters=3, min_cohort=15)
    model = fit_pipeline(X, records, cfg)
    np.testing.assert_allclose(model.metric.weights.point_weights, 0.0)
    assert model.metric.iterations == cfg.max_iters


def test_fit_sphere_top_weights_are_effect_features():
    ds = gen_sphere_trial(TrialSpec("sphere", n=3000, seed=44))
    cfg = RunConfig(seed=44, dim=5, max_iters=2, min_cohort=25)
    model = fit_pipeline(ds.data, ds.records, cfg)
    mean_w = model.metric.weights.point_weights.mean(axis=0)
    top3 = set(np.argsort(-mean_w)[:3].tolist())
    assert top3 == {0, 1, 2}


@pytest.mark.parametrize("kind, seed", [("sphere", 21), ("random", 31)])
def test_fit_and_predict_equal_those_of_the_frozen_folder_weights(kind, seed, monkeypatch):
    import field_oracle

    import cohortmetric.metric as metric

    trial = generate(TrialSpec(kind, n=500, seed=seed, outcome_target=0.35))
    train_idx, test_idx = split_indices(trial.data.n_points, 0.8, seed=seed, fold=0)
    cfg = RunConfig(seed=seed, **FAST)

    def fit_and_predict():
        model = fit_pipeline(trial.data.subset(train_idx), trial.records.subset(train_idx), cfg)
        return model, predict(model, trial.data.values[test_idx])

    model, preds = fit_and_predict()
    monkeypatch.setattr(metric, "compute_weight_field", field_oracle.weight_field)
    frozen, frozen_preds = fit_and_predict()
    c = cfg.min_cohort
    tree = model.metric.tree
    assert any(c <= len(pts) < 2 * c  # a folder the skip leaves unweighted
               for level in range(1, tree.n_levels + 1) for pts in tree.folders(level))
    assert (model.metric.weights.point_weights.tobytes()
            == frozen.metric.weights.point_weights.tobytes())
    assert tree.to_lines() == frozen.metric.tree.to_lines()
    assert model.ref.coords.tobytes() == frozen.ref.coords.tobytes()
    assert np.isfinite(preds.estimates).any()
    for name in ("estimates", "n_neighbors", "balanced", "in_support", "coords"):
        assert getattr(preds, name).tobytes() == getattr(frozen_preds, name).tobytes(), name


# --- leakage canary ----------------------------------------------------------------------


def _artifact_digest(model_dir: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(model_dir.rglob("*")):
        if p.is_file():
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_fit_ignores_test_rows_and_is_byte_deterministic(tmp_path, small_trial):
    cfg = RunConfig(seed=21, **FAST)
    n = small_trial.data.n_points
    train_idx, test_idx = split_indices(n, 0.8, seed=21, fold=0)
    train_data = small_trial.data.subset(train_idx)
    train_records = small_trial.records.subset(train_idx)

    model1 = fit_pipeline(train_data, train_records, cfg)
    io.save_model(tmp_path / "m1", model1)
    model2 = fit_pipeline(train_data, train_records, cfg)
    io.save_model(tmp_path / "m2", model2)
    assert _artifact_digest(tmp_path / "m1") == _artifact_digest(tmp_path / "m2")

    # perturbing test rows does not touch the artifact
    perturbed = small_trial.data.values.copy()
    perturbed[test_idx] += 123.456
    from cohortmetric.data import DataMatrix

    pdata = DataMatrix(perturbed, small_trial.data.point_ids, small_trial.data.feature_names)
    model3 = fit_pipeline(pdata.subset(train_idx), train_records, cfg)
    io.save_model(tmp_path / "m3", model3)
    assert _artifact_digest(tmp_path / "m1") == _artifact_digest(tmp_path / "m3")


def test_model_roundtrip_predictions_match(tmp_path, small_trial, small_model):
    io.save_model(tmp_path / "model", small_model)
    assert sorted(p.name for p in (tmp_path / "model").iterdir()) == [
        "config.json", "d2.csv", "psi.csv", "ref_coords.csv", "report.txt",
        "singular_values.csv", "train_records.csv", "tree.txt", "weights.csv", "xref.csv",
    ]
    back = io.load_model(tmp_path / "model")
    # inv_diag is rebuilt from weights.csv and lam, not read from a file
    assert back.ref.inv_diag.tobytes() == small_model.ref.inv_diag.tobytes()
    io.save_model(tmp_path / "again", back)
    assert back.metric.tree.to_lines() == small_model.metric.tree.to_lines()
    assert ((tmp_path / "again" / "tree.txt").read_bytes()
            == (tmp_path / "model" / "tree.txt").read_bytes())
    p1 = predict(small_model, small_trial.data.values[:40])
    p2 = predict(back, small_trial.data.values[:40])
    for name in ("estimates", "n_neighbors", "balanced", "in_support", "coords"):
        assert getattr(p1, name).tobytes() == getattr(p2, name).tobytes(), name
    # each step's diagnostics survive the round trip
    assert len(back.metric.history) == back.metric.iterations == small_model.metric.iterations
    for got, fitted in zip(back.metric.history, small_model.metric.history):
        np.testing.assert_equal(got.weight_change, fitted.weight_change)  # NaN first
        assert (got.sigma, got.lam) == (fitted.sigma, fitted.lam)
        assert got.top_eigenvalues == fitted.top_eigenvalues


def test_a_model_saved_with_a_singleton_tree_level_serves_the_same_predictions(
    tmp_path, small_trial, small_model
):
    # earlier versions appended a level of singletons below the fit's tree
    from cohortmetric.tree import PartitionTree

    io.save_model(tmp_path / "model", small_model)
    levels = small_model.metric.tree.levels
    assert any(len(pts) > 1 for pts in levels[-1])
    old = PartitionTree(levels + [[np.array([p]) for p in np.concatenate(levels[-1])]])
    io.save_model(tmp_path / "old", small_model)
    (tmp_path / "old" / "tree.txt").write_text("\n".join(old.to_lines()) + "\n")
    loaded = io.load_model(tmp_path / "old")
    assert loaded.metric.tree.to_lines() == old.to_lines()
    x = small_trial.data.values[:40]
    p1, p2 = predict(io.load_model(tmp_path / "model"), x), predict(loaded, x)
    for name in ("estimates", "n_neighbors", "balanced", "in_support", "coords"):
        assert getattr(p1, name).tobytes() == getattr(p2, name).tobytes(), name


def test_a_model_saved_with_eigenvectors_serves_the_same_predictions(
    tmp_path, small_trial, small_model
):
    # earlier versions also saved the fit's last diffusion embedding: its
    # eigenvectors in eigenvectors.csv and its eigenvalues under config.json's
    # top-level `eigenvalues` key; neither is read
    io.save_model(tmp_path / "model", small_model)
    io.save_model(tmp_path / "old", small_model)
    n, d = small_model.ref.n_ref, small_model.config.dim
    phi = np.random.default_rng(0).normal(size=(n, d + 1))
    io.write_matrix_csv(tmp_path / "old" / "eigenvectors.csv", phi, small_model.train_ids,
                        [f"phi_{j}" for j in range(d + 1)])
    meta = json.loads((tmp_path / "old" / "config.json").read_text())
    meta["eigenvalues"] = [1.0] + [0.5] * d
    (tmp_path / "old" / "config.json").write_text(json.dumps(meta))
    loaded = io.load_model(tmp_path / "old")
    x = small_trial.data.values[:40]
    p1, p2 = predict(io.load_model(tmp_path / "model"), x), predict(loaded, x)
    for name in ("estimates", "n_neighbors", "balanced", "in_support", "coords"):
        assert getattr(p1, name).tobytes() == getattr(p2, name).tobytes(), name


def test_model_arrays_that_predict_reads_are_c_contiguous(tmp_path, small_model):
    # a Fortran-ordered array rounds differently in predict's products, so a
    # fitted model would not predict the bits of its loaded copy
    io.save_model(tmp_path / "model", small_model)
    for model in (small_model, io.load_model(tmp_path / "model")):
        for name in ("x_ref", "inv_diag", "psi", "d2", "coords"):
            assert getattr(model.ref, name).flags.c_contiguous, name


def test_model_report_holds_plain_numbers(tmp_path, small_model):
    import ast

    io.save_model(tmp_path / "model", small_model)
    lines = (tmp_path / "model" / "report.txt").read_text().splitlines()
    assert lines[:2] == ["fit diagnostics", f"iterations: {small_model.metric.iterations}"]
    assert len(lines) == 2 + small_model.metric.iterations
    for i, line in enumerate(lines[2:], start=1):
        assert "np." not in line
        head, rest = line.split(": ", 1)
        assert head == f"iter {i}"
        body, eigen = rest.split(" top_eigenvalues=")
        fields = dict(pair.split("=") for pair in body.split())
        assert sorted(fields) == ["lam", "sigma", "weight_change"]
        for value in fields.values():
            float(value)  # raises on anything but a plain number
        values = ast.literal_eval(eigen)
        assert values and all(type(v) is float for v in values)


def test_new_points_must_be_rows(small_trial, small_model):
    from cohortmetric.extension import extend_batch

    cube = np.zeros((2, 3, small_trial.data.n_features))
    with pytest.raises(ValueError, match="2-d"):
        extend_batch(small_model.ref, cube)
    with pytest.raises(ValueError, match="2-d"):
        predict(small_model, cube)
    # a single point is still one row
    one = predict(small_model, small_trial.data.values[0])
    assert one.coords.shape == (1, small_model.ref.rank)


def test_predict_cohorts_are_the_nearest_reference_points(small_trial, small_model, monkeypatch):
    from dataclasses import replace

    from cohortmetric.extension import extend_batch

    Z = small_trial.data.values[:30] + 0.01
    seen = []
    detail = LocalAlphaFunctional.detail

    def spy(self, indices):
        seen.append(np.asarray(indices))
        return detail(self, indices)

    monkeypatch.setattr(LocalAlphaFunctional, "detail", spy)
    predict(small_model, Z)
    coords, _ = extend_batch(small_model.ref, Z)
    k = small_model.metric.cohort_size
    assert len(seen) == len(Z)
    for z, nbhd in zip(coords, seen):
        d = np.linalg.norm(small_model.ref.coords - z[None, :], axis=1)
        assert np.array_equal(nbhd, np.argsort(d, kind="stable")[:k])

    # a neighbourhood below min_cohort is reported, with no estimate
    seen.clear()
    small = replace(small_model, metric=replace(small_model.metric, cohort_size=5))
    preds = predict(small, Z)
    assert seen == []
    assert (preds.n_neighbors == 5).all() and np.isnan(preds.estimates).all()
    assert not preds.balanced.any()


def test_predict_serves_a_point_alike_in_any_batch(small_model):
    # the reference kernel is a matrix product, so a row's last bits may
    # change with the batch's row count; the cohorts and estimates must not
    Z = gen_sphere_trial(TrialSpec("sphere", n=60, seed=22)).data.values
    whole = predict(small_model, Z)
    assert np.isfinite(whole.estimates).sum() > 50
    for size in (1, 7):
        parts = [predict(small_model, Z[i:i + size]) for i in range(0, len(Z), size)]
        for field in ("estimates", "balanced", "n_neighbors", "in_support"):
            got = np.concatenate([getattr(p, field) for p in parts])
            assert got.tobytes() == getattr(whole, field).tobytes(), (size, field)
        coords = np.vstack([p.coords for p in parts])
        np.testing.assert_allclose(coords, whole.coords, rtol=1e-12, atol=0)


@pytest.fixture(scope="module")
def sphere_model():
    """A serving-size sphere model (n_train = 2000, the c08 knobs) and 1000
    new patients."""
    trial = gen_sphere_trial(TrialSpec("sphere", n=2000, seed=23))
    model = fit_pipeline(trial.data, trial.records,
                         RunConfig(seed=23, dim=5, max_iters=4, min_cohort=25))
    return model, gen_sphere_trial(TrialSpec("sphere", n=1000, seed=24)).data.values


@pytest.mark.parametrize("which", ["small", "sphere"])
def test_served_cohorts_and_estimates_equal_the_frozen_plane_rule(
        request, small_trial, which, monkeypatch):
    import cohortmetric.harness as harness_mod

    import plane_knn

    if which == "small":
        model = request.getfixturevalue("small_model")
        new = gen_sphere_trial(TrialSpec("sphere", n=200, seed=22)).data.values
        Z = np.vstack([small_trial.data.values, new])
    else:
        model, Z = request.getfixturevalue("sphere_model")
    detail = LocalAlphaFunctional.detail

    def served(rule):
        cohorts = []

        def spy(self, indices):
            cohorts.append(np.sort(indices))
            return detail(self, indices)

        monkeypatch.setattr(LocalAlphaFunctional, "detail", spy)
        monkeypatch.setattr(harness_mod, "neighborhood_indices", rule)
        return predict(model, Z), cohorts

    got, got_cohorts = served(harness_mod.neighborhood_indices)
    want, want_cohorts = served(plane_knn.neighborhood_indices)
    assert len(got_cohorts) == len(want_cohorts) == len(Z)
    assert all(np.array_equal(g, w) for g, w in zip(got_cohorts, want_cohorts))
    for field in ("estimates", "balanced", "n_neighbors"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    assert np.isfinite(got.estimates).mean() > 0.9


def test_predict_builds_its_functional_once_per_model(small_trial, small_model, monkeypatch):
    from dataclasses import replace

    import cohortmetric.harness as harness_mod

    built = []

    class Counted(LocalAlphaFunctional):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(harness_mod, "LocalAlphaFunctional", Counted)
    model = replace(small_model)
    Z = small_trial.data.values[:30]
    first = predict(model, Z)
    assert predict(model, Z).estimates.tobytes() == first.estimates.tobytes()
    assert len(built) == 1 and model.functional.kind == model.config.estimator == "partial"
    # a replaced model builds its own, from its own config
    moments = replace(model, config=replace(model.config, estimator="moments"))
    assert moments.functional is not model.functional and moments.functional.kind == "moments"
    assert len(built) == 2
    want = [LocalAlphaFunctional(model.records, "moments", model.config.min_cohort).detail(c)
            for c in harness_mod.neighborhood_indices(
                model.ref.coords, first.coords, model.metric.cohort_size)]
    got = predict(moments, Z)
    assert np.array_equal(got.estimates, [w.alpha if w.defined else np.nan for w in want],
                          equal_nan=True)


def test_multiscale_coarse_value_is_the_served_estimate(small_trial, small_model):
    from cohortmetric.metric import multiscale_estimate

    model, cfg = small_model, small_model.config
    preds = predict(model, small_trial.data)
    assert preds.coords.tobytes() == model.ref.coords.tobytes()
    F = LocalAlphaFunctional(model.records, cfg.estimator, cfg.min_cohort)
    served = np.flatnonzero(np.isfinite(preds.estimates))
    assert served.size > 300
    for i in served:
        dec = multiscale_estimate(model.ref.coords, model.metric.cohort_size, F, i)
        assert dec.coarse_value == preds.estimates[i]


def test_predict_balance_flag_is_the_cohort_estimate_flag(monkeypatch):
    # probit treatment assignment: many cohorts here are mostly one arm
    trial = gen_propensity_trial(TrialSpec("propensity", n=400, seed=21))
    cfg = RunConfig(seed=21, **{**FAST, "max_iters": 1})
    model = fit_pipeline(trial.data, trial.records, cfg)
    seen = []
    detail = LocalAlphaFunctional.detail

    def spy(self, indices):
        seen.append(detail(self, indices))
        return seen[-1]

    monkeypatch.setattr(LocalAlphaFunctional, "detail", spy)
    preds = predict(model, trial.data.values)
    # every point here gets a cohort estimate, in order
    assert preds.in_support.all() and (preds.n_neighbors >= cfg.min_cohort).all()
    assert len(seen) == 400
    defined = np.isfinite(preds.estimates)
    assert defined.sum() > 100
    flags = np.array([est.balanced for est in seen])
    assert np.array_equal(preds.balanced[defined], flags[defined])
    shares = np.array([max(est.n0, est.n1) / est.size for est in seen])
    assert np.array_equal(flags, shares <= BALANCE_THRESHOLD)
    assert (flags & defined).any() and (~flags & defined).any()


def test_loaded_model_keeps_neighborhood_rule(tmp_path, small_model):
    # the cohort size, max(min_cohort, ceil(5% of n_train)), is 20 here
    io.save_model(tmp_path / "model", small_model)
    assert small_model.metric.cohort_size == 20
    assert io.load_model(tmp_path / "model").metric.cohort_size == 20


# knobs of earlier versions, at their old defaults: a model saved with one must be refit
STALE_KEYS = {"tol": 1e-3, "tree_method": "topdown", "bottomup_eps": None, "tau": 0.0,
              "sigma0": None, "sigma_weighted": None, "weight_lam": None, "knn": None,
              "radius": None, "min_folder": None, "time": 1.0, "weight_alpha": 1.0,
              "k_bins": 3, "branching": 2, "weight_estimator": "moments",
              "balance_threshold": 0.8}


@pytest.mark.parametrize("key", list(STALE_KEYS))
def test_stale_config_key_in_a_saved_model_is_a_config_error(tmp_path, small_trial, small_model,
                                                             key):
    model_dir = tmp_path / "model"
    io.save_model(model_dir, small_model)
    meta = json.loads((model_dir / "config.json").read_text())
    meta["config"][key] = STALE_KEYS[key]
    (model_dir / "config.json").write_text(json.dumps(meta))
    with pytest.raises(ConfigError, match=key):
        io.load_model(model_dir)
    data = tmp_path / "data.csv"
    io.write_dataset_csv(data, small_trial.data, small_trial.records)
    assert main(["recommend", "--model", str(model_dir), "--data", str(data),
                 "--out", str(tmp_path / "rec")]) == 2


@pytest.mark.parametrize("value", [5, None, ["dim"], "dim"],
                         ids=["number", "null", "list", "string"])
def test_a_saved_config_that_is_not_an_object_is_a_config_error(tmp_path, small_trial,
                                                               small_model, value):
    model_dir = tmp_path / "model"
    io.save_model(model_dir, small_model)
    meta = json.loads((model_dir / "config.json").read_text())
    meta["config"] = value
    (model_dir / "config.json").write_text(json.dumps(meta))
    with pytest.raises(ConfigError, match="config must be a JSON object"):
        io.load_model(model_dir)
    data = tmp_path / "data.csv"
    io.write_dataset_csv(data, small_trial.data, small_trial.records)
    assert main(["extend", "--model", str(model_dir), "--data", str(data),
                 "--out", str(tmp_path / "ext")]) == 2


@pytest.mark.parametrize("path", [
    ("config",), ("lam",), ("sigma",), ("feature_names",), ("history",),
    ("history", 0, "weight_change"), ("history", 0, "sigma"), ("history", 0, "lam"),
    ("history", 1, "top_eigenvalues"),
], ids=lambda path: "-".join(map(str, path)))
def test_cli_on_a_saved_config_without_a_key_exits_1(tmp_path, small_trial, small_model, capsys,
                                                     path):
    model_dir = tmp_path / "model"
    io.save_model(model_dir, small_model)
    meta = json.loads((model_dir / "config.json").read_text())
    *within, key = path
    entry = meta
    for step in within:
        entry = entry[step]
    del entry[key]
    (model_dir / "config.json").write_text(json.dumps(meta))
    data = tmp_path / "data.csv"
    io.write_dataset_csv(data, small_trial.data, small_trial.records)
    where = f"history entry {within[1] + 1} has " if within else ""
    for command in ("extend", "recommend"):
        assert main([command, "--model", str(model_dir), "--data", str(data),
                     "--out", str(tmp_path / command)]) == 1
        err = capsys.readouterr().err
        assert f"error: {model_dir / 'config.json'}: {where}no '{key}' key" in err, err


@pytest.mark.parametrize("path, value, message", [
    (("sigma",), None, "'sigma' is not a number: None"),
    (("sigma",), "1.5", "'sigma' is not a number: '1.5'"),
    (("lam",), [1.0], "'lam' is not a number: [1.0]"),
    (("lam",), True, "'lam' is not a number: True"),
    (("history",), 5, "'history' is not a list of objects: 5"),
    (("history",), [[]], "'history' is not a list of objects: [[]]"),
    (("history", 0, "sigma"), "abc", "history entry 1: 'sigma' is not a number: 'abc'"),
    (("history", 1, "lam"), False, "history entry 2: 'lam' is not a number: False"),
    (("history", 1, "weight_change"), "0.1",
     "history entry 2: 'weight_change' is not a number: '0.1'"),
    (("history", 0, "top_eigenvalues"), [None],
     "history entry 1: 'top_eigenvalues' is not a list of numbers: [None]"),
    (("feature_names",), 5, "'feature_names' is not a list of strings: 5"),
    (("feature_names",), ["x_1", 2], "'feature_names' is not a list of strings: ['x_1', 2]"),
    (("feature_names",), ["x_1"], "'feature_names' ['x_1'] differ from xref.csv's header"),
    (("feature_names",), [f"x_{i}" for i in (2, 1, 3, 4, 5, 6, 7, 8, 9)],
     "'feature_names' ['x_2', 'x_1', 'x_3', 'x_4', 'x_5', 'x_6', 'x_7', 'x_8', 'x_9'] differ"),
], ids=["sigma-null", "sigma-str", "lam-list", "lam-bool", "history-number",
        "history-of-lists", "history-0-sigma-str", "history-1-lam-bool",
        "history-1-weight_change-str", "history-0-top_eigenvalues-null",
        "feature_names-number", "feature_names-with-a-number", "feature_names-one-short",
        "feature_names-reordered"])
def test_cli_on_a_saved_config_value_of_the_wrong_type_exits_1(tmp_path, small_trial,
                                                                small_model, capsys, path,
                                                                value, message):
    model_dir = tmp_path / "model"
    io.save_model(model_dir, small_model)
    meta = json.loads((model_dir / "config.json").read_text())
    *within, key = path
    entry = meta
    for step in within:
        entry = entry[step]
    entry[key] = value
    (model_dir / "config.json").write_text(json.dumps(meta))
    data = tmp_path / "data.csv"
    io.write_dataset_csv(data, small_trial.data, small_trial.records)
    for command in ("extend", "recommend"):
        assert main([command, "--model", str(model_dir), "--data", str(data),
                     "--out", str(tmp_path / command)]) == 1
        err = capsys.readouterr().err
        assert f"error: {model_dir / 'config.json'}: {message}" in err, err


def test_a_saved_history_of_null_weight_changes_loads(tmp_path, small_model):
    model_dir = tmp_path / "model"
    io.save_model(model_dir, small_model)
    meta = json.loads((model_dir / "config.json").read_text())
    assert meta["history"][0]["weight_change"] is None  # the first step's change is undefined
    meta["history"][1]["weight_change"] = None
    (model_dir / "config.json").write_text(json.dumps(meta))
    history = io.load_model(model_dir).metric.history
    assert np.isnan(history[0].weight_change) and np.isnan(history[1].weight_change)


@pytest.mark.parametrize("key", ["lam", "sigma"])
def test_nan_in_a_saved_config_is_a_value_error(tmp_path, small_model, key):
    model_dir = tmp_path / "model"
    io.save_model(model_dir, small_model)
    meta = json.loads((model_dir / "config.json").read_text())
    meta[key] = float("nan")
    (model_dir / "config.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=key):
        io.load_model(model_dir)


def test_an_infinite_saved_sigma_is_a_value_error(tmp_path, small_model):
    # an infinite bandwidth would serve an all-ones kernel row per point
    model_dir = tmp_path / "model"
    io.save_model(model_dir, small_model)
    meta = json.loads((model_dir / "config.json").read_text())
    meta["sigma"] = float("inf")
    (model_dir / "config.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="sigma must be finite and positive, got inf"):
        io.load_model(model_dir)


def test_saved_dim_that_disagrees_with_the_eigenpairs_is_a_value_error(tmp_path, small_model):
    model_dir = tmp_path / "model"
    io.save_model(model_dir, small_model)
    meta = json.loads((model_dir / "config.json").read_text())
    meta["config"]["dim"] = 1
    (model_dir / "config.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=r"singular_values.csv: 4 values, more than the "
                                         r"dim \+ 1 = 2 of config.json"):
        io.load_model(model_dir)


@pytest.mark.parametrize("case", ["level gap", "repeated folder id", "wrong parent id"])
def test_a_corrupt_tree_file_is_refused_naming_its_line(tmp_path, small_model, case):
    model_dir = tmp_path / "model"
    io.save_model(model_dir, small_model)
    path = model_dir / "tree.txt"
    fields = [line.split(",") for line in path.read_text().splitlines()]
    if case == "level gap":  # levels 1, ..., L - 1, L + 5
        last = int(fields[-1][0])
        at = next(i for i, f in enumerate(fields) if f[0] == str(last))
        for f in fields[at:]:
            f[0] = str(last + 5)
        message = f"line {at + 1}: level {last + 5} where level {last} belongs"
    elif case == "repeated folder id":
        at = next(i for i, f in enumerate(fields) if f[:2] == ["2", "1"])
        fields[at][1] = "0"
        message = f"line {at + 1}: folder id 0 of level 2 repeats"
    else:  # a folder of level 3 inside folder 0 of level 2, said to be in folder 1
        at = next(i for i, f in enumerate(fields) if f[0] == "3" and f[2] == "0")
        fields[at][2] = "1"
        message = f"line {at + 1}: parent id 1 of folder {fields[at][1]} at level 3, where 0"
    path.write_text("\n".join(",".join(f) for f in fields) + "\n")
    with pytest.raises(ValueError, match=message):
        io.load_model(model_dir)


def test_cli_extend_on_a_corrupt_tree_exits_1(tmp_path, small_trial, small_model, capsys):
    model_dir = tmp_path / "model"
    io.save_model(model_dir, small_model)
    lines = (model_dir / "tree.txt").read_text().splitlines()
    first, second = [i for i, line in enumerate(lines) if line.startswith("2,")][:2]
    lines[first] += "," + lines[second].split(",")[3]  # a point in both level-2 folders
    (model_dir / "tree.txt").write_text("\n".join(lines) + "\n")
    data = tmp_path / "data.csv"
    io.write_dataset_csv(data, small_trial.data, small_trial.records)
    assert main(["extend", "--model", str(model_dir), "--data", str(data),
                 "--out", str(tmp_path / "ext")]) == 1
    assert "error: level 2: folders overlap or miss a point" in capsys.readouterr().err


def test_cli_fit_exits_1_on_an_eigensolver_failure(tmp_path, small_trial, monkeypatch, capsys):
    from cohortmetric import metric
    from cohortmetric.diffusion import EigensolverError

    def fail(*args, **kwargs):
        raise EigensolverError("spectrum violates Markov bounds: top values [1.5]")

    monkeypatch.setattr(metric, "spectral_embed", fail)
    data = tmp_path / "data.csv"
    io.write_dataset_csv(data, small_trial.data, small_trial.records)
    assert main(["fit", "--data", str(data), "--out", str(tmp_path / "fit")]) == 1
    assert "error: spectrum violates Markov bounds" in capsys.readouterr().err


def _reverse_rows(lines):
    return lines[:1] + lines[:0:-1]


@pytest.mark.parametrize("name, edit, message", [
    ("train_records.csv", _reverse_rows, "row ids differ from those of xref.csv"),
    ("train_records.csv", lambda lines: lines[:-40], "row ids differ from those of xref.csv"),
    ("psi.csv", lambda lines: lines[:-40], "360 rows, but xref.csv has 400"),
    ("ref_coords.csv", lambda lines: [line.rsplit(",", 1)[0] for line in lines],
     "rank 3, but singular_values.csv holds 4"),
    ("d2.csv", lambda lines: [line.split(",")[0] for line in lines],
     "0 value columns, expected one"),
    ("singular_values.csv", lambda lines: [line.split(",")[0] for line in lines],
     "0 value columns, expected one"),
    ("d2.csv", lambda lines: [line + "," + line.split(",")[1] for line in lines],
     "2 value columns, expected one"),
], ids=["records_reversed", "records_cut", "psi_cut", "rank",
        "d2_ids_only", "singular_values_ids_only", "d2_two_columns"])
def test_model_files_that_disagree_are_refused(tmp_path, small_trial, small_model, capsys,
                                               name, edit, message):
    model_dir = tmp_path / "model"
    io.save_model(model_dir, small_model)
    assert small_model.ref.n_ref == 400 and small_model.ref.rank == 4
    path = model_dir / name
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=f"{name}: {message}"):
        io.load_model(model_dir)
    data = tmp_path / "data.csv"
    io.write_dataset_csv(data, small_trial.data, small_trial.records)
    assert main(["extend", "--model", str(model_dir), "--data", str(data),
                 "--out", str(tmp_path / "ext")]) == 1
    assert f"{name}: {message}" in capsys.readouterr().err


def test_cli_extend_reads_a_dataset_file_by_its_header(tmp_path, small_trial, small_model, capsys):
    model_dir = tmp_path / "model"
    io.save_model(model_dir, small_model)
    data, points = tmp_path / "data.csv", tmp_path / "points.csv"
    io.write_dataset_csv(data, small_trial.data, small_trial.records)
    io.write_matrix_csv(points, small_trial.data.values, small_trial.data.point_ids,
                        small_trial.data.feature_names)
    for name, path in (("dataset", data), ("features", points)):
        assert main(["extend", "--model", str(model_dir), "--data", str(path),
                     "--out", str(tmp_path / name)]) == 0
    assert ((tmp_path / "dataset" / "extended.csv").read_bytes()
            == (tmp_path / "features" / "extended.csv").read_bytes())
    # a dataset file with a bad record is refused as a dataset, not read as features
    header, first, *rows = data.read_text().splitlines()
    data.write_text("\n".join([header, first.rsplit(",", 1)[0] + ",2", *rows]) + "\n")
    capsys.readouterr()
    for command in ("extend", "recommend"):
        assert main([command, "--model", str(model_dir), "--data", str(data),
                     "--out", str(tmp_path / command)]) == 1
        assert capsys.readouterr().err == "error: events and treatments must be 0/1\n"
        assert not (tmp_path / command).exists()


# --- CLI -------------------------------------------------------------------------------


def write_cfg(tmp_path, **kw):
    trial = kw.pop("trial", {"kind": "sphere", "n": 300, "seed": 7})
    payload = {"trial": trial, **FAST, **kw}
    p = tmp_path / "config.json"
    p.write_text(json.dumps(payload))
    return p


def test_cli_simulate_deterministic(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "dataset.csv").read_bytes()
    b = (tmp_path / "b" / "dataset.csv").read_bytes()
    assert hashlib.sha256(a).hexdigest() == hashlib.sha256(b).hexdigest()
    assert (tmp_path / "a" / "truth.csv").exists()
    assert (tmp_path / "a" / "spec_echo.json").exists()


def test_cli_invalid_spec_exits_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"trial": {"kind": "sphere", "n": 10, "weibull_lam": -2.0}}))
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2


def test_cli_fit_validate_recommend_extend(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["fit", "--config", str(cfg), "--data", str(out / "dataset.csv"),
                 "--out", str(out)]) == 0
    assert (out / "model" / "config.json").exists()
    assert (out / "model" / "report.txt").exists()
    assert main(["validate", "--config", str(cfg), "--data", str(out / "dataset.csv"),
                 "--truth", str(out / "truth.csv"), "--out", str(out), "--repeats", "2"]) == 0
    assert (out / "histogram.csv").exists()
    assert (out / "report.txt").exists()
    assert main(["recommend", "--model", str(out / "model"),
                 "--data", str(out / "dataset.csv"), "--out", str(out / "rec")]) == 0
    assert (out / "rec" / "report.txt").exists()
    assert main(["extend", "--model", str(out / "model"),
                 "--data", str(out / "dataset.csv"), "--out", str(out / "ext")]) == 0
    ids, rows, header = io.read_matrix_csv(out / "ext" / "extended.csv")
    assert header[-3:] == ["f_hat", "neighborhood_size", "balance_flag"]
    assert len(ids) == 300


@pytest.mark.parametrize("given", ["--data", "--truth"])
def test_cli_validate_refuses_data_or_truth_alone(tmp_path, capsys, given):
    cfg = write_cfg(tmp_path)  # with a trial section it could validate
    out = tmp_path / "out"
    assert main(["validate", "--config", str(cfg), given, str(tmp_path / "absent.csv"),
                 "--out", str(out)]) == 2
    assert "--data and --truth together" in capsys.readouterr().err
    assert not out.exists()


def test_cli_propensity_trial_of_one_feature_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"trial": {"kind": "propensity", "n": 50, "dim": 1}}))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 2
    assert "dimension >= 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("trial", [
    {"kind": "sphere", "weibull_lam": float("nan")},  # written as NaN, which json reads
    {"kind": "sphere", "sup_effect": 0.0},
    {"kind": "propensity", "dim": 4, "gamma": [1.0, 1.0]},
    {"kind": "sphere", "gamma": [1.0] * 9},
    {"kind": "sphere", "n": 50.5},
    {"kind": "sphere", "n": True},
    {"kind": "sphere", "dim": 9.0},
    {"kind": "sphere", "seed": 1.5},
    {"kind": "sphere", "seed": -1},
    {"kind": "propensity", "gamma0": float("nan")},
    {"kind": "propensity", "dim": 2, "gamma": [1.0, float("nan")]},
    {"kind": "random", "condition_bound": float("inf")},  # written as Infinity
    {"kind": "sphere", "pocket_width": 0.0},
    {"kind": "sphere", "pocket_width": -0.3},
])
def test_cli_simulate_refuses_a_bad_trial_value_with_exit_2(tmp_path, capsys, trial):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"trial": {"n": 50, **trial}}))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 2
    assert "invalid trial spec" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "validate"])
@pytest.mark.parametrize("kind", ["sphere", "propensity"])
def test_cli_trial_with_neither_horizon_nor_outcome_target_exits_2(tmp_path, capsys, command, kind):
    # a random trial draws its outcome target; the other kinds cannot be generated
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"trial": {"kind": kind, "n": 50, "horizon": None}}))
    out = tmp_path / "o"
    assert main([command, "--config", str(p), "--out", str(out)]) == 2
    assert f"a {kind} trial needs a horizon or an outcome_target" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fault", ["reordered", "truncated", "mixed_scales"])
def test_cli_validate_refuses_a_truth_file_that_does_not_match_the_dataset(
    tmp_path, small_trial, capsys, fault
):
    data, truth = tmp_path / "dataset.csv", tmp_path / "truth.csv"
    io.write_dataset_csv(data, small_trial.data, small_trial.records)
    io.write_truth_csv(truth, small_trial.data.point_ids, small_trial.truth)
    header, *rows = truth.read_text().splitlines()
    if fault == "reordered":
        rows.sort(key=lambda row: float(row.split(",")[1]))  # by effect
    elif fault == "truncated":
        rows = rows[:200]
    else:
        assert small_trial.truth.effect_scale == "time_scaling"
        rows[-1] = rows[-1].rsplit(",", 1)[0] + ",log_hazard"
    truth.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "out"
    assert main(["validate", "--data", str(data), "--truth", str(truth), "--out", str(out),
                 "--repeats", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {truth}")
    assert ("effect_scale holds more than one value" if fault == "mixed_scales"
            else "truth ids are not") in err
    assert not (out / "report.txt").exists()


def test_cli_extend_and_recommend_apply_the_model_overrides(tmp_path, small_trial, small_model):
    from dataclasses import replace

    model_dir = tmp_path / "model"
    io.save_model(model_dir, small_model)
    data = tmp_path / "data.csv"
    io.write_dataset_csv(data, small_trial.data, small_trial.records)
    f_hat = {}
    for name, flags in (("default", []), ("moments", ["--estimator", "moments"])):
        assert main(["extend", "--model", str(model_dir), "--data", str(data),
                     "--out", str(tmp_path / name), *flags]) == 0
        _, rows, header = io.read_matrix_csv(tmp_path / name / "extended.csv")
        f_hat[name] = rows[:, header.index("f_hat")]
    moments = replace(small_model, config=small_model.config.replace(estimator="moments"))
    np.testing.assert_array_equal(f_hat["moments"], predict(moments, small_trial.data).estimates)
    assert not np.array_equal(f_hat["moments"], f_hat["default"], equal_nan=True)

    assert main(["recommend", "--model", str(model_dir), "--data", str(data),
                 "--out", str(tmp_path / "rec"), "--c-threshold", "1e9"]) == 0
    report = recommend_pipeline(small_model, small_trial.data, small_trial.records, 1e9)
    assert report.group_sizes["recommended"] == report.group_sizes["anti_recommended"] == 0
    assert ((tmp_path / "rec" / "report.txt").read_text()
            == "\n".join(report.summary_lines()) + "\n")


def test_cli_extend_and_recommend_apply_the_config_file_with_flags_winning(
        tmp_path, small_trial, small_model):
    model_dir = tmp_path / "model"
    io.save_model(model_dir, small_model)
    data = tmp_path / "data.csv"
    io.write_dataset_csv(data, small_trial.data, small_trial.records)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"estimator": "moments", "c_threshold": 1e9}))

    def extended(name, *flags):
        assert main(["extend", "--model", str(model_dir), "--data", str(data),
                     "--out", str(tmp_path / name), *flags]) == 0
        return (tmp_path / name / "extended.csv").read_bytes()

    moments = extended("flag", "--estimator", "moments")
    assert extended("file", "--config", str(cfg)) == moments
    assert extended("both", "--config", str(cfg), "--estimator", "partial") == extended("plain")
    assert moments != extended("plain")

    def report(name, *flags):
        assert main(["recommend", "--model", str(model_dir), "--data", str(data),
                     "--out", str(tmp_path / name), *flags]) == 0
        return (tmp_path / name / "report.txt").read_text()

    assert report("rec_file", "--config", str(cfg)) == report(
        "rec_flags", "--estimator", "moments", "--c-threshold", "1e9")
    assert report("rec_both", "--config", str(cfg), "--c-threshold", "0.5",
                  "--estimator", "partial") == report("rec_plain")


@pytest.mark.parametrize("command", ["extend", "recommend"])
@pytest.mark.parametrize("flag", ["--seed", "--repeats"])
def test_cli_serving_commands_refuse_fit_flags(tmp_path, small_trial, small_model, command, flag):
    model_dir = tmp_path / "model"
    io.save_model(model_dir, small_model)
    data = tmp_path / "data.csv"
    io.write_dataset_csv(data, small_trial.data, small_trial.records)
    with pytest.raises(SystemExit) as info:
        main([command, "--model", str(model_dir), "--data", str(data),
              "--out", str(tmp_path / "o"), flag, "3"])
    assert info.value.code == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["extend", "recommend"])
@pytest.mark.parametrize("payload", [
    {"dim": 4, "min_cohort": 40},
    {"estimator": "moments", "seed": 3},
    {"trial": {"kind": "sphere", "n": 300, "seed": 7}},
])
def test_cli_serving_commands_refuse_fit_keys_in_the_config_file(
        tmp_path, small_trial, small_model, capsys, command, payload):
    model_dir = tmp_path / "model"
    io.save_model(model_dir, small_model)
    data = tmp_path / "data.csv"
    io.write_dataset_csv(data, small_trial.data, small_trial.records)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    assert main([command, "--model", str(model_dir), "--data", str(data),
                 "--out", str(tmp_path / "o"), "--config", str(cfg)]) == 2
    fit_keys = sorted(set(payload) - {"estimator", "c_threshold"})
    assert f"{fit_keys} act only on a fit" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("width", [8, 10])
def test_points_of_another_width_are_refused(tmp_path, small_trial, small_model, capsys, width):
    X = small_trial.data.values
    Z = np.column_stack([X, X[:, :1]]) if width > X.shape[1] else X[:, :width]
    with pytest.raises(ValueError, match=f"points have {width} features, the reference points 9"):
        predict(small_model, Z)
    model_dir = tmp_path / "model"
    io.save_model(model_dir, small_model)
    data = tmp_path / "data.csv"
    io.write_dataset_csv(data, DataMatrix(Z), small_trial.records)
    for command in ("extend", "recommend"):
        assert main([command, "--model", str(model_dir), "--data", str(data),
                     "--out", str(tmp_path / command)]) == 1
        assert f"error: points have {width} features" in capsys.readouterr().err
        assert not (tmp_path / command).exists()


def test_points_with_reordered_features_are_refused(tmp_path, small_trial, small_model, capsys):
    data = small_trial.data
    names = list(data.feature_names)
    reversed_dm = DataMatrix(data.values[:, ::-1], data.point_ids, names[::-1])
    with pytest.raises(ValueError) as exc:
        predict(small_model, reversed_dm)
    assert str(names) in str(exc.value) and str(names[::-1]) in str(exc.value)
    # the model's own feature order is served
    assert predict(small_model, data.subset(np.arange(50))).in_support.all()
    model_dir = tmp_path / "model"
    io.save_model(model_dir, small_model)
    csv_path = tmp_path / "data.csv"
    io.write_dataset_csv(csv_path, reversed_dm, small_trial.records)
    for command in ("extend", "recommend"):
        assert main([command, "--model", str(model_dir), "--data", str(csv_path),
                     "--out", str(tmp_path / command)]) == 1
        assert f"do not match the model's {names}" in capsys.readouterr().err
        assert not (tmp_path / command).exists()


def test_cli_refit_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "run2"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["fit", "--config", str(cfg), "--data", str(out / "dataset.csv"),
                 "--out", str(out / "f1")]) == 0
    assert main(["fit", "--config", str(cfg), "--data", str(out / "dataset.csv"),
                 "--out", str(out / "f2")]) == 0
    assert _artifact_digest(out / "f1" / "model") == _artifact_digest(out / "f2" / "model")
