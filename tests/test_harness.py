import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from cohortmetric import io
from cohortmetric.cli import main
from cohortmetric.config import ConfigError, RunConfig, load_config
from cohortmetric.harness import (
    estimates_on_truth_scale,
    fit_pipeline,
    predict,
    recommend_pipeline,
    split_indices,
    validate_pipeline,
)
from cohortmetric.metric import NeighborhoodRule
from cohortmetric.simulate import GroundTruth, TrialSpec, gen_sphere_trial
from cohortmetric.survival import LocalAlphaFunctional, SurvivalRecords


FAST = dict(dim=3, max_iters=2, min_cohort=15, min_folder=20, knn=30)


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
        RunConfig(balance_threshold=1.5)
    with pytest.raises(ConfigError):
        RunConfig(estimator="banana")
    with pytest.raises(ConfigError):
        RunConfig(train_fraction=0.0)


@pytest.mark.parametrize("knob,value", [
    ("branching", 1), ("k_bins", 0), ("dim", 0), ("time", 0.0), ("time", np.nan),
    ("tau", -1.0), ("tau", np.nan), ("sigma0", 0.0), ("sigma_weighted", np.nan),
    ("weight_lam", -1.0), ("weight_alpha", -0.5), ("weight_alpha", np.inf),
    ("min_folder", 0), ("tree_method", "kmeans"), ("bottomup_eps", 0.0), ("knn", 0),
    ("radius", np.nan), ("max_iters", 0), ("seed", -1),
    ("branching", 2.5), ("max_iters", 1.5), ("knn", 7.5), ("min_folder", 5.5), ("k_bins", True),
])
def test_invalid_metric_knob_reaches_the_fit_only_as_config_error(knob, value):
    from cohortmetric.metric import CohortFunctional, fit_weighted_metric

    X = np.random.default_rng(0).normal(size=(40, 2))
    F = CohortFunctional.from_labels(X[:, 0], 5)
    with pytest.raises(ConfigError, match=knob):
        fit_weighted_metric(X, F, RunConfig(**{"dim": 2, "max_iters": 1, knob: value}))


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


# --- fit / predict -----------------------------------------------------------------


def test_fit_produces_reference_and_weights(small_model):
    assert small_model.ref.n_ref == 400
    assert small_model.metric.weights.point_weights.shape == (400, 9)


def test_predict_training_points_defined(small_trial, small_model):
    preds = predict(small_model, small_trial.data)
    assert preds.in_support.all()
    assert np.isfinite(preds.estimates).mean() > 0.9
    assert (preds.n_neighbors >= 30).all()


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
    report = hz.validate_pipeline(small_trial, RunConfig(seed=21, **FAST), repeats=5)
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
    cfg = RunConfig(seed=22, dim=3, max_iters=1, min_cohort=30, min_folder=10)
    report = validate_pipeline(tiny, cfg, repeats=3)
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
    report = validate_pipeline(small_trial, RunConfig(seed=21, **FAST), repeats=2)
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
    report = validate_pipeline(small_trial, RunConfig(seed=21, **FAST), repeats=2)
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


def test_bottomup_fit_is_sized_with_its_tree(small_trial, monkeypatch):
    import cohortmetric.harness as hz

    n, m = small_trial.data.values.shape
    monkeypatch.setattr(hz, "_physical_memory_bytes", lambda: hz.estimate_fit_bytes(n, m))
    with pytest.raises(hz.FitTooLargeError):
        fit_pipeline(small_trial.data, small_trial.records,
                     RunConfig(seed=21, tree_method="bottomup", **FAST))


def test_fit_memory_estimate_grows_with_size():
    from cohortmetric.harness import estimate_fit_bytes

    assert estimate_fit_bytes(2000, 9) < estimate_fit_bytes(4500, 9)
    assert estimate_fit_bytes(2000, 9) < estimate_fit_bytes(2000, 30)
    # the two measured peaks (200 and 467 MB) are covered within 10%
    assert 200e6 <= estimate_fit_bytes(2000, 9) <= 1.1 * 200e6
    assert 467e6 <= estimate_fit_bytes(4500, 9) <= 1.1 * 467e6
    # a bottom-up fit with every point in its own ball measured 221 MB
    assert 221e6 <= estimate_fit_bytes(2000, 9, "bottomup") <= 1.1 * 221e6


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
    cfg = RunConfig(seed=33, dim=3, max_iters=3, min_cohort=15, min_folder=20)
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
        "config.json", "d2.csv", "eigenvectors.csv", "psi.csv", "ref_coords.csv",
        "report.txt", "singular_values.csv", "train_records.csv", "tree.txt",
        "weights.csv", "xref.csv",
    ]
    back = io.load_model(tmp_path / "model")
    # inv_diag is rebuilt from weights.csv and lam, not read from a file
    assert back.ref.inv_diag.tobytes() == small_model.ref.inv_diag.tobytes()
    p1 = predict(small_model, small_trial.data.values[:40])
    p2 = predict(back, small_trial.data.values[:40])
    np.testing.assert_allclose(p1.coords, p2.coords, atol=1e-12)
    np.testing.assert_allclose(p1.estimates, p2.estimates, equal_nan=True)
    # each step's diagnostics survive the round trip
    assert len(back.metric.history) == back.metric.iterations == small_model.metric.iterations
    for got, fitted in zip(back.metric.history, small_model.metric.history):
        np.testing.assert_equal(got.weight_change, fitted.weight_change)  # NaN first
        assert (got.sigma, got.lam) == (fitted.sigma, fitted.lam)
        assert got.top_eigenvalues == fitted.top_eigenvalues


def test_bottomup_fit_roundtrips_through_a_saved_model(tmp_path, small_trial):
    # bottomup_eps unset: the fit covers with 5% of the embedding's span
    cfg = RunConfig(seed=21, tree_method="bottomup", **FAST)
    model = fit_pipeline(small_trial.data, small_trial.records, cfg)
    assert model.metric.tree.n_levels > 2
    io.save_model(tmp_path / "model", model)
    back = io.load_model(tmp_path / "model")
    io.save_model(tmp_path / "again", back)
    assert back.metric.tree.to_lines() == model.metric.tree.to_lines()
    assert (tmp_path / "again" / "tree.txt").read_bytes() == (tmp_path / "model" / "tree.txt").read_bytes()
    p1 = predict(model, small_trial.data.values[:40])
    p2 = predict(back, small_trial.data.values[:40])
    for name in ("estimates", "n_neighbors", "balanced", "in_support", "coords"):
        assert getattr(p1, name).tobytes() == getattr(p2, name).tobytes(), name


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
    k = small_model.metric.neighborhood.k
    assert len(seen) == len(Z)
    for z, nbhd in zip(coords, seen):
        d = np.linalg.norm(small_model.ref.coords - z[None, :], axis=1)
        assert np.array_equal(nbhd, np.argsort(d, kind="stable")[:k])

    # a neighbourhood below min_cohort is reported, with no estimate
    seen.clear()
    small = replace(small_model, metric=replace(small_model.metric,
                                                neighborhood=NeighborhoodRule("knn", k=5)))
    preds = predict(small, Z)
    assert seen == []
    assert (preds.n_neighbors == 5).all() and np.isnan(preds.estimates).all()
    assert not preds.balanced.any()


def test_predict_balance_flag_is_the_cohort_estimate_flag(small_trial, monkeypatch):
    cfg = RunConfig(seed=21, **{**FAST, "max_iters": 1}, balance_threshold=0.6)
    model = fit_pipeline(small_trial.data, small_trial.records, cfg)
    seen = []
    detail = LocalAlphaFunctional.detail

    def spy(self, indices):
        seen.append(detail(self, indices))
        return seen[-1]

    monkeypatch.setattr(LocalAlphaFunctional, "detail", spy)
    preds = predict(model, small_trial.data.values[:150])
    # every point here gets a cohort estimate, in order
    assert preds.in_support.all() and (preds.n_neighbors >= cfg.min_cohort).all()
    assert len(seen) == 150
    defined = np.isfinite(preds.estimates)
    assert defined.sum() > 100
    flags = np.array([est.balanced for est in seen])
    assert np.array_equal(preds.balanced[defined], flags[defined])
    shares = np.array([max(est.n0, est.n1) / est.size for est in seen])
    assert np.array_equal(flags, shares <= 0.6)
    # cohorts the default threshold would call balanced and 0.6 does not
    assert ((shares > 0.6) & (shares <= 0.8) & defined).any()


def test_loaded_model_keeps_neighborhood_rule(tmp_path, small_trial):
    # the default knn size, max(min_cohort, ceil(5% of n_train)), is 20 here
    expected = {
        "default": ({"knn": None}, NeighborhoodRule("knn", k=20)),
        "knn": ({"knn": 30}, NeighborhoodRule("knn", k=30)),
        "radius": ({"knn": None, "radius": 0.5}, NeighborhoodRule("radius", eps=0.5)),
    }
    for name, (knobs, rule) in expected.items():
        cfg = RunConfig(seed=21, **{**FAST, "max_iters": 1, **knobs})
        model = fit_pipeline(small_trial.data, small_trial.records, cfg)
        io.save_model(tmp_path / name, model)
        assert model.metric.neighborhood == rule, name
        assert io.load_model(tmp_path / name).metric.neighborhood == rule, name


def test_stale_config_key_in_a_saved_model_is_a_config_error(tmp_path, small_trial, small_model):
    model_dir = tmp_path / "model"
    io.save_model(model_dir, small_model)
    meta = json.loads((model_dir / "config.json").read_text())
    meta["config"]["tol"] = 1e-3
    (model_dir / "config.json").write_text(json.dumps(meta))
    with pytest.raises(ConfigError, match="tol"):
        io.load_model(model_dir)
    data = tmp_path / "data.csv"
    io.write_dataset_csv(data, small_trial.data, small_trial.records)
    assert main(["recommend", "--model", str(model_dir), "--data", str(data),
                 "--out", str(tmp_path / "rec")]) == 2


@pytest.mark.parametrize("key", ["lam", "sigma"])
def test_nan_in_a_saved_config_is_a_value_error(tmp_path, small_model, key):
    model_dir = tmp_path / "model"
    io.save_model(model_dir, small_model)
    meta = json.loads((model_dir / "config.json").read_text())
    meta[key] = float("nan")
    (model_dir / "config.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=key):
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


def test_cli_refit_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "run2"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["fit", "--config", str(cfg), "--data", str(out / "dataset.csv"),
                 "--out", str(out / "f1")]) == 0
    assert main(["fit", "--config", str(cfg), "--data", str(out / "dataset.csv"),
                 "--out", str(out / "f2")]) == 0
    assert _artifact_digest(out / "f1" / "model") == _artifact_digest(out / "f2" / "model")
