"""End-to-end pipelines: fit, predict, repeated-split validation, recommend."""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import RunConfig
from .data import DataMatrix
from .extension import ReferenceEmbedding, build_reference_from_metric, extend_batch
from .metric import RegularizedMetric, fit_weighted_metric, neighborhood_indices
from .rng import substream
from .simulate import GroundTruth, TrialDataset, score_against_truth
from .survival import (
    LocalAlphaFunctional,
    LogRankResult,
    SurvivalCurve,
    SurvivalRecords,
    kaplan_meier,
    logrank_test,
    recommend_groups,
)

logger = logging.getLogger(__name__)

WEIGHT_ESTIMATOR = "moments"  # the local-effect estimator that drives the fit's weights


@dataclass(frozen=True)
class FittedModel:
    metric: RegularizedMetric
    ref: ReferenceEmbedding
    records: SurvivalRecords  # training records (functional support)
    config: RunConfig
    feature_names: tuple[str, ...]
    train_ids: np.ndarray

    @cached_property
    def functional(self) -> LocalAlphaFunctional:
        """`predict`'s cohort functional: the config's estimator on the
        training records, built once per model (a `dataclasses.replace`
        of the model builds its own)."""
        return LocalAlphaFunctional(self.records, self.config.estimator, self.config.min_cohort)


@dataclass(frozen=True)
class Predictions:
    estimates: np.ndarray  # local alpha per point, NaN when undefined
    n_neighbors: np.ndarray
    balanced: np.ndarray
    in_support: np.ndarray
    coords: np.ndarray


class FitTooLargeError(ValueError):
    """The fit's estimated peak memory exceeds the machine's physical memory."""


def estimate_fit_bytes(n: int, m: int) -> int:
    """Upper estimate of the peak resident bytes of `fit_pipeline` on n points
    and m features.

    8 bytes times 1.15n^2 + 2^21 + 8nm floats, plus 92 MB for the
    interpreter with numpy and the library's scipy modules loaded (73 MB)
    and allocator slack.
    The peak holds one n x n array (a kernel, normalized into S in its own
    buffer, or the reference kernel A, whose eigenpairs ARPACK takes without
    forming A'A) with its slack, one 2^21-float row block of the symmetry
    check or the symmetrization, and a few n x m arrays. Measured sphere fits
    (m=9, 2-vCPU AMD EPYC host, one BLAS thread, seeds 0-2) peak at 79,
    133-135 and 273-276 MB (1 MB = 10^6 bytes) for n=400, 2000 and 4500,
    against estimates of 111, 147 and 298 MB. The partition tree is left
    out: each of its levels holds n point indices.
    """
    return int(92e6 + 8 * (1.15 * n * n + 2**21 + 8 * n * m))


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def fit_pipeline(data, records: SurvivalRecords, config: RunConfig) -> FittedModel:
    """Fit the function-weighted metric on training data and freeze the
    reference decomposition for out-of-sample use.

    Raises FitTooLargeError, before any kernel is built, when the estimated
    peak memory exceeds physical memory."""
    dm = data if isinstance(data, DataMatrix) else DataMatrix(np.asarray(data, dtype=float))
    if dm.n_points != len(records):
        raise ValueError(f"{dm.n_points} data rows vs {len(records)} records")
    n, m = dm.values.shape
    need, have = estimate_fit_bytes(n, m), _physical_memory_bytes()
    if need > have:
        raise FitTooLargeError(
            f"a fit of n={n} points with m={m} features needs about {need / 1e6:.0f} MB "
            f"at peak, more than the {have / 1e6:.0f} MB of physical memory"
        )
    functional = LocalAlphaFunctional(records, WEIGHT_ESTIMATOR, config.min_cohort)
    metric = fit_weighted_metric(dm.values, functional, config)
    ref = build_reference_from_metric(dm.values, metric)
    return FittedModel(
        metric=metric,
        ref=ref,
        records=records,
        config=config,
        feature_names=dm.feature_names,
        train_ids=np.asarray(dm.point_ids),
    )


def predict(model: FittedModel, Z) -> Predictions:
    """Local treatment-effect estimates for new points via the reference set.

    Estimates are on the log-hazard (harm) scale; undefined cohorts carry NaN.
    A DataMatrix must name the model's features in the model's order; raw
    arrays are checked only for their width.
    """
    coords, in_support = extend_batch(model.ref, Z)  # checks the width
    if isinstance(Z, DataMatrix) and Z.feature_names != model.feature_names:
        raise ValueError(f"features {list(Z.feature_names)} do not match the model's "
                         f"{list(model.feature_names)}")
    cfg, functional = model.config, model.functional
    n = coords.shape[0]
    estimates = np.full(n, np.nan)
    n_neighbors = np.zeros(n, dtype=int)
    balanced = np.zeros(n, dtype=bool)
    rows = np.flatnonzero(in_support)
    # one neighbourhood pass for the whole batch
    cohorts = neighborhood_indices(model.ref.coords, coords[rows], model.metric.cohort_size)
    for i, nbhd in zip(rows, cohorts):
        n_neighbors[i] = nbhd.size
        if nbhd.size < cfg.min_cohort:
            continue
        est = functional.detail(nbhd)
        balanced[i] = est.balanced
        if est.defined and np.isfinite(est.alpha):
            estimates[i] = est.alpha
    return Predictions(estimates, n_neighbors, balanced, in_support, coords)


def estimates_on_truth_scale(alphas: np.ndarray, truth: GroundTruth,
                             weibull_k: float) -> np.ndarray:
    """Convert harm-scale local alphas onto the ground-truth scale.

    Time-scaling trials store the benefit exponent beta; a hazard multiplier
    e^alpha corresponds to beta = -alpha/k under the Weibull baseline.
    """
    if truth.effect_scale == "time_scaling":
        return -np.asarray(alphas) / weibull_k
    return np.asarray(alphas)


@dataclass(frozen=True)
class FoldResult:
    fold: int
    correlation: float
    kept_fraction: float
    n_test: int
    defined: bool
    error: str | None = None


@dataclass(frozen=True)
class ValidationReport:
    folds: tuple
    correlations: np.ndarray  # defined folds only
    histogram_edges: np.ndarray
    histogram_counts: np.ndarray

    @property
    def n_failed(self) -> int:
        """Folds that raised instead of giving a score."""
        return sum(f.error is not None for f in self.folds)

    @property
    def median_correlation(self) -> float:
        return float(np.median(self.correlations)) if self.correlations.size else np.nan

    @property
    def mean_correlation(self) -> float:
        return float(np.mean(self.correlations)) if self.correlations.size else np.nan

    def summary_lines(self) -> list[str]:
        lines = [
            f"folds: {len(self.folds)} (defined: {self.correlations.size})",
            f"failed folds: {self.n_failed}",
            f"correlation mean: {self.mean_correlation:.4f}",
            f"correlation median: {self.median_correlation:.4f}",
        ]
        if self.correlations.size:
            lines.append(f"correlation std: {float(np.std(self.correlations)):.4f}")
        for f in self.folds:
            lines.append(
                f"fold {f.fold}: corr={f.correlation:.4f} kept={f.kept_fraction:.3f} "
                f"n_test={f.n_test}" + (f" error={f.error}" if f.error else "")
            )
        return lines


def split_indices(n: int, train_fraction: float, seed: int, fold: int):
    rng = substream(seed, "split", fold)
    perm = rng.permutation(n)
    n_train = int(round(train_fraction * n))
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def validate_fold(dataset: TrialDataset, config: RunConfig, fold: int) -> FoldResult:
    n = dataset.data.n_points
    train_idx, test_idx = split_indices(n, config.train_fraction, config.seed, fold)
    train_data = dataset.data.subset(train_idx)
    test_data = dataset.data.subset(test_idx)
    model = fit_pipeline(train_data, dataset.records.subset(train_idx), config)
    preds = predict(model, test_data)
    fhat = estimates_on_truth_scale(preds.estimates, dataset.truth, dataset.spec.weibull_k)
    score = score_against_truth(
        fhat, dataset.truth.true_effect[test_idx], keep=preds.balanced
    )
    return FoldResult(fold, score.correlation, score.kept_fraction, len(test_idx), score.defined)


def validate_pipeline(dataset: TrialDataset, config: RunConfig) -> ValidationReport:
    """Repeated random sub-sampling validation over `config.repeats` folds:
    fit on a train split, estimate the held-out points through the reference
    extension only, and score against the ground truth under the balance
    filter."""
    folds = []
    for fold in range(config.repeats):
        try:
            folds.append(validate_fold(dataset, config, fold))
        except Exception as exc:  # a failed fold is recorded, the run continues
            logger.warning("fold %d failed: %s", fold, exc)
            folds.append(FoldResult(fold, np.nan, 0.0, 0, False,
                                    error=f"{type(exc).__name__}: {exc}"))
    corr = np.array([f.correlation for f in folds if f.defined and np.isfinite(f.correlation)])
    edges = np.linspace(-1.0, 1.0, 21)  # 20 equal bins of the correlation's range
    counts, _ = np.histogram(corr, bins=edges)
    return ValidationReport(tuple(folds), corr, edges, counts)


@dataclass(frozen=True)
class RecommendationReport:
    estimates: np.ndarray
    sigma: float
    threshold: float
    group_sizes: dict
    recommended_idx: np.ndarray
    neutral_idx: np.ndarray
    anti_idx: np.ndarray
    curve_recommended: SurvivalCurve | None
    curve_anti: SurvivalCurve | None
    logrank: LogRankResult | None
    n_undefined: int

    def summary_lines(self) -> list[str]:
        lines = [
            f"estimate sigma: {self.sigma:.6g}",
            f"threshold (c*sigma): {self.threshold:.6g}",
            "group sizes: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.group_sizes.items())),
            f"undefined estimates: {self.n_undefined}",
        ]
        if self.logrank is not None and self.logrank.defined:
            lines.append(
                f"log-rank: statistic={self.logrank.statistic:.4f} p={self.logrank.p_value:.6g}"
            )
        else:
            lines.append("log-rank: not defined (missing group or no events)")
        return lines


def recommend_pipeline(model: FittedModel, test_data, test_records: SurvivalRecords,
                       c_threshold: float | None = None) -> RecommendationReport:
    """Group held-out patients by the recommendation rules and compare the
    survival of those who followed vs went against the recommendation."""
    c = c_threshold if c_threshold is not None else model.config.c_threshold
    preds = predict(model, test_data)
    defined = np.isfinite(preds.estimates)
    n_undefined = int((~defined).sum())
    idx_defined = np.where(defined)[0]
    f = preds.estimates[defined]
    arms = test_records.treatments[defined]
    groups = recommend_groups(f, arms, c)
    rec_idx = idx_defined[groups.recommended]
    neu_idx = idx_defined[groups.neutral]
    anti_idx = idx_defined[groups.anti_recommended]
    curve_rec = curve_anti = None
    lr = None
    if rec_idx.size and anti_idx.size:
        rec_records = test_records.subset(rec_idx)
        anti_records = test_records.subset(anti_idx)
        curve_rec = kaplan_meier(rec_records)
        curve_anti = kaplan_meier(anti_records)
        lr = logrank_test(rec_records, anti_records)
    else:
        logger.warning("empty Recommended or Anti-Recommended group; curves omitted")
    return RecommendationReport(
        estimates=preds.estimates,
        sigma=groups.sigma,
        threshold=groups.threshold,
        group_sizes={
            "recommended": int(rec_idx.size),
            "neutral": int(neu_idx.size),
            "anti_recommended": int(anti_idx.size),
        },
        recommended_idx=rec_idx,
        neutral_idx=neu_idx,
        anti_idx=anti_idx,
        curve_recommended=curve_rec,
        curve_anti=curve_anti,
        logrank=lr,
        n_undefined=n_undefined,
    )
