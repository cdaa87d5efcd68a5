"""The two benchmark workloads.

Each builds its inputs from the seed, times its unit of work until the run's
seconds are spent, and checks the outputs against gates. The library only
sees the generated inputs; every call into it goes through the module
attribute the tracer may have wrapped (``harness.fit_pipeline`` and so on).

serve-sphere
    A sphere trial is fitted (n_train = 2000: top-down tree, ARPACK, dense
    weighted kernel and the full n_ref^3 ``eigh`` of the reference), saved
    and loaded back in set-up. The loaded model then serves new patients,
    drawn from an independent seed, in batches of 50 from one closed-loop
    client, at least 100 batches so that the p90 latency has ten samples
    beyond it. The partial-likelihood estimator, extension and kNN query
    dominate the timed part. The check recommends on 1000 of the new
    patients (the c10 protocol at c08's held-out size).
validate-random
    Repeated-split validation of a random-model trial: ``validate_fold``
    until the run's seconds are spent, at least three folds. Each fold fits
    1440 patients (the dense ``eigh`` side of the n <= 1500 solver switch)
    and predicts the 2160 held out in one call; about 35% of the patients
    have an outcome, against about 98% in the sphere data.
"""

from __future__ import annotations

import logging
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cohortmetric.harness as harness
import cohortmetric.io as cio
import cohortmetric.simulate as simulate
from cohortmetric.config import RunConfig
from cohortmetric.simulate import TrialSpec, score_against_truth

# c08/c09/c10 pipeline knobs
PIPE = dict(dim=5, max_iters=4, min_cohort=25)
C_THRESHOLD = 0.5
CORR_GATE = 0.6
LOGRANK_GATE = 0.05
# Outcome fraction of the random-model trial. Left to the seed it is drawn
# from [1/3, 1], which changes the events per cohort, and with them the
# estimator's work, threefold from seed to seed.
OUTCOME_TARGET = 0.35
# new patients are drawn from this offset of the workload seed, a stream
# independent of the training trial
NEW_PATIENT_SEED_OFFSET = 1_000_003


@dataclass(frozen=True)
class Sizes:
    serve_n: int = 2000
    batch: int = 50
    min_batches: int = 100  # p90 then has 10 samples beyond it
    recommend_n: int = 1000  # c08's held-out size
    serve_setup_repeats: int = 2  # each one fits a model
    # 40% of 3600 trains 1440 patients, as c09's 80% of 1800 does, and
    # leaves 2160 held out, so that the folds' predicts are seconds of work
    validate_n: int = 3600
    validate_train_fraction: float = 0.4
    min_folds: int = 3
    # Generating the random trial takes milliseconds: it repeats at least
    # this often and for at least this long, and set-up is their median.
    setup_repeats: int = 25
    setup_seconds: float = 2.0


BENCH = Sizes()


@dataclass
class Outcome:
    setup_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    gates: dict = field(default_factory=dict)
    # name -> (value, unit, samples): workload figures printed beside the
    # benchmark metrics
    report: dict = field(default_factory=dict)

    def gate(self, name: str, ok: bool) -> None:
        self.gates[name] = bool(ok)
        self.attempted += 1
        self.failed += 0 if ok else 1


def _fail(what: str, outcome: Outcome) -> None:
    outcome.failed += 1
    print(f"{what} failed:", file=sys.stderr)
    traceback.print_exc()


def _set_up(tracer, repeats: int, seconds: float, build, outcome: Outcome):
    """Build the workload's state at least ``repeats`` times and for at
    least ``seconds``; every build's time goes into ``outcome.setup_s``."""
    tracer.phase = "setup"
    state = None
    t_end = time.perf_counter() + seconds
    while len(outcome.setup_s) < repeats or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        state = build()
        outcome.setup_s.append(time.perf_counter() - t0)
    return state


def _median_of(values, unit: str):
    return (float(np.median(values)) if values else float("nan"), unit, len(values))


def _same_bits(a, b) -> bool:
    fields_ = ("estimates", "n_neighbors", "balanced", "in_support", "coords")
    return all(np.asarray(getattr(a, f)).tobytes() == np.asarray(getattr(b, f)).tobytes()
               for f in fields_)


def _predict_batches(model, pool, sizes: Sizes, t_end: float, out: Outcome):
    """Closed loop, one client: ``predict`` on ``pool`` in batches, cycling
    through it, until ``t_end`` and at least one pass over the pool.

    Returns the predictions of the first pass over the pool, or None when a
    batch raised.
    """
    n_batches = -(-len(pool) // sizes.batch)
    first_pass = []
    b = 0
    while b < n_batches or time.perf_counter() < t_end:
        i0 = (b % n_batches) * sizes.batch
        out.attempted += 1
        try:
            preds = harness.predict(model, pool[i0:i0 + sizes.batch])
        except Exception:  # deterministic: a retry would fail alike
            _fail(f"batch {b}", out)
            return None
        if b < n_batches:
            first_pass.append(preds)
        b += 1
    return first_pass


def serve_sphere(seed: int, seconds: float, tracer, sizes: Sizes = BENCH,
                 scratch: Path | None = None) -> Outcome:
    out = Outcome()
    pool_n = sizes.batch * sizes.min_batches  # one pass over the pool is min_batches

    def build():
        ds = simulate.generate(TrialSpec("sphere", n=sizes.serve_n, seed=seed))
        fitted = harness.fit_pipeline(ds.data, ds.records, RunConfig(seed=seed, **PIPE))
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            cio.save_model(Path(tmp) / "model", fitted)
            loaded = cio.load_model(Path(tmp) / "model")
        new = simulate.generate(
            TrialSpec("sphere", n=pool_n, seed=seed + NEW_PATIENT_SEED_OFFSET))
        return fitted, loaded, new

    fitted, loaded, new = _set_up(tracer, sizes.serve_setup_repeats, 0.0, build, out)
    pool = new.data.values
    tracer.phase = "timed"
    first_pass = _predict_batches(loaded, pool, sizes, time.perf_counter() + seconds, out)

    tracer.phase = "check"
    if first_pass is None:
        out.gate("every batch completed", False)
        return out
    reference = harness.predict(fitted, pool[:sizes.batch])
    out.gate("loaded model predicts bitwise equal to in-memory model",
             _same_bits(first_pass[0], reference))
    out.gate("every new patient in support", all(p.in_support.all() for p in first_pass))

    estimates = np.concatenate([p.estimates for p in first_pass])
    balanced = np.concatenate([p.balanced for p in first_pass])
    truth_scale = harness.estimates_on_truth_scale(estimates, new.truth, new.spec.weibull_k)
    score = score_against_truth(truth_scale, new.truth.true_effect, keep=balanced)
    out.report["heldout_corr"] = (score.correlation, "corr", pool_n)
    out.report["kept_fraction"] = (score.kept_fraction, "ratio", pool_n)
    out.gate(f"heldout_corr >= {CORR_GATE}", score.defined and score.correlation >= CORR_GATE)

    first = np.arange(sizes.recommend_n)
    t0 = time.perf_counter()
    out.attempted += 1
    try:
        report = harness.recommend_pipeline(loaded, new.data.subset(first),
                                            new.records.subset(first), C_THRESHOLD)
    except Exception:  # deterministic: a retry would fail alike
        _fail("recommend", out)
        return out
    out.report["recommend_s"] = (time.perf_counter() - t0, "s", 1)
    lr = report.logrank
    p_value = lr.p_value if lr is not None and lr.defined else float("nan")
    out.report["logrank_p"] = (p_value, "p", 1)
    out.gate(f"log-rank p < {LOGRANK_GATE}", p_value < LOGRANK_GATE)
    return out


def validate_random(seed: int, seconds: float, tracer, sizes: Sizes = BENCH) -> Outcome:
    out = Outcome()

    def build():
        return simulate.generate(TrialSpec("random", n=sizes.validate_n, seed=seed, dim=9,
                                           horizon=None, outcome_target=OUTCOME_TARGET))

    ds = _set_up(tracer, sizes.setup_repeats, sizes.setup_seconds, build, out)
    cfg = RunConfig(seed=seed, train_fraction=sizes.validate_train_fraction, **PIPE)
    tracer.phase = "timed"
    folds = []
    t_end = time.perf_counter() + seconds
    while len(folds) < sizes.min_folds or time.perf_counter() < t_end:
        out.attempted += 1
        try:
            folds.append(harness.validate_fold(ds, cfg, len(folds)))
        except Exception:  # deterministic: a retry would fail alike
            _fail(f"fold {len(folds)}", out)
            break
    out.report["fold_s"] = _median_of(tracer.durations("harness.validate_fold", "timed"), "s")

    tracer.phase = "check"
    defined = [f.correlation for f in folds if f.defined and np.isfinite(f.correlation)]
    median = float(np.median(defined)) if defined else float("nan")
    out.report["fold_corr_median"] = (median, "corr", len(defined))
    out.report["kept_fraction"] = _median_of([f.kept_fraction for f in folds], "ratio")
    out.gate("no fold error", out.failed == 0 and len(folds) >= sizes.min_folds)
    out.gate("fold_corr_median defined", bool(np.isfinite(median)))
    return out


WORKLOADS = {
    "serve-sphere": serve_sphere,
    "validate-random": validate_random,
}


def quiet_library() -> None:
    """The fit logs a warning per non-converged fit; keep run output readable."""
    logging.getLogger("cohortmetric").setLevel(logging.ERROR)
