"""Command-line surface: simulate | fit | validate | recommend | extend.

Exit codes: 0 success, 1 runtime failure, 2 config/validation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import io
from .config import ConfigError, RunConfig, load_config
from .harness import fit_pipeline, predict, recommend_pipeline, validate_pipeline
from .simulate import TrialDataset, TrialSpec, generate

logger = logging.getLogger(__name__)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohortmetric",
        description="Function-weighted diffusion metrics for censored A/B outcome data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fits=True):
        p.add_argument("--config", type=Path, help="JSON config file")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        if fits:  # a saved model keeps the seed it was fitted with and validates nothing
            p.add_argument("--seed", type=int, help="root seed override")
            p.add_argument("--repeats", type=int, help="validation repeats override")
        p.add_argument("--estimator", choices=("moments", "partial"),
                       help="local-effect estimator override")
        p.add_argument("--c-threshold", type=float, dest="c_threshold",
                       help="recommendation threshold multiplier override")

    p_sim = sub.add_parser("simulate", help="generate a synthetic trial dataset")
    common(p_sim)

    p_fit = sub.add_parser("fit", help="fit the weighted metric on a dataset")
    common(p_fit)
    p_fit.add_argument("--data", type=Path, required=True, help="dataset CSV")

    p_val = sub.add_parser("validate", help="repeated-split validation against ground truth")
    common(p_val)
    p_val.add_argument("--data", type=Path, help="dataset CSV (with --truth)")
    p_val.add_argument("--truth", type=Path, help="ground-truth CSV")

    p_rec = sub.add_parser("recommend", help="recommendation groups and survival curves")
    common(p_rec, fits=False)
    p_rec.add_argument("--model", type=Path, required=True, help="fitted model directory")
    p_rec.add_argument("--data", type=Path, required=True, help="test dataset CSV")

    p_ext = sub.add_parser("extend", help="embed and estimate new points")
    common(p_ext, fits=False)
    p_ext.add_argument("--model", type=Path, required=True, help="fitted model directory")
    p_ext.add_argument("--data", type=Path, required=True, help="new-points dataset CSV")
    return parser


def _overrides(args, names) -> dict:
    """The config fields among `names` that were given on the command line."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _resolve_config(args) -> tuple[RunConfig, TrialSpec | None]:
    if args.config is not None:
        config, trial = load_config(args.config)
    else:
        config, trial = RunConfig(), None
    overrides = _overrides(args, ("seed", "repeats", "estimator", "c_threshold"))
    if overrides:
        config = config.replace(**overrides)
    if trial is not None and args.seed is not None:
        trial = TrialSpec.from_dict({**trial.to_dict(), "seed": args.seed})
    return config, trial


# the config fields that act on a saved model; the rest act only on a fit
MODEL_KNOBS = ("estimator", "c_threshold")


def _load_model(args):
    """The model saved under --model, with the `estimator` and `c_threshold`
    that the --config file sets, and then those of the command line,
    applied to its config. A --config key that acts only on a fit is a
    ConfigError."""
    overrides = {}
    if args.config is not None:
        config, _ = load_config(args.config)  # validates the whole file
        given = json.loads(args.config.read_text())
        fit_keys = sorted(set(given) - set(MODEL_KNOBS))
        if fit_keys:
            raise ConfigError(f"{args.command} takes only {list(MODEL_KNOBS)} from --config; "
                              f"{fit_keys} act only on a fit")
        overrides = {name: getattr(config, name) for name in given}
    overrides.update(_overrides(args, MODEL_KNOBS))
    model = io.load_model(args.model)
    return dataclasses.replace(model, config=model.config.replace(**overrides))


def _load_trial_dataset(data_path, truth_path) -> TrialDataset:
    """The dataset with its truth; the truth file must list the dataset's
    ids in the dataset's order."""
    data, records = io.read_dataset_csv(data_path)
    truth_ids, truth = io.read_truth_csv(truth_path)
    if not np.array_equal(truth_ids, data.point_ids):
        raise ValueError(f"{truth_path}: the truth ids are not the ids of {data_path}, "
                         "in the same order")
    spec = TrialSpec("sphere", n=data.n_points)  # weibull defaults for scale conversion
    return TrialDataset(data, records, truth, spec)


def cmd_simulate(args) -> int:
    config, trial = _resolve_config(args)
    if trial is None:
        raise ConfigError("simulate needs a config file with a \"trial\" section")
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    ds = generate(trial)
    io.write_dataset_csv(out / "dataset.csv", ds.data, ds.records)
    io.write_truth_csv(out / "truth.csv", ds.data.point_ids, ds.truth)
    echo = {"trial": trial.to_dict(), "config": config.to_dict(),
            "outcome_fraction": ds.info.get("outcome_fraction"),
            "horizon": ds.info.get("horizon")}
    io.write_json(out / "spec_echo.json", echo)
    print(
        f"simulated {trial.kind} trial: n={trial.n} "
        f"outcome_fraction={ds.info['outcome_fraction']:.4f} horizon={ds.info['horizon']:.6g}"
    )
    return 0


def cmd_fit(args) -> int:
    config, _ = _resolve_config(args)
    data, records = io.read_dataset_csv(args.data)
    model = fit_pipeline(data, records, config)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    io.save_model(out / "model", model)
    print(f"fit complete: {model.metric.iterations} iterations")
    return 0


def cmd_validate(args) -> int:
    config, trial = _resolve_config(args)
    if (args.data is None) != (args.truth is None):
        raise ConfigError("validate needs --data and --truth together")
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    if args.data is not None:
        dataset = _load_trial_dataset(args.data, args.truth)
        if trial is not None:
            dataset = TrialDataset(dataset.data, dataset.records, dataset.truth, trial)
    elif trial is not None:
        dataset = generate(trial)
    else:
        raise ConfigError("validate needs --data/--truth or a config with a trial section")
    report = validate_pipeline(dataset, config)
    io.write_histogram_csv(out / "histogram.csv", report.histogram_edges, report.histogram_counts)
    (out / "report.txt").write_text("\n".join(report.summary_lines()) + "\n")
    print(
        f"validation: {len(report.folds)} folds, median correlation "
        f"{report.median_correlation:.4f}"
    )
    return 0


def cmd_recommend(args) -> int:
    model = _load_model(args)
    data, records = io.read_dataset_csv(args.data)
    report = recommend_pipeline(model, data, records)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text("\n".join(report.summary_lines()) + "\n")
    if report.curve_recommended is not None:
        io.write_curve_csv(out / "curves_recommended.csv", report.curve_recommended)
        io.write_curve_csv(out / "curves_anti_recommended.csv", report.curve_anti)
    sizes = report.group_sizes
    print(
        f"recommendation groups: recommended={sizes['recommended']} "
        f"neutral={sizes['neutral']} anti={sizes['anti_recommended']}"
        + (
            f"; log-rank p={report.logrank.p_value:.6g}"
            if report.logrank is not None and report.logrank.defined
            else "; curves omitted"
        )
    )
    return 0


def cmd_extend(args) -> int:
    model = _load_model(args)
    data = io.read_points_csv(args.data)
    preds = predict(model, data)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    d = preds.coords.shape[1]
    header = [f"coord_{j + 1}" for j in range(d)] + ["f_hat", "neighborhood_size", "balance_flag"]
    rows = np.column_stack(
        [preds.coords, preds.estimates, preds.n_neighbors, preds.balanced.astype(int)]
    )
    io.write_matrix_csv(out / "extended.csv", rows, data.point_ids, header)
    n_ok = int(np.isfinite(preds.estimates).sum())
    print(f"extended {data.n_points} points; {n_ok} with defined estimates")
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "validate": cmd_validate,
    "recommend": cmd_recommend,
    "extend": cmd_extend,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
