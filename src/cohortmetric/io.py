"""CSV and artifact serialization; every writer round-trips through its reader."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .data import DataMatrix
from .survival import SurvivalCurve, SurvivalRecords

FLOAT_FMT = "%.17g"


def _fmt(x) -> str:
    return FLOAT_FMT % float(x)


def write_dataset_csv(path, data: DataMatrix, records: SurvivalRecords) -> None:
    """Dataset rows: id, features..., treatment, time, event."""
    if data.n_points != len(records):
        raise ValueError("data and records must align")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", *data.feature_names, "treatment", "time", "event"])
        for i in range(data.n_points):
            w.writerow(
                [data.point_ids[i]]
                + [_fmt(v) for v in data.values[i]]
                + [int(records.treatments[i]), _fmt(records.times[i]), int(records.events[i])]
            )


def read_dataset_csv(path) -> tuple[DataMatrix, SurvivalRecords]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[0] != "id" or header[-3:] != ["treatment", "time", "event"]:
            raise ValueError(f"unexpected dataset header: {header}")
        names = header[1:-3]
        ids, vals, arms, times, events = [], [], [], [], []
        for row in reader:
            ids.append(row[0])
            vals.append([float(v) for v in row[1 : 1 + len(names)]])
            arms.append(int(row[-3]))
            times.append(float(row[-2]))
            events.append(int(row[-1]))
    data = DataMatrix(np.array(vals), np.array(ids), tuple(names))
    return data, SurvivalRecords(np.array(times), np.array(events), np.array(arms))


def write_truth_csv(path, point_ids, truth) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "true_effect", "propensity", "effect_scale"])
        for i, pid in enumerate(point_ids):
            w.writerow(
                [pid, _fmt(truth.true_effect[i]), _fmt(truth.propensity[i]), truth.effect_scale]
            )


def read_truth_csv(path):
    from .simulate import GroundTruth

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        ids, eff, prop, scale = [], [], [], "log_hazard"
        for row in reader:
            ids.append(row[0])
            eff.append(float(row[1]))
            prop.append(float(row[2]))
            scale = row[3]
    return np.array(ids), GroundTruth(np.array(eff), np.array(prop), scale)


def write_records_csv(path, records: SurvivalRecords, point_ids=None) -> None:
    ids = point_ids if point_ids is not None else np.arange(len(records))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "time", "event", "treatment"])
        for i in range(len(records)):
            w.writerow(
                [ids[i], _fmt(records.times[i]), int(records.events[i]), int(records.treatments[i])]
            )


def read_records_csv(path) -> tuple[np.ndarray, SurvivalRecords]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        ids, times, events, arms = [], [], [], []
        for row in reader:
            ids.append(row[0])
            times.append(float(row[1]))
            events.append(int(row[2]))
            arms.append(int(row[3]))
    return np.array(ids), SurvivalRecords(np.array(times), np.array(events), np.array(arms))


def write_curve_csv(path, curve: SurvivalCurve) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "survival", "at_risk"])
        for i in range(curve.times.size):
            w.writerow([_fmt(curve.times[i]), _fmt(curve.survival[i]), int(curve.at_risk[i])])


def read_curve_csv(path) -> SurvivalCurve:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        t, s, r = [], [], []
        for row in reader:
            t.append(float(row[0]))
            s.append(float(row[1]))
            r.append(int(row[2]))
    return SurvivalCurve(np.array(t), np.array(s), np.array(r, dtype=int))


def write_matrix_csv(path, matrix: np.ndarray, row_ids, col_names, id_col: str = "id") -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([id_col, *col_names])
        for i, rid in enumerate(row_ids):
            w.writerow([rid, *(_fmt(v) for v in np.atleast_1d(matrix[i]))])


def read_matrix_csv(path) -> tuple[np.ndarray, np.ndarray, list[str]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        ids, rows = [], []
        for row in reader:
            ids.append(row[0])
            rows.append([float(v) for v in row[1:]])
    return np.array(ids), np.array(rows), header[1:]


def write_histogram_csv(path, edges: np.ndarray, counts: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_left", "bin_right", "count"])
        for i in range(len(counts)):
            w.writerow([_fmt(edges[i]), _fmt(edges[i + 1]), int(counts[i])])


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# --- model artifact ----------------------------------------------------------


def save_model(model_dir, model) -> None:
    """Serialize a FittedModel to a directory of CSV/JSON files."""
    d = Path(model_dir)
    d.mkdir(parents=True, exist_ok=True)
    ref = model.ref
    write_matrix_csv(d / "xref.csv", ref.x_ref, model.train_ids, model.feature_names)
    write_records_csv(d / "train_records.csv", model.records, model.train_ids)
    write_matrix_csv(
        d / "weights.csv", model.metric.weights.point_weights, model.train_ids, model.feature_names
    )
    write_matrix_csv(
        d / "ref_coords.csv", ref.coords, model.train_ids,
        [f"coord_{j + 1}" for j in range(ref.rank)],
    )
    write_matrix_csv(
        d / "psi.csv", ref.psi, np.arange(ref.psi.shape[0]),
        [f"psi_{j + 1}" for j in range(ref.rank)], id_col="row",
    )
    write_matrix_csv(
        d / "d2.csv", ref.d2[:, None], np.arange(ref.n_ref), ["d2"], id_col="row"
    )
    write_matrix_csv(
        d / "singular_values.csv", ref.singular_values[:, None], np.arange(ref.rank), ["value"],
        id_col="index",
    )
    (d / "tree.txt").write_text("\n".join(model.metric.tree.to_lines()) + "\n")
    eigen = model.metric.embedding
    write_matrix_csv(
        d / "eigenvectors.csv", eigen.eigenvectors, model.train_ids,
        [f"phi_{j}" for j in range(eigen.eigenvalues.size)],
    )
    meta = {
        "config": model.config.to_dict(),
        "sigma": ref.sigma,
        "lam": model.metric.weights.lam,
        "eigenvalues": [float(v) for v in eigen.eigenvalues],
        "history": [
            {
                # JSON has no NaN: the first step's undefined change is null
                "weight_change": None if np.isnan(h.weight_change) else float(h.weight_change),
                "sigma": float(h.sigma),
                "lam": float(h.lam),
                "top_eigenvalues": [float(v) for v in h.top_eigenvalues],
            }
            for h in model.metric.history
        ],
        "feature_names": list(model.feature_names),
    }
    write_json(d / "config.json", meta)
    report_lines = ["fit diagnostics", f"iterations: {model.metric.iterations}"]
    for i, h in enumerate(model.metric.history, start=1):
        report_lines.append(
            f"iter {i}: weight_change={h.weight_change:.6g} sigma={h.sigma:.6g} "
            f"lam={h.lam:.6g} top_eigenvalues={[float(v) for v in h.top_eigenvalues]}"
        )
    (d / "report.txt").write_text("\n".join(report_lines) + "\n")


def load_model(model_dir):
    """Rebuild a FittedModel (reference side) from a saved artifact.

    The diffusion time and dimension come from the saved config, the
    iteration count from the saved history."""
    from .config import RunConfig
    from .diffusion import DiffusionEmbedding
    from .extension import ReferenceEmbedding
    from .harness import FittedModel
    from .metric import (
        IterationDiagnostics,
        RegularizedMetric,
        WeightField,
        cohort_neighborhood,
    )
    from .tree import PartitionTree

    d = Path(model_dir)
    meta = read_json(d / "config.json")
    config = RunConfig.from_dict(meta["config"])
    train_ids, x_ref, feature_names = read_matrix_csv(d / "xref.csv")
    _, records = read_records_csv(d / "train_records.csv")
    _, point_weights, _ = read_matrix_csv(d / "weights.csv")
    _, psi, _ = read_matrix_csv(d / "psi.csv")
    _, ref_coords, _ = read_matrix_csv(d / "ref_coords.csv")
    _, d2_col, _ = read_matrix_csv(d / "d2.csv")
    _, svals_col, _ = read_matrix_csv(d / "singular_values.csv")
    weights = WeightField(point_weights, float(meta["lam"]))
    ref = ReferenceEmbedding(
        x_ref=x_ref,
        inv_diag=weights.inv_diag(),
        sigma=float(meta["sigma"]),
        psi=psi,
        singular_values=svals_col[:, 0],
        d2=d2_col[:, 0],
        coords=ref_coords,
    )
    _, eigenvectors, _ = read_matrix_csv(d / "eigenvectors.csv")
    embedding = DiffusionEmbedding(
        np.array(meta["eigenvalues"]), eigenvectors, float(config.time), config.dim
    )
    tree = PartitionTree.from_lines((d / "tree.txt").read_text().splitlines())
    history = tuple(
        IterationDiagnostics(
            weight_change=float("nan") if h["weight_change"] is None else h["weight_change"],
            sigma=h["sigma"],
            lam=h["lam"],
            top_eigenvalues=tuple(h["top_eigenvalues"]),
        )
        for h in meta["history"]
    )
    metric = RegularizedMetric(
        embedding=embedding,
        weights=weights,
        tree=tree,
        cohort_size=cohort_neighborhood(x_ref.shape[0], config.min_cohort),
        sigma=float(meta["sigma"]),
        history=history,
    )
    return FittedModel(
        metric=metric,
        ref=ref,
        records=records,
        config=config,
        feature_names=tuple(feature_names),
        train_ids=train_ids,
    )
