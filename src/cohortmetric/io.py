"""CSV and artifact serialization.

Every CSV the package writes or reads goes through one writer, `_write_csv`,
and one reader, `_read_csv`, which refuses a row whose cell count differs
from the header's; `_array` refuses a cell that is not a number. Both errors
name the file and the line. Each `write_*` round-trips through its `read_*`,
and the readers return C-contiguous arrays.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .data import DataMatrix
from .survival import SurvivalCurve, SurvivalRecords

FLOAT_FMT = "%.17g"
TRUTH_HEADER = ["id", "true_effect", "propensity", "effect_scale"]
RECORDS_HEADER = ["id", "time", "event", "treatment"]
CURVE_HEADER = ["time", "survival", "at_risk"]
DATASET_TAIL = ["treatment", "time", "event"]  # the last columns of a dataset file


def _write_csv(path, header, columns) -> None:
    """The header, then one row per index of the equal-length 1-d columns.
    Float columns are written with FLOAT_FMT, every other column as str()
    gives it."""
    n = len(columns[0])
    cells = []  # formatted lazily, one row at a time
    for col in map(np.asarray, columns):
        if col.shape != (n,):
            raise ValueError(f"{path}: a column of shape {col.shape} among columns of {n} rows")
        cells.append(map(FLOAT_FMT.__mod__ if col.dtype.kind == "f" else str, col))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*cells))


def _read_csv(path, expect=None) -> tuple[list[str], list[tuple[str, ...]]]:
    """The header and the columns, as strings. A header other than `expect`
    (when given), or a row whose cell count differs from the header's, is a
    ValueError naming the file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if not header or (expect is not None and header != expect):
            raise ValueError(f"{path}: unexpected header {header}")
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path}, line {reader.line_num}: {len(row)} cells under "
                                 f"a header of {len(header)}")
            rows.append(row)
    return header, list(zip(*rows)) if rows else [() for _ in header]


def _array(path, column, kind=float) -> np.ndarray:
    """A string column of `path` as numbers. A cell that `kind` cannot read
    is a ValueError naming the file and the line (row i is on line i + 2)."""
    values = []
    for line, v in enumerate(column, start=2):
        try:
            values.append(kind(v))
        except ValueError as exc:
            raise ValueError(f"{path}, line {line}: {exc}") from None
    return np.array(values, dtype=kind)


def _matrix(path, columns, n_rows: int) -> np.ndarray:
    """String columns as a C-contiguous (n_rows, len(columns)) float array."""
    out = np.empty((n_rows, len(columns)))
    for j, col in enumerate(columns):
        out[:, j] = _array(path, col)
    return out


def write_dataset_csv(path, data: DataMatrix, records: SurvivalRecords) -> None:
    """Dataset rows: id, features..., treatment, time, event."""
    if data.n_points != len(records):
        raise ValueError("data and records must align")
    _write_csv(path, ["id", *data.feature_names, "treatment", "time", "event"],
               [data.point_ids, *data.values.T, records.treatments, records.times,
                records.events])


def read_dataset_csv(path) -> tuple[DataMatrix, SurvivalRecords]:
    return _dataset(path, *_read_csv(path))


def _dataset(path, header, cols) -> tuple[DataMatrix, SurvivalRecords]:
    if header[0] != "id" or header[-3:] != DATASET_TAIL:
        raise ValueError(f"unexpected dataset header: {header}")
    ids, arms, times, events = cols[0], cols[-3], cols[-2], cols[-1]
    data = DataMatrix(_matrix(path, cols[1:-3], len(ids)), np.array(ids), tuple(header[1:-3]))
    return data, SurvivalRecords(_array(path, times), _array(path, events, int),
                                 _array(path, arms, int))


def read_points_csv(path) -> DataMatrix:
    """New points from a dataset file, whose records must be valid as well,
    or from a features-only file (`id`, then the features). A header that
    ends in `treatment, time, event` makes it a dataset file."""
    header, cols = _read_csv(path)
    if header[-3:] == DATASET_TAIL:
        return _dataset(path, header, cols)[0]
    return DataMatrix(_matrix(path, cols[1:], len(cols[0])), np.array(cols[0]), tuple(header[1:]))


def write_truth_csv(path, point_ids, truth) -> None:
    _write_csv(path, TRUTH_HEADER, [point_ids, truth.true_effect, truth.propensity,
                                    [truth.effect_scale] * len(point_ids)])


def read_truth_csv(path):
    """(ids, GroundTruth); a file mixing effect scales is a ValueError."""
    from .simulate import GroundTruth

    _, (ids, effects, propensities, scales) = _read_csv(path, TRUTH_HEADER)
    if len(set(scales)) > 1:
        raise ValueError(f"{path}: effect_scale holds more than one value: {sorted(set(scales))}")
    scale = scales[0] if scales else "log_hazard"
    return np.array(ids), GroundTruth(_array(path, effects), _array(path, propensities), scale)


def write_records_csv(path, records: SurvivalRecords, point_ids=None) -> None:
    ids = point_ids if point_ids is not None else np.arange(len(records))
    _write_csv(path, RECORDS_HEADER, [ids, records.times, records.events, records.treatments])


def read_records_csv(path) -> tuple[np.ndarray, SurvivalRecords]:
    _, (ids, times, events, arms) = _read_csv(path, RECORDS_HEADER)
    return np.array(ids), SurvivalRecords(_array(path, times), _array(path, events, int),
                                          _array(path, arms, int))


def write_curve_csv(path, curve: SurvivalCurve) -> None:
    _write_csv(path, CURVE_HEADER, [curve.times, curve.survival, curve.at_risk])


def read_curve_csv(path) -> SurvivalCurve:
    _, (times, survival, at_risk) = _read_csv(path, CURVE_HEADER)
    return SurvivalCurve(_array(path, times), _array(path, survival), _array(path, at_risk, int))


def write_matrix_csv(path, matrix: np.ndarray, row_ids, col_names, id_col: str = "id") -> None:
    """One row per id: the id, then that row of the float matrix (a 1-d
    matrix is one column)."""
    M = np.asarray(matrix, dtype=float)
    _write_csv(path, [id_col, *col_names], [row_ids, *(M[:, None] if M.ndim == 1 else M).T])


def read_matrix_csv(path) -> tuple[np.ndarray, np.ndarray, list[str]]:
    header, cols = _read_csv(path)
    return np.array(cols[0]), _matrix(path, cols[1:], len(cols[0])), header[1:]


def write_histogram_csv(path, edges: np.ndarray, counts: np.ndarray) -> None:
    _write_csv(path, ["bin_left", "bin_right", "count"], [edges[:-1], edges[1:], counts])


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
    meta = {
        "config": model.config.to_dict(),
        "sigma": ref.sigma,
        "lam": model.metric.weights.lam,
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


def _same_rows(path, ids, train_ids) -> None:
    if not np.array_equal(ids, train_ids):
        raise ValueError(f"{path}: row ids differ from those of xref.csv")


def _model_matrix(path, train_ids=None, n_rows=None, header=None) -> np.ndarray:
    """A matrix file of a saved model. Its row ids must be `train_ids` in
    order, or it must have `n_rows` rows, and its header after the id
    column must be `header`, where each is given."""
    ids, matrix, names = read_matrix_csv(path)
    if train_ids is not None:
        _same_rows(path, ids, train_ids)
    if n_rows is not None and len(ids) != n_rows:
        raise ValueError(f"{path}: {len(ids)} rows, but xref.csv has {n_rows}")
    if header is not None and names != header:
        raise ValueError(f"{path}: header {names!r} differs from xref.csv's {header!r}")
    return matrix


def _model_column(path, n_rows=None) -> np.ndarray:
    """A saved model's file of one value column after its id column."""
    matrix = _model_matrix(path, n_rows=n_rows)
    if matrix.shape[1] != 1:
        raise ValueError(f"{path}: {matrix.shape[1]} value columns, expected one")
    return matrix[:, 0]


def _require_keys(path, mapping: dict, keys, where: str = "") -> None:
    """ValueError naming the file, the place (`where`) and the first of
    `keys` that `mapping` lacks."""
    for key in keys:
        if key not in mapping:
            raise ValueError(f"{path}: {where}no {key!r} key")


def _is_number(value) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require_numbers(path, mapping: dict, scalars, lists=(), where: str = "") -> None:
    """ValueError naming the file, the place (`where`) and the first key of
    `scalars` whose value is not a number, or of `lists` whose value is not
    a list of numbers."""
    for key in scalars:
        if not _is_number(mapping[key]):
            raise ValueError(f"{path}: {where}{key!r} is not a number: {mapping[key]!r}")
    for key in lists:
        value = mapping[key]
        if not (isinstance(value, list) and all(map(_is_number, value))):
            raise ValueError(f"{path}: {where}{key!r} is not a list of numbers: {value!r}")


def load_model(model_dir):
    """Rebuild a FittedModel (reference side) from a saved artifact.

    The iteration count comes from the saved history. eigenvectors.csv and
    the top-level `eigenvalues` key, which earlier versions saved, are not
    read, nor is any other unknown top-level key of config.json.
    Files that disagree are a ValueError naming the file: the per-point
    files must carry xref.csv's ids in xref.csv's order, weights.csv
    xref.csv's header, tree.txt a tree of as many points as xref.csv has
    rows, psi.csv and d2.csv one row per reference point, d2.csv and
    singular_values.csv one value column, psi.csv and ref_coords.csv one
    column per singular value, and singular_values.csv at most the saved
    config's dim + 1 values.
    A key missing from config.json, or from one of its history entries, is
    a ValueError naming the file and the key; so is a `history` that is not
    a list of objects, or a `sigma`, `lam` or history field that is not a
    number (a list of them for `top_eigenvalues`; a bool is not a number),
    except a null `weight_change`; so is a `feature_names` that is not a
    list of strings or differs from xref.csv's header."""
    from .config import RunConfig
    from .extension import ReferenceEmbedding
    from .harness import FittedModel
    from .metric import IterationDiagnostics, RegularizedMetric, WeightField, cohort_neighborhood
    from .tree import PartitionTree

    d = Path(model_dir)
    meta_path = d / "config.json"
    meta = read_json(meta_path)
    _require_keys(meta_path, meta, ("config", "sigma", "lam", "feature_names", "history"))
    _require_numbers(meta_path, meta, ("sigma", "lam"))
    entries = meta["history"]
    if not (isinstance(entries, list) and all(isinstance(h, dict) for h in entries)):
        raise ValueError(f"{meta_path}: 'history' is not a list of objects: {entries!r}")
    for i, h in enumerate(entries, start=1):
        _require_keys(meta_path, h, ("weight_change", "sigma", "lam", "top_eigenvalues"),
                      f"history entry {i} has ")
        scalars = ("sigma", "lam") + (() if h["weight_change"] is None else ("weight_change",))
        _require_numbers(meta_path, h, scalars, ("top_eigenvalues",), f"history entry {i}: ")
    config = RunConfig.from_dict(meta["config"])
    train_ids, x_ref, feature_names = read_matrix_csv(d / "xref.csv")
    names = meta["feature_names"]
    if not (isinstance(names, list) and all(isinstance(f, str) for f in names)):
        raise ValueError(f"{meta_path}: 'feature_names' is not a list of strings: {names!r}")
    if names != feature_names:
        raise ValueError(f"{meta_path}: 'feature_names' {names!r} differ from xref.csv's "
                         f"header {feature_names!r}")
    record_ids, records = read_records_csv(d / "train_records.csv")
    _same_rows(d / "train_records.csv", record_ids, train_ids)
    point_weights = _model_matrix(d / "weights.csv", train_ids, header=feature_names)
    ref_coords = _model_matrix(d / "ref_coords.csv", train_ids)
    psi = _model_matrix(d / "psi.csv", n_rows=len(train_ids))
    d2 = _model_column(d / "d2.csv", n_rows=len(train_ids))
    svals = _model_column(d / "singular_values.csv")
    if len(svals) > config.dim + 1:
        raise ValueError(f"{d / 'singular_values.csv'}: {len(svals)} values, more than the "
                         f"dim + 1 = {config.dim + 1} of config.json")
    for name, matrix in (("psi.csv", psi), ("ref_coords.csv", ref_coords)):
        if matrix.shape[1] != len(svals):
            raise ValueError(f"{d / name}: rank {matrix.shape[1]}, but singular_values.csv "
                             f"holds {len(svals)} values")
    weights = WeightField(point_weights, float(meta["lam"]))
    ref = ReferenceEmbedding(
        x_ref=x_ref,
        inv_diag=weights.inv_diag(),
        sigma=float(meta["sigma"]),
        psi=psi,
        singular_values=svals,
        d2=d2,
        coords=ref_coords,
    )
    tree = PartitionTree.from_lines((d / "tree.txt").read_text().splitlines())
    if tree.n_points != len(train_ids):
        raise ValueError(f"{d / 'tree.txt'}: the tree holds {tree.n_points} points, but "
                         f"xref.csv has {len(train_ids)} rows")
    history = tuple(
        IterationDiagnostics(
            weight_change=float("nan") if h["weight_change"] is None else h["weight_change"],
            sigma=h["sigma"],
            lam=h["lam"],
            top_eigenvalues=tuple(h["top_eigenvalues"]),
        )
        for h in entries
    )
    metric = RegularizedMetric(
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
