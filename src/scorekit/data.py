"""Tabular credit data: loading, cleaning, encoding, temporal splitting.

A Dataset is a column store over numpy arrays. Numeric columns are float64
with NaN as the missing marker; categorical columns are object arrays of
strings with None as the missing marker. Target is {0,1} with 1 = bad
(defaulter). Datasets are immutable by convention: every operation returns
a new Dataset and never touches the input arrays.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    BadParameter,
    BadTarget,
    EmptyFile,
    EmptyPartition,
    MalformedCsv,
    MissingColumn,
    UnknownColumn,
)

log = logging.getLogger(__name__)

NUMERIC = "numeric"
CATEGORICAL = "categorical"

MISSING_LEVEL = "MISSING"  # dedicated level for categorical missings


@dataclass
class Feature:
    """One named column: numeric (float64, NaN=missing) or categorical."""

    name: str
    kind: str
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise ValueError("bad feature kind: %r" % self.kind)

    def missing_mask(self) -> np.ndarray:
        if self.kind == NUMERIC:
            return np.isnan(self.values)
        return np.array([v is None for v in self.values], dtype=bool)

    @property
    def n_unique(self) -> int:
        """Distinct non-missing values (drives cardinality partitioning)."""
        mask = ~self.missing_mask()
        if not mask.any():
            return 0
        return len(np.unique(self.values[mask].astype(object if self.kind == CATEGORICAL else float)))

    def take(self, idx) -> "Feature":
        return Feature(self.name, self.kind, self.values[idx])


class Dataset:
    """Feature columns + binary target + optional observation date per row."""

    def __init__(self, features, target, obs_date=None):
        self.features: list[Feature] = list(features)
        self.target = np.asarray(target)
        self.obs_date = None if obs_date is None else np.asarray(obs_date, dtype="datetime64[D]")
        self._validate()
        self._by_name = {f.name: f for f in self.features}

    def _validate(self):
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names")
        n = len(self.target)
        for f in self.features:
            if len(f.values) != n:
                raise ValueError("column %s has %d rows, target has %d" % (f.name, len(f.values), n))
        if self.obs_date is not None and len(self.obs_date) != n:
            raise ValueError("obs_date length mismatch")
        bad = ~np.isin(self.target, (0, 1))
        if bad.any():
            raise BadTarget("target has values outside {0,1} at rows %s" % np.where(bad)[0][:5].tolist())
        self.target = self.target.astype(np.int64)

    @property
    def n_rows(self) -> int:
        return len(self.target)

    @property
    def feature_names(self) -> list[str]:
        return [f.name for f in self.features]

    def feature(self, name: str) -> Feature:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownColumn(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def matrix(self, names=None) -> np.ndarray:
        """Float design matrix for the named columns (all features if None).

        Extra dataset columns are ignored; lookup is by name. Categorical
        columns must be encoded away before a matrix can be built.
        """
        names = self.feature_names if names is None else list(names)
        cols = []
        for name in names:
            f = self.feature(name)
            if f.kind != NUMERIC:
                raise UnknownColumn("column %s is categorical; encode it first" % name)
            cols.append(f.values.astype(float))
        if not cols:
            return np.empty((self.n_rows, 0))
        return np.column_stack(cols)

    def take(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(
            [f.take(idx) for f in self.features],
            self.target[idx],
            None if self.obs_date is None else self.obs_date[idx],
        )

    def with_features(self, features) -> "Dataset":
        return Dataset(list(features), self.target, self.obs_date)

    def select(self, names) -> "Dataset":
        return self.with_features([self.feature(n) for n in names])


@dataclass
class SplitSet:
    """The four disjoint evaluation parts of one modeling dataset."""

    train: Dataset
    test: Dataset
    out_of_sample: Dataset
    out_of_time: Dataset

    def parts(self):
        return {
            "train": self.train,
            "test": self.test,
            "out_of_sample": self.out_of_sample,
            "out_of_time": self.out_of_time,
        }


def _parse_float(text: str, missing_token: str):
    if text == missing_token or text == "":
        return math.nan
    try:
        return float(text)
    except ValueError:
        return math.nan  # unparseable numeric cell counts as missing


def load_csv(path, schema: dict, target: str = "target",
             date_col: str | None = None, missing_token: str = "",
             target_optional: bool = False, columns=None) -> Dataset:
    """Load an RFC-4180 CSV with a header into a Dataset.

    `schema` maps feature name -> "numeric" | "categorical". Every schema
    column, `date_col` and (unless target_optional) the target must be in
    the header. Parsed into the Dataset are the schema columns named in
    `columns` (all of them when None; names outside the schema are
    skipped), in schema order, plus the target and the date. Other header
    columns are never parsed. Unparseable numeric cells become missing; the
    target must be 0/1 for every row. With target_optional (scoring data)
    the target column is never read, present or not, and the Dataset holds
    an all-zero placeholder target. A header that names a parsed column
    twice, a row whose cell count differs from the header's (named by its
    line) or an unparseable date (named by its 0-based row, as BadTarget
    names a bad target) raises MalformedCsv.
    """
    path = Path(path)
    parsed = [name for name in schema if columns is None or name in columns]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(str(path)) from None
        first = next(reader, None)
        if first is None:
            raise EmptyFile("%s has a header but no data rows" % path)

        col_index = {name: i for i, name in enumerate(header)}
        has_target = not target_optional
        wanted = list(schema) + ([date_col] if date_col else [])
        for name in wanted + ([target] if has_target else []):
            if name not in col_index:
                raise MissingColumn(name)
        for name, kind in schema.items():
            if kind not in (NUMERIC, CATEGORICAL):
                raise BadParameter("schema kind for %s must be numeric or categorical, got %r"
                                   % (name, kind))
        used = parsed + ([target] if has_target else []) + ([date_col] if date_col else [])
        for name in used:
            if header.count(name) > 1:
                raise MalformedCsv("%s: header names column %s %d times"
                                   % (path, name, header.count(name)))

        # stream the rows, keeping only the cells of the parsed columns
        keep = [col_index[name] for name in used]
        pick = (operator.itemgetter(*keep) if len(keep) > 1
                else lambda row: tuple(row[i] for i in keep))
        width = len(header)
        kept = []
        for row in itertools.chain((first,), reader):
            if len(row) != width:
                raise MalformedCsv("%s line %d: %d cells, header has %d"
                                   % (path, reader.line_num, len(row), width))
            kept.append(pick(row))
    n = len(kept)
    cells = list(zip(*kept))  # one tuple per kept column
    del kept

    features = []
    for name, col in zip(parsed, cells):
        kind = schema[name]
        if kind == NUMERIC:
            values = np.array([_parse_float(c, missing_token) for c in col], dtype=float)
        else:
            values = np.array([None if c == missing_token or c == "" else c for c in col],
                              dtype=object)
        features.append(Feature(name, kind, values))

    target_vals = np.zeros(n, dtype=np.int64)  # placeholder for scoring-only data
    if has_target:
        for r_i, cell in enumerate(cells[len(parsed)]):
            code = cell.strip()
            if code == "1":
                target_vals[r_i] = 1
            elif code != "0":
                raise BadTarget("row %d: target %r not in {0,1}" % (r_i, cell))

    obs_date = None
    if date_col:
        obs_date = np.empty(n, dtype="datetime64[D]")
        for r_i, cell in enumerate(cells[-1]):
            try:
                obs_date[r_i] = np.datetime64(cell, "D")
            except ValueError:
                raise MalformedCsv("%s row %d: date %r does not parse"
                                   % (path, r_i, cell)) from None

    return Dataset(features, target_vals, obs_date)


class MeanImputer:
    """Column-mean imputation fitted on one dataset, reusable on others.

    Numeric missings become the training mean of the column; categorical
    missings become the dedicated MISSING level. A numeric column with no
    observed values at fit time is dropped with a warning.
    """

    def __init__(self):
        self.means_: dict[str, float] = {}
        self.dropped_: list[str] = []

    def fit(self, d: Dataset) -> "MeanImputer":
        self.means_ = {}
        self.dropped_ = []
        for f in d.features:
            if f.kind != NUMERIC:
                continue
            observed = f.values[~np.isnan(f.values)]
            if len(observed) == 0:
                self.dropped_.append(f.name)
                log.warning("column %s has no observed values; dropping it", f.name)
            else:
                self.means_[f.name] = float(np.mean(observed))
        return self

    def transform(self, d: Dataset) -> Dataset:
        out = []
        for f in d.features:
            if f.name in self.dropped_:
                continue
            if f.kind == NUMERIC:
                values = f.values.astype(float, copy=True)
                mask = np.isnan(values)
                if mask.any():
                    values[mask] = self.means_.get(f.name, 0.0)
                out.append(Feature(f.name, NUMERIC, values))
            else:
                values = f.values.copy()
                mask = f.missing_mask()
                if mask.any():
                    values = values.astype(object)
                    values[mask] = MISSING_LEVEL
                out.append(Feature(f.name, CATEGORICAL, values))
        return d.with_features(out)


class DummyEncoder:
    """k-1 indicator encoding for categorical columns.

    The most frequent level is the reference (dropped; ties broken by
    name). Level order is recorded at fit time so the same indicator
    columns are produced for held-out data; unseen levels map to all
    zeros. Single-level columns vanish entirely.
    """

    def __init__(self, cols):
        self.cols = list(cols)
        self.levels_: dict[str, list[str]] = {}  # kept (non-reference) levels
        self.reference_: dict[str, str] = {}

    def fit(self, d: Dataset) -> "DummyEncoder":
        self.levels_ = {}
        self.reference_ = {}
        for name in self.cols:
            f = d.feature(name)
            if f.kind != CATEGORICAL:
                raise UnknownColumn("column %s is not categorical" % name)
            observed = [v for v in f.values if v is not None]
            levels, counts = np.unique(np.array(observed, dtype=object), return_counts=True)
            if len(levels) == 0:
                self.reference_[name] = MISSING_LEVEL
                self.levels_[name] = []
                continue
            order = np.lexsort((levels.astype(str), -counts))
            ref = str(levels[order[0]])
            kept = sorted(str(l) for l in levels if str(l) != ref)
            self.reference_[name] = ref
            self.levels_[name] = kept
        return self

    def transform(self, d: Dataset) -> Dataset:
        out = []
        for f in d.features:
            if f.name not in self.levels_:
                out.append(f)
                continue
            for level in self.levels_[f.name]:
                ind = np.array([1.0 if v == level else 0.0 for v in f.values])
                out.append(Feature("%s=%s" % (f.name, level), NUMERIC, ind))
        return d.with_features(out)


def _window_date(key: str, value) -> np.datetime64:
    try:
        return np.datetime64(value, "D")
    except ValueError:
        raise BadParameter("%s: date %r does not parse" % (key, value)) from None


def temporal_split(
    d: Dataset,
    test_fraction: float,
    oot_start,
    oot_end,
    seed: int,
    oos_fraction: float = 0.2,
) -> SplitSet:
    """Split rows into train / test / out-of-sample / out-of-time.

    Rows dated in (oot_start, oot_end] form the out-of-time part. The
    remaining rows first lose a seeded out-of-sample holdout (which plays
    no role in fitting), then split randomly into train/test at
    (1-test_fraction)/test_fraction.
    """
    if d.obs_date is None:
        raise ValueError("temporal_split needs obs_date on every row")
    oot_start = _window_date("oot_start", oot_start)
    oot_end = _window_date("oot_end", oot_end)
    if not oot_start < oot_end:
        raise BadParameter("oot_start %s must precede oot_end %s" % (oot_start, oot_end))
    after_window = d.obs_date > oot_end
    if after_window.any():
        raise BadParameter("%d rows dated after the out-of-time window end oot_end %s"
                           % (int(after_window.sum()), oot_end))

    in_oot = (d.obs_date > oot_start) & (d.obs_date <= oot_end)
    oot_idx = np.where(in_oot)[0]
    pool = np.where(~in_oot)[0]

    rng = np.random.default_rng(seed)
    perm = pool[rng.permutation(len(pool))]
    n_oos = int(round(oos_fraction * len(pool)))
    oos_idx = perm[:n_oos]
    rest = perm[n_oos:]
    n_test = int(round(test_fraction * len(rest)))
    test_idx = rest[:n_test]
    train_idx = rest[n_test:]

    parts = {
        "train": np.sort(train_idx),
        "test": np.sort(test_idx),
        "out_of_sample": np.sort(oos_idx),
        "out_of_time": np.sort(oot_idx),
    }
    for name, idx in parts.items():
        if len(idx) == 0:
            raise EmptyPartition(name)
    return SplitSet(**{name: d.take(idx) for name, idx in parts.items()})


# ---------------------------------------------------------------------------
# persistence: JSON artifacts, and splits as CSVs plus a JSON manifest

# rows formatted per block by write_csv: its memory grows with the block,
# and the per-block cost of the column comprehensions shrinks
WRITE_ROWS = 1024


def _format_column(f: Feature, start: int, stop: int) -> list:
    """The cells of rows start..stop-1 of a column: floats via repr, missing
    as empty."""
    values = f.values[start:stop].tolist()
    if f.kind == NUMERIC:
        return ["" if v != v else repr(v) for v in values]
    return ["" if v is None else str(v) for v in values]


def write_csv(d: Dataset, path, target: str = "target", date_col: str = "obs_date"):
    """Write a Dataset back to CSV (floats via repr, missing as empty), one
    block of WRITE_ROWS rows at a time, formatted column by column."""
    path = Path(path)
    header = d.feature_names + [target] + ([date_col] if d.obs_date is not None else [])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, d.n_rows, WRITE_ROWS):
            stop = start + WRITE_ROWS
            columns = [_format_column(f, start, stop) for f in d.features]
            columns.append([str(v) for v in d.target[start:stop].tolist()])
            if d.obs_date is not None:
                columns.append(d.obs_date[start:stop].astype(str).tolist())
            writer.writerows(zip(*columns))


def _json_default(o):
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError("not JSON serializable: %r" % type(o))


def write_json(doc, path):
    """Sorted, indented JSON with a final newline (model files are compact)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, default=_json_default)
        fh.write("\n")


def save_splits(splits: SplitSet, out_dir, schema: dict, params: dict,
                target: str = "target", date_col: str = "obs_date") -> dict:
    """Persist four CSVs plus a JSON manifest; returns the manifest dict."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, part in splits.parts().items():
        fname = "%s.csv" % name
        write_csv(part, out_dir / fname, target=target, date_col=date_col)
        files[name] = fname
    manifest = {
        "schema_version": 1,
        "schema": schema,
        "target": target,
        "date_col": date_col,
        "files": files,
        "params": params,
    }
    write_json(manifest, out_dir / "splits.json")
    return manifest


def read_split_manifest(split_dir) -> dict:
    """The splits.json manifest written by save_splits."""
    with open(Path(split_dir) / "splits.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_split_part(split_dir, manifest: dict, name: str, columns=None) -> Dataset:
    """Load one part of a SplitSet written by save_splits, reading only its
    CSV, and of its schema columns only those in `columns` (all when None)."""
    return load_csv(
        Path(split_dir) / manifest["files"][name],
        manifest["schema"],
        target=manifest["target"],
        date_col=manifest["date_col"],
        columns=columns,
    )


def load_splits(split_dir, columns=None) -> tuple[SplitSet, dict]:
    """Load a SplitSet written by save_splits; `columns` as for load_split_part."""
    manifest = read_split_manifest(split_dir)
    parts = {name: load_split_part(split_dir, manifest, name, columns)
             for name in manifest["files"]}
    return SplitSet(**parts), manifest
