"""Supervised binning and the weight-of-evidence transformation.

Bins come from quantile cuts merged until every ordinary bin holds a
minimum share of rows and at least one observation of each class; missing
values, when present, get a dedicated bin exempt from merging (smoothing
keeps its WOE finite regardless). WOE follows the scorecard convention
ln(dist_good / dist_bad): with target 1 = bad, a higher WOE means a safer
bin. IV = sum over bins of (dist_good - dist_bad) * WOE.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import CATEGORICAL, NUMERIC, Dataset, Feature, write_json
from .errors import NoMissingBin

OTHER_LEVEL = "__OTHER__"  # pool for rare categorical levels


@dataclass
class BinningSpec:
    """How one feature's values map onto bin ids (exhaustive by design)."""

    feature: str
    kind: str                                  # numeric | categorical
    cut_points: np.ndarray | None = None       # numeric: ascending thresholds
    level_map: dict | None = None              # categorical: level -> bin id
    n_bins: int = 0                            # total bins incl. missing bin
    missing_bin: int | None = None
    degenerate: bool = False

    def assign(self, values) -> np.ndarray:
        """Bin id per value. Every categorical value lands somewhere; a
        missing numeric value needs a missing bin (NoMissingBin if none)."""
        if self.kind == NUMERIC:
            values = np.asarray(values, dtype=float)
            out = np.searchsorted(self.cut_points, values, side="left")
            missing = np.isnan(values)
            if missing.any():
                if self.missing_bin is None:
                    raise NoMissingBin("%s: %d missing values, but the WOE bins were fitted "
                                       "without a missing bin" % (self.feature, missing.sum()))
                out = out.astype(int)
                out[missing] = self.missing_bin
            return out.astype(int)
        fallback = self.missing_bin
        if fallback is None:
            fallback = self.level_map.get(OTHER_LEVEL, 0)
        out = np.empty(len(values), dtype=int)
        for i, v in enumerate(values):
            if v is None:
                out[i] = self.missing_bin if self.missing_bin is not None else fallback
            else:
                out[i] = self.level_map.get(v, fallback)
        return out


@dataclass
class BinStats:
    bin_id: int
    label: str
    n_good: int
    n_bad: int
    dist_good: float = 0.0
    dist_bad: float = 0.0
    woe: float = 0.0
    iv_term: float = 0.0


@dataclass
class WoeTable:
    """Per-bin good/bad distributions, WOE values and the total IV."""

    feature: str
    spec: BinningSpec
    bins: list[BinStats] = field(default_factory=list)
    iv: float = 0.0
    smoothing: float = 0.5

    def woe_values(self) -> np.ndarray:
        out = np.zeros(self.spec.n_bins)
        for b in self.bins:
            out[b.bin_id] = b.woe
        return out

    def transform(self, values) -> np.ndarray:
        return self.woe_values()[self.spec.assign(values)]

    def to_dict(self) -> dict:
        return {
            "feature": self.feature,
            "kind": self.spec.kind,
            "cut_points": None if self.spec.cut_points is None else [float(c) for c in self.spec.cut_points],
            "level_map": self.spec.level_map,
            "n_bins": self.spec.n_bins,
            "missing_bin": self.spec.missing_bin,
            "degenerate": self.spec.degenerate,
            "smoothing": self.smoothing,
            "iv": self.iv,
            "bins": [
                {
                    "bin_id": b.bin_id,
                    "label": b.label,
                    "n_good": b.n_good,
                    "n_bad": b.n_bad,
                    "dist_good": b.dist_good,
                    "dist_bad": b.dist_bad,
                    "woe": b.woe,
                    "iv_term": b.iv_term,
                }
                for b in self.bins
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WoeTable":
        spec = BinningSpec(
            feature=d["feature"],
            kind=d["kind"],
            cut_points=None if d["cut_points"] is None else np.asarray(d["cut_points"], dtype=float),
            level_map=d["level_map"],
            n_bins=d["n_bins"],
            missing_bin=d["missing_bin"],
            degenerate=d["degenerate"],
        )
        table = cls(feature=d["feature"], spec=spec, smoothing=d["smoothing"], iv=d["iv"])
        table.bins = [BinStats(**b) for b in d["bins"]]
        return table


def _interval_labels(cuts) -> list[str]:
    edges = ["-inf"] + ["%r" % float(c) for c in cuts] + ["inf"]
    return ["(%s, %s]" % (edges[i], edges[i + 1]) for i in range(len(edges) - 1)]


def _merge_numeric_cuts(cuts, values, y, min_count) -> np.ndarray:
    """Drop cut points until every interval bin is big enough and sees
    both classes. The smallest violating bin merges into its smaller
    neighbor (ties to the left)."""
    cuts = list(cuts)
    while cuts:
        idx = np.searchsorted(cuts, values, side="left")
        k = len(cuts) + 1
        counts = np.bincount(idx, minlength=k)
        bads = np.bincount(idx, weights=y, minlength=k)
        goods = counts - bads
        violating = [
            b for b in range(k)
            if counts[b] < min_count or goods[b] < 1 or bads[b] < 1
        ]
        if not violating:
            break
        b = min(violating, key=lambda i: (counts[i], i))
        if b == 0:
            drop = 0
        elif b == k - 1:
            drop = k - 2
        else:
            drop = b - 1 if counts[b - 1] <= counts[b + 1] else b
        del cuts[drop]
    return np.asarray(cuts, dtype=float)


def fit_bins(x: Feature, y, max_bins: int = 10, min_bin_frac: float = 0.05) -> BinningSpec:
    """Quantile-based supervised binning for one feature.

    Numeric: initial cuts at the max_bins quantiles, then merge-to-valid.
    Categorical: one bin per level, with levels rarer than min_bin_frac
    pooled into a shared bin. A constant feature collapses to a single
    bin and is flagged degenerate.
    """
    if max_bins < 2:
        raise ValueError("max_bins must be >= 2")
    y = np.asarray(y, dtype=float)
    if len(np.unique(y)) < 2:
        raise ValueError("need both classes to fit bins")

    if x.kind == NUMERIC:
        values = np.asarray(x.values, dtype=float)
        missing = np.isnan(values)
        observed = values[~missing]
        y_obs = y[~missing]
        min_count = max(1, int(math.ceil(min_bin_frac * len(observed))))
        if len(np.unique(observed)) <= 1:
            cuts = np.empty(0)
        else:
            qs = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
            cuts = np.unique(np.quantile(observed, qs))
            # interior cuts only: a cut at the max would leave an empty top bin
            cuts = cuts[cuts < observed.max()]
            cuts = _merge_numeric_cuts(cuts, observed, y_obs, min_count)
        n_interval = len(cuts) + 1
        missing_bin = n_interval if missing.any() else None
        return BinningSpec(
            feature=x.name,
            kind=NUMERIC,
            cut_points=cuts,
            n_bins=n_interval + (1 if missing_bin is not None else 0),
            missing_bin=missing_bin,
            degenerate=n_interval == 1,
        )

    # categorical: frequent levels keep their own bin, the rest pool
    observed = [v for v in x.values if v is not None]
    has_missing = len(observed) < len(x.values)
    levels, counts = np.unique(np.array(observed, dtype=object), return_counts=True)
    min_count = max(1, int(math.ceil(min_bin_frac * max(1, len(observed)))))
    order = np.lexsort((levels.astype(str), -counts))
    level_map: dict = {}
    next_bin = 0
    rare = []
    for pos in order:
        level, count = str(levels[pos]), int(counts[pos])
        if count >= min_count and next_bin < max_bins - 1:
            level_map[level] = next_bin
            next_bin += 1
        else:
            rare.append(level)
    if rare:
        for level in rare:
            level_map[level] = next_bin
        level_map[OTHER_LEVEL] = next_bin
        next_bin += 1
    n_bins = max(next_bin, 1)
    missing_bin = n_bins if has_missing else None
    return BinningSpec(
        feature=x.name,
        kind=CATEGORICAL,
        level_map=level_map,
        n_bins=n_bins + (1 if missing_bin is not None else 0),
        missing_bin=missing_bin,
        degenerate=n_bins == 1 and missing_bin is None,
    )


def compute_woe(spec: BinningSpec, x: Feature, y, smoothing: float = 0.5) -> WoeTable:
    """Fill a WoeTable from binned counts.

    dist_good_b = (n_good_b + s) / (N_good + s * n_bins), likewise for
    bad; woe_b = ln(dist_good_b / dist_bad_b). With s > 0 every ratio is
    finite even for pure bins.
    """
    y = np.asarray(y, dtype=float)
    bin_idx = spec.assign(x.values)
    k = spec.n_bins
    counts = np.bincount(bin_idx, minlength=k).astype(float)
    n_bad = np.bincount(bin_idx, weights=y, minlength=k)
    n_good = counts - n_bad

    total_good = float(n_good.sum())
    total_bad = float(n_bad.sum())
    dist_good = (n_good + smoothing) / (total_good + smoothing * k)
    dist_bad = (n_bad + smoothing) / (total_bad + smoothing * k)
    woe = np.log(dist_good / dist_bad)
    iv_terms = (dist_good - dist_bad) * woe

    if spec.kind == NUMERIC:
        labels = _interval_labels(spec.cut_points)
    else:
        groups: dict[int, list[str]] = {}
        for level, b in sorted(spec.level_map.items()):
            if level != OTHER_LEVEL:
                groups.setdefault(b, []).append(level)
        labels = ["{%s}" % ",".join(groups.get(b, [])) for b in range(k)]
    if spec.missing_bin is not None:
        labels = labels[: spec.missing_bin] + ["missing"]

    table = WoeTable(feature=x.name, spec=spec, smoothing=smoothing)
    for b in range(k):
        table.bins.append(
            BinStats(
                bin_id=b,
                label=labels[b] if b < len(labels) else "bin%d" % b,
                n_good=int(round(n_good[b])),
                n_bad=int(round(n_bad[b])),
                dist_good=float(dist_good[b]),
                dist_bad=float(dist_bad[b]),
                woe=float(woe[b]),
                iv_term=float(iv_terms[b]),
            )
        )
    table.iv = float(iv_terms.sum())
    return table


def fit_woe_tables(d: Dataset, features=None, max_bins: int = 10,
                   min_bin_frac: float = 0.05, smoothing: float = 0.5) -> dict:
    """Fit bins + WOE for each named feature of a dataset (train split)."""
    names = d.feature_names if features is None else list(features)
    tables = {}
    for name in names:
        f = d.feature(name)
        spec = fit_bins(f, d.target, max_bins=max_bins, min_bin_frac=min_bin_frac)
        tables[name] = compute_woe(spec, f, d.target, smoothing=smoothing)
    return tables


def woe_transform(d: Dataset, tables: dict) -> Dataset:
    """Replace covered features by their per-row WOE value.

    Features without a table pass through untouched. Tables fitted on
    train apply unchanged to held-out splits.
    """
    out = []
    for f in d.features:
        table = tables.get(f.name)
        if table is None:
            out.append(f)
        else:
            out.append(Feature(f.name, NUMERIC, table.transform(f.values)))
    return d.with_features(out)


def save_woe_tables(tables: dict, path):
    """Audit artifact: the full binning + WOE + IV detail as JSON."""
    payload = {
        "schema_version": 1,
        "tables": {name: t.to_dict() for name, t in sorted(tables.items())},
    }
    write_json(payload, path)


def load_woe_tables(path) -> dict:
    with open(Path(path), encoding="utf-8") as fh:
        payload = json.load(fh)
    return {name: WoeTable.from_dict(d) for name, d in payload["tables"].items()}
