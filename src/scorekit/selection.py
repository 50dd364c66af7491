"""Three-stage variable preselection and Gini-threshold model rejection.

Stage 1 partitions features by unique-value count (threshold inclusive on
the low side). Stage 2 trains a boosted model per partition and ranks the
union of features by total split gain, keeping the top_k with nonzero
importance. Stage 3 keeps features whose own values, read as a score,
reach a minimum K-S separation between goods and bads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import load_config
from .data import Dataset, write_json
from .errors import BadParameter
from .metrics import MetricReport, ks_statistic
from .models.boosting import train_xgb

@dataclass
class SelectionReport:
    """What each stage saw and what survived it."""

    unique_threshold: int
    partitions: dict = field(default_factory=dict)      # feature -> low_card | high_card
    importance: dict = field(default_factory=dict)      # feature -> total gain
    feature_ks: dict = field(default_factory=dict)      # feature -> K-S of the raw values
    survivors_preselect: list = field(default_factory=list)
    survivors_ks: list = field(default_factory=list)
    top_k: int = 0
    min_ks: float = 0.0

    def stage_sizes(self) -> dict:
        return {
            "input": len(self.partitions),
            "after_preselect": len(self.survivors_preselect),
            "after_ks": len(self.survivors_ks),
        }

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "unique_threshold": self.unique_threshold,
            "top_k": self.top_k,
            "min_ks": self.min_ks,
            "partitions": self.partitions,
            "importance": self.importance,
            "feature_ks": self.feature_ks,
            "survivors_preselect": self.survivors_preselect,
            "survivors_ks": self.survivors_ks,
            "stage_sizes": self.stage_sizes(),
        }

    def save(self, path):
        write_json(self.to_dict(), path)


def split_by_unique_count(d: Dataset, threshold: int) -> tuple[list[str], list[str]]:
    """Features with n_unique <= threshold go low-cardinality, rest high."""
    if threshold < 1:
        raise BadParameter("unique_threshold must be >= 1, got %r" % threshold)
    low, high = [], []
    for f in d.features:
        (low if f.n_unique <= threshold else high).append(f.name)
    return low, high


def preselect_by_boosting(d: Dataset, partitions, top_k: int, seed: int = 0,
                          config: dict | None = None) -> tuple[list[str], dict]:
    """Rank features by total split gain of per-partition boosted models.

    The models take `config` laid over `selection.xgb` of the packaged
    defaults, and train_xgb's own defaults for what neither sets.
    Returns (survivors, importance). Zero-importance features are never
    retained, even when top_k exceeds the nonzero count.
    """
    if top_k < 1:
        raise BadParameter("top_k must be >= 1, got %r" % top_k)
    params = {**load_config()["selection"]["xgb"], **(config or {})}
    importance: dict[str, float] = {}
    for part_idx, names in enumerate(partitions):
        names = [n for n in names if n in d.feature_names]
        if not names:
            continue
        X = d.matrix(names)
        model = train_xgb(X, d.target, seed=seed + part_idx,
                          feature_names=names, **params)
        for name, gain in zip(names, model.feature_gain_):
            importance[name] = float(gain)
    ranked = sorted(importance.items(), key=lambda kv: (-kv[1], kv[0]))
    survivors = [name for name, gain in ranked[:top_k] if gain > 0.0]
    return survivors, importance


def feature_ks(d: Dataset, name: str) -> float:
    """K-S of a feature read as a score, best of both orientations."""
    values = d.feature(name).values.astype(float)
    forward = ks_statistic(values, d.target)
    backward = ks_statistic(-values, d.target)
    return max(forward, backward)


def ks_filter(d: Dataset, features, min_ks: float) -> tuple[list[str], dict]:
    """Drop features whose raw-value K-S falls below min_ks."""
    if not 0.0 <= min_ks <= 1.0:
        raise BadParameter("min_ks must be in [0, 1], got %r" % min_ks)
    ks_by_feature = {name: feature_ks(d, name) for name in features}
    survivors = [name for name in features if ks_by_feature[name] >= min_ks]
    return survivors, ks_by_feature


def run_selection(d: Dataset, unique_threshold: int, top_k: int, min_ks: float,
                  seed: int = 0, xgb_config: dict | None = None) -> SelectionReport:
    """The full pipeline: cardinality split, boosted ranking, K-S filter."""
    low, high = split_by_unique_count(d, unique_threshold)
    report = SelectionReport(unique_threshold=unique_threshold, top_k=top_k,
                             min_ks=min_ks)
    report.partitions = {name: "low_card" for name in low}
    report.partitions.update({name: "high_card" for name in high})
    survivors, importance = preselect_by_boosting(
        d, [low, high], top_k=top_k, seed=seed, config=xgb_config)
    report.importance = importance
    report.survivors_preselect = survivors
    kept, ks_map = ks_filter(d, survivors, min_ks)
    report.feature_ks = ks_map
    report.survivors_ks = kept
    return report


def reject_models(reports: list[MetricReport], min_gini: float,
                  split: str = "test") -> list[MetricReport]:
    """Mark reports whose split Gini falls below min_gini as rejected.

    The boundary value itself is accepted. Expert-knowledge rejection is
    a manual flag callers may set on top; it is not automated here.
    Returns the accepted reports; every report gets its `rejected` flag
    set either way.
    """
    if not 0.0 <= min_gini <= 1.0:
        raise BadParameter("min_gini must be in [0, 1], got %r" % min_gini)
    accepted = []
    for report in reports:
        g = report.gini_on(split)
        report.rejected = g is not None and g < min_gini
        if not report.rejected:
            accepted.append(report)
    return accepted
