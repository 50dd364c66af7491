"""Discrimination metrics and per-split evaluation reports.

Score orientation matters everywhere here: higher score = more likely bad
(target 1). Gini flips sign if scores are oriented the other way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFinite, OneClassOnly


def _check_finite(scores):
    n_bad = int(np.count_nonzero(~np.isfinite(scores)))
    if n_bad:
        raise NonFinite("%d of %d scores are not finite" % (n_bad, scores.size))


def _check_two_classes(labels):
    labels = np.asarray(labels)
    n_bad = int(np.sum(labels == 1))
    n_good = int(np.sum(labels == 0))
    if n_bad == 0 or n_good == 0:
        raise OneClassOnly(
            "need both classes, got %d bad / %d good" % (n_bad, n_good)
        )
    return n_bad, n_good


def auc(scores, labels) -> float:
    """Rank-based (Mann-Whitney) AUC.

    Fraction of (bad, good) pairs where the bad row scores higher, ties
    counted 0.5. Computed from tie-averaged ranks in O(n log n); exactly
    equal to the O(n^2) pair count. NaN or infinite scores raise NonFinite.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    _check_finite(scores)
    n_bad, n_good = _check_two_classes(labels)
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    # average 1-based rank of each tie group
    avg_rank = ends - (counts - 1) / 2.0
    ranks = avg_rank[inverse]
    rank_sum_bad = float(np.sum(ranks[labels == 1]))
    return (rank_sum_bad - n_bad * (n_bad + 1) / 2.0) / (n_bad * n_good)


def gini(scores, labels) -> float:
    """Gini coefficient, 2*AUC - 1."""
    return 2.0 * auc(scores, labels) - 1.0


def ks_statistic(scores, labels) -> float:
    """Kolmogorov-Smirnov distance between the good and bad score ECDFs.

    Max over observed thresholds s of |ECDF_good(s) - ECDF_bad(s)|, by a
    single sorted sweep. Evaluated only at the last row of each tie group,
    where both ECDFs are well defined. NaN or infinite scores raise
    NonFinite.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    _check_finite(scores)
    n_bad, n_good = _check_two_classes(labels)
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    y = labels[order]
    cum_bad = np.cumsum(y == 1) / n_bad
    cum_good = np.cumsum(y == 0) / n_good
    group_end = np.r_[s[1:] != s[:-1], True]
    return float(np.max(np.abs(cum_good - cum_bad)[group_end]))


@dataclass
class SplitMetrics:
    """Metrics of one model on one data split; `error` set if uncomputable."""

    split: str
    auc: float | None = None
    gini: float | None = None
    ks: float | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "split": self.split,
            "auc": self.auc,
            "gini": self.gini,
            "ks": self.ks,
            "error": self.error,
        }


@dataclass
class MetricReport:
    """One model's evaluation across splits, plus wall-clock timings.

    Timings are volatile and are kept out of the canonical JSON artifact
    (see `to_dict(with_timing=False)`); they appear in the comparison CSV.
    """

    model_name: str
    splits: list[SplitMetrics] = field(default_factory=list)
    learn_time: float = float("nan")
    predict_time: float = float("nan")
    rejected: bool = False

    def split(self, name: str) -> SplitMetrics | None:
        for rec in self.splits:
            if rec.split == name:
                return rec
        return None

    def gini_on(self, name: str) -> float | None:
        rec = self.split(name)
        return None if rec is None else rec.gini

    def to_dict(self, with_timing: bool = False) -> dict:
        out = {
            "schema_version": 1,
            "model_name": self.model_name,
            "splits": [rec.to_dict() for rec in self.splits],
            "rejected": self.rejected,
        }
        if with_timing:
            out["learn_time"] = self.learn_time
            out["predict_time"] = self.predict_time
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "MetricReport":
        report = cls(
            model_name=d["model_name"],
            splits=[
                SplitMetrics(
                    split=s["split"],
                    auc=s["auc"],
                    gini=s["gini"],
                    ks=s["ks"],
                    error=s.get("error"),
                )
                for s in d["splits"]
            ],
            rejected=d.get("rejected", False),
        )
        report.learn_time = d.get("learn_time", float("nan"))
        report.predict_time = d.get("predict_time", float("nan"))
        return report


SPLIT_ORDER = ("train", "test", "out_of_sample", "out_of_time")


def evaluate(
    model,
    splits,
    learn_time: float = float("nan"),
    clock=time.perf_counter,
    ks_splits=("out_of_time",),
) -> MetricReport:
    """Score a trained model on all four splits of a SplitSet.

    Gini/AUC per split, K-S on `ks_splits` (out-of-time by default).
    A one-class split is reported with an error string while the other
    splits still get their numbers. `learn_time` is supplied by the
    caller who timed the fit; predict time is measured here.
    """
    report = MetricReport(model_name=getattr(model, "model_kind", type(model).__name__))
    report.learn_time = learn_time
    predict_total = 0.0
    for name in SPLIT_ORDER:
        part = getattr(splits, name)
        rec = SplitMetrics(split=name)
        t0 = clock()
        scores = model.score_dataset(part)
        predict_total += clock() - t0
        try:
            rec.auc = auc(scores, part.target)
            rec.gini = 2.0 * rec.auc - 1.0
            if name in ks_splits:
                rec.ks = ks_statistic(scores, part.target)
        except OneClassOnly as exc:
            rec.error = str(exc)
        report.splits.append(rec)
    report.predict_time = predict_total
    return report
