import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorekit.data import SplitSet
from scorekit.errors import NonFinite, OneClassOnly
from scorekit.metrics import MetricReport, auc, evaluate, gini, ks_statistic

from conftest import ColumnModel, numeric_dataset


def auc_pair_oracle(scores, labels):
    """O(n^2) pair counting: P(score_bad > score_good), ties 0.5."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    bad = scores[labels == 1]
    good = scores[labels == 0]
    diff = bad[:, None] - good[None, :]
    return (np.sum(diff > 0) + 0.5 * np.sum(diff == 0)) / (len(bad) * len(good))


def ks_brute_oracle(scores, labels):
    """Max ECDF gap checked at every observed threshold."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    good = scores[labels == 0]
    bad = scores[labels == 1]
    best = 0.0
    for t in np.unique(scores):
        gap = abs(np.mean(good <= t) - np.mean(bad <= t))
        best = max(best, gap)
    return best


class TestAuc:
    def test_four_point_example(self):
        # pairs (0.35,0.1) up, (0.35,0.4) down, (0.8,0.1) up, (0.8,0.4) up
        assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_perfect_separation(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert auc([0.3, 0.3, 0.3, 0.3], [0, 1, 0, 1]) == 0.5

    def test_one_class_raises(self):
        with pytest.raises(OneClassOnly):
            auc([0.1, 0.2], [1, 1])

    def test_non_finite_scores_raise(self):
        with pytest.raises(NonFinite, match="2 of 4"):
            auc([np.nan, np.nan, 0.1, 0.2], [1, 0, 1, 0])
        with pytest.raises(NonFinite, match="1 of 4"):
            auc([np.inf, 0.3, 0.1, 0.2], [1, 0, 1, 0])

    def test_matches_pair_oracle_with_ties(self, rng):
        for _ in range(60):
            n = int(rng.integers(10, 500))
            scores = np.round(rng.normal(size=n), 2)  # rounding injects ties
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert abs(auc(scores, labels) - auc_pair_oracle(scores, labels)) <= 1e-12

    @settings(deadline=None, max_examples=200)
    @given(pairs=st.lists(st.tuples(st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 3.0]),
                                    st.integers(0, 1)), min_size=2, max_size=80))
    def test_equals_pair_oracle_on_tie_heavy_scores(self, pairs):
        scores, labels = np.array(pairs).T
        labels = labels.astype(int)
        labels[:2] = [0, 1]
        # both sides are half-integer counts over the same pair count: exact
        assert auc(scores, labels) == auc_pair_oracle(scores, labels)

    def test_invariant_under_monotone_transforms(self, rng):
        scores = rng.normal(size=200)
        labels = rng.integers(0, 2, size=200)
        labels[:2] = [0, 1]
        base = auc(scores, labels)
        assert auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert auc(3.5 * scores + 11.0, labels) == pytest.approx(base, abs=1e-12)


class TestGini:
    def test_from_auc_example(self):
        assert gini([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.5, abs=1e-15)

    def test_identity_with_auc(self, rng):
        scores = rng.normal(size=300)
        labels = rng.integers(0, 2, size=300)
        labels[:2] = [0, 1]
        assert gini(scores, labels) == 2.0 * auc(scores, labels) - 1.0

    def test_random_scores_near_zero(self, rng):
        labels = rng.integers(0, 2, size=20000)
        scores = rng.normal(size=20000)
        assert abs(gini(scores, labels)) < 0.03

    def test_perfect(self):
        assert gini([0.0, 1.0], [0, 1]) == 1.0


class TestKs:
    def test_two_by_two_example(self):
        # goods {0.2, 0.6}, bads {0.4, 0.8}: gap 0.5 at s=0.2 and s=0.6
        assert ks_statistic([0.2, 0.6, 0.4, 0.8], [0, 0, 1, 1]) == 0.5

    def test_perfect_separation(self):
        assert ks_statistic([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_identical_distributions(self):
        assert ks_statistic([0.3, 0.7, 0.3, 0.7], [0, 0, 1, 1]) == 0.0

    def test_non_finite_scores_raise(self):
        with pytest.raises(NonFinite, match="2 of 4"):
            ks_statistic([np.nan, 0.6, -np.inf, 0.8], [0, 0, 1, 1])

    def test_matches_brute_force(self, rng):
        for _ in range(60):
            n = int(rng.integers(10, 300))
            scores = np.round(rng.normal(size=n), 2)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert abs(ks_statistic(scores, labels) - ks_brute_oracle(scores, labels)) <= 1e-12


def _four_way_splits():
    part = numeric_dataset({"x": [0.1, 0.9, 0.2, 0.8]}, [0, 1, 0, 1])
    return SplitSet(train=part, test=part, out_of_sample=part, out_of_time=part)


class TestEvaluate:
    def test_identical_parts_identical_gini(self):
        splits = _four_way_splits()
        report = evaluate(ColumnModel(["x"]), splits)
        assert report.gini_on("test") == report.gini_on("out_of_sample")

    def test_memorizer_train_gini_one(self):
        splits = _four_way_splits()
        report = evaluate(ColumnModel(["x"]), splits)
        assert report.gini_on("train") == 1.0

    def test_gini_identity_on_every_split(self):
        report = evaluate(ColumnModel(["x"]), _four_way_splits())
        for rec in report.splits:
            assert rec.gini == 2.0 * rec.auc - 1.0

    def test_single_class_split_reports_error_others_fine(self):
        good = numeric_dataset({"x": [0.1, 0.9, 0.2, 0.8]}, [0, 1, 0, 1])
        one_class = numeric_dataset({"x": [0.5, 0.6]}, [1, 1])
        splits = SplitSet(train=good, test=good, out_of_sample=good, out_of_time=one_class)
        report = evaluate(ColumnModel(["x"]), splits)
        oot = report.split("out_of_time")
        assert oot.error is not None and oot.gini is None
        assert report.gini_on("train") == 1.0

    def test_ks_only_on_requested_splits(self):
        report = evaluate(ColumnModel(["x"]), _four_way_splits())
        assert report.split("out_of_time").ks == 1.0
        assert report.split("train").ks is None

    def test_round_trip_dict(self):
        report = evaluate(ColumnModel(["x"]), _four_way_splits(), learn_time=1.5)
        clone = MetricReport.from_dict(report.to_dict(with_timing=True))
        assert clone.gini_on("test") == report.gini_on("test")
        assert clone.learn_time == 1.5
