import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorekit.data import CATEGORICAL, NUMERIC, Dataset, Feature
from scorekit.models import train_woe_logistic
from scorekit.woe import (
    BinningSpec,
    compute_woe,
    fit_bins,
    fit_woe_tables,
    load_woe_tables,
    save_woe_tables,
    woe_transform,
)

from conftest import numeric_dataset


def feat(values, name="x"):
    return Feature(name, NUMERIC, np.asarray(values, dtype=float))


def alternating_y(n):
    return np.arange(n) % 2


class TestFitBins:
    def test_uniform_quartiles(self):
        x = feat(np.linspace(0.0, 1.0, 400))
        spec = fit_bins(x, alternating_y(400), max_bins=4, min_bin_frac=0.05)
        assert spec.n_bins == 4
        assert np.allclose(spec.cut_points, [0.25, 0.5, 0.75], atol=0.01)

    def test_constant_feature_degenerate(self):
        spec = fit_bins(feat([3.0] * 50), alternating_y(50), max_bins=4)
        assert spec.n_bins == 1
        assert spec.degenerate

    def test_missing_gets_own_bin(self):
        values = np.linspace(0, 1, 100)
        values[::10] = np.nan  # 10% missing
        spec = fit_bins(feat(values), alternating_y(100), max_bins=4)
        assert spec.missing_bin == spec.n_bins - 1
        idx = spec.assign(values)
        assert (idx[::10] == spec.missing_bin).all()

    def test_every_bin_big_enough_and_mixed(self, rng):
        x = feat(rng.normal(size=500) ** 3)
        y = (rng.random(500) < 0.1).astype(int)  # rare bads force merging
        y[:2] = [0, 1]
        spec = fit_bins(x, y, max_bins=10, min_bin_frac=0.05)
        idx = spec.assign(x.values)
        for b in range(spec.n_bins):
            in_bin = idx == b
            assert in_bin.sum() >= 25
            assert y[in_bin].min() == 0 and y[in_bin].max() == 1

    def test_assignment_exhaustive_interval_convention(self):
        spec = BinningSpec(feature="x", kind=NUMERIC,
                           cut_points=np.array([0.25, 0.5]), n_bins=3)
        # (-inf, .25], (.25, .5], (.5, inf)
        assert spec.assign([0.25, 0.26, 0.5, 0.51, -5.0]).tolist() == [0, 1, 1, 2, 0]

    def test_categorical_levels_and_rare_pool(self):
        values = np.array(["A"] * 40 + ["B"] * 30 + ["C"] * 2 + ["D"] * 1, dtype=object)
        x = Feature("c", CATEGORICAL, values)
        spec = fit_bins(x, alternating_y(73), max_bins=10, min_bin_frac=0.05)
        assert spec.level_map["A"] != spec.level_map["B"]
        assert spec.level_map["C"] == spec.level_map["D"]  # pooled rare levels

    def test_needs_both_classes(self):
        with pytest.raises(ValueError):
            fit_bins(feat([1, 2, 3]), [1, 1, 1])


class TestComputeWoe:
    def test_hand_computed_example(self):
        # bin0 holds 40% of goods and 10% of bads: woe = ln(4)
        x = feat([0.0] * 5 + [1.0] * 15)
        y = np.array([1, 0, 0, 0, 0] + [1] * 9 + [0] * 6)  # bin0: 4 good 1 bad
        spec = BinningSpec(feature="x", kind=NUMERIC,
                           cut_points=np.array([0.5]), n_bins=2)
        table = compute_woe(spec, x, y, smoothing=0.0)
        b0 = table.bins[0]
        assert b0.dist_good == pytest.approx(0.4, abs=1e-15)
        assert b0.dist_bad == pytest.approx(0.1, abs=1e-15)
        assert b0.woe == pytest.approx(math.log(4.0), abs=1e-12)
        assert b0.iv_term == pytest.approx(0.3 * math.log(4.0), abs=1e-12)

    def test_symmetric_bin_zero_woe(self):
        x = feat([0.0, 0.0, 1.0, 1.0])
        y = np.array([0, 1, 0, 1])
        spec = BinningSpec(feature="x", kind=NUMERIC,
                           cut_points=np.array([0.5]), n_bins=2)
        table = compute_woe(spec, x, y, smoothing=0.0)
        assert table.bins[0].woe == 0.0
        assert table.bins[0].iv_term == 0.0
        assert table.iv == 0.0

    def test_perfect_separation_smoothed_finite(self):
        x = feat([0.0] * 10 + [1.0] * 10)
        y = np.array([0] * 10 + [1] * 10)  # feature identical to target
        # fit_bins would merge pure bins away; hand-build the two-bin spec
        # to exercise the smoothing itself
        spec = BinningSpec(feature="x", kind=NUMERIC,
                           cut_points=np.array([0.5]), n_bins=2)
        table = compute_woe(spec, x, y, smoothing=0.5)
        w0, w1 = table.bins[0].woe, table.bins[1].woe
        assert math.isfinite(w0) and math.isfinite(w1)
        assert w0 > 1.0 and w1 < -1.0  # large, opposite signs

    def test_distributions_sum_to_one(self, rng):
        x = feat(rng.normal(size=300))
        x.values[rng.random(300) < 0.1] = np.nan
        y = rng.integers(0, 2, size=300)
        y[:2] = [0, 1]
        spec = fit_bins(x, y)
        table = compute_woe(spec, x, y)
        assert abs(sum(b.dist_good for b in table.bins) - 1.0) <= 1e-12
        assert abs(sum(b.dist_bad for b in table.bins) - 1.0) <= 1e-12

    def test_iv_nonnegative(self, rng):
        for trial in range(20):
            x = feat(rng.normal(size=200))
            y = rng.integers(0, 2, size=200)
            y[:2] = [0, 1]
            table = compute_woe(fit_bins(x, y), x, y)
            assert table.iv >= 0.0

    def test_bin_counts_sum_to_totals(self, rng):
        x = feat(rng.normal(size=250))
        y = rng.integers(0, 2, size=250)
        y[:2] = [0, 1]
        table = compute_woe(fit_bins(x, y), x, y)
        assert sum(b.n_good + b.n_bad for b in table.bins) == 250
        assert sum(b.n_bad for b in table.bins) == int(y.sum())

    @settings(deadline=None, max_examples=150)
    @given(data=st.data(), kind=st.sampled_from([NUMERIC, CATEGORICAL]),
           max_bins=st.integers(2, 6), min_bin_frac=st.sampled_from([0.0, 0.05, 0.3]))
    def test_bin_counts_sum_to_n(self, data, kind, max_bins, min_bin_frac):
        cells = (st.sampled_from([-2.0, 0.0, 0.5, 1.0, 7.0, np.nan]) if kind == NUMERIC
                 else st.sampled_from(["a", "b", "c", "d", None]))
        values = data.draw(st.lists(cells, min_size=2, max_size=60))
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(values),
                                        max_size=len(values))))
        y[:2] = [0, 1]
        x = (feat(values) if kind == NUMERIC
             else Feature("x", CATEGORICAL, np.array(values, dtype=object)))
        table = compute_woe(fit_bins(x, y, max_bins=max_bins, min_bin_frac=min_bin_frac), x, y)
        assert sum(b.n_good + b.n_bad for b in table.bins) == len(values)
        assert sum(b.n_bad for b in table.bins) == int(y.sum())

    def test_monotone_relabel_invariance(self, rng):
        base = rng.normal(size=400)
        y = rng.integers(0, 2, size=400)
        y[:2] = [0, 1]
        stats = []
        for transform in (lambda v: v, np.exp, lambda v: v ** 3):
            x = feat(transform(base))
            table = compute_woe(fit_bins(x, y, max_bins=6), x, y)
            stats.append([(b.n_good, b.n_bad, b.woe) for b in table.bins])
        assert stats[0] == stats[1] == stats[2]

    def test_deterministic(self, rng):
        x = feat(rng.normal(size=300))
        y = rng.integers(0, 2, size=300)
        y[:2] = [0, 1]
        t1 = compute_woe(fit_bins(x, y), x, y)
        t2 = compute_woe(fit_bins(x, y), x, y)
        assert t1.to_dict() == t2.to_dict()


class TestWoeTransform:
    def test_zero_woe_bin_maps_to_zero(self):
        x = feat([0.0, 0.0, 1.0, 1.0])
        y = np.array([0, 1, 0, 1])
        d = numeric_dataset({"x": x.values}, y)
        tables = fit_woe_tables(d, smoothing=0.0)
        out = woe_transform(d, tables)
        assert out.feature("x").values.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_missing_maps_to_missing_bin_woe(self):
        values = np.array([1.0, 2.0, 3.0, 4.0, np.nan, np.nan])
        y = np.array([0, 0, 1, 1, 1, 1])
        d = numeric_dataset({"x": values}, y)
        tables = fit_woe_tables(d, max_bins=2)
        table = tables["x"]
        out = woe_transform(d, tables)
        missing_woe = table.bins[table.spec.missing_bin].woe
        assert out.feature("x").values[4] == missing_woe

    def test_heldout_values_drawn_from_train_levels(self, rng):
        train = numeric_dataset({"x": rng.normal(size=200)},
                                np.r_[0, 1, rng.integers(0, 2, 198)])
        test = numeric_dataset({"x": rng.normal(size=50) * 10}, rng.integers(0, 2, 50))
        tables = fit_woe_tables(train)
        train_levels = set(tables["x"].woe_values().tolist())
        out = woe_transform(test, tables)
        assert set(out.feature("x").values.tolist()) <= train_levels

    def test_features_without_table_pass_through(self, rng):
        d = numeric_dataset({"x": rng.normal(size=100), "z": rng.normal(size=100)},
                            np.r_[0, 1, rng.integers(0, 2, 98)])
        tables = fit_woe_tables(d, features=["x"])
        out = woe_transform(d, tables)
        assert np.array_equal(out.feature("z").values, d.feature("z").values)


def test_tables_json_round_trip(tmp_path, rng):
    d = numeric_dataset({"x": rng.normal(size=150), "w": rng.normal(size=150) ** 2},
                        np.r_[0, 1, rng.integers(0, 2, 148)])
    tables = fit_woe_tables(d)
    path = tmp_path / "woe.json"
    save_woe_tables(tables, path)
    back = load_woe_tables(path)
    assert set(back) == {"x", "w"}
    for name in tables:
        assert np.array_equal(back[name].transform(d.feature(name).values),
                              tables[name].transform(d.feature(name).values))
        assert back[name].iv == tables[name].iv


def test_woe_model_scores_categorical_columns_through_their_tables(rng):
    # the reference: the WOE-transformed dataset's matrix, scored by the logistic part
    levels = np.array(["A", "B", "C", None], dtype=object)
    data = Dataset([Feature("c", CATEGORICAL, levels[rng.integers(0, 4, 200)]),
                    feat(rng.normal(size=200))], rng.integers(0, 2, 200))
    model = train_woe_logistic(data, ["x", "c"], max_bins=4)
    expected = model.logistic.predict_proba(
        woe_transform(data, model.tables).matrix(["x", "c"]))
    assert model.score_dataset(data).tobytes() == expected.tobytes()
