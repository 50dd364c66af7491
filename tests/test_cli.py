import csv
import hashlib
import io
import json
from pathlib import Path

import pytest
import yaml

from scorekit import cli
from scorekit import data as data_module
from scorekit.cli import main
from scorekit.data import load_csv, load_splits
from scorekit.models import load_model
from scorekit.selection import run_selection


def run(*argv):
    return main([str(a) for a in argv])


SMALL_CONFIG = {
    "synth": {"n_rows": 1500},
    "selection": {"top_k": 10, "xgb": {"n_trees": 20}},
    "models": {
        "forest": {"n_trees": 8, "min_leaf": 1, "max_depth": None},
        "gbm": {"n_trees": 10, "max_depth": 2, "min_leaf": 10, "subsample": 0.9},
        "xgb": {"n_trees": 10, "max_depth": 2},
    },
    "explain": {"n_repeats": 2, "grid_points": 7, "background_rows": 80},
}


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(SMALL_CONFIG), encoding="utf-8")
    return path


@pytest.fixture
def pipeline_dir(tmp_path, small_config):
    out = tmp_path / "run"
    assert run("synth", "--config", small_config, "--out", out, "--seed", 3) == 0
    cfg = out / "config.yaml"
    assert run("split", "--config", cfg, "--out", out) == 0
    assert run("select", "--config", cfg, "--out", out) == 0
    return out


class TestSynthSplitSelect:
    def test_split_row_counts_sum(self, pipeline_dir):
        with open(pipeline_dir / "splits" / "splits.json") as fh:
            manifest = json.load(fh)
        total = 0
        for fname in manifest["files"].values():
            with open(pipeline_dir / "splits" / fname) as fh:
                total += sum(1 for _ in fh) - 1  # minus header
        assert total == 1500

    def test_missing_target_column_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,obs_date\n1,2018-01-01\n", encoding="utf-8")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({
            "data": {"csv": str(bad), "schema": {"a": "numeric"}}}), encoding="utf-8")
        code = run("split", "--config", cfg, "--out", tmp_path / "o")
        assert code == 2
        err = capsys.readouterr().err
        assert "MissingColumn" in err and "default" in err

    @pytest.mark.parametrize("text, message", [
        ("a,default,obs_date\n1,0,2018-01-01\n2,1\n", "bad.csv line 3: 2 cells, header has 3"),
        ("a,default,obs_date\n1,0,2018-01-01\n2,1,2018-02-30\n",
         "bad.csv row 1: date '2018-02-30' does not parse"),
        ("a,default,obs_date,a\n1,0,2018-01-01,7\n",
         "bad.csv: header names column a 2 times"),
        ("a,default,obs_date\n1,0,2018-01-01\n2,1,\n3,0,2018-01-03\n",
         "bad.csv row 1: date '' does not parse"),
        ("a,default,obs_date\n1,0,2018-01-01\n2,1,NaT\n", "bad.csv row 1: date 'NaT' does not parse"),
        ("a,default,obs_date\n1,0,2018-01-01\n2,1,today\n",
         "bad.csv row 1: date 'today' does not parse"),
    ], ids=["short_row", "bad_date", "duplicate_column", "blank_date", "nat_date", "today"])
    def test_malformed_csv_exit_2(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text, encoding="utf-8")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({
            "data": {"csv": str(bad), "schema": {"a": "numeric"}}}), encoding="utf-8")
        code = run("split", "--config", cfg, "--out", tmp_path / "o")
        assert code == 2
        err = capsys.readouterr().err
        assert "MalformedCsv" in err and message in err

    def test_library_selection_matches_cli_defaults(self, tmp_path):
        out = tmp_path / "run"
        (tmp_path / "cfg.yaml").write_text("synth: {n_rows: 1500}\n", encoding="utf-8")
        assert run("synth", "--config", tmp_path / "cfg.yaml", "--out", out, "--seed", 2) == 0
        assert run("split", "--config", out / "config.yaml", "--out", out) == 0
        assert run("select", "--config", out / "config.yaml", "--out", out) == 0
        splits, _ = load_splits(out / "splits")
        # no xgb_config: the library reads selection.xgb from the same defaults
        report = run_selection(splits.train, 300, 81, 0.1, seed=2)
        assert report.to_dict() == json.loads((out / "selection.json").read_text())

    def test_selection_artifacts(self, pipeline_dir):
        report = json.loads((pipeline_dir / "selection.json").read_text())
        assert report["stage_sizes"]["after_ks"] <= report["stage_sizes"]["after_preselect"]
        features = (pipeline_dir / "features.txt").read_text().split()
        assert features == report["survivors_ks"]


class TestTrainPredictExplainReport:
    def test_full_flow(self, pipeline_dir, capsys):
        cfg = pipeline_dir / "config.yaml"
        for family in ("logistic", "logistic_woe", "gbm"):
            assert run("train", "--family", family, "--config", cfg,
                       "--out", pipeline_dir) == 0
        metrics = json.loads((pipeline_dir / "metrics_gbm.json").read_text())
        split_names = {rec["split"] for rec in metrics["splits"]}
        assert split_names == {"train", "test", "out_of_sample", "out_of_time"}
        assert all(rec["gini"] is not None for rec in metrics["splits"])
        # canonical metric artifact carries no wall-clock fields
        assert "learn_time" not in metrics
        assert (pipeline_dir / "timing_gbm.json").exists()

        assert run("predict", "--model", pipeline_dir / "model_gbm.json",
                   "--data", pipeline_dir / "splits" / "test.csv",
                   "--config", cfg, "--out", pipeline_dir) == 0
        scores = (pipeline_dir / "scores.csv").read_text().splitlines()
        assert scores[0] == "row,score"
        assert all(0.0 <= float(line.split(",")[1]) <= 1.0 for line in scores[1:])

        assert run("explain", "--what", "pfi", "--model", pipeline_dir / "model_gbm.json",
                   "--config", cfg, "--out", pipeline_dir) == 0
        assert run("explain", "--what", "pdp", "--feature", "inf_01",
                   "--model", pipeline_dir / "model_gbm.json",
                   pipeline_dir / "model_logistic.json",
                   "--config", cfg, "--out", pipeline_dir) == 0
        assert run("explain", "--what", "cp", "--feature", "inf_01", "--instance", 4,
                   "--model", pipeline_dir / "model_gbm.json",
                   "--config", cfg, "--out", pipeline_dir) == 0
        assert run("explain", "--what", "bd", "--instance", 4,
                   "--model", pipeline_dir / "model_gbm.json",
                   "--config", cfg, "--out", pipeline_dir) == 0

        bd = json.loads((pipeline_dir / "explain_bd_gbm_4.json").read_text())
        total = bd["intercept"] + sum(c["delta"] for c in bd["contributions"])
        assert abs(total - bd["final_prediction"]) <= 1e-9

        pdp = json.loads((pipeline_dir / "explain_pdp_inf_01.json").read_text())
        assert set(pdp["profiles"]) == {"gbm", "logistic"}
        svg = (pipeline_dir / "explain_pdp_inf_01.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

        assert run("report", "--config", cfg, "--out", pipeline_dir) == 0
        lines = (pipeline_dir / "report.csv").read_text().splitlines()
        assert lines[0].split(",")[:6] == ["model", "gini_train", "gini_test",
                                           "gini_out_of_sample", "gini_out_of_time",
                                           "ks_out_of_time"]
        assert len(lines) == 4  # header + three models
        points = json.loads((pipeline_dir / "report_points.json").read_text())
        assert set(points["points"]) == {"logistic", "logistic_woe", "gbm"}

    def test_cp_instance_out_of_range_exit_2(self, pipeline_dir, capsys):
        cfg = pipeline_dir / "config.yaml"
        assert run("train", "--family", "logistic", "--config", cfg,
                   "--out", pipeline_dir) == 0
        code = run("explain", "--what", "cp", "--feature", "inf_01",
                   "--instance", 10_000_000,
                   "--model", pipeline_dir / "model_logistic.json",
                   "--config", cfg, "--out", pipeline_dir)
        assert code == 2
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ("--what", "pdp", "--feature", "nope"),
        ("--what", "pdp", "--feature", "inf_01", "--feature2", "nope"),
        ("--what", "cp", "--feature", "nope", "--instance", 0),
    ])
    def test_explain_unknown_feature_exit_2(self, pipeline_dir, capsys, args):
        cfg = pipeline_dir / "config.yaml"
        assert run("train", "--family", "logistic", "--config", cfg,
                   "--out", pipeline_dir) == 0
        code = run("explain", *args, "--model", pipeline_dir / "model_logistic.json",
                   "--config", cfg, "--out", pipeline_dir)
        assert code == 2
        assert "UnknownColumn: model has no feature 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("family, n_trees", [("forest", 0), ("gbm", -3), ("xgb", 2.5)])
    def test_impossible_tree_count_exit_2(self, pipeline_dir, capsys, family, n_trees):
        cfg = pipeline_dir / "config.yaml"
        config = yaml.safe_load(cfg.read_text())
        config["models"][family]["n_trees"] = n_trees
        cfg.write_text(yaml.safe_dump(config), encoding="utf-8")
        code = run("train", "--family", family, "--config", cfg, "--out", pipeline_dir)
        assert code == 2
        err = capsys.readouterr().err
        if isinstance(n_trees, float):  # stopped by the config's type check
            assert "config key models.%s.n_trees takes int, got %r" % (family, n_trees) in err
        else:
            assert "n_trees >= %d, got %r" % (family == "forest", n_trees) in err

    def test_negative_lam_exit_2(self, pipeline_dir, capsys):
        cfg = pipeline_dir / "config.yaml"
        config = yaml.safe_load(cfg.read_text())
        config["models"]["xgb"]["lam"] = -1.0
        cfg.write_text(yaml.safe_dump(config), encoding="utf-8")
        assert run("train", "--family", "xgb", "--config", cfg, "--out", pipeline_dir) == 2
        assert "xgb needs lam >= 0, got -1.0" in capsys.readouterr().err

    @pytest.mark.parametrize("family, key, value, message", [
        ("gbm", "subsample", -0.5, "gbm needs subsample in (0, 1], got -0.5"),
        ("xgb", "subsample", 1.5, "xgb needs subsample in (0, 1], got 1.5"),
        ("xgb", "colsample", 0.0, "xgb needs colsample in (0, 1], got 0.0"),
        ("gbm", "max_depth", -1, "gbm needs max_depth >= 0, got -1"),
        ("gbm", "min_leaf", 0, "gbm needs min_leaf >= 1, got 0"),
        ("gbm", "learning_rate", float("nan"), "gbm needs a finite learning_rate > 0, got nan"),
        ("xgb", "learning_rate", -0.1, "xgb needs a finite learning_rate > 0, got -0.1"),
        ("xgb", "gamma", -1.0, "xgb needs gamma >= 0, got -1.0"),
    ], ids=["subsample_negative", "subsample_above_1", "colsample_zero", "max_depth",
            "min_leaf", "learning_rate_nan", "learning_rate_negative", "gamma"])
    def test_out_of_range_boosting_param_exit_2(self, pipeline_dir, capsys, family, key, value,
                                                message):
        cfg = pipeline_dir / "config.yaml"
        config = yaml.safe_load(cfg.read_text())
        config["models"][family][key] = value
        cfg.write_text(yaml.safe_dump(config), encoding="utf-8")
        capsys.readouterr()
        assert run("train", "--family", family, "--config", cfg, "--out", pipeline_dir) == 2
        err = capsys.readouterr().err
        assert err == "error: BadParameter: %s\n" % message
        assert not (pipeline_dir / ("model_%s.json" % family)).exists()

    def test_unknown_family_exit_2(self, pipeline_dir, capsys):
        code = run("train", "--family", "perceptron",
                   "--config", pipeline_dir / "config.yaml", "--out", pipeline_dir)
        assert code == 2

    def test_train_unknown_feature_exit_2(self, pipeline_dir, capsys):
        code = run("train", "--family", "logistic", "--features", "inf_01,nope",
                   "--config", pipeline_dir / "config.yaml", "--out", pipeline_dir)
        assert code == 2
        assert "UnknownColumn: nope" in capsys.readouterr().err

    def test_train_parses_only_the_model_columns(self, pipeline_dir, monkeypatch):
        parsed = []
        load_csv = data_module.load_csv

        def spy(*args, **kwargs):
            parsed.append(kwargs.get("columns"))
            return load_csv(*args, **kwargs)

        monkeypatch.setattr(data_module, "load_csv", spy)
        cfg = pipeline_dir / "config.yaml"
        assert run("train", "--family", "tree", "--features", "inf_02,inf_01",
                   "--config", cfg, "--out", pipeline_dir) == 0
        assert parsed == [["inf_02", "inf_01"]] * 4
        assert load_model(pipeline_dir / "model_tree.json").feature_names == ["inf_02", "inf_01"]
        # without features.txt every schema column is a model column
        (pipeline_dir / "features.txt").unlink()
        schema = list(json.loads((pipeline_dir / "splits" / "splits.json").read_text())["schema"])
        parsed.clear()
        assert run("train", "--family", "logistic", "--config", cfg, "--out", pipeline_dir) == 0
        assert parsed == [schema] * 4
        assert load_model(pipeline_dir / "model_logistic.json").feature_names == schema

    def test_train_before_split_exit_2(self, tmp_path, capsys):
        code = run("train", "--family", "logistic", "--out", tmp_path / "empty")
        assert code == 2
        assert "split" in capsys.readouterr().err

    def test_woe_training_writes_audit_tables(self, pipeline_dir):
        cfg = pipeline_dir / "config.yaml"
        assert run("train", "--family", "logistic_woe", "--config", cfg,
                   "--out", pipeline_dir) == 0
        doc = json.loads((pipeline_dir / "woe_tables.json").read_text())
        assert doc["schema_version"] == 1
        some_table = next(iter(doc["tables"].values()))
        assert {"bins", "iv", "cut_points"} <= set(some_table)

    def test_pdp_interaction_surface(self, pipeline_dir):
        cfg = pipeline_dir / "config.yaml"
        assert run("train", "--family", "gbm", "--config", cfg,
                   "--out", pipeline_dir) == 0
        trained = json.loads((pipeline_dir / "model_gbm.json").read_text())
        fa, fb = trained["feature_names"][:2]
        assert run("explain", "--what", "pdp", "--feature", fa,
                   "--feature2", fb, "--model", pipeline_dir / "model_gbm.json",
                   "--config", cfg, "--out", pipeline_dir) == 0
        doc = json.loads((pipeline_dir / ("explain_pdp2_gbm_%s_%s.json" % (fa, fb))).read_text())
        assert len(doc["mean_prediction"]) == len(doc["grid_a"])
        assert len(doc["mean_prediction"][0]) == len(doc["grid_b"])

    def test_cp_of_two_models_leaves_two_files(self, pipeline_dir):
        cfg = pipeline_dir / "config.yaml"
        for family in ("logistic", "tree"):
            assert run("train", "--family", family, "--config", cfg,
                       "--out", pipeline_dir) == 0
            assert run("explain", "--what", "cp", "--feature", "inf_01", "--instance", 5,
                       "--model", pipeline_dir / ("model_%s.json" % family),
                       "--config", cfg, "--out", pipeline_dir) == 0
        docs = [json.loads((pipeline_dir / ("explain_cp_%s_inf_01_5.json" % f)).read_text())
                for f in ("logistic", "tree")]
        assert docs[0] != docs[1]
        assert (pipeline_dir / "explain_cp_tree_inf_01_5.svg").exists()
        assert not list(pipeline_dir.glob("explain_cp_inf_01_*"))

    @pytest.mark.parametrize("args", [
        ["--what", "pfi"],
        ["--what", "pdp", "--feature", "inf_01", "--feature2", "inf_02"],
        ["--what", "cp", "--feature", "inf_01", "--instance", 1],
        ["--what", "bd", "--instance", 1],
    ], ids=["pfi", "pdp2", "cp", "bd"])
    def test_single_model_explainer_given_two_exit_2(self, pipeline_dir, capsys, args):
        cfg = pipeline_dir / "config.yaml"
        models = [pipeline_dir / "model_logistic.json", pipeline_dir / "model_tree.json"]
        for family in ("logistic", "tree"):
            assert run("train", "--family", family, "--config", cfg,
                       "--out", pipeline_dir) == 0
        capsys.readouterr()
        assert run("explain", *args, "--model", *models,
                   "--config", cfg, "--out", pipeline_dir) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: BadParameter: --model: %s explains one model, got 2"
                              % args[1])
        assert err.count("\n") == 1
        assert not list(pipeline_dir.glob("explain_*"))

    @pytest.mark.parametrize("argv, key, value, message", [
        (["split"], "split.oot_start", "2018-12-01",
         "oot_start 2018-12-01 must precede oot_end 2018-11-30"),
        (["split"], "split.oot_start", "2018-13-01",
         "oot_start: date '2018-13-01' does not parse"),
        (["split"], "split.oot_end", "2018-10-31",
         "rows dated after the out-of-time window end oot_end 2018-10-31"),
        (["select"], "selection.unique_threshold", 0, "unique_threshold must be >= 1, got 0"),
        (["select"], "selection.top_k", 0, "top_k must be >= 1, got 0"),
        (["select"], "selection.min_ks", 1.5, "min_ks must be in [0, 1], got 1.5"),
        (["train", "--family", "logistic"], "models.min_gini", 2,
         "min_gini must be in [0, 1], got 2"),
        (["explain", "--what", "pfi"], "explain.n_repeats", 0, "n_repeats must be >= 1, got 0"),
        (["explain", "--what", "pdp", "--feature", "inf_01"], "explain.grid_points", 0,
         "grid_spec must ask for at least one grid point, got 0"),
        (["explain", "--what", "bd", "--instance", 2], "explain.background_rows", 0,
         "background must be a 2-D array with at least one row"),
        (["explain", "--what", "bd", "--instance", 2], "explain.background_rows", -5,
         "background must be a 2-D array with at least one row"),
        (["predict", "--data", "data.csv"], "data.schema", {"inf_01": "number"},
         "schema kind for inf_01 must be numeric or categorical, got 'number'"),
    ], ids=["oot_order", "oot_date", "oot_end_early", "unique_threshold", "top_k", "min_ks",
            "min_gini", "n_repeats", "grid_points", "background_rows", "background_negative",
            "schema_kind"])
    def test_out_of_range_config_value_exit_2(self, pipeline_dir, capsys, monkeypatch, argv,
                                              key, value, message):
        cfg = pipeline_dir / "config.yaml"
        model = pipeline_dir / "model_logistic.json"
        assert run("train", "--family", "logistic", "--config", cfg, "--out", pipeline_dir) == 0

        def no_fit(*args, **kwargs):
            raise AssertionError("a bad value must stop train before the fit")

        monkeypatch.setattr(cli, "train_family", no_fit)
        doc = yaml.safe_load(cfg.read_text())
        section, name = key.split(".")
        doc[section][name] = value
        bad = pipeline_dir / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc), encoding="utf-8")
        if argv[0] in ("explain", "predict"):
            argv = argv + ["--model", model]
        if argv[0] == "predict":
            argv = [pipeline_dir / a if a == "data.csv" else a for a in argv]
        capsys.readouterr()
        assert run(*argv, "--config", bad, "--out", pipeline_dir) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: BadParameter: ") and message in err
        assert err.count("\n") == 1

    def test_explain_reads_only_the_explained_part(self, pipeline_dir, capsys):
        cfg = pipeline_dir / "config.yaml"
        assert run("train", "--family", "logistic", "--config", cfg,
                   "--out", pipeline_dir) == 0
        for name in ("train", "out_of_sample", "out_of_time"):
            (pipeline_dir / "splits" / ("%s.csv" % name)).unlink()
        model = pipeline_dir / "model_logistic.json"
        assert run("explain", "--what", "bd", "--instance", 2, "--model", model,
                   "--config", cfg, "--out", pipeline_dir) == 0
        code = run("explain", "--what", "bd", "--instance", 2, "--model", model,
                   "--part", "validation", "--config", cfg, "--out", pipeline_dir)
        assert code == 2
        assert "unknown split part 'validation'" in capsys.readouterr().err

    def test_non_finite_scores_exit_2(self, pipeline_dir, capsys):
        cfg = pipeline_dir / "config.yaml"
        assert run("train", "--family", "logistic", "--config", cfg,
                   "--out", pipeline_dir) == 0
        model = pipeline_dir / "model_logistic.json"
        # a blank cell of a model feature in the explained part scores NaN
        feature = json.loads(model.read_text())["feature_names"][0]
        part = pipeline_dir / "splits" / "test.csv"
        with open(part, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        rows[1][rows[0].index(feature)] = ""
        with open(part, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        code = run("explain", "--what", "pfi", "--model", model,
                   "--config", cfg, "--out", pipeline_dir)
        assert code == 2
        assert "NonFinite" in capsys.readouterr().err

    def test_train_with_search_budget(self, pipeline_dir):
        cfg_doc = yaml.safe_load((pipeline_dir / "config.yaml").read_text())
        cfg_doc["search"]["budget"] = 3
        cfg_doc["search"]["spaces"]["tree"] = {"max_depth": [2, 4], "min_leaf": [5, 40]}
        cfg = pipeline_dir / "search.yaml"
        cfg.write_text(yaml.safe_dump(cfg_doc), encoding="utf-8")
        assert run("train", "--family", "tree", "--config", cfg,
                   "--out", pipeline_dir) == 0
        doc = json.loads((pipeline_dir / "model_tree.json").read_text())
        assert doc["train_config"]["search_budget"] == 3
        assert 2 <= doc["train_config"]["params"]["max_depth"] <= 4


def rewrite_csv(src: Path, dst: Path, edit):
    """Copy a CSV, passing the header and each row through edit(header, row)."""
    with open(src, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([edit(header, header)] + [edit(header, r) for r in rows])


class TestPredictContract:
    @pytest.fixture
    def models(self, pipeline_dir):
        cfg = pipeline_dir / "config.yaml"
        for family in ("logistic", "logistic_woe"):
            assert run("train", "--family", family, "--config", cfg,
                       "--out", pipeline_dir) == 0
        return [pipeline_dir / "model_logistic.json", pipeline_dir / "model_logistic_woe.json"]

    def predict(self, pipeline_dir, model, data, name, config=None):
        scores = pipeline_dir / name
        code = run("predict", "--model", model, "--data", data, "--scores", scores,
                   "--config", config or pipeline_dir / "config.yaml", "--out", pipeline_dir)
        return code, scores

    def test_scores_bytes_match_csv_writer(self, pipeline_dir, models):
        # coefficients x1000 saturate the sigmoid: 1.0 and exponent-form reprs
        doc = json.loads(models[0].read_text())
        doc["coefficients"] = [1000.0 * c for c in doc["coefficients"]]
        steep = pipeline_dir / "model_steep.json"
        steep.write_text(json.dumps(doc))
        data = pipeline_dir / "data.csv"
        cfg = yaml.safe_load((pipeline_dir / "config.yaml").read_text())["data"]
        dataset = load_csv(data, cfg["schema"], target=cfg["target"], target_optional=True)
        for model in models + [steep]:
            code, path = self.predict(pipeline_dir, model, data, "scores_%s.csv" % model.stem)
            assert code == 0
            reference = io.StringIO(newline="")
            writer = csv.writer(reference)
            writer.writerow(["row", "score"])
            for i, s in enumerate(load_model(model).score_dataset(dataset)):
                writer.writerow([i, repr(float(s))])
            assert path.read_bytes() == reference.getvalue().encode("utf-8")
        steep_scores = [line.split(",")[1] for line in path.read_text().splitlines()[1:]]
        assert "1.0" in steep_scores and any("e-" in s for s in steep_scores)

    def test_garbage_in_unused_columns_gives_identical_scores(self, pipeline_dir, models):
        data = pipeline_dir / "data.csv"
        for model in models:
            used = set(load_model(model).feature_names) | {"default", "obs_date"}
            garbled = pipeline_dir / "garbled.csv"
            rewrite_csv(data, garbled, lambda header, row: [
                cell if name in used or row is header else "oops"
                for name, cell in zip(header, row)])
            code, clean = self.predict(pipeline_dir, model, data, "clean.csv")
            assert code == 0
            code, dirty = self.predict(pipeline_dir, model, garbled, "dirty.csv")
            assert code == 0
            assert dirty.read_bytes() == clean.read_bytes()

    def test_schema_column_missing_from_header_exit_2(self, pipeline_dir, models, capsys):
        used = set(load_model(models[0]).feature_names)
        dropped = next(n for n in yaml.safe_load(
            (pipeline_dir / "config.yaml").read_text())["data"]["schema"] if n not in used)
        short = pipeline_dir / "short.csv"
        rewrite_csv(pipeline_dir / "data.csv", short, lambda header, row: [
            cell for name, cell in zip(header, row) if name != dropped])
        code, _ = self.predict(pipeline_dir, models[0], short, "s.csv")
        assert code == 2
        assert "MissingColumn: %s" % dropped in capsys.readouterr().err

    def test_model_feature_outside_schema_exit_2(self, pipeline_dir, models, capsys):
        doc = yaml.safe_load((pipeline_dir / "config.yaml").read_text())
        feature = load_model(models[0]).feature_names[0]
        del doc["data"]["schema"][feature]
        cfg = pipeline_dir / "narrow.yaml"
        cfg.write_text(yaml.safe_dump(doc), encoding="utf-8")
        code, _ = self.predict(pipeline_dir, models[0], pipeline_dir / "data.csv", "s.csv",
                               config=cfg)
        assert code == 2
        assert "UnknownColumn: %s" % feature in capsys.readouterr().err

    def test_short_row_exit_2(self, pipeline_dir, models, capsys):
        lines = (pipeline_dir / "data.csv").read_text().splitlines(keepends=True)
        short = pipeline_dir / "short.csv"
        short.write_text("".join(lines[:5]) + "1,2\n" + "".join(lines[5:]), encoding="utf-8")
        code, _ = self.predict(pipeline_dir, models[0], short, "s.csv")
        assert code == 2
        assert "MalformedCsv: %s line 6: 2 cells" % short in capsys.readouterr().err

    @pytest.mark.parametrize("used", [True, False], ids=["model_column", "unused_column"])
    def test_cell_over_field_limit_exit_2(self, pipeline_dir, models, capsys, used):
        with open(pipeline_dir / "data.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        features = load_model(models[0]).feature_names
        column = next(i for i, name in enumerate(header)
                      if (name in features) == used and name not in ("default", "obs_date"))
        # a number longer than csv.reader takes: numpy alone would parse it
        rows[4][column] = "1" + "0" * csv.field_size_limit()
        big = pipeline_dir / "big.csv"
        with open(big, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header] + rows)
        code, _ = self.predict(pipeline_dir, models[0], big, "s.csv")
        assert code == 2
        assert ("MalformedCsv: %s line 6: field larger than field limit (%d)"
                % (big, csv.field_size_limit())) in capsys.readouterr().err

    def test_blank_target_is_never_read(self, pipeline_dir, models):
        # scoring data for new applicants has no outcome yet
        data = pipeline_dir / "data.csv"
        unknown = pipeline_dir / "unknown_outcome.csv"
        rewrite_csv(data, unknown, lambda header, row: [
            "" if name == "default" and row is not header else cell
            for name, cell in zip(header, row)])
        for model in models:
            code, known = self.predict(pipeline_dir, model, data, "known.csv")
            assert code == 0
            code, blank = self.predict(pipeline_dir, model, unknown, "blank.csv")
            assert code == 0
            assert blank.read_bytes() == known.read_bytes()

    def test_woe_missing_cell_without_missing_bin_exit_2(self, pipeline_dir, models, capsys):
        feature = load_model(models[1]).feature_names[0]
        holed = pipeline_dir / "holed.csv"
        rewrite_csv(pipeline_dir / "data.csv", holed, lambda header, row: [
            "" if name == feature and row is not header else cell
            for name, cell in zip(header, row)])
        code, _ = self.predict(pipeline_dir, models[1], holed, "s.csv")
        assert code == 2
        assert "NoMissingBin: %s: 1500 missing values" % feature in capsys.readouterr().err


def edited(edit):
    """A text edit that parses the model document, applies edit(doc), and
    writes it back."""
    def apply(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return apply


def set_root(name, value):
    """An edit that sets the root's entry of tree 0's array `name` to value(doc)."""
    return edited(lambda doc: doc["trees"][0][name].__setitem__(0, value(doc)))


class TestBadModelFile:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        """The small pipeline with a model of each kind of file, built once."""
        root = tmp_path_factory.mktemp("trained")
        (root / "config.yaml").write_text(yaml.safe_dump(SMALL_CONFIG), encoding="utf-8")
        out = root / "run"
        assert run("synth", "--config", root / "config.yaml", "--out", out, "--seed", 3) == 0
        for argv in (["split"], ["select"], ["train", "--family", "tree"],
                     ["train", "--family", "logistic"], ["train", "--family", "logistic_woe"],
                     ["train", "--family", "gbm"]):
            assert run(*argv, "--config", out / "config.yaml", "--out", out) == 0
        return out

    @pytest.mark.parametrize("family, edit, message", [
        ("tree", lambda text: text.replace(":", "=", 1), "Expecting ':' delimiter"),
        ("tree", lambda text: text[:len(text) // 2], "line 1 column"),
        ("tree", edited(lambda doc: doc.update(schema_version=1)),
         "schema_version 1, but this scorekit reads only 2: retrain the model"),
        ("tree", edited(lambda doc: doc.update(schema_version=99)),
         "schema_version 99, but this scorekit reads only 2"),
        ("tree", edited(lambda doc: doc.update(model_kind="perceptron")),
         "unknown model_kind 'perceptron'"),
        ("tree", edited(lambda doc: doc.pop("trees")), "missing key 'trees'"),
        ("tree", edited(lambda doc: doc["trees"][0]["gain"].pop()),
         "tree 0: node arrays of unequal length"),
        ("tree", set_root("right", lambda doc: len(doc["trees"][0]["right"]) + 3),
         "tree 0: left and right are not the children of a preorder tree"),
        ("tree", set_root("feature", lambda doc: len(doc["feature_names"])),
         "tree 0: a feature index outside the 5 feature names"),
        ("tree", set_root("threshold", lambda doc: float("nan")), "tree 0: a NaN threshold"),
        ("logistic", edited(lambda doc: doc["coefficients"].append(0.5)),
         "6 coefficients for 5 feature names"),
        # each scored nan with exit 0 before model files were checked for them
        ("tree", edited(lambda doc: doc["trees"][0]["value"].__setitem__(-1, float("nan"))),
         "a non-finite value in tree 0"),
        ("logistic", edited(lambda doc: doc["coefficients"].__setitem__(0, float("nan"))),
         "a non-finite coefficient"),
        ("logistic", edited(lambda doc: doc.update(intercept=float("nan"))),
         "a non-finite intercept"),
        ("logistic_woe",
         edited(lambda doc: doc["logistic"]["coefficients"].__setitem__(1, float("nan"))),
         "a non-finite coefficient"),
        ("logistic_woe", edited(lambda doc: doc["logistic"].update(intercept=float("nan"))),
         "a non-finite intercept"),
        ("gbm", edited(lambda doc: doc.update(initial_score=float("nan"))),
         "a non-finite initial_score"),
        ("gbm", edited(lambda doc: doc.update(learning_rate=float("inf"))),
         "a non-finite learning_rate"),
    ], ids=["not_json", "truncated", "schema_1", "schema_99", "unknown_kind", "missing_key",
            "unequal_arrays", "child_past_end", "feature_index", "nan_threshold",
            "coefficient_count", "nan_leaf_value", "nan_coefficient", "nan_intercept",
            "woe_nan_coefficient", "woe_nan_intercept", "nan_initial_score",
            "inf_learning_rate"])
    def test_damaged_model_exit_2(self, trained, tmp_path, capsys, family, edit, message):
        model = tmp_path / "model.json"
        model.write_text(edit((trained / ("model_%s.json" % family)).read_text()),
                         encoding="utf-8")
        capsys.readouterr()
        assert run("predict", "--model", model, "--data", trained / "data.csv",
                   "--config", trained / "config.yaml", "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: BadModel: %s: " % model) and message in err
        assert err.count("\n") == 1


CANONICAL_SKIP = ("config.yaml", "manifest.json")  # documented volatile files


def canonical_files(out: Path):
    for path in sorted(out.rglob("*")):
        if not path.is_file():
            continue
        rel = str(path.relative_to(out))
        if path.name.startswith("timing_") or rel in CANONICAL_SKIP:
            continue
        yield rel, path


class TestDeterminism:
    def test_rerun_and_threads_byte_identical(self, tmp_path, small_config):
        outputs = []
        for name, threads in (("a", 1), ("b", 2)):
            out = tmp_path / name
            assert run("synth", "--config", small_config, "--out", out,
                       "--seed", 9, "--threads", threads) == 0
            cfg = out / "config.yaml"
            assert run("split", "--config", cfg, "--out", out, "--threads", threads) == 0
            assert run("select", "--config", cfg, "--out", out, "--threads", threads) == 0
            for family in ("logistic", "forest", "gbm"):
                assert run("train", "--family", family, "--config", cfg,
                           "--out", out, "--threads", threads) == 0
            assert run("explain", "--what", "bd", "--instance", 2,
                       "--model", out / "model_gbm.json",
                       "--config", cfg, "--out", out, "--threads", threads) == 0
            assert run("report", "--config", cfg, "--out", out,
                       "--threads", threads) == 0
            outputs.append(dict(
                (rel, path.read_bytes()) for rel, path in canonical_files(out)
                if not rel.endswith("report.csv")  # timing columns are volatile
            ))
        assert outputs[0].keys() == outputs[1].keys()
        for rel in outputs[0]:
            assert outputs[0][rel] == outputs[1][rel], "artifact differs: %s" % rel

    def test_rerun_same_dir_same_manifest_checksums(self, tmp_path, small_config):
        out = tmp_path / "r"
        for _ in range(2):
            assert run("synth", "--config", small_config, "--out", out, "--seed", 4) == 0
            assert run("split", "--config", out / "config.yaml", "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        by_cmd = {}
        for entry in manifest["entries"]:
            by_cmd.setdefault(entry["command"], []).append(entry["artifacts"])
        for cmd, artefact_maps in by_cmd.items():
            assert artefact_maps[0] == artefact_maps[1], cmd


# sha256 of the tree-family artifacts of the small pipeline, which every
# later engine must reproduce byte for byte: selection.json and the models
# since trees became preorder arrays, the models as the schema-1 files of
# that time (`v1_model_bytes` of the saved model), and the boosted scores and
# explanations since boosted models were scored as bit vectors
PINNED_SHA256 = {
    1: {
        "model_tree.json":
            "39268c2d05a044fc326d68f6022784b9bab6bc945c951b0d3640bb469c4f3b82",
        "model_forest.json":
            "ec725e289e8e9a307ff78abd1db1a2f18cb37efbea9ff87bae92a307e3d37bc1",
        "model_gbm.json":
            "7af8c4bdcaf61cff46f31e5a8104c28162b661da6480f412c3fe747c75cb4b70",
        "model_xgb.json":
            "d9bb9a654ffcfffd1b76f781f5d420b88577ab895f12443e58fb656d9cb6fb3b",
        "selection.json":
            "2c8ae6f6d5b81a331c8acf28922c13ab79e974f236d515af4d71e0a535245c7e",
        "scores_gbm.csv":
            "036d3867adcf558ef251b6066dc50f876d6c519f96361a370100e80195ed3779",
        "scores_xgb.csv":
            "dcc84137f38959225b68b7c2669ce8d2c10c34874a757b6a888a3d4527d10ef0",
        "explain_pfi_gbm.json":
            "21883d64345ce8806e7aab14db406f24c5d36e8abfba9c09aee908e80dae89d1",
        "explain_pfi_xgb.json":
            "21757b6c147ed117b678c8586abeacf556f23b53a9443557c34049507f55c96d",
        "explain_bd_gbm_3.json":
            "39091ebc14221f374eb71d739c91ef991806698b2af6913ca82ffd85210322d8",
        "explain_bd_xgb_3.json":
            "4230b3a632e5b52a76387d163424b78618eb13eac338e7e37b8f442e593f63b7",
        "explain_pdp_inf_01.json":
            "ee3d4095f36fbbc257117e155784980c436049849a1cf8470ef499aa1670c4f8",
    },
    2: {
        "model_tree.json":
            "a3af82fe7abcd3aa63059cd803feb64efe8b2687ea83f3570631759a64dcb488",
        "model_forest.json":
            "7dd70439646e1c14da8078cd8327c548bca505f8612411be4022ff093634a2f1",
        "model_gbm.json":
            "b687c2786c994a811a7e90f84e3f28da8dfb93697ce9b97559200ee78e14c411",
        "model_xgb.json":
            "43dd4af1c532cb39fc5a5f75fbfe32db798fc751727ae1ca787d4732b11db10f",
        "selection.json":
            "793269b43d58d783ebc73b0ef9204fc8ce2479cd424c6348597686a7f8f53278",
        "scores_gbm.csv":
            "41c947228dd6f76934b2c74e28f636b0599781ab7d2a748c29e4b4405a84293f",
        "scores_xgb.csv":
            "8fdfacea9c32e9723f736dfdbae49bbd080df4b069af1a50bd15d47bf2d52943",
        "explain_pfi_gbm.json":
            "616edb3c06e0516fd3104d5a6c8deab982157706ffedfe4bbedd58aaca44c73a",
        "explain_pfi_xgb.json":
            "d4cbabc6d8e568296615941fd0b724548930bd331b01d555c4592c2a638b1738",
        "explain_bd_gbm_3.json":
            "699599cdf1ba4d0d3c8aaa821ba1265d074a5c6f07572b971b92dd3f1ddd1400",
        "explain_bd_xgb_3.json":
            "bbfb1036b1b86205632a862f9f1bc1781514b671d2dfba371499b27923289a7a",
        "explain_pdp_inf_01.json":
            "300178f2dfdaa3589297e9f9a3c12b83cde8d3f763fe409d30ceb211a023a6b1",
    },
    3: {
        "model_tree.json":
            "34aba8330ee3597221b0fcd0b4ea9f3e97a63549bd3ebe56fa8430e8eca57c36",
        "model_forest.json":
            "19250f3d48fbbe3a5f56e9a8cd44b2834de65fcf75194e7d5e770ec6e5cd381f",
        "model_gbm.json":
            "4f82e76054f6dc56168cd9c43f2bb00fbe10c48835fc4780f12597ab5b4f9667",
        "model_xgb.json":
            "288d567ac61602804a6f2912d8053df443551f0bd6293ecfc5b86206e7979c5d",
        "selection.json":
            "8077c1af1389bbfacc17d8c21d0b877ea66f85aecfcbe517e11bd4867415e3a5",
        "scores_gbm.csv":
            "c33c0be35f7c9e698a8ba2f27610293312af234c2b62adcb4b065b768e6f390b",
        "scores_xgb.csv":
            "faadff7b54757595b54bad15e75c72f6c9488e4aff4a50995237a79db8f20a1d",
        "explain_pfi_gbm.json":
            "09c16441c8716e9132c24d8709152a5823a24ef2e7f9cd522e3afe381268cb4b",
        "explain_pfi_xgb.json":
            "1cee239af24cd988910ac97e71d12d3eb018dc11619a518b8bbd62e0bb5fd4a1",
        "explain_bd_gbm_3.json":
            "5ed35cbf69a35dec5421f049dd0120649f92c7a766e74896b1456aeafc8b8c3d",
        "explain_bd_xgb_3.json":
            "159543e9779b9698d5064098290c6cce6142dfae60e9368753372701364223d2",
        "explain_pdp_inf_01.json":
            "891eb4b6b53a3032fdad951e17b6faee313b2bde68f2e5f169b9fd27d48be4e0",
    },
}


# sha256 of the same models as saved, in schema 2
PINNED_V2_SHA256 = {
    1: {
        "model_tree.json":
            "0ade4d2be93553def36316fa4c4e38f5548e4bebdbfc57e03b7f8ce9563b4d80",
        "model_forest.json":
            "11b19bd3296292bfc08c8b22094f4f0a2b16f66fafa638cd9358b3b22f57f067",
        "model_gbm.json":
            "c0518b9b99f6f452479b8bd813ce86ae243b436347e8a8decfb25d249795ab51",
        "model_xgb.json":
            "13419ff930c2804210ae324d619e23b3a4eff522e36f145fea372ceae0c341c4",
    },
    2: {
        "model_tree.json":
            "24a59e7841a340ce3a6647bf2a5c2a16f6a2242ccf3e4bdcbb0de3ba30bd4aad",
        "model_forest.json":
            "fa67423d26dc9ce8a5e889a57a0d75490da71baf94ee521b88dd0e76cfcba7eb",
        "model_gbm.json":
            "e934e31173ab508cfaaa7c2504801ee9c6fa6eec973bbf6813192bb84f17818f",
        "model_xgb.json":
            "ffaf81936a3914ad7feda8fb763d40cb0d05630acbff2b1cdf964115fea2318b",
    },
    3: {
        "model_tree.json":
            "dfaf835df76565414457e20bf6f90cc947daa8bfe2cd4265c52395cd6cc6e50e",
        "model_forest.json":
            "a68eb886a1be41936cb7e5c0f917d85047aaaa860e97ea6a07bffda6aa2e2b21",
        "model_gbm.json":
            "eb72b9816f3071ad75e1ab9ca3e36ec8a3588730421111a755a66f02f4d85ff2",
        "model_xgb.json":
            "ee202ebe90f4fa4b119a46c6744aff52dc84745c786a0dcead878400184830f9",
    },
}


def v1_model_bytes(path: Path) -> bytes:
    """The schema-1 file of the tree model saved at `path`: each tree a list
    of node records in preorder, a leaf's holding only value and n, the
    single tree's under "nodes". A tree also stored its objective and a
    forest n_trees, bootstrap and hard_vote, which took one value in every
    file."""
    model = load_model(path)
    trees = [[{"value": v, "n": n} if left < 0 else
              {"value": v, "n": n, "feature": f, "threshold": t, "gain": g,
               "left": left, "right": right}
              for f, t, left, right, v, n, g in zip(*(
                  getattr(tree, name).tolist() for name in
                  ("feature", "threshold", "left", "right", "value", "n", "gain")))]
             for tree in (model.trees if hasattr(model, "trees") else [model.tree])]
    doc = {"schema_version": 1, "model_kind": model.model_kind,
           "feature_names": model.feature_names,
           "train_config": json.loads(path.read_text())["train_config"]}
    if model.model_kind == "tree":
        doc.update(nodes=trees[0], max_depth=model.max_depth, min_leaf=model.min_leaf,
                   objective="gini")
    elif model.model_kind == "forest":
        doc.update(trees=trees, n_trees=len(trees), mtry=model.mtry, seed=model.seed,
                   max_depth=model.max_depth, min_leaf=model.min_leaf, bootstrap=True,
                   hard_vote=False)
    else:
        doc.update(trees=trees, initial_score=model.initial_score,
                   learning_rate=model.learning_rate, variant=model.variant, lam=model.lam,
                   gamma=model.gamma, params=model.params)
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tree_family_artifacts_pinned(tmp_path, small_config, seed):
    out = tmp_path / "run"
    assert run("synth", "--config", small_config, "--out", out, "--seed", seed) == 0
    cfg = out / "config.yaml"
    assert run("split", "--config", cfg, "--out", out) == 0
    assert run("select", "--config", cfg, "--out", out) == 0
    for family in ("tree", "forest", "gbm", "xgb"):
        assert run("train", "--family", family, "--config", cfg, "--out", out) == 0
    # the boosted scores and explanations go through decision_function
    boosted = [out / "model_gbm.json", out / "model_xgb.json"]
    for family, model in zip(("gbm", "xgb"), boosted):
        assert run("predict", "--model", model, "--data", out / "data.csv",
                   "--scores", out / ("scores_%s.csv" % family),
                   "--config", cfg, "--out", out) == 0
        assert run("explain", "--what", "pfi", "--model", model,
                   "--config", cfg, "--out", out) == 0
        assert run("explain", "--what", "bd", "--instance", 3, "--model", model,
                   "--config", cfg, "--out", out) == 0
    assert run("explain", "--what", "pdp", "--feature", "inf_01", "--model", *boosted,
               "--config", cfg, "--out", out) == 0
    digests = {name: hashlib.sha256(v1_model_bytes(out / name) if name.startswith("model_")
                                    else (out / name).read_bytes()).hexdigest()
               for name in PINNED_SHA256[seed]}
    assert digests == PINNED_SHA256[seed]
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in PINNED_V2_SHA256[seed]}
    assert digests == PINNED_V2_SHA256[seed]
