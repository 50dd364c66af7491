"""Command-line orchestration: synth -> split -> select -> train -> predict
-> explain -> report.

Every command reads a YAML config (the packaged defaults of
scorekit.config, overridable per key; a key they lack is an error), writes its
artifacts under --out, and appends an entry with input/artifact
checksums to manifest.json there. JSON artifacts are deterministic for a
fixed config and seed; wall-clock timings and timestamps live only in the
manifest and in timing_* sidecar files, which are the documented volatile
outputs.

Exit codes: 0 ok, 1 internal error, 2 usage or contract error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import sys
import time
from datetime import datetime
from pathlib import Path

import numpy as np
import yaml

from . import charts
from .config import load_config
from .data import (
    Dataset,
    DummyEncoder,
    MeanImputer,
    load_csv,
    load_split_part,
    load_splits,
    read_split_manifest,
    save_splits,
    temporal_split,
    write_csv,
    write_json,
    CATEGORICAL,
    NUMERIC,
)
from .errors import BadParameter, ScorekitError, UnknownColumn
from .explain import (
    break_down,
    ceteris_paribus,
    partial_dependence,
    partial_dependence_2d,
    permutation_importance,
)
from .metrics import MetricReport, evaluate
from .models import (
    load_model,
    random_search,
    save_model,
    train_gbm,
    train_logistic,
    train_random_forest,
    train_tree,
    train_woe_logistic,
    train_xgb,
)
from .selection import reject_models, run_selection
from .synth import make_credit_data, schema_for
from .woe import save_woe_tables

log = logging.getLogger("scorekit")

FAMILIES = ("logistic", "logistic_woe", "tree", "forest", "gbm", "xgb")


# ---------------------------------------------------------------------------
# manifest plumbing

def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_resolved_config(config, out_dir):
    path = Path(out_dir) / "config.yaml"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config, fh, sort_keys=True)
    return path


def record_manifest(out_dir, command, inputs, artifacts, params=None):
    """Append one entry to manifest.json: checksums of what went in and out."""
    out_dir = Path(out_dir)
    manifest_path = out_dir / "manifest.json"
    if manifest_path.exists():
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    else:
        manifest = {"schema_version": 1, "entries": []}
    entry = {
        "command": command,
        "timestamp": datetime.now().isoformat(timespec="seconds"),
        "inputs": {str(p): _sha256(p) for p in inputs},
        "artifacts": {str(Path(p).relative_to(out_dir)): _sha256(p) for p in artifacts},
        "params": params or {},
    }
    manifest["entries"].append(entry)
    manifest["run_id"] = hashlib.sha256(
        json.dumps([e["artifacts"] for e in manifest["entries"]], sort_keys=True).encode()
    ).hexdigest()[:12]
    write_json(manifest, manifest_path)
    return entry


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args, config) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    s = config["synth"]
    dataset, info = make_credit_data(
        n_rows=s["n_rows"], n_informative=s["n_informative"], n_noise=s["n_noise"],
        n_constant=s["n_constant"], base_rate=s["base_rate"], drift=s["drift"],
        seed=config["seed"],
    )
    csv_path = out_dir / "data.csv"
    write_csv(dataset, csv_path, target=config["data"]["target"],
              date_col=config["data"]["date_col"])
    config["data"]["csv"] = str(csv_path)
    config["data"]["schema"] = schema_for(dataset)
    cfg_path = _write_resolved_config(config, out_dir)
    info_path = out_dir / "synth_info.json"
    write_json({"schema_version": 1, **info}, info_path)
    record_manifest(out_dir, "synth", [], [csv_path, cfg_path, info_path],
                    params={"seed": config["seed"], "n_rows": s["n_rows"]})
    print("wrote %s (%d rows)" % (csv_path, dataset.n_rows))
    return 0


def _processed_schema(d: Dataset) -> dict:
    return {f.name: f.kind for f in d.features}


def cmd_split(args, config) -> int:
    out_dir = Path(args.out)
    dcfg = config["data"]
    if not dcfg.get("csv"):
        raise ScorekitError("no input CSV configured (data.csv)")
    dataset = load_csv(dcfg["csv"], dcfg["schema"], target=dcfg["target"],
                       date_col=dcfg["date_col"], missing_token=dcfg["missing_token"])
    sp = config["split"]
    splits = temporal_split(
        dataset,
        test_fraction=sp["test_fraction"],
        oot_start=str(sp["oot_start"]),
        oot_end=str(sp["oot_end"]),
        seed=config["seed"],
        oos_fraction=sp["oos_fraction"],
    )

    # fit cleaning on train only, apply everywhere (leakage guard)
    imputer = MeanImputer().fit(splits.train)
    cat_cols = [f.name for f in splits.train.features if f.kind == CATEGORICAL]
    parts = {name: imputer.transform(part) for name, part in splits.parts().items()}
    encodings = {}
    if cat_cols:
        encoder = DummyEncoder(cat_cols).fit(parts["train"])
        parts = {name: encoder.transform(part) for name, part in parts.items()}
        encodings = {
            name: {"reference": encoder.reference_[name], "levels": encoder.levels_[name]}
            for name in cat_cols
        }
    splits = type(splits)(**parts)

    split_dir = out_dir / "splits"
    manifest = save_splits(
        splits,
        split_dir,
        schema=_processed_schema(splits.train),
        params={
            "seed": config["seed"],
            "test_fraction": sp["test_fraction"],
            "oos_fraction": sp["oos_fraction"],
            "oot_start": str(sp["oot_start"]),
            "oot_end": str(sp["oot_end"]),
            "imputation_means": imputer.means_,
            "dropped_columns": imputer.dropped_,
            "encodings": encodings,
        },
        target=dcfg["target"],
        date_col=dcfg["date_col"],
    )
    cfg_path = _write_resolved_config(config, out_dir)
    artifacts = [split_dir / fname for fname in manifest["files"].values()]
    artifacts += [split_dir / "splits.json", cfg_path]
    record_manifest(out_dir, "split", [dcfg["csv"]], artifacts,
                    params={"seed": config["seed"]})
    counts = {name: part.n_rows for name, part in splits.parts().items()}
    print("split sizes: %s (total %d)" % (counts, sum(counts.values())))
    return 0


def cmd_select(args, config) -> int:
    out_dir = Path(args.out)
    sel = config["selection"]
    report = run_selection(
        _load_part(out_dir, "train", None),
        unique_threshold=sel["unique_threshold"],
        top_k=sel["top_k"],
        min_ks=sel["min_ks"],
        seed=config["seed"],
        xgb_config=dict(sel["xgb"]),
    )
    report_path = out_dir / "selection.json"
    report.save(report_path)
    features_path = out_dir / "features.txt"
    features_path.write_text("".join("%s\n" % n for n in report.survivors_ks),
                             encoding="utf-8")
    record_manifest(out_dir, "select", [out_dir / "splits" / "splits.json"],
                    [report_path, features_path],
                    params={"stage_sizes": report.stage_sizes()})
    if not report.survivors_ks:
        print("warning: no features survived selection", file=sys.stderr)
    print("selection: %s" % report.stage_sizes())
    return 0


def _selected_features(out_dir, schema: dict) -> list[str]:
    features_path = Path(out_dir) / "features.txt"
    if features_path.exists():
        names = [line.strip() for line in features_path.read_text(encoding="utf-8").splitlines()
                 if line.strip()]
        if names:
            return names
    return list(schema)


def train_family(family: str, splits, names, config, threads: int = 1):
    """Train one model family per config; returns (model, train_config_dict)."""
    mcfg = config["models"]
    seed = config["seed"]
    Xtr = splits.train.matrix(names)
    ytr = splits.train.target
    budget = config["search"]["budget"]

    if family == "logistic":
        params = dict(mcfg["logistic"])
        model = train_logistic(Xtr, ytr, feature_names=names, **params)
        return model, {"family": family, "params": params}
    if family == "logistic_woe":
        params = dict(mcfg["logistic_woe"])
        model = train_woe_logistic(splits.train, names, **params)
        return model, {"family": family, "params": params}

    trainers = {
        "tree": lambda X, y, seed=0, **p: train_tree(X, y, feature_names=names, **p),
        "forest": lambda X, y, seed=0, **p: train_random_forest(
            X, y, seed=seed, feature_names=names, threads=threads, **p),
        "gbm": lambda X, y, seed=0, **p: train_gbm(X, y, seed=seed, feature_names=names, **p),
        "xgb": lambda X, y, seed=0, **p: train_xgb(X, y, seed=seed, feature_names=names, **p),
    }

    if budget and budget > 0:
        # a two-number list is a range, any other list a set of choices
        space = {key: (tuple(val) if isinstance(val, list) and len(val) == 2
                       and all(type(v) in (int, float) for v in val) else val)
                 for key, val in config["search"]["spaces"][family].items()}
        Xval = splits.test.matrix(names)
        yval = splits.test.target
        cfg, model = random_search(space, trainers[family], Xtr, ytr, Xval, yval,
                                   budget=budget, seed=seed, threads=threads)
        return model, {"family": family, "params": cfg.params, "seed": cfg.seed,
                       "trial": cfg.trial, "search_budget": budget,
                       "validation_gini": cfg.score}
    params = dict(mcfg[family])
    model = trainers[family](Xtr, ytr, seed=seed, **params)
    return model, {"family": family, "params": params, "seed": seed}


def cmd_train(args, config) -> int:
    out_dir = Path(args.out)
    split_dir = _split_dir_checked(out_dir)
    schema = read_split_manifest(split_dir)["schema"]
    family = args.family
    if family not in FAMILIES:
        raise ScorekitError("unknown model family %r (choose from %s)" % (family, ", ".join(FAMILIES)))
    names = args.features.split(",") if args.features else _selected_features(out_dir, schema)
    for name in names:
        if name not in schema:
            raise UnknownColumn(name)
    reject_models([], config["models"]["min_gini"])  # range-checks min_gini before the fit
    splits, _ = load_splits(split_dir, columns=names)  # parses only the model's columns

    t0 = time.perf_counter()
    model, train_config = train_family(family, splits, names, config,
                                       threads=config["threads"])
    learn_time = time.perf_counter() - t0

    report = evaluate(model, splits, learn_time=learn_time)
    report.model_name = family
    reject_models([report], config["models"]["min_gini"])

    model_path = out_dir / ("model_%s.json" % family)
    save_model(model, model_path, train_config=train_config)
    extra_artifacts = []
    if family == "logistic_woe":
        # standalone audit file of the binning, WOE and IV detail
        woe_path = out_dir / "woe_tables.json"
        save_woe_tables(model.tables, woe_path)
        extra_artifacts.append(woe_path)
    metrics_path = out_dir / ("metrics_%s.json" % family)
    write_json(report.to_dict(with_timing=False), metrics_path)
    timing_path = out_dir / ("timing_%s.json" % family)  # volatile sidecar
    write_json({"schema_version": 1, "model_name": family,
                "learn_time": report.learn_time,
                "predict_time": report.predict_time}, timing_path)
    record_manifest(out_dir, "train", [out_dir / "splits" / "splits.json"],
                    [model_path, metrics_path] + extra_artifacts,
                    params={"family": family, "learn_time": learn_time,
                            "predict_time": report.predict_time,
                            "features": names})
    for rec in report.splits:
        print("%s %s: gini=%s ks=%s%s" % (
            family, rec.split,
            "n/a" if rec.gini is None else "%.4f" % rec.gini,
            "n/a" if rec.ks is None else "%.4f" % rec.ks,
            " (error: %s)" % rec.error if rec.error else ""))
    if report.rejected:
        print("%s rejected: test gini below %.2f" % (family, config["models"]["min_gini"]))
    return 0


def cmd_predict(args, config) -> int:
    model = load_model(args.model)
    dcfg = config["data"]
    schema = dcfg["schema"] or {name: NUMERIC for name in model.feature_names}
    dataset = load_csv(args.data, schema, target=dcfg["target"],
                       date_col=None, missing_token=dcfg["missing_token"],
                       target_optional=True, columns=model.feature_names)
    scores = model.score_dataset(dataset)
    out_path = Path(args.scores or (Path(args.out) / "scores.csv"))
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        # the bytes csv.writer writes for these rows: floats never need quoting
        fh.write("row,score\r\n" + "".join(
            "%d,%r\r\n" % (i, s) for i, s in enumerate(scores.tolist())))
    print("wrote %s (%d scores)" % (out_path, len(scores)))
    return 0


def _split_dir_checked(out_dir) -> Path:
    split_dir = Path(out_dir) / "splits"
    if not (split_dir / "splits.json").exists():
        raise ScorekitError("no splits under %s; run `scorekit split` first" % out_dir)
    return split_dir


def _load_part(out_dir, part_name: str, columns) -> Dataset:
    """Split part `part_name`, parsing of its schema columns only `columns`
    (all when None)."""
    split_dir = _split_dir_checked(out_dir)
    manifest = read_split_manifest(split_dir)
    if part_name not in manifest["files"]:
        raise ScorekitError("unknown split part %r" % part_name)
    return load_split_part(split_dir, manifest, part_name, columns=columns)


def cmd_explain(args, config) -> int:
    out_dir = Path(args.out)
    ecfg = config["explain"]
    what = args.what
    model_paths = args.model
    # the flags naming what to explain that each explainer reads
    reads = {"pfi": (), "pdp": ("feature", "feature2"), "cp": ("feature", "instance"),
             "bd": ("instance",)}[what]
    for flag in ("feature", "feature2", "instance"):
        if getattr(args, flag) is not None and flag not in reads:
            raise BadParameter("--%s: %s does not read it (it reads %s)"
                               % (flag, what, " and ".join("--" + f for f in reads)
                                  or "none of --feature, --feature2 and --instance"))
    if len(model_paths) > 1 and (what != "pdp" or args.feature2):
        raise BadParameter("--model: %s explains one model, got %d (only a 1-D pdp "
                           "overlays several)" % (what, len(model_paths)))
    if what in ("pdp", "cp") and not args.feature:
        raise ScorekitError("%s needs --feature" % what)
    if what == "pdp" and args.feature2 == args.feature:
        raise BadParameter("--feature2: a 2-D pdp needs two features, got --feature and "
                           "--feature2 both %s" % args.feature)
    models_loaded = [(Path(p).stem.replace("model_", ""), load_model(p)) for p in model_paths]
    name, model = models_loaded[0]
    part = _load_part(out_dir, args.part,
                      {feature for _, each in models_loaded for feature in each.feature_names})
    if what in ("cp", "bd"):
        if args.instance is None:
            raise ScorekitError("%s needs --instance" % what)
        if not 0 <= args.instance < part.n_rows:
            raise ScorekitError("instance %d out of range (part has %d rows)"
                                % (args.instance, part.n_rows))
    X = part.matrix(model.feature_names)

    if what == "pfi":
        result = permutation_importance(model, X, part.target,
                                        n_repeats=ecfg["n_repeats"], seed=config["seed"])
        json_path = out_dir / ("explain_pfi_%s.json" % name)
        write_json(result.to_dict(), json_path)
        svg_path = out_dir / ("explain_pfi_%s.svg" % name)
        charts.bar_chart_h(result.ranking(), svg_path,
                           title="Permutation importance (%s)" % name,
                           value_label="AUC drop after shuffling")
        artifacts = [json_path, svg_path]
    elif what == "pdp" and args.feature2:
        surface = partial_dependence_2d(model, X, args.feature, args.feature2,
                                        grid_spec=ecfg["grid_points"])
        json_path = out_dir / ("explain_pdp2_%s_%s_%s.json" % (name, args.feature, args.feature2))
        write_json(surface.to_dict(), json_path)
        artifacts = [json_path]
    elif what == "pdp":
        profiles = {}
        for label, each in models_loaded:
            profiles[label] = partial_dependence(each, part.matrix(each.feature_names),
                                                 args.feature, grid_spec=ecfg["grid_points"])
        json_path = out_dir / ("explain_pdp_%s.json" % args.feature)
        write_json({"schema_version": 1, "kind": "partial_dependence_set",
                    "feature": args.feature,
                    "profiles": {n: p.to_dict() for n, p in profiles.items()}}, json_path)
        svg_path = out_dir / ("explain_pdp_%s.svg" % args.feature)
        charts.line_chart(
            {n: (p.grid, p.mean_prediction) for n, p in profiles.items()},
            svg_path, title="Partial dependence: %s" % args.feature,
            x_label=args.feature, y_label="mean predicted PD")
        artifacts = [json_path, svg_path]
    elif what == "cp":
        profile = ceteris_paribus(model, X[args.instance], args.feature,
                                  background=X, instance_id=args.instance)
        json_path = out_dir / ("explain_cp_%s_%s_%d.json" % (name, args.feature, args.instance))
        write_json(profile.to_dict(), json_path)
        svg_path = json_path.with_suffix(".svg")
        charts.line_chart({name: (profile.grid, profile.prediction)}, svg_path,
                          title="Ceteris paribus: %s (row %d)" % (args.feature, args.instance),
                          x_label=args.feature, y_label="predicted PD",
                          markers=[(profile.anchor_value, profile.anchor)])
        artifacts = [json_path, svg_path]
    elif what == "bd":
        rng = np.random.default_rng(config["seed"])
        n_bg = max(0, min(ecfg["background_rows"], X.shape[0]))
        background = X[np.sort(rng.choice(X.shape[0], size=n_bg, replace=False))]
        result = break_down(model, background, X[args.instance])
        json_path = out_dir / ("explain_bd_%s_%d.json" % (name, args.instance))
        write_json(result.to_dict(), json_path)
        svg_path = out_dir / ("explain_bd_%s_%d.svg" % (name, args.instance))
        charts.waterfall(result.intercept, result.contributions,
                         result.final_prediction, svg_path,
                         title="Break down (%s, row %d)" % (name, args.instance))
        artifacts = [json_path, svg_path]
    else:
        raise ScorekitError("unknown explainer %r (pfi|pdp|cp|bd)" % what)

    record_manifest(out_dir, "explain", model_paths, artifacts,
                    params={"what": what, "part": args.part})
    print("wrote %s" % ", ".join(str(a) for a in artifacts))
    return 0


def _fmt_cell(v) -> str:
    return "n/a" if v is None else "%.6f" % v


def cmd_report(args, config) -> int:
    out_dir = Path(args.out)
    paths = [Path(p) for p in args.metrics] if args.metrics else sorted(out_dir.glob("metrics_*.json"))
    if not paths:
        raise ScorekitError("no metric reports found")
    reports = []
    for p in paths:
        with open(p, encoding="utf-8") as fh:
            report = MetricReport.from_dict(json.load(fh))
        timing = p.with_name(p.name.replace("metrics_", "timing_"))
        if timing.exists():
            with open(timing, encoding="utf-8") as fh:
                t = json.load(fh)
            report.learn_time = t.get("learn_time", float("nan"))
            report.predict_time = t.get("predict_time", float("nan"))
        reports.append(report)
    reject_models(reports, config["models"]["min_gini"])

    def oot_key(r):
        g = r.gini_on("out_of_time")
        return -(g if g is not None else -2.0)

    reports.sort(key=oot_key)
    csv_path = out_dir / "report.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "gini_train", "gini_test", "gini_out_of_sample",
                         "gini_out_of_time", "ks_out_of_time", "learn_time_s",
                         "predict_time_s", "rejected"])
        for r in reports:
            oot = r.split("out_of_time")
            writer.writerow([
                r.model_name,
                _fmt_cell(r.gini_on("train")),
                _fmt_cell(r.gini_on("test")),
                _fmt_cell(r.gini_on("out_of_sample")),
                _fmt_cell(r.gini_on("out_of_time")),
                _fmt_cell(None if oot is None else oot.ks),
                "n/a" if np.isnan(r.learn_time) else "%.3f" % r.learn_time,
                "n/a" if np.isnan(r.predict_time) else "%.3f" % r.predict_time,
                "yes" if r.rejected else "no",
            ])

    points = {
        r.model_name: {name: r.gini_on(name)
                       for name in ("train", "test", "out_of_sample", "out_of_time")}
        for r in reports
    }
    points_path = out_dir / "report_points.json"
    write_json({"schema_version": 1, "kind": "gini_dot_plot", "points": points},
               points_path)
    svg_path = out_dir / "report_points.svg"
    charts.dot_plot(points, svg_path, title="Gini by split", y_label="Gini")
    record_manifest(out_dir, "report", paths, [csv_path, points_path, svg_path])
    print("wrote %s (%d models)" % (csv_path, len(reports)))
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="YAML config file (defaults otherwise)")
    shared.add_argument("--seed", type=int, help="override config seed")
    shared.add_argument("--out", default="runs/default", help="output directory")
    shared.add_argument("--threads", type=int, help="worker threads for parallel parts")
    shared.add_argument("--verbose", action="store_true")

    parser = argparse.ArgumentParser(
        prog="scorekit",
        description="credit default scoring: split, select, train, explain, report",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("synth", parents=[shared], help="generate synthetic credit data")
    sub.add_parser("split", parents=[shared], help="temporal train/test/OOS/OOT split")
    sub.add_parser("select", parents=[shared], help="three-stage variable preselection")

    p_train = sub.add_parser("train", parents=[shared], help="train one model family")
    p_train.add_argument("--family", required=True,
                         help="one of: %s" % ", ".join(FAMILIES))
    p_train.add_argument("--features", help="comma-separated override of the feature list")

    p_predict = sub.add_parser("predict", parents=[shared], help="score a CSV with a model artifact")
    p_predict.add_argument("--model", required=True)
    p_predict.add_argument("--data", required=True)
    p_predict.add_argument("--scores", help="output CSV path (default <out>/scores.csv)")

    p_explain = sub.add_parser("explain", parents=[shared], help="run an explainer on a model")
    p_explain.add_argument("--what", required=True, choices=["pfi", "pdp", "cp", "bd"])
    p_explain.add_argument("--model", required=True, nargs="+",
                           help="model artifact(s); pdp overlays several")
    p_explain.add_argument("--part", default="test", help="split part to explain on")
    p_explain.add_argument("--feature")
    p_explain.add_argument("--feature2", help="second feature for a pdp interaction surface")
    p_explain.add_argument("--instance", type=int)

    p_report = sub.add_parser("report", parents=[shared], help="comparison table and dot-plot data")
    p_report.add_argument("--metrics", nargs="*", help="metric report JSONs (default: <out>/metrics_*.json)")

    return parser


COMMANDS = {
    "synth": cmd_synth,
    "split": cmd_split,
    "select": cmd_select,
    "train": cmd_train,
    "predict": cmd_predict,
    "explain": cmd_explain,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.threads is not None:
        overrides["threads"] = args.threads
    try:
        config = load_config(args.config, overrides)
        return COMMANDS[args.command](args, config)
    except (ScorekitError, FileNotFoundError) as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure, still one parseable line
        if args.verbose:
            raise
        print("internal: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
