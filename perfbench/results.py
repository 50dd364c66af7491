"""Record repeated benchmark runs into a result file, and compare two files.

    python3 perfbench/results.py record --seeds 1-10 --trace 0 --out a.json
    python3 perfbench/results.py compare parent.json change.json

`record` runs `perfbench/run.py` once per (workload, seed) for every
workload of BENCHMARK.json and its run_seconds, one process at a time, and
writes every run plus a summary per (workload, metric): median,
quartiles, sample count, quartile spread as a share of the median, and the
highest percentile with at least ten samples beyond it. It also records the
machine facts the numbers depend on. `compare` prints one row per
(workload, metric) with both medians, both quartile ranges, the ratio and
the verdict of `stats.verdict` under the bounds in BENCHMARK.json, or of
`stats.exact_verdict` seed by seed for the metrics that repeat exactly for a
given seed (`exact_metrics`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import run as bench
import stats

RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '1,3,5' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def machine_facts() -> dict:
    sys.path.insert(0, str(bench.SRC))
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": bench.BLAS_THREADS,
        "blas_env": list(bench.BLAS_ENV),
        "config_digest": bench.config_digest(),
        "platform": platform.platform(),
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(bench.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=bench.ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit("run failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    metrics["error_rate"] = result["failed"] / result["attempted"]
    return {"workload": workload, "seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics, "units": {n: m["unit"] for n, m in result["metrics"].items()}}


def summarize(runs: list[dict]) -> dict:
    summary: dict = {}
    for r in runs:
        for name, value in r["metrics"].items():
            summary.setdefault(r["workload"], {}).setdefault(name, []).append(value)
    units = {n: u for r in runs for n, u in r["units"].items()}
    units["error_rate"] = "share"
    for workload, metrics in summary.items():
        for name, values in metrics.items():
            q1, med, q3 = stats.quartiles(values)
            metrics[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                             "n": len(values), "spread": stats.spread(values),
                             "tail": stats.tail_percentile(values)}
        ws = [r for r in runs if r["workload"] == workload]
        metrics["error_rate"].update(attempted=sum(r["attempted"] for r in ws),
                                     failed=sum(r["failed"] for r in ws))
    return summary


def cmd_record(args) -> int:
    spec = bench.load_spec()
    seconds = spec["run_seconds"]
    runs = []
    for seed in parse_seeds(args.seeds):
        for workload in (w["name"] for w in spec["workloads"]):
            runs.append(run_once(workload, seed, seconds, args.trace))
            print(json.dumps(runs[-1]), flush=True)
    doc = {"schema_version": 1, "facts": machine_facts(), "seconds": seconds,
           "trace": args.trace, "runs": runs, "summary": summarize(runs)}
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for workload, metrics in doc["summary"].items():
        for name, s in sorted(metrics.items()):
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and s["spread"] > bound / 3:
                flag = "  <- spread above a third of the bound %.2f" % bound
            print("%-10s %-22s median %-14.6g spread %.4f n %d%s" % (
                workload, name, s["median"], s["spread"], s["n"], flag))
    return 0


def exact_metrics(spec: dict) -> set[str]:
    """Metrics that repeat exactly for a given seed: the quality guard and the
    traced counts. Their spread across seeds is the data's, not noise, so they
    are judged seed by seed rather than against a bound."""
    return {"gini_oot_mean"} | {m["name"] for m in spec["per_layer"] if m["unit"] != "s"}


def compare_rows(parent: dict, change: dict, spec: dict) -> list[dict]:
    """One row per (workload, metric) present in both result files."""
    directions = {m["name"]: (m["better"], m.get("bound"))
                  for m in spec["end_to_end"] + spec["per_layer"]}
    directions["error_rate"] = ("lower", None)
    exact = exact_metrics(spec)
    rows = []
    for workload in sorted(set(parent["summary"]) & set(change["summary"])):
        by_seed = {}
        for side, doc in (("a", parent), ("b", change)):
            for r in doc["runs"]:
                if r["workload"] == workload:
                    by_seed.setdefault(r["seed"], {}).setdefault(side, []).append(r["metrics"])
        names = set(parent["summary"][workload]) & set(change["summary"][workload])
        for name in sorted(names):
            if name not in directions:
                continue
            better, bound = directions[name]
            a = [r["metrics"][name] for r in parent["runs"] if r["workload"] == workload]
            b = [r["metrics"][name] for r in change["runs"] if r["workload"] == workload]
            pairs = [(ma[name], mb[name]) for sides in by_seed.values()
                     for ma, mb in zip(sides.get("a", []), sides.get("b", []))]
            if name == "error_rate":  # any extra failure counts against the change
                ea = parent["summary"][workload][name]
                eb = change["summary"][workload][name]
                ra, rb = ea["failed"] / ea["attempted"], eb["failed"] / eb["attempted"]
                verdict = "worse" if rb > ra else "better" if rb < ra else "same"
            elif name in exact:
                verdict = stats.exact_verdict(pairs, better)
            else:
                verdict = stats.verdict(a, b, pairs, better, bound)
            qa, qb = stats.quartiles(a), stats.quartiles(b)
            rows.append({
                "workload": workload, "metric": name,
                "parent": qa, "change": qb,
                "ratio": qb[1] / qa[1] if qa[1] else float("nan"),
                "verdict": verdict,
                "pairs": len(pairs),
            })
    return rows


def cmd_compare(args) -> int:
    parent = json.loads(Path(args.parent).read_text(encoding="utf-8"))
    change = json.loads(Path(args.change).read_text(encoding="utf-8"))
    spec = bench.load_spec()
    if (parent["seconds"], parent["trace"]) != (change["seconds"], change["trace"]):
        print("warning: the files differ in run length or trace mode", file=sys.stderr)
    print("%-10s %-28s %-34s %-34s %-8s %-5s %s" % (
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]",
        "ratio", "pairs", "verdict"))
    for row in compare_rows(parent, change, spec):
        a, b = row["parent"], row["change"]
        print("%-10s %-28s %-34s %-34s %-8.4f %-5d %s" % (
            row["workload"], row["metric"],
            "%.6g [%.6g, %.6g]" % (a[1], a[0], a[2]),
            "%.6g [%.6g, %.6g]" % (b[1], b[0], b[2]),
            row["ratio"], row["pairs"], row["verdict"]))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run the benchmark and write a result file")
    rec.add_argument("--seeds", default="1-10")
    rec.add_argument("--trace", type=int, choices=(0, 1), default=0)
    rec.add_argument("--out", required=True)
    cmp_ = sub.add_parser("compare", help="compare two result files")
    cmp_.add_argument("parent")
    cmp_.add_argument("change")
    args = parser.parse_args(argv)
    return cmd_record(args) if args.command == "record" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
