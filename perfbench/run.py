"""End-to-end benchmark of the scorekit CLI.

    python3 perfbench/run.py --workload tournament --seed 1 --trace 0

Drives `scorekit.cli.main` in-process as one closed-loop client: each
command starts when the previous one returns. Every pass runs on a fresh
copy of the workload's set-up directory, because `record_manifest` re-reads
a manifest that grows with every command.

Workloads (each puts a different layer in charge of the time):

- tournament: set-up is `synth`. A pass is split, select, train for each
  of the six families, report. Model fitting dominates (forest above all),
  and split exercises the CSV write path.
- explain: set-up is synth, split, select and five trainings (no forest).
  A pass runs pfi, pdp, 2-D pdp, cp and bd on each of the five models, on
  the two top-ranked selected features. Many small `predict_proba` calls
  dominate.
- score: set-up trains all six families and synthesizes a scoring file
  (`perfbench/score_file.yaml`, five times the rows, data seed + 1). A pass
  runs `predict` with each model on it. CSV and model loading dominate.

`--seed` is the data seed. The config is the package default merged with
`perfbench/bench.yaml`: `threads: 1` and `synth.n_rows` scaled down from
20000 so that every run, set-up included, fits the run budget.

A run sets up SETUP_REPEATS times (more while under SETUP_MIN_S), runs one
warm-up pass that is also the reference for the correctness checks, then
timed passes for `--seconds` (two at least; default run_seconds of
BENCHMARK.json). End-to-end metrics (`--trace 0`):

- setup_s, wall_s: time of a typical set-up and pass (see `typical_wall`)
- peak_rss_mb: peak resident memory of this process
- score_rows_per_s: rows scored per second of wall_s; see `rows_scored`
- gini_oot_mean: mean out-of-time Gini of the workload's metrics_*.json

An operation (one CLI command in a pass) fails if it exits non-zero, if its
canonical artifacts differ from the same command's warm-up pass, or, for
`predict`, if a score is non-finite or outside [0, 1] or the row count
differs from the input's. Canonical artifacts are every JSON and SVG except
manifest.json and timing_*.json, report.csv without its time columns, and
the scores files. `failed` / `attempted` in the result line is the error
rate. With `--trace 1` the result carries the per-layer metrics of
`tracing.py` instead. Metric names and units come from BENCHMARK.json at
the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCH_CONFIG = HERE / "bench.yaml"
SCORE_FILE_CONFIG = HERE / "score_file.yaml"
WORK = ROOT / ".perfbench_work"

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
SETUP_REPEATS = 3  # at least; cheap set-ups repeat for SETUP_MIN_S
SETUP_MIN_S = 2.0
FAMILIES = ("logistic", "logistic_woe", "tree", "forest", "gbm", "xgb")
EXPLAIN_FAMILIES = ("logistic", "logistic_woe", "tree", "gbm", "xgb")
VOLATILE_REPORT_COLUMNS = ("learn_time_s", "predict_time_s")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed set-up)."""


# ---------------------------------------------------------------------------
# workloads: set-up commands and the commands of one pass, all run with the
# working directory inside the pass directory and --out "."

def _cfg(*argv):
    return list(argv) + ["--config", "config.yaml", "--out", "."]


def setup_commands(workload: str, seed: int) -> list[list[str]]:
    synth = [["synth", "--config", str(BENCH_CONFIG), "--seed", str(seed), "--out", "."]]
    if workload == "tournament":
        return synth
    prepare = synth + [_cfg("split"), _cfg("select")]
    if workload == "explain":
        return prepare + [_cfg("train", "--family", f) for f in EXPLAIN_FAMILIES]
    if workload == "score":
        return prepare + [_cfg("train", "--family", f) for f in FAMILIES] + [
            ["synth", "--config", str(SCORE_FILE_CONFIG), "--seed", str(seed + 1),
             "--out", "scoring"]]
    raise BenchError("unknown workload %r" % workload)


def explained_features(setup_dir: Path) -> tuple[str, str]:
    """The two highest-ranked features that survived selection. Which
    features survive depends on the data seed, so they are not fixed names."""
    names = (setup_dir / "features.txt").read_text(encoding="utf-8").split()
    if len(names) < 2:
        raise BenchError("fewer than two features survived selection: %s" % names)
    return names[0], names[1]


def pass_commands(workload: str, setup_dir: Path) -> list[list[str]]:
    if workload == "tournament":
        return ([_cfg("split"), _cfg("select")]
                + [_cfg("train", "--family", f) for f in FAMILIES] + [_cfg("report")])
    if workload == "explain":
        a, b = explained_features(setup_dir)
        ops = []
        for f in EXPLAIN_FAMILIES:
            model = "model_%s.json" % f
            ops += [
                _cfg("explain", "--what", "pfi", "--model", model),
                _cfg("explain", "--what", "pdp", "--feature", a, "--model", model),
                _cfg("explain", "--what", "pdp", "--feature", a, "--feature2", b,
                     "--model", model),
                _cfg("explain", "--what", "cp", "--feature", a, "--instance", "7",
                     "--model", model),
                _cfg("explain", "--what", "bd", "--instance", "7", "--model", model),
            ]
        return ops
    if workload == "score":
        return [_cfg("predict", "--model", "model_%s.json" % f, "--data", "scoring/data.csv",
                     "--scores", "scores_%s.csv" % f) for f in FAMILIES]
    raise BenchError("unknown workload %r" % workload)


# ---------------------------------------------------------------------------
# running commands and checking what they wrote

def call_cli(argv) -> int:
    """Run one CLI command in-process; returns its exit code."""
    from scorekit.cli import main

    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 2


def _is_canonical(name: str) -> bool:
    if name == "manifest.json" or name.startswith("timing_"):
        return False
    return (name.endswith((".json", ".svg")) or name == "report.csv"
            or (name.startswith("scores_") and name.endswith(".csv")))


def _digest(path: Path) -> str:
    if path.name != "report.csv":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, col in enumerate(rows[0]) if col not in VOLATILE_REPORT_COLUMNS]
    text = "\n".join(",".join(row[i] for i in keep) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


class ArtifactIndex:
    """Canonical files of one directory, rehashed only when their stat changes."""

    def __init__(self, root: Path):
        self.root = root
        self.seen: dict[str, tuple] = {}

    def changed(self) -> dict[str, str]:
        """Canonical files created or rewritten since the last call, with digests."""
        out = {}
        for path in sorted(self.root.rglob("*")):
            if not path.is_file() or not _is_canonical(path.name):
                continue
            rel = path.relative_to(self.root).as_posix()
            st = path.stat()
            key = (st.st_mtime_ns, st.st_size, st.st_ino)
            if self.seen.get(rel, (None,))[:3] != key:
                digest = _digest(path)
                self.seen[rel] = key + (digest,)
                out[rel] = digest
        return out


def check_scores(path: Path, expected_rows: int) -> str | None:
    """Why a scores file is wrong, or None when every score is a probability."""
    if not path.exists():
        return "no scores file"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != expected_rows:
        return "%d scores for %d input rows" % (len(rows), expected_rows)
    for row in rows:
        s = float(row[1])
        if not (math.isfinite(s) and 0.0 <= s <= 1.0):
            return "score %r outside [0, 1]" % row[1]
    return None


def csv_rows(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


class PassRunner:
    """Runs passes of one command sequence and counts failed operations;
    the first pass run is the reference for the artifact check."""

    def __init__(self, commands, call=call_cli, score_rows: int | None = None):
        self.commands = commands
        self.call = call
        self.score_rows = score_rows  # rows each predict must score
        self.reference: list[dict] | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, pass_dir: Path) -> list[float]:
        """Run every command once in pass_dir; returns each command's time."""
        index = ArtifactIndex(pass_dir)
        index.changed()
        produced, times = [], []
        with contextlib.chdir(pass_dir):
            for argv in self.commands:
                t0 = time.perf_counter()
                rc = self.call(argv)
                times.append(time.perf_counter() - t0)
                produced.append(index.changed())
                self.attempted += 1
                problem = "exit %d" % rc if rc != 0 else None
                if problem is None and self.reference is not None \
                        and produced[-1] != self.reference[len(produced) - 1]:
                    problem = "canonical artifacts differ from the reference pass"
                if problem is None and argv[0] == "predict" and self.score_rows is not None:
                    problem = check_scores(pass_dir / argv[argv.index("--scores") + 1],
                                           self.score_rows)
                if problem:
                    self.failed += 1
                    self.failures.append("%s: %s" % (" ".join(argv), problem))
        if self.reference is None:
            self.reference = produced
        return times


def typical_wall(runs: list[list[float]]) -> float:
    """Wall time of a typical run of one command sequence: the sum over its
    commands of each command's median time across the runs. A burst of
    machine noise in one run moves this less than it moves that run's total."""
    return sum(statistics.median(col) for col in zip(*runs))


def run_setup(workload: str, seed: int, target: Path) -> list[float]:
    """Run the set-up commands in a new directory; returns each command's time."""
    target.mkdir(parents=True)
    times = []
    with contextlib.chdir(target):
        for argv in setup_commands(workload, seed):
            t0 = time.perf_counter()
            rc = call_cli(argv)
            times.append(time.perf_counter() - t0)
            if rc != 0:
                raise BenchError("set-up command failed (exit %d): %s" % (rc, " ".join(argv)))
    return times


def gini_oot_mean(run_dir: Path) -> float:
    ginis = []
    for path in sorted(run_dir.glob("metrics_*.json")):
        for rec in json.loads(path.read_text(encoding="utf-8"))["splits"]:
            if rec["split"] == "out_of_time":
                ginis.append(rec["gini"])
    if not ginis or any(g is None for g in ginis):
        raise BenchError("no out-of-time Gini in %s" % run_dir)
    return statistics.fmean(ginis)


def rows_scored(workload: str, run_dir: Path) -> int:
    """Rows a pass produces scores for: evaluated split rows per trained family
    (tournament), explained-part rows per command (explain), or scoring-file
    rows per model (score)."""
    if workload == "tournament":
        split_rows = sum(csv_rows(p) for p in (run_dir / "splits").glob("*.csv"))
        return split_rows * len(FAMILIES)
    if workload == "explain":
        return csv_rows(run_dir / "splits" / "test.csv") * len(pass_commands("explain", run_dir))
    return csv_rows(run_dir / "scoring" / "data.csv") * len(FAMILIES)


def config_digest() -> str:
    from scorekit.cli import load_config

    doc = json.dumps(load_config(str(BENCH_CONFIG)), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def import_seconds(repeats: int = 3) -> float:
    """Median wall time of `import scorekit.cli` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import scorekit.cli"], env=env, cwd=ROOT,
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------

def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        raise BenchError("no BENCHMARK.json at %s" % ROOT)
    return json.loads(path.read_text(encoding="utf-8"))


def _fresh_pass_dir(template: Path, work: Path, i: int) -> Path:
    target = work / ("pass%03d" % i)
    shutil.copytree(template, target)
    return target


def measure(workload: str, seed: int, seconds: float, work: Path,
            trace: bool) -> tuple[PassRunner, dict]:
    """Set up, run one warm-up pass, then timed passes until `seconds` have
    passed (two at least). A traced run sets up once and alternates untraced
    and traced passes, so the tracing overhead is measured under the same
    machine conditions."""
    from tracing import Tracer

    setups = []
    repeats, min_s = (1, 0.0) if trace else (SETUP_REPEATS, SETUP_MIN_S)
    start = time.perf_counter()
    while len(setups) < repeats or time.perf_counter() - start < min_s:
        template = work / ("setup%d" % len(setups))
        setups.append(run_setup(workload, seed, template))
        if len(setups) > 1:
            shutil.rmtree(work / ("setup%d" % (len(setups) - 2)))

    score_rows = csv_rows(template / "scoring" / "data.csv") if workload == "score" else None
    runner = PassRunner(pass_commands(workload, template), score_rows=score_rows)
    # pass one warms the process up and is the reference for the others
    first = _fresh_pass_dir(template, work, 0)
    warmup = runner.run(first)
    untraced, traced, tracers, cpu = [], [], [], []
    start = time.perf_counter()
    while len(untraced) + len(traced) < 2 or time.perf_counter() - start < seconds:
        pass_dir = _fresh_pass_dir(template, work, len(untraced) + len(traced) + 1)
        if trace and len(traced) < len(untraced):
            tracers.append(Tracer())
            c0 = time.process_time()
            with tracers[-1].installed():
                traced.append(runner.run(pass_dir))
            cpu.append(time.process_time() - c0)
        else:
            untraced.append(runner.run(pass_dir))
        shutil.rmtree(pass_dir)
    print("%s seed %d: set-ups %s, warm-up %.3f, passes %s, traced passes %s" % (
        workload, seed, ["%.3f" % sum(t) for t in setups], sum(warmup),
        ["%.3f" % sum(t) for t in untraced], ["%.3f" % sum(t) for t in traced]),
        file=sys.stderr)

    if trace:
        values = Tracer.summarize(tracers)
        if any(t.counts != tracers[0].counts for t in tracers[1:]):
            print("warning: traced counts differ between passes", file=sys.stderr)
        for fit in tracers[0].fit_shapes:
            print("fit span %s: X %d x %d" % fit, file=sys.stderr)
        values["process.cpu_s"] = statistics.median(cpu)
        # each traced pass follows an untraced one: the median paired difference
        values["trace.overhead_s"] = statistics.median(
            sum(t) - sum(u) for u, t in zip(untraced, traced))
        values["cli.import_s"] = import_seconds()
        return runner, values

    wall = typical_wall(untraced)
    return runner, {
        "setup_s": typical_wall(setups),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "score_rows_per_s": rows_scored(workload, first) / wall,
        "gini_oot_mean": gini_oot_mean(first if workload == "tournament" else template),
    }


def run(workload: str, seed: int, seconds: float | None, trace: bool) -> dict:
    spec = load_spec()
    specs = spec["per_layer" if trace else "end_to_end"]
    if seconds is None:
        seconds = spec["run_seconds"]
    setup_commands(workload, seed)  # rejects an unknown workload name
    WORK.mkdir(exist_ok=True)
    work = WORK / ("%s-s%d-p%d" % (workload, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner, values = measure(workload, seed, seconds, work, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in runner.failures[:20]:
        print("failed: %s" % line, file=sys.stderr)
    if trace:  # a layer the workload never reaches reads 0
        values = {s["name"]: values.get(s["name"], 0) for s in specs}
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError("no value for metrics %s" % ", ".join(missing))
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "scorekit" / "cli.py").is_file():
        print("error: no scorekit sources under %s" % SRC, file=sys.stderr)
        return 2
    for name in BLAS_ENV:  # before numpy is first imported
        os.environ[name] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
