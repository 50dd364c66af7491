"""Per-layer spans and counts for a traced benchmark pass.

The wrappers live here, not in the package: `Tracer.installed()` replaces
each traced function on every scorekit module that binds it by name (the
modules import with `from .x import f`, so patching the defining module
alone would miss `scorekit.cli.load_model`, `scorekit.selection.train_xgb`
and the like), wraps `predict_proba` on every `Predictor` subclass and the
CLI's command table, and restores everything on exit.

A span's self time is its duration minus the time of the spans it
encloses; the tracer's own bookkeeping after a call is charged to that
call, not to its parent. Layers are named after the modules.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import sys
import time
from collections import defaultdict

# (defining module, attribute, span). Every scorekit module that binds the
# same function object gets the same wrapper, unless SITE_SPANS says otherwise.
FUNCTIONS = [
    ("scorekit.data", "load_csv", "data.load_csv"),
    ("scorekit.data", "write_csv", "data.write_csv"),
    ("scorekit.data", "load_splits", "data.load_splits"),
    ("scorekit.woe", "fit_woe_tables", "woe.fit"),
    ("scorekit.woe", "woe_transform", "woe.transform"),
    ("scorekit.models.logistic", "train_logistic", "models.fit.logistic"),
    ("scorekit.models.woe_logistic", "train_woe_logistic", "models.fit.logistic_woe"),
    ("scorekit.models.tree", "train_tree", "models.fit.tree"),
    ("scorekit.models.forest", "train_random_forest", "models.fit.forest"),
    ("scorekit.models.boosting", "train_gbm", "models.fit.gbm"),
    ("scorekit.models.boosting", "train_xgb", "models.fit.xgb"),
    ("scorekit.models.tree", "grow_tree", "models.grow_tree"),
    ("scorekit.models.tree", "predict_tree", "models.predict_tree"),
    ("scorekit.models.io", "save_model", "models.io.save"),
    ("scorekit.models.io", "load_model", "models.io.load"),
    ("scorekit.metrics", "auc", "metrics.auc"),
    ("scorekit.metrics", "ks_statistic", "metrics.ks"),
    ("scorekit.metrics", "evaluate", "metrics.evaluate"),
    ("scorekit.selection", "preselect_by_boosting", "selection.preselect"),
    ("scorekit.selection", "ks_filter", "selection.ks_filter"),
    ("scorekit.explain", "permutation_importance", "explain.pfi"),
    ("scorekit.explain", "partial_dependence", "explain.pdp"),
    ("scorekit.explain", "partial_dependence_2d", "explain.pdp2d"),
    ("scorekit.explain", "ceteris_paribus", "explain.cp"),
    ("scorekit.explain", "break_down", "explain.bd"),
    ("scorekit.charts", "bar_chart_h", "charts"),
    ("scorekit.charts", "line_chart", "charts"),
    ("scorekit.charts", "waterfall", "charts"),
    ("scorekit.charts", "dot_plot", "charts"),
    ("scorekit.cli", "record_manifest", "cli.manifest"),
]
METHODS = [
    ("scorekit.woe", "WoeTable", "transform", "woe.transform"),
]
# Binding sites traced differently from the defining module: selection's
# ranking model is its own span (all features, not the selected few), and
# the IRLS fit inside WOE-logistic stays part of that family's fit.
SITE_SPANS = {
    ("scorekit.selection", "train_xgb"): "selection.fit_xgb",
    ("scorekit.models.woe_logistic", "train_logistic"): None,
}
FIT_PREFIXES = ("models.fit.", "selection.fit_xgb")


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None or len(shape) == 0:
        return 1
    return 1 if len(shape) == 1 else int(shape[0])


def _count_nodes(root) -> int:
    """Nodes of a grown tree of linked `Node`s."""
    total, stack = 0, [root]
    while stack:
        node = stack.pop()
        total += 1
        if node.left is not None:
            stack.extend((node.left, node.right))
    return total


def _fit_shape(span, args):
    if span == "models.fit.logistic_woe":
        dataset, names = args[0], args[1] if len(args) > 1 else None
        return dataset.n_rows, len(names) if names is not None else len(dataset.feature_names)
    return tuple(int(v) for v in args[0].shape)


class Tracer:
    """Spans and counts of one pass; install with `installed()`."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.fit_shapes: list[tuple[str, int, int]] = []
        self._stack: list[list[float]] = []  # child seconds of each open span
        self._depth = defaultdict(int)       # open spans per outermost-only group

    def wrap(self, fn, span, group=None):
        """A wrapper recording `span` around fn. With a group, only the
        outermost call of that group is a span (inner calls run untraced)."""
        tracer = self

        def traced(*args, **kwargs):
            if group is not None and tracer._depth[group]:
                return fn(*args, **kwargs)
            if group is not None:
                tracer._depth[group] += 1
            frame = [0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                if group is not None:
                    tracer._depth[group] -= 1
                tracer.self_s[span] += (t1 - t0) - frame[0]
                tracer.total_s[span] += t1 - t0
                tracer.counts[span + ".calls"] += 1
            tracer._account(span, args, result)
            if tracer._stack:
                tracer._stack[-1][0] += time.perf_counter() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    def _account(self, span, args, result):
        c = self.counts
        if span == "data.load_csv":
            c["data.load_csv.rows"] += result.n_rows
        elif span == "data.write_csv":
            c["data.write_csv.rows"] += args[0].n_rows
        elif span == "models.grow_tree":
            c["models.nodes"] += _count_nodes(result)
        elif span == "models.predict":
            rows = _rows(args[1])
            c["models.predict.rows"] += rows
            if self._depth["explain"]:
                c["explain.predict_calls"] += 1
                c["explain.rows_predicted"] += rows
        elif span == "models.io.save":
            c["models.io.bytes"] += os.path.getsize(args[1])
        elif span == "models.io.load":
            c["models.io.bytes"] += os.path.getsize(args[0])
        elif span.startswith(FIT_PREFIXES):
            rows, cols = _fit_shape(span, args)
            c[span + ".rows"] = max(c[span + ".rows"], rows)
            c[span + ".cols"] += cols  # selection fits one model per partition
            self.fit_shapes.append((span, rows, cols))

    @contextlib.contextmanager
    def installed(self):
        """Trace every scorekit call made inside the block."""
        import scorekit.cli
        from scorekit.models.base import Predictor

        undo = []

        def patch(owner, name, value):
            undo.append((owner, name, getattr(owner, name)))
            setattr(owner, name, value)

        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "scorekit" or name.startswith("scorekit.")}
        for mod_name, attr, span in FUNCTIONS:
            mod = modules.get(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                print("warning: cannot trace %s.%s" % (mod_name, attr), file=sys.stderr)
                continue
            group = "explain" if span.startswith("explain.") else None
            wrapper = self.wrap(fn, span, group)
            for site_name, site in modules.items():
                for name, value in list(vars(site).items()):
                    if value is not fn:
                        continue
                    site_span = SITE_SPANS.get((site_name, name), span)
                    if site_span == span:
                        patch(site, name, wrapper)
                    elif site_span is not None:
                        patch(site, name, self.wrap(fn, site_span, group))
        for mod_name, cls_name, attr, span in METHODS:
            cls = getattr(modules.get(mod_name), cls_name, None)
            if cls is None or attr not in vars(cls):
                print("warning: cannot trace %s.%s.%s" % (mod_name, cls_name, attr),
                      file=sys.stderr)
                continue
            patch(cls, attr, self.wrap(vars(cls)[attr], span))
        pending = [Predictor]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if cls.__module__.startswith("scorekit.") and "predict_proba" in vars(cls):
                patch(cls, "predict_proba",
                      self.wrap(vars(cls)["predict_proba"], "models.predict", "predict"))
        commands = scorekit.cli.COMMANDS
        for name, fn in list(commands.items()):
            undo.append((commands, name, fn))
            commands[name] = self.wrap(fn, "cli.%s" % name)
        try:
            yield self
        finally:
            for owner, name, value in reversed(undo):
                if isinstance(owner, dict):
                    owner[name] = value
                else:
                    setattr(owner, name, value)

    def metrics(self) -> dict:
        out = {name + ".s": value for name, value in self.self_s.items()}
        out.update({name + ".total_s": self.total_s[name] for name in self.total_s
                    if name.startswith(FIT_PREFIXES)})
        out.update(self.counts)
        return out

    @staticmethod
    def summarize(tracers) -> dict:
        """Median of each time over the passes; counts from the first pass."""
        per_pass = [t.metrics() for t in tracers]
        names = set().union(*per_pass)
        out = {}
        for name in names:
            if name.endswith("_s") or name.endswith(".s"):
                out[name] = statistics.median(m.get(name, 0.0) for m in per_pass)
            else:
                out[name] = per_pass[0].get(name, 0)
        return out
