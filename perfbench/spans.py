"""Traced run: per-layer times and counts from spans recorded in memory.

The sessions run in-process through ``movierev.cli.main``. For a traced
session, timing wrappers are installed around the public functions of
each layer, at the module attribute each caller looks up (for example
``movierev.cli.load_table`` and ``movierev.tuning.fit_model``), and
removed afterwards, so untraced sessions run the original code. Each
wrapper records a span: name, start, end, parent span, session and
command index. ``Xoshiro256StarStar`` methods are called once per tree
node, so they add their time and a call count to the enclosing span
instead of recording spans of their own.

A layer's self time is its spans' durations minus the part covered by
their child spans. The root span of each command is ``cli.command``,
whose self time is ``cli.self_s``; all self times of a command add up to
its in-process wall time, and a command whose ``cli.self_s`` share is
large fails the run, because it means a wrapper is missing.
"""

from __future__ import annotations

import functools
import io
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import harness

# a command may leave this share of its wall time, plus the floor below,
# to the CLI's own code before the run reports a missing wrapper
MAX_CLI_SELF_SHARE = 0.10
CLI_SELF_FLOOR_S = 0.05
STARTUP_SAMPLES = 5


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: "Span | None"
    session: int
    command: int
    end: float = 0.0
    children_s: float = 0.0
    rng_s: float = 0.0
    rng_calls: int = 0
    counters: dict = field(default_factory=dict)
    keep: list = field(default_factory=list)  # results examined after the session

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s - self.rng_s

    @property
    def layer(self) -> str:
        return self.name.split(".")[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.session = 0
        self.command = 0
        self.in_rng = False
        self.opened = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording

    def open(self, name: str) -> Span:
        self.opened += 1
        span = Span(self.opened, name, time.perf_counter(), self.stack[-1] if self.stack else None,
                    self.session, self.command)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            span.parent.children_s += span.duration
        self.spans.append(span)

    def span_wrapper(self, name, fn, count=None, merge=False):
        """``fn`` timed as span ``name``. With ``merge``, only a call made
        straight from the CLI gets a span; a call from inside another
        span is part of that span's work, and its counts go to it when
        it belongs to the same layer."""
        tracer = self
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = tracer.stack[-1] if tracer.stack else None
            if merge and top is not None and top.name != "cli.command":
                result = fn(*args, **kwargs)
                if count is not None and top.layer == layer:
                    count(top, result, args, kwargs)
                return result
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                count(span, result, args, kwargs)
            return result

        return wrapper

    def rng_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.in_rng or not tracer.stack:
                return fn(*args, **kwargs)
            tracer.in_rng = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                top = tracer.stack[-1]
                top.rng_s += time.perf_counter() - start
                top.rng_calls += 1
                tracer.in_rng = False

        return wrapper

    # -- installing

    def patch(self, owner, attr: str, wrapper_factory) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def install(self) -> None:
        from movierev import (
            analysis, cli, dataset, metrics, models, persist, preprocess, rng, tuning,
        )

        def add(counter, value):
            return lambda span, result, args, kwargs: span.counters.__setitem__(
                counter, span.counters.get(counter, 0) + value(result, args, kwargs)
            )

        def keep(span, result, args, kwargs):
            span.keep.append((result, args, kwargs))

        def w(name, count=None, merge=False):
            return lambda fn: self.span_wrapper(name, fn, count, merge)

        def rows(result, args, kwargs):
            return result.row_count

        self.patch(cli, "load_table", w("dataset.load", add("dataset.rows_loaded", rows)))
        self.patch(cli, "drop_incomplete_rows", w("dataset.clean", add("dataset.rows_kept", rows)))
        self.patch(cli, "train_test_split", w("dataset.split"))
        # cmd_train materialises the split with DataTable.take; cleaning
        # calls it too, inside its own span
        self.patch(dataset.DataTable, "take", w("dataset.split", merge=True))

        def transformed(span, result, args, kwargs):
            counters = span.counters
            counters["preprocess.rows"] = counters.get("preprocess.rows", 0) + result[0].shape[0]
            counters["preprocess.unseen"] = counters.get("preprocess.unseen", 0) + len(result[2])

        self.patch(preprocess, "fit_pipeline", w("preprocess.fit"))
        self.patch(preprocess, "fit_encoders", w("preprocess.fit", merge=True))
        self.patch(preprocess, "encode_table", w("preprocess.transform", merge=True))
        self.patch(preprocess, "transform", w("preprocess.transform"))
        self.patch(preprocess, "transform_with_warnings",
                   w("preprocess.transform", transformed, merge=True))

        self.patch(analysis, "summarize", w("analysis.summarize"))
        self.patch(analysis, "category_counts", w("analysis.summarize"))
        self.patch(analysis, "gross_histogram", w("analysis.summarize"))
        self.patch(analysis, "expand_categorical",
                   w("analysis.expand", add("analysis.expand_cols", lambda r, a, k: r[0].shape[1])))
        self.patch(analysis, "select_k_best", w("analysis.score"))
        self.patch(analysis, "threshold_scores", w("analysis.score"))

        self.patch(models, "fit_model", w("models.fit", keep))
        self.patch(models, "predict",
                   w("models.predict", add("models.predict_rows", lambda r, a, k: r.shape[0])))
        self.patch(models, "staged_train_r2", w("models.staged_r2"))

        self.patch(tuning, "grid_search", w("tuning.grid"))
        self.patch(tuning, "fit_model", w("tuning.fit", keep))
        self.patch(tuning, "predict", w("tuning.score"))
        self.patch(tuning, "r2", w("tuning.score"))

        self.patch(persist, "save", w("persist.save", keep))
        self.patch(persist, "dumps_canonical", w("persist.encode"))
        self.patch(persist, "load", w("persist.load", keep))

        self.patch(metrics, "eval_report", w("metrics.report"))

        for method in ("next_uint64", "next_float", "randbelow", "shuffle",
                       "sample_without_replacement", "bootstrap_indices"):
            self.patch(rng.Xoshiro256StarStar, method, self.rng_wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# --------------------------------------------------------------------------
# running sessions in-process


class InProcessRunner:
    """Runs a command through ``movierev.cli.main`` in this interpreter,
    optionally as the root span of a traced command."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer

    def __call__(self, kind, args):
        from movierev import cli

        out, err = io.StringIO(), io.StringIO()
        span = None
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            if self.tracer is not None:
                span = self.tracer.open("cli.command")
                span.counters["kind"] = kind
            try:
                code = cli.main(args)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed operation, not a benchmark error
                code = 1
                err.write(traceback.format_exc())
            finally:
                if span is not None:
                    self.tracer.close(span)
                    self.tracer.command += 1
        wall = time.perf_counter() - start
        return harness.CommandResult(kind, args, wall, code, out.getvalue(), err.getvalue())


def _tree_shape(root):
    """(nodes, depth) of a Split/Leaf tree, walked without recursion."""
    from movierev.models import Split

    nodes, depth, stack = 0, 0, [(root, 0)]
    while stack:
        node, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        if isinstance(node, Split):
            stack.append((node.left, d + 1))
            stack.append((node.right, d + 1))
    return nodes, depth


def _trees(model):
    from movierev.models import EnsembleModel, Leaf, Split

    if isinstance(model, EnsembleModel):
        return model.trees
    return [model] if isinstance(model, (Split, Leaf)) else []


def session_metrics(spans: list[Span]) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced session, and the coverage problems
    found, as (command index, problem) pairs."""
    m = {name: 0.0 for name, _ in PER_LAYER}
    problems = []
    needed: dict[tuple, int] = {}
    walls = []
    for s in spans:
        key = "cli.self_s" if s.name == "cli.command" else f"{s.name}_s"
        m[key] += s.self_s
        m["rng.s"] += s.rng_s
        m["rng.calls"] += s.rng_calls
        for name, value in s.counters.items():
            if name in m:
                m[name] += value
        for result, args, kwargs in s.keep:
            if s.name in ("models.fit", "tuning.fit"):
                shapes = [_tree_shape(t) for t in _trees(result)]
                if s.name == "models.fit":
                    m["models.trees"] += len(shapes)
                    m["models.nodes"] += sum(n for n, _ in shapes)
                    m["models.max_depth"] = max([m["models.max_depth"], *(d for _, d in shapes)])
                else:
                    params = dict(args[3] if len(args) > 3 else kwargs.get("params") or {})
                    seed = args[4] if len(args) > 4 else kwargs.get("seed", 0)
                    n_est = params.pop("n_estimators", len(shapes))
                    group = (tuple(sorted(params.items())), seed)
                    needed[group] = max(needed.get(group, 0), n_est)
                    m["tuning.fold_fits"] += 1
                    m["tuning.trees_fit"] += len(shapes)
            elif s.name == "persist.save":
                m["persist.bytes"] += os.path.getsize(args[1])
            elif s.name == "persist.load":
                path = args[0]
                m["persist.bytes"] += os.path.getsize(path)
                start = time.perf_counter()
                with open(path, encoding="utf-8") as fh:
                    json.load(fh)
                m["persist.parse_s"] += time.perf_counter() - start
        if s.name == "cli.command":
            wall = s.duration
            walls.append(wall)
            covered = sum(c.self_s + c.rng_s for c in spans if _within(c, s))
            if abs(covered - wall) > 1e-6 * max(1.0, wall):
                problems.append((s.command, f"spans cover {covered:.6f} s of {wall:.6f} s"))
            if s.self_s > MAX_CLI_SELF_SHARE * wall + CLI_SELF_FLOOR_S:
                problems.append((s.command, (
                    f"cli.self_s {s.self_s:.3f} s of {wall:.3f} s; a layer wrapper is missing"
                )))
    m["persist.decode_s"] = m["persist.load_s"] - m["persist.parse_s"]
    if m["models.fit_s"] > 0:
        m["models.fit_nodes_per_s"] = m["models.nodes"] / m["models.fit_s"]
    if m["tuning.trees_fit"]:
        m["tuning.trees_needed_ratio"] = sum(needed.values()) / m["tuning.trees_fit"]
    if walls:
        m["trace.coverage"] = 1.0 - m["cli.self_s"] / sum(walls)
    return m, problems


def _within(span: Span, root: Span) -> bool:
    node = span
    while node is not None:
        if node is root:
            return True
        node = node.parent
    return False


def startup_seconds(root: Path) -> float:
    """Median time to start an interpreter and import ``movierev.cli``."""
    env = harness.child_env(root)
    times = []
    for _ in range(STARTUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import movierev.cli"], env=env, cwd=root, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def layer_totals(metrics: dict) -> dict:
    """Self seconds per layer, with model fitting and prediction apart."""
    totals = {}
    for name, (value, unit) in metrics.items():
        if unit != "s" or name in ("cli.startup_s", "persist.parse_s", "persist.decode_s"):
            continue
        layer = name.split(".")[0]
        if layer == "models":
            layer = "models predict" if name == "models.predict_s" else "models fit"
        totals[layer] = totals.get(layer, 0.0) + value
    return totals


def traced_run(workload, root: Path, work: Path, seconds: float) -> dict:
    """Pairs of in-process sessions, untraced then traced, until
    ``seconds`` have passed; per-layer metrics are medians over the
    traced sessions, and the tracing overhead compares the two."""
    probe_before = harness.host_probe()
    _, setup_cmds, _ = harness.set_up(workload, work / "setup0", harness.SubprocessRunner(root, work))
    startup = startup_seconds(root)
    out = work / "session"
    plain = InProcessRunner()
    warmup = harness.run_session(workload, out, plain, None)

    tracer = Tracer()
    untraced, traced, per_session, spans_out = [], [], [], []
    commands = setup_cmds + warmup.commands
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        u = harness.run_session(workload, out, plain, warmup.digests)
        tracer.session += 1
        tracer.spans, tracer.command = [], 0
        tracer.install()
        try:
            t = harness.run_session(workload, out, InProcessRunner(tracer), warmup.digests)
        finally:
            tracer.uninstall()
        m, problems = session_metrics(tracer.spans)
        for index, problem in problems:
            t.commands[index].problems.append(problem)
        m["cli.startup_s"] = startup
        per_session.append(m)
        spans_out.append([_span_record(s) for s in tracer.spans])
        untraced.append(u.wall_s)
        traced.append(t.wall_s)
        commands += u.commands + t.commands

    metrics = {name: (statistics.median(m[name] for m in per_session), unit)
               for name, unit in PER_LAYER}
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio"
    )
    spans_path = root / ".perfbench" / "results" / f"{workload.name}-seed{workload.seed}-spans.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(spans_out, fh)
    totals = layer_totals(metrics)
    return {
        "metrics": metrics,
        "commands": commands,
        "digests": warmup.digests,
        "dominant_layer": max(totals, key=totals.get),
        "layer_self_s": totals,
        "untraced_session_s": untraced,
        "traced_session_s": traced,
        "host_probe_s": [probe_before, harness.host_probe()],
        "spans_file": str(spans_path.relative_to(root)),
    }


def _span_record(s: Span) -> dict:
    return {
        "id": s.id, "name": s.name, "start": s.start, "end": s.end,
        "parent": None if s.parent is None else s.parent.id,
        "session": s.session, "command": s.command,
        "rng_s": s.rng_s, "rng_calls": s.rng_calls,
        "counters": {k: v for k, v in s.counters.items() if k != "kind"},
    }


# (name, unit) of every per-layer metric, in BENCHMARK.json order
PER_LAYER = [
    ("cli.startup_s", "s"),
    ("cli.self_s", "s"),
    ("dataset.load_s", "s"),
    ("dataset.clean_s", "s"),
    ("dataset.split_s", "s"),
    ("dataset.rows_loaded", "count"),
    ("dataset.rows_kept", "count"),
    ("preprocess.fit_s", "s"),
    ("preprocess.transform_s", "s"),
    ("preprocess.rows", "count"),
    ("preprocess.unseen", "count"),
    ("analysis.summarize_s", "s"),
    ("analysis.expand_s", "s"),
    ("analysis.expand_cols", "count"),
    ("analysis.score_s", "s"),
    ("models.fit_s", "s"),
    ("models.trees", "count"),
    ("models.nodes", "count"),
    ("models.max_depth", "count"),
    ("models.fit_nodes_per_s", "1/s"),
    ("models.staged_r2_s", "s"),
    ("models.predict_s", "s"),
    ("models.predict_rows", "count"),
    ("tuning.grid_s", "s"),
    ("tuning.fit_s", "s"),
    ("tuning.score_s", "s"),
    ("tuning.fold_fits", "count"),
    ("tuning.trees_fit", "count"),
    ("tuning.trees_needed_ratio", "ratio"),
    ("persist.save_s", "s"),
    ("persist.encode_s", "s"),
    ("persist.load_s", "s"),
    ("persist.parse_s", "s"),
    ("persist.decode_s", "s"),
    ("persist.bytes", "B"),
    ("metrics.report_s", "s"),
    ("rng.s", "s"),
    ("rng.calls", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]
