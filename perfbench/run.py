"""Benchmark entry point: runs one workload of real ``movierev`` CLI commands.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-analyze --seed 1 --seconds 50 --trace 0

One closed-loop client runs the workload's session of CLI commands again
and again, one command at a time, each in its own interpreter
(``python -m movierev.cli``), for about ``--seconds`` and at least three
sessions. Every command's output is checked against
the independent reference in ``oracle.py``, and every output file must
have the same SHA-256 in every session of the run.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the sessions in-process under timing wrappers
(``spans.py``) and prints the per-layer metrics instead. The last line
of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Details of the run (per-command records, digests, the host-speed probe,
the spans of a traced run) go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import harness

MIN_SESSIONS = 3
# set-up is repeated after each of the first sessions, so that its
# samples spread over the run: at least this many, and for at least
# this long; setup_s is their median
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
STATE_DIR = ".perfbench"


def checkout_root() -> Path:
    """The checkout the benchmark runs in; it must hold the program."""
    root = Path.cwd()
    if not (root / "src" / "movierev" / "cli.py").is_file():
        raise SystemExit(
            "error: run from the root of a movierev checkout (src/movierev/cli.py not found)"
        )
    return root


def percentile_summary(values: list[float]) -> dict:
    """Sample count and the highest percentile that has at least ten
    samples beyond it (none below 11 samples)."""
    n = len(values)
    out = {"samples": n}
    if n >= 11:
        out[f"p{100.0 * (n - 10) / n:.4g}"] = sorted(values)[n - 11]
    return out


def end_to_end(workload, setup_times, sessions) -> tuple[dict, dict]:
    """(the gated metrics every workload reports, the workload's own).

    ``session_s`` is the mean session: the run's time in the program over
    its sessions. The host's speed flips between two levels about 1.5x
    apart, for stretches of seconds to minutes, so one run's commands mix
    both; the median then jumps between the two levels from run to run,
    while the mean moves only with the share of the run spent slow.
    """
    commands = [c for s in sessions for c in s.commands]

    def walls(kind):
        return [c.wall_s for c in commands if c.kind == kind]

    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "session_s": (statistics.fmean(s.wall_s for s in sessions), "s"),
        "peak_rss_mb": (max(c.rss_mb for c in commands), "MB"),
        "output_bytes": (statistics.median(s.output_bytes for s in sessions), "B"),
    }
    details = {"session_median_s": (statistics.median(s.wall_s for s in sessions), "s")}
    for kind in ("train", "tune", "predict"):
        if walls(kind):
            details[f"{kind}_s"] = (statistics.median(walls(kind)), "s")
    if walls("predict"):
        for key, value in percentile_summary(walls("predict")).items():
            details[f"predict_{key}"] = (value, "count" if key == "samples" else "s")
    if walls("evaluate"):
        rows = next(p.heldout.rows for p in workload.parts if hasattr(p, "heldout"))
        details["evaluate_rows_per_s"] = (
            statistics.median(rows / w for w in walls("evaluate")), "rows/s"
        )
    if walls("analyze"):
        per_session = [sum(c.wall_s for c in s.commands if c.kind == "analyze") for s in sessions]
        details["analyze_s"] = (statistics.median(per_session), "s")
    if any(s.artifact_bytes for s in sessions):
        details["artifact_bytes"] = (statistics.median(s.artifact_bytes for s in sessions), "B")
    return metrics, details


def repeat_set_up(workload, work: Path, runner, times: list, commands: list, reference) -> None:
    """Time one more set-up, on a fresh copy of the workload so that the
    sessions keep their inputs; it must write the same files as the first."""
    d = work / f"setup{len(times)}"
    seconds, cmds, digests = harness.set_up(type(workload)(workload.scale, workload.seed), d, runner)
    times.append(seconds)
    commands += cmds
    if digests != reference:
        raise harness.SetupFailed(f"set-up {len(times) - 1} wrote different files than set-up 0")
    shutil.rmtree(d)


def untraced_run(workload, root: Path, work: Path, seconds: float) -> dict:
    runner = harness.SubprocessRunner(root, work)
    probe_before = harness.host_probe()
    first_s, setup_cmds, setup_digests = harness.set_up(workload, work / "setup0", runner)
    setup_times = [first_s]
    out = work / "session"
    # untimed: fills the bytecode and file caches; its bytes are the reference
    warmup = harness.run_session(workload, out, runner, None)
    sessions, rounds = [], []
    start = time.perf_counter()
    # a session starts only if a typical round still ends within the run
    while len(sessions) < MIN_SESSIONS or (
        time.perf_counter() - start + statistics.median(rounds) <= seconds
    ):
        round_start = time.perf_counter()
        sessions.append(harness.run_session(workload, out, runner, warmup.digests))
        if len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
            repeat_set_up(workload, work, runner, setup_times, setup_cmds, setup_digests)
        rounds.append(time.perf_counter() - round_start)
    measured_s = time.perf_counter() - start

    metrics, details = end_to_end(workload, setup_times, sessions)
    every = setup_cmds + warmup.commands + [c for s in sessions for c in s.commands]
    details["error_rate"] = (sum(1 for c in every if c.problems) / len(every), "ratio")
    return {
        "metrics": metrics,
        "details": details,
        "commands": every,
        "digests": warmup.digests,
        "setup_s": setup_times,
        "measured_s": measured_s,
        "host_probe_s": [probe_before, harness.host_probe()],
        "sessions": [
            {"wall_s": s.wall_s, "output_bytes": s.output_bytes,
             "commands": [c.record() for c in s.commands]}
            for s in [warmup, *sessions]
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny tables, for the self-check")
    args = parser.parse_args(argv)

    root = checkout_root()
    os.environ.update(harness.PINNED_ENV)  # before numpy is first imported
    sys.path.insert(0, str(root / "src"))
    import movierev

    if not Path(movierev.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"error: imported movierev from {movierev.__file__}, not this checkout")

    import spans
    from workloads import SCALES, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](SCALES["toy" if args.toy else "full"], args.seed)

    state = root / STATE_DIR
    work = state / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            record = spans.traced_run(workload, root, work, args.seconds)
        else:
            record = untraced_run(workload, root, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    commands = record.pop("commands")
    problems = [f"{c.kind} {' '.join(c.args)}: {p}" for c in commands for p in c.problems]
    failed = sum(1 for c in commands if c.problems)
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        toy=args.toy, attempted=len(commands), failed=failed, problems=problems,
    )
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}"
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in {**record["metrics"], **record.get("details", {})}.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(commands),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except harness.SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
