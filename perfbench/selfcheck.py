"""Toy-size self-check of the benchmark, so the harness cannot rot silently.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

It runs every workload on tiny tables, untraced and traced, with
every output check on, and requires a clean result that names exactly
the metrics ``BENCHMARK.json`` declares. It also feeds the checks wrong
outputs to confirm they refuse them, and confirms the benchmark refuses
to run where the program is missing. Exits non-zero on the first
failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_runs(spec: dict) -> None:
    names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(workload, trace)
            if proc.returncode != 0:
                raise SystemExit(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                raise SystemExit(f"{workload} trace {trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise SystemExit(f"{workload} trace {trace}: {result}\n{proc.stderr}")
            metrics = result["metrics"]
            if sorted(metrics) != sorted(names[trace]):
                raise SystemExit(f"{workload} trace {trace}: metrics {sorted(metrics)}")
            for name, m in metrics.items():
                if m["unit"] != units[name] or not isinstance(m["value"], (int, float)):
                    raise SystemExit(f"{workload} trace {trace}: bad metric {name} {m}")
            if trace == 0 and any(m["value"] <= 0 for m in metrics.values()):
                raise SystemExit(f"{workload}: an end-to-end metric is not positive: {metrics}")
            print(f"ok {workload} trace {trace}: {result['attempted']} commands checked")


def check_checks() -> None:
    """The output checks must refuse wrong outputs."""
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import oracle
    import workloads
    from movierev.dataset import train_test_split
    from movierev.synthetic import synthetic_movies

    table = synthetic_movies(97, seed=5)
    split = train_test_split(table)
    if oracle.split_rows(97) != (list(split.train), list(split.test)):
        raise SystemExit("oracle split differs from the library's default split")
    if workloads.check_predict("predicted gross (forest): 1,234.57\n", "forest", 1234.566) != []:
        raise SystemExit("check_predict refused a correct gross")
    for wrong in ("predicted gross (forest): 1,234.58\n", "predicted gross (gbm): 1,234.57\n", ""):
        if not workloads.check_predict(wrong, "forest", 1234.566):
            raise SystemExit(f"check_predict accepted {wrong!r}")
    print("ok output checks refuse wrong outputs")


def check_refuses_without_program(spec_path: Path) -> None:
    """In a directory holding only BENCHMARK.json and the benchmark, the
    benchmark must exit non-zero without printing a result."""
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
    try:
        shutil.copy(spec_path, bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "train-models", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        raise SystemExit("the benchmark ran without the program")
    print("ok refuses to run without the program")


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    check_refuses_without_program(spec_path)
    check_checks()
    check_runs(spec)
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
