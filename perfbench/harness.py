"""Running a workload's commands: set-up, sessions and their checks.

Shared by the untraced run, which starts one interpreter per command,
and the traced run, which calls ``movierev.cli.main`` in-process. Both
go through :func:`run_session`, so both apply the same output checks.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS/OpenMP thread for the benchmark and every child: the host has
# two cores, and numpy's OpenBLAS is built for 64 threads, which only
# adds scheduling noise to serial commands.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
COMMAND_TIMEOUT_S = 120


@dataclass
class CommandResult:
    kind: str
    args: list[str]
    wall_s: float
    exit_code: int
    stdout: str
    stderr: str
    rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)

    def record(self) -> dict:
        return {"kind": self.kind, "args": self.args, "wall_s": self.wall_s,
                "exit_code": self.exit_code, "rss_mb": self.rss_mb, "problems": self.problems}


@dataclass
class Session:
    commands: list[CommandResult]
    digests: dict[str, str]
    output_bytes: int
    artifact_bytes: int

    @property
    def wall_s(self) -> float:
        """The session's time in the program: its commands' wall times.
        The checks between commands are not counted."""
        return sum(c.wall_s for c in self.commands)


class SetupFailed(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class SubprocessRunner:
    """Runs each command in a fresh interpreter and reads that child's own
    rusage from ``os.wait4``. ``RUSAGE_CHILDREN`` would be a running
    maximum over every child, so one command's peak RSS would leak into
    the next."""

    def __init__(self, root: Path, work: Path):
        self.env = child_env(root)
        self.root = root
        self.work = work

    def __call__(self, kind: str, args: list[str]) -> CommandResult:
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "movierev.cli", *args],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            # a hung command is killed, so every run ends in bounded time
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return CommandResult(
            kind=kind,
            args=args,
            wall_s=wall,
            exit_code=proc.returncode,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
            rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        )


def run_session(workload, out: Path, runner, reference: dict | None) -> Session:
    """One session: every command in order, each checked after it exits.
    With ``reference``, every output file must match its digest there."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    results, digests, sizes, art_bytes = [], {}, 0, 0
    for cmd in workload.session(out):
        res = runner(cmd.kind, cmd.args)
        missing = [name for name in cmd.outputs if not (out / name).is_file()]
        if res.exit_code != 0:
            res.problems.append(f"exit code {res.exit_code}: {res.stderr.strip()[-300:]}")
        elif missing:
            res.problems.append(f"did not write {missing}")
        else:
            try:
                res.problems += cmd.check(res.stdout)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                res.problems.append(f"output check raised {exc!r}")
        for name in cmd.outputs:
            if name in missing:
                continue
            path = out / name
            digests[name] = sha256(path)
            size = path.stat().st_size
            sizes += size
            art_bytes += size if name.endswith(".mrp.json") else 0
            if reference is not None and reference.get(name) != digests[name]:
                res.problems.append(f"{name} differs from the first session's bytes")
        results.append(res)
    return Session(results, digests, sizes, art_bytes)


def set_up(workload, d: Path, runner) -> tuple[float, list[CommandResult], list]:
    """One timed set-up of ``workload`` in the fresh directory ``d``.
    Returns its seconds, the CLI commands it ran, and the digest of every
    file it wrote, so that repeated set-ups can be compared."""
    commands = []

    def run_setup(args):
        res = runner("setup", args)
        commands.append(res)
        if res.exit_code != 0:
            raise SetupFailed(f"set-up command {args} exited {res.exit_code}: {res.stderr[-300:]}")

    d.mkdir(parents=True)
    start = time.perf_counter()
    workload.prepare(d, run_setup)
    seconds = time.perf_counter() - start
    digests = sorted((str(p.relative_to(d)), sha256(p)) for p in d.rglob("*") if p.is_file())
    return seconds, commands, digests


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: a diagnostic of host speed
    recorded with every run, never used to scale a metric."""
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i % 7
    return time.perf_counter() - start
