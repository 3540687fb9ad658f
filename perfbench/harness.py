"""Runs workload tasks in-process against `xyzbattery.cli.main` and measures them.

`timed_run` gives the end-to-end metrics with tracing off; `traced_run`
gives the per-layer metrics from a fixed task list, each task run once
untraced and once traced. Both check every task's output (see checks.py).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import xyzbattery.cli as cli
from checks import check
from tracer import Tracer
from workloads import Task, cycle_length, nproc, tasks, warm_up_tasks

MIN_TASKS = 100        # so the 90th percentile has ten samples beyond it
DIGEST_TASKS = 20      # compared across runs; every run executes at least this many
RECHECK_TASKS = 8      # re-run after timing to check byte-identical output
SETUP_EVERY_S = 1.5    # task time between fresh-interpreter set-up samples
SETUP_MIN_REPEATS = 20
SETUP_TIMEOUT_S = 60

# fixed task counts of the traced run, so its counts repeat exactly
TRACE_TASKS = {"point-eval": 400, "sweep-closed": 40, "series-oracle": 20}

END_TO_END_UNITS = {
    "tasks_per_s": "1/s",
    "task_latency_p50_s": "s",
    "task_latency_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    """What one execution of a task produced."""

    rc: int
    stdout: str
    stderr: str
    seconds: float

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout.encode()).hexdigest()


@dataclass
class RunResult:
    """Counts, metrics as name -> (value, unit), and lines to print."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def fail(self, task: Task, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{task.label} {' '.join(task.argv)}: {message}")


def execute(task: Task) -> Outcome:
    """One in-process CLI call; the time covers `main` alone."""
    out, err = io.StringIO(), io.StringIO()
    main = cli.main  # looked up per call, so the tracer's wrapper is used
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(list(task.argv))
        except Exception as exc:  # noqa: BLE001 - a crash is a failed task
            rc = -1
            err.write(f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
    return Outcome(rc=rc, stdout=out.getvalue(), stderr=err.getvalue(), seconds=seconds)


def verify(task: Task, outcome: Outcome, result: RunResult) -> None:
    """Count one attempt; check exit code and output."""
    result.attempted += 1
    if outcome.rc != 0:
        result.fail(task, f"exit code {outcome.rc}: {outcome.stderr.strip()[:200]}")
    elif problems := check(task, outcome.stdout):
        result.fail(task, "; ".join(problems[:3]))


def warm_up(jobs: int) -> None:
    """Load LAPACK and every command path before anything is timed."""
    for task in warm_up_tasks(jobs):
        outcome = execute(task)
        if outcome.rc != 0:
            raise RuntimeError(f"warm-up task {task.argv} failed: {outcome.stderr}")


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _prefix_digest(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests[:DIGEST_TASKS]).encode()).hexdigest()


def measure_setup(root: Path, task: Task, expected_digest: str,
                  result: RunResult) -> float:
    """Wall time from a fresh interpreter to the task's full output."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "xyzbattery", *task.argv],
                          cwd=root, env=env, capture_output=True,
                          timeout=SETUP_TIMEOUT_S)
    seconds = time.perf_counter() - start
    result.attempted += 1
    if proc.returncode != 0:
        result.fail(task, f"fresh interpreter exit code {proc.returncode}")
    elif hashlib.sha256(proc.stdout).hexdigest() != expected_digest:
        result.fail(task, "fresh interpreter output differs from in-process output")
    return seconds


def timed_run(root: Path, workload: str, seed: int, seconds: float) -> RunResult:
    """Closed loop, one client: whole cycles until `seconds` of task time.

    Set-up samples (the first task in a fresh interpreter) are taken every
    SETUP_EVERY_S of task time, so they see the same host drift as the tasks.
    """
    jobs = nproc()
    warm_up(jobs)
    result = RunResult()
    cycle = cycle_length(workload)
    first = next(tasks(workload, seed, jobs))
    latencies: list[float] = []
    digests: list[str] = []
    setup_times: list[float] = []
    busy = 0.0
    for task in tasks(workload, seed, jobs):
        outcome = execute(task)
        verify(task, outcome, result)
        latencies.append(outcome.seconds)
        digests.append(outcome.digest)
        busy += outcome.seconds
        if busy >= SETUP_EVERY_S * (len(setup_times) + 1):
            setup_times.append(measure_setup(root, first, digests[0], result))
        if len(latencies) % cycle == 0 and busy >= seconds and len(latencies) >= MIN_TASKS:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # re-run evenly spaced tasks: output must be byte-identical
    stream = tasks(workload, seed, jobs)
    picks = {round(k * (len(latencies) - 1) / (RECHECK_TASKS - 1)) for k in range(RECHECK_TASKS)}
    for index, task in enumerate(itertools.islice(stream, len(latencies))):
        if index in picks:
            again = execute(task)
            result.attempted += 1
            if again.rc != 0 or again.digest != digests[index]:
                result.fail(task, "output differs when the task is run again")

    while len(setup_times) < SETUP_MIN_REPEATS:
        setup_times.append(measure_setup(root, first, digests[0], result))

    ordered = sorted(latencies)
    cycle_rates = [cycle / sum(latencies[i:i + cycle])
                   for i in range(0, len(latencies), cycle)]
    values = {
        "tasks_per_s": statistics.median(cycle_rates),
        "task_latency_p50_s": _percentile(ordered, 0.50),
        "task_latency_p90_s": _percentile(ordered, 0.90),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    result.metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}
    result.notes = [
        f"tasks {len(latencies)} in {busy:.3f} s of task time, {jobs} sweep jobs, "
        f"{len(setup_times)} set-up samples",
        f"outputs_sha256[first {DIGEST_TASKS} tasks] {_prefix_digest(digests)}",
    ]
    return result


def traced_run(workload: str, seed: int) -> RunResult:
    """A fixed task list, each task run untraced and traced; outputs must match.

    The two runs of a task follow each other, in an order that alternates
    from task to task, so host drift cancels out of the overhead ratio.
    """
    jobs = nproc()
    warm_up(jobs)
    result = RunResult()
    task_list = list(itertools.islice(tasks(workload, seed, jobs), TRACE_TASKS[workload]))
    tracer = Tracer()
    untraced, traced = [], []
    for index, task in enumerate(task_list):
        for run_traced in ((False, True) if index % 2 == 0 else (True, False)):
            if run_traced:
                with tracer:
                    traced.append(execute(task))
            else:
                untraced.append(execute(task))
    for task, outcome in zip(task_list, untraced):
        verify(task, outcome, result)
    for task, before, after in zip(task_list, untraced, traced):
        result.attempted += 1
        if after.rc != before.rc or after.digest != before.digest:
            result.fail(task, "traced output differs from untraced output")
    traced_wall = sum(o.seconds for o in traced)
    sweep_wall = sum(o.seconds for t, o in zip(task_list, traced) if t.command == "sweep")
    untraced_wall = sum(o.seconds for o in untraced)
    result.metrics = tracer.metrics(traced_wall, sweep_wall, untraced_wall)
    result.notes = [
        f"tasks {len(task_list)} traced, {traced_wall:.3f} s traced vs "
        f"{untraced_wall:.3f} s untraced, {jobs} sweep jobs",
        f"outputs_sha256[first {DIGEST_TASKS} tasks] "
        f"{_prefix_digest([o.digest for o in traced])}",
    ]
    return result
