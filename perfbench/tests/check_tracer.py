"""Tests of the benchmark's tracer, workloads and output checks.

Run from the repository root:

    python3 -m pytest -q perfbench/tests/check_tracer.py

The file name keeps these tests out of the program's own test run.
"""

from __future__ import annotations

import importlib
import itertools
import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import harness  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

# short prefixes of each workload that still reach every traced function
PREFIX = {"point-eval": 16, "sweep-closed": 5, "series-oracle": 9}
SEED = 7


def _traced(workload: str):
    task_list = list(itertools.islice(workloads.tasks(workload, SEED, 2), PREFIX[workload]))
    with tracer_mod.Tracer() as tracer:
        outcomes = [harness.execute(task) for task in task_list]
    calls = {key: s.calls for key, s in tracer.stats.items()}
    return calls, [o.digest for o in outcomes], tracer


@pytest.fixture(scope="module")
def runs():
    out = {}
    for workload in workloads.WORKLOADS:
        task_list = list(itertools.islice(workloads.tasks(workload, SEED, 2),
                                          PREFIX[workload]))
        untraced = [harness.execute(task) for task in task_list]
        out[workload] = {
            "tasks": task_list,
            "untraced": untraced,
            "first": _traced(workload),
            "second": _traced(workload),
        }
    return out


def test_call_counts_repeat_across_traced_runs(runs):
    for workload, run in runs.items():
        assert run["first"][0] == run["second"][0], workload


def test_every_listed_function_is_called(runs):
    total = {key: sum(run["first"][0][key] for run in runs.values())
             for key in runs["point-eval"]["first"][0]}
    missing = [f"{layer}.{name}" for (layer, name), calls in total.items() if calls == 0]
    assert not missing


def test_tracing_leaves_stdout_unchanged(runs):
    for workload, run in runs.items():
        assert [o.rc for o in run["untraced"]] == [0] * len(run["tasks"])
        assert [o.digest for o in run["untraced"]] == run["first"][1], workload
        assert run["first"][1] == run["second"][1], workload


def test_untraced_outputs_pass_the_checks(runs):
    for run in runs.values():
        for task, outcome in zip(run["tasks"], run["untraced"]):
            assert checks.check(task, outcome.stdout) == [], task.argv


def test_closed_sweeps_never_propagate(runs):
    calls = runs["sweep-closed"]["first"][0]
    assert all(n == 0 for (layer, _), n in calls.items() if layer in ("charging", "linalg"))


def test_time_propagation_reuses_one_generator(runs):
    metrics = runs["series-oracle"]["first"][2].metrics(1.0, 1.0, 1.0)
    assert 0 < metrics["linalg.unitary_exp.distinct_ratio"][0] < 0.05


def test_uninstall_restores_every_binding():
    cli = importlib.import_module("xyzbattery.cli")
    charging = importlib.import_module("xyzbattery.charging")
    before = (cli.work_series, charging.unitary_exp, cli.ThreadPoolExecutor, cli.main)
    t = tracer_mod.Tracer()
    for _ in range(2):  # the traced run installs one tracer once per task
        with t:
            assert cli.work_series is not before[0]
            assert charging.unitary_exp is not before[1]
            assert cli.ThreadPoolExecutor is not before[2]
        assert (cli.work_series, charging.unitary_exp, cli.ThreadPoolExecutor,
                cli.main) == before


def test_grid_points_follow_the_grid_each_call_scanned():
    analytics = importlib.import_module("xyzbattery.analytics")
    c = analytics.work_coefficients(analytics.SpinParams(J=1.0, Jz=0.5, gamma=0.3, B=0.7))
    with tracer_mod.Tracer() as t:
        analytics.grid_search_max(c, n=1000)
        analytics.grid_search_max(c, 500)
        analytics.grid_search_max(c)
    points = t.metrics(1.0, 1.0, 1.0)["analytics.grid_search_max.points"][0]
    assert points == 1500 + analytics.GRID_POINTS_PER_PERIOD


def test_covered_is_the_union_of_intervals():
    assert tracer_mod.covered([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == 4.0
    assert tracer_mod.covered([(1.0, 3.0), (1.5, 2.0)], 0.0, 10.0) == 2.0
    assert tracer_mod.covered([(-1.0, 3.0)], 0.0, 2.0) == 2.0


def test_worker_spans_count_against_the_submitting_span():
    # two overlapping children on worker threads cover the parent once
    t = tracer_mod.Tracer()
    barrier = threading.Barrier(2)
    child = t._wrap("analytics", "work_coefficients", lambda _: time.sleep(0.05))

    def item(i):
        barrier.wait(timeout=5)
        child(i)

    def fan_out():
        with t._executor_class()(max_workers=2) as pool:
            list(pool.map(item, range(2)))

    t._wrap("cli", "main", fan_out)()
    main = t.stats["cli", "main"]
    work = t.stats["analytics", "work_coefficients"]
    assert work.calls == 2 and t.sweep_stats.calls == 2
    assert main.wall < 0.03  # the children's union, not their sum, is removed
    assert work.wait > 0.08  # sleeping is off the CPU
    assert t.pool_busy_s < 0.03


def test_checks_reject_wrong_outputs():
    task = next(workloads.tasks("point-eval", SEED, 2))  # a coeffs task
    good = harness.execute(task).stdout
    assert checks.check(task, good) == []
    header, row = good.splitlines()
    fields = row.split(",")
    fields[0] = repr(float(fields[0]) * (1 + 1e-6))
    assert checks.check(task, f"{header}\n{','.join(fields)}\n")
    assert checks.check(task, "")


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = tracer_mod.Tracer().metrics(1.0, 1.0, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in per_layer.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_same_tasks():
    for workload in workloads.WORKLOADS:
        first = [t.argv for t in itertools.islice(workloads.tasks(workload, 3, 2), 40)]
        again = [t.argv for t in itertools.islice(workloads.tasks(workload, 3, 2), 40)]
        other = [t.argv for t in itertools.islice(workloads.tasks(workload, 4, 2), 40)]
        assert first == again and first != other
        assert len(set(first)) == len(first)  # every parameter set is used once


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point-eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
