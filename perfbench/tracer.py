"""Outside-in tracer for the xyzbattery layers.

The tracer wraps the listed functions of each layer module in every
module namespace that bound them by name (`cli` imports `work_series` from
`charging`, for example), so a call counts whichever name it went through.
Nothing in the program changes; `uninstall` puts the originals back.

Each call opens a span on a thread-local stack. A span's self wall time is
its duration minus the union of its children's intervals; its busy time is
its thread's CPU time (`time.thread_time`) minus that of its children on
the same thread; wait time is self wall minus busy, floored at zero, and
holds what the span spent off the CPU, such as waiting for the GIL. Sweep
workers inherit the submitting thread's current span as their parent,
through a `ThreadPoolExecutor` subclass swapped into `cli`, and run each
row under a span of its own, reported as `cli.sweep`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

PACKAGE = "xyzbattery"

LAYERS: dict[str, tuple[str, ...]] = {
    "linalg": ("tensor", "hermitian_eig", "unitary_exp", "expectation",
               "is_hermitian"),
    "model": ("build_total_hamiltonian", "build_spin_hamiltonian",
              "build_field_hamiltonian", "gibbs_state", "closed_form_spectrum",
              "thermal_elements"),
    "charging": ("propagator", "evolve", "work_series", "stored_work",
                 "build_charging_hamiltonian"),
    "analytics": ("work_coefficients", "max_work", "grid_search_max",
                  "harmonic_fit", "consistency_report", "closed_form_work",
                  "classify_branch"),
    "cli": ("main", "build_parser"),
}

# functions whose distinct first arguments are counted: the generator
# matrix of unitary_exp and the parameters of build_total_hamiltonian
DISTINCT_INPUT = (("linalg", "unitary_exp"), ("model", "build_total_hamiltonian"))

# the grid search whose points are counted: the n each call received, or
# the function's default for n when the call left it out
GRID_SEARCH = ("analytics", "grid_search_max")


class _Stats:
    __slots__ = ("calls", "busy", "wait", "wall")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.wait = 0.0
        self.wall = 0.0


class _Span:
    __slots__ = ("start", "cpu_start", "thread", "intervals", "child_cpu")

    def __init__(self, thread: int) -> None:
        self.thread = thread
        self.intervals: list[tuple[float, float]] = []
        self.child_cpu = 0.0


def covered(intervals, start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _input_key(value):
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    return repr(value)


class Tracer:
    """Install with `with Tracer() as tracer:`; read `metrics` afterwards."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.stats = {(layer, name): _Stats()
                      for layer, names in LAYERS.items() for name in names}
        self.distinct: dict[tuple[str, str], set] = {key: set() for key in DISTINCT_INPUT}
        # one span per sweep row on a worker thread: the row's work outside
        # the traced functions, reported as cli.sweep
        self.sweep_stats = _Stats()
        self.pool_busy_s = 0.0
        self.grid_points = 0
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- patching

    def install(self) -> None:
        homes = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, names in LAYERS.items():
            for name in names:
                original = getattr(homes[layer], name, None)
                if not callable(original):
                    continue  # a later version may drop a function; it reads as 0 calls
                wrapper = self._wrap(layer, name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        if hasattr(homes["cli"], "ThreadPoolExecutor"):
            self._patch(homes["cli"], "ThreadPoolExecutor", self._executor_class())

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def _patch(self, module, attr: str, value) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    # -- spans

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _current(self):
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "inherited", None)

    def _wrap(self, layer: str, name: str, original):
        traced = self._spanned(original, self.stats[layer, name],
                               self.distinct.get((layer, name)))
        if (layer, name) == GRID_SEARCH:
            return self._counting_points(original, traced)
        return traced

    def _counting_points(self, original, traced):
        """Adds each call's grid size to grid_points, outside the span."""
        signature = inspect.signature(original)
        home = importlib.import_module(f"{PACKAGE}.{GRID_SEARCH[0]}")
        fallback = getattr(home, "GRID_POINTS_PER_PERIOD", 0)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                n = bound.arguments.get("n", fallback)
            except TypeError:
                n = fallback
            with self._lock:
                self.grid_points += int(n)
            return traced(*args, **kwargs)

        return counted

    def _spanned(self, original, stats: _Stats, seen: set | None = None):
        stack_of = self._stack
        local = self._local
        close = self._close
        perf_counter, thread_time, get_ident = time.perf_counter, time.thread_time, threading.get_ident

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if seen is not None and args:
                seen.add(_input_key(args[0]))
            stack = stack_of()
            parent = stack[-1] if stack else getattr(local, "inherited", None)
            span = _Span(get_ident())
            stack.append(span)
            span.start = perf_counter()
            span.cpu_start = thread_time()
            try:
                return original(*args, **kwargs)
            finally:
                cpu_end = thread_time()
                end = perf_counter()
                stack.pop()
                close(span, parent, end, cpu_end, stats)

        return traced

    def _close(self, span: _Span, parent, end: float, cpu_end: float,
               stats: _Stats) -> None:
        cpu = cpu_end - span.cpu_start
        self_wall = end - span.start
        if span.intervals:
            self_wall -= covered(span.intervals, span.start, end)
        self_busy = cpu - span.child_cpu
        if parent is not None:
            parent.intervals.append((span.start, end))  # list.append is atomic
            if parent.thread == span.thread:
                parent.child_cpu += cpu
        with self._lock:
            stats.calls += 1
            stats.busy += self_busy
            stats.wall += self_wall
            stats.wait += max(0.0, self_wall - self_busy)

    def _executor_class(self):
        tracer = self

        class PropagatingExecutor(ThreadPoolExecutor):
            """Runs each item under the submitter's span and times its CPU."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._current()

                def run():
                    tracer._local.inherited = parent
                    start = time.thread_time()
                    try:
                        return tracer._spanned(fn, tracer.sweep_stats)(*args, **kwargs)
                    finally:
                        busy = time.thread_time() - start
                        tracer._local.inherited = None
                        with tracer._lock:
                            tracer.pool_busy_s += busy

                return super().submit(run)

        return PropagatingExecutor

    # -- results

    def metrics(self, workload_wall_s: float, sweep_wall_s: float,
                untraced_wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit).

        workload_wall_s is the traced tasks' total wall time, sweep_wall_s
        that of the sweep tasks among them, untraced_wall_s the same tasks'
        total without the tracer.
        """
        out: dict[str, tuple[float, str]] = {}
        for layer, names in LAYERS.items():
            busy = wait = wall = 0.0
            entries = [(name, self.stats[layer, name]) for name in names]
            if layer == "cli":
                entries.append(("sweep", self.sweep_stats))
            for name, s in entries:
                out[f"{layer}.{name}.calls"] = (s.calls, "count")
                out[f"{layer}.{name}.busy_s"] = (s.busy, "s")
                out[f"{layer}.{name}.wait_s"] = (s.wait, "s")
                busy += s.busy
                wait += s.wait
                wall += s.wall
            out[f"{layer}.busy_s"] = (busy, "s")
            out[f"{layer}.wait_s"] = (wait, "s")
            out[f"{layer}.share"] = (_ratio(wall, workload_wall_s), "ratio")
        for layer, name in DISTINCT_INPUT:
            out[f"{layer}.{name}.distinct_ratio"] = (
                _ratio(len(self.distinct[layer, name]), self.stats[layer, name].calls),
                "ratio")
        propagation_wall = sum(s.wall for (layer, _), s in self.stats.items()
                               if layer in ("charging", "model", "linalg"))
        out["charging.us_per_sample"] = (
            _ratio(propagation_wall * 1e6, self.stats["charging", "propagator"].calls), "us")
        out["analytics.grid_search_max.points"] = (self.grid_points, "count")
        out["cli.sweep.parallelism"] = (_ratio(self.pool_busy_s, sweep_wall_s), "ratio")
        out["trace.overhead_ratio"] = (_ratio(workload_wall_s, untraced_wall_s), "ratio")
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
