"""Seeded task lists for the three benchmark workloads.

A task is one `xyzbattery` CLI invocation. Every workload repeats a fixed
cycle of task templates; only the parameters are drawn from the seed. The
cycle fixes the mix of commands and sizes, so the latency percentiles land
inside one class of tasks on every seed (see README.md for the ranks).
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

WORKLOADS = ("point-eval", "sweep-closed", "series-oracle")

# the parameter box of the repository's test suite
J_RANGE = (-2.0, 2.0)
JZ_RANGE = (-2.0, 2.0)
GAMMA_RANGE = (-1.0, 1.0)
B_RANGE = (-5.0, 5.0)
OMEGA_RANGE = (0.25, 3.0)
BETA_RANGE = (0.25, 4.0)
AXIS_RANGES = {"J": J_RANGE, "Jz": JZ_RANGE, "gamma": GAMMA_RANGE,
               "B": B_RANGE, "omega": OMEGA_RANGE}
SWEEP_STEPS = 41

# edge draws; point-eval switches kind every cycle, so each command meets all
VARIANTS = ("box", "corner_zero", "box", "field_negative", "eta_zero",
            "double_peak_b_negative")


@dataclass(frozen=True)
class Task:
    """One CLI invocation and the inputs the output checks need."""

    label: str
    argv: tuple[str, ...]
    inputs: dict = field(hash=False, compare=False)

    @property
    def command(self) -> str:
        return self.argv[0]


def nproc() -> int:
    """CPUs this process may run on, as `nproc` reports them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def closed_form_coefficients(J: float, Jz: float, gamma: float,
                             B: float) -> tuple[float, float]:
    """The paper's beta = 1 work coefficients (a, b), for drawing and checking."""
    eta = math.hypot(B, gamma * J)
    sinhc = 1.0 + eta * eta / 6.0 if eta < 1e-8 else math.sinh(eta) / eta
    ez = math.exp(Jz)
    denom = ez * math.cosh(J) + math.cosh(eta)
    a = 4.0 * B * B * sinhc / denom
    b = (ez * (Jz + J * (1.0 + gamma)) * math.cosh(J)
         + (-Jz + J * (1.0 + gamma)) * math.cosh(eta)
         + J * (gamma - 1.0) * (-ez * math.sinh(J) + J * gamma * sinhc)) / denom
    return a, b


def _box(rng: random.Random) -> dict:
    return {"J": rng.uniform(*J_RANGE), "Jz": rng.uniform(*JZ_RANGE),
            "gamma": rng.uniform(*GAMMA_RANGE), "B": rng.uniform(*B_RANGE)}


def draw_params(rng: random.Random, variant: str = "box") -> dict:
    """Couplings and field for one task; beta and omega are added by templates."""
    p = _box(rng)
    if variant == "corner_zero":  # |gamma*J| below the 1e-12 degeneracy cut
        p["gamma"] = rng.uniform(-1.0, 1.0) * 1e-13
    elif variant == "field_negative":
        p["B"] = -rng.uniform(0.1, B_RANGE[1])
    elif variant == "eta_zero":  # eta below the 1e-8 series cut of sinh(eta)/eta
        p["B"] = rng.uniform(-1.0, 1.0) * 1e-9
        p["gamma"] = rng.uniform(-1.0, 1.0) * 1e-10
    elif variant == "double_peak_b_negative":  # |a| <= 4|b| with b < 0
        while True:
            a, b = closed_form_coefficients(p["J"], p["Jz"], p["gamma"], p["B"])
            if b < 0 and abs(a) <= 4.0 * abs(b):
                break
            p = _box(rng)
    elif variant != "box":
        raise ValueError(f"unknown variant {variant!r}")
    return p


def _flags(values: dict) -> tuple[str, ...]:
    out = []
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        out.append(f"{flag}={value!r}" if isinstance(value, float) else f"{flag}={value}")
    return tuple(out)


def _task(label: str, command: str, inputs: dict) -> Task:
    return Task(label=label, argv=(command,) + _flags(inputs), inputs=dict(inputs))


# -- templates: (rng, cycle number, jobs) -> Task


def _point(command: str, beta_one: bool = True) -> Callable:
    def make(rng, round_no, jobs):
        p = draw_params(rng, VARIANTS[round_no % len(VARIANTS)])
        label = command
        if command == "maxwork":
            p["omega"] = rng.uniform(*OMEGA_RANGE)
        if not beta_one:
            p["beta"] = rng.uniform(*BETA_RANGE)
            label += "-beta"
        return _task(label, command, p)
    return make


def _sweep_task(rng, axis, quantity, steps, mode, jobs) -> Task:
    p = draw_params(rng)
    p["omega"] = rng.uniform(*OMEGA_RANGE)
    del p[axis]  # the swept axis takes its values from the range
    lo, hi = AXIS_RANGES[axis]
    width = rng.uniform(0.25, 1.0) * (hi - lo)
    start = rng.uniform(lo, hi - width)
    if mode is not None:
        p["mode"] = mode
    inputs = dict(p, axis=axis, start=start, stop=start + width,
                  steps=steps, quantity=quantity, jobs=jobs)
    short = {"w_max_printed": "wmax", "coefficients": "coeffs",
             "w_series_peak_oracle": "oracle"}[quantity]
    suffix = f"-{mode}" if mode is not None else ""
    return _task(f"sweep-{short}{suffix}-{steps}", "sweep", inputs)


def _work(mode: str, samples: int) -> Callable:
    def make(rng, round_no, jobs):
        p = draw_params(rng)
        p.update(omega=rng.uniform(*OMEGA_RANGE), mode=mode, samples=samples)
        return _task(f"work-{mode}-{samples}", "work", p)
    return make


def _report(rng, round_no, jobs) -> Task:
    p = draw_params(rng)
    p["omega"] = rng.uniform(*OMEGA_RANGE)
    return _task("report", "report", p)


def _sweep(quantity: str, steps: int = SWEEP_STEPS, mode: str | None = None) -> Callable:
    def make(rng, round_no, jobs):
        axis = rng.choice(tuple(AXIS_RANGES))
        return _sweep_task(rng, axis, quantity, steps, mode, jobs)
    return make


CO, FULL, ORACLE = "charging-only", "full", "w_series_peak_oracle"

# Why each cycle looks as it does is in README.md. The first template of
# each cycle is cheap, because set-up time is measured on the first task.
CYCLES: dict[str, tuple[Callable, ...]] = {
    "point-eval": (
        _point("coeffs"), _point("spectrum"), _point("gibbs"), _point("maxwork"),
        _point("coeffs"), _point("spectrum", beta_one=False),
        _point("gibbs", beta_one=False), _point("maxwork"),
    ),
    "sweep-closed": (
        _sweep("coefficients"), _sweep("w_max_printed"), _sweep("w_max_printed"),
        _sweep("w_max_printed"), _sweep("w_max_printed"),
    ),
    "series-oracle": (
        _work(CO, 201), _work(FULL, 201), _report, _work(CO, 401),
        _sweep(ORACLE, 3, CO), _work(FULL, 401), _report, _work(CO, 601),
        _work(FULL, 1001), _sweep(ORACLE, 2, FULL), _work(CO, 801),
        _work(FULL, 601), _report, _work(CO, 1001), _work(FULL, 1001),
        _sweep(ORACLE, 2, CO), _work(CO, 1001), _work(FULL, 801), _report,
        _work(FULL, 1001),
    ),
}


def cycle_length(workload: str) -> int:
    return len(CYCLES[workload])


def tasks(workload: str, seed: int, jobs: int) -> Iterator[Task]:
    """Endless task stream; the same seed always yields the same tasks."""
    if workload not in CYCLES:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"xyzbattery-bench:{workload}:{seed}")
    cycle = CYCLES[workload]
    for index in itertools.count():
        yield cycle[index % len(cycle)](rng, index // len(cycle), jobs)


def warm_up_tasks(jobs: int) -> list[Task]:
    """One small task per command path, run untimed before measuring."""
    rng = random.Random("xyzbattery-bench:warm-up")
    out = [_point(c)(rng, 0, jobs) for c in ("coeffs", "spectrum", "gibbs", "maxwork")]
    out += [_work(CO, 16)(rng, 0, jobs), _work(FULL, 16)(rng, 0, jobs),
            _report(rng, 0, jobs),
            _sweep_task(rng, "B", "w_max_printed", 2, None, jobs),
            _sweep_task(rng, "J", "coefficients", 2, None, jobs)]
    return out
