"""Tests for the package itself: it holds only its version, the closed-form
commands start without numpy and print the bytes numpy would, and the README
lists every module."""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xyzbattery import cli
from xyzbattery.analytics import closed_form_work, work_coefficients
from xyzbattery.charging import ChargingSpec, work_curve
from xyzbattery.params import SpinParams

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_import_loads_no_submodule_and_no_numpy():
    code = (
        "import sys, xyzbattery\n"
        "loaded = sorted(m for m in sys.modules\n"
        "                if m.startswith('xyzbattery.') or m.split('.')[0] == 'numpy')\n"
        "print(xyzbattery.__version__, loaded)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "0.1.0 []\n"


def _run_python(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)


_PARAMS = ["--J", "0.2", "--Jz", "0.2", "--gamma", "0.5"]


# loaded only by commands that diagonalise or propagate
_HEAVY = ("numpy", "xyzbattery.linalg", "xyzbattery.model", "xyzbattery.charging")


@pytest.mark.parametrize("argv, numpy_loaded", [
    (["coeffs", *_PARAMS, "--B", "1"], False),
    (["maxwork", *_PARAMS, "--B", "1"], False),
    (["sweep", *_PARAMS, "--axis", "B", "--start", "0", "--stop", "2", "--steps", "5",
      "--quantity", "coefficients", "--jobs", "2"], False),
    (["sweep", *_PARAMS, "--B", "1", "--axis", "omega", "--start", "0.5", "--stop", "2",
      "--steps", "5", "--quantity", "w_max_printed"], False),
    (["figure", "4", "--J", "0.2", "--Jz", "0.2", "--B-values", "1", "--steps", "5",
      "--out", "{tmp}"], False),
    (["figure", "5", *_PARAMS, "--B-start", "0", "--B-stop", "2", "--steps", "5",
      "--out", "{tmp}"], False),
    (["--help"], False),
    (["--version"], False),
    (["work", *_PARAMS, "--B", "1", "--samples", "5"], False),
    (["work", *_PARAMS, "--B", "1", "--samples", "5", "--mode", "full"], True),
    (["figure", "1", "--samples", "5", "--out", "{tmp}"], False),
    (["figure", "3", *_PARAMS, "--omega", "1", "--B-values", "0,1", "--samples", "5",
      "--out", "{tmp}"], False),
], ids=["coeffs", "maxwork", "sweep-coefficients", "sweep-w_max_printed", "figure4",
        "figure5", "help", "version", "work", "work-full", "figure1", "figure3"])
def test_numpy_loads_only_where_a_command_computes_with_it(tmp_path, argv, numpy_loaded):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code = (
        "import contextlib, io, sys\n"
        "from xyzbattery import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = cli.main({argv!r})\n"
        f"print(rc, [m for m in {_HEAVY!r} if m in sys.modules])\n"
    )
    rc, loaded = _run_python(code).stdout.split(" ", 1)
    assert rc == "0"
    if numpy_loaded:
        assert "numpy" in loaded
    else:
        assert loaded == "[]\n"


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(J=st.floats(-2.0, 2.0), Jz=st.floats(-2.0, 2.0), gamma=st.floats(-1.0, 1.0),
       B=st.floats(-5.0, 5.0), omega=st.floats(0.25, 3.0),
       periods=st.floats(0.5, 3.0), samples=st.integers(2, 1001))
def test_list_columns_print_the_array_bytes(J, Jz, gamma, B, omega, periods, samples):
    # the numpy-free charging-only columns against numpy's linspace, the
    # closed form on an array, and the charging-only curve on an array
    p, spec = SpinParams(J, Jz, gamma, B), ChargingSpec(omega)
    t_max = periods * 2.0 * math.pi / omega
    times, closed, oracle, *_ = cli._work_curve_columns(p, omega, "charging-only", t_max,
                                                         samples)
    assert all(type(column) is list for column in (times, closed, oracle))
    array_times = np.linspace(0.0, t_max, samples)
    arrays = [array_times, closed_form_work(work_coefficients(p), omega, array_times),
              work_curve(p, spec)(array_times)]
    columns = ("t", "W_closed", "W_oracle")
    assert (cli._render_csv(columns, [times, closed, oracle])
            == cli._render_csv(columns, arrays))


def test_readme_layout_names_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| `xyzbattery\.(\w+)`", layout, flags=re.MULTILINE)
    modules = sorted(p.stem for p in (SRC / "xyzbattery").glob("*.py")
                     if p.stem not in ("__init__", "__main__"))
    assert sorted(documented) == modules
    assert len(documented) == len(set(documented))
