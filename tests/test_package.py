"""Tests for the package itself: it holds only its version, the closed-form
commands start without numpy, and the README lists every module."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
    (["work", *_PARAMS, "--B", "1", "--samples", "5"], True),
], ids=["coeffs", "maxwork", "sweep-coefficients", "sweep-w_max_printed", "figure4",
        "figure5", "help", "version", "work"])
def test_numpy_loads_only_where_a_command_computes_with_it(tmp_path, argv, numpy_loaded):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code = (
        "import contextlib, io, sys\n"
        "from xyzbattery import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = cli.main({argv!r})\n"
        "print(rc, 'numpy' in sys.modules)\n"
    )
    assert _run_python(code).stdout == f"0 {numpy_loaded}\n"


def test_readme_layout_names_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| `xyzbattery\.(\w+)`", layout, flags=re.MULTILINE)
    modules = sorted(p.stem for p in (SRC / "xyzbattery").glob("*.py")
                     if p.stem not in ("__init__", "__main__"))
    assert sorted(documented) == modules
    assert len(documented) == len(set(documented))
