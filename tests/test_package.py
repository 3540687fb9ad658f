"""Tests for the package itself: it holds only its version."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


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
