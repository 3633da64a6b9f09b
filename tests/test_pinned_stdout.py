"""Pinned stdout: ``python -m repro.harness E9 --no-store`` byte for byte.

``tests/data/stdout/`` holds E9's output and each ``examples/*.py``
output; CI's docs job diffs every example against its file.  A change
that alters one of these outputs on purpose writes the new output to
its file in the same change.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED = ROOT / "tests" / "data" / "stdout"


def test_e9_stdout_is_pinned():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-m", "repro.harness", "E9", "--no-store"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path}, capture_output=True, check=True,
    )
    assert completed.stdout == (PINNED / "e9.txt").read_bytes()
