"""The scripts under scripts/ run to completion against the library in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["fixed_point_table.py"],
        ["moduli_dimensions.py"],
        ["hilbert_enumeration.py", "--max-length", "3"],
    ],
)
def test_script_runs(argv):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    if argv[0] == "fixed_point_table.py":
        assert "MISMATCH" not in proc.stdout
        assert proc.stdout.count("(ok)") == 7
