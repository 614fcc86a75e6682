"""The scripts under scripts/ run to completion against the library in src/."""

import os
import runpy
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from orbk3 import inertia

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


def test_fixed_point_table_reports_a_failed_solve(capsys, monkeypatch):
    # every sector weight 3/2 times too large: the solves for n = 2, 4, 5, 6 and 8 are not
    # integral, those for 3 and 7 give wrong counts, and no preset's unit identity is 1
    inverse = inertia.inverse_one_minus_re
    monkeypatch.setattr(inertia, "inverse_one_minus_re", lambda lam: inverse(lam) * Fraction(3, 2))
    assert runpy.run_path(str(ROOT / "scripts" / "fixed_point_table.py"))["main"]() == 1
    out, err = capsys.readouterr()
    rows = out.splitlines()[1:]
    assert len(rows) == 7 and all(row.endswith("(MISMATCH)") for row in rows)
    assert [row.split()[0] for row in rows if row.split()[1] == "failed"] == ["2", "4", "5", "6", "8"]
    assert err == ""
