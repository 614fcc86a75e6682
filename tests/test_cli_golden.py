"""Pin the CLI's stdout: each argv below must print exactly what tests/data/cli_golden.json holds.

To regenerate the file after an intended change of output, run
`PYTHONPATH=src python tests/test_cli_golden.py` and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from orbk3.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

ARGVS = (
    [["fixed-points", "--order", str(n), "--json"] for n in range(2, 9)]
    + [
        ["dim", "--preset", f"cyclic:{n}", "--class", klass, "--json"]
        for n in range(2, 9)
        for klass in ("OX", "Op", "TX")
    ]
    + [
        ["hilb-enum", "--length", "4", "--json"],
        ["parseval", "--n", "12", "--json"],
        ["wps-euler", "--weights", "2,3", "--json"],
        ["wps-euler", "--weights", "1,1,2", "--json"],
        ["verify-identity", "--preset", "cyclic:6", "--json"],
        ["bg-count", "--n", "2", "--degree", "3", "--json"],
        ["check-hypotheses", "--r", "1", "--s", "-1", "--d", "0", "--generic", "--json"],
        # the plain-text form of every subcommand, as in the README's CLI block
        ["fixed-points", "--order", "5"],
        ["dim", "--preset", "cyclic:2", "--class", "TX"],
        ["hilb-enum", "--length", "4"],
        ["verify-identity", "--preset", "cyclic:6"],
        ["parseval", "--n", "8", "--trials", "100", "--seed", "1"],
        ["wps-euler", "--weights", "1,1,2"],
        ["bg-count", "--n", "2", "--degree", "3"],
        ["check-hypotheses", "--r", "1", "--s", "-1", "--d", "0", "--generic"],
    ]
)


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_argv(golden):
    assert [case["argv"] for case in golden] == ARGVS


@pytest.mark.parametrize("i", range(len(ARGVS)), ids=[" ".join(argv) for argv in ARGVS])
def test_cli_stdout_matches_golden(golden, i):
    assert run(ARGVS[i]) == golden[i]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run(argv) for argv in ARGVS], indent=1) + "\n")
