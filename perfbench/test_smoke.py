"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[int, list[dict]]:
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0.05", "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        rc = run.main(argv, sizes=workloads.TINY)
    return rc, [json.loads(line) for line in out.getvalue().splitlines()]


def test_declared_workloads_are_the_harness_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_every_declared_metric(workload, trace):
    rc, (info, result) = _run(workload, trace)
    # with --trace 1 a traced result that differs from the untraced one is a failure
    assert rc == 0 and result["correct"] and result["failed"] == 0, info.get("failures")
    assert result["attempted"] >= run.MIN_REQUESTS
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert info["latency_samples"] >= run.MIN_REQUESTS
    assert set(info["env"]) == {"python", "nproc", "platform", "commit", "seed"}


def test_wrong_result_fails_the_run(monkeypatch):
    monkeypatch.setattr(workloads.HilbEnum, "execute", lambda self, mods, kind, payload, state: -1)
    rc, (info, result) = _run("hilb-enum", 0)
    assert rc == 1 and not result["correct"] and result["failed"] > 0
    assert result["metrics"] == {}


def test_missing_sources_fail_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "hilb-enum", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
