"""Smoke test of the benchmark harness at tiny sizes.

Every workload runs with --smoke: once untraced and twice traced with the
same seed. The last stdout line must name every metric of BENCHMARK.json
with its unit, no op may fail, and every count must repeat exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def result(workload: str, trace: int) -> dict:
    buf = io.StringIO()
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0"]
    with contextlib.redirect_stdout(buf):
        code = run.main([*argv, "--trace", str(trace), "--smoke"])
    assert code == 0
    out = json.loads(buf.getvalue().splitlines()[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    return out


def units(out: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in out["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    out = result(workload, 0)
    assert units(out) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = result(workload, 1), result(workload, 1)
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert units(first) == units(second) == spec
    counts = [name for name, unit in spec.items() if unit == "count"]
    assert [first["metrics"][c]["value"] for c in counts] == [
        second["metrics"][c]["value"] for c in counts
    ]
    assert first["attempted"] == second["attempted"]
