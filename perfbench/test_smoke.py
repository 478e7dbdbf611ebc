"""Fast smoke test of the benchmark at tiny sizes (a few seconds in all).

    python3 -m pytest -q perfbench/test_smoke.py

It runs every workload with a tiny cert instance and few fuzz trials, traced
and untraced, and checks the result against ``BENCHMARK.json``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric(name, trace):
    metrics, attempted, failed, correct, report, _ = workloads.run(name, 7, 0.1, trace, tiny=True)
    assert correct, report["errors"]
    assert failed == 0 and attempted >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert set(metrics) == {m["name"] for m in SPEC[kind]}
    for key, (value, unit) in metrics.items():
        assert unit == UNITS[key], key
    if not trace:
        assert all(value > 0 for value, _ in metrics.values()), metrics
    assert report["reject_reason_by_mutation"]
    if name != "fuzz-small":
        assert all(c["rejected"] for c in report["corruption_gate"].values())
        for rows in report["bound_slack"].values():
            assert all(r["slack"] >= 0 for r in rows.values()), rows


def test_counts_repeat_exactly():
    def counts():
        metrics = workloads.run("cycle-k2", 3, 0.1, True, tiny=True)[0]
        return {k: v for k, (v, unit) in metrics.items() if unit in ("count", "bits")}

    assert counts() == counts()


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:]
        + ["--workload", "fuzz-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
