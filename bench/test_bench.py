"""Smoke tests of the benchmark itself (tiny sizes, about ten seconds).

    python3 -m pytest -q bench/test_bench.py

They are not part of the repository's main test suite, which collects
``tests/`` only.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(tmp_path: Path, workload: str, seed: int = 0, trace: int = 0, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace), "--smoke",
           "--work-dir", str(tmp_path)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    record_path = tmp_path / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else None
    return proc, record


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_reported_with_its_unit(tmp_path, workload):
    proc, record = bench(tmp_path, workload)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in run.END_TO_END
    }
    assert all(v["value"] > 0 for v in last["metrics"].values())
    # The workload's own metrics are printed by name and unit as well.
    for name in ["error_rate"] + run.WORKLOAD_METRICS[workload]:
        assert f"metric {name} = " in proc.stdout
        assert record["units"][name] == run.unit_of(name)
        assert record["metrics"][name] == record["metrics"][name]  # not NaN


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tracing_changes_no_output(tmp_path, workload):
    plain, untraced = bench(tmp_path, workload, trace=0)
    traced_proc, traced = bench(tmp_path, workload, trace=1)
    assert plain.returncode == 0 and traced_proc.returncode == 0, traced_proc.stderr
    # Traced rounds alternate with untraced ones inside the traced run and
    # must match the first round byte for byte, and the untraced run too.
    assert traced["failed"] == 0 and traced["round_walls"]["traced"]
    assert traced["outputs"] == untraced["outputs"] and untraced["outputs"]
    last = json.loads(traced_proc.stdout.strip().splitlines()[-1])
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in run.PER_LAYER
    }
    assert 0 < traced["metrics"]["trace.attributed_pct"] <= 100.0


def test_seed_fixes_the_inputs(tmp_path):
    _, first = bench(tmp_path / "a", "probe", seed=0)
    _, again = bench(tmp_path / "b", "probe", seed=0)
    _, other = bench(tmp_path / "c", "probe", seed=1)
    assert first["outputs"] == again["outputs"]
    assert other["failed"] == 0 and other["outputs"] != first["outputs"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = bench(tmp_path / "work", "probe", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_spec_file_matches_the_code():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == run.spec()


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        time.sleep(0.01)
        with tracer.span("inner"):
            time.sleep(0.02)
    outer, inner = tracer.stats["outer"], tracer.stats["inner"]
    assert outer[1] == pytest.approx(outer[2] + inner[1], abs=1e-9)
    assert inner[1] == inner[2] >= 0.02
    spans = tracer.span_records()
    assert [s["name"] for s in spans] == ["outer", "inner"]
    assert spans[1]["parent"] == 0 and spans[0]["parent"] == -1
    assert spans[0]["start"] <= spans[1]["start"] <= spans[1]["end"] <= spans[0]["end"]
