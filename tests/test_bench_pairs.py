"""tools/bench_pairs.py on canned bench/run.py output; no process is started."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _load_tool(path):
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load_tool(_PATH)

METRICS = ["wall_rel", "peak_rss_mb"]


def _stdout(wall_rel, peak=41.97, failed=0, changed="0 of 1 files vs bench/reference.json"):
    """What bench/run.py prints, cut to the lines the script reads and a few it skips."""
    result = {"correct": failed == 0, "attempted": 3, "failed": failed, "metrics": {}}
    return "\n".join([
        "environment nproc=2 numpy=2.4.6",
        f"workload ratio_grid seed 0: 3 rounds in 30.0 s, 3 ops, {failed} failed",
        "calibration loop 7.82 ms (median of 11, min 6.84)",
        f"outputs_changed {changed}",
        "metric setup_s = 0.114283 s",
        f"metric wall_rel = {wall_rel} x",
        f"metric peak_rss_mb = {peak} MB",
        "metric error_rate = 0 ratio",
        json.dumps(result),
    ]) + "\n"


def test_parse_run_reads_the_listed_metrics():
    got = bench_pairs.parse_run("p", 0, _stdout(116.272, 41.9727), METRICS + ["setup_s"])
    assert got == {"wall_rel": 116.272, "peak_rss_mb": 41.9727, "setup_s": 0.114283}


@pytest.mark.parametrize("code, stdout, message", [
    (1, _stdout(1.0), "p: exit code 1"),
    (0, _stdout(1.0, failed=2), "p: 2 failed operations"),
    (0, _stdout(1.0, changed="3 of 9 files vs bench/reference.json"), "p: outputs_changed 3"),
    (0, _stdout(1.0, changed="n/a: no reference for seed 40 (9 files)"), "p: outputs_changed n/a:"),
    (0, _stdout(1.0).replace("metric peak_rss_mb", "metric other"), "p: no metric peak_rss_mb"),
    (0, "Traceback (most recent call last):\n", "p: no result line"),
    (0, "", "p: no result line"),
], ids=["exit", "failed", "changed", "no_reference", "missing_metric", "no_json", "empty"])
def test_parse_run_stops_on_a_bad_run(code, stdout, message):
    with pytest.raises(bench_pairs.RunError) as info:
        bench_pairs.parse_run("p", code, stdout, METRICS)
    assert str(info.value) == message


def test_summary_gives_medians_quartiles_and_pairs_lower():
    parent = [{"wall_rel": v, "peak_rss_mb": 40.0} for v in (130.0, 140.0, 120.0, 150.0, 135.0)]
    change = [{"wall_rel": v, "peak_rss_mb": m}
              for v, m in ((120.0, 40.0), (125.0, 40.5), (121.0, 39.0), (118.0, 40.0), (119.0, 40.0))]
    lines = bench_pairs.summarize({"parent": parent, "change": change}, METRICS)
    assert lines == [
        "wall_rel: parent 135 [130, 140] IQR 10, change 120 [119, 121] IQR 2, "
        "median -11.1%, change lower in 4/5 pairs; within bound 0.2",
        "peak_rss_mb: parent 40 [40, 40] IQR 0, change 40 [40, 40] IQR 0, "
        "median +0.0%, change lower in 1/5 pairs; within bound 0.1",
    ]


def test_summary_of_one_pair():
    lines = bench_pairs.summarize({"parent": [{"wall_rel": 2.0}], "change": [{"wall_rel": 1.0}]},
                                  ["wall_rel"])
    assert lines == ["wall_rel: parent 2 [2, 2] IQR 0, change 1 [1, 1] IQR 0, "
                     "median -50.0%, change lower in 1/1 pairs; within bound 0.2"]


def test_only_end_to_end_metrics_get_a_verdict():
    runs = {"parent": [{"ms_per_step.erm": 0.3}], "change": [{"ms_per_step.erm": 0.6}]}
    assert bench_pairs.summarize(runs, ["ms_per_step.erm"]) == [
        "ms_per_step.erm: parent 0.3 [0.3, 0.3] IQR 0, change 0.6 [0.6, 0.6] IQR 0, "
        "median +100.0%, change lower in 0/1 pairs"]


# Ten fabricated runs a side; a bound is relative to the parent's median.
# The parent reads 0.132 [0.114, 0.164], as ratio_grid's setup_s once did.
_PARENT = [0.1, 0.11, 0.114, 0.114, 0.13, 0.134, 0.164, 0.164, 0.17, 0.18]


@pytest.mark.parametrize("parent, change, bound, better, expected", [
    # the median 31% worse against a 0.25 bound, however wide the parent's spread
    (_PARENT, [0.173] * 10, 0.25, "lower", "worse than bound 0.25"),
    # 20% better, but the parent's IQR is over a quarter of its median and two change
    # runs read above the parent's fastest
    (_PARENT, [0.1056] * 8 + [0.2, 0.2], 0.25, "lower",
     "unresolved: parent IQR 0.05 over 0.25 of its median"),
    # as wide a parent, but every change run beats every parent run
    (_PARENT, [0.09] * 10, 0.25, "lower", "within bound 0.25"),
    # a narrow parent and a change 10% worse: inside a 0.2 bound
    ([100.0] * 10, [110.0] * 10, 0.2, "lower", "within bound 0.2"),
    ([100.0] * 10, [121.0] * 10, 0.2, "lower", "worse than bound 0.2"),
    # where higher is better, lower is worse
    ([100.0] * 10, [79.0] * 10, 0.2, "higher", "worse than bound 0.2"),
    ([100.0] * 10, [121.0] * 10, 0.2, "higher", "within bound 0.2"),
], ids=["worse", "unresolved", "beats_every_run", "within", "worse_narrow", "higher_worse",
        "higher_within"])
def test_verdict_against_the_bound(parent, change, bound, better, expected):
    assert bench_pairs.verdict(parent, change, bound, better) == expected



def _checkout(path):
    (path / "bench").mkdir(parents=True)
    (path / "bench" / "run.py").write_text("")
    return path


def test_checkouts_at_paths_of_different_length_are_refused(tmp_path):
    a, b, c = _checkout(tmp_path / "aa"), _checkout(tmp_path / "bb"), _checkout(tmp_path / "ccc")
    assert bench_pairs.check_checkouts(a, b) == (a.resolve(), b.resolve())
    with pytest.raises(ValueError, match="differ in length"):
        bench_pairs.check_checkouts(a, c)
    with pytest.raises(ValueError, match="has no bench/run.py"):
        bench_pairs.check_checkouts(a, tmp_path)


def test_pairs_alternate_and_stop_at_the_first_bad_run(monkeypatch, tmp_path, capsys):
    parent, change = _checkout(tmp_path / "pa"), _checkout(tmp_path / "ch")
    calls = []

    def fake_run_bench(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        return 0, _stdout(100.0 if checkout.name == "pa" else 90.0 + len(calls),
                          failed=int(len(calls) == 7))

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run_bench)
    argv = [str(parent), str(change), "--workload", "ratio_grid", "--pairs", "3",
            "--seconds", "2", "--metrics", "wall_rel"]
    assert bench_pairs.main(argv + ["--seeds", "5"]) == 0
    assert calls == [(name, "ratio_grid", 5, 2.0) for name in ("pa", "ch", "ch", "pa", "pa", "ch")]
    out = capsys.readouterr().out
    assert out == ("ratio_grid seed 5, 3 pairs of 2 s:\n"
                   "  wall_rel: parent 100 [100, 100] IQR 0, change 93 [92.5, 94.5] IQR 2, "
                   "median -7.0%, change lower in 3/3 pairs; within bound 0.2\n")

    # the seventh run, the second seed's first, fails an operation
    calls.clear()
    assert bench_pairs.main(argv + ["--seeds", "5", "6"]) == 1
    assert len(calls) == 7
    captured = capsys.readouterr()
    assert "seed 6" not in captured.out
    assert captured.err.endswith("stopped: parent ratio_grid seed 6 pair 0: 1 failed operations\n")


@pytest.mark.parametrize("declared", [
    None,  # the repository's own
    {"command": ["python3", "bench/run.py"], "run_seconds": 30,
     "workloads": [{"name": "toy_sweep"}, {"name": "a_new_workload"}],
     "end_to_end": [{"name": "wall_rel", "bound": 0.2, "better": "lower"},
                    {"name": "a_new_metric", "bound": 0.1, "better": "higher"}]},
], ids=["repository", "added"])
def test_workloads_and_default_metrics_come_from_benchmark_json(monkeypatch, tmp_path, capsys,
                                                                declared):
    tool, benchmark = bench_pairs, declared
    if benchmark is not None:
        # a copy of the tool beside a BENCHMARK.json that lists one more workload and metric
        (tmp_path / "tools").mkdir()
        (tmp_path / "tools" / "bench_pairs.py").write_bytes(_PATH.read_bytes())
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(benchmark))
        tool = _load_tool(tmp_path / "tools" / "bench_pairs.py")
    else:
        benchmark = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in benchmark["end_to_end"]]
    parent, change = _checkout(tmp_path / "pa"), _checkout(tmp_path / "ch")
    seen = []

    def fake_run_pairs(checkouts, workload, seed, pairs, seconds, metrics):
        seen.append((workload, metrics))
        return {side: [dict.fromkeys(metrics, 1.0)] for side in tool.SIDES}

    monkeypatch.setattr(tool, "run_pairs", fake_run_pairs)
    workloads = [w["name"] for w in benchmark["workloads"]]
    for workload in workloads:
        assert tool.main([str(parent), str(change), "--workload", workload]) == 0
    assert seen == [(workload, end_to_end) for workload in workloads]
    with pytest.raises(SystemExit) as info:
        tool.main([str(parent), str(change), "--workload", "no_such_workload"])
    assert info.value.code == 2
    assert "invalid choice: 'no_such_workload'" in capsys.readouterr().err


def test_runs_use_benchmark_json_command_and_run_seconds(monkeypatch, tmp_path, capsys):
    # a copy of the tool beside a BENCHMARK.json with another command and run length
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "bench_pairs.py").write_bytes(_PATH.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "bench/other.py", "--quiet"], "run_seconds": 7,
        "workloads": [{"name": "probe"}],
        "end_to_end": [{"name": "wall_rel", "bound": 0.2, "better": "lower"}],
    }))
    tool = _load_tool(tmp_path / "tools" / "bench_pairs.py")
    parent, change = _checkout(tmp_path / "pa"), _checkout(tmp_path / "ch")
    started = []

    def fake_run(cmd, *, cwd, capture_output, text):
        started.append((cmd, cwd.name))
        return subprocess.CompletedProcess(cmd, 0, _stdout(100.0), "")

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    assert tool.main([str(parent), str(change), "--workload", "probe", "--pairs", "1",
                      "--metrics", "wall_rel"]) == 0
    cmd = ["python3", "bench/other.py", "--quiet", "--workload", "probe", "--seed", "0",
           "--seconds", "7.0"]
    assert started == [(cmd, "pa"), (cmd, "ch")]
    assert capsys.readouterr().out.startswith("probe seed 0, 1 pairs of 7 s:\n")
