"""Run bench/run.py in two checkouts in alternating pairs and summarise each metric.

    python3 tools/bench_pairs.py PARENT CHANGE --workload ratio_grid --seeds 0 11 \
        --pairs 10 --seconds 30 --metrics wall_rel setup_s peak_rss_mb ms_per_step.erm

PARENT and CHANGE are checkouts of the repository. For each seed, pair i
runs BENCHMARK.json's command (`python3 bench/run.py`) with
`--workload W --seed S --seconds T` once in each, with the checkout as
working directory: the parent first in even pairs, the change first in
odd ones. T defaults to BENCHMARK.json's run_seconds. The command is
BENCHMARK.json's, and not this interpreter's path, because the launch
environment moves peak_rss_mb through the heap layout. Each checkout's
runs write their records to its own .bench_work.

Checkouts whose resolved paths differ in length are refused: the path's
length alone moves toy_sweep's wall_rel by several percent and probe's
peak_rss_mb (see CHANGES.md). The script stops at the first run that
exits non-zero, fails an operation, or reports outputs_changed other
than 0 (seeds without a reference report n/a, which also stops it).

The command, the run length, the workload choices and the default
metrics (the end-to-end ones) are read from the BENCHMARK.json beside
tools/. Per seed and listed metric it prints the median and quartiles
of each side, the median's relative change, and in how many pairs the
change read lower. An end-to-end
metric also gets a verdict against its BENCHMARK.json bound and
direction: "worse than bound" when the change's median is worse than
the parent's by more than the bound (relative to the parent's median);
else "unresolved" when the parent's IQR over its median exceeds the
bound and not every change run beats every parent run; else "within
bound". Exit code 0 when every run passed, 1 when one stopped the
script, 2 for bad arguments.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")

# The command, the run length, the workload names, the end-to-end metric names and each
# one's (bound, better), from the BENCHMARK.json beside tools/
_BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
COMMAND = _BENCHMARK["command"]
RUN_SECONDS = float(_BENCHMARK["run_seconds"])
WORKLOADS = tuple(w["name"] for w in _BENCHMARK["workloads"])
END_TO_END = [m["name"] for m in _BENCHMARK["end_to_end"]]
BOUNDS = {m["name"]: (m["bound"], m["better"]) for m in _BENCHMARK["end_to_end"]}


class RunError(Exception):
    """A run that exited non-zero, failed an operation, changed an output or lacks a metric."""


def check_checkouts(parent, change) -> tuple[Path, Path]:
    """The two resolved checkout paths, once both hold bench/run.py and their lengths match."""
    paths = Path(parent).resolve(), Path(change).resolve()
    for path in paths:
        if not (path / "bench" / "run.py").is_file():
            raise ValueError(f"{path} has no bench/run.py")
    if len(str(paths[0])) != len(str(paths[1])):
        raise ValueError(f"checkout paths differ in length ({len(str(paths[0]))} and "
                         f"{len(str(paths[1]))} characters): {paths[0]} and {paths[1]}")
    return paths


def parse_run(label: str, returncode: int, stdout: str, metrics) -> dict[str, float]:
    """The listed metrics of one run's stdout, once the run is known to have passed.

    Raises RunError for a non-zero exit, failed operations, outputs_changed
    other than 0, or a listed metric the run did not print.
    """
    if returncode != 0:
        raise RunError(f"{label}: exit code {returncode}")
    values, changed = {}, None
    lines = stdout.strip().splitlines()
    for line in lines:
        if line.startswith("metric "):
            name, _, rest = line[len("metric "):].partition(" = ")
            values[name] = float(rest.split()[0])
        elif line.startswith("outputs_changed "):
            changed = line.split()[1]
    try:
        failed = json.loads(lines[-1])["failed"]
    except (IndexError, ValueError, KeyError, TypeError):
        raise RunError(f"{label}: no result line") from None
    if failed != 0:
        raise RunError(f"{label}: {failed} failed operations")
    if changed != "0":
        raise RunError(f"{label}: outputs_changed {changed}")
    missing = [name for name in metrics if name not in values]
    if missing:
        raise RunError(f"{label}: no metric {', '.join(missing)}")
    return {name: values[name] for name in metrics}


def _quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list[float], change: list[float], bound: float, better: str) -> str:
    """Whether the change's runs hold a metric within its relative bound; see the module doc."""
    sign = 1.0 if better == "lower" else -1.0
    p25, p50, p75 = _quartiles(parent)
    if sign * (statistics.median(change) - p50) > bound * abs(p50):
        return f"worse than bound {bound:g}"
    beats_every_run = max(sign * c for c in change) < min(sign * p for p in parent)
    if p75 - p25 > bound * abs(p50) and not beats_every_run:
        return f"unresolved: parent IQR {p75 - p25:.3g} over {bound:g} of its median"
    return f"within bound {bound:g}"


def summarize(runs: dict[str, list[dict[str, float]]], metrics) -> list[str]:
    """One line per metric: each side's median [q25, q75], the change, and pairs lower.

    An end-to-end metric's line ends with its verdict. runs["parent"][i]
    and runs["change"][i] are pair i's metrics.
    """
    lines = []
    pairs = len(runs["parent"])
    for name in metrics:
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        p25, p50, p75 = _quartiles(parent)
        c25, c50, c75 = _quartiles(change)
        lower = sum(c < p for p, c in zip(parent, change))
        rel = f"{(c50 / p50 - 1.0) * 100.0:+.1f}%" if p50 else "n/a"
        line = (f"{name}: parent {p50:.6g} [{p25:.6g}, {p75:.6g}] IQR {p75 - p25:.3g}, "
                f"change {c50:.6g} [{c25:.6g}, {c75:.6g}] IQR {c75 - c25:.3g}, "
                f"median {rel}, change lower in {lower}/{pairs} pairs")
        if name in BOUNDS:
            line += f"; {verdict(parent, change, *BOUNDS[name])}"
        lines.append(line)
    return lines


def run_bench(checkout: Path, workload: str, seed: int, seconds: float):
    """(exit code, stdout) of one run of BENCHMARK.json's command in checkout."""
    cmd = COMMAND + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    return proc.returncode, proc.stdout


def run_pairs(checkouts: dict[str, Path], workload: str, seed: int, pairs: int, seconds: float,
              metrics) -> dict[str, list[dict[str, float]]]:
    """Every pair's metrics for one seed, alternating which side runs first."""
    runs = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            label = f"{side} {workload} seed {seed} pair {i}"
            code, stdout = run_bench(checkouts[side], workload, seed, seconds)
            runs[side].append(parse_run(label, code, stdout, metrics))
            print(f"{label}: " + ", ".join(f"{k} {v:.6g}" for k, v in runs[side][-1].items()),
                  file=sys.stderr)
    return runs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--metrics", nargs="+", default=END_TO_END)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    try:
        checkouts = dict(zip(SIDES, check_checkouts(args.parent, args.change)))
    except ValueError as exc:
        p.error(str(exc))
    for seed in args.seeds:
        try:
            runs = run_pairs(checkouts, args.workload, seed, args.pairs, args.seconds, args.metrics)
        except RunError as exc:
            print(f"stopped: {exc}", file=sys.stderr)
            return 1
        print(f"{args.workload} seed {seed}, {args.pairs} pairs of {args.seconds:g} s:")
        for line in summarize(runs, args.metrics):
            print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
