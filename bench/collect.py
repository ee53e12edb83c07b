"""Run the benchmark over several seeds and summarize the spread.

    python3 bench/collect.py --seeds 0-9 [--workloads toy_sweep,probe] [--label NAME]

Runs ``bench/run.py`` once per (workload, seed), one process at a time,
with the settings in BENCHMARK.json. For each end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
quartile spread as a share of the median next to the metric's bound.
With ``--label`` the summary, machine details and every run's last line
are written to ``bench/BENCH_<label>.json``; two such files from the
same machine are the before/after pair a performance claim compares.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_work" / "results" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"seed": seed, "result": last, "metrics": record["metrics"],
            "outputs_changed": record["outputs_changed"], "environment": record["environment"]}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else float("nan")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--label", default=None)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = {"spec": spec, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in names:
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(workload, seed, spec["run_seconds"], args.trace))
            r = runs[-1]["result"]
            print(f"{workload} seed {seed}: correct {r['correct']} failed {r['failed']}/{r['attempted']} "
                  f"outputs_changed {runs[-1]['outputs_changed']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)
            ok &= r["correct"]
        summary = {}
        # Every metric the runs recorded, including the workload-specific ones.
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name] for run in runs]
            if len(values) >= 2 and all(isinstance(v, (int, float)) for v in values):
                summary[name] = summarize(values)
        for m in listed:
            s = summary[m["name"]]
            bound = m.get("bound")
            flag = "" if bound is None else f" bound {bound:.2f} {'ok' if s['spread'] <= bound / 3 else 'WIDE'}"
            print(f"  {workload} {m['name']}: median {s['median']:.5g} {m['unit']} "
                  f"q1 {s['q1']:.5g} q3 {s['q3']:.5g} spread {s['spread']:.3f}{flag}")
        out["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.label:
        path = ROOT / "bench" / f"BENCH_{args.label}.json"
        path.write_text(json.dumps(out, indent=1) + "\n")
        print(f"wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
