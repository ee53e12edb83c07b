"""skewtrain benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload toy_sweep --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark imports skewtrain from
that checkout's ``src/`` and nowhere else, builds its inputs from
``--seed``, repeats the workload's round of operations for ``--seconds``,
checks every output, and prints one JSON object as the last line of
stdout. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics.
Human-readable lines (every metric by name and unit, the per-layer
table) come before it, and a full record goes to
``.bench_work/results/``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
import traceback
from contextlib import ExitStack
from pathlib import Path

# BLAS threads must be fixed before numpy is first imported.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_SECONDS = 30
SETUP_REPEATS = 3
REFERENCE = BENCH_DIR / "reference.json"

# Metrics listed in BENCHMARK.json. Every workload reports each of them, so
# workload-specific metrics (ms per step per preset, per-call probe times)
# are printed and recorded but not listed; see README.md. On a shared
# 2-core machine the median round time moved by up to a third between runs
# of the same code, so the listed round time is wall_rel (see Segments).
# wall_s is printed.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_rel", "unit": "x", "better": "lower", "bound": 0.2},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]
PER_LAYER = [
    {"name": "trace.wall_s", "unit": "s", "better": "lower"},
    {"name": "trace.overhead_s", "unit": "s", "better": "lower"},
    {"name": "trace.attributed_pct", "unit": "%", "better": "higher"},
    {"name": "models.mlp_predict.self_s", "unit": "s", "better": "lower"},
    {"name": "data.curate_exponential.self_s", "unit": "s", "better": "lower"},
    {"name": "autodiff.backward.calls", "unit": "count", "better": "lower"},
    {"name": "autodiff.op_apply.calls", "unit": "count", "better": "lower"},
    {"name": "autodiff.tape_nodes_per_step", "unit": "count", "better": "lower"},
    {"name": "models.mlp_predict.calls", "unit": "count", "better": "lower"},
    {"name": "models.mlp_predict.rows", "unit": "count", "better": "lower"},
    {"name": "models.save_checkpoint.bytes", "unit": "B", "better": "lower"},
    {"name": "diagnostics.BoundaryGrid.to_csv.bytes", "unit": "B", "better": "lower"},
    {"name": "diagnostics.minority_margin.points", "unit": "count", "better": "higher"},
    {"name": "data.curate_exponential.calls", "unit": "count", "better": "lower"},
    {"name": "optim.sam_steps", "unit": "count", "better": "higher"},
    {"name": "optim.ascent_skipped", "unit": "count", "better": "lower"},
    {"name": "harness.steps", "unit": "count", "better": "higher"},
    {"name": "harness.trials", "unit": "count", "better": "higher"},
]
# Printed and recorded with --trace 0 on the workloads that run them.
WORKLOAD_METRICS = {
    "toy_sweep": [f"ms_per_step.{p}" for p in ("erm", "resample", "sam_a_smoothed", "joint_ssl")],
    "ratio_grid": ["ms_per_step.erm"],
    "probe": ["boundary_s", "margin_s", "collapse_s", "curate_s"],
}
UNITS = {"setup_s": "s", "wall_s": "s", "wall_rel": "x", "peak_rss_mb": "MB", "error_rate": "ratio"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.startswith("ms_per_step."):
        return "ms"
    return "s" if name.endswith("_s") else "count"


def spec() -> dict:
    """The BENCHMARK.json document, built from the lists above."""
    from workloads import WORKLOADS

    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w.why} for n, w in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def write_spec() -> Path:
    path = ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(spec(), indent=2) + "\n")
    return path


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("toy_sweep", "ratio_grid", "probe"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, one set-up, for the bench tests")
    p.add_argument("--work-dir", default=None, help="default: .bench_work in the checkout")
    p.add_argument("--record-reference", action="store_true",
                   help="store this run's output digests as the reference for its seed")
    p.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = p.parse_args(argv)
    if not args.write_spec and args.workload is None:
        p.error("--workload is required")
    return args


def import_skewtrain():
    """Import skewtrain from this checkout's src/ only; returns (namespace, seconds)."""
    src = ROOT / "src"
    if not (src / "skewtrain" / "__init__.py").is_file():
        raise SystemExit(f"bench: no skewtrain sources under {src}; run from a full checkout")
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy as np

    from skewtrain import autodiff, cli, data, diagnostics, harness, losses, models, optim

    import_s = time.perf_counter() - t0
    loaded = Path(harness.__file__).resolve()
    if src.resolve() not in loaded.parents:
        raise SystemExit(f"bench: imported skewtrain from {loaded}, not from {src}")
    from types import SimpleNamespace

    sk = SimpleNamespace(np=np, autodiff=autodiff, cli=cli, data=data, diagnostics=diagnostics,
                         harness=harness, losses=losses, models=models, optim=optim)
    return sk, import_s


def git_rev(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "git_rev": git_rev(ROOT),
    }


def digest_dir(path: Path) -> dict[str, str]:
    return {
        str(f.relative_to(path)): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(path.rglob("*")) if f.is_file()
    }


def calibration_ms(np) -> float:
    """A fixed numpy and Python loop that does not touch skewtrain."""
    a = np.full((128, 64), 0.5)
    w = np.full((64, 64), 0.01)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(400):
        acc += float((a @ w).sum()) + i
    return 1000.0 * (time.perf_counter() - t0)


class Segments:
    """Round time cut at op and trial boundaries, each piece measured
    against the calibration loop timed just before it.

    A change to skewtrain moves the pieces but not the loop, while a busier
    machine slows both. The loop's own time is left out of the round time.
    """

    def __init__(self, np):
        self.np = np
        self.cutting = False  # cut at trials too; off in traced rounds
        self.calibration: list[float] = []  # ms, every loop timed
        self.wall = self.relative = 0.0

    def start(self) -> None:
        self.wall = self.relative = 0.0
        self._calibrate()

    def cut(self) -> None:
        self._close()
        self._calibrate()

    def stop(self) -> None:
        self._close()

    def _calibrate(self) -> None:
        self.calibration.append(calibration_ms(self.np))
        self._t = time.perf_counter()

    def _close(self) -> None:
        piece = time.perf_counter() - self._t
        self.wall += piece
        self.relative += 1000.0 * piece / self.calibration[-1]


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Timed rounds of one workload, with failures and digests per op."""

    def __init__(self, workload, work: Path, segments: Segments):
        self.workload = workload
        self.work = work
        self.segments = segments
        self.attempted = 0
        self.failures: list[str] = []
        self.first_digests: dict[str, dict[str, str]] = {}
        self.op_seconds: dict[str, list[float]] = {}
        self.walls = {False: [], True: []}  # traced? -> round seconds
        self.relative: list[float] = []  # untraced rounds, see Segments

    def round(self, ops, tracer=None) -> None:
        from workloads import fresh_dir

        round_dir = fresh_dir(self.work / "round")
        self.workload.tracer = tracer
        errors: dict[str, str] = {}
        segments = self.segments
        segments.cutting = tracer is None
        segments.start()
        for i, op in enumerate(ops):
            out = fresh_dir(round_dir / op.name)
            if i and segments.cutting:
                segments.cut()
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    op.run(out)
                else:
                    with tracer.span(f"op.{op.name}"):
                        op.run(out)
            except Exception as exc:  # one failed op must not stop the run
                errors[op.name] = f"raised {type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
                if tracer is not None:
                    tracer.unwind()
            if op.metric:
                self.op_seconds.setdefault(op.metric, []).append(time.perf_counter() - t0)
        segments.stop()
        self.walls[tracer is not None].append(segments.wall)
        if tracer is None:
            self.relative.append(segments.relative)
        self.workload.tracer = None

        for op in ops:
            self.attempted += 1
            out = round_dir / op.name
            problems = [errors[op.name]] if op.name in errors else []
            if not problems:
                try:
                    problems = op.check(out)
                except Exception as exc:
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            digests = {f"{op.name}/{k}": v for k, v in digest_dir(out).items()}
            first = self.first_digests.setdefault(op.name, digests)
            if digests != first:
                problems.append("outputs differ from the first round of this run")
            if problems:
                self.failures.append(f"round {len(self.walls[False]) + len(self.walls[True])} "
                                     f"{op.name}: {'; '.join(problems)}")

    def digests(self) -> dict[str, str]:
        merged = {}
        for d in self.first_digests.values():
            merged.update(d)
        return merged


def compare_reference(workload: str, seed: int, digests: dict[str, str], smoke: bool):
    """(outputs_changed, reference_found) against bench/reference.json."""
    if smoke or not REFERENCE.is_file():
        return None, False
    ref = json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))
    if ref is None:
        return None, False
    changed = sum(ref.get(k) != v for k, v in digests.items()) + len(set(ref) - set(digests))
    return changed, True


def record_reference(workload: str, seed: int, digests: dict[str, str]) -> None:
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    doc.setdefault(workload, {})[str(seed)] = digests
    doc[workload] = dict(sorted(doc[workload].items(), key=lambda kv: int(kv[0])))
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def layer_metrics(tracer, run: Run) -> tuple[dict, list]:
    """Per-layer values per traced round (means over traced rounds), and the table."""
    n = len(run.walls[True])
    table = [
        {"layer": layer, "calls": calls / n, "self_s": self_s / n, "total_s": total / n}
        for layer, (calls, total, self_s) in sorted(tracer.stats.items(), key=lambda kv: -kv[1][2])
    ]
    ops = [row for row in table if row["layer"].startswith("op.")]
    wall = statistics.mean(run.walls[True])
    m = {}
    for row in table:
        m[f"{row['layer']}.self_s"] = row["self_s"]
        m[f"{row['layer']}.calls"] = row["calls"]
    m.update({k: v / n for k, v in tracer.counts.items() if k != "autodiff.tape_nodes"})
    steps = tracer.counts.get("harness.steps", 0)
    m["autodiff.tape_nodes_per_step"] = tracer.counts["autodiff.tape_nodes"] / steps if steps else 0.0
    m["trace.wall_s"] = wall
    m["trace.overhead_s"] = statistics.median(run.walls[True]) - statistics.median(run.walls[False])
    m["trace.op_self_s"] = sum(row["self_s"] for row in ops)
    m["trace.outside_spans_s"] = wall - sum(row["total_s"] for row in ops)
    attributed = sum(row["self_s"] for row in table) - m["trace.op_self_s"]
    m["trace.attributed_pct"] = 100.0 * attributed / wall
    return m, table


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_spec:
        sys.path.insert(0, str(BENCH_DIR))
        print(f"wrote {write_spec()}")
        return 0
    t_start = time.perf_counter()
    sk, import_s = import_skewtrain()
    sys.path.insert(0, str(BENCH_DIR))
    from tracing import StepClock, Tracer, install_tracing
    from workloads import WORKLOADS

    work = Path(args.work_dir) if args.work_dir else ROOT / ".bench_work"
    run_dir = work / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_dir = work / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](sk, args.seed, args.smoke)

    # Set-up, warm-up included, is repeated; the last one's inputs are used.
    setup_times = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup(run_dir)
        workload.warmup(run_dir)
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    ops = workload.ops(run_dir)
    segments = Segments(sk.np)
    run = Run(workload, run_dir, segments)
    clock = StepClock(segments)
    tracer = Tracer() if args.trace else None
    t_timed = time.perf_counter()
    with ExitStack() as stack:
        clock.install(stack, sk)
        n = 0
        while n < (2 if args.trace else 1) or time.perf_counter() - t_timed < args.seconds:
            traced = args.trace and n % 2 == 1
            if traced:
                with ExitStack() as tracing:
                    install_tracing(tracing, tracer, sk)
                    run.round(ops, tracer)
            else:
                run.round(ops)
            n += 1
    timed_s = time.perf_counter() - t_timed

    digests = run.digests()
    changed, referenced = compare_reference(args.workload, args.seed, digests, args.smoke)
    if args.record_reference and not run.failures and not args.smoke:
        record_reference(args.workload, args.seed, digests)
    failed = len(run.failures)
    untraced_walls = run.walls[False]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(untraced_walls),
        "wall_rel": statistics.median(run.relative),
        "peak_rss_mb": peak_rss_mb(),
        "error_rate": failed / run.attempted,
    }
    ms = clock.ms_per_step()
    for name in WORKLOAD_METRICS[args.workload]:
        if name.startswith("ms_per_step."):
            metrics[name] = ms.get(name.split(".", 1)[1], float("nan"))
        else:
            metrics[name] = statistics.median(run.op_seconds[name])
    table = []
    if tracer is not None:
        layer_m, table = layer_metrics(tracer, run)
        metrics.update(layer_m)

    env = environment(sk.np)
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in run.failures:
        print(f"FAILED {line}")
    print(f"workload {args.workload} seed {args.seed}: {n} rounds in {timed_s:.1f} s "
          f"(untraced {len(untraced_walls)}, traced {len(run.walls[True])}), "
          f"{run.attempted} ops, {failed} failed")
    cal = segments.calibration
    print(f"calibration loop {statistics.median(cal):.2f} ms (median of {len(cal)}, min {min(cal):.2f})")
    if referenced:
        print(f"outputs_changed {changed} of {len(digests)} files vs bench/reference.json")
    else:
        print(f"outputs_changed n/a: no reference for seed {args.seed} ({len(digests)} files)")
    shown = ["setup_s", "wall_s", "wall_rel", "peak_rss_mb", "error_rate"] + WORKLOAD_METRICS[args.workload]
    for name in shown:
        print(f"metric {name} = {metrics[name]:.6g} {unit_of(name)}")
    if table:
        print("layer                                       calls/round   self_s/round  total_s/round")
        for row in table:
            print(f"  {row['layer']:<42}{row['calls']:>11.1f}{row['self_s']:>14.6f}{row['total_s']:>15.6f}")
        for key in ("trace.wall_s", "trace.overhead_s", "trace.attributed_pct",
                    "trace.op_self_s", "trace.outside_spans_s"):
            print(f"metric {key} = {metrics[key]:.6g} {'%' if key.endswith('pct') else 's'}")
        (results_dir / f"{args.workload}-seed{args.seed}-spans.json").write_text(
            json.dumps({"dropped": tracer.spans_dropped, "spans": tracer.span_records()}) + "\n"
        )

    listed = PER_LAYER if args.trace else END_TO_END
    reported = {}
    for spec in listed:
        value = metrics.get(spec["name"], 0.0)
        reported[spec["name"]] = {"value": value, "unit": spec["unit"]}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "environment": env, "rounds": n, "timed_s": timed_s,
        "round_walls": {"untraced": untraced_walls, "traced": run.walls[True]},
        "setup_times": setup_times, "import_s": import_s, "calibration_ms": segments.calibration,
        "metrics": metrics, "units": {k: unit_of(k) for k in metrics},
        "attempted": run.attempted, "failed": failed, "failures": run.failures,
        "outputs_changed": changed, "outputs": digests, "layers": table,
        "total_s": time.perf_counter() - t_start,
    }
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
