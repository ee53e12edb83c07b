"""The three benchmark workloads and the checks on their outputs.

A workload has a set-up that may be repeated (it rebuilds the same
inputs from the workload seed), a cheap warm-up that runs the same code
paths once, and a fixed list of operations that make up one timed
round. Each operation writes into its own directory; after the round the
files there are checked for sanity and digested.

Every input is generated from the workload seed: the skewtrain trial
seeds, the synthetic mixtures and the CSV files all derive from it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BOUNDS = (-5.0, 5.0, -5.0, 5.0)
RATIOS = [1.0, 0.5, 0.2, 0.1, 0.05]
# The VICReg term diverges at the default lr0 of 0.1, and at 1e-3 and 2e-3
# it still diverges in the first epoch on some trial seeds (see README.md).
JOINT_SSL_LR0 = 5e-4


@dataclass
class Op:
    """One timed operation of a round.

    ``run`` writes its outputs under the directory it is given; ``check``
    reads them back and returns a list of problems (empty when sane).
    ``metric`` names the per-call end-to-end metric the op feeds, if any.
    """

    name: str
    run: Callable[[Path], None]
    check: Callable[[Path], list[str]]
    metric: str | None = None


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _unit(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and 0.0 <= x <= 1.0


def _nonneg(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x >= 0.0


class Workload:
    name = ""
    why = ""

    def __init__(self, sk, seed: int, smoke: bool):
        self.sk = sk
        self.seed = seed
        self.smoke = smoke
        self.tracer = None  # set by the runner for traced rounds

    def cli(self, *argv) -> None:
        """Run one skewtrain subcommand in-process; non-zero exit raises."""
        argv = [str(a) for a in argv]
        span = self.tracer.span(f"cli.main.{argv[0]}") if self.tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(io.StringIO()):
            code = self.sk.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"skewtrain {argv[0]} exited with code {code}")

    def setup(self, work: Path) -> None:
        """Build the inputs in ``work``; repeatable and deterministic."""

    def warmup(self, work: Path) -> None:
        """Run the hot code paths once, outside the timed rounds."""

    def ops(self, work: Path) -> list[Op]:
        raise NotImplementedError

    # -- shared pieces ----------------------------------------------------

    def toy_config(self, seeds: list[int], epochs: int) -> dict:
        """The paper's toy problem: 5 classes on a circle, 1:100 curated."""
        per_class, test_per_class, ratio, hidden = (
            (100, 40, 0.1, [8, 8]) if self.smoke else (500, 200, 0.01, [64, 64])
        )
        return {
            "data": {"classes": 5, "train_per_class": per_class,
                     "test_per_class": test_per_class, "sigma": 0.5},
            "train": {"lr0": 0.1, "weight_decay": 2e-4, "epochs": epochs,
                      "warmup_epochs": min(2, epochs - 1), "batch_size": 128},
            "hidden": hidden,
            "r_train": ratio,
            "seeds": seeds,
        }

    def preset_config(self, doc: dict, preset: str, lr0: float | None = None) -> dict:
        h = self.sk.harness
        cfg = h.apply_method(h.config_from_dict(doc), preset)
        if lr0 is not None:
            cfg.train.lr0 = lr0
        return h.config_to_dict(cfg)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_seed_json(path: Path) -> list[str]:
    doc = json.loads(path.read_text())
    problems = []
    m, c = doc["metrics"], doc["collapse"]
    for key in ("overall", "minority", "majority"):
        if not _unit(m.get(key)):
            problems.append(f"{path.name}: metrics.{key} = {m.get(key)!r}")
    if not _unit(doc.get("final_train_accuracy")):
        problems.append(f"{path.name}: final_train_accuracy = {doc.get('final_train_accuracy')!r}")
    if not all(_unit(a) for a in doc["train_acc_trajectory"]):
        problems.append(f"{path.name}: train accuracy outside [0, 1]")
    if not _nonneg(c.get("mean_cdnv")):
        problems.append(f"{path.name}: collapse.mean_cdnv = {c.get('mean_cdnv')!r}")
    for key in ("ncc_agreement", "ncc_accuracy"):
        if not _unit(c.get(key)):
            problems.append(f"{path.name}: collapse.{key} = {c.get(key)!r}")
    return problems


def check_collapse_doc(doc: dict, label: str) -> list[str]:
    problems = []
    if not _nonneg(doc.get("mean_cdnv")):
        problems.append(f"{label}: mean_cdnv = {doc.get('mean_cdnv')!r}")
    for key in ("ncc_agreement", "ncc_accuracy"):
        if not _unit(doc.get(key)):
            problems.append(f"{label}: {key} = {doc.get(key)!r}")
    return problems


def check_run_dir(out: Path, n_configs: int, n_seeds: int) -> list[str]:
    """Seed JSON, checkpoints and aggregate.json for every config hash."""
    problems = []
    run_dirs = sorted(p for p in out.iterdir() if p.is_dir())
    if len(run_dirs) != n_configs:
        return [f"{out.name}: expected {n_configs} config directories, found {len(run_dirs)}"]
    for run_dir in run_dirs:
        seeds = sorted(run_dir.glob("seed_*.json"))
        ckpts = sorted(run_dir.glob("checkpoint_seed_*.json"))
        if len(seeds) != n_seeds or len(ckpts) != n_seeds:
            problems.append(f"{run_dir.name}: {len(seeds)} seed files, {len(ckpts)} checkpoints")
        for path in seeds:
            problems += check_seed_json(path)
        agg = json.loads((run_dir / "aggregate.json").read_text())["aggregates"]
        for key in ("overall", "minority", "majority", "final_train_accuracy", "ncc_agreement"):
            if not _unit(agg[key]["mean"]) or not _nonneg(agg[key]["stderr"]):
                problems.append(f"{run_dir.name}/aggregate.json: {key} = {agg[key]}")
    return problems


# ---------------------------------------------------------------------------
# toy_sweep
# ---------------------------------------------------------------------------


class ToySweep(Workload):
    name = "toy_sweep"
    why = ("all four step shapes on the paper's toy problem through the CLI; "
           "writes seed JSON and checkpoints; 8 independent (config, seed) trials")
    SWEEP = ["erm", "resample", "sam_a_smoothed"]

    def __init__(self, sk, seed, smoke):
        super().__init__(sk, seed, smoke)
        n = 1 if smoke else 2
        self.seeds = [seed * n + i for i in range(n)]
        self.epochs = 1 if smoke else 10

    def _write_configs(self, where: Path, seeds, epochs) -> tuple[Path, Path]:
        base = self.toy_config(seeds, epochs)
        sweep_cfg = write_json(where / "toy.json", base)
        joint_cfg = write_json(where / "joint_ssl.json",
                               self.preset_config(base, "joint_ssl", JOINT_SSL_LR0))
        return sweep_cfg, joint_cfg

    def setup(self, work):
        self.sweep_cfg, self.joint_cfg = self._write_configs(
            fresh_dir(work / "inputs"), self.seeds, self.epochs
        )

    def warmup(self, work):
        # Three epochs, so the first one runs at the warm-up learning rate.
        epochs = 1 if self.smoke else 3
        sweep_cfg, joint_cfg = self._write_configs(fresh_dir(work / "warmup"), self.seeds[:1], epochs)
        self.cli("sweep", "--config", sweep_cfg, "--out", work / "warmup" / "sweep",
                 "--axis", "method", "--values", ",".join(self.SWEEP))
        self.cli("train", "--config", joint_cfg, "--out", work / "warmup" / "joint_ssl")

    def ops(self, work):
        n_seeds = len(self.seeds)

        def sweep(out):
            self.cli("sweep", "--config", self.sweep_cfg, "--out", out,
                     "--axis", "method", "--values", ",".join(self.SWEEP))

        def check_sweep(out):
            problems = check_run_dir(out, len(self.SWEEP), n_seeds)
            doc = json.loads((out / "sweep_method.json").read_text())
            if [r["value"] for r in doc["rows"]] != self.SWEEP:
                problems.append("sweep_method.json: rows do not follow the sweep values")
            for row in doc["rows"]:
                imp = row["percent_improvement"]
                if not (isinstance(imp, float) and math.isfinite(imp)):
                    problems.append(f"sweep_method.json: {row['value']} improvement {imp!r}")
                if row["value"] == "erm" and imp != 0.0:
                    problems.append("sweep_method.json: baseline improvement is not 0")
            lines = (out / "sweep_method.csv").read_text().splitlines()
            if len(lines) != 1 + len(self.SWEEP):
                problems.append(f"sweep_method.csv: {len(lines)} lines")
            return problems

        def train_joint(out):
            self.cli("train", "--config", self.joint_cfg, "--out", out)

        return [
            Op("sweep", sweep, check_sweep),
            Op("train_joint_ssl", train_joint, lambda out: check_run_dir(out, 1, n_seeds)),
        ]


# ---------------------------------------------------------------------------
# ratio_grid
# ---------------------------------------------------------------------------


class RatioGrid(Workload):
    name = "ratio_grid"
    why = ("criterion 8's binary 5x5 ratio grid through harness.run_ratio_grid: "
           "tape steps on a 16-unit model, 10k-row predicts, no SAM or checkpoints")

    def __init__(self, sk, seed, smoke):
        super().__init__(sk, seed, smoke)
        self.ratios = [1.0, 0.5] if smoke else RATIOS
        # Criterion 8 bounds the misalignment averaged over seeds; one seed
        # alone exceeds it now and then (trial seed 54 of 0-99 at 1.2 steps).
        self.seeds = [seed] if smoke else [2 * seed, 2 * seed + 1]

    def config(self, epochs: int, per_class: int, test_per_class: int):
        return self.sk.harness.config_from_dict({
            "data": {"classes": 2, "train_per_class": per_class,
                     "test_per_class": test_per_class, "sigma": 2.0},
            "train": {"lr0": 0.1, "weight_decay": 2e-4, "epochs": epochs,
                      "warmup_epochs": min(3, epochs - 1), "batch_size": 128},
            "hidden": [16],
            "seeds": self.seeds,
        })

    def setup(self, work):
        self.cfg = self.config(1, 200, 100) if self.smoke else self.config(25, 5000, 2000)

    def warmup(self, work):
        self.sk.harness.run_ratio_grid(self.config(1, 200, 100), [1.0, 0.5], [1.0, 0.5],
                                       out_dir=fresh_dir(work / "warmup"))

    def ops(self, work):
        def grid(out):
            self.sk.harness.run_ratio_grid(self.cfg, self.ratios, self.ratios, out_dir=out)

        def check(out):
            doc = json.loads((out / "ratio_grid.json").read_text())
            problems = []
            cells = doc["mean_grid"]
            if len(cells) != len(self.ratios) ** 2:
                problems.append(f"ratio_grid.json: {len(cells)} cells")
            if not all(_unit(c["accuracy"]) for c in cells):
                problems.append("ratio_grid.json: accuracy outside [0, 1]")
            steps = doc["misalignment_steps_mean"]
            # Criterion 8: the best training ratio is within one grid step.
            if not (_nonneg(steps) and steps <= 1.0):
                problems.append(f"ratio_grid.json: misalignment {steps!r} grid steps > 1")
            return problems

        return [Op("ratio_grid", grid, check)]


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------


class Probe(Workload):
    name = "probe"
    why = ("boundary grid, minority margins, collapse and curation on trained "
           "checkpoints and CSVs; no training and no tape in the timed section")
    PRESETS = ("erm", "sam_a")

    def __init__(self, sk, seed, smoke):
        super().__init__(sk, seed, smoke)
        self.resolution = 20 if smoke else 200
        self.curate_rows_per_class = 200 if smoke else 8000
        self.epochs = 2 if smoke else 20

    def setup(self, work):
        sk = self.sk
        inputs = fresh_dir(work / "inputs")
        self.checkpoints, self.grids, self.points = {}, {}, {}
        for preset in self.PRESETS:
            doc = self.preset_config(self.toy_config([self.seed], self.epochs), preset)
            out = inputs / preset
            self.cli("train", "--config", write_json(inputs / f"{preset}.json", doc), "--out", out)
            (ckpt,) = out.glob(f"*/checkpoint_seed_{self.seed}.json")
            self.checkpoints[preset] = ckpt
            # Criterion 7's margin inputs: the EMA model's grid and the
            # minority points of the split it was trained on.
            named, meta = sk.models.load_checkpoint(ckpt)
            ema = {k[len("ema."):]: v for k, v in named.items() if k.startswith("ema.mlp.")}
            mlp = sk.models.named_to_mlp(ema, meta["mlp_sizes"])
            self.grids[preset] = sk.diagnostics.boundary_grid(mlp, BOUNDS, self.resolution)
            cfg = sk.harness.config_from_dict(doc)
            train_pool, test_pool = sk.harness.build_pools(cfg, self.seed)
            split = sk.harness.curate_train_split(cfg, train_pool, self.seed)
            minority, _ = sk.diagnostics.minority_majority_split(sk.data.class_profile(split))
            self.points[preset] = split.X[sk.np.isin(split.y, minority)]
        # The collapse CSV is the toy test pool; the curation CSV is a
        # balanced 5-class mixture of tens of thousands of rows.
        self.collapse_csv = inputs / "collapse.csv"
        sk.data.save_csv(self.collapse_csv, test_pool)
        self.full_csv = inputs / "full.csv"
        full = sk.data.gen_gaussian_mixture(5, self.curate_rows_per_class, sigma=0.5, seed=self.seed)
        sk.data.save_csv(self.full_csv, full)

    def warmup(self, work):
        out = fresh_dir(work / "warmup")
        for op in self.ops(work):
            op.run(fresh_dir(out / op.name))

    def ops(self, work):
        ops = []
        for preset in self.PRESETS:
            ckpt = self.checkpoints[preset]

            def boundary(out, ckpt=ckpt):
                self.cli("boundary", "--checkpoint", ckpt, "--resolution", self.resolution,
                         f"--bounds={','.join(str(b) for b in BOUNDS)}", "--out", out / "grid.csv")

            def margin(out, preset=preset):
                report = self.sk.diagnostics.minority_margin(self.grids[preset], self.points[preset])
                write_json(out / "margins.json", report.to_dict())

            def collapse(out, ckpt=ckpt):
                self.cli("collapse", "--checkpoint", ckpt, "--data", self.collapse_csv,
                         "--out", out / "collapse.json")

            ops += [
                Op(f"boundary.{preset}", boundary, self.check_grid, "boundary_s"),
                Op(f"margin.{preset}", margin, check_margins, "margin_s"),
                Op(f"collapse.{preset}", collapse,
                   lambda out: check_collapse_doc(json.loads((out / "collapse.json").read_text()),
                                                  "collapse.json"),
                   "collapse_s"),
            ]

        def curate(out):
            self.cli("curate", "--in", self.full_csv, "--out", out / "curated.csv",
                     "--ratio", 0.01, "--seed", self.seed)

        ops.append(Op("curate", curate, self.check_curated, "curate_s"))
        return ops

    def check_grid(self, out: Path) -> list[str]:
        n_rows, labels, probs_ok = 0, set(), True
        with open(out / "grid.csv", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                n_rows += 1
                labels.add(int(row[2]))
                probs_ok &= 0.2 - 1e-12 <= float(row[3]) <= 1.0
        problems = []
        if n_rows != self.resolution ** 2:
            problems.append(f"grid.csv: {n_rows} rows")
        if not labels <= set(range(5)):
            problems.append(f"grid.csv: labels {sorted(labels)}")
        if not probs_ok:
            problems.append("grid.csv: max_prob outside [1/K, 1]")
        return problems

    def check_curated(self, out: Path) -> list[str]:
        data = self.sk.data
        curated = data.load_csv(out / "curated.csv", "label")
        counts = self.sk.np.bincount(curated.y, minlength=5).tolist()
        want = data.exponential_counts(self.curate_rows_per_class, 0.01, 5).tolist()
        return [] if counts == want else [f"curated.csv: class counts {counts}, want {want}"]


def check_margins(out: Path) -> list[str]:
    doc = json.loads((out / "margins.json").read_text())
    if doc["margins"] and all(_nonneg(m) for m in doc["margins"]) and _nonneg(doc["median"]):
        return []
    return [f"margins.json: median {doc['median']!r}, {len(doc['margins'])} margins"]


WORKLOADS = {w.name: w for w in (ToySweep, RatioGrid, Probe)}
