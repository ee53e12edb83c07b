"""The benchmark instruments skewtrain by rebinding module attributes.

bench/tracing.py wraps names such as harness.Tape, harness.backward and
models.op_apply from outside. These tests install its hooks on the real
modules, run one tiny trial or the probe workload's CLI commands
through them and close them again, so a refactor that renames a hooked
name fails here and not only in the benchmark's own, slower smoke
tests. Training builds no tape, so the tape's layers must stay silent
during a trial. bench/run.py and bench/workloads.py read further names
through a namespace of the modules (sk.harness.run_ratio_grid and the
like); a test checks that each of them still resolves. A ratio grid
whose seeds train in lockstep must keep the step clock's cuts and step
counts, and one whose model is too wide to stack must train its seeds
one after another inside that one clocked call. The last tests
run every workload of bench/workloads.py at its smoke size, set-up,
warm-up and one checked round, because the benchmark stops when
anything outside a timed operation raises.
"""

import ast
import importlib
import importlib.util
import math
import sys
import types
from contextlib import ExitStack
from pathlib import Path

import numpy as np
import pytest

from skewtrain import autodiff, cli, data, diagnostics, harness, losses, models, optim
from skewtrain.harness import DataSpec, ExperimentConfig, TrainConfig, apply_method

MODULES = (autodiff, cli, data, diagnostics, harness, losses, models, optim)
BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench(name):
    path = BENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"skewtrain_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _bindings():
    names = {(m.__name__, k): v for m in MODULES for k, v in vars(m).items()}
    names[("Tape", "leaf")] = autodiff.Tape.leaf
    names[("BoundaryGrid", "to_csv")] = diagnostics.BoundaryGrid.to_csv
    return names


TRIAL_BATCH = 32


def _trace_one_trial(preset, lr0=0.05):
    """Install the benchmark's hooks, run one tiny trial of preset and restore them."""
    tracing = _load_bench("tracing")
    sk = types.SimpleNamespace(**{m.__name__.rsplit(".", 1)[1]: m for m in MODULES})
    before = _bindings()
    cfg = apply_method(ExperimentConfig(
        data=DataSpec(classes=3, train_per_class=20, test_per_class=10, sigma=0.5),
        train=TrainConfig(lr0=lr0, epochs=2, warmup_epochs=1, batch_size=TRIAL_BATCH),
        hidden=[8],
        r_train=0.5,
        seeds=[0],
    ), preset)
    tracer = tracing.Tracer()
    clock = tracing.StepClock(types.SimpleNamespace(cutting=False))
    with ExitStack() as stack:
        clock.install(stack, sk)
        tracing.install_tracing(stack, tracer, sk)
        assert harness.backward is not before[("skewtrain.harness", "backward")]
        model = harness.run_training(cfg, 0).model
    assert _bindings() == before
    assert tracer.top() is None
    assert [p for p, _, _ in clock.trials] == [preset]
    calls = {layer: st[0] for layer, st in tracer.stats.items()}
    # the training objective is closed-form numpy: no Tape(), backward or tape op
    for layer in ("harness.loss_closure", "autodiff.backward", "autodiff.op_apply",
                  "autodiff.Tape.leaf", "models.forward_stack", "losses.cross_entropy_vec"):
        assert layer not in calls, layer
    # StepClock divides a trial's time by its sgd_update calls, so a step
    # counted twice would halve ms_per_step. Every step shape, SAM included,
    # ends with one sgd_update and one ema_update.
    batches = len(model.train_acc_trajectory) * math.ceil(model.train_split.n / TRIAL_BATCH)
    assert tracer.counts["harness.steps"] == clock.steps == batches > 0
    assert calls["optim.ema_update"] == batches
    return tracer, clock, calls


def test_benchmark_hooks_install_trace_a_trial_and_restore():
    tracer, clock, calls = _trace_one_trial("sam_a_smoothed")
    steps = tracer.counts["harness.steps"]
    assert steps > 0 and clock.steps == steps
    assert tracer.counts["optim.sam_steps"] == steps
    for layer in ("losses.smoothed_targets", "optim.sam_perturb", "harness.train_model"):
        assert calls.get(layer, 0) > 0, layer


def test_benchmark_hooks_trace_the_plain_step():
    # erm takes the plain path: harness.sgd_update and harness.ema_update,
    # which the hooks rebind on harness itself
    tracer, clock, calls = _trace_one_trial("erm")
    steps = tracer.counts["harness.steps"]
    assert steps > 0 and clock.steps == steps
    assert tracer.counts["optim.sam_steps"] == 0
    assert calls["optim.ema_update"] == steps
    for layer in ("optim.sam_step", "optim.sam_perturb"):
        assert layer not in calls, layer


def test_benchmark_hooks_trace_the_balanced_sampler():
    # resample draws every batch through the benchmark's iterator wrapper
    # around make_balanced_sampler: one data.balanced_batch span per step
    tracer, clock, calls = _trace_one_trial("resample")
    steps = tracer.counts["harness.steps"]
    assert steps > 0 and clock.steps == steps
    assert calls["data.balanced_batch"] == steps


def test_benchmark_hooks_trace_the_probe_commands(tmp_path):
    # the probe workload's CSV and grid layers: curate, boundary, collapse
    tracing = _load_bench("tracing")
    sk = types.SimpleNamespace(**{m.__name__.rsplit(".", 1)[1]: m for m in MODULES})
    full = tmp_path / "full.csv"
    data.save_csv(full, data.gen_gaussian_mixture(3, 20, seed=0))
    ckpt = tmp_path / "ckpt.json"
    named = models.params_to_named(models.mlp_init([2, 4, 3], seed=0), "mlp")
    models.save_checkpoint(ckpt, {**named, **{f"ema.{k}": v for k, v in named.items()}},
                           {"mlp_sizes": [2, 4, 3]})
    grid = tmp_path / "grid.csv"
    before = _bindings()
    tracer = tracing.Tracer()
    with ExitStack() as stack:
        tracing.install_tracing(stack, tracer, sk)
        assert cli.main(["curate", "--in", str(full), "--out", str(tmp_path / "curated.csv"),
                         "--ratio", "0.5"]) == 0
        assert cli.main(["boundary", "--checkpoint", str(ckpt), "--resolution", "5",
                         "--out", str(grid)]) == 0
        assert cli.main(["collapse", "--checkpoint", str(ckpt), "--data", str(full),
                         "--out", str(tmp_path / "collapse.json")]) == 0
    assert _bindings() == before
    assert tracer.top() is None
    calls = {layer: st[0] for layer, st in tracer.stats.items()}
    for layer in ("diagnostics.BoundaryGrid.to_csv", "data.load_csv", "data.save_csv"):
        assert calls.get(layer, 0) >= 1, layer
    assert tracer.counts["diagnostics.BoundaryGrid.to_csv.bytes"] == grid.stat().st_size


def test_benchmark_hooks_trace_the_joint_ssl_step():
    # joint_ssl is the fourth step shape toy_sweep runs: two augmented
    # views per batch, each through the classifier trunk and the projector.
    # It runs at the benchmark's joint_ssl lr0; at 0.05 its VICReg term diverges.
    tracer, clock, calls = _trace_one_trial("joint_ssl", lr0=5e-4)
    steps = tracer.counts["harness.steps"]
    assert steps > 0 and clock.steps == steps
    assert calls["data.augment_two_views"] == steps
    for layer in ("optim.sam_step", "losses.vicreg_loss"):
        assert layer not in calls, layer


def _skewtrain_reads(path: Path):
    """(module, attribute) for each sk.<module>.<attribute> that path reads.

    A local alias of a module (h = self.sk.harness) counts as sk.harness
    within its function.
    """

    def sk_module(node):
        # sk.<module> or <anything>.sk.<module>
        if isinstance(node, ast.Attribute):
            base = node.value
            if (isinstance(base, ast.Name) and base.id == "sk") or (
                    isinstance(base, ast.Attribute) and base.attr == "sk"):
                return node.attr
        return None

    reads = set()
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        aliases = {
            node.targets[0].id: sk_module(node.value)
            for node in ast.walk(func)
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name) and sk_module(node.value)
        }
        for node in ast.walk(func):
            if not isinstance(node, ast.Attribute):
                continue
            module = sk_module(node.value)
            if module is None and isinstance(node.value, ast.Name):
                module = aliases.get(node.value.id)
            if module is not None and module != "np":
                reads.add((module, node.attr))
    return reads


def test_every_name_the_benchmark_reads_resolves():
    rule = "bench/ changes only in benchmark changes: keep this name in skewtrain"
    imported = set()
    for node in ast.walk(ast.parse((BENCH / "run.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "skewtrain":
            imported.update(alias.name for alias in node.names)
    assert imported >= {"cli", "data", "diagnostics", "harness", "models"}
    for name in sorted(imported):
        assert importlib.util.find_spec(f"skewtrain.{name}") is not None, (
            f"bench/run.py imports skewtrain.{name}, which is gone; {rule}")
    reads = _skewtrain_reads(BENCH / "run.py") | _skewtrain_reads(BENCH / "workloads.py")
    assert ("harness", "apply_method") in reads and ("models", "named_to_mlp") in reads
    for module, attr in sorted(reads):
        assert module in imported, f"bench reads sk.{module}, which bench/run.py does not import"
        assert hasattr(importlib.import_module(f"skewtrain.{module}"), attr), (
            f"bench reads skewtrain.{module}.{attr}, which is gone; {rule}")


workloads = _load_bench("workloads")


def _workload(name, tmp_path, smoke=True):
    sk = types.SimpleNamespace(np=np, **{m.__name__.rsplit(".", 1)[1]: m for m in MODULES})
    workload = workloads.WORKLOADS[name](sk, 0, smoke)
    work = tmp_path / name
    workload.setup(work)
    workload.warmup(work)
    return workload, sk, work


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_sets_up_warms_up_and_passes_its_checks(tmp_path, name):
    # bench/run.py counts a failed operation, but set-up, warm-up or the
    # step clock raising ends the whole run
    workload, sk, work = _workload(name, tmp_path)
    tracing = _load_bench("tracing")
    before = _bindings()
    clock = tracing.StepClock(types.SimpleNamespace(cutting=False))
    with ExitStack() as stack:
        clock.install(stack, sk)
        for op in workload.ops(work):
            out = workloads.fresh_dir(work / "round" / op.name)
            op.run(out)
            assert op.check(out) == [], op.name
    assert _bindings() == before
    assert (clock.steps > 0) == (name != "probe")


def test_the_full_size_toy_sweep_sets_up_and_warms_up(tmp_path):
    # the warm-up runs skewtrain sweep and train through cli.main and
    # raises on a non-zero exit, such as a joint_ssl trial that diverges
    workload, _, work = _workload("toy_sweep", tmp_path, smoke=False)
    assert sorted(p.name for p in (work / "warmup").iterdir()) == [
        "joint_ssl", "joint_ssl.json", "sweep", "toy.json"]


GRID_RATIOS = [1.0, 0.5]


def _clocked_grid(hidden):
    """A 2-seed ratio grid under the step clock and the tracer: (clock, tracer, steps).

    steps is the grid's optimizer steps for one seed: epochs x batches over
    the train ratios.
    """
    tracing = _load_bench("tracing")
    sk = types.SimpleNamespace(**{m.__name__.rsplit(".", 1)[1]: m for m in MODULES})
    cfg = ExperimentConfig(
        data=DataSpec(classes=2, train_per_class=40, test_per_class=10, sigma=2.0),
        train=TrainConfig(lr0=0.1, epochs=2, warmup_epochs=1, batch_size=16),
        hidden=hidden,
        seeds=[0, 1],
    )
    batches = sum(math.ceil(harness.curate_train_split(
        harness.axis_config(cfg, "r_train", r), harness.build_pools(cfg, 0)[0], 0).n / 16)
        for r in GRID_RATIOS)
    before = _bindings()
    cuts = []
    clock = tracing.StepClock(types.SimpleNamespace(cutting=True, cut=lambda: cuts.append(1)))
    tracer = tracing.Tracer()
    with ExitStack() as stack:
        clock.install(stack, sk)
        tracing.install_tracing(stack, tracer, sk)
        harness.run_ratio_grid(cfg, GRID_RATIOS, GRID_RATIOS)
    assert _bindings() == before
    assert tracer.top() is None
    # one clocked harness.train_model call of both seeds per train ratio
    assert [p for p, _, _ in clock.trials] == ["erm"] * len(GRID_RATIOS)
    assert len(cuts) == len(GRID_RATIOS) == tracer.counts["harness.trials"]
    assert set(clock.ms_per_step()) == {"erm"}
    return clock, tracer, cfg.train.epochs * batches


def test_a_stacked_ratio_grid_keeps_the_step_clock_and_the_tracer():
    # ratio_grid's wall_rel is cut at each harness.train_model call and its
    # ms_per_step.erm divides a trial's time by its sgd_update calls. A
    # grid whose seeds train in lockstep must still enter training through
    # the harness.train_model attribute, once per train ratio, and step
    # through sgd_update as looked up on harness: once per stacked step.
    clock, tracer, steps = _clocked_grid([16])
    assert clock.steps == tracer.counts["harness.steps"] == steps


@pytest.mark.parametrize("width, trained_apart", [(127, False), (128, True)])
def test_the_stack_width_decides_steps_inside_one_clocked_call(width, trained_apart):
    # Seeds stack below a hidden width of 128. At 128 train_model trains
    # them one after another within the call the clock wraps, so each
    # train ratio is still one cut and one clocked trial, with twice the
    # optimizer steps; calling back through harness.train_model would
    # clock each seed a second time.
    clock, tracer, steps = _clocked_grid([width])
    assert clock.steps == tracer.counts["harness.steps"] == steps * (2 if trained_apart else 1)
