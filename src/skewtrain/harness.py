"""Experiment orchestration: configs, training runs, sweeps, grids.

A run is fully determined by (config, seed). All randomness, including
data generation, curation draws, init, shuffling, and augmentation, is
derived from the seed through named SeedSequence children, so repeated
runs are bit-identical and results files can be regenerated at will.

Method presets and sweep axes are data: _PRESETS maps each preset to
method overrides, and AXES maps each sweep axis to its value type, its
overrides and run_sweep's defaults (baseline, improvement mode). Every
derived config (a preset, a sweep value, a ratio-grid cell) goes
through derive_config, which merges the overrides into the config's
dict form and rebuilds it with config_from_dict, so derived configs are
validated exactly like config files. _axis_values checks a sweep's
values and each of the ratio grid's lists, so neither trains a duplicate.

The training objective is computed in closed form by one function,
batch_loss_and_grads, which train_model calls for every step: it runs
the numpy forward and backward (models.mlp_forward/mlp_backward and the
losses' *_and_grad forms, handed the adjoint that the example weights
give), checks every pre-activation, the loss and the gradient for
finiteness, and builds no tape. supervised_loss is the
same supervised term on the tape; it is the reference that the numpy
step and acceptance criterion 1 check against.

Results land as JSON: per (config hash, seed) one file and one
checkpoint, which models.save_model names and writes; one aggregate per
config; and per-sweep tables. _jsonify writes all but the checkpoints,
and a report's document is its dataclass fields; only a document that
adds or drops values (a trial, an aggregate, a ratio grid) is built by
a to_dict. Aggregates report per-seed values, their mean, and the
standard error (sample std / sqrt(n_seeds)); a single seed yields
stderr 0 flagged as single_trial.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import json
import logging
import math
import reprlib
import typing
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (
    AugmentSpec,
    ClassProfile,
    Dataset,
    augment_two_views,
    class_profile,
    curate_exponential,
    gen_gaussian_mixture,
    grow_majority,
    load_csv,
    make_balanced_sampler,
)
from .diagnostics import CollapseReport, MetricsReport, collapse_report, metrics_report
from .losses import (
    FocalSpec,
    JointLossSpec,
    ReweightSpec,
    SmoothingSpec,
    VicRegSpec,
    cross_entropy_and_grad,
    cross_entropy_vec,
    focal_and_grad,
    focal_vec,
    one_hot,
    reweight_class_weights,
    smoothed_targets,
    vicreg_and_grads,
    vicreg_loss,
)
from .models import (
    MLPParams,
    atomic_write,
    check_finite,
    forward_stack,
    mlp_backward,
    mlp_forward,
    mlp_init,
    mlp_predict,
    named_to_mlp,
    pack,
    save_model,
    tensor_bounds,
    unpack,
)
from .optim import SamSpec, TrainConfig, cosine_lr, ema_update, rho_per_class, sam_step, sgd_update
from .autodiff import NumericalError, Tape, Var, backward, reduce_sum

# Training builds no tape and names no tensors, so backward, forward_stack, vicreg_loss
# and named_to_mlp have no caller here; bench/tracing.py rebinds them on this module.

logger = logging.getLogger(__name__)

IMPROVEMENT_MODES = ("paper_a1", "relative_to_baseline")


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass
class DataSpec:
    """Where samples come from: a synthetic mixture or CSV files."""

    kind: str = "gaussian"
    classes: int = 5
    train_per_class: int = 500
    test_per_class: int = 200
    dim: int = 2
    mean_radius: float = 3.0
    sigma: float = 0.75
    train_path: str | None = None
    test_path: str | None = None
    label_col: str = "label"
    test_frac: float = 0.2

    def __post_init__(self):
        if self.kind not in ("gaussian", "csv"):
            raise ValueError(f"kind must be gaussian or csv, got {self.kind!r}")
        if self.kind == "csv" and not self.train_path:
            raise ValueError("csv data needs train_path")
        if not 0.0 < self.test_frac < 1.0:
            raise ValueError("test_frac must be in (0, 1)")


SUPERVISED_LOSSES = ("ce", "smoothed", "focal", "reweighted")


@dataclass
class MethodSpec:
    """Exactly one supervised loss plus optional add-ons."""

    loss: str = "ce"
    smoothing: SmoothingSpec = field(default_factory=SmoothingSpec)
    focal: FocalSpec = field(default_factory=FocalSpec)
    reweight: ReweightSpec = field(default_factory=ReweightSpec)
    sam: SamSpec = field(default_factory=SamSpec)
    joint_ssl: bool = False
    vicreg: VicRegSpec = field(default_factory=VicRegSpec)
    joint: JointLossSpec = field(default_factory=JointLossSpec)
    augment: AugmentSpec = field(default_factory=AugmentSpec)
    projector: list[int] | None = None
    resample: bool = False

    def __post_init__(self):
        if self.loss not in SUPERVISED_LOSSES:
            raise ValueError(f"loss must be one of {SUPERVISED_LOSSES}, got {self.loss!r}")
        if self.projector is not None and len(self.projector) < 2:
            raise ValueError("projector needs at least input and output sizes")
        if self.projector is not None and any(s < 1 for s in self.projector):
            raise ValueError(f"projector sizes must be positive, got {reprlib.repr(self.projector)}")


@dataclass
class ExperimentConfig:
    data: DataSpec = field(default_factory=DataSpec)
    method: MethodSpec = field(default_factory=MethodSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    hidden: list[int] = field(default_factory=lambda: [64, 64])
    r_train: float | None = None
    r_test: float | None = None
    majority_size: int | None = None
    n_minority: int = 200
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])
    ema_decay: float = 0.999
    use_ema_eval: bool = True
    stop_at_train_acc: float | None = None

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("at least one seed required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("duplicate seeds")
        if any(s < 0 for s in self.seeds):
            raise ValueError(f"seeds must be >= 0, got {self.seeds}")
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ValueError("hidden sizes must be positive")
        for name in ("r_train", "r_test"):
            r = getattr(self, name)
            if r is not None and not 0.0 < r <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {r}")
        if self.majority_size is not None and self.r_train is not None:
            raise ValueError("majority_size and r_train are mutually exclusive")
        if self.majority_size is not None and self.majority_size < 1:
            raise ValueError(f"majority_size must be >= 1, got {self.majority_size}")
        if self.n_minority < 1:
            raise ValueError(f"n_minority must be >= 1, got {self.n_minority}")
        if not 0.0 <= self.ema_decay <= 1.0:
            raise ValueError("ema_decay must be in [0, 1]")
        if self.stop_at_train_acc is not None and not 0.0 <= self.stop_at_train_acc <= 1.0:
            raise ValueError(f"stop_at_train_acc must be in [0, 1], got {self.stop_at_train_acc}")
        if self.method.joint_ssl and self.train.batch_size < 2:
            # VICReg's variance term needs two samples in every batch
            raise ValueError(f"joint_ssl needs train.batch_size >= 2, got {self.train.batch_size}")
        projector = self.method.projector
        if self.method.joint_ssl and projector is not None and projector[0] != self.hidden[-1]:
            raise ValueError(
                f"projector input {projector[0]} does not match last hidden width {self.hidden[-1]}"
            )
        if self.method.resample and self.method.loss == "reweighted":
            warnings.warn("combining the balanced resampler with reweighted loss double-counts rarity")


@functools.cache
def _field_hints(cls) -> dict:
    """{field name: resolved type} of a config dataclass, computed once per class."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints.get(f.name) for f in dataclasses.fields(cls)}


_KIND_NAMES = {
    bool: "a bool", int: "an int", float: "a finite number", str: "a string", list[int]: "a list of ints",
}


def _is_kind(value, kind) -> bool:
    """value fits the scalar field type kind: only bools are bools, a float is any finite number."""
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    if kind is float:
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, kind)


def _check_value(value, hint, name: str) -> None:
    """ConfigError unless value has the field's type; nothing is converted.

    The message names the field in full and shortens the value (reprlib).
    """
    args = typing.get_args(hint)
    if type(None) in args:  # every optional field is written X | None
        if value is None:
            return
        hint = args[0]
    if typing.get_origin(hint) is list:
        ok = isinstance(value, list) and all(_is_kind(v, typing.get_args(hint)[0]) for v in value)
    else:
        ok = _is_kind(value, hint)
    if not ok:
        raise ConfigError(f"{name}: expected {_KIND_NAMES[hint]}, got {reprlib.repr(value)}")


def _strict_from_dict(cls, doc, path: str):
    """cls built from doc, each value checked against its field type; paths name fields."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config'}: expected an object, got {type(doc).__name__}")
    hints = _field_hints(cls)
    kwargs = {}
    for key, value in doc.items():
        name = f"{path}.{key}" if path else key
        if key not in hints:
            raise ConfigError(f"unknown config key {name}")
        if dataclasses.is_dataclass(hints[key]):
            kwargs[key] = _strict_from_dict(hints[key], value, name)
        else:
            _check_value(value, hints[key], name)
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path or 'config'}: {exc}") from exc


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build a config from a JSON document; unknown keys are errors."""
    return _strict_from_dict(ExperimentConfig, doc, "")


def config_to_dict(config: ExperimentConfig) -> dict:
    return dataclasses.asdict(config)


def config_hash(config: ExperimentConfig) -> str:
    canon = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return config_from_dict(doc)


def derive_config(config: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    """A copy of config with nested overrides merged in, validated like a config file.

    Method presets, sweep values and ratio-grid cells are all derived
    here, so none of them can skip config_from_dict's checks.
    """
    return config_from_dict(_merge(config_to_dict(config), overrides))


def _merge(doc: dict, overrides: dict) -> dict:
    out = dict(doc)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            value = _merge(out[key], value)
        out[key] = value
    return out


# Every preset starts from this reset, so switching presets never keeps
# the previous loss, ascent mode, joint objective or sampler.
_PRESET_RESET = {"loss": "ce", "sam": {"mode": "off"}, "joint_ssl": False, "resample": False}

# Method overrides per preset; drw depends on the config's epoch count.
_PRESETS = {
    "erm": {},
    "resample": {"resample": True},
    "reweight": {"loss": "reweighted", "reweight": {"defer_epoch": 0}},
    "drw": lambda cfg: {"loss": "reweighted", "reweight": {"defer_epoch": cfg.train.epochs // 2}},
    "focal": {"loss": "focal"},
    "smoothed": {"loss": "smoothed"},
    "smoothed_inverse": {"loss": "smoothed", "smoothing": {"mode": "inverse_proportion"}},
    "sam": {"sam": {"mode": "sam"}},
    "sam_a": {"sam": {"mode": "sam_a_paper"}},
    "sam_a_inverse": {"sam": {"mode": "sam_a_inverse"}},
    "joint_ssl": {"joint_ssl": True},
    "sam_a_smoothed": {"loss": "smoothed", "sam": {"mode": "sam_a_paper"}},
    "sam_a_smoothed_inverse": {
        "loss": "smoothed",
        "smoothing": {"mode": "inverse_proportion"},
        "sam": {"mode": "sam_a_inverse"},
    },
}
METHOD_PRESETS = tuple(_PRESETS)


def _preset_overrides(config: ExperimentConfig, name) -> dict:
    if name not in _PRESETS:
        raise ConfigError(f"unknown method {name!r}; choose from {METHOD_PRESETS}")
    preset = _PRESETS[name]
    return {"method": _merge(_PRESET_RESET, preset(config) if callable(preset) else preset)}


def apply_method(config: ExperimentConfig, name: str) -> ExperimentConfig:
    """Return a validated copy of config switched to a named method preset."""
    return derive_config(config, _preset_overrides(config, name))


class SweepAxis(typing.NamedTuple):
    type: type  # what a value is parsed as
    overrides: typing.Callable[[ExperimentConfig, object], dict]
    baseline: object = None  # run_sweep's default baseline when among the values
    improvement_mode: str = "relative_to_baseline"  # run_sweep's default


# r_train and n_majority each clear the other curation field, since a
# config may set only one of them.
AXES = {
    "batch_size": SweepAxis(int, lambda cfg, v: {"train": {"batch_size": v}}, 128, "paper_a1"),
    "r_train": SweepAxis(float, lambda cfg, v: {"r_train": v, "majority_size": None}),
    "r_test": SweepAxis(float, lambda cfg, v: {"r_test": v}),
    "n_majority": SweepAxis(int, lambda cfg, v: {"majority_size": v, "r_train": None}),
    "method": SweepAxis(str, _preset_overrides, "erm"),
}
SWEEP_AXES = tuple(AXES)


def _axis_value(axis: str, value):
    """value cast to the axis type; ConfigError naming both if it is not one.

    Bools are not numbers here, and an int axis takes no fractional
    float, so 16.7 never trains batch size 16.
    """
    if axis not in AXES:
        raise ConfigError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    kind = AXES[axis].type
    if kind is not str and isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{axis} value {value!r}: expected {kind.__name__}, got a bool")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{axis} value {value!r}: expected an integer")
    try:
        return kind(value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{axis} value {value!r}: {exc}") from exc


def _axis_values(axis: str, values) -> list:
    """Each value cast by _axis_value; ConfigError for an empty list or two that cast equal."""
    values = [_axis_value(axis, value) for value in values]
    if not values:
        raise ConfigError(f"{axis}: sweep values must be a non-empty list")
    if len(set(values)) != len(values):
        raise ConfigError(f"{axis}: duplicate sweep values {values}")
    return values


def axis_config(config: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    """config with one sweep axis set to value; a bad value raises ConfigError naming both."""
    cast = _axis_value(axis, value)
    try:
        return derive_config(config, AXES[axis].overrides(config, cast))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{axis} value {value!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Data assembly
# ---------------------------------------------------------------------------


def _stratified_split(dataset: Dataset, test_frac: float, rng: np.random.Generator):
    train_idx, test_idx = [], []
    for c in range(dataset.num_classes):
        members = rng.permutation(np.flatnonzero(dataset.y == c))
        cut = max(1, int(round(members.size * test_frac)))
        if cut >= members.size:
            raise ValueError(f"class {dataset.class_names[c]} too small to split")
        test_idx.append(members[:cut])
        train_idx.append(members[cut:])
    tr = np.concatenate(train_idx)
    te = np.concatenate(test_idx)
    return (
        Dataset(dataset.X[tr], dataset.y[tr], list(dataset.class_names)),
        Dataset(dataset.X[te], dataset.y[te], list(dataset.class_names)),
    )


def _seed_children(seed: int):
    keys = ("data_train", "data_test", "curate_train", "curate_test", "init", "batches", "augment")
    children = np.random.SeedSequence(seed).spawn(len(keys))
    return dict(zip(keys, children))


def build_pools(config: ExperimentConfig, seed: int):
    """Uncurated train and test pools for one trial seed."""
    ss = _seed_children(seed)
    d = config.data
    if d.kind == "gaussian":
        train = gen_gaussian_mixture(
            d.classes, d.train_per_class, d.dim, d.mean_radius, d.sigma, seed=ss["data_train"]
        )
        test = gen_gaussian_mixture(
            d.classes, d.test_per_class, d.dim, d.mean_radius, d.sigma, seed=ss["data_test"]
        )
        return train, test
    train = load_csv(d.train_path, d.label_col)
    if d.test_path:
        test = load_csv(d.test_path, d.label_col)
        if test.class_names != train.class_names:
            raise ValueError("train and test files disagree on class names")
        return train, test
    return _stratified_split(train, d.test_frac, np.random.default_rng(ss["data_test"]))


def curate_train_split(config: ExperimentConfig, pool: Dataset, seed: int) -> Dataset:
    ss = _seed_children(seed)
    if config.majority_size is not None:
        return grow_majority(
            pool, config.majority_size, config.n_minority, seed=ss["curate_train"]
        )
    if config.r_train is not None:
        return curate_exponential(pool, config.r_train, seed=ss["curate_train"])
    return pool


def curate_test_split(config: ExperimentConfig, pool: Dataset, seed: int) -> Dataset:
    if config.r_test is not None:
        return curate_exponential(pool, config.r_test, seed=_seed_children(seed)["curate_test"])
    return pool


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class TrainedModel:
    """Everything needed to evaluate or probe a finished run.

    raw and ema are vectors in models.pack's layout of the stacks of sizes:
    the classifier and, for joint_ssl, the projector. A model trained
    with track_train_acc=False and no stop_at_train_acc has an empty
    train_acc_trajectory and epochs_to_full_fit None, and no
    final_train_accuracy.
    """

    sizes: list[list[int]]
    raw: np.ndarray
    ema: np.ndarray
    use_ema_eval: bool
    train_split: Dataset
    profile: ClassProfile
    train_acc_trajectory: list[float]
    epochs_to_full_fit: int | None

    @property
    def final_train_accuracy(self) -> float:
        return self.train_acc_trajectory[-1]

    def eval_mlp(self):
        return unpack(self.ema if self.use_ema_eval else self.raw, self.sizes)[0]


@dataclass
class TrialResult:
    seed: int
    config_hash: str
    metrics: MetricsReport
    collapse: CollapseReport
    model: TrainedModel

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "config_hash": self.config_hash,
            "metrics": self.metrics,
            "collapse": self.collapse,
            "train_acc_trajectory": list(self.model.train_acc_trajectory),
            "final_train_accuracy": self.model.final_train_accuracy,
            "epochs_to_full_fit": self.model.epochs_to_full_fit,
        }


def _iter_batches(n: int, batch_size: int, rng: np.random.Generator, min_batch: int):
    """Shuffled index chunks; a too-small trailing chunk merges backward."""
    perm = rng.permutation(n)
    chunks = [perm[i:i + batch_size] for i in range(0, n, batch_size)]
    if len(chunks) > 1 and chunks[-1].size < min_batch:
        chunks[-2] = np.concatenate([chunks[-2], chunks[-1]])
        chunks.pop()
    return chunks


def _projector_sizes(config: ExperimentConfig) -> list[int] | None:
    """The joint_ssl projector's sizes (the config checked that they fit), else None."""
    if not config.method.joint_ssl:
        return None
    if config.method.projector is not None:
        return list(config.method.projector)
    return [config.hidden[-1], 32, 32]


def supervised_loss(
    tape: Tape, logits: Var, labels: np.ndarray, method: MethodSpec, profile: ClassProfile,
    class_w: np.ndarray, epoch: int, example_weights: np.ndarray | None = None,
) -> Var:
    """The supervised term that training minimizes, as a tape scalar.

    Training computes it with supervised_loss_and_grad; this tape form
    is the reference that one is tested against.

    Per-example losses l_i (cross-entropy against one-hot or smoothed
    targets, or focal) get weights w_i = class_w[y_i] once a reweighted
    loss reaches its defer_epoch, else 1, and reduce to
    sum_i w_i s_i l_i / sum_i s_i, where s_i are the SAM ascent
    weights, or 1 when example_weights is None.
    """
    if method.loss == "smoothed":
        vec = cross_entropy_vec(tape, logits, smoothed_targets(labels, profile, method.smoothing))
    elif method.loss == "focal":
        vec = focal_vec(tape, logits, labels, method.focal)
    else:
        vec = cross_entropy_vec(tape, logits, one_hot(labels, logits.shape[1]))
    reweight = method.loss == "reweighted" and epoch >= method.reweight.defer_epoch
    w = class_w[labels] if reweight else np.ones(labels.size)
    if example_weights is None:
        return reduce_sum(vec * tape.constant(w)) * (1.0 / labels.size)
    return reduce_sum(vec * tape.constant(w * example_weights)) * (1.0 / float(example_weights.sum()))


def supervised_targets(labels: np.ndarray, method: MethodSpec, profile: ClassProfile) -> np.ndarray:
    """Target rows of the supervised loss for labels: smoothed for the smoothed loss, else one-hot.

    Each row depends on its own label alone, so train_model builds the
    rows of its whole split once and every step indexes them.
    """
    if method.loss == "smoothed":
        return smoothed_targets(labels, profile, method.smoothing)
    return one_hot(labels, profile.num_classes)


def supervised_loss_and_grad(
    logits: np.ndarray, labels: np.ndarray, targets: np.ndarray, method: MethodSpec,
    class_w: np.ndarray, epoch: int, example_weights: np.ndarray | None = None,
    adjoint: float = 1.0,
):
    """supervised_loss in closed form: (value, gradient at the logits).

    targets are the batch's rows of supervised_targets; focal loss reads
    them as its one-hot rows. adjoint is the gradient of the objective
    at this term (lam in the joint objective). Value and gradient match
    the tape bit for bit, and a stack of trials gets each trial's.
    """
    reweight = method.loss == "reweighted" and epoch >= method.reweight.defer_epoch
    # The tape weights each example by 1.0 where nothing reweights; x * 1.0
    # is x bit for bit, so here a missing weight is not multiplied in.
    w = class_w[labels] if reweight else None
    if example_weights is None:
        inv_total = 1.0 / labels.shape[-1]
    else:
        w = example_weights if w is None else w * example_weights
        inv_total = 1.0 / float(np.add.reduce(example_weights))
    # Without weights every example has one adjoint: a scalar, which
    # scales each product exactly as a vector of copies of it would.
    g = adjoint * inv_total if w is None else adjoint * inv_total * w
    if method.loss == "focal":
        vec, g_logits = focal_and_grad(logits, targets, method.focal, g)
    else:
        vec, g_logits = cross_entropy_and_grad(logits, targets, g)
    return np.add.reduce(vec if w is None else vec * w, axis=-1) * inv_total, g_logits


class StepPlan:
    """A trial's parameter and gradient buffers with their stack views, built once.

    theta is the trial's parameter vector, or a (T, P) stack of trials',
    which sgd_update updates in place. grad is the one gradient buffer
    that every batch_loss_and_grads call refills, and perturbed, under
    SAM, the buffer that sam_perturb writes the moved parameters into.
    Each buffer is unpacked once, here, into the stacks of sizes
    (models.unpack); stacks(vec) looks the views of one of these buffers up.
    """

    def __init__(self, theta: np.ndarray, sizes, sam: bool = False):
        self.theta = theta
        self.grad = np.zeros(theta.shape)
        self.perturbed = np.empty(theta.size) if sam else None
        buffers = [b for b in (self.theta, self.grad, self.perturbed) if b is not None]
        self._stacks = {id(b): unpack(b, sizes) for b in buffers}

    def stacks(self, vec: np.ndarray) -> list[MLPParams]:
        """The stack views of vec, which must be one of the plan's buffers."""
        return self._stacks[id(vec)]


def batch_loss_and_grads(plan, xb, yb, targets, views, epoch, method, class_w, theta,
                         example_weights):
    """(loss, gradient) of the training objective on one batch.

    The batch comes first, so functools.partial(batch_loss_and_grads,
    *batch) is the f(theta, example_weights) that sam_step calls.
    theta is plan.theta or plan.perturbed, and the gradient returned is
    plan.grad, refilled here: both are in models.pack's layout of the
    plan's stacks, and a stack the objective does not use gets a
    zero gradient. The returned gradient is valid until the next call.
    targets are the batch's rows of supervised_targets; xb and the views
    are float64 and C-contiguous. Trials in lockstep stack theta, the
    batch and the gradient on a leading axis and get a (T,) loss, each
    trial's bytes its lone call's; only lone trials take views or SAM.
    The stacks are the plan's views of theta, and mlp_backward writes into
    its views of the gradient buffer, so no call unpacks a vector or
    allocates a gradient.
    Forward and backward are closed-form numpy (models.mlp_forward/
    mlp_backward, the losses' *_and_grad forms) and repeat the tape's
    operations in its order, so the result is bit-identical to backward()
    over supervised_loss and, for the joint objective, forward_stack,
    vicreg_loss and joint_loss.
    A non-finite pre-activation, loss or gradient raises NumericalError
    naming the stage (in a stack, its index's first entry is the trial).
    The caller ignores overflow: train_model enters that errstate per epoch.
    """
    stacks = plan.stacks(theta)
    grad = plan.grad
    grad.fill(0.0)
    stack_grads = plan.stacks(grad)
    mlp, mlp_grads = stacks[0], stack_grads[0]
    mlp_written = 0
    lam = float(method.joint.lam) if method.joint_ssl else 1.0
    logits, inputs = mlp_forward(mlp, xb)
    loss, g_logits = supervised_loss_and_grad(
        logits, yb, targets, method, class_w, epoch, example_weights, lam,
    )
    check_finite(loss, "non-finite supervised loss")
    if method.joint_ssl:
        proj, proj_grads = stacks[1], stack_grads[1]
        proj_written = 0
        branches = []
        for view in views:
            _, view_inputs = mlp_forward(mlp, view, skip_last=True)
            emb, proj_inputs = mlp_forward(proj, view_inputs[-1])
            branches.append((view_inputs, emb, proj_inputs))
        ssl, g_emb, g_emb_prime = vicreg_and_grads(branches[0][1], branches[1][1], method.vicreg)
        loss = ssl + loss * lam
        check_finite(loss, "non-finite joint objective")
        # The tape walks the second view's branch back before the first.
        for (view_inputs, _, proj_inputs), g in zip(branches[::-1], (g_emb_prime, g_emb)):
            g_pen = mlp_backward(proj, proj_inputs, g, proj_grads, proj_written, input_grad=True)
            mlp_backward(mlp, view_inputs[:-1], g_pen * (view_inputs[-1] > 0.0), mlp_grads,
                         mlp_written)
            proj_written, mlp_written = len(proj_inputs), len(view_inputs) - 1
    mlp_backward(mlp, inputs, g_logits, mlp_grads, mlp_written)
    check_finite(grad, "non-finite gradient")
    return loss, grad


# Seeds stack only below this hidden width. A stack's train_model time over its T lone
# trials' at T = 2 and 5 (2 features, batch 128, 7500 rows, 2 shared cores, OpenBLAS at
# 1 thread): [16] 0.71 0.53, [32] 0.80 0.57, [64] 0.88 0.73, [128] 0.82 1.47; with 5
# classes, [64, 64] 0.82 0.82 and [128, 128] 1.01 1.06.
_STACK_WIDTH = 128


def _stackable(config: ExperimentConfig, splits: list[Dataset]) -> bool:
    """Whether the trials on splits train in lockstep; the one rule that decides it.

    That takes two trials or more, a model narrower than _STACK_WIDTH, the plain step (no
    SAM, joint objective, resampler or early stop), and splits of one shape and class counts.
    """
    m = config.method
    shapes = [(s.X.shape, class_profile(s).counts.tolist()) for s in splits]
    return (len(splits) > 1 and max(config.hidden) < _STACK_WIDTH and m.sam.mode == "off"
            and not m.joint_ssl and not m.resample and config.stop_at_train_acc is None
            and all(s == shapes[0] for s in shapes))


def train_model(config: ExperimentConfig, seeds: list[int], splits: list[Dataset], *,
                track_train_acc: bool = True) -> list[TrainedModel]:
    """Train the (config, seed) trial of each seed on its curated split; one model per seed.

    Callers build each split with build_pools and curate_train_split, once per seed, and
    may pass any number of seeds. Only this function knows lockstep: where _stackable
    allows, the seeds train as one stack (theta, velocity, EMA and scratch are (T, P),
    and each step runs once on the T trials' batches, each gathered into its slice of a
    (T, b, d) stack); else one after another through _train_trials, not through this
    module's attribute, which the benchmark's step clock wraps once per call.
    Each seed keeps its own SeedSequence children, init, batch order and
    target rows, so each trial's raw and EMA bytes equal its lone run's.
    What stays fixed over the trials is built here once: sizes, the layer
    sizes of the classifier and the projector, which fix theta's layout
    and SAM's tensor bounds; the StepPlan and the velocity, EMA and
    scratch vectors, which every step reuses; the target rows and, for a
    class-conditional SAM mode with rho > 0, the per-class radii that
    each step indexes. Every step ends with one sgd_update and one
    ema_update, which write theta, velocity and EMA in place; SAM only
    picks the gradient they apply.

    The plain step calls batch_loss_and_grads directly; only SAM binds
    the batch with functools.partial, for sam_step. Each batch is handed
    over as the step expects it: float64, C-contiguous rows and views.
    The numpy errstate that ignores overflow is entered once per epoch,
    around its batches, so an overflow in sgd_update or sam_perturb
    warns nothing and the next step raises NumericalError naming the
    seed, as does the epoch-end predict (mlp_predict) when the weights
    it reads overflow.

    Each epoch ends by predicting each train split for the train accuracy
    trajectory, unless track_train_acc is False and no stop_at_train_acc
    reads it; the weights trained are the same bit for bit either way.
    """
    if not _stackable(config, splits):
        return [model for seed, split in zip(seeds, splits)
                for model in _train_trials(config, [seed], [split], track_train_acc)]
    return _train_trials(config, seeds, splits, track_train_acc)


def _train_trials(config: ExperimentConfig, seeds: list[int], splits: list[Dataset],
                  track_train_acc: bool) -> list[TrainedModel]:
    """train_model's one loop, over one seed alone or over a stack that _stackable allows."""
    stacked = len(seeds) > 1
    children = [_seed_children(seed) for seed in seeds]
    first = splits[0]
    profile = class_profile(first)
    sizes = [[first.d] + list(config.hidden) + [first.num_classes]]
    proj_sizes = _projector_sizes(config)
    if proj_sizes is not None:
        sizes.append(proj_sizes)
    method = config.method
    sam = method.sam
    init_rngs = [np.random.default_rng(ss["init"]) for ss in children]
    thetas = [pack([mlp_init(s, seed=rng.integers(2**32)) for s in sizes]) for rng in init_rngs]
    plan = StepPlan(np.stack(thetas) if stacked else thetas[0], sizes, sam=sam.mode != "off")
    theta = plan.theta
    bounds = tensor_bounds(sizes)
    velocity = np.zeros_like(theta)
    ema = theta.copy()
    scratch = np.empty_like(theta)

    class_radii = (
        rho_per_class(profile, sam) if sam.mode not in ("off", "sam") and sam.rho > 0.0 else None
    )
    tc = config.train
    batch_rngs = [np.random.default_rng(ss["batches"]) for ss in children]
    augment_rng = np.random.default_rng(children[0]["augment"])
    class_w = reweight_class_weights(profile)
    # A stack's rows are its splits' rows in turn; trial t's row i is row t * n + i.
    data = [(s.X, s.y, supervised_targets(s.y, method, profile)) for s in splits]
    X, y, targets = (np.concatenate(a) for a in zip(*data)) if stacked else data[0]
    offsets = np.arange(len(seeds))[:, None] * first.n
    steps_per_epoch = math.ceil(first.n / tc.batch_size)
    sampler = (
        make_balanced_sampler(first, tc.batch_size, seed=children[0]["batches"])
        if method.resample
        else None
    )
    min_batch = 2 if method.joint_ssl else 1
    track_train_acc = track_train_acc or config.stop_at_train_acc is not None

    trajectories: list[list[float]] = [[] for _ in seeds]
    full_fit: list[int | None] = [None] * len(seeds)
    mlps = [unpack(vec, sizes)[0] for vec in theta] if stacked else [plan.stacks(theta)[0]]
    for epoch in range(tc.epochs):
        lr = cosine_lr(epoch, tc)
        if sampler is not None:
            batches = [(next(sampler),) for _ in range(steps_per_epoch)]
        else:
            # equal split sizes give every trial the same chunk sizes
            batches = zip(*[_iter_batches(first.n, tc.batch_size, rng, min_batch)
                            for rng in batch_rngs])
        # The step's overflow surfaces as NumericalError, so the epoch's
        # batches run in one errstate.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for step, chunks in enumerate(batches):
                # a stack gathers each trial's batch into its slice of (T, b, ...)
                idx = np.array(chunks) + offsets if stacked else chunks[0]
                xb, yb, tb = X.take(idx, axis=0), y[idx], targets.take(idx, axis=0)
                views = None
                if method.joint_ssl:
                    views = augment_two_views(xb, method.augment, augment_rng)
                batch = (plan, xb, yb, tb, views, epoch, method, class_w)
                try:
                    if sam.mode == "off":
                        _, grad = batch_loss_and_grads(*batch, theta, None)
                    else:
                        radii = None if class_radii is None else class_radii[yb]
                        loss_and_grads = functools.partial(batch_loss_and_grads, *batch)
                        _, grad, _ = sam_step(theta, loss_and_grads, sam.rho, radii, bounds,
                                              plan.perturbed)
                except NumericalError as exc:
                    seed = seeds[exc.index[0]] if stacked else seeds[0]
                    raise NumericalError(f"training diverged at epoch {epoch}, step {step} "
                                         f"(seed {seed}): {exc}") from exc
                sgd_update(theta, grad, lr, tc, velocity, scratch)
                ema_update(ema, theta, config.ema_decay, scratch)
        if not track_train_acc:
            continue
        for t, (seed, mlp, split) in enumerate(zip(seeds, mlps, splits)):
            acc = _accuracy(mlp, split, f"training diverged at epoch {epoch}, "
                                        f"predicting the train split (seed {seed})")
            trajectories[t].append(acc)
            logger.debug("seed %d epoch %d lr %.4f train_acc %.4f", seed, epoch, lr, acc)
            if full_fit[t] is None and acc == 1.0:
                full_fit[t] = epoch + 1
        # a trial that stops early trains alone, so acc is its accuracy
        if config.stop_at_train_acc is not None and acc >= config.stop_at_train_acc:
            break

    raws, emas = (theta, ema) if stacked else ([theta], [ema])
    return [
        TrainedModel(sizes=sizes, raw=raw, ema=trial_ema, use_ema_eval=config.use_ema_eval,
                     train_split=split, profile=profile, train_acc_trajectory=traj,
                     epochs_to_full_fit=fit)
        for raw, trial_ema, split, traj, fit in zip(raws, emas, splits, trajectories, full_fit)
    ]


def _predict(mlp: MLPParams, split: Dataset, stage: str):
    """mlp_predict on split.X; a non-finite forward's NumericalError is prefixed with stage."""
    try:
        return mlp_predict(mlp, split.X)
    except NumericalError as exc:
        raise NumericalError(f"{stage}: {exc}") from exc


def _accuracy(mlp: MLPParams, split: Dataset, stage: str) -> float:
    """The share of split that mlp labels correctly; errors as _predict's."""
    preds, _, _ = _predict(mlp, split, stage)
    return float((preds == split.y).mean())


def evaluate_model(model: TrainedModel, test_split: Dataset) -> tuple[MetricsReport, CollapseReport]:
    """Test metrics plus collapse statistics on the training features.

    A non-finite forward raises NumericalError naming the split it predicted.
    """
    mlp = model.eval_mlp()
    test_preds, _, _ = _predict(mlp, test_split, "evaluation failed predicting the test split")
    metrics = metrics_report(test_preds, test_split.y, model.profile)
    train_preds, _, train_feats = _predict(mlp, model.train_split,
                                           "evaluation failed predicting the train split")
    collapse = collapse_report(train_feats, model.train_split.y, train_preds, model.profile)
    return metrics, collapse


def run_training(config: ExperimentConfig, seed: int) -> TrialResult:
    """Train and evaluate one (config, seed) trial on pools built once."""
    train_pool, test_pool = build_pools(config, seed)
    model = train_model(config, [seed], [curate_train_split(config, train_pool, seed)])[0]
    test_split = curate_test_split(config, test_pool, seed)
    try:
        metrics, collapse = evaluate_model(model, test_split)
    except NumericalError as exc:
        raise NumericalError(f"seed {seed}: {exc}") from exc
    return TrialResult(
        seed=seed, config_hash=config_hash(config), metrics=metrics, collapse=collapse, model=model,
    )


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


@dataclass
class TrialAggregate:
    """Per-seed values with mean and standard error of the mean."""

    values: list[float]
    mean: float
    stderr: float
    single_trial: bool


def aggregate(values) -> TrialAggregate:
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("nothing to aggregate")
    mean = float(np.mean(vals))
    if len(vals) == 1:
        return TrialAggregate(vals, mean, 0.0, True)
    stderr = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    return TrialAggregate(vals, mean, stderr, False)


AGGREGATED_METRICS = (
    "overall",
    "minority",
    "majority",
    "few",
    "medium",
    "many",
    "final_train_accuracy",
    "minority_mean_cdnv",
    "mean_cdnv",
    "ncc_agreement",
    "ncc_agreement_minority",
)


def _metric_value(result: TrialResult, key: str) -> float:
    if hasattr(result.metrics, key):
        return getattr(result.metrics, key)
    if hasattr(result.collapse, key):
        return getattr(result.collapse, key)
    return getattr(result.model, key)


@dataclass
class AggregateResult:
    config_hash: str
    config: ExperimentConfig
    results: list[TrialResult]
    aggregates: dict[str, TrialAggregate]

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "config": config_to_dict(self.config),
            "seeds": [r.seed for r in self.results],
            "aggregates": self.aggregates,
        }


def _jsonify(obj):
    """Make a document strictly JSON-serializable; NaN becomes null.

    A report's document is its fields: a dataclass becomes a dict of its
    fields in declaration order, and an array becomes nested lists.
    """
    if dataclasses.is_dataclass(obj):
        return {f.name: _jsonify(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, (np.floating,)):
        return _jsonify(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _write_json(path, doc) -> None:
    with atomic_write(path) as fh:
        json.dump(_jsonify(doc), fh, indent=2, allow_nan=False)
        fh.write("\n")


def run_all_seeds(config: ExperimentConfig, out_dir=None) -> AggregateResult:
    """Run every configured seed sequentially and aggregate.

    With out_dir, each seed's JSON and checkpoint are written to
    out_dir/<config hash>/ as soon as that seed finishes, so a later
    seed that fails leaves the finished ones on disk; aggregate.json is
    written last. The directory is created at the first write. Values
    in each aggregate are ordered by ascending seed so the output is
    independent of execution order.
    """
    chash = config_hash(config)
    run_dir = None if out_dir is None else Path(out_dir) / chash
    results = []
    for seed in config.seeds:
        result = run_training(config, seed)
        if run_dir is not None:
            _write_trial(result, run_dir)
        results.append(result)
    results.sort(key=lambda r: r.seed)
    aggregates = {}
    for key in AGGREGATED_METRICS:
        vals = [_metric_value(r, key) for r in results]
        aggregates[key] = aggregate(vals)
    out = AggregateResult(chash, config, results, aggregates)
    if run_dir is not None:
        _write_json(run_dir / "aggregate.json", out.to_dict())
    return out


def _write_trial(result: TrialResult, run_dir: Path) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_json(run_dir / f"seed_{result.seed}.json", result.to_dict())
    model = result.model
    save_model(run_dir / f"checkpoint_seed_{result.seed}.json", model.sizes, model.raw, model.ema,
               config_hash=result.config_hash, seed=result.seed)


# ---------------------------------------------------------------------------
# Comparisons, sweeps, ratio grids
# ---------------------------------------------------------------------------


def percent_improvement(acc: float, baseline_acc: float, mode: str = "paper_a1") -> float:
    """Improvement of acc over a baseline accuracy.

    paper_a1 normalizes by the candidate: (acc - base) / acc.
    relative_to_baseline normalizes by the baseline: (acc - base) / base.
    """
    if mode not in IMPROVEMENT_MODES:
        raise ValueError(f"mode must be one of {IMPROVEMENT_MODES}, got {mode!r}")
    if mode == "paper_a1":
        if acc == 0:
            raise ValueError("paper_a1 improvement undefined at acc = 0")
        return (acc - baseline_acc) / acc
    if baseline_acc == 0:
        raise ValueError("relative improvement undefined at baseline 0")
    return (acc - baseline_acc) / baseline_acc


@dataclass
class SweepRow:
    value: object
    aggregates: dict[str, TrialAggregate]
    percent_improvement: float


@dataclass
class SweepResult:
    axis: str
    values: list
    baseline: object
    improvement_mode: str
    rows: list[SweepRow]
    improvement_variance: float

    def to_csv(self, path) -> None:
        stats = [(metric, stat) for metric in ("overall", "minority", "majority")
                 for stat in ("mean", "stderr")]
        with atomic_write(path) as fh:
            writer = csv.writer(fh)
            writer.writerow(["value"] + [f"{m}_{s}" for m, s in stats] + ["percent_improvement"])
            for row in self.rows:
                cells = [repr(getattr(row.aggregates[m], s)) for m, s in stats]
                writer.writerow([row.value] + cells + [repr(row.percent_improvement)])


def run_sweep(
    config: ExperimentConfig,
    axis: str,
    values: list,
    out_dir=None,
    baseline=None,
    improvement_mode: str | None = None,
) -> SweepResult:
    """Vary one axis, aggregate per value, and tabulate improvements.

    The improvement column compares each row's mean overall accuracy to
    the baseline row (by default the axis's AXES baseline if it is among
    the values, else the first value; the mode defaults per axis too).
    The baseline row's improvement is exactly zero by construction.
    improvement_variance is the sample variance of the improvement column.

    Values are cast to the axis type first, so duplicates are found
    among the cast values (r_test 1 and 1.0 are one value). Every
    value's config is derived and validated before any training, so a
    bad value raises ConfigError and leaves nothing written.
    """
    values = _axis_values(axis, values)
    defaults = AXES[axis]
    if baseline is None:
        baseline = defaults.baseline if defaults.baseline in values else values[0]
    baseline = _axis_value(axis, baseline)
    if baseline not in values:
        raise ConfigError(f"baseline {baseline!r} is not among the sweep values")
    if improvement_mode is None:
        improvement_mode = defaults.improvement_mode
    if improvement_mode not in IMPROVEMENT_MODES:
        raise ConfigError(f"improvement_mode must be one of {IMPROVEMENT_MODES}")

    configs = [axis_config(config, axis, value) for value in values]
    per_value = {value: run_all_seeds(cfg, out_dir=out_dir) for value, cfg in zip(values, configs)}
    base_acc = per_value[baseline].aggregates["overall"].mean
    rows = []
    for value, agg in per_value.items():
        acc = agg.aggregates["overall"].mean
        imp = 0.0 if value == baseline else percent_improvement(acc, base_acc, improvement_mode)
        rows.append(SweepRow(value=value, aggregates=agg.aggregates, percent_improvement=imp))
    imps = [r.percent_improvement for r in rows]
    variance = float(np.var(imps, ddof=1)) if len(imps) > 1 else 0.0
    result = SweepResult(
        axis=axis,
        values=values,
        baseline=baseline,
        improvement_mode=improvement_mode,
        rows=rows,
        improvement_variance=variance,
    )
    if out_dir is not None:
        sweep_dir = Path(out_dir)
        sweep_dir.mkdir(parents=True, exist_ok=True)
        _write_json(sweep_dir / f"sweep_{axis}.json", result)
        result.to_csv(sweep_dir / f"sweep_{axis}.csv")
    return result


def _best_train_ratio(grid: dict[tuple[float, float], float], rt: float) -> float:
    """The training ratio with the best accuracy at test ratio rt.

    Exact ties go to the candidate closest to rt, then to the smaller ratio.
    """
    candidates = [(rtr, acc) for (rtr, t), acc in grid.items() if t == rt]
    return min(candidates, key=lambda p: (-p[1], abs(p[0] - rt), p[0]))[0]


def _mean_gap(grid: dict[tuple[float, float], float], where) -> float:
    """Mean |where(best training ratio) - where(test ratio)| over the grid's test ratios."""
    if not grid:
        raise ValueError("empty accuracy grid")
    test_ratios = sorted({rt for (_, rt) in grid})
    return float(np.mean([abs(where(_best_train_ratio(grid, rt)) - where(rt)) for rt in test_ratios]))


def misalignment(grid: dict[tuple[float, float], float]) -> float:
    """Mean |best training ratio - test ratio| over the test ratios.

    grid maps (r_train, r_test) to accuracy. For each test ratio the
    best training ratio maximizes accuracy (see _best_train_ratio for
    the tie-break).
    """
    return _mean_gap(grid, lambda r: r)


def misalignment_steps(grid: dict[tuple[float, float], float]) -> float:
    """Mean grid-index distance between best training and test ratios.

    Test ratios must appear among the training ratios so both live on
    the same ladder; the answer is in units of grid steps.
    """
    pos = {r: i for i, r in enumerate(sorted({r for (r, _) in grid}))}
    missing = sorted({rt for (_, rt) in grid} - pos.keys())
    if missing:
        raise ValueError(f"test ratios {missing} not on the training-ratio ladder")
    return _mean_gap(grid, pos.__getitem__)


def _grid_doc(grid: dict[tuple[float, float], float]) -> list[dict]:
    return [{"r_train": rt, "r_test": rs, "accuracy": acc} for (rt, rs), acc in sorted(grid.items())]


@dataclass
class RatioGridResult:
    train_ratios: list[float]
    test_ratios: list[float]
    seeds: list[int]
    per_seed: list[dict[tuple[float, float], float]]
    mean_grid: dict[tuple[float, float], float]
    misalignment_per_seed: list[float]
    misalignment_steps_per_seed: list[float]
    misalignment_mean: float
    misalignment_steps_mean: float

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        doc["per_seed"] = [_grid_doc(g) for g in self.per_seed]
        doc["mean_grid"] = _grid_doc(self.mean_grid)
        return doc


def run_ratio_grid(
    config: ExperimentConfig,
    train_ratios: list[float],
    test_ratios: list[float],
    out_dir=None,
) -> RatioGridResult:
    """Accuracy over the full r_train x r_test grid, per seed.

    Each (seed, r_train) model is trained once, without the train accuracy
    trajectory that nothing here reads, and evaluated against every
    curated test split. The ratios change no data setting, so
    each seed's pools are built once, all first, in seed order: every
    train ratio curates its split from the seed's train pool, and the
    test splits are curated once, before the models train. The per-ratio
    configs come from the r_train and r_test sweep axes and are all
    validated before any training; _axis_values refuses an empty list or
    a duplicate ratio, and a test ratio off the train-ratio ladder
    raises ConfigError. Each train ratio makes one train_model call with
    all its seeds, which train as one stack where train_model can stack
    them; so of several failing cells, the first in (train ratio, step)
    order may be named, not the first in seed order.
    """
    train_ratios = _axis_values("r_train", train_ratios)
    test_ratios = _axis_values("r_test", test_ratios)
    train_cfgs = [axis_config(config, "r_train", rt) for rt in train_ratios]
    test_cfgs = [axis_config(config, "r_test", rs) for rs in test_ratios]
    off_ladder = sorted(set(test_ratios) - set(train_ratios))
    if off_ladder:
        raise ConfigError(f"test ratios {off_ladder} not on the training-ratio ladder")
    seeds = list(config.seeds)
    pools = [build_pools(config, seed) for seed in seeds]
    test_splits = [[curate_test_split(cfg, test_pool, seed) for cfg in test_cfgs]
                   for seed, (_, test_pool) in zip(seeds, pools)]
    per_seed: list[dict[tuple[float, float], float]] = [{} for _ in seeds]
    for cfg in train_cfgs:
        splits = [curate_train_split(cfg, pool, seed) for seed, (pool, _) in zip(seeds, pools)]
        models = train_model(cfg, seeds, splits, track_train_acc=False)
        for seed, model, cells, seed_tests in zip(seeds, models, per_seed, test_splits):
            mlp = model.eval_mlp()
            for test_cfg, test_split in zip(test_cfgs, seed_tests):
                cells[(cfg.r_train, test_cfg.r_test)] = _accuracy(
                    mlp, test_split, f"evaluation failed predicting the test split (seed "
                                     f"{seed}, r_train {cfg.r_train}, r_test {test_cfg.r_test})")
    mean_grid = {
        key: float(np.mean([g[key] for g in per_seed])) for key in per_seed[0]
    }
    mis = [misalignment(g) for g in per_seed]
    steps = [misalignment_steps(g) for g in per_seed]
    result = RatioGridResult(
        train_ratios=train_ratios,
        test_ratios=test_ratios,
        seeds=seeds,
        per_seed=per_seed,
        mean_grid=mean_grid,
        misalignment_per_seed=mis,
        misalignment_steps_per_seed=steps,
        misalignment_mean=float(np.mean(mis)),
        misalignment_steps_mean=float(np.mean(steps)),
    )
    if out_dir is not None:
        grid_dir = Path(out_dir)
        grid_dir.mkdir(parents=True, exist_ok=True)
        _write_json(grid_dir / "ratio_grid.json", result.to_dict())
    return result
