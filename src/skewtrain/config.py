"""The experiment config: its dataclasses and their checks, the strict parser, the hash.

Every knob of a run is a field of ExperimentConfig or of a spec below
it, and each dataclass checks its own fields in __post_init__.
config_from_dict builds a config from a JSON document strictly: an
unknown key is an error, no value is converted (a bool is not a
number), and every refusal is a ConfigError that names the field by its
dotted path. config_hash, the first 12 hex digits of the SHA-256 of the
canonical JSON form, names every results file, so a field's name, type
or default is part of the results' format. This module imports no other
skewtrain module, so every layer can use it.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import reprlib
import typing
import warnings
from dataclasses import dataclass, field


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass
class DataSpec:
    """Where samples come from: a synthetic mixture or CSV files.

    The mixture's fields are checked only for kind gaussian; a csv spec
    reads none of them.
    """

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
        if self.kind == "gaussian":
            for name, least in (("classes", 2), ("dim", 2), ("train_per_class", 1),
                                ("test_per_class", 1)):
                if getattr(self, name) < least:
                    raise ValueError(f"{name} must be >= {least}")
            if self.sigma <= 0:
                raise ValueError("sigma must be > 0")
            if self.mean_radius < 0:
                raise ValueError("mean_radius must be >= 0")
        if not 0.0 < self.test_frac < 1.0:
            raise ValueError("test_frac must be in (0, 1)")


SAM_MODES = ("off", "sam", "sam_a_paper", "sam_a_inverse")


@dataclass
class TrainConfig:
    lr0: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 2e-4
    epochs: int = 200
    warmup_epochs: int = 5
    batch_size: int = 32

    def __post_init__(self):
        if self.lr0 <= 0:
            raise ValueError("lr0 must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ValueError("warmup_epochs must be in [0, epochs)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class SamSpec:
    rho: float = 0.05
    mode: str = "off"

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError("rho must be >= 0")
        if self.mode not in SAM_MODES:
            raise ValueError(f"mode must be one of {SAM_MODES}, got {self.mode!r}")


SMOOTHING_MODES = ("paper_formula", "inverse_proportion")


@dataclass
class SmoothingSpec:
    """Class-conditional label smoothing.

    It has two modes because the source material is ambiguous about
    direction: `paper_formula` uses eps_i = eps / (1 - p_i), which grows
    with class share, while `inverse_proportion` uses
    eps_i = eps * (1/K) / p_i, which shrinks with it. Both clamp to
    epsilon_max.
    """

    epsilon: float = 0.1
    mode: str = "paper_formula"
    epsilon_max: float = 0.8

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must be in [0, 1)")
        if self.mode not in SMOOTHING_MODES:
            raise ValueError(f"mode must be one of {SMOOTHING_MODES}, got {self.mode!r}")
        if not 0.0 <= self.epsilon_max < 1.0:
            raise ValueError("epsilon_max must be in [0, 1)")


@dataclass
class FocalSpec:
    gamma: float = 2.0

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")


@dataclass
class ReweightSpec:
    defer_epoch: int = 0

    def __post_init__(self):
        if self.defer_epoch < 0:
            raise ValueError("defer_epoch must be >= 0")


@dataclass
class VicRegSpec:
    var_weight: float = 25.0
    cov_weight: float = 1.0
    inv_weight: float = 25.0
    margin: float = 1.0
    eps_num: float = 1e-4

    def __post_init__(self):
        for name in ("var_weight", "cov_weight", "inv_weight", "margin"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.eps_num < 0:
            raise ValueError("eps_num must be >= 0")


@dataclass
class JointLossSpec:
    lam: float = 1.0

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")


@dataclass
class AugmentSpec:
    """Gaussian jitter plus per-feature dropout for view generation."""

    sigma: float = 0.1
    feature_dropout_prob: float = 0.0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if not 0.0 <= self.feature_dropout_prob < 1.0:
            raise ValueError("feature_dropout_prob must be in [0, 1)")


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
