"""SGD with momentum, cosine schedule, EMA, and sharpness-aware steps.

The parameters are one 1-D float64 vector, theta, and the velocity and
EMA share its layout, which models owns. Every update is functional
(new vectors, inputs untouched) so trajectories are bit-reproducible.

The sharpness-aware step is two-phase: compute the ascent-loss gradient
at the current point, move rho_eff along its normalized direction,
compute the descent-loss gradient there, then apply a plain SGD update
at the original point. The class-conditional variant (sam_a_*) scales
per-example ascent losses by a per-class radius and uses the batch mean
radius as rho_eff. sam_step looks the batch radii up once and derives
both the ascent weights and rho_eff from them; sam_perturb only moves
the parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import ClassProfile

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


@dataclass
class OptimState:
    velocity: np.ndarray
    ema: np.ndarray
    ema_decay: float


@dataclass
class StepInfo:
    ascent_loss: float
    descent_loss: float
    rho_eff: float
    ascent_skipped: bool


def init_state(theta: np.ndarray, ema_decay: float = 0.999) -> OptimState:
    """Zero velocity; EMA starts as a copy of the initial parameters."""
    if not 0.0 <= ema_decay <= 1.0:
        raise ValueError("ema_decay must be in [0, 1]")
    return OptimState(velocity=np.zeros_like(theta), ema=theta.copy(), ema_decay=ema_decay)


def sgd_update(theta: np.ndarray, grad: np.ndarray, lr: float, config: TrainConfig, state: OptimState):
    """One momentum step with coupled weight decay.

    g <- grad + weight_decay * theta
    v <- momentum * v + g
    theta <- theta - lr * v
    """
    g = grad + config.weight_decay * theta
    v = config.momentum * state.velocity + g
    return theta - lr * v, OptimState(v, state.ema, state.ema_decay)


def cosine_lr(epoch: int, config: TrainConfig) -> float:
    """Linear warmup to lr0, then cosine decay toward zero."""
    if not 0 <= epoch < config.epochs:
        raise ValueError(f"epoch {epoch} outside [0, {config.epochs})")
    if epoch < config.warmup_epochs:
        return config.lr0 * (epoch + 1) / config.warmup_epochs
    span = config.epochs - config.warmup_epochs
    return config.lr0 * 0.5 * (1.0 + math.cos(math.pi * (epoch - config.warmup_epochs) / span))


def ema_update(state: OptimState, theta: np.ndarray) -> OptimState:
    """ema <- d * ema + (1 - d) * theta, with d the stored state.ema_decay."""
    d = state.ema_decay
    return OptimState(state.velocity, d * state.ema + (1.0 - d) * theta, d)


def rho_per_class(profile: ClassProfile, spec: SamSpec) -> np.ndarray:
    """Per-class ascent radii for the class-conditional modes.

    paper mode:   rho_c = rho / (1 - p_c)
    inverse mode: rho_c = min(10 * rho, rho * (1/K) / p_c)
    """
    if spec.mode not in ("sam_a_paper", "sam_a_inverse"):
        raise ValueError(f"per-class radii undefined for mode {spec.mode!r}")
    p = profile.proportions
    if profile.num_classes < 2:
        raise ValueError("class-conditional radii need at least two classes")
    if spec.mode == "sam_a_paper":
        return spec.rho / (1.0 - p)
    # Group the proportion ratio first: with exactly uniform classes
    # (1/K) / p_c is exactly 1.0, so rho_c lands bitwise on rho.
    return np.minimum(10.0 * spec.rho, spec.rho * ((1.0 / profile.num_classes) / p))


def sam_perturb(theta: np.ndarray, grad: np.ndarray, rho_eff: float, bounds):
    """Move rho_eff along the normalized ascent gradient.

    Returns (perturbed_theta, ascent_skipped). The norm sums squares per
    tensor over bounds (models.tensor_bounds), as one sum over theta
    rounds differently; a zero norm skips the move and flags it.
    """
    if rho_eff == 0.0:
        return theta, False
    norm = math.sqrt(sum(float(np.square(grad[a:b]).sum()) for a, b in bounds))
    if norm == 0.0:
        return theta, True
    return theta + (rho_eff / norm) * grad, False


def sam_step(
    theta: np.ndarray,
    state: OptimState,
    lr: float,
    config: TrainConfig,
    spec: SamSpec,
    loss_and_grads,
    bounds,
    batch_labels: np.ndarray | None = None,
    profile: ClassProfile | None = None,
):
    """Two forward/backward passes, one SGD update, one EMA update.

    loss_and_grads(theta, example_weights) -> (loss_value, grad), grad in
    theta's layout; example_weights is None except for the class-conditional
    ascent pass, where the callee should average s_i * l_i / sum(s_i).
    bounds, the tensors' offsets in theta (models.tensor_bounds), go to sam_perturb.
    """
    if spec.mode == "off":
        raise ValueError("sam_step called with mode 'off'; use sgd_update")
    weights, rho_eff = None, float(spec.rho)
    if spec.mode != "sam":
        if batch_labels is None or profile is None:
            raise ValueError("class-conditional modes need batch labels and a profile")
        labels = np.asarray(batch_labels, dtype=np.int64)
        if labels.size == 0:
            raise ValueError("empty batch")
        if spec.rho > 0.0:
            radii = rho_per_class(profile, spec)[labels]
            weights = radii / spec.rho
            # The mean of an all-equal vector is that value; summing
            # would round it (128 copies of 0.1 average to 0.1 plus an
            # ulp), which matters when this path must degenerate to
            # plain sam exactly.
            rho_eff = float(radii[0]) if np.all(radii == radii[0]) else float(radii.mean())
    ascent_loss, ascent_grad = loss_and_grads(theta, weights)
    perturbed, skipped = sam_perturb(theta, ascent_grad, rho_eff, bounds)
    descent_loss, descent_grad = loss_and_grads(perturbed, None)
    new_theta, new_state = sgd_update(theta, descent_grad, lr, config, state)
    new_state = ema_update(new_state, new_theta)
    info = StepInfo(
        ascent_loss=float(ascent_loss),
        descent_loss=float(descent_loss),
        rho_eff=rho_eff,
        ascent_skipped=skipped,
    )
    return new_theta, new_state, info
