"""SGD with momentum, cosine schedule, EMA, and sharpness-aware gradients.

The parameters are one 1-D float64 vector, theta, and the velocity and
EMA are plain vectors in its layout, which models owns. sgd_update,
ema_update and sam_perturb write through out= into buffers the caller
keeps for the whole trial, so a step allocates no vector of theta's size.
Each applies its formula's ufuncs in the formula's order to the same
operands, so the results equal the plain expressions' bit for bit
(tests/test_optim.py keeps those as the reference) and trajectories are
bit-reproducible.

Every training step ends the same way: one sgd_update with the step's
gradient, then one ema_update. Sharpness-aware minimization only changes
which gradient that is. sam_step computes the ascent-loss gradient at
theta, moves rho_eff along its normalized direction (sam_perturb), and
returns the descent-loss gradient at the moved point. The
class-conditional modes (sam_a_*) weight the per-example ascent losses by
per-class radii (rho_per_class, fixed over a trial) and use the batch
mean radius as rho_eff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SamSpec, TrainConfig
from .data import ClassProfile


@dataclass
class StepInfo:
    ascent_loss: float
    descent_loss: float
    rho_eff: float
    ascent_skipped: bool


def sgd_update(theta: np.ndarray, grad: np.ndarray, lr: float, config: TrainConfig,
               velocity: np.ndarray, scratch: np.ndarray) -> None:
    """One momentum step with coupled weight decay, in place.

    g <- grad + weight_decay * theta
    v <- momentum * v + g
    theta <- theta - lr * v

    theta and velocity are updated in place and grad is only read;
    scratch, a vector of theta's size, holds g and then lr * v.
    """
    g = np.add(grad, np.multiply(config.weight_decay, theta, out=scratch), out=scratch)
    np.add(np.multiply(config.momentum, velocity, out=velocity), g, out=velocity)
    np.subtract(theta, np.multiply(lr, velocity, out=scratch), out=theta)


def cosine_lr(epoch: int, config: TrainConfig) -> float:
    """Linear warmup to lr0, then cosine decay toward zero."""
    if not 0 <= epoch < config.epochs:
        raise ValueError(f"epoch {epoch} outside [0, {config.epochs})")
    if epoch < config.warmup_epochs:
        return config.lr0 * (epoch + 1) / config.warmup_epochs
    span = config.epochs - config.warmup_epochs
    return config.lr0 * 0.5 * (1.0 + math.cos(math.pi * (epoch - config.warmup_epochs) / span))


def ema_update(ema: np.ndarray, theta: np.ndarray, decay: float, scratch: np.ndarray) -> None:
    """ema <- decay * ema + (1 - decay) * theta, in place; scratch holds the second term."""
    np.add(np.multiply(decay, ema, out=ema), np.multiply(1.0 - decay, theta, out=scratch), out=ema)


def rho_per_class(profile: ClassProfile, spec: SamSpec) -> np.ndarray | None:
    """Per-class ascent radii of a class-conditional mode at rho > 0; None for any other.

    paper mode:   rho_c = rho / (1 - p_c)
    inverse mode: rho_c = min(10 * rho, rho * (1/K) / p_c)
    """
    if spec.mode not in ("sam_a_paper", "sam_a_inverse") or not spec.rho > 0.0:
        return None
    p = profile.proportions
    if profile.num_classes < 2:
        raise ValueError("class-conditional radii need at least two classes")
    if spec.mode == "sam_a_paper":
        return spec.rho / (1.0 - p)
    # Group the proportion ratio first: with exactly uniform classes
    # (1/K) / p_c is exactly 1.0, so rho_c lands bitwise on rho.
    return np.minimum(10.0 * spec.rho, spec.rho * ((1.0 / profile.num_classes) / p))


def sam_perturb(theta: np.ndarray, grad: np.ndarray, rho_eff: float, bounds, out: np.ndarray):
    """Move rho_eff along the normalized ascent gradient.

    Returns (perturbed_theta, ascent_skipped). The moved point
    theta + (rho_eff / norm) * grad is written into out, a vector of
    theta's size; without a move theta itself is returned and out is not
    touched. The norm sums squares per tensor over bounds
    (models.tensor_bounds), as one sum over theta rounds differently; a
    zero norm skips the move and flags it.
    """
    if rho_eff == 0.0:
        return theta, False
    norm = math.sqrt(sum(float(np.square(grad[a:b]).sum()) for a, b in bounds))
    if norm == 0.0:
        return theta, True
    return np.add(theta, np.multiply(rho_eff / norm, grad, out=out), out=out), False


def sam_step(theta: np.ndarray, loss_and_grads, rho: float, radii: np.ndarray | None, bounds,
             perturbed: np.ndarray):
    """The sharpness-aware gradient at theta: (descent_loss, descent_grad, StepInfo).

    loss_and_grads(theta, example_weights) -> (loss_value, grad), grad in
    theta's layout. radii holds the batch examples' rows of
    rho_per_class's radii, or None where rho_per_class gives None. The ascent
    pass then weights example i by radii[i] / rho (the callee averages
    s_i * l_i / sum(s_i)), and rho_eff is the batch mean radius; without
    radii the ascent is unweighted and rho_eff is rho. bounds, the
    tensors' offsets in theta (models.tensor_bounds), and perturbed, the
    buffer the moved point is written into, go to sam_perturb. At rho 0
    without radii nothing moves and the ascent pass is the descent pass,
    so loss_and_grads runs once and both losses are its loss. The caller
    applies the returned gradient with sgd_update.
    """
    weights, rho_eff = None, float(rho)
    if radii is not None:
        weights = radii / rho
        # The mean of an all-equal vector is that value; summing would
        # round it (128 copies of 0.1 average to 0.1 plus an ulp), which
        # matters when this path must degenerate to plain sam exactly.
        rho_eff = float(radii[0]) if np.all(radii == radii[0]) else float(radii.mean())
    ascent_loss, ascent_grad = loss_and_grads(theta, weights)
    if weights is None and rho_eff == 0.0:
        info = StepInfo(float(ascent_loss), float(ascent_loss), rho_eff, False)
        return ascent_loss, ascent_grad, info
    moved, skipped = sam_perturb(theta, ascent_grad, rho_eff, bounds, perturbed)
    descent_loss, descent_grad = loss_and_grads(moved, None)
    info = StepInfo(float(ascent_loss), float(descent_loss), rho_eff, skipped)
    return descent_loss, descent_grad, info
