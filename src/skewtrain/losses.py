"""Supervised and self-supervised loss terms, in numpy and on the tape.

Supervised losses are per-example vectors over the batch: cross-entropy
against one-hot or smoothed targets and focal loss. This module does
not reduce them. The one reduction that training uses, with class
weights for the reweighted loss, its deferral epoch and the SAM ascent
weights, lives in harness. vicreg_loss and joint_loss are the
self-supervised term and the joint objective ssl + lam * supervised.

Training uses the closed-form numpy forms: cross_entropy_and_grad and
focal_and_grad, which take the adjoint of their losses, and
vicreg_and_grads, whose adjoint is 1. Each returns values and gradients
together. They repeat the tape's operations in its order, and their
backward passes walk the tape's reverse node order, so values and
gradients match the tape bit for bit. Their row reductions go through
models.row_max and row_sum, numpy's reductions bit for bit, made cheap
for short rows. cross_entropy_and_grad and focal_and_grad also take
(T, B, K) stacks of trials. The tape forms (cross_entropy_vec,
focal_vec, vicreg_loss, joint_loss) are the reference those are tested
against.

Class-conditional label smoothing has two modes because the source
material is ambiguous about direction: `paper_formula` uses
eps_i = eps / (1 - p_i), which grows with class share, while
`inverse_proportion` uses eps_i = eps * (1/K) / p_i, which shrinks
with it. Both clamp to epsilon_max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tape,
    Var,
    add_row_bias,
    concat_rows,
    col_means,
    diag_part,
    frobenius_sq,
    log_softmax_rows,
    powc,
    reduce_sum,
    row_sums,
)
from .data import ClassProfile
from .models import check_finite, row_max, row_sum

SMOOTHING_MODES = ("paper_formula", "inverse_proportion")


@dataclass
class SmoothingSpec:
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


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be a vector, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels outside [0, {num_classes})")
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def _check_targets(logits: Var, targets: np.ndarray) -> np.ndarray:
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != logits.shape:
        raise ValueError(f"targets shape {targets.shape} does not match logits {logits.shape}")
    if np.any(targets < 0):
        raise ValueError("target distributions must be non-negative")
    sums = targets.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-9)
    if bad.size:
        raise ValueError(f"target rows do not sum to 1 (first offender: row {bad[0]})")
    return targets


def _log_softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise log softmax of a (..., B, K) array, shifted by the row maximum."""
    shifted = x - row_max(x)
    return shifted - np.log(row_sum(np.exp(shifted), keepdims=True))


def _log_softmax_grad(g: np.ndarray, lsm: np.ndarray) -> np.ndarray:
    return g - np.exp(lsm) * row_sum(g, keepdims=True)


def cross_entropy_and_grad(logits: np.ndarray, targets: np.ndarray, g):
    """Numpy cross_entropy_vec: (per-example losses, logit gradient).

    g is the adjoint of the (..., B) losses: an array of their shape or,
    when every example has the same one, a scalar. Each product is the
    same either way, so the gradients match bit for bit.
    """
    lsm = _log_softmax(logits)
    vec = row_sum(lsm * targets) * -1.0
    g = g * -1.0
    if isinstance(g, np.ndarray):
        g = g[..., None]
    return vec, _log_softmax_grad(g * targets, lsm)


def focal_and_grad(logits: np.ndarray, hot: np.ndarray, spec: FocalSpec, g):
    """Numpy focal_vec: (per-example losses, logit gradient), as cross_entropy_and_grad.

    The adjoint g may be a scalar here too. hot holds the one-hot rows of
    the labels. The power-rule term g * -log p_t * gamma *
    (1 - p_t)^(gamma - 1) is 0 where g * -log p_t is 0, as on the tape:
    with gamma < 1 the power is infinite once p_t rounds to 1, where
    -log p_t is 0 and the term's limit is 0. Any other non-finite term
    raises NumericalError, for one trial's (B, K) logits or a stack's alike.
    """
    lsm = _log_softmax(logits)
    log_pt = row_sum(lsm * hot)
    pt = np.exp(log_pt)
    one_minus_pt = pt * -1.0 + 1.0
    gamma = float(spec.gamma)
    weight = np.power(one_minus_pt, gamma)
    neg_log_pt = log_pt * -1.0
    if gamma == 0.0:
        g_base = np.zeros_like(one_minus_pt)
    else:
        g_pow = g * neg_log_pt
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.power(one_minus_pt, gamma - 1.0)
            g_base = np.where(g_pow == 0.0, g_pow * gamma, g_pow * gamma * slope)
    check_finite(g_base, "non-finite focal power-rule gradient")
    g_log_pt = g * weight * -1.0 + g_base * -1.0 * pt
    return weight * neg_log_pt, _log_softmax_grad(g_log_pt[..., None] * hot, lsm)


def cross_entropy_vec(tape: Tape, logits: Var, targets: np.ndarray) -> Var:
    """Per-example cross-entropy -sum_j t_j log softmax(z)_j, shape (B,)."""
    targets = _check_targets(logits, targets)
    lsm = log_softmax_rows(logits)
    return row_sums(lsm * tape.constant(targets)) * -1.0


def class_epsilons(profile: ClassProfile, spec: SmoothingSpec) -> np.ndarray:
    """Per-class smoothing strengths, clamped to [0, epsilon_max]."""
    p = profile.proportions
    if profile.num_classes < 2:
        raise ValueError("smoothing needs at least two classes")
    if spec.mode == "paper_formula":
        eps = spec.epsilon / (1.0 - p)
    else:
        eps = spec.epsilon * (1.0 / profile.num_classes) / p
    return np.minimum(eps, spec.epsilon_max)


def smoothed_targets(labels: np.ndarray, profile: ClassProfile, spec: SmoothingSpec) -> np.ndarray:
    """Rows q_j = (1 - eps_y) 1[y = j] + eps_y / K; each row sums to 1."""
    labels = np.asarray(labels, dtype=np.int64)
    eps = class_epsilons(profile, spec)[labels]
    k = profile.num_classes
    q = np.full((labels.size, k), 0.0) + (eps / k)[:, None]
    q[np.arange(labels.size), labels] += 1.0 - eps
    return q


def focal_vec(tape: Tape, logits: Var, labels: np.ndarray, spec: FocalSpec) -> Var:
    """Per-example focal term -(1 - p_t)^gamma * log p_t, shape (B,)."""
    hot = one_hot(labels, logits.shape[1])
    lsm = log_softmax_rows(logits)
    log_pt = row_sums(lsm * tape.constant(hot))
    pt = log_pt.exp()
    return powc(1.0 - pt, spec.gamma) * (-log_pt)


def reweight_class_weights(profile: ClassProfile) -> np.ndarray:
    """w_c = n / (K * n_c); the class-frequency-weighted mean of w is 1."""
    return profile.n / (profile.num_classes * profile.counts.astype(np.float64))


def vicreg_loss(tape: Tape, z: Var, z_prime: Var, spec: VicRegSpec) -> Var:
    """Variance hinge + off-diagonal covariance + invariance.

    Statistics come from the 2B mean-centered concatenated embeddings
    with population divisor 2B:

        L = (1/D) sum_k [ var_weight * max(0, margin - sqrt(C_kk + eps))
                          + cov_weight * sum_{k' != k} C_{k k'}^2 ]
            + inv_weight * ||Z - Z'||_F^2 / B
    """
    if z.shape != z_prime.shape:
        raise ValueError(f"view shapes differ: {z.shape} vs {z_prime.shape}")
    b, d = z.shape
    if b < 2:
        raise ValueError("vicreg needs batch size >= 2")
    w = concat_rows([z, z_prime])
    centered = add_row_bias(w, -col_means(w))
    cov = (centered.T @ centered) * (1.0 / (2 * b))
    diag = diag_part(cov)
    std = (diag + spec.eps_num).sqrt()
    hinge_sum = reduce_sum((spec.margin - std).relu())
    off_diag_sq = frobenius_sq(cov) - reduce_sum(diag.square())
    inv = frobenius_sq(z - z_prime)
    return (
        hinge_sum * (spec.var_weight / d)
        + off_diag_sq * (spec.cov_weight / d)
        + inv * (spec.inv_weight / b)
    )


def vicreg_and_grads(z: np.ndarray, z_prime: np.ndarray, spec: VicRegSpec):
    """Numpy vicreg_loss and its gradients for a unit adjoint: (loss, dz, dz').

    The joint objective is ssl + lam * supervised, so its ssl term
    always has adjoint 1.
    """
    if z.shape != z_prime.shape:
        raise ValueError(f"view shapes differ: {z.shape} vs {z_prime.shape}")
    b, d = z.shape
    if b < 2:
        raise ValueError("vicreg needs batch size >= 2")
    w = np.concatenate([z, z_prime], axis=0)
    centered = w + w.mean(axis=0) * -1.0
    # The tape transposes into a copy; centered.T @ centered would take
    # numpy's symmetric-product path and round differently.
    centered_t = centered.T.copy()
    cov = (centered_t @ centered) * (1.0 / (2 * b))
    diag = np.diagonal(cov).copy()
    std = np.sqrt(diag + spec.eps_num)
    slack = std * -1.0 + spec.margin
    hinge_sum = np.maximum(slack, 0.0).sum()
    off_diag_sq = np.square(cov).sum() + np.square(diag).sum() * -1.0
    diff = z + z_prime * -1.0
    inv = np.square(diff).sum()
    loss = (
        hinge_sum * (spec.var_weight / d)
        + off_diag_sq * (spec.cov_weight / d)
        + inv * (spec.inv_weight / b)
    )

    # Backward in the tape's reverse node order; where a value feeds two
    # ops, the later op's adjoint comes first in the sum.
    g_diff = 2.0 * diff * (spec.inv_weight / b)
    g_off = spec.cov_weight / d
    g_diag = 2.0 * diag * (g_off * -1.0)
    g_cov = 2.0 * cov * g_off
    g_slack = (spec.var_weight / d) * (slack > 0.0)
    g_diag = g_diag + g_slack * -1.0 / (2.0 * std)
    g_cov_diag = np.zeros_like(cov)
    np.fill_diagonal(g_cov_diag, g_diag)
    g_cov = g_cov + g_cov_diag
    g_prod = g_cov * (1.0 / (2 * b))
    g_centered_t = g_prod @ centered.T
    g_centered = centered_t.T @ g_prod + g_centered_t.T
    g_mean = g_centered.sum(axis=0) * -1.0
    g_w = g_centered + g_mean / (2 * b)
    return loss, g_diff + g_w[:b], g_diff * -1.0 + g_w[b:]


def joint_loss(tape: Tape, supervised: Var, ssl: Var, spec: JointLossSpec) -> Var:
    """Total objective ssl + lam * supervised."""
    return ssl + supervised * spec.lam
