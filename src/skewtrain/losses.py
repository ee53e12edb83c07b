"""Supervised and self-supervised loss terms built from tape primitives.

Supervised losses are per-example vectors over the batch: cross-entropy
against one-hot or smoothed targets (cross_entropy_vec) and focal loss
(focal_vec). This module does not reduce them. The one reduction that
training uses, with class weights for the reweighted loss, its deferral
epoch and the SAM ascent weights, is harness.supervised_loss.
vicreg_loss and joint_loss are the self-supervised term and the joint
objective ssl + lam * supervised.

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


def joint_loss(tape: Tape, supervised: Var, ssl: Var, spec: JointLossSpec) -> Var:
    """Total objective ssl + lam * supervised."""
    return ssl + supervised * spec.lam
