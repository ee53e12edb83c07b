"""Small fully connected networks with an exposed penultimate layer.

The classifier is a plain MLP: affine layers with ReLU between them,
logits from the last affine layer, and the post-activation output of
the layer before it ("penultimate features") exposed for collapse
diagnostics. The projector head that maps those features to an
embedding space for self-supervised objectives is a stack of the same
construction, so one type (MLPParams) and one initializer (mlp_init)
serve both.

Parameters live as named float64 arrays ({prefix.w0, prefix.b0, ...}).
There is one tape forward, forward_stack, which runs a stack on leaves
the caller registered, so gradients come back per name; mlp_predict is
its plain numpy mirror for evaluation. Checkpoints are JSON documents
written atomically.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .autodiff import Var, add_row_bias, op_apply

CHECKPOINT_FORMAT_VERSION = 1


@dataclass
class MLPParams:
    """Weights and biases for a layer stack given as [d_in, h1, ..., d_out].

    The classifier ([d, hidden..., K]) and the projector head
    ([hidden[-1], ...]) are both stacks of this kind.
    """

    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]


def mlp_init(layer_sizes: list[int], seed: int, init: str = "he_normal") -> MLPParams:
    """Seeded init; he_normal draws N(0, 2/fan_in), biases start at zero."""
    if len(layer_sizes) < 2:
        raise ValueError(f"need at least input and output sizes, got {layer_sizes}")
    if any(s < 1 for s in layer_sizes):
        raise ValueError(f"layer sizes must be positive, got {layer_sizes}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        if init == "he_normal":
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
        elif init == "uniform_small":
            w = rng.uniform(-0.05, 0.05, size=(fan_in, fan_out))
        else:
            raise ValueError(f"unknown init {init!r}")
        weights.append(np.ascontiguousarray(w))
        biases.append(np.zeros(fan_out))
    return MLPParams(list(layer_sizes), weights, biases)


def params_to_named(params, prefix: str) -> dict[str, np.ndarray]:
    """Flatten a parameter stack to {prefix.w0, prefix.b0, ...}."""
    named = {}
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        named[f"{prefix}.w{i}"] = w
        named[f"{prefix}.b{i}"] = b
    return named


def named_to_mlp(named: dict[str, np.ndarray], layer_sizes: list[int], prefix: str = "mlp") -> MLPParams:
    """Rebuild a stack from {prefix.w0, prefix.b0, ...}; other keys are ignored.

    A missing tensor, or one whose shape disagrees with layer_sizes,
    raises ValueError naming it.
    """
    if len(layer_sizes) < 2:
        raise ValueError(f"need at least input and output sizes, got {layer_sizes}")

    def tensor(name, shape):
        if name not in named:
            raise ValueError(f"missing tensor {name} for layer sizes {list(layer_sizes)}")
        arr = np.asarray(named[name], dtype=np.float64)
        if arr.shape != shape:
            raise ValueError(f"tensor {name} has shape {arr.shape}, layer sizes need {shape}")
        return arr

    pairs = list(enumerate(zip(layer_sizes[:-1], layer_sizes[1:])))
    weights = [tensor(f"{prefix}.w{i}", (fan_in, fan_out)) for i, (fan_in, fan_out) in pairs]
    biases = [tensor(f"{prefix}.b{i}", (fan_out,)) for i, (_, fan_out) in pairs]
    return MLPParams(list(layer_sizes), weights, biases)


def forward_stack(x: Var, leaves: dict[str, Var], n_layers: int, prefix: str):
    """Affine chain with ReLU between layers; returns (output, last hidden post-ReLU)."""
    h = x
    penultimate = None
    for i in range(n_layers):
        z = add_row_bias(op_apply("matmul", [h, leaves[f"{prefix}.w{i}"]]), leaves[f"{prefix}.b{i}"])
        if i < n_layers - 1:
            h = z.relu()
            penultimate = h
        else:
            h = z
    return h, penultimate


def mlp_predict(params: MLPParams, x: np.ndarray):
    """Tape-free inference: (labels, softmax probabilities, penultimate).

    Plain numpy mirror of forward_stack for evaluation loops and grids.
    """
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != params.layer_sizes[0]:
        raise ValueError(f"input shape {h.shape} does not match d_in={params.layer_sizes[0]}")
    penultimate = h
    n = len(params.weights)
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w + b
        if i < n - 1:
            h = np.maximum(h, 0.0)
            penultimate = h
    shifted = h - h.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    return probs.argmax(axis=1), probs, penultimate


@contextmanager
def atomic_write(path):
    """Open a text file that replaces path only once the block finishes.

    Writes go to a temporary file beside path, which os.replace moves
    into place; if the block raises, path keeps its old contents and
    the temporary file is removed. The file is opened with newline=""
    so the csv module's row terminators reach the disk unchanged.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_checkpoint(path, named: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write named tensors as JSON: format_version, meta, name/shape/values."""
    tensors = []
    for name in sorted(named):
        arr = np.asarray(named[name], dtype=np.float64)
        tensors.append({
            "name": name,
            "shape": list(arr.shape),
            "values": arr.reshape(-1).tolist(),
        })
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "meta": meta or {},
        "tensors": tensors,
    }
    with atomic_write(path) as fh:
        json.dump(doc, fh)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint back.

    Unknown format versions and malformed documents raise ValueError.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: checkpoint must be a JSON object")
    version = doc.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {version!r}")
    meta = doc.get("meta", {})
    if not isinstance(doc.get("tensors"), list) or not isinstance(meta, dict):
        raise ValueError(f"{path}: checkpoint needs a tensors list and a meta object")
    named = {}
    for i, entry in enumerate(doc["tensors"]):
        try:
            named[entry["name"]] = np.array(entry["values"], dtype=np.float64).reshape(entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed tensor entry {i}: {exc!r}") from None
    return named, meta
