"""Small fully connected networks with an exposed penultimate layer.

The classifier is a plain MLP: affine layers with ReLU between them,
logits from the last affine layer, and the post-activation output of
the layer before it ("penultimate features") exposed for collapse
diagnostics. The projector head that maps those features to an
embedding space for self-supervised objectives is a stack of the same
construction, so one type (MLPParams) and one initializer (mlp_init)
serve both.

Training keeps the parameters in one float64 vector whose layout this
module alone owns (pack, unpack, tensor_bounds). Names ({prefix.w0,
prefix.b0, ...}) exist only at the edges: save_model writes a trained
model's checkpoint, and named_to_mlp builds a stack from outside input,
such as a checkpoint, and checks every tensor's shape first. This module
alone writes checkpoints and decides what a valid list of layer sizes is.
There is one forward, the numpy mlp_forward, which training and
mlp_predict share and which checks every pre-activation; mlp_backward
is its closed-form backward and writes the gradients into views of the
caller's gradient vector. forward_stack runs the same stack on a tape:
it is the reference the numpy pair is tested against, bit for bit.
The numpy pair, unpack and the row reductions also take trials that
train in lockstep, stacked on a leading axis, and give each trial its
lone bytes. row_max and row_sum are numpy's reductions over the last
axis, bit for bit, made cheap for the short rows of class scores; the
closed-form losses, mlp_predict's softmax and the diagnostics reduce
rows through them, the tape through numpy itself.
Checkpoints are JSON documents written atomically.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .autodiff import NumericalError, Var, add_row_bias, op_apply

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


def _check_sizes(layer_sizes) -> None:
    """ValueError unless layer_sizes is a list of at least two positive ints, bools not among them."""
    if not (isinstance(layer_sizes, list) and len(layer_sizes) >= 2
            and all(type(s) is int and s >= 1 for s in layer_sizes)):
        raise ValueError(
            f"layer sizes must be a list of at least two positive ints, got {reprlib.repr(layer_sizes)}"
        )


def mlp_init(layer_sizes: list[int], seed: int) -> MLPParams:
    """Seeded He-normal init: weights N(0, 2/fan_in), biases zero."""
    _check_sizes(layer_sizes)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
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


def pack(stacks) -> np.ndarray:
    """One vector holding each stack's w0, b0, w1, b1, ... in turn, the stacks in order."""
    return np.concatenate([a.reshape(-1) for p in stacks for w, b in zip(p.weights, p.biases)
                           for a in (w, b)])


def unpack(vec: np.ndarray, sizes) -> list[MLPParams]:
    """The inverse of pack: the stacks of layer sizes in sizes, as views of vec.

    A (T, P) stack of vectors gives (T, ...) views. Nothing is copied or
    checked, as mlp_init fixed the layout of training's vectors.
    """
    stacks, start, lead = [], 0, vec.shape[:-1]
    for layer_sizes in sizes:
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            stop = start + fan_in * fan_out
            weights.append(vec[..., start:stop].reshape(*lead, fan_in, fan_out))
            start = stop + fan_out
            biases.append(vec[..., stop:start])
        stacks.append(MLPParams(layer_sizes, weights, biases))
    return stacks


def tensor_bounds(sizes) -> list[tuple[int, int]]:
    """(start, stop) of each tensor in pack's layout of the stacks of sizes."""
    stops = np.cumsum([n for s in sizes for fan_in, fan_out in zip(s[:-1], s[1:])
                       for n in (fan_in * fan_out, fan_out)]).tolist()
    return list(zip([0] + stops[:-1], stops))


def named_to_mlp(named: dict[str, np.ndarray], layer_sizes: list[int], prefix: str = "mlp") -> MLPParams:
    """Rebuild a stack from {prefix.w0, prefix.b0, ...}; other keys are ignored.

    Layer sizes other than a list of at least two positive ints, a
    missing tensor, or one whose shape disagrees with layer_sizes, raise
    ValueError naming it in full; sizes and shapes are shortened (reprlib).
    """
    _check_sizes(layer_sizes)
    pairs = list(enumerate(zip(layer_sizes[:-1], layer_sizes[1:])))
    wanted = [(f"{prefix}.w{i}", (fan_in, fan_out)) for i, (fan_in, fan_out) in pairs]
    wanted += [(f"{prefix}.b{i}", (fan_out,)) for i, (_, fan_out) in pairs]
    checked = []
    for name, shape in wanted:
        if name not in named:
            raise ValueError(f"missing tensor {name} for layer sizes {reprlib.repr(list(layer_sizes))}")
        arr = np.asarray(named[name], dtype=np.float64)
        if arr.shape != shape:
            raise ValueError(f"tensor {name} has shape {reprlib.repr(arr.shape)}, layer sizes need {shape}")
        checked.append(arr)
    return MLPParams(list(layer_sizes), checked[:len(pairs)], checked[len(pairs):])


def forward_stack(x: Var, leaves: dict[str, Var], n_layers: int, prefix: str):
    """Tape reference of mlp_forward; returns (output, last hidden post-ReLU)."""
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


def mlp_forward(params: MLPParams, x: np.ndarray, skip_last: bool = False):
    """Affine layers with ReLU between them, in plain numpy.

    x and params are one trial's, or T trials' stacked on a leading
    axis, whose products matmul runs one by one, as a lone trial's.
    Returns (out, inputs). inputs[i] is the input of layer i, so
    inputs[0] is x and inputs[-1] is the penultimate features (x itself
    for a stack without hidden layers); out is the output layer's
    pre-activation. skip_last does not run the output layer and returns
    out None: a projector branch needs only the penultimate features.
    Every pre-activation of any rank is checked: a non-finite one raises
    NumericalError naming its layer (check_finite). The caller ignores overflow.
    """
    h = x
    inputs = [x]
    n = len(params.weights)
    for i in range(n - 1 if skip_last else n):
        # In place, so a layer holds one new array: large predicts
        # (boundary grids) keep their memory peak.
        z = h @ params.weights[i]
        z += params.biases[i][..., None, :]
        check_finite(z, "non-finite pre-activation in layer %d of a %s stack",
                     i, params.layer_sizes)
        if i == n - 1:
            return z, inputs
        h = np.maximum(z, 0.0, out=z)
        inputs.append(h)
    return None, inputs


def check_finite(a, stage: str, *args) -> None:
    """NumericalError(stage % args) unless every value of a is finite; the caller ignores overflow.

    The error's index is that of a's first non-finite value. A float, a
    lone loss, goes to math.isfinite, which costs a fraction of a reduce.
    An array is summed first: an inf or NaN makes the sum inf or NaN, so
    only a sum that overflows on finite values needs the elementwise
    test and its temporary the size of a. Large predicts (boundary grids)
    thus keep their memory peak, and a training step checks its gradient
    without allocating. The message is formatted only for the error.
    """
    if math.isfinite(a) if isinstance(a, float) else (
            math.isfinite(np.add.reduce(a, axis=None)) or np.isfinite(a).all()):
        return
    exc = NumericalError(stage % args)
    exc.index = np.unravel_index(np.argmin(np.isfinite(a)), np.shape(a))
    raise exc


def mlp_backward(params: MLPParams, inputs: list, g: np.ndarray, grads: MLPParams, written: int,
                 input_grad: bool = False):
    """Backpropagate g, the gradient at the pre-activation of layer len(inputs) - 1.

    inputs are the layer inputs that mlp_forward returned, cut to the
    layers to run back through, for one trial or a stack as in
    mlp_forward. grads holds views of the caller's gradient buffer,
    shaped like params. Layers below written already hold a gradient
    from an earlier call, and the new one is added to it in place:
    existing + new, the order in which the tape accumulates fan-out.
    The other layers' gradients are computed straight into their views
    (out=), which keeps a -0.0 that adding it into the buffer's zeros
    would turn into +0.0. Returns the gradient at the stack input when
    input_grad, else None.
    """
    for i in reversed(range(len(inputs))):
        if i < written:
            grads.biases[i] += np.add.reduce(g, axis=-2)
            grads.weights[i] += inputs[i].swapaxes(-1, -2) @ g
        else:
            np.add.reduce(g, axis=-2, out=grads.biases[i])
            np.matmul(inputs[i].swapaxes(-1, -2), g, out=grads.weights[i])
        if i == 0 and not input_grad:
            return None
        g = g @ params.weights[i].swapaxes(-1, -2)
        if i > 0:
            # the tape's ReLU mask; inputs[i] > 0 exactly where its
            # pre-activation is
            g = g * (inputs[i] > 0.0)
    return g


def row_max(x: np.ndarray) -> np.ndarray:
    """np.maximum.reduce(x, axis=-1, keepdims=True) of a 2-D array or a 3-D stack, bit for bit.

    Below 8 columns the rows are reduced by one np.maximum call per
    column into a copy of column 0, which costs a fraction of numpy's
    reduce over short rows and takes the columns in its order. From 8
    columns on, numpy's reduce runs. The one difference is which NaN a
    row holding NaN gives: numpy's reduce returns a +NaN of its own once
    a NaN enters its vector registers, whose width depends on the CPU.
    """
    if x.shape[-1] >= 8:
        return np.maximum.reduce(x, axis=-1, keepdims=True)
    m = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(m, x[..., j], out=m)
    return m[..., None]


def row_sum(x: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """np.add.reduce(x, axis=-1, keepdims=keepdims) of a 2-D array or a 3-D stack, bit for bit.

    Below 8 columns the rows are summed by one np.add call per column
    into column 0 plus +0.0. That is numpy's own order below its
    8-element pairwise block: sequential, from the +0.0 identity, which
    turns a row of -0.0 into +0.0. Single rows (x.shape[-2] < 2), or 8
    columns and more, go to numpy's reduce: on one element an np.add
    whose out= is its first input runs numpy's reduce loop, which keeps
    the other operand's NaN when both are NaN.
    """
    if x.shape[-1] >= 8 or x.shape[-2] < 2:
        return np.add.reduce(x, axis=-1, keepdims=keepdims)
    s = x[..., 0] + 0.0
    for j in range(1, x.shape[-1]):
        np.add(s, x[..., j], out=s)
    return s[..., None] if keepdims else s


def mlp_predict(params: MLPParams, x: np.ndarray):
    """Inference: (labels, softmax probabilities, penultimate features).

    The forward is checked as a training step's is: a non-finite
    pre-activation in any layer, logits included, raises NumericalError
    naming the layer. A hidden layer's -inf would otherwise pass
    unseen, as its ReLU makes it 0. Overflow warnings are off, so that
    error is the only sign; the softmax of finite logits is finite.

    Besides its input, the call holds the forward's arrays: every hidden
    layer's n x h output, the last of which it returns as the
    penultimate features, and the n x K logits. The softmax is computed
    in the logits, which become the probabilities, so it holds only two
    length-n vectors (row maxima and sums) more. The labels, which
    callers such as boundary grids keep, are allocated before the
    layers, so the layers, once freed, leave no hole under a kept
    array: glibc's malloc lets later small arrays split such a hole,
    and the next large predict then grows the heap instead of reusing it.
    """
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != params.layer_sizes[0]:
        raise ValueError(f"input shape {h.shape} does not match d_in={params.layer_sizes[0]}")
    labels = np.empty(len(h), dtype=np.intp)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        probs, inputs = mlp_forward(params, h)
        np.subtract(probs, row_max(probs), out=probs)
        np.exp(probs, out=probs)
        np.divide(probs, row_sum(probs, keepdims=True), out=probs)
    return probs.argmax(axis=1, out=labels), probs, inputs[-1]


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
        fh.write(json.dumps(doc))


def save_model(path, sizes, raw: np.ndarray, ema: np.ndarray, **meta) -> None:
    """Write a trained model's checkpoint: its raw and EMA vectors in pack's layout of sizes.

    The tensors are named {"", "ema."} x {"mlp", "proj"} + .w0, .b0, ...;
    the meta keys are mlp_sizes, proj_sizes (None without a projector),
    then the caller's, in that order.
    """
    named = {}
    for prefix, vec in (("", raw), ("ema.", ema)):
        for stack, name in zip(unpack(vec, sizes), ("mlp", "proj")):
            named.update(params_to_named(stack, prefix + name))
    proj_sizes = sizes[1] if len(sizes) > 1 else None
    save_checkpoint(path, named, {"mlp_sizes": sizes[0], "proj_sizes": proj_sizes, **meta})


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint back.

    Unknown format versions, malformed documents (undecodable text and
    JSON nested past the recursion limit included), tensor values other
    than a flat list of JSON numbers, and non-finite values raise
    ValueError naming path.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: checkpoint must be a JSON object")
    version = doc.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint format_version {version!r}")
    meta = doc.get("meta", {})
    if not isinstance(doc.get("tensors"), list) or not isinstance(meta, dict):
        raise ValueError(f"{path}: checkpoint needs a tensors list and a meta object")
    named = {}
    for i, entry in enumerate(doc["tensors"]):
        try:
            if not isinstance(entry["name"], str):
                raise TypeError(f"name {entry['name']!r} is not a string")
            values = entry["values"]
            # JSON numbers only: numpy would parse " 2e0 " and true as floats.
            if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
                raise ValueError(f"tensor {entry['name']} values must be a flat list of numbers")
            arr = np.array(values, dtype=np.float64).reshape(entry["shape"])
            named[entry["name"]] = arr
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: malformed tensor entry {i}: {exc!r}") from None
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: tensor {entry['name']} holds non-finite values")
    return named, meta
