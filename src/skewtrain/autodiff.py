"""Reverse-mode automatic differentiation on an explicit tape.

Training does not use the tape: its one step function,
harness.batch_loss_and_grads, computes the objective's gradients in
closed-form numpy. The tape is the reference those gradients are
tested against bit for bit, and the engine of the finite-difference
checks of acceptance criterion 1.

Dense float64 tensors only. Every forward operation appends a node to a
Tape; backward() walks the node list once in reverse and accumulates
adjoints, so gradients for a fixed graph are bit-identical across runs.
The primitive set is closed: adding a primitive means writing its forward
rule, its backward rule, and a finite-difference test for it.

The finite-difference oracle (finite_diff_check) never touches the tape
internals; it only probes a scalar function, so it stays an independent
check on the backward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class NumericalError(RuntimeError):
    """A non-finite value in evaluation or backprop; index locates it where check_finite raised."""

    index = None


@dataclass
class _Node:
    idx: int
    prim: str
    parents: tuple[int, ...]
    attrs: dict
    values: np.ndarray  # read-only float64


class Var:
    """Handle to one node on a tape. Cheap to copy, compares by identity."""

    __slots__ = ("tape", "idx")

    def __init__(self, tape: "Tape", idx: int):
        self.tape = tape
        self.idx = idx

    @property
    def value(self) -> np.ndarray:
        return self.tape.nodes[self.idx].values

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    # Convenience builders; everything routes through op_apply.
    def __add__(self, other):
        if isinstance(other, Var):
            return op_apply("add", [self, other])
        return op_apply("addc", [self], c=float(other))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Var):
            return op_apply("mul", [self, other])
        return op_apply("scale", [self], c=float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return op_apply("scale", [self], c=-1.0)

    def __sub__(self, other):
        if isinstance(other, Var):
            return op_apply("add", [self, -other])
        return op_apply("addc", [self], c=-float(other))

    def __rsub__(self, other):
        return op_apply("addc", [-self], c=float(other))

    def __matmul__(self, other):
        return op_apply("matmul", [self, other])

    @property
    def T(self):
        return op_apply("transpose", [self])

    def relu(self):
        return op_apply("relu", [self])

    def exp(self):
        return op_apply("exp", [self])

    def sqrt(self):
        return op_apply("sqrt", [self])

    def square(self):
        return op_apply("square", [self])

    def __repr__(self) -> str:
        return f"Var(idx={self.idx}, shape={self.shape})"


class Tape:
    """Append-only record of forward operations in topological order."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def _append(self, prim: str, parents: tuple[int, ...], attrs: dict, values: np.ndarray) -> Var:
        # np.ascontiguousarray would promote rank-0 values to rank 1,
        # which silently turns scalar nodes into (1,) vectors.
        values = np.asarray(values, dtype=np.float64, order="C")
        values.flags.writeable = False
        node = _Node(len(self.nodes), prim, parents, attrs, values)
        self.nodes.append(node)
        return Var(self, node.idx)

    def leaf(self, values, name: str | None = None) -> Var:
        """Register a float64 copy of values as an input. Gradients are reported per leaf.

        Leaves are dense arrays of rank at most 2 with positive dimensions
        and finite entries; anything else is a ValueError. Non-finite
        values arising inside the graph raise NumericalError naming the
        node instead. The copy is read-only; the caller's array is not.
        """
        arr = np.array(values, dtype=np.float64, copy=True, order="C")
        if arr.ndim > 2:
            raise ValueError(f"tensors are at most rank 2, got shape {arr.shape}")
        if any(d < 1 for d in arr.shape):
            raise ValueError(f"tensor dimensions must be positive, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor construction from non-finite values")
        return self._append("leaf", (), {"name": name}, arr)

    def constant(self, values) -> Var:
        """A leaf the caller does not intend to differentiate.

        Mechanically identical to leaf(); the distinction is only for
        the reader. Its gradient is still computed and simply ignored.
        """
        return self.leaf(values, name=None)


# ---------------------------------------------------------------------------
# Primitive rules. forward(in_values, attrs) -> out array;
# backward(g, out, in_values, attrs) -> tuple of parent adjoints.
# ---------------------------------------------------------------------------


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def _fw_matmul(ins, attrs):
    a, b = ins
    _require(a.ndim == 2 and b.ndim == 2, f"matmul needs rank-2 inputs, got {a.shape} @ {b.shape}")
    _require(a.shape[1] == b.shape[0], f"matmul inner dims differ: {a.shape} @ {b.shape}")
    return a @ b


def _bw_matmul(g, out, ins, attrs):
    a, b = ins
    return g @ b.T, a.T @ g


def _fw_add(ins, attrs):
    a, b = ins
    _require(a.shape == b.shape, f"add shape mismatch: {a.shape} vs {b.shape}")
    return a + b


def _bw_add(g, out, ins, attrs):
    return g, g


def _fw_add_row_bias(ins, attrs):
    x, b = ins
    _require(x.ndim == 2 and b.ndim == 1, f"add_row_bias needs (B,d) and (d,), got {x.shape}, {b.shape}")
    _require(x.shape[1] == b.shape[0], f"add_row_bias width mismatch: {x.shape} vs {b.shape}")
    return x + b[None, :]


def _bw_add_row_bias(g, out, ins, attrs):
    return g, g.sum(axis=0)


def _fw_scale(ins, attrs):
    return ins[0] * attrs["c"]


def _bw_scale(g, out, ins, attrs):
    return (g * attrs["c"],)


def _fw_addc(ins, attrs):
    return ins[0] + attrs["c"]


def _bw_addc(g, out, ins, attrs):
    return (g,)


def _fw_mul(ins, attrs):
    a, b = ins
    _require(a.shape == b.shape, f"mul shape mismatch: {a.shape} vs {b.shape}")
    return a * b


def _bw_mul(g, out, ins, attrs):
    a, b = ins
    return g * b, g * a


def _fw_relu(ins, attrs):
    return np.maximum(ins[0], 0.0)


def _bw_relu(g, out, ins, attrs):
    # Subgradient at exactly zero is zero.
    return (g * (ins[0] > 0.0),)


def _fw_exp(ins, attrs):
    with np.errstate(over="ignore"):
        return np.exp(ins[0])


def _bw_exp(g, out, ins, attrs):
    return (g * out,)


def _fw_powc(ins, attrs):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.power(ins[0], attrs["p"])


def _bw_powc(g, out, ins, attrs):
    p = attrs["p"]
    if p == 0.0:
        return (np.zeros_like(ins[0]),)
    # A zero adjoint contributes zero, also where x^(p-1) is infinite (x = 0, p < 1).
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.where(g == 0.0, g * p, g * p * np.power(ins[0], p - 1.0)),)


def _fw_log_softmax_rows(ins, attrs):
    x = ins[0]
    _require(x.ndim == 2, f"log_softmax_rows needs rank 2, got {x.shape}")
    shifted = x - x.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _bw_log_softmax_rows(g, out, ins, attrs):
    return (g - np.exp(out) * g.sum(axis=1, keepdims=True),)


def _fw_reduce_sum(ins, attrs):
    return np.asarray(ins[0].sum())


def _bw_reduce_sum(g, out, ins, attrs):
    return (np.full_like(ins[0], float(g)),)


def _fw_row_sums(ins, attrs):
    x = ins[0]
    _require(x.ndim == 2, f"row_sums needs rank 2, got {x.shape}")
    return x.sum(axis=1)


def _bw_row_sums(g, out, ins, attrs):
    return (np.broadcast_to(g[:, None], ins[0].shape).copy(),)


def _fw_col_means(ins, attrs):
    x = ins[0]
    _require(x.ndim == 2, f"col_means needs rank 2, got {x.shape}")
    return x.mean(axis=0)


def _bw_col_means(g, out, ins, attrs):
    x = ins[0]
    return (np.broadcast_to(g[None, :] / x.shape[0], x.shape).copy(),)


def _fw_square(ins, attrs):
    return np.square(ins[0])


def _bw_square(g, out, ins, attrs):
    return (2.0 * ins[0] * g,)


def _fw_sqrt(ins, attrs):
    with np.errstate(invalid="ignore"):
        return np.sqrt(ins[0])


def _bw_sqrt(g, out, ins, attrs):
    with np.errstate(divide="ignore", invalid="ignore"):
        return (g / (2.0 * out),)


def _fw_concat_rows(ins, attrs):
    _require(all(x.ndim == 2 for x in ins), "concat_rows needs rank-2 inputs")
    widths = {x.shape[1] for x in ins}
    _require(len(widths) == 1, f"concat_rows width mismatch: {[x.shape for x in ins]}")
    return np.concatenate(ins, axis=0)


def _bw_concat_rows(g, out, ins, attrs):
    grads = []
    start = 0
    for x in ins:
        grads.append(g[start:start + x.shape[0]])
        start += x.shape[0]
    return tuple(grads)


def _fw_frobenius_sq(ins, attrs):
    return np.asarray(np.square(ins[0]).sum())


def _bw_frobenius_sq(g, out, ins, attrs):
    return (2.0 * ins[0] * float(g),)


def _fw_transpose(ins, attrs):
    _require(ins[0].ndim == 2, f"transpose needs rank 2, got {ins[0].shape}")
    return ins[0].T.copy()


def _bw_transpose(g, out, ins, attrs):
    return (g.T,)


def _fw_diag_part(ins, attrs):
    x = ins[0]
    _require(x.ndim == 2 and x.shape[0] == x.shape[1], f"diag_part needs square matrix, got {x.shape}")
    return np.diagonal(x).copy()


def _bw_diag_part(g, out, ins, attrs):
    full = np.zeros_like(ins[0])
    np.fill_diagonal(full, g)
    return (full,)


@dataclass(frozen=True)
class _Primitive:
    forward: Callable
    backward: Callable
    arity: int | None  # None means variadic (>= 1)


PRIMITIVES: dict[str, _Primitive] = {
    "matmul": _Primitive(_fw_matmul, _bw_matmul, 2),
    "add": _Primitive(_fw_add, _bw_add, 2),
    "add_row_bias": _Primitive(_fw_add_row_bias, _bw_add_row_bias, 2),
    "scale": _Primitive(_fw_scale, _bw_scale, 1),
    "addc": _Primitive(_fw_addc, _bw_addc, 1),
    "mul": _Primitive(_fw_mul, _bw_mul, 2),
    "relu": _Primitive(_fw_relu, _bw_relu, 1),
    "exp": _Primitive(_fw_exp, _bw_exp, 1),
    "powc": _Primitive(_fw_powc, _bw_powc, 1),
    "log_softmax_rows": _Primitive(_fw_log_softmax_rows, _bw_log_softmax_rows, 1),
    "reduce_sum": _Primitive(_fw_reduce_sum, _bw_reduce_sum, 1),
    "row_sums": _Primitive(_fw_row_sums, _bw_row_sums, 1),
    "col_means": _Primitive(_fw_col_means, _bw_col_means, 1),
    "square": _Primitive(_fw_square, _bw_square, 1),
    "sqrt": _Primitive(_fw_sqrt, _bw_sqrt, 1),
    "concat_rows": _Primitive(_fw_concat_rows, _bw_concat_rows, None),
    "frobenius_sq": _Primitive(_fw_frobenius_sq, _bw_frobenius_sq, 1),
    "transpose": _Primitive(_fw_transpose, _bw_transpose, 1),
    "diag_part": _Primitive(_fw_diag_part, _bw_diag_part, 1),
}


def op_apply(primitive: str, inputs: Sequence[Var], **attrs) -> Var:
    """Apply a named primitive to tape variables and record the result.

    All inputs must live on the same tape. The output is checked for
    NaN/Inf; a violation raises NumericalError naming the new node.
    """
    if primitive not in PRIMITIVES:
        raise ValueError(f"unknown primitive {primitive!r}")
    if not inputs:
        raise ValueError(f"{primitive}: at least one input required")
    rule = PRIMITIVES[primitive]
    if rule.arity is not None and len(inputs) != rule.arity:
        raise ValueError(f"{primitive}: expected {rule.arity} inputs, got {len(inputs)}")
    tape = inputs[0].tape
    for v in inputs:
        if v.tape is not tape:
            raise ValueError(f"{primitive}: inputs live on different tapes")
    in_values = [v.value for v in inputs]
    # Overflow and friends surface as NumericalError below; numpy's own
    # warnings would just duplicate that with a less useful location.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = rule.forward(in_values, attrs)
    out = np.asarray(out, dtype=np.float64)
    if not np.all(np.isfinite(out)):
        raise NumericalError(
            f"non-finite value in forward of {primitive!r} at node {len(tape.nodes)}"
        )
    return tape._append(primitive, tuple(v.idx for v in inputs), attrs, out)


# Module-level builders for primitives without operator sugar.

def log_softmax_rows(x: Var) -> Var:
    return op_apply("log_softmax_rows", [x])


def reduce_sum(x: Var) -> Var:
    return op_apply("reduce_sum", [x])


def row_sums(x: Var) -> Var:
    return op_apply("row_sums", [x])


def col_means(x: Var) -> Var:
    return op_apply("col_means", [x])


def add_row_bias(x: Var, b: Var) -> Var:
    return op_apply("add_row_bias", [x, b])


def concat_rows(parts: Sequence[Var]) -> Var:
    return op_apply("concat_rows", list(parts))


def frobenius_sq(x: Var) -> Var:
    return op_apply("frobenius_sq", [x])


def diag_part(x: Var) -> Var:
    return op_apply("diag_part", [x])


def powc(x: Var, p: float) -> Var:
    return op_apply("powc", [x], p=float(p))


def backward(tape: Tape, loss: Var) -> dict[int, np.ndarray]:
    """Accumulate adjoints from a scalar loss back to every leaf.

    Returns {node_id: gradient} for each leaf on the tape, zeros for
    leaves the loss does not depend on. Fan-out accumulates additively.
    The walk is a single reverse pass over the node list, so results
    are bit-identical for identical tapes.
    """
    if not tape.nodes:
        raise ValueError("backward on an empty tape")
    if loss.tape is not tape:
        raise ValueError("loss does not live on this tape")
    loss_node = tape.nodes[loss.idx]
    if int(np.prod(loss_node.values.shape)) != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss_node.values.shape}")

    adjoints: dict[int, np.ndarray] = {loss.idx: np.ones_like(loss_node.values)}
    for node in reversed(tape.nodes[: loss.idx + 1]):
        g = adjoints.get(node.idx)
        if g is None or node.prim == "leaf":
            continue
        rule = PRIMITIVES[node.prim]
        in_values = [tape.nodes[p].values for p in node.parents]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            parent_grads = rule.backward(g, node.values, in_values, node.attrs)
        for pidx, pg in zip(node.parents, parent_grads):
            pg = np.asarray(pg, dtype=np.float64)
            if not np.all(np.isfinite(pg)):
                raise NumericalError(
                    f"non-finite gradient in backward of {node.prim!r} at node {node.idx}"
                )
            acc = adjoints.get(pidx)
            adjoints[pidx] = pg.copy() if acc is None else acc + pg

    grads: dict[int, np.ndarray] = {}
    for node in tape.nodes:
        if node.prim == "leaf":
            g = adjoints.get(node.idx)
            grads[node.idx] = np.zeros_like(node.values) if g is None else g
    return grads


@dataclass
class GradReport:
    """Outcome of a finite-difference check over a parameter list."""

    max_relative_error: float
    per_parameter_errors: list[float]
    tolerance: float
    passed: bool


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def finite_diff_check(
    f: Callable[[list[np.ndarray]], float],
    point: list[np.ndarray],
    analytic: list[np.ndarray],
    h: float = 1e-5,
    tolerance: float = 1e-4,
) -> GradReport:
    """Compare analytic gradients against central finite differences.

    f evaluates the scalar objective at a parameter list; it is probed
    entrywise at +/- h. Relative error uses max(|fd|, |analytic|, 1e-8)
    as the denominator. Non-finite f at a probe point is an error.
    """
    if len(point) != len(analytic):
        raise ValueError("point and analytic gradient lists differ in length")
    point = [np.asarray(p, dtype=np.float64) for p in point]
    per_param: list[float] = []
    for k, an in enumerate(analytic):
        an = np.asarray(an, dtype=np.float64)
        if point[k].shape != an.shape:
            raise ValueError(
                f"gradient shape {an.shape} does not match parameter shape {point[k].shape}"
            )
        worst = 0.0
        probe = [q.copy() for q in point]
        flat = probe[k].reshape(-1)
        an_flat = an.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            f_plus = float(f(probe))
            flat[j] = orig - h
            f_minus = float(f(probe))
            flat[j] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise NumericalError(f"non-finite objective at finite-difference probe {j}")
            fd = (f_plus - f_minus) / (2.0 * h)
            worst = max(worst, _rel_err(fd, float(an_flat[j])))
        per_param.append(worst)
    overall = max(per_param) if per_param else 0.0
    return GradReport(
        max_relative_error=overall,
        per_parameter_errors=per_param,
        tolerance=tolerance,
        passed=overall <= tolerance,
    )


def check_gradients(
    build_loss: Callable[[Tape, list[Var]], Var],
    params: list[np.ndarray],
    h: float = 1e-5,
    tolerance: float = 1e-4,
) -> GradReport:
    """Backprop a freshly built graph, then finite-difference it.

    build_loss(tape, leaves) constructs a scalar loss from leaves
    registered in the order of params.
    """
    params = [np.asarray(p, dtype=np.float64) for p in params]
    tape = Tape()
    leaves = [tape.leaf(p) for p in params]
    loss = build_loss(tape, leaves)
    grads = backward(tape, loss)
    analytic = [grads[l.idx] for l in leaves]

    def f(point: list[np.ndarray]) -> float:
        t = Tape()
        ls = [t.leaf(q) for q in point]
        return float(build_loss(t, ls).value)

    return finite_diff_check(f, params, analytic, h=h, tolerance=tolerance)
