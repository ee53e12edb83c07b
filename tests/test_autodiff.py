import zlib

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewtrain.autodiff import (
    NumericalError,
    PRIMITIVES,
    Tape,
    backward,
    check_gradients,
    col_means,
    concat_rows,
    diag_part,
    finite_diff_check,
    frobenius_sq,
    log_softmax_rows,
    op_apply,
    powc,
    reduce_sum,
    row_sums,
)


def _np_softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Leaf construction
# ---------------------------------------------------------------------------


def test_tensor_accepts_ranks_zero_through_two():
    tape = Tape()
    assert tape.leaf(3.0).shape == ()
    assert tape.leaf([1.0, 2.0]).shape == (2,)
    assert tape.leaf([[1.0], [2.0]]).shape == (2, 1)
    assert tape.leaf(np.array([1, 2])).value.dtype == np.float64


def test_tensor_rejects_rank_three():
    with pytest.raises(ValueError, match="^tensors are at most rank 2, got shape \\(2, 2, 2\\)$"):
        Tape().leaf(np.zeros((2, 2, 2)))


def test_tensor_rejects_empty_dimension():
    with pytest.raises(ValueError, match="^tensor dimensions must be positive, got shape \\(0, 3\\)$"):
        Tape().leaf(np.zeros((0, 3)))


def test_tensor_rejects_nan_and_inf():
    tape = Tape()
    with pytest.raises(ValueError, match="^tensor construction from non-finite values$"):
        tape.leaf([1.0, float("nan")])
    with pytest.raises(ValueError, match="^tensor construction from non-finite values$"):
        tape.leaf([[float("inf")]])
    assert tape.nodes == []


def test_tensor_is_immutable():
    # the leaf holds a read-only copy; the caller's array stays writeable and unshared
    values = np.array([1.0, 2.0])
    leaf = Tape().leaf(values)
    with pytest.raises(ValueError):
        leaf.value[0] = 5.0
    values[0] = 5.0
    assert values.flags.writeable and leaf.value[0] == 1.0


def test_scalar_nodes_stay_rank_zero():
    # reductions of a matrix must produce a true scalar, not a (1,) vector
    tape = Tape()
    x = tape.leaf(np.ones((2, 3)))
    assert reduce_sum(x).value.shape == ()
    assert frobenius_sq(x).value.shape == ()


# ---------------------------------------------------------------------------
# Forward hand cases
# ---------------------------------------------------------------------------


def test_matmul_hand_case():
    tape = Tape()
    a = tape.leaf([[1.0, 2.0], [3.0, 4.0]])
    b = tape.leaf([[1.0], [1.0]])
    npt.assert_array_equal((a @ b).value, [[3.0], [7.0]])


def test_softmax_rows_uniform():
    # softmax rows are exp(log_softmax_rows); uniform logits give 1/K
    tape = Tape()
    z = tape.leaf(np.zeros((2, 4)))
    npt.assert_allclose(np.exp(log_softmax_rows(z).value), np.full((2, 4), 0.25),
                        rtol=0, atol=1e-15)


def test_log_softmax_matches_softmax_log():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(5, 7))
    tape = Tape()
    z = tape.leaf(logits)
    npt.assert_allclose(
        log_softmax_rows(z).value, np.log(_np_softmax(logits)), rtol=0, atol=1e-12
    )


def test_softmax_rows_is_shift_invariant_and_stable():
    tape = Tape()
    z = tape.leaf([[1000.0, 1000.0, 999.0]])
    out = log_softmax_rows(z).value
    assert np.all(np.isfinite(out))
    npt.assert_allclose(np.exp(out).sum(axis=1), [1.0], rtol=0, atol=1e-12)
    shifted = log_softmax_rows(tape.leaf([[1.0, 1.0, 0.0]])).value
    npt.assert_allclose(out, shifted, rtol=0, atol=1e-12)


def test_concat_and_slice_roundtrip():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(3, 2)), rng.normal(size=(4, 2))
    tape = Tape()
    va, vb = tape.leaf(a), tape.leaf(b)
    w = concat_rows([va, vb])
    npt.assert_array_equal(w.value[0:3], a)
    npt.assert_array_equal(w.value[3:7], b)


def test_sugar_expressions():
    tape = Tape()
    x = tape.leaf([[2.0, -1.0]])
    npt.assert_array_equal((x + 1.0).value, [[3.0, 0.0]])
    npt.assert_array_equal((1.0 - x).value, [[-1.0, 2.0]])
    npt.assert_array_equal((-x).value, [[-2.0, 1.0]])
    npt.assert_array_equal((x * 3.0).value, [[6.0, -3.0]])
    npt.assert_array_equal(x.relu().value, [[2.0, 0.0]])
    npt.assert_array_equal(x.square().value, [[4.0, 1.0]])
    npt.assert_array_equal(x.T.value, [[2.0], [-1.0]])


# ---------------------------------------------------------------------------
# op_apply validation
# ---------------------------------------------------------------------------


def test_unknown_primitive_rejected():
    tape = Tape()
    x = tape.leaf([1.0])
    with pytest.raises(ValueError, match="unknown primitive"):
        op_apply("convolve", [x])


def test_arity_mismatch_rejected():
    tape = Tape()
    x = tape.leaf([[1.0]])
    with pytest.raises(ValueError, match="expected 2 inputs"):
        op_apply("add", [x])


def test_cross_tape_inputs_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.leaf([1.0])
    b = t2.leaf([1.0])
    with pytest.raises(ValueError, match="different tapes"):
        op_apply("add", [a, b])


def test_overflow_raises_numerical_error_with_node_id():
    tape = Tape()
    x = tape.leaf([1000.0])
    with pytest.raises(NumericalError, match="'exp' at node"):
        x.exp()


def test_backward_overflow_raises_numerical_error():
    # forward of powc(x, -1) at 1e-300 is finite (1e300) but the
    # gradient -x^-2 is not representable
    tape = Tape()
    x = tape.leaf([1e-300])
    y = reduce_sum(powc(x, -1.0))
    with pytest.raises(NumericalError, match="backward"):
        backward(tape, y)


# ---------------------------------------------------------------------------
# backward structure
# ---------------------------------------------------------------------------


def test_backward_requires_scalar_loss():
    tape = Tape()
    x = tape.leaf([[1.0, 2.0]])
    with pytest.raises(ValueError, match="scalar"):
        backward(tape, x)


def test_backward_empty_tape():
    other = Tape()
    loss = reduce_sum(other.leaf([1.0]))
    with pytest.raises(ValueError, match="empty tape"):
        backward(Tape(), loss)


def test_backward_rejects_foreign_loss():
    t1, t2 = Tape(), Tape()
    t1.leaf([1.0])
    loss = reduce_sum(t2.leaf([1.0]))
    with pytest.raises(ValueError, match="this tape"):
        backward(t1, loss)


def test_unreached_leaf_gets_zero_gradient():
    tape = Tape()
    x = tape.leaf([[1.0, 2.0]])
    unused = tape.leaf([[5.0, 5.0], [5.0, 5.0]])
    loss = reduce_sum(x)
    grads = backward(tape, loss)
    npt.assert_array_equal(grads[x.idx], [[1.0, 1.0]])
    npt.assert_array_equal(grads[unused.idx], np.zeros((2, 2)))


def test_fanout_accumulates_additively():
    tape = Tape()
    x = tape.leaf([[1.0, -2.0], [3.0, 0.5]])
    z = x.square()
    # z is consumed twice, so d/dx [2 * sum(x^2)] = 4x
    loss = reduce_sum(z) + reduce_sum(z)
    grads = backward(tape, loss)
    npt.assert_allclose(grads[x.idx], 4.0 * x.value, rtol=0, atol=1e-15)


def test_backward_is_deterministic():
    rng = np.random.default_rng(11)
    a, b = rng.normal(size=(4, 3)), rng.normal(size=(3, 4))

    def run():
        tape = Tape()
        va, vb = tape.leaf(a), tape.leaf(b)
        loss = reduce_sum(log_softmax_rows(va @ vb).exp()) + frobenius_sq(va)
        g = backward(tape, loss)
        return g[va.idx].copy(), g[vb.idx].copy()

    ga1, gb1 = run()
    ga2, gb2 = run()
    assert np.array_equal(ga1, ga2)
    assert np.array_equal(gb1, gb2)


# ---------------------------------------------------------------------------
# Finite-difference checks, one entry per primitive
# ---------------------------------------------------------------------------


def _scalarize(tape, v, rng):
    """Weighted sum so misplaced entries in a gradient cannot cancel."""
    if v.shape == ():
        return v
    return reduce_sum(v * tape.constant(rng.normal(size=v.shape)))


def _case_matmul(rng):
    return [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))], lambda t, ls: (ls[0] @ ls[1])


def _case_add(rng):
    return [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))], lambda t, ls: ls[0] + ls[1]


def _case_add_row_bias(rng):
    return (
        [rng.normal(size=(4, 3)), rng.normal(size=3)],
        lambda t, ls: op_apply("add_row_bias", ls),
    )


def _case_scale(rng):
    return [rng.normal(size=(3, 3))], lambda t, ls: ls[0] * 1.7


def _case_addc(rng):
    return [rng.normal(size=(2, 5))], lambda t, ls: ls[0] + 0.4


def _case_mul(rng):
    return [rng.normal(size=(4, 2)), rng.normal(size=(4, 2))], lambda t, ls: ls[0] * ls[1]


def _case_relu(rng):
    # keep entries away from the kink at zero
    x = rng.normal(size=(4, 4))
    x = np.sign(x) * (np.abs(x) + 0.3)
    return [x], lambda t, ls: ls[0].relu()


def _case_exp(rng):
    return [rng.uniform(-1.0, 1.0, size=(3, 4))], lambda t, ls: ls[0].exp()


def _case_powc(rng):
    return [rng.uniform(0.5, 2.0, size=(3, 3))], lambda t, ls: powc(ls[0], 2.5)


def _case_log_softmax_rows(rng):
    return [rng.normal(size=(4, 5))], lambda t, ls: log_softmax_rows(ls[0])


def _case_reduce_sum(rng):
    return [rng.normal(size=(4, 3))], lambda t, ls: reduce_sum(ls[0])


def _case_row_sums(rng):
    return [rng.normal(size=(4, 3))], lambda t, ls: row_sums(ls[0])


def _case_col_means(rng):
    return [rng.normal(size=(4, 3))], lambda t, ls: col_means(ls[0])


def _case_square(rng):
    return [rng.normal(size=(3, 4))], lambda t, ls: ls[0].square()


def _case_sqrt(rng):
    return [rng.uniform(0.5, 3.0, size=(3, 4))], lambda t, ls: ls[0].sqrt()


def _case_concat_rows(rng):
    return (
        [rng.normal(size=(2, 3)), rng.normal(size=(3, 3))],
        lambda t, ls: concat_rows(ls),
    )


def _case_frobenius_sq(rng):
    return [rng.normal(size=(3, 4))], lambda t, ls: frobenius_sq(ls[0])


def _case_transpose(rng):
    return [rng.normal(size=(3, 4))], lambda t, ls: ls[0].T


def _case_diag_part(rng):
    return [rng.normal(size=(4, 4))], lambda t, ls: diag_part(ls[0])


_PRIMITIVE_CASES = {
    "matmul": _case_matmul,
    "add": _case_add,
    "add_row_bias": _case_add_row_bias,
    "scale": _case_scale,
    "addc": _case_addc,
    "mul": _case_mul,
    "relu": _case_relu,
    "exp": _case_exp,
    "powc": _case_powc,
    "log_softmax_rows": _case_log_softmax_rows,
    "reduce_sum": _case_reduce_sum,
    "row_sums": _case_row_sums,
    "col_means": _case_col_means,
    "square": _case_square,
    "sqrt": _case_sqrt,
    "concat_rows": _case_concat_rows,
    "frobenius_sq": _case_frobenius_sq,
    "transpose": _case_transpose,
    "diag_part": _case_diag_part,
}


def test_every_primitive_has_a_gradient_case():
    assert set(_PRIMITIVE_CASES) == set(PRIMITIVES) - {"leaf"}


@pytest.mark.parametrize("prim", sorted(_PRIMITIVE_CASES))
@pytest.mark.parametrize("seed", range(10))
def test_primitive_gradients_match_finite_differences(prim, seed):
    # str hash() is salted per process; crc32 keeps the instances reproducible
    rng = np.random.default_rng(1000 * seed + zlib.crc32(prim.encode()) % 1000)
    params, apply = _PRIMITIVE_CASES[prim](rng)
    weight_seed = rng.integers(2**32)

    def build_loss(tape, leaves):
        out = apply(tape, leaves)
        return _scalarize(tape, out, np.random.default_rng(weight_seed))

    report = check_gradients(build_loss, params, tolerance=1e-6)
    assert report.passed, f"{prim}: max rel err {report.max_relative_error:.3e}"


def test_finite_diff_check_flags_corrupted_gradient():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 3))

    def f(point):
        return float(np.square(point[0]).sum())

    good = 2.0 * x
    assert finite_diff_check(f, [x], [good]).passed
    assert not finite_diff_check(f, [x], [good * 1.01]).passed


def test_finite_diff_check_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        finite_diff_check(lambda p: 0.0, [np.zeros(3)], [np.zeros(4)])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6), st.integers(0, 2**31 - 1))
def test_sum_gradient_is_all_ones(rows, cols, seed):
    x = np.random.default_rng(seed).normal(size=(rows, cols))
    tape = Tape()
    v = tape.leaf(x)
    grads = backward(tape, reduce_sum(v))
    npt.assert_array_equal(grads[v.idx], np.ones((rows, cols)))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_softmax_rows_output_rows_sum_to_one(rows, cols, seed):
    z = np.random.default_rng(seed).normal(size=(rows, cols)) * 3
    tape = Tape()
    out = np.exp(log_softmax_rows(tape.leaf(z)).value)
    npt.assert_allclose(out.sum(axis=1), np.ones(rows), rtol=0, atol=1e-12)
    assert np.all(out >= 0)
