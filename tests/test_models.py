import numpy as np
import numpy.testing as npt
import pytest

from skewtrain.autodiff import NumericalError, Tape, check_gradients, reduce_sum
from skewtrain.models import (
    CHECKPOINT_FORMAT_VERSION,
    MLPParams,
    forward_stack,
    load_checkpoint,
    mlp_init,
    mlp_predict,
    named_to_mlp,
    pack,
    params_to_named,
    save_checkpoint,
    tensor_bounds,
    unpack,
)


def _tape_forward(params, x, prefix="mlp"):
    """Register a stack's parameters on a new tape and run forward_stack on x."""
    tape = Tape()
    leaves = {n: tape.leaf(a, name=n) for n, a in params_to_named(params, prefix).items()}
    out, penultimate = forward_stack(tape.constant(x), leaves, len(params.weights), prefix)
    return out, penultimate, leaves


def test_init_shapes_and_zero_biases():
    p = mlp_init([2, 64, 64, 5], seed=0)
    assert [w.shape for w in p.weights] == [(2, 64), (64, 64), (64, 5)]
    assert [b.shape for b in p.biases] == [(64,), (64,), (5,)]
    for b in p.biases:
        npt.assert_array_equal(b, np.zeros_like(b))


def test_he_normal_std_matches_fan_in():
    # one wide layer gives enough samples to pin the std within a few percent
    p = mlp_init([200, 400], seed=7)
    w = p.weights[0]
    expected = np.sqrt(2.0 / 200)
    assert abs(w.std() - expected) / expected < 0.05
    assert abs(w.mean()) < 0.01


def test_init_needs_two_sizes():
    with pytest.raises(ValueError, match="at least"):
        mlp_init([4], seed=0)


def test_init_is_seed_deterministic():
    a = mlp_init([3, 8, 2], seed=42)
    b = mlp_init([3, 8, 2], seed=42)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    c = mlp_init([3, 8, 2], seed=43)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_single_hidden_unit_hand_case():
    # x=3 -> hidden relu(3*1+0)=3 -> logit 3*2+1=7
    p = MLPParams([1, 1, 1], [np.array([[1.0]]), np.array([[2.0]])],
                  [np.zeros(1), np.array([1.0])])
    logits, penultimate, _ = _tape_forward(p, [[3.0]])
    npt.assert_array_equal(penultimate.value, [[3.0]])
    npt.assert_array_equal(logits.value, [[7.0]])


def test_projector_single_layer_hand_case():
    # plain affine: [[1,2],[3,4]] @ [[1,0],[1,1]] = [[3,2],[7,4]]
    p = MLPParams([2, 2], [np.array([[1.0, 0.0], [1.0, 1.0]])], [np.zeros(2)])
    out, penultimate, _ = _tape_forward(p, [[1.0, 2.0], [3.0, 4.0]], prefix="proj")
    npt.assert_array_equal(out.value, [[3.0, 2.0], [7.0, 4.0]])
    assert penultimate is None  # no hidden layer


def test_forward_output_shapes():
    p = mlp_init([2, 16, 16, 5], seed=0)
    logits, penultimate, leaves = _tape_forward(p, np.random.default_rng(0).normal(size=(7, 2)))
    assert logits.shape == (7, 5)
    assert penultimate.shape == (7, 16)
    assert set(leaves) == {"mlp.w0", "mlp.w1", "mlp.w2", "mlp.b0", "mlp.b1", "mlp.b2"}


def test_forward_rejects_wrong_input_width():
    p = mlp_init([2, 4, 3], seed=0)
    with pytest.raises(ValueError, match="inner dims"):
        _tape_forward(p, np.zeros((5, 3)))
    with pytest.raises(ValueError, match="d_in"):
        mlp_predict(p, np.zeros((5, 3)))


def test_penultimate_is_post_relu():
    p = mlp_init([2, 8, 3], seed=1)
    _, penultimate, _ = _tape_forward(p, np.random.default_rng(1).normal(size=(6, 2)) * 5)
    assert np.all(penultimate.value >= 0)


def test_predict_agrees_with_tape_forward():
    rng = np.random.default_rng(9)
    p = mlp_init([3, 10, 10, 4], seed=5)
    x = rng.normal(size=(11, 3))
    logits, penultimate, _ = _tape_forward(p, x)
    labels, probs, penult = mlp_predict(p, x)
    npt.assert_allclose(penult, penultimate.value, rtol=0, atol=1e-12)
    npt.assert_array_equal(labels, logits.value.argmax(axis=1))
    npt.assert_allclose(probs.sum(axis=1), np.ones(11), rtol=0, atol=1e-12)


def _stack(*layers):
    """A stack from (weights, biases) pairs given as nested lists."""
    named = {}
    for i, (w, b) in enumerate(layers):
        named[f"mlp.w{i}"], named[f"mlp.b{i}"] = np.array(w, dtype=float), np.array(b, dtype=float)
    return named_to_mlp(named, [len(layers[0][0])] + [len(b) for _, b in layers])


def test_predict_raises_on_a_non_finite_pre_activation():
    # 1e300 * -1e10 overflows to -inf in the hidden layer, which its ReLU
    # would turn into 0 and finite logits
    p = _stack(([[-1e10]], [0.0]), ([[1.0, -1.0]], [0.0, 0.0]))
    with pytest.raises(NumericalError, match=r"layer 0 of a \[1, 1, 2\] stack"):
        mlp_predict(p, np.full((3, 1), 1e300))
    # an overflowing logit is caught the same way
    with pytest.raises(NumericalError, match=r"layer 0 of a \[1, 2\] stack"):
        mlp_predict(_stack(([[1e10, 0.0]], [0.0, 0.0])), np.full((3, 1), 1e300))


def test_predict_of_finite_logits_does_not_warn():
    # the softmax shift 1e308 - (-1e308) overflows to -inf, whose exp is 0;
    # the suite turns a RuntimeWarning into an error
    labels, probs, _ = mlp_predict(_stack(([[1.0, -1.0]], [0.0, 0.0])), np.array([[1e308]]))
    assert labels.tolist() == [0] and probs.tolist() == [[1.0, 0.0]]
    # finite logits whose sum overflows: the check's sum is inf, its
    # elementwise test passes them
    labels, probs, _ = mlp_predict(_stack(([[1.0, 1.0]], [0.0, 0.0])), np.array([[1e308]]))
    assert labels.tolist() == [0] and probs.tolist() == [[0.5, 0.5]]


def test_named_round_trip():
    p = mlp_init([2, 6, 3], seed=8)
    named = params_to_named(p, "mlp")
    back = named_to_mlp(named, [2, 6, 3])
    for a, b in zip(p.weights, back.weights):
        assert np.array_equal(a, b)
    for a, b in zip(p.biases, back.biases):
        assert np.array_equal(a, b)
    proj = mlp_init([6, 4, 4], seed=2)
    named_both = {**named, **params_to_named(proj, "proj")}
    back_p = named_to_mlp(named_both, [6, 4, 4], prefix="proj")
    assert np.array_equal(proj.weights[1], back_p.weights[1])
    # keys of the other stack are ignored
    assert np.array_equal(named_to_mlp(named_both, [2, 6, 3]).weights[0], p.weights[0])


def test_pack_and_unpack_lay_the_stacks_out_in_checkpoint_order():
    sizes = [[2, 3, 4, 2], [4, 5, 3]]
    mlp, proj = mlp_init(sizes[0], seed=0), mlp_init(sizes[1], seed=1)
    proj.biases = [np.arange(b.size, dtype=np.float64) - 1.5 for b in proj.biases]
    named = {**params_to_named(mlp, "mlp"), **params_to_named(proj, "proj")}
    vec = pack([mlp, proj])
    assert vec.dtype == np.float64
    assert vec.tobytes() == np.concatenate([a.reshape(-1) for a in named.values()]).tobytes()
    stacks = unpack(vec, sizes)
    assert [s.layer_sizes for s in stacks] == sizes
    views = {**params_to_named(stacks[0], "mlp"), **params_to_named(stacks[1], "proj")}
    assert list(views) == list(named)
    for name, arr in named.items():
        assert views[name].shape == arr.shape, name
        assert views[name].tobytes() == arr.tobytes(), name
        assert np.shares_memory(views[name], vec), name
    bounds = tensor_bounds(sizes)
    assert len(bounds) == len(named) and bounds[-1][1] == vec.size
    for (start, stop), arr in zip(bounds, named.values()):
        assert vec[start:stop].tobytes() == arr.tobytes()


def test_forward_stack_separate_prefixes_share_one_tape():
    mlp = mlp_init([2, 4, 3], seed=0)
    proj = mlp_init([4, 2], seed=1)
    tape = Tape()
    leaves = {}
    for name, arr in {**params_to_named(mlp, "mlp"), **params_to_named(proj, "proj")}.items():
        leaves[name] = tape.leaf(arr, name=name)
    x = tape.constant(np.random.default_rng(2).normal(size=(5, 2)))
    logits, penult = forward_stack(x, leaves, 2, "mlp")
    emb, _ = forward_stack(penult, leaves, 1, "proj")
    assert logits.shape == (5, 3)
    assert emb.shape == (5, 2)


def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(21)
    p = mlp_init([2, 5, 5, 3], seed=4)
    x = rng.normal(size=(6, 2))
    flat = params_to_named(p, "mlp")
    names = sorted(flat)

    def build_loss(tape, leaves):
        lv = dict(zip(names, leaves))
        logits, _ = forward_stack(tape.constant(x), lv, 3, "mlp")
        return reduce_sum(logits.square())

    report = check_gradients(build_loss, [flat[n] for n in names], tolerance=1e-5)
    assert report.passed, f"max rel err {report.max_relative_error:.3e}"


def test_named_to_mlp_rejects_missing_tensor():
    named = params_to_named(mlp_init([2, 5, 3], seed=0), "mlp")
    del named["mlp.b1"]
    with pytest.raises(ValueError, match="missing tensor mlp.b1"):
        named_to_mlp(named, [2, 5, 3])


def test_named_to_mlp_rejects_shape_mismatch():
    named = params_to_named(mlp_init([2, 4, 3], seed=0), "mlp")
    with pytest.raises(ValueError, match=r"mlp.w0 has shape \(2, 4\)"):
        named_to_mlp(named, [2, 5, 3])
    named["mlp.b1"] = np.zeros(4)
    with pytest.raises(ValueError, match="mlp.b1"):
        named_to_mlp(named, [2, 4, 3])


def test_checkpoint_round_trip(tmp_path):
    p = mlp_init([2, 4, 3], seed=12)
    named = params_to_named(p, "mlp")
    meta = {"mlp_sizes": [2, 4, 3], "note": "round trip"}
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, named, meta)
    loaded, got_meta = load_checkpoint(path)
    assert got_meta == meta
    assert set(loaded) == set(named)
    for k in named:
        assert np.array_equal(loaded[k], named[k])


def test_checkpoint_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": %d, "meta": {}, "tensors": []}'
                    % (CHECKPOINT_FORMAT_VERSION + 1))
    with pytest.raises(ValueError, match="format_version"):
        load_checkpoint(path)


def test_checkpoint_preserves_exact_float_bits(tmp_path):
    # JSON round trip must not lose precision on awkward values
    vals = np.array([[1e-300, 0.1 + 0.2], [np.pi, 2.0 / 3.0]])
    path = tmp_path / "bits.json"
    save_checkpoint(path, {"w": vals})
    loaded, _ = load_checkpoint(path)
    assert np.array_equal(loaded["w"], vals)


@pytest.mark.parametrize("doc, match", [
    ('[1, 2]', "JSON object"),
    ('{"format_version": 1, "meta": {}}', "tensors list"),
    ('{"format_version": 1, "meta": [], "tensors": []}', "meta object"),
    ('{"format_version": 1, "tensors": [{"name": "w", "values": [1.0]}]}', "entry 0"),
    ('{"format_version": 1, "tensors": [{"name": "w", "shape": [2], "values": [1.0]}]}',
     "entry 0"),
    ('{"format_version": 1, "tensors": [{"name": 3, "shape": [1], "values": [1.0]}]}',
     "entry 0"),
    ('{"format_version": 1, "tensors": [{"name": "ema.mlp.w0", "shape": [2], "values": [1.0, NaN]}]}',
     "tensor ema.mlp.w0 holds non-finite"),
    ('{"format_version": 1, "tensors": [{"name": "w", "shape": [1], "values": [-Infinity]}]}',
     "tensor w holds non-finite"),
    # numpy alone would load these as [2.0] and [1.0]
    ('{"format_version": 1, "tensors": [{"name": "w", "shape": [1], "values": [" 2e0 "]}]}',
     "tensor w values must be a flat list of numbers"),
    ('{"format_version": 1, "tensors": [{"name": "w", "shape": [1], "values": [true]}]}',
     "tensor w values must be a flat list of numbers"),
    pytest.param(
        '{"format_version": 1, "tensors": [{"name": "w", "shape": [1], "values": [1%s]}]}'
        % ("0" * 400), "entry 0: OverflowError", id="int_too_large_for_float64"),
])
def test_checkpoint_rejects_malformed_documents(tmp_path, doc, match):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    with pytest.raises(ValueError, match=match):
        load_checkpoint(path)


def test_save_checkpoint_failure_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, {"w": np.ones(3)}, {"n": 1})
    before = path.read_bytes()

    # the document fails to encode, so nothing reaches the temporary file
    with pytest.raises(TypeError, match="not JSON serializable"):
        save_checkpoint(path, {"w": np.zeros(3)}, {"n": object()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]

    # the temporary file is complete but cannot be moved into place
    def replace_fails(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("skewtrain.models.os.replace", replace_fails)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, {"w": np.zeros(3)})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]
