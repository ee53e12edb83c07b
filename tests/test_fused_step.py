"""The closed-form training step against the tape it replaced.

harness.batch_loss_and_grads, training's one step function, computes
the training objective and its gradients in plain numpy. The tape
(forward_stack, supervised_loss, vicreg_loss, joint_loss and backward)
is kept as the reference: the numpy step must reproduce it bit for bit,
signed zeros included, and must raise NumericalError wherever the tape
does. Seeds that train in lockstep run the same step on stacked arrays;
each trial of a stack must have its lone run's bytes, and a non-finite
stack must name the seed of the trial that diverged. Seeds that cannot
stack still go to train_model together and train one after another,
each to its lone run's bytes.
"""

import warnings

import numpy as np
import pytest

from skewtrain.autodiff import NumericalError, Tape, backward, finite_diff_check
from skewtrain.data import ClassProfile, Dataset
from skewtrain import harness
from skewtrain.harness import (
    MethodSpec,
    StepPlan,
    apply_method,
    batch_loss_and_grads,
    build_pools,
    config_from_dict,
    curate_train_split,
    derive_config,
    run_ratio_grid,
    supervised_loss,
    supervised_targets,
    train_model,
)
from skewtrain.losses import (
    FocalSpec,
    JointLossSpec,
    ReweightSpec,
    SmoothingSpec,
    joint_loss,
    reweight_class_weights,
    vicreg_loss,
)
from skewtrain.models import (
    MLPParams,
    forward_stack,
    mlp_init,
    mlp_predict,
    named_to_mlp,
    pack,
    params_to_named,
    unpack,
)
from skewtrain.optim import SamSpec, rho_per_class


def _tape_loss_and_grads(
    params_named, example_weights, *, xb, yb, views, epoch, method, profile, class_w,
    mlp_sizes, proj_sizes,
):
    """The training objective on the tape: the reference for batch_loss_and_grads."""
    tape = Tape()
    leaves = {name: tape.leaf(arr, name=name) for name, arr in params_named.items()}
    mlp_leaves = {n: v for n, v in leaves.items() if n.startswith("mlp.")}
    n_mlp_layers = len(mlp_sizes) - 1
    logits, _ = forward_stack(tape.constant(xb), mlp_leaves, n_mlp_layers, "mlp")
    total = supervised_loss(tape, logits, yb, method, profile, class_w, epoch, example_weights)
    if method.joint_ssl:
        proj_leaves = {n: v for n, v in leaves.items() if n.startswith("proj.")}
        embeddings = []
        for view in views:
            _, penult = forward_stack(tape.constant(view), mlp_leaves, n_mlp_layers, "mlp")
            emb, _ = forward_stack(penult, proj_leaves, len(proj_sizes) - 1, "proj")
            embeddings.append(emb)
        ssl = vicreg_loss(tape, embeddings[0], embeddings[1], method.vicreg)
        total = joint_loss(tape, total, ssl, method.joint)
    grads = backward(tape, total)
    return float(total.value), {name: grads[leaves[name].idx] for name in leaves}


def _fused(params_named, example_weights, *, profile, mlp_sizes, proj_sizes, **kwargs):
    """batch_loss_and_grads on the parameters packed into a plan's theta, gradient named back.

    The stacks are the classifier and, when proj_sizes is given, the
    projector. The target rows come from supervised_targets, as in
    training; the tape reference builds its own from the labels. As
    train_model does, the step runs in an errstate that ignores overflow
    and gets its batch and views float64 and C-contiguous.
    """
    sizes = [mlp_sizes] if proj_sizes is None else [mlp_sizes, proj_sizes]
    prefixes = ("mlp", "proj")[:len(sizes)]
    plan = StepPlan(pack([named_to_mlp(params_named, s, p) for s, p in zip(sizes, prefixes)]), sizes)
    xb, yb, views, epoch, method, class_w = (
        kwargs[k] for k in ("xb", "yb", "views", "epoch", "method", "class_w"))
    for a in [xb, *(views or ())]:
        assert a.dtype == np.float64 and a.flags.c_contiguous
    targets = supervised_targets(yb, method, profile)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        loss, grad = batch_loss_and_grads(plan, xb, yb, targets, views, epoch, method, class_w,
                                          plan.theta, example_weights)
    assert grad is plan.grad
    named = {}
    for stack, prefix in zip(unpack(grad, sizes), prefixes):
        named.update(params_to_named(stack, prefix))
    return loss, named


_SAM = SamSpec(rho=0.05, mode="sam_a_paper")
_DEFER = ReweightSpec(defer_epoch=1)

METHODS = {
    "erm": MethodSpec(),
    "reweighted": MethodSpec(loss="reweighted", reweight=_DEFER),
    "smoothed_paper": MethodSpec(loss="smoothed"),
    "smoothed_inverse": MethodSpec(
        loss="smoothed", smoothing=SmoothingSpec(mode="inverse_proportion")),
    "focal_0": MethodSpec(loss="focal", focal=FocalSpec(gamma=0.0)),
    "focal_0.5": MethodSpec(loss="focal", focal=FocalSpec(gamma=0.5)),
    "focal_2": MethodSpec(loss="focal", focal=FocalSpec(gamma=2.0)),
    "joint_0": MethodSpec(joint_ssl=True, joint=JointLossSpec(lam=0.0)),
    "joint_0.7": MethodSpec(joint_ssl=True, joint=JointLossSpec(lam=0.7)),
    "joint_2.5_reweighted": MethodSpec(
        loss="reweighted", reweight=_DEFER, joint_ssl=True, joint=JointLossSpec(lam=2.5)),
}

# (hidden sizes, classes, batch size, projector sizes after its input);
# "wide" has the toy problem's hidden layers and batch, where numpy's
# symmetric product centered.T @ centered rounds differently from the
# tape's general one.
SHAPES = {
    "one_hidden": ([16], 2, 7, [6, 5]),
    "three_hidden": ([8, 6, 4], 3, 7, [6, 5]),
    "wide": ([64, 64], 5, 128, [12, 10]),
    # 10 classes: the loss reduces its rows through numpy's reduce
    "ten_class": ([16], 10, 30, [6, 5]),
    # an epoch's last batch may be one row, which row_sum reduces by numpy's
    # own reduce; VICReg needs two rows, so joint methods skip it
    "one_row": ([16], 3, 1, [6, 5]),
}


def _instance(shape: str, method: MethodSpec, ascent: bool, epoch: int, seed: int = 0):
    """(params, example_weights, keyword arguments) of one training-step call."""
    hidden, k, batch, projector = SHAPES[shape]
    profile = ClassProfile(np.array([40, 12, 3, 2, 1, 25, 9, 6, 4, 2][:k]))
    rng = np.random.default_rng(seed)
    mlp_sizes = [2] + hidden + [k]
    proj_sizes = [hidden[-1]] + projector
    params = params_to_named(mlp_init(mlp_sizes, seed=seed), "mlp")
    if method.joint_ssl:
        params.update(params_to_named(mlp_init(proj_sizes, seed=seed + 1), "proj"))
    xb = rng.normal(size=(batch, 2)) * 2.0
    yb = np.arange(batch) % k
    views = [xb + rng.normal(size=xb.shape) * 0.3, xb * 1.1 + rng.normal(size=xb.shape) * 0.3]
    weights = rho_per_class(profile, _SAM)[yb] / _SAM.rho if ascent else None
    kwargs = dict(
        xb=xb, yb=yb, views=views if method.joint_ssl else None, epoch=epoch, method=method,
        profile=profile, class_w=reweight_class_weights(profile), mlp_sizes=mlp_sizes,
        proj_sizes=proj_sizes if method.joint_ssl else None,
    )
    return params, weights, kwargs


@pytest.mark.parametrize("epoch", [0, 1], ids=["before_defer", "at_defer"])
@pytest.mark.parametrize("ascent", [False, True], ids=["plain", "sam_ascent"])
@pytest.mark.parametrize("name, shape", [
    (name, shape) for name in METHODS for shape in SHAPES
    if SHAPES[shape][2] > 1 or not METHODS[name].joint_ssl
])
def test_fused_step_is_bitwise_the_tape(name, shape, ascent, epoch):
    params, weights, kwargs = _instance(shape, METHODS[name], ascent, epoch)
    want_loss, want = _tape_loss_and_grads(params, weights, **kwargs)
    got_loss, got = _fused(params, weights, **kwargs)
    assert np.float64(got_loss).tobytes() == np.float64(want_loss).tobytes()
    assert list(got) == list(want) == list(params)
    for key in want:
        assert got[key].shape == want[key].shape, key
        # tobytes tells -0.0 from 0.0
        assert got[key].tobytes() == want[key].tobytes(), key


def test_fused_step_fills_zeros_for_unused_parameters():
    # a whole projector stack that a non-joint method never reads
    params, weights, kwargs = _instance("one_hidden", METHODS["erm"], False, 0)
    kwargs["proj_sizes"] = [16, 6, 5]
    params.update(params_to_named(mlp_init(kwargs["proj_sizes"], seed=1), "proj"))
    _, grads = _fused(params, weights, **kwargs)
    _, want = _tape_loss_and_grads(params, weights, **kwargs)
    assert list(grads) == list(params)
    for name in ("proj.w0", "proj.b0", "proj.w1", "proj.b1"):
        zeros = np.zeros(params[name].shape).tobytes()
        assert grads[name].tobytes() == want[name].tobytes() == zeros, name


@pytest.mark.parametrize("ascent", [False, True], ids=["plain", "sam_ascent"])
@pytest.mark.parametrize("name", ["erm", "reweighted", "smoothed_paper", "focal_2", "joint_0.7"])
def test_fused_gradients_match_finite_differences(name, ascent):
    params, weights, kwargs = _instance("one_hidden", METHODS[name], ascent, epoch=1, seed=3)
    loss, grads = _fused(params, weights, **kwargs)
    # VICReg ignores a common shift of both views' embeddings, so the
    # projector's output bias has a zero gradient that only rounding
    # moves; finite differences cannot resolve it relatively.
    shift_invariant = [n for n in params if n == "proj.b1"]
    for n in shift_invariant:
        assert np.abs(grads[n]).max() < 1e-12
    names = [n for n in params if n not in shift_invariant]

    def f(point):
        return _fused({**params, **dict(zip(names, point))}, weights, **kwargs)[0]

    assert f([params[n] for n in names]) == loss
    report = finite_diff_check(f, [params[n] for n in names], [grads[n] for n in names],
                               tolerance=1e-4)
    assert report.passed, f"max rel err {report.max_relative_error:.3e}"


def _one_layer(logits_rows, labels, method):
    """A step call whose logits are exactly logits_rows: identity weights, no hidden layer."""
    xb = np.array(logits_rows, dtype=np.float64)
    k = xb.shape[1]
    params = {"mlp.w0": np.eye(k), "mlp.b0": np.zeros(k)}
    kwargs = dict(
        xb=xb, yb=np.array(labels), views=None, epoch=0, method=method,
        profile=ClassProfile(np.array([5] * k)), class_w=np.ones(k), mlp_sizes=[k, k],
        proj_sizes=None,
    )
    return params, kwargs


def test_focal_at_p_t_one_is_finite_and_bitwise_the_tape():
    # A margin of 40 rounds p_t to 1 and -log p_t to 0. Below gamma 1,
    # d/dp (1 - p)^gamma is infinite there; both paths use the power-rule
    # term's limit, 0, instead of 0 * inf.
    for gamma in (0.5, 2.0):
        method = MethodSpec(loss="focal", focal=FocalSpec(gamma=gamma))
        params, kwargs = _one_layer([[40.0, 0.0], [0.0, 1.0]], [0, 1], method)
        want_loss, want = _tape_loss_and_grads(params, None, **kwargs)
        got_loss, got = _fused(params, None, **kwargs)
        assert np.float64(got_loss).tobytes() == np.float64(want_loss).tobytes()
        for key in want:
            assert np.isfinite(got[key]).all(), (gamma, key)
            assert got[key].tobytes() == want[key].tobytes(), (gamma, key)
        # the first example adds nothing: the gradient is the second one's alone
        params_2, kwargs_2 = _one_layer([[0.0, 1.0]], [1], method)
        _, alone = _fused(params_2, None, **kwargs_2)
        np.testing.assert_array_equal(got["mlp.b0"], alone["mlp.b0"] / 2)


def test_overflowing_pre_activation_is_named():
    params, kwargs = _one_layer([[1e200, 0.0], [0.0, 1.0]], [0, 1], MethodSpec())
    params["mlp.w0"] = params["mlp.w0"] * 1e200
    with pytest.raises(NumericalError):
        _tape_loss_and_grads(params, None, **kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        match = r"non-finite pre-activation in layer 0 of a \[2, 2\] stack"
        with pytest.raises(NumericalError, match=match):
            _fused(params, None, **kwargs)


def test_non_finite_focal_power_rule_gradient_is_named():
    # p_t underflows to 0 and -log p_t is 1e308: at gamma 2 the power-rule
    # term 1e308 * 2 * (1 - p_t) overflows on both paths (at gamma 0.5 it stays finite)
    method = MethodSpec(loss="focal", focal=FocalSpec(gamma=2.0))
    params, kwargs = _one_layer([[0.0, -1e308]], [1], method)
    with pytest.raises(NumericalError, match=r"^non-finite gradient in backward of 'powc'"):
        _tape_loss_and_grads(params, None, **kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="^non-finite focal power-rule gradient$"):
            _fused(params, None, **kwargs)


def test_joint_ssl_divergence_is_reported_at_the_tape_step():
    # The tape objective diverged here too, at the same epoch and step.
    cfg = apply_method(config_from_dict({
        "data": {"classes": 3, "train_per_class": 30, "test_per_class": 20, "sigma": 0.5},
        "train": {"lr0": 0.1, "epochs": 2, "warmup_epochs": 1, "batch_size": 32},
        "hidden": [8],
        "seeds": [0],
    }), "joint_ssl")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"training diverged at epoch 1, step 0 \(seed 0\)"):
            train_model(cfg, [0], [build_pools(cfg, 0)[0]])  # uncurated: the pool is the split


def _stage_call(stage):
    """(params, kwargs) of a step call whose pre-activations are finite and whose stage is not."""
    if stage == "supervised loss":
        # logits 1e308 and -1e308: the shifted row overflows to -inf,
        # and -inf times the target's 0 is nan
        return _one_layer([[1e308, -1e308]], [0], MethodSpec())
    if stage == "gradient":
        # [1, 1, 2]: the hidden unit is 1, the logits 0.85e308 and
        # -0.85e308, and the loss 1.7e308; the hidden gradient is 1.7e308
        # and the first weight's gradient x times that, which overflows
        _, kwargs = _one_layer([[2.0, 0.0]], [1], MethodSpec())  # its two-class profile
        params = {"mlp.w0": np.array([[0.5]]), "mlp.b0": np.zeros(1),
                  "mlp.w1": np.array([[0.85e308, -0.85e308]]), "mlp.b1": np.zeros(2)}
        kwargs.update(xb=np.array([[2.0]]), mlp_sizes=[1, 1, 2])
        return params, kwargs
    # views 1e200 times the batch: finite embeddings whose covariance overflows
    params, _, kwargs = _instance("one_hidden", METHODS["joint_0.7"], False, 0)
    kwargs["views"] = [view * 1e200 for view in kwargs["views"]]
    return params, kwargs


# (hidden, trial seed, the one feature's value, class counts, preset) of
# a train_model call that raises at each stage on its first step; found
# by a search over these values
_STAGE_TRIALS = {
    "supervised loss": ([1], 1, 1e308, (8, 8), None),
    "gradient": ([2], 3, 1.7e308, (14, 2), None),
    "joint objective": ([2], 1, 1e200, (8, 8), "joint_ssl"),
}


def _stage_trial(stage):
    """(config, seed, train split) of the _STAGE_TRIALS row of stage."""
    hidden, seed, value, (n0, n1), preset = _STAGE_TRIALS[stage]
    cfg = config_from_dict({
        "data": {"classes": 2},
        "train": {"lr0": 0.1, "epochs": 2, "warmup_epochs": 1, "batch_size": 16},
        "hidden": hidden,
        "seeds": [seed],
    })
    if preset is not None:
        cfg = apply_method(cfg, preset)
    split = Dataset(np.full((n0 + n1, 1), value), np.array([0] * n0 + [1] * n1), ["a", "b"])
    return cfg, seed, split


@pytest.mark.parametrize("stage", list(_STAGE_TRIALS))
def test_each_non_finite_stage_of_the_step_is_named(stage):
    params, kwargs = _stage_call(stage)
    with pytest.raises(NumericalError):
        _tape_loss_and_grads(params, None, **kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=f"^non-finite {stage}$"):
            _fused(params, None, **kwargs)


@pytest.mark.parametrize("stage", list(_STAGE_TRIALS))
def test_train_model_names_each_non_finite_stage(stage):
    cfg, seed, split = _stage_trial(stage)
    message = rf"^training diverged at epoch 0, step 0 \(seed {seed}\): non-finite {stage}$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=message):
            train_model(cfg, [seed], [split])


@pytest.mark.parametrize("outer", [{}, {"over": "raise", "divide": "raise", "invalid": "raise"}],
                         ids=["default", "raise"])
@pytest.mark.parametrize("ends", ["returns", "raises"])
def test_train_model_restores_numpys_error_state(ends, outer):
    # train_model ignores overflow while an epoch's batches run; the
    # caller's error state must be back when it returns or raises.
    cfg = apply_method(config_from_dict({
        "data": {"classes": 3, "train_per_class": 30, "test_per_class": 20, "sigma": 0.5},
        "train": {"lr0": 0.1, "epochs": 2, "warmup_epochs": 1, "batch_size": 32},
        "hidden": [8],
        "seeds": [0],
    }), "joint_ssl")
    if ends == "returns":
        cfg.train.lr0 = 5e-4
    split = build_pools(cfg, 0)[0]
    with np.errstate(**outer):
        before = np.geterr()
        if ends == "returns":
            train_model(cfg, [0], [split])
        else:
            # the step that diverges is the first of epoch 1
            with pytest.raises(NumericalError, match=r"epoch 1, step 0"):
                train_model(cfg, [0], [split])
        assert np.geterr() == before


def _reference_predict(params: MLPParams, x):
    """mlp_predict as it was before it shared mlp_forward with training."""
    h = np.asarray(x, dtype=np.float64)
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


@pytest.mark.parametrize("sizes", [[2, 5], [2, 16, 3], [3, 8, 6, 4, 5], [2, 16, 7], [2, 16, 8]],
                         ids=["no_hidden", "one_hidden", "three_hidden", "seven_classes",
                              "eight_classes"])
def test_mlp_predict_is_bitwise_unchanged(sizes):
    params = mlp_init(sizes, seed=11)
    params.biases = [np.random.default_rng(i).normal(size=b.shape) for i, b in enumerate(params.biases)]
    x = np.random.default_rng(12).normal(size=(33, sizes[0])) * 3.0
    got = mlp_predict(params, x)
    want = _reference_predict(params, x)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    if len(sizes) == 2:
        assert got[2].tobytes() == x.tobytes()  # no hidden layer: the penultimate is the input


# ---------------------------------------------------------------------------
# Seeds trained in lockstep: one stacked step per batch
# ---------------------------------------------------------------------------

LOCKSTEP_BATCH = 16


def _lockstep_trials(preset, n_seeds, hidden):
    """(config, seeds, curated splits) of n_seeds trials that train as one stack.

    Train ratio 0.32 curates 60, 34 and 19 rows, so every epoch ends with
    a one-row batch: the stack's single-row row_sum branch.
    """
    cfg = apply_method(config_from_dict({
        "data": {"classes": 3, "train_per_class": 60, "test_per_class": 10, "sigma": 1.0},
        "train": {"lr0": 0.1, "epochs": 4, "warmup_epochs": 1, "batch_size": LOCKSTEP_BATCH},
        "hidden": hidden,
        "r_train": 0.32,
        "seeds": list(range(n_seeds)),
    }), preset)
    splits = [curate_train_split(cfg, build_pools(cfg, seed)[0], seed) for seed in cfg.seeds]
    return cfg, cfg.seeds, splits


def _assert_each_has_its_lone_bytes(cfg, seeds, splits, track_train_acc=True):
    """train_model on all seeds gives one model per seed, in order, each its lone run's."""
    models = train_model(cfg, seeds, splits, track_train_acc=track_train_acc)
    assert len(models) == len(seeds)
    for seed, split, model in zip(seeds, splits, models):
        [lone] = train_model(cfg, [seed], [split], track_train_acc=track_train_acc)
        assert model.raw.tobytes() == lone.raw.tobytes()
        assert model.ema.tobytes() == lone.ema.tobytes()
        assert model.train_split is split
        assert model.train_acc_trajectory == lone.train_acc_trajectory
        assert model.epochs_to_full_fit == lone.epochs_to_full_fit


@pytest.mark.parametrize("hidden", [[16], [16, 16]], ids=["one_hidden", "two_hidden"])
@pytest.mark.parametrize("n_seeds", [2, 5])
@pytest.mark.parametrize("preset", ["erm", "smoothed", "focal", "reweight", "drw"])
def test_each_stacked_trial_has_its_lone_bytes(preset, n_seeds, hidden):
    # drw reweights from epoch 2 of 4, so its trials run both sides of defer_epoch
    cfg, seeds, splits = _lockstep_trials(preset, n_seeds, hidden)
    assert splits[0].n % LOCKSTEP_BATCH == 1
    _assert_each_has_its_lone_bytes(cfg, seeds, splits, track_train_acc=preset == "erm")


@pytest.mark.parametrize("preset, overrides", [
    ("sam", {}), ("joint_ssl", {"train": {"lr0": 5e-4}}), ("resample", {}),
    ("erm", {"stop_at_train_acc": 0.9}), ("erm", {"hidden": [128]}),
])
def test_a_step_that_does_not_stack_trains_each_seed_alone(preset, overrides):
    cfg, seeds, splits = _lockstep_trials(preset, 2, [16])
    _assert_each_has_its_lone_bytes(derive_config(cfg, overrides), seeds, splits)


def test_splits_of_unequal_class_counts_do_not_stack():
    cfg, seeds, splits = _lockstep_trials("erm", 2, [16])
    short = splits[1]
    # the same size, one row moved from class 2 to class 1
    y = short.y.copy()
    y[np.flatnonzero(y == 2)[0]] = 1
    splits[1] = Dataset(short.X, y, short.class_names)
    _assert_each_has_its_lone_bytes(cfg, seeds, splits)


def _poisoned_stack(stage):
    """(config, seeds, splits) of a stack whose second trial is _STAGE_TRIALS[stage]'s."""
    cfg, seed, split = _stage_trial(stage)
    ordinary = Dataset(np.ones_like(split.X), split.y, split.class_names)
    return derive_config(cfg, {"seeds": [seed + 1, seed]}), [seed + 1, seed], [ordinary, split]


@pytest.mark.parametrize("stage", ["supervised loss", "gradient"])
def test_a_diverged_stack_names_its_seed_and_stage(stage):
    cfg, seeds, splits = _poisoned_stack(stage)
    message = rf"^training diverged at epoch 0, step 0 \(seed {seeds[1]}\): non-finite {stage}$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=message):
            train_model(cfg, seeds, splits)
        # the ordinary trial alone trains
        train_model(cfg, seeds[:1], splits[:1])


def test_a_diverged_stack_reads_as_its_lone_trial(monkeypatch, tmp_path):
    # one seed's train split scaled to 1e300: its forward overflows, and
    # the stack raises the lone trial's message before anything is written
    cfg, seeds, splits = _lockstep_trials("erm", 3, [16])
    real = harness.curate_train_split

    def curate_train_split(config, pool, seed):
        split = real(config, pool, seed)
        return Dataset(split.X * 1e300, split.y, split.class_names) if seed == 1 else split

    monkeypatch.setattr(harness, "curate_train_split", curate_train_split)
    with pytest.raises(NumericalError) as lone:
        train_model(cfg, [1], [curate_train_split(cfg, build_pools(cfg, 1)[0], 1)])
    assert "(seed 1): non-finite" in str(lone.value)
    trained = []
    real_train = harness.train_model
    monkeypatch.setattr(harness, "train_model",
                        lambda config, seeds, splits, **kwargs: trained.append(seeds)
                        or real_train(config, seeds, splits, **kwargs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError) as stacked:
            run_ratio_grid(cfg, [0.32, 1.0], [0.32, 1.0], out_dir=tmp_path / "out")
    assert str(stacked.value) == str(lone.value)
    assert trained == [[0, 1, 2]]
    assert not (tmp_path / "out").exists()
