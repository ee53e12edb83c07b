import math

import numpy as np
import numpy.testing as npt
import pytest

from skewtrain.data import ClassProfile
from skewtrain.optim import (
    OptimState,
    SamSpec,
    TrainConfig,
    cosine_lr,
    ema_update,
    init_state,
    rho_per_class,
    sam_perturb,
    sam_step,
    sgd_update,
)


def _cfg(**kw):
    base = dict(lr0=0.1, momentum=0.9, weight_decay=0.0, epochs=100,
                warmup_epochs=0, batch_size=32)
    base.update(kw)
    return TrainConfig(**base)


def _quadratic_problem(seed=0, n=4, d=3):
    """Per-example losses l_i = 0.5 (x_i . w - y_i)^2 on a tiny linear model."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    params = {"w": rng.normal(size=d)}

    def loss_and_grads(p, example_weights):
        r = X @ p["w"] - y
        losses = 0.5 * r**2
        if example_weights is None:
            return losses.mean(), {"w": X.T @ r / n}
        s = np.asarray(example_weights)
        return (s * losses).sum() / s.sum(), {"w": X.T @ (s * r) / s.sum()}

    return params, loss_and_grads


# ---------------------------------------------------------------------------
# SGD with momentum
# ---------------------------------------------------------------------------


def test_sgd_two_step_hand_case():
    # theta0=0, g=1 both steps, lr=0.1, momentum=0.9:
    # v=1, theta=-0.1; v=1.9, theta=-0.1-0.19 = -0.29
    params = {"w": np.array([0.0])}
    state = init_state(params)
    cfg = _cfg()
    for _ in range(2):
        params, state = sgd_update(params, {"w": np.array([1.0])}, 0.1, cfg, state)
    assert params["w"][0] == -0.29000000000000004
    assert state.velocity["w"][0] == 1.9


def test_sgd_weight_decay_is_coupled():
    # zero gradient, no momentum: theta <- theta (1 - lr * wd)
    params = {"w": np.array([2.0])}
    cfg = _cfg(momentum=0.0, weight_decay=0.01)
    params, _ = sgd_update(params, {"w": np.array([0.0])}, 0.5, cfg, init_state(params))
    assert params["w"][0] == 2.0 * (1.0 - 0.5 * 0.01)


def test_sgd_is_functional():
    params = {"w": np.array([1.0, 2.0])}
    grads = {"w": np.array([0.5, 0.5])}
    state = init_state(params)
    new_params, new_state = sgd_update(params, grads, 0.1, _cfg(), state)
    npt.assert_array_equal(params["w"], [1.0, 2.0])
    npt.assert_array_equal(state.velocity["w"], [0.0, 0.0])
    assert new_params is not params and new_state is not state


def test_sgd_key_mismatch():
    params = {"w": np.zeros(2)}
    with pytest.raises(ValueError, match="gradient keys"):
        sgd_update(params, {"b": np.zeros(2)}, 0.1, _cfg(), init_state(params))


def test_train_config_validation():
    with pytest.raises(ValueError, match="lr0"):
        _cfg(lr0=0.0)
    with pytest.raises(ValueError, match="momentum"):
        _cfg(momentum=1.0)
    with pytest.raises(ValueError, match="warmup"):
        _cfg(epochs=10, warmup_epochs=10)


# ---------------------------------------------------------------------------
# Schedule and EMA
# ---------------------------------------------------------------------------


def test_cosine_lr_boundaries():
    cfg = _cfg(lr0=0.2, epochs=20, warmup_epochs=4)
    # warmup ramps as lr0 * (e+1) / W
    assert cosine_lr(0, cfg) == 0.05
    assert cosine_lr(3, cfg) == 0.2
    # first cosine epoch is the peak
    assert cosine_lr(4, cfg) == 0.2
    # last epoch, one step short of zero
    assert abs(cosine_lr(19, cfg) - 0.2 * 0.5 * (1 + math.cos(math.pi * 15 / 16))) < 1e-15
    assert cosine_lr(19, cfg) > 0


def test_cosine_lr_monotone_after_warmup():
    cfg = _cfg(lr0=0.1, epochs=50, warmup_epochs=5)
    lrs = [cosine_lr(e, cfg) for e in range(5, 50)]
    assert all(a > b for a, b in zip(lrs, lrs[1:]))


def test_cosine_lr_range_errors():
    cfg = _cfg(epochs=10)
    with pytest.raises(ValueError, match="outside"):
        cosine_lr(-1, cfg)
    with pytest.raises(ValueError, match="outside"):
        cosine_lr(10, cfg)


def test_init_state_contents():
    params = {"w": np.array([1.0, -2.0]), "b": np.array([3.0])}
    state = init_state(params)
    npt.assert_array_equal(state.velocity["w"], [0.0, 0.0])
    npt.assert_array_equal(state.ema["w"], params["w"])
    assert state.ema["w"] is not params["w"]
    with pytest.raises(ValueError, match="ema_decay"):
        init_state(params, ema_decay=1.5)


def test_ema_update_hand_case():
    params = {"w": np.array([1.0])}
    state = init_state({"w": np.array([0.0])}, ema_decay=0.5)
    state = ema_update(state, params)
    assert state.ema["w"][0] == 0.5


def test_ema_update_validation():
    state = init_state({"w": np.zeros(1)})
    with pytest.raises(ValueError, match="ema keys"):
        ema_update(state, {"v": np.ones(1)})
    with pytest.raises(ValueError, match="ema_decay"):
        ema_update(OptimState(state.velocity, state.ema, -0.1), {"w": np.ones(1)})


# ---------------------------------------------------------------------------
# Per-class radii and ascent weights
# ---------------------------------------------------------------------------


def test_rho_per_class_paper_hand_case():
    # counts [900, 100]: rho_c = rho / (1 - p_c) = [0.05/0.1, 0.05/0.9]
    profile = ClassProfile(np.array([900, 100]))
    rho = rho_per_class(profile, SamSpec(rho=0.05, mode="sam_a_paper"))
    npt.assert_allclose(rho, [0.05 / 0.1, 0.05 / 0.9], rtol=0, atol=1e-15)
    # rarer class gets the larger radius
    assert rho[1] < rho[0]


def test_rho_per_class_paper_direction():
    # under the paper formula the radius grows with class frequency
    profile = ClassProfile(np.array([10, 100, 1000]))
    rho = rho_per_class(profile, SamSpec(rho=0.1, mode="sam_a_paper"))
    assert rho[0] < rho[1] < rho[2]


def test_rho_per_class_inverse_hand_case():
    # counts [900, 100]: rho * (1/2) / p = [0.05*0.5/0.9, 0.05*0.5/0.1]
    profile = ClassProfile(np.array([900, 100]))
    rho = rho_per_class(profile, SamSpec(rho=0.05, mode="sam_a_inverse"))
    npt.assert_allclose(rho, [0.025 / 0.9, 0.25], rtol=0, atol=1e-15)
    assert rho[1] > rho[0]


def test_rho_per_class_inverse_cap():
    # an extreme minority hits the 10x cap
    profile = ClassProfile(np.array([9999, 1]))
    rho = rho_per_class(profile, SamSpec(rho=0.05, mode="sam_a_inverse"))
    assert rho[1] == 0.5


def test_rho_per_class_mode_errors():
    profile = ClassProfile(np.array([10, 10]))
    with pytest.raises(ValueError, match="undefined"):
        rho_per_class(profile, SamSpec(rho=0.1, mode="sam"))
    with pytest.raises(ValueError, match="two classes"):
        rho_per_class(ClassProfile(np.array([10])), SamSpec(rho=0.1, mode="sam_a_paper"))


def _recording_objective(calls):
    """A loss_and_grads that records the example weights it is given."""
    def loss_and_grads(p, weights):
        calls.append(weights)
        return 0.0, {"w": np.ones(1)}

    return loss_and_grads


def test_sam_ascent_weights():
    # s_i = rho_{y_i} / rho on the ascent pass only; None for plain sam
    # and for a zero radius
    profile = ClassProfile(np.array([900, 100]))
    labels = np.array([0, 1, 1])
    params = {"w": np.zeros(1)}
    for spec, want in [
        (SamSpec(rho=0.1, mode="sam"), None),
        (SamSpec(rho=0.0, mode="sam_a_paper"), None),
        (SamSpec(rho=0.1, mode="sam_a_paper"),
         rho_per_class(profile, SamSpec(rho=0.1, mode="sam_a_paper"))[labels] / 0.1),
    ]:
        calls = []
        sam_step(params, init_state(params), 0.1, _cfg(), spec, _recording_objective(calls),
                 batch_labels=labels, profile=profile)
        assert calls[1] is None
        if want is None:
            assert calls[0] is None
        else:
            npt.assert_array_equal(calls[0], want)


def test_sam_spec_validation():
    with pytest.raises(ValueError, match="rho"):
        SamSpec(rho=-0.1)
    with pytest.raises(ValueError, match="mode"):
        SamSpec(mode="asam")


# ---------------------------------------------------------------------------
# Perturbation
# ---------------------------------------------------------------------------


def test_sam_perturb_norm_equals_rho_eff():
    rng = np.random.default_rng(3)
    params = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=4)}
    grads = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=4)}
    pert, skipped = sam_perturb(params, grads, 0.35)
    assert not skipped
    delta_sq = sum(float(np.square(pert[k] - params[k]).sum()) for k in params)
    assert abs(math.sqrt(delta_sq) - 0.35) < 1e-12


def test_sam_perturb_rho_zero_returns_copy():
    params = {"w": np.array([1.0, 2.0])}
    pert, skipped = sam_perturb(params, {"w": np.ones(2)}, 0.0)
    assert not skipped
    assert pert is not params
    assert pert["w"] is params["w"]  # untouched arrays, fresh dict


def test_sam_perturb_zero_grad_skips():
    params = {"w": np.array([1.0])}
    pert, skipped = sam_perturb(params, {"w": np.zeros(1)}, 0.1)
    assert skipped
    npt.assert_array_equal(pert["w"], params["w"])


def test_sam_perturb_errors():
    with pytest.raises(ValueError, match="gradient keys"):
        sam_perturb({"w": np.zeros(1)}, {"v": np.ones(1)}, 0.1)


def test_sam_step_class_conditional_rho_eff():
    # batch mean of per-class radii; counts [300, 100] -> p = [0.75, 0.25]
    profile = ClassProfile(np.array([300, 100]))
    spec = SamSpec(rho=0.1, mode="sam_a_paper")
    rho = rho_per_class(profile, spec)
    labels = np.array([0, 0, 1, 1])
    params = {"w": np.array([0.0])}
    _, _, info = sam_step(params, init_state(params), 0.1, _cfg(), spec,
                          _recording_objective([]), batch_labels=labels, profile=profile)
    assert info.rho_eff == float(rho[labels].mean())


# ---------------------------------------------------------------------------
# Full sharpness-aware step
# ---------------------------------------------------------------------------


def test_sam_step_one_dim_hand_case():
    # f(theta) = theta^2 / 2 at theta=1, rho=0.1, lr=0.1, no momentum:
    # ascent grad 1 -> perturbed 1.1 -> descent grad 1.1 -> theta = 0.89
    params = {"w": np.array([1.0])}

    def loss_and_grads(p, weights):
        return 0.5 * float(p["w"][0]) ** 2, {"w": p["w"].copy()}

    cfg = _cfg(momentum=0.0)
    new_params, _, info = sam_step(params, init_state(params), 0.1, cfg,
                                   SamSpec(rho=0.1, mode="sam"), loss_and_grads)
    assert new_params["w"][0] == 0.89
    assert info.ascent_loss == 0.5
    assert info.descent_loss == 0.5 * 1.1**2
    assert info.rho_eff == 0.1 and not info.ascent_skipped


def test_sam_step_mode_off_raises():
    params = {"w": np.zeros(1)}
    with pytest.raises(ValueError, match="use sgd_update"):
        sam_step(params, init_state(params), 0.1, _cfg(), SamSpec(mode="off"),
                 lambda p, w: (0.0, {"w": np.zeros(1)}))


def test_sam_step_class_conditional_needs_labels():
    params = {"w": np.zeros(1)}
    spec = SamSpec(rho=0.1, mode="sam_a_paper")
    with pytest.raises(ValueError, match="labels and a profile"):
        sam_step(params, init_state(params), 0.1, _cfg(), spec,
                 lambda p, w: (0.0, {"w": np.ones(1)}))
    with pytest.raises(ValueError, match="labels and a profile"):
        sam_step(params, init_state(params), 0.1, _cfg(), spec, _recording_objective([]),
                 batch_labels=np.array([0, 1]))
    with pytest.raises(ValueError, match="empty batch"):
        sam_step(params, init_state(params), 0.1, _cfg(), spec, _recording_objective([]),
                 batch_labels=np.array([], dtype=np.int64), profile=ClassProfile(np.array([5, 5])))


def test_sam_step_rho_zero_matches_sgd_bitwise():
    # with rho=0 the perturbation is skipped entirely, so a long
    # trajectory must agree with plain SGD bit for bit
    params_a, loss_and_grads = _quadratic_problem(seed=7)
    params_b = {k: v.copy() for k, v in params_a.items()}
    state_a = init_state(params_a)
    state_b = init_state(params_b)
    cfg = _cfg()
    for step in range(100):
        lr = 0.05
        params_a, state_a, _ = sam_step(params_a, state_a, lr, cfg,
                                        SamSpec(rho=0.0, mode="sam"), loss_and_grads)
        _, grads = loss_and_grads(params_b, None)
        params_b, state_b = sgd_update(params_b, grads, lr, cfg, state_b)
        state_b = ema_update(state_b, params_b)
    npt.assert_array_equal(params_a["w"], params_b["w"])
    npt.assert_array_equal(state_a.velocity["w"], state_b.velocity["w"])
    npt.assert_array_equal(state_a.ema["w"], state_b.ema["w"])


def test_sam_a_inverse_uniform_matches_sam_bitwise():
    # uniform class proportions give every example ascent weight exactly
    # 1.0 and batch radius exactly rho, so the class-conditional step
    # must reproduce plain sam bit for bit
    profile = ClassProfile(np.array([10, 10, 10, 10]))
    labels = np.array([0, 1, 2, 3])
    params_a, loss_and_grads = _quadratic_problem(seed=11, n=4)
    params_b = {k: v.copy() for k, v in params_a.items()}
    state_a = init_state(params_a)
    state_b = init_state(params_b)
    cfg = _cfg()
    for _ in range(20):
        params_a, state_a, info_a = sam_step(
            params_a, state_a, 0.05, cfg, SamSpec(rho=0.1, mode="sam_a_inverse"),
            loss_and_grads, batch_labels=labels, profile=profile)
        params_b, state_b, info_b = sam_step(
            params_b, state_b, 0.05, cfg, SamSpec(rho=0.1, mode="sam"), loss_and_grads)
        assert info_a.rho_eff == info_b.rho_eff == 0.1
    npt.assert_array_equal(params_a["w"], params_b["w"])
    npt.assert_array_equal(state_a.ema["w"], state_b.ema["w"])


def test_sam_a_paper_uniform_matches_rescaled_sam():
    # uniform proportions make the paper radii a constant rho/(1-1/K);
    # the constant ascent weights cancel analytically, so one step must
    # match plain sam at the rescaled radius to rounding error
    profile = ClassProfile(np.array([25, 25, 25, 25]))
    labels = np.array([0, 1, 2, 3])
    params_a, loss_and_grads = _quadratic_problem(seed=13, n=4)
    params_b = {k: v.copy() for k, v in params_a.items()}
    cfg = _cfg()
    params_a, _, info_a = sam_step(params_a, init_state(params_a), 0.05, cfg,
                                   SamSpec(rho=0.1, mode="sam_a_paper"),
                                   loss_and_grads, batch_labels=labels, profile=profile)
    params_b, _, info_b = sam_step(params_b, init_state(params_b), 0.05, cfg,
                                   SamSpec(rho=0.1 / 0.75, mode="sam"), loss_and_grads)
    assert abs(info_a.rho_eff - info_b.rho_eff) < 1e-15
    npt.assert_allclose(params_a["w"], params_b["w"], rtol=0, atol=1e-12)


def test_sam_step_converges_on_quadratic():
    # the overdetermined system has a nonzero least-squares floor, so
    # measure the excess above it rather than the raw loss
    rng = np.random.default_rng(17)
    X = rng.normal(size=(8, 2))
    y = rng.normal(size=8)
    params = {"w": rng.normal(size=2)}

    def loss_and_grads(p, weights):
        r = X @ p["w"] - y
        return 0.5 * float(np.mean(r**2)), {"w": X.T @ r / 8}

    w_star, *_ = np.linalg.lstsq(X, y, rcond=None)
    floor = 0.5 * float(np.mean((X @ w_star - y) ** 2))
    first = loss_and_grads(params, None)[0]
    state = init_state(params)
    cfg = _cfg(momentum=0.0)
    for _ in range(200):
        params, state, _ = sam_step(params, state, 0.1, cfg,
                                    SamSpec(rho=0.05, mode="sam"), loss_and_grads)
    final = loss_and_grads(params, None)[0]
    assert final - floor < 0.05 * (first - floor)
