import math

import numpy as np
import numpy.testing as npt
import pytest

from skewtrain.data import ClassProfile
from skewtrain.optim import (
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
    theta = rng.normal(size=d)

    def loss_and_grads(w, example_weights):
        r = X @ w - y
        losses = 0.5 * r**2
        if example_weights is None:
            return losses.mean(), X.T @ r / n
        s = np.asarray(example_weights)
        return (s * losses).sum() / s.sum(), X.T @ (s * r) / s.sum()

    return theta, loss_and_grads


def _whole(theta):
    """bounds for a vector that holds a single tensor."""
    return [(0, theta.size)]


# ---------------------------------------------------------------------------
# SGD with momentum
# ---------------------------------------------------------------------------


def test_sgd_two_step_hand_case():
    # theta0=0, g=1 both steps, lr=0.1, momentum=0.9:
    # v=1, theta=-0.1; v=1.9, theta=-0.1-0.19 = -0.29
    theta = np.array([0.0])
    state = init_state(theta)
    cfg = _cfg()
    for _ in range(2):
        theta, state = sgd_update(theta, np.array([1.0]), 0.1, cfg, state)
    assert theta[0] == -0.29000000000000004
    assert state.velocity[0] == 1.9


def test_sgd_weight_decay_is_coupled():
    # zero gradient, no momentum: theta <- theta (1 - lr * wd)
    theta = np.array([2.0])
    cfg = _cfg(momentum=0.0, weight_decay=0.01)
    theta, _ = sgd_update(theta, np.array([0.0]), 0.5, cfg, init_state(theta))
    assert theta[0] == 2.0 * (1.0 - 0.5 * 0.01)


def test_sgd_is_functional():
    theta = np.array([1.0, 2.0])
    grad = np.array([0.5, 0.5])
    state = init_state(theta)
    new_theta, new_state = sgd_update(theta, grad, 0.1, _cfg(), state)
    npt.assert_array_equal(theta, [1.0, 2.0])
    npt.assert_array_equal(state.velocity, [0.0, 0.0])
    assert new_theta is not theta and new_state is not state


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
    theta = np.array([1.0, -2.0, 3.0])
    state = init_state(theta)
    npt.assert_array_equal(state.velocity, [0.0, 0.0, 0.0])
    npt.assert_array_equal(state.ema, theta)
    assert state.ema is not theta
    with pytest.raises(ValueError, match="ema_decay"):
        init_state(theta, ema_decay=1.5)


def test_ema_update_hand_case():
    state = init_state(np.array([0.0]), ema_decay=0.5)
    state = ema_update(state, np.array([1.0]))
    assert state.ema[0] == 0.5


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
    def loss_and_grads(theta, weights):
        calls.append(weights)
        return 0.0, np.ones(1)

    return loss_and_grads


def test_sam_ascent_weights():
    # s_i = rho_{y_i} / rho on the ascent pass only; None for plain sam
    # and for a zero radius
    profile = ClassProfile(np.array([900, 100]))
    labels = np.array([0, 1, 1])
    theta = np.zeros(1)
    for spec, want in [
        (SamSpec(rho=0.1, mode="sam"), None),
        (SamSpec(rho=0.0, mode="sam_a_paper"), None),
        (SamSpec(rho=0.1, mode="sam_a_paper"),
         rho_per_class(profile, SamSpec(rho=0.1, mode="sam_a_paper"))[labels] / 0.1),
    ]:
        calls = []
        sam_step(theta, init_state(theta), 0.1, _cfg(), spec, _recording_objective(calls),
                 _whole(theta), batch_labels=labels, profile=profile)
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
    # a 4x3 weight and a 4-vector bias, back to back
    rng = np.random.default_rng(3)
    theta = rng.normal(size=16)
    grad = rng.normal(size=16)
    bounds = [(0, 12), (12, 16)]
    pert, skipped = sam_perturb(theta, grad, 0.35, bounds)
    assert not skipped
    delta_sq = sum(float(np.square(pert[a:b] - theta[a:b]).sum()) for a, b in bounds)
    assert abs(math.sqrt(delta_sq) - 0.35) < 1e-12


def test_sam_perturb_norm_is_summed_per_tensor():
    # the squared norm adds one sum per tensor, in bounds order; for
    # this gradient one sum over the whole vector rounds differently
    grad = np.random.default_rng(0).normal(size=301)
    bounds = [(0, 200), (200, 201), (201, 301)]
    pert, _ = sam_perturb(np.zeros(301), grad, 1.0, bounds)
    norm = math.sqrt(sum(float(np.square(grad[a:b]).sum()) for a, b in bounds))
    assert norm != math.sqrt(float(np.square(grad).sum()))
    assert pert.tobytes() == ((1.0 / norm) * grad).tobytes()


def test_sam_perturb_rho_zero_returns_theta():
    theta = np.array([1.0, 2.0])
    pert, skipped = sam_perturb(theta, np.ones(2), 0.0, _whole(theta))
    assert not skipped
    assert pert is theta  # untouched: the update makes a new vector
    npt.assert_array_equal(theta, [1.0, 2.0])


def test_sam_perturb_zero_grad_skips():
    theta = np.array([1.0])
    pert, skipped = sam_perturb(theta, np.zeros(1), 0.1, _whole(theta))
    assert skipped
    npt.assert_array_equal(pert, theta)


def test_sam_step_class_conditional_rho_eff():
    # batch mean of per-class radii; counts [300, 100] -> p = [0.75, 0.25]
    profile = ClassProfile(np.array([300, 100]))
    spec = SamSpec(rho=0.1, mode="sam_a_paper")
    rho = rho_per_class(profile, spec)
    labels = np.array([0, 0, 1, 1])
    theta = np.array([0.0])
    _, _, info = sam_step(theta, init_state(theta), 0.1, _cfg(), spec, _recording_objective([]),
                          _whole(theta), batch_labels=labels, profile=profile)
    assert info.rho_eff == float(rho[labels].mean())


# ---------------------------------------------------------------------------
# Full sharpness-aware step
# ---------------------------------------------------------------------------


def test_sam_step_one_dim_hand_case():
    # f(theta) = theta^2 / 2 at theta=1, rho=0.1, lr=0.1, no momentum:
    # ascent grad 1 -> perturbed 1.1 -> descent grad 1.1 -> theta = 0.89
    theta = np.array([1.0])

    def loss_and_grads(w, weights):
        return 0.5 * float(w[0]) ** 2, w.copy()

    cfg = _cfg(momentum=0.0)
    new_theta, _, info = sam_step(theta, init_state(theta), 0.1, cfg,
                                  SamSpec(rho=0.1, mode="sam"), loss_and_grads, _whole(theta))
    assert new_theta[0] == 0.89
    assert info.ascent_loss == 0.5
    assert info.descent_loss == 0.5 * 1.1**2
    assert info.rho_eff == 0.1 and not info.ascent_skipped


def test_sam_step_mode_off_raises():
    theta = np.zeros(1)
    with pytest.raises(ValueError, match="use sgd_update"):
        sam_step(theta, init_state(theta), 0.1, _cfg(), SamSpec(mode="off"),
                 lambda t, w: (0.0, np.zeros(1)), _whole(theta))


def test_sam_step_class_conditional_needs_labels():
    theta = np.zeros(1)
    spec = SamSpec(rho=0.1, mode="sam_a_paper")
    with pytest.raises(ValueError, match="labels and a profile"):
        sam_step(theta, init_state(theta), 0.1, _cfg(), spec,
                 lambda t, w: (0.0, np.ones(1)), _whole(theta))
    with pytest.raises(ValueError, match="labels and a profile"):
        sam_step(theta, init_state(theta), 0.1, _cfg(), spec, _recording_objective([]),
                 _whole(theta), batch_labels=np.array([0, 1]))
    with pytest.raises(ValueError, match="empty batch"):
        sam_step(theta, init_state(theta), 0.1, _cfg(), spec, _recording_objective([]),
                 _whole(theta), batch_labels=np.array([], dtype=np.int64),
                 profile=ClassProfile(np.array([5, 5])))


def test_sam_step_rho_zero_matches_sgd_bitwise():
    # with rho=0 the perturbation is skipped entirely, so a long
    # trajectory must agree with plain SGD bit for bit
    theta_a, loss_and_grads = _quadratic_problem(seed=7)
    theta_b = theta_a.copy()
    state_a = init_state(theta_a)
    state_b = init_state(theta_b)
    cfg = _cfg()
    for step in range(100):
        lr = 0.05
        theta_a, state_a, _ = sam_step(theta_a, state_a, lr, cfg, SamSpec(rho=0.0, mode="sam"),
                                       loss_and_grads, _whole(theta_a))
        _, grad = loss_and_grads(theta_b, None)
        theta_b, state_b = sgd_update(theta_b, grad, lr, cfg, state_b)
        state_b = ema_update(state_b, theta_b)
    npt.assert_array_equal(theta_a, theta_b)
    npt.assert_array_equal(state_a.velocity, state_b.velocity)
    npt.assert_array_equal(state_a.ema, state_b.ema)


def test_sam_a_inverse_uniform_matches_sam_bitwise():
    # uniform class proportions give every example ascent weight exactly
    # 1.0 and batch radius exactly rho, so the class-conditional step
    # must reproduce plain sam bit for bit
    profile = ClassProfile(np.array([10, 10, 10, 10]))
    labels = np.array([0, 1, 2, 3])
    theta_a, loss_and_grads = _quadratic_problem(seed=11, n=4)
    theta_b = theta_a.copy()
    bounds = _whole(theta_a)
    state_a = init_state(theta_a)
    state_b = init_state(theta_b)
    cfg = _cfg()
    for _ in range(20):
        theta_a, state_a, info_a = sam_step(
            theta_a, state_a, 0.05, cfg, SamSpec(rho=0.1, mode="sam_a_inverse"),
            loss_and_grads, bounds, batch_labels=labels, profile=profile)
        theta_b, state_b, info_b = sam_step(
            theta_b, state_b, 0.05, cfg, SamSpec(rho=0.1, mode="sam"), loss_and_grads, bounds)
        assert info_a.rho_eff == info_b.rho_eff == 0.1
    npt.assert_array_equal(theta_a, theta_b)
    npt.assert_array_equal(state_a.ema, state_b.ema)


def test_sam_a_paper_uniform_matches_rescaled_sam():
    # uniform proportions make the paper radii a constant rho/(1-1/K);
    # the constant ascent weights cancel analytically, so one step must
    # match plain sam at the rescaled radius to rounding error
    profile = ClassProfile(np.array([25, 25, 25, 25]))
    labels = np.array([0, 1, 2, 3])
    theta_a, loss_and_grads = _quadratic_problem(seed=13, n=4)
    theta_b = theta_a.copy()
    bounds = _whole(theta_a)
    cfg = _cfg()
    theta_a, _, info_a = sam_step(theta_a, init_state(theta_a), 0.05, cfg,
                                  SamSpec(rho=0.1, mode="sam_a_paper"),
                                  loss_and_grads, bounds, batch_labels=labels, profile=profile)
    theta_b, _, info_b = sam_step(theta_b, init_state(theta_b), 0.05, cfg,
                                  SamSpec(rho=0.1 / 0.75, mode="sam"), loss_and_grads, bounds)
    assert abs(info_a.rho_eff - info_b.rho_eff) < 1e-15
    npt.assert_allclose(theta_a, theta_b, rtol=0, atol=1e-12)


def test_sam_step_converges_on_quadratic():
    # the overdetermined system has a nonzero least-squares floor, so
    # measure the excess above it rather than the raw loss
    rng = np.random.default_rng(17)
    X = rng.normal(size=(8, 2))
    y = rng.normal(size=8)
    theta = rng.normal(size=2)

    def loss_and_grads(w, weights):
        r = X @ w - y
        return 0.5 * float(np.mean(r**2)), X.T @ r / 8

    w_star, *_ = np.linalg.lstsq(X, y, rcond=None)
    floor = 0.5 * float(np.mean((X @ w_star - y) ** 2))
    first = loss_and_grads(theta, None)[0]
    state = init_state(theta)
    cfg = _cfg(momentum=0.0)
    for _ in range(200):
        theta, state, _ = sam_step(theta, state, 0.1, cfg, SamSpec(rho=0.05, mode="sam"),
                                   loss_and_grads, _whole(theta))
    final = loss_and_grads(theta, None)[0]
    assert final - floor < 0.05 * (first - floor)
