import math

import numpy as np
import numpy.testing as npt
import pytest

from skewtrain.config import SamSpec, TrainConfig
from skewtrain.data import ClassProfile
from skewtrain.optim import (
    StepInfo,
    cosine_lr,
    ema_update,
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


def _update(theta, velocity, ema, grad, lr, cfg, decay=0.999):
    """The end of every training step: one sgd_update, then one ema_update, in place."""
    scratch = np.empty_like(theta)
    sgd_update(theta, grad, lr, cfg, velocity, scratch)
    ema_update(ema, theta, decay, scratch)
    return theta, velocity, ema


# The pure forms that the in-place updates replaced: each returns new
# vectors and leaves its inputs untouched. The in-place forms must match
# them byte for byte.


def _pure_sgd_update(theta, grad, lr, config, velocity):
    g = grad + config.weight_decay * theta
    v = config.momentum * velocity + g
    return theta - lr * v, v


def _pure_ema_update(ema, theta, decay):
    return decay * ema + (1.0 - decay) * theta


def _pure_sam_perturb(theta, grad, rho_eff, bounds):
    if rho_eff == 0.0:
        return theta, False
    norm = math.sqrt(sum(float(np.square(grad[a:b]).sum()) for a, b in bounds))
    if norm == 0.0:
        return theta, True
    return theta + (rho_eff / norm) * grad, False


# ---------------------------------------------------------------------------
# SGD with momentum
# ---------------------------------------------------------------------------


def test_sgd_two_step_hand_case():
    # theta0=0, g=1 both steps, lr=0.1, momentum=0.9:
    # v=1, theta=-0.1; v=1.9, theta=-0.1-0.19 = -0.29
    theta = np.array([0.0])
    velocity = np.zeros(1)
    cfg = _cfg()
    for _ in range(2):
        sgd_update(theta, np.array([1.0]), 0.1, cfg, velocity, np.empty(1))
    assert theta[0] == -0.29000000000000004
    assert velocity[0] == 1.9


def test_sgd_weight_decay_is_coupled():
    # zero gradient, no momentum: theta <- theta (1 - lr * wd)
    theta = np.array([2.0])
    cfg = _cfg(momentum=0.0, weight_decay=0.01)
    sgd_update(theta, np.array([0.0]), 0.5, cfg, np.zeros(1), np.empty(1))
    assert theta[0] == 2.0 * (1.0 - 0.5 * 0.01)


def test_sgd_update_writes_in_place():
    # theta and velocity keep their buffers; the gradient is only read
    theta = np.array([1.0, 2.0])
    grad = np.array([0.5, 0.5])
    velocity = np.zeros(2)
    want_theta, want_velocity = _pure_sgd_update(theta, grad, 0.1, _cfg(), velocity)
    assert sgd_update(theta, grad, 0.1, _cfg(), velocity, np.empty(2)) is None
    assert theta.tobytes() == want_theta.tobytes()
    assert velocity.tobytes() == want_velocity.tobytes()
    npt.assert_array_equal(grad, [0.5, 0.5])


def _in_place_run(theta, velocity, ema, grads, lrs, cfg, rho):
    """One trajectory of the in-place updates over the given gradients.

    With rho > 0 each step first moves to the perturbed point, as
    sam_step does, and the perturbed point joins the trajectory.
    """
    bounds = [(0, 12), (12, 16)]
    scratch, perturbed = np.empty_like(theta), np.empty_like(theta)
    addresses = {id(theta), id(velocity), id(ema)}
    seen = []
    for grad, lr in zip(grads, lrs):
        if rho:
            point, _ = sam_perturb(theta, grad, rho, bounds, perturbed)
            seen.append(point.copy())
        sgd_update(theta, grad, lr, cfg, velocity, scratch)
        ema_update(ema, theta, 0.999, scratch)
        seen.extend(v.copy() for v in (theta, velocity, ema))
    assert {id(theta), id(velocity), id(ema)} == addresses
    return seen


def _pure_run(theta, velocity, ema, grads, lrs, cfg, rho):
    bounds = [(0, 12), (12, 16)]
    seen = []
    for grad, lr in zip(grads, lrs):
        if rho:
            seen.append(_pure_sam_perturb(theta, grad, rho, bounds)[0])
        theta, velocity = _pure_sgd_update(theta, grad, lr, cfg, velocity)
        ema = _pure_ema_update(ema, theta, 0.999)
        seen.extend((theta, velocity, ema))
    return seen


@pytest.mark.parametrize("rho", [0.0, 0.05], ids=["plain", "sam"])
def test_in_place_updates_match_the_pure_forms_bytewise(rho):
    # 100 steps on the same gradients: every theta, velocity, EMA and
    # perturbed point is the pure forms' value byte for byte. The
    # gradients span many magnitudes and include a zero and a -0.0 row.
    rng = np.random.default_rng(5)
    grads = rng.normal(size=(100, 16)) * np.exp(rng.normal(size=(100, 1)) * 4.0)
    grads[17] = 0.0
    grads[41] = -0.0
    cfg = TrainConfig(lr0=0.1, momentum=0.9, weight_decay=2e-4, epochs=100, warmup_epochs=5,
                      batch_size=32)
    lrs = [cosine_lr(step, cfg) for step in range(100)]
    theta = rng.normal(size=16)
    start = (theta, np.zeros(16), theta.copy())
    want = _pure_run(*(v.copy() for v in start), grads, lrs, cfg, rho)
    got = _in_place_run(*(v.copy() for v in start), grads, lrs, cfg, rho)
    assert len(got) == len(want) == (400 if rho else 300)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.tobytes() == b.tobytes(), i


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


def test_ema_update_hand_case():
    ema = np.array([0.0])
    theta = np.array([1.0])
    ema_update(ema, theta, 0.5, np.empty(1))
    assert ema[0] == 0.5
    assert theta[0] == 1.0


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
    # only a class-conditional mode at rho > 0 has radii; the rest get None
    for spec in (SamSpec(rho=0.1, mode="off"), SamSpec(rho=0.1, mode="sam"),
                 SamSpec(rho=0.0, mode="sam_a_paper"), SamSpec(rho=0.0, mode="sam_a_inverse")):
        assert rho_per_class(profile, spec) is None
    with pytest.raises(ValueError, match="two classes"):
        rho_per_class(ClassProfile(np.array([10])), SamSpec(rho=0.1, mode="sam_a_paper"))


def _recording_objective(calls):
    """A loss_and_grads that records the example weights it is given."""
    def loss_and_grads(theta, weights):
        calls.append(weights)
        return 0.0, np.ones(1)

    return loss_and_grads


def test_sam_ascent_weights():
    # s_i = rho_{y_i} / rho on the ascent pass only; None without radii
    # (plain sam, or a class-conditional mode at rho 0). At rho 0 the
    # ascent pass is the descent pass, so the objective runs once.
    profile = ClassProfile(np.array([900, 100]))
    radii = rho_per_class(profile, SamSpec(rho=0.1, mode="sam_a_paper"))[np.array([0, 1, 1])]
    theta = np.zeros(1)
    for rho, batch_radii, want in [(0.1, None, None), (0.0, None, None),
                                   (0.1, radii, radii / 0.1)]:
        calls = []
        sam_step(theta, _recording_objective(calls), rho, batch_radii, _whole(theta), np.empty(1))
        assert len(calls) == (1 if rho == 0.0 else 2)
        assert calls[-1] is None
        if want is None:
            assert calls[0] is None
        else:
            npt.assert_array_equal(calls[0], want)


def test_sam_step_at_rho_zero_runs_the_objective_once():
    # the one pass's loss is both losses; no move, no skip flag
    theta = np.array([3.0])
    calls = []

    def loss_and_grads(w, weights):
        calls.append(w)
        return 4.5, np.array([3.0])

    loss, grad, info = sam_step(theta, loss_and_grads, 0.0, None, _whole(theta), np.empty(1))
    assert len(calls) == 1 and calls[0] is theta
    assert loss == 4.5 and grad[0] == 3.0
    assert info == StepInfo(4.5, 4.5, 0.0, False)


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
    pert, skipped = sam_perturb(theta, grad, 0.35, bounds, np.empty(16))
    assert not skipped
    delta_sq = sum(float(np.square(pert[a:b] - theta[a:b]).sum()) for a, b in bounds)
    assert abs(math.sqrt(delta_sq) - 0.35) < 1e-12


def test_sam_perturb_norm_is_summed_per_tensor():
    # the squared norm adds one sum per tensor, in bounds order; for
    # this gradient one sum over the whole vector rounds differently
    grad = np.random.default_rng(0).normal(size=301)
    bounds = [(0, 200), (200, 201), (201, 301)]
    out = np.empty(301)
    pert, _ = sam_perturb(np.zeros(301), grad, 1.0, bounds, out)
    assert pert is out
    norm = math.sqrt(sum(float(np.square(grad[a:b]).sum()) for a, b in bounds))
    assert norm != math.sqrt(float(np.square(grad).sum()))
    assert pert.tobytes() == ((1.0 / norm) * grad).tobytes()


def test_sam_perturb_rho_zero_returns_theta():
    theta = np.array([1.0, 2.0])
    out = np.full(2, 7.0)
    pert, skipped = sam_perturb(theta, np.ones(2), 0.0, _whole(theta), out)
    assert not skipped
    assert pert is theta  # nothing moves, and out is not written
    npt.assert_array_equal(out, [7.0, 7.0])
    npt.assert_array_equal(theta, [1.0, 2.0])


def test_sam_perturb_zero_grad_skips():
    theta = np.array([1.0])
    pert, skipped = sam_perturb(theta, np.zeros(1), 0.1, _whole(theta), np.empty(1))
    assert skipped
    npt.assert_array_equal(pert, theta)


def test_sam_step_class_conditional_rho_eff():
    # batch mean of per-class radii; counts [300, 100] -> p = [0.75, 0.25]
    profile = ClassProfile(np.array([300, 100]))
    spec = SamSpec(rho=0.1, mode="sam_a_paper")
    rho = rho_per_class(profile, spec)
    labels = np.array([0, 0, 1, 1])
    theta = np.array([0.0])
    _, _, info = sam_step(theta, _recording_objective([]), spec.rho, rho[labels], _whole(theta),
                          np.empty(1))
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

    loss, grad, info = sam_step(theta, loss_and_grads, 0.1, None, _whole(theta), np.empty(1))
    sgd_update(theta, grad, 0.1, _cfg(momentum=0.0), np.zeros(1), np.empty(1))
    assert theta[0] == 0.89
    assert info.ascent_loss == 0.5
    assert loss == info.descent_loss == 0.5 * 1.1**2
    assert info.rho_eff == 0.1 and not info.ascent_skipped


def test_sam_step_rho_zero_matches_sgd_bitwise():
    # with rho=0 the perturbation is skipped entirely, so a long
    # trajectory must agree with plain SGD bit for bit
    theta_a, loss_and_grads = _quadratic_problem(seed=7)
    a = (theta_a, np.zeros_like(theta_a), theta_a.copy())
    b = (theta_a.copy(), np.zeros_like(theta_a), theta_a.copy())
    cfg = _cfg()
    for _ in range(100):
        _, grad_a, _ = sam_step(a[0], loss_and_grads, 0.0, None, _whole(theta_a), np.empty(3))
        a = _update(*a, grad_a, 0.05, cfg)
        _, grad_b = loss_and_grads(b[0], None)
        b = _update(*b, grad_b, 0.05, cfg)
    for vec_a, vec_b in zip(a, b):  # theta, velocity, EMA
        npt.assert_array_equal(vec_a, vec_b)


def test_sam_a_inverse_uniform_matches_sam_bitwise():
    # uniform class proportions give every example ascent weight exactly
    # 1.0 and batch radius exactly rho, so the class-conditional step
    # must reproduce plain sam bit for bit
    profile = ClassProfile(np.array([10, 10, 10, 10]))
    radii = rho_per_class(profile, SamSpec(rho=0.1, mode="sam_a_inverse"))[np.array([0, 1, 2, 3])]
    theta_a, loss_and_grads = _quadratic_problem(seed=11, n=4)
    bounds = _whole(theta_a)
    a = (theta_a, np.zeros_like(theta_a), theta_a.copy())
    b = (theta_a.copy(), np.zeros_like(theta_a), theta_a.copy())
    cfg = _cfg()
    for _ in range(20):
        _, grad_a, info_a = sam_step(a[0], loss_and_grads, 0.1, radii, bounds, np.empty(3))
        a = _update(*a, grad_a, 0.05, cfg)
        _, grad_b, info_b = sam_step(b[0], loss_and_grads, 0.1, None, bounds, np.empty(3))
        b = _update(*b, grad_b, 0.05, cfg)
        assert info_a.rho_eff == info_b.rho_eff == 0.1
    npt.assert_array_equal(a[0], b[0])
    npt.assert_array_equal(a[2], b[2])


def test_sam_a_paper_uniform_matches_rescaled_sam():
    # uniform proportions make the paper radii a constant rho/(1-1/K);
    # the constant ascent weights cancel analytically, so one step must
    # match plain sam at the rescaled radius to rounding error
    profile = ClassProfile(np.array([25, 25, 25, 25]))
    radii = rho_per_class(profile, SamSpec(rho=0.1, mode="sam_a_paper"))[np.array([0, 1, 2, 3])]
    theta, loss_and_grads = _quadratic_problem(seed=13, n=4)
    bounds = _whole(theta)
    cfg = _cfg()
    _, grad_a, info_a = sam_step(theta, loss_and_grads, 0.1, radii, bounds, np.empty(3))
    theta_a = theta.copy()
    sgd_update(theta_a, grad_a, 0.05, cfg, np.zeros_like(theta), np.empty(3))
    _, grad_b, info_b = sam_step(theta, loss_and_grads, 0.1 / 0.75, None, bounds, np.empty(3))
    theta_b = theta.copy()
    sgd_update(theta_b, grad_b, 0.05, cfg, np.zeros_like(theta), np.empty(3))
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
    velocity = np.zeros_like(theta)
    cfg = _cfg(momentum=0.0)
    for _ in range(200):
        _, grad, _ = sam_step(theta, loss_and_grads, 0.05, None, _whole(theta), np.empty(2))
        sgd_update(theta, grad, 0.1, cfg, velocity, np.empty(2))
    final = loss_and_grads(theta, None)[0]
    assert final - floor < 0.05 * (first - floor)
