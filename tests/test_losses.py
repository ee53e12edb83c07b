import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewtrain.autodiff import Tape, backward, check_gradients, reduce_sum
from skewtrain.config import (
    FocalSpec,
    JointLossSpec,
    MethodSpec,
    ReweightSpec,
    SmoothingSpec,
    VicRegSpec,
)
from skewtrain.data import ClassProfile
from skewtrain.harness import supervised_loss
from skewtrain.losses import (
    class_epsilons,
    cross_entropy_and_grad,
    cross_entropy_vec,
    focal_and_grad,
    joint_loss,
    one_hot,
    reweight_class_weights,
    smoothed_targets,
    vicreg_loss,
)


def _uniform_profile(k, per_class=10):
    return ClassProfile(np.full(k, per_class))


def _mean_ce(tape, logits, targets):
    """Batch-mean cross-entropy against soft targets, reduced as training reduces."""
    vec = cross_entropy_vec(tape, logits, targets)
    b = vec.shape[0]
    return reduce_sum(vec * tape.constant(np.ones(b))) * (1.0 / b)


def _supervised(tape, logits, labels, profile, epoch=0, **method):
    """supervised_loss for MethodSpec(**method) at the given epoch."""
    return supervised_loss(tape, logits, labels, MethodSpec(**method), profile,
                           reweight_class_weights(profile), epoch)


# ---------------------------------------------------------------------------
# Cross-entropy
# ---------------------------------------------------------------------------


def test_ce_uniform_logits_is_log_k():
    tape = Tape()
    logits = tape.leaf(np.zeros((1, 2)))
    loss = _supervised(tape, logits, np.array([0]), _uniform_profile(2), loss="ce")
    assert abs(float(loss.value) - math.log(2)) < 1e-12


def test_ce_against_direct_formula():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(2, 3)) * 2
    targets = rng.dirichlet(np.ones(3), size=2)
    tape = Tape()
    loss = _mean_ce(tape, tape.leaf(logits), targets)
    # independent evaluation straight from the definition
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    direct = float(-(targets * logp).sum(axis=1).mean())
    assert abs(float(loss.value) - direct) < 1e-12


def test_ce_entropy_fixed_point():
    # targets equal to softmax(logits) give the entropy; uniform K=4 -> ln 4
    tape = Tape()
    logits = tape.leaf(np.zeros((3, 4)))
    loss = _mean_ce(tape, logits, np.full((3, 4), 0.25))
    assert abs(float(loss.value) - math.log(4)) < 1e-12


def test_ce_rejects_bad_target_rows():
    tape = Tape()
    logits = tape.leaf(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="sum to 1"):
        _mean_ce(tape, logits, np.array([[0.5, 0.5], [0.7, 0.6]]))
    with pytest.raises(ValueError, match="non-negative"):
        _mean_ce(tape, logits, np.array([[1.5, -0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="shape"):
        _mean_ce(tape, logits, np.full((2, 3), 1 / 3))


def test_ce_vec_is_per_example():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(5, 3))
    targets = one_hot(np.array([0, 1, 2, 0, 1]), 3)
    tape = Tape()
    vec = cross_entropy_vec(tape, tape.leaf(logits), targets)
    assert vec.shape == (5,)
    assert np.all(vec.value > 0)


def test_one_hot_validation():
    npt.assert_array_equal(one_hot(np.array([1, 0]), 3),
                           [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="outside"):
        one_hot(np.array([3]), 3)


# ---------------------------------------------------------------------------
# Class-conditional smoothing
# ---------------------------------------------------------------------------


def test_class_epsilons_paper_formula_hand_case():
    # K=4 uniform, eps=0.1: eps_i = 0.1 / 0.75 = 2/15 for every class
    eps = class_epsilons(_uniform_profile(4), SmoothingSpec(epsilon=0.1))
    npt.assert_allclose(eps, np.full(4, 0.1 / 0.75), rtol=0, atol=1e-15)


def test_class_epsilons_inverse_uniform_reduces_to_standard():
    eps = class_epsilons(_uniform_profile(4),
                         SmoothingSpec(epsilon=0.1, mode="inverse_proportion"))
    npt.assert_allclose(eps, np.full(4, 0.1), rtol=0, atol=1e-15)


def test_class_epsilons_direction_of_modes():
    profile = ClassProfile(np.array([900, 100]))
    paper = class_epsilons(profile, SmoothingSpec(epsilon=0.1))
    inverse = class_epsilons(profile, SmoothingSpec(epsilon=0.1, mode="inverse_proportion"))
    # paper formula smooths frequent classes harder, inverse does the opposite
    assert paper[0] > paper[1]
    assert inverse[0] < inverse[1]
    # frozen values: 0.1/(1-0.9)=1.0 clamps to 0.8; 0.1*(0.5/0.1)=0.5
    assert paper[0] == 0.8
    assert abs(inverse[1] - 0.5) < 1e-15


def test_class_epsilons_clamp():
    profile = ClassProfile(np.array([999, 1]))
    spec = SmoothingSpec(epsilon=0.3, epsilon_max=0.6)
    assert np.all(class_epsilons(profile, spec) <= 0.6)


def test_smoothed_targets_hand_case():
    # paper formula, K=4 uniform, eps=0.1: eps_i = 2/15, off-entry
    # eps_i/4 = 1/30, main entry 1 - 2/15 + 1/30 = 0.9
    q = smoothed_targets(np.array([2]), _uniform_profile(4), SmoothingSpec(epsilon=0.1))
    npt.assert_allclose(q, [[1 / 30, 1 / 30, 0.9, 1 / 30]], rtol=0, atol=1e-12)


def test_smoothed_targets_zero_eps_is_one_hot():
    q = smoothed_targets(np.array([0, 1]), _uniform_profile(3), SmoothingSpec(epsilon=0.0))
    npt.assert_array_equal(q, one_hot(np.array([0, 1]), 3))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(1, 500), min_size=2, max_size=6),
    st.floats(0.0, 0.5),
    st.sampled_from(["paper_formula", "inverse_proportion"]),
)
def test_smoothed_target_rows_are_distributions(counts, eps, mode):
    profile = ClassProfile(np.array(counts))
    k = len(counts)
    labels = np.arange(k)
    q = smoothed_targets(labels, profile, SmoothingSpec(epsilon=eps, mode=mode))
    npt.assert_allclose(q.sum(axis=1), np.ones(k), rtol=0, atol=1e-12)
    assert np.all(q >= 0) and np.all(q <= 1)
    # the true class keeps the largest share
    assert np.all(q.argmax(axis=1) == labels)


def test_smoothing_spec_validation():
    with pytest.raises(ValueError, match="epsilon"):
        SmoothingSpec(epsilon=1.0)
    with pytest.raises(ValueError, match="mode"):
        SmoothingSpec(mode="linear")


# ---------------------------------------------------------------------------
# Focal loss
# ---------------------------------------------------------------------------


def test_focal_hand_case():
    # two labels, equal logits -> p_t = 0.5; gamma=2 gives 0.25 * ln 2
    tape = Tape()
    logits = tape.leaf(np.zeros((1, 2)))
    loss = _supervised(tape, logits, np.array([0]), _uniform_profile(2),
                       loss="focal", focal=FocalSpec(gamma=2.0))
    assert abs(float(loss.value) - 0.25 * math.log(2)) < 1e-12


def test_focal_gamma_zero_is_cross_entropy():
    rng = np.random.default_rng(6)
    logits = rng.normal(size=(4, 3)) * 2
    labels = np.array([0, 2, 1, 1])
    tape = Tape()
    f = _supervised(tape, tape.leaf(logits), labels, _uniform_profile(3),
                    loss="focal", focal=FocalSpec(gamma=0.0))
    ce = _supervised(tape, tape.leaf(logits), labels, _uniform_profile(3), loss="ce")
    assert abs(float(f.value) - float(ce.value)) < 1e-12


def test_focal_vanishes_at_confident_correct():
    tape = Tape()
    logits = tape.leaf(np.array([[30.0, 0.0]]))
    loss = _supervised(tape, logits, np.array([0]), _uniform_profile(2),
                       loss="focal", focal=FocalSpec(gamma=2.0))
    assert float(loss.value) < 1e-10


def test_focal_down_weights_easy_examples():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, size=6)
    tape = Tape()
    f = _supervised(tape, tape.leaf(logits), labels, _uniform_profile(4),
                    loss="focal", focal=FocalSpec(gamma=2.0))
    ce = _supervised(tape, tape.leaf(logits), labels, _uniform_profile(4), loss="ce")
    assert float(f.value) < float(ce.value)


def test_focal_spec_validation():
    with pytest.raises(ValueError, match="gamma"):
        FocalSpec(gamma=-1.0)


# ---------------------------------------------------------------------------
# Reweighted cross-entropy
# ---------------------------------------------------------------------------


def test_reweight_class_weights_hand_case():
    # counts [900, 100]: w = [1000/1800, 1000/200] = [5/9, 5]
    w = reweight_class_weights(ClassProfile(np.array([900, 100])))
    npt.assert_allclose(w, [5 / 9, 5.0], rtol=0, atol=1e-15)
    # class-frequency-weighted average of w is 1 by construction
    assert abs((np.array([900, 100]) / 1000 * w).sum() - 1.0) < 1e-12


def test_reweighted_ce_balanced_equals_plain():
    rng = np.random.default_rng(9)
    logits = rng.normal(size=(6, 3))
    labels = np.array([0, 1, 2, 0, 1, 2])
    tape = Tape()
    rw = _supervised(tape, tape.leaf(logits), labels, _uniform_profile(3), epoch=5,
                     loss="reweighted", reweight=ReweightSpec(defer_epoch=0))
    ce = _supervised(tape, tape.leaf(logits), labels, _uniform_profile(3), loss="ce")
    assert abs(float(rw.value) - float(ce.value)) < 1e-12


def test_reweighted_ce_deferral():
    rng = np.random.default_rng(10)
    logits = rng.normal(size=(4, 2))
    labels = np.array([0, 0, 0, 1])
    profile = ClassProfile(np.array([300, 100]))
    tape = Tape()
    before = _supervised(tape, tape.leaf(logits), labels, profile, epoch=99,
                         loss="reweighted", reweight=ReweightSpec(defer_epoch=100))
    plain = _supervised(tape, tape.leaf(logits), labels, profile, loss="ce")
    at = _supervised(tape, tape.leaf(logits), labels, profile, epoch=100,
                     loss="reweighted", reweight=ReweightSpec(defer_epoch=100))
    assert abs(float(before.value) - float(plain.value)) < 1e-12
    assert float(at.value) != float(plain.value)


def test_reweighted_ce_matches_manual_weighting():
    rng = np.random.default_rng(11)
    logits = rng.normal(size=(5, 2))
    labels = np.array([0, 0, 1, 0, 1])
    profile = ClassProfile(np.array([900, 100]))
    tape = Tape()
    loss = _supervised(tape, tape.leaf(logits), labels, profile,
                       loss="reweighted", reweight=ReweightSpec(defer_epoch=0))
    vec = cross_entropy_vec(tape, tape.leaf(logits), one_hot(labels, 2))
    w = reweight_class_weights(profile)[labels]
    manual = float((w * vec.value).sum() / 5)
    assert abs(float(loss.value) - manual) < 1e-12


# ---------------------------------------------------------------------------
# VICReg
# ---------------------------------------------------------------------------


def test_vicreg_zero_when_views_agree_and_spread():
    # identical views, std 1 >= margin, single dimension: all terms vanish
    tape = Tape()
    z = tape.leaf([[0.0], [2.0]])
    zp = tape.leaf([[0.0], [2.0]])
    loss = vicreg_loss(tape, z, zp, VicRegSpec(eps_num=0.0))
    assert abs(float(loss.value)) < 1e-12


def test_vicreg_hand_case():
    # Z={0,2}, Z'={0,0}: invariance 25*4/2 = 50; pooled std sqrt(3/4)
    # -> hinge 25*(1-sqrt(0.75)); no off-diagonal term in 1-d
    tape = Tape()
    z = tape.leaf([[0.0], [2.0]])
    zp = tape.leaf([[0.0], [0.0]])
    loss = vicreg_loss(tape, z, zp, VicRegSpec(eps_num=0.0))
    expected = 25.0 * (1.0 - math.sqrt(0.75)) + 50.0
    assert abs(float(loss.value) - expected) < 1e-12


def test_vicreg_covariance_term():
    # perfectly correlated dimensions with zero invariance: only the
    # off-diagonal term survives. Columns (x, x) give C = [[v, v], [v, v]]
    # with v = population variance; off-diag contributes 2 v^2 / D.
    col = np.array([1.0, -1.0, 2.0, -2.0])
    z = np.column_stack([col, col])
    tape = Tape()
    spec = VicRegSpec(var_weight=0.0, cov_weight=1.0, inv_weight=0.0, eps_num=0.0)
    loss = vicreg_loss(tape, tape.leaf(z[:2]), tape.leaf(z[2:]), spec)
    v = float(np.mean(col**2))  # column mean is zero
    assert abs(float(loss.value) - 2 * v * v / 2) < 1e-12


def test_vicreg_symmetric_in_views():
    rng = np.random.default_rng(13)
    a, b = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    tape = Tape()
    l1 = vicreg_loss(tape, tape.leaf(a), tape.leaf(b), VicRegSpec())
    l2 = vicreg_loss(tape, tape.leaf(b), tape.leaf(a), VicRegSpec())
    assert abs(float(l1.value) - float(l2.value)) < 1e-12


def test_vicreg_rejects_tiny_batch():
    tape = Tape()
    with pytest.raises(ValueError, match=">= 2"):
        vicreg_loss(tape, tape.leaf([[1.0]]), tape.leaf([[1.0]]), VicRegSpec())


def test_vicreg_rejects_shape_mismatch():
    tape = Tape()
    with pytest.raises(ValueError, match="shapes differ"):
        vicreg_loss(tape, tape.leaf(np.zeros((3, 2))), tape.leaf(np.zeros((3, 3))),
                    VicRegSpec())


# ---------------------------------------------------------------------------
# Joint objective
# ---------------------------------------------------------------------------


def test_joint_loss_hand_case():
    tape = Tape()
    sup = tape.leaf(2.0)
    ssl = tape.leaf(3.0)
    total = joint_loss(tape, sup, ssl, JointLossSpec(lam=0.5))
    assert float(total.value) == 4.0


def test_joint_loss_gradient_split():
    tape = Tape()
    sup = tape.leaf(2.0)
    ssl = tape.leaf(3.0)
    total = joint_loss(tape, sup, ssl, JointLossSpec(lam=0.25))
    grads = backward(tape, total)
    assert float(grads[sup.idx]) == 0.25
    assert float(grads[ssl.idx]) == 1.0


# ---------------------------------------------------------------------------
# Gradient checks for every loss
# ---------------------------------------------------------------------------


def test_soft_ce_gradients():
    labels = np.array([0, 2, 1])

    def build(tape, leaves):
        return _supervised(tape, leaves[0], labels, _uniform_profile(3), loss="ce")

    logits = np.random.default_rng(20).normal(size=(3, 3))
    assert check_gradients(build, [logits], tolerance=1e-6).passed


def test_smoothed_ce_gradients_both_modes():
    profile = ClassProfile(np.array([50, 30, 20]))
    labels = np.array([0, 1, 2, 0])
    logits = np.random.default_rng(21).normal(size=(4, 3))
    for mode in ("paper_formula", "inverse_proportion"):
        spec = SmoothingSpec(epsilon=0.2, mode=mode)

        def build(tape, leaves):
            return _supervised(tape, leaves[0], labels, profile, loss="smoothed", smoothing=spec)

        assert check_gradients(build, [logits], tolerance=1e-6).passed, mode


def test_focal_gradients():
    labels = np.array([1, 0, 2, 2])
    logits = np.random.default_rng(22).normal(size=(4, 3))

    def build(tape, leaves):
        return _supervised(tape, leaves[0], labels, _uniform_profile(3),
                           loss="focal", focal=FocalSpec(gamma=2.0))

    assert check_gradients(build, [logits], tolerance=1e-6).passed


def test_reweighted_gradients():
    profile = ClassProfile(np.array([70, 30]))
    labels = np.array([0, 0, 1, 1])
    logits = np.random.default_rng(23).normal(size=(4, 2))

    def build(tape, leaves):
        return _supervised(tape, leaves[0], labels, profile,
                           loss="reweighted", reweight=ReweightSpec(defer_epoch=0))

    assert check_gradients(build, [logits], tolerance=1e-6).passed


def test_vicreg_gradients():
    rng = np.random.default_rng(24)
    z, zp = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))

    def build(tape, leaves):
        return vicreg_loss(tape, leaves[0], leaves[1], VicRegSpec())

    assert check_gradients(build, [z, zp], tolerance=1e-5).passed


def test_joint_gradients():
    rng = np.random.default_rng(25)
    z, zp = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    logits = rng.normal(size=(4, 2))
    labels = np.array([0, 1, 0, 1])

    def build(tape, leaves):
        sup = _supervised(tape, leaves[0], labels, _uniform_profile(2), loss="ce")
        ssl = vicreg_loss(tape, leaves[1], leaves[2], VicRegSpec())
        return joint_loss(tape, sup, ssl, JointLossSpec(lam=0.7))

    assert check_gradients(build, [logits, z, zp], tolerance=1e-5).passed


@pytest.mark.parametrize("adjoint", [0.1, -2.5, 0.0, -0.0])
@pytest.mark.parametrize("loss", ["one_hot", "smoothed", "focal_0", "focal_0.5", "focal_2"])
def test_a_scalar_adjoint_gives_the_vector_adjoints_gradient_bytes(loss, adjoint):
    # Training passes the unweighted adjoint as one scalar; every product
    # must equal the one with a vector of copies, signed zeros included
    # (a zero adjoint makes them). Row 0 rounds p_t to 1, where focal's
    # power rule at gamma 0.5 takes its limit.
    logits = np.random.default_rng(3).normal(size=(7, 3)) * 3.0
    logits[0] = [40.0, 0.0, 0.0]
    labels = np.arange(7) % 3
    profile = ClassProfile(np.array([40, 12, 3]))
    if loss.startswith("focal"):
        fn, args = focal_and_grad, (logits, one_hot(labels, 3), FocalSpec(gamma=float(loss[6:])))
    elif loss == "smoothed":
        fn, args = cross_entropy_and_grad, (logits, smoothed_targets(labels, profile, SmoothingSpec()))
    else:
        fn, args = cross_entropy_and_grad, (logits, one_hot(labels, 3))
    (vec, got), (vec_of_vector, want) = fn(*args, adjoint), fn(*args, np.full(7, adjoint))
    assert got.shape == want.shape == logits.shape
    assert got.tobytes() == want.tobytes()
    assert vec.tobytes() == vec_of_vector.tobytes()
