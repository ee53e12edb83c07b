"""Desk-scale acceptance suite.

Nine end-to-end checks covering the gradient oracles, the optimizer
degeneracies, the collapse metrics, curation exactness, and the
training-behavior claims on small synthetic problems. Each test prints
one verdict line (criterion N: PASS/FAIL plus a short detail) straight
to the real stdout so the verdicts survive pytest's capture, then
asserts. The trained toy models are cached at module level because
three of the checks share them.
"""

import json
import math
import time

import numpy as np
import pytest

from skewtrain.autodiff import Tape, backward, check_gradients, reduce_sum
from skewtrain.config import (
    DataSpec,
    ExperimentConfig,
    FocalSpec,
    JointLossSpec,
    MethodSpec,
    ReweightSpec,
    SmoothingSpec,
    TrainConfig,
    VicRegSpec,
)
from skewtrain.data import (
    class_profile,
    curate_exponential,
    exponential_counts,
    gen_gaussian_mixture,
)
from skewtrain.diagnostics import (
    boundary_grid,
    collapse_report,
    jsonify,
    minority_majority_split,
    minority_margin,
)
from skewtrain.harness import (
    aggregate,
    apply_method,
    build_pools,
    curate_train_split,
    misalignment,
    misalignment_steps,
    percent_improvement,
    run_ratio_grid,
    run_sweep,
    run_training,
    supervised_loss,
    train_model,
)
from skewtrain.losses import (
    cross_entropy_vec,
    joint_loss,
    reweight_class_weights,
    vicreg_loss,
)
from skewtrain.models import (
    forward_stack,
    mlp_init,
    params_to_named,
)
from skewtrain.optim import cosine_lr, ema_update, sam_step, sgd_update
from skewtrain.data import ClassProfile


@pytest.fixture
def verdict(capfd):
    """One pass/fail line per criterion, written past pytest's capture."""

    def emit(criterion: int, passed: bool, detail: str) -> None:
        line = f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
        with capfd.disabled():
            print(f"\n{line}", flush=True)
        assert passed, line

    return emit


# ---------------------------------------------------------------------------
# Shared toy problem: 5 Gaussian blobs on a circle of radius 3 with
# sigma 0.5, curated to a 1:100 head-to-tail imbalance. Class counts
# come out as [500, 158, 50, 16, 5], so the minority group is class 4.
# ---------------------------------------------------------------------------

TOY_SEEDS = [0, 1, 2, 3, 4]


def _toy_config() -> ExperimentConfig:
    return ExperimentConfig(
        data=DataSpec(classes=5, train_per_class=500, test_per_class=200, sigma=0.5),
        train=TrainConfig(
            lr0=0.1, weight_decay=2e-4, epochs=200, warmup_epochs=5, batch_size=128
        ),
        hidden=[64, 64],
        r_train=0.01,
        seeds=list(TOY_SEEDS),
    )


_TRIALS: dict[str, list] = {}


def _train(config: ExperimentConfig, seed: int):
    """train_model on the curated train split of (config, seed), as run_training builds it."""
    train_pool, _ = build_pools(config, seed)
    return train_model(config, [seed], [curate_train_split(config, train_pool, seed)])[0]


def _toy_trials(preset: str):
    """Full training runs for one method preset, cached across tests."""
    if preset not in _TRIALS:
        cfg = apply_method(_toy_config(), preset)
        _TRIALS[preset] = [run_training(cfg, seed) for seed in cfg.seeds]
    return _TRIALS[preset]


def _minority_train_points(model) -> np.ndarray:
    minority, _ = minority_majority_split(model.profile)
    keep = np.isin(model.train_split.y, minority)
    return model.train_split.X[keep]


# ---------------------------------------------------------------------------
# Criterion 1: every loss and the full model composite agree with
# central finite differences.
# ---------------------------------------------------------------------------


def _mean_ce(tape, logits, targets):
    """Batch-mean cross-entropy against soft targets, reduced as training reduces."""
    vec = cross_entropy_vec(tape, logits, targets)
    b = vec.shape[0]
    return reduce_sum(vec * tape.constant(np.ones(b))) * (1.0 / b)


def test_every_loss_matches_finite_differences(verdict):
    rng = np.random.default_rng(20260822)
    t0 = time.perf_counter()
    worst = 0.0
    checks = 0
    failures = []

    def run(name, build, params):
        nonlocal worst, checks
        report = check_gradients(build, params, tolerance=1e-4)
        checks += 1
        worst = max(worst, report.max_relative_error)
        if not report.passed:
            failures.append((name, report.max_relative_error))

    for _ in range(10):
        b = int(rng.integers(3, 7))
        k = int(rng.integers(2, 6))
        logits = rng.normal(size=(b, k))
        labels = rng.integers(0, k, size=b)
        counts = rng.integers(1, 60, size=k)
        profile = ClassProfile(counts)
        soft_targets = rng.dirichlet(np.ones(k), size=b)

        def trained(method, y=labels, p=profile):
            """Build the supervised objective that training minimizes for method."""
            return lambda tape, leaves: supervised_loss(
                tape, leaves[0], y, method, p, reweight_class_weights(p), 0
            )

        run(
            "soft_ce",
            lambda tape, leaves, t=soft_targets: _mean_ce(tape, leaves[0], t),
            [logits],
        )
        for mode in ("paper_formula", "inverse_proportion"):
            spec = SmoothingSpec(epsilon=0.2, mode=mode)
            run(f"smoothed_{mode}", trained(MethodSpec(loss="smoothed", smoothing=spec)), [logits])
        gamma = float(rng.uniform(0.5, 3.0))
        run("focal", trained(MethodSpec(loss="focal", focal=FocalSpec(gamma=gamma))), [logits])
        run(
            "reweighted",
            trained(MethodSpec(loss="reweighted", reweight=ReweightSpec(defer_epoch=0))),
            [logits],
        )

        # Scaled-down embeddings keep the per-dimension std near 0.6,
        # well away from the variance hinge at margin 1.0, so the
        # finite-difference probe never straddles the relu kink.
        d = int(rng.integers(2, 6))
        z = 0.6 * rng.normal(size=(b, d))
        zp = 0.6 * rng.normal(size=(b, d))
        vspec = VicRegSpec()
        run(
            "vicreg",
            lambda tape, leaves, s=vspec: vicreg_loss(tape, leaves[0], leaves[1], s),
            [z, zp],
        )
        run(
            "joint",
            lambda tape, leaves, t=soft_targets, s=vspec: joint_loss(
                tape,
                _mean_ce(tape, leaves[0], t),
                vicreg_loss(tape, leaves[1], leaves[2], s),
                JointLossSpec(lam=0.7),
            ),
            [logits, z, zp],
        )

    # The composite mirrors one training step of the joint objective:
    # clean logits feed the supervised loss while two noisy views run
    # through the same trunk and the projector before the ssl term.
    #
    # Two situations would make the probe meaningless and are rerolled:
    # a pre-activation (or the variance hinge) within 1e-3 of its kink,
    # where central differences measure one-sided slopes, and a
    # projector hidden unit active for every view row, whose bias then
    # shifts both embeddings identically and loses its gradient the
    # same way the output bias always does. The output bias gradient
    # is asserted to vanish outright, which is sharper than any
    # finite-difference comparison against rounding noise.
    def composite_hazard(named, x, views):
        delta = 1e-3
        clean_pre = x @ named["mlp.w0"] + named["mlp.b0"]
        view_pre = np.vstack([v @ named["mlp.w0"] + named["mlp.b0"] for v in views])
        hidden_pre = np.maximum(view_pre, 0.0) @ named["proj.w0"] + named["proj.b0"]
        if min(np.abs(clean_pre).min(), np.abs(view_pre).min()) < delta:
            return True
        if np.abs(hidden_pre).min() < delta or np.all(hidden_pre > 0, axis=0).any():
            return True
        emb = np.maximum(hidden_pre, 0.0) @ named["proj.w1"] + named["proj.b1"]
        centered = emb - emb.mean(axis=0)
        std = np.sqrt((centered**2).mean(axis=0) + VicRegSpec().eps_num)
        return bool(np.abs(std - VicRegSpec().margin).min() < delta)

    bias_grad_max = 0.0
    produced = 0
    attempt = 0
    while produced < 10 and attempt < 200:
        attempt += 1
        mlp = mlp_init([2, 6, 5], seed=1000 + attempt)
        proj = mlp_init([6, 8, 8], seed=2000 + attempt)
        named = {**params_to_named(mlp, "mlp"), **params_to_named(proj, "proj")}
        x = rng.normal(size=(5, 2))
        views = (x + 0.1 * rng.normal(size=x.shape), x + 0.1 * rng.normal(size=x.shape))
        targets = rng.dirichlet(np.ones(5), size=5)
        if composite_hazard(named, x, views):
            continue
        produced += 1

        def composite(tape, leaves, names=None, x=x, views=views, targets=targets):
            lv = dict(zip(names, leaves))
            if "proj.b1" not in lv:
                lv["proj.b1"] = tape.constant(named["proj.b1"])
            logits, _ = forward_stack(tape.constant(x), lv, 2, "mlp")
            supervised = _mean_ce(tape, logits, targets)
            embeddings = []
            for view in views:
                _, penultimate = forward_stack(tape.constant(view), lv, 2, "mlp")
                emb, _ = forward_stack(penultimate, lv, 2, "proj")
                embeddings.append(emb)
            ssl = vicreg_loss(tape, embeddings[0], embeddings[1], VicRegSpec())
            return joint_loss(tape, supervised, ssl, JointLossSpec(lam=1.0))

        sensitive = [n for n in named if n != "proj.b1"]
        run(
            "composite",
            lambda tape, leaves, f=composite, ns=sensitive: f(tape, leaves, names=ns),
            [named[n] for n in sensitive],
        )
        tape = Tape()
        leaves = [tape.leaf(named[n]) for n in named]
        grads = backward(tape, composite(tape, leaves, names=list(named)))
        b1_grad = grads[leaves[list(named).index("proj.b1")].idx]
        bias_grad_max = max(bias_grad_max, float(np.abs(b1_grad).max()))

    elapsed = time.perf_counter() - t0
    verdict(
        1,
        not failures and produced == 10 and bias_grad_max <= 1e-10 and elapsed < 60.0,
        f"{checks} gradient checks, worst rel err {worst:.2e}, shift-invariant "
        f"bias grad {bias_grad_max:.1e}, "
        f"{elapsed:.1f}s{', failures: ' + str(failures) if failures else ''}",
    )


# ---------------------------------------------------------------------------
# Criterion 2: optimizer degeneracies hold bitwise, not just to
# tolerance.
# ---------------------------------------------------------------------------


def test_optimizer_degeneracies_are_bitwise(verdict):
    # Part one: sam_step at rho 0 against plain SGD on a fixed
    # least-squares problem, comparing the whole trajectory.
    rng = np.random.default_rng(7)
    design = rng.normal(size=(8, 3))
    target = rng.normal(size=8)
    w0 = rng.normal(size=3)

    def loss_and_grads(w, example_weights):
        r = design @ w - target
        if example_weights is None:
            return float((r * r).mean()), (2.0 / target.size) * (design.T @ r)
        s = example_weights
        return float((s * r * r).sum() / s.sum()), 2.0 * (design.T @ (s * r)) / s.sum()

    tc = TrainConfig(
        lr0=0.05, momentum=0.9, weight_decay=1e-3, epochs=100, warmup_epochs=5, batch_size=8
    )
    a_theta, a_velocity, a_ema = w0.copy(), np.zeros(3), w0.copy()
    b_theta, b_velocity, b_ema = w0.copy(), np.zeros(3), w0.copy()
    scratch = np.empty(3)
    zero_radius_identical = True
    for step in range(100):
        lr = cosine_lr(step, tc)
        _, grad, _ = sam_step(a_theta, loss_and_grads, 0.0, None, [(0, 3)], np.empty(3))
        sgd_update(a_theta, grad, lr, tc, a_velocity, scratch)
        ema_update(a_ema, a_theta, 0.999, scratch)
        _, grad = loss_and_grads(b_theta, None)
        sgd_update(b_theta, grad, lr, tc, b_velocity, scratch)
        ema_update(b_ema, b_theta, 0.999, scratch)
        zero_radius_identical = zero_radius_identical and (
            np.array_equal(a_theta, b_theta)
            and np.array_equal(a_velocity, b_velocity)
            and np.array_equal(a_ema, b_ema)
        )

    # Part two: with perfectly uniform classes the class-conditional
    # radii all equal rho, so the adaptive variant must retrace plain
    # SAM exactly. 5 classes x 128 samples gives 5 full batches per
    # epoch and 100 steps over 20 epochs; the power-of-two batch size
    # keeps the effective-radius average exact in floating point.
    def uniform_config(mode, rho):
        cfg = ExperimentConfig(
            data=DataSpec(classes=5, train_per_class=128, test_per_class=20, sigma=0.5),
            train=TrainConfig(
                lr0=0.1, weight_decay=2e-4, epochs=20, warmup_epochs=2, batch_size=128
            ),
            hidden=[16],
            seeds=[0],
        )
        cfg.method.sam.mode = mode
        cfg.method.sam.rho = rho
        return cfg

    def same_weights(m1, m2):
        return m1.raw.tobytes() == m2.raw.tobytes() and m1.ema.tobytes() == m2.ema.tobytes()

    zero_rho = _train(uniform_config("sam", 0.0), seed=0)
    plain = _train(uniform_config("off", 0.0), seed=0)
    zero_rho_harness = same_weights(zero_rho, plain)

    sam = _train(uniform_config("sam", 0.1), seed=0)
    sam_a = _train(uniform_config("sam_a_inverse", 0.1), seed=0)
    uniform_identical = same_weights(sam, sam_a)

    verdict(
        2,
        zero_radius_identical and zero_rho_harness and uniform_identical,
        "zero-radius step == SGD over 100 steps "
        f"({zero_radius_identical}, harness {zero_rho_harness}); "
        f"uniform-class adaptive radii == SAM over 100 steps ({uniform_identical})",
    )


# ---------------------------------------------------------------------------
# Criterion 3: collapse metrics against brute-force recomputation.
# ---------------------------------------------------------------------------


def _brute_cdnv(features, labels, a, b):
    """CDNV of one class pair recomputed with plain Python loops."""
    stats = {}
    for c in (a, b):
        members = [features[i] for i in range(len(labels)) if labels[i] == c]
        mu = sum(members) / len(members)
        var = sum(float(((m - mu) ** 2).sum()) for m in members) / len(members)
        stats[c] = (mu, var)
    mu_a, var_a = stats[a]
    mu_b, var_b = stats[b]
    dist_sq = float(((mu_a - mu_b) ** 2).sum())
    return (var_a + var_b) / (2.0 * dist_sq)


def _brute_ncc(features, labels, predictions):
    present = sorted(set(int(v) for v in labels))
    means = {c: features[labels == c].mean(axis=0) for c in present}
    ncc = []
    for row in features:
        best, best_d = None, None
        for c in present:  # ascending ids, so ties keep the lowest
            d = float(((row - means[c]) ** 2).sum())
            if best_d is None or d < best_d:
                best, best_d = c, d
        ncc.append(best)
    ncc = np.array(ncc)
    return ncc, float((ncc == predictions).mean())


def test_collapse_metrics_match_brute_force(verdict):
    rng = np.random.default_rng(3)
    worst_cdnv = 0.0
    worst_agree = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 201))
        d = int(rng.integers(1, 9))
        k = int(rng.integers(2, 7))
        # Guarantee every class at least one sample before shuffling.
        labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
        rng.shuffle(labels)
        features = rng.normal(size=(n, d))
        profile = ClassProfile(np.bincount(labels))
        a, b = rng.choice(k, size=2, replace=False)
        predictions = rng.integers(0, k, size=n)
        rep = collapse_report(features, labels, predictions, profile)
        worst_cdnv = max(worst_cdnv, abs(rep.cdnv_pairs[a, b] - _brute_cdnv(features, labels, a, b)))
        brute_ncc, brute_agree = _brute_ncc(features, labels, predictions)
        # agreement 1.0 with the brute-force predictions: equal row by row
        assert collapse_report(features, labels, brute_ncc, profile).ncc_agreement == 1.0
        worst_agree = max(worst_agree, abs(rep.ncc_agreement - brute_agree))

    # Manually calculated: both classes have within-class variance
    # E||x - mu||^2 = 1 (points two apart on one axis), the means are
    # (0, 1) and (3, 1), so cdnv = (1 + 1) / (2 * 9) = 1/9.
    hand = collapse_report(
        np.array([[0.0, 0.0], [0.0, 2.0], [3.0, 0.0], [3.0, 2.0]]),
        np.array([0, 0, 1, 1]),
        np.array([0, 0, 1, 1]),
        ClassProfile(np.array([2, 2])),
    ).cdnv_pairs[0, 1]
    hand_err = abs(hand - 1.0 / 9.0)

    verdict(
        3,
        worst_cdnv <= 1e-10 and worst_agree <= 1e-10 and hand_err <= 1e-12,
        f"50 instances, worst cdnv err {worst_cdnv:.2e}, worst agreement err "
        f"{worst_agree:.2e}, hand case err {hand_err:.2e}",
    )


# ---------------------------------------------------------------------------
# Criterion 4: exponential curation is exact, not approximate.
# ---------------------------------------------------------------------------


def test_exponential_curation_counts_are_exact(verdict):
    expected = [round(5000 * 0.01 ** (k / 9)) for k in range(10)]
    counts = exponential_counts(5000, 0.01, 10)
    counts_ok = counts.tolist() == expected

    balanced = gen_gaussian_mixture(10, 5000, sigma=1.0, seed=11)
    curated = curate_exponential(balanced, 0.01, seed=12)
    profile = class_profile(curated)
    realized_ok = profile.counts.tolist() == expected
    # One rounding unit in the tail count moves the realized ratio by
    # at most 0.5 / 5000.
    ratio_err = abs(profile.imbalance_ratio - 0.01)

    verdict(
        4,
        counts_ok and realized_ok and ratio_err <= 0.5 / 5000,
        f"counts {counts.tolist()}, ratio err {ratio_err:.2e}",
    )


# ---------------------------------------------------------------------------
# Criterion 5: plain ERM still memorizes the curated toy problem.
# ---------------------------------------------------------------------------


def test_imbalanced_toy_problem_fits_completely(verdict):
    t0 = time.perf_counter()
    cfg = apply_method(_toy_config(), "erm")
    cfg.train.epochs = 500
    cfg.stop_at_train_acc = 1.0
    fit_epochs = []
    for seed in cfg.seeds:
        model = _train(cfg, seed)
        fit_epochs.append(model.epochs_to_full_fit)
    elapsed = time.perf_counter() - t0
    fits = [e is not None and e <= 500 for e in fit_epochs]
    verdict(
        5,
        all(fits) and elapsed < 300.0,
        f"full fit in {sum(fits)}/5 seeds, epochs to fit {fit_epochs}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 6: a combined method keeps minority accuracy at or above
# plain ERM, and the sweep harness tabulates the comparison on its own.
# ---------------------------------------------------------------------------


def test_combined_method_holds_minority_accuracy(verdict, tmp_path):
    presets = ["erm", "sam_a_smoothed", "sam_a_smoothed_inverse"]
    sweep = run_sweep(_toy_config(), "method", presets, out_dir=tmp_path)
    table_ok = (tmp_path / "sweep_method.json").exists() and (
        tmp_path / "sweep_method.csv"
    ).exists()

    rows = {row.value: row for row in sweep.rows}
    erm_minority = rows["erm"].aggregates["minority"].values
    wins = {}
    for preset in presets[1:]:
        values = rows[preset].aggregates["minority"].values
        wins[preset] = sum(v >= e for v, e in zip(values, erm_minority))
    verdict(
        6,
        table_ok and max(wins.values()) >= 4,
        f"per-seed minority wins vs erm {wins} (need >= 4/5 for one variant), "
        f"erm minority {[round(v, 3) for v in erm_minority]}, table written {table_ok}",
    )


# ---------------------------------------------------------------------------
# Criterion 7: adaptive ascent radii push the boundary away from the
# minority training samples.
# ---------------------------------------------------------------------------


def test_minority_margins_widen_under_adaptive_ascent(verdict):
    bounds = (-5.0, 5.0, -5.0, 5.0)
    use_ema = _toy_config().use_ema_eval
    medians = {"erm": [], "sam_a": []}
    for preset in medians:
        for trial in _toy_trials(preset):
            grid = boundary_grid(trial.model.eval_mlp(use_ema), bounds, resolution=200)
            points = _minority_train_points(trial.model)
            medians[preset].append(minority_margin(grid, points).median)
    wins = sum(s > e for s, e in zip(medians["sam_a"], medians["erm"]))
    verdict(
        7,
        wins >= 4,
        f"median minority margin larger in {wins}/5 seeds "
        f"(sam_a {[round(m, 3) for m in medians['sam_a']]} vs "
        f"erm {[round(m, 3) for m in medians['erm']]})",
    )


# ---------------------------------------------------------------------------
# Criterion 8: the best training ratio tracks the deployment ratio on
# a binary problem with overlapping classes.
# ---------------------------------------------------------------------------


def test_best_train_ratio_tracks_test_ratio(verdict):
    t0 = time.perf_counter()
    ratios = [1.0, 0.5, 0.2, 0.1, 0.05]
    # Every training run keeps at least 5000 + round(5000 * 0.05) =
    # 5250 samples; sigma 2.0 against centers 6 apart leaves enough
    # class overlap for the optimal threshold to move with the prior.
    cfg = ExperimentConfig(
        data=DataSpec(classes=2, train_per_class=5000, test_per_class=2000, sigma=2.0),
        train=TrainConfig(
            lr0=0.1, weight_decay=2e-4, epochs=25, warmup_epochs=3, batch_size=128
        ),
        hidden=[16],
        seeds=list(TOY_SEEDS),
    )
    result = run_ratio_grid(cfg, ratios, ratios)
    elapsed = time.perf_counter() - t0
    verdict(
        8,
        result.misalignment_steps_mean <= 1.0 and elapsed < 900.0,
        f"mean misalignment {result.misalignment_steps_mean:.2f} grid steps "
        f"(per seed {result.misalignment_steps_per_seed}), {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 9: reporting arithmetic is exact and the collapse
# summaries from real runs stay in range.
# ---------------------------------------------------------------------------


def test_report_arithmetic_and_collapse_summaries(verdict):
    # Manually calculated: mean of 1..5 is 3; the sample variance is
    # 10/4 = 2.5, so the standard error is sqrt(2.5 / 5) = sqrt(0.5).
    agg = aggregate([1.0, 2.0, 3.0, 4.0, 5.0])
    arithmetic_ok = agg.mean == 3.0 and abs(agg.stderr - math.sqrt(0.5)) <= 1e-12

    # Manually calculated: (0.5 - 0.45) / 0.5 = 0.1 and
    # (0.5 - 0.45) / 0.45 = 1/9, up to float rounding of 0.45.
    arithmetic_ok = arithmetic_ok and (
        abs(percent_improvement(0.5, 0.45, "paper_a1") - 0.1) <= 1e-12
        and abs(percent_improvement(0.5, 0.45, "relative_to_baseline") - 1.0 / 9.0) <= 1e-12
    )

    # Manually calculated: at test ratio 1.0 the best train ratio is
    # 1.0 (gap 0); at 0.1 the best is 0.5 (gap 0.4, one ladder step
    # from position 1 to 0 counts 1). Means: 0.2 and 0.5.
    grid = {
        (1.0, 1.0): 0.90, (0.5, 1.0): 0.85, (0.1, 1.0): 0.80,
        (1.0, 0.1): 0.60, (0.5, 0.1): 0.70, (0.1, 0.1): 0.65,
    }
    arithmetic_ok = arithmetic_ok and (
        abs(misalignment(grid) - 0.2) <= 1e-12 and misalignment_steps(grid) == 0.5
    )

    reports = [t.collapse for t in _toy_trials("erm") + _toy_trials("sam_a")]
    in_range = True
    for rep in reports:
        off_diag = rep.cdnv_pairs[~np.eye(rep.cdnv_pairs.shape[0], dtype=bool)]
        in_range = in_range and (
            np.all(np.isfinite(off_diag))
            and np.all(off_diag >= 0.0)
            and math.isfinite(rep.mean_cdnv)
            and rep.mean_cdnv >= 0.0
            and math.isfinite(rep.minority_mean_cdnv)
            and rep.minority_mean_cdnv >= 0.0
            and 0.0 <= rep.ncc_agreement <= 1.0
        )
        # The serialized form must survive a strict JSON round trip: the
        # writer maps the nan diagonal to null.
        doc = jsonify(rep)
        json.loads(json.dumps(doc, allow_nan=False))

    verdict(
        9,
        arithmetic_ok and in_range,
        f"hand-computed aggregates exact ({arithmetic_ok}); {len(reports)} collapse "
        f"reports finite with cdnv >= 0 and agreement in [0, 1] ({in_range})",
    )
