import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from skewtrain.autodiff import NumericalError, Tape, check_gradients
from skewtrain.data import ClassProfile
from skewtrain.harness import (
    AGGREGATED_METRICS,
    SUPERVISED_LOSSES,
    ConfigError,
    DataSpec,
    ExperimentConfig,
    MethodSpec,
    TrainConfig,
    _iter_batches,
    _projector_sizes,
    _seed_children,
    _write_json,
    aggregate,
    apply_method,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
    misalignment,
    misalignment_steps,
    percent_improvement,
    run_all_seeds,
    run_ratio_grid,
    run_sweep,
    run_training,
    supervised_loss,
)
from skewtrain.losses import ReweightSpec, cross_entropy_vec, one_hot, reweight_class_weights
from skewtrain.models import load_checkpoint
from skewtrain.optim import SamSpec, sam_ascent_weights


def _tiny_config(**kw):
    """A config small enough to train in well under a second."""
    base = dict(
        data=DataSpec(classes=3, train_per_class=30, test_per_class=20, sigma=0.5),
        train=TrainConfig(lr0=0.1, epochs=3, warmup_epochs=1, batch_size=32),
        hidden=[8],
        seeds=[0],
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def test_config_from_dict_defaults_and_nesting():
    cfg = config_from_dict({"data": {"classes": 4},
                            "method": {"sam": {"rho": 0.2, "mode": "sam"}}})
    assert cfg.data.classes == 4
    assert cfg.data.dim == 2  # untouched default
    assert cfg.method.sam.rho == 0.2 and cfg.method.sam.mode == "sam"
    assert cfg.seeds == [0, 1, 2, 3, 4]


def test_config_from_dict_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config key frobnicate"):
        config_from_dict({"frobnicate": 1})
    with pytest.raises(ConfigError, match="unknown config key data.klasses"):
        config_from_dict({"data": {"klasses": 3}})
    with pytest.raises(ConfigError, match="unknown config key method.sam.radius"):
        config_from_dict({"method": {"sam": {"radius": 0.1}}})


def test_config_from_dict_bad_values_carry_path():
    with pytest.raises(ConfigError, match="train: lr0"):
        config_from_dict({"train": {"lr0": -1.0}})


def test_config_validation():
    with pytest.raises(ValueError, match="duplicate seeds"):
        _tiny_config(seeds=[0, 0])
    with pytest.raises(ValueError, match="mutually exclusive"):
        _tiny_config(majority_size=500, r_train=0.1)
    with pytest.raises(ValueError, match="hidden"):
        _tiny_config(hidden=[0])
    with pytest.raises(ValueError, match="r_train"):
        _tiny_config(r_train=1.5)


def test_resample_plus_reweight_warns():
    with pytest.warns(UserWarning, match="double-counts"):
        _tiny_config(method=MethodSpec(loss="reweighted", resample=True))


def test_config_hash_stability():
    a = _tiny_config()
    b = _tiny_config()
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 12
    c = _tiny_config(hidden=[16])
    assert config_hash(a) != config_hash(c)
    # dict round trip preserves the hash
    assert config_hash(config_from_dict(config_to_dict(a))) == config_hash(a)


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(p)


def test_load_config_roundtrip(tmp_path):
    cfg = _tiny_config(r_train=0.5)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(config_to_dict(cfg)))
    assert config_hash(load_config(p)) == config_hash(cfg)


# ---------------------------------------------------------------------------
# Method presets
# ---------------------------------------------------------------------------


def test_apply_method_resets_previous_choices():
    cfg = _tiny_config()
    cfg.method.loss = "focal"
    cfg.method.sam.mode = "sam"
    cfg.method.resample = True
    erm = apply_method(cfg, "erm")
    assert erm.method.loss == "ce"
    assert erm.method.sam.mode == "off"
    assert not erm.method.resample and not erm.method.joint_ssl
    # the original is untouched
    assert cfg.method.loss == "focal"


def test_apply_method_drw_defers_half():
    cfg = _tiny_config(train=TrainConfig(lr0=0.1, epochs=40, warmup_epochs=1))
    drw = apply_method(cfg, "drw")
    assert drw.method.loss == "reweighted"
    assert drw.method.reweight.defer_epoch == 20


def test_apply_method_combined_variants():
    cfg = _tiny_config()
    a = apply_method(cfg, "sam_a_smoothed")
    assert a.method.loss == "smoothed"
    assert a.method.smoothing.mode == "paper_formula"
    assert a.method.sam.mode == "sam_a_paper"
    b = apply_method(cfg, "sam_a_smoothed_inverse")
    assert b.method.loss == "smoothed"
    assert b.method.smoothing.mode == "inverse_proportion"
    assert b.method.sam.mode == "sam_a_inverse"


def test_apply_method_keeps_tuning_knobs():
    cfg = _tiny_config()
    cfg.method.smoothing.epsilon = 0.3
    cfg.method.sam.rho = 0.4
    out = apply_method(cfg, "sam_a_smoothed")
    assert out.method.smoothing.epsilon == 0.3
    assert out.method.sam.rho == 0.4


def test_apply_method_unknown():
    with pytest.raises(ConfigError, match="unknown method"):
        apply_method(_tiny_config(), "mixup")


# ---------------------------------------------------------------------------
# Seeds and batching
# ---------------------------------------------------------------------------


def test_seed_children_named_and_distinct():
    ss = _seed_children(7)
    assert set(ss) == {"data_train", "data_test", "curate_train", "curate_test",
                       "init", "batches", "augment"}
    draws = {k: np.random.default_rng(v).integers(2**63) for k, v in ss.items()}
    assert len(set(draws.values())) == len(draws)
    # deterministic across calls
    again = _seed_children(7)
    assert np.random.default_rng(again["init"]).integers(2**63) == draws["init"]


def test_iter_batches_covers_everything():
    rng = np.random.default_rng(0)
    chunks = _iter_batches(10, 4, rng, min_batch=1)
    assert [c.size for c in chunks] == [4, 4, 2]
    npt.assert_array_equal(np.sort(np.concatenate(chunks)), np.arange(10))


def test_iter_batches_merges_small_tail():
    rng = np.random.default_rng(0)
    chunks = _iter_batches(10, 4, rng, min_batch=3)
    assert [c.size for c in chunks] == [4, 6]
    npt.assert_array_equal(np.sort(np.concatenate(chunks)), np.arange(10))


def test_projector_sizes():
    cfg = _tiny_config(hidden=[16, 8])
    assert _projector_sizes(cfg) is None
    cfg.method.joint_ssl = True
    assert _projector_sizes(cfg) == [8, 32, 32]
    cfg.method.projector = [8, 16]
    assert _projector_sizes(cfg) == [8, 16]
    cfg.method.projector = [4, 16]
    with pytest.raises(ConfigError, match="does not match last hidden width"):
        _projector_sizes(cfg)


# ---------------------------------------------------------------------------
# The supervised objective that training minimizes
# ---------------------------------------------------------------------------

_OBJ_PROFILE = ClassProfile(np.array([40, 12, 3]))
_OBJ_LABELS = np.array([0, 0, 1, 2, 0, 1, 2])
_OBJ_SAM = SamSpec(rho=0.05, mode="sam_a_paper")


def _objective_check(method, epoch, example_weights):
    logits = np.random.default_rng(31).normal(size=(_OBJ_LABELS.size, 3))
    class_w = reweight_class_weights(_OBJ_PROFILE)

    def build(tape, leaves):
        return supervised_loss(tape, leaves[0], _OBJ_LABELS, method, _OBJ_PROFILE, class_w,
                               epoch, example_weights)

    report = check_gradients(build, [logits], tolerance=1e-4)
    assert report.passed, f"max rel err {report.max_relative_error:.3e}"


@pytest.mark.parametrize("ascent", [False, True], ids=["plain", "sam_ascent"])
@pytest.mark.parametrize("loss", SUPERVISED_LOSSES)
def test_supervised_loss_matches_finite_differences(loss, ascent):
    weights = sam_ascent_weights(_OBJ_LABELS, _OBJ_PROFILE, _OBJ_SAM) if ascent else None
    _objective_check(MethodSpec(loss=loss, sam=_OBJ_SAM), 0, weights)


@pytest.mark.parametrize("ascent", [False, True], ids=["plain", "sam_ascent"])
@pytest.mark.parametrize("epoch", [2, 3], ids=["before_defer", "at_defer"])
def test_supervised_loss_deferred_reweighting(epoch, ascent):
    weights = sam_ascent_weights(_OBJ_LABELS, _OBJ_PROFILE, _OBJ_SAM) if ascent else None
    method = MethodSpec(loss="reweighted", reweight=ReweightSpec(defer_epoch=3), sam=_OBJ_SAM)
    _objective_check(method, epoch, weights)


@pytest.mark.parametrize("ascent", [False, True], ids=["plain", "sam_ascent"])
@pytest.mark.parametrize("epoch", [2, 3], ids=["before_defer", "at_defer"])
def test_supervised_loss_reduction_formula(epoch, ascent):
    # sum_i w_i s_i l_i / sum_i s_i, with w = class weights from defer_epoch on
    # and s = 1 (so the divisor is B) outside the SAM ascent pass
    logits = np.random.default_rng(32).normal(size=(_OBJ_LABELS.size, 3))
    method = MethodSpec(loss="reweighted", reweight=ReweightSpec(defer_epoch=3))
    s = sam_ascent_weights(_OBJ_LABELS, _OBJ_PROFILE, _OBJ_SAM) if ascent else None
    tape = Tape()
    x = tape.leaf(logits)
    got = supervised_loss(tape, x, _OBJ_LABELS, method, _OBJ_PROFILE,
                          reweight_class_weights(_OBJ_PROFILE), epoch, s)
    per_example = cross_entropy_vec(tape, x, one_hot(_OBJ_LABELS, 3)).value
    w = reweight_class_weights(_OBJ_PROFILE)[_OBJ_LABELS] if epoch >= 3 else 1.0
    s_arr = np.ones(_OBJ_LABELS.size) if s is None else s
    assert len(set(s_arr.tolist())) == (3 if ascent else 1)  # one radius per class
    expected = float((w * s_arr * per_example).sum() / s_arr.sum())
    assert abs(float(got.value) - expected) < 1e-12


# ---------------------------------------------------------------------------
# Aggregation arithmetic
# ---------------------------------------------------------------------------


def test_aggregate_hand_case():
    agg = aggregate([1.0, 2.0, 3.0, 4.0, 5.0])
    assert agg.mean == 3.0
    # Manually calculated: sample std sqrt(2.5), stderr sqrt(2.5/5)
    assert abs(agg.stderr - math.sqrt(0.5)) < 1e-12
    assert not agg.single_trial


def test_aggregate_single_value():
    agg = aggregate([0.7])
    assert agg.mean == 0.7 and agg.stderr == 0.0 and agg.single_trial


def test_aggregate_empty():
    with pytest.raises(ValueError, match="nothing to aggregate"):
        aggregate([])


def test_percent_improvement_hand_cases():
    assert abs(percent_improvement(0.5, 0.45, "paper_a1") - 0.10000000000000009) < 1e-12
    assert abs(percent_improvement(0.5, 0.45, "relative_to_baseline") - 0.11111111111111122) < 1e-12
    assert percent_improvement(0.5, 0.5, "paper_a1") == 0.0


def test_percent_improvement_errors():
    with pytest.raises(ValueError, match="acc = 0"):
        percent_improvement(0.0, 0.5, "paper_a1")
    with pytest.raises(ValueError, match="baseline 0"):
        percent_improvement(0.5, 0.0, "relative_to_baseline")
    with pytest.raises(ValueError, match="mode"):
        percent_improvement(0.5, 0.4, "absolute")


# ---------------------------------------------------------------------------
# Misalignment
# ---------------------------------------------------------------------------


def test_misalignment_hand_case():
    # test ratio 0.2 is best served by training ratio 0.1 (gap 0.1),
    # test ratio 1.0 by itself (gap 0): mean 0.05
    grid = {(0.1, 0.2): 0.9, (1.0, 0.2): 0.8,
            (0.1, 1.0): 0.7, (1.0, 1.0): 0.9}
    assert abs(misalignment(grid) - 0.05) < 1e-12


def test_misalignment_tie_goes_to_closest():
    grid = {(0.1, 0.5): 0.9, (0.5, 0.5): 0.9, (1.0, 0.5): 0.9}
    assert misalignment(grid) == 0.0


def test_misalignment_equidistant_tie_goes_to_smaller():
    grid = {(0.2, 0.5): 0.9, (0.8, 0.5): 0.9}
    assert abs(misalignment(grid) - 0.3) < 1e-12


def test_misalignment_empty():
    with pytest.raises(ValueError, match="empty"):
        misalignment({})


def test_misalignment_steps_hand_case():
    # ladder [0.05, 0.1, 0.2]; test 0.2 peaks at train 0.05: 2 steps
    grid = {(0.05, 0.2): 0.9, (0.1, 0.2): 0.8, (0.2, 0.2): 0.7,
            (0.05, 0.05): 0.9, (0.1, 0.05): 0.1, (0.2, 0.05): 0.1}
    assert misalignment_steps(grid) == 1.0  # gaps [0, 2] mean 1


def test_misalignment_steps_requires_shared_ladder():
    grid = {(0.1, 0.15): 0.9, (0.2, 0.15): 0.8}
    with pytest.raises(ValueError, match="ladder"):
        misalignment_steps(grid)


# ---------------------------------------------------------------------------
# Training runs
# ---------------------------------------------------------------------------


def test_run_training_is_deterministic():
    cfg = _tiny_config()
    a = run_training(cfg, seed=0)
    b = run_training(cfg, seed=0)
    for name in a.model.raw:
        npt.assert_array_equal(a.model.raw[name], b.model.raw[name])
        npt.assert_array_equal(a.model.ema[name], b.model.ema[name])
    assert a.metrics.overall == b.metrics.overall
    assert a.train_acc_trajectory == b.train_acc_trajectory
    c = run_training(cfg, seed=1)
    assert any(not np.array_equal(a.model.raw[n], c.model.raw[n]) for n in a.model.raw)


def test_run_training_fits_separable_data():
    cfg = _tiny_config(
        data=DataSpec(classes=2, train_per_class=30, test_per_class=20, sigma=0.05),
        train=TrainConfig(lr0=0.1, epochs=20, warmup_epochs=1, batch_size=32),
    )
    res = run_training(cfg, seed=0)
    assert res.final_train_accuracy == 1.0
    assert res.epochs_to_full_fit is not None
    assert res.train_acc_trajectory[res.epochs_to_full_fit - 1] == 1.0
    if res.epochs_to_full_fit > 1:
        assert res.train_acc_trajectory[res.epochs_to_full_fit - 2] < 1.0


def test_stop_at_train_acc_short_circuits():
    cfg = _tiny_config(stop_at_train_acc=0.0)
    res = run_training(cfg, seed=0)
    assert len(res.train_acc_trajectory) == 1


def test_run_training_curated_profile():
    cfg = _tiny_config(r_train=0.2)
    res = run_training(cfg, seed=0)
    # counts follow round(30 * 0.2^(k/2)) = [30, 13, 6]
    npt.assert_array_equal(res.model.profile.counts, [30, 13, 6])
    # metrics keep the 3-class structure; test split stays uncurated
    assert len(res.metrics.per_class) == 3
    assert res.metrics.minority_classes == [2]


def test_run_training_joint_ssl_smoke():
    cfg = _tiny_config(
        train=TrainConfig(lr0=0.002, epochs=2, warmup_epochs=1, batch_size=32),
    )
    cfg.method.joint_ssl = True
    res = run_training(cfg, seed=0)
    assert res.model.proj_sizes == [8, 32, 32]
    assert any(n.startswith("proj.") for n in res.model.raw)
    assert np.isfinite(res.final_train_accuracy)


def test_run_training_divergence_is_reported():
    cfg = _tiny_config(
        train=TrainConfig(lr0=5000.0, epochs=3, warmup_epochs=1, batch_size=32),
    )
    cfg.method.joint_ssl = True
    with pytest.raises(NumericalError, match="training diverged at epoch"):
        run_training(cfg, seed=0)


# ---------------------------------------------------------------------------
# Multi-seed aggregation and result files
# ---------------------------------------------------------------------------


def test_run_all_seeds_files_and_aggregates(tmp_path):
    cfg = _tiny_config(seeds=[1, 0])  # order should not matter
    agg = run_all_seeds(cfg, out_dir=tmp_path)
    assert [r.seed for r in agg.results] == [0, 1]
    for key in AGGREGATED_METRICS:
        assert key in agg.aggregates
    overall = agg.aggregates["overall"]
    assert overall.values == [agg.results[0].metrics.overall, agg.results[1].metrics.overall]
    assert abs(overall.mean - np.mean(overall.values)) < 1e-15

    run_dir = tmp_path / agg.config_hash
    for seed in (0, 1):
        doc = json.loads((run_dir / f"seed_{seed}.json").read_text())
        assert doc["seed"] == seed
        assert doc["config_hash"] == agg.config_hash
        named, meta = load_checkpoint(run_dir / f"checkpoint_seed_{seed}.json")
        assert meta["seed"] == seed
        result = agg.results[0] if seed == 0 else agg.results[1]
        npt.assert_array_equal(named["mlp.w0"], result.model.raw["mlp.w0"])
        npt.assert_array_equal(named["ema.mlp.w0"], result.model.ema["mlp.w0"])
    doc = json.loads((run_dir / "aggregate.json").read_text())
    assert doc["aggregates"]["overall"]["mean"] == overall.mean
    assert doc["seeds"] == [0, 1]


def test_write_json_failure_keeps_previous_file(tmp_path):
    path = tmp_path / "seed_0.json"
    _write_json(path, {"seed": 0, "overall": 0.5})
    before = path.read_bytes()
    # json.dump writes the indented document chunk by chunk, so the
    # object that cannot be encoded fails it partway through
    with pytest.raises(TypeError):
        _write_json(path, {"seed": 0, "overall": 0.75, "bad": object()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["seed_0.json"]


def test_run_sweep_method_axis(tmp_path):
    cfg = _tiny_config(r_train=0.2, seeds=[0, 1])
    sweep = run_sweep(cfg, "method", ["erm", "reweight"], out_dir=tmp_path)
    assert sweep.baseline == "erm"
    assert sweep.improvement_mode == "relative_to_baseline"
    assert sweep.rows[0].value == "erm"
    assert sweep.rows[0].improvement == 0.0
    # per-seed values are seed-ordered and two long
    assert len(sweep.rows[1].aggregates["minority"].values) == 2
    assert (tmp_path / "sweep_method.json").exists()
    csv_lines = (tmp_path / "sweep_method.csv").read_text().strip().splitlines()
    assert csv_lines[0].startswith("value,overall_mean")
    assert len(csv_lines) == 3


def test_run_sweep_batch_default_baseline(tmp_path):
    cfg = _tiny_config()
    sweep = run_sweep(cfg, "batch_size", [32, 128])
    assert sweep.baseline == 128
    assert sweep.improvement_mode == "paper_a1"
    base_row = [r for r in sweep.rows if r.value == 128][0]
    assert base_row.improvement == 0.0


def test_run_sweep_validation():
    cfg = _tiny_config()
    with pytest.raises(ConfigError, match="axis"):
        run_sweep(cfg, "learning_rate", [0.1])
    with pytest.raises(ConfigError, match="duplicate"):
        run_sweep(cfg, "batch_size", [32, 32])
    with pytest.raises(ConfigError, match="not among"):
        run_sweep(cfg, "batch_size", [32, 64], baseline=16)


def test_run_ratio_grid_structure(tmp_path):
    cfg = ExperimentConfig(
        data=DataSpec(classes=2, train_per_class=30, test_per_class=20, sigma=0.5),
        train=TrainConfig(lr0=0.1, epochs=2, warmup_epochs=1, batch_size=32),
        hidden=[8],
        seeds=[0],
    )
    grid = run_ratio_grid(cfg, [1.0, 0.5], [1.0, 0.5], out_dir=tmp_path)
    assert set(grid.per_seed[0]) == {(1.0, 1.0), (1.0, 0.5), (0.5, 1.0), (0.5, 0.5)}
    assert grid.mean_grid == grid.per_seed[0]  # single seed
    assert len(grid.misalignment_steps_per_seed) == 1
    assert grid.misalignment_steps_mean == grid.misalignment_steps_per_seed[0]
    doc = json.loads((tmp_path / "ratio_grid.json").read_text())
    assert len(doc["mean_grid"]) == 4
    assert doc["train_ratios"] == [1.0, 0.5]


def test_run_ratio_grid_empty_lists():
    with pytest.raises(ConfigError, match="non-empty"):
        run_ratio_grid(_tiny_config(), [], [0.5])
