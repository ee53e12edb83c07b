import dataclasses
import json
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewtrain.autodiff import NumericalError, Tape, check_gradients
from skewtrain import harness, models
from skewtrain.config import (
    SUPERVISED_LOSSES,
    ConfigError,
    DataSpec,
    ExperimentConfig,
    FocalSpec,
    MethodSpec,
    ReweightSpec,
    SamSpec,
    TrainConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
)
from skewtrain.data import ClassProfile, Dataset, gen_gaussian_mixture, save_csv
from skewtrain.diagnostics import CollapseReport, MetricsReport, jsonify, metrics_report
from skewtrain.harness import (
    AGGREGATED_METRICS,
    METHOD_PRESETS,
    SWEEP_AXES,
    SweepResult,
    SweepRow,
    TrialAggregate,
    _iter_batches,
    _projector_sizes,
    _seed_children,
    _stratified_split,
    _write_json,
    aggregate,
    apply_method,
    axis_config,
    build_pools,
    curate_test_split,
    curate_train_split,
    derive_config,
    misalignment,
    misalignment_steps,
    percent_improvement,
    run_all_seeds,
    run_ratio_grid,
    run_sweep,
    run_training,
    supervised_loss,
)
from skewtrain.losses import cross_entropy_vec, one_hot, reweight_class_weights
from skewtrain.models import (
    load_checkpoint,
    mlp_init,
    mlp_predict,
    named_to_mlp,
    pack,
    tensor_bounds,
    unpack,
)
from skewtrain.optim import rho_per_class, sam_step


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


# (document, the whole ConfigError message): each value refusal of a
# nested spec is reported under that spec's field path
_REFUSED_CONFIGS = {
    "data_kind": ({"data": {"kind": "parquet"}}, "data: kind must be gaussian or csv, got 'parquet'"),
    "csv_without_train_path": ({"data": {"kind": "csv"}}, "data: csv data needs train_path"),
    "test_frac": ({"data": {"test_frac": 1.0}}, "data: test_frac must be in (0, 1)"),
    "loss": ({"method": {"loss": "hinge"}},
             f"method: loss must be one of {SUPERVISED_LOSSES}, got 'hinge'"),
    "no_seeds": ({"seeds": []}, "config: at least one seed required"),
    "epsilon_max": ({"method": {"smoothing": {"epsilon_max": 1.0}}},
                    "method.smoothing: epsilon_max must be in [0, 1)"),
    "defer_epoch": ({"method": {"reweight": {"defer_epoch": -1}}},
                    "method.reweight: defer_epoch must be >= 0"),
    **{name: ({"method": {"vicreg": {name: -1.0}}}, f"method.vicreg: {name} must be >= 0")
       for name in ("var_weight", "cov_weight", "inv_weight", "margin", "eps_num")},
    "lam": ({"method": {"joint": {"lam": -0.5}}}, "method.joint: lam must be >= 0"),
    "weight_decay": ({"train": {"weight_decay": -1e-4}}, "train: weight_decay must be >= 0"),
    "epochs": ({"train": {"epochs": 0}}, "train: epochs must be >= 1"),
    "classes": ({"data": {"classes": 1}}, "data: classes must be >= 2"),
    "dim": ({"data": {"dim": 1}}, "data: dim must be >= 2"),
    "train_per_class": ({"data": {"train_per_class": 0}}, "data: train_per_class must be >= 1"),
    "test_per_class": ({"data": {"test_per_class": 0}}, "data: test_per_class must be >= 1"),
    "sigma": ({"data": {"sigma": 0.0}}, "data: sigma must be > 0"),
    "mean_radius": ({"data": {"mean_radius": -1.0}}, "data: mean_radius must be >= 0"),
}


@pytest.mark.parametrize("case", list(_REFUSED_CONFIGS))
def test_config_from_dict_names_the_field_path_of_a_refused_value(case):
    doc, message = _REFUSED_CONFIGS[case]
    with pytest.raises(ConfigError) as info:
        config_from_dict(doc)
    assert str(info.value) == message


def test_config_from_dict_bad_values_carry_path():
    with pytest.raises(ConfigError, match="train: lr0"):
        config_from_dict({"train": {"lr0": -1.0}})


@pytest.mark.parametrize("doc, message", [
    ({"train": {"lr0": math.nan}}, "train.lr0: expected a finite number, got nan"),
    ({"method": {"sam": {"rho": math.inf}}}, "method.sam.rho: expected a finite number, got inf"),
    ({"train": {"warmup_epochs": 0.5}}, "train.warmup_epochs: expected an int, got 0.5"),
    ({"data": {"classes": True}}, "data.classes: expected an int, got True"),
    ({"method": {"joint_ssl": "no"}}, "method.joint_ssl: expected a bool, got 'no'"),
    ({"seeds": [True, 2]}, r"seeds: expected a list of ints, got \[True, 2\]"),
    ({"method": {"projector": [4, 2.5]}}, r"method.projector: expected a list of ints"),
    ({"data": {"label_col": None}}, "data.label_col: expected a string, got None"),
    ({"method": {"sam": None}}, "method.sam: expected an object, got NoneType"),
    ({"seeds": [0, -1]}, r"seeds must be >= 0, got \[0, -1\]"),
])
def test_config_values_are_checked_against_their_field_types(doc, message):
    with pytest.raises(ConfigError, match=message):
        config_from_dict(doc)


def test_config_values_are_not_converted():
    cfg = config_from_dict({"train": {"lr0": 1}, "r_test": None, "method": {"projector": None}})
    assert type(cfg.train.lr0) is int  # a float field keeps an int, so the config hash is unchanged
    assert cfg.r_test is None and cfg.method.projector is None


def test_config_validation():
    with pytest.raises(ValueError, match="duplicate seeds"):
        _tiny_config(seeds=[0, 0])
    with pytest.raises(ValueError, match="mutually exclusive"):
        _tiny_config(majority_size=500, r_train=0.1)
    with pytest.raises(ValueError, match="hidden"):
        _tiny_config(hidden=[0])
    with pytest.raises(ValueError, match="r_train"):
        _tiny_config(r_train=1.5)
    with pytest.raises(ValueError, match="majority_size must be >= 1"):
        _tiny_config(majority_size=0)
    with pytest.raises(ConfigError, match="n_minority must be >= 1"):
        config_from_dict({"majority_size": 10, "n_minority": 0})
    # ema_update trusts the decay it is given; the config rejects a bad one
    with pytest.raises(ValueError, match="ema_decay"):
        _tiny_config(ema_decay=1.5)


@pytest.mark.parametrize("value", [-1.0, -1e-300, 1.0000000000000002, 1.5])
def test_stop_at_train_acc_outside_0_1_is_refused(value):
    # 1.5 would never stop and -1 would stop like 0
    with pytest.raises(ConfigError, match=rf"stop_at_train_acc must be in \[0, 1\], got {value}"):
        config_from_dict({"stop_at_train_acc": value})


def test_stop_at_train_acc_accepts_its_range():
    for value in (0, 0.0, -0.0, 0.5, 1, 1.0, None):
        assert config_from_dict({"stop_at_train_acc": value}).stop_at_train_acc == value


def test_joint_ssl_needs_two_samples_per_batch():
    # VICReg's variance needs two samples; the config refuses a batch of one
    message = r"joint_ssl needs train.batch_size >= 2, got 1"
    with pytest.raises(ConfigError, match=message):
        config_from_dict({"method": {"joint_ssl": True}, "train": {"batch_size": 1}})
    one = _tiny_config(train=TrainConfig(lr0=0.1, epochs=3, warmup_epochs=1, batch_size=1))
    with pytest.raises(ConfigError, match=message):
        apply_method(one, "joint_ssl")
    assert apply_method(one, "sam_a").train.batch_size == 1
    assert config_from_dict({"method": {"joint_ssl": True}, "train": {"batch_size": 2}})


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
# Derived configs: every preset and sweep value keeps its config hash
# ---------------------------------------------------------------------------

# The "tuned" base sets rho, epsilon, defer_epoch and projector away from
# their defaults, so a derivation that resets a knob it should keep
# changes the hash.
_DERIVATION_BASES = {
    "plain": {},
    "tuned": {
        "data": {"classes": 3, "train_per_class": 40, "test_per_class": 20, "sigma": 0.5},
        "method": {"loss": "focal", "sam": {"rho": 0.2, "mode": "sam"},
                   "smoothing": {"epsilon": 0.3}, "reweight": {"defer_epoch": 7},
                   "projector": [8, 16], "joint_ssl": True},
        "train": {"lr0": 0.05, "epochs": 30, "warmup_epochs": 2, "batch_size": 64},
        "hidden": [16, 8],
        "r_train": 0.1,
        "r_test": 0.5,
        "seeds": [3, 4],
    },
}

# config_hash of each derivation, recorded before presets and sweep
# axes became tables; "preset" rows go through apply_method. An int
# ratio must hash like the float it is cast to.
_DERIVED_HASHES = {
    "plain": [
        ("preset", "erm", "4875dcdad5bd"),
        ("preset", "resample", "a3f2f046cfd7"),
        ("preset", "reweight", "ed3d8ef61c9b"),
        ("preset", "drw", "afeb7d8d0b7e"),
        ("preset", "focal", "7819f9819661"),
        ("preset", "smoothed", "e7bfddd3276a"),
        ("preset", "smoothed_inverse", "62b93b95a533"),
        ("preset", "sam", "71c2534ec316"),
        ("preset", "sam_a", "25d37e5a474d"),
        ("preset", "sam_a_inverse", "326dcbd0ab7b"),
        ("preset", "joint_ssl", "400d08fcf766"),
        ("preset", "sam_a_smoothed", "eae00f6aa05a"),
        ("preset", "sam_a_smoothed_inverse", "62595295182b"),
        ("batch_size", 16, "a019df645d0d"),
        ("batch_size", 64, "bf468667e6c5"),
        ("batch_size", 128, "b0452e18f6d1"),
        ("r_train", 1.0, "da6462acf816"),
        ("r_train", 0.1, "c1f2cf57b25c"),
        ("r_train", 0.01, "99286ed3a7ce"),
        ("r_train", 1, "da6462acf816"),
        ("r_test", 1.0, "5eed2bc0fe56"),
        ("r_test", 0.5, "029ed41e3599"),
        ("r_test", 0.05, "8e8387f4b44e"),
        ("r_test", 1, "5eed2bc0fe56"),
        ("n_majority", 50, "47723a7e2cd4"),
        ("n_majority", 500, "b7ac87db0758"),
    ],
    "tuned": [
        ("preset", "erm", "769119da9eac"),
        ("preset", "resample", "2731e536ceae"),
        ("preset", "reweight", "89afff9d64ed"),
        ("preset", "drw", "da19d3c8c598"),
        ("preset", "focal", "493b2ca3a23d"),
        ("preset", "smoothed", "0fe663c78c0d"),
        ("preset", "smoothed_inverse", "928ffdc648d4"),
        ("preset", "sam", "24f13b62ad8e"),
        ("preset", "sam_a", "febbd0b6d48d"),
        ("preset", "sam_a_inverse", "ef4618234459"),
        ("preset", "joint_ssl", "9a50aeabdf1c"),
        ("preset", "sam_a_smoothed", "1ac6f58e96ff"),
        ("preset", "sam_a_smoothed_inverse", "a3f553b551d5"),
        ("batch_size", 16, "30a57bc0517c"),
        ("batch_size", 64, "2046203fb0aa"),
        ("batch_size", 128, "daca81b96f69"),
        ("r_train", 1.0, "b75992648357"),
        ("r_train", 0.1, "2046203fb0aa"),
        ("r_train", 0.01, "a4bda1c57311"),
        ("r_train", 1, "b75992648357"),
        ("r_test", 1.0, "c329b26ddb1c"),
        ("r_test", 0.5, "2046203fb0aa"),
        ("r_test", 0.05, "8b40607c76e4"),
        ("r_test", 1, "c329b26ddb1c"),
        ("n_majority", 50, "c522fc6c7442"),
        ("n_majority", 500, "2838067deade"),
    ],
}


@pytest.mark.parametrize("base, kind, value, expected", [
    pytest.param(base, kind, value, expected, id=f"{base}-{kind}-{value!r}")
    for base, table in _DERIVED_HASHES.items()
    for kind, value, expected in table
])
def test_derived_config_hashes_are_pinned(base, kind, value, expected):
    cfg = config_from_dict(_DERIVATION_BASES[base])
    if kind == "preset":
        derived = apply_method(cfg, value)
        assert config_hash(axis_config(cfg, "method", value)) == expected
    else:
        derived = axis_config(cfg, kind, value)
    assert config_hash(derived) == expected


def test_presets_and_axes_are_complete():
    assert METHOD_PRESETS == (
        "erm", "resample", "reweight", "drw", "focal", "smoothed", "smoothed_inverse",
        "sam", "sam_a", "sam_a_inverse", "joint_ssl", "sam_a_smoothed", "sam_a_smoothed_inverse",
    )
    assert SWEEP_AXES == ("batch_size", "r_train", "r_test", "n_majority", "method")
    assert {preset for kind, preset, _ in _DERIVED_HASHES["plain"] if kind == "preset"} == set(
        METHOD_PRESETS
    )


@pytest.mark.parametrize("axis, value, message", [
    ("batch_size", 0, "batch_size must be >= 1"),
    ("batch_size", -4, "batch_size must be >= 1"),
    ("batch_size", "sixteen", "invalid literal"),
    ("r_train", 0.0, "r_train must be in"),
    ("r_test", 1.5, "r_test must be in"),
    ("n_majority", 0, "majority_size must be >= 1"),
    ("method", "mixup", "unknown method"),
    # bools are not numbers, and an int axis takes no fractional float
    ("batch_size", 16.7, "expected an integer"),
    ("batch_size", True, "got a bool"),
    ("n_majority", 2.5, "expected an integer"),
    ("n_majority", np.bool_(True), "got a bool"),
    ("r_test", True, "got a bool"),
])
def test_axis_config_rejects_bad_values(axis, value, message):
    with pytest.raises(ConfigError, match=message) as info:
        axis_config(_tiny_config(), axis, value)
    assert str(info.value).startswith(f"{axis} value {value!r}")


def test_axis_config_casts_integral_values():
    cfg = axis_config(_tiny_config(), "batch_size", 16.0)
    assert cfg.train.batch_size == 16 and type(cfg.train.batch_size) is int
    assert axis_config(_tiny_config(), "r_test", 1).r_test == 1.0


def test_axis_config_unknown_axis():
    with pytest.raises(ConfigError, match="axis must be one of"):
        axis_config(_tiny_config(), "learning_rate", 0.1)


def test_curation_axes_clear_each_other():
    grown = axis_config(_tiny_config(r_train=0.1), "n_majority", 40)
    assert (grown.majority_size, grown.r_train) == (40, None)
    ratio = axis_config(_tiny_config(majority_size=40), "r_train", 0.1)
    assert (ratio.majority_size, ratio.r_train) == (None, 0.1)


def test_derive_config_validates_and_keeps_the_original():
    cfg = _tiny_config()
    out = derive_config(cfg, {"train": {"epochs": 9}, "method": {"sam": {"rho": 0.3}}})
    assert (out.train.epochs, out.train.lr0, out.method.sam.rho) == (9, 0.1, 0.3)
    assert (cfg.train.epochs, cfg.method.sam.rho) == (3, 0.05)
    with pytest.raises(ConfigError, match="train: warmup_epochs"):
        derive_config(cfg, {"train": {"epochs": 1}})
    with pytest.raises(ConfigError, match="unknown config key train.steps"):
        derive_config(cfg, {"train": {"steps": 1}})


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


def test_config_refuses_a_projector_that_cannot_be_built():
    with pytest.raises(ConfigError, match="projector input 4 does not match last hidden width 8"):
        config_from_dict({"hidden": [16, 8], "method": {"joint_ssl": True, "projector": [4, 16]}})
    with pytest.raises(ConfigError, match=r"projector sizes must be positive, got \[8, 0\]"):
        config_from_dict({"hidden": [16, 8], "method": {"projector": [8, 0]}})
    # a projector that no joint_ssl run reads need not fit the trunk
    assert config_from_dict({"hidden": [16, 8], "method": {"projector": [4, 16]}}).method.projector == [4, 16]


@settings(max_examples=150, deadline=None)
@given(hidden=st.lists(st.integers(-1, 4), min_size=1, max_size=3),
       projector=st.none() | st.lists(st.integers(-1, 4), max_size=4))
def test_a_joint_ssl_config_that_loads_can_build_its_stacks(hidden, projector):
    method = {"joint_ssl": True} if projector is None else {"joint_ssl": True, "projector": projector}
    try:
        cfg = config_from_dict({"hidden": hidden, "method": method})
    except ConfigError:
        return
    proj_sizes = _projector_sizes(cfg)
    assert proj_sizes[0] == cfg.hidden[-1]
    for sizes in ([2] + cfg.hidden + [3], proj_sizes):
        mlp_init(sizes, seed=0)


# ---------------------------------------------------------------------------
# CSV-backed pools
# ---------------------------------------------------------------------------


def _csv_config(tmp_path, test_classes=None, **data):
    save_csv(tmp_path / "train.csv", gen_gaussian_mixture(3, 20, seed=0))
    if test_classes is not None:
        save_csv(tmp_path / "test.csv", gen_gaussian_mixture(test_classes, 10, seed=1))
        data["test_path"] = str(tmp_path / "test.csv")
    return _tiny_config(data=DataSpec(kind="csv", train_path=str(tmp_path / "train.csv"), **data))


def test_build_pools_csv_with_test_file(tmp_path):
    train, test = build_pools(_csv_config(tmp_path, test_classes=3), seed=0)
    assert (train.n, test.n) == (60, 30)
    assert train.class_names == test.class_names
    npt.assert_array_equal(np.bincount(test.y), [10, 10, 10])


def test_build_pools_csv_split_when_no_test_file(tmp_path):
    cfg = _csv_config(tmp_path, test_frac=0.25)
    train, test = build_pools(cfg, seed=0)
    npt.assert_array_equal(np.bincount(train.y), [15, 15, 15])
    npt.assert_array_equal(np.bincount(test.y), [5, 5, 5])
    # the split is seeded, and the pool is the file's rows, split once
    again, _ = build_pools(cfg, seed=0)
    npt.assert_array_equal(again.X, train.X)
    assert sorted(map(tuple, np.vstack([train.X, test.X]))) == sorted(
        map(tuple, gen_gaussian_mixture(3, 20, seed=0).X))


def test_build_pools_csv_class_names_must_agree(tmp_path):
    with pytest.raises(ValueError, match="disagree on class names"):
        build_pools(_csv_config(tmp_path, test_classes=2), seed=0)


def test_stratified_split_is_seeded_and_covers_every_class():
    data = gen_gaussian_mixture(3, 10, seed=0)
    a_train, a_test = _stratified_split(data, 0.3, np.random.default_rng(5))
    b_train, b_test = _stratified_split(data, 0.3, np.random.default_rng(5))
    c_train, _ = _stratified_split(data, 0.3, np.random.default_rng(6))
    npt.assert_array_equal(a_train.X, b_train.X)
    npt.assert_array_equal(a_test.X, b_test.X)
    assert not np.array_equal(a_train.X, c_train.X)
    npt.assert_array_equal(np.bincount(a_train.y, minlength=3), [7, 7, 7])
    npt.assert_array_equal(np.bincount(a_test.y, minlength=3), [3, 3, 3])


def test_stratified_split_rejects_a_class_too_small():
    data = Dataset(np.zeros((5, 2)), np.array([0, 0, 0, 0, 1]), ["big", "tiny"])
    with pytest.raises(ValueError, match="class tiny too small to split"):
        _stratified_split(data, 0.2, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# The supervised objective that training minimizes
# ---------------------------------------------------------------------------

_OBJ_PROFILE = ClassProfile(np.array([40, 12, 3]))
_OBJ_LABELS = np.array([0, 0, 1, 2, 0, 1, 2])
_OBJ_SAM = SamSpec(rho=0.05, mode="sam_a_paper")
# the ascent weights s_i = rho_{y_i} / rho that sam_step passes in
_OBJ_ASCENT = rho_per_class(_OBJ_PROFILE, _OBJ_SAM)[_OBJ_LABELS] / _OBJ_SAM.rho


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
    weights = _OBJ_ASCENT if ascent else None
    _objective_check(MethodSpec(loss=loss, sam=_OBJ_SAM), 0, weights)


@pytest.mark.parametrize("ascent", [False, True], ids=["plain", "sam_ascent"])
@pytest.mark.parametrize("epoch", [2, 3], ids=["before_defer", "at_defer"])
def test_supervised_loss_deferred_reweighting(epoch, ascent):
    weights = _OBJ_ASCENT if ascent else None
    method = MethodSpec(loss="reweighted", reweight=ReweightSpec(defer_epoch=3), sam=_OBJ_SAM)
    _objective_check(method, epoch, weights)


@pytest.mark.parametrize("ascent", [False, True], ids=["plain", "sam_ascent"])
@pytest.mark.parametrize("epoch", [2, 3], ids=["before_defer", "at_defer"])
def test_supervised_loss_reduction_formula(epoch, ascent):
    # sum_i w_i s_i l_i / sum_i s_i, with w = class weights from defer_epoch on
    # and s = 1 (so the divisor is B) outside the SAM ascent pass
    logits = np.random.default_rng(32).normal(size=(_OBJ_LABELS.size, 3))
    method = MethodSpec(loss="reweighted", reweight=ReweightSpec(defer_epoch=3))
    s = _OBJ_ASCENT if ascent else None
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
    assert a.model.raw.tobytes() == b.model.raw.tobytes()
    assert a.model.ema.tobytes() == b.model.ema.tobytes()
    assert a.metrics.overall == b.metrics.overall
    assert a.model.train_acc_trajectory == b.model.train_acc_trajectory
    c = run_training(cfg, seed=1)
    assert not np.array_equal(a.model.raw, c.model.raw)


@pytest.mark.parametrize("mode", ["sam_a_paper", "sam_a_inverse"])
def test_class_conditional_sam_at_rho_zero_trains_like_off(mode):
    # at rho 0 the ascent moves nothing, so each step applies the plain
    # gradient; curated classes would give unequal radii at rho > 0
    def model(sam):
        cfg = _tiny_config(r_train=0.2)
        cfg.method.sam = sam
        return run_training(cfg, seed=0).model

    off = model(SamSpec(rho=0.0, mode="off"))
    zero = model(SamSpec(rho=0.0, mode=mode))
    assert zero.raw.tobytes() == off.raw.tobytes()
    assert zero.ema.tobytes() == off.ema.tobytes()
    assert not np.array_equal(model(SamSpec(rho=0.05, mode=mode)).raw, off.raw)


@pytest.mark.parametrize("mode", ["sam", "sam_a_paper", "sam_a_inverse"])
def test_sam_at_rho_zero_diverges_with_offs_message(mode):
    # the one pass a rho-0 step runs raises what mode off's pass raises;
    # inputs this far out overflow the first layer on the first step
    data = DataSpec(classes=3, train_per_class=30, test_per_class=20, mean_radius=1e308)
    messages = []
    for sam in (SamSpec(rho=0.0, mode="off"), SamSpec(rho=0.0, mode=mode)):
        cfg = _tiny_config(data=data)
        cfg.method.sam = sam
        with pytest.raises(NumericalError) as info:
            run_training(cfg, seed=0)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == (
        "training diverged at epoch 0, step 0 (seed 0): "
        "non-finite pre-activation in layer 0 of a [2, 8, 3] stack")


def test_run_training_fits_separable_data():
    cfg = _tiny_config(
        data=DataSpec(classes=2, train_per_class=30, test_per_class=20, sigma=0.05),
        train=TrainConfig(lr0=0.1, epochs=20, warmup_epochs=1, batch_size=32),
    )
    res = run_training(cfg, seed=0)
    model = res.model
    assert model.final_train_accuracy == 1.0
    assert model.epochs_to_full_fit is not None
    assert model.train_acc_trajectory[model.epochs_to_full_fit - 1] == 1.0
    if model.epochs_to_full_fit > 1:
        assert model.train_acc_trajectory[model.epochs_to_full_fit - 2] < 1.0


def test_stop_at_train_acc_short_circuits():
    cfg = _tiny_config(stop_at_train_acc=0.0)
    res = run_training(cfg, seed=0)
    assert len(res.model.train_acc_trajectory) == 1


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
    assert res.model.sizes == [[2, 8, 3], [8, 32, 32]]
    # the classifier's 51 values, then the projector's 1344
    assert res.model.raw.shape == res.model.ema.shape == (51 + 1344,)
    assert np.isfinite(res.model.final_train_accuracy)


def test_joint_ssl_checkpoint_names_every_tensor_of_raw_and_ema(tmp_path):
    cfg = _tiny_config(train=TrainConfig(lr0=0.002, epochs=2, warmup_epochs=1, batch_size=32))
    cfg.method.joint_ssl = True
    result = run_all_seeds(cfg, out_dir=tmp_path).results[0]
    model = result.model
    named, meta = load_checkpoint(tmp_path / result.config_hash / "checkpoint_seed_0.json")
    assert list(meta) == ["mlp_sizes", "proj_sizes", "config_hash", "seed"]
    assert [meta["mlp_sizes"], meta["proj_sizes"]] == model.sizes
    assert (meta["config_hash"], meta["seed"]) == (result.config_hash, 0)
    want = [f"{stack}.{kind}{i}" for stack in ("mlp", "proj") for i in (0, 1) for kind in "wb"]
    assert list(named) == sorted(want + [f"ema.{name}" for name in want])
    for prefix, vec in (("", model.raw), ("ema.", model.ema)):
        values = [named[prefix + name] for name in want]
        assert np.concatenate([v.reshape(-1) for v in values]).tobytes() == vec.tobytes()
    assert not np.array_equal(model.raw, model.ema)


def test_trial_checkpoints_go_through_models_save_checkpoint(tmp_path, monkeypatch):
    # A wrapper bound on models replaces the writer for every checkpoint
    # a run writes, as an instrumenting benchmark expects.
    paths = []
    real = models.save_checkpoint
    monkeypatch.setattr(models, "save_checkpoint",
                        lambda path, *args: paths.append(path) or real(path, *args))
    agg = run_all_seeds(_tiny_config(seeds=[0, 1]), out_dir=tmp_path)
    run_dir = tmp_path / agg.config_hash
    assert paths == [run_dir / "checkpoint_seed_0.json", run_dir / "checkpoint_seed_1.json"]


def test_use_ema_eval_false_evaluates_the_raw_weights(tmp_path):
    cfg = _tiny_config(use_ema_eval=False)
    result = run_all_seeds(cfg, out_dir=tmp_path).results[0]
    model = result.model
    assert not np.array_equal(model.raw, model.ema)
    raw_mlp = unpack(model.raw, model.sizes)[0]
    assert pack([model.eval_mlp(cfg.use_ema_eval)]).tobytes() == pack([raw_mlp]).tobytes()
    # the seed file's metrics are those of the raw weights on the test split
    _, test_pool = build_pools(cfg, 0)
    test_split = curate_test_split(cfg, test_pool, 0)
    preds, _, _ = mlp_predict(raw_mlp, test_split.X)
    want = jsonify(metrics_report(preds, test_split.y, model.profile))
    doc = json.loads((tmp_path / result.config_hash / "seed_0.json").read_text())
    assert doc["metrics"] == want


def test_a_trial_whose_class_means_coincide_keeps_its_seed_file(tmp_path):
    # one hidden unit: on seed 0 it is dead for classes 0 and 1, whose
    # mean features then coincide and have no CDNV
    cfg = _tiny_config(
        data=DataSpec(classes=3, train_per_class=40, test_per_class=20, sigma=0.5),
        train=TrainConfig(lr0=0.1, epochs=3, warmup_epochs=1, batch_size=32),
        hidden=[1],
    )
    result = run_all_seeds(cfg, out_dir=tmp_path).results[0]
    assert np.isnan(result.collapse.cdnv_pairs[0, 1]) and np.isnan(result.collapse.mean_cdnv)
    doc = json.loads((tmp_path / result.config_hash / "seed_0.json").read_text())
    assert doc["collapse"]["cdnv_pairs"][0][1] is None
    assert doc["collapse"]["mean_cdnv"] is None
    assert (tmp_path / result.config_hash / "checkpoint_seed_0.json").exists()


def test_run_training_divergence_is_reported():
    cfg = _tiny_config(
        train=TrainConfig(lr0=5000.0, epochs=3, warmup_epochs=1, batch_size=32),
    )
    cfg.method.joint_ssl = True
    with pytest.raises(NumericalError, match="training diverged at epoch"):
        run_training(cfg, seed=0)


def test_a_forward_that_overflows_after_the_last_step_diverges():
    # The one step's forward is finite; the update it makes overflows the
    # next forward's hidden layer to -inf, which ReLU would turn into 0.
    split = Dataset(np.full((16, 1), 1e300), np.repeat([0, 1], 8), ["a", "b"])
    cfg = config_from_dict({"hidden": [1], "seeds": [1],
                            "train": {"epochs": 1, "warmup_epochs": 0, "lr0": 0.1}})
    with pytest.raises(NumericalError) as info:
        harness.train_model(cfg, [1], [split])
    assert str(info.value) == ("training diverged at epoch 0, predicting the train split "
                               "(seed 1): non-finite pre-activation in layer 0 of a [1, 1, 2] stack")
    # untracked, the trial trains, and evaluating it raises instead of scoring
    model = harness.train_model(cfg, [1], [split], track_train_acc=False)[0]
    with pytest.raises(NumericalError, match=r"layer 0 of a \[1, 1, 2\] stack"):
        harness.evaluate_model(model, split, cfg)


def test_a_forward_that_overflows_at_evaluation_names_the_seed_and_the_split(tmp_path):
    huge = Dataset(np.full((16, 1), 1e300), np.repeat([0, 1], 8), ["a", "b"])
    cfg = config_from_dict({"hidden": [1], "seeds": [1],
                            "train": {"epochs": 1, "warmup_epochs": 0, "lr0": 0.1}})
    model = harness.train_model(cfg, [1], [huge], track_train_acc=False)[0]
    layer = "non-finite pre-activation in layer 0 of a [1, 1, 2] stack"
    with pytest.raises(NumericalError) as info:
        harness.evaluate_model(model, huge, cfg)
    assert str(info.value) == f"seed 1: evaluation failed predicting the test split: {layer}"
    # the test split of zeros predicts finitely; the train split does not
    zeros = Dataset(np.zeros((4, 1)), np.array([0, 1, 0, 1]), ["a", "b"])
    with pytest.raises(NumericalError) as info:
        harness.evaluate_model(model, zeros, cfg)
    assert str(info.value) == f"seed 1: evaluation failed predicting the train split: {layer}"

    # trained on small values, a [1, 4, 2] model overflows on a test file of 1.7e308
    train_csv, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
    save_csv(train_csv, Dataset(np.linspace(-1, 1, 16)[:, None], np.repeat([0, 1], 8), ["a", "b"]))
    save_csv(test_csv, Dataset(np.full((16, 1), 1.7e308), np.repeat([0, 1], 8), ["a", "b"]))
    cfg = config_from_dict({
        "data": {"kind": "csv", "train_path": str(train_csv), "test_path": str(test_csv)},
        "hidden": [4], "seeds": [1], "train": {"epochs": 1, "warmup_epochs": 0, "lr0": 0.1},
    })
    layer = "non-finite pre-activation in layer 0 of a [1, 4, 2] stack"
    with pytest.raises(NumericalError) as info:
        run_training(cfg, 1)
    assert str(info.value) == f"seed 1: evaluation failed predicting the test split: {layer}"
    with pytest.raises(NumericalError) as info:
        run_ratio_grid(cfg, [1.0, 0.5], [1.0, 0.5])
    assert str(info.value) == ("evaluation failed predicting the test split "
                               f"(seed 1, r_train 1.0, r_test 1.0): {layer}")


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
        sizes = meta["mlp_sizes"]
        assert [sizes] == result.model.sizes and meta["proj_sizes"] is None
        assert pack([named_to_mlp(named, sizes)]).tobytes() == result.model.raw.tobytes()
        assert pack([named_to_mlp(named, sizes, "ema.mlp")]).tobytes() == result.model.ema.tobytes()
    doc = json.loads((run_dir / "aggregate.json").read_text())
    assert doc["aggregates"]["overall"]["mean"] == overall.mean
    assert doc["seeds"] == [0, 1]


def test_run_all_seeds_keeps_finished_seeds_when_a_later_one_fails(tmp_path, monkeypatch):
    real = harness.run_training

    def run_training(config, seed):
        if seed == 1:
            raise NumericalError("training diverged at epoch 0, step 0 (seed 1)")
        return real(config, seed)

    monkeypatch.setattr(harness, "run_training", run_training)
    cfg = _tiny_config(seeds=[0, 1])
    with pytest.raises(NumericalError):
        run_all_seeds(cfg, out_dir=tmp_path)
    run_dir = tmp_path / config_hash(cfg)
    assert sorted(p.name for p in run_dir.iterdir()) == ["checkpoint_seed_0.json", "seed_0.json"]
    assert json.loads((run_dir / "seed_0.json").read_text())["seed"] == 0


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
    assert sweep.rows[0].percent_improvement == 0.0
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
    assert base_row.percent_improvement == 0.0


def _record_trained_profiles(monkeypatch):
    """Make harness.train_model log the class counts of each split it trains on."""
    seen = []
    real = harness.train_model

    def train_model(config, seeds, splits, **kwargs):
        models = real(config, seeds, splits, **kwargs)
        seen.extend(model.profile.counts.tolist() for model in models)
        return models

    monkeypatch.setattr(harness, "train_model", train_model)
    return seen


def test_run_sweep_r_train_clears_majority_size(monkeypatch):
    seen = _record_trained_profiles(monkeypatch)
    cfg = _tiny_config(majority_size=20, n_minority=5)
    run_sweep(cfg, "r_train", [1.0, 0.2])
    assert seen == [[30, 30, 30], [30, 13, 6]]


def test_run_sweep_n_majority_axis(monkeypatch, tmp_path):
    seen = _record_trained_profiles(monkeypatch)
    cfg = _tiny_config(r_train=0.2, n_minority=5)
    sweep = run_sweep(cfg, "n_majority", [10, 25], out_dir=tmp_path)
    assert seen == [[5, 10, 10], [5, 25, 25]]
    assert sweep.baseline == 10 and sweep.rows[0].percent_improvement == 0.0
    assert (tmp_path / "sweep_n_majority.csv").exists()


def test_run_sweep_r_test_axis():
    cfg = _tiny_config(seeds=[0])
    sweep = run_sweep(cfg, "r_test", [1.0, 0.1])
    assert sweep.baseline == 1.0
    assert sweep.improvement_mode == "relative_to_baseline"
    # the same model is scored on a balanced and on a 1:10 test split
    balanced, skewed = (row.aggregates for row in sweep.rows)
    assert balanced["final_train_accuracy"].values == skewed["final_train_accuracy"].values
    assert balanced["overall"].values != skewed["overall"].values


def test_result_documents_are_their_fields(tmp_path):
    # every report type is written as its fields, in declaration order
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    cfg = _tiny_config(seeds=[0])
    run_sweep(cfg, "r_test", [1.0, 0.1], out_dir=tmp_path)
    doc = json.loads((tmp_path / "sweep_r_test.json").read_text())
    assert list(doc) == names(SweepResult)
    for row in doc["rows"]:
        assert list(row) == names(SweepRow)
        for agg in row["aggregates"].values():
            assert list(agg) == names(TrialAggregate)
    for path in tmp_path.glob("*/seed_0.json"):
        seed_doc = json.loads(path.read_text())
        assert list(seed_doc["metrics"]) == names(MetricsReport)
        assert list(seed_doc["collapse"]) == names(CollapseReport)


def test_run_sweep_bad_value_fails_before_training(monkeypatch, tmp_path):
    trained = []
    monkeypatch.setattr(harness, "train_model",
                        lambda config, seeds, splits, **kwargs: trained.append(seeds))
    for values in ([16, 0], [16, -4]):
        with pytest.raises(ConfigError, match=f"batch_size value {values[1]}"):
            run_sweep(_tiny_config(), "batch_size", values, out_dir=tmp_path / "out")
    with pytest.raises(ConfigError, match="n_majority value 0: .*majority_size must be >= 1"):
        run_sweep(_tiny_config(), "n_majority", [20, 0], out_dir=tmp_path / "out")
    assert trained == []
    assert not (tmp_path / "out").exists()


def test_joint_ssl_sweep_with_a_batch_of_one_fails_before_training(monkeypatch, tmp_path):
    trained = []
    monkeypatch.setattr(harness, "train_model",
                        lambda config, seeds, splits, **kwargs: trained.append(seeds))
    cfg = apply_method(_tiny_config(), "joint_ssl")
    with pytest.raises(ConfigError, match="batch_size value 1: .*joint_ssl needs train.batch_size"):
        run_sweep(cfg, "batch_size", [8, 1], out_dir=tmp_path / "out")
    assert trained == []
    assert not (tmp_path / "out").exists()


def test_run_sweep_checks_values_after_the_cast(monkeypatch, tmp_path):
    trained = []
    monkeypatch.setattr(harness, "train_model",
                        lambda config, seeds, splits, **kwargs: trained.append(seeds))
    for axis, values in (("r_test", [1, 1.0]), ("batch_size", [16, 16.0])):
        with pytest.raises(ConfigError, match="duplicate sweep values"):
            run_sweep(_tiny_config(), axis, values, out_dir=tmp_path / "out")
    for values, bad in (([32, 16.7], "16.7"), ([32, True], "True")):
        with pytest.raises(ConfigError, match=f"batch_size value {bad}"):
            run_sweep(_tiny_config(), "batch_size", values, out_dir=tmp_path / "out")
    assert trained == []
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("preset, stacks", [("erm", True), ("sam", False)])
def test_a_multi_seed_grid_is_its_one_seed_grids_cell_for_cell(preset, stacks):
    # one train_model call per train ratio with both seeds, which stack
    # (erm) or train one after another (sam); either way each seed's cells
    # are its own grid's
    cfg = apply_method(_tiny_config(seeds=[0, 1]), preset)
    splits = [curate_train_split(cfg, build_pools(cfg, seed)[0], seed) for seed in cfg.seeds]
    assert harness._stackable(cfg, splits) == stacks
    grid = run_ratio_grid(cfg, [1.0, 0.5], [1.0, 0.5])
    for seed, cells in zip(cfg.seeds, grid.per_seed):
        alone = run_ratio_grid(derive_config(cfg, {"seeds": [seed]}), [1.0, 0.5], [1.0, 0.5])
        assert cells == alone.per_seed[0]
    assert grid.per_seed[0] != grid.per_seed[1]


def test_run_ratio_grid_curates_each_test_split_once_per_seed(monkeypatch):
    real = harness.curate_test_split
    calls = []

    def curate_test_split(config, pool, seed):
        calls.append((config.r_test, seed))
        return real(config, pool, seed)

    monkeypatch.setattr(harness, "curate_test_split", curate_test_split)
    cfg = _tiny_config(seeds=[0, 1], train=TrainConfig(lr0=0.1, epochs=2, warmup_epochs=1, batch_size=32))
    run_ratio_grid(cfg, [1.0, 0.5, 0.2], [1.0, 0.5])
    assert calls == [(1.0, 0), (0.5, 0), (1.0, 1), (0.5, 1)]


def _count_build_pools(monkeypatch):
    """Make harness.build_pools record the seed of each call and pass it through."""
    real = harness.build_pools
    seeds = []

    def build_pools(config, seed):
        seeds.append(seed)
        return real(config, seed)

    monkeypatch.setattr(harness, "build_pools", build_pools)
    return seeds


def test_run_all_seeds_builds_each_trials_pools_once(monkeypatch):
    seeds = _count_build_pools(monkeypatch)
    run_all_seeds(_tiny_config(seeds=[0, 1], r_train=0.2))
    assert seeds == [0, 1]


def test_run_ratio_grid_builds_pools_once_per_seed(monkeypatch):
    seeds = _count_build_pools(monkeypatch)
    cfg = _tiny_config(seeds=[0, 1], train=TrainConfig(lr0=0.1, epochs=2, warmup_epochs=1, batch_size=32))
    run_ratio_grid(cfg, [1.0, 0.5, 0.2], [1.0, 0.5])
    assert seeds == [0, 1]


def test_run_ratio_grid_clears_majority_size(monkeypatch):
    seen = _record_trained_profiles(monkeypatch)
    cfg = _tiny_config(majority_size=20, n_minority=5, train=TrainConfig(
        lr0=0.1, epochs=2, warmup_epochs=1, batch_size=32))
    grid = run_ratio_grid(cfg, [1.0, 0.2], [1.0])
    assert seen == [[30, 30, 30], [30, 13, 6]]
    assert set(grid.per_seed[0]) == {(1.0, 1.0), (0.2, 1.0)}


def test_run_ratio_grid_bad_ratio_fails_before_training(monkeypatch):
    trained = []
    monkeypatch.setattr(harness, "train_model",
                        lambda config, seeds, splits, **kwargs: trained.append(seeds))
    with pytest.raises(ConfigError, match="r_test value 0.0"):
        run_ratio_grid(_tiny_config(), [1.0], [1.0, 0.0])
    assert trained == []


def test_run_ratio_grid_refuses_an_off_ladder_test_ratio_before_training(monkeypatch, tmp_path):
    # misalignment_steps needs every test ratio among the train ratios;
    # the grid checks that before it trains a model
    trained = []
    monkeypatch.setattr(harness, "train_model",
                        lambda config, seeds, splits, **kwargs: trained.append(seeds))
    with pytest.raises(ConfigError, match=r"^test ratios \[0\.3\] not on the training-ratio "
                                          r"ladder$"):
        run_ratio_grid(_tiny_config(), [1.0, 0.5], [0.3, 0.5], out_dir=tmp_path / "out")
    assert trained == []
    assert not (tmp_path / "out").exists()


def test_run_ratio_grid_predicts_only_its_cells(monkeypatch):
    # one predict per (seed, r_train, r_test) cell: no epoch-end train
    # accuracy, which the grid never reads
    real = harness.mlp_predict
    calls = []

    def mlp_predict(params, x):
        calls.append(x)
        return real(params, x)

    monkeypatch.setattr(harness, "mlp_predict", mlp_predict)
    cfg = _tiny_config(seeds=[0, 1], train=TrainConfig(lr0=0.1, epochs=3, warmup_epochs=1, batch_size=32))
    grid = run_ratio_grid(cfg, [1.0, 0.5, 0.2], [1.0, 0.5])
    assert len(calls) == 2 * 3 * 2
    assert len(grid.per_seed) == 2 and all(len(g) == 6 for g in grid.per_seed)


def _preset_config(preset):
    """_tiny_config under a preset; joint_ssl diverges at lr0 0.1, so it trains at 5e-4."""
    cfg = apply_method(_tiny_config(), preset)
    if preset == "joint_ssl":
        cfg.train.lr0 = 5e-4
    return cfg


@pytest.mark.parametrize("preset", ["erm", "sam_a", "joint_ssl"])
def test_untracked_training_keeps_every_weight(preset):
    # skipping the epoch-end predicts changes no trained byte
    cfg = _preset_config(preset)
    split = build_pools(cfg, 0)[0]
    [tracked] = harness.train_model(cfg, [0], [split])
    [untracked] = harness.train_model(cfg, [0], [split], track_train_acc=False)
    assert untracked.raw.tobytes() == tracked.raw.tobytes()
    assert untracked.ema.tobytes() == tracked.ema.tobytes()
    assert len(tracked.train_acc_trajectory) == cfg.train.epochs
    assert untracked.train_acc_trajectory == [] and untracked.epochs_to_full_fit is None


def test_stop_at_train_acc_still_predicts_when_untracked():
    # the early stop reads the train accuracy, so it is computed anyway
    cfg = _tiny_config(stop_at_train_acc=0.0)
    split = build_pools(cfg, 0)[0]
    [model] = harness.train_model(cfg, [0], [split], track_train_acc=False)
    assert len(model.train_acc_trajectory) == 1


@pytest.mark.parametrize("preset, arrays", [("erm", 2), ("sam_a_smoothed", 2), ("joint_ssl", 4)])
def test_train_model_hands_the_step_float64_c_contiguous_arrays(monkeypatch, preset, arrays):
    # batch_loss_and_grads converts nothing: its batch rows, target rows
    # and views come from train_model as float64, C-contiguous arrays.
    # Under SAM the name is looked up for each step's functools.partial.
    real = harness.batch_loss_and_grads
    calls = []

    def step(plan, xb, yb, targets, views, *rest):
        checked = [xb, targets, *(views or ())]
        assert all(a.dtype == np.float64 and a.flags.c_contiguous for a in checked)
        assert targets.shape[0] == yb.shape[0] == xb.shape[0]
        calls.append(len(checked))
        return real(plan, xb, yb, targets, views, *rest)

    monkeypatch.setattr(harness, "batch_loss_and_grads", step)
    cfg = _preset_config(preset)
    split = build_pools(cfg, 0)[0]
    harness.train_model(cfg, [0], [split], track_train_acc=False)
    steps = cfg.train.epochs * math.ceil(split.n / cfg.train.batch_size)
    assert calls == [arrays] * steps * (2 if preset.startswith("sam") else 1)


@pytest.mark.parametrize("preset, buffers", [("erm", 2), ("sam_a", 3), ("joint_ssl", 2)])
def test_a_trial_unpacks_each_buffer_once(monkeypatch, preset, buffers):
    # theta, the gradient and, under SAM, the perturbed point: each is
    # unpacked into its views once per trial, not once per step
    real = harness.unpack
    calls = []

    def unpack(vec, sizes):
        calls.append(id(vec))
        return real(vec, sizes)

    monkeypatch.setattr(harness, "unpack", unpack)
    cfg = _preset_config(preset)
    harness.train_model(cfg, [0], [build_pools(cfg, 0)[0]], track_train_acc=False)
    assert len(calls) == len(set(calls)) == buffers


_WRITE_PROFILE = ClassProfile(np.array([30, 10, 3]))
# name -> (method, epoch): every step shape, reweight on both sides of its defer epoch
_WRITE_STEPS = {
    "erm": (MethodSpec(), 0),
    "focal_0.5": (MethodSpec(loss="focal", focal=FocalSpec(gamma=0.5)), 0),
    "smoothed": (MethodSpec(loss="smoothed"), 0),
    "reweight_deferred": (MethodSpec(loss="reweighted", reweight=ReweightSpec(defer_epoch=1)), 0),
    "reweight_on": (MethodSpec(loss="reweighted", reweight=ReweightSpec(defer_epoch=1)), 1),
    "sam_a": (MethodSpec(sam=SamSpec(rho=0.05, mode="sam_a_paper")), 0),
    "joint_ssl": (MethodSpec(joint_ssl=True, projector=[8, 6, 5]), 0),
}


def _step_calls(name, trials, fill):
    """(loss, gradient) bytes of each batch_loss_and_grads call of one step of name, run as
    a lone trial or a stack of trials, with plan.grad filled with fill before each call."""
    method, epoch = _WRITE_STEPS[name]
    sizes = [[2, 8, 8, 3]] + ([method.projector] if method.joint_ssl else [])
    thetas = [pack([mlp_init(s, seed=10 * t + i) for i, s in enumerate(sizes)])
              for t in range(trials)]
    plan = harness.StepPlan(np.stack(thetas) if trials > 1 else thetas[0], sizes,
                            sam=method.sam.mode != "off")
    yb = np.array([[0, 1, 2, 0, 1, 2], [2, 2, 1, 0, 0, 1]] if trials > 1 else [0, 1, 2, 0, 1, 2])
    rng = np.random.default_rng(0)
    xb = rng.normal(size=yb.shape + (2,))
    views = [rng.normal(size=xb.shape) for _ in range(2)] if method.joint_ssl else None
    targets = harness.supervised_targets(yb.ravel(), method, _WRITE_PROFILE).reshape(*yb.shape, 3)
    batch = (plan, xb, yb, targets, views, epoch, method, reweight_class_weights(_WRITE_PROFILE))
    calls = []

    def loss_and_grads(theta, example_weights):
        plan.grad.fill(fill)
        loss, grad = harness.batch_loss_and_grads(*batch, theta, example_weights)
        assert grad is plan.grad
        calls.append((np.asarray(loss).tobytes(), grad.tobytes()))
        return loss, grad

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if method.sam.mode == "off":
            loss_and_grads(plan.theta, None)
        else:
            # a weighted ascent, then the descent at the moved point
            radii = rho_per_class(_WRITE_PROFILE, method.sam)[yb]
            sam_step(plan.theta, loss_and_grads, method.sam.rho, radii, tensor_bounds(sizes),
                     plan.perturbed)
    return calls


@pytest.mark.parametrize("name, trials", [(name, 1) for name in _WRITE_STEPS] + [
    (name, 2) for name in ("erm", "focal_0.5", "smoothed", "reweight_deferred", "reweight_on")
], ids=str)
def test_every_step_shape_rewrites_the_gradient_tensors_it_uses(name, trials):
    # nothing clears plan.grad between steps: mlp_backward writes every tensor the
    # objective uses before adding into it, so a buffer of NaN gives a clean plan's bytes
    clean = _step_calls(name, trials, 0.0)
    assert len(clean) == (2 if name == "sam_a" else 1)
    assert _step_calls(name, trials, np.nan) == clean


def test_sweep_csv_failure_keeps_previous_file(tmp_path):
    path = tmp_path / "sweep_batch_size.csv"
    agg = {k: aggregate([0.5]) for k in ("overall", "minority", "majority")}
    good = SweepResult("batch_size", [16], 16, "paper_a1", [SweepRow(16, agg, 0.0)], 0.0)
    good.to_csv(path)
    before = path.read_bytes()
    # the second row lacks its aggregates, so the write fails after one row
    bad = SweepResult("batch_size", [16, 32], 16, "paper_a1",
                      [SweepRow(16, agg, 0.0), SweepRow(32, {}, 0.1)], 0.0)
    with pytest.raises(KeyError):
        bad.to_csv(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["sweep_batch_size.csv"]


def test_run_ratio_grid_empty_lists():
    with pytest.raises(ConfigError, match="non-empty"):
        run_ratio_grid(_tiny_config(), [], [0.5])


@pytest.mark.parametrize("train_ratios, test_ratios, axis", [
    ([1, 1.0, 0.5], [0.5], "r_train"),
    ([0.5], [0.5, 0.5], "r_test"),
], ids=["train", "test"])
def test_run_ratio_grid_refuses_duplicate_ratios(monkeypatch, tmp_path, train_ratios, test_ratios,
                                                 axis):
    trained = []
    monkeypatch.setattr(harness, "train_model",
                        lambda config, seeds, splits, **kwargs: trained.append(seeds))
    with pytest.raises(ConfigError, match=rf"^{axis}: duplicate sweep values \["):
        run_ratio_grid(_tiny_config(), train_ratios, test_ratios, out_dir=tmp_path / "out")
    assert trained == []
    assert not (tmp_path / "out").exists()


def test_sweep_defaults_come_from_the_axis_table():
    defaults = {axis: (spec.baseline, spec.improvement_mode) for axis, spec in harness.AXES.items()}
    assert defaults == {
        "batch_size": (128, "paper_a1"),
        "r_train": (None, "relative_to_baseline"),
        "r_test": (None, "relative_to_baseline"),
        "n_majority": (None, "relative_to_baseline"),
        "method": ("erm", "relative_to_baseline"),
    }


@pytest.mark.parametrize("axis, values", [("batch_size", []), ("method", []), ("r_test", ())])
def test_an_empty_sweep_is_refused(axis, values):
    with pytest.raises(ConfigError, match=rf"^{axis}: sweep values must be a non-empty list$"):
        run_sweep(_tiny_config(), axis, values)


def test_run_sweep_refuses_an_unknown_improvement_mode(monkeypatch, tmp_path):
    trained = []
    monkeypatch.setattr(harness, "train_model",
                        lambda config, seeds, splits, **kwargs: trained.append(seeds))
    with pytest.raises(ConfigError, match=r"^improvement_mode must be one of \('paper_a1', "):
        run_sweep(_tiny_config(), "batch_size", [16, 32], out_dir=tmp_path / "out",
                  improvement_mode="absolute")
    assert trained == []
    assert not (tmp_path / "out").exists()
