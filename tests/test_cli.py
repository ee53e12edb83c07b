import copy
import csv
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewtrain import harness
from skewtrain.cli import _build_parser, main
from skewtrain.data import Dataset, gen_gaussian_mixture, load_csv, save_csv
from skewtrain.models import mlp_init, params_to_named, save_checkpoint

TINY_CONFIG = {
    "data": {"classes": 3, "train_per_class": 30, "test_per_class": 20, "sigma": 0.5},
    "train": {"lr0": 0.1, "epochs": 2, "warmup_epochs": 1, "batch_size": 32},
    "hidden": [8],
    "seeds": [0],
}


def _write_dataset_csv(path, classes=3, per_class=20):
    data = gen_gaussian_mixture(classes, per_class, seed=0)
    save_csv(path, data)
    return data


def _write_config(path, doc=None):
    path.write_text(json.dumps(doc or TINY_CONFIG))
    return path


def _untrained_checkpoint(path, sizes=(2, 4, 3)):
    """Save raw and EMA copies of one freshly initialized MLP; no training."""
    named = params_to_named(mlp_init(list(sizes), seed=0), "mlp")
    ema = {f"ema.{name}": arr for name, arr in named.items()}
    save_checkpoint(path, {**named, **ema}, {"mlp_sizes": list(sizes)})
    return path


def _train_checkpoint(tmp_path):
    """Run the train command once and return its seed-0 checkpoint path."""
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "results"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    ckpts = list(out.glob("*/checkpoint_seed_0.json"))
    assert len(ckpts) == 1
    return ckpts[0]


# ---------------------------------------------------------------------------
# curate
# ---------------------------------------------------------------------------


def test_curate_command(tmp_path, capsys):
    src = tmp_path / "full.csv"
    out = tmp_path / "curated.csv"
    _write_dataset_csv(src)
    code = main(["curate", "--in", str(src), "--out", str(out), "--ratio", "0.25"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "wrote 35 rows over 3 classes" in printed
    assert "[20, 10, 5]" in printed
    curated = load_csv(out, "label")
    assert np.bincount(curated.y).tolist() == [20, 10, 5]


def test_curate_bad_ratio(tmp_path, capsys):
    src = tmp_path / "full.csv"
    _write_dataset_csv(src)
    code = main(["curate", "--in", str(src), "--out", str(tmp_path / "o.csv"),
                 "--ratio", "2.0"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_curate_names_the_line_of_a_non_finite_value(tmp_path, capsys):
    src = tmp_path / "full.csv"
    src.write_text("f0,f1,label\n1.0,2.0,a\n\n1e400,0.5,b\n")
    code = main(["curate", "--in", str(src), "--out", str(tmp_path / "o.csv"), "--ratio", "0.5"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"config error: {src}:4: non-finite feature value ('1e400' in column 'f0')" in err
    assert not (tmp_path / "o.csv").exists()


def test_curate_missing_input(tmp_path, capsys):
    code = main(["curate", "--in", str(tmp_path / "absent.csv"),
                 "--out", str(tmp_path / "o.csv"), "--ratio", "0.5"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_curate_refuses_a_label_col_that_names_a_feature(tmp_path, capsys):
    # save_csv names the one feature f0, so this label column would be read
    # back as that feature.
    src = tmp_path / "full.csv"
    src.write_text("x,f0\n1.0,a\n2.0,a\n3.0,b\n4.0,b\n")
    out = tmp_path / "o.csv"
    code = main(["curate", "--in", str(src), "--out", str(out), "--label-col", "f0", "--ratio", "1.0"])
    assert code == 2
    assert "label column 'f0' is also a feature name" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [src]


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_command(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "results"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "1 seeds" in printed and "overall" in printed and "minority" in printed
    aggs = list(out.glob("*/aggregate.json"))
    assert len(aggs) == 1
    doc = json.loads(aggs[0].read_text())
    assert doc["seeds"] == [0]


def test_train_unknown_config_key(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", {"optimizer": "adam"})
    code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert code == 2
    assert "unknown config key optimizer" in capsys.readouterr().err


def test_train_missing_config(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "r")])
    assert code == 2


def test_train_divergence_exits_3(tmp_path, capsys):
    # VICReg at the default lr0 of 0.1 blows up within the first epochs
    doc = dict(TINY_CONFIG, method={"joint_ssl": True})
    cfg = _write_config(tmp_path / "cfg.json", doc)
    code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert code == 3
    assert "training diverged at epoch" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("override", [
    {"hidden": [3, 10**12]},  # 21.8 TiB of weights in mlp_init
    {"data": dict(TINY_CONFIG["data"], train_per_class=10**12)},  # 43.7 TiB of samples
])
def test_train_that_cannot_allocate_exits_2(tmp_path, capsys, override):
    cfg = _write_config(tmp_path / "cfg.json", dict(TINY_CONFIG, **override))
    code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: train needs more memory than it can allocate")
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert not (tmp_path / "r").exists()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_command(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--axis", "batch_size", "--values", "16,32", "--baseline", "16"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "baseline 16" in printed
    assert (out / "sweep_batch_size.json").exists()
    with open(out / "sweep_batch_size.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "value"
    assert [r[0] for r in rows[1:]] == ["16", "32"]


def test_sweep_duplicate_values(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s"),
                 "--axis", "batch_size", "--values", "32,32"])
    assert code == 2
    assert "duplicate" in capsys.readouterr().err


def _refuse_training(monkeypatch):
    def train_model(config, seed, train_split):
        raise AssertionError("a sweep with a bad value started training")

    monkeypatch.setattr(harness, "train_model", train_model)


@pytest.mark.parametrize("axis, values, message", [
    ("batch_size", "16,0", "batch_size value 0"),
    ("batch_size", "16,-4", "batch_size value -4"),
    ("n_majority", "20,0", "n_majority value 0"),
    ("batch_size", "16,abc", "batch_size value 'abc': invalid literal for int() with base 10: 'abc'"),
    ("r_train", "1.0,half", "r_train value 'half': could not convert string to float: 'half'"),
    ("method", "erm,mixup", "unknown method 'mixup'"),
])
def test_sweep_bad_value_exits_2_before_training(tmp_path, capsys, monkeypatch,
                                                 axis, values, message):
    _refuse_training(monkeypatch)
    cfg = _write_config(tmp_path / "cfg.json", dict(TINY_CONFIG, n_minority=5))
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--axis", axis, "--values", values])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, code, stream, text", [
    # the leading minus reads as a flag, so --values has no argument
    (["sweep", "--axis", "batch_size", "--values", "-1,16"], 2, "err",
     "argument --values: expected one argument"),
    (["bogus"], 2, "err", "invalid choice: 'bogus'"),
    (["--help"], 0, "out", "usage: skewtrain"),
])
def test_argparse_exits_become_return_codes(tmp_path, capsys, argv, code, stream, text):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "sweep"
    if argv[0] == "sweep":
        argv = argv[:1] + ["--config", str(cfg), "--out", str(out)] + argv[1:]
    assert main(argv) == code
    assert text in getattr(capsys.readouterr(), stream)
    assert not out.exists()


def test_one_process_runs_a_bad_flag_then_help_then_a_command(tmp_path, capsys):
    # main builds its parser once per process and reuses it
    assert _build_parser() is _build_parser()
    data = tmp_path / "in.csv"
    _write_dataset_csv(data)
    argv = ["curate", "--in", str(data), "--out", str(tmp_path / "out.csv"), "--ratio", "0.5"]
    assert main(argv + ["--bogus"]) == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: skewtrain")
    assert main(argv) == 0
    assert (tmp_path / "out.csv").exists()


def test_sweep_bad_baseline_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s"),
                 "--axis", "r_test", "--values", "1.0,0.5", "--baseline", "x"])
    assert code == 2
    assert "r_test value 'x': could not convert string to float: 'x'" in capsys.readouterr().err


def test_sweep_r_test_command(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--axis", "r_test", "--values", "1,0.5", "--baseline", "0.5"])
    assert code == 0
    assert "baseline 0.5" in capsys.readouterr().out
    doc = json.loads((out / "sweep_r_test.json").read_text())
    assert doc["values"] == [1.0, 0.5] and doc["baseline"] == 0.5
    assert doc["rows"][1]["percent_improvement"] == 0.0


def test_sweep_improvement_mode_flag(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(cfg), "--out", str(out), "--axis", "r_test",
                 "--values", "1,0.1", "--improvement-mode", "paper_a1"])
    assert code == 0
    assert "baseline 1.0 (paper_a1)" in capsys.readouterr().out
    doc = json.loads((out / "sweep_r_test.json").read_text())
    assert doc["improvement_mode"] == "paper_a1"
    base, other = (row["aggregates"]["overall"]["mean"] for row in doc["rows"])
    assert base != other
    # paper_a1 normalizes by the candidate, not by the baseline
    assert [row["percent_improvement"] for row in doc["rows"]] == [0.0, (other - base) / other]


def test_sweep_n_majority_command(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", dict(TINY_CONFIG, n_minority=5))
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--axis", "n_majority", "--values", "10,25"])
    assert code == 0
    doc = json.loads((out / "sweep_n_majority.json").read_text())
    assert doc["values"] == [10, 25] and doc["baseline"] == 10
    configs = [json.loads(p.read_text())["config"] for p in out.glob("*/aggregate.json")]
    assert sorted(c["majority_size"] for c in configs) == [10, 25]


# ---------------------------------------------------------------------------
# boundary
# ---------------------------------------------------------------------------


def test_boundary_command(tmp_path, capsys):
    ckpt = _train_checkpoint(tmp_path)
    capsys.readouterr()
    out = tmp_path / "grid.csv"
    # the = form keeps argparse from reading the leading dash as a flag
    code = main(["boundary", "--checkpoint", str(ckpt), "--resolution", "5",
                 "--bounds=-4,4,-4,4", "--out", str(out)])
    assert code == 0
    assert "5x5 grid" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x0", "x1", "pred_label", "max_prob"]
    assert len(rows) == 1 + 25


def test_boundary_raw_flag_changes_grid(tmp_path):
    # raw and EMA weights generally disagree after two epochs
    ckpt = _train_checkpoint(tmp_path)
    a = tmp_path / "ema.csv"
    b = tmp_path / "raw.csv"
    assert main(["boundary", "--checkpoint", str(ckpt), "--resolution", "4",
                 "--out", str(a)]) == 0
    assert main(["boundary", "--checkpoint", str(ckpt), "--resolution", "4",
                 "--raw", "--out", str(b)]) == 0
    assert a.read_text() != b.read_text()


def test_boundary_bad_bounds(tmp_path, capsys):
    ckpt = _train_checkpoint(tmp_path)
    out = tmp_path / "g.csv"
    for bounds, message in [("1,2,3", "--bounds"), ("-inf,inf,0,1", "non-finite bounds"),
                            ("0,inf,0,1", "non-finite bounds"),
                            # finite ends, but x_max - x_min overflows
                            ("-1e308,1e308,-1e308,1e308",
                             "--bounds '-1e308,1e308,-1e308,1e308': degenerate or non-finite")]:
        # the = form keeps argparse from reading the leading dash as a flag
        code = main(["boundary", "--checkpoint", str(ckpt), f"--bounds={bounds}",
                     "--out", str(out)])
        assert code == 2, bounds
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_boundary_whose_forward_overflows_exits_3(tmp_path, capsys):
    # weights of ones: the corner (8e307, 8e307) gives 1.6e308 in layer 0,
    # whose four units overflow layer 1
    ckpt = _stack_checkpoint(tmp_path / "ckpt.json", [2, 4, 3], [2, 4, 3])
    out = tmp_path / "g.csv"
    capsys.readouterr()
    code = main(["boundary", "--checkpoint", str(ckpt), "--resolution", "3",
                 "--bounds=-8e307,8e307,-8e307,8e307", "--out", str(out)])
    assert code == 3
    assert capsys.readouterr() == ("", "numerical failure: non-finite pre-activation in layer 1 "
                                       "of a [2, 4, 3] stack\n")
    assert list(tmp_path.iterdir()) == [ckpt]


def test_boundary_that_cannot_allocate_exits_2(tmp_path, capsys):
    # 10**12 grid coordinates are 7.28 TiB, refused at once. Smaller sizes
    # are not safe to test: at 10**8 linspace fills about 2 GB first.
    ckpt = tmp_path / "ckpt.json"
    _untrained_checkpoint(ckpt)
    out = tmp_path / "g.csv"
    code = main(["boundary", "--checkpoint", str(ckpt), "--resolution", str(10**12), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: boundary needs more memory than it can allocate")
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert sorted(tmp_path.iterdir()) == [ckpt]


def test_boundary_rejects_non_planar_model(tmp_path, capsys):
    ckpt = tmp_path / "ckpt.json"
    named = {
        "mlp.w0": np.zeros((3, 2)), "mlp.b0": np.zeros(2),
        "ema.mlp.w0": np.zeros((3, 2)), "ema.mlp.b0": np.zeros(2),
    }
    save_checkpoint(ckpt, named, {"mlp_sizes": [3, 2]})
    code = main(["boundary", "--checkpoint", str(ckpt), "--out", str(tmp_path / "g.csv")])
    assert code == 2
    assert "2-d input" in capsys.readouterr().err


def _stack_checkpoint(path, tensor_sizes, mlp_sizes):
    """Raw and EMA tensors for tensor_sizes, labelled in the metadata as mlp_sizes."""
    named = {}
    for i, (fan_in, fan_out) in enumerate(zip(tensor_sizes[:-1], tensor_sizes[1:])):
        for prefix in ("mlp", "ema.mlp"):
            named[f"{prefix}.w{i}"] = np.ones((fan_in, fan_out))
            named[f"{prefix}.b{i}"] = np.zeros(fan_out)
    save_checkpoint(path, named, {"mlp_sizes": mlp_sizes})
    return path


def test_boundary_checkpoint_missing_tensor(tmp_path, capsys):
    ckpt = _stack_checkpoint(tmp_path / "ckpt.json", [2, 5, 3], [2, 5, 3, 3])
    code = main(["boundary", "--checkpoint", str(ckpt), "--out", str(tmp_path / "g.csv")])
    assert code == 2
    assert "missing tensor mlp.w2" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


def test_boundary_checkpoint_without_tensors(tmp_path, capsys):
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps({"format_version": 1, "meta": {"mlp_sizes": [2, 3]}}))
    code = main(["boundary", "--checkpoint", str(ckpt), "--out", str(tmp_path / "g.csv")])
    assert code == 2
    assert "tensors" in capsys.readouterr().err


def test_boundary_checkpoint_shape_mismatch(tmp_path, capsys):
    ckpt = _stack_checkpoint(tmp_path / "ckpt.json", [2, 4, 3], [2, 5, 3])
    code = main(["boundary", "--checkpoint", str(ckpt), "--out", str(tmp_path / "g.csv")])
    assert code == 2
    assert "mlp.w0 has shape (2, 4)" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


@pytest.mark.parametrize("sizes", [5, None, [], [2, "3"], [2, 0], [2.0, 3], [2, True]],
                         ids=["int", "missing", "empty", "str", "zero", "float", "bool"])
def test_boundary_malformed_mlp_sizes(tmp_path, capsys, sizes):
    ckpt = _stack_checkpoint(tmp_path / "ckpt.json", [2, 3], sizes)
    code = main(["boundary", "--checkpoint", str(ckpt), "--out", str(tmp_path / "g.csv")])
    assert code == 2
    assert "mlp_sizes must be a list of positive ints" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


# ---------------------------------------------------------------------------
# collapse
# ---------------------------------------------------------------------------


def test_collapse_command_stdout(tmp_path, capsys):
    ckpt = _train_checkpoint(tmp_path)
    data = tmp_path / "eval.csv"
    _write_dataset_csv(data)
    capsys.readouterr()
    code = main(["collapse", "--checkpoint", str(ckpt), "--data", str(data)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert "mean_cdnv" in doc and "ncc_agreement" in doc
    assert len(doc["cdnv_pairs"]) == 3


def test_collapse_command_file(tmp_path, capsys):
    ckpt = _train_checkpoint(tmp_path)
    data = tmp_path / "eval.csv"
    _write_dataset_csv(data)
    out = tmp_path / "collapse.json"
    code = main(["collapse", "--checkpoint", str(ckpt), "--data", str(data),
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert 0.0 <= doc["ncc_agreement"] <= 1.0


@pytest.mark.parametrize("classes", [1, 5])
def test_collapse_refuses_a_class_count_the_checkpoint_cannot_measure(tmp_path, capsys, classes):
    # one class has no CDNV pair; five are more than the 3 outputs can predict
    ckpt = _untrained_checkpoint(tmp_path / "ckpt.json")
    data = tmp_path / "eval.csv"
    if classes == 1:
        save_csv(data, Dataset(np.ones((4, 2)), np.zeros(4, dtype=int), ["a"]))
    else:
        _write_dataset_csv(data, classes=classes)
    out = tmp_path / "collapse.json"
    message = (f"config error: {data} has {classes} classes; collapse needs at least 2 and at "
               "most the checkpoint's 3 outputs\n")
    for extra in ([], ["--out", str(out)]):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["collapse", "--checkpoint", str(ckpt), "--data", str(data)] + extra)
        assert code == 2
        assert capsys.readouterr() == ("", message)
        assert not out.exists()


def test_collapse_whose_forward_overflows_exits_3(tmp_path, capsys):
    # weights of ones: two inputs of 1e308 overflow layer 0
    ckpt = _stack_checkpoint(tmp_path / "ckpt.json", [2, 4, 3], [2, 4, 3])
    data = tmp_path / "eval.csv"
    save_csv(data, Dataset(np.full((6, 2), 1e308), np.repeat([0, 1, 2], 2), ["a", "b", "c"]))
    out = tmp_path / "collapse.json"
    for extra in ([], ["--out", str(out)]):
        capsys.readouterr()
        code = main(["collapse", "--checkpoint", str(ckpt), "--data", str(data)] + extra)
        assert code == 3
        assert capsys.readouterr() == ("", "numerical failure: non-finite pre-activation in "
                                           "layer 0 of a [2, 4, 3] stack\n")
        assert not out.exists()


def test_train_whose_weights_overflow_after_the_last_step_exits_3(tmp_path, capsys):
    # 16 rows of 1e300: the one step is finite, the forward after it is not
    data = tmp_path / "huge.csv"
    save_csv(data, Dataset(np.full((16, 1), 1e300), np.repeat([0, 1], 8), ["a", "b"]))
    cfg = _write_config(tmp_path / "cfg.json", {
        "data": {"kind": "csv", "train_path": str(data), "test_path": str(data)},
        "train": {"lr0": 0.1, "epochs": 1, "warmup_epochs": 0},
        "hidden": [1],
        "seeds": [1],
    })
    out = tmp_path / "results"
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: training diverged at epoch 0, predicting the train split (seed 1): ")
    assert not out.exists() or not any(p.is_file() for p in out.rglob("*"))


# ---------------------------------------------------------------------------
# Exit-code contract
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["curate_in_dir", "train_config_dir", "collapse_checkpoint_dir",
                                     "train_out_under_file"])
def test_unusable_paths_exit_2(tmp_path, capsys, command):
    cfg = _write_config(tmp_path / "cfg.json")
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "a_file").write_text("")
    argv = {
        "curate_in_dir": ["curate", "--in", str(tmp_path / "a_dir"), "--out", str(tmp_path / "o.csv"),
                          "--ratio", "0.5"],
        "train_config_dir": ["train", "--config", str(tmp_path / "a_dir"), "--out", str(tmp_path / "r")],
        "collapse_checkpoint_dir": ["collapse", "--checkpoint", str(tmp_path / "a_dir"),
                                    "--data", str(tmp_path / "a_file")],
        "train_out_under_file": ["train", "--config", str(cfg), "--out", str(tmp_path / "a_file" / "sub")],
    }[command]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["curate", "collapse", "train"])
def test_a_cell_over_the_csv_field_size_limit_exits_2(tmp_path, capsys, command):
    src = tmp_path / "big.csv"
    src.write_text(f"f0,f1,label\n1.0,2.0,a\n{'1' * (csv.field_size_limit() + 1)},2.0,b\n")
    cfg = _write_config(tmp_path / "cfg.json",
                        dict(TINY_CONFIG, data={"kind": "csv", "train_path": str(src)}))
    argv = {
        "curate": ["curate", "--in", str(src), "--out", str(tmp_path / "o.csv"), "--ratio", "0.5"],
        "collapse": ["collapse", "--checkpoint", str(_untrained_checkpoint(tmp_path / "c.json")),
                     "--data", str(src)],
        "train": ["train", "--config", str(cfg), "--out", str(tmp_path / "r")],
    }[command]
    assert main(argv) == 2
    assert f"config error: {src}:3: field larger than field limit" in capsys.readouterr().err


def test_deeply_nested_config_value_is_shortened(tmp_path, capsys):
    # the message names the field in full but prints only the top of the value
    doc = dict(TINY_CONFIG, hidden=json.loads("[" * 950 + "]" * 950))
    cfg = _write_config(tmp_path / "cfg.json", doc)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err.strip()
    assert "hidden: expected a list of ints, got [[[[" in err
    assert len(err) < 200
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("sizes, field", [
    (json.loads("[" * 950 + "]" * 950), "mlp_sizes must be a list of positive ints"),
    ([2, 5] + [3] * 5000, "missing tensor mlp.w2 for layer sizes [2, 5, 3, 3, 3, 3, ...]"),
], ids=["nested", "long"])
def test_huge_checkpoint_sizes_are_shortened(tmp_path, capsys, sizes, field):
    ckpt = _stack_checkpoint(tmp_path / "ckpt.json", [2, 5, 3], sizes)
    code = main(["boundary", "--checkpoint", str(ckpt), "--out", str(tmp_path / "g.csv")])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert field in err
    assert len(err) < 200 + len(str(ckpt))


@pytest.mark.parametrize("command", ["train_config", "boundary_checkpoint"])
def test_json_nested_past_the_recursion_limit_exits_2(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text('{"meta": ' + "[" * 100_000 + "]" * 100_000 + "}")
    argv = {
        "train_config": ["train", "--config", str(path), "--out", str(tmp_path / "r")],
        "boundary_checkpoint": ["boundary", "--checkpoint", str(path),
                                "--out", str(tmp_path / "g.csv")],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"config error: {path}: invalid JSON (maximum recursion depth exceeded" in err


def _config_nodes(doc, path=()):
    """(path, value) of every object and leaf below the top level of a config document."""
    for key, value in doc.items():
        yield path + (key,), value
        if isinstance(value, dict):
            yield from _config_nodes(value, path + (key,))


_NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
_TEXT = st.text(max_size=3)
_LISTS = st.lists(st.integers(), max_size=2)
# Values of the wrong kind for a field whose valid value has this Python type.
# A None default stands for an optional field of any kind.
_WRONG_KIND = {
    dict: st.one_of(st.none(), st.integers(), _TEXT, _LISTS),
    bool: st.one_of(st.none(), st.integers(), st.floats(), _TEXT),
    int: st.one_of(st.none(), st.booleans(), st.floats(), _TEXT, _LISTS),
    float: st.one_of(st.none(), st.booleans(), _NON_FINITE, _TEXT, _LISTS),
    str: st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _LISTS),
    list: st.one_of(
        st.none(), st.integers(), _TEXT,
        st.lists(st.one_of(st.booleans(), st.floats(), _TEXT, st.none()), min_size=1, max_size=2),
    ),
    type(None): st.one_of(_NON_FINITE, st.just({"a": 1}), st.just([["a"]])),
}
_FULL_TINY = harness.config_to_dict(harness.config_from_dict(TINY_CONFIG))
_NODES = list(_config_nodes(_FULL_TINY))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_a_malformed_config_value_exits_2_and_writes_nothing(data):
    path, valid = data.draw(st.sampled_from(_NODES), label="node")
    bad = data.draw(_WRONG_KIND[type(valid)], label="value")
    doc = copy.deepcopy(_FULL_TINY)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = bad
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = Path(tmp) / "results"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()


def _checkpoint_doc():
    with tempfile.TemporaryDirectory() as tmp:
        return json.loads(_untrained_checkpoint(Path(tmp) / "ckpt.json").read_text())


_CHECKPOINT = _checkpoint_doc()
_TENSOR_NAMES = [entry["name"] for entry in _CHECKPOINT["tensors"]]
_CHECKPOINT_LEAVES = ["value", "shape", "name", "mlp_sizes"]
_NUMERIC_TEXT = st.sampled_from(["1.5", " 2e0 ", "0", "-inf"])


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_a_corrupt_checkpoint_leaf_exits_0_or_2(data):
    # Replace one leaf of a valid checkpoint; the commands that read
    # checkpoints must fail as config errors (exit 2, no output) or
    # succeed, and a non-finite value must never load.
    leaf = data.draw(st.sampled_from(_CHECKPOINT_LEAVES), label="leaf")
    doc = copy.deepcopy(_CHECKPOINT)
    entry = doc["tensors"][data.draw(st.integers(0, len(_TENSOR_NAMES) - 1), label="tensor")]
    if leaf == "value":
        i = data.draw(st.integers(0, len(entry["values"]) - 1), label="index")
        entry["values"][i] = data.draw(
            st.one_of(_NON_FINITE, _TEXT, _LISTS, _NUMERIC_TEXT, st.booleans()), label="value")
    elif leaf == "shape":
        entry["shape"] = data.draw(
            st.one_of(st.lists(st.integers(-2, 12), max_size=3), _TEXT, st.none()), label="shape")
    elif leaf == "name":
        entry["name"] = data.draw(
            st.one_of(st.sampled_from(_TENSOR_NAMES), _TEXT, st.integers(), st.none()), label="name")
    else:
        doc["meta"]["mlp_sizes"] = data.draw(
            st.sampled_from([True, 0, [2, True, 3], [2, 0, 3], [2, 4], [2, 4, 4, 3]]), label="sizes")
    command = data.draw(st.sampled_from(["boundary", "boundary_raw", "collapse"]), label="command")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ckpt = tmp / "ckpt.json"
        ckpt.write_text(json.dumps(doc))
        _write_dataset_csv(tmp / "eval.csv", per_class=5)
        out = tmp / "out"
        argv = {
            "boundary": ["boundary", "--resolution", "3"],
            "boundary_raw": ["boundary", "--resolution", "3", "--raw"],
            "collapse": ["collapse", "--data", str(tmp / "eval.csv")],
        }[command] + ["--checkpoint", str(ckpt), "--out", str(out)]
        code = main(argv)
        assert code in (0, 2)
        assert out.exists() == (code == 0)
        if leaf == "value":
            # every drawn value is non-finite or not a JSON number
            assert code == 2


_CELL_TEXT = st.one_of(
    st.sampled_from(["", "nan", "NaN", "inf", "-Infinity", "1e400", "abc", " 1.5 ", "1_0", "0x1"]),
    st.text(max_size=3),
)
_CSV_COMMANDS = ["curate", "collapse", "train"]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_a_mutated_csv_exits_0_2_or_3(data):
    # Change one row of a small valid CSV: one cell (a non-number, NaN,
    # an empty field, a new label, ...), an extra field or a missing one.
    # Every command that reads it returns an exit code, never raises, and
    # writes nothing when it reports a config error.
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        clean = tmp / "clean.csv"
        _write_dataset_csv(clean, classes=3, per_class=8)
        with open(clean, newline="") as fh:
            rows = list(csv.reader(fh))
        row = rows[data.draw(st.integers(0, len(rows) - 1), label="row")]
        change = data.draw(st.sampled_from(["cell", "extra", "missing"]), label="change")
        if change == "cell":
            row[data.draw(st.integers(0, len(row) - 1), label="column")] = data.draw(
                _CELL_TEXT, label="text")
        elif change == "extra":
            row.append(data.draw(_CELL_TEXT, label="text"))
        else:
            row.pop()
        path = tmp / "data.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        command = data.draw(st.sampled_from(_CSV_COMMANDS), label="command")
        out = tmp / "out"
        if command == "curate":
            argv = ["curate", "--in", str(path), "--out", str(out), "--ratio", "0.5"]
        elif command == "collapse":
            ckpt = _untrained_checkpoint(tmp / "ckpt.json")
            argv = ["collapse", "--checkpoint", str(ckpt), "--data", str(path), "--out", str(out)]
        else:
            cfg = _write_config(tmp / "cfg.json", dict(
                TINY_CONFIG, data={"kind": "csv", "train_path": str(path), "test_frac": 0.25}))
            argv = ["train", "--config", str(cfg), "--out", str(out)]
        code = main(argv)
        assert code in (0, 2, 3)
        if code == 2:
            assert not out.exists()


_SWEEP_VALUES = {
    "batch_size": ["8", "16"],
    "r_train": ["0.5", "1.0"],
    "r_test": ["1.0", "0.5"],
    "n_majority": ["10", "20"],
    "method": ["erm", "focal"],
}
_VALUE_TEXT = st.one_of(
    st.sampled_from(["", "0", "-1", "2.5", "nan", "inf", "1e400", "true", "None", "erm", " 8 "]),
    st.text(max_size=3),
)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_a_mutated_sweep_value_exits_0_2_or_3(data):
    axis = data.draw(st.sampled_from(sorted(_SWEEP_VALUES)), label="axis")
    values = list(_SWEEP_VALUES[axis])
    values[data.draw(st.integers(0, len(values) - 1), label="index")] = data.draw(
        _VALUE_TEXT, label="value")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = _write_config(tmp / "cfg.json", dict(
            TINY_CONFIG, n_minority=5,
            train={**TINY_CONFIG["train"], "epochs": 1, "warmup_epochs": 0}))
        out = tmp / "sweep"
        # --values=... so that a leading "-1" is not read as a flag
        code = main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--axis", axis, "--values=" + ",".join(values)])
        assert code in (0, 2, 3)
        if code == 2:
            assert not out.exists()
