"""Every file a tiny fixed corpus writes keeps its bytes.

The corpus runs in-process, in a fresh directory:

- the 13 method presets through run_all_seeds (joint_ssl at lr0 5e-4),
  and focal at gamma 0.5;
- a batch_size sweep, an n_majority sweep and an r_test sweep;
- a 2x2 ratio grid, and a 3x3 one over two seeds, whose train ratio
  0.32 ends each epoch with a one-row batch;
- CSV data with and without a test file;
- the CLI's curate, boundary, boundary --raw and collapse --out.

The SHA-256 of each written file is compared with tests/golden.json.
Float bytes depend on numpy, its BLAS and Python, so the manifest
records their versions and the test skips, naming the difference, on
another environment. After a change that is meant to alter outputs,
regenerate the manifest with

    PYTHONPATH=src python tests/test_golden.py

and name each changed file, with the reason, in CHANGES.md.
"""

import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from skewtrain import cli
from skewtrain.config import DataSpec, ExperimentConfig, TrainConfig, config_hash
from skewtrain.data import Dataset, gen_gaussian_mixture, save_csv
from skewtrain.harness import (
    METHOD_PRESETS,
    apply_method,
    derive_config,
    run_all_seeds,
    run_ratio_grid,
    run_sweep,
)

MANIFEST = Path(__file__).resolve().with_name("golden.json")

BASE = ExperimentConfig(
    data=DataSpec(classes=3, train_per_class=60, test_per_class=30, sigma=1.0),
    train=TrainConfig(lr0=0.05, epochs=4, warmup_epochs=1, batch_size=16),
    hidden=[8],
    r_train=0.2,
    n_minority=10,
    seeds=[0],
)
# Names the csv writer must quote, so the corpus covers its quoting.
CSV_CLASSES = ["a,b", 'say "hi"', "plain"]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
    }


def _preset_config(name):
    config = apply_method(BASE, name)
    if name != "joint_ssl":
        return config
    # VICReg diverges at lr0 0.05. A 10-wide projector output is a size at
    # which numpy's symmetric centered.T @ centered rounds differently from
    # a product with the transpose copied, which the VICReg step relies on.
    return derive_config(config, {"train": {"lr0": 5e-4}, "method": {"projector": [8, 32, 10]}})


def _csv_dataset(path, per_class, seed):
    data = gen_gaussian_mixture(3, per_class, seed=seed)
    save_csv(path, Dataset(data.X, data.y, list(CSV_CLASSES)))


def _cli(*argv):
    code = cli.main(list(argv))
    assert code == 0, f"skewtrain {' '.join(argv)} exited {code}"


def write_corpus() -> None:
    """Write every corpus file under the current directory, with relative paths only.

    Config hashes name the run directories, and a CSV config's hash
    includes its paths, so those stay relative.
    """
    for name in METHOD_PRESETS:
        run_all_seeds(_preset_config(name), out_dir="presets")
    run_all_seeds(derive_config(apply_method(BASE, "focal"), {"method": {"focal": {"gamma": 0.5}}}),
                  out_dir="focal")
    run_sweep(BASE, "batch_size", ["8", "16"], out_dir="sweep_batch")
    run_sweep(BASE, "n_majority", ["20", "40"], out_dir="sweep_majority")
    run_sweep(BASE, "r_test", ["1.0", "0.5"], out_dir="sweep_r_test")
    run_ratio_grid(BASE, [0.5, 1.0], [0.5, 1.0], out_dir="grid")
    ratios = [0.32, 0.5, 1.0]
    run_ratio_grid(derive_config(BASE, {"seeds": [0, 1]}), ratios, ratios, out_dir="grid_seeds")

    Path("data").mkdir()
    _csv_dataset("data/train.csv", 40, seed=1)
    _csv_dataset("data/test.csv", 20, seed=2)
    for name, test_path in (("csv_split", None), ("csv_test_file", "data/test.csv")):
        data = DataSpec(kind="csv", train_path="data/train.csv", test_path=test_path)
        run_all_seeds(derive_config(BASE, {"data": vars(data), "r_train": None}), out_dir=name)

    erm_dir = Path("presets") / config_hash(apply_method(BASE, "erm"))
    checkpoint = str(erm_dir / "checkpoint_seed_0.json")
    Path("cli").mkdir()
    _cli("curate", "--in", "data/train.csv", "--out", "cli/curated.csv", "--ratio", "0.3", "--seed", "1")
    _cli("boundary", "--checkpoint", checkpoint, "--resolution", "25", "--out", "cli/grid.csv")
    _cli("boundary", "--checkpoint", checkpoint, "--resolution", "25", "--raw", "--out", "cli/grid_raw.csv")
    _cli("collapse", "--checkpoint", checkpoint, "--data", "data/test.csv", "--out", "cli/collapse.json")


def digests(root: Path) -> dict[str, str]:
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_corpus_matches_the_manifest(tmp_path, monkeypatch, capsys):
    manifest = json.loads(MANIFEST.read_text())
    recorded = manifest["environment"]
    differ = [f"{k} {recorded.get(k)} here {v}" for k, v in environment().items() if recorded.get(k) != v]
    if differ:
        pytest.skip("golden digests were recorded on another environment: " + ", ".join(differ))
    monkeypatch.chdir(tmp_path)
    write_corpus()
    capsys.readouterr()
    got, want = digests(tmp_path), manifest["files"]
    problems = (
        [f"changed: {p}" for p in sorted(got.keys() & want.keys()) if got[p] != want[p]]
        + [f"missing: {p}" for p in sorted(want.keys() - got.keys())]
        + [f"unexpected: {p}" for p in sorted(got.keys() - want.keys())]
    )
    assert not problems, f"{len(problems)} of {len(want)} golden files differ:\n" + "\n".join(problems)


def test_corpus_covers_every_preset_and_file_writing_command():
    files = json.loads(MANIFEST.read_text())["files"]
    for name in METHOD_PRESETS:
        assert f"presets/{config_hash(_preset_config(name))}/checkpoint_seed_0.json" in files
    for path in ("cli/curated.csv", "cli/grid.csv", "cli/grid_raw.csv", "cli/collapse.json",
                 "sweep_batch/sweep_batch_size.csv", "sweep_majority/sweep_n_majority.csv",
                 "sweep_r_test/sweep_r_test.csv",
                 "grid/ratio_grid.json", "grid_seeds/ratio_grid.json", "data/train.csv"):
        assert path in files


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        write_corpus()
        doc = {"environment": environment(), "files": digests(Path(tmp))}
        os.chdir(MANIFEST.parent)
    MANIFEST.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {len(doc['files'])} digests to {MANIFEST}", file=sys.stderr)
