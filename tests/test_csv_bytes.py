"""The CSV writers keep their bytes.

BoundaryGrid.to_csv and save_csv format their rows as text themselves
and write a grid row, or a block of data rows, with one call. save_csv
keeps csv.writer only for its header and to quote each class name once.
The references below are the writers they replaced, one csv.writer row
per line, from Python values; both must write the same file.
"""

import csv

import numpy as np
import pytest

from skewtrain import data
from skewtrain.data import Dataset, load_csv, save_csv
from skewtrain.diagnostics import BoundaryGrid, boundary_grid
from skewtrain.models import atomic_write, mlp_init

ODD_BOUNDS = (-1.3, 2.7, -0.1, 0.35)
ODD_FEATURES = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1e16]
# Names the csv writer quotes (a comma, a quote, a line break, an empty
# name) or leaves bare (a leading space, a non-ASCII letter).
ODD_NAMES = ["", "a,b", 'say "hi"', " lead", "two\nlines", "cr\r\nlf", "ü"]
QUOTED_LABEL_COL = 'the "label", quoted'


def _reference_grid_csv(grid, path):
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["x0", "x1", "pred_label", "max_prob"])
        for i in range(grid.resolution):
            for j in range(grid.resolution):
                writer.writerow([
                    float(grid.xs[i]),
                    float(grid.ys[j]),
                    int(grid.labels[i, j]),
                    float(grid.max_prob[i, j]),
                ])


def _reference_save_csv(path, dataset, label_col="label"):
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(dataset.d)] + [label_col])
        for x, label in zip(dataset.X, dataset.y):
            writer.writerow([float(v) for v in x] + [dataset.class_names[label]])


def _assert_same_bytes(tmp_path, write, reference):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write(got)
    reference(want)
    assert got.read_bytes() == want.read_bytes()


def _odd_dataset(d, names=ODD_NAMES):
    """Every name at least twice, and ODD_FEATURES in the first and last columns."""
    rng = np.random.default_rng(d)
    n = max(2 * len(names), 2 * len(ODD_FEATURES))
    X = rng.normal(size=(n, d))
    if d:
        X[: len(ODD_FEATURES), 0] = ODD_FEATURES
        X[n - len(ODD_FEATURES):, -1] = [-v for v in ODD_FEATURES]
    return Dataset(X, np.arange(n) % len(names), list(names))


@pytest.mark.parametrize("resolution", [2, 7])
def test_model_grid_matches_the_per_cell_writer(tmp_path, resolution):
    grid = boundary_grid(mlp_init([2, 5, 3], seed=resolution), ODD_BOUNDS, resolution)
    _assert_same_bytes(tmp_path, grid.to_csv, lambda p: _reference_grid_csv(grid, p))


@pytest.mark.parametrize("resolution", [2, 7])
def test_hand_built_grid_matches_the_per_cell_writer(tmp_path, resolution):
    rng = np.random.default_rng(resolution)
    x_min, x_max, y_min, y_max = ODD_BOUNDS
    probs = rng.random((resolution, resolution))
    probs.flat[:4] = [1.0, 1 / 3, 5e-324, 0.1][: probs.size]
    labels = rng.integers(0, 12, size=(resolution, resolution))
    labels.flat[:2] = [10, 11]
    grid = BoundaryGrid(
        bounds=ODD_BOUNDS,
        resolution=resolution,
        xs=np.linspace(x_min, x_max, resolution),
        ys=np.linspace(y_min, y_max, resolution),
        labels=labels,
        max_prob=probs,
    )
    _assert_same_bytes(tmp_path, grid.to_csv, lambda p: _reference_grid_csv(grid, p))


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_save_csv_matches_the_per_cell_writer(tmp_path, d):
    ds = _odd_dataset(d)
    for label_col in ("label", QUOTED_LABEL_COL):
        _assert_same_bytes(tmp_path, lambda p: save_csv(p, ds, label_col=label_col),
                           lambda p: _reference_save_csv(p, ds, label_col=label_col))


def test_save_csv_blocks_join_without_a_seam(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "BLOCK_ROWS", 3)
    ds = _odd_dataset(2)
    assert ds.n % 3 != 0 and ds.n > 3
    _assert_same_bytes(tmp_path, lambda p: save_csv(p, ds), lambda p: _reference_save_csv(p, ds))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_save_csv_round_trips_the_bytes_and_names(tmp_path, d):
    # load_csv sorts the names, so sorted names keep every label id
    ds = _odd_dataset(d, names=sorted(ODD_NAMES))
    path = tmp_path / "t.csv"
    for label_col in ("label", QUOTED_LABEL_COL):
        save_csv(path, ds, label_col=label_col)
        back = load_csv(path, label_col)
        assert back.class_names == ds.class_names
        assert back.X.tobytes() == ds.X.tobytes()
        assert back.y.tolist() == ds.y.tolist()
