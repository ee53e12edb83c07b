"""The CSV writers keep their bytes.

BoundaryGrid.to_csv and save_csv format plain Python values in bulk.
The references below are the per-cell loops they replaced, which
formatted one numpy scalar at a time; both must write the same file.
"""

import csv

import numpy as np
import pytest

from skewtrain.data import Dataset, save_csv
from skewtrain.diagnostics import BoundaryGrid, boundary_grid
from skewtrain.models import atomic_write, mlp_init

ODD_BOUNDS = (-1.3, 2.7, -0.1, 0.35)
ODD_FEATURES = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1e16]
QUOTED_NAMES = ["a,b", 'say "hi"', " lead"]


def _reference_grid_csv(grid, path):
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["x0", "x1", "pred_label", "max_prob"])
        for i in range(grid.resolution):
            for j in range(grid.resolution):
                writer.writerow([
                    repr(float(grid.xs[i])),
                    repr(float(grid.ys[j])),
                    int(grid.labels[i, j]),
                    repr(float(grid.max_prob[i, j])),
                ])


def _reference_save_csv(path, dataset, label_col="label"):
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(dataset.d)] + [label_col])
        for x, label in zip(dataset.X, dataset.y):
            writer.writerow([repr(float(v)) for v in x] + [dataset.class_names[label]])


def _assert_same_bytes(tmp_path, write, reference):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write(got)
    reference(want)
    assert got.read_bytes() == want.read_bytes()


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
    grid = BoundaryGrid(
        bounds=ODD_BOUNDS,
        resolution=resolution,
        xs=np.linspace(x_min, x_max, resolution),
        ys=np.linspace(y_min, y_max, resolution),
        labels=rng.integers(0, 12, size=(resolution, resolution)),
        max_prob=probs,
    )
    _assert_same_bytes(tmp_path, grid.to_csv, lambda p: _reference_grid_csv(grid, p))


@pytest.mark.parametrize("d", [1, 3])
def test_save_csv_matches_the_per_cell_writer(tmp_path, d):
    rng = np.random.default_rng(d)
    X = rng.normal(size=(len(ODD_FEATURES) * 2, d))
    X[: len(ODD_FEATURES), 0] = ODD_FEATURES
    X[len(ODD_FEATURES):, -1] = [-v for v in ODD_FEATURES]
    y = np.arange(len(X)) % len(QUOTED_NAMES)
    ds = Dataset(X, y, list(QUOTED_NAMES))
    _assert_same_bytes(tmp_path, lambda p: save_csv(p, ds, label_col="the label"),
                       lambda p: _reference_save_csv(p, ds, label_col="the label"))
