import csv
import json
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from skewtrain.data import ClassProfile
from skewtrain.diagnostics import (
    _sq_distances,
    boundary_grid,
    collapse_report,
    jsonify,
    metrics_report,
    minority_majority_split,
    minority_margin,
)
from skewtrain.models import named_to_mlp


def _linear_model(w, b):
    """Two-input linear classifier with hand-set weights."""
    return named_to_mlp({"mlp.w0": np.asarray(w, dtype=np.float64),
                         "mlp.b0": np.asarray(b, dtype=np.float64)},
                        [2, len(b)])


def _brute_class_stats(features, labels, c):
    members = [features[i] for i in range(len(labels)) if labels[i] == c]
    mu = sum(members) / len(members)
    var = sum(float(((m - mu) ** 2).sum()) for m in members) / len(members)
    return mu, var


def _brute_cdnv(features, labels, a, b):
    (mu_a, var_a), (mu_b, var_b) = (_brute_class_stats(features, labels, c) for c in (a, b))
    return (var_a + var_b) / (2 * float(((mu_a - mu_b) ** 2).sum()))


def _brute_ncc(features, labels, k):
    """Nearest-class-mean predictions row by row over classes 0..k-1, ties to the lowest id."""
    means = [_brute_class_stats(features, labels, c)[0] for c in range(k)]
    preds = []
    for row in features:
        dists = [float(((row - mu) ** 2).sum()) for mu in means]
        preds.append(dists.index(min(dists)))
    return np.array(preds)


def _profile(labels):
    """The eval labels' own class counts, so every class of the profile has samples."""
    return ClassProfile(np.bincount(labels))


# ---------------------------------------------------------------------------
# Group split
# ---------------------------------------------------------------------------


def test_minority_majority_split_five_classes():
    # ceil(0.2 * 5) = 1 class per group
    profile = ClassProfile(np.array([200, 150, 50, 20, 10]))
    minority, majority = minority_majority_split(profile)
    assert minority == [4]
    assert majority == [0]


def test_minority_majority_split_tie_breaks_by_id():
    profile = ClassProfile(np.array([10, 5, 5, 10]))
    minority, majority = minority_majority_split(profile)
    assert minority == [1]
    assert majority == [0]


def test_minority_majority_split_group_size():
    # ceil(0.2 * 7) = 2
    profile = ClassProfile(np.arange(1, 8) * 10)
    minority, majority = minority_majority_split(profile)
    assert minority == [0, 1]
    assert majority == [5, 6]


# ---------------------------------------------------------------------------
# Metrics report
# ---------------------------------------------------------------------------


def test_metrics_report_hand_case():
    profile = ClassProfile(np.array([200, 150, 50, 20, 10]))
    labels = np.array([0, 0, 0, 0, 1, 1, 2, 2, 3, 4])
    preds = np.array([0, 0, 0, 1, 1, 1, 2, 0, 0, 4])
    rep = metrics_report(preds, labels, profile)
    # Manually calculated: 7 of 10 correct overall
    assert rep.overall == 0.7
    npt.assert_allclose(rep.per_class, [0.75, 1.0, 0.5, 0.0, 1.0])
    assert rep.minority == 1.0 and rep.minority_classes == [4]
    assert rep.majority == 0.75 and rep.majority_classes == [0]
    # shot groups by training counts: few={4}, medium={2,3}, many={0,1}
    assert rep.few == 1.0
    assert abs(rep.medium - 1 / 3) < 1e-15
    assert abs(rep.many - 5 / 6) < 1e-15


def test_metrics_report_absent_class_is_nan():
    profile = ClassProfile(np.array([100, 10, 5]))
    labels = np.array([0, 0, 1])
    preds = np.array([0, 1, 1])
    rep = metrics_report(preds, labels, profile)
    assert math.isnan(rep.per_class[2])
    # minority group is {2}, absent from the eval split
    assert math.isnan(rep.minority)
    assert rep.few == 1.0  # few = {1, 2}, only class 1 present


def test_metrics_report_group_weighting():
    # group accuracy pools samples, it is not a mean of per-class rates
    profile = ClassProfile(np.array([5, 5, 500, 500, 500, 500]))
    labels = np.array([0, 1, 1, 1])
    preds = np.array([1, 1, 1, 0])
    rep = metrics_report(preds, labels, profile)
    # ceil(0.2 * 6) = 2, so minority = {0, 1}: 2 of 4 pooled correct,
    # not the per-class mean (0 + 2/3) / 2
    assert rep.minority_classes == [0, 1]
    assert rep.minority == 0.5


def test_metrics_report_validation():
    profile = ClassProfile(np.array([5, 5]))
    with pytest.raises(ValueError, match="matching vectors"):
        metrics_report(np.array([0, 1]), np.array([0]), profile)
    with pytest.raises(ValueError, match="empty"):
        metrics_report(np.array([], dtype=int), np.array([], dtype=int), profile)
    with pytest.raises(ValueError, match="outside"):
        metrics_report(np.array([0]), np.array([2]), profile)


# ---------------------------------------------------------------------------
# CDNV, through collapse_report
# ---------------------------------------------------------------------------


def test_cdnv_hand_case():
    # classes at x=0 and x=3, each with within-class variance 1 and
    # mean distance 3: (1 + 1) / (2 * 9) = 1/9
    features = np.array([[0.0, 0.0], [0.0, 2.0], [3.0, 0.0], [3.0, 2.0]])
    labels = np.array([0, 0, 1, 1])
    rep = collapse_report(features, labels, labels, _profile(labels))
    assert abs(rep.cdnv_pairs[0, 1] - 1 / 9) < 1e-12


def test_cdnv_does_not_depend_on_class_order():
    # swapping the two classes' ids swaps nothing in their pair's value
    rng = np.random.default_rng(5)
    features = rng.normal(size=(20, 3))
    labels = np.concatenate([[0, 1], rng.integers(0, 2, size=18)])
    rep = collapse_report(features, labels, labels, _profile(labels))
    swapped = collapse_report(features, 1 - labels, labels, _profile(1 - labels))
    assert rep.cdnv_pairs[0, 1] == rep.cdnv_pairs[1, 0] == swapped.cdnv_pairs[0, 1]


def test_cdnv_against_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(6, 60))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(2, 5))
        features = rng.normal(size=(n, d)) * 3
        labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
        rep = collapse_report(features, labels, labels, _profile(labels))
        for a in range(k):
            for b in range(a + 1, k):
                expected = _brute_cdnv(features, labels, a, b)
                assert abs(rep.cdnv_pairs[a, b] - expected) < 1e-10 * max(1.0, expected)


def test_collapse_report_needs_samples_of_every_class():
    # the profile has three classes and the features none of class 2
    features = np.array([[0.0], [1.0], [5.0], [6.0]])
    labels = np.array([0, 0, 1, 1])
    with pytest.raises(ValueError, match="class 2 has no samples"):
        collapse_report(features, labels, labels, ClassProfile(np.array([50, 20, 10])))


# ---------------------------------------------------------------------------
# Nearest class mean, through collapse_report
# ---------------------------------------------------------------------------


def test_ncc_against_brute_force():
    # agreement 1.0 with the row-by-row predictions is equality, row by row
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(6, 80))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(2, 5))
        features = rng.normal(size=(n, d)) * 2
        labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
        brute = _brute_ncc(features, labels, k)
        rep = collapse_report(features, labels, brute, _profile(labels))
        assert rep.ncc_agreement == 1.0
        assert rep.ncc_accuracy == float((brute == labels).mean())


def test_ncc_tie_goes_to_lowest_id():
    # class means land at 0 and 2; the sample at 1 is equidistant
    features = np.array([[-1.0], [1.0], [2.0], [2.0]])
    labels = np.array([0, 0, 1, 1])
    rep = collapse_report(features, labels, np.array([0, 0, 1, 1]), _profile(labels))
    assert rep.ncc_agreement == 1.0
    rep = collapse_report(features, labels, np.array([0, 1, 1, 1]), _profile(labels))
    assert rep.ncc_agreement == 0.75


def test_ncc_accuracy_hand_case():
    # class means 2 and 5.5: the class-0 row at 4 is nearer class 1's mean
    features = np.array([[0.0], [4.0], [5.0], [6.0]])
    labels = np.array([0, 0, 1, 1])
    rep = collapse_report(features, labels, np.array([0, 1, 1, 1]), _profile(labels))
    assert rep.ncc_agreement == 1.0 and rep.ncc_accuracy == 0.75


def test_ncc_validation():
    profile = ClassProfile(np.array([5]))
    with pytest.raises(ValueError, match="matching labels"):
        collapse_report(np.zeros((3, 2)), np.zeros(2, dtype=int), np.zeros(2, dtype=int), profile)
    with pytest.raises(ValueError, match="matching labels"):
        collapse_report(np.zeros(3), np.zeros(3, dtype=int), np.zeros(3, dtype=int), profile)
    with pytest.raises(ValueError, match="match label count"):
        collapse_report(np.zeros((3, 2)), np.zeros(3, dtype=int), np.zeros(2, dtype=int), profile)


def _features_with_ties(d):
    """Random rows of classes 0-3, then integer rows of classes 4-6 far away.

    Classes 4 and 5 have means m and m + 4 (every coordinate, m = 1000);
    the first row of class 6 sits at m + 2, exactly as far from both, and
    its other row keeps class 6's own mean far off. Returns (features,
    labels, index of the tied row).
    """
    rng = np.random.default_rng(d)
    random_rows = rng.normal(size=(120, d)) * 3
    tied = 1000.0 + np.array([[-1.0], [1.0], [3.0], [5.0], [2.0], [402.0]]) * np.ones(d)
    labels = np.concatenate([np.arange(120) % 4, [4, 4, 5, 5, 6, 6]])
    return np.concatenate([random_rows, tied]), labels, 124


def _layouts(features):
    """features as C-ordered, Fortran-ordered and column-strided arrays."""
    strided = np.empty((features.shape[0], 2 * features.shape[1]))
    strided[:, ::2] = features
    return {"C": np.ascontiguousarray(features), "F": np.asfortranarray(features),
            "strided": strided[:, ::2]}


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("d", [2, 7, 64, 300])
def test_per_class_distances_match_the_broadcast_bit_for_bit(layout, d):
    base, labels, tied_row = _features_with_ties(d)
    features = _layouts(base)[layout]
    present = np.unique(labels)
    means = [features[labels == c].mean(axis=0) for c in present]
    # the (n, K, d) broadcast that the nearest-mean predictions computed before
    broadcast = np.square(features[:, None, :] - np.stack(means)[None, :, :]).sum(axis=2)
    assert _sq_distances(features, means).tobytes() == np.ascontiguousarray(broadcast.T).tobytes()
    assert broadcast[tied_row, 4] == broadcast[tied_row, 5]

    expected = present[np.argmin(broadcast, axis=1)]
    assert expected[tied_row] == 4
    rep = collapse_report(features, labels, expected, _profile(labels))
    assert rep.ncc_agreement == 1.0
    assert rep.ncc_accuracy == float((expected == labels).mean())


def test_collapse_report_memory_is_linear_in_the_features():
    # The broadcast form held two (n, K, d) arrays, about 51 MB here.
    n, k, d = 2000, 50, 32
    rng = np.random.default_rng(3)
    labels = np.arange(n) % k
    features = rng.normal(size=(n, d)) + labels[:, None]
    profile = ClassProfile(np.bincount(labels))
    tracemalloc.start()
    try:
        collapse_report(features, labels, labels, profile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * d * 8


# ---------------------------------------------------------------------------
# Collapse report
# ---------------------------------------------------------------------------


def test_collapse_report_assembly():
    rng = np.random.default_rng(8)
    k = 4
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0]])
    labels = np.repeat(np.arange(k), 10)
    features = centers[labels] + rng.normal(size=(40, 2)) * 0.3
    profile = ClassProfile(np.array([100, 80, 60, 10]))
    model_preds = labels.copy()
    model_preds[::7] = (model_preds[::7] + 1) % k  # some disagreement
    rep = collapse_report(features, labels, model_preds, profile)

    assert rep.minority_classes == [3]
    assert np.all(np.isnan(np.diag(rep.cdnv_pairs)))
    npt.assert_array_equal(rep.cdnv_pairs, rep.cdnv_pairs.T)
    for a in range(k):
        for b in range(a + 1, k):
            assert abs(rep.cdnv_pairs[a, b] - _brute_cdnv(features, labels, a, b)) < 1e-12
    upper = [rep.cdnv_pairs[a, b] for a in range(k) for b in range(a + 1, k)]
    assert abs(rep.mean_cdnv - np.mean(upper)) < 1e-15
    touching = [rep.cdnv_pairs[a, 3] for a in range(3)]
    assert abs(rep.minority_mean_cdnv - np.mean(touching)) < 1e-15

    ncc_preds = _brute_ncc(features, labels, k)
    assert rep.ncc_agreement == float((ncc_preds == model_preds).mean())
    assert rep.ncc_accuracy == float((ncc_preds == labels).mean())
    mask = labels == 3
    assert rep.ncc_agreement_minority == float((ncc_preds[mask] == model_preds[mask]).mean())
    assert rep.ncc_accuracy_minority == float((ncc_preds[mask] == labels[mask]).mean())
    for v in (rep.ncc_agreement, rep.ncc_agreement_minority,
              rep.ncc_accuracy, rep.ncc_accuracy_minority):
        assert 0.0 <= v <= 1.0
    assert rep.mean_cdnv >= 0.0 and np.isfinite(rep.mean_cdnv)


def test_collapse_report_leaves_a_pair_with_coinciding_means_nan():
    # classes 0 and 1 share their mean, as dead units make them do; the
    # pair's CDNV divides by zero, and the report keeps it as NaN
    features = np.array([[0.0], [2.0], [1.0], [1.0], [5.0], [6.0]])
    labels = np.repeat([0, 1, 2], 2)
    rep = collapse_report(features, labels, labels, ClassProfile(np.array([50, 40, 10])))
    assert np.isnan(rep.cdnv_pairs[0, 1]) and np.isnan(rep.cdnv_pairs[1, 0])
    # (1 + 0.25) / (2 * 4.5^2) and (0 + 0.25) / (2 * 4.5^2): every operand is exact
    assert rep.cdnv_pairs[0, 2] == 1.25 / 40.5
    assert rep.cdnv_pairs[1, 2] == 0.25 / 40.5
    # the pair counts in mean_cdnv, but not among those touching minority class 2
    assert np.isnan(rep.mean_cdnv)
    assert rep.minority_mean_cdnv == (rep.cdnv_pairs[0, 2] + rep.cdnv_pairs[1, 2]) / 2
    # nearest-mean ties go to class 0, so class 1 is never predicted
    assert rep.ncc_agreement == 4 / 6


def test_collapse_report_rejects_labels_outside_the_profile():
    features = np.array([[0.0], [1.0], [5.0], [6.0], [9.0]])
    with pytest.raises(ValueError, match=r"labels outside \[0, 2\)"):
        collapse_report(features, np.array([0, 0, 1, 1, 2]), np.zeros(5, dtype=int),
                        ClassProfile(np.array([50, 10])))


def test_collapse_report_to_dict_roundtrips():
    rng = np.random.default_rng(9)
    features = np.concatenate([rng.normal(size=(5, 2)), rng.normal(size=(5, 2)) + 4])
    labels = np.repeat([0, 1], 5)
    rep = collapse_report(features, labels, labels, ClassProfile(np.array([50, 10])))
    d = jsonify(rep)
    assert d["minority_classes"] == [1]
    assert len(d["cdnv_pairs"]) == 2 and len(d["cdnv_pairs"][0]) == 2
    assert d["mean_cdnv"] == rep.mean_cdnv
    # the nan diagonal becomes null, so a strict encoder round-trips it
    assert d["cdnv_pairs"][0][0] is None and d["cdnv_pairs"][0][1] == rep.cdnv_pairs[0, 1]
    assert json.loads(json.dumps(d, allow_nan=False)) == d


# ---------------------------------------------------------------------------
# Boundary grid
# ---------------------------------------------------------------------------


def test_boundary_grid_vertical_split():
    # logits (x, -x): class 0 wherever x >= 0 (argmax takes the first
    # index on the exact tie at x = 0)
    model = _linear_model([[1.0, -1.0], [0.0, 0.0]], [0.0, 0.0])
    grid = boundary_grid(model, (-1, 1, -2, 2), 5)
    npt.assert_array_equal(grid.xs, [-1, -0.5, 0, 0.5, 1])
    npt.assert_array_equal(grid.ys, [-2, -1, 0, 1, 2])
    expected_rows = [1, 1, 0, 0, 0]
    for i in range(5):
        npt.assert_array_equal(grid.labels[i], np.full(5, expected_rows[i]))
    # confidence at x=1: sigmoid(2)
    assert abs(grid.max_prob[4, 0] - 1 / (1 + math.exp(-2))) < 1e-12


def test_boundary_grid_indexing_convention():
    # logits (y, -y): the label must vary with j (second index), which
    # pins labels[i, j] to the point (xs[i], ys[j])
    model = _linear_model([[0.0, 0.0], [1.0, -1.0]], [0.0, 0.0])
    grid = boundary_grid(model, (-1, 1, -1, 1), 4)
    for j in range(4):
        want = 0 if grid.ys[j] >= 0 else 1
        npt.assert_array_equal(grid.labels[:, j], np.full(4, want))


def test_boundary_grid_to_csv(tmp_path):
    model = _linear_model([[1.0, -1.0], [0.0, 0.0]], [0.0, 0.0])
    grid = boundary_grid(model, (-1, 1, -1, 1), 3)
    path = tmp_path / "grid.csv"
    grid.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x0", "x1", "pred_label", "max_prob"]
    assert len(rows) == 1 + 9
    assert [float(rows[1][0]), float(rows[1][1])] == [-1.0, -1.0]
    assert rows[1][2] == "1"


def test_boundary_grid_validation():
    model = _linear_model([[1.0, -1.0], [0.0, 0.0]], [0.0, 0.0])
    with pytest.raises(ValueError, match="d_in"):
        boundary_grid(named_to_mlp({"mlp.w0": np.zeros((3, 2)), "mlp.b0": np.zeros(2)},
                                   [3, 2]), (-1, 1, -1, 1), 3)
    with pytest.raises(ValueError, match="degenerate"):
        boundary_grid(model, (1, -1, -1, 1), 3)
    with pytest.raises(ValueError, match="resolution"):
        boundary_grid(model, (-1, 1, -1, 1), 1)
    # the last two have finite ends, but a span that overflows to inf
    for bounds in [(-np.inf, np.inf, 0, 1), (0, 1, 0, np.inf), (np.nan, 1, 0, 1),
                   (-1e308, 1e308, 0, 1), (0, 1, -1e308, 1e308)]:
        with pytest.raises(ValueError, match="non-finite bounds"):
            boundary_grid(model, bounds, 3)


# ---------------------------------------------------------------------------
# Margins
# ---------------------------------------------------------------------------


def test_minority_margin_vertical_boundary():
    # boundary at x=0, grid step 0.01: nearest differing cell from
    # (0.5, 0) sits at (-0.01, 0)
    model = _linear_model([[1.0, -1.0], [0.0, 0.0]], [0.0, 0.0])
    grid = boundary_grid(model, (-1, 1, -1, 1), 201)
    rep = minority_margin(grid, np.array([[0.5, 0.0], [0.25, -0.5]]))
    assert abs(rep.margins[0] - 0.51) < 1e-9
    assert abs(rep.margins[1] - 0.26) < 1e-9
    assert abs(rep.median - 0.385) < 1e-9
    assert not rep.lower_bound.any()


def test_minority_margin_single_label_falls_back_to_edge():
    model = _linear_model([[0.0, 0.0], [0.0, 0.0]], [1.0, 0.0])
    grid = boundary_grid(model, (-1, 1, -1, 1), 11)
    rep = minority_margin(grid, np.array([[0.3, 0.2]]))
    assert rep.lower_bound[0]
    assert abs(rep.margins[0] - 0.7) < 1e-12


def _margin_reference(grid, points):
    """minority_margin as it was: the differing cells selected again for every point."""
    x_min, x_max, y_min, y_max = grid.bounds
    r = grid.resolution
    step_x, step_y = (x_max - x_min) / (r - 1), (y_max - y_min) / (r - 1)
    cell_pts = np.column_stack([np.repeat(grid.xs, r), np.tile(grid.ys, r)])
    flat_labels = grid.labels.reshape(-1)
    margins, flagged = np.empty(points.shape[0]), np.zeros(points.shape[0], dtype=bool)
    for m, (px, py) in enumerate(points):
        i = int(np.clip(round((px - x_min) / step_x), 0, r - 1))
        j = int(np.clip(round((py - y_min) / step_y), 0, r - 1))
        differing = flat_labels != grid.labels[i, j]
        if not np.any(differing):
            margins[m] = max(0.0, min(px - x_min, x_max - px, py - y_min, y_max - py))
            flagged[m] = True
            continue
        margins[m] = math.sqrt(float(np.square(cell_pts[differing] - (px, py)).sum(axis=1).min()))
    return margins, flagged


def test_minority_margin_matches_the_per_point_selection_bit_for_bit():
    rng = np.random.default_rng(4)
    points = rng.uniform(-2.5, 2.5, size=(60, 2))
    three_way = _linear_model([[1.0, -1.0, 0.2], [0.3, 0.5, -1.0]], [0.0, 0.1, -0.2])
    one_label = _linear_model([[0.0, 0.0], [0.0, 0.0]], [1.0, 0.0])
    for model, labels_present in ((three_way, 3), (one_label, 1)):
        grid = boundary_grid(model, (-2, 2, -1.5, 2.5), 37)
        assert np.unique(grid.labels).size == labels_present
        rep = minority_margin(grid, points)
        margins, flagged = _margin_reference(grid, points)
        assert rep.margins.tobytes() == margins.tobytes()
        npt.assert_array_equal(rep.lower_bound, flagged)
        assert flagged.all() == (labels_present == 1)


def test_minority_margin_validation():
    model = _linear_model([[1.0, -1.0], [0.0, 0.0]], [0.0, 0.0])
    grid = boundary_grid(model, (-1, 1, -1, 1), 5)
    with pytest.raises(ValueError, match="\\(m, 2\\)"):
        minority_margin(grid, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="no points"):
        minority_margin(grid, np.zeros((0, 2)))


def test_minority_margin_point_outside_grid_clips():
    model = _linear_model([[1.0, -1.0], [0.0, 0.0]], [0.0, 0.0])
    grid = boundary_grid(model, (-1, 1, -1, 1), 21)
    # x=3 clips to the rightmost column (label 0); nearest differing
    # cell is at x=-0.1, same y
    rep = minority_margin(grid, np.array([[3.0, 0.0]]))
    assert abs(rep.margins[0] - 3.1) < 1e-9
