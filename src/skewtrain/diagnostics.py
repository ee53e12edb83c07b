"""Evaluation metrics, representation-collapse statistics, and
decision-boundary probes.

Group conventions, used everywhere a report says minority or majority:
the minority group is the ceil(0.2 * K) classes with the smallest
training counts (ties broken by class id, lower id first), the majority
group the ceil(0.2 * K) largest. Shot groups follow fixed training
count thresholds: few < 20, medium 20..100 inclusive, many > 100.

CDNV between two classes is (Var(S1) + Var(S2)) / (2 ||mu1 - mu2||^2)
with population variances (mean squared distance to the class mean);
values near zero indicate collapse of within-class variation. The
nearest-class-mean classifier assigns each sample to the class with the
closest feature mean, ties to the lowest class id.

jsonify is the package's one serializer: a report's JSON document is its
dataclass fields, and the harness writes every result file through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .data import ClassProfile
from .models import MLPParams, atomic_write, mlp_predict, row_max, row_sum

FEW_SHOT_MAX = 19
MANY_SHOT_MIN = 101


def jsonify(obj):
    """Make a document strictly JSON-serializable; NaN becomes null.

    A report's document is its fields: a dataclass becomes a dict of its
    fields in declaration order, and an array becomes nested lists.
    """
    if is_dataclass(obj):
        return {f.name: jsonify(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, np.ndarray):
        return jsonify(obj.tolist())
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, (np.floating,)):
        return jsonify(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    return obj


def minority_majority_split(profile: ClassProfile) -> tuple[list[int], list[int]]:
    """Class ids in the minority and majority groups."""
    k = profile.num_classes
    g = math.ceil(0.2 * k)
    by_small = sorted(range(k), key=lambda c: (profile.counts[c], c))
    by_large = sorted(range(k), key=lambda c: (-profile.counts[c], c))
    return sorted(by_small[:g]), sorted(by_large[:g])


@dataclass
class MetricsReport:
    overall: float
    per_class: list[float]  # nan for classes absent from the eval split
    minority: float
    majority: float
    few: float
    medium: float
    many: float
    minority_classes: list[int]
    majority_classes: list[int]


def _group_accuracy(correct: np.ndarray, labels: np.ndarray, classes) -> float:
    mask = np.isin(labels, list(classes))
    if not np.any(mask):
        return float("nan")
    return float(correct[mask].mean())


def metrics_report(predictions: np.ndarray, labels: np.ndarray, profile: ClassProfile) -> MetricsReport:
    """Accuracy broken down by class and by training-frequency group.

    Group accuracies are computed over the union of the group's eval
    samples, i.e. eval-count-weighted means of per-class accuracies, so
    overall accuracy is exactly the count-weighted mean over classes.
    """
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.shape != labels.shape or predictions.ndim != 1:
        raise ValueError("predictions and labels must be matching vectors")
    if labels.size == 0:
        raise ValueError("empty evaluation split")
    k = profile.num_classes
    if labels.max() >= k or labels.min() < 0:
        raise ValueError(f"labels outside [0, {k})")
    correct = (predictions == labels).astype(np.float64)
    per_class = [_group_accuracy(correct, labels, [c]) for c in range(k)]
    minority, majority = minority_majority_split(profile)
    counts = profile.counts
    few = [c for c in range(k) if counts[c] <= FEW_SHOT_MAX]
    many = [c for c in range(k) if counts[c] >= MANY_SHOT_MIN]
    med = [c for c in range(k) if FEW_SHOT_MAX < counts[c] < MANY_SHOT_MIN]
    return MetricsReport(
        overall=float(correct.mean()),
        per_class=per_class,
        minority=_group_accuracy(correct, labels, minority),
        majority=_group_accuracy(correct, labels, majority),
        few=_group_accuracy(correct, labels, few),
        medium=_group_accuracy(correct, labels, med),
        many=_group_accuracy(correct, labels, many),
        minority_classes=minority,
        majority_classes=majority,
    )


def _class_stats(features: np.ndarray, labels: np.ndarray, c: int):
    members = features[labels == c]
    if members.shape[0] == 0:
        raise ValueError(f"class {c} has no samples in the feature set")
    mu = members.mean(axis=0)
    var = float(np.square(members - mu).sum(axis=1).mean())
    return mu, var


def _sq_distances(features: np.ndarray, means) -> np.ndarray:
    """(K, n) squared distances from each of the K means to each row of features.

    One class at a time, so the working set is about 2·n·d floats plus
    the result, not an (n, K, d) difference. Each distance sums the same
    products in the same order as that broadcast form, whatever the
    layout of features, which is why it is not made contiguous first.
    """
    return np.stack([np.square(features - mu).sum(axis=1) for mu in means])


@dataclass
class CollapseReport:
    """CDNV and nearest-class-mean statistics over one feature set.

    ncc_agreement compares model and nearest-mean predictions;
    ncc_accuracy compares nearest-mean predictions with true labels.
    The *_minority variants restrict to minority-group samples, and
    minority_mean_cdnv averages class pairs touching the minority group.
    """

    cdnv_pairs: np.ndarray  # (K, K), nan on the diagonal
    mean_cdnv: float
    minority_mean_cdnv: float
    ncc_agreement: float
    ncc_agreement_minority: float
    ncc_accuracy: float
    ncc_accuracy_minority: float
    minority_classes: list[int]


def collapse_report(
    features: np.ndarray,
    labels: np.ndarray,
    model_predictions: np.ndarray,
    profile: ClassProfile,
) -> CollapseReport:
    """Pairwise CDNV matrix plus nearest-class-mean summaries.

    features is (n, d), labels and model_predictions are (n,), and every
    one of the profile's K classes needs samples. A pair whose class
    means coincide (dead units, say) stays NaN, as do the means over it.
    The nearest-mean candidates are the K classes, ties to the lowest id.
    Each class mean is computed once and serves both CDNV and the
    nearest-class-mean predictions, and memory is O(n·d): no step holds
    more than about two copies of the features.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    model_predictions = np.asarray(model_predictions, dtype=np.int64)
    if features.ndim != 2 or labels.shape != (features.shape[0],):
        raise ValueError("features must be (n, d) with matching labels")
    if model_predictions.shape != labels.shape:
        raise ValueError("model predictions must match label count")
    k = profile.num_classes
    if np.any((labels < 0) | (labels >= k)):
        raise ValueError(f"labels outside [0, {k})")
    stats = [_class_stats(features, labels, c) for c in range(k)]
    pairs = np.full((k, k), np.nan)
    for a in range(k):
        for b in range(a + 1, k):
            (mu_a, var_a), (mu_b, var_b) = stats[a], stats[b]
            dist_sq = float(np.square(mu_a - mu_b).sum())
            if dist_sq > 0.0:
                pairs[a, b] = pairs[b, a] = (var_a + var_b) / (2.0 * dist_sq)
    upper = [pairs[a, b] for a in range(k) for b in range(a + 1, k)]
    minority, _ = minority_majority_split(profile)
    minority_set = set(minority)
    touching = [
        pairs[a, b]
        for a in range(k)
        for b in range(a + 1, k)
        if a in minority_set or b in minority_set
    ]
    # argmin takes the first of equal distances: ties to the lowest class id
    ncc_predictions = np.argmin(_sq_distances(features, [mu for mu, _ in stats]), axis=0)
    correct_ncc = ncc_predictions == labels
    agree = ncc_predictions == model_predictions
    return CollapseReport(
        cdnv_pairs=pairs,
        mean_cdnv=float(np.mean(upper)),
        minority_mean_cdnv=float(np.mean(touching)) if touching else float("nan"),
        ncc_agreement=float(agree.mean()),
        ncc_agreement_minority=_group_accuracy(agree, labels, minority),
        ncc_accuracy=float(correct_ncc.mean()),
        ncc_accuracy_minority=_group_accuracy(correct_ncc, labels, minority),
        minority_classes=minority,
    )


@dataclass
class BoundaryGrid:
    """Predicted labels and confidences on a regular 2-d grid.

    labels[i, j] and max_prob[i, j] correspond to the point
    (xs[i], ys[j]); xs and ys are linspace endpoints inclusive.
    """

    bounds: tuple[float, float, float, float]  # x_min, x_max, y_min, y_max
    resolution: int
    xs: np.ndarray
    ys: np.ndarray
    labels: np.ndarray  # (R, R) int64
    max_prob: np.ndarray  # (R, R) float64

    def to_csv(self, path) -> None:
        """One row per cell, x0 outer: x0, x1, pred_label, max_prob.

        Each grid row's lines are formatted as one string and written at
        once: coordinates and probabilities as the repr of a Python
        float, labels as the str of a Python int, lines ended by
        "\r\n". A csv.writer with its default dialect writes the same
        bytes: it formats floats with repr and ints with str, and
        QUOTE_MINIMAL quotes neither, since neither holds a comma, a
        quote or a line break.
        """
        ys = [repr(y) for y in self.ys.tolist()]
        with atomic_write(path) as fh:
            fh.write("x0,x1,pred_label,max_prob\r\n")
            for x, labels, probs in zip(self.xs.tolist(), self.labels, self.max_prob):
                x = repr(x)
                fh.write("".join([
                    f"{x},{y},{label},{p!r}\r\n"
                    for y, label, p in zip(ys, labels.tolist(), probs.tolist())
                ]))


def check_bounds(bounds) -> tuple[float, float, float, float]:
    """(x_min, x_max, y_min, y_max) as floats, once each span is positive and finite.

    A finite span needs finite ends, and a span that overflows (1e308
    minus -1e308) would put NaN coordinates in the grid.
    """
    x_min, x_max, y_min, y_max = (float(v) for v in bounds)
    if not all(span > 0.0 and math.isfinite(span) for span in (x_max - x_min, y_max - y_min)):
        raise ValueError(f"degenerate or non-finite bounds {bounds}: x_max - x_min and "
                         "y_max - y_min must be positive and finite")
    return x_min, x_max, y_min, y_max


def _cell_points(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The grid's cells as (len(xs) * len(ys), 2) points, x outer: row i * len(ys) + j is cell (i, j)."""
    points = np.empty((xs.size, ys.size, 2))
    points[:, :, 0] = xs[:, None]
    points[:, :, 1] = ys
    return points.reshape(-1, 2)


def boundary_grid(
    params: MLPParams,
    bounds: tuple[float, float, float, float],
    resolution: int,
) -> BoundaryGrid:
    """Evaluate a 2-d-input model on a resolution x resolution grid."""
    if params.layer_sizes[0] != 2:
        raise ValueError(f"boundary grids need a 2-d input model, got d_in={params.layer_sizes[0]}")
    x_min, x_max, y_min, y_max = check_bounds(bounds)
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    xs = np.linspace(x_min, x_max, resolution)
    ys = np.linspace(y_min, y_max, resolution)
    labels, probs, _ = mlp_predict(params, _cell_points(xs, ys))
    return BoundaryGrid(
        bounds=(x_min, x_max, y_min, y_max),
        resolution=resolution,
        xs=xs,
        ys=ys,
        labels=labels.reshape(resolution, resolution),
        max_prob=row_max(probs).reshape(resolution, resolution),
    )


@dataclass
class MarginReport:
    margins: np.ndarray  # (m,) distance to the nearest differing-label cell
    median: float
    lower_bound: np.ndarray  # (m,) bool, True when no differing cell existed

    def to_dict(self) -> dict:
        return jsonify(self)


def minority_margin(grid: BoundaryGrid, points: np.ndarray) -> MarginReport:
    """Distance from each point to the nearest grid cell labeled
    differently from the point's own cell.

    A grid with a single label cannot witness a boundary; those margins
    fall back to the distance to the nearest grid edge and are flagged
    as lower bounds. Resolution limits accuracy to about one cell
    diagonal either way.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must be (m, 2), got {points.shape}")
    if points.shape[0] == 0:
        raise ValueError("no points given")
    x_min, x_max, y_min, y_max = grid.bounds
    r = grid.resolution
    step_x = (x_max - x_min) / (r - 1)
    step_y = (y_max - y_min) / (r - 1)
    cell_pts = _cell_points(grid.xs, grid.ys)
    flat_labels = grid.labels.reshape(-1)
    others = {}  # label -> coordinates of the cells labeled otherwise
    margins = np.empty(points.shape[0])
    flagged = np.zeros(points.shape[0], dtype=bool)
    for m, (px, py) in enumerate(points):
        i = int(np.clip(round((px - x_min) / step_x), 0, r - 1))
        j = int(np.clip(round((py - y_min) / step_y), 0, r - 1))
        own = int(grid.labels[i, j])
        if own not in others:
            others[own] = cell_pts[flat_labels != own]
        differing = others[own]
        if differing.shape[0] == 0:
            margins[m] = max(0.0, min(px - x_min, x_max - px, py - y_min, y_max - py))
            flagged[m] = True
            continue
        d2 = row_sum(np.square(differing - (px, py)))
        margins[m] = math.sqrt(float(d2.min()))
    return MarginReport(margins=margins, median=float(np.median(margins)), lower_bound=flagged)
