"""Datasets, long-tailed curation, and batch plumbing.

A Dataset is a frozen (X, y) pair with explicit class names; labels are
contiguous ids 0..K-1. Curation subsamples a (roughly balanced) pool
into an exponentially decaying class-size profile, which is how the
imbalance ratio r = min(n_c) / max(n_c) is controlled in experiments.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .config import AugmentSpec
from .models import atomic_write

# Rows per block of text that save_csv writes and of Python objects that
# load_csv holds; bounds what either keeps at once.
BLOCK_ROWS = 1024


@dataclass
class Dataset:
    X: np.ndarray  # (n, d) float64
    y: np.ndarray  # (n,) int64
    class_names: list[str]

    def __post_init__(self):
        self.X = np.ascontiguousarray(self.X, dtype=np.float64)
        self.y = np.ascontiguousarray(self.y, dtype=np.int64)
        if self.X.ndim != 2:
            raise ValueError(f"X must be (n, d), got shape {self.X.shape}")
        if self.y.shape != (self.X.shape[0],):
            raise ValueError(f"y shape {self.y.shape} does not match X rows {self.X.shape[0]}")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("non-finite feature values")
        k = len(self.class_names)
        if k < 1:
            raise ValueError("at least one class required")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= k):
            raise ValueError(f"labels outside [0, {k})")
        self.X.flags.writeable = False
        self.y.flags.writeable = False

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


@dataclass
class ClassProfile:
    """Per-class sample counts for one split."""

    counts: np.ndarray  # (K,) int64
    num_classes: int = field(init=False)

    def __post_init__(self):
        self.counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 1 or self.counts.size < 1:
            raise ValueError("counts must be a non-empty vector")
        if np.any(self.counts < 1):
            raise ValueError("every class needs at least one sample for a profile")
        self.num_classes = int(self.counts.size)

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    @property
    def proportions(self) -> np.ndarray:
        return self.counts / self.counts.sum()

    @property
    def imbalance_ratio(self) -> float:
        return float(self.counts.min() / self.counts.max())


def class_profile(dataset: Dataset) -> ClassProfile:
    """Counts over the declared classes; empty classes are an error."""
    counts = np.bincount(dataset.y, minlength=dataset.num_classes)
    if np.any(counts == 0):
        missing = [dataset.class_names[i] for i in np.flatnonzero(counts == 0)]
        raise ValueError(f"classes with no samples: {missing}")
    return ClassProfile(counts)


def load_csv(path, label_col: str) -> Dataset:
    """Read a feature table with one label column.

    Distinct label strings are sorted lexicographically and mapped to
    0..K-1; all other columns are parsed as float features in file
    order. A header that names label_col more than once is rejected.
    Malformed rows, non-finite values (inf, nan, 1e400) and records the
    csv module rejects (a cell over its field_size_limit) are reported
    with the line their record starts on, one past reader.line_num after
    the record before it (a quoted cell may span lines); text that does
    not decode, with the path alone (it is decoded a chunk at a time).
    The file is read once, so it may be a pipe; a non-finite value is
    reported only when nothing else in the file failed, at any block size.

    At most BLOCK_ROWS rows are held as Python objects: each block's
    floats become one float64 array, and each label is kept as the code
    of its first appearance, remapped to the sorted ids at the end. So a
    table is held as about 8 * (d + 1) bytes per row plus one block, and
    for a moment twice its X while the blocks are joined.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"{path}: empty file") from None
            except csv.Error as exc:
                raise ValueError(f"{path}:1: {exc}") from None
            if label_col not in header:
                raise ValueError(f"{path}: no column named {label_col!r} in header {header}")
            if header.count(label_col) > 1:
                raise ValueError(f"{path}: column {label_col!r} appears more than once in header {header}")
            label_idx = header.index(label_col)
            columns = header[:label_idx] + header[label_idx + 1:]
            if not columns:
                raise ValueError(f"{path}: no feature columns besides {label_col!r}")
            # feats, cells, starts and codes hold the current block's floats, their
            # text, each row's first line and label codes; first_seen numbers the
            # labels in the order they first appear.
            width = len(header)
            blocks, feats, cells, starts, codes, first_seen, end = [], [], [], [], [], {}, reader.line_num
            try:
                for row in reader:
                    start, end = end + 1, reader.line_num
                    if not row:
                        continue
                    if len(row) != width:
                        raise ValueError(f"{path}:{start}: expected {width} fields, got {len(row)}")
                    label = row.pop(label_idx)
                    try:
                        feats.extend(map(float, row))
                    except ValueError as exc:
                        raise ValueError(f"{path}:{start}: non-numeric feature value ({exc})") from None
                    cells.extend(row)
                    starts.append(start)
                    codes.append(first_seen.setdefault(label, len(first_seen)))
                    if len(codes) == BLOCK_ROWS:
                        blocks.append(_block(feats, cells, starts, codes, columns))
                        feats, cells, starts, codes = [], [], [], []
            except csv.Error as exc:
                raise ValueError(f"{path}:{end + 1}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: cannot decode the text ({exc})") from None
    if codes:
        blocks.append(_block(feats, cells, starts, codes, columns))
    if not blocks:
        raise ValueError(f"{path}: no data rows")
    bad = next((message for _, _, message in blocks if message), None)
    if bad:
        raise ValueError(f"{path}:{bad}")
    X = np.concatenate([x for x, _, _ in blocks])
    codes = np.concatenate([c for _, c, _ in blocks])
    del blocks
    names = sorted(first_seen)
    rank = {name: i for i, name in enumerate(names)}
    y = np.array([rank[name] for name in first_seen], dtype=np.int64)[codes]
    return Dataset(X, y, names)


def _block(feats: list, cells: list, starts: list, codes: list, columns: list):
    """One block of load_csv's rows: features, label codes and the first non-finite value.

    The features are (n, d) float64 and cells holds their text in the
    same order; the value is "line: message", or None.
    """
    X = np.array(feats, dtype=np.float64).reshape(len(codes), len(columns))
    bad, message = np.flatnonzero(~np.isfinite(X)), None
    if bad.size:
        i, j = divmod(int(bad[0]), len(columns))
        message = f"{starts[i]}: non-finite feature value ({cells[bad[0]]!r} in column {columns[j]!r})"
    return X, np.array(codes, dtype=np.int64), message


def save_csv(path, dataset: Dataset, label_col: str = "label") -> None:
    """Inverse of load_csv, with features named f0..f{d-1}.

    The header and the class names go through csv.writer, which quotes
    a name or label_col that needs it; each name is quoted once, where
    it stands in a row, after the features. The rows are written in
    blocks of BLOCK_ROWS, one string per block, with each feature
    column formatted by repr from Python floats, so values read back
    exactly. A csv.writer fed the rows one by one writes the same bytes:
    it formats a float with repr, never quotes one (a repr holds no
    comma, quote or line break) and ends each line with "\r\n".

    A label_col that names a feature column raises ValueError before
    the file is opened, since load_csv could not tell the two apart.
    """
    header = [f"f{i}" for i in range(dataset.d)] + [label_col]
    if label_col in header[:-1]:
        raise ValueError(f"label column {label_col!r} is also a feature name (f0..f{dataset.d - 1})")
    # a name follows a feature ("0," is cut off again), or stands alone when d is 0
    lead = ["0"] if dataset.d else []
    names = []
    for name in dataset.class_names:
        buf = io.StringIO(newline="")
        csv.writer(buf).writerow(lead + [name])
        names.append(buf.getvalue()[2 * len(lead):])  # keeps the "\r\n"
    with atomic_write(path) as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, dataset.n, BLOCK_ROWS):
            X = dataset.X[lo:lo + BLOCK_ROWS]
            columns = [map(repr, X[:, j].tolist()) for j in range(dataset.d)]
            labels = map(names.__getitem__, dataset.y[lo:lo + BLOCK_ROWS].tolist())
            fh.write("".join(map(",".join, zip(*columns, labels))))


def gen_gaussian_mixture(
    num_classes: int,
    n_per_class: int,
    dim: int = 2,
    mean_radius: float = 3.0,
    sigma: float = 1.0,
    seed: int = 0,
) -> Dataset:
    """Isotropic Gaussian blobs with means evenly spaced on a circle.

    The circle lives in the first two feature dimensions; any further
    dimensions carry pure noise around zero. Class k sits at angle
    2*pi*k/K, so the geometry is deterministic given the sizes. Class
    names are zero-padded to the width of K - 1 (class_00 ... class_10 at
    K = 11), so load_csv, which sorts them, gives each its label id back.
    """
    if num_classes < 2:
        raise ValueError("need at least two classes")
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    if dim < 2:
        raise ValueError("dim must be >= 2 to place means on a circle")
    if sigma <= 0 or mean_radius < 0:
        raise ValueError("sigma must be > 0 and mean_radius >= 0")
    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    means = np.zeros((num_classes, dim))
    means[:, 0] = mean_radius * np.cos(angles)
    means[:, 1] = mean_radius * np.sin(angles)
    X = np.empty((num_classes * n_per_class, dim))
    y = np.empty(num_classes * n_per_class, dtype=np.int64)
    for k in range(num_classes):
        lo = k * n_per_class
        X[lo:lo + n_per_class] = means[k] + rng.normal(0.0, sigma, size=(n_per_class, dim))
        y[lo:lo + n_per_class] = k
    width = len(str(num_classes - 1))
    names = [f"class_{k:0{width}d}" for k in range(num_classes)]
    return Dataset(X, y, names)


def exponential_counts(n_max: int, ratio: float, num_classes: int) -> np.ndarray:
    """Target counts n_k = round(n_max * ratio**(k / (K-1))), floored at 1."""
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    if num_classes < 1:
        raise ValueError("num_classes must be >= 1")
    if num_classes == 1:
        return np.array([n_max], dtype=np.int64)
    ks = np.arange(num_classes)
    raw = n_max * ratio ** (ks / (num_classes - 1))
    return np.maximum(1, np.array([round(v) for v in raw], dtype=np.int64))


def _subsample_per_class(dataset: Dataset, targets: np.ndarray, seed) -> Dataset:
    """targets[k] samples of each class k, in ascending class order.

    Each class is one seeded uniform draw without replacement; a class
    with fewer samples than its target raises ValueError naming every
    short class.
    """
    counts_in = np.bincount(dataset.y, minlength=dataset.num_classes)
    short = np.flatnonzero(counts_in < targets)
    if short.size:
        detail = ", ".join(
            f"{dataset.class_names[i]}: have {counts_in[i]}, need {targets[i]}" for i in short
        )
        raise ValueError(f"not enough samples to curate ({detail})")
    rng = np.random.default_rng(seed)
    keep = []
    for k in range(dataset.num_classes):
        members = np.flatnonzero(dataset.y == k)
        keep.append(rng.choice(members, size=int(targets[k]), replace=False))
    idx = np.concatenate(keep)
    return Dataset(dataset.X[idx], dataset.y[idx], list(dataset.class_names))


def curate_exponential(dataset: Dataset, ratio: float, seed: int) -> Dataset:
    """Subsample to an exponential class-size profile.

    Class 0 keeps n_max (the largest class size in the input) samples
    and counts decay geometrically to roughly n_max * ratio for the
    last class, so the curated imbalance ratio is ratio up to rounding.
    Selection within each class is a seeded uniform draw without
    replacement; classes stay in ascending id order.
    """
    n_max = int(np.bincount(dataset.y, minlength=dataset.num_classes).max())
    targets = exponential_counts(n_max, ratio, dataset.num_classes)
    return _subsample_per_class(dataset, targets, seed)


def grow_majority(pool: Dataset, n_majority: int, n_minority: int, seed: int) -> Dataset:
    """Fix the minority class size and scale every other class.

    The rarest class in the pool (lowest id on ties) is the minority and
    gets n_minority samples; every other class gets n_majority, so in
    the binary case the imbalance ratio is n_minority / n_majority.
    Draws are as in curate_exponential.
    """
    if n_majority < 1 or n_minority < 1:
        raise ValueError("class sizes must be >= 1")
    targets = np.full(pool.num_classes, n_majority, dtype=np.int64)
    targets[np.argmin(np.bincount(pool.y, minlength=pool.num_classes))] = n_minority
    return _subsample_per_class(pool, targets, seed)


def make_balanced_sampler(dataset: Dataset, batch_size: int, seed: int):
    """Infinite iterator over index batches with uniform class frequency.

    Each draw picks a class uniformly, then a sample uniformly within
    it, so expected class frequencies are 1/K regardless of imbalance.
    A batch takes its classes in one draw and then its in-class
    positions in one more, which gives the same stream as drawing each
    position on its own.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    k = dataset.num_classes
    sizes = np.bincount(dataset.y, minlength=k)
    if np.any(sizes == 0):
        raise ValueError("balanced sampling needs every class non-empty")
    # the members of class 0 in ascending order, then those of class 1, ...
    members = np.argsort(dataset.y, kind="stable")
    starts = np.cumsum(sizes) - sizes
    rng = np.random.default_rng(seed)

    def gen():
        while True:
            classes = rng.integers(0, k, size=batch_size)
            yield members[starts[classes] + rng.integers(0, sizes[classes])]

    return gen()


def augment_two_views(X: np.ndarray, spec: AugmentSpec, rng: np.random.Generator):
    """Two independent corrupted views of a batch.

    Each view adds N(0, sigma^2) noise and then zeroes features
    independently with probability feature_dropout_prob. With sigma 0
    and dropout 0 both views equal X exactly.
    """
    X = np.asarray(X, dtype=np.float64)
    views = []
    for _ in range(2):
        v = X + rng.normal(0.0, spec.sigma, size=X.shape) if spec.sigma > 0 else X.copy()
        if spec.feature_dropout_prob > 0:
            mask = rng.random(X.shape) >= spec.feature_dropout_prob
            v = v * mask
        views.append(v)
    return views[0], views[1]
