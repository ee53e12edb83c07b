import csv
import tracemalloc
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewtrain import data
from skewtrain.config import AugmentSpec
from skewtrain.data import (
    Dataset,
    augment_two_views,
    class_profile,
    curate_exponential,
    exponential_counts,
    gen_gaussian_mixture,
    grow_majority,
    load_csv,
    make_balanced_sampler,
    save_csv,
)


def _toy(counts, d=2, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(sum(counts), d))
    y = np.repeat(np.arange(len(counts)), counts)
    return Dataset(X, y, [f"class_{k}" for k in range(len(counts))])


# ---------------------------------------------------------------------------
# Dataset and profiles
# ---------------------------------------------------------------------------


def test_dataset_validation():
    with pytest.raises(ValueError, match="y shape"):
        Dataset(np.zeros((3, 2)), np.zeros(4, dtype=np.int64), ["a"])
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(np.array([[np.nan, 0.0]]), np.array([0]), ["a"])
    with pytest.raises(ValueError, match="labels outside"):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), ["a", "b"])


def test_dataset_arrays_are_frozen():
    ds = _toy([3, 3])
    with pytest.raises(ValueError):
        ds.X[0, 0] = 99.0


def test_class_profile_counts_and_ratio():
    profile = class_profile(_toy([900, 100]))
    npt.assert_array_equal(profile.counts, [900, 100])
    assert profile.n == 1000
    npt.assert_allclose(profile.proportions, [0.9, 0.1], rtol=0, atol=0)
    assert profile.imbalance_ratio == 100 / 900


def test_class_profile_rejects_empty_class():
    ds = Dataset(np.zeros((2, 2)), np.array([0, 0]), ["a", "b"])
    with pytest.raises(ValueError, match="no samples"):
        class_profile(ds)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def _load_both(path, label_col):
    """load_csv with 3-row blocks and at the default BLOCK_ROWS; both must agree.

    Returns the default's Dataset or raises its ValueError.
    """
    results = []
    for block_rows in (3, data.BLOCK_ROWS):
        with mock.patch.object(data, "BLOCK_ROWS", block_rows):
            try:
                results.append(load_csv(path, label_col))
            except ValueError as exc:
                results.append(exc)
    small, default = results
    if isinstance(default, ValueError):
        assert isinstance(small, ValueError) and str(small) == str(default)
        raise default
    assert isinstance(small, Dataset), small
    assert small.X.tobytes() == default.X.tobytes() and small.X.shape == default.X.shape
    assert small.y.tobytes() == default.y.tobytes()
    assert small.class_names == default.class_names
    return default


def _reference_load_csv(path, label_col):
    """load_csv's result for a well-formed table, parsed one row at a time."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        label_idx = header.index(label_col)
        rows, labels = [], []
        for row in reader:
            if row:
                labels.append(row.pop(label_idx))
                rows.append([float(v) for v in row])
    names = sorted(set(labels))
    y = [names.index(label) for label in labels]
    return np.array(rows, dtype=np.float64), np.array(y, dtype=np.int64), names


def _edge_table(block_rows, n_rows, bad_row=None, bad_at=None):
    """n_rows records around the first block edge; record bad_at is bad_row.

    Record block_rows - 1 holds a two-line label, and blank lines stand
    before records block_rows and block_rows + 1, on each side of the
    edge. Returns the text and the line each record starts on.
    """
    labels = ["zeta", "alpha", "mid"]
    text, line_of = "f0,label\n", {}
    for r in range(1, n_rows + 1):
        if r in (block_rows, block_rows + 1):
            text += "\n" * (r - block_rows + 1)
        line_of[r] = text.count("\n") + 1
        if r == bad_at:
            text += f"{bad_row}\n"
        elif r == block_rows - 1:
            text += f'{-1.5 * r!r},"two\nline"\n'
        else:
            text += f"{0.25 * r!r},{labels[r % 3]}\n"
    return text, line_of


@pytest.mark.parametrize("block_rows", [3, data.BLOCK_ROWS])
@pytest.mark.parametrize("offset", [0, 1], ids=["last_of_a_block", "first_of_the_next"])
@pytest.mark.parametrize("bad_row, message", [
    ("x,b", r"non-numeric feature value \(could not convert string to float: 'x'\)"),
    ("inf,b", r"non-finite feature value \('inf' in column 'f0'\)"),
    ("nan,b", r"non-finite feature value \('nan' in column 'f0'\)"),
    ("3.0,b,c", r"expected 2 fields, got 3"),
    ("3.0", r"expected 2 fields, got 1"),
    ("1" * (csv.field_size_limit() + 1) + ",b", r"field larger than field limit \(\d+\)"),
], ids=["non_numeric", "inf", "nan", "too_wide", "too_narrow", "over_field_size_limit"])
def test_load_csv_names_the_line_of_a_bad_record_at_a_block_edge(tmp_path, monkeypatch, block_rows,
                                                                 offset, bad_row, message):
    # after blank lines and a two-line label, with a good record after it
    monkeypatch.setattr(data, "BLOCK_ROWS", block_rows)
    bad_at = block_rows + offset
    text, line_of = _edge_table(block_rows, bad_at + 1, bad_row, bad_at)
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"t\.csv:{line_of[bad_at]}: {message}$"):
        load_csv(path, "label")


@pytest.mark.parametrize("block_rows", [3, data.BLOCK_ROWS])
@pytest.mark.parametrize("extra_rows", [-1, 0, 1], ids=["B-1", "B", "B+1"])
def test_load_csv_matches_a_row_by_row_parse_around_a_block_edge(tmp_path, monkeypatch, block_rows,
                                                                 extra_rows):
    monkeypatch.setattr(data, "BLOCK_ROWS", block_rows)
    text, _ = _edge_table(block_rows, block_rows + extra_rows)
    path = tmp_path / "t.csv"
    path.write_text(text)
    ds = load_csv(path, "label")
    X, y, names = _reference_load_csv(path, "label")
    assert ds.n == block_rows + extra_rows
    assert ds.X.shape == X.shape and ds.X.tobytes() == X.tobytes()
    assert ds.y.dtype == np.int64 and ds.y.tobytes() == y.tobytes()
    assert ds.class_names == names and "two\nline" in names


def test_load_csv_holds_a_table_in_little_more_than_its_arrays(tmp_path):
    # 20 000 rows of 2 features: the arrays returned are 480 kB
    rng = np.random.default_rng(0)
    ds = Dataset(rng.normal(size=(20_000, 2)), rng.integers(0, 5, size=20_000),
                 [f"class_{k}" for k in range(5)])
    path = tmp_path / "t.csv"
    save_csv(path, ds)
    tracemalloc.start()
    try:
        back = load_csv(path, "label")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.X.tobytes() == ds.X.tobytes() and back.y.tobytes() == ds.y.tobytes()
    assert peak < 4 * (back.X.nbytes + back.y.nbytes)


def test_csv_round_trip(tmp_path):
    ds = _toy([4, 3, 2], d=3, seed=5)
    path = tmp_path / "data.csv"
    save_csv(path, ds)
    back = _load_both(path, "label")
    assert back.class_names == ds.class_names
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)


def test_load_csv_sorts_labels_lexicographically(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("f0,label\n1.0,zebra\n2.0,ant\n3.0,ant\n")
    ds = _load_both(path, "label")
    assert ds.class_names == ["ant", "zebra"]
    npt.assert_array_equal(ds.y, [1, 0, 0])


def test_load_csv_label_column_anywhere(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,label,b\n1.0,x,2.0\n3.0,y,4.0\n")
    ds = _load_both(path, "label")
    npt.assert_array_equal(ds.X, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_reports_bad_line_number(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("f0,label\n1.0,a\noops,b\n")
    with pytest.raises(ValueError, match=r":3: non-numeric"):
        _load_both(path, "label")


def test_load_csv_single_feature(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("label,f0\nb,1.5\na,-2.25\n")
    ds = _load_both(path, "label")
    assert ds.X.shape == (2, 1)
    npt.assert_array_equal(ds.X[:, 0], [1.5, -2.25])
    npt.assert_array_equal(ds.y, [1, 0])


def test_load_csv_parses_what_float_accepts(tmp_path):
    cells = [[" 2e0 ", "1_0"], ["-0.0", "1e16"], ["5e-324", "0.1"]]
    path = tmp_path / "t.csv"
    path.write_text("f0,label,f1\n" + "".join(f"{a},x,{b}\n" for a, b in cells))
    ds = _load_both(path, "label")
    want = np.array([[float(c) for c in row] for row in cells], dtype=np.float64)
    assert ds.X.dtype == np.float64
    assert ds.X.tobytes() == want.tobytes()


def test_load_csv_parses_inf_and_the_dataset_rejects_it(tmp_path):
    # "inf" is a number to float(); load_csv rejects it with its line and column
    path = tmp_path / "t.csv"
    path.write_text("f0,label,f1\n1.0,x,2.0\ninf,x,2.0\n")
    message = r"t\.csv:3: non-finite feature value \('inf' in column 'f0'\)$"
    with pytest.raises(ValueError, match=message):
        _load_both(path, "label")


@pytest.mark.parametrize("cell", ["-inf", "nan", "1e400"])
def test_load_csv_names_the_line_of_a_non_finite_value_after_a_blank_line(tmp_path, cell):
    # blank lines are not rows: the bad value is in data row 2 but on line 5
    path = tmp_path / "t.csv"
    path.write_text(f"f0,label,f1\n1.0,x,2.0\n\n\n3.0,y,{cell}\n4.0,y,inf\n")
    message = rf"t\.csv:5: non-finite feature value \('{cell}' in column 'f1'\)$"
    with pytest.raises(ValueError, match=message):
        _load_both(path, "label")


@pytest.mark.parametrize("bad_row, message", [
    ("1.0,y,two", r"t\.csv:3: non-numeric feature value \(could not convert string to float: 'two'\)"),
    ("1.0,y", r"t\.csv:3: expected 3 fields, got 2"),
])
def test_load_csv_names_the_bad_line_with_the_label_inside(tmp_path, bad_row, message):
    path = tmp_path / "t.csv"
    path.write_text(f"f0,label,f1\n1.0,x,2.0\n{bad_row}\n")
    with pytest.raises(ValueError, match=message):
        _load_both(path, "label")


_BAD_RECORDS = [
    ("x,b", r"non-numeric feature value \(could not convert string to float: 'x'\)"),
    ("inf,b", r"non-finite feature value \('inf' in column 'f0'\)"),
    ("3.0,b,c", r"expected 2 fields, got 3"),
]


@pytest.mark.parametrize("bad_row, message", _BAD_RECORDS)
def test_load_csv_names_the_physical_line_after_a_two_line_label(tmp_path, bad_row, message):
    # the quoted label spans lines 2 and 3, so the bad record is on line 5
    path = tmp_path / "t.csv"
    path.write_text(f'f0,label\n1.0,"two\nline"\n2.0,a\n{bad_row}\n')
    with pytest.raises(ValueError, match=rf"t\.csv:5: {message}$"):
        _load_both(path, "label")


@pytest.mark.parametrize("bad_row, message", _BAD_RECORDS)
def test_load_csv_names_the_physical_line_after_blank_lines(tmp_path, bad_row, message):
    path = tmp_path / "t.csv"
    path.write_text(f"f0,label\n\n1.0,a\n\n\n{bad_row}\n2.0,a\n")
    with pytest.raises(ValueError, match=rf"t\.csv:6: {message}$"):
        _load_both(path, "label")


def test_load_csv_names_the_first_line_of_a_bad_record_that_spans_lines(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('f0,label\r\n1.0,a\r\nx,"b\r\nc"\r\n')
    with pytest.raises(ValueError, match=r"t\.csv:3: non-numeric"):
        _load_both(path, "label")


_OVERSIZED = "1" * (csv.field_size_limit() + 1)


@pytest.mark.parametrize("text, line", [
    (f"f0,{_OVERSIZED}\n1.0,a\n", 1),
    (f"f0,label\n1.0,a\n{_OVERSIZED},a\n", 3),
    # after a two-line label and a blank line, a quoted cell that spans lines
    (f'f0,label\n1.0,"two\nline"\n\n"{_OVERSIZED}\n",a\n', 5),
], ids=["header", "row", "quoted_row_after_a_two_line_label"])
def test_load_csv_names_the_line_of_a_cell_over_the_field_size_limit(tmp_path, text, line):
    # the limit is process-wide, so the reader reports it and leaves it alone
    limit = csv.field_size_limit()
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"t\.csv:{line}: field larger than field limit"):
        _load_both(path, "label")
    assert csv.field_size_limit() == limit


@pytest.mark.parametrize("block_rows", [3, data.BLOCK_ROWS])
@pytest.mark.parametrize("bad_row", [None, "x,b", "inf,b", "3.0,b,c", _OVERSIZED + ",b"],
                         ids=["good", "non_numeric", "non_finite", "field_count", "over_field_size_limit"])
def test_load_csv_opens_its_file_once(tmp_path, monkeypatch, block_rows, bad_row):
    # a bad record past the first block edge, then a good one
    monkeypatch.setattr(data, "BLOCK_ROWS", block_rows)
    bad_at = block_rows + 1
    text, line_of = _edge_table(block_rows, bad_at + 1, bad_row, bad_at if bad_row else None)
    path = tmp_path / "t.csv"
    path.write_text(text)
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(data, "open", counting_open, raising=False)
    if bad_row is None:
        assert load_csv(path, "label").n == bad_at + 1
    else:
        with pytest.raises(ValueError, match=rf"t\.csv:{line_of[bad_at]}: "):
            load_csv(path, "label")
    assert opened == [path]


def test_load_csv_missing_label_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("f0,f1\n1.0,2.0\n")
    with pytest.raises(ValueError, match="no column named"):
        _load_both(path, "label")


def test_load_csv_rejects_a_label_column_named_twice(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("f0,f0\n1.0,a\n")
    with pytest.raises(ValueError, match="column 'f0' appears more than once"):
        _load_both(path, "f0")


def test_save_csv_rejects_a_label_column_named_like_a_feature(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=r"label column 'f1' is also a feature name \(f0..f1\)"):
        save_csv(path, _toy([2, 2]), label_col="f1")
    assert not path.exists()
    save_csv(path, _toy([2, 2]), label_col="f2")
    assert load_csv(path, "f2").d == 2


def test_load_csv_field_count_mismatch(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("f0,f1,label\n1.0,2.0,a\n1.0,b\n")
    with pytest.raises(ValueError, match=r":3: expected 3 fields"):
        _load_both(path, "label")


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


def test_gaussian_mixture_layout():
    ds = gen_gaussian_mixture(4, 50, dim=3, mean_radius=10.0, sigma=0.5, seed=0)
    assert ds.X.shape == (200, 3)
    npt.assert_array_equal(np.bincount(ds.y), [50, 50, 50, 50])
    # class 0 sits at angle 0: mean near (radius, 0, 0)
    m0 = ds.X[ds.y == 0].mean(axis=0)
    npt.assert_allclose(m0, [10.0, 0.0, 0.0], atol=0.3)
    m1 = ds.X[ds.y == 1].mean(axis=0)
    npt.assert_allclose(m1[:2], [0.0, 10.0], atol=0.3)


@pytest.mark.parametrize("k", [2, 10])
def test_gaussian_mixture_names_up_to_ten_classes_are_unpadded(k):
    assert gen_gaussian_mixture(k, 1).class_names == [f"class_{i}" for i in range(k)]


@pytest.mark.parametrize("k", [11, 101])
def test_gaussian_mixture_csv_round_trip_keeps_every_label_past_ten_classes(tmp_path, k):
    # load_csv sorts the names: class_10 before class_2 unless padded
    ds = gen_gaussian_mixture(k, 3, seed=0)
    assert ds.class_names[:3] == ["class_" + str(i).zfill(len(str(k - 1))) for i in range(3)]
    save_csv(tmp_path / "mix.csv", ds)
    back = load_csv(tmp_path / "mix.csv", "label")
    assert back.class_names == ds.class_names
    assert back.y.tobytes() == ds.y.tobytes()


def test_gaussian_mixture_seed_determinism():
    a = gen_gaussian_mixture(3, 10, seed=4)
    b = gen_gaussian_mixture(3, 10, seed=4)
    assert np.array_equal(a.X, b.X)


# ---------------------------------------------------------------------------
# Exponential curation
# ---------------------------------------------------------------------------


def test_exponential_counts_hand_case():
    npt.assert_array_equal(exponential_counts(1000, 0.01, 3), [1000, 100, 10])


def test_exponential_counts_floor_at_one():
    counts = exponential_counts(10, 0.001, 4)
    assert counts[0] == 10
    assert counts[-1] == 1
    assert np.all(counts >= 1)


def test_exponential_counts_balanced():
    npt.assert_array_equal(exponential_counts(50, 1.0, 5), [50] * 5)


def test_exponential_counts_rejects_bad_ratio():
    with pytest.raises(ValueError, match="ratio"):
        exponential_counts(100, 0.0, 3)
    with pytest.raises(ValueError, match="ratio"):
        exponential_counts(100, 1.5, 3)


def test_curate_exponential_profile():
    pool = _toy([1000, 1000, 1000])
    curated = curate_exponential(pool, 0.01, seed=0)
    npt.assert_array_equal(class_profile(curated).counts, [1000, 100, 10])
    # ascending class order preserved
    assert np.all(np.diff(curated.y) >= 0)


def test_curate_exponential_subsamples_without_replacement():
    pool = _toy([100, 100])
    curated = curate_exponential(pool, 0.5, seed=1)
    rows = {tuple(r) for r in curated.X}
    assert len(rows) == curated.n  # all distinct originals


def test_curate_exponential_seed_determinism():
    pool = _toy([500, 500])
    a = curate_exponential(pool, 0.1, seed=9)
    b = curate_exponential(pool, 0.1, seed=9)
    assert np.array_equal(a.X, b.X)
    c = curate_exponential(pool, 0.1, seed=10)
    assert not np.array_equal(a.X, c.X)


def test_curate_exponential_lists_short_classes():
    pool = _toy([100, 5])
    with pytest.raises(ValueError) as err:
        curate_exponential(pool, 0.5, seed=0)
    assert "class_1" in str(err.value)
    assert "have 5" in str(err.value)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), st.floats(0.01, 1.0), st.integers(50, 500))
def test_curated_ratio_tracks_target(k, ratio, n_max):
    counts = exponential_counts(n_max, ratio, k)
    assert counts[0] == n_max
    realized = counts.min() / counts.max()
    # rounding the smallest class changes the ratio by at most half a unit
    assert abs(realized - ratio) <= 0.5 / n_max + 1e-12
    assert np.all(np.diff(counts) <= 0)


# ---------------------------------------------------------------------------
# Majority growth
# ---------------------------------------------------------------------------


def test_grow_majority_counts():
    pool = _toy([2000, 300])
    grown = grow_majority(pool, n_majority=1500, n_minority=200, seed=0)
    npt.assert_array_equal(class_profile(grown).counts, [1500, 200])


def test_grow_majority_picks_rarest_class():
    pool = _toy([500, 100, 500])
    grown = grow_majority(pool, n_majority=400, n_minority=50, seed=0)
    npt.assert_array_equal(class_profile(grown).counts, [400, 50, 400])


def test_grow_majority_rejects_short_pool():
    # class 0 is the rarest so it becomes the minority, and 100 < 150
    pool = _toy([100, 300])
    with pytest.raises(ValueError, match="have 100, need 150"):
        grow_majority(pool, n_majority=200, n_minority=150, seed=0)


# ---------------------------------------------------------------------------
# Balanced sampler
# ---------------------------------------------------------------------------


def test_balanced_sampler_class_frequencies():
    # 10000 draws from a 9:1 imbalanced two-class set; balanced sampling
    # should put each class near 1/2 (binomial 3-sigma is ~0.015)
    ds = _toy([900, 100])
    sampler = make_balanced_sampler(ds, batch_size=100, seed=0)
    drawn = np.concatenate([next(sampler) for _ in range(100)])
    freq = (ds.y[drawn] == 1).mean()
    assert 0.485 <= freq <= 0.515


def test_balanced_sampler_batches_index_into_dataset():
    ds = _toy([10, 10])
    sampler = make_balanced_sampler(ds, batch_size=7, seed=3)
    batch = next(sampler)
    assert batch.shape == (7,)
    assert batch.min() >= 0 and batch.max() < ds.n


def _per_element_sampler(dataset, batch_size, seed):
    """The balanced sampler as first written: one scalar draw per batch position."""
    members = [np.flatnonzero(dataset.y == k) for k in range(dataset.num_classes)]
    rng = np.random.default_rng(seed)
    while True:
        classes = rng.integers(0, dataset.num_classes, size=batch_size)
        yield np.array([members[c][rng.integers(0, members[c].size)] for c in classes],
                       dtype=np.int64)


@pytest.mark.parametrize("batch_size", [1, 7, 128])
@pytest.mark.parametrize("counts", [[1, 40], [30, 1, 7], [5, 5, 5, 1, 300]],
                         ids=["one_member_first", "one_member_middle", "five_classes"])
def test_balanced_sampler_draws_the_per_element_stream(counts, batch_size):
    # One draw of all in-class positions gives the same stream as a
    # draw per position, including for one-member classes, whose draw
    # takes no random bits.
    ds = _toy(counts)
    # shuffled rows, so that class members are not contiguous
    perm = np.random.default_rng(9).permutation(ds.n)
    ds = Dataset(ds.X[perm], ds.y[perm], ds.class_names)
    for seed in (0, 1, 17, 2024):
        got = make_balanced_sampler(ds, batch_size, seed=seed)
        want = _per_element_sampler(ds, batch_size, seed)
        for _ in range(5):
            batch = next(got)
            assert batch.dtype == np.int64
            npt.assert_array_equal(batch, next(want))


def test_balanced_sampler_seed_determinism():
    ds = _toy([50, 5])
    a = next(make_balanced_sampler(ds, 32, seed=1))
    b = next(make_balanced_sampler(ds, 32, seed=1))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------


def test_augment_identity_when_disabled():
    X = np.random.default_rng(0).normal(size=(5, 3))
    v1, v2 = augment_two_views(X, AugmentSpec(sigma=0.0, feature_dropout_prob=0.0),
                               np.random.default_rng(1))
    assert np.array_equal(v1, X) and np.array_equal(v2, X)
    assert v1 is not X  # caller's batch must stay untouched


def test_augment_views_are_independent():
    X = np.zeros((4, 6))
    v1, v2 = augment_two_views(X, AugmentSpec(sigma=1.0), np.random.default_rng(2))
    assert not np.array_equal(v1, v2)


def test_augment_noise_magnitude():
    # at X=0 mean squared entry is sigma^2 * (1 - p); 20000 entries pins
    # it well within 10%
    sigma, p = 0.5, 0.3
    X = np.zeros((200, 100))
    v1, _ = augment_two_views(X, AugmentSpec(sigma=sigma, feature_dropout_prob=p),
                              np.random.default_rng(7))
    expected = sigma**2 * (1 - p)
    assert abs(np.mean(v1**2) - expected) / expected < 0.1


def test_augment_dropout_zeroes_features():
    X = np.ones((100, 50))
    spec = AugmentSpec(sigma=0.0, feature_dropout_prob=0.4)
    v1, _ = augment_two_views(X, spec, np.random.default_rng(8))
    zero_frac = (v1 == 0.0).mean()
    assert 0.34 <= zero_frac <= 0.46


def test_augment_spec_validation():
    with pytest.raises(ValueError, match="sigma"):
        AugmentSpec(sigma=-0.1)
    with pytest.raises(ValueError, match="dropout"):
        AugmentSpec(feature_dropout_prob=1.0)
