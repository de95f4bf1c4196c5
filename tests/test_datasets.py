import math

import numpy as np
import pytest

from dappr.datasets import (
    OOD_BLOB_SHIFT,
    LabeledDataset,
    SplitSpec,
    blob_means,
    gaussian_blobs,
    load_csv,
    long_tail_resample,
    ood_generator,
    split,
    stratified_subsample,
    two_moons,
)
from dappr.errors import CsvParseError, StratificationError
from fixtures import save_csv


# ---------------------------------------------------------------------------
# generators


def test_blobs_counts_and_determinism():
    ds = gaussian_blobs(3, 100, 2, 1.0, seed=7)
    assert ds.n == 300 and ds.dim == 2 and ds.n_classes == 3
    assert np.array_equal(ds.class_counts(), [100, 100, 100])
    again = gaussian_blobs(3, 100, 2, 1.0, seed=7)
    assert np.array_equal(ds.features, again.features)
    other = gaussian_blobs(3, 100, 2, 1.0, seed=8)
    assert not np.array_equal(ds.features, other.features)


def test_blob_means_on_radius_four_circle():
    m = blob_means(4, 5)
    radii = np.sqrt(m[:, 0] ** 2 + m[:, 1] ** 2)
    assert np.allclose(radii, 4.0, atol=1e-12)
    assert np.all(m[:, 2:] == 0.0)
    angles = np.arctan2(m[:, 1], m[:, 0])
    want = [0.0, np.pi / 2, np.pi, -np.pi / 2]
    assert np.allclose(np.unwrap(angles), np.unwrap(want), atol=1e-12)


def test_blobs_zero_spread_sits_on_means():
    ds = gaussian_blobs(3, 10, 2, 0.0, seed=1)
    means = blob_means(3, 2)
    for k in range(3):
        rows = ds.features[ds.labels == k]
        assert np.all(rows == means[k])
    # trivially linearly separable: nearest-mean classifies perfectly
    d2 = ((ds.features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(np.argmin(d2, axis=1), ds.labels)


def test_blobs_validation():
    with pytest.raises(ValueError):
        gaussian_blobs(1, 10, 2, 1.0, 0)
    with pytest.raises(ValueError):
        gaussian_blobs(3, 10, 1, 1.0, 0)
    with pytest.raises(ValueError):
        gaussian_blobs(3, 10, 2, -0.1, 0)


def test_two_moons_geometry():
    ds = two_moons(200, 0.0, seed=0)
    assert ds.n == 200 and ds.n_classes == 2
    assert np.array_equal(ds.class_counts(), [100, 100])
    first = ds.features[ds.labels == 0]
    second = ds.features[ds.labels == 1]
    # endpoints of the noise-free arcs
    assert np.allclose(first[0], [1.0, 0.0], atol=1e-12)
    assert np.allclose(first[-1], [-1.0, 0.0], atol=1e-12)
    assert np.allclose(second[0], [0.0, 0.5], atol=1e-12)
    assert np.allclose(second[-1], [2.0, 0.5], atol=1e-12)
    # interleaving: the second moon dips below the first's chord and the
    # arcs' bounding boxes overlap in x
    assert second[:, 1].min() == pytest.approx(-0.5, abs=1e-3)
    assert first[:, 0].max() > second[:, 0].min()
    # all points on unit circles around (0,0) and (1,0.5)
    r1 = np.linalg.norm(first, axis=1)
    r2 = np.linalg.norm(second - np.array([1.0, 0.5]), axis=1)
    assert np.allclose(r1, 1.0, atol=1e-12) and np.allclose(r2, 1.0, atol=1e-12)


def test_two_moons_validation_and_determinism():
    with pytest.raises(ValueError):
        two_moons(201, 0.1, 0)
    with pytest.raises(ValueError):
        two_moons(100, -0.1, 0)
    a = two_moons(100, 0.2, 3)
    b = two_moons(100, 0.2, 3)
    assert np.array_equal(a.features, b.features)


def test_dataset_rejects_timedelta_labels():
    with pytest.raises(ValueError, match="integers"):
        LabeledDataset(np.zeros((2, 2)), np.array([0, 1], dtype="m8[s]"), 2)


def test_long_tail_counts():
    base = gaussian_blobs(2, 100, 2, 1.0, seed=0)
    tailed = long_tail_resample(base, 0.1, seed=1)
    assert np.array_equal(tailed.class_counts(), [100, 10])

    wide = LabeledDataset(np.zeros((1000, 2)), np.repeat(np.arange(10), 100), 10)
    t = long_tail_resample(wide, 0.01, seed=1)
    assert t.class_counts()[0] == 100 and t.class_counts()[-1] == 1


def test_long_tail_rho_one_is_identity():
    base = gaussian_blobs(3, 40, 2, 1.0, seed=2)
    same = long_tail_resample(base, 1.0, seed=5)
    assert np.array_equal(np.sort(same.labels), np.sort(base.labels))
    assert same.n == base.n
    with pytest.raises(ValueError):
        long_tail_resample(base, 0.0, seed=0)


def test_ood_generator_uniform_box():
    x = ood_generator("uniform_box", 500, 2, seed=11)
    assert x.shape == (500, 2)
    assert np.all(x >= -8.0) and np.all(x <= 8.0)
    assert np.array_equal(x, ood_generator("uniform_box", 500, 2, seed=11))


def test_ood_generator_shifted_blobs():
    x = ood_generator("shifted_blobs", 3000, 2, seed=1, n_classes=3, spread=0.5)
    centers = blob_means(3, 2) + np.array([12.0, 0.0])
    # every point close to one of the translated means
    d = np.linalg.norm(x[:, None, :] - centers[None, :, :], axis=2).min(axis=1)
    assert np.quantile(d, 0.99) < 3 * 0.5 + 0.5
    # the draws less the shift lie on the ID means
    x0 = ood_generator("shifted_blobs", 3000, 2, seed=2, n_classes=3,
                       spread=0.5) - np.array([OOD_BLOB_SHIFT, 0.0])
    d0 = np.linalg.norm(x0[:, None, :] - blob_means(3, 2)[None, :, :], axis=2).min(axis=1)
    assert np.quantile(d0, 0.99) < 3 * 0.5 + 0.5
    with pytest.raises(ValueError):
        ood_generator("noise_ball", 10, 2, seed=0)


# ---------------------------------------------------------------------------
# splitting


def test_split_is_stratified_partition():
    ds = gaussian_blobs(3, 50, 2, 1.0, seed=4)
    tr, va, te = split(ds, SplitSpec((0.8, 0.1, 0.1), seed=3))
    assert tr.n == 120 and va.n == 15 and te.n == 15
    assert np.array_equal(tr.class_counts(), [40, 40, 40])
    assert np.array_equal(va.class_counts(), [5, 5, 5])
    # disjoint and exhaustive
    rows = np.vstack([tr.features, va.features, te.features])
    assert rows.shape[0] == ds.n
    joint = {tuple(r) for r in rows}
    assert len(joint) == ds.n


def test_split_deterministic():
    ds = gaussian_blobs(3, 30, 2, 1.0, seed=4)
    a = split(ds, SplitSpec(seed=9))
    b = split(ds, SplitSpec(seed=9))
    for x, y in zip(a, b):
        assert np.array_equal(x.features, y.features)


def test_split_rejects_tiny_class():
    feats = np.zeros((4, 2))
    labels = np.array([0, 0, 0, 1])
    ds = LabeledDataset(feats, labels, 2)
    with pytest.raises(StratificationError):
        split(ds, SplitSpec((0.5, 0.25, 0.25), seed=0))


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec((0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        SplitSpec((0.0, 0.5, 0.5))
    SplitSpec((1.0, 0.0, 0.0))


def test_largest_remainder_tie_goes_to_earlier_part():
    from dappr.datasets import _allocate

    # 0.5/0.25/0.25 of 10: targets 5/2.5/2.5, one leftover goes to part 1
    assert _allocate(10, (0.5, 0.25, 0.25)) == [5, 3, 2]
    assert _allocate(7, (1 / 3, 1 / 3, 1 / 3)) == [3, 2, 2]


def test_stratified_subsample_balanced_and_nested():
    ds = gaussian_blobs(3, 100, 2, 1.0, seed=6)
    small = stratified_subsample(ds, 30, seed=2)
    large = stratified_subsample(ds, 90, seed=2)
    assert np.array_equal(small.class_counts(), [10, 10, 10])
    assert np.array_equal(large.class_counts(), [30, 30, 30])
    # same seed implies growing subsets nest, so scaling runs see supersets
    small_rows = {tuple(r) for r in small.features}
    large_rows = {tuple(r) for r in large.features}
    assert small_rows <= large_rows
    with pytest.raises(ValueError):
        stratified_subsample(ds, 0, seed=0)
    with pytest.raises(ValueError):
        stratified_subsample(ds, 301, seed=0)


# ---------------------------------------------------------------------------
# dataset object and CSV round trip


def test_labeled_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((3, 2)), np.array([0, 1, 2]), 2)  # label out of range
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((3, 2)), np.array([0, 1]), 2)  # length mismatch
    with pytest.raises(ValueError):
        LabeledDataset(np.array([[np.nan, 0.0]]), np.array([0]), 1)


def test_take_preserves_rows():
    ds = gaussian_blobs(2, 5, 2, 1.0, seed=0)
    sub = ds.take(np.array([0, 3, 7]))
    assert sub.n == 3
    assert np.array_equal(sub.features, ds.features[[0, 3, 7]])
    assert np.array_equal(sub.labels, ds.labels[[0, 3, 7]])


def test_csv_roundtrip_is_exact(tmp_path):
    ds = gaussian_blobs(3, 20, 4, 1.3, seed=12)
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert back.n_classes == 3
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)


def test_csv_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0,0\n1.0,oops,1\n")
    with pytest.raises(CsvParseError) as err:
        load_csv(path)
    assert err.value.line_number == 2

    path.write_text("1.0,2.0,0\n3.0,1\n")
    with pytest.raises(CsvParseError) as err:
        load_csv(path)
    assert err.value.line_number == 2

    path.write_text("1.0,2.0,-1\n")
    with pytest.raises(CsvParseError):
        load_csv(path)

    path.write_text("")
    with pytest.raises(ValueError):
        load_csv(path)


def test_csv_infers_class_count_from_max_label(tmp_path):
    path = tmp_path / "sparse.csv"
    path.write_text("0.0,0.0,0\n1.0,1.0,3\n")
    ds = load_csv(path)
    assert ds.n_classes == 4
    assert np.array_equal(np.sort(ds.labels), [0, 3])
