"""Synthetic benchmark datasets, deterministic splits, and CSV round-trips.

Every generator takes an explicit seed and is reproducible bit for bit.
Datasets are plain feature/label pairs; class count is part of the dataset so
subsets taken from it (splits, resamples) keep the original label space even
when a class ends up empty.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import CsvParseError, StratificationError

log = logging.getLogger("dappr")

BLOB_RADIUS = 4.0
OOD_BOX_HALF_WIDTH = 8.0
OOD_BLOB_SHIFT = 12.0  # shifted_blobs moves every class mean this far along axis 0
OOD_KINDS = ("uniform_box", "shifted_blobs")


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        x = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels)
        if x.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("features must be finite")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValueError("labels must be a vector matching the feature rows")
        if y.dtype.kind not in "iu":
            raise ValueError("labels must be integers")
        y = y.astype(np.int64)
        if y.size and y.min() < 0:
            raise ValueError("labels must be non-negative")
        if self.n_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.n_classes}")
        if y.size and y.max() >= self.n_classes:
            raise ValueError(
                f"label {y.max()} out of range for {self.n_classes} classes"
            )
        x = x.copy()
        x.setflags(write=False)
        y = y.copy()
        y.setflags(write=False)
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes)

    def take(self, idx) -> "LabeledDataset":
        idx = np.asarray(idx)
        return LabeledDataset(self.features[idx], self.labels[idx], self.n_classes)


@dataclass(frozen=True)
class SplitSpec:
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
    seed: int = 0

    def __post_init__(self):
        f = self.fractions
        if len(f) != 3 or any(fi < 0.0 for fi in f):
            raise ValueError(f"fractions must be 3 non-negative values, got {f}")
        if abs(sum(f) - 1.0) > 1e-9:
            raise ValueError(f"fractions must sum to 1, got {sum(f)}")
        if f[0] <= 0.0:
            raise ValueError(f"fractions[0], the train share, must be positive, got {f[0]}")


def gaussian_blobs(n_classes: int, n_per_class: int, n_features: int,
                   spread: float, seed: int) -> LabeledDataset:
    """Isotropic Gaussian clusters, one per class.

    Class means sit on a circle of radius 4 in the first two feature
    dimensions (angle 2*pi*k/K), remaining dimensions centred at zero.
    """
    check_blobs(n_classes, n_per_class, n_features, spread)
    means = blob_means(n_classes, n_features)
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, spread, size=(n_classes * n_per_class, n_features))
    features = np.repeat(means, n_per_class, axis=0) + noise
    labels = np.repeat(np.arange(n_classes), n_per_class)
    return LabeledDataset(features, labels, n_classes)


# The generators' argument checks.  Each message starts with the argument's
# name, so a config section's prefix ("dataset.", "ood.") names its key.


def _check_n_features(n_features: int) -> None:
    if n_features < 2:
        raise ValueError(f"n_features must be >= 2, got {n_features}")


def check_blobs(n_classes: int, n_per_class: int, n_features: int, spread: float) -> None:
    if n_classes < 2:
        raise ValueError(f"n_classes must be >= 2, got {n_classes}")
    if n_per_class < 1:
        raise ValueError(f"n_per_class must be >= 1, got {n_per_class}")
    _check_n_features(n_features)
    if spread < 0.0:
        raise ValueError(f"spread must be >= 0, got {spread}")


def check_moons(n: int, noise: float) -> None:
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 2, got {n}")
    if noise < 0.0:
        raise ValueError(f"noise must be >= 0, got {noise}")


def check_ood(kind: str, n: int) -> None:
    if kind not in OOD_KINDS:
        raise ValueError(f"kind must be one of {OOD_KINDS}, got {kind!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def blob_means(n_classes: int, n_features: int) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
    means = np.zeros((n_classes, n_features))
    means[:, 0] = BLOB_RADIUS * np.cos(angles)
    means[:, 1] = BLOB_RADIUS * np.sin(angles)
    return means


def two_moons(n: int, noise: float, seed: int) -> LabeledDataset:
    """Two interleaving half-circles: an upper arc and a lower arc shifted
    by (1, 0.5) into its gap.

    With noise=0 the points lie exactly on the arcs.  n must be even;
    classes are balanced.
    """
    check_moons(n, noise)
    half = n // 2
    t = np.linspace(0.0, np.pi, half)
    first = np.column_stack([np.cos(t), np.sin(t)])
    second = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
    features = np.vstack([first, second])
    if noise > 0.0:
        features = features + np.random.default_rng(seed).normal(0.0, noise, size=features.shape)
    labels = np.repeat(np.arange(2), half)
    return LabeledDataset(features, labels, 2)


def check_rho(rho: float) -> None:
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must be in (0, 1], got {rho}")


def long_tail_resample(ds: LabeledDataset, rho: float, seed: int) -> LabeledDataset:
    """Geometric class-imbalance profile: class k keeps ceil(n_max * rho^(k/(K-1))).

    rho is the tail-to-head ratio in (0, 1]; rho=1 keeps the dataset intact
    (up to row order, which stays ascending by original index per class
    block).  Counts are capped at what each class actually has.
    """
    check_rho(rho)
    if ds.n_classes < 2:
        raise ValueError("long-tail profile needs at least 2 classes")
    counts = ds.class_counts()
    n_max = int(counts.max())
    rng = np.random.default_rng(seed)
    kept = []
    for k in range(ds.n_classes):
        want = math.ceil(n_max * rho ** (k / (ds.n_classes - 1)))
        have = int(counts[k])
        take = min(want, have)
        cls_idx = np.flatnonzero(ds.labels == k)
        chosen = np.sort(rng.permutation(cls_idx)[:take])
        kept.append(chosen)
    return ds.take(np.concatenate(kept))


def ood_generator(kind: str, n: int, n_features: int, seed: int, *,
                  n_classes: int = 3, spread: float = 1.0) -> np.ndarray:
    """Feature-only out-of-distribution samples.

    uniform_box: uniform over [-8, 8]^d.  shifted_blobs: the gaussian_blobs
    geometry moved OOD_BLOB_SHIFT along the first axis; the draws less that
    shift follow the in-distribution feature law.
    """
    check_ood(kind, n)
    _check_n_features(n_features)
    rng = np.random.default_rng(seed)
    if kind == "uniform_box":
        return rng.uniform(-OOD_BOX_HALF_WIDTH, OOD_BOX_HALF_WIDTH,
                           size=(n, n_features))
    means = blob_means(n_classes, n_features)
    means[:, 0] += OOD_BLOB_SHIFT
    assignment = np.arange(n) % n_classes
    return means[assignment] + rng.normal(0.0, spread, size=(n, n_features))


def _allocate(n: int, fractions) -> list[int]:
    # Largest-remainder allocation; ties go to the earlier part.
    targets = [f * n for f in fractions]
    base = [int(math.floor(t)) for t in targets]
    order = sorted(range(len(fractions)),
                   key=lambda i: (-(targets[i] - base[i]), i))
    for i in order[: n - sum(base)]:
        base[i] += 1
    return base


def split(ds: LabeledDataset, spec: SplitSpec):
    """Stratified (train, val, test) partition.

    Per-class allocation follows the fractions within one sample; the union
    of the three parts is exactly the input dataset.  A class with fewer
    samples than there are positive fractions is an error.
    """
    parts = sum(1 for f in spec.fractions if f > 0.0)
    rng = np.random.default_rng(spec.seed)
    buckets: list[list[np.ndarray]] = [[], [], []]
    for k in range(ds.n_classes):
        cls_idx = np.flatnonzero(ds.labels == k)
        if cls_idx.size == 0:
            log.warning("split: class %d has no samples", k)
            continue
        if cls_idx.size < parts:
            raise StratificationError(
                f"class {k} has {cls_idx.size} samples, fewer than {parts} split parts"
            )
        counts = _allocate(cls_idx.size, spec.fractions)
        if any(c == 0 and f > 0.0 for c, f in zip(counts, spec.fractions)):
            log.warning("split: class %d too small to reach every part (counts %s)",
                        k, counts)
        perm = rng.permutation(cls_idx)
        pos = 0
        for part in range(3):
            buckets[part].append(perm[pos:pos + counts[part]])
            pos += counts[part]
    out = []
    for part in range(3):
        idx = np.sort(np.concatenate(buckets[part])) if buckets[part] else np.array([], dtype=np.int64)
        out.append(ds.take(idx))
    return tuple(out)


def stratified_subsample(ds: LabeledDataset, n: int, seed: int) -> LabeledDataset:
    """Deterministic stratified subset of size n (class shares preserved)."""
    if not 1 <= n <= ds.n:
        raise ValueError(f"subset size must lie in [1, {ds.n}], got {n}")
    counts = ds.class_counts()
    shares = _allocate(n, counts / ds.n)
    rng = np.random.default_rng(seed)
    kept = []
    for k in range(ds.n_classes):
        take = min(shares[k], int(counts[k]))
        cls_idx = np.flatnonzero(ds.labels == k)
        kept.append(np.sort(rng.permutation(cls_idx)[:take]))
    idx = np.concatenate(kept)
    # Top up if caps bit into the allocation.
    if idx.size < n:
        rest = np.setdiff1d(np.arange(ds.n), idx)
        idx = np.concatenate([idx, rng.permutation(rest)[: n - idx.size]])
    return ds.take(np.sort(idx))


def load_csv(path) -> LabeledDataset:
    """Read rows of ``d`` feature floats followed by one integer label.

    No header.  Class count is the max label + 1; empty classes below the max
    are logged.  Malformed rows (ragged, non-numeric, non-finite, non-integer
    label) raise CsvParseError with the 1-based line number.
    """
    features: list[list[float]] = []
    labels: list[int] = []
    width = None
    with open(path, newline="", encoding="utf-8") as fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if len(row) < 2:
                raise CsvParseError(line_no, f"need features and a label, got {row}")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise CsvParseError(
                    line_no, f"expected {width} columns, got {len(row)}"
                )
            try:
                feats = [float(v) for v in row[:-1]]
            except ValueError as exc:
                raise CsvParseError(line_no, f"bad feature value: {exc}") from exc
            if not all(math.isfinite(v) for v in feats):
                raise CsvParseError(line_no, "features must be finite")
            try:
                label = int(row[-1])
            except ValueError as exc:
                raise CsvParseError(
                    line_no, f"label must be an integer, got {row[-1]!r}"
                ) from exc
            if label < 0:
                raise CsvParseError(line_no, f"label must be >= 0, got {label}")
            features.append(feats)
            labels.append(label)
    if not features:
        raise ValueError(f"{path} contains no data rows")
    n_classes = max(labels) + 1
    present = set(labels)
    missing = [k for k in range(n_classes) if k not in present]
    if missing:
        log.warning("load_csv: classes %s have no samples", missing)
    if n_classes < 2:
        raise ValueError("need labels from at least 2 classes (max label >= 1)")
    return LabeledDataset(np.asarray(features), np.asarray(labels, dtype=np.int64),
                          n_classes)
