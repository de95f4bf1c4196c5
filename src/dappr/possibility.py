"""Dirichlet possibility functions on the probability simplex.

A possibility function assigns each outcome a plausibility in [0, 1] and is
max-normalised: its supremum over the domain is 1.  The Dirichlet-shaped
family used throughout this package is parameterised by a non-negative
concentration vector ``alpha`` and evaluated in log space as

    log g(p; alpha) = sum_k alpha_k * log(p_k / (alpha_k / alpha_0)),

where ``alpha_0 = sum_k alpha_k``.  This grouping is algebraically identical
to ``alpha_0 log alpha_0 + sum_k alpha_k log(p_k / alpha_k)`` but divides each
probability by the corresponding mode coordinate, so evaluating at the mode
gives ratios of exactly 1.0 and hence exactly 0.0 in floating point.

Conventions:

* terms with ``alpha_k == 0`` contribute nothing (the 0^0 = 1 convention),
* ``alpha_0 == 0`` means total ignorance: g is identically 1,
* ``p_k == 0`` with ``alpha_k > 0`` gives ``log g = -inf``.

The module also provides the finite-domain machinery built on the same
max-normalised semantics: possibility tables, the pushforward under a
deterministic mapping (supremum over pre-images), the maxitive
pseudo-divergence, possibilistic posteriors from per-hypothesis losses, and a
simplex-grid brute-force maximiser that serves as the oracle for the
closed-form result in :mod:`dappr.loss`.

Sums, maxima and ``any`` over the class axis of a batch go through
``_over_classes``, which folds whole columns instead of reducing each short
row in its own inner loop, and returns numpy's reduce bit for bit; the
scoring functions of :mod:`dappr.metrics`, :mod:`dappr.loss` and
:mod:`dappr.harness` use it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateAlphaError

_GRID_LOG_FLOOR = 1e-12


def _as_float_vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return arr


def _as_float_rows(x, name: str) -> np.ndarray:
    """A C-ordered float64 copy of a vector or a batch of vectors.

    The last axis holds the K coordinates of each row; every leading axis is a
    batch axis.  C order makes each row's reductions add in the same order as
    the row on its own, so batch and per-row results agree bit for bit.
    """
    arr = np.array(x, dtype=np.float64, order="C")
    if arr.ndim == 0:
        raise ValueError(f"{name} must be a vector or a batch of vectors, got a scalar")
    if arr.shape[-1] == 0:
        raise ValueError(f"{name} must be non-empty")
    return arr


def _over_classes(ufunc, rows):
    """``ufunc.reduce(rows, axis=-1)``, bit for bit, for a (..., K) batch.

    numpy reduces a short last axis with one length-K inner loop per row;
    folding whole columns, ``out = ufunc(out, rows[..., j])``, makes K - 1
    calls over the batch instead.  ``logical_or`` gives the same result in
    any order.  numpy reduces fewer than 8 entries in sequence, ``add`` from
    0.0, which the fold repeats by starting from ``rows[..., 0] + 0.0`` (so
    an all ``-0.0`` row sums to ``+0.0``).  From 8 entries on it keeps eight
    partial results, which set the rounding of a sum and the sign of a zero
    maximum, so ``add`` and ``maximum`` keep numpy's reduce there.  A single
    vector keeps numpy's reduce too: folding it costs K calls on 0-d arrays.
    """
    if rows.ndim < 2 or rows.shape[-1] == 0 or (ufunc is not np.logical_or
                                                and rows.shape[-1] >= 8):
        return ufunc.reduce(rows, axis=-1)
    out = rows[..., 0] + 0.0 if ufunc is np.add else rows[..., 0].copy()
    for j in range(1, rows.shape[-1]):
        ufunc(out, rows[..., j], out=out)
    return out


def _first_bad_row(rows: np.ndarray, bad: np.ndarray) -> np.ndarray | None:
    """The first row of a (..., K) array whose per-row flag is set, or None."""
    flat = bad.reshape(-1)
    if not flat.any():
        return None
    return rows.reshape(-1, rows.shape[-1])[int(flat.argmax())]


def _row_value(values):
    """A Python float for a single row, the per-row array for a batch."""
    return float(values) if np.ndim(values) == 0 else values


@dataclass(frozen=True, eq=False)
class SimplexPoint:
    """Probability vectors of shape (..., K): each row has entries in [0, 1]
    summing to 1 within 1e-9.

    A 1-d ``probs`` is one point; leading axes make a batch of points, each
    validated by the same rules as on its own.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = _as_float_rows(self.probs, "probs")
        if probs.shape[-1] < 2:
            raise ValueError("simplex points need at least 2 coordinates")
        if not np.isfinite(probs).all():
            raise ValueError("probabilities must be finite")
        outside = _over_classes(np.logical_or, (probs < 0.0) | (probs > 1.0))
        row = _first_bad_row(probs, outside)
        if row is not None:
            raise ValueError(f"probabilities must lie in [0, 1], got {row}")
        totals = _over_classes(np.add, probs)
        row = _first_bad_row(totals[..., None], np.abs(totals - 1.0) > 1e-9)
        if row is not None:
            raise ValueError(f"probabilities must sum to 1, got {float(row[0])!r}")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def k(self) -> int:
        return self.probs.shape[-1]


@dataclass(frozen=True, eq=False)
class DirichletParams:
    """Non-negative concentration vectors of shape (..., K).

    ``alpha0`` is the per-row sum: a float for a 1-d ``alpha`` and an array
    of the batch shape otherwise.
    """

    alpha: np.ndarray
    alpha0: float | np.ndarray = field(init=False)

    def __post_init__(self):
        alpha = _as_float_rows(self.alpha, "alpha")
        if alpha.shape[-1] < 2:
            raise ValueError("need at least 2 concentration entries")
        if not np.isfinite(alpha).all():
            raise ValueError("concentrations must be finite")
        row = _first_bad_row(alpha, _over_classes(np.logical_or, alpha < 0.0))
        if row is not None:
            raise ValueError(f"concentrations must be non-negative, got {row}")
        alpha.setflags(write=False)
        alpha0 = _row_value(_over_classes(np.add, alpha))
        if isinstance(alpha0, np.ndarray):
            alpha0.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "alpha0", alpha0)

    @property
    def k(self) -> int:
        return self.alpha.shape[-1]


def _require_single(*arrays: np.ndarray) -> None:
    """Reject a batch where an operation is defined for one vector."""
    for arr in arrays:
        if arr.ndim != 1:
            raise ValueError(f"expected a single vector, got a batch of shape {arr.shape}")


@dataclass(frozen=True, eq=False)
class PossibilityTable:
    """Possibility values over a finite domain: entries in [0, 1] with
    max equal to 1 within 1e-9."""

    values: np.ndarray

    def __post_init__(self):
        values = _as_float_vector(self.values, "values").copy()
        if not np.all(np.isfinite(values)):
            raise ValueError("possibility values must be finite")
        if np.any(values < 0.0) or np.any(values > 1.0 + 1e-9):
            raise ValueError("possibility values must lie in [0, 1]")
        if abs(float(values.max()) - 1.0) > 1e-9:
            raise ValueError(
                f"table must be max-normalised to 1, got max {values.max()!r}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def domain_size(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class SimplexGrid:
    """All points of the simplex with coordinates that are multiples of 1/m.

    ``points_array`` has one row per grid point, rows ordered by lexicographic
    enumeration of the integer compositions of ``resolution`` into ``k`` parts.
    The number of rows is C(m + k - 1, k - 1).
    """

    resolution: int
    points_array: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.points_array, dtype=np.float64)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "points_array", arr)

    @property
    def k(self) -> int:
        return self.points_array.shape[1]

    @property
    def n_points(self) -> int:
        return self.points_array.shape[0]

    @property
    def points(self) -> SimplexPoint:
        """Every grid point as one batched SimplexPoint, rows in grid order."""
        return SimplexPoint(self.points_array)


def simplex_grid(k: int, m: int) -> SimplexGrid:
    """Enumerate every composition of m into k parts, scaled by 1/m.

    Enumeration is lexicographic over the composition tuples, so the grid
    order is deterministic and reproducible.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if m < 1:
        raise ValueError(f"need resolution m >= 1, got {m}")
    # Lexicographic order of the compositions: each prefix row expands, in
    # order, into one row per value 0..left of the next part, where ``left``
    # is what the prefix leaves of m; the last part takes the rest.
    counts = np.zeros((1, 0), dtype=np.int64)
    left = np.array([m])
    for _ in range(k - 1):
        sizes = left + 1
        part = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        counts = np.column_stack([np.repeat(counts, sizes, axis=0), part])
        left = np.repeat(left, sizes) - part
    counts = np.column_stack([counts, left])
    return SimplexGrid(resolution=m, points_array=counts / m)


def log_dirichlet_possibility(d: DirichletParams, p: SimplexPoint):
    """Log of the Dirichlet-shaped possibility of p under concentrations d.

    ``d.alpha`` and ``p.probs`` broadcast over their leading axes; the result
    is a float when both are 1-d and a per-row array otherwise.  A row gives
    0.0 when its alpha0 == 0 (total ignorance: the possibility function is
    identically 1) and -inf when some p_k is 0 where alpha_k > 0.
    """
    if d.k != p.k:
        raise ValueError(f"dimension mismatch: alpha has {d.k} entries, p has {p.k}")
    alpha, probs = d.alpha, p.probs
    active = alpha > 0.0
    # Ratio against the mode coordinate: exactly 1.0 at the mode, which makes
    # the mode evaluate to exactly 0.0.  Inactive terms (0/0, p/0) are
    # computed and then replaced by the 0^0 = 1 convention's zero; a row
    # summing inf and -inf is set to -inf below.
    with np.errstate(divide="ignore", invalid="ignore"):
        mode = alpha / np.expand_dims(d.alpha0, -1)
        terms = alpha * np.log(probs / mode)
        log_g = _over_classes(np.add, np.where(active, terms, 0.0))
    vanishing = _over_classes(np.logical_or, active & (probs == 0.0))
    return _row_value(np.where(vanishing, -math.inf, log_g))


def dirichlet_possibility(d: DirichletParams, p: SimplexPoint):
    """Possibility g(p; alpha) = exp(log_dirichlet_possibility), per row."""
    return _row_value(np.exp(log_dirichlet_possibility(d, p)))


def dirichlet_mode(d: DirichletParams) -> SimplexPoint:
    """The unique maximiser alpha / alpha0 of each row's possibility function."""
    if np.any(d.alpha0 == 0.0):
        raise DegenerateAlphaError("mode undefined for alpha0 == 0")
    return SimplexPoint(d.alpha / np.expand_dims(d.alpha0, -1))


def possibilistic_posterior(losses) -> PossibilityTable:
    """Possibility over hypotheses from their accumulated losses.

    The hypothesis with minimal loss gets possibility exactly 1; hypothesis i
    gets exp(min(losses) - losses[i]).  With per-sample negative log
    likelihoods as losses this is the relative likelihood.  Entries of +inf
    (impossible hypotheses) map to possibility 0.
    """
    arr = _as_float_vector(losses, "losses")
    if np.any(np.isnan(arr)):
        raise ValueError("losses must not contain NaN")
    lo = float(arr.min())
    if not math.isfinite(lo):
        raise ValueError("at least one loss must be finite")
    return PossibilityTable(np.exp(lo - arr))


def pushforward_possibility(
    f: PossibilityTable, mapping, codomain_size: int
) -> PossibilityTable:
    """Possibility induced on a codomain by a deterministic mapping.

    Each codomain element j gets the supremum of f over its pre-image
    {i : mapping[i] == j}; an empty pre-image gives 0.
    """
    idx = np.asarray(mapping)
    if idx.ndim != 1 or idx.size != f.domain_size:
        raise ValueError("mapping must assign one codomain index per domain element")
    if idx.dtype.kind not in "iu":
        raise ValueError("mapping must be integer-valued")
    if codomain_size < 1:
        raise ValueError("codomain must be non-empty")
    if np.any(idx < 0) or np.any(idx >= codomain_size):
        raise ValueError("mapping indices out of codomain range")
    out = np.zeros(codomain_size, dtype=np.float64)
    np.maximum.at(out, idx, f.values)
    return PossibilityTable(out)


def maxitive_divergence(f: PossibilityTable, g: PossibilityTable) -> float:
    """Maxitive pseudo-divergence max_i log(f_i / g_i) over {i : f_i > 0}.

    Non-negative for max-normalised tables, exactly 0 whenever f <= g
    pointwise, and +inf when g vanishes somewhere f does not.  It is a
    pseudo-divergence: 0 certifies domination, not equality.
    """
    if f.domain_size != g.domain_size:
        raise ValueError(
            f"domain mismatch: {f.domain_size} vs {g.domain_size} elements"
        )
    support = f.values > 0.0
    gs = g.values[support]
    if np.any(gs == 0.0):
        return math.inf
    return float(np.max(np.log(f.values[support] / gs)))


def grid_argmax_surrogate(
    d: DirichletParams, y: int, grid: SimplexGrid
) -> SimplexPoint:
    """Brute-force maximiser of log g(p; alpha) + cross_entropy(p, y) on a grid.

    This is the oracle the closed-form maximiser is checked against.  Grid
    points touching the simplex boundary are evaluated with probabilities
    floored at 1e-12 inside the logarithms; ties resolve to the first point in
    grid order.
    """
    _require_single(d.alpha)
    if not 0 <= y < d.k:
        raise ValueError(f"label {y} out of range for {d.k} classes")
    if grid.k != d.k:
        raise ValueError(f"grid is {grid.k}-dimensional, alpha has {d.k} entries")
    if d.alpha0 == 0.0:
        raise DegenerateAlphaError("surrogate objective undefined for alpha0 == 0")
    logs = np.log(np.maximum(grid.points_array, _GRID_LOG_FLOOR))
    active = d.alpha > 0.0
    const = float(d.alpha0 * math.log(d.alpha0) - np.sum(d.alpha[active] * np.log(d.alpha[active])))
    log_g = logs[:, active] @ d.alpha[active] + const
    cross_entropy = -logs[:, y]
    objective = log_g + cross_entropy
    return SimplexPoint(grid.points_array[int(np.argmax(objective))])
