import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dappr.possibility import (
    DirichletParams,
    PossibilityTable,
    SimplexGrid,
    SimplexPoint,
    _over_classes,
    dirichlet_mode,
    dirichlet_possibility,
    grid_argmax_surrogate,
    log_dirichlet_possibility,
    maxitive_divergence,
    possibilistic_posterior,
    pushforward_possibility,
    simplex_grid,
)

from oracles import simplex_lattice


# ---------------------------------------------------------------------------
# value objects


def test_simplex_point_validation():
    SimplexPoint(np.array([0.25, 0.75]))
    with pytest.raises(ValueError):
        SimplexPoint(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        SimplexPoint(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        SimplexPoint(np.array([1.0]) * np.nan)


def test_simplex_point_is_read_only():
    p = SimplexPoint(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        p.probs[0] = 0.9


def test_dirichlet_params_alpha0_and_validation():
    d = DirichletParams(np.array([2.0, 0.0, 3.0]))
    assert d.alpha0 == 5.0
    assert d.k == 3
    with pytest.raises(ValueError):
        DirichletParams(np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        DirichletParams(np.array([np.inf, 1.0]))


def test_possibility_table_requires_sup_one():
    PossibilityTable(np.array([0.2, 1.0, 0.7]))
    with pytest.raises(ValueError):
        PossibilityTable(np.array([0.2, 0.7]))
    with pytest.raises(ValueError):
        PossibilityTable(np.array([0.2, 1.5]))


# ---------------------------------------------------------------------------
# Dirichlet possibility values


def test_log_possibility_frozen_values():
    # references computed at 50-digit precision
    d = DirichletParams(np.array([2.0, 3.0, 5.0]))
    p = SimplexPoint(np.array([0.5, 0.25, 0.25]))
    assert abs(log_dirichlet_possibility(d, p) - (-2.18011910943328)) < 1e-12

    # alpha_k = 0 drops that coordinate (0*log(...) convention)
    d0 = DirichletParams(np.array([2.0, 0.0, 3.0]))
    p0 = SimplexPoint(np.array([0.4, 0.1, 0.5]))
    assert abs(log_dirichlet_possibility(d0, p0) - (-0.5469646703818639)) < 1e-12


def test_possibility_exact_dyadic_value():
    # 5^5 * (1/8)^4 * (1/2) = 3125/8192, exactly representable
    d = DirichletParams(np.array([4.0, 1.0]))
    p = SimplexPoint(np.array([0.5, 0.5]))
    assert dirichlet_possibility(d, p) == 3125.0 / 8192.0


def test_zero_alpha0_is_total_ignorance():
    d = DirichletParams(np.zeros(3))
    for probs in ([1.0, 0.0, 0.0], [0.2, 0.3, 0.5]):
        assert log_dirichlet_possibility(d, SimplexPoint(np.array(probs))) == 0.0


def test_zero_probability_with_positive_alpha_is_neg_inf():
    d = DirichletParams(np.array([2.0, 1.0]))
    p = SimplexPoint(np.array([1.0, 0.0]))
    assert log_dirichlet_possibility(d, p) == -math.inf


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.1, 50.0), min_size=2, max_size=5))
def test_mode_is_exactly_optimal(alpha):
    """log g at the mode must be 0.0 in floating point, not just close."""
    d = DirichletParams(np.array(alpha))
    assert log_dirichlet_possibility(d, dirichlet_mode(d)) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.1, 50.0), min_size=3, max_size=3),
    st.lists(st.integers(0, 6), min_size=3, max_size=3).filter(lambda c: sum(c) > 0),
)
def test_log_possibility_never_positive(alpha, comp):
    total = sum(comp)
    p = SimplexPoint(np.array([c / total for c in comp]))
    d = DirichletParams(np.array(alpha))
    assert log_dirichlet_possibility(d, p) <= 1e-12


# ---------------------------------------------------------------------------
# simplex grid


def test_grid_matches_stars_and_bars_enumeration():
    g = simplex_grid(3, 7)
    lattice = simplex_lattice(3, 7)
    assert g.n_points == len(lattice) == math.comb(7 + 2, 2)
    expected = np.array(lattice, dtype=float) / 7.0
    assert np.array_equal(g.points_array, expected)


def test_grid_rows_sum_to_one():
    g = simplex_grid(4, 6)
    assert np.allclose(g.points_array.sum(axis=1), 1.0, atol=1e-12)
    # vertices present
    for k in range(4):
        vertex = np.zeros(4)
        vertex[k] = 1.0
        assert any(np.array_equal(row, vertex) for row in g.points_array)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0.5, 20.0), min_size=3, max_size=3))
def test_grid_sup_close_to_one_from_below(alpha):
    """The grid never exceeds the true sup of 1 and gets within O(1/m)."""
    d = DirichletParams(np.array(alpha))
    g = simplex_grid(3, 50)
    sup = dirichlet_possibility(d, g.points).max()
    assert sup <= 1.0 + 1e-9
    assert sup >= 1.0 - 5.0 / 50


# ---------------------------------------------------------------------------
# posterior, pushforward, divergence


def test_posterior_normalises_to_max_one():
    losses = np.array([3.0, 1.0, 2.0, 1.0])
    post = possibilistic_posterior(losses)
    assert post.values.max() == 1.0
    # exp(min - L): best hypotheses get 1 exactly, others the loss gap
    assert post.values[1] == 1.0 and post.values[3] == 1.0
    assert abs(post.values[0] - math.exp(-2.0)) < 1e-15
    assert abs(post.values[2] - math.exp(-1.0)) < 1e-15


def test_posterior_rejects_empty():
    with pytest.raises(ValueError):
        possibilistic_posterior(np.array([]))


def test_pushforward_identity_is_exact():
    f = PossibilityTable(np.array([0.3, 1.0, 0.6]))
    out = pushforward_possibility(f, np.arange(3), 3)
    assert np.array_equal(out.values, f.values)


def test_pushforward_takes_sup_over_preimage():
    f = PossibilityTable(np.array([0.3, 1.0, 0.6]))
    out = pushforward_possibility(f, np.array([0, 0, 1]), 2)
    assert np.array_equal(out.values, np.array([1.0, 0.6]))


def test_pushforward_empty_preimage_is_zero():
    f = PossibilityTable(np.array([1.0, 0.5]))
    out = pushforward_possibility(f, np.array([2, 2]), 3)
    assert out.values[0] == 0.0 and out.values[1] == 0.0 and out.values[2] == 1.0


def test_pushforward_rejects_timedelta_mapping():
    f = PossibilityTable(np.array([0.3, 1.0, 0.6]))
    with pytest.raises(ValueError, match="integer"):
        pushforward_possibility(f, np.array([0, 0, 1], dtype="m8[s]"), 2)


def test_divergence_zero_iff_dominated():
    f = PossibilityTable(np.array([0.5, 1.0, 0.25]))
    g = PossibilityTable(np.array([0.5, 1.0, 0.5]))
    assert maxitive_divergence(f, g) == 0.0
    # reverse direction is positive: g exceeds f nowhere it matters... flip
    assert maxitive_divergence(g, f) == pytest.approx(math.log(2.0), abs=1e-15)


def test_divergence_self_is_zero():
    f = PossibilityTable(np.array([0.1, 0.7, 1.0]))
    assert maxitive_divergence(f, f) == 0.0


def test_divergence_infinite_when_g_vanishes():
    f = PossibilityTable(np.array([1.0, 0.5]))
    g = PossibilityTable(np.array([1.0, 0.0]))
    assert maxitive_divergence(f, g) == math.inf


def test_divergence_ignores_points_where_f_is_zero():
    f = PossibilityTable(np.array([1.0, 0.0]))
    g = PossibilityTable(np.array([1.0, 0.0]))
    assert maxitive_divergence(f, g) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
def test_divergence_nonnegative_for_equal_tables(vals):
    arr = np.array(vals)
    arr[int(np.argmax(arr))] = 1.0
    f = PossibilityTable(arr)
    assert maxitive_divergence(f, f) >= -1e-12


# ---------------------------------------------------------------------------
# grid argmax of the surrogate objective


def test_grid_argmax_matches_independent_enumeration():
    alpha = np.array([2.5, 1.7, 3.2])
    d = DirichletParams(alpha)
    got = grid_argmax_surrogate(d, 0, simplex_grid(3, 40))
    from oracles import exhaustive_inner_argmax

    want = exhaustive_inner_argmax(list(alpha), 0, 40)
    assert np.allclose(got.probs, np.array(want), atol=1e-12)


def test_grid_argmax_is_deterministic():
    d = DirichletParams(np.array([1.5, 1.5]))
    g = simplex_grid(2, 30)
    a = grid_argmax_surrogate(d, 0, g)
    b = grid_argmax_surrogate(d, 0, g)
    assert np.array_equal(a.probs, b.probs)


# ---------------------------------------------------------------------------
# class-axis reductions

_SPECIAL_ENTRIES = [0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -2.5]


@st.composite
def class_axis_arrays(draw):
    """A (K,), (n, K) or (S, n, K) float array in C or F order, K in 1..20.

    Entries come from a short palette, so rows repeat signed zeros, NaN and
    infinities; hypothesis still seldom draws a row of -0.0 alone, which the
    test's explicit examples supply.
    """
    k = draw(st.integers(1, 20))
    lead = draw(st.one_of(st.just(()), st.tuples(st.integers(0, 6)),
                          st.tuples(st.integers(1, 3), st.integers(0, 6))))
    palette = draw(st.lists(st.one_of(st.sampled_from(_SPECIAL_ENTRIES), st.floats()),
                            min_size=1, max_size=4))
    shape = lead + (k,)
    picks = draw(st.lists(st.integers(0, len(palette) - 1),
                          min_size=math.prod(shape), max_size=math.prod(shape)))
    values = np.array(palette)[picks].reshape(shape)
    return np.asarray(values, order=draw(st.sampled_from("CF")))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([np.add, np.maximum, np.logical_or]), class_axis_arrays())
@example(np.add, np.full((2, 3), -0.0))
@example(np.add, np.full((2, 1), -0.0, order="F"))
@example(np.maximum, np.array([[0.0] * 8 + [-0.0]]))
def test_over_classes_is_numpys_reduce(ufunc, rows):
    if ufunc is np.logical_or:
        rows = rows != 0.0
    with np.errstate(all="ignore"):
        got, want = _over_classes(ufunc, rows), ufunc.reduce(rows, axis=-1)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.array_equal(got, want, equal_nan=rows.dtype != bool)
    if rows.dtype != bool:
        # array_equal takes -0.0 == 0.0; an all -0.0 row must sum to +0.0
        zero = np.asarray(want) == 0.0
        assert np.array_equal(np.signbit(got)[zero], np.signbit(want)[zero])


# ---------------------------------------------------------------------------
# batches of rows: every batched value equals the value of its row alone


@st.composite
def dirichlet_batches(draw):
    """(alpha, probs) of shape (n, k), with zero concentrations, alpha0 == 0
    rows and boundary points (zero coordinates) all reachable."""
    k = draw(st.integers(2, 10))
    n = draw(st.integers(1, 8))
    entry = st.one_of(st.just(0.0), st.floats(0.01, 50.0))
    alpha = np.array(draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                                   min_size=n, max_size=n)))
    counts = draw(st.lists(
        st.lists(st.integers(0, 6), min_size=k, max_size=k).filter(lambda c: sum(c) > 0),
        min_size=n, max_size=n))
    counts = np.array(counts, dtype=np.float64)
    return alpha, counts / counts.sum(axis=1, keepdims=True)


def _scalar_log_possibility(alpha, probs) -> float:
    """The one-vector definition: active terms only, -inf on a vanishing p_k."""
    alpha0 = float(alpha.sum())
    if alpha0 == 0.0:
        return 0.0
    a, q = alpha[alpha > 0.0], probs[alpha > 0.0]
    if np.any(q == 0.0):
        return -math.inf
    return float(np.sum(a * np.log(q / (a / alpha0))))


@settings(max_examples=100, deadline=None)
@given(dirichlet_batches())
def test_batched_possibility_equals_each_row(batch):
    alpha, probs = batch
    d, p = DirichletParams(alpha), SimplexPoint(probs)
    log_g = log_dirichlet_possibility(d, p)
    g = dirichlet_possibility(d, p)
    # one concentration vector broadcast against every point
    log_g_first = log_dirichlet_possibility(DirichletParams(alpha[0]), p)
    assert log_g.shape == g.shape == log_g_first.shape == (alpha.shape[0],)
    for i in range(alpha.shape[0]):
        d_i, p_i = DirichletParams(alpha[i]), SimplexPoint(probs[i])
        want = log_dirichlet_possibility(d_i, p_i)
        assert isinstance(want, float)
        assert log_g[i] == want
        # summing zeros in place of inactive terms changes at most the last bits
        assert want == pytest.approx(_scalar_log_possibility(alpha[i], probs[i]),
                                     rel=1e-14, abs=1e-14)
        assert g[i] == dirichlet_possibility(d_i, p_i)
        assert log_g_first[i] == log_dirichlet_possibility(DirichletParams(alpha[0]), p_i)
        assert d.alpha0[i] == d_i.alpha0


def test_batched_possibility_conventions():
    d = DirichletParams(np.array([[0.0, 0.0, 0.0], [2.0, 1.0, 0.0], [2.0, 1.0, 0.0]]))
    p = SimplexPoint(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]]))
    log_g = log_dirichlet_possibility(d, p)
    assert log_g[0] == 0.0  # alpha0 == 0: total ignorance
    assert log_g[1] == -math.inf  # p_k == 0 where alpha_k > 0
    assert math.isfinite(log_g[2])  # p_k == 0 only where alpha_k == 0
    # A mode coordinate that underflows to 0 makes its term +inf; a vanishing
    # p_k elsewhere still gives -inf, not inf - inf = nan.
    tiny = DirichletParams(np.array([5e-324, 1.0, 1.0]))
    assert log_dirichlet_possibility(tiny, SimplexPoint(np.array([0.5, 0.5, 0.0]))) == -math.inf
    assert isinstance(d.alpha0, np.ndarray) and d.alpha0.shape == (3,)


def test_grid_points_are_one_batch():
    g = simplex_grid(3, 7)
    points = g.points
    assert isinstance(points, SimplexPoint)
    assert np.array_equal(points.probs, g.points_array)


def _message(cls, values) -> str:
    with pytest.raises(ValueError) as err:
        cls(values)
    return str(err.value)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(1, 6), st.data(),
       st.sampled_from(["negative", "above_one", "nan", "inf", "off_simplex"]))
def test_simplex_batch_rejects_bad_row_like_the_row_alone(k, n, data, kind):
    rows = np.full((n, k), 1.0 / k)
    bad = np.full(k, 1.0 / k)
    if kind == "negative":
        bad[0], bad[1] = -0.25, bad[1] + 0.25
    elif kind == "above_one":
        bad[0], bad[1] = 1.25, bad[1] - 0.25
    elif kind == "nan":
        bad[0] = math.nan
    elif kind == "inf":
        bad[0] = math.inf
    else:
        bad[0] += 1e-6
    rows[data.draw(st.integers(0, n - 1))] = bad
    assert _message(SimplexPoint, rows) == _message(SimplexPoint, bad)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(1, 6), st.data(),
       st.sampled_from([-0.5, math.nan, math.inf, -math.inf]))
def test_dirichlet_batch_rejects_bad_row_like_the_row_alone(k, n, data, value):
    rows = np.ones((n, k))
    bad = np.ones(k)
    bad[data.draw(st.integers(0, k - 1))] = value
    rows[data.draw(st.integers(0, n - 1))] = bad
    assert _message(DirichletParams, rows) == _message(DirichletParams, bad)


def test_single_vector_operations_reject_batches():
    d = DirichletParams(np.full((2, 3), 2.0))
    with pytest.raises(ValueError, match="single vector"):
        grid_argmax_surrogate(d, 0, simplex_grid(3, 10))
