import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dappr.errors import DegenerateAlphaError, MetricUndefinedError
from dappr.metrics import (
    ECE_BINS,
    aleatoric_uncertainty,
    aupr,
    auroc,
    ece,
    epistemic_uncertainty,
    reliability_bins,
    softmax_entropy,
)
from dappr.possibility import DirichletParams, SimplexPoint

from oracles import binned_calibration_error, pairwise_auroc, rank_walk_average_precision


# ---------------------------------------------------------------------------
# uncertainty decomposition


def test_uncertainty_split_frozen():
    d = DirichletParams(np.array([8.0, 1.0, 1.0]))
    assert aleatoric_uncertainty(d) == pytest.approx(0.2, abs=1e-15)
    assert epistemic_uncertainty(d) == pytest.approx(0.3, abs=1e-15)


def test_uncertainty_degenerate_alpha():
    flat = DirichletParams(np.array([0.0, 0.0]))
    with pytest.raises(DegenerateAlphaError):
        aleatoric_uncertainty(flat)
    with pytest.raises(DegenerateAlphaError):
        epistemic_uncertainty(flat)


def test_epistemic_shrinks_with_evidence():
    lo = epistemic_uncertainty(DirichletParams(np.array([2.0, 2.0])))
    hi = epistemic_uncertainty(DirichletParams(np.array([200.0, 200.0])))
    assert hi < lo


def test_softmax_entropy():
    assert softmax_entropy(SimplexPoint(np.full(4, 0.25))) == pytest.approx(
        math.log(4), abs=1e-15)
    assert softmax_entropy(SimplexPoint(np.array([1.0, 0.0, 0.0]))) == 0.0


# ---------------------------------------------------------------------------
# ranking metrics


def test_aupr_frozen_example():
    # positives at ranks 1 and 3 of the descending walk
    value = aupr([1, 0, 1], [3.0, 2.0, 1.0])
    assert value == 0.8333333333333333
    assert value == rank_walk_average_precision([1, 0, 1], [3.0, 2.0, 1.0])


def test_aupr_perfect_and_worst():
    assert aupr([1, 1, 0, 0], [4, 3, 2, 1]) == 1.0
    assert aupr([0, 0, 1], [3, 2, 1]) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_aupr_tie_uses_original_order():
    # tied scores keep input order, so the negative at index 0 ranks first
    assert aupr([0, 1], [0.5, 0.5]) == 0.5
    assert aupr([1, 0], [0.5, 0.5]) == 1.0


def test_ranking_metrics_undefined_cases():
    for bad_labels, bad_scores in ([[], []], [[1, 1], [0.1, 0.2]], [[0, 0], [0.1, 0.2]]):
        with pytest.raises(MetricUndefinedError):
            aupr(bad_labels, bad_scores)
        with pytest.raises(MetricUndefinedError):
            auroc(bad_labels, bad_scores)
    with pytest.raises(ValueError):
        auroc([0, 1], [0.1])
    with pytest.raises(ValueError):
        aupr([0, 2], [0.1, 0.2])


def test_auroc_basics():
    assert auroc([0, 1], [0.1, 0.9]) == 1.0
    assert auroc([0, 1], [0.9, 0.1]) == 0.0
    assert auroc([0, 1], [0.5, 0.5]) == 0.5
    # one tie pair among four: 3 wins + 0.5 over 4 pairs
    assert auroc([0, 0, 1, 1], [1, 2, 2, 3]) == pytest.approx(0.875, abs=1e-15)


def test_ranking_matches_pairwise_oracle_exactly():
    rng = np.random.default_rng(42)
    done = 0
    while done < 50:
        n = int(rng.integers(2, 9))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        scores = rng.integers(0, 5, size=n).astype(np.float64)
        assert auroc(labels, scores) == pairwise_auroc(labels, scores)
        assert aupr(labels, scores) == rank_walk_average_precision(labels, scores)
        done += 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(-20, 20)), min_size=2,
                max_size=12))
def test_ranking_invariant_to_monotone_rescale(pairs):
    labels = [l for l, _ in pairs]
    if 0 not in labels or 1 not in labels:
        return
    scores = np.array([s for _, s in pairs], dtype=np.float64)
    mapped = 3.0 * scores - 7.0  # exact for small integers
    assert auroc(labels, scores) == auroc(labels, mapped)
    assert aupr(labels, scores) == aupr(labels, mapped)


# ---------------------------------------------------------------------------
# calibration


def test_ece_hand_example():
    conf = [0.05, 0.95, 0.95, 0.65]
    correct = [1, 1, 0, 1]
    # bins 0, 14, 14, 9: gaps 0.95, 0.45, 0.35 with weights 1/4, 2/4, 1/4
    want = 0.25 * 0.95 + 0.5 * 0.45 + 0.25 * 0.35
    assert ece(conf, correct) == pytest.approx(want, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.floats(0.0, 1.0),
                                    st.sampled_from([k / ECE_BINS for k in range(ECE_BINS + 1)])),
                          st.booleans()),
                min_size=1, max_size=300))
def test_ece_matches_binned_oracle_exactly(rows):
    # exact bin edges k/15, 0.0 and 1.0 are drawn on purpose: each one must
    # land in the same bin as in the definition
    confidences = [c for c, _ in rows]
    correct = [int(ok) for _, ok in rows]
    assert ece(confidences, correct) == binned_calibration_error(confidences, correct, ECE_BINS)


def test_ece_perfect_calibration_is_zero():
    assert ece([1.0, 1.0], [1, 1]) == 0.0
    assert ece([0.5, 0.5], [1, 0]) == pytest.approx(0.0, abs=1e-15)


def test_ece_empty_warns_and_returns_zero(caplog):
    with caplog.at_level(logging.WARNING, logger="dappr"):
        assert ece([], []) == 0.0
    assert any("empty" in rec.message for rec in caplog.records)


def test_ece_validation():
    with pytest.raises(ValueError):
        ece([1.2], [1])
    with pytest.raises(ValueError):
        ece([0.5], [2])
    with pytest.raises(ValueError):
        ece([0.5, 0.5], [1])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ece_rejects_non_finite_confidences(bad):
    # a NaN row used to land in no bin yet count in the denominator: 0.05
    with pytest.raises(ValueError, match="finite"):
        ece([bad, 0.9], [1, 1])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_reliability_bins_rejects_non_finite_confidences(bad):
    with pytest.raises(ValueError, match="finite"):
        reliability_bins([bad, 0.9], [1, 1])


@pytest.mark.parametrize("n_bins", [0, -3])
def test_calibration_rejects_fewer_than_one_bin(n_bins):
    with pytest.raises(ValueError, match="n_bins"):
        ece([0.5, 0.9], [1, 0], n_bins=n_bins)
    with pytest.raises(ValueError, match="n_bins"):
        ece([], [], n_bins=n_bins)
    with pytest.raises(ValueError, match="n_bins"):
        reliability_bins([0.5, 0.9], [1, 0], n_bins=n_bins)


def test_reliability_bins_shape_and_clamp():
    bins = reliability_bins([1.0, 0.0, 0.001], [1, 0, 0])
    assert bins.n_bins == ECE_BINS
    assert bins.counts.sum() == 3
    assert bins.counts[-1] == 1  # confidence 1.0 clamps into the top bin
    assert bins.counts[0] == 2
    assert bins.bin_edges[0] == 0.0 and bins.bin_edges[-1] == 1.0
    rows = list(bins.rows())
    assert len(rows) == ECE_BINS
    assert rows[-1][2] == 1.0 and rows[-1][3] == 1.0


def test_reliability_bins_csv_blanks_empty_bins(tmp_path):
    bins = reliability_bins([0.5], [1])
    path = tmp_path / "bins.csv"
    bins.save_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "bin_low,bin_high,mean_conf,accuracy,count"
    assert len(lines) == 1 + ECE_BINS
    empties = [ln for ln in lines[1:] if ln.endswith(",,,0")]
    assert len(empties) == ECE_BINS - 1
    full = [ln for ln in lines[1:] if not ln.endswith(",0")]
    assert len(full) == 1 and full[0].endswith("0.5,1.0,1")


# ---------------------------------------------------------------------------
# batches of rows: every batched value equals the value of its row alone


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 10).flatmap(lambda k: st.lists(
    st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1e3)), min_size=k, max_size=k)
    .filter(lambda row: sum(row) > 0), min_size=1, max_size=8)))
def test_batched_uncertainty_split_equals_each_row(rows):
    alpha = np.array(rows)
    d = DirichletParams(alpha)
    alea, epi = aleatoric_uncertainty(d), epistemic_uncertainty(d)
    assert alea.shape == epi.shape == (alpha.shape[0],)
    for i, row in enumerate(alpha):
        d_i = DirichletParams(row)
        assert isinstance(aleatoric_uncertainty(d_i), float)
        assert isinstance(epistemic_uncertainty(d_i), float)
        assert alea[i] == aleatoric_uncertainty(d_i) == 1.0 - row.max() / row.sum()
        assert epi[i] == epistemic_uncertainty(d_i) == row.size / row.sum()


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 10).flatmap(lambda k: st.lists(
    st.lists(st.integers(0, 6), min_size=k, max_size=k).filter(lambda c: sum(c) > 0),
    min_size=1, max_size=8)))
def test_batched_softmax_entropy_equals_each_row(rows):
    counts = np.array(rows, dtype=np.float64)
    probs = counts / counts.sum(axis=1, keepdims=True)
    entropy = softmax_entropy(SimplexPoint(probs))
    assert entropy.shape == (probs.shape[0],)
    for i, row in enumerate(probs):
        assert isinstance(softmax_entropy(SimplexPoint(row)), float)
        assert entropy[i] == softmax_entropy(SimplexPoint(row))
        # the one-vector definition over the nonzero entries only; zeros in
        # place of the p_k = 0 terms change at most the last bits
        q = row[row > 0.0]
        assert entropy[i] == pytest.approx(-np.sum(q * np.log(q)), rel=1e-14, abs=1e-14)


def test_batched_uncertainty_rejects_a_degenerate_row():
    d = DirichletParams(np.array([[2.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DegenerateAlphaError):
        aleatoric_uncertainty(d)
    with pytest.raises(DegenerateAlphaError):
        epistemic_uncertainty(d)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 2000), st.sampled_from([1, 2, 3, 10, 1000]),
       st.integers(0, 2**32 - 1))
def test_auroc_matches_pairwise_count_with_heavy_ties(n, levels, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    labels[:2] = (0, 1)
    scores = rng.integers(0, levels, size=n) / 7.0
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = (pos[:, None] > neg).sum() + 0.5 * (pos[:, None] == neg).sum()
    assert auroc(labels, scores) == wins / (pos.size * neg.size)


def _stable_sort_aupr(labels, scores):
    # the textbook walk with numpy's stable sort, summed as aupr sums
    order = np.argsort(-scores, kind="stable")
    hits = labels[order]
    precision = np.cumsum(hits) / np.arange(1, hits.size + 1)
    return float(np.sum(precision[hits == 1]) / hits.sum())


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 2000), st.sampled_from([1, 2, 3, 10, 1000]),
       st.integers(0, 2**32 - 1))
def test_aupr_keeps_index_order_on_heavy_ties(n, levels, seed):
    # aupr ranks on an unstable sort and rebuilds the stable order; ties,
    # including -0.0 against 0.0, must still go by original index
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    labels[:2] = (0, 1)
    scores = (rng.integers(0, levels, size=n) - levels // 2) / 7.0
    scores = np.where(scores == 0.0, rng.choice([-0.0, 0.0], size=n), scores)
    value = aupr(labels, scores)
    assert value == _stable_sort_aupr(labels, scores)
    # the oracle sums one term at a time, np.sum pairwise: the last bits may
    # differ, but at n <= 2000 a tie taken out of index order moves the value
    # by more than 1e-10
    assert value == pytest.approx(
        rank_walk_average_precision(labels.tolist(), scores.tolist()), rel=1e-12, abs=0)
