"""Uncertainty measures and evaluation metrics.

Ranking metrics follow fixed conventions so values are comparable across
runs and against the brute-force oracles in the test suite:

* aupr is non-interpolated average precision: mean of precision at each
  positive, walking the ranking by descending score with ties broken stably
  by original index.
* auroc is the Mann-Whitney U statistic over positive/negative pairs divided
  by n_pos * n_neg, ties counting 1/2.
* ece uses 15 equal-width confidence bins on [0, 1]; empty bins are skipped.

All three return raw values in [0, 1]; report-level scaling to 0-100 happens
in the harness.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAlphaError, MetricUndefinedError
from .possibility import DirichletParams, SimplexPoint, _over_classes, _row_value

log = logging.getLogger("dappr")

ECE_BINS = 15


def aleatoric_uncertainty(d: DirichletParams):
    """First-order uncertainty 1 - max_k alpha_k / alpha_0, in [0, 1 - 1/K].

    One value per row of ``d``: a float for a single concentration vector.
    """
    if np.any(d.alpha0 == 0.0):
        raise DegenerateAlphaError("aleatoric uncertainty undefined for alpha0 == 0")
    return _row_value(1.0 - _over_classes(np.maximum, d.alpha) / d.alpha0)


def epistemic_uncertainty(d: DirichletParams):
    """Second-order uncertainty K / alpha_0, one value per row of ``d``.

    Under the softplus-plus-one head alpha_0 > K, so the value lies in (0, 1)
    and shrinks as total concentration grows.
    """
    if np.any(d.alpha0 == 0.0):
        raise DegenerateAlphaError("epistemic uncertainty undefined for alpha0 == 0")
    return _row_value(d.k / d.alpha0)


def softmax_entropy(p: SimplexPoint):
    """Shannon entropy in nats per row of ``p``, with the 0 log 0 = 0 convention."""
    probs = p.probs
    # log(1) = 0 in place of log(0) makes each p_k = 0 term exactly 0.
    terms = probs * np.log(np.where(probs > 0.0, probs, 1.0))
    return _row_value(-_over_classes(np.add, terms))


def _check_binary(labels, scores):
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=np.float64)
    if y.ndim != 1 or s.ndim != 1 or y.size != s.size:
        raise ValueError("labels and scores must be 1-d vectors of equal length")
    if y.size == 0:
        raise MetricUndefinedError("empty input")
    if not ((y == 0) | (y == 1)).all():
        raise ValueError("labels must be binary (0 or 1)")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    n_pos = int(np.sum(y == 1))
    if n_pos == 0 or n_pos == y.size:
        raise MetricUndefinedError("need both positive and negative labels")
    return y.astype(np.int64), s, n_pos


def aupr(labels, scores) -> float:
    """Non-interpolated average precision (higher score = predicted positive)."""
    y, s, n_pos = _check_binary(labels, scores)
    n = y.size
    # The stable descending order, built from numpy's faster unstable sort:
    # number the runs of equal sorted scores, then order by (run, index).
    # The keys run * n + index are distinct, so any sort of them is stable.
    order = np.argsort(-s)
    ordered = s[order]
    run = np.concatenate(([0], np.cumsum(ordered[1:] != ordered[:-1])))
    order = order[np.argsort(run * n + order)]
    hits = y[order]
    precision = np.cumsum(hits) / np.arange(1, n + 1)
    return float(np.sum(precision[hits == 1]) / n_pos)


def auroc(labels, scores) -> float:
    """Probability a positive outranks a negative, ties counting 1/2."""
    y, s, n_pos = _check_binary(labels, scores)
    n = y.size
    order = np.argsort(s)
    ordered = s[order]
    # Runs of tied scores in sorted order: positions i..j share the average
    # of their 1-based ranks, (i + j + 2) / 2, so the order within a run
    # does not matter.
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], n) - 1
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends + 2) / 2.0, ends - starts + 1)
    u = float(np.sum(ranks[y == 1])) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * (n - n_pos))


def ece(confidences, correct, n_bins: int = ECE_BINS) -> float:
    """Count-weighted |accuracy - confidence| over reliability_bins' non-empty bins."""
    bins = reliability_bins(confidences, correct, n_bins)
    n = int(bins.counts.sum())
    if n == 0:
        log.warning("ece: empty input, returning 0")
        return 0.0
    total = 0.0
    for _, _, conf, acc, count in bins.rows():
        if count:
            total += count / n * abs(acc - conf)
    return total


@dataclass(frozen=True, eq=False)
class ReliabilityBins:
    """Per-bin calibration summary; empty bins carry NaN statistics."""

    bin_edges: np.ndarray
    mean_confidence: np.ndarray
    accuracy: np.ndarray
    counts: np.ndarray

    @property
    def n_bins(self) -> int:
        return self.counts.size

    def rows(self):
        for b in range(self.n_bins):
            yield (float(self.bin_edges[b]), float(self.bin_edges[b + 1]),
                   float(self.mean_confidence[b]), float(self.accuracy[b]),
                   int(self.counts[b]))


def reliability_bins(confidences, correct, n_bins: int = ECE_BINS) -> ReliabilityBins:
    """Bin confidences on [0, 1] and summarise accuracy per bin."""
    if n_bins < 1:
        raise ValueError(f"need at least one bin, got n_bins={n_bins}")
    c = np.asarray(confidences, dtype=np.float64)
    ok = np.asarray(correct)
    if c.ndim != 1 or ok.ndim != 1 or c.size != ok.size:
        raise ValueError("confidences and correctness must be 1-d vectors of equal length")
    # NaN slips past both range tests below and would land in no bin
    if not np.isfinite(c).all():
        raise ValueError("confidences must be finite")
    if c.size and (np.any(c < 0.0) or np.any(c > 1.0)):
        raise ValueError("confidences must lie in [0, 1]")
    if not ((ok == 0) | (ok == 1)).all():
        raise ValueError("correctness flags must be binary")
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    mean_conf = np.full(n_bins, np.nan)
    acc = np.full(n_bins, np.nan)
    counts = np.zeros(n_bins, dtype=np.int64)
    idx = np.minimum((c * n_bins).astype(np.int64), n_bins - 1)
    for b in range(n_bins):
        members = idx == b
        counts[b] = int(np.sum(members))
        if counts[b]:
            mean_conf[b] = float(np.mean(c[members]))
            acc[b] = float(np.mean(ok[members]))
    return ReliabilityBins(edges, mean_conf, acc, counts)
