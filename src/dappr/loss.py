"""Training losses: the possibilistic surrogate and a cross-entropy baseline.

The surrogate loss scores a concentration head against a label by evaluating
the log Dirichlet possibility at the inner maximiser of

    log g(p; alpha) + cross_entropy(p, y),

which has the closed form p* = (alpha - y) / (alpha0 - 1) whenever every
alpha_k >= y_k.  The concentration head softplus(z) + 1 guarantees that.
Following the reference recipe, closed_form_maximiser floors p* with the
constant EPS, and the loss treats p* as a constant when differentiating and
adds a squared penalty on concentration assigned to wrong classes, whose
weight warms up linearly over the first WARMUP_EPOCHS.

All gradients here are analytic; there is no autodiff anywhere in the
package.  The gradient of the per-sample loss with p* held fixed is

    d loss / d alpha_j = log(alpha0 * p*_j / alpha_j) + 2 lam alpha_j (1 - y_j)

chained through d alpha / d z = sigmoid(z).

Training also fits the vacuous Dirichlet alpha = 1 on background inputs drawn
away from the data (see nn.train): where no observation constrains the
possibilistic posterior, its projection is the least specific Dirichlet the
head can express.  The per-row penalty sum_k (alpha_k - 1)^2 =
sum_k softplus(z_k)^2 has the gradient 2 softplus(z) sigmoid(z) wrt z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MaximiserValidityError
from .possibility import DirichletParams, _first_bad_row, _over_classes

WARMUP_EPOCHS = 10  # the penalty weight rises linearly to lam over these epochs
# Weight of the vacuous-evidence penalty on background rows.  Small enough
# that the data term still sets alpha0 on the data (criteria 5 and 9 hold),
# large enough that the far field flattens toward alpha0 = K.
VACUOUS_WEIGHT = 1e-2
EPS = 1e-8  # floor of a* in closed_form_maximiser


def _check_weight(lam: float) -> None:
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")


@dataclass(frozen=True)
class LossConfig:
    """The loss's one setting: lam, the full weight of the evidence penalty."""

    lam: float = 2e-3

    def __post_init__(self):
        _check_weight(self.lam)


@dataclass(frozen=True, eq=False)
class LossOutput:
    """Loss value, analytic gradient wrt logits, and the two mean components.

    ``value == surrogate_term + lam * regulariser`` by construction.  The
    three are floats for one batch and hold one entry per batch for a stack
    (cross_entropy_loss's regulariser stays the float 0.0).
    """

    value: float | np.ndarray
    grad_logits: np.ndarray
    surrogate_term: float | np.ndarray
    regulariser: float | np.ndarray


def softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + exp(z)) as max(z, 0) + log1p(exp(-|z|)), overflow-safe.

    np.logaddexp(0, z)'s branch through numpy's SIMD exp and log1p: within
    2 ulp of it (bits follow numpy's CPU dispatch), exactly z for z >= 37.
    ``z`` is an array of at least one dimension: the log1p runs in place.
    """
    out = np.exp(-np.abs(z))
    np.log1p(out, out=out)
    out += np.maximum(z, 0.0)
    return out


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a (..., K) logit array, shift-stabilised."""
    shifted = z - _over_classes(np.maximum, z)[..., None]
    e = np.exp(shifted)
    return e / _over_classes(np.add, e)[..., None]


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Log softmax over the last axis of a (..., K) logit array, shift-stabilised."""
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def softplus_plus_one(logits) -> DirichletParams:
    """Concentration head alpha = softplus(z) + 1, elementwise.

    ``logits`` is one row of K logits or a (..., K) batch of rows; the result
    holds one concentration vector per row.  Every entry is at least 1, so
    closed_form_maximiser applies to any label.  An entry is exactly 1 where
    softplus(z) vanishes against 1 (z below about -36.7), and the maximiser's
    EPS floor keeps p* positive there.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim == 0:
        raise ValueError("logits must be a vector or a batch of vectors, got a scalar")
    if not np.isfinite(z).all():
        raise ValueError("logits must be finite")
    return DirichletParams(softplus(z) + 1.0)


def one_hot(labels, k: int) -> np.ndarray:
    """(..., k) float rows with a 1 at each label, for integer labels of any shape."""
    y = np.asarray(labels)
    if y.ndim < 1:
        raise ValueError(f"labels must have at least one dimension, got shape {y.shape}")
    if y.dtype.kind not in "iu":
        raise ValueError("labels must be integers")
    flat = y.reshape(-1).astype(np.int64, copy=False)
    # a negative label read as unsigned is huge: one max checks both ends
    if flat.size and flat.view(np.uint64).max() >= k:
        raise ValueError(f"labels must lie in [0, {k}), got {y}")
    out = np.zeros(flat.size * k)
    out[np.arange(0, flat.size * k, k) + flat] = 1.0
    return out.reshape(y.shape + (k,))


def closed_form_maximiser(alpha, y) -> np.ndarray:
    """The floored maximiser p* of log g(p; alpha) + cross_entropy(p, y), per row.

    ``alpha`` is a (..., K) array of concentrations and ``y`` matching
    one-hot rows.  The objective sum_k (alpha_k - y_k) log p_k has a
    maximiser exactly when every alpha_k >= y_k, at (alpha - y) /
    (alpha0 - 1); this returns a* / sum(a*), where a* adds the floor EPS to
    alpha - y.  A row with some a*_k <= 0 has no maximiser (the objective
    is unbounded) and raises MaximiserValidityError.
    """
    a_star = alpha - y + EPS
    if not a_star.min() > 0.0:
        row = _first_bad_row(np.broadcast_to(alpha, a_star.shape), ~(a_star > 0.0).all(axis=-1))
        raise MaximiserValidityError(f"closed form needs every alpha_k >= y_k, got alpha {row}")
    return a_star / a_star.sum(axis=-1, keepdims=True)


def lambda_schedule(cfg: LossConfig, epoch: int, epochs: int) -> float:
    """Regulariser weight at a given 0-based epoch of a run of ``epochs``:
    lam * min(1, epoch / WARMUP_EPOCHS)."""
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if not 0 <= epoch <= epochs:
        raise ValueError(f"epoch must lie in [0, {epochs}], got {epoch}")
    return cfg.lam * min(1.0, epoch / WARMUP_EPOCHS)


def _check_logit_batches(logits) -> np.ndarray:
    """A (..., batch, K) logit array: batch >= 1, K >= 2, every entry finite."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim < 2:
        raise ValueError(f"logits must be a 2-d batch, got shape {z.shape}")
    if z.shape[-2] < 1 or z.shape[-1] < 2:
        raise ValueError(f"need batch >= 1 and >= 2 classes, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("logits must be finite")
    return z


def _batch_one_hot(labels, z: np.ndarray) -> np.ndarray:
    """one_hot of one label per row of the (..., batch, K) logits ``z``."""
    if np.shape(labels) != z.shape[:-1]:
        raise ValueError(f"label shape {np.shape(labels)} does not match logits {z.shape}")
    return one_hot(labels, z.shape[-1])


def dappr_loss(logits, labels, lam: float = 0.0) -> LossOutput:
    """Batch surrogate loss with spurious-evidence penalty and its gradient.

    Per sample: alpha = softplus(z) + 1, p* = closed_form_maximiser(alpha, y)
    held constant under differentiation,
    surrogate = alpha0 log alpha0 + sum_k alpha_k log(p*_k / alpha_k),
    penalty = sum_k (alpha_k (1 - y_k))^2.  The batch value is
    mean(surrogate) + lam * mean(penalty).  ``logits`` is one (b, K) batch
    with (b,) labels, which gives float fields, or a (..., b, K) stack of
    batches with (..., b) labels, which gives value, surrogate_term and
    regulariser per leading index, each batch's bits as if scored alone.
    """
    _check_weight(lam)
    z = _check_logit_batches(logits)
    y = _batch_one_hot(labels, z)
    b = z.shape[-2]

    sp = softplus(z)
    alpha = sp + 1.0
    alpha0 = alpha.sum(axis=-1, keepdims=True)
    p_star = closed_form_maximiser(alpha, y)

    off = 1.0 - y
    surrogate = (alpha0[..., 0] * np.log(alpha0[..., 0])
                 + (alpha * np.log(p_star / alpha)).sum(axis=-1))
    penalty_terms = alpha * off
    penalty = (penalty_terms * penalty_terms).sum(axis=-1)

    # sum / b gives the bits of .mean() without its Python-level overhead
    surrogate_mean = surrogate.sum(axis=-1) / b
    penalty_mean = penalty.sum(axis=-1) / b
    if z.ndim == 2:
        surrogate_mean, penalty_mean = float(surrogate_mean), float(penalty_mean)
    value = surrogate_mean + lam * penalty_mean

    # off is exactly 0 or 1, so this is (2 lam alpha) off to the bit
    grad_alpha = np.log(alpha0 * p_star / alpha) + 2.0 * lam * penalty_terms
    # sigmoid(z) is -expm1(-softplus(z)); its sign moves onto b, bits unchanged
    grad_logits = grad_alpha * np.expm1(-sp) / -b
    return LossOutput(value=value, grad_logits=grad_logits, surrogate_term=surrogate_mean,
                      regulariser=penalty_mean)


def vacuous_evidence_penalty(logits):
    """Pull the head toward the flat Dirichlet alpha = 1; returns (value, grad).

    Per row: sum_k (alpha_k - 1)^2 = sum_k softplus(z_k)^2.  The batch value
    is VACUOUS_WEIGHT * mean over rows, and the gradient wrt logits is
    VACUOUS_WEIGHT * 2 softplus(z) sigmoid(z) / batch.  ``logits`` is one
    (B, K) batch, which gives a float value, or a (..., B, K) stack of
    batches, which gives one value per leading index and the gradient of
    each batch on its own.
    """
    z = _check_logit_batches(logits)
    b = z.shape[-2]
    evidence = softplus(z)
    squares = evidence * evidence
    value = VACUOUS_WEIGHT * squares.reshape(z.shape[:-2] + (-1,)).sum(axis=-1) / b
    grad_logits = (2.0 * VACUOUS_WEIGHT / b) * evidence * -np.expm1(-evidence)
    return (float(value) if z.ndim == 2 else value), grad_logits


def cross_entropy_loss(logits, labels) -> LossOutput:
    """Mean negative log softmax likelihood and its gradient.

    Takes one (b, K) batch or a (..., b, K) stack as dappr_loss does; the
    regulariser component is 0.
    """
    z = _check_logit_batches(logits)
    y = _batch_one_hot(labels, z)
    b = z.shape[-2]

    log_probs = log_softmax(z)
    value = -(log_probs[y == 1.0].reshape(y.shape[:-1]).sum(axis=-1) / b)
    if z.ndim == 2:
        value = float(value)
    grad_logits = (np.exp(log_probs) - y) / b
    return LossOutput(value=value, grad_logits=grad_logits, surrogate_term=value,
                      regulariser=0.0)
