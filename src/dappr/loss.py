"""Training losses: the possibilistic surrogate and a cross-entropy baseline.

The surrogate loss scores a concentration head against a label by evaluating
the log Dirichlet possibility at the inner maximiser of

    log g(p; alpha) + cross_entropy(p, y),

which has the closed form p* = (alpha - y) / (alpha0 - 1) whenever every
alpha_k exceeds 1.  The concentration head softplus(z) + 1 guarantees that.
Following the reference recipe, the implementation floors p* with a small eps
(a* = alpha - y + eps, p* = a*/sum(a*)), treats p* as a constant when
differentiating, and adds a squared penalty on concentration assigned to
wrong classes.

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
from .possibility import DirichletParams, SimplexPoint, _over_classes, _require_single

SCHEDULES = ("constant", "warmup", "linear")
WARMUP_EPOCHS = 10
# Weight of the vacuous-evidence penalty on background rows.  Small enough
# that the data term still sets alpha0 on the data (criteria 5 and 9 hold),
# large enough that the far field flattens toward alpha0 = K.
VACUOUS_WEIGHT = 1e-2
EPS = 1e-8  # default floor eps of a* = alpha - y + eps in the surrogate loss


def _check_weight_and_floor(lam: float, eps: float) -> None:
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    if not 0.0 < eps <= 1e-4:
        raise ValueError(f"eps must be in (0, 1e-4], got {eps}")


@dataclass(frozen=True)
class LossConfig:
    """Loss hyperparameters: regulariser weight, eps floor, weight schedule."""

    lam: float = 2e-3
    eps: float = EPS
    schedule: str = "constant"

    def __post_init__(self):
        _check_weight_and_floor(self.lam, self.eps)
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}, got {self.schedule!r}")


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
    holds one concentration vector per row.  Every entry is strictly greater
    than 1 for finite logits, which is the validity condition of the
    closed-form maximiser.
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


def closed_form_maximiser(d: DirichletParams, y: int) -> SimplexPoint:
    """Interior maximiser (alpha - y) / (alpha0 - 1) of log g(p) + ce(p, y).

    Valid only when every alpha_k > 1, which keeps the stationary point
    strictly inside the simplex.
    """
    _require_single(d.alpha)
    if not 0 <= y < d.k:
        raise ValueError(f"label {y} out of range for {d.k} classes")
    if np.any(d.alpha <= 1.0):
        raise MaximiserValidityError(
            f"closed form needs every concentration > 1, got {d.alpha}"
        )
    numer = d.alpha.copy()
    numer[y] -= 1.0
    return SimplexPoint(numer / (d.alpha0 - 1.0))


def multi_observation_maximiser(d: DirichletParams, ys) -> SimplexPoint:
    """Maximiser (alpha - c) / (alpha0 - |ys|) for a batch of observed labels.

    ``c`` counts how many observations hit each class.  Valid only when
    alpha_k strictly exceeds c_k for every class, the multi-label analogue of
    the alpha_k > 1 condition.  Conflicting labels are allowed and pull the
    maximiser toward the barycentre.
    """
    _require_single(d.alpha)
    labels = np.asarray(ys)
    if labels.size == 0:
        raise ValueError("need at least one observation")
    counts = one_hot(labels, d.k).reshape(-1, d.k).sum(axis=0)
    if np.any(d.alpha <= counts):
        raise MaximiserValidityError(
            f"need alpha_k > per-class label count, got alpha={d.alpha}, counts={counts}"
        )
    return SimplexPoint((d.alpha - counts) / (d.alpha0 - labels.size))


def lambda_schedule(cfg: LossConfig, epoch: int, epochs: int) -> float:
    """Regulariser weight at a given 0-based epoch of a run of ``epochs``.

    constant: lam; warmup: lam * min(1, epoch/10); linear: lam * epoch/epochs.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if not 0 <= epoch <= epochs:
        raise ValueError(f"epoch must lie in [0, {epochs}], got {epoch}")
    if cfg.schedule == "constant":
        return cfg.lam
    if cfg.schedule == "warmup":
        return cfg.lam * min(1.0, epoch / WARMUP_EPOCHS)
    return cfg.lam * epoch / epochs


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


def dappr_loss(logits, labels, lam: float = 0.0, eps: float = EPS) -> LossOutput:
    """Batch surrogate loss with spurious-evidence penalty and its gradient.

    Per sample: alpha = softplus(z) + 1, a* = alpha - y + eps,
    p* = a*/sum(a*) held constant under differentiation,
    surrogate = alpha0 log alpha0 + sum_k alpha_k log(p*_k / alpha_k),
    penalty = sum_k (alpha_k (1 - y_k))^2.  The batch value is
    mean(surrogate) + lam * mean(penalty).  ``logits`` is one (b, K) batch
    with (b,) labels, which gives float fields, or a (..., b, K) stack of
    batches with (..., b) labels, which gives value, surrogate_term and
    regulariser per leading index, each batch's bits as if scored alone.
    """
    _check_weight_and_floor(lam, eps)
    z = _check_logit_batches(logits)
    y = _batch_one_hot(labels, z)
    b = z.shape[-2]

    sp = softplus(z)
    alpha = sp + 1.0
    alpha0 = alpha.sum(axis=-1, keepdims=True)
    a_star = alpha - y + eps
    p_star = a_star / a_star.sum(axis=-1, keepdims=True)

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
