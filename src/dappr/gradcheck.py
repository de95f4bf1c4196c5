"""Finite-difference oracles for the analytic gradients.

Central differences with h = 1e-5 in float64.  The surrogate loss treats the
inner maximiser p* as a constant, so its oracle differentiates the loss with
p* frozen at the unperturbed point; differentiating the recomputed-p* value
would measure a different (envelope-style) derivative on purpose not
implemented by the loss.
"""

from __future__ import annotations

import numpy as np

from .loss import (VACUOUS_WEIGHT, LossConfig, lambda_schedule, one_hot,
                   softplus)
from .nn import NetworkParams, forward, pack_network

FD_STEP = 1e-5


def fd_gradient(f, x0: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of scalar f at x0, elementwise."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    flat = grad.ravel()
    base = x0.copy()
    for i in range(base.size):
        orig = base.ravel()[i]
        base.ravel()[i] = orig + h
        up = f(base)
        base.ravel()[i] = orig - h
        down = f(base)
        base.ravel()[i] = orig
        flat[i] = (up - down) / (2.0 * h)
    return grad


def frozen_pstar_value(logits, labels, cfg: LossConfig, epoch: int,
                       p_star: np.ndarray) -> float:
    """Surrogate batch value with an externally fixed p* (detach semantics)."""
    z = np.asarray(logits, dtype=np.float64)
    y = one_hot(labels, z.shape[1])
    lam_t = lambda_schedule(cfg, epoch)
    alpha = softplus(z) + 1.0
    alpha0 = alpha.sum(axis=1)
    surrogate = alpha0 * np.log(alpha0) + np.sum(alpha * np.log(p_star / alpha), axis=1)
    pen = np.sum((alpha * (1.0 - y)) ** 2, axis=1)
    return float(surrogate.mean() + lam_t * pen.mean())


def base_p_star(logits, labels, cfg: LossConfig) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    y = one_hot(labels, z.shape[1])
    alpha = softplus(z) + 1.0
    a_star = alpha - y + cfg.eps
    return a_star / a_star.sum(axis=1, keepdims=True)


def dappr_loss_fd_gradient(logits, labels, cfg: LossConfig, epoch: int = 0,
                           h: float = FD_STEP) -> np.ndarray:
    """FD gradient of the surrogate loss wrt logits, p* frozen at the base."""
    p0 = base_p_star(logits, labels, cfg)
    return fd_gradient(
        lambda z: frozen_pstar_value(z, labels, cfg, epoch, p0),
        np.asarray(logits, dtype=np.float64), h,
    )


def vacuous_penalty_value(logits) -> float:
    """Vacuous-evidence penalty: weight * mean over rows of sum_k (alpha_k - 1)^2."""
    alpha = softplus(np.asarray(logits, dtype=np.float64)) + 1.0
    return float(VACUOUS_WEIGHT * np.mean(np.sum((alpha - 1.0) ** 2, axis=1)))


def vacuous_penalty_fd_gradient(logits, h: float = FD_STEP) -> np.ndarray:
    """FD gradient of the vacuous-evidence penalty wrt logits."""
    return fd_gradient(vacuous_penalty_value, np.asarray(logits, dtype=np.float64), h)


def network_fd_gradient(params: NetworkParams, x, labels, value_fn,
                        h: float = FD_STEP) -> np.ndarray:
    """FD gradient of value_fn(logits) wrt all weights and biases.

    value_fn maps a logits batch to a scalar; for the surrogate loss pass a
    closure with p* already frozen.  The perturbations go to a packed copy
    of params (pack_network's buffer order, as flat_gradient's), so params
    itself is never written.
    """
    flat, packed = pack_network(params)

    def f(theta):
        flat[...] = theta
        return value_fn(forward(packed, x))

    return fd_gradient(f, flat, h)


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max-norm relative disagreement between two gradient arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale
