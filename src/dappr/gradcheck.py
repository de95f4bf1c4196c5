"""Finite-difference oracles and the shared oracle battery.

Central differences with h = 1e-5 in float64.  The surrogate loss treats the
inner maximiser p* as a constant, so its oracle differentiates the loss with
p* frozen at the unperturbed point; differentiating the recomputed-p* value
would measure a different (envelope-style) derivative on purpose not
implemented by the loss.

The battery functions below each draw one random case from the caller's
generator and return the number its check bounds (a gap, an error, a
divergence).  ``harness.run_verify`` runs each a few times and acceptance
criteria 1-3 run them many times at their own seeds; the bounds and case
counts live with the callers.
"""

from __future__ import annotations

import numpy as np

from .loss import (VACUOUS_WEIGHT, LossConfig, closed_form_maximiser,
                   dappr_loss, lambda_schedule, one_hot, softplus,
                   vacuous_evidence_penalty)
from .nn import (NetworkParams, _forward_cached, _step_gradients,
                 flat_gradient, forward, init_network, pack_network)
from .possibility import (DirichletParams, PossibilityTable, SimplexGrid,
                          dirichlet_mode, grid_argmax_surrogate,
                          log_dirichlet_possibility, maxitive_divergence,
                          possibilistic_posterior, pushforward_possibility)

FD_STEP = 1e-5
# Central differences are only an oracle away from relu kinks: a hidden
# pre-activation inside the stencil's reach flips a branch and measures the
# average of two one-sided slopes instead.
KINK_MARGIN = 1e-4


def fd_gradient(f, x0: np.ndarray) -> np.ndarray:
    """Central-difference gradient of scalar f at x0, elementwise."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    flat = grad.ravel()
    base = x0.copy()
    for i in range(base.size):
        orig = base.ravel()[i]
        base.ravel()[i] = orig + FD_STEP
        up = f(base)
        base.ravel()[i] = orig - FD_STEP
        down = f(base)
        base.ravel()[i] = orig
        flat[i] = (up - down) / (2.0 * FD_STEP)
    return grad


def frozen_pstar_objective(labels, cfg: LossConfig, epoch: int, p_star: np.ndarray):
    """Surrogate batch value as a function of the logits, p* fixed externally.

    Detach semantics: p* does not move with the logits.  The one-hot labels
    and lam_t are built here once, not once per evaluation.
    """
    off = 1.0 - one_hot(labels, p_star.shape[1])
    lam_t = lambda_schedule(cfg, epoch)

    def value(logits) -> float:
        alpha = softplus(np.asarray(logits, dtype=np.float64)) + 1.0
        alpha0 = alpha.sum(axis=1)
        surrogate = alpha0 * np.log(alpha0) + np.sum(alpha * np.log(p_star / alpha), axis=1)
        pen = np.sum((alpha * off) ** 2, axis=1)
        return float(surrogate.mean() + lam_t * pen.mean())

    return value


def base_p_star(logits, labels, cfg: LossConfig) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    y = one_hot(labels, z.shape[1])
    alpha = softplus(z) + 1.0
    a_star = alpha - y + cfg.eps
    return a_star / a_star.sum(axis=1, keepdims=True)


def dappr_loss_fd_gradient(logits, labels, cfg: LossConfig, epoch: int = 0) -> np.ndarray:
    """FD gradient of the surrogate loss wrt logits, p* frozen at the base."""
    p0 = base_p_star(logits, labels, cfg)
    return fd_gradient(frozen_pstar_objective(labels, cfg, epoch, p0),
                       np.asarray(logits, dtype=np.float64))


def vacuous_penalty_value(logits) -> float:
    """Vacuous-evidence penalty: weight * mean over rows of sum_k (alpha_k - 1)^2."""
    alpha = softplus(np.asarray(logits, dtype=np.float64)) + 1.0
    return float(VACUOUS_WEIGHT * np.mean(np.sum((alpha - 1.0) ** 2, axis=1)))


def vacuous_penalty_fd_gradient(logits) -> np.ndarray:
    """FD gradient of the vacuous-evidence penalty wrt logits."""
    return fd_gradient(vacuous_penalty_value, np.asarray(logits, dtype=np.float64))


def network_fd_gradient(params: NetworkParams, x, value_fn) -> np.ndarray:
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

    return fd_gradient(f, flat)


def step_fd_gradient(params: NetworkParams, x, labels, cfg: LossConfig,
                     background=None) -> np.ndarray:
    """FD oracle of nn._step_gradients for the dappr loss at epoch 0.

    The value is the frozen-p* surrogate on the data rows x plus, when
    background rows are given, the vacuous-evidence penalty on them, all
    through one network; flat in flat_gradient's order.
    """
    b = len(x)
    rows = x if background is None else np.vstack([x, background])
    data_value = frozen_pstar_objective(
        labels, cfg, 0, base_p_star(forward(params, rows)[:b], labels, cfg))

    def value(logits):
        data = data_value(logits[:b])
        return data if background is None else data + vacuous_penalty_value(logits[b:])

    return network_fd_gradient(params, rows, value)


def near_relu_kink(params: NetworkParams, rows) -> bool:
    """True when any hidden pre-activation on rows is within KINK_MARGIN of 0.

    The forward cache keeps activations only, so each hidden layer's
    pre-activation is recomputed from that layer's cached input.
    """
    acts = _forward_cached(params, rows)
    return any(float(np.min(np.abs(a @ w + b))) < KINK_MARGIN
               for a, w, b in zip(acts[:-2], params.weights, params.biases))


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max-norm relative disagreement between two gradient arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


# ---------------------------------------------------------------------------
# the battery: one random case per call


def closed_form_gap(rng, grid: SimplexGrid,
                    draw_alpha=lambda rng, k: rng.uniform(1.05, 6.0, size=k)) -> float:
    """L-inf gap between the closed-form maximiser and the grid argmax, for
    alpha from ``draw_alpha(rng, k)`` and then a label drawn from rng."""
    d = DirichletParams(draw_alpha(rng, grid.k))
    y = int(rng.integers(grid.k))
    return float(np.max(np.abs(closed_form_maximiser(d, y).probs
                               - grid_argmax_surrogate(d, y, grid).probs)))


def mode_log_possibility(rng) -> float:
    """|log g(mode)| for a Dirichlet with K in 2..5; exactly 0 at the true mode."""
    d = DirichletParams(rng.uniform(0.2, 5.0, size=int(rng.integers(2, 6))))
    return abs(float(log_dirichlet_possibility(d, dirichlet_mode(d))))


def dominated_divergences(rng) -> tuple[float, float]:
    """(D(f||g), D(g||f)) for f = g * u, u in (0, 1] and u = 1 at argmax g.

    f is dominated by g and shares its maximum, so D(f||g) must be exactly 0
    and D(g||f) non-negative.
    """
    raw = rng.uniform(0.05, 1.0, size=8)
    g = PossibilityTable(raw / raw.max())
    u = 1.0 - rng.uniform(0.0, 1.0, size=8)
    u[int(np.argmax(raw))] = 1.0
    f = PossibilityTable(g.values * u)
    return maxitive_divergence(f, g), maxitive_divergence(g, f)


def posterior_peak_gap(rng) -> float:
    """How far the posterior's maximum, and its value at the loss argmin, are from 1."""
    losses = rng.uniform(0.0, 10.0, size=12)
    post = possibilistic_posterior(losses).values
    return float(max(abs(post.max() - 1.0), abs(post[int(np.argmin(losses))] - 1.0)))


def pushforward_gap(rng) -> float:
    """Largest deviation of the identity pushforward and of an empty pre-image's 0."""
    table = possibilistic_posterior(rng.uniform(0.0, 3.0, size=6))
    ident = pushforward_possibility(table, np.arange(6), 6)
    padded = pushforward_possibility(table, np.arange(6), 7)
    return float(max(np.max(np.abs(ident.values - table.values)), abs(padded.values[6])))


def loss_gradient_error(rng, cfg: LossConfig) -> float:
    """dappr_loss's logit gradient against its FD oracle on a 4x3 batch."""
    z = rng.normal(0.0, 2.0, size=(4, 3))
    labels = rng.integers(0, 3, size=4)
    return relative_error(dappr_loss(z, labels, cfg, 0).grad_logits,
                          dappr_loss_fd_gradient(z, labels, cfg, 0))


def penalty_gradient_error(rng) -> float:
    """vacuous_evidence_penalty's logit gradient against its FD oracle."""
    z = rng.normal(0.0, 2.0, size=(4, 3))
    return relative_error(vacuous_evidence_penalty(z)[1], vacuous_penalty_fd_gradient(z))


def step_gradient_error(rng, background: bool) -> float:
    """One dappr training step's weight gradient against step_fd_gradient.

    A fresh 2-8-8-3 network and 5 data rows (plus 5 background rows when
    asked) go through nn._step_gradients at lam = 2e-3; network and rows
    are redrawn while any hidden unit sits near a relu kink.
    """
    cfg = LossConfig(lam=2e-3)
    while True:
        params = init_network((2, 8, 8, 3), seed=int(rng.integers(2 ** 31)))
        x = rng.normal(0.0, 1.0, size=(5, 2))
        bg = rng.normal(0.0, 6.0, size=(5, 2)) if background else None
        labels = rng.integers(0, 3, size=5)
        if not near_relu_kink(params, x if bg is None else np.vstack([x, bg])):
            break
    # training's step on a stack of one network
    _, stack = pack_network(params, copies=1)
    _, grads_w, grads_b = _step_gradients(stack, x[None], labels[None], dappr_loss, cfg,
                                          0, None if bg is None else bg[None])
    return relative_error(flat_gradient(grads_w, grads_b)[0],
                          step_fd_gradient(params, x, labels, cfg, bg))
