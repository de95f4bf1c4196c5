"""Finite-difference oracles and the shared oracle battery.

Central differences with h = 1e-5 in float64; one gradient is one call of
the value function on the stack of all 2N perturbed points.  The surrogate
loss treats the inner maximiser p* as a constant, so its oracle
differentiates the loss with p* frozen at the unperturbed point;
differentiating the recomputed-p* value would measure a different
(envelope-style) derivative on purpose not implemented by the loss.

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
    """Central-difference gradient of f at x0, elementwise, from one call of f.

    f takes a (2N, *x0.shape) stack of points, N = x0.size, and returns one
    value per point; rows i and N + i move coordinate i by +h and -h.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    points = np.tile(x0.ravel(), (2, x0.size, 1))
    diag = np.arange(x0.size)
    points[0, diag, diag] += FD_STEP
    points[1, diag, diag] -= FD_STEP
    up, down = np.reshape(f(points.reshape((2 * x0.size,) + x0.shape)), (2,) + x0.shape)
    return (up - down) / (2.0 * FD_STEP)


def frozen_pstar_objective(base_logits, labels, cfg: LossConfig):
    """Surrogate value of each (..., b, K) logits batch, p* frozen at the (b, K)
    base_logits and lam_t the schedule's at epoch 0 (detach semantics)."""
    y = one_hot(labels, np.shape(base_logits)[-1])
    a_star = softplus(base_logits) + 1.0 - y + cfg.eps
    p_star = a_star / a_star.sum(axis=-1, keepdims=True)
    off = 1.0 - y
    lam_t = lambda_schedule(cfg, 0)

    def value(logits):
        alpha = softplus(np.asarray(logits, dtype=np.float64)) + 1.0
        alpha0 = alpha.sum(axis=-1)
        surrogate = alpha0 * np.log(alpha0) + np.sum(alpha * np.log(p_star / alpha), axis=-1)
        pen = np.sum((alpha * off) ** 2, axis=-1)
        return surrogate.mean(axis=-1) + lam_t * pen.mean(axis=-1)

    return value


def dappr_loss_fd_gradient(logits, labels, cfg: LossConfig) -> np.ndarray:
    """FD gradient of the surrogate loss wrt logits, p* frozen at the base."""
    return fd_gradient(frozen_pstar_objective(logits, labels, cfg), logits)


def vacuous_penalty_value(logits):
    """Vacuous-evidence penalty per batch: weight * row mean of sum_k (alpha_k - 1)^2."""
    alpha = softplus(np.asarray(logits, dtype=np.float64)) + 1.0
    return VACUOUS_WEIGHT * np.mean(np.sum((alpha - 1.0) ** 2, axis=-1), axis=-1)


def network_fd_gradient(params: NetworkParams, x, value_fn) -> np.ndarray:
    """FD gradient of value_fn(logits) wrt all weights and biases.

    The 2P perturbed networks are one pack_network stack (flat_gradient's
    order) with one forward; value_fn maps its (2P, n, K) logits to one
    value per network.  params itself is never written.
    """
    def values(thetas):
        flat, stack = pack_network(params, copies=len(thetas))
        flat[...] = thetas
        return value_fn(forward(stack, x))

    return fd_gradient(values, pack_network(params)[0])


def step_fd_gradient(params: NetworkParams, x, labels, cfg: LossConfig,
                     background=None) -> np.ndarray:
    """FD oracle of nn._step_gradients for the dappr loss at epoch 0.

    The value is the frozen-p* surrogate on the data rows x plus, when
    background rows are given, the vacuous-evidence penalty on them, all
    through one network; flat in flat_gradient's order.
    """
    b = len(x)
    rows = x if background is None else np.vstack([x, background])
    data_value = frozen_pstar_objective(forward(params, rows)[:b], labels, cfg)

    def value(logits):
        data = data_value(logits[..., :b, :])
        return data if background is None else data + vacuous_penalty_value(logits[..., b:, :])

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
                          dappr_loss_fd_gradient(z, labels, cfg))


def penalty_gradient_error(rng) -> float:
    """vacuous_evidence_penalty's logit gradient against its FD oracle."""
    z = rng.normal(0.0, 2.0, size=(4, 3))
    return relative_error(vacuous_evidence_penalty(z)[1],
                          fd_gradient(vacuous_penalty_value, z))


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
