"""Independent brute-force oracles used by the test suite.

Everything here is deliberately written from the definitions, in plain
Python (plain numpy for the network oracles), without importing the
package's own code.  Slow is fine; these run on tiny inputs.
"""

import copy
import math

import numpy as np


def rank_walk_average_precision(labels, scores):
    """Non-interpolated average precision from the textbook definition.

    Items are visited in descending score order; ties keep their original
    input order (stable).  The precision values at each positive are summed
    in that same visiting order, so results are bit-identical to any
    implementation sharing the convention, not merely close.
    """
    order = sorted(range(len(labels)), key=lambda i: (-scores[i], i))
    n_pos = sum(1 for v in labels if v == 1)
    if n_pos == 0 or n_pos == len(labels):
        raise ValueError("average precision needs both classes")
    hits = 0
    total = 0.0
    for rank, idx in enumerate(order, start=1):
        if labels[idx] == 1:
            hits += 1
            total += hits / rank
    return total / n_pos


def pairwise_auroc(labels, scores):
    """AUROC as the literal pairwise comparison probability.

    Counts, over all (positive, negative) pairs, wins as 1 and ties as 1/2.
    Quadratic and exact; no rank arithmetic in sight.
    """
    pos = [scores[i] for i in range(len(labels)) if labels[i] == 1]
    neg = [scores[i] for i in range(len(labels)) if labels[i] != 1]
    if not pos or not neg:
        raise ValueError("auroc needs both classes")
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def simplex_lattice(k, m):
    """All compositions of m into k parts, as tuples, lexicographic."""
    if k == 1:
        return [(m,)]
    out = []
    for first in range(m + 1):
        for rest in simplex_lattice(k - 1, m - first):
            out.append((first,) + rest)
    return out


def exhaustive_inner_argmax(alpha, y, m):
    """Grid argmax of log g(p; alpha) - log p_y over the simplex lattice.

    The inner objective of the surrogate: find the lattice point where the
    learned possibility most overestimates the likelihood of label y.
    Returns the probability vector as a tuple.
    """
    k = len(alpha)
    a0 = sum(alpha)
    best_val = -math.inf
    best_p = None
    for comp in simplex_lattice(k, m):
        p = [c / m for c in comp]
        if p[y] == 0.0:
            continue
        logg = 0.0
        dead = False
        for ak, pk in zip(alpha, p):
            if ak == 0.0:
                continue
            if pk == 0.0:
                dead = True
                break
            logg += ak * math.log(pk / (ak / a0))
        if dead:
            continue
        val = logg - math.log(p[y])
        if val > best_val:
            best_val = val
            best_p = tuple(p)
    return best_p


def central_difference(f, x, i, h):
    """Scalar central difference of f at x along coordinate i."""
    up = list(x)
    dn = list(x)
    up[i] += h
    dn[i] -= h
    return (f(up) - f(dn)) / (2.0 * h)


def blob_mixture_density(point, n_classes, spread, radius=4.0):
    """Density of the equal-weight gaussian_blobs mixture at one point.

    Written from the generator's stated geometry, not its code: class k is an
    isotropic Gaussian with standard deviation ``spread`` around the point at
    angle 2*pi*k/K on a circle of ``radius`` in the first two coordinates,
    with every further coordinate centred at zero.
    """
    d = len(point)
    norm = (2.0 * math.pi * spread * spread) ** (-d / 2.0)
    total = 0.0
    for k in range(n_classes):
        angle = 2.0 * math.pi * k / n_classes
        centre = [radius * math.cos(angle), radius * math.sin(angle)] + [0.0] * (d - 2)
        sq = sum((p - c) ** 2 for p, c in zip(point, centre))
        total += norm * math.exp(-sq / (2.0 * spread * spread))
    return total / n_classes


class TextbookAdam:
    """Adam (Kingma & Ba, 2015) with bias correction, one array at a time."""

    def __init__(self, arrays, lr, b1=0.9, b2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, b1, b2, eps
        self.t = 0
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]

    def step(self, arrays, grads):
        """Update every array in place from its own gradient."""
        self.t += 1
        for i, (p, g) in enumerate(zip(arrays, grads)):
            self.m[i] = self.b1 * self.m[i] + (1 - self.b1) * g
            self.v[i] = self.b2 * self.v[i] + (1 - self.b2) * g * g
            m_hat = self.m[i] / (1 - self.b1**self.t)
            v_hat = self.v[i] / (1 - self.b2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _relu_forward(weights, biases, x):
    """Pre-activations and activations of a relu MLP with an identity output."""
    pre, acts = [], [x]
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ w + b
        pre.append(z)
        acts.append(z if i == len(weights) - 1 else np.maximum(z, 0.0))
    return pre, acts


def _row_softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def soft_label_finetune(weights, biases, rest_x, rest_y, forced_x, forced_target,
                        epochs, lr, seed, batch_size):
    """One leave-one-out probe fine-tune, one network at a time.

    Deep-copies the network and runs textbook per-array Adam (Kingma & Ba,
    2015) on softmax cross-entropy.  Each batch is rest rows, shuffled per
    epoch by ``default_rng([seed, 2, epoch])``, plus the forced sample with
    its (possibly soft) target.  Returns the tuned (weights, biases).
    """
    weights, biases = copy.deepcopy(weights), copy.deepcopy(biases)
    opt = TextbookAdam(weights + biases, lr)
    k = weights[-1].shape[1]
    rest_targets = np.zeros((rest_y.size, k))
    rest_targets[np.arange(rest_y.size), rest_y] = 1.0
    for epoch in range(epochs):
        perm = np.random.default_rng([seed, 2, epoch]).permutation(rest_x.shape[0])
        for start in range(0, rest_x.shape[0], batch_size):
            idx = perm[start:start + batch_size]
            xb = np.vstack([rest_x[idx], forced_x[None, :]])
            targets = np.vstack([rest_targets[idx], forced_target[None, :]])
            pre, acts = _relu_forward(weights, biases, xb)
            delta = (_row_softmax(pre[-1]) - targets) / xb.shape[0]
            grads_w, grads_b = [None] * len(weights), [None] * len(weights)
            for i in range(len(weights) - 1, -1, -1):
                grads_w[i] = acts[i].T @ delta
                grads_b[i] = delta.sum(axis=0)
                if i > 0:
                    delta = (delta @ weights[i].T) * (pre[i - 1] > 0.0)
            opt.step(weights + biases, grads_w + grads_b)
    return weights, biases


def total_cross_entropy(weights, biases, x, y):
    """Sum over rows of -log softmax(logits)[y]."""
    logits = _relu_forward(weights, biases, x)[0][-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    return float(-np.sum(log_probs[np.arange(x.shape[0]), y]))
