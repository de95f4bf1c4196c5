"""Small fully connected classifier with hand-written backprop.

ReLU hidden layers, identity output layer, float64 throughout.  No autodiff:
the loss modules supply analytic logit gradients and this module chains them
through the layers.  Training is bit-for-bit reproducible for a given seed.

Parameters live in one flat float64 buffer (``pack_network``).  A stack of S
networks is an (S, block) buffer, model-major, whose per-layer views carry a
leading network axis; the forward and backward pass take a stack as they
take one network.  ``train`` trains a list of configs that differ only in
seed as one stack: one forward, loss call, backward and optimizer step per
step for all of them.  The loss and the optimizer work row by row and each
network keeps its own shuffles and background draws, so every network gets
the bits it would get trained alone.

With the concentration head, every training step also draws background
inputs from a broad Gaussian around the training inputs and fits the
vacuous Dirichlet (alpha = 1) there, in the same forward/backward pass as
the data rows.  Without it a relu network's evidence keeps growing along
every ray leaving the data (Hein et al., CVPR 2019); with it, inputs the
data do not constrain get alpha0 near K.

``forward`` scores rows in fixed-size blocks through the same layer loop
that training uses, so its peak memory is one block's layers plus the
logits, whatever the number of rows.  Inputs larger than one block can
differ from one whole-matrix pass in the last bits of the matmuls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .loss import (LossConfig, cross_entropy_loss, dappr_loss, softplus,
                   softplus_plus_one, vacuous_evidence_penalty)
from .possibility import DirichletParams

OPTIMIZERS = ("adam", "sgd")
LOSS_KINDS = ("dappr", "cross_entropy")
# Background law for the vacuous-evidence term: a Gaussian at the training
# mean whose per-feature std is this multiple of the training std.  Twice the
# std puts most draws off the data while still covering the near field.
BACKGROUND_SCALE = 2.0
# Rows per block of forward's layer loop.  A block's widest layer (4096 x 32
# float64, 1 MB) stays in cache, and forward's peak memory is set by the
# block, not by the input.  Every batch the shipped configs train on or
# score fits in one block, so their outputs keep their bits.
_BLOCK_ROWS = 4096


@dataclass(eq=False)
class NetworkParams:
    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    seed: int
    loss_kind: str


@dataclass(frozen=True)
class TrainConfig:
    layer_sizes: tuple[int, ...]
    epochs: int
    batch_size: int
    seed: int
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    loss_kind: str = "dappr"
    loss: LossConfig = field(default_factory=LossConfig)
    early_stopping: bool = False
    weight_decay: float = 0.0

    def __post_init__(self):
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output layer sizes")
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError(f"layer sizes must be positive, got {self.layer_sizes}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind must be one of {LOSS_KINDS}")
        if self.weight_decay < 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")


@dataclass(eq=False)
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    val_mean_alpha0: list[float] = field(default_factory=list)


def init_network(layer_sizes, seed: int, loss_kind: str = "dappr") -> NetworkParams:
    """Fan-in scaled uniform init, U(-sqrt(6/fan_in), sqrt(6/fan_in)); zero biases."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"bad layer sizes {sizes}")
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"loss_kind must be one of {LOSS_KINDS}")
    rng = np.random.default_rng([seed, 0])
    weights, biases = [], []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / n_in)
        weights.append(rng.uniform(-bound, bound, size=(n_in, n_out)))
        biases.append(np.zeros(n_out))
    return NetworkParams(sizes, weights, biases, int(seed), loss_kind)


def pack_network(params: NetworkParams, copies: int | None = None):
    """(flat, packed): a copy of params whose arrays are views into one buffer.

    ``flat`` is a contiguous float64 buffer holding every weight, then every
    bias, layer by layer; ``packed`` is a NetworkParams whose weights and
    biases are views into it, so an update of ``flat`` updates the network.
    With ``copies=S`` the buffer is model-major, (S, block) with ``flat[s]``
    network s in the one-network order, and the views carry a leading
    network axis, (S, n_in, n_out) weights and (S, 1, n_out) biases, each
    slice a copy of params.
    """
    lead, bias_lead = ((), ()) if copies is None else ((copies,), (copies, 1))
    arrays = params.weights + params.biases
    shapes = ([lead + w.shape for w in params.weights]
              + [bias_lead + b.shape for b in params.biases])
    flat = np.empty(lead + (sum(a.size for a in arrays),))
    views, at = [], 0
    for shape, value in zip(shapes, arrays):
        view = flat[..., at:at + value.size].reshape(shape)
        view[...] = value
        views.append(view)
        at += value.size
    n = len(params.weights)
    return flat, replace(params, weights=views[:n], biases=views[n:])


def network_slice(params: NetworkParams, s: int) -> NetworkParams:
    """Network s of a stack from pack_network(copies=S), as views."""
    return replace(params, weights=[w[s] for w in params.weights],
                   biases=[b[s, 0] for b in params.biases])


def flat_gradient(grads_w, grads_b, out: np.ndarray | None = None) -> np.ndarray:
    """backward's gradients in pack_network's buffer order.

    (block,) for one network, (S, block) for a stack.  Written into ``out``
    when given, so a training loop reuses one buffer.
    """
    lead = grads_b[0].shape[:-1]
    return np.concatenate([g.reshape(lead + (-1,)) for g in grads_w + grads_b],
                          axis=-1, out=out)


def _forward_cached(params: NetworkParams, x: np.ndarray) -> list[np.ndarray]:
    """Every layer's output, inputs first: [x, hidden..., logits].

    A stack takes (b, d) rows shared by all its networks or (S, b, d) rows,
    one set per network.  Only the activations are kept: the bias add and
    the relu run in place on each layer's matmul output.
    """
    acts = [x]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = acts[-1] @ w
        h += b
        if i < last:
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return acts


def forward(params: NetworkParams, x) -> np.ndarray:
    """Logits for a batch of feature rows, (n, K), or (S, n, K) for a stack.

    _forward_cached runs on consecutive blocks of _BLOCK_ROWS rows and
    each block's logits go into one preallocated output, so only one
    block's layers are alive at a time.  Up to one block the logits are
    _forward_cached's bit for bit; a larger input can differ from one
    whole-matrix pass in the last bits, because BLAS picks its kernel by
    matrix size.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.layer_sizes[0]:
        raise ValueError(
            f"expected inputs of shape (batch, {params.layer_sizes[0]}), got {x.shape}"
        )
    n = x.shape[0]
    out = np.empty(params.weights[-1].shape[:-2] + (n, params.layer_sizes[-1]))
    for start in range(0, n, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        out[..., rows, :] = _forward_cached(params, x[rows])[-1]
    return out


def backward(params: NetworkParams, acts, grad_logits):
    """Weight and bias gradients from a logit gradient (chain rule only).

    ``acts`` is _forward_cached's list.  A unit's relu passed the gradient
    exactly where its output is positive, the same mask as a positive
    pre-activation.  Works for one network or a stack from
    pack_network(copies=S); a stack's gradients are (S, n_in, n_out) and
    (S, n_out).
    """
    grads_w = [None] * len(params.weights)
    grads_b = [None] * len(params.biases)
    delta = grad_logits
    for i in range(len(params.weights) - 1, -1, -1):
        grads_w[i] = acts[i].swapaxes(-1, -2) @ delta
        grads_b[i] = delta.sum(axis=-2)
        if i > 0:
            delta = delta @ params.weights[i].swapaxes(-1, -2)
            delta *= acts[i] > 0.0
    return grads_w, grads_b


class _Adam:
    """Adam (Kingma & Ba, 2015) as one in-place update of a flat parameter buffer."""

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, flat, lr):
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)
        self._scratch = np.empty_like(flat)

    def step(self, flat, grad):
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g;
        # flat -= lr m_hat / (sqrt(v_hat) + eps), term for term in that
        # order, so the bits match the textbook expressions
        self.t += 1
        m, v, tmp = self.m, self.v, self._scratch
        m *= self.b1
        m += np.multiply(1 - self.b1, grad, out=tmp)
        v *= self.b2
        np.multiply(1 - self.b2, grad, out=tmp)
        tmp *= grad
        v += tmp
        np.divide(v, 1 - self.b2**self.t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        step = np.divide(m, 1 - self.b1**self.t)
        step *= self.lr
        step /= tmp
        flat -= step


class _Sgd:
    def __init__(self, flat, lr):
        self.lr = lr

    def step(self, flat, grad):
        flat -= self.lr * grad


_LOSS_FNS = {"dappr": dappr_loss, "cross_entropy": cross_entropy_loss}


def background_law(train_x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(centre, scale) of the Gaussian background law, from training inputs only.

    Centre is the per-feature training mean, scale BACKGROUND_SCALE times the
    per-feature training std; a feature with zero spread gets scale
    BACKGROUND_SCALE so its background draws still leave the data.
    """
    std = train_x.std(axis=0)
    return train_x.mean(axis=0), BACKGROUND_SCALE * np.where(std > 0.0, std, 1.0)


def _step_gradients(params: NetworkParams, x, labels, loss_fn, loss_cfg,
                    epoch: int, background=None):
    """Loss output and weight/bias gradients of one training step of a stack.

    ``params`` is a stack from pack_network(copies=S), ``x`` (S, b, d) and
    ``labels`` (S, b), one set of rows per network; one ``loss_fn`` call
    scores the (S, b, K) data logits.  ``background`` rows (S, b, d), when
    given, share the forward/backward pass with the data rows and carry the
    vacuous-evidence penalty, one call for the stack.  Returns (the loss
    output, one value per network over its data rows, grads_w, grads_b).
    """
    b = x.shape[1]
    if background is not None:
        x = np.concatenate([x, background], axis=1)
    acts = _forward_cached(params, x)
    logits = acts[-1]
    out = loss_fn(logits[:, :b], labels, loss_cfg, epoch)
    grad_logits = out.grad_logits if background is None else np.concatenate(
        [out.grad_logits, vacuous_evidence_penalty(logits[:, b:])[1]], axis=1)
    return (out, *backward(params, acts, grad_logits))


def train(train_x, train_y, val_x, val_y, cfg):
    """Mini-batch training of one TrainConfig, or of a list of them as one stack.

    One config returns (params, history).  A list of configs that differ
    only in ``seed`` returns one (params, history) per config, in order, each
    bit for bit what that config trained alone returns: the networks share
    every forward pass, loss call, backward pass and optimizer step, and
    each keeps its own shuffles and background draws.

    Shuffling is Fisher-Yates with a per-epoch derived seed, so runs are
    reproducible.  For the dappr loss each batch of b data rows is joined by
    b background rows from ``background_law(train_x)``, drawn per epoch from
    their own derived seed, which carry the vacuous-evidence penalty;
    history.train_loss records the data term only.  The loss schedule
    horizon is pinned to cfg.epochs.  With early stopping enabled the
    returned params are the best-validation-accuracy snapshot, otherwise the
    final ones; epochs=0 returns the freshly initialized network.
    """
    configs = [cfg] if isinstance(cfg, TrainConfig) else list(cfg)
    if not configs:
        raise ValueError("need at least one TrainConfig")
    first = configs[0]
    if any(replace(c, seed=first.seed) != first for c in configs):
        raise ValueError("configs trained as one stack may differ in seed only")
    train_x = np.asarray(train_x, dtype=np.float64)
    train_y = np.asarray(train_y)
    val_x = np.asarray(val_x, dtype=np.float64)
    val_y = np.asarray(val_y)
    if train_x.shape[0] != train_y.shape[0]:
        raise ValueError("train features and labels disagree on length")
    if train_x.shape[0] == 0:
        raise ValueError("training set is empty")

    seeds = [c.seed for c in configs]
    nets = [init_network(first.layer_sizes, seed, first.loss_kind) for seed in seeds]
    flat, params = pack_network(nets[0], copies=len(nets))
    for row, net in zip(flat, nets):
        row[...] = pack_network(net)[0]
    grad = np.empty_like(flat)
    n_weights = sum(w.size for w in nets[0].weights)
    histories = [TrainHistory() for _ in configs]
    loss_fn = _LOSS_FNS[first.loss_kind]
    loss_cfg = replace(first.loss, total_epochs=max(first.epochs, 1))
    opt = (_Adam if first.optimizer == "adam" else _Sgd)(flat, first.learning_rate)

    n, d = train_x.shape
    vacuous = first.loss_kind == "dappr"
    if vacuous:
        centre, scale = background_law(train_x)
    best = [None] * len(configs)
    best_acc = [-1.0] * len(configs)
    for epoch in range(first.epochs):
        perms = np.stack([np.random.default_rng([seed, 1, epoch]).permutation(n)
                          for seed in seeds])
        if vacuous:
            background = np.stack([
                centre + scale * np.random.default_rng([seed, 2, epoch]).standard_normal((n, d))
                for seed in seeds])
        shuffled_x, shuffled_y = train_x[perms], train_y[perms]
        epoch_loss = np.zeros(len(configs))
        for start in range(0, n, first.batch_size):
            rows = slice(start, start + first.batch_size)
            labels = shuffled_y[:, rows]
            out, grads_w, grads_b = _step_gradients(
                params, shuffled_x[:, rows], labels, loss_fn, loss_cfg, epoch,
                background[:, rows] if vacuous else None)
            flat_gradient(grads_w, grads_b, grad)
            if first.weight_decay > 0.0:
                grad[:, :n_weights] += first.weight_decay * flat[:, :n_weights]
            opt.step(flat, grad)
            epoch_loss += out.value * labels.shape[1]

        logits = forward(params, val_x)
        for s, history in enumerate(histories):
            history.train_loss.append(float(epoch_loss[s]) / n)
            acc = float(np.mean(np.argmax(logits[s], axis=1) == val_y)) if val_y.size else 0.0
            history.val_accuracy.append(acc)
            history.val_mean_alpha0.append(
                float(np.mean(np.sum(softplus(logits[s]) + 1.0, axis=1)))
                if val_y.size else 0.0)
            if first.early_stopping and acc > best_acc[s]:
                best_acc[s] = acc
                best[s] = flat[s].copy()

    for row, snapshot in zip(flat, best):
        if snapshot is not None:
            row[...] = snapshot
    results = [(replace(network_slice(params, s), seed=seed), history)
               for s, (seed, history) in enumerate(zip(seeds, histories))]
    return results[0] if isinstance(cfg, TrainConfig) else results


def predict_labels(params: NetworkParams, x) -> np.ndarray:
    return np.argmax(forward(params, x), axis=1)


def predict_alpha(params: NetworkParams, x) -> DirichletParams:
    """Concentration parameters softplus(z) + 1: one (N, K) batch for N input rows."""
    return softplus_plus_one(forward(params, x))


def save_checkpoint(params: NetworkParams, path) -> None:
    """JSON checkpoint: layer sizes, weights (with biases), seed, loss kind."""
    doc = {
        "layer_sizes": list(params.layer_sizes),
        "weights": [[w.tolist(), b.tolist()] for w, b in zip(params.weights, params.biases)],
        "seed": params.seed,
        "loss_kind": params.loss_kind,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> NetworkParams:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        sizes = tuple(int(s) for s in doc["layer_sizes"])
        weights = [np.asarray(pair[0], dtype=np.float64) for pair in doc["weights"]]
        biases = [np.asarray(pair[1], dtype=np.float64) for pair in doc["weights"]]
        seed = int(doc["seed"])
        loss_kind = doc["loss_kind"]
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed checkpoint {path}: {exc}") from exc
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"malformed checkpoint {path}: bad loss_kind {loss_kind!r}")
    if len(weights) != len(sizes) - 1:
        raise ValueError(f"malformed checkpoint {path}: {len(weights)} layers stored, "
                         f"layer_sizes {list(sizes)} need {len(sizes) - 1}")
    for i, (w, b) in enumerate(zip(weights, biases)):
        if w.shape != (sizes[i], sizes[i + 1]) or b.shape != (sizes[i + 1],):
            raise ValueError(f"malformed checkpoint {path}: layer {i} shape mismatch")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError(f"malformed checkpoint {path}: layer {i} has non-finite values")
    return NetworkParams(sizes, weights, biases, seed, loss_kind)
