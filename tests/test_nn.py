import inspect
import math
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dappr import gradcheck, nn
from dappr.datasets import gaussian_blobs, two_moons
from dappr import loss
from dappr.loss import (LossConfig, cross_entropy_loss, dappr_loss, lambda_schedule,
                        softplus, vacuous_evidence_penalty)
from dappr.nn import (
    BACKGROUND_SCALE,
    NetworkParams,
    TrainConfig,
    _Adam,
    _forward_cached,
    _step_gradients,
    backward,
    background_law,
    forward,
    init_network,
    load_checkpoint,
    network_slice,
    pack_network,
    predict_alpha,
    save_checkpoint,
    train,
)
from oracles import TextbookAdam


def _blob_split(n_per_class=40, seed=5, spread=1.0):
    ds = gaussian_blobs(3, n_per_class, 2, spread, seed)
    rng = np.random.default_rng(9)
    perm = rng.permutation(ds.n)
    cut = int(0.8 * ds.n)
    tr, va = perm[:cut], perm[cut:]
    return (ds.features[tr], ds.labels[tr], ds.features[va], ds.labels[va])


# ---------------------------------------------------------------------------
# initialization and forward pass


def test_init_shapes_and_bounds():
    p = init_network((4, 16, 3), seed=0)
    assert [w.shape for w in p.weights] == [(4, 16), (16, 3)]
    assert [b.shape for b in p.biases] == [(16,), (3,)]
    assert all(np.all(b == 0.0) for b in p.biases)
    assert np.all(np.abs(p.weights[0]) <= np.sqrt(6.0 / 4))
    assert np.all(np.abs(p.weights[1]) <= np.sqrt(6.0 / 16))


def test_init_is_seed_deterministic():
    a = init_network((2, 8, 2), seed=7)
    b = init_network((2, 8, 2), seed=7)
    c = init_network((2, 8, 2), seed=8)
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    assert any(not np.array_equal(x, y) for x, y in zip(a.weights, c.weights))


def test_forward_matches_hand_computation():
    w1 = np.array([[1.0, -1.0], [0.5, 2.0]])
    b1 = np.array([0.1, -0.2])
    w2 = np.array([[2.0, 0.0], [1.0, -1.0]])
    b2 = np.array([0.0, 0.5])
    p = NetworkParams((2, 2, 2), [w1, w2], [b1, b2], seed=0, loss_kind="dappr")
    x = np.array([[1.0, 2.0]])
    hidden = np.maximum(x @ w1 + b1, 0.0)
    want = hidden @ w2 + b2
    assert np.array_equal(forward(p, x), want)


def _plain_layers(params, x):
    """Pre-activations of the textbook layer loop, h @ w + b then relu."""
    pre, h = [], x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w + b
        pre.append(z)
        h = z if i == len(params.weights) - 1 else np.maximum(z, 0.0)
    return pre


@pytest.mark.parametrize("copies", [None, 3])
def test_forward_equals_plain_layer_loop_bit_for_bit(copies):
    # the bias is added in place: the same additions, so the same bits, and
    # neither the inputs nor the parameters are written
    rng = np.random.default_rng(64)
    nets = [init_network((2, 32, 32, 3), seed=s) for s in range(copies or 1)]
    for net in nets:
        net.biases = [rng.normal(size=b.shape) for b in net.biases]
    params = nets[0] if copies is None else _stack(nets)[1]
    x = rng.normal(0.0, 3.0, size=(257, 2))
    arrays = [x] + params.weights + params.biases
    before = [a.tobytes() for a in arrays]
    want = _plain_layers(params, x)
    acts = _forward_cached(params, x)
    # the cache keeps each layer's output only: relu'd hidden layers, raw logits
    assert acts[0] is x and len(acts) == len(want) + 1
    assert all(np.array_equal(a, np.maximum(b, 0.0)) for a, b in zip(acts[1:-1], want[:-1]))
    assert np.array_equal(acts[-1], want[-1])
    assert np.array_equal(forward(params, x), want[-1])
    assert [a.tobytes() for a in arrays] == before


BLOCK = nn._BLOCK_ROWS


@pytest.mark.parametrize("copies", [None, 3])
@pytest.mark.parametrize("n", [0, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_forward_runs_the_layer_loop_block_by_block(monkeypatch, copies, n):
    # each block of rows goes through _forward_cached alone, so the logits are
    # the blocks' logits joined, bit for bit, and the whole-matrix loop's up
    # to BLAS rounding
    rng = np.random.default_rng(65)
    nets = [init_network((2, 32, 32, 3), seed=s) for s in range(copies or 1)]
    for net in nets:
        net.biases = [rng.normal(size=b.shape) for b in net.biases]
    params = nets[0] if copies is None else _stack(nets)[1]
    x = rng.normal(0.0, 3.0, size=(n, 2))
    arrays = [x] + params.weights + params.biases
    before = [a.tobytes() for a in arrays]
    plain = _plain_layers(params, x)[-1]
    blocks = [_forward_cached(params, x[i:i + BLOCK])[-1] for i in range(0, n, BLOCK)]
    calls = []

    def counted_loop(params, x):
        calls.append(x.shape[0])
        return _forward_cached(params, x)

    monkeypatch.setattr(nn, "_forward_cached", counted_loop)
    got = forward(params, x)
    assert len(calls) == math.ceil(n / BLOCK)
    assert calls == [min(BLOCK, n - i) for i in range(0, n, BLOCK)]
    assert got.shape == plain.shape
    assert np.array_equal(got, np.concatenate(blocks, axis=-2) if blocks else plain)
    assert np.allclose(got, plain, rtol=0.0, atol=1e-12)
    assert [a.tobytes() for a in arrays] == before


def test_forward_peak_memory_is_set_by_the_block_not_the_input():
    # the output, plus at most four blocks of the widest layer alive at once
    params = init_network((2, 32, 32, 3), seed=0)
    x = np.random.default_rng(66).normal(size=(8 * BLOCK, 2))
    tracemalloc.start()
    try:
        out = forward(params, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 4 * BLOCK * max(params.layer_sizes) * 8


def test_forward_rejects_wrong_width():
    p = init_network((3, 4, 2), seed=0)
    with pytest.raises(ValueError):
        forward(p, np.zeros((5, 2)))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(layer_sizes=(2,), epochs=1, batch_size=8, seed=0)
    with pytest.raises(ValueError, match=r"input and output layer sizes, got \(0, 3\)"):
        TrainConfig(layer_sizes=(0, 3), epochs=1, batch_size=8, seed=0)
    with pytest.raises(ValueError, match=r"^hidden sizes must be positive, got \(4, 0\)$"):
        TrainConfig(layer_sizes=(2, 4, 0, 3), epochs=1, batch_size=8, seed=0)
    with pytest.raises(ValueError):
        TrainConfig(layer_sizes=(2, 3), epochs=-1, batch_size=8, seed=0)
    with pytest.raises(ValueError):
        TrainConfig(layer_sizes=(2, 3), epochs=1, batch_size=0, seed=0)
    with pytest.raises(ValueError):
        TrainConfig(layer_sizes=(2, 3), epochs=1, batch_size=8, seed=0, loss_kind="mse")


# ---------------------------------------------------------------------------
# gradients through the network


@pytest.mark.parametrize("loss_kind", ["dappr", "cross_entropy"])
@pytest.mark.parametrize("sizes", [(2, 3), (2, 8, 3), (3, 16, 8, 4)])
def test_end_to_end_gradients_match_fd(loss_kind, sizes):
    rng = np.random.default_rng(42)
    params = init_network(sizes, seed=3, loss_kind=loss_kind)
    x = rng.normal(size=(6, sizes[0]))
    labels = rng.integers(0, sizes[-1], size=6)

    from dappr.nn import _forward_cached, backward

    acts = _forward_cached(params, x)
    if loss_kind == "dappr":
        out = dappr_loss(acts[-1], labels, lam=2e-3)
        fd = gradcheck.step_fd_gradient(params, x, labels, 2e-3)
    else:
        out = cross_entropy_loss(acts[-1], labels)
        fd = gradcheck.network_fd_gradient(
            params, x, lambda logits: cross_entropy_loss(
                logits, np.broadcast_to(labels, logits.shape[:-1])).value)

    grad, grads = pack_network(params)
    backward(params, acts, out.grad_logits, grads)
    assert gradcheck.relative_error(grad, fd) < 1e-4


@pytest.mark.parametrize("sizes", [(2, 3), (2, 8, 3), (3, 16, 8, 4)])
def test_training_step_with_background_matches_fd(sizes):
    rng = np.random.default_rng(43)
    params = init_network(sizes, seed=3)
    x = rng.normal(size=(6, sizes[0]))
    background = rng.normal(0.0, 4.0, size=(6, sizes[0]))
    labels = rng.integers(0, sizes[-1], size=6)

    # training's step on a stack of one network
    _, stack = pack_network(params, copies=1)
    grad, grads = pack_network(params, copies=1)
    out, vacuous = _step_gradients(stack, x[None], labels[None],
                                   partial(dappr_loss, lam=2e-3), grads, background[None])
    data_logits = forward(params, x)
    assert out.value[0] == pytest.approx(dappr_loss(data_logits, labels, 2e-3).value,
                                         rel=1e-12)
    assert vacuous[0] == pytest.approx(
        vacuous_evidence_penalty(forward(params, background))[0], rel=1e-12)
    fd = gradcheck.step_fd_gradient(params, x, labels, 2e-3, background)
    assert gradcheck.relative_error(grad[0], fd) < 1e-4


def test_near_relu_kink_looks_at_hidden_units_only():
    # hidden pre-activations on x = 0.5 are [0, 1]: the first unit sits on
    # its kink.  Shifted by 1 it is clear of it, though both logits are then
    # exactly 0: the output layer has no relu.
    w1 = np.array([[1.0, 2.0]])
    b1 = np.array([-0.5, 0.0])
    w2 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    b2 = np.array([0.0, 0.0])
    p = NetworkParams((1, 2, 2), [w1, w2], [b1, b2], seed=0, loss_kind="dappr")
    x = np.array([[0.5]])
    assert gradcheck.near_relu_kink(p, x)
    b1[0] += 1.0
    assert forward(p, x).tolist() == [[0.0, 0.0]]
    assert not gradcheck.near_relu_kink(p, x)



def test_network_fd_gradient_leaves_params_untouched():
    # the perturbations go to a packed copy: every weight and bias array of
    # params keeps its identity and its exact bits, also while value_fn runs
    rng = np.random.default_rng(44)
    params = init_network((3, 8, 4), seed=9)
    arrays = params.weights + params.biases
    before = [a.tobytes() for a in arrays]
    x = rng.normal(size=(5, 3))

    def value_fn(logits):
        assert [a.tobytes() for a in arrays] == before
        return np.sum(logits ** 2, axis=(-2, -1))

    gradcheck.network_fd_gradient(params, x, value_fn)
    assert all(a is b for a, b in zip(params.weights + params.biases, arrays))
    assert [a.tobytes() for a in arrays] == before


def test_network_fd_gradient_equals_a_loop_over_one_network():
    # one stacked forward over every perturbed network against moving one
    # coordinate of a single packed network at a time, bit for bit
    rng = np.random.default_rng(45)
    params = init_network((3, 16, 8, 4), seed=11)
    x = rng.normal(size=(6, 3))
    labels = rng.integers(0, 4, size=6)
    value_fn = gradcheck.frozen_pstar_objective(forward(params, x), labels, 2e-3)
    got = gradcheck.network_fd_gradient(params, x, value_fn)

    flat, packed = pack_network(params)
    h = gradcheck.FD_STEP
    want = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = value_fn(forward(packed, x))
        flat[i] = orig - h
        down = value_fn(forward(packed, x))
        flat[i] = orig
        want[i] = (up - down) / (2.0 * h)
    assert flat.size == 236
    assert got.tobytes() == want.tobytes()


def test_relu_blocks_gradient_through_dead_units():
    # one hidden unit driven permanently negative must keep zero gradient
    w1 = np.array([[1.0, 1.0]])
    b1 = np.array([0.0, -100.0])  # second unit always dead for x in [0, 1]
    w2 = np.array([[1.0, -1.0], [1.0, 1.0]])
    b2 = np.array([0.0, 0.0])
    p = NetworkParams((1, 2, 2), [w1, w2], [b1, b2], seed=0, loss_kind="cross_entropy")
    from dappr.nn import _forward_cached, backward

    x = np.array([[0.5]])
    acts = _forward_cached(p, x)
    out = cross_entropy_loss(acts[-1], np.array([0]))
    _, grads = pack_network(p)
    backward(p, acts, out.grad_logits, grads)
    assert grads.weights[0][0, 1] == 0.0  # into the dead unit
    assert grads.biases[0][1] == 0.0
    assert grads.weights[1][1, 0] == 0.0 and grads.weights[1][1, 1] == 0.0  # out of it


# ---------------------------------------------------------------------------
# flat parameter buffer and the network axis


def _stack(nets):
    """The networks as one stack from pack_network(copies=len(nets))."""
    flat, stack = pack_network(nets[0], copies=len(nets))
    for s, net in enumerate(nets):
        for dst, src in zip(stack.weights, net.weights):
            dst[s] = src
        for dst, src in zip(stack.biases, net.biases):
            dst[s, 0] = src
    return flat, stack


@pytest.mark.parametrize("copies", [None, 3])
def test_pack_network_views_one_buffer(copies):
    net = init_network((4, 16, 3), seed=0)
    flat, packed = pack_network(net, copies=copies)
    lead = () if copies is None else (copies,)
    assert [w.shape for w in packed.weights] == [lead + (4, 16), lead + (16, 3)]
    assert [b.shape for b in packed.biases] == ([(16,), (3,)] if copies is None
                                                else [(3, 1, 16), (3, 1, 3)])
    assert flat.dtype == np.float64 and flat.flags.c_contiguous
    assert flat.size == (1 if copies is None else copies) * (4 * 16 + 16 * 3 + 16 + 3)
    for s in range(copies or 1):
        one = packed if copies is None else network_slice(packed, s)
        assert all(np.array_equal(a, b) for a, b in zip(one.weights, net.weights))
        assert all(np.array_equal(a, b) for a, b in zip(one.biases, net.biases))
    flat += 1.0
    assert (packed.weights[0] == net.weights[0] + 1.0).all()
    assert not np.shares_memory(flat, net.weights[0])


def _plain_gradient(net, x, grad_logits):
    """One network's weight and bias gradients by the textbook chain rule,
    concatenated in pack_network's order: every weight, then every bias."""
    hs = [x]
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = hs[-1] @ w + b
        hs.append(z if i == len(net.weights) - 1 else np.maximum(z, 0.0))
    grads_w, grads_b, delta = [], [], grad_logits
    for i in range(len(net.weights) - 1, -1, -1):
        grads_w.insert(0, hs[i].T @ delta)
        grads_b.insert(0, delta.sum(axis=0))
        if i > 0:
            delta = (delta @ net.weights[i].T) * (hs[i] > 0.0)
    return np.concatenate([g.ravel() for g in grads_w + grads_b])


@pytest.mark.parametrize("copies, own_rows", [(None, False), (3, False), (3, True)],
                         ids=["one", "stack_shared_rows", "stack_own_rows"])
def test_backward_writes_the_plain_chain_rule_into_the_buffer(copies, own_rows):
    # backward writes every layer into its view of the gradient buffer, so
    # the buffer is the textbook gradient in pack_network's order, bit for
    # bit; row s of a stack's buffer is what network s gets run alone
    rng = np.random.default_rng(4)
    nets = [init_network((2, 8, 8, 3), seed=s) for s in range(copies or 1)]
    for net in nets:
        net.biases = [rng.normal(size=b.shape) for b in net.biases]
    params = nets[0] if copies is None else _stack(nets)[1]
    x = rng.normal(size=(copies, 33, 2) if own_rows else (33, 2))
    acts = _forward_cached(params, x)
    grad_logits = rng.normal(size=acts[-1].shape)
    grad, grads = pack_network(nets[0], copies=copies)
    grad[...] = np.nan  # a view backward does not write keeps its NaNs
    backward(params, acts, grad_logits, grads)
    if copies is None:
        assert grad.tobytes() == _plain_gradient(nets[0], x, grad_logits).tobytes()
        return
    for s, net in enumerate(nets):
        rows = x[s] if own_rows else x
        assert grad[s].tobytes() == _plain_gradient(net, rows, grad_logits[s]).tobytes()
        alone, alone_grads = pack_network(net)
        backward(net, _forward_cached(net, rows), grad_logits[s], alone_grads)
        assert grad[s].tobytes() == alone.tobytes()


def test_stack_buffer_is_model_major():
    rng = np.random.default_rng(5)
    nets = [init_network((3, 16, 8, 4), seed=s) for s in range(3)]
    for net in nets:
        net.biases = [rng.normal(size=b.shape) for b in net.biases]
    flat, _ = _stack(nets)
    assert flat.shape == (3, pack_network(nets[0])[0].size)
    for s, net in enumerate(nets):
        assert np.array_equal(flat[s], pack_network(net)[0])


@pytest.mark.parametrize("copies", [None, 2])
def test_adam_on_packed_buffer_equals_per_array_adam(copies):
    rng = np.random.default_rng(11)
    net = init_network((3, 16, 8, 4), seed=2)
    net.biases = [rng.normal(size=b.shape) for b in net.biases]
    flat, packed = pack_network(net, copies=copies)
    _, ref = pack_network(net, copies=copies)
    ref_arrays = [a.copy() for a in ref.weights + ref.biases]
    grad, grad_views = pack_network(net, copies=copies)
    opt = _Adam(flat, 1e-2)
    textbook = TextbookAdam(ref_arrays, 1e-2)
    for step in range(50):
        grads = [rng.normal(0.0, 10.0 ** rng.integers(-3, 2), size=a.shape)
                 for a in ref_arrays]
        for view, g in zip(grad_views.weights + grad_views.biases, grads):
            view[...] = g
        opt.step(flat, grad)
        textbook.step(ref_arrays, grads)
        assert all(np.array_equal(a, b)
                   for a, b in zip(packed.weights + packed.biases, ref_arrays)), step


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 24), st.integers(1, 300))
def test_one_adam_on_a_stack_equals_one_adam_per_network(seed, s, block):
    # training steps the whole (S, block) buffer at once; Adam is
    # elementwise, so every row gets the bits of its own optimizer
    rng = np.random.default_rng(seed)
    flat = rng.normal(size=(s, block))
    rows = flat.copy()
    stacked, alone = _Adam(flat, 1e-2), [_Adam(row, 1e-2) for row in rows]
    for _ in range(5):
        grad = rng.normal(0.0, 10.0 ** rng.integers(-3, 2), size=(s, block))
        stacked.step(flat, grad)
        for row, opt, g in zip(rows, alone, grad):
            opt.step(row, g)
    assert flat.tobytes() == rows.tobytes()


@pytest.mark.parametrize("batch", [1, 7, 33])
def test_stacked_network_equals_each_network_alone(batch):
    rng = np.random.default_rng(batch)
    nets = [init_network((2, 32, 32, 3), seed=s, loss_kind="cross_entropy") for s in range(3)]
    for net in nets:
        net.biases = [rng.normal(size=b.shape) for b in net.biases]
    _, stack = _stack(nets)
    x = rng.normal(size=(batch, 2))
    grad_logits = rng.normal(size=(3, batch, 3))
    acts = _forward_cached(stack, x)
    grad, grads = pack_network(nets[0], copies=3)
    backward(stack, acts, grad_logits, grads)
    for s, net in enumerate(nets):
        acts_s = _forward_cached(net, x)
        grad_s, grads_s = pack_network(net)
        backward(net, acts_s, grad_logits[s], grads_s)
        assert all(np.array_equal(a[s], b) for a, b in zip(acts[1:], acts_s[1:]))
        assert np.array_equal(grad[s], grad_s)
        assert np.array_equal(forward(network_slice(stack, s), x), acts_s[-1])


# ---------------------------------------------------------------------------
# training behavior


def _assert_same_training(got, want):
    (p, h), (q, g) = got, want
    assert p.seed == q.seed and p.loss_kind == q.loss_kind
    assert all(np.array_equal(a, b) for a, b in zip(p.weights + p.biases,
                                                    q.weights + q.biases))
    assert vars(h) == vars(g)  # every per-epoch field, loss components included


def _moons_split():
    ds = two_moons(240, 0.25, seed=3)
    perm = np.random.default_rng(0).permutation(ds.n)
    tr, va = perm[:180], perm[180:]
    return ds.features[tr], ds.labels[tr], ds.features[va], ds.labels[va]


STACK_CASES = {
    # dappr with its background rows; 96 rows at batch 20 end on a short batch
    "dappr": (_blob_split, dict(layer_sizes=(2, 16, 8, 3), epochs=4, batch_size=20)),
    "cross_entropy": (_blob_split, dict(layer_sizes=(2, 16, 3), epochs=4, batch_size=20,
                                        loss_kind="cross_entropy")),
    # K = 2 and three times the epochs
    "two_class_long": (_moons_split, dict(layer_sizes=(2, 16, 2), epochs=12, batch_size=16,
                                          learning_rate=0.2, loss_kind="cross_entropy")),
}


@pytest.mark.parametrize("case", list(STACK_CASES))
def test_stacked_configs_train_as_each_config_alone(case):
    split, spec = STACK_CASES[case]
    data = split()
    configs = [TrainConfig(seed=seed, **spec) for seed in (2, 3, 4)]
    stacked = train(*data, configs)
    assert len(stacked) == len(configs)
    for cfg, got in zip(configs, stacked):
        _assert_same_training(got, train(*data, cfg))


def test_stacked_step_calls_loss_and_optimizer_once_per_step(monkeypatch):
    tx, ty, vx, vy = _blob_split()  # 96 rows at batch 20: 5 steps per epoch
    counts = {"loss": 0, "optim_step": 0, "backward": 0}
    real_loss, real_step, real_backward = dappr_loss, _Adam.step, nn.backward

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # train looks the loss up as an nn global, so a patched one is what it calls
    monkeypatch.setattr(nn, "dappr_loss", counted("loss", real_loss))
    monkeypatch.setattr(_Adam, "step", counted("optim_step", real_step))
    monkeypatch.setattr(nn, "backward", counted("backward", real_backward))
    cfg = TrainConfig(layer_sizes=(2, 8, 3), epochs=2, batch_size=20, seed=1)
    train(tx, ty, vx, vy, [replace(cfg, seed=seed) for seed in (1, 2, 3)])
    assert counts == {"loss": 10, "optim_step": 10, "backward": 10}


def test_stacked_configs_must_differ_in_seed_only():
    tx, ty, vx, vy = _blob_split()
    cfg = TrainConfig(layer_sizes=(2, 8, 3), epochs=1, batch_size=16, seed=1)
    for other in (replace(cfg, seed=2, epochs=2), replace(cfg, seed=2, learning_rate=1e-2),
                  replace(cfg, seed=2, loss=LossConfig(lam=0.0)),
                  replace(cfg, seed=2, loss_kind="cross_entropy")):
        with pytest.raises(ValueError, match="seed only"):
            train(tx, ty, vx, vy, [cfg, other])
    with pytest.raises(ValueError, match="at least one"):
        train(tx, ty, vx, vy, [])


def test_training_is_bit_deterministic():
    tx, ty, vx, vy = _blob_split()
    cfg = TrainConfig(layer_sizes=(2, 16, 3), epochs=5, batch_size=16, seed=21)
    p1, h1 = train(tx, ty, vx, vy, cfg)
    p2, h2 = train(tx, ty, vx, vy, cfg)
    assert all(np.array_equal(a, b) for a, b in zip(p1.weights, p2.weights))
    assert all(np.array_equal(a, b) for a, b in zip(p1.biases, p2.biases))
    assert h1.train_loss == h2.train_loss
    assert h1.val_accuracy == h2.val_accuracy
    assert h1.val_mean_alpha0 == h2.val_mean_alpha0


def test_zero_epochs_returns_fresh_init():
    tx, ty, vx, vy = _blob_split()
    cfg = TrainConfig(layer_sizes=(2, 8, 3), epochs=0, batch_size=16, seed=4)
    p, h = train(tx, ty, vx, vy, cfg)
    fresh = init_network((2, 8, 3), seed=4)
    assert all(np.array_equal(a, b) for a, b in zip(p.weights, fresh.weights))
    assert h.train_loss == [] and h.val_accuracy == []


def test_diverged_training_raises_naming_the_seed():
    # at this rate every validation logit ends below softplus's underflow
    # point, so alpha0 == K on every row; an empty validation set has no rows
    # to judge by and trains through
    tx, ty, vx, vy = _blob_split()
    cfg = TrainConfig(layer_sizes=(2, 16, 3), epochs=10, batch_size=16, seed=4,
                      learning_rate=1e6)
    with pytest.raises(ValueError, match=r"^training diverged for seed 4: alpha0 is "
                                         r"exactly K = 3 on every validation row"):
        train(tx, ty, vx, vy, [cfg, replace(cfg, seed=5)])
    _, history = train(tx, ty, vx[:0], vy[:0], cfg)
    assert history.val_mean_alpha0 == [0.0] * cfg.epochs


def test_cross_entropy_loss_descends_on_blobs():
    tx, ty, vx, vy = _blob_split()
    cfg = TrainConfig(layer_sizes=(2, 16, 3), epochs=50, batch_size=16, seed=1,
                      loss_kind="cross_entropy")
    _, h = train(tx, ty, vx, vy, cfg)
    assert h.train_loss[49] < h.train_loss[0]


def test_dappr_loss_magnitude_shrinks_on_blobs():
    """The surrogate value is <= 0 and rises toward 0 as evidence
    accumulates, so convergence shows up as |loss| decreasing."""
    tx, ty, vx, vy = _blob_split()
    cfg = TrainConfig(layer_sizes=(2, 16, 3), epochs=50, batch_size=16, seed=1,
                      loss_kind="dappr")
    _, h = train(tx, ty, vx, vy, cfg)
    assert h.train_loss[0] < 0.0
    assert abs(h.train_loss[49]) < abs(h.train_loss[0])
    assert h.train_loss[49] <= 0.0


def test_background_law_from_training_inputs():
    x = np.array([[0.0, 5.0], [2.0, 5.0], [4.0, 5.0]])
    centre, scale = background_law(x)
    assert np.array_equal(centre, [2.0, 5.0])
    assert scale[0] == pytest.approx(BACKGROUND_SCALE * np.std([0.0, 2.0, 4.0]), rel=1e-15)
    assert scale[1] == BACKGROUND_SCALE  # zero spread falls back to unit std


def test_train_loss_records_the_data_term_only():
    tx, ty, vx, vy = _blob_split()
    cfg = TrainConfig(layer_sizes=(2, 8, 3), epochs=1, batch_size=tx.shape[0], seed=8)
    _, h = train(tx, ty, vx, vy, cfg)
    # one full batch: the epoch's loss is taken at the initial weights
    init = init_network((2, 8, 3), seed=8)
    perm = np.random.default_rng([8, 1, 0]).permutation(tx.shape[0])
    data_term = dappr_loss(forward(init, tx[perm]), ty[perm], cfg.loss.lam).value
    assert h.train_loss[0] == pytest.approx(data_term, rel=1e-12)
    # the background rows' penalty is recorded on its own
    centre, scale = background_law(tx)
    background = centre + scale * np.random.default_rng([8, 2, 0]).standard_normal(tx.shape)
    penalty = vacuous_evidence_penalty(forward(init, background))[0]
    assert h.train_vacuous[0] == pytest.approx(penalty, rel=1e-12)


@pytest.mark.parametrize("schedule", ["constant", "warmup", "linear"])
def test_history_records_the_loss_components(schedule):
    tx, ty, vx, vy = _blob_split()
    cfg = TrainConfig(layer_sizes=(2, 8, 3), epochs=12, batch_size=20, seed=3,
                      loss=LossConfig(lam=2e-2, schedule=schedule))
    _, h = train(tx, ty, vx, vy, cfg)
    # the schedule's horizon is the run's own length
    assert h.lam_t == [lambda_schedule(cfg.loss, epoch, cfg.epochs) for epoch in range(12)]
    for value, surrogate, lam_t, regulariser in zip(h.train_loss, h.train_surrogate,
                                                    h.lam_t, h.train_regulariser):
        assert value == pytest.approx(surrogate + lam_t * regulariser, rel=1e-12)
    assert min(h.train_regulariser) > 0.0 and min(h.train_vacuous) > 0.0


def test_cross_entropy_history_has_no_penalty_components():
    tx, ty, vx, vy = _blob_split()
    cfg = TrainConfig(layer_sizes=(2, 8, 3), epochs=3, batch_size=20, seed=3,
                      loss_kind="cross_entropy", loss=LossConfig(lam=0.5))
    _, h = train(tx, ty, vx, vy, cfg)
    assert h.train_surrogate == h.train_loss
    assert h.lam_t == h.train_regulariser == h.train_vacuous == [0.0] * 3


def test_step_gradients_takes_a_bound_loss():
    # the loss arrives with its weight bound; no config or epoch passes through
    assert list(inspect.signature(_step_gradients).parameters) == [
        "params", "x", "labels", "loss_fn", "grads", "background"]
    assert not hasattr(nn, "_LOSS_FNS")


def test_vacuous_term_lowers_evidence_off_the_data(monkeypatch):
    tx, ty, vx, vy = _blob_split()
    cfg = TrainConfig(layer_sizes=(2, 16, 3), epochs=50, batch_size=16, seed=1)
    angles = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
    far = 16.0 * np.column_stack([np.cos(angles), np.sin(angles)])

    def far_alpha0():
        p, _ = train(tx, ty, vx, vy, cfg)
        return float(np.mean(np.sum(softplus(forward(p, far)) + 1.0, axis=1)))

    with_term = far_alpha0()
    monkeypatch.setattr(loss, "VACUOUS_WEIGHT", 0.0)
    without_term = far_alpha0()
    # measured 11.9 vs 36.4: the background rows pull the far field down
    assert with_term < 0.5 * without_term


def _plain_cross_entropy_training(tx, ty, cfg):
    """train() for the cross-entropy head as a bare loop, without background."""
    flat, ref = pack_network(init_network(cfg.layer_sizes, cfg.seed, "cross_entropy"))
    grad, grads = pack_network(ref)
    opt = _Adam(flat, cfg.learning_rate)
    for epoch in range(cfg.epochs):
        perm = np.random.default_rng([cfg.seed, 1, epoch]).permutation(tx.shape[0])
        for start in range(0, tx.shape[0], cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            acts = _forward_cached(ref, tx[idx])
            out = cross_entropy_loss(acts[-1], ty[idx])
            backward(ref, acts, out.grad_logits, grads)
            opt.step(flat, grad)
    return ref


def test_cross_entropy_training_ignores_the_background():
    tx, ty, vx, vy = _blob_split()
    cfg = TrainConfig(layer_sizes=(2, 8, 3), epochs=2, batch_size=16, seed=1,
                      loss_kind="cross_entropy")
    p, _ = train(tx, ty, vx, vy, cfg)
    ref = _plain_cross_entropy_training(tx, ty, cfg)
    assert all(np.array_equal(a, b) for a, b in zip(p.weights, ref.weights))
    assert all(np.array_equal(a, b) for a, b in zip(p.biases, ref.biases))


def test_history_lengths_match_epochs():
    tx, ty, vx, vy = _blob_split()
    cfg = TrainConfig(layer_sizes=(2, 8, 3), epochs=7, batch_size=16, seed=1)
    _, h = train(tx, ty, vx, vy, cfg)
    assert len(h.train_loss) == len(h.val_accuracy) == len(h.val_mean_alpha0) == 7
    assert all(a > 0 for a in h.val_mean_alpha0)


# ---------------------------------------------------------------------------
# prediction and persistence


def test_predict_alpha_consistent_with_head():
    p = init_network((2, 8, 3), seed=0)
    x = np.random.default_rng(1).normal(size=(4, 2))
    alphas = predict_alpha(p, x)
    logits = forward(p, x)
    assert alphas.alpha.shape == (4, 3)
    assert np.array_equal(alphas.alpha, softplus(logits) + 1.0)
    assert np.array_equal(alphas.alpha0, alphas.alpha.sum(axis=1))


def test_checkpoint_roundtrip(tmp_path):
    p = init_network((2, 6, 3), seed=11, loss_kind="cross_entropy")
    path = tmp_path / "ckpt.json"
    save_checkpoint(p, path)
    q = load_checkpoint(path)
    assert q.layer_sizes == p.layer_sizes
    assert q.seed == 11 and q.loss_kind == "cross_entropy"
    assert all(np.array_equal(a, b) for a, b in zip(p.weights, q.weights))
    assert all(np.array_equal(a, b) for a, b in zip(p.biases, q.biases))


def test_checkpoint_rejects_shape_mismatch(tmp_path):
    p = init_network((2, 6, 3), seed=0)
    path = tmp_path / "ckpt.json"
    save_checkpoint(p, path)
    import json

    doc = json.loads(path.read_text())
    doc["layer_sizes"] = [2, 5, 3]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_rejects_truncated_layer_list(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(init_network((2, 8, 8, 3), seed=0), path)
    import json

    doc = json.loads(path.read_text())
    doc["weights"] = doc["weights"][:1]  # 2-8 only: would return 8 logits per row
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="1 layers stored"):
        load_checkpoint(path)


@pytest.mark.parametrize("part,value", [(0, float("nan")), (0, float("inf")),
                                        (1, float("nan")), (1, float("-inf"))])
def test_checkpoint_rejects_non_finite_values(tmp_path, part, value):
    path = tmp_path / "ckpt.json"
    save_checkpoint(init_network((2, 6, 3), seed=0), path)
    import json

    doc = json.loads(path.read_text())
    layer = doc["weights"][1][part]
    if part == 0:
        layer[2][1] = value
    else:
        layer[1] = value
    path.write_text(json.dumps(doc))  # json writes NaN / Infinity literals
    with pytest.raises(ValueError, match="layer 1 has non-finite values"):
        load_checkpoint(path)
