import numpy as np
import pytest

from dappr import gradcheck
from dappr.datasets import gaussian_blobs, two_moons
from dappr import loss
from dappr.loss import LossConfig, cross_entropy_loss, dappr_loss, softplus
from dappr.nn import (
    BACKGROUND_SCALE,
    NetworkParams,
    TrainConfig,
    _step_gradients,
    background_law,
    forward,
    init_network,
    load_checkpoint,
    predict_alpha,
    predict_labels,
    save_checkpoint,
    train,
)


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


def test_forward_rejects_wrong_width():
    p = init_network((3, 4, 2), seed=0)
    with pytest.raises(ValueError):
        forward(p, np.zeros((5, 2)))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(layer_sizes=(2,), epochs=1, batch_size=8, seed=0)
    with pytest.raises(ValueError):
        TrainConfig(layer_sizes=(2, 3), epochs=-1, batch_size=8, seed=0)
    with pytest.raises(ValueError):
        TrainConfig(layer_sizes=(2, 3), epochs=1, batch_size=0, seed=0)
    with pytest.raises(ValueError):
        TrainConfig(layer_sizes=(2, 3), epochs=1, batch_size=8, seed=0, optimizer="lbfgs")
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
    cfg = LossConfig(lam=2e-3)

    from dappr.nn import _forward_cached, backward

    pre, acts = _forward_cached(params, x)
    if loss_kind == "dappr":
        out = dappr_loss(pre[-1], labels, cfg, 0)
        p_star = gradcheck.base_p_star(pre[-1], labels, cfg)

        def value_fn(logits):
            return gradcheck.frozen_pstar_value(logits, labels, cfg, 0, p_star)
    else:
        out = cross_entropy_loss(pre[-1], labels, cfg, 0)

        def value_fn(logits):
            return cross_entropy_loss(logits, labels, cfg, 0).value

    grads_w, grads_b = backward(params, pre, acts, out.grad_logits)
    analytic = gradcheck.flatten_network_grads(grads_w, grads_b)
    fd = gradcheck.network_fd_gradient(params, x, labels, value_fn)
    assert gradcheck.relative_error(analytic, fd) < 1e-4


@pytest.mark.parametrize("sizes", [(2, 3), (2, 8, 3), (3, 16, 8, 4)])
def test_training_step_with_background_matches_fd(sizes):
    rng = np.random.default_rng(43)
    params = init_network(sizes, seed=3)
    x = rng.normal(size=(6, sizes[0]))
    background = rng.normal(0.0, 4.0, size=(6, sizes[0]))
    labels = rng.integers(0, sizes[-1], size=6)
    cfg = LossConfig(lam=2e-3)

    out, grads_w, grads_b = _step_gradients(params, x, labels, dappr_loss, cfg, 0,
                                            background)
    data_logits = forward(params, x)
    assert out.value == pytest.approx(dappr_loss(data_logits, labels, cfg, 0).value,
                                      rel=1e-12)
    p_star = gradcheck.base_p_star(data_logits, labels, cfg)

    def value_fn(logits):
        return (gradcheck.frozen_pstar_value(logits[:6], labels, cfg, 0, p_star)
                + gradcheck.vacuous_penalty_value(logits[6:]))

    analytic = gradcheck.flatten_network_grads(grads_w, grads_b)
    fd = gradcheck.network_fd_gradient(params, np.vstack([x, background]), labels,
                                       value_fn)
    assert gradcheck.relative_error(analytic, fd) < 1e-4


def test_relu_blocks_gradient_through_dead_units():
    # one hidden unit driven permanently negative must keep zero gradient
    w1 = np.array([[1.0, 1.0]])
    b1 = np.array([0.0, -100.0])  # second unit always dead for x in [0, 1]
    w2 = np.array([[1.0, -1.0], [1.0, 1.0]])
    b2 = np.array([0.0, 0.0])
    p = NetworkParams((1, 2, 2), [w1, w2], [b1, b2], seed=0, loss_kind="cross_entropy")
    from dappr.nn import _forward_cached, backward

    x = np.array([[0.5]])
    pre, acts = _forward_cached(p, x)
    out = cross_entropy_loss(pre[-1], np.array([0]), None, 0)
    grads_w, grads_b = backward(p, pre, acts, out.grad_logits)
    assert grads_w[0][0, 1] == 0.0  # into the dead unit
    assert grads_b[0][1] == 0.0
    assert grads_w[1][1, 0] == 0.0 and grads_w[1][1, 1] == 0.0  # out of it


# ---------------------------------------------------------------------------
# training behavior


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
    data_term = dappr_loss(forward(init, tx[perm]), ty[perm],
                           LossConfig(total_epochs=1), 0).value
    assert h.train_loss[0] == pytest.approx(data_term, rel=1e-12)


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


def test_cross_entropy_training_ignores_the_background():
    tx, ty, vx, vy = _blob_split()
    cfg = TrainConfig(layer_sizes=(2, 8, 3), epochs=2, batch_size=16, seed=1,
                      loss_kind="cross_entropy")
    p, _ = train(tx, ty, vx, vy, cfg)
    ref = init_network((2, 8, 3), seed=1, loss_kind="cross_entropy")
    from dappr.nn import _Adam, _forward_cached, backward

    flat = ref.weights + ref.biases
    opt = _Adam(flat, cfg.learning_rate)
    for epoch in range(2):
        perm = np.random.default_rng([1, 1, epoch]).permutation(tx.shape[0])
        for start in range(0, tx.shape[0], 16):
            idx = perm[start:start + 16]
            pre, acts = _forward_cached(ref, tx[idx])
            out = cross_entropy_loss(pre[-1], ty[idx], LossConfig(total_epochs=2), epoch)
            grads_w, grads_b = backward(ref, pre, acts, out.grad_logits)
            opt.step(flat, grads_w + grads_b)
    assert all(np.array_equal(a, b) for a, b in zip(p.weights, ref.weights))
    assert all(np.array_equal(a, b) for a, b in zip(p.biases, ref.biases))


def test_history_lengths_match_epochs():
    tx, ty, vx, vy = _blob_split()
    cfg = TrainConfig(layer_sizes=(2, 8, 3), epochs=7, batch_size=16, seed=1)
    _, h = train(tx, ty, vx, vy, cfg)
    assert len(h.train_loss) == len(h.val_accuracy) == len(h.val_mean_alpha0) == 7
    assert all(a > 0 for a in h.val_mean_alpha0)


def test_early_stopping_returns_best_validation_snapshot():
    ds = two_moons(240, 0.25, seed=3)
    rng = np.random.default_rng(0)
    perm = rng.permutation(ds.n)
    tr, va = perm[:180], perm[180:]
    cfg = TrainConfig(layer_sizes=(2, 16, 2), epochs=12, batch_size=16, seed=2,
                      early_stopping=True)
    p, h = train(ds.features[tr], ds.labels[tr], ds.features[va], ds.labels[va], cfg)
    got = float(np.mean(predict_labels(p, ds.features[va]) == ds.labels[va]))
    assert got == pytest.approx(max(h.val_accuracy), abs=1e-12)


def test_sgd_optimizer_descends():
    tx, ty, vx, vy = _blob_split()
    cfg = TrainConfig(layer_sizes=(2, 16, 3), epochs=30, batch_size=16, seed=1,
                      optimizer="sgd", learning_rate=1e-2, loss_kind="cross_entropy")
    _, h = train(tx, ty, vx, vy, cfg)
    assert h.train_loss[-1] < h.train_loss[0]


def test_weight_decay_changes_solution():
    tx, ty, vx, vy = _blob_split()
    base = TrainConfig(layer_sizes=(2, 8, 3), epochs=3, batch_size=16, seed=6)
    decayed = TrainConfig(layer_sizes=(2, 8, 3), epochs=3, batch_size=16, seed=6,
                          weight_decay=0.1)
    p0, _ = train(tx, ty, vx, vy, base)
    p1, _ = train(tx, ty, vx, vy, decayed)
    norm0 = sum(float(np.sum(w * w)) for w in p0.weights)
    norm1 = sum(float(np.sum(w * w)) for w in p1.weights)
    assert norm1 < norm0


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
