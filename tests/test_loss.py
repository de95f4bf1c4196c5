import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dappr import gradcheck
from dappr.errors import MaximiserValidityError
from dappr.loss import (
    VACUOUS_WEIGHT,
    LossConfig,
    closed_form_maximiser,
    cross_entropy_loss,
    dappr_loss,
    lambda_schedule,
    multi_observation_maximiser,
    one_hot,
    softmax,
    softplus,
    softplus_plus_one,
    vacuous_evidence_penalty,
)
from dappr.possibility import DirichletParams, simplex_grid
from oracles import central_difference


# ---------------------------------------------------------------------------
# numeric primitives


def test_softplus_values_and_stability():
    assert softplus(np.array([0.0]))[0] == pytest.approx(math.log(2.0), abs=1e-15)
    assert softplus(np.array([800.0]))[0] == 800.0
    assert softplus(np.array([-800.0]))[0] == 0.0
    z = np.array([-30.0, -1.0, 0.0, 1.0, 30.0])
    assert np.all(np.isfinite(softplus(z)))
    assert np.all(softplus(z) > 0.0) or softplus(np.array([-800.0]))[0] == 0.0


def test_softmax_rows_and_stability():
    z = np.array([[1000.0, 1000.0, 999.0], [-5.0, 0.0, 5.0]])
    p = softmax(z)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(np.isfinite(p))
    assert p[0, 0] == p[0, 1] > p[0, 2]


def test_softplus_plus_one_head():
    d = softplus_plus_one(np.array([0.0, -30.0, 3.0]))
    assert isinstance(d, DirichletParams)
    assert np.all(d.alpha > 1.0)
    assert d.alpha[0] == pytest.approx(1.0 + math.log(2.0), abs=1e-15)
    # below z ~ -37 softplus underflows past float resolution and alpha
    # lands on exactly 1.0; the head cannot promise strictness there
    collapsed = softplus_plus_one(np.array([-800.0, 0.0]))
    assert collapsed.alpha[0] == 1.0


def test_one_hot():
    got = one_hot(np.array([2, 0]), 3)
    assert np.array_equal(got, np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    for dtype in (np.int8, np.uint8, np.uint64):
        assert np.array_equal(one_hot(np.array([2, 0], dtype=dtype), 3), got)
    for bad in (np.array([-1], dtype=np.int8), np.array([2 ** 63 + 1], dtype=np.uint64)):
        with pytest.raises(ValueError, match="must lie in"):
            one_hot(bad, 3)
    with pytest.raises(ValueError):
        one_hot(np.array([3]), 3)


def test_one_hot_rejects_timedelta_labels():
    with pytest.raises(ValueError, match="integers"):
        one_hot(np.array([2, 0], dtype="m8[s]"), 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(0, 24), st.integers(0, 39),
       st.integers(2, 10))
def test_one_hot_of_a_stack_is_the_stack_of_one_hots(seed, s, b, k):
    labels = np.random.default_rng(seed).integers(0, k, size=(s, b))
    got = one_hot(labels, k)
    assert got.shape == (s, b, k)
    assert all(np.array_equal(got[i], one_hot(labels[i], k)) for i in range(s))


def test_one_hot_needs_a_label_axis():
    with pytest.raises(ValueError, match="at least one dimension"):
        one_hot(np.int64(1), 3)


# ---------------------------------------------------------------------------
# inner maximiser


def test_closed_form_maximiser_frozen():
    d = DirichletParams(np.array([2.5, 1.5, 3.0]))
    p = closed_form_maximiser(d, 1)
    assert np.allclose(p.probs, [2.5 / 6, 0.5 / 6, 3.0 / 6], atol=1e-15)


def test_closed_form_requires_alpha_above_one():
    with pytest.raises(MaximiserValidityError):
        closed_form_maximiser(DirichletParams(np.array([1.0, 2.0])), 0)
    with pytest.raises(MaximiserValidityError):
        closed_form_maximiser(DirichletParams(np.array([0.5, 2.0])), 1)
    # the softplus+1 head keeps alpha strictly above 1 for logits that
    # have not underflowed softplus
    closed_form_maximiser(softplus_plus_one(np.array([-30.0, 30.0])), 0)
    # underflowed logits collapse alpha to exactly 1.0 and are rejected
    with pytest.raises(MaximiserValidityError):
        closed_form_maximiser(softplus_plus_one(np.array([-800.0, 30.0])), 0)


def test_multi_observation_maximiser_frozen():
    d = DirichletParams(np.array([4.0, 3.0, 2.0]))
    p = multi_observation_maximiser(d, [0, 0, 1])
    assert np.allclose(p.probs, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_multi_observation_single_matches_closed_form():
    d = DirichletParams(np.array([2.5, 1.5, 3.0]))
    a = multi_observation_maximiser(d, [1])
    b = closed_form_maximiser(d, 1)
    assert np.array_equal(a.probs, b.probs)


def test_multi_observation_validity():
    d = DirichletParams(np.array([2.0, 1.5]))
    with pytest.raises(MaximiserValidityError):
        multi_observation_maximiser(d, [0, 0])  # alpha_0 = 2 <= count 2


def test_multi_observation_rejects_timedelta_labels():
    d = DirichletParams(np.array([4.0, 3.0, 2.0]))
    with pytest.raises(ValueError, match="integers"):
        multi_observation_maximiser(d, np.array([0, 1], dtype="m8[s]"))


def test_closed_form_agrees_with_grid_search():
    """The battery's closed-form check under a heavier-tailed alpha law."""
    rng = np.random.default_rng(11)
    for k in (2, 3):
        grid = simplex_grid(k, 200)
        for _ in range(15):
            gap = gradcheck.closed_form_gap(
                rng, grid, lambda rng, k: 1.0 + rng.gamma(2.0, 2.0, size=k))
            assert gap <= 2.0 / 200


# ---------------------------------------------------------------------------
# surrogate pieces


def _logits_for(alpha):
    """One row of logits whose head softplus(z) + 1 gives ``alpha``."""
    return np.log(np.expm1(np.asarray([alpha], dtype=np.float64) - 1.0))


def test_surrogate_term_frozen():
    out = dappr_loss(_logits_for([2.0, 2.0]), np.array([0]), LossConfig(lam=0.0))
    assert abs(out.surrogate_term - (-0.2355660679794336)) < 1e-12


def test_regulariser_formula():
    z = _logits_for([3.0, 2.0, 1.5])
    # sum over the wrong classes of alpha_k^2
    assert dappr_loss(z, np.array([2]), LossConfig()).regulariser == 13.0
    assert dappr_loss(z, np.array([0]), LossConfig()).regulariser == 6.25
    with pytest.raises(ValueError):
        dappr_loss(z, np.array([3]), LossConfig())


def test_lambda_schedule_constant_and_warmup():
    c = LossConfig(lam=2e-3, schedule="constant", total_epochs=100)
    assert lambda_schedule(c, 0) == 2e-3
    assert lambda_schedule(c, 100) == 2e-3
    w = LossConfig(lam=2e-3, schedule="warmup", total_epochs=100)
    assert lambda_schedule(w, 0) == 0.0
    assert lambda_schedule(w, 5) == pytest.approx(1e-3, abs=1e-18)
    assert lambda_schedule(w, 10) == 2e-3
    assert lambda_schedule(w, 60) == 2e-3


def test_lambda_schedule_linear_and_bounds():
    lin = LossConfig(lam=4e-3, schedule="linear", total_epochs=80)
    assert lambda_schedule(lin, 0) == 0.0
    assert lambda_schedule(lin, 40) == pytest.approx(2e-3, abs=1e-18)
    assert lambda_schedule(lin, 80) == 4e-3
    with pytest.raises(ValueError):
        lambda_schedule(lin, -1)
    with pytest.raises(ValueError):
        lambda_schedule(lin, 81)


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(lam=-1e-3)
    with pytest.raises(ValueError):
        LossConfig(lam=math.nan)
    with pytest.raises(ValueError):
        LossConfig(lam=math.inf)
    with pytest.raises(ValueError):
        LossConfig(eps=0.0)
    with pytest.raises(ValueError):
        LossConfig(eps=1e-3)
    with pytest.raises(ValueError):
        LossConfig(schedule="cosine")
    with pytest.raises(ValueError):
        LossConfig(total_epochs=0)


# ---------------------------------------------------------------------------
# the training loss


def test_dappr_loss_frozen_value():
    out = dappr_loss(np.zeros((1, 2)), np.array([0]), LossConfig(lam=0.0), 0)
    assert abs(out.value - (-0.326968552235965)) < 1e-12
    assert out.regulariser == pytest.approx((1.0 + math.log(2.0)) ** 2, abs=1e-12)
    assert out.lam_t == 0.0


def test_dappr_loss_value_decomposition():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(5, 3))
    labels = rng.integers(0, 3, size=5)
    cfg = LossConfig(lam=3e-3)
    out = dappr_loss(z, labels, cfg, 0)
    assert out.value == pytest.approx(out.surrogate_term + out.lam_t * out.regulariser,
                                      abs=1e-15)
    assert out.lam_t == 3e-3
    assert out.grad_logits.shape == z.shape


def test_dappr_loss_batch_is_mean_of_singles():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(4, 3))
    labels = np.array([0, 2, 1, 1])
    cfg = LossConfig(lam=2e-3)
    whole = dappr_loss(z, labels, cfg, 0)
    singles = [dappr_loss(z[i : i + 1], labels[i : i + 1], cfg, 0) for i in range(4)]
    assert whole.value == pytest.approx(np.mean([s.value for s in singles]), abs=1e-14)
    stacked = np.vstack([s.grad_logits for s in singles]) / 4.0
    assert np.allclose(whole.grad_logits, stacked, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([0.0, 2e-3, 0.1]))
def test_dappr_gradient_matches_frozen_pstar_fd(seed, lam):
    rng = np.random.default_rng(seed)
    z = rng.normal(0.0, 2.0, size=(3, 3))
    labels = rng.integers(0, 3, size=3)
    cfg = LossConfig(lam=lam)
    analytic = dappr_loss(z, labels, cfg, 0).grad_logits
    fd = gradcheck.dappr_loss_fd_gradient(z, labels, cfg)
    assert gradcheck.relative_error(analytic, fd) < 1e-6


@pytest.mark.parametrize("shape", [(1,), (7,), (3, 4), (2, 3, 2)])
def test_stacked_fd_equals_scalar_central_difference(shape):
    # fd_gradient perturbs every coordinate in one stack and makes one call;
    # the scalar oracle moves one coordinate of a list per pair of calls
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=shape)
    weights = rng.normal(size=shape)

    def point_value(point):
        p = np.asarray(point, dtype=np.float64).reshape(shape)
        return np.sum(weights * np.sin(p) * p) + np.prod(np.cos(p))

    def values(points):
        assert points.shape == (2 * x0.size,) + shape
        return np.array([point_value(p) for p in points])

    got = gradcheck.fd_gradient(values, x0)
    assert got.shape == shape
    flat = x0.ravel().tolist()
    for i in range(x0.size):
        want = central_difference(point_value, flat, i, gradcheck.FD_STEP)
        assert got.ravel()[i].tobytes() == np.float64(want).tobytes(), i


def test_detach_semantics_differ_from_full_derivative():
    """The analytic gradient holds p* fixed.  Central differences of the
    loss value recompute p* at the perturbed point, so they measure a
    DIFFERENT derivative; the implementation must match the frozen-p* one."""
    z = np.array([[0.3, -0.2, 0.1]])
    labels = np.array([1])
    cfg = LossConfig(lam=0.0)
    analytic = dappr_loss(z, labels, cfg, 0).grad_logits

    frozen_fd = gradcheck.dappr_loss_fd_gradient(z, labels, cfg)
    assert gradcheck.relative_error(analytic, frozen_fd) < 1e-7

    def full_value(zs):
        return dappr_loss(zs, np.broadcast_to(labels, zs.shape[:-1]), cfg, 0).value

    naive_fd = gradcheck.fd_gradient(full_value, z)
    assert gradcheck.relative_error(analytic, naive_fd) > 1e-3


def test_dappr_loss_input_validation():
    cfg = LossConfig()
    with pytest.raises(ValueError):
        dappr_loss(np.zeros(3), np.array([0]), cfg)  # 1-d logits
    with pytest.raises(ValueError):
        dappr_loss(np.zeros((1, 1)), np.array([0]), cfg)  # single class
    with pytest.raises(ValueError):
        dappr_loss(np.array([[np.inf, 0.0]]), np.array([0]), cfg)


@pytest.mark.parametrize("loss_fn", [dappr_loss, cross_entropy_loss])
@pytest.mark.parametrize("shape, labels", [
    ((5, 3), [0]),            # one label would broadcast over 5 rows
    ((1, 3), [0, 1, 2]),      # three labels for one row
    ((5, 3), [0, 1]),         # two labels for five rows
    ((2, 5, 3), [0] * 5),     # one label vector for a stack of batches
    ((2, 5, 3), [[0] * 5]),   # one label row for two batches
])
def test_losses_need_one_label_per_row(loss_fn, shape, labels):
    with pytest.raises(ValueError, match="does not match logits"):
        loss_fn(np.zeros(shape), np.array(labels), LossConfig())


def _same_bits(a, b) -> bool:
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 24), st.integers(1, 39),
       st.integers(2, 10), st.sampled_from([0.0, 2e-3, 0.1]),
       st.sampled_from(["constant", "warmup", "linear"]), st.integers(0, 20),
       st.booleans())
def test_stacked_losses_equal_each_batch_alone(seed, s, b, k, lam, schedule, epoch,
                                               sliced):
    # training scores a stack of batches in one call, sliced from the logits
    # of the data and background rows; every field keeps each batch's bits
    rng = np.random.default_rng(seed)
    logits = rng.normal(0.0, 3.0, size=(s, 2 * b if sliced else b, k))[:, :b]
    labels = rng.integers(0, k, size=(s, b))
    cfg = LossConfig(lam=lam, schedule=schedule, total_epochs=20)
    for loss_fn in (dappr_loss, cross_entropy_loss):
        stacked = loss_fn(logits, labels, cfg, epoch)
        assert stacked.value.shape == (s,) and stacked.grad_logits.shape == (s, b, k)
        for i in range(s):
            alone = loss_fn(logits[i].copy(), labels[i], cfg, epoch)
            assert type(alone.value) is float
            for field in ("value", "surrogate_term", "regulariser", "grad_logits"):
                got = getattr(stacked, field)
                assert _same_bits(got[i] if np.ndim(got) else got, getattr(alone, field)), field
            assert stacked.lam_t == alone.lam_t


# ---------------------------------------------------------------------------
# the vacuous-evidence penalty on background rows


def test_vacuous_penalty_frozen_value():
    value, grad = vacuous_evidence_penalty(np.zeros((2, 3)))
    # alpha - 1 = log 2 in every entry; mean over rows of 3 (log 2)^2
    assert value == pytest.approx(VACUOUS_WEIGHT * 3.0 * math.log(2.0) ** 2, abs=1e-15)
    # 2 * weight * softplus(0) * sigmoid(0) / batch
    assert np.allclose(grad, VACUOUS_WEIGHT * math.log(2.0) / 2.0, atol=1e-15)


def test_vacuous_penalty_vanishes_at_flat_dirichlet():
    value, grad = vacuous_evidence_penalty(np.full((1, 3), -800.0))
    assert value == 0.0
    assert np.all(grad == 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_vacuous_penalty_gradient_matches_fd(seed):
    z = np.random.default_rng(seed).normal(0.0, 2.0, size=(3, 3))
    _, analytic = vacuous_evidence_penalty(z)
    fd = gradcheck.fd_gradient(gradcheck.vacuous_penalty_value, z)
    assert gradcheck.relative_error(analytic, fd) < 1e-6


def test_vacuous_penalty_input_validation():
    with pytest.raises(ValueError):
        vacuous_evidence_penalty(np.zeros(3))
    with pytest.raises(ValueError):
        vacuous_evidence_penalty(np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError):
        vacuous_evidence_penalty(np.zeros((2, 0, 3)))  # a stack of empty batches
    with pytest.raises(ValueError):
        vacuous_evidence_penalty(np.array([[[0.0, 0.0]], [[0.0, np.inf]]]))


def test_stacked_vacuous_penalty_equals_each_batch_alone():
    # training scores every network's background rows in one call; a
    # non-contiguous stack, as a slice of the step's logits, included
    rng = np.random.default_rng(8)
    logits = rng.normal(0.0, 3.0, size=(4, 2 * 7, 3))
    stack = logits[:, 7:]
    values, grad = vacuous_evidence_penalty(stack)
    assert values.shape == (4,) and grad.shape == stack.shape
    for s in range(4):
        value_s, grad_s = vacuous_evidence_penalty(stack[s].copy())
        assert type(value_s) is float
        assert values[s] == value_s
        assert np.array_equal(grad[s], grad_s)


# ---------------------------------------------------------------------------
# cross-entropy baseline


def test_cross_entropy_value_and_gradient():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, size=6)
    out = cross_entropy_loss(z, labels)
    logp = z - np.log(np.exp(z - z.max(axis=1, keepdims=True)).sum(axis=1, keepdims=True)) \
        - z.max(axis=1, keepdims=True)
    want = -np.mean(logp[np.arange(6), labels])
    assert out.value == pytest.approx(want, abs=1e-12)
    assert out.regulariser == 0.0

    def value(zs):
        return cross_entropy_loss(zs, np.broadcast_to(labels, zs.shape[:-1])).value

    fd = gradcheck.fd_gradient(value, z)
    assert gradcheck.relative_error(out.grad_logits, fd) < 1e-7


def test_cross_entropy_stable_for_huge_logits():
    z = np.array([[1000.0, 0.0], [-1000.0, 0.0]])
    out = cross_entropy_loss(z, np.array([0, 0]))
    assert np.isfinite(out.value)
    assert out.value == pytest.approx(500.0, rel=1e-12)
