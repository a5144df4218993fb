"""Objective math: oracles, identities, stop-gradient exactness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_grads, tensor
from mixsiam import autodiff as ad
from mixsiam.autodiff import Tensor
from mixsiam.errors import ConfigError, ShapeError
from mixsiam.loss import (
    AggregationStrategy,
    aggregate,
    mix_loss,
    neg_cosine,
    siam_loss,
    total_loss,
)

MAX = AggregationStrategy(kind="maximum")
AVG = AggregationStrategy(kind="average")
NONE_FIRST = AggregationStrategy(kind="none")


def neg_cosine_oracle(p, z):
    """Independent numpy recomputation of the batch-mean negative cosine."""
    pn = p / np.linalg.norm(p, axis=1, keepdims=True)
    zn = z / np.linalg.norm(z, axis=1, keepdims=True)
    return -float(np.mean(np.sum(pn * zn, axis=1)))


def _basis_rows():
    # rows whose L2 normalization is floating-point exact
    return np.array([[1.0, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 2.0, 0.0],
                     [0.5, 0.5, 0.5, 0.5]])


# -- neg_cosine ------------------------------------------------------------


def test_neg_cosine_aligned_exactly_minus_one():
    p = tensor(_basis_rows())
    assert float(neg_cosine(p, tensor(_basis_rows())).data) == -1.0


def test_neg_cosine_anti_aligned_exactly_plus_one():
    p = tensor(_basis_rows())
    assert float(neg_cosine(p, tensor(-_basis_rows())).data) == 1.0


def test_neg_cosine_orthogonal_rows_zero():
    p = np.array([[1.0, 0.0], [0.0, 3.0]])
    z = np.array([[0.0, 2.0], [5.0, 0.0]])
    assert abs(float(neg_cosine(tensor(p), tensor(z)).data)) < 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_neg_cosine_matches_numpy_oracle(seed):
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(6, 9))
    z = rng.normal(size=(6, 9))
    got = float(neg_cosine(tensor(p), tensor(z)).data)
    assert np.isclose(got, neg_cosine_oracle(p, z), atol=1e-12)
    assert -1.0 - 1e-12 <= got <= 1.0 + 1e-12


@given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_neg_cosine_scale_invariance(alpha, beta, seed):
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(4, 7))
    z = rng.normal(size=(4, 7))
    a = float(neg_cosine(tensor(p), tensor(z)).data)
    b = float(neg_cosine(tensor(alpha * p), tensor(beta * z)).data)
    assert abs(a - b) < 1e-9


@pytest.mark.parametrize("seed", range(3))
def test_neg_cosine_grads_match_fd(seed):
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(3, 5))
    z = rng.normal(size=(3, 5))
    assert check_grads(lambda a, b: neg_cosine(a, b), [p, z]) < 1


def test_neg_cosine_shape_error():
    with pytest.raises(ShapeError):
        neg_cosine(tensor(np.zeros((2, 3))), tensor(np.zeros((2, 4))))


# -- siam_loss ---------------------------------------------------------------


def test_siam_loss_all_equal_is_minus_one():
    v = tensor(_basis_rows(), requires_grad=True)
    out = siam_loss(v, v, v, v)
    assert float(out.data) == -1.0


def test_siam_loss_stop_gradient_is_exact():
    rng = np.random.default_rng(0)
    p1 = tensor(rng.normal(size=(4, 6)), requires_grad=True)
    p2 = tensor(rng.normal(size=(4, 6)), requires_grad=True)
    z1 = tensor(rng.normal(size=(4, 6)), requires_grad=True)
    z2 = tensor(rng.normal(size=(4, 6)), requires_grad=True)
    ad.backward(siam_loss(p1, p2, z1, z2))
    assert z1.grad is None and z2.grad is None  # no gradient flow at all
    assert p1.grad is not None and p2.grad is not None


def test_siam_loss_ablation_restores_target_grads():
    rng = np.random.default_rng(1)
    p1 = tensor(rng.normal(size=(4, 6)), requires_grad=True)
    p2 = tensor(rng.normal(size=(4, 6)), requires_grad=True)
    z1 = tensor(rng.normal(size=(4, 6)), requires_grad=True)
    z2 = tensor(rng.normal(size=(4, 6)), requires_grad=True)
    ad.backward(siam_loss(p1, p2, z1, z2, stop_gradient=False))
    assert z1.grad is not None and np.any(z1.grad != 0)
    assert z2.grad is not None and np.any(z2.grad != 0)


def test_siam_loss_swap_symmetry_bitwise():
    rng = np.random.default_rng(2)
    p1, p2, z1, z2 = (tensor(rng.normal(size=(3, 5))) for _ in range(4))
    a = float(siam_loss(p1, p2, z1, z2).data)
    b = float(siam_loss(p2, p1, z2, z1).data)
    assert a == b


@pytest.mark.parametrize("seed", range(3))
def test_siam_loss_predictor_grads_match_fd(seed):
    rng = np.random.default_rng(seed)
    z1 = tensor(rng.normal(size=(3, 5)))
    z2 = tensor(rng.normal(size=(3, 5)))
    p1 = rng.normal(size=(3, 5))
    p2 = rng.normal(size=(3, 5))
    assert check_grads(lambda a, b: siam_loss(a, b, z1, z2), [p1, p2]) < 1


# -- aggregate ----------------------------------------------------------------


def test_aggregate_examples():
    z1 = tensor(np.array([[1.0, -2.0, 3.0]]))
    z2 = tensor(np.array([[0.0, 5.0, -1.0]]))
    assert np.array_equal(aggregate(z1, z2, MAX).data, [[1.0, 5.0, 3.0]])
    assert np.array_equal(aggregate(z1, z2, AVG).data, [[0.5, 1.5, 1.0]])
    assert aggregate(z1, z2, NONE_FIRST) is z1


def test_aggregate_algebra_on_random_vectors():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(200, 8))
    b = rng.normal(size=(200, 8))
    ta, tb = tensor(a), tensor(b)
    m_ab = aggregate(ta, tb, MAX).data
    m_ba = aggregate(tb, ta, MAX).data
    assert np.array_equal(m_ab, m_ba)                      # commutativity
    assert np.array_equal(aggregate(ta, ta, MAX).data, a)  # idempotence
    assert np.all(m_ab >= a) and np.all(m_ab >= b)         # dominance
    avg = aggregate(ta, tb, AVG).data
    assert np.array_equal(avg, (a + b) * 0.5)


def test_aggregation_strategy_validation():
    with pytest.raises(ConfigError):
        AggregationStrategy(kind="median")


# -- mix_loss -----------------------------------------------------------------


def test_mix_loss_aligned_and_oracle():
    rng = np.random.default_rng(4)
    pm = rng.normal(size=(4, 6))
    zf = rng.normal(size=(4, 6))
    got = float(mix_loss(tensor(pm, requires_grad=True), tensor(zf)).data)
    assert np.isclose(got, neg_cosine_oracle(pm, zf), atol=1e-9)
    v = tensor(_basis_rows(), requires_grad=True)
    assert float(mix_loss(v, tensor(_basis_rows())).data) == -1.0


@pytest.mark.parametrize("stop_gradient", [True, False])
def test_mix_loss_stop_gradient_decides_whether_the_target_gets_a_gradient(stop_gradient):
    rng = np.random.default_rng(7)
    pm = tensor(rng.normal(size=(3, 4)), requires_grad=True)
    zf = tensor(rng.normal(size=(3, 4)), requires_grad=True)
    ad.backward(mix_loss(pm, zf, stop_gradient))
    assert pm.grad is not None
    assert (zf.grad is None) == stop_gradient


def test_mix_loss_gradient_only_through_prediction():
    rng = np.random.default_rng(5)
    z1 = tensor(rng.normal(size=(3, 4)), requires_grad=True)
    z2 = tensor(rng.normal(size=(3, 4)), requires_grad=True)
    pm = tensor(rng.normal(size=(3, 4)), requires_grad=True)
    zf = aggregate(z1, z2, MAX).detach()
    ad.backward(mix_loss(pm, zf))
    assert pm.grad is not None
    assert z1.grad is None and z2.grad is None


def test_detach_after_aggregation_equals_detach_before():
    rng = np.random.default_rng(6)
    z1 = tensor(rng.normal(size=(5, 7)), requires_grad=True)
    z2 = tensor(rng.normal(size=(5, 7)), requires_grad=True)
    after = aggregate(z1, z2, MAX).detach()
    before = aggregate(z1.detach(), z2.detach(), MAX)
    assert np.array_equal(after.data, before.data)
    assert not after.requires_grad and not before.requires_grad


# -- total_loss ----------------------------------------------------------------


def test_total_loss_endpoints_bitwise():
    ls = tensor(np.asarray(-0.7371283), requires_grad=True)
    lm = tensor(np.asarray(-0.3928172), requires_grad=True)
    total, bd = total_loss(ls, lm, 1.0)
    assert float(total.data) == float(ls.data) and bd.total == bd.l_siam
    total, bd = total_loss(ls, lm, 0.0)
    assert float(total.data) == float(lm.data) and bd.total == bd.l_mix


@given(st.floats(0.0, 1.0, allow_nan=False), st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_total_loss_breakdown_identity_bitwise(lam, seed):
    rng = np.random.default_rng(seed)
    ls = tensor(np.asarray(rng.uniform(-1, 1)))
    lm = tensor(np.asarray(rng.uniform(-1, 1)))
    _, bd = total_loss(ls, lm, lam)
    assert bd.total == lam * bd.l_siam + (1.0 - lam) * bd.l_mix
    assert -1.0 <= bd.l_siam <= 1.0 and -1.0 <= bd.l_mix <= 1.0 and -1.0 <= bd.total <= 1.0


def test_total_loss_clamps_normalization_overshoot():
    ls = tensor(np.asarray(-1.0 - 2e-16))
    lm = tensor(np.asarray(0.3))
    _, bd = total_loss(ls, lm, 0.5)
    assert bd.l_siam == -1.0 and -1.0 <= bd.total <= 1.0


def test_total_loss_validates_lambda():
    ls, lm = tensor(np.asarray(0.0)), tensor(np.asarray(0.0))
    for bad in (-0.1, 1.1):
        with pytest.raises(ConfigError, match="lambda"):
            total_loss(ls, lm, bad)


def test_total_loss_gradient_blend():
    rng = np.random.default_rng(7)
    p = rng.normal(size=(3, 4))

    def f(pt, lam):
        ls = neg_cosine(pt, tensor(np.ones((3, 4))))
        lm = neg_cosine(pt, tensor(np.full((3, 4), 2.0)))
        total, _ = total_loss(ls, lm, lam)
        return total
    assert check_grads(lambda pt: f(pt, 0.3), [p]) < 1


# -- composite objective -------------------------------------------------------


@pytest.mark.parametrize("kind", ["maximum", "average", "none"])
def test_composite_objective_grads_match_fd(kind):
    # Stop-gradient semantics fix what "the gradient" means: targets are
    # constants. So the finite-difference oracle probes the loss with the
    # targets frozen at the base point; the autodiff graph (with detach in
    # place) must produce exactly that gradient. A shared leaf u feeds both
    # the predictions and the (frozen) targets.
    from conftest import grad_gap, numeric_grad

    rng = np.random.default_rng(8)
    strat = AggregationStrategy(kind=kind)
    a1 = rng.normal(size=(4, 6))
    a2 = rng.normal(size=(4, 6))
    w = rng.normal(size=(4, 6))
    u0 = rng.normal(size=(4, 6))

    def branches(ut):
        z1 = ut * tensor(a1)
        z2 = ut * tensor(a2)
        p1 = z1 * tensor(w)
        p2 = z2 * tensor(w)
        pm = (z1 * 0.3 + z2 * 0.7) * tensor(w)
        return z1, z2, p1, p2, pm

    ut = tensor(u0, requires_grad=True)
    z1, z2, p1, p2, pm = branches(ut)
    ls = siam_loss(p1, p2, z1, z2)
    zf = aggregate(z1, z2, strat).detach()
    total, _ = total_loss(ls, mix_loss(pm, zf), 0.5)
    ad.backward(total)

    # freeze targets at u0 for the numeric probe
    c1 = tensor(u0 * a1)
    c2 = tensor(u0 * a2)
    cf = tensor(aggregate(c1, c2, strat).data)

    def frozen_loss(u):
        _, _, q1, q2, qm = branches(tensor(u))
        fs = neg_cosine(q1, c2) * 0.5 + neg_cosine(q2, c1) * 0.5
        ft, _ = total_loss(fs, neg_cosine(qm, cf), 0.5)
        return float(ft.data)

    num = numeric_grad(frozen_loss, u0)
    assert grad_gap(ut.grad, num) < 1
