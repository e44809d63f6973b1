"""The closed forms of layerheat.reference: the Gaussian against extended
precision, and the sheared separable layered kernel as the transform's
exact check on layered media in 2-D and 3-D."""
import math

import numpy as np
import pytest

from layerheat import inverse_transform
from layerheat.inverse_transform import KernelEvaluator
from layerheat.medium import TwoLayerMedium, homogeneous_medium, validate_tensor
from layerheat.reference import gaussian_gradient, gaussian_kernel, sheared_layered_kernel
from test_inverse_transform import long_double_gaussian


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("dt", [0.01, 0.3])
def test_gaussian_exact_inverse(dt):
    # On the tensor of coupling 0.99 the exponent multiplies the rounding
    # of A^-1 by (x - y).A^-1 (x - y) / (4 dt); rounded by np.linalg.inv,
    # the reference's gradient erred by 0.95 and 1.03 times the closed
    # form's est at the two lags, and with the exact inverse by 0.32 and
    # 0.34.  Half of est leaves room for the evaluator's own error.
    a = np.array([[1.0, 0.99], [0.99, 1.0]])
    t_mat = validate_tensor(a)
    y = np.array([0.1, -0.2])
    x = y + 4.0 * math.sqrt(dt) * np.random.default_rng(5).uniform(-1.0, 1.0, (150, 2))
    est = KernelEvaluator(homogeneous_medium(t_mat)).eval_many(x, dt, y, 0.0)["est"]
    gamma, grad = long_double_gaussian(a, x, y, dt)
    err = np.abs(gaussian_kernel(t_mat, x, dt, y, 0.0) - gamma).astype(float)
    g_err = np.abs(gaussian_gradient(t_mat, x, dt, y, 0.0) - grad).astype(float)
    assert np.all(err <= 0.5 * est)
    assert np.all(g_err.max(axis=1) <= 0.5 * est)


def sheared_medium(s_mat, c, a, b):
    """The layers diag(S, a) above and diag(S, b) below, both sheared by c
    (reference.sheared_layered_kernel)."""
    s_mat, c = np.asarray(s_mat, dtype=float), np.asarray(c, dtype=float)

    def layer(k):
        return validate_tensor(np.block([[s_mat + k * np.outer(c, c), k * c[:, None]],
                                         [k * c[None, :], np.array([[k]])]]))

    return TwoLayerMedium(upper=layer(a), lower=layer(b))


# (S, c): 2-D unsheared and sheared; in 3-D S of unequal diagonal (both
# tangential axes reflect), S = s I (they also exchange) and a coupled S (no
# fold), unsheared, and sheared on one axis (one reflection left), on both
# axes of a coupled S and of s I (no fold).
SEPARABLE = [
    pytest.param([[1.5]], [0.0], id="2d"),
    pytest.param([[1.5]], [0.4], id="2d-sheared"),
    pytest.param(np.diag([1.5, 2.0]), [0.0, 0.0], id="3d-mirror"),
    pytest.param(1.5 * np.eye(2), [0.0, 0.0], id="3d-exchange"),
    pytest.param([[1.5, 0.4], [0.4, 1.0]], [0.0, 0.0], id="3d-coupled"),
    pytest.param(np.diag([1.5, 2.0]), [0.4, 0.0], id="3d-sheared-mirror"),
    pytest.param([[1.5, 0.4], [0.4, 1.0]], [0.3, -0.2], id="3d-coupled-sheared"),
    pytest.param(1.5 * np.eye(2), [0.3, 0.3], id="3d-isotropic-sheared"),
]
A_UP, B_LOW = 1.0, 4.0


def separable_batch(s_mat, dt, count):
    """Targets (K, n) and per-target sources (K, n): two sources, one in
    each layer, each with 2 ``count`` targets whose normal offsets run from
    0.02 to 12 diffusion lengths on both sides of the interface and whose
    tangential offsets reach 1, 4 or 14 of them, into the deep tail."""
    s_mat = np.asarray(s_mat, dtype=float)
    d = s_mat.shape[0]
    rng = np.random.default_rng(d)
    root = math.sqrt(dt)
    reach = np.geomspace(0.02, 12.0, count) * root
    xn = np.concatenate([math.sqrt(A_UP) * reach, -math.sqrt(B_LOW) * reach])
    xs, ys = [], []
    for yn in (0.3 * root, -0.2 * root):
        y = np.append(np.full(d, 0.1), yn)
        spread = rng.choice([1.0, 4.0, 14.0], (xn.size, 1)) * np.sqrt(np.diag(s_mat)) * root
        xs.append(np.column_stack([y[:-1] + spread * rng.uniform(-1.0, 1.0, (xn.size, d)), xn]))
        ys.append(np.broadcast_to(y, xs[-1].shape))
    return np.vstack(xs), np.vstack(ys)


def check_separable(s_mat, c, dt, count=30):
    """eval_many against sheared_layered_kernel on separable_batch: every
    error of Gamma, grad and sgrad within est, and within 1e-10 of each
    quantity's peak."""
    med = sheared_medium(s_mat, c, A_UP, B_LOW)
    x, y = separable_batch(s_mat, dt, count)
    res = KernelEvaluator(med).eval_many(x, dt, y, 0.0, source_gradient=True)
    above = y[:, -1] > 0.0
    exact = [np.concatenate(parts) for parts in zip(*(
        sheared_layered_kernel(s_mat, c, A_UP, B_LOW, x[side], dt, y[side][0], 0.0)
        for side in (above, ~above)))]
    assert np.min(exact[0]) < 1e-16 * np.max(exact[0])  # the deep tail
    for key, value in zip(("gamma", "grad", "sgrad"), exact):
        err = np.abs(res[key] - value).reshape(x.shape[0], -1)
        assert np.all(err.max(axis=1) <= res["est"]), key
        assert err.max() <= 1e-10 * np.abs(value).max(), key


@pytest.mark.parametrize("s_mat,c", SEPARABLE)
@pytest.mark.parametrize("dt", [0.01, 0.3])
def test_transform_matches_separable(s_mat, c, dt):
    # Measured: errors up to 4.3e-12 of each quantity's peak, and at most
    # 0.19 est.
    check_separable(s_mat, c, dt)


@pytest.mark.parametrize("s_mat,c", SEPARABLE)
def test_separable_in_many_blocks(monkeypatch, s_mat, c):
    # One column per block of the tau contraction and one normal pair per
    # chunk of exponentials: the floor's node sums regroup, and est must
    # still cover every error.  A fifth of the targets keeps the 3-D
    # calls, of 700 to 1,600 blocks, to a few seconds.
    monkeypatch.setattr(inverse_transform, "BLOCK_ELEMENTS", 1)
    check_separable(s_mat, c, 0.3, count=6)
