"""Closed-form reference kernels used as independent oracles in tests.

Everything here is derived analytically and verified by basic PDE
identities (continuity, flux matching, unit mass), completely
independently of the transform-based evaluator.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .medium import DiffusionTensor, validate_tensor


def _rational_inverse(a: np.ndarray):
    """A^-1 and det A of a small matrix of floats (n <= 3), each entry
    rounded once from exact rational cofactors.  A^-1 rounded by
    np.linalg.inv enters the exponent of gaussian_kernel multiplied by
    (x - y).A^-1 (x - y) / (4 dt): on [[1, 0.99], [0.99, 1]] the gradient
    then erred by up to 1.03 times the evaluator's error estimate."""
    m = [[Fraction(v) for v in row] for row in a.tolist()]

    def det(rows):
        return sum((-1) ** j * v * det([r[:j] + r[j + 1:] for r in rows[1:]])
                   for j, v in enumerate(rows[0])) if rows else Fraction(1)

    d = det(m)
    n = len(m)
    cof = [[(-1) ** (i + j) * det([r[:i] + r[i + 1:] for k, r in enumerate(m) if k != j])
            for j in range(n)] for i in range(n)]
    return np.array([[float(v / d) for v in row] for row in cof]), float(d)


def gaussian_kernel(tensor: DiffusionTensor, x, t: float, y, s: float):
    """Heat kernel of a constant-coefficient anisotropic medium.

    Gamma = exp(-A^{-1}(x-y).(x-y) / (4(t-s))) / ((4 pi (t-s))^{n/2} sqrt(det A)),
    with A^-1 and det A exactly rounded (_rational_inverse).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    dt = t - s
    n = tensor.dim
    inv, det = _rational_inverse(tensor.entries)
    diff = x - y
    quad = np.einsum("ki,ij,kj->k", diff, inv, diff)
    vals = np.exp(-quad / (4.0 * dt)) / ((4.0 * np.pi * dt) ** (n / 2.0) * math.sqrt(det))
    return vals if vals.size > 1 else float(vals[0])


def gaussian_gradient(tensor: DiffusionTensor, x, t: float, y, s: float):
    """Spatial gradient of gaussian_kernel: -A^{-1}(x-y)/(2(t-s)) * Gamma."""
    x1 = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    dt = t - s
    inv = _rational_inverse(tensor.entries)[0]
    g = gaussian_kernel(tensor, x1, t, y, s)
    g = np.atleast_1d(g)
    grad = -(x1 - y) @ inv.T / (2.0 * dt) * g[:, None]
    return grad if grad.shape[0] > 1 else grad[0]


def layered_kernel_1d(a: float, b: float, x, t: float, y: float, s: float):
    """One-dimensional two-layer heat kernel (coefficient a for x>0, b for x<0).

    For a source at y > 0 the kernel is the free Gaussian plus a reflected
    Gaussian with amplitude r = (sqrt(a)-sqrt(b))/(sqrt(a)+sqrt(b)) on the
    source side, and a single transmitted Gaussian on the far side:

        x >= 0:  [ g_a(x - y) + r g_a(x + y) ]
        x <  0:  exp(-k^2/(4 dt)) / ((sqrt(a)+sqrt(b)) sqrt(pi dt)),
                 k = y/sqrt(a) - x/sqrt(b)

    with g_a(z) = exp(-z^2/(4 a dt))/sqrt(4 pi a dt).  Sources at y < 0
    follow by mirror symmetry (a <-> b, x -> -x, y -> -y).  The formula
    satisfies continuity and flux matching at x = 0 and has unit mass.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dt = t - s
    if y < 0.0:
        return layered_kernel_1d(b, a, -x, t, -y, s)
    ra, rb = math.sqrt(a), math.sqrt(b)
    refl = (ra - rb) / (ra + rb)
    out = np.empty_like(x)
    up = x >= 0.0
    out[up] = (
        np.exp(-(x[up] - y) ** 2 / (4.0 * a * dt))
        + refl * np.exp(-(x[up] + y) ** 2 / (4.0 * a * dt))
    ) / math.sqrt(4.0 * np.pi * a * dt)
    k = y / ra - x[~up] / rb
    out[~up] = np.exp(-(k**2) / (4.0 * dt)) / ((ra + rb) * math.sqrt(np.pi * dt))
    return out if out.size > 1 else float(out[0])


def layered_gradient_1d(a: float, b: float, x, t: float, y: float, s: float):
    """d/dx of layered_kernel_1d."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dt = t - s
    if y < 0.0:
        inner = layered_gradient_1d(b, a, -x, t, -y, s)
        out = -np.atleast_1d(inner)
        return out if out.size > 1 else float(out[0])
    ra, rb = math.sqrt(a), math.sqrt(b)
    refl = (ra - rb) / (ra + rb)
    out = np.empty_like(x)
    up = x >= 0.0
    out[up] = (
        -(x[up] - y) / (2.0 * a * dt) * np.exp(-(x[up] - y) ** 2 / (4.0 * a * dt))
        - refl * (x[up] + y) / (2.0 * a * dt) * np.exp(-(x[up] + y) ** 2 / (4.0 * a * dt))
    ) / math.sqrt(4.0 * np.pi * a * dt)
    k = y / ra - x[~up] / rb
    out[~up] = (
        (k / (2.0 * dt * rb))
        * np.exp(-(k**2) / (4.0 * dt))
        / ((ra + rb) * math.sqrt(np.pi * dt))
    )
    return out if out.size > 1 else float(out[0])


def sheared_layered_kernel(tangential, c, a: float, b: float, x, t: float, y, s: float):
    """Kernel of a sheared separable two-layer medium in 2-D or 3-D, and its
    gradients in the target x (K, n) and in the source y (n,).

    The upper layer's tensor is A = [[S + a c c^T, a c], [a c^T, a]] and
    the lower layer's B, the same with b: diag(S, a) and diag(S, b) sheared
    by J = [[I, -c], [0, 1]], A = J^-1 diag(S, a) J^-T.  In z = J x the
    interface stays z_n = x_n = 0, the conormal flux is a dz_n (b dz_n
    below), and the medium separates, so

        Gamma = g_S(x' - y' - c (x_n - y_n)) Gamma_1(x_n, y_n),

    g_S = gaussian_kernel of S and Gamma_1 = layered_kernel_1d(a, b).  The
    gradients follow by the product rule.  d Gamma_1 / d y_n is
    layered_gradient_1d with target and source exchanged: the 1-D operator
    is self-adjoint, so Gamma_1 is symmetric in x_n and y_n.  Returns
    Gamma (K,), grad_x (K, n) and grad_y (K, n).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    c = np.asarray(c, dtype=float)
    s_mat = validate_tensor(tangential)
    w = x[:, :-1] - y[:-1] - np.outer(x[:, -1] - y[-1], c)
    origin = np.zeros(c.size)
    g = np.atleast_1d(gaussian_kernel(s_mat, w, t, origin, s))
    g_w = np.atleast_2d(gaussian_gradient(s_mat, w, t, origin, s))
    g1 = np.atleast_1d(layered_kernel_1d(a, b, x[:, -1], t, y[-1], s))
    g1_x = np.atleast_1d(layered_gradient_1d(a, b, x[:, -1], t, y[-1], s))
    g1_y = np.array([layered_gradient_1d(a, b, y[-1], t, xn, s) for xn in x[:, -1].tolist()])
    tan = g_w * g1[:, None]
    gamma = g * g1
    grad = np.column_stack([tan, g * g1_x - tan @ c])
    sgrad = np.column_stack([-tan, g * g1_y + tan @ c])
    return gamma, grad, sgrad


def interval_green_1d(
    a: float, x, t: float, y: float, s: float, half_width: float, terms: int = 40
):
    """Dirichlet Green function of u_t = a u_xx on (-L, L) by image series.

    Textbook reflected-Gaussian series, used as an independent oracle for
    the image-expansion Green builder.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dt = t - s
    length = 2.0 * half_width
    total = np.zeros_like(x)
    for m in range(-terms, terms + 1):
        total += np.exp(-(x - y - 2.0 * m * length) ** 2 / (4.0 * a * dt))
        total -= np.exp(
            -(x + y + 2.0 * half_width - 2.0 * m * length) ** 2 / (4.0 * a * dt)
        )
    total /= math.sqrt(4.0 * np.pi * a * dt)
    return total if total.size > 1 else float(total[0])
