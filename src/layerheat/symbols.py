"""Transform-domain algebra for the two-layer heat operator.

Applying a Fourier transform in the tangential variables (frequency xi')
and a Laplace transform in time (variable tau) reduces the layered heat
equation to a second-order ODE in x_n on each side of the interface.  This
module implements the exact solution of that ODE system:

* the ``Theta`` square roots that control exponential decay in x_n,
* the six region symbols V (one per ordering of x_n, y_n and 0),
* the residuals of the defining conditions (source jump, interface
  transmission) evaluated on those symbols,
* the analyticity predicates used to certify contour deformations.

Stored symbols have the source prefactor exp(-tau*s - i y'.xi') factored
out; the transform module reinstates it as exp(tau*(t-s) + i(x'-y').xi')
at quadrature time, which keeps evaluation translation-invariant in
(y', s) and avoids overflow.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .medium import OnInterface, TwoLayerMedium


class SymbolError(RuntimeError):
    """Base class for transform-domain evaluation failures."""


class RegionMismatch(SymbolError):
    """(x_n, y_n) inconsistent with the requested region tag."""


@dataclass(frozen=True)
class SpectralPoint:
    """Complex frequency pair (xi', tau) with tau = i*eta."""

    xi_prime: np.ndarray
    tau: complex

    def __post_init__(self):
        object.__setattr__(
            self, "xi_prime", np.atleast_1d(np.asarray(self.xi_prime, dtype=complex))
        )
        object.__setattr__(self, "tau", complex(self.tau))
        self.xi_prime.setflags(write=False)

    @classmethod
    def from_eta(cls, xi_prime, eta: complex) -> "SpectralPoint":
        return cls(xi_prime=xi_prime, tau=1j * complex(eta))

    @property
    def eta(self) -> complex:
        return self.tau / 1j


class Region(Enum):
    """Orderings of x_n, y_n and the interface plane 0."""

    R11 = "x_n > y_n > 0"
    R12 = "y_n > x_n > 0"
    R2 = "x_n < 0 < y_n"
    R1 = "x_n > 0 > y_n"
    R21 = "y_n < x_n < 0"
    R22 = "x_n < y_n < 0"


def classify_region(x_n: float, y_n: float) -> Region:
    """Region tag for a target/source pair of normal coordinates."""
    if y_n > 0.0:
        if x_n < 0.0:
            return Region.R2
        return Region.R11 if x_n >= y_n else Region.R12
    if y_n < 0.0:
        if x_n > 0.0:
            return Region.R1
        return Region.R22 if x_n <= y_n else Region.R21
    raise OnInterface("y_n == 0: source on the interface is not supported")


def region_contains(region: Region, x_n: float, y_n: float) -> bool:
    """Closure membership (boundaries shared by two regions are allowed)."""
    if region is Region.R11:
        return x_n >= y_n >= 0.0
    if region is Region.R12:
        return 0.0 <= x_n <= y_n
    if region is Region.R2:
        return x_n <= 0.0 <= y_n
    if region is Region.R1:
        return x_n >= 0.0 >= y_n
    if region is Region.R21:
        return y_n <= x_n <= 0.0
    return x_n <= y_n <= 0.0


def _forms(medium: TwoLayerMedium, xi: np.ndarray):
    """Linear and quadratic tangential forms for both tensors.

    ``xi`` has shape (..., n-1) and may be complex; the forms are the
    plain bilinear extensions (no conjugation).
    """
    A, B = medium.upper, medium.lower
    if xi.shape[-1] == 0:
        zero = np.zeros(xi.shape[:-1], dtype=complex)
        return zero, zero, zero.copy(), zero.copy()
    a_form = xi @ A.normal_row.astype(complex)
    b_form = xi @ B.normal_row.astype(complex)
    quad_A = np.einsum("...i,ij,...j->...", xi, A.minor, xi)
    quad_B = np.einsum("...i,ij,...j->...", xi, B.minor, xi)
    return a_form, b_form, quad_A, quad_B


def theta_squared(medium: TwoLayerMedium, xi: np.ndarray, tau: np.ndarray):
    """Theta_A^2 and Theta_B^2 for a xi-batch and broadcast tau.

    xi: (Q, n-1) complex.  tau broadcasts against (Q, 1): a (M,) array
    gives the (Q, M) grid of every xi with every tau, a (Q, 1) array pairs
    sample q of xi with sample q of tau.
    """
    a_form, b_form, quad_A, quad_B = _forms(medium, xi)
    tau = np.asarray(tau, dtype=complex)
    th2_A = medium.upper.a_nn * (quad_A[:, None] + tau) - a_form[:, None] ** 2
    th2_B = medium.lower.a_nn * (quad_B[:, None] + tau) - b_form[:, None] ** 2
    return th2_A, th2_B, a_form, b_form


def on_branch_cut(th2: np.ndarray) -> np.ndarray:
    """Elementwise: Theta^2 on the principal square root's cut (-inf, 0].

    The test is relative (1e-13 of |Theta^2|) so that values rounded onto
    or next to the cut count as on it.
    """
    scale = np.maximum(np.abs(th2), 1e-300)
    return (np.abs(th2.imag) <= 1e-13 * scale) & (th2.real <= 1e-13 * scale)


def region_terms(region: Region, medium: TwoLayerMedium, xi: np.ndarray, tau: np.ndarray):
    """Exponential-term decomposition of the region symbol V.

    Returns a list of (coef, p, q) arrays of shape (Q, M) such that
    ``V(x_n, y_n) = sum_k coef_k * exp(p_k x_n + q_k y_n)``.  The source
    prefactor exp(-tau*s - i y'.xi') is NOT included.
    """
    th2_A, th2_B, a, b = theta_squared(medium, xi, tau)
    thA = np.sqrt(th2_A)
    thB = np.sqrt(th2_B)
    a = a[:, None]
    b = b[:, None]
    ann = medium.upper.a_nn
    bnn = medium.lower.a_nn
    sum_th = thA + thB
    if region is Region.R11:
        return [
            (1.0 / (2.0 * thA), (-1j * a - thA) / ann, (1j * a + thA) / ann),
            ((thA - thB) / (2.0 * thA * sum_th), (-1j * a - thA) / ann, (1j * a - thA) / ann),
        ]
    if region is Region.R12:
        return [
            ((thA - thB) / (2.0 * thA * sum_th), (-1j * a - thA) / ann, (1j * a - thA) / ann),
            (1.0 / (2.0 * thA), (-1j * a + thA) / ann, (1j * a - thA) / ann),
        ]
    if region is Region.R2:
        return [
            (1.0 / sum_th, (-1j * b + thB) / bnn, (1j * a - thA) / ann),
        ]
    if region is Region.R1:
        return [
            (1.0 / sum_th, (-1j * a - thA) / ann, (1j * b + thB) / bnn),
        ]
    if region is Region.R21:
        return [
            ((thB - thA) / (2.0 * thB * sum_th), (-1j * b + thB) / bnn, (1j * b + thB) / bnn),
            (1.0 / (2.0 * thB), (-1j * b - thB) / bnn, (1j * b + thB) / bnn),
        ]
    if region is Region.R22:
        return [
            (1.0 / (2.0 * thB), (-1j * b + thB) / bnn, (1j * b - thB) / bnn),
            ((thB - thA) / (2.0 * thB * sum_th), (-1j * b + thB) / bnn, (1j * b + thB) / bnn),
        ]
    raise RegionMismatch(f"unknown region {region}")


def v_symbol(
    region: Region,
    medium: TwoLayerMedium,
    x_n: float,
    y_n: float,
    sp: SpectralPoint,
    derivative: int = 0,
) -> complex:
    """Region symbol V(x_n, y_n, xi', tau), or its x_n-derivative.

    ``derivative`` = 0, 1 or 2 returns V, dV/dx_n, d2V/dx_n2 (exact, from
    the exponents).
    """
    if not region_contains(region, x_n, y_n):
        raise RegionMismatch(
            f"(x_n, y_n) = ({x_n}, {y_n}) is not in the closure of {region.name}"
        )
    xi = sp.xi_prime[None, :]
    tau = np.array([sp.tau])
    total = 0.0 + 0.0j
    for coef, p, q in region_terms(region, medium, xi, tau):
        total += complex(coef[0, 0] * p[0, 0] ** derivative * np.exp(p[0, 0] * x_n + q[0, 0] * y_n))
    return total


def transmission_residuals(medium: TwoLayerMedium, sp: SpectralPoint, y_n: float) -> np.ndarray:
    """Relative residuals of the four defining conditions of the symbols, y_n > 0.

    Conditions, all evaluated through :func:`v_symbol`: continuity at
    x_n = y_n (R11 against R12), unit conormal-derivative jump
    a_nn (V'_R12 - V'_R11) = 1 at the source plane, continuity at x_n = 0
    (R12 against R2) and conormal-flux continuity at x_n = 0.
    """
    if not y_n > 0.0:
        raise RegionMismatch("transmission_residuals requires y_n > 0")
    ann, bnn = medium.upper.a_nn, medium.lower.a_nn
    ia = 1j * complex(sp.xi_prime @ medium.upper.normal_row.astype(complex))
    ib = 1j * complex(sp.xi_prime @ medium.lower.normal_row.astype(complex))

    def v(region, x_n, derivative=0):
        return v_symbol(region, medium, x_n, y_n, sp, derivative)

    above, below = v(Region.R11, y_n), v(Region.R12, y_n)
    r1 = abs(above - below) / max(abs(above), abs(below), 1e-300)

    jump = ann * (v(Region.R12, y_n, 1) - v(Region.R11, y_n, 1))
    r2 = abs(jump - 1.0) / max(abs(jump), 1.0)

    upper, lower = v(Region.R12, 0.0), v(Region.R2, 0.0)
    r3 = abs(upper - lower) / max(abs(upper), abs(lower), 1e-300)

    flux_up = ann * v(Region.R12, 0.0, 1) + ia * upper
    flux_lo = bnn * v(Region.R2, 0.0, 1) + ib * lower
    r4 = abs(flux_up - flux_lo) / max(abs(flux_up), abs(flux_lo), 1e-300)

    return np.array([r1, r2, r3, r4])


def ode_residual(
    region: Region,
    medium: TwoLayerMedium,
    x_n: float,
    y_n: float,
    sp: SpectralPoint,
    h: float,
) -> complex:
    """Central-difference residual of the governing ODE at x_n.

    The symbol solves  gamma_nn V'' + 2i (g.xi') V' - (G xi'.xi' + tau) V = 0
    with (gamma, g, G) the tensor blocks of the layer containing x_n; the
    residual of the second-difference approximation is O(h^2)|V|.
    """
    if region in (Region.R2, Region.R21, Region.R22):
        tensor = medium.lower
    else:
        tensor = medium.upper
    xi = sp.xi_prime
    lin = complex(xi @ tensor.normal_row.astype(complex)) if xi.size else 0.0
    quad = complex(np.einsum("i,ij,j->", xi, tensor.minor.astype(complex), xi)) if xi.size else 0.0
    v0 = v_symbol(region, medium, x_n, y_n, sp)
    vp = v_symbol(region, medium, x_n + h, y_n, sp)
    vm = v_symbol(region, medium, x_n - h, y_n, sp)
    d2 = (vp - 2.0 * v0 + vm) / h**2
    d1 = (vp - vm) / (2.0 * h)
    return tensor.a_nn * d2 + 2j * lin * d1 - (quad + sp.tau) * v0


def in_analyticity_domain(sp: SpectralPoint, mu: float) -> bool:
    """Membership in L_mu^{n-1}.

    L_mu = { (xi', eta) : Im eta < mu(|Re eta| + |Re xi'|^2) - |Im xi'|^2/mu }.
    """
    eta = sp.eta
    re_xi = np.linalg.norm(sp.xi_prime.real)
    im_xi = np.linalg.norm(sp.xi_prime.imag)
    return eta.imag < mu * (abs(eta.real) + re_xi**2) - im_xi**2 / mu


def root_avoidance_check(medium: TwoLayerMedium, sp: SpectralPoint) -> bool:
    """True iff the discriminant -4*Theta^2 avoids [0, inf) for both layers.

    Equivalently Theta^2 avoids the branch cut (-inf, 0]; this is the
    certified condition under which the principal square root has a
    strictly positive real part.
    """
    th2_A, th2_B, _, _ = theta_squared(medium, sp.xi_prime[None, :], np.array([sp.tau]))
    return not np.any(on_branch_cut(th2_A) | on_branch_cut(th2_B))


def symbol_decay_margin(
    region: Region,
    medium: TwoLayerMedium,
    x_n: float,
    y_n: float,
    sp: SpectralPoint,
    c: float | None = None,
) -> float:
    """log|V| + log(|xi'| + |eta|^{1/2}) + c|x_n - y_n|(|xi'| + |eta|^{1/2}).

    Boundedness of this margin over the analyticity domain expresses the
    exponential-decay estimate for the symbols; the default rate is
    c = delta / (2 max(a_nn, b_nn)).
    """
    if c is None:
        c = medium.min_delta() / (2.0 * max(medium.upper.a_nn, medium.lower.a_nn))
    v = v_symbol(region, medium, x_n, y_n, sp)
    freq = np.linalg.norm(np.abs(sp.xi_prime)) + abs(sp.eta) ** 0.5
    return float(np.log(max(abs(v), 1e-300)) + np.log(max(freq, 1e-300))
                 + c * abs(x_n - y_n) * freq)
