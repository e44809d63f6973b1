"""Checks on the transform-domain symbols that only the tests use.

The finite-difference ODE residual of a region symbol, membership in the
analyticity domain L_mu, the branch-cut test of Theta^2, the
root-avoidance test at one spectral point and the decay margin of the
symbol estimate.  They verify ``layerheat.symbols`` from outside; the
evaluator does not call them.
"""
from __future__ import annotations

import numpy as np

from layerheat.medium import TwoLayerMedium
from layerheat.symbols import Region, SpectralPoint, theta_squared, v_symbol


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
    eta = sp.tau / 1j
    re_xi = np.linalg.norm(sp.xi_prime.real)
    im_xi = np.linalg.norm(sp.xi_prime.imag)
    return eta.imag < mu * (abs(eta.real) + re_xi**2) - im_xi**2 / mu


def on_branch_cut(th2: np.ndarray) -> np.ndarray:
    """Elementwise: Theta^2 on the principal square root's cut (-inf, 0].

    The test is relative (1e-13 of |Theta^2|) so that values rounded onto
    or next to the cut count as on it.
    """
    scale = np.maximum(np.abs(th2), 1e-300)
    return (np.abs(th2.imag) <= 1e-13 * scale) & (th2.real <= 1e-13 * scale)


def root_avoidance_check(medium: TwoLayerMedium, sp: SpectralPoint) -> bool:
    """True iff the discriminant -4*Theta^2 avoids [0, inf) for both layers.

    Equivalently Theta^2 avoids the branch cut (-inf, 0]; this is the
    certified condition under which the principal square root has a
    strictly positive real part.
    """
    th2_A, th2_B = theta_squared(medium, sp.xi_prime[None, :], np.array([sp.tau]))
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
    freq = np.linalg.norm(np.abs(sp.xi_prime)) + abs(sp.tau / 1j) ** 0.5
    return float(np.log(max(abs(v), 1e-300)) + np.log(max(freq, 1e-300))
                 + c * abs(x_n - y_n) * freq)
