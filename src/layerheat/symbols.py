"""Transform-domain algebra for the two-layer heat operator.

Applying a Fourier transform in the tangential variables (frequency xi')
and a Laplace transform in time (variable tau) reduces the layered heat
equation to a second-order ODE in x_n on each side of the interface.  This
module implements the exact solution of that ODE system:

* the ``Theta`` square roots that control exponential decay in x_n,
* the six region symbols V (one per ordering of x_n, y_n and 0), read
  from one table of the roots, exponents and coefficients they share,
* the residuals of the defining conditions (source jump, interface
  transmission) evaluated on those symbols.

Stored symbols have the source prefactor exp(-tau*s - i y'.xi') factored
out; the transform module reinstates it as exp(tau*(t-s) + i(x'-y').xi')
at quadrature time, which keeps evaluation translation-invariant in
(y', s) and avoids overflow.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .medium import OnInterface, TwoLayerMedium


class RegionMismatch(RuntimeError):
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
    if not (y_n > 0.0 or y_n < 0.0):
        raise OnInterface("y_n == 0: source on the interface is not supported")
    return REGIONS[region_index(x_n, y_n)]


def region_index(x_n, y_n):
    """classify_region for arrays: the position in ``Region`` of the region
    of each (x_n, y_n) pair.  Every y_n must be nonzero."""
    above = np.where(x_n < 0.0, 2, np.where(x_n >= y_n, 0, 1))  # R2, R11, R12
    below = np.where(x_n > 0.0, 3, np.where(x_n <= y_n, 5, 4))  # R1, R22, R21
    return np.where(y_n > 0.0, above, below)


REGIONS = tuple(Region)


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


def theta_squared(medium: TwoLayerMedium, xi: np.ndarray, tau: np.ndarray):
    """Theta_A^2 and Theta_B^2 for a xi-batch and broadcast tau.

    xi: (Q, n-1) complex; the tangential forms a_t.xi' and xi'^T A_tt xi'
    are the plain bilinear extensions (no conjugation).  tau broadcasts
    against (Q, 1): a (M,) array gives the (Q, M) grid of every xi with
    every tau, a (Q, 1) array pairs sample q of xi with sample q of tau.
    """
    tau = np.asarray(tau, dtype=complex)
    out = []
    for t in (medium.upper, medium.lower):
        form = np.einsum("...i,i->...", xi, t.normal_row.astype(complex))
        quad = np.einsum("...i,ij,...j->...", xi, t.minor, xi)
        out.append(t.a_nn * (quad[:, None] + tau) - form[:, None] ** 2)
    return tuple(out)


class _lazy:
    """Attribute computed on first access and then stored on the instance.

    Unlike functools.cached_property before Python 3.12, it takes no lock
    shared by all instances, so tables built in different CLI worker
    threads do not wait on one another.
    """

    def __init__(self, fn):
        self.fn = fn

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class Exponent(NamedTuple):
    """The exponent ``name`` of region terms, i*phase_sign*phase + root_sign*root.

    ``phase`` (Q, 1) is c.xi', c = a_t/a_nn of one layer (phase_vector): it
    holds no tau and is linear, so odd, in xi'.  ``root`` (Q, M) is that
    layer's Theta/a_nn, even in xi'.  Both signs are +-1.0.
    """

    name: str
    phase_sign: float
    phase: np.ndarray
    root_sign: float
    root: np.ndarray

    def value(self) -> np.ndarray:
        """The exponent itself, (Q, M)."""
        return 1j * self.phase_sign * self.phase + self.root_sign * self.root


class Term(NamedTuple):
    """coef * exp(p x_n + q y_n).  Two regions that share a term give it the
    same ``name`` and the same arrays."""

    name: str
    coef: np.ndarray
    p: Exponent
    q: Exponent


class SymbolTable:
    """The arrays the six region symbols are built from, on one (xi', tau) grid.

    Every region symbol is rational in the two roots Theta_A and Theta_B.
    Together the six use the roots, their sum, eight exponents
    (+-i a +- Theta_A)/a_nn and (+-i b +- Theta_B)/b_nn (named by their two
    signs, ``a_pm`` = (i a - Theta_A)/a_nn) and five coefficients: the
    direct terms 1/(2 Theta), the reflected terms and the transmitted term
    1/(Theta_A + Theta_B).  The table keeps each exponent as its two parts
    (see ``exponent``): the tau-free phases phase_a = a/a_nn and
    phase_b = b/b_nn, one value per xi' node, formed as c.xi' from each
    layer's phase_vector c, and the root parts
    root_a = Theta_A/a_nn and root_b = Theta_B/b_nn.  At real xi' the roots,
    root parts and coefficients are even in xi' and the phases odd, so a
    table on one half of a point-symmetric xi' grid holds all the grid needs.

    Each array is computed on first use and then kept, so the region groups
    of one quadrature pass share them.  ``xi`` is (Q, n-1) complex and
    ``tau`` (M,); the phases have shape (Q, 1), every other array (Q, M).
    """

    def __init__(self, medium: TwoLayerMedium, xi: np.ndarray, tau: np.ndarray):
        self.medium, self.xi, self.tau = medium, xi, tau
        self.ann, self.bnn = medium.upper.a_nn, medium.lower.a_nn
        self._exponents = {}

    @_lazy
    def _roots(self):
        return tuple(map(np.sqrt, theta_squared(self.medium, self.xi, self.tau)))

    theta_a = _lazy(lambda t: t._roots[0])
    theta_b = _lazy(lambda t: t._roots[1])
    theta_sum = _lazy(lambda t: t.theta_a + t.theta_b)

    phase_a = _lazy(lambda t: (t.xi @ phase_vector(t.medium.upper))[:, None])
    phase_b = _lazy(lambda t: (t.xi @ phase_vector(t.medium.lower))[:, None])
    root_a = _lazy(lambda t: t.theta_a / t.ann)
    root_b = _lazy(lambda t: t.theta_b / t.bnn)

    direct_a = _lazy(lambda t: 1.0 / (2.0 * t.theta_a))
    direct_b = _lazy(lambda t: 1.0 / (2.0 * t.theta_b))
    reflect_a = _lazy(
        lambda t: (t.theta_a - t.theta_b) / (2.0 * t.theta_a * t.theta_sum))
    reflect_b = _lazy(
        lambda t: (t.theta_b - t.theta_a) / (2.0 * t.theta_b * t.theta_sum))
    transmit = _lazy(lambda t: 1.0 / t.theta_sum)

    def exponent(self, name: str) -> Exponent:
        """The exponent ``name``: ``a_pm`` = i phase_a - root_a."""
        if name not in self._exponents:
            layer, signs = name.split("_")
            self._exponents[name] = Exponent(
                name, _SIGN[signs[0]], getattr(self, "phase_" + layer),
                _SIGN[signs[1]], getattr(self, "root_" + layer))
        return self._exponents[name]


_SIGN = {"p": 1.0, "m": -1.0}


def phase_vector(tensor) -> np.ndarray:
    """a_t / a_nn of a layer's tensor: the phases of its exponents are
    +-(a_t / a_nn).xi', and 0 where a_t = 0."""
    return tensor.normal_row / tensor.a_nn


# Each region's terms as "coefficient p q": V = sum coef e^{p x_n + q y_n}.
# Every term of a region has the phase -phase_X x_n + phase_Y y_n, X and Y
# the layers of the target and of the source.
_REGION_TERMS = {
    Region.R11: ("direct_a a_mm a_pp", "reflect_a a_mm a_pm"),
    Region.R12: ("reflect_a a_mm a_pm", "direct_a a_mp a_pm"),
    Region.R2: ("transmit b_mp a_pm",),
    Region.R1: ("transmit a_mm b_pp",),
    Region.R21: ("reflect_b b_mp b_pp", "direct_b b_mm b_pp"),
    Region.R22: ("direct_b b_mp b_pm", "reflect_b b_mp b_pp"),
}


def region_phases(medium: TwoLayerMedium) -> np.ndarray:
    """(6, 2, n-1): for each region, in REGIONS order, c_p and c_q such that
    phase_sign * phase = c.xi' for the exponents p and q of all its terms."""
    layers = {"a": medium.upper, "b": medium.lower}
    return np.array([[_SIGN[name[2]] * phase_vector(layers[name[0]])
                      for name in _REGION_TERMS[region][0].split()[1:]] for region in REGIONS])


def region_terms(region: Region, medium: TwoLayerMedium, xi: np.ndarray, tau: np.ndarray,
                 *, table: SymbolTable | None = None) -> list[Term]:
    """Exponential-term decomposition of the region symbol V.

    Returns a list of terms (name, coef, p, q), coef of shape (Q, M) and the
    exponents p and q split into phase and root parts (``Exponent``), such
    that ``V(x_n, y_n) = sum_k coef_k * exp(p_k x_n + q_k y_n)``.  All terms
    of one region share the phase parts of p and of q.  The source
    prefactor exp(-tau*s - i y'.xi') is NOT included.  The terms are read
    from ``table``, which must have been built for (medium, xi, tau).
    Without one a fresh table is built; calls for several regions on one
    grid pass the same table so that they share its arrays.
    """
    t = SymbolTable(medium, xi, tau) if table is None else table
    if t.medium is not medium or t.xi is not xi or t.tau is not tau:
        raise ValueError("the symbol table was built for another grid")
    if region not in _REGION_TERMS:
        raise RegionMismatch(f"unknown region {region}")
    terms = []
    for name in _REGION_TERMS[region]:
        coef, p, q = name.split()
        terms.append(Term(name, getattr(t, coef), t.exponent(p), t.exponent(q)))
    return terms


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
    for term in region_terms(region, medium, xi, tau):
        p, q = term.p.value()[0, 0], term.q.value()[0, 0]
        total += complex(term.coef[0, 0] * p ** derivative * np.exp(p * x_n + q * y_n))
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
