"""Transform-domain algebra for the two-layer heat operator.

Applying a Fourier transform in the tangential variables (frequency xi')
and a Laplace transform in time (variable tau) reduces the layered heat
equation to a second-order ODE in x_n on each side of the interface.  This
module implements the exact solution of that ODE system:

* the ``Theta`` square roots that control exponential decay in x_n,
* the six region symbols V (one per ordering of x_n, y_n and 0), read
  from one table of the roots, root parts and coefficients they share and
  from one pair of phase vectors per region (region_phases),
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
    if y_n > 0.0:
        return Region.R2 if x_n < 0.0 else Region.R11 if x_n >= y_n else Region.R12
    if y_n < 0.0:
        return Region.R1 if x_n > 0.0 else Region.R22 if x_n <= y_n else Region.R21
    raise OnInterface("y_n == 0: source on the interface is not supported")


# The region codes of region_index's keys: R11, R12 and R2 above the
# interface, and their mirrors R22, R21 and R1 below it.
_REGION_OF_KEY = np.array([0, 1, 2, 5, 4, 3])


def region_index(x_n, y_n):
    """classify_region for arrays of finite x_n and nonzero y_n: the position
    in ``Region`` of the region of each (x_n, y_n) pair.

    Mirroring a source below the interface, (x_n, y_n) -> (-x_n, -y_n),
    maps R1, R22 and R21 onto R2, R11 and R12, ties included, so the key
    counts x < |y_n| and x < 0 of the mirrored x_n, plus 3 below."""
    sign = np.copysign(1.0, y_n)
    x = x_n * sign
    key = np.add(x < y_n * sign, x < 0.0, dtype=np.intp)
    key += (sign < 0.0) * 3
    return _REGION_OF_KEY[key]


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
    """The root part sign*root of the exponent ``name`` of region terms.

    ``root`` (Q, M) is one layer's Theta/a_nn, even in xi'; ``sign`` is
    +-1.0.  The exponent's odd phase, tau-free and linear in xi', is the
    region's c.xi' (region_phases).
    """

    name: str
    sign: float
    root: np.ndarray


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
    1/(Theta_A + Theta_B).  The table holds each exponent's root part,
    root_a = Theta_A/a_nn or root_b = Theta_B/b_nn (see ``exponent``); its
    phase is a fixed linear form per region (region_phases).  At real xi'
    the roots, root parts and coefficients are even in xi', so a table on
    one half of a point-symmetric xi' grid holds all the grid needs.

    Each array is computed on first use and then kept, so the region groups
    of one quadrature pass share them.  ``xi`` is (Q, n-1) complex and
    ``tau`` (M,); every array has shape (Q, M).
    """

    def __init__(self, medium: TwoLayerMedium, xi: np.ndarray, tau: np.ndarray):
        self.medium, self.xi, self.tau = medium, xi, tau
        self.ann, self.bnn = medium.upper.a_nn, medium.lower.a_nn

    @_lazy
    def _roots(self):
        return tuple(map(np.sqrt, theta_squared(self.medium, self.xi, self.tau)))

    theta_a = _lazy(lambda t: t._roots[0])
    theta_b = _lazy(lambda t: t._roots[1])
    theta_sum = _lazy(lambda t: t.theta_a + t.theta_b)

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
        """The root part of the exponent ``name``: ``a_pm`` has -root_a."""
        return Exponent(name, _SIGN[name[3]], getattr(self, "root_" + name[0]))


_SIGN = {"p": 1.0, "m": -1.0}


# Each region's terms as "coefficient p q": V = sum coef e^{p x_n + q y_n}.
# An exponent "a_pm" is (i a - Theta_A)/a_nn: its layer, then the signs of
# its phase and of its root.  Every term of a region has the phase
# -phi_X x_n + phi_Y y_n, phi = a_t.xi'/a_nn of X and Y, the layers of the
# target and of the source.
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
    the exponents p and q of all its terms have the phases i c_p.xi' and
    i c_q.xi'.  The root parts are the terms' own (region_terms)."""
    # a_t / a_nn of each layer, 0 where a_t = 0.
    c = {"a": medium.upper.normal_row / medium.upper.a_nn,
         "b": medium.lower.normal_row / medium.lower.a_nn}
    return np.array([[_SIGN[name[2]] * c[name[0]]
                      for name in _REGION_TERMS[region][0].split()[1:]] for region in REGIONS])


def region_terms(region: Region, medium: TwoLayerMedium, xi: np.ndarray, tau: np.ndarray,
                 *, table: SymbolTable | None = None) -> list[Term]:
    """Exponential-term decomposition of the region symbol V.

    Returns a list of terms (name, coef, p, q), coef of shape (Q, M) and p
    and q the root parts of the exponents (``Exponent``), such that
    ``V(x_n, y_n) = sum_k coef_k * exp(p_k x_n + q_k y_n)`` with
    p_k = i c_p.xi' + p.sign * p.root and q_k likewise, c_p and c_q the
    region's phase vectors (region_phases), shared by all its terms.  The
    source prefactor exp(-tau*s - i y'.xi') is NOT included.  The terms are
    read from ``table``, which must have been built for (medium, xi, tau).
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
    phases = region_phases(medium)[REGIONS.index(region)] @ sp.xi_prime
    total = 0.0 + 0.0j
    for term in region_terms(region, medium, sp.xi_prime[None, :], np.array([sp.tau])):
        p, q = (1j * c + e.sign * e.root[0, 0] for c, e in zip(phases, (term.p, term.q)))
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
