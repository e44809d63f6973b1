"""Numerical inversion of the Fourier-Laplace representation of the kernel.

The fundamental solution is recovered from the region symbols V by

    Gamma = (2*pi)^{-(n-1)} Int_{R^{n-1}} e^{i(x'-y').xi'}
            [ (1/2*pi*i) Int_C e^{tau(t-s)} V(x_n, y_n, xi', tau) dtau ] dxi'

The Laplace contour C is a hyperbolic contour deformed into the left
half-plane (exponentially convergent trapezoid rule, Weideman & Trefethen,
Math. Comp. 76 (2007)).  The quadrature evaluates the symbols at real xi'
only, where Theta^2 / a_nn = tau + xi'^T S xi' with S the layer's
tangential Schur complement and xi'^T S xi' >= 0.  The hyperbola meets
the real axis only at tau_0 = mu_c (1 - sin alpha) > 0, so Theta^2 of
both layers stays off the branch cut (-inf, 0] at every node, for every
SPD pair and at every scale of A; no certificate is needed to choose the
contour.  (certify_mu gives the paper's analyticity domain L_mu, which
is about complex xi'.)  One contour shape serves 1-D and one 2-D and
3-D (_CONTOUR_ROWS); each carries a table of its measured error against
the half-width M, and M(tol) is the smallest tabulated M whose error is
at most min(1e-4 tol, 1e-13) (_contour_size).  The contour plan (shape,
M) is thus a function of the dimension and the tolerance alone.

The tangential xi' integral is a uniform trapezoid rule too: its
integrand is analytic and decays like a Gaussian, the textbook case for
that rule (Trefethen & Weideman, SIAM Rev. 56 (2014)).  Its radius follows
that decay (Tail bound), its spacing the oscillation |x' - y'| and the
widest layer (_xi_spacing).

Error estimate.  The nodes of even index on the contour and on every xi'
axis form the step-2h rule, summed from the tau contraction's own
exponentials.  est is CONTOUR_SAFETY times the change of Gamma and grad
between the two rules, or the tail bound below or a roundoff floor if
larger, in every dimension; in 1-D the xi' rule is one node.

Half rule.  The kernel is real: at real xi' the integrand at (-xi', conj
tau) is the complex conjugate of the integrand at (xi', tau), because
Theta^2 has real coefficients and the i*xi'.g terms change sign with xi'.
The contour is symmetric (tau_{-k} = conj tau_k, w_{-k} = conj w_k) and
the xi' grid and its even-index subset are point-symmetric, so only the
nodes k = 0..M are evaluated, the weights of k > 0 are doubled, and every
sum is the real part of the half sum.

The xi' grid is halved too.  Node Q-1-q of the grid is -xi'_q.  Theta^2 =
a_nn (xi'^T A_tt xi' + tau) - (a_t.xi')^2 is even in xi', and so are the
roots, their sums and every coefficient, to the last bit; only the linear
forms a_t.xi' are odd, and they hold no tau.  So each exponent
(+-i a_t.xi' +- Theta)/a_nn is an odd phase i phi plus an even root part
r, and e^{p x_n + q y_n} = e^{i Phi} e^{r_p x_n + r_q y_n}, Phi = phi_p x_n +
phi_q y_n.  Each phase is one linear form per region, phi_p = c_p.xi'
and phi_q = c_q.xi' (symbols.region_phases), 0 where a_t = 0.  The
symbols, the exponentials e^r and the tau contraction run on the (Q+1)/2
nodes 0..(Q-1)/2 only, or on fewer (Symmetry; _tau_sums).  Their half sum
h is even in xi', so the full contour rule's integrand, the mean of the
half sums e^{i Phi} h at a node and conj(e^{-i Phi} h) at its mirror, is
e^{i Phi} Re h, and only Re h is kept.  With psi = (x' - y' + c_p x_n +
c_q y_n).xi', a node and its mirror add 2 cos psi Re h to Gamma, and sin
psi terms to the gradients: real sums over the half nodes (_phase_sums).

Symmetry.  In 3-D a medium may keep more of the grid's symmetries.  When
row j of A has no off-diagonal entry in both layers (A_tt and a_t are zero
off the diagonal there), the reflection xi_j -> -xi_j leaves xi'^T A_tt
xi' and (a_t.xi')^2 unchanged to the last bit, and with them every root
and coefficient.  When both axes reflect, their spacings are equal and
A_tt[0,0] == A_tt[1,1] in each layer, so does the exchange of the two
axes.  With the mirror of the half rule these maps split the canonical
half into orbits, and the tau contraction runs on one representative per
orbit, (-|m_0|, -|m_1|) in units of the steps, ordered |m_0| >= |m_1|
under the exchange (_half_grid).  A half node reads the sums of its
representative, and its phases come from its own xi'.  Neither map changes
the parity of an index, so step-2h nodes have step-2h representatives.
The floor rows and the tail bound's integrands are the same at every node
of an orbit (they read |phi| and |xi|), so their node sums take each
orbit's summed weights.  The benchmark's 3-D batch (I | diag(2,2,3), equal
reach on both axes) runs on 300 of its 1,105 half nodes.  In 1-D, in 2-D
(where a reflection is the half rule's own mirror) and on media coupled on
both tangential axes every node is its own representative, and no map is
formed.

Shared symbols.  A call's unique normal pairs (x_n, y_n) form one table,
ordered by region.  All six region symbols are built from one table of
Theta_A, Theta_B, their sum, the two root parts and five coefficients
(symbols.SymbolTable), so a block of the grid (Streaming) evaluates each
array once for all regions.  A term that two regions share (R11/R12,
R21/R22) is the same arrays, and the tau contraction runs once per block
for each distinct term, over the normal pairs of every region that has it.

Phase table.  A point's phase psi = s.xi' depends on it only through its
shift s = x' - y' + c_p x_n + c_q y_n, and its tau sums only through its
normal pair.  Tensor grids and image sums repeat both: a cube call of the
benchmark's green workload has 2,500 points but 50 shifts and 50 pairs.
When the S shifts and P pairs make a table of S P <= K entries, K the
points, the phase layer forms cos psi and sin psi once per shift, reads
every pair's sums at the H half nodes once (P H values per row of sums),
and contracts each entry as it would a point; else point by point.  Both
sum every product over the half nodes in the same order (_real_sums), so
a point's bytes depend neither on the route nor on the fold (Symmetry).

Streaming.  The tau contraction runs over the representatives of the
canonical half (Symmetry) in blocks of whole rows of them (those of one
xi_0; one node in 2-D), as many rows as fit BLOCK_ELEMENTS (node, contour
node) entries, and at least one; the last row ends at the centre node.
A block holds its SymbolTable, its region terms, their |root| tables, the
weights of one term at a time, and one chunk of exponentials (normal
pairs x nodes x contour nodes, within the same budget).  It adds its
columns of the half sums and of the step-2h sums, and folds its roundoff
magnitudes straight into the per-pair node sums of the floor (_tau_sums).
What outlives a block is a few arrays of (normal pairs x representatives):
memory is O(BLOCK_ELEMENTS x terms + pairs x representatives), where the
whole-grid tables were O(H x M x terms).  The phase layer forms cos psi
and sin psi for one tile of shifts (of points, point by point) at a time,
as many as fit BLOCK_ELEMENTS (shift, half node) entries and at least one,
and sin psi Re h for as many (entry, node) values or one entry; it keeps
the (shift x pair) table, at most K entries per row.  Each node's sums
over the contour run in the same order in any block, its at most two
terms add to zero in either order to the same bits, and each table entry
is its own sum, so Gamma and its gradients do not depend on the
partition, and est only by the rounding of the floor's node sums.

Tail bound.  After the tau integral the integrand decays like
e^{-a |xi'|^2}, a = lambda_min(S) (t - s) over the tangential Schur
complements S of both layers, so one xi' grid on [-R0, R0] per axis
suffices: a R0^2 = ln(100/tol), widened below tol 1e-6 (_base_radius).
A bound on what the grid leaves out is the grid's own mass on
R0/2 <= |xi_j| <= R0, extrapolated beyond R0 by the Gaussian mass ratio
(_tail_bound).  It reads the full rule's integrand, |Re h| at a node and
at its mirror alike; |h| would not do, since the imaginary part of the
half sum, which the mirrored node cancels, decays only like 1/|xi'|.
Gamma and the gradients get bounds of their own, and each is tested
against its own scale: 0.1 tol |Gamma| plus 0.1 tol times the kernel
scale (4 pi dt)^{-n/2} det^{-1/2}, and 0.1 tol max|grad Gamma| plus 0.1
tol times the kernel scale over the length sqrt(min_delta dt).  A grid
that fails either test raises QuadratureNotConverged; there is no second
grid.  The larger bound is the truncation part of est.  In 1-D the one
node xi' = 0 lies on no axis, and both bounds are 0.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .medium import MediumError, OnInterface, TwoLayerMedium
from .symbols import REGIONS, SymbolTable, region_index, region_phases, region_terms


class QuadratureNotConverged(RuntimeError):
    """The xi' grid's tail bound fails its truncation test (CLI exit 3)."""


# Hyperbolic contour shapes tau(u) = mu_c * (1 + sin(i*u - alpha)) sampled
# at u = k*h, h = u_max/M, k = -M..M (only k = 0..M are evaluated, see
# _hyperbolic_nodes), with mu_c = mu_scale*M/(t-s).  Row 0 serves 1-D and
# row 1 2-D and 3-D.  Row 1 reaches the 1e-13 target at M = 32 where row 0
# needs 48, a third less tau work on every xi' node; but in 1-D its step-2h
# rule at M/2 = 16 is coarse, and est (the change between the two rules)
# would rise from 5e-11 to 1e-4 of the peak there.
#
# Columns: (alpha, u_max, mu_scale, errors), where errors[i] is the measured
# relative error of the inversion of 1/sqrt(tau) (exact 1/sqrt(pi (t-s)))
# with M = CONTOUR_M[i], the largest over t - s = 0.01, 0.3 and 3, rounded
# up to two digits.  Each row falls exponentially in M to an optimum and
# then rises again with the roundoff of its growing weights.
CONTOUR_M = tuple(range(24, 129, 8))
_CONTOUR_ROWS = (
    (0.85, 1.747, 0.5, (1.6e-09, 1.1e-10, 6.5e-13, 3.4e-14, 2.5e-13, 1.4e-12, 2.0e-12,
                        3.9e-12, 2.2e-11, 1.4e-10, 7.8e-11, 5.5e-10, 3.9e-09, 6.5e-09)),
    (0.60, 2.576, 0.3, (2.6e-11, 6.4e-14, 6.2e-14, 5.8e-14, 3.6e-13, 1.2e-12, 1.2e-12,
                        2.4e-11, 3.2e-11, 5.6e-11, 1.3e-10, 7.9e-10, 2.7e-09, 1.8e-08)),
)

# The cap of the analyticity certificate mu, which 1-D media reach, and its
# relative margin below the exact supremum, which covers the bisection and
# the rounding of its test.
MU_MAX = 2.4
MU_MARGIN = 1e-6

# Factor on the Gaussian extrapolation of the xi' tail (see _tail_bound).
TAIL_SAFETY = 10.0

# Roundoff floor of est.  A term w e^z of Gamma, z = p x_n + q y_n, is
# rounded by about eps (|p x_n| + |q y_n|) relative through its exponent,
# and by a few eps through the exponential, the products and the sum;
# ROUNDOFF_UNITS counts the latter.  On the 1-D closed form the exponent
# part dominates: errors reach 9-11 eps sum |terms| where the Gaussian
# exponent is 8-12.  The gradients carry a factor p, q or i xi_j in each
# term and get floors of their own: at short lags |p| reaches tens on the
# contour, and the normal gradient's roundoff then exceeds Gamma's floor.
# Each |p| is bounded by |r| + |phi|, root part plus phase (_tau_sums).
ROUNDOFF_UNITS = 2.0

# Factor on the difference between the rule and its step-2h subset of
# even-index nodes (see eval_many).  On contour row 0, whose error is set
# by the truncation at u_max, the difference tracks the error itself, with
# about half of the points below it; on the 1-D layered closed forms at
# M = 40 a factor 2 covered every error, and 4 doubles that.
CONTOUR_SAFETY = 4.0

# Element budget of the working arrays (module docstring, Streaming): a
# block of xi' rows holds at most this many (node, contour node) entries of
# each table, a chunk of exponentials at most this many (pair, node,
# contour node) entries and a tile of the phase layer at most this many
# (shift or point, half node) entries, and of its (shift, pair) products
# as many (entry, half node) values; a block is never less than one row, a
# tile never less than one shift, point or entry.  Measured on a 2-core
# x86-64 host (numpy 2.4) on an 8-point 3-D call of 36,465 table entries,
# against the whole grid at once (13.8 MB): at 2^12, 2^13, 2^14 and 2^15
# the call peaked at 1.6, 3.4, 6.9 and 13.0 MB of traced memory and took
# 0.91, 0.85, 0.85 and 0.96 of the time, in paired runs.  Below 2^14 the
# smaller pair chunks cost the 1-D and 2-D calls up to 8 %.
BLOCK_ELEMENTS = 2 ** 14


@dataclass(frozen=True)
class QuadratureConfig:
    """Kernel evaluation tolerance; the contour follows from it and the medium."""

    target_rel_tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.target_rel_tol < 1.0:
            raise ValueError("target_rel_tol must lie in (0, 1)")


def point_pairs(x, y, n: int):
    """Targets (K, n) and their sources broadcast to (K, n).

    MediumError unless y is one source (n,) or one per target (K, n).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.ndim != 2 or x.shape[1] != n:
        raise MediumError(f"points have shape {x.shape}, medium dimension {n}")
    y = np.asarray(y, dtype=float)
    if y.shape not in ((n,), x.shape):
        raise MediumError(f"sources must have shape ({n},) or {x.shape}, not {y.shape}")
    return x, np.broadcast_to(y, x.shape)


def time_lag(t, s) -> float:
    """t - s, or MediumError unless t and s are finite numbers with t > s."""
    try:
        t, s = float(t), float(s)
    except (TypeError, ValueError) as exc:
        raise MediumError("t and s must be numbers") from exc
    if not (math.isfinite(t) and math.isfinite(s)):
        raise MediumError("t and s must be finite")
    if not t > s:
        raise MediumError("require t > s")
    return t - s


def certify_mu(medium: TwoLayerMedium) -> float:
    """The analyticity certificate mu of a medium: MU_MARGIN below the
    supremum of the mu for which Theta^2 of both layers avoids the cut
    (-inf, 0] on L_mu, capped at MU_MAX; every mu passes in 1-D, where no
    xi' enters Theta^2.

    Theta^2 / a_nn = tau + xi'^T S xi', S the layer's tangential Schur
    complement.  With xi' = u + iv, Theta^2 reaches the cut in L_mu =
    {Re tau > -mu (|Im tau| + |u|^2) + |v|^2 / mu} exactly when
    u^T (S - mu) u + v^T (1/mu - S) v - 2 mu |u^T S v| < 0 for some (u, v).
    In the eigenbasis of S that form splits into one block
    [[l - mu, -mu l], [-mu l, 1/mu - l]] per eigenvalue l, positive
    semidefinite iff mu <= l <= 1/mu and f(mu) = (l - mu)(1 - l mu)
    - mu^3 l^2 >= 0.  f(0) = l > 0, f' = -(1 + l^2) + 2 l mu - 3 l^2 mu^2
    < 0 and f(min(l, 1/l)) < 0, so the admissible mu of one eigenvalue are
    (0, mu_l] with mu_l the one root of f, found here by bisection, and
    the supremum is the least mu_l.  In 2-D and 3-D it is at most
    1/sqrt(3), the largest mu_l, reached at l = sqrt(3)/2.
    """
    sup = math.inf
    for tensor in (medium.upper, medium.lower):
        for lam in tensor.tangential_schur[0].tolist():
            lo, hi = 0.0, min(lam, 1.0 / lam)
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if (lam - mid) * (1.0 - lam * mid) >= mid**3 * lam**2:
                    lo = mid
                else:
                    hi = mid
            sup = min(sup, lo)
    return min(MU_MAX, sup * (1.0 - MU_MARGIN))


def _contour_size(row, tol: float) -> int:
    """M(tol): the smallest tabulated M whose error is at most
    min(1e-4 tol, 1e-13), or the most accurate one if none is.

    The target is 1e-13 for every tol >= 1e-9: the tau sums' contour
    noise falls only like 1/|xi'|, and the tangential gradient and the
    tail bound weight it by |xi'|, so it must stay far below tol.  At
    1e-12 row 0 would take M = 40 (6.5e-13), and the cube Green function
    of a homogeneous 2-D medium lost up to 0.1 digits against M = 64; at
    M = 48 (3.4e-14) it gains about one.
    """
    errors = row[3]
    target = min(1e-4 * tol, 1e-13)
    for m, err in zip(CONTOUR_M, errors):
        if err <= target:
            return m
    return CONTOUR_M[errors.index(min(errors))]


def _hyperbolic_nodes(row, m: int, dt: float):
    """Half trapezoid rule on the contour: nodes k = 0..M of k = -M..M.

    The full rule has tau_{-k} = conj(tau_k) and w_{-k} = conj(w_k), with
    tau_0 and w_0 real.  For an F with F(conj tau) = conj(F(tau)) the full
    sum sum_k w_k e^{tau_k dt} F(tau_k) is therefore the real part of the
    sum over k = 0..M with the weights of k > 0 doubled, which is what
    this returns.  The rule is only valid for such F.
    """
    alpha, u_max, mu_scale, _ = row
    mu_c = mu_scale * m / dt
    h = u_max / m
    u = h * np.arange(0, m + 1)
    z = 1j * u - alpha
    tau = mu_c * (1.0 + np.sin(z))
    dtau = 1j * mu_c * np.cos(z)
    weights = h * dtau / (2j * np.pi)
    weights[1:] *= 2.0
    return tau, weights


class XiGrid(NamedTuple):
    """A uniform tensor xi' grid (see _xi_grid)."""

    xi: np.ndarray  # (Q, d) nodes, the last axis varying fastest
    wq: np.ndarray  # (Q,) weights, over (2 pi)^d
    shape: tuple  # node count of each axis
    sub: np.ndarray  # the nodes of even index on every axis, in grid order


def _xi_grid(radius: float, steps) -> XiGrid:
    """Nodes k h_j, |k| <= ceil(radius / h_j), each of weight h_j, on axis j.

    Each axis is point-symmetric, and so is its subset of even k, which is
    the step-2h rule.  With no axes the grid is one node of weight 1.
    """
    xi, shape, even = np.zeros((1, 0)), [], []
    for h in steps:
        k = math.ceil(radius / h)
        axis = h * np.arange(-k, k + 1)
        xi = np.hstack([np.repeat(xi, axis.size, axis=0), np.tile(axis, xi.shape[0])[:, None]])
        shape.append(axis.size)
        even.append(slice(k % 2, None, 2))
    wq = np.full(xi.shape[0], math.prod(steps) / (2.0 * np.pi) ** len(steps))
    sub = np.arange(xi.shape[0]).reshape(shape)[tuple(even)].ravel()
    return XiGrid(xi, wq, tuple(shape), sub)


class HalfGrid(NamedTuple):
    """The columns of the tau sums: the canonical half of a xi' grid, or one
    representative node of each symmetry orbit of it (KernelEvaluator._half_grid).

    H counts the half nodes, C the columns.  ``of`` and ``sub_of`` are None
    when every half node is its own column.
    """

    xi: np.ndarray  # (C, d) the columns' nodes, in grid order
    w: np.ndarray  # (C,) half-rule weights (_fold), summed over each orbit
    starts: Sequence  # the first column of each row (the nodes of one xi_0)
    sub: np.ndarray  # the columns of the step-2h nodes, ascending
    of: np.ndarray | None  # (H,) the column of each half node
    sub_of: np.ndarray | None  # (H_sub,) position in ``sub`` of each step-2h half node's column


class HalfSums(NamedTuple):
    """The tau sums of a call's P normal pairs on C columns (_tau_sums)."""

    re: np.ndarray  # (2 or 3, P, C): Re h, Re h_n and maybe Re h_src
    re_sub: np.ndarray  # (2, P, C_sub): Re h and Re h_n of the step-2h rule
    phi: np.ndarray  # (P, 2, d): each pair's c_p and c_q, phi = c.xi' (symbols.region_phases)
    floor: np.ndarray  # (3 or 4, P): floor rows and the tangential one, node sums


class KernelEvaluator:
    """Batched evaluator of the kernel and its gradients.

    Immutable after construction; a batch shares one transform quadrature,
    whose tau contraction runs once per unique normal pair (x_n, y_n).  The
    contour plan is derived from the dimension and the tolerance: ``_row``
    the contour shape and ``contour_nodes`` its half-width M.
    """

    def __init__(self, medium: TwoLayerMedium, cfg: QuadratureConfig | None = None):
        self.medium = medium
        self.cfg = cfg if cfg is not None else QuadratureConfig()
        tol = self.cfg.target_rel_tol
        self._row = _CONTOUR_ROWS[0 if medium.dim == 1 else 1]
        self.contour_nodes = _contour_size(self._row, tol)
        layers = (medium.upper, medium.lower)
        self._det_min = min(float(np.linalg.det(t.entries)) for t in layers)
        self._schur_min = min(t.schur_complement_min() for t in layers)
        self._schur_max = max(float(np.max(t.tangential_schur[0], initial=0.0)) for t in layers)
        # The tangential axes whose reflection leaves both layers unchanged
        # (row j of A holds no entry but a_jj), and whether the two may be
        # exchanged (module docstring, Symmetry).  In 2-D a reflection is
        # the half rule's own mirror.
        self._mirrors, self._exchange = [], False
        if medium.dim == 3:
            a, b = medium.upper.entries.tolist(), medium.lower.entries.tolist()
            self._mirrors = [j for j in (0, 1) if a[j].count(0.0) == b[j].count(0.0) == 2]
            self._exchange = self._mirrors == [0, 1] and a[0][0] == a[1][1] and b[0][0] == b[1][1]
        # The decay a R0^2 at the xi' radius R0 (see _base_radius).
        self._decay = max(math.log(100.0 / tol), 2.0) + 1.5 * max(0.0, math.log(1e-6 / tol))

    # c_p and c_q of every region (HalfSums), built on first use: the table
    # costs about three times the rest of the construction.
    _phases = cached_property(lambda ev: region_phases(ev.medium))

    # -- quadrature building blocks -------------------------------------

    def _xi_spacing(self, osc: np.ndarray, dt: float) -> list:
        """h_j = pi / (osc_j + w), w = sqrt(2 s_max dt D), D = max(decay, 30).

        The step-h rule adds to the kernel its copies shifted by multiples
        of 2 pi / h_j in x_j - y_j.  The kernel's x_j profile is at most as
        wide as e^{-x^2 / (4 s_max dt)}, so the nearest copy is at most
        e^{-2D} of the peak, and the step-2h rule's, which est measures,
        e^{-D/2}: near 3e-7 at loose tolerances, by the floor 30 on D.
        """
        width = math.sqrt(2.0 * self._schur_max * dt * max(self._decay, 30.0))
        return [math.pi / (osc_j + width) for osc_j in osc]

    def _base_radius(self, dt: float) -> float:
        """Radius R0 of the xi' grid: a R0^2 = decay, a = schur_min dt.

        At decay = ln(100/tol) the integrand beyond R0 is about tol/100 of
        its peak, which the truncation test needs, but at tol 1e-8 that
        leaves errors near 1e-10 of the peak where twice the radius reaches
        1e-11.  Below tol 1e-6 the grid is therefore widened by
        1.5 ln(1e-6/tol) more decay (e^-30 at tol 1e-8, radius x1.14).  At
        tol 1e-6 and above the radius follows ln(100/tol) alone: there
        twice the radius gives no more digits on the cylinder batches, and
        the truncation test, in the units of each quantity, passes.
        """
        return math.sqrt(self._decay / (self._schur_min * dt))

    # -- core contraction ------------------------------------------------

    def _half_grid(self, grid: XiGrid) -> HalfGrid:
        """The columns of the tau sums on ``grid`` (module docstring, Symmetry).

        Without a reflection the columns are the canonical half itself.
        Otherwise (3-D only) half node m = (m_0, m_1), in units of each
        axis's step, has the representative (-|m_0|, -|m_1|), ordered so
        that |m_0| >= |m_1| when the axes may be exchanged.  It lies in the
        canonical half, and every step-2h node has a step-2h representative,
        since neither map changes the parity of an index.
        """
        h_cnt = (grid.wq.size + 1) // 2
        row = math.prod(grid.shape[1:])
        sub = grid.sub[:(grid.sub.size + 1) // 2]
        w = _fold(grid.wq)
        if not self._mirrors:
            return HalfGrid(grid.xi[:h_cnt], w, range(0, h_cnt, row), sub, None, None)
        k = np.array(grid.shape) // 2
        m = np.stack(np.unravel_index(np.arange(h_cnt), grid.shape), axis=1) - k
        rep_m = -np.abs(m)
        # Equal axes: the same steps, so the nodes k h of both are the same numbers.
        if self._exchange and np.array_equal(grid.xi[::row, 0], grid.xi[:row, 1]):
            rep_m.sort(axis=1)
        rep_node = np.ravel_multi_index(tuple((rep_m + k).T), grid.shape)
        is_rep = rep_node == np.arange(h_cnt)
        rep = np.flatnonzero(is_rep)
        of = (np.cumsum(is_rep) - 1)[rep_node]
        is_sub = np.zeros(h_cnt, dtype=bool)
        is_sub[sub] = True
        sub_cols = np.flatnonzero(is_sub[rep])
        starts = np.flatnonzero(np.diff(rep // row, prepend=-1)).tolist()
        return HalfGrid(grid.xi[rep], np.bincount(of, weights=w, minlength=rep.size), starts,
                        sub_cols, of, np.searchsorted(sub_cols, of[sub]))

    def _tau_sums(self, pairs, codes, half: HalfGrid, tau, wte, source_gradient):
        """The tau contraction on the columns ``half`` (_half_grid), the
        canonical half of the xi' grid or one node of each symmetry orbit of
        it, for normal pairs ``pairs`` (P, 2) of ascending regions ``codes``.

        For each pair and each column, h = sum_m W_m V with W_m = w_m
        e^{tau_m dt} (``wte``) and V = sum_terms coef e^{r_p x_n + r_q y_n},
        the exponents' even root parts (module docstring); h_n and h_src put
        a factor r_p or r_q in each term.  Only their real parts are kept,
        and those of h and h_n of the step-2h rule on its columns: weights
        2 W_m on the even contour nodes, read from the same exponentials.  A
        term whose coefficient is zero on a block (the reflected terms of a
        homogeneous medium) is skipped there.  The odd phases come back as
        each pair's vectors c_p and c_q (HalfSums).  The floor rows bound
        the roundoff weights sum_m sum_terms |W_m coef g e^{p x_n + q y_n}|
        (U + |p x_n| + |q y_n|), U = ROUNDOFF_UNITS, g = 1 for Gamma, p for
        the normal gradient and q for the source one, at a node and its
        mirror alike, since |e^{p x_n + q y_n}| = |e^r| and |p| <= |r_p| +
        |phi_p|.  With S_g = sum |W coef e^r| g (_term_weights), phi = c.xi'
        at the column and E = |phi_p x_n| + |phi_q y_n|, the Gamma row is
        U S_1 + |x_n| S_p + |y_n| S_q + E S_1, the normal row U S_p + |x_n|
        S_pp + |y_n| S_pq + E S_p + |phi_p| times the Gamma row, the source
        row likewise in q.  Each row is summed over the columns with the
        weights of the half rule (_fold), summed over each orbit, since
        every row is the same at each node of an orbit; the Gamma row once
        more with |xi'|_inf times them for the tangential gradient.

        The columns are streamed in blocks of whole rows (module docstring,
        Streaming).  In each block every distinct term is contracted once,
        over the pairs of all the regions that have it (R11/R12 and R21/R22
        share one).  A pair's sums add at most two terms to zero, so neither
        their order nor the block changes a bit.
        """
        m_cnt = tau.size
        c_cnt = half.w.size
        xi_inf = np.max(np.abs(half.xi), axis=1, initial=0.0)
        # The pairs of one region are one span.
        present, starts = np.unique(codes, return_index=True)
        spans = list(zip(present.tolist(), starts.tolist(), starts.tolist()[1:] + [codes.size]))
        axn, ayn = np.abs(pairs[:, :1]), np.abs(pairs[:, 1:])
        re = np.zeros((2 + source_gradient, pairs.shape[0], c_cnt))
        re_sub = np.zeros((2, pairs.shape[0], half.sub.size))
        floor = np.zeros((3 + source_gradient, pairs.shape[0]))
        phi = self._phases[codes]
        for lo, hi in _row_blocks(half.starts, c_cnt, BLOCK_ELEMENTS // m_cnt):
            blk = slice(lo, hi)
            sub_lo, sub_hi = np.searchsorted(half.sub, (lo, hi)).tolist()
            sub = _as_slice(half.sub[sub_lo:sub_hi] - lo)
            xi_c = half.xi[blk].astype(complex)
            table = SymbolTable(self.medium, xi_c, tau)
            # Each distinct term and the pairs of every region that has it.
            # R11/R12 and R21/R22 share a term, and their spans touch.
            terms = {}
            for code, p_lo, p_hi in spans:
                for term in region_terms(REGIONS[code], self.medium, xi_c, tau, table=table):
                    first = terms[term.name][1] if term.name in terms else p_lo
                    terms[term.name] = term, first, p_hi
            abs_root = {}  # |r| by root array: the exponents of a layer share it
            s_abs = np.zeros((5 + source_gradient, pairs.shape[0], xi_c.shape[0]))
            chunk = max(1, BLOCK_ELEMENTS // (xi_c.shape[0] * m_cnt))
            for term, p_lo, p_hi in terms.values():
                # Zero on the block (see above): a nonzero first entry spares the scan.
                if not (term.coef[0, 0] or term.coef.any()):
                    continue
                for e in (term.p, term.q):
                    if id(e.root) not in abs_root:
                        abs_root[id(e.root)] = np.abs(e.root)
                w_sum, w_abs, w_half = _term_weights(
                    term, wte, source_gradient, sub,
                    abs_root[id(term.p.root)], abs_root[id(term.q.root)])
                r_p, r_q = term.p.root[None], term.q.root[None]
                x_n = term.p.sign * pairs[p_lo:p_hi, 0, None, None]
                y_n = term.q.sign * pairs[p_lo:p_hi, 1, None, None]
                for c_lo in range(0, p_hi - p_lo, chunk):
                    c_sl = slice(c_lo, c_lo + chunk)
                    sl = slice(p_lo + c_lo, min(p_lo + c_lo + chunk, p_hi))
                    ex = np.exp(r_p * x_n[c_sl] + r_q * y_n[c_sl])
                    for re_row, w_row in zip(re[:, sl, blk], w_sum):
                        re_row += np.einsum("qm,kqm->kq", w_row, ex).real
                    s_abs[:, sl] += np.einsum("jqm,kqm->jkq", w_abs, np.abs(ex))
                    re_sub[:, sl, sub_lo:sub_hi] += np.einsum(
                        "jqm,kqm->jkq", w_half, ex[:, sub, ::2]).real
                    del ex  # free before the next exponent is formed
            # The floor rows of every pair (see above) from S_g, the rows of
            # s_abs for g = 1, |r_p|, |r_q|, |r_p|^2, |r_p r_q|, |r_q|^2.
            abs_phi = np.abs(phi @ half.xi[blk].T).swapaxes(0, 1)
            e = abs_phi[0] * axn + abs_phi[1] * ayn
            rows = [ROUNDOFF_UNITS * s_abs[i] + axn * s_abs[j] + ayn * s_abs[k] + e * s_abs[i]
                    for i, j, k in ((0, 1, 2), (1, 3, 4), (2, 4, 5))[:2 + source_gradient]]
            rows[1:] = [r + f * rows[0] for r, f in zip(rows[1:], abs_phi)]
            rows.append(rows[0] * xi_inf[blk])
            floor += np.einsum("jkq,q->jk", np.stack(rows), half.w[blk])
        return HalfSums(re, re_sub, phi, floor)

    def _phase_sums(self, pairs, inv, dxp, grid: XiGrid, half: HalfGrid, sums, source_gradient):
        """Gamma, grad and sgrad from the tau sums, their roundoff floor,
        and the change of Gamma and grad from the step-2h rule.

        A half node and its mirror add 2 cos psi Re h to Gamma,
        -2 xi_j sin psi Re h to its x_j-derivative and 2 (cos psi Re h_n -
        phi_p sin psi Re h) to the normal one (module docstring), the source
        one likewise with h_src and phi_q; the weights (_fold) double all
        nodes but xi' = 0.  psi = s.xi' with s = x' - y' + c_p x_n + c_q y_n,
        the point's shift, from its normal pair ``inv``.  Each half node of
        ``grid`` reads the sums of its column (``half``, the one _tau_sums
        ran on), contracted as a (distinct shift x pair) table when that has
        at most K entries, else point by point (module docstring, Phase
        table), in tiles within BLOCK_ELEMENTS.  The floor is eps times the
        largest of the node sums of the floor rows (_tau_sums).  The step-2h
        rule weighs the even-index nodes by 2^d times their weight.  In 1-D
        the grid is the one node xi' = 0, of weight 1, where psi = 0 and
        every sum is Re h.
        """
        n = self.medium.dim
        d = n - 1
        h_cnt = (grid.wq.size + 1) // 2
        xi = grid.xi[:h_cnt]
        w = _fold(grid.wq)  # the weight of each half node
        sub = _as_slice(grid.sub[:(grid.sub.size + 1) // 2])
        w_sub = 2.0 ** d * _fold(grid.wq[grid.sub])
        shift = dxp + np.einsum("ki,kij->kj", pairs, sums.phi)[inv]
        # The distinct shifts, by one complex key per point.  With 2 P > K only
        # one shift makes a table, and a comparison finds it 4x faster.
        first, sidx = slice(0, 1), 0
        table = bool((shift == shift[:1]).all())
        if not table and 2 * pairs.shape[0] <= inv.size:
            _, first, sidx = np.unique(shift @ np.array([1.0, 1j])[:d], return_index=True,
                                       return_inverse=True)
            table = first.size * pairs.shape[0] <= inv.size
        units = shift[first] if table else shift
        del shift
        if table:  # every pair's sums at every half node, once
            re = _node_sums(sums.re, None, half.of, w)
            re_sub = _node_sums(sums.re_sub, None, half.sub_of, w_sub)
            phi = sums.phi
        fine = np.empty((n + 1 + source_gradient, units.shape[0]) + pairs.shape[:table])
        coarse = np.empty((n + 1,) + fine.shape[1:])
        step = max(1, BLOCK_ELEMENTS // h_cnt)
        for lo in range(0, units.shape[0], step):
            sel = slice(lo, lo + step)
            psi = np.einsum("kj,qj->kq", units[sel], xi)
            cos, sin = np.cos(psi), np.sin(psi)
            del psi
            if not table:
                re = _node_sums(sums.re, inv[sel], half.of, w)
                re_sub = _node_sums(sums.re_sub, inv[sel], half.sub_of, w_sub)
                phi = sums.phi[inv[sel]]
            fine[:, sel] = _real_sums(cos, sin, re, phi, xi, table)
            # The step-2h cos and sin: a strided view, or np.take's copy,
            # laid out alike whatever the tile (a fancy index's is not).
            coarse[:, sel] = _real_sums(
                *(a[:, sub] if isinstance(sub, slice) else np.take(a, sub, axis=1)
                  for a in (cos, sin)), re_sub, phi, xi[sub], table)
        del re, re_sub  # (rows x pairs x half nodes): free before the points' outputs
        if table:
            at = sidx * pairs.shape[0] + inv  # each point's (shift, pair) entry
            fine, coarse = (np.take(a.reshape(a.shape[0], -1), at, axis=1) for a in (fine, coarse))
        gamma, grad = fine[0], np.column_stack(fine[1:n + 1])
        # The kernel depends on x' - y' only.
        sgrad = np.column_stack([-grad[:, :d], fine[n + 1]]) if source_gradient else None
        coarse -= fine[:n + 1]
        change = np.max(np.abs(coarse, out=coarse), axis=0)
        floor = np.finfo(float).eps * np.max(sums.floor, axis=0)[inv]
        return gamma, grad, sgrad, floor, change

    # -- public evaluation ----------------------------------------------

    def eval_many(self, x, t, y, s, source_gradient: bool = False):
        """Evaluate the kernel at many targets/sources with shared (t, s).

        x: (K, n) targets; y: (n,) or (K, n) sources.  Returns a dict with
        'gamma' (K,), 'grad' (K, n), 'est' (K,) and, when requested,
        'sgrad' (K, n) (gradient in the source variable).
        """
        n = self.medium.dim
        x, y = point_pairs(x, y, n)
        dt = time_lag(t, s)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise MediumError("x and y must be finite")
        xn, yn = x[:, -1], y[:, -1]
        if np.any(xn == 0.0) or np.any(yn == 0.0):
            raise OnInterface("evaluate interface points by one-sided limits")
        if not x.shape[0]:  # nothing to plan
            out = {"gamma": np.zeros(0), "grad": np.zeros((0, n)), "est": np.zeros(0)}
            return out | ({"sgrad": np.zeros((0, n))} if source_gradient else {})
        d = n - 1
        dxp = x[:, :d] - y[:, :d]

        # The tau contraction depends only on (x_n, y_n); points on a tensor
        # grid share few distinct normal coordinates, so it runs once per
        # unique pair, row inv of the pairs.  Complex numbers sort as the
        # (x_n, y_n) rows would, and far faster than np.unique(axis=0) sorts
        # rows.  The pairs are ordered by region, and within one as sorted.
        keys, inv = np.unique(xn + 1j * yn, return_inverse=True)
        codes = region_index(keys.real, keys.imag)
        order = np.argsort(codes, kind="stable")
        pairs = np.stack([keys.real, keys.imag], axis=1)[order]
        inv = np.argsort(order)[inv]

        tau, w = _hyperbolic_nodes(self._row, self.contour_nodes, dt)
        wte = w * np.exp(tau * dt)

        tol = self.cfg.target_rel_tol
        scale0 = (4.0 * np.pi * dt) ** (-n / 2.0) / math.sqrt(self._det_min)
        length = math.sqrt(self.medium.min_delta() * dt)  # diffusion length
        near = np.abs(xn - yn) <= 0.1 * length
        tol_eff = tol * np.where(near, 10.0, 1.0)

        osc = np.max(np.abs(dxp), axis=0, initial=0.0)
        radius = self._base_radius(dt)
        grid = _xi_grid(radius, self._xi_spacing(osc, dt))
        half = self._half_grid(grid)
        sums = self._tau_sums(pairs, codes[order], half, tau, wte, source_gradient)
        gam, grd, sgr, floor, change = self._phase_sums(pairs, inv, dxp, grid, half, sums,
                                                        source_gradient)
        t_val, t_grad = _tail_bound(inv, half.xi, half.w, sums, radius, self._schur_min * dt)
        # Each bound against its own quantity: relative to it, plus an
        # absolute floor on the kernel scale (far-tail points are dominated
        # by oscillatory-rule roundoff, not truncation), which for the
        # gradients is divided by the diffusion length.
        grad_abs = np.max(np.abs(grd), axis=1)
        if source_gradient:
            grad_abs = np.maximum(grad_abs, np.max(np.abs(sgr), axis=1))
        if not (np.all(t_val <= 0.1 * tol_eff * np.abs(gam) + 0.1 * tol * scale0)
                and np.all(t_grad <= 0.1 * tol_eff * grad_abs + 0.1 * tol * scale0 / length)):
            raise QuadratureNotConverged(
                "the xi' grid's tail bound fails the truncation test"
            )
        est = np.max([CONTOUR_SAFETY * change, t_val, t_grad, floor, 1e-15 * np.abs(gam)], axis=0)
        out = {"gamma": gam, "grad": grd, "est": est}
        if source_gradient:
            out["sgrad"] = sgr
        return out


def _tail_bound(inv, xi: np.ndarray, w: np.ndarray, sums, radius: float, decay_rate: float):
    """Per point, bounds on the part of Gamma, and of grad and sgrad, beyond the xi' grid.

    The grid covers [-radius, radius] on each axis and is point-symmetric;
    ``xi`` and ``w`` are the columns of the tau sums and their weights
    (HalfGrid): its canonical half, or one node of each symmetry orbit of
    it with the orbit's summed weight, which serves since f below, the
    number of axes with |xi_j| >= R/2 and |xi'|_inf are the same at every
    node of an orbit.  Point k reads the sums of normal pair ``inv[k]``.  At
    a node and its mirror the full rule's integrand has modulus f = |Re h|
    for Gamma and |Re h_n + i phi_p Re h| for the normal gradient (h_src
    and phi_q for the source one), h the tau half sums (module docstring)
    and phi = c.xi' (HalfSums).
    |h| would not do: its imaginary part, which the mirrored node cancels,
    decays only like 1/|xi'|.  After the tau integral f decays like
    e^{-a |xi'|^2}, a = ``decay_rate``, on every axis, so on axis j the mass
    beyond the radius R is the measured mass of f over R/2 <= |xi_j| <= R
    times the ratio of the two masses of e^{-a xi_j^2}, erfc(sqrt(a) R) /
    (erf(sqrt(a) R) - erf(sqrt(a) R/2)), and the axes are added.
    TAIL_SAFETY covers a profile e^{-a xi^2} times a power of |xi| up to
    the third (a power m multiplies the ratio by about 2^m).  Returns the
    bound for Gamma and the largest of the bounds for the gradient sums:
    the tangential ones from |xi'|_inf f, the others from their own f.
    In 1-D the one node xi' = 0 lies on no axis, and both bounds are 0.
    """
    x = math.sqrt(decay_rate) * radius
    tail = math.erfc(x)  # underflows to 0 on a wide grid
    ratio = tail / (math.erfc(0.5 * x) - tail) if tail > 0.0 else 0.0
    w_val = np.sum(np.abs(xi) >= 0.5 * radius, axis=1) * w
    w_tan = np.max(np.abs(xi), axis=1, initial=0.0) * w_val
    f_val = np.abs(sums.re[0])
    mass = np.einsum("kq,q->k", f_val, w_tan)
    for re, phi in zip(sums.re[1:], (sums.phi @ xi.T).swapaxes(0, 1)):
        mass = np.maximum(mass, np.einsum("kq,q->k", np.hypot(re, phi * sums.re[0]), w_val))
    bound_val = TAIL_SAFETY * ratio * np.einsum("kq,q->k", f_val, w_val)
    return bound_val[inv], (TAIL_SAFETY * ratio * mass)[inv]


def _node_sums(sums, rows, of, w):
    """The tau sums ``sums`` (R, P, C) of the normal pairs ``rows`` (None:
    all, without a copy of ``sums``) at every half node, each read from its
    column ``of`` (None: every node is its own column), times the node
    weights ``w``.  np.take keeps the result contiguous along the nodes, so
    the sums over the nodes run in the same order as on the unfolded half."""
    out = sums if rows is None else sums[:, rows]
    if of is not None:
        out = np.take(out, of, axis=2)
    return np.multiply(out, w, out=None if out is sums else out)


def _real_sums(cos, sin, re, phi, xi, table: bool):
    """Gamma, its x'-derivatives and the cos psi sums of the other rows of
    ``re``, the tau sums times the weights at each half node, from cos psi
    and sin psi (rows, H) (_phase_sums): per point (re (R, K, H), c_p and
    c_q ``phi`` (K, 2, d)), or as a (shift x pair) table (re (R, P, H), phi
    (P, 2, d)) in tiles of pairs within BLOCK_ELEMENTS values.  Both sum
    each sin psi Re h xi_j over the nodes in the same order, along a strided
    column of xi: a third of the time of einsum over (q, j) in 3-D, and the
    same bits.  The phase term -phi_p sin psi Re h sums to c_p times the
    x'-derivatives (q likewise)."""
    step = max(1, BLOCK_ELEMENTS // sin.size) if table else re.shape[1]
    tangential = np.empty((xi.shape[1],) + cos.shape[:table] + re.shape[1:2])
    for lo in range(0, re.shape[1], step):
        sin_val = sin[:, None] * re[0, lo:lo + step] if table else sin * re[0]
        for j, xi_j in enumerate(xi.T):
            tangential[j, ..., lo:lo + step] = -np.einsum(
                "spq,q->sp" if table else "kq,q->k", sin_val, xi_j)
    one, phase = ("sq,pq->sp", "pij,jsp->isp") if table else ("kq,kq->k", "kij,jk->ik")
    return [np.einsum(one, cos, re[0]), *tangential, *(np.einsum(one, cos, r) + p for r, p in zip(
        re[1:], np.einsum(phase, phi, tangential)))]


def _fold(w: np.ndarray) -> np.ndarray:
    """The weights ``w`` of a point-symmetric rule on its canonical half:
    doubled for the mirror, except at the centre node, its own mirror."""
    half = 2.0 * w[:(w.size + 1) // 2]
    half[-1] = w[half.size - 1]
    return half


def _row_blocks(starts, end: int, size: int):
    """Consecutive (lo, hi) column ranges of whole rows, the rows beginning
    at ``starts`` and the last ending at ``end``: as many rows as fit
    ``size`` columns, and at least one."""
    i = 0
    while i < len(starts):
        # Rows i..j-2 fit; row j-1 only if it is the last one and fits.
        j = bisect_right(starts, starts[i] + size)
        if j < len(starts) or end - starts[i] > size:
            j -= 1
        j = max(j, i + 1)
        yield starts[i], starts[j] if j < len(starts) else end
        i = j


def _as_slice(idx: np.ndarray):
    """``idx``, or the slice that selects the same items when it is evenly spaced."""
    step = idx[1] - idx[0] if idx.size > 1 else 1
    if idx.size and np.all(np.diff(idx) == step):
        return slice(idx[0], idx[-1] + 1, step)
    return idx


def _term_weights(term, wte, source_gradient: bool, sub_half, abs_p, abs_q):
    """Weights of a term on the canonical half of the grid.

    w_sum holds w_t = coef W, w_t r_p and, with ``source_gradient``, w_t r_q
    (r the signed root parts).  w_abs holds |w_t| and then |w_t| times
    |r_p|, |r_q|, |r_p|^2, |r_p r_q| and, with ``source_gradient``, |r_q|^2
    (``abs_p`` and ``abs_q`` hold |r_p| and |r_q|, even in xi').
    w_half holds 2 w_t and 2 w_t r_p at the step-2h nodes ``sub_half`` and
    the even contour nodes.
    """
    w_sum = np.empty((2 + source_gradient,) + term.coef.shape, dtype=complex)
    w_t = np.multiply(term.coef, wte[None, :], out=w_sum[0])
    for w_r, e in zip(w_sum[1:], (term.p, term.q)):
        np.multiply(w_t, e.root, out=w_r)
        if e.sign < 0.0:
            np.negative(w_r, out=w_r)
    w_half = 2.0 * w_sum[:2, sub_half, ::2]
    w_abs = np.empty((5 + source_gradient,) + w_t.shape)
    np.abs(w_t, out=w_abs[0])
    np.multiply(w_abs[0], abs_p, out=w_abs[1])
    np.multiply(w_abs[0], abs_q, out=w_abs[2])
    np.multiply(w_abs[1], abs_p, out=w_abs[3])
    np.multiply(w_abs[1], abs_q, out=w_abs[4])
    if source_gradient:
        np.multiply(w_abs[2], abs_q, out=w_abs[5])
    return w_sum, w_abs, w_half


def gauss_tensor_grid(axes):
    """Tensor product of composite Gauss-Legendre rules, in any dimension.

    ``axes`` holds one list of panels (lo, hi, nodes) per axis.  Returns
    points (N, d), with the last axis varying fastest, and weights (N,).
    With no axes the rule is the single empty point with weight 1.
    """
    pts = np.zeros((1, 0))
    wts = np.ones(1)
    rules = {}
    for panels in axes:
        nodes, weights = [], []
        for a, b, m in panels:
            if m not in rules:
                rules[m] = leggauss(m)
            x, w = rules[m]
            nodes.append(0.5 * (b - a) * x + 0.5 * (a + b))
            weights.append(0.5 * (b - a) * w)
        x = np.concatenate(nodes)
        pts = np.hstack([np.repeat(pts, x.size, axis=0), np.tile(x, pts.shape[0])[:, None]])
        wts = (wts[:, None] * np.concatenate(weights)[None, :]).ravel()
    return pts, wts


# Largest difference between the two integration grids of mass_integral.
MASS_TOL = 1e-5


def _integration_grid(medium: TwoLayerMedium, dt: float, y: np.ndarray, density: float):
    """Tensor panel grid covering the Gaussian bulk around a source.

    Panels are split at the interface plane and at the source plane so the
    integrand kinks fall on panel boundaries.
    """
    n = medium.dim
    lam = medium.max_eigenvalue()
    sig = math.sqrt(2.0 * medium.min_delta() * dt)
    half = 12.0 * math.sqrt(lam * dt)
    axes = []
    for j in range(n):
        cuts = {y[j] - half, y[j] + half}
        if j == n - 1:
            for b in (0.0, y[j]):
                if y[j] - half < b < y[j] + half:
                    cuts.add(b)
        breaks = sorted(cuts)
        axes.append([
            (a, b, min(200, int(density * (b - a) / sig) + 14))
            for a, b in zip(breaks[:-1], breaks[1:])
        ])
    pts, wts = gauss_tensor_grid(axes)
    keep = pts[:, -1] != 0.0
    return pts[keep], wts[keep]


def _weighted_integral(ev: KernelEvaluator, dt: float, y: np.ndarray, weight_fn, density: float) -> float:
    if y.shape != (ev.medium.dim,):
        raise MediumError(f"the source must have shape ({ev.medium.dim},), not {y.shape}")
    pts, wts = _integration_grid(ev.medium, dt, y, density)
    res = ev.eval_many(pts, dt, y, 0.0)
    vals = res["gamma"]
    if weight_fn is not None:
        vals = vals * np.apply_along_axis(weight_fn, 1, pts)
    return float(np.sum(wts * vals))


def mass_integral(
    medium: TwoLayerMedium,
    dt: float,
    y,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Total spatial mass of the kernel at time lag dt (should be 1).

    QuadratureNotConverged if two integration grids differ by more than
    MASS_TOL; MediumError unless dt > 0 is finite and y has shape (n,).
    """
    dt = time_lag(dt, 0.0)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    ev = KernelEvaluator(medium, cfg)
    coarse = _weighted_integral(ev, dt, y, None, density=2.2)
    fine = _weighted_integral(ev, dt, y, None, density=3.1)
    if abs(fine - coarse) > MASS_TOL:
        raise QuadratureNotConverged(
            f"mass integral resolutions differ by {abs(fine - coarse):.3e}"
        )
    return fine


def delta_recovery(
    medium: TwoLayerMedium,
    y,
    phi,
    dt_values,
    cfg: QuadratureConfig | None = None,
) -> np.ndarray:
    """Int Gamma(x, s+dt; y, s) phi(x) dx for each dt; tends to phi(y).

    MediumError unless every dt > 0 is finite and y has shape (n,).
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    ev = KernelEvaluator(medium, cfg)
    return np.array([
        _weighted_integral(ev, time_lag(dt, 0.0), y, phi, density=2.6) for dt in dt_values
    ])
