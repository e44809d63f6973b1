"""Numerical inversion of the Fourier-Laplace representation of the kernel.

The fundamental solution is recovered from the region symbols V by

    Gamma = (2*pi)^{-(n-1)} Int_{R^{n-1}} e^{i(x'-y').xi'}
            [ (1/2*pi*i) Int_C e^{tau(t-s)} V(x_n, y_n, xi', tau) dtau ] dxi'

The Laplace contour C is a hyperbolic contour deformed into the left
half-plane (exponentially convergent trapezoid rule, Weideman & Trefethen,
Math. Comp. 76 (2007)).  The deformation is certified against the
analyticity domain L_mu of the symbols: mu is established by
root-avoidance sampling for the given medium, and a contour shape is then
chosen whose nodes stay inside L_mu with margin.  Each shape carries a
table of its measured error against the half-width M, and M(tol) is the
smallest tabulated M whose error is at most min(1e-4 tol, 1e-13)
(_select_row).

Error estimate.  The contour part of est compares the rule with its
even-node subset, the step-2h trapezoid rule on the same contour
(Trefethen & Weideman, SIAM Rev. 56 (2014)).  In 1-D that is a second
weighted sum over the exponentials of the tau contraction, weights
(-1)^(m+1) W_m, so it needs no symbol of its own.  In 2-D and 3-D the
comparison also checks the xi' resolution: a coarse pass evaluates the
step-2h rule (M/2 + 1 tau nodes) on a grid of 0.7 times the xi' nodes.
The tail bound below and a roundoff floor complete est.

The tangential xi' integral is a truncated Gauss-Legendre rule whose
radius follows the Gaussian decay rate of the time-integrated symbol and
whose node count scales with the oscillation length |x' - y'|.

Half rule.  The kernel is real: at real xi' the integrand at (-xi', conj
tau) is the complex conjugate of the integrand at (xi', tau), because
Theta^2 has real coefficients and the i*xi'.g terms change sign with xi'.
The contour is symmetric (tau_{-k} = conj tau_k, w_{-k} = conj w_k) and
the xi' grid is point-symmetric, so only the nodes k = 0..M are evaluated,
the weights of k > 0 are doubled, and every sum is the real part of the
half sum.

Shared symbols.  All six region symbols are built from one table of
Theta_A, Theta_B, their sum, eight exponents and five coefficients
(symbols.SymbolTable), so a quadrature pass evaluates each array once for
all its region groups; a term that two groups share (R11/R12, R21/R22) is
the same arrays, and its weights are built once per pass too.

Tail bound and nested doublings.  After the tau integral the integrand
decays like e^{-a |xi'|^2}, a = lambda_min(S) (t - s) over the tangential
Schur complements S of both layers.  The base radius R0 has a R0^2 =
ln(100/tol), widened below tol 1e-6 (_base_radius), and a pass is
accepted when a bound on what its grid leaves out passes the truncation
test: the grid's own mass on R/2 <= |xi_j| <= R, extrapolated beyond R
by the Gaussian mass ratio (_tail_bound).  The bound reads the
full contour rule's integrand (s(xi') + conj s(-xi'))/2, formed from the
half sums s on mirrored nodes; s alone will not do, since its imaginary
part, which the mirrored node cancels, decays only like 1/|xi'|.  The
bound is also the truncation part of est.  At the default tolerance the
base grid passes; a doubling happens where the bound fails, at loose
tolerances for points far in the Gaussian tail, whose relative test is
strict.  Each doubling keeps every panel of the previous grid and appends
annulus panels, so the previous grid is, bit for bit, a tensor block of
the new one.  Its nodes are picked by radius: those with every |xi_j|
below the previous radius, since Gauss-Legendre nodes lie strictly inside
their panels.  The tau contraction is done node by node, so each doubling
contracts only the new annulus nodes and scatters the stored sums of the
old ones into place; the xi' phase contraction then runs on the whole
grid.  Values are the same as when every pass is summed afresh.
"""
from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss

from .medium import (
    KernelQuery,
    MediumError,
    OnInterface,
    TwoLayerMedium,
)
from .symbols import (
    Region,
    SymbolTable,
    classify_region,
    on_branch_cut,
    region_terms,
    theta_squared,
)


class TransformError(RuntimeError):
    """Base class for inversion failures."""


class QuadratureNotConverged(TransformError):
    """Error estimate above target after maximal refinement."""


class ContourLeavesDomain(TransformError):
    """No admissible Laplace contour inside the certified domain."""


# Hyperbolic contour shapes tau(u) = mu_c * (1 + sin(i*u - alpha)) sampled
# at u = k*h, h = u_max/M, k = -M..M (only k = 0..M are evaluated, see
# _hyperbolic_nodes), with mu_c = mu_scale*M/(t-s).  Steeper rows (larger
# alpha) converge faster but push nodes further left, so they need a larger
# analyticity certificate mu; rows are tried in order.
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
    (0.50, 2.584, 0.3, (1.3e-09, 2.3e-11, 3.4e-14, 8.4e-13, 1.9e-12, 4.7e-12, 2.8e-11,
                        3.3e-11, 1.8e-10, 1.5e-09, 6.6e-09, 2.5e-08, 9.0e-08, 2.8e-07)),
    (1.1721, 1.0818, 0.715, (1.4e-05, 5.9e-07, 2.5e-08, 9.8e-10, 3.5e-11, 9.8e-13, 7.4e-15,
                             4.0e-14, 4.6e-14, 2.5e-14, 1.8e-13, 2.4e-13, 6.4e-14, 1.9e-12)),
    (0.40, 2.432, 0.3, (9.8e-06, 4.3e-07, 2.0e-08, 8.7e-10, 3.2e-11, 6.2e-11, 1.7e-10,
                        1.5e-09, 4.6e-09, 2.1e-08, 1.2e-07, 6.4e-07, 2.6e-06, 1.4e-05)),
    (0.25, 2.600, 0.3, (1.4e-03, 2.0e-04, 3.4e-05, 6.1e-06, 1.2e-06, 2.1e-07, 3.9e-08,
                        6.4e-08, 1.6e-07, 1.2e-06, 1.3e-05, 5.8e-05, 3.6e-04, 3.9e-03)),
)

# Candidate analyticity certificates, tried from largest to smallest, and
# the size and seed of the random sweep of L_mu that checks each one.
MU_LADDER = (2.4, 1.2, 0.8, 0.6, 0.45, 0.28, 0.12)
MU_SAMPLES = 2000
MU_SEED = 0

# Gauss-Legendre nodes on the base xi' panel [-R0, R0] of each axis, at
# target_rel_tol 1e-6 and above (see KernelEvaluator._base_radius).
XI_BASE_NODES = 32

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
ROUNDOFF_UNITS = 2.0

# Factor on the difference between the contour rule and its even-node
# subset, the contour part of est in 1-D (see eval_many).  On row 0, whose
# error is set by the truncation at u_max, the difference tracks the error
# itself, with about half of the points below it; on the 1-D layered
# closed forms at M = 40 a factor 2 covered every error, and 4 doubles that.
CONTOUR_SAFETY = 4.0


@dataclass(frozen=True)
class QuadratureConfig:
    """Contour and truncation parameters for kernel evaluation."""

    contour_nodes: int | None = None  # None -> M(tol), see _select_row
    target_rel_tol: float = 1e-8
    mu: float | None = None  # None -> certified at evaluator construction

    def __post_init__(self):
        m = self.contour_nodes
        # Even, so that the even nodes form the step-2h rule of est.
        if m is not None and (isinstance(m, bool) or not isinstance(m, numbers.Integral)
                              or m < 8 or m % 2):
            raise ValueError("contour_nodes must be an even integer >= 8")
        if not 0.0 < self.target_rel_tol < 1.0:
            raise ValueError("target_rel_tol must lie in (0, 1)")
        if self.mu is not None and not self.mu > 0.0:
            raise ValueError("mu must be positive")


@dataclass(frozen=True)
class KernelValue:
    """Kernel value, spatial gradient and heuristic error estimate."""

    gamma: float
    grad: np.ndarray
    est_error: float


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


def _mu_admissible(medium: TwoLayerMedium, mu: float) -> bool:
    """Check one candidate mu against the certification battery."""
    d = medium.dim - 1
    if d == 0:
        return True
    schur_max = 0.0
    dirs = []
    for tensor in (medium.upper, medium.lower):
        g = tensor.normal_row
        schur = tensor.minor - np.outer(g, g) / tensor.a_nn
        w, v = np.linalg.eigh(schur)
        schur_max = max(schur_max, float(w.max()))
        dirs.extend(v[:, j] for j in range(d))
    if d == 1:
        dirs.append(np.array([1.0]))
    else:
        ang = np.linspace(0.0, np.pi, 16, endpoint=False)
        dirs.extend(np.array([np.cos(t), np.sin(t)]) for t in ang)

    if mu * schur_max >= 0.999:
        return False
    # Structured slices xi' = i*s*v, eta = -i*r (tau = i*eta = r) with
    # r = 1.02 s^2/mu, just inside the boundary.
    dirs = np.array([v / np.linalg.norm(v) for v in dirs])
    s_val = np.array([0.5, 1.0, 2.0])
    xi = (1j * s_val[None, :, None] * dirs[:, None, :]).reshape(-1, d)
    tau = np.tile(1.02 * s_val**2 / mu, dirs.shape[0]).astype(complex)
    if _hits_branch_cut(medium, xi, tau):
        return False
    # Monte-Carlo sweep of the open domain.
    rng = np.random.default_rng(MU_SEED)
    re_xi = rng.normal(0.0, 3.0, (MU_SAMPLES, d))
    im_xi = rng.normal(0.0, 1.0, (MU_SAMPLES, d))
    xi = re_xi + 1j * im_xi
    re_eta = rng.normal(0.0, 9.0, MU_SAMPLES)
    bound = mu * (np.abs(re_eta) + np.sum(re_xi**2, axis=1)) \
        - np.sum(im_xi**2, axis=1) / mu
    im_eta = bound - 10.0 ** rng.uniform(-3.0, 1.0, MU_SAMPLES) * (1.0 + np.abs(bound))
    tau = 1j * (re_eta + 1j * im_eta)
    return not _hits_branch_cut(medium, xi, tau)


def _hits_branch_cut(medium: TwoLayerMedium, xi: np.ndarray, tau: np.ndarray) -> bool:
    """True if Theta^2 of either layer is on the cut at some paired (xi, tau)."""
    th2_A, th2_B, _, _ = theta_squared(medium, xi, tau[:, None])
    return bool(np.any(on_branch_cut(th2_A)) or np.any(on_branch_cut(th2_B)))


def certify_mu(medium: TwoLayerMedium) -> float:
    """Largest value of MU_LADDER for which root avoidance is certified.

    Certification combines (a) an analytic threshold on the tangential
    Schur complement (the exactly-real failure slice xi' = i*s*v,
    eta = -i*r with r just below the domain boundary), (b) a branch-cut
    test of Theta^2 on those structured slices, and (c) random sampling
    of L_mu.  Random sampling alone would almost surely miss the
    failure set, which has measure zero.
    """
    if medium.dim == 1:
        return MU_LADDER[0]
    for mu in MU_LADDER:
        if _mu_admissible(medium, mu):
            return mu
    raise ContourLeavesDomain(
        "no analyticity certificate mu in the ladder could be established "
        "for this medium"
    )


def _hyperbolic_ratio(alpha: float, u_max: float, m: int) -> float:
    """Worst node ratio (-Re tau)/|Im tau| of a contour shape."""
    h = u_max / m
    u = h * np.arange(1, m + 1)
    re = 1.0 - np.cosh(u) * math.sin(alpha)
    im = np.sinh(u) * math.cos(alpha)
    mask = re < 0.0
    if not np.any(mask):
        return 0.0
    return float(np.max(-re[mask] / np.abs(im[mask])))


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


def _select_row(mu: float, tol: float, m: int | None = None):
    """(row, M): the first row that fits inside L_mu at M = ``m``, or at
    its own M(tol) when ``m`` is None."""
    for row in _CONTOUR_ROWS:
        alpha, u_max, _, _ = row
        m_row = m if m is not None else _contour_size(row, tol)
        if _hyperbolic_ratio(alpha, u_max, m_row) <= 0.95 * mu:
            return row, m_row
    raise ContourLeavesDomain(
        f"no hyperbolic contour shape fits inside L_mu with mu = {mu}"
    )


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


def resolve_config(medium: TwoLayerMedium, cfg: QuadratureConfig | None) -> QuadratureConfig:
    """Fill in a certified mu when the config does not pin one."""
    if cfg is None:
        cfg = QuadratureConfig()
    if cfg.mu is None:
        cfg = replace(cfg, mu=certify_mu(medium))
    elif not _mu_admissible(medium, cfg.mu):
        raise ContourLeavesDomain(
            f"requested mu = {cfg.mu} is not certified for this medium"
        )
    return cfg


class KernelEvaluator:
    """Batched evaluator of the kernel and its gradients.

    Immutable after construction; evaluation groups query points by
    region and shares the transform quadrature across the batch.
    """

    def __init__(self, medium: TwoLayerMedium, cfg: QuadratureConfig | None = None):
        self.medium = medium
        cfg = resolve_config(medium, cfg)
        self._row, m = _select_row(cfg.mu, cfg.target_rel_tol, cfg.contour_nodes)
        self.cfg = replace(cfg, contour_nodes=m)
        self._det_min = min(
            float(np.linalg.det(medium.upper.entries)),
            float(np.linalg.det(medium.lower.entries)),
        )
        self._schur_min = min(
            medium.upper.schur_complement_min(), medium.lower.schur_complement_min()
        )
        # The decay a R0^2 at the base radius R0, and the base panel's
        # node count (see _base_radius).
        tol = self.cfg.target_rel_tol
        decay = max(math.log(100.0 / tol), 2.0)
        self._decay = decay + 1.5 * max(0.0, math.log(1e-6 / tol))
        self._base_nodes = int(XI_BASE_NODES * (1.0 + 1.5 * (self._decay / decay - 1.0)))

    # -- quadrature building blocks -------------------------------------

    def _contour(self, m: int, dt: float):
        return _hyperbolic_nodes(self._row, m, dt)

    def _xi_panels(self, base_radius: float, doublings: int, osc_j: float,
                   dt: float, factor: float):
        """Gauss-Legendre panels (lo, hi, nodes) for one xi' axis.

        The base panel [-R0, R0] carries the Gaussian bulk; each doubling
        appends annulus panels with node counts proportional to panel
        length so resolution stays uniform under extension.
        """
        density = math.sqrt(self._schur_min * dt)
        breaks = [-base_radius, base_radius]
        for i in range(doublings):
            r_hi = base_radius * 2 ** (i + 1)
            breaks = [-r_hi] + breaks + [r_hi]
        panels = []
        for a, b in zip(breaks[:-1], breaks[1:]):
            length = b - a
            n_j = max(
                self._base_nodes if length == 2 * base_radius else 16,
                int(0.7 * length * osc_j) + 16,
                int(0.5 * length * density) + 8,
            )
            n_j = max(8, int(factor * n_j))
            # Gauss-Legendre weight generation is O(n^2); split very long
            # panels instead of growing a single rule.
            pieces = max(1, -(-n_j // 400))
            n_piece = -(-n_j // pieces)
            # Cuts measured from the panel centre, so that mirrored panels
            # split into exactly mirrored pieces (the half contour rule
            # needs a point-symmetric grid).
            mid, half = 0.5 * (a + b), 0.5 * length
            cuts = [mid + half * (2 * i - pieces) / pieces for i in range(pieces + 1)]
            panels += [(lo, hi, n_piece) for lo, hi in zip(cuts[:-1], cuts[1:])]
        return panels

    def _xi_grid(self, base_radius: float, doublings: int, osc: np.ndarray,
                 dt: float, factor: float = 1.0):
        d = self.medium.dim - 1
        xi, wq = gauss_tensor_grid([
            self._xi_panels(base_radius, doublings, osc[j], dt, factor)
            for j in range(d)
        ])
        return xi, wq / (2.0 * np.pi) ** d

    def _base_radius(self, dt: float) -> float:
        """Radius R0 of the base xi' panel: a R0^2 = decay, a = schur_min dt.

        At decay = ln(100/tol) the integrand beyond R0 is about tol/100 of
        its peak: enough for the truncation test, but at tol 1e-8 it leaves
        errors near 1e-10 of the peak, where one doubling reaches 1e-11.
        Below tol 1e-6 the panel is therefore widened by 1.5 ln(1e-6/tol)
        more decay (e^-30 at tol 1e-8, radius x1.14), and its node count
        grows 1.5 times as fast as the decay (x1.45), to resolve the wider
        panel more finely.  On the benchmark's scatter batches, against
        the closed forms, the radius alone or with nodes x1.3 loses up to
        a digit, and x1.45 gains most of one.  At tol 1e-6 and above
        nothing changes: there a doubling gives no more digits on the
        cylinder batches, and a wider panel only costs memory.
        """
        return math.sqrt(self._decay / (self._schur_min * dt))

    # -- core contraction ------------------------------------------------

    def _tau_sums(self, groups, xi, tau, wte, source_gradient, contour_diff=False):
        """Per region group, the tau contraction on the xi' nodes ``xi``.

        For each unique normal pair (x_n, y_n) of the group and each node,
        s_val = sum_m W_m V with W_m = w_m e^{tau_m dt} (``wte``) and
        V = sum_terms coef e^{p x_n + q y_n}; s_n and s_src put a factor p
        or q in each term.  s_floor holds the roundoff weights
        sum_m sum_terms |W_m coef g e^{p x_n + q y_n}| (ROUNDOFF_UNITS + |p x_n| + |q y_n|)
        with g = 1 for Gamma, g = p for the normal gradient and, with
        ``source_gradient``, g = q for the source one.  With
        ``contour_diff``, s_diff holds s_val and s_n of the rule minus its
        even-node subset (weights 2 W_m on even m, the step-2h rule on the
        same contour), from the same exponentials: weights (-1)^(m+1) W_m.
        Each is computed node by node, so the sums on part of a grid equal
        the sums on the whole grid restricted to that part, bit for bit.
        """
        q_cnt, m_cnt = xi.shape[0], tau.size
        chunk = max(1, int(4.0e6 / (q_cnt * m_cnt)))
        xi_c = xi.astype(complex)
        table = SymbolTable(self.medium, xi_c, tau)
        group_terms = [region_terms(region, self.medium, xi_c, tau, table=table)
                       for region, _, _, _ in groups]
        # A term's weights are built once per pass (the magnitudes straight
        # into one (5 or 6, Q, M) array).  R11/R12 and R21/R22 share a term, as
        # the same arrays of the table, so its weights are kept until the
        # last group that uses it.
        uses = Counter(_term_key(term) for terms in group_terms for term in terms)
        weights = {}
        sums = []
        for (_, _, uniq, _), terms in zip(groups, group_terms):
            u_cnt = uniq.shape[0]
            s_val = np.zeros((u_cnt, q_cnt), dtype=complex)
            s_n = np.zeros((u_cnt, q_cnt), dtype=complex)
            s_src = np.zeros((u_cnt, q_cnt), dtype=complex) if source_gradient else None
            s_abs = np.zeros((5 + source_gradient, u_cnt, q_cnt))
            s_diff = np.zeros((2, u_cnt, q_cnt), dtype=complex) if contour_diff else None
            # Each row adds its terms in order, whatever chunk it is in.
            for term in terms:
                key = _term_key(term)
                if key not in weights:
                    weights[key] = _term_weights(term, wte, source_gradient, contour_diff)
                w_t, w_p, w_q, w_abs, w_diff = weights[key]
                uses[key] -= 1
                if not uses[key]:
                    del weights[key]
                _, p, q = term
                for lo in range(0, u_cnt, chunk):
                    sl = slice(lo, min(lo + chunk, u_cnt))
                    xnc = uniq[sl, 0][:, None, None]
                    ync = uniq[sl, 1][:, None, None]
                    ex = np.exp(p[None, :, :] * xnc + q[None, :, :] * ync)
                    s_val[sl] += np.einsum("qm,kqm->kq", w_t, ex)
                    s_n[sl] += np.einsum("qm,kqm->kq", w_p, ex)
                    if source_gradient:
                        s_src[sl] += np.einsum("qm,kqm->kq", w_q, ex)
                    s_abs[:, sl] += np.einsum("jqm,kqm->jkq", w_abs, np.abs(ex))
                    if contour_diff:
                        s_diff[:, sl] += np.einsum("jqm,kqm->jkq", w_diff, ex)
                    del ex  # free before the next exponent is formed
            # Rows of s_abs: sum |W coef e^z| times 1, |p|, |q|, |p|^2, |p q|, |q|^2.
            axn, ayn = np.abs(uniq[:, :1]), np.abs(uniq[:, 1:])
            rows = ((0, 1, 2), (1, 3, 4), (2, 4, 5))[:2 + source_gradient]
            s_floor = np.stack([ROUNDOFF_UNITS * s_abs[i] + axn * s_abs[j] + ayn * s_abs[k]
                                for i, j, k in rows])
            sums.append((s_val, s_n, s_src, s_floor, s_diff))
        return sums

    def _phase_sums(self, groups, dxp, xi, wq, sums, source_gradient):
        """Gamma, grad and sgrad from the tau sums, and their roundoff floor.

        The contour rule is the half rule and the xi' grid is
        point-symmetric (see the module docstring), so every full sum is
        the real part of the sum formed here.  The floor is eps times the
        largest xi' sum of the rows of ``s_floor``, and of its Gamma row
        times |xi'|_inf for the tangential gradient.
        """
        n = self.medium.dim
        d = n - 1
        k_tot, q_cnt = dxp.shape[0], wq.size
        gamma = np.zeros(k_tot)
        grad = np.zeros((k_tot, n))
        sgrad = np.zeros((k_tot, n)) if source_gradient else None
        floor = np.zeros(k_tot)
        pt_chunk = max(1, int(4.0e6 / q_cnt))
        for (_, idx, _, inv), (s_val, s_n, s_src, s_floor, _) in zip(groups, sums):
            tangential = s_floor[0] * np.max(np.abs(xi), axis=1, initial=0.0)
            floor[idx] = np.finfo(float).eps * np.maximum(
                np.max(s_floor @ wq, axis=0), tangential @ wq)[inv]
            for lo in range(0, idx.size, pt_chunk):
                sel = idx[lo:lo + pt_chunk]
                rows = inv[lo:lo + pt_chunk]
                phase = np.exp(1j * (dxp[sel] @ xi.T))
                pw = phase * wq[None, :]
                v0 = s_val[rows]
                gamma[sel] = np.einsum("kq,kq->k", pw, v0).real
                for j in range(d):
                    fac = (1j * xi[:, j])[None, :]
                    grad[sel, j] = np.einsum("kq,kq->k", pw * fac, v0).real
                grad[sel, n - 1] = np.einsum("kq,kq->k", pw, s_n[rows]).real
                if source_gradient:
                    sgrad[sel, n - 1] = np.einsum("kq,kq->k", pw, s_src[rows]).real
        if source_gradient:
            # The kernel depends on x' - y' only.
            sgrad[:, :d] = -grad[:, :d]
        return gamma, grad, sgrad, floor

    # -- public evaluation ----------------------------------------------

    def eval_many(self, x, t, y, s, source_gradient: bool = False):
        """Evaluate the kernel at many targets/sources with shared (t, s).

        x: (K, n) targets; y: (n,) or (K, n) sources.  Returns a dict with
        'gamma' (K,), 'grad' (K, n), 'est' (K,) and, when requested,
        'sgrad' (K, n) (gradient in the source variable).
        """
        n = self.medium.dim
        x, y = point_pairs(x, y, n)
        k_tot = x.shape[0]
        dt = time_lag(t, s)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise MediumError("x and y must be finite")
        xn, yn = x[:, -1], y[:, -1]
        if np.any(xn == 0.0) or np.any(yn == 0.0):
            raise OnInterface("evaluate interface points by one-sided limits")
        d = n - 1
        dxp = x[:, :d] - y[:, :d]

        tags = np.array([classify_region(xn[k], yn[k]).name for k in range(k_tot)])
        groups = []
        for tag in np.unique(tags):
            idx = np.nonzero(tags == tag)[0]
            # The tau contraction depends only on (x_n, y_n); points on a
            # tensor grid share few distinct normal coordinates, so it runs
            # once per unique pair.
            uniq, inv = np.unique(np.stack([xn[idx], yn[idx]], axis=1), axis=0,
                                  return_inverse=True)
            groups.append((Region[tag], idx, uniq, inv))

        tau, w = self._contour(self.cfg.contour_nodes, dt)
        wte = w * np.exp(tau * dt)

        scale0 = (4.0 * np.pi * dt) ** (-n / 2.0) / math.sqrt(self._det_min)
        near = np.abs(xn - yn) <= 0.1 * math.sqrt(self.medium.min_delta() * dt)
        tol_eff = self.cfg.target_rel_tol * np.where(near, 10.0, 1.0)

        osc = np.max(np.abs(dxp), axis=0, initial=0.0)

        radius = self._base_radius(dt)
        trunc = np.zeros(k_tot)
        for doublings in range(7):
            xi, wq = self._xi_grid(radius, doublings, osc, dt)
            if doublings == 0:
                sums = self._tau_sums(groups, xi, tau, wte, source_gradient,
                                      contour_diff=d == 0)
            else:
                # The previous grid is a block of this one: sum only the
                # nodes of the new annulus panels.
                inner = _inner_mask(xi, radius, doublings)
                fresh = self._tau_sums(groups, xi[~inner], tau, wte, source_gradient)
                sums = [tuple(_scatter(inner, a, b) for a, b in zip(old, new))
                        for old, new in zip(sums, fresh)]
            gam, grd, sgr, floor = self._phase_sums(groups, dxp, xi, wq, sums,
                                                    source_gradient)
            if d == 0:
                break  # no tangential axes: the xi' rule is one point
            trunc = _tail_bound(groups, k_tot, xi, wq, sums,
                                radius * 2.0 ** doublings, self._schur_min * dt)
            # Relative criterion plus an absolute floor on the natural
            # kernel scale: far-tail points are dominated by
            # oscillatory-rule roundoff, not truncation.
            if np.all(trunc <= 0.1 * tol_eff * np.abs(gam) + 1e-9 * scale0):
                break
        else:
            raise QuadratureNotConverged(
                "tangential truncation did not converge after 6 extensions"
            )
        if d == 0:
            # The xi' rule is one node of weight 1: the differences of Gamma
            # and of the normal gradient are the real parts of s_diff.
            est = np.zeros(k_tot)
            for (_, idx, _, inv), (*_, s_diff) in zip(groups, sums):
                est[idx] = CONTOUR_SAFETY * np.max(np.abs(s_diff[:, :, 0].real), axis=0)[inv]
        else:
            # The xi' resolution check: a 0.7x grid on the step-2h rule
            # (the even nodes), so the difference holds the contour error
            # of the step-2h rule too.
            xi_co, wq_co = self._xi_grid(radius, doublings, osc, dt, factor=0.7)
            sums_co = self._tau_sums(groups, xi_co, tau[::2], 2.0 * wte[::2], False)
            gam_c, grd_c, _, _ = self._phase_sums(groups, dxp, xi_co, wq_co, sums_co, False)
            est = np.maximum(np.abs(gam - gam_c), np.max(np.abs(grd - grd_c), axis=1))
            est = np.maximum(est, trunc)
        est = np.maximum(est, floor)
        est = np.maximum(est, 1e-15 * np.abs(gam))
        out = {"gamma": gam, "grad": grd, "est": est}
        if source_gradient:
            out["sgrad"] = sgr
        return out


def _tail_bound(groups, k_tot: int, xi: np.ndarray, wq: np.ndarray, sums,
                radius: float, decay_rate: float) -> np.ndarray:
    """Per point, a bound on the part of Gamma, grad and sgrad beyond the xi' grid.

    The grid covers [-radius, radius] on each axis and is point-symmetric,
    so the full contour rule's integrand at node q is f = (s_q +
    conj(s_-q))/2 for each tau sum s (module docstring), with s_-q the
    mirrored node.  |s| itself would not do: the imaginary part of the half
    sum, which the mirrored node cancels, decays only like 1/|xi'|.  After
    the tau integral f decays like e^{-a |xi'|^2}, a = ``decay_rate``, on
    every axis, so on axis j the mass beyond the radius R is the measured
    mass of |f| over R/2 <= |xi_j| <= R times the ratio of the two masses
    of e^{-a xi_j^2}, erfc(sqrt(a) R) / (erf(sqrt(a) R) - erf(sqrt(a) R/2)),
    and the axes are added.  TAIL_SAFETY covers a profile e^{-a xi^2}
    times a power of |xi| up to the third (a power m multiplies the ratio
    by about 2^m).  The same bound is formed for the gradient sums, for
    the tangential ones from |xi'|_inf |f|, and the largest is returned.
    """
    x = math.sqrt(decay_rate) * radius
    tail = math.erfc(x)  # underflows to 0 after a few doublings
    ratio = tail / (math.erfc(0.5 * x) - tail) if tail > 0.0 else 0.0
    w_val = np.sum(np.abs(xi) >= 0.5 * radius, axis=1) * wq
    w_tan = np.max(np.abs(xi), axis=1) * w_val
    bound = np.zeros(k_tot)
    for (_, idx, _, inv), (s_val, s_n, s_src, *_) in zip(groups, sums):
        f_val = np.abs(s_val + s_val[:, ::-1].conj())
        mass = np.maximum(f_val @ w_val, f_val @ w_tan)
        for s in (s_n, s_src):
            if s is not None:
                mass = np.maximum(mass, np.abs(s + s[:, ::-1].conj()) @ w_val)
        bound[idx] = (0.5 * TAIL_SAFETY * ratio * mass)[inv]
    return bound


def _term_key(term):
    """Identity of a (coef, p, q) term: shared terms are the same arrays."""
    return tuple(id(a) for a in term)


def _term_weights(term, wte, source_gradient: bool, contour_diff: bool = False):
    """Weights w_t = coef W, w_t p, w_t q (or None), |w_t| times 1, |p|,
    |q|, |p|^2, |p q| and, with ``source_gradient``, |q|^2, and with
    ``contour_diff`` w_t and w_t p times (-1)^(m+1) (else None)."""
    coef, p, q = term
    w_t = coef * wte[None, :]
    w_p = w_t * p
    w_q = w_t * q if source_gradient else None
    abs_p, abs_q = np.abs(p), np.abs(q)
    w_abs = np.empty((5 + source_gradient,) + w_t.shape)
    np.abs(w_t, out=w_abs[0])
    np.multiply(w_abs[0], abs_p, out=w_abs[1])
    np.multiply(w_abs[0], abs_q, out=w_abs[2])
    np.multiply(w_abs[1], abs_p, out=w_abs[3])
    np.multiply(w_abs[1], abs_q, out=w_abs[4])
    if source_gradient:
        np.multiply(w_abs[2], abs_q, out=w_abs[5])
    w_diff = None
    if contour_diff:
        w_diff = np.stack([w_t, w_p]) * np.where(np.arange(wte.size) % 2, 1.0, -1.0)
    return w_t, w_p, w_q, w_abs, w_diff


def _inner_mask(xi: np.ndarray, radius: float, doublings: int) -> np.ndarray:
    """Nodes of the doubling-k grid ``xi`` that the doubling-(k-1) grid holds.

    The doubling-(k-1) panels tile [-R, R] on each axis, R = radius 2^(k-1),
    and the new panels lie outside it; Gauss-Legendre nodes lie strictly
    inside their panels, so the old nodes are those with every |xi_j| < R.
    """
    return np.all(np.abs(xi) < radius * 2.0 ** (doublings - 1), axis=1)


def _scatter(inner: np.ndarray, old, new):
    """Sums over a grid from the sums on its ``inner`` nodes and on the rest."""
    if old is None:
        return None
    full = np.empty(old.shape[:-1] + inner.shape, dtype=old.dtype)
    full[..., inner] = old
    full[..., ~inner] = new
    return full


def eval_kernel(medium: TwoLayerMedium, q: KernelQuery, cfg: QuadratureConfig | None = None) -> KernelValue:
    """Kernel value Gamma(x, t; y, s) with gradient and error estimate."""
    res = KernelEvaluator(medium, cfg).eval_many(q.x[None, :], q.t, q.y[None, :], q.s)
    return KernelValue(
        gamma=float(res["gamma"][0]),
        grad=res["grad"][0],
        est_error=float(res["est"][0]),
    )


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
    MASS_TOL.
    """
    if not dt > 0.0:
        raise MediumError("time lag must be positive")
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
    """Int Gamma(x, s+dt; y, s) phi(x) dx for each dt; tends to phi(y)."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    ev = KernelEvaluator(medium, cfg)
    return np.array([
        _weighted_integral(ev, float(dt), y, phi, density=2.6) for dt in dt_values
    ])
