"""Numerical inversion of the Fourier-Laplace representation of the kernel.

The fundamental solution is recovered from the region symbols V by

    Gamma = (2*pi)^{-(n-1)} Int_{R^{n-1}} e^{i(x'-y').xi'}
            [ (1/2*pi*i) Int_C e^{tau(t-s)} V(x_n, y_n, xi', tau) dtau ] dxi'

The Laplace contour C is a hyperbolic contour deformed into the left
half-plane (exponentially convergent trapezoid rule, Weideman & Trefethen,
Math. Comp. 76 (2007)).  The deformation is certified against the
analyticity domain L_mu of the symbols: mu is established by
root-avoidance sampling for the given medium, and a contour shape is then
chosen whose nodes stay inside L_mu with margin.

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
"""
from __future__ import annotations

import math
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
    SpectralPoint,
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
# _hyperbolic_nodes), with mu_c = mu_scale*M/(t-s).
# Each row was tuned empirically: rel_err is the observed inversion error
# of 1/sqrt(tau) at M = 64.  Steeper rows (larger alpha) converge faster
# but push nodes further left, so they need a larger analyticity
# certificate mu; rows are tried in order of accuracy.
_CONTOUR_ROWS = (
    # (alpha, u_max, mu_scale, rel_err_at_M64)
    (0.85, 1.747, 0.5, 1.4e-12),
    (0.60, 2.576, 0.3, 1.4e-12),
    (0.50, 2.584, 0.3, 8.9e-12),
    (1.1721, 1.0818, 0.715, 1.0e-9),
    (0.40, 2.432, 0.3, 7.0e-11),
    (0.25, 2.600, 0.3, 2.1e-7),
)

# Candidate analyticity certificates, tried from largest to smallest.
MU_LADDER = (2.4, 1.2, 0.8, 0.6, 0.45, 0.28, 0.12)

# Gauss-Legendre nodes on the base xi' panel [-R0, R0] of each axis.
XI_BASE_NODES = 32

# Roundoff floor of est.  A term w e^z of Gamma, z = p x_n + q y_n, is
# rounded by about eps (|p x_n| + |q y_n|) relative through its exponent,
# and by a few eps through the exponential, the products and the sum;
# ROUNDOFF_UNITS counts the latter.  On the 1-D closed form the exponent
# part dominates: errors reach 9-11 eps sum |terms| where the Gaussian
# exponent is 8-12.
ROUNDOFF_UNITS = 2.0


@dataclass(frozen=True)
class QuadratureConfig:
    """Contour and truncation parameters for kernel evaluation."""

    contour_nodes: int = 64
    target_rel_tol: float = 1e-8
    mu: float | None = None  # None -> certified at evaluator construction

    def __post_init__(self):
        if self.contour_nodes < 8:
            raise ValueError("contour_nodes must be >= 8")
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


def _mu_admissible(medium: TwoLayerMedium, mu: float, samples: int, seed: int) -> bool:
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
    # Structured slices xi' = i*s*v, eta = -i*r just inside the boundary.
    slices = []
    for v in dirs:
        v = v / np.linalg.norm(v)
        for s_val in (0.5, 1.0, 2.0):
            r = 1.02 * s_val**2 / mu
            slices.append(SpectralPoint.from_eta(1j * s_val * v, -1j * r))
    xi = np.array([sp.xi_prime for sp in slices])
    tau = np.array([sp.tau for sp in slices])
    if _hits_branch_cut(medium, xi, tau):
        return False
    # Monte-Carlo sweep of the open domain.
    rng = np.random.default_rng(seed)
    re_xi = rng.normal(0.0, 3.0, (samples, d))
    im_xi = rng.normal(0.0, 1.0, (samples, d))
    xi = re_xi + 1j * im_xi
    re_eta = rng.normal(0.0, 9.0, samples)
    bound = mu * (np.abs(re_eta) + np.sum(re_xi**2, axis=1)) \
        - np.sum(im_xi**2, axis=1) / mu
    im_eta = bound - 10.0 ** rng.uniform(-3.0, 1.0, samples) * (1.0 + np.abs(bound))
    tau = 1j * (re_eta + 1j * im_eta)
    return not _hits_branch_cut(medium, xi, tau)


def _hits_branch_cut(medium: TwoLayerMedium, xi: np.ndarray, tau: np.ndarray) -> bool:
    """True if Theta^2 of either layer is on the cut at some paired (xi, tau)."""
    th2_A, th2_B, _, _ = theta_squared(medium, xi, tau[:, None])
    return bool(np.any(on_branch_cut(th2_A)) or np.any(on_branch_cut(th2_B)))


def certify_mu(
    medium: TwoLayerMedium,
    ladder=MU_LADDER,
    samples: int = 2000,
    seed: int = 0,
) -> float:
    """Largest ladder value of mu for which root avoidance is certified.

    Certification combines (a) an analytic threshold on the tangential
    Schur complement (the exactly-real failure slice xi' = i*s*v,
    eta = -i*r with r just below the domain boundary), (b) a branch-cut
    test of Theta^2 on those structured slices, and (c) random sampling
    of L_mu.  Random sampling alone would almost surely miss the
    failure set, which has measure zero.
    """
    if medium.dim == 1:
        return ladder[0]
    for mu in ladder:
        if _mu_admissible(medium, mu, samples, seed):
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


def _select_row(mu: float, m: int):
    for row in _CONTOUR_ROWS:
        alpha, u_max, _, _ = row
        if _hyperbolic_ratio(alpha, u_max, m) <= 0.95 * mu:
            return row
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
    elif not _mu_admissible(medium, cfg.mu, samples=2000, seed=0):
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
        self.cfg = resolve_config(medium, cfg)
        self._row = _select_row(self.cfg.mu, self.cfg.contour_nodes)
        self._det_min = min(
            float(np.linalg.det(medium.upper.entries)),
            float(np.linalg.det(medium.lower.entries)),
        )
        self._schur_min = min(
            medium.upper.schur_complement_min(), medium.lower.schur_complement_min()
        )

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
                XI_BASE_NODES if length == 2 * base_radius else 16,
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
        decay = max(math.log(100.0 / self.cfg.target_rel_tol), 2.0)
        return math.sqrt(decay / (self._schur_min * dt))

    # -- core contraction ------------------------------------------------

    def _integrate(self, groups, xn, yn, dxp, xi, wq, tau, wte, source_gradient):
        """Gamma, grad and sgrad on one rule, and the roundoff floor of Gamma.

        ``tau``/``wte`` are the half contour rule and the xi' grid is
        point-symmetric (see the module docstring), so every full sum is
        the real part of the sum formed here.  The floor is
        eps sum |wq| |w_t| |e^{p x_n + q y_n}| (ROUNDOFF_UNITS + |p x_n| + |q y_n|).
        """
        n = self.medium.dim
        d = n - 1
        k_tot = xn.size
        q_cnt, m_cnt = wq.size, tau.size
        gamma = np.zeros(k_tot)
        grad = np.zeros((k_tot, n))
        sgrad = np.zeros((k_tot, n)) if source_gradient else None
        floor = np.zeros(k_tot)
        chunk = max(1, int(4.0e6 / (q_cnt * m_cnt)))
        xi_c = xi.astype(complex)
        for region, idx in groups:
            terms = region_terms(region, self.medium, xi_c, tau)
            # The tau contraction depends only on (x_n, y_n); points on a
            # tensor grid share few distinct normal coordinates, so do it
            # once per unique pair.
            pairs = np.stack([xn[idx], yn[idx]], axis=1)
            uniq, inv = np.unique(pairs, axis=0, return_inverse=True)
            u_cnt = uniq.shape[0]
            s_val = np.zeros((u_cnt, q_cnt), dtype=complex)
            s_n = np.zeros((u_cnt, q_cnt), dtype=complex)
            s_src = np.zeros((u_cnt, q_cnt), dtype=complex) if source_gradient else None
            s_abs = np.zeros((3, u_cnt, q_cnt))
            for lo in range(0, u_cnt, chunk):
                sl = slice(lo, min(lo + chunk, u_cnt))
                xnc = uniq[sl, 0][:, None, None]
                ync = uniq[sl, 1][:, None, None]
                for coef, p, q in terms:
                    ex = np.exp(p[None, :, :] * xnc + q[None, :, :] * ync)
                    w_t = coef * wte[None, :]
                    s_val[sl] += np.einsum("qm,kqm->kq", w_t, ex)
                    s_n[sl] += np.einsum("qm,kqm->kq", w_t * p, ex)
                    if source_gradient:
                        s_src[sl] += np.einsum("qm,kqm->kq", w_t * q, ex)
                    aw = np.abs(w_t)
                    s_abs[:, sl] += np.einsum(
                        "jqm,kqm->jkq", np.stack([aw, aw * np.abs(p), aw * np.abs(q)]),
                        np.abs(ex))
            s_floor = (ROUNDOFF_UNITS * s_abs[0] + np.abs(uniq[:, :1]) * s_abs[1]
                       + np.abs(uniq[:, 1:]) * s_abs[2])
            floor[idx] = np.finfo(float).eps * (s_floor @ wq)[inv]
            pt_chunk = max(1, int(4.0e6 / q_cnt))
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
        groups = [
            (Region[tag], np.nonzero(tags == tag)[0]) for tag in np.unique(tags)
        ]

        m_f = self.cfg.contour_nodes
        m_c = max(8, int(0.7 * m_f))
        tau_f, w_f = self._contour(m_f, dt)
        tau_c, w_c = self._contour(m_c, dt)
        wte_f = w_f * np.exp(tau_f * dt)
        wte_c = w_c * np.exp(tau_c * dt)

        scale0 = (4.0 * np.pi * dt) ** (-n / 2.0) / math.sqrt(self._det_min)
        near = np.abs(xn - yn) <= 0.1 * math.sqrt(self.medium.min_delta() * dt)
        tol_eff = self.cfg.target_rel_tol * np.where(near, 10.0, 1.0)

        osc = np.max(np.abs(dxp), axis=0, initial=0.0)

        radius = self._base_radius(dt)
        prev = None
        annulus = np.zeros(k_tot)
        for doublings in range(7):
            xi, wq = self._xi_grid(radius, doublings, osc, dt)
            cur = self._integrate(
                groups, xn, yn, dxp, xi, wq, tau_f, wte_f, source_gradient
            )
            if d == 0:
                break  # no tangential axes: the xi' rule is one point
            if prev is not None:
                annulus = np.abs(cur[0] - prev[0])
                # Relative criterion plus an absolute floor on the
                # natural kernel scale: far-tail points are dominated
                # by oscillatory-rule roundoff, not truncation.
                if np.all(
                    annulus <= 0.1 * tol_eff * np.abs(cur[0]) + 1e-9 * scale0
                ):
                    break
            prev = cur
        else:
            raise QuadratureNotConverged(
                "tangential truncation did not converge after 6 extensions"
            )
        gam, grd, sgr, floor = cur
        xi_co, wq_co = self._xi_grid(radius, doublings, osc, dt, factor=0.7)

        gam_c, grd_c, _, _ = self._integrate(
            groups, xn, yn, dxp, xi_co, wq_co, tau_c, wte_c, False
        )

        est = np.abs(gam - gam_c)
        est = np.maximum(est, np.max(np.abs(grd - grd_c), axis=1))
        est = np.maximum(est, annulus)
        est = np.maximum(est, floor)
        est = np.maximum(est, 1e-15 * np.abs(gam))
        out = {"gamma": gam, "grad": grd, "est": est}
        if source_gradient:
            out["sgrad"] = sgr
        return out


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
    tol: float = 1e-5,
) -> float:
    """Total spatial mass of the kernel at time lag dt (should be 1)."""
    if not dt > 0.0:
        raise MediumError("time lag must be positive")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    ev = KernelEvaluator(medium, cfg)
    coarse = _weighted_integral(ev, dt, y, None, density=2.2)
    fine = _weighted_integral(ev, dt, y, None, density=3.1)
    if abs(fine - coarse) > tol:
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
