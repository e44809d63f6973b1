"""Quantitative verification harness for kernel estimates.

Fits the smallest single constant C in Gaussian-type pointwise bounds,
checks an energy (square-integral) bound on parabolic cylinders, an
interior gradient estimate for solutions, and a Schur-test operator-norm
bound.  The Gaussian-bound constants are the closed-form smallest C over
fixed random sample sets, so reported constants are deterministic and
monotone in the sample set.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import lambertw

from .inverse_transform import QuadratureNotConverged, gauss_tensor_grid, time_lag
from .medium import UnsupportedDimension


class NoFiniteConstant(RuntimeError):
    """No finite constant satisfies the bound on the samples."""


class ExponentMismatch(ValueError):
    """Schur-test exponents fail 1/p2 + 1/q = 1/p1 + 1."""


@dataclass
class BoundFitReport:
    """Result of a constant fit, serializable to JSON."""

    fitted_constant: float
    exponent_slope: float
    sample_count: int
    worst_ratio_location: tuple
    residual: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "constant": self.fitted_constant,
                "slope": self.exponent_slope,
                "samples": self.sample_count,
                "worst_point": [
                    float(v) if np.isscalar(v) or getattr(v, "ndim", 1) == 0
                    else [float(c) for c in np.atleast_1d(v)]
                    for v in self.worst_ratio_location
                ],
                "residual": self.residual,
            }
        )


# Range of the log-uniform time separations t - s of SampleSpec, and its
# largest offset |x - y| in units of sqrt(t - s).
SAMPLE_T_RANGE = (1e-2, 1.0)
SAMPLE_RADIUS_FACTOR = 4.0


@dataclass(frozen=True)
class SampleSpec:
    """Random space-time sample layout for the pointwise-bound fits.

    Time separations are log-uniform; offsets |x - y| are uniform within a
    parabolic multiple of sqrt(t - s); sources are scattered around the
    interface so both layers and all kernel regions are exercised.
    """

    n_time_groups: int = 32
    n_per_group: int = 32
    seed: int = 7

    def draw(self, dim: int):
        """Yields (dt, x (K, n), y (K, n)) per time group."""
        rng = np.random.default_rng(self.seed)
        lo, hi = SAMPLE_T_RANGE
        dts = np.exp(rng.uniform(math.log(lo), math.log(hi), self.n_time_groups))
        for dt in dts:
            k = self.n_per_group
            y = rng.uniform(-1.0, 1.0, size=(k, dim))
            radii = rng.uniform(0.0, SAMPLE_RADIUS_FACTOR * math.sqrt(dt), size=k)
            dirs = rng.standard_normal((k, dim))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            x = y + radii[:, None] * dirs
            yield float(dt), x, y


def _smallest_constant(values, r2, dts, n_exp: float) -> float:
    """Smallest C with value <= C dt^{-n_exp} exp(-r^2/(C dt)) everywhere.

    Per sample, with a = dt^{-n_exp} and b = r^2/dt, the bound C a exp(-b/C)
    increases with C and reaches the value v at C = b / W(a b / v), W the
    principal Lambert function: v/a where b = 0, and 0 where v = 0 (a b / v
    is then infinite).  The largest of these is raised by 1e-12 relative so
    that the rounding of the bound itself leaves every sample within it.
    """
    a = dts ** (-n_exp)
    b = r2 / dts
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(b > 0.0, b / lambertw(a * b / values).real, values / a)
    c_star = float(np.max(c)) * (1.0 + 1e-12)
    if not c_star <= 1e9:
        raise NoFiniteConstant("no C <= 1e9 satisfies the bound on samples")
    return c_star


def _collect(evaluator, spec: SampleSpec, gradient: bool):
    dim = evaluator.medium.dim
    vals, r2s, dts, locs = [], [], [], []
    for dt, x, y in spec.draw(dim):
        x = x.copy()
        y = y.copy()
        x[x[:, -1] == 0.0, -1] = 1e-9
        y[y[:, -1] == 0.0, -1] = 1e-9
        res = evaluator.eval_many(x, dt, y, 0.0)
        v = (
            np.linalg.norm(res["grad"], axis=1)
            if gradient
            else np.abs(res["gamma"])
        )
        vals.append(v)
        r2s.append(np.sum((x - y) ** 2, axis=1))
        dts.append(np.full(v.size, dt))
        locs.append((x, y, dt))
    return (
        np.concatenate(vals),
        np.concatenate(r2s),
        np.concatenate(dts),
        locs,
    )


def _time_slope(evaluator, gradient: bool) -> float:
    """Log-log slope of the on-diagonal (parabolic-point) decay in time."""
    dim = evaluator.medium.dim
    y = np.zeros(dim)
    y[-1] = 0.3
    ts = np.geomspace(0.05, 0.8, 9)
    vals = []
    for dt in ts:
        if gradient:
            x = y.copy()
            x[0 if dim > 1 else -1] += math.sqrt(dt)
            res = evaluator.eval_many(x[None, :], dt, y, 0.0)
            vals.append(float(np.linalg.norm(res["grad"][0])))
        else:
            res = evaluator.eval_many(y[None, :], dt, y, 0.0)
            vals.append(float(res["gamma"][0]))
    slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
    return float(slope)


def _fit(evaluator, spec: SampleSpec, gradient: bool) -> BoundFitReport:
    dim = evaluator.medium.dim
    n_exp = (dim + 1) / 2.0 if gradient else dim / 2.0
    vals, r2, dts, locs = _collect(evaluator, spec, gradient)
    c_star = _smallest_constant(vals, r2, dts, n_exp)
    bound = c_star * dts ** (-n_exp) * np.exp(-r2 / (c_star * dts))
    ratios = vals / bound
    worst = int(np.argmax(ratios))
    group, offset = divmod(worst, spec.n_per_group)
    x_w = locs[group][0][offset]
    y_w = locs[group][1][offset]
    return BoundFitReport(
        fitted_constant=float(c_star),
        exponent_slope=_time_slope(evaluator, gradient),
        sample_count=int(vals.size),
        worst_ratio_location=(x_w, dts[worst], y_w, 0.0),
        residual=float(1.0 - ratios.max()),
    )


def fit_aronson(evaluator, spec: SampleSpec | None = None) -> BoundFitReport:
    """Smallest C with Gamma <= C (t-s)^{-n/2} exp(-|x-y|^2/(C(t-s)))."""
    return _fit(evaluator, spec or SampleSpec(), gradient=False)


def fit_gradient_bound(evaluator, spec: SampleSpec | None = None) -> BoundFitReport:
    """Smallest C with |grad Gamma| <= C (t-s)^{-(n+1)/2} exp(-|x-y|^2/(C(t-s)))."""
    return _fit(evaluator, spec or SampleSpec(), gradient=True)


def q_rho_radius(x0, t0: float, xi, tau: float) -> float:
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return 0.25 * math.sqrt(float(np.sum((x0 - xi) ** 2)) + (t0 - tau))


def q_rho_bound(c: float, n: int, x0, t0: float, xi, tau: float) -> float:
    """Reference envelope C rho^n / (t0-tau)^{n-1} exp(-|x0-xi|^2/(C(t0-tau)))."""
    rho = q_rho_radius(x0, t0, xi, tau)
    r2 = float(np.sum((np.atleast_1d(x0) - np.atleast_1d(xi)) ** 2))
    return c * rho**n / (t0 - tau) ** (n - 1) * math.exp(-r2 / (c * (t0 - tau)))


def q_rho_integral(
    evaluator,
    x0,
    t0: float,
    xi,
    tau: float,
    n_time: int = 20,
    n_space: int = 24,
    check_convergence: bool = True,
) -> float:
    """Square integral of the kernel over the parabolic cylinder Q_rho.

    Q_rho = B_rho(x0) x (t0 - rho^2, t0) with rho = (1/4) sqrt(|x0-xi|^2
    + (t0-tau)); the time range is clipped to t > tau when the cylinder
    reaches below the source time.  Time uses the substitution
    t = tau + sigma^2; space uses Gauss-Legendre (polar in 2-D).
    UnsupportedDimension unless n is 1 or 2; MediumError unless t0 and
    tau are finite numbers with tau < t0.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    time_lag(t0, tau)
    n = x0.shape[0]
    if n not in (1, 2):
        raise UnsupportedDimension(f"q_rho_integral supports n in {{1, 2}}, not {n}")
    rho = q_rho_radius(x0, t0, xi, tau)

    def compute(nt, ns):
        sig_lo = math.sqrt(max(t0 - rho**2, tau) - tau)
        sig, wsig = gauss_tensor_grid([[(sig_lo, math.sqrt(t0 - tau), nt)]])
        if n == 1:
            pts, wts = gauss_tensor_grid([[(x0[0] - rho, x0[0] + rho, ns)]])
        else:
            rad, wrad = gauss_tensor_grid([[(0.0, rho, ns)]])
            rad = rad[:, 0]
            phi = np.linspace(0.0, 2.0 * np.pi, 2 * ns, endpoint=False)
            wphi = 2.0 * np.pi / (2 * ns)
            # sin(pi k/ns) from k's distance to the nearest multiple of ns,
            # so that phi and pi - phi share x_n bit for bit (and sin(pi)
            # is 0): the evaluator's work follows the unique x_n.
            k = np.arange(2 * ns)
            dist = np.minimum(k % ns, ns - k % ns)
            sin_phi = np.where(k < ns, 1.0, -1.0) * np.sin(np.pi * dist / ns)
            pts = np.stack(
                [x0[0] + (rad[:, None] * np.cos(phi)).ravel(),
                 x0[1] + (rad[:, None] * sin_phi).ravel()],
                axis=1,
            )
            wts = np.repeat(rad * wrad, 2 * ns) * wphi  # rad dr dphi
        pts[pts[:, -1] == 0.0, -1] = 1e-12
        total = 0.0
        for sg, wv in zip(sig[:, 0], wsig):
            t = tau + sg * sg
            res = evaluator.eval_many(pts, t, xi, tau)
            total += 2.0 * sg * wv * float(np.sum(wts * res["gamma"] ** 2))
        return total

    val = compute(n_time, n_space)
    if check_convergence:
        ref = compute(int(1.5 * n_time), int(1.5 * n_space))
        scale = max(abs(ref), 1e-300)
        if abs(val - ref) > 5e-3 * scale + 1e-30:
            raise QuadratureNotConverged(
                f"cylinder integral unstable: {val:.6e} vs {ref:.6e}"
            )
        val = ref
    return val


def _onesided_gradient_magnitude(values: np.ndarray, h: float) -> np.ndarray:
    """Per-node gradient magnitude using the larger one-sided difference.

    At coefficient discontinuities the gradient jumps; the essential-sup
    norm sees the larger one-sided limit, so forward/backward differences
    are computed per axis and the larger magnitude kept.
    """
    dim = values.ndim
    comps = []
    for ax in range(dim):
        fwd = np.abs(np.diff(values, axis=ax)) / h
        big = np.zeros_like(values)
        sl_lo = [slice(None)] * dim
        sl_lo[ax] = slice(0, -1)
        sl_hi = [slice(None)] * dim
        sl_hi[ax] = slice(1, None)
        np.maximum(big[tuple(sl_lo)], fwd, out=big[tuple(sl_lo)])
        np.maximum(big[tuple(sl_hi)], fwd, out=big[tuple(sl_hi)])
        comps.append(big)
    return np.sqrt(np.sum(np.stack(comps) ** 2, axis=0))


def _trapezoid_weights(c: np.ndarray) -> np.ndarray:
    """Trapezoid-rule weights on the increasing nodes ``c``."""
    w = np.zeros(c.size)
    d = np.diff(c)
    w[:-1] += d / 2.0
    w[1:] += d / 2.0
    return w


def interior_estimate_check(solutions, rho_sweep) -> BoundFitReport:
    """Fit the constant in the interior gradient estimate

    sup_{rho-cube x (t-rho^2, t)} |grad u|
        <= c rho^{-(n/2+2)} ||u||_{L^2(2rho-cube x (t-4rho^2, t))}.

    ``solutions`` are GridFunctions (time history on a grid); cubes are
    centered at the grid box center and anchored at the final time.
    """
    ratios = []
    records = []
    for u in solutions:
        grid = u.grid
        n = grid.dim
        h = grid.spacing
        axes = grid.axes
        t_anchor = grid.t_span[1]
        xc = grid.box.center
        times = grid.times
        grads = np.stack([
            _onesided_gradient_magnitude(u.values[i], h)
            for i in range(len(times))
        ])
        for rho in rho_sweep:
            if t_anchor - 4.0 * rho**2 < grid.t_span[0] - 1e-12:
                raise ValueError(f"rho {rho} exceeds the stored time window")
            sel_small = [
                (axes[j] >= xc[j] - rho) & (axes[j] <= xc[j] + rho)
                for j in range(n)
            ]
            sel_big = [
                (axes[j] >= xc[j] - 2 * rho) & (axes[j] <= xc[j] + 2 * rho)
                for j in range(n)
            ]
            t_small = (times >= t_anchor - rho**2) & (times <= t_anchor)
            t_big = (times >= t_anchor - 4 * rho**2) & (times <= t_anchor)
            lhs = float(grads[np.ix_(t_small, *sel_small)].max())
            cut = (t_big, *sel_big)
            sq = u.values[np.ix_(*cut)] ** 2
            for j, (coords, mask) in enumerate(zip((times, *axes), cut)):
                shape = [1] * (n + 1)
                shape[j] = -1
                sq = sq * _trapezoid_weights(coords[mask]).reshape(shape)
            l2 = math.sqrt(float(np.sum(sq)))
            if l2 == 0.0:
                continue
            c_req = lhs * rho ** (n / 2.0 + 2.0) / l2
            ratios.append((c_req, rho, lhs, l2))
            records.append((rho, lhs / l2))
    if not ratios:
        raise NoFiniteConstant("no nonzero samples for the interior estimate")
    c_fit, rho_w, lhs_w, l2_w = max(ratios, key=lambda r: r[0])
    rhos = np.array([r[0] for r in records])
    vals = np.array([r[1] for r in records])
    slope = float(np.polyfit(np.log(rhos), np.log(vals), 1)[0])
    return BoundFitReport(
        fitted_constant=float(c_fit),
        exponent_slope=slope,
        sample_count=len(ratios),
        worst_ratio_location=(rho_w, lhs_w, l2_w),
        residual=0.0,
    )


def _check_exponents(p1: float, p2: float, q: float):
    for v in (p1, p2, q):
        if not v >= 1.0:
            raise ExponentMismatch("exponents must be >= 1")
    if abs(1.0 / p2 + 1.0 / q - 1.0 / p1 - 1.0) > 1e-12:
        raise ExponentMismatch(
            f"1/p2 + 1/q = {1 / p2 + 1 / q} != 1/p1 + 1 = {1 / p1 + 1}"
        )


# Random test functions of schur_verify and the seed that draws them.
SCHUR_TRIALS = 100
SCHUR_SEED = 11


def schur_bound(kernel: np.ndarray, p1: float, p2: float, q: float) -> float:
    """Operator-norm bound L1^{1/p1} L2^{1-1/p2} from the Schur test.

    ``kernel`` is K sampled on X1 x X2 (rows indexed by X1), both carrying
    the uniform probability measure; L1 bounds the X1-integrals of |K|^q
    (per column), L2 the X2-integrals (per row).
    """
    _check_exponents(p1, p2, q)
    k = np.asarray(kernel, dtype=float)
    m1, m2 = k.shape
    w1, w2 = np.full(m1, 1.0 / m1), np.full(m2, 1.0 / m2)
    l1 = float((w1 @ np.abs(k) ** q).max())
    l2 = float((np.abs(k) ** q @ w2).max())
    return l1 ** (1.0 / p1) * l2 ** (1.0 - 1.0 / p2)


def schur_verify(kernel: np.ndarray, p1: float, p2: float, q: float) -> float:
    """Max of ||Kf||_{p1} / (bound ||f||_{p2}) over random test functions."""
    bound = schur_bound(kernel, p1, p2, q)
    k = np.asarray(kernel, dtype=float)
    m1, m2 = k.shape
    w1, w2 = np.full(m1, 1.0 / m1), np.full(m2, 1.0 / m2)
    rng = np.random.default_rng(SCHUR_SEED)
    worst = 0.0
    for _ in range(SCHUR_TRIALS):
        f = rng.standard_normal(m2)
        kf = k @ (w2 * f)
        num = float((w1 @ np.abs(kf) ** p1) ** (1.0 / p1))
        den = float((w2 @ np.abs(f) ** p2) ** (1.0 / p2))
        if den > 0:
            worst = max(worst, num / (bound * den))
    return worst
