"""Dirichlet Green functions built from the free kernel by reflections.

A Dirichlet problem on a half-space or an axis-aligned cube is solved by
extending the coefficients evenly across each face (off-diagonal entries
in the face row/column change sign) and subtracting mirror-image sources.
The construction is only exact when the extended coefficient field is
again one of the media the kernel evaluator can handle; configurations
where the extension would create additional interfaces are rejected with
UnsupportedGeometry rather than silently approximated:

* reflecting across a face perpendicular to the material interface
  requires both layers to be invariant under that reflection;
* reflecting across a face parallel to the interface requires either a
  homogeneous medium (the extension then creates a two-layer medium whose
  interface is the face itself - still computable) or a face placed so
  the domain does not straddle the material interface;
* the full cube expansion iterates reflections across every face and is
  supported for homogeneous media invariant under all axis reflections,
  i.e. diagonal tensors.  Their kernel is a product of 1-D Gaussians and
  their image lattice a product of per-axis lattices, so CubeGreen takes
  the (4 depth + 2)^n-term image sum as a product of n sums of 4 depth + 2
  Gaussians each, in closed form, without the kernel evaluator.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .medium import Cube, MediumError, TwoLayerMedium
from .inverse_transform import KernelEvaluator, QuadratureConfig, gauss_tensor_grid
from .inverse_transform import gaussian_terms, point_pairs, time_lag

# Largest image-series tail bound accepted, relative to the kernel scale.
TAIL_TOL = 1e-5

# Most images per target, (4 depth + 2)^n, that CubeGreen accepts; a call
# forms targets x n (4 depth + 2) 1-D Gaussians.  Depth 11 (3-D) meets
# TAIL_TOL up to lambda_max (t - s) = 22 w^2, beyond which the lowest
# Dirichlet mode, e^{-pi^2 trace(A) (t - s) / (4 w^2)} < e^{-54}, is under
# the image sum's roundoff; 1-D and 2-D allow depths 24,999 and 78.
MAX_IMAGES = 10 ** 5


class UnsupportedGeometry(ValueError):
    """Face/interface configuration outside the reflection construction."""


class TruncationInsufficient(RuntimeError):
    """Image-series tail bound exceeds the target tolerance."""


def _nudge_off_interface(z: np.ndarray) -> np.ndarray:
    """Shift exactly-zero normal coordinates by a negligible amount.

    The kernel is continuous across the interface; image bookkeeping can
    place points exactly on it, where the evaluator would refuse a
    one-sided classification.
    """
    z = z.copy()
    col = z[:, -1]
    col[col == 0.0] = 1e-300
    return z


def _green_points(x, y, n: int):
    """``point_pairs`` that also pairs one target with K sources."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    if x.ndim == 2 and x.shape[0] == 1 and y.ndim == 2:
        x = np.broadcast_to(x, (y.shape[0], x.shape[1]))
    return point_pairs(x, y, n)


def _image_sum(ev, x, t, y, s, jac, off, signs, source_gradient):
    """Signed sum of the free kernel over the images ``jac*y + off``.

    x, y: (K, n) in the evaluator's frame; jac, off: (T, n); signs: (T,).
    ``est`` sums the image estimates; ``sgrad`` applies the chain rule.
    """
    k, n = x.shape
    t_cnt = jac.shape[0]
    xs = np.repeat(x, t_cnt, axis=0)
    ys = (y[:, None, :] * jac[None, :, :] + off[None, :, :]).reshape(k * t_cnt, n)
    res = ev.eval_many(
        _nudge_off_interface(xs), t, _nudge_off_interface(ys), s,
        source_gradient=source_gradient,
    )
    sg = np.tile(signs, k)
    out = {
        "gamma": (sg * res["gamma"]).reshape(k, t_cnt).sum(axis=1),
        "grad": (sg[:, None] * res["grad"]).reshape(k, t_cnt, n).sum(axis=1),
        "sgrad": None,
        "est": res["est"].reshape(k, t_cnt).sum(axis=1),
    }
    if source_gradient:
        sj = sg[:, None] * np.tile(jac, (k, 1))
        out["sgrad"] = (sj * res["sgrad"]).reshape(k, t_cnt, n).sum(axis=1)
    return out


class HalfSpaceGreen:
    """Dirichlet Green function of the half-space {side*(x_axis - offset) > 0}."""

    def __init__(
        self,
        medium: TwoLayerMedium,
        axis: int,
        offset: float,
        side: int = 1,
        cfg: QuadratureConfig | None = None,
    ):
        n = medium.dim
        if not 0 <= axis < n:
            raise UnsupportedGeometry(f"axis {axis} out of range for dim {n}")
        if side not in (1, -1):
            raise UnsupportedGeometry("side must be +1 or -1")
        self.medium = medium
        self.axis = axis
        self.offset = float(offset)
        if not math.isfinite(self.offset):
            raise MediumError("offset must be finite")
        self.side = side
        if axis == n - 1:
            # Face parallel to the material interface.
            if medium.is_homogeneous:
                base = medium.upper
            elif side * offset >= 0.0:
                # Domain excluded from the interface: single-layer problem.
                base = medium.upper if side > 0 else medium.lower
            else:
                raise UnsupportedGeometry(
                    "reflection across a face parallel to the interface of a "
                    "genuinely two-layer medium is outside the construction"
                )
            tensor = base if side > 0 else base.reflected(axis)
            self._kernel_medium = TwoLayerMedium(
                upper=tensor, lower=tensor.reflected(axis)
            )
            self._mode = "parallel"
        else:
            if not (
                medium.upper.is_reflection_invariant(axis)
                and medium.lower.is_reflection_invariant(axis)
            ):
                raise UnsupportedGeometry(
                    "perpendicular-face reflection requires both layers to be "
                    f"invariant under reflection of axis {axis}"
                )
            self._kernel_medium = medium
            self._mode = "perpendicular"
        self._ev = KernelEvaluator(self._kernel_medium, cfg)
        # Direct source and its mirror image in the evaluation frame.
        ax = n - 1 if self._mode == "parallel" else axis
        jac, off = np.ones((2, n)), np.zeros((2, n))
        jac[1, ax] = -1.0
        if self._mode == "perpendicular":
            off[1, ax] = 2.0 * self.offset
        self._images = (jac, off, np.array([1, -1]))

    def _check_inside(self, x: np.ndarray, y: np.ndarray):
        # Targets may lie on the face, where G = 0; sources may not.
        if np.any(self.side * (x[:, self.axis] - self.offset) < 0.0):
            raise MediumError("targets must lie in the closed half-space")
        if np.any(self.side * (y[:, self.axis] - self.offset) <= 0.0):
            raise MediumError("sources must lie strictly inside the half-space")

    def _to_frame(self, pts: np.ndarray) -> np.ndarray:
        """Map to the evaluation frame where the face is {z_n = 0, z_n > 0}."""
        if self._mode == "perpendicular":
            return pts
        z = pts.copy()
        z[:, -1] = self.side * (pts[:, -1] - self.offset)
        return z

    def evaluate_many(self, x, t, y, s, source_gradient: bool = True):
        x, y = _green_points(x, y, self.medium.dim)
        self._check_inside(x, y)
        res = _image_sum(
            self._ev, self._to_frame(x), t, self._to_frame(y), s, *self._images,
            source_gradient,
        )
        if self._mode == "parallel" and self.side == -1:
            # Chain rule through the frame's flip of the normal axis.
            res["grad"][:, -1] *= -1.0
            if source_gradient:
                res["sgrad"][:, -1] *= -1.0
        return res


def _axis_images(cube: Cube, depth: int):
    """The images of a source coordinate on each axis: image = jac*u + off.

    On axis j, the images of u in (c_j - w, c_j + w) under the reflection
    group of the interval are u + 4wm (even parity, sign +1) and
    2(c_j - w) - u + 4wm (odd parity, sign -1), m = -depth..depth, in that
    order.  Returns jac (T,), off (n, T) and sign (T,), T = 4 depth + 2;
    the images of a point of the cube are the products of one per axis.
    """
    w = cube.half_width
    shift = 4.0 * w * np.arange(-depth, depth + 1)
    jac = np.tile([1.0, -1.0], 2 * depth + 1)
    off = np.zeros((cube.dim, jac.size))
    off[:, 0::2] = shift
    off[:, 1::2] = 2.0 * (cube.center[:, None] - w) + shift
    return jac, off, jac.copy()


def _product(vals, errs):
    """prod_j vals[j] over the first axis and a bound on its error, given
    bounds errs on the errors of vals: sum_j errs_j prod_{i != j} (|vals_i| +
    errs_i) for the factors' errors, plus n eps |product| for its rounding."""
    prod = np.prod(vals, axis=0)
    bounds = np.abs(vals) + errs
    carried = sum(errs[j] * np.prod(np.delete(bounds, j, axis=0), axis=0)
                  for j in range(vals.shape[0]))
    return prod, carried + vals.shape[0] * np.finfo(float).eps * np.abs(prod)


class CubeGreen:
    """Dirichlet Green function of an axis-aligned cube via image series.

    The medium is homogeneous with a diagonal tensor (invariant under every
    axis reflection), so its kernel is a product of 1-D Gaussians g_j and
    the image lattice a product of per-axis lattices: Gamma = prod_j S_j,
    S_j = sum_m sign_m g_j(x_j - jac_m y_j - off_jm) over the T = 4 depth
    + 2 images of axis j (Newman's product rule; Carslaw & Jaeger,
    Conduction of Heat in Solids, 1959).  The gradients follow by the
    product rule, the source gradient with jac as the chain rule's factor.
    ``est`` bounds the roundoff of the Gaussians (gaussian_terms), of the
    sums, T eps sum_m |g_jm|, and of the product, carried through it, plus
    the omitted image tail (tail_bound); it covers Gamma and each gradient
    component returned.
    """

    def __init__(self, medium: TwoLayerMedium, cube: Cube, depth: int = 2):
        if cube.dim != medium.dim:
            raise UnsupportedGeometry("cube and medium dimensions differ")
        if not medium.is_homogeneous:
            raise UnsupportedGeometry(
                "cube image expansion requires a homogeneous medium (layered "
                "parallel-face reflections create extra interfaces)"
            )
        tensor = medium.upper
        for ax in range(medium.dim):
            if not tensor.is_reflection_invariant(ax):
                raise UnsupportedGeometry(
                    f"tensor is not invariant under reflection of axis {ax}"
                )
        self.medium = medium
        self.cube = cube
        if (isinstance(depth, bool) or not (isinstance(depth, int) or float(depth).is_integer())
                or depth < 1 or (4 * int(depth) + 2) ** medium.dim > MAX_IMAGES):
            raise UnsupportedGeometry(f"depth must be >= 1 and integral, with at most "
                                      f"{MAX_IMAGES} images per target, not {depth!r}")
        self.depth = int(depth)
        self._images = _axis_images(cube, self.depth)
        # Over eps, a bound on the rounding of off (evaluate_many): 0 at the
        # direct image, whose off is an exact 0.
        self._off_scale = np.abs(self._images[1]) + 2.0 * (np.abs(cube.center[:, None]) + cube.half_width)
        self._off_scale[:, 2 * self.depth] = 0.0
        # Per axis, a_jj and 1 / a_jj, which IEEE division rounds correctly.
        diag = np.diag(tensor.entries)
        self._inv = (1.0 / diag).reshape(-1, 1, 1)
        self._det_root = 1.0 / np.sqrt(diag)
        self._det = float(np.prod(diag))
        self._lam_max = float(np.max(diag))

    def tail_bound(self, dt: float) -> float:
        """Upper bound on the omitted image-series tail.

        Shell j (largest per-axis lattice index j > depth) contributes
        images at distance at least 4w(j-1) from any target in the cube;
        each term is bounded by the exact Gaussian envelope of the
        homogeneous kernel.
        """
        n = self.medium.dim
        pref = (4.0 * np.pi * dt) ** (-n / 2.0) / math.sqrt(self._det)
        j = np.arange(self.depth + 1, self.depth + 81, dtype=float)
        cnt = (2.0 * (2.0 * j + 1.0)) ** n - (2.0 * (2.0 * j - 1.0)) ** n
        d = 4.0 * self.cube.half_width * (j - 1.0)
        return float(np.sum(cnt * pref * np.exp(-(d * d) / (4.0 * self._lam_max * dt))))

    def evaluate_many(self, x, t, y, s, source_gradient: bool = True):
        n = self.medium.dim
        x, y = _green_points(x, y, n)
        w, c = self.cube.half_width, self.cube.center
        if not np.all(np.abs(y - c) < w):
            raise MediumError("sources must lie strictly inside the cube")
        # Targets may lie on the boundary, as boundary_samples do; the slack
        # covers the rounding of center +- half_width.
        if not np.all(np.abs(x - c) <= w + 4.0 * np.finfo(float).eps * (np.abs(c) + w)):
            raise MediumError("targets must lie in the closed cube")
        dt = time_lag(t, s)
        tail = self.tail_bound(dt)
        scale = (4.0 * np.pi * dt) ** (-n / 2.0) / math.sqrt(self._det)
        if tail > TAIL_TOL * scale:
            raise TruncationInsufficient(
                f"image tail bound {tail:.3e} exceeds {TAIL_TOL:.1e} x "
                f"kernel scale {scale:.3e}; increase depth"
            )
        jac, off, sign = self._images
        k, m = x.shape[0], jac.size
        fp = np.finfo(float)
        # d[j, k, i]: target k's offset from image i of its source on axis
        # j, (x - jac y) - off, and d_err, a bound on its error from the
        # rounding of x - jac y, of off and of d.  gaussian_terms covers a d
        # rounded relative to its size only in part: even at the direct
        # image, a gradient at E = 500 erred by 0.999 of its bound alone.
        u = x.T[:, :, None] - y.T[:, :, None] * jac
        d = u - off[:, None, :]
        d_err = fp.eps * (np.abs(u) + self._off_scale[:, None, :])
        g, dg, rel, slope = (v.reshape(d.shape) for v in gaussian_terms(
            d.reshape(-1, 1), (d * self._inv).reshape(-1, 1), (np.abs(d) * self._inv).reshape(-1, 1),
            np.repeat((4.0 * np.pi * dt) ** -0.5 * self._det_root, k * m), dt))
        # Each term's roundoff, d_err carried by the derivative of g or of
        # g', and each axis's sums with bounds on their errors: their
        # terms' plus the summation's, T eps sum |terms|.  A sum along the
        # images' axis, unlike a matrix product, is taken in one order
        # whatever the batch.
        err = np.maximum(g * (rel + slope * d_err), fp.tiny)
        err_d = np.maximum(g * (rel * slope + (slope * slope + self._inv / (2.0 * dt)) * d_err), fp.tiny)
        weights = [sign, -sign * jac][:1 + bool(source_gradient)]
        s_err = np.sum(err, axis=2) + m * fp.eps * np.sum(g, axis=2)
        ds_err = np.sum(err_d, axis=2) + m * fp.eps * np.sum(np.abs(dg), axis=2)
        # The factors of Gamma, then of each gradient component: the sums,
        # with axis j's replaced by its derivative for the j-th component.
        sets = 1 + n * len(weights)
        vals = np.repeat(np.sum(g * sign, axis=2)[:, None, :], sets, axis=1)
        errs = np.repeat(s_err[:, None, :], sets, axis=1)
        axes = np.arange(n)
        for i, wt in enumerate(weights):
            vals[axes, 1 + i * n + axes] = np.sum(dg * wt, axis=2)
            errs[axes, 1 + i * n + axes] = ds_err
        prod, bound = _product(vals, errs)
        out = {"gamma": prod[0], "grad": np.ascontiguousarray(prod[1:n + 1].T),
               "est": np.max(bound, axis=0) + tail}
        if source_gradient:
            out["sgrad"] = np.ascontiguousarray(prod[n + 1:].T)
        return out

    def boundary_samples(self, per_face: int = 5) -> np.ndarray:
        """Deterministic sample points on the cube boundary."""
        n = self.medium.dim
        w, c = self.cube.half_width, self.cube.center
        ticks = np.linspace(-w, w, per_face + 2)[1:-1]
        pts = []
        for ax in range(n):
            for sgn in (-1.0, 1.0):
                free = [ticks + c[j] for j in range(n) if j != ax]
                for combo in itertools.product(*free):
                    p = list(combo)
                    p.insert(ax, c[ax] + sgn * w)
                    pts.append(p)
        return np.array(pts)


class AdjointGreen:
    """Backward-time adjoint of a Green evaluator: G*(x,t;y,s) = G(y,s;x,t)."""

    def __init__(self, base):
        self.base = base
        self.medium = base.medium

    def evaluate_many(self, x, t, y, s, source_gradient: bool = True):
        res = self.base.evaluate_many(y, s, x, t, source_gradient=True)
        return {
            "gamma": res["gamma"],
            "grad": res["sgrad"],
            "sgrad": res["grad"],
            "est": res["est"],
        }


def adjoint_green(evaluator):
    """Adjoint evaluator; applying it twice returns the original object."""
    if isinstance(evaluator, AdjointGreen):
        return evaluator.base
    return AdjointGreen(evaluator)


def volume_potential(
    gstar,
    force,
    x,
    t: float,
    domain: Cube,
    t0: float,
    n_time: int = 24,
    n_space: int = 40,
) -> float:
    """Representation-formula integral
    -Int_{t0}^{t} Int_domain F(y,s) . grad_y G*(y,s;x,t) dy ds.

    ``gstar`` is an adjoint Green evaluator; ``force`` maps (points (K,n),
    s) to a (K, n) vector field.  The time integral uses the substitution
    s = t - sigma^2 to absorb the kernel's short-time singularity.
    MediumError unless t > t0.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = domain.dim
    sig, wsig = gauss_tensor_grid([[(0.0, math.sqrt(time_lag(t, t0)), n_time)]])

    def tensor_grid(lo, hi):
        return gauss_tensor_grid([[(lo[j], hi[j], n_space)] for j in range(n)])

    w_half = domain.half_width
    lo_full = domain.center - w_half
    hi_full = domain.center + w_half
    pts_full, wts_full = tensor_grid(lo_full, hi_full)
    # Near s = t the gradient kernel concentrates in a ball of radius
    # O(sigma) around x; below this threshold the global grid cannot
    # resolve it, so a window scaled with sigma is used instead.
    lam = gstar.medium.max_eigenvalue()
    sigma_split = 6.0 * (2.0 * w_half / n_space) / math.sqrt(lam)
    total = 0.0
    for sg, wv in zip(sig[:, 0], wsig):
        s = t - sg * sg
        if sg < sigma_split:
            half = 10.0 * math.sqrt(lam) * sg
            lo = np.maximum(lo_full, x - half)
            hi = np.minimum(hi_full, x + half)
            pts, wts = tensor_grid(lo, hi)
        else:
            pts, wts = pts_full, wts_full
        res = gstar.evaluate_many(pts, s, x, t, source_gradient=False)
        f_val = np.asarray(force(pts, s), dtype=float)
        integrand = np.einsum("kj,kj->k", f_val, res["grad"])
        total += 2.0 * sg * wv * float(np.sum(wts * integrand))
    return -total
