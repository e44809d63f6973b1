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
  supported for homogeneous media invariant under all axis reflections.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .medium import Cube, MediumError, TwoLayerMedium
from .inverse_transform import KernelEvaluator, QuadratureConfig
from .inverse_transform import gauss_tensor_grid, point_pairs, time_lag

# Largest image-series tail bound accepted, relative to the kernel scale.
TAIL_TOL = 1e-5

# Most images per target, (4 depth + 2)^n, that CubeGreen accepts; a call
# evaluates targets x images kernel points.  Depth 11 (3-D) meets TAIL_TOL
# up to lambda_max (t - s) = 22 w^2, beyond which the lowest Dirichlet mode,
# e^{-pi^2 trace(A) (t - s) / (4 w^2)} < e^{-54}, is under the image sum's
# roundoff; 1-D and 2-D allow depths 24,999 and 78.
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


def _image_lattice(cube: Cube, depth: int):
    """Affine description of the reflection lattice: image = jac*y + off.

    Per axis, the images of a source coordinate u in (c-w, c+w) under the
    reflection group of the interval are u + 4wm (even parity) and
    2(c-w) - u + 4wm (odd parity), m = -depth..depth; the term sign is the
    product of parities.  Enumeration order is lexicographic for
    reproducibility.
    """
    w = cube.half_width
    axes = []
    for j in range(cube.dim):
        c = cube.center[j]
        entries = []
        for m in range(-depth, depth + 1):
            entries.append((1.0, 4.0 * w * m, 1))
            entries.append((-1.0, 2.0 * (c - w) + 4.0 * w * m, -1))
        axes.append(entries)
    jacs, offs, signs = [], [], []
    for combo in itertools.product(*axes):
        jacs.append([e[0] for e in combo])
        offs.append([e[1] for e in combo])
        signs.append(math.prod(e[2] for e in combo))
    return np.array(jacs), np.array(offs), np.array(signs)


class CubeGreen:
    """Dirichlet Green function of an axis-aligned cube via image series."""

    def __init__(
        self,
        medium: TwoLayerMedium,
        cube: Cube,
        cfg: QuadratureConfig | None = None,
        depth: int = 2,
    ):
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
        self._lattice = _image_lattice(cube, self.depth)
        self._ev = KernelEvaluator(medium, cfg)
        self._det = float(np.linalg.det(tensor.entries))
        self._lam_max = float(np.linalg.eigvalsh(tensor.entries).max())

    def tail_bound(self, dt: float) -> float:
        """Upper bound on the omitted image-series tail.

        Shell j (largest per-axis lattice index j > depth) contributes
        images at distance at least 4w(j-1) from any target in the cube;
        each term is bounded by the exact Gaussian envelope of the
        homogeneous kernel.
        """
        n = self.medium.dim
        w = self.cube.half_width
        pref = (4.0 * np.pi * dt) ** (-n / 2.0) / math.sqrt(self._det)
        rate = 4.0 * self._lam_max * dt
        total = 0.0
        for j in range(self.depth + 1, self.depth + 81):
            cnt = (2 * (2 * j + 1)) ** n - (2 * (2 * j - 1)) ** n
            d = 4.0 * w * (j - 1)
            total += cnt * pref * math.exp(-(d * d) / rate)
        return total

    def evaluate_many(self, x, t, y, s, source_gradient: bool = True):
        n = self.medium.dim
        x, y = _green_points(x, y, n)
        if not all(self.cube.contains(p) for p in y):
            raise MediumError("sources must lie strictly inside the cube")
        # Targets may lie on the boundary, as boundary_samples do; the slack
        # covers the rounding of center +- half_width.
        w, c = self.cube.half_width, self.cube.center
        if np.any(np.abs(x - c) > w + 4.0 * np.finfo(float).eps * (np.abs(c) + w)):
            raise MediumError("targets must lie in the closed cube")
        dt = time_lag(t, s)
        tail = self.tail_bound(dt)
        scale = (4.0 * np.pi * dt) ** (-n / 2.0) / math.sqrt(self._det)
        if tail > TAIL_TOL * scale:
            raise TruncationInsufficient(
                f"image tail bound {tail:.3e} exceeds {TAIL_TOL:.1e} x "
                f"kernel scale {scale:.3e}; increase depth"
            )
        res = _image_sum(
            self._ev, x, t, y, s, *self._lattice, source_gradient,
        )
        res["est"] += tail
        return res

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
