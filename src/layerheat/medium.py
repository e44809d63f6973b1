"""Coefficient tensors and geometric primitives for two-layer media.

A medium consists of two constant symmetric positive-definite diffusion
tensors, one for each side of the flat interface ``{x_n = 0}`` (the last
coordinate).  Everything downstream (transform-domain symbols, kernel
quadrature, Green functions) works with these validated types.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class MediumError(ValueError):
    """Base class for invalid medium data."""


class NotSymmetric(MediumError):
    """Tensor entries are not exactly symmetric."""


class NotElliptic(MediumError):
    """Tensor has a nonpositive eigenvalue."""


class UnsupportedDimension(MediumError):
    """Spatial dimension outside {1, 2, 3}."""


class OnInterface(MediumError):
    """Point lies exactly on the material interface."""


@dataclass(frozen=True, eq=False)
class DiffusionTensor:
    """Validated SPD diffusion tensor.

    Construct through :func:`validate_tensor`; ``delta`` is the smallest
    eigenvalue (the ellipticity constant), cached at validation time.
    """

    entries: np.ndarray
    dim: int
    delta: float

    def __post_init__(self):
        self.entries.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, DiffusionTensor):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.entries, other.entries)

    @property
    def a_nn(self) -> float:
        return float(self.entries[-1, -1])

    @property
    def minor(self) -> np.ndarray:
        """Leading (n-1) x (n-1) block (tangential couplings)."""
        return self.entries[:-1, :-1]

    @property
    def normal_row(self) -> np.ndarray:
        """Off-diagonal entries of the last row, a_{jn} for j < n."""
        return self.entries[:-1, -1]

    def reflected(self, axis: int) -> "DiffusionTensor":
        """Tensor of the pulled-back operator under reflection of ``axis``.

        Off-diagonal entries in the given row/column change sign; the
        spectrum is preserved (similarity by a diagonal sign matrix).
        """
        if not 0 <= axis < self.dim:
            raise UnsupportedDimension(f"axis {axis} out of range for dim {self.dim}")
        sign = np.ones(self.dim)
        sign[axis] = -1.0
        entries = sign[:, None] * self.entries * sign[None, :]
        return DiffusionTensor(entries=entries, dim=self.dim, delta=self.delta)

    def is_reflection_invariant(self, axis: int) -> bool:
        return np.array_equal(self.reflected(axis).entries, self.entries)

    @cached_property
    def tangential_schur(self):
        """Eigenvalues (ascending) and eigenvectors of the tangential Schur
        complement A_tt - a_t a_t^T / a_nn: the Gaussian decay rates of the
        inverted symbols in the tangential frequency (empty in 1-D)."""
        g = self.normal_row
        return np.linalg.eigh(self.minor - np.outer(g, g) / self.a_nn)

    def schur_complement_min(self) -> float:
        """Smallest eigenvalue of the tangential Schur complement; a_11
        itself in one dimension, where there is no tangential block."""
        if self.dim == 1:
            return self.a_nn
        return float(self.tangential_schur[0][0])


def validate_tensor(entries) -> DiffusionTensor:
    """Validate a square matrix as a diffusion tensor.

    Requires a square matrix of finite numbers, exact symmetry (no silent
    symmetrization), strictly positive eigenvalues, and dimension in {1, 2, 3}.
    """
    try:
        arr = np.array(entries, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MediumError("tensor entries must be a square matrix of numbers") from exc
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise UnsupportedDimension(f"expected a square matrix, got shape {arr.shape}")
    n = arr.shape[0]
    if n not in (1, 2, 3):
        raise UnsupportedDimension(f"dimension {n} not in {{1, 2, 3}}")
    if not np.all(np.isfinite(arr)):
        raise MediumError("tensor entries must be finite")
    if not np.array_equal(arr, arr.T):
        raise NotSymmetric("tensor entries are not exactly symmetric")
    lam_min = float(np.linalg.eigvalsh(arr).min())
    if lam_min <= 0.0:
        raise NotElliptic(f"smallest eigenvalue {lam_min} is not positive")
    return DiffusionTensor(entries=arr, dim=n, delta=lam_min)


@dataclass(frozen=True, eq=False)
class TwoLayerMedium:
    """Pair of tensors: ``upper`` for x_n > 0, ``lower`` for x_n < 0."""

    upper: DiffusionTensor
    lower: DiffusionTensor

    def __post_init__(self):
        if self.upper.dim != self.lower.dim:
            raise UnsupportedDimension(
                f"layer dimensions differ: {self.upper.dim} vs {self.lower.dim}"
            )

    def __eq__(self, other):
        if not isinstance(other, TwoLayerMedium):
            return NotImplemented
        return self.upper == other.upper and self.lower == other.lower

    @property
    def dim(self) -> int:
        return self.upper.dim

    @property
    def is_homogeneous(self) -> bool:
        return self.upper == self.lower

    def max_eigenvalue(self) -> float:
        return max(
            float(np.linalg.eigvalsh(self.upper.entries).max()),
            float(np.linalg.eigvalsh(self.lower.entries).max()),
        )

    def min_delta(self) -> float:
        return min(self.upper.delta, self.lower.delta)


def homogeneous_medium(tensor: DiffusionTensor) -> TwoLayerMedium:
    return TwoLayerMedium(upper=tensor, lower=tensor)


@dataclass(frozen=True, eq=False)
class Cube:
    """Axis-aligned cube: ``center + (-half_width, half_width)^n``."""

    half_width: float
    center: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if not self.half_width > 0.0:
            raise MediumError("half_width must be positive")
        if self.center.ndim != 1:
            raise MediumError("center must be a point")
        self.center.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def contains(self, point) -> bool:
        """Strictly inside: the boundary is excluded."""
        d = np.abs(np.asarray(point, dtype=float) - self.center)
        return bool(np.all(d < self.half_width))
