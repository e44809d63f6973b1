"""Independent finite-difference reference solver.

Solves dt u = div(A grad u) (+ forcing) on an axis-aligned box in one or
two space dimensions with a conservative flux-form discretization,
implicit Euler by default and Crank-Nicolson opt-in.  The solver shares
no code with the transform-based kernel evaluator, so agreement between
the two is a genuine cross-check.

Time stepping takes one of two routes, chosen from the medium:

* no tangential-normal coupling (a_12 = 0 in both layers, always so in
  1-D): the operator is exactly L = T (x) diag(a_11(x_n)) + I (x) N, with
  T the 1-D tangential operator of unit coefficient and N the 1-D normal
  one (the tensor-product method of Lynch, Rice & Thomas, Numer. Math. 6,
  1964).  T is diagonalized once per solve, and each step solves one
  tridiagonal system per tangential mode;
* otherwise the 2-D operator is assembled as a sparse matrix and every
  step reuses one sparse LU factorization of it.

Discretization notes:

* fluxes live on faces between nodes; the normal coefficient on a face is
  the piecewise value at the face midpoint (faces normal to the interface
  have midpoints strictly inside one layer once the interface lies on a
  grid plane, so this coincides with harmonic averaging of the one-sided
  values and the discrete normal flux is continuous across the
  interface);
* tangential and mixed couplings evaluated exactly on the interface plane
  are arithmetically averaged;
* mixed-derivative terms use symmetric 4-point stencils (the average of
  the two endpoint central differences of the transverse direction);
* with no boundary condition ("none"), boundary fluxes are omitted and
  half cells are used at the boundary, so the discrete mass telescopes
  exactly (reflecting/no-flux closure of a large box).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.sparse.linalg import splu

from .medium import Cube, MediumError, TwoLayerMedium, homogeneous_medium, validate_tensor


class InterfaceNotOnGrid(MediumError):
    """Layered medium but no grid plane lies on the interface."""


class SolveFailed(RuntimeError):
    """Factorization/solve broke down or produced non-finite values."""


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform tensor grid on a box with a fixed time step; ``t_span`` must
    be a whole number of steps of ``dt`` (to 1e-9 relative)."""

    box: Cube
    nodes_per_dim: int
    dt: float
    t_span: tuple

    def __post_init__(self):
        if self.nodes_per_dim < 16:
            raise MediumError("nodes_per_dim must be >= 16")
        if not self.dt > 0.0:
            raise MediumError("dt must be positive")
        if not self.t_span[1] > self.t_span[0]:
            raise MediumError("t_span must be increasing")
        steps = (self.t_span[1] - self.t_span[0]) / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise MediumError(
                f"t_span is {steps:.6g} steps of dt, not a whole number"
            )

    @property
    def dim(self) -> int:
        return self.box.dim

    @property
    def spacing(self) -> float:
        return 2.0 * self.box.half_width / (self.nodes_per_dim - 1)

    @property
    def axes(self):
        w = self.box.half_width
        return [
            np.linspace(c - w, c + w, self.nodes_per_dim) for c in self.box.center
        ]

    @property
    def shape(self):
        return (self.nodes_per_dim,) * self.dim

    def points(self) -> np.ndarray:
        """All nodes as an (N, n) array in C order."""
        grids = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    @property
    def n_steps(self) -> int:
        return int(round((self.t_span[1] - self.t_span[0]) / self.dt))

    @property
    def times(self) -> np.ndarray:
        return self.t_span[0] + self.dt * np.arange(self.n_steps + 1)


@dataclass(eq=False)
class GridFunction:
    """Solution values on grid nodes for every stored time slice."""

    grid: Grid
    values: np.ndarray  # (n_times, nodes_per_dim, [nodes_per_dim])

    @property
    def final(self) -> np.ndarray:
        return self.values[-1]

    def quadrature_weights(self) -> np.ndarray:
        """Trapezoid weights matching the half-cell flux closure."""
        m = self.grid.nodes_per_dim
        h = self.grid.spacing
        w1 = np.full(m, h)
        w1[0] = w1[-1] = h / 2.0
        if self.grid.dim == 1:
            return w1
        return np.multiply.outer(w1, w1)

    def mass(self, time_index: int = -1) -> float:
        return float(np.sum(self.quadrature_weights() * self.values[time_index]))


def _piecewise_entry(medium: TwoLayerMedium, i: int, j: int, xn: np.ndarray):
    """Coefficient a_ij at points with normal coordinate xn.

    Exactly on the interface the two one-sided values are averaged (only
    tangential/mixed couplings are ever evaluated there).
    """
    up = medium.upper.entries[i, j]
    lo = medium.lower.entries[i, j]
    return np.where(xn > 0.0, up, np.where(xn < 0.0, lo, 0.5 * (up + lo)))


def _check_interface(medium: TwoLayerMedium, grid: Grid):
    if medium.is_homogeneous:
        return
    last = grid.axes[-1]
    h = grid.spacing
    if not np.any(np.abs(last) <= 1e-9 * h):
        raise InterfaceNotOnGrid(
            "no grid plane lies on the interface x_n = 0; adjust box/nodes"
        )


def _transverse_diff(shape, axis: int, h: float) -> sp.csr_matrix:
    """Central difference along ``axis`` (one-sided at the two boundaries)."""
    n_nodes = int(np.prod(shape))
    idx = np.arange(n_nodes).reshape(shape)
    rows, cols, vals = [], [], []

    def sl(a, b):
        s = [slice(None)] * len(shape)
        s[axis] = slice(a, b)
        return tuple(s)

    inner = idx[sl(1, -1)].ravel()
    plus = idx[sl(2, None)].ravel()
    minus = idx[sl(0, -2)].ravel()
    rows += [inner, inner]
    cols += [plus, minus]
    vals += [np.full(inner.size, 0.5 / h), np.full(inner.size, -0.5 / h)]
    lo = idx[sl(0, 1)].ravel()
    lo_p = idx[sl(1, 2)].ravel()
    rows += [lo, lo]
    cols += [lo_p, lo]
    vals += [np.full(lo.size, 1.0 / h), np.full(lo.size, -1.0 / h)]
    hi = idx[sl(-1, None)].ravel()
    hi_m = idx[sl(-2, -1)].ravel()
    rows += [hi, hi]
    cols += [hi, hi_m]
    vals += [np.full(hi.size, 1.0 / h), np.full(hi.size, -1.0 / h)]
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_nodes, n_nodes),
    )


def build_operator(medium: TwoLayerMedium, grid: Grid, closed: bool) -> sp.csr_matrix:
    """Sparse flux-form discretization of div(A grad .) on all nodes.

    ``closed`` selects the no-flux closure: boundary faces are omitted and
    boundary control volumes are halved, making the discrete mass an exact
    invariant.  With ``closed=False`` the rows at boundary nodes are not
    meaningful (Dirichlet solves restrict to interior rows).
    """
    _check_interface(medium, grid)
    n = grid.dim
    if n not in (1, 2):
        raise MediumError("finite-difference oracle supports n in {1, 2} only")
    shape = grid.shape
    h = grid.spacing
    n_nodes = int(np.prod(shape))
    idx = np.arange(n_nodes).reshape(shape)
    axes = grid.axes
    diffs = [_transverse_diff(shape, j, h) for j in range(n)]

    # Per-node half-cell factors along each axis (only in closed mode).
    cell = np.ones((n, n_nodes))
    if closed:
        for j in range(n):
            s = [slice(None)] * n
            c = np.ones(shape)
            s[j] = 0
            c[tuple(s)] = 0.5
            s[j] = -1
            c[tuple(s)] = 0.5
            cell[j] = c.ravel()
    volume = (h**n) * np.prod(cell, axis=0)

    op = sp.csr_matrix((n_nodes, n_nodes))
    for i in range(n):
        s_left = [slice(None)] * n
        s_left[i] = slice(0, -1)
        s_right = [slice(None)] * n
        s_right[i] = slice(1, None)
        left = idx[tuple(s_left)].ravel()
        right = idx[tuple(s_right)].ravel()
        n_faces = left.size
        # Face midpoint coordinates (only the normal coordinate matters).
        mid_axes = list(axes)
        mid_axes[i] = 0.5 * (axes[i][:-1] + axes[i][1:])
        mids = np.meshgrid(*mid_axes, indexing="ij")
        xn_face = mids[-1].ravel()

        rows_sel = np.arange(n_faces)
        p_left = sp.csr_matrix(
            (np.ones(n_faces), (rows_sel, left)), shape=(n_faces, n_nodes)
        )
        p_right = sp.csr_matrix(
            (np.ones(n_faces), (rows_sel, right)), shape=(n_faces, n_nodes)
        )
        a_ii = _piecewise_entry(medium, i, i, xn_face)
        flux = sp.diags(a_ii / h) @ (p_right - p_left)
        for j in range(n):
            if j == i:
                continue
            a_ij = _piecewise_entry(medium, i, j, xn_face)
            if not np.any(a_ij):
                continue
            flux = flux + sp.diags(a_ij) @ (0.5 * (p_left + p_right)) @ diffs[j]
        area = (h ** (n - 1)) * np.prod(
            [cell[j][left] for j in range(n) if j != i], axis=0
        ) if n > 1 else np.ones(n_faces)
        div = (p_left.T - p_right.T) @ sp.diags(area) @ flux
        op = op + sp.diags(1.0 / volume) @ div
    return op.tocsr()


def _boundary_mask(shape) -> np.ndarray:
    mask = np.zeros(shape, dtype=bool)
    for j in range(len(shape)):
        s = [slice(None)] * len(shape)
        s[j] = 0
        mask[tuple(s)] = True
        s[j] = -1
        mask[tuple(s)] = True
    return mask.ravel()


def _uncoupled(medium: TwoLayerMedium) -> bool:
    """No tangential-normal coupling: a_12 = 0 in both layers (so in 1-D)."""
    return not (np.any(medium.upper.normal_row) or np.any(medium.lower.normal_row))


def _line_operator(medium: TwoLayerMedium, grid: Grid, axis: int, closed: bool):
    """build_operator on the 1-D grid that ``grid`` has along ``axis``."""
    box = Cube(half_width=grid.box.half_width, center=grid.box.center[[axis]])
    line = Grid(box=box, nodes_per_dim=grid.nodes_per_dim, dt=grid.dt, t_span=grid.t_span)
    return build_operator(medium, line, closed)


def _lu_route(medium: TwoLayerMedium, grid: Grid, closed: bool, active, step: float):
    """(apply, solve) from the assembled operator L: ``apply(u)`` is L u on
    the active rows, ``solve(r)`` solves (I - step L_aa) v = r."""
    op = build_operator(medium, grid, closed)[active]
    op_aa = op[:, active]
    # The flux-form stencil couples node i to j when it couples j to i (but
    # where a cross coefficient a_ij jumps at the interface), so a minimum-
    # degree order on the pattern of A^T + A fills less than SuperLU's
    # default COLAMD: on a 201^2 grid L + U holds 2.5M entries against
    # 4.5M for a 9-point stencil, and a solve takes about half the time.
    eye = sp.identity(op_aa.shape[0], format="csc")
    try:
        lu = splu((eye - step * op_aa).tocsc(), permc_spec="MMD_AT_PLUS_A")
    except Exception as exc:  # pragma: no cover - scipy raises various types
        raise SolveFailed(f"factorization failed: {exc}") from exc
    return (lambda u: op @ u), lu.solve


def _modal_route(medium: TwoLayerMedium, grid: Grid, closed: bool, step: float):
    """(apply, solve) as _lu_route, for a medium with no tangential-normal
    coupling, from the 1-D operators: L = T (x) diag(a_11(x_n)) + I (x) N.

    T_aa is diagonalized once, symmetrized by the active nodes' cell
    weights (half cells at the two ends when closed); in its eigenbasis
    mode k solves (I - step (lam_k diag(a_11) + N_aa)) v_k = r_k, and the
    modes' tridiagonal systems, laid end to end, make one tridiagonal
    system that LAPACK factors once.
    """
    _check_interface(medium, grid)
    if grid.dim not in (1, 2):
        raise MediumError("finite-difference oracle supports n in {1, 2} only")
    keep = slice(None) if closed else slice(1, -1)
    normal = TwoLayerMedium(
        upper=validate_tensor([[medium.upper.a_nn]]),
        lower=validate_tensor([[medium.lower.a_nn]]),
    )
    op_n = _line_operator(normal, grid, -1, closed)
    a_11 = _piecewise_entry(medium, 0, 0, grid.axes[-1])
    if grid.dim == 1:
        # No tangential axis: one mode, lam = 0.
        op_t, keep_t, root = sp.csr_matrix((1, 1)), slice(None), np.ones(1)
    else:
        op_t, keep_t = _line_operator(homogeneous_medium(validate_tensor([[1.0]])), grid, 0, closed), keep
        root = np.ones(grid.nodes_per_dim)[keep]
        if closed:
            root[[0, -1]] = math.sqrt(0.5)
    t_aa = op_t[keep_t][:, keep_t].toarray()
    sym = root[:, None] * t_aa / root[None, :]
    try:
        lam, vec = np.linalg.eigh(0.5 * (sym + sym.T))
    except np.linalg.LinAlgError as exc:
        raise SolveFailed(f"tangential eigendecomposition failed: {exc}") from exc
    to_modes, from_modes = vec.T * root, vec / root[:, None]

    n_aa = op_n[keep][:, keep]
    diag = 1.0 - step * (lam[:, None] * a_11[keep] + n_aa.diagonal())
    sub, sup = np.zeros((2,) + diag.shape)
    sub[:, :-1] = -step * n_aa.diagonal(-1)
    sup[:, :-1] = -step * n_aa.diagonal(1)
    *factors, info = dgttrf(sub.ravel()[:-1], diag.ravel(), sup.ravel()[:-1])
    if info != 0:
        raise SolveFailed(f"factorization failed: LAPACK dgttrf info {info}")
    shape = diag.shape

    def apply(u):
        u = u.reshape(op_t.shape[0], -1)
        return ((op_t @ u) * a_11 + (op_n @ u.T).T)[keep_t, keep].ravel()

    def solve(r):
        modes, _ = dgttrs(*factors, (to_modes @ r.reshape(shape)).ravel())
        return (from_modes @ modes.reshape(shape)).ravel()

    return apply, solve


def fdm_solve(
    medium: TwoLayerMedium,
    grid: Grid,
    initial,
    bc: str = "dirichlet0",
    scheme: str = "implicit_euler",
    boundary_data=None,
    forcing=None,
) -> GridFunction:
    """Time-step dt u = div(A grad u) + forcing from the initial slice.

    ``initial`` is an array on the grid or a callable of the node array;
    ``bc`` is "dirichlet0", "dirichlet" (with ``boundary_data(points, t)``),
    or "none" (no-flux closure of a large box, mass conserving);
    ``forcing(points, t)`` adds a source term.
    """
    if scheme not in ("implicit_euler", "crank_nicolson"):
        raise MediumError(f"unknown scheme {scheme!r}")
    if bc not in ("dirichlet0", "dirichlet", "none"):
        raise MediumError(f"unknown bc {bc!r}")
    if bc == "dirichlet" and boundary_data is None:
        raise MediumError("bc='dirichlet' requires boundary_data")
    pts = grid.points()
    shape = grid.shape
    n_nodes = pts.shape[0]
    u0 = initial(pts) if callable(initial) else np.asarray(initial, dtype=float)
    u0 = u0.reshape(shape).astype(float).copy()

    closed = bc == "none"
    dt = grid.dt
    times = grid.times
    theta = 1.0 if scheme == "implicit_euler" else 0.5
    active = np.ones(n_nodes, dtype=bool) if closed else ~_boundary_mask(shape)
    if _uncoupled(medium):
        apply, solve = _modal_route(medium, grid, closed, dt * theta)
    else:
        apply, solve = _lu_route(medium, grid, closed, active, dt * theta)
    a_idx = np.flatnonzero(active)
    b_idx = np.flatnonzero(~active)

    def bvals(t):
        return np.asarray(boundary_data(pts[b_idx], t), dtype=float)

    u = u0.ravel().copy()
    if bc == "dirichlet0":
        u[b_idx] = 0.0
    elif bc == "dirichlet":
        u[b_idx] = bvals(times[0])
    history = np.empty((grid.n_steps + 1,) + shape)
    history[0] = u.reshape(shape)
    for m in range(grid.n_steps):
        t_new = times[m + 1]
        rhs = u[a_idx]
        if theta < 1.0:
            rhs = rhs + dt * (1.0 - theta) * apply(u)
        if bc == "dirichlet":
            g = np.zeros(n_nodes)
            g[b_idx] = bvals(t_new)
            rhs = rhs + dt * theta * apply(g)
        if forcing is not None:
            f_new = np.asarray(forcing(pts[a_idx], t_new), dtype=float)
            if theta < 1.0:
                f_old = np.asarray(forcing(pts[a_idx], times[m]), dtype=float)
                rhs = rhs + dt * (theta * f_new + (1.0 - theta) * f_old)
            else:
                rhs = rhs + dt * f_new
        sol = solve(rhs)
        if not np.all(np.isfinite(sol)):
            raise SolveFailed(f"non-finite values at step {m + 1}")
        u[a_idx] = sol
        if bc == "dirichlet":
            u[b_idx] = g[b_idx]
        history[m + 1] = u.reshape(shape)
    return GridFunction(grid=grid, values=history)


def approximate_kernel(
    medium: TwoLayerMedium,
    y,
    eps: float,
    grid: Grid,
    scheme: str = "implicit_euler",
) -> GridFunction:
    """Evolve a normalized discrete Gaussian of width eps from t_span[0].

    The result approximates the kernel column Gamma(., t; y, t0) mollified
    in the source variable with a Gaussian of standard deviation eps.
    """
    if eps < 2.0 * grid.spacing:
        raise MediumError("mollification width must be >= 2 grid spacings")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    pts = grid.points()
    r2 = np.sum((pts - y) ** 2, axis=1)
    u0 = np.exp(-r2 / (2.0 * eps * eps)).reshape(grid.shape)
    gf0 = GridFunction(grid=grid, values=u0[None])
    u0 = u0 / gf0.mass(0)
    return fdm_solve(medium, grid, u0, bc="none", scheme=scheme)


def interior_solution_sampler(
    medium: TwoLayerMedium,
    boundary_data,
    grid: Grid,
) -> GridFunction:
    """Homogeneous solution driven by Dirichlet data from a generator.

    Implicit Euler steps; the initial slice is the generator evaluated at
    the initial time, so steady generators reproduce steady states exactly.
    """
    t0 = grid.t_span[0]
    initial = lambda pts: np.asarray(boundary_data(pts, t0), dtype=float)
    return fdm_solve(medium, grid, initial, bc="dirichlet", boundary_data=boundary_data)


# Sine modes, each with unit-normal amplitude, of random_boundary_generator.
BOUNDARY_MODES = 4


def random_boundary_generator(dim: int, seed: int):
    """Reproducible smooth space-time boundary data for the sampler."""
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal((BOUNDARY_MODES,))
    freq = rng.uniform(0.3, 1.5, size=(BOUNDARY_MODES, dim))
    rate = rng.uniform(0.0, 1.0, size=BOUNDARY_MODES)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=BOUNDARY_MODES)

    def gen(pts, t):
        pts = np.atleast_2d(pts)
        out = np.zeros(pts.shape[0])
        for k in range(BOUNDARY_MODES):
            out += amp[k] * np.sin(pts @ freq[k] + phase[k]) * math.exp(-rate[k] * t)
        return out

    return gen
