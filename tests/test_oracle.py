import math

import numpy as np
import pytest
import scipy.sparse as sp

from layerheat import oracle
from layerheat.medium import (
    Cube,
    MediumError,
    TwoLayerMedium,
    homogeneous_medium,
    validate_tensor,
)
from layerheat.oracle import (
    Grid,
    GridFunction,
    InterfaceNotOnGrid,
    SolveFailed,
    _piecewise_entry,
    approximate_kernel,
    build_operator,
    fdm_solve,
    interior_solution_sampler,
    random_boundary_generator,
)
from layerheat.reference import gaussian_kernel, layered_kernel_1d


def layered_1d(a=1.0, b=4.0):
    return TwoLayerMedium(upper=validate_tensor([[a]]), lower=validate_tensor([[b]]))


def grid_1d(nodes=81, half=4.0, dt=1e-3, t_span=(0.0, 0.2)):
    return Grid(
        box=Cube(half_width=half, center=np.array([0.0])),
        nodes_per_dim=nodes,
        dt=dt,
        t_span=t_span,
    )


class TestGrid:
    def test_validation(self):
        box = Cube(half_width=1.0, center=np.array([0.0]))
        with pytest.raises(MediumError):
            Grid(box=box, nodes_per_dim=8, dt=0.1, t_span=(0.0, 1.0))
        with pytest.raises(MediumError):
            Grid(box=box, nodes_per_dim=16, dt=-0.1, t_span=(0.0, 1.0))
        with pytest.raises(MediumError):
            Grid(box=box, nodes_per_dim=16, dt=0.1, t_span=(1.0, 0.0))

    def test_t_span_whole_number_of_steps(self):
        box = Cube(half_width=1.0, center=np.array([0.0]))
        # 0.1 / 0.03 = 3.33 steps would end at t = 0.09
        with pytest.raises(MediumError, match="whole number"):
            Grid(box=box, nodes_per_dim=16, dt=0.03, t_span=(0.0, 0.1))
        with pytest.raises(MediumError, match="whole number"):
            Grid(box=box, nodes_per_dim=16, dt=0.2, t_span=(0.0, 0.1))
        g = Grid(box=box, nodes_per_dim=16, dt=0.1 / 3, t_span=(0.0, 0.1))
        assert g.n_steps == 3 and g.times[-1] == pytest.approx(0.1)

    def test_infinite_dt(self):
        # was accepted with n_steps = 0: the initial slice came back as the
        # final one
        box = Cube(half_width=1.0, center=np.array([0.0]))
        with pytest.raises(MediumError, match="dt"):
            Grid(box=box, nodes_per_dim=16, dt=math.inf, t_span=(0.0, 0.25))

    @pytest.mark.parametrize("t_span", [(0.0, math.inf), (-math.inf, 0.25)])
    def test_infinite_t_span(self, t_span):
        # was a bare OverflowError from round()
        box = Cube(half_width=1.0, center=np.array([0.0]))
        with pytest.raises(MediumError, match="t_span"):
            Grid(box=box, nodes_per_dim=16, dt=0.05, t_span=t_span)

    @pytest.mark.parametrize("nodes", [20.5, 21.0])
    def test_nodes_not_an_integer(self, nodes):
        # was accepted, then a TypeError inside np.linspace
        box = Cube(half_width=1.0, center=np.array([0.0]))
        with pytest.raises(MediumError, match="nodes_per_dim"):
            Grid(box=box, nodes_per_dim=nodes, dt=0.05, t_span=(0.0, 0.25))
        assert Grid(box=box, nodes_per_dim=np.int64(21), dt=0.05, t_span=(0.0, 0.25)).n_steps == 5

    def test_geometry(self):
        g = grid_1d(nodes=81, half=4.0)
        assert g.spacing == pytest.approx(0.1)
        assert g.points().shape == (81, 1)
        assert g.n_steps == 200
        assert g.times[0] == 0.0 and g.times[-1] == pytest.approx(0.2)

    def test_interface_must_be_on_grid(self):
        # even node count: no node at x = 0
        g = Grid(
            box=Cube(half_width=4.0, center=np.array([0.0])),
            nodes_per_dim=80,
            dt=1e-3,
            t_span=(0.0, 0.1),
        )
        with pytest.raises(InterfaceNotOnGrid):
            build_operator(layered_1d(), g, closed=True)


class TestGridFunction:
    def test_mass_and_slices(self):
        g = grid_1d(nodes=17, half=1.0, dt=0.05, t_span=(0.0, 0.1))
        vals = np.ones((g.n_steps + 1, 17))
        f = GridFunction(grid=g, values=vals)
        assert f.mass(0) == pytest.approx(2.0)  # integral of 1 over (-1, 1)
        assert np.array_equal(f.final, vals[-1])


class TestConservation:
    def test_zero_initial_stays_zero(self):
        g = grid_1d(nodes=33, half=2.0, dt=0.01, t_span=(0.0, 0.1))
        sol = fdm_solve(layered_1d(), g, np.zeros(33), bc="none")
        assert np.max(np.abs(sol.values)) == 0.0

    def test_mass_conserved_layered(self):
        g = grid_1d(nodes=81, half=4.0, dt=2e-3, t_span=(0.0, 0.2))
        sol = approximate_kernel(layered_1d(), np.array([0.4]), eps=0.25, grid=g)
        masses = [sol.mass(i) for i in range(sol.values.shape[0])]
        assert np.max(np.abs(np.array(masses) - masses[0])) < 1e-10

    def test_max_principle(self):
        g = grid_1d(nodes=65, half=3.0, dt=5e-3, t_span=(0.0, 0.3))
        sol = approximate_kernel(layered_1d(), np.array([0.5]), eps=0.3, grid=g)
        # implicit Euler of a conservative operator: values stay in range
        assert sol.values.min() >= -1e-12
        assert sol.final.max() <= sol.values[0].max() + 1e-12


class TestKernelAgreement:
    def test_homogeneous_gaussian(self):
        med = homogeneous_medium(validate_tensor([[1.0]]))
        g = grid_1d(nodes=161, half=4.0, dt=5e-4, t_span=(0.0, 0.25))
        eps = 0.12
        sol = approximate_kernel(med, np.array([0.3]), eps=eps, grid=g)
        pts = g.points()
        # compare against the eps-mollified exact kernel: Gaussian initial
        # data widens the variance by eps^2 (i.e. adds eps^2/2 to a dt)
        exact = gaussian_kernel(
            med.upper, pts, 0.25 + eps * eps / 2.0, np.array([0.3]), 0.0
        )
        sel = np.abs(pts[:, 0]) < 2.5
        err = np.max(np.abs(sol.final[sel] - exact[sel])) / exact.max()
        assert err < 0.01

    def test_layered_kernel_1d(self):
        med = layered_1d(1.0, 4.0)
        g = grid_1d(nodes=161, half=4.0, dt=5e-4, t_span=(0.0, 0.25))
        eps = 0.12
        sol = approximate_kernel(med, np.array([0.5]), eps=eps, grid=g)
        pts = g.points()
        exact = layered_kernel_1d(
            1.0, 4.0, pts[:, 0], 0.25 + eps * eps / 2.0, 0.5, 0.0
        )
        sel = np.abs(pts[:, 0]) < 2.5
        err = np.max(np.abs(sol.final[sel] - exact[sel])) / exact.max()
        assert err < 0.015


class TestManufacturedConvergence:
    def test_second_order_2d_mixed_tensor(self):
        # u = sin(pi x1 / 2) sin(pi x2 / 2) e^{-t} on [-1,1]^2 with the
        # matching forcing; Crank-Nicolson + central stencils give O(h^2).
        med = homogeneous_medium(validate_tensor([[2.0, 0.5], [0.5, 1.5]]))
        a11, a12, a22 = 2.0, 0.5, 1.5
        k = np.pi / 2.0

        def exact(pts, t):
            return np.sin(k * pts[:, 0]) * np.sin(k * pts[:, 1]) * np.exp(-t)

        def forcing(pts, t):
            s1 = np.sin(k * pts[:, 0])
            s2 = np.sin(k * pts[:, 1])
            c1 = np.cos(k * pts[:, 0])
            c2 = np.cos(k * pts[:, 1])
            lap = -k * k * (a11 + a22) * s1 * s2 + 2.0 * a12 * k * k * c1 * c2
            return (-s1 * s2 - lap) * np.exp(-t)

        errs = []
        for nodes in (17, 33):
            g = Grid(
                box=Cube(half_width=1.0, center=np.array([0.0, 0.0])),
                nodes_per_dim=nodes,
                dt=0.1 / (nodes - 1),
                t_span=(0.0, 0.1),
            )
            pts = g.points()
            sol = fdm_solve(
                med, g, exact(pts, 0.0), bc="dirichlet",
                scheme="crank_nicolson",
                boundary_data=lambda p, t: exact(p, t),
                forcing=forcing,
            )
            errs.append(np.max(np.abs(sol.final.ravel() - exact(pts, 0.1))))
        order = np.log2(errs[0] / errs[1])
        assert order > 1.9


class TestSampler:
    def test_steady_linear_data_exact(self):
        # u = x1 is a steady solution of any constant-coefficient operator
        med = homogeneous_medium(validate_tensor([[1.0, 0.2], [0.2, 2.0]]))
        g = Grid(
            box=Cube(half_width=1.0, center=np.array([0.0, 0.0])),
            nodes_per_dim=17,
            dt=0.02,
            t_span=(0.0, 0.2),
        )
        sol = interior_solution_sampler(med, lambda p, t: p[:, 0], g)
        pts = g.points()
        assert np.max(np.abs(sol.final.ravel() - pts[:, 0])) < 1e-11

    def test_reproducible(self):
        med = layered_1d()
        g = grid_1d(nodes=33, half=2.0, dt=0.01, t_span=(0.0, 0.1))
        gen = random_boundary_generator(1, seed=3)
        a = interior_solution_sampler(med, gen, g)
        b = interior_solution_sampler(med, random_boundary_generator(1, seed=3), g)
        assert np.array_equal(a.values, b.values)

    def test_constant_data_constant_solution(self):
        med = layered_1d()
        g = grid_1d(nodes=33, half=2.0, dt=0.01, t_span=(0.0, 0.1))
        sol = interior_solution_sampler(med, lambda p, t: np.full(p.shape[0], 2.5), g)
        assert np.max(np.abs(sol.values - 2.5)) < 1e-12


class TestValidation:
    def test_mollification_too_narrow(self):
        g = grid_1d(nodes=33, half=2.0)
        with pytest.raises(MediumError):
            approximate_kernel(layered_1d(), np.array([0.3]), eps=0.01, grid=g)

    def test_unknown_scheme_and_bc(self):
        g = grid_1d(nodes=33, half=2.0)
        with pytest.raises(MediumError):
            fdm_solve(layered_1d(), g, np.zeros(33), scheme="euler")
        with pytest.raises(MediumError):
            fdm_solve(layered_1d(), g, np.zeros(33), bc="periodic")
        with pytest.raises(MediumError):
            fdm_solve(layered_1d(), g, np.zeros(33), bc="dirichlet")


def _medium(upper, lower):
    return TwoLayerMedium(upper=validate_tensor(upper), lower=validate_tensor(lower))


UNCOUPLED_2D = [
    ([[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 2.0]]),
    ([[1.5, 0.0], [0.0, 0.7]], [[3.0, 0.0], [0.0, 2.2]]),
]


def _check_modal_against_lu(monkeypatch, med, center, nodes, bc, scheme):
    """Every slice of the modal route within 1e-12 of the sparse LU's, relative
    to the slice's peak, with boundary data and forcing when they apply."""
    g = Grid(box=Cube(half_width=2.0, center=center),
             nodes_per_dim=nodes, dt=0.01, t_span=(0.0, 0.1))
    pts = g.points()

    def run():
        return fdm_solve(
            med, g, np.exp(-np.sum((pts - 0.4) ** 2, axis=1)), bc=bc, scheme=scheme,
            boundary_data=lambda p, t: np.sin(p[:, 0] + p[:, -1]) * np.exp(-t),
            forcing=lambda p, t: np.cos(p[:, -1]) * (1.0 + t),
        ).values

    modal = run()
    monkeypatch.setattr(oracle, "_uncoupled", lambda medium: False)
    lu = run()
    for a, b in zip(modal, lu):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


class TestTensorProductRoute:
    """Media with no tangential-normal coupling step in the eigenbasis of
    the 1-D tangential operator; the sparse LU of the assembled operator
    is the reference."""

    @pytest.mark.parametrize("layers", UNCOUPLED_2D)
    @pytest.mark.parametrize("closed", [True, False])
    def test_operator_is_kronecker_sum(self, layers, closed):
        med = _medium(*layers)
        m = 21
        g = Grid(box=Cube(half_width=2.0, center=np.array([0.5, 0.0])),
                 nodes_per_dim=m, dt=0.01, t_span=(0.0, 0.1))
        full = build_operator(med, g, closed=closed).toarray()
        lines = [Grid(box=Cube(half_width=2.0, center=np.array([c])),
                      nodes_per_dim=m, dt=0.01, t_span=(0.0, 0.1)) for c in (0.5, 0.0)]
        unit = homogeneous_medium(validate_tensor([[1.0]]))
        normal = _medium([[layers[0][1][1]]], [[layers[1][1][1]]])
        t_op = build_operator(unit, lines[0], closed=closed)
        n_op = build_operator(normal, lines[1], closed=closed)
        a_11 = _piecewise_entry(med, 0, 0, g.axes[-1])
        kron = (sp.kron(t_op, sp.diags(a_11)) + sp.kron(sp.identity(m), n_op)).toarray()
        rows = slice(None) if closed else ~oracle._boundary_mask(g.shape)
        err = np.max(np.abs(full[rows] - kron[rows]))
        assert err <= 1e-15 * np.max(np.abs(full[rows]))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("bc", ["none", "dirichlet0", "dirichlet"])
    @pytest.mark.parametrize("scheme", ["implicit_euler", "crank_nicolson"])
    def test_matches_sparse_lu(self, monkeypatch, dim, bc, scheme):
        if dim == 1:
            med, center = _medium([[1.0]], [[2.5]]), np.array([0.4])
        else:
            med, center = _medium(*UNCOUPLED_2D[1]), np.array([0.5, 0.4])
        _check_modal_against_lu(monkeypatch, med, center, 21, bc, scheme)

    @pytest.mark.slow
    @pytest.mark.parametrize("bc", ["none", "dirichlet0", "dirichlet"])
    @pytest.mark.parametrize("scheme", ["implicit_euler", "crank_nicolson"])
    def test_matches_sparse_lu_101_nodes(self, monkeypatch, bc, scheme):
        _check_modal_against_lu(monkeypatch, _medium(*UNCOUPLED_2D[1]),
                                np.array([0.5, 0.4]), 101, bc, scheme)

    @pytest.mark.parametrize("nodes", [17, 21, 201])
    @pytest.mark.parametrize("closed", [True, False])
    def test_tangential_modes_diagonalize_the_line(self, nodes, closed):
        # The closed-form eigenpairs against build_operator's unit line,
        # symmetrized by the root cell volumes (sqrt(1/2) at a closed
        # end): the transforms invert each other, their vectors are
        # orthonormal once symmetrized, they diagonalize the line, and the
        # eigenvalues are eigh's.
        h = 0.1
        line = Grid(box=Cube(half_width=0.5 * h * (nodes - 1), center=np.array([0.3])),
                    nodes_per_dim=nodes, dt=0.01, t_span=(0.0, 0.1))
        t_op = build_operator(homogeneous_medium(validate_tensor([[1.0]])), line, closed=closed)
        keep = slice(None) if closed else slice(1, -1)
        t_aa = t_op[keep][:, keep].toarray()
        root = np.ones(nodes)[keep]
        if closed:
            root[[0, -1]] = math.sqrt(0.5)
        sym = root[:, None] * t_aa / root[None, :]
        ref = np.linalg.eigh(sym)[0]
        norm = np.max(np.abs(ref))
        lam, forward, back = oracle._tangential_modes(nodes, line.spacing, closed)
        eye = np.eye(lam.size)
        assert np.max(np.abs(forward(back(eye)) - eye)) <= 1e-14
        vec = root[:, None] * back(eye)
        vec /= np.linalg.norm(vec, axis=0)
        assert np.max(np.abs(vec.T @ vec - eye)) <= 1e-14
        assert np.max(np.abs(vec.T @ sym @ vec - np.diag(lam))) <= 1e-14 * norm
        assert np.max(np.abs(np.sort(lam) - ref)) <= 1e-14 * norm

    @pytest.mark.parametrize("layers, calls", [
        (UNCOUPLED_2D[0], 0),
        (([[1.0, 0.3], [0.3, 1.0]], [[2.0, 0.0], [0.0, 2.0]]), 1),
        (([[1.0]], [[2.0]]), 0),
    ])
    def test_sparse_lu_only_for_coupled_media(self, monkeypatch, layers, calls):
        made = []

        def counting_splu(*args, **kwargs):
            made.append(args)
            return sp.linalg.splu(*args, **kwargs)

        monkeypatch.setattr(oracle, "splu", counting_splu)
        med = _medium(*layers)
        g = Grid(box=Cube(half_width=2.0, center=np.zeros(med.dim)),
                 nodes_per_dim=17, dt=0.01, t_span=(0.0, 0.05))
        sol = fdm_solve(med, g, np.ones(g.shape), bc="none")
        assert len(made) == calls
        assert sol.mass(-1) == pytest.approx(sol.mass(0), rel=1e-12)

    def test_interface_checked_when_only_a_11_jumps(self):
        # equal a_nn: the 1-D normal medium is homogeneous, yet the 2-D
        # medium is layered and its interface must lie on a grid plane
        med = _medium([[1.0, 0.0], [0.0, 2.0]], [[3.0, 0.0], [0.0, 2.0]])
        g = Grid(box=Cube(half_width=2.0, center=np.zeros(2)),
                 nodes_per_dim=20, dt=0.01, t_span=(0.0, 0.05))
        with pytest.raises(InterfaceNotOnGrid):
            fdm_solve(med, g, np.zeros(g.shape), bc="none")

    @pytest.mark.parametrize("a_12", [0.0, 0.3])
    def test_non_finite_values_fail(self, a_12):
        med = _medium([[1.0, a_12], [a_12, 1.0]], [[2.0, 0.0], [0.0, 2.0]])
        g = Grid(box=Cube(half_width=2.0, center=np.zeros(2)),
                 nodes_per_dim=17, dt=0.01, t_span=(0.0, 0.05))
        u0 = np.zeros(g.shape)
        u0[8, 8] = np.nan
        with pytest.raises(SolveFailed):
            fdm_solve(med, g, u0, bc="none")
