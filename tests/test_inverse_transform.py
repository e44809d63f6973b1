import math
import tracemalloc

import numpy as np
import pytest

from layerheat import inverse_transform
from layerheat.images import CubeGreen
from layerheat.medium import (
    Cube,
    MediumError,
    OnInterface,
    TwoLayerMedium,
    homogeneous_medium,
    validate_tensor,
)
from layerheat.inverse_transform import (
    _CONTOUR_ROWS,
    CONTOUR_M,
    TAIL_SAFETY,
    HalfSums,
    KernelEvaluator,
    QuadratureConfig,
    QuadratureNotConverged,
    _contour_size,
    _hyperbolic_nodes,
    certify_mu,
    delta_recovery,
    mass_integral,
)
from layerheat.reference import (
    gaussian_gradient,
    gaussian_kernel,
    layered_gradient_1d,
    layered_kernel_1d,
)
from layerheat.symbols import (
    SymbolTable,
    classify_region,
    region_phases,
    region_terms,
    theta_squared,
)
from symbol_checks import term_exponents
from test_certificate import BENCH_MEDIA


# Media with tangential coupling (a_t != 0 in both layers, in 3-D on both
# tangential axes), one target and source per region, and the tolerance of
# test_anisotropic_values_pinned.
SHEARED = [
    pytest.param([[1.0, 0.3], [0.3, 1.0]], np.diag([2.0, 3.0]),
                 [[0.3, 0.5], [-0.2, 0.1], [0.4, -0.3], [-0.5, 0.6], [0.1, -0.2], [0.25, -0.6]],
                 [[0.0, 0.2], [0.1, 0.4], [0.0, 0.3], [0.2, -0.4], [-0.1, -0.5], [0.05, -0.1]],
                 1e-11, id="2d"),
    pytest.param([[1.0, 0.3, 0.2], [0.3, 1.5, 0.4], [0.2, 0.4, 2.0]],
                 [[2.0, 0.1, 0.0], [0.1, 3.0, 0.5], [0.0, 0.5, 1.5]],
                 [[0.3, 0.1, 0.5], [-0.2, -0.3, 0.1], [0.4, 0.2, -0.3],
                  [-0.5, 0.0, 0.6], [0.1, -0.2, -0.2], [0.25, 0.3, -0.6]],
                 [[0.0, 0.2, 0.2], [0.1, 0.0, 0.4], [0.0, -0.1, 0.3],
                  [0.2, 0.1, -0.4], [-0.1, 0.1, -0.5], [0.05, -0.2, -0.1]],
                 1e-9, id="3d"),
]


def record_xi_grids(monkeypatch):
    """Record every xi' grid that eval_many builds."""
    grids = []
    xi_grid = inverse_transform._xi_grid

    def recorded(radius, steps):
        grids.append(xi_grid(radius, steps))
        return grids[-1]

    monkeypatch.setattr(inverse_transform, "_xi_grid", recorded)
    return grids


def record_region_terms(monkeypatch):
    """Record, per region, the xi' nodes of every region_terms call of eval_many."""
    blocks = {}
    terms = inverse_transform.region_terms

    def recorded(region, medium, xi, tau, **kwargs):
        blocks.setdefault(region, []).append(xi.real.copy())
        return terms(region, medium, xi, tau, **kwargs)

    monkeypatch.setattr(inverse_transform, "region_terms", recorded)
    return blocks


def contrast_batch(n):
    """Four targets with sources at the origin of x', one per region."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, (4, n))
    x[:, -1] = [0.2, -0.3, 0.5, -0.1]
    y = np.zeros((4, n))
    y[:, -1] = [0.3, 0.3, -0.2, -0.2]
    return x, y


def layered_1d(a=1.0, b=4.0):
    return TwoLayerMedium(upper=validate_tensor([[a]]), lower=validate_tensor([[b]]))


def layered_2d():
    return TwoLayerMedium(upper=validate_tensor(np.eye(2)),
                          lower=validate_tensor(np.diag([2.0, 3.0])))


def layered_2d_anisotropic():
    return TwoLayerMedium(
        upper=validate_tensor([[2.0, 1.0], [1.0, 2.0]]),
        lower=validate_tensor([[3.0, -0.5], [-0.5, 1.5]]),
    )


class TestConfig:
    def test_validation(self):
        for tol in (2.0, 0.0, float("nan")):
            with pytest.raises(ValueError):
                QuadratureConfig(target_rel_tol=tol)

    @pytest.mark.parametrize("nodes", [40.5, 40.0, True, False, 41, 6, "40"])
    def test_contour_nodes_refused(self, nodes):
        # M is derived from the dimension and the tolerance (_contour_size):
        # the config has no field for it, whatever the value.
        with pytest.raises(TypeError, match="contour_nodes"):
            QuadratureConfig(contour_nodes=nodes)

    def test_mu_certification_layered(self):
        # Every mu passes in 1-D, up to the cap 2.4; otherwise the least
        # root over the layers' Schur eigenvalues (1 for I, 2 for I | 2I).
        sheared = TwoLayerMedium(
            upper=validate_tensor([[1.0, 0.3, 0.2], [0.3, 1.5, 0.4], [0.2, 0.4, 2.0]]),
            lower=validate_tensor([[2.0, 0.1, 0.0], [0.1, 3.0, 0.5], [0.0, 0.5, 1.5]]))
        cases = ((layered_1d(), 2.4), (homogeneous_medium(validate_tensor(np.eye(2))), 0.56984),
                 (TwoLayerMedium(upper=validate_tensor(np.eye(2)),
                                 lower=validate_tensor(2.0 * np.eye(2))), 0.41195),
                 (sheared, 0.3160))
        for med, mu in cases:
            assert certify_mu(med) == pytest.approx(mu, abs=5e-5)

    def test_contour_stays_in_domain(self, monkeypatch):
        # The symbols are evaluated at real xi' only, where Theta^2 / a_nn =
        # tau + xi'^T S xi' with xi'^T S xi' >= 0.  At every pair of a
        # contour node and a node of the xi' grid the evaluator builds,
        # Theta^2 of both layers stays off the branch cut (-inf, 0]: its
        # argument is at most pi/2 + alpha, the angle of the contour's
        # asymptote.  The bench media, and the strong contrast I | 1000 I,
        # which no analyticity certificate mu admits.
        media = [med for _, med, _, _ in BENCH_MEDIA]
        media.append(TwoLayerMedium(upper=validate_tensor(np.eye(2)),
                                    lower=validate_tensor(1000.0 * np.eye(2))))
        grids = record_xi_grids(monkeypatch)
        for med in media:
            ev = KernelEvaluator(med)
            m = ev.contour_nodes
            n = med.dim
            x = np.full((4, n), 0.3)
            x[:, -1] = [0.2, -0.3, 0.5, -0.1]
            y = np.zeros((4, n))
            y[:, -1] = [0.3, 0.3, -0.2, -0.2]  # one point per region
            for dt in (0.01, 0.5, 10.0):
                grids.clear()
                ev.eval_many(x, dt, y, 0.0)
                assert len(grids) == 1
                tau, w = _hyperbolic_nodes(ev._row, m, dt)
                assert tau.shape == w.shape == (m + 1,)
                assert np.all(np.isfinite(tau)) and np.all(np.isfinite(w))
                # The half rule stands for the mirrored nodes conj(tau) too,
                # and the half grid for the whole grid.
                tau = np.concatenate([tau, tau.conj()])
                for th2 in theta_squared(med, grids[0].xi.astype(complex), tau):
                    assert th2.shape == (grids[0].xi.shape[0], 2 * m + 2)
                    assert np.all(np.abs(np.angle(th2)) <= 0.5 * np.pi + ev._row[0])

    def test_forced_mu_too_large_rejected(self):
        # mu is certified from the medium; the config cannot force one.
        with pytest.raises(TypeError, match="mu"):
            QuadratureConfig(mu=50.0)


class TestHomogeneousExactness:
    def test_identity_1d(self):
        med = homogeneous_medium(validate_tensor([[1.0]]))
        ev = KernelEvaluator(med)
        xs = np.linspace(-2.0, 2.0, 21)[:, None]
        xs = xs[xs[:, 0] != 0.0][:, None].reshape(-1, 1)
        res = ev.eval_many(xs, 0.7, np.array([0.3]), 0.2)
        exact = gaussian_kernel(med.upper, xs, 0.7, np.array([0.3]), 0.2)
        assert np.max(np.abs(res["gamma"] - exact) / np.abs(exact).max()) < 1e-9

    def test_anisotropic_2d_kernel_and_gradient(self):
        t_mat = validate_tensor([[2.0, 1.0], [1.0, 2.0]])
        med = homogeneous_medium(t_mat)
        ev = KernelEvaluator(med)
        rng = np.random.default_rng(0)
        xs = rng.uniform(-1.5, 1.5, size=(30, 2))
        xs[xs[:, -1] == 0.0, -1] = 0.1
        y = np.array([0.2, 0.4])
        res = ev.eval_many(xs, 0.6, y, 0.1)
        exact = gaussian_kernel(t_mat, xs, 0.6, y, 0.1)
        g_exact = gaussian_gradient(t_mat, xs, 0.6, y, 0.1)
        scale = np.abs(exact).max()
        assert np.max(np.abs(res["gamma"] - exact)) < 1e-8 * scale
        assert np.max(np.abs(res["grad"] - g_exact)) < 1e-7 * scale

    @pytest.mark.parametrize("c", [0.9, 0.99])
    @pytest.mark.parametrize("dt", [0.01, 0.3])
    def test_est_covers_strong_shear(self, c, dt):
        # A large tangential coupling a_t gives large phases phi, which the
        # roundoff floor must count at a node and at its mirror alike: with
        # each |p| as the mean of |r + i phi| over the node and its mirror,
        # the gradient's error reached 1.2 est at c = 0.99, dt = 0.01.
        t_mat = validate_tensor([[1.0, c], [c, 1.0]])
        ev = KernelEvaluator(homogeneous_medium(t_mat), QuadratureConfig(target_rel_tol=1e-10))
        y = np.array([0.1, -0.2])
        x = y + 4.0 * math.sqrt(dt) * np.random.default_rng(5).uniform(-1.0, 1.0, (150, 2))
        res = ev.eval_many(x, dt, y, 0.0)
        assert np.all(np.abs(res["gamma"] - gaussian_kernel(t_mat, x, dt, y, 0.0)) <= res["est"])
        err = np.abs(res["grad"] - gaussian_gradient(t_mat, x, dt, y, 0.0))
        assert np.all(err <= res["est"][:, None])

    def test_3d_smoke(self):
        t_mat = validate_tensor(
            [[1.5, 0.2, 0.0], [0.2, 1.0, -0.1], [0.0, -0.1, 2.0]]
        )
        med = homogeneous_medium(t_mat)
        ev = KernelEvaluator(med, QuadratureConfig(target_rel_tol=1e-6))
        x = np.array([[0.4, -0.3, 0.6]])
        y = np.array([0.0, 0.1, 0.2])
        res = ev.eval_many(x, 0.5, y, 0.0)
        exact = gaussian_kernel(t_mat, x, 0.5, y, 0.0)
        assert abs(res["gamma"][0] - exact) < 1e-6 * exact


class TestLayeredClosedForm:
    @pytest.mark.parametrize("b", [4.0, 10.0])
    def test_kernel_all_regions(self, b):
        med = layered_1d(1.0, b)
        ev = KernelEvaluator(med)
        xs = np.concatenate(
            [np.linspace(-3.0, -0.05, 12), np.linspace(0.05, 3.0, 13)]
        )[:, None]
        for y in (0.6, -0.6):
            res = ev.eval_many(xs, 0.65, np.array([y]), 0.15)
            exact = layered_kernel_1d(1.0, b, xs[:, 0], 0.65, y, 0.15)
            g_exact = layered_gradient_1d(1.0, b, xs[:, 0], 0.65, y, 0.15)
            scale = np.abs(exact).max()
            assert np.max(np.abs(res["gamma"] - exact)) < 1e-9 * scale
            assert np.max(np.abs(res["grad"][:, 0] - g_exact)) < 1e-8 * scale

    def test_continuity_across_interface(self):
        med = layered_1d()
        ev = KernelEvaluator(med)
        res = ev.eval_many(np.array([[1e-12], [-1e-12]]), 0.5, np.array([0.4]), 0.0)
        assert abs(res["gamma"][0] - res["gamma"][1]) < 1e-10 * res["gamma"][0]

    def test_flux_continuity(self):
        # conormal flux a Gamma_x is continuous across the interface
        med = layered_1d()
        ev = KernelEvaluator(med)
        res = ev.eval_many(np.array([[1e-10], [-1e-10]]), 0.5, np.array([0.4]), 0.0)
        flux_up = 1.0 * res["grad"][0, 0]
        flux_lo = 4.0 * res["grad"][1, 0]
        assert abs(flux_up - flux_lo) < 1e-8 * abs(flux_up)


class TestEvaluatorContract:
    def test_on_interface_rejected(self):
        ev = KernelEvaluator(layered_1d())
        with pytest.raises(OnInterface):
            ev.eval_many(np.array([[0.0]]), 0.5, np.array([0.4]), 0.0)
        with pytest.raises(OnInterface):
            ev.eval_many(np.array([[0.5]]), 0.5, np.array([0.0]), 0.0)

    def test_time_order_required(self):
        ev = KernelEvaluator(layered_1d())
        with pytest.raises(MediumError):
            ev.eval_many(np.array([[0.5]]), 0.0, np.array([0.4]), 0.5)

    def test_deterministic(self):
        ev = KernelEvaluator(layered_1d())
        x = np.array([[0.7], [-0.9]])
        a = ev.eval_many(x, 0.5, np.array([0.4]), 0.0)
        b = ev.eval_many(x, 0.5, np.array([0.4]), 0.0)
        assert np.array_equal(a["gamma"], b["gamma"])
        assert np.array_equal(a["grad"], b["grad"])

    def test_error_estimate_honest(self):
        med = layered_1d()
        ev = KernelEvaluator(med)
        xs = np.linspace(-2.0, 2.0, 17)
        xs = xs[xs != 0.0][:, None]
        res = ev.eval_many(xs, 0.5, np.array([0.4]), 0.0)
        exact = layered_kernel_1d(1.0, 4.0, xs[:, 0], 0.5, 0.4, 0.0)
        true_err = np.abs(res["gamma"] - exact)
        # the estimate may be loose but must not underestimate by > 100x
        assert np.all(true_err <= 100.0 * res["est"] + 1e-13)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_normal_coordinate_rejected(self, bad):
        ev = KernelEvaluator(layered_1d())
        with pytest.raises(MediumError):
            ev.eval_many(np.array([[0.5], [bad]]), 0.5, np.array([0.4]), 0.0)
        with pytest.raises(MediumError):
            ev.eval_many(np.array([[0.5]]), 0.5, np.array([bad]), 0.0)

    def test_nonfinite_tangential_coordinate_rejected(self):
        ev = KernelEvaluator(layered_2d())
        y = np.array([0.0, 0.3])
        with pytest.raises(MediumError):
            ev.eval_many(np.array([[np.inf, 0.5]]), 0.5, y, 0.0)

    def test_nonfinite_time_rejected(self):
        ev = KernelEvaluator(layered_1d())
        x, y = np.array([[0.5]]), np.array([0.4])
        for t, s in ((np.inf, 0.0), (np.nan, 0.0), (0.5, -np.inf), (0.5, np.nan)):
            with pytest.raises(MediumError):
                ev.eval_many(x, t, y, s)

    def test_source_shape_checked(self):
        ev = KernelEvaluator(layered_2d())
        x = np.array([[0.1, 0.5], [0.2, -0.4], [-0.3, 0.6]])
        y = np.array([[0.0, 0.3], [0.1, 0.2], [0.2, -0.1]])
        for bad in (np.array([0.3]), y[:2], y[:1], y[:, :1]):
            with pytest.raises(MediumError):
                ev.eval_many(x, 0.3, bad, 0.0)

    def test_estimate_bounds_error_1d(self):
        # Every point of a fixed 1-D layered batch has err <= est.  Before
        # the roundoff floor scaled with the exponents (when est took
        # |Im Gamma|/5 as its floor), 12 of these 400 points had err > est.
        ev = KernelEvaluator(layered_1d(1.0, 4.0))
        xs = np.linspace(-2.5, 2.5, 400)[:, None]
        res = ev.eval_many(xs, 0.1, np.array([0.4]), 0.0)
        exact = layered_kernel_1d(1.0, 4.0, xs[:, 0], 0.1, 0.4, 0.0)
        assert np.sum(np.abs(res["gamma"] - exact) > res["est"]) == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_empty_batch(self, n):
        med = homogeneous_medium(validate_tensor(np.eye(n)))
        res = KernelEvaluator(med).eval_many(
            np.zeros((0, n)), 0.5, np.full(n, 0.3), 0.0, source_gradient=True)
        assert res["gamma"].shape == res["est"].shape == (0,)
        assert res["grad"].shape == res["sgrad"].shape == (0, n)

    def test_empty_batch_plans_nothing(self, monkeypatch):
        # An empty batch returns once x, y, t and s are checked, before the
        # plan: it builds no symbol table, directly or through CubeGreen.
        def refuse(*args, **kwargs):
            raise AssertionError("an empty batch built a symbol table")

        monkeypatch.setattr(inverse_transform, "SymbolTable", refuse)
        for n in (1, 2, 3):
            ev = KernelEvaluator(homogeneous_medium(validate_tensor(np.eye(n))))
            res = ev.eval_many(np.zeros((0, n)), 0.5, np.full(n, 0.3), 0.0, source_gradient=True)
            assert res["gamma"].shape == res["est"].shape == (0,)
            assert res["grad"].shape == res["sgrad"].shape == (0, n)
            assert "sgrad" not in ev.eval_many(np.zeros((0, n)), 0.5, np.full(n, 0.3), 0.0)
            for t, s, y in ((0.5, 0.5, np.full(n, 0.3)), (np.nan, 0.0, np.full(n, 0.3)),
                            (0.5, 0.0, np.full(n + 1, 0.3))):
                with pytest.raises(MediumError):
                    ev.eval_many(np.zeros((0, n)), t, y, s)
        cg = CubeGreen(homogeneous_medium(validate_tensor(np.diag([1.0, 2.0]))),
                       Cube(half_width=1.0, center=np.zeros(2)))
        res = cg.evaluate_many(np.zeros((0, 2)), 0.3, np.array([0.0, 0.3]), 0.0)
        assert res["gamma"].shape == (0,) and res["sgrad"].shape == (0, 2)

    def test_nonnumeric_time_rejected(self):
        ev = KernelEvaluator(layered_1d())
        x, y = np.array([[0.5]]), np.array([0.4])
        for t, s in (("x", 0.0), (0.5, None)):
            with pytest.raises(MediumError):
                ev.eval_many(x, t, y, s)

    @pytest.mark.parametrize("upper,lower", [
        pytest.param([[1.0]], [[4.0]], id="1d"),
        pytest.param([[1.0, 0.3], [0.3, 1.0]], np.diag([2.0, 3.0]), id="2d-sheared"),
        pytest.param(np.eye(3), np.diag([2.0, 2.0, 3.0]), id="3d-folded"),
        pytest.param(SHEARED[1].values[0], SHEARED[1].values[1], id="3d-sheared"),
    ])
    def test_permuted_batch(self, upper, lower):
        # Every point reads its normal pair's sums through one index: a
        # permuted batch gives its permuted outputs, to the byte.  The
        # normal coordinates come from a few values, so pairs repeat.
        med = TwoLayerMedium(upper=validate_tensor(upper), lower=validate_tensor(lower))
        n = med.dim
        rng = np.random.default_rng(6)
        y = rng.uniform(-0.5, 0.5, (40, n))
        x = y + rng.uniform(-0.5, 0.5, (40, n))
        x[:, -1] = rng.choice([0.5, 0.2, -0.3, -0.6], 40)
        y[:, -1] = rng.choice([0.3, 0.2, -0.4], 40)
        ev = KernelEvaluator(med)
        ref = ev.eval_many(x, 0.3, y, 0.0, source_gradient=True)
        perm = rng.permutation(40)
        res = ev.eval_many(x[perm], 0.3, y[perm], 0.0, source_gradient=True)
        for key in ("gamma", "grad", "sgrad", "est"):
            assert res[key].tobytes() == ref[key][perm].tobytes()

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="xi' node counts and convergence follow the "
                       "whole batch, so a value depends on its batch")
    def test_value_independent_of_batch(self):
        ev = KernelEvaluator(layered_2d())
        y = np.array([0.0, 0.3])
        near = np.array([[0.05, 0.35], [-0.05, 0.25], [0.1, 0.2], [-0.1, 0.4]])
        far = near + np.array([3.0, 0.0])
        whole = ev.eval_many(np.vstack([near, far]), 0.3, y, 0.0)["gamma"]
        split = np.concatenate([ev.eval_many(near, 0.3, y, 0.0)["gamma"],
                                ev.eval_many(far, 0.3, y, 0.0)["gamma"]])
        assert np.array_equal(whole, split)

    def test_eval_kernel_wrapper(self):
        med = homogeneous_medium(validate_tensor([[1.0]]))
        res = KernelEvaluator(med).eval_many(np.array([[0.5]]), 0.5, np.array([0.2]), 0.0)
        exact = gaussian_kernel(med.upper, np.array([[0.5]]), 0.5, np.array([0.2]), 0.0)
        assert abs(res["gamma"][0] - exact) < 1e-9 * exact
        assert res["est"][0] >= 0


class TestHalfRule:
    """The half contour rule needs a point-symmetric xi' grid and a real kernel."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_xi_grid_point_symmetric(self, n):
        # The uniform nodes k h_j, their weights and the step-2h subset of
        # even-index nodes are exactly point-symmetric, at the spacing
        # h_j = pi / (osc_j + sqrt(2 s_max dt max(decay, 30))) out to the
        # radius; the subset's weight is 2^d h_1..h_d (over (2 pi)^d).
        lower = np.diag([2.0, 3.0, 1.5][:n])
        med = TwoLayerMedium(upper=validate_tensor(np.eye(n)), lower=validate_tensor(lower))
        ev = KernelEvaluator(med)
        d = n - 1
        s_max = np.max(np.diag(lower)[:d])  # diagonal layers: the Schur complement is the minor
        cases = [(0.01, 0.0), (0.3, 1.5), (2.0, 0.2), (0.1, 100.0)]
        for dt, osc_max in cases:
            osc = np.array([osc_max, min(osc_max, 0.5)])[:d]
            radius = ev._base_radius(dt)
            grid = inverse_transform._xi_grid(radius, ev._xi_spacing(osc, dt))
            h = np.pi / (osc + math.sqrt(2.0 * s_max * dt * max(ev._decay, 30.0)))
            sub = grid.sub
            for xi, wq in ((grid.xi, grid.wq), (grid.xi[sub], 2 ** d * grid.wq[sub])):
                assert np.array_equal(xi[::-1], -xi)
                assert np.array_equal(wq[::-1], wq)
            assert np.allclose(grid.wq * (2.0 * np.pi) ** d, np.prod(h), rtol=1e-14, atol=0.0)
            for j in range(d):
                axis = np.unique(grid.xi[:, j])
                assert np.allclose(np.diff(axis), h[j], rtol=1e-12, atol=0.0)
                assert np.allclose(np.diff(np.unique(grid.xi[sub, j])), 2.0 * h[j],
                                   rtol=1e-12, atol=0.0)
                assert radius <= axis[-1] < radius + h[j]

    @pytest.mark.parametrize("row", _CONTOUR_ROWS)
    def test_contour_inverts_known_transforms(self, row):
        # Each entry of a row's error table is the measured error of the
        # 1/sqrt(tau) inversion at its M (largest over the three lags).  At
        # the M(tol) of tol 1e-8 and 1e-10 the pole 1/(tau + 1) is inverted
        # to within ten times the entry, or 1e-12 where roundoff dominates.
        chosen = {_contour_size(row, tol) for tol in (1e-8, 1e-10)}
        for m, rel_err in zip(CONTOUR_M, row[3]):
            err_sqrt = err_pole = 0.0
            for dt in (0.01, 0.3, 3.0):
                tau, w = _hyperbolic_nodes(row, m, dt)
                we = w * np.exp(tau * dt)
                inv_pole = np.sum(we / (tau + 1.0)).real
                inv_sqrt = np.sum(we / np.sqrt(tau)).real
                err_pole = max(err_pole, abs(inv_pole / np.exp(-dt) - 1.0))
                err_sqrt = max(err_sqrt, abs(inv_sqrt * np.sqrt(np.pi * dt) - 1.0))
            assert err_sqrt <= 2.0 * rel_err
            if m in chosen:
                assert err_pole <= 10.0 * rel_err + 1e-12

    @pytest.mark.parametrize("upper,lower,x,y,rel", SHEARED)
    def test_anisotropic_values_pinned(self, monkeypatch, upper, lower, x, y, rel):
        # eval_many against the full (k = -M..M) contour rule, summed here
        # point by point from region_terms on the whole xi' grid and the
        # contour that eval_many used, one point per region, on media whose
        # tangential coupling (a_t != 0 in both layers, in 3-D on both
        # tangential axes) makes the +-xi' pairing matter.  eval_many
        # itself hands region_terms the canonical half of the grid, in
        # blocks of whole rows (nodes of one xi_0) that end at the centre
        # node; in 3-D there are several.  In 3-D (55 x 55 nodes) both this
        # sum and eval_many differ from one in extended precision by up to
        # 1e-11 of the peak for Gamma and 1e-10 for its gradient, hence the
        # looser bound ``rel`` there.
        med = TwoLayerMedium(upper=validate_tensor(upper), lower=validate_tensor(lower))
        x, y = np.array(x), np.array(y)
        n = med.dim
        d = n - 1
        dt = 0.3
        ev = KernelEvaluator(med)
        grids = record_xi_grids(monkeypatch)
        terms = inverse_transform.region_terms
        blocks = record_region_terms(monkeypatch)
        res = ev.eval_many(x, dt, y, 0.0, source_gradient=True)
        assert len(grids) == 1
        xi, wq = grids[0].xi, grids[0].wq
        half, row = (xi.shape[0] + 1) // 2, math.prod(grids[0].shape[1:])
        assert xi.shape[0] > 1 and len(blocks) == 6
        for nodes in blocks.values():
            starts = np.cumsum([0] + [b.shape[0] for b in nodes])
            assert np.all(starts[:-1] % row == 0) and starts[-1] == half
            assert np.array_equal(np.concatenate(nodes), xi[:half])
            assert (len(nodes) > 1) == (n == 3)
        tau, w = _hyperbolic_nodes(ev._row, ev.contour_nodes, dt)
        # Unfold the half rule: node -k is the conjugate of node k, and the
        # half rule doubled the weights of k > 0.
        tau = np.concatenate([tau[:0:-1].conj(), tau])
        w = np.concatenate([w[:0:-1].conj() / 2, w[:1], w[1:] / 2])
        wte = w * np.exp(tau * dt)
        assert tau.shape == (2 * ev.contour_nodes + 1,)
        full = {key: np.zeros((6, n), dtype=complex) for key in ("grad", "sgrad")}
        full["gamma"] = np.zeros(6, dtype=complex)
        regions = set()
        for k in range(6):
            xn, yn = x[k, -1], y[k, -1]
            region = classify_region(xn, yn)
            regions.add(region)
            s_val = s_n = s_src = 0.0
            for term in terms(region, med, xi.astype(complex), tau):
                p, q = term_exponents(med, region, xi, term)
                v = term.coef * np.exp(p * xn + q * yn) * wte
                s_val = s_val + v.sum(axis=1)
                s_n = s_n + (v * p).sum(axis=1)
                s_src = s_src + (v * q).sum(axis=1)
            pw = wq * np.exp(1j * xi @ (x[k, :d] - y[k, :d]))
            tangential = [pw @ (1j * xi[:, j] * s_val) for j in range(d)]
            full["gamma"][k] = pw @ s_val
            full["grad"][k] = tangential + [pw @ s_n]
            full["sgrad"][k] = [-g for g in tangential] + [pw @ s_src]
        assert len(regions) == 6
        for key, ref in full.items():
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(ref.imag)) < 1e-11 * scale  # the kernel is real
            assert np.max(np.abs(res[key] - ref.real)) < rel * scale
        assert np.all(np.abs(res["gamma"] - full["gamma"].real) <= res["est"])
        assert np.all(np.max(np.abs(res["grad"] - full["grad"].real), axis=1) <= res["est"])


class TestNestedDoublings:
    """Values pinned when the evaluator still extended the xi' grid by doublings."""

    def test_three_doublings_pinned(self, monkeypatch):
        # One point per region plus a far one, at a loose tolerance and a
        # short lag.  The pinned values are those of an evaluator that
        # extended the xi' grid by doublings and confirmed each doubling
        # with another, so ran three fine passes; the one grid of radius R0
        # passes the truncation test here, and each value must lie within
        # est of them.
        med = TwoLayerMedium(upper=validate_tensor([[1.0, 0.3], [0.3, 1.0]]),
                             lower=validate_tensor(np.diag([2.0, 3.0])))
        x = np.array([[0.3, 0.5], [-0.2, 0.1], [0.4, -0.3], [-0.1, 0.2],
                      [0.1, -0.2], [0.2, -0.6], [2.5, 0.31]])
        y = np.array([[0.0, 0.3], [0.0, 0.3], [0.0, 0.3], [0.0, -0.3],
                      [0.1, -0.4], [0.0, -0.3], [0.0, 0.3]])
        pinned = {
            "gamma": [0.9815324977563072, 1.013337100975535, 0.13350802630689912,
                      0.44202974873824086, 0.7198416688299174, 0.5502343078409758,
                      6.743605673875663e-12],
            "grad": [[-2.5821656701101317, -1.1041820272465583],
                     [1.4594980218093874, 2.9440454554146696],
                     [-0.4832034325350109, 0.34089384619151725],
                     [0.5014142768451093, -1.665611687378822],
                     [-5.559503053233217e-13, -0.1521326395931059],
                     [-0.5597487741329198, 0.6435217568667441],
                     [-1.8899015685747145e-10, -1.1085887763329083e-10]],
            "sgrad": [[2.5821656701101317, 1.3280805959385578],
                      [-1.4594980218093874, -1.0862874926106711],
                      [0.4832034325350109, -0.8047932315014162],
                      [-0.5014142768451093, 1.0262331535240783],
                      [5.559503053233217e-13, 0.6583249201352017],
                      [0.5597487741329198, -0.368525708730782],
                      [1.8899015685747145e-10, -2.738431703619426e-11]],
        }
        ev = KernelEvaluator(med, QuadratureConfig(target_rel_tol=1e-5))
        grids = record_xi_grids(monkeypatch)
        res = ev.eval_many(x, 0.05, y, 0.0, source_gradient=True)
        assert len(grids) == 1
        for key, ref in pinned.items():
            err = np.abs(res[key] - np.array(ref))
            assert np.all(err.reshape(len(x), -1).max(axis=1) <= res["est"])


class TestTailBound:
    """The xi' truncation bound replaces a confirming doubling."""

    GAUSSIAN = {2: [[2.0, 1.0], [1.0, 2.0]],
                3: [[1.5, 0.2, 0.0], [0.2, 1.0, -0.1], [0.0, -0.1, 2.0]]}
    CASES = ([(2, tol, dt) for tol in (1e-4, 1e-6, 1e-8, 1e-10) for dt in (0.01, 0.3, 3.0)]
             + [(3, 1e-4, 0.01), (3, 1e-6, 3.0), (3, 1e-8, 0.3), (3, 1e-10, 0.01)])

    @pytest.mark.parametrize("n,tol,dt", CASES)
    def test_est_bounds_gaussian_error(self, n, tol, dt):
        # Anisotropic Gaussians: est bounds the error of Gamma and of every
        # gradient component at every point, including targets within
        # 1e-4 sqrt(dt) of the source plane.
        t_mat = validate_tensor(self.GAUSSIAN[n])
        ev = KernelEvaluator(homogeneous_medium(t_mat), QuadratureConfig(target_rel_tol=tol))
        rng = np.random.default_rng(n)
        y = np.array([0.1, -0.2, 0.3][3 - n:])
        x = y + math.sqrt(dt) * rng.uniform(-2.5, 2.5, (30 if n == 2 else 8, n))
        x[:4, -1] = y[-1] + math.sqrt(dt) * np.array([1e-4, -1e-4, 3e-5, -1e-5])
        res = ev.eval_many(x, dt, y, 0.0)
        err = np.abs(res["gamma"] - gaussian_kernel(t_mat, x, dt, y, 0.0))
        g_err = np.abs(res["grad"] - gaussian_gradient(t_mat, x, dt, y, 0.0))
        assert np.all(err <= res["est"])
        assert np.all(g_err.max(axis=1) <= res["est"])

    @pytest.mark.parametrize("n,tol,dt", [(2, 1e-4, 0.01), (2, 1e-4, 0.3),
                                          (2, 1e-6, 0.3), (3, 1e-4, 0.3)])
    def test_bound_covers_base_truncation(self, monkeypatch, n, tol, dt):
        # At loose tolerances the grid leaves real truncation error.  The
        # references extend the uniform grid at the same spacing out to two
        # and four times the radius.  The first adds the tail (beyond twice
        # the radius the integrand is e^-4 times smaller again) and also
        # contour noise of the tau sums on the new nodes, which the
        # tangential gradient weights by |xi'|; the second adds only such
        # noise, so it measures the noise.  The grid's bound must cover the
        # rest, for Gamma and both gradients, at every point.  (At tol 1e-6
        # and dt = 0.01 the noise, 1e-9 of the peak, exceeds the truncation
        # itself at some points, and changes from one extension to the
        # next, so wider grids are no reference there.)
        bounds, passes = [], []
        tail_bound = inverse_transform._tail_bound
        tau_sums = KernelEvaluator._tau_sums

        def recorded_bound(inv, *args):
            bounds.append((inv, tail_bound(inv, *args)))
            return bounds[-1][1]

        def recorded_sums(self, pairs, codes, half, tau, wte, *args):
            passes.append((pairs, codes, tau, wte))
            return tau_sums(self, pairs, codes, half, tau, wte, *args)

        monkeypatch.setattr(inverse_transform, "_tail_bound", recorded_bound)
        monkeypatch.setattr(KernelEvaluator, "_tau_sums", recorded_sums)
        med = TwoLayerMedium(upper=validate_tensor(np.eye(n)),
                             lower=validate_tensor(np.diag([2.0, 3.0, 1.5][3 - n:])))
        rng = np.random.default_rng(1)
        y = rng.uniform(-0.5, 0.5, (12 if n == 2 else 3, n))
        x = y + math.sqrt(dt) * rng.uniform(-2.5, 2.5, y.shape)
        # The references run on M = 64, the fixed contour size before
        # M(tol): on shorter contours the tau sums' noise on the nodes
        # beyond the radius swamps them (on the Gauss-Legendre grid at tol
        # 1e-6, dt = 0.3 and M = 40, by 39 times the bound; by 0.068 times
        # at M = 64).
        monkeypatch.setattr(inverse_transform, "_contour_size", lambda row, tol: 64)
        ev = KernelEvaluator(med, QuadratureConfig(target_rel_tol=tol))
        assert ev.contour_nodes == 64
        res = ev.eval_many(x, dt, y, 0.0, source_gradient=True)
        assert len(bounds) == 1 and len(passes) == 1
        inv, bound = bounds[0][0], np.maximum(*bounds[0][1])
        pairs, codes, tau, wte = passes[0]
        dxp = x[:, :-1] - y[:, :-1]
        osc = np.max(np.abs(dxp), axis=0)
        radius = ev._base_radius(dt)
        wider = []
        for k in (1, 2):
            grid = inverse_transform._xi_grid(2 ** k * radius, ev._xi_spacing(osc, dt))
            half = ev._half_grid(grid)
            sums = tau_sums(ev, pairs, codes, half, tau, wte, True)
            values = ev._phase_sums(pairs, inv, dxp, grid, half, sums, True)[:3]
            wider.append(np.column_stack(values))
        base = np.column_stack([res["gamma"], res["grad"], res["sgrad"]])
        once, twice = wider
        tail = np.max(np.abs(once - base) - np.abs(twice - once), axis=1)
        assert np.all(tail <= bound)
        assert np.max(tail / bound) > 1e-3  # the bound tracks real truncation

    def test_bound_of_gaussian_profile(self):
        # On a Gaussian profile the bound exceeds the mass beyond the
        # radius, of f and of |xi| f; an imaginary part of the tau half
        # sums, which the mirrored node cancels, leaves it unchanged; and
        # once erfc underflows the bound is 0.
        a, radius = 0.5, 5.0
        grid = inverse_transform._xi_grid(radius, [radius / 24.0])
        half = (grid.wq.size + 1) // 2
        inv = np.zeros(1, dtype=int)

        def bound(h, r=radius):
            # One pair; its value and normal sums are Re h, with no phase.
            re = np.stack([h.real, h.real])[:, None, :]
            sums = HalfSums(re, None, np.zeros((1, 2, 1)), None)
            return np.maximum(*inverse_transform._tail_bound(
                inv, grid.xi[:half], inverse_transform._fold(grid.wq), sums, r, a))[0]

        xi = grid.xi[:, 0]
        f = np.exp(-a * xi ** 2)
        tail = math.sqrt(np.pi / a) * math.erfc(math.sqrt(a) * radius) / (2.0 * np.pi)
        tail_xi = math.exp(-a * radius ** 2) / (2.0 * np.pi * a)
        assert bound(f[:half]) >= 2.0 * max(tail, tail_xi)
        # The half sums s on all nodes, and the full rule's integrand
        # (s + conj s_mirror) / 2 summed over all nodes as the bound defines it.
        s = f + 1.5j / (1.0 + np.abs(xi))
        x = math.sqrt(a) * radius
        ratio = math.erfc(x) / (math.erfc(0.5 * x) - math.erfc(x))
        w_val = (np.abs(xi) >= 0.5 * radius) * grid.wq
        f_full = np.abs(s + s[::-1].conj()) / 2.0
        full = TAIL_SAFETY * ratio * max(f_full @ (np.abs(xi) * w_val), f_full @ w_val)
        assert bound(s[:half]) == bound(f[:half]) == pytest.approx(full, rel=1e-14)
        assert bound(f[:half], r=60.0) == 0.0
        # Two pairs with Re h_n = 0 and the phases phi_p = 0 and 3 xi: the
        # normal gradient's integrand |Re h_n + i phi_p Re h| of the second
        # is three times the tangential one.  Point k reads pair 1 - k.
        re = np.stack([f[:half], np.zeros(half)])[:, None, :].repeat(2, axis=1)
        sums = HalfSums(re, None, np.array([[[0.0], [0.0]], [[3.0], [0.0]]]), None)
        grads = inverse_transform._tail_bound(
            np.array([1, 0]), grid.xi[:half], inverse_transform._fold(grid.wq), sums, radius, a)[1]
        assert grads[0] == pytest.approx(3.0 * grads[1], rel=1e-14)

    def test_default_tolerance_one_fine_pass(self, monkeypatch):
        # A batch shaped like the benchmark's 2-D layered ones: the grid
        # passes the bound, and eval_many builds that one grid.
        med = TwoLayerMedium(upper=validate_tensor([[1.0, 0.3], [0.3, 1.0]]),
                             lower=validate_tensor(np.diag([2.0, 3.0])))
        ev = KernelEvaluator(med)
        grids = record_xi_grids(monkeypatch)
        rng = np.random.default_rng(5)
        for dt in (0.3, 0.1):
            y = rng.uniform(-1.0, 1.0, (100, 2))
            x = y + 4.0 * math.sqrt(dt) * rng.uniform(-1.0, 1.0, (100, 2))
            x[0, 0] = y[0, 0] + 4.0 * math.sqrt(dt)
            grids.clear()
            ev.eval_many(x, dt, y, 0.0)
            assert len(grids) == 1


class TestContourSize:
    """M(tol): each row's error table sizes the contour from the tolerance."""

    TOLS = (1e-4, 1e-6, 1e-8, 1e-10)
    # Row -> M at each of TOLS.  Down to tol 1e-9 the target is the floor
    # 1e-13.
    EXPECTED = {0: (48, 48, 48, 48), 1: (32, 32, 32, 48)}

    def test_size_per_row(self):
        for i, row in enumerate(_CONTOUR_ROWS):
            assert tuple(_contour_size(row, tol) for tol in self.TOLS) == self.EXPECTED[i]

    def test_row_and_size_chosen_together(self):
        # 1-D takes row 0 and 2-D and 3-D row 1, each at its M(tol),
        # whatever the medium: 9 I and I | 1000 I, which no analyticity
        # certificate mu admits, get the same plan as I.
        def medium(upper, b=1.0):
            return TwoLayerMedium(upper=validate_tensor(upper),
                                  lower=validate_tensor(b * np.asarray(upper, dtype=float)))

        media = (layered_1d(), layered_1d(1.0, 1000.0), medium([[9.0]]),
                 medium(np.eye(2)), medium(9.0 * np.eye(2)), medium(np.eye(2), 1000.0),
                 layered_2d_anisotropic(), medium(np.eye(3)), medium(np.eye(3), 1000.0))
        for med in media:
            i = 0 if med.dim == 1 else 1
            for tol, m in zip(self.TOLS, self.EXPECTED[i]):
                ev = KernelEvaluator(med, QuadratureConfig(target_rel_tol=tol))
                assert ev._row is _CONTOUR_ROWS[i] and ev.contour_nodes == m

    def test_evaluator_reports_its_size(self):
        med = layered_2d()
        for tol, m in zip(self.TOLS, self.EXPECTED[1]):
            ev = KernelEvaluator(med, QuadratureConfig(target_rel_tol=tol))
            assert ev._row is _CONTOUR_ROWS[1] and ev.contour_nodes == m
            assert _hyperbolic_nodes(ev._row, m, 0.3)[0].shape == (m + 1,)


class TestEvenNodeEstimate:
    """est: the rule against its step-2h subset of even-index contour and xi' nodes."""

    def test_no_looser_in_1d(self):
        # The 1-D layered closed form.  With M = 64 and a coarse pass on
        # 0.7 M nodes the median est/err was 510, 71 and 44 at these lags,
        # and the largest est 4.4e-10, 6.1e-11 and 2.7e-11 of the peak.
        # Now est mostly sits on the roundoff floor while the error fell
        # tenfold, so the ratio stays in that range and est itself falls.
        ev = KernelEvaluator(layered_1d(1.0, 4.0))
        xs = np.linspace(-2.5, 2.5, 400)[:, None]
        for dt, largest in ((0.01, 4.4e-10), (0.1, 6.1e-11), (0.3, 2.7e-11)):
            res = ev.eval_many(xs, dt, np.array([0.4]), 0.0)
            exact = layered_kernel_1d(1.0, 4.0, xs[:, 0], dt, 0.4, 0.0)
            err = np.abs(res["gamma"] - exact)
            assert np.all(err <= res["est"])
            with np.errstate(divide="ignore"):
                assert np.median(res["est"] / err) <= 510.0
            assert np.max(res["est"]) <= largest * np.max(exact)

    @pytest.mark.parametrize("dt", [0.01, 0.1, 0.3])
    def test_xi_resolution_check(self, dt):
        # In 2-D at a loose tolerance the xi' grid's error, about 1e-11 of
        # the peak, exceeds the contour difference in the Gaussian tail;
        # est from the contour rule alone (the even contour nodes on every
        # xi' node), or from the tail bound and the roundoff floor, missed
        # it at 3-26 of these points with the Gauss-Legendre xi' grid.
        t_mat = validate_tensor([[1.5, 0.5], [0.5, 1.0]])
        ev = KernelEvaluator(homogeneous_medium(t_mat), QuadratureConfig(target_rel_tol=1e-6))
        rng = np.random.default_rng(0)
        y = np.array([0.1, 0.2])
        x = y + 3.0 * math.sqrt(dt) * rng.uniform(-1.0, 1.0, (100, 2))
        res = ev.eval_many(x, dt, y, 0.0)
        err = np.abs(res["gamma"] - gaussian_kernel(t_mat, x, dt, y, 0.0))
        assert np.all(err <= res["est"])

    @pytest.mark.parametrize("mu,row", [(0.28, 3), (0.12, 4)])
    @pytest.mark.parametrize("dt", [0.01, 0.3, 3.0])
    def test_bounds_gaussian_error_on_wide_rows(self, mu, row, dt):
        # The scaled copies of [[2, 1], [1, 2]] whose certified mu is
        # ``mu`` (its Schur eigenvalue l = 1.5 c is the larger root of
        # (l - mu)(1 - l mu) = mu^3 l^2, see certify_mu).  While the
        # contour followed mu they took the wide rows ``row``, since
        # deleted, whose tables never reached the 1e-13 target: errors up
        # to 1.3e-8 of the peak.  Now they take row 1 like every 2-D medium.
        lam = 0.5 * (1.0 / mu + math.sqrt(1.0 / mu**2 - 4.0 / (1.0 + mu**2)))
        t_mat = validate_tensor(lam / 1.5 * np.array([[2.0, 1.0], [1.0, 2.0]]))
        med = homogeneous_medium(t_mat)
        assert certify_mu(med) == pytest.approx(mu, rel=1e-5)
        ev = KernelEvaluator(med)
        assert ev._row is _CONTOUR_ROWS[1]
        rng = np.random.default_rng(row + 1)  # the row's index before row 3 was deleted
        y = np.array([0.1, -0.2])
        x = y + math.sqrt(dt) * rng.uniform(-2.5, 2.5, (30, 2))
        res = ev.eval_many(x, dt, y, 0.0)
        exact = gaussian_kernel(t_mat, x, dt, y, 0.0)
        err = np.abs(res["gamma"] - exact)
        g_err = np.abs(res["grad"] - gaussian_gradient(t_mat, x, dt, y, 0.0))
        assert np.max(err) <= 1e-12 * np.max(exact)
        assert np.all(err <= res["est"])
        assert np.all(g_err.max(axis=1) <= res["est"])

    @pytest.mark.parametrize("dt", [0.01, 0.3])
    def test_strong_medium_on_row_1(self, dt):
        # 9 I took the widest row while the contour followed mu: it erred
        # by 7.8e-9 and 1.5e-7 of the peak at these lags, with est up to 64
        # times the peak.
        t_mat = validate_tensor(9.0 * np.eye(2))
        ev = KernelEvaluator(homogeneous_medium(t_mat))
        assert ev._row is _CONTOUR_ROWS[1] and ev.contour_nodes == 32
        rng = np.random.default_rng(9)
        y = np.array([0.1, -0.2])
        x = y + 3.0 * math.sqrt(dt) * rng.uniform(-2.5, 2.5, (30, 2))
        res = ev.eval_many(x, dt, y, 0.0)
        exact = gaussian_kernel(t_mat, x, dt, y, 0.0)
        peak = float(np.max(gaussian_kernel(t_mat, y[None, :], dt, y, 0.0)))
        err = np.abs(res["gamma"] - exact)
        assert np.max(err) <= 1e-12 * peak
        assert np.all(err <= res["est"])
        assert np.max(res["est"]) <= 1e-4 * peak


class TestBoundedPlan:
    """Every call builds one fine xi' grid, or refuses with a typed error."""

    def test_failed_bound_raises(self, monkeypatch):
        def failing(inv, *args):
            return np.full(inv.size, np.inf), np.full(inv.size, np.inf)

        monkeypatch.setattr(inverse_transform, "_tail_bound", failing)
        ev = KernelEvaluator(layered_2d())
        with pytest.raises(QuadratureNotConverged):
            ev.eval_many(np.array([[0.3, 0.5]]), 0.3, np.array([0.0, 0.2]), 0.0)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("b", [1.0, 3.0, 10.0, 100.0, 1000.0])
    def test_contrast_sweep(self, monkeypatch, n, b):
        # I | b I: every contrast takes the contour of its dimension, and
        # each call runs one xi' grid with finite, positive values.  In 3-D
        # at b = 1000 only the plan is checked: the grid grows like b, and
        # its one call at t - s = 0.01 takes 4-6 s (389,827 half nodes,
        # 195,355 orbits of the two reflections).
        med = TwoLayerMedium(upper=validate_tensor(np.eye(n)),
                             lower=validate_tensor(b * np.eye(n)))
        ev = KernelEvaluator(med)
        assert ev._row is _CONTOUR_ROWS[1] and ev.contour_nodes == 32
        if n == 3 and b >= 1000.0:
            return
        grids = record_xi_grids(monkeypatch)
        x, y = contrast_batch(n)
        for dt in (0.01, 0.3)[:4 - n]:
            grids.clear()
            res = ev.eval_many(x, dt, y, 0.0, source_gradient=True)
            assert len(grids) == 1
            assert np.all(np.isfinite(res["gamma"])) and np.all(res["gamma"] > 0.0)

    @pytest.mark.parametrize("b,n,k", [
        (4.0, 2, 24), pytest.param(4.0, 3, 6, marks=pytest.mark.slow),
        (8.0, 2, 24), pytest.param(8.0, 3, 6, marks=pytest.mark.slow),
        (100.0, 2, 24), (1000.0, 2, 24),
    ])
    def test_contrast_resolved(self, monkeypatch, b, n, k):
        # The xi' spacing follows the widest layer.  A Gauss-Legendre grid
        # of 46 nodes per axis, sized without regard to the contrast, missed
        # these batches by 8e-7 (3-D, b = 4) to 9e-4 (2-D, b = 8) of the
        # peak.  The reference is summed here on a grid of half the spacing
        # and twice the radius, a chunk of nodes at a time, and on its own
        # contour: row 0 at M = 64.  Measured in 2-D: at most 1.4e-12 of
        # the peak, for every b.
        med = TwoLayerMedium(upper=validate_tensor(np.eye(n)),
                             lower=validate_tensor(b * np.eye(n)))
        ev = KernelEvaluator(med, QuadratureConfig(target_rel_tol=1e-8))
        grids = record_xi_grids(monkeypatch)
        rng = np.random.default_rng(n)
        y = rng.uniform(-0.5, 0.5, (k, n))
        x = rng.uniform(-1.5, 1.5, (k, n))
        dt = 0.3
        gamma = ev.eval_many(x, dt, y, 0.0)["gamma"]
        assert len(grids) == 1
        h = [float(np.diff(np.unique(grids[0].xi[:, j]))[0]) for j in range(n - 1)]
        fine = inverse_transform._xi_grid(2.0 * ev._base_radius(dt), [hj / 2.0 for hj in h])
        tau, w = _hyperbolic_nodes(_CONTOUR_ROWS[0], 64, dt)
        wte = w * np.exp(tau * dt)
        ref = np.zeros(k)
        for lo in range(0, fine.wq.size, 4096):
            xi, wq = fine.xi[lo:lo + 4096], fine.wq[lo:lo + 4096]
            xi_c = xi.astype(complex)
            table = SymbolTable(med, xi_c, tau)
            for i in range(k):
                region = classify_region(x[i, -1], y[i, -1])
                s_val = 0.0
                for t in region_terms(region, med, xi_c, tau, table=table):
                    p, q = term_exponents(med, region, xi, t)
                    s_val = s_val + t.coef * np.exp(p * x[i, -1] + q * y[i, -1])
                ref[i] += (wq * np.exp(1j * xi @ (x[i, :-1] - y[i, :-1])) @ (s_val @ wte)).real
        assert np.max(np.abs(gamma - ref)) <= 1e-10 * np.max(np.abs(ref))


class TestStreaming:
    """The tau contraction streams the xi' grid in blocks of whole rows."""

    @pytest.mark.parametrize("upper,lower,x,y,rel", SHEARED)
    def test_values_independent_of_blocks(self, monkeypatch, upper, lower, x, y, rel):
        # A value must not depend on how the grid is partitioned.  With a
        # budget of one element each block is one row (one node in 2-D),
        # each chunk of exponentials one pair and each phase chunk one
        # point.  Only the order of the floor's node sums changes, and with
        # it est, by rounding.
        med = TwoLayerMedium(upper=validate_tensor(upper), lower=validate_tensor(lower))
        x, y = np.array(x), np.array(y)
        ev = KernelEvaluator(med)
        sums = []
        tau_sums = KernelEvaluator._tau_sums

        def recorded(self, *args):
            sums.append(tau_sums(self, *args))
            return sums[-1]

        monkeypatch.setattr(KernelEvaluator, "_tau_sums", recorded)
        ref = ev.eval_many(x, 0.3, y, 0.0, source_gradient=True)
        grids = record_xi_grids(monkeypatch)
        blocks = record_region_terms(monkeypatch)
        monkeypatch.setattr(inverse_transform, "BLOCK_ELEMENTS", 1)
        res = ev.eval_many(x, 0.3, y, 0.0, source_gradient=True)
        # The canonical half ends at the centre node, in the middle row.
        rows = grids[0].shape[0] // 2 + 1
        assert len(blocks) == 6 and all(len(nodes) == rows for nodes in blocks.values())
        for key in ("gamma", "grad", "sgrad"):
            assert res[key].tobytes() == ref[key].tobytes()
        assert np.all(np.abs(res["est"] - ref["est"]) <= 1e-15 * ref["est"])
        # The floor's node sums, the Gamma row's with |xi'|_inf last.
        xi_max = np.max(np.abs(grids[0].xi))
        one, many = sums
        assert np.allclose(many.floor, one.floor, rtol=1e-14, atol=0.0)
        assert np.all(many.floor[-1] > 0.0) and np.all(many.floor[-1] <= xi_max * many.floor[0])

    @pytest.mark.parametrize("b,limit", [
        (30.0, 32e6), pytest.param(100.0, 64e6, marks=pytest.mark.slow),
    ])
    def test_strong_contrast_memory(self, b, limit):
        # The 4-point 3-D call of test_contrast_sweep at t - s = 0.01.  With
        # the tables built over the whole grid it peaked at 202 MB for
        # b = 30 and near 0.9 GB (RSS) for b = 100; streamed, at 8.6 MB and
        # 15.8 MB; streamed over the orbits of the two reflections, at
        # 8.6 MB and 13.7 MB.
        med = TwoLayerMedium(upper=validate_tensor(np.eye(3)),
                             lower=validate_tensor(b * np.eye(3)))
        ev = KernelEvaluator(med)
        x, y = contrast_batch(3)
        ev.eval_many(x, 0.01, y, 0.0, source_gradient=True)  # one-time allocations
        tracemalloc.start()
        try:
            ev.eval_many(x, 0.01, y, 0.0, source_gradient=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit


# 3-D media whose symbols are even in at least one tangential axis: the
# benchmark's 3-D scatter medium (both axes, equal diagonals), unequal
# diagonals, and a normal coupling a_t on one tangential axis only: on axis
# 0, where axis 1 reflects directly, and on axis 1, where the reflection of
# axis 0 reaches the canonical half through the mirror.
FOLDED = [
    pytest.param(np.eye(3), np.diag([2.0, 2.0, 3.0]), id="scatter"),
    pytest.param(np.diag([1.0, 2.0, 3.0]), np.diag([2.0, 1.0, 4.0]), id="diagonal"),
    pytest.param([[1.0, 0.0, 0.3], [0.0, 1.5, 0.0], [0.3, 0.0, 2.0]],
                 [[2.0, 0.0, 0.1], [0.0, 1.0, 0.0], [0.1, 0.0, 3.0]], id="a_t=(0.3,0)"),
    pytest.param([[1.0, 0.0, 0.0], [0.0, 1.5, 0.3], [0.0, 0.3, 2.0]],
                 [[2.0, 0.0, 0.0], [0.0, 1.0, 0.2], [0.0, 0.2, 3.0]], id="a_t=(0,0.3)"),
]
SCATTER_REACH = 2.0 * math.sqrt(0.3)


def scatter_batch(reach):
    """Eight 3-D targets with their sources, every region among them, whose
    largest tangential offset on axis j is exactly reach[j] (the sources of
    those targets sit at x_j = 0), as in the benchmark's 3-D scatter batch."""
    rng = np.random.default_rng(4)
    y = rng.uniform(-1.0, 1.0, (8, 3))
    x = y.copy()
    x[:, :2] += rng.uniform(-0.5, 0.5, (8, 2)) * np.array(reach)
    for j, r in enumerate(reach):
        y[2 * j:2 * j + 2, j] = 0.0
        x[2 * j:2 * j + 2, j] = (r, -r)
    x[:, 2] = [0.5, 0.2, -0.3, 0.4, -0.2, -0.6, 0.3, -0.4]
    y[:, 2] = [0.2, 0.5, 0.3, -0.2, -0.5, -0.3, 0.1, -0.1]
    return x, y


def whole_grid_values(med, ev, grid, x, y, dt):
    """Gamma, grad and sgrad of the full (k = -M..M) contour rule on the
    whole xi' grid, summed point by point from region_terms."""
    n = med.dim
    d = n - 1
    xi, wq = grid.xi, grid.wq
    tau, w = _hyperbolic_nodes(ev._row, ev.contour_nodes, dt)
    tau = np.concatenate([tau[:0:-1].conj(), tau])
    w = np.concatenate([w[:0:-1].conj() / 2, w[:1], w[1:] / 2])
    wte = w * np.exp(tau * dt)
    table = SymbolTable(med, xi.astype(complex), tau)
    out = {"gamma": np.zeros(len(x)), "grad": np.zeros((len(x), n)),
           "sgrad": np.zeros((len(x), n))}
    for k, (xk, yk) in enumerate(zip(x, y)):
        s_val = s_n = s_src = 0.0
        region = classify_region(xk[-1], yk[-1])
        for term in region_terms(region, med, table.xi, tau, table=table):
            p, q = term_exponents(med, region, xi, term)
            v = term.coef * np.exp(p * xk[-1] + q * yk[-1]) * wte
            s_val = s_val + v.sum(axis=1)
            s_n = s_n + (v * p).sum(axis=1)
            s_src = s_src + (v * q).sum(axis=1)
        pw = wq * np.exp(1j * xi @ (xk[:d] - yk[:d]))
        tangential = [(pw @ (1j * xi[:, j] * s_val)).real for j in range(d)]
        out["gamma"][k] = (pw @ s_val).real
        out["grad"][k] = tangential + [(pw @ s_n).real]
        out["sgrad"][k] = [-g for g in tangential] + [(pw @ s_src).real]
    return out


class TestSymmetryFold:
    """The tau sums run once per symmetry orbit of the canonical half."""

    @pytest.mark.parametrize("upper,lower", FOLDED)
    @pytest.mark.parametrize("equal", [True, False], ids=["equal_reach", "unequal_reach"])
    def test_orbit_symbols_identical(self, upper, lower, equal):
        # Every half node's symbol arrays are those of its column's node,
        # byte for byte.
        med = TwoLayerMedium(upper=validate_tensor(upper), lower=validate_tensor(lower))
        ev = KernelEvaluator(med)
        dt = 0.3
        osc = np.array([SCATTER_REACH, SCATTER_REACH if equal else 0.5])
        grid = inverse_transform._xi_grid(ev._base_radius(dt), ev._xi_spacing(osc, dt))
        half = ev._half_grid(grid)
        h_cnt = (grid.wq.size + 1) // 2
        assert half.of is not None and half.of.size == h_cnt
        tau, _ = _hyperbolic_nodes(ev._row, ev.contour_nodes, dt)
        nodes = SymbolTable(med, grid.xi[:h_cnt].astype(complex), tau)
        cols = SymbolTable(med, half.xi.astype(complex), tau)
        for name in ("theta_a", "theta_b", "root_a", "root_b", "direct_a", "direct_b",
                     "reflect_a", "reflect_b", "transmit"):
            assert getattr(cols, name)[half.of].tobytes() == getattr(nodes, name).tobytes()
        # The step-2h nodes' columns are step-2h nodes, and the weights of
        # each orbit add up.
        sub_half = grid.sub[:(grid.sub.size + 1) // 2]
        assert np.array_equal(half.sub[half.sub_of], half.of[sub_half])
        assert half.w.sum() == pytest.approx(inverse_transform._fold(grid.wq).sum(), rel=1e-14)

    @pytest.mark.parametrize("upper,lower", FOLDED)
    @pytest.mark.parametrize("equal", [True, False], ids=["equal_reach", "unequal_reach"])
    def test_region_terms_see_one_node_per_orbit(self, monkeypatch, upper, lower, equal):
        # The benchmark's batch (equal reach on a medium with equal
        # diagonals) reaches region_terms with 300 of its 1,105 half nodes;
        # without the exchange, with (k_0 + 1)(k_1 + 1), k_j the largest
        # index on axis j.
        med = TwoLayerMedium(upper=validate_tensor(upper), lower=validate_tensor(lower))
        ev = KernelEvaluator(med)
        grids = record_xi_grids(monkeypatch)
        blocks = record_region_terms(monkeypatch)
        x, y = scatter_batch((SCATTER_REACH, SCATTER_REACH if equal else 0.5))
        ev.eval_many(x, 0.3, y, 0.0)
        k0, k1 = (np.array(grids[0].shape) - 1) // 2
        # The axes exchange when both layers are diagonal with equal
        # tangential entries, and the spacings are equal.
        exchange = equal and all(np.array_equal(t, np.diag(np.diag(t))) and t[0, 0] == t[1, 1]
                                 for t in map(np.asarray, (upper, lower)))
        count = (k0 + 1) * (k0 + 2) // 2 if exchange else (k0 + 1) * (k1 + 1)
        assert len(blocks) == 6
        for nodes in blocks.values():
            assert sum(b.shape[0] for b in nodes) == count
        if exchange and np.array_equal(upper, np.eye(3)):
            assert grids[0].shape == (47, 47) and count == 300

    @pytest.mark.parametrize("upper,lower,x,y,rel", SHEARED + [
        pytest.param(np.eye(2), np.diag([2.0, 3.0]), [[0.3, 0.5], [0.4, -0.3]],
                     [[0.0, 0.2], [0.1, 0.3]], None, id="2d-diagonal")])
    def test_no_fold_without_symmetry(self, monkeypatch, upper, lower, x, y, rel):
        # In 2-D and on sheared 3-D media every half node is its own column.
        med = TwoLayerMedium(upper=validate_tensor(upper), lower=validate_tensor(lower))
        ev = KernelEvaluator(med)
        grids = record_xi_grids(monkeypatch)
        blocks = record_region_terms(monkeypatch)
        ev.eval_many(np.array(x), 0.3, np.array(y), 0.0)
        half = ev._half_grid(grids[0])
        assert half.of is None and half.sub_of is None
        for nodes in blocks.values():
            assert sum(b.shape[0] for b in nodes) == (grids[0].wq.size + 1) // 2

    @pytest.mark.parametrize("upper,lower", FOLDED)
    def test_values_match_whole_grid(self, monkeypatch, upper, lower):
        # Gamma and both gradients of a folded batch against the full
        # contour rule summed on the whole xi' grid (as in
        # test_anisotropic_values_pinned).
        med = TwoLayerMedium(upper=validate_tensor(upper), lower=validate_tensor(lower))
        ev = KernelEvaluator(med)
        grids = record_xi_grids(monkeypatch)
        x, y = scatter_batch((SCATTER_REACH, SCATTER_REACH))
        res = ev.eval_many(x, 0.3, y, 0.0, source_gradient=True)
        ref = whole_grid_values(med, ev, grids[0], x, y, 0.3)
        for key in ("gamma", "grad", "sgrad"):
            scale = np.max(np.abs(ref[key]))
            assert np.max(np.abs(res[key] - ref[key])) < 1e-10 * scale
        assert np.all(np.abs(res["gamma"] - ref["gamma"]) <= res["est"])
        assert np.all(np.max(np.abs(res["grad"] - ref["grad"]), axis=1) <= res["est"])

    @pytest.mark.parametrize("upper,lower", FOLDED)
    def test_fold_matches_unfolded(self, monkeypatch, upper, lower):
        # The same batch with every half node its own column: the sums of
        # each node are its column's to the byte, and so are Gamma and its
        # gradients; the floor's node sums and the tail bound, which take
        # each orbit's summed weights, agree to rounding.
        med = TwoLayerMedium(upper=validate_tensor(upper), lower=validate_tensor(lower))
        folded, plain = KernelEvaluator(med), KernelEvaluator(med)
        plain._mirrors = []
        x, y = scatter_batch((SCATTER_REACH, SCATTER_REACH))
        runs = []
        tau_sums, tail_bound = KernelEvaluator._tau_sums, inverse_transform._tail_bound

        def recorded_sums(self, *args):
            runs[-1]["sums"] = tau_sums(self, *args)
            runs[-1]["half"] = args[2]
            return runs[-1]["sums"]

        def recorded_bound(*args):
            runs[-1]["tail"] = tail_bound(*args)
            return runs[-1]["tail"]

        monkeypatch.setattr(KernelEvaluator, "_tau_sums", recorded_sums)
        monkeypatch.setattr(inverse_transform, "_tail_bound", recorded_bound)
        for ev in (folded, plain):
            runs.append({})
            runs[-1]["res"] = ev.eval_many(x, 0.3, y, 0.0, source_gradient=True)
        fold, ref = runs
        half = fold["half"]
        assert ref["half"].of is None and half.w.size < ref["half"].w.size
        one, many = fold["sums"], ref["sums"]
        assert one.re[:, :, half.of].tobytes() == many.re.tobytes()
        assert one.re_sub[:, :, half.sub_of].tobytes() == many.re_sub.tobytes()
        assert np.allclose(one.floor, many.floor, rtol=1e-14, atol=0.0)
        for one, many in zip(fold["tail"], ref["tail"]):
            assert np.allclose(one, many, rtol=1e-14, atol=0.0)
        for key in ("gamma", "grad", "sgrad"):
            assert fold["res"][key].tobytes() == ref["res"][key].tobytes()
        assert np.allclose(fold["res"]["est"], ref["res"]["est"], rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("upper,lower", FOLDED)
    def test_values_independent_of_blocks(self, monkeypatch, upper, lower):
        # With a budget of one element each block is one row of columns and
        # each phase chunk one point: Gamma, its gradients and est are
        # unchanged to the byte.  The step-2h sums of a point run in the
        # same order whether it is alone in its chunk or not, and the
        # floor's node sums, regrouped by the blocks, do not set est here.
        med = TwoLayerMedium(upper=validate_tensor(upper), lower=validate_tensor(lower))
        ev = KernelEvaluator(med)
        x, y = scatter_batch((SCATTER_REACH, SCATTER_REACH))
        ref = ev.eval_many(x, 0.3, y, 0.0, source_gradient=True)
        blocks = record_region_terms(monkeypatch)
        monkeypatch.setattr(inverse_transform, "BLOCK_ELEMENTS", 1)
        res = ev.eval_many(x, 0.3, y, 0.0, source_gradient=True)
        for nodes in blocks.values():
            assert len(nodes) > 1 and all(len(np.unique(b[:, 0])) == 1 for b in nodes)
        for key in ("gamma", "grad", "sgrad", "est"):
            assert res[key].tobytes() == ref[key].tobytes()


class TestPhaseVectors:
    """Each region group's phases are the linear forms c_p.xi' and c_q.xi'."""

    @pytest.mark.parametrize("upper,lower", [
        pytest.param([[1.0]], [[4.0]], id="1d"),
        pytest.param(np.eye(2), np.diag([2.0, 3.0]), id="2d-diagonal"),
    ] + [p for p in FOLDED if not p.id.startswith("a_t")])
    def test_zero_without_coupling(self, upper, lower):
        # a_t = 0 in both layers: every phase is exactly 0, so psi is
        # (x' - y').xi' to the bit.
        med = TwoLayerMedium(upper=validate_tensor(upper), lower=validate_tensor(lower))
        c = region_phases(med)
        assert c.shape == (6, 2, med.dim - 1) and not np.any(c)


def phase_runs(monkeypatch, run):
    """run() with the phase layer as it is and with each point contracted
    alone, one shift against all the call's normal pairs (the per-point
    route when there are two or more), on the same tau sums; and the
    arguments of the first _phase_sums call."""
    phase_sums = KernelEvaluator._phase_sums
    calls = []

    def recorded(self, *args):
        calls.append(args)
        return phase_sums(self, *args)

    def point_by_point(self, pairs, inv, dxp, *args):
        outs = [phase_sums(self, pairs, inv[k:k + 1], dxp[k:k + 1], *args)
                for k in range(inv.size)]
        return tuple(None if o[0] is None else np.concatenate(o) for o in zip(*outs))

    monkeypatch.setattr(KernelEvaluator, "_phase_sums", recorded)
    table = run()
    monkeypatch.setattr(KernelEvaluator, "_phase_sums", point_by_point)
    alone = run()
    monkeypatch.setattr(KernelEvaluator, "_phase_sums", phase_sums)
    return table, alone, calls[0]


def table_shape(pairs, inv, dxp, grid, half, sums, *rest):
    """(S, P, K): distinct shifts, normal pairs and points of a phase call."""
    shift = dxp + np.einsum("ki,kij->kj", pairs, sums.phi)[inv]
    return np.unique(shift, axis=0).shape[0], pairs.shape[0], inv.size


def node_by_node(ev, pairs, inv, dxp, grid, half, sums, source_gradient):
    """Gamma, grad, the source derivative in y_n and the step-2h change,
    summed over every half node from its column's tau sums (_phase_sums)."""
    n = ev.medium.dim
    d = n - 1
    h_cnt = (grid.wq.size + 1) // 2
    xi, w = grid.xi[:h_cnt], inverse_transform._fold(grid.wq)
    of = np.arange(h_cnt) if half.of is None else half.of
    sub = grid.sub[:(grid.sub.size + 1) // 2]
    c = sums.phi[inv]
    psi = (dxp + np.einsum("ki,kij->kj", pairs[inv], c)) @ xi.T

    def rule(nodes, re, cols, weights):
        re = re[:, inv][:, :, cols] * weights
        cos, sin = np.cos(psi[:, nodes]), np.sin(psi[:, nodes])
        tangential = -(sin * re[0]) @ xi[nodes]
        out = [np.sum(cos * re[0], axis=1), *tangential.T]
        out += [np.sum(cos * r, axis=1) + np.sum(c[:, i] * tangential, axis=1)
                for i, r in enumerate(re[1:])]
        return np.array(out)

    fine = rule(np.arange(h_cnt), sums.re, of, w)
    coarse = rule(sub, sums.re_sub, np.searchsorted(half.sub, of[sub]), 2.0 ** d * w[sub])
    return fine, np.max(np.abs(fine[:n + 1] - coarse), axis=0)


def dense_batch(n):
    """A target grid and two sources whose shifts repeat: in 2-D on the
    sheared medium below, targets in the lower layer (c_p = 0) and sources
    in the upper one (c_q = 0.3) at one y_n, one grid step apart in y_0;
    in 3-D two sources at one y' in both layers."""
    if n == 2:
        x = np.array([[u, xn] for u in 0.25 * np.arange(-4, 4) for xn in (-0.2, -0.45, -0.7, -0.95)])
        ys = [(0.125, 0.3), (0.375, 0.3)]
    else:
        x = np.array([[u, v, xn] for u in (-0.25, 0.0, 0.25) for v in (-0.25, 0.0, 0.25)
                      for xn in (0.3, -0.4)])
        ys = [(0.125, 0.125, 0.2), (0.125, 0.125, -0.3)]
    y = np.repeat(np.array(ys), x.shape[0], axis=0)
    return np.tile(x, (2, 1)), y


DENSE = [
    pytest.param([[1.0, 0.3], [0.3, 1.0]], np.diag([2.0, 3.0]), id="2d-sheared"),
    pytest.param(np.eye(3), np.diag([2.0, 2.0, 3.0]), id="3d-folded"),
]


class TestPhaseTable:
    """The phase layer contracts a (distinct shift x normal pair) table when
    it has no more entries than the batch has points."""

    @pytest.mark.parametrize("upper,lower", DENSE)
    def test_routes_identical(self, monkeypatch, upper, lower):
        # A point's bytes do not depend on the route its batch took, nor on
        # the tiles of shifts (one shift per tile at a budget of 1).
        med = TwoLayerMedium(upper=validate_tensor(upper), lower=validate_tensor(lower))
        ev = KernelEvaluator(med)
        x, y = dense_batch(med.dim)
        table, alone, args = phase_runs(
            monkeypatch, lambda: ev.eval_many(x, 0.3, y, 0.0, source_gradient=True))
        s_cnt, p_cnt, k_cnt = table_shape(*args)
        assert s_cnt * p_cnt <= k_cnt and s_cnt != p_cnt and p_cnt >= 2
        monkeypatch.setattr(inverse_transform, "BLOCK_ELEMENTS", 1)
        tiled = ev.eval_many(x, 0.3, y, 0.0, source_gradient=True)
        for key in ("gamma", "grad", "sgrad", "est"):
            assert table[key].tobytes() == alone[key].tobytes() == tiled[key].tobytes()

    def test_cube_green_routes_identical(self, monkeypatch):
        # The green workload's shape: every target with each of 100 images.
        med = homogeneous_medium(validate_tensor(np.diag([1.0, 2.0])))
        cg = CubeGreen(med, Cube(half_width=1.0, center=np.zeros(2)), depth=2)
        x = np.stack(np.meshgrid(np.linspace(-0.9, 0.9, 3), np.linspace(-0.85, 0.95, 3),
                                 indexing="ij"), -1).reshape(-1, 2)
        table, alone, args = phase_runs(
            monkeypatch, lambda: cg.evaluate_many(x, 0.2, np.array([0.03, 0.3]), 0.0))
        s_cnt, p_cnt, k_cnt = table_shape(*args)
        assert s_cnt * p_cnt <= k_cnt and p_cnt >= 2
        for key in ("gamma", "grad", "sgrad", "est"):
            assert table[key].tobytes() == alone[key].tobytes()

    @pytest.mark.parametrize("upper,lower,scattered", [
        pytest.param(*DENSE[0].values, False, id="2d-sheared"),
        pytest.param(*DENSE[1].values, False, id="3d-folded"),
        pytest.param(*SHEARED[0].values[:2], True, id="2d-sheared-scattered"),
    ])
    def test_matches_node_by_node(self, monkeypatch, upper, lower, scattered):
        # The table (dense batches) and the per-point route (scattered
        # points) against sums over every half node of the rule and of its
        # step-2h subset, each node read from its column.
        med = TwoLayerMedium(upper=validate_tensor(upper), lower=validate_tensor(lower))
        ev = KernelEvaluator(med)
        x, y = map(np.array, SHEARED[0].values[2:4]) if scattered else dense_batch(med.dim)
        _, _, args = phase_runs(
            monkeypatch, lambda: ev.eval_many(x, 0.3, y, 0.0, source_gradient=True))
        s_cnt, p_cnt, k_cnt = table_shape(*args)
        assert (s_cnt * p_cnt > k_cnt) == scattered
        gamma, grad, sgrad, _, change = ev._phase_sums(*args)
        fine, ref_change = node_by_node(ev, *args)
        scale = np.max(np.abs(fine))
        assert np.max(np.abs(np.vstack([gamma, grad.T, sgrad[:, -1]]) - fine)) <= 1e-14 * scale
        assert np.max(np.abs(change - ref_change)) <= 1e-14 * scale


class TestZeroTerms:
    """A term whose coefficient is zero on a block forms no weights."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_homogeneous_skips_reflected_terms(self, monkeypatch, n):
        # On a homogeneous medium Theta_A == Theta_B, so every reflected
        # coefficient is exactly 0; on a layered one it is not.
        names = []
        term_weights = inverse_transform._term_weights

        def recorded(term, *args):
            names.append(term.name)
            return term_weights(term, *args)

        monkeypatch.setattr(inverse_transform, "_term_weights", recorded)
        tensor = np.diag([1.5, 1.0, 2.0][3 - n:])
        x, y = contrast_batch(n)
        for med, reflected in ((homogeneous_medium(validate_tensor(tensor)), False),
                               (TwoLayerMedium(upper=validate_tensor(tensor),
                                               lower=validate_tensor(2.0 * tensor)), True)):
            names.clear()
            res = KernelEvaluator(med).eval_many(x, 0.3, y, 0.0)
            assert np.all(res["gamma"] > 0.0)
            assert any(name.startswith("direct") for name in names)
            assert any(name.startswith("reflect") for name in names) == reflected


class TestTimeScaling:
    """The contour needs no unit of time: Gamma of c A at lag dt is Gamma of A at c dt."""

    @pytest.mark.parametrize("c", [0.05, 20.0, 100.0])
    @pytest.mark.parametrize("upper,lower,lags", [
        ([[1.0, 0.3], [0.3, 1.0]], np.diag([2.0, 3.0]), (0.01, 0.3, 3.0)),
        (np.eye(3), np.diag([2.0, 2.0, 3.0]), (0.05, 1.0)),
    ], ids=["2d", "3d"])
    def test_scaled_tensor_is_scaled_time(self, c, upper, lower, lags):
        # u_t = div(c A grad u) is u_t = div(A grad u) in the time c t.
        # The contour, its M and the xi' grid follow the lag in the units
        # of A, so both sides form the same rule up to roundoff.  The
        # certificate mu is not invariant under A -> c A.
        med = TwoLayerMedium(upper=validate_tensor(upper), lower=validate_tensor(lower))
        scaled = TwoLayerMedium(upper=validate_tensor(c * np.asarray(upper)),
                                lower=validate_tensor(c * np.asarray(lower)))
        ev, ev_c = KernelEvaluator(med), KernelEvaluator(scaled)
        n = med.dim
        rng = np.random.default_rng(n)
        for lag in lags:
            y = rng.uniform(-0.5, 0.5, (6, n))
            x = y + math.sqrt(lag) * rng.uniform(-2.0, 2.0, (6, n))
            x[:, -1] = np.where(x[:, -1] == 0.0, 0.1, x[:, -1])
            ref = ev.eval_many(x, lag, y, 0.0)
            res = ev_c.eval_many(x, lag / c, y, 0.0)
            diff = np.abs(res["gamma"] - ref["gamma"])
            assert np.all(diff <= res["est"])
            assert np.max(diff) <= 1e-12 * np.max(np.abs(ref["gamma"]))
            assert np.all(np.max(np.abs(res["grad"] - ref["grad"]), axis=1) <= res["est"])


class TestMassAndDelta:
    @pytest.mark.parametrize("dt", [float("inf"), float("nan"), 0.0, -0.1])
    def test_bad_lag_refused(self, dt):
        # An infinite lag failed deep in the integration grid (ValueError
        # from a NaN node count) instead of as a bad input.
        with pytest.raises(MediumError):
            mass_integral(layered_1d(), dt, [0.3])
        with pytest.raises(MediumError):
            delta_recovery(layered_1d(), [0.3], lambda p: 1.0, [0.01, dt])

    def test_short_source_refused(self):
        # A 1-point source in a 2-D medium raised IndexError from the
        # integration grid.
        with pytest.raises(MediumError, match="shape"):
            mass_integral(layered_2d(), 0.3, [0.3])
        with pytest.raises(MediumError, match="shape"):
            delta_recovery(layered_2d(), [0.3], lambda p: 1.0, [0.01])

    def test_mass_homogeneous(self):
        med = homogeneous_medium(validate_tensor([[1.3]]))
        assert mass_integral(med, 0.4, np.array([0.3])) == pytest.approx(1.0, abs=1e-6)

    def test_mass_layered(self):
        assert mass_integral(layered_1d(), 0.4, np.array([0.3])) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_delta_recovery_first_order(self):
        med = layered_1d()
        y = np.array([0.3])
        phi = lambda p: float(np.exp(-np.sum((np.asarray(p) - y) ** 2)))
        vals = delta_recovery(med, y, phi, [0.08, 0.04, 0.02, 0.01])
        errs = np.abs(vals - phi(y))
        assert np.all(np.diff(errs) < 0)  # monotone approach
        ratios = errs[:-1] / errs[1:]
        assert np.all(ratios > 1.4)  # approximately halving
