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
    gauss_tensor_grid,
    mass_integral,
)
from layerheat.reference import (
    gaussian_gradient,
    gaussian_kernel,
    layered_gradient_1d,
    layered_kernel_1d,
)
from layerheat.symbols import (
    REGIONS,
    SymbolTable,
    classify_region,
    region_phases,
    region_terms,
    theta_squared,
)
from image_checks import image_points
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


def record_half_grids(monkeypatch):
    """Record every xi' grid, as its HalfGrid value, that eval_many builds."""
    grids = []
    half_grid = KernelEvaluator._half_grid

    def recorded(self, radius, steps):
        grids.append(half_grid(self, radius, steps))
        return grids[-1]

    monkeypatch.setattr(KernelEvaluator, "_half_grid", recorded)
    return grids


def whole_grid(half):
    """The whole point-symmetric xi' grid of a HalfGrid: its half nodes and
    their mirrors, each of the weight that the half rule folds (the mirror
    of node q is node Q - 1 - q; TestHalfRule::test_half_grid_contract)."""
    xi = np.vstack([half.nodes, -half.nodes[-2::-1]])
    wq = np.concatenate([half.node_w[:-1] / 2.0, half.node_w[-1:], half.node_w[-2::-1] / 2.0])
    return xi, wq


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
        grids = record_half_grids(monkeypatch)
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
                xi = whole_grid(grids[0])[0]
                for th2 in theta_squared(med, xi.astype(complex), tau):
                    assert th2.shape == (xi.shape[0], 2 * m + 2)
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
    def test_est_covers_strong_shear(self, whole_symbol, c, dt):
        # A large tangential coupling a_t gives large phases phi, which the
        # roundoff floor must count at a node and at its mirror alike: with
        # each |p| as the mean of |r + i phi| over the node and its mirror,
        # the gradient's error reached 1.2 est at c = 0.99, dt = 0.01.  The
        # whole symbol goes through the transform here; in closed form the
        # Gaussian forms no phase.
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


# Lower layers under an isotropic upper one, and whether the two tangential
# reaches are equal: the xi' grids of TestHalfRule.
HALF_GRIDS = [
    pytest.param([[4.0]], False, id="1d"),
    pytest.param(np.diag([2.0, 3.0]), False, id="2d"),
    pytest.param(np.diag([2.0, 3.0, 1.5]), False, id="3d"),
    pytest.param(np.diag([2.0, 2.0, 3.0]), True, id="3d-exchange"),
]


class TestHalfRule:
    """The half contour rule needs a point-symmetric xi' grid and a real kernel."""

    @pytest.mark.parametrize("lower,osc_equal", HALF_GRIDS)
    def test_half_grid_keeps_only_its_arrays(self, lower, osc_equal):
        # A HalfGrid lives for the whole call.  The memory it keeps alive,
        # its arrays and every array they are views of, is its own arrays'
        # bytes: none of them is a view into the whole grid.
        n = len(lower)
        ev = KernelEvaluator(TwoLayerMedium(upper=validate_tensor(np.eye(n)),
                                            lower=validate_tensor(lower)))
        steps = ev._xi_spacing(np.array([0.5, 0.5 if osc_equal else 0.2])[:n - 1], 0.3)
        half = ev._half_grid(ev._base_radius(0.3), steps)
        own = {id(a): a for a in half if isinstance(a, np.ndarray)}
        roots = {}
        for a in own.values():
            while a.base is not None:
                a = a.base
            roots[id(a)] = a
        assert half.nodes.shape[0] > 1 or n == 1
        assert sum(a.nbytes for a in roots.values()) == sum(a.nbytes for a in own.values())

    @pytest.mark.parametrize("lower,osc_equal", HALF_GRIDS)
    def test_half_grid_contract(self, lower, osc_equal):
        # The one builder of the xi' grid against the whole grid built here
        # with np.meshgrid: the nodes k h_j, |k| <= ceil(radius / h_j), at
        # the spacing h_j = pi / (osc_j + sqrt(2 sigma dt D)), D = ln(1000 /
        # tol) / 2 and sigma IMAGE_SPREAD times the largest eigenvalue of
        # both layers' A_tt, out to the radius, each of weight h_1..h_d over
        # (2 pi)^d.
        # Mirroring the half nodes gives back that grid, which is
        # point-symmetric; the weights fold its weights (doubled but at the
        # centre).  In 3-D the layers are diagonal, so the columns fold the
        # half (with the exchange when the two spacings are equal), and
        # every half node's column has its |xi_j| multiset.  All bit for
        # bit, but the spacings themselves.
        n = len(lower)
        d = n - 1
        med = TwoLayerMedium(upper=validate_tensor(np.eye(n)), lower=validate_tensor(lower))
        ev = KernelEvaluator(med)
        # Diagonal layers: A_tt is the minor, and the lower one is the wider.
        sigma = inverse_transform.IMAGE_SPREAD * np.max(np.diag(lower)[:d], initial=0.0)
        for dt, osc_max in [(0.01, 0.0), (0.3, 1.5), (2.0, 0.2), (0.1, 100.0)]:
            osc = np.array([osc_max, osc_max if osc_equal else min(osc_max, 0.5)])[:d]
            radius = ev._base_radius(dt)
            steps = ev._xi_spacing(osc, dt)
            half = ev._half_grid(radius, steps)
            h = np.pi / (osc + math.sqrt(2.0 * sigma * dt * 0.5 * math.log(1000.0 / 1e-8)))
            assert np.allclose(steps, h, rtol=1e-14, atol=0.0)
            # The whole grid and its weights.
            ks = [np.arange(-math.ceil(radius / hj), math.ceil(radius / hj) + 1) for hj in steps]
            mesh = np.meshgrid(*[hj * k for hj, k in zip(steps, ks)], indexing="ij")
            xi = np.stack([m.ravel() for m in mesh], axis=1) if d else np.zeros((1, 0))
            wq = np.full(xi.shape[0], np.prod(steps) / (2.0 * np.pi) ** d)
            h_cnt = half.nodes.shape[0]
            assert half.shape == tuple(k.size for k in ks) and h_cnt == (xi.shape[0] + 1) // 2
            assert np.array_equal(xi[::-1], -xi) and np.array_equal(whole_grid(half)[0], xi)
            fold = 2.0 * wq[:h_cnt]
            fold[-1] = wq[h_cnt - 1]
            assert np.array_equal(half.node_w, fold) and np.array_equal(whole_grid(half)[1], wq)
            assert np.allclose(wq * (2.0 * np.pi) ** d, np.prod(h), rtol=1e-14, atol=0.0)
            for j in range(d):
                axis = np.unique(xi[:, j])
                assert np.allclose(np.diff(axis), h[j], rtol=1e-12, atol=0.0)
                assert radius <= axis[-1] < radius + h[j]
            # The columns: each a half node, each half node's column of its
            # |xi_j| multiset, and each column's weight its orbit's.
            assert (half.of is None) == (n < 3)
            of = np.arange(h_cnt) if half.of is None else half.of
            index = {node: q for q, node in enumerate(map(tuple, half.nodes.tolist()))}
            assert all(node in index for node in map(tuple, half.xi.tolist()))
            assert np.array_equal(np.sort(np.abs(half.xi[of]), axis=1),
                                  np.sort(np.abs(half.nodes), axis=1))
            if n == 3 and not osc_equal:
                assert np.array_equal(np.abs(half.xi[of]), np.abs(half.nodes))
            if osc_equal:  # the exchange: one column per |xi_0| >= |xi_1|
                assert np.all(np.abs(half.xi[:, 0]) >= np.abs(half.xi[:, 1]))
            assert np.allclose(half.w, np.bincount(of, weights=half.node_w), rtol=1e-15, atol=0.0)
            assert (half.w.size < h_cnt) == (n == 3 and h_cnt > 1)

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
        # blocks of BLOCK_ELEMENTS // (M + 1) consecutive nodes, the last
        # one shorter, that end at the centre node; in 3-D there are
        # two.  In 3-D (55 x 55 nodes when measured, 41 x 39 now) both this
        # sum and eval_many differ from one in extended precision by up to
        # 1e-11 of the peak for Gamma and 1e-10 for its gradient, hence the
        # looser bound ``rel`` there.
        med = TwoLayerMedium(upper=validate_tensor(upper), lower=validate_tensor(lower))
        x, y = np.array(x), np.array(y)
        n = med.dim
        d = n - 1
        dt = 0.3
        ev = KernelEvaluator(med)
        grids = record_half_grids(monkeypatch)
        terms = inverse_transform.region_terms
        blocks = record_region_terms(monkeypatch)
        res = ev.eval_many(x, dt, y, 0.0, source_gradient=True)
        assert len(grids) == 1
        xi, wq = whole_grid(grids[0])
        step = inverse_transform.BLOCK_ELEMENTS // (ev.contour_nodes + 1)
        assert xi.shape[0] > 1 and len(blocks) == 6
        for nodes in blocks.values():
            sizes = [b.shape[0] for b in nodes]
            assert set(sizes[:-1]) <= {step} and 0 < sizes[-1] <= step
            assert np.array_equal(np.concatenate(nodes), grids[0].nodes)
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
        # est against the same rule where eval_many uses it: in the regions
        # of a closed-form direct term its Gaussian, whose transform here
        # carries the contour rule's own error, up to 8.7e-14 in the
        # gradient where eval_many erred by 1e-16 (whole_grid_values).
        split = whole_grid_values(med, ev, grids[0], x, y, dt, split=True)
        assert np.all(np.abs(res["gamma"] - split["gamma"]) <= res["est"])
        assert np.all(np.max(np.abs(res["grad"] - split["grad"]), axis=1) <= res["est"])


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
        grids = record_half_grids(monkeypatch)
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
    def test_bound_covers_base_truncation(self, monkeypatch, whole_symbol, n, tol, dt):
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
        # next, so wider grids are no reference there.)  The whole symbol
        # goes through the transform, the direct term's truncation included.
        bounds, passes = [], []
        tail_bound = inverse_transform._tail_bound
        tau_sums = KernelEvaluator._tau_sums

        def recorded_bound(inv, *args):
            bounds.append((inv, tail_bound(inv, *args)))
            return bounds[-1][1]

        def recorded_sums(self, pairs, codes, phi, half, tau, wte, *args):
            passes.append((pairs, codes, phi, tau, wte, args[1]))
            return tau_sums(self, pairs, codes, phi, half, tau, wte, *args)

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
        pairs, codes, phi, tau, wte, closed = passes[0]
        shift = x[:, :-1] - y[:, :-1] + np.einsum("ki,kij->kj", pairs, phi)[inv]
        steps = ev._xi_spacing(np.max(np.abs(shift), axis=0), dt)
        radius = ev._base_radius(dt)
        wider = []
        for k in (1, 2):
            half = ev._half_grid(2 ** k * radius, steps)
            sums = tau_sums(ev, pairs, codes, phi, half, tau, wte, True, closed)
            values = ev._phase_sums(pairs, inv, shift, half, sums, True)[:3]
            wider.append(np.column_stack(values))
        base = np.column_stack([res["gamma"], res["grad"], res["sgrad"]])
        once, twice = wider
        tail = np.max(np.abs(once - base) - np.abs(twice - once), axis=1)
        assert np.all(tail <= bound)
        assert np.max(tail / bound) > 1e-3  # the bound tracks real truncation

    def test_bound_of_gaussian_profile(self):
        # On a Gaussian profile the bound exceeds the mass beyond the
        # grid's reach R (its corner node, here the radius), of f and of
        # |xi| f; an imaginary part of the tau half sums, which the mirrored
        # node cancels, leaves it unchanged; and once erfc underflows the
        # bound is 0.
        a, radius = 0.5, 5.0
        ev = KernelEvaluator(layered_2d())
        grid = ev._half_grid(radius, [radius / 24.0])
        xi, wq = whole_grid(grid)
        half = grid.nodes.shape[0]
        reach = -grid.nodes[0, 0]
        assert reach == pytest.approx(radius, rel=1e-15)
        inv = np.zeros(1, dtype=int)

        def bound(h, g=grid):
            # One pair; its value and normal sums are Re h, with no phase.
            re = np.stack([h.real, h.real])[:, None, :]
            sums = HalfSums(re, np.zeros((1, 2, 1)), None, None, None, True)
            return np.maximum(*inverse_transform._tail_bound(inv, g, sums, a))[0]

        xi = xi[:, 0]
        f = np.exp(-a * xi ** 2)
        tail = math.sqrt(np.pi / a) * math.erfc(math.sqrt(a) * radius) / (2.0 * np.pi)
        tail_xi = math.exp(-a * radius ** 2) / (2.0 * np.pi * a)
        assert bound(f[:half]) >= 2.0 * max(tail, tail_xi)
        # The half sums s on all nodes, and the full rule's integrand
        # (s + conj s_mirror) / 2 summed over all nodes as the bound defines it.
        s = f + 1.5j / (1.0 + np.abs(xi))
        x = math.sqrt(a) * reach
        ratio = math.erfc(x) / (math.erfc(0.5 * x) - math.erfc(x))
        w_val = (np.abs(xi) >= 0.5 * reach) * wq
        f_full = np.abs(s + s[::-1].conj()) / 2.0
        full = TAIL_SAFETY * ratio * max(f_full @ (np.abs(xi) * w_val), f_full @ w_val)
        assert bound(s[:half]) == bound(f[:half]) == pytest.approx(full, rel=1e-14)
        wide = ev._half_grid(60.0, [radius / 24.0])
        assert bound(np.exp(-a * wide.nodes[:, 0] ** 2), wide) == 0.0
        # Two pairs with Re h_n = 0 and the phases phi_p = 0 and 3 xi: the
        # normal gradient's integrand |Re h_n + i phi_p Re h| of the second
        # is three times the tangential one.  Point k reads pair 1 - k.
        re = np.stack([f[:half], np.zeros(half)])[:, None, :].repeat(2, axis=1)
        sums = HalfSums(re, np.array([[[0.0], [0.0]], [[3.0], [0.0]]]), None, None, None, True)
        grads = inverse_transform._tail_bound(np.array([1, 0]), grid, sums, a)[1]
        assert grads[0] == pytest.approx(3.0 * grads[1], rel=1e-14)

    def test_default_tolerance_one_fine_pass(self, monkeypatch):
        # A batch shaped like the benchmark's 2-D layered ones: the grid
        # passes the bound, and eval_many builds that one grid.
        med = TwoLayerMedium(upper=validate_tensor([[1.0, 0.3], [0.3, 1.0]]),
                             lower=validate_tensor(np.diag([2.0, 3.0])))
        ev = KernelEvaluator(med)
        grids = record_half_grids(monkeypatch)
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
    """est's contour part, the smaller of the rule against its even contour
    nodes and the row's ratio times the rule's L1 magnitude, each summed
    with no phase, and the xi' rule's images, bounded a priori."""

    @pytest.mark.parametrize("upper,lower,x,y,rel", SHEARED)
    def test_contour_rows(self, monkeypatch, upper, lower, x, y, rel):
        # The contour rows of _tau_sums against tau sums run here with the
        # weights of the even contour nodes (2 W_m on even m, 0 on odd m):
        # Delta = Re h - Re h_even at every column; and against the L1
        # magnitudes S_1 = sum |W_m coef e^r| and S_p = sum |W_m coef r_p
        # e^r| over the half contour and the contracted terms, summed here
        # from region_terms.  Each summed with the orbit weights as |D|,
        # |D_n| + |phi_p| |D| and |xi'|_inf |D|; est is at least
        # CONTOUR_SAFETY times the smaller of their largest, the second
        # times the row's ratio (every pair here lies above CONTOUR_DEPTH).
        med = TwoLayerMedium(upper=validate_tensor(upper), lower=validate_tensor(lower))
        ev = KernelEvaluator(med)
        calls = []
        tau_sums = KernelEvaluator._tau_sums

        def recorded(self, *args):
            calls.append((args, tau_sums(self, *args)))
            return calls[-1][1]

        monkeypatch.setattr(KernelEvaluator, "_tau_sums", recorded)
        x, y = np.array(x), np.array(y)
        res = ev.eval_many(x, 0.3, y, 0.0, source_gradient=True)
        (pairs, codes, phi, half, tau, wte, source_gradient, closed), sums = calls[0]
        even = np.where(np.arange(wte.size) % 2 == 0, 2.0 * wte, 0.0)
        delta = sums.re[:2] - tau_sums(ev, pairs, codes, phi, half, tau, even, False, closed).re
        l1 = np.zeros((2,) + delta.shape[1:])
        for k, ((xn, yn), code) in enumerate(zip(pairs, codes)):
            for term in region_terms(REGIONS[code], med, half.xi.astype(complex), tau):
                if closed[code] and term.name.startswith(("direct", "transmit")):
                    continue
                v = np.abs(wte * term.coef * np.exp(term.p.sign * term.p.root * xn
                                                    + term.q.sign * term.q.root * yn))
                l1[0, k] += v.sum(axis=1)
                l1[1, k] += (v * np.abs(term.p.root)).sum(axis=1)
        abs_phi = np.abs(np.einsum("pj,qj->pq", phi[:, 0], half.xi))
        refs = np.array([[np.abs(r[0]) @ half.w,
                          (np.abs(r[1]) + abs_phi * np.abs(r[0])) @ half.w,
                          np.abs(r[0]) @ (half.xi_inf * half.w)] for r in (delta, l1)])
        assert np.all(refs > 0.0)
        for got, ref in zip(sums.contour, refs):
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-15 * np.max(ref))
        depth = np.abs(pairs).sum(axis=1) / math.sqrt(min(med.upper.a_nn, med.lower.a_nn) * 0.3)
        assert np.all(depth <= inverse_transform.CONTOUR_DEPTH)
        part = np.minimum(np.max(refs[0], axis=0), ev._contour_ratio * np.max(refs[1], axis=0))
        inv = [np.flatnonzero((pairs == [xn, yn]).all(axis=1))[0] for xn, yn in zip(x[:, -1], y[:, -1])]
        assert np.all(res["est"] >= inverse_transform.CONTOUR_SAFETY * part[inv] * (1.0 - 1e-12))

    def test_contour_ratios_cover_the_model(self):
        # Each row's ratio at the M of tol 1e-8 and 1e-10 covers the rule's
        # error on the model of its table, e^{-d sqrt(tau + k)} / sqrt(tau +
        # k) and e^{-d sqrt(tau + k)}, against its L1 magnitude, each summed
        # in modulus over the columns, down to CONTOUR_DEPTH: on row 0 at k
        # = 0, on row 1 on the table's 121-node xi' grid, k = xi^2 up to k
        # (t-s) = 60.
        for row in _CONTOUR_ROWS:
            for m in {_contour_size(row, tol) for tol in (1e-8, 1e-10)}:
                ratio = row[4][CONTOUR_M.index(m)]
                for dt in (0.01, 0.3, 3.0):
                    tau, w = _hyperbolic_nodes(row, m, dt)
                    wte = w * np.exp(tau * dt)
                    kd = np.zeros(1) if row is _CONTOUR_ROWS[0] else np.linspace(-1.0, 1.0, 121) ** 2 * 60.0
                    sq = np.sqrt(tau + kd[:, None] / dt)
                    for depth in np.linspace(0.0, inverse_transform.CONTOUR_DEPTH, 41):
                        d = depth * math.sqrt(dt)
                        g = np.exp(-depth ** 2 / 4.0 - kd)
                        for f, exact in ((np.exp(-d * sq) / sq, g / math.sqrt(math.pi * dt)),
                                         (np.exp(-d * sq), depth * g / (2.0 * math.sqrt(math.pi) * dt))):
                            err = np.abs(np.sum(wte * f, axis=1).real - exact)
                            assert np.sum(err) <= ratio * np.sum(np.abs(wte * f))

    @pytest.mark.parametrize("seed", [2, 14, 37, 40, 41, 0])
    def test_image_bound_covers_random_media(self, monkeypatch, seed):
        # Random media coupled on both layers (seed 0 in 3-D), among them
        # the three whose images came closest to the bound in a sweep of
        # 60: at spacings 1.5, 2 and 3 times the rule's own, where the
        # images show above the roundoff, the error against the rule at half
        # its own spacing stays within the image bound (IMAGE_SAFETY
        # included), to 1e-12 of the peak, for Gamma and both gradients.
        rng = np.random.default_rng(seed)
        n = 3 if seed == 0 else 2
        d = n - 1

        def spd():
            while True:
                g = rng.uniform(-1.0, 1.0, (n, n))
                a = g @ g.T + rng.uniform(0.2, 1.0) * np.eye(n)
                a = np.round(a * rng.uniform(0.5, 3.0) / np.trace(a) * n, 3)
                if np.all(np.abs(a[-1, :-1]) > 0.05) and np.linalg.eigvalsh(a)[0] > 0.05:
                    return a

        med = TwoLayerMedium(upper=validate_tensor(spd()), lower=validate_tensor(spd()))
        ev = KernelEvaluator(med)
        spacing, image_bound = KernelEvaluator._xi_spacing, inverse_transform._image_bound
        factor, bounds = [0.5], []
        monkeypatch.setattr(KernelEvaluator, "_xi_spacing",
                            lambda self, osc, dt: [h * factor[0] for h in spacing(self, osc, dt)])
        monkeypatch.setattr(inverse_transform, "_image_bound",
                            lambda *args: bounds.append(image_bound(*args)) or bounds[-1])
        dt, k = 0.3, 40 if n == 2 else 16
        r = math.sqrt(dt)
        y = np.column_stack([rng.uniform(-0.5, 0.5, (k, d)) * r,
                             rng.choice([0.1, -0.3, 1.0, -1.5], k) * r])
        x = np.column_stack([y[:, :d] + rng.uniform(-3.0, 3.0, (k, d)) * r, rng.uniform(-3.0, 3.0, k) * r])
        ref = ev.eval_many(x, dt, y, 0.0, source_gradient=True)
        peak, g_peak = np.max(np.abs(ref["gamma"])), np.max(np.abs(ref["grad"]))
        for factor[0] in (1.5, 2.0, 3.0):
            res = ev.eval_many(x, dt, y, 0.0, source_gradient=True)
            val, grad = bounds[-1]
            err = np.abs(res["gamma"] - ref["gamma"])
            g_err = np.maximum(np.abs(res["grad"] - ref["grad"]).max(axis=1),
                               np.abs(res["sgrad"] - ref["sgrad"]).max(axis=1))
            assert np.all(err <= val + 1e-12 * peak)
            assert np.all(g_err <= grad + 1e-12 * g_peak)
        assert np.max(err) > 1e-10 * peak  # the images show at the widest spacing

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_image_bound_sums_every_image(self, d):
        # _image_bound forms the images' sum as products of per-axis sums,
        # with no cancellation: against the sum over every image j in
        # -2..2 on each axis, j != 0, of the product of the axes' Gaussians,
        # each weighted by 1 + |z_j| / sqrt(spread) for the gradients,
        # times IMAGE_SAFETY and each pair's mass.  In 1-D both are 0.
        rng = np.random.default_rng(d)
        spread, steps = 0.7, [0.9, 1.3][:d]
        shift = rng.uniform(-2.0, 2.0, (5, d))
        inv = np.array([0, 1, 1, 0, 1])
        mass = rng.uniform(0.5, 2.0, (4, 2))
        sums = HalfSums(None, None, None, mass, None, True)
        val, grad = inverse_transform._image_bound(inv, shift, steps, sums, spread)
        ref_val, ref_grad = np.zeros(5), np.zeros(5)
        for j in np.ndindex(*(5,) * d):
            j = np.array(j) - 2
            if j.any():
                z = np.abs(shift + j * 2.0 * np.pi / np.array(steps))
                g = np.exp(-z ** 2 / (4.0 * spread))
                ref_val += np.prod(g, axis=1)
                ref_grad += np.prod(g * (1.0 + z / math.sqrt(spread)), axis=1)
        safety = inverse_transform.IMAGE_SAFETY
        assert np.allclose(val, safety * mass[0, inv] * ref_val, rtol=1e-13, atol=0.0)
        assert np.allclose(grad, safety * mass[1:].max(axis=0)[inv] * ref_grad, rtol=1e-13, atol=0.0)
        assert np.all(val > 0.0) == (d > 0) and not np.any(val < 0.0)

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
        grids = record_half_grids(monkeypatch)
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
        grids = record_half_grids(monkeypatch)
        rng = np.random.default_rng(n)
        y = rng.uniform(-0.5, 0.5, (k, n))
        x = rng.uniform(-1.5, 1.5, (k, n))
        dt = 0.3
        gamma = ev.eval_many(x, dt, y, 0.0)["gamma"]
        assert len(grids) == 1
        h = [float(np.diff(np.unique(grids[0].nodes[:, j]))[0]) for j in range(n - 1)]
        fine_xi, fine_wq = whole_grid(ev._half_grid(2.0 * ev._base_radius(dt),
                                                    [hj / 2.0 for hj in h]))
        tau, w = _hyperbolic_nodes(_CONTOUR_ROWS[0], 64, dt)
        wte = w * np.exp(tau * dt)
        ref = np.zeros(k)
        for lo in range(0, fine_wq.size, 4096):
            xi, wq = fine_xi[lo:lo + 4096], fine_wq[lo:lo + 4096]
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
    """The tau contraction streams the xi' grid in blocks of consecutive columns."""

    @pytest.mark.parametrize("upper,lower,x,y,rel", SHEARED)
    def test_values_independent_of_blocks(self, monkeypatch, upper, lower, x, y, rel):
        # A value must not depend on how the grid is partitioned.  With a
        # budget of one element each block is one column, the blocks tile
        # the canonical half once and in order, each chunk of exponentials
        # is one pair and each phase chunk one point.  Every node sum of
        # est's rows is formed over all columns after the last block, so
        # est does not change either.
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
        grids = record_half_grids(monkeypatch)
        blocks = record_region_terms(monkeypatch)
        monkeypatch.setattr(inverse_transform, "BLOCK_ELEMENTS", 1)
        res = ev.eval_many(x, 0.3, y, 0.0, source_gradient=True)
        assert len(blocks) == 6
        for nodes in blocks.values():
            assert all(b.shape[0] == 1 for b in nodes)
            assert np.array_equal(np.concatenate(nodes), grids[0].nodes)
        for key in ("gamma", "grad", "sgrad", "est"):
            assert res[key].tobytes() == ref[key].tobytes()
        # The floor's node sums, the Gamma row's with |xi'|_inf last.
        xi_max = np.max(np.abs(whole_grid(grids[0])[0]))
        one, many = sums
        for rows in ("floor", "mass", "contour"):
            assert getattr(many, rows).tobytes() == getattr(one, rows).tobytes()
        assert np.all(many.floor[-1] > 0.0) and np.all(many.floor[-1] <= xi_max * many.floor[0])

    @pytest.mark.parametrize("b,limit", [
        (30.0, 10e6), pytest.param(100.0, 12e6, marks=pytest.mark.slow),
    ])
    def test_strong_contrast_memory(self, b, limit):
        # The 4-point 3-D call of test_contrast_sweep at t - s = 0.01.  With
        # the tables built over the whole grid it peaked at 202 MB for
        # b = 30 and near 0.9 GB (RSS) for b = 100; streamed, at 8.6 MB and
        # 15.8 MB; streamed over the orbits of the two reflections, at
        # 8.6 MB and 13.7 MB (8.3 MB and 11.5 MB measured again before the
        # next change); with the xi' spacing sized for the rule itself and
        # no step-2h sums, at 7.8 MB and 9.0 MB; with est's node sums taken
        # over tiles of SUM_COLUMNS columns, at 8.1 MB and 9.6 MB.
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


def whole_grid_values(med, ev, half, x, y, dt, split=False):
    """Gamma, grad and sgrad of the full (k = -M..M) contour rule on the
    whole xi' grid of the HalfGrid ``half``, summed point by point from
    region_terms.  With ``split``, as in eval_many, the direct term of the
    regions in closed_form_regions is the Gaussian of the source's layer,
    not its transform on the grid."""
    closed = inverse_transform.closed_form_regions(med)
    n = med.dim
    d = n - 1
    xi, wq = whole_grid(half)
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
        direct = split and closed[REGIONS.index(region)]
        for term in region_terms(region, med, table.xi, tau, table=table):
            if direct and term.name.startswith(("direct", "transmit")):
                continue
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
        if direct:
            source = med.lower if yk[-1] < 0.0 else med.upper
            out["gamma"][k] += gaussian_kernel(source, xk, dt, yk, 0.0)
            g = gaussian_gradient(source, xk, dt, yk, 0.0)
            out["grad"][k] += g
            out["sgrad"][k] -= g
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
        half = ev._half_grid(ev._base_radius(dt), ev._xi_spacing(osc, dt))
        assert half.of is not None and half.of.size == half.nodes.shape[0]
        tau, _ = _hyperbolic_nodes(ev._row, ev.contour_nodes, dt)
        nodes = SymbolTable(med, half.nodes.astype(complex), tau)
        cols = SymbolTable(med, half.xi.astype(complex), tau)
        for name in ("theta_a", "theta_b", "root_a", "root_b", "direct_a", "direct_b",
                     "reflect_a", "reflect_b", "transmit"):
            assert getattr(cols, name)[half.of].tobytes() == getattr(nodes, name).tobytes()
        # The weights of each orbit add up.
        assert half.w.sum() == pytest.approx(half.node_w.sum(), rel=1e-14)

    @pytest.mark.parametrize("upper,lower", FOLDED)
    @pytest.mark.parametrize("equal", [True, False], ids=["equal_reach", "unequal_reach"])
    def test_region_terms_see_one_node_per_orbit(self, monkeypatch, upper, lower, equal):
        # The benchmark's batch (equal reach on a medium with equal
        # diagonals) reaches region_terms with 190 of its 685 half nodes;
        # without the exchange, with (k_0 + 1)(k_1 + 1), k_j the largest
        # index on axis j.
        med = TwoLayerMedium(upper=validate_tensor(upper), lower=validate_tensor(lower))
        ev = KernelEvaluator(med)
        grids = record_half_grids(monkeypatch)
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
            assert grids[0].shape == (37, 37) and count == 190

    @pytest.mark.parametrize("upper,lower,x,y,rel", SHEARED + [
        pytest.param(np.eye(2), np.diag([2.0, 3.0]), [[0.3, 0.5], [0.4, -0.3]],
                     [[0.0, 0.2], [0.1, 0.3]], None, id="2d-diagonal")])
    def test_no_fold_without_symmetry(self, monkeypatch, upper, lower, x, y, rel):
        # In 2-D and on sheared 3-D media every half node is its own column.
        med = TwoLayerMedium(upper=validate_tensor(upper), lower=validate_tensor(lower))
        ev = KernelEvaluator(med)
        grids = record_half_grids(monkeypatch)
        blocks = record_region_terms(monkeypatch)
        ev.eval_many(np.array(x), 0.3, np.array(y), 0.0)
        half = grids[0]
        assert half.of is None
        for nodes in blocks.values():
            assert sum(b.shape[0] for b in nodes) == (math.prod(half.shape) + 1) // 2

    @pytest.mark.parametrize("upper,lower", FOLDED)
    def test_values_match_whole_grid(self, monkeypatch, upper, lower):
        # Gamma and both gradients of a folded batch against the full
        # contour rule summed on the whole xi' grid (as in
        # test_anisotropic_values_pinned).
        med = TwoLayerMedium(upper=validate_tensor(upper), lower=validate_tensor(lower))
        ev = KernelEvaluator(med)
        grids = record_half_grids(monkeypatch)
        x, y = scatter_batch((SCATTER_REACH, SCATTER_REACH))
        res = ev.eval_many(x, 0.3, y, 0.0, source_gradient=True)
        ref = whole_grid_values(med, ev, grids[0], x, y, 0.3)
        for key in ("gamma", "grad", "sgrad"):
            scale = np.max(np.abs(ref[key]))
            assert np.max(np.abs(res[key] - ref[key])) < 1e-10 * scale
        split = whole_grid_values(med, ev, grids[0], x, y, 0.3, split=True)
        assert np.all(np.abs(res["gamma"] - split["gamma"]) <= res["est"])
        assert np.all(np.max(np.abs(res["grad"] - split["grad"]), axis=1) <= res["est"])

    @pytest.mark.parametrize("upper,lower", FOLDED)
    def test_fold_matches_unfolded(self, monkeypatch, upper, lower):
        # The same batch with every half node its own column: the sums of
        # each node are its column's to the byte, and so are Gamma and its
        # gradients; the node sums of the floor, mass and contour rows and
        # the tail bound, which take each orbit's summed weights, agree to
        # rounding.
        med = TwoLayerMedium(upper=validate_tensor(upper), lower=validate_tensor(lower))
        folded, plain = KernelEvaluator(med), KernelEvaluator(med)
        plain._mirrors = []
        x, y = scatter_batch((SCATTER_REACH, SCATTER_REACH))
        runs = []
        tau_sums, tail_bound = KernelEvaluator._tau_sums, inverse_transform._tail_bound

        def recorded_sums(self, *args):
            runs[-1]["sums"] = tau_sums(self, *args)
            runs[-1]["half"] = args[3]
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
        for rows in ("floor", "mass", "contour"):
            assert np.allclose(getattr(one, rows), getattr(many, rows), rtol=1e-14, atol=0.0)
        for one, many in zip(fold["tail"], ref["tail"]):
            assert np.allclose(one, many, rtol=1e-14, atol=0.0)
        for key in ("gamma", "grad", "sgrad"):
            assert fold["res"][key].tobytes() == ref["res"][key].tobytes()
        assert np.allclose(fold["res"]["est"], ref["res"]["est"], rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("upper,lower", FOLDED)
    def test_values_independent_of_blocks(self, monkeypatch, upper, lower):
        # With a budget of one element each block is one column and each
        # phase chunk one point: Gamma, its gradients and est are
        # unchanged to the byte.  The node sums of est's rows are formed
        # over all columns after the last block.
        med = TwoLayerMedium(upper=validate_tensor(upper), lower=validate_tensor(lower))
        ev = KernelEvaluator(med)
        x, y = scatter_batch((SCATTER_REACH, SCATTER_REACH))
        ref = ev.eval_many(x, 0.3, y, 0.0, source_gradient=True)
        blocks = record_region_terms(monkeypatch)
        monkeypatch.setattr(inverse_transform, "BLOCK_ELEMENTS", 1)
        res = ev.eval_many(x, 0.3, y, 0.0, source_gradient=True)
        for nodes in blocks.values():
            assert len(nodes) > 1 and all(b.shape[0] == 1 for b in nodes)
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
    route, since 2 P > K = 1), on the same tau sums; and the
    arguments of the first _phase_sums call."""
    phase_sums = KernelEvaluator._phase_sums
    calls = []

    def recorded(self, *args):
        calls.append(args)
        return phase_sums(self, *args)

    def point_by_point(self, pairs, inv, shift, *args):
        outs = [phase_sums(self, pairs, inv[k:k + 1], shift[k:k + 1], *args)
                for k in range(inv.size)]
        return tuple(None if o[0] is None else np.concatenate(o) for o in zip(*outs))

    monkeypatch.setattr(KernelEvaluator, "_phase_sums", recorded)
    table = run()
    monkeypatch.setattr(KernelEvaluator, "_phase_sums", point_by_point)
    alone = run()
    monkeypatch.setattr(KernelEvaluator, "_phase_sums", phase_sums)
    return table, alone, calls[0]


def table_shape(pairs, inv, shift, half, sums, *rest):
    """(S, P, K): distinct shifts, normal pairs and points of a phase call."""
    return np.unique(shift, axis=0).shape[0], pairs.shape[0], inv.size


def node_by_node(pairs, inv, shift, half, sums, source_gradient):
    """Gamma, grad and the source derivative in y_n, summed over every half
    node from its column's tau sums (_phase_sums)."""
    xi, w = half.nodes, half.node_w
    of = np.arange(xi.shape[0]) if half.of is None else half.of
    c = sums.phi[inv]
    re = sums.re[:, inv][:, :, of] * w
    psi = shift @ xi.T
    cos, sin = np.cos(psi), np.sin(psi)
    tangential = -(sin * re[0]) @ xi
    out = [np.sum(cos * re[0], axis=1), *tangential.T]
    out += [np.sum(cos * r, axis=1) + np.sum(c[:, i] * tangential, axis=1)
            for i, r in enumerate(re[1:])]
    return np.array(out)


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

    def test_cube_green_routes_identical(self, monkeypatch, whole_symbol):
        # The green workload's former shape: every target with each of the
        # 100 images of a depth-2 square, the whole symbol through the
        # transform (in closed form a homogeneous medium has no phase layer).
        ev = KernelEvaluator(homogeneous_medium(validate_tensor(np.diag([1.0, 2.0]))))
        x = np.stack(np.meshgrid(np.linspace(-0.9, 0.9, 3), np.linspace(-0.85, 0.95, 3),
                                 indexing="ij"), -1).reshape(-1, 2)
        xs, ys = image_points(Cube(half_width=1.0, center=np.zeros(2)), 2, x,
                              np.array([0.03, 0.3]))[:2]
        table, alone, args = phase_runs(
            monkeypatch, lambda: ev.eval_many(xs, 0.2, ys, 0.0, source_gradient=True))
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
        # points) against sums over every half node of the rule, each node
        # read from its column.
        med = TwoLayerMedium(upper=validate_tensor(upper), lower=validate_tensor(lower))
        ev = KernelEvaluator(med)
        x, y = map(np.array, SHEARED[0].values[2:4]) if scattered else dense_batch(med.dim)
        _, _, args = phase_runs(
            monkeypatch, lambda: ev.eval_many(x, 0.3, y, 0.0, source_gradient=True))
        s_cnt, p_cnt, k_cnt = table_shape(*args)
        assert (s_cnt * p_cnt > k_cnt) == scattered
        gamma, grad, sgrad, _ = ev._phase_sums(*args)
        fine = node_by_node(*args)
        scale = np.max(np.abs(fine))
        assert np.max(np.abs(np.vstack([gamma, grad.T, sgrad[:, -1]]) - fine)) <= 1e-14 * scale


class TestZeroTerms:
    """A term whose coefficient is zero on a block forms no weights."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_homogeneous_skips_reflected_terms(self, monkeypatch, whole_symbol, n):
        # On a homogeneous medium Theta_A == Theta_B, so every reflected
        # coefficient is exactly 0; on a layered one it is not.  The whole
        # symbol goes through the transform, so the direct terms form weights.
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


def long_double_gaussian(a, x, y, dt):
    """The whole-space Gaussian of the tensor ``a`` and its gradient at the
    targets x (K, n), source y and lag dt, in long double: A^-1 and det A by
    Gauss-Jordan elimination, d = x - y exact."""
    n = a.shape[0]
    m = np.hstack([np.asarray(a, dtype=np.longdouble), np.eye(n, dtype=np.longdouble)])
    det = np.longdouble(1.0)
    for i in range(n):
        det *= m[i, i]
        m[i] /= m[i, i]
        for j in set(range(n)) - {i}:
            m[j] -= m[j, i] * m[i]
    d = x.astype(np.longdouble) - np.asarray(y, dtype=np.longdouble)
    a_d = d @ m[:, n:]
    dt = np.longdouble(dt)
    pi = np.longdouble("3.14159265358979323846264338327950288")
    gamma = np.exp(np.einsum("ki,ki->k", d, a_d) / (-4 * dt)) / (
        (4 * pi * dt) ** (np.longdouble(n) / 2) * np.sqrt(det))
    return gamma, a_d * (gamma / (-2 * dt))[:, None]


LAYERED = [
    pytest.param([[1.0]], [[4.0]], id="1d"),
    pytest.param([[1.0, 0.3], [0.3, 1.0]], np.diag([2.0, 3.0]), id="2d-sheared"),
    pytest.param(np.eye(3), np.diag([2.0, 2.0, 3.0]), id="3d-folded"),
]


class TestDirectTerm:
    """Where target and source lie in layers of one tensor, eval_many adds the
    source layer's Gaussian in closed form and the transform integrates the
    rest (closed_form_regions)."""

    @pytest.mark.parametrize("tensor,tol,rel", [
        pytest.param([[1.3]], 1e-8, 1e-9, id="1d"),
        pytest.param([[2.0, 1.0], [1.0, 2.0]], 1e-8, 1e-8, id="2d"),
        pytest.param([[1.0, 0.99], [0.99, 1.0]], 1e-10, 1e-8, id="2d-c0.99"),
        pytest.param([[1.5, 0.2, 0.0], [0.2, 1.0, -0.1], [0.0, -0.1, 2.0]], 1e-6, 1e-6, id="3d"),
    ])
    @pytest.mark.parametrize("dt", [0.01, 0.3])
    def test_whole_symbol_matches_gaussian(self, monkeypatch, whole_symbol, tensor, tol, rel, dt):
        # The transform path on homogeneous media, with the closed form
        # switched off: Gamma and both gradients against the Gaussian, each
        # error within est, and Gamma's within the tolerances that the
        # homogeneous tests held before the split.
        def no_closed_form(*args):
            raise AssertionError("the direct term went to the closed form")

        monkeypatch.setattr(KernelEvaluator, "_direct", no_closed_form)
        t_mat = validate_tensor(tensor)
        n = t_mat.dim
        ev = KernelEvaluator(homogeneous_medium(t_mat), QuadratureConfig(target_rel_tol=tol))
        rng = np.random.default_rng(n)
        y = np.array([0.1, -0.2, 0.3][3 - n:])
        x = y + 3.0 * math.sqrt(dt) * rng.uniform(-1.0, 1.0, (40 if n < 3 else 8, n))
        res = ev.eval_many(x, dt, y, 0.0, source_gradient=True)
        exact = gaussian_kernel(t_mat, x, dt, y, 0.0)
        g_exact = gaussian_gradient(t_mat, x, dt, y, 0.0).reshape(-1, n)
        err = np.abs(res["gamma"] - exact)
        g_err = np.maximum(np.abs(res["grad"] - g_exact), np.abs(res["sgrad"] + g_exact))
        assert np.all(err <= res["est"]) and np.all(g_err.max(axis=1) <= res["est"])
        assert np.max(err) <= rel * gaussian_kernel(t_mat, y[None, :], dt, y, 0.0)

    @pytest.mark.parametrize("upper,lower", LAYERED)
    def test_layered_split_against_whole_symbol(self, monkeypatch, upper, lower):
        # Cross-interface pairs keep their whole symbol: their outputs are
        # the whole-symbol run's to the byte.  Same-side outputs move from
        # the transform's error to the closed form's, within the larger of
        # the two runs' est.
        med = TwoLayerMedium(upper=validate_tensor(upper), lower=validate_tensor(lower))
        ev = KernelEvaluator(med)
        rng = np.random.default_rng(med.dim)
        y = rng.uniform(-1.0, 1.0, (40, med.dim))
        x = y + rng.uniform(-0.6, 0.6, y.shape)
        split = ev.eval_many(x, 0.1, y, 0.0, source_gradient=True)
        # An evaluator finds its closed-form regions once, on first use.
        monkeypatch.setattr(inverse_transform, "closed_form_regions",
                            lambda medium: np.zeros(6, dtype=bool))
        whole = KernelEvaluator(med).eval_many(x, 0.1, y, 0.0, source_gradient=True)
        cross = (x[:, -1] > 0.0) != (y[:, -1] > 0.0)
        assert 0 < np.sum(cross) < 40
        for key in ("gamma", "grad", "sgrad", "est"):
            assert split[key][cross].tobytes() == whole[key][cross].tobytes()
        move = np.max(np.abs(np.column_stack([split[k] - whole[k] for k in ("gamma", "grad", "sgrad")])),
                      axis=1)
        assert np.all(move[~cross] <= np.maximum(split["est"], whole["est"])[~cross])
        assert np.any(move[~cross] > 0.0)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("dt", [0.01, 0.3])
    def test_closed_form_est_covers_long_double(self, dt):
        # The closed form's roundoff term of est where A is sheared: on the
        # 2-D tensor of coupling 0.99 and on eight random 3-D tensors of
        # condition 30-55, Gamma, grad and sgrad against the Gaussian in long
        # double, each error within est.  Its exponent and A^-1 d cancel, so
        # est counts their terms' magnitudes (E_abs, |A^-1| |d|); A^-1 rounded
        # by np.linalg.inv in place of the exact inverse put the gradient's
        # error at 1.2 est on one of the 3-D tensors.
        rng = np.random.default_rng(7)
        tensors = [np.array([[1.0, 0.99], [0.99, 1.0]])]
        while len(tensors) < 9:
            q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            a = (q * np.exp(rng.uniform(0.0, math.log(55.0), 3))) @ q.T
            if 30.0 <= np.linalg.cond(a) <= 55.0:
                tensors.append(0.5 * (a + a.T))
        cases = []  # (A, x, y, lag)
        for a in tensors:
            n = a.shape[0]
            y = np.array([0.1, -0.2, 0.3][3 - n:])
            spread = 4.0 * math.sqrt(dt * np.linalg.eigvalsh(a).max())
            cases.append((a, y + spread * rng.uniform(-1.0, 1.0, (150 if n < 3 else 60, n)), y, dt))
        # Large exponents E = d.A^-1 d / (4 dt) of 50 to 700 on diagonal
        # tensors, where the rounding of d = x - y moves Gamma and its
        # gradient about as much as E's own: without it in est, a 1-D
        # gradient at E = 133 (the first case) erred by 1.15 est.
        cases.append((np.array([[14.907774942026533]]), np.array([[3.7152169611212127]]),
                      np.array([1.530440679917649]), 0.0006008464459784245))
        for n in (1, 1, 2, 3):
            a = np.diag(rng.uniform(0.5, 60.0, n))
            lag = dt * 10.0 ** rng.uniform(-4.0, 0.0)
            y = np.array([0.1, -0.2, 0.3][3 - n:])
            e = rng.uniform(50.0, 700.0, 200 if n == 1 else 60)
            u = rng.normal(size=(e.size, n))
            u /= np.linalg.norm(u, axis=1)[:, None]
            reach = np.sqrt(4.0 * lag * e / np.einsum("ki,ki->k", u * u, 1.0 / np.diag(a)[None]))
            cases.append((a, y + u * reach[:, None], y, lag))
        for a, x, y, lag in cases:
            n = a.shape[0]
            res = KernelEvaluator(homogeneous_medium(validate_tensor(a))).eval_many(
                x, lag, y, 0.0, source_gradient=True)
            gamma, grad = long_double_gaussian(a, x, y, lag)
            err = np.abs(res["gamma"] - gamma).astype(float)
            g_err = np.maximum(np.abs(res["grad"] - grad), np.abs(res["sgrad"] + grad))
            assert np.all(err <= res["est"]), n
            assert np.all(g_err.astype(float).max(axis=1) <= res["est"]), n

    @pytest.mark.parametrize("tensor", [[[1.3]], [[2.0, 1.0], [1.0, 2.0]],
                                        [[1.5, 0.2, 0.0], [0.2, 1.0, -0.1], [0.0, -0.1, 2.0]]],
                             ids=["1d", "2d", "3d"])
    def test_homogeneous_forms_no_exponential(self, monkeypatch, tensor):
        # Every term of a homogeneous medium is the closed form: no term
        # forms weights or exponentials, and neither the phase layer (cos
        # psi) nor the tail bound runs, for a kernel batch or a cube Green
        # function's image sum.
        def not_run(*args):
            raise AssertionError("transform work on a homogeneous medium")

        for owner, name in ((inverse_transform, "_term_weights"), (KernelEvaluator, "_phase_sums"),
                            (inverse_transform, "_tail_bound")):
            monkeypatch.setattr(owner, name, not_run)
        t_mat = validate_tensor(tensor)
        n = t_mat.dim
        med = homogeneous_medium(t_mat)
        rng = np.random.default_rng(n)
        y = np.array([0.1, -0.2, 0.3][3 - n:])
        x = y + rng.uniform(-0.8, 0.8, (30, n))
        res = KernelEvaluator(med).eval_many(x, 0.2, y, 0.0, source_gradient=True)
        exact = gaussian_kernel(t_mat, x, 0.2, y, 0.0)
        g_exact = gaussian_gradient(t_mat, x, 0.2, y, 0.0).reshape(-1, n)
        assert np.all(np.abs(res["gamma"] - exact) <= res["est"])
        assert np.all(np.abs(res["grad"] - g_exact).max(axis=1) <= res["est"])
        assert np.array_equal(res["sgrad"], -res["grad"])
        if n > 1:
            diagonal = homogeneous_medium(validate_tensor(np.diag(np.diag(tensor))))
            cg = CubeGreen(diagonal, Cube(half_width=1.0, center=np.zeros(n)), depth=2)
            green = cg.evaluate_many(np.clip(x, -0.9, 0.9), 0.05, y, 0.0)
            assert np.all(np.isfinite(green["gamma"])) and np.all(green["gamma"] >= 0.0)


class TestEvaluatorReuse:
    """An evaluator keeps only what (medium, tolerance) fix, built on first
    use: a call's bytes do not depend on the calls made before it."""

    @pytest.mark.parametrize("upper,lower", LAYERED)
    def test_sequence_matches_fresh_evaluators(self, upper, lower):
        med = TwoLayerMedium(upper=validate_tensor(upper), lower=validate_tensor(lower))
        ev = KernelEvaluator(med)
        rng = np.random.default_rng(med.dim)
        for dt in (0.01, 0.1, 0.7):
            for k in (1, 6):
                for source_gradient in (False, True):
                    y = rng.uniform(-1.0, 1.0, med.dim)
                    x = y + rng.uniform(-0.6, 0.6, (k, med.dim))
                    reused = ev.eval_many(x, dt, y, 0.0, source_gradient=source_gradient)
                    fresh = KernelEvaluator(med).eval_many(x, dt, y, 0.0,
                                                           source_gradient=source_gradient)
                    assert reused.keys() == fresh.keys()
                    for key in fresh:
                        assert reused[key].tobytes() == fresh[key].tobytes(), (dt, k, key)

    def test_whole_symbol_reaches_a_new_evaluator(self, monkeypatch, whole_symbol):
        # The fixture patches closed_form_regions before the evaluator is
        # built, so its calls, the second as the first, send the direct
        # term through the transform.
        def no_closed_form(*args):
            raise AssertionError("the direct term went to the closed form")

        monkeypatch.setattr(KernelEvaluator, "_direct", no_closed_form)
        t_mat = validate_tensor([[2.0, 1.0], [1.0, 2.0]])
        ev = KernelEvaluator(homogeneous_medium(t_mat))
        y = np.array([0.1, 0.3])
        x = y + np.array([[0.2, -0.1], [-0.3, 0.25]])
        for dt in (0.05, 0.3):
            res = ev.eval_many(x, dt, y, 0.0)
            assert np.all(np.abs(res["gamma"] - gaussian_kernel(t_mat, x, dt, y, 0.0)) <= res["est"])


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


def test_gauss_rules_are_shared_read_only():
    # gauss_tensor_grid builds each Gauss-Legendre rule once; what it
    # returns is its own, so a caller that writes to it changes no rule.
    pts, wts = gauss_tensor_grid([[(0.0, 1.0, 5)], [(-1.0, 0.0, 5), (0.0, 2.0, 3)]])
    pts[:], wts[:] = 0.0, 0.0
    pts, wts = gauss_tensor_grid([[(0.0, 1.0, 5)], [(-1.0, 0.0, 5), (0.0, 2.0, 3)]])
    assert wts.sum() == pytest.approx(3.0) and pts.shape == (40, 2)
    assert np.sum(wts * pts[:, 0] ** 9 * pts[:, 1] ** 5) == pytest.approx(0.1 * 63.0 / 6.0)
    x, w = inverse_transform._leggauss(5)
    assert inverse_transform._leggauss(5)[0] is x
    assert not (x.flags.writeable or w.flags.writeable)
