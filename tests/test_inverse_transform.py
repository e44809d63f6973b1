import numpy as np
import pytest

from layerheat.medium import (
    KernelQuery,
    MediumError,
    OnInterface,
    TwoLayerMedium,
    homogeneous_medium,
    validate_tensor,
)
from layerheat.inverse_transform import (
    _CONTOUR_ROWS,
    ContourLeavesDomain,
    KernelEvaluator,
    QuadratureConfig,
    _hyperbolic_nodes,
    certify_mu,
    delta_recovery,
    eval_kernel,
    mass_integral,
)
from layerheat.reference import (
    gaussian_gradient,
    gaussian_kernel,
    layered_gradient_1d,
    layered_kernel_1d,
)
from layerheat.symbols import SpectralPoint, in_analyticity_domain


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
        with pytest.raises(ValueError):
            QuadratureConfig(contour_nodes=4)
        with pytest.raises(ValueError):
            QuadratureConfig(target_rel_tol=2.0)

    def test_mu_certification_layered(self):
        mu = certify_mu(layered_1d())
        assert mu > 0

    def test_contour_stays_in_domain(self):
        # The nodes the evaluator integrates on lie inside L_mu for its
        # certified mu, at real tangential frequency.
        for med in (layered_1d(), layered_2d_anisotropic()):
            ev = KernelEvaluator(med)
            m = ev.cfg.contour_nodes
            zero = np.zeros(med.dim - 1)
            for dt in (0.01, 0.5, 10.0):
                tau, w = ev._contour(m, dt)
                assert tau.shape == w.shape == (m + 1,)
                assert np.all(np.isfinite(tau)) and np.all(np.isfinite(w))
                # The half rule stands for the mirrored nodes conj(tau) too.
                for tk in np.concatenate([tau, tau.conj()]):
                    assert in_analyticity_domain(SpectralPoint(zero, tk), ev.cfg.mu)

    def test_forced_mu_too_large_rejected(self):
        med = homogeneous_medium(validate_tensor([[1.0, 0.9], [0.9, 1.0]]))
        with pytest.raises(ContourLeavesDomain):
            KernelEvaluator(med, QuadratureConfig(mu=50.0))


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

    def test_nonnumeric_time_rejected(self):
        ev = KernelEvaluator(layered_1d())
        x, y = np.array([[0.5]]), np.array([0.4])
        for t, s in (("x", 0.0), (0.5, None)):
            with pytest.raises(MediumError):
                ev.eval_many(x, t, y, s)

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
        q = KernelQuery(x=np.array([0.5]), t=0.5, y=np.array([0.2]), s=0.0)
        kv = eval_kernel(med, q)
        exact = gaussian_kernel(med.upper, np.array([[0.5]]), 0.5, np.array([0.2]), 0.0)
        assert abs(kv.gamma - exact) < 1e-9 * exact
        assert kv.est_error >= 0


class TestHalfRule:
    """The half contour rule needs a point-symmetric xi' grid and a real kernel."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_xi_grid_point_symmetric(self, n):
        med = TwoLayerMedium(upper=validate_tensor(np.eye(n)),
                             lower=validate_tensor(np.diag([2.0, 3.0, 1.5][:n])))
        ev = KernelEvaluator(med)
        # (dt, doublings, osc); the last case splits panels (n_j > 400)
        cases = [(0.01, 0, 0.0), (0.3, 2, 1.5), (2.0, 5, 0.2), (0.1, 1, 100.0)]
        for dt, doublings, osc_max in cases:
            osc = np.array([osc_max, min(osc_max, 0.5)])[:n - 1]
            radius = ev._base_radius(dt)
            panels = ev._xi_panels(radius, doublings, osc[0], dt, 1.0)
            assert (len(panels) > 2 * doublings + 1) == (osc_max > 50.0)
            for factor in (1.0, 0.7):
                xi, wq = ev._xi_grid(radius, doublings, osc, dt, factor)
                assert np.array_equal(xi[::-1], -xi)
                assert np.array_equal(wq[::-1], wq)

    @pytest.mark.parametrize("row", _CONTOUR_ROWS)
    def test_contour_inverts_known_transforms(self, row):
        rel_err = row[-1]
        for dt in (0.01, 0.3, 1.0):
            tau, w = _hyperbolic_nodes(row, 64, dt)
            we = w * np.exp(tau * dt)
            inv_pole = np.sum(we / (tau + 1.0)).real
            inv_sqrt = np.sum(we / np.sqrt(tau)).real
            assert abs(inv_pole / np.exp(-dt) - 1.0) < rel_err
            assert abs(inv_sqrt * np.sqrt(np.pi * dt) - 1.0) < rel_err

    def test_anisotropic_values_pinned(self):
        # Values of the full (k = -M..M) rule, one point per region, on a
        # medium whose tangential coupling makes the +-xi' pairing matter.
        med = TwoLayerMedium(upper=validate_tensor([[1.0, 0.3], [0.3, 1.0]]),
                             lower=validate_tensor(np.diag([2.0, 3.0])))
        x = np.array([[0.3, 0.5], [-0.2, 0.1], [0.4, -0.3],
                      [-0.5, 0.6], [0.1, -0.2], [0.25, -0.6]])
        y = np.array([[0.0, 0.2], [0.1, 0.4], [0.0, 0.3],
                      [0.2, -0.4], [-0.1, -0.5], [0.05, -0.1]])
        full = {
            "gamma": [0.1873378558275967, 0.17027095184766483, 0.11723129511299175,
                      0.05781247140707318, 0.1363984981107962, 0.13188306012776213],
            "grad": [[-0.06396245463233786, -0.021090166633224064],
                     [0.05375621274229525, 0.1934996022252541],
                     [-0.06969538088851045, 0.0629107228890462],
                     [0.06559831257123268, -0.09937765293779113],
                     [-0.026058400227288375, 0.0020987536689085614],
                     [-0.025305826898453357, 0.04700970840885181]],
            "sgrad": [[0.06396245463233786, 0.18829583544766113],
                      [-0.05375621274229525, -0.02201014498922161],
                      [0.06969538088851045, -0.09572751378836182],
                      [-0.06559831257123268, 0.04597243021384675],
                      [0.026058400227288375, 0.03672268596880735],
                      [0.025305826898453357, -0.008188268771122127]],
        }
        res = KernelEvaluator(med).eval_many(x, 0.3, y, 0.0, source_gradient=True)
        for key, ref in full.items():
            ref = np.array(ref)
            assert np.max(np.abs(res[key] - ref)) < 1e-11 * np.max(np.abs(ref))


class TestMassAndDelta:
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
