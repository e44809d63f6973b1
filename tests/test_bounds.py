import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from layerheat.medium import (
    Cube,
    TwoLayerMedium,
    UnsupportedDimension,
    homogeneous_medium,
    validate_tensor,
)
from layerheat.inverse_transform import KernelEvaluator, QuadratureNotConverged
from layerheat.oracle import Grid, interior_solution_sampler
from layerheat import bounds
from layerheat.bounds import (
    BoundFitReport,
    ExponentMismatch,
    NoFiniteConstant,
    SampleSpec,
    fit_aronson,
    fit_gradient_bound,
    interior_estimate_check,
    q_rho_bound,
    q_rho_integral,
    q_rho_radius,
    schur_bound,
    schur_verify,
)


def layered_1d(a=1.0, b=4.0):
    return TwoLayerMedium(upper=validate_tensor([[a]]), lower=validate_tensor([[b]]))


SMALL_SPEC = SampleSpec(n_time_groups=8, n_per_group=8)


class TestGaussianBoundFits:
    def test_homogeneous_constant_and_slope(self):
        # for the unit 1-D heat kernel the optimal C satisfies
        # C (4 pi)^{1/2} >= 1 at r = 0, so C is moderate
        ev = KernelEvaluator(homogeneous_medium(validate_tensor([[1.0]])))
        rep = fit_aronson(ev, SMALL_SPEC)
        assert np.isfinite(rep.fitted_constant)
        assert rep.fitted_constant < 4.0
        assert rep.exponent_slope == pytest.approx(-0.5, abs=0.01)

    def test_gradient_slope(self):
        ev = KernelEvaluator(homogeneous_medium(validate_tensor([[1.0]])))
        rep = fit_gradient_bound(ev, SMALL_SPEC)
        assert np.isfinite(rep.fitted_constant)
        assert rep.exponent_slope == pytest.approx(-1.0, abs=0.02)

    def test_layered_stable_under_refinement(self):
        ev = KernelEvaluator(layered_1d())
        c1 = fit_aronson(ev, SMALL_SPEC).fitted_constant
        c2 = fit_aronson(
            ev, SampleSpec(n_time_groups=16, n_per_group=16)
        ).fitted_constant
        assert abs(c2 - c1) / c1 < 0.05

    def test_monotone_in_sample_set(self):
        # more samples can only push the smallest feasible constant up
        ev = KernelEvaluator(layered_1d())
        c_small = fit_aronson(ev, SampleSpec(n_time_groups=4, n_per_group=4)).fitted_constant
        c_big = fit_aronson(ev, SampleSpec(n_time_groups=8, n_per_group=8)).fitted_constant
        assert c_big >= c_small - 1e-12

    def test_no_finite_constant(self):
        class Broken:
            medium = homogeneous_medium(validate_tensor([[1.0]]))

            def eval_many(self, x, t, y, s, **kw):
                x = np.atleast_2d(x)
                huge = np.full(x.shape[0], 1e15)
                return {
                    "gamma": huge,
                    "grad": huge[:, None] * np.ones((1, x.shape[1])),
                    "est": np.zeros_like(huge),
                }

        with pytest.raises(NoFiniteConstant):
            fit_aronson(Broken(), SMALL_SPEC)

    # Samples (value, r^2, dt); values and offsets include exact zeros.
    CLOSED_FORM_SAMPLES = st.lists(
        st.tuples(
            st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
            st.one_of(st.just(0.0), st.floats(1e-6, 16.0)),
            st.floats(1e-2, 1.0),
        ),
        min_size=1,
        max_size=12,
    )

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(samples=CLOSED_FORM_SAMPLES, n_exp=st.sampled_from((0.5, 1.0, 1.5, 2.0)))
    def test_closed_form_constant_is_smallest(self, samples, n_exp):
        vals, r2, dts = (np.array(col) for col in zip(*samples))
        assume(np.any(vals > 0.0))

        def feasible(c):
            return bool(np.all(vals <= c * dts ** (-n_exp) * np.exp(-r2 / (c * dts))))

        c = bounds._smallest_constant(vals, r2, dts, n_exp)
        assert feasible(c)
        assert not feasible(c * (1.0 - 1e-9))

    @pytest.mark.parametrize("vals", [[np.nan, 1.0], [1.0, np.nan], [2e9, 1.0]])
    def test_closed_form_refuses_nan_and_huge(self, vals):
        # r^2 = 0 and dt = 1: the constant is the largest value itself.
        vals = np.array(vals)
        with pytest.raises(NoFiniteConstant):
            bounds._smallest_constant(vals, np.zeros(2), np.ones(2), 0.5)

    def test_report_json_keys(self):
        rep = BoundFitReport(
            fitted_constant=2.0,
            exponent_slope=-0.5,
            sample_count=3,
            worst_ratio_location=(np.array([0.1]), 0.2, np.array([0.0]), 0.0),
            residual=0.01,
        )
        data = json.loads(rep.to_json())
        assert set(data) == {"constant", "slope", "samples", "worst_point", "residual"}
        assert data["constant"] == 2.0


class TestCylinderBound:
    def test_radius_formula(self):
        assert q_rho_radius([1.0], 1.0, [0.0], 0.0) == pytest.approx(
            0.25 * np.sqrt(2.0)
        )

    def test_bound_cases_1d(self):
        ev = KernelEvaluator(layered_1d())
        rep = fit_aronson(ev, SMALL_SPEC)
        c = rep.fitted_constant
        # case (i): parabolic distance dominated by space
        val = q_rho_integral(ev, [1.2], 1.0, [0.2], 0.8)
        assert val <= q_rho_bound(c, 1, [1.2], 1.0, [0.2], 0.8)
        # case (ii): dominated by time
        val = q_rho_integral(ev, [0.3], 1.0, [0.25], 0.1)
        assert val <= q_rho_bound(c, 1, [0.3], 1.0, [0.25], 0.1)

    def test_parabolic_rescaling_invariance(self):
        # x -> lam x, t -> lam^2 t maps the kernel to lam^{-n} times the
        # kernel of the same medium; the square integral over the rescaled
        # cylinder picks up lam^{n+2} * lam^{-2n} = lam^{2-n}
        ev = KernelEvaluator(layered_1d())
        lam = 2.0
        base = q_rho_integral(ev, [0.8], 0.5, [0.2], 0.0, check_convergence=False)
        scaled = q_rho_integral(
            ev, [lam * 0.8], lam**2 * 0.5, [lam * 0.2], 0.0, check_convergence=False
        )
        assert scaled == pytest.approx(lam ** (2 - 1) * base, rel=1e-6)

    def test_requires_time_order(self):
        ev = KernelEvaluator(layered_1d())
        with pytest.raises(ValueError):
            q_rho_integral(ev, [0.5], 0.1, [0.2], 0.5)

    def test_three_d_refused(self):
        # The cylinder is a disc in 2-D; a 3-D one was sampled on a disc too,
        # and the 2-column points then failed the evaluator's shape check.
        ev = KernelEvaluator(homogeneous_medium(validate_tensor(np.eye(3))))
        with pytest.raises(UnsupportedDimension, match="n in"):
            q_rho_integral(ev, [0.5, 0.1, 0.3], 1.0, [0.0, 0.0, 0.2], 0.0)


class TestInteriorEstimate:
    @staticmethod
    def aligned_grid():
        # spacing h = 2/80 and dt = 0.4/160 make every rho in the sweep an
        # exact multiple of h and every rho^2, 4 rho^2 a multiple of dt,
        # so the discrete cylinders match the continuum ones exactly
        return Grid(
            box=Cube(half_width=1.0, center=np.array([0.0])),
            nodes_per_dim=81,
            dt=0.4 / 160,
            t_span=(0.0, 0.4),
        )

    def test_linear_solution_slope_and_constant(self):
        # u = x has |grad u| = 1 and an L^2 norm computable in closed form:
        # ||u||^2 = 4 rho^2 * 2 (2rho)^3 / 3 = 64 rho^5 / 3, so every rho
        # gives c = sqrt(3)/8 ~ 0.2165 and the LHS/L2 slope is exactly
        # -(n/2 + 2) = -2.5; discrete trapezoid quadrature of the small
        # cylinders biases c upward by a few percent
        med = homogeneous_medium(validate_tensor([[1.0]]))
        sol = interior_solution_sampler(med, lambda p, t: p[:, 0], self.aligned_grid())
        rep = interior_estimate_check([sol], [0.1, 0.15, 0.2, 0.3])
        exact_c = np.sqrt(3.0) / 8.0
        assert rep.fitted_constant == pytest.approx(exact_c, rel=0.12)
        assert rep.exponent_slope == pytest.approx(-2.5, rel=0.05)

    def test_layered_stable_constant(self):
        med = layered_1d()
        from layerheat.oracle import random_boundary_generator

        gen = random_boundary_generator(1, seed=5)
        sol = interior_solution_sampler(med, gen, self.aligned_grid())
        rep = interior_estimate_check([sol], [0.1, 0.15, 0.2, 0.3])
        assert np.isfinite(rep.fitted_constant) and rep.fitted_constant > 0

    def test_zero_solution_rejected(self):
        med = homogeneous_medium(validate_tensor([[1.0]]))
        sol = interior_solution_sampler(med, lambda p, t: 0.0 * p[:, 0], self.aligned_grid())
        with pytest.raises(NoFiniteConstant):
            interior_estimate_check([sol], [0.1, 0.2])

    def test_rho_too_large_rejected(self):
        med = homogeneous_medium(validate_tensor([[1.0]]))
        sol = interior_solution_sampler(med, lambda p, t: p[:, 0], self.aligned_grid())
        with pytest.raises(ValueError):
            interior_estimate_check([sol], [0.5])


class TestSchur:
    def test_constant_kernel_exact(self):
        k = np.ones((40, 40))
        # L1 = L2 = 1 for q = 1, so the bound is 1 = the true L2 -> L2 norm
        assert schur_bound(k, 2.0, 2.0, 1.0) == pytest.approx(1.0)
        assert schur_verify(k, 2.0, 2.0, 1.0) <= 1.0 + 1e-12

    def test_never_exceeded_random_kernels(self):
        rng = np.random.default_rng(0)
        for _ in range(3):
            k = rng.uniform(0.0, 2.0, size=(30, 25))
            assert schur_verify(k, 2.0, 2.0, 1.0) <= 1.0 + 1e-12

    def test_nontrivial_exponents(self):
        rng = np.random.default_rng(1)
        k = rng.uniform(0.0, 1.0, size=(20, 20))
        # p1 = 4, p2 = 2, q = 4/3 satisfies 1/p2 + 1/q = 1/p1 + 1
        assert schur_verify(k, 4.0, 2.0, 4.0 / 3.0) <= 1.0 + 1e-12

    def test_exponent_mismatch(self):
        k = np.ones((5, 5))
        with pytest.raises(ExponentMismatch):
            schur_bound(k, 2.0, 2.0, 2.0)
        with pytest.raises(ExponentMismatch):
            schur_bound(k, 0.5, 2.0, 1.0)
