import cmath

import numpy as np
import pytest

from layerheat.medium import OnInterface, TwoLayerMedium, homogeneous_medium, validate_tensor
from layerheat.symbols import (
    Region,
    RegionMismatch,
    SpectralPoint,
    SymbolTable,
    classify_region,
    region_contains,
    region_terms,
    theta_squared,
    transmission_residuals,
    v_symbol,
)
from symbol_checks import (
    in_analyticity_domain,
    ode_residual,
    root_avoidance_check,
    symbol_decay_margin,
)


def layered_1d(a=1.0, b=4.0):
    return TwoLayerMedium(
        upper=validate_tensor([[a]]), lower=validate_tensor([[b]])
    )


def layered_2d():
    return TwoLayerMedium(
        upper=validate_tensor([[2.0, 1.0], [1.0, 2.0]]),
        lower=validate_tensor([[3.0, -0.5], [-0.5, 1.5]]),
    )


def mirrored_medium(medium):
    """Medium seen after reflecting the normal axis (layers swap)."""
    axis = medium.dim - 1
    return TwoLayerMedium(
        upper=medium.lower.reflected(axis), lower=medium.upper.reflected(axis)
    )


def thetas(medium, sp):
    """Theta_A, Theta_B at one spectral point, as region_terms takes them."""
    th2_A, th2_B = theta_squared(medium, sp.xi_prime[None, :], np.array([sp.tau]))
    return complex(np.sqrt(th2_A[0, 0])), complex(np.sqrt(th2_B[0, 0]))


def term_arrays(term):
    """The arrays of a region term: coefficient, then phase and root of p and of q."""
    return term.coef, term.p.phase, term.p.root, term.q.phase, term.q.root


def random_spectral_points(dim, count, seed=0):
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(count):
        xi = rng.standard_normal(dim - 1) * rng.uniform(0.1, 4.0)
        tau = complex(rng.uniform(0.2, 4.0), rng.uniform(-30.0, 30.0))
        pts.append(SpectralPoint(xi_prime=xi.astype(complex), tau=tau))
    return pts


class TestTheta:
    def test_closed_form_anisotropic(self):
        # A = [[2,1],[1,2]], xi' = 1, tau = i: Theta^2 = a_nn(a11 xi^2 + tau)
        # - (a12 xi)^2 = 2(2 + i) - 1 = 3 + 2i; principal root via cmath.
        med = homogeneous_medium(validate_tensor([[2.0, 1.0], [1.0, 2.0]]))
        sp = SpectralPoint(xi_prime=np.array([1.0 + 0j]), tau=1j)
        theta_A, _ = thetas(med, sp)
        expected = cmath.sqrt(3 + 2j)
        assert abs(theta_A - expected) < 1e-14
        assert theta_A.real > 0

    def test_positive_real_part_randomized(self):
        med = layered_2d()
        for sp in random_spectral_points(2, 200, seed=1):
            theta_A, theta_B = thetas(med, sp)
            assert theta_A.real > 0
            assert theta_B.real > 0

    def test_root_avoidance(self):
        med = layered_2d()
        for sp in random_spectral_points(2, 50, seed=2):
            assert root_avoidance_check(med, sp)


class TestRegions:
    def test_classification(self):
        assert classify_region(2.0, 1.0) is Region.R11
        assert classify_region(0.5, 1.0) is Region.R12
        assert classify_region(-0.5, 1.0) is Region.R2
        assert classify_region(0.5, -1.0) is Region.R1
        assert classify_region(-0.5, -1.0) is Region.R21
        assert classify_region(-2.0, -1.0) is Region.R22

    def test_source_on_interface_rejected(self):
        with pytest.raises(OnInterface):
            classify_region(0.5, 0.0)

    def test_region_mismatch(self):
        med = layered_1d()
        sp = SpectralPoint(xi_prime=np.zeros(0, complex), tau=1.0 + 0j)
        with pytest.raises(RegionMismatch):
            v_symbol(Region.R2, med, x_n=0.5, y_n=1.0, sp=sp)
        with pytest.raises(RegionMismatch):
            transmission_residuals(med, sp, y_n=-0.5)


class TestSymbolIdentities:
    """Continuity/flux identities of the region symbols, randomized."""

    @pytest.mark.parametrize("med", [layered_1d(), layered_1d(1.0, 10.0), layered_2d()])
    def test_continuity_at_source_plane(self, med):
        for sp in random_spectral_points(med.dim, 40, seed=3):
            y_n = 0.7
            va = v_symbol(Region.R11, med, y_n, y_n, sp)
            vb = v_symbol(Region.R12, med, y_n, y_n, sp)
            assert abs(va - vb) <= 1e-12 * max(abs(va), 1e-30)

    @pytest.mark.parametrize("med", [layered_1d(), layered_2d()])
    def test_continuity_at_interface(self, med):
        for sp in random_spectral_points(med.dim, 40, seed=4):
            y_n = 0.5
            va = v_symbol(Region.R12, med, 0.0, y_n, sp)
            vb = v_symbol(Region.R2, med, 0.0, y_n, sp)
            assert abs(va - vb) <= 1e-11 * max(abs(va), 1e-30)

    @pytest.mark.parametrize("med", [layered_1d(), layered_2d()])
    def test_flux_matching_at_interface(self, med):
        # Conormal flux a_nn dV/dx_n + i a.xi' V continuous at x_n = 0.
        a_nn = med.upper.a_nn
        b_nn = med.lower.a_nn
        for sp in random_spectral_points(med.dim, 40, seed=5):
            y_n = 0.5
            a_vec = med.upper.normal_row.astype(complex)
            b_vec = med.lower.normal_row.astype(complex)
            fa = a_nn * v_symbol(Region.R12, med, 0.0, y_n, sp, derivative=1)
            fb = b_nn * v_symbol(Region.R2, med, 0.0, y_n, sp, derivative=1)
            if med.dim > 1:
                fa += 1j * (a_vec @ sp.xi_prime) * v_symbol(Region.R12, med, 0.0, y_n, sp)
                fb += 1j * (b_vec @ sp.xi_prime) * v_symbol(Region.R2, med, 0.0, y_n, sp)
            assert abs(fa - fb) <= 1e-10 * max(abs(fa), 1e-30)

    @pytest.mark.parametrize("med", [layered_1d(), layered_1d(1.0, 10.0), layered_2d()])
    def test_transmission_residuals(self, med):
        for sp in random_spectral_points(med.dim, 60, seed=6):
            res = transmission_residuals(med, sp, y_n=0.8)
            assert float(np.max(res)) < 1e-12

    @pytest.mark.parametrize(
        "region,x_n,y_n",
        [
            (Region.R11, 1.5, 0.7),
            (Region.R12, 0.3, 0.7),
            (Region.R2, -0.6, 0.7),
            (Region.R1, 0.6, -0.7),
            (Region.R21, -0.3, -0.7),
            (Region.R22, -1.5, -0.7),
        ],
    )
    def test_ode_residual_all_regions(self, region, x_n, y_n):
        # The symbol solves the transform-domain ODE; a finite-difference
        # residual must vanish at second order in the step.
        med = layered_2d()
        sp = SpectralPoint(xi_prime=np.array([0.7 + 0j]), tau=1.0 + 2.0j)
        r1 = abs(ode_residual(region, med, x_n, y_n, sp, h=1e-3))
        r2 = abs(ode_residual(region, med, x_n, y_n, sp, h=5e-4))
        scale = abs(v_symbol(region, med, x_n, y_n, sp))
        assert r1 < 1e-4 * max(scale, 1e-30)
        assert r2 < 0.3 * r1  # roughly quarter at half step


class TestMirrorSymmetry:
    def test_value_symmetry(self):
        # Swapping the layers (reflecting the normal axis) and negating both
        # normal coordinates is an exact symmetry of the construction; the
        # x_n-derivative changes sign under the mirror.  Every lower-source
        # region is checked against its upper-source mirror.
        media = [
            (layered_1d(), SpectralPoint(xi_prime=np.zeros(0, complex), tau=1.2 + 0.7j)),
            (layered_2d(), SpectralPoint(xi_prime=np.array([0.4 + 0j]), tau=0.8 + 1.5j)),
        ]
        pairs = [
            (Region.R22, Region.R11, -1.2, -0.5),
            (Region.R21, Region.R12, -0.3, -0.5),
            (Region.R1, Region.R2, 0.4, -0.5),
        ]
        for med, sp in media:
            for region, mirror, x_n, y_n in pairs:
                for derivative in (0, 1):
                    v_direct = v_symbol(region, med, x_n, y_n, sp, derivative)
                    v_mirror = v_symbol(mirror, mirrored_medium(med), -x_n, -y_n, sp,
                                        derivative)
                    err = abs(v_direct - (-1) ** derivative * v_mirror)
                    assert err < 1e-13 * abs(v_direct), (med.dim, region, derivative)


class TestAnalyticityDomain:
    def test_membership(self):
        sp = SpectralPoint(xi_prime=np.array([1.0 + 0j]), tau=1.0 + 0.1j)
        # eta = tau/i = 0.1 - 1i: Im eta = -1 < mu(...) for any mu > 0
        assert in_analyticity_domain(sp, mu=0.1)

    def test_exclusion(self):
        # strongly positive Im eta with tiny mu is outside
        sp = SpectralPoint(xi_prime=np.array([0.0 + 0j]), tau=1j * (0.01 + 5.0j))
        assert not in_analyticity_domain(sp, mu=0.05)

    def test_decay_margin_bounded(self):
        # the margin log|V| + log(freq) + c|x_n-y_n| freq stays bounded
        # above over spectral samples (exponential decay of the symbols)
        med = layered_1d()
        worst = -np.inf
        for sp in random_spectral_points(1, 100, seed=9):
            m = symbol_decay_margin(Region.R11, med, 2.0, 0.5, sp)
            worst = max(worst, m)
        assert worst < 3.0


class TestRegionTerms:
    @pytest.mark.parametrize("medium", [
        layered_1d(1.0, 4.0),
        layered_2d(),
        TwoLayerMedium(
            upper=validate_tensor([[1.5, 0.2, 0.1], [0.2, 1.0, -0.1], [0.1, -0.1, 2.0]]),
            lower=validate_tensor([[2.0, 0.3, -0.4], [0.3, 2.5, 0.2], [-0.4, 0.2, 3.0]]),
        ),
    ], ids=["1d", "2d", "3d"])
    def test_shared_table_matches_fresh(self, medium):
        # One table read by all six regions in turn gives, bit for bit, the
        # terms each region builds on its own.
        rng = np.random.default_rng(4)
        d = medium.dim - 1
        xi = (rng.standard_normal((7, d)) + 0.1j * rng.standard_normal((7, d)))
        tau = rng.uniform(0.2, 3.0, 5) + 1j * rng.uniform(-20.0, 20.0, 5)
        table = SymbolTable(medium, xi, tau)
        for region in Region:
            shared = region_terms(region, medium, xi, tau, table=table)
            fresh = region_terms(region, medium, xi, tau)
            assert len(shared) == len(fresh)
            for got, want in zip(shared, fresh):
                assert got.name == want.name and got.coef.shape == (7, 5)
                for a, b in zip(term_arrays(got), term_arrays(want)):
                    assert a.tobytes() == b.tobytes()
            # The evaluator puts one phase back per region.
            assert len({(t.p.phase_sign, id(t.p.phase), t.q.phase_sign, id(t.q.phase))
                        for t in shared}) == 1
        # A term shared by two regions is the same arrays of the table.
        r11 = region_terms(Region.R11, medium, xi, tau, table=table)
        r12 = region_terms(Region.R12, medium, xi, tau, table=table)
        assert r11[1].name == r12[0].name
        assert all(a is b for a, b in zip(term_arrays(r11[1]), term_arrays(r12[0])))

    def test_table_of_another_grid_rejected(self):
        med = layered_2d()
        xi = np.array([[0.5 + 0j]])
        tau = np.array([1.0 + 1.0j])
        table = SymbolTable(med, xi, tau)
        with pytest.raises(ValueError):
            region_terms(Region.R11, med, xi.copy(), tau, table=table)

    def test_term_count(self):
        med = layered_2d()
        xi = np.array([[0.5 + 0j]])
        tau = np.array([1.0 + 1.0j])
        assert len(region_terms(Region.R11, med, xi, tau)) == 2
        assert len(region_terms(Region.R2, med, xi, tau)) == 1
        assert len(region_terms(Region.R1, med, xi, tau)) == 1
        assert len(region_terms(Region.R21, med, xi, tau)) == 2

    def test_region_contains(self):
        assert region_contains(Region.R11, 1.0, 0.5)
        assert not region_contains(Region.R11, 0.2, 0.5)
