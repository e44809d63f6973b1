"""Acceptance suite: one check per shipped guarantee, one PASS/FAIL line each.

Each test prints a single summary line (visible with pytest -s or on
failure) and asserts the quantitative criterion it states.
"""
import json

import numpy as np
import pytest

from layerheat.medium import (
    Cube,
    KernelQuery,
    TwoLayerMedium,
    homogeneous_medium,
    validate_tensor,
)
from layerheat.symbols import (
    Region,
    SpectralPoint,
    transmission_residuals,
    v_symbol,
)
from layerheat.inverse_transform import (
    KernelEvaluator,
    QuadratureConfig,
    delta_recovery,
    eval_kernel,
    mass_integral,
)
from layerheat.images import CubeGreen, HalfSpaceGreen, adjoint_green
from layerheat.oracle import Grid, fdm_solve, interior_solution_sampler, random_boundary_generator
from layerheat.bounds import (
    SampleSpec,
    fit_aronson,
    fit_gradient_bound,
    interior_estimate_check,
    q_rho_bound,
    q_rho_integral,
    schur_verify,
)
from layerheat.reference import gaussian_kernel, layered_kernel_1d
from layerheat.cli import main as cli_main


def report(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} [{desc}]: {status}{tail}")
    return ok


def layered_1d(a=1.0, b=4.0):
    return TwoLayerMedium(upper=validate_tensor([[a]]), lower=validate_tensor([[b]]))


def mollified_initial(grid, y, eps):
    pts = grid.points()
    r2 = np.sum((pts - y) ** 2, axis=1)
    u0 = np.exp(-r2 / (2.0 * eps * eps)).reshape(grid.shape)
    w1 = np.full(grid.nodes_per_dim, grid.spacing)
    w1[0] = w1[-1] = grid.spacing / 2.0
    w = w1 if grid.dim == 1 else np.multiply.outer(w1, w1)
    return u0 / float(np.sum(w * u0))


def test_criterion_01_homogeneous_exactness():
    worst = 0.0
    # n = 1, identity coefficient: 20 positions x 5 times = 100 points
    med1 = homogeneous_medium(validate_tensor([[1.0]]))
    ev1 = KernelEvaluator(med1)
    xs = np.linspace(-1.2, 1.2, 21)
    xs = xs[xs != 0.0][:, None]
    for t in (0.05, 0.1, 0.2, 0.4, 0.8):
        res = ev1.eval_many(xs, t, np.array([0.1]), 0.0)
        exact = gaussian_kernel(med1.upper, xs, t, np.array([0.1]), 0.0)
        worst = max(worst, float(np.max(np.abs(res["gamma"] - exact) / exact)))
    # n = 2, anisotropic SPD case: 25 positions x 4 times = 100 points
    t_mat = validate_tensor([[2.0, 1.0], [1.0, 2.0]])
    med2 = homogeneous_medium(t_mat)
    ev2 = KernelEvaluator(med2)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.0, 1.0, size=(25, 2))
    pts[pts[:, -1] == 0.0, -1] = 0.1
    y = np.array([0.2, 0.3])
    for t in (0.1, 0.2, 0.4, 0.8):
        res = ev2.eval_many(pts, t, y, 0.0)
        exact = gaussian_kernel(t_mat, pts, t, y, 0.0)
        worst = max(worst, float(np.max(np.abs(res["gamma"] - exact) / exact)))
    ok = worst <= 1e-6
    assert report(1, "homogeneous exactness", ok, f"worst rel err {worst:.2e}")


def test_criterion_02_layered_1d_closed_form():
    worst = 0.0
    for b in (4.0, 10.0):
        med = layered_1d(1.0, b)
        ev = KernelEvaluator(med)
        xs = np.concatenate(
            [np.linspace(-2.5, -0.05, 25), np.linspace(0.05, 2.5, 25)]
        )[:, None]
        res = ev.eval_many(xs, 0.5, np.array([0.4]), 0.0)
        exact = layered_kernel_1d(1.0, b, xs[:, 0], 0.5, 0.4, 0.0)
        worst = max(worst, float(np.max(np.abs(res["gamma"] - exact) / exact)))
    ok = worst <= 1e-6
    assert report(2, "layered 1-D closed form", ok, f"worst rel err {worst:.2e}")


def test_criterion_03_symbol_identities():
    med = TwoLayerMedium(
        upper=validate_tensor([[2.0, 1.0], [1.0, 2.0]]),
        lower=validate_tensor([[3.0, -0.5], [-0.5, 1.5]]),
    )
    rng = np.random.default_rng(42)
    a_nn, b_nn = med.upper.a_nn, med.lower.a_nn
    a_vec = med.upper.normal_row.astype(complex)
    b_vec = med.lower.normal_row.astype(complex)
    worst_iface = 0.0
    worst_system = 0.0
    for _ in range(1000):
        xi = rng.standard_normal(1) * rng.uniform(0.1, 4.0)
        tau = complex(rng.uniform(0.2, 4.0), rng.uniform(-30.0, 30.0))
        sp = SpectralPoint(xi_prime=xi.astype(complex), tau=tau)
        y_n = float(rng.uniform(0.1, 1.5))
        va = v_symbol(Region.R12, med, 0.0, y_n, sp)
        vb = v_symbol(Region.R2, med, 0.0, y_n, sp)
        fa = a_nn * v_symbol(Region.R12, med, 0.0, y_n, sp, derivative=1) \
            + 1j * (a_vec @ sp.xi_prime) * va
        fb = b_nn * v_symbol(Region.R2, med, 0.0, y_n, sp, derivative=1) \
            + 1j * (b_vec @ sp.xi_prime) * vb
        scale = max(abs(va), abs(fa), 1e-300)
        worst_iface = max(worst_iface, abs(va - vb) / max(abs(va), 1e-300))
        worst_iface = max(worst_iface, abs(fa - fb) / max(abs(fa), 1e-300))
        worst_system = max(
            worst_system, float(np.max(transmission_residuals(med, sp, y_n)))
        )
    ok = worst_iface < 1e-10 and worst_system < 1e-12
    assert report(
        3, "symbol identities", ok,
        f"interface {worst_iface:.2e}, 4x4 system {worst_system:.2e}",
    )


def test_criterion_04_physical_space_residuals():
    med = layered_1d(1.0, 4.0)
    ev = KernelEvaluator(med, QuadratureConfig(target_rel_tol=1e-11))
    t, s, y = 0.5, 0.0, np.array([-0.6])
    x0 = 1.0  # upper layer, away from source and interface
    a = 1.0

    def gamma(x, tt):
        return float(ev.eval_many(np.array([[x]]), tt, y, s)["gamma"][0])

    def residual(h):
        k = h * h
        ut = (gamma(x0, t + k) - gamma(x0, t - k)) / (2.0 * k)
        uxx = (gamma(x0 + h, t) - 2.0 * gamma(x0, t) + gamma(x0 - h, t)) / (h * h)
        return abs(ut - a * uxx)

    r1, r2 = residual(0.1), residual(0.05)
    pde_order = np.log2(r1 / r2)

    hs = np.array([0.2, 0.1, 0.05])
    jumps = []
    for h in hs:
        res = ev.eval_many(np.array([[h], [-h]]), t, y, s)
        jumps.append(abs(1.0 * res["grad"][0, 0] - 4.0 * res["grad"][1, 0]))
    flux_order = float(np.polyfit(np.log(hs), np.log(jumps), 1)[0])
    ok = pde_order >= 1.9 and flux_order >= 0.9
    assert report(
        4, "PDE/flux residual orders", ok,
        f"pde order {pde_order:.2f}, flux order {flux_order:.2f}",
    )


def test_criterion_05_mass_and_delta():
    m_h = mass_integral(homogeneous_medium(validate_tensor([[1.3]])), 0.4, np.array([0.3]))
    m_l = mass_integral(layered_1d(), 0.4, np.array([0.3]))
    med = layered_1d()
    y = np.array([0.3])
    phi = lambda p: float(np.exp(-np.sum((np.asarray(p) - y) ** 2)))
    vals = delta_recovery(med, y, phi, [0.08, 0.04, 0.02, 0.01])
    errs = np.abs(np.asarray(vals) - phi(y))
    ratios = errs[:-1] / errs[1:]
    ok = (
        abs(m_h - 1.0) < 1e-4
        and abs(m_l - 1.0) < 1e-4
        and np.all(ratios > 1.4)
        and np.all(ratios < 3.0)
    )
    assert report(
        5, "mass and delta recovery", ok,
        f"mass {m_h:.6f}/{m_l:.6f}, halving ratios {np.round(ratios, 2)}",
    )


@pytest.mark.slow
def test_criterion_06_oracle_agreement_2d(tmp_path):
    cfg = {
        "medium": {"upper": [[1.0, 0.0], [0.0, 1.0]], "lower": [[2.0, 0.0], [0.0, 2.0]]},
        "compare_oracle": {
            "t": 0.25,
            "y": [0.0, 0.5],
            "levels": [51, 101, 201],
            "time_steps": 10,
            "max_points": 800,
            "max_rel_err": 0.02,
        },
        "output": str(tmp_path / "cmp.json"),
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code = cli_main(["compare-oracle", str(p)])
    rep = json.loads((tmp_path / "cmp.json").read_text())
    errs = [lvl["linf_rel"] for lvl in rep["levels"]]
    ok = code == 0 and rep["passed"] and errs[-1] <= 0.02 and errs == sorted(errs, reverse=True)
    assert report(
        6, "layered 2-D vs FDM oracle", ok,
        "bulk Linf " + "/".join(f"{e:.2%}" for e in errs),
    )


def test_criterion_07_gaussian_bound_fits():
    details = []
    ok = True
    for med, dim in (
        (homogeneous_medium(validate_tensor([[1.0]])), 1),
        (homogeneous_medium(validate_tensor([[1.5, 0.0], [0.0, 0.8]])), 2),
    ):
        ev = KernelEvaluator(med)
        spec = SampleSpec(n_time_groups=8, n_per_group=8)
        rep_a = fit_aronson(ev, spec)
        rep_g = fit_gradient_bound(ev, spec)
        ok &= np.isfinite(rep_a.fitted_constant) and np.isfinite(rep_g.fitted_constant)
        ok &= abs(rep_a.exponent_slope + dim / 2.0) <= 0.01
        ok &= abs(rep_g.exponent_slope + (dim + 1) / 2.0) <= 0.02
        details.append(f"n={dim} slopes {rep_a.exponent_slope:.3f}/{rep_g.exponent_slope:.3f}")
    ev = KernelEvaluator(layered_1d())
    c1 = fit_aronson(ev, SampleSpec(n_time_groups=16, n_per_group=16)).fitted_constant
    c2 = fit_aronson(ev, SampleSpec(n_time_groups=32, n_per_group=16)).fitted_constant
    drift = abs(c2 - c1) / c1
    ok &= drift <= 0.05
    details.append(f"layered C drift {drift:.2%}")
    assert report(7, "Gaussian bound fits", ok, "; ".join(details))


@pytest.mark.slow
def test_criterion_08_cylinder_energy_bound():
    qcfg = QuadratureConfig(target_rel_tol=1e-6)
    details = []
    ok = True
    for med, dim in (
        (layered_1d(1.0, 4.0), 1),
        (
            TwoLayerMedium(
                upper=validate_tensor([[1.0, 0.0], [0.0, 1.0]]),
                lower=validate_tensor([[2.0, 0.0], [0.0, 2.0]]),
            ),
            2,
        ),
    ):
        ev = KernelEvaluator(med, qcfg)
        c_fit = max(
            fit_aronson(ev, SampleSpec(n_time_groups=8, n_per_group=8)).fitted_constant,
            1.0,
        )
        rng = np.random.default_rng(13)
        worst = 0.0
        nt, ns = (10, 12) if dim == 1 else (6, 6)
        for case in ("space", "time"):
            for _ in range(200):
                xi = rng.uniform(-1.0, 1.0, dim)
                t0, tau = 0.0, -float(rng.uniform(0.05, 0.5))
                gap = np.sqrt(t0 - tau)
                r = (
                    float(rng.uniform(1.0, 2.5)) * gap
                    if case == "space"
                    else float(rng.uniform(0.05, 0.9)) * gap
                )
                d = rng.standard_normal(dim)
                x0 = xi + r * d / np.linalg.norm(d)
                val = q_rho_integral(
                    ev, x0, t0, xi, tau,
                    n_time=nt, n_space=ns, check_convergence=False,
                )
                worst = max(worst, val / q_rho_bound(c_fit, dim, x0, t0, xi, tau))
        ok &= worst <= 1.0
        details.append(f"n={dim} worst ratio {worst:.3f}")
    assert report(8, "parabolic cylinder energy bound", ok, "; ".join(details))


def test_criterion_09_interior_gradient_estimate():
    # homogeneous: u = x1 gives the exact rho-scaling exponent -(n/2 + 2)
    grid = Grid(
        box=Cube(half_width=1.0, center=np.array([0.0])),
        nodes_per_dim=81,
        dt=0.4 / 160,
        t_span=(0.0, 0.4),
    )
    med_h = homogeneous_medium(validate_tensor([[1.0]]))
    sol = interior_solution_sampler(med_h, lambda p, t: p[:, 0], grid)
    rep_h = interior_estimate_check([sol], [0.1, 0.15, 0.2, 0.3])
    slope_ok = abs(rep_h.exponent_slope + 2.5) <= 0.25  # within 10 percent

    med_l = layered_1d()
    cs = []
    for nodes in (81, 161):
        g = Grid(
            box=Cube(half_width=1.0, center=np.array([0.0])),
            nodes_per_dim=nodes,
            dt=0.4 / 160,
            t_span=(0.0, 0.4),
        )
        sols = [
            interior_solution_sampler(med_l, random_boundary_generator(1, seed=k), g)
            for k in range(3)
        ]
        cs.append(interior_estimate_check(sols, [0.1, 0.15, 0.2, 0.3]).fitted_constant)
    drift = abs(cs[1] - cs[0]) / cs[0]
    layered_ok = all(np.isfinite(c) and c > 0 for c in cs) and drift <= 0.2
    ok = slope_ok and layered_ok
    assert report(
        9, "interior gradient estimate", ok,
        f"slope {rep_h.exponent_slope:.3f}, layered c {cs[0]:.4f} drift {drift:.2%}",
    )


@pytest.mark.slow
def test_criterion_10_green_functions():
    # (a) cube boundary values below the certified tail + estimate budget
    med = homogeneous_medium(validate_tensor([[1.0, 0.0], [0.0, 2.0]]))
    cube = Cube(half_width=1.0, center=np.array([0.0, 0.0]))
    cg = CubeGreen(med, cube, depth=2)
    bpts = cg.boundary_samples(per_face=4)
    bres = cg.evaluate_many(bpts, 0.2, np.array([0.1, -0.3]), 0.0)
    budget = cg.tail_bound(0.2) + 10.0 * float(bres["est"].max())
    sup_b = float(np.abs(bres["gamma"]).max())
    boundary_ok = sup_b <= budget

    # (b) adjoint relation holds bit-exactly
    adj = adjoint_green(cg)
    x, y = np.array([0.3, -0.2]), np.array([-0.4, 0.5])
    d = cg.evaluate_many(x[None, :], 0.5, y, 0.1, source_gradient=True)
    a = adj.evaluate_many(y[None, :], 0.1, x, 0.5, source_gradient=True)
    adjoint_ok = (
        a["gamma"][0] == d["gamma"][0]
        and np.array_equal(a["grad"], d["sgrad"])
        and np.array_equal(a["sgrad"], d["grad"])
        and adjoint_green(adj) is cg
    )

    # (c) layered half-space Green vs a Dirichlet finite-difference solve
    med_l = TwoLayerMedium(
        upper=validate_tensor([[1.0, 0.0], [0.0, 1.0]]),
        lower=validate_tensor([[2.0, 0.0], [0.0, 3.0]]),
    )
    t_final, y_src = 0.25, np.array([0.0, 0.5])
    grid = Grid(
        box=Cube(half_width=4.0, center=np.array([2.0, 0.0])),
        nodes_per_dim=101,
        dt=t_final / 50,
        t_span=(0.0, t_final),
    )
    eps = 3.0 * grid.spacing
    u0 = mollified_initial(grid, y_src, eps)
    fd = fdm_solve(med_l, grid, u0, bc="dirichlet0", scheme="crank_nicolson")
    hs = HalfSpaceGreen(med_l, axis=0, offset=-2.0, side=1)
    pts = grid.points()
    r = np.linalg.norm(pts - y_src, axis=1)
    sel = (
        (r > 3.0 * eps)
        & (pts[:, 0] > -1.9) & (pts[:, 0] < 1.5)
        & (np.abs(pts[:, 1]) < 1.5)
    )
    idx = np.where(sel)[0]
    idx = idx[:: max(1, idx.size // 250)]
    probe = pts[idx].copy()
    probe[probe[:, -1] == 0.0, -1] = 1e-9
    from numpy.polynomial.hermite_e import hermegauss

    zn, zw = hermegauss(9)
    zw = zw / np.sqrt(2.0 * np.pi)
    ref = np.zeros(idx.size)
    for wi, zi in zip(zw, zn):
        for wj, zj in zip(zw, zn):
            ysh = y_src + eps * np.array([zi, zj])
            ref += wi * wj * hs.evaluate_many(probe, t_final, ysh, 0.0,
                                              source_gradient=False)["gamma"]
    fd_vals = fd.final.ravel()[idx]
    rel = float(np.abs(fd_vals - ref).max() / np.abs(ref).max())
    fdm_ok = rel <= 0.02
    ok = boundary_ok and adjoint_ok and fdm_ok
    assert report(
        10, "Green functions", ok,
        f"boundary sup {sup_b:.1e} <= {budget:.1e}, adjoint bit-exact "
        f"{adjoint_ok}, half-space vs FDM {rel:.2%}",
    )


def test_criterion_11_schur_bound():
    rng = np.random.default_rng(2)
    kernels = [
        np.ones((40, 50)),
        (np.linspace(0, 1, 40)[:, None] > np.linspace(0, 1, 50)[None, :]).astype(float),
        np.abs(rng.standard_normal((30, 30))),
    ]
    worst = max(
        schur_verify(k, 2.0, 2.0, 1.0) for k in kernels
    )
    ok = worst <= 1.0 + 1e-10
    assert report(11, "Schur operator bound", ok, f"worst ratio {worst:.3f}")
