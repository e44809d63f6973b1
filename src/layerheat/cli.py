"""Command-line interface: batch kernel/Green evaluation and verification.

Commands read a JSON config and write CSV or JSON outputs atomically
(temp file + rename, so failures leave no partial output).  Exit codes:

* 0 success
* 2 config error (parse/validation)
* 3 quadrature failed to converge
* 4 unsupported geometry
* 5 verification assertion failed (report is still written)

Set LAYERHEAT_THREADS to a positive integer to parallelize evaluation
over query chunks (values above the CPU count are capped to it; one source
per target is chunked with its targets); output ordering always follows
input order.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from . import bounds, oracle, symbols
from .medium import (
    Cube,
    MediumError,
    TwoLayerMedium,
    UnsupportedDimension,
    validate_tensor,
)
from .inverse_transform import (
    KernelEvaluator,
    QuadratureConfig,
    QuadratureNotConverged,
    delta_recovery,
    mass_integral,
)
from .images import (
    CubeGreen,
    HalfSpaceGreen,
    TruncationInsufficient,
    UnsupportedGeometry,
    adjoint_green,
)


class ConfigError(ValueError):
    """Invalid or missing configuration field."""


FMT = "%.17g"


def _require(cfg: dict, key: str, default=None):
    """cfg[key], or ``default`` when it is missing.  ConfigError unless cfg
    is a JSON object, or if the field is missing and has no default."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"config field {key!r} must be in a JSON object")
    if key not in cfg and default is None:
        raise ConfigError(f"missing config field {key!r}")
    return cfg.get(key, default)


def _integer(v) -> int:
    """int(v) for an integral number such as 4 or 4.0; ValueError for a
    fraction, a non-finite number or a bool (int() truncates a fraction,
    overflows on infinity and takes True for 1)."""
    if isinstance(v, bool) or not (isinstance(v, int) or float(v).is_integer()):
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


def _count(v) -> int:
    """_integer(v) for a count, which must be at least 1."""
    m = _integer(v)
    if m < 1:
        raise ValueError(f"{v!r} is not positive")
    return m


def _natural(v) -> int:
    """_integer(v) for a seed, which must be at least 0."""
    m = _integer(v)
    if m < 0:
        raise ValueError(f"{v!r} is negative")
    return m


def _counts(v) -> list:
    """[_count(m) for m in v] for a non-empty list v."""
    if not v:
        raise ValueError("empty list")
    return [_count(m) for m in v]


# What a config value must be -> the conversion that checks it.
_CASTS = {
    "a number": float,
    "an integer": _integer,
    "a positive integer": _count,
    "a non-negative integer": _natural,
    "an array of numbers": lambda v: np.asarray(v, dtype=float),
    "a list of integers": lambda v: [_integer(m) for m in v],
    "a non-empty list of positive integers": _counts,
}


def _field(cfg: dict, key: str, kind: str = "a number", default=None):
    """cfg[key], or ``default`` when it is missing, converted to ``kind``.

    ConfigError if the field is missing and has no default, or if its
    value cannot be converted.
    """
    raw = _require(cfg, key, default)
    try:
        return _CASTS[kind](raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field {key!r} must be {kind}") from exc


def _source(params: dict, n: int, y_n: float) -> np.ndarray:
    """The source ``y`` of a check, by default (0, ..., 0, y_n); ConfigError
    unless it holds one entry per medium dimension."""
    y = _field(params, "y", "an array of numbers", [0.0] * (n - 1) + [y_n])
    if y.shape != (n,):
        raise ConfigError(f"'y' needs one entry per medium dimension ({n})")
    return y


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return cfg


def parse_medium(cfg: dict) -> TwoLayerMedium:
    spec = _require(cfg, "medium")
    try:
        upper = validate_tensor(_require(spec, "upper"))
        lower = validate_tensor(spec.get("lower", spec["upper"]))
        return TwoLayerMedium(upper=upper, lower=lower)
    except MediumError as exc:
        raise ConfigError(f"invalid medium: {exc}") from exc


def parse_quadrature(cfg: dict) -> QuadratureConfig:
    q = cfg.get("quadrature", {})
    try:
        return QuadratureConfig(**q)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid quadrature config: {exc}") from exc


def _query_points(cfg: dict, dim: int) -> np.ndarray:
    if "x" in cfg:
        pts = np.atleast_2d(_field(cfg, "x", "an array of numbers"))
    elif "grid" in cfg:
        g = cfg["grid"]
        lows = np.atleast_1d(_field(g, "min", "an array of numbers"))
        highs = np.atleast_1d(_field(g, "max", "an array of numbers"))
        counts = _field(g, "points", "a list of integers")
        if not lows.shape == highs.shape == (len(counts),) == (dim,):
            raise ConfigError(
                f"grid 'min', 'max' and 'points' need one entry per medium dimension ({dim})")
        if min(counts) < 1:
            raise ConfigError("query has no points")
        axes = [np.linspace(lo, hi, m) for lo, hi, m in zip(lows, highs, counts)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
    else:
        raise ConfigError("query needs 'x' (list of points) or 'grid'")
    if pts.size == 0:
        raise ConfigError("query has no points")
    if pts.shape[1] != dim:
        raise ConfigError(f"query dimension {pts.shape[1]} != medium dim {dim}")
    # Targets exactly on the interface are reported as upper-side limits
    # (the kernel is continuous there; the normal gradient is one-sided).
    pts[pts[:, -1] == 0.0, -1] = 1e-300
    return pts


def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _n_threads() -> int:
    """LAYERHEAT_THREADS (default 1), capped at the number of CPUs."""
    raw = os.environ.get("LAYERHEAT_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError(f"LAYERHEAT_THREADS must be a positive integer, not {raw!r}")
    return min(n, os.cpu_count() or 1)


def _chunked_eval(fn, pts: np.ndarray, y: np.ndarray):
    """Run fn(targets, sources) over chunks of pts, possibly threaded,
    preserving order; one source per target (y of ndim 2) is split with
    its targets."""
    n_threads = _n_threads()
    if n_threads == 1 or pts.shape[0] < 2 * n_threads:
        return fn(pts, y)
    chunks = np.array_split(pts, n_threads)
    sources = np.array_split(y, n_threads) if y.ndim == 2 else [y] * n_threads
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        parts = list(pool.map(fn, chunks, sources))
    return {
        key: (np.concatenate([p[key] for p in parts]) if parts[0][key] is not None
              else None)
        for key in parts[0]
    }


def _csv_rows(pts, t, y, s, res) -> str:
    n = pts.shape[1]
    header = (
        ",".join(f"x{j + 1}" for j in range(n))
        + ",t,"
        + ",".join(f"y{j + 1}" for j in range(n))
        + ",s,gamma,"
        + ",".join(f"grad{j + 1}" for j in range(n))
        + ",est_error\n"
    )
    y2 = np.broadcast_to(np.asarray(y, dtype=float), pts.shape)
    lines = [header]
    for i in range(pts.shape[0]):
        vals = (
            list(pts[i]) + [t] + list(y2[i]) + [s, res["gamma"][i]]
            + list(res["grad"][i]) + [res["est"][i]]
        )
        lines.append(",".join(FMT % v for v in vals) + "\n")
    return "".join(lines)


def cmd_eval(cfg: dict, output: str) -> int:
    medium = parse_medium(cfg)
    qcfg = parse_quadrature(cfg)
    params = _require(cfg, "eval")
    t = _field(params, "t")
    s = _field(params, "s")
    y = _field(params, "y", "an array of numbers")
    pts = _query_points(params, medium.dim)
    ev = KernelEvaluator(medium, qcfg)
    res = _chunked_eval(lambda p, yc: ev.eval_many(p, t, yc, s), pts, y)
    _atomic_write(output, _csv_rows(pts, t, y, s, res))
    return 0


def cmd_green(cfg: dict, output: str) -> int:
    medium = parse_medium(cfg)
    qcfg = parse_quadrature(cfg)
    params = _require(cfg, "green")
    t = _field(params, "t")
    s = _field(params, "s")
    y = _field(params, "y", "an array of numbers")
    pts = _query_points(params, medium.dim)
    kind = _require(params, "kind")
    if kind == "cube":
        c = _require(params, "cube")
        cube = Cube(
            half_width=_field(c, "half_width"),
            center=_field(c, "center", "an array of numbers"),
        )
        if "tail_constant" in params:
            raise ConfigError("'tail_constant' was removed: the cube tail bound is exact")
        green = CubeGreen(medium, cube, qcfg, depth=_field(params, "depth", "an integer", 2))
        bpts = green.boundary_samples(_field(params, "boundary_samples", "a positive integer", 5))
        b_src = y
        if y.ndim == 2:
            # One source per target: the sup runs over every (sample, source) pair.
            srcs = np.unique(y, axis=0)
            bpts, b_src = np.tile(bpts, (len(srcs), 1)), np.repeat(srcs, len(bpts), axis=0)
        bres = green.evaluate_many(bpts, t, b_src, s, source_gradient=False)
        summary = (
            f"# boundary sup |G| = {FMT % np.abs(bres['gamma']).max()}, "
            f"tail bound = {FMT % green.tail_bound(t - s)}, "
            f"max est_error = {FMT % bres['est'].max()}\n"
        )
    elif kind == "half_space":
        f = _require(params, "face")
        green = HalfSpaceGreen(
            medium,
            axis=_field(f, "axis", "an integer"),
            offset=_field(f, "offset"),
            side=_field(f, "side", "an integer", 1),
            cfg=qcfg,
        )
        probe = pts.copy()
        probe[:, green.axis] = green.offset + green.side * 1e-7
        bres = green.evaluate_many(probe, t, y, s, source_gradient=False)
        summary = (
            f"# face sup |G| = {FMT % np.abs(bres['gamma']).max()}, "
            f"max est_error = {FMT % bres['est'].max()}\n"
        )
    else:
        raise ConfigError(f"unknown green kind {kind!r}")
    res = _chunked_eval(
        lambda p, yc: green.evaluate_many(p, t, yc, s, source_gradient=False), pts, y
    )
    _atomic_write(output, _csv_rows(pts, t, y, s, res) + summary)
    return 0


def _verify_fit(medium, qcfg, seed, params, name):
    ev = KernelEvaluator(medium, qcfg)
    spec = bounds.SampleSpec(seed=seed if seed else 7)
    fit = bounds.fit_aronson if name == "aronson" else bounds.fit_gradient_bound
    try:
        rep = fit(ev, spec)
    except bounds.NoFiniteConstant as exc:
        return False, {"error": str(exc)}
    n = medium.dim
    expect = -(n / 2.0) if name == "aronson" else -((n + 1) / 2.0)
    ceiling = _field(params, "max_constant", default=1e4)
    ok = (
        math.isfinite(rep.fitted_constant)
        and 0 < rep.fitted_constant <= ceiling
    )
    if medium.is_homogeneous:
        ok = ok and abs(rep.exponent_slope - expect) < 0.05
    return ok, json.loads(rep.to_json())


def _verify_qrho(medium, qcfg, seed, params):
    n = medium.dim
    if n not in (1, 2):  # refused before the fit, as q_rho_integral would after it
        raise UnsupportedDimension(f"qrho supports n in {{1, 2}}, not {n}")
    n_samp = _field(params, "samples", "a positive integer", 40)
    ev = KernelEvaluator(medium, qcfg)
    rng = np.random.default_rng(seed or 3)
    c_fit = max(bounds.fit_aronson(ev).fitted_constant, 1.0)
    worst = 0.0
    for _ in range(n_samp):
        x0 = rng.uniform(-1, 1, n)
        xi = rng.uniform(-1, 1, n)
        t0 = 0.0
        tau = -float(rng.uniform(0.02, 0.6))
        val = bounds.q_rho_integral(ev, x0, t0, xi, tau, check_convergence=False)
        bnd = bounds.q_rho_bound(c_fit, n, x0, t0, xi, tau)
        worst = max(worst, val / bnd)
    return worst <= 1.0, {"constant": c_fit, "worst_ratio": worst,
                          "samples": n_samp}


def _verify_interior(medium, qcfg, seed, params):
    n = medium.dim
    grid = oracle.Grid(
        box=Cube(half_width=1.0, center=np.zeros(n)),
        nodes_per_dim=_field(params, "nodes", "an integer", 41 if n == 2 else 81),
        dt=0.4 / 160,
        t_span=(0.0, 0.4),
    )
    sols = [
        oracle.interior_solution_sampler(
            medium, oracle.random_boundary_generator(n, seed + k), grid
        )
        for k in range(3)
    ]
    rep = bounds.interior_estimate_check(sols, [0.1, 0.15, 0.2, 0.3])
    ok = math.isfinite(rep.fitted_constant) and rep.fitted_constant > 0
    return ok, json.loads(rep.to_json())


def _verify_schur(medium, qcfg, seed, params):
    k1 = np.ones((40, 50))
    grid = np.linspace(0, 1, 40)[:, None] > np.linspace(0, 1, 50)[None, :]
    k2 = grid.astype(float)
    rng = np.random.default_rng(seed or 5)
    k3 = np.abs(rng.standard_normal((30, 30)))
    worst = max(
        bounds.schur_verify(k, 2.0, 2.0, 1.0) for k in (k1, k2, k3)
    )
    return worst <= 1.0 + 1e-10, {"worst_ratio": worst, "kernels": 3}


def _verify_transmission(medium, qcfg, seed, params):
    n = medium.dim
    rng = np.random.default_rng(seed or 1)
    worst = 0.0
    for _ in range(_field(params, "samples", "a positive integer", 200)):
        xi = rng.standard_normal(n - 1) * rng.uniform(0.2, 3.0)
        tau = complex(rng.uniform(0.3, 3.0), rng.uniform(-20.0, 20.0))
        sp = symbols.SpectralPoint(xi_prime=xi.astype(complex), tau=tau)
        y_n = float(rng.uniform(0.1, 1.5))
        res = symbols.transmission_residuals(medium, sp, y_n)
        worst = max(worst, float(np.max(res)))
    return worst < 1e-10, {"worst_residual": worst}


def _verify_mass(medium, qcfg, seed, params):
    y = _source(params, medium.dim, 0.4)
    dt = _field(params, "dt", default=0.3)
    val = mass_integral(medium, dt, y, qcfg)
    return abs(val - 1.0) < 1e-4, {"mass": val}


def _verify_delta(medium, qcfg, seed, params):
    y = _source(params, medium.dim, 0.3)
    phi = lambda p: float(np.exp(-np.sum((np.asarray(p) - y) ** 2)))
    dts = [0.08, 0.04, 0.02, 0.01]
    vals = delta_recovery(medium, y, phi, dts, qcfg)
    errs = np.abs(np.asarray(vals) - 1.0)
    ratios = errs[:-1] / errs[1:]
    ok = bool(np.all(ratios > 1.4)) and errs[-1] < 0.05
    return ok, {"values": list(map(float, vals)), "ratios": list(map(float, ratios))}


def _verify_adjoint(medium, qcfg, seed, params):
    n = medium.dim
    cube = Cube(half_width=1.5, center=np.zeros(n))
    try:
        green = CubeGreen(medium, cube, qcfg)
    except UnsupportedGeometry:
        return False, {"error": "cube green unsupported for this medium"}
    adj = adjoint_green(green)
    x = np.full((1, n), 0.4)
    y = np.full(n, -0.2)
    a = adj.evaluate_many(y[None, :], 0.1, x[0], 0.5)
    b = green.evaluate_many(x, 0.5, y, 0.1)
    exact = (
        a["gamma"][0] == b["gamma"][0]
        and np.array_equal(a["grad"][0], b["sgrad"][0])
        and np.array_equal(a["sgrad"][0], b["grad"][0])
        and adjoint_green(adj) is green
    )
    return bool(exact), {"gamma": float(b["gamma"][0]), "bit_exact": bool(exact)}


# verify.name -> check(medium, quadrature config, seed, verify params),
# which returns (passed, report dict).
VERIFY_CHECKS = {
    "aronson": partial(_verify_fit, name="aronson"),
    "gradient": partial(_verify_fit, name="gradient"),
    "qrho": _verify_qrho,
    "interior": _verify_interior,
    "schur": _verify_schur,
    "transmission": _verify_transmission,
    "mass": _verify_mass,
    "delta": _verify_delta,
    "adjoint": _verify_adjoint,
}


def _verify_payload(cfg: dict, name: str):
    """Run one verification harness; returns (passed, report dict)."""
    check = VERIFY_CHECKS.get(name) if isinstance(name, str) else None
    if check is None:
        raise ConfigError(f"unknown verify name {name!r}")
    return check(parse_medium(cfg), parse_quadrature(cfg),
                 _field(cfg, "seed", "a non-negative integer", 0), cfg.get("verify", {}))


def cmd_verify(cfg: dict, output: str) -> int:
    name = _require(_require(cfg, "verify"), "name")
    passed, payload = _verify_payload(cfg, name)
    report = {"check": name, "passed": bool(passed), "detail": payload}
    _atomic_write(output, json.dumps(report, indent=2) + "\n")
    return 0 if passed else 5


def _oracle_probes(grid, y, eps: float, bulk: float, max_pts: int):
    """Node indices of a compare-oracle level's probes: the grid nodes inside
    ``bulk`` and farther than 3 eps from the source ``y``, at most
    ``max_pts`` of them, evenly thinned.  ConfigError if there are none.
    """
    pts = grid.points()
    r = np.linalg.norm(pts - y, axis=1)
    idx = np.where((r > 3.0 * eps) & np.all(np.abs(pts) < bulk, axis=1))[0]
    if idx.size == 0:
        raise ConfigError(
            f"compare_oracle level {grid.nodes_per_dim}: no grid node lies inside "
            f"bulk_half_width {bulk} and farther than {3.0 * eps:.3g} from y"
        )
    if idx.size > max_pts:
        idx = idx[:: int(np.ceil(idx.size / max_pts))].copy()
    return idx


def cmd_compare_oracle(cfg: dict, output: str) -> int:
    from numpy.polynomial.hermite_e import hermegauss

    from .oracle import Grid, approximate_kernel

    medium = parse_medium(cfg)
    qcfg = parse_quadrature(cfg)
    params = _require(cfg, "compare_oracle")
    n = medium.dim
    if n not in (1, 2):
        raise ConfigError("compare_oracle supports n in {1, 2}")
    t_final = _field(params, "t", default=0.25)
    y = _source(params, n, 0.5)
    levels = _field(params, "levels", "a non-empty list of positive integers", [101, 201, 401])
    half_width = _field(params, "box_half_width", default=4.0)
    steps0 = _field(params, "time_steps", "a positive integer", 10)
    scheme = params.get("scheme", "crank_nicolson")
    max_rel = _field(params, "max_rel_err", default=0.02)
    max_pts = _field(params, "max_points", "a positive integer", 1200)
    bulk = _field(params, "bulk_half_width", default=2.5)

    ev = KernelEvaluator(medium, qcfg)
    zn, zw = hermegauss(9)
    zw = zw / math.sqrt(2.0 * math.pi)
    rows = []
    prev_linf = None
    for lvl, m in enumerate(levels):
        grid = Grid(
            box=Cube(half_width=half_width, center=np.zeros(n)),
            nodes_per_dim=m,
            dt=t_final / (steps0 * 2**lvl),
            t_span=(0.0, t_final),
        )
        eps = 3.0 * grid.spacing
        idx = _oracle_probes(grid, y, eps, bulk, max_pts)
        gf = approximate_kernel(medium, y, eps, grid, scheme=scheme)
        probe = grid.points()[idx]
        probe[probe[:, -1] == 0.0, -1] = 1e-9
        # Mollified reference: kernel convolved with the same Gaussian
        # width in the source variable (Gauss-Hermite), so mollification
        # error cancels and the comparison isolates discretization error.
        ref = np.zeros(idx.size)
        for nodes in itertools.product(zip(zw, zn), repeat=n):
            ws, zs = zip(*nodes)
            ysh = y + eps * np.array(zs)
            ref += math.prod(ws) * ev.eval_many(probe, t_final, ysh, 0.0)["gamma"]
        fd = gf.final.ravel()[idx]
        scale = np.abs(ref).max()
        linf = float(np.abs(fd - ref).max() / scale)
        l2 = float(
            np.linalg.norm(fd - ref) / np.linalg.norm(ref)
        )
        row = {"nodes": m, "h": grid.spacing, "eps": eps,
               "linf_rel": linf, "l2_rel": l2}
        if prev_linf is not None:
            row["order"] = math.log2(prev_linf / linf)
        prev_linf = linf
        rows.append(row)
    passed = rows[-1]["linf_rel"] <= max_rel and all(
        rows[i + 1]["linf_rel"] < rows[i]["linf_rel"] for i in range(len(rows) - 1)
    )
    report = {"check": "compare_oracle", "passed": bool(passed), "levels": rows}
    _atomic_write(output, json.dumps(report, indent=2) + "\n")
    return 0 if passed else 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="layerheat",
        description="Kernel and Green-function evaluation for two-layer media",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("eval", "green", "verify", "compare-oracle"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to JSON config")
        p.add_argument("--output", help="override output path from config")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        output = args.output or cfg.get("output")
        if not output:
            raise ConfigError("no output path (config 'output' or --output)")
        handler = {
            "eval": cmd_eval,
            "green": cmd_green,
            "verify": cmd_verify,
            "compare-oracle": cmd_compare_oracle,
        }[args.command]
        return handler(cfg, output)
    except (ConfigError, MediumError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QuadratureNotConverged as exc:
        print(f"quadrature failed: {exc}", file=sys.stderr)
        return 3
    except (UnsupportedGeometry, TruncationInsufficient) as exc:
        print(f"unsupported geometry: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
