"""The four benchmark workloads: inputs from a seed, set-up, one cycle of
top-level calls, and an output check against `layerheat.reference`.

Each workload is a closed loop with one client: the benchmark calls the
next entry of `cycle()` only when the previous one has returned.  A cycle
is a fixed list of calls; its composition is chosen so that the median
call of a cycle falls inside the workload's dominant group of calls.  The seed moves points inside fixed envelopes (the largest
tangential offset of every scattered batch is pinned), so the amount of
work per cycle does not depend on the seed.

All library calls go through module attributes (`bounds.q_rho_integral`,
`cli.main`, ...) so that the tracer's wrappers see them.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from layerheat import bounds, cli, reference
from layerheat.images import CubeGreen, HalfSpaceGreen
from layerheat.inverse_transform import KernelEvaluator, QuadratureConfig
from layerheat.medium import (
    Cube,
    TwoLayerMedium,
    homogeneous_medium,
    validate_tensor,
)

# Relative error is taken against max(|exact|, FLOOR_SHARE * batch peak):
# plain relative error in the bulk, and error against a floor at 0.1 % of
# the batch's largest exact value in the tail, where a few 1e-14 of
# absolute error would otherwise read as a large relative error.  Deep-tail
# points (exact values near 1e-36) also feed the est and sign checks, where
# the known defects remain visible.
FLOOR_SHARE = 1e-3


@dataclass
class Call:
    """One top-level public call of a cycle."""

    name: str
    fn: object          # no-argument callable returning the call's output
    values: int         # values the call delivers
    group: str          # check group the output belongs to


@dataclass
class CheckTally:
    """Accumulates the output check of one workload."""

    max_rel_err: float = 0.0
    checked: int = 0        # points with a sign check (exact kernel > 0)
    negative: int = 0
    with_est: int = 0       # points with a closed form and a returned est
    est_miss: int = 0
    problems: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)   # extra figures for the details

    def closed_form(self, got, exact, est=None, grad=None, exact_grad=None):
        """Compare values (and optionally gradients) with a closed form."""
        got = np.asarray(got, dtype=float)
        exact = np.asarray(exact, dtype=float)
        err = np.abs(got - exact)
        scale = np.maximum(np.abs(exact), FLOOR_SHARE * np.max(np.abs(exact)))
        self.max_rel_err = max(self.max_rel_err, float(np.max(err / scale)))
        if grad is not None:
            gerr = np.max(np.abs(grad - exact_grad)) / np.max(np.abs(exact_grad))
            self.max_rel_err = max(self.max_rel_err, float(gerr))
        if est is not None:
            self.with_est += got.size
            self.est_miss += int(np.sum(err > est))

    def sign(self, got):
        got = np.asarray(got, dtype=float)
        self.checked += got.size
        self.negative += int(np.sum(got < 0.0))

    def finite(self, name, *arrays):
        for a in arrays:
            if a is not None and not np.all(np.isfinite(a)):
                self.problems.append(f"{name}: non-finite output")

    def require(self, ok: bool, what: str):
        if not ok:
            self.problems.append(what)


def _medium(upper, lower=None):
    up = validate_tensor(upper)
    return TwoLayerMedium(upper=up, lower=validate_tensor(lower) if lower is not None else up)


# The six regions of `symbols.Region` as (source side, target side, order),
# where order +1 puts the target at least as far from the interface as the
# source and -1 nearer: R11, R12, R2, R1, R22, R21.
REGION_PATTERNS = np.array([(1, 1, 1), (1, 1, -1), (1, -1, 0),
                            (-1, 1, 0), (-1, -1, 1), (-1, -1, -1)], dtype=float)


def _scattered(rng, k, n, dt, r_max):
    """K targets, each with its own source; offsets up to r_max*sqrt(dt).

    The first two points of each tangential axis sit at exactly +-r_max*sqrt(dt)
    along that axis, so the batch's largest tangential offset, which sets
    the xi grid, is the same for every seed.  The points cycle through the
    six regions of (x_n, y_n), so the share of points in each region, and
    with it the number of symbol terms, is the same for every seed too.
    """
    reach = r_max * math.sqrt(dt)
    y = rng.uniform(-1.0, 1.0, (k, n))
    d = rng.standard_normal((k, n))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    x = y + rng.uniform(0.0, reach, k)[:, None] * d
    for j in range(n - 1):
        for i, sgn in enumerate((1.0, -1.0)):
            row = 2 * j + i
            x[row, j] = y[row, j] + sgn * reach
    ax, ay = np.abs(x[:, -1]), np.abs(y[:, -1])
    y_side, x_side, order = REGION_PATTERNS[np.arange(k) % len(REGION_PATTERNS)].T
    far, near = np.maximum(ax, ay), np.minimum(ax, ay)
    ax = np.where(order > 0, far, np.where(order < 0, near, ax))
    ay = np.maximum(np.where(order > 0, near, np.where(order < 0, far, ay)), 0.02)
    ax = np.maximum(np.where(order > 0, np.maximum(ax, ay), ax), 1e-3)
    y[:, -1] = y_side * ay
    x[:, -1] = x_side * ax
    return x, y


def _strata(rng, k, lo, hi):
    """K points over [lo, hi], one uniform draw in each of K equal strata."""
    return lo + (hi - lo) * (rng.permutation(k) + rng.uniform(0.0, 1.0, k)) / k


class Workload:
    """Base class: subclasses set `name`, `value_kind` and the methods."""

    name = ""
    value_kind = ""

    def setup(self):
        """Build the evaluators and Green objects; returns the state."""
        raise NotImplementedError

    def cycle(self, state, small: bool = False) -> list:
        """The calls of one cycle; `small` gives the warm-up variant."""
        raise NotImplementedError

    def check(self, calls, outputs) -> CheckTally:
        """Check the outputs of one cycle against the closed forms."""
        raise NotImplementedError

    def trace_problems(self, tracer) -> list:
        """Workload-specific checks on a traced pass."""
        return []


class Scatter(Workload):
    """Scattered targets with their own sources, default tolerance 1e-8."""

    name = "scatter"
    value_kind = "kernel values"
    K1, K2, K3 = 960, 100, 8

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.a1, self.b1 = 1.0, 4.0
        self.inputs = []
        for dt in (0.01, 0.1, 0.3):
            # Targets over [-2.5, 2.5] reach the far tail at short lags,
            # where the known est misses and negative values sit.  Both
            # coordinates are stratified and the source sides balanced, so
            # the share of tail points is nearly the same at every seed.
            y = _strata(rng, self.K1, 0.05, 1.0) * rng.permutation(np.resize([1.0, -1.0], self.K1))
            x = _strata(rng, self.K1, -2.5, 2.5)
            x[np.abs(x) < 1e-3] = 1e-3
            self.inputs.append(("1d", dt, x[:, None], y[:, None]))
        for dt in (0.3, 0.1):
            x, y = _scattered(rng, self.K2, 2, dt, 4.0)
            self.inputs.append(("2d_layered", dt, x, y))
        x, y = _scattered(rng, self.K2, 2, 0.3, 4.0)
        self.inputs.append(("2d_homogeneous", 0.3, x, y))
        x, y = _scattered(rng, self.K3, 3, 0.3, 2.0)
        self.inputs.append(("3d_layered", 0.3, x, y))
        self.homog = validate_tensor([[1.5, 0.5], [0.5, 1.0]])

    def setup(self):
        return {
            "1d": KernelEvaluator(_medium([[self.a1]], [[self.b1]])),
            "2d_layered": KernelEvaluator(
                _medium([[1.0, 0.3], [0.3, 1.0]], [[2.0, 0.0], [0.0, 3.0]])),
            "2d_homogeneous": KernelEvaluator(homogeneous_medium(self.homog)),
            "3d_layered": KernelEvaluator(
                _medium(np.eye(3), np.diag([2.0, 2.0, 3.0]))),
        }

    def cycle(self, state, small=False):
        calls = []
        for group, dt, x, y in self.inputs:
            if small:
                x, y = x[:4], y[:4]
            ev = state[group]
            calls.append(Call(
                f"eval_many[{group},dt={dt}]",
                lambda ev=ev, x=x, y=y, dt=dt: ev.eval_many(x, dt, y, 0.0),
                x.shape[0], group,
            ))
        return calls

    def check(self, calls, outputs):
        tally = CheckTally()
        for (group, dt, x, y), out in zip(self.inputs, outputs):
            gam, grad, est = out["gamma"], out["grad"], out["est"]
            tally.finite(group, gam, grad, est)
            tally.sign(gam)
            if group == "1d":
                exact = np.array([reference.layered_kernel_1d(
                    self.a1, self.b1, xk, dt, yk, 0.0) for xk, yk in zip(x[:, 0], y[:, 0])])
                exact_g = np.array([reference.layered_gradient_1d(
                    self.a1, self.b1, xk, dt, yk, 0.0) for xk, yk in zip(x[:, 0], y[:, 0])])
                tally.closed_form(gam, exact, est, grad[:, 0], exact_g)
            elif group == "2d_homogeneous":
                exact = np.array([reference.gaussian_kernel(self.homog, xk, dt, yk, 0.0)
                                  for xk, yk in zip(x, y)])
                exact_g = np.array([reference.gaussian_gradient(self.homog, xk, dt, yk, 0.0)
                                    for xk, yk in zip(x, y)])
                tally.closed_form(gam, exact, est, grad, exact_g)
        tally.require(tally.max_rel_err <= 1e-6,
                      f"scatter: max rel err {tally.max_rel_err:.2e} > 1e-6")
        return tally


class Green(Workload):
    """Cube and layered half-space Green functions on tensor grids."""

    name = "green"
    value_kind = "Green values"
    CUBE_SIDE, HALF_SIDE = 5, 12
    CUBE_DT, HALF_DT = 0.2, 0.25

    def __init__(self, seed: int):
        # The region groups of an `eval_many` call, and with them its work
        # and memory, follow from the sides and order of the targets' and
        # sources' normal coordinates, and the xi grid from the largest
        # tangential offset.  So the grid rows are fixed, each source's
        # normal coordinate stays between the same two rows, and the seed
        # moves the grid columns and the sources' tangential coordinates
        # only a little.
        rng = np.random.default_rng([seed, 2])
        self.cube_a = (1.0, 2.0)
        cols = np.linspace(-0.9, 0.9, self.CUBE_SIDE) + rng.uniform(-0.05, 0.05)
        rows = np.linspace(-0.85, 0.95, self.CUBE_SIDE)
        self.cube_x = np.stack(np.meshgrid(cols, rows, indexing="ij"), -1).reshape(-1, 2)
        self.cube_y = [np.array([rng.uniform(-0.1, 0.1), rng.uniform(lo, hi)])
                       for lo, hi in ((0.1, 0.45), (-0.35, -0.05))]
        gx = np.linspace(-1.9, 1.5, self.HALF_SIDE) + rng.uniform(-0.02, 0.02)
        gy = np.linspace(-1.45, 1.45, self.HALF_SIDE)
        self.half_x = np.stack(np.meshgrid(gx, gy, indexing="ij"), -1).reshape(-1, 2)
        self.half_y = np.array([rng.uniform(-0.1, 0.1), rng.uniform(0.43, 0.6)])

    def setup(self):
        cube_med = homogeneous_medium(validate_tensor(np.diag(self.cube_a)))
        half_med = _medium(np.eye(2), [[2.0, 0.0], [0.0, 3.0]])
        return {
            "cube": CubeGreen(cube_med, Cube(half_width=1.0, center=np.zeros(2)), depth=2),
            "half_space": HalfSpaceGreen(half_med, axis=0, offset=-2.0, side=1),
        }

    def _inputs(self):
        out = [("cube", self.cube_x, self.CUBE_DT, y) for y in self.cube_y]
        out.append(("half_space", self.half_x, self.HALF_DT, self.half_y))
        return out

    def cycle(self, state, small=False):
        calls = []
        for group, x, dt, y in self._inputs():
            if small:
                x = x[:2]
            g = state[group]
            calls.append(Call(
                f"{type(g).__name__}.evaluate_many",
                lambda g=g, x=x, dt=dt, y=y: g.evaluate_many(x, dt, y, 0.0, source_gradient=True),
                x.shape[0], group,
            ))
        return calls

    def check(self, calls, outputs):
        tally = CheckTally()
        for (group, x, dt, y), out in zip(self._inputs(), outputs):
            tally.finite(group, out["gamma"], out["grad"], out["sgrad"], out["est"])
            tally.sign(out["gamma"])
            if group == "cube":
                exact = (
                    np.atleast_1d(reference.interval_green_1d(self.cube_a[0], x[:, 0], dt, y[0], 0.0, 1.0))
                    * np.atleast_1d(reference.interval_green_1d(self.cube_a[1], x[:, 1], dt, y[1], 0.0, 1.0))
                )
                tally.closed_form(out["gamma"], exact, out["est"])
        tally.require(tally.max_rel_err <= 1e-6,
                      f"green: max rel err {tally.max_rel_err:.2e} > 1e-6")
        return tally


class _Layered1dReference:
    """Closed-form 1-D layered kernel behind the `eval_many` interface, so
    `q_rho_integral` applies the identical quadrature to the exact kernel."""

    def __init__(self, a, b):
        self.a, self.b = a, b

    def eval_many(self, x, t, y, s, source_gradient=False):
        y = float(np.asarray(y, dtype=float).ravel()[0])
        g = reference.layered_kernel_1d(self.a, self.b, np.asarray(x)[:, 0], t, y, s)
        return {"gamma": np.atleast_1d(g)}


class Cylinder(Workload):
    """The criterion-8 loop: fit_aronson, then q_rho_integral calls, at 1e-6."""

    name = "cylinder"
    value_kind = "cylinder integrals"
    N1, N2 = 2, 3                      # integrals per cycle in 1-D and 2-D
    RULE = {1: (10, 12), 2: (6, 6)}    # (n_time, n_space) as in criterion 8

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        self.fit_seeds = {dim: int(rng.integers(1 << 30)) for dim in (1, 2)}
        self.cases = {dim: self._cases(rng, dim, k) for dim, k in ((1, self.N1), (2, self.N2))}

    @staticmethod
    def _cases(rng, dim, k):
        """Criterion-8 style cases, alternating space and time cases.

        The case shapes come from a fixed stream, with time gaps stratified
        over [0.05, 0.5].  The work of a case depends on how its cylinder
        sits against the interface.  In 1-D the seed jitters the shapes a
        little.  In 2-D the seed only moves each case along the interface
        and in time, and mirrors it across the normal axis, which leaves
        the work unchanged, so the work per cycle is the same at every seed.
        """
        base = np.random.default_rng([13, dim])
        jitter = 1.0 if dim == 1 else 0.0
        cases = []
        for i in range(k):
            xi = base.uniform(-1.0, 1.0, dim) + jitter * rng.uniform(-0.05, 0.05, dim)
            gap2 = 0.05 + 0.45 * (i + 0.5) / k + jitter * rng.uniform(-0.01, 0.01)
            lo, hi = (1.0, 2.5) if i % 2 == 0 else (0.05, 0.9)
            r = (base.uniform(lo, hi) + jitter * rng.uniform(-0.02, 0.02)) * math.sqrt(gap2)
            d = base.standard_normal(dim) + jitter * rng.normal(0.0, 0.05, dim)
            x0 = xi + r * d / np.linalg.norm(d)
            t0 = 0.0
            if dim > 1:
                mirror = rng.choice([-1.0, 1.0])
                shift = rng.uniform(-0.5, 0.5)
                x0[0] = mirror * (x0[0] - xi[0]) + xi[0] + shift
                xi[0] += shift
                t0 = rng.uniform(0.0, 1.0)
            cases.append((x0, t0, xi, t0 - gap2))
        return cases

    def setup(self):
        qcfg = QuadratureConfig(target_rel_tol=1e-6)
        return {
            1: KernelEvaluator(_medium([[1.0]], [[4.0]]), qcfg),
            2: KernelEvaluator(_medium(np.eye(2), 2.0 * np.eye(2)), qcfg),
        }

    def cycle(self, state, small=False):
        calls = []
        for dim in (1, 2):
            ev = state[dim]
            groups = 2 if small else 8
            spec = bounds.SampleSpec(n_time_groups=groups, n_per_group=groups,
                                     seed=self.fit_seeds[dim])
            calls.append(Call(f"fit_aronson[{dim}d]",
                              lambda ev=ev, spec=spec: bounds.fit_aronson(ev, spec), 0,
                              f"fit{dim}"))
            nt, ns = self.RULE[dim]
            for x0, t0, xi, tau in self.cases[dim][: 1 if small else None]:
                calls.append(Call(
                    f"q_rho_integral[{dim}d]",
                    lambda ev=ev, a=(x0, t0, xi, tau), nt=nt, ns=ns: bounds.q_rho_integral(
                        ev, *a, n_time=nt, n_space=ns, check_convergence=False),
                    1, f"int{dim}",
                ))
        return calls

    def check(self, calls, outputs):
        tally = CheckTally()
        c_fit = {}
        ref = _Layered1dReference(1.0, 4.0)
        cases = {1: iter(self.cases[1]), 2: iter(self.cases[2])}
        worst = {1: 0.0, 2: 0.0}
        for call, out in zip(calls, outputs):
            dim = int(call.group[-1])
            if call.group.startswith("fit"):
                c_fit[dim] = max(out.fitted_constant, 1.0)
                tally.finite(call.name, np.array([out.fitted_constant]))
                continue
            x0, t0, xi, tau = next(cases[dim])
            tally.finite(call.name, np.array([out]))
            tally.sign(np.array([out]))
            worst[dim] = max(worst[dim], out / bounds.q_rho_bound(c_fit[dim], dim, x0, t0, xi, tau))
            if dim == 1:
                nt, ns = self.RULE[1]
                exact = bounds.q_rho_integral(ref, x0, t0, xi, tau, n_time=nt, n_space=ns,
                                              check_convergence=False)
                tally.closed_form(np.array([out]), np.array([exact]))
        tally.require(tally.max_rel_err <= 1e-4,
                      f"cylinder: 1-D rel err {tally.max_rel_err:.2e} > 1e-4")
        for dim in (1, 2):
            tally.require(worst[dim] <= 1.0, f"cylinder: {dim}-D worst ratio {worst[dim]:.3f} > 1")
        tally.notes["worst_ratio"] = worst
        return tally


class CompareOracle(Workload):
    """One compare-oracle level of the criterion-6 medium through cli.main."""

    name = "compare_oracle"
    value_kind = "oracle probes"
    LEVEL, PROBES, BULK, T_FINAL, MAX_REL = 201, 10, 0.8, 0.25, 0.02

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 4])
        # The seed moves the final time by up to 2 %.  Moving the source
        # instead would change which grid nodes become probes, and with
        # them the number of unique normal pairs, by up to 10 %.
        self.y = [0.0, 0.5]
        self.t_final = self.T_FINAL * (1.0 + float(rng.uniform(-0.02, 0.02)))
        self.paths = {}
        for tag, level, probes, bulk in (("run", self.LEVEL, self.PROBES, self.BULK),
                                         ("small", 51, 4, 0.6)):
            cfg = {
                "medium": {"upper": [[1.0, 0.0], [0.0, 1.0]],
                           "lower": [[2.0, 0.0], [0.0, 2.0]]},
                "compare_oracle": {
                    "t": self.t_final, "y": self.y, "levels": [level],
                    "time_steps": 10, "max_points": probes,
                    "max_rel_err": self.MAX_REL, "bulk_half_width": bulk,
                },
                "output": os.path.join(workdir, f"{tag}-report.json"),
            }
            path = os.path.join(workdir, f"{tag}-config.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            self.paths[tag] = (path, cfg)
        self.probes = self._probe_count(self.LEVEL, self.PROBES, self.BULK)

    def _probe_count(self, level, max_pts, bulk):
        """Probe count of one level, by the selection rule of cmd_compare_oracle."""
        from layerheat.oracle import Grid

        grid = Grid(box=Cube(half_width=4.0, center=np.zeros(2)), nodes_per_dim=level,
                    dt=self.t_final / 10, t_span=(0.0, self.t_final))
        pts = grid.points()
        eps = 3.0 * grid.spacing
        r = np.linalg.norm(pts - np.array(self.y), axis=1)
        n_sel = int(np.sum((r > 3.0 * eps) & np.all(np.abs(pts) < bulk, axis=1)))
        if n_sel > max_pts:
            n_sel = len(range(0, n_sel, int(np.ceil(n_sel / max_pts))))
        return n_sel

    def setup(self):
        # cmd_compare_oracle builds this evaluator on every call; set-up
        # time is the same construction from the same config.
        cfg = self.paths["run"][1]
        return KernelEvaluator(cli.parse_medium(cfg), cli.parse_quadrature(cfg))

    def cycle(self, state, small=False):
        path, cfg = self.paths["small" if small else "run"]
        values = 4 if small else self.probes

        def run():
            code = cli.main(["compare-oracle", path])
            with open(cfg["output"]) as fh:
                return {"code": code, "report": json.load(fh)}

        return [Call("cli.main[compare-oracle]", run, values, "oracle")]

    def trace_problems(self, tracer):
        seen = {s.info["xn"].size for s in tracer.spans if s.kind == "eval_many"}
        if seen != {self.probes}:
            return [f"compare-oracle probes per call {sorted(seen)} != {self.probes}"]
        return []

    def check(self, calls, outputs):
        tally = CheckTally()
        for out in outputs:
            tally.require(out["code"] == 0, f"compare-oracle exit code {out['code']}")
            level = out["report"]["levels"][-1]
            tally.finite("linf_rel", np.array([level["linf_rel"]]))
            tally.max_rel_err = max(tally.max_rel_err, float(level["linf_rel"]))
            tally.require(level["linf_rel"] <= self.MAX_REL,
                          f"compare-oracle linf_rel {level['linf_rel']:.3e} > {self.MAX_REL}")
        return tally


def make(name: str, seed: int, workdir: str) -> Workload:
    if name == "scatter":
        return Scatter(seed)
    if name == "green":
        return Green(seed)
    if name == "cylinder":
        return Cylinder(seed)
    if name == "compare_oracle":
        return CompareOracle(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
