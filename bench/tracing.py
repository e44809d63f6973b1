"""Outside-in tracing: timing wrappers on the names that callers resolve.

The wrappers record one span per call (kind, start, end, parent span, call
id, arguments needed for the work counts) in memory.  Work counts are
derived after the traced pass from those arguments, so no counting happens
inside a timed span.  `reference` is never wrapped: it is the correctness
oracle, not a layer under test.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from layerheat import bounds, cli, images, inverse_transform, oracle
from layerheat.symbols import classify_region

LAYERS = ("inverse_transform", "symbols", "images", "bounds", "oracle", "cli")

# (owner, attribute, span kind, layer)
TARGETS = (
    (inverse_transform, "certify_mu", "certify_mu", "inverse_transform"),
    (inverse_transform, "region_terms", "region_terms", "symbols"),
    (inverse_transform.KernelEvaluator, "eval_many", "eval_many", "inverse_transform"),
    (images.CubeGreen, "evaluate_many", "CubeGreen.evaluate_many", "images"),
    (images.HalfSpaceGreen, "evaluate_many", "HalfSpaceGreen.evaluate_many", "images"),
    (bounds, "q_rho_integral", "q_rho_integral", "bounds"),
    (bounds, "fit_aronson", "fit_aronson", "bounds"),
    (oracle, "approximate_kernel", "approximate_kernel", "oracle"),
    (oracle, "fdm_solve", "fdm_solve", "oracle"),
    (oracle, "build_operator", "build_operator", "oracle"),
    (cli, "cmd_compare_oracle", "cmd_compare_oracle", "cli"),
    (cli, "main", "main", "cli"),
)
LAYER_OF = {kind: layer for _, _, kind, layer in TARGETS}

# Reported self times that partition a traced pass's wall time.
SELF_TIMES = (
    "inverse_transform.certify_s", "inverse_transform.self_s", "symbols.s",
    "images.self_s", "bounds.self_s", "oracle.self_s", "cli.self_s", "bench.self_s",
)


def _eval_args(self, x, t, y, s, source_gradient=False):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    yn = np.broadcast_to(y, x.shape)[:, -1] if y.ndim == 1 else y[:, -1]
    return {"xn": x[:, -1].copy(), "yn": np.array(yn), "dt": float(t) - float(s),
            "d": x.shape[1] - 1}


def _record(kind, args, kwargs):
    """Arguments a span keeps for the work counts (taken before timing)."""
    if kind == "eval_many":
        return _eval_args(*args, **kwargs)
    if kind == "region_terms":
        region, _, xi, tau = args
        return {"region": region.name, "q": xi.shape[0], "m": np.size(tau)}
    if kind.endswith("evaluate_many"):
        return {"k": np.atleast_2d(np.asarray(args[1])).shape[0]}
    if kind == "build_operator":
        return {"unknowns": int(np.prod(args[1].shape))}
    if kind == "fdm_solve":
        return {"steps": args[1].n_steps}
    return {}


class Span:
    __slots__ = ("kind", "start", "end", "parent", "call", "info", "error")

    def __init__(self, kind, parent, call, info):
        self.kind, self.parent, self.call, self.info = kind, parent, call, info
        self.start = self.end = 0.0
        self.error = None

    def as_json(self):
        return {"name": self.kind, "start": self.start, "end": self.end,
                "parent": self.parent, "call": self.call, "error": self.error}


class Tracer:
    """Holds the spans of one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.call = 0

    def _wrap(self, kind, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            info = _record(kind, args, kwargs)
            idx = len(spans)
            span = Span(kind, stack[-1] if stack else -1, self.call, info)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.end = time.perf_counter()
                stack.pop()
                # Count the error once, in the innermost layer it left.
                if not getattr(exc, "_bench_counted", False):
                    span.error = type(exc).__name__
                    try:
                        exc._bench_counted = True
                    except AttributeError:
                        pass
                raise
            span.end = time.perf_counter()
            stack.pop()
            if kind == "region_terms":
                info["terms"] = len(result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, kind, _ in TARGETS:
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(kind, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    # -- summaries -------------------------------------------------------

    def self_times(self):
        """Self time of every span: its duration minus its children's."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def times(self, wall: float) -> dict:
        own = self.self_times()
        by_kind: dict = {}
        for s, t in zip(self.spans, own):
            by_kind[s.kind] = by_kind.get(s.kind, 0.0) + t
        top = sum(s.end - s.start for s in self.spans if s.parent < 0)
        layer_self = {layer: 0.0 for layer in LAYERS}
        for kind, t in by_kind.items():
            layer_self[LAYER_OF[kind]] += t
        g = by_kind.get
        return {
            "inverse_transform.certify_s": g("certify_mu", 0.0),
            "inverse_transform.self_s": g("eval_many", 0.0),
            "symbols.s": g("region_terms", 0.0),
            "images.self_s": layer_self["images"],
            "bounds.self_s": layer_self["bounds"],
            "oracle.self_s": layer_self["oracle"],
            "oracle.build_operator_s": g("build_operator", 0.0),
            "oracle.fdm_solve_s": g("fdm_solve", 0.0),
            "cli.self_s": layer_self["cli"],
            "bench.self_s": wall - top,
            "trace.wall_s": wall,
        }

    def counts(self) -> dict:
        """Exact work counts, computed from the arguments the wrappers saw."""
        spans = self.spans
        children = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s.parent >= 0:
                children[s.parent].append(i)
        c = dict.fromkeys((
            "inverse_transform.calls", "inverse_transform.points",
            "inverse_transform.passes", "inverse_transform.contour_nodes",
            "inverse_transform.xi_nodes", "inverse_transform.tau_exp",
            "inverse_transform.phase_exp", "symbols.calls",
            "symbols.symbol_points", "images.calls", "bounds.calls",
            "oracle.unknowns", "oracle.time_steps"), 0)
        kept = pairs = repeats = images_values = images_points = 0
        integrals = integral_evals = 0
        seen_keys = set()
        for i, s in enumerate(spans):
            layer = LAYER_OF[s.kind]
            if s.kind == "eval_many":
                c["inverse_transform.calls"] += 1
                info = s.info
                k = info["xn"].size
                c["inverse_transform.points"] += k
                tags = np.array([classify_region(a, b).name
                                 for a, b in zip(info["xn"], info["yn"])])
                uniq = {}
                for tag in np.unique(tags):
                    sel = tags == tag
                    uniq[tag] = np.unique(
                        np.stack([info["xn"][sel], info["yn"][sel]], axis=1), axis=0)
                pairs += sum(u.shape[0] for u in uniq.values())
                key = (info["dt"], b"".join(uniq[t].tobytes() for t in sorted(uniq)))
                repeats += key in seen_keys
                seen_keys.add(key)
                if s.error:
                    continue  # a failed call has no complete passes
                rts = [spans[j] for j in children[i] if spans[j].kind == "region_terms"]
                n_reg = len(uniq)
                if len(rts) % n_reg:
                    raise RuntimeError("region_terms calls do not form whole passes")
                passes = [rts[p:p + n_reg] for p in range(0, len(rts), n_reg)]
                c["inverse_transform.passes"] += len(passes)
                for p in passes:
                    q, m = p[0].info["q"], p[0].info["m"]
                    c["inverse_transform.xi_nodes"] += q
                    c["inverse_transform.contour_nodes"] += m
                    if info["d"] > 0:
                        c["inverse_transform.phase_exp"] += k * q
                # The last pass is the coarse estimate; the one before it
                # is the fine pass whose values are returned.
                kept += passes[-2][0].info["q"] if len(passes) > 1 else passes[0][0].info["q"]
                for r in rts:
                    qm = r.info["q"] * r.info["m"]
                    c["inverse_transform.tau_exp"] += (
                        r.info["terms"] * uniq[r.info["region"]].shape[0] * qm)
            elif s.kind == "region_terms":
                c["symbols.calls"] += 1
                c["symbols.symbol_points"] += s.info["q"] * s.info["m"]
            elif layer == "images":
                c["images.calls"] += 1
                images_values += s.info["k"]
                images_points += sum(spans[j].info["xn"].size for j in children[i]
                                     if spans[j].kind == "eval_many")
            elif layer == "bounds":
                c["bounds.calls"] += 1
                if s.kind == "q_rho_integral":
                    integrals += 1
                    integral_evals += sum(spans[j].kind == "eval_many" for j in children[i])
            elif s.kind == "build_operator":
                c["oracle.unknowns"] += s.info["unknowns"]
            elif s.kind == "fdm_solve":
                c["oracle.time_steps"] += s.info["steps"]
        calls = c["inverse_transform.calls"]
        xi_total = c["inverse_transform.xi_nodes"]
        c["inverse_transform.kept_node_frac"] = kept / xi_total if xi_total else 0.0
        c["inverse_transform.unique_pair_frac"] = (
            pairs / c["inverse_transform.points"] if calls else 0.0)
        c["inverse_transform.repeat_call_frac"] = repeats / calls if calls else 0.0
        c["images.kernel_points_per_value"] = (
            images_points / images_values if images_values else 0.0)
        c["bounds.eval_calls_per_integral"] = integral_evals / integrals if integrals else 0.0
        for layer in LAYERS:
            c[f"{layer}.errors"] = sum(
                1 for s in spans if s.error and LAYER_OF[s.kind] == layer)
        return c
