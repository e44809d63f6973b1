#!/usr/bin/env python3
"""layerheat benchmark: one workload per run, one JSON result line.

Usage, from the repository root:

    python3 bench/run.py --workload scatter --seed 1 --seconds 25 --trace 0

Workloads: scatter, green, cylinder, compare_oracle (see bench/README.md).

With --trace 0 the run builds the workload's evaluators, warms up on a
small variant and on one whole cycle, then runs whole cycles of the
workload's calls, each followed by set-ups, until --seconds have passed,
checks the outputs of the first timed cycle against `layerheat.reference`
and prints the end-to-end metrics.  Calls and set-ups are reported in
reference time: the median over their repeats of wall time over the time
of a calibration kernel run around them (see `Calibration` and
bench/README.md, "Steadiness on a shared host").

With --trace 1 it alternates untraced and traced passes (set-up plus one
cycle each) until --seconds have passed, with at least two of each.  The
traced passes install timing wrappers on the library's entry points and
report per-layer self times and exact work counts; the counts of every
traced pass must be identical.

The last line of standard output is the JSON result.  The package is
imported from `src/` next to this directory and nowhere else; without it
the run exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5

# One process, single-threaded BLAS/OpenMP, and serial evaluation:
# threaded output is not yet byte-identical to serial output.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "LAYERHEAT_THREADS": "1",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("scatter", "green", "cylinder", "compare_oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import layerheat from ROOT/src only; None when it is not there."""
    src = ROOT / "src"
    if not (src / "layerheat" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import layerheat

    if Path(layerheat.__file__).resolve().parent != (src / "layerheat").resolve():
        return None
    return layerheat


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ[k] for k in THREAD_ENV},
        "machine": platform.machine(),
    }


def is_finite_output(out) -> bool:
    import numpy as np

    if isinstance(out, dict) and "code" in out:
        return out["code"] == 0
    if isinstance(out, dict):
        return all(v is None or bool(np.all(np.isfinite(v))) for v in out.values())
    if hasattr(out, "fitted_constant"):
        return math.isfinite(out.fitted_constant)
    return math.isfinite(float(out))


def same_output(a, b) -> bool:
    import numpy as np

    if isinstance(a, dict) and "report" in a:
        return a == b
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(
            (a[k] is None and b[k] is None) or np.array_equal(a[k], b[k]) for k in a)
    if hasattr(a, "to_json"):
        return a.to_json() == b.to_json()
    return a == b


def run_call(call, problems):
    """Run one call; returns (output or None, latency, failed)."""
    t0 = time.perf_counter()
    try:
        out = call.fn()
    except Exception:  # a failed call is counted, not fatal
        lat = time.perf_counter() - t0
        problems.append(f"{call.name} raised:\n{traceback.format_exc()}")
        return None, lat, True
    lat = time.perf_counter() - t0
    if not is_finite_output(out):
        problems.append(f"{call.name}: non-finite or failed output")
        return out, lat, True
    return out, lat, False


def tail(latencies):
    """Highest whole percentile with at least 10 calls above it, or None."""
    n = len(latencies)
    if n < 20:
        return None
    ordered = sorted(latencies)
    pct = int(math.floor(100.0 * (n - 10) / n))
    return pct, ordered[max(0, math.ceil(pct / 100.0 * n) - 1)]


class Calibration:
    """A fixed numpy kernel shaped like the library's hot loop: a complex
    exponential over a (targets, xi, tau) block contracted with weights, as
    in the tau contraction of `inverse_transform`.

    The benchmark times it before and after every timed call and set-up.
    On a shared host the speed of the machine drifts by tens of percent
    between runs, and the kernel slows down with the calls around it, so
    each call is reported as its time over the mean of the two kernel times
    around it, scaled by REF_S: the time the call would take on a machine
    where the kernel takes REF_S (see bench/README.md, "Steadiness on a
    shared host").
    """

    # About the kernel's fastest time over 300 passes on one vCPU of a
    # 2.1 GHz Xeon (numpy 2.4, scipy-openblas 0.3.31).
    REF_S = 0.013
    SHAPE = (24, 64, 48)
    REPEATS = 5

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        k, q, m = self.SHAPE
        self._np = np
        self.x = rng.uniform(0.1, 2.0, k)[:, None, None]
        self.p = -rng.uniform(0.5, 3.0, (q, m)) + 1j * rng.uniform(-3.0, 3.0, (q, m))
        self.w = rng.standard_normal((q, m)) + 0j

    def run(self) -> float:
        """Time one pass of the kernel, in seconds."""
        np = self._np
        t0 = time.perf_counter()
        for _ in range(self.REPEATS):
            ex = np.exp(self.p[None, :, :] * self.x)
            np.einsum("qm,kqm->kq", self.w, ex)
        return time.perf_counter() - t0


def timed_setup(wl, times):
    t0 = time.perf_counter()
    state = wl.setup()
    times.append(time.perf_counter() - t0)
    return state


def end_to_end(wl, seconds):
    cal = Calibration()
    problems, setup_times, setup_cal = [], [], []
    state = wl.setup()
    calls = wl.cycle(state)
    for call in wl.cycle(state, small=True):
        cal.run()
        run_call(call, problems)
    # One whole cycle, untimed, under tracemalloc: it finishes the warm-up
    # and gives the peak memory the calls allocate.
    tracemalloc.start()
    for call in calls:
        run_call(call, problems)
    peak_alloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    problems.clear()  # warm-up failures show again in the timed phase

    # Whole cycles while the next one is expected to end inside the window.
    # Between cycles the set-up is timed again, so its samples span the
    # same stretch of time as the calls.  A pass of the calibration kernel
    # runs before and after every call and every set-up.
    first, latencies, cal_times = None, [], []
    attempted = failed = 0
    deterministic = True
    start = time.perf_counter()
    c_prev = cal.run()
    while True:
        outputs, lat, cals = [], [], []
        for call in calls:
            out, t, bad = run_call(call, problems)
            c_next = cal.run()
            cals.append(0.5 * (c_prev + c_next))
            c_prev = c_next
            attempted += 1
            failed += bad
            lat.append(t)
            outputs.append(out)
        latencies.append(lat)
        cal_times.append(cals)
        if first is None:
            first = outputs
        else:
            deterministic &= all(
                a is not None and b is not None and same_output(a, b)
                for a, b in zip(first, outputs))
        for _ in range(SETUP_REPEATS):
            timed_setup(wl, setup_times)
            c_next = cal.run()
            setup_cal.append(0.5 * (c_prev + c_next))
            c_prev = c_next
        elapsed = time.perf_counter() - start
        if elapsed * (1.0 + 1.0 / len(latencies)) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if failed:
        tally = None
    else:
        tally = wl.check(calls, first)
        problems.extend(tally.problems)
    if not deterministic:
        problems.append("outputs differ between cycles of identical calls")

    # Without a check (some call failed) the accuracy metrics read their worst.
    max_rel = tally.max_rel_err if tally else 1.0
    est_miss = tally.est_miss / tally.with_est if tally and tally.with_est else float(not tally)
    neg = tally.negative / tally.checked if tally and tally.checked else float(not tally)
    # Every cycle repeats identical calls.  Each call is its median over the
    # repeats of (call time / calibration time around it) * REF_S.
    ref = Calibration.REF_S
    per_call = [ref * statistics.median(t / c for t, c in zip(ts, cs))
                for ts, cs in zip(zip(*latencies), zip(*cal_times))]
    flat = [t for lat in latencies for t in lat]
    all_cal = [c for cs in cal_times for c in cs] + setup_cal
    metrics = {
        "ref_values_per_s": sum(c.values for c in calls) / sum(per_call),
        "ref_call_p50_ms": 1e3 * statistics.median(per_call),
        "setup_s": ref * statistics.median(t / c for t, c in zip(setup_times, setup_cal)),
        "peak_alloc_mb": peak_alloc_mb,
        "max_rel_err_digits": -math.log10(max(max_rel, 1e-17)),
        "est_bound_frac": 1.0 - est_miss,
        "nonneg_frac": 1.0 - neg,
        "call_ok_frac": 1.0 - failed / attempted,
    }
    t = tail(flat)
    wall_per_call = [statistics.median(col) for col in zip(*latencies)]
    detail = {
        "value_kind": wl.value_kind,
        "cycles": len(latencies),
        "calls": attempted,
        "max_rel_err": max_rel,
        "est_miss_frac": est_miss,
        "est_checked_points": tally.with_est if tally else 0,
        "neg_frac": neg,
        "sign_checked_points": tally.checked if tally else 0,
        "fail_frac": failed / attempted,
        # Wall-clock figures, as measured, without the calibration.
        "wall_values_per_s": sum(c.values for c in calls) / sum(wall_per_call),
        "wall_call_p50_ms": 1e3 * statistics.median(flat),
        "wall_call_tail": ({"percentile": t[0], "ms": 1e3 * t[1], "calls": attempted}
                           if t else "omitted: fewer than 20 calls"),
        "wall_setup_p50_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "calls_ms": [[c.name, c.values, 1e3 * w, 1e3 * r]
                     for c, w, r in zip(calls, wall_per_call, per_call)],
        "calibration_s": {"p50": statistics.median(all_cal), "min": min(all_cal),
                          "max": max(all_cal), "ref": ref, "samples": len(all_cal)},
        "latencies_ms": [[1e3 * t for t in lat] for lat in latencies],
        "calibration_ms": [[1e3 * c for c in cs] for cs in cal_times],
        "setup_s_samples": setup_times,
    }
    if tally:
        detail.update(tally.notes)
    return metrics, detail, attempted, failed, problems


def traced(wl, seconds):
    import tracing

    problems = []
    state = wl.setup()
    for call in wl.cycle(state, small=True):
        run_call(call, problems)
    problems.clear()

    untraced_walls, passes, first_outputs = [], [], None
    attempted = failed = 0
    t_end = time.perf_counter() + seconds
    while True:
        # Untraced pass: set-up plus one cycle.
        t0 = time.perf_counter()
        state = wl.setup()
        calls = wl.cycle(state)
        outputs = []
        for call in calls:
            out, _, bad = run_call(call, problems)
            attempted += 1
            failed += bad
            outputs.append(out)
        untraced_walls.append(time.perf_counter() - t0)
        if first_outputs is None:
            first_outputs = (calls, outputs)

        # Traced pass: the same work with the wrappers installed.
        tracer = tracing.Tracer()
        with tracer.installed():
            t0 = time.perf_counter()
            state = wl.setup()
            for i, call in enumerate(wl.cycle(state), start=1):
                tracer.call = i
                _, _, bad = run_call(call, problems)
                attempted += 1
                failed += bad
            wall = time.perf_counter() - t0
        passes.append((tracer, wall))
        if time.perf_counter() >= t_end and len(passes) >= 2:
            break

    if not failed:
        tally = wl.check(*first_outputs)
        problems.extend(tally.problems)
    counts = [tr.counts() for tr, _ in passes]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("work counts differ between traced passes of identical work")
    times = [tr.times(wall) for tr, wall in passes]
    for t in times:
        parts = sum(t[k] for k in tracing.SELF_TIMES)
        if abs(parts - t["trace.wall_s"]) > 1e-9 + 1e-6 * t["trace.wall_s"]:
            problems.append("layer self times plus bench time do not add up to wall time")
    problems.extend(wl.trace_problems(passes[0][0]))

    metrics = {k: statistics.fmean(t[k] for t in times) for k in times[0]}
    metrics.update(counts[0])
    untraced = statistics.fmean(untraced_walls)
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / untraced - 1.0
    spans = {
        "passes": [[s.as_json() for s in tr.spans] for tr, _ in passes],
        "walls": [w for _, w in passes],
        "untraced_walls": untraced_walls,
    }
    detail = {"traced_passes": len(passes), "counts_identical": len(set(
        json.dumps(c, sort_keys=True) for c in counts)) == 1}
    return metrics, detail, attempted, failed, problems, spans


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    if import_package() is None:
        print(f"layerheat sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.make(args.workload, args.seed, str(workdir))
        if args.trace:
            metrics, detail, attempted, failed, problems, spans = traced(wl, args.seconds)
            stem = f"{args.workload}-seed{args.seed}"
            with open(OUT_DIR / f"spans-{stem}.json", "w") as fh:
                json.dump(spans, fh)
        else:
            metrics, detail, attempted, failed, problems = end_to_end(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = declared_units(args.trace)
    if set(metrics) != set(units):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
        metrics = {k: metrics.get(k, 0.0) for k in units}
    detail.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "env": environment(), "problems": problems})
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({"metrics": metrics, "detail": detail}, fh, indent=1, default=str)
    for line in problems:
        print(f"problem: {line}")
    print("env: " + json.dumps(detail["env"]))
    print("detail: " + json.dumps({k: v for k, v in detail.items()
                                    if k not in ("env", "problems", "latencies_ms",
                                                 "calibration_ms", "setup_s_samples")},
                                   default=str))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
