#!/usr/bin/env python3
"""Digest of every kernel evaluation in one cycle of each benchmark workload.

Usage, from the repository root:

    python3 tools/output_digest.py --seed 1 [--workload green ...]
        [--save outputs.npz] [--against outputs.npz]

Runs the set-up and one cycle of each workload of bench/workloads.py, which
it only imports, and prints one line per `KernelEvaluator.eval_many` call:
the workload, the call's key, its point count and dimension, and the
sha256 of the bytes of gamma, grad, sgrad (when returned) and est.  The key
is `c:j`, the call's index j within the top-level call c of the cycle that
made it (`setup:j` in the set-up), so one call fewer early in a cycle leaves
the keys of the other top-level calls as they were.  Each top-level call of
the cycle that returns those arrays, as `CubeGreen.evaluate_many` does
without any `eval_many` call, adds a line tagged `call` with its index among
them in place of the key.  Each finite-difference oracle solve
(`oracle.fdm_solve`) adds one line, tagged `oracle`, with its index, its
grid shape and the sha256 of its final slice.
Two trees whose lines agree returned the same bytes; a line that differs
names the call to compare value by value.  Evaluation is serial and BLAS
single-threaded, as in bench/run.py.

--save writes every call's arrays to an .npz file.  --against reads such a
file, made by another tree at the same seed, matches the calls by key
(by their index within the workload when the file holds no keys, as one
saved by a tree whose digest has none), and adds to each line the
call's smallest and largest ratio of est to the saved est (`est=lo..hi`,
1..1 when est is unchanged; 0/0 counts as 1), its largest move of gamma,
grad or sgrad relative to that array's peak over the batch (the saved
one), and the number of points where a value moved by more than the
larger of the two calls' est (a `call` line reads
`unsaved` when the file holds no `call` records at all); to an oracle line it
adds the largest move of the final slice relative to the saved slice's
peak (an oracle solve has no est, so its move is reported only).  After
each workload it prints one summary line over the calls it compared,
`<workload> summary calls=N est=lo..hi move=M beyond_est=B`: their count,
the smallest and largest est ratio, the largest move and the total of
beyond_est.  It exits 1 when a point moved beyond est, or when the calls or
solves do not match one to one.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from run import THREAD_ENV  # noqa: E402  (bench/run.py imports no numpy)

os.environ.update(THREAD_ENV)

import workloads  # noqa: E402
from layerheat import oracle  # noqa: E402
from layerheat.inverse_transform import KernelEvaluator  # noqa: E402

WORKLOADS = ("scatter", "green", "cylinder", "compare_oracle")
KEYS = ("gamma", "grad", "sgrad", "est")


def cycle_outputs(name: str, seed: int):
    """The key and output of every eval_many call, the output of every
    top-level call that returns kernel arrays, and the final slice of every
    fdm_solve, in the set-up and one cycle of a workload."""
    calls, tops, finals = [], [], []
    top = ["setup", 0]  # the enclosing top-level call, and its eval_many calls so far
    eval_many, fdm_solve = KernelEvaluator.eval_many, oracle.fdm_solve

    def recorded(self, *args, **kwargs):
        calls.append((f"{top[0]}:{top[1]}", eval_many(self, *args, **kwargs)))
        top[1] += 1
        return calls[-1][1]

    def solved(*args, **kwargs):
        gf = fdm_solve(*args, **kwargs)
        finals.append(gf.final)
        return gf

    KernelEvaluator.eval_many, oracle.fdm_solve = recorded, solved
    try:
        with tempfile.TemporaryDirectory() as workdir:
            wl = workloads.make(name, seed, workdir)
            state = wl.setup()
            for c, call in enumerate(wl.cycle(state)):
                top[:] = [c, 0]
                out = call.fn()
                if isinstance(out, dict) and "gamma" in out:
                    tops.append(out)
    finally:
        KernelEvaluator.eval_many, oracle.fdm_solve = eval_many, fdm_solve
    return calls, tops, finals


def digest(out: dict) -> str:
    h = hashlib.sha256()
    for key in KEYS:
        if key in out:
            h.update(key.encode())
            h.update(out[key].tobytes())
    return h.hexdigest()


def moves(out: dict, ref: dict):
    """The largest move of gamma, grad or sgrad relative to that array's
    peak in ``ref``, and the points that moved by more than the larger est."""
    rel, beyond = 0.0, np.zeros(out["est"].size, dtype=bool)
    est = np.maximum(out["est"], ref["est"])
    for key in KEYS[:-1]:
        if key in ref:
            move = np.abs(out[key] - ref[key]).reshape(est.size, -1)
            peak = np.max(np.abs(ref[key]), initial=0.0)
            rel = max(rel, float(np.max(move, initial=0.0)) / peak if peak else 0.0)
            beyond |= np.any(move > est[:, None], axis=1)
    return rel, int(np.sum(beyond))


def est_ratios(out: dict, ref: dict):
    """The smallest and largest ratio of est to the saved est over the
    points, each 0/0 counted as 1."""
    est, old = out["est"], ref["est"]
    if not est.size:
        return 1.0, 1.0
    with np.errstate(divide="ignore"):  # a saved 0 under a new est > 0 reads inf
        ratio = np.divide(est, old, out=np.ones(est.size), where=(est != 0.0) | (old != 0.0))
    return float(ratio.min()), float(ratio.max())


def saved_ids(ref: dict, tag: str) -> set:
    """The ids of the records under ``tag`` (a workload, or its "/call"
    records) in a saved file: keys c:j, or flat indices."""
    depth = tag.count("/") + 2
    return {k.split("/")[depth - 1] for k in ref
            if k.startswith(f"{tag}/") and k.count("/") == depth}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--save", type=Path, help="write every call's arrays to this .npz file")
    p.add_argument("--against", type=Path, help="compare with the arrays of this .npz file")
    args = p.parse_args(argv)
    saved, status = {}, 0
    if args.against:
        with np.load(args.against) as f:
            ref = dict(f)
    for name in args.workload or WORKLOADS:
        compared = []  # (lo, hi, move, beyond) of every call compared
        outs, tops, finals = cycle_outputs(name, args.seed)
        tops = [(str(i), out) for i, out in enumerate(tops)]
        for tag, records in ((name, outs), (f"{name}/call", tops)):
            unmatched = saved_ids(ref, tag) if args.against else set()
            keyed = any(":" in rid for rid in unmatched)
            for i, (key, out) in enumerate(records):
                line = (f"{tag.replace('/', ' ')} {key} points={out['gamma'].size} "
                        f"dim={out['grad'].shape[1]} {digest(out)}")
                saved.update({f"{tag}/{key}/{k}": out[k] for k in KEYS if k in out})
                rid = key if keyed else str(i)
                unmatched.discard(rid)
                if args.against and tag.endswith("/call") and not any("/call/" in k for k in ref):
                    line += " unsaved"  # a saved file of an older tree has no call records
                elif args.against:
                    old = {k: ref[f"{tag}/{rid}/{k}"] for k in KEYS if f"{tag}/{rid}/{k}" in ref}
                    if old.keys() != out.keys() or old["gamma"].shape != out["gamma"].shape:
                        print(f"{line} no matching call")
                        status = 1
                        continue
                    rel, beyond = moves(out, old)
                    lo, hi = est_ratios(out, old)
                    compared.append((lo, hi, rel, beyond))
                    line += f" est={lo:.17g}..{hi:.17g} move={rel:.2e} beyond_est={beyond}"
                    status |= beyond > 0
                print(line)
            if unmatched:
                print(f"{tag.replace('/', ' ')}: the saved run made more calls "
                      f"({' '.join(sorted(unmatched))})")
                status = 1
        for i, final in enumerate(finals):
            key = f"{name}/oracle/{i}/final"
            line = f"{name} oracle {i} shape={'x'.join(map(str, final.shape))} {hashlib.sha256(final.tobytes()).hexdigest()}"
            saved[key] = final
            if args.against:
                old = ref.get(key)
                if old is None or old.shape != final.shape:
                    print(f"{line} no matching solve")
                    status = 1
                    continue
                peak = np.max(np.abs(old), initial=0.0)
                move = float(np.max(np.abs(final - old), initial=0.0))
                line += f" move={move / peak if peak else move:.2e}"
            print(line)
        if args.against and f"{name}/oracle/{len(finals)}/final" in ref:
            print(f"{name}: the saved run made more oracle solves")
            status = 1
        if args.against:
            lo, hi, rel, beyond = zip(*compared) if compared else ((1.0,), (1.0,), (0.0,), (0,))
            print(f"{name} summary calls={len(compared)} est={min(lo):.17g}..{max(hi):.17g} "
                  f"move={max(rel):.2e} beyond_est={sum(beyond)}")
    if args.save:
        np.savez(args.save, **saved)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
