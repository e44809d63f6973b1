#!/usr/bin/env python3
"""Digest of every kernel evaluation in one cycle of each benchmark workload.

Usage, from the repository root:

    python3 tools/output_digest.py --seed 1 [--workload green ...]

Runs the set-up and one cycle of each workload of bench/workloads.py, which
it only imports, and prints one line per `KernelEvaluator.eval_many` call:
the workload, the call's index, its point count and dimension, and the
sha256 of the bytes of gamma, grad, sgrad (when returned) and est.  Two
trees whose lines agree returned the same bytes; a line that differs names
the call to compare value by value (`cycle_outputs` returns the arrays).
Evaluation is serial and BLAS single-threaded, as in bench/run.py.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from run import THREAD_ENV  # noqa: E402  (bench/run.py imports no numpy)

os.environ.update(THREAD_ENV)

import workloads  # noqa: E402
from layerheat.inverse_transform import KernelEvaluator  # noqa: E402

WORKLOADS = ("scatter", "green", "cylinder", "compare_oracle")
KEYS = ("gamma", "grad", "sgrad", "est")


def cycle_outputs(name: str, seed: int) -> list:
    """The output of every eval_many call in the set-up and one cycle of a workload."""
    calls = []
    eval_many = KernelEvaluator.eval_many

    def recorded(self, *args, **kwargs):
        calls.append(eval_many(self, *args, **kwargs))
        return calls[-1]

    KernelEvaluator.eval_many = recorded
    try:
        with tempfile.TemporaryDirectory() as workdir:
            wl = workloads.make(name, seed, workdir)
            state = wl.setup()
            for call in wl.cycle(state):
                call.fn()
    finally:
        KernelEvaluator.eval_many = eval_many
    return calls


def digest(out: dict) -> str:
    h = hashlib.sha256()
    for key in KEYS:
        if key in out:
            h.update(key.encode())
            h.update(out[key].tobytes())
    return h.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    args = p.parse_args(argv)
    for name in args.workload or WORKLOADS:
        for i, out in enumerate(cycle_outputs(name, args.seed)):
            print(f"{name} {i} points={out['gamma'].size} dim={out['grad'].shape[1]} "
                  f"{digest(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
