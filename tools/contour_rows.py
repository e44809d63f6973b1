#!/usr/bin/env python3
"""Measure the error and ratio columns of the contour rows and print the table.

Usage, from the repository root:

    python3 tools/contour_rows.py [--step 0.1] [--lags 0.01,0.1,0.3,1,3]

Reads the shapes of `inverse_transform._CONTOUR_ROWS` (depth, alpha,
u_max, mu_dt, M) and measures, at each, the two columns that the table
states about them:

- error: the relative error of the row's rule on 1/sqrt(tau), whose
  inverse is 1/sqrt(pi dt), the largest over dt = 0.01, 0.3 and 3;
- ratio: the rule's error on the model of a term, F = e^{-d sqrt(tau + k)}
  / sqrt(tau + k) and e^{-d sqrt(tau + k)} with d = delta sqrt(dt), against
  its L1 magnitude sum_m |W_m F(tau_m)|, each summed in modulus over the
  columns of a xi' grid, k = |xi'|^2 with the weights 1 and |xi'|: k = 0,
  121 nodes and 41 x 41 nodes out to k dt = 60; the model and the sums in
  long double, so that the roundoff of forming the terms, which the
  roundoff floor of est bounds, is left out.  One entry per unit of
  depth from the row's depth, the largest over the lags, both models and
  the depths of the entry in steps of --step; the last entry reaches the
  next row's depth, and for the last row DEEPEST.

It prints the literal of `_CONTOUR_ROWS` with these columns, the error
rounded up to two digits and the ratio to one, and after it each row's
largest ratio and the depth where it was met.  `measure` is what the test
of the table calls, on a coarser grid.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from layerheat.inverse_transform import _CONTOUR_ROWS, _hyperbolic_nodes  # noqa: E402

# The depth down to which the last row is measured: beyond it every term
# and the rule's every product underflow to 0 (e^{-DEEPEST^2 / 4} is below
# the smallest double).
DEEPEST = 60.0
LAGS = (0.01, 0.3, 3.0)
_PI = np.longdouble("3.14159265358979323846264338327950288")


def _grids():
    """(k dt, weight) of the xi' grids: 1-D, 2-D and 3-D, each with the
    weights 1 and |xi'| (the tangential gradient's)."""
    line = np.linspace(-1.0, 1.0, 121) ** 2 * 60.0
    axis = np.linspace(-1.0, 1.0, 41) ** 2 * 60.0
    square = (axis[:, None] + axis[None, :]).ravel()
    grids = [(np.zeros(1), np.ones(1))]
    for kd in (line, square):
        grids += [(kd, np.ones(kd.size)), (kd, np.sqrt(kd))]
    return grids


def measure(row, depths, lags=LAGS):
    """The error and ratio of ``row`` (see the module docstring) over the
    depths ``depths`` and the lags ``lags``, and the depth of the largest
    ratio.  The rule is the row's, its nodes and weights in double as the
    evaluator takes them; the model, the sums and the exact values are
    formed in long double, so that the ratio is the rule's own error: the
    roundoff of forming the terms in double is the roundoff floor's part of
    est."""
    error = 0.0
    for dt in LAGS:
        tau, wte = (a.astype(np.clongdouble) for a in _hyperbolic_nodes(row, dt))
        error = max(error, float(abs(np.sum(wte / np.sqrt(tau)).real * np.sqrt(_PI * dt) - 1)))
    ratio, where = 0.0, None
    for dt in lags:
        tau, wte = (a.astype(np.clongdouble) for a in _hyperbolic_nodes(row, dt))
        for kd, weight in _grids():
            kd, weight = kd.astype(np.longdouble), weight.astype(np.longdouble)
            sq = np.sqrt(tau + kd[:, None] / dt)
            for depth in np.asarray(depths, dtype=np.longdouble):
                g = np.exp(-depth ** 2 / 4 - kd)
                e = np.exp(-depth * np.sqrt(np.longdouble(dt)) * sq)
                for f, exact in ((e / sq, g / np.sqrt(_PI * dt)),
                                 (e, depth * g / (2 * np.sqrt(_PI) * dt))):
                    err = weight @ np.abs((f @ wte).real - exact)
                    l1 = weight @ np.abs(f * wte).sum(axis=1)
                    r = float(err / l1) if l1 > 0 else (math.inf if err > 0 else 0.0)
                    if r > ratio:
                        ratio, where = r, float(depth)
    return error, ratio, where


def entry_depths(i, step):
    """The depths of each ratio entry of row i, in steps of ``step``: entry
    j of n spans [depth + j, depth + j + 1], the last one [depth + n - 1,
    the next row's depth] (DEEPEST for the last row)."""
    lo, n = _CONTOUR_ROWS[i][0], len(_CONTOUR_ROWS[i][6])
    hi = _CONTOUR_ROWS[i + 1][0] if i + 1 < len(_CONTOUR_ROWS) else DEEPEST
    ends = [lo + j for j in range(n)] + [hi]
    return [np.arange(a, b + 0.5 * step, step) for a, b in zip(ends, ends[1:])]


def round_up(x: float, digits: int) -> float:
    """x rounded up to ``digits`` significant digits."""
    if x <= 0.0 or not math.isfinite(x):
        return x
    scale = 10.0 ** (math.floor(math.log10(x)) - digits + 1)
    return float(f"{math.ceil(x / scale * (1.0 - 1e-12)) * scale:.{digits}g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--step", type=float, default=0.1, help="depth step (default 0.1)")
    ap.add_argument("--lags", default=",".join(map(str, LAGS)),
                    help="lags t - s of the ratio, comma-separated (default 0.01,0.3,3)")
    args = ap.parse_args(argv)
    lags = tuple(float(v) for v in args.lags.split(","))
    lines, notes = [], []
    for i, row in enumerate(_CONTOUR_ROWS):
        measured = [measure(row, depths, lags) for depths in entry_depths(i, args.step)]
        error = measured[0][0]
        ratios = tuple(round_up(r, 1) for _, r, _ in measured)
        lines.append(f"    {row[:5] + (round_up(error, 2), ratios)!r},")
        worst = max(measured, key=lambda m: m[1])
        notes.append(f"# row {i}: error {error:.3e}, largest ratio {worst[1]:.3e} at depth {worst[2]}")
    print("_CONTOUR_ROWS = (\n" + "\n".join(lines) + "\n)")
    print("\n".join(notes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
