"""The n-D image lattice of a cube and the route through it, for the tests.

CubeGreen takes the image sum as a product of per-axis sums.  The reference
route here takes it as the lattice's (4 depth + 2)^n signed terms: every
target with each image of its source in one ``eval_many`` call, the signed
sum taken afterwards, and ``est`` the sum of the images' ``est``.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from layerheat.medium import Cube

LD = np.longdouble
PI = LD("3.14159265358979323846264338327950288")


def image_lattice(cube: Cube, depth: int):
    """Affine description of the reflection lattice: image = jac*y + off.

    Per axis, the images of a source coordinate u in (c-w, c+w) under the
    reflection group of the interval are u + 4wm (even parity) and
    2(c-w) - u + 4wm (odd parity), m = -depth..depth; the term sign is the
    product of parities.  Enumeration order is lexicographic.
    """
    w = cube.half_width
    axes = []
    for j in range(cube.dim):
        c = cube.center[j]
        entries = []
        for m in range(-depth, depth + 1):
            entries.append((1.0, 4.0 * w * m, 1))
            entries.append((-1.0, 2.0 * (c - w) + 4.0 * w * m, -1))
        axes.append(entries)
    jacs, offs, signs = [], [], []
    for combo in itertools.product(*axes):
        jacs.append([e[0] for e in combo])
        offs.append([e[1] for e in combo])
        signs.append(math.prod(e[2] for e in combo))
    return np.array(jacs), np.array(offs), np.array(signs)


def _nudge_off_interface(z: np.ndarray) -> np.ndarray:
    """Zero normal coordinates moved to 1e-300: the kernel is continuous
    across the interface, and eval_many refuses points on it."""
    z = z.copy()
    z[z[:, -1] == 0.0, -1] = 1e-300
    return z


def image_points(cube: Cube, depth: int, x, y):
    """Every target repeated once per image, the images of its source, and
    the lattice: xs, ys (K T, n), jac, off (T, n) and signs (T,)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.broadcast_to(np.asarray(y, dtype=float), x.shape)
    jac, off, signs = image_lattice(cube, depth)
    xs = np.repeat(x, jac.shape[0], axis=0)
    ys = (y[:, None, :] * jac + off).reshape(-1, x.shape[1])
    return _nudge_off_interface(xs), _nudge_off_interface(ys), jac, off, signs


def lattice_green(ev, cube: Cube, depth: int, x, t, y, s):
    """Gamma, grad, sgrad and est of the cube's truncated image series by
    the reference route: one eval_many call on all K T image points."""
    xs, ys, jac, _, signs = image_points(cube, depth, x, y)
    k, (t_cnt, n) = xs.shape[0] // jac.shape[0], jac.shape
    res = ev.eval_many(xs, t, ys, s, source_gradient=True)
    sg = np.tile(signs, k)[:, None]
    return {
        "gamma": (sg[:, 0] * res["gamma"]).reshape(k, t_cnt).sum(axis=1),
        "grad": (sg * res["grad"]).reshape(k, t_cnt, n).sum(axis=1),
        "sgrad": (sg * np.tile(jac, (k, 1)) * res["sgrad"]).reshape(k, t_cnt, n).sum(axis=1),
        "est": res["est"].reshape(k, t_cnt).sum(axis=1),
    }


def long_double_green(diag, cube: Cube, depth: int, x, dt, y):
    """Gamma, grad and sgrad of the cube's truncated image series for the
    tensor diag(diag), in long double: each axis's sum over its images of
    exactly placed 1-D Gaussians, then their product."""
    x = np.atleast_2d(np.asarray(x, dtype=float)).astype(LD)
    y = np.broadcast_to(np.asarray(y, dtype=float), x.shape).astype(LD)
    w, c, dt = LD(cube.half_width), cube.center.astype(LD), LD(dt)
    sums, dx, dy = [], [], []
    for j, a in enumerate(diag):
        a = LD(a)
        s_j, x_j, y_j = (np.zeros(x.shape[0], LD) for _ in range(3))
        for m in range(-depth, depth + 1):
            for jac, off, sign in ((1, 4 * w * m, 1), (-1, 2 * (c[j] - w) + 4 * w * m, -1)):
                d = x[:, j] - jac * y[:, j] - off
                g = np.exp(-d * d / (4 * a * dt)) / np.sqrt(4 * PI * a * dt)
                s_j += sign * g
                x_j -= sign * d / (2 * a * dt) * g
                y_j += sign * jac * d / (2 * a * dt) * g
        sums.append(s_j)
        dx.append(x_j)
        dy.append(y_j)
    sums = np.array(sums)
    others = [np.prod(np.delete(sums, j, axis=0), axis=0) for j in range(len(diag))]
    return (np.prod(sums, axis=0), np.column_stack([v * o for v, o in zip(dx, others)]),
            np.column_stack([v * o for v, o in zip(dy, others)]))
