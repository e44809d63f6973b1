import itertools
import math
import tracemalloc

import numpy as np
import pytest

from layerheat import images, inverse_transform
from layerheat.medium import (
    Cube,
    MediumError,
    TwoLayerMedium,
    homogeneous_medium,
    validate_tensor,
)
from layerheat.images import (
    AdjointGreen,
    CubeGreen,
    HalfSpaceGreen,
    TruncationInsufficient,
    UnsupportedGeometry,
    adjoint_green,
    volume_potential,
)
from layerheat.inverse_transform import KernelEvaluator, QuadratureConfig
from layerheat.reference import gaussian_kernel, interval_green_1d

from image_checks import image_lattice, image_points, lattice_green, long_double_green


def layered_1d(a=1.0, b=4.0):
    return TwoLayerMedium(upper=validate_tensor([[a]]), lower=validate_tensor([[b]]))


class TestReflectTensor:
    def test_offdiagonal_sign_flip(self):
        t = validate_tensor([[2.0, 1.0], [1.0, 2.0]])
        r = t.reflected(0)
        assert np.array_equal(r.entries, [[2.0, -1.0], [-1.0, 2.0]])

    def test_involution(self):
        t = validate_tensor([[1.5, 0.3], [0.3, 2.5]])
        assert t.reflected(1).reflected(1) == t


class TestHalfSpaceGreen:
    def test_homogeneous_1d_matches_reflection_formula(self):
        med = homogeneous_medium(validate_tensor([[1.0]]))
        hs = HalfSpaceGreen(med, axis=0, offset=0.0, side=1)
        xs = np.linspace(0.1, 2.5, 15)[:, None]
        res = hs.evaluate_many(xs, 0.5, np.array([0.7]), 0.0)
        exact = gaussian_kernel(med.upper, xs, 0.5, np.array([0.7]), 0.0) - \
            gaussian_kernel(med.upper, xs, 0.5, np.array([-0.7]), 0.0)
        assert np.max(np.abs(res["gamma"] - exact)) < 1e-10

    def test_dirichlet_boundary_value(self):
        med = homogeneous_medium(validate_tensor([[2.0, 1.0], [1.0, 2.0]]))
        # perpendicular faces need reflection invariance; use parallel face
        hs = HalfSpaceGreen(med, axis=1, offset=0.25, side=1)
        bdry = np.array([[u, 0.25 + 1e-12] for u in (-0.5, 0.0, 0.8)])
        res = hs.evaluate_many(bdry, 0.4, np.array([0.3, 0.9]), 0.0)
        assert np.max(np.abs(res["gamma"])) < 1e-8

    def test_offset_face_homogeneous(self):
        med = homogeneous_medium(validate_tensor([[1.0]]))
        hs = HalfSpaceGreen(med, axis=0, offset=-1.0, side=1)
        x = np.array([[0.5]])
        res = hs.evaluate_many(x, 0.5, np.array([0.2]), 0.0)
        exact = gaussian_kernel(med.upper, x, 0.5, np.array([0.2]), 0.0) - \
            gaussian_kernel(med.upper, x, 0.5, np.array([-2.2]), 0.0)
        assert abs(res["gamma"][0] - exact) < 1e-10

    def test_layered_parallel_face_away_from_interface(self):
        # domain {x > 1} lies entirely in the upper layer; the Green
        # function is that of the homogeneous upper coefficient
        med = layered_1d(1.0, 4.0)
        hs = HalfSpaceGreen(med, axis=0, offset=1.0, side=1)
        x = np.array([[1.8]])
        res = hs.evaluate_many(x, 0.3, np.array([1.4]), 0.0)
        t_up = med.upper
        exact = gaussian_kernel(t_up, x, 0.3, np.array([1.4]), 0.0) - \
            gaussian_kernel(t_up, x, 0.3, np.array([0.6]), 0.0)
        assert abs(res["gamma"][0] - exact) < 1e-9

    def test_layered_straddling_face_rejected(self):
        med = layered_1d()
        with pytest.raises(UnsupportedGeometry):
            HalfSpaceGreen(med, axis=0, offset=-0.5, side=1)

    @pytest.mark.parametrize("offset", [np.nan, -np.inf, np.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_offset(self, offset, axis):
        # On a layered medium's parallel face a NaN or -inf offset raised
        # UnsupportedGeometry (CLI exit 4) where the input is at fault.
        med = TwoLayerMedium(upper=validate_tensor(np.eye(2)),
                             lower=validate_tensor(np.diag([2.0, 3.0])))
        with pytest.raises(MediumError, match="offset must be finite"):
            HalfSpaceGreen(med, axis=axis, offset=offset, side=1)

    def test_perpendicular_face_requires_invariance(self):
        med = homogeneous_medium(validate_tensor([[2.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(UnsupportedGeometry):
            HalfSpaceGreen(med, axis=0, offset=0.0, side=1)

    def test_perpendicular_face_layered_diagonal(self):
        med = TwoLayerMedium(
            upper=validate_tensor([[1.0, 0.0], [0.0, 1.0]]),
            lower=validate_tensor([[2.0, 0.0], [0.0, 3.0]]),
        )
        hs = HalfSpaceGreen(med, axis=0, offset=0.0, side=1)
        bdry = np.array([[1e-12, 0.6], [1e-12, -0.4]])
        res = hs.evaluate_many(bdry, 0.4, np.array([0.5, 0.3]), 0.1)
        assert np.max(np.abs(res["gamma"])) < 1e-8

    def test_points_outside_rejected(self):
        med = homogeneous_medium(validate_tensor([[1.0]]))
        hs = HalfSpaceGreen(med, axis=0, offset=0.0, side=1)
        with pytest.raises(MediumError):
            hs.evaluate_many(np.array([[-0.1]]), 0.5, np.array([0.7]), 0.0)
        with pytest.raises(MediumError):
            hs.evaluate_many(np.array([[0.1]]), 0.5, np.array([-0.7]), 0.0)
        with pytest.raises(MediumError):
            hs.evaluate_many(np.array([[0.1]]), 0.5, np.array([0.0]), 0.0)

    @pytest.mark.parametrize("axis, side", [(0, 1), (0, -1), (1, 1), (1, -1)])
    def test_targets_on_face(self, axis, side):
        # Targets may lie on the face, where G = 0 to within est, as the
        # cube accepts its boundary; sources stay strictly inside.
        med = homogeneous_medium(validate_tensor([[1.0, 0.0], [0.0, 2.0]]))
        hs = HalfSpaceGreen(med, axis=axis, offset=0.0, side=side)
        x = np.zeros((3, 2))
        x[:, 1 - axis] = [-0.4, 0.3, 1.1]
        y = side * np.array([0.5, 0.6])
        res = hs.evaluate_many(x, 0.3, y, 0.0)
        assert np.all(np.abs(res["gamma"]) <= res["est"])
        assert np.all(np.isfinite(res["grad"]))

    def test_maximum_principle(self):
        # 0 < G <= Gamma strictly inside, for a layered half-space with a
        # face away from the interface
        med = layered_1d()
        hs = HalfSpaceGreen(med, axis=0, offset=0.5, side=1)
        ev = KernelEvaluator(med)
        xs = np.linspace(0.6, 3.0, 12)[:, None]
        res = hs.evaluate_many(xs, 0.4, np.array([1.2]), 0.0)
        free = ev.eval_many(xs, 0.4, np.array([1.2]), 0.0)
        assert np.all(res["gamma"] > 0.0)
        assert np.all(res["gamma"] <= free["gamma"] + 1e-14)

    @pytest.mark.parametrize("axis, offset, side", [
        (0, -0.4, 1), (0, 0.4, -1), (1, 0.3, 1), (1, -0.3, -1),
    ])
    def test_image_sum_is_direct_minus_mirror(self, axis, offset, side):
        # Bit-exact pin of the two-image sum: one kernel batch holding the
        # direct and the mirrored sources, in the frame where the face is
        # {z_axis = const}; the mirror's source gradient picks up the
        # reflection's Jacobian, and side -1 flips the parallel normal.
        med = TwoLayerMedium(
            upper=validate_tensor([[1.0, 0.0], [0.0, 1.0]]),
            lower=validate_tensor([[2.0, 0.0], [0.0, 3.0]]),
        )
        hs = HalfSpaceGreen(med, axis=axis, offset=offset, side=side)
        rng = np.random.default_rng(4)
        x, y = rng.uniform(-1.0, 1.0, (2, 5, 2))
        for p in (x, y):
            p[:, axis] = offset + side * rng.uniform(0.1, 1.0, 5)
        got = hs.evaluate_many(x, 0.4, y, 0.05, source_gradient=True)

        zx, zy = x.copy(), y.copy()
        if axis == 1:
            tensor = med.upper if side > 0 else med.lower.reflected(1)
            kernel_med = TwoLayerMedium(upper=tensor, lower=tensor.reflected(1))
            zx[:, 1] = side * (x[:, 1] - offset)
            zy[:, 1] = side * (y[:, 1] - offset)
            mirror = zy.copy()
            mirror[:, 1] = -zy[:, 1]
            flip = np.array([1.0, float(side)])
        else:
            kernel_med = med
            mirror = zy.copy()
            mirror[:, 0] = 2.0 * offset - zy[:, 0]
            flip = np.ones(2)
        jac = np.ones(2)
        jac[axis] = -1.0
        ref = KernelEvaluator(kernel_med).eval_many(
            np.vstack([zx, zx]), 0.4, np.vstack([zy, mirror]), 0.05,
            source_gradient=True,
        )
        k = x.shape[0]
        assert np.array_equal(got["gamma"], ref["gamma"][:k] - ref["gamma"][k:])
        assert np.array_equal(got["grad"], (ref["grad"][:k] - ref["grad"][k:]) * flip)
        assert np.array_equal(got["est"], ref["est"][:k] + ref["est"][k:])
        assert np.array_equal(
            got["sgrad"], (ref["sgrad"][:k] - jac * ref["sgrad"][k:]) * flip
        )

    def test_malformed_source_rejected(self):
        med = homogeneous_medium(validate_tensor([[1.0, 0.0], [0.0, 2.0]]))
        hs = HalfSpaceGreen(med, axis=1, offset=0.0, side=1)
        x = np.array([[0.1, 0.5], [0.2, 0.6]])
        with pytest.raises(MediumError):
            hs.evaluate_many(x, 0.5, np.array([[0.7]]), 0.0)

    def test_one_shot_wrapper(self):
        med = homogeneous_medium(validate_tensor([[1.0]]))
        hs = HalfSpaceGreen(med, axis=0, offset=0.0, side=1)
        res = hs.evaluate_many(np.array([[0.5]]), 0.5, np.array([0.7]), 0.0,
                               source_gradient=False)
        exact = gaussian_kernel(med.upper, np.array([[0.5]]), 0.5, np.array([0.7]), 0.0) - \
            gaussian_kernel(med.upper, np.array([[0.5]]), 0.5, np.array([-0.7]), 0.0)
        assert abs(res["gamma"][0] - exact) < 1e-10


class TestImageExpansion:
    def test_depth_one_counts(self):
        cube = Cube(half_width=1.0, center=np.array([0.0]))
        jac, off, signs = image_lattice(cube, 1)
        assert (jac * np.array([0.3]) + off).shape == (6, 1)
        assert set(np.unique(signs)) == {-1, 1}
        assert signs.shape == (6,)

    def test_contains_source_with_plus_sign(self):
        cube = Cube(half_width=1.0, center=np.array([0.2, -0.1]))
        y = np.array([0.5, 0.3])
        jac, off, signs = image_lattice(cube, 1)
        idx = np.where(np.all(np.abs(jac * y + off - y) < 1e-14, axis=1))[0]
        assert idx.size == 1
        assert signs[idx[0]] == 1

    def test_deterministic(self):
        cube = Cube(half_width=0.8, center=np.array([0.0, 0.0]))
        a = image_lattice(cube, 2)
        b = image_lattice(cube, 2)
        for u, v in zip(a, b):
            assert np.array_equal(u, v)

    def test_lattice_is_product_of_axis_images(self):
        # CubeGreen's per-axis images, one chosen per axis, give every
        # image of the n-D lattice once, with the product of their signs.
        cube = Cube(half_width=0.8, center=np.array([0.3, -0.2, 0.1]))
        jac, off, signs = image_lattice(cube, 2)
        a_jac, a_off, a_sign = images._axis_images(cube, 2)
        idx = np.array(list(itertools.product(range(a_jac.size), repeat=3)))
        assert np.array_equal(jac, a_jac[idx])
        assert np.array_equal(off, np.stack([a_off[j][idx[:, j]] for j in range(3)], axis=1))
        assert np.array_equal(signs, np.prod(a_sign[idx], axis=1))


class TestCubeGreen:
    def test_matches_interval_series_1d(self):
        med = homogeneous_medium(validate_tensor([[1.3]]))
        cube = Cube(half_width=1.0, center=np.array([0.0]))
        cg = CubeGreen(med, cube, depth=3)
        xs = np.linspace(-0.9, 0.9, 13)[:, None]
        res = cg.evaluate_many(xs, 0.5, np.array([0.3]), 0.0)
        exact = interval_green_1d(1.3, xs[:, 0], 0.5, 0.3, 0.0, 1.0)
        assert np.max(np.abs(res["gamma"] - exact)) < 1e-9

    def test_boundary_nearly_zero(self):
        med = homogeneous_medium(validate_tensor([[1.0, 0.0], [0.0, 2.0]]))
        cube = Cube(half_width=1.0, center=np.array([0.0, 0.0]))
        cg = CubeGreen(med, cube, depth=2)
        bdry = cg.boundary_samples(per_face=3)
        res = cg.evaluate_many(bdry, 0.2, np.array([0.1, -0.3]), 0.0)
        assert np.max(np.abs(res["gamma"])) <= cg.tail_bound(0.2) + 10.0 * np.max(res["est"]) + 1e-12

    def test_maximum_principle(self):
        med = homogeneous_medium(validate_tensor([[1.0]]))
        cube = Cube(half_width=1.0, center=np.array([0.0]))
        cg = CubeGreen(med, cube, depth=3)
        ev = KernelEvaluator(med)
        xs = np.linspace(-0.8, 0.8, 8)[:, None]
        res = cg.evaluate_many(xs, 0.3, np.array([0.2]), 0.0)
        free = ev.eval_many(xs, 0.3, np.array([0.2]), 0.0)
        assert np.all(res["gamma"] > 0.0)
        assert np.all(res["gamma"] <= free["gamma"] + 1e-14)

    def test_layered_rejected(self):
        cube = Cube(half_width=1.0, center=np.array([0.0]))
        with pytest.raises(UnsupportedGeometry):
            CubeGreen(layered_1d(), cube)

    def test_noninvariant_tensor_rejected(self):
        med = homogeneous_medium(validate_tensor([[2.0, 1.0], [1.0, 2.0]]))
        cube = Cube(half_width=1.0, center=np.array([0.0, 0.0]))
        with pytest.raises(UnsupportedGeometry):
            CubeGreen(med, cube)

    # A bool or fractional depth is refused too: int(depth) ran 2.7 as
    # depth 2 and True as depth 1.
    @pytest.mark.parametrize("depth", [0, -1, 2.7, 1.5, True, float("nan")])
    def test_depth_below_one_rejected(self, depth):
        med = homogeneous_medium(validate_tensor([[1.0]]))
        with pytest.raises(UnsupportedGeometry, match="depth"):
            CubeGreen(med, Cube(half_width=1.0, center=np.array([0.0])), depth=depth)

    def test_huge_depth_rejected(self, monkeypatch):
        # Refused before any images are built: 4e9 entries per axis, or a
        # depth that float() cannot hold.
        monkeypatch.setattr(images, "_axis_images", None)
        med = homogeneous_medium(validate_tensor([[1.0]]))
        for depth in (10 ** 9, 10 ** 400):
            with pytest.raises(UnsupportedGeometry, match="images per target"):
                CubeGreen(med, Cube(half_width=1.0, center=np.array([0.0])), depth=depth)
        cube = Cube(half_width=1.0, center=np.zeros(3))
        med = homogeneous_medium(validate_tensor(np.eye(3)))
        with pytest.raises(UnsupportedGeometry, match="images per target"):
            CubeGreen(med, cube, depth=12)  # 50^3 images

    def test_integral_depth_accepted(self):
        med = homogeneous_medium(validate_tensor([[1.0]]))
        cg = CubeGreen(med, Cube(half_width=1.0, center=np.array([0.0])), depth=3.0)
        assert cg.depth == 3 and isinstance(cg.depth, int)

    def test_lattice_built_once(self, monkeypatch):
        # The images depend only on the cube and depth fixed at construction.
        calls = []
        axis_images = images._axis_images

        def counted(cube, depth):
            calls.append(depth)
            return axis_images(cube, depth)

        monkeypatch.setattr(images, "_axis_images", counted)
        med = homogeneous_medium(validate_tensor([[1.0, 0.0], [0.0, 2.0]]))
        cg = CubeGreen(med, Cube(half_width=1.0, center=np.zeros(2)), depth=2)
        for t in (0.2, 0.3):
            cg.evaluate_many(np.array([[0.1, 0.2]]), t, np.array([0.3, -0.1]), 0.0)
        assert calls == [2]

    def test_truncation_guard(self):
        med = homogeneous_medium(validate_tensor([[1.0]]))
        cube = Cube(half_width=0.2, center=np.array([0.0]))
        cg = CubeGreen(med, cube, depth=1)
        # long time, tiny cube: depth 1 cannot meet the tolerance
        with pytest.raises(TruncationInsufficient):
            cg.evaluate_many(np.array([[0.05]]), 5.0, np.array([0.1]), 0.0)

    def test_deeper_truncation_smaller_boundary_value(self):
        med = homogeneous_medium(validate_tensor([[1.0]]))
        cube = Cube(half_width=1.0, center=np.array([0.0]))
        sups = []
        for depth in (1, 2):
            cg = CubeGreen(med, cube, depth=depth)
            res = cg.evaluate_many(np.array([[1.0]]), 0.25, np.array([0.2]), 0.0)
            sups.append(abs(res["gamma"][0]))
        assert sups[1] < sups[0]

    def test_source_shapes(self):
        med = homogeneous_medium(validate_tensor([[1.0, 0.0], [0.0, 2.0]]))
        cube = Cube(half_width=1.0, center=np.array([0.0, 0.0]))
        cg = CubeGreen(med, cube)
        x = np.array([[0.1, 0.2], [-0.3, 0.4], [0.5, -0.6]])
        ys = np.array([[0.2, 0.1], [-0.1, -0.2], [0.3, 0.3]])
        # one target against many sources is the same as repeating it
        one = cg.evaluate_many(x[:1], 0.3, ys, 0.0)
        rep = cg.evaluate_many(np.repeat(x[:1], 3, axis=0), 0.3, ys, 0.0)
        for key in ("gamma", "grad", "sgrad", "est"):
            assert np.array_equal(one[key], rep[key])
        for bad in ([0.1], [[0.1], [0.2], [0.3]], ys[:2], ys[:1]):
            with pytest.raises(MediumError):
                cg.evaluate_many(x, 0.3, np.array(bad), 0.0)

    def test_targets_outside_cube_rejected(self):
        med = homogeneous_medium(validate_tensor([[1.0, 0.0], [0.0, 2.0]]))
        # At this centre and width |(c + w) - c| exceeds w by one rounding.
        cube = Cube(half_width=1.2, center=np.array([-0.5, 0.4]))
        cg = CubeGreen(med, cube)
        y = np.array([0.2, 0.1])
        for bad in ([[5.0, 0.1]], [[-0.5, -0.8 - 1e-9]], [[0.1, 0.2], [0.7 + 1e-9, 0.0]]):
            with pytest.raises(MediumError):
                cg.evaluate_many(np.array(bad), 0.2, y, 0.0)
        # The closed cube: boundary targets and corners are accepted.
        corners = cube.center + cube.half_width * np.array([[1, 1], [-1, 1], [1, -1], [-1, -1]])
        for x in (cg.boundary_samples(3), corners):
            res = cg.evaluate_many(x, 0.2, y, 0.0)
            assert np.all(np.isfinite(res["gamma"]))

    def test_times_checked(self):
        med = homogeneous_medium(validate_tensor([[1.0, 0.0], [0.0, 2.0]]))
        cg = CubeGreen(med, Cube(half_width=1.0, center=np.array([0.0, 0.0])))
        x, y = np.array([[0.1, 0.2]]), np.array([0.0, 0.3])
        # non-numeric, non-finite, earlier and equal times
        for t, s in (("x", 0.0), (0.3, None), (np.nan, 0.0), (0.1, 0.2), (0.2, 0.2)):
            with pytest.raises(MediumError):
                cg.evaluate_many(x, t, y, s)

    def test_empty_batch(self):
        med = homogeneous_medium(validate_tensor([[1.0, 0.0], [0.0, 2.0]]))
        cg = CubeGreen(med, Cube(half_width=1.0, center=np.array([0.0, 0.0])))
        res = cg.evaluate_many(np.zeros((0, 2)), 0.3, np.array([0.0, 0.3]), 0.0)
        assert res["gamma"].shape == res["est"].shape == (0,)
        assert res["grad"].shape == res["sgrad"].shape == (0, 2)

    def test_grid_call_memory(self):
        # A call shaped like a cube call of the benchmark's green workload:
        # 25 targets with 100 images each and the source gradient.  With
        # the phase sums on every xi' node in complex arithmetic it peaked
        # at 11 MB; on the half nodes in real arithmetic, at 3.2 MB.
        med = homogeneous_medium(validate_tensor(np.diag([1.0, 2.0])))
        cg = CubeGreen(med, Cube(half_width=1.0, center=np.zeros(2)), depth=2)
        x = np.stack(np.meshgrid(np.linspace(-0.9, 0.9, 5), np.linspace(-0.85, 0.95, 5),
                                 indexing="ij"), -1).reshape(-1, 2)
        y = np.array([0.03, 0.3])
        cg.evaluate_many(x, 0.2, y, 0.0)  # one-time allocations
        tracemalloc.start()
        try:
            cg.evaluate_many(x, 0.2, y, 0.0, source_gradient=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    def test_table_call_memory(self, monkeypatch, whole_symbol):
        # A 3-D cube call whose phase layer takes the (shift x pair) table:
        # 8 targets with 216 images each, 144 distinct shifts, 12 normal
        # pairs, 7,319 half nodes on 3,720 columns.  Contracted point by
        # point it took 1.18 s and peaked at 8.73 MB of traced memory; as a
        # table, 0.31 s and 8.73 MB, the peak still in the tau contraction.
        # The phase layer itself adds the pairs' sums at every half node
        # (2.45 MB) and 0.84 MB of tiles.  One tile of all 144 shifts peaked
        # at 38.5 MB; sin psi Re h for all 12 pairs of a tile at once added
        # 1.03 MB to the phase layer.  The whole symbol goes through the
        # transform: in closed form a homogeneous medium has no phase layer.
        # CubeGreen takes its images per axis; the call is the reference
        # route's, every target with each image of the n-D lattice.
        parent_peak = 8.73e6
        med = homogeneous_medium(validate_tensor(np.diag([1.0, 2.0, 1.5])))
        ev = KernelEvaluator(med)
        ticks = np.array([-0.3, 0.3])
        x = np.stack(np.meshgrid(ticks, ticks + 0.05, ticks - 0.1, indexing="ij"),
                     -1).reshape(-1, 3)
        xs, ys, _, _, signs = image_points(Cube(half_width=0.5, center=np.zeros(3)), 1, x,
                                           np.array([0.1, -0.15, 0.2]))
        ev.eval_many(xs, 0.02, ys, 0.0, source_gradient=True)  # one-time allocations
        phase_sums = KernelEvaluator._phase_sums
        phase = {}

        def measured(self, pairs, inv, dxp, half, sums, source_gradient):
            start, phase["before"] = tracemalloc.get_traced_memory()  # reset_peak drops it
            tracemalloc.reset_peak()
            out = phase_sums(self, pairs, inv, dxp, half, sums, source_gradient)
            phase["added"] = tracemalloc.get_traced_memory()[1] - start
            phase["node_sums"] = 8 * pairs.shape[0] * (
                sums.re.shape[0] * half.nodes.shape[0] + sums.re_sub.shape[0] * half.sub_of.size)
            return out

        monkeypatch.setattr(KernelEvaluator, "_phase_sums", measured)
        tracemalloc.start()
        try:
            res = ev.eval_many(xs, 0.02, ys, 0.0, source_gradient=True)
            peak = max(phase["before"], tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        print(f"traced peak {peak / 1e6:.3f} MB, per-point phase layer {parent_peak / 1e6:.2f} MB; "
              f"phase layer added {phase['added'] / 1e6:.3f} MB")
        assert peak <= 1.15 * parent_peak
        # Beyond the sums at the nodes, a few tiles of BLOCK_ELEMENTS values.
        assert phase["added"] <= phase["node_sums"] + 8 * 8 * inverse_transform.BLOCK_ELEMENTS
        green = (np.tile(signs, x.shape[0]) * res["gamma"]).reshape(x.shape[0], -1).sum(axis=1)
        assert np.all(np.isfinite(green)) and np.all(green > 0.0)

    def test_scatter_call_memory(self):
        # An 8-point 3-D call with one source per target, across all six
        # regions.  With |p| and |q| tabled per exponent, for each half node
        # and for its mirror, it peaked at 19.6 MB; with one |r| table per
        # layer, at 13.8 MB; with the grid streamed in blocks of rows, at
        # 6.9 MB.
        med = TwoLayerMedium(upper=validate_tensor(np.eye(3)),
                             lower=validate_tensor(np.diag([2.0, 2.0, 3.0])))
        ev = KernelEvaluator(med, QuadratureConfig(target_rel_tol=1e-8))
        dt = 0.3
        reach = math.sqrt(dt)
        y, x = np.zeros((8, 3)), np.zeros((8, 3))
        y[:, 2] = [0.3, 0.3, 0.3, -0.3, -0.3, -0.3, 0.2, -0.2]
        x[:, 2] = [0.5, 0.1, -0.2, 0.2, -0.1, -0.5, 0.4, -0.4]
        x[:4, :2] = reach * np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])
        x[4:, :2] = 0.5 * reach * np.array([[1, 1], [-1, 1], [1, -1], [-1, -1]])
        ev.eval_many(x, dt, y, 0.0)  # one-time allocations
        tracemalloc.start()
        try:
            ev.eval_many(x, dt, y, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_one_shot_wrapper(self):
        med = homogeneous_medium(validate_tensor([[1.0]]))
        cube = Cube(half_width=1.0, center=np.array([0.0]))
        res = CubeGreen(med, cube, depth=3).evaluate_many(
            np.array([[0.4]]), 0.3, np.array([-0.2]), 0.0, source_gradient=False)
        exact = interval_green_1d(1.0, 0.4, 0.3, -0.2, 0.0, 1.0)
        assert abs(res["gamma"][0] - exact) < 1e-10


# (diagonal, half-width, centre, depth, lag) of a cube Green function.
CUBES = [
    pytest.param([1.3], 1.0, [0.0], 3, 0.5, id="1d"),
    pytest.param([1.0, 2.0], 1.0, [0.0, 0.0], 2, 0.2, id="2d"),
    pytest.param([0.7, 1.5], 0.8, [0.4, -0.3], 2, 0.1, id="2d-off-centre"),
    pytest.param([2.0, 0.5, 1.0], 0.8, [0.3, -0.2, 0.1], 2, 0.1, id="3d-off-centre"),
]


def cube_batch(cube: Cube, rng, k: int = 12):
    """k targets in the closed cube, the first 2n on its faces, and one
    source per target strictly inside."""
    n, w, c = cube.dim, cube.half_width, cube.center
    x = c + w * rng.uniform(-0.95, 0.95, (k, n))
    for j in range(n):
        x[2 * j, j], x[2 * j + 1, j] = c[j] - w, c[j] + w
    return x, c + w * rng.uniform(-0.9, 0.9, (k, n))


class TestCubeProduct:
    """CubeGreen takes the image sum as a product of per-axis sums; the
    reference route sums the n-D lattice through eval_many."""

    @pytest.mark.parametrize("diag,w,center,depth,dt", CUBES)
    @pytest.mark.parametrize("per_target", [False, True])
    def test_matches_lattice_route(self, diag, w, center, depth, dt, per_target):
        med = homogeneous_medium(validate_tensor(np.diag(diag)))
        cube = Cube(half_width=w, center=np.array(center))
        x, y = cube_batch(cube, np.random.default_rng(len(diag)))
        if not per_target:
            y = y[0]
        res = CubeGreen(med, cube, depth=depth).evaluate_many(x, dt, y, 0.0)
        ref = lattice_green(KernelEvaluator(med), cube, depth, x, dt, y, 0.0)
        est = res["est"] + ref["est"]
        for key in ("gamma", "grad", "sgrad"):
            move = np.abs(res[key] - ref[key]).reshape(x.shape[0], -1).max(axis=1)
            assert np.all(move <= est), key
        assert np.all(res["gamma"][2 * len(diag):] > 0.0)

    @pytest.mark.parametrize("diag", [[1.0, 2.0], [1.5, 0.5, 1.0]])
    def test_matches_interval_products(self, diag):
        # Centred cubes of half-width 1: Gamma is the product of the 1-D
        # interval Green functions, whose series has 40 shells per axis.
        n = len(diag)
        med = homogeneous_medium(validate_tensor(np.diag(diag)))
        cube = Cube(half_width=1.0, center=np.zeros(n))
        x, y = cube_batch(cube, np.random.default_rng(5), 40)
        res = CubeGreen(med, cube, depth=2).evaluate_many(x, 0.2, y, 0.0)
        exact = np.prod([interval_green_1d(a, x[:, j], 0.2, y[:, j], 0.0, 1.0)
                         for j, a in enumerate(diag)], axis=0)
        assert np.all(np.abs(res["gamma"] - exact) <= res["est"])

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("dt", [1e-5, 1e-4])
    def test_est_covers_long_double(self, dt):
        # diag(1, 50) at a short lag: a narrow Gaussian on one axis, whose
        # peak is large, and many overlapping images on the other.  Gamma,
        # grad and sgrad against the series in long double, each error
        # within est, at targets near the source (the narrow axis's peak),
        # at targets and sources near one face of the narrow axis, and on
        # the faces of the wide axis.  Without the sums' error
        # bounds, without carrying them through the product, or without
        # the offsets' rounding (d_err), est fails this test.
        diag = [1.0, 50.0]
        med = homogeneous_medium(validate_tensor(np.diag(diag)))
        cube = Cube(half_width=1.0, center=np.zeros(2))
        rng = np.random.default_rng(11)
        x, y = cube_batch(cube, rng, 3000)
        reach = np.sqrt(dt * np.array(diag))
        x[:2000] = np.clip(y[:2000] + [0.3, 3.0] * reach * rng.uniform(-1.0, 1.0, (2000, 2)),
                           -1.0, 1.0)
        face = rng.choice([-1.0, 1.0], 500)
        x[2000:2500, 0], y[2000:2500, 0] = face * (1.0 - 3.0 * reach[0] * rng.uniform(0.0, 1.0, (2, 500)))
        x[2500:, 1] = np.sign(x[2500:, 1])
        res = CubeGreen(med, cube, depth=2).evaluate_many(x, dt, y, 0.0)
        gamma, grad, sgrad = long_double_green(diag, cube, 2, x, dt, y)
        assert np.all(np.abs(res["gamma"] - gamma).astype(float) <= res["est"])
        for key, exact in (("grad", grad), ("sgrad", sgrad)):
            assert np.all(np.abs(res[key] - exact).astype(float).max(axis=1) <= res["est"]), key

    def test_no_transform(self, monkeypatch):
        # A cube call builds no KernelEvaluator and makes no eval_many call.
        def refuse(*args, **kwargs):
            raise AssertionError("a cube Green function used the transform")

        monkeypatch.setattr(KernelEvaluator, "__init__", refuse)
        monkeypatch.setattr(KernelEvaluator, "eval_many", refuse)
        med = homogeneous_medium(validate_tensor(np.diag([1.0, 2.0, 1.5])))
        cube = Cube(half_width=1.0, center=np.zeros(3))
        x, y = cube_batch(cube, np.random.default_rng(2))
        res = CubeGreen(med, cube).evaluate_many(x, 0.2, y, 0.0)
        assert np.all(np.isfinite(res["gamma"])) and np.all(res["est"] > 0.0)

    def test_value_independent_of_batch(self):
        # Each point's outputs, est included, are those of its call alone.
        med = homogeneous_medium(validate_tensor(np.diag([1.0, 2.0, 1.5])))
        cube = Cube(half_width=1.0, center=np.zeros(3))
        x, y = cube_batch(cube, np.random.default_rng(3), 9)
        cg = CubeGreen(med, cube, depth=3)
        batch = cg.evaluate_many(x, 0.3, y, 0.0)
        for k in range(x.shape[0]):
            alone = cg.evaluate_many(x[k:k + 1], 0.3, y[k:k + 1], 0.0)
            for key in ("gamma", "grad", "sgrad", "est"):
                assert alone[key].tobytes() == batch[key][k:k + 1].tobytes(), (k, key)

    def test_per_target_source_outside_rejected(self):
        # One source per target, one of them on a face or beyond it.
        med = homogeneous_medium(validate_tensor(np.diag([1.0, 2.0])))
        cube = Cube(half_width=1.0, center=np.array([0.2, -0.1]))
        cg = CubeGreen(med, cube)
        x, y = cube_batch(cube, np.random.default_rng(4), 6)
        cg.evaluate_many(x, 0.2, y, 0.0)
        for bad in ([1.2, 0.0], [0.0, -1.1], [0.0, np.nan]):
            y_bad = y.copy()
            y_bad[3] = bad
            with pytest.raises(MediumError, match="sources must lie strictly inside the cube"):
                cg.evaluate_many(x, 0.2, y_bad, 0.0)


class TestAdjoint:
    def test_involution_returns_base(self):
        med = homogeneous_medium(validate_tensor([[1.0]]))
        cube = Cube(half_width=1.0, center=np.array([0.0]))
        cg = CubeGreen(med, cube)
        assert adjoint_green(adjoint_green(cg)) is cg

    def test_values_bit_exact(self):
        med = homogeneous_medium(validate_tensor([[1.0, 0.0], [0.0, 2.0]]))
        cube = Cube(half_width=1.0, center=np.array([0.0, 0.0]))
        cg = CubeGreen(med, cube)
        adj = adjoint_green(cg)
        x, y = np.array([0.3, -0.2]), np.array([-0.4, 0.5])
        direct = cg.evaluate_many(x[None, :], 0.5, y, 0.1, source_gradient=True)
        swapped = adj.evaluate_many(y[None, :], 0.1, x, 0.5, source_gradient=True)
        assert swapped["gamma"][0] == direct["gamma"][0]
        assert np.array_equal(swapped["grad"], direct["sgrad"])
        assert np.array_equal(swapped["sgrad"], direct["grad"])


class TestVolumePotential:
    def test_manufactured_eigenfunction(self):
        # w(x, t) solving w_t = a w_xx - div F with w = 0 on the boundary:
        # F = grad(phi), phi = cos(pi x / (2 L)) gives
        # w = phi(x) (exp(-a lam (t - t0)) - 1)/a, lam = (pi/(2L))^2.
        a, half = 1.0, 1.0
        med = homogeneous_medium(validate_tensor([[a]]))
        cube = Cube(half_width=half, center=np.array([0.0]))
        gstar = AdjointGreen(CubeGreen(med, cube, depth=3))
        lam = (np.pi / (2.0 * half)) ** 2

        def force(pts, s):
            return -np.pi / (2.0 * half) * np.sin(np.pi * pts[:, :1] / (2.0 * half))

        x, t, t0 = np.array([0.3]), 0.4, 0.0
        val = volume_potential(gstar, force, x, t, cube, t0)
        exact = np.cos(np.pi * x[0] / (2.0 * half)) * (np.exp(-a * lam * (t - t0)) - 1.0) / a
        assert abs(val - exact) < 1e-6 * abs(exact)

    def test_lag_refused(self):
        # t < t0 raised ValueError (math domain error) from the square root.
        med = homogeneous_medium(validate_tensor([[1.0]]))
        cube = Cube(half_width=1.0, center=np.array([0.0]))
        gstar = AdjointGreen(CubeGreen(med, cube, depth=2))
        with pytest.raises(MediumError):
            volume_potential(gstar, lambda pts, s: np.ones_like(pts), np.array([0.2]), 0.1,
                             cube, 0.3, n_time=6, n_space=10)

    def test_zero_force_zero_potential(self):
        med = homogeneous_medium(validate_tensor([[1.0]]))
        cube = Cube(half_width=1.0, center=np.array([0.0]))
        gstar = AdjointGreen(CubeGreen(med, cube, depth=2))
        val = volume_potential(
            gstar, lambda pts, s: np.zeros_like(pts), np.array([0.2]), 0.3, cube, 0.0,
            n_time=6, n_space=10,
        )
        assert val == 0.0

    def test_linearity(self):
        med = homogeneous_medium(validate_tensor([[1.0]]))
        cube = Cube(half_width=1.0, center=np.array([0.0]))
        gstar = AdjointGreen(CubeGreen(med, cube, depth=2))
        f = lambda pts, s: np.sin(pts)
        x, t, t0 = np.array([0.1]), 0.25, 0.0
        v1 = volume_potential(gstar, f, x, t, cube, t0, n_time=8, n_space=16)
        v2 = volume_potential(
            gstar, lambda p, s: 3.0 * f(p, s), x, t, cube, t0, n_time=8, n_space=16
        )
        assert v2 == pytest.approx(3.0 * v1, rel=1e-12)
