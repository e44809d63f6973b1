import numpy as np
import pytest

from layerheat.medium import (
    Cube,
    MediumError,
    NotElliptic,
    NotSymmetric,
    TwoLayerMedium,
    UnsupportedDimension,
    homogeneous_medium,
    validate_tensor,
)


class TestValidateTensor:
    def test_identity_accepted(self):
        t = validate_tensor(np.eye(2))
        assert t.dim == 2
        assert t.delta == 1.0
        # Integers are numbers too.
        assert validate_tensor([[1, 0], [0, np.int64(1)]]) == t

    def test_anisotropic_delta(self):
        # [[2,1],[1,2]] has eigenvalues 1 and 3 (characteristic polynomial
        # (2-l)^2 - 1), so the ellipticity constant is 1.
        t = validate_tensor([[2.0, 1.0], [1.0, 2.0]])
        assert t.delta == pytest.approx(1.0, abs=1e-14)
        ev = np.linalg.eigvalsh(t.entries)
        assert ev == pytest.approx([1.0, 3.0], abs=1e-14)

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            validate_tensor([[1.0, 0.1], [0.2, 1.0]])

    def test_not_elliptic(self):
        with pytest.raises(NotElliptic):
            validate_tensor([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotElliptic):
            validate_tensor([[0.0]])

    @pytest.mark.parametrize("entries", [
        "abc", [["a"]], {"a": 1}, [[1, 2], [3]], [["2"]], [[True]],
        [[2.0, False], [False, 1.0]], [[np.True_]], np.eye(2, dtype=bool),
    ])
    def test_not_a_matrix_of_numbers(self, entries):
        # numpy's conversion errors (ValueError, TypeError) escaped untyped,
        # and numeric strings and booleans were read as numbers.
        with pytest.raises(MediumError, match="matrix of numbers"):
            validate_tensor(entries)

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimension):
            validate_tensor(np.eye(4))
        with pytest.raises(UnsupportedDimension):
            validate_tensor(np.ones((2, 3)))

    def test_entries_frozen(self):
        t = validate_tensor(np.eye(2))
        with pytest.raises(ValueError):
            t.entries[0, 0] = 5.0


class TestReflection:
    def test_diagonal_unchanged(self):
        t = validate_tensor([[2.0, 0.0], [0.0, 3.0]])
        assert t.reflected(0) == t
        assert t.is_reflection_invariant(0)

    def test_offdiagonal_negated(self):
        t = validate_tensor([[2.0, 1.0], [1.0, 2.0]])
        r = t.reflected(0)
        assert np.array_equal(r.entries, [[2.0, -1.0], [-1.0, 2.0]])

    def test_involution_exact(self):
        t = validate_tensor([[2.0, 0.5, 0.1], [0.5, 3.0, -0.2], [0.1, -0.2, 1.5]])
        assert t.reflected(1).reflected(1) == t

    def test_spectrum_preserved(self):
        t = validate_tensor([[2.0, 1.0], [1.0, 2.0]])
        r = t.reflected(1)
        assert abs(r.delta - t.delta) <= 1e-14
        assert np.allclose(
            np.linalg.eigvalsh(r.entries), np.linalg.eigvalsh(t.entries), atol=1e-14
        )


class TestSchurComplement:
    def test_dim1_is_coefficient(self):
        t = validate_tensor([[3.5]])
        assert t.schur_complement_min() == 3.5

    def test_dim2_formula(self):
        # Schur complement of a_nn in [[a11, g], [g, ann]] is a11 - g^2/ann.
        t = validate_tensor([[2.0, 1.0], [1.0, 2.0]])
        assert t.schur_complement_min() == pytest.approx(2.0 - 0.5, abs=1e-14)


class TestMedium:
    def test_homogeneous(self):
        m = homogeneous_medium(validate_tensor(np.eye(2)))
        assert m.is_homogeneous
        assert m.dim == 2

    def test_dim_mismatch(self):
        with pytest.raises(UnsupportedDimension):
            TwoLayerMedium(
                upper=validate_tensor(np.eye(2)), lower=validate_tensor(np.eye(3))
            )

    def test_extremes(self):
        m = TwoLayerMedium(
            upper=validate_tensor([[1.0]]), lower=validate_tensor([[4.0]])
        )
        assert m.max_eigenvalue() == 4.0
        assert m.min_delta() == 1.0


class TestCube:
    def test_invalid_width(self):
        with pytest.raises(MediumError):
            Cube(half_width=0.0, center=np.array([0.0]))

    @pytest.mark.parametrize("width", [np.inf, np.nan])
    def test_non_finite_width(self, width):
        # An infinite half_width passed (not inf > 0 is False), and a cube
        # Green function on it returned NaN for every output.
        with pytest.raises(MediumError, match="half_width must be positive and finite"):
            Cube(half_width=width, center=np.zeros(2))

    @pytest.mark.parametrize("center", [[np.nan, 0.0], [0.0, np.inf], [-np.inf, 0.0]])
    def test_non_finite_center(self, center):
        with pytest.raises(MediumError, match="center must be finite"):
            Cube(half_width=1.0, center=center)

    @pytest.mark.parametrize("center", [0.5, None, [[0.0, 0.0]]])
    def test_center_not_a_point(self, center):
        # A 0-d center failed later with an IndexError in Cube.dim.
        with pytest.raises(MediumError, match="center must be a point"):
            Cube(half_width=1.0, center=center)
