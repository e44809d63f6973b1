"""Heat kernels and Dirichlet Green functions for two-layer anisotropic media.

The kernel of dt - div(A grad) with piecewise-constant symmetric
positive-definite coefficients across the flat interface {x_n = 0} is
evaluated by inverting an explicit Fourier-Laplace symbol construction;
Green functions on half-spaces and cubes follow by the method of images,
and verification harnesses check Gaussian bounds, energy estimates, and
agreement with an independent finite-difference solver.
"""
from .medium import (
    Cube,
    DiffusionTensor,
    KernelQuery,
    MediumError,
    NotElliptic,
    NotSymmetric,
    OnInterface,
    TwoLayerMedium,
    UnsupportedDimension,
    homogeneous_medium,
    piecewise_tensor,
    validate_tensor,
)
from .inverse_transform import (
    KernelEvaluator,
    KernelValue,
    QuadratureConfig,
    QuadratureNotConverged,
    certify_mu,
    delta_recovery,
    eval_kernel,
    mass_integral,
)
from .images import (
    AdjointGreen,
    CubeGreen,
    HalfSpaceGreen,
    TruncationInsufficient,
    UnsupportedGeometry,
    adjoint_green,
    cube_green,
    half_space_green,
    volume_potential,
)
from .oracle import (
    Grid,
    GridFunction,
    InterfaceNotOnGrid,
    SolveFailed,
    approximate_kernel,
    fdm_solve,
    interior_solution_sampler,
)
from .bounds import (
    BoundFitReport,
    ExponentMismatch,
    NoFiniteConstant,
    SampleSpec,
    fit_aronson,
    fit_gradient_bound,
    interior_estimate_check,
    q_rho_integral,
    schur_bound,
)

__version__ = "0.1.0"
