"""Numerical inversion of the Fourier-Laplace representation of the kernel.

The fundamental solution is recovered from the region symbols V by

    Gamma = (2*pi)^{-(n-1)} Int_{R^{n-1}} e^{i(x'-y').xi'}
            [ (1/2*pi*i) Int_C e^{tau(t-s)} V(x_n, y_n, xi', tau) dtau ] dxi'

The Laplace contour C is a hyperbolic contour deformed into the left
half-plane (exponentially convergent trapezoid rule, Weideman & Trefethen,
Math. Comp. 76 (2007)).  The quadrature evaluates the symbols at real xi'
only, where Theta^2 / a_nn = tau + xi'^T S xi' with S the layer's
tangential Schur complement and xi'^T S xi' >= 0.  The hyperbola meets
the real axis only at tau_0 = mu_c (1 - sin alpha) > 0, so Theta^2 of
both layers stays off the branch cut (-inf, 0] at every node, for every
SPD pair and at every scale of A; no certificate is needed to choose the
contour.  (certify_mu gives the paper's analyticity domain L_mu, which
is about complex xi'.)  A term e^{-r_X |x_n| - r_Y |y_n|} of a normal pair
has the integrand e^{tau (t-s) - delta sqrt(tau (t-s))} at the depth delta
(KernelEvaluator._depths), whose saddle tau (t-s) = delta^2 / 4 moves with
the depth, so one contour per depth band serves 1-D, 2-D and 3-D alike
(_CONTOUR_ROWS, Weideman, SIAM J. Numer. Anal. 44 (2006), tunes a contour
to the range of the parameter it serves): M = 20 near the peak, below depth
6, where the rule errs by 8.2e-16 on 1/sqrt(tau), within the 1e-13 target
of every tolerance down to 1e-9, and M = 16 deeper, crossing the real axis
nearer the deeper saddles.  Each pair takes the row of its own depth, so
the plan of a pair depends on the pair alone, and a call's pairs are
ordered by row within each region (eval_many); the symbols of a block are
built once on the nodes of every row the call takes, and each pair
contracts its own row's.  The nodes and weights are formed in long double
and rounded once (_contour_shape).

The tangential xi' integral is a uniform trapezoid rule too: its
integrand is analytic and decays like a Gaussian, the textbook case for
that rule (Trefethen & Weideman, SIAM Rev. 56 (2014)).  Its radius follows
that decay (Tail bound), its spacing the oscillation of the phase, the
shift s = x' - y' + c_p x_n + c_q y_n (Half rule), and the widest layer
(_xi_spacing).

Error estimate.  est bounds Gamma and grad together, each part the largest
over them, and is the largest of five parts, in every dimension:
- the contour part: CONTOUR_SAFETY times the tabulated ratio of the
  pair's row at its depth (_CONTOUR_ROWS) times the rule's L1 magnitude
  sum_m |W_m V_m|, a node sum over the xi' columns with no phase
  (_tau_sums), a priori in every band: the ratio follows the depth unit by
  unit, below 1e-15 near the peak and 1 in the far tail, where the L1
  magnitude, set by the contour's ends, exceeds the value by many orders;
- the images of the xi' rule: by Poisson summation the step-h rule
  returns sum_j R(s + 2 pi j / h), R the part of the kernel that the
  transform integrates, and its images j != 0 are bounded a priori from
  R's L1 mass over the grid and the Gaussian of the widest tangential
  spread (_image_bound; 0 in 1-D);
- the tail bounds of what the grid leaves out (Tail bound);
- the roundoff floor of the terms (_tau_sums), scaled on a sheared medium
  by the condition of Theta^2 (_cond, ROUNDOFF_UNITS);
- where the direct term is taken in closed form, its own roundoff (Direct
  term), and 1e-15 |Gamma|.

Direct term.  The kernel of a two-layer medium is the whole-space kernel
of the source layer plus reflected and transmitted corrections, and only
the corrections need the transform.  Where target and source lie in
layers of one tensor (closed_form_regions: R11, R12, R21 and R22, and in a
homogeneous medium R2 and R1 too) the direct term, 1/(2 Theta) or in a
homogeneous medium the transmitted 1/(Theta_A + Theta_B), inverts to the
Gaussian Gamma_D = e^{-d.A^-1 d / (4 dt)} / ((4 pi dt)^{n/2} sqrt(det A)),
d = x - y and A the source layer's tensor: the quasi-static subtraction of
Michalski & Mosig, IEEE Trans. Antennas Propag. 45 (1997).  eval_many adds
Gamma_D, its gradient and, as the source gradient, minus that in closed
form (_direct), and _tau_sums contracts only the rest: the reflected
terms, which are 0 in a homogeneous medium and skipped, and the
transmitted terms of a layered one.  A call none of whose pairs has a term
left runs no phase layer and no tail bound (eval_many), so a homogeneous
medium forms no exponential and no cos psi.  The truncation test still
compares against the total |Gamma|.  Cross-interface pairs of a layered
medium keep their whole symbol, to the byte.  The tests switch the split
off by patching closed_form_regions, which keeps the transform checked
against the Gaussian on homogeneous media.

Half rule.  The kernel is real: at real xi' the integrand at (-xi', conj
tau) is the complex conjugate of the integrand at (xi', tau), because
Theta^2 has real coefficients and the i*xi'.g terms change sign with xi'.
The contour is symmetric (tau_{-k} = conj tau_k, w_{-k} = conj w_k) and
the xi' grid is point-symmetric, so only the nodes k = 0..M are
evaluated, the weights of k > 0 are doubled, and every sum is the real
part of the half sum.

The xi' grid is halved too.  Node Q-1-q of the grid is -xi'_q.  Theta^2 =
a_nn (xi'^T A_tt xi' + tau) - (a_t.xi')^2 is even in xi', and so are the
roots, their sums and every coefficient, to the last bit; only the linear
forms a_t.xi' are odd, and they hold no tau.  So each exponent
(+-i a_t.xi' +- Theta)/a_nn is an odd phase i phi plus an even root part
r, and e^{p x_n + q y_n} = e^{i Phi} e^{r_p x_n + r_q y_n}, Phi = phi_p x_n +
phi_q y_n.  Each phase is one linear form per region, phi_p = c_p.xi'
and phi_q = c_q.xi' (symbols.region_phases), 0 where a_t = 0.  The
symbols, the exponentials e^r and the tau contraction run on the (Q+1)/2
nodes 0..(Q-1)/2 only, or on fewer (Symmetry; _tau_sums).  Their half sum
h is even in xi', so the full contour rule's integrand, the mean of the
half sums e^{i Phi} h at a node and conj(e^{-i Phi} h) at its mirror, is
e^{i Phi} Re h, and only Re h is kept.  With psi = s.xi', s = x' - y' +
c_p x_n + c_q y_n the point's shift (eval_many forms it once), a node and
its mirror add 2 cos psi Re h to Gamma, and sin psi terms to the
gradients: real sums over the half nodes (_phase_sums).  The integrand
oscillates with s, so the spacing follows the largest |s_j| of the call
(_xi_spacing): from x' - y' alone, on a sheared medium whose targets reach
30 diffusion lengths normally, where c_p x_n dominates, Gamma erred by up
to 0.11 of itself between 1e-16 and 1e-8 of the peak (9e-9 from s).

Symmetry.  One builder, KernelEvaluator._half_grid, forms the grid's
canonical half, its weights and the columns of the tau sums as one
HalfGrid value, and the tau contraction, the phase layer and the tail
bound read only that value.  In 3-D a medium may keep more of
the grid's symmetries.  When row j of A has no off-diagonal entry in both
layers (A_tt and a_t are zero off the diagonal there), the reflection
xi_j -> -xi_j leaves xi'^T A_tt xi' and (a_t.xi')^2 unchanged to the last
bit, and with them every root and coefficient.  When both axes reflect, their
spacings are equal and A_tt[0,0] == A_tt[1,1] in each layer, so does the
exchange of the two axes.  With the mirror of the half rule these maps
split the canonical half into orbits, and the tau contraction runs on one
representative per orbit, (-|m_0|, -|m_1|) in units of the steps, ordered
|m_0| >= |m_1| under the exchange (HalfGrid.xi).  A half node reads the
sums of its representative (HalfGrid.of), and its phases come from its own
xi'.  The floor, mass and contour rows and the tail bound's integrands
are the same at every node of an orbit (they read |phi| and |xi|), so
their node sums take each orbit's summed weights.  The benchmark's 3-D
batch (I | diag(2,2,3), equal reach on both axes) runs on 190 of its 685
half nodes.  In 1-D, in 2-D (where a reflection is the half rule's own
mirror) and on media coupled on both tangential axes every node is its own
representative, and no map is formed.

Shared symbols.  A call's unique normal pairs (x_n, y_n) form one table,
ordered by region.  All six region symbols are built from one table of
Theta_A, Theta_B, their sum, the two root parts and five coefficients
(symbols.SymbolTable), so a block of the grid (Streaming) evaluates each
array once for all regions.  A term that two regions share (R11/R12,
R21/R22) is the same arrays, and the tau contraction runs once per block
for each distinct term, over the normal pairs of every region that has it.

Phase table.  A point's phase psi = s.xi' depends on it only through its
shift s = x' - y' + c_p x_n + c_q y_n, and its tau sums only through its
normal pair.  Tensor grids and image sums repeat both: a cube call of the
benchmark's green workload has 2,500 points but 50 shifts and 50 pairs.
When the P pairs number at most half the K points, the phase layer finds
the S distinct shifts, and when they make a table of S P <= K entries it
forms cos psi and sin psi once per shift, reads every pair's sums at the
H half nodes once (P H values per row of sums), and contracts each entry
as it would a point; else, as for 1-D calls with distinct x_n, point by
point.  Both sum every product over the half nodes in the same order
(_real_sums), so a point's bytes depend neither on the route nor on the
fold (Symmetry).

Streaming.  The tau contraction runs over the columns of the one HalfGrid
(Symmetry), the representatives of the canonical half, in blocks of
consecutive columns, max(1, BLOCK_ELEMENTS // M_u) of them, M_u the contour
nodes of every row the call's pairs take, the last block shorter: a block
fills the budget of (column, contour node) entries, wherever the rows of
the grid end.  A block holds its SymbolTable, its region terms, their
|root| tables, the weights of one term at a time, and one chunk of
exponentials (normal pairs x columns x contour nodes, within
the same budget).  It adds its columns of the half sums, and hands its
columns of the floor, mass and contour rows to fixed tiles of SUM_COLUMNS
columns, each summed at once when it is full (_tau_sums).  What
outlives a block is a few arrays of (normal pairs x representatives):
memory is O(BLOCK_ELEMENTS x terms + pairs x representatives), where the
whole-grid tables were O(H x M x terms).  The phase layer forms cos psi
and sin psi for one tile of shifts (of points, point by point) at a time,
as many as fit BLOCK_ELEMENTS (shift, half node) entries and at least one,
and sin psi Re h for as many (entry, node) values or one entry; it keeps
the (shift x pair) table, at most K entries per row.  Each node's sums
over the contour run in the same order in any block, its at most two
terms add to zero in either order to the same bits, and each table entry
is its own sum, so neither Gamma, its gradients nor est depend on the
partition.

Evaluator constants.  What the medium and the tolerance fix is built once,
on first use, and kept: on the evaluator the region phases (_phases), the
closed-form regions (_closed), the condition of Theta^2 (_cond) and the
source layers' inverses (_gaussians); per contour row, shared by all
evaluators, its nodes and weights times the lag (_contour_shape), which
the lag only divides.  Nothing that depends on a call's lag, points or
grid outlives the call.

Tail bound.  After the tau integral the integrand decays like
e^{-a |xi'|^2}, a = lambda_min(S) (t - s) over the tangential Schur
complements S of both layers, so one xi' grid on [-R0, R0] per axis
suffices: a R0^2 = ln(100/tol), widened below tol 1e-6 (_base_radius).
Axis j reaches R_j = k_j h_j >= R0, its outermost node.  A bound on what
the grid leaves out is the grid's own mass on R_j/2 <= |xi_j| <= R_j,
extrapolated beyond R_j by the Gaussian mass ratio, axis by axis
(_tail_bound).  It reads the full rule's integrand, |Re h| at a node and
at its mirror alike; |h| would not do, since the imaginary part of the
half sum, which the mirrored node cancels, decays only like 1/|xi'|.
Gamma and the gradients get bounds of their own, and each is tested
against its own scale: 0.1 tol |Gamma| plus 0.1 tol times the kernel
scale (4 pi dt)^{-n/2} det^{-1/2}, and 0.1 tol max|grad Gamma| plus 0.1
tol times the kernel scale over the length sqrt(min_delta dt).  A grid
that fails either test raises QuadratureNotConverged; there is no second
grid.  The larger bound is the truncation part of est.  In 1-D the one
node xi' = 0 lies on no axis, and both bounds are 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .medium import MediumError, OnInterface, TwoLayerMedium
from .symbols import REGIONS, Region, SymbolTable, region_index, region_phases, region_terms


class QuadratureNotConverged(RuntimeError):
    """The xi' grid's tail bound fails its truncation test (CLI exit 3)."""


# Hyperbolic contour shapes tau(u) = mu_c (1 + sin(i u - alpha)) sampled at
# u = k h, h = u_max / M, k = -M..M (only k = 0..M are evaluated, see
# _hyperbolic_nodes), with mu_c = mu_dt / (t - s), one per depth band of the
# normal pairs, in 1-D, 2-D and 3-D alike (module docstring).
#
# Columns: (depth, alpha, u_max, mu_dt, M, error, ratios).  A pair takes the
# last row whose depth is at most that of its shallowest contracted term
# (KernelEvaluator._depths).  A term e^{-r_X |x_n| - r_Y |y_n|}, r = sqrt((tau
# + k) / a_nn) with k = xi'^T S xi', is modelled by F = e^{-d sqrt(tau + k)}
# / sqrt(tau + k) and, for its normal gradient, e^{-d sqrt(tau + k)}, d =
# delta sqrt(t - s) at the depth delta (exact: e^{-k (t - s)} times
# e^{-delta^2 / 4} / sqrt(pi (t - s)), and delta / (2 sqrt(t - s)) times
# that).  e^{tau (t - s)} F has its saddle at tau (t - s) = delta^2 / 4: row
# 0, which takes depths below 6 at M = 20, crosses the real axis at tau (t -
# s) = 3.8, and row 1, M = 16, at 15.6, the saddle of depth 7.9.  Both
# shapes come from searches that kept the error on the model, at every depth
# of the band, near that of the former rows (M = 48 in 1-D, M = 32 in 2-D
# and 3-D): its median over the depths, lags and grids is 0.38 of theirs on
# row 0 and 0.024 on row 1 (depths 6 to 15; 2e-9 against 3e-7 at depth
# 14), each floored at 1e-15.  Beyond depth 15, 1e-25 of the peak, neither
# is accurate, and the ratios say so.  error is the relative error of the
# inversion of 1/sqrt(tau) (exact 1/sqrt(pi (t - s))), the largest over t -
# s = 0.01, 0.3 and 3, rounded up to two digits: row 0 meets the 1e-13
# target of every tolerance down to 1e-9, and the target below that is out
# of reach of double precision, so M does not depend on the tolerance; row 1
# is not built for depth 0.  ratios[j] is the rule's error against its L1
# magnitude sum_m |W_m F(tau_m)|, each summed in modulus over the columns
# of a xi' grid, k = |xi'|^2 with the
# weights 1 and |xi'| (the tangential gradient): k = 0 (1-D), 121 nodes and
# 41 x 41 nodes out to k (t - s) = 60; the largest over t - s = 0.01 to 3,
# both models and the depths from depth + j to depth + j + 1, the last entry
# to the next row's depth, or for the last row to depth 60, beyond which
# every term underflows; rounded up to one digit.  The model and the sums
# are formed in long double: the roundoff of forming the terms in double is
# the roundoff floor's part of est (ROUNDOFF_UNITS), and formed in double
# the ratios near the peak read 5e-16 to 8e-15, that roundoff.
# tools/contour_rows.py measures both columns and prints this literal.
# ratios are the contour part of est (KernelEvaluator.eval_many), per unit
# of depth: below 1e-15 near the peak, 1 in the far tail, where the L1
# magnitude, set by the contour's ends, exceeds the value by many orders.
_CONTOUR_ROWS = (
    (0.0, 0.896, 1.912, 17.5, 20, 8.2e-16, (8e-17, 7e-17, 2e-16, 3e-16, 3e-16, 3e-16)),
    (6.0, 0.548, 1.522, 32.66, 16, 0.014, (2e-15, 6e-16, 6e-16, 6e-16, 6e-16, 4e-16, 8e-15, 4e-13, 4e-11,
                                            3e-09, 2e-07, 4e-06, 7e-05, 0.0009, 0.007, 0.04, 0.2, 0.4, 0.7,
                                            1.0, 1.0)),
)

# The cap of the analyticity certificate mu, which 1-D media reach, and its
# relative margin below the exact supremum, which covers the bisection and
# the rounding of its test.
MU_MAX = 2.4
MU_MARGIN = 1e-6

# Factor on the Gaussian extrapolation of the xi' tail (see _tail_bound).
TAIL_SAFETY = 10.0

# Roundoff floor of est.  A term w e^z of Gamma, z = p x_n + q y_n, is
# rounded by about eps (|p x_n| + |q y_n|) relative through its exponent,
# and by a few eps through the exponential, the products and the sum;
# ROUNDOFF_UNITS counts the latter.  On the 1-D closed form the exponent
# part dominates: errors reach 9-11 eps sum |terms| where the Gaussian
# exponent is 8-12.  The gradients carry a factor p, q or i xi_j in each
# term and get floors of their own: at short lags |p| reaches tens on the
# contour, and the normal gradient's roundoff then exceeds Gamma's floor.
# Each |p| is bounded by |r| + |phi|, root part plus phase (_tau_sums).
# On a sheared medium Theta^2 = a_nn (tau + xi'^T A_tt xi') - (a_t.xi')^2
# cancels at real xi' by up to the factor 1 + 2 a_t^T S^-1 a_t / a_nn (S the
# tangential Schur complement), by which the roots, the coefficients and the
# exponents are rounded more, and the floor is scaled by the larger factor
# of the two layers (KernelEvaluator._cond; 1 where a_t = 0): on [[1, .99],
# [.99, 1]] (99.5) at t - s = 0.01 the gradient erred by 1.3 times the
# unscaled floor.
# The closed-form direct term's roundoff takes U (1 + E_abs) times its
# size (_direct): measured against extended precision on 60 random SPD
# tensors in 1-D to 3-D, errors reached 0.79 of that.  At exponents E of
# 50 to 700 the rounding of d = x - y adds about as much again, which
# _direct bounds on its own: on 400 random 1-D cases the gradient's error
# reached 1.15 times the U (1 + E_abs) part alone, and 0.68 of the sum.
ROUNDOFF_UNITS = 2.0

# Factor on the contour part of est (module docstring, Error estimate): it
# covers the coefficients and the two layers' roots of the real terms, which
# the model of _CONTOUR_ROWS leaves out.  Against the exact layered kernels
# of 1-D, 2-D and 3-D (reference) at t - s = 0.01 to 0.3, out to 16
# diffusion lengths normally and 4 tangentially, every error stayed within
# 0.76 of est.
CONTOUR_SAFETY = 4.0

# Factor on the a priori bound of the xi' rule's images (see _image_bound),
# and the width of its Gaussian, IMAGE_SPREAD times t_max (see _xi_spacing),
# calibrated together.  With the spacing scaled by 1.5, 2 and 3, so that the
# images show above the roundoff, the rule's error against the same rule at
# half the spacing, over the bound with a factor 1, reached 3.5 on 60 random
# media coupled on both layers (two in three 2-D), where a width of t_max
# itself let it reach 29 and 1.1 t_max 6.9: the reflected terms of a medium
# whose tangential blocks are nearly its Schur complements spread a little
# wider than t_max, and their profile is not centred on the shift.
IMAGE_SAFETY = 10.0
IMAGE_SPREAD = 1.2

# The columns of one tile of the node sums of est's rows (_tau_sums): each
# tile is summed at once however the blocks cut it, and the tiles are added
# in order, so est does not depend on the blocks.
SUM_COLUMNS = 256

# Element budget of the working arrays (module docstring, Streaming): a
# block of columns holds at most this many (column, contour node) entries of
# each table, a chunk of exponentials at most this many (pair, node,
# contour node) entries and a tile of the phase layer at most this many
# (shift or point, half node) entries, and of its (shift, pair) products
# as many (entry, half node) values; a block is never less than one column,
# a tile never less than one shift, point or entry.  Measured with blocks of
# whole xi' rows on a 2-core x86-64 host (numpy 2.4), on an 8-point 3-D call
# of 36,465 table entries, against the whole grid at once (13.8 MB): at
# 2^12, 2^13, 2^14 and 2^15 the call peaked at 1.6, 3.4, 6.9 and 13.0 MB of
# traced memory and took 0.91, 0.85, 0.85 and 0.96 of the time, in paired
# runs.  Below 2^14 the smaller pair chunks cost the 1-D and 2-D calls up
# to 8 %.
BLOCK_ELEMENTS = 2 ** 14

_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny
# 2 pi in long double (_contour_shape).
_TWO_PI = 2 * np.longdouble("3.14159265358979323846264338327950288")

# Where the band of each row of _CONTOUR_ROWS begins, and CONTOUR_SAFETY
# times the ratio of depth i at entry i, the last entry for every deeper
# pair (eval_many).
_BAND_EDGES = np.array([row[0] for row in _CONTOUR_ROWS])
_RATIOS = CONTOUR_SAFETY * np.array([
    ratios[min(i, len(ratios) - 1)]
    for (lo, *_, ratios), hi in zip(_CONTOUR_ROWS, [row[0] for row in _CONTOUR_ROWS[1:]] + [None])
    for i in range(int(hi - lo) if hi is not None else len(ratios))])


def _band(depth):
    """The row of _CONTOUR_ROWS of each depth (KernelEvaluator._depths)."""
    return np.searchsorted(_BAND_EDGES, depth, side="right") - 1


# The images of the xi' rule that _image_bound adds on each axis, in units
# of its period 2 pi / h.
_IMAGES = np.array([-2.0, -1.0, 1.0, 2.0])
# The rows i, j and k of _tau_sums's s_abs that the floor rows of Gamma, of
# the normal and of the source gradient read as S_g, S_gp and S_gq.
_FLOOR_ROWS = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


@dataclass(frozen=True)
class QuadratureConfig:
    """Kernel evaluation tolerance; the contour follows from it and the medium."""

    target_rel_tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.target_rel_tol < 1.0:
            raise ValueError("target_rel_tol must lie in (0, 1)")


def point_pairs(x, y, n: int):
    """Targets (K, n) and their sources, one per target (K, n).

    MediumError unless y is one source (n,) or one per target (K, n).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim < 2:
        x = x.reshape(1, -1)
    if x.ndim != 2 or x.shape[1] != n:
        raise MediumError(f"points have shape {x.shape}, medium dimension {n}")
    y = np.asarray(y, dtype=float)
    if y.shape == x.shape:
        return x, y
    if y.shape != (n,):
        raise MediumError(f"sources must have shape ({n},) or {x.shape}, not {y.shape}")
    return x, y[None].repeat(x.shape[0], axis=0)


def time_lag(t, s) -> float:
    """t - s, or MediumError unless t and s are finite numbers with t > s."""
    try:
        t, s = float(t), float(s)
    except (TypeError, ValueError) as exc:
        raise MediumError("t and s must be numbers") from exc
    if not (math.isfinite(t) and math.isfinite(s)):
        raise MediumError("t and s must be finite")
    if not t > s:
        raise MediumError("require t > s")
    return t - s


def closed_form_regions(medium: TwoLayerMedium) -> np.ndarray:
    """(6,) bool, in REGIONS order: the regions whose target and source lie
    in layers of one tensor, all but R2 and R1 unless the medium is
    homogeneous.  There eval_many gives the direct term, the source layer's
    whole-space kernel, in closed form, and the transform integrates only
    the rest (module docstring, Direct term)."""
    homogeneous = medium.is_homogeneous
    return np.array([homogeneous or r not in (Region.R2, Region.R1) for r in REGIONS])


def certify_mu(medium: TwoLayerMedium) -> float:
    """The analyticity certificate mu of a medium: MU_MARGIN below the
    supremum of the mu for which Theta^2 of both layers avoids the cut
    (-inf, 0] on L_mu, capped at MU_MAX; every mu passes in 1-D, where no
    xi' enters Theta^2.

    Theta^2 / a_nn = tau + xi'^T S xi', S the layer's tangential Schur
    complement.  With xi' = u + iv, Theta^2 reaches the cut in L_mu =
    {Re tau > -mu (|Im tau| + |u|^2) + |v|^2 / mu} exactly when
    u^T (S - mu) u + v^T (1/mu - S) v - 2 mu |u^T S v| < 0 for some (u, v).
    In the eigenbasis of S that form splits into one block
    [[l - mu, -mu l], [-mu l, 1/mu - l]] per eigenvalue l, positive
    semidefinite iff mu <= l <= 1/mu and f(mu) = (l - mu)(1 - l mu)
    - mu^3 l^2 >= 0.  f(0) = l > 0, f' = -(1 + l^2) + 2 l mu - 3 l^2 mu^2
    < 0 and f(min(l, 1/l)) < 0, so the admissible mu of one eigenvalue are
    (0, mu_l] with mu_l the one root of f, found here by bisection, and
    the supremum is the least mu_l.  In 2-D and 3-D it is at most
    1/sqrt(3), the largest mu_l, reached at l = sqrt(3)/2.
    """
    sup = math.inf
    for tensor in (medium.upper, medium.lower):
        for lam in tensor.tangential_schur[0].tolist():
            lo, hi = 0.0, min(lam, 1.0 / lam)
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if (lam - mid) * (1.0 - lam * mid) >= mid**3 * lam**2:
                    lo = mid
                else:
                    hi = mid
            sup = min(sup, lo)
    return min(MU_MAX, sup * (1.0 - MU_MARGIN))


def _hyperbolic_nodes(row, dt: float):
    """Half trapezoid rule on the contour of a row of _CONTOUR_ROWS: nodes
    k = 0..M of k = -M..M, and their weights times e^{tau dt}.

    The full rule has tau_{-k} = conj(tau_k) and w_{-k} = conj(w_k), with
    tau_0 and w_0 real.  For an F with F(conj tau) = conj(F(tau)) the full
    sum sum_k w_k e^{tau_k dt} F(tau_k) is therefore the real part of the
    sum over k = 0..M with the weights of k > 0 doubled, which is what
    this returns.  The rule is only valid for such F.  Both are the row's
    lag-free parts (_contour_shape) over dt.
    """
    tau_dt, wte_dt = _contour_shape(row)
    return tau_dt / dt, wte_dt / dt


@cache
def _contour_shape(row):
    """tau (t - s) and w e^{tau (t - s)} (t - s) at the nodes k = 0..M of a
    contour row, which the lag does not change, built once per row and
    shared read-only like _leggauss.

    With z = i k h - alpha, h = u_max / M, tau (t - s) = mu_dt (1 + sin z)
    and w (t - s) = h mu_dt cos z / (2 pi), doubled for k > 0 (see
    _hyperbolic_nodes).  They are formed in long double and rounded once:
    formed in double, each weight carried a rounding error of a few eps,
    e^{tau (t - s)} alone eps |tau (t - s)|, and their sum left the rule
    biased by -5e-15 to -2e-14 relative on 1/sqrt(tau) near the peak, at
    every lag, which every value near the peak inherits (a cylinder integral
    of the 1-D kernel erred by 4e-15 where the unbiased rule errs by 1e-15).
    Where long double is double they are formed in double.
    """
    _, alpha, u_max, mu_dt, m = (np.longdouble(v) for v in row[:5])
    h = u_max / m
    z = 1j * (h * np.arange(0, int(m) + 1, dtype=np.longdouble)) - alpha
    tau_dt = mu_dt * (1 + np.sin(z))
    wte_dt = h * mu_dt * np.cos(z) / _TWO_PI * np.exp(tau_dt)
    wte_dt[1:] *= 2
    tau_dt, wte_dt = tau_dt.astype(complex), wte_dt.astype(complex)
    tau_dt.setflags(write=False)
    wte_dt.setflags(write=False)
    return tau_dt, wte_dt


class HalfGrid(NamedTuple):
    """The canonical half of a point-symmetric xi' grid and the columns of its
    tau sums, built in one place (KernelEvaluator._half_grid).

    The whole grid, Q nodes in C order, is not kept: its half is the first
    (Q + 1) / 2 of them, the centre last.  The columns are that half, or one
    representative node of each symmetry orbit of it (module docstring,
    Symmetry); C counts them, in grid order, and _tau_sums cuts them into
    blocks of consecutive columns.  ``of`` is None when every half node is
    its own column.
    """

    shape: tuple  # node count of each axis of the whole grid
    nodes: np.ndarray  # (H, d) the half nodes, the centre last
    node_w: np.ndarray  # (H,) their weights over (2 pi)^d, doubled for the mirror but at the centre
    xi: np.ndarray  # (C, d) the columns' nodes, in grid order
    w: np.ndarray  # (C,) node_w summed over each orbit
    of: np.ndarray | None  # (H,) the column of each half node
    xi_inf: np.ndarray  # (C,) |xi'|_inf of each column


class HalfSums(NamedTuple):
    """The tau sums of a call's P normal pairs on C columns (_tau_sums)."""

    re: np.ndarray  # (2 or 3, P, C): Re h, Re h_n and maybe Re h_src
    phi: np.ndarray  # (P, 2, d): each pair's c_p and c_q, phi = c.xi' (symbols.region_phases)
    floor: np.ndarray  # (3 or 4, P): floor rows and the tangential one, node sums
    mass: np.ndarray  # (3 or 4, P): the same rows of the rule's integrand |Re h|, node sums
    contour: np.ndarray  # (3, P): the rows of Gamma, the normal and the tangential
    # gradient of the L1 magnitudes S_1 and S_p, node sums
    live: bool  # whether any term was contracted


class Contours(NamedTuple):
    """The contour nodes of the rows that a call's normal pairs take, one
    row after the other in ascending order (eval_many)."""

    tau: np.ndarray  # (M_u,) the nodes k = 0..M of each row (_hyperbolic_nodes)
    wte: np.ndarray  # (M_u,) their weights times e^{tau (t - s)}
    nodes: dict  # row of _CONTOUR_ROWS -> its slice of tau and wte


class KernelEvaluator:
    """Batched evaluator of the kernel and its gradients.

    Immutable after construction; a batch shares one transform quadrature,
    whose tau contraction runs once per unique normal pair (x_n, y_n).  Each
    pair takes the contour row of its depth band (_CONTOUR_ROWS), which
    ``contour_rows`` reports per point.
    """

    def __init__(self, medium: TwoLayerMedium, cfg: QuadratureConfig | None = None):
        self.medium = medium
        self.cfg = cfg if cfg is not None else QuadratureConfig()
        tol = self.cfg.target_rel_tol
        layers = (medium.upper, medium.lower)
        # sqrt(a_nn) of the upper and the lower layer, the units of a term's depth (_depths).
        self._depth_units = np.sqrt([t.a_nn for t in layers])
        self._det_min = min(float(np.linalg.det(t.entries)) for t in layers)
        self._schur_min = min(t.schur_complement_min() for t in layers)
        # IMAGE_SPREAD t_max, t_max the widest tangential spread of either
        # layer, the largest eigenvalue of its block A_tt (see _xi_spacing).
        self._spread = IMAGE_SPREAD * max(
            float(np.max(np.linalg.eigvalsh(t.minor), initial=0.0)) for t in layers)
        # The tangential axes whose reflection leaves both layers unchanged
        # (row j of A holds no entry but a_jj), and whether the two may be
        # exchanged (module docstring, Symmetry).  In 2-D a reflection is
        # the half rule's own mirror.
        self._mirrors, self._exchange = [], False
        if medium.dim == 3:
            a, b = medium.upper.entries.tolist(), medium.lower.entries.tolist()
            self._mirrors = [j for j in (0, 1) if a[j].count(0.0) == b[j].count(0.0) == 2]
            self._exchange = self._mirrors == [0, 1] and a[0][0] == a[1][1] and b[0][0] == b[1][1]
        # The decay a R0^2 at the xi' radius R0 (see _base_radius).
        self._decay = max(math.log(100.0 / tol), 2.0) + 1.5 * max(0.0, math.log(1e-6 / tol))
        # D of the xi' spacing: the rule's nearest image at e^{-2D} = 1e-3 tol
        # of the peak (see _xi_spacing).
        self._alias = 0.5 * math.log(1000.0 / tol)

    # c_p and c_q of every region (HalfSums), built on first use: the table
    # costs about three times the rest of the construction.
    _phases = cached_property(lambda ev: region_phases(ev.medium))

    @cached_property
    def _closed(self):
        """closed_form_regions of the medium, found on first use like
        _phases: a patched closed_form_regions reaches every evaluator built
        after the patch."""
        return closed_form_regions(self.medium)

    @cached_property
    def _cond(self):
        """The condition 1 + 2 a_t^T S^-1 a_t / a_nn of Theta^2 at real xi',
        the larger of the two layers' (see ROUNDOFF_UNITS), 1 where a_t = 0;
        built on first use like _phases."""
        return max(1.0 + 2.0 * float(np.sum((t.tangential_schur[1].T @ t.normal_row) ** 2
                                             / t.tangential_schur[0])) / t.a_nn
                   if t.normal_row.any() else 1.0 for t in (self.medium.upper, self.medium.lower))

    @cached_property
    def _gaussians(self):
        """A^-1, |A^-1| and det(A)^-1/2 of the upper and the lower layer
        (_direct), built on first use like _phases."""
        inv, det = zip(*(_exact_inverse(t.entries) for t in (self.medium.upper, self.medium.lower)))
        inv = np.array(inv)
        return inv, np.abs(inv), 1.0 / np.sqrt(det)

    # -- quadrature building blocks -------------------------------------

    def _xi_spacing(self, osc: np.ndarray, dt: float) -> list:
        """h_j = pi / (osc_j + w), w = sqrt(2 sigma dt D), D = ln(1000 / tol) / 2.

        ``osc`` is the largest |s_j| of the call's shifts s = x' - y' + c_p
        x_n + c_q y_n, along which the integrand oscillates (module
        docstring).  The step-h rule returns the kernel's part R summed over
        its copies shifted by multiples of 2 pi / h_j in s_j (Poisson
        summation), so the nearest copy lies at least 2 pi / h_j - osc_j =
        osc_j + 2w away.  R's s_j profile is taken as at most as wide as
        e^{-s^2 / (4 sigma dt)}, sigma = IMAGE_SPREAD t_max, t_max the
        largest eigenvalue of both layers' tangential blocks A_tt, and that
        copy is then at most e^{-2D} = 1e-3 tol of the peak (_image_bound).
        t_max, not the Schur complement A_tt - a_t a_t^T / a_nn that sets one
        layer's own spread: a reflected or transmitted term turns at the
        interface, which frees its path's normal displacement, and on a
        medium with a_t != 0 in both layers its profile, against the Schur
        complement's Gaussian, grew without bound along a tangential line
        (to 10 times it at 14 diffusion lengths), and against t_max's peaked
        near 5 and fell; IMAGE_SPREAD covers what t_max leaves (its comment).
        """
        width = math.sqrt(2.0 * self._spread * dt * self._alias)
        return [math.pi / (osc_j + width) for osc_j in osc]

    def _base_radius(self, dt: float) -> float:
        """Radius R0 of the xi' grid: a R0^2 = decay, a = schur_min dt.

        At decay = ln(100/tol) the integrand beyond R0 is about tol/100 of
        its peak, which the truncation test needs, but at tol 1e-8 that
        leaves errors near 1e-10 of the peak where twice the radius reaches
        1e-11.  Below tol 1e-6 the grid is therefore widened by
        1.5 ln(1e-6/tol) more decay (e^-30 at tol 1e-8, radius x1.14).  At
        tol 1e-6 and above the radius follows ln(100/tol) alone: there
        twice the radius gives no more digits on the cylinder batches, and
        the truncation test, in the units of each quantity, passes.
        """
        return math.sqrt(self._decay / (self._schur_min * dt))

    def _depths(self, xn, yn, codes, dt: float) -> np.ndarray:
        """The depth of the shallowest contracted term of each normal pair
        (x_n, y_n) of region ``codes``, which sets its contour row
        (_CONTOUR_ROWS).

        A term e^{-r_X |x_n| - r_Y |y_n|}, r = sqrt((tau + k) / a_nn) the
        root part of the layers X and Y of target and source, has the depth
        |x_n| / sqrt(a_X dt) + |y_n| / sqrt(a_Y dt) in the units of the
        rows' model.  It is that of the pair's one reflected or transmitted
        term, and, where the direct term of a same-side pair is contracted
        (closed_form_regions), |x_n - y_n| / sqrt(a_X dt), the smaller.  A
        homogeneous medium contracts no term, and its pairs take depth 0.
        """
        if self._closed.all():
            return np.zeros(xn.size)
        upper, lower = (1.0 / (self._depth_units * math.sqrt(dt))).tolist()
        below_x, below_y = xn < 0.0, yn < 0.0
        per_x = np.where(below_x, lower, upper)
        depth = np.abs(xn) * per_x + np.abs(yn) * np.where(below_y, lower, upper)
        direct = (below_x == below_y) & ~self._closed[codes]
        if direct.any():
            depth = np.where(direct, np.abs(xn - yn) * per_x, depth)
        return depth

    def contour_rows(self, x, t, y, s) -> np.ndarray:
        """The row of _CONTOUR_ROWS whose contour each point's normal pair
        takes in eval_many(x, t, y, s): a function of the pair alone."""
        x, y = point_pairs(x, y, self.medium.dim)
        xn, yn = x[:, -1], y[:, -1]
        return _band(self._depths(xn, yn, region_index(xn, yn), time_lag(t, s)))

    # -- core contraction ------------------------------------------------

    def _half_grid(self, radius: float, steps) -> HalfGrid:
        """The xi' grid of spacings ``steps`` out to ``radius``, as its
        canonical half and the columns of the tau sums (HalfGrid).

        Axis j holds the nodes k h_j, |k| <= ceil(radius / h_j), each of
        weight h_j, so the grid is point-symmetric (node Q - 1 - q is
        -xi'_q).  With no axes it is one node of weight 1.  Without a
        reflection the columns are the half itself.  Otherwise (3-D only;
        module docstring, Symmetry) half node m = (m_0, m_1), in units of
        each axis's step, has the representative (-|m_0|, -|m_1|), ordered so
        that |m_0| >= |m_1| when the axes may be exchanged; it lies in the
        canonical half.  The columns keep grid order and carry no row
        boundaries: any range of them is a block.
        """
        k = [math.ceil(radius / h) for h in steps]
        shape = tuple(2 * k_j + 1 for k_j in k)
        h_cnt = (math.prod(shape) + 1) // 2
        # Each half node's index m_j on every axis, from the half's own
        # range of flat indices: the whole grid is never formed.
        flat = np.arange(h_cnt)
        m = np.empty((h_cnt, len(shape)), dtype=np.intp)
        for j, k_j in enumerate(k):
            np.subtract(flat // math.prod(shape[j + 1:]) % shape[j], k_j, out=m[:, j])
        nodes = m * np.array(steps, dtype=float)  # k h on each axis, as h * np.arange(-k, k + 1)
        weight = math.prod(steps) / (2.0 * np.pi) ** len(steps)
        w = np.empty(h_cnt)
        w.fill(2.0 * weight)
        w[-1] = weight  # the centre is its own mirror
        if not self._mirrors:
            return HalfGrid(shape, nodes, w, nodes, w, None, _max_abs(nodes))
        rep_m = [-np.abs(m_j) for m_j in m.T]
        # Equal steps: the nodes k h of both axes are the same numbers.
        if self._exchange and steps[0] == steps[1]:
            rep_m = [np.minimum(*rep_m), np.maximum(*rep_m)]
        rep_node = np.ravel_multi_index([m_j + k_j for m_j, k_j in zip(rep_m, k)], shape)
        is_rep = rep_node == flat
        rep = np.flatnonzero(is_rep)
        of = (np.cumsum(is_rep) - 1)[rep_node]
        xi = nodes[rep]
        return HalfGrid(shape, nodes, w, xi, np.bincount(of, weights=w, minlength=rep.size),
                        of, _max_abs(xi))

    def _tau_sums(self, pairs, codes, bands, phi, half: HalfGrid, contours, source_gradient,
                  closed):
        """The tau contraction on the columns ``half`` (_half_grid), the
        canonical half of the xi' grid or one node of each symmetry orbit of
        it, for normal pairs ``pairs`` (P, 2) of regions ``codes`` and
        contour rows ``bands`` (KernelEvaluator._depths), ascending in that
        order, with phases ``phi`` (P, 2, d), each pair's c_p and c_q
        (symbols.region_phases).  In the regions ``closed``
        (closed_form_regions) it drops the direct term, which eval_many adds
        in closed form (module docstring, Direct term).

        For each pair and each column, h = sum_m W_m V over the nodes of the
        pair's own row, W_m = w_m e^{tau_m dt} (``contours``) and V =
        sum_terms coef e^{r_p x_n + r_q y_n}, the exponents' even root parts
        (module docstring); h_n and h_src put a factor r_p or r_q in each
        term.  Only their real parts are kept.  The symbols and the weights
        of each term are built once per block on the nodes of every row the
        call takes, and each (region, row) span of pairs contracts its row's
        slice of them.  A term whose coefficient is zero on a block (the
        reflected terms of a homogeneous medium) is skipped there, and a call
        none of whose terms was contracted is not ``live``: its sums are 0.

        Three sets of rows, each summed over the columns with the weights of
        the half rule summed over each orbit (HalfGrid.w), since every row
        is the same at each node of an orbit, bound what the phase layer
        cannot see (module docstring, Error estimate).  Each set has a
        Gamma row, a normal gradient row that adds |phi_p| times the Gamma
        row (phi = c.xi' at the column), the source row likewise in q, and
        the Gamma row once more with |xi'|_inf for the tangential gradient.
        The floor rows bound the roundoff weights sum_m sum_terms |W_m coef
        g e^{p x_n + q y_n}| (U + |p x_n| + |q y_n|), U = ROUNDOFF_UNITS, g =
        1 for Gamma, p for the normal gradient and q for the source one, at
        a node and its mirror alike, since |e^{p x_n + q y_n}| = |e^r| and
        |p| <= |r_p| + |phi_p|.  With S_g = sum |W coef e^r| g
        (_term_weights) and E = |phi_p x_n| + |phi_q y_n|, their Gamma row is
        U S_1 + |x_n| S_p + |y_n| S_q + E S_1, their normal row U S_p +
        |x_n| S_pp + |y_n| S_pq + E S_p + |phi_p| times the Gamma row.  The
        mass rows are those of |Re h|, |Re h_n| and |Re h_src|, the L1 mass
        of the full rule's integrand, which _image_bound scales.  The contour
        rows (no source row) are those of S_1 and S_p, the rule's L1
        magnitudes, which eval_many scales by the row's ratio.

        The columns are streamed in blocks of max(1, BLOCK_ELEMENTS // M_u)
        consecutive columns, M_u the call's contour nodes, the last block
        shorter (module docstring, Streaming).  In each block every distinct
        term is contracted once, over the pairs of all the regions that have
        it (R11/R12 and R21/R22 share one).  Each column's sums come from the
        same exponentials in the same order in any block, and a pair's sums
        add at most two terms to zero, so neither their order nor the block
        changes a bit.  The blocks fill tiles of SUM_COLUMNS columns of the
        rows, and each tile is summed at once when it is full, the tiles in
        order, so no node sum depends on the blocks either.
        """
        tau, wte = contours.tau, contours.wte
        p_cnt, c_cnt = pairs.shape[0], half.w.size
        # The pairs of one (region, row) are one span; ``codes`` and
        # ``bands`` ascend in that order.
        key = codes * len(_CONTOUR_ROWS) + bands
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        spans = list(zip(codes[starts].tolist(), bands[starts].tolist(), starts.tolist(),
                         starts[1:].tolist() + [p_cnt]))
        regions = dict.fromkeys(code for code, *_ in spans)
        closed = closed.tolist()
        abs_pairs = np.abs(pairs)
        axn, ayn = abs_pairs[:, :1], abs_pairs[:, 1:]
        re = np.zeros((2 + source_gradient, p_cnt, c_cnt))
        floor = np.zeros((3 + source_gradient, p_cnt))
        mass = np.zeros((3 + source_gradient, p_cnt))
        contour = np.zeros((3, p_cnt))
        # One tile of columns of the floor rows and of S_1 and S_p (see
        # above), each with a last row for the tangential gradient, and of
        # |phi_p| and |phi_q|.
        tile = min(c_cnt, SUM_COLUMNS)
        own = np.empty((3 + source_gradient, p_cnt, tile))
        l1 = np.empty((3, p_cnt, tile))
        abs_phi = np.empty((2, p_cnt, tile))

        def add_tile(t0, t1):
            # The node sums of columns t0..t1 - 1, each set's rows in place,
            # the tangential one last; the mass rows in the floor's array
            # once its sums are taken.
            cnt, cols = t1 - t0, slice(t0, t1)
            a_phi, xi_inf, w = abs_phi[:, :, :cnt], half.xi_inf[cols], half.w[cols]
            buf = own[:, :, :cnt]
            floor[:] += np.einsum("jkq,q->jk", _magnitude_rows(buf[:-1], a_phi, xi_inf, buf), w)
            mass[:] += np.einsum("jkq,q->jk", _magnitude_rows(re[:, :, cols], a_phi, xi_inf, buf), w)
            buf = l1[:, :, :cnt]
            contour[:] += np.einsum("jkq,q->jk", _magnitude_rows(buf[:-1], a_phi, xi_inf, buf), w)

        live = False
        row_i, row_j, row_k = _FLOOR_ROWS[:, :2 + source_gradient]
        step = max(1, BLOCK_ELEMENTS // tau.size)
        for lo in range(0, c_cnt, step):
            hi = lo + step
            xi_c = half.xi[lo:hi].astype(complex)
            q_cnt = xi_c.shape[0]
            table = SymbolTable(self.medium, xi_c, tau)
            # Each distinct term and the regions that have it.  R11/R12 and
            # R21/R22 share a term.
            terms = {}
            for code in regions:
                for term in region_terms(REGIONS[code], self.medium, xi_c, tau, table=table):
                    if closed[code] and term.name.startswith(("direct", "transmit")):
                        continue
                    terms.setdefault(term.name, (term, set()))[1].add(code)
            abs_root = {}  # |r| by root array: the exponents of a layer share it
            s_abs = np.zeros((5 + source_gradient, p_cnt, q_cnt))
            for term, term_codes in terms.values():
                # Zero on the block (see above): a nonzero first entry spares the scan.
                if not (term.coef[0, 0] or term.coef.any()):
                    continue
                live = True
                for e in (term.p, term.q):
                    if id(e.root) not in abs_root:
                        abs_root[id(e.root)] = np.abs(e.root)
                w_sum, w_abs = _term_weights(term, wte, source_gradient,
                                             abs_root[id(term.p.root)], abs_root[id(term.q.root)])
                for code, row, p_lo, p_hi in spans:
                    if code not in term_codes:
                        continue
                    nodes = contours.nodes[row]
                    w_row, w_abs_row = w_sum[..., nodes], w_abs[..., nodes]
                    r_p, r_q = term.p.root[None, :, nodes], term.q.root[None, :, nodes]
                    x_n = term.p.sign * pairs[p_lo:p_hi, 0, None, None]
                    y_n = term.q.sign * pairs[p_lo:p_hi, 1, None, None]
                    chunk = max(1, BLOCK_ELEMENTS // (q_cnt * r_p.shape[2]))
                    for c_lo in range(0, p_hi - p_lo, chunk):
                        c_sl = slice(c_lo, c_lo + chunk)
                        sl = slice(p_lo + c_lo, min(p_lo + c_lo + chunk, p_hi))
                        ex = np.exp(r_p * x_n[c_sl] + r_q * y_n[c_sl])
                        re[:, sl, lo:hi] += np.einsum("jqm,kqm->jkq", w_row, ex).real
                        s_abs[:, sl] += np.einsum("jqm,kqm->jkq", w_abs_row, np.abs(ex))
                        del ex  # free before the next exponent is formed
            # The block's columns, tile by tile: the floor rows of Gamma, the
            # normal and the source gradient (see above) from S_g, the rows
            # of s_abs for g = 1, |r_p|, |r_q|, |r_p|^2, |r_p r_q|, |r_q|^2;
            # and S_1 and S_p.  A full tile, or the last, is summed.
            start = lo
            while start < lo + q_cnt:
                t0 = start - start % tile
                end = min(lo + q_cnt, t0 + tile)
                src, dst = slice(start - lo, end - lo), slice(start - t0, end - t0)
                s_abs_t = s_abs[:, :, src]
                s_i = s_abs_t[row_i]
                a_phi = abs_phi[:, :, dst]
                np.abs(np.einsum("pij,qj->ipq", phi, half.xi[start:end]), out=a_phi)
                out = own[:-1, :, dst]
                np.multiply(ROUNDOFF_UNITS, s_i, out=out)
                out += axn * s_abs_t[row_j]
                out += ayn * s_abs_t[row_k]
                out += (a_phi[0] * axn + a_phi[1] * ayn) * s_i
                l1[:2, :, dst] = s_abs_t[:2]
                if end in (t0 + tile, c_cnt):
                    add_tile(t0, end)
                start = end
        return HalfSums(re, phi, floor, mass, contour, live)

    def _phase_sums(self, pairs, inv, shift, half: HalfGrid, sums, source_gradient):
        """Gamma, grad and sgrad from the tau sums, and their roundoff floor.

        A half node and its mirror add 2 cos psi Re h to Gamma, -2 xi_j sin
        psi Re h to its x_j-derivative and 2 (cos psi Re h_n - phi_p sin psi
        Re h) to the normal one (module docstring), the source one likewise
        with h_src and phi_q; the weights (HalfGrid.node_w) double all nodes
        but xi' = 0.  psi = s.xi' with s = x' - y' + c_p x_n + c_q y_n, the
        point's ``shift`` (eval_many), and its tau sums are those of its
        normal pair ``inv``.  Every half node of ``half``
        (KernelEvaluator._half_grid, the value _tau_sums ran on) reads the
        sums of its column (HalfGrid.of), contracted as a (distinct shift x
        pair) table when the P pairs number at most K / 2 and the table has
        at most K entries, else point by point (module docstring, Phase
        table), in tiles within BLOCK_ELEMENTS.  The floor is eps times the
        largest of the node sums of the floor rows (_tau_sums).  In 1-D the
        grid is the one node xi' = 0, of weight 1, where psi = 0 and every
        sum is Re h.
        """
        n = self.medium.dim
        d = n - 1
        xi, w = half.nodes, half.node_w
        # The distinct shifts, by one complex key per point; with 2 P > K no
        # table has at most K entries.
        table = 2 * pairs.shape[0] <= inv.size
        if table:
            _, first, sidx = np.unique(shift @ np.array([1.0, 1j])[:d], return_index=True,
                                       return_inverse=True)
            table = first.size * pairs.shape[0] <= inv.size
        units = shift[first] if table else shift
        if table:  # every pair's sums at every half node, once
            re = _node_sums(sums.re, None, half.of, w)
            phi = sums.phi
        fine = np.empty((n + 1 + source_gradient, units.shape[0]) + pairs.shape[:table])
        step = max(1, BLOCK_ELEMENTS // w.size)
        for lo in range(0, units.shape[0], step):
            sel = slice(lo, lo + step)
            psi = np.einsum("kj,qj->kq", units[sel], xi)
            cos, sin = np.cos(psi), np.sin(psi)
            del psi
            if not table:
                re = _node_sums(sums.re, inv[sel], half.of, w)
                phi = sums.phi[inv[sel]]
            _real_sums(cos, sin, re, phi, xi, table, fine[:, sel])
        del re  # (rows x pairs x half nodes): free before the points' outputs
        if table:  # each point's (shift, pair) entry
            fine = np.take(fine.reshape(fine.shape[0], -1), sidx * pairs.shape[0] + inv, axis=1)
        gamma, grad = fine[0], np.ascontiguousarray(fine[1:n + 1].T)
        sgrad = None
        if source_gradient:  # the kernel depends on x' - y' only
            sgrad = np.negative(grad)
            sgrad[:, d] = fine[n + 1]
        floor = (self._cond * _EPS) * reduce(np.maximum, sums.floor)[inv]
        return gamma, grad, sgrad, floor

    def _direct(self, d, lower, dt: float):
        """The direct term at the offsets d = x - y (K, n) of sources in the
        lower layer where ``lower``, else in the upper one (module docstring,
        Direct term): Gamma_D = e^{-E} / ((4 pi dt)^{n/2} sqrt(det A)), E =
        d.A^-1 d / (4 dt) with A the source layer's tensor, and its gradient
        -A^-1 d Gamma_D / (2 dt).  Returns them and their roundoff, eps (U (1
        + E_abs) + 1 + 2 E_abs) max(1, sum |A^-1| |d| / (2 dt)) Gamma_D, U =
        ROUNDOFF_UNITS: E and A^-1 d are rounded relative to the magnitudes
        of their terms, E_abs = |d|.|A^-1| |d| / (4 dt) and |A^-1| |d|, which
        cancel where A is sheared (gaussian_terms), and d itself, x - y
        rounded, errs by at most eps |d|, which moves Gamma_D by at most eps
        2 E_abs Gamma_D and each gradient component by at most eps (1 + 2
        E_abs) sum |A^-1| |d| / (2 dt) Gamma_D.  Below the smallest normal
        number the rounding is absolute, and the roundoff is at least that
        number."""
        inv, abs_inv, det_root = self._gaussians
        col = lower[:, None]
        # Both layers' products, the source's layer's kept; A^-1 is symmetric.
        upper_a_d, lower_a_d = d @ inv
        a_d = np.where(col, lower_a_d, upper_a_d)
        upper_a_d, lower_a_d = np.abs(d) @ abs_inv
        abs_a_d = np.where(col, lower_a_d, upper_a_d)
        norm = (4.0 * np.pi * dt) ** (-0.5 * d.shape[1]) * det_root[lower.astype(np.intp)]
        gamma, grad, rel, slope = gaussian_terms(d, a_d, abs_a_d, norm, dt)
        # rel = eps U (1 + E_abs): the part of d, eps (1 + 2 E_abs), is (2 / U) rel - eps.
        rel = rel * (1.0 + 2.0 / ROUNDOFF_UNITS) - _EPS
        return gamma, grad, np.maximum(rel * (np.maximum(1.0, slope) * gamma), _TINY)

    # -- public evaluation ----------------------------------------------

    def eval_many(self, x, t, y, s, source_gradient: bool = False):
        """Evaluate the kernel at many targets/sources with shared (t, s).

        x: (K, n) targets; y: (n,) or (K, n) sources.  Returns a dict with
        'gamma' (K,), 'grad' (K, n), 'est' (K,) and, when requested,
        'sgrad' (K, n) (gradient in the source variable).
        """
        n = self.medium.dim
        x, y = point_pairs(x, y, n)
        dt = time_lag(t, s)
        k = x.shape[0]
        if np.count_nonzero(np.isfinite(x)) + np.count_nonzero(np.isfinite(y)) < 2 * x.size:
            raise MediumError("x and y must be finite")
        xn, yn = x[:, -1], y[:, -1]
        if np.count_nonzero(xn) + np.count_nonzero(yn) < 2 * k:
            raise OnInterface("evaluate interface points by one-sided limits")
        if not k:  # nothing to plan
            out = {"gamma": np.zeros(0), "grad": np.zeros((0, n)), "est": np.zeros(0)}
            return out | ({"sgrad": np.zeros((0, n))} if source_gradient else {})
        d = n - 1

        # The tau contraction depends only on (x_n, y_n); points on a tensor
        # grid share few distinct normal coordinates, so it runs once per
        # unique pair, row inv of the pairs.  The pairs are ordered by
        # region, within one by contour row (_depths), and then by x_n and y_n.
        point_codes = region_index(xn, yn)
        point_depths = self._depths(xn, yn, point_codes, dt)
        point_bands = _band(point_depths)
        order = np.lexsort((yn, xn, point_bands, point_codes))
        xy = np.empty((k, 2))
        xy[:, 0], xy[:, 1] = xn[order], yn[order]
        new = np.empty(k, dtype=bool)
        new[0] = True
        np.not_equal(xy[1:, 0], xy[:-1, 0], out=new[1:])
        new[1:] |= xy[1:, 1] != xy[:-1, 1]
        inv = np.empty(k, dtype=np.intp)
        inv[order] = new.cumsum() - 1
        first = order[new]
        pairs, codes, bands = xy[new], point_codes[first], point_bands[first]

        # The nodes of every row the pairs take, one row after the other.
        rows = np.flatnonzero(np.bincount(bands, minlength=len(_CONTOUR_ROWS))).tolist()
        tau, wte, nodes, m_lo = [], [], {}, 0
        for row in rows:
            tau_r, wte_r = _hyperbolic_nodes(_CONTOUR_ROWS[row], dt)
            tau.append(tau_r)
            wte.append(wte_r)
            nodes[row] = slice(m_lo, m_lo + tau_r.size)
            m_lo += tau_r.size
        contours = Contours(*(a[0] if len(a) == 1 else np.concatenate(a) for a in (tau, wte)), nodes)

        # Each point's shift s = x' - y' + c_p x_n + c_q y_n: its phase is
        # s.xi', and the spacing follows the largest |s_j| (_xi_spacing).
        phi = self._phases[codes]
        shift = x[:, :d] - y[:, :d] + np.einsum("ki,kij->kj", pairs, phi)[inv]
        steps = self._xi_spacing(np.abs(shift).max(axis=0, initial=0.0), dt)
        half = self._half_grid(self._base_radius(dt), steps)
        closed = self._closed
        sums = self._tau_sums(pairs, codes, bands, phi, half, contours, source_gradient, closed)
        if sums.live:
            gam, grd, sgr, floor = self._phase_sums(pairs, inv, shift, half, sums, source_gradient)
            t_val, t_grad = _tail_bound(inv, half, sums, self._schur_min * dt)
            i_val, i_grad = _image_bound(inv, shift, steps, sums, self._spread * dt)
            # Each pair's row's ratio times its L1 magnitudes (module
            # docstring, Error estimate).
            ratio = _RATIOS[np.minimum(point_depths[first].astype(np.intp), _RATIOS.size - 1)]
            contour = (ratio * reduce(np.maximum, sums.contour))[inv]
        else:  # no term contracted (HalfSums.live): neither layer runs, and each part is 0
            gam, grd = np.zeros(k), np.zeros((k, n))
            sgr = np.zeros((k, n)) if source_gradient else None
            floor = contour = t_val = t_grad = i_val = i_grad = np.zeros(k)
        est_d = np.zeros(k)
        at = closed[point_codes].nonzero()[0]  # the points with a direct term
        if at.size:
            g, g_grad, est_d[at] = self._direct(x[at] - y[at], yn[at] < 0.0, dt)
            gam[at] += g
            grd[at] += g_grad
            if source_gradient:
                sgr[at] -= g_grad
        # Each bound against its own quantity: relative to it, plus an
        # absolute floor on the kernel scale (far-tail points are dominated
        # by oscillatory-rule roundoff, not truncation), which for the
        # gradients is divided by the diffusion length.
        tol = self.cfg.target_rel_tol
        scale0 = (4.0 * np.pi * dt) ** (-n / 2.0) / math.sqrt(self._det_min)
        length = math.sqrt(self.medium.min_delta() * dt)  # diffusion length
        rel_tol = np.where(np.abs(xn - yn) <= 0.1 * length, 0.1 * (tol * 10.0), 0.1 * tol)
        abs_gam = np.abs(gam)
        # Column by column: np.max along a row of n values costs 20x more.
        # The tangential components of sgrad have the magnitudes of grad's.
        grad_abs = reduce(np.maximum, np.abs(grd).T)
        if source_gradient:
            grad_abs = np.maximum(grad_abs, np.abs(sgr[:, d]))
        if not ((t_val <= rel_tol * abs_gam + 0.1 * tol * scale0).all()
                and (t_grad <= rel_tol * grad_abs + 0.1 * tol * scale0 / length).all()):
            raise QuadratureNotConverged(
                "the xi' grid's tail bound fails the truncation test"
            )
        est = reduce(np.maximum, (contour, i_val, i_grad, t_val, t_grad, floor, est_d,
                                  1e-15 * abs_gam))
        out = {"gamma": gam, "grad": grd, "est": est}
        if source_gradient:
            out["sgrad"] = sgr
        return out


def _tail_bound(inv, half: HalfGrid, sums, decay_rate: float):
    """Per point, bounds on the part of Gamma, and of grad and sgrad, beyond the xi' grid.

    The grid covers [-R_j, R_j] on axis j, R_j = k_j h_j its corner node's
    |xi_j|, at least the radius (KernelEvaluator._half_grid), and is
    point-symmetric.  The bound reads only the columns of the tau sums and
    their weights, ``half.xi`` and ``half.w``: the canonical half, or one
    node of each symmetry orbit of it with the orbit's summed weight, which
    serves since f below, the axes with |xi_j| >= R_j/2 and |xi'|_inf are
    the same at every node of an orbit.  Point k reads the sums of normal
    pair ``inv[k]``.  At a node and its mirror the full rule's integrand has
    modulus f = |Re h| for Gamma and |Re h_n + i phi_p Re h| for the normal
    gradient (h_src and phi_q for the source one), h the tau half sums
    (module docstring) and phi = c.xi' (HalfSums).
    |h| would not do: its imaginary part, which the mirrored node cancels,
    decays only like 1/|xi'|.  After the tau integral f decays like
    e^{-a |xi'|^2}, a = ``decay_rate``, on every axis, so on axis j the mass
    beyond R_j is the measured mass of f over R_j/2 <= |xi_j| <= R_j times
    the ratio of the two masses of e^{-a xi_j^2}, erfc(sqrt(a) R_j) /
    (erf(sqrt(a) R_j) - erf(sqrt(a) R_j/2)), and the axes are added.
    TAIL_SAFETY covers a profile e^{-a xi^2} times a power of |xi| up to
    the third (a power m multiplies the ratio by about 2^m).  Returns the
    bound for Gamma and the largest of the bounds for the gradient sums:
    the tangential ones from |xi'|_inf f, the others from their own f.
    In 1-D the one node xi' = 0 lies on no axis, and both bounds are 0.
    """
    xi, w = half.xi, half.w
    w_val = np.zeros(w.size)
    for j, reach in enumerate((-half.nodes[0]).tolist()):  # the corner node, -R on every axis
        x = math.sqrt(decay_rate) * reach
        tail = math.erfc(x)  # underflows to 0 on a wide grid
        if tail > 0.0:
            w_val += tail / (math.erfc(0.5 * x) - tail) * (np.abs(xi[:, j]) >= 0.5 * reach)
    w_val *= w
    w_tan = half.xi_inf * w_val
    f_val = np.abs(sums.re[0])
    mass = np.einsum("kq,q->k", f_val, w_tan)
    for re, phi in zip(sums.re[1:], (sums.phi @ xi.T).swapaxes(0, 1)):
        mass = np.maximum(mass, np.einsum("kq,q->k", np.hypot(re, phi * sums.re[0]), w_val))
    bound_val = TAIL_SAFETY * np.einsum("kq,q->k", f_val, w_val)
    return bound_val[inv], (TAIL_SAFETY * mass)[inv]


def _image_bound(inv, shift, steps, sums, spread: float):
    """Per point, bounds on the xi' rule's images in Gamma and in its gradients.

    The step-h rule returns sum_j R(s + 2 pi j / h), j over Z^d, where R is
    the part of the kernel that the transform integrates, as a function
    of the point's shift s (module docstring): the images j != 0 are the
    rule's error (Poisson summation; Trefethen & Weideman, SIAM Rev. 56
    (2014)).  R is bounded by its L1 mass A = sum w |Re h| over the grid
    (HalfSums.mass), and it spreads no wider than the widest tangential
    block allows (KernelEvaluator._xi_spacing): |R(z)| <= IMAGE_SAFETY A
    prod_j g(z_j), g(z) = e^{-z^2 / (4 ``spread``)}, ``spread`` =
    IMAGE_SPREAD t_max (t - s), both calibrated (IMAGE_SAFETY).  The images
    j_i in -2..2 on every axis add up, without cancellation, to prod_i (c_i
    + I_i) - prod_i c_i, c_i = g(s_i) and I_i the sum of g(s_i + 2 pi j_i /
    h_i) over j_i != 0.  A gradient's image is its own mass (the normal,
    source and tangential rows of HalfSums.mass, the largest) times the
    same images, each weighted by 1 + |z_i| / sqrt(spread): the derivative
    of a Gaussian profile grows like |z| / (2 spread) times it.  In 1-D the
    grid has no axis and both bounds are 0.
    """
    val, grad = np.zeros(inv.size), np.zeros(inv.size)
    centre_val, centre_grad = np.ones(inv.size), np.ones(inv.size)
    root = math.sqrt(spread)
    for s_j, h in zip(shift.T, steps):
        z = np.abs(np.add.outer(s_j, (2.0 * np.pi / h) * _IMAGES))
        g = np.exp(-(z / (2.0 * root)) ** 2)
        i_val, i_grad = g.sum(axis=1), np.einsum("ki,ki->k", g, 1.0 + z / root)
        c_val = np.exp(-(s_j / (2.0 * root)) ** 2)
        c_grad = c_val * (1.0 + np.abs(s_j) / root)
        val = val * (c_val + i_val) + centre_val * i_val
        grad = grad * (c_grad + i_grad) + centre_grad * i_grad
        centre_val, centre_grad = centre_val * c_val, centre_grad * c_grad
    mass = IMAGE_SAFETY * sums.mass
    return mass[0][inv] * val, reduce(np.maximum, mass[1:])[inv] * grad


def _node_sums(sums, rows, of, w):
    """The tau sums ``sums`` (R, P, C) of the normal pairs ``rows`` (None:
    all, without a copy of ``sums``) at every half node, each read from its
    column ``of`` (None: every node is its own column), times the node
    weights ``w``.  np.take keeps the result contiguous along the nodes, so
    the sums over the nodes run in the same order as on the unfolded half."""
    out = sums if rows is None else sums[:, rows]
    if of is not None:
        out = np.take(out, of, axis=2)
    return np.multiply(out, w, out=None if out is sums else out)


def _real_sums(cos, sin, re, phi, xi, table: bool, out):
    """Gamma, its x'-derivatives and the cos psi sums of the other rows of
    ``re``, the tau sums times the weights at each half node, from cos psi
    and sin psi (rows, H) (_phase_sums), written to the rows of ``out``: per
    point (re (R, K, H), c_p and c_q ``phi`` (K, 2, d)), or as a (shift x
    pair) table (re (R, P, H), phi (P, 2, d)) in tiles of pairs within
    BLOCK_ELEMENTS values.  Both sum each sin psi Re h xi_j over the nodes in
    the same order, along a strided column of xi: a third of the time of
    einsum over (q, j) in 3-D, and the same bits.  The phase term -phi_p sin
    psi Re h sums to c_p times the x'-derivatives (q likewise).  Each row of
    ``out`` is laid out as einsum lays out its own result, so writing there
    keeps the bits."""
    d = xi.shape[1]
    step = max(1, BLOCK_ELEMENTS // sin.size) if table else re.shape[1]
    tangential = out[1:d + 1]
    for lo in range(0, re.shape[1], step):
        sin_val = sin[:, None] * re[0, lo:lo + step] if table else sin * re[0]
        for j, xi_j in enumerate(xi.T):
            tangential[j, ..., lo:lo + step] = -np.einsum(
                "spq,q->sp" if table else "kq,q->k", sin_val, xi_j)
    one, phase = ("sq,pq->sp", "pij,jsp->isp") if table else ("kq,kq->k", "kij,jk->ik")
    np.einsum(one, cos, re[0], out=out[0])
    for r, p, row in zip(re[1:], np.einsum(phase, phi, tangential), out[d + 1:]):
        np.einsum(one, cos, r, out=row)
        row += p


def gaussian_terms(d, a_d, abs_a_d, norm, dt: float):
    """The Gaussian Gamma = norm e^{-E}, E = d.A^-1 d / (4 dt), at the
    offsets d (K, n), given a_d = A^-1 d and abs_a_d = |A^-1| |d|, and its
    gradient -a_d Gamma / (2 dt) (KernelEvaluator._direct; images.CubeGreen
    with n = 1 per axis).  Also returns the roundoff's two factors: Gamma
    errs by at most rel Gamma and each gradient component by at most rel
    slope Gamma, rel = eps U (1 + E_abs), E_abs = |d|.|A^-1| |d| / (4 dt),
    slope = sum |A^-1| |d| / (2 dt), U = ROUNDOFF_UNITS; below the smallest
    normal number the rounding is absolute."""
    gamma = norm * np.exp(np.einsum("ki,ki->k", d, a_d) / (-4.0 * dt))
    grad = a_d * (gamma / (-2.0 * dt))[:, None]
    e_abs = np.einsum("ki,ki->k", np.abs(d), abs_a_d) / (4.0 * dt)
    rel = _EPS * ROUNDOFF_UNITS * (1.0 + e_abs)
    return gamma, grad, rel, np.einsum("ki->k", abs_a_d) / (2.0 * dt)


def _exact_inverse(a: np.ndarray):
    """A^-1 and det A of an SPD matrix of floats, each entry rounded once
    from exact rational Gauss-Jordan elimination (the pivots of an SPD
    matrix are positive).  With np.linalg.inv the direct term's exponent
    d.A^-1 d / (4 dt) erred by up to 7 eps E_abs (_direct) on 3-D tensors
    of condition 30-55; with this inverse, by at most 1.8 eps E_abs."""
    n = a.shape[0]
    m = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a.tolist())]
    det = Fraction(1)
    for i in range(n):
        pivot = m[i][i]
        det *= pivot
        m[i] = [v / pivot for v in m[i]]
        for j in range(n):
            if j != i:
                f = m[j][i]
                m[j] = [v - f * u for v, u in zip(m[j], m[i])]
    return np.array([[float(v) for v in row[n:]] for row in m]), float(det)


def _max_abs(xi: np.ndarray) -> np.ndarray:
    """|xi'|_inf of each node of ``xi`` (Q, d), 0 with no axes; column by
    column, since a maximum along rows of d values costs several times more."""
    return reduce(np.maximum, np.abs(xi).T, np.zeros(xi.shape[0]))


def _magnitude_rows(x, abs_phi, xi_inf, out):
    """The rows |x_0|, |x_i| + |phi| |x_0| for each further row i of the
    sums ``x`` (R, P, C) (the normal gradient's with |phi_p|, the source
    one's with |phi_q|, ``abs_phi`` (2, P, C)), and |xi'|_inf |x_0| last,
    written to ``out`` (R + 1, P, C), which may hold ``x``, and returned
    (_tau_sums)."""
    r = len(x)
    np.abs(x, out=out[:r])
    out[1:r] += abs_phi[:r - 1] * out[0]
    np.multiply(out[0], xi_inf, out=out[r])
    return out


def _term_weights(term, wte, source_gradient: bool, abs_p, abs_q):
    """Weights of a term on the canonical half of the grid.

    w_sum holds w_t = coef W, w_t r_p and, with ``source_gradient``, w_t r_q
    (r the signed root parts).  w_abs holds |w_t| and then |w_t| times
    |r_p|, |r_q|, |r_p|^2, |r_p r_q| and, with ``source_gradient``, |r_q|^2
    (``abs_p`` and ``abs_q`` hold |r_p| and |r_q|, even in xi').
    """
    w_sum = np.empty((2 + source_gradient,) + term.coef.shape, dtype=complex)
    w_t = np.multiply(term.coef, wte[None, :], out=w_sum[0])
    for w_r, e in zip(w_sum[1:], (term.p, term.q)):
        np.multiply(w_t, e.root, out=w_r)
        if e.sign < 0.0:
            np.negative(w_r, out=w_r)
    w_abs = np.empty((5 + source_gradient,) + w_t.shape)
    np.abs(w_t, out=w_abs[0])
    np.multiply(w_abs[0], abs_p, out=w_abs[1])
    np.multiply(w_abs[0], abs_q, out=w_abs[2])
    np.multiply(w_abs[1], abs_p, out=w_abs[3])
    np.multiply(w_abs[1], abs_q, out=w_abs[4])
    if source_gradient:
        np.multiply(w_abs[2], abs_q, out=w_abs[5])
    return w_sum, w_abs


@cache
def _leggauss(m: int):
    """The m-node Gauss-Legendre rule on [-1, 1], built once per m and
    shared read-only by every caller."""
    x, w = leggauss(m)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_tensor_grid(axes):
    """Tensor product of composite Gauss-Legendre rules, in any dimension.

    ``axes`` holds one list of panels (lo, hi, nodes) per axis.  Returns
    points (N, d), with the last axis varying fastest, and weights (N,).
    With no axes the rule is the single empty point with weight 1.
    """
    nodes, weights = [], []
    for panels in axes:
        rules = [(0.5 * (b - a), 0.5 * (a + b), *_leggauss(m)) for a, b, m in panels]
        nodes.append(np.concatenate([scale * x + mid for scale, mid, x, _ in rules]))
        weights.append(np.concatenate([scale * w for scale, _, _, w in rules]))
    return _tensor_nodes(nodes), np.prod(_tensor_nodes(weights), axis=1)


def _tensor_nodes(axes) -> np.ndarray:
    """The tensor product of the 1-D node arrays ``axes``: points (N, d),
    the last axis varying fastest; with no axes, the single empty point."""
    pts = np.zeros((1, 0))
    for x in axes:
        pts = np.hstack([np.repeat(pts, x.size, axis=0), np.tile(x, pts.shape[0])[:, None]])
    return pts


# Largest difference between the two integration grids of mass_integral.
MASS_TOL = 1e-5


def _integration_grid(medium: TwoLayerMedium, dt: float, y: np.ndarray, density: float):
    """Tensor panel grid covering the Gaussian bulk around a source.

    Panels are split at the interface plane and at the source plane so the
    integrand kinks fall on panel boundaries.
    """
    n = medium.dim
    lam = medium.max_eigenvalue()
    sig = math.sqrt(2.0 * medium.min_delta() * dt)
    half = 12.0 * math.sqrt(lam * dt)
    axes = []
    for j in range(n):
        cuts = {y[j] - half, y[j] + half}
        if j == n - 1:
            for b in (0.0, y[j]):
                if y[j] - half < b < y[j] + half:
                    cuts.add(b)
        breaks = sorted(cuts)
        axes.append([
            (a, b, min(200, int(density * (b - a) / sig) + 14))
            for a, b in zip(breaks[:-1], breaks[1:])
        ])
    pts, wts = gauss_tensor_grid(axes)
    keep = pts[:, -1] != 0.0
    return pts[keep], wts[keep]


def _weighted_integral(ev: KernelEvaluator, dt: float, y: np.ndarray, weight_fn, density: float) -> float:
    if y.shape != (ev.medium.dim,):
        raise MediumError(f"the source must have shape ({ev.medium.dim},), not {y.shape}")
    pts, wts = _integration_grid(ev.medium, dt, y, density)
    res = ev.eval_many(pts, dt, y, 0.0)
    vals = res["gamma"]
    if weight_fn is not None:
        vals = vals * np.apply_along_axis(weight_fn, 1, pts)
    return float(np.sum(wts * vals))


def mass_integral(
    medium: TwoLayerMedium,
    dt: float,
    y,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Total spatial mass of the kernel at time lag dt (should be 1).

    QuadratureNotConverged if two integration grids differ by more than
    MASS_TOL; MediumError unless dt > 0 is finite and y has shape (n,).
    """
    dt = time_lag(dt, 0.0)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    ev = KernelEvaluator(medium, cfg)
    coarse = _weighted_integral(ev, dt, y, None, density=2.2)
    fine = _weighted_integral(ev, dt, y, None, density=3.1)
    if abs(fine - coarse) > MASS_TOL:
        raise QuadratureNotConverged(
            f"mass integral resolutions differ by {abs(fine - coarse):.3e}"
        )
    return fine


def delta_recovery(
    medium: TwoLayerMedium,
    y,
    phi,
    dt_values,
    cfg: QuadratureConfig | None = None,
) -> np.ndarray:
    """Int Gamma(x, s+dt; y, s) phi(x) dx for each dt; tends to phi(y).

    MediumError unless every dt > 0 is finite and y has shape (n,).
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    ev = KernelEvaluator(medium, cfg)
    return np.array([
        _weighted_integral(ev, time_lag(dt, 0.0), y, phi, density=2.6) for dt in dt_values
    ])
