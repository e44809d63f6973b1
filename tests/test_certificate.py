"""The analyticity certificate mu against the branch cut of Theta^2.

mu is certified when Theta^2 of both layers avoids (-inf, 0] on all of
L_mu.  The witnesses below are points of L_mu on the cut at a mu above the
supremum, which the certified mu must exclude; the property test samples
L_mu next to its boundary at the certified mu.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerheat.inverse_transform import _CONTOUR_ROWS, KernelEvaluator, certify_mu
from layerheat.medium import TwoLayerMedium, validate_tensor
from layerheat.symbols import SpectralPoint
from symbol_checks import in_analyticity_domain, root_avoidance_check


def medium(upper, lower=None):
    up = validate_tensor(upper)
    return TwoLayerMedium(upper=up, lower=validate_tensor(lower) if lower is not None else up)


# The media of the benchmark workloads, with their contour rows at tol 1e-8:
# (name, medium, row, M).  The row follows the dimension alone.
BENCH_MEDIA = (
    ("1d", medium([[1.0]], [[4.0]]), 0, 48),
    ("2d_homogeneous", medium([[1.5, 0.5], [0.5, 1.0]]), 1, 32),
    ("cube", medium(np.diag([1.0, 2.0])), 1, 32),
    ("2d_layered", medium([[1.0, 0.3], [0.3, 1.0]], np.diag([2.0, 3.0])), 1, 32),
    ("I|2I", medium(np.eye(2), 2.0 * np.eye(2)), 1, 32),
    ("I|diag(2,3)", medium(np.eye(2), np.diag([2.0, 3.0])), 1, 32),
    ("I|diag(2,2,3)", medium(np.eye(3), np.diag([2.0, 2.0, 3.0])), 1, 32),
)

MEDIA = {name: med for name, med, _, _ in BENCH_MEDIA}
MEDIA["I"] = medium(np.eye(2))
MEDIA["sheared_3d"] = medium([[1.0, 0.3, 0.2], [0.3, 1.5, 0.4], [0.2, 0.4, 2.0]],
                             [[2.0, 0.1, 0.0], [0.1, 3.0, 0.5], [0.0, 0.5, 1.5]])


@pytest.mark.parametrize("name,med,row,m", BENCH_MEDIA, ids=[b[0] for b in BENCH_MEDIA])
def test_bench_media_rows(name, med, row, m):
    ev = KernelEvaluator(med)
    assert ev._row is _CONTOUR_ROWS[row] and ev.contour_nodes == m


def cut_witness(med, layer, mu):
    """A point of L_mu where Theta^2 of ``layer`` is negative real.

    (a, b) is the negative eigenvector of the block [[l - mu, -mu l],
    [-mu l, 1/mu - l]] of the smallest Schur eigenvalue l, e its Schur
    eigenvector, xi' = (a + ib) e, and tau = -2 l a b i puts Theta^2 on
    the real axis.  Re tau lies halfway between the edge of L_mu and the
    value where Theta^2 = 0.
    """
    tensor = (med.upper, med.lower)[layer]
    lam, vecs = tensor.tangential_schur
    lam, e = lam[0], vecs[:, 0]
    w, ab = np.linalg.eigh([[lam - mu, -mu * lam], [-mu * lam, 1.0 / mu - lam]])
    assert w[0] < 0.0
    a, b = ab[:, 0]
    im_tau = -2.0 * lam * a * b
    edge = -mu * (abs(im_tau) + a * a) + b * b / mu
    return SpectralPoint((a + 1j * b) * e, 0.5 * (edge + lam * (b * b - a * a)) + 1j * im_tau)


def test_witness_2d_identity():
    # xi' = 1 + i, tau = -0.5 - 2i lies in L_0.8, and Theta^2 = -0.5.
    med = MEDIA["I"]
    sp = SpectralPoint(np.array([1.0 + 1.0j]), -0.5 - 2.0j)
    assert in_analyticity_domain(sp, 0.8)
    assert not root_avoidance_check(med, sp)
    assert not in_analyticity_domain(sp, certify_mu(med))


def test_witness_3d_layered():
    # The lambda = 2 block of diag(2, 2, 3) at mu = 0.45.
    med = MEDIA["I|diag(2,2,3)"]
    sp = cut_witness(med, 1, 0.45)
    assert in_analyticity_domain(sp, 0.45)
    assert not root_avoidance_check(med, sp)
    assert not in_analyticity_domain(sp, certify_mu(med))


coord = st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(name=st.sampled_from(sorted(MEDIA)), layer=st.sampled_from((0, 1)), u=coord, v=coord,
       shift=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)), gap=st.floats(1e-9, 1e-3))
def test_certified_domain_avoids_cut(name, layer, u, v, shift, gap):
    # xi' = u + iv and tau just inside the edge of L_mu at the certified
    # mu.  With shift = 0, Im tau = -2 u^T S v puts Theta^2 of ``layer`` on
    # the real axis, the slice where the cut is reached first.
    med = MEDIA[name]
    d = med.dim - 1
    mu = certify_mu(med)
    u, v = np.array(u[:d]), np.array(v[:d])
    lam, vecs = (med.upper, med.lower)[layer].tangential_schur
    im_tau = -2.0 * u @ ((vecs * lam) @ vecs.T) @ v + shift
    edge = -mu * (abs(im_tau) + u @ u) + v @ v / mu
    sp = SpectralPoint(u + 1j * v, edge + gap * (1.0 + abs(edge)) + 1j * im_tau)
    assert in_analyticity_domain(sp, mu)
    assert root_avoidance_check(med, sp)
