"""The benchmark's tracer wraps library names by attribute; it must still see the calls.

bench/tracing.py times mu certification and the symbol layer by wrapping
inverse_transform.certify_mu and inverse_transform.region_terms, which
callers resolve as module globals at call time.  An evaluator that
inlined or renamed region_terms would leave the symbol layer empty in a
traced run, and a renamed certify_mu would stop the tracer installing.
"""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from layerheat import inverse_transform
from layerheat.inverse_transform import KernelEvaluator
from layerheat.medium import TwoLayerMedium, validate_tensor
from layerheat.symbols import region_index

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parent.parent / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_tracer_sees_certification_and_symbols():
    med = TwoLayerMedium(upper=validate_tensor([[1.0, 0.3], [0.3, 1.0]]),
                         lower=validate_tensor(np.diag([2.0, 3.0])))
    x = np.array([[0.1, 0.5], [0.2, 0.1], [-0.3, -0.4], [0.0, -0.2], [0.4, 0.6]])
    y = np.array([[0.0, 0.3], [0.1, 0.3], [0.2, 0.3], [0.0, -0.5], [0.1, -0.3]])
    groups = np.unique(region_index(x[:, -1], y[:, -1])).size
    assert groups == 5
    tracer = tracing.Tracer()
    with tracer.installed():
        # The contour plan needs no certificate: building records no span.
        ev = KernelEvaluator(med)
        assert tracer.spans == []
        ev.eval_many(x, 0.3, y, 0.0)
        inverse_transform.certify_mu(med)
    kinds = [s.kind for s in tracer.spans]
    assert kinds == ["eval_many"] + ["region_terms"] * groups + ["certify_mu"]
    assert all(s.parent == 0 for s in tracer.spans[1:-1])
    assert tracer.spans[-1].parent == -1
    counts = tracer.counts()
    assert counts["inverse_transform.passes"] == 1 and counts["symbols.calls"] == groups
    assert tracer.times(1.0)["inverse_transform.certify_s"] > 0.0
    # The wrappers are removed on exit.
    KernelEvaluator(med).eval_many(x, 0.3, y, 0.0)
    inverse_transform.certify_mu(med)
    assert len(tracer.spans) == 2 + groups


def _medium(upper, lower=None):
    upper = validate_tensor(upper)
    return TwoLayerMedium(upper=upper, lower=upper if lower is None else validate_tensor(lower))


@pytest.mark.parametrize("med,x,y,block_elements", [
    pytest.param(_medium([[1.0]], [[4.0]]), [[0.5], [0.2], [-0.3], [0.1]], [0.4], None,
                 id="1d-layered"),
    pytest.param(_medium(np.eye(3), np.diag([2.0, 2.0, 3.0])),
                 [[0.1, 0.2, 0.5], [-0.2, 0.1, -0.3], [0.3, -0.1, 0.2]], [0.0, 0.1, 0.3], None,
                 id="3d-folded"),
    pytest.param(_medium([[2.0, 1.0], [1.0, 2.0]]), [[0.1, 0.5], [0.3, -0.2]], [0.0, 0.3], None,
                 id="2d-homogeneous"),
    pytest.param(_medium([[1.0, 0.3], [0.3, 1.0]], np.diag([2.0, 3.0])),
                 [[0.1, 0.5], [0.3, -0.2], [-0.4, 0.2]], [0.0, 0.3], 64, id="2d-blocks"),
])
def test_region_terms_once_per_region_and_block(monkeypatch, med, x, y, block_elements):
    # The tracer counts whole passes: every region_terms call is a child of
    # its eval_many call, one per region present and column block, also on
    # a call with no term left to integrate (a homogeneous medium).
    if block_elements is not None:
        monkeypatch.setattr(inverse_transform, "BLOCK_ELEMENTS", block_elements)
    x, y = np.array(x), np.array(y)
    columns = []
    half_grid = KernelEvaluator._half_grid

    def recorded(self, radius, steps):
        half = half_grid(self, radius, steps)
        columns.append(half.w.size)
        return half

    monkeypatch.setattr(KernelEvaluator, "_half_grid", recorded)
    ev = KernelEvaluator(med)
    regions = np.unique(region_index(x[:, -1], np.broadcast_to(y, x.shape)[:, -1])).size
    tracer = tracing.Tracer()
    with tracer.installed():
        ev.eval_many(x, 0.2, y, 0.0, source_gradient=True)
    step = max(1, inverse_transform.BLOCK_ELEMENTS // (ev.contour_nodes + 1))
    blocks = -(-columns[0] // step)
    assert blocks > 1 or block_elements is None
    kinds = [s.kind for s in tracer.spans]
    assert kinds == ["eval_many"] + ["region_terms"] * (regions * blocks)
    assert all(s.parent == 0 for s in tracer.spans[1:])
    counts = tracer.counts()
    assert counts["symbols.calls"] == regions * blocks
    assert counts["inverse_transform.passes"] == blocks
