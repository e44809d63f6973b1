"""The benchmark's tracer wraps library names by attribute; it must still see the calls.

bench/tracing.py times mu certification and the symbol layer by wrapping
inverse_transform.certify_mu and inverse_transform.region_terms, which the
evaluator resolves as module globals at call time.  An evaluator that
inlined or renamed either would leave those layers empty in a traced run.
"""
import importlib.util
from pathlib import Path

import numpy as np

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
        ev = KernelEvaluator(med)
        assert [s.kind for s in tracer.spans] == ["certify_mu"]
        ev.eval_many(x, 0.3, y, 0.0)
    kinds = [s.kind for s in tracer.spans]
    assert kinds == ["certify_mu", "eval_many"] + ["region_terms"] * groups
    assert all(s.parent == 1 for s in tracer.spans[2:])
    counts = tracer.counts()
    assert counts["inverse_transform.passes"] == 1 and counts["symbols.calls"] == groups
    assert tracer.times(1.0)["inverse_transform.certify_s"] > 0.0
    # The wrappers are removed on exit.
    KernelEvaluator(med)
    assert len(tracer.spans) == 2 + groups
