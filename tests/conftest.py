"""Make the package under src/ importable in subprocesses the tests start.

pytest's ``pythonpath`` setting covers this process only; the CLI thread
test runs ``python -m layerheat.cli`` in a child process.  The
``whole_symbol`` fixture switches off the closed-form direct term.
"""
import os
from pathlib import Path

import numpy as np
import pytest

from layerheat import inverse_transform

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture
def whole_symbol(monkeypatch):
    """Send every term through the transform: no region's direct term is
    taken in closed form (inverse_transform.closed_form_regions)."""
    monkeypatch.setattr(inverse_transform, "closed_form_regions",
                        lambda medium: np.zeros(6, dtype=bool))
