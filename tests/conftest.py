"""Make the package under src/ importable in subprocesses the tests start.

pytest's ``pythonpath`` setting covers this process only; the CLI thread
test runs ``python -m layerheat.cli`` in a child process.
"""
import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
