"""tools/contour_rows.py re-measures the columns of the contour rows.

The test runs it on a coarse grid of depths and one lag, and checks that
the checked-in table covers what it prints: each row's error and each
entry of its ratios.
"""
import ast
import importlib.util
import sys
from pathlib import Path

import pytest

from layerheat.inverse_transform import _CONTOUR_ROWS

TOOL = Path(__file__).resolve().parent.parent / "tools" / "contour_rows.py"


@pytest.fixture(scope="module")
def rows_tool():
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location("contour_rows", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    sys.path[:] = saved
    return tool


def test_table_covers_its_measurement(rows_tool, capsys):
    # On a coarse grid of depths and one lag: the literal it prints is a
    # table of the same shapes, whose columns, rounded up, the checked-in
    # table covers.
    assert rows_tool.main(["--step", "1", "--lags", "0.3"]) == 0
    out = capsys.readouterr().out
    table = ast.literal_eval(out[out.index("("):out.index(")\n#") + 1])
    assert len(table) == len(_CONTOUR_ROWS)
    for printed, row in zip(table, _CONTOUR_ROWS):
        assert printed[:5] == row[:5] and len(printed[6]) == len(row[6])
        assert printed[5] <= row[5]
        assert all(a <= b for a, b in zip(printed[6], row[6]))


def test_round_up(rows_tool):
    assert rows_tool.round_up(1.23e-15, 1) == 2e-15
    assert rows_tool.round_up(3e-15, 1) == 3e-15
    assert rows_tool.round_up(1.832e-14, 2) == 1.9e-14
    assert rows_tool.round_up(0.0, 1) == 0.0
