"""tools/output_digest.py matches the eval_many calls of two runs by key.

A call's key is its index within the enclosing top-level call of the
cycle, so a call fewer in one top-level call leaves the others matched.  A
saved file whose records carry only their index within the workload is
matched by that index.  The tests replace the workload runs with a few
recorded outputs, so they run no workload.
"""
import importlib.util
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


@pytest.fixture
def digest_tool(monkeypatch):
    """The tool as a module; the paths and thread settings it sets on
    import are restored afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "LAYERHEAT_THREADS"):
        if key in os.environ:
            monkeypatch.setenv(key, os.environ[key])
        else:
            monkeypatch.delenv(key, raising=False)
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def output(value, k=3):
    return {"gamma": np.full(k, value), "grad": np.full((k, 2), value), "est": np.full(k, 1e-12)}


# Two top-level calls of two eval_many calls each, and one in the set-up.
RUN = [("setup:0", output(1.0)), ("0:0", output(2.0)), ("0:1", output(3.0)),
       ("1:0", output(4.0)), ("1:1", output(5.0))]


def run(tool, monkeypatch, capsys, records, *args, summary=False):
    """The tool's exit status and printed lines on one workload whose
    eval_many calls return ``records``; the summary line of --against is
    left out unless ``summary``."""
    monkeypatch.setattr(tool, "cycle_outputs", lambda name, seed: (records, [], []))
    status = tool.main(["--seed", "1", "--workload", "green", *map(str, args)])
    lines = capsys.readouterr().out.splitlines()
    return status, [line for line in lines if summary or not line.startswith("green summary ")]


def test_keyed_matching(digest_tool, monkeypatch, capsys, tmp_path):
    saved = tmp_path / "saved.npz"
    status, lines = run(digest_tool, monkeypatch, capsys, RUN, "--save", saved)
    assert status == 0 and [line.split()[1] for line in lines] == [key for key, _ in RUN]
    assert "green/0:1/gamma" in np.load(saved)
    # The same calls match one to one, with no move.
    status, lines = run(digest_tool, monkeypatch, capsys, RUN, "--against", saved)
    assert status == 0 and all(line.endswith("move=0.00e+00 beyond_est=0") for line in lines)
    # Top-level call 0 makes one call fewer: the calls of top-level call 1
    # keep their keys and match, and the missing call is named.
    fewer = [r for r in RUN if r[0] != "0:0"]
    fewer[1:2] = [("0:0", RUN[2][1])]
    status, lines = run(digest_tool, monkeypatch, capsys, fewer, "--against", saved)
    assert status == 1
    unmoved = [line.split()[1] for line in lines if "move=0.00e+00" in line]
    assert unmoved == ["setup:0", "1:0", "1:1"]
    assert "green 0:0 points=3 dim=2" in lines[1] and "move=" in lines[1]
    assert lines[-1] == "green: the saved run made more calls (0:1)"


def test_flat_file_matched_by_index(digest_tool, monkeypatch, capsys, tmp_path):
    # A file whose records carry their index within the workload only.
    flat = tmp_path / "flat.npz"
    np.savez(flat, **{f"green/{i}/{key}": value
                      for i, (_, out) in enumerate(RUN) for key, value in out.items()})
    status, lines = run(digest_tool, monkeypatch, capsys, RUN, "--against", flat)
    assert status == 0 and len(lines) == len(RUN)
    assert all(line.endswith("move=0.00e+00 beyond_est=0") for line in lines)
    # One call fewer moves the later ones by one index, as the file does.
    status, lines = run(digest_tool, monkeypatch, capsys, RUN[:2] + RUN[3:], "--against", flat)
    assert status == 1
    assert [line.split()[1] for line in lines if "move=0.00e+00" in line] == ["setup:0", "0:0"]
    assert lines[-1] == "green: the saved run made more calls (4)"


def test_est_ratios(digest_tool, monkeypatch, capsys, tmp_path):
    # Each matched call reports the range of its est over the saved est:
    # 1..1 where est is unchanged, and a raised est at some points shows
    # as the largest ratio; the values did not move.
    saved = tmp_path / "saved.npz"
    run(digest_tool, monkeypatch, capsys, RUN, "--save", saved)
    raised = [(key, dict(out)) for key, out in RUN]
    raised[2][1]["est"] = raised[2][1]["est"] * np.array([1.0, 2.0, 1.5])
    raised[3][1]["est"] = np.zeros(3)
    status, lines = run(digest_tool, monkeypatch, capsys, raised, "--against", saved)
    assert status == 0
    assert [line.split()[5] for line in lines] == [
        "est=1..1", "est=1..1", "est=1..2", "est=0..0", "est=1..1"]
    assert all(line.endswith("move=0.00e+00 beyond_est=0") for line in lines)
    # 0/0 counts as 1, a new est over a saved 0 as inf.
    assert digest_tool.est_ratios({"est": np.array([0.0, 1.0])}, {"est": np.array([0.0, 0.0])}) == (
        1.0, math.inf)


def test_summary_line(digest_tool, monkeypatch, capsys, tmp_path):
    # After the workload's lines, one summary over the calls compared: their
    # count, the range of est ratios over all of them, the largest move and
    # the total beyond_est.  Without --against there is none.
    saved = tmp_path / "saved.npz"
    status, lines = run(digest_tool, monkeypatch, capsys, RUN, "--save", saved, summary=True)
    assert not any(" summary " in line for line in lines)
    status, lines = run(digest_tool, monkeypatch, capsys, RUN, "--against", saved, summary=True)
    assert status == 0
    assert lines[-1] == "green summary calls=5 est=1..1 move=0.00e+00 beyond_est=0"
    # Raised and lowered est, and one call moved beyond the larger est at
    # two points and within it at a third.
    changed = [(key, dict(out)) for key, out in RUN]
    changed[1][1]["est"] = changed[1][1]["est"] * np.array([0.5, 1.0, 3.0])
    changed[4][1]["gamma"] = changed[4][1]["gamma"] + np.array([1e-9, 1e-9, 1e-13])
    status, lines = run(digest_tool, monkeypatch, capsys, changed, "--against", saved, summary=True)
    assert status == 1
    assert lines[-1] == "green summary calls=5 est=0.5..3 move=2.00e-10 beyond_est=2"
