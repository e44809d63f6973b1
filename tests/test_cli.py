import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from layerheat import bounds, cli, inverse_transform, oracle
from layerheat.cli import main


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def eval_cfg(tmp_path, out="out.csv"):
    return {
        "medium": {"upper": [[1.0]], "lower": [[4.0]]},
        "eval": {
            "t": 0.5,
            "s": 0.0,
            "y": [0.4],
            "grid": {"min": [-2.0], "max": [2.0], "points": [25]},
        },
        "output": str(tmp_path / out),
    }


class TestEval:
    def test_csv_output(self, tmp_path):
        cfg = eval_cfg(tmp_path)
        assert main(["eval", write_cfg(tmp_path, cfg)]) == 0
        lines = (tmp_path / "out.csv").read_text().strip().split("\n")
        assert lines[0] == "x1,t,y1,s,gamma,grad1,est_error"
        assert len(lines) == 26
        gammas = np.array([float(l.split(",")[4]) for l in lines[1:]])
        assert np.all(gammas > 0.0)

    def test_rerun_byte_identical(self, tmp_path):
        cfg = eval_cfg(tmp_path)
        p = write_cfg(tmp_path, cfg)
        assert main(["eval", p]) == 0
        first = (tmp_path / "out.csv").read_bytes()
        assert main(["eval", p]) == 0
        assert (tmp_path / "out.csv").read_bytes() == first

    def test_threaded_identical(self, tmp_path):
        cfg = eval_cfg(tmp_path)
        p = write_cfg(tmp_path, cfg)
        assert main(["eval", p]) == 0
        serial = (tmp_path / "out.csv").read_bytes()
        env = dict(os.environ, LAYERHEAT_THREADS="4")
        r = subprocess.run(
            [sys.executable, "-m", "layerheat.cli", "eval", p],
            env=env, capture_output=True,
        )
        assert r.returncode == 0
        assert (tmp_path / "out.csv").read_bytes() == serial

    def test_threaded_per_target_sources(self, tmp_path, monkeypatch):
        # Each chunk takes the sources of its own targets; the threaded
        # run passed the whole (K, n) y to every chunk and exited 2.  In
        # 1-D the xi' rule is one node, so no value depends on the chunks.
        cfg = eval_cfg(tmp_path)
        cfg["eval"]["y"] = [[0.1 * k - 0.7] for k in range(25)]
        p = write_cfg(tmp_path, cfg)
        assert main(["eval", p]) == 0
        serial = (tmp_path / "out.csv").read_bytes()
        monkeypatch.setattr(cli, "_n_threads", lambda: 2)
        assert main(["eval", p]) == 0
        assert (tmp_path / "out.csv").read_bytes() == serial

    @pytest.mark.parametrize("raw", ["abc", "0", "-3", "", "2.5"])
    def test_bad_thread_count_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("LAYERHEAT_THREADS", raw)
        with pytest.raises(cli.ConfigError):
            cli._n_threads()

    def test_thread_count_capped_at_cpus(self, monkeypatch):
        monkeypatch.delenv("LAYERHEAT_THREADS", raising=False)
        assert cli._n_threads() == 1
        monkeypatch.setenv("LAYERHEAT_THREADS", "1")
        assert cli._n_threads() == 1
        monkeypatch.setenv("LAYERHEAT_THREADS", "10000")
        assert cli._n_threads() == (os.cpu_count() or 1)

    def test_bad_thread_count_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LAYERHEAT_THREADS", "abc")
        cfg = eval_cfg(tmp_path)
        assert main(["eval", write_cfg(tmp_path, cfg)]) == 2
        assert "LAYERHEAT_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_explicit_points_and_output_flag(self, tmp_path):
        cfg = eval_cfg(tmp_path)
        cfg["eval"].pop("grid")
        cfg["eval"]["x"] = [[0.5], [-0.5], [0.0]]  # interface point allowed
        cfg.pop("output")
        out = str(tmp_path / "explicit.csv")
        assert main(["eval", write_cfg(tmp_path, cfg), "--output", out]) == 0
        lines = Path(out).read_text().strip().split("\n")
        assert len(lines) == 4


class TestErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["eval", str(tmp_path / "nope.json")]) == 2

    def test_invalid_medium(self, tmp_path):
        cfg = eval_cfg(tmp_path)
        cfg["medium"]["upper"] = [[1.0, 2.0], [3.0, 1.0]]
        assert main(["eval", write_cfg(tmp_path, cfg)]) == 2

    def test_missing_output(self, tmp_path):
        cfg = eval_cfg(tmp_path)
        cfg.pop("output")
        assert main(["eval", write_cfg(tmp_path, cfg)]) == 2

    def test_dimension_mismatch(self, tmp_path):
        cfg = eval_cfg(tmp_path)
        cfg["eval"]["grid"] = {"min": [-1, -1], "max": [1, 1], "points": [5, 5]}
        assert main(["eval", write_cfg(tmp_path, cfg)]) == 2

    @pytest.mark.parametrize("grid", [
        {"min": [0, 0.1, 7], "max": [1, 1], "points": [3, 3]},
        {"min": [0, 0.1], "max": [1, 1, 1], "points": [3, 3]},
        {"min": [0, 0.1], "max": [1, 1], "points": [3, 3, 3]},
        {"min": [0], "max": [1], "points": [3]},
    ])
    def test_grid_entries_per_dimension(self, tmp_path, grid):
        cfg = {
            "medium": {"upper": [[1.0, 0.0], [0.0, 1.0]]},
            "eval": {"t": 0.5, "s": 0.0, "y": [0.0, 0.3], "grid": grid},
            "output": str(tmp_path / "out.csv"),
        }
        assert main(["eval", write_cfg(tmp_path, cfg)]) == 2
        assert not (tmp_path / "out.csv").exists()

    def test_quadrature_not_converged_exit_3(self, tmp_path, monkeypatch, capsys):
        def failing(groups, k_tot, *args):
            return np.full(k_tot, np.inf), np.full(k_tot, np.inf)

        monkeypatch.setattr(inverse_transform, "_tail_bound", failing)
        cfg = {
            "medium": {"upper": [[1.0, 0.0], [0.0, 1.0]]},
            "eval": {"t": 0.5, "s": 0.0, "y": [0.0, 0.3], "x": [[0.2, 0.5]]},
            "output": str(tmp_path / "out.csv"),
        }
        assert main(["eval", write_cfg(tmp_path, cfg)]) == 3
        assert "quadrature failed" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_strong_contrast_exit_0(self, tmp_path):
        # I | 10 I exited 3 while the contour followed the analyticity
        # certificate mu, which lies below every former contour row there.
        cfg = {
            "medium": {"upper": [[1.0, 0.0], [0.0, 1.0]], "lower": [[10.0, 0.0], [0.0, 10.0]]},
            "eval": {"t": 0.5, "s": 0.0, "y": [0.0, 0.3], "x": [[0.2, 0.5], [0.1, -0.4]]},
            "output": str(tmp_path / "out.csv"),
        }
        assert main(["eval", write_cfg(tmp_path, cfg)]) == 0
        lines = (tmp_path / "out.csv").read_text().strip().split("\n")
        col = lines[0].split(",").index("gamma")
        gammas = np.array([float(line.split(",")[col]) for line in lines[1:]])
        assert gammas.shape == (2,) and np.all(np.isfinite(gammas)) and np.all(gammas > 0.0)

    @pytest.mark.parametrize("upper,message", [
        ([[float("inf"), 0.0], [0.0, 1.0]], "must be finite"),
        ([[float("inf")]], "must be finite"),
        ("abc", "matrix of numbers"),
        ([["a"]], "matrix of numbers"),
        ({"a": 1}, "matrix of numbers"),
        ([[1, 2], [3]], "matrix of numbers"),
    ], ids=["upper0", "upper1", "string", "letter", "object", "ragged"])
    def test_nonfinite_tensor_exit_2(self, tmp_path, capsys, upper, message):
        # An infinite entry once passed validation: in 2-D it failed later
        # with an uncaught error (exit 1), in 1-D the tail bound (exit 3).
        # Entries that are no numbers, or rows of unequal length, exited 1
        # with numpy's ValueError or TypeError.
        cfg = eval_cfg(tmp_path)
        cfg["medium"] = {"upper": upper}
        cfg["eval"]["y"] = [0.0, 0.3][2 - len(upper):]
        cfg["eval"]["x"] = [[0.2, 0.5][2 - len(upper):]]
        del cfg["eval"]["grid"]
        path = write_cfg(tmp_path, cfg)
        assert ("Infinity" in Path(path).read_text()) == (message == "must be finite")
        assert main(["eval", path]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_nonfinite_point_exit_2(self, tmp_path):
        cfg = {
            "medium": {"upper": [[1.0, 0.0], [0.0, 1.0]]},
            "eval": {"t": 0.5, "s": 0.0, "y": [0.0, 0.3], "x": [[0.1, float("inf")]]},
            "output": str(tmp_path / "out.csv"),
        }
        path = write_cfg(tmp_path, cfg)
        assert '"x": [[0.1, Infinity]]' in Path(path).read_text()
        assert main(["eval", path]) == 2
        assert not (tmp_path / "out.csv").exists()

    def test_removed_quadrature_field_exit_2(self, tmp_path, capsys):
        # mu and M are derived from the medium and the tolerance.
        for field, value in (("contour_kind", "vertical_bromwich"), ("mu", 0.3),
                             ("contour_nodes", 40)):
            cfg = eval_cfg(tmp_path)
            cfg["quadrature"] = {field: value}
            assert main(["eval", write_cfg(tmp_path, cfg)]) == 2
            err = capsys.readouterr().err
            assert "invalid quadrature config" in err and field in err
            assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("nodes", [40.5, True, 41, 6, "40", float("inf")])
    def test_bad_contour_nodes_exit_2(self, tmp_path, capsys, nodes):
        # contour_nodes is no config field, whatever its value.
        cfg = eval_cfg(tmp_path)
        cfg["quadrature"] = {"contour_nodes": nodes}
        assert main(["eval", write_cfg(tmp_path, cfg)]) == 2
        assert "contour_nodes" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_nonnumeric_time_exit_2(self, tmp_path, capsys):
        cfg = eval_cfg(tmp_path)
        cfg["eval"]["t"] = "x"
        assert main(["eval", write_cfg(tmp_path, cfg)]) == 2
        assert "'t' must be a number" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    NONNUMERIC = [
        ("compare-oracle", ("compare_oracle", "t"), "abc"),
        ("compare-oracle", ("compare_oracle", "levels"), ["fine"]),
        ("green", ("green", "cube", "half_width"), "wide"),
        ("green", ("green", "depth"), "deep"),
        ("verify", ("seed",), "x"),
        ("verify", ("verify", "samples"), "many"),
        ("eval", ("eval", "y"), ["a"]),
        ("eval", ("eval", "grid", "points"), ["many"]),
    ]

    @staticmethod
    def field_cfg(tmp_path, path, value):
        """A 1-D config for every command, with the field at ``path`` set to ``value``."""
        cfg = {
            "medium": {"upper": [[1.0]]},
            "output": str(tmp_path / "out"),
            "compare_oracle": {"levels": [21, 41]},
            "green": {"kind": "cube", "cube": {"half_width": 1.0, "center": [0.0]},
                      "t": 0.2, "s": 0.0, "y": [0.3], "x": [[0.5]]},
            "verify": {"name": "interior" if path[-1] == "nodes" else "transmission"},
            "eval": {"t": 0.5, "s": 0.0, "y": [0.4],
                     "grid": {"min": [-1.0], "max": [1.0], "points": [5]}},
        }
        target = cfg
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return write_cfg(tmp_path, cfg)

    @pytest.mark.parametrize("command,path,value", NONNUMERIC,
                             ids=[".".join(path) for _, path, _ in NONNUMERIC])
    def test_nonnumeric_field_exit_2(self, tmp_path, capsys, command, path, value):
        assert main([command, self.field_cfg(tmp_path, path, value)]) == 2
        assert f"{path[-1]!r} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # Integer fields given a fraction, a non-finite number or a bool; each
    # used to be truncated by int() (4.9 -> 4, True -> 1) and run.
    NONINTEGER = [
        ("eval", ("eval", "grid", "points"), [4.9]),
        ("eval", ("eval", "grid", "points"), [True]),
        ("green", ("green", "depth"), 2.5),
        ("green", ("green", "boundary_samples"), False),
        ("verify", ("seed",), 0.5),
        ("verify", ("verify", "samples"), 3.5),
        ("verify", ("verify", "nodes"), 40.5),
        ("compare-oracle", ("compare_oracle", "levels"), [21.5, 41]),
        ("compare-oracle", ("compare_oracle", "time_steps"), 10.5),
        ("compare-oracle", ("compare_oracle", "max_points"), float("inf")),
    ]

    @pytest.mark.parametrize("command,path,value", NONINTEGER,
                             ids=[f"{'.'.join(p)}={v}" for _, p, v in NONINTEGER])
    def test_noninteger_field_exit_2(self, tmp_path, capsys, command, path, value):
        assert main([command, self.field_cfg(tmp_path, path, value)]) == 2
        assert f"{path[-1]!r} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # Counts below 1 and an empty level list; each used to exit 1 (ValueError
    # from linspace, IndexError, ZeroDivisionError), and max_points = -3
    # reversed and thinned the probes and passed.
    NONPOSITIVE = [
        ("eval", ("eval", "grid", "points"), [-3], "query has no points"),
        ("green", ("green", "boundary_samples"), -3, "'boundary_samples' must be"),
        ("compare-oracle", ("compare_oracle", "levels"), [], "'levels' must be"),
        ("compare-oracle", ("compare_oracle", "time_steps"), 0, "'time_steps' must be"),
        ("compare-oracle", ("compare_oracle", "max_points"), 0, "'max_points' must be"),
        ("compare-oracle", ("compare_oracle", "max_points"), -3, "'max_points' must be"),
    ]

    @pytest.mark.parametrize("command,path,value,message", NONPOSITIVE,
                             ids=[f"{'.'.join(p)}={v}" for _, p, v, _ in NONPOSITIVE])
    def test_nonpositive_count_exit_2(self, tmp_path, capsys, command, path, value, message):
        assert main([command, self.field_cfg(tmp_path, path, value)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # A section that is no JSON object, a verify name that is no string and
    # a cube center that is no point; each exited 1 (AttributeError in
    # _field, TypeError in _require or the name lookup, IndexError).
    NONOBJECT = [
        ("compare-oracle", ("compare_oracle",), [1], "must be in a JSON object"),
        ("verify", ("verify",), "name", "must be in a JSON object"),
        ("eval", ("eval", "grid"), [1], "must be in a JSON object"),
        ("verify", ("verify", "name"), [1], "unknown verify name"),
        ("green", ("green", "cube", "center"), 0.5, "center must be a point"),
    ]

    @pytest.mark.parametrize("command,path,value,message", NONOBJECT,
                             ids=[f"{'.'.join(p)}={v}" for _, p, v, _ in NONOBJECT])
    def test_malformed_section_exit_2(self, tmp_path, capsys, command, path, value, message):
        assert main([command, self.field_cfg(tmp_path, path, value)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "green", "verify", "compare-oracle"])
    def test_config_not_object_exit_2(self, tmp_path, capsys, command):
        # A top-level [1, 2] failed in main with an AttributeError (exit 1).
        assert main([command, write_cfg(tmp_path, [1, 2])]) == 2
        assert "is not a JSON object" in capsys.readouterr().err

    def test_integral_float_accepted(self, tmp_path):
        path = self.field_cfg(tmp_path, ("eval", "grid", "points"), [5.0])
        assert main(["eval", path]) == 0
        assert len((tmp_path / "out").read_text().strip().split("\n")) == 6

    def test_empty_query_exit_2(self, tmp_path, capsys):
        cfg = {
            "medium": {"upper": [[1.0, 0.0], [0.0, 1.0]], "lower": [[2.0, 0.0], [0.0, 3.0]]},
            "eval": {"t": 0.5, "s": 0.0, "y": [0.0, 0.3],
                     "grid": {"min": [-1.0, -1.0], "max": [1.0, 1.0], "points": [0, 3]}},
            "output": str(tmp_path / "out.csv"),
        }
        assert main(["eval", write_cfg(tmp_path, cfg)]) == 2
        assert "query has no points" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_no_partial_output_on_failure(self, tmp_path):
        cfg = eval_cfg(tmp_path)
        cfg["eval"].pop("y")
        assert main(["eval", write_cfg(tmp_path, cfg)]) == 2
        assert not (tmp_path / "out.csv").exists()


class TestGreen:
    def test_cube_green(self, tmp_path):
        cfg = {
            "medium": {"upper": [[1.0]]},
            "green": {
                "kind": "cube",
                "cube": {"half_width": 1.0, "center": [0.0]},
                "depth": 2,
                "t": 0.2,
                "s": 0.0,
                "y": [0.3],
                "grid": {"min": [-0.9], "max": [0.9], "points": [10]},
            },
            "output": str(tmp_path / "g.csv"),
        }
        assert main(["green", write_cfg(tmp_path, cfg)]) == 0
        text = (tmp_path / "g.csv").read_text()
        assert "# boundary sup |G| = " in text

    def test_cube_per_target_sources(self, tmp_path):
        # The boundary summary evaluated its samples against the whole
        # (K, n) y and exited 2.  Its sup now runs over every (boundary
        # sample, source) pair; in 1-D no value depends on the batch.
        x, y = [[-0.5], [0.1], [0.6]], [[0.3], [-0.2], [0.3]]

        def run(xs, ys, name):
            cfg = {
                "medium": {"upper": [[2.0]]},
                "green": {"kind": "cube", "cube": {"half_width": 1.0, "center": [0.0]},
                          "t": 0.2, "s": 0.0, "y": ys, "x": xs},
                "output": str(tmp_path / name),
            }
            assert main(["green", write_cfg(tmp_path, cfg)]) == 0
            rows, summary = (tmp_path / name).read_text().strip().rsplit("\n", 1)
            sup = float(summary.split("boundary sup |G| = ")[1].split(",")[0])
            return rows.split("\n")[1:], sup

        rows, sup = run(x, y, "all.csv")
        singles = [run([xk], yk, f"{k}.csv") for k, (xk, yk) in enumerate(zip(x, y))]
        assert rows == [row for one, _ in singles for row in one]
        assert sup == max(one_sup for _, one_sup in singles)

    def test_half_space_green(self, tmp_path):
        cfg = {
            "medium": {"upper": [[1.0]]},
            "green": {
                "kind": "half_space",
                "face": {"axis": 0, "offset": 0.0, "side": 1},
                "t": 0.3,
                "s": 0.0,
                "y": [0.5],
                "x": [[0.2], [1.0]],
            },
            "output": str(tmp_path / "h.csv"),
        }
        assert main(["green", write_cfg(tmp_path, cfg)]) == 0
        assert "# face sup |G| = " in (tmp_path / "h.csv").read_text()

    def test_threaded_per_target_sources(self, tmp_path, monkeypatch):
        cfg = {
            "medium": {"upper": [[1.0]]},
            "green": {
                "kind": "half_space",
                "face": {"axis": 0, "offset": -1.0, "side": 1},
                "t": 0.3,
                "s": 0.0,
                "y": [[-0.6], [-0.2], [0.3], [0.5], [0.8]],
                "x": [[-0.9], [-0.4], [0.2], [0.6], [1.4]],
            },
            "output": str(tmp_path / "h.csv"),
        }
        p = write_cfg(tmp_path, cfg)
        assert main(["green", p]) == 0
        serial = (tmp_path / "h.csv").read_bytes()
        monkeypatch.setattr(cli, "_n_threads", lambda: 2)
        assert main(["green", p]) == 0
        assert (tmp_path / "h.csv").read_bytes() == serial

    def test_half_space_grid_through_face(self, tmp_path):
        # The grid's first column lies on the face x_1 = 0, where G = 0.
        cfg = {
            "medium": {"upper": [[1.0, 0.0], [0.0, 2.0]]},
            "green": {
                "kind": "half_space",
                "face": {"axis": 0, "offset": 0.0, "side": 1},
                "t": 0.3,
                "s": 0.0,
                "y": [0.5, 0.2],
                "grid": {"min": [0.0, -1.0], "max": [1.0, 1.0], "points": [5, 4]},
            },
            "output": str(tmp_path / "h.csv"),
        }
        assert main(["green", write_cfg(tmp_path, cfg)]) == 0
        rows = [line.split(",") for line in (tmp_path / "h.csv").read_text().split("\n")
                if line and not line.startswith(("#", "x1"))]
        assert len(rows) == 20
        face = [r for r in rows if float(r[0]) == 0.0]
        assert len(face) == 4
        assert all(abs(float(r[6])) <= float(r[-1]) for r in face)

    def cube_2d_cfg(self, tmp_path):
        return {
            "medium": {"upper": [[1.0, 0.0], [0.0, 2.0]]},
            "green": {
                "kind": "cube",
                "cube": {"half_width": 1.0, "center": [0.0, 0.0]},
                "t": 0.2,
                "s": 0.0,
                "y": [0.1, -0.3],
                "x": [[0.2, 0.3], [-0.4, 0.1]],
            },
            "output": str(tmp_path / "g.csv"),
        }

    def test_source_dimension_exit_2(self, tmp_path):
        cfg = self.cube_2d_cfg(tmp_path)
        cfg["green"]["y"] = [0.1]
        assert main(["green", write_cfg(tmp_path, cfg)]) == 2
        assert not (tmp_path / "g.csv").exists()

    def test_nonnumeric_time_exit_2(self, tmp_path):
        cfg = self.cube_2d_cfg(tmp_path)
        cfg["green"]["t"] = "x"
        assert main(["green", write_cfg(tmp_path, cfg)]) == 2

    def test_source_after_target_exit_2(self, tmp_path, capsys):
        cfg = self.cube_2d_cfg(tmp_path)
        cfg["green"]["t"], cfg["green"]["s"] = 0.1, 0.2
        assert main(["green", write_cfg(tmp_path, cfg)]) == 2
        assert "require t > s" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()

    def test_tail_constant_rejected(self, tmp_path, capsys):
        cfg = self.cube_2d_cfg(tmp_path)
        cfg["green"]["tail_constant"] = 2.0
        assert main(["green", write_cfg(tmp_path, cfg)]) == 2
        assert "tail_constant" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()

    def test_unsupported_geometry_exit_4(self, tmp_path):
        cfg = {
            "medium": {"upper": [[1.0]], "lower": [[4.0]]},
            "green": {
                "kind": "cube",
                "cube": {"half_width": 1.0, "center": [0.0]},
                "t": 0.2,
                "s": 0.0,
                "y": [0.3],
                "x": [[0.5]],
            },
            "output": str(tmp_path / "g.csv"),
        }
        assert main(["green", write_cfg(tmp_path, cfg)]) == 4

    def test_depth_zero_exit_4(self, tmp_path, capsys):
        # Refused when the cube Green function is built.
        cfg = {
            "medium": {"upper": [[1.0]]},
            "green": {
                "kind": "cube",
                "cube": {"half_width": 1.0, "center": [0.0]},
                "depth": 0,
                "t": 0.2,
                "s": 0.0,
                "y": [0.3],
                "x": [[0.5]],
            },
            "output": str(tmp_path / "g.csv"),
        }
        assert main(["green", write_cfg(tmp_path, cfg)]) == 4
        assert "depth must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()

    def test_huge_depth_exit_4(self, tmp_path, capsys):
        # An integral depth whose lattice would not fit in memory.
        cfg = {
            "medium": {"upper": [[1.0]]},
            "green": {
                "kind": "cube",
                "cube": {"half_width": 1.0, "center": [0.0]},
                "depth": 1000000000,
                "t": 0.2,
                "s": 0.0,
                "y": [0.3],
                "x": [[0.5]],
            },
            "output": str(tmp_path / "g.csv"),
        }
        assert main(["green", write_cfg(tmp_path, cfg)]) == 4
        assert "images per target" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()


class TestVerify:
    def base_cfg(self, tmp_path, name, **verify_extra):
        return {
            "medium": {"upper": [[1.0]], "lower": [[4.0]]},
            "verify": {"name": name, **verify_extra},
            "output": str(tmp_path / "report.json"),
        }

    def read_report(self, tmp_path):
        return json.loads((tmp_path / "report.json").read_text())

    def test_transmission_passes(self, tmp_path):
        cfg = self.base_cfg(tmp_path, "transmission", samples=50)
        assert main(["verify", write_cfg(tmp_path, cfg)]) == 0
        rep = self.read_report(tmp_path)
        assert rep["passed"] is True
        assert rep["detail"]["worst_residual"] < 1e-10

    def test_mass_passes(self, tmp_path):
        cfg = self.base_cfg(tmp_path, "mass")
        assert main(["verify", write_cfg(tmp_path, cfg)]) == 0
        assert abs(self.read_report(tmp_path)["detail"]["mass"] - 1.0) < 1e-4

    def test_schur_passes(self, tmp_path):
        cfg = self.base_cfg(tmp_path, "schur")
        assert main(["verify", write_cfg(tmp_path, cfg)]) == 0

    def test_unknown_name_exit_2(self, tmp_path):
        cfg = self.base_cfg(tmp_path, "nonsense")
        assert main(["verify", write_cfg(tmp_path, cfg)]) == 2

    def test_unknown_name_checked_before_medium(self, tmp_path, capsys):
        cfg = self.base_cfg(tmp_path, "nonsense")
        cfg["medium"]["upper"] = [[1.0, 2.0], [3.0, 1.0]]  # invalid
        assert main(["verify", write_cfg(tmp_path, cfg)]) == 2
        assert "unknown verify name 'nonsense'" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("name", ["schur", "transmission"])
    def test_no_evaluator_built(self, tmp_path, monkeypatch, name):
        # These checks do not evaluate the kernel, so they build no evaluator.
        class NoEvaluator:
            def __init__(self, *args, **kwargs):
                raise AssertionError("KernelEvaluator built")

        monkeypatch.setattr(cli, "KernelEvaluator", NoEvaluator)
        cfg = self.base_cfg(tmp_path, name, samples=20)
        assert main(["verify", write_cfg(tmp_path, cfg)]) == 0
        assert self.read_report(tmp_path)["passed"] is True

    def test_broken_kernel_fails_with_report(self, tmp_path, monkeypatch):
        class BrokenEvaluator(cli.KernelEvaluator):
            """Multiplies the kernel by exp(r^2/dt), which breaks the bounds."""

            def eval_many(self, x, t, y, s, source_gradient=False):
                res = dict(super().eval_many(x, t, y, s, source_gradient))
                x2 = np.atleast_2d(np.asarray(x, dtype=float))
                y2 = np.broadcast_to(np.asarray(y, dtype=float), x2.shape)
                r2 = np.sum((x2 - y2) ** 2, axis=1)
                boost = np.exp(np.minimum(r2 / (t - s), 700.0))
                res["gamma"] = res["gamma"] * boost
                res["grad"] = res["grad"] * boost[:, None]
                return res

        monkeypatch.setattr(cli, "KernelEvaluator", BrokenEvaluator)
        cfg = self.base_cfg(tmp_path, "aronson")
        assert main(["verify", write_cfg(tmp_path, cfg)]) == 5
        rep = self.read_report(tmp_path)
        assert rep["passed"] is False

    @pytest.mark.parametrize("name", ["mass", "delta"])
    def test_source_dimension_exit_2(self, tmp_path, capsys, name):
        # A 2-D source of one entry failed inside the integration grid
        # (IndexError, exit 1).
        cfg = self.base_cfg(tmp_path, name, y=[0.4])
        cfg["medium"] = {"upper": [[1.0, 0.0], [0.0, 1.0]]}
        assert main(["verify", write_cfg(tmp_path, cfg)]) == 2
        assert "one entry per medium dimension (2)" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_infinite_lag_exit_2(self, tmp_path, capsys):
        cfg = self.base_cfg(tmp_path, "mass", dt=float("inf"))
        path = write_cfg(tmp_path, cfg)
        assert '"dt": Infinity' in Path(path).read_text()
        assert main(["verify", path]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_qrho_3d_refused_before_fit(self, tmp_path, monkeypatch, capsys):
        # A 3-D qrho ran the whole Aronson fit before its cylinder points
        # failed the evaluator's shape check.
        def no_fit(*args, **kwargs):
            raise AssertionError("fit_aronson ran")

        monkeypatch.setattr(bounds, "fit_aronson", no_fit)
        cfg = self.base_cfg(tmp_path, "qrho")
        cfg["medium"] = {"upper": np.eye(3).tolist()}
        assert main(["verify", write_cfg(tmp_path, cfg)]) == 2
        assert "qrho supports n in {1, 2}" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("samples", [0, -2])
    @pytest.mark.parametrize("name", ["qrho", "transmission"])
    def test_nonpositive_samples_exit_2(self, tmp_path, monkeypatch, capsys, name, samples):
        # Both checks passed with nothing checked: worst ratio or residual 0.0.
        def no_fit(*args, **kwargs):
            raise AssertionError("fit_aronson ran")

        monkeypatch.setattr(bounds, "fit_aronson", no_fit)
        cfg = self.base_cfg(tmp_path, name, samples=samples)
        assert main(["verify", write_cfg(tmp_path, cfg)]) == 2
        assert "'samples' must be a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("name", sorted(cli.VERIFY_CHECKS))
    def test_negative_seed_exit_2(self, tmp_path, capsys, name):
        # numpy's generators refuse a negative seed with a bare ValueError
        # (exit 1), after the check had started.
        cfg = self.base_cfg(tmp_path, name)
        cfg["seed"] = -3
        assert main(["verify", write_cfg(tmp_path, cfg)]) == 2
        assert "'seed' must be a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_adjoint_bit_exact(self, tmp_path):
        cfg = self.base_cfg(tmp_path, "adjoint")
        cfg["medium"] = {"upper": [[1.0]]}
        assert main(["verify", write_cfg(tmp_path, cfg)]) == 0
        assert self.read_report(tmp_path)["detail"]["bit_exact"] is True


class TestCompareOracle:
    def test_small_1d_run(self, tmp_path):
        cfg = {
            "medium": {"upper": [[1.0]], "lower": [[4.0]]},
            "compare_oracle": {
                "t": 0.25,
                "y": [0.5],
                "levels": [101, 201],
                "max_points": 300,
            },
            "output": str(tmp_path / "cmp.json"),
        }
        assert main(["compare-oracle", write_cfg(tmp_path, cfg)]) == 0
        rep = json.loads((tmp_path / "cmp.json").read_text())
        assert rep["passed"] is True
        levels = rep["levels"]
        assert levels[1]["linf_rel"] < levels[0]["linf_rel"] <= 0.02

    def test_no_probe_exit_2(self, tmp_path, monkeypatch, capsys):
        # At 51 nodes no node lies inside the bulk and away from the source;
        # the level is refused before its finite-difference solve.
        def no_solve(*args, **kwargs):
            raise AssertionError("the finite-difference solve ran")

        monkeypatch.setattr(oracle, "approximate_kernel", no_solve)
        cfg = {
            "medium": {"upper": [[1.0, 0.0], [0.0, 1.0]], "lower": [[2.0, 0.0], [0.0, 2.0]]},
            "compare_oracle": {"t": 0.25, "y": [0.0, 0.5], "levels": [51], "time_steps": 10,
                               "max_points": 4, "bulk_half_width": 0.6},
            "output": str(tmp_path / "cmp.json"),
        }
        assert main(["compare-oracle", write_cfg(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "level 51" in err and "bulk_half_width 0.6" in err
        assert "Traceback" not in err
        assert not (tmp_path / "cmp.json").exists()

    def test_source_dimension_exit_2(self, tmp_path, monkeypatch, capsys):
        # A 2-D run with a one-entry source passed, on the source (0.5, 0.5)
        # that numpy broadcast from it.
        def no_solve(*args, **kwargs):
            raise AssertionError("the finite-difference solve ran")

        monkeypatch.setattr(oracle, "approximate_kernel", no_solve)
        cfg = {
            "medium": {"upper": [[1.0, 0.0], [0.0, 1.0]]},
            "compare_oracle": {"t": 0.25, "y": [0.5], "levels": [51]},
            "output": str(tmp_path / "cmp.json"),
        }
        assert main(["compare-oracle", write_cfg(tmp_path, cfg)]) == 2
        assert "one entry per medium dimension (2)" in capsys.readouterr().err
        assert not (tmp_path / "cmp.json").exists()
