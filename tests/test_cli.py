"""End-to-end checks for the command-line interface.

Every test drives ``gridloss.cli.main`` in process and inspects exit
codes, stdout, and the files it writes.
"""

import itertools
import json
import math
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import gridloss.cli
import gridloss.dynamics
import gridloss.network
from gridloss.cli import _build_parser, _parse_grid, main
from gridloss.dynamics import ControllerParams
from gridloss.errors import ValidationError
from gridloss.h2 import h2_dapi_closed_form, h2_droop_closed_form
from gridloss.network import (
    NetworkGraph,
    build_line_graph,
    build_random_connected_graph,
    laplacian_eigenvalues,
    spectral_decomposition,
)
from gridloss.tuning import optimal_gamma
from child import run_child

IEEE57 = Path(gridloss.network.__file__).parent / "data" / "ieee57.edges"
README = Path(__file__).resolve().parents[1] / "README.md"
_LB_OVERFLOW = "the Laplacian leaves the float range: the susceptance summed at a bus overflows"
_TAU_ZERO = ("filter time constant tau is zero: the loop degenerates to first order "
             "and has no state-space form here; use the closed-form norm route")


def _refuse(*args, **kwargs):
    raise AssertionError("simulate was called")


def _read_rows(path):
    """Parse a CSV written by the CLI into (comments, header, rows)."""
    comments = []
    header = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line[2:])
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


class TestGridParsing:
    def test_unit_grid_has_eleven_points(self):
        grid = _parse_grid("0:1:0.1")
        assert grid.size == 11
        assert grid[0] == 0.0
        assert abs(grid[-1] - 1.0) < 1e-12

    def test_fine_grid_keeps_endpoint(self):
        grid = _parse_grid("0:4:0.01")
        assert grid.size == 401
        assert abs(grid[-1] - 4.0) < 1e-9

    def test_non_divisible_span_stops_short(self):
        grid = _parse_grid("0:0.95:0.1")
        assert grid.size == 10
        assert abs(grid[-1] - 0.9) < 1e-12

    def test_malformed_text_rejected(self):
        for text in ("bad", "0:1", "0:1:0", "1:0:0.1", "a:b:c"):
            with pytest.raises(ValidationError):
                _parse_grid(text)


class TestUsageErrors:
    """Bad invocations must exit 2 and write nothing."""

    def test_missing_network_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_conflicting_network_flags(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--line", "5", "--complete", "5"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_tune_requires_out(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tune", "--line", "5"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_non_integer_seed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--line", "5", "--seed", "abc"])
        assert excinfo.value.code == 2
        assert "invalid int value: 'abc'" in capsys.readouterr().err

    def test_malformed_random_spec(self, capsys):
        assert main(["analyze", "--random", "20;0.3"]) == 2
        assert "N,P" in capsys.readouterr().err

    def test_malformed_grid(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["sweep", "--line", "5", "--param", "gamma",
                     "--grid", "oops", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        capsys.readouterr()

    def test_at_optimal_gamma_needs_param_k(self, tmp_path, capsys):
        code = main(["sweep", "--line", "5", "--param", "gamma", "--grid", "0:1:0.5",
                     "--at-optimal-gamma", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", [
        ["sweep", "--line", "5", "--param", "gamma", "--grid", "0:1e30:1e-30"],
        ["scaling", "--n-grid", "0:10000000:1"],
    ], ids=["grid", "n-grid"])
    def test_oversized_grid(self, command, tmp_path, capsys):
        # 1e60 and 10**7 + 1 points, both refused before they are allocated
        out = tmp_path / "x.csv"
        assert main([*command, "--out", str(out)]) == 2
        assert "grid has more than 10000000 points" in capsys.readouterr().err
        assert not out.exists()

    def test_fractional_size_is_reported_as_a_plain_number(self, tmp_path, capsys):
        assert main(["scaling", "--n-grid", "2:3:0.5", "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == "error: size grid must contain integers, got 2.5\n"

    @pytest.mark.parametrize("command", [
        ["analyze", "--random", "3,0.5"],
        ["simulate", "--line", "3", "--horizon", "1"],
        ["scaling", "--n-grid", "3:4:1", "--seeds", "1"],
    ], ids=["analyze", "simulate", "scaling"])
    def test_negative_seed(self, command, tmp_path, capsys):
        # numpy's generators refuse a negative seed; argparse refuses it first
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--seed", "-1", "--out", str(out)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed: must be >= 0, got -1" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(("flags", "message"), [
        (["--init-perturb", "-1"], "--init-perturb must be finite and >= 0, got -1.0"),
        (["--init-perturb", "nan"], "--init-perturb must be finite and >= 0, got nan"),
        (["--init-perturb", "inf", "--format", "json"], "--init-perturb must be finite and >= 0, got inf"),
        (["--stride", "0"], "--stride must be >= 1, got 0"),
        (["--stride", "0", "--format", "json"], "--stride must be >= 1, got 0"),
    ], ids=["perturb-negative", "perturb-nan", "perturb-inf-json", "stride-0", "stride-0-json"])
    def test_bad_simulate_flag(self, flags, message, monkeypatch, tmp_path, capsys):
        # refused before anything is simulated, so no file and no sidecar
        monkeypatch.setattr(gridloss.cli, "simulate", _refuse)
        out = tmp_path / "x.csv"
        assert main(["simulate", "--line", "3", "--horizon", "1", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_infinite_step_count(self, monkeypatch, tmp_path, capsys):
        # horizon / dt overflows to inf; refused before anything is simulated
        monkeypatch.setattr(gridloss.cli, "simulate", _refuse)
        out = tmp_path / "x.csv"
        assert main(["simulate", "--line", "3", "--horizon", "1e308", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: horizon / dt must be a finite number of steps, got horizon 1e+308 and dt 0.005\n"
        assert list(tmp_path.iterdir()) == []


class TestComputationErrors:
    def test_missing_edge_file_exits_one(self, capsys):
        assert main(["analyze", "--file", "/no/such/file.edges"]) == 1
        capsys.readouterr()

    def test_dapi_without_communication_exits_one(self, capsys):
        # gamma=0 leaves a marginal mode, so no finite norm by modal route
        code = main(["analyze", "--line", "10", "--gamma", "0"])
        assert code == 1
        assert "stable" in capsys.readouterr().err

    @pytest.mark.parametrize(("flags", "message"), [
        (["--line", "20", "--tau", "1e-9", "--m", "0.01"],
         "matrix is not safely Hurwitz (max eigenvalue real part -2.462e-04)"),
        (["--line", "10", "--gamma", "0"],
         "mode 2 (eigenvalue 0.097887) is not asymptotically stable; the steady-state loss is unbounded"),
        (["--line", "10", "--tau", "0"], _TAU_ZERO),
        (["--line", "10", "--gamma", "0", "--tau", "0"], _TAU_ZERO),
        # m lam / tau underflows to 0: the droop modes are stable, but their
        # blocks are not safely Hurwitz in floating point
        (["--line", "3", "--m", "1e-200", "--tau", "1e200"],
         "matrix is not safely Hurwitz (max eigenvalue real part 0.000e+00)"),
    ], ids=["stiff", "gamma-0", "tau-0", "gamma-0-tau-0", "droop-underflow"])
    def test_analyze_reports_the_first_refusal(self, flags, message, capsys):
        # droop routes before DAPI ones, and both modal routes before the
        # one assembly
        assert main(["analyze", *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unbracketed_optimal_gamma_exits_one(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["tune", "--line", "2", "--k", "1e7", "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("error: loss derivative is still negative at gamma = 1e+06; "
                                           "no stationary point bracketed\n")
        assert list(tmp_path.iterdir()) == []

    def test_coarse_step_on_stiff_system_exits_one(self, tmp_path, capsys):
        code = main(["simulate", "--line", "5", "--controller", "droop",
                     "--tau", "0.01", "--dt", "0.05", "--horizon", "10",
                     "--out", str(tmp_path / "t.csv")])
        assert code == 1
        assert "dt <" in capsys.readouterr().err


class TestNoTraceback:
    """Bad input ends in one ``error: `` line and exit 1 or 2, the same on
    every run, and leaves no temp file behind."""

    @pytest.mark.parametrize(("argv", "code", "message"), [
        (["scaling", "--n-grid", "10:20:10", "--b-range=2,1"], 2,
         "b_range must satisfy 0 < low <= high, got (2.0, 1.0)"),
        (["scaling", "--n-grid", "10:20:10", "--b-range=0.5,inf"], 2,
         "b_range must be finite, got inf"),
        (["scaling", "--n-grid", "10:20:10", "--b-range=nan,1"], 2,
         "b_range must be finite, got nan"),
        (["scaling", "--n-grid", "10:20:10", "--b-range=0,1"], 2,
         "b_range must satisfy 0 < low <= high, got (0.0, 1.0)"),
        (["analyze", "--line", "5", "--out", "{missing}"], 1,
         "[Errno 2] No such file or directory: '{missing}'"),
        (["analyze", "--line", "5", "--out", "{adir}"], 1, "[Errno 21] Is a directory: '{adir}'"),
        (["sweep", "--line", "5", "--param", "k", "--grid", "0:inf:1"], 2,
         "grid bounds must be finite, got '0:inf:1'"),
        (["scaling", "--n-grid", "10:20:10", "--seeds", "0"], 2, "--seeds must be >= 1, got 0"),
        (["analyze", "--line", "1"], 2, "n_nodes must be an integer >= 2, got 1"),
        (["analyze", "--complete", "1"], 2, "n_nodes must be an integer >= 2, got 1"),
        (["analyze", "--random", "1,0.5"], 2, "n_nodes must be an integer >= 2, got 1"),
        # a closed loop whose entries overflow is refused where it is built,
        # with no numpy warning on the way
        (["analyze", "--line", "3", "--m", "1e308"], 1,
         "closed loop leaves the float range: its m/tau entries overflow"),
        (["analyze", "--line", "3", "--tau", "1e-320"], 1,
         "closed loop leaves the float range: its m/tau, 1/tau entries overflow"),
        (["simulate", "--line", "3", "--m", "1e308", "--horizon", "1"], 1,
         "closed loop leaves the float range: its m/tau entries overflow"),
        (["simulate", "--line", "3", "--tau", "1e-320", "--horizon", "1"], 1,
         "closed loop leaves the float range: its m/tau, 1/tau entries overflow"),
        (["analyze", "--line", "3", "--alpha", "1e308"], 1,
         "closed loop leaves the float range: its alpha entries overflow"),
        # a valid graph whose L_B overflows: a bus's summed susceptance
        (["analyze", "--line", "3", "--b", "1e308"], 1, _LB_OVERFLOW),
        (["analyze", "--line", "3", "--b", "9e307"], 1, _LB_OVERFLOW),
        (["tune", "--line", "3", "--b", "1e308"], 1, _LB_OVERFLOW),
        (["sweep", "--line", "3", "--b", "1e308", "--param", "k", "--grid", "1:2:1"], 1, _LB_OVERFLOW),
        (["simulate", "--line", "3", "--b", "1e308", "--horizon", "1"], 1, _LB_OVERFLOW),
        (["scaling", "--n-grid", "3:3:1", "--b-range", "1e308,1e308", "--seeds", "1"], 1, _LB_OVERFLOW),
        # finite entries whose spectrum overflows: the float range, not a
        # disconnected graph
        (["analyze", "--line", "2", "--b", "1e308"], 1,
         "the Laplacian's spectrum leaves the float range: its largest eigenvalue is inf"),
        # a closed form, the gain search or a simulated loss that leaves the
        # float range is refused by name; a sweep names its grid point
        (["analyze", "--line", "3", "--gamma", "1e308"], 1,
         "the dapi closed form leaves the float range: a mode's loss is not finite"),
        (["sweep", "--line", "3", "--param", "gamma", "--grid", "1e307:1e308:1e307"], 1,
         "grid point 5 (gamma=6e+307): the dapi closed form leaves the float range: a mode's loss is not finite"),
        (["scaling", "--n-grid", "2:3:1", "--seeds", "1", "--gamma", "1e308"], 1,
         "the dapi closed form leaves the float range: a mode's loss is not finite"),
        (["analyze", "--line", "3", "--m", "1e-310"], 1,
         "the droop closed form leaves the float range: a mode's loss is not finite"),
        (["analyze", "--line", "70", "--alpha", "1e307"], 1,
         "the droop closed form leaves the float range: the sum of its mode losses overflows"),
        (["tune", "--line", "70", "--alpha", "1e307"], 1,
         "the dapi closed form leaves the float range: the sum of its mode losses overflows"),
        (["sweep", "--line", "70", "--alpha", "1e307", "--param", "gamma", "--grid", "1:2:1"], 1,
         "grid point 0 (gamma=1.0): the dapi closed form leaves the float range: "
         "the sum of its mode losses overflows"),
        (["sweep", "--line", "21", "--alpha", "1e307", "--param", "m", "--grid", "0.5:1:0.5"], 1,
         "grid point 0 (m=0.5): the droop closed form leaves the float range: the sum of its mode losses overflows"),
        (["scaling", "--n-grid", "70:71:1", "--seeds", "1", "--alpha", "1e307"], 1,
         "the droop closed form leaves the float range: the sum of its mode losses overflows"),
        (["tune", "--line", "3", "--k", "1e-320"], 1,
         "loss derivative is not finite at gamma = 0: the gain search leaves the float range"),
        (["tune", "--line", "3", "--m", "1e308"], 1,
         "loss derivative is not finite at gamma = 0: the gain search leaves the float range"),
        (["sweep", "--line", "3", "--param", "k", "--grid", "1e-320:1e-319:1e-320", "--at-optimal-gamma"], 1,
         "grid point 0 (k=1e-320): loss derivative is not finite at gamma = 0: the gain search leaves the float range"),
        (["simulate", "--line", "3", "--noise", "1e300", "--horizon", "1", "--format", "json"], 1,
         "the empirical squared norm or its standard error leaves the float range (noise intensity 1e+300)"),
        (["simulate", "--line", "3", "--noise", "1e308", "--horizon", "1"], 1,
         "the empirical squared norm or its standard error leaves the float range (noise intensity 1e+308)"),
        (["simulate", "--line", "20", "--noise", "1.7e308", "--horizon", "1"], 1,
         "the simulated loss leaves the float range at t = 0.445; it grows with the noise intensity (1.7e+308), "
         "the initial state and alpha"),
        (["simulate", "--line", "20", "--noise", "1.7e308", "--horizon", "1", "--format", "json"], 1,
         "the simulated loss leaves the float range at t = 0.445; it grows with the noise intensity (1.7e+308), "
         "the initial state and alpha"),
        (["simulate", "--line", "3", "--noise", "0", "--init-perturb", "1e200", "--horizon", "1"], 1,
         "the simulated loss leaves the float range at t = 0; it grows with the noise intensity (0), "
         "the initial state and alpha"),
        (["simulate", "--line", "20", "--init-perturb", "1e308", "--horizon", "1"], 1,
         "the initial phase perturbation leaves the float range (scale 1e+308)"),
    ], ids=["b-range-reversed", "b-range-inf", "b-range-nan", "b-range-zero", "out-missing-dir",
            "out-is-dir", "grid-inf", "seeds-0", "line-1", "complete-1", "random-1",
            "analyze-m-overflow", "analyze-tau-overflow", "simulate-m-overflow", "simulate-tau-overflow",
            "analyze-alpha-overflow", "analyze-b-overflow", "analyze-b-overflow-9e307", "tune-b-overflow",
            "sweep-b-overflow", "simulate-b-overflow", "scaling-b-overflow", "analyze-spectrum-overflow",
            "analyze-dapi-closed-form-overflow", "sweep-dapi-closed-form-overflow",
            "scaling-dapi-closed-form-overflow", "analyze-droop-closed-form-overflow",
            "analyze-droop-sum-overflow", "tune-dapi-sum-overflow", "sweep-dapi-sum-overflow",
            "sweep-droop-sum-overflow", "scaling-droop-sum-overflow", "tune-k-subnormal", "tune-m-overflow",
            "sweep-k-subnormal", "simulate-stderr-overflow-json", "simulate-estimate-overflow",
            "simulate-loss-overflow", "simulate-loss-overflow-json", "simulate-initial-loss-overflow",
            "simulate-perturbation-overflow"])
    def test_one_error_line(self, argv, code, message, tmp_path, capsys):
        paths = {"missing": str(tmp_path / "no" / "such" / "x.json"), "adir": str(tmp_path / "adir")}
        (tmp_path / "adir").mkdir()
        argv = [arg.format(**paths) for arg in argv]
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / "x.csv")]
        errors = []
        for _ in range(2):
            assert main(argv) == code
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == f"error: {message.format(**paths)}\n"
        assert [p.name for p in tmp_path.rglob("*")] == ["adir"]

    def test_gamma_zero_simulation_refused_once(self, tmp_path, capsys):
        # the refusal is the one report: assembly does not warn first
        argv = ["simulate", "--line", "3", "--gamma", "0", "--horizon", "1", "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: marginal or unstable modes remain after deflating the rigid phase shift "
                            r"\(matrix is not safely Hurwitz \(max eigenvalue real part \S+\)\); "
                            r"for DAPI this typically means gamma = 0\n", err)
        assert list(tmp_path.iterdir()) == []

    def test_subnormal_alpha_simulates(self, tmp_path, capsys):
        # alpha * L_B of subnormal entries weights the loss as it is: its
        # rows may sum to a few subnormals, and nothing refuses that
        out = tmp_path / "x.csv"
        argv = ["simulate", "--random", "5,0.4", "--seed", "1", "--alpha", "5e-324", "--horizon", "1",
                "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert out.exists()

    @pytest.mark.parametrize(("content", "message"), [
        (b"alpha -1\n1 2 1\n", "line 1: alpha must be finite and >= 0, got -1.0"),
        (b"alpha 1\n1 x 1\n", "line 2: could not parse '1 x 1' as '<int> <int> <float>'"),
        (b"alpha 1\n0 1 1\n", "line 2: node indices are 1-based, got (0, 1)"),
        (b"# comments\n# only\n", "file has no 'alpha <value>' header line"),
        (b"alpha 1\n1 2 1\n2 3 \xe9\n", "line 3: could not parse '2 3 \ufffd' as '<int> <int> <float>'"),
        (b"\xff\xfe bad\n1 2 1\n", "line 1: expected header 'alpha <value>', got '\ufffd\ufffd bad'"),
    ], ids=["alpha-negative", "index-not-int", "index-0", "comments-only", "latin-1-byte", "leading-0xff"])
    def test_bad_edge_file_one_error_line(self, content, message, tmp_path, capsys):
        edges = tmp_path / "bad.edges"
        edges.write_bytes(content)
        argv = ["analyze", "--file", str(edges), "--out", str(tmp_path / "x.json")]
        errors = []
        for _ in range(2):
            assert main(argv) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == f"error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["bad.edges"]


class TestWeakTie:
    """Two 5-cliques joined by one line of susceptance 1e-10: connected, with
    lambda_2 of about 4e-11, which the component count keeps apart from zero."""

    @pytest.fixture
    def weak_tie(self, tmp_path):
        return _cliques_file(tmp_path, "1e-10")

    def test_tune_succeeds(self, weak_tie, tmp_path, capsys):
        out = tmp_path / "tune.json"
        assert main(["tune", "--file", str(weak_tie), "--format", "json", "--out", str(out)]) == 0
        capsys.readouterr()
        assert 0.0 < json.loads(out.read_text())["gamma_star"] < 1.0

    def test_analyze_refuses_the_near_marginal_mode(self, weak_tie, capsys):
        # both Gramian routes solve Lyapunov equations, and the slowest mode
        # sits past the solver's Hurwitz cut-off
        assert main(["analyze", "--file", str(weak_tie)]) == 1
        assert "not safely Hurwitz" in capsys.readouterr().err

    def test_simulate_refuses_with_the_full_routes_message(self, weak_tie, tmp_path, capsys):
        out = tmp_path / "sim.json"
        assert main(["simulate", "--file", str(weak_tie), "--controller", "droop", "--horizon", "20",
                     "--format", "json", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: marginal or unstable modes remain after deflating the rigid phase shift "
            "(matrix is not safely Hurwitz (max eigenvalue real part ")
        assert not out.exists()

    def test_simulate_runs_droop_on_a_tie_of_1e_8(self, tmp_path, capsys):
        # lambda_2 about 4e-9: the deflated loop is safely Hurwitz
        out = tmp_path / "sim.json"
        assert main(["simulate", "--file", str(_cliques_file(tmp_path, "1e-8")), "--controller", "droop",
                     "--horizon", "20", "--format", "json", "--out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["integrated_loss"] > 0.0

    @pytest.mark.parametrize(("tie", "resolved"), [
        ("1e-10", True), ("1e-13", True),
        ("1e-14", False), ("1e-15", False), ("1e-16", False), ("1e-18", False), ("1e-20", False),
    ])
    def test_tune_verdict_follows_the_rounding_floor(self, tie, resolved, tmp_path, capsys):
        out = tmp_path / "tune.json"
        code = main(["tune", "--file", str(_cliques_file(tmp_path, tie)), "--format", "json", "--out", str(out)])
        err = capsys.readouterr().err
        if resolved:
            assert code == 0 and out.exists()
        else:
            assert code == 1 and not out.exists()
            assert "is not resolved above zero (rounding floor n eps lambda_max = 1.110e-14)" in err


def _cliques_file(tmp_path, tie):
    """Edge list of two unit 5-cliques joined by one line of susceptance ``tie``."""
    lines = ["alpha 1.0"]
    for base in (1, 6):
        lines += [f"{i} {j} 1.0" for i, j in itertools.combinations(range(base, base + 5), 2)]
    lines.append(f"5 6 {tie}")
    path = tmp_path / "weak.edges"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestSpectrumCalls:
    """Each command computes only the spectrum it reads: ``analyze`` reads
    eigenvalues alone (the closed forms and the modal route), and neither
    the full-Gramian route nor ``simulate`` reads any spectrum."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"eigh": 0, "eigvalsh": 0}
        for name in counts:
            real = getattr(np.linalg, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return counts

    @pytest.mark.parametrize("network", [["--random", "30,0.2"], ["--file", str(IEEE57)]])
    def test_analyze_takes_one_eigenvalue_only_spectrum(self, calls, network, tmp_path, capsys):
        assert main(["analyze", *network, "--format", "json", "--out", str(tmp_path / "a.json")]) == 0
        capsys.readouterr()
        assert calls == {"eigh": 0, "eigvalsh": 1}

    @pytest.mark.parametrize("controller", ["droop", "dapi"])
    def test_simulate_takes_no_spectrum(self, calls, controller, tmp_path, capsys):
        assert main(["simulate", "--random", "12,0.3", "--controller", controller, "--horizon", "5",
                     "--dt", "0.01", "--format", "json", "--out", str(tmp_path / "s.json")]) == 0
        capsys.readouterr()
        assert calls == {"eigh": 0, "eigvalsh": 0}

    @pytest.mark.parametrize(("flags", "message"), [
        (["--param", "gamma", "--grid", "0:1:0.5", "--at-optimal-gamma"],
         "--at-optimal-gamma only applies to --param k"),
        (["--param", "k", "--grid", "0:1"], "grid must be START:STOP:STEP, got '0:1'"),
    ], ids=["at-optimal-gamma-without-k", "malformed-grid"])
    def test_sweep_refuses_its_flags_before_any_spectrum(self, calls, flags, message, tmp_path, capsys):
        assert main(["sweep", "--random", "30,0.2", *flags, "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == {"eigh": 0, "eigvalsh": 0}
        assert list(tmp_path.iterdir()) == []


class TestLaplacianBuilds:
    """``analyze`` builds L_B for its spectrum, once in each of its two
    assemblies, the droop and the DAPI loop, and once for each full
    Gramian's loss weight L_G = alpha L_B: 5 in all.  ``simulate`` builds
    it for its assembly and for its loss weight."""

    @pytest.fixture
    def builds(self, monkeypatch):
        count = [0]
        real = gridloss.network.susceptance_laplacian

        def counted(graph):
            count[0] += 1
            return real(graph)

        for module in (gridloss.network, gridloss.dynamics):
            monkeypatch.setattr(module, "susceptance_laplacian", counted)
        return count

    def test_analyze_builds_five(self, builds, tmp_path, capsys):
        assert main(["analyze", "--random", "30,0.2", "--format", "json", "--out", str(tmp_path / "a.json")]) == 0
        capsys.readouterr()
        assert builds == [5]

    def test_simulate_builds_two(self, builds, tmp_path, capsys):
        assert main(["simulate", "--line", "6", "--horizon", "5", "--dt", "0.01",
                     "--format", "json", "--out", str(tmp_path / "s.json")]) == 0
        capsys.readouterr()
        assert builds == [2]


class TestAnalyze:
    def test_stdout_report(self, capsys):
        assert main(["analyze", "--line", "20"]) == 0
        out = capsys.readouterr().out
        assert "closed_form" in out
        assert "modal_lyapunov" in out
        assert "full_gramian" in out
        assert "9.5" in out
        assert "dapi below droop: yes" in out

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(["analyze", "--line", "20", "--out", str(out)]) == 0
        capsys.readouterr()
        comments, header, rows = _read_rows(out)
        assert header == ["mode", "eigenvalue", "droop", "dapi"]
        assert len(rows) == 19
        summary = dict(c.split(" = ") for c in comments if " = " in c)
        assert float(summary["droop_closed_form"]) == 9.5
        assert float(summary["max_rel_deviation"]) < 1e-10
        assert summary["dapi_below_droop"] == "true"
        # three routes agree in the file just as in the library
        assert abs(float(summary["droop_full_gramian"]) - 9.5) < 1e-9

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["analyze", "--complete", "8", "--format", "json",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["dapi_below_droop"] is True
        assert len(payload["per_mode"]) == 7
        assert abs(payload["droop"]["closed_form"] - 3.5) < 1e-12
        spread = max(payload["droop"].values()) - min(payload["droop"].values())
        assert spread < 1e-9

    @pytest.mark.parametrize("argv", [
        ["analyze", "--line", "3", "--alpha", "-0"],
        ["scaling", "--n-grid", "2:3:1", "--seeds", "1", "--alpha", "-0"],
        ["sweep", "--line", "3", "--gamma", "-0", "--param", "k", "--grid", "1:2:1"],
    ], ids=["analyze", "scaling", "sweep"])
    def test_negative_zero_is_read_as_zero(self, argv, tmp_path, capsys):
        # -0.0 flags are 0.0: no -0 in the report, the file or the sidecar
        out = tmp_path / "r.json"
        assert main([*argv, "--format", "json", "--out", str(out)]) == 0
        if argv[0] == "analyze":
            assert main(argv) == 0
            assert not re.search(r"(?<![\w.])-0(?![\w.])", capsys.readouterr().out)

        def numbers(node):
            if isinstance(node, dict):
                node = list(node.values())
            if isinstance(node, list):
                return [x for item in node for x in numbers(item)]
            return [node] if isinstance(node, float) else []

        values = [v for path in (out, Path(f"{out}.meta.json")) for v in numbers(json.loads(path.read_text()))]
        assert 0.0 in values
        assert all(math.copysign(1.0, v) > 0 for v in values if v == 0.0)

    def test_route_spread_beyond_the_contract_warns(self, tmp_path, capsys):
        # the full Gramian of this stiff DAPI loop is off the closed form and
        # the modal route by about 1e-6: the report, the file and the exit
        # code stay as they are, and stderr names the contract and the spread
        argv = ["analyze", "--random", "60,0.1", "--seed", "5", "--m", "0.01", "--tau", "1e-3",
                "--k", "100", "--gamma", "1e-3"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        spread = re.search(r"max relative deviation across methods: (\S+)", captured.out).group(1)
        assert float(spread) > 1e-7
        assert captured.err == (f"warning: the three dapi norm routes spread {spread} (relative), "
                                "beyond their 1e-07 agreement contract\n")
        out = tmp_path / "r.json"
        assert main([*argv, "--format", "json", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith("warning: the three dapi norm routes spread ")
        assert "warning" not in captured.out
        assert json.loads(out.read_text())["max_rel_deviation"] > 1e-7

    def test_agreeing_routes_print_nothing_on_stderr(self, capsys):
        assert main(["analyze", "--random", "30,0.2", "--seed", "2"]) == 0
        assert capsys.readouterr().err == ""

    def test_alpha_overrides_the_file_header(self, tmp_path, capsys):
        # ieee57.edges declares alpha 1.0; droop is alpha (N - 1) / (2 m)
        out = tmp_path / "r.json"
        assert main(["analyze", "--file", str(IEEE57), "--alpha", "2", "--format", "json",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["network"]["alpha"] == 2.0
        assert payload["droop"]["closed_form"] == 56.0
        sidecar = json.loads((tmp_path / "r.json.meta.json").read_text())
        assert sidecar["inputs"]["network"]["alpha"] == 2.0

    def test_alpha_scales_report(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["analyze", "--line", "6", "--alpha", "2.5", "--format", "json",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert abs(payload["droop"]["closed_form"] - 2.5 * 2.5) < 1e-12


class TestTune:
    def test_complete_graph_matches_formula(self, tmp_path, capsys):
        out = tmp_path / "tune.csv"
        assert main(["tune", "--complete", "50", "--out", str(out)]) == 0
        capsys.readouterr()
        _, header, rows = _read_rows(out)
        record = dict(zip(header, rows[0]))
        expected = (np.sqrt(50.0) - 1.0) / 50.0
        assert abs(float(record["gamma_star"]) - expected) < 1e-8
        assert abs(float(record["gamma_star_closed_form"]) - expected) < 1e-12
        assert float(record["loss_reduction"]) > 0.0

    def test_line_graph_leaves_formula_blank(self, tmp_path, capsys):
        out = tmp_path / "tune.csv"
        assert main(["tune", "--line", "10", "--out", str(out)]) == 0
        capsys.readouterr()
        _, header, rows = _read_rows(out)
        record = dict(zip(header, rows[0]))
        assert record["gamma_star_closed_form"] == ""
        assert float(record["norm_at_star"]) < float(record["droop_norm"])

    def test_json_format(self, tmp_path, capsys):
        out = tmp_path / "tune.json"
        assert main(["tune", "--complete", "12", "--format", "json",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert abs(payload["gamma_star"] - payload["gamma_star_closed_form"]) < 1e-8
        assert payload["bracket"][0] <= payload["gamma_star"] <= payload["bracket"][1]

    @pytest.mark.parametrize("k", ["1e-12", "1e-9", "3.2e6"])
    def test_reports_the_closed_form_optimum_at_extreme_k(self, k, tmp_path, capsys):
        # an optimum far below 1e-10 is bisected relative to its size, and
        # one between 2**19 and the cap 1e6 is bracketed by the cap itself
        out = tmp_path / "tune.json"
        assert main(["tune", "--complete", "20", "--k", k, "--format", "json", "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["gamma_star"] == pytest.approx(payload["gamma_star_closed_form"], rel=1e-7)

    def test_loss_reduction_matches_sweep_bit_for_bit(self, tmp_path, capsys):
        # both commands divide by the same droop norm; N=6, m=1.5 is a case
        # where alpha (N-1) / (2m) and a sum of N-1 mode terms differ in the
        # last bit
        network = ["--complete", "6", "--m", "1.5", "--k", "1"]
        tuned, swept = tmp_path / "tune.json", tmp_path / "k.json"
        assert main(["tune", *network, "--format", "json", "--out", str(tuned)]) == 0
        assert main(["sweep", *network, "--param", "k", "--grid", "1:1:1", "--at-optimal-gamma",
                     "--format", "json", "--out", str(swept)]) == 0
        capsys.readouterr()
        reduction = json.loads(tuned.read_text())["loss_reduction"]
        assert json.loads(swept.read_text())["loss_reduction"] == [reduction]


class TestSweep:
    def test_gamma_sweep_rows(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--line", "10", "--param", "gamma",
                     "--grid", "0:1:0.1", "--out", str(out)]) == 0
        capsys.readouterr()
        _, header, rows = _read_rows(out)
        assert header == ["gamma", "dapi", "droop"]
        assert len(rows) == 11
        droop_column = {row[2] for row in rows}
        assert droop_column == {"4.5"}

    def test_m_sweep_moves_droop_column(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--line", "10", "--param", "m",
                     "--grid", "0.5:2:0.5", "--out", str(out)]) == 0
        capsys.readouterr()
        _, _, rows = _read_rows(out)
        assert abs(float(rows[0][2]) - 9.0 / 2.0 / 0.5) < 1e-12
        assert abs(float(rows[-1][2]) - 9.0 / 2.0 / 2.0) < 1e-12

    def test_at_optimal_gamma_columns(self, tmp_path, capsys):
        out = tmp_path / "k.csv"
        assert main(["sweep", "--complete", "10", "--param", "k",
                     "--grid", "0.5:2:0.5", "--at-optimal-gamma",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        _, header, rows = _read_rows(out)
        assert header == ["k", "loss_reduction", "gamma_star"]
        reductions = [float(row[1]) for row in rows]
        assert all(a > b for a, b in zip(reductions, reductions[1:]))

    def test_at_optimal_gamma_rows_are_per_k_searches(self, tmp_path, capsys):
        out = tmp_path / "k.json"
        assert main(["sweep", "--random", "30,0.2", "--seed", "4", "--m", "1.5", "--tau", "0.8",
                     "--param", "k", "--grid", "0.25:4:0.25", "--at-optimal-gamma",
                     "--format", "json", "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        graph = build_random_connected_graph(30, 0.2, (0.5, 1.5), 1.0, seed=4)
        spectrum = laplacian_eigenvalues(graph)
        droop = 1.0 * (30 - 1) / (2.0 * 1.5)
        assert len(payload["grid"]) == 16
        for k, reduction, gain in zip(payload["grid"], payload["loss_reduction"], payload["gamma_star"]):
            res = optimal_gamma(spectrum, ControllerParams(m=1.5, tau=0.8, k=k), 1.0)
            assert gain == res.gamma_star
            assert reduction == 1.0 - res.norm_at_star / droop

    def test_zero_alpha_at_optimal_gamma_reduces_nothing(self, tmp_path, capsys):
        # a lossless network: the droop loss is 0, and so is every reduction,
        # as tune reports it
        network = ["--complete", "5", "--alpha", "0"]
        swept, tuned = tmp_path / "k.json", tmp_path / "tune.json"
        assert main(["sweep", *network, "--param", "k", "--grid", "0.5:1:0.5", "--at-optimal-gamma",
                     "--format", "json", "--out", str(swept)]) == 0
        assert main(["tune", *network, "--k", "0.5", "--format", "json", "--out", str(tuned)]) == 0
        capsys.readouterr()
        reduction = json.loads(tuned.read_text())["loss_reduction"]
        assert json.loads(swept.read_text())["loss_reduction"] == [0.0, 0.0] == [reduction] * 2

    def test_invalid_grid_point_exits_two(self, tmp_path, capsys):
        code = main(["sweep", "--line", "5", "--param", "m",
                     "--grid", "0:1:0.5", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "grid point" in capsys.readouterr().err


class TestSimulate:
    def test_csv_trajectory(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--line", "4", "--dt", "0.01", "--horizon", "5",
                     "--stride", "50", "--out", str(out)]) == 0
        message = capsys.readouterr().out
        assert "integrated loss" in message
        _, header, rows = _read_rows(out)
        assert header[:2] == ["t", "loss"]
        assert "Omega_4" in header
        assert len(rows) == 11  # 501 samples, every 50th

    def test_droop_has_no_integrator_columns(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--line", "4", "--controller", "droop",
                     "--dt", "0.01", "--horizon", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        _, header, _ = _read_rows(out)
        assert header[-1] == "omega_4"

    def test_json_summary(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        assert main(["simulate", "--complete", "3", "--dt", "0.005",
                     "--horizon", "60", "--burn-in", "10", "--seed", "3",
                     "--format", "json", "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["integrated_loss"] > 0.0
        assert payload["stderr"] > 0.0
        assert payload["empirical_squared_norm"] == pytest.approx(15.0 / 19.0, rel=0.5)

    def test_too_few_samples_give_no_estimate(self, tmp_path, capsys):
        # 101 samples, 2 after the burn-in: too few for the estimator, so
        # the summary has no estimate and the message names none
        out = tmp_path / "sim.json"
        assert main(["simulate", "--line", "3", "--horizon", "1", "--dt", "0.01", "--burn-in", "0.99",
                     "--format", "json", "--out", str(out)]) == 0
        assert "empirical" not in capsys.readouterr().out
        assert sorted(json.loads(out.read_text())) == ["final_loss", "integrated_loss", "samples"]

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_outputs_get_the_umask_mode(self, umask, tmp_path, capsys):
        # the atomic writer's temp file is created 0o600; the outputs get
        # what a plain open() would give them
        out = tmp_path / "p.csv"
        previous = os.umask(umask)
        try:
            assert main(["simulate", "--line", "3", "--horizon", "1", "--out", str(out)]) == 0
        finally:
            os.umask(previous)
        capsys.readouterr()
        for path in (out, tmp_path / "p.csv.meta.json"):
            assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask

    def test_negative_zero_flags_are_recorded_as_zero(self, tmp_path, capsys):
        # the sidecar records the checked values, so -0 reads as 0.0
        out = tmp_path / "s.csv"
        assert main(["simulate", "--line", "3", "--horizon", "1", "--burn-in", "-0", "--noise", "-0",
                     "--init-perturb", "-0", "--out", str(out)]) == 0
        capsys.readouterr()
        inputs = json.loads((tmp_path / "s.csv.meta.json").read_text())["inputs"]
        for name in ("burn_in", "noise_intensity", "init_perturb"):
            assert inputs[name] == 0.0 and math.copysign(1.0, inputs[name]) == 1.0, name
        assert (inputs["dt"], inputs["horizon"]) == (0.005, 1.0)

    def test_deterministic_decay_run(self, tmp_path, capsys):
        out = tmp_path / "decay.json"
        assert main(["simulate", "--line", "6", "--noise", "0",
                     "--init-perturb", "0.1", "--dt", "0.01", "--horizon", "40",
                     "--format", "json", "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["final_loss"] < payload["integrated_loss"]
        assert "empirical_squared_norm" not in payload

    def test_init_perturb_draws_apart_from_the_noise(self, tmp_path, capsys):
        # The noise draws from default_rng(seed). The initial phases are not
        # its first normals, and the noise is the same with and without a
        # perturbation: the loop is linear, so a perturbed run is the plain
        # run plus the noiseless decay of the perturbation.
        def states(*flags):
            out = tmp_path / "p.csv"
            assert main(["simulate", "--line", "4", "--seed", "7", "--dt", "0.01", "--horizon", "1",
                         *flags, "--out", str(out)]) == 0
            return np.array([[float(v) for v in row[2:]] for row in _read_rows(out)[2]])

        perturbed = states("--init-perturb", "0.3")
        capsys.readouterr()
        theta0 = perturbed[0, :4]
        z = np.random.default_rng(7).standard_normal(4)
        assert np.all(theta0 != 0) and abs(theta0.sum()) < 1e-11
        assert not np.allclose(theta0, 0.3 * (z - z.mean()), rtol=1e-6, atol=0)
        decay = states("--init-perturb", "0.3", "--noise", "0")
        assert np.array_equal(decay[0], perturbed[0])
        assert np.allclose(perturbed, states() + decay, rtol=0, atol=1e-9)
        capsys.readouterr()


class TestScaling:
    def test_ordering_across_sizes(self, tmp_path, capsys):
        out = tmp_path / "scaling.csv"
        assert main(["scaling", "--n-grid", "10:20:10", "--seeds", "2",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        _, header, rows = _read_rows(out)
        assert header == ["N", "droop", "dapi_complete", "dapi_line"]
        assert len(rows) == 2
        for row in rows:
            n, droop, comp, line = (float(v) for v in row)
            assert line < comp < droop
            assert droop == (n - 1) / 2.0

    def test_rows_equal_hand_built_graphs(self, tmp_path, capsys):
        out = tmp_path / "scaling.json"
        assert main(["scaling", "--n-grid", "3:6:1", "--seeds", "3", "--seed", "5",
                     "--format", "json", "--out", str(out)]) == 0
        capsys.readouterr()
        params = ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=1.0)  # CLI defaults
        expected = []
        for n in (3, 4, 5, 6):
            line_norms, complete_norms = [], []
            for draw in range(3):
                rng = np.random.default_rng((5, draw, n))
                line = build_line_graph(n, rng.uniform(0.5, 1.5, n - 1), 1.0)
                pairs = list(itertools.combinations(range(n), 2))
                weights = rng.uniform(0.5, 1.5, len(pairs))
                complete = NetworkGraph(n, tuple((i, j, float(w)) for (i, j), w in zip(pairs, weights)), 1.0)
                for graph, bucket in ((line, line_norms), (complete, complete_norms)):
                    spectrum = spectral_decomposition(graph)[0]
                    bucket.append(h2_dapi_closed_form(1.0, params, spectrum).squared_norm)
            droop = h2_droop_closed_form(1.0, params, n).squared_norm
            expected.append([float(n), droop, float(np.mean(complete_norms)), float(np.mean(line_norms))])
        assert json.loads(out.read_text())["rows"] == expected

    def test_rejects_tiny_sizes(self, tmp_path, capsys):
        code = main(["scaling", "--n-grid", "1:3:1", "--seeds", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        capsys.readouterr()


class TestDesignPath:
    def test_only_analyze_loads_scipy_and_only_its_lapack_extension(self, tmp_path):
        # importing scipy.linalg about doubles the start-up time and memory of
        # a command; the full Gramian of analyze needs only two LAPACK kernels,
        # numpy's own where its build exports them (no scipy module at all),
        # else scipy's wrappers from scipy.linalg.lapack, and the other
        # commands no scipy
        target = str(tmp_path / "out")
        code = (
            "import sys\n"
            "from gridloss import h2\n"
            "from gridloss.cli import main\n"
            "if sys.argv[1] == 'scipy':\n"
            "    h2._numpy_kernels = lambda: None\n"
            "def scipy_loaded():\n"
            "    return any(name.split('.')[0] == 'scipy' for name in sys.modules)\n"
            "for argv in (['tune', '--random', '50,0.1'],\n"
            "             ['sweep', '--random', '50,0.1', '--param', 'k', '--grid', '0.5:2:0.5', '--at-optimal-gamma'],\n"
            "             ['scaling', '--n-grid', '3:5:1', '--seeds', '2'],\n"
            "             ['simulate', '--line', '4', '--horizon', '1'],\n"
            "             ['simulate', '--line', '4', '--horizon', '1', '--format', 'json']):\n"
            f"    assert main([*argv, '--out', {target!r}]) == 0\n"
            "    assert not scipy_loaded(), argv\n"
            f"assert main(['analyze', '--line', '4', '--out', {target!r}]) == 0\n"
            "print(h2._kernels().origin)\n"
            "print(scipy_loaded(), 'scipy.linalg.lapack' in sys.modules)\n"
        )
        runs = {lookup: tuple(run_child(code, lookup).stdout.splitlines()[-2:]) for lookup in ("numpy", "scipy")}
        # with the lookup forced off, scipy's LAPACK wrappers module
        assert runs["scipy"] == ("scipy", "True True")
        origin = runs["numpy"][0]
        assert runs["numpy"] == (origin, "False False" if origin == "numpy" else "True True")


class TestFreedMemory:
    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads the resident set from /proc")
    def test_a_command_leaves_no_free_heap_pages_resident(self, tmp_path):
        # once glibc has raised its mmap threshold (here by freeing a 16 MB
        # block), a command's arrays come from the heap; freed, they would
        # stay resident until main trims the heap
        if gridloss.cli._malloc_trim() is None:
            pytest.skip("no malloc_trim in this C library")
        target = str(tmp_path / "path.csv")
        code = (
            "import os\n"
            "import numpy as np\n"
            "from gridloss.cli import main\n"
            "def resident_mb():\n"
            "    with open('/proc/self/statm') as fh:\n"
            "        return int(fh.read().split()[1]) * os.sysconf('SC_PAGE_SIZE') / 2**20\n"
            f"assert main(['simulate', '--line', '3', '--horizon', '1', '--out', {target!r}]) == 0\n"
            "np.ones(2**21)\n"
            "before = resident_mb()\n"
            f"assert main(['simulate', '--line', '20', '--horizon', '50', '--out', {target!r}]) == 0\n"
            "print(resident_mb() - before)\n"
        )
        # the 10001 x 60 state array alone is 4.8 MB
        assert float(run_child(code).stdout.splitlines()[-1]) < 1.5


class TestReadme:
    def test_cli_examples_parse(self):
        # a renamed or removed flag would leave the README's examples stale
        commands, in_sh = [], False
        for line in README.read_text().splitlines():
            if line.startswith("```"):
                in_sh = line.strip() == "```sh"
            elif in_sh and line.startswith("gridloss "):
                commands.append(shlex.split(line, comments=True)[1:])
        assert len(commands) >= 7
        parser = _build_parser()
        for argv in commands:
            assert parser.parse_args(argv).command == argv[0]

    def test_library_example_runs(self, capsys):
        # a stale call or a removed name in the README's example fails here;
        # the simulation is shortened 100-fold to keep the test fast
        (code,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
        long_run = "horizon=2000.0, burn_in=200.0"
        assert code.count(long_run) == 1
        exec(compile(code.replace(long_run, "horizon=20.0, burn_in=2.0"), str(README), "exec"), {})
        loss, empirical = capsys.readouterr().out.splitlines()
        assert loss.startswith("loss ") and empirical.startswith("empirical ")


def _g(value) -> str:
    return "%.12g" % value


class TestFormatsAgree:
    """CSV and JSON outputs of one run carry the same values, the CSV each
    as ``'%.12g'`` of the JSON's number, and sidecars that differ only in
    ``output``."""

    COMMANDS = {
        "analyze": ["analyze", "--random", "12,0.4", "--seed", "2", "--m", "0.8"],
        "tune": ["tune", "--complete", "6", "--tau", "2"],
        "tune-line": ["tune", "--line", "6", "--tau", "2"],
        "sweep": ["sweep", "--random", "10,0.4", "--seed", "1", "--param", "m", "--grid", "0.5:2:0.5"],
        "sweep-at-optimal-gamma": ["sweep", "--complete", "6", "--param", "k", "--grid", "0.5:2:0.5",
                                   "--at-optimal-gamma"],
        "scaling": ["scaling", "--n-grid", "2:6:2", "--seeds", "2", "--seed", "3"],
        "simulate": ["simulate", "--line", "3", "--dt", "0.01", "--horizon", "2", "--burn-in", "0.5"],
    }

    @pytest.fixture(params=sorted(COMMANDS))
    def outputs(self, request, tmp_path, capsys):
        argv = self.COMMANDS[request.param]
        paths = {}
        for fmt in ("csv", "json"):
            paths[fmt] = tmp_path / f"out.{fmt}"
            assert main([*argv, "--format", fmt, "--out", str(paths[fmt])]) == 0
        capsys.readouterr()
        return argv[0], json.loads(paths["json"].read_text()), _read_rows(paths["csv"]), paths

    def test_sidecars_differ_only_in_output(self, outputs):
        _, _, _, paths = outputs
        metas = {fmt: json.loads(Path(f"{path}.meta.json").read_text()) for fmt, path in paths.items()}
        for fmt, meta in metas.items():
            assert meta.pop("output") == {"path": str(paths[fmt]), "format": fmt}
        assert metas["csv"] == metas["json"]

    def test_csv_holds_the_json_values(self, outputs):
        command, payload, (comments, header, rows), _ = outputs
        if command == "analyze":
            assert comments[0] == "command: analyze"
            assert dict(comment.split(" = ") for comment in comments[1:]) == {
                **{f"{kind}_{route}": _g(norm) for kind in ("droop", "dapi")
                   for route, norm in payload[kind].items()},
                "max_rel_deviation": f"{payload['max_rel_deviation']:.3e}",
                "dapi_below_droop": str(payload["dapi_below_droop"]).lower(),
                "loss_reduction": _g(payload["loss_reduction"]),
            }
            assert header == ["mode", "eigenvalue", "droop", "dapi"]
            assert rows == [[str(mode["mode"]), _g(mode["eigenvalue"]), _g(mode["droop"]), _g(mode["dapi"])]
                            for mode in payload["per_mode"]]
        elif command == "tune":
            scalars = ["gamma_star", "norm_at_star", "droop_norm", "loss_reduction"]
            closed = payload["gamma_star_closed_form"]
            assert header == [*scalars, "iterations", "bracket_lo", "bracket_hi", "gamma_star_closed_form"]
            assert rows == [[*(_g(payload[name]) for name in scalars), str(payload["iterations"]),
                             *map(_g, payload["bracket"]), "" if closed is None else _g(closed)]]
        elif command == "sweep":
            assert header[0] == payload["parameter"]
            columns = [payload["grid"], *(payload[name] for name in header[1:])]
            assert rows == [list(map(_g, row)) for row in zip(*columns)]
            assert sorted(payload) == sorted(["parameter", "grid", *header[1:]])
        elif command == "scaling":
            assert header == payload["columns"]
            assert rows == [list(map(_g, row)) for row in payload["rows"]]
        else:
            assert len(rows) == payload["samples"]
            assert rows[-1][1] == _g(payload["final_loss"])
        assert comments == [] or command == "analyze"


class TestReproducibility:
    """Reruns with identical arguments produce byte-identical files."""

    def test_simulate_rerun_identical(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        argv = ["simulate", "--random", "6,0.5", "--seed", "7", "--dt", "0.01",
                "--horizon", "5", "--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        first_meta = (tmp_path / "traj.csv.meta.json").read_bytes()
        assert main(argv) == 0
        capsys.readouterr()
        assert out.read_bytes() == first
        assert (tmp_path / "traj.csv.meta.json").read_bytes() == first_meta

    def test_metadata_records_resolved_inputs(self, tmp_path, capsys):
        out = tmp_path / "tune.csv"
        assert main(["tune", "--random", "8,0.4", "--seed", "11", "--tau", "2",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        meta = json.loads((tmp_path / "tune.csv.meta.json").read_text())
        assert meta["tool"] == "gridloss"
        assert meta["command"] == "tune"
        assert meta["inputs"]["network"]["topology"] == "random"
        assert meta["inputs"]["network"]["seed"] == 11
        assert meta["inputs"]["params"]["tau"] == 2.0
        assert "gamma" not in meta["inputs"]["params"]

    def test_packaged_topology_through_cli(self, capsys):
        from importlib import resources

        path = resources.files("gridloss.data") / "ieee57.edges"
        assert main(["analyze", "--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "57 nodes" in out
        assert "78 edges" in out
