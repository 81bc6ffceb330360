"""End-to-end checks for the command-line interface.

Every test drives ``gridloss.cli.main`` in process and inspects exit
codes, stdout, and the files it writes.
"""

import itertools
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gridloss.network
from gridloss.cli import _build_parser, _parse_grid, main
from gridloss.dynamics import ControllerParams
from gridloss.errors import ValidationError
from gridloss.h2 import h2_dapi_closed_form, h2_droop_closed_form
from gridloss.network import (
    Laplacian,
    NetworkGraph,
    build_line_graph,
    build_random_connected_graph,
    laplacian_eigenvalues,
    laplacians,
    spectral_decomposition,
)
from gridloss.tuning import optimal_gamma

IEEE57 = Path(gridloss.network.__file__).parent / "data" / "ieee57.edges"
README = Path(__file__).resolve().parents[1] / "README.md"


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


class TestComputationErrors:
    def test_missing_edge_file_exits_one(self, capsys):
        assert main(["analyze", "--file", "/no/such/file.edges"]) == 1
        capsys.readouterr()

    def test_dapi_without_communication_exits_one(self, capsys):
        # gamma=0 leaves a marginal mode, so no finite norm by modal route
        code = main(["analyze", "--line", "10", "--gamma", "0"])
        assert code == 1
        assert "stable" in capsys.readouterr().err

    def test_coarse_step_on_stiff_system_exits_one(self, tmp_path, capsys):
        code = main(["simulate", "--line", "5", "--controller", "droop",
                     "--tau", "0.01", "--dt", "0.05", "--horizon", "10",
                     "--out", str(tmp_path / "t.csv")])
        assert code == 1
        assert "dt <" in capsys.readouterr().err


class TestWeakTie:
    """Two 5-cliques joined by one line of susceptance 1e-10: connected, with
    lambda_2 of about 4e-11, below the eigenvalue threshold for zero."""

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


class TestLaplacianBuilds:
    """``analyze`` builds L_B for its spectrum and L_B and L_G in each of its
    two assemblies; ``simulate`` builds L_B and L_G once."""

    @pytest.fixture
    def builds(self, monkeypatch):
        count = [0]
        real = Laplacian.__post_init__

        def counted(laplacian):
            count[0] += 1
            real(laplacian)

        monkeypatch.setattr(Laplacian, "__post_init__", counted)
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
        spectrum = laplacian_eigenvalues(laplacians(graph, 0.0)[0])
        droop = 1.0 * (30 - 1) / (2.0 * 1.5)
        assert len(payload["grid"]) == 16
        for k, reduction, gain in zip(payload["grid"], payload["loss_reduction"], payload["gamma_star"]):
            res = optimal_gamma(spectrum, ControllerParams(m=1.5, tau=0.8, k=k), 1.0)
            assert gain == res.gamma_star
            assert reduction == 1.0 - res.norm_at_star / droop

    def test_zero_alpha_at_optimal_gamma_names_alpha(self, tmp_path, capsys):
        code = main(["sweep", "--complete", "5", "--alpha", "0", "--param", "k",
                     "--grid", "0.5:1:0.5", "--at-optimal-gamma", "--out", str(tmp_path / "k.csv")])
        assert code == 2
        assert "alpha" in capsys.readouterr().err

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

    def test_deterministic_decay_run(self, tmp_path, capsys):
        out = tmp_path / "decay.json"
        assert main(["simulate", "--line", "6", "--noise", "0",
                     "--init-perturb", "0.1", "--dt", "0.01", "--horizon", "40",
                     "--format", "json", "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["final_loss"] < payload["integrated_loss"]
        assert "empirical_squared_norm" not in payload


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
                    spectrum = spectral_decomposition(laplacians(graph, params.gamma)[0])
                    bucket.append(h2_dapi_closed_form(1.0, params, spectrum).squared_norm)
            droop = h2_droop_closed_form(1.0, params.m, n).squared_norm
            expected.append([float(n), droop, float(np.mean(complete_norms)), float(np.mean(line_norms))])
        assert json.loads(out.read_text())["rows"] == expected

    def test_rejects_tiny_sizes(self, tmp_path, capsys):
        code = main(["scaling", "--n-grid", "1:3:1", "--seeds", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        capsys.readouterr()


class TestDesignPath:
    def test_does_not_import_scipy_sparse(self, tmp_path):
        # importing scipy.linalg about doubles the start-up time and memory of
        # a command; only the Gramian routes of analyze need it
        target = str(tmp_path / "out")
        code = (
            "import sys\n"
            "from gridloss.cli import main\n"
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
            "print('scipy.linalg' in sys.modules)\n"
        )
        src = str(Path(__import__("gridloss").__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "True"


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
