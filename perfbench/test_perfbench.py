"""Tests of the benchmark itself, on tiny instances of the three workloads."""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import worker
from tracer import Tracer, self_times
from workloads import Analyze, Design, Trajectory, op_seeds

HERE = Path(__file__).resolve().parent
TINY = {
    "analyze": Analyze(n=12, p=0.4),
    "design": Design(n=30, p=0.3, grid="0.5:2:0.5"),
    "trajectory": Trajectory(n=4, horizon=2.0),
}
SEEDS = [3, 4]


@pytest.fixture(scope="module")
def cli():
    return worker.load_cli()


@pytest.fixture
def ops(tmp_path):
    """An empty op directory inside tmp_path; measure() writes traces beside it."""
    path = tmp_path / "ops"
    path.mkdir()
    return path


def _gridloss_functions() -> dict:
    return {(mod.__name__, attr): obj
            for name, mod in sorted(sys.modules.items())
            if name == "gridloss" or name.startswith("gridloss.")
            for attr, obj in vars(mod).items() if inspect.isfunction(obj)}


def test_op_seeds_are_reproducible_and_distinct():
    seeds = op_seeds("analyze", 7, 50)
    assert seeds == op_seeds("analyze", 7, 50)
    assert len(set(seeds)) == 50
    assert seeds != op_seeds("analyze", 8, 50)
    assert seeds != op_seeds("design", 7, 50)


@pytest.mark.parametrize("name", sorted(TINY))
def test_each_workload_completes_at_a_tiny_size(cli, name, ops, tmp_path):
    workload = TINY[name]
    untimed = worker.measure(cli, workload, SEEDS, ops, trace=False)
    assert (untimed["attempted"], untimed["failed"]) == (2, 0), untimed["errors"]
    assert [m["name"] for m in worker.METRICS["end_to_end"]] == ["setup_s", *untimed["metrics"]]
    assert all(v["value"] > 0 for v in untimed["metrics"].values())

    traced = worker.measure(cli, workload, SEEDS, ops, trace=True)
    assert (traced["attempted"], traced["failed"]) == (4, 0), traced["errors"]
    assert [m["name"] for m in worker.METRICS["per_layer"]] == list(traced["metrics"])
    assert (tmp_path / f"trace-{name}.tsv").is_file()


def _skew_a_route(out: Path) -> None:
    report = json.loads(out.read_text())
    report["dapi"]["full_gramian"] *= 1.0 + 1e-6
    out.write_text(json.dumps(report))


def _move_gamma_star(out: Path) -> None:
    report = json.loads(out.read_text())
    report["gamma_star"] = [g * 1.05 for g in report["gamma_star"]]
    out.write_text(json.dumps(report))


def _csv_edit(change):
    """A corruption that applies ``change`` to the CSV's numbers and writes
    them back as the CLI does."""
    def corrupt(out: Path) -> None:
        header = out.read_text().splitlines()[0]
        data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        change(data)
        np.savetxt(out, data, fmt="%.12g", delimiter=",", header=header, comments="")
    return corrupt


def _wrong_loss(data):
    data[-1, 1] *= 1.01


def _nan_state(data):
    data[5, 3] = np.nan


def _rest_state(data):
    data[:, 1:] = 0.0  # a simulator that drops the noise term stays at rest


@pytest.mark.parametrize("workload, corrupt, message", [
    (TINY["analyze"], _skew_a_route, "disagree"),
    (TINY["design"], _move_gamma_star, "k="),
    (TINY["trajectory"], _csv_edit(_wrong_loss), "theta' L_G theta"),
    (TINY["trajectory"], _csv_edit(_nan_state), "not finite"),
    # only a full-length run is compared with the closed form
    (Trajectory(), _csv_edit(_rest_state), "closed form"),
], ids=["analyze-routes", "design-gamma", "trajectory-loss", "trajectory-nan", "trajectory-mean"])
def test_checks_reject_wrong_outputs(cli, workload, corrupt, message, tmp_path):
    out = tmp_path / f"output{workload.suffix}"
    argv = workload.argv(SEEDS[0], out)  # seed 3: design also checks the spectrum
    assert cli.main(argv) == 0
    assert workload.check(argv, out) is None
    corrupt(out)
    assert message in workload.check(argv, out)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_runs_write_identical_outputs(cli, name, tmp_path):
    workload = TINY[name]
    plain = worker.run_list(cli, workload, SEEDS, tmp_path, check=False)
    with Tracer() as tracer:
        traced = worker.run_list(cli, workload, SEEDS, tmp_path, check=False, tracer=tracer)
    assert all(r["digest"] is not None for r in plain + traced)
    assert [r["digest"] for r in plain] == [r["digest"] for r in traced]


def test_tracer_wraps_every_layer_and_removes_every_wrapper(cli, tmp_path):
    before = _gridloss_functions()
    post_init = sys.modules["gridloss.network"].NetworkGraph.__post_init__
    with Tracer() as tracer:
        during = _gridloss_functions()
        worker.run_list(cli, TINY["analyze"], SEEDS[:1], tmp_path, check=False, tracer=tracer)
    # every layer's public functions, in every module that imported them
    for key in (("gridloss.cli", "main"), ("gridloss.h2", "check_stability"),
                ("gridloss.dynamics", "spectral_decomposition"), ("gridloss", "h2_full_gramian"),
                ("gridloss.tuning", "h2_dapi_closed_form"), ("gridloss.sim", "simulate")):
        assert getattr(during[key], "__perfbench_traced__", False), key
    assert not hasattr(during[("gridloss.cli", "_parse_grid")], "__perfbench_traced__")
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "network.NetworkGraph", "h2.solve_lyapunov", "dynamics.assemble_dapi"} <= names
    after = _gridloss_functions()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert sys.modules["gridloss.network"].NetworkGraph.__post_init__ is post_init


@pytest.mark.parametrize("name", ["analyze", "design"])
def test_self_times_sum_to_the_traced_op_wall_time(cli, name, tmp_path):
    # The root span is cli.main; its self time plus every other span's self
    # time equals its duration, which may fall short of the op's wall time
    # only by the root wrapper's own entry and exit: 1% plus 1 ms.
    with Tracer() as tracer:
        records = worker.run_list(cli, TINY[name], SEEDS, tmp_path, check=False, tracer=tracer)
    selfs = self_times(tracer.spans)
    assert all(s >= -1e-9 for s in selfs)
    for record in records:
        first, last = record["spans"]
        roots = [span for span in tracer.spans[first:last] if span[1] < 0]
        assert [span[0] for span in roots] == ["cli.main"]
        total = sum(selfs[first:last])
        assert total <= record["seconds"] + 1e-9
        assert record["seconds"] - total <= 0.01 * record["seconds"] + 1e-3


def test_per_layer_metrics_count_the_known_repeats(cli, ops):
    metrics = worker.measure(cli, TINY["design"], SEEDS, ops, trace=True)["metrics"]
    # sweep --at-optimal-gamma optimises each k twice
    assert metrics["tuning.optimal_gamma.calls"]["value"] == 8
    assert metrics["tuning.optimal_gamma.useful_ratio"]["value"] == 0.5
    assert 0 < metrics["tuning.norm_gamma_derivative.useful_ratio"]["value"] < 1
    metrics = worker.measure(cli, TINY["trajectory"], SEEDS, ops, trace=True)["metrics"]
    steps = 400
    assert metrics["sim.simulate.state_bytes"]["value"] == 8 * (steps + 1) * (2 + 3 * 4)
    assert metrics["sim.export_trajectory.bytes"]["value"] > 0


def test_run_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
