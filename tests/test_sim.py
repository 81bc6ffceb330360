"""Euler-Maruyama simulation and empirical loss estimation tests."""

import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridloss.dynamics import ControllerParams, StateSpace, assemble_dapi, assemble_droop
from gridloss.errors import StabilityError, StepSizeError, ValidationError
from gridloss.h2 import h2_dapi_closed_form
from gridloss.network import (
    build_complete_graph,
    build_line_graph,
    build_random_connected_graph,
    laplacians,
    spectral_decomposition,
)
from gridloss.sim import (
    SimConfig,
    Trajectory,
    empirical_h2,
    export_trajectory,
    instantaneous_loss,
    integrated_loss,
    phase_perturbation,
    simulate,
)


class TestSimConfig:
    def test_valid(self):
        cfg = SimConfig(dt=0.01, horizon=10.0, burn_in=1.0, noise_intensity=2.0, seed=3)
        assert cfg.dt == 0.01 and cfg.seed == 3

    def test_invalid_values(self):
        with pytest.raises(ValidationError):
            SimConfig(dt=0.0, horizon=10.0)
        with pytest.raises(ValidationError):
            SimConfig(dt=0.01, horizon=0.0)
        with pytest.raises(ValidationError):
            SimConfig(dt=0.01, horizon=10.0, burn_in=10.0)
        with pytest.raises(ValidationError):
            SimConfig(dt=0.01, horizon=10.0, noise_intensity=-1.0)
        with pytest.raises(ValidationError):
            SimConfig(dt=0.5, horizon=10.0)  # fewer than 100 steps
        with pytest.raises(ValidationError):
            SimConfig(dt=0.01, horizon=10.0, seed=1.5)

    def test_hundred_steps_boundary_allowed(self):
        SimConfig(dt=0.1, horizon=10.0)


class TestInstantaneousLoss:
    def test_uniform_phase_dissipates_nothing(self):
        g = build_complete_graph(4, b=1.0, alpha=1.0)
        _, lg, _ = laplacians(g, 1.0)
        assert instantaneous_loss(np.full(4, 3.7), lg) == 0.0

    def test_matches_edgewise_sum(self):
        # oracle: loss = sum over edges of g_ij (theta_i - theta_j)^2
        g = build_line_graph(5, [1.0, 2.0, 0.5, 1.5], alpha=0.8)
        _, lg, _ = laplacians(g, 1.0)
        rng = np.random.default_rng(2)
        for _ in range(10):
            theta = rng.standard_normal(5)
            by_edges = sum(0.8 * b * (theta[i] - theta[j]) ** 2 for i, j, b in g.edges)
            assert instantaneous_loss(theta, lg) == pytest.approx(by_edges, rel=1e-12)

    def test_dimension_mismatch(self):
        g = build_line_graph(3, [1.0, 1.0], alpha=1.0)
        _, lg, _ = laplacians(g, 1.0)
        with pytest.raises(ValidationError):
            instantaneous_loss(np.zeros(4), lg)


class TestSimulate:
    def _droop(self, n=3):
        g = build_line_graph(n, [1.0] * (n - 1), alpha=1.0)
        ss = assemble_droop(g, ControllerParams(m=1.0, tau=1.0))
        _, lg, _ = laplacians(g, 1.0)
        return ss, lg

    def test_zero_noise_zero_init_stays_at_origin(self):
        ss, lg = self._droop()
        traj = simulate(ss, lg, SimConfig(dt=0.01, horizon=2.0, noise_intensity=0.0, seed=0))
        assert np.array_equal(traj.states, np.zeros_like(traj.states))
        assert np.array_equal(traj.instantaneous_loss, np.zeros_like(traj.instantaneous_loss))

    def test_times_grid(self):
        ss, lg = self._droop()
        traj = simulate(ss, lg, SimConfig(dt=0.01, horizon=1.0, seed=0))
        assert traj.times.size == 101
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)

    def test_seed_determinism_bit_identical(self):
        ss, lg = self._droop()
        cfg = SimConfig(dt=0.01, horizon=5.0, noise_intensity=1.0, seed=42)
        t1 = simulate(ss, lg, cfg)
        t2 = simulate(ss, lg, cfg)
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.instantaneous_loss, t2.instantaneous_loss)
        t3 = simulate(ss, lg, SimConfig(dt=0.01, horizon=5.0, noise_intensity=1.0, seed=43))
        assert not np.array_equal(t1.states, t3.states)

    def test_phase_block_recentred(self):
        ss, lg = self._droop(4)
        traj = simulate(ss, lg, SimConfig(dt=0.01, horizon=3.0, seed=1))
        means = traj.states[:, :4].mean(axis=1)
        assert np.max(np.abs(means)) <= 1e-12

    def test_noise_intensity_linearity(self):
        ss, lg = self._droop(4)
        cfg1 = SimConfig(dt=0.01, horizon=50.0, burn_in=5.0, noise_intensity=1.0, seed=11)
        cfg4 = SimConfig(dt=0.01, horizon=50.0, burn_in=5.0, noise_intensity=4.0, seed=11)
        est1, _ = empirical_h2(simulate(ss, lg, cfg1), cfg1)
        est4, _ = empirical_h2(simulate(ss, lg, cfg4), cfg4)
        assert est4 == pytest.approx(est1, rel=1e-12)

    def test_gamma_zero_dapi_refused(self):
        g = build_line_graph(3, [1.0, 1.0], alpha=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ss = assemble_dapi(g, ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=0.0))
        _, lg, _ = laplacians(g, 1.0)
        with pytest.raises(StabilityError, match="marginal"):
            simulate(ss, lg, SimConfig(dt=0.01, horizon=10.0, seed=0))

    def test_step_too_large_reports_bound(self):
        ss, lg = self._droop()
        with pytest.raises(StepSizeError, match="dt <"):
            simulate(ss, lg, SimConfig(dt=2.0, horizon=300.0, seed=0))

    def test_initial_state_wrong_length(self):
        ss, lg = self._droop()
        cfg = SimConfig(dt=0.01, horizon=2.0, seed=0, initial_state=np.zeros(5))
        with pytest.raises(ValidationError, match="initial_state"):
            simulate(ss, lg, cfg)

    def test_laplacian_dimension_mismatch(self):
        ss, _ = self._droop(3)
        g4 = build_line_graph(4, [1.0] * 3, alpha=1.0)
        _, lg4, _ = laplacians(g4, 1.0)
        with pytest.raises(ValidationError):
            simulate(ss, lg4, SimConfig(dt=0.01, horizon=2.0, seed=0))

    def test_deterministic_decay_from_perturbation(self):
        g = build_line_graph(6, [1.0] * 5, alpha=1.0)
        p = ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=1.0)
        ss = assemble_dapi(g, p)
        _, lg, _ = laplacians(g, 1.0)
        x0 = phase_perturbation(6, ss.n_states, scale=0.1, seed=9)
        cfg = SimConfig(dt=0.005, horizon=150.0, noise_intensity=0.0, seed=9, initial_state=x0)
        traj = simulate(ss, lg, cfg)
        assert traj.instantaneous_loss[0] > 0
        assert traj.instantaneous_loss[-1] < 1e-6 * traj.instantaneous_loss[0]


def _step_loop(ss, l_g, config):
    """Reference: the Euler-Maruyama loop one Python iteration per step,
    recentring the phase block after every step."""
    n = ss.n_nodes
    n_steps = int(round(config.horizon / config.dt))
    x = config.initial_state.copy() if config.initial_state is not None else np.zeros(ss.n_states)
    rng = np.random.default_rng(config.seed)
    noise_scale = math.sqrt(config.dt * config.noise_intensity)
    a, b, lg = ss.a, ss.b, l_g.matrix
    states = np.empty((n_steps + 1, ss.n_states))
    loss = np.empty(n_steps + 1)
    x[:n] -= x[:n].mean()
    for step in range(n_steps + 1):
        states[step] = x
        theta = x[:n]
        loss[step] = max(float(theta @ lg @ theta), 0.0)
        if step == n_steps:
            break
        x = x + config.dt * (a @ x)
        if noise_scale > 0.0:
            x += noise_scale * (b @ rng.standard_normal(n))
        x[:n] -= x[:n].mean()
    return states, loss


def _assert_close_to_step_loop(ss, lg, cfg, rtol=1e-10):
    traj = simulate(ss, lg, cfg)
    states, loss = _step_loop(ss, lg, cfg)
    assert traj.states.shape == states.shape
    assert np.max(np.abs(traj.states - states)) <= rtol * np.max(np.abs(states))
    assert np.max(np.abs(traj.instantaneous_loss - loss)) <= rtol * np.max(loss)
    return traj


class TestAgainstStepLoop:
    """The blocked scan reproduces the per-step loop to rounding."""

    def _system(self, kind):
        g = build_line_graph(8, [1.0, 0.7, 1.3, 0.9, 1.1, 0.6, 1.4], alpha=0.8)
        p = ControllerParams(m=1.2, tau=0.8, k=1.5, gamma=0.7)
        ss = assemble_droop(g, p) if kind == "droop" else assemble_dapi(g, p)
        return ss, laplacians(g, 1.0)[1]

    @pytest.mark.parametrize("kind", ["droop", "dapi"])
    # 100 and 1024 are whole numbers of blocks of isqrt(steps) rows, 997 is
    # prime and 1050 = 32 * 32 + 26 leaves a remainder past the last block
    @pytest.mark.parametrize("steps", [100, 997, 1024, 1050])
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_noisy_runs_agree(self, kind, steps, perturbed):
        ss, lg = self._system(kind)
        x0 = phase_perturbation(8, ss.n_states, scale=0.3, seed=5) if perturbed else None
        cfg = SimConfig(dt=0.01, horizon=steps * 0.01, noise_intensity=1.5, seed=17, initial_state=x0)
        traj = _assert_close_to_step_loop(ss, lg, cfg)
        assert traj.times.size == steps + 1

    @pytest.mark.parametrize("kind", ["droop", "dapi"])
    @pytest.mark.parametrize("steps", [100, 997, 1024, 1050])
    def test_noiseless_runs_agree(self, kind, steps):
        ss, lg = self._system(kind)
        # a phase offset of 0.5 that the first row must already have removed
        x0 = phase_perturbation(8, ss.n_states, scale=0.3, seed=5) + 0.5
        x0[8:] = np.linspace(-0.2, 0.2, ss.n_states - 8)
        cfg = SimConfig(dt=0.01, horizon=steps * 0.01, noise_intensity=0.0, seed=17, initial_state=x0)
        _assert_close_to_step_loop(ss, lg, cfg)

    @pytest.mark.parametrize("kind", ["droop", "dapi"])
    @pytest.mark.parametrize("steps", [100, 997, 1024, 1050])
    def test_noiseless_from_origin_is_exactly_zero(self, kind, steps):
        ss, lg = self._system(kind)
        cfg = SimConfig(dt=0.01, horizon=steps * 0.01, noise_intensity=0.0, seed=17)
        traj = simulate(ss, lg, cfg)
        states, loss = _step_loop(ss, lg, cfg)
        for new, old in ((traj.states, states), (traj.instantaneous_loss, loss)):
            assert np.array_equal(new, old)
            assert not np.any(new) and not np.any(np.signbit(new))

    @pytest.mark.parametrize("kind", ["droop", "dapi"])
    def test_noise_entering_the_phases_is_recentred(self, kind):
        # assembled systems drive only the frequencies; a hand-built B that
        # also drives the phases must have its phase mean removed every step
        ss, lg = self._system(kind)
        b = ss.b.copy()
        b[:8] += np.linspace(0.1, 0.8, 8)[:, None]
        ss = StateSpace(a=ss.a, b=b, c=ss.c, controller_kind=kind)
        cfg = SimConfig(dt=0.01, horizon=10.5, noise_intensity=1.0, seed=4)
        traj = _assert_close_to_step_loop(ss, lg, cfg)
        assert np.max(np.abs(traj.states[:, :8].mean(axis=1))) <= 1e-12

    @settings(max_examples=25)
    @given(
        n_nodes=st.integers(2, 6),
        graph_seed=st.integers(0, 2**31 - 1),
        seed=st.integers(0, 2**31 - 1),
        dt=st.floats(0.001, 0.05),
        steps=st.integers(100, 700),
        kind=st.sampled_from(["droop", "dapi"]),
    )
    def test_random_graphs_agree(self, n_nodes, graph_seed, seed, dt, steps, kind):
        g = build_random_connected_graph(n_nodes, 0.6, (0.5, 1.5), 1.0, seed=graph_seed)
        p = ControllerParams(m=1.0, tau=0.5, k=1.0, gamma=2.0)
        ss = assemble_droop(g, p) if kind == "droop" else assemble_dapi(g, p)
        lg = laplacians(g, 1.0)[1]
        cfg = SimConfig(dt=dt, horizon=steps * dt, noise_intensity=1.0, seed=seed)
        try:
            _assert_close_to_step_loop(ss, lg, cfg)
        except StepSizeError:
            assume(False)

    def test_does_not_import_scipy_signal(self):
        # scipy.signal costs over a second and tens of MB to import
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import gridloss\n"
            "g = gridloss.build_line_graph(3, np.ones(2), alpha=1.0)\n"
            "p = gridloss.ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=1.0)\n"
            "cfg = gridloss.SimConfig(dt=0.01, horizon=2.0, seed=0)\n"
            "gridloss.simulate(gridloss.assemble_dapi(g, p), gridloss.laplacians(g, 1.0)[1], cfg)\n"
            "print('scipy.signal' in sys.modules)\n"
        )
        src = str(Path(__import__("gridloss").__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


class TestEmpiricalH2:
    def test_zero_noise_estimates_zero(self):
        g = build_line_graph(3, [1.0, 1.0], alpha=1.0)
        ss = assemble_droop(g, ControllerParams(m=1.0, tau=1.0))
        _, lg, _ = laplacians(g, 1.0)
        cfg = SimConfig(dt=0.01, horizon=5.0, noise_intensity=0.0, seed=0)
        est, stderr = empirical_h2(simulate(ss, lg, cfg), cfg)
        assert est == 0.0
        assert stderr == 0.0

    def test_matches_closed_form_on_triangle(self):
        g = build_complete_graph(3, b=1.0, alpha=1.0)
        p = ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=1.0)
        ss = assemble_dapi(g, p)
        _, lg, _ = laplacians(g, 1.0)
        cfg = SimConfig(dt=0.01, horizon=400.0, burn_in=40.0, noise_intensity=1.0, seed=5)
        est, stderr = empirical_h2(simulate(ss, lg, cfg), cfg)
        true = h2_dapi_closed_form(1.0, p, spectral_decomposition(laplacians(g, 1.0)[0])).squared_norm
        assert abs(est - true) <= max(4.0 * stderr, 0.2 * true)

    def test_insufficient_samples(self):
        g = build_line_graph(3, [1.0, 1.0], alpha=1.0)
        ss = assemble_droop(g, ControllerParams(m=1.0, tau=1.0))
        _, lg, _ = laplacians(g, 1.0)
        cfg = SimConfig(dt=0.01, horizon=2.0, burn_in=1.9, seed=0)
        traj = simulate(ss, lg, cfg)
        with pytest.raises(ValidationError, match="insufficient"):
            empirical_h2(traj, cfg)


class TestPhasePerturbation:
    def test_zero_mean_and_scale(self):
        x0 = phase_perturbation(10, 30, scale=0.1, seed=4)
        assert x0.size == 30
        assert abs(x0[:10].mean()) <= 1e-15
        assert np.array_equal(x0[10:], np.zeros(20))
        assert 0 < np.max(np.abs(x0[:10])) < 1.0

    def test_deterministic(self):
        assert np.array_equal(phase_perturbation(5, 10, 0.1, 7), phase_perturbation(5, 10, 0.1, 7))

    def test_bad_dimensions(self):
        with pytest.raises(ValidationError):
            phase_perturbation(5, 11, 0.1, 0)


class TestTrajectoryType:
    def test_validation(self):
        t = np.array([0.0, 1.0, 2.0])
        x = np.zeros((3, 4))
        with pytest.raises(ValidationError):
            Trajectory(times=t, states=x, instantaneous_loss=np.array([0.0, -1.0, 0.0]))
        with pytest.raises(ValidationError):
            Trajectory(times=np.array([0.0, 0.0, 1.0]), states=x, instantaneous_loss=np.zeros(3))
        with pytest.raises(ValidationError):
            Trajectory(times=t, states=np.zeros((2, 4)), instantaneous_loss=np.zeros(3))

    def test_simulate_hands_over_its_arrays_without_a_copy(self):
        g = build_line_graph(20, np.ones(19), alpha=1.0)
        ss = assemble_dapi(g, ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=1.0))
        lg = laplacians(g, 1.0)[1]
        cfg = SimConfig(dt=0.005, horizon=50.0, seed=3)
        tracemalloc.start()
        try:
            traj = simulate(ss, lg, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.states.shape == (10001, 60)
        assert peak < 1.5 * traj.states.nbytes
        assert not traj.states.flags.writeable

    def test_caller_arrays_stay_writeable(self):
        t = np.array([0.0, 1.0, 2.0])
        x = np.zeros((3, 4))
        loss = np.zeros(3)
        traj = Trajectory(times=t, states=x, instantaneous_loss=loss)
        assert t.flags.writeable and x.flags.writeable and loss.flags.writeable
        assert not traj.states.flags.writeable
        x[0, 0] = 5.0
        assert traj.states[0, 0] == 0.0
        frozen = np.ones((3, 4))
        frozen.setflags(write=False)
        assert Trajectory(times=t, states=frozen, instantaneous_loss=loss).states is frozen
        ints = Trajectory(times=t, states=np.zeros((3, 4), dtype=int), instantaneous_loss=loss)
        assert ints.states.dtype == np.float64

    def test_integrated_loss_constant(self):
        t = np.linspace(0.0, 7.0, 701)
        traj = Trajectory(times=t, states=np.zeros((701, 2)), instantaneous_loss=np.ones(701))
        assert integrated_loss(traj) == pytest.approx(7.0, rel=1e-12)


class TestExport:
    def _trajectory(self, blocks, n=3, samples=11):
        t = np.linspace(0.0, 1.0, samples)
        x = np.arange(samples * blocks * n, dtype=float).reshape(samples, blocks * n) / 7.0
        loss = np.linspace(0.5, 1.5, samples)
        return Trajectory(times=t, states=x, instantaneous_loss=loss)

    def test_droop_header_and_rows(self, tmp_path):
        traj = self._trajectory(blocks=2)
        path = tmp_path / "traj.csv"
        export_trajectory(traj, n_nodes=3, path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,loss,theta_1,theta_2,theta_3,omega_1,omega_2,omega_3"
        assert len(lines) == 12

    def test_dapi_header_includes_integrator_block(self, tmp_path):
        traj = self._trajectory(blocks=3)
        path = tmp_path / "traj.csv"
        export_trajectory(traj, n_nodes=3, path=path)
        header = path.read_text().splitlines()[0]
        assert header.endswith("Omega_1,Omega_2,Omega_3")

    def test_stride_and_significant_digits(self, tmp_path):
        traj = self._trajectory(blocks=2, samples=101)
        path = tmp_path / "traj.csv"
        export_trajectory(traj, n_nodes=3, path=path, stride=10)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 11  # header + every 10th sample from 0 to 100
        first = lines[1].split(",")
        assert first[0] == "0"
        value = float(lines[2].split(",")[2])
        assert value == pytest.approx(traj.states[10, 0], rel=1e-11)

    def test_no_temp_file_left_behind(self, tmp_path):
        traj = self._trajectory(blocks=2)
        export_trajectory(traj, n_nodes=3, path=tmp_path / "out.csv")
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_bad_stride(self, tmp_path):
        traj = self._trajectory(blocks=2)
        with pytest.raises(ValidationError):
            export_trajectory(traj, n_nodes=3, path=tmp_path / "x.csv", stride=0)

    @settings(max_examples=150)
    @given(data=st.data())
    def test_rows_are_12g_of_time_loss_and_state(self, data):
        # -0.0, subnormals and values near 1e300; times stay within +-1e300
        # so their differences do not overflow
        special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300]
        near_1e300 = st.floats(9e299, 1.1e300)
        time = st.one_of(st.sampled_from(special), st.floats(-1e300, 1e300), near_1e300)
        value = st.one_of(st.sampled_from(special), st.floats(allow_nan=False), near_1e300)
        loss_value = st.one_of(st.sampled_from([-0.0, 5e-324, 1e-310, 1e300]), st.floats(0.0, 1.1e300))
        n_nodes = data.draw(st.integers(1, 3))
        dim = n_nodes * data.draw(st.sampled_from([2, 3]))
        times = sorted(data.draw(st.lists(time, min_size=1, max_size=12, unique=True)))
        rows = len(times)
        loss = data.draw(st.lists(loss_value, min_size=rows, max_size=rows))
        states = data.draw(st.lists(st.lists(value, min_size=dim, max_size=dim), min_size=rows, max_size=rows))
        stride = data.draw(st.integers(1, 4))
        traj = Trajectory(times=np.array(times), states=np.array(states), instantaneous_loss=np.array(loss))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "traj.csv"
            if stride == 1:
                export_trajectory(traj, n_nodes=n_nodes, path=path)
            else:
                export_trajectory(traj, n_nodes=n_nodes, path=path, stride=stride)
            lines = path.read_text().split("\n")
        expected = [
            ",".join(f"{v:.12g}" for v in (t, l, *state))
            for t, l, state in list(zip(times, loss, states))[::stride]
        ]
        assert lines[1:] == expected + [""]
