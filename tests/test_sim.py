"""Euler-Maruyama simulation and empirical loss estimation tests."""

import dataclasses
import hashlib
import itertools
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gridloss.sim
from gridloss.cli import main
from gridloss.dynamics import ControllerParams, StateSpace, assemble_dapi, assemble_droop
from gridloss.errors import StabilityError, StepSizeError, ValidationError
from gridloss.h2 import h2_dapi_closed_form, h2_full_gramian
from gridloss.network import (
    NetworkGraph,
    build_complete_graph,
    build_line_graph,
    build_random_connected_graph,
    spectral_decomposition,
    susceptance_laplacian,
)
from gridloss.sim import (
    SimConfig,
    Trajectory,
    _atomic_writer,
    empirical_h2,
    export_trajectory,
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
        with pytest.raises(ValidationError, match="^dt must be finite, got nan$"):
            SimConfig(dt=float("nan"), horizon=1.0)
        with pytest.raises(ValidationError, match="^initial_state must be a finite vector$"):
            SimConfig(dt=0.01, horizon=1.0, initial_state=[0.0, float("inf")])

    @pytest.mark.parametrize(("dt", "horizon", "shown"), [
        (0.01, 1e308, "horizon 1e+308 and dt 0.01"),
        (1e-300, 1e10, "horizon 10000000000.0 and dt 1e-300"),
    ], ids=["huge-horizon", "tiny-dt"])
    def test_infinite_step_count_refused(self, dt, horizon, shown):
        # horizon / dt overflows to inf, which no step count can hold
        message = f"horizon / dt must be a finite number of steps, got {shown}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            SimConfig(dt=dt, horizon=horizon)

    def test_hundred_steps_boundary_allowed(self):
        SimConfig(dt=0.1, horizon=10.0)


def _conductance(graph):
    """L_G = alpha L_B, the loss weight the assembled closed loop carries."""
    return assemble_droop(graph, ControllerParams(m=1.0, tau=1.0)).l_g


class TestInstantaneousLoss:
    """The loss theta' L_G theta that ``simulate`` stores with each sample."""

    @settings(max_examples=30)
    @given(
        n_nodes=st.integers(2, 6),
        graph_seed=st.integers(0, 2**31 - 1),
        seed=st.integers(0, 2**31 - 1),
        alpha=st.floats(0.1, 3.0),
        kind=st.sampled_from(["droop", "dapi"]),
    )
    def test_matches_edgewise_sum(self, n_nodes, graph_seed, seed, alpha, kind):
        # oracle: each row's loss = sum over edges of alpha b_ij (theta_i - theta_j)^2
        g = build_random_connected_graph(n_nodes, 0.6, (0.5, 1.5), alpha, seed=graph_seed)
        p = ControllerParams(m=1.0, tau=0.5, k=1.0, gamma=2.0)
        ss = assemble_droop(g, p) if kind == "droop" else assemble_dapi(g, p)
        traj = simulate(ss, SimConfig(dt=0.01, horizon=2.0, seed=seed))
        theta = traj.states[:, :n_nodes]
        by_edges = sum(alpha * b * (theta[:, i] - theta[:, j]) ** 2 for i, j, b in g.edges)
        loss = traj.instantaneous_loss
        assert np.all(loss >= 0)
        assert np.all(np.abs(loss - by_edges) <= 1e-12 * by_edges)


class TestSimulate:
    def _droop(self, n=3):
        g = build_line_graph(n, [1.0] * (n - 1), alpha=1.0)
        return assemble_droop(g, ControllerParams(m=1.0, tau=1.0))

    def test_zero_noise_zero_init_stays_at_origin(self):
        ss = self._droop()
        traj = simulate(ss, SimConfig(dt=0.01, horizon=2.0, noise_intensity=0.0, seed=0))
        assert np.array_equal(traj.states, np.zeros_like(traj.states))
        assert np.array_equal(traj.instantaneous_loss, np.zeros_like(traj.instantaneous_loss))

    def test_times_grid(self):
        ss = self._droop()
        traj = simulate(ss, SimConfig(dt=0.01, horizon=1.0, seed=0))
        assert traj.times.size == 101
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)

    def test_seed_determinism_bit_identical(self):
        ss = self._droop()
        cfg = SimConfig(dt=0.01, horizon=5.0, noise_intensity=1.0, seed=42)
        t1 = simulate(ss, cfg)
        t2 = simulate(ss, cfg)
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.instantaneous_loss, t2.instantaneous_loss)
        t3 = simulate(ss, SimConfig(dt=0.01, horizon=5.0, noise_intensity=1.0, seed=43))
        assert not np.array_equal(t1.states, t3.states)

    def test_phase_block_recentred(self):
        ss = self._droop(4)
        traj = simulate(ss, SimConfig(dt=0.01, horizon=3.0, seed=1))
        means = traj.states[:, :4].mean(axis=1)
        assert np.max(np.abs(means)) <= 1e-12

    def test_noise_intensity_linearity(self):
        ss = self._droop(4)
        cfg1 = SimConfig(dt=0.01, horizon=50.0, burn_in=5.0, noise_intensity=1.0, seed=11)
        cfg4 = SimConfig(dt=0.01, horizon=50.0, burn_in=5.0, noise_intensity=4.0, seed=11)
        est1, _ = empirical_h2(simulate(ss, cfg1), cfg1)
        est4, _ = empirical_h2(simulate(ss, cfg4), cfg4)
        assert est4 == pytest.approx(est1, rel=1e-12)

    def test_gamma_zero_dapi_refused(self):
        g = build_line_graph(3, [1.0, 1.0], alpha=1.0)
        ss = assemble_dapi(g, ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=0.0))
        with pytest.raises(StabilityError, match="marginal"):
            simulate(ss, SimConfig(dt=0.01, horizon=10.0, seed=0))

    def test_step_too_large_reports_bound(self):
        ss = self._droop()
        with pytest.raises(StepSizeError, match="dt <"):
            simulate(ss, SimConfig(dt=2.0, horizon=300.0, seed=0))

    def test_initial_state_wrong_length(self):
        ss = self._droop()
        cfg = SimConfig(dt=0.01, horizon=2.0, seed=0, initial_state=np.zeros(5))
        with pytest.raises(ValidationError, match="initial_state"):
            simulate(ss, cfg)

    def test_laplacian_dimension_mismatch(self):
        # simulate weights the loss with ss.l_g, whose size the system checks
        ss = self._droop(3)
        g4 = build_line_graph(4, [1.0] * 3, alpha=1.0)
        with pytest.raises(ValidationError, match="L_G 4 nodes"):
            dataclasses.replace(ss, l_g=_conductance(g4))

    def test_deterministic_decay_from_perturbation(self):
        g = build_line_graph(6, [1.0] * 5, alpha=1.0)
        p = ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=1.0)
        ss = assemble_dapi(g, p)
        x0 = phase_perturbation(6, ss.n_states, scale=0.1, seed=9)
        cfg = SimConfig(dt=0.005, horizon=150.0, noise_intensity=0.0, seed=9, initial_state=x0)
        traj = simulate(ss, cfg)
        assert traj.instantaneous_loss[0] > 0
        assert traj.instantaneous_loss[-1] < 1e-6 * traj.instantaneous_loss[0]


def _cliques_droop(tie):
    """Droop on two unit 5-cliques joined by one line of susceptance ``tie``."""
    edges = [(i, j, 1.0) for base in (0, 5) for i, j in itertools.combinations(range(base, base + 5), 2)]
    return assemble_droop(NetworkGraph(10, [*edges, (4, 5, tie)], alpha=1.0), ControllerParams(m=1.0, tau=1.0))


def _gamma_zero_dapi():
    return assemble_dapi(build_line_graph(3, [1.0, 1.0], alpha=1.0), ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=0.0))


def _flipped_coupling_droop():
    """Droop on a 3-bus line with the sign of its coupling flipped: an
    eigenvalue of +1.303."""
    ss = assemble_droop(build_line_graph(3, [1.0, 1.0], alpha=1.0), ControllerParams(m=1.0, tau=1.0))
    a = ss.a.copy()
    a[3:, :3] *= -1.0
    return StateSpace(a=a, b=ss.b, l_g=ss.l_g)


_STIFF = ControllerParams(m=0.01, tau=1e-9)
_NO_HINT = "))"
_GAMMA_HINT = "; for DAPI this typically means gamma = 0"


class TestSharedStabilityRule:
    """``simulate`` judges the deflated loop it steps by the Hurwitz rule of
    ``h2_full_gramian``: on each loop both refuse, with one message, or
    both accept.  The gamma = 0 hint goes only to a DAPI loop with L_C = 0.
    (A tie of 1e-9 sits on the margin, so it is left out.)"""

    @pytest.mark.parametrize(("build", "refusal"), [
        (_gamma_zero_dapi, _GAMMA_HINT),
        (lambda: assemble_droop(build_line_graph(20, [1.0] * 19, alpha=1.0), _STIFF), _NO_HINT),
        (lambda: assemble_dapi(build_line_graph(20, [1.0] * 19, alpha=1.0), _STIFF), _NO_HINT),
        (lambda: _cliques_droop(1e-10), _NO_HINT),
        (lambda: _cliques_droop(3e-10), _NO_HINT),
        (lambda: _cliques_droop(3e-9), None),
        (lambda: _cliques_droop(1e-8), None),
        (_flipped_coupling_droop, _NO_HINT),
    ], ids=["dapi-gamma-0", "droop-stiff", "dapi-stiff", "droop-tie-1e-10", "droop-tie-3e-10",
            "droop-tie-3e-9", "droop-tie-1e-8", "droop-flipped-coupling"])
    def test_same_verdict_as_the_full_gramian(self, build, refusal):
        ss = build()
        config = SimConfig(dt=0.01, horizon=1.0, seed=0)
        routes = (lambda: h2_full_gramian(ss), lambda: simulate(ss, config))
        if refusal is None:
            for route in routes:
                route()
            return
        for route in routes:
            with pytest.raises(StabilityError) as info:
                route()
            message = str(info.value)
            assert message.startswith("marginal or unstable modes remain after deflating the rigid phase shift "
                                      "(matrix is not safely Hurwitz (max eigenvalue real part ")
            assert message.endswith(refusal)

    @pytest.mark.parametrize("assemble", [assemble_droop, assemble_dapi])
    def test_one_bus_loses_nothing(self, assemble):
        # the deflated loop has no theta state left
        ss = assemble(NetworkGraph(1, [], 1.0), ControllerParams(m=1.0, tau=1.0))
        assert h2_full_gramian(ss).squared_norm == 0.0
        traj = simulate(ss, SimConfig(dt=0.01, horizon=1.0, seed=0))
        assert traj.states.shape == (101, ss.n_states)
        assert not traj.instantaneous_loss.any()


def _step_loop(ss, config):
    """Reference: the Euler-Maruyama loop one Python iteration per step,
    recentring the phase block after every step."""
    n = ss.n_nodes
    n_steps = int(round(config.horizon / config.dt))
    x = config.initial_state.copy() if config.initial_state is not None else np.zeros(ss.n_states)
    rng = np.random.default_rng(config.seed)
    noise_scale = math.sqrt(config.dt * config.noise_intensity)
    a, b, lg = ss.a, ss.b, ss.l_g.matrix
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


def _assert_close_to_step_loop(ss, cfg, rtol=1e-10):
    traj = simulate(ss, cfg)
    states, loss = _step_loop(ss, cfg)
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
        return ss

    @pytest.mark.parametrize("kind", ["droop", "dapi"])
    # 100 and 1024 are whole numbers of blocks of isqrt(steps) rows, 997 is
    # prime and 1050 = 32 * 32 + 26 leaves a remainder past the last block
    @pytest.mark.parametrize("steps", [100, 997, 1024, 1050])
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_noisy_runs_agree(self, kind, steps, perturbed):
        ss = self._system(kind)
        x0 = phase_perturbation(8, ss.n_states, scale=0.3, seed=5) if perturbed else None
        cfg = SimConfig(dt=0.01, horizon=steps * 0.01, noise_intensity=1.5, seed=17, initial_state=x0)
        traj = _assert_close_to_step_loop(ss, cfg)
        assert traj.times.size == steps + 1

    @pytest.mark.parametrize("kind", ["droop", "dapi"])
    @pytest.mark.parametrize("steps", [100, 997, 1024, 1050])
    def test_noiseless_runs_agree(self, kind, steps):
        ss = self._system(kind)
        # a phase offset of 0.5 that the first row must already have removed
        x0 = phase_perturbation(8, ss.n_states, scale=0.3, seed=5) + 0.5
        x0[8:] = np.linspace(-0.2, 0.2, ss.n_states - 8)
        cfg = SimConfig(dt=0.01, horizon=steps * 0.01, noise_intensity=0.0, seed=17, initial_state=x0)
        _assert_close_to_step_loop(ss, cfg)

    @pytest.mark.parametrize("kind", ["droop", "dapi"])
    @pytest.mark.parametrize("steps", [100, 997, 1024, 1050])
    def test_noiseless_from_origin_is_exactly_zero(self, kind, steps):
        ss = self._system(kind)
        cfg = SimConfig(dt=0.01, horizon=steps * 0.01, noise_intensity=0.0, seed=17)
        traj = simulate(ss, cfg)
        states, loss = _step_loop(ss, cfg)
        for new, old in ((traj.states, states), (traj.instantaneous_loss, loss)):
            assert np.array_equal(new, old)
            assert not np.any(new) and not np.any(np.signbit(new))

    @pytest.mark.parametrize("kind", ["droop", "dapi"])
    def test_noise_entering_the_phases_is_recentred(self, kind):
        # assembled systems drive only the frequencies; a hand-built B that
        # also drives the phases must have its phase mean removed every step
        ss = self._system(kind)
        b = ss.b.copy()
        b[:8] += np.linspace(0.1, 0.8, 8)[:, None]
        ss = StateSpace(a=ss.a, b=b, l_g=ss.l_g)
        cfg = SimConfig(dt=0.01, horizon=10.5, noise_intensity=1.0, seed=4)
        traj = _assert_close_to_step_loop(ss, cfg)
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
        cfg = SimConfig(dt=dt, horizon=steps * dt, noise_intensity=1.0, seed=seed)
        try:
            _assert_close_to_step_loop(ss, cfg)
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
            "gridloss.simulate(gridloss.assemble_dapi(g, p), cfg)\n"
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
        cfg = SimConfig(dt=0.01, horizon=5.0, noise_intensity=0.0, seed=0)
        est, stderr = empirical_h2(simulate(ss, cfg), cfg)
        assert est == 0.0
        assert stderr == 0.0

    def test_matches_closed_form_on_triangle(self):
        g = build_complete_graph(3, b=1.0, alpha=1.0)
        p = ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=1.0)
        ss = assemble_dapi(g, p)
        cfg = SimConfig(dt=0.01, horizon=400.0, burn_in=40.0, noise_intensity=1.0, seed=5)
        est, stderr = empirical_h2(simulate(ss, cfg), cfg)
        true = h2_dapi_closed_form(1.0, p, spectral_decomposition(susceptance_laplacian(g))).squared_norm
        assert abs(est - true) <= max(4.0 * stderr, 0.2 * true)

    def test_insufficient_samples(self):
        g = build_line_graph(3, [1.0, 1.0], alpha=1.0)
        ss = assemble_droop(g, ControllerParams(m=1.0, tau=1.0))
        cfg = SimConfig(dt=0.01, horizon=2.0, burn_in=1.9, seed=0)
        traj = simulate(ss, cfg)
        with pytest.raises(ValidationError, match="insufficient"):
            empirical_h2(traj, cfg)


    def test_one_sample_trajectory_is_too_short(self):
        traj = Trajectory(np.array([0.0]), np.zeros((1, 9)), np.array([0.0]))
        with pytest.raises(ValidationError, match="insufficient post-burn-in samples for 20 batches: got 1, need 40"):
            empirical_h2(traj, SimConfig(dt=0.01, horizon=10.0))


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

    def test_bad_scale(self):
        with pytest.raises(ValidationError, match="^scale must be finite and >= 0"):
            phase_perturbation(2, 4, -1.0, 0)


class TestSeeds:
    """A seed numpy's generators refuse is a ValidationError at each entry point."""

    def test_simulate_refuses_a_negative_seed(self):
        ss = assemble_dapi(build_line_graph(3, [1.0, 1.0], alpha=1.0), ControllerParams(m=1.0, tau=1.0))
        with pytest.raises(ValidationError, match="^seed must be a non-negative integer or a tuple of them, got -1$"):
            simulate(ss, SimConfig(dt=0.01, horizon=10.0, seed=-1))

    @pytest.mark.parametrize("seed", [-1, 1.5, (2, -1), ()])
    def test_sim_config_refuses_the_seed(self, seed):
        # refused where it is set, so a noise-free run, which draws no
        # noise, refuses it too
        with pytest.raises(ValidationError, match=r"^seed must be a non-negative integer or a tuple of them, got "):
            SimConfig(dt=0.01, horizon=10.0, seed=seed, noise_intensity=0.0)

    def test_sim_config_takes_numpys_seeds(self):
        assert SimConfig(dt=0.01, horizon=10.0, seed=np.int64(3)).seed == 3
        assert SimConfig(dt=0.01, horizon=10.0, seed=(3, 1)).seed == (3, 1)

    @pytest.mark.parametrize("seed", [-1, 1.5, (2, -1)])
    def test_phase_perturbation_refuses_the_seed(self, seed):
        with pytest.raises(ValidationError, match="^seed must be a non-negative integer or a tuple of them"):
            phase_perturbation(3, 9, 1.0, seed)

    def test_phase_perturbation_takes_a_tuple_seed(self):
        z = np.random.default_rng((4, 1)).standard_normal(3)
        assert np.array_equal(phase_perturbation(3, 9, 1.0, (4, 1))[:3], z - z.mean())


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
        with pytest.raises(ValidationError, match="^times and loss must be vectors, states a matrix$"):
            Trajectory(times=t, states=np.zeros(3), instantaneous_loss=np.zeros(3))

    @pytest.mark.parametrize("times", [[0.0, float("nan")], [float("inf")] * 2, [-float("inf"), 0.0]],
                             ids=["nan", "inf-inf", "minus-inf"])
    def test_non_finite_times_refused_without_warning(self, times):
        # checked before the order: NaN passes the order test, and inf - inf
        # would warn
        with pytest.raises(ValidationError, match="^times must be finite$"):
            Trajectory(times, np.zeros((2, 6)), [0.0, 0.0])

    def test_simulate_hands_over_its_arrays_without_a_copy(self, peak_bytes):
        g = build_line_graph(20, np.ones(19), alpha=1.0)
        ss = assemble_dapi(g, ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=1.0))
        cfg = SimConfig(dt=0.005, horizon=50.0, seed=3)
        with peak_bytes() as peak:
            traj = simulate(ss, cfg)
        assert traj.states.shape == (10001, 60)
        assert peak.bytes < 1.5 * traj.states.nbytes
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

    def test_state_dimension_must_be_whole_blocks(self, tmp_path):
        path = tmp_path / "traj.csv"
        with pytest.raises(ValidationError, match="^state dimension 5 is not 2 or 3 blocks of 2 nodes$"):
            export_trajectory(self._trajectory(blocks=1, n=5), n_nodes=2, path=path)
        assert not path.exists()

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


def _reference_csv(traj, stride=1):
    """The data rows as the per-row '%.12g' formatting writes them."""
    table = np.column_stack((traj.times, traj.instantaneous_loss, traj.states))[::stride]
    row = ",".join(["%.12g"] * table.shape[1]) + "\n"
    return "".join(row % tuple(values) for values in table.tolist())


def _wide_values(rng, size):
    """Values across the whole float range: mostly 1e-6..1e3 as in a
    trajectory, with zeros of both signs, infinities, NaN, subnormals,
    huge and tiny magnitudes, short decimals with trailing zeros, and
    exact 12-digit ties."""
    magnitude = rng.uniform(1.0, 10.0, size) * 10.0 ** rng.integers(-6, 4, size)
    wide = rng.random(size) < 0.1
    magnitude[wide] = rng.uniform(1.0, 10.0, wide.sum()) * 10.0 ** rng.integers(-330, 308, wide.sum())
    short = (rng.random(size) < 0.1) & (magnitude < 1e6)
    magnitude[short] = np.round(magnitude[short], rng.integers(0, 4))
    values = np.where(rng.random(size) < 0.5, -magnitude, magnitude)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310, 123456789012.5,
                        999999999999.5, 9.9999999999995e-5, 1e-5, 1e12, 1e-12, 1.5e300])
    picks = rng.random(size) < 0.02
    values[picks] = rng.choice(special, picks.sum())
    return values


class TestExportFormatter:
    """``export_trajectory`` formats blocks of rows with numpy; every value
    must still come out exactly as '%.12g' writes it."""

    @settings(max_examples=20)
    @given(
        n_nodes=st.integers(1, 25),
        blocks=st.sampled_from([2, 3]),
        stride=st.integers(2, 5),
        extra_rows=st.integers(0, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tables_longer_than_a_block(self, n_nodes, blocks, stride, extra_rows, seed):
        rng = np.random.default_rng(seed)
        dim = n_nodes * blocks
        block_rows = gridloss.sim._BLOCK_VALUES // (2 + dim)
        # the kept rows fill two blocks and part of a third
        samples = stride * (2 * block_rows + extra_rows) + 1
        times = np.cumsum(rng.uniform(0.1, 1.0, samples) * 10.0 ** rng.integers(-3, 2, samples)) - 1.0
        loss = np.abs(_wide_values(rng, samples))
        loss[~np.isfinite(loss)] = 0.0
        states = _wide_values(rng, samples * dim).reshape(samples, dim)
        traj = Trajectory(times=times, states=states, instantaneous_loss=loss)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "traj.csv"
            export_trajectory(traj, n_nodes=n_nodes, path=path, stride=stride)
            body = path.read_text().split("\n", 1)[1]
        assert body == _reference_csv(traj, stride)

    def test_digit_tables_are_built_on_the_first_export(self, tmp_path):
        # importing the CLI builds no table; the first export builds them once
        code = (
            "import numpy as np\n"
            "import gridloss.cli\n"
            "from gridloss.sim import Trajectory, _digit_tables, export_trajectory\n"
            "print(_digit_tables.cache_info().currsize)\n"
            "traj = Trajectory(times=np.arange(3.0), states=np.ones((3, 2)), instantaneous_loss=np.zeros(3))\n"
            "for _ in range(2):\n"
            f"    export_trajectory(traj, n_nodes=1, path={str(tmp_path / 'traj.csv')!r})\n"
            "info = _digit_tables.cache_info()\n"
            "print(info.currsize, info.misses, *(arr.flags.writeable for arr in _digit_tables()))\n"
        )
        src = str(Path(gridloss.sim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split("\n")[:2] == ["0", "1 1 False False"]

    @pytest.mark.parametrize("value", [
        0.5, 2.5, 123456789012.5, 123456789013.5, 1.234567890125, 0.1234567890125,
        999999999999.5, 999999999999.4, 9.9999999999995e-5, 9.9999999999994e-5,
        1e-5, 9.99999999999e-6, 1e-4, 1e11, 1e12, 999999999999.0, 99999999999.95,
        0.0, -0.0, np.inf, -np.inf, np.nan,
        5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
        1e-11, 9.99999999999e-12, 1e-12, 3.3e-15, 1e33, 9.999999999995e33, 1e34, 1.7976931348623157e308,
        math.nextafter(1e6, 0.0), math.nextafter(1e-4, 0.0), math.nextafter(1e12, 0.0), math.nextafter(1e-11, 0.0),
    ])
    def test_fallback_cases(self, value, tmp_path):
        # ties, values rounding up to the next power of ten, the 1e-5 and
        # 1e12 edges between fixed and exponent form, zeros, non-finite
        # values, subnormals and magnitudes outside 1e-11..1e34, each with
        # both signs and next to ordinary values
        row = [value, -value, 1.0, -0.25, 3.14159265358979, value * 3.0, -value / 7.0, 1e-7]
        states = np.array([row, row[::-1]])
        traj = Trajectory(times=np.array([0.0, 1.0]), states=states, instantaneous_loss=np.array([0.0, 1.5]))
        path = tmp_path / "traj.csv"
        export_trajectory(traj, n_nodes=4, path=path)
        assert path.read_text().split("\n", 1)[1] == _reference_csv(traj)

    @pytest.mark.parametrize(("argv", "csv_sha256", "meta_sha256"), [
        ([], "a1a995ca0ec68eda5dafb44602845f2332640531cedb7355ef0dc3b6af5269c9",
         "2c78cdd853300f1acfab35c82a6a6718cc015360d3ac6f0eb032d98f33ebb6cf"),
        (["--seed", "11"], "a71be15e2e0df08d29f4c98f43a9d4c5c75fc528b9c52e99c6f8c4f50c575a62",
         "bcf4dd52c377c13359c3fe9934297b15b57f112fa04168308374c4012c1259c1"),
        (["--stride", "7"], "a313691e33594ba8d545355d3deceaa4396314aab97a1f36515be6c00ee543db",
         "5ebfee125fab6859a541634cdaf7f0dc2ac741a9762a7fadcdc9f8473294b4ce"),
        (["--controller", "droop"], "1451ee6a0a2e6ae870807547cfda90e862f6ca2f96218fd03ab8d6221768fffa",
         "33b1749753ff4d404000f7a87cdab6b19e1865fe1734ae0a9b0a9953ed08cfd7"),
    ], ids=["seed5", "seed11", "stride7", "droop"])
    def test_cli_output_bytes_are_pinned(self, argv, csv_sha256, meta_sha256, tmp_path, monkeypatch, capsys):
        # digests of the files the per-row '%.12g' export wrote; the states
        # come from matrix products, so they are pinned for numpy's bundled
        # OpenBLAS, and a different BLAS may change their last bits
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", "--line", "20", "--dt", "0.005", "--horizon", "50", "--seed", "5", *argv]
        assert main([*argv, "--out", "traj.csv"]) == 0
        capsys.readouterr()
        assert hashlib.sha256((tmp_path / "traj.csv").read_bytes()).hexdigest() == csv_sha256
        assert hashlib.sha256((tmp_path / "traj.csv.meta.json").read_bytes()).hexdigest() == meta_sha256

    def test_memory_does_not_grow_with_the_path(self, tmp_path, peak_bytes):
        rng = np.random.default_rng(4)
        peaks = []
        for samples in (2_000, 8_000):
            traj = Trajectory(times=np.arange(samples) * 0.005, states=rng.standard_normal((samples, 60)),
                              instantaneous_loss=rng.random(samples))
            with peak_bytes() as peak:
                export_trajectory(traj, n_nodes=20, path=tmp_path / "traj.csv")
            peaks.append(peak.bytes)
        # one block at a time: the peak is set by the block, not the path
        assert peaks[1] < 1.1 * peaks[0]
        assert peaks[1] < 4e6

    @pytest.mark.parametrize("fill", [0.0, np.inf], ids=["zeros", "inf"])
    def test_no_floating_point_warnings(self, fill, tmp_path):
        states = np.zeros((200, 6))
        states[::3, 1::2] = fill
        states[1::3, ::4] = -fill
        traj = Trajectory(times=np.arange(200.0), states=states, instantaneous_loss=np.zeros(200))
        path = tmp_path / "traj.csv"
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            export_trajectory(traj, n_nodes=3, path=path)
        assert path.read_text().split("\n", 1)[1] == _reference_csv(traj)


class TestAtomicWriter:
    def test_a_failing_block_leaves_the_target_as_it_was(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_bytes(b"old bytes\n")
        with pytest.raises(RuntimeError, match="^midway$"):
            with _atomic_writer(target) as fh:
                fh.write("new bytes\n")
                raise RuntimeError("midway")
        assert target.read_bytes() == b"old bytes\n"
        assert list(tmp_path.iterdir()) == [target]
