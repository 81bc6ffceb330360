"""Stochastic time-domain validation of the loss analysis.

Integrates dx = A x dt + B dW with an Euler-Maruyama scheme under white
power disturbances of configurable intensity, tracks the instantaneous
resistive loss theta' L_G theta along the path, and estimates its long-run
average for comparison against the analytic norms.  The uniform phase
component is unobservable and performs a random walk, so every step
recentres the phase block to zero mean.  The recentring is a linear
projection P, folded into the step matrix M = P (I + dt A); the whole path
is then the linear recursion x_{t+1} = M x_t + G xi_t, which ``simulate``
runs as a blocked scan over time rather than one Python iteration per step.
"""

from __future__ import annotations

import contextlib
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .dynamics import StateSpace
from .errors import StabilityError, StepSizeError, ValidationError
from .network import Laplacian

_N_BATCHES = 20


@dataclass(frozen=True)
class SimConfig:
    """Integration settings.

    Args:
        dt: step size, > 0 and at most horizon/100.
        horizon: final time, > 0 (rounded to a whole number of steps).
        burn_in: time discarded by the loss estimator, in [0, horizon).
        noise_intensity: disturbance power spectral density scale, >= 0.
        seed: RNG seed; trajectories are bit-identical for a fixed seed.
        initial_state: optional start vector (defaults to the origin).
    """

    dt: float
    horizon: float
    burn_in: float = 0.0
    noise_intensity: float = 1.0
    seed: int = 0
    initial_state: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("dt", "horizon", "burn_in", "noise_intensity"):
            value = float(getattr(self, name))
            if not np.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.dt <= 0:
            raise ValidationError(f"dt must be > 0, got {self.dt}")
        if self.horizon <= 0:
            raise ValidationError(f"horizon must be > 0, got {self.horizon}")
        if not (0.0 <= self.burn_in < self.horizon):
            raise ValidationError(f"burn_in must lie in [0, horizon), got {self.burn_in}")
        if self.dt > self.horizon / 100.0 * (1.0 + 1e-12):
            raise ValidationError(
                f"dt = {self.dt} too coarse: at least 100 steps required (horizon {self.horizon})"
            )
        if self.noise_intensity < 0:
            raise ValidationError(f"noise_intensity must be >= 0, got {self.noise_intensity}")
        if not isinstance(self.seed, (int, np.integer)):
            raise ValidationError(f"seed must be an integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        if self.initial_state is not None:
            x0 = np.array(self.initial_state, dtype=float)
            if x0.ndim != 1 or not np.all(np.isfinite(x0)):
                raise ValidationError("initial_state must be a finite vector")
            x0.setflags(write=False)
            object.__setattr__(self, "initial_state", x0)


@dataclass(frozen=True)
class Trajectory:
    """Sampled path: times, full states (rows), and loss along the way."""

    times: np.ndarray
    states: np.ndarray
    instantaneous_loss: np.ndarray

    def __post_init__(self) -> None:
        t, x, loss = (_frozen(values) for values in (self.times, self.states, self.instantaneous_loss))
        if t.ndim != 1 or x.ndim != 2 or loss.ndim != 1:
            raise ValidationError("times and loss must be vectors, states a matrix")
        if x.shape[0] != t.size or loss.size != t.size:
            raise ValidationError(
                f"length mismatch: {t.size} times, {x.shape[0]} states, {loss.size} loss samples"
            )
        if np.any(np.diff(t) <= 0):
            raise ValidationError("times must be strictly increasing")
        if np.any(loss < 0) or not np.all(np.isfinite(loss)):
            raise ValidationError("loss samples must be finite and >= 0")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", x)
        object.__setattr__(self, "instantaneous_loss", loss)


def _frozen(values) -> np.ndarray:
    """Read-only float64 array of ``values``.  An array that is already
    read-only float64 is kept as it is; anything else is copied, so a
    caller's writeable array is never frozen."""
    arr = np.asarray(values)
    if arr.dtype != np.float64 or arr.flags.writeable:
        arr = np.array(arr, dtype=float)
        arr.setflags(write=False)
    return arr


def instantaneous_loss(theta: np.ndarray, l_g: Laplacian) -> float:
    """Resistive loss theta' L_G theta of a phase vector (clamped at 0 to
    absorb rounding on the PSD quadratic form)."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size != l_g.n_nodes:
        raise ValidationError(
            f"theta has shape {theta.shape}, Laplacian is {l_g.n_nodes}x{l_g.n_nodes}"
        )
    return max(float(theta @ l_g.matrix @ theta), 0.0)


def phase_perturbation(n_nodes: int, n_states: int, scale: float, seed: int) -> np.ndarray:
    """Initial state with a random zero-mean phase block and zero elsewhere.

    Used for decay experiments: draw a standard normal phase vector, remove
    its mean, scale it, and leave all frequency and integrator states at
    zero.
    """
    if n_states not in (2 * n_nodes, 3 * n_nodes):
        raise ValidationError(f"n_states must be 2 or 3 times n_nodes, got {n_states} for {n_nodes}")
    if not np.isfinite(scale) or scale < 0:
        raise ValidationError(f"scale must be finite and >= 0, got {scale!r}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n_nodes)
    z -= z.mean()
    x0 = np.zeros(n_states)
    x0[:n_nodes] = scale * z
    return x0


def simulate(ss: StateSpace, l_g: Laplacian, config: SimConfig) -> Trajectory:
    """Euler-Maruyama integration of the closed loop under white noise.

    The step map is x <- x + dt A x + sqrt(dt noise_intensity) B xi with
    standard normal xi, after which the phase block is recentred to zero
    mean (the uniform phase direction is a pure random walk and carries no
    loss).  The recentring is the projection P inside the step matrix, so a
    step is x <- M x + G xi with M = P (I + dt A) and G = sqrt(dt
    noise_intensity) P B.  Systems with more than one marginal mode are
    refused: a DAPI loop with gamma = 0 never reaches a steady loss level.

    The noise is drawn in chunks from one generator stream, exactly as one
    draw per step would give it, and G xi_t is written into row t + 1 of
    the state array.  The recursion then runs as a blocked scan with block
    length K = isqrt(steps): K vectorised steps give every block's response
    to its own noise from a zero start, the block boundaries follow by
    steps of M^K, K more vectorised steps add each boundary state's free
    response, and the few rows past the last whole block are stepped
    directly.  The scan takes about 3 sqrt(steps) Python iterations, the
    noise draws and the row-wise loss sqrt(steps) each, and the states
    agree with step-by-step stepping to rounding.

    Raises:
        StabilityError: unstable system, or extra marginal modes.
        StepSizeError: dt outside the stability region of the scheme, with
            the largest usable step in the message.
    """
    n = ss.n_nodes
    if l_g.n_nodes != n:
        raise ValidationError(f"Laplacian is {l_g.n_nodes}-node but system has {n} nodes")

    eigs = np.linalg.eigvals(ss.a)
    scale = max(float(np.max(np.abs(ss.a))), 1e-300)
    tol = 1e-9 * scale
    if np.any(eigs.real > tol):
        raise StabilityError(f"system is unstable (max eigenvalue real part {np.max(eigs.real):.3e})")
    n_marginal = int(np.count_nonzero(np.abs(eigs.real) <= tol))
    if n_marginal > 1:
        raise StabilityError(
            f"{n_marginal} marginal modes: only the rigid phase shift may be "
            "marginal (a DAPI loop with gamma = 0 cannot be simulated to steady state)"
        )
    stable = eigs[eigs.real < -tol]
    amplification = np.abs(1.0 + config.dt * stable)
    if np.any(amplification >= 1.0):
        dt_max = float(np.min(-2.0 * stable.real / np.abs(stable) ** 2))
        raise StepSizeError(
            f"dt = {config.dt} is outside the explicit scheme's stability region; "
            f"use dt < {dt_max:.6g}"
        )

    n_steps = int(round(config.horizon / config.dt))
    times = np.arange(n_steps + 1) * config.dt
    if config.initial_state is not None:
        if config.initial_state.size != ss.n_states:
            raise ValidationError(
                f"initial_state has {config.initial_state.size} entries, system has {ss.n_states} states"
            )
        x0 = config.initial_state.copy()
    else:
        x0 = np.zeros(ss.n_states)
    x0[:n] -= x0[:n].mean()

    step = np.eye(ss.n_states) + config.dt * ss.a
    step[:n] -= step[:n].mean(axis=0)
    states = np.empty((n_steps + 1, ss.n_states))
    states[0] = x0
    # noise and loss go sqrt(steps) rows at a time, so neither needs a
    # buffer as long as the path
    chunk = math.isqrt(n_steps)
    noise_scale = math.sqrt(config.dt * config.noise_intensity)
    if noise_scale > 0.0:
        rng = np.random.default_rng(config.seed)
        drive = noise_scale * ss.b
        drive[:n] -= drive[:n].mean(axis=0)
        for row in range(1, n_steps + 1, chunk):
            rows = states[row:row + chunk]
            np.matmul(rng.standard_normal((rows.shape[0], n)), drive.T, out=rows)
    else:
        states[1:] = 0.0
    _scan(states, step)

    lg = l_g.matrix
    loss = np.empty(n_steps + 1)
    for row in range(0, n_steps + 1, chunk):
        theta = states[row:row + chunk, :n]
        np.einsum("ij,ij->i", theta @ lg, theta, out=loss[row:row + chunk])
    np.maximum(loss, 0.0, out=loss)
    for arr in (times, states, loss):
        arr.setflags(write=False)
    return Trajectory(times=times, states=states, instantaneous_loss=loss)


def _scan(states: np.ndarray, step: np.ndarray) -> None:
    """Run x_{t+1} = step x_t + w_t in place over the rows of ``states``.

    On entry row 0 holds x_0 and row t + 1 holds w_t; on exit row t holds
    x_t.  Blocks of K = isqrt(steps) rows are solved side by side.
    """
    n_steps = states.shape[0] - 1
    k = math.isqrt(n_steps)
    n_blocks = n_steps // k
    step_t = step.T
    blocks = states[1:1 + n_blocks * k].reshape(n_blocks, k, -1)
    # each block's response to its own drive from a zero start; the last row
    # of a block is what it carries into the next
    for i in range(1, k):
        blocks[:, i] += blocks[:, i - 1] @ step_t
    # the state just before each block, one jump of K steps at a time
    jump_t = np.linalg.matrix_power(step, k).T
    starts = np.empty((n_blocks, states.shape[1]))
    starts[0] = states[0]
    for j in range(1, n_blocks):
        starts[j] = starts[j - 1] @ jump_t + blocks[j - 1, -1]
    # add the free response of each block's start state
    free = starts
    for i in range(k):
        free = free @ step_t
        blocks[:, i] += free
    for t in range(n_blocks * k, n_steps):
        states[t + 1] += states[t] @ step_t


def empirical_h2(trajectory: Trajectory, config: SimConfig) -> tuple[float, float]:
    """Estimate the squared norm as the post-burn-in time average of the
    loss divided by the noise intensity, with a batch-means standard error.

    Samples after ``config.burn_in`` are split into 20 contiguous batches;
    the standard error is the batch-mean standard deviation over sqrt(20).
    Zero noise intensity divides by one instead, so a quiescent trajectory
    estimates zero.

    Raises:
        ValidationError: fewer than 40 post-burn-in samples.
    """
    dt = trajectory.times[1] - trajectory.times[0]
    mask = trajectory.times >= config.burn_in - dt / 2.0
    samples = trajectory.instantaneous_loss[mask]
    if samples.size < 2 * _N_BATCHES:
        raise ValidationError(
            f"insufficient post-burn-in samples for {_N_BATCHES} batches: got {samples.size}, need {2 * _N_BATCHES}"
        )
    normalizer = config.noise_intensity if config.noise_intensity > 0 else 1.0
    estimate = float(np.mean(samples)) / normalizer
    batch_means = np.array([batch.mean() for batch in np.array_split(samples, _N_BATCHES)])
    stderr = float(np.std(batch_means, ddof=1)) / math.sqrt(_N_BATCHES) / normalizer
    return estimate, stderr


def integrated_loss(trajectory: Trajectory) -> float:
    """Trapezoidal integral of the loss over the whole trajectory."""
    return float(np.trapezoid(trajectory.instantaneous_loss, trajectory.times))


def export_trajectory(trajectory: Trajectory, n_nodes: int, path, stride: int = 1) -> None:
    """Write a trajectory as CSV with 12-significant-digit values.

    Columns: t, loss, theta_1..theta_N, omega_1..omega_N, and Omega_1..
    Omega_N when the state has an integrator block.  ``stride`` keeps every
    stride-th sample (the first is always kept).  Rows are streamed through
    the package's atomic writer, so readers never see a partial file.
    """
    if not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValidationError(f"stride must be a positive integer, got {stride!r}")
    dim = trajectory.states.shape[1]
    if n_nodes < 1 or dim % n_nodes != 0 or dim // n_nodes not in (2, 3):
        raise ValidationError(f"state dimension {dim} is not 2 or 3 blocks of {n_nodes} nodes")
    blocks = dim // n_nodes
    names = ["t", "loss"]
    for block in ("theta", "omega", "Omega")[:blocks]:
        names.extend(f"{block}_{i + 1}" for i in range(n_nodes))
    row_format = ",".join(["%.12g"] * (2 + dim)) + "\n"
    times, loss, states = trajectory.times, trajectory.instantaneous_loss, trajectory.states
    with _atomic_writer(path) as fh:
        fh.write(",".join(names) + "\n")
        for row in range(0, times.size, int(stride)):
            fh.write(row_format % (times[row], loss[row], *states[row].tolist()))


@contextlib.contextmanager
def _atomic_writer(path):
    """Yield a UTF-8 text file that replaces ``path`` only once the block
    completes; on any error the temp file is removed and ``path`` is left
    as it was."""
    fd, tmp_name = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
