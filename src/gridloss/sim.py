"""Stochastic time-domain validation of the loss analysis.

Integrates dx = A x dt + B dW with an Euler-Maruyama scheme under white
power disturbances of configurable intensity, stores the instantaneous
resistive loss theta' L_G theta with the path, and estimates its long-run
average for comparison against the analytic norms.  The uniform phase
component is unobservable and performs a random walk, so every step
recentres the phase block to zero mean.  The recentring is a linear
projection P, folded into the step matrix M = P (I + dt A); the whole path
is then the linear recursion x_{t+1} = M x_t + G xi_t, which ``simulate``
runs as a blocked scan over time rather than one Python iteration per step.

``export_trajectory`` writes the path as CSV, each value exactly as
``'%.12g'`` writes it, without a Python call per value: blocks of about 2**14
values are scaled by exact powers of ten and rounded with numpy, which is
provably the correctly rounded 12-digit result for all but about 0.2% of a
trajectory's values; those (zeros, ties, exponent form, non-finite values)
go through Python's own '%.12g'.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .dynamics import StateSpace
from .errors import FloatRangeError, StepSizeError, ValidationError
from .h2 import _deflated_eigenvalues
from .network import _check_seed, _count, _finite, _float_array, _frozen, _generator

_N_BATCHES = 20


@dataclass(frozen=True)
class SimConfig:
    """Integration settings.

    Args:
        dt: step size, > 0 and at most horizon/100.
        horizon: final time, > 0 (rounded to a whole number of steps, which
            must be finite).
        burn_in: time discarded by the loss estimator, in [0, horizon).
        noise_intensity: disturbance power spectral density scale, >= 0.
        seed: RNG seed, a non-negative integer or a nonempty tuple of them
            (numpy's rule); trajectories are bit-identical for a fixed seed.
        initial_state: optional start vector (defaults to the origin).
    """

    dt: float
    horizon: float
    burn_in: float = 0.0
    noise_intensity: float = 1.0
    seed: int | tuple[int, ...] = 0
    initial_state: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("dt", "horizon", "burn_in", "noise_intensity"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))
        if self.dt <= 0:
            raise ValidationError(f"dt must be > 0, got {self.dt}")
        if self.horizon <= 0:
            raise ValidationError(f"horizon must be > 0, got {self.horizon}")
        if not np.isfinite(self.horizon / self.dt):
            raise ValidationError(
                f"horizon / dt must be a finite number of steps, got horizon {self.horizon} and dt {self.dt}")
        if not (0.0 <= self.burn_in < self.horizon):
            raise ValidationError(f"burn_in must lie in [0, horizon), got {self.burn_in}")
        if self.dt > self.horizon / 100.0 * (1.0 + 1e-12):
            raise ValidationError(
                f"dt = {self.dt} too coarse: at least 100 steps required (horizon {self.horizon})"
            )
        if self.noise_intensity < 0:
            raise ValidationError(f"noise_intensity must be >= 0, got {self.noise_intensity}")
        _check_seed(self.seed)
        if not isinstance(self.seed, tuple):
            object.__setattr__(self, "seed", int(self.seed))
        if self.initial_state is not None:
            x0 = np.array(_float_array("initial_state", self.initial_state))
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
        t, x, loss = (_frozen(name, getattr(self, name)) for name in ("times", "states", "instantaneous_loss"))
        if t.ndim != 1 or x.ndim != 2 or loss.ndim != 1:
            raise ValidationError("times and loss must be vectors, states a matrix")
        if x.shape[0] != t.size or loss.size != t.size:
            raise ValidationError(
                f"length mismatch: {t.size} times, {x.shape[0]} states, {loss.size} loss samples"
            )
        if not np.isfinite(t).all():  # np.diff would warn on inf - inf, and NaN passes its test
            raise ValidationError("times must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValidationError("times must be strictly increasing")
        if np.any(loss < 0) or not np.all(np.isfinite(loss)):
            raise ValidationError("loss samples must be finite and >= 0")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", x)
        object.__setattr__(self, "instantaneous_loss", loss)


def phase_perturbation(n_nodes: int, n_states: int, scale: float, seed: int | tuple[int, ...]) -> np.ndarray:
    """Initial state with a random zero-mean phase block and zero elsewhere.

    Used for decay experiments: draw a standard normal phase vector, remove
    its mean, scale it, and leave all frequency and integrator states at
    zero.  Refuses by name an n_nodes that is not a positive integer, an
    n_states not 2 or 3 times it, and a scale not finite and >= 0.

    Raises:
        FloatRangeError: the scaled phases overflow (the scale is named).
    """
    n_nodes, n_states, scale = _count("n_nodes", n_nodes), _count("n_states", n_states), _finite("scale", scale)
    if n_states not in (2 * n_nodes, 3 * n_nodes):
        raise ValidationError(f"n_states must be 2 or 3 times n_nodes, got {n_states} for {n_nodes}")
    if scale < 0:
        raise ValidationError(f"scale must be finite and >= 0, got {scale!r}")
    rng = _generator(seed)
    z = rng.standard_normal(n_nodes)
    z -= z.mean()
    x0 = np.zeros(n_states)
    with np.errstate(over="ignore"):
        x0[:n_nodes] = scale * z
    if not np.isfinite(x0).all():
        raise FloatRangeError(f"the initial phase perturbation leaves the float range (scale {scale:g})")
    return x0


def simulate(ss: StateSpace, config: SimConfig) -> Trajectory:
    """Euler-Maruyama integration of the closed loop under white noise,
    with the loss theta' L_G theta weighted by the system's own ``l_g``.

    The step map is x <- x + dt A x + sqrt(dt noise_intensity) B xi with
    standard normal xi, after which the phase block is recentred to zero
    mean (the uniform phase direction is a pure random walk and carries no
    loss).  The recentring is the projection P inside the step matrix, so a
    step is x <- M x + G xi with M = P (I + dt A) and G = sqrt(dt
    noise_intensity) P B.  On the range of P, M is I + dt A~ with A~ the
    deflated loop of ``h2.h2_full_gramian``: A~ must pass that route's
    Hurwitz rule, and dt must put its eigenvalues z in |1 + dt z| < 1.

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
        StabilityError: the deflated loop is not safely Hurwitz.
        StepSizeError: dt outside the stability region of the scheme, with
            the largest usable step in the message.
        FloatRangeError: the loss leaves the float range (the noise
            intensity, the initial state or L_G is too large for it).
    """
    n = ss.n_nodes
    eigs = _deflated_eigenvalues(ss)
    if np.any(np.abs(1.0 + config.dt * eigs) >= 1.0):
        dt_max = float(np.min(-2.0 * eigs.real / np.abs(eigs) ** 2))
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
        rng = _generator(config.seed)
        drive = noise_scale * ss.b
        drive[:n] -= drive[:n].mean(axis=0)
        for row in range(1, n_steps + 1, chunk):
            rows = states[row:row + chunk]
            np.matmul(rng.standard_normal((rows.shape[0], n)), drive.T, out=rows)
    else:
        states[1:] = 0.0
    # a path at the edge of the float range may overflow; its loss is judged
    with np.errstate(over="ignore", invalid="ignore"):
        _scan(states, step)
        lg = ss.l_g.matrix
        loss = np.empty(n_steps + 1)
        for row in range(0, n_steps + 1, chunk):
            theta = states[row:row + chunk, :n]
            np.einsum("ij,ij->i", theta @ lg, theta, out=loss[row:row + chunk])
    finite = np.isfinite(loss)
    if not finite.all():
        raise FloatRangeError(f"the simulated loss leaves the float range at t = {times[np.argmin(finite)]:.6g}; "
                              f"it grows with the noise intensity ({config.noise_intensity:.6g}), "
                              "the initial state and alpha")
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
        FloatRangeError: the estimate or its standard error overflows.
    """
    times = trajectory.times
    # a one-sample trajectory has no step, and too few samples either way
    dt = times[1] - times[0] if times.size > 1 else 0.0
    samples = trajectory.instantaneous_loss[times >= config.burn_in - dt / 2.0]
    if samples.size < 2 * _N_BATCHES:
        raise ValidationError(
            f"insufficient post-burn-in samples for {_N_BATCHES} batches: got {samples.size}, need {2 * _N_BATCHES}"
        )
    normalizer = config.noise_intensity if config.noise_intensity > 0 else 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        estimate = float(np.mean(samples)) / normalizer
        batch_means = np.array([batch.mean() for batch in np.array_split(samples, _N_BATCHES)])
        stderr = float(np.std(batch_means, ddof=1)) / math.sqrt(_N_BATCHES) / normalizer
    if not (math.isfinite(estimate) and math.isfinite(stderr)):
        raise FloatRangeError(f"the empirical squared norm or its standard error leaves the float range "
                              f"(noise intensity {config.noise_intensity:.6g})")
    return estimate, stderr


def integrated_loss(trajectory: Trajectory) -> float:
    """Trapezoidal integral of the loss over the whole trajectory.

    Raises:
        FloatRangeError: the integral overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.trapezoid(trajectory.instantaneous_loss, trajectory.times))
    if not math.isfinite(total):
        raise FloatRangeError("the integrated loss leaves the float range")
    return total


def export_trajectory(trajectory: Trajectory, n_nodes: int, path, stride: int = 1) -> None:
    """Write a trajectory as CSV with 12-significant-digit values.

    Columns: t, loss, theta_1..theta_N, omega_1..omega_N, and Omega_1..
    Omega_N when the state has an integrator block.  ``stride`` keeps every
    stride-th sample (the first is always kept); it and ``n_nodes`` are
    positive integers, refused by name otherwise.  Every value is written
    exactly as ``'%.12g' % value`` writes it.

    The kept rows are formatted in blocks of whole rows, about 2**14 values
    each, by ``_format_12g`` (numpy, no Python call per value), so the
    export's extra memory stays near 2 MB however long the path is.  Each
    block is written through the package's atomic writer, so readers never
    see a partial file.
    """
    n_nodes, stride = _count("n_nodes", n_nodes), _count("stride", stride)
    dim = trajectory.states.shape[1]
    if dim % n_nodes != 0 or dim // n_nodes not in (2, 3):
        raise ValidationError(f"state dimension {dim} is not 2 or 3 blocks of {n_nodes} nodes")
    names = ["t", "loss", *(f"{block}_{i + 1}" for block in ("theta", "omega", "Omega")[:dim // n_nodes]
                            for i in range(n_nodes))]
    times, loss, states = trajectory.times, trajectory.instantaneous_loss, trajectory.states
    step = max(1, _BLOCK_VALUES // (2 + dim)) * stride
    with _atomic_writer(path) as fh:
        fh.write(",".join(names) + "\n")
        for start in range(0, times.size, step):
            rows = slice(start, start + step, stride)
            table = np.column_stack((times[rows], loss[rows], states[rows]))
            fh.write(_format_12g(table))


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The text of each 4-digit group 0000..9999 as one uint32 of 4 ASCII
    bytes, built from the 100 digit pairs; and, for a group that is the 1st,
    2nd or 3rd of 12 digits, how many of the 12 run up to its last nonzero
    digit (0 for 0000).  Built on the first export, not at import, and
    read-only, since every later call gets the same arrays."""
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)
    text = np.stack(np.meshgrid(pairs, pairs, indexing="ij"), axis=-1).view(np.uint32).ravel()
    group = np.arange(10000, dtype=np.int16)
    digits = np.int8(4) - (group % 10 == 0) - (group % 100 == 0) - (group % 1000 == 0)
    significant = np.array([np.where(group > 0, 4 * i + digits, 0) for i in range(3)], np.uint8)
    for arr in (text, significant):
        arr.setflags(write=False)
    return text, significant


# _format_12g: values per block and the powers of ten it scales by (all
# exact in binary64)
_BLOCK_VALUES = 1 << 14
_POW10 = 10.0 ** np.arange(16)
# a value's text sits in columns 1..19 of a 21-column row, column 0 holds
# '-' and column 1 + length the separator; row 20 * negative + length of
# _KEEP marks the columns that go out
_WIDTH = 21
_KEEP = np.array([[1 - neg <= j <= length + 1 for j in range(_WIDTH)]
                  for neg in (0, 1) for length in range(_WIDTH - 1)])
_FALLBACK = np.iinfo(np.int8).max
# the fixed-point exponents, and one past the last to bound its group
_EXPONENTS = np.arange(-4, 13, dtype=np.int8)


def _format_12g(table: np.ndarray) -> str:
    """The rows of a 2-D float table as CSV text: ``'%.12g' % v`` of every
    value, byte for byte, commas between values and a newline after each row.

    '%.12g' writes a value with exponent e = floor(log10|v|) in -4..11 in
    fixed point, from the 12-digit integer D nearest to |v| * 10**(11 - e).
    That power of ten is exact, so the product s rounds once: it lies below
    1e12 < 2**40, and its error is at most half an ulp, 2**-14 ~ 6.1e-5.
    Where s lies in [1e11, 1e12) and its fraction is more than 1e-3 from .5,
    rint(s) is therefore D.  A log10 one too low gives s >= 1e12.  One too
    high gives s < 1e11, or s within 6.1e-5 below it, where D = 1e11 is
    again right: the value rounds up to 10**e at 12 digits.  Every other
    value (zero, non-finite, written in e+XX form, within 1e-3 of a tie, or
    rounding up to 1e12), about 0.2% of a trajectory, is formatted by
    Python's own '%.12g'.

    The digits of D come from three lookups of 4-digit groups.  Values are
    sorted by exponent, so each exponent's layout is a few slice copies;
    trailing zeros, the sign and the unused columns are then dropped by one
    length mask.  Every array has the table's size, not a size that depends
    on the values.
    """
    n_rows, n_cols = table.shape
    values = table.reshape(-1)
    exponent, rounded, exact = _twelve_digits(values)
    # exact values sorted by exponent, fallback values last
    order = np.argsort(np.where(exact, exponent, _FALLBACK).astype(np.int8), kind="stable")
    text, length = _lay_out(exponent[order], rounded[order])
    n_exact = int(np.count_nonzero(exact))
    if n_exact < values.size:
        fallback = [b"%.12g" % values[i] for i in order[n_exact:].tolist()]
        padded = b"".join(f.ljust(_WIDTH - 2) for f in fallback)
        text[n_exact:, 1:_WIDTH - 1] = np.frombuffer(padded, np.uint8).reshape(-1, _WIDTH - 2)
        length[n_exact:] = np.frombuffer(bytes(len(f) for f in fallback), np.uint8)

    # back to table order; the separator goes right after each value
    out = np.empty_like(text)
    out.view(f"V{_WIDTH}").reshape(-1)[order] = text.view(f"V{_WIDTH}").reshape(-1)
    length[order] = length.copy()
    separators = np.full((n_rows, n_cols), ord(","), np.uint8)
    separators[:, -1] = ord("\n")
    out.reshape(-1)[np.arange(1, values.size * _WIDTH, _WIDTH) + length] = separators.reshape(-1)
    keep = _KEEP.take((np.signbit(values) & exact) * np.uint8(_WIDTH - 1) + length, axis=0)
    return str(out[keep], "ascii")


def _twelve_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each value's exponent e, |value| * 10**(11 - e) rounded to an integer,
    and whether that integer is certainly the 12 digits '%.12g' prints in
    fixed point (see ``_format_12g``).  Where it is not, e is 11 and the
    integer 1e11."""
    magnitude = np.abs(values)
    # log10 of 0 and of non-finite values, and inf - inf, warn; those values
    # all go to the fallback
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        exponent = np.floor(np.log10(magnitude))
        exact = (exponent >= -4) & (exponent <= 11)
        exponent[~exact] = 11.0
        scaled = magnitude * _POW10.take((11.0 - exponent).astype(np.intp))
        rounded = np.rint(scaled)
        exact &= (scaled >= 1e11) & (rounded < 1e12) & (np.abs(scaled - rounded) <= 0.499)
    exponent[~exact] = 11.0
    rounded[~exact] = 1e11
    return exponent.astype(np.int8), rounded, exact


def _lay_out(exponent: np.ndarray, rounded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Text rows (one per value, _WIDTH columns: '-' in column 0, the value
    in fixed point from column 1 on) and text lengths of values given by
    ascending exponent in -4..11 and 12-digit integer."""
    whole = rounded.astype(np.int64)
    head = whole // 100_000_000
    tail = (whole - head * 100_000_000).astype(np.int32)
    middle = tail // 10_000
    low = tail - middle * 10_000
    group_text, group_significant = _digit_tables()
    digits = np.column_stack((group_text[head], group_text[middle], group_text[low])).view(np.uint8)
    # how many of the 12 digits are left once trailing zeros are stripped
    significant = np.maximum(np.maximum(group_significant[0].take(head), group_significant[1].take(middle)),
                             group_significant[2].take(low))
    # the length of each layout: for e >= 0, e + 1 integer digits and the
    # fraction's point and digits if any are left; for e < 0, '0.', -e - 1
    # zeros and the digits
    integer = np.maximum(exponent, 0) + 1
    length = np.where(significant > integer, significant + 1, integer).astype(np.uint8)
    fraction = exponent < 0
    length[fraction] = significant[fraction] - exponent[fraction] + 1

    text = np.empty((exponent.size, _WIDTH), np.uint8)
    text[:, 0] = ord("-")
    starts = np.searchsorted(exponent, _EXPONENTS, side="left").tolist()
    for e, lo, hi in zip(_EXPONENTS.tolist(), starts, starts[1:]):
        part, digs = text[lo:hi], digits[lo:hi]
        if e >= 0:
            part[:, 1:e + 2] = digs[:, :e + 1]
            part[:, e + 2] = ord(".")
            part[:, e + 3:14] = digs[:, e + 1:]
        else:
            lead = 1 - e
            part[:, 1:1 + lead] = ord("0")
            part[:, 2] = ord(".")
            part[:, 1 + lead:13 + lead] = digs
    return text, length


@contextlib.contextmanager
def _atomic_writer(path):
    """Yield a UTF-8 text file that replaces ``path`` only once the block
    completes; on any error the temp file is removed and ``path`` is left
    as it was.  The file gets the mode ``open`` would give a new file,
    0o666 less the umask, not the temp file's private 0o600."""
    try:
        fd, tmp_name = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    except OSError as err:
        raise _naming(err, path) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        # the umask can only be read by setting it
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_name, 0o666 & ~umask)
        try:
            os.replace(tmp_name, path)
        except OSError as err:
            raise _naming(err, path) from None
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def _naming(err: OSError, path) -> OSError:
    """``err`` with ``path`` as its one file name: the temp file's random
    name would make the message differ from run to run."""
    return OSError(err.errno, err.strerror, os.fspath(path))
