"""Closed-loop state-space models for droop and DAPI frequency control.

Linearized swing dynamics with a first-order power-measurement filter give a
second-order model per bus under droop control (states: phase deviations
theta, filtered frequency deviations omega) and a third-order model per bus
under DAPI control, which adds a distributed-averaging integral state Omega
communicated over a network proportional to the electrical one.

Each closed loop carries its loss weight, the conductance Laplacian L_G:
the resistive power loss of circulating currents is theta' L_G theta.
Because all Laplacians commute, both closed loops block-diagonalize in the
eigenbasis of the susceptance Laplacian into independent 2x2 / 3x3 modal
subsystems, one per eigenvalue.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AssemblyError, ValidationError
from .network import Laplacian, NetworkGraph, Spectrum, spectral_decomposition, susceptance_laplacian

CONTROLLER_KINDS = ("droop", "dapi")

_TAU_ZERO_MSG = (
    "filter time constant tau is zero: the loop degenerates to first order "
    "and has no state-space form here; use the closed-form norm route"
)


@dataclass(frozen=True)
class ControllerParams:
    """Uniform controller parameters across buses.

    Args:
        m: frequency droop gain, > 0.
        tau: power measurement filter time constant, >= 0 (state-space
            assembly requires > 0; 0 is meaningful only in closed forms).
        k: DAPI integral time constant, > 0.
        gamma: communication-to-susceptance gain ratio, >= 0.
    """

    m: float
    tau: float
    k: float = 1.0
    gamma: float = 1.0

    def __post_init__(self) -> None:
        for name in ("m", "tau", "k", "gamma"):
            value = float(getattr(self, name))
            if not np.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.m <= 0:
            raise ValidationError(f"droop gain m must be > 0, got {self.m}")
        if self.k <= 0:
            raise ValidationError(f"integral constant k must be > 0, got {self.k}")
        if self.tau < 0:
            raise ValidationError(f"filter time constant tau must be >= 0, got {self.tau}")
        if self.gamma < 0:
            raise ValidationError(f"communication gain gamma must be >= 0, got {self.gamma}")


@dataclass(frozen=True)
class StateSpace:
    """Closed-loop LTI system (A, B) with unit-intensity disturbance input.

    State ordering is block-wise: theta block first, then omega, then (for
    DAPI) Omega.  ``l_g`` is the conductance ``Laplacian``: the loss is
    theta' L_G theta.  ``c`` = [L_G^{1/2}, 0, ...], with ||C x||^2 the loss,
    is built from ``spectral_decomposition(l_g)`` on first access.  A and B
    are kept as handed in when they are already read-only float64 arrays,
    as the assemblers hand them over; anything else is copied.
    """

    a: np.ndarray
    b: np.ndarray
    l_g: Laplacian
    controller_kind: str

    def __post_init__(self) -> None:
        if self.controller_kind not in CONTROLLER_KINDS:
            raise ValidationError(f"controller_kind must be one of {CONTROLLER_KINDS}")
        a = _frozen(self.a)
        b = _frozen(self.b)
        blocks = 2 if self.controller_kind == "droop" else 3
        n = b.shape[1] if b.ndim == 2 else 0
        if a.shape != (blocks * n, blocks * n) or b.shape != (blocks * n, n) or self.l_g.n_nodes != n:
            raise ValidationError(
                f"inconsistent {self.controller_kind} system shapes: A {a.shape}, B {b.shape}, L_G {self.l_g.n_nodes} nodes"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n_nodes(self) -> int:
        return self.b.shape[1]

    @property
    def n_states(self) -> int:
        return self.a.shape[0]

    @cached_property
    def c(self) -> np.ndarray:
        """[L_G^{1/2}, 0, ...], read-only and cached; zero when L_G is.  The
        clamped zero eigenvalue puts the uniform phase in its kernel."""
        n = self.n_nodes
        c = np.zeros((n, self.n_states))
        if self.l_g.matrix.any():
            spectrum = spectral_decomposition(self.l_g)
            u = spectrum.eigenvectors
            root = u @ np.diag(np.sqrt(spectrum.eigenvalues)) @ u.T
            c[:, :n] = (root + root.T) / 2.0
        c.setflags(write=False)
        return c


@dataclass(frozen=True)
class ModalBlocks:
    """Every eigenvalue's 2x2 (droop) or 3x3 (DAPI) subsystem, stacked.

    ``a`` (N, s, s), ``b`` (N, s, 1) and ``c`` (N, 1, s) hold the blocks of
    ``eigenvalues[i]``, in the ascending order of the originating spectrum;
    the first carries the zero eigenvalue and has a zero output row.  The
    arrays are read-only.
    """

    eigenvalues: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        for name in ("eigenvalues", "a", "b", "c"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        n = self.eigenvalues.size if self.eigenvalues.ndim == 1 else -1
        s = self.a.shape[-1] if self.a.ndim == 3 else 0
        shapes = (self.eigenvalues.shape, self.a.shape, self.b.shape, self.c.shape)
        if s not in (2, 3) or shapes[1:] != ((n, s, s), (n, s, 1), (n, 1, s)):
            raise ValidationError("inconsistent modal shapes: eigenvalues {}, A {}, B {}, C {}".format(*shapes))


def assemble_droop(graph: NetworkGraph, params: ControllerParams) -> StateSpace:
    """Closed-loop droop system on 2N states (theta, omega).

        A = [[ 0,            I        ],      B = [[ 0   ],
             [ -(m/tau) L_B, -(1/tau) I ]]         [ I/tau]]

    with loss weight L_G = alpha * L_B: ``droop_part`` of the DAPI system.
    Neither k nor gamma enters.  Raises AssemblyError when tau == 0.
    """
    return droop_part(_assemble(graph, params))


def assemble_dapi(graph: NetworkGraph, params: ControllerParams) -> StateSpace:
    """Closed-loop DAPI system on 3N states (theta, omega, Omega).

        A = [[ 0,            I,           0          ],      B = [[ 0    ],
             [ -(m/tau) L_B, -(1/tau) I,  (1/tau) I  ],           [ I/tau ],
             [ 0,            -(1/k) I,    -(1/k) L_C ]]           [ 0    ]]

    with loss weight L_G = alpha * L_B and L_C = gamma * L_B.  Raises
    AssemblyError when tau == 0.  gamma == 0 is assembled but flagged with a
    warning: the averaging layer then contributes N-1 marginal modes and
    every norm route will refuse the system.
    """
    ss = _assemble(graph, params)
    if params.gamma == 0:
        warnings.warn(
            "gamma is zero: integrator states do not communicate, the closed "
            "loop keeps N-1 marginal modes and has no finite steady-state loss",
            RuntimeWarning,
            stacklevel=2,
        )
    return ss


def droop_part(ss: StateSpace) -> StateSpace:
    """The droop loop inside a closed loop: its leading 2N rows and columns
    (theta, omega), bit for bit, with the same loss weight.  The DAPI
    integrator enters the droop blocks nowhere, so one DAPI assembly serves
    both controllers.  A and B are contiguous copies, so the droop system
    does not keep the larger one alive."""
    s = 2 * ss.n_nodes
    a, b = ss.a[:s, :s].copy(), ss.b[:s].copy()
    for arr in (a, b):
        arr.setflags(write=False)
    return StateSpace(a=a, b=b, l_g=ss.l_g, controller_kind="droop")


def _assemble(graph: NetworkGraph, params: ControllerParams) -> StateSpace:
    if params.tau == 0:
        raise AssemblyError(_TAU_ZERO_MSG)
    lb = susceptance_laplacian(graph).matrix
    n = graph.n_nodes
    eye = np.eye(n)
    zero = np.zeros((n, n))
    a = np.block([
        [zero, eye, zero],
        [-(params.m / params.tau) * lb, -(1.0 / params.tau) * eye, (1.0 / params.tau) * eye],
        [zero, -(1.0 / params.k) * eye, -(1.0 / params.k) * (params.gamma * lb)],
    ])
    b = np.vstack([zero, eye / params.tau, zero])
    l_g = Laplacian(matrix=graph.alpha * lb, kind="conductance")
    for arr in (a, b):
        arr.setflags(write=False)
    return StateSpace(a=a, b=b, l_g=l_g, controller_kind="dapi")


def _frozen(values) -> np.ndarray:
    """Read-only float64 array of ``values``.  An array that is already
    read-only float64 is kept as it is; anything else is copied, so a
    caller's writeable array is never frozen."""
    arr = np.asarray(values)
    if arr.dtype != np.float64 or arr.flags.writeable:
        arr = np.array(arr, dtype=float)
        arr.setflags(write=False)
    return arr


def modal_subsystems(spectrum: Spectrum, params: ControllerParams, alpha: float, kind: str) -> ModalBlocks:
    """Per-eigenvalue subsystems of the block-diagonalized closed loop.

    For eigenvalue lam the droop block is

        A_n = [[0, 1], [-m lam / tau, -1/tau]],  B_n = [0, 1/tau]',
        C_n = sqrt(alpha lam) [1, 0],

    and the DAPI block appends the averaging state:

        A_n = [[0, 1, 0],
               [-m lam / tau, -1/tau, 1/tau],
               [0, -1/k, -gamma lam / k]],
        B_n = [0, 1/tau, 0]',  C_n = sqrt(alpha lam) [1, 0, 0].

    The zero eigenvalue gets a zero output row: rigid phase motion
    dissipates nothing.  Only eigenvalues are read; ``laplacian_eigenvalues``
    serves.
    """
    kind = _validated_kind(kind)
    if params.tau == 0:
        raise AssemblyError(_TAU_ZERO_MSG)
    if not np.isfinite(alpha) or alpha < 0:
        raise ValidationError(f"alpha must be finite and >= 0, got {alpha!r}")
    m, tau, k, gamma = params.m, params.tau, params.k, params.gamma
    lam = spectrum.eigenvalues
    n, s = lam.size, 2 if kind == "droop" else 3
    a, b, c = np.zeros((n, s, s)), np.zeros((n, s, 1)), np.zeros((n, 1, s))
    a[:, 0, 1] = 1.0
    a[:, 1, 0] = -m * lam / tau
    a[:, 1, 1] = -1.0 / tau
    if kind == "dapi":
        a[:, 1, 2] = 1.0 / tau
        a[:, 2, 1] = -1.0 / k
        a[:, 2, 2] = -gamma * lam / k
    b[:, 1, 0] = 1.0 / tau
    c[:, 0, 0] = np.sqrt(alpha * lam)
    for arr in (a, b, c):
        arr.setflags(write=False)
    return ModalBlocks(eigenvalues=lam, a=a, b=b, c=c)


def check_stability(params: ControllerParams, lam: float, kind: str) -> bool:
    """Hurwitz test for one nonzero mode, decided on characteristic
    coefficients alone (Routh conditions, no root finding).

    Droop characteristic: z^2 + z/tau + m lam / tau.
    DAPI characteristic:  z^3 + p z^2 + q z + r with
        p = gamma lam / k + 1/tau,
        q = (gamma lam + 1)/(k tau) + m lam / tau,
        r = m gamma lam^2 / (k tau),
    stable iff p > 0, r > 0 and p q > r.  gamma = 0 gives r = 0, a marginal
    integrator mode, hence False.
    """
    kind = _validated_kind(kind)
    lam = float(lam)
    if not np.isfinite(lam) or lam <= 0:
        raise ValidationError(f"mode eigenvalue must be > 0, got {lam!r} (zero mode is excluded)")
    if params.tau == 0:
        raise AssemblyError(_TAU_ZERO_MSG)
    m, tau, k, gamma = params.m, params.tau, params.k, params.gamma
    if kind == "droop":
        return 1.0 / tau > 0 and m * lam / tau > 0
    p = gamma * lam / k + 1.0 / tau
    q = (gamma * lam + 1.0) / (k * tau) + m * lam / tau
    r = m * gamma * lam * lam / (k * tau)
    return p > 0 and r > 0 and p * q > r


def verify_modal_equivalence(ss: StateSpace, blocks: ModalBlocks, spectrum: Spectrum) -> float:
    """Largest entrywise gap between the congruence-transformed full A and
    the block diagonal of the modal blocks.

    Transforms A by blockdiag(U, U[, U]), reorders states mode-by-mode and
    compares against blockdiag(A_1, ..., A_N).  Values at rounding level
    certify that the modal route analyzes the same system as the full one.
    """
    s = 2 if ss.controller_kind == "droop" else 3
    n = spectrum.n_nodes
    if ss.n_states != s * n or blocks.a.shape != (n, s, s):
        raise ValidationError(
            f"dimension mismatch: {ss.controller_kind} system with {ss.n_states} states, "
            f"{n}-node spectrum, modal blocks of shape {blocks.a.shape}"
        )
    # the modal blocks are the closed loop in the eigenvector basis, so an
    # eigenvalue-only spectrum cannot stand for that basis
    if spectrum.eigenvectors is None:
        raise ValidationError(
            "spectrum has no eigenvectors; build it with spectral_decomposition, not laplacian_eigenvalues"
        )
    t = np.kron(np.eye(s), spectrum.eigenvectors)
    # state (block, mode) of the transformed A, indexed [mode, block, mode', block']
    m = (t.T @ ss.a @ t).reshape(s, n, s, n).transpose(1, 0, 3, 2)
    modes = np.arange(n)
    m[modes, :, modes, :] -= blocks.a
    return float(np.max(np.abs(m)))


def _validated_kind(kind: str) -> str:
    if kind not in CONTROLLER_KINDS:
        raise ValidationError(f"kind must be one of {CONTROLLER_KINDS}, got {kind!r}")
    return kind
