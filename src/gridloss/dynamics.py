"""Closed-loop state-space models for droop and DAPI frequency control.

Linearized swing dynamics with a first-order power-measurement filter give a
second-order model per bus under droop control (states: phase deviations
theta, filtered frequency deviations omega) and a third-order model per bus
under DAPI control, which adds a distributed-averaging integral state Omega
communicated over a network proportional to the electrical one.

Each closed loop carries its loss weight, the conductance Laplacian L_G:
the resistive power loss of circulating currents is theta' L_G theta.  Its
controller is read off its shapes: 2N states for droop, 3N for DAPI.
Because all Laplacians commute, both closed loops block-diagonalize in the
eigenbasis of the susceptance Laplacian into independent 2x2 / 3x3 modal
subsystems, one per eigenvalue; the zero eigenvalue's block, the rigid phase
shift, dissipates nothing and is not stacked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AssemblyError, ValidationError
from .network import (Laplacian, NetworkGraph, Spectrum, _check_alpha, _finite, _frozen, spectral_decomposition,
                      susceptance_laplacian)

CONTROLLER_KINDS = ("droop", "dapi")

_TAU_ZERO_MSG = (
    "filter time constant tau is zero: the loop degenerates to first order "
    "and has no state-space form here; use the closed-form norm route"
)


@dataclass(frozen=True)
class ControllerParams:
    """Uniform controller parameters across buses.

    The one place m, k, tau and gamma are checked, each a single number:
    every public function that reads them takes a ``ControllerParams``.

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
            object.__setattr__(self, name, _finite(name, getattr(self, name)))
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
    DAPI) Omega.  The shapes fix the controller: with N = ``b.shape[1]``
    buses, 2N states are the droop loop and 3N the DAPI loop, and any other
    shape is refused.  ``l_g`` is the conductance ``Laplacian``: the loss is
    theta' L_G theta.  ``c`` = [L_G^{1/2}, 0, ...], with ||C x||^2 the loss,
    is built from ``spectral_decomposition(l_g)`` on first access.  A and B
    are kept as handed in when they are already read-only float64 arrays,
    as the assemblers hand them over; anything else is copied.
    """

    a: np.ndarray
    b: np.ndarray
    l_g: Laplacian

    def __post_init__(self) -> None:
        a = _frozen("a", self.a)
        b = _frozen("b", self.b)
        n = b.shape[1] if b.ndim == 2 else 0
        s = b.shape[0] // n if n else 0
        if s not in (2, 3) or a.shape != (s * n, s * n) or b.shape != (s * n, n) or self.l_g.n_nodes != n:
            raise ValidationError(
                f"inconsistent system shapes: A {a.shape}, B {b.shape}, L_G {self.l_g.n_nodes} nodes"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n_nodes(self) -> int:
        return self.b.shape[1]

    @property
    def n_states(self) -> int:
        return self.a.shape[0]

    @property
    def controller_kind(self) -> str:
        """The controller: droop for 2N states, DAPI for 3N."""
        return "droop" if self.n_states == 2 * self.n_nodes else "dapi"

    @cached_property
    def c(self) -> np.ndarray:
        """[L_G^{1/2}, 0, ...], read-only and cached; zero when L_G is.  The
        clamped zero eigenvalue puts the uniform phase in its kernel."""
        n = self.n_nodes
        c = np.zeros((n, self.n_states))
        if self.l_g.matrix.any():
            spectrum, u = spectral_decomposition(self.l_g)
            root = u @ np.diag(np.sqrt(spectrum.eigenvalues)) @ u.T
            c[:, :n] = (root + root.T) / 2.0
        c.setflags(write=False)
        return c


def assemble_droop(graph: NetworkGraph, params: ControllerParams) -> StateSpace:
    """Closed-loop droop system on 2N states (theta, omega).

        A = [[ 0,            I        ],      B = [[ 0   ],
             [ -(m/tau) L_B, -(1/tau) I ]]         [ I/tau]]

    with loss weight L_G = alpha * L_B: bit for bit ``droop_part`` of the
    DAPI system, assembled without it.  Neither k nor gamma enters.  Raises
    AssemblyError when tau == 0 or an entry overflows the float range.
    """
    return _assemble(graph, params, "droop")


def assemble_dapi(graph: NetworkGraph, params: ControllerParams) -> StateSpace:
    """Closed-loop DAPI system on 3N states (theta, omega, Omega).

        A = [[ 0,            I,           0          ],      B = [[ 0    ],
             [ -(m/tau) L_B, -(1/tau) I,  (1/tau) I  ],           [ I/tau ],
             [ 0,            -(1/k) I,    -(1/k) L_C ]]           [ 0    ]]

    with loss weight L_G = alpha * L_B and L_C = gamma * L_B.  Raises
    AssemblyError when tau == 0 or an entry overflows the float range.
    gamma == 0 is assembled: its integrators do not communicate, so the
    loop keeps N-1 marginal modes, and ``h2_full_gramian``, ``h2_modal``
    and ``simulate`` refuse it.
    """
    return _assemble(graph, params, "dapi")


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
    return StateSpace(a=a, b=b, l_g=ss.l_g)


def _assemble(graph: NetworkGraph, params: ControllerParams, kind: str) -> StateSpace:
    """The closed loop of ``assemble_dapi``, or its leading 2N states for
    droop, filled block by block into one matrix.

    Each block holds the bits of the scalar-times-matrix product that
    ``np.block`` would stack, the sign of its zeros included: a negative
    scalar makes -0.0 of the zeros of I and L_B."""
    if params.tau == 0:
        raise AssemblyError(_TAU_ZERO_MSG)
    lb = susceptance_laplacian(graph).matrix
    n = graph.n_nodes
    s = 2 if kind == "droop" else 3
    a = np.zeros((s * n, s * n))

    def block(row: int, col: int) -> np.ndarray:
        return a[row * n:(row + 1) * n, col * n:(col + 1) * n]

    with np.errstate(over="ignore", invalid="ignore"):
        _fill_scaled_eye(block(0, 1), 1.0)
        np.multiply(-(params.m / params.tau), lb, out=block(1, 0))
        _fill_scaled_eye(block(1, 1), -(1.0 / params.tau))
        if kind == "dapi":
            _fill_scaled_eye(block(1, 2), 1.0 / params.tau)
            _fill_scaled_eye(block(2, 1), -(1.0 / params.k))
            l_c = np.multiply(params.gamma, lb, out=block(2, 2))
            l_c *= -(1.0 / params.k)
        g_matrix = graph.alpha * lb
    dapi = {"1/k": block(2, 1), "gamma/k": block(2, 2)} if kind == "dapi" else {}
    _refuse_overflow({"m/tau": block(1, 0), "1/tau": block(1, 1), **dapi, "alpha": g_matrix})
    g_matrix.setflags(write=False)
    l_g = Laplacian(matrix=g_matrix)
    del lb  # so that B is allocated without it
    b = np.zeros((s * n, n))
    np.fill_diagonal(b[n:2 * n], 1.0 / params.tau)
    for arr in (a, b):
        arr.setflags(write=False)
    return StateSpace(a=a, b=b, l_g=l_g)


def _refuse_overflow(scaled: dict[str, np.ndarray]) -> None:
    """Refuse a closed loop with an entry outside the float range, naming
    the scales whose entries overflowed.  Each entry of A, B and the loss
    weight or output that is not passed is 0, 1 or, up to sign, one that
    is."""
    overflowed = [name for name, entries in scaled.items() if not np.isfinite(entries).all()]
    if overflowed:
        raise AssemblyError(
            f"closed loop leaves the float range: its {', '.join(overflowed)} entries overflow")


def _fill_scaled_eye(out: np.ndarray, scale: float) -> None:
    """Write ``scale * np.eye(n)`` into ``out`` with its bits: ``scale`` on
    the diagonal and ``scale * 0.0`` off it."""
    out.fill(scale * 0.0)
    np.fill_diagonal(out, scale)


def modal_subsystems(spectrum: Spectrum, params: ControllerParams, alpha: float,
                     kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-eigenvalue subsystems of the block-diagonalized closed loop.

    For eigenvalue lam the droop block is

        A_n = [[0, 1], [-m lam / tau, -1/tau]],  B_n = [0, 1/tau]',
        C_n = sqrt(alpha lam) [1, 0],

    and the DAPI block appends the averaging state:

        A_n = [[0, 1, 0],
               [-m lam / tau, -1/tau, 1/tau],
               [0, -1/k, -gamma lam / k]],
        B_n = [0, 1/tau, 0]',  C_n = sqrt(alpha lam) [1, 0, 0].

    Returns the read-only stacks (A, B, C), shaped (N-1, s, s), (N-1, s, 1)
    and (N-1, 1, s) for s = 2 (droop) or 3 (DAPI): one block per eigenvalue
    of ``spectrum.nonzero``, in its order.  The zero eigenvalue, rigid phase
    motion, would have a zero output row, dissipates nothing and gets no
    block.  Only eigenvalues are read; ``laplacian_eigenvalues`` serves.

    Raises:
        AssemblyError: tau == 0, or an entry overflows the float range.
    """
    kind = _validated_kind(kind)
    if params.tau == 0:
        raise AssemblyError(_TAU_ZERO_MSG)
    alpha = _check_alpha(alpha)
    m, tau, k, gamma = params.m, params.tau, params.k, params.gamma
    lam = spectrum.nonzero
    n, s = lam.size, 2 if kind == "droop" else 3
    a, b, c = np.zeros((n, s, s)), np.zeros((n, s, 1)), np.zeros((n, 1, s))
    with np.errstate(over="ignore", invalid="ignore"):
        a[:, 0, 1] = 1.0
        a[:, 1, 0] = -m * lam / tau
        a[:, 1, 1] = -1.0 / tau
        if kind == "dapi":
            a[:, 1, 2] = 1.0 / tau
            a[:, 2, 1] = -1.0 / k
            a[:, 2, 2] = -gamma * lam / k
        b[:, 1, 0] = 1.0 / tau
        c[:, 0, 0] = np.sqrt(alpha * lam)
    dapi = {"1/k": a[:, 2, 1], "gamma/k": a[:, 2, 2]} if kind == "dapi" else {}
    _refuse_overflow({"m/tau": a[:, 1, 0], "1/tau": a[:, 1, 1], **dapi, "alpha": c})
    for arr in (a, b, c):
        arr.setflags(write=False)
    return a, b, c


def check_stability(params: ControllerParams, lam: float, kind: str) -> bool:
    """Hurwitz test for one nonzero mode, decided on characteristic
    coefficients alone (Routh conditions, no root finding).

    Droop characteristic: z^2 + z/tau + m lam / tau, stable iff 1/tau > 0
    and m lam / tau > 0.
    DAPI characteristic:  z^3 + p z^2 + q z + r with
        p = gamma lam / k + 1/tau,
        q = (gamma lam + 1)/(k tau) + m lam / tau,
        r = m gamma lam^2 / (k tau),
    stable iff p > 0, r > 0 and p q > r.  Each condition is decided exactly,
    not on coefficients that may under- or overflow: with m, k, tau and lam
    positive, the droop conditions always hold, and so do p > 0 and
    (k tau)^2 (p q - r) = gamma lam tau (gamma lam + 1)
    + k (gamma lam + 1 + k m lam) > 0.  So a droop mode is always stable and
    a DAPI mode iff gamma > 0; gamma = 0 gives r = 0, a marginal integrator
    mode, hence False.  Refuses a lam that is not one finite number > 0.
    """
    kind = _validated_kind(kind)
    lam = _finite("lam", lam)
    if lam <= 0:
        raise ValidationError(f"mode eigenvalue lam must be > 0, got {lam!r} (zero mode is excluded)")
    if params.tau == 0:
        raise AssemblyError(_TAU_ZERO_MSG)
    return kind == "droop" or params.gamma > 0


def _validated_kind(kind: str) -> str:
    if kind not in CONTROLLER_KINDS:
        raise ValidationError(f"kind must be one of {CONTROLLER_KINDS}, got {kind!r}")
    return kind
