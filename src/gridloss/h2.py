"""Steady-state expected resistive loss as a squared H2 system norm.

Under unit-intensity white-noise power disturbances at every bus, the
expected steady-state value of the circulating-current loss theta' L_G theta
equals the squared H2 norm of the closed loop.  Three routes compute it:

* closed form: droop loss is alpha (N-1) / (2 m) independent of topology;
  DAPI loss multiplies each droop mode contribution by a factor in (0, 1)
  that depends on the mode eigenvalue and the controller parameters.
* modal Lyapunov: one 2x2 or 3x3 observability Gramian per nonzero mode,
  summed in eigenvalue order.
* full Gramian: one dense Lyapunov solve on the assembled system after
  deflating the rigid phase-shift direction.

The routes share no linear algebra, so their agreement cross-checks both
the models and the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dynamics import ControllerParams, StateSpace, check_stability, modal_subsystems
from .errors import LyapunovSolveError, StabilityError, ValidationError
from .network import Spectrum

H2_METHODS = ("closed_form", "modal_lyapunov", "full_gramian")


@dataclass(frozen=True)
class H2Result:
    """Squared H2 norm with provenance.

    ``per_mode`` (absent for the full-Gramian route) lists the contribution
    of each nonzero eigenvalue in ascending eigenvalue order; the total is
    their ordered sum.
    """

    squared_norm: float
    method: str
    per_mode: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.method not in H2_METHODS:
            raise ValidationError(f"method must be one of {H2_METHODS}, got {self.method!r}")
        value = float(self.squared_norm)
        if not np.isfinite(value) or value < 0:
            raise ValidationError(f"squared_norm must be finite and >= 0, got {value!r}")
        object.__setattr__(self, "squared_norm", value)
        if self.per_mode is not None:
            pm = np.array(self.per_mode, dtype=float)
            if pm.ndim != 1:
                raise ValidationError(f"per_mode must be a vector, got shape {pm.shape}")
            if np.any(pm < 0) or not np.all(np.isfinite(pm)):
                raise ValidationError("per_mode contributions must be finite and >= 0")
            total = math.fsum(pm)
            if abs(total - value) > 1e-10 * max(value, 1e-300):
                raise ValidationError(
                    f"squared_norm {value!r} is not the sum of per_mode contributions {total!r}"
                )
            pm.setflags(write=False)
            object.__setattr__(self, "per_mode", pm)


def _dapi_mode_factor(lam, m: float, k: float, tau: float, gamma: float):
    """Loss factor in (0, 1) multiplying a droop mode's contribution.

    factor = 1 / (1 + u) with
    u = (gamma tau lam + k) / (gamma lam (gamma tau lam + k) + k^2 m lam).
    Well defined for tau = 0 and gamma = 0 (where it gives the limit value of
    the norm; the gamma = 0 loop itself is marginal and has no finite norm).
    """
    lam = np.asarray(lam, dtype=float)
    s = gamma * tau * lam + k
    u = s / (gamma * lam * s + k * k * m * lam)
    return 1.0 / (1.0 + u)


def h2_droop_closed_form(alpha: float, m: float, n_nodes: int) -> H2Result:
    """Droop loss alpha (N-1) / (2 m): every nonzero mode contributes
    alpha / (2 m) regardless of its eigenvalue, so topology drops out."""
    if not np.isfinite(alpha) or alpha < 0:
        raise ValidationError(f"alpha must be finite and >= 0, got {alpha!r}")
    if not np.isfinite(m) or m <= 0:
        raise ValidationError(f"droop gain m must be > 0, got {m!r}")
    if not isinstance(n_nodes, (int, np.integer)) or n_nodes < 1:
        raise ValidationError(f"n_nodes must be a positive integer, got {n_nodes!r}")
    per_mode = np.full(n_nodes - 1, alpha / (2.0 * m))
    return H2Result(squared_norm=math.fsum(per_mode), method="closed_form", per_mode=per_mode)


def h2_dapi_closed_form(alpha: float, params: ControllerParams, eigenvalues) -> H2Result:
    """DAPI loss from the susceptance Laplacian eigenvalues alone.

    Args:
        alpha: conductance-to-susceptance ratio.
        params: controller parameters; tau = 0 and gamma = 0 are permitted
            here (the formula is the continuous limit).
        eigenvalues: ascending eigenvalues with the zero mode first, as
            produced by spectral_decomposition (a Spectrum is also accepted).
    """
    if not np.isfinite(alpha) or alpha < 0:
        raise ValidationError(f"alpha must be finite and >= 0, got {alpha!r}")
    if isinstance(eigenvalues, Spectrum):
        eigenvalues = eigenvalues.eigenvalues
    w = np.asarray(eigenvalues, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise ValidationError(f"eigenvalues must be a nonempty vector, got shape {w.shape}")
    if np.any(np.diff(w) < 0):
        raise ValidationError("eigenvalues must be ascending with the zero mode first")
    if w[0] != 0.0 or (w.size > 1 and w[1] <= 0.0):
        n_zero = int(np.count_nonzero(w == 0.0))
        raise ValidationError(
            f"exactly one zero eigenvalue expected first (got {n_zero} zeros); "
            "clamp via spectral_decomposition"
        )
    factors = _dapi_mode_factor(w[1:], params.m, params.k, params.tau, params.gamma)
    per_mode = alpha / (2.0 * params.m) * factors
    return H2Result(squared_norm=math.fsum(per_mode), method="closed_form", per_mode=per_mode)


def solve_lyapunov(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve A' X + X A = -Q for Hurwitz A and symmetric Q.

    Systems of size <= 3 go through a direct linear solve over the unique
    entries of X (no Schur form); larger systems use the Bartels-Stewart
    solver.  The residual is checked against 1e-8 of the largest entry of Q.

    Raises:
        StabilityError: A has an eigenvalue with real part >= -1e-10 *
            max(max|A|, 1) (both absolutely and relative to A's scale).
        LyapunovSolveError: residual above tolerance.
    """
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != q.shape:
        raise ValidationError(f"A and Q must be square and same shape, got {a.shape} and {q.shape}")
    q_scale = float(np.max(np.abs(q))) if q.size else 0.0
    if not np.allclose(q, q.T, rtol=0, atol=1e-12 * max(q_scale, 1.0)):
        raise ValidationError("Q must be symmetric")
    eigs = np.linalg.eigvals(a)
    if np.any(eigs.real >= -1e-10 * float(np.max(np.abs(a), initial=1.0))):
        raise StabilityError(
            f"matrix is not safely Hurwitz (max eigenvalue real part {np.max(eigs.real):.3e})"
        )
    if a.shape[0] <= 3:
        x = _solve_lyapunov_small(a, q)
    else:
        x = scipy.linalg.solve_continuous_lyapunov(a.T, -q)
    x = (x + x.T) / 2.0
    residual = float(np.max(np.abs(a.T @ x + x @ a + q)))
    if residual > 1e-8 * max(q_scale, 1e-300):
        raise LyapunovSolveError(
            f"Lyapunov residual {residual:.3e} exceeds tolerance for Q scale {q_scale:.3e}"
        )
    return x


def _solve_lyapunov_small(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    # unknowns: the n(n+1)/2 unique entries of symmetric X
    n = a.shape[0]
    idx = [(i, j) for i in range(n) for j in range(i, n)]
    coeff = np.zeros((len(idx), len(idx)))
    for col, (p, r) in enumerate(idx):
        basis = np.zeros((n, n))
        basis[p, r] = 1.0
        basis[r, p] = 1.0
        image = a.T @ basis + basis @ a
        for row, (i, j) in enumerate(idx):
            coeff[row, col] = image[i, j]
    rhs = np.array([-q[i, j] for i, j in idx])
    unique = np.linalg.solve(coeff, rhs)
    x = np.zeros((n, n))
    for (i, j), value in zip(idx, unique):
        x[i, j] = value
        x[j, i] = value
    return x


def h2_modal(spectrum: Spectrum, params: ControllerParams, alpha: float, kind: str) -> H2Result:
    """Squared norm by per-mode observability Gramians.

    Each nonzero mode contributes B_n' X_n B_n with A_n' X_n + X_n A_n =
    -C_n' C_n; the zero mode is unobservable through the loss output and is
    skipped rather than solved.  Contributions are summed in eigenvalue
    order.

    Raises:
        StabilityError: some mode fails the Routh test (e.g. DAPI with
            gamma = 0), named in the message.
    """
    subsystems = modal_subsystems(spectrum, params, alpha, kind)
    contributions = []
    for sub in subsystems[1:]:
        if not check_stability(params, sub.eigenvalue, kind):
            raise StabilityError(
                f"mode {sub.mode_index} (eigenvalue {sub.eigenvalue:.6g}) is not "
                "asymptotically stable; the steady-state loss is unbounded"
            )
        gram = solve_lyapunov(sub.a, sub.c.T @ sub.c)
        contributions.append((sub.b.T @ gram @ sub.b).item())
    per_mode = np.array(contributions)
    return H2Result(squared_norm=math.fsum(per_mode), method="modal_lyapunov", per_mode=per_mode)


def h2_full_gramian(ss: StateSpace) -> H2Result:
    """Squared norm by one dense Gramian on the assembled system.

    The rigid phase shift (uniform theta direction) is the only marginal
    mode of a healthy loop; it is removed by restricting the theta block to
    the orthogonal complement of the all-ones vector, built from an explicit
    Householder reflector so this route shares no spectral machinery with
    the modal one.  No per-mode breakdown is available here.  The Hurwitz
    verdict on the deflated matrix is the one ``solve_lyapunov`` reaches.

    Raises:
        StabilityError: marginal or unstable modes survive deflation (DAPI
            with gamma = 0, or an unstable parameterization).
    """
    n = ss.n_nodes
    blocks = ss.n_states // n
    basis = _ones_complement_basis(n)
    transform = scipy.linalg.block_diag(basis, *[np.eye(n)] * (blocks - 1))
    a = transform.T @ ss.a @ transform
    b = transform.T @ ss.b
    c = ss.c @ transform
    try:
        gram = solve_lyapunov(a, c.T @ c)
    except StabilityError as err:
        raise StabilityError(
            f"marginal or unstable modes remain after deflating the rigid phase shift ({err}); "
            "for DAPI this typically means gamma = 0"
        ) from err
    squared = float(np.trace(b.T @ gram @ b))
    return H2Result(squared_norm=max(squared, 0.0), method="full_gramian", per_mode=None)


def _ones_complement_basis(n: int) -> np.ndarray:
    """Orthonormal (n, n-1) basis of the complement of the all-ones vector,
    taken from the Householder reflector exchanging e_1 with 1/sqrt(n)."""
    if n == 1:
        return np.zeros((1, 0))
    v = np.full(n, 1.0 / math.sqrt(n))
    v[0] -= 1.0
    reflector = np.eye(n) - 2.0 * np.outer(v, v) / float(v @ v)
    return reflector[:, 1:]
