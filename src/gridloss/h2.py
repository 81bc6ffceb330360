"""Steady-state expected resistive loss as a squared H2 system norm.

Under unit-intensity white-noise power disturbances at every bus, the
expected steady-state value of the circulating-current loss theta' L_G theta
equals the squared H2 norm of the closed loop.  Three routes compute it:

* closed form: droop loss is alpha (N-1) / (2 m) independent of topology;
  DAPI loss multiplies each droop mode contribution by a factor in (0, 1)
  that depends on the mode eigenvalue and the controller parameters.
* modal Lyapunov: one 2x2 or 3x3 observability Gramian per nonzero mode,
  all of them from one batched linear solve, summed in eigenvalue order.
* full Gramian: one dense Lyapunov solve on the assembled system and its
  loss weight L_G after deflating the rigid phase-shift direction.

``solve_lyapunov``, the full Gramian's solver, is Bartels-Stewart with a
recursive blocked triangular stage (Jonsson & Kagstrom 2002, "RECSY").  It
takes the loss weight as its nonzero leading block, factorises a copy of A'
it owns with one LAPACK ``dgees`` call and back-transforms in place, so
the full-Gramian route peaks at about five n x n arrays, the deflated A
included; its docstring has the details and the array accounting.  It
imports ``scipy.linalg`` when it runs, so importing gridloss, and every
command but ``analyze``, loads numpy alone.

The modal route solves each mode's 4 or 9 unknowns as one small linear
system (its Kronecker form), all modes in one batched ``np.linalg.solve``
with one refinement step, and loads no scipy.  It accepts its solutions by
the Hurwitz margin and the residual test of ``solve_lyapunov``, each written
once.  So the two Gramian routes share no solver and neither reads an
eigenvector; the closed form shares no linear algebra with either, so the
agreement of all three cross-checks both the models and the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ControllerParams, StateSpace, check_stability, modal_subsystems
from .errors import LyapunovSolveError, StabilityError, ValidationError
from .network import _ROW_BLOCK, Spectrum, _symmetric_within

H2_METHODS = ("closed_form", "modal_lyapunov", "full_gramian")

# largest block of the full route's triangular solve handed to dtrsyl whole
_LEAF_ROWS = 64


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
            produced by spectral_decomposition or laplacian_eigenvalues (a
            Spectrum is also accepted).
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
            "clamp via spectral_decomposition or laplacian_eigenvalues"
        )
    factors = _dapi_mode_factor(w[1:], params.m, params.k, params.tau, params.gamma)
    per_mode = alpha / (2.0 * params.m) * factors
    return H2Result(squared_norm=math.fsum(per_mode), method="closed_form", per_mode=per_mode)


def solve_lyapunov(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve A' X + X A = -Q for Hurwitz A and symmetric Q.

    Q is either dense (n x n, like A) or its own leading r x r block Q_r,
    standing for Q = blockdiag(Q_r, 0); the full-Gramian route passes the
    (N - 1) x (N - 1) block H' L_G H of its 2N - 1 or 3N - 1 states.  Of
    either form, r is read off Q's trailing zero rows and columns, so a
    dense Q with zeros outside Q_r is solved as its block.

    Bartels-Stewart: one real Schur form A' = U T U' (``_real_schur``)
    serves both the Hurwitz check and the triangular solve T Y + Y T' = -U'
    Q U, with U' Q U formed as U_r' Q_r U_r from the first r rows of U.
    That solve is recursive and blocked (Jonsson & Kagstrom 2002, ACM TOMS
    28(4)): T is cut at its midpoint, one row further where the cut would
    split a 2x2 block; Y22 is solved first, then the Sylvester block T11
    Y12 + Y12 T22' = F12 - T12 Y22, then Y11 from F11 - T12 Y12' - Y12
    T12', with Y21 = Y12'.  Blocks of at most 64 rows go to LAPACK's
    ``dtrsyl``, diagonal ones symmetrised, so for n <= 64 the solve is one
    ``dtrsyl`` call, as in ``scipy.linalg.solve_continuous_lyapunov``.  If
    any block comes back with an overflow scale below 1, the whole equation
    is handed to one ``dtrsyl`` call instead, and its Y, which solves the
    equation scaled by that factor, is divided by it.  X = U Y U' is
    written into Y's own buffer (a C-ordered Y; the whole-matrix ``dtrsyl``
    returns a Fortran-ordered one, which gets a fresh X) and symmetrised,
    so the residual A' X + X A + Q is M + M' + Q from the one product M =
    A' X, checked as a backward error (``_check_residual``).

    Memory, in n x n arrays besides A and the r x r Q: the Schur form holds
    its owned copy of A' (overwritten by T), U and LAPACK's workspace, two;
    the triangular stage works in place on U'QU, and T, U and Y are dropped
    once used; the symmetrisation and the residual run 64 rows at a time.
    The peak, about 3.6, is the triangular stage: T, U, Y and the products
    of its cuts.

    Raises:
        StabilityError: A has an eigenvalue with real part >= -1e-10 *
            max(max|A|, 1) (both absolutely and relative to A's scale).
        LyapunovSolveError: the triangular solve fails, its unscaled
            solution overflows, or the residual is above tolerance.
    """
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    if (a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0
            or q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape[0] > a.shape[0]):
        raise ValidationError(
            f"A must be square and nonempty and Q square and no larger, got {a.shape} and {q.shape}")
    q_scale = float(np.max(np.abs(q))) if q.size else 0.0
    if not _symmetric_within(q, 1e-12 * max(q_scale, 1.0)):
        raise ValidationError("Q must be symmetric")
    t, u = _real_schur(a)
    # LAPACK standardises each 2x2 block of the real Schur form so that both
    # diagonal entries equal the real part of its complex pair
    _check_hurwitz(np.diag(t), a)
    # Q = blockdiag(Q_r, 0) gives U' Q U = U_r' Q_r U_r, U_r the first r rows
    r = int(np.max(np.flatnonzero(q.any(axis=0) | q.any(axis=1)), initial=-1)) + 1
    q = q[:r, :r]
    u_r = u[:r]
    y, scale = _solve_quasi_triangular(t, lambda: u_r.T @ (-q @ u_r))
    del t
    if scale != 1.0:
        try:
            with np.errstate(over="raise"):
                y /= scale
        except FloatingPointError:
            raise LyapunovSolveError(
                f"triangular Sylvester solve overflows: its solution exceeds the float range "
                f"once divided by its scale {scale:.3e}") from None
    uy = u @ y
    # into a Fortran-ordered out the product would not keep its bits
    x = np.matmul(uy, u.T, out=y if y.flags.c_contiguous else None)
    del uy, y, u
    _symmetrise(x)
    # X is exactly symmetric, so X A = (A' X)'
    _check_residual(_max_abs_sum_with_transpose(a.T @ x, q), a, x, q_scale)
    return x


def _real_schur(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, U) with A' = U T U', bit for bit ``scipy.linalg.schur(a.T,
    output="real")``: the same ``dgees`` call with the same queried
    workspace, the same finiteness check and error messages.  It factorises
    an F-ordered copy of A' that it owns in place (which becomes T), and
    its workspace query runs on that copy and is dropped before the
    factorisation, so it holds no spare copy of A and no spare U."""
    import scipy.linalg  # at call time: see the module docstring

    dgees = scipy.linalg.lapack.dgees
    at = np.array(np.asarray_chkfinite(a).T, order="F")
    lwork = int(dgees(_unsorted, at, lwork=-1, overwrite_a=1)[-2][0])
    t, _, _, _, u, _, info = dgees(_unsorted, at, lwork=lwork, overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gees")
    if info > 0:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    return t, u


def _unsorted(re: float, im: float) -> None:
    """``dgees``'s eigenvalue selector, required but unused: no sorting."""


def _symmetrise(x: np.ndarray) -> None:
    """x <- (x + x') / 2 in place, one block of rows and its mirrored
    columns at a time."""
    for lo in range(0, x.shape[0], _ROW_BLOCK):
        hi = lo + _ROW_BLOCK
        half = x[lo:hi, lo:] + x[lo:, lo:hi].T
        half /= 2.0
        x[lo:hi, lo:] = half
        x[lo:, lo:hi] = half.T


def _max_abs_sum_with_transpose(m: np.ndarray, q: np.ndarray) -> float:
    """max|M + M' + Q| for Q = blockdiag(q, 0), one block of rows at a time."""
    peaks = []
    for lo in range(0, m.shape[0], _ROW_BLOCK):
        rows = m[lo:lo + _ROW_BLOCK] + m[:, lo:lo + _ROW_BLOCK].T
        q_rows = q[lo:lo + _ROW_BLOCK]
        rows[:len(q_rows), :q.shape[1]] += q_rows
        peaks.append(np.max(np.abs(rows, out=rows)))
    return np.max(peaks)


def _check_hurwitz(real_parts: np.ndarray, a: np.ndarray) -> None:
    """Refuse the first A of a stack (or one A) whose eigenvalue real parts,
    one row per A, reach -1e-10 max(max|A|, 1), absolutely or relatively."""
    scale = np.max(np.abs(a), axis=(-2, -1), initial=1.0)
    unsafe = np.any(real_parts >= -1e-10 * scale[..., None], axis=-1)
    if np.any(unsafe):
        worst = np.max(real_parts.reshape(-1, real_parts.shape[-1])[np.argmax(unsafe)])
        raise StabilityError(f"matrix is not safely Hurwitz (max eigenvalue real part {worst:.3e})")


def _check_residual(residual, a: np.ndarray, x: np.ndarray, q_scale) -> None:
    """Refuse the first Lyapunov solution X of a stack (or one X) whose
    residual max|A' X + X A + Q| exceeds 1e-8 of 2 max|A| max|X| + max|Q|, the
    scale of the terms it sums: a backward error, so a lightly damped system
    with a large Gramian is judged by the rounding its solve can reach."""
    a_max = np.max(np.abs(a), axis=(-2, -1), initial=0.0)
    terms = 2.0 * a_max * np.max(np.abs(x), axis=(-2, -1), initial=0.0) + q_scale
    failed = ~(residual <= 1e-8 * terms)
    if np.any(failed):
        first = np.argmax(failed)
        raise LyapunovSolveError(f"Lyapunov residual {np.ravel(residual)[first]:.3e} exceeds "
                                 f"tolerance for Q scale {np.ravel(q_scale)[first]:.3e}")


class _Rescaled(Exception):
    """A dtrsyl block scaled its right-hand side down to avoid overflow."""


def _solve_quasi_triangular(t: np.ndarray, rhs) -> tuple[np.ndarray, float]:
    """(Y, scale) with T Y + Y T' = scale F for upper quasi-triangular T and
    symmetric F = ``rhs()``, a fresh array.  Above the leaf size Y is solved
    in place on F and is exactly symmetric; if a block rescales, ``rhs()``
    forms F again for one whole-matrix dtrsyl call, whose solution is
    symmetric up to rounding."""
    f = rhs()
    if t.shape[0] > _LEAF_ROWS:
        try:
            _lyapunov_blocks(t, f)
            return f, 1.0
        except _Rescaled:
            del f  # partly overwritten; freed before F is formed again
            f = rhs()
    import scipy.linalg

    y, scale, info = scipy.linalg.lapack.dtrsyl(t, t, f, tranb="T")
    _check_trsyl_info(info)
    return y, scale


def _lyapunov_blocks(t: np.ndarray, y: np.ndarray) -> None:
    """Overwrite y = F with the solution of T Y + Y T' = F, recursively."""
    n = t.shape[0]
    if n <= _LEAF_ROWS:
        # only the symmetric part of Y is used, and the blocks above take
        # Y21 = Y12': a rounding asymmetry left here, magnified by a lightly
        # damped pair, would make them solve a different equation
        x = _trsyl_block(t, t, y)
        y[...] = (x + x.T) / 2.0
        return
    mid = _cut(t)
    t12 = t[:mid, mid:]
    y12 = y[:mid, mid:]
    _lyapunov_blocks(t[mid:, mid:], y[mid:, mid:])
    y12 -= t12 @ y[mid:, mid:]
    _sylvester_blocks(t[:mid, :mid], t[mid:, mid:], y12)
    g = t12 @ y12.T
    y[:mid, :mid] -= g + g.T
    _lyapunov_blocks(t[:mid, :mid], y[:mid, :mid])
    y[mid:, :mid] = y12.T


def _sylvester_blocks(a: np.ndarray, b: np.ndarray, y: np.ndarray) -> None:
    """Overwrite y = F with the solution of A Y + Y B' = F for upper
    quasi-triangular A and B, splitting the larger dimension."""
    m, n = y.shape
    if max(m, n) <= _LEAF_ROWS:
        y[...] = _trsyl_block(a, b, y)
    elif m >= n:
        mid = _cut(a)
        _sylvester_blocks(a[mid:, mid:], b, y[mid:])
        y[:mid] -= a[:mid, mid:] @ y[mid:]
        _sylvester_blocks(a[:mid, :mid], b, y[:mid])
    else:
        mid = _cut(b)
        _sylvester_blocks(a, b[mid:, mid:], y[:, mid:])
        y[:, :mid] -= y[:, mid:] @ b[:mid, mid:].T
        _sylvester_blocks(a, b[:mid, :mid], y[:, :mid])


def _cut(t: np.ndarray) -> int:
    """Midpoint of T, moved down one row where it would split a 2x2 block."""
    mid = t.shape[0] // 2
    return mid + 1 if t[mid, mid - 1] != 0.0 else mid


def _trsyl_block(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    import scipy.linalg

    x, scale, info = scipy.linalg.lapack.dtrsyl(a, b, c, tranb="T")
    _check_trsyl_info(info)
    if scale < 1.0:
        raise _Rescaled
    return x


def _check_trsyl_info(info: int) -> None:
    # info > 0 (close eigenvalues, perturbed solve) is left to the residual check
    if info < 0:
        raise LyapunovSolveError(f"triangular Sylvester solve rejected argument {-info}")


def h2_modal(spectrum: Spectrum, params: ControllerParams, alpha: float, kind: str) -> H2Result:
    """Squared norm by per-mode observability Gramians.

    Each nonzero mode contributes B_n' X_n B_n with A_n' X_n + X_n A_n =
    -C_n' C_n; the zero mode is unobservable through the loss output and is
    skipped rather than solved.  The Kronecker forms (A_n' (x) I + I (x)
    A_n') vec X_n = -vec(C_n' C_n) of all modes are solved together.  Modes
    are judged in eigenvalue order by the Routh test, then by the Hurwitz
    margin of ``solve_lyapunov``; the solutions must pass its residual test.

    Raises:
        StabilityError: some mode fails the Routh test (e.g. DAPI with
            gamma = 0), named in the message, or is not safely Hurwitz.
        LyapunovSolveError: some mode's residual is above tolerance.
    """
    blocks = modal_subsystems(spectrum, params, alpha, kind)
    lams, a, b, c = blocks.eigenvalues[1:], blocks.a[1:], blocks.b[1:], blocks.c[1:]
    n_stable = next((i for i, lam in enumerate(lams) if not check_stability(params, lam, kind)), lams.size)
    # a margin failure below the first Routh failure is found first
    _check_hurwitz(np.linalg.eigvals(a[:n_stable]).real, a[:n_stable])
    if n_stable < lams.size:
        raise StabilityError(
            f"mode {n_stable + 2} (eigenvalue {lams[n_stable]:.6g}) is not "
            "asymptotically stable; the steady-state loss is unbounded"
        )
    n, s = a.shape[:2]
    at, eye = a.mT, np.eye(s)
    # K vec X = vec(X A + A' X), X's entries in row-major order
    kron = (np.einsum("ik,njl->nijkl", eye, at) + np.einsum("nik,jl->nijkl", at, eye)).reshape(n, s * s, s * s)
    q = c.mT @ c
    rhs = -q.reshape(n, s * s, 1)
    vec = np.linalg.solve(kron, rhs)
    # one step of refinement in working precision makes Gaussian elimination
    # componentwise backward stable (Skeel 1980, Math. Comp. 35(151))
    vec += np.linalg.solve(kron, rhs - kron @ vec)
    gram = vec.reshape(n, s, s)
    residual = np.max(np.abs(at @ gram + gram @ a + q), axis=(-2, -1))
    _check_residual(residual, a, gram, np.max(np.abs(q), axis=(-2, -1)))
    per_mode = (b.mT @ gram @ b)[:, 0, 0]
    return H2Result(squared_norm=math.fsum(per_mode), method="modal_lyapunov", per_mode=per_mode)


def h2_full_gramian(ss: StateSpace) -> H2Result:
    """Squared norm by one dense Gramian on the assembled system.

    The rigid phase shift (uniform theta direction) is the only marginal
    mode of a healthy loop; it is removed by restricting the theta block to
    the orthogonal complement of the all-ones vector, with basis H from an
    explicit Householder reflector, and the weight is Q = blockdiag(H' L_G
    H, 0, ...), handed to ``solve_lyapunov`` as its (N-1) x (N-1) block, so
    this route computes no spectrum.  No per-mode breakdown
    is available here.  The Hurwitz verdict on the deflated matrix is the
    one ``solve_lyapunov`` reaches.

    Raises:
        StabilityError: marginal or unstable modes survive deflation (DAPI
            with gamma = 0, or an unstable parameterization).
    """
    n, states = ss.n_nodes, ss.n_states - 1
    basis = _ones_complement_basis(n)
    # the congruence by blockdiag(basis, I, ...) touches only the theta
    # rows and columns: one product for all theta rows, then one for all
    # theta columns, each written into the one deflated matrix
    a = np.empty((states, states))
    theta_rows = basis.T @ ss.a[:n]
    a[:n - 1, n - 1:] = theta_rows[:, n:]
    a[n - 1:, n - 1:] = ss.a[n:, n:]
    theta_cols = np.concatenate([theta_rows[:, :n], ss.a[n:, :n]])
    del theta_rows
    np.matmul(theta_cols, basis, out=a[:, :n - 1])
    del theta_cols
    try:
        gram = solve_lyapunov(a, basis.T @ ss.l_g.matrix @ basis)
    except StabilityError as err:
        hint = "; for DAPI this typically means gamma = 0" if ss.controller_kind == "dapi" else ""
        raise StabilityError(
            f"marginal or unstable modes remain after deflating the rigid phase shift ({err}){hint}"
        ) from err
    b = np.empty((states, n))
    np.matmul(basis.T, ss.b[:n], out=b[:n - 1])
    b[n - 1:] = ss.b[n:]
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
