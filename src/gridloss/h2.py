"""Steady-state expected resistive loss as a squared H2 system norm.

Under unit-intensity white-noise power disturbances at every bus, the
expected steady-state value of the circulating-current loss theta' L_G theta
equals the squared H2 norm of the closed loop.  Three routes compute it:

* closed form: droop loss is alpha (N-1) / (2 m) independent of topology;
  DAPI loss multiplies each droop mode contribution by a factor in (0, 1)
  that depends on the mode eigenvalue, read from a ``Spectrum``, and the
  controller parameters.
* modal Lyapunov: one 2x2 or 3x3 observability Gramian per nonzero mode,
  all of them from one batched linear solve, summed in eigenvalue order.
* full Gramian: one dense Lyapunov solve on the assembled system and its
  loss weight L_G after deflating the rigid phase-shift direction.

``solve_lyapunov``, the full Gramian's solver, is Bartels-Stewart with a
recursive blocked triangular stage (Jonsson & Kagstrom 2002, "RECSY").  It
takes the loss weight as its nonzero leading block, factorises A' with one
LAPACK ``dgees`` call and back-transforms in place.  The full-Gramian route
hands it the deflation as a callable, so the deflated A's own buffer
becomes the Schur form T and the residual check deflates again: the route
peaks at about 3.6 n x n arrays, as U'QU is formed beside T and U; the
solver's docstring has the array accounting.  Its
two LAPACK kernels, ``dgees`` and ``dtrsyl``, come from ``_kernels``,
bound on the first solve: LAPACKE's C interface in the OpenBLAS that
numpy itself loaded, called through ``ctypes``, where numpy's build
exports it (numpy's own PyPI wheels do), so no second LAPACK is loaded.
Elsewhere (numpy on Accelerate, MKL or a system LAPACK) they are scipy's
wrappers from ``scipy.linalg.lapack``, imported by the first full Gramian
with the whole ``scipy.linalg`` package (about 0.2 s and 25 MB more
start-up than a load of its extension file on its own).
So importing gridloss, and every command on numpy's kernels, loads numpy
alone; on the fallback, ``analyze`` imports ``scipy.linalg``.

The modal route solves each mode's 4 or 9 unknowns as one small linear
system (its Kronecker form), all modes in one batched ``np.linalg.solve``
with one refinement step, and loads no scipy.  It accepts its solutions by
the Hurwitz margin and the residual test of ``solve_lyapunov``, each written
once.  So the two Gramian routes share no solver and neither reads an
eigenvector; the closed form shares no linear algebra with either, so the
agreement of all three cross-checks both the models and the closed forms.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .dynamics import ControllerParams, StateSpace, check_stability, modal_subsystems
from .errors import FloatRangeError, LyapunovSolveError, StabilityError, ValidationError
from .network import Spectrum, _all_finite, _check_alpha, _count, _float_array, _instance

# largest block of the full route's triangular solve handed to dtrsyl whole
_LEAF_ROWS = 64

# rows per pass of the row-blocked passes over a dense square matrix: Q's
# symmetry check, and the Gramian's symmetrisation and residual
_ROW_BLOCK = 64

# LAPACKE's dgees and dtrsyl as numpy's ILP64 scipy-openblas build exports
# them: 64-bit integers, the scipy_ prefix and the 64_ suffix
_LAPACKE_DGEES = "scipy_LAPACKE_dgees_work64_"
_LAPACKE_DTRSYL = "scipy_LAPACKE_dtrsyl_work64_"
_COLUMN_MAJOR = 102


@dataclass(frozen=True)
class H2Result:
    """Squared H2 norm of one route, named by the function that returns it.

    ``per_mode`` (absent for the full-Gramian route) lists the contribution
    of each nonzero eigenvalue in ascending eigenvalue order, read-only; the
    norm is their ``math.fsum``.  The routes judge their values, so the
    record checks nothing.
    """

    squared_norm: float
    per_mode: np.ndarray | None = None


def _dapi_mode_terms(lam: np.ndarray, m: float, k: float, tau: float, gamma):
    """s = gamma tau lam + k and P = gamma lam s + k^2 m lam per mode, as new
    arrays: the terms of the DAPI loss factor and of its gamma-derivative.
    ``gamma`` is a float or a column of values, each row the float's bits.
    """
    s = (gamma * tau) * lam
    s += k
    p = gamma * lam
    p *= s
    p += (k * k * m) * lam
    return s, p


def h2_droop_closed_form(alpha: float, params: ControllerParams, n_nodes: int) -> H2Result:
    """Droop loss alpha (N-1) / (2 m), m from ``params``: every nonzero mode
    contributes alpha / (2 m) regardless of its eigenvalue.  An n_nodes
    that is not a positive integer is refused by name."""
    _instance("params", params, ControllerParams)
    alpha = _check_alpha(alpha)
    per_mode = np.full(_count("n_nodes", n_nodes) - 1, alpha / (2.0 * params.m))
    return _summed(per_mode, "droop closed form")


def h2_dapi_closed_form(alpha: float, params: ControllerParams, spectrum: Spectrum) -> H2Result:
    """DAPI loss from the susceptance Laplacian eigenvalues alone.

    Each mode's droop loss alpha / (2 m) is scaled by 1 / (1 + s / P) in
    (0, 1), s and P from ``_dapi_mode_terms``.  A P that overflows gives
    its limit 1.0, and one that overflows with s gives NaN, refused below.

    Args:
        alpha: conductance-to-susceptance ratio.
        params: controller parameters; tau = 0 and gamma = 0 are permitted
            here (the formula's limit; the gamma = 0 loop has no finite norm).
        spectrum: the ``Spectrum`` of spectral_decomposition or
            laplacian_eigenvalues; only its nonzero eigenvalues are read.

    Raises:
        FloatRangeError: a mode's loss is not finite, or their sum overflows.
    """
    _instance("params", params, ControllerParams)
    _instance("spectrum", spectrum, Spectrum)
    alpha = _check_alpha(alpha)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s, p = _dapi_mode_terms(spectrum.nonzero, params.m, params.k, params.tau, params.gamma)
        per_mode = alpha / (2.0 * params.m) * (1.0 / (1.0 + s / p))
    return _summed(per_mode, "dapi closed form")


def _summed(per_mode: np.ndarray, route: str) -> H2Result:
    """The result of a route from its per-mode losses, frozen here, whose
    ordered sum is the norm; ``route`` is named where one of them is not
    finite or the sum overflows."""
    if not np.isfinite(per_mode).all():
        raise FloatRangeError(f"the {route} leaves the float range: a mode's loss is not finite")
    try:
        total = math.fsum(per_mode)
    except OverflowError:
        raise FloatRangeError(f"the {route} leaves the float range: the sum of its mode losses overflows") from None
    per_mode.setflags(write=False)
    return H2Result(total, per_mode)


def solve_lyapunov(a, q: np.ndarray) -> np.ndarray:
    """Solve A' X + X A = -Q for Hurwitz A and symmetric Q.

    A is an n x n array, or a callable of no arguments that returns a fresh
    one; an array is read as the callable of its fresh copies, so the
    caller's A is never written.  The first call's array is factorised in
    place as A' (a writeable C-ordered float array without a copy, its
    contents lost; any other is copied), and the second call's is the
    residual check's, which so reads the true A and not a copy kept through
    the solve.  ``h2_full_gramian`` passes its deflation as a callable.

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

    Memory, in n x n arrays besides the r x r Q: the Schur form holds A'
    (the first call's array, overwritten by T), U and LAPACK's workspace, a
    few n-vectors; U'QU is formed beside them through the r x n product
    Q_r U_r; the triangular stage works in place on it, its largest cut
    product a quarter array, and subtracts T12 Y12' + Y12 T12' 64 rows at a
    time; T, U and Y are dropped once used, and the symmetrisation and the
    residual run 64 rows at a time.  The peak, 3 + r/n (3.33 for the
    full-Gramian route), is T, U and U'QU as it is formed, plus the caller's
    A where A is an array.

    Raises:
        ValidationError: an entry of A or Q is not a real number
            (``network._float_array``), or their shapes do not fit.
        ValueError: A is not finite (``scipy.linalg.schur``'s message).
        StabilityError: A has an eigenvalue with real part >= -1e-10 *
            max(max|A|, 1) (both absolutely and relative to A's scale).
        LyapunovSolveError: U' Q U leaves the float range, the triangular
            solve fails or its solution (unscaled) is not finite, or the
            residual is above tolerance.
    """
    fresh_a = a if callable(a) else functools.partial(np.array, _float_array("a", a))
    a = np.asarray(fresh_a(), dtype=float)
    q = _float_array("q", q)
    if (a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0
            or q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape[0] > a.shape[0]):
        raise ValidationError(
            f"A must be square and nonempty and Q square and no larger, got {a.shape} and {q.shape}")
    q_scale = float(np.max(np.abs(q))) if q.size else 0.0
    if not _symmetric_within(q, 1e-12 * max(q_scale, 1.0)):
        raise ValidationError("Q must be symmetric")
    a_max = _max_abs(a)
    t, u = _real_schur(a)
    del a  # its buffer may now hold T
    # LAPACK standardises each 2x2 block of the real Schur form so that both
    # diagonal entries equal the real part of its complex pair
    _check_hurwitz(np.diag(t), a_max)
    # Q = blockdiag(Q_r, 0) gives U' Q U = U_r' Q_r U_r, U_r the first r rows
    r = int(np.max(np.flatnonzero(q.any(axis=0) | q.any(axis=1)), initial=-1)) + 1
    q = q[:r, :r]
    u_r = u[:r]

    def rotated_q() -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # judged once formed
            f = u_r.T @ (-q @ u_r)
        if not _all_finite(f):
            raise LyapunovSolveError(f"Lyapunov right-hand side U' Q U leaves the float range "
                                     f"for Q scale {q_scale:.3e}")
        return f

    y, scale = _solve_quasi_triangular(t, rotated_q)
    del t, u_r  # u_r, a view held by the closure, would keep U alive
    if scale != 1.0:
        try:
            with np.errstate(over="raise"):
                y /= scale
        except FloatingPointError:
            raise LyapunovSolveError(
                f"triangular Sylvester solve overflows: its solution exceeds the float range "
                f"once divided by its scale {scale:.3e}") from None
    if not _all_finite(y):  # dtrsyl can overflow without scaling
        raise LyapunovSolveError("triangular Sylvester solve overflows: its solution is not finite")
    uy = u @ y
    # into a Fortran-ordered out the product would not keep its bits
    x = np.matmul(uy, u.T, out=y if y.flags.c_contiguous else None)
    del uy, y, u
    _symmetrise(x)
    a = np.asarray(fresh_a(), dtype=float)
    # X is exactly symmetric, so X A = (A' X)'
    _check_residual(_max_abs_sum_with_transpose(a.T @ x, q), a, x, q_scale)
    return x


def _real_schur(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, U) with A' = U T U', with ``scipy.linalg.schur(a.T,
    output="real")``'s finiteness check and error messages, from one
    ``dgees`` call of ``_kernels`` with its queried workspace.  It
    factorises A' in place, which becomes T: A's own buffer where A' is
    F-ordered there (a writeable C-ordered float A, whose contents are
    lost), an F-ordered copy of A' otherwise.  The workspace query runs on
    that array and is dropped before the factorisation, so it holds no
    spare copy of A and no spare U.  On scipy's kernels (the fallback) the
    pair is ``scipy.linalg.schur``'s bit for bit."""
    at = np.asarray_chkfinite(a, dtype=float).T
    if not (at.flags.f_contiguous and at.flags.writeable):
        at = np.array(at, order="F")
    t, u, info = _kernels().dgees(at)
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gees")
    if info > 0:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    return t, u


@functools.cache
def _kernels() -> SimpleNamespace:
    """The full Gramian's two LAPACK kernels, bound once per process:
    numpy's own (``_numpy_kernels``) where its build exports them, else
    scipy's (``_scipy_kernels``, which imports ``scipy.linalg`` on this
    first call).  ``origin`` names the one taken.

    ``dgees(at)`` factorises the F-ordered float array ``at`` in place into
    the real Schur form T (no eigenvalue sorting) and returns (T, U, info);
    ``dtrsyl(a, b, c)`` returns (X, scale, info) with A X + X B' = scale C
    for upper quasi-triangular A and B, X a fresh F-ordered array.  ``info``
    is LAPACK's own code, a negative one naming the Fortran argument."""
    return _numpy_kernels() or _scipy_kernels()


def _numpy_kernels() -> SimpleNamespace | None:
    """LAPACKE's ``dgees`` and ``dtrsyl`` from the OpenBLAS numpy loaded, or
    None where numpy's build does not export them.

    The symbols are looked up through the handle of numpy's core extension,
    and ``dlsym`` searches that library's dependencies.  The ``_work`` entry
    points are LAPACKE's column-major calls straight into LAPACK: they take
    the workspace from the caller, as scipy's wrappers do, and check no
    argument for NaN.  ``ctypes`` releases the GIL for the call, so every
    array whose address is passed is held by a name until it returns."""
    from numpy._core import _multiarray_umath

    try:
        library = ctypes.CDLL(_multiarray_umath.__file__)
        gees = getattr(library, _LAPACKE_DGEES)
        trsyl = getattr(library, _LAPACKE_DTRSYL)
    except (OSError, AttributeError):
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    gees.restype = trsyl.restype = i64
    gees.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, ptr, i64, ptr, i64, ptr, ptr, ptr, ptr, i64,
                     ptr, i64, ptr]
    trsyl.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, i64, i64, i64, ptr, i64, ptr, i64, ptr, i64,
                      ptr]

    def dgees(at):
        n = at.shape[0]
        ld = max(n, 1)
        sdim = ctypes.c_int64()
        wr, wi, u = np.empty(n), np.empty(n), np.empty((n, n), order="F")
        head = (_COLUMN_MAJOR, b"V", b"N", None, n, at.ctypes.data, ld, ctypes.byref(sdim),
                wr.ctypes.data, wi.ctypes.data, u.ctypes.data, ld)
        query = np.empty(1)
        info = gees(*head, query.ctypes.data, -1, None)
        if info == 0:
            work = np.empty(int(query[0]))
            info = gees(*head, work.ctypes.data, work.size, None)
        return at, u, _fortran_info(info)

    def dtrsyl(a, b, c):
        a = np.asfortranarray(a, dtype=float)
        b = np.asfortranarray(b, dtype=float)
        x = np.array(c, dtype=float, order="F")
        m, n = x.shape
        scale = ctypes.c_double()
        info = trsyl(_COLUMN_MAJOR, b"N", b"T", 1, m, n, a.ctypes.data, max(m, 1), b.ctypes.data, max(n, 1),
                     x.ctypes.data, max(m, 1), ctypes.byref(scale))
        return x, scale.value, _fortran_info(info)

    return SimpleNamespace(origin="numpy", dgees=dgees, dtrsyl=dtrsyl)


def _fortran_info(info: int) -> int:
    """LAPACK's info from LAPACKE's, which counts its leading layout
    argument among those it names as illegal."""
    return info + 1 if info < 0 else info


def _scipy_kernels() -> SimpleNamespace:
    """scipy's ``dgees`` and ``dtrsyl`` wrappers from ``scipy.linalg.lapack``,
    called as ``scipy.linalg.schur`` and ``solve_continuous_lyapunov`` call
    them.  The import is here, so only this fallback loads scipy, and it
    brings in the whole ``scipy.linalg`` package."""
    from scipy.linalg import lapack

    def dgees(at):
        lwork = int(lapack.dgees(_unsorted, at, lwork=-1, overwrite_a=1)[-2][0])
        t, _, _, _, u, _, info = lapack.dgees(_unsorted, at, lwork=lwork, overwrite_a=1)
        return t, u, info

    def dtrsyl(a, b, c):
        return lapack.dtrsyl(a, b, c, tranb="T")

    return SimpleNamespace(origin="scipy", dgees=dgees, dtrsyl=dtrsyl)


def _unsorted(re: float, im: float) -> None:
    """``dgees``'s eigenvalue selector, required but unused: no sorting."""


def _symmetric_within(mat: np.ndarray, atol: float) -> bool:
    """The verdict of ``np.allclose(mat, mat.T, rtol=0, atol=atol)`` for a
    square matrix, without its warning on the infinite or NaN atol that a
    non-finite matrix gives: each pair within atol with a finite partner, or
    equal.  It is taken ``_ROW_BLOCK`` rows at a time, so no temporary is
    larger than ``_ROW_BLOCK`` rows."""
    with np.errstate(invalid="ignore"):
        for lo in range(0, mat.shape[0], _ROW_BLOCK):
            rows, partners = mat[lo:lo + _ROW_BLOCK], mat[:, lo:lo + _ROW_BLOCK].T
            gap = rows - partners
            np.abs(gap, out=gap)
            if not np.all(((gap <= atol) & np.isfinite(partners)) | (rows == partners)):
                return False
    return True


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


def _max_abs(a: np.ndarray):
    """max|A| of one A, or of each A of a stack."""
    return np.max(np.abs(a), axis=(-2, -1), initial=0.0)


def _check_hurwitz(real_parts: np.ndarray, a_max) -> None:
    """Refuse the first A of a stack (or one A) whose eigenvalue real parts,
    one row per A, reach -1e-10 max(max|A|, 1), absolutely or relatively;
    ``a_max`` is ``_max_abs`` of the A or the stack."""
    scale = np.maximum(a_max, 1.0)
    unsafe = np.any(real_parts >= -1e-10 * scale[..., None], axis=-1)
    if np.any(unsafe):
        worst = np.max(real_parts.reshape(-1, real_parts.shape[-1])[np.argmax(unsafe)])
        raise StabilityError(f"matrix is not safely Hurwitz (max eigenvalue real part {worst:.3e})")


def _check_residual(residual, a: np.ndarray, x: np.ndarray, q_scale) -> None:
    """Refuse the first Lyapunov solution X of a stack (or one X) whose
    residual max|A' X + X A + Q| exceeds 1e-8 of 2 max|A| max|X| + max|Q|, the
    scale of the terms it sums: a backward error, so a lightly damped system
    with a large Gramian is judged by the rounding its solve can reach.
    Where that sum overflows, 1e-8 of each term is taken first, so the
    bound leaves the float range only where 1e-8 of the sum does."""
    a_max, x_max = _max_abs(a), _max_abs(x)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = 1e-8 * (2.0 * a_max * x_max + q_scale)
        bound = np.where(np.isfinite(bound), bound, 2e-8 * a_max * x_max + 1e-8 * q_scale)
    failed = ~(residual <= bound)
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
    y, scale, info = _kernels().dtrsyl(t, t, f)
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
    # Y11 -= G + G' with G = T12 Y12', 64 rows at a time: the sum is never whole
    for lo in range(0, mid, _LEAF_ROWS):
        hi = min(lo + _LEAF_ROWS, mid)
        y[lo:hi, :mid] -= g[lo:hi] + g[:, lo:hi].T
    del g
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
    x, scale, info = _kernels().dtrsyl(a, b, c)
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
    -C_n' C_n, one block of ``modal_subsystems`` each, so ``per_mode[i]``
    belongs to ``spectrum.nonzero[i]``; the zero mode is unobservable
    through the loss output and has no block.  The Kronecker forms (A_n'
    (x) I + I (x) A_n') vec X_n = -vec(C_n' C_n) of all modes are solved
    together.  The Routh test (``check_stability``) gives every mode one
    verdict, read once; then each mode in eigenvalue order is judged by the
    Hurwitz margin of ``solve_lyapunov``, and the solutions by its residual
    test.

    Raises:
        AssemblyError: tau == 0, or a block overflows the float range.
        StabilityError: the modes fail the Routh test (DAPI with gamma =
            0), mode 2 named in the message, or one is not safely Hurwitz.
        FloatRangeError: a mode's Gramian or loss is not finite, or the
            sum of the losses overflows.
        LyapunovSolveError: some mode's residual is above tolerance.
    """
    a, b, c = modal_subsystems(spectrum, params, alpha, kind)
    lams = spectrum.nonzero
    # the Routh verdict is the same for every mode, so mode 2 speaks for all
    if lams.size and not check_stability(params, kind):
        raise StabilityError(f"mode 2 (eigenvalue {lams[0]:.6g}) is not asymptotically stable; "
                             "the steady-state loss is unbounded")
    _check_hurwitz(np.linalg.eigvals(a).real, _max_abs(a))
    n, s = a.shape[:2]
    at, eye = a.mT, np.eye(s)
    route = f"{kind} modal route"
    # the weight, the Gramians, their residual scale and the losses may
    # overflow where the blocks did not; each is judged once formed
    with np.errstate(over="ignore", invalid="ignore"):
        # K vec X = vec(X A + A' X), X's entries in row-major order
        kron = (np.einsum("ik,njl->nijkl", eye, at) + np.einsum("nik,jl->nijkl", at, eye)).reshape(n, s * s, s * s)
        q = c.mT @ c
        rhs = -q.reshape(n, s * s, 1)
        vec = np.linalg.solve(kron, rhs)
        # one step of refinement in working precision makes Gaussian
        # elimination componentwise backward stable (Skeel 1980, Math. Comp.
        # 35(151))
        vec += np.linalg.solve(kron, rhs - kron @ vec)
        gram = vec.reshape(n, s, s)
        if not np.isfinite(gram).all():
            raise FloatRangeError(f"the {route} leaves the float range: a mode's Gramian is not finite")
        residual = np.max(np.abs(at @ gram + gram @ a + q), axis=(-2, -1))
        _check_residual(residual, a, gram, np.max(np.abs(q), axis=(-2, -1)))
        per_mode = (b.mT @ gram @ b)[:, 0, 0]
    return _summed(per_mode, route)


def h2_full_gramian(ss: StateSpace) -> H2Result:
    """Squared norm by one dense Gramian on the assembled system.

    The rigid phase shift (uniform theta direction) is the only marginal
    mode of a healthy loop; it is removed by restricting the theta block to
    the orthogonal complement of the all-ones vector, with basis H from an
    explicit Householder reflector, and the weight is Q = blockdiag(H' L_G
    H, 0, ...), handed to ``solve_lyapunov`` as its (N-1) x (N-1) block, so
    this route computes no spectrum.  No per-mode breakdown is available
    here.  The Hurwitz verdict on the deflated matrix, built by
    ``_deflate``, is the one ``solve_lyapunov`` reaches; ``sim.simulate``
    gets the same rule on the same matrix from ``_deflated_eigenvalues``.
    The solver gets the deflation as a callable: it factorises that matrix
    in place and builds it again for its residual check, so no copy of A is
    held beside the Schur form.

    Raises:
        StabilityError: marginal or unstable modes survive deflation (DAPI
            with gamma = 0, or an unstable parameterization).
        FloatRangeError: the norm, the trace B' X B, is not finite.
    """
    _instance("ss", ss, StateSpace)
    n, states = ss.n_nodes, ss.n_states - 1
    basis = _ones_complement_basis(n)
    try:
        gram = solve_lyapunov(lambda: _deflate(ss, basis), basis.T @ ss.l_g @ basis)
    except StabilityError as err:
        raise _not_deflatable(ss, err) from err
    b = np.empty((states, n))
    np.matmul(basis.T, ss.b[:n], out=b[:n - 1])
    b[n - 1:] = ss.b[n:]
    with np.errstate(over="ignore", invalid="ignore"):  # judged once formed
        squared = float(np.trace(b.T @ gram @ b))
    if not math.isfinite(squared):
        raise FloatRangeError("the full Gramian route leaves the float range: its norm is not finite")
    return H2Result(max(0.0, squared))  # -0.0 reads +0.0


def _deflate(ss: StateSpace, basis: np.ndarray) -> np.ndarray:
    """T' A T, T = blockdiag(H, I, ...), H = ``basis`` the loop's ``_ones_complement_basis``:
    the loop without its rigid phase shift.  The congruence touches only the
    theta rows and columns, one product for each, written into one matrix."""
    n, states = ss.n_nodes, ss.n_states - 1
    a = np.empty((states, states))
    theta_rows = basis.T @ ss.a[:n]
    a[:n - 1, n - 1:] = theta_rows[:, n:]
    a[n - 1:, n - 1:] = ss.a[n:, n:]
    theta_cols = np.concatenate([theta_rows[:, :n], ss.a[n:, :n]])
    del theta_rows
    np.matmul(theta_cols, basis, out=a[:, :n - 1])
    return a


def _deflated_eigenvalues(ss: StateSpace) -> np.ndarray:
    """Eigenvalues of ``_deflate``'s matrix, refused as ``h2_full_gramian`` refuses them."""
    deflated = _deflate(ss, _ones_complement_basis(ss.n_nodes))
    eigs = np.linalg.eigvals(deflated)
    try:
        _check_hurwitz(eigs.real, _max_abs(deflated))
    except StabilityError as err:
        raise _not_deflatable(ss, err) from err
    return eigs


def _not_deflatable(ss: StateSpace, err: StabilityError) -> StabilityError:
    """The refusal of a loop whose deflated matrix is not safely Hurwitz;
    the hint goes to a DAPI loop whose -L_C / k block is all zero."""
    gamma_zero = ss.controller_kind == "dapi" and not ss.a[2 * ss.n_nodes:, 2 * ss.n_nodes:].any()
    hint = "; for DAPI this typically means gamma = 0" if gamma_zero else ""
    return StabilityError(
        f"marginal or unstable modes remain after deflating the rigid phase shift ({err}){hint}")


def _ones_complement_basis(n: int) -> np.ndarray:
    """Orthonormal (n, n-1) basis of the complement of the all-ones vector,
    taken from the Householder reflector exchanging e_1 with 1/sqrt(n)."""
    if n == 1:
        return np.zeros((1, 0))
    v = np.full(n, 1.0 / math.sqrt(n))
    v[0] -= 1.0
    reflector = np.eye(n) - 2.0 * np.outer(v, v) / float(v @ v)
    return reflector[:, 1:]
