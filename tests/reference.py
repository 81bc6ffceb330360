"""Reference computations that the tests hold the package to.

``verify_modal_equivalence`` certifies that the modal route analyzes the
assembled closed loop: it transforms the full A into the Laplacian's
eigenvector basis and compares it with the modal blocks.

``lyapunov_reference`` is ``scipy.linalg.solve_continuous_lyapunov``'s
algorithm run on the LAPACK kernels that ``solve_lyapunov`` calls, so the
solver can be held to bits on either of them.
"""

import numpy as np

from gridloss import h2
from gridloss.dynamics import ModalBlocks, StateSpace
from gridloss.errors import ValidationError


def lyapunov_reference(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The symmetric part of X with A' X + X A = -Q, computed step for step
    as ``scipy.linalg.solve_continuous_lyapunov(a.T, -q)`` computes it (one
    real Schur form, F = U' (-Q) U, one whole-matrix ``dtrsyl``, Y times its
    scale, U Y U'), with ``h2._kernels()``'s ``dgees`` and ``dtrsyl``.  On
    scipy's kernels it is scipy's solution bit for bit."""
    kernels = h2._kernels()
    t, u, info = kernels.dgees(np.array(a.T, order="F"))
    assert info == 0, info
    f = u.T.dot((-q).dot(u))
    y, scale, info = kernels.dtrsyl(t, t, f)
    assert info == 0, info
    y *= scale
    x = u.dot(y).dot(u.T)
    return (x + x.T) / 2.0


def verify_modal_equivalence(ss: StateSpace, blocks: ModalBlocks, u: np.ndarray) -> float:
    """Largest entrywise gap between the congruence-transformed full A and
    the block diagonal of the rigid-mode block and the modal blocks.

    ``u`` is the Laplacian's eigenvector matrix, the second half of
    ``spectral_decomposition``'s pair, whose eigenvalues built ``blocks``.
    Transforms A by blockdiag(U, U[, U]), reorders states mode-by-mode and
    compares against blockdiag(A_1, A_2, ..., A_N).  ``blocks`` holds A_2
    .. A_N, one per nonzero eigenvalue; the rigid-mode block A_1 is any of
    them with its eigenvalue-dependent entries, -m lam / tau and -gamma lam
    / k, set to zero.  So every block and every cross-coupling is compared.
    Values at rounding level certify that the modal route analyzes the same
    system as the full one.
    """
    s = ss.n_states // ss.n_nodes
    n = u.shape[0]
    if ss.n_nodes != n or blocks.a.shape != (n - 1, s, s):
        raise ValidationError(
            f"dimension mismatch: {ss.controller_kind} system with {ss.n_states} states, "
            f"{n}-node spectrum, modal blocks of shape {blocks.a.shape}"
        )
    if n < 2:
        raise ValidationError("a one-bus loop has no mode block to build the rigid-mode block from")
    rigid = blocks.a[0].copy()
    rigid[1, 0] = 0.0
    if s == 3:
        rigid[2, 2] = 0.0
    t = np.kron(np.eye(s), u)
    # state (block, mode) of the transformed A, indexed [mode, block, mode', block']
    m = (t.T @ ss.a @ t).reshape(s, n, s, n).transpose(1, 0, 3, 2)
    modes = np.arange(n)
    m[modes, :, modes, :] -= np.concatenate([rigid[None], blocks.a])
    return float(np.max(np.abs(m)))
