"""H2 norm routes: closed forms, modal Lyapunov, full Gramian."""

import itertools
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gridloss.dynamics
import gridloss.network
from gridloss.dynamics import ControllerParams, assemble_dapi, assemble_droop
from gridloss.errors import FloatRangeError, LyapunovSolveError, StabilityError, ValidationError
from gridloss.h2 import (
    _LEAF_ROWS,
    H2Result,
    _kernels,
    _real_schur,
    _solve_quasi_triangular,
    h2_dapi_closed_form,
    h2_droop_closed_form,
    h2_full_gramian,
    h2_modal,
    solve_lyapunov,
)
from gridloss.network import (
    NetworkGraph,
    Spectrum,
    _symmetric_within,
    build_complete_graph,
    build_line_graph,
    build_random_connected_graph,
    laplacian_eigenvalues,
    spectral_decomposition,
    susceptance_laplacian,
)
from reference import lyapunov_reference, verify_modal_equivalence


def _spectrum_of(graph):
    return spectral_decomposition(susceptance_laplacian(graph))[0]


def _stable_random(n, rng):
    """A well-conditioned Hurwitz matrix: eigenvalues within 0.5 of [-3, -1]."""
    return -np.diag(rng.uniform(1.0, 3.0, n)) + 0.5 * rng.standard_normal((n, n)) / math.sqrt(n)


def _bumped_quasi_triangular(n, rng, pair=None):
    """Upper quasi-triangular T in LAPACK's standard form, with a 2x2 block
    straddling the midpoint of every block the recursive solve cuts, so that
    every cut above the 64-row leaf has to move.  ``pair`` = (re, im) sets
    the eigenvalues of the top-level block; the others are -U(1, 3) +- i."""
    t = np.triu(0.3 * rng.standard_normal((n, n)) / math.sqrt(n), 1)
    t[np.diag_indices(n)] = -rng.uniform(1.0, 3.0, n)
    bumps = []

    def place(lo, hi):
        if hi - lo <= 64:
            return
        mid = lo + (hi - lo) // 2
        re, im = pair if pair is not None and not bumps else (-rng.uniform(1.0, 3.0), 1.0)
        t[mid - 1, mid - 1] = t[mid, mid] = re
        t[mid - 1, mid] = im
        t[mid, mid - 1] = -im
        bumps.append(mid)
        place(lo, mid + 1)
        place(mid + 1, hi)

    place(0, n)
    return t, bumps


@pytest.fixture
def scipy_kernels(monkeypatch):
    """The solver on scipy's LAPACK wrappers, the fallback where numpy's
    build exports no LAPACKE: scipy's bits hold there alone."""
    kernels = gridloss.h2._scipy_kernels()
    monkeypatch.setattr(gridloss.h2, "_kernels", lambda: kernels)
    return kernels


def _run_fresh(code):
    """stdout of ``code`` run by a fresh interpreter that imports this
    checkout's gridloss, with one BLAS thread."""
    src = str(Path(gridloss.h2.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


class TestSolveLyapunov:
    def test_scalar(self):
        x = solve_lyapunov(np.array([[-1.0]]), np.array([[2.0]]))
        assert np.allclose(x, [[1.0]], atol=1e-14)

    def test_diagonal(self):
        x = solve_lyapunov(np.diag([-1.0, -2.0]), np.eye(2))
        assert np.allclose(x, np.diag([0.5, 0.25]), atol=1e-14)

    def test_droop_mode_hand_solution(self):
        # A'X + XA = -C'C at lam = m = tau = 1 has the hand solution
        # X = [[1, 1/2], [1/2, 1/2]], so the mode contributes B'XB = 1/2.
        a = np.array([[0.0, 1.0], [-1.0, -1.0]])
        c = np.array([[1.0, 0.0]])
        x = solve_lyapunov(a, c.T @ c)
        assert np.allclose(x, [[1.0, 0.5], [0.5, 0.5]], atol=1e-13)
        b = np.array([[0.0], [1.0]])
        assert abs((b.T @ x @ b).item() - 0.5) < 1e-13

    def test_small_and_dense_routes_agree(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a3 = -np.eye(3) * rng.uniform(0.5, 2) + 0.3 * rng.standard_normal((3, 3))
            if np.any(np.linalg.eigvals(a3).real >= -1e-6):
                continue
            q = rng.standard_normal((3, 1))
            q = q @ q.T
            x_small = solve_lyapunov(a3, q)
            import scipy.linalg

            x_dense = scipy.linalg.solve_continuous_lyapunov(a3.T, -q)
            assert np.max(np.abs(x_small - x_dense)) <= 1e-10 * max(np.max(np.abs(x_dense)), 1.0)

    def test_residual_and_psd_property(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 5, 12):
            for _ in range(5):
                a = -np.diag(rng.uniform(0.5, 3, n)) + 0.2 * rng.standard_normal((n, n))
                if np.any(np.linalg.eigvals(a).real >= -1e-6):
                    continue
                c = rng.standard_normal((2, n))
                q = c.T @ c
                x = solve_lyapunov(a, q)
                assert np.array_equal(x, x.T)
                resid = np.max(np.abs(a.T @ x + x @ a + q))
                assert resid <= 1e-8 * np.max(np.abs(q))
                assert np.min(np.linalg.eigvalsh(x)) >= -1e-10 * max(np.max(np.abs(x)), 1.0)

    def test_unstable_rejected(self):
        with pytest.raises(StabilityError):
            solve_lyapunov(np.array([[0.0]]), np.array([[1.0]]))
        with pytest.raises(StabilityError):
            solve_lyapunov(np.array([[1.0, 0.0], [0.0, -1.0]]), np.eye(2))

    def test_relative_tolerance_on_large_matrices(self):
        # with max|A| = 1e3 the cut-off is -1e-10 * 1e3 = -1e-7, so an
        # eigenvalue of -5e-9 is not safely Hurwitz on either solver path
        for n in (2, 5):
            a = np.diag([-1e3] + [-1.0] * (n - 2) + [-5e-9])
            with pytest.raises(StabilityError):
                solve_lyapunov(a, np.eye(n))

    @pytest.mark.parametrize("e, stable", [(5e-8, False), (1e-6, True)])
    def test_complex_pair_near_cutoff(self, e, stable):
        # a rotation block with frequency 1e3 has eigenvalues -e +- 1e3 i;
        # the cut-off reads their real part off the 2x2 Schur block
        block = np.array([[-e, 1e3], [-1e3, -e]])
        rng = np.random.default_rng(3)
        rotation = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        embedded = np.zeros((5, 5))
        embedded[:2, :2] = block
        embedded[2:, 2:] = np.diag([-1.0, -2.0, -3.0])
        big = rotation @ embedded @ rotation.T
        # the similarity keeps max|A| large enough that -5e-8 is inside the
        # cut-off -1e-10 * max|A|
        assert np.max(np.abs(big)) > 700.0
        # Q observes only the damped block: a Gramian of size 1/(2e) on the
        # pair would put rounding above the residual tolerance at n = 5
        q_big = rotation @ np.diag([0.0, 0.0, 1.0, 1.0, 1.0]) @ rotation.T
        q_big = (q_big + q_big.T) / 2.0
        for a, q in ((block, np.eye(2)), (big, q_big)):
            if stable:
                x = solve_lyapunov(a, q)
                assert np.max(np.abs(a.T @ x + x @ a + q)) <= 1e-8
            else:
                with pytest.raises(StabilityError, match="not safely Hurwitz"):
                    solve_lyapunov(a, q)

    def test_lightly_damped_pair_with_large_gramian_solves(self):
        # a pair -1e-6 +- 1e3 i observed by Q = I has a Gramian of about
        # 1/(2e) = 5e5; its residual is rounding of max|A| max|X|, far above
        # 1e-8 max|Q| but a tiny backward error
        block = np.array([[-1e-6, 1e3], [-1e3, -1e-6]])
        rng = np.random.default_rng(3)
        rotation = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        embedded = np.zeros((5, 5))
        embedded[:2, :2] = block
        embedded[2:, 2:] = np.diag([-1.0, -2.0, -3.0])
        a = rotation @ embedded @ rotation.T
        x = solve_lyapunov(a, np.eye(5))
        assert np.max(np.abs(x)) > 1e5
        resid = np.max(np.abs(a.T @ x + x @ a + np.eye(5)))
        assert resid <= 1e-8 * (2.0 * np.max(np.abs(a)) * np.max(np.abs(x)) + 1.0)
        expected = scipy.linalg.solve_continuous_lyapunov(a.T, -np.eye(5))
        assert np.max(np.abs(x - expected)) <= 1e-8 * np.max(np.abs(expected))

    def test_wrong_triangular_solution_rejected(self, monkeypatch):
        dtrsyl = _kernels().dtrsyl

        def perturbed(*args, **kwargs):
            y, scale, info = dtrsyl(*args, **kwargs)
            return y * (1.0 + 1e-4), scale, info

        monkeypatch.setattr(_kernels(), "dtrsyl", perturbed)
        a = -np.eye(3) + 0.1 * np.triu(np.ones((3, 3)), 1)
        with pytest.raises(LyapunovSolveError, match="exceeds tolerance for Q scale"):
            solve_lyapunov(a, np.eye(3))

    def test_matches_scipy_bit_for_bit(self, scipy_kernels):
        rng = np.random.default_rng(4)
        checked = 0
        for n in (4, 5, 9, 30):
            for _ in range(3):
                a = -np.diag(rng.uniform(0.5, 3, n)) + 0.2 * rng.standard_normal((n, n))
                if np.any(np.linalg.eigvals(a).real >= -1e-6):
                    continue
                c = rng.standard_normal((2, n))
                q = c.T @ c
                expected = scipy.linalg.solve_continuous_lyapunov(a.T, -q)
                assert np.array_equal(solve_lyapunov(a, q), (expected + expected.T) / 2.0)
                checked += 1
        assert checked >= 8

    @pytest.mark.parametrize("n", [31, 48, 64, 65])
    def test_matches_scipy_at_the_leaf_size(self, n, scipy_kernels):
        # up to 64 rows the triangular stage is one dtrsyl call, exactly
        # scipy's; from 65 rows on it is the recursive blocked solve
        rng = np.random.default_rng(n)
        a = _stable_random(n, rng)
        c = rng.standard_normal((2, n))
        q = c.T @ c
        expected = scipy.linalg.solve_continuous_lyapunov(a.T, -q)
        expected = (expected + expected.T) / 2.0
        x = solve_lyapunov(a, q)
        if n <= 64:
            assert np.array_equal(x, expected)
        else:
            assert np.max(np.abs(x - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [1, 2, 5, 31, 64])
    def test_matches_its_kernels_reference_bit_for_bit(self, n):
        # on the kernels bound in this process, numpy's or scipy's: up to 64
        # rows the triangular stage is one dtrsyl call, as in the reference
        rng = np.random.default_rng(70 + n)
        a = _stable_random(n, rng)
        c = rng.standard_normal((2, n))
        q = c.T @ c
        assert np.array_equal(solve_lyapunov(a, q), lyapunov_reference(a, q))

    @pytest.mark.parametrize("n", [3, 40, 100])
    def test_reference_is_scipys_solution_on_scipys_kernels(self, n, scipy_kernels):
        rng = np.random.default_rng(80 + n)
        a = _stable_random(n, rng)
        q = np.eye(n)
        expected = scipy.linalg.solve_continuous_lyapunov(a.T, -q)
        assert np.array_equal(lyapunov_reference(a, q), (expected + expected.T) / 2.0)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 130), fraction=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    @example(n=100, fraction=0.0, seed=1)
    @example(n=5, fraction=0.5, seed=2)
    @example(n=100, fraction=0.5, seed=3)
    @example(n=130, fraction=1.0, seed=4)
    def test_zero_padded_weight_matches_scipy(self, n, fraction, seed):
        # Q = blockdiag(Q_r, 0) is projected from the first r rows of U only;
        # r = 0 (Q = 0, X = 0), r < n, and n > 64 for the recursive stage
        r = int(fraction * n)
        rng = np.random.default_rng(seed)
        a = _stable_random(n, rng)
        c = rng.standard_normal((2, r))
        q = np.zeros((n, n))
        q[:r, :r] = c.T @ c
        expected = scipy.linalg.solve_continuous_lyapunov(a.T, -q)
        x = solve_lyapunov(a, q)
        assert np.array_equal(x, x.T)
        if r == 0:
            assert not x.any()
        assert np.max(np.abs(x - expected)) <= 1e-14 * np.max(np.abs(expected))

    # solve_lyapunov keeps only the symmetric part of Y, and the recursive
    # stage returns an exactly symmetric Y; the whole-matrix dtrsyl keeps a
    # rounding asymmetry, which a lightly damped pair magnifies to 1e-9 of
    # max|Y|, so the two are compared on their symmetric parts
    @pytest.mark.parametrize("n", [4, 37, 64, 65, 66, 127, 130, 200, 263, 449, 600])
    def test_recursive_stage_matches_whole_dtrsyl(self, n):
        rng = np.random.default_rng(1000 + n)
        t, bumps = _bumped_quasi_triangular(n, rng)
        assert bool(bumps) == (n > 64)
        f = rng.standard_normal((n, n))
        f = f + f.T
        expected, scale, info = scipy.linalg.lapack.dtrsyl(t, t, f, tranb="T")
        assert scale == 1.0 and info == 0
        y, y_scale = _solve_quasi_triangular(t, f.copy)
        assert y_scale == 1.0
        gap = (y + y.T) / 2.0 - (expected + expected.T) / 2.0
        assert np.max(np.abs(gap)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [65, 200, 600])
    def test_recursive_stage_on_lightly_damped_pair(self, n):
        # the pair -1e-6 +- 1e3 i of the 5x5 cases above, on the first cut
        rng = np.random.default_rng(2000 + n)
        t, bumps = _bumped_quasi_triangular(n, rng, pair=(-1e-6, 1e3))
        assert t[bumps[0], bumps[0]] == -1e-6
        f = -np.eye(n)
        expected, scale, info = scipy.linalg.lapack.dtrsyl(t, t, f, tranb="T")
        assert scale == 1.0 and info == 0
        assert np.max(np.abs(expected)) > 1e5
        y, _ = _solve_quasi_triangular(t, f.copy)
        assert np.array_equal(y, y.T)
        gap = y - (expected + expected.T) / 2.0
        assert np.max(np.abs(gap)) <= 1e-14 * np.max(np.abs(expected))
        # backward error no worse than the whole-matrix solve's
        scale_terms = 2.0 * np.max(np.abs(t)) * np.max(np.abs(expected)) + 1.0
        sym = (expected + expected.T) / 2.0
        reference = np.max(np.abs(t @ sym + sym @ t.T - f)) / scale_terms
        assert np.max(np.abs(t @ y + y @ t.T - f)) / scale_terms <= max(2.0 * reference, 1e-15)

    def test_no_dtrsyl_call_above_leaf_size(self, monkeypatch):
        sizes = []
        dtrsyl = _kernels().dtrsyl

        def counting(a, b, c, **kwargs):
            sizes.append((a.shape[0], b.shape[0]))
            return dtrsyl(a, b, c, **kwargs)

        monkeypatch.setattr(_kernels(), "dtrsyl", counting)
        g = build_random_connected_graph(150, 0.05, (0.5, 1.5), alpha=1.0, seed=7)
        ss = assemble_dapi(g, ControllerParams(m=1.0, tau=1.0))
        assert ss.n_states - 1 >= 449
        h2_full_gramian(ss)
        assert len(sizes) > 1
        assert max(max(pair) for pair in sizes) <= 64

    def test_rescaled_leaf_falls_back_to_one_whole_solve(self, monkeypatch):
        n = 100
        calls = []
        dtrsyl = _kernels().dtrsyl

        def rescaling_leaves(a, b, c, **kwargs):
            calls.append(a.shape[0])
            y, scale, info = dtrsyl(a, b, c, **kwargs)
            return y, (0.5 if a.shape[0] <= 64 else scale), info

        rng = np.random.default_rng(5)
        a = _stable_random(n, rng)
        q = np.eye(n)
        expected = lyapunov_reference(a, q)
        monkeypatch.setattr(_kernels(), "dtrsyl", rescaling_leaves)
        x = solve_lyapunov(a, q)
        assert calls.count(n) == 1
        assert np.array_equal(x, expected)

    @pytest.mark.parametrize("n", [5, 100])
    def test_rejected_argument_raises(self, monkeypatch, n):
        dtrsyl = _kernels().dtrsyl

        def rejecting(*args, **kwargs):
            y, scale, _ = dtrsyl(*args, **kwargs)
            return y, scale, -3

        monkeypatch.setattr(_kernels(), "dtrsyl", rejecting)
        a = _stable_random(n, np.random.default_rng(6))
        with pytest.raises(LyapunovSolveError, match="rejected argument 3"):
            solve_lyapunov(a, np.eye(n))

    def test_one_schur_and_no_eigvals_per_solve(self, monkeypatch):
        # one dgees of the kernels, which makes its workspace query itself
        calls = []
        dgees = _kernels().dgees

        def counting_dgees(*args, **kwargs):
            calls.append(1)
            return dgees(*args, **kwargs)

        def no_eigvals(*args, **kwargs):
            raise AssertionError("solve_lyapunov must not call np.linalg.eigvals")

        monkeypatch.setattr(_kernels(), "dgees", counting_dgees)
        monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
        for n in (1, 2, 3, 5, 8):
            calls.clear()
            solve_lyapunov(-np.eye(n) + 0.1 * np.triu(np.ones((n, n)), 1), np.eye(n))
            assert len(calls) == 1
        calls.clear()
        with pytest.raises(StabilityError):
            solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))
        assert len(calls) == 1

    @pytest.mark.parametrize("n", [5, 299, 449])
    def test_schur_form_is_scipys_bit_for_bit(self, n, scipy_kernels):
        a = _stable_random(n, np.random.default_rng(40 + n))
        t, u = _real_schur(a.copy())
        expected_t, expected_u = scipy.linalg.schur(a.T, output="real")
        assert np.array_equal(t, expected_t) and np.array_equal(u, expected_u)

    @pytest.mark.parametrize("kernels", ["bound", "scipy"])
    def test_a_is_factorised_in_place(self, kernels, request):
        # on either kernel T is a writeable C-ordered A's own buffer, A' read
        # F-ordered from it without a copy; a read-only A is copied, and the
        # pair is the same bit for bit
        if kernels == "scipy":
            request.getfixturevalue("scipy_kernels")
        a = _stable_random(100, np.random.default_rng(7))
        read_only = a.copy()
        read_only.setflags(write=False)
        expected_t, expected_u = _real_schur(read_only)
        assert not np.shares_memory(expected_t, read_only)
        t, u = _real_schur(a)
        assert np.shares_memory(t, a)
        assert np.array_equal(t, expected_t) and np.array_equal(u, expected_u)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_a_refused_like_schur(self, bad):
        a = -np.eye(4)
        a[1, 2] = bad
        with pytest.raises(ValueError) as expected:
            scipy.linalg.schur(a.T, output="real", check_finite=True)
        with pytest.raises(ValueError) as got:
            solve_lyapunov(a, np.eye(4))
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value) == "array must not contain infs or NaNs"

    def test_array_a_is_left_as_it_was(self):
        # an array is copied; so is a read-only array a callable returns
        for n in (5, 100):
            a = _stable_random(n, np.random.default_rng(90 + n))
            before = a.tobytes()
            expected = solve_lyapunov(a, np.eye(n))
            assert a.tobytes() == before
            a.setflags(write=False)
            assert np.array_equal(solve_lyapunov(lambda: a, np.eye(n)), expected)
            assert a.tobytes() == before

    @settings(max_examples=30)
    @given(n=st.integers(1, 2 * _LEAF_ROWS + 2), fraction=st.floats(0.0, 1.0), block=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(n=_LEAF_ROWS, fraction=1.0, block=False, seed=1)
    @example(n=_LEAF_ROWS + 1, fraction=0.5, block=True, seed=2)
    @example(n=2 * _LEAF_ROWS + 2, fraction=0.3, block=False, seed=3)
    def test_callable_a_matches_array_a_bit_for_bit(self, n, fraction, block, seed):
        # the callable's own array becomes T; every bit of X stays
        rng = np.random.default_rng(seed)
        a = _stable_random(n, rng)
        r = int(fraction * n)
        c = rng.standard_normal((2, r))
        q = np.zeros((n, n))
        q[:r, :r] = c.T @ c
        if block:
            q = q[:r, :r]
        calls = []

        def fresh():
            calls.append(1)
            return a.copy()

        assert np.array_equal(solve_lyapunov(fresh, q), solve_lyapunov(a, q))
        assert len(calls) == 2

    @pytest.mark.parametrize("n", [5, 100])
    def test_residual_reads_the_callables_second_a(self, n):
        # an A changed between the factorisation and the residual check is
        # caught: the check is against the A the callable returns again
        a = _stable_random(n, np.random.default_rng(95 + n))
        arrays = iter([a.copy(), 1.01 * a])
        with pytest.raises(LyapunovSolveError, match="exceeds tolerance for Q scale"):
            solve_lyapunov(lambda: next(arrays), np.eye(n))

    def test_residual_bound_past_the_float_range_warns_nothing(self):
        # 2 max|A| max|X| + max|Q| overflows in each; 1e-8 of it does not.
        # dtrsyl returns Y = 0 for T = -1e308, whose T + T overflows, so the
        # second is refused on its residual
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solve_lyapunov([[-1.0]], [[1e308]]).tolist() == [[5e307]]
            for q in (1.0, 1e308):
                with pytest.raises(LyapunovSolveError, match="exceeds tolerance"):
                    solve_lyapunov([[-1e308]], [[q]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_callable_a_refused_like_an_array(self, bad):
        a = -np.eye(4)
        a[1, 2] = bad
        with pytest.raises(ValueError) as expected:
            solve_lyapunov(a, np.eye(4))
        with pytest.raises(ValueError) as got:
            solve_lyapunov(a.copy, np.eye(4))
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value) == "array must not contain infs or NaNs"

    def test_schur_failure_raises_like_schur(self, monkeypatch):
        dgees = _kernels().dgees
        scipy_dgees = scipy.linalg.lapack.dgees

        def failing(at):
            t, u, _ = dgees(at)
            return t, u, 1

        def scipy_failing(*args, **kwargs):
            *result, info = scipy_dgees(*args, **kwargs)
            return (*result, info if kwargs.get("lwork") == -1 else 1)

        monkeypatch.setattr(_kernels(), "dgees", failing)
        # scipy.linalg.schur looks gees up through its own module's getter
        monkeypatch.setattr(scipy.linalg._decomp_schur, "get_lapack_funcs", lambda names, arrays: (scipy_failing,))
        a = _stable_random(5, np.random.default_rng(8))
        with pytest.raises(np.linalg.LinAlgError) as expected:
            scipy.linalg.schur(a.T, output="real")
        with pytest.raises(np.linalg.LinAlgError) as got:
            solve_lyapunov(a, np.eye(5))
        assert str(got.value) == str(expected.value) == "Schur form not found. Possibly ill-conditioned."

    @pytest.mark.parametrize("n", [5, 100])
    def test_rescaled_whole_solve_is_divided_by_its_scale(self, monkeypatch, n):
        # dtrsyl's Y solves T Y + Y T' = scale F, so X comes from Y / scale;
        # the halving is exact, so X keeps the unscaled solve's bits
        rng = np.random.default_rng(9)
        a = _stable_random(n, rng)
        q = np.eye(n)
        expected = solve_lyapunov(a, q)
        dtrsyl = _kernels().dtrsyl

        def halving(a, b, c, **kwargs):
            y, scale, info = dtrsyl(a, b, c, **kwargs)
            if a.shape[0] <= 64 < n:
                return y, 0.5, info  # a recursive leaf rescales
            return 0.5 * y, 0.5 * scale, info

        monkeypatch.setattr(_kernels(), "dtrsyl", halving)
        x = solve_lyapunov(a, q)
        if n > 64:
            # the whole-matrix fallback: no longer the recursive stage's bits
            assert np.max(np.abs(x - expected)) <= 1e-14 * np.max(np.abs(expected))
        else:
            assert np.array_equal(x, expected)

    def test_unscaled_overflow_raises(self, monkeypatch):
        dtrsyl = _kernels().dtrsyl

        def tiny_scale(*args, **kwargs):
            y, _, info = dtrsyl(*args, **kwargs)
            return y, 1e-310, info

        monkeypatch.setattr(_kernels(), "dtrsyl", tiny_scale)
        with pytest.raises(LyapunovSolveError, match="overflows: .* scale 1.000e-310"):
            solve_lyapunov(-np.eye(3), np.eye(3))

    @pytest.mark.parametrize(("n", "r"), [(1, 1), (5, 0), (5, 2), (5, 5), (64, 20), (100, 33), (130, 129), (299, 99)])
    def test_block_weight_matches_dense_bit_for_bit(self, n, r):
        rng = np.random.default_rng(n + r)
        a = _stable_random(n, rng)
        c = rng.standard_normal((3, r))
        q = np.zeros((n, n))
        q[:r, :r] = c.T @ c
        dense = solve_lyapunov(a, q)
        assert np.array_equal(solve_lyapunov(a, q[:r, :r]), dense)
        # trailing zero rows and columns of a block are read off it too
        assert np.array_equal(solve_lyapunov(a, q[:r + (r < n), :r + (r < n)]), dense)

    def test_asymmetric_q_rejected(self):
        with pytest.raises(ValidationError, match="symmetric"):
            solve_lyapunov(-np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            solve_lyapunov(-np.eye(2), np.eye(3))

    @pytest.mark.parametrize(("a", "q"), [
        (-np.eye(2), np.eye(3)),
        (-np.eye(3), np.ones((2, 3))),
        (-np.ones((2, 3)), np.eye(2)),
        (np.zeros((0, 0)), np.zeros((0, 0))),
    ], ids=["q-larger", "q-not-square", "a-not-square", "empty"])
    def test_shape_rule_names_the_block_form(self, a, q):
        with pytest.raises(ValidationError, match="A must be square and nonempty and Q square and no larger"):
            solve_lyapunov(a, q)

    @pytest.mark.parametrize("q", [
        [[1.0, 0.2], [0.2, 3.0]],
        [[1.0, 0.2], [0.3, 3.0]],
        [[0.0, 0.5], [0.5 + 2.0**-40, 0.0]],
        [[0.0, 0.5], [0.5 + 2.0**-39, 0.0]],
        [[np.nan, 0.0], [0.0, 1.0]],
        [[0.0, np.nan], [np.nan, 0.0]],
        [[0.0, np.inf], [np.inf, 0.0]],
        [[0.0, -np.inf], [-np.inf, 0.0]],
        [[0.0, np.inf], [-np.inf, 0.0]],
        [[0.0, np.inf], [1.0, 0.0]],
        [[np.inf, 0.0], [0.0, 0.0]],
        [[0.0, np.inf, 0.0], [np.inf, 0.0, 0.5], [0.0, 0.5 + 2.0**-40, 0.0]],
        np.zeros((0, 0)),
    ], ids=["symmetric", "asymmetric", "gap-at-atol", "gap-above-atol", "nan-diagonal", "nan-pair",
            "inf-pair", "minus-inf-pair", "opposite-infs", "inf-against-finite", "inf-diagonal",
            "inf-pair-and-gap", "empty"])
    @pytest.mark.parametrize("atol", [2.0**-40, 1e-12, 0.0, np.inf, np.nan])
    def test_symmetry_verdict_is_allclose(self, q, atol):
        q = np.array(q, dtype=float)
        with warnings.catch_warnings():
            # allclose warns about an infinite or NaN atol
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = np.allclose(q, q.T, rtol=0, atol=atol)
        assert _symmetric_within(q, atol) == expected


# full-Gramian norms of a line (one dtrsyl call) and of a random graph (the
# recursive stage), printed exactly, and the scipy modules loaded for them
_NORMS = textwrap.dedent("""
    import sys
    from gridloss import ControllerParams, assemble_dapi, assemble_droop, build_line_graph
    from gridloss import build_random_connected_graph, h2_full_gramian
    p = ControllerParams(m=0.7, tau=1.3, k=1.1, gamma=0.9)
    for g in (build_line_graph(20, [1.0] * 19, alpha=1.0),
              build_random_connected_graph(40, 0.1, (0.5, 1.5), alpha=1.0, seed=4)):
        print(h2_full_gramian(assemble_droop(g, p)).squared_norm.hex(),
              h2_full_gramian(assemble_dapi(g, p)).squared_norm.hex())
    print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))
""")


class TestNumpyKernels:
    """``_kernels`` on the OpenBLAS that numpy loaded."""

    def test_a_scipy_openblas_build_binds_numpys_kernels(self):
        # numpy's 64-bit wheels bundle an ILP64 scipy-openblas that exports
        # LAPACKE; there, scipy's kernels would load a second LAPACK
        lapack = np.__config__.CONFIG["Build Dependencies"]["lapack"]
        if lapack.get("name") != "scipy-openblas" or sys.maxsize <= 2**32:
            pytest.skip(f"numpy's LAPACK is {lapack.get('name')!r}, not a 64-bit scipy-openblas")
        out = _run_fresh("from gridloss import h2\n" + _NORMS + "print(h2._kernels().origin)\n")
        assert out.splitlines()[-2:] == ["[]", "numpy"]


_M1 = ControllerParams(m=1.0, tau=1.0)


class TestDroopClosedForm:
    def test_fifty_node_value_exact(self):
        res = h2_droop_closed_form(alpha=1.0, params=_M1, n_nodes=50)
        assert res.squared_norm == 24.5
        assert res.per_mode.shape == (49,)
        assert np.all(res.per_mode == 0.5)

    def test_single_node_zero(self):
        res = h2_droop_closed_form(alpha=1.0, params=_M1, n_nodes=1)
        assert res.squared_norm == 0.0
        assert res.per_mode.size == 0

    def test_scaling_in_alpha_and_m(self):
        base = h2_droop_closed_form(alpha=1.0, params=_M1, n_nodes=10).squared_norm
        assert h2_droop_closed_form(alpha=3.0, params=_M1, n_nodes=10).squared_norm == 3.0 * base
        m2 = ControllerParams(m=2.0, tau=1.0)
        assert h2_droop_closed_form(alpha=1.0, params=m2, n_nodes=10).squared_norm == base / 2.0

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            h2_droop_closed_form(alpha=-1.0, params=_M1, n_nodes=5)
        with pytest.raises(ValidationError):
            h2_droop_closed_form(alpha=1.0, params=_M1, n_nodes=0)


class TestDapiClosedForm:
    def test_triangle_unit_parameters(self):
        # complete 3-graph, all parameters 1: each nonzero mode (lam = 3)
        # carries factor 15/19 on the droop value 1/2, total 15/19
        g = build_complete_graph(3, b=1.0, alpha=1.0)
        res = h2_dapi_closed_form(1.0, ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=1.0), _spectrum_of(g))
        assert abs(res.squared_norm - 15.0 / 19.0) < 1e-15
        assert np.allclose(res.per_mode, 15.0 / 38.0, atol=1e-15)

    def test_refuses_a_raw_vector(self):
        spec = _spectrum_of(build_line_graph(4, [1.0] * 3, alpha=1.0))
        p = ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=1.0)
        for raw in (spec.eigenvalues, spec.eigenvalues.tolist()):
            with pytest.raises(ValidationError, match="laplacian_eigenvalues"):
                h2_dapi_closed_form(1.0, p, raw)

    def test_below_droop_for_positive_gamma(self):
        rng = np.random.default_rng(5)
        for seed in range(25):
            n = int(rng.integers(2, 20))
            g = build_random_connected_graph(n, 0.5, (0.5, 1.5), alpha=1.0, seed=seed)
            m, k, tau, gamma = rng.uniform(0.1, 10, 4)
            p = ControllerParams(m=m, tau=tau, k=k, gamma=gamma)
            dapi = h2_dapi_closed_form(1.0, p, _spectrum_of(g))
            droop = h2_droop_closed_form(1.0, p, n)
            assert dapi.squared_norm < droop.squared_norm
            assert np.all(dapi.per_mode < droop.per_mode)
            assert np.all(dapi.per_mode > 0)

    def test_large_gamma_approaches_droop(self):
        g = build_line_graph(6, [1.0] * 5, alpha=1.0)
        p = ControllerParams(m=2.0, tau=1.5, k=0.7, gamma=1e12)
        dapi = h2_dapi_closed_form(1.0, p, _spectrum_of(g))
        droop = h2_droop_closed_form(1.0, p, 6)
        assert abs(dapi.squared_norm - droop.squared_norm) <= 1e-6 * droop.squared_norm

    def test_tau_zero_and_gamma_zero_permitted(self):
        g = build_line_graph(4, [1.0] * 3, alpha=1.0)
        spec = _spectrum_of(g)
        res0 = h2_dapi_closed_form(1.0, ControllerParams(m=1.0, tau=0.0, k=1.0, gamma=2.0), spec)
        res_eps = h2_dapi_closed_form(1.0, ControllerParams(m=1.0, tau=1e-9, k=1.0, gamma=2.0), spec)
        assert res0.squared_norm > 0
        assert abs(res0.squared_norm - res_eps.squared_norm) < 1e-6
        res_g0 = h2_dapi_closed_form(1.0, ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=0.0), spec)
        assert 0 < res_g0.squared_norm < h2_droop_closed_form(1.0, _M1, 4).squared_norm

    def test_eigenvalue_vector_validation(self):
        p = ControllerParams(m=1.0, tau=1.0)
        with pytest.raises(ValidationError, match="got 2 zeros"):
            h2_dapi_closed_form(1.0, p, Spectrum(np.array([0.0, 0.0, 3.0])))
        with pytest.raises(ValidationError, match="got 0 zeros"):
            h2_dapi_closed_form(1.0, p, Spectrum(np.array([1.0, 2.0])))
        with pytest.raises(ValidationError, match="no eigenvalues"):
            h2_dapi_closed_form(1.0, p, Spectrum(np.zeros(0)))
        with pytest.raises(ValidationError, match="ascending"):  # refused by the Spectrum itself
            Spectrum(np.array([3.0, 0.0, 1.0]))
        with pytest.raises(ValidationError, match=r"^eigenvalues must be a vector, got shape \(2, 2\)$"):
            Spectrum(np.eye(2))

    def test_non_finite_alpha_rejected(self):
        spec = _spectrum_of(build_line_graph(3, [1.0] * 2, alpha=1.0))
        with pytest.raises(ValidationError, match="^alpha must be finite and >= 0, got nan$"):
            h2_dapi_closed_form(float("nan"), ControllerParams(m=1.0, tau=1.0), spec)


class TestModalRoute:
    def test_droop_matches_closed_form(self):
        g = build_line_graph(7, [1.0, 0.5, 2.0, 1.0, 0.7, 1.3], alpha=0.9)
        p = ControllerParams(m=1.7, tau=0.6)
        modal = h2_modal(_spectrum_of(g), p, alpha=0.9, kind="droop")
        closed = h2_droop_closed_form(0.9, p, 7)
        assert abs(modal.squared_norm - closed.squared_norm) <= 1e-12 * closed.squared_norm
        assert np.allclose(modal.per_mode, closed.per_mode, rtol=1e-12)

    def test_dapi_matches_closed_form(self):
        g = build_complete_graph(5, b=0.8, alpha=1.2)
        p = ControllerParams(m=0.4, tau=2.0, k=1.5, gamma=0.3)
        spec = _spectrum_of(g)
        modal = h2_modal(spec, p, alpha=1.2, kind="dapi")
        closed = h2_dapi_closed_form(1.2, p, spec)
        assert abs(modal.squared_norm - closed.squared_norm) <= 1e-12 * closed.squared_norm
        assert np.allclose(modal.per_mode, closed.per_mode, rtol=1e-11)

    def test_gamma_zero_raises_naming_mode(self):
        g = build_line_graph(3, [1.0, 1.0], alpha=1.0)
        p = ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=0.0)
        with pytest.raises(StabilityError, match="mode 2"):
            h2_modal(_spectrum_of(g), p, alpha=1.0, kind="dapi")

    @pytest.mark.parametrize("kind", ["droop", "dapi"])
    def test_stiff_line_is_refused_or_exact(self, kind):
        # m = 0.01, tau = 1e-9 puts the slow eigenvalues of each mode below
        # the solver's cut-off -1e-10 max|A|; every mode passes the Routh
        # test, but solving past the cut-off gives 950.0054 (droop) and
        # 13734.9 (DAPI, closed form 534.52) at a backward error of 1e-16.
        # Refusing is right; a value must be the closed form.
        g = build_line_graph(20, [1.0] * 19, alpha=1.0)
        spec = _spectrum_of(g)
        p = ControllerParams(m=0.01, tau=1e-9)
        if kind == "droop":
            closed = h2_droop_closed_form(1.0, p, 20).squared_norm
        else:
            closed = h2_dapi_closed_form(1.0, p, spec).squared_norm
        try:
            value = h2_modal(spec, p, alpha=1.0, kind=kind).squared_norm
        except StabilityError:
            return
        assert abs(value - closed) <= 1e-7 * closed

    def test_per_mode_sums_to_total(self):
        g = build_random_connected_graph(10, 0.4, (0.5, 1.5), alpha=1.0, seed=3)
        p = ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=1.0)
        res = h2_modal(_spectrum_of(g), p, alpha=1.0, kind="dapi")
        assert res.per_mode.size == 9
        assert abs(res.squared_norm - math.fsum(res.per_mode)) <= 1e-10 * res.squared_norm

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 30),
        seed=st.integers(0, 10_000),
        alpha=st.floats(0.1, 3.0),
        log_m=st.floats(-3.0, 3.0),
        log_k=st.floats(-3.0, 3.0),
        log_gamma=st.floats(-3.0, 3.0),
        log_tau=st.floats(-4.0, 2.0),
    )
    def test_every_mode_matches_the_closed_form(self, n, seed, alpha, log_m, log_k, log_gamma, log_tau):
        # parameters log-uniform over 4 to 6 decades; a route that refuses
        # (the Hurwitz margin on a stiff mode) is not compared
        g = build_random_connected_graph(n, min(1.0, 3.0 / n + 0.1), (0.5, 1.5), alpha=alpha, seed=seed)
        spec = laplacian_eigenvalues(susceptance_laplacian(g))
        p = ControllerParams(m=10.0**log_m, tau=10.0**log_tau, k=10.0**log_k, gamma=10.0**log_gamma)
        closed = {"droop": h2_droop_closed_form(alpha, p, n), "dapi": h2_dapi_closed_form(alpha, p, spec)}
        for kind in ("droop", "dapi"):
            try:
                modal = h2_modal(spec, p, alpha, kind)
            except StabilityError:
                continue
            want = closed[kind].per_mode
            assert np.all(np.abs(modal.per_mode - want) <= 1e-10 * want)

    @pytest.mark.parametrize("kind", ["droop", "dapi"])
    def test_single_node_has_no_mode(self, kind):
        spec = laplacian_eigenvalues(susceptance_laplacian(NetworkGraph(1, [], alpha=1.0)))
        res = h2_modal(spec, ControllerParams(m=1.0, tau=1.0), alpha=1.0, kind=kind)
        assert res.squared_norm == 0.0 and res.per_mode.shape == (0,)

    def test_two_nodes_have_one_mode(self):
        g = build_line_graph(2, [1.5], alpha=0.8)
        spec = laplacian_eigenvalues(susceptance_laplacian(g))
        p = ControllerParams(m=0.7, tau=1.3, k=0.9, gamma=1.1)
        for kind, closed in (("droop", h2_droop_closed_form(0.8, p, 2)), ("dapi", h2_dapi_closed_form(0.8, p, spec))):
            res = h2_modal(spec, p, alpha=0.8, kind=kind)
            assert res.per_mode.shape == (1,)
            assert abs(res.squared_norm - closed.squared_norm) <= 1e-14 * closed.squared_norm

    def test_solves_the_blocks_that_verify_modal_equivalence_certifies(self, monkeypatch):
        g = build_random_connected_graph(12, 0.4, (0.5, 1.5), alpha=1.3, seed=4)
        spec, u = spectral_decomposition(susceptance_laplacian(g))
        p = ControllerParams(m=0.8, tau=1.2, k=1.4, gamma=0.6)
        solved = []

        def recording(*args):
            solved.append(gridloss.dynamics.modal_subsystems(*args))
            return solved[-1]

        monkeypatch.setattr(gridloss.h2, "modal_subsystems", recording)
        for kind, assemble in (("droop", assemble_droop), ("dapi", assemble_dapi)):
            h2_modal(spec, p, alpha=1.3, kind=kind)
            assert verify_modal_equivalence(assemble(g, p), solved[-1][0], u) <= 1e-12

    def test_numpy_only(self):
        # the modal route solves its small systems with numpy; scipy stays
        # the full Gramian's fallback
        code = (
            "import sys\n"
            "from gridloss import ControllerParams, build_random_connected_graph, h2_modal,"
            " laplacian_eigenvalues, susceptance_laplacian\n"
            "g = build_random_connected_graph(150, 0.05, (0.5, 1.5), alpha=1.0, seed=3)\n"
            "spec = laplacian_eigenvalues(susceptance_laplacian(g))\n"
            "for kind in ('droop', 'dapi'):\n"
            "    h2_modal(spec, ControllerParams(m=1.0, tau=1.0), 1.0, kind)\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
        )
        assert _run_fresh(code) == "[]\n"

    def test_never_calls_solve_lyapunov(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the modal route must not reach solve_lyapunov")

        monkeypatch.setattr(gridloss.h2, "solve_lyapunov", refuse)
        g = build_random_connected_graph(20, 0.3, (0.5, 1.5), alpha=1.0, seed=5)
        for kind in ("droop", "dapi"):
            h2_modal(_spectrum_of(g), ControllerParams(m=1.0, tau=1.0), alpha=1.0, kind=kind)

    @pytest.mark.parametrize("kind", ["droop", "dapi"])
    def test_weak_tie_is_refused(self, kind):
        # the slowest mode decays at about 4e-11 (droop), past the margin
        with pytest.raises(StabilityError, match="not safely Hurwitz"):
            h2_modal(_cliques_spectrum(1e-10), ControllerParams(m=1.0, tau=1.0), alpha=1.0, kind=kind)

    def test_weaker_tie_droop_is_exact(self):
        res = h2_modal(_cliques_spectrum(1e-8), ControllerParams(m=1.0, tau=1.0), alpha=1.0, kind="droop")
        assert abs(res.squared_norm - 4.5) <= 1e-12 * 4.5

    @pytest.mark.parametrize(("routh_fails_at", "message"), [
        (3, "matrix is not safely Hurwitz (max eigenvalue real part -2.462e-04)"),
        (2, "mode 2 (eigenvalue 0.0246233) is not asymptotically stable"),
    ], ids=["margin-first", "routh-first"])
    def test_each_mode_is_judged_by_routh_then_margin(self, monkeypatch, routh_fails_at, message):
        # on the stiff line mode 2 fails the margin: a Routh failure in a
        # higher mode comes after it, one in the same mode before it
        g = build_line_graph(20, [1.0] * 19, alpha=1.0)
        spec = laplacian_eigenvalues(susceptance_laplacian(g))
        lam = spec.eigenvalues[routh_fails_at - 1]
        monkeypatch.setattr(gridloss.h2, "check_stability", lambda params, mode_lam, kind: mode_lam != lam)
        with pytest.raises(StabilityError) as info:
            h2_modal(spec, ControllerParams(m=0.01, tau=1e-9), alpha=1.0, kind="droop")
        assert str(info.value).startswith(message)

    def test_wrong_solution_rejected(self, monkeypatch):
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda k, rhs: 1.01 * solve(k, rhs))
        g = build_line_graph(5, [1.0] * 4, alpha=1.0)
        with pytest.raises(LyapunovSolveError, match="Lyapunov residual"):
            h2_modal(_spectrum_of(g), ControllerParams(m=1.0, tau=1.0), alpha=1.0, kind="dapi")

    @pytest.mark.parametrize("kind", ["droop", "dapi"])
    def test_float_range_refused_without_warning(self, kind):
        # 69 modes of about 5e306 each: the droop losses overflow their sum,
        # the DAPI Gramians overflow first; no numpy warning on the way
        # (filterwarnings = error), and the residual scale overflows quietly
        g = build_line_graph(70, [1.0] * 69, alpha=1.0)
        with pytest.raises(FloatRangeError, match=f"^the {kind} modal route leaves the float range: "):
            h2_modal(_spectrum_of(g), ControllerParams(m=1.0, tau=1.0), alpha=1e307, kind=kind)
        # two modes of the same scale stay in range and agree with the closed form
        spec, params = _spectrum_of(build_line_graph(3, [1.0, 1.0], alpha=1.0)), ControllerParams(m=1.0, tau=1.0)
        closed = {"droop": h2_droop_closed_form(1e307, params, 3), "dapi": h2_dapi_closed_form(1e307, params, spec)}
        norm = h2_modal(spec, params, alpha=1e307, kind=kind).squared_norm
        assert norm == pytest.approx(closed[kind].squared_norm, rel=1e-7)


class TestFullGramianRoute:
    def test_droop_matches_closed_form(self):
        g = build_line_graph(8, [1.0] * 7, alpha=1.0)
        p = ControllerParams(m=0.8, tau=1.1)
        res = h2_full_gramian(assemble_droop(g, p))
        closed = h2_droop_closed_form(1.0, p, 8)
        assert res.per_mode is None
        assert abs(res.squared_norm - closed.squared_norm) <= 1e-9 * closed.squared_norm

    def test_dapi_matches_closed_form(self):
        g = build_complete_graph(4, b=1.0, alpha=1.0)
        p = ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=1.0)
        ss = assemble_dapi(g, p)
        res = h2_full_gramian(ss)
        closed = h2_dapi_closed_form(1.0, p, _spectrum_of(g))
        assert abs(res.squared_norm - closed.squared_norm) <= 1e-9 * closed.squared_norm

    def test_gamma_zero_refused(self):
        g = build_line_graph(3, [1.0, 1.0], alpha=1.0)
        ss = assemble_dapi(g, ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=0.0))
        with pytest.raises(StabilityError, match="gamma = 0"):
            h2_full_gramian(ss)

    def test_droop_refusal_has_no_dapi_hint(self):
        ss = assemble_droop(build_line_graph(20, [1.0] * 19, alpha=1.0), ControllerParams(m=0.01, tau=1e-9))
        with pytest.raises(StabilityError) as info:
            h2_full_gramian(ss)
        assert str(info.value) == (
            "marginal or unstable modes remain after deflating the rigid phase shift "
            "(matrix is not safely Hurwitz (max eigenvalue real part -2.463e-04))"
        )

    def test_two_node_droop_small_path(self):
        # deflated droop pair has 3 states, exercising the direct solver
        g = build_line_graph(2, [1.0], alpha=1.0)
        ss = assemble_droop(g, ControllerParams(m=1.0, tau=1.0))
        res = h2_full_gramian(ss)
        assert abs(res.squared_norm - 0.5) <= 1e-12

    def test_peak_memory(self, peak_bytes):
        # T, which is the deflated A's own buffer, U and U'QU as it is formed
        # through the (N-1) x n product Q_r U_r; Q is an (N-1) x (N-1) block:
        # 3.77 n x n arrays at these 299 states
        _assert_full_gramian_peak(peak_bytes, 4.0)

    def test_peak_memory_on_scipys_kernels(self, peak_bytes, scipy_kernels):
        # the same stages on scipy's wrappers, whose dgees factorises A' in
        # place too (test_a_is_factorised_in_place)
        _assert_full_gramian_peak(peak_bytes, 4.0)

    def test_norms_are_pinned_bit_for_bit(self):
        # analyze's full-Gramian norms, one BLAS thread: a blocked product's
        # bits depend on the BLAS thread count
        code = textwrap.dedent("""
            import contextlib, io, json, os, tempfile
            from importlib import resources
            from gridloss.cli import main
            ieee57 = str(resources.files("gridloss") / "data" / "ieee57.edges")
            cases = [["--line", "20"], ["--file", ieee57], ["--random", "150,0.05", "--seed", "3"]]
            with tempfile.TemporaryDirectory() as tmp:
                out = os.path.join(tmp, "report.json")
                for argv in cases:
                    with contextlib.redirect_stdout(io.StringIO()):
                        assert main(["analyze", *argv, "--format", "json", "--out", out]) == 0
                    with open(out) as fh:
                        payload = json.load(fh)
                    print(payload["droop"]["full_gramian"].hex(), payload["dapi"]["full_gramian"].hex())
        """)
        src = str(Path(gridloss.h2.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split("\n") == [
            "0x1.3000000000003p+3 0x1.7ac59962c3815p+2",  # --line 20
            "0x1.c000000000008p+4 0x1.3823d635e4d79p+4",  # ieee57
            "0x1.2a00000000000p+6 0x1.071a7c540bfc2p+6",  # --random 150,0.05 --seed 3
            "",
        ]

    def test_reads_no_spectrum(self, monkeypatch):
        # the loss weight enters as H' L_G H, so neither assembly nor the
        # route computes an eigendecomposition
        g = build_random_connected_graph(15, 0.3, (0.5, 1.5), alpha=1.4, seed=9)
        p = ControllerParams(m=0.9, tau=1.2, k=1.5, gamma=0.7)
        spectrum = _spectrum_of(g)
        closed = {"droop": h2_droop_closed_form(1.4, p, 15), "dapi": h2_dapi_closed_form(1.4, p, spectrum)}

        def refuse(*args, **kwargs):
            raise AssertionError("a spectrum was computed")

        for module, name in ((gridloss.dynamics, "spectral_decomposition"),
                             (gridloss.network, "spectral_decomposition"),
                             (np.linalg, "eigh"), (np.linalg, "eigvalsh")):
            monkeypatch.setattr(module, name, refuse)
        for kind, assemble in (("droop", assemble_droop), ("dapi", assemble_dapi)):
            res = h2_full_gramian(assemble(g, p))
            assert abs(res.squared_norm - closed[kind].squared_norm) <= 1e-9 * closed[kind].squared_norm


def _assert_full_gramian_peak(peak_bytes, arrays):
    """The DAPI full-Gramian route on 100 buses peaks within ``arrays`` n x n
    arrays of its n = 299 deflated states."""
    h2_full_gramian(assemble_dapi(build_line_graph(3, [1.0, 1.0], alpha=1.0),
                                  ControllerParams(m=1.0, tau=1.0)))  # binds the LAPACK kernels
    g = build_random_connected_graph(100, 0.05, (0.5, 1.5), alpha=1.0, seed=3)
    ss = assemble_dapi(g, ControllerParams(m=1.0, tau=1.0))
    states = ss.n_states - 1
    with peak_bytes() as peak:
        res = h2_full_gramian(ss)
    assert res.squared_norm > 0
    assert peak.bytes <= arrays * 8 * states**2


_gains = st.floats(0.1, 10.0)
_spectra = st.lists(st.floats(0.05, 20.0), min_size=1, max_size=12).map(lambda w: np.array([0.0, *sorted(w)]))


class TestScalingIdentity:
    """H2(c L; m, gamma) = c H2(L; c m, c gamma) for droop and DAPI: scaling
    every susceptance by c is undone by scaling m and gamma by c, up to the
    loss weight alpha c L_B's factor c.  Each route checks it on its own."""

    @settings(max_examples=60)
    @given(w=_spectra, c=_gains, m=_gains, tau=_gains, k=_gains, gamma=_gains, alpha=st.floats(0.1, 3.0))
    @example(w=np.array([0.0, 1.0, 3.0]), c=0.3, m=1.0, tau=1.0, k=1.0, gamma=1.0, alpha=1.0)
    @example(w=np.array([0.0, 1.0, 3.0]), c=2.0, m=1.0, tau=1.0, k=1.0, gamma=1.0, alpha=1.0)
    @example(w=np.array([0.0, 1.0, 3.0]), c=7.0, m=1.0, tau=1.0, k=1.0, gamma=1.0, alpha=1.0)
    def test_closed_forms(self, w, c, m, tau, k, gamma, alpha):
        p = ControllerParams(m=m, tau=tau, k=k, gamma=gamma)
        p_c = ControllerParams(m=c * m, tau=tau, k=k, gamma=c * gamma)
        droop = h2_droop_closed_form(alpha, p, w.size).squared_norm  # no eigenvalue enters
        assert droop == pytest.approx(c * h2_droop_closed_form(alpha, p_c, w.size).squared_norm, rel=1e-14)
        dapi = h2_dapi_closed_form(alpha, p, Spectrum(c * w)).squared_norm
        assert dapi == pytest.approx(c * h2_dapi_closed_form(alpha, p_c, Spectrum(w)).squared_norm, rel=1e-14)

    @settings(max_examples=40)
    @given(w=_spectra, c=_gains, m=_gains, tau=_gains, k=_gains, gamma=_gains, alpha=st.floats(0.1, 3.0))
    def test_modal_route(self, w, c, m, tau, k, gamma, alpha):
        p = ControllerParams(m=m, tau=tau, k=k, gamma=gamma)
        p_c = ControllerParams(m=c * m, tau=tau, k=k, gamma=c * gamma)
        for kind in ("droop", "dapi"):
            scaled = h2_modal(Spectrum(c * w), p, alpha, kind).squared_norm
            assert scaled == pytest.approx(c * h2_modal(Spectrum(w), p_c, alpha, kind).squared_norm, rel=1e-13)

    @settings(max_examples=20)
    @given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1), c=_gains, m=_gains, tau=_gains, k=_gains,
           gamma=_gains, alpha=st.floats(0.1, 3.0))
    def test_full_gramian(self, n, seed, c, m, tau, k, gamma, alpha):
        g = build_random_connected_graph(n, 0.5, (0.5, 1.5), alpha=alpha, seed=seed)
        g_c = NetworkGraph(n, tuple((i, j, c * b) for i, j, b in g.edges), alpha)
        p = ControllerParams(m=m, tau=tau, k=k, gamma=gamma)
        p_c = ControllerParams(m=c * m, tau=tau, k=k, gamma=c * gamma)
        for assemble in (assemble_droop, assemble_dapi):
            scaled = h2_full_gramian(assemble(g_c, p)).squared_norm
            assert scaled == pytest.approx(c * h2_full_gramian(assemble(g, p_c)).squared_norm, rel=1e-10)


class TestThreeWayAgreement:
    def test_random_graphs_all_routes_agree(self):
        rng = np.random.default_rng(12)
        for seed in range(20):
            n = int(rng.integers(2, 15))
            g = build_random_connected_graph(n, 0.5, (0.5, 1.5), alpha=1.0, seed=100 + seed)
            m, k, tau, gamma = rng.uniform(0.1, 10, 4)
            p = ControllerParams(m=m, tau=tau, k=k, gamma=gamma)
            spec = _spectrum_of(g)

            droop = [
                h2_droop_closed_form(1.0, p, n).squared_norm,
                h2_modal(spec, p, 1.0, "droop").squared_norm,
                h2_full_gramian(assemble_droop(g, p)).squared_norm,
            ]
            dapi = [
                h2_dapi_closed_form(1.0, p, spec).squared_norm,
                h2_modal(spec, p, 1.0, "dapi").squared_norm,
                h2_full_gramian(assemble_dapi(g, p)).squared_norm,
            ]
            for values in (droop, dapi):
                spread = (max(values) - min(values)) / max(values)
                assert spread <= 1e-7, f"routes disagree: {values} (seed {seed})"

    @settings(max_examples=15)
    @given(
        n=st.integers(23, 80),
        p_edge=st.floats(0.15, 0.5),
        seed=st.integers(0, 2**31 - 1),
        m=st.floats(0.3, 3.0),
        tau=st.floats(0.3, 3.0),
        k=st.floats(0.3, 3.0),
        gamma=st.floats(0.3, 3.0),
    )
    def test_full_gramian_matches_closed_forms_past_the_leaf(self, n, p_edge, seed, m, tau, k, gamma):
        # DAPI has 3N - 1 >= 68 deflated states here, so the recursive
        # triangular solve runs; droop reaches it from N = 33
        g = build_random_connected_graph(n, p_edge, (0.5, 1.5), alpha=1.0, seed=seed)
        p = ControllerParams(m=m, tau=tau, k=k, gamma=gamma)
        droop = h2_droop_closed_form(1.0, p, n).squared_norm
        dapi = h2_dapi_closed_form(1.0, p, _spectrum_of(g)).squared_norm
        assert abs(h2_full_gramian(assemble_droop(g, p)).squared_norm - droop) <= 1e-9 * droop
        assert abs(h2_full_gramian(assemble_dapi(g, p)).squared_norm - dapi) <= 1e-9 * dapi

    def test_alpha_linearity_all_routes(self):
        g = build_line_graph(5, [1.0, 2.0, 0.5, 1.5], alpha=1.0)
        g2 = build_line_graph(5, [1.0, 2.0, 0.5, 1.5], alpha=2.0)
        p = ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=1.0)
        spec = _spectrum_of(g)
        assert h2_dapi_closed_form(2.0, p, spec).squared_norm == pytest.approx(
            2.0 * h2_dapi_closed_form(1.0, p, spec).squared_norm, rel=1e-14
        )
        assert h2_modal(spec, p, 2.0, "dapi").squared_norm == pytest.approx(
            2.0 * h2_modal(spec, p, 1.0, "dapi").squared_norm, rel=1e-12
        )
        assert h2_full_gramian(assemble_dapi(g2, p)).squared_norm == pytest.approx(
            2.0 * h2_full_gramian(assemble_dapi(g, p)).squared_norm, rel=1e-9
        )


class TestH2ResultType:
    def test_sum_consistency_enforced(self):
        with pytest.raises(ValidationError, match="sum"):
            H2Result(squared_norm=1.0, per_mode=np.array([0.3, 0.3]))

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            H2Result(squared_norm=-1.0)
        with pytest.raises(ValidationError):
            H2Result(squared_norm=0.3, per_mode=np.array([0.5, -0.2]))

    def test_per_mode_matrix_rejected(self):
        with pytest.raises(ValidationError, match="per_mode must be a vector"):
            H2Result(squared_norm=1.0, per_mode=np.ones((1, 1)))

    def test_per_mode_read_only(self):
        res = h2_droop_closed_form(1.0, _M1, 5)
        with pytest.raises(ValueError):
            res.per_mode[0] = 9.9


def _cliques_spectrum(tie):
    """Eigenvalues of two unit 5-cliques joined by one line of susceptance ``tie``."""
    edges = [(i, j, 1.0) for base in (0, 5) for i, j in itertools.combinations(range(base, base + 5), 2)]
    graph = NetworkGraph(10, [*edges, (4, 5, tie)], alpha=1.0)
    return laplacian_eigenvalues(susceptance_laplacian(graph))
