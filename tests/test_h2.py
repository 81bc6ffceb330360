"""H2 norm routes: closed forms, modal Lyapunov, full Gramian."""

import math
import warnings

import numpy as np
import pytest

from gridloss.dynamics import ControllerParams, assemble_dapi, assemble_droop
from gridloss.errors import StabilityError, ValidationError
from gridloss.h2 import (
    H2Result,
    h2_dapi_closed_form,
    h2_droop_closed_form,
    h2_full_gramian,
    h2_modal,
    solve_lyapunov,
)
from gridloss.network import (
    build_complete_graph,
    build_line_graph,
    build_random_connected_graph,
    laplacians,
    spectral_decomposition,
)


def _spectrum_of(graph):
    return spectral_decomposition(laplacians(graph, 1.0)[0])


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

    def test_asymmetric_q_rejected(self):
        with pytest.raises(ValidationError, match="symmetric"):
            solve_lyapunov(-np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            solve_lyapunov(-np.eye(2), np.eye(3))


class TestDroopClosedForm:
    def test_fifty_node_value_exact(self):
        res = h2_droop_closed_form(alpha=1.0, m=1.0, n_nodes=50)
        assert res.squared_norm == 24.5
        assert res.method == "closed_form"
        assert res.per_mode.shape == (49,)
        assert np.all(res.per_mode == 0.5)

    def test_single_node_zero(self):
        res = h2_droop_closed_form(alpha=1.0, m=1.0, n_nodes=1)
        assert res.squared_norm == 0.0
        assert res.per_mode.size == 0

    def test_scaling_in_alpha_and_m(self):
        base = h2_droop_closed_form(alpha=1.0, m=1.0, n_nodes=10).squared_norm
        assert h2_droop_closed_form(alpha=3.0, m=1.0, n_nodes=10).squared_norm == 3.0 * base
        assert h2_droop_closed_form(alpha=1.0, m=2.0, n_nodes=10).squared_norm == base / 2.0

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            h2_droop_closed_form(alpha=-1.0, m=1.0, n_nodes=5)
        with pytest.raises(ValidationError):
            h2_droop_closed_form(alpha=1.0, m=0.0, n_nodes=5)
        with pytest.raises(ValidationError):
            h2_droop_closed_form(alpha=1.0, m=1.0, n_nodes=0)


class TestDapiClosedForm:
    def test_triangle_unit_parameters(self):
        # complete 3-graph, all parameters 1: each nonzero mode (lam = 3)
        # carries factor 15/19 on the droop value 1/2, total 15/19
        g = build_complete_graph(3, b=1.0, alpha=1.0)
        res = h2_dapi_closed_form(1.0, ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=1.0), _spectrum_of(g))
        assert abs(res.squared_norm - 15.0 / 19.0) < 1e-15
        assert np.allclose(res.per_mode, 15.0 / 38.0, atol=1e-15)

    def test_accepts_spectrum_or_vector(self):
        g = build_line_graph(4, [1.0] * 3, alpha=1.0)
        spec = _spectrum_of(g)
        p = ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=1.0)
        a = h2_dapi_closed_form(1.0, p, spec)
        b = h2_dapi_closed_form(1.0, p, spec.eigenvalues)
        assert a.squared_norm == b.squared_norm

    def test_below_droop_for_positive_gamma(self):
        rng = np.random.default_rng(5)
        for seed in range(25):
            n = int(rng.integers(2, 20))
            g = build_random_connected_graph(n, 0.5, (0.5, 1.5), alpha=1.0, seed=seed)
            m, k, tau, gamma = rng.uniform(0.1, 10, 4)
            p = ControllerParams(m=m, tau=tau, k=k, gamma=gamma)
            dapi = h2_dapi_closed_form(1.0, p, _spectrum_of(g))
            droop = h2_droop_closed_form(1.0, m, n)
            assert dapi.squared_norm < droop.squared_norm
            assert np.all(dapi.per_mode < droop.per_mode)
            assert np.all(dapi.per_mode > 0)

    def test_large_gamma_approaches_droop(self):
        g = build_line_graph(6, [1.0] * 5, alpha=1.0)
        p = ControllerParams(m=2.0, tau=1.5, k=0.7, gamma=1e12)
        dapi = h2_dapi_closed_form(1.0, p, _spectrum_of(g))
        droop = h2_droop_closed_form(1.0, 2.0, 6)
        assert abs(dapi.squared_norm - droop.squared_norm) <= 1e-6 * droop.squared_norm

    def test_tau_zero_and_gamma_zero_permitted(self):
        g = build_line_graph(4, [1.0] * 3, alpha=1.0)
        spec = _spectrum_of(g)
        res0 = h2_dapi_closed_form(1.0, ControllerParams(m=1.0, tau=0.0, k=1.0, gamma=2.0), spec)
        res_eps = h2_dapi_closed_form(1.0, ControllerParams(m=1.0, tau=1e-9, k=1.0, gamma=2.0), spec)
        assert res0.squared_norm > 0
        assert abs(res0.squared_norm - res_eps.squared_norm) < 1e-6
        res_g0 = h2_dapi_closed_form(1.0, ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=0.0), spec)
        assert 0 < res_g0.squared_norm < h2_droop_closed_form(1.0, 1.0, 4).squared_norm

    def test_eigenvalue_vector_validation(self):
        p = ControllerParams(m=1.0, tau=1.0)
        with pytest.raises(ValidationError):
            h2_dapi_closed_form(1.0, p, [0.0, 0.0, 3.0])  # two zeros
        with pytest.raises(ValidationError):
            h2_dapi_closed_form(1.0, p, [3.0, 0.0, 1.0])  # not ascending
        with pytest.raises(ValidationError):
            h2_dapi_closed_form(1.0, p, [1.0, 2.0])  # no zero mode


class TestModalRoute:
    def test_droop_matches_closed_form(self):
        g = build_line_graph(7, [1.0, 0.5, 2.0, 1.0, 0.7, 1.3], alpha=0.9)
        p = ControllerParams(m=1.7, tau=0.6)
        modal = h2_modal(_spectrum_of(g), p, alpha=0.9, kind="droop")
        closed = h2_droop_closed_form(0.9, 1.7, 7)
        assert modal.method == "modal_lyapunov"
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

    def test_per_mode_sums_to_total(self):
        g = build_random_connected_graph(10, 0.4, (0.5, 1.5), alpha=1.0, seed=3)
        p = ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=1.0)
        res = h2_modal(_spectrum_of(g), p, alpha=1.0, kind="dapi")
        assert res.per_mode.size == 9
        assert abs(res.squared_norm - math.fsum(res.per_mode)) <= 1e-10 * res.squared_norm


class TestFullGramianRoute:
    def test_droop_matches_closed_form(self):
        g = build_line_graph(8, [1.0] * 7, alpha=1.0)
        ss = assemble_droop(g, ControllerParams(m=0.8, tau=1.1))
        res = h2_full_gramian(ss)
        closed = h2_droop_closed_form(1.0, 0.8, 8)
        assert res.method == "full_gramian"
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ss = assemble_dapi(g, ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=0.0))
        with pytest.raises(StabilityError, match="gamma = 0"):
            h2_full_gramian(ss)

    def test_two_node_droop_small_path(self):
        # deflated droop pair has 3 states, exercising the direct solver
        g = build_line_graph(2, [1.0], alpha=1.0)
        ss = assemble_droop(g, ControllerParams(m=1.0, tau=1.0))
        res = h2_full_gramian(ss)
        assert abs(res.squared_norm - 0.5) <= 1e-12


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
                h2_droop_closed_form(1.0, m, n).squared_norm,
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
            H2Result(squared_norm=1.0, method="closed_form", per_mode=np.array([0.3, 0.3]))

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            H2Result(squared_norm=-1.0, method="closed_form")
        with pytest.raises(ValidationError):
            H2Result(squared_norm=0.3, method="closed_form", per_mode=np.array([0.5, -0.2]))

    def test_bad_method_rejected(self):
        with pytest.raises(ValidationError):
            H2Result(squared_norm=1.0, method="quadrature")

    def test_per_mode_read_only(self):
        res = h2_droop_closed_form(1.0, 1.0, 5)
        with pytest.raises(ValueError):
            res.per_mode[0] = 9.9
