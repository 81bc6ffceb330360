"""Closed-loop assembly, modal decomposition, and stability tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridloss.dynamics import (
    ControllerParams,
    ModalSubsystem,
    StateSpace,
    assemble_dapi,
    assemble_droop,
    _conductance_sqrt,
    check_stability,
    modal_subsystems,
    verify_modal_equivalence,
)
from gridloss.errors import AssemblyError, ValidationError
from gridloss.network import (
    build_complete_graph,
    build_line_graph,
    build_random_connected_graph,
    laplacian_eigenvalues,
    laplacians,
    spectral_decomposition,
)


def _spectrum_of(graph):
    return spectral_decomposition(laplacians(graph, 1.0)[0])


class TestControllerParams:
    def test_valid(self):
        p = ControllerParams(m=0.5, tau=2.0, k=3.0, gamma=0.0)
        assert (p.m, p.tau, p.k, p.gamma) == (0.5, 2.0, 3.0, 0.0)

    def test_invalid_values(self):
        with pytest.raises(ValidationError):
            ControllerParams(m=0.0, tau=1.0)
        with pytest.raises(ValidationError):
            ControllerParams(m=1.0, tau=-1.0)
        with pytest.raises(ValidationError):
            ControllerParams(m=1.0, tau=1.0, k=0.0)
        with pytest.raises(ValidationError):
            ControllerParams(m=1.0, tau=1.0, gamma=-0.1)
        with pytest.raises(ValidationError):
            ControllerParams(m=float("inf"), tau=1.0)


class TestAssembleDroop:
    def test_two_node_unit_system(self):
        g = build_line_graph(2, [1.0], alpha=1.0)
        ss = assemble_droop(g, ControllerParams(m=1.0, tau=1.0))
        a_expected = np.array([
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [-1.0, 1.0, -1.0, 0.0],
            [1.0, -1.0, 0.0, -1.0],
        ])
        assert np.allclose(ss.a, a_expected, atol=0)
        assert np.allclose(ss.b, np.vstack([np.zeros((2, 2)), np.eye(2)]), atol=0)
        # C = [ (alpha L_B)^{1/2}, 0 ] = [ L_B / sqrt(2), 0 ] for this graph
        c_theta = np.array([[1.0, -1.0], [-1.0, 1.0]]) / math.sqrt(2.0)
        assert np.allclose(ss.c[:, :2], c_theta, atol=1e-14)
        assert np.array_equal(ss.c[:, 2:], np.zeros((2, 2)))
        assert ss.controller_kind == "droop"
        assert ss.n_nodes == 2 and ss.n_states == 4

    def test_droop_ignores_k_and_gamma(self):
        g = build_line_graph(4, [1.0, 2.0, 0.5], alpha=0.7)
        ss1 = assemble_droop(g, ControllerParams(m=2.0, tau=0.5, k=1.0, gamma=1.0))
        ss2 = assemble_droop(g, ControllerParams(m=2.0, tau=0.5, k=9.0, gamma=4.2))
        assert np.array_equal(ss1.a, ss2.a)
        assert np.array_equal(ss1.b, ss2.b)
        assert np.array_equal(ss1.c, ss2.c)

    def test_tau_zero_rejected(self):
        g = build_line_graph(2, [1.0], alpha=1.0)
        with pytest.raises(AssemblyError, match="closed-form"):
            assemble_droop(g, ControllerParams(m=1.0, tau=0.0))

    def test_output_annihilates_uniform_phase(self):
        g = build_random_connected_graph(12, 0.4, (0.5, 1.5), alpha=1.3, seed=4)
        ss = assemble_droop(g, ControllerParams(m=1.0, tau=1.0))
        v = np.concatenate([np.ones(12), np.zeros(12)])
        assert np.linalg.norm(ss.c @ v) <= 1e-10


class TestAssembleDapi:
    def test_two_node_unit_system(self):
        g = build_line_graph(2, [1.0], alpha=1.0)
        ss = assemble_dapi(g, ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=1.0))
        a_expected = np.array([
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
            [-1.0, 1.0, -1.0, 0.0, 1.0, 0.0],
            [1.0, -1.0, 0.0, -1.0, 0.0, 1.0],
            [0.0, 0.0, -1.0, 0.0, -1.0, 1.0],
            [0.0, 0.0, 0.0, -1.0, 1.0, -1.0],
        ])
        assert np.allclose(ss.a, a_expected, atol=0)
        assert np.allclose(ss.b, np.vstack([np.zeros((2, 2)), np.eye(2), np.zeros((2, 2))]), atol=0)
        assert np.array_equal(ss.c[:, 2:], np.zeros((2, 4)))
        assert ss.n_states == 6

    def test_gamma_zero_warns(self):
        g = build_line_graph(3, [1.0, 1.0], alpha=1.0)
        with pytest.warns(RuntimeWarning, match="marginal"):
            ss = assemble_dapi(g, ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=0.0))
        assert ss.n_states == 9

    def test_tau_zero_rejected(self):
        g = build_line_graph(2, [1.0], alpha=1.0)
        with pytest.raises(AssemblyError):
            assemble_dapi(g, ControllerParams(m=1.0, tau=0.0))

    def test_assembled_eigenvalues_one_zero_rest_stable(self):
        g = build_line_graph(20, [1.0] * 19, alpha=1.0)
        ss = assemble_dapi(g, ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=1.0))
        eig = np.linalg.eigvals(ss.a)
        scale = np.max(np.abs(ss.a))
        n_zero = int(np.count_nonzero(np.abs(eig) <= 1e-9 * scale))
        assert n_zero == 1
        rest = eig[np.abs(eig) > 1e-9 * scale]
        assert np.all(rest.real < 0)

    def test_output_annihilates_uniform_phase(self):
        g = build_random_connected_graph(10, 0.5, (0.5, 1.5), alpha=2.0, seed=6)
        ss = assemble_dapi(g, ControllerParams(m=0.7, tau=1.2, k=1.7, gamma=0.8))
        v = np.concatenate([np.ones(10), np.zeros(20)])
        assert np.linalg.norm(ss.c @ v) <= 1e-10


class TestModalSubsystems:
    def test_droop_mode_matrices(self):
        g = build_complete_graph(3, b=1.0, alpha=1.0)  # eigenvalues 0, 3, 3
        subs = modal_subsystems(_spectrum_of(g), ControllerParams(m=1.0, tau=1.0), alpha=1.0, kind="droop")
        assert [s.mode_index for s in subs] == [1, 2, 3]
        sub = subs[1]
        assert sub.eigenvalue == 3.0
        assert np.allclose(sub.a, np.array([[0.0, 1.0], [-3.0, -1.0]]), atol=0)
        assert np.allclose(sub.b, np.array([[0.0], [1.0]]), atol=0)
        assert np.allclose(sub.c, np.array([[math.sqrt(3.0), 0.0]]), atol=1e-15)

    def test_dapi_mode_matrix_coupling_signs(self):
        # omega'_n couples +1/tau into the averaging state; the averaging row
        # couples -1/k and -gamma lam / k.  A sign slip in the (2,3) entry
        # breaks the match with the assembled loop (see equivalence tests).
        g = build_complete_graph(3, b=1.0, alpha=1.0)
        subs = modal_subsystems(
            _spectrum_of(g), ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=1.0), alpha=1.0, kind="dapi"
        )
        expected = np.array([[0.0, 1.0, 0.0], [-3.0, -1.0, 1.0], [0.0, -1.0, -3.0]])
        assert np.allclose(subs[2].a, expected, atol=0)
        assert np.allclose(subs[2].b, np.array([[0.0], [1.0], [0.0]]), atol=0)
        assert np.allclose(subs[2].c, np.array([[math.sqrt(3.0), 0.0, 0.0]]), atol=1e-15)

    def test_zero_mode_has_zero_output(self):
        g = build_line_graph(5, [1.0] * 4, alpha=3.0)
        for kind in ("droop", "dapi"):
            subs = modal_subsystems(
                _spectrum_of(g), ControllerParams(m=1.0, tau=1.0), alpha=3.0, kind=kind
            )
            assert subs[0].eigenvalue == 0.0
            assert np.array_equal(subs[0].c, np.zeros_like(subs[0].c))

    def test_tau_zero_rejected(self):
        g = build_line_graph(2, [1.0], alpha=1.0)
        with pytest.raises(AssemblyError):
            modal_subsystems(_spectrum_of(g), ControllerParams(m=1.0, tau=0.0), alpha=1.0, kind="droop")

    def test_bad_kind_rejected(self):
        g = build_line_graph(2, [1.0], alpha=1.0)
        with pytest.raises(ValidationError):
            modal_subsystems(_spectrum_of(g), ControllerParams(m=1.0, tau=1.0), alpha=1.0, kind="pi")

    def test_eigenvalue_only_spectrum_rejected(self):
        # the modal blocks stand for the closed loop in the eigenvector basis
        spec = laplacian_eigenvalues(laplacians(build_line_graph(4, [1.0] * 3, alpha=1.0), 1.0)[0])
        p = ControllerParams(m=1.0, tau=1.0)
        with pytest.raises(ValidationError, match="spectral_decomposition"):
            modal_subsystems(spec, p, alpha=1.0, kind="dapi")
        with pytest.raises(ValidationError, match="spectral_decomposition"):
            _conductance_sqrt(spec, 1.0)


class TestCheckStability:
    def test_positive_parameters_always_stable(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            m, k, tau, gamma = rng.uniform(1e-3, 10, 4)
            lam = rng.uniform(1e-3, 100)
            p = ControllerParams(m=m, tau=tau, k=k, gamma=gamma)
            assert check_stability(p, lam, "droop")
            assert check_stability(p, lam, "dapi")

    def test_gamma_zero_marginal(self):
        p = ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=0.0)
        assert check_stability(p, 2.0, "dapi") is False
        assert check_stability(p, 2.0, "droop") is True

    def test_agrees_with_root_oracle(self):
        # oracle: explicit root computation of the characteristic cubic
        rng = np.random.default_rng(7)
        for _ in range(50):
            m, k, tau = rng.uniform(0.05, 5, 3)
            gamma = float(rng.choice([0.0, rng.uniform(0.05, 5)]))
            lam = rng.uniform(0.05, 50)
            coeffs = [
                1.0,
                gamma * lam / k + 1.0 / tau,
                (gamma * lam + 1.0) / (k * tau) + m * lam / tau,
                m * gamma * lam**2 / (k * tau),
            ]
            roots = np.roots(coeffs)
            oracle = bool(np.all(roots.real < -1e-12))
            p = ControllerParams(m=m, tau=tau, k=k, gamma=gamma)
            assert check_stability(p, lam, "dapi") == oracle

    def test_nonpositive_eigenvalue_rejected(self):
        p = ControllerParams(m=1.0, tau=1.0)
        for lam in (0.0, -1.0):
            with pytest.raises(ValidationError):
                check_stability(p, lam, "droop")

    def test_tau_zero_rejected(self):
        with pytest.raises(AssemblyError):
            check_stability(ControllerParams(m=1.0, tau=0.0), 1.0, "dapi")


class TestDroopIsLeadingDapiBlock:
    @settings(max_examples=60)
    @given(
        n=st.integers(2, 12),
        p=st.floats(0.2, 1.0),
        seed=st.integers(0, 10_000),
        alpha=st.floats(0.0, 5.0),
        m=st.floats(0.05, 20.0),
        tau=st.floats(0.05, 20.0),
        k=st.floats(0.05, 20.0),
        gamma=st.floats(0.01, 20.0),
    )
    def test_droop_equals_leading_dapi_blocks(self, n, p, seed, alpha, m, tau, k, gamma):
        # the droop loop is the DAPI loop without its averaging layer: the
        # leading 2N rows and columns must match bit for bit
        g = build_random_connected_graph(n, p, (0.5, 1.5), alpha=alpha, seed=seed)
        params = ControllerParams(m=m, tau=tau, k=k, gamma=gamma)
        droop, dapi = assemble_droop(g, params), assemble_dapi(g, params)
        assert np.array_equal(droop.a, dapi.a[:2 * n, :2 * n])
        assert np.array_equal(droop.b, dapi.b[:2 * n])
        assert np.array_equal(droop.c, dapi.c[:, :2 * n])


class TestModalEquivalence:
    def test_two_node_droop_exact(self):
        g = build_line_graph(2, [1.0], alpha=1.0)
        p = ControllerParams(m=1.0, tau=1.0)
        ss = assemble_droop(g, p)
        spec = _spectrum_of(g)
        subs = modal_subsystems(spec, p, alpha=1.0, kind="droop")
        assert verify_modal_equivalence(ss, subs, spec) <= 1e-12

    def test_complete_graph_dapi(self):
        g = build_complete_graph(3, b=1.0, alpha=1.0)
        p = ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=1.0)
        ss = assemble_dapi(g, p)
        spec = _spectrum_of(g)
        subs = modal_subsystems(spec, p, alpha=1.0, kind="dapi")
        assert verify_modal_equivalence(ss, subs, spec) <= 1e-12

    def test_random_graphs_within_tolerance(self):
        rng = np.random.default_rng(3)
        for seed in range(8):
            n = int(rng.integers(3, 20))
            g = build_random_connected_graph(n, 0.4, (0.5, 1.5), alpha=1.0, seed=seed)
            m, k, tau, gamma = rng.uniform(0.1, 5, 4)
            p = ControllerParams(m=m, tau=tau, k=k, gamma=gamma)
            spec = _spectrum_of(g)
            for kind, assemble in (("droop", assemble_droop), ("dapi", assemble_dapi)):
                ss = assemble(g, p)
                subs = modal_subsystems(spec, p, alpha=1.0, kind=kind)
                dev = verify_modal_equivalence(ss, subs, spec)
                assert dev <= 1e-8 * np.max(np.abs(ss.a))

    def test_dimension_mismatch_rejected(self):
        g2 = build_line_graph(2, [1.0], alpha=1.0)
        g3 = build_line_graph(3, [1.0, 1.0], alpha=1.0)
        p = ControllerParams(m=1.0, tau=1.0)
        ss = assemble_droop(g2, p)
        spec3 = _spectrum_of(g3)
        subs3 = modal_subsystems(spec3, p, alpha=1.0, kind="droop")
        with pytest.raises(ValidationError, match="mismatch"):
            verify_modal_equivalence(ss, subs3, spec3)


class TestStateSpaceType:
    def test_arrays_read_only(self):
        g = build_line_graph(2, [1.0], alpha=1.0)
        ss = assemble_droop(g, ControllerParams(m=1.0, tau=1.0))
        with pytest.raises(ValueError):
            ss.a[0, 0] = 1.0

    def test_shape_validation(self):
        with pytest.raises(ValidationError, match="shapes"):
            StateSpace(a=np.eye(4), b=np.zeros((4, 2)), c=np.zeros((2, 5)), controller_kind="droop")
        with pytest.raises(ValidationError):
            StateSpace(a=np.eye(4), b=np.zeros((4, 2)), c=np.zeros((2, 4)), controller_kind="dapi")

    def test_bad_kind(self):
        with pytest.raises(ValidationError):
            StateSpace(a=np.eye(2), b=np.zeros((2, 1)), c=np.zeros((1, 2)), controller_kind="pid")

    def test_modal_shape_validation(self):
        with pytest.raises(ValidationError):
            ModalSubsystem(mode_index=1, eigenvalue=1.0, a=np.eye(4), b=np.zeros((4, 1)), c=np.zeros((1, 4)))

    def test_dump_round_trip(self, tmp_path):
        g = build_line_graph(3, [1.0, 2.0], alpha=1.0)
        ss = assemble_dapi(g, ControllerParams(m=0.3, tau=0.7, k=1.1, gamma=2.0))
        path = tmp_path / "system.txt"
        ss.dump(path)
        tokens = path.read_text().split()
        pos = 0
        for mat in (ss.a, ss.b, ss.c):
            rows, cols = int(tokens[pos]), int(tokens[pos + 1])
            assert (rows, cols) == mat.shape
            pos += 2
            block = np.array(tokens[pos:pos + rows * cols], dtype=float).reshape(rows, cols)
            assert np.array_equal(block, mat)
            pos += rows * cols
        assert pos == len(tokens)
