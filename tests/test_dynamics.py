"""Closed-loop assembly, modal decomposition, and stability tests."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridloss.dynamics
from gridloss.dynamics import (
    ControllerParams,
    ModalBlocks,
    StateSpace,
    assemble_dapi,
    assemble_droop,
    check_stability,
    droop_part,
    modal_subsystems,
    verify_modal_equivalence,
)
from gridloss.errors import AssemblyError, ValidationError
from gridloss.h2 import h2_modal
from gridloss.network import (
    Laplacian,
    NetworkGraph,
    build_complete_graph,
    build_line_graph,
    build_random_connected_graph,
    laplacian_eigenvalues,
    spectral_decomposition,
    susceptance_laplacian,
)


def _spectrum_of(graph):
    return spectral_decomposition(susceptance_laplacian(graph))


def _zero_laplacian(n):
    return Laplacian(np.zeros((n, n)), "conductance")


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
        blocks = modal_subsystems(_spectrum_of(g), ControllerParams(m=1.0, tau=1.0), alpha=1.0, kind="droop")
        assert (blocks.a.shape, blocks.b.shape, blocks.c.shape) == ((3, 2, 2), (3, 2, 1), (3, 1, 2))
        assert blocks.eigenvalues[1] == 3.0
        assert np.allclose(blocks.a[1], np.array([[0.0, 1.0], [-3.0, -1.0]]), atol=0)
        assert np.allclose(blocks.b[1], np.array([[0.0], [1.0]]), atol=0)
        assert np.allclose(blocks.c[1], np.array([[math.sqrt(3.0), 0.0]]), atol=1e-15)

    def test_dapi_mode_matrix_coupling_signs(self):
        # omega'_n couples +1/tau into the averaging state; the averaging row
        # couples -1/k and -gamma lam / k.  A sign slip in the (2,3) entry
        # breaks the match with the assembled loop (see equivalence tests).
        g = build_complete_graph(3, b=1.0, alpha=1.0)
        blocks = modal_subsystems(
            _spectrum_of(g), ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=1.0), alpha=1.0, kind="dapi"
        )
        expected = np.array([[0.0, 1.0, 0.0], [-3.0, -1.0, 1.0], [0.0, -1.0, -3.0]])
        assert np.allclose(blocks.a[2], expected, atol=0)
        assert np.allclose(blocks.b[2], np.array([[0.0], [1.0], [0.0]]), atol=0)
        assert np.allclose(blocks.c[2], np.array([[math.sqrt(3.0), 0.0, 0.0]]), atol=1e-15)

    def test_zero_mode_has_zero_output(self):
        g = build_line_graph(5, [1.0] * 4, alpha=3.0)
        for kind in ("droop", "dapi"):
            blocks = modal_subsystems(
                _spectrum_of(g), ControllerParams(m=1.0, tau=1.0), alpha=3.0, kind=kind
            )
            assert blocks.eigenvalues[0] == 0.0
            assert np.array_equal(blocks.c[0], np.zeros_like(blocks.c[0]))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 10_000),
        alpha=st.sampled_from([0.0, 0.37, 1.0, 2.5]),
        m=st.floats(1e-3, 1e3),
        tau=st.floats(1e-4, 1e2),
        k=st.floats(1e-3, 1e3),
        gamma=st.sampled_from([0.0, 1e-3, 0.7, 1e3]),
    )
    def test_stack_equals_per_mode_literals_bit_for_bit(self, n, seed, alpha, m, tau, k, gamma):
        # the reference builds each mode from array literals; every bit,
        # the sign of each zero included (-m 0 / tau is -0.0), must match
        g = build_random_connected_graph(n, 0.5, (0.5, 1.5), alpha=alpha, seed=seed)
        spec = laplacian_eigenvalues(susceptance_laplacian(g))
        p = ControllerParams(m=m, tau=tau, k=k, gamma=gamma)
        for kind in ("droop", "dapi"):
            blocks = modal_subsystems(spec, p, alpha, kind)
            assert isinstance(blocks, ModalBlocks)
            assert blocks.eigenvalues.tobytes() == spec.eigenvalues.tobytes()
            for i, lam in enumerate(spec.eigenvalues):
                gain = np.sqrt(alpha * lam)
                if kind == "droop":
                    a = np.array([[0.0, 1.0], [-m * lam / tau, -1.0 / tau]])
                    b = np.array([[0.0], [1.0 / tau]])
                    c = np.array([[gain, 0.0]])
                else:
                    a = np.array([
                        [0.0, 1.0, 0.0],
                        [-m * lam / tau, -1.0 / tau, 1.0 / tau],
                        [0.0, -1.0 / k, -gamma * lam / k],
                    ])
                    b = np.array([[0.0], [1.0 / tau], [0.0]])
                    c = np.array([[gain, 0.0, 0.0]])
                for got, want in ((blocks.a[i], a), (blocks.b[i], b), (blocks.c[i], c)):
                    assert got.tobytes() == want.tobytes()
                    assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_stack_is_read_only(self):
        g = build_line_graph(4, [1.0] * 3, alpha=1.0)
        blocks = modal_subsystems(_spectrum_of(g), ControllerParams(m=1.0, tau=1.0), alpha=1.0, kind="dapi")
        for arr in (blocks.eigenvalues, blocks.a, blocks.b, blocks.c):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_tau_zero_rejected(self):
        g = build_line_graph(2, [1.0], alpha=1.0)
        with pytest.raises(AssemblyError):
            modal_subsystems(_spectrum_of(g), ControllerParams(m=1.0, tau=0.0), alpha=1.0, kind="droop")

    def test_bad_kind_rejected(self):
        g = build_line_graph(2, [1.0], alpha=1.0)
        with pytest.raises(ValidationError):
            modal_subsystems(_spectrum_of(g), ControllerParams(m=1.0, tau=1.0), alpha=1.0, kind="pi")

    def test_eigenvalue_only_spectrum_rejected(self):
        # the modal blocks stand for the closed loop in the eigenvector basis,
        # so only the check against the assembled loop needs the vectors
        g = build_line_graph(4, [1.0] * 3, alpha=1.0)
        spec = laplacian_eigenvalues(susceptance_laplacian(g))
        p = ControllerParams(m=1.0, tau=1.0)
        blocks = modal_subsystems(spec, p, alpha=1.0, kind="dapi")
        with pytest.raises(ValidationError, match="spectral_decomposition"):
            verify_modal_equivalence(assemble_dapi(g, p), blocks, spec)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 30),
        seed=st.integers(0, 10_000),
        alpha=st.floats(0.1, 3.0),
        m=st.floats(0.2, 3.0),
        tau=st.floats(0.2, 3.0),
        k=st.floats(0.2, 3.0),
        gamma=st.floats(0.1, 3.0),
    )
    def test_eigenvalue_only_spectrum_gives_the_same_modal_norm(self, n, seed, alpha, m, tau, k, gamma):
        g = build_random_connected_graph(n, min(1.0, 3.0 / n + 0.1), (0.5, 1.5), alpha=alpha, seed=seed)
        lb = susceptance_laplacian(g)
        p = ControllerParams(m=m, tau=tau, k=k, gamma=gamma)
        for kind in ("droop", "dapi"):
            want = h2_modal(spectral_decomposition(lb), p, alpha, kind).squared_norm
            got = h2_modal(laplacian_eigenvalues(lb), p, alpha, kind).squared_norm
            assert abs(got - want) <= 1e-14 * want


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
        # leading 2N rows and columns must match bit for bit, and droop_part
        # cuts exactly those from an assembled DAPI loop
        g = build_random_connected_graph(n, p, (0.5, 1.5), alpha=alpha, seed=seed)
        params = ControllerParams(m=m, tau=tau, k=k, gamma=gamma)
        droop, dapi = assemble_droop(g, params), assemble_dapi(g, params)
        assert np.array_equal(droop.a, dapi.a[:2 * n, :2 * n])
        assert np.array_equal(droop.b, dapi.b[:2 * n])
        assert np.array_equal(droop.c, dapi.c[:, :2 * n])
        part = droop_part(dapi)
        assert part.controller_kind == "droop" and part.l_g is dapi.l_g
        assert part.a.tobytes() == droop.a.tobytes() and part.b.tobytes() == droop.b.tobytes()
        assert droop.l_g.matrix.tobytes() == dapi.l_g.matrix.tobytes()


class TestModalEquivalence:
    def test_two_node_droop_exact(self):
        g = build_line_graph(2, [1.0], alpha=1.0)
        p = ControllerParams(m=1.0, tau=1.0)
        ss = assemble_droop(g, p)
        spec = _spectrum_of(g)
        blocks = modal_subsystems(spec, p, alpha=1.0, kind="droop")
        assert verify_modal_equivalence(ss, blocks, spec) <= 1e-12

    def test_complete_graph_dapi(self):
        g = build_complete_graph(3, b=1.0, alpha=1.0)
        p = ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=1.0)
        ss = assemble_dapi(g, p)
        spec = _spectrum_of(g)
        blocks = modal_subsystems(spec, p, alpha=1.0, kind="dapi")
        assert verify_modal_equivalence(ss, blocks, spec) <= 1e-12

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
                blocks = modal_subsystems(spec, p, alpha=1.0, kind=kind)
                dev = verify_modal_equivalence(ss, blocks, spec)
                assert dev <= 1e-8 * np.max(np.abs(ss.a))

    def test_dimension_mismatch_rejected(self):
        g2 = build_line_graph(2, [1.0], alpha=1.0)
        g3 = build_line_graph(3, [1.0, 1.0], alpha=1.0)
        p = ControllerParams(m=1.0, tau=1.0)
        ss = assemble_droop(g2, p)
        spec3 = _spectrum_of(g3)
        blocks3 = modal_subsystems(spec3, p, alpha=1.0, kind="droop")
        with pytest.raises(ValidationError, match="mismatch"):
            verify_modal_equivalence(ss, blocks3, spec3)


class TestStateSpaceType:
    def test_arrays_read_only(self):
        g = build_line_graph(2, [1.0], alpha=1.0)
        ss = assemble_droop(g, ControllerParams(m=1.0, tau=1.0))
        with pytest.raises(ValueError):
            ss.a[0, 0] = 1.0

    def test_read_only_float_arrays_are_kept_as_handed_in(self):
        a, b = -np.eye(4), np.vstack([np.zeros((2, 2)), np.eye(2)])
        writeable = StateSpace(a=a, b=b, l_g=_zero_laplacian(2), controller_kind="droop")
        assert writeable.a is not a and writeable.b is not b and a.flags.writeable
        for arr in (a, b):
            arr.setflags(write=False)
        kept = StateSpace(a=a, b=b, l_g=_zero_laplacian(2), controller_kind="droop")
        assert kept.a is a and kept.b is b

    def test_assemblers_hand_over_contiguous_arrays_of_their_own(self):
        g = build_random_connected_graph(9, 0.5, (0.5, 1.5), alpha=1.3, seed=2)
        dapi = assemble_dapi(g, ControllerParams(m=0.7, tau=1.2, k=0.9, gamma=1.4))
        droop = droop_part(dapi)
        for ss in (dapi, droop):
            for arr in (ss.a, ss.b):
                assert arr.flags.c_contiguous and arr.flags.owndata and not arr.flags.writeable
        # the droop system holds copies, not views that keep the DAPI arrays alive
        assert not np.shares_memory(droop.a, dapi.a) and not np.shares_memory(droop.b, dapi.b)
        assert droop.a.tobytes() == dapi.a[:18, :18].tobytes() and droop.b.tobytes() == dapi.b[:18].tobytes()

    @pytest.mark.parametrize("assemble", [assemble_dapi, assemble_droop])
    def test_assembly_peak_memory(self, assemble):
        # np.block builds each block row and then the matrix, so the peak is
        # about twice the 3N x 3N DAPI matrix; StateSpace adds no copy of it
        g = build_line_graph(300, np.ones(299), alpha=1.0)
        tracemalloc.start()
        try:
            ss = assemble(g, ControllerParams(m=1.0, tau=1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ss.n_nodes == 300
        assert peak < 2.3 * (3 * 300) ** 2 * 8

    def test_shape_validation(self):
        with pytest.raises(ValidationError, match="shapes"):
            StateSpace(a=np.eye(4), b=np.zeros((4, 2)), l_g=_zero_laplacian(3), controller_kind="droop")
        with pytest.raises(ValidationError):
            StateSpace(a=np.eye(4), b=np.zeros((4, 2)), l_g=_zero_laplacian(2), controller_kind="dapi")

    def test_bad_kind(self):
        with pytest.raises(ValidationError):
            StateSpace(a=np.eye(2), b=np.zeros((2, 1)), l_g=_zero_laplacian(1), controller_kind="pid")

    def test_modal_shape_validation(self):
        for eigenvalues, a, b, c in [
            (np.ones(1), np.eye(4)[None], np.zeros((1, 4, 1)), np.zeros((1, 1, 4))),  # order 4
            (np.ones(2), np.zeros((1, 2, 2)), np.zeros((1, 2, 1)), np.zeros((1, 1, 2))),  # mode count
            (np.ones(1), np.zeros((1, 3, 3)), np.zeros((1, 2, 1)), np.zeros((1, 1, 3))),  # B's order
            (np.ones(1), np.zeros((1, 3, 3)), np.zeros((1, 3, 1)), np.zeros((1, 3))),  # C unstacked
            (np.float64(1.0), np.zeros((3, 3)), np.zeros((3, 1)), np.zeros((1, 3))),  # one mode, unstacked
        ]:
            with pytest.raises(ValidationError, match="inconsistent modal shapes"):
                ModalBlocks(eigenvalues=eigenvalues, a=a, b=b, c=c)


class TestDerivedOutput:
    """``StateSpace`` carries the loss weight L_G; its output matrix C is
    derived from it on first access."""

    @pytest.mark.parametrize("assemble", [assemble_droop, assemble_dapi])
    def test_built_once_read_only_and_a_square_root_of_the_weight(self, assemble, monkeypatch):
        g = build_random_connected_graph(9, 0.5, (0.5, 1.5), alpha=1.7, seed=3)
        ss = assemble(g, ControllerParams(m=0.8, tau=1.3, k=0.9, gamma=1.1))
        calls = []
        real = gridloss.dynamics.spectral_decomposition
        monkeypatch.setattr(gridloss.dynamics, "spectral_decomposition",
                            lambda lap: calls.append(lap) or real(lap))
        c = ss.c
        assert ss.c is c and len(calls) == 1 and calls[0] is ss.l_g
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[0, 0] = 1.0
        with pytest.raises(AttributeError):
            ss.c = np.zeros_like(c)
        n = g.n_nodes
        assert c.shape == (n, ss.n_states) and not c[:, n:].any()
        assert np.allclose(c.T @ c, np.pad(ss.l_g.matrix, (0, ss.n_states - n)), rtol=0, atol=1e-13)
        uniform = np.concatenate([np.ones(n), np.zeros(ss.n_states - n)])
        assert np.linalg.norm(c @ uniform) <= 1e-12

    def test_zero_without_conductance(self, monkeypatch):
        monkeypatch.setattr(gridloss.dynamics, "spectral_decomposition", _refuse)
        g = build_line_graph(4, [1.0, 2.0, 0.5], alpha=0.0)
        ss = assemble_dapi(g, ControllerParams(m=1.0, tau=1.0))
        assert ss.c.shape == (4, 12) and not ss.c.any()

    @pytest.mark.parametrize("assemble", [assemble_droop, assemble_dapi])
    def test_zero_on_a_single_bus(self, assemble, monkeypatch):
        monkeypatch.setattr(gridloss.dynamics, "spectral_decomposition", _refuse)
        ss = assemble(NetworkGraph(n_nodes=1, edges=(), alpha=2.0), ControllerParams(m=1.0, tau=1.0))
        assert ss.c.shape == (1, ss.n_states) and not ss.c.any()

    def test_carries_the_conductance_laplacian(self):
        g = build_random_connected_graph(12, 0.4, (0.5, 1.5), alpha=1.3, seed=4)
        p = ControllerParams(m=1.0, tau=1.0, k=2.0, gamma=0.5)
        for ss in (assemble_droop(g, p), assemble_dapi(g, p)):
            assert ss.l_g.kind == "conductance"
            assert ss.l_g.matrix.tobytes() == (g.alpha * susceptance_laplacian(g).matrix).tobytes()


def _refuse(*args, **kwargs):
    raise AssertionError("a spectrum was computed")
