"""Closed-loop assembly, modal decomposition, and stability tests."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gridloss.dynamics
from gridloss.dynamics import (
    ControllerParams,
    StateSpace,
    assemble_dapi,
    assemble_droop,
    check_stability,
    droop_part,
    modal_subsystems,
)
from gridloss.errors import AssemblyError, GridlossError, ValidationError
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
from reference import verify_modal_equivalence


def _spectrum_of(graph):
    return spectral_decomposition(susceptance_laplacian(graph))[0]


# log-uniform over [1e-300, 1e300]
_ANY_SCALE = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


def _zero_laplacian(n):
    return Laplacian(np.zeros((n, n)))


class TestControllerParams:
    def test_valid(self):
        p = ControllerParams(m=0.5, tau=2.0, k=3.0, gamma=0.0)
        assert (p.m, p.tau, p.k, p.gamma) == (0.5, 2.0, 3.0, 0.0)

    def test_invalid_values(self):
        # each refusal by its exact text; norm_gamma_derivative reads m, k
        # and tau from here and checks none of them itself
        for values, message in [
            (dict(m=0.0), "droop gain m must be > 0, got 0.0"),
            (dict(m=-1.0), "droop gain m must be > 0, got -1.0"),
            (dict(m=float("inf")), "m must be finite, got inf"),
            (dict(m=float("nan")), "m must be finite, got nan"),
            (dict(tau=-1.0), "filter time constant tau must be >= 0, got -1.0"),
            (dict(tau=float("inf")), "tau must be finite, got inf"),
            (dict(k=0.0), "integral constant k must be > 0, got 0.0"),
            (dict(gamma=-0.1), "communication gain gamma must be >= 0, got -0.1"),
        ]:
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                ControllerParams(**(dict(m=1.0, tau=1.0) | values))


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

    def test_gamma_zero_assembles_without_warning(self):
        # the norm routes and the simulator refuse this loop; assembly does
        # not report it a second time (filterwarnings = error fails a warning)
        g = build_line_graph(3, [1.0, 1.0], alpha=1.0)
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
        a, b, c = modal_subsystems(_spectrum_of(g), ControllerParams(m=1.0, tau=1.0), alpha=1.0, kind="droop")
        assert (a.shape, b.shape, c.shape) == ((2, 2, 2), (2, 2, 1), (2, 1, 2))
        assert np.allclose(a[0], np.array([[0.0, 1.0], [-3.0, -1.0]]), atol=0)
        assert np.allclose(b[0], np.array([[0.0], [1.0]]), atol=0)
        assert np.allclose(c[0], np.array([[math.sqrt(3.0), 0.0]]), atol=1e-15)

    def test_dapi_mode_matrix_coupling_signs(self):
        # omega'_n couples +1/tau into the averaging state; the averaging row
        # couples -1/k and -gamma lam / k.  A sign slip in the (2,3) entry
        # breaks the match with the assembled loop (see equivalence tests).
        g = build_complete_graph(3, b=1.0, alpha=1.0)
        a, b, c = modal_subsystems(
            _spectrum_of(g), ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=1.0), alpha=1.0, kind="dapi"
        )
        expected = np.array([[0.0, 1.0, 0.0], [-3.0, -1.0, 1.0], [0.0, -1.0, -3.0]])
        assert np.allclose(a[1], expected, atol=0)
        assert np.allclose(b[1], np.array([[0.0], [1.0], [0.0]]), atol=0)
        assert np.allclose(c[1], np.array([[math.sqrt(3.0), 0.0, 0.0]]), atol=1e-15)

    def test_one_block_per_nonzero_mode(self):
        # the zero mode, whose output row is zero, has no block
        g = build_line_graph(5, [1.0] * 4, alpha=3.0)
        spec = _spectrum_of(g)
        for kind in ("droop", "dapi"):
            a, _, c = modal_subsystems(spec, ControllerParams(m=1.0, tau=1.0), alpha=3.0, kind=kind)
            assert len(a) == len(c) == spec.nonzero.size == 4
            assert np.all(np.any(c != 0.0, axis=(1, 2)))

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
            stacks = modal_subsystems(spec, p, alpha, kind)
            s = 2 if kind == "droop" else 3
            assert [x.shape for x in stacks] == [(n - 1, s, s), (n - 1, s, 1), (n - 1, 1, s)]
            for i, lam in enumerate(spec.nonzero):
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
                for got, want in zip((stack[i] for stack in stacks), (a, b, c)):
                    assert got.tobytes() == want.tobytes()
                    assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_stack_is_read_only(self):
        g = build_line_graph(4, [1.0] * 3, alpha=1.0)
        for arr in modal_subsystems(_spectrum_of(g), ControllerParams(m=1.0, tau=1.0), alpha=1.0, kind="dapi"):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_tau_zero_rejected(self):
        g = build_line_graph(2, [1.0], alpha=1.0)
        with pytest.raises(AssemblyError):
            modal_subsystems(_spectrum_of(g), ControllerParams(m=1.0, tau=0.0), alpha=1.0, kind="droop")

    @pytest.mark.parametrize(("params", "alpha", "names"), [
        (dict(m=1e308), 1.0, "m/tau"),
        (dict(tau=1e-320), 1.0, "m/tau, 1/tau"),
        (dict(k=1e-320), 1.0, "1/k, gamma/k"),
        (dict(k=1e-10, gamma=1e308), 1.0, "gamma/k"),
        ({}, 1e308, "alpha"),
    ])
    def test_overflow_refused_by_modal_and_full_assembly(self, params, alpha, names):
        # both name the scales whose entries left the float range, and
        # neither lets numpy warn on the way
        g = build_line_graph(3, [1.0, 1.0], alpha=alpha)
        p = ControllerParams(**{"m": 1.0, "tau": 1.0, **params})
        message = f"^closed loop leaves the float range: its {names} entries overflow$"
        with pytest.raises(AssemblyError, match=message):
            modal_subsystems(_spectrum_of(g), p, alpha, "dapi")
        with pytest.raises(AssemblyError, match=message):
            assemble_dapi(g, p)

    def test_negative_alpha_rejected(self):
        g = build_line_graph(2, [1.0], alpha=1.0)
        with pytest.raises(ValidationError, match="^alpha must be finite and >= 0, got -1.0$"):
            modal_subsystems(_spectrum_of(g), ControllerParams(m=1.0, tau=1.0), -1.0, "dapi")

    def test_bad_kind_rejected(self):
        g = build_line_graph(2, [1.0], alpha=1.0)
        with pytest.raises(ValidationError):
            modal_subsystems(_spectrum_of(g), ControllerParams(m=1.0, tau=1.0), alpha=1.0, kind="pi")

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
            want = h2_modal(spectral_decomposition(lb)[0], p, alpha, kind).squared_norm
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

    @settings(max_examples=300)
    @given(m=_ANY_SCALE, k=_ANY_SCALE, tau=_ANY_SCALE, lam=_ANY_SCALE,
           gamma=st.one_of(st.just(0.0), _ANY_SCALE))
    @example(m=1e-200, k=1.0, tau=1e200, lam=1.0, gamma=1.0)  # m lam / tau underflows
    def test_exact_across_the_float_range(self, m, k, tau, lam, gamma):
        # with positive gains every droop mode is stable, and every DAPI mode
        # exactly when gamma > 0, however far the coefficients under- or
        # overflow
        p = ControllerParams(m=m, tau=tau, k=k, gamma=gamma)
        assert check_stability(p, lam, "droop") is True
        assert check_stability(p, lam, "dapi") is (gamma > 0)

    def test_underflowing_k_tau_is_no_division_by_zero(self):
        # k tau underflows to 0 while 1/k and 1/tau stay finite
        p = ControllerParams(m=1.0, tau=1e-200, k=1e-200, gamma=1.0)
        spectrum = laplacian_eigenvalues(susceptance_laplacian(build_line_graph(3, [1.0, 1.0], alpha=1.0)))
        assert all(check_stability(p, lam, "dapi") for lam in spectrum.nonzero)
        try:
            norm = h2_modal(spectrum, p, 1.0, "dapi").squared_norm
        except GridlossError:
            pass
        else:
            assert math.isfinite(norm)

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


def _np_block_loop(lb, params, alpha, kind):
    """(A, B, L_G) stacked by np.block from scalar-times-matrix blocks, as
    the closed loop was first assembled."""
    n = lb.shape[0]
    eye, zero = np.eye(n), np.zeros((n, n))
    m, tau, k, gamma = params.m, params.tau, params.k, params.gamma
    a = np.block([
        [zero, eye, zero],
        [-(m / tau) * lb, -(1.0 / tau) * eye, (1.0 / tau) * eye],
        [zero, -(1.0 / k) * eye, -(1.0 / k) * (gamma * lb)],
    ])
    b = np.vstack([zero, eye / tau, zero])
    s = 2 * n if kind == "droop" else 3 * n
    return a[:s, :s], b[:s], alpha * lb


class TestFilledAssembly:
    @settings(max_examples=60)
    @given(
        n=st.integers(1, 14),
        seed=st.integers(0, 10_000),
        alpha=st.floats(0.0, 5.0),
        m=st.floats(1e-3, 1e3),
        tau=st.floats(1e-3, 1e3),
        k=st.floats(1e-3, 1e3),
        gamma=st.floats(0.0, 1e3),
    )
    def test_filled_matrix_equals_np_block_bit_for_bit(self, n, seed, alpha, m, tau, k, gamma):
        # the scaled identities and L_B blocks carry -0.0 where a negative
        # scalar meets a zero; the fill must keep those signs
        g = (NetworkGraph(n_nodes=1, edges=(), alpha=alpha) if n == 1
             else build_random_connected_graph(n, 0.4, (0.5, 1.5), alpha=alpha, seed=seed))
        params = ControllerParams(m=m, tau=tau, k=k, gamma=gamma)
        lb = susceptance_laplacian(g).matrix
        systems = {"dapi": assemble_dapi(g, params), "droop": assemble_droop(g, params)}
        for kind, ss in systems.items():
            for got, expected in zip((ss.a, ss.b, ss.l_g.matrix), _np_block_loop(lb, params, alpha, kind)):
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()
                assert np.array_equal(np.signbit(got), np.signbit(expected))
        assert np.signbit(systems["dapi"].a).any()


class TestModalEquivalence:
    def test_two_node_droop_exact(self):
        g = build_line_graph(2, [1.0], alpha=1.0)
        p = ControllerParams(m=1.0, tau=1.0)
        ss = assemble_droop(g, p)
        spec, u = spectral_decomposition(susceptance_laplacian(g))
        a, _, _ = modal_subsystems(spec, p, alpha=1.0, kind="droop")
        assert verify_modal_equivalence(ss, a, u) <= 1e-12

    def test_complete_graph_dapi(self):
        g = build_complete_graph(3, b=1.0, alpha=1.0)
        p = ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=1.0)
        ss = assemble_dapi(g, p)
        spec, u = spectral_decomposition(susceptance_laplacian(g))
        a, _, _ = modal_subsystems(spec, p, alpha=1.0, kind="dapi")
        assert verify_modal_equivalence(ss, a, u) <= 1e-12

    def test_random_graphs_within_tolerance(self):
        rng = np.random.default_rng(3)
        for seed in range(8):
            n = int(rng.integers(3, 20))
            g = build_random_connected_graph(n, 0.4, (0.5, 1.5), alpha=1.0, seed=seed)
            m, k, tau, gamma = rng.uniform(0.1, 5, 4)
            p = ControllerParams(m=m, tau=tau, k=k, gamma=gamma)
            spec, u = spectral_decomposition(susceptance_laplacian(g))
            for kind, assemble in (("droop", assemble_droop), ("dapi", assemble_dapi)):
                ss = assemble(g, p)
                a, _, _ = modal_subsystems(spec, p, alpha=1.0, kind=kind)
                dev = verify_modal_equivalence(ss, a, u)
                assert dev <= 1e-8 * np.max(np.abs(ss.a))

    def test_dimension_mismatch_rejected(self):
        g2 = build_line_graph(2, [1.0], alpha=1.0)
        g3 = build_line_graph(3, [1.0, 1.0], alpha=1.0)
        p = ControllerParams(m=1.0, tau=1.0)
        ss = assemble_droop(g2, p)
        spec3, u3 = spectral_decomposition(susceptance_laplacian(g3))
        a3, _, _ = modal_subsystems(spec3, p, alpha=1.0, kind="droop")
        with pytest.raises(ValidationError, match="mismatch"):
            verify_modal_equivalence(ss, a3, u3)


class TestStateSpaceType:
    def test_arrays_read_only(self):
        g = build_line_graph(2, [1.0], alpha=1.0)
        ss = assemble_droop(g, ControllerParams(m=1.0, tau=1.0))
        with pytest.raises(ValueError):
            ss.a[0, 0] = 1.0

    def test_read_only_float_arrays_are_kept_as_handed_in(self):
        a, b = -np.eye(4), np.vstack([np.zeros((2, 2)), np.eye(2)])
        writeable = StateSpace(a=a, b=b, l_g=_zero_laplacian(2))
        assert writeable.a is not a and writeable.b is not b and a.flags.writeable
        for arr in (a, b):
            arr.setflags(write=False)
        kept = StateSpace(a=a, b=b, l_g=_zero_laplacian(2))
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
    def test_assembly_peak_memory(self, assemble, peak_bytes):
        # A is filled in place, L_B is dropped before B is allocated, and
        # StateSpace adds no copy: the DAPI peak is A, B and L_G, 13 N^2
        # floats or 1.44 of the 3N x 3N A; droop assembles 2N states only
        g = build_line_graph(300, np.ones(299), alpha=1.0)
        with peak_bytes() as peak:
            ss = assemble(g, ControllerParams(m=1.0, tau=1.0))
        assert ss.n_nodes == 300
        assert peak.bytes < 1.5 * (3 * 300) ** 2 * 8

    def test_shape_validation(self):
        with pytest.raises(ValidationError, match="shapes"):
            StateSpace(a=np.eye(4), b=np.zeros((4, 2)), l_g=_zero_laplacian(3))
        with pytest.raises(ValidationError, match="shapes"):
            StateSpace(a=np.eye(6), b=np.zeros((4, 2)), l_g=_zero_laplacian(2))

    def test_bad_kind(self):
        # neither 2N (droop) nor 3N (DAPI) states for N = B's columns
        for states, n in ((8, 2), (1, 1), (5, 2), (0, 0)):
            with pytest.raises(ValidationError, match="inconsistent system shapes"):
                StateSpace(a=np.eye(states), b=np.zeros((states, n)), l_g=_zero_laplacian(n))
        with pytest.raises(ValidationError, match="inconsistent system shapes"):
            StateSpace(a=np.eye(2), b=np.zeros(2), l_g=_zero_laplacian(1))

    def test_kind_is_read_off_the_shapes(self):
        g = build_random_connected_graph(7, 0.5, (0.5, 1.5), alpha=1.1, seed=5)
        p = ControllerParams(m=0.9, tau=1.1, k=0.8, gamma=1.2)
        dapi = assemble_dapi(g, p)
        for ss, kind, states in ((assemble_droop(g, p), "droop", 14), (dapi, "dapi", 21),
                                 (droop_part(dapi), "droop", 14)):
            assert (ss.controller_kind, ss.n_states, ss.n_nodes) == (kind, states, 7)
        by_hand = StateSpace(a=dapi.a, b=dapi.b, l_g=dapi.l_g)
        assert by_hand.controller_kind == "dapi" and by_hand.a is dapi.a


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
            assert ss.l_g.matrix.tobytes() == (g.alpha * susceptance_laplacian(g).matrix).tobytes()


def _refuse(*args, **kwargs):
    raise AssertionError("a spectrum was computed")
