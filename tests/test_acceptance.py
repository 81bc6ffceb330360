"""Acceptance gate: ten numbered criteria, one PASS/FAIL line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines
as they print.  Each test computes its verdict first, prints the line,
then asserts, so the line appears even for a failing criterion.
"""

import itertools
import time
from dataclasses import replace
from importlib import resources

import numpy as np

from gridloss import (
    ControllerParams,
    NetworkGraph,
    SimConfig,
    assemble_dapi,
    assemble_droop,
    build_complete_graph,
    build_line_graph,
    build_random_connected_graph,
    check_stability,
    empirical_h2,
    gamma_star_vs_k,
    h2_dapi_closed_form,
    h2_droop_closed_form,
    h2_full_gramian,
    h2_modal,
    ingest_edge_list,
    integrated_loss,
    loss_reduction_vs_k,
    optimal_gamma,
    optimal_gamma_complete,
    phase_perturbation,
    simulate,
    spectral_decomposition,
    sweep,
)

_THREE_WAY_RTOL = 1e-7
_PER_MODE_ATOL = 1e-9
_GAMMA_STAR_ATOL = 1e-6
_EMPIRICAL_SIGMA = 3.0
_EMPIRICAL_RTOL = 0.10
_RUN_BUDGET_SECONDS = 30.0


def _report(criterion, passed, label):
    line = f"[criterion {criterion:02d}] {'PASS' if passed else 'FAIL'}: {label}"
    print(line, flush=True)
    return line


def _random_network_draws(count=200, seed=20260816):
    """Deterministic stream of (graph, params) shared by criteria 1 and 3."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 31))
        p = float(rng.uniform(0.2, 0.9))
        alpha = float(rng.uniform(0.5, 2.0))
        graph = build_random_connected_graph(
            n, p, (0.5, 1.5), alpha, seed=int(rng.integers(0, 2**31)))
        params = ControllerParams(
            m=float(rng.uniform(0.1, 10.0)),
            tau=float(rng.uniform(0.1, 10.0)),
            k=float(rng.uniform(0.1, 10.0)),
            gamma=float(rng.uniform(0.1, 10.0)))
        yield graph, params


def test_random_complete_graphs_keep_their_edges():
    # criterion 06's complete graphs equal, bit for bit, the graphs built
    # from one (i, j, w) tuple per pair in itertools.combinations order
    same = []
    for n in (10, 30, 50, 100):
        rng = np.random.default_rng((2026, 0, n))
        rng.uniform(0.5, 1.5, n - 1)  # the line graph's weights come first
        weights = rng.uniform(0.5, 1.5, n * (n - 1) // 2)
        graph = build_complete_graph(n, weights, 1.0)
        pairs = itertools.combinations(range(n), 2)
        by_pairs = NetworkGraph(n, tuple((i, j, float(w)) for (i, j), w in zip(pairs, weights)), 1.0)
        same.append(graph.edges == by_pairs.edges and all(
            getattr(graph, name).tobytes() == getattr(by_pairs, name).tobytes()
            for name in ("ends_i", "ends_j", "weights")))
    assert all(same)


def test_criterion_01_three_routes_agree():
    start = time.monotonic()
    worst = 0.0
    for graph, params in _random_network_draws():
        spectrum = spectral_decomposition(graph)[0]
        droop = (
            h2_droop_closed_form(graph.alpha, params, graph.n_nodes).squared_norm,
            h2_modal(spectrum, params, graph.alpha, "droop").squared_norm,
            h2_full_gramian(assemble_droop(graph, params)).squared_norm,
        )
        dapi = (
            h2_dapi_closed_form(graph.alpha, params, spectrum).squared_norm,
            h2_modal(spectrum, params, graph.alpha, "dapi").squared_norm,
            h2_full_gramian(assemble_dapi(graph, params)).squared_norm,
        )
        for trio in (droop, dapi):
            worst = max(worst, (max(trio) - min(trio)) / max(trio))
    elapsed = time.monotonic() - start
    passed = worst <= _THREE_WAY_RTOL and elapsed < 60.0
    line = _report(1, passed,
                   "closed-form, modal, and full-Gramian norms agree to "
                   f"{_THREE_WAY_RTOL:g} on 200 random networks "
                   f"(max deviation {worst:.2e}, {elapsed:.1f}s)")
    assert passed, line


def test_criterion_02_droop_per_mode_value():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 26))
        alpha = float(rng.uniform(0.5, 2.0))
        m = float(rng.uniform(0.1, 10.0))
        graph = build_random_connected_graph(
            n, float(rng.uniform(0.3, 0.9)), (0.5, 1.5), alpha,
            seed=int(rng.integers(0, 2**31)))
        spectrum = spectral_decomposition(graph)[0]
        # per-mode droop loss must be alpha/(2m) no matter the eigenvalue,
        # and must ignore k and gamma entirely
        for k, gamma in ((1.0, 1.0), (3.7, 0.2)):
            params = ControllerParams(m=m, tau=float(rng.uniform(0.1, 5.0)),
                                      k=k, gamma=gamma)
            per_mode = h2_modal(spectrum, params, alpha, "droop").per_mode
            worst = max(worst, float(np.max(np.abs(per_mode - alpha / (2.0 * m)))))
    passed = worst <= _PER_MODE_ATOL
    line = _report(2, passed,
                   "droop per-mode loss equals alpha/(2m) independent of "
                   f"topology, k, gamma on 50 graphs (max dev {worst:.2e})")
    assert passed, line


def test_criterion_03_dapi_strictly_below_droop():
    violations = 0
    min_ratio = np.inf
    for graph, params in _random_network_draws():
        spectrum = spectral_decomposition(graph)[0]
        droop = h2_droop_closed_form(graph.alpha, params, graph.n_nodes).squared_norm
        dapi = h2_dapi_closed_form(graph.alpha, params, spectrum).squared_norm
        if not dapi < droop:
            violations += 1
        min_ratio = min(min_ratio, dapi / droop)
    passed = violations == 0
    line = _report(3, passed,
                   "DAPI norm strictly below droop norm on every one of the "
                   f"200 draws (max ratio below 1: {min_ratio:.4f}, "
                   f"{violations} violations)")
    assert passed, line


def test_criterion_04_complete_graph_gain_formula():
    rng = np.random.default_rng(41)
    accepted = 0
    worst = 0.0
    while accepted < 100:
        n = int(rng.integers(2, 61))
        b = float(rng.uniform(0.5, 1.5))
        m = float(rng.uniform(0.1, 5.0))
        tau = float(rng.uniform(0.1, 5.0))
        product = n * b * m * tau
        if not 1.0 < product <= 100.0:
            continue
        accepted += 1
        k = float(rng.uniform(0.2, 5.0))
        params = ControllerParams(m=m, tau=tau, k=k)
        graph = build_complete_graph(n, b, 1.0)
        spectrum = spectral_decomposition(graph)[0]
        numeric = optimal_gamma(spectrum, params, 1.0).gamma_star
        closed = optimal_gamma_complete(n, b, params)
        worst = max(worst, abs(numeric - closed))
    boundary_ok = True
    for j in range(10):
        m = 0.3 + 0.02 * j  # keeps N*b*m*tau in (0.6, 0.98]
        params = ControllerParams(m=m, tau=1.0, k=1.0)
        spectrum = spectral_decomposition(build_complete_graph(2, 1.0, 1.0))[0]
        numeric = optimal_gamma(spectrum, params, 1.0).gamma_star
        closed = optimal_gamma_complete(2, 1.0, params)
        boundary_ok = boundary_ok and numeric == 0.0 and closed == 0.0
    passed = worst <= _GAMMA_STAR_ATOL and boundary_ok
    line = _report(4, passed,
                   "bisection matches the complete-graph optimal-gain formula on "
                   f"100 draws (max |diff| {worst:.2e}) and both give 0 in the "
                   f"no-communication regime ({'ok' if boundary_ok else 'broken'})")
    assert passed, line


def test_criterion_05_gamma_sweep_minimum_location():
    graph = build_complete_graph(50, 1.0, 1.0)
    spectrum = spectral_decomposition(graph)[0]
    grid = np.linspace(0.0, 4.0, 401)
    verdicts = []
    details = []
    for tau in (1.0, 4.0):
        params = ControllerParams(m=1.0, tau=tau, k=1.0)
        curve = sweep(spectrum, params, 1.0, "gamma", grid)
        at = int(np.argmin(curve))
        star = optimal_gamma(spectrum, params, 1.0).gamma_star
        interior = 0 < at < grid.size - 1
        near = abs(grid[at] - star) <= 0.01 + 1e-9
        verdicts.append(interior and near)
        details.append(f"tau={tau:g}: min at {grid[at]:.2f}, gamma*={star:.4f}")
    params = ControllerParams(m=1.0, tau=0.0, k=1.0)
    curve = sweep(spectrum, params, 1.0, "gamma", grid)
    at_boundary = int(np.argmin(curve)) == 0
    star_zero = optimal_gamma(spectrum, params, 1.0).gamma_star == 0.0
    verdicts.append(at_boundary and star_zero)
    details.append(f"tau=0: min at {grid[int(np.argmin(curve))]:.2f}")
    passed = all(verdicts)
    line = _report(5, passed,
                   "gamma sweep on the 50-bus complete graph has an interior "
                   "minimum for tau in {1, 4} at gamma* and a left-boundary "
                   "minimum for tau = 0 (" + "; ".join(details) + ")")
    assert passed, line


def test_criterion_06_topology_ordering_with_size():
    sizes = (10, 30, 50, 100)
    params = ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=1.0)
    ok = True
    details = []
    for n in sizes:
        line_norms = []
        complete_norms = []
        for draw in range(20):
            rng = np.random.default_rng((2026, draw, n))
            line_graph = build_line_graph(n, rng.uniform(0.5, 1.5, n - 1), 1.0)
            complete_graph = build_complete_graph(n, rng.uniform(0.5, 1.5, n * (n - 1) // 2), 1.0)
            for graph, bucket in ((line_graph, line_norms), (complete_graph, complete_norms)):
                spectrum = spectral_decomposition(graph)[0]
                bucket.append(h2_dapi_closed_form(1.0, params, spectrum).squared_norm)
        droop = h2_droop_closed_form(1.0, params, n).squared_norm
        mean_line = float(np.mean(line_norms))
        mean_complete = float(np.mean(complete_norms))
        ok = ok and mean_line < mean_complete < droop and droop == (n - 1) / 2.0
        details.append(f"N={n}: {mean_line:.2f} < {mean_complete:.2f} < {droop:g}")
    passed = ok
    line = _report(6, passed,
                   "mean line-DAPI < mean complete-DAPI < droop = (N-1)/2 at "
                   "N in {10, 30, 50, 100} over 20 weight draws ("
                   + "; ".join(details) + ")")
    assert passed, line


def test_criterion_07_empirical_norms_match_analytic():
    config = SimConfig(dt=0.005, horizon=5000.0, burn_in=500.0,
                       noise_intensity=1.0, seed=0)
    cases = []

    graph = build_complete_graph(3, 1.0, 1.0)
    params = ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=1.0)
    cases.append(("triangle dapi", assemble_dapi(graph, params), 15.0 / 19.0))

    graph = build_line_graph(20, np.ones(19), 1.0)
    cases.append(("line droop", assemble_droop(graph, params), 9.5))

    ok = True
    details = []
    for name, ss, target in cases:
        start = time.monotonic()
        trajectory = simulate(ss, config)
        elapsed = time.monotonic() - start
        estimate, stderr = empirical_h2(trajectory, config)
        within_sigma = abs(estimate - target) <= _EMPIRICAL_SIGMA * stderr
        within_rel = abs(estimate - target) <= _EMPIRICAL_RTOL * target
        in_budget = elapsed < _RUN_BUDGET_SECONDS
        ok = ok and within_sigma and within_rel and in_budget
        details.append(f"{name}: {estimate:.4f} vs {target:.4f} "
                       f"(+/- {stderr:.4f}, {elapsed:.0f}s)")
    passed = ok
    line = _report(7, passed,
                   "long stochastic runs reproduce the analytic norms within "
                   f"{_EMPIRICAL_SIGMA:g} standard errors and "
                   f"{100 * _EMPIRICAL_RTOL:g}% (" + "; ".join(details) + ")")
    assert passed, line


def test_criterion_08_integrated_loss_vs_gamma():
    graph = build_line_graph(20, np.ones(19), 1.0)
    initial = phase_perturbation(20, 60, 0.1, seed=42)
    config = SimConfig(dt=0.005, horizon=500.0, noise_intensity=1.0,
                       seed=0, initial_state=initial)
    losses = {}
    for gamma in (0.1, 10.0):
        params = ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=gamma)
        trajectory = simulate(assemble_dapi(graph, params), config)
        losses[gamma] = integrated_loss(trajectory)
    passed = losses[10.0] > losses[0.1]
    line = _report(8, passed,
                   "aggressive communication accumulates more resistive loss "
                   "on the 20-bus line under matched disturbances "
                   f"(gamma=10: {losses[10.0]:.0f} > gamma=0.1: {losses[0.1]:.0f})")
    assert passed, line


def test_criterion_09_stability_everywhere():
    rng = np.random.default_rng(90)
    routh_ok = True
    for _ in range(1000):
        params = ControllerParams(
            m=float(rng.uniform(1e-6, 10.0)),
            tau=float(rng.uniform(1e-6, 10.0)),
            k=float(rng.uniform(1e-6, 10.0)),
            gamma=float(rng.uniform(1e-6, 10.0)))
        rng.uniform(1e-6, 100.0)  # a mode eigenvalue, which the verdict does not read
        routh_ok = routh_ok and check_stability(params, "droop")
        routh_ok = routh_ok and check_stability(params, "dapi")
    spectral_ok = True
    for _ in range(50):
        n = int(rng.integers(3, 21))
        graph = build_random_connected_graph(
            n, float(rng.uniform(0.3, 0.9)), (0.5, 1.5), 1.0,
            seed=int(rng.integers(0, 2**31)))
        params = ControllerParams(
            m=float(rng.uniform(0.1, 5.0)), tau=float(rng.uniform(0.1, 5.0)),
            k=float(rng.uniform(0.1, 5.0)), gamma=float(rng.uniform(0.1, 5.0)))
        for ss in (assemble_droop(graph, params), assemble_dapi(graph, params)):
            eigs = np.linalg.eigvals(ss.a)
            scale = max(np.max(np.abs(eigs)), 1.0)
            near_zero = np.abs(eigs) <= 1e-8 * scale
            spectral_ok = spectral_ok and int(np.sum(near_zero)) == 1
            spectral_ok = spectral_ok and bool(np.all(eigs.real[~near_zero] < -1e-8))
    passed = routh_ok and spectral_ok
    line = _report(9, passed,
                   "both controllers stable for 1000 positive parameter draws "
                   "(Routh) and all 50 assembled systems have exactly one zero "
                   "mode with the rest strictly damped "
                   f"(routh={'ok' if routh_ok else 'broken'}, "
                   f"spectra={'ok' if spectral_ok else 'broken'})")
    assert passed, line


def test_criterion_10_benchmark_network_trends():
    path = resources.files("gridloss.data") / "ieee57.edges"
    graph = ingest_edge_list(str(path))
    spectrum = spectral_decomposition(graph)[0]
    k_grid = np.linspace(0.1, 10.0, 12)
    params = ControllerParams(m=1.0, tau=1.0)
    reduction = loss_reduction_vs_k(spectrum, params, 1.0, k_grid)
    gains = gamma_star_vs_k(spectrum, params, 1.0, k_grid)
    decreasing = bool(np.all(np.diff(reduction) < 0.0))
    nondecreasing = bool(np.all(np.diff(gains) >= -1e-8))
    positive = bool(np.all(reduction > 0.0))
    passed = decreasing and nondecreasing and positive
    line = _report(10, passed,
                   "on the 57-bus benchmark the achievable loss reduction falls "
                   "monotonically with k while the optimal gain never falls "
                   f"(reduction {reduction[0]:.2f} -> "
                   f"{reduction[-1]:.2f}, gain {gains[0]:.3f} -> "
                   f"{gains[-1]:.3f})")
    assert passed, line
