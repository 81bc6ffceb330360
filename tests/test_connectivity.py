"""The paper's connectivity finding as properties of the DAPI norm.

The DAPI loss of a connected network is (alpha / 2m) sum_i f(lam_i) over
the nonzero eigenvalues lam_2 <= ... <= lam_N of the susceptance
Laplacian L_B, where f = P / (P + s) is each mode's loss factor, with s =
gamma tau lam + k and P = gamma lam s + k^2 m lam.

Claim: for m, k, tau > 0 and gamma >= 0, f is increasing and concave in
lam > 0.  Proof: f = h / (1 + h) with h = P / s = gamma lam + k^2 m lam /
(gamma tau lam + k).  Then h' = gamma + k^3 m / (gamma tau lam + k)^2 > 0
and h'' = -2 gamma tau k^3 m / (gamma tau lam + k)^3 <= 0, so h is
increasing and concave; h / (1 + h) is increasing and concave in h >= 0;
an increasing concave function of an increasing concave function is both.

Consequences, each a property below (droop = (N - 1) alpha / 2m):

* Bracket.  The mean nonzero eigenvalue is exactly lam_bar = tr(L_B) /
  (N - 1) = 2 sum b / (N - 1).  Jensen's inequality for concave f gives
  the upper bound droop f(lam_bar).  On [lam_2, lam_N] the concave f lies
  above its chord c through (lam_2, f(lam_2)) and (lam_N, f(lam_N)), and
  c is linear, so the mean of f(lam_i) is at least c(lam_bar): the lower
  bound droop c(lam_bar).
* Monotonicity.  Adding an edge, or raising a weight, adds b e e' (e =
  e_i - e_j) to L_B, a positive semidefinite update.  By Weyl's inequality
  no sorted eigenvalue falls, and f is increasing, so the norm does not
  fall, at any fixed gamma.
* Uniform K_N.  Its N - 1 nonzero eigenvalues all equal N b = lam_bar when
  b = 2 W / (N (N - 1)) spreads the total weight W over its pairs, so it
  meets the upper bound: no graph with the same N and total weight has a
  larger norm.

The closed form and the modal route are checked.  The modal route may
refuse a loop by its Hurwitz margin (and every gamma = 0 loop, by the
Routh test), naming the cause, but a norm it returns must lie in the
bracket.  The full-Gramian route is left out: on lightly damped loops
(the 3-bus complete graph at m = 0.01, k = 100, tau = gamma = 1e-3 is one)
its Bartels-Stewart solve misses the 1e-7 agreement with the closed form
that it is held to, so the bracket would test that defect, not the bound.
The tuned optimum is left out too: the gain search can return a local
minimum that is not the global one, so two optima need not compare as
the norms at one gamma do.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from gridloss import (
    ControllerParams,
    NetworkGraph,
    StabilityError,
    build_complete_graph,
    build_line_graph,
    build_random_connected_graph,
    h2_dapi_closed_form,
    h2_modal,
    laplacian_eigenvalues,
)

# relative slack of each route against a bound: the bounds are exact up to
# the rounding of the spectrum and of f
_SLACK = {"closed_form": 1e-13, "modal_lyapunov": 1e-12}

_FAMILIES = ("line", "star", "complete", "random", "two-clique")


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@st.composite
def _graphs(draw):
    """A connected graph of one family, 2 to 12 buses, weights 1e-2 to 1e2."""
    family = draw(st.sampled_from(_FAMILIES))
    alpha = draw(_log_uniform(0.1, 10.0))
    n = 2 * draw(st.integers(2, 6)) if family == "two-clique" else draw(st.integers(2, 12))

    def weights(count):
        return draw(st.lists(_log_uniform(1e-2, 1e2), min_size=count, max_size=count))

    if family == "line":
        return build_line_graph(n, weights(n - 1), alpha=alpha)
    if family == "star":
        return NetworkGraph(n_nodes=n, edges=[(0, j, b) for j, b in zip(range(1, n), weights(n - 1))], alpha=alpha)
    if family == "complete":
        return build_complete_graph(n, weights(n * (n - 1) // 2), alpha=alpha)
    if family == "random":
        lo, hi = sorted(weights(2))
        return build_random_connected_graph(n, draw(st.floats(0.2, 1.0)), (lo, hi), alpha=alpha,
                                            seed=draw(st.integers(0, 2**32 - 1)))
    half = n // 2
    pairs = [(i, j) for side in (0, half) for i in range(side, side + half) for j in range(i + 1, side + half)]
    tie = (half - 1, half, *weights(1))
    return NetworkGraph(n_nodes=n, edges=[(i, j, b) for (i, j), b in zip(pairs, weights(len(pairs)))] + [tie],
                        alpha=alpha)


_params = st.builds(
    ControllerParams,
    m=_log_uniform(1e-2, 1e2),
    k=_log_uniform(1e-2, 1e2),
    tau=_log_uniform(1e-2, 1e2),
    gamma=st.one_of(_log_uniform(1e-3, 1e3), st.just(0.0)),
)


def _factor(lam, p: ControllerParams):
    """f = h / (1 + h), h = gamma lam + k^2 m lam / (gamma tau lam + k):
    the loss factor, written apart from the package's own formula."""
    h = p.gamma * lam + p.k * p.k * p.m * lam / (p.gamma * p.tau * lam + p.k)
    return h / (1.0 + h)


def _norms(graph: NetworkGraph, p: ControllerParams) -> dict:
    """The DAPI norm by the closed form and, where it accepts the loop, the
    modal route."""
    spectrum = laplacian_eigenvalues(graph)
    norms = {"closed_form": h2_dapi_closed_form(graph.alpha, p, spectrum).squared_norm}
    try:
        norms["modal_lyapunov"] = h2_modal(spectrum, p, graph.alpha, "dapi").squared_norm
    except StabilityError as err:
        assert ("not asymptotically stable" if p.gamma == 0.0 else "not safely Hurwitz") in str(err)
    return norms


def _bracket(graph: NetworkGraph, p: ControllerParams) -> tuple[float, float]:
    """droop c(lam_bar) and droop f(lam_bar), lam_bar = 2 sum b / (N - 1)."""
    n = graph.n_nodes
    lam = laplacian_eigenvalues(graph).nonzero
    lam_bar = 2.0 * math.fsum(graph.weights) / (n - 1)
    f_lo, f_hi = _factor(lam[0], p), _factor(lam[-1], p)
    chord = f_lo if lam[-1] == lam[0] else f_lo + (f_hi - f_lo) * (lam_bar - lam[0]) / (lam[-1] - lam[0])
    droop = (n - 1) * graph.alpha / (2.0 * p.m)
    return droop * chord, droop * _factor(lam_bar, p)


class TestConnectivity:
    @settings(max_examples=150)
    @given(graph=_graphs(), p=_params)
    def test_norm_lies_between_the_chord_and_jensen_bounds(self, graph, p):
        lower, upper = _bracket(graph, p)
        for route, norm in _norms(graph, p).items():
            slack = _SLACK[route]
            assert lower * (1.0 - slack) <= norm <= upper * (1.0 + slack), (route, lower, norm, upper)

    @settings(max_examples=100)
    @given(graph=_graphs(), p=_params, data=st.data())
    def test_an_added_edge_or_a_raised_weight_never_lowers_the_norm(self, graph, p, data):
        edges = [list(edge) for edge in graph.edges]
        present = {(i, j) for i, j, _ in edges}
        absent = [(i, j) for i in range(graph.n_nodes) for j in range(i + 1, graph.n_nodes) if (i, j) not in present]
        if absent and data.draw(st.booleans()):
            edges.append([*data.draw(st.sampled_from(absent)), data.draw(_log_uniform(1e-3, 1e2))])
        else:
            edge = data.draw(st.sampled_from(edges))
            edge[2] *= 1.0 + data.draw(_log_uniform(1e-3, 1e2))
        stronger = NetworkGraph(n_nodes=graph.n_nodes, edges=edges, alpha=graph.alpha)
        before, after = _norms(graph, p), _norms(stronger, p)
        for route in before.keys() & after.keys():
            assert after[route] >= before[route] * (1.0 - _SLACK[route]), route

    @settings(max_examples=100)
    @given(graph=_graphs(), p=_params)
    def test_uniform_complete_graph_has_the_largest_norm(self, graph, p):
        n = graph.n_nodes
        uniform = build_complete_graph(n, 2.0 * math.fsum(graph.weights) / (n * (n - 1)), alpha=graph.alpha)
        graph_norms, uniform_norms = _norms(graph, p), _norms(uniform, p)
        for route in graph_norms.keys() & uniform_norms.keys():
            assert uniform_norms[route] >= graph_norms[route] * (1.0 - _SLACK[route]), route
