"""Graph construction, Laplacian, and spectral decomposition tests."""

import hashlib
import importlib.resources
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridloss.network
from gridloss.dynamics import ControllerParams, assemble_dapi, assemble_droop
from gridloss.errors import (
    DisconnectedGraphError,
    EdgeListParseError,
    GraphGenerationError,
    ValidationError,
)
from gridloss.h2 import h2_dapi_closed_form
from gridloss.network import (
    Laplacian,
    NetworkGraph,
    Spectrum,
    _symmetric_within,
    build_complete_graph,
    build_line_graph,
    build_random_connected_graph,
    ingest_edge_list,
    laplacian_eigenvalues,
    spectral_decomposition,
    susceptance_laplacian,
)


def _edge_loop_laplacian(graph):
    # reference build: one edge at a time, then the diagonal from the row sums
    lb = np.zeros((graph.n_nodes, graph.n_nodes))
    for i, j, b in graph.edges:
        lb[i, j] -= b
        lb[j, i] -= b
    np.fill_diagonal(lb, -lb.sum(axis=1))
    return lb


def _assert_matches_edge_loop(graph, gamma):
    # L_B, and L_G = alpha L_B and L_C = gamma L_B as the DAPI loop carries
    # them: its loss weight and, with k = 1, its -L_C integrator block
    reference = _edge_loop_laplacian(graph)
    ss = _dapi_loop(graph, gamma)
    n = graph.n_nodes
    for got, want in ((susceptance_laplacian(graph).matrix, reference),
                      (ss.l_g.matrix, graph.alpha * reference),
                      (ss.a[2 * n:, 2 * n:], -(gamma * reference))):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _dapi_loop(graph, gamma, k=1.0):
    return assemble_dapi(graph, ControllerParams(m=1.0, tau=1.0, k=k, gamma=gamma))


def _loss_weight(graph):
    return assemble_droop(graph, ControllerParams(m=1.0, tau=1.0)).l_g


def _reference_graph_edges(n_nodes, edges):
    """The normalised edge tuple of a graph, or the error, from the per-edge
    validation loop and breadth-first connectivity search that
    ``NetworkGraph`` first had."""
    normalized = []
    seen = set()
    for edge in edges:
        try:
            i, j, b = edge
        except (TypeError, ValueError):
            raise ValidationError(f"edge {edge!r} is not an (i, j, b) triple") from None
        i, j = int(i), int(j)
        if i == j:
            raise ValidationError(f"self-loop at node {i} is not allowed")
        if not (0 <= i < n_nodes and 0 <= j < n_nodes):
            raise ValidationError(f"edge ({i}, {j}) has an endpoint outside 0..{n_nodes - 1}")
        b = float(b)
        if not np.isfinite(b) or b <= 0:
            raise ValidationError(f"edge ({i}, {j}) has non-positive weight {b!r}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ValidationError(f"duplicate edge between nodes {key[0]} and {key[1]}")
        seen.add(key)
        normalized.append((key[0], key[1], b))
    neighbors = [[] for _ in range(n_nodes)]
    for i, j, _ in normalized:
        neighbors[i].append(j)
        neighbors[j].append(i)
    reached, frontier = {0}, [0]
    while frontier:
        for nbr in neighbors[frontier.pop()]:
            if nbr not in reached:
                reached.add(nbr)
                frontier.append(nbr)
    if len(reached) != n_nodes:
        raise DisconnectedGraphError(f"graph with {n_nodes} nodes and {len(normalized)} edges is not connected")
    return tuple(normalized)


_WEIGHTS = st.one_of(st.floats(0.01, 100.0), st.sampled_from([0.0, -0.0, -1.5, float("nan"), float("inf"),
                                                              float("-inf")]))


@st.composite
def _faulty_edge_lists(draw):
    """(n_nodes, rows, container): a random connected graph in random edge
    order and orientation, then up to three injected faults."""
    n = draw(st.integers(1, 7))
    order = draw(st.permutations(range(n)))
    pairs = [(order[draw(st.integers(0, pos - 1))], order[pos]) for pos in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
                           max_size=4))
    rows = [(i, j, draw(st.floats(0.01, 100.0))) for i, j in draw(st.permutations(pairs))]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["self-loop", "range", "duplicate", "weight", "non-triple", "drop",
                                     "isolated node"]))
        at = draw(st.integers(0, len(rows)))
        if kind == "isolated node":
            n += 1
            continue
        if kind == "non-triple":
            rows.insert(at, draw(st.sampled_from([(0, 1), (0, 1, 1.0, 2.0), (), None, 7])))
            continue
        at = min(at, len(rows) - 1)
        if at < 0 or not (isinstance(rows[at], tuple) and len(rows[at]) == 3):
            continue
        i, j, b = rows[at]
        if kind == "self-loop":
            rows[at] = (i, i, b)
        elif kind == "range":
            bad = draw(st.sampled_from([-1, -7, n, n + 3]))
            rows[at] = draw(st.sampled_from([(i, bad, b), (bad, j, b), (bad, bad, b)]))
        elif kind == "duplicate":
            copy = (j, i) if draw(st.booleans()) else (i, j)
            rows.insert(draw(st.integers(at + 1, len(rows))), (*copy, draw(_WEIGHTS)))
        elif kind == "weight":
            rows[at] = (i, j, draw(_WEIGHTS))
        else:
            del rows[at]
    triples = all(isinstance(r, tuple) and len(r) == 3 for r in rows)
    container = draw(st.sampled_from(["tuple", "list", "generator"] + (["array"] if triples else [])))
    return n, rows, container


def _as_container(rows, container):
    if container == "array":
        return np.array(rows, dtype=float).reshape(-1, 3)
    if container == "generator":
        return (row for row in rows)
    return tuple(rows) if container == "tuple" else list(rows)


def _reference_random_edges(n, p, b_range, seed):
    """The random draw as first written: the pair arrays of np.triu_indices
    and the reference connectivity search on every draw."""
    rng = np.random.default_rng(seed)
    rows, cols = np.triu_indices(n, 1)
    for _ in range(1000):
        mask = rng.random(rows.size) < p
        ends_i, ends_j = rows[mask].tolist(), cols[mask].tolist()
        try:
            _reference_graph_edges(n, [(i, j, 1.0) for i, j in zip(ends_i, ends_j)])
        except DisconnectedGraphError:
            continue
        weights = rng.uniform(b_range[0], b_range[1], size=len(ends_i)).tolist()
        return tuple(zip(ends_i, ends_j, weights))
    raise AssertionError("no connected draw")


def _cliques_with_tie(sizes, tie):
    """Laplacian of cliques of unit weight on consecutive nodes, each joined
    to the next by one edge of weight ``tie`` (none where ``tie`` is 0)."""
    n = sum(sizes)
    lb = np.zeros((n, n))
    start = 0
    for size in sizes:
        block = slice(start, start + size)
        lb[block, block] = -1.0
        if tie and start + size < n:
            lb[start + size - 1, start + size] = lb[start + size, start + size - 1] = -tie
        start += size
    np.fill_diagonal(lb, 0.0)
    np.fill_diagonal(lb, -lb.sum(axis=1))
    return lb


def _reference_laplacian_verdict(mat):
    """Message of the first failed Laplacian check, or None: the checks as
    first written, with np.allclose for symmetry and an explicit diagonal,
    after a check that every entry is finite."""
    if not np.all(np.isfinite(mat)):
        return "Laplacian entries must be finite"
    scale = float(np.max(np.abs(mat))) if mat.size else 0.0
    tol = 1e-12 * scale
    with np.errstate(invalid="ignore", over="ignore"):
        if not np.allclose(mat, mat.T, rtol=0, atol=tol):
            return "Laplacian must be symmetric"
        if np.any(np.abs(mat.sum(axis=1)) > tol):
            return "Laplacian row sums must be zero"
        if np.any(mat - np.diag(np.diag(mat)) > tol):
            return "Laplacian off-diagonal entries must be <= 0"
    return None


class TestNetworkGraph:
    def test_two_node_line(self):
        g = build_line_graph(2, [1.0], alpha=1.0)
        lb = susceptance_laplacian(g)
        assert np.array_equal(lb.matrix, np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            NetworkGraph(n_nodes=4, edges=((0, 1, 1.0), (2, 3, 1.0)), alpha=1.0)

    def test_isolated_node_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            NetworkGraph(n_nodes=3, edges=((0, 1, 1.0),), alpha=1.0)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            NetworkGraph(n_nodes=2, edges=((0, 1, 1.0), (1, 0, 2.0)), alpha=1.0)

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError, match="self-loop"):
            NetworkGraph(n_nodes=2, edges=((0, 0, 1.0), (0, 1, 1.0)), alpha=1.0)

    def test_nonpositive_weight_rejected(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValidationError):
                NetworkGraph(n_nodes=2, edges=((0, 1, bad),), alpha=1.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValidationError, match="alpha"):
            NetworkGraph(n_nodes=2, edges=((0, 1, 1.0),), alpha=-0.5)

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValidationError):
            NetworkGraph(n_nodes=2, edges=((0, 2, 1.0),), alpha=1.0)

    def test_malformed_input_messages(self):
        with pytest.raises(ValidationError, match="^n_nodes must be a positive integer, got 0$"):
            NetworkGraph(0, [], 1.0)
        # a row numpy cannot read as three numbers, among well-formed ones
        with pytest.raises(ValidationError, match=re.escape("edge (1, 2, 'x') is not an (i, j, b) triple")):
            NetworkGraph(3, [(0, 1, 1.0), (1, 2, "x")], 1.0)

    def test_single_node_graph_allowed(self):
        g = NetworkGraph(n_nodes=1, edges=(), alpha=1.0)
        assert g.n_nodes == 1

    def test_array_input_and_edge_view(self):
        rows = [(2, 0, 1.5), (1, 2, 0.5), (3, 1, 2.0)]
        want = ((0, 2, 1.5), (1, 2, 0.5), (1, 3, 2.0))
        table = np.array(rows, dtype=float)
        for edges in (rows, iter(rows), table):
            assert NetworkGraph(4, edges, 1.0).edges == want
        assert repr(NetworkGraph(3, np.array([(2, 0, 3), (1, 2, 1)]), 1.0).edges) == "((0, 2, 3.0), (1, 2, 1.0))"
        g = NetworkGraph(4, table, 1.0)
        table[0, 2] = 99.0  # the graph keeps its own copy
        assert g.edges == want and g.edges is g.edges
        assert [type(x) for x in g.edges[0]] == [int, int, float]
        assert (g.ends_i.tolist(), g.ends_j.tolist(), g.weights.tolist()) == ([0, 1, 1], [2, 2, 3], [1.5, 0.5, 2.0])
        assert not any(arr.flags.writeable for arr in (g.ends_i, g.ends_j, g.weights))
        assert g == NetworkGraph(4, want, 1.0) and hash(g) == hash(NetworkGraph(4, want, 1.0))

    def test_duplicate_is_flagged_at_its_second_occurrence(self):
        # every pair of a 40-bus line repeats later, reversed; a self-loop
        # sits between a pair's first edge and its repeat, so it is the first
        # bad edge; the lists are long enough that an unstable sort would
        # flag some pair's first edge instead
        line = [(i, i + 1, 1.0) for i in range(39)]
        repeats = [(j, i, 2.0) for i, j, _ in line]
        with pytest.raises(ValidationError, match="^self-loop at node 7 is not allowed$"):
            NetworkGraph(40, line + [(7, 7, 1.0)] + repeats, 1.0)
        with pytest.raises(ValidationError, match="^duplicate edge between nodes 0 and 1$"):
            NetworkGraph(40, line + repeats, 1.0)

    @settings(max_examples=500)
    @given(case=_faulty_edge_lists())
    def test_matches_reference_edge_loop(self, case):
        # same normalised edges, or the same error for the first bad edge
        n, rows, container = case
        try:
            expected = _reference_graph_edges(n, _as_container(rows, container))
        except Exception as err:  # noqa: BLE001  (the class is compared below)
            with pytest.raises(type(err)) as got:
                NetworkGraph(n_nodes=n, edges=_as_container(rows, container), alpha=1.0)
            assert type(got.value) is type(err)
            assert str(got.value) == str(err)
        else:
            g = NetworkGraph(n_nodes=n, edges=_as_container(rows, container), alpha=1.0)
            assert repr(g.edges) == repr(expected)


class TestBuilders:
    def test_line_graph_weighted(self):
        g = build_line_graph(3, [2.0, 3.0], alpha=0.5)
        lb = susceptance_laplacian(g)
        expected = np.array([[2.0, -2.0, 0.0], [-2.0, 5.0, -3.0], [0.0, -3.0, 3.0]])
        assert np.array_equal(lb.matrix, expected)

    @pytest.mark.parametrize("build", [
        lambda n: build_line_graph(n, [1.0], alpha=1.0),
        lambda n: build_complete_graph(n, 1.0, alpha=1.0),
        lambda n: build_random_connected_graph(n, 0.5, (0.5, 1.5), 1.0, seed=1),
    ], ids=["line", "complete", "random"])
    def test_non_integer_node_count_rejected(self, build):
        with pytest.raises(ValidationError, match=r"^n_nodes must be an integer >= 2, got 2\.5$"):
            build(2.5)

    @pytest.mark.parametrize("seed", [-1, 1.5, None, "3", (), (1, -1), (1, 2.0)])
    def test_random_graph_seed_must_be_non_negative_integers(self, seed):
        with pytest.raises(ValidationError, match="^seed must be a non-negative integer or a tuple of them, got "):
            build_random_connected_graph(5, 0.5, (0.5, 1.5), 1.0, seed=seed)

    def test_random_graph_takes_a_tuple_seed(self):
        g = build_random_connected_graph(5, 0.5, (0.5, 1.5), 1.0, seed=(3, 1))
        assert g == build_random_connected_graph(5, 0.5, (0.5, 1.5), 1.0, seed=(3, np.int64(1)))

    def test_line_graph_wrong_weight_count(self):
        with pytest.raises(ValidationError):
            build_line_graph(4, [1.0, 1.0], alpha=1.0)

    def test_complete_graph_edge_count(self):
        g = build_complete_graph(5, b=2.0, alpha=1.0)
        assert len(g.edges) == 10
        lb = susceptance_laplacian(g)
        assert np.allclose(np.diag(lb.matrix), 8.0)

    def test_complete_graph_per_pair_weights(self):
        weights = np.linspace(0.5, 1.5, 10)
        g = build_complete_graph(5, weights, alpha=1.0)
        pairs = itertools.combinations(range(5), 2)
        assert g.edges == tuple((i, j, float(w)) for (i, j), w in zip(pairs, weights))
        with pytest.raises(ValidationError, match="needs 10 susceptances, got 9"):
            build_complete_graph(5, weights[:-1], alpha=1.0)
        with pytest.raises(ValidationError, match="non-positive"):
            build_complete_graph(5, np.r_[weights[:-1], 0.0], alpha=1.0)
        with pytest.raises(ValidationError, match="^susceptance b must be positive, got -1.0$"):
            build_complete_graph(5, -1.0, alpha=1.0)

    def test_random_graph_deterministic(self):
        g1 = build_random_connected_graph(12, 0.3, (0.5, 1.5), alpha=1.0, seed=7)
        g2 = build_random_connected_graph(12, 0.3, (0.5, 1.5), alpha=1.0, seed=7)
        assert g1.edges == g2.edges
        g3 = build_random_connected_graph(12, 0.3, (0.5, 1.5), alpha=1.0, seed=8)
        assert g1.edges != g3.edges

    @pytest.mark.parametrize(
        ("n", "p", "seed", "n_edges", "digest"),
        [
            (12, 0.3, 7, 20, "9bd516a1f3b6aab8c203831578413c10730a3e8990b2dee49d82c35d1fff927f"),
            # the first 15 topology draws of this seed are disconnected
            (40, 0.06, 1, 53, "8af9b236544f9ee9252c249d1a6cf738e55e9cf8963d24f9c552c42cac68df63"),
            (200, 0.03, 5, 613, "9656510cb68aec14b7d848c4424efaffe4d7a89848d06d13d6494dfe21df5a92"),
            (1000, 0.01, 3, 4870, "4698a4f68bc942b2784b5e9cf74fc43501e0e95e2704b1fa7ce9f497bde92a71"),
        ],
    )
    def test_random_graph_draws_pinned(self, n, p, seed, n_edges, digest):
        # saved CLI outputs and benchmark seeds name graphs by seed alone, so
        # the pair order and the RNG calls per draw must never change
        g = build_random_connected_graph(n, p, (0.5, 1.5), alpha=1.0, seed=seed)
        assert len(g.edges) == n_edges
        assert hashlib.sha256(repr(g.edges).encode()).hexdigest() == digest

    @settings(max_examples=80)
    @given(n=st.integers(2, 60), p=st.floats(0.02, 1.0), seed=st.integers(0, 10_000))
    def test_random_draw_matches_pair_array_reference(self, n, p, seed):
        # the flat pair index maps to (i, j) without the pair arrays; the
        # draw keeps every bit, including the rejected disconnected draws
        p = max(p, 1.5 * math.log(n) / n)
        g = build_random_connected_graph(n, p, (0.5, 1.5), alpha=1.0, seed=seed)
        assert repr(g.edges) == repr(_reference_random_edges(n, p, (0.5, 1.5), seed))

    @settings(max_examples=40)
    @given(n=st.integers(2, 40), p=st.floats(0.05, 1.0), seed=st.integers(0, 10_000), chunk=st.integers(1, 64))
    def test_random_draw_does_not_depend_on_its_chunks(self, n, p, seed, chunk):
        # the uniforms are drawn _DRAW_CHUNK at a time; any cut of the one
        # PCG64 stream gives the same pairs, here with chunks of 1 to 64
        p = max(p, 1.5 * math.log(n) / n)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gridloss.network, "_DRAW_CHUNK", chunk)
            g = build_random_connected_graph(n, p, (0.5, 1.5), alpha=1.0, seed=seed)
        assert repr(g.edges) == repr(_reference_random_edges(n, p, (0.5, 1.5), seed))

    def test_random_graph_weights_in_range(self):
        g = build_random_connected_graph(10, 0.5, (0.5, 1.5), alpha=1.0, seed=0)
        assert all(0.5 <= b <= 1.5 for _, _, b in g.edges)

    def test_random_graph_full_probability_is_complete(self):
        g = build_random_connected_graph(6, 1.0, (1.0, 1.0), alpha=1.0, seed=3)
        assert len(g.edges) == 15

    def test_random_graph_bad_probability(self):
        for p in (0.0, -0.1, 1.5):
            with pytest.raises(ValidationError):
                build_random_connected_graph(5, p, (0.5, 1.5), alpha=1.0, seed=0)

    def test_random_graph_generation_cap(self):
        # 30 isolated-prone nodes at vanishing edge probability never connect
        with pytest.raises(GraphGenerationError):
            build_random_connected_graph(30, 1e-6, (0.5, 1.5), alpha=1.0, seed=0)


class TestLaplacians:
    def test_scaling_is_exact(self):
        g = build_random_connected_graph(9, 0.4, (0.5, 1.5), alpha=0.3, seed=2)
        lb = susceptance_laplacian(g)
        ss = _dapi_loop(g, gamma=2.5, k=0.5)
        assert np.array_equal(ss.l_g.matrix, 0.3 * lb.matrix)
        assert np.array_equal(ss.a[18:, 18:], -2.0 * (2.5 * lb.matrix))

    def test_row_sums_and_offdiagonal_signs(self):
        rng = np.random.default_rng(11)
        for seed in range(20):
            n = int(rng.integers(2, 25))
            g = build_random_connected_graph(n, 0.4, (0.5, 1.5), alpha=1.0, seed=seed)
            lb = susceptance_laplacian(g)
            scale = np.max(np.abs(lb.matrix))
            assert np.all(np.abs(lb.matrix.sum(axis=1)) <= 1e-12 * scale)
            off = lb.matrix - np.diag(np.diag(lb.matrix))
            assert np.all(off <= 0.0)
            assert np.allclose(lb.matrix, lb.matrix.T, rtol=0, atol=0)

    def test_matrix_is_read_only(self):
        g = build_line_graph(3, [1.0, 1.0], alpha=1.0)
        lb = susceptance_laplacian(g)
        with pytest.raises(ValueError):
            lb.matrix[0, 0] = 99.0

    @pytest.mark.parametrize("writeable", [True, False])
    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.float32])
    def test_adopts_only_read_only_float_matrices(self, dtype, writeable):
        # a read-only float64 matrix is kept as handed in; anything else is
        # copied, and the caller's array stays as it was
        mat = np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]], dtype=dtype)
        mat.setflags(write=writeable)
        before = mat.copy()
        lap = Laplacian(matrix=mat)
        if dtype is np.float64 and not writeable:
            assert lap.matrix is mat
        else:
            assert not np.shares_memory(lap.matrix, mat)
        assert lap.matrix.dtype == np.float64 and not lap.matrix.flags.writeable
        assert mat.flags.writeable == writeable and mat.dtype == dtype
        assert mat.tobytes() == before.tobytes()

    def test_susceptance_laplacian_peak_memory(self, peak_bytes):
        # the fill, adopted without a copy, and the row-blocked symmetry
        # check: the peak is the N x N result and small temporaries
        g = build_random_connected_graph(1000, 0.01, (0.5, 1.5), alpha=1.0, seed=3)
        with peak_bytes() as peak:
            lb = susceptance_laplacian(g)
        assert lb.n_nodes == 1000
        assert peak.bytes <= 1.25 * 8 * 1000**2

    def test_subnormal_loss_weight_accepted(self):
        # alpha * L_B at alpha = 5e-324 rounds each entry to the subnormal
        # grid, so a row can sum to a few subnormals, where the relative
        # tolerance 1e-12 max|entry| underflows to 0
        tiny = math.ulp(0.0)
        rows_off_zero = 0
        for n, seed in itertools.product((3, 5, 8), range(20)):
            g = build_random_connected_graph(n, 0.5, (0.5, 1.5), alpha=tiny, seed=seed)
            weight = tiny * susceptance_laplacian(g).matrix
            rows_off_zero += np.count_nonzero(weight.sum(axis=1))
            assert _loss_weight(g).matrix.tobytes() == weight.tobytes()
        assert rows_off_zero > 0

    def test_row_sum_floor_is_one_subnormal_per_entry(self):
        tiny = math.ulp(0.0)
        mat = tiny * np.array([[5.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
        assert Laplacian(matrix=mat).n_nodes == 3  # row 0 sums to 3 subnormals
        mat[0, 0] += tiny
        with pytest.raises(ValidationError, match="row sums"):
            Laplacian(matrix=mat)

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValidationError, match="symmetric"):
            Laplacian(matrix=np.array([[1.0, -1.0], [0.0, 1.0]]))

    def test_positive_offdiagonal_rejected(self):
        with pytest.raises(ValidationError):
            Laplacian(matrix=np.array([[-1.0, 1.0], [1.0, -1.0]]))

    @settings(max_examples=60)
    @given(n=st.integers(2, 30), seed=st.integers(0, 10_000), exponent=st.integers(-20, 20),
           alpha=st.floats(0.0, 50.0), m=st.floats(0.1, 10.0), k=st.floats(0.1, 10.0),
           tau=st.floats(0.0, 10.0), gamma=st.floats(0.0, 10.0))
    def test_exactly_linear_in_alpha(self, n, seed, exponent, alpha, m, k, tau, gamma):
        # L_G = alpha L_B entrywise, and a power-of-two alpha scales L_G, every
        # per-mode closed-form term and the norm with no rounding at all
        params = ControllerParams(m=m, tau=tau, k=k, gamma=gamma)
        unit = build_random_connected_graph(n, 0.5, (0.5, 1.5), alpha=1.0, seed=seed)
        spectrum = laplacian_eigenvalues(susceptance_laplacian(unit))
        base = h2_dapi_closed_form(1.0, params, spectrum)
        for a in (alpha, 2.0 ** exponent):
            graph = NetworkGraph(unit.n_nodes, unit.edges, a)
            lb, lg = susceptance_laplacian(graph), _loss_weight(graph)
            assert lg.matrix.tobytes() == (a * lb.matrix).tobytes()
            assert lb.matrix.tobytes() == susceptance_laplacian(unit).matrix.tobytes()
            scaled = h2_dapi_closed_form(a, params, spectrum)
            if a == 2.0 ** exponent:
                assert lg.matrix.tobytes() == (a * _loss_weight(unit).matrix).tobytes()
                assert scaled.per_mode.tobytes() == (a * base.per_mode).tobytes()
                assert scaled.squared_norm == a * base.squared_norm
            else:
                assert scaled.squared_norm == pytest.approx(a * base.squared_norm, rel=1e-15, abs=0.0)

    def test_susceptance_laplacian_is_the_first_of_three(self):
        # L_B, from which the assembly scales L_G and L_C, enters the swing
        # block of the closed loop as -(m/tau) L_B
        g = build_random_connected_graph(30, 0.2, (0.5, 1.5), alpha=0.7, seed=4)
        lb = susceptance_laplacian(g)
        assert not lb.matrix.flags.writeable
        assert _dapi_loop(g, 1.3).a[30:60, :30].tobytes() == (-lb.matrix).tobytes()

    def test_gamma_zero_gives_zero_communication_matrix(self):
        # the integrator block -(1/k) L_C of the DAPI loop vanishes
        g = build_line_graph(3, [1.0, 1.0], alpha=1.0)
        assert np.array_equal(_dapi_loop(g, gamma=0.0).a[6:, 6:], np.zeros((3, 3)))

    @settings(max_examples=60)
    @given(
        n=st.integers(2, 40),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 10_000),
        alpha=st.floats(0.0, 5.0),
        gamma=st.floats(0.0, 5.0),
    )
    def test_random_graph_matches_edge_loop_bit_for_bit(self, n, p, seed, alpha, gamma):
        # keep the edge probability high enough that a connected draw comes quickly
        low = min(1.0, 2.0 * math.log(n) / n)
        g = build_random_connected_graph(n, low + (1.0 - low) * p, (0.5, 1.5), alpha=alpha, seed=seed)
        _assert_matches_edge_loop(g, gamma)

    def test_fixed_graphs_match_edge_loop_bit_for_bit(self):
        ieee57 = ingest_edge_list(str(importlib.resources.files("gridloss") / "data" / "ieee57.edges"))
        graphs = [
            ieee57,
            NetworkGraph(n_nodes=1, edges=(), alpha=1.0),
            build_line_graph(2, [0.7], alpha=0.4),
            build_line_graph(30, np.linspace(0.1, 3.0, 29), alpha=1.0),
            build_complete_graph(2, 1.5, alpha=1.0),
            build_complete_graph(50, 1.0, alpha=2.0),
            build_complete_graph(12, np.linspace(0.5, 1.5, 66), alpha=0.3),
        ]
        for g in graphs:
            for gamma in (0.0, 1.0, 0.37):
                _assert_matches_edge_loop(g, gamma)

    @pytest.mark.parametrize(("matrix", "message"), [
        ([[1.0, -1.0], [0.0, 1.0]], "Laplacian must be symmetric"),
        ([[1.0, -1.0], [-1.0 + 1e-11, 1.0]], "Laplacian must be symmetric"),
        ([[2.0, -1.0], [-1.0, 1.0]], "Laplacian row sums must be zero"),
        ([[-1.0, 1.0], [1.0, -1.0]], "Laplacian off-diagonal entries must be <= 0"),
        ([[0.0, 1e-3, -1e-3], [1e-3, 0.0, -1e-3], [-1e-3, -1e-3, 2e-3]],
         "Laplacian off-diagonal entries must be <= 0"),
        ([[float("nan"), 0.0], [0.0, 0.0]], "Laplacian entries must be finite"),
        ([[1.0, -1.0], [-1.0, float("nan")]], "Laplacian entries must be finite"),
        ([[1.0, float("-inf")], [-1.0, 1.0]], "Laplacian entries must be finite"),
        ([[1.0, float("inf")], [-1.0, 1.0]], "Laplacian entries must be finite"),
        ([[1.0, float("inf")], [float("-inf"), 1.0]], "Laplacian entries must be finite"),
        ([1.0, -1.0], "Laplacian must be square, got shape (2,)"),
        ([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0]], "Laplacian must be square, got shape (2, 3)"),
        # the row sums overflow to inf: refused without a RuntimeWarning
        (np.full((2, 2), 1e308), "Laplacian row sums must be zero"),
        # numpy's pairwise row sums reach +inf and -inf, so NaN; the positive
        # off-diagonal entries refuse the matrix, again without a warning
        (1e308 * np.outer(*[np.tile([1.0, 1.0, -1.0, -1.0, 0.0, 0.0, 0.0, 0.0], 2)] * 2),
         "Laplacian off-diagonal entries must be <= 0"),
    ])
    def test_invalid_matrix_message(self, matrix, message):
        with pytest.raises(ValidationError) as err:
            Laplacian(matrix=np.array(matrix))
        assert str(err.value) == message

    @settings(max_examples=400)
    @given(data=st.data())
    def test_verdict_matches_reference_checks(self, data):
        # small matrices of ordinary, tiny, huge and non-finite entries, often
        # with a mirrored or row-sum diagonal, and sometimes one entry changed
        n = data.draw(st.integers(1, 4))
        entry = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-13, -1e-13, 1e300, -1e300,
                                 float("nan"), float("inf"), float("-inf")])
        mat = np.array(data.draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)
        shape = data.draw(st.sampled_from(["raw", "mirrored", "laplacian"]))
        if shape != "raw":
            mat = np.triu(mat) + np.triu(mat, 1).T
            if shape == "laplacian":
                np.fill_diagonal(mat, 0.0)
                with np.errstate(invalid="ignore", over="ignore"):
                    np.fill_diagonal(mat, -mat.sum(axis=1))
        if data.draw(st.booleans()):
            mat[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))] = data.draw(entry)
        expected = _reference_laplacian_verdict(mat)
        try:
            with np.errstate(invalid="ignore", over="ignore"):
                Laplacian(matrix=mat)
        except ValidationError as err:
            assert str(err) == expected
        else:
            assert expected is None


class TestSymmetryCheck:
    @settings(max_examples=200)
    @given(
        n=st.sampled_from([1, 2, 63, 64, 65, 127, 128, 129]),
        symmetric=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        spots=st.lists(st.tuples(st.integers(0, 128), st.integers(0, 128),
                                 st.sampled_from(["nan", "inf", "-inf", "inf-pair", "gap", "small-gap"])),
                       max_size=3),
        atol=st.sampled_from([0.0, 1e-12, 1e-3, np.inf, np.nan]),
    )
    def test_blocked_verdict_is_allclose(self, n, symmetric, seed, spots, atol):
        # the check runs 64 rows at a time; sizes and spots straddle the
        # block edges, and non-finite entries and atol keep allclose's verdict
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((n, n))
        if symmetric:
            mat = mat + mat.T
        for i, j, kind in spots:
            i, j = i % n, j % n
            if kind == "inf-pair":
                mat[i, j] = mat[j, i] = np.inf
            elif kind in ("gap", "small-gap"):
                mat[i, j] += 1e-2 if kind == "gap" else 1e-13
            else:
                mat[i, j] = float(kind)
        with warnings.catch_warnings():
            # allclose warns about an infinite or NaN atol
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = np.allclose(mat, mat.T, rtol=0, atol=atol)
        assert _symmetric_within(mat, atol) == expected


class TestSpectrum:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("index", [1, 3], ids=["second", "last"])
    def test_non_finite_eigenvalue_refused(self, bad, index):
        # refused before any arithmetic (filterwarnings = error): a NaN
        # passes the ascending check, and inf - inf warns in it
        w = np.array([0.0, 1.0, 2.0, 3.0])
        w[index] = bad
        with pytest.raises(ValidationError, match=f"^eigenvalues must be finite, got {bad!r} at index {index}$"):
            Spectrum(w)
        with pytest.raises(ValidationError, match=f"^eigenvalues must be finite, got {bad!r} at index {index}$"):
            Spectrum(w, np.eye(4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("entry", [(0, 0), (2, 1)], ids=["first", "inner"])
    def test_non_finite_eigenvector_entry_refused(self, bad, entry):
        u = np.eye(3)
        u[entry] = bad
        with pytest.raises(ValidationError, match=re.escape(f"eigenvectors must be finite, got {bad!r} at {entry}")):
            Spectrum([0.0, 1.0, 2.0], u)

    def test_negative_eigenvalue_refused(self):
        with pytest.raises(ValidationError, match="^eigenvalues must be ascending$"):
            Spectrum(np.array([0.0, -1.0]))


class TestSpectralDecomposition:
    def test_unit_line_four_nodes_eigenvalues(self):
        # path graph on 4 nodes: eigenvalues 0, 2-sqrt(2), 2, 2+sqrt(2)
        g = build_line_graph(4, [1.0, 1.0, 1.0], alpha=1.0)
        lb = susceptance_laplacian(g)
        spec = spectral_decomposition(lb)
        expected = np.array([0.0, 2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)])
        assert spec.eigenvalues[0] == 0.0
        assert np.allclose(spec.eigenvalues, expected, rtol=0, atol=1e-12)

    def test_weighted_line_matches_independent_eigensolve(self):
        # oracle: dense eigensolve of the hand-written 3x3 matrix
        oracle = np.linalg.eigvalsh(
            np.array([[2.0, -2.0, 0.0], [-2.0, 5.0, -3.0], [0.0, -3.0, 3.0]])
        )
        g = build_line_graph(3, [2.0, 3.0], alpha=1.0)
        lb = susceptance_laplacian(g)
        spec = spectral_decomposition(lb)
        assert spec.eigenvalues[0] == 0.0
        assert np.allclose(spec.eigenvalues[1:], oracle[1:], rtol=1e-12, atol=1e-12)

    def test_complete_graph_spectrum(self):
        # complete graph on N nodes, uniform b: nonzero eigenvalues all N*b
        for n, b in ((3, 1.0), (10, 0.7), (50, 1.0)):
            g = build_complete_graph(n, b=b, alpha=1.0)
            lb = susceptance_laplacian(g)
            spec = spectral_decomposition(lb)
            assert spec.eigenvalues[0] == 0.0
            assert np.allclose(spec.eigenvalues[1:], n * b, rtol=1e-9, atol=0)

    def test_orthonormality_and_reconstruction(self):
        for seed in range(10):
            g = build_random_connected_graph(15, 0.3, (0.5, 1.5), alpha=1.0, seed=seed)
            lb = susceptance_laplacian(g)
            spec = spectral_decomposition(lb)
            u, w = spec.eigenvectors, spec.eigenvalues
            assert np.max(np.abs(u.T @ u - np.eye(15))) <= 1e-10
            recon = u @ np.diag(w) @ u.T
            assert np.max(np.abs(recon - lb.matrix)) <= 1e-8 * w[-1]

    def test_zero_mode_column_is_uniform_positive(self):
        g = build_random_connected_graph(20, 0.3, (0.5, 1.5), alpha=1.0, seed=5)
        lb = susceptance_laplacian(g)
        spec = spectral_decomposition(lb)
        assert np.allclose(spec.eigenvectors[:, 0], 1.0 / math.sqrt(20), atol=1e-10)

    def test_sign_convention_deterministic(self):
        g = build_line_graph(6, [1.0] * 5, alpha=1.0)
        lb = susceptance_laplacian(g)
        u1 = spectral_decomposition(lb).eigenvectors
        u2 = spectral_decomposition(Laplacian(lb.matrix.copy())).eigenvectors
        assert np.array_equal(u1, u2)
        for col in range(6):
            lead = np.flatnonzero(np.abs(u1[:, col]) > 1e-8)[0]
            assert u1[lead, col] > 0

    @pytest.mark.parametrize("graph", [
        build_line_graph(9, [1.0] * 8, alpha=1.0),
        build_complete_graph(12, 1.0, alpha=1.0),
        build_random_connected_graph(80, 0.1, (0.5, 1.5), alpha=1.0, seed=4),
    ], ids=["line", "complete", "random"])
    def test_signs_match_column_loop_reference(self, graph):
        # the sign pass is vectorised; the per-column loop it replaced is
        # the reference, and every bit must agree
        lb = susceptance_laplacian(graph)
        _, u = np.linalg.eigh(lb.matrix)
        for col in range(u.shape[1]):
            nz = np.flatnonzero(np.abs(u[:, col]) > 1e-8)
            if u[nz[0] if nz.size else 0, col] < 0:
                u[:, col] = -u[:, col]
        assert spectral_decomposition(lb).eigenvectors.tobytes() == u.tobytes()

    def test_disconnected_laplacian_rejected(self):
        mat = np.array(
            [
                [1.0, -1.0, 0.0, 0.0],
                [-1.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, -1.0],
                [0.0, 0.0, -1.0, 1.0],
            ]
        )
        with pytest.raises(DisconnectedGraphError, match="2"):
            spectral_decomposition(Laplacian(mat))

    def test_eigenvalues_ascending(self):
        g = build_random_connected_graph(25, 0.2, (0.5, 1.5), alpha=1.0, seed=9)
        lb = susceptance_laplacian(g)
        spec = spectral_decomposition(lb)
        assert np.all(np.diff(spec.eigenvalues) >= 0)
        assert spec.nonzero.size == 24
        assert np.all(spec.nonzero > 0)

    def test_line_below_complete_spectral_gap(self):
        # long paths synchronize poorly: lambda_2 far below the complete graph's
        line = build_line_graph(20, [1.0] * 19, alpha=1.0)
        comp = build_complete_graph(20, b=1.0, alpha=1.0)
        gap_line = spectral_decomposition(susceptance_laplacian(line)).eigenvalues[1]
        gap_comp = spectral_decomposition(susceptance_laplacian(comp)).eigenvalues[1]
        assert gap_line < gap_comp


class TestLaplacianEigenvalues:
    def test_matches_spectral_decomposition(self):
        ieee57 = ingest_edge_list(str(importlib.resources.files("gridloss") / "data" / "ieee57.edges"))
        graphs = [ieee57, build_line_graph(40, np.linspace(0.2, 2.0, 39), alpha=1.0),
                  build_complete_graph(30, 1.0, alpha=1.0)]
        graphs += [build_random_connected_graph(n, p, (0.5, 1.5), alpha=1.0, seed=seed)
                   for n, p, seed in ((2, 1.0, 0), (25, 0.3, 1), (120, 0.05, 2), (300, 0.03, 3))]
        for g in graphs:
            lb = susceptance_laplacian(g)
            full = spectral_decomposition(lb)
            spec = laplacian_eigenvalues(lb)
            assert spec.eigenvectors is None
            assert spec.n_nodes == g.n_nodes
            assert spec.eigenvalues[0] == 0.0 and np.all(spec.nonzero > 0)
            assert not spec.eigenvalues.flags.writeable
            tol = 1e-12 * full.eigenvalues[-1]
            assert np.max(np.abs(spec.eigenvalues - full.eigenvalues)) <= tol

    def test_single_node(self):
        lb = susceptance_laplacian(NetworkGraph(n_nodes=1, edges=(), alpha=1.0))
        assert laplacian_eigenvalues(lb).eigenvalues.tobytes() == np.zeros(1).tobytes()
        full = spectral_decomposition(lb)
        assert full.eigenvalues.tobytes() == np.zeros(1).tobytes()
        assert full.eigenvectors.tobytes() == np.ones((1, 1)).tobytes()

    @pytest.mark.parametrize(("matrix", "error", "message"), [
        (np.kron(np.eye(2), [[1.0, -1.0], [-1.0, 1.0]]), DisconnectedGraphError,
         "Laplacian has 2 zero modes; the graph splits into 2 components"),
        (np.kron(np.eye(3), [[2.0, -2.0], [-2.0, 2.0]]), DisconnectedGraphError,
         "Laplacian has 3 zero modes; the graph splits into 3 components"),
        (np.zeros((3, 3)), DisconnectedGraphError, "Laplacian is zero; graph has no edges"),
    ])
    def test_same_errors_as_spectral_decomposition(self, matrix, error, message):
        lap = Laplacian(matrix)
        for spectrum_of in (spectral_decomposition, laplacian_eigenvalues):
            with pytest.raises(error) as err:
                spectrum_of(lap)
            assert str(err.value) == message


class TestZeroModes:
    """The Laplacian's off-diagonal pattern decides the zero modes: one per
    component, whatever the size of the computed eigenvalues."""

    def test_weak_tie_is_connected(self):
        lb = Laplacian(_cliques_with_tie([5, 5], 1e-10))
        raw = np.linalg.eigvalsh(lb.matrix)
        for spectrum_of in (spectral_decomposition, laplacian_eigenvalues):
            w = spectrum_of(lb).eigenvalues
            assert w[0] == 0.0 and np.count_nonzero(w == 0.0) == 1
            assert 3.9e-11 < w[1] < 4.1e-11
            assert np.allclose(w[1:], raw[1:], rtol=1e-4, atol=0.0)
        assert laplacian_eigenvalues(lb).eigenvalues[1:].tobytes() == raw[1:].tobytes()

    @pytest.mark.parametrize(("sizes", "tie", "components"), [
        ([2, 2], 0.0, 2),
        ([2, 2, 2], 0.0, 3),
        ([5, 5, 1], 1e-10, 1),
    ])
    def test_components_counted_from_the_pattern(self, sizes, tie, components):
        lap = Laplacian(_cliques_with_tie(sizes, tie))
        for spectrum_of in (spectral_decomposition, laplacian_eigenvalues):
            if components == 1:
                assert np.count_nonzero(spectrum_of(lap).eigenvalues == 0.0) == 1
                continue
            with pytest.raises(DisconnectedGraphError) as err:
                spectrum_of(lap)
            assert str(err.value) == (f"Laplacian has {components} zero modes; "
                                      f"the graph splits into {components} components")

    def test_weak_tie_beside_a_split_reports_the_components(self):
        # a 1e-9 threshold would find three zero eigenvalues; the graph has two parts
        mat = np.zeros((13, 13))
        mat[:10, :10] = _cliques_with_tie([5, 5], 1e-10)
        mat[10:, 10:] = _cliques_with_tie([3], 0.0)
        assert np.count_nonzero(np.abs(np.linalg.eigvalsh(mat)) < 1e-9 * 5) == 3
        for spectrum_of in (spectral_decomposition, laplacian_eigenvalues):
            with pytest.raises(DisconnectedGraphError, match="has 2 zero modes; the graph splits into 2 components$"):
                spectrum_of(Laplacian(mat))

    def test_unresolved_second_eigenvalue_is_refused(self, monkeypatch):
        # a tie so weak that rounding leaves lambda_2 at or below zero
        lap = Laplacian(_cliques_with_tie([5, 5], 1e-10))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda mat: np.array([-1e-16, -1e-63] + [5.0] * 8))
        with pytest.raises(DisconnectedGraphError, match="second eigenvalue -1.000e-63 is not resolved above zero"):
            laplacian_eigenvalues(lap)

    def test_negative_eigenvalue_is_refused(self, monkeypatch):
        # rounding leaves lambda_1 within 1e-9 lambda_max of zero; deeper,
        # the matrix is not positive semidefinite
        lap = Laplacian(_cliques_with_tie([5, 5], 1e-10))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda mat: np.array([-5.1e-9, 1.0] + [5.0] * 8))
        with pytest.raises(ValidationError) as err:
            laplacian_eigenvalues(lap)
        assert str(err.value) == "matrix is not positive semidefinite (min eigenvalue -5.100e-09)"
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda mat: np.array([-4.9e-9, 1.0] + [5.0] * 8))
        assert laplacian_eigenvalues(lap).eigenvalues[:2].tolist() == [0.0, 1.0]

    @pytest.mark.parametrize(("tie", "resolved"), [
        (1e-10, True), (1e-13, True),
        (1e-14, False), (1e-15, False), (1e-16, False), (1e-18, False), (1e-20, False),
    ])
    def test_second_eigenvalue_needs_the_rounding_floor(self, tie, resolved):
        # below n eps lambda_max = 1.110e-14 the sign and size of lambda_2 are
        # rounding noise, different for eigh and eigvalsh; the verdict is not
        lap = Laplacian(_cliques_with_tie([5, 5], tie))
        texts = set()
        for spectrum_of in (spectral_decomposition, laplacian_eigenvalues):
            if resolved:
                w = spectrum_of(lap).eigenvalues
                assert np.count_nonzero(w == 0.0) == 1
                assert 0.3 * tie < w[1] < 0.5 * tie
                continue
            with pytest.raises(DisconnectedGraphError, match="is not resolved above zero") as err:
                spectrum_of(lap)
            texts.add(re.sub(r"eigenvalue \S+ is", "eigenvalue <lambda_2> is", str(err.value)))
        if not resolved:
            assert texts == {"the graph is connected, but its second eigenvalue <lambda_2> is not resolved "
                             "above zero (rounding floor n eps lambda_max = 1.110e-14)"}

    @settings(max_examples=60)
    @given(n=st.integers(2, 40), seed=st.integers(0, 10_000), data=st.data())
    def test_eigenvalues_invariant_under_relabelling(self, n, seed, data):
        g = build_random_connected_graph(n, min(1.0, 3.0 / n + 0.1), (0.5, 1.5), alpha=1.0, seed=seed)
        perm = data.draw(st.permutations(range(n)))
        order = data.draw(st.permutations(range(len(g.edges))))
        relabelled = NetworkGraph(n, [(perm[j], perm[i], b) for i, j, b in (g.edges[e] for e in order)], 1.0)
        want = laplacian_eigenvalues(susceptance_laplacian(g)).eigenvalues
        for spectrum_of in (spectral_decomposition, laplacian_eigenvalues):
            got = spectrum_of(susceptance_laplacian(relabelled)).eigenvalues
            assert got[0] == 0.0
            assert np.max(np.abs(got - want)) <= 1e-12 * want[-1]


class TestIngest:
    def _write(self, tmp_path, text):
        path = tmp_path / "net.edges"
        path.write_text(text)
        return path

    def test_three_node_line(self, tmp_path):
        path = self._write(tmp_path, "alpha 1.0\n1 2 1.0\n2 3 1.0\n")
        g = ingest_edge_list(path)
        assert g.n_nodes == 3
        assert g.alpha == 1.0
        assert g.edges == ((0, 1, 1.0), (1, 2, 1.0))

    def test_comments_and_blank_lines(self, tmp_path):
        path = self._write(
            tmp_path,
            "# network file\n\nalpha 0.5  # ratio\n1 2 2.0\n# middle comment\n2 3 3.0\n",
        )
        g = ingest_edge_list(path)
        assert g.alpha == 0.5
        assert g.edges == ((0, 1, 2.0), (1, 2, 3.0))

    def test_non_utf8_byte_in_a_comment_is_ignored(self, tmp_path):
        path = tmp_path / "net.edges"
        path.write_bytes(b"alpha 1.0 # caf\xe9\n1 2 1.0\n")
        assert ingest_edge_list(path).edges == ((0, 1, 1.0),)

    def test_missing_header(self, tmp_path):
        path = self._write(tmp_path, "1 2 1.0\n")
        with pytest.raises(EdgeListParseError, match="line 1"):
            ingest_edge_list(path)

    def test_bad_alpha_value(self, tmp_path):
        path = self._write(tmp_path, "alpha x\n1 2 1.0\n")
        with pytest.raises(EdgeListParseError, match="line 1"):
            ingest_edge_list(path)

    @pytest.mark.parametrize("value", ["-0.5", "nan", "inf", "-inf"])
    def test_alpha_refused_by_the_alpha_rule(self, tmp_path, value):
        # the graph's own alpha rule and text, led by the header's line
        path = self._write(tmp_path, f"# header next\nalpha {value}\n1 2 1.0\n")
        with pytest.raises(EdgeListParseError, match=f"^line 2: alpha must be finite and >= 0, got {value}$"):
            ingest_edge_list(path)

    def test_self_loop_line_number(self, tmp_path):
        path = self._write(tmp_path, "alpha 1.0\n1 2 1.0\n1 1 2.0\n")
        with pytest.raises(EdgeListParseError, match="line 3.*self-loop"):
            ingest_edge_list(path)

    def test_duplicate_edge_line_number(self, tmp_path):
        path = self._write(tmp_path, "alpha 1.0\n1 2 1.0\n2 1 1.5\n2 3 1.0\n")
        with pytest.raises(EdgeListParseError, match="line 3.*duplicate"):
            ingest_edge_list(path)

    def test_nonpositive_weight(self, tmp_path):
        path = self._write(tmp_path, "alpha 1.0\n1 2 0.0\n")
        with pytest.raises(EdgeListParseError, match="line 2"):
            ingest_edge_list(path)

    def test_malformed_edge_line(self, tmp_path):
        path = self._write(tmp_path, "alpha 1.0\n1 2\n")
        with pytest.raises(EdgeListParseError, match="line 2"):
            ingest_edge_list(path)

    def test_noncontiguous_indices(self, tmp_path):
        path = self._write(tmp_path, "alpha 1.0\n1 2 1.0\n2 4 1.0\n")
        with pytest.raises(EdgeListParseError, match="not contiguous"):
            ingest_edge_list(path)

    def test_disconnected_file(self, tmp_path):
        path = self._write(tmp_path, "alpha 1.0\n1 2 1.0\n3 4 1.0\n2 3 1.0\n1 3 1.0\n")
        g = ingest_edge_list(path)  # connected version parses fine
        assert g.n_nodes == 4
        path2 = self._write(tmp_path, "alpha 1.0\n1 2 1.0\n1 3 1.0\n4 5 1.0\n4 6 1.0\n5 6 1.0\n2 3 1.0\n")
        with pytest.raises(DisconnectedGraphError):
            ingest_edge_list(path2)

    def test_no_edges(self, tmp_path):
        path = self._write(tmp_path, "alpha 1.0\n")
        with pytest.raises(EdgeListParseError, match="no edges"):
            ingest_edge_list(path)


class TestPackagedTopology:
    def test_ieee57_loads(self):
        path = importlib.resources.files("gridloss") / "data" / "ieee57.edges"
        g = ingest_edge_list(str(path))
        assert g.n_nodes == 57
        assert len(g.edges) == 78
        assert g.alpha == 1.0
        spec = spectral_decomposition(susceptance_laplacian(g))
        assert spec.eigenvalues[0] == 0.0
        assert spec.eigenvalues[1] > 0
