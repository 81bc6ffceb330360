"""Weighted network graphs, their Laplacians, and spectral decompositions.

The electrical network is an undirected weighted graph: nodes are inverter
buses, edge weights are line susceptances ``b_ij > 0``.  Line conductances
are assumed proportional to susceptances with a uniform ratio ``alpha``
(``g_ij = alpha * b_ij``), so the conductance Laplacian is an exact scalar
multiple of the susceptance Laplacian, and likewise the communication
Laplacian with ratio ``gamma``.

Node indices are 0-based in memory; the edge-list file format is 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DisconnectedGraphError,
    EdgeListParseError,
    GraphGenerationError,
    ValidationError,
)

_LAPLACIAN_KINDS = ("susceptance", "conductance", "communication")

# relative threshold below which a computed eigenvalue is treated as zero
_ZERO_EIG_RTOL = 1e-9


@dataclass(frozen=True)
class NetworkGraph:
    """Connected undirected graph with positive edge weights.

    Args:
        n_nodes: number of buses (>= 1).
        edges: ``(i, j, b_ij)`` triples with 0-based endpoints and
            susceptance ``b_ij > 0``, as any iterable or an (E, 3) array.
            At most one edge per node pair, no self-loops.
        alpha: uniform conductance-to-susceptance ratio, >= 0.

    The edges are stored in input order as three read-only arrays:
    ``ends_i < ends_j`` (integers) and ``weights``.  ``edges`` holds
    their tuple view with Python ints and floats, built at construction.
    Connectivity is checked at construction; every analysis operation in
    this package assumes it.
    """

    n_nodes: int
    edges: tuple[tuple[int, int, float], ...]
    alpha: float

    def __post_init__(self) -> None:
        if not isinstance(self.n_nodes, (int, np.integer)) or self.n_nodes < 1:
            raise ValidationError(f"n_nodes must be a positive integer, got {self.n_nodes!r}")
        if not np.isfinite(self.alpha) or self.alpha < 0:
            raise ValidationError(f"alpha must be finite and >= 0, got {self.alpha!r}")
        n_nodes = int(self.n_nodes)
        ends_i, ends_j, weights = _validated_edges(n_nodes, self.edges)
        for arr in (ends_i, ends_j, weights):
            arr.setflags(write=False)
        object.__setattr__(self, "n_nodes", n_nodes)
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "ends_i", ends_i)
        object.__setattr__(self, "ends_j", ends_j)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "edges", tuple(zip(ends_i.tolist(), ends_j.tolist(), weights.tolist())))
        if _component_count(n_nodes, ends_i, ends_j) != 1:
            raise DisconnectedGraphError(
                f"graph with {n_nodes} nodes and {weights.size} edges is not connected"
            )


def _validated_edges(n_nodes: int, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(ends_i, ends_j, weights)`` of checked edges, with ``ends_i < ends_j``.

    Every check runs on whole arrays.  The error raised is the one for the
    first bad edge in input order, whose checks run in this order: a triple
    of numbers, finite endpoints (``int()``'s own error), no self-loop,
    endpoints in range, a finite positive weight, and no earlier edge
    between the same two nodes.  Endpoints are truncated like ``int()``.
    """
    rows = edges if isinstance(edges, np.ndarray) else tuple(edges)
    table, malformed = _number_triples(rows)
    ti, tj, weights = table[:, 0], table[:, 1], table[:, 2].copy()
    i, j = np.trunc(ti), np.trunc(tj)
    finite = np.isfinite(i) & np.isfinite(j)
    loop = i == j
    outside = ~((i >= 0) & (i < n_nodes) & (j >= 0) & (j < n_nodes))
    bad_weight = ~(np.isfinite(weights) & (weights > 0))
    fault = ~finite | loop | outside | bad_weight
    # a repeated pair among the edges that pass every other check: all edges
    # before the first faulty one do, so this is the duplicate test in order
    rows_ok = np.flatnonzero(~fault)
    lo = np.minimum(i[rows_ok], j[rows_ok]).astype(np.intp)
    hi = np.maximum(i[rows_ok], j[rows_ok]).astype(np.intp)
    order = np.lexsort((hi, lo))  # stable: a pair's first edge sorts first
    repeat = (lo[order[1:]] == lo[order[:-1]]) & (hi[order[1:]] == hi[order[:-1]])
    fault[rows_ok[order[1:][repeat]]] = True
    if fault.any():
        r = int(np.argmax(fault))
        end_i, end_j = int(ti[r]), int(tj[r])  # int()'s error for a NaN or infinite endpoint
        if loop[r]:
            raise ValidationError(f"self-loop at node {end_i} is not allowed")
        if outside[r]:
            raise ValidationError(f"edge ({end_i}, {end_j}) has an endpoint outside 0..{n_nodes - 1}")
        if bad_weight[r]:
            raise ValidationError(f"edge ({end_i}, {end_j}) has non-positive weight {float(weights[r])!r}")
        raise ValidationError(f"duplicate edge between nodes {min(end_i, end_j)} and {max(end_i, end_j)}")
    if malformed is not None:
        raise ValidationError(f"edge {rows[malformed]!r} is not an (i, j, b) triple")
    return lo, hi, weights


def _number_triples(rows) -> tuple[np.ndarray, int | None]:
    """``rows`` as an (E, 3) float array, and None; or, if some row is not
    three numbers, the rows before the first such row and its index."""
    try:
        table = np.asarray(rows, dtype=float)
    except (TypeError, ValueError):
        table = None
    if table is not None and ((table.ndim == 2 and table.shape[1] == 3) or len(rows) == 0):
        return table.reshape(-1, 3), None
    # only on malformed input: find the first row that is not three numbers
    malformed = next(r for r, row in enumerate(rows) if not _is_number_triple(row))
    return np.asarray(rows[:malformed], dtype=float).reshape(-1, 3), malformed


def _is_number_triple(row) -> bool:
    try:
        return np.asarray(row, dtype=float).shape == (3,)
    except (TypeError, ValueError):
        return False


def _component_count(n_nodes: int, ends_i: np.ndarray, ends_j: np.ndarray) -> int:
    """Number of connected components of the undirected edges (i, j).

    Pointer jumping (Shiloach & Vishkin 1982, J. Algorithms 3(1)): each
    round hooks every root that an edge joins to a smaller root onto the
    smallest such root, then jumps pointers until every node points at a
    root.  Roots only ever point lower, so no cycle forms, and the rounds
    stop when no edge joins two roots; each component is then one tree.
    """
    parent = np.arange(n_nodes)
    while True:
        pi, pj = parent[ends_i], parent[ends_j]
        split = pi != pj
        if not split.any():
            return int(np.count_nonzero(parent == np.arange(n_nodes)))
        np.minimum.at(parent, np.maximum(pi[split], pj[split]), np.minimum(pi[split], pj[split]))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand


@dataclass(frozen=True)
class Laplacian:
    """Symmetric PSD graph Laplacian with a kind tag.

    Invariants checked at construction: square with finite entries,
    symmetric, row sums zero (within 1e-12 of the largest entry),
    off-diagonal entries <= 0.  Together these make the matrix diagonally
    dominant with a nonnegative diagonal, hence positive semidefinite.  The
    stored array is read-only.
    """

    matrix: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in _LAPLACIAN_KINDS:
            raise ValidationError(f"kind must be one of {_LAPLACIAN_KINDS}, got {self.kind!r}")
        mat = np.array(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError(f"Laplacian must be square, got shape {mat.shape}")
        top, bottom = (float(mat.max()), float(mat.min())) if mat.size else (0.0, 0.0)
        # both are NaN when any entry is, and one is infinite when an entry is
        if not (math.isfinite(top) and math.isfinite(bottom)):
            raise ValidationError("Laplacian entries must be finite")
        tol = 1e-12 * max(top, -bottom)
        if not _symmetric_within(mat, tol):
            raise ValidationError("Laplacian must be symmetric")
        row_sums = mat.sum(axis=1)
        if np.any(np.abs(row_sums) > tol):
            raise ValidationError("Laplacian row sums must be zero")
        if np.count_nonzero(mat > tol) > np.count_nonzero(np.diagonal(mat) > tol):
            raise ValidationError("Laplacian off-diagonal entries must be <= 0")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[0]


def _symmetric_within(mat: np.ndarray, tol: float) -> bool:
    """The verdict of ``np.allclose(mat, mat.T, rtol=0, atol=tol)`` for a
    finite matrix."""
    gap = mat - mat.T
    np.abs(gap, out=gap)
    return gap.size == 0 or bool(gap.max() <= tol)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a susceptance Laplacian, with or without eigenvectors.

    ``eigenvalues`` are ascending with the zero mode clamped to exactly 0.0
    in position 0.  ``eigenvectors`` is None for an eigenvalue-only spectrum
    (``laplacian_eigenvalues``); otherwise it holds the matching orthonormal
    columns, column 0 being the normalized all-ones vector.  Column signs
    follow a fixed convention (first component of noticeable magnitude
    positive) so repeated runs produce identical matrices.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None

    def __post_init__(self) -> None:
        w = np.array(self.eigenvalues, dtype=float)
        u = None if self.eigenvectors is None else np.array(self.eigenvectors, dtype=float)
        if w.ndim != 1 or (u is not None and u.shape != (w.size, w.size)):
            raise ValidationError(
                f"inconsistent spectrum shapes: eigenvalues {w.shape}, "
                f"eigenvectors {None if u is None else u.shape}"
            )
        if np.any(np.diff(w) < 0):
            raise ValidationError("eigenvalues must be ascending")
        w.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        if u is not None:
            u.setflags(write=False)
            object.__setattr__(self, "eigenvectors", u)

    @property
    def n_nodes(self) -> int:
        return self.eigenvalues.size

    @property
    def nonzero(self) -> np.ndarray:
        """Eigenvalues 2..N (everything past the zero mode)."""
        return self.eigenvalues[1:]


def build_line_graph(n_nodes: int, susceptances, alpha: float) -> NetworkGraph:
    """Path graph on ``n_nodes`` buses with the given n-1 edge susceptances."""
    if n_nodes < 2:
        raise ValidationError(f"line graph needs at least 2 nodes, got {n_nodes}")
    b = np.asarray(susceptances, dtype=float)
    if len(b) != n_nodes - 1:
        raise ValidationError(f"line graph on {n_nodes} nodes needs {n_nodes - 1} susceptances, got {len(b)}")
    ends = np.arange(n_nodes - 1)
    return NetworkGraph(n_nodes=n_nodes, edges=np.column_stack((ends, ends + 1, b)), alpha=alpha)


def build_complete_graph(n_nodes: int, b, alpha: float) -> NetworkGraph:
    """Complete graph on ``n_nodes`` buses with uniform susceptance ``b``, or
    with one susceptance per node pair in ``itertools.combinations`` order."""
    if n_nodes < 2:
        raise ValidationError(f"complete graph needs at least 2 nodes, got {n_nodes}")
    ends_i, ends_j = np.triu_indices(n_nodes, 1)
    if np.ndim(b) == 0:
        b = float(b)
        if not np.isfinite(b) or b <= 0:
            raise ValidationError(f"susceptance must be positive, got {b!r}")
        weights = np.full(ends_i.size, b)
    else:
        weights = np.asarray(b, dtype=float)
        if len(weights) != ends_i.size:
            raise ValidationError(
                f"complete graph on {n_nodes} nodes needs {ends_i.size} susceptances, got {len(weights)}"
            )
    return NetworkGraph(n_nodes=n_nodes, edges=np.column_stack((ends_i, ends_j, weights)), alpha=alpha)


def build_random_connected_graph(
    n_nodes: int,
    edge_probability: float,
    b_range: tuple[float, float],
    alpha: float,
    seed: int,
) -> NetworkGraph:
    """Erdős–Rényi graph resampled until connected, with uniform random weights.

    Args:
        n_nodes: number of buses (>= 2).
        edge_probability: independent inclusion probability for each pair,
            in (0, 1].
        b_range: ``(low, high)`` of the uniform susceptance distribution,
            0 < low <= high.
        alpha: conductance-to-susceptance ratio.
        seed: RNG seed; the draw is deterministic for a fixed seed.

    Raises:
        GraphGenerationError: if 1000 topology draws all come out disconnected.
    """
    if n_nodes < 2:
        raise ValidationError(f"random graph needs at least 2 nodes, got {n_nodes}")
    p = float(edge_probability)
    if not (0.0 < p <= 1.0):
        raise ValidationError(f"edge_probability must be in (0, 1], got {p!r}")
    lo, hi = float(b_range[0]), float(b_range[1])
    if not (0.0 < lo <= hi) or not np.isfinite(hi):
        raise ValidationError(f"b_range must satisfy 0 < low <= high, got {b_range!r}")
    rng = np.random.default_rng(seed)
    # the draw for a seed is fixed: pairs i < j in lexicographic order, one
    # uniform per pair, then one weight per chosen pair; pair k lies in the
    # row i whose first pair is k = i (2n - i - 1) / 2
    nodes = np.arange(n_nodes)
    row_starts = nodes * (2 * n_nodes - nodes - 1) // 2
    for _ in range(1000):
        chosen = np.flatnonzero(rng.random(n_nodes * (n_nodes - 1) // 2) < p)
        ends_i = np.searchsorted(row_starts, chosen, side="right") - 1
        ends_j = chosen - row_starts[ends_i] + ends_i + 1
        if _component_count(n_nodes, ends_i, ends_j) != 1:
            continue
        weights = rng.uniform(lo, hi, size=chosen.size)
        return NetworkGraph(n_nodes=n_nodes, edges=np.column_stack((ends_i, ends_j, weights)), alpha=alpha)
    raise GraphGenerationError(
        f"no connected sample in 1000 draws (n_nodes={n_nodes}, edge_probability={p})"
    )


def ingest_edge_list(path) -> NetworkGraph:
    """Parse an edge-list file into a NetworkGraph.

    Format: the first payload line is ``alpha <value>``; every further line is
    ``<i> <j> <b_ij>`` with 1-based node indices.  ``#`` starts a comment,
    blank lines are skipped.  The node count is the largest index seen, and
    indices must cover 1..N without gaps.

    Raises:
        EdgeListParseError: malformed content, with the offending line number.
        DisconnectedGraphError: well-formed but disconnected graph.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.readlines()

    alpha: float | None = None
    entries: list[tuple[int, int, int, float]] = []  # (line_no, i, j, b)
    for line_no, raw in enumerate(raw_lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        tokens = text.split()
        if alpha is None:
            if len(tokens) != 2 or tokens[0] != "alpha":
                raise EdgeListParseError(f"line {line_no}: expected header 'alpha <value>', got {text!r}")
            try:
                alpha = float(tokens[1])
            except ValueError:
                raise EdgeListParseError(f"line {line_no}: alpha value {tokens[1]!r} is not a number") from None
            if not np.isfinite(alpha) or alpha < 0:
                raise EdgeListParseError(f"line {line_no}: alpha must be finite and >= 0, got {alpha}")
            continue
        if len(tokens) != 3:
            raise EdgeListParseError(f"line {line_no}: expected '<i> <j> <b_ij>', got {text!r}")
        try:
            i, j = int(tokens[0]), int(tokens[1])
            b = float(tokens[2])
        except ValueError:
            raise EdgeListParseError(f"line {line_no}: could not parse {text!r} as '<int> <int> <float>'") from None
        if i < 1 or j < 1:
            raise EdgeListParseError(f"line {line_no}: node indices are 1-based, got ({i}, {j})")
        if i == j:
            raise EdgeListParseError(f"line {line_no}: self-loop at node {i}")
        if not np.isfinite(b) or b <= 0:
            raise EdgeListParseError(f"line {line_no}: susceptance must be positive, got {b}")
        entries.append((line_no, i, j, b))

    if alpha is None:
        raise EdgeListParseError("file has no 'alpha <value>' header line")
    if not entries:
        raise EdgeListParseError("file defines no edges")

    n_nodes = max(max(i, j) for _, i, j, _ in entries)
    present = set()
    seen_pairs: dict[tuple[int, int], int] = {}
    for line_no, i, j, _ in entries:
        key = (min(i, j), max(i, j))
        if key in seen_pairs:
            raise EdgeListParseError(
                f"line {line_no}: duplicate edge between nodes {i} and {j} (first seen on line {seen_pairs[key]})"
            )
        seen_pairs[key] = line_no
        present.update(key)
    missing = sorted(set(range(1, n_nodes + 1)) - present)
    if missing:
        raise EdgeListParseError(f"node indices are not contiguous: {missing} never appear (max index {n_nodes})")

    edges = tuple((i - 1, j - 1, b) for _, i, j, b in entries)
    return NetworkGraph(n_nodes=n_nodes, edges=edges, alpha=alpha)


def susceptance_laplacian(graph: NetworkGraph) -> Laplacian:
    """Susceptance Laplacian L_B of a graph, filled from its edge arrays."""
    lb = np.zeros((graph.n_nodes, graph.n_nodes))
    # each node pair appears at most once, so every entry is written once
    lb[graph.ends_i, graph.ends_j] = -graph.weights
    lb[graph.ends_j, graph.ends_i] = -graph.weights
    # diagonal set from the finished off-diagonal rows: row sums vanish
    np.fill_diagonal(lb, -lb.sum(axis=1))
    return Laplacian(matrix=lb, kind="susceptance")


def laplacians(graph: NetworkGraph, gamma: float) -> tuple[Laplacian, Laplacian, Laplacian]:
    """Susceptance, conductance, and communication Laplacians of a graph.

    The conductance and communication matrices are built by scaling the
    susceptance Laplacian by ``alpha`` and ``gamma``, so the proportionality
    is exact entrywise.  Callers that read only L_B use
    ``susceptance_laplacian``.
    """
    gamma = float(gamma)
    if not np.isfinite(gamma) or gamma < 0:
        raise ValidationError(f"gamma must be finite and >= 0, got {gamma!r}")
    l_b = susceptance_laplacian(graph)
    l_g = Laplacian(matrix=graph.alpha * l_b.matrix, kind="conductance")
    l_c = Laplacian(matrix=gamma * l_b.matrix, kind="communication")
    return l_b, l_g, l_c


def spectral_decomposition(laplacian: Laplacian) -> Spectrum:
    """Orthonormal eigendecomposition with the zero mode pinned.

    Eigenvalues are ascending; any eigenvalue within 1e-9 of the largest one
    in relative terms is clamped to exactly 0.0.  Exactly one zero must
    remain or the underlying graph is disconnected.  Eigenvector columns are
    sign-fixed so the decomposition is reproducible.

    Raises:
        DisconnectedGraphError: more than one zero eigenvalue.
        ValidationError: an eigenvalue is negative beyond tolerance.
    """
    w, u = np.linalg.eigh(laplacian.matrix)
    w = _pinned_zero_mode(w, laplacian.matrix)
    for col in range(u.shape[1]):
        nz = np.flatnonzero(np.abs(u[:, col]) > 1e-8)
        lead = nz[0] if nz.size else 0
        if u[lead, col] < 0:
            u[:, col] = -u[:, col]
    return Spectrum(eigenvalues=w, eigenvectors=u)


def laplacian_eigenvalues(laplacian: Laplacian) -> Spectrum:
    """Eigenvalue-only spectrum (``eigenvectors`` is None), for callers that
    read eigenvalues alone.

    The zero mode is clamped and checked exactly as in
    ``spectral_decomposition``, with the same errors; the eigenvalues come
    from ``np.linalg.eigvalsh`` and may differ from ``eigh``'s in the last
    bits.
    """
    return Spectrum(eigenvalues=_pinned_zero_mode(np.linalg.eigvalsh(laplacian.matrix), laplacian.matrix))


def _pinned_zero_mode(w: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Ascending Laplacian eigenvalues ``w`` with the zero mode clamped.

    Eigenvalues within 1e-9 of the largest in relative terms count as zero.
    When more than one does, the threshold cannot tell a split graph from a
    weak tie, so the component count of the matrix's off-diagonal pattern
    decides: a connected graph keeps every eigenvalue but the first, which
    is clamped, provided its second eigenvalue lies above the rounding
    floor n eps lambda_max of the symmetric eigensolvers.  Below that floor
    its sign and size are rounding noise, which differs between ``eigh``
    and ``eigvalsh``, so the graph is refused.
    """
    if w.size == 1:
        return np.zeros(1)
    scale = float(w[-1])
    if scale <= 0:
        raise DisconnectedGraphError("Laplacian is zero; graph has no edges")
    tol = _ZERO_EIG_RTOL * scale
    if np.any(w < -tol):
        raise ValidationError(f"matrix is not positive semidefinite (min eigenvalue {w[0]:.3e})")
    clamped = np.where(np.abs(w) < tol, 0.0, w)
    n_zero = int(np.count_nonzero(clamped == 0.0))
    if n_zero == 1:
        return clamped
    if n_zero > 1:
        # a Laplacian has one exact zero mode per component; its lines are
        # the negative entries
        rows, cols = np.nonzero(matrix < 0)
        n_zero = _component_count(w.size, rows, cols)
        if n_zero == 1:
            floor = w.size * np.finfo(float).eps * scale
            if not w[1] > floor:
                raise DisconnectedGraphError(
                    f"the graph is connected, but its second eigenvalue {w[1]:.3e} is not resolved above zero "
                    f"(rounding floor n eps lambda_max = {floor:.3e})"
                )
            w[0] = 0.0
            return w
    raise DisconnectedGraphError(
        f"Laplacian has {n_zero} zero modes; the graph splits into {n_zero} components"
    )
