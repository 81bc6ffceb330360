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

import itertools
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
        edges: iterable of ``(i, j, b_ij)`` with 0-based endpoints and
            susceptance ``b_ij > 0``.  At most one edge per node pair, no
            self-loops.
        alpha: uniform conductance-to-susceptance ratio, >= 0.

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
        normalized = []
        seen: set[tuple[int, int]] = set()
        for edge in self.edges:
            try:
                i, j, b = edge
            except (TypeError, ValueError):
                raise ValidationError(f"edge {edge!r} is not an (i, j, b) triple") from None
            i, j = int(i), int(j)
            if i == j:
                raise ValidationError(f"self-loop at node {i} is not allowed")
            if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise ValidationError(f"edge ({i}, {j}) has an endpoint outside 0..{self.n_nodes - 1}")
            b = float(b)
            if not np.isfinite(b) or b <= 0:
                raise ValidationError(f"edge ({i}, {j}) has non-positive weight {b!r}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValidationError(f"duplicate edge between nodes {key[0]} and {key[1]}")
            seen.add(key)
            normalized.append((key[0], key[1], b))
        object.__setattr__(self, "n_nodes", int(self.n_nodes))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "edges", tuple(normalized))
        if not _is_connected(self.n_nodes, ((i, j) for i, j, _ in self.edges)):
            raise DisconnectedGraphError(
                f"graph with {self.n_nodes} nodes and {len(self.edges)} edges is not connected"
            )


@dataclass(frozen=True)
class Laplacian:
    """Symmetric PSD graph Laplacian with a kind tag.

    Invariants checked at construction: square and symmetric, row sums zero
    (within 1e-12 of the largest entry), off-diagonal entries <= 0.  Together
    these make the matrix diagonally dominant with a nonnegative diagonal,
    hence positive semidefinite.  The stored array is read-only.
    """

    matrix: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in _LAPLACIAN_KINDS:
            raise ValidationError(f"kind must be one of {_LAPLACIAN_KINDS}, got {self.kind!r}")
        mat = np.array(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError(f"Laplacian must be square, got shape {mat.shape}")
        # max and min are both NaN when any entry is
        scale = max(float(mat.max()), -float(mat.min())) if mat.size else 0.0
        tol = 1e-12 * scale
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
    """The verdict of ``np.allclose(mat, mat.T, rtol=0, atol=tol)``.

    An infinite entry makes ``tol`` infinite, and then each mirrored pair
    must be finite or equal.  A NaN entry fails: its gap is NaN.
    """
    if math.isinf(tol):
        return bool(np.all((np.isfinite(mat) & np.isfinite(mat.T)) | (mat == mat.T)))
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
    b = [float(x) for x in susceptances]
    if len(b) != n_nodes - 1:
        raise ValidationError(f"line graph on {n_nodes} nodes needs {n_nodes - 1} susceptances, got {len(b)}")
    edges = tuple((i, i + 1, b[i]) for i in range(n_nodes - 1))
    return NetworkGraph(n_nodes=n_nodes, edges=edges, alpha=alpha)


def build_complete_graph(n_nodes: int, b, alpha: float) -> NetworkGraph:
    """Complete graph on ``n_nodes`` buses with uniform susceptance ``b``, or
    with one susceptance per node pair in ``itertools.combinations`` order."""
    if n_nodes < 2:
        raise ValidationError(f"complete graph needs at least 2 nodes, got {n_nodes}")
    pairs = list(itertools.combinations(range(n_nodes), 2))
    if np.ndim(b) == 0:
        b = float(b)
        if not np.isfinite(b) or b <= 0:
            raise ValidationError(f"susceptance must be positive, got {b!r}")
        weights = [b] * len(pairs)
    else:
        weights = [float(x) for x in b]
        if len(weights) != len(pairs):
            raise ValidationError(
                f"complete graph on {n_nodes} nodes needs {len(pairs)} susceptances, got {len(weights)}"
            )
    edges = tuple((i, j, w) for (i, j), w in zip(pairs, weights))
    return NetworkGraph(n_nodes=n_nodes, edges=edges, alpha=alpha)


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
    # uniform per pair, then one weight per chosen pair
    rows, cols = np.triu_indices(n_nodes, 1)
    for _ in range(1000):
        mask = rng.random(rows.size) < p
        ends_i, ends_j = rows[mask].tolist(), cols[mask].tolist()
        if not _is_connected(n_nodes, zip(ends_i, ends_j)):
            continue
        weights = rng.uniform(lo, hi, size=len(ends_i)).tolist()
        return NetworkGraph(n_nodes=n_nodes, edges=tuple(zip(ends_i, ends_j, weights)), alpha=alpha)
    raise GraphGenerationError(
        f"no connected sample in 1000 draws (n_nodes={n_nodes}, edge_probability={p})"
    )


def _is_connected(n_nodes: int, pairs) -> bool:
    """Whether the undirected edges ``pairs`` of (i, j) reach every node from node 0."""
    neighbors: list[list[int]] = [[] for _ in range(n_nodes)]
    for i, j in pairs:
        neighbors[i].append(j)
        neighbors[j].append(i)
    reached = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for nbr in neighbors[node]:
            if nbr not in reached:
                reached.add(nbr)
                frontier.append(nbr)
    return len(reached) == n_nodes


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


def laplacians(graph: NetworkGraph, gamma: float) -> tuple[Laplacian, Laplacian, Laplacian]:
    """Susceptance, conductance, and communication Laplacians of a graph.

    The conductance and communication matrices are built by scaling the
    susceptance Laplacian by ``alpha`` and ``gamma``, so the proportionality
    is exact entrywise.
    """
    gamma = float(gamma)
    if not np.isfinite(gamma) or gamma < 0:
        raise ValidationError(f"gamma must be finite and >= 0, got {gamma!r}")
    edges = np.array(graph.edges, dtype=float).reshape(-1, 3)
    ends_i, ends_j = edges[:, 0].astype(np.intp), edges[:, 1].astype(np.intp)
    lb = np.zeros((graph.n_nodes, graph.n_nodes))
    # each node pair appears at most once, so every entry is written once
    lb[ends_i, ends_j] = -edges[:, 2]
    lb[ends_j, ends_i] = -edges[:, 2]
    # diagonal set from the finished off-diagonal rows: row sums vanish
    np.fill_diagonal(lb, -lb.sum(axis=1))
    l_b = Laplacian(matrix=lb, kind="susceptance")
    l_g = Laplacian(matrix=graph.alpha * lb, kind="conductance")
    l_c = Laplacian(matrix=gamma * lb, kind="communication")
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
    w = _pinned_zero_mode(w)
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
    return Spectrum(eigenvalues=_pinned_zero_mode(np.linalg.eigvalsh(laplacian.matrix)))


def _pinned_zero_mode(w: np.ndarray) -> np.ndarray:
    # ascending eigenvalues of a Laplacian: check PSD, clamp the zero mode
    # and require exactly one
    if w.size == 1:
        return np.zeros(1)
    scale = float(w[-1])
    if scale <= 0:
        raise DisconnectedGraphError("Laplacian is zero; graph has no edges")
    tol = _ZERO_EIG_RTOL * scale
    if np.any(w < -tol):
        raise ValidationError(f"matrix is not positive semidefinite (min eigenvalue {w[0]:.3e})")
    w = np.where(np.abs(w) < tol, 0.0, w)
    n_zero = int(np.count_nonzero(w == 0.0))
    if n_zero != 1:
        raise DisconnectedGraphError(
            f"Laplacian has {n_zero} zero modes; the graph splits into {n_zero} components"
        )
    return w
