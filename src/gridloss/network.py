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
    FloatRangeError,
    GraphGenerationError,
    ValidationError,
)

# relative depth below zero at which an eigenvalue shows a matrix not PSD
_ZERO_EIG_RTOL = 1e-9

# rows per pass of the row-blocked passes over a dense square matrix (the
# symmetry check here, and the Gramian's symmetrisation and residual)
_ROW_BLOCK = 64

# uniforms per call in the random-graph draw: the stream does not depend on
# how it is cut, so the edges of a seed stay the same
_DRAW_CHUNK = 2**16


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
        n_nodes = _count("n_nodes", self.n_nodes)
        alpha = _check_alpha(self.alpha)
        ends_i, ends_j, weights = _validated_edges(n_nodes, self.edges)
        for arr in (ends_i, ends_j, weights):
            arr.setflags(write=False)
        object.__setattr__(self, "n_nodes", n_nodes)
        object.__setattr__(self, "alpha", float(alpha))
        object.__setattr__(self, "ends_i", ends_i)
        object.__setattr__(self, "ends_j", ends_j)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "edges", tuple(zip(ends_i.tolist(), ends_j.tolist(), weights.tolist())))
        if _component_count(n_nodes, ends_i, ends_j) != 1:
            raise DisconnectedGraphError(f"graph with {n_nodes} nodes and {weights.size} edges is not connected")


def _check_alpha(alpha) -> float:
    """``alpha`` checked, with -0.0 read as 0.0; refused unless one number,
    finite and >= 0.  Each gain search makes thousands of these calls: a
    float passes by plain tests."""
    if not isinstance(alpha, float):
        alpha = _finite("alpha", alpha)
    if not 0.0 <= alpha < math.inf:
        raise ValidationError(f"alpha must be finite and >= 0, got {alpha!r}")
    return alpha + 0.0


def _finite(name: str, value) -> float:
    """``value`` as a float, -0.0 read as 0.0, refused by the argument ``name``
    unless it is one finite number: a bool, text, a list or an array of one
    or more dimensions is not."""
    try:  # numbers skip _numbers, which costs a microsecond
        if isinstance(value, (float, int)):
            number = None if isinstance(value, bool) else float(value)
        else:  # nor are numpy's bools and a 0-d array that holds text
            arr = _numbers(value)
            number = float(arr) if arr is not None and arr.ndim == 0 else None
    except OverflowError:  # an int past the floats
        number = None
    if number is None:
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(number):
        raise ValidationError(f"{name} must be finite, got {number!r}")
    return number + 0.0


# entries that numpy reads as numbers but are not: True is 1.0 and "1.5"
# is 1.5 to np.array(..., dtype=float), and None is NaN
_NON_NUMBER_TYPES = (bool, str, bytes, type(None))


def _numbers(values) -> np.ndarray | None:
    """``values`` as a float64 array, or None where an entry is not a real
    number.  A plain float64 ndarray is returned as it is; anything else
    is converted into a new array, with the bits ``np.array(values,
    dtype=float)`` gives.  Not a number: text, bytes, a bool, None, a
    complex number, and what numpy cannot read as a float (a ragged list,
    an int past the floats)."""
    if isinstance(values, np.ndarray) and values.dtype.kind != "O":
        if values.dtype.kind not in "fiu":  # bools, text, complex numbers, dates
            return None
        return values if type(values) is np.ndarray and values.dtype == np.float64 else np.array(values, dtype=float)
    try:  # a list keeps its entries as objects here, so a bool among numbers shows
        entries = np.array(values, dtype=object)
        if any(isinstance(entry, _NON_NUMBER_TYPES) or (isinstance(entry, (np.generic, np.ndarray))
                                                   and entry.dtype.kind not in "fiu") for entry in entries.flat):
            return None
        return entries.astype(float)
    except (TypeError, ValueError, OverflowError):
        return None


def _float_array(name: str, values) -> np.ndarray:
    """``values`` as ``_numbers`` reads them, refused by the argument ``name``
    where it finds an entry that is not a real number."""
    arr = _numbers(values)
    if arr is None:
        raise ValidationError(f"{name} must hold real numbers only (no text, bools or None), got {values!r}")
    return arr


def _finite_pair(name: str, pair) -> tuple[float, float]:
    """``pair``'s two entries read by ``_finite``, refused by ``name`` unless there are two."""
    try:
        low, high = pair
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a (low, high) pair, got {pair!r}") from None
    return _finite(name, low), _finite(name, high)


def _count(name: str, value, least: int = 1) -> int:
    """``value`` as an int, refused by ``name`` unless a Python or numpy integer (not a bool) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        rule = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise ValidationError(f"{name} must be {rule}, got {value!r}")
    return int(value)


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
    table = _numbers(rows)
    if table is not None and ((table.ndim == 2 and table.shape[1] == 3) or len(rows) == 0):
        return table.reshape(-1, 3), None
    # only on malformed input: find the first row that is not three numbers
    malformed = next(r for r, row in enumerate(rows) if not _is_number_triple(row))
    return np.array([_numbers(row) for row in rows[:malformed]], dtype=float).reshape(-1, 3), malformed


def _is_number_triple(row) -> bool:
    triple = _numbers(row)
    return triple is not None and triple.shape == (3,)


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
    """Symmetric PSD graph Laplacian: the susceptance Laplacian L_B of
    ``susceptance_laplacian``, or the conductance Laplacian L_G that a
    closed loop carries as its loss weight.

    Invariants checked at construction: square with finite entries,
    symmetric, row sums zero (within 1e-12 of the largest entry, but at
    least N subnormals),
    off-diagonal entries <= 0.  Together these make the matrix diagonally
    dominant with a nonnegative diagonal, hence positive semidefinite.  The
    stored array is read-only: a matrix that is already a read-only float64
    array is kept as handed in, anything else is copied (``_frozen``).
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = _frozen("matrix", self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError(f"Laplacian must be square, got shape {mat.shape}")
        top, bottom = (float(mat.max()), float(mat.min())) if mat.size else (0.0, 0.0)
        # both are NaN when any entry is, and one is infinite when an entry is
        if not (math.isfinite(top) and math.isfinite(bottom)):
            raise ValidationError("Laplacian entries must be finite")
        # at least the float grid's absolute floor, one subnormal per entry of
        # a row: an entry rounded to the subnormals (alpha * L_B at alpha =
        # 5e-324) errs by up to half of one, where the relative term is 0
        # (the underflow term of the rounding model, Higham 2002)
        tol = max(1e-12 * max(top, -bottom), mat.shape[0] * math.ulp(0.0))
        if not _symmetric_within(mat, tol):
            raise ValidationError("Laplacian must be symmetric")
        # a row of huge entries sums to +-inf, refused below, or to NaN (+inf
        # and -inf partial sums), which needs a positive off-diagonal entry
        # and is refused for that: neither warns first
        with np.errstate(over="ignore", invalid="ignore"):
            row_sums = mat.sum(axis=1)
        if np.any(np.abs(row_sums) > tol):
            raise ValidationError("Laplacian row sums must be zero")
        if np.count_nonzero(mat > tol) > np.count_nonzero(np.diagonal(mat) > tol):
            raise ValidationError("Laplacian off-diagonal entries must be <= 0")
        object.__setattr__(self, "matrix", mat)

    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[0]


def _frozen(name: str, values) -> np.ndarray:
    """Read-only float64 array of ``values``, refused by the argument
    ``name`` as ``_float_array`` refuses.  An array that is already
    read-only float64 is kept as it is; anything else is copied, so a
    caller's writeable array is never frozen."""
    arr = _float_array(name, values)
    if arr.flags.writeable:
        if arr is values:  # the caller's own array
            arr = arr.copy()
        arr.setflags(write=False)
    return arr


def _symmetric_within(mat: np.ndarray, atol: float) -> bool:
    """The verdict of ``np.allclose(mat, mat.T, rtol=0, atol=atol)`` for a
    square matrix, without its warning on the infinite or NaN atol that a
    non-finite matrix gives: each pair within atol with a finite partner, or
    equal.  It is taken ``_ROW_BLOCK`` rows at a time, so no temporary is
    larger than ``_ROW_BLOCK`` rows."""
    with np.errstate(invalid="ignore"):
        for lo in range(0, mat.shape[0], _ROW_BLOCK):
            rows, partners = mat[lo:lo + _ROW_BLOCK], mat[:, lo:lo + _ROW_BLOCK].T
            gap = rows - partners
            np.abs(gap, out=gap)
            if not np.all(((gap <= atol) & np.isfinite(partners)) | (rows == partners)):
                return False
    return True


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a susceptance Laplacian.

    ``eigenvalues`` are finite and ascending with exactly one zero, 0.0 in
    position 0; construction refuses any other vector.  The stored vector
    is a read-only copy.
    """

    eigenvalues: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(_float_array("eigenvalues", self.eigenvalues))
        if w.ndim != 1:
            raise ValidationError(f"eigenvalues must be a vector, got shape {w.shape}")
        if not np.isfinite(w).all():
            i = int(np.argmin(np.isfinite(w)))
            raise ValidationError(f"eigenvalues must be finite, got {float(w[i])!r} at index {i}")
        if np.any(np.diff(w) < 0):
            raise ValidationError("eigenvalues must be ascending")
        if w.size < 1:
            raise ValidationError("spectrum has no eigenvalues")
        if w[0] != 0.0 or (w.size > 1 and w[1] <= 0.0):
            raise ValidationError(
                f"exactly one zero eigenvalue expected first (got {np.count_nonzero(w == 0.0)} zeros); "
                "clamp via spectral_decomposition or laplacian_eigenvalues"
            )
        w.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)

    @property
    def n_nodes(self) -> int:
        return self.eigenvalues.size

    @property
    def nonzero(self) -> np.ndarray:
        """Eigenvalues 2..N (everything past the zero mode)."""
        return self.eigenvalues[1:]


def build_line_graph(n_nodes: int, susceptances, alpha: float) -> NetworkGraph:
    """Path graph on ``n_nodes`` buses with the given n-1 edge susceptances."""
    n_nodes = _count("n_nodes", n_nodes, least=2)
    b = _float_array("susceptances", susceptances)
    if b.ndim != 1:
        raise ValidationError(f"susceptances must be a vector of {n_nodes - 1} values, got {susceptances!r}")
    if len(b) != n_nodes - 1:
        raise ValidationError(f"line graph on {n_nodes} nodes needs {n_nodes - 1} susceptances, got {len(b)}")
    ends = np.arange(n_nodes - 1)
    return NetworkGraph(n_nodes=n_nodes, edges=np.column_stack((ends, ends + 1, b)), alpha=alpha)


def build_complete_graph(n_nodes: int, b, alpha: float) -> NetworkGraph:
    """Complete graph on ``n_nodes`` buses with uniform susceptance ``b``, or
    with one susceptance per node pair in ``itertools.combinations`` order.
    A scalar ``b`` that is not finite and > 0 is refused by name."""
    n_nodes = _count("n_nodes", n_nodes, least=2)
    ends_i, ends_j = np.triu_indices(n_nodes, 1)
    if not isinstance(b, (list, tuple)) and np.ndim(b) == 0:  # np.ndim raises on a ragged list
        b = _finite("b", b)
        if b <= 0:
            raise ValidationError(f"susceptance b must be positive, got {b!r}")
        weights = np.full(ends_i.size, b)
    else:
        weights = _float_array("b", b)
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
        ValidationError: an argument outside its rule above, named.
        GraphGenerationError: if 1000 topology draws all come out disconnected.
    """
    n_nodes = _count("n_nodes", n_nodes, least=2)
    p = _finite("edge_probability", edge_probability)
    if not (0.0 < p <= 1.0):
        raise ValidationError(f"edge_probability must be in (0, 1], got {p!r}")
    lo, hi = _validated_b_range(b_range)
    rng = _generator(seed)
    # the draw for a seed is fixed: pairs i < j in lexicographic order, one
    # uniform per pair, then one weight per chosen pair; pair k lies in the
    # row i whose first pair is k = i (2n - i - 1) / 2
    nodes = np.arange(n_nodes)
    row_starts = nodes * (2 * n_nodes - nodes - 1) // 2
    n_pairs = n_nodes * (n_nodes - 1) // 2
    for _ in range(1000):
        chosen = np.concatenate([
            np.flatnonzero(rng.random(min(_DRAW_CHUNK, n_pairs - start)) < p) + start
            for start in range(0, n_pairs, _DRAW_CHUNK)
        ])
        ends_i = np.searchsorted(row_starts, chosen, side="right") - 1
        ends_j = chosen - row_starts[ends_i] + ends_i + 1
        if _component_count(n_nodes, ends_i, ends_j) != 1:
            continue
        weights = rng.uniform(lo, hi, size=chosen.size)
        return NetworkGraph(n_nodes=n_nodes, edges=np.column_stack((ends_i, ends_j, weights)), alpha=alpha)
    raise GraphGenerationError(f"no connected sample in 1000 draws (n_nodes={n_nodes}, edge_probability={p})")


def _generator(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)`` for a seed ``_check_seed`` passes."""
    _check_seed(seed)
    return np.random.default_rng(seed)


def _check_seed(seed) -> None:
    """Refuse a seed that numpy's generators do not take: anything but a
    non-negative integer or a nonempty tuple of them is a ValidationError,
    not numpy's ValueError or TypeError."""
    parts = seed if isinstance(seed, tuple) else (seed,)
    if not parts or any(isinstance(p, bool) or not isinstance(p, (int, np.integer)) or p < 0 for p in parts):
        raise ValidationError(f"seed must be a non-negative integer or a tuple of them, got {seed!r}")


def _validated_b_range(b_range) -> tuple[float, float]:
    """``(low, high)`` of a uniform susceptance draw as floats, finite with 0 < low <= high."""
    lo, hi = _finite_pair("b_range", b_range)
    if not 0.0 < lo <= hi:
        raise ValidationError(f"b_range must satisfy 0 < low <= high, got {b_range!r}")
    return lo, hi


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
    # a byte that is not UTF-8 becomes U+FFFD: ignored in a comment, and
    # failing its own line's check anywhere else
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
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
            try:
                alpha = _check_alpha(alpha)
            except ValidationError as err:
                raise EdgeListParseError(f"line {line_no}: {err}") from None
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
    # diagonal set from the finished off-diagonal rows: row sums vanish; a
    # sum that overflows is left to the Laplacian's finiteness refusal
    with np.errstate(over="ignore", invalid="ignore"):
        np.fill_diagonal(lb, -lb.sum(axis=1))
    lb.setflags(write=False)  # frozen here, so the Laplacian keeps it uncopied
    return Laplacian(matrix=lb)


def spectral_decomposition(laplacian: Laplacian) -> tuple[Spectrum, np.ndarray]:
    """Orthonormal eigendecomposition with the zero mode pinned: the
    ``Spectrum`` and the read-only matrix U of its eigenvectors.

    Eigenvalues are ascending; the first is set to exactly 0.0 once the
    Laplacian's off-diagonal pattern shows one component (``_pinned_zero_mode``).
    Column i of U belongs to eigenvalue i, and column 0 is the normalised
    all-ones vector.  Each column's sign is fixed (its first entry above
    1e-8 in magnitude is positive), so the decomposition is reproducible.

    Raises:
        DisconnectedGraphError: several components, or lambda_2 unresolved.
        ValidationError: an eigenvalue is negative beyond tolerance.
        FloatRangeError: the largest eigenvalue is not finite: the
            spectrum of the finite entries overflows.
    """
    w, u = np.linalg.eigh(laplacian.matrix)
    w = _pinned_zero_mode(w, laplacian.matrix)
    lead = np.argmax(np.abs(u) > 1e-8, axis=0)  # row 0 where no entry is above 1e-8
    u[:, u[lead, np.arange(w.size)] < 0] *= -1.0
    u.setflags(write=False)
    return Spectrum(eigenvalues=w), u


def laplacian_eigenvalues(laplacian: Laplacian) -> Spectrum:
    """The spectrum alone, for callers that read eigenvalues only.

    The zero mode is decided and pinned exactly as in
    ``spectral_decomposition``, with the same errors; the eigenvalues come
    from ``np.linalg.eigvalsh`` and may differ from ``eigh``'s in the last
    bits.  It raises what ``spectral_decomposition`` raises, a
    FloatRangeError for an overflowing spectrum included.
    """
    return Spectrum(eigenvalues=_pinned_zero_mode(np.linalg.eigvalsh(laplacian.matrix), laplacian.matrix))


def _pinned_zero_mode(w: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Ascending Laplacian eigenvalues ``w`` with the zero mode set to 0.0.

    A Laplacian has one exact zero mode per component, so the component
    count of its off-diagonal pattern (the lines are its negative entries)
    decides, never the size of a computed eigenvalue.  A connected graph
    keeps every eigenvalue but the first, provided its second lies above
    the rounding floor n eps lambda_max of the symmetric eigensolvers;
    below it, lambda_2's sign and size are rounding noise that differs
    between ``eigh`` and ``eigvalsh``, so the graph is refused.  A largest
    eigenvalue that is not finite (finite entries whose spectrum overflows)
    is refused first, as the float range's fault and not the graph's.
    """
    if w.size == 1:
        return np.zeros(1)
    scale = float(w[-1])
    if not math.isfinite(scale):
        raise FloatRangeError(f"the Laplacian's spectrum leaves the float range: its largest eigenvalue is {scale!r}")
    if scale <= 0:
        raise DisconnectedGraphError("Laplacian is zero; graph has no edges")
    if w[0] < -_ZERO_EIG_RTOL * scale:
        raise ValidationError(f"matrix is not positive semidefinite (min eigenvalue {w[0]:.3e})")
    rows, cols = np.divmod(np.flatnonzero(matrix < 0), w.size)
    n_zero = _component_count(w.size, rows, cols)
    if n_zero > 1:
        raise DisconnectedGraphError(
            f"Laplacian has {n_zero} zero modes; the graph splits into {n_zero} components"
        )
    floor = w.size * np.finfo(float).eps * scale
    if not w[1] > floor:
        raise DisconnectedGraphError(
            f"the graph is connected, but its second eigenvalue {w[1]:.3e} is not resolved above zero "
            f"(rounding floor n eps lambda_max = {floor:.3e})"
        )
    w[0] = 0.0
    return w
