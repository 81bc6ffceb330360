"""The input contract at the public boundary: every numeric argument of a
name in ``gridloss.__all__`` refuses a value outside its rule with a
``ValidationError`` that names the argument, and emits no warning on the
way.  ``TABLE`` lists every such argument, and
``tests/test_imports.py`` checks that it misses none.

A single number (alpha, a ``ControllerParams`` or ``SimConfig`` field, a
scale, an eigenvalue) refuses a list and an array of one element as well
as NaN, infinity, -1, a bool (Python's or numpy's), text (a str, bytes or
a numpy text array), None, an int past the floats and a ragged list; numpy
scalars and 0-d arrays are numbers.  A count (a node or state count, a
stride) refuses 2.5, 3.0, [3], True and "3"; numpy integers are counts.  A
seed refuses a bool, alone or in a tuple.  A (low, high) pair, and a
number that may also be a vector, refuse their own sets.

Every row also meets the valid extremes 0, 2.5, 1e308 and 1e-320 (an
array row its valid value scaled by each, a pair row every pair of them):
each call returns or raises a ``GridlossError``, and warns nothing.  So
does each name that derives L_B from a graph, fed a 3-bus line whose
weights, or whose alpha, sit at each extreme.

A record argument (a graph, spectrum, parameter set, closed loop,
configuration or trajectory) refuses a value of any other type, None, an
array, a dict, a number or another record, with "<argument> must be a
<Type>, got <type>".  ``RECORDS`` lists every such argument, and
``tests/test_imports.py`` checks that it misses none.
"""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from gridloss import (
    ControllerParams,
    GridlossError,
    NetworkGraph,
    SimConfig,
    Spectrum,
    StateSpace,
    Trajectory,
    ValidationError,
    assemble_dapi,
    assemble_droop,
    build_complete_graph,
    build_line_graph,
    build_random_connected_graph,
    check_stability,
    empirical_h2,
    export_trajectory,
    gamma_star_vs_k,
    h2_dapi_closed_form,
    h2_droop_closed_form,
    h2_full_gramian,
    h2_modal,
    integrated_loss,
    laplacian_eigenvalues,
    loss_reduction_vs_k,
    modal_subsystems,
    norm_gamma_derivative,
    optimal_gamma,
    optimal_gamma_complete,
    optimal_gamma_vs_k,
    phase_perturbation,
    simulate,
    solve_lyapunov,
    spectral_decomposition,
    susceptance_laplacian,
    sweep,
)

BAD = [[1.0], np.array([1.0]), math.nan, math.inf, -1.0, True, np.True_,
       "1.0", b"1.0", np.array("1.0"), None, 10**400, [[1.0], [2.0, 3.0]]]
BAD_IDS = ["list", "array", "nan", "inf", "negative", "bool", "numpy-bool",
           "text", "bytes", "text-array", "none", "huge-int", "ragged"]

_S = Spectrum([0.0, 1.0, 3.0])
_P = ControllerParams(m=1.0, tau=1.0)
_T = Trajectory([0.0, 1.0], np.zeros((2, 6)), [0.0, 0.0])

ALPHA_TAKERS = {
    "NetworkGraph": lambda a: NetworkGraph(2, [(0, 1, 1.0)], a),
    "build_line_graph": lambda a: build_line_graph(3, [1.0, 1.0], a),
    "build_complete_graph": lambda a: build_complete_graph(3, 1.0, a),
    "build_random_connected_graph": lambda a: build_random_connected_graph(4, 1.0, (0.5, 1.5), a, seed=0),
    "h2_droop_closed_form": lambda a: h2_droop_closed_form(a, _P, 3),
    "h2_dapi_closed_form": lambda a: h2_dapi_closed_form(a, _P, _S),
    "h2_modal": lambda a: h2_modal(_S, _P, a, "dapi"),
    "modal_subsystems": lambda a: modal_subsystems(_S, _P, a, "droop"),
    "norm_gamma_derivative": lambda a: norm_gamma_derivative(1.0, _S, _P, a),
    "optimal_gamma": lambda a: optimal_gamma(_S, _P, a),
    "sweep": lambda a: sweep(_S, _P, a, "gamma", [1.0, 2.0]),
    "optimal_gamma_vs_k": lambda a: optimal_gamma_vs_k(_S, _P, a, [1.0, 2.0]),
    "gamma_star_vs_k": lambda a: gamma_star_vs_k(_S, _P, a, [1.0, 2.0]),
    "loss_reduction_vs_k": lambda a: loss_reduction_vs_k(_S, _P, a, [1.0, 2.0]),
}


def _params_with(field):
    return lambda value: ControllerParams(**{"m": 1.0, "tau": 1.0, field: value})


def _config_with(field):
    return lambda value: SimConfig(**{"dt": 0.01, "horizon": 10.0, field: value})


# (the field a refusal names, the entry point fed the value): single numbers
CASES = {
    **{f"{name}-alpha": ("alpha", call) for name, call in ALPHA_TAKERS.items()},
    **{f"ControllerParams-{field}": (field, _params_with(field)) for field in ("m", "tau", "k", "gamma")},
    **{f"SimConfig-{field}": (field, _config_with(field))
       for field in ("dt", "horizon", "burn_in", "noise_intensity")},
    "phase_perturbation-scale": ("scale", lambda v: phase_perturbation(3, 6, v, 0)),
    "optimal_gamma_complete-b": ("b", lambda v: optimal_gamma_complete(5, v, _P)),
    "build_random_connected_graph-edge_probability":
        ("edge_probability", lambda v: build_random_connected_graph(4, v, (0.5, 1.5), 1.0, seed=0)),
}

BAD_COUNTS = [2.5, 3.0, [3], True, "3"]
BAD_COUNT_IDS = ["fraction", "float", "list", "bool", "text"]

# counts, each fed to its entry point with the other arguments valid; a file
# is written, if at all, in the test's own directory
COUNTS = {
    "NetworkGraph-n_nodes": ("n_nodes", lambda v: NetworkGraph(v, [(0, 1, 1.0)], 1.0)),
    "build_line_graph-n_nodes": ("n_nodes", lambda v: build_line_graph(v, [1.0, 1.0], 1.0)),
    "build_complete_graph-n_nodes": ("n_nodes", lambda v: build_complete_graph(v, 1.0, 1.0)),
    "build_random_connected_graph-n_nodes":
        ("n_nodes", lambda v: build_random_connected_graph(v, 1.0, (0.5, 1.5), 1.0, seed=0)),
    "h2_droop_closed_form-n_nodes": ("n_nodes", lambda v: h2_droop_closed_form(1.0, _P, v)),
    "optimal_gamma_complete-n_nodes": ("n_nodes", lambda v: optimal_gamma_complete(v, 1.0, _P)),
    "phase_perturbation-n_nodes": ("n_nodes", lambda v: phase_perturbation(v, 6, 1.0, 0)),
    "phase_perturbation-n_states": ("n_states", lambda v: phase_perturbation(1, v, 1.0, 0)),
    "export_trajectory-n_nodes": ("n_nodes", lambda v: export_trajectory(_T, v, "out.csv")),
    "export_trajectory-stride": ("stride", lambda v: export_trajectory(_T, 3, "out.csv", v)),
}

# the entry points that take a seed, which is not a number of TABLE's kind
SEED_TAKERS = {
    "SimConfig": lambda s: SimConfig(dt=0.01, horizon=1.0, seed=s),
    "phase_perturbation": lambda s: phase_perturbation(3, 6, 1.0, s),
    "build_random_connected_graph": lambda s: build_random_connected_graph(4, 1.0, (0.5, 1.5), 1.0, seed=s),
}

_SCALARS_ONLY = {"nan": math.nan, "inf": math.inf, "negative": -1.0}
# one value that numpy would read as a number, though it is none
_NOT_A_NUMBER = {"text": "1.0", "bytes": b"1.0", "bool": True, "numpy-bool": np.True_, "none": None,
                 "object-text": np.array("1.0", dtype=object)}
_BAD_PAIRS = {"scalar": 1.0, "single": [0.5], "list": ([0.5], 1.5), "array": (np.array([0.5]), 1.5),
              "nan": (math.nan, 1.5), "inf": (0.5, math.inf), "negative": (-1.0, 1.5)}

# arguments of their own shape: (the field, the entry point, its bad values
# by id); b and gamma here take a vector as well as one number
SHAPED = {
    "build_complete_graph-b": ("b", lambda v: build_complete_graph(3, v, 1.0), {**_SCALARS_ONLY, **_NOT_A_NUMBER}),
    "norm_gamma_derivative-gamma": ("gamma", lambda v: norm_gamma_derivative(v, _S, _P, 1.0),
                                    {**_SCALARS_ONLY, **_NOT_A_NUMBER, "huge": 1e308}),
    "build_random_connected_graph-b_range":
        ("b_range", lambda v: build_random_connected_graph(4, 1.0, v, 1.0, seed=0), _BAD_PAIRS),
}

_G1 = NetworkGraph(1, (), 1.0)

# vector and matrix arguments: (the field a refusal begins with, the entry
# point, a valid value); each bad value of ARRAY_BAD is made from the valid
# one.  An edge list's refusal names the row, as "edge (...)"
ARRAYS = {
    "Spectrum-eigenvalues": ("eigenvalues", Spectrum, [0.0, 1.0, 3.0]),
    "NetworkGraph-edges": ("edge", lambda v: NetworkGraph(2, v, 1.0), [[0.0, 1.0, 1.0]]),
    "build_line_graph-susceptances": ("susceptances", lambda v: build_line_graph(3, v, 1.0), [1.0, 1.0]),
    "build_complete_graph-b": ("b", lambda v: build_complete_graph(3, v, 1.0), [1.0, 1.0, 1.0]),
    "StateSpace-a": ("a", lambda v: StateSpace(v, [[0.0], [1.0]], _G1), [[0.0, 1.0], [-1.0, -1.0]]),
    "StateSpace-b": ("b", lambda v: StateSpace([[0.0, 1.0], [-1.0, -1.0]], v, _G1), [[0.0], [1.0]]),
    "solve_lyapunov-a": ("a", lambda v: solve_lyapunov(v, [[1.0]]), [[-1.0]]),
    "solve_lyapunov-q": ("q", lambda v: solve_lyapunov([[-1.0]], v), [[1.0]]),
    "norm_gamma_derivative-gamma": ("gamma", lambda v: norm_gamma_derivative(v, _S, _P, 1.0), [0.5, 1.0]),
    "sweep-grid": ("grid", lambda v: sweep(_S, _P, 1.0, "gamma", v), [0.5, 1.0]),
    **{f"{name}-k_grid": ("k_grid", lambda v, curve=curve: curve(_S, _P, 1.0, v), [0.5, 1.0])
       for name, curve in (("optimal_gamma_vs_k", optimal_gamma_vs_k), ("gamma_star_vs_k", gamma_star_vs_k),
                           ("loss_reduction_vs_k", loss_reduction_vs_k))},
    "SimConfig-initial_state": ("initial_state", lambda v: SimConfig(dt=0.01, horizon=10.0, initial_state=v), [0.0, 0.0]),
    "Trajectory-times": ("times", lambda v: Trajectory(v, np.zeros((2, 6)), [0.0, 0.0]), [0.0, 1.0]),
    "Trajectory-states": ("states", lambda v: Trajectory([0.0, 1.0], v, [0.0, 0.0]), np.zeros((2, 6)).tolist()),
    "Trajectory-instantaneous_loss":
        ("instantaneous_loss", lambda v: Trajectory([0.0, 1.0], np.zeros((2, 6)), v), [0.0, 0.0]),
}


def _with_last(valid, entry):
    values = np.array(valid, dtype=object)
    values.flat[-1] = entry
    return values


# bad values made from a valid one of the same shape: text and bools in a
# list and in an array, one of them among numbers, None, complex numbers,
# and a ragged list
ARRAY_BAD = {
    "text": lambda v: np.array(v).astype(str).tolist(),
    "bytes": lambda v: np.array(v).astype(bytes).tolist(),
    "text-array": lambda v: np.array(v).astype(str),
    "bool": lambda v: np.array(v).astype(bool).tolist(),
    "bool-array": lambda v: np.array(v).astype(bool),
    "bool-among-numbers": lambda v: _with_last(v, True).tolist(),
    "object-text": lambda v: _with_last(v, "1.0"),
    "object-numpy-bool": lambda v: _with_last(v, np.True_),
    "none": lambda v: _with_last(v, None).tolist(),
    "complex": lambda v: np.array(v, dtype=complex),
    "ragged": lambda v: [[1.0], [2.0, 3.0]],
}

# every numeric argument of the public API, by "<name>-<argument>"; b and
# gamma, which may be one number or a vector, have a row in SHAPED and ARRAYS
TABLE = {*CASES, *COUNTS, *SHAPED, *ARRAYS}


def _refused_by_name(field, call, value) -> str:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as err:
            call(value)
    assert re.search(rf"\b{field}\b", str(err.value)), str(err.value)
    return str(err.value)


@pytest.mark.parametrize("value", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("case", CASES)
def test_a_bad_number_is_refused_by_name_without_a_warning(case, value):
    _refused_by_name(*CASES[case], value)


@pytest.mark.parametrize("value", BAD_COUNTS, ids=BAD_COUNT_IDS)
@pytest.mark.parametrize("case", COUNTS)
def test_a_bad_count_is_refused_by_name_without_a_warning(case, value, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _refused_by_name(*COUNTS[case], value)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [True, (1, True)], ids=["bool", "bool-in-tuple"])
@pytest.mark.parametrize("case", SEED_TAKERS)
def test_a_bool_seed_is_refused_by_name_without_a_warning(case, value):
    _refused_by_name("seed", SEED_TAKERS[case], value)


@pytest.mark.parametrize(("case", "value"), [
    pytest.param(case, value, id=f"{case}-{value_id}")
    for case, (_, _, values) in SHAPED.items() for value_id, value in values.items()
])
def test_a_bad_shaped_argument_is_refused_by_name_without_a_warning(case, value):
    field, call, _ = SHAPED[case]
    _refused_by_name(field, call, value)


@pytest.mark.parametrize("value", [np.float64(0.5), np.array(0.5)], ids=["numpy-scalar", "0-d-array"])
def test_a_numpy_scalar_or_0d_array_is_a_number(value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert optimal_gamma(_S, _P, value) == optimal_gamma(_S, _P, 0.5)
        assert ControllerParams(m=value, tau=value, k=value, gamma=value) == ControllerParams(0.5, 0.5, 0.5, 0.5)
        assert SimConfig(dt=value / 100, horizon=value) == SimConfig(dt=0.005, horizon=0.5)


def test_a_numpy_integer_is_a_count(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert NetworkGraph(np.int64(2), [(0, 1, 1.0)], 1.0) == NetworkGraph(2, [(0, 1, 1.0)], 1.0)
        assert np.array_equal(phase_perturbation(np.int64(3), np.int32(6), 0.5, 0), phase_perturbation(3, 6, 0.5, 0))
        export_trajectory(_T, np.int64(3), tmp_path / "t.csv", stride=np.int64(1))
        export_trajectory(_T, 3, tmp_path / "u.csv")
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "u.csv").read_bytes()


@pytest.mark.parametrize("bad", ARRAY_BAD)
@pytest.mark.parametrize("case", ARRAYS)
def test_a_bad_array_is_refused_by_name_without_a_warning(case, bad):
    field, call, valid = ARRAYS[case]
    call(valid)
    message = _refused_by_name(field, call, ARRAY_BAD[bad](valid))
    assert message.startswith(f"{field} "), message


@pytest.mark.parametrize("values", [
    [0.0, 1.5, 3.0], (0, 1.5, 3), np.array([0.0, 1.5, 3.0], dtype=object), [0, Fraction(3, 2), np.float32(3.0)],
    np.array([0.0, 1.5, 3.0], dtype=np.float32), np.array([0.0, 1.5, 3.0]),
], ids=["list", "tuple-with-ints", "object-array", "mixed-numbers", "float32-array", "float64-array"])
def test_a_vector_of_numbers_keeps_its_bytes(values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Spectrum(values).eigenvalues.tobytes() == np.array([0.0, 1.5, 3.0]).tobytes()


EXTREMES = {"zero": 0.0, "2.5": 2.5, "1e308": 1e308, "1e-320": 1e-320}


def _extreme_calls():
    for case, (_, call) in CASES.items():
        yield from (pytest.param(call, v, id=f"{case}-{i}") for i, v in EXTREMES.items())
    for case, (_, call, bad) in SHAPED.items():
        yield from (pytest.param(call, v, id=f"{case}-{i}") for i, v in EXTREMES.items())
        if bad is _BAD_PAIRS:
            yield from (pytest.param(call, (v, w), id=f"{case}-({i}, {j})")
                        for i, v in EXTREMES.items() for j, w in EXTREMES.items())
    for case, (_, call, valid) in ARRAYS.items():
        for i, v in EXTREMES.items():
            with np.errstate(over="ignore"):  # 3 x 1e308 is inf, which the row refuses
                scaled = np.array(valid) * v
            yield pytest.param(call, scaled, id=f"{case}-x{i}")


@pytest.mark.parametrize(("call", "value"), _extreme_calls())
def test_a_valid_extreme_returns_or_is_refused_without_a_warning(call, value, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a file is written, if at all, in the test's own directory
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(value)
        except GridlossError:
            pass


def _loss_weight_and_output(assemble):
    def read(graph):
        ss = assemble(graph, _P)
        return ss.l_g, ss.c
    return read


# the public names that take a graph, and what they derive from it: L_B, its
# spectrum, and the closed loop's loss weight alpha L_B and output C
GRAPH_TAKERS = {
    "susceptance_laplacian": susceptance_laplacian,
    "laplacian_eigenvalues": laplacian_eigenvalues,
    "spectral_decomposition": spectral_decomposition,
    "assemble_droop": _loss_weight_and_output(assemble_droop),
    "assemble_dapi": _loss_weight_and_output(assemble_dapi),
}


def _graph_extreme_calls():
    # both lines of a 3-bus line at each extreme, so its middle bus sums two;
    # alpha, which only the closed loop reads, at each extreme for the assemblers
    for case, take in GRAPH_TAKERS.items():
        yield from (pytest.param(take, lambda v: build_line_graph(3, [v, v], 1.0), v, id=f"{case}-weights-{i}")
                    for i, v in EXTREMES.items())
    for case in ("assemble_droop", "assemble_dapi"):
        yield from (pytest.param(GRAPH_TAKERS[case], lambda v: build_line_graph(3, [1.0, 1.0], v), v,
                                 id=f"{case}-alpha-{i}") for i, v in EXTREMES.items())


@pytest.mark.parametrize(("take", "graph_with", "value"), _graph_extreme_calls())
def test_a_graph_at_a_valid_extreme_returns_or_is_refused_without_a_warning(take, graph_with, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            take(graph_with(value))
        except GridlossError:
            pass


_G3 = build_line_graph(3, [1.0, 1.0], 1.0)
_C = SimConfig(dt=0.01, horizon=10.0)

# the public names that take a spectrum and controller parameters, called
# with the two
_SPECTRUM_TAKERS = {
    "h2_dapi_closed_form": lambda s, p: h2_dapi_closed_form(1.0, p, s),
    "h2_modal": lambda s, p: h2_modal(s, p, 1.0, "dapi"),
    "modal_subsystems": lambda s, p: modal_subsystems(s, p, 1.0, "dapi"),
    "norm_gamma_derivative": lambda s, p: norm_gamma_derivative(1.0, s, p, 1.0),
    "optimal_gamma": lambda s, p: optimal_gamma(s, p, 1.0),
    "sweep": lambda s, p: sweep(s, p, 1.0, "gamma", [1.0, 2.0]),
    "optimal_gamma_vs_k": lambda s, p: optimal_gamma_vs_k(s, p, 1.0, [1.0, 2.0]),
    "gamma_star_vs_k": lambda s, p: gamma_star_vs_k(s, p, 1.0, [1.0, 2.0]),
    "loss_reduction_vs_k": lambda s, p: loss_reduction_vs_k(s, p, 1.0, [1.0, 2.0]),
}

# every record argument of the public API: (the argument, its type, the
# entry point fed the value, with the other arguments valid)
RECORDS = {
    **{f"{name}-spectrum": ("spectrum", Spectrum, lambda v, take=take: take(v, _P))
       for name, take in _SPECTRUM_TAKERS.items()},
    **{f"{name}-params": ("params", ControllerParams, lambda v, take=take: take(_S, v))
       for name, take in _SPECTRUM_TAKERS.items()},
    "h2_droop_closed_form-params": ("params", ControllerParams, lambda v: h2_droop_closed_form(1.0, v, 3)),
    "optimal_gamma_complete-params": ("params", ControllerParams, lambda v: optimal_gamma_complete(5, 1.0, v)),
    "check_stability-params": ("params", ControllerParams, lambda v: check_stability(v, "dapi")),
    **{f"{name}-graph": ("graph", NetworkGraph, take)
       for name, take in (("susceptance_laplacian", susceptance_laplacian),
                          ("laplacian_eigenvalues", laplacian_eigenvalues),
                          ("spectral_decomposition", spectral_decomposition),
                          ("assemble_droop", lambda v: assemble_droop(v, _P)),
                          ("assemble_dapi", lambda v: assemble_dapi(v, _P)))},
    "StateSpace-graph": ("graph", NetworkGraph, lambda v: StateSpace([[0.0, 1.0], [-1.0, -1.0]], [[0.0], [1.0]], v)),
    "assemble_droop-params": ("params", ControllerParams, lambda v: assemble_droop(_G3, v)),
    "assemble_dapi-params": ("params", ControllerParams, lambda v: assemble_dapi(_G3, v)),
    "h2_full_gramian-ss": ("ss", StateSpace, h2_full_gramian),
    "simulate-ss": ("ss", StateSpace, lambda v: simulate(v, _C)),
    "simulate-config": ("config", SimConfig, lambda v: simulate(assemble_droop(_G3, _P), v)),
    "empirical_h2-trajectory": ("trajectory", Trajectory, lambda v: empirical_h2(v, _C)),
    "empirical_h2-config": ("config", SimConfig, lambda v: empirical_h2(_T, v)),
    "integrated_loss-trajectory": ("trajectory", Trajectory, integrated_loss),
    "export_trajectory-trajectory": ("trajectory", Trajectory, lambda v: export_trajectory(v, 3, "out.csv")),
}

# values of another type; "record" is a record of another type than the
# argument's, a Spectrum where that is not wanted and a ControllerParams
# where it is
RECORD_BAD = {
    "none": lambda cls: None,
    "array": lambda cls: np.array([0.0, 1.0, 3.0]),
    "dict": lambda cls: {"m": 1.0, "tau": 1.0},
    "number": lambda cls: 1.0,
    "record": lambda cls: _P if cls is Spectrum else _S,
}


@pytest.mark.parametrize("bad", RECORD_BAD)
@pytest.mark.parametrize("case", RECORDS)
def test_a_record_of_another_type_is_refused_by_name_without_a_warning(case, bad, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a file is written, if at all, in the test's own directory
    field, cls, call = RECORDS[case]
    value = RECORD_BAD[bad](cls)
    assert _refused_by_name(field, call, value) == f"{field} must be a {cls.__name__}, got {type(value).__name__}"
    assert list(tmp_path.iterdir()) == []
