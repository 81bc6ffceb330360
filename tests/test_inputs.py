"""The input contract at the public boundary: every public entry point that
takes alpha, a ``ControllerParams`` field or a ``SimConfig`` field refuses
a value that is not one finite number in range with a ``ValidationError``
that names it, and emits no warning on the way.

A list and an array of one element are refused as well as NaN, infinity
and -1; numpy scalars and 0-d arrays are numbers.
"""

import math
import re
import warnings

import numpy as np
import pytest

from gridloss import (
    ControllerParams,
    NetworkGraph,
    SimConfig,
    Spectrum,
    ValidationError,
    build_complete_graph,
    build_line_graph,
    build_random_connected_graph,
    gamma_star_vs_k,
    h2_dapi_closed_form,
    h2_droop_closed_form,
    h2_modal,
    loss_reduction_vs_k,
    modal_subsystems,
    norm_gamma_derivative,
    optimal_gamma,
    optimal_gamma_vs_k,
    sweep,
)

BAD = [[1.0], np.array([1.0]), math.nan, math.inf, -1.0]
BAD_IDS = ["list", "array", "nan", "inf", "negative"]

_S = Spectrum([0.0, 1.0, 3.0])
_P = ControllerParams(m=1.0, tau=1.0)

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


# (the field a refusal names, the entry point fed the value)
CASES = {
    **{f"{name}-alpha": ("alpha", call) for name, call in ALPHA_TAKERS.items()},
    **{f"ControllerParams-{field}": (field, _params_with(field)) for field in ("m", "tau", "k", "gamma")},
    **{f"SimConfig-{field}": (field, _config_with(field))
       for field in ("dt", "horizon", "burn_in", "noise_intensity")},
}


@pytest.mark.parametrize("value", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("case", CASES)
def test_a_bad_number_is_refused_by_name_without_a_warning(case, value):
    field, call = CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as err:
            call(value)
    assert re.search(rf"\b{field}\b", str(err.value)), str(err.value)


@pytest.mark.parametrize("value", [np.float64(0.5), np.array(0.5)], ids=["numpy-scalar", "0-d-array"])
def test_a_numpy_scalar_or_0d_array_is_a_number(value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert optimal_gamma(_S, _P, value) == optimal_gamma(_S, _P, 0.5)
        assert ControllerParams(m=value, tau=value, k=value, gamma=value) == ControllerParams(0.5, 0.5, 0.5, 0.5)
        assert SimConfig(dt=value / 100, horizon=value) == SimConfig(dt=0.005, horizon=0.5)
