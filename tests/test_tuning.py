"""Gain optimization and sweep tests."""

import dataclasses
import hashlib
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gridloss.network
import gridloss.tuning

from gridloss.dynamics import ControllerParams
from gridloss.errors import FloatRangeError, GridlossError, TuningError, ValidationError
from gridloss.h2 import h2_dapi_closed_form, h2_droop_closed_form
from gridloss.network import (
    Spectrum,
    build_complete_graph,
    build_line_graph,
    build_random_connected_graph,
    laplacian_eigenvalues,
    spectral_decomposition,
)
from gridloss.tuning import (
    gamma_star_vs_k,
    loss_reduction_vs_k,
    norm_gamma_derivative,
    optimal_gamma,
    optimal_gamma_complete,
    optimal_gamma_vs_k,
    sweep,
)


def _spectrum_of(graph):
    return spectral_decomposition(graph)[0]


def _spectrum_with(nonzero):
    """The eigenvalue-only spectrum whose nonzero eigenvalues are ``nonzero``."""
    return Spectrum(np.concatenate(([0.0], nonzero)))


UNIT = ControllerParams(m=1.0, tau=1.0, k=1.0)
_FLOAT_MAX = Fraction(np.finfo(float).max)


class TestDerivative:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(17)
        for trial in range(15):
            n = int(rng.integers(2, 20))
            g = build_random_connected_graph(n, 0.5, (0.5, 1.5), alpha=1.0, seed=trial)
            spec = _spectrum_of(g)
            m, k, tau = rng.uniform(0.1, 5, 3)
            for gamma in (0.01, 0.1, 1.0, 5.0, 20.0):
                step = 1e-6 * (1.0 + gamma)

                def total(gv):
                    p = ControllerParams(m=m, tau=tau, k=k, gamma=gv)
                    return h2_dapi_closed_form(1.0, p, spec).squared_norm

                fd = (total(gamma + step) - total(gamma - step)) / (2.0 * step)
                an = norm_gamma_derivative(gamma, spec, ControllerParams(m=m, tau=tau, k=k), 1.0)
                assert an == pytest.approx(fd, rel=1e-5, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        spec = _spectrum_with([0.5, 2.0, 7.0])
        gammas = np.array([0.0, 0.3, 2.0])
        vec = norm_gamma_derivative(gammas, spec, UNIT, 1.0)
        for g, v in zip(gammas, vec):
            assert v == norm_gamma_derivative(float(g), spec, UNIT, 1.0)

    @settings(max_examples=200)
    @given(
        lams=st.lists(st.floats(1e-4, 1e4), min_size=1, max_size=60),
        gammas=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=300),
        m=st.floats(1e-3, 1e3),
        k=st.floats(1e-3, 1e3),
        tau=st.floats(0.0, 1e3),
        alpha=st.floats(0.0, 1e3),
    )
    @example(lams=[0.5, 3.0, 40.0], gammas=[0.0, 0.25, 7.0], m=1.5, k=0.7, tau=0.0, alpha=1.0)
    @example(lams=[1e-4, 2.0], gammas=[0.0], m=3.0, k=2.0, tau=1.0, alpha=0.3)
    @example(lams=[2.0], gammas=[0.0, 1.0], m=1.0, k=1.0, tau=0.0, alpha=0.0)
    # many rows against few or many modes (300 x 60, 2731 x 3, 8193 x 1):
    # each row's sum must not depend on how many rows the broadcast has
    @example(lams=np.linspace(0.01, 50.0, 60).tolist(), gammas=np.geomspace(1e-3, 1e3, 300).tolist(),
             m=2.0, k=0.5, tau=0.3, alpha=1.0)
    @example(lams=[0.2, 3.0, 90.0], gammas=np.linspace(0.0, 40.0, 2731).tolist(), m=1.0, k=1.0, tau=1.0, alpha=1.0)
    @example(lams=[7.0], gammas=np.linspace(0.0, 20.0, 8193).tolist(), m=0.7, k=1.3, tau=2.0, alpha=0.5)
    # (P + s)^2 overflows for the two large modes, and their summands are formed again
    @example(lams=[3.0, 1e100, 1e150], gammas=[0.0, 0.5, 1.0, 7.0], m=1.0, k=1.0, tau=1.0, alpha=1.0)
    def test_vectorized_matches_scalar_exactly(self, lams, gammas, m, k, tau, alpha):
        # optimal_gamma's probe reads signs from the vectorised call, so every
        # element must be the scalar value bit for bit, not just close to it
        spec, params = _spectrum_with(np.sort(lams)), ControllerParams(m=m, tau=tau, k=k)
        vec = norm_gamma_derivative(np.array(gammas), spec, params, alpha)
        assert vec.shape == (len(gammas),)
        for g, v in zip(gammas, vec):
            scalar = norm_gamma_derivative(g, spec, params, alpha)
            assert type(scalar) is float
            assert np.float64(scalar).tobytes() == v.tobytes()

    @pytest.mark.parametrize(("nonzero", "m", "true"),
                             [([1e100], 1.0, (5e-101, [2e-100, 5e-101])), ([3.0], 1e308, None)],
                             ids=["huge-eigenvalue", "huge-m"])
    def test_terms_past_the_float_range_warn_nothing(self, nonzero, m, true):
        # the intermediates overflow, with no warning.  Where only (P + s)^2
        # does, the summand keeps its true value (exact: fractions.Fraction),
        # for a float gamma and a vector alike; where k^2 m tau lam and P do,
        # -inf / inf is NaN and the derivative is refused, naming the first
        # gamma that gives it
        spec, params = _spectrum_with(nonzero), ControllerParams(m=m, tau=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i, (gamma, named) in enumerate(((1.0, "1"), (np.array([0.5, 1.0]), "0.5"))):
                if true is None:
                    with pytest.raises(FloatRangeError, match=rf"^loss derivative is not finite at gamma = {named}: "
                                                              "the gain search leaves the float range$"):
                        norm_gamma_derivative(gamma, spec, params, 1.0)
                else:
                    value = norm_gamma_derivative(gamma, spec, params, 1.0)
                    assert type(value) is type(gamma)
                    assert np.float64(value).tobytes() == np.array(true[i]).tobytes()

    @settings(max_examples=200)
    @given(
        lams=st.lists(st.floats(60.0, 250.0).map(lambda e: 10.0**e), min_size=1, max_size=4),
        gamma=st.one_of(st.just(0.0), st.floats(-40.0, 6.0).map(lambda e: 10.0**e)),
        m=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
        k=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
        tau=st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e)),
    )
    @example(lams=[1e100], gamma=1.0, m=1.0, k=1.0, tau=1.0)
    @example(lams=[1e200], gamma=1.0, m=1.0, k=1.0, tau=1.0)  # P + s overflows too
    @example(lams=[1e300], gamma=1.0, m=1.0, k=1.0, tau=0.0)  # (s / d)^2 alone would underflow
    def test_overflowing_denominators_keep_the_true_value(self, lams, gamma, m, k, tau):
        # summands whose (P + s)^2 overflows: within 1e-12 of the exact
        # derivative of the float inputs, wherever neither s^2 - c nor the
        # sum over modes cancels below 1% of its terms (which would amplify
        # the rounding of s and P alike in any evaluation)
        exact, size = Fraction(0), Fraction(0)
        for lam in map(Fraction, lams):
            s = Fraction(gamma) * Fraction(tau) * lam + Fraction(k)
            d = Fraction(gamma) * lam * s + Fraction(k) ** 2 * Fraction(m) * lam + s
            c = Fraction(k) ** 2 * Fraction(m) * Fraction(tau) * lam
            assume(_FLOAT_MAX < d * d)
            assume(abs(s * s - c) >= (s * s + c) / 100)
            exact += lam * (s * s - c) / (d * d)
            size += lam * (s * s + c) / (d * d)
        exact /= 2 * Fraction(m)
        assume(abs(exact) >= size / (2 * Fraction(m)) / 100 and abs(exact) > Fraction(1e-280))
        params = ControllerParams(m=m, tau=tau, k=k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = norm_gamma_derivative(gamma, _spectrum_with(sorted(lams)), params, 1.0)
        assert abs(Fraction(value) - exact) <= abs(exact) * Fraction(1e-12)

    def test_sign_at_zero(self):
        # at gamma = 0 each summand carries sign 1 - m tau lam
        assert norm_gamma_derivative(0.0, _spectrum_with([3.0]), UNIT, 1.0) < 0  # m tau lam = 3 > 1
        assert norm_gamma_derivative(0.0, _spectrum_with([0.5]), UNIT, 1.0) > 0

    # m, k and tau are refused by the ControllerParams the call is given (its
    # own tests pin every text), the eigenvalues by Spectrum (test_network.py)
    @pytest.mark.parametrize(("gamma", "alpha", "scalars", "message"), [
        (1.0, 1.0, dict(m=0.0), "droop gain m must be > 0, got 0.0"),
        (1.0, 1.0, dict(m=-1.0), "droop gain m must be > 0, got -1.0"),
        (1.0, 1.0, dict(k=0.0), "integral constant k must be > 0, got 0.0"),
        (1.0, 1.0, dict(tau=-1.0), "filter time constant tau must be >= 0, got -1.0"),
        (1.0, 1.0, dict(m=float("nan")), "m must be finite, got nan"),
        (1.0, -0.5, {}, "alpha must be finite and >= 0, got -0.5"),
        (1.0, float("inf"), {}, "alpha must be finite and >= 0, got inf"),
        (1.0, float("nan"), {}, "alpha must be finite and >= 0, got nan"),
        (-1.0, 1.0, {}, "communication gain gamma must be finite and >= 0, got -1.0"),
        (float("nan"), 1.0, {}, "communication gain gamma must be finite and >= 0, got nan"),
        (float("inf"), 1.0, {}, "communication gain gamma must be finite and >= 0, got inf"),
        (np.array([0.5, 1.0, -2.0, float("nan")]), 1.0, {},
         "communication gain gamma must be finite and >= 0, got -2.0"),
        (np.array([0.5, float("nan")]), 1.0, {}, "communication gain gamma must be finite and >= 0, got nan"),
        (1e308, 1.0, {}, "communication gain gamma must be at most 1e+64, got 1e+308"),
        (np.array([0.5, 2e64]), 1.0, {}, "communication gain gamma must be at most 1e+64, got 2e+64"),
    ], ids=["m-zero", "m-negative", "k-zero", "tau-negative", "m-nan", "alpha-negative", "alpha-inf",
            "alpha-nan", "gamma-negative", "gamma-nan", "gamma-inf", "gamma-vector-negative",
            "gamma-vector-nan", "gamma-huge", "gamma-vector-huge"])
    def test_refuses_its_scalars_by_name(self, gamma, alpha, scalars, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            params = ControllerParams(**(dict(m=1.0, tau=1.0, k=1.0) | scalars))
            norm_gamma_derivative(gamma, _spectrum_with([0.5, 3.0]), params, alpha)

    def test_zero_tau_and_alpha_stay_valid(self):
        spec = _spectrum_with([0.5, 3.0])
        # at tau = 0 each summand is lam s^2 / (P + s)^2 > 0
        assert norm_gamma_derivative(1.0, spec, ControllerParams(m=1.0, tau=0.0, k=1.0), 1.0) > 0
        assert norm_gamma_derivative(1.0, spec, UNIT, 0.0) == 0.0

    def test_at_most_one_sign_change(self):
        # empirical uniqueness probe for the stationary point
        rng = np.random.default_rng(23)
        for trial in range(20):
            n = int(rng.integers(2, 25))
            g = build_random_connected_graph(n, 0.4, (0.5, 1.5), alpha=1.0, seed=200 + trial)
            m, k, tau = rng.uniform(0.1, 10, 3)
            grid = np.linspace(0.0, 50.0, 2001)
            d = norm_gamma_derivative(grid, _spectrum_of(g), ControllerParams(m=m, tau=tau, k=k), 1.0)
            changes = int(np.count_nonzero(np.diff(np.sign(d)) != 0))
            assert changes <= 1


class TestSignBandProbe:
    @settings(max_examples=300)
    @given(
        n=st.integers(2, 30),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 10_000),
        m=st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e),
        k=st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e),
        tau=st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e),
        hi=st.sampled_from([1.0, 2.0, 8.0, 64.0, 1024.0]),
    )
    def test_matches_full_probe(self, n, p, seed, m, k, tau, hi):
        low = min(1.0, 2.0 * math.log(n) / n)
        g = build_random_connected_graph(n, low + (1.0 - low) * p, (0.5, 1.5), alpha=1.0, seed=seed)
        spec = _spectrum_of(g)

        def deriv(gv):
            return norm_gamma_derivative(gv, spec, ControllerParams(m=m, tau=tau, k=k), 1.0)

        band = gridloss.tuning._derivative_sign_band(spec.nonzero, m, k, tau)
        grid = np.linspace(0.0, 2.0 * hi, 257)
        full = deriv(grid) < 0.0
        # the band's claims hold on the grid, so the crossings agree
        assert np.all(full[grid < band[0] * (1.0 - 1e-6)])
        assert not np.any(full[grid > band[1] * (1.0 + 1e-6)])
        starts = np.flatnonzero(full[:-1] & ~full[1:])
        expected = [(float(grid[i]), float(grid[i + 1])) for i in starts]
        assert gridloss.tuning._descending_crossings(deriv, hi, band) == expected

    def test_band_edges(self):
        lams = np.array([0.5, 2.0, 7.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gridloss.tuning._derivative_sign_band(lams, 1.0, 1.0, 0.0) == (0.0, 0.0)
            # m tau lam <= 1 for every mode: the derivative is never negative
            assert gridloss.tuning._derivative_sign_band(lams, 0.1, 1.0, 1.0) == (0.0, 0.0)
        # one mode with m tau lam <= 1 pins the lower end at zero
        c_min, c_max = gridloss.tuning._derivative_sign_band(lams, 1.0, 2.0, 1.0)
        assert c_min == 0.0
        assert c_max == pytest.approx(2.0 * (math.sqrt(7.0) - 1.0) / 7.0, rel=1e-15)
        # a uniform complete graph has one nonzero eigenvalue: the band is the optimum
        spec = _spectrum_of(build_complete_graph(20, b=1.0, alpha=1.0))
        c_min, c_max = gridloss.tuning._derivative_sign_band(spec.nonzero, 1.0, 3.0, 2.0)
        closed = optimal_gamma_complete(20, 1.0, ControllerParams(m=1.0, tau=2.0, k=3.0))
        assert c_min == pytest.approx(closed, rel=1e-12)
        assert c_max == pytest.approx(c_min, rel=1e-12)

    def test_no_point_inside_band_still_makes_one_call(self):
        calls = []

        def deriv(gv):
            calls.append(np.shape(gv))
            return norm_gamma_derivative(gv, _spectrum_with([3.0]), UNIT, 1.0)

        # band below the grid's second point: only gamma = 0 is evaluated
        assert gridloss.tuning._descending_crossings(deriv, 1.0, (0.0, 1e-9)) == [(0.0, 0.0078125)]
        assert calls == [(1,)]
        calls.clear()
        # band between two grid points: nothing is inside, one empty call
        assert gridloss.tuning._descending_crossings(deriv, 1.0, (0.5001, 0.5002)) == [(0.5, 0.5078125)]
        assert calls == [(0,)]


class TestOptimalGammaComplete:
    def test_fifty_node_reference_value(self):
        got = optimal_gamma_complete(50, b=1.0, params=UNIT)
        assert got == pytest.approx((math.sqrt(50.0) - 1.0) / 50.0, rel=1e-15)

    def test_tau_zero_boundary(self):
        assert optimal_gamma_complete(10, b=1.0, params=ControllerParams(m=1.0, tau=0.0, k=2.0)) == 0.0

    def test_product_below_one_boundary(self):
        assert optimal_gamma_complete(2, b=0.4, params=UNIT) == 0.0
        assert optimal_gamma_complete(2, b=0.5, params=UNIT) == 0.0  # exactly 1

    def test_scaling_in_k(self):
        g1 = optimal_gamma_complete(20, b=1.0, params=UNIT)
        g3 = optimal_gamma_complete(20, b=1.0, params=ControllerParams(m=1.0, tau=1.0, k=3.0))
        assert g3 == pytest.approx(3.0 * g1, rel=1e-15)

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError, match="^n_nodes must be an integer >= 2, got 1$"):
            optimal_gamma_complete(1, b=1.0, params=UNIT)
        with pytest.raises(ValidationError, match="^b must be > 0, got 0.0$"):
            optimal_gamma_complete(5, b=0.0, params=UNIT)
        for b in (math.inf, math.nan):
            with pytest.raises(ValidationError, match="^b must be finite, got "):
                optimal_gamma_complete(5, b=b, params=UNIT)


class TestOptimalGamma:
    def test_agrees_with_complete_graph_formula(self):
        for n, b in ((5, 1.0), (50, 1.0), (12, 0.3), (8, 2.5)):
            g = build_complete_graph(n, b=b, alpha=1.0)
            p = ControllerParams(m=1.0, tau=1.0, k=1.0)
            res = optimal_gamma(_spectrum_of(g), p, alpha=1.0)
            expected = optimal_gamma_complete(n, b=b, params=p)
            assert res.gamma_star == pytest.approx(expected, abs=1e-8)

    def test_boundary_when_product_small(self):
        g = build_complete_graph(2, b=0.4, alpha=1.0)
        res = optimal_gamma(_spectrum_of(g), ControllerParams(m=1.0, tau=1.0, k=1.0), alpha=1.0)
        assert res.gamma_star == 0.0
        assert res.iterations == 0
        assert res.bracket == (0.0, 0.0)

    def test_tau_zero_gives_zero(self):
        g = build_complete_graph(10, b=1.0, alpha=1.0)
        res = optimal_gamma(_spectrum_of(g), ControllerParams(m=1.0, tau=0.0, k=1.0), alpha=1.0)
        assert res.gamma_star == 0.0

    def test_interior_optimum_is_local_minimum(self):
        rng = np.random.default_rng(31)
        for trial in range(10):
            n = int(rng.integers(3, 20))
            g = build_random_connected_graph(n, 0.6, (0.5, 1.5), alpha=1.0, seed=300 + trial)
            m, k, tau = rng.uniform(0.3, 3, 3)
            spec = _spectrum_of(g)
            res = optimal_gamma(spec, ControllerParams(m=m, tau=tau, k=k), alpha=1.0)

            def norm_at(gv):
                return h2_dapi_closed_form(1.0, ControllerParams(m=m, tau=tau, k=k, gamma=gv), spec).squared_norm

            assert res.norm_at_star == pytest.approx(norm_at(res.gamma_star), rel=1e-14)
            if res.gamma_star > 0:
                assert res.norm_at_star <= norm_at(res.gamma_star * 1.01) + 1e-15
                assert res.norm_at_star <= norm_at(res.gamma_star * 0.99) + 1e-15
                assert res.norm_at_star <= norm_at(res.bracket[1])
                assert res.norm_at_star <= norm_at(0.0)
                assert res.iterations > 0
                assert res.bracket[0] <= res.gamma_star <= res.bracket[1]
            else:
                assert norm_at(1e-3) >= res.norm_at_star

    def test_derivative_calls_per_search(self, monkeypatch):
        # one call at 0, one per bracket end tried, one per bisection step and
        # one for the whole probe grid
        calls = []

        def counting(gamma, *args):
            calls.append(np.ndim(gamma))
            return norm_gamma_derivative(gamma, *args)

        monkeypatch.setattr(gridloss.tuning, "norm_gamma_derivative", counting)
        for graph, m, k in ((build_complete_graph(50, b=1.0, alpha=1.0), 1.0, 1.0),
                            (build_line_graph(20, [1.0] * 19, alpha=1.0), 1.0, 1.0),
                            (build_complete_graph(30, b=2.0, alpha=1.0), 40.0, 300.0)):
            calls.clear()
            res = optimal_gamma(_spectrum_of(graph), ControllerParams(m=m, tau=1.0, k=k), alpha=1.0)
            assert res.gamma_star > 0
            doublings = int(round(math.log2(res.bracket[1])))
            assert len(calls) <= res.iterations + doublings + 3
            assert calls.count(1) == 1

    def test_global_pick_outside_first_bracket(self, monkeypatch):
        # a derivative with minima at 0.05 and 1.9: the search brackets the
        # first in (0, 1), the probe over (0, 2) finds the second, and on
        # this graph the loss keeps falling up to gamma = 13.9
        def two_minima(gamma, spectrum, params, alpha):
            g = np.asarray(gamma, dtype=float)
            d = (g - 0.05) * (g - 1.1) * (g - 1.9)
            return d.item() if d.ndim == 0 else d

        monkeypatch.setattr(gridloss.tuning, "norm_gamma_derivative", two_minima)
        # the cubic is negative below 0.05 and positive above 1.9, so that is
        # its sign band; the model's band for this graph would not bound it
        monkeypatch.setattr(gridloss.tuning, "_derivative_sign_band", lambda *args: (0.05, 1.9))
        spec = _spectrum_of(build_complete_graph(50, b=1.0, alpha=1.0))
        with pytest.warns(RuntimeWarning, match=r"gamma = \[[\d.]+, [\d.]+\];"):
            res = optimal_gamma(spec, ControllerParams(m=100.0, tau=1.0, k=10.0), alpha=1.0)
        assert res.gamma_star == pytest.approx(1.9, abs=1e-9)
        assert res.bracket[0] <= res.gamma_star <= res.bracket[1]
        assert res.bracket[1] - res.bracket[0] == pytest.approx(2.0 / 256)
        assert res.iterations > 0
        q = ControllerParams(m=100.0, tau=1.0, k=10.0, gamma=res.gamma_star)
        assert res.norm_at_star == h2_dapi_closed_form(1.0, q, spec).squared_norm

    @pytest.mark.parametrize("k", [1e-6, 1e-9, 1e-12, 1e-14])
    def test_small_optimum_is_resolved_relative_to_its_size(self, k):
        # gamma* = 0.1736 k here: an absolute width of 1e-10 would return a
        # point of the last interval, not the optimum
        p = ControllerParams(m=1.0, tau=1.0, k=k)
        res = optimal_gamma(_spectrum_of(build_complete_graph(20, b=1.0, alpha=1.0)), p, alpha=1.0)
        assert res.gamma_star == pytest.approx(optimal_gamma_complete(20, 1.0, p), rel=1e-7)

    def test_the_cap_is_the_last_bracket_end(self):
        # the doubling stops at 1e6 itself: an optimum between 2**19 and the
        # cap is bracketed and bisected until the midpoint no longer splits
        # the interval (its ulp is above 1e-10), and one above the cap is refused
        spec = _spectrum_of(build_complete_graph(20, b=1.0, alpha=1.0))
        near, past = (ControllerParams(m=1.0, tau=1.0, k=k) for k in (3.2e6, 6e6))
        res = optimal_gamma(spec, near, alpha=1.0)
        assert res.bracket == (0.0, 1e6) and res.iterations <= 64
        assert res.gamma_star == pytest.approx(optimal_gamma_complete(20, 1.0, near), rel=1e-7)
        assert optimal_gamma_complete(20, 1.0, past) > 1e6
        with pytest.raises(TuningError, match=r"^loss derivative is still negative at gamma = 1e\+06;"):
            optimal_gamma(spec, past, alpha=1.0)

    def test_params_gamma_field_ignored(self):
        g = build_complete_graph(9, b=1.0, alpha=1.0)
        spec = _spectrum_of(g)
        r1 = optimal_gamma(spec, ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=0.0), alpha=1.0)
        r2 = optimal_gamma(spec, ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=7.0), alpha=1.0)
        assert r1.gamma_star == r2.gamma_star

    def test_beats_droop_when_interior(self):
        g = build_line_graph(20, [1.0] * 19, alpha=1.0)
        res = optimal_gamma(_spectrum_of(g), ControllerParams(m=1.0, tau=1.0, k=1.0), alpha=1.0)
        droop = h2_droop_closed_form(1.0, UNIT, 20).squared_norm
        assert res.norm_at_star < droop


class TestSweep:
    def test_gamma_sweep_values_match_direct_evaluation(self):
        g = build_complete_graph(6, b=1.0, alpha=1.0)
        spec = _spectrum_of(g)
        p = ControllerParams(m=1.0, tau=1.0, k=1.0)
        grid = np.arange(0.0, 2.0001, 0.1)
        curve = sweep(spec, p, alpha=1.0, parameter_name="gamma", grid=grid)
        assert curve.shape == grid.shape
        for point, value in zip(grid, curve):
            direct = h2_dapi_closed_form(1.0, dataclasses.replace(p, gamma=float(point)), spec)
            assert value == direct.squared_norm

    def test_tau_sweep_allows_zero(self):
        g = build_line_graph(5, [1.0] * 4, alpha=1.0)
        curve = sweep(_spectrum_of(g), ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=1.0),
                      alpha=1.0, parameter_name="tau", grid=[0.0, 1.0, 4.0])
        assert np.all(curve > 0)

    def test_invalid_grid_point_named(self):
        # a NaN point passes the grid's order check and is refused by its own
        g = build_line_graph(3, [1.0, 1.0], alpha=1.0)
        with pytest.raises(ValidationError, match="grid point 1") as err:
            sweep(_spectrum_of(g), ControllerParams(m=1.0, tau=1.0), alpha=1.0,
                  parameter_name="k", grid=[0.5, math.nan, 1.0])
        assert "(k=nan)" in str(err.value)

    def test_unknown_parameter_rejected(self):
        g = build_line_graph(3, [1.0, 1.0], alpha=1.0)
        with pytest.raises(ValidationError, match="parameter_name"):
            sweep(_spectrum_of(g), ControllerParams(m=1.0, tau=1.0), alpha=1.0,
                  parameter_name="alpha", grid=[1.0, 2.0])

    def test_interior_minimum_moves_with_tau(self):
        # on a dense strong graph the best gain is interior for tau >= 1 and
        # the tau = 0 curve is minimized at the left boundary
        g = build_complete_graph(50, b=1.0, alpha=1.0)
        spec = _spectrum_of(g)
        grid = np.arange(0.0, 4.0 + 1e-12, 0.01)
        for tau in (1.0, 4.0):
            curve = sweep(spec, ControllerParams(m=1.0, tau=tau, k=1.0), 1.0, "gamma", grid)
            best = int(np.argmin(curve))
            assert 0 < best < len(grid) - 1
        curve0 = sweep(spec, ControllerParams(m=1.0, tau=0.0, k=1.0), 1.0, "gamma", grid)
        assert int(np.argmin(curve0)) == 0


_SPECTRUM = laplacian_eigenvalues(build_line_graph(3, [1.0, 1.0], alpha=1.0))


@pytest.mark.parametrize(("call", "message"), [
    (lambda: build_line_graph(4, 2.5, 1.0), "susceptances must be a vector of 3 values, got 2.5"),
    (lambda: build_random_connected_graph(5, 0.5, 1.0, 1.0, seed=1), "b_range must be a (low, high) pair, got 1.0"),
    (lambda: build_random_connected_graph(5, 0.5, [1.0], 1.0, seed=1),
     "b_range must be a (low, high) pair, got [1.0]"),
    (lambda: sweep(_SPECTRUM, ControllerParams(m=1.0, tau=1.0), 1.0, "gamma", 0),
     "grid must be a vector of grid points, got 0"),
    (lambda: gamma_star_vs_k(_SPECTRUM, UNIT, 1.0, 0), "k_grid must be a vector of grid points, got 0"),
    (lambda: optimal_gamma_vs_k(_SPECTRUM, UNIT, 1.0, np.float64(2.0)),
     "k_grid must be a vector of grid points, got np.float64(2.0)"),
    (lambda: loss_reduction_vs_k(_SPECTRUM, UNIT, 1.0, [[1.0, 2.0]]),
     "k_grid must be a vector of grid points, got [[1.0, 2.0]]"),
], ids=["line-susceptances", "random-b-range-scalar", "random-b-range-short", "sweep-grid", "gamma-star-k-grid",
        "optimal-gamma-k-grid", "loss-reduction-k-grid"])
def test_a_scalar_for_a_vector_is_refused_by_name(call, monkeypatch, message):
    # refused before any work: no draw, no graph and no norm
    def no_work(*args, **kwargs):
        raise AssertionError("work done before the argument was checked")

    for module, name in ((gridloss.network, "_generator"), (gridloss.network, "NetworkGraph"),
                         (gridloss.tuning, "h2_dapi_closed_form"), (gridloss.tuning, "h2_droop_closed_form"),
                         (gridloss.tuning, "optimal_gamma")):
        monkeypatch.setattr(module, name, no_work)
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("grid", [[0.5, 0.0, 1.0], [5.0, 4.0, 3.0, 2.0, 1.0] * 4, [2.0, 1.0, 1.0],
                                  [1.0, math.inf, math.inf]], ids=["dip", "descending", "repeat", "repeated-inf"])
@pytest.mark.parametrize("curve", [
    lambda grid: sweep(_SPECTRUM, UNIT, 1.0, "k", grid),
    lambda grid: optimal_gamma_vs_k(_SPECTRUM, UNIT, 1.0, grid),
    lambda grid: gamma_star_vs_k(_SPECTRUM, UNIT, 1.0, grid),
    lambda grid: loss_reduction_vs_k(_SPECTRUM, UNIT, 1.0, grid),
], ids=["sweep", "optimal_gamma_vs_k", "gamma_star_vs_k", "loss_reduction_vs_k"])
def test_a_grid_out_of_order_is_refused_before_any_point(curve, grid, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a grid point was evaluated before the grid's order was checked")

    for name in ("h2_dapi_closed_form", "h2_droop_closed_form", "optimal_gamma"):
        monkeypatch.setattr(gridloss.tuning, name, no_work)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^grid must be strictly increasing$"):
            curve(grid)


class TestCurvesVsK:
    def test_gamma_star_nondecreasing_in_k_on_complete_graph(self):
        g = build_complete_graph(15, b=1.0, alpha=1.0)
        k_grid = np.linspace(0.1, 10.0, 9)
        curve = gamma_star_vs_k(_spectrum_of(g), UNIT, alpha=1.0, k_grid=k_grid)
        assert np.all(np.diff(curve) >= -1e-9)
        # complete graph: gamma_star is exactly linear in k
        expected = [optimal_gamma_complete(15, 1.0, dataclasses.replace(UNIT, k=float(k))) for k in k_grid]
        assert np.allclose(curve, expected, atol=1e-7)

    def test_loss_reduction_decreasing_in_k(self):
        g = build_line_graph(12, [1.0] * 11, alpha=1.0)
        k_grid = np.linspace(0.1, 10.0, 8)
        curve = loss_reduction_vs_k(_spectrum_of(g), UNIT, alpha=1.0, k_grid=k_grid)
        assert np.all(curve > 0)
        assert np.all(curve < 1)
        assert np.all(np.diff(curve) < 0)

    def test_curves_project_one_search_per_k(self):
        spec = _spectrum_of(build_random_connected_graph(25, 0.3, (0.5, 1.5), alpha=1.0, seed=12))
        k_grid = np.linspace(0.2, 5.0, 7)
        # the k and gamma of the params handed in are not read
        params = ControllerParams(m=2.0, tau=0.7, k=9.0, gamma=3.0)
        results = optimal_gamma_vs_k(spec, params, 1.3, k_grid)
        for k, res in zip(k_grid, results):
            assert res == optimal_gamma(spec, ControllerParams(m=2.0, tau=0.7, k=float(k)), 1.3)
        droop = 1.3 * 24 / (2.0 * 2.0)
        gains = gamma_star_vs_k(spec, params, 1.3, k_grid)
        reduction = loss_reduction_vs_k(spec, params, 1.3, k_grid)
        assert list(gains) == [r.gamma_star for r in results]
        assert list(reduction) == [1.0 - r.norm_at_star / droop for r in results]

    @pytest.mark.parametrize(("spectrum", "alpha"), [(_SPECTRUM, 0.0), (Spectrum([0.0]), 1.0)],
                             ids=["zero-alpha", "one-node"])
    def test_no_droop_loss_reduces_nothing(self, spectrum, alpha):
        # the droop loss is 0, and so is the tuned DAPI loss: as analyze and
        # tune report it, the reduction is 0 and not refused
        curve = loss_reduction_vs_k(spectrum, UNIT, alpha, [0.5, 1.0, 2.0])
        assert curve.tolist() == [0.0, 0.0, 0.0]
        assert not np.signbit(curve).any()

    def test_invalid_k_named(self):
        spec = _spectrum_of(build_line_graph(3, [1.0, 1.0], alpha=1.0))
        for curve in (optimal_gamma_vs_k, gamma_star_vs_k, loss_reduction_vs_k):
            with pytest.raises(ValidationError, match="grid point 1") as err:
                curve(spec, UNIT, 1.0, [0.5, math.nan, 1.0])
            assert "(k=nan)" in str(err.value)


class TestResultTypes:
    def test_curves_are_read_only(self):
        spec, grid = _SPECTRUM, [0.5, 1.0]
        for curve in (sweep(spec, UNIT, 1.0, "gamma", grid), gamma_star_vs_k(spec, UNIT, 1.0, grid),
                      loss_reduction_vs_k(spec, UNIT, 1.0, grid)):
            assert curve.dtype == np.float64 and curve.shape == (2,)
            with pytest.raises(ValueError):
                curve[0] = 5.0


# log-uniform over [1e-320, 1e308], subnormals included
_ANY_SCALE = st.floats(-320.0, 308.0).map(lambda e: 10.0**e)


class TestFloatRange:
    @settings(max_examples=1000)
    @given(n=st.integers(2, 8), seed=st.integers(0, 10_000), alpha=_ANY_SCALE, m=_ANY_SCALE, k=_ANY_SCALE,
           tau=st.one_of(st.just(0.0), _ANY_SCALE), gamma=st.one_of(st.just(0.0), _ANY_SCALE))
    def test_finite_or_refused_without_warning(self, n, seed, alpha, m, tau, k, gamma):
        # a value is finite or refused by a GridlossError that names the
        # float range, not by a result type's validation; filterwarnings =
        # error fails any numpy warning on the way
        spectrum = _spectrum_of(build_random_connected_graph(n, 0.5, (0.5, 1.5), alpha=alpha, seed=seed))
        params = ControllerParams(m=m, tau=tau, k=k, gamma=gamma)
        computes = [lambda: h2_droop_closed_form(alpha, params, n).squared_norm,
                    lambda: h2_dapi_closed_form(alpha, params, spectrum).squared_norm,
                    lambda: optimal_gamma(spectrum, params, alpha).norm_at_star]
        if gamma <= 1e64:  # the derivative refuses a larger gamma as invalid
            computes.append(lambda: norm_gamma_derivative(gamma, spectrum, params, alpha))
        for compute in computes:
            try:
                value = compute()
            except GridlossError as err:
                assert not isinstance(err, ValidationError), err
            else:
                assert math.isfinite(value)


class TestPinnedBits:
    """The closed form, the derivative and the gain search on fixed inputs,
    bit for bit; the eigenvalues come from LAPACK, so the pins hold for
    numpy's bundled OpenBLAS.  The CLI's sweep outputs are pinned in the
    golden manifest."""

    @pytest.fixture(scope="class")
    def spectrum(self):
        graph = build_random_connected_graph(200, 0.05, (0.5, 1.5), 1.0, seed=3)
        return laplacian_eigenvalues(graph)

    def test_closed_form_derivative_and_search(self, spectrum):
        params = ControllerParams(m=1.0, tau=1.0, k=1.0, gamma=1.0)
        assert h2_dapi_closed_form(1.0, params, spectrum).squared_norm.hex() == "0x1.690cd5abc8517p+6"
        assert norm_gamma_derivative(0.75, spectrum, params, 1.0).hex() == "0x1.2511577cfa75fp+3"
        grid = norm_gamma_derivative(np.linspace(0.0, 4.0, 257), spectrum, params, 1.0)
        digest = hashlib.sha256(" ".join(float(d).hex() for d in grid).encode()).hexdigest()
        assert digest == "90df9dacdf8525b6990820e8bf1d0700576d13c8cbd06e2a6e11b5141a29d44a"
        res = optimal_gamma(spectrum, params, alpha=1.0)
        assert res.gamma_star.hex() == "0x1.b3fbea9100000p-3"
        assert res.norm_at_star.hex() == "0x1.4c00373ce4d98p+6"
        assert res.iterations == 34
        assert res.bracket == (0.0, 1.0)
