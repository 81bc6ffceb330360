"""Communication-gain optimization and parameter sweeps.

The DAPI loss is smooth in the communication gain ratio gamma, with an
analytic derivative, so the minimizer is found by sign bracketing plus
bisection on the derivative rather than by sampling norms.  On complete
graphs with uniform susceptance the optimum also has a closed form, kept as
an independent cross-check.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import ControllerParams
from .errors import FloatRangeError, TuningError, ValidationError
from .h2 import _dapi_mode_terms, h2_dapi_closed_form, h2_droop_closed_form
from .network import Spectrum, _check_alpha, _count, _finite, _finite_pair, _float_array

SWEEPABLE = ("gamma", "k", "tau", "m")

_GAMMA_TOL = 1e-10
_GAMMA_CAP = 1e6
_GAMMA_MAX = 1e64  # norm_gamma_derivative's largest: gamma**4 in (P + s)**2 stays < 1e256


@dataclass(frozen=True)
class TuningResult:
    """Outcome of the gain search.

    ``bracket`` is the derivative sign-change interval that gamma_star was
    bisected from in ``iterations`` steps; a boundary optimum (gamma_star =
    0) carries the degenerate bracket (0, 0) and zero iterations.  A field
    that is not a finite number (iterations: an int) is refused by name.
    """

    gamma_star: float
    norm_at_star: float
    iterations: int
    bracket: tuple[float, float]

    def __post_init__(self) -> None:
        lo, hi = _finite_pair("bracket", self.bracket)
        if not 0.0 <= lo <= hi:
            raise ValidationError(f"bracket must satisfy 0 <= lo <= hi, got {self.bracket!r}")
        for name in ("gamma_star", "norm_at_star"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))
        if not lo <= self.gamma_star <= hi:
            raise ValidationError(f"gamma_star {self.gamma_star!r} outside bracket {self.bracket!r}")
        if self.norm_at_star < 0:
            raise ValidationError(f"norm_at_star must be finite and >= 0, got {self.norm_at_star!r}")
        object.__setattr__(self, "iterations", _count("iterations", self.iterations, least=0))
        object.__setattr__(self, "bracket", (lo, hi))


def norm_gamma_derivative(gamma, spectrum: Spectrum, params: ControllerParams, alpha: float):
    """d/d(gamma) of the DAPI squared norm, in closed form.

    Per nonzero eigenvalue lam of ``spectrum`` the summand derivative is
    lam (s^2 - k^2 m tau lam) / (P + s)^2, with the s and P of the DAPI
    loss factor (``h2._dapi_mode_terms``), scaled by alpha / (2 m); m, k
    and tau are read from ``params``, whose gamma is ignored.  A float
    gamma gives a float, and a vector a vector whose entries have the float
    calls' bits: one broadcast over (gamma values, modes), two arrays of
    that shape (4.2 MB traced for 257 values at N = 1000), one sum per row.

    Where a summand's denominator (P + s)^2 overflows, that summand is
    formed again as lam r^2 - (c / lam) q^2, d = P + s and c = k^2 m tau
    lam, from ratios that stay in range where d and P overflow: r = s / d =
    1 / (1 + gamma lam + k^2 m / u) and q = lam / d = r / u, with u = s /
    lam = gamma tau + k / lam.  On ``Spectrum([0, 1e100])`` with m = k =
    tau = 1 the result is the true 5.0e-101, and on ``Spectrum([0,
    1e200])``, where P + s itself overflows, 5.0e-201; neither is 0.0.  A
    c past the float range makes the derivative non-finite on either path.

    Raises:
        ValidationError: alpha is not finite and >= 0, or a gamma is
            negative, not finite or above 1e64.
        FloatRangeError: the derivative is not finite at some gamma (the
            first is named): its terms overflowed into inf or NaN.
    """
    # plain comparisons, each false for NaN: the gain search makes thousands
    # of these calls; the spectrum and params were checked when built
    alpha = _check_alpha(alpha)
    gammas = np.asarray(gamma) if isinstance(gamma, float) else _float_array("gamma", gamma)
    if not (0.0 <= float(gammas) <= _GAMMA_MAX if gammas.ndim == 0
            else ((gammas >= 0.0) & (gammas <= _GAMMA_MAX)).all()):
        bad = next(float(g) for g in gammas.flat if not 0.0 <= g <= _GAMMA_MAX)
        rule = f"at most {_GAMMA_MAX:g}" if math.isfinite(bad) and bad > 0 else "finite and >= 0"
        raise ValidationError(f"communication gain gamma must be {rule}, got {bad!r}")
    lam, m, k, tau = spectrum.nonzero, params.m, params.k, params.tau
    with np.errstate(all="ignore"):  # the terms may leave the float range; the total is judged
        s, p = _dapi_mode_terms(lam, m, k, tau, gammas[..., None])
        p += s
        p *= p
        s *= s  # p already holds (P + s)^2, so s's buffer takes the summands
        s -= (k * k * m * tau) * lam
        s *= lam
        s /= p
        if p.max(initial=0.0) == math.inf:  # an overflowed (P + s)^2 made its summand 0 or NaN
            over = np.isinf(p)
            g, lams = (np.broadcast_to(v, p.shape)[over] for v in (gammas[..., None], lam))
            u = g * tau + k / lams  # s / lam
            r = 1.0 / (1.0 + g * lams + (k * k * m) / u)  # s / d = 1 / (1 + P / s)
            q = r / u  # lam / d
            c = (k * k * m * tau) * lams  # c / lam from c: an overflowed c is refused, as above
            s[over] = lams * r * r - c / lams * q * q
        total = alpha / (2.0 * m) * s.sum(axis=-1)
    total = float(total) if total.ndim == 0 else total  # math.isfinite is the cheap test for a float
    if not (math.isfinite(total) if isinstance(total, float) else np.isfinite(total).all()):
        bad = float(np.ravel(gammas)[np.argmin(np.isfinite(total))])
        raise FloatRangeError(f"loss derivative is not finite at gamma = {bad:.6g}: "
                              "the gain search leaves the float range")
    return total


def optimal_gamma(spectrum: Spectrum, params: ControllerParams, alpha: float) -> TuningResult:
    """Minimize the DAPI loss over the communication gain ratio.

    The gamma field of ``params`` is ignored.  The derivative sign is
    bracketed by geometric growth from gamma = 1 (capped at 1e6), then
    bisected to an interval of width 1e-10; a nonnegative derivative at
    gamma = 0 means the boundary is already optimal.  One derivative call
    on a 257-point grid over twice the bracket then probes for further sign
    changes, skipping grid points where every mode's summand has the same
    sign; each point gets the bits of a float call, so the probe and the
    bisection read the same signs.  More than one is reported with a
    warning and resolved by comparing the minima; the result then carries
    the probe interval and bisection of the global one.  A minimum
    narrower than one grid cell is missed, with no warning: for a clique of
    13 buses (b = 946.5) tied by b = 0.01 to one of 125 (b = 0.0212), m =
    0.25, k = 0.145 and tau = 3.22 give gamma = 0.00701 (loss 43.488), not
    gamma = 4.01e-4 (loss 43.090).

    Raises:
        TuningError: derivative still negative at the gamma cap.
        FloatRangeError: ``norm_gamma_derivative`` is not finite at some
            gamma (named in the message), or the DAPI closed form refuses
            the norm at the optimum.
    """
    def deriv(g):  # through the module name, which a tracer may wrap
        return norm_gamma_derivative(g, spectrum, params, alpha)

    def norm_at(g: float) -> float:
        return h2_dapi_closed_form(alpha, dataclasses.replace(params, gamma=g), spectrum).squared_norm

    if deriv(0.0) >= 0.0:
        return TuningResult(gamma_star=0.0, norm_at_star=norm_at(0.0), iterations=0, bracket=(0.0, 0.0))

    hi = 1.0
    while deriv(hi) <= 0.0:
        hi *= 2.0
        if hi > _GAMMA_CAP:
            raise TuningError(
                f"loss derivative is still negative at gamma = {_GAMMA_CAP:g}; no stationary point bracketed"
            )
    bracket = (0.0, hi)
    gamma_star, iterations = _bisect_derivative(deriv, 0.0, hi)

    band = _derivative_sign_band(spectrum.nonzero, params.m, params.k, params.tau)
    crossings = _descending_crossings(deriv, hi, band)
    if len(crossings) > 1:
        found = [_bisect_derivative(deriv, lo_i, hi_i) for lo_i, hi_i in crossings]
        candidates = [float(g) for g, _ in found]
        best = int(np.argmin([norm_at(g) for g in candidates]))
        warnings.warn(
            f"multiple local minima at gamma = {candidates}; returning the global one",
            RuntimeWarning,
            stacklevel=2,
        )
        gamma_star, iterations = found[best]
        bracket = crossings[best]
    return TuningResult(
        gamma_star=gamma_star,
        norm_at_star=norm_at(gamma_star),
        iterations=iterations,
        bracket=bracket,
    )


def _bisect_derivative(deriv, lo: float, hi: float) -> tuple[float, int]:
    iterations = 0
    while hi - lo > _GAMMA_TOL and iterations < 200:
        mid = 0.5 * (lo + hi)
        if deriv(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return 0.5 * (lo + hi), iterations


def _derivative_sign_band(lams, m: float, k: float, tau: float) -> tuple[float, float]:
    """Interval (c_min, c_max) outside which the derivative's sign is known.

    The summand numerator lam ((gamma tau lam + k)^2 - k^2 m tau lam) is
    negative exactly for gamma < c(lam) = k (sqrt(m tau lam) - 1) / (tau lam)
    when m tau lam > 1, and never otherwise (c = 0).  So the derivative is
    negative below min c and positive above max c.  tau = 0 gives (0, 0).
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a NaN band probes nowhere
        x = m * tau * lams
        falling = x > 1.0  # never true when tau = 0, so nothing divides by zero
        if not falling.any():
            return 0.0, 0.0
        c = k * (np.sqrt(x[falling]) - 1.0) / (tau * lams[falling])
    return (float(c.min()) if falling.all() else 0.0), float(c.max())


def _descending_crossings(deriv, hi: float, band: tuple[float, float]) -> list[tuple[float, float]]:
    # negative-to-nonnegative derivative transitions (local minima); the sign
    # is set directly outside the band (with a relative margin for rounding)
    # and one vectorised call evaluates the points inside it
    grid = np.linspace(0.0, 2.0 * hi, 257)
    below = grid < band[0] * (1.0 - 1e-6)
    inside = ~below & (grid <= band[1] * (1.0 + 1e-6))
    signs = below.copy()
    signs[inside] = deriv(grid[inside]) < 0.0
    starts = np.flatnonzero(signs[:-1] & ~signs[1:])
    return [(float(grid[i]), float(grid[i + 1])) for i in starts]


def optimal_gamma_complete(n_nodes: int, b: float, params: ControllerParams) -> float:
    """Closed-form optimal gain for a complete graph with uniform susceptance.

    Equals (k / (N b tau)) (sqrt(N b m tau) - 1) when N b m tau > 1, else 0
    (the boundary optimum); tau = 0 always gives 0.  ``params``' gamma is
    ignored; an n_nodes below 2 and a b not finite and > 0 are refused.
    """
    n_nodes = _count("n_nodes", n_nodes, least=2)
    b = _finite("b", b)
    if b <= 0:
        raise ValidationError(f"b must be > 0, got {b!r}")
    product = n_nodes * b * params.m * params.tau
    if params.tau == 0.0 or product <= 1.0:
        return 0.0
    return params.k / (n_nodes * b * params.tau) * (math.sqrt(product) - 1.0)


def sweep(
    spectrum: Spectrum,
    params: ControllerParams,
    alpha: float,
    parameter_name: str,
    grid,
) -> np.ndarray:
    """DAPI squared norm along one controller parameter, one read-only value
    per grid point.

    ``params`` supplies the held-fixed values; ``parameter_name`` is one of
    gamma, k, tau, m.  The grid must be strictly increasing, checked first,
    and each point valid for the parameter (e.g. k > 0), or a validation
    error names the point, as it does where the closed form fails.
    """
    if parameter_name not in SWEEPABLE:
        raise ValidationError(f"parameter_name must be one of {SWEEPABLE}, got {parameter_name!r}")
    grid = _grid(grid, "grid")
    values = _over_grid(lambda q: h2_dapi_closed_form(alpha, q, spectrum).squared_norm, params, parameter_name, grid)
    return _read_only(np.fromiter(values, float, grid.size))


def _read_only(values) -> np.ndarray:
    """``values`` as a float vector that cannot be written."""
    values = np.asarray(values, dtype=float)
    values.setflags(write=False)
    return values


def _grid(points, name: str) -> np.ndarray:
    """The grid ``points`` as a float vector; a scalar, a nested list or an
    entry that is not a real number (``_float_array``) is a ValidationError
    naming the argument ``name``, and so is a grid that is not strictly
    increasing (a NaN point is left to the point's own check)."""
    grid = _float_array(name, points)
    if grid.ndim != 1:
        raise ValidationError(f"{name} must be a vector of grid points, got {points!r}")
    if (grid[1:] <= grid[:-1]).any():  # np.diff would warn on inf - inf
        raise ValidationError("grid must be strictly increasing")
    return grid


def _over_grid(evaluate, params: ControllerParams, name: str, grid: np.ndarray):
    """Yield ``evaluate(q)`` at each point of the vector ``grid``, q being
    ``params`` with the field ``name`` set to the point.  The point's own
    refusal, and the evaluation's TuningError or FloatRangeError, are raised
    again with a message led by the grid point."""
    for i, point in enumerate(grid.tolist()):
        try:
            q = dataclasses.replace(params, **{name: point})
        except ValidationError as err:
            raise type(err)(f"grid point {i} ({name}={point!r}): {err}") from None
        try:
            value = evaluate(q)
        except (TuningError, FloatRangeError) as err:
            raise type(err)(f"grid point {i} ({name}={point!r}): {err}") from None
        yield value


def optimal_gamma_vs_k(spectrum: Spectrum, params: ControllerParams, alpha: float, k_grid) -> list[TuningResult]:
    """``optimal_gamma`` at each integral constant k, one search per grid
    point, of ``dataclasses.replace(params, k=k)`` (its gamma is ignored).

    Raises:
        ValidationError: the grid is out of order or a point is not a valid k.
        TuningError, FloatRangeError: the search at a grid point fails.
        Each message but the grid's order names the grid point.
    """
    return list(_over_grid(lambda q: optimal_gamma(spectrum, q, alpha), params, "k", _grid(k_grid, "k_grid")))


def gamma_star_vs_k(spectrum: Spectrum, params: ControllerParams, alpha: float, k_grid) -> np.ndarray:
    """Optimal gain gamma_star at each integral constant k, read-only, from
    the ``optimal_gamma_vs_k`` searches."""
    return _read_only([r.gamma_star for r in optimal_gamma_vs_k(spectrum, params, alpha, k_grid)])


def loss_reduction_vs_k(spectrum: Spectrum, params: ControllerParams, alpha: float, k_grid) -> np.ndarray:
    """Relative loss reduction of optimally tuned DAPI over droop, per k.

    Entry i is 1 - dapi(gamma_star(k_i)) / droop, in [0, 1), and 0 where
    the droop loss (``h2_droop_closed_form``) is 0: alpha = 0 or one node.
    Larger means the averaging layer pays off more at that integral
    constant.  The vector is read-only and projects the
    ``optimal_gamma_vs_k`` searches, refused as there; the droop norm comes
    between the grid's check and the first search, so a bad alpha is
    refused ahead of a bad point.
    """
    k_grid = _grid(k_grid, "k_grid")
    droop = h2_droop_closed_form(alpha, params, spectrum.n_nodes).squared_norm
    return _read_only([_loss_reduction(r.norm_at_star, droop)
                       for r in optimal_gamma_vs_k(spectrum, params, alpha, k_grid)])


def _loss_reduction(norm: float, droop: float) -> float:
    """1 - norm / droop, a DAPI loss's reduction over droop's; 0 where droop is 0."""
    return 1.0 - norm / droop if droop > 0 else 0.0
