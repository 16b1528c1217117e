"""Quasilinear wave problem definitions.

A problem is the equation

    u_tt = u_xx - u + kappa*a(u)*u_xx + kappa*g(u, u_x)

on the 2π-periodic circle, described by the coefficient kappa and the
pointwise-evaluable nonlinearities a and g with a(0) = 0, g(0,0) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exceptions import ConfigurationError
from .spectral import SpectralField, mode_numbers, parseval_weights, synthesize_values

_ZERO_TOL = 1e-14


@dataclass(frozen=True)
class ProblemSpec:
    """Coefficient and nonlinearities of one quasilinear wave equation.

    ``a`` and ``g`` must be vectorized over numpy arrays and pure.  ``g``
    may be None, which means g == 0 (pure quasilinear part); several
    energy diagnostics are only defined in that case.
    """

    kappa: float
    a: Callable[[np.ndarray], np.ndarray]
    g: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    name: str = "custom"

    def __post_init__(self):
        if not np.isfinite(self.kappa):
            raise ConfigurationError("kappa must be finite")
        if abs(float(self.a(np.zeros(1))[0])) > _ZERO_TOL:
            raise ConfigurationError("a(0) must vanish")
        if self.g is not None and abs(float(self.g(np.zeros(1), np.zeros(1))[0])) > _ZERO_TOL:
            raise ConfigurationError("g(0, 0) must vanish")


def model_problem(kappa: float) -> ProblemSpec:
    """The benchmark equation with a(u) = u and g(u, p) = p^2 + kappa*u^3."""
    k = float(kappa)

    def a(u):
        return u

    def g(u, p):
        return p * p + k * u * u * u

    return ProblemSpec(kappa=k, a=a, g=g, name="model")


def linear_problem() -> ProblemSpec:
    """Pure Klein-Gordon problem (kappa = 0); the integrator is exact on it."""

    def a(u):
        return u

    return ProblemSpec(kappa=0.0, a=a, g=None, name="linear")


def power_law_initial_data(
    degree: int,
    u_exponent: float = 11.0 + 1.0 / 50.0,
    udot_exponent: float = 9.0 + 1.0 / 50.0,
) -> tuple[SpectralField, SpectralField]:
    """Benchmark initial data with coefficients (1+|j|^p)^(-1/2).

    The default exponents place (u, udot) in H^5 x H^4 but just outside
    H^{5.01} x H^{4.01}; coefficients are real, positive and even in j,
    truncated to |j| <= degree.
    """
    if degree < 1:
        raise ConfigurationError("initial data needs degree >= 1")
    j = np.abs(mode_numbers(degree)).astype(float)
    cu = 1.0 / np.sqrt(1.0 + j**u_exponent)
    cud = 1.0 / np.sqrt(1.0 + j**udot_exponent)
    return SpectralField(cu.astype(np.complex128)), SpectralField(cud.astype(np.complex128))


@dataclass(frozen=True)
class EllipticityReport:
    """Extrema of the quasilinear coefficient along one snapshot.

    delta_est = min over x of 1 + kappa*a(u(x)),
    A0_est    = max over x of kappa*a(u(x)).
    """

    delta_est: float
    A0_est: float
    hyperbolicity_lost: bool


# _refine_extrema: its stencils are at least _DMIN wide, so that roundoff
# does not blur their parabolas; it skips steps of at most _XTOL and stops
# after _MAX_CALLS calls of fn
_DMIN = 1e-6
_XTOL = 1e-8
_MAX_CALLS = 16


def _refine_extrema(fn, xs: np.ndarray, vals: np.ndarray) -> tuple[float, float]:
    """Polished minimum and maximum of a smooth periodic function.

    ``vals`` samples ``fn`` at the equispaced nodes ``xs``.  Every local
    sampled extremum is polished on its bracket xs[i] +- 2*pi/n (the whole
    circle when n = 1), all brackets of both kinds at once: ``fn`` maps an
    array of points to an array of values, and each call takes three points
    of every bracket that still steps.  The search is derivative-free, a
    safeguarded parabolic step after Brent (1973, Algorithms for
    Minimization without Derivatives).  A bracket keeps its best point x and
    the values at x - d, x, x + d, at first the samples.  The vertex x + t
    of the parabola through them is a Newton step; a concave or flat stencil
    steps to its better neighbour.  One call evaluates x - t, x + t and
    x + 2t: x + t becomes x if it improves on it, and either way the new x
    has a stencil of spacing |t|.  A step stays in the bracket, within 8
    stencil spacings and within half a rejected step from the same x.  A
    stencil of spacing _DMIN locates the vertex to roundoff, so a step
    shorter than _DMIN from it is the bracket's last, and one from a wider
    stencil is lengthened to _DMIN.  The results are the extrema of the
    samples and of every evaluated value, so they are never worse than the
    best samples, and they are grid-independent once the grid resolves all
    oscillations.
    """
    n = xs.size
    before, after = np.roll(vals, 1), np.roll(vals, -1)
    is_min = (vals <= before) & (vals <= after)
    is_max = (vals >= before) & (vals >= after)
    # minimize sign * fn: +1 on the minima's brackets, -1 on the maxima's
    sign = np.concatenate((np.ones(np.count_nonzero(is_min)), -np.ones(np.count_nonzero(is_max))))
    x = np.concatenate((xs[is_min], xs[is_max]))
    g_lo, g0, g_hi = (sign * np.concatenate((f[is_min], f[is_max])) for f in (before, vals, after))
    h = 2.0 * np.pi / n
    node = x
    # g_lo and g_hi are the values at x - d and x + d; d is signed, and a
    # bracket's last step sets it to 0
    d = np.full(x.size, h)
    reach = np.full(x.size, np.inf)
    s_min, s_max = np.min(vals), np.max(vals)
    for _ in range(_MAX_CALLS):
        curv, slope = g_hi - 2.0 * g0 + g_lo, g_hi - g_lo
        convex = curv > 0.0
        t = d * np.where(convex, -0.5 * slope / np.where(convex, curv, 1.0), -np.sign(slope))
        limit = np.minimum(reach, 8.0 * np.abs(d))
        t = np.clip(t, -limit, limit)
        short = np.abs(t) < _DMIN
        last = short & (np.abs(d) <= _DMIN)
        probe = short & ~last
        t = np.clip(np.where(probe, np.copysign(_DMIN, t), t), node - h - x, node + h - x)
        # a bracket with no step keeps its stencil, so it takes no more steps
        live = np.abs(t) > _XTOL
        if not live.any():
            break
        x, t, g_lo, g0, g_hi, d, reach, node, sign, last, probe = (
            a[live] for a in (x, t, g_lo, g0, g_hi, d, reach, node, sign, last, probe))
        values = fn(np.concatenate((x - t, x + t, x + 2.0 * t)))
        s_min, s_max = min(s_min, np.min(values)), max(s_max, np.max(values))
        g_back, g_step, g_far = (sign * v for v in np.split(values, 3))
        moved = g_step < g0
        x = np.where(moved, x + t, x)
        g_lo, g_hi = np.where(moved, g0, g_back), np.where(moved, g_far, g_step)
        g0, d = np.minimum(g_step, g0), np.where(last, 0.0, t)
        # a rejected probe says nothing about the step's length
        reach = np.where(moved, np.inf, np.where(probe, reach, 0.5 * np.abs(t)))
    return float(s_min), float(s_max)


def ellipticity_report(problem: ProblemSpec, u: SpectralField) -> EllipticityReport:
    """Estimate the hyperbolicity margin and amplitude bound for a snapshot.

    Samples kappa*a(u(x)) on the 4K+1 equispaced nodes and polishes every
    sampled extremum with _refine_extrema, which evaluates u by direct
    summation at its points, so the estimates are stable under grid
    refinement.  On smooth data the polish takes about two calls of
    kappa*a(u(x)) for all extrema at once, on rough data at most
    _MAX_CALLS.
    """
    n = 4 * u.degree + 1
    xs = 2.0 * np.pi * np.arange(n) / n
    half = u.coeffs[u.degree :]
    uvals = synthesize_values(half, n)
    svals = problem.kappa * np.asarray(problem.a(uvals), dtype=float)

    # u(x) = c_0 + 2 sum_{j>=1} (Re c_j cos jx - Im c_j sin jx) at arbitrary
    # points, since c_{-j} = conj(c_j): the parseval_weights of a unit row
    j = np.arange(u.degree + 1.0)
    re, im = (half.view(np.float64) * parseval_weights(np.ones_like(j))).reshape(-1, 2).T.copy()

    def s_of_x(x):
        jx = np.multiply.outer(x, j)
        uvals = np.cos(jx) @ re - np.sin(jx) @ im
        return problem.kappa * np.asarray(problem.a(uvals), dtype=float)

    s_min, s_max = _refine_extrema(s_of_x, xs, svals)
    delta_est = 1.0 + s_min
    return EllipticityReport(
        delta_est=float(delta_est),
        A0_est=float(s_max),
        hyperbolicity_lost=bool(delta_est <= 0.0),
    )
