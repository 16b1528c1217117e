"""Quasilinear wave problem definitions.

A problem is the equation

    u_tt = u_xx - u + kappa*a(u)*u_xx + kappa*g(u, u_x)

on the 2π-periodic circle, described by the coefficient kappa and the
pointwise-evaluable nonlinearities a and g with a(0) = 0, g(0,0) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exceptions import ConfigurationError
from .spectral import SpectralField, mode_numbers, synthesize_values

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


# golden-section shrink factor (sqrt(5) - 1) / 2, and the bracket width
# at which _refine_extrema stops
_INV_PHI = 0.5 * (math.sqrt(5.0) - 1.0)
_XATOL = 1e-12


def _refine_extrema(fn, xs: np.ndarray, vals: np.ndarray) -> tuple[float, float]:
    """Polished minimum and maximum of a smooth periodic function.

    ``vals`` samples ``fn`` at the equispaced nodes ``xs``.  Every local
    sampled extremum is polished by a golden-section search on its
    bracketing interval xs[i] +- 2*pi/n, all brackets of both kinds at
    once (``fn`` maps an array of points to an array of values), until the
    brackets are narrower than _XATOL.  The results are grid-independent
    once the grid resolves all oscillations, and never worse than the best
    samples.
    """
    n = xs.size
    is_min = (vals <= np.roll(vals, 1)) & (vals <= np.roll(vals, -1))
    is_max = (vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1))
    # search for minima of sign * fn: +1 on the minima's brackets, -1 on the maxima's
    sign = np.concatenate((np.ones(np.count_nonzero(is_min)), -np.ones(np.count_nonzero(is_max))))
    # every bracket [lo, lo + w] has the same width w, and its inner points
    # lo + (1 - phi) w and lo + phi w have the values fc and fd
    w = 4.0 * np.pi / n
    lo = np.concatenate((xs[is_min], xs[is_max])) - 0.5 * w
    fc = sign * fn(lo + (1.0 - _INV_PHI) * w)
    fd = sign * fn(lo + _INV_PHI * w)
    while w > _XATOL:
        # keep [lo, d] around the better inner point c, or [c, hi] around d;
        # the kept point is an inner point of the new bracket (phi^2 = 1 - phi)
        left = fc < fd
        lo = np.where(left, lo, lo + (1.0 - _INV_PHI) * w)
        w *= _INV_PHI
        f_new = sign * fn(lo + np.where(left, 1.0 - _INV_PHI, _INV_PHI) * w)
        fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)
    # each step keeps the better of fc and fd, so their minimum is the best
    # value seen in the bracket
    best = np.minimum(fc, fd)
    low = best[sign > 0]
    high = best[sign < 0]
    return float(min(np.min(vals), np.min(low))), float(max(np.max(vals), -np.min(high)))


def ellipticity_report(problem: ProblemSpec, u: SpectralField) -> EllipticityReport:
    """Estimate the hyperbolicity margin and amplitude bound for a snapshot.

    Samples kappa*a(u(x)) on the 4K+1 equispaced nodes and polishes the
    sampled extrema so the estimates are stable under grid refinement.
    """
    n = 4 * u.degree + 1
    xs = 2.0 * np.pi * np.arange(n) / n
    half = u.coeffs[u.degree :]
    uvals = synthesize_values(half, n)
    svals = problem.kappa * np.asarray(problem.a(uvals), dtype=float)

    # u(x) = c_0 + 2 Re sum_{j>=1} c_j e^{ijx} at arbitrary points, since
    # c_{-j} = conj(c_j)
    j = np.arange(u.degree + 1.0)
    half = half * np.where(j == 0.0, 1.0, 2.0)

    def s_of_x(x):
        uvals = np.real(np.exp(np.multiply.outer(x, 1j * j)) @ half)
        return problem.kappa * np.asarray(problem.a(uvals), dtype=float)

    s_min, s_max = _refine_extrema(s_of_x, xs, svals)
    delta_est = 1.0 + s_min
    return EllipticityReport(
        delta_est=float(delta_est),
        A0_est=float(s_max),
        hyperbolicity_lost=bool(delta_est <= 0.0),
    )
