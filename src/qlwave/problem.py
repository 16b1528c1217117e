"""Quasilinear wave problem definitions.

A problem is the equation

    u_tt = u_xx - u + kappa*a(u)*u_xx + kappa*g(u, u_x)

on the 2π-periodic circle, described by the coefficient kappa and the
pointwise-evaluable nonlinearities a and g with a(0) = 0, g(0,0) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    a_prime: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, repr=False)

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

    def a_prime(u):
        return np.ones_like(u)

    return ProblemSpec(kappa=k, a=a, g=g, name="model", a_prime=a_prime)


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
    grid_size: int
    hyperbolicity_lost: bool


def _pointwise(u: SpectralField, x: float) -> float:
    j = mode_numbers(u.degree)
    return float(np.real(np.sum(u.coeffs * np.exp(1j * j * x))))


def _refine_extrema(fn, xs: np.ndarray, vals: np.ndarray, sign: float) -> float:
    """Polish the sampled extremum of a smooth periodic function.

    ``sign=+1`` refines the minimum, ``sign=-1`` the maximum.  Every local
    sampled extremum is polished with a bounded scalar minimization on its
    bracketing interval, so the result is grid-independent once the grid
    resolves all oscillations.
    """
    from scipy.optimize import minimize_scalar  # slow to import; only this needs it

    n = xs.size
    f = sign * vals
    best = float(np.min(f))
    is_local = (f <= np.roll(f, 1)) & (f <= np.roll(f, -1))
    for i in np.nonzero(is_local)[0]:
        lo = xs[i] - 2.0 * np.pi / n
        hi = xs[i] + 2.0 * np.pi / n
        res = minimize_scalar(
            lambda x: sign * fn(x), bounds=(lo, hi), method="bounded",
            options={"xatol": 1e-12},
        )
        best = min(best, float(res.fun))
    return sign * best


def ellipticity_report(
    problem: ProblemSpec, u: SpectralField, n: int | None = None
) -> EllipticityReport:
    """Estimate the hyperbolicity margin and amplitude bound for a snapshot.

    Samples kappa*a(u(x)) on an n-point grid (default 4K+1) and polishes
    the sampled extrema so the estimates are stable under grid refinement.
    """
    if n is None:
        n = 4 * u.degree + 1
    if n < 2 * u.degree + 1:
        raise ConfigurationError(f"grid of {n} nodes cannot resolve degree {u.degree}")
    xs = 2.0 * np.pi * np.arange(n) / n
    uvals = synthesize_values(u.coeffs, n)
    svals = problem.kappa * np.asarray(problem.a(uvals), dtype=float)

    def s_of_x(x):
        return problem.kappa * float(problem.a(np.asarray([_pointwise(u, x)]))[0])

    s_min = _refine_extrema(s_of_x, xs, svals, +1.0)
    s_max = _refine_extrema(s_of_x, xs, svals, -1.0)
    delta_est = 1.0 + s_min
    return EllipticityReport(
        delta_est=float(delta_est),
        A0_est=float(s_max),
        grid_size=int(n),
        hyperbolicity_lost=bool(delta_est <= 0.0),
    )
