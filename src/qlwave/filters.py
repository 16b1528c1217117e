"""Filter-function catalog and admissibility checks.

A filter is a pair (phi, psi1) of scalar functions applied as Fourier
multipliers in tau*Omega inside the integrator.  The catalog holds the
unfiltered impulse variant (phi = psi1 = 1) and the family
phi(xi) = sinc(c*xi), psi1 = sinc*phi, for c >= 0.  The two classical
filters are members of the family: Hairer-Lubich (hl, phi = 1) is c = 0
and Grimm-Hochbruck (gh, phi = sinc) is c = 1; larger c damps more, for
strong nonlinearities.  Admissibility is certified by sampling three
conditions:

  1. boundedness:        |phi| <= 1, |1-phi(xi)| <= c0*xi^2 (same for psi1),
  2. sinc compatibility: psi1(xi) = sinc(xi)*phi(xi),
  3. damping:            A0*sin(xi/2)^2*phi(xi)^2 <= 1-delta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigurationError

# Below this threshold sinc is evaluated by its degree-7 Taylor polynomial,
# which keeps the relative error <= 1e-16 and gives sinc(0) = 1 exactly.
_SINC_TAYLOR_CUTOFF = 1e-2


def sinc(xi):
    """Unnormalized sinc sin(xi)/xi, stable near zero."""
    x = np.asarray(xi, dtype=float)
    small = np.abs(x) < _SINC_TAYLOR_CUTOFF
    x2 = x * x
    taylor = 1.0 - x2 / 6.0 + x2 * x2 / 120.0 - x2 * x2 * x2 / 5040.0
    safe = np.where(small, 1.0, x)
    direct = np.sin(safe) / safe
    out = np.where(small, taylor, direct)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class FilterSpec:
    """One catalog filter: impulse (c is None) or the sinc family member c, and its label."""

    label: str
    c: float | None = None

    def __post_init__(self):
        if self.c is not None and (self.c < 0 or not np.isfinite(self.c)):
            raise ConfigurationError("filter parameter c must be finite and >= 0")

    @property
    def c0(self) -> float:
        """The constant of |1-phi(xi)| <= c0*xi^2 (same for psi1): 0 for impulse, else fixed by c."""
        return 0.0 if self.c is None else max(1.0, (self.c * self.c + 1.0) / 6.0)


def impulse() -> FilterSpec:
    return FilterSpec("impulse")


def hairer_lubich() -> FilterSpec:
    """Hairer-Lubich (phi = 1, psi1 = sinc): the family member c = 0."""
    return FilterSpec("hl", 0.0)


def grimm_hochbruck() -> FilterSpec:
    """Grimm-Hochbruck (phi = sinc, psi1 = sinc^2): the family member c = 1."""
    return FilterSpec("gh", 1.0)


def sinc_c(c: float) -> FilterSpec:
    c = float(c) + 0.0  # + 0.0 turns -0.0 into 0.0, so sinc:-0 is sinc:0
    # {c:g} keeps six significant digits; a c it does not spell gets repr
    short = f"{c:g}"
    return FilterSpec(f"sinc:{short if float(short) == c else repr(c)}", c)


def parse_filter(text: str) -> FilterSpec:
    """Parse a CLI/config filter string: impulse | hl | gh | sinc:<c>."""
    t = text.strip().lower()
    if t == "impulse":
        return impulse()
    if t == "hl":
        return hairer_lubich()
    if t == "gh":
        return grimm_hochbruck()
    if t.startswith("sinc:"):
        try:
            return sinc_c(float(t.split(":", 1)[1]))
        except ValueError as exc:
            raise ConfigurationError(f"bad sinc filter parameter in {text!r}") from exc
    raise ConfigurationError(f"unknown filter {text!r} (expected impulse|hl|gh|sinc:<c>)")


def phi(spec: FilterSpec, xi):
    """Position filter phi evaluated at xi >= 0: 1 for impulse, else sinc(c*xi)."""
    x = np.asarray(xi, dtype=float)
    out = np.ones_like(x) if spec.c is None else np.asarray(sinc(spec.c * x))
    return out if out.ndim else float(out)


def psi1(spec: FilterSpec, xi):
    """Force filter psi1: 1 for impulse, else sinc*phi."""
    x = np.asarray(xi, dtype=float)
    out = np.ones_like(x) if spec.c is None else np.asarray(sinc(x)) * np.asarray(phi(spec, x))
    return out if out.ndim else float(out)


def min_c_for(a0: float, delta: float) -> float:
    """Smallest admissible sinc parameter c for given bound a0 and margin delta."""
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"delta must lie in (0, 1), got {delta}")
    if a0 < 0:
        raise ConfigurationError(f"a0 must be >= 0, got {a0}")
    return 0.5 * np.sqrt(a0 / (1.0 - delta))


def default_xi_grid() -> np.ndarray:
    """The sampling grid of check_assumptions: 0 and 10 000 geometric points from 1e-6 to 1e3."""
    return np.concatenate(([0.0], np.geomspace(1e-6, 1e3, 10_000)))


@dataclass(frozen=True)
class AdmissibilityReport:
    """Sampled verdicts for the three filter conditions.

    ``worst_margin``/``worst_xi`` record the tightest slack of the damping
    condition 1-delta - A0*sin(xi/2)^2*phi(xi)^2 over the grid.
    """

    assumption1_ok: bool
    assumption2_ok: bool
    assumption3_ok: bool
    worst_margin: float
    worst_xi: float
    delta: float
    A0: float

    @property
    def all_ok(self) -> bool:
        return self.assumption1_ok and self.assumption2_ok and self.assumption3_ok


def check_assumptions(spec: FilterSpec, delta: float, a0: float) -> AdmissibilityReport:
    """Sample the three admissibility conditions on default_xi_grid().

    The conditions are universally quantified in xi; this is a desk-scale
    certification on the sampled grid, not a proof.
    """
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"delta must lie in (0, 1), got {delta}")
    if a0 < 0 or not np.isfinite(a0):
        raise ConfigurationError(f"A0 must be finite and >= 0, got {a0}")
    xi = default_xi_grid()
    ph = np.asarray(phi(spec, xi))
    ps = np.asarray(psi1(spec, xi))
    tol = 1e-12

    quad = spec.c0 * xi * xi
    ok1 = bool(
        np.all(np.abs(ph) <= 1.0 + tol)
        and np.all(np.abs(1.0 - ph) <= quad + tol)
        and np.all(np.abs(ps) <= 1.0 + tol)
        and np.all(np.abs(1.0 - ps) <= quad + tol)
    )
    ok2 = bool(np.max(np.abs(ps - np.asarray(sinc(xi)) * ph)) <= tol)

    slack = (1.0 - delta) - a0 * np.sin(0.5 * xi) ** 2 * ph**2
    i = int(np.argmin(slack))
    ok3 = bool(slack[i] >= 0.0)

    return AdmissibilityReport(
        assumption1_ok=ok1,
        assumption2_ok=ok2,
        assumption3_ok=ok3,
        worst_margin=float(slack[i]),
        worst_xi=float(xi[i]),
        delta=float(delta),
        A0=float(a0),
    )


@dataclass(frozen=True)
class ScalarInequalityReport:
    """Minimum slack of A*cos(xi)*phi^2 - A^2*sin(xi)^2*phi^4/4 >= -1 + delta/2."""

    min_margin: float
    worst_A: float
    worst_xi: float
    delta: float

    @property
    def certified(self) -> bool:
        return self.min_margin >= 0.0


def scalar_inequality_check(
    spec: FilterSpec,
    delta: float,
    a_grid: np.ndarray,
    xi_grid: np.ndarray,
) -> ScalarInequalityReport:
    """Sample the scalar stability inequality over an (A, xi) grid.

    The amplitude grid is expected to lie in [-1 + delta/2, A0 + delta/2];
    the inequality is a parabola in A, so certifying the two boundary
    values certifies the whole interval for each xi.
    """
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"delta must lie in (0, 1), got {delta}")
    a = np.asarray(a_grid, dtype=float)
    xi = np.asarray(xi_grid, dtype=float)
    if a.size == 0 or xi.size == 0:
        raise ConfigurationError("A and xi grids must be non-empty")
    ph2 = np.asarray(phi(spec, xi)) ** 2
    lhs = (
        a[:, None] * (np.cos(xi) * ph2)[None, :]
        - 0.25 * (a * a)[:, None] * (np.sin(xi) ** 2 * ph2 * ph2)[None, :]
    )
    margin = lhs - (-1.0 + 0.5 * delta)
    ia, ix = np.unravel_index(int(np.argmin(margin)), margin.shape)
    return ScalarInequalityReport(
        min_margin=float(margin[ia, ix]),
        worst_A=float(a[ia]),
        worst_xi=float(xi[ix]),
        delta=float(delta),
    )
