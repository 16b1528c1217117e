"""Filter-function catalog and admissibility checks.

A filter is a pair (phi, psi1) of scalar functions applied as Fourier
multipliers in tau*Omega inside the integrator.  The catalog holds the
unfiltered impulse variant (phi = psi1 = 1) and the family
phi(xi) = sinc(c*xi), psi1 = sinc*phi, for c >= 0.  The two classical
filters are members of the family: Hairer-Lubich (hl, phi = 1) is c = 0
and Grimm-Hochbruck (gh, phi = sinc) is c = 1; larger c damps more, for
strong nonlinearities.  Admissibility is three conditions:

  1. boundedness:        |phi| <= 1, |1-phi(xi)| <= c0*xi^2 (same for psi1),
  2. sinc compatibility: psi1(xi) = sinc(xi)*phi(xi),
  3. damping:            A0*sin(xi/2)^2*phi(xi)^2 <= 1-delta,

and the energy estimate needs the scalar stability inequality

  A*cos(xi)*phi^2 - A^2*sin(xi)^2*phi^4/4 >= -1 + delta/2
  for every A in [-1 + delta/2, A0 + delta/2].

Conditions 1-2 depend on the filter alone and are decided in closed form,
by FilterSpec.bounded and FilterSpec.sinc_compatible.  check_assumptions
certifies a filter for (delta, A0): it samples phi once on one xi grid
for both the damping condition and the inequality, which is concave in A
and so takes A at the two ends of its interval alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigurationError

# Below this threshold sinc is evaluated by its degree-7 Taylor polynomial,
# which keeps the relative error <= 1e-16 and gives sinc(0) = 1 exactly.
_SINC_TAYLOR_CUTOFF = 1e-2
# phi caps c*xi at this bound, so a finite c never overflows it to inf,
# whose sine is nan
_HALF_MAX = 0.5 * np.finfo(float).max


def sinc(xi):
    """Unnormalized sinc sin(xi)/xi, stable near zero."""
    x = np.asarray(xi, dtype=float)
    small = np.abs(x) < _SINC_TAYLOR_CUTOFF
    # the polynomial sees only its own arguments, so a large x cannot overflow in it
    xs = np.where(small, x, 0.0)
    x2 = xs * xs
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

    @property
    def bounded(self) -> bool:
        """Condition 1: it holds with the derived c0 whenever c0 is finite, so for c <= 1.34e154."""
        return math.isfinite(self.c0)

    @property
    def sinc_compatible(self) -> bool:
        """Condition 2, psi1 = sinc*phi: every sinc-family member meets it, impulse does not."""
        return self.c is not None


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
    """Position filter phi evaluated at xi >= 0: 1 for impulse, else sinc(c*xi).

    xi is capped so that c*xi stays at most about 9e307: phi is finite for
    every finite c and bitwise sinc(c*xi) below the cap.
    """
    x = np.asarray(xi, dtype=float)
    if spec.c is None:
        out = np.ones_like(x)
    else:
        # below c = 0.5 the cap is the largest float, so it never binds
        out = np.asarray(sinc(spec.c * np.minimum(x, _HALF_MAX / max(spec.c, 0.5))))
    return out if out.ndim else float(out)


def psi1(spec: FilterSpec, xi):
    """Force filter psi1: 1 for impulse, else sinc*phi."""
    x = np.asarray(xi, dtype=float)
    out = np.ones_like(x) if spec.c is None else np.asarray(sinc(x)) * np.asarray(phi(spec, x))
    return out if out.ndim else float(out)


def _require_margins(delta: float, a0: float = 0.0):
    """Reject a delta outside (0, 1) and an A0 that is negative or not finite."""
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"delta must lie in (0, 1), got {delta}")
    if a0 < 0 or not np.isfinite(a0):
        raise ConfigurationError(f"A0 must be finite and >= 0, got {a0}")


def min_c_for(a0: float, delta: float) -> float:
    """The paper's sufficient sinc parameter sqrt(a0/(1-delta))/2 for bound a0 and margin delta.

    Since sin(xi/2)^2*sinc(c*xi)^2 <= 1/(4c^2), every c at or above it meets
    the damping condition; the bound is not sharp, so a smaller c may too.
    """
    _require_margins(delta, a0)
    return 0.5 * np.sqrt(a0 / (1.0 - delta))


def default_xi_grid() -> np.ndarray:
    """The sampling grid of check_assumptions: 0 and 10 000 geometric points from 1e-6 to 1e3."""
    return np.concatenate(([0.0], np.geomspace(1e-6, 1e3, 10_000)))


@dataclass(frozen=True)
class AdmissibilityReport:
    """Verdicts for the three filter conditions and the scalar stability inequality.

    ``worst_margin``/``worst_xi`` record the tightest slack of the damping
    condition 1-delta - A0*sin(xi/2)^2*phi(xi)^2 over the grid, and
    ``scalar_margin`` the least slack of the scalar inequality over the
    grid and A in [-1 + delta/2, A0 + delta/2].
    """

    assumption1_ok: bool
    assumption2_ok: bool
    assumption3_ok: bool
    worst_margin: float
    worst_xi: float
    scalar_ok: bool
    scalar_margin: float

    @property
    def all_ok(self) -> bool:
        return (self.assumption1_ok and self.assumption2_ok and self.assumption3_ok
                and self.scalar_ok)


def check_assumptions(spec: FilterSpec, delta: float, a0: float) -> AdmissibilityReport:
    """Conditions 1-2 from spec's closed forms; damping and scalar inequality on default_xi_grid().

    Both sampled checks are universally quantified in xi; their verdicts are
    a desk-scale certification on the grid, not a proof.  The inequality is
    a concave parabola in A, so its minimum over the A interval is at one of
    the two ends, and those two values of A are exact.
    """
    _require_margins(delta, a0)
    xi = default_xi_grid()
    ph2 = np.asarray(phi(spec, xi)) ** 2
    slack = (1.0 - delta) - a0 * np.sin(0.5 * xi) ** 2 * ph2
    i = int(np.argmin(slack))
    # -1 + delta/2 is both the lower end of A and the bound, so A at that end
    # and xi = 0 reads a slack of exactly 0, the inequality's tight point
    low = -1.0 + 0.5 * delta
    a = np.array([[low], [a0 + 0.5 * delta]])
    lhs = a * (np.cos(xi) * ph2) - 0.25 * (a * a) * (np.sin(xi) ** 2 * ph2 * ph2)
    scalar = float(np.min(lhs - low))
    return AdmissibilityReport(
        assumption1_ok=spec.bounded,
        assumption2_ok=spec.sinc_compatible,
        assumption3_ok=bool(slack[i] >= 0.0),
        worst_margin=float(slack[i]),
        worst_xi=float(xi[i]),
        scalar_ok=bool(scalar >= 0.0),
        scalar_margin=scalar,
    )
