"""Fully discrete trigonometric integrator.

One step of the scheme for u_tt = -Omega^2 u + kappa*f(u), with
Omega = sqrt(1 - d^2/dx^2) acting as multiplication by w_j = sqrt(j^2+1):

    u'  = cos(tau*Om) u + tau*sinc(tau*Om) ud + tau^2/2 sinc(tau*Om) kappa*F(u)
    ud' = -Om*sin(tau*Om) u + cos(tau*Om) ud
          + tau/2 cos(tau*Om) kappa*F(u) + tau/2 kappa*F(u')

where F is the filtered, degree-K-truncated nonlinearity.  The filtered
nonlinearity applies the position filter, evaluates a and g by
trigonometric interpolation on 2K+1 nodes, forms the quasilinear product
on next_fast_len(3K+1) nodes, which gives its kept modes |m| <= K exactly
(Orszag's 3/2 rule: the degree-2K product aliases only onto |m| > K),
truncates to degree K and applies the force filter.

The step kernel, L and the energy diagnostics take their multipliers from
_tables, the one tabulation in tau*Om.  The kernel multiplies each once by
the scalar factors written before it (tau*sinc, tau^2/2*kappa*sinc,
-Om*sin, tau/2*kappa*cos), in the order the formulas above are written.
A step is then a dozen array operations besides the two nonlinearities,
and rounds exactly as the formulas evaluated left to right.

The kernel has one shape: it steps a (B, K+1) stack of half spectra,
modes 0..K of the real fields (see spectral.py), whose row i runs under
its own config.  The sweeps run all filters of one (K, tau) as one
stack; evolve and step (its one-step case) run a one-row stack through
_run.  _evolve_stack alone builds an engine, and _run alone warns about
an inadmissible filter.  Modes 0..K of each array are bitwise those a
full-spectrum kernel would compute, since no operation on them reads a
mode below 0.  The transforms and the product are spectral's.  Spectra
are mirrored to the full -K..K only for an evolve observer and for the
final StatePairs.  The interpolation of a(u) and g is one function,
_interpolate, which the kernel and the energy diagnostics (through
_interpolants, which takes a half spectrum and raises on overflow) share.
"""

from __future__ import annotations

import collections
import copy
import math
import operator
import os
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import filters as flt
from .exceptions import ConfigurationError, DivergenceError, NormGuardError
from .problem import ProblemSpec
from .spectral import (
    SpectralField,
    _omega,
    _pointwise_product,
    coeffs_from_samples,
    mirror_half,
    next_fast_len,
    pair_norm,
    parseval_weights,
    synthesize_values,
)


@dataclass(frozen=True)
class StatePair:
    """Position/velocity pair (u, udot) of equal-degree real fields."""

    u: SpectralField
    udot: SpectralField

    def __post_init__(self):
        if self.u.degree != self.udot.degree:
            raise ConfigurationError(
                f"state degrees differ: {self.u.degree} vs {self.udot.degree}"
            )

    @property
    def degree(self) -> int:
        return self.u.degree

    def __sub__(self, other: "StatePair") -> "StatePair":
        return StatePair(self.u - other.u, self.udot - other.udot)

    def norm(self, s: float = 1.0) -> float:
        return pair_norm(self.u, self.udot, s)


@dataclass(frozen=True)
class IntegratorConfig:
    """Time step, spectral degree and filter for one run."""

    tau: float
    K: int
    filter: flt.FilterSpec

    def __post_init__(self):
        _require_positive_tau(self.tau)
        if _integer("spectral degree K", self.K) < 1:
            raise ConfigurationError("spectral degree K must be >= 1")


# The most steps a config may ask of one run.  That many steps at K = 8
# already take about a day (42 us a step on a 2-core VM), so _n_steps and
# reference_solution reject a count above it as a configuration error
# rather than start the run.
_MAX_STEPS = 2**31

# The norm guard: a run stops with NormGuardError once its H^2 x H^1 norm
# passes this, a million times that of the power-law initial data (about 3).
_MAX_NORM = 1e6


def _integer(name: str, value) -> int:
    """value as an int (operator.index), or ConfigurationError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None


def _require_positive_tau(tau: float):
    if not (math.isfinite(tau) and tau > 0):
        raise ConfigurationError(f"tau must be positive, got {tau}")


def _n_steps(T: float, tau: float) -> int:
    """The step count T/tau, the one horizon rule of every run, sweep and reference.

    Raises ConfigurationError unless T is finite and positive and T/tau a
    whole number of at least one and at most _MAX_STEPS steps.
    """
    if not (math.isfinite(T) and T > 0):
        raise ConfigurationError(f"T must be finite and positive, got {T}")
    _require_positive_tau(tau)
    n = T / tau
    if not math.isfinite(n) or abs(n - round(n)) > 1e-9 * max(1.0, n):
        raise ConfigurationError(f"T/tau must be an integer; T={T}, tau={tau} gives {n}")
    if round(n) < 1:
        raise ConfigurationError(f"T={T} is shorter than one step of tau={tau}")
    if n > _MAX_STEPS:
        raise ConfigurationError(
            f"T/tau = {n:g} steps is more than a run may take ({_MAX_STEPS}); T={T}, tau={tau}"
        )
    return round(n)


def _caller_stacklevel() -> int:
    """The warnings stacklevel, seen from our caller, of the first frame outside qlwave.

    The frames in between vary with the entry point (evolve, step, the
    sweeps, the CLI), so a fixed stacklevel would blame qlwave's own lines.
    """
    package = os.path.dirname(__file__) + os.sep
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    return level


def _warn_if_inadmissible(cfg: IntegratorConfig):
    """Warn, blaming the first frame outside qlwave, if cfg's filter is inadmissible.

    Assumptions 1-2 in closed form: with its derived c0 every filter meets
    assumption 1, and every member of the sinc family meets psi1 = sinc*phi,
    so only impulse (c is None, psi1 = 1) breaks it, as
    filters.check_assumptions samples.  Only _run, the entry of evolve and
    step, calls it, on every call, so it obeys the caller's filters.
    """
    if cfg.filter.c is None:
        warnings.warn(
            f"filter {cfg.filter.label!r} violates the sinc-compatibility/boundedness "
            "conditions; expect step-size restrictions coupled to the spatial resolution",
            RuntimeWarning, stacklevel=_caller_stacklevel(),
        )


_Tables = collections.namedtuple("_Tables", "w w2 dxx cos sin sinc phi psi1")


def _tables(cfg: IntegratorConfig, D: int) -> _Tables:
    """Rows w = sqrt(j^2+1), w^2, -j^2 and cos, sin, sinc, phi, psi1 of tau*w on modes 0..D.

    The one tabulation in tau*Om, on spectral._omega's w.  Each entry is its
    own mode's, so the prefix 0..k of a row is bitwise the degree-k row.
    """
    j = np.arange(D + 1, dtype=float)
    w = _omega(D)
    x = cfg.tau * w
    return _Tables(w, w * w, -(j * j), np.cos(x), np.sin(x), flt.sinc(x),
                   flt.phi(cfg.filter, x), flt.psi1(cfg.filter, x))


def _grad(problem: ProblemSpec, K: int) -> np.ndarray:
    """The half-spectrum rows 1 and d/dx, the latter only if the problem has a g(u, u_x)."""
    rows = np.stack((np.ones(K + 1), 1j * np.arange(K + 1, dtype=float)))
    return rows[: 1 if problem.g is None else 2]


def _interpolate(problem: ProblemSpec, grad_c: np.ndarray, K: int) -> np.ndarray:
    """Rows a_K(u) and, if the problem has one, g_K(u, u_x), from the rows (u, u_x) of grad_c.

    The degree-K trigonometric interpolants on the 2K+1-node grid: one
    batched synthesis and one batched analysis of half spectra of shape
    (rows, ..., K+1), (rows, B, K+1) for a stack.  An overflowing a or g
    leaves its stack rows non-finite and the others as they are alone.
    """
    vals = synthesize_values(grad_c, 2 * K + 1)
    rows = [problem.a(vals[0])]
    if problem.g is not None:
        rows.append(problem.g(vals[0], vals[1]))
    return coeffs_from_samples(np.asarray(rows, dtype=float), K)


class _Engine:
    """Precomputed multiplier tables and transform plan for a stack of runs.

    Built from a sequence of configs that share K and tau, the engine
    steps a (B, K+1) stack of half spectra (modes 0..K) whose row i runs
    under config i: the filter tables have one row per config, and every
    row shares the one row of each tau table.  A single run is a one-row
    stack.  Building one checks no filter (see _warn_if_inadmissible).
    """

    def __init__(self, problem: ProblemSpec, cfgs):
        self.problem = problem
        K, tau = cfgs[0].K, cfgs[0].tau
        if any((c.K, c.tau) != (K, tau) for c in cfgs):
            raise ConfigurationError("stacked configs must share K and tau")
        self.K = K
        self.tau = tau
        self.kappa = problem.kappa

        rows = [_tables(c, K) for c in cfgs]
        t = rows[0]
        self.w2_t, self.w4_t = parseval_weights(t.w2), parseval_weights(t.w2 * t.w2)
        # multipliers times their leading scalar factors (module docstring),
        # stored complex: numpy casts a real factor of a complex product to
        # complex, so the bits are the same without the cast, and a (1, K+1)
        # row also skips the broadcast against a one-row stack
        self.cos_t, self.tsinc_t, self.ksinc_t, self.mwsin_t, self.kcos_t = (
            np.asarray(r, np.complex128)[np.newaxis] for r in (
                t.cos, tau * t.sinc, 0.5 * tau * tau * self.kappa * t.sinc,
                -(t.w * t.sin), 0.5 * tau * self.kappa * t.cos))
        self.khalf = 0.5 * tau * self.kappa
        phi_t = np.asarray([r.phi for r in rows])
        self.psi1_t = np.asarray([r.psi1 for r in rows], np.complex128)
        # position filter times (1, d/dx) and times d^2/dx^2
        self.grad_t = phi_t * _grad(problem, K)[:, None]
        self.dxx_t = np.asarray(phi_t * t.dxx, np.complex128)
        # 3K+1 nodes resolve modes |m| <= K of the degree-2K product exactly
        self.n_prod = next_fast_len(3 * K + 1)

    def take(self, rows: np.ndarray) -> "_Engine":
        """The engine of the stack rows selected by a boolean mask."""
        sub = copy.copy(self)
        sub.grad_t = self.grad_t[:, rows]
        sub.dxx_t = self.dxx_t[rows]
        sub.psi1_t = self.psi1_t[rows]
        return sub

    # -- nonlinearity -------------------------------------------------

    def fhat(self, c: np.ndarray) -> np.ndarray:
        """Filtered nonlinearity psi1 * P_K(a_K(phi u) (phi u)_xx + g_K(phi u, (phi u)_x)).

        Four transform calls on the (B, K+1) stack c: the two of
        _interpolate and the two of spectral's pointwise product of a_K
        and (phi u)_xx on the product grid, keeping modes 0..K.
        """
        ag = _interpolate(self.problem, self.grad_t * c, self.K)
        f = _pointwise_product(ag[0], self.dxx_t * c, self.n_prod, self.K)
        if ag.shape[0] > 1:
            f += ag[1]
        return self.psi1_t * f

    # -- one step ------------------------------------------------------

    def step_arrays(self, u, ud, fn=None):
        """One step of the (B, K+1) stack (u, ud); returns (u', ud', F(u')).

        Bitwise equal to the module docstring's formulas evaluated left to
        right, e.g. ``cos*u + tau*sinc*ud + 0.5*tau*tau*kappa*sinc*F(u)``,
        because each table holds the product of a term's leading factors.
        """
        if self.kappa == 0.0:
            u1 = self.cos_t * u + self.tsinc_t * ud
            ud1 = self.mwsin_t * u + self.cos_t * ud
            return u1, ud1, None
        if fn is None:
            fn = self.fhat(u)
        u1 = self.cos_t * u + self.tsinc_t * ud + self.ksinc_t * fn
        fn1 = self.fhat(u1)
        ud1 = self.mwsin_t * u + self.cos_t * ud + self.kcos_t * fn + self.khalf * fn1
        return u1, ud1, fn1

    def norm_sq(self, u, ud) -> np.ndarray:
        """|u|_2^2 + |ud|_1^2 per row of a contiguous half-spectrum stack, the guard's measure:
        BLAS dots with parseval_weights: the guard needs no parseval_sum, 3-8 us a step dearer."""
        x, y = u.view(np.float64), ud.view(np.float64)
        return np.dot(x * x, self.w4_t) + np.dot(y * y, self.w2_t)


_OVERFLOW = "nonlinearity a(u) or g(u, u_x) overflowed"


def _interpolants(u: np.ndarray, problem: ProblemSpec) -> np.ndarray:
    """The step's unfiltered _interpolate of the half spectrum u at K: rows a_K(u), g_K(u, u_x).

    Half spectra, modes 0..K.  Raises DivergenceError if a row is not
    finite; the analysis of non-finite samples adds no warning of its own.
    """
    K = u.shape[-1] - 1
    with np.errstate(invalid="ignore"):
        ag = _interpolate(problem, _grad(problem, K) * u, K)
    if not np.all(np.isfinite(ag)):
        raise DivergenceError(_OVERFLOW)
    return ag


def _evolve_stack(state0: StatePair, problem: ProblemSpec, cfgs, n_steps: int,
                  observer=None, every: int = 1) -> list:
    """Iterate the one-step map n_steps times from state0 under each of cfgs.

    ``cfgs`` is a sequence of configs sharing K and tau, run as a (B, K+1)
    stack of half spectra whose row i follows cfgs[i].  After each step one
    guard evaluation covers the stack: a row whose guard norm is not within
    _MAX_NORM fails with the first of an overflowing nonlinearity F(u'), a
    non-finite state and the norm guard (ud' holds tau*kappa/2 F(u'), so a
    non-finite F(u') makes the norm non-finite).  It retires with its
    DivergenceError or NormGuardError (step and time set) while the others go on.
    ``observer(n, t, u, ud)`` sees the (rows, 2K+1) full spectra of the
    running rows after the steps n with n % every == 0.  Returns one
    outcome per row: its final StatePair or the exception that retired it.
    """
    engine = _Engine(problem, cfgs)
    K = engine.K
    u = np.broadcast_to(state0.u.coeffs[K:], engine.dxx_t.shape)
    ud = np.broadcast_to(state0.udot.coeffs[K:], engine.dxx_t.shape)
    tau = engine.tau
    max_sq = _MAX_NORM * _MAX_NORM
    outcomes: list = [None] * len(cfgs)
    live = np.arange(len(cfgs))
    fn = None
    for n in range(1, n_steps + 1):
        u, ud, fn = engine.step_arrays(u, ud, fn)
        norm_sq = engine.norm_sq(u, ud)
        # a nan norm fails too; all() over a list is the cheapest one-row check
        if not all(v <= max_sq for v in norm_sq.tolist()):
            keep = norm_sq <= max_sq
            at = f"at step {n} (t={n * tau:g})"
            for i in np.flatnonzero(~keep):
                if fn is not None and not np.all(np.isfinite(fn[i])):
                    exc = DivergenceError(f"nonlinearity overflowed {at}", n, n * tau)
                    exc.__cause__ = DivergenceError(_OVERFLOW)
                elif not (np.all(np.isfinite(u[i])) and np.all(np.isfinite(ud[i]))):
                    exc = DivergenceError(f"non-finite state {at}", n, n * tau)
                else:
                    exc = NormGuardError(f"norm guard tripped {at}: |state| = "
                                         f"{np.sqrt(norm_sq[i]):.3e} > {_MAX_NORM:.3e}", n, n * tau)
                outcomes[live[i]] = exc
            live = live[keep]
            if not live.size:
                break
            engine, u, ud = engine.take(keep), u[keep], ud[keep]
            fn = None if fn is None else fn[keep]
        if observer is not None and n % every == 0:
            observer(n, n * tau, mirror_half(u), mirror_half(ud))
    for row, ui, udi in zip(live, mirror_half(u), mirror_half(ud)):
        outcomes[row] = StatePair(SpectralField(ui), SpectralField(udi))
    return outcomes


def evolve(
    state0: StatePair,
    problem: ProblemSpec,
    cfg: IntegratorConfig,
    n_steps: int,
    observer: Optional[Callable[[int, float, np.ndarray, np.ndarray], None]] = None,
    every: int = 1,
) -> StatePair:
    """Iterate the one-step map n_steps times.

    The trailing nonlinearity evaluation of each step is reused as the
    next step's leading one, so n steps evaluate it n+1 times and the
    trajectory is bitwise that of n step() calls.  ``observer(n, t, u,
    udot)`` is called after the steps n with n % every == 0 (every step
    by default) with fresh full coefficient arrays (modes -K..K) of the
    state; other steps build none.  Raises ConfigurationError for every
    not an integer >= 1 and for n_steps not an integer in 0.._MAX_STEPS,
    DivergenceError (with the failing step index) on an overflowing
    nonlinearity or a non-finite state and NormGuardError when the
    position/velocity norm exceeds _MAX_NORM (1e6).  Warns on every call
    if cfg's filter is impulse.
    """
    n_steps = _integer("n_steps", n_steps)
    if n_steps < 0:
        raise ConfigurationError("n_steps must be >= 0")
    if n_steps > _MAX_STEPS:
        raise ConfigurationError(f"n_steps = {n_steps} is more than a run may take ({_MAX_STEPS})")
    if _integer("observer interval every", every) < 1:
        raise ConfigurationError(f"observer interval every must be >= 1, got {every}")
    row0 = None if observer is None else (lambda n, t, u, ud: observer(n, t, u[0], ud[0]))
    return _run(state0, problem, cfg, n_steps, row0, every)


def _run(state0: StatePair, problem: ProblemSpec, cfg: IntegratorConfig, n_steps: int,
         observer=None, every: int = 1) -> StatePair:
    """The one-row run of evolve and step: checks, warns, and returns or raises its outcome."""
    if state0.degree != cfg.K:
        raise ConfigurationError(f"state degree {state0.degree} does not match config K={cfg.K}")
    _warn_if_inadmissible(cfg)
    [outcome] = _evolve_stack(state0, problem, (cfg,), n_steps, observer, every)
    if isinstance(outcome, DivergenceError):
        raise outcome
    return outcome


def step(state: StatePair, problem: ProblemSpec, cfg: IntegratorConfig) -> StatePair:
    """One step of the scheme: evolve(state, problem, cfg, 1), bit for bit, failing alike."""
    return _run(state, problem, cfg, 1)
