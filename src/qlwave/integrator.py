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

The step kernel tabulates each multiplier once per step size together
with the scalar factors written before it (tau*sinc, tau^2/2*kappa*sinc,
-Om*sin, tau/2*kappa*cos), each product formed in the order the formulas
above are written.  A step is then a dozen array operations besides the
two nonlinearities, and rounds exactly as the formulas evaluated left to
right.

The kernel works on half spectra, modes 0..K of the real fields (see
spectral.py): every table, state and nonlinearity holds K+1 modes, and
modes 0..K of each array are bitwise those a full-spectrum kernel would
compute, since no operation on them reads a mode below 0.  Spectra are
mirrored to the full -K..K only at the boundaries: for an evolve
observer, for the final StatePairs, and on the way out of step,
filtered_nonlinear_term and _interpolants, which take the modes 0..K of
their SpectralField arguments on the way in.
"""

from __future__ import annotations

import copy
import functools
import math
import os
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.fft

from . import filters as flt
from .exceptions import ConfigurationError, DivergenceError, NormGuardError
from .problem import ProblemSpec
from .spectral import (
    SpectralField,
    analyze_half,
    coeffs_from_samples,
    dealiased_product,
    derivative,
    mirror_half,
    omega_weights,
    pair_norm,
    synthesize_half,
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

    def negated_velocity(self) -> "StatePair":
        return StatePair(self.u, -self.udot)


@dataclass(frozen=True)
class IntegratorConfig:
    """Time step, spectral degree, filter and guards for one run."""

    tau: float
    K: int
    filter: flt.FilterSpec
    max_norm: float = 1e6
    admissibility_policy: str = "warn"  # warn | ignore

    def __post_init__(self):
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise ConfigurationError(f"tau must be positive, got {self.tau}")
        if self.K < 1:
            raise ConfigurationError("spectral degree K must be >= 1")
        if self.admissibility_policy not in ("warn", "ignore"):
            raise ConfigurationError(
                f"unknown admissibility policy {self.admissibility_policy!r}"
            )


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


class _Engine:
    """Precomputed multiplier tables and transform plan for one step size.

    Built from one config, the filter tables are 1-D and the engine steps
    a 1-D state.  Built from a sequence of configs that share K and tau,
    the filter tables have one row per config and the engine steps a
    (B, K+1) stack whose row i runs under config i; the tau tables are
    shared.  The same fhat and step_arrays serve both by broadcasting.
    Every table, state and nonlinearity is a half spectrum, modes 0..K.
    """

    def __init__(self, problem: ProblemSpec, cfgs):
        stacked = not isinstance(cfgs, IntegratorConfig)
        self.cfgs = tuple(cfgs) if stacked else (cfgs,)
        self.problem = problem
        cfg = self.cfgs[0]
        K, tau = cfg.K, cfg.tau
        if any((c.K, c.tau) != (K, tau) for c in self.cfgs):
            raise ConfigurationError("stacked configs must share K and tau")
        self.K = K
        self.tau = tau
        self.kappa = problem.kappa

        w1 = omega_weights(K)[K:]
        j = np.arange(K + 1, dtype=float)
        # norm-guard weights w^4 and w^2 of the half spectrum, one per real
        # and one per imaginary part: a mode j >= 1 stands for j and -j,
        # which have equal moduli
        twice = np.where(j > 0, 2.0, 1.0)
        self.w2_t = np.repeat(twice * (w1 * w1), 2)
        self.w4_t = np.repeat(twice * ((w1 * w1) * (w1 * w1)), 2)
        # multipliers times their leading scalar factors (module docstring)
        sinc_t = flt.sinc(tau * w1)
        self.cos_t = np.cos(tau * w1)
        self.tsinc_t = tau * sinc_t
        self.ksinc_t = 0.5 * tau * tau * self.kappa * sinc_t
        self.mwsin_t = -(w1 * np.sin(tau * w1))
        self.kcos_t = 0.5 * tau * self.kappa * self.cos_t
        self.khalf = 0.5 * tau * self.kappa
        phi_t = np.asarray([flt.phi(c.filter, tau * w1) for c in self.cfgs])
        self.psi1_t = np.asarray([flt.psi1(c.filter, tau * w1) for c in self.cfgs])
        if not stacked:
            phi_t, self.psi1_t = phi_t[0], self.psi1_t[0]
        # position filter times (1, d/dx) and times d^2/dx^2; the d/dx row is
        # only needed when the problem has a g(u, u_x)
        grad = np.stack((np.ones(K + 1), 1j * j))[: 1 if problem.g is None else 2]
        self.grad_t = phi_t * (grad[:, None] if stacked else grad)
        self.dxx_t = phi_t * -(j * j)
        self.n_interp = 2 * K + 1
        # 3K+1 nodes resolve modes |m| <= K of the degree-2K product exactly
        self.n_prod = scipy.fft.next_fast_len(3 * K + 1, real=True)

        for c in self.cfgs:
            self._check_filter(c)

    def take(self, rows: np.ndarray) -> "_Engine":
        """The engine of the stack rows selected by a boolean mask."""
        sub = copy.copy(self)
        sub.cfgs = tuple(c for c, keep in zip(self.cfgs, rows) if keep)
        sub.grad_t = self.grad_t[:, rows]
        sub.dxx_t = self.dxx_t[rows]
        sub.psi1_t = self.psi1_t[rows]
        return sub

    def _check_filter(self, cfg: IntegratorConfig):
        if cfg.admissibility_policy == "ignore":
            return
        grid = flt.default_xi_grid(n=512, xi_max=max(4.0, 2.0 * self.tau * np.sqrt(self.K**2 + 1)))
        report = flt.check_assumptions(cfg.filter, delta=0.5, a0=0.0, xi_grid=grid)
        if not (report.assumption1_ok and report.assumption2_ok):
            warnings.warn(
                f"filter {cfg.filter.label!r} violates the sinc-compatibility/boundedness "
                "conditions; expect step-size restrictions coupled to the spatial resolution",
                RuntimeWarning, stacklevel=_caller_stacklevel(),
            )

    # -- nonlinearity -------------------------------------------------

    def interpolants(self, c: np.ndarray) -> np.ndarray:
        """Rows a_K(u) and, if the problem has one, g_K(u, u_x), for u = phi * c.

        a_K and g_K are the degree-K trigonometric interpolants of the
        pointwise nonlinearities on the 2K+1-node grid; one batched
        synthesis and one batched analysis.  For a (B, K+1) stack c the
        result has shape (rows, B, K+1).
        """
        vals = synthesize_half(self.grad_t * c, self.n_interp)
        rows = [self.problem.a(vals[0])]
        if self.problem.g is not None:
            rows.append(self.problem.g(vals[0], vals[1]))
        f = np.asarray(rows, dtype=float)
        # a finite sum proves every sample finite; only a non-finite sum,
        # which finite samples can also reach by overflow, needs the scan
        if not math.isfinite(f.sum()):
            finite = np.all(np.isfinite(f), axis=(0, -1))
            if not np.all(finite):
                exc = DivergenceError("nonlinearity a(u) or g(u, u_x) overflowed")
                # which rows of a stack overflowed, for the step loop to retire
                exc.rows = ~finite
                raise exc
        return analyze_half(f, self.K)

    def fhat(self, c: np.ndarray) -> np.ndarray:
        """Filtered nonlinearity psi1 * P_K(a_K(phi u) (phi u)_xx + g_K(phi u, (phi u)_x)).

        Four transform calls: the two of interpolants, one batched
        synthesis of (a_K, (phi u)_xx) on the product grid, and one
        analysis of their pointwise product keeping modes 0..K.  The
        synthesis reads a fresh zeroed buffer of n_prod//2+1 modes per
        call: engines are shared (_cached_engine), so they hold none.

        The analysis goes through the full-spectrum coeffs_from_samples
        and keeps its modes 0..K (analyze_half's, bit for bit), so that
        the benchmark's traced runs, which count transforms by that name
        and by synthesize_values, still see the step's transform work.
        """
        ag = self.interpolants(c)
        uxx = self.dxx_t * c
        spec = np.zeros((2,) + uxx.shape[:-1] + (self.n_prod // 2 + 1,), np.complex128)
        spec[0, ..., : self.K + 1] = ag[0]
        spec[1, ..., : self.K + 1] = uxx
        vals = synthesize_half(spec, self.n_prod)
        f = coeffs_from_samples(vals[0] * vals[1], self.K)[..., self.K :]
        if ag.shape[0] > 1:
            f += ag[1]
        return self.psi1_t * f

    # -- one step ------------------------------------------------------

    def step_arrays(self, u, ud, fn=None):
        """One step on half spectra; returns (u', ud', F(u')).

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

    def norm_sq(self, u, ud) -> float:
        """|u|_2^2 + |ud|_1^2 of one contiguous half-spectrum state, the norm guard's measure."""
        x, y = u.view(np.float64), ud.view(np.float64)
        return float(self.w4_t @ (x * x) + self.w2_t @ (y * y))


@functools.lru_cache(maxsize=8)
def _cached_engine(problem: ProblemSpec, cfg: IntegratorConfig) -> _Engine:
    """The engine of one (problem, cfg) for the one-call entry points.

    Both keys are frozen, and an engine is never mutated after it is
    built, so repeated step() calls share one build and its admissibility
    sampling.
    """
    return _Engine(problem, cfg)


def _require_degree(state: StatePair, cfg: IntegratorConfig):
    if state.degree != cfg.K:
        raise ConfigurationError(f"state degree {state.degree} does not match config K={cfg.K}")


def _interpolants(u: SpectralField, problem: ProblemSpec) -> np.ndarray:
    """_Engine.interpolants of u at K = deg u, unfiltered: rows a_K(u) and g_K(u, u_x)."""
    K = u.degree
    engine = _cached_engine(problem, IntegratorConfig(tau=1.0, K=K, filter=flt.impulse(),
                                                      admissibility_policy="ignore"))
    return mirror_half(engine.interpolants(u.coeffs[K:]))


def nonlinear_term(u: SpectralField, problem: ProblemSpec) -> SpectralField:
    """Unfiltered interpolated nonlinearity aK(u)*u_xx + gK(u,u_x), degree 2K."""
    ag = _interpolants(u, problem)
    out = dealiased_product(SpectralField(ag[0]), derivative(u, 2))
    return out + SpectralField(ag[1]) if ag.shape[0] > 1 else out


def filtered_nonlinear_term(
    u: SpectralField, problem: ProblemSpec, cfg: IntegratorConfig
) -> SpectralField:
    """Filtered degree-K nonlinearity used inside one step."""
    if u.degree != cfg.K:
        raise ConfigurationError(f"field degree {u.degree} does not match config K={cfg.K}")
    engine = _cached_engine(problem, cfg)
    return SpectralField(mirror_half(engine.fhat(u.coeffs[cfg.K:])))


def linear_propagator(state: StatePair, t: float) -> StatePair:
    """Exact flow of the linear part over time t (norm-preserving rotation)."""
    w = omega_weights(state.degree)
    c, s = np.cos(t * w), np.sin(t * w)
    snc = t * np.asarray(flt.sinc(t * w))
    u, ud = state.u.coeffs, state.udot.coeffs
    return StatePair(
        SpectralField(c * u + snc * ud),
        SpectralField(-w * s * u + c * ud),
    )


def step(state: StatePair, problem: ProblemSpec, cfg: IntegratorConfig) -> StatePair:
    """Advance one time step with the one-step form of the scheme."""
    _require_degree(state, cfg)
    engine = _cached_engine(problem, cfg)
    K = cfg.K
    u1, ud1, _ = engine.step_arrays(state.u.coeffs[K:], state.udot.coeffs[K:])
    return StatePair(SpectralField(mirror_half(u1)), SpectralField(mirror_half(ud1)))


def _evolve_stack(state0: StatePair, problem: ProblemSpec, cfgs, n_steps: int,
                  observer=None, every: int = 1) -> list:
    """Iterate the one-step map n_steps times from state0 under each of cfgs.

    ``cfgs`` is one config, run on 1-D states, or a sequence of configs
    sharing K and tau, run as a (B, K+1) stack of half spectra whose row i
    follows cfgs[i].  After each step every running row is checked, in
    this order, for an overflowing nonlinearity, a non-finite state and
    the norm guard; a failing row retires with its DivergenceError or
    NormGuardError (step and time set) and the other rows go on.
    ``observer(n, t, u, ud)`` sees the full spectra of the running rows
    after the steps n with n % every == 0.  Returns one outcome per row:
    its final StatePair or the exception that retired it.
    """
    engine = _Engine(problem, cfgs)
    K = engine.K
    u = np.broadcast_to(state0.u.coeffs[K:], engine.dxx_t.shape)
    ud = np.broadcast_to(state0.udot.coeffs[K:], engine.dxx_t.shape)
    tau = engine.tau
    row_cfgs = engine.cfgs
    max_sq = [c.max_norm * c.max_norm for c in row_cfgs]
    outcomes: list = [None] * len(row_cfgs)
    live = list(range(len(row_cfgs)))
    fn = None

    def retire(failed: dict) -> bool:
        """Record the failed rows' outcomes and drop them; False when none run."""
        nonlocal engine, u, ud, fn, live
        keep = np.ones(len(live), dtype=bool)
        for i, exc in failed.items():
            outcomes[live[i]] = exc
            keep[i] = False
        live = [r for r, k in zip(live, keep) if k]
        if not live:
            return False
        engine, u, ud = engine.take(keep), u[keep], ud[keep]
        fn = None if fn is None else fn[keep]
        return True

    def kernel_step(n: int):
        """Step n of the running rows, retiring those whose nonlinearity overflows."""
        while True:
            try:
                return engine.step_arrays(u, ud, fn)
            except DivergenceError as exc:
                failed = {}
                for i in np.flatnonzero(exc.rows):
                    failed[i] = DivergenceError(
                        f"nonlinearity overflowed at step {n} (t={n * tau:g})",
                        step=n, time=n * tau,
                    )
                    failed[i].__cause__ = exc
                if not retire(failed):
                    return None

    for n in range(1, n_steps + 1):
        stepped = kernel_step(n)
        if stepped is None:
            break
        u, ud, fn = stepped
        u_rows, ud_rows = u.reshape(len(live), -1), ud.reshape(len(live), -1)
        failed = {}
        for i, row in enumerate(live):
            ui, udi = u_rows[i], ud_rows[i]
            norm_sq = engine.norm_sq(ui, udi)
            if norm_sq <= max_sq[row] and math.isfinite(norm_sq):
                continue
            # a non-finite state makes norm_sq non-finite; a finite state may
            # still overflow it, which is the norm guard's case below
            if not math.isfinite(norm_sq) and not (
                np.all(np.isfinite(ui.view(np.float64)))
                and np.all(np.isfinite(udi.view(np.float64)))
            ):
                failed[i] = DivergenceError(
                    f"non-finite state at step {n} (t={n * tau:g})", step=n, time=n * tau
                )
            elif norm_sq > max_sq[row]:
                failed[i] = NormGuardError(
                    f"norm guard tripped at step {n} (t={n * tau:g}): "
                    f"|state| = {np.sqrt(norm_sq):.3e} > {row_cfgs[row].max_norm:.3e}",
                    step=n, time=n * tau,
                )
        if failed and not retire(failed):
            break
        if observer is not None and n % every == 0:
            observer(n, n * tau, mirror_half(u), mirror_half(ud))
    if live:
        u_rows = mirror_half(u).reshape(len(live), -1)
        ud_rows = mirror_half(ud).reshape(len(live), -1)
        for i, row in enumerate(live):
            outcomes[row] = StatePair(SpectralField(u_rows[i]), SpectralField(ud_rows[i]))
    return outcomes


def evolve(
    state0: StatePair,
    problem: ProblemSpec,
    cfg: IntegratorConfig,
    n_steps: int,
    observer: Optional[Callable[[int, float, StatePair], None]] = None,
    every: int = 1,
) -> StatePair:
    """Iterate the one-step map n_steps times.

    The trailing nonlinearity evaluation of each step is reused as the
    next step's leading one, so n steps evaluate it n+1 times and the
    trajectory is bitwise that of n step() calls.  ``observer(n, t,
    state)`` is called after the steps n with n % every == 0 (every step
    by default); other steps build no state object.  Raises
    ConfigurationError for every < 1, DivergenceError (with the failing
    step index) on non-finite states and NormGuardError when the
    position/velocity norm exceeds cfg.max_norm.
    """
    if n_steps < 0:
        raise ConfigurationError("n_steps must be >= 0")
    if every < 1:
        raise ConfigurationError(f"observer interval every must be >= 1, got {every}")
    _require_degree(state0, cfg)
    watch = None
    if observer is not None:
        def watch(n, t, u, ud):
            observer(n, t, StatePair(SpectralField(u), SpectralField(ud)))
    [outcome] = _evolve_stack(state0, problem, cfg, n_steps, watch, every)
    if isinstance(outcome, DivergenceError):
        raise outcome
    return outcome
