"""Reference solutions and error measurement.

Temporal errors are measured against a reference computed with the same
spatial degree: the sinc:2 scheme run at a refined step together with a
mandatory step-halving (Richardson) consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import filters as flt
from .exceptions import ConfigurationError, PreconditionError, ReferenceFailure
from .integrator import _MAX_STEPS, IntegratorConfig, StatePair, _integer, _n_steps, evolve, step
from .problem import ProblemSpec
from .spectral import embed, pair_norm, parseval_sum, parseval_weights, sobolev_norm


# Bound on the reference's step-halving drift, relative to the state norm
_SELF_CHECK_RTOL = 1e-4


@dataclass(frozen=True)
class ReferenceConfig:
    """How much finer than the finest measured step the reference runs."""

    refine_factor: int = 64

    def __post_init__(self):
        if _integer("refine_factor", self.refine_factor) < 2:
            raise ConfigurationError("refine_factor must be >= 2")


def _fit_degree(state: StatePair, degree: int) -> StatePair:
    """state zero-extended to a degree at least its own."""
    if state.degree == degree:
        return state
    return StatePair(embed(state.u, degree), embed(state.udot, degree))


def error_h2h1(state: StatePair, ref: StatePair) -> float:
    """Error |state - ref| in the H^2 x H^1 product norm."""
    if state.degree != ref.degree:
        raise ConfigurationError(
            f"cannot compare states of degree {state.degree} and {ref.degree}"
        )
    d = state - ref
    return pair_norm(d.u, d.udot, 1.0)


def reference_solution(
    problem: ProblemSpec,
    state0: StatePair,
    T: float,
    ref_cfg: ReferenceConfig,
    tau_min: float,
) -> StatePair:
    """Validated reference state at time T, at the spectral degree of state0.

    Runs the sinc:2 scheme at tau_min/refine_factor and at half that step;
    the run pair must agree within 1e-4 (_SELF_CHECK_RTOL) relative to the
    state norm, otherwise a ReferenceFailure is raised.  The finer of the
    two runs is returned.  A T and tau_min that break the horizon rule of
    every run (_n_steps), or a fine run of more than _MAX_STEPS steps, is a
    ConfigurationError, raised before any run.
    """
    n_min = _n_steps(T, tau_min)
    n_ref = n_min * ref_cfg.refine_factor
    if 2 * n_ref > _MAX_STEPS:
        raise ConfigurationError(
            f"the reference's fine run takes {2 * n_ref} steps (refine_factor="
            f"{ref_cfg.refine_factor}), more than a run may take ({_MAX_STEPS})"
        )
    tau_ref = T / n_ref
    cfg = IntegratorConfig(tau=tau_ref, K=state0.degree, filter=flt.sinc_c(2.0))

    coarse = evolve(state0, problem, cfg, n_ref)
    fine = evolve(state0, problem, replace(cfg, tau=0.5 * tau_ref), 2 * n_ref)
    drift = error_h2h1(coarse, fine)
    scale = max(fine.norm(1.0), 1.0)
    if drift > _SELF_CHECK_RTOL * scale:
        raise ReferenceFailure(
            f"halving the reference step changed the state by {drift:.3e} "
            f"(> {_SELF_CHECK_RTOL:.1e} x |state| = {_SELF_CHECK_RTOL * scale:.3e})"
        )
    return fine


def _check_spectral_tail(u, rtol: float = 1e-8):
    """Require the top 10% of modes to carry < rtol of the field's norm."""
    K, h = u.degree, u.coeffs[u.degree :]
    cut = max(1, int(np.ceil(0.9 * K)))
    total = sobolev_norm(u, 0.0)
    tail = float(np.sqrt(parseval_sum(h, h, parseval_weights(1.0 * (np.arange(K + 1) >= cut)))))
    if tail > rtol * total:
        raise PreconditionError(
            f"spectral tail (modes |j| >= {cut}) carries {tail:.2e} "
            f"of a norm-{total:.2e} field; the state is not resolved at degree {K}"
        )


def local_error(
    problem: ProblemSpec,
    state0: StatePair,
    tau: float,
    spec: flt.FilterSpec,
    ref_cfg: ReferenceConfig = ReferenceConfig(),
) -> float:
    """One-step defect |phi_tau(state0) - reference(tau)| in H^2 x H^1, at the degree of state0.

    ``state0`` must be spectrally resolved (small high-mode tail), so that
    runs at different tau sample a comparable smoothness regime.
    """
    _check_spectral_tail(state0.u)
    cfg = IntegratorConfig(tau=tau, K=state0.degree, filter=spec)
    one = step(state0, problem, cfg)
    ref = reference_solution(problem, state0, tau, ref_cfg, tau_min=tau)
    return error_h2h1(one, ref)
