"""Modified-energy diagnostics.

The error measure behind the integrator's stability is

    E(e, edot, u) = |(e, edot)|_1^2 + kappa * U(Phi e, Phi u)

with the non-quadratic correction

    U(e, u) = <cos(tau*Om) e'', a(u) e''>_0
              - tau^2/4 * kappa * |Psi1(a(u) e'')|_1^2.

This module evaluates E and U (in a projected, fully discrete variant
and in an unprojected variant), the operator

    L(u) = kappa*Phi a(u) cos(tau*Om) Phi
           - kappa^2/4 * Phi a(u) sin^2(tau*Om) Phi^2 a(u) Phi

whose quadratic form represents kappa*U, the Rayleigh positivity check
of 1 + L with its exact eigenvalue cross-check, and the step-to-step
energy-change identity for problems with g == 0.

L(u) has one implementation, a private operator built once per snapshot
u: it samples a(u) once on a grid of next_fast_len(2(K + K_v) + 1)
nodes, K = deg u, which resolves every kept mode of the three products
exactly.  It evaluates L on stacks of degree-K_v fields in two ways:

- apply gives the images L v on modes 0..K_v, in four calls of the
  transform pair.  apply_l_operator mirrors its one image, and the exact
  eigenvalue margin of positivity_certificate takes those of its basis.
- form gives only the Rayleigh numerators <L v, v>_0, by Parseval, in
  two calls of the pair on half spectra: one synthesis of phi v per probe
  and one analysis of a*(phi v).  The sampled positivity probes
  (positivity_check, positivity_certificate) use it, in blocks of at most
  32 rows, so the sampled margins and the exact margin are two independent
  evaluations of L.  Both take delta and L(Phi u) from one _snapshot.

The algebra runs on half spectra (modes 0..K), with a SpectralField only
at the public arguments and results: the multipliers in tau*Om are rows of
integrator._tables, the products spectral._pointwise_product, a_K(u) is the
step's own interpolant, every scalar product is one half-spectrum sum,
spectral.parseval_sum, and the exact margin's Gram matrix one real product
of half spectra.  Each time level of the energy-change identity makes one
stacked product of A and B, from which U, R* and A + B are read (level).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .exceptions import ConfigurationError, PreconditionError
from .integrator import IntegratorConfig, StatePair, _integer, _interpolants, _tables, step
from .problem import ProblemSpec, ellipticity_report
from .spectral import (
    SpectralField,
    _pointwise_product,
    coeffs_from_samples,
    mirror_half,
    next_fast_len,
    pair_norm,
    parseval_sum,
    parseval_weights,
    synthesize_values,
)


@dataclass(frozen=True)
class EnergyReport:
    """Values of the modified energy and its pieces for one state."""

    pair_norm_sq: float
    U_value: float
    E_value: float
    positivity_margin: Optional[float] = None
    identity_residual: Optional[float] = None


def _u(exx: np.ndarray, aexx: np.ndarray, t, problem: ProblemSpec, cfg: IntegratorConfig):
    """U from the half spectra e'' (modes 0..K) and a(u) e'' (modes 0..D), tables t to >= D."""
    k, d = exx.shape[-1], aexx.shape[-1]
    term2 = parseval_sum(aexx, aexx, parseval_weights(t.psi1[:d] ** 2 * t.w2[:d]))
    return (parseval_sum(exx, aexx[:k], parseval_weights(t.cos[:k]))
            - 0.25 * cfg.tau**2 * problem.kappa * term2)


def apply_position_filter(f: SpectralField, cfg: IntegratorConfig) -> SpectralField:
    """Apply the position filter phi(tau*Om) as a Fourier multiplier."""
    return SpectralField(mirror_half(_tables(cfg, f.degree).phi * f.coeffs[f.degree :]))


def u_term(
    e: SpectralField,
    u: SpectralField,
    problem: ProblemSpec,
    cfg: IntegratorConfig,
    projected: bool = True,
) -> float:
    """The non-quadratic energy correction U(e, u).

    With ``projected`` (the fully discrete default) the inner product
    a(u)*e'' is truncated back to degree K inside both terms.  Without it
    the exact degree-2K product is kept, which is the variant represented
    exactly by the operator L.
    """
    if e.degree != u.degree:
        raise ConfigurationError("e and u must have equal degrees")
    K = e.degree
    D = K if projected else 2 * K
    t = _tables(cfg, D)
    exx = t.dxx[: K + 1] * e.coeffs[K:]
    a = _interpolants(u.coeffs[K:], problem)[0]
    aexx = _pointwise_product(a, exx, next_fast_len(2 * K + D + 1), D)  # exact on modes 0..D
    return float(_u(exx, aexx, t, problem, cfg))


def modified_energy(
    e: SpectralField,
    edot: SpectralField,
    u: SpectralField,
    problem: ProblemSpec,
    cfg: IntegratorConfig,
) -> EnergyReport:
    """Modified energy E = |(e, edot)|_1^2 + kappa*U(Phi e, Phi u)."""
    pn_sq = pair_norm(e, edot, 1.0) ** 2
    uval = u_term(apply_position_filter(e, cfg), apply_position_filter(u, cfg), problem, cfg)
    return EnergyReport(
        pair_norm_sq=pn_sq,
        U_value=uval,
        E_value=pn_sq + problem.kappa * uval,
    )


def energy_report(
    e: SpectralField,
    edot: SpectralField,
    u: SpectralField,
    problem: ProblemSpec,
    cfg: IntegratorConfig,
    n_probes: int = 100,
    rng: Optional[np.random.Generator] = None,
) -> EnergyReport:
    """Complete energy report for one (error, snapshot) pair.

    On top of the energy values this fills the worst Rayleigh positivity
    margin of 1 + L(Phi u) over ``n_probes`` random plus all single-mode
    probes, and the relative residual of the identity tying the
    unprojected energy correction to the operator quadratic form at
    (e, u).
    """
    return replace(
        modified_energy(e, edot, u, problem, cfg),
        positivity_margin=positivity_check(u, problem, cfg, n_samples=n_probes, rng=rng),
        identity_residual=identity_residual(e, u, problem, cfg),
    )


def identity_residual(
    e: SpectralField, u: SpectralField, problem: ProblemSpec, cfg: IntegratorConfig
) -> float:
    """Relative residual of kappa*U(Phi e, Phi u) = <L(Phi u) e'', e''>_0.

    U is the unprojected variant; returns |LHS - RHS| / (1 + |LHS|), which
    is at roundoff level for sinc-compatible filters.
    """
    K = e.degree
    uf = apply_position_filter(u, cfg)
    lhs = problem.kappa * u_term(apply_position_filter(e, cfg), uf, problem, cfg, projected=False)
    exx = _tables(cfg, K).dxx * e.coeffs[K:]
    lexx = apply_l_operator(uf, SpectralField(mirror_half(exx)), problem, cfg).coeffs[K:]
    rhs = parseval_sum(lexx, exx, parseval_weights(np.ones(K + 1)))
    return float(abs(lhs - rhs) / (1.0 + abs(lhs)))


class _LOperator:
    """L(u) for one field u, on stacks of degree-K_v fields.

    a(u) is interpolated at K_a = deg u and sampled once on n =
    next_fast_len(2(K_a + K_v) + 1) nodes.  The products a*(cos phi v) and
    a*(phi v) have degree K_a + K_v and are resolved exactly; the product
    a*(sin^2 phi^2 a phi v) has degree 2K_a + K_v and aliases only onto
    modes |m| > K_v, so every kept mode is exact.  The tables and the
    transforms hold half spectra, modes 0..K_v and 0..K_a+K_v.

    apply gives the images L v on modes 0..K_v in four transform calls per
    stack.  form gives the numbers <L v, v>_0 in two, one row per probe
    each: it forms only a*(phi v) and reads the cos term off its modes
    0..K_v.  The exact positivity margin and the identity residual take
    images, the sampled positivity probes take the form.
    """

    def __init__(self, u: SpectralField, problem: ProblemSpec, cfg: IntegratorConfig,
                 v_degree: int):
        ka = u.degree
        self.kappa, self.a_degree, self.v_degree = problem.kappa, ka, v_degree
        self.n = next_fast_len(2 * (ka + v_degree) + 1)
        self.a_vals = synthesize_values(_interpolants(u.coeffs[ka:], problem)[0], self.n)
        t = _tables(cfg, ka + v_degree)
        self.phi_t, self.cos_t = t.phi[: v_degree + 1], t.cos[: v_degree + 1]
        self.sin2phi2_t = t.sin**2 * t.phi**2
        self.cos_w, self.sin2phi2_w, self.unit_w = map(parseval_weights, (
            self.cos_t, self.sin2phi2_t, np.ones(v_degree + 1)))

    def apply(self, h: np.ndarray) -> np.ndarray:
        """Modes 0..K_v of L(u) v for each row v of a (rows, K_v+1) stack of half spectra.

        Four transform calls per stack.  Each row of the result is bitwise
        what that row gives alone.
        """
        kappa, ka, kv = self.kappa, self.a_degree, self.v_degree
        t1 = self.phi_t * h
        vals = synthesize_values(np.stack((self.cos_t * t1, t1)), self.n)
        prods = coeffs_from_samples(vals * self.a_vals, ka + kv)
        branch_a = self.phi_t * prods[0, :, : kv + 1]
        inner = synthesize_values(self.sin2phi2_t * prods[1], self.n)
        branch_b = self.phi_t * coeffs_from_samples(inner * self.a_vals, kv)
        return kappa * branch_a - 0.25 * kappa * kappa * branch_b

    def form(self, h: np.ndarray) -> np.ndarray:
        """<L(u) v, v>_0 for each row v of a (rows, K_v+1) stack of half spectra.

        With p = a*(phi v), exact to degree K_a + K_v, the form is

            kappa <p, cos phi v>_0 - kappa^2/4 sum_m sin^2 phi^2 |p_m|^2.

        The first term takes modes 0..K_v of p by Parseval.  One synthesis
        of phi v and one analysis of a*(phi v) per stack; each row of the
        result is bitwise what that row gives alone.
        """
        t1 = self.phi_t * h
        p = coeffs_from_samples(synthesize_values(t1, self.n) * self.a_vals,
                                self.a_degree + self.v_degree)
        qa = parseval_sum(p[..., : self.v_degree + 1], t1, self.cos_w)
        qb = parseval_sum(p, p, self.sin2phi2_w)
        return self.kappa * qa - 0.25 * self.kappa * self.kappa * qb


def apply_l_operator(
    u: SpectralField, v: SpectralField, problem: ProblemSpec, cfg: IntegratorConfig
) -> SpectralField:
    """Apply L(u) to v; the result is truncated to the degree of v.

    a(u) is interpolated at deg u.  All pointwise multiplications by a(u)
    are exact for the kept modes, so modes up to deg(v) of the result are
    exact and <L(u) v, v>_0 equals kappa*U(v_int, u) with v = v_int'' for
    the unprojected U variant.
    """
    op = _LOperator(u, problem, cfg, v.degree)
    return SpectralField(mirror_half(op.apply(v.coeffs[np.newaxis, v.degree :])[0]))


# Rows per application of the stacked L kernel.  It bounds the working set:
# one stack of all ~1100 probes of a K = 64 check raises peak memory by
# ~35 MB, a 32-row block by ~1 MB, and block sizes 8..64 run equally fast.
_BLOCK_ROWS = 32


def _snapshot(u: SpectralField, problem: ProblemSpec, cfg: IntegratorConfig):
    """The ellipticity report of u (delta is its delta_est) and L(Phi u) on degree-K fields.

    Raises PreconditionError when delta <= 0.
    """
    rep = ellipticity_report(problem, u)
    if rep.hyperbolicity_lost:
        raise PreconditionError(
            f"hyperbolicity lost: min 1 + kappa*a(u) = {rep.delta_est:.3e} <= 0")
    return rep, _LOperator(apply_position_filter(u, cfg), problem, cfg, u.degree)


def positivity_check(
    u: SpectralField,
    problem: ProblemSpec,
    cfg: IntegratorConfig,
    n_samples: int = 1000,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Worst sampled Rayleigh margin of 1 + L(Phi u) against delta/8.

    Samples (|v|_0^2 + <L(Phi u) v, v>_0) / |v|_0^2 - delta/8 over
    ``n_samples`` random real fields plus the deterministic single-mode
    probes cos(jx), sin(jx) for all |j| <= K; a non-negative result
    certifies the sampled lower bound.  delta is the hyperbolicity margin
    min 1 + kappa*a(u) of the snapshot (problem.ellipticity_report).
    Raises PreconditionError when that margin is <= 0 and
    ConfigurationError when n_samples is not an integer >= 0.
    """
    return float(min(map(np.min, _probe_margins(*_snapshot(u, problem, cfg), n_samples, rng))))


def positivity_certificate(u: SpectralField, problem: ProblemSpec, cfg: IntegratorConfig,
                           n_samples: int, rng: Optional[np.random.Generator] = None):
    """(report, probes, exact): sampled and exact margins of 1 + L(Phi u) against delta/8.

    report is problem.ellipticity_report of u (delta is its delta_est).
    probes lists the (label, margin) pairs that positivity_check takes the
    minimum of: the 2K+1 single-mode fields (labels mode-cos-0, mode-cos-1,
    mode-sin-1, ...), then ``n_samples`` random real fields (random-0000,
    ...).  exact is 1 + lambda_min of N^-1/2 sym(M) N^-1/2 - delta/8, M =
    <L(Phi u) b_k, b_i>_0 over the real basis b = 1, cos(jx), sin(jx) (the
    single-mode probes), N the diagonal of |b_k|_0^2; only sym(M) enters a
    Rayleigh quotient, and b spans every real field of degree K, so exact
    is the minimum over all probes and never exceeds a sampled margin.
    One L(Phi u) gives both: the images L b_k by its apply, the sampled
    margins by its form.  Raises as positivity_check does.
    """
    rep, op = _snapshot(u, problem, cfg)
    margins = _probe_margins(rep, op, n_samples, rng)
    labels = ["mode-cos-0"]
    labels += (f"mode-{kind}-{j}" for j in range(1, u.degree + 1) for kind in ("cos", "sin"))
    labels += (f"random-{i:04d}" for i in range(n_samples))
    probes = list(zip(labels, map(float, itertools.chain.from_iterable(margins))))
    half = _mode_basis(u.degree)
    lb = np.concatenate([op.apply(h) for h in _blocks(half)])
    # BLAS, not parseval_sum: its pairwise sums need a (2K+1)^2 (2K+2) temporary, 17 MB at K = 64
    m = (half.view(np.float64) * op.unit_w) @ lb.view(np.float64).T
    s = 1.0 / np.sqrt(parseval_sum(half, half, op.unit_w))
    sym = 0.5 * (m + m.T) * s[:, np.newaxis] * s[np.newaxis, :]
    return rep, probes, float(1.0 + np.linalg.eigvalsh(sym)[0] - rep.delta_est / 8.0)


def _mode_basis(K: int) -> np.ndarray:
    """Half spectra of the real basis 1, cos(x), sin(x), ..., cos(Kx), sin(Kx), one per row."""
    basis = np.zeros((2 * K + 1, K + 1), dtype=np.complex128)
    j = np.arange(1, K + 1)
    basis[0, 0] = 1.0
    basis[2 * j - 1, j] = 0.5
    basis[2 * j, j] = -0.5j
    return basis


def _blocks(rows: np.ndarray):
    """Consecutive slices of at most _BLOCK_ROWS rows."""
    return (rows[i : i + _BLOCK_ROWS] for i in range(0, len(rows), _BLOCK_ROWS))


def _random_probes(K: int, n_samples: int, rng: np.random.Generator):
    """Half spectra of ``n_samples`` random real fields of degree K, block by block.

    Each probe draws 2K+1 standard normals: the real part of mode 0 with
    variance 4, and the real and imaginary parts of modes 1..K with
    variance 2 each, the law of twice the real-field part of a complex
    normal spectrum on modes -K..K.  The Rayleigh quotient does not depend
    on the probe's norm.
    """
    scale = np.full(K + 1, np.sqrt(2.0))
    scale[0] = 2.0
    for i in range(0, n_samples, _BLOCK_ROWS):
        # one draw per block gives the stream of per-probe draws
        draws = rng.standard_normal((min(_BLOCK_ROWS, n_samples - i), 2 * K + 1))
        h = np.zeros((len(draws), K + 1), np.complex128)
        h.real = scale * draws[:, : K + 1]
        h.imag[:, 1:] = scale[1:] * draws[:, K + 1 :]
        yield h


def _probe_margins(rep, op, n_samples, rng):
    """Rayleigh margins of 1 + op against rep.delta_est/8, one array per block of probes.

    rep and op are a _snapshot.  The blocks are the mode probes, then the
    random probes, all through op's form.  n_samples is checked at the call.
    """
    n_samples = _integer("number of random probes", n_samples)
    if n_samples < 0:
        raise ConfigurationError(f"number of random probes must be >= 0, got {n_samples}")
    if rng is None:
        rng = np.random.default_rng(0)
    K = op.v_degree

    def margins(h):
        n0 = parseval_sum(h, h, op.unit_w)
        return (n0 + op.form(h)) / n0 - rep.delta_est / 8.0

    return map(margins, itertools.chain(_blocks(_mode_basis(K)), _random_probes(K, n_samples, rng)))


def energy_change_residual(
    un: StatePair,
    vn: StatePair,
    problem: ProblemSpec,
    cfg: IntegratorConfig,
) -> float:
    """Residual of the one-step energy-change identity along two solutions.

    Requires g == 0.  Advances both states one step, evaluates the
    modified energy of their difference before and after, and compares the
    change against the explicit remainder formula; returns
    |LHS - RHS| / (1 + |LHS|), which is at roundoff level when the
    integrator and the energy algebra are consistent.
    """
    if problem.g is not None:
        raise ConfigurationError("the energy-change identity requires a problem with g == 0")
    kappa, K = problem.kappa, cfg.K
    up, vp = step(un, problem, cfg), step(vn, problem, cfg)
    t = _tables(cfg, K)
    p0, p1, p2 = map(parseval_weights, (np.ones(K + 1), t.w2, t.w2 * t.w2))

    def level(x: StatePair, y: StatePair):
        """E of x - y, R*(Phi x, Phi y), e = Phi x - Phi y and A + B at one time level.

        A = P_K(a_K(Phi x) e''), B = P_K((a_K(Phi x) - a_K(Phi y)) (Phi y)''), so A + B is
        P_K(a_K(Phi x) (Phi x)'' - a_K(Phi y) (Phi y)''), U(e, Phi x) is _u of A, and
        R* = <cos e, A>_0 + <cos e, B>_1 + tau^2 kappa (<Psi1 A, Psi1 B>_1/2 + |Psi1 B|_1^2/4).
        """
        fx, fy = t.phi * x.u.coeffs[K:], t.phi * y.u.coeffs[K:]
        e = fx - fy
        a_x, a_y = _interpolants(fx, problem)[0], _interpolants(fy, problem)[0]
        exx = t.dxx * e
        A, B = _pointwise_product(np.stack((a_x, a_x - a_y)), np.stack((exx, t.dxx * fy)),
                                  next_fast_len(3 * K + 1), K)
        d, dd = x.u.coeffs[K:] - y.u.coeffs[K:], x.udot.coeffs[K:] - y.udot.coeffs[K:]
        pn_sq = parseval_sum(d, d, p2) + parseval_sum(dd, dd, p1)  # |(x - y, xdot - ydot)|_1^2
        ce, psi_a, psi_b = t.cos * e, t.psi1 * A, t.psi1 * B
        r_star = (parseval_sum(ce, A, p0) + parseval_sum(ce, B, p1)
                  + 0.5 * cfg.tau**2 * kappa * parseval_sum(psi_a, psi_b, p1)
                  + 0.25 * cfg.tau**2 * kappa * parseval_sum(psi_b, psi_b, p1))
        return pn_sq + kappa * _u(exx, A, t, problem, cfg), r_star, e, A + B

    e_new, r_star1, e1, dg1 = level(up, vp)
    e_old, r_star0, e0, dg0 = level(un, vn)
    # with g == 0 the projected nonlinear terms of x and y differ by A + B
    r_tilde = parseval_sum(e1, dg0, p1) - parseval_sum(e0, dg1, p1)
    rhs = e_old + kappa * (r_tilde + (r_star1 - r_star0))
    return float(abs(e_new - rhs) / (1.0 + abs(e_new)))
