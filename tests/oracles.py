"""Independent oracles used by the tests.

The dense oracles are written with plain python loops and direct
summation, deliberately avoiding the package's FFT-based code paths, so
that agreement between the two is a meaningful check.

The reference forms after them keep the textbook way of writing the
transforms and the kernels on full spectra -K..K, through scipy.fft's
public irfft/rfft only: an explicitly zero-padded half spectrum, an
element-by-element assembled analysis, the two ways the pointwise product
of two fields used to be formed, the filtered nonlinearity, the operator
L of the energy diagnostics, the exact positivity margin with its Gram
matrix as a complex full-spectrum matmul, and the step formulas with every
factor applied at the call.  The package's lean half-spectrum kernels
must match them bit for bit.

The test-only forms at the end are what only the tests need of the
package: the weights sqrt(j^2+1) on modes -K..K, a field from a {mode:
coefficient} mapping, the filter catalog of the shipped experiments, the
exact linear flow, the velocity flip of time reversal, the full-spectrum
field operations the energy diagnostics used before they moved onto half
spectra (project, apply_multiplier, derivative, dealiased_product through
spectral's one pointwise product, the weighted inner_product), the
full-spectrum Sobolev and pair norms that spectral computed before its
half-spectrum Parseval sum, the unfiltered nonlinearity
a_K(u) u_xx + g_K(u, u_x) formed through dealiased_product, and the step
kernel's filtered nonlinearity of one field, which calls the kernel itself.
"""

import math

import numpy as np
import scipy.fft

from qlwave import filters
from qlwave.energy import _mode_basis, apply_position_filter
from qlwave.exceptions import ConfigurationError, NumericsError
from qlwave.integrator import StatePair, _Engine, _interpolants
from qlwave.problem import ellipticity_report
from qlwave.spectral import (
    SpectralField,
    _check_order,
    _padded,
    _pointwise_product,
    mirror_half,
    mode_numbers,
    next_fast_len,
)


def o_sinc(x: float) -> float:
    return 1.0 if x == 0.0 else math.sin(x) / x


def filter_functions(label: str, c: float = 0.0):
    """(phi, psi1) of a filter label as plain python callables.

    hl and gh keep their classical formulas, independent of the sinc(c*xi)
    family of which they are the members c = 0 and c = 1; any sinc:<c>
    label takes c from the argument.
    """
    if label == "impulse":
        return (lambda x: 1.0), (lambda x: 1.0)
    if label == "hl":
        return (lambda x: 1.0), o_sinc
    if label == "gh":
        return o_sinc, (lambda x: o_sinc(x) ** 2)
    if label.startswith("sinc"):
        return (lambda x: o_sinc(c * x)), (lambda x: o_sinc(x) * o_sinc(c * x))
    raise ValueError(label)


def dense_synthesize(coeffs, degree, n):
    """Direct O(K*N) summation of sum c_j e^{ijx_k}."""
    out = []
    for k in range(n):
        x = 2.0 * math.pi * k / n
        out.append(
            sum(coeffs[j + degree] * np.exp(1j * j * x) for j in range(-degree, degree + 1)).real
        )
    return out


def dense_interpolate(values, degree):
    """Direct DFT sums for modes -degree..degree (exact on resolved data)."""
    n = len(values)
    return [
        sum(values[k] * np.exp(-1j * j * 2.0 * math.pi * k / n) for k in range(n)) / n
        for j in range(-degree, degree + 1)
    ]


def dense_convolution(ca, cb):
    """Direct O(K^2) coefficient convolution."""
    na, nb = len(ca), len(cb)
    out = [0j] * (na + nb - 1)
    for i in range(na):
        for k in range(nb):
            out[i + k] += ca[i] * cb[k]
    return out


def dense_filtered_nonlinearity(u, degree, tau, label, c, a, g):
    """Filtered degree-K nonlinearity, dense route."""
    K = degree
    w1 = [math.sqrt(j * j + 1.0) for j in range(-K, K + 1)]
    phi_fn, psi_fn = filter_functions(label, c)
    up = [phi_fn(tau * w1[i]) * u[i] for i in range(2 * K + 1)]
    uvals = dense_synthesize(up, K, 2 * K + 1)
    a_k = dense_interpolate([a(v) for v in uvals], K)
    uxx = [-(j * j) * up[j + K] for j in range(-K, K + 1)]
    full = dense_convolution(a_k, uxx)
    if g is not None:
        ux = [1j * j * up[j + K] for j in range(-K, K + 1)]
        uxvals = dense_synthesize(ux, K, 2 * K + 1)
        g_k = dense_interpolate([g(uvals[k], uxvals[k]) for k in range(2 * K + 1)], K)
        for j in range(-K, K + 1):
            full[j + 2 * K] += g_k[j + K]
    w2 = [math.sqrt(j * j + 1.0) for j in range(-2 * K, 2 * K + 1)]
    filtered = [psi_fn(tau * w2[i]) * full[i] for i in range(4 * K + 1)]
    return filtered[K : 3 * K + 1]


def dense_one_step(u, ud, degree, tau, kappa, label, c, a, g):
    """One full step of the scheme, dense route; returns (u', ud')."""
    K = degree
    w = [math.sqrt(j * j + 1.0) for j in range(-K, K + 1)]
    cos_t = [math.cos(tau * x) for x in w]
    sinc_t = [o_sinc(tau * x) for x in w]
    wsin_t = [x * math.sin(tau * x) for x in w]
    fn = dense_filtered_nonlinearity(u, K, tau, label, c, a, g)
    u1 = [
        cos_t[i] * u[i] + tau * sinc_t[i] * ud[i] + 0.5 * tau * tau * kappa * sinc_t[i] * fn[i]
        for i in range(2 * K + 1)
    ]
    fn1 = dense_filtered_nonlinearity(u1, K, tau, label, c, a, g)
    ud1 = [
        -wsin_t[i] * u[i]
        + cos_t[i] * ud[i]
        + 0.5 * tau * kappa * cos_t[i] * fn[i]
        + 0.5 * tau * kappa * fn1[i]
        for i in range(2 * K + 1)
    ]
    return u1, ud1


def dense_l_operator(u, v, ku, kv, ka, tau, kappa, label, c, a):
    """L(u) applied to v, dense route; modes -kv..kv of the result.

    a(u) is interpolated at degree ka through 2*ka+1 direct samples of u,
    and the three products by it are exact coefficient convolutions.
    """
    phi_fn, _ = filter_functions(label, c)

    def weights(degree):
        return [math.sqrt(j * j + 1.0) for j in range(-degree, degree + 1)]

    uvals = dense_synthesize(u, ku, 2 * ka + 1)
    a_k = dense_interpolate([a(x) for x in uvals], ka)
    t1 = [phi_fn(tau * w) * x for w, x in zip(weights(kv), v)]
    cos_t1 = [math.cos(tau * w) * x for w, x in zip(weights(kv), t1)]
    branch_a = dense_convolution(a_k, cos_t1)
    inner = dense_convolution(a_k, t1)
    damped = [
        math.sin(tau * w) ** 2 * phi_fn(tau * w) ** 2 * x
        for w, x in zip(weights(ka + kv), inner)
    ]
    branch_b = dense_convolution(a_k, damped)
    return [
        phi_fn(tau * w)
        * (kappa * branch_a[j + ka + kv] - 0.25 * kappa * kappa * branch_b[j + 2 * ka + kv])
        for j, w in zip(range(-kv, kv + 1), weights(kv))
    ]


def quadrature_inner_product(values_a, values_b):
    """Mean-value quadrature of (1/2pi) integral a*b dx, exact above Nyquist."""
    return float(np.mean(np.asarray(values_a) * np.asarray(values_b)))


# -- reference forms -----------------------------------------------------


def padded_synthesis(coeffs, n):
    """Values of the full spectra ``coeffs`` (last axis) at n nodes, through an
    explicitly zero-padded half spectrum."""
    degree = (coeffs.shape[-1] - 1) // 2
    half = np.zeros(coeffs.shape[:-1] + (n // 2 + 1,), dtype=np.complex128)
    half[..., : degree + 1] = coeffs[..., degree:]
    return scipy.fft.irfft(half, n=n) * n


def assembled_analysis(values, degree):
    """Full spectra -degree..degree of the samples, assembled element-wise into
    a preallocated spectrum."""
    n = values.shape[-1]
    half = scipy.fft.rfft(values) / n
    c = np.empty(values.shape[:-1] + (2 * degree + 1,), dtype=np.complex128)
    c[..., degree:] = half[..., : degree + 1]
    c[..., :degree] = np.conj(half[..., degree:0:-1])
    return c


def zeroed_buffer_product(f, g, n, degree):
    """Modes 0..degree of the product of the half spectra f and g (equal leading
    shape) on n nodes, as the step kernel's filtered nonlinearity formed it
    inline: one synthesis of a zeroed (2, ..., n//2+1) buffer."""
    spec = np.zeros((2,) + f.shape[:-1] + (n // 2 + 1,), dtype=np.complex128)
    spec[0, ..., : f.shape[-1]] = f
    spec[1, ..., : g.shape[-1]] = g
    vals = scipy.fft.irfft(spec, n=n) * n
    return scipy.fft.rfft(vals[0] * vals[1])[..., : degree + 1] / n


def two_synthesis_product(f, g, n, degree):
    """The same product as dealiased_product formed it: one synthesis per factor."""
    vf = scipy.fft.irfft(f, n=n) * n
    vg = scipy.fft.irfft(g, n=n) * n
    return scipy.fft.rfft(vf * vg)[..., : degree + 1] / n


def full_spectrum_fhat(problem, cfgs, c):
    """The step kernel's filtered nonlinearity on full spectra -K..K.

    psi1 * P_K(a_K(phi u) (phi u)_xx + g_K(phi u, (phi u)_x)) for the
    (B, 2K+1) stack ``c`` whose row i runs under cfgs[i] (configs sharing
    K and tau), in four full-spectrum transforms, each table formed as the
    step kernel forms it.
    """
    K, tau = cfgs[0].K, cfgs[0].tau
    w1 = omega_weights(K)
    j = mode_numbers(K).astype(float)
    phi_t = np.asarray([filters.phi(cfg.filter, tau * w1) for cfg in cfgs])
    psi1_t = np.asarray([filters.psi1(cfg.filter, tau * w1) for cfg in cfgs])
    grad = np.stack((np.ones(2 * K + 1), 1j * j))[: 1 if problem.g is None else 2]
    grad_t = phi_t * grad[:, None]
    dxx_t = phi_t * -(j * j)
    vals = padded_synthesis(grad_t * c, 2 * K + 1)
    rows = [problem.a(vals[0])]
    if problem.g is not None:
        rows.append(problem.g(vals[0], vals[1]))
    ag = assembled_analysis(np.asarray(rows, dtype=float), K)
    n_prod = scipy.fft.next_fast_len(3 * K + 1, real=True)
    vals = padded_synthesis(np.concatenate((ag[:1], (dxx_t * c)[None])), n_prod)
    f = assembled_analysis(vals[0] * vals[1], K)
    if ag.shape[0] > 1:
        f += ag[1]
    return psi1_t * f


def full_spectrum_l_operator(u, problem, cfg, v_degree, v):
    """L(u) applied to the (rows, 2*v_degree+1) stack ``v`` on full spectra.

    a(u) is interpolated at deg u through 2*deg u + 1 samples, and each
    table and product is formed as the energy diagnostics' operator forms
    it, in four full-spectrum transforms per stack.
    """
    ka, kv = u.degree, v_degree
    a_k = assembled_analysis(problem.a(padded_synthesis(u.coeffs, 2 * ka + 1)), ka)
    n = scipy.fft.next_fast_len(2 * (ka + kv) + 1, real=True)
    a_vals = padded_synthesis(a_k, n)
    wv, wm = omega_weights(kv), omega_weights(ka + kv)
    phi_t = np.asarray(filters.phi(cfg.filter, cfg.tau * wv))
    cos_t = np.cos(cfg.tau * wv)
    sin2phi2_t = np.sin(cfg.tau * wm) ** 2 * np.asarray(filters.phi(cfg.filter, cfg.tau * wm)) ** 2
    t1 = phi_t * v
    vals = padded_synthesis(np.stack((cos_t * t1, t1)), n)
    prods = assembled_analysis(vals * a_vals, ka + kv)
    branch_a = phi_t * prods[0, :, ka : ka + 2 * kv + 1]
    inner = padded_synthesis(sin2phi2_t * prods[1], n)
    branch_b = phi_t * assembled_analysis(inner * a_vals, kv)
    kappa = problem.kappa
    return kappa * branch_a - 0.25 * kappa * kappa * branch_b


def full_spectrum_exact_margin(u, problem, cfg):
    """positivity_certificate's exact margin, its Gram matrix formed on full spectra.

    The single-mode basis is mirrored onto -K..K, its images under
    L(Phi u) come from full_spectrum_l_operator, and M = Re(conj(b) (L b)^T)
    is one complex matmul over all 2K+1 modes.
    """
    half = _mode_basis(u.degree)
    # + 0.0 turns the -0.0 that conj leaves in zero parts into +0.0
    basis = np.concatenate((np.conj(half[:, :0:-1]) + 0.0, half), axis=1)
    lb = full_spectrum_l_operator(apply_position_filter(u, cfg), problem, cfg, u.degree, basis)
    m = np.real(np.conj(basis) @ lb.T)
    s = 1.0 / np.sqrt(np.real(np.sum(np.conj(basis) * basis, axis=1)))
    sym = 0.5 * (m + m.T) * s[:, np.newaxis] * s[np.newaxis, :]
    delta = ellipticity_report(problem, u).delta_est
    return float(1.0 + np.linalg.eigvalsh(sym)[0] - delta / 8.0)


def step_tables(K, tau):
    """cos(tau*Om), sinc(tau*Om) and Om*sin(tau*Om) on modes -K..K."""
    w1 = omega_weights(K)
    return np.cos(tau * w1), filters.sinc(tau * w1), w1 * np.sin(tau * w1)


def unpremultiplied_step(fhat, u, ud, K, tau, kappa, fn=None):
    """One step with every scalar factor applied at the call; (u', ud', F(u')).

    Works on half spectra, modes 0..K, like the step kernel.  ``fhat`` is
    the filtered nonlinearity; ``fn``, when given, is F(u).
    """
    cos_t, sinc_t, wsin_t = (table[K:] for table in step_tables(K, tau))
    if kappa == 0.0:
        u1 = cos_t * u + tau * sinc_t * ud
        ud1 = -wsin_t * u + cos_t * ud
        return u1, ud1, None
    if fn is None:
        fn = fhat(u)
    u1 = cos_t * u + tau * sinc_t * ud + 0.5 * tau * tau * kappa * sinc_t * fn
    fn1 = fhat(u1)
    ud1 = -wsin_t * u + cos_t * ud + 0.5 * tau * kappa * cos_t * fn + 0.5 * tau * kappa * fn1
    return u1, ud1, fn1


def step_three_stage(state, problem, cfg):
    """One step in kick-rotate-kick form (algebraically identical to step)."""
    cos_t, sinc_t, wsin_t = step_tables(cfg.K, cfg.tau)
    tau, kappa = cfg.tau, problem.kappa

    def kick(u):
        if kappa == 0.0:
            return 0.0
        return 0.5 * tau * kappa * filtered_nonlinear_term(SpectralField(u), problem, cfg).coeffs

    u, ud = state.u.coeffs, state.udot.coeffs
    ud_plus = ud + kick(u)
    u1 = cos_t * u + tau * sinc_t * ud_plus
    ud1 = -wsin_t * u + cos_t * ud_plus + kick(u1)
    return StatePair(SpectralField(u1), SpectralField(ud1))


# -- test-only forms -------------------------------------------------------


def omega_weights(degree: int) -> np.ndarray:
    """Weights sqrt(j^2+1) for j = -degree..degree."""
    j = mode_numbers(degree).astype(float)
    return np.sqrt(j * j + 1.0)


def field_from_dict(degree: int, modes: dict) -> SpectralField:
    """The degree-``degree`` field with the {j: coefficient} modes ``modes``.

    The conjugate partner of each given mode is filled in unless it was
    given explicitly.
    """
    c = np.zeros(2 * degree + 1, dtype=np.complex128)
    for j, v in modes.items():
        if abs(j) > degree:
            raise ValueError(f"mode {j} outside degree {degree}")
        c[j + degree] = v
    for j, v in modes.items():
        if -j not in modes:
            c[-j + degree] = np.conj(v)
    return SpectralField(c)


def catalog():
    """The filters exercised by the shipped experiments."""
    return (filters.impulse(), filters.hairer_lubich(), filters.grimm_hochbruck(),
            filters.sinc_c(2.0), filters.sinc_c(3.0))


def linear_propagator(state: StatePair, t: float) -> StatePair:
    """Exact flow of the linear part over time t (norm-preserving rotation)."""
    w = omega_weights(state.degree)
    c, s = np.cos(t * w), np.sin(t * w)
    snc = t * np.asarray(filters.sinc(t * w))
    u, ud = state.u.coeffs, state.udot.coeffs
    return StatePair(
        SpectralField(c * u + snc * ud),
        SpectralField(-w * s * u + c * ud),
    )


def negated_velocity(state: StatePair) -> StatePair:
    """(u, -udot): the state whose forward run retraces state's run backward."""
    return StatePair(state.u, -state.udot)


def project(f: SpectralField, degree: int) -> SpectralField:
    """Orthogonal projection onto polynomials of lower degree (mode cut)."""
    if degree > f.degree:
        raise ConfigurationError(
            f"projection target degree {degree} exceeds field degree {f.degree}"
        )
    k = f.degree - degree
    return SpectralField(f.coeffs[k : f.coeffs.size - k])


def apply_multiplier(f: SpectralField, m) -> SpectralField:
    """Apply a Fourier multiplier m evaluated at the weights sqrt(j^2+1).

    ``m`` must accept a numpy array.  Real multipliers preserve the
    real-field symmetry exactly.
    """
    values = np.asarray(m(omega_weights(f.degree)))
    if not np.all(np.isfinite(values)):
        raise NumericsError("multiplier returned non-finite values")
    return SpectralField(f.coeffs * values)


def derivative(f: SpectralField, order: int = 1) -> SpectralField:
    """Spectral derivative: mode j is multiplied by (i*j)**order."""
    if order < 1:
        raise ConfigurationError("derivative order must be >= 1")
    j = mode_numbers(f.degree).astype(float)
    # (i*j)**order computed without complex pow so symmetry stays bit-exact
    mag = j**order
    if order % 2 == 0:
        factor = (-1.0) ** (order // 2) * mag
    else:
        factor = 1j * (-1.0) ** ((order - 1) // 2) * mag
    return SpectralField(f.coeffs * factor)


def dealiased_product(f: SpectralField, g: SpectralField) -> SpectralField:
    """Exact product of two fields as a degree K1+K2 field.

    The pointwise product is formed on next_fast_len(2(K1+K2)+1) nodes,
    which resolve every mode of the product.
    """
    deg = f.degree + g.degree
    n = next_fast_len(2 * deg + 1)
    product = _pointwise_product(f.coeffs[f.degree :], g.coeffs[g.degree :], n, deg)
    return SpectralField(mirror_half(product))


def inner_product(f: SpectralField, g: SpectralField, s: float = 0.0) -> float:
    """Weighted scalar product sum w_j^{2s} conj(f_j) g_j (real for real fields)."""
    s = _check_order(s)
    K = max(f.degree, g.degree)
    cf = _padded(f, K)
    cg = _padded(g, K)
    w = omega_weights(K)
    return float(np.real(np.sum(w ** (2.0 * s) * np.conj(cf) * cg)))


def full_sobolev_sq(f: SpectralField, s: float) -> float:
    """sum_{j=-K..K} w_j^{2s} |c_j|^2, summed over the full spectrum."""
    w = omega_weights(f.degree)
    return float(np.sum(w ** (2.0 * s) * np.abs(f.coeffs) ** 2))


def full_sobolev_norm(f: SpectralField, s: float) -> float:
    """full_sobolev_sq(f, s)^(1/2)."""
    return float(np.sqrt(full_sobolev_sq(f, s)))


def full_pair_norm(u: SpectralField, udot: SpectralField, s: float) -> float:
    """(|u|_{s+1}^2 + |udot|_s^2)^(1/2) from full_sobolev_norm."""
    return float(np.hypot(full_sobolev_norm(u, s + 1.0), full_sobolev_norm(udot, s)))


def nonlinear_term(u: SpectralField, problem) -> SpectralField:
    """Unfiltered interpolated nonlinearity a_K(u) u_xx + g_K(u, u_x), degree 2K."""
    ag = mirror_half(_interpolants(u.coeffs[u.degree :], problem))
    out = dealiased_product(SpectralField(ag[0]), derivative(u, 2))
    return out + SpectralField(ag[1]) if ag.shape[0] > 1 else out


def filtered_nonlinear_term(u: SpectralField, problem, cfg) -> SpectralField:
    """The step kernel's filtered degree-K nonlinearity of u, through a one-row engine."""
    return SpectralField(mirror_half(_Engine(problem, (cfg,)).fhat(u.coeffs[None, cfg.K :])[0]))
