"""Independent oracles used by the tests.

The dense oracles are written with plain python loops and direct
summation, deliberately avoiding the package's FFT-based code paths, so
that agreement between the two is a meaningful check.

The reference forms at the end keep the textbook way of writing the
transform wrappers and the step kernel: an explicitly zero-padded half
spectrum, an element-by-element assembled analysis, the filtered
nonlinearity on full spectra -K..K, and the step formulas with every
factor applied at the call.  The package's lean kernels must match them
bit for bit.
"""

import math

import numpy as np
import scipy.fft

from qlwave import filters
from qlwave.integrator import StatePair, filtered_nonlinear_term
from qlwave.spectral import (
    SpectralField,
    coeffs_from_samples,
    mode_numbers,
    omega_weights,
    synthesize_values,
)


def o_sinc(x: float) -> float:
    return 1.0 if x == 0.0 else math.sin(x) / x


def filter_functions(label: str, c: float = 0.0):
    """(phi, psi1) as plain python callables."""
    if label == "impulse":
        return (lambda x: 1.0), (lambda x: 1.0)
    if label == "hl":
        return (lambda x: 1.0), o_sinc
    if label == "gh":
        return o_sinc, (lambda x: o_sinc(x) ** 2)
    if label == "sinc":
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
    """synthesize_values through an explicitly zero-padded half spectrum."""
    degree = (coeffs.shape[-1] - 1) // 2
    half = np.zeros(coeffs.shape[:-1] + (n // 2 + 1,), dtype=np.complex128)
    half[..., : degree + 1] = coeffs[..., degree:]
    return scipy.fft.irfft(half, n=n) * n


def assembled_analysis(values, degree):
    """coeffs_from_samples assembled element-wise into a preallocated spectrum."""
    n = values.shape[-1]
    half = scipy.fft.rfft(values) / n
    c = np.empty(values.shape[:-1] + (2 * degree + 1,), dtype=np.complex128)
    c[..., degree:] = half[..., : degree + 1]
    c[..., :degree] = np.conj(half[..., degree:0:-1])
    return c


def full_spectrum_fhat(problem, cfgs, c):
    """The step kernel's filtered nonlinearity on full spectra -K..K.

    psi1 * P_K(a_K(phi u) (phi u)_xx + g_K(phi u, (phi u)_x)) for the
    (B, 2K+1) stack ``c`` whose row i runs under cfgs[i] (configs sharing
    K and tau), in four transform calls through the full-spectrum
    adapters, each table formed as the step kernel forms it.
    """
    K, tau = cfgs[0].K, cfgs[0].tau
    w1 = omega_weights(K)
    j = mode_numbers(K).astype(float)
    phi_t = np.asarray([filters.phi(cfg.filter, tau * w1) for cfg in cfgs])
    psi1_t = np.asarray([filters.psi1(cfg.filter, tau * w1) for cfg in cfgs])
    grad = np.stack((np.ones(2 * K + 1), 1j * j))[: 1 if problem.g is None else 2]
    grad_t = phi_t * grad[:, None]
    dxx_t = phi_t * -(j * j)
    vals = synthesize_values(grad_t * c, 2 * K + 1)
    rows = [problem.a(vals[0])]
    if problem.g is not None:
        rows.append(problem.g(vals[0], vals[1]))
    ag = coeffs_from_samples(np.asarray(rows, dtype=float), K)
    n_prod = scipy.fft.next_fast_len(3 * K + 1, real=True)
    vals = synthesize_values(np.concatenate((ag[:1], (dxx_t * c)[None])), n_prod)
    f = coeffs_from_samples(vals[0] * vals[1], K)
    if ag.shape[0] > 1:
        f += ag[1]
    return psi1_t * f


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
