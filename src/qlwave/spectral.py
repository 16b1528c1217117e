"""Trigonometric-polynomial arithmetic on the 2π-periodic circle.

A real field is stored as the full complex spectrum of a degree-K
trigonometric polynomial,

    v(x) = sum_{j=-K}^{K} c_j e^{i j x},      c_{-j} = conj(c_j),

together with weighted Sobolev norms built from the weights
w_j = sqrt(j^2 + 1).  All operations are pure functions; fields are
immutable values.

The half-spectrum transforms synthesize_half and analyze_half are the one
transform pair; they alone call the real FFTs.  A half spectrum holds
modes 0..K of a real field along the last axis (its other modes are
their conjugates), so a stack of spectra goes through in one call.  The
synthesis zero-pads the modes to n//2+1 only when fewer are given, and
the analysis keeps modes 0..degree.  The step kernel in integrator.py
works on half spectra throughout; mirror_half turns a half spectrum into
the full one a SpectralField stores.  synthesize_values and
coeffs_from_samples are the full-spectrum adapters over the pair that
every other caller uses (and the kernel's product analysis, see
_Engine.fhat): the exact product dealiased_product is a
pointwise product on a grid that resolves all of its modes, and
apply_multiplier is the one way to apply a Fourier multiplier m(Om).

The pair calls pocketfft's C entry points c2r and r2c
(scipy.fft._pocketfft.pypocketfft) directly, with one thread.  At the
sizes a step uses (K <= 128), most of the time of a scipy.fft.irfft or
rfft call is its Python dispatch (uarray, argument normalization, shape
fixing): in a cProfile of a K=32 evolve, c2r/r2c took about 15% of the
time spent in the transform calls.  The pair does exactly what that
dispatch did for its inputs, so the results are bitwise equal to
scipy.fft.irfft(modes 0..K, n=n) * n and to scipy.fft.rfft(values) / n.
There is no fallback: if the private module moves, importing qlwave
fails.  A scipy.fft.set_workers context does not reach these transforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy.fft._pocketfft.pypocketfft import c2r, r2c

from .exceptions import AliasingError, ConfigurationError, NumericsError

# Tolerance (relative to the largest coefficient) for accepting nearly
# Hermitian input before it is symmetrized exactly.
_SYMMETRY_RTOL = 1e-10


def mode_numbers(degree: int) -> np.ndarray:
    """Mode indices j = -degree..degree in storage order."""
    return np.arange(-degree, degree + 1)


def omega_weights(degree: int) -> np.ndarray:
    """Weights sqrt(j^2+1) for j = -degree..degree."""
    j = mode_numbers(degree).astype(float)
    return np.sqrt(j * j + 1.0)


@dataclass(frozen=True)
class SpectralField:
    """Degree-K trigonometric polynomial with real-field symmetry.

    ``coeffs[j + degree]`` holds the coefficient of ``e^{ijx}``.  The
    constructor validates Hermitian symmetry and then enforces it exactly,
    so that downstream algebra can rely on bit-exact symmetry.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.ndim != 1 or c.size % 2 == 0:
            raise ConfigurationError(
                f"coefficient array must have odd length 2K+1, got shape {c.shape}"
            )
        if not np.all(np.isfinite(c.view(np.float64))):
            raise NumericsError("non-finite spectral coefficients")
        mirrored = np.conj(c[::-1])
        scale = max(float(np.max(np.abs(c))), 1.0)
        if float(np.max(np.abs(c - mirrored))) > _SYMMETRY_RTOL * scale:
            raise ConfigurationError(
                "coefficients are not Hermitian symmetric (field would not be real)"
            )
        c = 0.5 * (c + mirrored)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return (self.coeffs.size - 1) // 2

    def coeff(self, j: int) -> complex:
        """Coefficient of mode j (zero outside the stored range)."""
        if abs(j) > self.degree:
            return 0.0 + 0.0j
        return complex(self.coeffs[j + self.degree])

    @classmethod
    def zeros(cls, degree: int) -> "SpectralField":
        return cls(np.zeros(2 * degree + 1, dtype=np.complex128))

    @classmethod
    def constant(cls, value: float, degree: int = 0) -> "SpectralField":
        c = np.zeros(2 * degree + 1, dtype=np.complex128)
        c[degree] = value
        return cls(c)

    @classmethod
    def from_dict(cls, degree: int, modes: dict) -> "SpectralField":
        """Build a field from a {j: coefficient} mapping.

        The conjugate partner of each given mode is filled in unless it was
        given explicitly.
        """
        c = np.zeros(2 * degree + 1, dtype=np.complex128)
        for j, v in modes.items():
            if abs(j) > degree:
                raise ConfigurationError(f"mode {j} outside degree {degree}")
            c[j + degree] = v
        for j, v in modes.items():
            if -j not in modes:
                c[-j + degree] = np.conj(v)
        return cls(c)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        K = max(self.degree, other.degree)
        return SpectralField(_padded(self, K) + _padded(other, K))

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        K = max(self.degree, other.degree)
        return SpectralField(_padded(self, K) - _padded(other, K))

    def __mul__(self, scalar) -> "SpectralField":
        if not np.isrealobj(np.asarray(scalar)):
            raise ConfigurationError("only real scalars preserve real-field symmetry")
        return SpectralField(self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(-self.coeffs)


@dataclass(frozen=True)
class GridFunction:
    """Real samples at the equispaced nodes x_k = 2*pi*k/N."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size < 1:
            raise ConfigurationError("grid values must be a non-empty 1-d array")
        if not np.all(np.isfinite(v)):
            raise NumericsError("non-finite grid values")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def nodes(self) -> int:
        return self.values.size

    @property
    def x(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.nodes) / self.nodes


def _padded(f: SpectralField, degree: int) -> np.ndarray:
    """Coefficients of f zero-extended to the given (>=) degree."""
    if degree < f.degree:
        raise ConfigurationError("cannot pad to a smaller degree")
    pad = degree - f.degree
    if pad == 0:
        return f.coeffs.copy()
    return np.pad(f.coeffs, (pad, pad))


def _check_order(s: float) -> float:
    s = float(s)
    if not np.isfinite(s) or s < 0:
        raise ConfigurationError(f"Sobolev order must be finite and >= 0, got {s}")
    return s


def synthesize_half(half: np.ndarray, n: int) -> np.ndarray:
    """Values at n equispaced nodes of the real field with modes 0..K ``half``.

    Transforms along the last axis.  Runs pocketfft's c2r (1/n-normalized,
    times n) on the modes, zero-padded to n//2+1 only when fewer are
    given, so the output is bitwise equal to
    scipy.fft.irfft(half, n=n) * n.  Real-dtype modes are promoted to
    complex, as irfft promotes them.
    """
    size = n // 2 + 1
    if half.shape[-1] > size:
        raise AliasingError(f"{n} nodes hold modes 0..{size - 1}, got 0..{half.shape[-1] - 1}")
    if half.dtype.kind != "c":
        half = half + 0.0j
    if half.shape[-1] < size:
        padded = np.zeros(half.shape[:-1] + (size,), half.dtype)
        padded[..., : half.shape[-1]] = half
        half = padded
    return c2r(half, (-1,), n, False, 2, None, 1) * n


def analyze_half(values: np.ndarray, degree: int) -> np.ndarray:
    """Modes 0..degree of the real samples along the last axis.

    Exact (no aliasing) when the samples come from a polynomial of
    degree D and the last axis has >= degree+D+1 samples.  Runs
    pocketfft's unnormalized r2c and divides the kept modes by n, bitwise
    equal to scipy.fft.rfft(values)[..., :degree+1] / n.  Integer samples
    are promoted to float64, as rfft promotes them.
    """
    n = values.shape[-1]
    if n < 2 * degree + 1:
        raise AliasingError(f"need at least {2 * degree + 1} samples for degree {degree}")
    if values.dtype.kind not in "fc":
        values = values.astype(np.float64)
    return r2c(values, (-1,), True, 0, None, 1)[..., : degree + 1] / n


def mirror_half(half: np.ndarray) -> np.ndarray:
    """Full spectrum -K..K of the real field with modes 0..K ``half`` (last axis).

    The result is a new C-contiguous array, also for a broadcast ``half``.
    """
    K = half.shape[-1] - 1
    full = np.empty(half.shape[:-1] + (2 * K + 1,), half.dtype)
    full[..., K:] = half
    np.conjugate(half[..., :0:-1], out=full[..., :K])
    return full


def synthesize_values(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Values of sum c_j e^{ijx} at n equispaced nodes (full-spectrum adapter).

    Transforms along the last axis, so a stack of spectra of one degree
    goes through in one call: synthesize_half of modes 0..degree, bitwise
    equal to scipy.fft.irfft(coeffs[..., degree:], n=n) * n.
    """
    degree = (coeffs.shape[-1] - 1) // 2
    if n < 2 * degree + 1:
        raise AliasingError(
            f"{n} nodes cannot represent a degree-{degree} polynomial (need >= {2 * degree + 1})"
        )
    return synthesize_half(coeffs[..., degree:], n)


def coeffs_from_samples(values: np.ndarray, degree: int) -> np.ndarray:
    """Modes -degree..degree of the sampled polynomial (full-spectrum adapter).

    analyze_half mirrored, so bitwise equal to
    scipy.fft.rfft(values)[..., :degree+1] / n mirrored.
    """
    return mirror_half(analyze_half(values, degree))


def synthesize(f: SpectralField, n: int) -> GridFunction:
    """Evaluate f at the n equispaced nodes x_k = 2*pi*k/n.

    Requires n >= 2*degree+1 so that the samples determine the field.
    """
    return GridFunction(synthesize_values(f.coeffs, n))


def interpolate(g: GridFunction, degree: int) -> SpectralField:
    """Trigonometric interpolation through 2*degree+1 equispaced samples.

    The node count is pinned to 2K+1 so that the degree-K interpolant is
    uniquely defined with no asymmetric half-represented top mode.
    """
    if g.nodes != 2 * degree + 1:
        raise ConfigurationError(
            f"interpolation of degree {degree} requires exactly {2 * degree + 1} nodes, got {g.nodes}"
        )
    return SpectralField(coeffs_from_samples(g.values, degree))


def project(f: SpectralField, degree: int) -> SpectralField:
    """Orthogonal projection onto polynomials of lower degree (mode cut)."""
    if degree > f.degree:
        raise ConfigurationError(
            f"projection target degree {degree} exceeds field degree {f.degree}"
        )
    k = f.degree - degree
    return SpectralField(f.coeffs[k : f.coeffs.size - k])


def embed(f: SpectralField, degree: int) -> SpectralField:
    """Zero-pad f to a higher degree (exact embedding)."""
    return SpectralField(_padded(f, degree))


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
    n = scipy.fft.next_fast_len(2 * deg + 1, real=True)
    vf = synthesize_values(f.coeffs, n)
    vg = synthesize_values(g.coeffs, n)
    return SpectralField(coeffs_from_samples(vf * vg, deg))


def sobolev_norm(f: SpectralField, s: float) -> float:
    """Weighted norm (sum w_j^{2s} |c_j|^2)^(1/2) over represented modes."""
    s = _check_order(s)
    w = omega_weights(f.degree)
    return float(np.sqrt(np.sum(w ** (2.0 * s) * np.abs(f.coeffs) ** 2)))


def pair_norm(u: SpectralField, udot: SpectralField, s: float) -> float:
    """Product norm (|u|_{s+1}^2 + |udot|_s^2)^(1/2) of a position/velocity pair."""
    s = _check_order(s)
    return float(np.hypot(sobolev_norm(u, s + 1.0), sobolev_norm(udot, s)))


def inner_product(f: SpectralField, g: SpectralField, s: float = 0.0) -> float:
    """Weighted scalar product sum w_j^{2s} conj(f_j) g_j (real for real fields)."""
    s = _check_order(s)
    K = max(f.degree, g.degree)
    cf = _padded(f, K)
    cg = _padded(g, K)
    w = omega_weights(K)
    return float(np.real(np.sum(w ** (2.0 * s) * np.conj(cf) * cg)))
