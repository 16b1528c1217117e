"""Trigonometric-polynomial arithmetic on the 2π-periodic circle.

A real field is stored as the full complex spectrum of a degree-K
trigonometric polynomial,

    v(x) = sum_{j=-K}^{K} c_j e^{i j x},      c_{-j} = conj(c_j),

together with weighted Sobolev norms built from the weights _omega,
w_j = sqrt(j^2 + 1), by parseval_sum, the one scalar product of real
fields.  All operations are pure functions; fields are immutable values.

synthesize_values and coeffs_from_samples are the one transform pair;
they alone call the real FFTs.  Both work on half spectra: a half
spectrum holds modes 0..K of a real field along the last axis (its other
modes are their conjugates), so a stack of spectra goes through in one
call.  The synthesis zero-pads the modes to n//2+1 only when fewer are
given, and the analysis keeps modes 0..degree.  Every caller hands the
pair modes 0..K of its fields (coeffs[K:]) and mirrors a result once,
with mirror_half, where it becomes a SpectralField.  _pointwise_product
is the one product of two fields, in two calls (one stacked synthesis):
the step kernel forms it on its 3K+1-node grid, the energy diagnostics on
grids that resolve the modes they keep.  The multipliers in tau*Om are
rows of integrator._tables, applied to half spectra by their callers.

The pair calls pocketfft's C entry points c2r and r2c directly, with one
thread.  At the sizes a step uses (K <= 128), most of the time of a
scipy.fft.irfft or rfft call is its Python dispatch (uarray, argument
normalization, shape fixing): in a cProfile of a K=32 evolve, c2r/r2c
took about 15% of the time spent in the transform calls.  The pair does
exactly what that dispatch did for its inputs, so the results are
bitwise equal to scipy.fft.irfft(modes 0..K, n=n) * n and to
scipy.fft.rfft(values) / n, and next_fast_len(n) is
scipy.fft.next_fast_len(n, real=True).  A scipy.fft.set_workers context
does not reach these transforms.

The C extension is loaded by file path, without importing the package
scipy.fft: scipy.fft's __init__ pulls in scipy.special, the array-API
layer and uarray, which qlwave does not use, and that import was about
0.33 s of the 0.51 s `import qlwave.cli` on a 2-core box.
importlib.util.find_spec("scipy") locates scipy's directory without
importing it, and the first fft/_pocketfft/pypocketfft<suffix> over the
interpreter's extension suffixes is loaded under the private name
qlwave._pocketfft.pypocketfft (its last component must stay pypocketfft:
the loader calls PyInit_<last component>).
sys.modules is left untouched, so scipy.fft, if the caller imports it,
loads its own copy as usual.  There is no fallback: if scipy moves or
renames fft/_pocketfft/pypocketfft<suffix>, importing qlwave raises
ImportError naming the directory it searched.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np

from .exceptions import AliasingError, ConfigurationError, NumericsError


def _load_pocketfft():
    """scipy's pypocketfft extension module, loaded without importing scipy.fft."""
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("qlwave needs scipy, which is not installed")
    directory = os.path.join(os.path.dirname(scipy_spec.origin), "fft", "_pocketfft")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "pypocketfft" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"no pypocketfft extension module in {directory}")
    name = "qlwave._pocketfft.pypocketfft"
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    spec = importlib.machinery.ModuleSpec(name, loader, origin=path)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


_pocketfft = _load_pocketfft()
c2r, r2c = _pocketfft.c2r, _pocketfft.r2c

# Freeing one 4 MiB block, which glibc's malloc serves by mmap, raises its
# dynamic mmap threshold to 4 MiB and its heap-trim threshold to 8 MiB;
# importing scipy.fft used to do this as a side effect.  Without it the
# ~140 kB transform stacks of a K=64 L operator or a K=512 step shrink and
# regrow the heap on every call: 33k minor page faults per run of the
# bench's energy_check workload instead of none, and about a quarter more
# CPU time.  With other allocators this is one allocation and one free.
_heap_probe = np.empty(1 << 19)
del _heap_probe

# Tolerance (relative to the largest coefficient) for accepting nearly
# Hermitian input before it is symmetrized exactly.
_SYMMETRY_RTOL = 1e-10


def mode_numbers(degree: int) -> np.ndarray:
    """Mode indices j = -degree..degree in storage order."""
    return np.arange(-degree, degree + 1)


def _omega(degree: int) -> np.ndarray:
    """The weights w_j = sqrt(j^2+1) on modes 0..degree, the one tabulation of w."""
    j = np.arange(degree + 1, dtype=float)
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


def synthesize_values(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Values at n equispaced nodes of the real field with modes 0..K ``coeffs``.

    Transforms along the last axis, so a stack of half spectra goes
    through in one call.  Runs pocketfft's c2r (1/n-normalized, times n)
    on the modes, zero-padded to n//2+1 only when fewer are given, so the
    output is bitwise equal to scipy.fft.irfft(coeffs, n=n) * n.  More
    than n//2+1 modes raise AliasingError.  Real-dtype modes are promoted
    to complex, as irfft promotes them.
    """
    size = n // 2 + 1
    if coeffs.shape[-1] > size:
        raise AliasingError(f"{n} nodes hold modes 0..{size - 1}, got 0..{coeffs.shape[-1] - 1}")
    if coeffs.dtype.kind != "c":
        coeffs = coeffs + 0.0j
    if coeffs.shape[-1] < size:
        padded = np.zeros(coeffs.shape[:-1] + (size,), coeffs.dtype)
        padded[..., : coeffs.shape[-1]] = coeffs
        coeffs = padded
    return c2r(coeffs, (-1,), n, False, 2, None, 1) * n


def coeffs_from_samples(values: np.ndarray, degree: int) -> np.ndarray:
    """Modes 0..degree of the real samples along the last axis.

    Exact (no aliasing) when the samples come from a polynomial of
    degree D and the last axis has >= degree+D+1 samples; fewer than
    2*degree+1 samples raise AliasingError.  Runs pocketfft's unnormalized
    r2c and divides the kept modes by n, bitwise equal to
    scipy.fft.rfft(values)[..., :degree+1] / n.  Integer samples are
    promoted to float64, as rfft promotes them.
    """
    n = values.shape[-1]
    if n < 2 * degree + 1:
        raise AliasingError(f"need at least {2 * degree + 1} samples for degree {degree}")
    if values.dtype.kind not in "fc":
        values = values.astype(np.float64)
    return r2c(values, (-1,), True, 0, None, 1)[..., : degree + 1] / n


def next_fast_len(n: int) -> int:
    """The smallest size >= n that pocketfft's real transforms handle fast.

    pocketfft's good_size(n, True), which is what
    scipy.fft.next_fast_len(n, real=True) returns.
    """
    return _pocketfft.good_size(n, True)


def mirror_half(half: np.ndarray) -> np.ndarray:
    """Full spectrum -K..K of the real field with modes 0..K ``half`` (last axis).

    The result is a new C-contiguous array, also for a broadcast ``half``.
    """
    K = half.shape[-1] - 1
    full = np.empty(half.shape[:-1] + (2 * K + 1,), half.dtype)
    full[..., K:] = half
    np.conjugate(half[..., :0:-1], out=full[..., :K])
    return full


def embed(f: SpectralField, degree: int) -> SpectralField:
    """Zero-pad f to a higher degree (exact embedding)."""
    return SpectralField(_padded(f, degree))


def _pointwise_product(f: np.ndarray, g: np.ndarray, n: int, degree: int) -> np.ndarray:
    """Modes 0..degree of f*g on n nodes, for half spectra f and g of one leading shape."""
    spec = np.zeros((2,) + f.shape[:-1] + (n // 2 + 1,), np.complex128)
    spec[0, ..., : f.shape[-1]] = f
    spec[1, ..., : g.shape[-1]] = g
    vals = synthesize_values(spec, n)
    return coeffs_from_samples(vals[0] * vals[1], degree)


def parseval_weights(w: np.ndarray) -> np.ndarray:
    """parseval_sum's weights of w on modes 0..K: mode 0 once, m > 0 twice, re and im alike."""
    return np.repeat(np.where(np.arange(w.shape[-1]) > 0, 2.0, 1.0) * w, 2)


def parseval_sum(f: np.ndarray, g: np.ndarray, weights: np.ndarray):
    """sum_j w_j conj(f_j) g_j over modes -K..K of real fields, from half spectra f and g.

    weights is parseval_weights(w).  A pairwise sum: a stacked row sums as it does alone
    (unlike a BLAS dot), as closely as a full-spectrum sum (unlike a sequential einsum)."""
    return np.add.reduce(f.view(np.float64) * g.view(np.float64) * weights, axis=-1)


def _norm(h: np.ndarray, s: float):
    w = _omega(h.shape[-1] - 1) ** (2.0 * _check_order(s))
    return np.sqrt(parseval_sum(h, h, parseval_weights(w)))


def sobolev_norm(f: SpectralField, s: float) -> float:
    """Weighted norm (sum w_j^{2s} |c_j|^2)^(1/2), a parseval_sum over modes 0..K."""
    return float(_norm(f.coeffs[f.degree :], s))


def pair_norm(u: SpectralField, udot: SpectralField, s: float) -> float:
    """Product norm (|u|_{s+1}^2 + |udot|_s^2)^(1/2) of a pair, from two parseval_sums."""
    return half_pair_norm(u.coeffs[u.degree :], udot.coeffs[udot.degree :], s)


def half_pair_norm(u: np.ndarray, udot: np.ndarray, s: float) -> float:
    """pair_norm of the half spectra u and udot (modes 0..K), for observers of evolve."""
    s = _check_order(s)
    return float(np.hypot(_norm(u, s + 1.0), _norm(udot, s)))
