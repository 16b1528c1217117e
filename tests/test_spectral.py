import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

import qlwave
from qlwave import spectral
from qlwave.energy import _LOperator, energy_change_residual, positivity_check
from qlwave.exceptions import AliasingError, ConfigurationError, NumericsError
from qlwave.filters import sinc_c
from qlwave.integrator import IntegratorConfig, StatePair, _Engine, evolve
from qlwave.problem import ProblemSpec, ellipticity_report, model_problem, power_law_initial_data
from qlwave.spectral import (
    SpectralField,
    coeffs_from_samples,
    embed,
    mirror_half,
    pair_norm,
    parseval_sum,
    parseval_weights,
    sobolev_norm,
    synthesize_values,
)

from conftest import hermitian_field
from oracles import (
    apply_multiplier,
    assembled_analysis,
    dealiased_product,
    dense_convolution,
    dense_synthesize,
    derivative,
    field_from_dict,
    full_pair_norm,
    full_sobolev_norm,
    full_sobolev_sq,
    inner_product,
    omega_weights,
    padded_synthesis,
    project,
    two_synthesis_product,
    zeroed_buffer_product,
)

COS_X = field_from_dict(1, {1: 0.5})


def values_of(f: SpectralField, n: int) -> np.ndarray:
    """Values of f at n equispaced nodes, through the pair on modes 0..K."""
    return synthesize_values(f.coeffs[f.degree :], n)


def field_of(values: np.ndarray, degree: int) -> SpectralField:
    """The degree-``degree`` field of the samples, through the pair and one mirror."""
    return SpectralField(mirror_half(coeffs_from_samples(values, degree)))


def field_strategy(max_degree=10, decay=1.0):
    return st.builds(
        lambda seed, K: hermitian_field(np.random.default_rng(seed), K, decay=decay),
        st.integers(0, 2**31 - 1),
        st.integers(0, max_degree),
    )


class TestSpectralField:
    def test_hermitian_enforced(self):
        with pytest.raises(ConfigurationError):
            SpectralField(np.array([0.0, 1.0 + 1.0j, 0.5]))

    def test_symmetrized_exactly(self, rng):
        f = hermitian_field(rng, 6)
        assert np.array_equal(f.coeffs, np.conj(f.coeffs[::-1]))

    def test_even_length_rejected(self):
        with pytest.raises(ConfigurationError):
            SpectralField(np.zeros(4, dtype=complex))

    def test_non_finite_rejected(self):
        with pytest.raises(NumericsError):
            SpectralField(np.array([np.nan, 1.0, np.nan], dtype=complex))

    def test_coeff_out_of_range_is_zero(self):
        assert COS_X.coeff(5) == 0.0

    def test_scalar_multiply_real_only(self):
        with pytest.raises(ConfigurationError):
            COS_X * 1j


class TestSynthesize:
    def test_constant(self):
        f = SpectralField.constant(1.0)
        assert np.allclose(values_of(f, 8), 1.0)

    def test_cos_nodes(self):
        g = values_of(COS_X, 5)
        assert np.allclose(g, np.cos(2 * np.pi * np.arange(5) / 5), atol=1e-15)

    def test_matches_dense_summation(self, rng):
        f = hermitian_field(rng, 4)
        g = values_of(f, 9)
        dense = dense_synthesize(f.coeffs, 4, 9)
        assert np.max(np.abs(g - dense)) < 1e-13

    def test_too_few_nodes(self, rng):
        # n nodes hold modes 0..n//2; one mode more cannot be represented,
        # and a full spectrum -K..K handed over by mistake has 2K+1 > n//2+1
        # modes at n = 2K+1
        for n in (7, 8, 9):
            size = n // 2 + 1
            assert synthesize_values(rng.standard_normal(size) + 0j, n).shape == (n,)
            with pytest.raises(AliasingError):
                synthesize_values(rng.standard_normal(size + 1) + 0j, n)
            with pytest.raises(AliasingError):
                synthesize_values(hermitian_field(rng, (n - 1) // 2).coeffs, n)


class TestInterpolate:
    def test_recovers_cos(self):
        f = field_of(values_of(COS_X, 3), 1)
        assert np.allclose(f.coeffs, COS_X.coeffs, atol=1e-15)

    def test_aliasing_of_unresolved_mode(self):
        # cos(2x) sampled on 3 nodes has the same samples as cos(x)
        cos_2x = field_from_dict(2, {2: 0.5})
        g = np.cos(2.0 * 2 * np.pi * np.arange(3) / 3)
        f = field_of(g, 1)
        assert np.allclose(f.coeffs, COS_X.coeffs, atol=1e-14)
        assert np.allclose(g, np.cos(2 * np.pi * np.arange(3) / 3), atol=1e-14)
        assert cos_2x.degree == 2

    def test_wrong_node_count(self):
        # fewer than 2*degree+1 samples cannot determine modes 0..degree
        coeffs_from_samples(np.zeros(5), 2)
        with pytest.raises(AliasingError):
            coeffs_from_samples(np.zeros(4), 2)

    def test_matches_vandermonde_solve(self, rng):
        # least-degree interpolant of u^2 samples via an explicit linear solve
        u = hermitian_field(rng, 2)
        n = 5
        vals = values_of(u, n) ** 2
        x = 2 * np.pi * np.arange(n) / n
        js = np.arange(-2, 3)
        vmat = np.exp(1j * np.outer(x, js))
        expected = np.linalg.solve(vmat, vals.astype(complex))
        got = field_of(vals, 2)
        assert np.max(np.abs(got.coeffs - expected)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(0, 24), st.integers(1, 4), st.integers(0, 40))
    def test_stacked_transforms_equal_row_by_row(self, seed, K, rows, extra):
        rng = np.random.default_rng(seed)
        stack = np.stack([hermitian_field(rng, K).coeffs[K:] for _ in range(rows)])
        n = 2 * K + 1 + extra
        vals = synthesize_values(stack, n)
        assert vals.shape == (rows, n)
        for row, v in zip(stack, vals):
            assert np.array_equal(v, synthesize_values(row, n))
        back = coeffs_from_samples(vals, K)
        assert back.shape == stack.shape
        for v, b in zip(vals, back):
            assert np.array_equal(b, coeffs_from_samples(v, K))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(0, 64), st.integers(0, 80),
           st.sampled_from([(), (1,), (3,), (2, 3)]), st.booleans(),
           st.tuples(st.sampled_from([np.complex128, np.float64]),
                     st.sampled_from([np.float64, np.int64])))
    def test_wrappers_bitwise_equal_reference_forms(self, seed, degree, extra, lead, even, dtypes):
        # the pair on modes 0..degree against the full-spectrum forms on
        # scipy.fft.irfft/rfft.  Bit patterns, not values, are compared:
        # signed zeros count.  Even samples give spectra with exactly zero
        # imaginary parts, where a conjugate taken after the 1/n scaling
        # flips the sign of a zero.  Real coefficients and integer samples
        # must be promoted as scipy.fft.irfft/rfft promote them.
        coeff_dtype, sample_dtype = dtypes
        rng = np.random.default_rng(seed)
        n = 2 * degree + 1 + extra
        shape = lead + (2 * degree + 1,)
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if coeff_dtype is np.float64:
            coeffs = coeffs.real
        vals = synthesize_values(coeffs[..., degree:], n)
        assert np.array_equal(vals.view(np.uint64), padded_synthesis(coeffs, n).view(np.uint64))
        samples = rng.standard_normal(lead + (n,))
        if even:
            samples = 0.5 * (samples + np.roll(samples[..., ::-1], 1, axis=-1))
        if sample_dtype is np.int64:
            samples = np.rint(1000.0 * samples).astype(np.int64)
        got = mirror_half(coeffs_from_samples(samples, degree))
        want = assembled_analysis(samples, degree)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n", [7, 8, 100])
    def test_half_synthesis_takes_up_to_n_half_plus_one_modes(self, rng, n):
        # a half spectrum shorter than n//2+1 is zero-padded, one of exactly
        # n//2+1 modes (the Nyquist mode included when n is even) goes to
        # c2r as it is, and a longer one cannot be represented
        for size in (1, 3, n // 2 + 1):
            half = rng.standard_normal((2, size)) + 1j * rng.standard_normal((2, size))
            want = scipy.fft.irfft(half, n=n) * n
            assert np.array_equal(synthesize_values(half, n).view(np.uint64), want.view(np.uint64))
        with pytest.raises(AliasingError):
            synthesize_values(np.ones(n // 2 + 2, dtype=complex), n)

    def test_mirror_is_contiguous_conjugate_extension(self, rng):
        half = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        for stack in (half, np.broadcast_to(half, (3, 4)), np.broadcast_to(half[:2], (2, 2))):
            full = mirror_half(stack)
            want = np.concatenate((np.conj(stack[..., :0:-1]), stack), axis=-1)
            assert full.flags.c_contiguous
            assert np.array_equal(full.view(np.uint64), np.ascontiguousarray(want).view(np.uint64))

    def test_kernels_bypass_public_scipy_fft(self, monkeypatch):
        # the step, the L operator and the exact product transform through
        # pocketfft's C core, never through scipy.fft's public functions
        def refuse(*args, **kwargs):
            raise AssertionError("scipy.fft public transform called")

        monkeypatch.setattr(scipy.fft, "irfft", refuse)
        monkeypatch.setattr(scipy.fft, "rfft", refuse)
        K = 16
        u0, ud0 = power_law_initial_data(K)
        cfg = IntegratorConfig(tau=0.01, K=K, filter=sinc_c(2.0))
        out = evolve(StatePair(u0, ud0), model_problem(1.0), cfg, 3)
        assert np.isfinite(out.norm(1.0))
        margin = positivity_check(out.u, model_problem(1.0), cfg, n_samples=5,
                                  rng=np.random.default_rng(3))
        assert np.isfinite(margin)
        prod = dealiased_product(u0, ud0)
        assert prod.degree == 2 * K

    @settings(max_examples=40, deadline=None)
    @given(field_strategy())
    def test_round_trip(self, f):
        K = f.degree
        back = field_of(values_of(f, 2 * K + 1), K)
        tol = 1e-12 * max(sobolev_norm(f, 0.0), 1e-30)
        assert np.max(np.abs(back.coeffs - f.coeffs)) <= tol


class TestProject:
    def test_identity(self, rng):
        f = hermitian_field(rng, 5)
        assert np.array_equal(project(f, 5).coeffs, f.coeffs)

    def test_drops_high_modes(self):
        f = field_from_dict(2, {0: 0.5, 2: 0.25})
        p = project(f, 1)
        assert p.degree == 1
        assert p.coeff(0) == 0.5 and p.coeff(1) == 0.0

    def test_raises_on_higher_target(self):
        with pytest.raises(ConfigurationError):
            project(COS_X, 2)

    def test_norm_never_increases(self, rng):
        f = hermitian_field(rng, 12)
        for s in (0.0, 1.0, 2.5):
            assert sobolev_norm(project(f, 4), s) <= sobolev_norm(f, s) + 1e-15

    def test_approximation_property(self, rng):
        # |f - P_K f|_{s'} <= K^{-(s-s')} |f|_s
        f = hermitian_field(rng, 64, decay=3.0)
        for K in (8, 16, 32):
            tail = f - embed(project(f, K), 64)
            for s, sp in ((2.0, 0.0), (3.0, 1.0), (4.0, 1.0)):
                bound = K ** (-(s - sp)) * sobolev_norm(f, s)
                assert sobolev_norm(tail, sp) <= bound * (1 + 1e-12)

    @settings(max_examples=25, deadline=None)
    @given(field_strategy(max_degree=8), st.integers(0, 4), st.sampled_from([0.0, 1.0, 2.0]))
    def test_projection_orthogonality(self, w, K, s):
        # <v, P_K w>_s = <v, w>_s for any v of degree K
        v = hermitian_field(np.random.default_rng(99), K)
        if K > w.degree:
            return
        lhs = inner_product(v, project(w, K), s)
        rhs = inner_product(v, w, s)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


class TestMultiplier:
    def test_cos_zero_tau_is_identity(self, rng):
        f = hermitian_field(rng, 6)
        g = apply_multiplier(f, lambda w: np.cos(0.0 * w))
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_omega_on_cos(self):
        g = apply_multiplier(COS_X, lambda w: w)
        assert np.allclose(g.coeffs, np.sqrt(2.0) * COS_X.coeffs)

    def test_sinc_on_constant(self):
        from qlwave.filters import sinc

        tau = 0.7
        f = SpectralField.constant(2.0)
        g = apply_multiplier(f, lambda w: sinc(tau * w))
        assert np.isclose(g.coeff(0).real, 2.0 * np.sin(tau) / tau)

    def test_real_multiplier_preserves_symmetry_exactly(self, rng):
        f = hermitian_field(rng, 9)
        g = apply_multiplier(f, lambda w: np.exp(-0.3 * w) + np.cos(w))
        assert np.array_equal(g.coeffs, np.conj(g.coeffs[::-1]))

    def test_non_finite_multiplier(self, rng):
        with np.errstate(divide="ignore"), pytest.raises(NumericsError):
            apply_multiplier(hermitian_field(rng, 3), lambda w: 1.0 / (w - w))


class TestDerivative:
    def test_second_derivative_of_cos(self):
        d = derivative(COS_X, 2)
        assert np.allclose(d.coeffs, -COS_X.coeffs)

    def test_derivative_of_constant(self):
        d = derivative(SpectralField.constant(3.0), 1)
        assert np.all(d.coeffs == 0)

    def test_against_finite_differences(self, rng):
        f = hermitian_field(rng, 4)
        n = 2**14
        vals = values_of(f, n)
        h = 2 * np.pi / n
        fd = (np.roll(vals, -1) - 2 * vals + np.roll(vals, 1)) / h**2
        exact = values_of(derivative(f, 2), n)
        rel = np.max(np.abs(exact - fd)) / np.max(np.abs(exact))
        assert rel < 1e-6


class TestDealiasedProduct:
    def test_identity_factor(self, rng):
        f = hermitian_field(rng, 5)
        p = dealiased_product(f, SpectralField.constant(1.0))
        assert np.max(np.abs(p.coeffs - f.coeffs)) < 1e-15

    def test_cos_squared(self):
        p = dealiased_product(COS_X, COS_X)
        expected = field_from_dict(2, {0: 0.5, 2: 0.25})
        assert np.allclose(p.coeffs, expected.coeffs, atol=1e-15)

    def test_matches_dense_convolution(self, rng):
        f = hermitian_field(rng, 8)
        g = hermitian_field(rng, 8)
        p = dealiased_product(f, g)
        dense = dense_convolution(list(f.coeffs), list(g.coeffs))
        scale = max(np.max(np.abs(dense)), 1e-30)
        assert np.max(np.abs(p.coeffs - dense)) / scale < 1e-13

    def test_all_degrees_up_to_16(self, rng):
        for K in range(0, 17):
            f = hermitian_field(rng, K)
            g = hermitian_field(rng, K)
            p = dealiased_product(f, g)
            dense = dense_convolution(list(f.coeffs), list(g.coeffs))
            scale = max(np.max(np.abs(dense)), 1e-30)
            assert np.max(np.abs(p.coeffs - dense)) / scale < 1e-13

    @settings(max_examples=30, deadline=None)
    @given(field_strategy(max_degree=24), field_strategy(max_degree=24))
    def test_any_degrees_match_dense_convolution(self, f, g):
        p = dealiased_product(f, g)
        dense = np.array(dense_convolution(list(f.coeffs), list(g.coeffs)))
        scale = max(float(np.max(np.abs(dense))), 1e-30)
        assert np.max(np.abs(p.coeffs - dense)) / scale < 1e-13

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(0, 24), st.integers(0, 24),
           st.integers(0, 48), st.integers(0, 9), st.sampled_from([(), (1,), (3,), (2, 3)]))
    def test_pointwise_product_equals_former_forms(self, seed, kf, kg, degree, extra, lead):
        # the one product routine keeps the bits of both forms it replaced,
        # on every grid that holds the factors' modes and the kept ones
        rng = np.random.default_rng(seed)
        f, g = ((rng.standard_normal(lead + (k + 1,)) + 1j * rng.standard_normal(lead + (k + 1,)))
                * omega_weights(k)[k:] ** -2.0 for k in (kf, kg))
        f[..., 0], g[..., 0] = f[..., 0].real, g[..., 0].real
        n = max(2 * degree + 1, 2 * max(kf, kg) + 1) + extra
        got = spectral._pointwise_product(f, g, n, degree)
        assert got.shape == lead + (degree + 1,)
        for want in (zeroed_buffer_product(f, g, n, degree),
                     two_synthesis_product(f, g, n, degree)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_bilinear(self, rng):
        f, g, h = (hermitian_field(rng, 4) for _ in range(3))
        lhs = dealiased_product(f + g, h)
        rhs = dealiased_product(f, h) + dealiased_product(g, h)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-13


class TestNorms:
    def test_constant_norm_all_orders(self):
        f = SpectralField.constant(1.0)
        for s in (0.0, 1.0, 3.7):
            assert sobolev_norm(f, s) == 1.0

    def test_cos_norms(self):
        assert np.isclose(sobolev_norm(COS_X, 0.0), np.sqrt(0.5), atol=1e-15)
        assert np.isclose(sobolev_norm(COS_X, 1.0), 1.0, atol=1e-15)

    def test_monotone_in_order(self, rng):
        f = hermitian_field(rng, 10)
        norms = [sobolev_norm(f, s) for s in (0.0, 0.5, 1.0, 2.0, 3.0)]
        assert all(a <= b + 1e-15 for a, b in zip(norms, norms[1:]))

    def test_negative_order_rejected(self):
        with pytest.raises(ConfigurationError):
            sobolev_norm(COS_X, -1.0)

    def test_pair_norm_zero(self):
        z = SpectralField.zeros(3)
        assert pair_norm(z, z, 0.0) == 0.0

    def test_pair_norm_collapses(self, rng):
        u = hermitian_field(rng, 5)
        z = SpectralField.zeros(5)
        assert np.isclose(pair_norm(u, z, 1.5), sobolev_norm(u, 2.5), atol=1e-15)

    def test_pair_norm_two_mode_hand_sum(self):
        # (cos x, cos x) at s=0: |cos|_1^2 + |cos|_0^2 = 1 + 1/2
        assert np.isclose(pair_norm(COS_X, COS_X, 0.0), np.sqrt(1.5), atol=1e-15)


class TestParsevalSum:
    @pytest.mark.parametrize("s", [0, 1, 2, 5])
    @pytest.mark.parametrize("K", [0, 1, 8, 64, 512])
    def test_norms_match_full_spectrum_and_rows_sum_alone(self, rng, K, s):
        fields = [hermitian_field(rng, K, decay=decay) for decay in (0.0, 0.5, 1.0, 2.0, 3.0)]
        pairs = list(zip(fields, fields[::-1]))
        # the one sum against the full-spectrum sums, relative to the norm
        for f, g in pairs:
            want = full_sobolev_norm(f, s)
            assert abs(sobolev_norm(f, s) - want) <= 1e-15 * want
            want = full_pair_norm(f, g, s)
            assert abs(pair_norm(f, g, s) - want) <= 1e-15 * want
        if K >= 1 and s == 1:
            # the guard's dot takes its weights from parseval_weights
            cfg = IntegratorConfig(tau=0.1, K=K, filter=sinc_c(2.0))
            engine = _Engine(model_problem(1.0), [cfg])
            u = np.stack([f.coeffs[K:] for f, _ in pairs])
            ud = np.stack([g.coeffs[K:] for _, g in pairs])
            for (f, g), got in zip(pairs, engine.norm_sq(u, ud)):
                want = full_sobolev_sq(f, 2.0) + full_sobolev_sq(g, 1.0)
                assert abs(got - want) <= 1e-15 * want
        # a (5, K+1) stack, sliced from full spectra, sums each row as it sums alone
        full = np.stack([f.coeffs for f in fields])
        half = full[:, K:]
        weights = parseval_weights(omega_weights(K)[K:] ** (2.0 * s))
        stacked = parseval_sum(half, half[::-1], weights)
        alone = [parseval_sum(f, g, weights) for f, g in zip(half, half[::-1])]
        assert stacked.shape == (5,) and np.array_equal(stacked, alone)


class TestInnerProduct:
    def test_self_inner_product_is_norm(self, rng):
        f = hermitian_field(rng, 7)
        assert np.isclose(inner_product(f, f, 0.0), sobolev_norm(f, 0.0) ** 2, rtol=1e-14)

    def test_orthogonal_modes(self):
        one = SpectralField.constant(1.0)
        for s in (0.0, 1.0, 2.0):
            assert inner_product(one, COS_X, s) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(field_strategy(max_degree=8), field_strategy(max_degree=8))
    def test_symmetry(self, f, g):
        for s in (0.0, 1.0):
            a, b = inner_product(f, g, s), inner_product(g, f, s)
            assert abs(a - b) <= 1e-12 * (1.0 + abs(a))


@pytest.fixture
def transform_calls(monkeypatch):
    """Counts calls of the pair ("pair") and of pocketfft's c2r/r2c ("core").

    Each function is wrapped at every qlwave module attribute that holds
    it, as the benchmark's traced runs wrap the pair.
    """
    calls = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    targets = [(spectral.synthesize_values, "pair"), (spectral.coeffs_from_samples, "pair"),
               (spectral.c2r, "core"), (spectral.r2c, "core")]
    for name, module in list(sys.modules.items()):
        if name != "qlwave" and not name.startswith("qlwave."):
            continue
        for attr, value in list(vars(module).items()):
            for fn, key in targets:
                if value is fn:
                    monkeypatch.setattr(module, attr, counted(key, fn))
    return calls


class TestTransformPair:
    # every transform goes through synthesize_values/coeffs_from_samples,
    # the names the benchmark counts, and each pair call is one C-core call

    def test_fhat_makes_four(self, rng, transform_calls):
        K = 12
        cfg = IntegratorConfig(tau=0.1, K=K, filter=sinc_c(2.0))
        engine = _Engine(model_problem(1.0), [cfg])
        transform_calls.clear()
        engine.fhat(hermitian_field(rng, K, scale=0.5).coeffs[np.newaxis, K:])
        assert transform_calls == {"pair": 4, "core": 4}

    def test_l_operator_apply_makes_four(self, rng, transform_calls):
        K = 9
        cfg = IntegratorConfig(tau=0.2, K=K, filter=sinc_c(2.0))
        op = _LOperator(hermitian_field(rng, K), model_problem(1.0), cfg, K)
        transform_calls.clear()
        op.apply(np.stack([hermitian_field(rng, K).coeffs[K:] for _ in range(3)]))
        assert transform_calls == {"pair": 4, "core": 4}

    def test_l_operator_form_makes_two(self, rng, transform_calls):
        K = 9
        cfg = IntegratorConfig(tau=0.2, K=K, filter=sinc_c(2.0))
        op = _LOperator(hermitian_field(rng, K), model_problem(1.0), cfg, K)
        transform_calls.clear()
        op.form(np.stack([hermitian_field(rng, K).coeffs[K:] for _ in range(3)]))
        assert transform_calls == {"pair": 2, "core": 2}

    def test_dealiased_product_makes_two(self, rng, transform_calls):
        # both factors go through one stacked synthesis
        dealiased_product(hermitian_field(rng, 5), hermitian_field(rng, 8))
        assert transform_calls == {"pair": 2, "core": 2}

    def test_energy_change_residual_makes_fourteen_and_fourteen(self, rng, transform_calls,
                                                                monkeypatch):
        # two steps make 8 syntheses and 8 analyses; each time level then
        # interpolates a(u) and a(v) and forms the one stacked product that
        # U and R* share, 3 and 3 (it was 20 and 20 with U's own products)
        K = 16
        problem = ProblemSpec(kappa=1.0, a=lambda u: u, g=None)
        cfg = IntegratorConfig(tau=0.05, K=K, filter=sinc_c(2.0))
        un, vn = (StatePair(hermitian_field(rng, K, 0.3), hermitian_field(rng, K, 0.3))
                  for _ in range(2))
        syntheses = []
        c2r = spectral.c2r
        monkeypatch.setattr(spectral, "c2r", lambda *args: syntheses.append(1) or c2r(*args))
        energy_change_residual(un, vn, problem, cfg)
        assert transform_calls == {"pair": 28, "core": 28}
        assert len(syntheses) == 14

    def test_core_only_through_the_pair(self, transform_calls):
        K = 8
        problem = model_problem(1.0)
        cfg = IntegratorConfig(tau=0.05, K=K, filter=sinc_c(2.0))
        u0, ud0 = power_law_initial_data(K)
        out = evolve(StatePair(u0, ud0), problem, cfg, 3)
        ellipticity_report(problem, out.u)
        positivity_check(out.u, problem, cfg, n_samples=5)
        assert transform_calls["pair"] > 0
        assert transform_calls["core"] == transform_calls["pair"]


SRC = str(Path(qlwave.__file__).resolve().parents[1])

ENTRY_POINTS = {
    "energy-check": ["energy-check", "-o", "grid.K=8", "-o", "energy.probes=4"],
    "conv-time": ["conv-time", "-o", "sweep.K=8", "-o", "sweep.tau=0.25 0.125 0.0625",
                  "-o", "time.T=1", "-o", "reference.refine_factor=4"],
    "simulate": ["simulate", "-o", "grid.K=8", "-o", "time.tau=0.1", "-o", "time.T=1"],
    "filter-check": ["filter-check", "--filter", "sinc:2", "--A0", "13", "--delta", "0.15"],
}

# runs one CLI command, lists the heavy scipy subpackages it loaded, then
# compares the pair bitwise with public scipy.fft on a random stack
ENTRY_POINT_SCRIPT = """
import json
import sys
{first}from qlwave.cli import cli_main
rc = cli_main({argv!r})
loaded = [m for m in ("scipy.fft", "scipy.special", "scipy.optimize") if m in sys.modules]
import numpy as np
import scipy.fft
from qlwave.spectral import coeffs_from_samples, synthesize_values
rng = np.random.default_rng(11)
half = rng.standard_normal((2, 3, 129)) + 1j * rng.standard_normal((2, 3, 129))
values = rng.standard_normal((2, 3, 257))
bits = lambda a: a.view(np.uint64)
same = (np.array_equal(bits(synthesize_values(half, 257)), bits(scipy.fft.irfft(half, n=257) * 257))
        and np.array_equal(bits(coeffs_from_samples(values, 128)), bits(scipy.fft.rfft(values) / 257)))
print(json.dumps([rc, loaded, same]))
"""


def run_python(code: str, pythonpath: list) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(pythonpath + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)


class TestExtensionLoading:
    # pocketfft's extension is loaded by file path: no entry point imports
    # scipy.fft (or scipy.special, scipy.optimize), and the pair stays
    # bitwise equal to public scipy.fft whichever is imported first

    @pytest.mark.parametrize("command,scipy_fft_first", [
        ("energy-check", False), ("conv-time", False), ("simulate", False),
        ("filter-check", False), ("conv-time", True),
    ])
    def test_entry_point_imports_no_scipy_fft(self, tmp_path, command, scipy_fft_first):
        argv = ENTRY_POINTS[command]
        if command != "filter-check":
            argv = argv + ["--out", str(tmp_path)]
        first = "import scipy.fft\n" if scipy_fft_first else ""
        run = run_python(ENTRY_POINT_SCRIPT.format(first=first, argv=argv), [SRC])
        assert run.returncode == 0, run.stderr
        rc, loaded, same = json.loads(run.stdout.splitlines()[-1])
        assert rc == 0 and same
        assert scipy_fft_first or loaded == []

    def test_next_fast_len_is_scipys(self):
        # covers every product, L-operator and dealiasing grid of the
        # shipped and bench configs
        for n in range(1, 10001):
            assert spectral.next_fast_len(n) == scipy.fft.next_fast_len(n, real=True), n

    def test_missing_extension_fails_loudly(self, tmp_path):
        (tmp_path / "scipy").mkdir()
        (tmp_path / "scipy" / "__init__.py").write_text("")
        run = run_python("import qlwave", [str(tmp_path), SRC])
        error = run.stderr.splitlines()[-1]
        assert run.returncode != 0
        assert error.startswith("ImportError:")
        assert str(tmp_path / "scipy" / "fft" / "_pocketfft") in error
