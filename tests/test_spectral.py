import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from qlwave.energy import positivity_check
from qlwave.exceptions import AliasingError, ConfigurationError, NumericsError
from qlwave.filters import sinc_c
from qlwave.integrator import IntegratorConfig, StatePair, evolve
from qlwave.problem import model_problem, power_law_initial_data
from qlwave.spectral import (
    GridFunction,
    SpectralField,
    apply_multiplier,
    coeffs_from_samples,
    dealiased_product,
    derivative,
    embed,
    inner_product,
    interpolate,
    mirror_half,
    pair_norm,
    project,
    sobolev_norm,
    synthesize,
    synthesize_half,
    synthesize_values,
)

from conftest import hermitian_field
from oracles import assembled_analysis, dense_convolution, dense_synthesize, padded_synthesis

COS_X = SpectralField.from_dict(1, {1: 0.5})


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
        assert np.allclose(synthesize(f, 8).values, 1.0)

    def test_cos_nodes(self):
        g = synthesize(COS_X, 5)
        assert np.allclose(g.values, np.cos(2 * np.pi * np.arange(5) / 5), atol=1e-15)

    def test_matches_dense_summation(self, rng):
        f = hermitian_field(rng, 4)
        g = synthesize(f, 9)
        dense = dense_synthesize(f.coeffs, 4, 9)
        assert np.max(np.abs(g.values - dense)) < 1e-13

    def test_too_few_nodes(self, rng):
        with pytest.raises(AliasingError):
            synthesize(hermitian_field(rng, 4), 8)


class TestInterpolate:
    def test_recovers_cos(self):
        f = interpolate(synthesize(COS_X, 3), 1)
        assert np.allclose(f.coeffs, COS_X.coeffs, atol=1e-15)

    def test_aliasing_of_unresolved_mode(self):
        # cos(2x) sampled on 3 nodes has the same samples as cos(x)
        cos_2x = SpectralField.from_dict(2, {2: 0.5})
        g = GridFunction(np.cos(2.0 * 2 * np.pi * np.arange(3) / 3))
        f = interpolate(g, 1)
        assert np.allclose(f.coeffs, COS_X.coeffs, atol=1e-14)
        assert np.allclose(g.values, np.cos(2 * np.pi * np.arange(3) / 3), atol=1e-14)
        assert cos_2x.degree == 2

    def test_wrong_node_count(self):
        with pytest.raises(ConfigurationError):
            interpolate(GridFunction(np.zeros(6)), 2)

    def test_matches_vandermonde_solve(self, rng):
        # least-degree interpolant of u^2 samples via an explicit linear solve
        u = hermitian_field(rng, 2)
        n = 5
        vals = synthesize(u, n).values ** 2
        x = 2 * np.pi * np.arange(n) / n
        js = np.arange(-2, 3)
        vmat = np.exp(1j * np.outer(x, js))
        expected = np.linalg.solve(vmat, vals.astype(complex))
        got = interpolate(GridFunction(vals), 2)
        assert np.max(np.abs(got.coeffs - expected)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(0, 24), st.integers(1, 4), st.integers(0, 40))
    def test_stacked_transforms_equal_row_by_row(self, seed, K, rows, extra):
        rng = np.random.default_rng(seed)
        stack = np.stack([hermitian_field(rng, K).coeffs for _ in range(rows)])
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
        # bit patterns, not values, are compared: signed zeros count.  Even
        # samples give spectra with exactly zero imaginary parts, where a
        # conjugate taken after the 1/n scaling flips the sign of a zero.
        # Real coefficients and integer samples must be promoted as
        # scipy.fft.irfft/rfft promote them.
        coeff_dtype, sample_dtype = dtypes
        rng = np.random.default_rng(seed)
        n = 2 * degree + 1 + extra
        shape = lead + (2 * degree + 1,)
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if coeff_dtype is np.float64:
            coeffs = coeffs.real
        vals = synthesize_values(coeffs, n)
        assert np.array_equal(vals.view(np.uint64), padded_synthesis(coeffs, n).view(np.uint64))
        samples = rng.standard_normal(lead + (n,))
        if even:
            samples = 0.5 * (samples + np.roll(samples[..., ::-1], 1, axis=-1))
        if sample_dtype is np.int64:
            samples = np.rint(1000.0 * samples).astype(np.int64)
        got = coeffs_from_samples(samples, degree)
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
            assert np.array_equal(synthesize_half(half, n).view(np.uint64), want.view(np.uint64))
        with pytest.raises(AliasingError):
            synthesize_half(np.ones(n // 2 + 2, dtype=complex), n)

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
        back = interpolate(synthesize(f, 2 * K + 1), K)
        tol = 1e-12 * max(sobolev_norm(f, 0.0), 1e-30)
        assert np.max(np.abs(back.coeffs - f.coeffs)) <= tol


class TestProject:
    def test_identity(self, rng):
        f = hermitian_field(rng, 5)
        assert np.array_equal(project(f, 5).coeffs, f.coeffs)

    def test_drops_high_modes(self):
        f = SpectralField.from_dict(2, {0: 0.5, 2: 0.25})
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
        vals = synthesize(f, n).values
        h = 2 * np.pi / n
        fd = (np.roll(vals, -1) - 2 * vals + np.roll(vals, 1)) / h**2
        exact = synthesize(derivative(f, 2), n).values
        rel = np.max(np.abs(exact - fd)) / np.max(np.abs(exact))
        assert rel < 1e-6


class TestDealiasedProduct:
    def test_identity_factor(self, rng):
        f = hermitian_field(rng, 5)
        p = dealiased_product(f, SpectralField.constant(1.0))
        assert np.max(np.abs(p.coeffs - f.coeffs)) < 1e-15

    def test_cos_squared(self):
        p = dealiased_product(COS_X, COS_X)
        expected = SpectralField.from_dict(2, {0: 0.5, 2: 0.25})
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
