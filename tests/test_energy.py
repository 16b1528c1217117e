import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlwave.energy import (
    _LOperator,
    _mode_basis,
    _random_probes,
    apply_l_operator,
    apply_position_filter,
    energy_change_residual,
    energy_report,
    identity_residual,
    modified_energy,
    positivity_certificate,
    positivity_check,
    u_term,
)
from qlwave.exceptions import ConfigurationError, DivergenceError, PreconditionError
from qlwave.filters import grimm_hochbruck, hairer_lubich, impulse, phi, psi1, sinc_c
from qlwave.integrator import IntegratorConfig, StatePair
from qlwave.problem import ProblemSpec, ellipticity_report, model_problem, power_law_initial_data
from qlwave.spectral import (
    SpectralField,
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
    dense_l_operator,
    derivative,
    field_from_dict,
    full_spectrum_exact_margin,
    full_spectrum_l_operator,
    inner_product,
    omega_weights,
    quadrature_inner_product,
)

ADMISSIBLE = (hairer_lubich(), grimm_hochbruck(), sinc_c(2.0), sinc_c(3.0))


def quasilinear_only(kappa, a=None):
    return ProblemSpec(kappa=kappa, a=a if a is not None else (lambda u: u), g=None)


def zero_a_problem():
    return ProblemSpec(kappa=1.0, a=lambda u: 0.0 * u, g=None)


class TestUTerm:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_a_raises_the_steps_divergence(self):
        # U and L take a_K(u) from the step's interpolation, with its overflow check
        p = quasilinear_only(1.0, a=lambda x: np.exp(1000.0 * x) - 1.0)
        cfg = IntegratorConfig(tau=0.1, K=4, filter=sinc_c(2.0))
        u = field_from_dict(4, {1: 0.5})
        with np.errstate(over="ignore"):
            for diagnostic in (u_term, apply_l_operator):
                with pytest.raises(DivergenceError, match=r"a\(u\) or g"):
                    diagnostic(u, u, p, cfg)

    def test_zero_error_field(self, rng):
        cfg = IntegratorConfig(tau=0.1, K=8, filter=sinc_c(2.0))
        u = hermitian_field(rng, 8)
        assert u_term(SpectralField.zeros(8), u, quasilinear_only(1.0), cfg) == 0.0

    def test_zero_a(self, rng):
        cfg = IntegratorConfig(tau=0.1, K=8, filter=sinc_c(2.0))
        e, u = hermitian_field(rng, 8), hermitian_field(rng, 8)
        assert u_term(e, u, zero_a_problem(), cfg) == 0.0

    def test_degree_mismatch(self, rng):
        cfg = IntegratorConfig(tau=0.1, K=8, filter=sinc_c(2.0))
        with pytest.raises(ConfigurationError):
            u_term(hermitian_field(rng, 8), hermitian_field(rng, 6), quasilinear_only(1.0), cfg)

    def test_against_quadrature_oracle(self, rng):
        # recompute both inner products by dense-grid quadrature
        K = 8
        p = quasilinear_only(1.0)
        cfg = IntegratorConfig(tau=0.3, K=K, filter=sinc_c(2.0))
        e, u = hermitian_field(rng, K, decay=1.0), hermitian_field(rng, K, decay=1.0)

        got = u_term(e, u, p, cfg, projected=False)

        n = 256
        w1 = omega_weights(K)
        exx = derivative(e, 2)
        cos_exx_vals = synthesize_values((np.cos(cfg.tau * w1) * exx.coeffs)[K:], n)
        a_vals = synthesize_values(u.coeffs[K:], n)  # a(u) = u
        exx_vals = synthesize_values(exx.coeffs[K:], n)
        term1 = quadrature_inner_product(cos_exx_vals, a_vals * exx_vals)

        w2 = omega_weights(2 * K)
        prod = np.convolve(u.coeffs, exx.coeffs)
        psi_prod = np.asarray(psi1(cfg.filter, cfg.tau * w2)) * prod
        term2 = float(np.sum(w2 * w2 * np.abs(psi_prod) ** 2))

        expected = term1 - 0.25 * cfg.tau**2 * p.kappa * term2
        assert abs(got - expected) <= 1e-12 * (1.0 + abs(expected))

    def test_projected_and_unprojected_agree_on_low_degrees(self, rng):
        # inputs with only |j| <= K/2 keep every product inside degree K
        K = 8
        p = quasilinear_only(1.0)
        cfg = IntegratorConfig(tau=0.2, K=K, filter=sinc_c(2.0))
        low_e = hermitian_field(rng, 4)
        low_u = hermitian_field(rng, 4)
        e = low_e + SpectralField.zeros(K)
        u = low_u + SpectralField.zeros(K)
        a = u_term(e, u, p, cfg, projected=True)
        b = u_term(e, u, p, cfg, projected=False)
        assert abs(a - b) <= 1e-12 * (1.0 + abs(a))


class TestModifiedEnergy:
    def test_zero_state(self, rng):
        cfg = IntegratorConfig(tau=0.1, K=6, filter=sinc_c(2.0))
        z = SpectralField.zeros(6)
        rep = modified_energy(z, z, hermitian_field(rng, 6), quasilinear_only(1.0), cfg)
        assert rep.E_value == 0.0

    def test_linear_case_is_pair_norm(self, rng):
        cfg = IntegratorConfig(tau=0.1, K=6, filter=sinc_c(2.0))
        e, ed, u = (hermitian_field(rng, 6) for _ in range(3))
        rep = modified_energy(e, ed, u, quasilinear_only(0.0), cfg)
        assert np.isclose(rep.E_value, pair_norm(e, ed, 1.0) ** 2, rtol=1e-14)

    def test_report_consistency(self, rng):
        p = quasilinear_only(0.7)
        cfg = IntegratorConfig(tau=0.1, K=6, filter=sinc_c(2.0))
        e, ed, u = (hermitian_field(rng, 6) for _ in range(3))
        rep = modified_energy(e, ed, u, p, cfg)
        assert abs(rep.E_value - (rep.pair_norm_sq + p.kappa * rep.U_value)) <= 1e-12 * (
            1.0 + abs(rep.E_value)
        )

    def test_quadratic_homogeneity(self, rng):
        p = quasilinear_only(1.0)
        cfg = IntegratorConfig(tau=0.1, K=8, filter=sinc_c(2.0))
        e, ed, u = (hermitian_field(rng, 8) for _ in range(3))
        base = modified_energy(e, ed, u, p, cfg).E_value
        for lam in (2.0, 10.0):
            scaled = modified_energy(lam * e, lam * ed, u, p, cfg).E_value
            assert abs(scaled - lam * lam * base) <= 1e-12 * abs(scaled)

    def test_norm_equivalence_margins(self, rng):
        # with an elliptic snapshot the energy is pinched between
        # delta/8 and a moderate constant times the squared pair norm
        p = model_problem(1.0)
        K = 16
        u, _ = power_law_initial_data(K)
        cfg = IntegratorConfig(tau=1e-3, K=K, filter=sinc_c(2.0))
        from qlwave.problem import ellipticity_report

        delta = ellipticity_report(p, u).delta_est
        for _ in range(20):
            e = hermitian_field(rng, K, decay=1.0)
            ed = hermitian_field(rng, K, decay=1.0)
            ratio = modified_energy(e, ed, u, p, cfg).E_value / pair_norm(e, ed, 1.0) ** 2
            assert delta / 8.0 <= ratio <= 10.0


class TestLOperator:
    def test_zero_a(self, rng):
        cfg = IntegratorConfig(tau=0.1, K=6, filter=sinc_c(2.0))
        v = hermitian_field(rng, 6)
        out = apply_l_operator(hermitian_field(rng, 6), v, zero_a_problem(), cfg)
        assert np.all(out.coeffs == 0)

    def test_zero_kappa(self, rng):
        cfg = IntegratorConfig(tau=0.1, K=6, filter=sinc_c(2.0))
        v = hermitian_field(rng, 6)
        out = apply_l_operator(hermitian_field(rng, 6), v, quasilinear_only(0.0), cfg)
        assert np.all(out.coeffs == 0)

    def test_quadratic_form_represents_energy_correction(self, rng):
        # <L(phi u) e'', e''> = kappa * U(phi e, phi u), unprojected variant
        K = 16
        p = model_problem(1.0)
        for spec in ADMISSIBLE:
            cfg = IntegratorConfig(tau=0.1, K=K, filter=spec)
            for _ in range(5):
                e, u = hermitian_field(rng, K), hermitian_field(rng, K)
                ef, uf = apply_position_filter(e, cfg), apply_position_filter(u, cfg)
                lhs = p.kappa * u_term(ef, uf, p, cfg, projected=False)
                exx = derivative(e, 2)
                rhs = inner_product(apply_l_operator(uf, exx, p, cfg), exx, s=0.0)
                assert abs(lhs - rhs) <= 1e-11 * (1.0 + abs(lhs))

    @pytest.mark.parametrize("spec", ADMISSIBLE + (impulse(),), ids=lambda f: f.label)
    @pytest.mark.parametrize("ku,kv,ka", [(1, 1, 1), (6, 6, 6), (16, 16, 16), (5, 9, 5),
                                          (9, 4, 9), (11, 6, 11), (7, 12, 7), (6, 6, 11),
                                          (4, 12, 7)])
    def test_matches_dense_oracle(self, rng, spec, ku, kv, ka):
        # L interpolates a(u) at deg u; a field of degree ku reaches it at
        # degree ka >= ku zero-extended, which the oracle computes as the
        # degree-ka interpolant of a(u) for the degree-ku field
        p = quasilinear_only(0.8, a=lambda x: x + 0.5 * x * x)
        cfg = IntegratorConfig(tau=0.3, K=ka, filter=spec)
        u, v = hermitian_field(rng, ku), hermitian_field(rng, kv)
        got = apply_l_operator(embed(u, ka), v, p, cfg).coeffs
        want = np.array(dense_l_operator(u.coeffs, v.coeffs, ku, kv, ka, cfg.tau, p.kappa,
                                         spec.label, spec.c, p.a))
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, float(np.max(np.abs(want))))
        # the quadratic form <L v, v>_0 is evaluated without the image
        form = _LOperator(embed(u, ka), p, cfg, kv).form(v.coeffs[np.newaxis, kv:])[0]
        want_form = np.real(np.vdot(want, v.coeffs))
        scale = float(np.linalg.norm(want) * np.linalg.norm(v.coeffs))
        assert abs(form - want_form) <= 1e-13 * max(1.0, scale)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 18), st.integers(1, 12),
           st.integers(1, 5), st.sampled_from(ADMISSIBLE))
    def test_stacked_rows_equal_single_rows(self, seed, ku, kv, rows, spec):
        rng = np.random.default_rng(seed)
        p = model_problem(1.0)
        cfg = IntegratorConfig(tau=0.2, K=ku, filter=spec)
        u = hermitian_field(rng, ku)
        op = _LOperator(u, p, cfg, kv)
        stack = np.stack([hermitian_field(rng, kv).coeffs[kv:] for _ in range(rows)])
        out = op.apply(stack)
        forms = op.form(stack)
        for h, row, form in zip(stack, out, forms):
            alone = apply_l_operator(u, SpectralField(mirror_half(h)), p, cfg).coeffs
            assert np.array_equal(mirror_half(row), alone)
            assert np.array_equal(form, op.form(h[np.newaxis])[0])

    @pytest.mark.parametrize("spec", ADMISSIBLE + (impulse(), sinc_c(0.7)), ids=lambda f: f.label)
    def test_bitwise_equal_full_spectrum_operator(self, rng, spec):
        # half-spectrum images, mirrored once, give the bits of L on full
        # spectra -K_v..K_v, on the mode basis and on random real rows
        for kappa in (0.01, 0.3, 1.0):
            p = model_problem(kappa)
            for ku, kv in [(4, 4), (8, 8), (17, 17), (64, 64), (6, 11), (11, 6)]:
                cfg = IntegratorConfig(tau=0.3, K=ku, filter=spec)
                u = hermitian_field(rng, ku)
                op = _LOperator(u, p, cfg, kv)
                rows = np.stack([hermitian_field(rng, kv).coeffs[kv:] for _ in range(8)])
                for h in (_mode_basis(kv), rows):
                    got = mirror_half(op.apply(h))
                    want = full_spectrum_l_operator(u, p, cfg, kv, mirror_half(h))
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_identity_fails_without_sinc_compatibility(self, rng):
        K = 12
        p = model_problem(1.0)
        cfg = IntegratorConfig(tau=0.4, K=K, filter=impulse())
        e, u = hermitian_field(rng, K), hermitian_field(rng, K)
        ef, uf = apply_position_filter(e, cfg), apply_position_filter(u, cfg)
        lhs = p.kappa * u_term(ef, uf, p, cfg, projected=False)
        exx = derivative(e, 2)
        rhs = inner_product(apply_l_operator(uf, exx, p, cfg), exx, s=0.0)
        assert abs(lhs - rhs) > 1e-6 * (1.0 + abs(lhs))


class TestPositivity:
    def test_zero_a_margin(self):
        u = SpectralField.zeros(8)
        cfg = IntegratorConfig(tau=0.1, K=8, filter=sinc_c(2.0))
        margin = positivity_check(u, zero_a_problem(), cfg, n_samples=20)
        # kappa*a = 0 gives delta_est = 1, so the margin is exactly 1 - 1/8
        assert np.isclose(margin, 1.0 - 1.0 / 8.0)

    def test_evolved_snapshot_nonnegative(self, rng):
        from qlwave.integrator import evolve

        p = model_problem(1.0)
        K = 32
        u0, ud0 = power_law_initial_data(K)
        cfg = IntegratorConfig(tau=1e-3, K=K, filter=sinc_c(2.0))
        snap = evolve(StatePair(u0, ud0), p, cfg, 100)
        margin = positivity_check(snap.u, p, cfg, n_samples=100, rng=rng)
        assert margin >= 0.0

    def test_adversarial_impulse_goes_negative(self):
        # undamped resonance: constant amplitude 3 and tau*omega_K near pi
        p = model_problem(1.0)
        K = 16
        u = field_from_dict(K, {0: 3.0})
        cfg = IntegratorConfig(
            tau=np.pi / np.sqrt(K * K + 1.0), K=K, filter=impulse(),
        )
        margin = positivity_check(u, p, cfg, n_samples=50)
        assert margin < 0.0

    def test_hypothesis_violation_named(self):
        # delta is the snapshot's own hyperbolicity margin: the error names
        # it, and a valid snapshot's margin is taken against it
        cfg = IntegratorConfig(tau=0.1, K=4, filter=sinc_c(2.0))
        lost = ProblemSpec(kappa=-1.0, a=lambda u: u, g=None)
        with pytest.raises(PreconditionError, match=r"hyperbolicity lost: min 1 \+ kappa\*a\(u\)"):
            positivity_check(SpectralField.constant(2.0, degree=4), lost, cfg, n_samples=5)
        p = model_problem(1.0)
        u = SpectralField.constant(0.5, degree=4)
        rep, probes, _ = positivity_certificate(u, p, cfg, 5, np.random.default_rng(1))
        assert rep == ellipticity_report(p, u)
        assert positivity_check(u, p, cfg, n_samples=5, rng=np.random.default_rng(1)) == min(
            m for _, m in probes)
        with pytest.raises(TypeError):
            positivity_check(u, p, cfg, n_samples=5, delta=0.2, a0=0.01)
        with pytest.raises(TypeError):
            positivity_certificate(u, p, cfg, 5, delta=0.2)
        with pytest.raises(PreconditionError, match=r"= -1\.000e\+00 <= 0"):
            positivity_certificate(SpectralField.constant(2.0, degree=4), lost, cfg, 5)

    def test_certificate_derives_delta_and_operator_once(self, monkeypatch):
        # one ellipticity report and one L(Phi u) serve the sampled and the
        # exact margins
        import qlwave.energy as energy

        calls = []

        def counted(name):
            original = getattr(energy, name)

            def wrapper(*args):
                calls.append(name)
                return original(*args)

            return wrapper

        for name in ("ellipticity_report", "_LOperator"):
            monkeypatch.setattr(energy, name, counted(name))
        p = model_problem(1.0)
        u, _ = power_law_initial_data(8)
        cfg = IntegratorConfig(tau=1e-3, K=8, filter=sinc_c(2.0))
        positivity_certificate(u, p, cfg, 40)
        assert sorted(calls) == ["_LOperator", "ellipticity_report"]

    def test_negative_sample_count_rejected(self):
        p = model_problem(1.0)
        u, _ = power_law_initial_data(4)
        cfg = IntegratorConfig(tau=0.1, K=4, filter=sinc_c(2.0))
        with pytest.raises(ConfigurationError, match="probes"):
            positivity_check(u, p, cfg, n_samples=-1)
        with pytest.raises(ConfigurationError, match="probes"):
            positivity_certificate(u, p, cfg, -1)
        for n_samples in (2.5, "3"):
            with pytest.raises(ConfigurationError, match="probes must be an integer"):
                positivity_check(u, p, cfg, n_samples=n_samples)
            with pytest.raises(ConfigurationError, match="probes must be an integer"):
                positivity_certificate(u, p, cfg, n_samples)

    def test_blocked_probes_match_per_probe_margins(self):
        # criterion 8's setup; the reference redraws each probe as the
        # per-probe loop did and applies L to it alone
        K = 64
        p = model_problem(1.0)
        u0, _ = power_law_initial_data(K)
        cfg = IntegratorConfig(tau=1e-3, K=K, filter=sinc_c(2.0))
        delta = ellipticity_report(p, u0).delta_est
        _, got, _ = positivity_certificate(u0, p, cfg, 1000, np.random.default_rng(8))

        rng = np.random.default_rng(8)
        uf = apply_position_filter(u0, cfg)
        want = [("mode-cos-0", field_from_dict(K, {0: 1.0}))]
        for j in range(1, K + 1):
            want.append((f"mode-cos-{j}", field_from_dict(K, {j: 0.5})))
            want.append((f"mode-sin-{j}", field_from_dict(K, {j: -0.5j})))
        for i in range(1000):
            # 2K+1 normals: mode 0, then the real and the imaginary parts of modes 1..K
            x = rng.standard_normal(2 * K + 1)
            h = np.concatenate(([x[0]], (x[1 : K + 1] + 1j * x[K + 1 :]) / np.sqrt(2.0)))
            v = SpectralField(np.concatenate((np.conj(h[:0:-1]), h)))
            want.append((f"random-{i:04d}", SpectralField(v.coeffs / sobolev_norm(v, 0.0))))
        assert [label for label, _ in got] == [label for label, _ in want]
        for (_, margin), (_, v) in zip(got, want):
            n0 = sobolev_norm(v, 0.0) ** 2
            quad = inner_product(apply_l_operator(uf, v, p, cfg), v, s=0.0)
            assert abs(margin - ((n0 + quad) / n0 - delta / 8.0)) <= 1e-13

    @pytest.mark.parametrize("K,n", [(1, 1), (8, 70), (64, 5)])
    def test_random_probes_draw_2k_plus_1_normals_each(self, K, n):
        # the generator advances by exactly n*(2K+1) normals, across blocks
        rng, twin = np.random.default_rng(K + n), np.random.default_rng(K + n)
        probes = np.concatenate(list(_random_probes(K, n, rng)))
        twin.standard_normal(n * (2 * K + 1))
        assert rng.standard_normal() == twin.standard_normal()
        assert probes.shape == (n, K + 1) and np.all(probes[:, 0].imag == 0.0)

    def test_random_probe_law(self):
        # twice the real-field part of a complex normal spectrum: mode 0 real
        # with variance 4, modes j >= 1 with variance 2 in each part
        probes = np.concatenate(list(_random_probes(2, 20_000, np.random.default_rng(3))))
        var = np.var(np.concatenate((probes.real, probes[:, 1:].imag), axis=1), axis=0)
        assert np.allclose(var, [4.0, 2.0, 2.0, 2.0, 2.0], rtol=0.05)

    def test_eigen_margin_bounds_sampled_margin(self):
        K = 64
        p = model_problem(1.0)
        u0, _ = power_law_initial_data(K)
        cfg = IntegratorConfig(tau=1e-3, K=K, filter=sinc_c(2.0))
        sampled = positivity_check(u0, p, cfg, n_samples=1000, rng=np.random.default_rng(8))
        _, _, exact = positivity_certificate(u0, p, cfg, 0)
        assert 0.0 <= exact <= sampled + 1e-12

    def test_eigen_margin_is_attained(self, rng):
        # the worst direction of sym(M) in the cos/sin basis, fed back
        # through apply_l_operator, has exactly the returned margin
        K = 8
        p = model_problem(1.0)
        u = hermitian_field(rng, K, scale=0.3, decay=1.0)
        cfg = IntegratorConfig(tau=0.2, K=K, filter=sinc_c(2.0))
        delta = ellipticity_report(p, u).delta_est
        uf = apply_position_filter(u, cfg)
        basis = [field_from_dict(K, {0: 1.0})]
        for j in range(1, K + 1):
            basis += [field_from_dict(K, {j: 0.5}), field_from_dict(K, {j: -0.5j})]
        m = np.array([[inner_product(b, apply_l_operator(uf, c, p, cfg)) for c in basis]
                      for b in basis])
        n = np.array([sobolev_norm(b, 0.0) ** 2 for b in basis])
        _, vecs = np.linalg.eigh((np.diag(n) + 0.5 * (m + m.T)) / np.sqrt(np.outer(n, n)))
        x = vecs[:, 0] / np.sqrt(n)
        v = SpectralField(sum(xk * b.coeffs for xk, b in zip(x, basis)))
        n0 = sobolev_norm(v, 0.0) ** 2
        quad = inner_product(apply_l_operator(uf, v, p, cfg), v)
        _, _, exact = positivity_certificate(u, p, cfg, 0)
        assert abs(exact - ((n0 + quad) / n0 - delta / 8.0)) <= 1e-12

    @pytest.mark.parametrize("spec", (sinc_c(2.0), hairer_lubich(), impulse()),
                             ids=lambda f: f.label)
    @pytest.mark.parametrize("kappa", (0.01, 1.0))
    @pytest.mark.parametrize("K", (1, 4, 16, 32, 64, 128))
    def test_eigen_margin_bitwise_equal_full_spectrum_gram(self, rng, K, kappa, spec):
        # the Gram matrix as a real product of half spectra gives the bits of
        # the complex full-spectrum matmul: each basis row has one nonzero mode
        u = hermitian_field(rng, K, scale=0.1, decay=2.0)
        cfg = IntegratorConfig(tau=0.01, K=K, filter=spec)
        p = model_problem(kappa)
        _, _, exact = positivity_certificate(u, p, cfg, 0)
        want = full_spectrum_exact_margin(u, p, cfg)
        assert np.array_equal(np.float64(exact).view(np.uint64), np.float64(want).view(np.uint64))

    def test_eigen_margin_of_zero_a(self):
        cfg = IntegratorConfig(tau=0.1, K=8, filter=sinc_c(2.0))
        _, _, margin = positivity_certificate(SpectralField.zeros(8), zero_a_problem(), cfg, 0)
        assert margin == 1.0 - 1.0 / 8.0

    def test_hyperbolicity_loss_rejected(self):
        p = ProblemSpec(kappa=-1.0, a=lambda u: u, g=None)
        u = SpectralField.constant(2.0, degree=4)
        cfg = IntegratorConfig(tau=0.1, K=4, filter=sinc_c(2.0))
        with pytest.raises(PreconditionError):
            positivity_check(u, p, cfg, n_samples=5)


class TestEnergyReport:
    def test_complete_report(self, rng):
        p = model_problem(1.0)
        K = 16
        u, _ = power_law_initial_data(K)
        cfg = IntegratorConfig(tau=1e-3, K=K, filter=sinc_c(2.0))
        from qlwave.energy import energy_report

        e = hermitian_field(rng, K, decay=1.0)
        ed = hermitian_field(rng, K, decay=1.0)
        rep = energy_report(e, ed, u, p, cfg, n_probes=25, rng=rng)
        assert abs(rep.E_value - (rep.pair_norm_sq + p.kappa * rep.U_value)) <= 1e-12 * (
            1.0 + abs(rep.E_value)
        )
        assert rep.positivity_margin is not None and rep.positivity_margin >= 0.0
        assert rep.identity_residual is not None and rep.identity_residual <= 1e-11


class TestHalfSpectrumAlgebra:
    # the energy layer works on modes 0..K; its one multiplier path and the
    # one scalar product, spectral.parseval_sum, against the full-spectrum
    # forms they replaced

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(0, 64), st.floats(1e-3, 2.0),
           st.sampled_from(ADMISSIBLE + (impulse(), sinc_c(0.7))))
    def test_position_filter_is_the_multiplier(self, seed, K, tau, spec):
        cfg = IntegratorConfig(tau=tau, K=max(K, 1), filter=spec)
        f = hermitian_field(np.random.default_rng(seed), K)
        got = apply_position_filter(f, cfg).coeffs
        want = apply_multiplier(f, lambda w: phi(spec, tau * w)).coeffs
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("K", [0, 1, 5, 16, 64])
    def test_dot_is_the_inner_product(self, rng, K):
        # relative to |f|_s |g|_s, the scale of the summation's rounding
        w2 = omega_weights(K)[K:] ** 2
        for _ in range(10):
            f, g = hermitian_field(rng, K), hermitian_field(rng, K)
            for s, weight in ((0.0, np.ones(K + 1)), (1.0, w2)):
                want = inner_product(f, g, s)
                got = parseval_sum(f.coeffs[K:], g.coeffs[K:], parseval_weights(weight))
                assert abs(got - want) <= 1e-15 * sobolev_norm(f, s) * sobolev_norm(g, s)


class TestEnergyChange:
    def test_requires_vanishing_g(self, rng):
        cfg = IntegratorConfig(tau=0.05, K=4, filter=sinc_c(2.0))
        st = StatePair(hermitian_field(rng, 4, 0.1), hermitian_field(rng, 4, 0.1))
        with pytest.raises(ConfigurationError):
            energy_change_residual(st, st, model_problem(1.0), cfg)

    def test_identical_states(self, rng):
        cfg = IntegratorConfig(tau=0.05, K=8, filter=sinc_c(2.0))
        st = StatePair(hermitian_field(rng, 8, 0.2), hermitian_field(rng, 8, 0.2))
        assert energy_change_residual(st, st, quasilinear_only(1.0), cfg) <= 1e-14

    def test_linear_case(self, rng):
        cfg = IntegratorConfig(tau=0.05, K=8, filter=sinc_c(2.0))
        un = StatePair(hermitian_field(rng, 8, 0.3), hermitian_field(rng, 8, 0.3))
        vn = StatePair(hermitian_field(rng, 8, 0.3), hermitian_field(rng, 8, 0.3))
        assert energy_change_residual(un, vn, quasilinear_only(0.0), cfg) <= 1e-12

    @pytest.mark.parametrize("spec", ADMISSIBLE, ids=lambda f: f.label)
    def test_random_ensembles(self, rng, spec):
        p = quasilinear_only(1.0)
        cfg = IntegratorConfig(tau=0.05, K=8, filter=spec)
        for _ in range(15):
            un = StatePair(hermitian_field(rng, 8, 0.3), hermitian_field(rng, 8, 0.3))
            vn = StatePair(hermitian_field(rng, 8, 0.3), hermitian_field(rng, 8, 0.3))
            assert energy_change_residual(un, vn, p, cfg) <= 1e-10

    def test_identity_fails_without_sinc_compatibility(self, rng):
        # impulse: psi1 = 1 != sinc * phi, so the remainder formula does not close
        p = quasilinear_only(1.0)
        cfg = IntegratorConfig(tau=0.05, K=8, filter=impulse())
        worst = 0.0
        for _ in range(15):
            un = StatePair(hermitian_field(rng, 8, 0.3), hermitian_field(rng, 8, 0.3))
            vn = StatePair(hermitian_field(rng, 8, 0.3), hermitian_field(rng, 8, 0.3))
            # it steps the caller's config, so impulse warns as step() does
            with pytest.warns(RuntimeWarning, match="sinc-compatibility"):
                worst = max(worst, energy_change_residual(un, vn, p, cfg))
        assert worst > 1e-4


class TestWarnings:
    @pytest.mark.parametrize("spec", [sinc_c(2.0), impulse()], ids=lambda f: f.label)
    def test_diagnostics_warn_nothing(self, rng, spec):
        # their interpolation of a(u) is the step's, unfiltered, and warns
        # nothing; only the one-step identity steps the caller's config,
        # whose impulse warning test_identity_fails_without_sinc_compatibility
        # asserts
        p = quasilinear_only(1.0)
        cfg = IntegratorConfig(tau=0.1, K=8, filter=spec)
        e, ed, u = (hermitian_field(rng, 8, 0.3, decay=2.0) for _ in range(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            apply_position_filter(e, cfg)
            u_term(e, u, p, cfg)
            modified_energy(e, ed, u, p, cfg)
            energy_report(e, ed, u, p, cfg, n_probes=4, rng=rng)
            identity_residual(e, u, p, cfg)
            apply_l_operator(u, e, p, cfg)
            positivity_check(u, p, cfg, n_samples=4, rng=rng)
            positivity_certificate(u, p, cfg, 4, rng)
            if spec.c is not None:
                energy_change_residual(StatePair(e, ed), StatePair(u, ed), p, cfg)
