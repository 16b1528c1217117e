import numpy as np
import pytest

from qlwave import problem as problem_module
from qlwave.exceptions import ConfigurationError
from qlwave.problem import (
    ProblemSpec,
    ellipticity_report,
    model_problem,
    power_law_initial_data,
)
from qlwave.spectral import SpectralField, mode_numbers, sobolev_norm

from conftest import hermitian_field


class TestProblemSpec:
    def test_model_problem_zeros(self):
        p = model_problem(0.01)
        assert p.a(np.zeros(1))[0] == 0.0
        assert p.g(np.zeros(1), np.zeros(1))[0] == 0.0

    def test_model_problem_values(self):
        p = model_problem(2.0)
        u, px = np.array([1.5]), np.array([0.5])
        assert np.isclose(p.a(u)[0], 1.5)
        assert np.isclose(p.g(u, px)[0], 0.25 + 2.0 * 1.5**3)

    def test_kappa_instances(self):
        assert model_problem(1.0 / 100.0).kappa == 0.01
        assert model_problem(1.0).kappa == 1.0

    def test_nonvanishing_a_rejected(self):
        with pytest.raises(ConfigurationError):
            ProblemSpec(kappa=1.0, a=lambda u: u + 1.0, g=None)

    def test_nonvanishing_g_rejected(self):
        with pytest.raises(ConfigurationError):
            ProblemSpec(kappa=1.0, a=lambda u: u, g=lambda u, p: p + 2.0)


class TestInitialData:
    def test_mode_zero_and_one(self):
        u0, ud0 = power_law_initial_data(8)
        assert u0.coeff(0) == 1.0
        assert np.isclose(u0.coeff(1).real, 2.0**-0.5)
        assert np.isclose(ud0.coeff(1).real, 2.0**-0.5)

    def test_positive_and_decreasing(self):
        u0, ud0 = power_law_initial_data(32)
        for f in (u0, ud0):
            c = f.coeffs.real
            assert np.all(c > 0)
            top = c[32:]
            assert np.all(np.diff(top) < 0)
            assert np.all(f.coeffs.imag == 0)

    def test_degree_validation(self):
        with pytest.raises(ConfigurationError):
            power_law_initial_data(0)

    def test_regularity_threshold(self):
        # weighted mode energies <j>^{2s} |c_j|^2 decay like j^{2s-11.02}:
        # summable for s = 5 (exponent -1.02), borderline divergent at s = 5.01
        u0, _ = power_law_initial_data(4096)
        j = mode_numbers(4096)
        sel = j >= 16
        jj = j[sel].astype(float)
        c2 = np.abs(u0.coeffs[sel]) ** 2
        for s, lo, hi in ((5.0, -1.03, -1.014), (5.01, -1.01, -0.994)):
            w = (jj * jj + 1.0) ** s * c2
            slope = np.polyfit(np.log(jj), np.log(w), 1)[0]
            assert lo < slope < hi, (s, slope)

    def test_partial_norms_grow_slowly_at_h5(self):
        values = [sobolev_norm(power_law_initial_data(K)[0], 5.0) for K in (256, 512, 1024)]
        increments = np.diff(values)
        assert np.all(increments > 0)
        assert np.all(np.diff(increments) < 0)


class TestEllipticity:
    def test_zero_state(self):
        p = model_problem(1.0)
        rep = ellipticity_report(p, SpectralField.zeros(4))
        assert rep.delta_est == 1.0 and rep.A0_est == 0.0
        assert not rep.hyperbolicity_lost

    def test_hyperbolicity_loss_flag(self):
        p = ProblemSpec(kappa=-1.0, a=lambda u: u, g=None)
        rep = ellipticity_report(p, SpectralField.constant(2.0, degree=1))
        assert np.isclose(rep.delta_est, -1.0)
        assert rep.hyperbolicity_lost

    def test_degree_zero_field(self):
        # one node, n = 1, so the bracket of its extremum is the whole circle
        rep = ellipticity_report(ProblemSpec(kappa=0.7, a=np.sin, g=None),
                                 SpectralField.constant(0.3))
        assert rep.delta_est == 1.0 + 0.7 * np.sin(0.3)
        assert rep.A0_est == 0.7 * np.sin(0.3)

    @pytest.mark.parametrize("field,most", [
        (lambda rng: power_law_initial_data(64)[0], 8),  # criterion 8's snapshot
        (lambda rng: hermitian_field(rng, 256, decay=1.5), 20),  # rough: ~150 brackets
    ])
    def test_polish_cost(self, rng, monkeypatch, field, most):
        # one call of fn takes every bracket at once, so the calls are the cost
        calls = []
        refine = problem_module._refine_extrema

        def counted(fn, xs, vals):
            def fn_counted(x):
                calls.append(x.size)
                return fn(x)

            return refine(fn_counted, xs, vals)

        monkeypatch.setattr(problem_module, "_refine_extrema", counted)
        ellipticity_report(model_problem(1.0), field(rng))
        assert 1 <= len(calls) <= most

    def test_initial_data_amplitude_bound(self):
        p = model_problem(1.0)
        u0, _ = power_law_initial_data(512)
        rep = ellipticity_report(p, u0)
        assert 0.0 < rep.delta_est < 1.0
        assert rep.A0_est <= 13.0

    def test_structural_inequality(self, rng):
        p = model_problem(0.3)
        rep = ellipticity_report(p, hermitian_field(rng, 16, decay=2.0))
        assert rep.delta_est <= 1.0 + rep.A0_est

    @pytest.mark.parametrize("kappa,a,K,decay", [
        (1.0, lambda v: v, 64, None),  # the energy-check snapshot: power-law data
        (0.7, np.sin, 8, 1.5),
        (-0.3, lambda v: v * v * v, 12, 2.0),
    ])
    def test_extrema_match_dense_evaluation(self, rng, kappa, a, K, decay):
        # kappa*a(u(x)) by direct summation on 2^17 points: its sampled
        # extrema bracket the true ones within h^2/8 * max|f''| < 1e-8
        u = power_law_initial_data(K)[0] if decay is None else hermitian_field(rng, K, decay=decay)
        x = 2.0 * np.pi * np.arange(2**17) / 2**17
        j = mode_numbers(K)
        dense = kappa * a(np.real(np.exp(1j * np.outer(x, j)) @ u.coeffs))
        rep = ellipticity_report(ProblemSpec(kappa=kappa, a=a, g=None), u)
        s_min, s_max = rep.delta_est - 1.0, rep.A0_est
        assert dense.min() - 1e-8 <= s_min <= dense.min() + 1e-13
        assert dense.max() - 1e-13 <= s_max <= dense.max() + 1e-8
