import numpy as np
import pytest

from qlwave.exceptions import ConfigurationError, PreconditionError, ReferenceFailure
from qlwave.filters import grimm_hochbruck, sinc_c
from qlwave.integrator import IntegratorConfig, StatePair, evolve, step
from qlwave.problem import linear_problem, model_problem, power_law_initial_data
from qlwave.reference import ReferenceConfig, error_h2h1, local_error, reference_solution
from qlwave.spectral import SpectralField

from conftest import hermitian_field
from oracles import field_from_dict, linear_propagator, step_three_stage


def data_state(K):
    u0, ud0 = power_law_initial_data(K)
    return StatePair(u0, ud0)


class TestErrorMeasure:
    def test_zero_for_identical(self):
        st = data_state(8)
        assert error_h2h1(st, st) == 0.0

    def test_single_mode_hand_value(self):
        # adding eps*(cos x, 0) changes the measure by eps*|cos|_2 = eps*sqrt(2)
        st = data_state(8)
        eps = 1e-3
        bump = field_from_dict(8, {1: 0.5 * eps})
        shifted = StatePair(st.u + bump, st.udot)
        assert np.isclose(error_h2h1(shifted, st), eps * np.sqrt(2.0), rtol=1e-12)

    def test_degree_mismatch(self):
        with pytest.raises(ConfigurationError):
            error_h2h1(data_state(8), data_state(16))

    def test_metric_properties(self, rng):
        a = StatePair(hermitian_field(rng, 6), hermitian_field(rng, 6))
        b = StatePair(hermitian_field(rng, 6), hermitian_field(rng, 6))
        c = StatePair(hermitian_field(rng, 6), hermitian_field(rng, 6))
        ab, ba = error_h2h1(a, b), error_h2h1(b, a)
        assert abs(ab - ba) <= 1e-13 * (1.0 + ab)
        assert error_h2h1(a, c) <= ab + error_h2h1(b, c) + 1e-12


class TestReferenceSolution:
    def test_linear_case_matches_closed_form(self):
        st = data_state(16)
        ref = reference_solution(
            linear_problem(), st, T=2.0,
            ref_cfg=ReferenceConfig(refine_factor=4), tau_min=0.25,
        )
        exact = linear_propagator(st, 2.0)
        assert error_h2h1(ref, exact) <= 1e-11 * st.norm(1.0)

    def test_second_order_self_refinement(self):
        # halving the step shrinks the change by about 2^2
        p = model_problem(0.05)
        st = data_state(16)
        cfgs = [IntegratorConfig(tau=0.2 / r, K=16, filter=sinc_c(2.0)) for r in (1, 2, 4)]
        runs = [evolve(st, p, c, round(2.0 / c.tau)) for c in cfgs]
        d1 = error_h2h1(runs[0], runs[1])
        d2 = error_h2h1(runs[1], runs[2])
        assert 3.0 <= d1 / d2 <= 5.0

    def test_cross_filter_agreement(self):
        # refine-64 reference step from tau_min = 1/256
        p = model_problem(0.01)
        st = data_state(32)
        tau_ref = 1.0 / 16384
        n = round(1.0 / tau_ref)
        a = evolve(st, p, IntegratorConfig(tau=tau_ref, K=32, filter=sinc_c(2.0)), n)
        b = evolve(st, p, IntegratorConfig(tau=tau_ref, K=32, filter=grimm_hochbruck()), n)
        assert error_h2h1(a, b) <= 1e-9

    def test_self_inconsistency_raises(self):
        # refine 2 of tau_min = 1/8: halving the step moves the state by
        # 8.2e-4, beyond the bound 1e-4 x |state| = 2.8e-4
        p = model_problem(0.01)
        st = data_state(8)
        rc = ReferenceConfig(refine_factor=2)
        with pytest.raises(ReferenceFailure, match="halving the reference step"):
            reference_solution(p, st, T=1.0, ref_cfg=rc, tau_min=0.125)

    @pytest.mark.parametrize("T,tau_min,message", [
        (float("nan"), 0.125, "T must be finite and positive, got nan"),
        (float("inf"), 0.125, "T must be finite and positive, got inf"),
        (0.0, 0.125, "T must be finite and positive, got 0.0"),
        (1.0, float("nan"), "tau must be positive, got nan"),
        (1.0, float("inf"), "tau must be positive, got inf"),
        (1.0, 0.0, "tau must be positive, got 0.0"),
        # the sweeps' step-count rule: an overflowing or fractional T/tau_min
        (1.0, 1e-320, "T/tau must be an integer"),
        (1.0, 0.3, "T/tau must be an integer"),
        (1e-12, 1.0, "T=1e-12 is shorter than one step of tau=1.0"),
    ])
    def test_bad_horizon_or_step_rejected_before_any_run(self, monkeypatch, T, tau_min,
                                                          message):
        def no_run(*args, **kwargs):
            raise AssertionError("the reference started a run")

        monkeypatch.setattr("qlwave.reference.evolve", no_run)
        rc = ReferenceConfig(refine_factor=4)
        with pytest.raises(ConfigurationError, match=message):
            reference_solution(model_problem(0.01), data_state(8), T=T, ref_cfg=rc,
                               tau_min=tau_min)

    def test_determinism(self):
        p = model_problem(0.01)
        st = data_state(16)
        rc = ReferenceConfig(refine_factor=4)
        a = reference_solution(p, st, T=0.5, ref_cfg=rc, tau_min=0.125)
        b = reference_solution(p, st, T=0.5, ref_cfg=rc, tau_min=0.125)
        assert np.array_equal(a.u.coeffs, b.u.coeffs)
        assert np.array_equal(a.udot.coeffs, b.udot.coeffs)

    def test_refine_factor_validated(self):
        with pytest.raises(ConfigurationError):
            ReferenceConfig(refine_factor=1)
        for factor in (2.5, float("nan"), "4"):
            with pytest.raises(ConfigurationError, match="refine_factor must be an integer"):
                ReferenceConfig(refine_factor=factor)


class TestLocalError:
    def test_linear_case_is_roundoff(self):
        err = local_error(linear_problem(), data_state(64), 0.1, sinc_c(2.0))
        assert err <= 1e-13

    def test_third_order_in_tau(self):
        p = model_problem(0.01)
        st = data_state(64)
        errs = [local_error(p, st, 2.0**-m, sinc_c(2.0)) for m in (4, 5, 6, 7)]
        slopes = np.diff(np.log(errs)) / np.diff(np.log([2.0**-m for m in (4, 5, 6, 7)]))
        assert np.all((2.7 <= slopes) & (slopes <= 3.3))

    def test_three_stage_form_has_identical_local_error(self):
        p = model_problem(0.01)
        st = data_state(16)
        cfg = IntegratorConfig(tau=0.05, K=16, filter=sinc_c(2.0))
        a = step(st, p, cfg)
        b = step_three_stage(st, p, cfg)
        assert error_h2h1(a, b) <= 1e-13

    def test_unresolved_state_rejected(self, rng):
        rough = StatePair(hermitian_field(rng, 16, decay=0.0), hermitian_field(rng, 16, decay=0.0))
        with pytest.raises(PreconditionError):
            local_error(model_problem(0.01), rough, 0.1, sinc_c(2.0))
