import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlwave import integrator
from qlwave.exceptions import ConfigurationError, DivergenceError, NormGuardError
from qlwave.filters import (
    FilterSpec, check_assumptions, grimm_hochbruck, hairer_lubich,
    impulse, parse_filter, phi, psi1, sinc_c,
)
from qlwave.integrator import (
    IntegratorConfig,
    StatePair,
    evolve,
    step,
)
from qlwave.problem import ProblemSpec, model_problem, power_law_initial_data
from qlwave.spectral import (
    SpectralField,
    coeffs_from_samples,
    mirror_half,
    pair_norm,
    synthesize_values,
)

from conftest import hermitian_field, warns_if_inadmissible
from oracles import (
    catalog,
    dense_one_step,
    field_from_dict,
    filtered_nonlinear_term,
    full_spectrum_fhat,
    linear_propagator,
    negated_velocity,
    nonlinear_term,
    omega_weights,
    project,
    sampled_assumptions_1_and_2,
    step_three_stage,
    unpremultiplied_step,
)

COS_X = field_from_dict(1, {1: 0.5})


def quasilinear_only(kappa):
    return ProblemSpec(kappa=kappa, a=lambda u: u, g=None, name="quasi")


def smooth_state(rng, K, scale=0.2, decay=3.0):
    return StatePair(
        hermitian_field(rng, K, scale=scale, decay=decay),
        hermitian_field(rng, K, scale=scale, decay=decay),
    )


class TestConfig:
    def test_tau_positive(self):
        with pytest.raises(ConfigurationError):
            IntegratorConfig(tau=0.0, K=4, filter=sinc_c(2.0))

    @pytest.mark.parametrize("K", [2.5, "8"])
    def test_degree_must_be_an_integer(self, K):
        with pytest.raises(ConfigurationError, match="spectral degree K must be an integer"):
            IntegratorConfig(tau=0.1, K=K, filter=sinc_c(2.0))

    def test_admissibility_policy(self):
        # the entry points warn on every call, so a caller that wants an
        # inadmissible filter to fail turns the warning into an error, also
        # after an ignored call
        state, p = StatePair(COS_X, SpectralField.zeros(1)), model_problem(1.0)
        cfg = IntegratorConfig(tau=0.1, K=1, filter=impulse())
        for run in (lambda: evolve(state, p, cfg, 1), lambda: step(state, p, cfg)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                run()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(RuntimeWarning, match="sinc-compatibility"):
                    run()
        # the engine and the stacked runs behind the sweeps check no filter
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            integrator._Engine(p, [cfg])
            integrator._evolve_stack(state, p, [cfg, cfg], 1)

    def test_sinc_spec_built_from_fields_is_admissible(self):
        # its c0 is (c^2+1)/6, so it passes the boundedness condition and warns nothing
        cfg = IntegratorConfig(tau=0.2, K=1, filter=FilterSpec("sinc:3", c=3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evolve(StatePair(COS_X, SpectralField.zeros(1)), model_problem(1.0), cfg, 2)

    def test_warning_is_the_sampled_verdict_on_assumptions_1_and_2(self):
        # the filter decides assumptions 1-2 in closed form, and the report
        # and the entry points' warning read its verdicts; sampling both on
        # filters.default_xi_grid() is the cross-check.  c0 overflows past
        # c = 1.34e154, which breaks assumption 1
        rng = np.random.default_rng(11)
        cs = [0.0, 1e-3, 0.5, 1.0, 1.2, 2.0, 3.0, 100.0, 1e4, *rng.uniform(0.0, 50.0, 20),
              1.34e154, 1.35e154, 1e200]
        specs = [*catalog(), *(sinc_c(c) for c in cs)]
        for spec in specs:
            sampled = sampled_assumptions_1_and_2(spec)
            assert (spec.bounded, spec.sinc_compatible) == sampled, spec.label
            report = check_assumptions(spec, delta=0.5, a0=0.0)
            assert (report.assumption1_ok, report.assumption2_ok) == sampled, spec.label
            for tau, K in [(0.1, 1), (1e-3, 16), (0.25, 64), (1.0, 128), (0.5, 512)]:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    integrator._warn_if_inadmissible(IntegratorConfig(tau, K, spec))
                warned = any("sinc-compatibility" in str(w.message) for w in caught)
                assert warned != all(sampled), (spec.label, tau, K)

    @pytest.mark.parametrize("run", [
        lambda state, p, cfg: evolve(state, p, cfg, 1),
        lambda state, p, cfg: step(state, p, cfg),
    ], ids=["evolve", "step"])
    def test_admissibility_warning_points_at_caller(self, run):
        cfg = IntegratorConfig(tau=0.1234, K=1, filter=impulse())
        with pytest.warns(RuntimeWarning, match="sinc-compatibility") as caught:
            run(StatePair(COS_X, SpectralField.zeros(1)), model_problem(1.0), cfg)
        assert [w.filename for w in caught] == [__file__]


class TestNonlinearTerm:
    def test_zero_state(self):
        f = nonlinear_term(SpectralField.zeros(4), model_problem(1.0))
        assert np.all(f.coeffs == 0)

    def test_quasilinear_hand_value(self):
        # a(u) = u, g = 0, u = cos x: u * u_xx = -cos^2 x = -1/2 - cos(2x)/2
        f = nonlinear_term(COS_X, quasilinear_only(1.0))
        expected = field_from_dict(2, {0: -0.5, 2: -0.25})
        assert np.max(np.abs(f.coeffs - expected.coeffs)) < 1e-15

    def test_matches_dense_oracle(self, rng):
        from oracles import dense_filtered_nonlinearity

        kappa = 1.0
        p = model_problem(kappa)
        u = hermitian_field(rng, 4)
        got = project(nonlinear_term(u, p), 4)
        # trivial filters turn the dense filtered term into P^K of the bare one
        dense = dense_filtered_nonlinearity(
            list(u.coeffs), 4, 0.1, "impulse", 0.0,
            lambda v: v, lambda uu, pp: pp * pp + kappa * uu**3,
        )
        scale = max(1.0, float(np.max(np.abs(dense))))
        assert np.max(np.abs(got.coeffs - np.asarray(dense))) < 1e-13 * scale

    def test_overflow_raises_divergence(self):
        huge = SpectralField.constant(1e200, degree=2)
        with pytest.raises(DivergenceError), np.errstate(over="ignore", invalid="ignore"):
            nonlinear_term(huge, model_problem(1.0))

    def test_interpolate_returns_an_overflowing_row_non_finite(self, rng):
        # the cube of 1e200 overflows row 1 of the stack; _interpolate does
        # not raise, and rows 0 and 2 come out as they do alone
        K, p = 6, model_problem(1.0)
        c = np.stack([hermitian_field(rng, K).coeffs[K:] for _ in range(3)])
        c[1, 0] = 1e200
        grad = integrator._grad(p, K)[:, None]
        with np.errstate(all="ignore"):
            ag = integrator._interpolate(p, grad * c, K)
            alone = [integrator._interpolate(p, grad * c[i:i + 1], K)[:, 0] for i in (0, 2)]
        assert not np.all(np.isfinite(ag[:, 1]))
        for i, row in zip((0, 2), alone):
            assert np.array_equal(bits(ag[:, i]), bits(row))


class TestFilteredNonlinearTerm:
    def test_zero_state(self):
        cfg = IntegratorConfig(tau=0.1, K=4, filter=sinc_c(2.0))
        f = filtered_nonlinear_term(SpectralField.zeros(4), model_problem(1.0), cfg)
        assert np.all(f.coeffs == 0) and f.degree == 4

    def test_impulse_projection_hand_value(self):
        # P^1 of (-1/2 - cos(2x)/2) is the constant -1/2
        cfg = IntegratorConfig(tau=0.1, K=1, filter=impulse())
        f = filtered_nonlinear_term(COS_X, quasilinear_only(1.0), cfg)
        assert np.allclose(f.coeffs, [0.0, -0.5, 0.0], atol=1e-15)

    def test_vanishing_tau_removes_filters(self, rng):
        # tau so small that phi(tau w) = psi1(tau w) = 1 exactly, so sinc:2
        # runs the impulse filter's arithmetic; the bare degree-2K term is
        # formed on another grid and agrees to roundoff
        u = hermitian_field(rng, 6)
        p = model_problem(1.0)
        cfg = IntegratorConfig(tau=1e-300, K=6, filter=sinc_c(2.0))
        f = filtered_nonlinear_term(u, p, cfg)
        unfiltered = filtered_nonlinear_term(u, p, replace(cfg, filter=impulse()))
        assert np.array_equal(f.coeffs, unfiltered.coeffs)
        bare = project(nonlinear_term(u, p), 6)
        scale = max(1.0, float(np.max(np.abs(bare.coeffs))))
        assert np.max(np.abs(f.coeffs - bare.coeffs)) < 1e-13 * scale

    @pytest.mark.parametrize("K", [1, 6, 17, 40])
    def test_large_space_interpolation_route(self, rng, K):
        # force-filtering the exact degree-2K polynomial interpolated from
        # 4K+1 samples reproduces the production evaluation on its 3K+1 grid;
        # both carry the rounding of the unfiltered product, so the bound is
        # relative to the coefficient scale like the neighbouring tests'
        u = hermitian_field(rng, K)
        p = model_problem(0.7)
        cfg = IntegratorConfig(tau=0.2, K=K, filter=sinc_c(2.0))
        w1 = omega_weights(K)
        up = SpectralField(u.coeffs * np.asarray(phi(cfg.filter, cfg.tau * w1)))
        n = 4 * K + 1
        # the transform pair on modes 0..K, mirrored once at the end
        half, j = up.coeffs[K:], np.arange(K + 1.0)
        uvals = synthesize_values(half, 2 * K + 1)
        a_k = coeffs_from_samples(p.a(uvals), K)
        prod_vals = synthesize_values(a_k, n) * synthesize_values(-(j**2) * half, n)
        uxvals = synthesize_values(1j * j * half, 2 * K + 1)
        g_k = mirror_half(coeffs_from_samples(p.g(uvals, uxvals), K))
        f2k = mirror_half(coeffs_from_samples(prod_vals, 2 * K))
        f2k[K : 3 * K + 1] += g_k
        w2 = omega_weights(2 * K)
        filtered = np.asarray(psi1(cfg.filter, cfg.tau * w2)) * f2k
        expected = filtered[K : 3 * K + 1]
        got = filtered_nonlinear_term(u, p, cfg)
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(got.coeffs - expected)) < 1e-13 * scale


class TestLinearPropagator:
    def test_zero_time_identity(self, rng):
        st = smooth_state(rng, 6)
        out = linear_propagator(st, 0.0)
        assert np.array_equal(out.u.coeffs, st.u.coeffs)
        assert np.array_equal(out.udot.coeffs, st.udot.coeffs)

    def test_single_mode_closed_form(self):
        st = StatePair(COS_X, SpectralField.zeros(1))
        t = 0.77
        out = linear_propagator(st, t)
        w = np.sqrt(2.0)
        assert np.isclose(out.u.coeff(1).real, 0.5 * np.cos(w * t), atol=1e-15)
        assert np.isclose(out.udot.coeff(1).real, -0.5 * w * np.sin(w * t), atol=1e-15)

    def test_group_property(self, rng):
        st = smooth_state(rng, 8)
        back = linear_propagator(linear_propagator(st, 0.9), -0.9)
        assert (back - st).norm(1.0) < 1e-13

    def test_rotation_invariant(self, rng):
        st = smooth_state(rng, 8, scale=1.0)

        def invariant(s):
            return pair_norm(s.u, s.udot, 1.0) ** 2

        before = invariant(st)
        after = invariant(linear_propagator(st, 2.3))
        assert abs(after - before) <= 1e-12 * before


class TestStep:
    def test_zero_state_fixed_point(self):
        p = model_problem(1.0)
        cfg = IntegratorConfig(tau=0.1, K=4, filter=sinc_c(2.0))
        z = StatePair(SpectralField.zeros(4), SpectralField.zeros(4))
        out = step(z, p, cfg)
        assert np.all(out.u.coeffs == 0) and np.all(out.udot.coeffs == 0)

    def test_linear_case_equals_propagator(self, rng):
        st = smooth_state(rng, 8)
        cfg = IntegratorConfig(tau=0.3, K=8, filter=hairer_lubich())
        a = step(st, model_problem(0.0), cfg)
        b = linear_propagator(st, 0.3)
        assert np.array_equal(a.u.coeffs, b.u.coeffs)
        assert np.array_equal(a.udot.coeffs, b.udot.coeffs)

    def test_degree_mismatch(self, rng):
        cfg = IntegratorConfig(tau=0.1, K=4, filter=sinc_c(2.0))
        with pytest.raises(ConfigurationError):
            step(smooth_state(rng, 6), model_problem(1.0), cfg)

    def test_three_stage_equivalence(self, rng):
        p = model_problem(1.0)
        for spec in (impulse(), hairer_lubich(), grimm_hochbruck(), sinc_c(2.0)):
            cfg = IntegratorConfig(tau=0.1, K=8, filter=spec)
            st = smooth_state(rng, 8)
            with warns_if_inadmissible(spec):
                a, b = step(st, p, cfg), step_three_stage(st, p, cfg)
            assert (a - b).norm(1.0) <= 1e-13

    def test_matches_dense_oracle_small_degrees(self, rng):
        kappa = 1.0
        p = model_problem(kappa)
        for K in (1, 2, 4):
            st = smooth_state(rng, K, scale=0.5, decay=0.0)
            cfg = IntegratorConfig(tau=0.1, K=K, filter=impulse())
            with warns_if_inadmissible(cfg.filter):
                out = step(st, p, cfg)
            ou, od = dense_one_step(
                list(st.u.coeffs), list(st.udot.coeffs), K, 0.1, kappa,
                "impulse", 0.0, lambda v: v, lambda uu, pp: pp * pp + kappa * uu**3,
            )
            assert np.max(np.abs(out.u.coeffs - np.asarray(ou))) < 1e-13
            assert np.max(np.abs(out.udot.coeffs - np.asarray(od))) < 1e-13

    def test_single_step_boundedness_ensemble(self, rng):
        p = model_problem(1.0)
        cfg = IntegratorConfig(tau=0.1, K=16, filter=sinc_c(2.0))
        for _ in range(25):
            st = smooth_state(rng, 16, scale=0.3, decay=2.0)
            scale = st.norm(1.0)
            if scale > 2.0:
                st = StatePair(st.u * (2.0 / scale), st.udot * (2.0 / scale))
            out = step(st, p, cfg)
            assert np.isfinite(out.norm(1.0))
            assert out.norm(1.0) <= 100.0


class TestEvolve:
    def test_zero_steps(self, rng):
        st = smooth_state(rng, 4)
        cfg = IntegratorConfig(tau=0.1, K=4, filter=sinc_c(2.0))
        out = evolve(st, model_problem(1.0), cfg, 0)
        assert np.array_equal(out.u.coeffs, st.u.coeffs)

    def test_linear_composition_exact(self):
        K = 16
        u0, ud0 = power_law_initial_data(K)
        st = StatePair(u0, ud0)
        cfg = IntegratorConfig(tau=0.05, K=K, filter=grimm_hochbruck())
        n = 200
        out = evolve(st, model_problem(0.0), cfg, n)
        exact = linear_propagator(st, n * 0.05)
        assert (out - exact).norm(1.0) <= 1e-11 * st.norm(1.0)

    def test_long_run_stays_bounded(self):
        K = 32
        u0, ud0 = power_law_initial_data(K)
        st = StatePair(u0, ud0)
        cfg = IntegratorConfig(tau=0.1, K=K, filter=sinc_c(2.0))
        out = evolve(st, model_problem(0.01), cfg, 1000)
        assert out.norm(1.0) <= 10.0 * st.norm(1.0)

    def test_fsal_halves_nonlinearity_evaluations(self, rng):
        calls = {"n": 0}

        def counting_a(u):
            calls["n"] += 1
            return u

        p = ProblemSpec(kappa=1.0, a=counting_a, g=None)
        st = smooth_state(rng, 8)
        cfg = IntegratorConfig(tau=0.05, K=8, filter=sinc_c(2.0))
        n = 20
        calls["n"] = 0  # drop the construction-time a(0) = 0 check
        evolve(st, p, cfg, n)
        with_reuse = calls["n"]
        calls["n"] = 0
        for _ in range(n):
            st = step(st, p, cfg)
        without_reuse = calls["n"]
        assert with_reuse == n + 1
        assert without_reuse == 2 * n

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([4, 8, 32, 128]),
           st.sampled_from([0.01, 1.0]),
           st.sampled_from([sinc_c(2.0), grimm_hochbruck(), hairer_lubich()]), st.booleans())
    def test_evolve_matches_iterated_step_bitwise(self, seed, K, kappa, spec, power_law):
        # evolve reuses each step's F(u') as the next step's F(u); step()
        # evaluates it afresh, and the two trajectories agree bit for bit
        p = model_problem(kappa)
        if power_law:
            state = StatePair(*power_law_initial_data(K))
        else:
            state = smooth_state(np.random.default_rng(seed), K)
        cfg = IntegratorConfig(tau=0.01, K=K, filter=spec)
        n = 40
        a = evolve(state, p, cfg, n)
        for _ in range(n):
            state = step(state, p, cfg)
        assert np.array_equal(bits(a.u.coeffs), bits(state.u.coeffs))
        assert np.array_equal(bits(a.udot.coeffs), bits(state.udot.coeffs))

    def test_time_reversal(self, rng):
        p = model_problem(1.0)
        st = smooth_state(rng, 8)
        cfg = IntegratorConfig(tau=0.1, K=8, filter=sinc_c(2.0))
        fwd = evolve(st, p, cfg, 40)
        back = negated_velocity(evolve(negated_velocity(fwd), p, cfg, 40))
        assert (back - st).norm(1.0) <= 1e-10

    def test_time_reversal_linear(self, rng):
        st = smooth_state(rng, 8)
        cfg = IntegratorConfig(tau=0.1, K=8, filter=hairer_lubich())
        fwd = evolve(st, model_problem(0.0), cfg, 200)
        back = negated_velocity(evolve(negated_velocity(fwd), model_problem(0.0), cfg, 200))
        assert (back - st).norm(1.0) <= 1e-11

    def test_observer_called_each_step(self, rng):
        st = smooth_state(rng, 4)
        cfg = IntegratorConfig(tau=0.25, K=4, filter=sinc_c(2.0))
        seen = []
        final = evolve(st, model_problem(0.1), cfg, 10, observer=lambda *a: seen.append(a))
        assert [n for n, _, _, _ in seen] == list(range(1, 11))
        assert np.isclose(seen[4][1], 1.25)
        # the observer sees the full coefficient arrays of the state
        assert np.array_equal(seen[-1][2], final.u.coeffs)
        assert np.array_equal(seen[-1][3], final.udot.coeffs)
        sparse = []
        evolve(st, model_problem(0.1), cfg, 10, observer=lambda *a: sparse.append(a), every=3)
        assert [n for n, _, _, _ in sparse] == [3, 6, 9]
        for n, t, u, ud in sparse:
            _, t1, u1, ud1 = seen[n - 1]
            assert t == t1
            assert np.array_equal(u, u1)
            assert np.array_equal(ud, ud1)

    @pytest.mark.parametrize("every", [0, -3, 2.5, "3"])
    def test_observer_interval_must_be_positive(self, rng, every):
        st = smooth_state(rng, 4)
        cfg = IntegratorConfig(tau=0.25, K=4, filter=sinc_c(2.0))
        with pytest.raises(ConfigurationError):
            evolve(st, model_problem(0.1), cfg, 5, observer=lambda *a: None, every=every)

    @pytest.mark.parametrize("n_steps,message", [
        (2.5, "n_steps must be an integer, got 2.5"),
        (2**31 + 1, "n_steps = 2147483649 is more than a run may take"),
    ])
    def test_step_count_rejected_before_running(self, monkeypatch, n_steps, message):
        def no_run(*args):
            raise AssertionError("evolve ran a step count it should reject")

        monkeypatch.setattr(integrator, "_evolve_stack", no_run)
        cfg = IntegratorConfig(tau=0.25, K=4, filter=sinc_c(2.0))
        with pytest.raises(ConfigurationError, match=message):
            evolve(StatePair(*power_law_initial_data(4)), model_problem(0.1), cfg, n_steps)

    def test_numpy_integer_step_count(self):
        state, p = StatePair(*power_law_initial_data(4)), model_problem(0.1)
        cfg = IntegratorConfig(tau=0.25, K=4, filter=sinc_c(2.0))
        assert_same_outcome(evolve(state, p, cfg, np.int64(3)), evolve(state, p, cfg, 3))

    def test_norm_guard(self):
        # kappa = 1, tau = 1/2 from the power-law data: impulse passes the
        # guard's 1e6 at step 3
        cfg = IntegratorConfig(tau=0.5, K=8, filter=impulse())
        with warns_if_inadmissible(cfg.filter), pytest.raises(NormGuardError) as info:
            evolve(StatePair(*power_law_initial_data(8)), model_problem(1.0), cfg, 20)
        assert info.value.step == 3

    def test_divergence_reports_step_index(self):
        # the cube of a mode-8 amplitude of 1e103 overflows the nonlinearity
        # within step 1, before the guard sees the stepped state
        big = StatePair(field_from_dict(8, {8: 1e103}), SpectralField.zeros(8))
        cfg = IntegratorConfig(tau=0.2, K=8, filter=sinc_c(2.0))
        with pytest.raises(DivergenceError) as info, np.errstate(all="ignore"):
            evolve(big, model_problem(1.0), cfg, 100)
        assert type(info.value) is DivergenceError
        assert info.value.step == 1

    def test_failure_messages(self):
        state = StatePair(*power_law_initial_data(8))
        cfg = IntegratorConfig(tau=0.5, K=8, filter=impulse())
        with warns_if_inadmissible(cfg.filter), pytest.raises(NormGuardError) as guard:
            evolve(state, model_problem(1.0), cfg, 20)
        assert str(guard.value) == (
            "norm guard tripped at step 3 (t=1.5): |state| = 6.198e+08 > 1.000e+06"
        )
        assert (guard.value.step, guard.value.time) == (3, 1.5)

        big = StatePair(field_from_dict(8, {8: 1e103}), SpectralField.zeros(8))
        cfg = IntegratorConfig(tau=0.2, K=8, filter=sinc_c(2.0))
        with pytest.raises(DivergenceError) as over, np.errstate(all="ignore"):
            evolve(big, model_problem(1.0), cfg, 100)
        assert type(over.value) is DivergenceError
        assert str(over.value) == "nonlinearity overflowed at step 1 (t=0.2)"
        assert (over.value.step, over.value.time) == (1, 0.2)
        assert str(over.value.__cause__) == "nonlinearity a(u) or g(u, u_x) overflowed"

        # kappa = 0 takes no nonlinearity, so the overflowing rotation is
        # caught by the state check
        huge = StatePair(field_from_dict(8, {8: 5e307}), SpectralField.zeros(8))
        with pytest.raises(DivergenceError) as nonfinite, np.errstate(all="ignore"):
            evolve(huge, model_problem(0.0), cfg, 100)
        assert type(nonfinite.value) is DivergenceError
        assert str(nonfinite.value) == "non-finite state at step 1 (t=0.2)"
        assert (nonfinite.value.step, nonfinite.value.time) == (1, 0.2)

    @pytest.mark.parametrize("state,problem,cfg,kind,message", [
        # a finite state whose norm overflows: the guard stops it, since
        # the state check stops only non-finite states
        (StatePair(field_from_dict(8, {8: 1e200}), SpectralField.zeros(8)),
         model_problem(0.0), IntegratorConfig(tau=0.2, K=8, filter=sinc_c(2.0)), NormGuardError,
         "norm guard tripped at step 1 (t=0.2): |state| = inf > 1.000e+06"),
        # test_failure_messages' overflowing rotation at kappa = 0
        (StatePair(field_from_dict(8, {8: 5e307}), SpectralField.zeros(8)),
         model_problem(0.0), IntegratorConfig(tau=0.2, K=8, filter=sinc_c(2.0)),
         DivergenceError, "non-finite state at step 1 (t=0.2)"),
    ], ids=["norm-guard", "non-finite"])
    def test_step_fails_as_one_step_evolve(self, state, problem, cfg, kind, message):
        # step is evolve's one-step case: the same guards, and the same
        # exception with the same step and time
        for run in (lambda: step(state, problem, cfg), lambda: evolve(state, problem, cfg, 1)):
            with pytest.raises(DivergenceError) as info, np.errstate(all="ignore"):
                run()
            assert type(info.value) is kind
            assert str(info.value) == message
            assert (info.value.step, info.value.time) == (1, cfg.tau)

    def test_huge_c_runs(self):
        # phi of sinc:1e308 read nan on the modes with c*tau*w past the
        # largest float, which stopped the run at step 1 as an overflow;
        # the only warning left is the admissibility one
        state = StatePair(*power_law_initial_data(8))
        cfg = IntegratorConfig(tau=0.5, K=8, filter=sinc_c(1e308))
        with pytest.warns(RuntimeWarning) as caught:
            out = evolve(state, model_problem(0.01), cfg, 2)
        assert all("sinc-compatibility" in str(w.message) for w in caught)
        assert np.all(np.isfinite(out.u.coeffs)) and np.all(np.isfinite(out.udot.coeffs))


FILTERS = (impulse(), hairer_lubich(), grimm_hochbruck(), sinc_c(2.0), sinc_c(3.0))


def bits(a):
    """The bit patterns of a complex array, so that signed zeros count."""
    return np.ascontiguousarray(a).view(np.uint64)


class TestLeanStep:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 24),
           st.sampled_from([0.0, 0.01, 1.0]) | st.floats(-2.0, 2.0),
           st.floats(1e-3, 0.7), st.booleans(),
           st.lists(st.sampled_from(FILTERS), min_size=1, max_size=4))
    def test_step_arrays_bitwise_equal_unpremultiplied_step(self, seed, K, kappa, tau, reuse,
                                                            specs):
        # three steps of the engine against the step formulas with every
        # factor applied at the call, both on half spectra, reusing F(u')
        # as evolve does or evaluating it afresh as step() does; one row is
        # the stack of evolve and step
        rng = np.random.default_rng(seed)
        problem = model_problem(kappa)
        cfgs = [IntegratorConfig(tau=tau, K=K, filter=spec) for spec in specs]
        engine = integrator._Engine(problem, cfgs)
        states = [smooth_state(rng, K, scale=0.5) for _ in specs]
        u = np.stack([s.u.coeffs[K:] for s in states])
        ud = np.stack([s.udot.coeffs[K:] for s in states])
        mine = ref = (u, ud, None)
        for _ in range(3):
            mine = engine.step_arrays(*mine)
            ref = unpremultiplied_step(engine.fhat, *ref[:2], K, tau, kappa, ref[2])
            assert np.array_equal(bits(mine[0]), bits(ref[0]))
            assert np.array_equal(bits(mine[1]), bits(ref[1]))
            if kappa == 0.0:
                assert mine[2] is None and ref[2] is None
            else:
                assert np.array_equal(bits(mine[2]), bits(ref[2]))
            if not reuse:
                mine, ref = (*mine[:2], None), (*ref[:2], None)


def assert_exactly_hermitian(c):
    """Modes -j of the coefficients c[-K..K] mirror modes j bit for bit; mode 0 is real.

    Mode 0's imaginary part is a zero whose conjugate is a zero of the
    other sign, so it is compared by value.
    """
    K = (c.size - 1) // 2
    assert np.array_equal(bits(c[K + 1:]), bits(np.conj(c[:K][::-1])))
    assert c[K].imag == 0.0


class TestHalfSpectrumKernel:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 24), st.floats(1e-3, 0.7), st.booleans(),
           st.lists(st.sampled_from(FILTERS), min_size=1, max_size=4))
    def test_fhat_equals_full_spectrum_fhat_on_modes_0_to_K(self, seed, K, tau, with_g, specs):
        rng = np.random.default_rng(seed)
        problem = model_problem(1.0) if with_g else quasilinear_only(1.0)
        cfgs = [IntegratorConfig(tau=tau, K=K, filter=spec) for spec in specs]
        engine = integrator._Engine(problem, cfgs)
        c = np.stack([hermitian_field(rng, K, scale=0.5, decay=3.0).coeffs for _ in specs])
        full = full_spectrum_fhat(problem, cfgs, c)[..., K:]
        assert np.array_equal(bits(engine.fhat(c[..., K:])), bits(full))

    @pytest.mark.parametrize("spec", FILTERS + (sinc_c(0.7),), ids=lambda f: f.label)
    def test_tables_prefix_rows_are_the_degree_k_rows(self, spec):
        # the one tabulation of the multipliers in tau*Om: each entry is its
        # own mode's, so a degree-D table serves every degree k <= D
        cfg = IntegratorConfig(tau=0.3, K=8, filter=spec)
        big = integrator._tables(cfg, 64)
        for k in (0, 1, 7, 33, 64):
            small = integrator._tables(cfg, k)
            for name, row, want in zip(big._fields, big, small):
                assert np.array_equal(bits(row[: k + 1]), bits(want)), name
            x = cfg.tau * omega_weights(k)[k:]
            assert np.array_equal(bits(small.phi), bits(phi(spec, x)))
            assert np.array_equal(bits(small.psi1), bits(psi1(spec, x)))
            assert np.array_equal(bits(small.cos), bits(np.cos(x)))

    @pytest.mark.parametrize("kappa", [0.0, 0.3, 1.0])
    def test_outcomes_exactly_hermitian(self, rng, kappa):
        problem = model_problem(kappa)
        state = smooth_state(rng, 12, scale=0.5)
        cfgs = [IntegratorConfig(tau=0.2, K=12, filter=spec) for spec in FILTERS]
        # the observer's raw arrays, before any SpectralField symmetrizes them
        seen = []
        final = evolve(state, problem, cfgs[3], 6,
                       observer=lambda n, t, u, ud: seen.extend((u, ud)))
        outcomes = integrator._evolve_stack(state, problem, cfgs, 6)
        with warns_if_inadmissible(cfgs[0].filter):
            alone = step(state, problem, cfgs[0])
        pairs = [alone, final, *outcomes]
        assert len(seen) == 12 and len(pairs) == 7
        # evolve hands its observer row 0 of the one-row stack, 1-D and contiguous
        assert all(c.shape == (2 * 12 + 1,) and c.flags.c_contiguous for c in seen)
        assert all(isinstance(o, StatePair) for o in pairs)
        for c in [*seen, *(f.coeffs for pair in pairs for f in (pair.u, pair.udot))]:
            assert_exactly_hermitian(c)

    @pytest.mark.parametrize("K", [1, 8, 64, 256])
    def test_guard_norm_matches_full_spectrum_norm(self, K):
        rng = np.random.default_rng(K)
        engine = integrator._Engine(model_problem(0.0),
                                    [IntegratorConfig(tau=0.1, K=K, filter=impulse())])
        w2 = omega_weights(K) ** 2
        for decay in (0.0, 1.0, 3.0):
            state = smooth_state(rng, K, scale=10.0, decay=decay)
            u, ud = state.u.coeffs, state.udot.coeffs
            full = float(np.sum(w2 * w2 * np.abs(u) ** 2) + np.sum(w2 * np.abs(ud) ** 2))
            half = engine.norm_sq(u[K:], ud[K:])
            assert abs(half - full) <= 1e-15 * full
        # a finite state whose norm overflows
        u = field_from_dict(K, {K: 1e200}).coeffs
        zero = np.zeros(2 * K + 1, dtype=complex)
        with np.errstate(over="ignore"):
            full = float(np.sum(w2 * w2 * np.abs(u) ** 2) + np.sum(w2 * np.abs(zero) ** 2))
            assert engine.norm_sq(u[K:], zero[K:]) == full == np.inf
        # one value per row of a (3, K+1) stack, each its row's full-spectrum
        # norm, and inf for a finite middle row whose norm overflows
        states = [smooth_state(rng, K, scale=10.0, decay=decay) for decay in (0.0, 1.0, 3.0)]
        u = np.stack([s.u.coeffs for s in states])
        ud = np.stack([s.udot.coeffs for s in states])
        full = np.sum(w2 * w2 * np.abs(u) ** 2, axis=1) + np.sum(w2 * np.abs(ud) ** 2, axis=1)
        half = engine.norm_sq(u[:, K:], ud[:, K:])
        assert half.shape == (3,) and np.all(np.abs(half - full) <= 1e-15 * full)
        u[1], ud[1] = field_from_dict(K, {K: 1e200}).coeffs, 0.0
        with np.errstate(over="ignore"):
            half = engine.norm_sq(u[:, K:], ud[:, K:])
        assert half[1] == np.inf
        assert np.all(np.abs(half[::2] - full[::2]) <= 1e-15 * full[::2])


def run_alone(state, problem, cfg, n_steps):
    """evolve's final state, or the exception it raised."""
    with warns_if_inadmissible(cfg.filter), np.errstate(all="ignore"):
        try:
            return evolve(state, problem, cfg, n_steps)
        except DivergenceError as exc:
            return exc


def assert_same_outcome(batched, alone):
    if isinstance(alone, DivergenceError):
        assert type(batched) is type(alone)
        assert (batched.step, batched.time, str(batched)) == (alone.step, alone.time, str(alone))
    else:
        assert isinstance(batched, StatePair)
        assert np.array_equal(batched.u.coeffs, alone.u.coeffs)
        assert np.array_equal(batched.udot.coeffs, alone.udot.coeffs)


class TestBatchedRuns:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 24), st.sampled_from([0.0, 0.3, 1.0]),
           st.sampled_from([0.05, 0.2, 0.5]), st.integers(0, 25),
           st.floats(0.1, 3.0) | st.sampled_from([1e40, 1e100, 1e307]),
           st.lists(st.sampled_from(FILTERS), min_size=1, max_size=5))
    def test_rows_equal_runs_alone(self, seed, K, kappa, tau, n_steps, scale, specs):
        # large states make rows overflow, lose finiteness or trip the
        # guard at different steps while the others go on
        rng = np.random.default_rng(seed)
        state = smooth_state(rng, K, scale=scale, decay=1.0)
        problem = model_problem(kappa)
        cfgs = [IntegratorConfig(tau=tau, K=K, filter=spec) for spec in specs]
        with np.errstate(all="ignore"):
            outcomes = integrator._evolve_stack(state, problem, cfgs, n_steps)
        assert len(outcomes) == len(cfgs)
        for cfg, out in zip(cfgs, outcomes):
            assert_same_outcome(out, run_alone(state, problem, cfg, n_steps))

    @pytest.mark.parametrize("amplitude,expected", [
        # the first step overflows mode 8's velocity: every row stops
        (5e307, [DivergenceError, DivergenceError, DivergenceError]),
    ])
    def test_rows_retire_independently(self, amplitude, expected):
        state = StatePair(field_from_dict(8, {8: amplitude}), SpectralField.zeros(8))
        cfgs = [IntegratorConfig(tau=0.2, K=8, filter=spec)
                for spec in (sinc_c(2.0), sinc_c(3.0), grimm_hochbruck())]
        with np.errstate(all="ignore"):
            outcomes = integrator._evolve_stack(state, model_problem(0.0), cfgs, 5)
        assert [type(o) for o in outcomes] == expected
        for cfg, out in zip(cfgs, outcomes):
            assert_same_outcome(out, run_alone(state, model_problem(0.0), cfg, 5))

    def test_overflowing_rows_retire_alone(self):
        # kappa = 1, tau = 1/2, a mode-8 amplitude of 1e35: the nonlinearity
        # of step 1 overflows for impulse and hl, whose rows retire, while
        # gh and the sinc rows finish the step and trip the norm guard
        state = StatePair(field_from_dict(8, {8: 1e35}), SpectralField.zeros(8))
        problem = model_problem(1.0)
        cfgs = [IntegratorConfig(tau=0.5, K=8, filter=spec) for spec in FILTERS]
        with np.errstate(all="ignore"):
            outcomes = integrator._evolve_stack(state, problem, cfgs, 20)
        assert [type(o) for o in outcomes] == [DivergenceError] * 2 + [NormGuardError] * 3
        for cfg, out in zip(cfgs, outcomes):
            assert_same_outcome(out, run_alone(state, problem, cfg, 20))

    def test_guard_retires_rows_at_their_own_steps(self):
        # kappa = 1, tau = 1/2 from the power-law data: impulse and hl pass
        # the guard at step 3, gh at step 4 and sinc:2 at step 5, while
        # sinc:3 finishes its 20 steps
        state, problem = StatePair(*power_law_initial_data(8)), model_problem(1.0)
        cfgs = [IntegratorConfig(tau=0.5, K=8, filter=spec) for spec in FILTERS]
        outcomes = integrator._evolve_stack(state, problem, cfgs, 20)
        assert [type(o) for o in outcomes] == [NormGuardError] * 4 + [StatePair]
        assert [getattr(o, "step", None) for o in outcomes] == [3, 3, 4, 5, None]
        for cfg, out in zip(cfgs, outcomes):
            assert_same_outcome(out, run_alone(state, problem, cfg, 20))

    @pytest.mark.parametrize("tau,n_steps,retired", [(0.05, 7, 0), (0.5, 20, 3)])
    def test_guard_is_evaluated_once_per_step(self, monkeypatch, tau, n_steps, retired):
        # one norm_sq call per step for the whole stack, also on the steps
        # where rows retire (at tau = 1/2 three of the four rows trip the guard)
        calls = []
        norm_sq = integrator._Engine.norm_sq
        monkeypatch.setattr(integrator._Engine, "norm_sq",
                            lambda self, u, ud: calls.append(len(u)) or norm_sq(self, u, ud))
        state, problem = StatePair(*power_law_initial_data(8)), model_problem(1.0)
        cfgs = [IntegratorConfig(tau=tau, K=8, filter=spec) for spec in FILTERS[1:]]
        outcomes = integrator._evolve_stack(state, problem, cfgs, n_steps)
        assert len(calls) == n_steps
        assert calls[0] == 4
        assert sum(isinstance(o, NormGuardError) for o in outcomes) == retired

    def test_mixed_status_group(self):
        # the kappa = 1 sweep cell K = 256, tau = 2^-7, T = 1/2, where hl
        # trips the norm guard while the sinc and gh rows finish
        u0, ud0 = power_law_initial_data(256)
        state, problem = StatePair(u0, ud0), model_problem(1.0)
        cfgs = [IntegratorConfig(tau=2.0**-7, K=256, filter=spec)
                for spec in (sinc_c(2.0), sinc_c(3.0), hairer_lubich(), grimm_hochbruck())]
        outcomes = integrator._evolve_stack(state, problem, cfgs, 64)
        assert [type(o) for o in outcomes] == [StatePair, StatePair, NormGuardError, StatePair]
        for cfg, out in zip(cfgs, outcomes):
            assert_same_outcome(out, run_alone(state, problem, cfg, 64))

    @pytest.mark.parametrize("kappa,K,tau,n_steps", [(1.0, 64, 2.0**-4, 8),
                                                     (0.01, 128, 0.05, 400)])
    def test_classical_filters_run_as_their_family_members(self, kappa, K, tau, n_steps):
        # hl is sinc:0 and gh is sinc:1, bit for bit along a stacked run
        state, problem = StatePair(*power_law_initial_data(K)), model_problem(kappa)
        cfgs = [IntegratorConfig(tau=tau, K=K, filter=parse_filter(text))
                for text in ("hl", "sinc:0", "gh", "sinc:1")]
        hl, sinc0, gh, sinc1 = integrator._evolve_stack(state, problem, cfgs, n_steps)
        for classical, member in ((hl, sinc0), (gh, sinc1)):
            assert isinstance(classical, StatePair)
            assert_same_outcome(classical, member)

    def test_stacked_configs_must_share_step(self):
        cfgs = [IntegratorConfig(tau=0.1, K=4, filter=impulse()),
                IntegratorConfig(tau=0.2, K=4, filter=impulse())]
        with pytest.raises(ConfigurationError):
            integrator._Engine(model_problem(1.0), cfgs)
