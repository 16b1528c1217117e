import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlwave import integrator
from qlwave.exceptions import ConfigurationError, DivergenceError, NormGuardError
from qlwave.filters import grimm_hochbruck, hairer_lubich, impulse, phi, psi1, sinc_c
from qlwave.integrator import (
    IntegratorConfig,
    StatePair,
    evolve,
    filtered_nonlinear_term,
    linear_propagator,
    nonlinear_term,
    step,
)
from qlwave.problem import ProblemSpec, linear_problem, model_problem, power_law_initial_data
from qlwave.spectral import (
    SpectralField,
    coeffs_from_samples,
    omega_weights,
    pair_norm,
    project,
    synthesize_values,
)

from conftest import hermitian_field
from oracles import dense_one_step, full_spectrum_fhat, step_three_stage, unpremultiplied_step

COS_X = SpectralField.from_dict(1, {1: 0.5})


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

    def test_admissibility_policy(self):
        with pytest.raises(ConfigurationError, match="unknown admissibility policy"):
            IntegratorConfig(tau=0.1, K=1, filter=impulse(), admissibility_policy="strict")
        # a caller that wants an inadmissible filter to fail turns the warning into an error
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="sinc-compatibility"):
                evolve(StatePair(COS_X, SpectralField.zeros(1)), model_problem(1.0),
                       IntegratorConfig(tau=0.1, K=1, filter=impulse()), 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            step(
                StatePair(COS_X, SpectralField.zeros(1)),
                model_problem(1.0),
                IntegratorConfig(tau=0.1, K=1, filter=impulse()),
            )
        assert any("sinc-compatibility" in str(w.message) for w in caught)


    @pytest.mark.parametrize("run", [
        lambda state, p, cfg: evolve(state, p, cfg, 1),
        lambda state, p, cfg: step(state, p, cfg),
    ], ids=["evolve", "step"])
    def test_admissibility_warning_points_at_caller(self, run):
        # a tau no other test uses, so step's engine cache cannot hold it
        cfg = IntegratorConfig(tau=0.1234, K=1, filter=impulse())
        with pytest.warns(RuntimeWarning, match="sinc-compatibility") as caught:
            run(StatePair(COS_X, SpectralField.zeros(1)), model_problem(1.0), cfg)
        assert [w.filename for w in caught] == [__file__]

    def test_step_builds_one_engine_per_problem_and_config(self, monkeypatch):
        builds = []

        class CountingEngine(integrator._Engine):
            def __init__(self, problem, cfg):
                builds.append(cfg)
                super().__init__(problem, cfg)

        monkeypatch.setattr(integrator, "_Engine", CountingEngine)
        p = quasilinear_only(1.0)
        cfg = IntegratorConfig(tau=0.1, K=4, filter=sinc_c(2.0))
        state = StatePair(hermitian_field(np.random.default_rng(1), 4, 0.1), SpectralField.zeros(4))
        once = step(state, p, cfg)
        twice = step(state, p, cfg)
        assert len(builds) == 1
        assert np.array_equal(once.u.coeffs, twice.u.coeffs)


class TestNonlinearTerm:
    def test_zero_state(self):
        f = nonlinear_term(SpectralField.zeros(4), model_problem(1.0))
        assert np.all(f.coeffs == 0)

    def test_quasilinear_hand_value(self):
        # a(u) = u, g = 0, u = cos x: u * u_xx = -cos^2 x = -1/2 - cos(2x)/2
        f = nonlinear_term(COS_X, quasilinear_only(1.0))
        expected = SpectralField.from_dict(2, {0: -0.5, 2: -0.25})
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


class TestFilteredNonlinearTerm:
    def test_zero_state(self):
        cfg = IntegratorConfig(tau=0.1, K=4, filter=sinc_c(2.0))
        f = filtered_nonlinear_term(SpectralField.zeros(4), model_problem(1.0), cfg)
        assert np.all(f.coeffs == 0) and f.degree == 4

    def test_impulse_projection_hand_value(self):
        # P^1 of (-1/2 - cos(2x)/2) is the constant -1/2
        cfg = IntegratorConfig(tau=0.1, K=1, filter=impulse(), admissibility_policy="ignore")
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
        unfiltered = filtered_nonlinear_term(
            u, p, replace(cfg, filter=impulse(), admissibility_policy="ignore")
        )
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
        a_k = SpectralField(coeffs_from_samples(p.a(synthesize_values(up.coeffs, 2 * K + 1)), K))
        prod_vals = synthesize_values(a_k.coeffs, n) * synthesize_values(
            (-(np.arange(-K, K + 1.0) ** 2)) * up.coeffs, n
        )
        uvals = synthesize_values(up.coeffs, 2 * K + 1)
        uxvals = synthesize_values(1j * np.arange(-K, K + 1.0) * up.coeffs, 2 * K + 1)
        g_k = coeffs_from_samples(p.g(uvals, uxvals), K)
        f2k = coeffs_from_samples(prod_vals, 2 * K)
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
        a = step(st, linear_problem(), cfg)
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
            cfg = IntegratorConfig(tau=0.1, K=8, filter=spec, admissibility_policy="ignore")
            st = smooth_state(rng, 8)
            a, b = step(st, p, cfg), step_three_stage(st, p, cfg)
            assert (a - b).norm(1.0) <= 1e-13

    def test_matches_dense_oracle_small_degrees(self, rng):
        kappa = 1.0
        p = model_problem(kappa)
        for K in (1, 2, 4):
            st = smooth_state(rng, K, scale=0.5, decay=0.0)
            cfg = IntegratorConfig(tau=0.1, K=K, filter=impulse(), admissibility_policy="ignore")
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
        out = evolve(st, linear_problem(), cfg, n)
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
        cfg = IntegratorConfig(tau=0.01, K=K, filter=spec, admissibility_policy="ignore")
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
        back = evolve(fwd.negated_velocity(), p, cfg, 40).negated_velocity()
        assert (back - st).norm(1.0) <= 1e-10

    def test_time_reversal_linear(self, rng):
        st = smooth_state(rng, 8)
        cfg = IntegratorConfig(tau=0.1, K=8, filter=hairer_lubich())
        fwd = evolve(st, linear_problem(), cfg, 200)
        back = evolve(fwd.negated_velocity(), linear_problem(), cfg, 200).negated_velocity()
        assert (back - st).norm(1.0) <= 1e-11

    def test_observer_called_each_step(self, rng):
        st = smooth_state(rng, 4)
        cfg = IntegratorConfig(tau=0.25, K=4, filter=sinc_c(2.0))
        seen = []
        evolve(st, model_problem(0.1), cfg, 10, observer=lambda *a: seen.append(a))
        assert [n for n, _, _ in seen] == list(range(1, 11))
        assert np.isclose(seen[4][1], 1.25)
        sparse = []
        evolve(st, model_problem(0.1), cfg, 10, observer=lambda *a: sparse.append(a), every=3)
        assert [n for n, _, _ in sparse] == [3, 6, 9]
        for n, t, s in sparse:
            _, t1, s1 = seen[n - 1]
            assert t == t1
            assert np.array_equal(s.u.coeffs, s1.u.coeffs)
            assert np.array_equal(s.udot.coeffs, s1.udot.coeffs)

    @pytest.mark.parametrize("every", [0, -3])
    def test_observer_interval_must_be_positive(self, rng, every):
        st = smooth_state(rng, 4)
        cfg = IntegratorConfig(tau=0.25, K=4, filter=sinc_c(2.0))
        with pytest.raises(ConfigurationError):
            evolve(st, model_problem(0.1), cfg, 5, observer=lambda *a: None, every=every)

    def test_norm_guard(self, rng):
        p = model_problem(1.0)
        st = smooth_state(rng, 8, scale=1.0, decay=0.0)
        cfg = IntegratorConfig(tau=0.2, K=8, filter=impulse(), max_norm=1e2,
                               admissibility_policy="ignore")
        with pytest.raises(NormGuardError) as info:
            evolve(st, p, cfg, 10_000)
        assert info.value.step is not None

    def test_divergence_reports_step_index(self):
        # cubic growth through g drives overflow long before 10^6 norm is hit
        p = model_problem(1.0)
        big = StatePair(SpectralField.constant(400.0, 2), SpectralField.zeros(2))
        cfg = IntegratorConfig(tau=0.5, K=2, filter=impulse(), max_norm=np.inf,
                               admissibility_policy="ignore")
        with pytest.raises(DivergenceError) as info, np.errstate(all="ignore"):
            evolve(big, p, cfg, 100)
        assert info.value.step is not None

    def test_failure_messages(self):
        rng = np.random.default_rng(7)
        state = StatePair(hermitian_field(rng, 8, 1.0), hermitian_field(rng, 8, 1.0))
        cfg = IntegratorConfig(tau=0.2, K=8, filter=impulse(), max_norm=1e2,
                               admissibility_policy="ignore")
        with pytest.raises(NormGuardError) as guard:
            evolve(state, model_problem(1.0), cfg, 10_000)
        assert str(guard.value) == (
            "norm guard tripped at step 1 (t=0.2): |state| = 2.359e+03 > 1.000e+02"
        )
        assert (guard.value.step, guard.value.time) == (1, 0.2)

        big = StatePair(SpectralField.constant(400.0, 2), SpectralField.zeros(2))
        cfg = IntegratorConfig(tau=0.5, K=2, filter=impulse(), max_norm=np.inf,
                               admissibility_policy="ignore")
        with pytest.raises(DivergenceError) as over, np.errstate(all="ignore"):
            evolve(big, model_problem(1.0), cfg, 100)
        assert type(over.value) is DivergenceError
        assert str(over.value) == "nonlinearity overflowed at step 4 (t=2)"
        assert (over.value.step, over.value.time) == (4, 2.0)
        assert str(over.value.__cause__) == "nonlinearity a(u) or g(u, u_x) overflowed"

        # kappa = 0 takes no nonlinearity, so the overflowing rotation is
        # caught by the state check
        huge = StatePair(SpectralField.from_dict(8, {8: 5e307}), SpectralField.zeros(8))
        cfg = IntegratorConfig(tau=0.2, K=8, filter=sinc_c(2.0), max_norm=np.inf)
        with pytest.raises(DivergenceError) as nonfinite, np.errstate(all="ignore"):
            evolve(huge, linear_problem(), cfg, 100)
        assert type(nonfinite.value) is DivergenceError
        assert str(nonfinite.value) == "non-finite state at step 1 (t=0.2)"
        assert (nonfinite.value.step, nonfinite.value.time) == (1, 0.2)


FILTERS = (impulse(), hairer_lubich(), grimm_hochbruck(), sinc_c(2.0), sinc_c(3.0))


def bits(a):
    """The bit patterns of a complex array, so that signed zeros count."""
    return np.ascontiguousarray(a).view(np.uint64)


class TestLeanStep:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 24),
           st.sampled_from([0.0, 0.01, 1.0]) | st.floats(-2.0, 2.0),
           st.floats(1e-3, 0.7), st.booleans(),
           st.none() | st.lists(st.sampled_from(FILTERS), min_size=1, max_size=4))
    def test_step_arrays_bitwise_equal_unpremultiplied_step(self, seed, K, kappa, tau, reuse,
                                                            stack):
        # three steps of the engine against the step formulas with every
        # factor applied at the call, both on half spectra, reusing F(u')
        # as evolve does or evaluating it afresh as step() does; stack
        # None is the one-config engine
        rng = np.random.default_rng(seed)
        problem = model_problem(kappa)
        specs = [sinc_c(2.0)] if stack is None else stack
        cfgs = [IntegratorConfig(tau=tau, K=K, filter=spec, admissibility_policy="ignore")
                for spec in specs]
        engine = integrator._Engine(problem, cfgs[0] if stack is None else cfgs)
        states = [smooth_state(rng, K, scale=0.5) for _ in specs]
        u = np.stack([s.u.coeffs[K:] for s in states])
        ud = np.stack([s.udot.coeffs[K:] for s in states])
        if stack is None:
            u, ud = u[0], ud[0]
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


def assert_exactly_hermitian(f):
    """Modes -j mirror modes j bit for bit; mode 0 is real.

    Mode 0's imaginary part is a zero whose conjugate is a zero of the
    other sign, so it is compared by value.
    """
    c, K = f.coeffs, f.degree
    assert np.array_equal(bits(c[K + 1:]), bits(np.conj(c[:K][::-1])))
    assert c[K].imag == 0.0


class TestHalfSpectrumKernel:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 24), st.floats(1e-3, 0.7), st.booleans(),
           st.none() | st.lists(st.sampled_from(FILTERS), min_size=1, max_size=4))
    def test_fhat_equals_full_spectrum_fhat_on_modes_0_to_K(self, seed, K, tau, with_g, stack):
        # stack None is the one-config engine on a 1-D half spectrum
        rng = np.random.default_rng(seed)
        problem = model_problem(1.0) if with_g else quasilinear_only(1.0)
        specs = [sinc_c(2.0)] if stack is None else stack
        cfgs = [IntegratorConfig(tau=tau, K=K, filter=spec, admissibility_policy="ignore")
                for spec in specs]
        engine = integrator._Engine(problem, cfgs[0] if stack is None else cfgs)
        c = np.stack([hermitian_field(rng, K, scale=0.5, decay=3.0).coeffs for _ in specs])
        full = full_spectrum_fhat(problem, cfgs, c)[..., K:]
        half = engine.fhat(c[0, K:] if stack is None else c[..., K:])
        assert np.array_equal(bits(half), bits(full[0] if stack is None else full))

    @pytest.mark.parametrize("kappa", [0.0, 0.3, 1.0])
    def test_outcomes_exactly_hermitian(self, rng, kappa):
        problem = model_problem(kappa) if kappa else linear_problem()
        state = smooth_state(rng, 12, scale=0.5)
        cfgs = [IntegratorConfig(tau=0.2, K=12, filter=spec, admissibility_policy="ignore")
                for spec in FILTERS]
        seen = []
        final = evolve(state, problem, cfgs[3], 6, observer=lambda n, t, s: seen.append(s))
        outcomes = integrator._evolve_stack(state, problem, cfgs, 6)
        fields = [step(state, problem, cfgs[0]), final, *seen, *outcomes]
        assert len(fields) == 13 and all(isinstance(o, StatePair) for o in fields)
        for pair in fields:
            assert_exactly_hermitian(pair.u)
            assert_exactly_hermitian(pair.udot)

    @pytest.mark.parametrize("K", [1, 8, 64, 256])
    def test_guard_norm_matches_full_spectrum_norm(self, K):
        rng = np.random.default_rng(K)
        engine = integrator._Engine(linear_problem(), IntegratorConfig(
            tau=0.1, K=K, filter=impulse(), admissibility_policy="ignore"))
        w2 = omega_weights(K) ** 2
        for decay in (0.0, 1.0, 3.0):
            state = smooth_state(rng, K, scale=10.0, decay=decay)
            u, ud = state.u.coeffs, state.udot.coeffs
            full = float(np.sum(w2 * w2 * np.abs(u) ** 2) + np.sum(w2 * np.abs(ud) ** 2))
            half = engine.norm_sq(u[K:], ud[K:])
            assert abs(half - full) <= 1e-15 * full
        # a finite state whose norm overflows
        u = SpectralField.from_dict(K, {K: 1e200}).coeffs
        zero = np.zeros(2 * K + 1, dtype=complex)
        with np.errstate(over="ignore"):
            full = float(np.sum(w2 * w2 * np.abs(u) ** 2) + np.sum(w2 * np.abs(zero) ** 2))
            assert engine.norm_sq(u[K:], zero[K:]) == full == np.inf


def run_alone(state, problem, cfg, n_steps):
    """evolve's final state, or the exception it raised."""
    try:
        with np.errstate(all="ignore"):
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
           st.lists(st.tuples(st.sampled_from(FILTERS), st.sampled_from([1e2, 1e6, np.inf])),
                    min_size=1, max_size=5))
    def test_rows_equal_runs_alone(self, seed, K, kappa, tau, n_steps, scale, rows):
        # large states and small guards make rows overflow, lose finiteness
        # or trip the guard at different steps while the others go on; an
        # unbounded guard lets a finite state with an overflowing norm go on
        rng = np.random.default_rng(seed)
        state = smooth_state(rng, K, scale=scale, decay=1.0)
        problem = model_problem(kappa) if kappa else linear_problem()
        cfgs = [IntegratorConfig(tau=tau, K=K, filter=spec, max_norm=m,
                                 admissibility_policy="ignore") for spec, m in rows]
        with np.errstate(all="ignore"):
            outcomes = integrator._evolve_stack(state, problem, cfgs, n_steps)
        assert len(outcomes) == len(cfgs)
        for cfg, out in zip(cfgs, outcomes):
            assert_same_outcome(out, run_alone(state, problem, cfg, n_steps))

    @pytest.mark.parametrize("amplitude,expected", [
        # the first step overflows mode 8's velocity: every row stops
        (5e307, [DivergenceError, DivergenceError, DivergenceError]),
        # a finite state whose norm overflows passes an unbounded guard only
        (1e200, [StatePair, NormGuardError, StatePair]),
    ])
    def test_rows_retire_independently(self, amplitude, expected):
        state = StatePair(SpectralField.from_dict(8, {8: amplitude}), SpectralField.zeros(8))
        cfgs = [IntegratorConfig(tau=0.2, K=8, filter=spec, max_norm=m)
                for spec, m in ((sinc_c(2.0), np.inf), (sinc_c(2.0), 1e6),
                                (grimm_hochbruck(), np.inf))]
        with np.errstate(all="ignore"):
            outcomes = integrator._evolve_stack(state, linear_problem(), cfgs, 5)
        assert [type(o) for o in outcomes] == expected
        for cfg, out in zip(cfgs, outcomes):
            assert_same_outcome(out, run_alone(state, linear_problem(), cfg, 5))

    def test_overflowing_rows_retire_alone(self):
        # kappa = 1, tau = 1/2: the nonlinearity overflows at step 7 for
        # impulse, hl and gh and at step 8 for sinc:2; sinc:3 stays bounded
        u0, ud0 = power_law_initial_data(8)
        state, problem = StatePair(u0, ud0), model_problem(1.0)
        cfgs = [IntegratorConfig(tau=0.5, K=8, filter=spec, max_norm=np.inf,
                                 admissibility_policy="ignore") for spec in FILTERS]
        with np.errstate(all="ignore"):
            outcomes = integrator._evolve_stack(state, problem, cfgs, 20)
        assert [getattr(o, "step", None) for o in outcomes] == [7, 7, 7, 8, None]
        for cfg, out in zip(cfgs, outcomes):
            assert_same_outcome(out, run_alone(state, problem, cfg, 20))

    def test_mixed_status_group(self):
        # the kappa = 1 sweep cell K = 256, tau = 2^-7, T = 1/2, where hl
        # trips the norm guard while the sinc and gh rows finish
        u0, ud0 = power_law_initial_data(256)
        state, problem = StatePair(u0, ud0), model_problem(1.0)
        cfgs = [IntegratorConfig(tau=2.0**-7, K=256, filter=spec, admissibility_policy="ignore")
                for spec in (sinc_c(2.0), sinc_c(3.0), hairer_lubich(), grimm_hochbruck())]
        outcomes = integrator._evolve_stack(state, problem, cfgs, 64)
        assert [type(o) for o in outcomes] == [StatePair, StatePair, NormGuardError, StatePair]
        for cfg, out in zip(cfgs, outcomes):
            assert_same_outcome(out, run_alone(state, problem, cfg, 64))

    def test_stacked_configs_must_share_step(self):
        cfgs = [IntegratorConfig(tau=0.1, K=4, filter=impulse()),
                IntegratorConfig(tau=0.2, K=4, filter=impulse())]
        with pytest.raises(ConfigurationError):
            integrator._Engine(model_problem(1.0), cfgs)
