"""Acceptance suite.

Each test pins one acceptance criterion at its stated tolerance and prints
an explicit PASS line (visible with ``pytest -s`` or in the captured
output).  The two convergence sweeps are shared module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from qlwave.energy import (
    apply_l_operator,
    apply_position_filter,
    energy_change_residual,
    positivity_check,
    u_term,
)
from qlwave.filters import (
    check_assumptions,
    grimm_hochbruck,
    hairer_lubich,
    impulse,
    min_c_for,
    scalar_inequality_check,
    sinc_c,
)
from qlwave.harness import (
    ConvergenceRow,
    ExperimentPlan,
    estimate_order,
    estimate_spatial_order,
    rows_by_series,
    run_convergence_space,
    run_convergence_time,
)
from qlwave.integrator import IntegratorConfig, StatePair, evolve, step
from qlwave.problem import ProblemSpec, linear_problem, model_problem, power_law_initial_data
from qlwave.reference import ReferenceConfig, error_h2h1, local_error
from qlwave.spectral import SpectralField
from conftest import hermitian_field, warns_if_inadmissible
from oracles import catalog, dense_one_step, derivative, inner_product, linear_propagator


def report(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:2d}] PASS: {message}")


def data_state(K: int) -> StatePair:
    u0, ud0 = power_law_initial_data(K)
    return StatePair(u0, ud0)


def slope_of(rows) -> float:
    return estimate_order(rows).slope


@pytest.fixture(scope="module")
def fig1_rows():
    """Small-nonlinearity replica: kappa=1/100, T=100, dyadic tau 1/2..1/64."""
    plan = ExperimentPlan(
        problem=model_problem(0.01),
        K_list=[32, 128],
        tau_list=[2.0**-m for m in range(1, 7)],
        T=100.0,
        filters=[hairer_lubich(), grimm_hochbruck(), sinc_c(2.0), impulse()],
    )
    return run_convergence_time(plan, ReferenceConfig(refine_factor=8))


@pytest.fixture(scope="module")
def fig2_rows():
    """Non-small nonlinearity replica: kappa=1, T=1/4, dyadic tau 2^-4..2^-9."""
    plan = ExperimentPlan(
        problem=model_problem(1.0),
        K_list=[32, 256],
        tau_list=[2.0**-m for m in range(4, 10)],
        T=0.25,
        filters=[sinc_c(2.0), sinc_c(3.0), hairer_lubich(), grimm_hochbruck()],
    )
    return run_convergence_time(plan, ReferenceConfig(refine_factor=16))


def test_criterion_01_linear_exactness():
    K, tau, n = 64, 0.1, 10_000
    state0 = data_state(K)
    exact = linear_propagator(state0, n * tau)
    scale = state0.norm(1.0)
    for spec in catalog():
        cfg = IntegratorConfig(tau=tau, K=K, filter=spec)
        t0 = time.perf_counter()
        with warns_if_inadmissible(spec):
            final = evolve(state0, linear_problem(), cfg, n)
        elapsed = time.perf_counter() - t0
        rel = error_h2h1(final, exact) / scale
        assert rel <= 1e-10, (spec.label, rel)
        assert elapsed < 5.0, (spec.label, elapsed)
    report(1, f"kappa=0 error after 1e4 steps <= 1e-10 relative for all catalog filters")


def test_criterion_02_temporal_order_small_kappa(fig1_rows):
    series = rows_by_series(fig1_rows)
    slopes = {}
    for label in ("hl", "gh", "sinc:2"):
        for K in (32, 128):
            rows = series[(label, K)]
            assert all(r.status == "ok" for r in rows), (label, K)
            slopes[(label, K)] = slope_of(rows)
            assert 1.8 <= slopes[(label, K)] <= 2.2, (label, K, slopes[(label, K)])
        gap = abs(slopes[(label, 32)] - slopes[(label, 128)])
        assert gap <= 0.2, (label, gap)
    pretty = ", ".join(f"{k[0]}/K={k[1]}: {v:.2f}" for k, v in slopes.items())
    report(2, f"second order uniformly in K ({pretty})")


def test_criterion_03_temporal_order_nonsmall_kappa(fig2_rows):
    series = rows_by_series(fig2_rows)
    for label in ("sinc:2", "sinc:3"):
        for K in (32, 256):
            rows = series[(label, K)]
            assert all(r.status == "ok" for r in rows), (label, K)
            s = slope_of(rows)
            assert 1.8 <= s <= 2.2, (label, K, s)
    # at K=32 the classical filters are still clean ...
    for label in ("hl", "gh"):
        rows = series[(label, 32)]
        assert all(r.status == "ok" for r in rows)
        assert 1.5 <= slope_of(rows) <= 2.5
    # ... while at K=256 the inadmissible pair degrades: a diverged/guard
    # cell or an out-of-window slope appears among its cells
    bad_cells = [
        r for label in ("hl", "gh") for r in series[(label, 256)] if r.status != "ok"
    ]
    degraded = bool(bad_cells)
    if not degraded:
        for label in ("hl", "gh"):
            s = slope_of(series[(label, 256)])
            if not 1.5 <= s <= 2.5:
                degraded = True
    assert degraded, "no K-coupled degradation among hl/gh cells at K=256"
    report(3, f"sinc:2/sinc:3 second order at K=32,256; hl/gh degrade at K=256 "
              f"({len(bad_cells)} guard/diverged cells)")


def test_criterion_04_impulse_breakdown(fig1_rows):
    series = rows_by_series(fig1_rows)
    coarse = [r for r in series[("impulse", 128)] if r.tau >= 0.125 - 1e-12]
    assert len(coarse) == 3
    broken = any(r.status != "ok" for r in coarse)
    if not broken:
        x = np.log([r.tau for r in coarse])
        y = np.log([r.err for r in coarse])
        s = float(np.polyfit(x, y, 1)[0])
        broken = not (1.8 <= s <= 2.2)
    assert broken, "impulse filter unexpectedly second order on the coarse grid half"
    sinc_rows = series[("sinc:2", 128)]
    assert all(r.status == "ok" for r in sinc_rows)
    s2 = slope_of(sinc_rows)
    assert 1.8 <= s2 <= 2.2, s2
    report(4, f"impulse breaks down on the coarse half at K=128 while sinc:2 "
              f"stays second order (slope {s2:.2f})")


def test_criterion_05_local_error_order():
    K = 64
    spec = sinc_c(2.0)
    state0 = data_state(K)
    rc = ReferenceConfig(refine_factor=64)
    taus = [2.0**-m for m in range(4, 10)]
    rows = [
        ConvergenceRow("sinc:2", K, t, local_error(model_problem(0.01), state0, t, spec, rc))
        for t in taus
    ]
    s = slope_of(rows)
    assert 2.7 <= s <= 3.3, s
    tau = 2.0**-6
    e_half = local_error(model_problem(0.01), state0, tau, spec, rc)
    e_full = local_error(model_problem(0.02), state0, tau, spec, rc)
    ratio = e_full / e_half
    assert 2.0 * 0.7 <= ratio <= 2.0 * 1.3, ratio
    report(5, f"one-step error of order {s:.2f}; doubling kappa scales it by {ratio:.2f}")


def test_criterion_06_energy_operator_identity():
    K = 16
    p = model_problem(1.0)
    rng = np.random.default_rng(6)
    filters = (hairer_lubich(), grimm_hochbruck(), sinc_c(2.0), sinc_c(3.0))
    pairs = [(hermitian_field(rng, K), hermitian_field(rng, K)) for _ in range(100)]
    worst = 0.0
    t0 = time.perf_counter()
    for spec in filters:
        cfg = IntegratorConfig(tau=0.1, K=K, filter=spec)
        for e, u in pairs:
            ef, uf = apply_position_filter(e, cfg), apply_position_filter(u, cfg)
            lhs = p.kappa * u_term(ef, uf, p, cfg, projected=False)
            exx = derivative(e, 2)
            rhs = inner_product(apply_l_operator(uf, exx, p, cfg), exx, s=0.0)
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-11, worst
    assert elapsed < 1.0, elapsed
    report(6, f"energy/operator identity residual <= {worst:.2e} over 100 pairs x "
              f"4 filters in {elapsed:.2f}s")


def test_criterion_07_energy_change_identity():
    K = 8
    p = ProblemSpec(kappa=1.0, a=lambda u: u, g=None, name="quasilinear-only")
    cfg = IntegratorConfig(tau=0.05, K=K, filter=sinc_c(2.0))
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        un = StatePair(hermitian_field(rng, K, 0.3), hermitian_field(rng, K, 0.3))
        vn = StatePair(hermitian_field(rng, K, 0.3), hermitian_field(rng, K, 0.3))
        worst = max(worst, energy_change_residual(un, vn, p, cfg))
    assert worst <= 1e-10, worst
    report(7, f"one-step energy-change identity residual <= {worst:.2e} over 50 pairs")


def test_criterion_08_positivity():
    K = 64
    p = model_problem(1.0)
    u0, _ = power_law_initial_data(K)
    cfg = IntegratorConfig(tau=1e-3, K=K, filter=sinc_c(2.0))
    margin = positivity_check(u0, p, cfg, n_samples=1000, rng=np.random.default_rng(8))
    assert margin >= 0.0, margin
    report(8, f"Rayleigh margin {margin:.3f} >= 0 over 1000 random + all single-mode probes")


def test_criterion_09_scalar_inequality():
    delta = 0.15
    a_grid = np.linspace(-1.0 + delta / 2, 13.0 + delta / 2, 1000)
    xi_grid = np.linspace(0.0, 40.0, 1000)
    rep = scalar_inequality_check(sinc_c(2.0), delta, a_grid, xi_grid)
    assert rep.certified, rep
    bad = scalar_inequality_check(impulse(), delta, np.array([13.0]), np.array([np.pi]))
    assert not bad.certified
    assert bad.min_margin < -11.0
    report(9, f"sinc:2 certified on the 1000x1000 grid (margin {rep.min_margin:.3f}); "
              f"impulse violated at xi=pi, A=13 (margin {bad.min_margin:.2f})")


def test_criterion_10_admissibility():
    c_min = min_c_for(13.0, 1e-9)
    assert abs(c_min - 1.8028) <= 1e-3, c_min
    ok = check_assumptions(sinc_c(2.0), delta=0.15, a0=13.0)
    assert ok.all_ok
    for spec in (hairer_lubich(), grimm_hochbruck()):
        rep = check_assumptions(spec, delta=0.15, a0=13.0)
        assert not rep.assumption3_ok, spec.label
    report(10, f"min admissible c for amplitude 13 is {c_min:.4f}; sinc:2 passes, "
               f"hl/gh fail the damping condition")


def test_criterion_11_spatial_convergence():
    plan = ExperimentPlan(
        problem=model_problem(0.01),
        K_list=[16, 32, 64, 128],
        tau_list=[1e-3],
        T=1.0,
        filters=[sinc_c(2.0)],
    )
    rows = run_convergence_space(plan, K_ref=512)
    assert all(r.status == "ok" for r in rows)
    est = estimate_spatial_order(rows)
    assert est.slope >= 2.0, est.slope
    report(11, f"fitted spatial order {est.slope:.2f} >= 2 "
               f"(observed rate is close to 3, consistent with the sharper behavior)")


def test_criterion_12_oracle_equivalence():
    kappa = 1.0
    p = model_problem(kappa)
    rng = np.random.default_rng(12)
    cases = 0
    for K in (1, 2, 4):
        c = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
        cu = SpectralField(0.25 * (c + np.conj(c[::-1])))
        c = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
        cud = SpectralField(0.25 * (c + np.conj(c[::-1])))
        st = StatePair(cu, cud)
        for spec in catalog():
            cfg = IntegratorConfig(tau=0.1, K=K, filter=spec)
            with warns_if_inadmissible(spec):
                out = step(st, p, cfg)
            ou, od = dense_one_step(
                list(cu.coeffs), list(cud.coeffs), K, 0.1, kappa, spec.label, spec.c,
                lambda v: v, lambda uu, pp: pp * pp + kappa * uu**3,
            )
            assert np.max(np.abs(out.u.coeffs - np.asarray(ou))) <= 1e-13, (K, spec.label)
            assert np.max(np.abs(out.udot.coeffs - np.asarray(od))) <= 1e-13, (K, spec.label)
            cases += 1
    report(12, f"one step matches the dense convolution implementation to 1e-13 "
               f"in {cases} (K, filter) cases")
