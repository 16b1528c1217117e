import csv
import math
import os
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qlwave import cli, reference
from qlwave.cli import cli_main, load_config
from qlwave.exceptions import ConfigurationError, DivergenceError, EstimationError, NormGuardError
from qlwave.filters import (
    grimm_hochbruck, hairer_lubich, impulse, parse_filter, sinc_c,
)
from qlwave.harness import (
    CSV_HEADER,
    ConvergenceRow,
    ExperimentPlan,
    estimate_order,
    estimate_spatial_order,
    run_convergence_space,
    run_convergence_time,
    write_rows_csv,
    _fmt,
)
from qlwave.integrator import IntegratorConfig, StatePair, evolve
from qlwave.problem import linear_problem, model_problem, power_law_initial_data
from qlwave.reference import ReferenceConfig, error_h2h1, reference_solution
from qlwave.spectral import SpectralField, embed

from conftest import warns_if_inadmissible


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# each shipped config's subcommand, and overrides that shrink its run
SHIPPED_CONFIGS = {
    "conv_space.cfg": ("conv-space", ["sweep.K=2 4 8", "grid.K_ref=32", "time.T=0.01"]),
    "conv_time_nonsmall_kappa.cfg": ("conv-time",
                                     ["sweep.K=8", "sweep.tau=0.0625 0.03125 0.015625"]),
    "conv_time_small_kappa.cfg": ("conv-time",
                                  ["sweep.K=8", "sweep.tau=0.5 0.25 0.125", "time.T=1"]),
    "simulate_long.cfg": ("simulate", ["grid.K=16", "time.T=1"]),
}


def linear_plan(**kw):
    defaults = dict(
        problem=linear_problem(),
        K_list=[8],
        tau_list=[0.5, 0.25, 0.125],
        T=2.0,
        filters=[sinc_c(2.0)],
    )
    defaults.update(kw)
    return ExperimentPlan(**defaults)


class TestPlanValidation:
    def test_non_integral_step_count(self):
        with pytest.raises(ConfigurationError):
            linear_plan(tau_list=[0.3])

    def test_step_count_bound(self):
        # 2**31 steps is the most a run may take, one more is rejected
        linear_plan(T=2.0**31, tau_list=[1.0])
        with pytest.raises(ConfigurationError, match="more than a run may take"):
            linear_plan(T=2.0**31 + 1, tau_list=[1.0])

    def test_empty_lists(self):
        with pytest.raises(ConfigurationError):
            linear_plan(K_list=[])

    def test_repeated_K_rejected(self):
        with pytest.raises(ConfigurationError, match="sweep K 8 is repeated"):
            linear_plan(K_list=[8, 16, 8])

    def test_repeated_tau_rejected(self):
        with pytest.raises(ConfigurationError, match="sweep tau 0.25 is repeated"):
            linear_plan(tau_list=[0.5, 0.25, 0.125, 0.25])

    def test_repeated_filter_rejected(self):
        # the same filter built two ways has one c, and is one filter
        with pytest.raises(ConfigurationError, match="sweep filter sinc:2 is repeated"):
            linear_plan(filters=[sinc_c(2.0), hairer_lubich(), parse_filter("sinc:2.0")])

    @pytest.mark.parametrize("texts,message", [
        (("sinc:0", "sinc:-0"), "sweep filter sinc:0 is repeated"),
        (("hl", "sinc:0"), "sweep filter sinc:0 is repeated (as hl)"),
        (("sinc:1", "impulse", "gh"), "sweep filter gh is repeated (as sinc:1)"),
    ], ids=["negative-zero", "hl-is-sinc:0", "gh-is-sinc:1"])
    def test_one_c_is_one_filter(self, texts, message):
        # filters are distinct by c, whatever their labels: hl is sinc:0, gh is sinc:1
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            linear_plan(filters=[parse_filter(t) for t in texts])


class TestEstimateOrder:
    @staticmethod
    def rows(taus, errs):
        return [ConvergenceRow("f", 8, t, e) for t, e in zip(taus, errs)]

    def test_exact_quadratic(self):
        taus = [0.5, 0.25, 0.125, 0.0625]
        est = estimate_order(self.rows(taus, [3.0 * t**2 for t in taus]))
        assert abs(est.slope - 2.0) < 1e-12
        assert est.r_squared > 1.0 - 1e-12

    def test_exact_cubic(self):
        taus = [0.5, 0.25, 0.125]
        est = estimate_order(self.rows(taus, [t**3 for t in taus]))
        assert abs(est.slope - 3.0) < 1e-12

    def test_too_few_rows(self):
        with pytest.raises(EstimationError):
            estimate_order(self.rows([0.5, 0.25], [1.0, 0.25]))

    def test_small_span(self):
        with pytest.raises(EstimationError):
            estimate_order(self.rows([0.5, 0.4, 0.3], [1.0, 0.8, 0.6]))

    def test_diverged_rows_excluded(self):
        taus = [0.5, 0.25, 0.125, 0.0625]
        rows = self.rows(taus, [t**2 for t in taus])
        rows.append(ConvergenceRow("f", 8, 1.0, math.nan, "diverged"))
        est = estimate_order(rows)
        assert abs(est.slope - 2.0) < 1e-12

    def test_spatial_order_sign(self):
        Ks = [8, 16, 32, 64]
        rows = [ConvergenceRow("f", K, 0.1, K**-3.0) for K in Ks]
        est = estimate_spatial_order(rows)
        assert abs(est.slope - 3.0) < 1e-12


class TestSweeps:
    def test_linear_plan_errors_at_roundoff(self):
        rows = run_convergence_time(linear_plan(), ReferenceConfig(refine_factor=4))
        assert len(rows) == 3
        assert all(r.status == "ok" and r.err <= 1e-11 for r in rows)

    def test_rows_sorted_by_key(self):
        rows = run_convergence_time(
            linear_plan(filters=[sinc_c(2.0), impulse()]), ReferenceConfig(refine_factor=4)
        )
        keys = [(r.filter, r.K, r.tau) for r in rows]
        assert keys == sorted(keys)

    def test_sweeps_with_impulse_warn_nothing(self):
        # a sweep compares filters on purpose, so impulse runs without the
        # warning that evolve gives a caller's own config
        plan = ExperimentPlan(problem=model_problem(0.01), K_list=[4, 8], tau_list=[0.25],
                              T=0.5, filters=[impulse(), sinc_c(2.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_convergence_time(replace(plan, tau_list=[0.25, 0.125, 0.0625]),
                                 ReferenceConfig(refine_factor=4))
            run_convergence_space(plan, K_ref=32)

    def test_guard_cells_recorded_not_fatal(self):
        # kappa = 0.3, K = 64, T = 4: every impulse cell passes the norm
        # guard before T, while the sinc:2 reference completes
        plan = ExperimentPlan(
            problem=model_problem(0.3),
            K_list=[64],
            tau_list=[0.25, 0.125, 0.0625],
            T=4.0,
            filters=[impulse()],
        )
        rows = run_convergence_time(plan, ReferenceConfig(refine_factor=64))
        assert [r.status for r in rows] == ["guard"] * 3

    def test_batched_rows_equal_per_cell_evolve(self, monkeypatch):
        # kappa = 1, K = 256, T = 1/2: hl trips the guard at tau = 2^-6 and
        # 2^-7 beside ok rows; each stacked row must equal its cell run
        # alone through evolve, error and status alike
        plan = ExperimentPlan(
            problem=model_problem(1.0), K_list=[256], tau_list=[2.0**-6, 2.0**-7], T=0.5,
            filters=[sinc_c(2.0), sinc_c(3.0), hairer_lubich(), grimm_hochbruck()],
        )
        # a coarse reference, exempt from the drift bound: its accuracy is
        # not what is compared here
        monkeypatch.setattr(reference, "_SELF_CHECK_RTOL", np.inf)
        ref_cfg = ReferenceConfig(refine_factor=2)
        rows = run_convergence_time(plan, ref_cfg)
        state0 = StatePair(*power_law_initial_data(256))
        ref = reference_solution(plan.problem, state0, plan.T, ref_cfg, tau_min=2.0**-7)
        expected = []
        for spec in plan.filters:
            for tau in plan.tau_list:
                cfg = IntegratorConfig(tau=tau, K=256, filter=spec)
                try:
                    with warns_if_inadmissible(spec):
                        final = evolve(state0, plan.problem, cfg, round(plan.T / tau))
                except NormGuardError:
                    expected.append((spec.label, 256, tau, "guard", None))
                except DivergenceError:
                    expected.append((spec.label, 256, tau, "diverged", None))
                else:
                    expected.append((spec.label, 256, tau, "ok", error_h2h1(final, ref)))
        got = [(r.filter, r.K, r.tau, r.status, r.err if r.status == "ok" else None)
               for r in rows]
        assert got == sorted(expected)
        assert {r.status for r in rows} == {"ok", "guard"}

    def test_batched_space_rows_equal_per_cell_evolve(self):
        plan = ExperimentPlan(
            problem=model_problem(0.2), K_list=[8, 16], tau_list=[2.0**-5], T=0.5,
            filters=[sinc_c(2.0), hairer_lubich(), grimm_hochbruck(), impulse()],
        )
        rows = run_convergence_space(plan, K_ref=64)

        def alone(K, spec):
            cfg = IntegratorConfig(tau=2.0**-5, K=K, filter=spec)
            with warns_if_inadmissible(spec):
                return evolve(StatePair(*power_law_initial_data(K)), plan.problem, cfg, 16)

        expected = []
        for spec in plan.filters:
            ref = alone(64, spec)
            for K in plan.K_list:
                final = alone(K, spec)
                err = error_h2h1(StatePair(embed(final.u, 64), embed(final.udot, 64)), ref)
                expected.append((spec.label, K, 2.0**-5, "ok", err))
        assert [(r.filter, r.K, r.tau, r.status, r.err) for r in rows] == sorted(expected)

    def test_spatial_sweep_matches_projection_tail(self):
        # kappa = 0: the spatial error is the propagated truncation tail of
        # the initial data, and the rotation preserves the measure
        from qlwave.problem import power_law_initial_data
        from qlwave.spectral import pair_norm

        plan = linear_plan(K_list=[8, 16, 32], tau_list=[0.125])
        rows = run_convergence_space(plan, K_ref=128)
        u_ref, ud_ref = power_law_initial_data(128)
        for r in rows:
            K = r.K
            cu = u_ref.coeffs.copy()
            cud = ud_ref.coeffs.copy()
            cu[128 - K : 128 + K + 1] = 0
            cud[128 - K : 128 + K + 1] = 0
            from qlwave.spectral import SpectralField

            tail = pair_norm(SpectralField(cu), SpectralField(cud), 1.0)
            assert abs(r.err - tail) <= 1e-10 * tail

    def test_spatial_errors_decrease(self):
        plan = ExperimentPlan(
            problem=model_problem(0.01),
            K_list=[8, 16, 32],
            tau_list=[0.01],
            T=0.1,
            filters=[sinc_c(2.0)],
        )
        rows = run_convergence_space(plan, K_ref=128)
        errs = [r.err for r in sorted(rows, key=lambda r: r.K)]
        assert errs[0] > errs[1] > errs[2]

    def test_kref_floor(self):
        with pytest.raises(ConfigurationError):
            run_convergence_space(linear_plan(K_list=[8, 16]), K_ref=32)


class TestCsv:
    def test_schema_and_digits(self, tmp_path):
        rows = [
            ConvergenceRow("sinc:2", 32, 1.0 / 3.0, 1.2345678901234567e-5),
            ConvergenceRow("hl", 32, 0.5, math.nan, "diverged"),
        ]
        path = tmp_path / "rows.csv"
        write_rows_csv(rows, str(path))
        with open(path) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            body = list(reader)
        assert tuple(header) == CSV_HEADER
        assert body[1][0] == "sinc:2"
        assert float(body[1][2]) == 1.0 / 3.0  # 17 significant digits round-trip
        assert float(body[1][3]) == 1.2345678901234567e-5

    def test_deterministic_bytes(self, tmp_path):
        rows = run_convergence_time(linear_plan(), ReferenceConfig(refine_factor=4))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows_csv(rows, str(p1))
        write_rows_csv(list(reversed(rows)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestCli:
    def test_filter_check_pass(self, capsys):
        code = cli_main(["filter-check", "--filter", "sinc:2", "--A0", "13", "--delta", "0.15"])
        assert code == 0
        assert "pass" in capsys.readouterr().out

    def test_filter_check_fail(self, capsys):
        code = cli_main(["filter-check", "--filter", "hl", "--A0", "13", "--delta", "0.15"])
        assert code == 2
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("classical,member,c", [("hl", "sinc:0", 0), ("gh", "sinc:1", 1)])
    def test_filter_check_of_classical_filter_is_its_members(self, capsys, classical, member, c):
        # one filter under two labels: the same c and the same verdicts
        lines = []
        for text in (classical, member):
            code = cli_main(["filter-check", "--filter", text, "--A0", "13", "--delta", "0.15"])
            assert code == 2
            lines.append(capsys.readouterr().out.splitlines())
        assert lines[0][0] == f"filter {classical}: c={c} c0=1"
        assert lines[1][0] == f"filter {member}: c={c} c0=1"
        assert lines[0][1:] == lines[1][1:]

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value line\n")
        code = cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1

    def test_missing_required_key(self, tmp_path):
        cfg = tmp_path / "partial.cfg"
        cfg.write_text("problem.kappa = 0\n")
        code = cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1

    def test_simulate_and_trajectory(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "problem.kappa = 0\ngrid.K = 8\n"
            "time.tau = 0.25\ntime.T = 2\nfilter.kind = sinc:2\n"
        )
        out = tmp_path / "out"
        code = cli_main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        with open(out / "trajectory.csv") as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "n,t,pair_norm_h2h1"
        assert len(lines) == 10  # initial row + 8 steps
        # the tabulated observer norm prints the digits of StatePair.norm
        state = StatePair(*power_law_initial_data(8))
        expected = [_fmt(state.norm(1.0))]
        evolve(state, linear_problem(), IntegratorConfig(tau=0.25, K=8, filter=sinc_c(2.0)), 8,
               observer=lambda n, t, u, ud: expected.append(
                   _fmt(StatePair(SpectralField(u), SpectralField(ud)).norm(1.0))))
        assert [line.split(",")[2] for line in lines[1:]] == expected

    @pytest.mark.parametrize("every", ["0", "-3"])
    def test_simulate_rejects_nonpositive_every(self, tmp_path, capsys, every):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "problem.kappa = 0\ngrid.K = 8\ntime.tau = 0.25\n"
            "time.T = 2\nfilter.kind = sinc:2\n"
        )
        out = tmp_path / "out"
        code = cli_main(
            ["simulate", "--config", str(cfg), "--out", str(out), "-o", f"output.every={every}"]
        )
        assert code == 1
        assert "every must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tau,message", [
        ("0.3", "T/tau must be an integer"),
        ("0", "tau must be positive"),
        # a finite, integral count no run could finish
        ("1e-300", "T/tau = 1e+300 steps is more than a run may take"),
    ])
    def test_simulate_rejects_bad_step_count(self, tmp_path, capsys, tau, message):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"problem.kappa = 0\ngrid.K = 8\ntime.T = 1\ntime.tau = {tau}\n")
        out = tmp_path / "out"
        code = cli_main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_reference_defaults_are_the_dataclass_defaults(self):
        assert cli._ref_cfg_from(cli._ReadConfig({})) == ReferenceConfig()

    def test_reference_step_count_rejected(self, tmp_path, capsys):
        # 8 steps at the finest tau, refined 1e11-fold and halved
        out = tmp_path / "out"
        code = cli_main(["conv-time", "-o", "sweep.K=8", "-o", "sweep.tau=0.5 0.25 0.125",
                         "-o", "time.T=1", "-o", "reference.refine_factor=100000000000",
                         "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: the reference's fine run takes 1600000000000 steps "
            "(refine_factor=100000000000), more than a run may take (2147483648)\n")
        assert not out.exists()

    def test_simulate_divergence_exit_code(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "problem.kappa = 1\ngrid.K = 8\n"
            "time.tau = 0.5\ntime.T = 100\nfilter.kind = impulse\n"
        )
        with pytest.warns(RuntimeWarning, match="sinc-compatibility"):
            code = cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 3

    def test_simulate_divergence_reported_once_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="sinc-compatibility"):
            code = cli_main(["simulate", "-o", "problem.kappa=1", "-o", "grid.K=8",
                             "-o", "time.tau=0.5", "-o", "time.T=100", "-o", "filter.kind=impulse",
                             "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            "diverged: norm guard tripped at step 3 (t=1.5): |state| = 6.198e+08 > 1.000e+06\n")
        assert not out.exists()

    @pytest.mark.parametrize("command,T,message", [
        ("simulate", "inf", "T must be finite and positive, got inf"),
        ("simulate", "nan", "T must be finite and positive, got nan"),
        ("simulate", "-1", "T must be finite and positive, got -1.0"),
        ("simulate", "0", "T must be finite and positive, got 0.0"),
        ("conv-time", "inf", "T must be finite and positive, got inf"),
        ("conv-time", "nan", "T must be finite and positive, got nan"),
        ("conv-time", "-1", "T must be finite and positive, got -1.0"),
        ("conv-space", "inf", "T must be finite and positive, got inf"),
        # a horizon shorter than one step would run nothing and still fit an order
        ("conv-space", "1e-12", "T=1e-12 is shorter than one step of tau=0.1"),
    ])
    def test_bad_horizon_rejected_before_any_output(self, tmp_path, capsys, command, T, message):
        # simulate's other failed runs (output.every < 1, divergence) leave
        # no directory either; see the every and divergence tests
        out = tmp_path / "out"
        taus = "0.1" if command == "conv-space" else "0.25 0.125 0.0625"
        code = cli_main([command, "-o", "grid.K=8", "-o", "time.tau=0.1", "-o", f"time.T={T}",
                         "-o", "sweep.K=8", "-o", "grid.K_ref=32", "-o", f"sweep.tau={taus}",
                         "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["conv-time", "conv-space"])
    def test_degree_below_one_rejected_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                      command):
        def no_run(*args, **kwargs):
            raise AssertionError("the sweep started a run")

        monkeypatch.setattr("qlwave.harness._evolve_stack", no_run)
        monkeypatch.setattr("qlwave.reference.evolve", no_run)
        out = tmp_path / "out"
        taus = "0.1" if command == "conv-space" else "0.25 0.125 0.0625"
        code = cli_main([command, "-o", "sweep.K=128 0", "-o", f"sweep.tau={taus}",
                         "-o", "time.T=1", "-o", "grid.K_ref=512", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: sweep K 0 must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "conv-time"])
    def test_step_count_overflow_rejected(self, tmp_path, capsys, command):
        # T/tau overflows to inf for a subnormal tau, which round() cannot take
        out = tmp_path / "out"
        code = cli_main([command, "-o", "grid.K=8", "-o", "time.tau=1e-320", "-o", "time.T=1",
                         "-o", "sweep.K=8", "-o", "sweep.tau=1e-320 0.5 0.25", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: T/tau must be an integer; T=1.0, tau=1e-320 gives inf\n"
        assert not out.exists()

    def test_unread_config_keys_named_on_stderr(self, tmp_path, capsys):
        base = ["simulate", "-o", "problem.kappa=0", "-o", "grid.K=8", "-o", "time.tau=0.25",
                "-o", "time.T=1", "--out"]
        assert cli_main(base + [str(tmp_path / "a")]) == 0
        assert capsys.readouterr().err == ""
        # a misspelled key and two simulate has no use for (time.T is its
        # only horizon): same run, one stderr line
        code = cli_main(base + [str(tmp_path / "b"), "-o", "filter.knd=hl",
                                "-o", "sweep.K=4", "-o", "time.n_steps=3"])
        assert code == 0
        captured = capsys.readouterr()
        assert "steps=4 filter=sinc:2" in captured.out
        assert captured.err == ("warning: simulate did not read config keys: "
                                "filter.knd, sweep.K, time.n_steps\n")
        assert ((tmp_path / "a" / "trajectory.csv").read_bytes()
                == (tmp_path / "b" / "trajectory.csv").read_bytes())

    def test_removed_cross_check_key_is_named_unread(self, tmp_path, capsys):
        code = cli_main(["conv-time", "-o", "problem.kappa=0", "-o", "sweep.K=4",
                         "-o", "sweep.tau=0.5 0.25 0.125", "-o", "time.T=1",
                         "-o", "reference.refine_factor=2", "-o", "reference.cross_check=1",
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert capsys.readouterr().err == (
            "warning: conv-time did not read config keys: reference.cross_check\n")

    def test_removed_problem_and_guard_keys_are_named_unread(self, tmp_path, capsys):
        # problem.kappa alone sets the equation (0 is the linear one) and the
        # norm guard is fixed, so these keys no longer change a run
        code = cli_main(["simulate", "-o", "problem.name=linear", "-o", "problem.kappa=1",
                         "-o", "guard.max_norm=0", "-o", "grid.K=8", "-o", "time.tau=0.1",
                         "-o", "time.T=0.5", "--out", str(tmp_path / "out")])
        assert code == 0
        captured = capsys.readouterr()
        assert "simulate: model kappa=1 K=8" in captured.out
        assert "final |(u, u_t)|_1 = 14.8773478385 " in captured.out
        assert captured.err == (
            "warning: simulate did not read config keys: guard.max_norm, problem.name\n")

    def test_non_finite_kappa_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli_main(["simulate", "-o", "problem.kappa=nan", "-o", "grid.K=8",
                         "-o", "time.tau=0.1", "-o", "time.T=0.5", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: kappa must be finite\n"
        assert not out.exists()

    def test_conv_time_linear(self, tmp_path, capsys):
        cfg = tmp_path / "conv.cfg"
        cfg.write_text(
            "problem.kappa = 0\nsweep.K = 8\nsweep.tau = 0.5 0.25 0.125\n"
            "time.T = 2\nsweep.filters = sinc:2\nreference.refine_factor = 4\n"
        )
        out = tmp_path / "out"
        code = cli_main(["conv-time", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        with open(out / "conv_time.csv") as fh:
            reader = csv.DictReader(fh)
            errs = [float(row["err_h2h1"]) for row in reader]
        assert all(e <= 1e-11 for e in errs)

    def test_conv_time_rejects_repeated_sweep_values(self, tmp_path, capsys):
        # a repeated value would rerun its cells and count them twice in the order fit
        out = tmp_path / "out"
        code = cli_main(["conv-time", "-o", "problem.kappa=0", "-o", "sweep.K=8 8",
                         "-o", "sweep.tau=0.25,0.25,0.125,0.0625", "-o", "time.T=1",
                         "-o", "reference.refine_factor=16", "--out", str(out)])
        assert code == 1
        assert "sweep K 8 is repeated" in capsys.readouterr().err
        assert not (out / "conv_time.csv").exists()

    def test_conv_time_rejects_a_filter_under_two_labels(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli_main(["conv-time", "-o", "problem.kappa=0", "-o", "sweep.K=8",
                         "-o", "sweep.tau=0.25,0.125,0.0625", "-o", "time.T=1",
                         "-o", "sweep.filters=hl,sinc:0", "--out", str(out)])
        assert code == 1
        assert "sweep filter sinc:0 is repeated (as hl)" in capsys.readouterr().err
        assert not out.exists()

    def test_conv_time_labels_close_sinc_filters_apart(self, tmp_path):
        # six significant digits cannot tell these two c apart
        out = tmp_path / "out"
        code = cli_main(["conv-time", "-o", "sweep.K=8", "-o", "sweep.tau=0.25 0.125 0.0625",
                         "-o", "time.T=1", "-o", "sweep.filters=sinc:2,sinc:2.0000001",
                         "-o", "reference.refine_factor=4", "--out", str(out)])
        assert code == 0
        with open(out / "conv_time.csv") as fh:
            labels = [row["filter"] for row in csv.DictReader(fh)]
        assert sorted(labels) == ["sinc:2"] * 3 + ["sinc:2.0000001"] * 3

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.name)
    def test_shipped_config_runs(self, tmp_path, capsys, path):
        # shrunk only through keys the file sets, so each of its keys is still read
        command, overrides = SHIPPED_CONFIGS[path.name]
        assert {o.split("=", 1)[0] for o in overrides} <= set(load_config(str(path), []))
        args = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        for o in overrides:
            args += ["-o", o]
        assert cli_main(args) == 0
        assert "did not read config keys" not in capsys.readouterr().err

    def test_sinc_needs_its_parameter_in_the_kind(self, tmp_path, capsys):
        # sinc's c is spelled only as filter.kind = sinc:<c>
        out = tmp_path / "out"
        code = cli_main(["simulate", "-o", "problem.kappa=0", "-o", "grid.K=8",
                         "-o", "time.tau=0.25", "-o", "time.T=0.5", "-o", "filter.kind=sinc",
                         "-o", "filter.c=3", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: unknown filter 'sinc' (expected impulse|hl|gh|sinc:<c>)\n")
        assert not out.exists()

    def test_override_flag(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "problem.kappa = 0\ngrid.K = 8\ntime.tau = 0.25\n"
            "time.T = 1\nfilter.kind = sinc:2\n"
        )
        out = tmp_path / "out"
        code = cli_main(
            ["simulate", "--config", str(cfg), "--out", str(out), "-o", "time.T=0.5"]
        )
        assert code == 0
        with open(out / "trajectory.csv") as fh:
            assert len(fh.read().strip().splitlines()) == 4

    def test_conv_space_linear(self, tmp_path, capsys):
        cfg = tmp_path / "space.cfg"
        cfg.write_text(
            "problem.kappa = 0\nsweep.K = 4 8 16\nsweep.tau = 0.125\n"
            "time.T = 0.5\nsweep.filters = sinc:2\ngrid.K_ref = 64\n"
        )
        out = tmp_path / "out"
        code = cli_main(["conv-space", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "conv_space.csv").exists()
        assert "order" in capsys.readouterr().out

    def test_conv_space_prints_spatial_order(self, tmp_path, capsys):
        # a spatial series runs over K at one (filter, tau): the shipped config
        # prints one sinc:2 line, whose order is the log-log fit of its CSV
        out = tmp_path / "out"
        code = cli_main(["conv-space", "--config", str(CONFIG_DIR / "conv_space.cfg"),
                         "--out", str(out)])
        assert code == 0
        lines = [line.split() for line in capsys.readouterr().out.splitlines() if "order=" in line]
        assert [line[:2] for line in lines] == [["sinc:2", "tau=0.001"]]
        order = float(lines[0][lines[0].index("order=") + 1])
        with open(out / "conv_space.csv") as fh:
            rows = [ConvergenceRow(r["filter"], int(r["K"]), float(r["tau"]), float(r["err_h2h1"]),
                                   r["status"]) for r in csv.DictReader(fh)]
        assert [r.K for r in rows] == [16, 32, 64, 128]
        assert order == round(estimate_spatial_order(rows).slope, 3) == 2.970

    def test_energy_check_quick(self, tmp_path, capsys):
        cfg = tmp_path / "en.cfg"
        cfg.write_text(
            "problem.kappa = 1\ngrid.K = 8\n"
            "time.tau = 0.001\nfilter.kind = sinc:2\nenergy.probes = 8\n"
        )
        out = tmp_path / "out"
        code = cli_main(["energy-check", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert os.path.exists(out / "energy_margins.csv")
        assert "exact eigenvalue margin" in capsys.readouterr().out

    def test_energy_check_fails_on_negative_exact_margin(self, tmp_path, capsys):
        # hl at tau*K = 3.2: every sampled probe stays positive, but the
        # exact margin, the minimum over all probes, is negative
        out = tmp_path / "out"
        code = cli_main(["energy-check", "-o", "problem.kappa=0.5", "-o", "grid.K=16",
                         "-o", "time.tau=0.2", "-o", "filter.kind=hl", "--out", str(out)])
        text = capsys.readouterr().out
        worst = float(re.search(r"worst Rayleigh margin vs delta/8: (\S+)", text).group(1))
        exact = float(re.search(r"exact eigenvalue margin vs delta/8 \(cross-check\): (\S+)",
                                text).group(1))
        assert worst > 0.0 > exact
        assert code == 2
        assert os.path.exists(out / "energy_margins.csv")

    def test_energy_check_rejects_negative_probe_count(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli_main(["energy-check", "-o", "grid.K=8", "-o", "energy.probes=-1",
                         "--out", str(out)])
        assert code == 1
        assert "probes must be >= 0" in capsys.readouterr().err
        assert not os.path.exists(out / "energy_margins.csv")

    def test_local_error_quick(self, tmp_path, capsys):
        cfg = tmp_path / "le.cfg"
        cfg.write_text(
            "problem.kappa = 0.01\ngrid.K = 64\n"
            "filter.kind = sinc:2\nlocal.tau = 0.0625 0.03125 0.015625\n"
            "reference.refine_factor = 16\n"
        )
        out = tmp_path / "out"
        code = cli_main(["local-error", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert "one-step order" in capsys.readouterr().out

    @pytest.mark.parametrize("taus,message", [
        ("0.0625 0.0625 0.03125 0.015625", "local.tau 0.0625 is repeated"),
        ("0.0625 -0.03125 0.015625", "tau must be positive, got -0.03125"),
    ])
    def test_local_error_checks_steps_before_running(self, tmp_path, capsys, monkeypatch,
                                                     taus, message):
        # a repeated step would rerun and count twice in the order fit
        calls = []
        monkeypatch.setattr(cli, "local_error", lambda *args: calls.append(args))
        out = tmp_path / "out"
        code = cli_main(["local-error", "-o", "grid.K=8", "-o", f"local.tau={taus}",
                         "--out", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert calls == [] and not out.exists()

    def test_local_error_failing_step_writes_nothing(self, tmp_path, monkeypatch):
        def local_error(problem, state, tau, *rest):
            if tau < 0.05:
                raise ConfigurationError(f"step {tau} failed")
            return tau**3

        monkeypatch.setattr(cli, "local_error", local_error)
        out = tmp_path / "out"
        code = cli_main(["local-error", "-o", "grid.K=8", "--out", str(out)])
        assert code == 1
        assert not (out / "local_error.csv").exists()
