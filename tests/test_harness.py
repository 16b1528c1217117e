import csv
import math
import os

import numpy as np
import pytest

from qlwave.cli import cli_main
from qlwave.exceptions import ConfigurationError, DivergenceError, EstimationError, NormGuardError
from qlwave.filters import grimm_hochbruck, hairer_lubich, impulse, sinc_c
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
from qlwave.spectral import embed


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

    def test_empty_lists(self):
        with pytest.raises(ConfigurationError):
            linear_plan(K_list=[])


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

    def test_guard_cells_recorded_not_fatal(self):
        # tiny per-cell guard: every cell reports guard status, the sweep
        # and its reference still complete
        plan = ExperimentPlan(
            problem=model_problem(0.01),
            K_list=[8],
            tau_list=[0.5, 0.25, 0.125],
            T=2.0,
            filters=[sinc_c(2.0)],
            max_norm=1e-300,
        )
        rows = run_convergence_time(plan, ReferenceConfig(refine_factor=2, self_check_rtol=np.inf))
        assert all(r.status == "guard" for r in rows)

    def test_batched_rows_equal_per_cell_evolve(self):
        # kappa = 1, K = 256, T = 1/2: hl trips the guard at tau = 2^-6 and
        # 2^-7 beside ok rows; each stacked row must equal its cell run
        # alone through evolve, error and status alike
        plan = ExperimentPlan(
            problem=model_problem(1.0), K_list=[256], tau_list=[2.0**-6, 2.0**-7], T=0.5,
            filters=[sinc_c(2.0), sinc_c(3.0), hairer_lubich(), grimm_hochbruck()],
        )
        # a coarse reference: its accuracy is not what is compared here
        ref_cfg = ReferenceConfig(refine_factor=2, self_check_rtol=np.inf)
        rows = run_convergence_time(plan, ref_cfg)
        state0 = StatePair(*power_law_initial_data(256))
        ref = reference_solution(plan.problem, state0, plan.T, ref_cfg, tau_min=2.0**-7)
        expected = []
        for spec in plan.filters:
            for tau in plan.tau_list:
                cfg = IntegratorConfig(tau=tau, K=256, filter=spec, max_norm=plan.max_norm,
                                       admissibility_policy="ignore")
                try:
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
            cfg = IntegratorConfig(tau=2.0**-5, K=K, filter=spec, admissibility_policy="ignore")
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

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value line\n")
        code = cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1

    def test_missing_required_key(self, tmp_path):
        cfg = tmp_path / "partial.cfg"
        cfg.write_text("problem.name = linear\n")
        code = cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1

    def test_simulate_and_trajectory(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "problem.name = linear\nproblem.kappa = 0\ngrid.K = 8\n"
            "time.tau = 0.25\ntime.n_steps = 8\nfilter.kind = sinc:2\n"
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
               observer=lambda n, t, s: expected.append(_fmt(s.norm(1.0))))
        assert [line.split(",")[2] for line in lines[1:]] == expected

    @pytest.mark.parametrize("every", ["0", "-3"])
    def test_simulate_rejects_nonpositive_every(self, tmp_path, capsys, every):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "problem.name = linear\ngrid.K = 8\ntime.tau = 0.25\n"
            "time.n_steps = 8\nfilter.kind = sinc:2\n"
        )
        out = tmp_path / "out"
        code = cli_main(
            ["simulate", "--config", str(cfg), "--out", str(out), "-o", f"output.every={every}"]
        )
        assert code == 1
        assert "every" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("tau,message", [("0.3", "T/tau must be an integer"),
                                             ("0", "tau must be positive")])
    def test_simulate_rejects_bad_step_count(self, tmp_path, capsys, tau, message):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"problem.name = linear\ngrid.K = 8\ntime.T = 1\ntime.tau = {tau}\n")
        out = tmp_path / "out"
        code = cli_main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    def test_simulate_divergence_exit_code(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "problem.name = model\nproblem.kappa = 1\ngrid.K = 8\n"
            "time.tau = 0.25\ntime.n_steps = 400\nfilter.kind = impulse\n"
            "guard.max_norm = 1e-6\n"
        )
        code = cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 3

    def test_simulate_divergence_reported_once_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli_main(["simulate", "-o", "problem.name=model", "-o", "problem.kappa=1",
                         "-o", "grid.K=8", "-o", "time.tau=0.25", "-o", "time.T=100",
                         "-o", "filter.kind=impulse", "-o", "guard.max_norm=1e-6",
                         "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("diverged: norm guard tripped at step 1 (t=0.25): |state| = ")
        assert err.count("\n") == 1 and err.endswith(" > 1.000e-06\n")
        assert not (out / "trajectory.csv").exists()

    def test_simulate_rejects_conflicting_horizon(self, tmp_path, capsys):
        # T/tau = 10 steps; an n_steps that disagrees is an error, one that agrees runs
        base = ["simulate", "-o", "problem.name=linear", "-o", "grid.K=8", "-o", "time.tau=0.1",
                "-o", "time.T=1", "--out"]
        out = tmp_path / "out"
        assert cli_main(base + [str(out), "-o", "time.n_steps=3"]) == 1
        assert "time.n_steps=3 conflicts with time.T=1" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()
        assert cli_main(base + [str(out), "-o", "time.n_steps=10"]) == 0
        assert "steps=10" in capsys.readouterr().out

    def test_unread_config_keys_named_on_stderr(self, tmp_path, capsys):
        base = ["simulate", "-o", "problem.name=linear", "-o", "grid.K=8", "-o", "time.tau=0.25",
                "-o", "time.T=1", "--out"]
        assert cli_main(base + [str(tmp_path / "a")]) == 0
        assert capsys.readouterr().err == ""
        # a misspelled key and one simulate has no use for: same run, one stderr line
        code = cli_main(base + [str(tmp_path / "b"), "-o", "filter.knd=hl",
                                "-o", "sweep.K=4"])
        assert code == 0
        captured = capsys.readouterr()
        assert "filter=sinc:2" in captured.out
        assert captured.err == "warning: simulate did not read config keys: filter.knd, sweep.K\n"
        assert ((tmp_path / "a" / "trajectory.csv").read_bytes()
                == (tmp_path / "b" / "trajectory.csv").read_bytes())

    @pytest.mark.parametrize("value,code", [("ture", 1), ("yess", 1), ("TRUE", 0), ("No", 0),
                                            ("0", 0)])
    def test_cross_check_takes_only_booleans(self, tmp_path, capsys, value, code):
        args = ["conv-time", "-o", "problem.name=linear", "-o", "sweep.K=4",
                "-o", "sweep.tau=0.5 0.25 0.125", "-o", "time.T=1",
                "-o", "reference.refine_factor=2", "-o", f"reference.cross_check={value}",
                "--out", str(tmp_path / "out")]
        assert cli_main(args) == code
        if code:
            assert f"reference.cross_check={value!r} is not" in capsys.readouterr().err

    def test_conv_time_linear(self, tmp_path, capsys):
        cfg = tmp_path / "conv.cfg"
        cfg.write_text(
            "problem.name = linear\nsweep.K = 8\nsweep.tau = 0.5 0.25 0.125\n"
            "time.T = 2\nsweep.filters = sinc:2\nreference.refine_factor = 4\n"
        )
        out = tmp_path / "out"
        code = cli_main(["conv-time", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        with open(out / "conv_time.csv") as fh:
            reader = csv.DictReader(fh)
            errs = [float(row["err_h2h1"]) for row in reader]
        assert all(e <= 1e-11 for e in errs)

    def test_separate_filter_c_key(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "problem.name = linear\ngrid.K = 8\ntime.tau = 0.25\n"
            "time.n_steps = 2\nfilter.kind = sinc\nfilter.c = 3\n"
        )
        code = cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0

    def test_override_flag(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "problem.name = linear\ngrid.K = 8\ntime.tau = 0.25\n"
            "time.n_steps = 4\nfilter.kind = sinc:2\n"
        )
        out = tmp_path / "out"
        code = cli_main(
            ["simulate", "--config", str(cfg), "--out", str(out), "-o", "time.n_steps=2"]
        )
        assert code == 0
        with open(out / "trajectory.csv") as fh:
            assert len(fh.read().strip().splitlines()) == 4

    def test_conv_space_linear(self, tmp_path, capsys):
        cfg = tmp_path / "space.cfg"
        cfg.write_text(
            "problem.name = linear\nsweep.K = 4 8 16\nsweep.tau = 0.125\n"
            "time.T = 0.5\nsweep.filters = sinc:2\ngrid.K_ref = 64\n"
        )
        out = tmp_path / "out"
        code = cli_main(["conv-space", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "conv_space.csv").exists()
        assert "order" in capsys.readouterr().out

    def test_energy_check_quick(self, tmp_path, capsys):
        cfg = tmp_path / "en.cfg"
        cfg.write_text(
            "problem.name = model\nproblem.kappa = 1\ngrid.K = 8\n"
            "time.tau = 0.001\nfilter.kind = sinc:2\nenergy.probes = 8\n"
        )
        out = tmp_path / "out"
        code = cli_main(["energy-check", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert os.path.exists(out / "energy_margins.csv")
        assert "exact eigenvalue margin" in capsys.readouterr().out

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
            "problem.name = model\nproblem.kappa = 0.01\ngrid.K = 64\n"
            "filter.kind = sinc:2\nlocal.tau = 0.0625 0.03125 0.015625\n"
            "reference.refine_factor = 16\n"
        )
        out = tmp_path / "out"
        code = cli_main(["local-error", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert "one-step order" in capsys.readouterr().out
