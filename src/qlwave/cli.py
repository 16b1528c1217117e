"""Command-line interface.

Subcommands: simulate, conv-time, conv-space, filter-check, energy-check,
local-error.  Configuration comes from a flat key-value file plus
``-o key=value`` overrides, and one stderr line names the keys a run did
not read; every run writes machine-readable CSV next to a short human
summary.  Exit codes: 0 success, 1 malformed configuration,
2 a check failed, 3 the integration diverged.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import filters as flt
from .energy import identity_residual, positivity_eigen_margin, positivity_probes
from .exceptions import ConfigurationError, DivergenceError, EstimationError, QlwaveError
from .harness import (
    ConvergenceRow,
    ExperimentPlan,
    estimate_order,
    estimate_spatial_order,
    rows_by_series,
    run_convergence_space,
    run_convergence_time,
    write_rows_csv,
    _fmt,
    _n_steps,
)
from .integrator import IntegratorConfig, StatePair, evolve
from .problem import ellipticity_report, linear_problem, model_problem, power_law_initial_data
from .reference import ReferenceConfig, local_error
from .spectral import SpectralField, omega_weights

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CHECK_FAILED = 2
EXIT_DIVERGED = 3


def load_config(path: str | None, overrides: list[str]) -> dict[str, str]:
    """Flat ``key = value`` file plus command-line overrides."""
    cfg: dict[str, str] = {}
    if path is not None:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise QlwaveError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
                key, value = line.split("=", 1)
                cfg[key.strip()] = value.strip()
    for item in overrides:
        if "=" not in item:
            raise QlwaveError(f"override {item!r} must look like key=value")
        key, value = item.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


class _ReadConfig(dict):
    """A command's config that records the keys it looks up with ``in`` or ``[]``."""

    def __init__(self, items):
        super().__init__(items)
        self.read: set[str] = set()

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def _get(cfg, key, default=None, required=False):
    if key in cfg:
        return cfg[key]
    if required:
        raise QlwaveError(f"missing required config key {key!r}")
    return default


def _floats(text: str) -> list[float]:
    return [float(t) for t in text.replace(",", " ").split()]


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.replace(",", " ").split()]


def _problem_from(cfg):
    name = _get(cfg, "problem.name", "model")
    kappa = float(_get(cfg, "problem.kappa", "0.01"))
    if name == "model":
        return model_problem(kappa)
    if name == "linear":
        return linear_problem()
    raise QlwaveError(f"unknown problem.name {name!r} (model|linear)")


def _filter_from(cfg, default="sinc:2"):
    kind = _get(cfg, "filter.kind", default)
    if kind == "sinc" and "filter.c" in cfg:
        kind = f"sinc:{cfg['filter.c']}"
    return flt.parse_filter(kind)


def _ref_cfg_from(cfg) -> ReferenceConfig:
    cross = _get(cfg, "reference.cross_check", "false").lower()
    if cross not in ("1", "true", "yes", "0", "false", "no"):
        raise ConfigurationError(f"reference.cross_check={cross!r} is not 1/0/true/false/yes/no")
    return ReferenceConfig(
        refine_factor=int(_get(cfg, "reference.refine_factor", "64")),
        cross_check=cross in ("1", "true", "yes"),
    )


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _write_sweep(args, rows: list[ConvergenceRow], name: str, spatial: bool = False) -> int:
    """Write a sweep's CSV to the output directory and print its order table."""
    path = _out_path(args, name)
    write_rows_csv(rows, path)
    print(f"wrote {path} ({len(rows)} rows)")
    for (label, K), series in sorted(rows_by_series(rows).items()):
        try:
            est = estimate_spatial_order(series) if spatial else estimate_order(series)
            print(f"{label:>10s}  K={K:<5d} order={est.slope:6.3f}  R^2={est.r_squared:.5f}")
        except EstimationError as exc:
            print(f"{label:>10s}  K={K:<5d} order=n/a ({exc})")
    return EXIT_OK


# -- subcommands -------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = args.cfg
    problem = _problem_from(cfg)
    K = int(_get(cfg, "grid.K", required=True))
    tau = float(_get(cfg, "time.tau", required=True))
    if "time.n_steps" in cfg:
        n_steps = int(cfg["time.n_steps"])
        if "time.T" in cfg and n_steps != _n_steps(float(cfg["time.T"]), tau):
            raise ConfigurationError(f"time.n_steps={n_steps} conflicts with "
                                     f"time.T={cfg['time.T']} and time.tau={tau:g}")
    else:
        n_steps = _n_steps(float(_get(cfg, "time.T", required=True)), tau)
    spec = _filter_from(cfg)
    icfg = IntegratorConfig(
        tau=tau, K=K, filter=spec, max_norm=float(_get(cfg, "guard.max_norm", "1e6"))
    )
    u0, ud0 = power_law_initial_data(K)
    state = StatePair(u0, ud0)

    path = _out_path(args, "trajectory.csv")
    # the H^2 x H^1 weights w^(2s) of pair_norm(u, udot, 1.0), tabulated
    # once; norm() is the same expression, so the CSV keeps its bits
    w = omega_weights(K)
    w_u, w_ud = w ** (2.0 * 2.0), w ** (2.0 * 1.0)

    def norm(s: StatePair) -> float:
        return float(np.hypot(float(np.sqrt(np.sum(w_u * np.abs(s.u.coeffs) ** 2))),
                              float(np.sqrt(np.sum(w_ud * np.abs(s.udot.coeffs) ** 2)))))

    rows = [(0, 0.0, norm(state))]
    every = int(_get(cfg, "output.every", "1"))

    def observer(n, t, s):
        rows.append((n, t, norm(s)))

    final = evolve(state, problem, icfg, n_steps, observer=observer, every=every)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("n", "t", "pair_norm_h2h1"))
        for n, t, norm in rows:
            writer.writerow((n, _fmt(t), _fmt(norm)))
    print(
        f"simulate: {problem.name} kappa={problem.kappa:g} K={K} tau={tau:g} "
        f"steps={n_steps} filter={spec.label}"
    )
    print(f"final |(u, u_t)|_1 = {final.norm(1.0):.12g} (initial {state.norm(1.0):.12g})")
    print(f"wrote {path}")
    return EXIT_OK


def _plan_from(cfg) -> ExperimentPlan:
    return ExperimentPlan(
        problem=_problem_from(cfg),
        K_list=_ints(_get(cfg, "sweep.K", required=True)),
        tau_list=_floats(_get(cfg, "sweep.tau", required=True)),
        T=float(_get(cfg, "time.T", required=True)),
        filters=[flt.parse_filter(t) for t in _get(cfg, "sweep.filters", "sinc:2").split(",")],
        max_norm=float(_get(cfg, "guard.max_norm", "1e6")),
    )


def cmd_conv_time(args) -> int:
    plan = _plan_from(args.cfg)
    rows = run_convergence_time(plan, _ref_cfg_from(args.cfg))
    return _write_sweep(args, rows, "conv_time.csv")


def cmd_conv_space(args) -> int:
    plan = _plan_from(args.cfg)
    K_ref = int(_get(args.cfg, "grid.K_ref", required=True))
    return _write_sweep(args, run_convergence_space(plan, K_ref), "conv_space.csv", spatial=True)


def cmd_filter_check(args) -> int:
    spec = flt.parse_filter(args.filter)
    report = flt.check_assumptions(spec, delta=args.delta, a0=args.A0)
    print(f"filter {spec.label}: c0={spec.c0:g}")
    print(f"  bounds (|phi|<=1, quadratic closeness): {'pass' if report.assumption1_ok else 'FAIL'}")
    print(f"  sinc compatibility psi1 = sinc*phi:     {'pass' if report.assumption2_ok else 'FAIL'}")
    print(
        f"  damping A0*sin^2(xi/2)*phi^2 <= 1-delta: {'pass' if report.assumption3_ok else 'FAIL'}"
        f"  (margin {report.worst_margin:.6g} at xi={report.worst_xi:.6g})"
    )
    print(f"  smallest admissible sinc parameter c:   {flt.min_c_for(args.A0, args.delta):.6g}")
    return EXIT_OK if report.all_ok else EXIT_CHECK_FAILED


def cmd_energy_check(args) -> int:
    cfg = args.cfg
    problem = _problem_from(cfg)
    K = int(_get(cfg, "grid.K", "32"))
    tau = float(_get(cfg, "time.tau", "1e-3"))
    spec = _filter_from(cfg)
    n_probes = int(_get(cfg, "energy.probes", "200"))
    icfg = IntegratorConfig(tau=tau, K=K, filter=spec)
    u0, _ = power_law_initial_data(K)

    rep = ellipticity_report(problem, u0)
    if rep.hyperbolicity_lost:
        print(f"hyperbolicity lost: min 1 + kappa*a(u) = {rep.delta_est:.3e}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    delta = rep.delta_est

    probes = positivity_probes(u0, problem, icfg, n_probes, delta)
    path = _out_path(args, "energy_margins.csv")
    worst = np.inf
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("probe", "margin"))
        for label, margin in probes:
            worst = min(worst, margin)
            writer.writerow((label, _fmt(margin)))
    exact = positivity_eigen_margin(u0, problem, icfg, delta)

    rng = np.random.default_rng(7)
    resid = 0.0
    for _ in range(16):
        c = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
        e = SpectralField(0.5 * (c + np.conj(c[::-1])))
        resid = max(resid, identity_residual(e, u0, problem, icfg))

    print(f"energy-check: {problem.name} kappa={problem.kappa:g} K={K} tau={tau:g} "
          f"filter={spec.label}")
    print(f"  ellipticity: delta_est={rep.delta_est:.6g} A0_est={rep.A0_est:.6g}")
    print(f"  worst Rayleigh margin vs delta/8: {worst:.6g}")
    print(f"  exact eigenvalue margin vs delta/8 (cross-check): {exact:.6g}")
    print(f"  energy/operator identity residual: {resid:.3e}")
    print(f"  wrote {path}")
    ok = worst >= 0.0 and resid <= 1e-11
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_local_error(args) -> int:
    cfg = args.cfg
    problem = _problem_from(cfg)
    K = int(_get(cfg, "grid.K", "64"))
    spec = _filter_from(cfg)
    taus = _floats(_get(cfg, "local.tau", "0.0625 0.03125 0.015625 0.0078125"))
    ref_cfg = _ref_cfg_from(cfg)
    u0, ud0 = power_law_initial_data(K)
    state = StatePair(u0, ud0)

    path = _out_path(args, "local_error.csv")
    rows = []
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("tau", "err_h2h1"))
        for tau in sorted(taus, reverse=True):
            err = local_error(problem, state, tau, K, spec, ref_cfg)
            rows.append(ConvergenceRow(spec.label, K, tau, err))
            writer.writerow((_fmt(tau), _fmt(err)))
    est = estimate_order(rows)
    print(f"local-error: K={K} filter={spec.label} kappa={problem.kappa:g}")
    print(f"  one-step order {est.slope:.3f} (R^2={est.r_squared:.5f})")
    print(f"  wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlwave",
        description="Trigonometric integrators for 1-D periodic quasilinear wave equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("-o", "--override", action="append", default=[],
                       help="override a config key: -o key=value")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")

    common(sub.add_parser("simulate", help="run one trajectory"))
    common(sub.add_parser("conv-time", help="temporal convergence sweep"))
    common(sub.add_parser("conv-space", help="spatial convergence sweep"))
    common(sub.add_parser("energy-check", help="energy positivity and identity margins"))
    common(sub.add_parser("local-error", help="one-step error vs tau"))

    pf = sub.add_parser("filter-check", help="sampled filter admissibility check")
    pf.add_argument("--filter", required=True, help="impulse | hl | gh | sinc:<c>")
    pf.add_argument("--A0", type=float, required=True, help="amplitude bound")
    pf.add_argument("--delta", type=float, required=True, help="hyperbolicity margin in (0,1)")
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "conv-time": cmd_conv_time,
    "conv-space": cmd_conv_space,
    "filter-check": cmd_filter_check,
    "energy-check": cmd_energy_check,
    "local-error": cmd_local_error,
}


def cli_main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.cfg = _ReadConfig(load_config(args.config, args.override) if "config" in args else {})
        code = _COMMANDS[args.command](args)
    except DivergenceError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (QlwaveError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    unread = sorted(set(args.cfg) - args.cfg.read)
    if unread:
        print(f"warning: {args.command} did not read config keys: {', '.join(unread)}",
              file=sys.stderr)
    return code


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
