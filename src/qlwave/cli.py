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
import os
import sys

import numpy as np

from . import filters as flt
from .energy import identity_residual, positivity_certificate
from .exceptions import (
    ConfigurationError,
    DivergenceError,
    EstimationError,
    PreconditionError,
    QlwaveError,
)
from .harness import (
    ConvergenceRow,
    ExperimentPlan,
    estimate_order,
    estimate_spatial_order,
    rows_by_series,
    run_convergence_space,
    run_convergence_time,
    write_rows_csv,
    _FIT_MIN_ROWS,
    _FIT_MIN_SPAN,
    _fmt,
    _require_distinct,
    _write_csv,
)
from .integrator import IntegratorConfig, StatePair, _n_steps, _require_positive_tau, evolve
from .problem import model_problem, power_law_initial_data
from .reference import ReferenceConfig, local_error
from .spectral import SpectralField, half_pair_norm

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


def _read(cfg, key: str, parse, default=None):
    """parse(value) of a config key, or parse(default) if it is unset; no default: required."""
    text = cfg[key] if key in cfg else default
    if text is None:
        raise QlwaveError(f"missing required config key {key!r}")
    try:
        return parse(text)
    except ValueError as exc:
        raise QlwaveError(f"bad config value {key} = {text!r}: {exc}") from None


def _floats(text: str) -> list[float]:
    return [float(t) for t in text.replace(",", " ").split()]


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.replace(",", " ").split()]


def _filters(text: str) -> list[flt.FilterSpec]:
    return [flt.parse_filter(t) for t in text.split(",")]


def _problem_from(cfg):
    return model_problem(_read(cfg, "problem.kappa", float, "0.01"))


def _filter_from(cfg):
    return _read(cfg, "filter.kind", flt.parse_filter, "sinc:2")


def _ref_cfg_from(cfg) -> ReferenceConfig:
    return ReferenceConfig(
        refine_factor=_read(cfg, "reference.refine_factor", int, ReferenceConfig.refine_factor)
    )


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _write_sweep(args, rows: list[ConvergenceRow], name: str, spatial: bool = False) -> int:
    """Write a sweep's CSV to the output directory and print its order table."""
    path = _out_path(args, name)
    write_rows_csv(rows, path)
    print(f"wrote {path} ({len(rows)} rows)")
    held, fixed = ("tau", "tau={:<8g}") if spatial else ("K", "K={:<5d}")
    groups = rows_by_series(rows, held)
    width = max([10, *(len(label) for label, _ in groups)])
    for (label, value), series in sorted(groups.items()):
        where = f"{label:>{width}s}  {fixed.format(value)}"
        try:
            est = estimate_spatial_order(series) if spatial else estimate_order(series)
            print(f"{where} order={est.slope:6.3f}  R^2={est.r_squared:.5f}")
        except EstimationError as exc:
            print(f"{where} order=n/a ({exc})")
    return EXIT_OK


# -- subcommands -------------------------------------------------------


def cmd_simulate(args) -> int:
    """One trajectory; trajectory.csv holds its H^2 x H^1 norm by half_pair_norm's parseval_sums."""
    cfg = args.cfg
    problem = _problem_from(cfg)
    K = _read(cfg, "grid.K", int)
    tau = _read(cfg, "time.tau", float)
    n_steps = _n_steps(_read(cfg, "time.T", float), tau)
    spec = _filter_from(cfg)
    icfg = IntegratorConfig(tau=tau, K=K, filter=spec)
    state = StatePair(*power_law_initial_data(K))
    rows = [(0, 0.0, state.norm(1.0))]
    every = _read(cfg, "output.every", int, "1")

    def observer(n, t, u, ud):
        rows.append((n, t, half_pair_norm(u[K:], ud[K:], 1.0)))

    final = evolve(state, problem, icfg, n_steps, observer=observer, every=every)
    # evolve rejects every < 1 before it runs, and a failed run makes no directory
    path = _out_path(args, "trajectory.csv")
    _write_csv(path, ("n", "t", "pair_norm_h2h1"), ((n, _fmt(t), _fmt(x)) for n, t, x in rows))
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
        K_list=_read(cfg, "sweep.K", _ints),
        tau_list=_read(cfg, "sweep.tau", _floats),
        T=_read(cfg, "time.T", float),
        filters=_read(cfg, "sweep.filters", _filters, "sinc:2"),
    )


def cmd_conv_time(args) -> int:
    plan = _plan_from(args.cfg)
    rows = run_convergence_time(plan, _ref_cfg_from(args.cfg))
    return _write_sweep(args, rows, "conv_time.csv")


def cmd_conv_space(args) -> int:
    plan = _plan_from(args.cfg)
    K_ref = _read(args.cfg, "grid.K_ref", int)
    return _write_sweep(args, run_convergence_space(plan, K_ref), "conv_space.csv", spatial=True)


def cmd_filter_check(args) -> int:
    spec = flt.parse_filter(args.filter)
    report = flt.check_assumptions(spec, delta=args.delta, a0=args.A0)
    c = "" if spec.c is None else f"c={spec.c:g} "
    print(f"filter {spec.label}: {c}c0={spec.c0:g}")
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
    K = _read(cfg, "grid.K", int, "32")
    tau = _read(cfg, "time.tau", float, "1e-3")
    spec = _filter_from(cfg)
    n_probes = _read(cfg, "energy.probes", int, "200")
    icfg = IntegratorConfig(tau=tau, K=K, filter=spec)
    u0, _ = power_law_initial_data(K)

    try:
        rep, probes, exact = positivity_certificate(u0, problem, icfg, n_probes)
    except PreconditionError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CHECK_FAILED
    worst = min(margin for _, margin in probes)
    path = _out_path(args, "energy_margins.csv")
    _write_csv(path, ("probe", "margin"), ((label, _fmt(margin)) for label, margin in probes))

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
    # the exact margin is the minimum over every probe, the sampled ones included
    ok = worst >= 0.0 and exact >= 0.0 and resid <= 1e-11
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_local_error(args) -> int:
    cfg = args.cfg
    problem = _problem_from(cfg)
    K = _read(cfg, "grid.K", int, "64")
    spec = _filter_from(cfg)
    taus = _read(cfg, "local.tau", _floats, "0.0625 0.03125 0.015625 0.0078125")
    for tau in taus:
        _require_positive_tau(tau)
    _require_distinct("local.tau", taus)
    # the order fit needs them all, so a short list fails before any reference runs
    if len(taus) < _FIT_MIN_ROWS or max(taus) < _FIT_MIN_SPAN * min(taus):
        raise ConfigurationError(
            f"local.tau needs >= {_FIT_MIN_ROWS} steps spanning at least a factor of "
            f"{_FIT_MIN_SPAN:g} for the order fit, got {taus}")
    ref_cfg = _ref_cfg_from(cfg)
    u0, ud0 = power_law_initial_data(K)
    state = StatePair(u0, ud0)

    # every row before the file, so a failing step or fit leaves none
    rows = [ConvergenceRow(spec.label, K, tau, local_error(problem, state, tau, spec, ref_cfg))
            for tau in sorted(taus, reverse=True)]
    est = estimate_order(rows)
    path = _out_path(args, "local_error.csv")
    _write_csv(path, ("tau", "err_h2h1"), ((_fmt(r.tau), _fmt(r.err)) for r in rows))
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
