"""The benchmark's workloads: what one run executes and how its output is checked.

Each workload is a closed loop with one client: the next solution is asked
for only when the previous one is complete.  The sweeps and the simulation
start from the paper's fixed initial data; the seed drives the energy
workload's random probes, error fields and perturbations.

Importing this module puts the ``src`` directory next to the benchmark at
the front of ``sys.path``, so the benchmark always measures the qlwave
source tree it ships with.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import qlwave  # noqa: E402
import qlwave.cli  # noqa: E402

# Sweep cells that are ok must reproduce the expected error to this
# relative tolerance; statuses must match exactly.  Evaluating the product
# on a 3K+1 grid instead of 4K+1 moves the most sensitive cell (gh, K=512,
# tau=2^-8) by 2e-7, so a tolerance of 1e-5 admits rounding-level changes.
SWEEP_RTOL = 1e-5
# The sinc:2 methods are second order; the trimmed small-kappa sweep fits
# 1.77 because its largest steps are pre-asymptotic.
ORDER_BAND = (1.7, 2.2)
# The simulate trajectory norm must reproduce the expected table to this.
SIM_RTOL = 1e-8
# Acceptance tolerances of criteria 6-8.
MARGIN_MIN = 0.0
IDENTITY_TOL = 1e-11
CHANGE_TOL = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "conv-time", "simulate" or "energy"

    @property
    def config_path(self) -> Path:
        return BENCH_DIR / "configs" / f"{self.name}.cfg"

    @property
    def expected_path(self) -> Path:
        return BENCH_DIR / "expected" / f"{self.name}.json"


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("conv_time_small_kappa", "conv-time"),
        Workload("conv_time_nonsmall_kappa", "conv-time"),
        Workload("energy_check", "energy"),
        Workload("simulate_long", "simulate"),
    )
}


@dataclass
class Outcome:
    """Checked result of one run: operations attempted and the failures."""

    attempted: int
    failures: list[str] = field(default_factory=list)


def load_config(wl: Workload, overrides=()) -> dict[str, str]:
    return qlwave.cli.load_config(str(wl.config_path), list(overrides))


def _state(K: int):
    u0, ud0 = qlwave.power_law_initial_data(K)
    return qlwave.StatePair(u0, ud0)


def prepare(wl: Workload) -> None:
    """Everything up to the first integrator step: parse, build inputs, build the engine.

    ``evolve`` with zero steps builds the step engine (and runs its
    admissibility check) without stepping.
    """
    cfg = load_config(wl)
    problem = qlwave.model_problem(float(cfg["problem.kappa"]))
    if wl.kind == "conv-time":
        Ks = [int(k) for k in cfg["sweep.K"].split()]
        tau_ref = min(float(t) for t in cfg["sweep.tau"].split()) / int(
            cfg["reference.refine_factor"]
        )
        states = {K: _state(K) for K in Ks}
        icfg = qlwave.IntegratorConfig(tau=tau_ref, K=Ks[0], filter=qlwave.sinc_c(2.0))
        qlwave.evolve(states[Ks[0]], problem, icfg, 0)
    else:
        K = int(cfg["grid.K"])
        spec = qlwave.parse_filter(cfg["filter.kind"])
        icfg = qlwave.IntegratorConfig(tau=float(cfg["time.tau"]), K=K, filter=spec)
        qlwave.evolve(_state(K), problem, icfg, 0)


# -- one run -----------------------------------------------------------


def _cli(args: list[str]) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return qlwave.cli.cli_main(args)


def _random_field(rng: np.random.Generator, K: int, scale: float, decay: float):
    c = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
    c = 0.5 * (c + np.conj(c[::-1]))
    w = np.sqrt(np.arange(-K, K + 1, dtype=float) ** 2 + 1.0)
    return qlwave.SpectralField(scale * c * w ** (-decay))


def _energy_run(cfg: dict[str, str], seed: int) -> list[dict[str, float]]:
    kappa = float(cfg["problem.kappa"])
    K = int(cfg["grid.K"])
    problem = qlwave.model_problem(kappa)
    # The energy-change identity holds for the quasilinear part alone (g == 0).
    quasilinear = qlwave.ProblemSpec(kappa=kappa, a=problem.a, g=None, name="quasilinear-only")
    icfg = qlwave.IntegratorConfig(
        tau=float(cfg["time.tau"]), K=K, filter=qlwave.parse_filter(cfg["filter.kind"])
    )
    state = _state(K)
    values = []
    for i in range(int(cfg["energy.snapshots"])):
        state = qlwave.evolve(state, problem, icfg, int(cfg["energy.snapshot_every"]))
        rng = np.random.default_rng([seed, i])
        margin = qlwave.energy.positivity_check(
            state.u, problem, icfg, n_samples=int(cfg["energy.probes"]), rng=rng
        )
        e, edot = _random_field(rng, K, 1.0, 3.0), _random_field(rng, K, 1.0, 2.0)
        rep = qlwave.energy.energy_report(
            e, edot, state.u, problem, icfg, n_probes=int(cfg["energy.report_probes"]), rng=rng
        )
        other = qlwave.StatePair(
            state.u + _random_field(rng, K, 0.1, 3.0), state.udot + _random_field(rng, K, 0.1, 2.0)
        )
        change = qlwave.energy.energy_change_residual(state, other, quasilinear, icfg)
        values.append(
            {
                "margin": margin,
                "report_margin": rep.positivity_margin,
                "identity_residual": rep.identity_residual,
                "change_residual": change,
            }
        )
    return values


OUTPUT_FILE = {"conv-time": "conv_time.csv", "simulate": "trajectory.csv"}


def run_once(wl: Workload, seed: int, out_dir: str, overrides=()):
    """One solution of the workload; returns what `check` needs.

    For the CLI workloads that is the exit code, with the output file in
    ``out_dir``; for the energy workload it is the measured residuals.
    """
    if wl.kind == "energy":
        return _energy_run(load_config(wl, overrides), seed)
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(out_dir, OUTPUT_FILE[wl.kind]))
    args = [wl.kind, "--config", str(wl.config_path), "--out", out_dir]
    for item in overrides:
        args += ["-o", item]
    return _cli(args)


def bytes_written(out_dir: str) -> int:
    return sum(p.stat().st_size for p in Path(out_dir).glob("*") if p.is_file())


# -- checks ------------------------------------------------------------


def read_sweep(path: str) -> list[tuple]:
    with open(path, newline="") as fh:
        return [
            (r["filter"], int(r["K"]), float(r["tau"]), r["status"], float(r["err_h2h1"]))
            for r in csv.DictReader(fh)
        ]


def read_trajectory(path: str) -> list[tuple]:
    with open(path, newline="") as fh:
        return [(int(r["n"]), float(r["t"]), float(r["pair_norm_h2h1"])) for r in csv.DictReader(fh)]


def fitted_order(rows) -> float:
    """Least-squares slope of log(err) against log(tau) over the ok rows."""
    ok = [(tau, err) for _, _, tau, status, err in rows if status == "ok"]
    if len(ok) < 3:
        return math.nan
    tau, err = np.log(np.array(ok)).T
    return float(np.polyfit(tau, err, 1)[0])


def check_sweep(rows, expected: dict) -> Outcome:
    """Compare sweep rows with the expected table, order band and breakdown."""
    out = Outcome(attempted=len(expected["rows"]))
    seen = {(f, K, tau): (status, err) for f, K, tau, status, err in rows}
    for f, K, tau, status, err in expected["rows"]:
        got = seen.pop((f, K, tau), None)
        if got is None:
            out.failures.append(f"{f} K={K} tau={tau}: missing")
        elif got[0] != status:
            out.failures.append(f"{f} K={K} tau={tau}: status {got[0]}, expected {status}")
        elif status == "ok" and not abs(got[1] - err) <= expected["rtol"] * abs(err):
            out.failures.append(f"{f} K={K} tau={tau}: err {got[1]!r}, expected {err!r}")
    for key in seen:
        out.attempted += 1
        out.failures.append(f"{key}: unexpected row")
    lo, hi = expected["order_band"]
    for K in sorted({K for f, K, *_ in expected["rows"] if f == "sinc:2"}):
        out.attempted += 1
        order = fitted_order([r for r in rows if r[0] == "sinc:2" and r[1] == K])
        if not lo <= order <= hi:
            out.failures.append(f"sinc:2 K={K}: fitted order {order:.3f} outside [{lo}, {hi}]")
    if expected.get("breakdown"):
        out.attempted += 1
        f, K = expected["breakdown"]
        if all(status == "ok" for g, k, _, status, _ in rows if g == f and k == K):
            out.failures.append(f"{f} K={K}: no breakdown")
    return out


def check_trajectory(rows, expected: dict) -> Outcome:
    out = Outcome(attempted=len(expected["rows"]))
    if len(rows) > len(expected["rows"]):
        out.attempted += 1
        out.failures.append(f"{len(rows)} trajectory rows, expected {len(expected['rows'])}")
    for i, (en, et, enorm) in enumerate(expected["rows"]):
        got = rows[i] if i < len(rows) else None
        if (
            got is None
            or got[0] != en
            or abs(got[1] - et) > 1e-12 * max(1.0, et)
            or not abs(got[2] - enorm) <= expected["rtol"] * abs(enorm)
        ):
            out.failures.append(f"row n={en}: got {got}, expected norm {enorm!r}")
    return out


def check_energy(values, expected: dict) -> Outcome:
    """Acceptance tolerances on every snapshot; a missing snapshot fails all four."""
    out = Outcome(attempted=4 * expected["snapshots"])
    for i in range(expected["snapshots"]):
        if i >= len(values):
            out.failures += [f"snapshot {i}: missing"] * 4
            continue
        v = values[i]
        if not v["margin"] >= MARGIN_MIN:
            out.failures.append(f"snapshot {i}: positivity margin {v['margin']:.3e} < 0")
        if not v["report_margin"] >= MARGIN_MIN:
            out.failures.append(f"snapshot {i}: report margin {v['report_margin']:.3e} < 0")
        if not v["identity_residual"] <= IDENTITY_TOL:
            out.failures.append(f"snapshot {i}: identity residual {v['identity_residual']:.3e}")
        if not v["change_residual"] <= CHANGE_TOL:
            out.failures.append(f"snapshot {i}: energy-change residual {v['change_residual']:.3e}")
    return out


def load_expected(wl: Workload) -> dict:
    if wl.kind == "energy":
        return {"snapshots": int(load_config(wl)["energy.snapshots"])}
    with open(wl.expected_path) as fh:
        return json.load(fh)


def check(wl: Workload, result, out_dir: str, expected: dict) -> Outcome:
    """Check one run's output; ``result`` is None when the run raised.

    A failed command produces no rows, so every operation counts as failed.
    """
    if wl.kind == "energy":
        return check_energy(result or [], expected)
    path = os.path.join(out_dir, OUTPUT_FILE[wl.kind])
    if wl.kind == "conv-time":
        return check_sweep(read_sweep(path) if result == 0 else [], expected)
    return check_trajectory(read_trajectory(path) if result == 0 else [], expected)
