"""Tests of the benchmark's own code: span arithmetic, the correctness gate
and the coverage of the traced run."""

import json
import math
import shutil
import subprocess
import sys
import time

import workloads as w
import run
from spans import Instrument, layer_metrics, self_times

# Per-layer metrics the traced run must report on every workload.
NAMED = [
    "integrator.evolve.calls", "integrator.evolve.steps", "integrator.step.calls",
    "integrator.failed_runs",
    *(f"integrator.us_per_step.K{K}" for K in (32, 64, 128, 256, 512)),
    "spectral.synthesize_values.calls", "spectral.coeffs_from_samples.calls",
    "spectral.transform_points", "spectral.fft_bytes_computed",
    "spectral.dealiased_product.calls", "spectral.dealiased_product.s",
    "harness.sweep_s", "harness.reference_phase_s", "harness.pool_phase_s",
    "harness.cell_wait_s", "harness.pool_busy_frac", "harness.cells", "harness.cells_ok_frac",
    "reference.calls", "reference.s", "reference.steps", "reference.share",
    "filters.check_assumptions.calls", "filters.check_assumptions.s",
    "energy.positivity_check.s", "energy.apply_l_operator.calls",
    "energy.apply_l_operator.us_per_call", "energy.u_term.calls", "energy.energy_report.s",
    "energy.energy_change_residual.s",
    "problem.ellipticity_report.calls", "problem.ellipticity_report.s",
    "problem.power_law_initial_data.calls", "problem.power_law_initial_data.s",
    "cli.self_s", "cli.bytes_written", "trace.overhead_frac",
]

TINY = {
    "conv_time_small_kappa": [
        "time.T=0.5", "sweep.K=32", "sweep.tau=0.25 0.125 0.0625", "reference.refine_factor=2",
    ],
    "energy_check": [
        "grid.K=8", "energy.probes=4", "energy.report_probes=2", "energy.snapshots=1",
        "energy.snapshot_every=3",
    ],
    "simulate_long": ["time.T=1", "grid.K=16"],
}


def test_self_time_subtracts_merged_child_coverage():
    spans = [
        (0, "root", 0.0, 10.0, None, 0, None),
        (1, "a", 1.0, 5.0, 0, 0, None),
        (2, "b", 2.0, 3.0, 0, 0, None),  # inside a, as on a pool
        (3, "c", 4.0, 6.0, 0, 0, None),  # overlaps a
        (4, "d", 8.0, 12.0, 0, 0, None),  # runs past its parent
        (5, "a1", 2.0, 3.5, 1, 0, None),
    ]
    own = self_times(spans)
    assert own[0] == 10.0 - (6.0 - 1.0) - (10.0 - 8.0)
    assert own[1] == 4.0 - 1.5
    assert own[2] == 1.0 and own[3] == 2.0 and own[4] == 4.0 and own[5] == 1.5


def _expected_rows(expected):
    return [(f, K, tau, s, math.nan if err is None else err) for f, K, tau, s, err in expected["rows"]]


def test_perturbed_expected_row_counts_in_failed_frac():
    expected = w.load_expected(w.WORKLOADS["conv_time_nonsmall_kappa"])
    rows = _expected_rows(expected)
    assert w.check_sweep(rows, expected).failures == []

    i = next(i for i, r in enumerate(rows) if r[3] == "ok")
    f, K, tau, status, err = rows[i]
    off = rows[:i] + [(f, K, tau, status, err * (1 + 10 * expected["rtol"]))] + rows[i + 1:]
    outcome = w.check_sweep(off, expected)
    assert len(outcome.failures) == 1

    sample = {"traced": False, "wall_s": 1.0, "steps": 1, "attempted": outcome.attempted,
              "failed": len(outcome.failures)}
    ok_frac = run.end_to_end([sample], [0.5])["ok_frac"]
    assert ok_frac == 1.0 - 1.0 / outcome.attempted

    flipped = rows[:i] + [(f, K, tau, "guard", math.nan)] + rows[i + 1:]
    assert len(w.check_sweep(flipped, expected).failures) == 1


def test_expected_breakdown_and_failed_command_count_as_failures():
    wl = w.WORKLOADS["conv_time_nonsmall_kappa"]
    expected = w.load_expected(wl)
    healed = [(f, K, tau, "ok", 1e-3) if f == "hl" else (f, K, tau, s, err)
              for f, K, tau, s, err in _expected_rows(expected)]
    assert any("no breakdown" in m for m in w.check_sweep(healed, expected).failures)

    outcome = w.check(wl, 1, "unused", expected)
    assert len(outcome.failures) == outcome.attempted > len(expected["rows"])


def test_traced_run_reports_every_named_per_layer_metric(tmp_path):
    with open(w.ROOT / "BENCHMARK.json") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(NAMED) <= declared

    results = {}
    for name, overrides in TINY.items():
        wl = w.WORKLOADS[name]
        with Instrument(trace=True) as inst:
            t0 = time.perf_counter()
            w.run_once(wl, 0, str(tmp_path), overrides)
            wall = time.perf_counter() - t0
        if wl.kind != "energy":
            inst.add("cli.bytes_written", w.bytes_written(str(tmp_path)))
        results[name] = layer_metrics(inst, wall, threads=2)
        assert set(results[name]) | {"trace.overhead_frac"} == declared

    sweep, energy, sim = (results[n] for n in TINY)
    assert sweep["harness.cells"] == 12 and sweep["harness.pool_phase_s"] > 0
    assert sweep["reference.calls"] == 1 and sweep["reference.steps"] > 0
    assert sweep["integrator.us_per_step.K32"] > 0
    assert sweep["spectral.transform_points"] > 0
    assert energy["energy.apply_l_operator.calls"] > 0 and energy["integrator.step.calls"] == 2
    assert energy["problem.ellipticity_report.calls"] > 0
    assert sim["integrator.evolve.steps"] == 20 and sim["cli.bytes_written"] > 0
    assert sim["harness.cells"] == 0


def test_exits_nonzero_without_source_tree(tmp_path):
    shutil.copytree(w.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(w.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "energy_check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
