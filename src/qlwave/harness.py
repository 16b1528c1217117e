"""Experiment orchestration: both convergence sweeps through one cell loop
(``_sweep``), order fits of one series each, and one writer (``_write_csv``)
for every CSV qlwave writes."""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from . import filters as flt
from .exceptions import ConfigurationError, DivergenceError, EstimationError, NormGuardError
from .integrator import IntegratorConfig, StatePair, _evolve_stack, _integer, _n_steps
from .problem import ProblemSpec, power_law_initial_data
from .reference import ReferenceConfig, error_h2h1, reference_solution

STATUS_OK = "ok"
STATUS_DIVERGED = "diverged"
STATUS_GUARD = "guard"

CSV_HEADER = ("filter", "K", "tau", "err_h2h1", "status")


@dataclass(frozen=True)
class ExperimentPlan:
    """One convergence study: problem, degrees, steps, horizon, filters."""

    problem: ProblemSpec
    K_list: Sequence[int]
    tau_list: Sequence[float]
    T: float
    filters: Sequence[flt.FilterSpec]

    def __post_init__(self):
        if not self.K_list or not self.tau_list or not self.filters:
            raise ConfigurationError("K, tau and filter lists must be non-empty")
        for K in self.K_list:
            if _integer("sweep K", K) < 1:
                raise ConfigurationError(f"sweep K {K} must be >= 1")
        for tau in self.tau_list:
            _n_steps(self.T, tau)
        _require_distinct("sweep K", self.K_list)
        _require_distinct("sweep tau", self.tau_list)
        # one c is one filter, whatever its label: hl is sinc:0, gh is sinc:1
        _require_distinct("sweep filter", [spec.label for spec in self.filters],
                          [spec.c for spec in self.filters])


@dataclass(frozen=True)
class ConvergenceRow:
    """One sweep cell: error at the final time, or its failure mode."""

    filter: str
    K: int
    tau: float
    err: float
    status: str = STATUS_OK


def _require_distinct(name: str, values: Sequence, keys: Sequence | None = None) -> None:
    """Reject a value whose key (by default the value) repeats an earlier one's.

    A repeated value would run twice and count twice in an order fit.
    """
    keys = list(values if keys is None else keys)
    for i, key in enumerate(keys):
        if key in keys[:i]:
            first = values[keys.index(key)]
            also = "" if first == values[i] else f" (as {first})"
            raise ConfigurationError(f"{name} {values[i]} is repeated{also}")


def _initial_state(K: int) -> StatePair:
    u0, ud0 = power_law_initial_data(K)
    return StatePair(u0, ud0)


def _run_filters(plan: ExperimentPlan, K: int, tau: float) -> list:
    """Outcomes of every filter of the plan at one (K, tau), run as one stack.

    Each outcome is the final state at plan.T or the DivergenceError that
    stopped the run.
    """
    cfgs = [IntegratorConfig(tau=tau, K=K, filter=spec) for spec in plan.filters]
    return _evolve_stack(_initial_state(K), plan.problem, cfgs, _n_steps(plan.T, tau))


def _run_cell(spec: flt.FilterSpec, K: int, tau: float, outcome,
              ref: StatePair) -> ConvergenceRow:
    """The sweep row of one cell from its run's outcome (see _run_filters).

    A finished run is measured against ref by error_h2h1, which zero-extends
    it to the reference degree.
    """
    if isinstance(outcome, NormGuardError):
        return ConvergenceRow(spec.label, K, tau, math.nan, STATUS_GUARD)
    if isinstance(outcome, DivergenceError):
        return ConvergenceRow(spec.label, K, tau, math.nan, STATUS_DIVERGED)
    err = error_h2h1(outcome, ref)
    return ConvergenceRow(spec.label, K, tau, err, STATUS_OK)


def _sweep(plan: ExperimentPlan, reference) -> list[ConvergenceRow]:
    """Every cell's row, by (filter, K, tau); filter i at K is measured against reference(K, i)."""
    rows = []
    for K in plan.K_list:
        for tau in sorted(plan.tau_list):
            outcomes = _run_filters(plan, K, tau)
            rows += [_run_cell(spec, K, tau, out, reference(K, i))
                     for i, (spec, out) in enumerate(zip(plan.filters, outcomes))]
    return sorted(rows, key=lambda r: (r.filter, r.K, r.tau))


def run_convergence_time(
    plan: ExperimentPlan, ref_cfg: ReferenceConfig = ReferenceConfig()
) -> list[ConvergenceRow]:
    """Temporal convergence study: error vs tau against a same-degree reference.

    All filters at one (K, tau) advance together as one stacked run; rows
    are ordered by (filter, K, tau), and divergent cells are recorded
    rather than fatal.
    """
    tau_min = min(plan.tau_list)
    references: dict[int, StatePair] = {}
    for K in plan.K_list:
        references[K] = reference_solution(
            plan.problem, _initial_state(K), plan.T, ref_cfg, tau_min=tau_min
        )
    return _sweep(plan, lambda K, i: references[K])


def run_convergence_space(plan: ExperimentPlan, K_ref: int) -> list[ConvergenceRow]:
    """Spatial convergence study against a high-degree reference run.

    Uses the single (small) tau of the plan for every degree; each run is
    zero-extended to the reference degree and compared in the full
    H^2 x H^1 norm, so the resolved-tail truncation error is part of the
    measurement.  The per-filter references, and all filters at each
    degree, advance as one stacked run each.
    """
    if K_ref < 4 * max(plan.K_list):
        raise ConfigurationError(
            f"reference degree {K_ref} must be >= 4x the largest degree {max(plan.K_list)}"
        )
    if len(plan.tau_list) != 1:
        raise ConfigurationError("spatial sweeps use exactly one (small) tau")
    tau = plan.tau_list[0]

    references = _run_filters(plan, K_ref, tau)
    for ref in references:
        if isinstance(ref, DivergenceError):
            raise ref
    return _sweep(plan, lambda K, i: references[i])


@dataclass(frozen=True)
class OrderEstimate:
    """Least-squares slope of log(err) vs log(x) and the fit's R^2."""

    slope: float
    r_squared: float


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> OrderEstimate:
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    fit = slope * lx + intercept
    ss_res = float(np.sum((ly - fit) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return OrderEstimate(slope=float(slope), r_squared=r2)


# an order fit needs this many usable rows, spanning at least this factor
_FIT_MIN_ROWS = 3
_FIT_MIN_SPAN = 4.0


def _fit_usable(rows: Sequence[ConvergenceRow], name: str, held: str) -> OrderEstimate:
    """Log-log fit of err against the row field ``name`` (tau or K); see estimate_order."""
    series = sorted(rows_by_series(rows, held))
    if len(series) > 1:
        raise EstimationError(f"rows mix {len(series)} (filter, {held}) series: {series}")
    ok = [r for r in rows if r.status == STATUS_OK and r.err > 0 and math.isfinite(r.err)]
    if len(ok) < _FIT_MIN_ROWS:
        raise EstimationError(f"need >= {_FIT_MIN_ROWS} usable rows, got {len(ok)}")
    x = np.array([getattr(r, name) for r in ok], dtype=float)
    err = np.array([r.err for r in ok])
    if np.max(x) / np.min(x) < _FIT_MIN_SPAN:
        raise EstimationError(f"{name} range must span at least a factor of {_FIT_MIN_SPAN:g}")
    return _loglog_fit(x, err)


def estimate_order(rows: Sequence[ConvergenceRow]) -> OrderEstimate:
    """Temporal order from the ok rows of one (filter, K) series.

    Needs at least 3 usable rows spanning at least a factor 4 in tau;
    rows with non-ok status or non-positive error are excluded, and rows
    of more than one series raise EstimationError.
    """
    return _fit_usable(rows, "tau", "K")


def estimate_spatial_order(rows: Sequence[ConvergenceRow]) -> OrderEstimate:
    """Spatial order (positive for decaying error) of one (filter, tau) series."""
    fit = _fit_usable(rows, "K", "tau")
    return replace(fit, slope=-fit.slope)


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def write_rows_csv(rows: Sequence[ConvergenceRow], path: str) -> None:
    """Emit sweep rows with a stable ordering and 17-significant-digit floats."""
    ordered = sorted(rows, key=lambda r: (r.filter, r.K, r.tau))
    _write_csv(path, CSV_HEADER,
               ([r.filter, r.K, _fmt(r.tau), _fmt(r.err), r.status] for r in ordered))


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows to path, making its directory; every CSV qlwave writes."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def rows_by_series(rows: Sequence[ConvergenceRow], held: str = "K") -> dict[tuple, list]:
    """Group rows by (filter, K), or by (filter, tau) with held="tau"."""
    series: dict[tuple, list[ConvergenceRow]] = {}
    for r in rows:
        series.setdefault((r.filter, getattr(r, held)), []).append(r)
    return series
