"""Instrumentation of qlwave's layers from outside the package.

`Instrument` replaces the functions of the qlwave modules at every module
attribute through which a caller resolves them (for example
``qlwave.harness.evolve`` and ``qlwave.reference.evolve`` both point at
``qlwave.integrator.evolve``), and restores the originals on exit.

Untraced, only ``evolve`` and ``step`` are replaced, by wrappers that count
the integrator steps a run takes.  Traced, every public function of the
eight layers is replaced: most record a span, while the functions called
inside the step loop or once per probe only count calls, so that the trace
stays small and cheap.  A span is ``(id, name, start, end, parent, run id,
info)``; spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import collections
import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time

import qlwave.cli  # noqa: F401  (the package does not import its CLI)
from qlwave.exceptions import DivergenceError

LAYERS = ("spectral", "filters", "problem", "integrator", "energy", "reference", "harness", "cli")

# Called per step or per probe: counted, never spanned.  In spectral that is
# every function except dealiased_product.
COUNTED_FILTERS = {"sinc", "phi", "psi1", "default_xi_grid"}
# The one private function that is a layer boundary: a sweep cell.
CELL = "harness._run_cell"

TRACE_KS = (32, 64, 128, 256, 512)

# Transform length of each call to the two FFT cores.
TRANSFORMS = {
    "spectral.synthesize_values": lambda coeffs, n: n,
    "spectral.coeffs_from_samples": lambda values, degree: values.size,
}


def _fft_bytes(n: int) -> int:
    """Bytes a length-n real FFT reads and writes: n doubles, n//2+1 complex."""
    return 8 * n + 16 * (n // 2 + 1)


class Instrument:
    """Context manager that patches qlwave for one run of a workload."""

    def __init__(self, trace: bool, run_id: int = 0):
        self.trace = trace
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._events: collections.Counter = collections.Counter()
        self._logs: dict[str, list[int]] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patched: list[tuple] = []

    # -- patching ------------------------------------------------------

    def __enter__(self) -> "Instrument":
        self._local.stack = self._main_stack
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"qlwave.{layer}"]
            for name, fn in vars(module).items():
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrapper_for(layer, name, fn)
                if wrapper is not None:
                    wrappers[id(fn)] = (fn, wrapper)
        for modname, module in list(sys.modules.items()):
            if modname != "qlwave" and not modname.startswith("qlwave."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrapper_for(self, layer, name, fn):
        qual = f"{layer}.{name}"
        if qual == "integrator.evolve":
            return self._evolve_wrapper(qual, fn)
        if qual == "integrator.step":
            return self._step_wrapper(qual, fn)
        if not self.trace:
            return None
        if name.startswith("_") and qual != CELL:
            return None
        if (
            (layer == "spectral" and name != "dealiased_product")
            or (layer == "filters" and name in COUNTED_FILTERS)
            or inspect.isgeneratorfunction(fn)
        ):
            return self._count_wrapper(qual, fn)
        return self._span_wrapper(qual, fn)

    # -- wrappers ------------------------------------------------------

    @property
    def counts(self) -> collections.Counter:
        """Event counters plus the calls and transform sizes of counted functions."""
        total = collections.Counter(self._events)
        for qual, log in self._logs.items():
            total[qual + ".calls"] = len(log)
            if qual in TRANSFORMS:
                total["spectral.transform_points"] += sum(log)
                total["spectral.fft_bytes_computed"] += sum(map(_fft_bytes, log))
        return total

    def add(self, key: str, value=1) -> None:
        with self._lock:
            self._events[key] += value

    def _count_wrapper(self, qual, fn):
        # list.append is atomic, so pool threads can log without a lock.
        log = self._logs[qual] = []
        size = TRANSFORMS.get(qual)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log.append(size(*args, **kwargs) if size is not None else 0)
            return fn(*args, **kwargs)

        return wrapper

    def _open(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # A worker thread: its spans belong to the span the main thread
            # is blocked in (the sweep that submitted the work).
            stack = self._local.stack = []
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def _close(self, stack, sid, parent, qual, t0, info=None):
        t1 = time.perf_counter()
        stack.pop()
        self.spans.append((sid, qual, t0, t1, parent, self.run_id, info))

    def _span_wrapper(self, qual, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, sid, parent = self._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(stack, sid, parent, qual, t0)
            if qual == CELL and result.status == "ok":
                self.add("harness.cells_ok")
            return result

        return wrapper

    def _evolve_wrapper(self, qual, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            n_steps, K = bound.arguments["n_steps"], bound.arguments["cfg"].K
            if self.trace:
                stack, sid, parent = self._open()
            t0 = time.perf_counter()
            steps, failed = n_steps, False
            try:
                return fn(*args, **kwargs)
            except DivergenceError as exc:
                steps, failed = (exc.step or 0), True
                raise
            finally:
                with self._lock:
                    self._events["integrator.evolve.calls"] += 1
                    self._events["integrator.evolve.steps"] += steps
                    self._events["integrator.failed_runs"] += failed
                if self.trace:
                    self._close(stack, sid, parent, qual, t0, (K, steps))

        return wrapper

    def _step_wrapper(self, qual, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add("integrator.step.calls")
            if not self.trace:
                return fn(*args, **kwargs)
            stack, sid, parent = self._open()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(stack, sid, parent, qual, t0)

        return wrapper

    @property
    def steps(self) -> int:
        """Integrator steps taken: evolve's steps plus single step() calls."""
        return self.counts["integrator.evolve.steps"] + self.counts["integrator.step.calls"]


# -- analysis ----------------------------------------------------------


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of its interval child spans cover.

    Children may overlap (cells running on a pool), so their intervals are
    clipped to the parent and merged before they are subtracted.
    """
    children = collections.defaultdict(list)
    for sid, _, t0, t1, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _, t0, t1, _, _, _ in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, t0), min(hi, t1)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (t1 - t0) - covered
    return out


def layer_metrics(inst: Instrument, wall_s: float, threads: int) -> dict[str, float]:
    """Per-layer metrics of one traced run (zero where a layer did not run)."""
    spans, counts = inst.spans, inst.counts
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    calls = collections.Counter(s[1] for s in spans)
    total = collections.defaultdict(float)
    for s in spans:
        total[s[1]] += s[3] - s[2]

    def has_ancestor(s, name):
        parent = s[4]
        while parent is not None:
            p = by_id[parent]
            if p[1] == name:
                return True
            parent = p[4]
        return False

    m: dict[str, float] = {}
    evolves = [s for s in spans if s[1] == "integrator.evolve"]
    m["integrator.evolve.calls"] = counts["integrator.evolve.calls"]
    m["integrator.evolve.steps"] = counts["integrator.evolve.steps"]
    m["integrator.step.calls"] = counts["integrator.step.calls"]
    m["integrator.failed_runs"] = counts["integrator.failed_runs"]
    for K in TRACE_KS:
        runs = [s for s in evolves if s[6][0] == K]
        steps = sum(s[6][1] for s in runs)
        m[f"integrator.us_per_step.K{K}"] = (
            1e6 * sum(s[3] - s[2] for s in runs) / steps if steps else 0.0
        )

    for name in ("synthesize_values", "coeffs_from_samples"):
        m[f"spectral.{name}.calls"] = counts[f"spectral.{name}.calls"]
    m["spectral.transform_points"] = counts["spectral.transform_points"]
    m["spectral.fft_bytes_computed"] = counts["spectral.fft_bytes_computed"]
    m["spectral.dealiased_product.calls"] = calls["spectral.dealiased_product"]
    m["spectral.dealiased_product.s"] = total["spectral.dealiased_product"]

    sweep_s = ref_phase = pool_phase = cell_wait = cell_busy = 0.0
    cells = 0
    for sweep in (s for s in spans if s[1] == "harness.run_convergence_time"):
        kids = [s for s in spans if s[4] == sweep[0]]
        refs = [s for s in kids if s[1] == "reference.reference_solution"]
        runs = [s for s in kids if s[1] == CELL]
        pool_start = max((s[3] for s in refs), default=sweep[2])
        sweep_s += sweep[3] - sweep[2]
        ref_phase += pool_start - sweep[2]
        pool_phase += sweep[3] - pool_start
        cell_wait += sum(s[2] - pool_start for s in runs)
        cell_busy += sum(s[3] - s[2] for s in runs)
        cells += len(runs)
    m["harness.sweep_s"] = sweep_s
    m["harness.reference_phase_s"] = ref_phase
    m["harness.pool_phase_s"] = pool_phase
    m["harness.cell_wait_s"] = cell_wait
    m["harness.pool_busy_frac"] = cell_busy / (pool_phase * threads) if pool_phase else 0.0
    m["harness.cells"] = cells
    m["harness.cells_ok_frac"] = counts["harness.cells_ok"] / cells if cells else 0.0

    ref_s = total["reference.reference_solution"]
    m["reference.calls"] = calls["reference.reference_solution"]
    m["reference.s"] = ref_s
    m["reference.steps"] = sum(
        s[6][1] for s in evolves if has_ancestor(s, "reference.reference_solution")
    )
    m["reference.share"] = ref_s / wall_s

    m["filters.check_assumptions.calls"] = calls["filters.check_assumptions"]
    m["filters.check_assumptions.s"] = total["filters.check_assumptions"]

    n_apply = calls["energy.apply_l_operator"]
    m["energy.positivity_check.s"] = total["energy.positivity_check"]
    m["energy.apply_l_operator.calls"] = n_apply
    m["energy.apply_l_operator.us_per_call"] = (
        1e6 * total["energy.apply_l_operator"] / n_apply if n_apply else 0.0
    )
    m["energy.u_term.calls"] = calls["energy.u_term"]
    m["energy.energy_report.s"] = total["energy.energy_report"]
    m["energy.energy_change_residual.s"] = total["energy.energy_change_residual"]

    for name in ("ellipticity_report", "power_law_initial_data"):
        m[f"problem.{name}.calls"] = calls[f"problem.{name}"]
        m[f"problem.{name}.s"] = total[f"problem.{name}"]

    layer_self = collections.defaultdict(float)
    for s in spans:
        layer_self[s[1].split(".", 1)[0]] += own[s[0]]
    for layer in ("integrator", "harness", "reference", "filters", "energy", "problem", "cli"):
        m[f"{layer}.self_s"] = layer_self[layer]
    m["cli.bytes_written"] = counts["cli.bytes_written"]
    m["trace.spans"] = len(spans)
    return m


def write_spans(instruments, path: str) -> None:
    """Write the spans of several runs as one JSON array per line."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        for inst in instruments:
            for sid, name, t0, t1, parent, run, info in inst.spans:
                fh.write(json.dumps([run, sid, name, t0, t1, parent, info]) + "\n")
