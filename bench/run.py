"""qlwave benchmark: one workload, measured for a fixed time, outputs checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the benchmark measures the ``src`` tree next
to it.  Each run repeats the workload (a closed loop, one client) while
another repetition fits in ``--seconds`` and reports medians over the
repetitions.  With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json, set-up time measured in fresh interpreters first.  With
``--trace 1`` it alternates untraced and traced repetitions and reports the
per-layer metrics, the tracing overhead among them.  The last line of
standard output is the JSON result; the run environment, every sample and
the spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5


def _metric_units() -> dict[str, dict[str, str]]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {
        key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")
    }


def _setup_seconds(name: str) -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), name],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qlwave").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, threads: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": threads,
        "QLWAVE_THREADS": os.environ["QLWAVE_THREADS"],
        "machine": platform.machine(),
    }


def run_loop(wl, args, expected, out_dir: str, trace: bool):
    """Repeat the workload while another repetition fits in args.seconds.

    With ``trace`` every second repetition runs traced, and the loop runs
    at least one of each kind.  Returns the samples and the instruments of
    the traced repetitions.
    """
    import workloads
    from spans import Instrument

    samples, instruments = [], []
    start = time.perf_counter()
    while True:
        traced = trace and len(samples) % 2 == 1
        with Instrument(trace=traced, run_id=len(samples)) as inst:
            t0 = time.perf_counter()
            try:
                result = workloads.run_once(wl, args.seed, out_dir)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                result = None
            wall = time.perf_counter() - t0
        outcome = workloads.check(wl, result, out_dir, expected)
        for msg in outcome.failures[:5]:
            print(f"FAIL {wl.name}: {msg}", file=sys.stderr)
        samples.append(
            {
                "traced": traced,
                "wall_s": wall,
                "steps": inst.steps,
                "attempted": outcome.attempted,
                "failed": len(outcome.failures),
            }
        )
        if traced:
            if wl.kind != "energy":
                inst.add("cli.bytes_written", workloads.bytes_written(out_dir))
            instruments.append(inst)
        elapsed = time.perf_counter() - start
        predicted = statistics.median(s["wall_s"] for s in samples)
        if len(samples) >= 1 + trace and elapsed + predicted > args.seconds:
            return samples, instruments


def end_to_end(samples, setup) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "steps_per_s": statistics.median(s["steps"] / s["wall_s"] for s in samples),
        "checks_per_s": statistics.median(s["attempted"] / s["wall_s"] for s in samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0
        - sum(s["failed"] for s in samples) / max(1, sum(s["attempted"] for s in samples)),
    }


def per_layer(samples, instruments, threads: int) -> dict[str, float]:
    from spans import layer_metrics

    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"]]
    per_run = [layer_metrics(inst, s["wall_s"], threads) for inst, s in zip(instruments, traced)]
    out = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    out["trace.overhead_frac"] = (
        statistics.median(s["wall_s"] for s in traced)
        / statistics.median(s["wall_s"] for s in plain)
        - 1.0
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qlwave" / "__init__.py").is_file():
        print(f"error: no qlwave source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = _metric_units()
    threads = len(os.sched_getaffinity(0))
    os.environ["QLWAVE_THREADS"] = str(threads)

    import workloads

    if Path(workloads.qlwave.__file__).resolve().parent != ROOT / "src" / "qlwave":
        print(f"error: qlwave imported from {workloads.qlwave.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    env = environment(args, threads)
    print("env " + json.dumps(env), flush=True)
    expected = workloads.load_expected(wl)
    out_dir = str(OUT / wl.name)
    os.makedirs(out_dir, exist_ok=True)

    if args.trace:
        samples, instruments = run_loop(wl, args, expected, out_dir, trace=True)
        metrics = per_layer(samples, instruments, threads)
        wanted = units["per_layer"]
        from spans import write_spans

        write_spans(instruments, str(OUT / f"{wl.name}.spans.jsonl"))
    else:
        setup = [_setup_seconds(wl.name) for _ in range(SETUP_PROBES)]
        samples, _ = run_loop(wl, args, expected, out_dir, trace=False)
        metrics = end_to_end(samples, setup)
        wanted = units["end_to_end"]
    if set(metrics) != set(wanted):
        print(f"error: metrics {sorted(set(metrics) ^ set(wanted))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 2

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": wanted[name]} for name in wanted},
    }
    with open(OUT / f"{wl.name}.trace{args.trace}.seed{args.seed}.json", "w") as fh:
        json.dump({"env": env, "samples": samples, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
