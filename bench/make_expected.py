"""Regenerate the expected-output tables in bench/expected/.

    python3 bench/make_expected.py [workload ...]

Runs each sweep and simulation workload once and stores its rows with the
tolerances the check applies.  The tables were made at the commit that
added the benchmark; regenerate them only for a change that is meant to
alter the numerical results, and say so with that change.
"""

import json
import os
import sys

import workloads as w


def table(wl: w.Workload, out_dir: str) -> dict:
    rc = w.run_once(wl, 0, out_dir)
    if rc != 0:
        raise SystemExit(f"{wl.name}: exit code {rc}")
    path = os.path.join(out_dir, w.OUTPUT_FILE[wl.kind])
    if wl.kind == "simulate":
        return {"rtol": w.SIM_RTOL, "rows": w.read_trajectory(path)}
    rows = [(f, K, tau, status, err if status == "ok" else None)
            for f, K, tau, status, err in w.read_sweep(path)]
    broken = {(f, K) for f, K, _, status, _ in rows if status != "ok"}
    return {
        "rtol": w.SWEEP_RTOL,
        "order_band": w.ORDER_BAND,
        "breakdown": ["hl", 512] if ("hl", 512) in broken else None,
        "rows": rows,
    }


def main(names) -> None:
    for name in names or [n for n, wl in w.WORKLOADS.items() if wl.kind != "energy"]:
        wl = w.WORKLOADS[name]
        out_dir = str(w.ROOT / ".bench_out" / f"expected-{name}")
        os.makedirs(out_dir, exist_ok=True)
        data = table(wl, out_dir)
        head = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in data.items() if k != "rows"]
        rows = ",\n".join(json.dumps(r) for r in data["rows"])
        with open(wl.expected_path, "w") as fh:
            fh.write("{" + ",\n".join(head) + ',\n"rows": [\n' + rows + "\n]}\n")
        print(f"wrote {wl.expected_path} ({len(data['rows'])} rows)")


if __name__ == "__main__":
    main(sys.argv[1:])
