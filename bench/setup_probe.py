"""Time one workload set-up in a fresh interpreter and print the seconds.

Set-up is importing qlwave (with numpy and scipy), parsing the workload's
config and building its inputs and step engine, up to the first step.

    python3 bench/setup_probe.py <workload>
"""

import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (the import is part of what is timed)

workloads.prepare(workloads.WORKLOADS[sys.argv[1]])
print(time.perf_counter() - t0)
