"""Time one workload's set-up in a fresh interpreter and print the seconds.

Usage: python3 perfbench/setup_probe.py <workload> <src-dir>

The clock starts before `import quatbox` (which imports NumPy) and stops
once the workload's shared objects are built; the bare interpreter start is
not counted, because the package cannot change it.
"""

import sys
import time

start = time.perf_counter()
workload, src = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)

import setups  # noqa: E402

setups.build(workload)
print(repr(time.perf_counter() - start))
