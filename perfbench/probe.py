"""Set-up time of one workload, measured in a fresh process.

    python3 perfbench/probe.py <workload> <work-dir>

Prints the seconds spent importing subindex (CLI included) plus building the
workload's fixed objects; the benchmark's own module import is not counted.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = time.perf_counter()
import subindex.cli  # noqa: E402

t1 = time.perf_counter()
import workloads  # noqa: E402

t2 = time.perf_counter()
workloads.setup(sys.argv[1], sys.argv[2])
t3 = time.perf_counter()
print(repr((t1 - t0) + (t3 - t2)))
