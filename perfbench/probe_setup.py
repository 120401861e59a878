"""Time one set-up of a workload in a fresh interpreter, then its reference
kernel, and print both times.

Usage: python3 perfbench/probe_setup.py <workload> <seed> <sizes>

The clock starts before ``imexlmm`` (and with it numpy) is imported and
stops once the workload's inputs, scheme tables and certificates are built.
The kernel is then timed three times and the median printed after the set-up
time, so that the caller can scale the set-up to reference seconds.
"""

import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (imports imexlmm from the checkout's src)

wl = workloads.setup(sys.argv[1], int(sys.argv[2]), workloads.SIZES[sys.argv[3]])
setup_s = time.perf_counter() - t0

import speed  # noqa: E402

kernel = speed.KERNELS[wl.KERNEL]()
print(repr(setup_s), repr(kernel.median_time(3)))
