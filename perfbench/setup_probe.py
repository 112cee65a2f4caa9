"""Set-up probe: import omsim and build every item's protocol instance or
overlay graph, in a fresh process; prints the CPU seconds that took.

    python3 perfbench/setup_probe.py <workload> <workload seed>
"""

import os
import sys
import time

start = time.process_time()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402  (imports omsim, which the set-up time includes)

for item in workloads.items(sys.argv[1], int(sys.argv[2])):
    workloads.build(item)
print(time.process_time() - start)
