"""Set-up probe: a fresh process that imports kurepa and generates the
first round's inputs of a workload, then prints the monotonic clock, which
the parent compares with the time it started the process, and the wall time
of the reference loop run after that, which gives the host's speed.

Usage: python3 bench/probe.py <workload> <seed>
"""

import os
import sys
import time

import workloads

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    k = workloads.load_program(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    workloads.WORKLOADS[name](k, seed).inputs(0)
    ready = time.monotonic()
    print(ready, workloads.reference_work())
