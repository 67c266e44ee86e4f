"""Print the seconds a fresh process takes to set up one workload.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is importing knotmorse, generating the inputs from the seed and
building every diagram; the interpreter's own start is not counted.  The
time is scaled to the reference speed like the workload's (see speed.py).
"""

import sys
from pathlib import Path

import speed

clock = speed.SpeedClock()
with clock:
    start = clock.read()
    import workloads

    km = workloads.import_package(Path(__file__).resolve().parent.parent)
    workloads.WORKLOADS[sys.argv[1]](km, int(sys.argv[2]))
    end = clock.read()
print(clock.scaled(start, end))
