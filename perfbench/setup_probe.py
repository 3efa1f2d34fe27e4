"""Set-up probe: import hymem and build one workload's inputs, then exit.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints ``time.perf_counter()`` once the inputs are built.  That clock is
CLOCK_MONOTONIC, shared by all processes, so run.py subtracts the reading it
took just before starting this process: the set-up time covers interpreter
start, ``import hymem`` (numpy and scipy), and building the system,
certificate and initial history.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]](int(sys.argv[2]))
    print(repr(time.perf_counter()))
