"""Set-up of one workload in a fresh interpreter: import lefgroup, build the
workload's set-up, print ``ready``.  run.py times this for ``setup_s``.

    python3 perfbench/setup_probe.py invariants
"""

import sys

import workloads

if __name__ == "__main__":
    workloads.WORKLOADS[sys.argv[1]].setup()
    print("ready", flush=True)
