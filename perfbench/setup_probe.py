"""One benchmark set-up in a fresh interpreter: import ``repro`` and build.

``python3 perfbench/setup_probe.py WORKLOAD SEED JOBS`` builds the
workload's scenario without running it; for ``campaign_cached`` it
resolves the campaign's specs and starts and stops a ``JOBS``-worker
pool.  ``run.py`` times the whole process from outside.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (needs the path above)

if __name__ == "__main__":
    name, seed, jobs = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    if name == "campaign_cached":
        workloads.campaign_setup(jobs)
    else:
        workloads.build_packet(name, seed)
