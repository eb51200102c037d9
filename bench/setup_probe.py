"""Time one set-up of a workload in this fresh process.

    python3 bench/setup_probe.py <workload> <workdir>

Prints the seconds from importing gentlekit through loading (parsing and
validating) every input that run.py wrote to <workdir>.  run.py starts it
several times and reports the median as setup_s.
"""

import json
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(workload, workdir):
    sys.path.insert(0, SRC)
    import workloads        # stdlib only: gentlekit is imported below
    wl = workloads.WORKLOADS[workload]
    start = perf_counter()
    import gentlekit        # noqa: F401  (timed)
    with open(os.path.join(workdir, "inputs.json")) as fh:
        inputs = [workloads.Input.from_json(d) for d in json.load(fh)]
    wl.load(inputs, workdir)
    print("%.9f" % (perf_counter() - start))


if __name__ == "__main__":
    main(*sys.argv[1:3])
