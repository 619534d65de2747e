"""The numeric side of the harness, in a process of its own.

    python3 perfbench/helper.py      (src on PYTHONPATH; one JSON request per stdin line)

Requests are ``{"op": "kernel"}``, answered with the calibration kernel's
time in seconds, and ``{"op": "oracle", "workload": NAME, "config": CFG}``,
answered with that workload's oracle values.  Each answer is one JSON line.

This keeps numpy, scipy and ``mlq`` out of the harness process.  Linux
counts the peak RSS of the process that calls exec into the new program's
``ru_maxrss``, so a harness that had imported them would raise the
``peak_rss_mb`` of every command it starts to its own 80 MB.
"""

import json
import sys

import calibration
import workloads


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        if req["op"] == "kernel":
            answer = calibration.kernel_s()
        else:
            answer = workloads.WORKLOADS[req["workload"]].oracle(req["config"])
        print(json.dumps(answer), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
