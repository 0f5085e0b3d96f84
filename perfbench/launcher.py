"""Spawns program processes on behalf of the benchmark and times them.

A process's peak RSS as `os.wait4` reports it includes the peak of the
parent it was spawned from, so a benchmark holding a large instance
would inflate every reading.  This small process spawns the program
instead.  It reads one JSON request per line on stdin,
`{"argv": [...], "stdout": path, "stderr": path}`, and answers each with
`{"rc": exit code, "seconds": wall time, "maxrss_kb": peak RSS,
"probe": [...]}`.

It also runs the CPU speed probe (see probe.py) from start to end.
`probe` holds the probe units that ran while the program did.  The
request `{"probe": true}` is answered with `{"probe": [...]}`, the units
recorded since the previous request.  It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time

import probe


def main() -> int:
    background = probe.Background()
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("probe"):
            sys.stdout.write(json.dumps({"probe": background.take()}) + "\n")
            sys.stdout.flush()
            continue
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            background.take()
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
            units = background.take()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "rc": proc.returncode,
            "seconds": seconds,
            "maxrss_kb": usage.ru_maxrss,
            "probe": units,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
