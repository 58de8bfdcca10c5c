"""Small process that starts the benchmark's child processes and times them.

Reads one JSON request per line on stdin, ``{"argv": [...], "stderr": PATH,
"cwd": PATH, "env": {...}}``, runs that command to completion and answers
with one JSON line ``{"start", "end", "rss_mb", "code"}`` (``perf_counter``
readings around the command).  Exits at end of input.

Why a separate process: on Linux a child's ``ru_maxrss`` includes the peak
RSS of the process that forked it, so children are started from this small
process rather than from the benchmark itself, whose output checks use far
more memory than some of the commands they check.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    cwd=req["cwd"], env=req["env"])
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"start": start, "end": end, "rss_mb": usage.ru_maxrss / 1024.0,
                 "code": proc.returncode}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
