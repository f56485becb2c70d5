"""Start the benchmark's CLI stages from a small helper process.

Linux carries the spawning process's RSS high-water mark into the child's
`ru_maxrss` across fork and exec. A stage started from the benchmark process
(numpy, scipy, the package and the generated inputs in memory) would report
at least that much. This helper starts before the benchmark loads any of
them, so a stage's reported peak is its own.

Protocol: one JSON request per line on stdin, {"cmd", "cwd", "env", "log"};
one JSON reply per line on stdout, {"code", "wall_s", "maxrss_kb"}. The
helper exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "ab") as log:
            started = time.perf_counter()
            proc = subprocess.Popen(request["cmd"], cwd=request["cwd"], env=request["env"],
                                    stdout=log, stderr=log)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
