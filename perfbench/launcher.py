"""Starts benchmark children from a small process and reports their rusage.

Linux keeps a process's peak RSS across fork and exec, so a child forked
straight from the benchmark parent, which holds the corpus and the oracle,
would report the parent's peak. This launcher is started while the parent
is still small and stays small.

Protocol, one JSON line each way: a request ``{"argv": [...], "stderr":
path}``, answered with ``{"pid": n}`` once the child is running and with
``{"code": exit_code, "maxrss_kb": ru_maxrss}`` once ``os.wait4`` has
reaped it. The child inherits the launcher's working directory and
environment. End of input ends the launcher.
"""

import json
import os
import subprocess
import sys


def _reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "wb") as err:
            proc = subprocess.Popen(request["argv"], stdout=subprocess.DEVNULL, stderr=err)
        _reply({"pid": proc.pid})
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        _reply({"code": proc.returncode, "maxrss_kb": usage.ru_maxrss})


if __name__ == "__main__":
    main()
