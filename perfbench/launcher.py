"""Starts the benchmark's child processes from a process that stays small.

On Linux a child's peak RSS, as os.wait4 reports it, is at least the
resident size its spawner had when it forked: the high-water mark of
the address space the child starts from survives exec. Children started
straight from the benchmark, which holds the library and the outputs it
checks, would all read as large as the benchmark. So the benchmark
starts this script once, at a bare interpreter's size, and has it start
every measured child.

Protocol: one JSON request per line on stdin, with "argv", "cwd",
"stdout", "stderr" (file paths) and "timeout" (seconds); one JSON reply
per line on stdout, with "wall_s" (spawn to reap), "cpu_s", "rss_kb" and
"code". The script exits at end of input.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
        "code": proc.returncode,
    }


def main() -> None:
    # Terminated mid-request: unwind through run(), which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
