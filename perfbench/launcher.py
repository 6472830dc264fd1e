"""Start jobs one at a time from a small process and report each one's resources.

The max-RSS that wait4 reports for a child is never below the RSS of the
process that forked it, so jobs are forked from this small interpreter
(started with -S) rather than from the benchmark process.

One JSON request per line on stdin: {"argv", "cwd", "stdout", "stderr"}, where
stdout and stderr are files the job writes.  One JSON reply per line on
stdout: {"status", "wall_s", "cpu_s", "maxrss_kb"}.  End of input ends it.
The environment of every job is this process's environment.
"""

import json
import os
import sys
import time


def start(req: dict) -> int:
    pid = os.fork()
    if pid:
        return pid
    try:
        os.chdir(req["cwd"])
        for fd, path, flags in ((0, os.devnull, os.O_RDONLY),
                                (1, req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC),
                                (2, req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC)):
            f = os.open(path, flags, 0o644)
            os.dup2(f, fd)
            os.close(f)
        os.execv(req["argv"][0], req["argv"])
    finally:
        os._exit(127)


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        begin = time.perf_counter()
        _, status, usage = os.wait4(start(req), 0)
        reply = {
            "status": os.waitstatus_to_exitcode(status),
            "wall_s": time.perf_counter() - begin,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
