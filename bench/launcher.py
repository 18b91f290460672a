"""Starts and times the benchmark's job processes, one at a time.

On Linux a child's peak resident set (`ru_maxrss`) starts at its parent's
peak at the time of the fork, so jobs started straight from run.py would
report run.py's own memory.  This launcher stays small (it is started with
`-I -S` and imports no more than it needs), so the peak it reports for each
job is the job's own.

Protocol, one JSON line each way:
    ["argv0", ...args], "stdout path", "stderr path"  ->  [wall_s, exit_code, peak_rss_kb]
"""

import json
import os
import sys
from time import perf_counter


def main() -> int:
    env = dict(os.environ)
    for line in sys.stdin:
        argv, out_path, err_path = json.loads(line)
        out = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        err = os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            start = perf_counter()
            pid = os.posix_spawn(
                argv[0],
                argv,
                env,
                file_actions=[(os.POSIX_SPAWN_DUP2, out, 1), (os.POSIX_SPAWN_DUP2, err, 2)],
            )
            _, status, usage = os.wait4(pid, 0)
            wall = perf_counter() - start
        finally:
            os.close(out)
            os.close(err)
        sys.stdout.write(json.dumps([wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss]) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
