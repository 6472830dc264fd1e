"""Record the golden exit code and stdout sha256 of every job any seed can draw.

    python3 perfbench/record_golden.py

Run it only at a commit whose output is known to be right; it refuses to
record a job that does not exit 0.  The benchmark then checks every timed job
against golden.json.
"""

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    golden = {}
    run.WORK.mkdir(exist_ok=True)
    with run.Launcher() as launcher:
        for argv in (a for name in workloads.WORKLOADS for a in workloads.pool(name)):
            with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
                job = run.run_job(launcher, argv, Path(tmp), Path(tmp), golden={})
            print(f"{job.status} {job.wall_s:6.3f}s conifold {workloads.key(argv)}")
            if job.status != 0:
                print("refusing to record a job that does not exit 0", file=sys.stderr)
                return 1
            golden[workloads.key(argv)] = {"exit": 0, "stdout_sha256": job.sha256}
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{len(golden)} jobs recorded in {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
