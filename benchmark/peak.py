"""Run one benchmark job in this fresh process and report its peak resident memory.

    python3 benchmark/peak.py WORKLOAD SEED INPUT_DIR WORK_DIR

Prints one JSON line: ``peak_kib`` (the process's resident high-water mark,
interpreter, numpy and inputs included) and the job's ``summary``, which the
caller compares with the first job it checked.
"""

from __future__ import annotations

import json
import resource
import sys

import run


def main(argv) -> int:
    workload, seed, inputs, work = argv
    sys.path.insert(0, run.SRC)
    job = run.make_job(workload, int(seed), inputs, work)
    summary = job.summary(job.run())
    print(json.dumps({"peak_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
