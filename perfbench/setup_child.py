"""Set-up time of a fresh process: import burnmat, then one-item calls of a workload's suites.

Started by run.py with src/ on PYTHONPATH; prints one JSON line.
Usage: python3 perfbench/setup_child.py WORKLOAD TINY(0|1)
"""

import json
import sys
import time

from workloads import jobs_for, run_call, setup_calls


def main() -> None:
    workload, tiny = sys.argv[1], sys.argv[2] == "1"
    calls = setup_calls(workload, tiny)
    jobs = jobs_for(workload)
    t0 = time.perf_counter()
    import burnmat  # noqa: F401  (the import is part of what is timed)

    for call in calls:
        run_call(call, jobs)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()
