"""Record the report digests of the default and confirmation seeds in spec.json.

Makes every pass a default-length run makes, at the workload's worker count
and, where that is above 1, again at jobs=1: the records must be byte-identical
across jobs. A call that fails a check is never recorded.

Usage, from the repository root:  python3 perfbench/record.py [WORKLOAD ...]
"""

from __future__ import annotations

import json
import os
import sys

import run
from verdicts import digest, failed_checks
from workloads import WORKLOADS, jobs_for, pass_calls, pass_count, pass_seed


def digests_for(workload: str, seed: int, seconds: float, jobs: int) -> dict:
    out = {}
    for i in range(pass_count(workload, seconds)):
        for call, report, error in run.run_pass(pass_calls(workload, pass_seed(seed, i)), jobs):
            where = f"{workload} seed {seed} pass {i} {call.label}"
            if error is not None:
                raise SystemExit(f"{where}: raised {error}")
            bad = failed_checks(call.suite, report)
            if bad:
                raise SystemExit(f"{where}: {bad[0]}")
            out[f"p{i}/{call.label}"] = digest(report)
    return out


def main() -> int:
    run.guard_environment()
    bench = run._load(os.path.join(run.ROOT, "BENCHMARK.json"))
    path = os.path.join(run.HERE, "spec.json")
    spec = run._load(path)
    for w in sys.argv[1:] or list(WORKLOADS):
        for seed in (spec["default_seed"], spec["confirm_seed"]):
            jobs = jobs_for(w)
            d = digests_for(w, seed, bench["run_seconds"], jobs)
            if jobs > 1 and digests_for(w, seed, bench["run_seconds"], 1) != d:
                raise SystemExit(f"{w} seed {seed}: records differ between jobs={jobs} and 1")
            spec["digests"].setdefault(w, {})[str(seed)] = d
            print(f"{w} seed {seed}: {len(d)} calls recorded")
    with open(path, "w") as fh:
        fh.write(json.dumps(spec, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
