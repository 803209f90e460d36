"""Self-check of the benchmark at tiny sizes; runs in well under a minute.

Asserts that every metric BENCHMARK.json names is emitted with its unit, that
count metrics and report digests repeat exactly between two traced runs of one
seed, that the untraced pass gives the same digests as the traced one, that
the kernel lanes agree, and that a lane override is refused. Each traced run
is made in a fresh process, so the set-up spans (lattice builds and ranks,
kernel tables) see every lazily built structure being built; they are
asserted non-zero.

Usage, from the repository root:  python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import multiprocessing as mp
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import run
from workloads import WORKLOADS, pass_calls

SEED = 3


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {msg}")


def traced_fresh(workload: str):
    """run.traced at tiny sizes in a new process, where nothing is built yet."""
    with ProcessPoolExecutor(max_workers=1, mp_context=mp.get_context("spawn")) as ex:
        return ex.submit(run.traced, workload, SEED, True).result()


def main() -> int:
    bench = run._load(os.path.join(run.ROOT, "BENCHMARK.json"))
    spec = run._load(os.path.join(run.HERE, "spec.json"))
    run.guard_environment()
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check(sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.py")
    prefixes = [p["prefix"] for p in spec["predictions"]]
    for name in layer_units:
        check(any(name.startswith(p) for p in prefixes), f"no prediction covers {name}")

    for w in WORKLOADS:
        tally, measured = run.measure(w, SEED, 2 * WORKLOADS[w].pass_s, tiny=True,
                                      setup_repeats=1)
        check(tally.failed == 0, f"{w}: {tally.messages}")
        check({n: u for n, (_, u) in measured.items()} == e2e_units,
              f"{w}: end-to-end metrics or units differ from BENCHMARK.json")
        check(all(v > 0 for v, _ in measured.values()), f"{w}: a zero end-to-end metric")

        qs = sorted({c.kwargs["q"] for c in pass_calls(w, 0, tiny=True) if "q" in c.kwargs})
        runs = [traced_fresh(w) for _ in range(2)]
        for t, values, disagreements, _ in runs:
            check(t.failed == 0, f"{w} traced: {t.messages}")
            check(not disagreements, f"{w}: {disagreements}")
            check(set(values) == set(layer_units),
                  f"{w}: per-layer metrics differ from BENCHMARK.json: "
                  f"{sorted(set(values) ^ set(layer_units))}")
            check(values["kernels.tables_s"] > 0, f"{w}: no kernel table build traced")
            for q in qs:
                check(values[f"ideals.lattice_rank.q{q}"] > 0
                      and values[f"ideals.lattice_build_s.q{q}"] > 0,
                      f"{w}: no S({q}) lattice build traced")
        (t1, v1, _, _), (t2, v2, _, _) = runs
        check(t1.digests == t2.digests, f"{w}: digests differ between traced runs")
        first = {k: d for k, d in tally.digests.items() if k.startswith("p0/")}
        check(first == t1.digests, f"{w}: traced digests differ from the timed run's")
        for name, unit in layer_units.items():
            if unit == "count":
                check(v1[name] == v2[name], f"{w}: count {name} {v1[name]} != {v2[name]}")
        print(f"selfcheck {w}: ok ({len(first)} calls, {tally.attempted} checks)")

    env = dict(os.environ, BURNMAT_KERNEL="python")
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                           "--workload", "layers"], cwd=run.ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    check(proc.returncode == 2 and not proc.stdout.strip(), "a lane override was not refused")
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
