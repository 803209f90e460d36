"""burnmat benchmark: time to verdict of the public verify_* suites.

Run from the repository root:

  python3 perfbench/run.py --workload orders --seed 0 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 0     # every workload, one table
  python3 perfbench/selfcheck.py                      # tiny sizes, about 20 s
  python3 perfbench/record.py                         # re-record spec.json digests

--trace 0 times the workload with tracing off and prints the end-to-end
metrics: wall_s (median pass time after warm-up), setup_s (median over fresh
processes of `import burnmat` plus one-item calls of each suite), peak_rss_mb
and passed_frac (1 - failed_frac). Both times are at a reference CPU speed
(see CAL_REF_S); the measured times are printed as well.

--trace 1 runs one pass untraced and the same pass traced at jobs=1, runs
the micro-benchmarks, prints the per-layer metrics and writes the spans to
.perfbench-out/. The last line of standard output is always one JSON object:
correct, attempted, failed, metrics.

Every verdict is checked: see verdicts.py. Digests recorded in spec.json are
compared at the seeds recorded there. The exit status is 1 on any failed
check, digest mismatch or lane disagreement, and 2 when the run is refused.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

from micro import depth4_sample_s, kernel_lanes, pool_start_s  # noqa: E402
from verdicts import checks_of, digest, failed_checks  # noqa: E402
from workloads import (QS, WORKLOADS, jobs_for, nproc, pass_calls, pass_count,  # noqa: E402
                       pass_seed, run_call, setup_calls)

SETUP_REPEATS = 5
SETUP_MIN_S = 2.0   # short set-ups repeat until this much set-up time is measured
SETUP_MAX_REPEATS = 15
CHILD_TIMEOUT_S = 150
# On a shared 2-core x86 VM the CPU speed drifted by up to 60% over a few
# minutes, moving every timing together, with pass times correlated over tens
# of seconds. So each timed suite call and set-up process is bracketed by a
# fixed pure-Python loop of about 20 ms, and its time is scaled by
# CAL_REF_S / (mean of the two loop times): times are seconds at the loop's
# reference speed. There, on a fixed 0.46-s piece of work repeated for 150 s,
# this took the spread of 20-s medians from 0.165 (CV) to 0.027, and left the
# scaled times uncorrelated from one repeat to the next.
CAL_ITERS = 200_000
CAL_REF_S = 0.02


class Refused(Exception):
    """The run cannot be measured as asked; nothing is printed as a result."""


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def guard_environment() -> None:
    """Refuse lane or cache overrides, and a tree without burnmat's source."""
    for var in ("BURNMAT_KERNEL", "BURNMAT_CACHE"):
        if os.environ.get(var):
            raise Refused(f"{var} is set; the benchmark measures the default lane "
                          f"with lattices built in memory")
    if not os.path.isfile(os.path.join(SRC, "burnmat", "__init__.py")):
        raise Refused(f"no burnmat source at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import burnmat

    if not os.path.abspath(burnmat.__file__).startswith(SRC + os.sep):
        raise Refused(f"imported burnmat from {burnmat.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    from burnmat import HAS_NUMBA, kernels

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    lines = 0
    for base, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name)) as fh:
                    lines += sum(1 for _ in fh)
    return {"git_sha": sha, "python": sys.version.split()[0], "numpy": numpy.__version__,
            "numba": HAS_NUMBA, "lane": kernels.get_lane(), "nproc": nproc(),
            "src_lines": lines}


# ---------------------------------------------------------------------------
# running passes and accounting for verdicts

class Tally:
    """Attempted and failed checks, digests, and messages naming seed, pass and call."""

    def __init__(self, workload: str, seed: int, recorded: dict):
        self.workload = workload
        self.seed = seed
        self.recorded = recorded
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.witness_tried = 0
        self.digests = {}
        self.messages = []

    def add(self, index: int, call, report, error: str | None) -> None:
        key = f"p{index}/{call.label}"
        where = (f"{self.workload} seed {self.seed} pass {index} {call.label} "
                 f"(suite seed {call.kwargs.get('seed')})")
        if error is not None:
            self.attempted += 1
            self.failed += 1
            self.messages.append(f"{where}: raised {error}")
            return
        d = self.digests[key] = digest(report)
        n = checks_of(report)
        self.checks += n
        self.witness_tried += getattr(report, "witness_tried", 0)
        bad = failed_checks(call.suite, report)
        want = self.recorded.get(key)
        if want is not None and want != d:
            bad = [f"digest {d[:16]} differs from the recorded {want[:16]}"] * max(n, 1)
        self.attempted += max(n, 1)
        self.failed += min(len(bad), max(n, 1))
        self.messages += [f"{where}: {m}" for m in list(dict.fromkeys(bad))[:3]]


def run_pass(calls, jobs: int, tracer=None) -> list:
    """(call, report, error) for each call; an exception fails only its call."""
    out = []
    for call in calls:
        if tracer is not None:
            tracer.suite = call.suite
            tracer.begin(f"verify.{call.label}")
        try:
            out.append((call, run_call(call, jobs), None))
        except Exception:
            traceback.print_exc()
            out.append((call, None, traceback.format_exc().strip().splitlines()[-1]))
        finally:
            if tracer is not None:
                tracer.end()
                tracer.suite = None
    return out


def recorded_digests(workload: str, seed: int, tiny: bool) -> dict:
    if tiny:
        return {}
    spec = _load(os.path.join(HERE, "spec.json"))
    return spec["digests"].get(workload, {}).get(str(seed), {})


def calibrate() -> float:
    """Time of a fixed integer loop: the CPU's speed right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_ITERS):
        acc += i * i % 7
    return time.perf_counter() - t0


def timed_pass(calls, jobs: int, cal: float) -> tuple[list, float, float, float]:
    """run_pass with each call timed between two calibrations.

    cal is the calibration taken just before the pass. Returns the results, the
    measured seconds, the seconds at reference speed and the last calibration.
    """
    results, raw, scaled = [], 0.0, 0.0
    for call in calls:
        before = cal
        t0 = time.perf_counter()
        results += run_pass([call], jobs)
        dt = time.perf_counter() - t0
        cal = calibrate()
        raw += dt
        scaled += dt * 2 * CAL_REF_S / (before + cal)
    return results, raw, scaled, cal


def _peak_rss_mb(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib = max(kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def setup_s(workload: str, tiny: bool, repeats: int) -> float:
    """Median set-up time over fresh processes, at the reference speed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    times = []
    spent = 0.0
    after = calibrate()
    while len(times) < repeats or (not tiny and spent < SETUP_MIN_S
                                   and len(times) < SETUP_MAX_REPEATS):
        before = after
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_child.py"),
                               workload, "1" if tiny else "0"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        raw = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        spent += raw
        after = calibrate()
        times.append(raw * 2 * CAL_REF_S / (before + after))
        print(f"set-up: {raw:.3f} s measured, {times[-1]:.3f} s at reference speed")
    return statistics.median(times)


def measure(workload: str, seed: int, seconds: float, tiny: bool = False,
            setup_repeats: int = SETUP_REPEATS) -> tuple[Tally, dict]:
    """End-to-end metrics of one run, tracing off."""
    jobs = jobs_for(workload)
    tally = Tally(workload, seed, recorded_digests(workload, seed, tiny))
    for call in setup_calls(workload, tiny):
        run_call(call, jobs)
    walls = []
    cal = calibrate()
    for i in range(pass_count(workload, seconds)):
        calls = pass_calls(workload, pass_seed(seed, i), tiny)
        results, raw, scaled, cal = timed_pass(calls, jobs, cal)
        walls.append(scaled)
        print(f"pass {i} (seed {pass_seed(seed, i)}): {raw:.3f} s measured, "
              f"{walls[-1]:.3f} s at reference speed", flush=True)
        for call, report, error in results:
            tally.add(i, call, report, error)
    # read before the set-up processes start: pool workers are the only children yet
    peak = _peak_rss_mb(with_children=jobs > 1)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (setup_s(workload, tiny, setup_repeats), "s"),
        "peak_rss_mb": (peak, "MiB"),
        "passed_frac": (1 - tally.failed / tally.attempted, "ratio"),
    }
    return tally, metrics


# ---------------------------------------------------------------------------
# traced run: per-layer metrics

def traced(workload: str, seed: int, tiny: bool = False) -> tuple[Tally, dict, list, str]:
    """Per-layer metrics from one untraced and one traced pass at jobs=1.

    Returns the tally, the metrics, lane disagreements and the trace file path.
    """
    from spans import Tracer, install_layers, install_setup

    # the cold pass pays for lattices and tables, so it is where their build is timed
    cold = Tracer()
    install_setup(cold)
    try:
        for call in setup_calls(workload, tiny):
            run_call(call, 1)
    finally:
        cold.uninstall()

    tally = Tally(workload, seed, recorded_digests(workload, seed, tiny))
    calls = pass_calls(workload, pass_seed(seed, 0), tiny)
    t0 = time.perf_counter()
    plain = run_pass(calls, 1)
    untraced_s = time.perf_counter() - t0
    for call, report, error in plain:
        tally.add(0, call, report, error)

    tr = Tracer()
    install_layers(tr)
    try:
        t0 = time.perf_counter()
        spanned = run_pass(calls, 1, tr)
        traced_s = time.perf_counter() - t0
    finally:
        tr.uninstall()
    check = Tally(workload, seed, dict(tally.digests))
    for call, report, error in spanned:
        check.add(0, call, report, error)
    tally.failed += check.failed
    tally.attempted += check.attempted
    tally.messages += [f"traced: {m}" for m in check.messages]

    micro, disagreements = kernel_lanes(batch=3 if tiny else 12, repeats=1 if tiny else 3)
    micro["tadic.micro.depth4_sample_s"] = depth4_sample_s(3 if tiny else 4)
    micro["verify.pool_start_s"] = pool_start_s(1 if tiny else 3)

    metrics = layer_metrics(cold, tr, tally, micro, traced_s - untraced_s)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.jsonl")
    tr.write(path, {"workload": workload, "seed": seed, "pass_seed": pass_seed(seed, 0),
                    "jobs": 1, "untraced_s": untraced_s, "traced_s": traced_s,
                    "setup_spans": {n: a for n, a in cold.agg.items()},
                    "setup_counts": cold.counts})
    return tally, metrics, disagreements, path


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(cold, tr, tally: Tally, micro: dict, overhead_s: float) -> dict:
    """Every per-layer metric, as name -> value; units come from BENCHMARK.json."""
    def calls(name):
        return tr.agg.get(name, (0, 0.0, 0.0))[0]

    def own(name):
        return tr.agg.get(name, (0, 0.0, 0.0))[2]

    m = dict(micro)
    m["trace_overhead_s"] = overhead_s
    m["tadic.sample.calls.k2"] = calls("tadic.sample.k2")
    m["tadic.sample.self_s.k2"] = own("tadic.sample.k2")
    m["tadic.series_mul.calls"] = calls("tadic.series_mul")
    m["tadic.series_mul.self_s"] = own("tadic.series_mul")
    m["tadic.word_evals_per_sample"] = _ratio(calls("tadic.eval_word"),
                                              tr.calls("tadic.sample."))
    m["rings.mul.calls"] = calls("rings.mul")
    m["rings.mul.self_s"] = own("rings.mul")
    m["groups.eval_word.calls"] = calls("groups.eval_word")
    m["groups.eval_word.letters"] = tr.counts.get("groups.eval_word.letters", 0)
    m["groups.eval_word.self_s"] = own("groups.eval_word")
    m["groups.order_in_G.calls"] = calls("groups.order_in_G")
    m["groups.order_in_G.self_s"] = own("groups.order_in_G")
    m["groups.square.self_s"] = own("groups.square")
    m["groups.closure.self_s"] = own("groups.closure")
    for q in QS:
        build = cold.agg.get(f"ideals.lattice_build.q{q}", (0, 0.0, 0.0))
        m[f"ideals.lattice_build_s.q{q}"] = build[1]
        m[f"ideals.lattice_rank.q{q}"] = cold.counts.get(f"ideals.lattice_rank.q{q}", 0)
    for name in ("member", "reduce"):
        m[f"ideals.{name}.calls"] = calls(f"ideals.{name}")
        m[f"ideals.{name}.self_s"] = own(f"ideals.{name}")
    for split in [f"S{q}" for q in QS] + ["Sigma2"]:
        m[f"kernels.eval.calls.{split}"] = calls(f"kernels.eval.{split}")
        m[f"kernels.eval.letters.{split}"] = tr.counts.get(f"kernels.eval.{split}.letters", 0)
        m[f"kernels.eval.self_s.{split}"] = own(f"kernels.eval.{split}")
    letters = sum(n for name, n in tr.counts.items()
                  if name.startswith("kernels.eval.") and name.endswith(".letters"))
    m["kernels.eval.calls"] = tr.calls("kernels.eval.")
    m["kernels.eval.letters"] = letters
    m["kernels.eval.self_s"] = tr.self_s("kernels.eval.")
    m["kernels.eval.letters_per_s"] = _ratio(letters, m["kernels.eval.self_s"])
    m["kernels.evals_per_order"] = _ratio(tr.counts.get("kernels.eval.calls_in_orders", 0),
                                          calls("groups.order_in_G"))
    m["kernels.reduce_vec.calls"] = calls("kernels.reduce_vec")
    m["kernels.reduce_vec.self_s"] = own("kernels.reduce_vec")
    m["kernels.tables_s"] = cold.agg.get("kernels.tables", (0, 0.0, 0.0))[1]
    for label in sorted({c.label for w in WORKLOADS for c in pass_calls(w, 0)}):
        name = f"verify.{label.partition('#')[0]}.s"
        m[name] = m.get(name, 0.0) + tr.agg.get(f"verify.{label}", (0, 0.0, 0.0))[1]
    m["verify.checks"] = tally.checks
    m["verify.witness_tried"] = tally.witness_tried
    for module in ("rings", "groups", "ideals", "kernels", "tadic", "verify"):
        m[f"{module}.self_s"] = tr.self_s(module + ".")
    return m


# ---------------------------------------------------------------------------
# output

def result_line(tally: Tally, values: dict, units: dict, ok: bool = True) -> dict:
    return {"correct": ok and tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {n: {"value": values[n], "unit": units[n]} for n in units}}


def run_one(args, bench: dict) -> int:
    env = environment()
    env["loadavg_start"] = os.getloadavg()
    if args.trace:
        tally, values, disagreements, path = traced(args.workload, args.seed)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        print(f"trace written to {os.path.relpath(path, ROOT)}")
    else:
        tally, measured = measure(args.workload, args.seed, args.seconds)
        values = {n: v for n, (v, _) in measured.items()}
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        disagreements = []
    env["loadavg_end"] = os.getloadavg()
    print("env " + json.dumps(env))
    for msg in tally.messages + disagreements:
        print(f"FAILED {msg}")
    line = result_line(tally, values, units, ok=not disagreements)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_all(args, bench: dict) -> int:
    """Every workload in its own process, one table of the end-to-end metrics."""
    env = environment()
    env["loadavg_start"] = os.getloadavg()
    _, disagreements = kernel_lanes(batch=4, repeats=1)
    rows = []
    ok = not disagreements
    attempted = failed = 0
    for w in bench["workloads"]:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload",
                               w["name"], "--seed", str(args.seed), "--seconds",
                               str(args.seconds), "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write("".join(ln + "\n" for ln in proc.stdout.splitlines()
                                 if ln.startswith("FAILED")))
        lines = proc.stdout.strip().splitlines()
        # an uncaught exception also exits with 1, but leaves no result line
        if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
            sys.stderr.write(proc.stderr)
            print(f"FAILED {w['name']}: exit status {proc.returncode}, no result")
            ok = False
            continue
        res = json.loads(lines[-1])
        ok = ok and proc.returncode == 0 and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        rows.append((w["name"], res))
    env["loadavg_end"] = os.getloadavg()
    print("env " + json.dumps(env))
    for msg in disagreements:
        print(f"FAILED {msg}")
    print(f"{'workload':<8} {'wall_s [s]':>11} {'setup_s [s]':>12} {'peak_rss_mb [MiB]':>18} "
          f"{'failed_frac [ratio]':>20}")
    metrics = {}
    for name, res in rows:
        v = {k: x["value"] for k, x in res["metrics"].items()}
        frac = res["failed"] / res["attempted"]
        print(f"{name:<8} {v['wall_s']:>11.3f} {v['setup_s']:>12.3f} "
              f"{v['peak_rss_mb']:>18.1f} {frac:>20.6f}")
        for k, x in res["metrics"].items():
            metrics[f"{name}.{k}"] = x
        metrics[f"{name}.failed_frac"] = {"value": frac, "unit": "ratio"}
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


def main(argv=None) -> int:
    bench = _load(os.path.join(ROOT, "BENCHMARK.json"))
    spec = _load(os.path.join(HERE, "spec.json"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description="burnmat time-to-verdict benchmark")
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=spec["default_seed"])
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        guard_environment()
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, bench)
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
