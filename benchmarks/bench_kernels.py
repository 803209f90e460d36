"""Compare word-evaluation lanes (python / numpy) on quotient tables.

Run as a plain script:  python3 benchmarks/bench_kernels.py [--repeats N] [--batch N]
"""

import argparse
import os
import random
import sys
import time

if __name__ == "__main__":
    # a checkout needs no install: import burnmat from ../src
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, "src"))

from burnmat import SContext, random_reduced_word
from burnmat.kernels import (KernelOverflow, eval_word_quotient, sigma_tables,
                             tables_for)


def _batch(rng, n, max_len):
    return [random_reduced_word(rng, max_len) for _ in range(n)]


def _time_lane(lane, words, tables, repeats):
    # warm up once so first-call costs stay out of the measurement
    try:
        eval_word_quotient(words[0], tables, lane=lane)
    except KernelOverflow:
        return None, None
    best = None
    results = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        try:
            results = [eval_word_quotient(w, tables, lane=lane) for w in words]
        except KernelOverflow:
            return None, None
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, results


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--batch", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    s3_words = _batch(rng, args.batch, 40)
    s9_words = _batch(rng, args.batch, 40)
    sigma8_words = _batch(rng, args.batch, 30)
    s5_words = _batch(rng, args.batch, 40)
    sigma2_words = _batch(rng, args.batch, 30)
    s9 = SContext.for_q(9)
    # S(3), S(5) and Sigma^2 step by pairs of letters (N <= 15), the others by letters
    workloads = [
        ("S(3), len<=40", tables_for(SContext.for_q(3)), s3_words),
        ("S(5), len<=40", tables_for(SContext.for_q(5)), s5_words),
        ("S(9), len<=40", tables_for(s9), s9_words),
        ("Sigma^2, len<=30", sigma_tables(2), sigma2_words),
        ("Sigma^8, len<=30", sigma_tables(8), sigma8_words),
        # the same words in S(9) itself: one t-slice per step
        ("S(9) at t = 1, len<=40", tables_for(s9, at_t1=True), s9_words),
    ]
    lanes = ["python", "numpy"]

    header = f"{'workload':<24}" + "".join(f"{lane:>12}" for lane in lanes)
    print(header)
    print("-" * len(header))
    for label, tables, words in workloads:
        cells = []
        baseline = None
        for lane in lanes:
            dt, results = _time_lane(lane, words, tables, args.repeats)
            if dt is None:
                cells.append(f"{'overflow':>12}")
                continue
            if baseline is None:
                baseline = results
            elif results != baseline:
                raise SystemExit(f"{label}: {lane} lane disagrees with python lane")
            cells.append(f"{dt * 1000:>10.1f}ms")
        print(f"{label:<24}" + "".join(cells))
    print(f"\nbatch={args.batch} words, best of {args.repeats} runs, "
          "identical results checked across lanes")


if __name__ == "__main__":
    main()
