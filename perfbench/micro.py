"""Micro-benchmarks on fixed inputs, independent of the run's seed.

- kernel lanes: the fixed S(3), S(9) and Sigma^8 word batches of
  benchmarks/bench_kernels.py, timed by that script's own lane timer, through
  the python and numpy lanes (and numba when installed). Every lane must give
  the same matrices as the exact python lane; a disagreement fails the run.
- one recorded depth-4 layer sample: the first k=4 sample the layers suite
  draws at seed 0, on the series side only.
- process-pool start-up: fork a two-worker pool the way verify does, map one
  trivial item per worker, join.
"""

from __future__ import annotations

import importlib.util
import os
import random
import statistics
import time

# (tables, maximum word length) of each fixed batch, as in benchmarks/bench_kernels.py
KERNEL_BATCHES = (("S3", 40), ("S9", 40), ("Sigma8", 30))
_BATCH_SEED = 0
_DEPTH4_SEED = 4 * 1000003  # verify's first per-sample seed for k=4 at seed 0
_BENCH_KERNELS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "benchmarks", "bench_kernels.py")


def _bench_kernels():
    """The repository's lane benchmark script, whose batch and lane timing are reused."""
    spec = importlib.util.spec_from_file_location("bench_kernels", _BENCH_KERNELS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tables(label: str):
    from burnmat import SContext, kernels

    if label.startswith("Sigma"):
        return kernels.sigma_tables(int(label[5:]))
    return kernels.tables_for(SContext.for_q(int(label[1:])))


def kernel_lanes(batch: int = 12, repeats: int = 3) -> tuple[dict, list[str]]:
    """us per letter (best of repeats) for each batch and lane, and the lane failures.

    A lane that disagrees with the exact python lane, or overflows, is a failure.
    """
    from burnmat import HAS_NUMBA

    bench = _bench_kernels()
    lanes = ["python", "numpy"] + (["numba"] if HAS_NUMBA else [])
    rng = random.Random(_BATCH_SEED)
    metrics = {}
    disagreements = []
    for label, max_len in KERNEL_BATCHES:
        words = bench._batch(rng, batch, max_len)
        letters = sum(len(w) for w in words)
        tables = _tables(label)
        reference = None
        for lane in lanes:
            best, results = bench._time_lane(lane, words, tables, repeats)
            if best is None:
                disagreements.append(f"{label}: {lane} lane overflowed")
                continue
            if reference is None:
                reference = results
            elif results != reference:
                bad = [w for w, a, b in zip(words, results, reference) if a != b]
                disagreements.append(f"{label}: {lane} lane disagrees with the python "
                                     f"lane on {len(bad)} words, first {bad[0]!r}")
            if lane != "numba":
                metrics[f"kernels.micro.{label}.{lane}.us_per_letter"] = best / letters * 1e6
    return metrics, disagreements


def depth4_sample_s(k: int = 4) -> float:
    """Series-side time of one recorded layer sample (k=4 unless shrunk)."""
    from burnmat import SeriesContext, sample_layer_element

    m = (1 << (k - 2)) + (2 if k >= 4 else 1)
    ctx = SeriesContext(m)
    t0 = time.perf_counter()
    sample_layer_element(random.Random(_DEPTH4_SEED), k, ctx)
    return time.perf_counter() - t0


def pool_start_s(repeats: int = 3) -> float:
    """Median time to fork a two-worker pool, map one item each and join."""
    import multiprocessing as mp

    # fork, as verify does: the point is the cost of forking this process
    ctx = mp.get_context("fork")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        pool = ctx.Pool(processes=2)
        try:
            pool.map(abs, [0, 1], chunksize=1)
        except BaseException:
            pool.terminate()
            pool.join()
            raise
        pool.close()
        pool.join()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
