"""The four workloads: which public verify_* calls one pass makes for a seed.

Each workload puts most of its time in a different burnmat module. A run
makes a fixed number of passes, each with its own seed derived from the run's
seed, so one run measures many independent inputs and the median pass time
is steady across seeds. Set-up calls are one-item calls of every suite the
workload runs: they build every lazily built lattice, table and context.

This module imports burnmat only inside functions, so a fresh process can
time `import burnmat` itself.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

QS = (2, 3, 4, 5, 7, 8, 9)
SMALL_QS = (2, 3, 4, 5, 7)

# suite name -> function name in burnmat.verify
SUITE_FNS = {
    "powers": "verify_power_formula",
    "normalform": "verify_normal_forms",
    "sanov": "verify_sanov",
    "inclusions": "verify_ideal_inclusions",
    "exponent": "verify_burnside_exponent",
    "square": "verify_square",
    "orders": "verify_order_dichotomy",
    "solvable": "verify_solvability",
    "layers": "verify_derived_layers",
}

# suites whose signature takes no seed or jobs
_NO_SEED_JOBS = ("sanov",)


@dataclass(frozen=True)
class Call:
    """One suite call; label names it in metrics, digests and failure messages."""

    label: str
    suite: str
    kwargs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    jobs: int        # requested worker processes, capped at nproc
    pass_s: float    # nominal pass time at the defining commit, sizes the pass count


# why each workload was chosen is written once, in BENCHMARK.json
WORKLOADS = {
    "layers": Workload(1, 2.2),
    "orders": Workload(1, 1.8),
    "trees": Workload(1, 3.3),
    "sweep": Workload(2, 1.9),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def jobs_for(workload: str) -> int:
    """Explicit worker count: never 0, which burnmat reads as every core."""
    return max(1, min(WORKLOADS[workload].jobs, nproc()))


def pass_count(workload: str, seconds: float) -> int:
    """Passes per run: fixed by the run length, so two commits see the same inputs."""
    return max(1, round(seconds / WORKLOADS[workload].pass_s))


def pass_seed(seed: int, index: int) -> int:
    # layers adds k to its seed, so keep pass seeds apart
    return seed * 1000 + 10 * index


def pass_calls(workload: str, seed: int, tiny: bool = False) -> list[Call]:
    """The calls one pass makes. tiny keeps every suite but shrinks its samples."""
    if workload == "layers":
        # three calls of 100 samples rather than one of 300, so the CPU speed is
        # sampled between them (see run.timed_pass); "#j" marks the j-th part of
        # what the per-layer metrics count as one call. With k=2 added to the
        # seed, the parts' seeds stay below the next pass's.
        if tiny:
            return [Call("layers.k2#0", "layers", dict(ks=(2,), samples=8, cross_check=2,
                                                       seed=seed))]
        return [Call(f"layers.k2#{j}", "layers",
                     dict(ks=(2,), samples=100, cross_check=2 if j == 0 else 0,
                          seed=seed + 3 * j))
                for j in range(3)]
    if workload == "orders":
        out = []
        for q in (SMALL_QS[:3] if tiny else QS):
            big = q in (8, 9)
            # words of up to 3 letters still exceed the exponent at q=4,8,9 (about
            # one in ten); longer ones make the per-word cost too heavy-tailed
            # (the numpy lane is quadratic in word length) for a steady run
            samples = 2 if tiny else (4 if big else 12)
            out.append(Call(f"orders.q{q}", "orders",
                            dict(q=q, samples=samples,
                                 infinite_samples=2 if tiny else (4 if big else 8),
                                 max_len=3 if big else 12, seed=seed)))
        return out
    if workload == "trees":
        out = []
        for q in (SMALL_QS[:3] if tiny else QS):
            if tiny:
                out.append(Call(f"solvable.q{q}", "solvable",
                                dict(q=q, samples=4, witness_budget=2, base_maxlen=2,
                                     seed=seed)))
            elif q in (8, 9):
                # depth-5 trees: with leaves of up to 2 letters, 0.5% survive free
                # reduction (then ~15 s each); budget 0 skips the witness search,
                # whose 65536 structured candidates all reduce to the empty word
                out.append(Call(f"solvable.q{q}", "solvable",
                                dict(q=q, samples=1, witness_budget=0, base_maxlen=2,
                                     seed=seed)))
            elif q in (4, 5):
                # the witness search exhausts its budget here, on long random
                # depth-3 trees whose cost varies little; split in two parts like
                # layers, with seeds apart from the next pass's
                out += [Call(f"solvable.q{q}#{j}", "solvable",
                             dict(q=q, samples=2, witness_budget=32, base_maxlen=3,
                                  seed=seed + 5 * j))
                        for j in range(2)]
            else:
                # depth-4 tree identities vary more: free reduction decides their length
                out.append(Call(f"solvable.q{q}", "solvable",
                                dict(q=q, samples={3: 16, 7: 2}.get(q, 32),
                                     witness_budget=24, base_maxlen=3, seed=seed)))
        return out
    if workload == "sweep":
        qs = SMALL_QS[:3] if tiny else QS
        n = 4 if tiny else 1
        # few exponent samples: w^q at q=8,9 is kernel work, which would
        # otherwise crowd out the exact rings and groups evaluation
        out = [Call("powers", "powers", dict(samples=24 // n, seed=seed)),
               Call("normalform", "normalform", dict(samples=160 // n, seed=seed)),
               Call("sanov", "sanov", dict(max_len=6 if tiny else 9))]
        out += [Call(f"inclusions.q{q}", "inclusions", dict(q=q, seed=seed)) for q in qs]
        out += [Call(f"exponent.q{q}", "exponent", dict(q=q, samples=6 // n + 1, seed=seed))
                for q in qs]
        out += [Call(f"square.q{q}", "square", dict(q=q, samples=24 // n, seed=seed))
                for q in qs]
        return out
    raise KeyError(workload)


def setup_calls(workload: str, tiny: bool = False) -> list[Call]:
    """One-item calls of each suite the workload runs, at a fixed seed."""
    out = []
    for call in pass_calls(workload, 0, tiny):
        if call.label.partition("#")[2] not in ("", "0"):
            continue  # a later part of a split call: the first part sets it up
        kw = dict(call.kwargs)
        for key in ("samples", "infinite_samples", "witness_budget"):
            if key in kw:
                kw[key] = 1
        if call.suite == "layers":
            kw["cross_check"] = 1
        if call.suite in ("orders", "exponent", "square", "powers", "normalform"):
            kw["max_len"] = 2
        if call.suite == "powers":
            kw.update(max_n=1, commutator_range=0)
        if call.suite == "solvable":
            kw.update(witness_budget=0, base_maxlen=1)
        if call.suite == "sanov":
            kw["max_len"] = 1
        out.append(Call(call.label, call.suite, kw))
    return out


def run_call(call: Call, jobs: int):
    """Call the suite through burnmat.verify, with jobs passed explicitly."""
    from burnmat import verify

    fn = getattr(verify, SUITE_FNS[call.suite])
    if call.suite in _NO_SEED_JOBS:
        return fn(**call.kwargs)
    return fn(jobs=jobs, **call.kwargs)
