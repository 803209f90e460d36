"""Verification suites tying rings, ideals, groups, kernels, and t-adic checks together."""

from __future__ import annotations

import functools
import itertools
import os
import pickle
import random
import signal
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

from . import kernels
from .groups import (ExponentLawViolation, basic_commutator,
                     balanced_commutator_word, check_row_fixed, commutator, free_reduce,
                     group_closure, group_context, normal_form, order_in_G,
                     power_from_normal_form, product_normal_form_rule,
                     random_reduced_word, random_zero_sum_word,
                     commutative_square_check, t_exponent_sum, tree_word,
                     _free_generators)
from .ideals import BurnsideParams, SContext, cyclotomic_lattice, p_power_sigma_check
from .rings import _index_table, monomial_list
from .tadic import SeriesContext, sample_layer_element, t1_valuation, vanishes_mod_sigma

SAMPLE_SEED_STRIDE = 1000003


@dataclass
class VerificationReport:
    """Outcome of one suite; empty failures means every check passed."""

    result: str
    q: int | None
    parameters: dict
    checks: int
    failures: list
    seed: int
    wall_time: float
    status: str = "proved"
    rows: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        # a suite that made no checks proves nothing
        return self.checks > 0 and not self.failures

    def to_record(self) -> dict:
        # wall time stays out: structured reports must be byte-identical across runs
        return {"result": self.result, "q": self.q, "parameters": self.parameters,
                "checks": self.checks, "failures": self.failures,
                "seed": self.seed, "status": self.status, "rows": self.rows}


def solvability_bound(q: int) -> tuple[int, int]:
    """(e*phi(q), least k with 2^(k-1) >= e*phi(q) + 1)."""
    params = BurnsideParams.from_q(q)
    k = 1
    while (1 << (k - 1)) < params.bound + 1:
        k += 1
    return params.bound, k


@dataclass
class SolvabilityReport:
    """Derived-length bound check: depth-k trees die, depth-(k-1) witness sought."""

    q: int
    e_phi: int
    k: int
    failures: list  # depth-k trees that are not I
    trees_checked: int
    witness: str | None
    witness_tried: int
    witness_budget: int
    seed: int
    wall_time: float

    @property
    def upper_ok(self) -> bool:
        return not self.failures

    @property
    def passed(self) -> bool:
        # witness absence is reported, never failed; the stored k must agree
        # with the bound recomputed from q, and some tree must have been checked
        return (self.trees_checked > 0 and self.upper_ok
                and self.k == solvability_bound(self.q)[1])

    def to_record(self) -> dict:
        return {"result": "solvable", "q": self.q, "e_phi": self.e_phi, "k": self.k,
                "upper_ok": self.upper_ok, "trees_checked": self.trees_checked,
                "witness": self.witness, "witness_tried": self.witness_tried,
                "witness_budget": self.witness_budget, "seed": self.seed}


# ---------------------------------------------------------------------------
# shared plumbing: per-sample seeds and the optional process pool

def _per_sample(check, seed: int, samples: int, jobs: int) -> list:
    """[check(i, rng_i) for i < samples], rng_i seeded seed * SAMPLE_SEED_STRIDE + i.

    A suite binds what its samples read (contexts, tables) in this process
    and passes a closure over them; _pmap's children fork from here, so they
    inherit both, and only the results travel back.
    """
    return _pmap(lambda i: check(i, random.Random(seed * SAMPLE_SEED_STRIDE + i)),
                 range(samples), jobs)


def _pmap(worker, items, jobs: int):
    """Order-preserving map; identical output for any jobs count.

    Starts at most one process per CPU and per item, whatever jobs asks for.
    Child i forks from this process, so it inherits everything built here,
    maps items[i::procs] and pickles the results, or the exception it raised,
    to a pipe; the parent only collects. A worker's exception is re-raised
    here, a worker that died without a result raises RuntimeError, and no
    child outlives the call.
    """
    procs = min(jobs, os.cpu_count() or 1, len(items))
    if procs <= 1:
        return [worker(it) for it in items]
    pids, pipes = [], []  # a pid becomes None once reaped
    try:
        for i in range(procs):
            r, w = os.pipe()
            pipes.append(r)
            pid = os.fork()
            if pid == 0:
                _pmap_child(worker, items[i::procs], w)
            os.close(w)
            pids.append(pid)
        out = [None] * len(items)
        for i in range(procs):
            with open(pipes[i], "rb", closefd=False) as fh:
                data = fh.read()
            _, status = os.waitpid(pids[i], 0)
            pids[i] = None
            if not data:
                raise RuntimeError(f"worker {i} exited with status "
                                   f"{os.waitstatus_to_exitcode(status)} "
                                   f"without a result")
            ok, res = pickle.loads(data)
            if not ok:
                raise res
            out[i::procs] = res
        return out
    finally:
        for r in pipes:
            os.close(r)
        for pid in pids:
            if pid is not None:  # alive or a zombie, so the kill cannot miss
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _pmap_child(worker, items, fd: int):
    """Body of a _pmap child: never returns, always leaves through os._exit."""
    code = 1
    try:
        try:
            payload = (True, [worker(it) for it in items])
        except Exception as exc:
            payload = (False, exc)
        with os.fdopen(fd, "wb") as fh:
            fh.write(pickle.dumps(payload))
        code = 0
    except KeyboardInterrupt:
        pass
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(code)


# ---------------------------------------------------------------------------
# power formula and basic commutators

def _basic_commutator_matrices(r: int):
    """(a, b, matrix of basic_commutator(a, b)) for a, b <= r, a outer, b inner.

    Built by the words' own recurrence, w(0,0) = [b,a], w(0,b) = [w(0,b-1), b],
    w(a,b) = [w(a-1,b), a], one matrix commutator per step, so no word is
    evaluated letter by letter.
    """
    ctx = group_context("metabelian")
    gen_a, gen_b = ctx.gens["a"], ctx.gens["b"]
    row = [commutator(gen_b, gen_a)]
    for _ in range(r):
        row.append(commutator(row[-1], gen_b))
    for a in range(r + 1):
        if a:
            row = [commutator(M, gen_a) for M in row]
        for b, M in enumerate(row):
            yield a, b, M


def verify_power_formula(samples: int = 200, max_n: int = 8, max_len: int = 12,
                         seed: int = 0, jobs: int = 1,
                         commutator_range: int = 4) -> VerificationReport:
    """Closed-form powers against iterated products, plus predicted basic commutators."""
    t0 = time.perf_counter()
    ctx = group_context("metabelian")

    def check(i, rng):
        w = random_reduced_word(rng, max_len)
        M = ctx.eval_word(w)
        nf = normal_form(M)
        acc = ctx.identity()
        for n in range(1, max_n + 1):
            acc = acc.mul(M)
            if power_from_normal_form(nf, n) != acc:
                return f"sample {i}: closed form != product for word {w!r} at n={n}"
        return None

    failures = [m for m in _per_sample(check, seed, samples, jobs) if m]
    checks = samples * max_n

    for a, b, M in _basic_commutator_matrices(commutator_range):
        _, predicted = basic_commutator(a, b)
        if normal_form(M) != predicted:
            failures.append(f"basic commutator a={a} b={b}: prediction mismatch")
        checks += 1

    return VerificationReport(
        result="powers", q=None,
        parameters={"samples": samples, "max_n": max_n, "max_len": max_len,
                    "commutator_range": commutator_range},
        checks=checks, failures=failures, seed=seed,
        wall_time=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# cyclotomic ideal inclusions

@functools.cache
def _inclusion_lattice(q: int):
    # I(q), once per process: 11-19 ms a build at q = 8, 9 on a 2-core x86 VM
    return cyclotomic_lattice(BurnsideParams.from_q(q))


def verify_ideal_inclusions(q: int, seed: int = 0, jobs: int = 1) -> VerificationReport:
    """Sigma^(e*phi) inside I(q), a non-member one degree below, p^j refinements.

    Also reports, without asserting, the least degree whose monomials all land
    in the ideal, and the per-degree membership counts beneath it.
    """
    t0 = time.perf_counter()
    params = BurnsideParams.from_q(q)
    lat = _inclusion_lattice(q)
    idx = _index_table(lat.D)
    failures = []
    checks = 0
    rows = []

    def unit_vec(r, s):
        v = [0] * lat.dim
        v[idx[(r, s)]] = 1
        return v

    member_counts = {}
    for d in range(params.bound + 1):
        monos = [(r, s) for r, s in monomial_list(lat.D) if r + s == d]
        members = [(r, s) for r, s in monos if lat.member(unit_vec(r, s))]
        member_counts[d] = (len(members), len(monos))
        rows.append({"degree": d, "members": len(members), "total": len(monos)})

    full, total = member_counts[params.bound]
    checks += total
    if full != total:
        failures.append(f"q={q}: {total - full} degree-{params.bound} monomials "
                        f"missing from the ideal")
    below_full, below_total = member_counts[params.bound - 1]
    checks += 1
    if below_full == below_total:
        failures.append(f"q={q}: every degree-{params.bound - 1} monomial is a member; "
                        f"expected a non-member witness")

    d_min = next((d for d in range(1, params.bound + 1)
                  if member_counts[d][0] == member_counts[d][1]), None)

    refinement = None
    if params.e >= 2:
        j = 1
        k = params.bound - j * (params.p ** (params.e - 1) - params.p ** (params.e - 2))
        ok = p_power_sigma_check(params, j, k, lat)
        checks += 1
        refinement = {"j": j, "k": k, "ok": ok}
        if not ok:
            failures.append(f"q={q}: p^{j} Sigma^{k} not contained in the ideal")

    return VerificationReport(
        result="inclusions", q=q,
        parameters={"e_phi": params.bound, "D": lat.D, "d_min": d_min,
                    "refinement": refinement},
        checks=checks, failures=failures, seed=seed,
        wall_time=time.perf_counter() - t0, rows=rows)


# ---------------------------------------------------------------------------
# Burnside exponent over S at t = 1
#
# G' is abelian at t = 1 by the normal form, not by assumption.  Every word
# matrix is g = uI + N with the rows of N equal to lambda_i r, where
# r = (1-x, 1-y), r . lambda = 1 - u and det g = u (groups.NormalForm).  For
# h = u'I + N' with det h = 1, N N' = lambda (r . lambda') r = (1 - u') N = 0,
# so (g - I)(h - I) = 0 for det-1 g and h, and gh - I = (g - I) + (h - I):
# g -> g - I is an injective homomorphism from ker det, which holds G', into
# the additive 2x2 matrices, and it stays one after the ring map R -> S(q).

_CLOSURE_SIZES = {2: 4, 3: 27}


def verify_burnside_exponent(q: int, samples: int = 200, max_len: int = 12,
                             seed: int = 0, jobs: int = 1) -> VerificationReport:
    """w^q = I in the t=1 image over S(q); exact closure sizes where finite-small."""
    t0 = time.perf_counter()
    sctx = SContext.for_q(q)
    # the t = 1 tables: one t-slice per step, however long the word
    t1 = kernels.tables_for(sctx, at_t1=True)

    def check(i, rng):
        w = random_reduced_word(rng, max_len)
        if not kernels.eval_is_identity(w * q, t1):
            return f"sample {i}: w^{q} != I at t=1 for word {w!r}"
        return None

    failures = [m for m in _per_sample(check, seed, samples, jobs) if m]
    checks = samples

    closure = None
    if q in _CLOSURE_SIZES:
        closure = group_closure(sctx)
        checks += 1
        if closure != _CLOSURE_SIZES[q]:
            failures.append(f"q={q}: closure size {closure}, "
                            f"expected {_CLOSURE_SIZES[q]}")

    return VerificationReport(
        result="exponent", q=q,
        parameters={"samples": samples, "max_len": max_len, "closure": closure},
        checks=checks, failures=failures, seed=seed,
        wall_time=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# order dichotomy over S[t,t^-1]

def verify_order_dichotomy(q: int, samples: int = 200, infinite_samples: int = 50,
                           max_len: int = 12, seed: int = 0,
                           jobs: int = 1) -> VerificationReport:
    """Zero t-sum words have order dividing q; nonzero t-sum words are infinite."""
    t0 = time.perf_counter()
    sctx = SContext.for_q(q)
    status = "proved" if sctx.params.e == 1 else "experimental"
    # order_in_G reaches the kernel tables itself: build them before _pmap forks
    kernels.tables_for(sctx)

    def zero_sum(i, rng):
        w = random_zero_sum_word(rng, max_len)
        try:
            r = order_in_G(w, sctx)
        except ExponentLawViolation as exc:
            # order exceeds q; the report shows the probed order
            return exc.order, (f"sample {i}: zero-sum word {w!r} has order "
                               f"{exc.order or f'> {exc.cap}'}, not a divisor of {q}")
        if r.is_infinite:
            return None, f"sample {i}: zero-sum word {w!r} classified infinite"
        return r.order, None

    def nonzero_sum(i, rng):
        w = random_reduced_word(rng, max_len)
        if t_exponent_sum(w) == 0:
            w += "b"
        r = order_in_G(w, sctx)
        if not r.is_infinite:
            return f"sample {i}: nonzero-sum word {w!r} got finite order {r.order}"
        if "determinant t^" not in r.certificate:
            return f"sample {i}: missing infinite-order certificate for {w!r}"
        return None

    zero = _per_sample(zero_sum, seed, samples, jobs)
    failures = [m for _, m in zero if m]
    failures += [m for m in _per_sample(nonzero_sum, seed + 1, infinite_samples, jobs) if m]
    hist = Counter(order for order, _ in zero if order is not None)
    rows = [{"order": d, "count": hist[d]} for d in sorted(hist)]
    return VerificationReport(
        result="orders", q=q,
        parameters={"samples": samples, "infinite_samples": infinite_samples,
                    "max_len": max_len},
        checks=samples + infinite_samples, failures=failures, seed=seed,
        wall_time=time.perf_counter() - t0, status=status, rows=rows)


# ---------------------------------------------------------------------------
# solvability: depth-k trees vanish, depth-(k-1) witness search

def verify_solvability(q: int, samples: int = 50, witness_budget: int = 500,
                       base_maxlen: int = 3, seed: int = 0,
                       jobs: int = 1) -> SolvabilityReport:
    """Depth-k commutator trees evaluate to I; search one level down for life."""
    t0 = time.perf_counter()
    e_phi, k = solvability_bound(q)
    tables = kernels.tables_for(SContext.for_q(q))

    def check(i, rng):
        w = free_reduce(tree_word(rng, k, base_maxlen))
        if not kernels.eval_is_identity(w, tables):
            return f"tree {i}: depth-{k} word {w!r} of length {len(w)} is not the identity"
        return None

    failures = [m for m in _per_sample(check, seed, samples, jobs) if m]

    # structured candidates first (all generator-letter leaf tuples), then
    # random trees up to the budget; first non-identity word wins.  With more
    # than two leaves in {a, b} every depth-1 commutator is [a,b]^±1 or 1,
    # these commute, and every candidate freely reduces to the empty word,
    # which never counts: only two leaves give structured candidates.
    witness = None
    tried = 0
    arity = 1 << (k - 1)
    leaf_tuples = itertools.product(("a", "b"), repeat=arity) if arity <= 2 else ()
    candidates = (balanced_commutator_word(t) for t in leaf_tuples)
    rng = random.Random(seed * SAMPLE_SEED_STRIDE + samples)
    while tried < witness_budget:
        w = next(candidates, None)
        if w is None:
            w = tree_word(rng, k - 1, base_maxlen)
        w = free_reduce(w)
        if not w:
            continue
        tried += 1
        if not kernels.eval_is_identity(w, tables):
            witness = w
            break

    return SolvabilityReport(
        q=q, e_phi=e_phi, k=k, failures=failures,
        trees_checked=samples, witness=witness, witness_tried=tried,
        witness_budget=witness_budget, seed=seed,
        wall_time=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# the commutative square

def verify_square(q: int, samples: int = 100, max_len: int = 8, seed: int = 0,
                  jobs: int = 1) -> VerificationReport:
    """Quotient-then-specialize equals specialize-then-quotient on sampled words."""
    t0 = time.perf_counter()
    sctx = SContext.for_q(q)
    # commutative_square_check reaches the kernel tables and the free context
    # itself: build both before _pmap forks
    kernels.tables_for(sctx)
    group_context("free")

    def check(i, rng):
        w = random_reduced_word(rng, max_len)
        if not commutative_square_check(w, sctx):
            return f"sample {i}: square does not commute for word {w!r}"
        return None

    failures = [m for m in _per_sample(check, seed, samples, jobs) if m]
    return VerificationReport(
        result="square", q=q,
        parameters={"samples": samples, "max_len": max_len},
        checks=samples, failures=failures, seed=seed,
        wall_time=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# derived-series coefficient bounds

def _layer_m(k: int) -> int:
    # depth-4 trees have valuation 5, one past the bound, so certification
    # needs one extra series slot there
    d = 1 << (k - 2)
    return d + 2 if k >= 4 else d + 1


def verify_derived_layers(ks=(2, 3, 4), samples: int = 100, seed: int = 0,
                          jobs: int = 1, cross_check: int = 2) -> VerificationReport:
    """Sampled depth-k elements: valuation >= 2^(k-2), coefficients in Sigma^(2^(k-1)).

    Both sides run in quotients; the first cross_check samples at k = 2, 3 are
    re-verified against the exact matrix predicate.
    """
    for k in ks:
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
    t0 = time.perf_counter()
    failures = []
    rows = []
    checks = 0
    free_ctx = group_context("free")

    for k in ks:
        d = 1 << (k - 2)
        # the exact-matrix path is cheap at k=2 and about 2 s per element at k=3
        # (1.7-1.8 s for the 78 letters of seed 0's sample, on a 2-core x86 VM)
        crossings = cross_check if k == 2 else (min(cross_check, 1) if k == 3 else 0)
        series = SeriesContext(_layer_m(k))
        sigma = kernels.sigma_tables(2 * d)

        def check(i, rng):
            samp = sample_layer_element(rng, k, series)
            sigma_ok = kernels.eval_is_identity(samp.word, sigma)
            row = {"k": k, "sample": i, "word_length": len(samp.word),
                   "valuation": samp.valuation, "certified": samp.certified,
                   "sigma_ok": sigma_ok}
            msg = None
            if samp.valuation < d:
                msg = f"k={k} sample {i}: valuation {samp.valuation} < {d} for word {samp.word!r}"
            elif not sigma_ok:
                msg = f"k={k} sample {i}: coefficients escape Sigma^{2 * d} for word {samp.word!r}"
            return row, msg, samp.word

        for idx, (row, msg, word) in enumerate(_per_sample(check, seed + k, samples, jobs)):
            rows.append(row)
            checks += 1
            if msg:
                failures.append(msg)
            if idx < crossings:
                g = free_ctx.eval_word(word)
                checks += 1
                # check_derived_layer(g, k), with the valuation computed once
                val = t1_valuation(g)
                if not (val >= d and vanishes_mod_sigma(g, 2 * d)):
                    failures.append(f"k={k} sample {idx}: exact predicate disagrees "
                                    f"for word {word!r}")
                if row["certified"] and val != row["valuation"]:
                    failures.append(f"k={k} sample {idx}: exact valuation "
                                    f"!= series valuation {row['valuation']} for word {word!r}")

    return VerificationReport(
        result="layers", q=None,
        parameters={"ks": list(ks), "samples": samples, "cross_check": cross_check,
                    "series_slots": {str(k): _layer_m(k) for k in ks}},
        checks=checks, failures=failures, seed=seed,
        wall_time=time.perf_counter() - t0, rows=rows)


# ---------------------------------------------------------------------------
# free-group faithfulness spot-check (Sanov specialization)

def _sanov_generators() -> dict[str, tuple[int, int, int, int]]:
    """Integer images of the generators at x=1, y=t=-1."""
    out = {}
    for ch, M in _free_generators().items():
        vals = []
        for f in M.entries():
            g = f.specialize(x=1, y=-1, t=-1)
            vals.append(g.terms.get((0, 0, 0), 0))
        out[ch] = tuple(vals)
    return out


def verify_sanov(max_len: int = 10) -> VerificationReport:
    """Every freely reduced nonempty word of bounded length lands off the identity."""
    t0 = time.perf_counter()
    gens = _sanov_generators()
    if gens["a"] != (1, 2, 0, 1) or gens["b"] != (1, 0, 2, 1):
        raise AssertionError("specialized generators are not the Sanov pair")
    ident = (1, 0, 0, 1)
    checks = 0
    failures = []

    stack = [(ident, "", 0)]
    while stack:
        mat, last, depth = stack.pop()
        for ch in "aAbB":
            if last and ch == last.swapcase():
                continue
            a11, a12, a21, a22 = mat
            b11, b12, b21, b22 = gens[ch]
            nxt = (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
                   a21 * b11 + a22 * b21, a21 * b12 + a22 * b22)
            checks += 1
            if nxt == ident:
                failures.append(f"reduced word of length {depth + 1} ending "
                                f"{ch!r} evaluates to I")
            if depth + 1 < max_len:
                stack.append((nxt, ch, depth + 1))

    return VerificationReport(
        result="sanov", q=None, parameters={"max_len": max_len},
        checks=checks, failures=failures, seed=0,
        wall_time=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# normal-form invariants: fixed row and the product rule

def verify_normal_forms(samples: int = 200, max_len: int = 10, seed: int = 0,
                        jobs: int = 1) -> VerificationReport:
    """Row fixed by every word matrix; product normal form from the factors."""
    t0 = time.perf_counter()
    ctx = group_context("metabelian")

    def check(i, rng):
        w1 = random_reduced_word(rng, max_len)
        w2 = random_reduced_word(rng, max_len)
        M1, M2 = ctx.eval_word(w1), ctx.eval_word(w2)
        if not (check_row_fixed(M1) and check_row_fixed(M2)):
            return f"sample {i}: row (1-x, 1-y) moved"
        predicted = product_normal_form_rule(normal_form(M1), normal_form(M2))
        if predicted != normal_form(M1.mul(M2)):
            return f"sample {i}: product rule mismatch for {w1!r} * {w2!r}"
        if not predicted.constraint_holds():
            return f"sample {i}: lambda constraint != 1 - u1*u2"
        return None

    failures = [m for m in _per_sample(check, seed, samples, jobs) if m]
    return VerificationReport(
        result="normalform", q=None,
        parameters={"samples": samples, "max_len": max_len},
        checks=samples, failures=failures, seed=seed,
        wall_time=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# suite registry for the CLI

SUITES = {
    "powers": {"fn": verify_power_formula, "per_q": False},
    "inclusions": {"fn": verify_ideal_inclusions, "per_q": True},
    "exponent": {"fn": verify_burnside_exponent, "per_q": True},
    "orders": {"fn": verify_order_dichotomy, "per_q": True},
    "solvable": {"fn": verify_solvability, "per_q": True},
    "square": {"fn": verify_square, "per_q": True},
    "layers": {"fn": verify_derived_layers, "per_q": False},
    "sanov": {"fn": verify_sanov, "per_q": False},
    "normalform": {"fn": verify_normal_forms, "per_q": False},
}
