"""Verification suites tying rings, ideals, groups, kernels, and t-adic checks together."""

from __future__ import annotations

import itertools
import math
import os
import pickle
import random
import signal
import time
import traceback
from dataclasses import dataclass, field

from . import kernels
from .groups import (GroupContext, ExponentLawViolation, basic_commutator,
                     check_row_fixed, commutator, commutator_word, free_reduce,
                     group_closure, normal_form, order_in_G,
                     power_from_normal_form, product_normal_form_rule,
                     random_reduced_word, random_zero_sum_word,
                     commutative_square_check, t_exponent_sum, tree_word,
                     _free_generators)
from .ideals import BurnsideParams, SContext, cyclotomic_lattice, p_power_sigma_check
from .rings import _index_table, monomial_list
from .tadic import SeriesContext, check_derived_layer, sample_layer_element, t1_valuation

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
    upper_ok: bool
    trees_checked: int
    witness: str | None
    witness_tried: int
    witness_budget: int
    seed: int
    wall_time: float

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

# built once per process; suites build what their workers need before
# _pmap forks, so pool workers inherit it instead of rebuilding it
_CTX_MEMO: dict = {}


def _memo(key, builder):
    v = _CTX_MEMO.get(key)
    if v is None:
        v = _CTX_MEMO[key] = builder()
    return v


def _sctx(q: int) -> SContext:
    return _memo(("s", q), lambda: SContext.for_q(q))


def _tables(q: int) -> kernels.QuotientTables:
    # kernels.tables_for keeps the tables; groups reaches them the same way
    return kernels.tables_for(_sctx(q))


def _sample_seeds(seed: int, n: int) -> list[int]:
    return [seed * SAMPLE_SEED_STRIDE + i for i in range(n)]


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

def _job_power(args):
    idx, sseed, max_len, max_n = args
    ctx = _memo("metabelian", lambda: GroupContext("metabelian"))
    rng = random.Random(sseed)
    w = random_reduced_word(rng, max_len)
    M = ctx.eval_word(w)
    nf = normal_form(M)
    acc = ctx.identity()
    for n in range(1, max_n + 1):
        acc = acc.mul(M)
        if power_from_normal_form(nf, n) != acc:
            return f"sample {idx}: closed form != product for word {w!r} at n={n}"
    return None


def _basic_commutator_matrices(r: int):
    """(a, b, matrix of basic_commutator(a, b)) for a, b <= r, a outer, b inner.

    Built by the words' own recurrence, w(0,0) = [b,a], w(0,b) = [w(0,b-1), b],
    w(a,b) = [w(a-1,b), a], one matrix commutator per step, so no word is
    evaluated letter by letter.
    """
    ctx = _memo("metabelian", lambda: GroupContext("metabelian"))
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
    failures = []
    args = [(i, s, max_len, max_n)
            for i, s in enumerate(_sample_seeds(seed, samples))]
    for msg in _pmap(_job_power, args, jobs):
        if msg:
            failures.append(msg)
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

def verify_ideal_inclusions(q: int, seed: int = 0, jobs: int = 1) -> VerificationReport:
    """Sigma^(e*phi) inside I(q), a non-member one degree below, p^j refinements.

    Also reports, without asserting, the least degree whose monomials all land
    in the ideal, and the per-degree membership counts beneath it.
    """
    t0 = time.perf_counter()
    params = BurnsideParams.from_q(q)
    lat = _memo(("cyc", q), lambda: cyclotomic_lattice(params))
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
        ok = p_power_sigma_check(params, j, k, lat if lat.D >= k + 1 else None)
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

def _t1_is_identity(word: str, sctx: SContext) -> bool:
    tables = _tables(sctx.params.q)
    res = kernels.eval_word_quotient(word, tables)
    e11, e12, e21, e22 = (tuple(v) for v in kernels.entries_at_t1(res, tables))
    one = sctx.one().coeffs
    zero = sctx.zero().coeffs
    return e11 == one and e22 == one and e12 == zero and e21 == zero


def _job_exponent(args):
    idx, sseed, q, max_len = args
    rng = random.Random(sseed)
    w = random_reduced_word(rng, max_len)
    if not _t1_is_identity(w * q, _sctx(q)):
        return f"sample {idx}: w^{q} != I at t=1 for word {w!r}"
    return None


_CLOSURE_SIZES = {2: 4, 3: 27}


def verify_burnside_exponent(q: int, samples: int = 200, max_len: int = 12,
                             seed: int = 0, jobs: int = 1) -> VerificationReport:
    """w^q = I in the t=1 image over S(q); exact closure sizes where finite-small."""
    t0 = time.perf_counter()
    failures = []
    _tables(q)
    args = [(i, s, q, max_len) for i, s in enumerate(_sample_seeds(seed, samples))]
    for msg in _pmap(_job_exponent, args, jobs):
        if msg:
            failures.append(msg)
    checks = samples

    closure = None
    if q in _CLOSURE_SIZES:
        closure = group_closure(GroupContext("s", _sctx(q)))
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

def _probe_order(word: str, q: int, cap: int) -> int | None:
    """Least d <= cap with w^d = I over S(q)[t,t^-1], by direct evaluation."""
    tables = _tables(q)
    for d in range(1, cap + 1):
        if cap % d == 0 and kernels.eval_is_identity(word * d, tables):
            return d
    return None


def _job_order_zero(args):
    idx, sseed, q, max_len = args
    rng = random.Random(sseed)
    w = random_zero_sum_word(rng, max_len)
    try:
        r = order_in_G(w, _sctx(q))
    except ExponentLawViolation:
        # order exceeds q; probe upward so the report shows the real order
        p = BurnsideParams.from_q(q).p
        true_order = _probe_order(free_reduce(w), q, p * p * q)
        return true_order, (f"sample {idx}: zero-sum word {w!r} has order "
                            f"{true_order or f'> {p * p * q}'}, not a divisor of {q}")
    if r.is_infinite:
        return None, f"sample {idx}: zero-sum word {w!r} classified infinite"
    return r.order, None


def _job_order_infinite(args):
    idx, sseed, q, max_len = args
    rng = random.Random(sseed)
    w = random_reduced_word(rng, max_len)
    if t_exponent_sum(w) == 0:
        w += "b"
    r = order_in_G(w, _sctx(q))
    if not r.is_infinite:
        return f"sample {idx}: nonzero-sum word {w!r} got finite order {r.order}"
    if "determinant t^" not in r.certificate:
        return f"sample {idx}: missing infinite-order certificate for {w!r}"
    return None


def verify_order_dichotomy(q: int, samples: int = 200, infinite_samples: int = 50,
                           max_len: int = 12, seed: int = 0,
                           jobs: int = 1) -> VerificationReport:
    """Zero t-sum words have order dividing q; nonzero t-sum words are infinite."""
    t0 = time.perf_counter()
    params = BurnsideParams.from_q(q)
    status = "proved" if params.e == 1 else "experimental"
    failures = []
    hist: dict[int, int] = {}
    _tables(q)

    args = [(i, s, q, max_len) for i, s in enumerate(_sample_seeds(seed, samples))]
    for order, msg in _pmap(_job_order_zero, args, jobs):
        if msg:
            failures.append(msg)
        if order is not None:
            hist[order] = hist.get(order, 0) + 1

    args = [(i, s, q, max_len) for i, s in
            enumerate(_sample_seeds(seed + 1, infinite_samples))]
    for msg in _pmap(_job_order_infinite, args, jobs):
        if msg:
            failures.append(msg)

    rows = [{"order": d, "count": hist[d]} for d in sorted(hist)]
    return VerificationReport(
        result="orders", q=q,
        parameters={"samples": samples, "infinite_samples": infinite_samples,
                    "max_len": max_len},
        checks=samples + infinite_samples, failures=failures, seed=seed,
        wall_time=time.perf_counter() - t0, status=status, rows=rows)


# ---------------------------------------------------------------------------
# solvability: depth-k trees vanish, depth-(k-1) witness search

def _job_tree_identity(args):
    idx, sseed, q, k, base_maxlen = args
    rng = random.Random(sseed)
    w = free_reduce(tree_word(rng, k, base_maxlen))
    if not kernels.eval_is_identity(w, _tables(q)):
        return f"tree {idx}: depth-{k} word of length {len(w)} is not the identity"
    return None


def _balanced_word(leaves) -> str:
    layer = list(leaves)
    while len(layer) > 1:
        layer = [commutator_word(layer[i], layer[i + 1])
                 for i in range(0, len(layer), 2)]
    return layer[0]


def verify_solvability(q: int, samples: int = 50, witness_budget: int = 500,
                       base_maxlen: int = 3, seed: int = 0,
                       jobs: int = 1) -> SolvabilityReport:
    """Depth-k commutator trees evaluate to I; search one level down for life."""
    t0 = time.perf_counter()
    e_phi, k = solvability_bound(q)
    tables = _tables(q)

    args = [(i, s, q, k, base_maxlen)
            for i, s in enumerate(_sample_seeds(seed, samples))]
    upper_failures = [m for m in _pmap(_job_tree_identity, args, jobs) if m]

    # structured candidates first (all generator-letter leaf tuples), then
    # random trees up to the budget; first non-identity word wins
    witness = None
    tried = 0
    arity = 1 << (k - 1)
    candidates = (_balanced_word(t) for t in
                  itertools.product(("a", "b"), repeat=arity))
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
        q=q, e_phi=e_phi, k=k, upper_ok=not upper_failures,
        trees_checked=samples, witness=witness, witness_tried=tried,
        witness_budget=witness_budget, seed=seed,
        wall_time=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# the commutative square

def _job_square(args):
    idx, sseed, q, max_len = args
    rng = random.Random(sseed)
    w = random_reduced_word(rng, max_len)
    if not commutative_square_check(w, _sctx(q)):
        return f"sample {idx}: square does not commute for word {w!r}"
    return None


def verify_square(q: int, samples: int = 100, max_len: int = 8, seed: int = 0,
                  jobs: int = 1) -> VerificationReport:
    """Quotient-then-specialize equals specialize-then-quotient on sampled words."""
    t0 = time.perf_counter()
    _tables(q)  # commutative_square_check evaluates on the kernel tables too
    args = [(i, s, q, max_len) for i, s in enumerate(_sample_seeds(seed, samples))]
    failures = [m for m in _pmap(_job_square, args, jobs) if m]
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


def _series(k: int) -> SeriesContext:
    return _memo(("series", _layer_m(k)), lambda: SeriesContext(_layer_m(k)))


def _job_layer(args):
    idx, sseed, k = args
    d = 1 << (k - 2)
    samp = sample_layer_element(random.Random(sseed), k, _series(k))
    sigma_ok = kernels.eval_is_identity(samp.word, kernels.sigma_tables(2 * d))
    row = {"k": k, "sample": idx, "word_length": len(samp.word),
           "valuation": samp.valuation, "certified": samp.certified,
           "sigma_ok": sigma_ok}
    msg = None
    if samp.valuation < d:
        msg = f"k={k} sample {idx}: valuation {samp.valuation} < {d}"
    elif not sigma_ok:
        msg = f"k={k} sample {idx}: coefficients escape Sigma^{2 * d}"
    return row, msg, samp.word


def verify_derived_layers(ks=(2, 3, 4), samples: int = 100, seed: int = 0,
                          jobs: int = 1, cross_check: int = 2) -> VerificationReport:
    """Sampled depth-k elements: valuation >= 2^(k-2), coefficients in Sigma^(2^(k-1)).

    Both sides run in quotients; the first cross_check samples at k = 2, 3 are
    re-verified against the exact matrix predicate.
    """
    t0 = time.perf_counter()
    failures = []
    rows = []
    checks = 0
    free_ctx = _memo("free", lambda: GroupContext("free"))

    for k in ks:
        # the exact-matrix path is cheap at k=2 and ~15 s per element at k=3
        crossings = cross_check if k == 2 else (1 if k == 3 else 0)
        _series(k)
        kernels.sigma_tables(1 << (k - 1))
        args = [(i, s, k) for i, s in enumerate(_sample_seeds(seed + k, samples))]
        for idx, (row, msg, word) in enumerate(_pmap(_job_layer, args, jobs)):
            rows.append(row)
            checks += 1
            if msg:
                failures.append(msg)
            if idx < crossings:
                g = free_ctx.eval_word(word)
                checks += 1
                if not check_derived_layer(g, k):
                    failures.append(f"k={k} sample {idx}: exact predicate disagrees")
                if row["certified"] and t1_valuation(g) != row["valuation"]:
                    failures.append(f"k={k} sample {idx}: exact valuation "
                                    f"!= series valuation {row['valuation']}")

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


_INV_LETTER = {"a": "A", "A": "a", "b": "B", "B": "b"}


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
            if last and ch == _INV_LETTER[last]:
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

def _job_normal_form(args):
    idx, sseed, max_len = args
    ctx = _memo("metabelian", lambda: GroupContext("metabelian"))
    rng = random.Random(sseed)
    w1 = random_reduced_word(rng, max_len)
    w2 = random_reduced_word(rng, max_len)
    M1, M2 = ctx.eval_word(w1), ctx.eval_word(w2)
    if not (check_row_fixed(M1) and check_row_fixed(M2)):
        return f"sample {idx}: row (1-x, 1-y) moved"
    nf1, nf2 = normal_form(M1), normal_form(M2)
    predicted = product_normal_form_rule(nf1, nf2)
    direct = normal_form(M1.mul(M2))
    if predicted != direct:
        return f"sample {idx}: product rule mismatch for {w1!r} * {w2!r}"
    if not predicted.constraint_holds():
        return f"sample {idx}: lambda constraint != 1 - u1*u2"
    return None


def verify_normal_forms(samples: int = 200, max_len: int = 10, seed: int = 0,
                        jobs: int = 1) -> VerificationReport:
    """Row fixed by every word matrix; product normal form from the factors."""
    t0 = time.perf_counter()
    args = [(i, s, max_len) for i, s in enumerate(_sample_seeds(seed, samples))]
    failures = [m for m in _pmap(_job_normal_form, args, jobs) if m]
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
