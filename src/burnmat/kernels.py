"""Fast word evaluation in 2x2 matrices over (R/Sigma^D)[t,t^-1] or S(q)[t,t^-1].

A matrix entry is a Laurent polynomial in t whose coefficients live on the
monomial basis a^r b^s (r+s < D, a = 1-x, b = 1-y).  Multiplying by a basis
monomial is an index shift on that basis, so right-multiplying the running
product by a generator is a fixed integer linear map on the coefficients;
it changes one column of the product (a and A column 1, b and B column 0)
and keeps the other.  Two lanes compute the same thing:

  python  exact integer dicts, one letter at a time: the correctness oracle
          and the Sigma^D overflow fallback
  numpy   float64 [T, 2 rows, 2 columns, N] window, one dense BLAS product
          per step (a few window rows at a time), with a guard that keeps
          every value an integer below 2^52, so float64 holds it exactly
          (the default).  A step is a letter, on the column it changes, or
          at N <= PAIR_MAX_N (D <= 5) a pair of letters, on both columns

On S(q) tables both lanes take the I(q)Sigma lattice's mod_step (the
lattice contract is in the ideals module docstring): the python lane after
every letter, the numpy lane when its guard trips.  It keeps each vector's
coset and every value below q (see the python lane), so no S(q) run can
overflow.  On Sigma^D tables (q = 0, truncation only) the numpy lane raises
KernelOverflow before a value could pass the guard; eval_word_quotient
falls back to the python lane and counts it in FALLBACKS under the table
label (Sigma12).  Both lanes reduce canonically through the tables' lattice
(reduce, reduce_rows) before they hand out a result: this module holds no
reduction of its own.
eval_word_quotient takes one word's value; least_identity_power runs a lane
once over w, w, w, ... to find w's order.

Every table is built one way, from a generator set (_letters): the terms
of the four letters and, at N <= PAIR_MAX_N, of their 16 products, and one
step table that builds a letter's or a pair's matrix from its terms.
tables_for(sctx, at_t1=True) gives the t = 1 tables, built so from the
generators of F(S) (t = 1), on which both lanes evaluate in S(q) itself, one
t-slice per letter however long the word.  The exponent suite uses them;
entries_at_t1 sums a full S(q)[t,t^-1] result over t instead.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache

import numpy as np

from .ideals import IdealLattice, SContext, _prime_power, _shift_maps
from .rings import tri_dim

# no numba lane exists; perfbench reads this name
HAS_NUMBA = False

LANES = ("python", "numpy")
# every integer of magnitude up to 2^53 is a float64
FLOAT_EXACT = 2 ** 53
# OpenBLAS splits a product m x k by k x n over threads once m*n*k passes
# 2^18.  With as many busy processes as cores (--jobs 2 on two cores) those
# threads wait on each other: 60 order scans at q = 8 took 24-36 s in place
# of 1.4 s.  So the numpy lane multiplies a few window rows at a time, below
# that size.
SERIAL_MNK = 2 ** 18
# At small N a letter's product takes a few microseconds and the numpy calls
# around it cost more, so the lane steps by pairs of letters, one product
# each, on tables with N <= PAIR_MAX_N basis coefficients (D <= 5).  On
# 400-letter random words (2-core x86 VM, best of 5) pairs took S(2) from 7.8
# to 4.5 us per letter, S(4) from 12-13 to 8.3 and S(4) at t = 1 from 4.5 to
# 2.2, and one `trees` benchmark pass from 0.15 to 0.10 s.  Above, they gain
# less for more memory: S(7) (N = 28) went from 18-19 to 15.4 us for 0.86 MiB
# of pair matrices, and at N = 91 (D = 13) pairs were slower, 82-97 against
# 132-162 us.
PAIR_MAX_N = 15

# overflow fallbacks to the python lane in this process, by table label
FALLBACKS: Counter = Counter()


class KernelOverflow(RuntimeError):
    """A Sigma^D run on the numpy lane would pass its float64 guard; retry on the python lane.

    S(q) tables never raise it: their lanes keep every value below q.
    """


def get_lane(lane: str | None = None) -> str:
    if lane is None:
        return "numpy"
    if lane not in LANES:
        raise ValueError(f"unknown kernel lane {lane!r}; expected one of {LANES}")
    return lane


# ---------------------------------------------------------------------------
# tables: basis shift maps, generator term lists, step matrices, optional lattice

@dataclass(frozen=True)
class QuotientTables:
    """Everything a lane needs: q is 0 for plain Sigma^D truncation."""

    q: int
    D: int
    N: int
    # maps[m] = (src_idx, dst_idx): multiply by a^r b^s sends coeff[src] to coeff[dst]
    maps: tuple
    # gen_terms[ch][(l, j)] = ((dt, map_id, coeff), ...) for the matrix of letter ch
    gen_terms: dict
    # the I(q)Sigma lattice that reduces S(q) values, None for plain truncation
    lattice: IdealLattice | None
    one: tuple
    growth: int
    # steps[w] = (cols, dt_min, M): the numpy lane's step for right
    # multiplication by the letter w or, at N <= PAIR_MAX_N, the pair w
    steps: _StepTable
    # built from the t = 1 generators: S(q) itself, see _letters
    at_t1: bool = False

    @property
    def label(self) -> str:
        if not self.q:
            return f"Sigma{self.D}"
        return f"S{self.q}@t1" if self.at_t1 else f"S{self.q}"

    @property
    def guard_limit(self) -> int:
        return FLOAT_EXACT // (2 * self.growth)

    def reduce_vec(self, vec: list) -> tuple:
        return self.lattice.reduce(vec)


def _matrix_terms(M, D: int) -> dict:
    """{(l, j): ((dt, map_id, coeff), ...)} of an exact Laurent matrix truncated to
    R/Sigma^D; map_id is the basis monomial's position, which indexes _shift_maps."""
    per_entry = {}
    for e, f in enumerate(M.entries()):
        terms = []
        for dt, g in f.t_coefficients().items():
            for idx, c in enumerate(g.to_truncated(D)):
                if c:
                    terms.append((dt, idx, c))
        per_entry[divmod(e, 2)] = tuple(terms)
    return per_entry


def _step_matrix(terms: dict, maps: tuple, N: int, cols: tuple) -> tuple:
    """(cols, dt_min, M): right multiplication by a matrix whose other columns are e_j.

    Only the columns in cols change: M is a dense float64
    [2N, (span + 1) len(cols) N] matrix, and row l*N + src, column
    (o len(cols) + c) N + dst holds the coefficient that sends basis
    coefficient src of entry (i, l) at t to basis coefficient dst of entry
    (i, cols[c]) at t + dt_min + o.
    """
    dts = [dt for l in range(2) for j in cols for dt, _, _ in terms[(l, j)]]
    dt_min = min(dts)
    M = np.zeros((2 * N, max(dts) - dt_min + 1, len(cols), N))
    for l in range(2):
        for c, j in enumerate(cols):
            for dt, mp, v in terms[(l, j)]:
                src, dst = maps[mp]
                M[l * N + src, dt - dt_min, c, dst] += v
    return cols, dt_min, M.reshape(2 * N, -1)


class _StepTable(dict):
    """steps[w]: the step of the letter or pair w, built from terms[w] on
    first use.  A letter's step is on the one column it changes, a pair's on
    both: bb and BB change one column too, but over a t-span of 2, where the
    lane's kept-column copy zeroes one edge row only.  A cancelling pair (aA,
    Aa, bB, Bb) has terms None, the identity, and gives None."""

    def __init__(self, terms: dict, D: int):
        super().__init__()
        self.terms, self.maps, self.N = terms, _shift_maps(D), tri_dim(D)

    def __missing__(self, w: str):
        terms, step = self.terms[w], None
        if terms is not None:
            # a letter changes the one column that is not e_j
            cols = (0, 1) if len(w) == 2 else tuple(
                j for j in range(2) if terms[(1 - j, j)] or terms[(j, j)] != ((0, 0, 1),))
            step = _step_matrix(terms, self.maps, self.N, cols)
        self[w] = step
        return step


@cache
def _letters(D: int, at_t1: bool = False) -> tuple:
    """(gen_terms, steps, growth) of the four generators over R/Sigma^D.

    They depend on D alone, so every table of one D shares them: Sigma^D, and
    S(q) at q = 4, 5 (D = 5) or at q = 8, 9 (D = 13).  The terms of the
    letters and, at N <= PAIR_MAX_N, of the 16 products of two generators
    are computed here once, so forked workers inherit them; steps builds the
    letters' matrices now and a pair's on first use, so that a process holds
    only the pair matrices its words need.  growth is the largest L1 norm of
    the coefficients of a column's terms, over the letters and the pairs: an
    output coefficient sums a subset of them, all t-offsets together.

    at_t1 takes the generators of F(S), the t = 1 image: setting t = 1 is a
    ring map S(q)[t,t^-1] -> S(q) that commutes with truncation and with
    lattice reduction, so a lane run on these tables returns, at t = 0,
    exactly entries_at_t1 of the full run, one t-slice wide.  Their growth
    bounds their own terms, which the lanes multiply by.
    """
    from .groups import group_context

    gens = group_context("metabelian" if at_t1 else "free").gens
    gen_terms = {ch: _matrix_terms(M, D) for ch, M in gens.items()}
    terms = dict(gen_terms)
    if tri_dim(D) <= PAIR_MAX_N:
        terms.update((x + y, None if x == y.swapcase() else _matrix_terms(gens[x] @ gens[y], D))
                     for x in gens for y in gens)
    growth = max(sum(abs(c) for l in range(2) for _, _, c in per[(l, j)])
                 for per in filter(None, terms.values()) for j in range(2))
    steps = _StepTable(terms, D)
    for ch in gens:
        steps[ch]  # letters now, pairs on first use
    return gen_terms, steps, growth


def _build_tables(D: int, q: int, lattice: IdealLattice | None,
                  at_t1: bool = False) -> QuotientTables:
    gen_terms, steps, growth = _letters(D, at_t1)
    N = tri_dim(D)
    one = (1,) + (0,) * (N - 1)
    return QuotientTables(q=q, D=D, N=N, maps=_shift_maps(D), gen_terms=gen_terms,
                          lattice=lattice, one=one if lattice is None else lattice.reduce(one),
                          growth=growth, steps=steps, at_t1=at_t1)


_CACHE: dict = {}


def sigma_tables(D: int) -> QuotientTables:
    """Tables for (R/Sigma^D)[t,t^-1]; no lattice reduction, truncation only."""
    if D < 2:
        # at D = 1 the generator a is the identity, and D = 0 is the zero ring
        raise ValueError(f"Sigma^D tables need D >= 2, got D = {D}")
    key = ("sigma", D)
    if key not in _CACHE:
        _CACHE[key] = _build_tables(D, 0, None)
    return _CACHE[key]


def tables_for(sctx: SContext, at_t1: bool = False) -> QuotientTables:
    """Tables for S(q)[t,t^-1] with canonical reduction by the I(q)Sigma lattice.

    at_t1 gives the t = 1 tables, which evaluate words in S(q) itself.
    """
    key = ("t1" if at_t1 else "s", sctx.params.q)
    if key not in _CACHE:
        _CACHE[key] = _build_tables(sctx.params.D, sctx.params.q, sctx.lattice, at_t1)
    return _CACHE[key]


# ---------------------------------------------------------------------------
# result container

@dataclass(frozen=True)
class QuotientMatrix:
    """Entries as {t_exponent: coefficient tuple}, canonically reduced, zeros dropped."""

    q: int
    D: int
    entries: tuple  # (e11, e12, e21, e22)

    def is_identity(self, tables: QuotientTables) -> bool:
        one = {0: tables.one}
        return (self.entries[0] == one and self.entries[3] == one
                and not self.entries[1] and not self.entries[2])


def _normalize(raw_entries, tables: QuotientTables) -> QuotientMatrix:
    """A lane's output, already canonically reduced, with zero vectors dropped."""
    out = tuple({t: tuple(v) for t, v in ent.items() if any(v)} for ent in raw_entries)
    return QuotientMatrix(q=tables.q, D=tables.D, entries=out)


def entries_at_t1(res: QuotientMatrix, tables: QuotientTables) -> list:
    """Substitute t = 1: sum each entry's coefficient vectors, canonically reduced."""
    out = []
    for ent in res.entries:
        acc = [0] * tables.N
        for vec in ent.values():
            for m, c in enumerate(vec):
                acc[m] += c
        out.append(tables.reduce_vec(acc))
    return out


# ---------------------------------------------------------------------------
# python lane: dict t -> int list, exact
#
# Both lanes are generators over word, word, word, ...: after the copies
# listed in stops (increasing, 1 by default) they reduce the running product
# canonically and yield its entries, then carry on from the reduced state.
#
# On S(q) tables the lattice's mod step keeps each vector's coset, takes the
# pivot columns below q and leaves the rest exact: the constant term alone
# (ideals module docstring).  That is the coefficient of the word's image at
# x = y = 1, [[t^n, 0], [1 - t^n, 1]] for b-exponent sum n, so it is -1, 0
# or 1, and every S(q) value is below q.

def _eval_python(word: str, tables: QuotientTables, stops=(1,)):
    N = tables.N
    lattice = tables.lattice
    one = [0] * N
    one[0] = 1
    cur = [{0: one[:]}, {}, {}, {0: one[:]}]
    for copy in range(1, stops[-1] + 1):
        for ch in word:
            terms = tables.gen_terms[ch]
            new = [{}, {}, {}, {}]
            for i in range(2):
                for j in range(2):
                    acc = new[2 * i + j]
                    for l in range(2):
                        src_ent = cur[2 * i + l]
                        if not src_ent:
                            continue
                        for dt, mp, c in terms[(l, j)]:
                            src_idx, dst_idx = tables.maps[mp]
                            for t, vec in src_ent.items():
                                row = acc.get(t + dt)
                                if row is None:
                                    row = [0] * N
                                    acc[t + dt] = row
                                for s, d in zip(src_idx, dst_idx):
                                    v = vec[s]
                                    if v:
                                        row[d] += c * v
            if lattice is not None:
                # zero vectors are dropped, so a long run does not carry dead t-slices
                new = [{t: r for t, v in ent.items() if any(r := lattice.mod_step(v))}
                       for ent in new]
            cur = new
        if copy in stops:
            if lattice is not None:
                cur = [{t: r for t, v in ent.items() if any(r := tables.reduce_vec(v))}
                       for ent in cur]
            yield cur


# ---------------------------------------------------------------------------
# numpy lane: two float64 [T, 2 rows, 2 columns, N] buffers over a trimmed t-window
#
# Exactness: a letter changes one column j of the running product, a pair
# both.  A step's new coefficients are the float64 product of the live
# window, [2w, 2N], with its matrix, [2N, (span+1) len(cols) N], in row chunks
# of at most SERIAL_MNK multiply-adds, and the span+1 offset blocks are added
# into place; a letter's other column is copied.  Every output coefficient
# sums one product c * v per term of its column (each shift map is
# injective), so every product and partial sum that BLAS or the block adds
# form, in any order, is an integer of magnitude at most growth * max|v|:
# growth bounds letters and pairs alike.  The lane runs a step only from
# max|v| <= guard_limit = 2^53 // (2 growth), so all of them lie below 2^52
# and float64 holds each exactly.  It carries a proven bound, bnd *= growth
# per step, and measures max|v| only when bnd passes the limit.  When the
# measured value passes it too, Sigma^D tables raise KernelOverflow; S(q)
# tables reduce the window through the lattice on an int64 copy, whose mod
# step takes every value below q (see the python lane).  On Sigma^D tables a
# pair whose step could pass the guard runs as its two letters, so that
# KernelOverflow names the first letter after which the values the lane
# holds pass it.  A cancelling pair (aA, Aa, bB, Bb) takes no step: the lane
# never holds the value between its letters.  At a stop the lane reduces the
# window the same way and hands out canonical int64 vectors; a run goes on
# from them.
#
# The window is re-based to row 0 on every step, so T only has to hold the
# live window: it starts at one copy's 1 + sum of spans and doubles on demand.

def _buffers(T: int, N: int) -> list:
    return [np.zeros((T, 2, 2, N)) for _ in range(2)]


def _steps(word: str, tables: QuotientTables):
    """One copy of word as (k, step), k the index of the step's first letter:
    at N <= PAIR_MAX_N pairs from the left, then a last odd letter, else
    letters.  A cancelling pair is the identity and takes no step.  A
    generator, so that a long word holds no list of its steps."""
    steps = tables.steps
    n = 2 if tables.N <= PAIR_MAX_N else 1
    for k in range(0, len(word), n):
        step = steps[word[k:k + n]]
        if step is not None:
            yield k, step


def _eval_numpy(word: str, tables: QuotientTables, stops=(1,)):
    N = tables.N
    steps = tables.steps
    T = 1 + sum(M.shape[1] // (len(cols) * N) - 1 for _, (cols, _, M) in _steps(word, tables))
    cur, nxt = _buffers(T, N)
    cur[0, 0, 0, 0] = cur[0, 1, 1, 0] = 1
    lo = hi = 0  # live rows of cur
    t0 = 0       # t-exponent of row 0 of cur
    bnd = 1      # proven bound on max|v| over the window
    limit, growth = tables.guard_limit, tables.growth
    lattice = tables.lattice
    for copy in range(1, stops[-1] + 1):
        for k, step in _steps(word, tables):
            if lattice is None and len(step[0]) == 2 and bnd * growth > limit:
                # a pair that could pass the guard runs as its two letters, so
                # that KernelOverflow names the letter
                run = ((k, steps[word[k]]), (k + 1, steps[word[k + 1]]))
            else:
                run = ((k, step),)
            for k, (cols, dt_min, M) in run:
                nc = len(cols)
                w = hi - lo + 1
                span = M.shape[1] // (nc * N) - 1
                nw = w + span
                if nw > T:
                    T = max(nw, 2 * T)
                    grown, nxt = _buffers(T, N)
                    grown[:w] = cur[lo:hi + 1]
                    cur, t0, lo, hi = grown, t0 + lo, 0, w - 1
                win = cur[lo:hi + 1]
                flat, chunk = win.reshape(2 * w, 2 * N), max(1, SERIAL_MNK // M.size)
                prod = np.empty((2 * w, M.shape[1]))
                for r in range(0, 2 * w, chunk):
                    np.matmul(flat[r:r + chunk], M, out=prod[r:r + chunk])
                prod = prod.reshape(w, 2, span + 1, nc, N)
                out = nxt[:nw]
                c = slice(cols[0], cols[0] + nc)
                out[:w, :, c] = prod[:, :, 0]
                if span:
                    out[w:, :, c] = 0
                    for o in range(1, span + 1):
                        out[o:o + w, :, c] += prod[:, :, o]
                if nc == 1:
                    # the kept column lands at offset -dt_min; a letter's span
                    # is at most 1, so at most one edge row is 0
                    j = 1 - cols[0]
                    s = -dt_min
                    out[s:s + w, :, j] = win[:, :, j]
                    if span:
                        out[0 if s else w, :, j] = 0
                t0 += lo + dt_min
                lo, hi = 0, nw - 1
                trim = span
                bnd *= growth
                if bnd > limit:
                    bnd = int(np.abs(out).max())
                    if bnd > limit:
                        if lattice is None:
                            raise KernelOverflow(f"{tables.label}: coefficients exceeded the "
                                                 f"float64 guard at letter "
                                                 f"{(copy - 1) * len(word) + k}")
                        exact = out.astype(np.int64)
                        lattice.reduce_rows(exact)
                        out[:] = exact
                        bnd, trim = lattice.modulus, True
                # trim t-slices that are zero in all four entries: only a t-shift
                # or a reduction can leave one, as the steps are invertible
                if trim:
                    while lo < hi and not np.count_nonzero(out[lo]):
                        lo += 1
                    while hi > lo and not np.count_nonzero(out[hi]):
                        hi -= 1
                cur, nxt = nxt, cur
        if copy in stops:
            exact = cur[lo:hi + 1].astype(np.int64)
            if lattice is not None:
                lattice.reduce_rows(exact)
                cur[lo:hi + 1] = exact
                bnd = lattice.modulus
            out = [{}, {}, {}, {}]
            for r, rows in enumerate(exact.tolist(), t0 + lo):
                for i in range(2):
                    for l in range(2):
                        if any(rows[i][l]):
                            out[2 * i + l][r] = rows[i][l]
            yield out


# ---------------------------------------------------------------------------
# entry points

def eval_word_quotient(word: str, tables: QuotientTables,
                       lane: str | None = None) -> QuotientMatrix:
    """Evaluate a word left to right; Sigma^D tables fall back to the python lane on overflow."""
    if get_lane(lane) == "numpy":
        try:
            return _normalize(next(_eval_numpy(word, tables)), tables)
        except KernelOverflow:
            FALLBACKS[tables.label] += 1
    return _normalize(next(_eval_python(word, tables)), tables)


def eval_is_identity(word: str, tables: QuotientTables, lane: str | None = None) -> bool:
    return eval_word_quotient(word, tables, lane=lane).is_identity(tables)


def least_identity_power(word: str, tables: QuotientTables, cap: int,
                         lane: str | None = None) -> int | None:
    """Least p^j <= cap with word^(p^j) = I over S(q)[t,t^-1], p the prime of q; else None.

    One run of the lane over word, word, word, ..., tested for the identity
    only after copies 1, p, p^2, ...  These are the divisors of q and of
    p^2 q that order_in_G asks about, and word^n = I implies
    word^(p*n) = I, so the first hit is the least.
    """
    if not tables.q:
        raise ValueError("least_identity_power needs S(q) tables, not plain truncation")
    p = _prime_power(tables.q)[0]
    stops = [p ** j for j in range(cap.bit_length()) if p ** j <= cap]
    if not stops:
        return None
    run = _eval_numpy if get_lane(lane) == "numpy" else _eval_python
    return next((d for d, raw in zip(stops, run(word, tables, stops))
                 if _normalize(raw, tables).is_identity(tables)), None)
