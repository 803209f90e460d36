"""Fast word evaluation in 2x2 matrices over (R/Sigma^D)[t,t^-1] or S(q)[t,t^-1].

A matrix entry is a Laurent polynomial in t whose coefficients live on the
monomial basis a^r b^s (r+s < D, a = 1-x, b = 1-y).  Multiplying by a basis
monomial is an index shift on that basis, so right-multiplying the running
product by one generator, or by the product xy of two, is a fixed integer
linear map on the coefficients.  Two lanes compute the same thing:

  python  exact integer dicts, one letter at a time: the correctness oracle
          and the Sigma^D overflow fallback
  numpy   int64 [2 rows, T, 2N] window, one sparse gather and segment-sum
          per two letters (an odd last letter alone), with an overflow guard
          (the default)

On S(q) tables both lanes take the I(q)Sigma lattice's mod_step (the
lattice contract is in the ideals module docstring): the python lane after
every letter, the numpy lane when its guard trips.  It keeps each vector's
coset and every value below q (see the python lane), so no S(q) run can
overflow.  On Sigma^D tables (q = 0, truncation only) the numpy lane raises
KernelOverflow before a value could leave int64; eval_word_quotient falls
back to the python lane and counts it in FALLBACKS under the table label
(Sigma12).  Both lanes reduce canonically through the tables' lattice
(reduce, reduce_rows) before they hand out a result: this module holds no
reduction of its own.
eval_word_quotient takes one word's value; least_identity_power runs a lane
once over w, w, w, ... to find w's order.

tables_for(sctx, at_t1=True) gives the t = 1 tables: the S(q) tables with
every t-shift set to 0, on which both lanes evaluate in S(q) itself, one
t-slice per step however long the word.  The exponent suite uses them;
entries_at_t1 sums a full S(q)[t,t^-1] result over t instead.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .ideals import IdealLattice, SContext, _prime_power, _shift_maps
from .rings import tri_dim

# no numba lane exists; perfbench reads this name
HAS_NUMBA = False

LANES = ("python", "numpy")
INT64_MAX = 2 ** 63 - 1

# overflow fallbacks to the python lane in this process, by table label
FALLBACKS: Counter = Counter()


class KernelOverflow(RuntimeError):
    """A Sigma^D run on the numpy lane would leave int64; retry on the python lane.

    S(q) tables never raise it: their lanes keep every value below q.
    """


def get_lane(lane: str | None = None) -> str:
    if lane is None:
        return "numpy"
    if lane not in LANES:
        raise ValueError(f"unknown kernel lane {lane!r}; expected one of {LANES}")
    return lane


# ---------------------------------------------------------------------------
# tables: basis shift maps, generator term lists, optional reduction lattice

@dataclass(frozen=True)
class QuotientTables:
    """Everything a lane needs: q is 0 for plain Sigma^D truncation."""

    q: int
    D: int
    N: int
    # maps[m] = (src_idx, dst_idx): multiply by a^r b^s sends coeff[src] to coeff[dst]
    maps: tuple
    # gen_terms[w][(l, j)] = ((dt, map_id, coeff), ...) for the matrix of w, a
    # generator letter or a product of two
    gen_terms: dict
    # the I(q)Sigma lattice that reduces S(q) values, None for plain truncation
    lattice: IdealLattice | None
    one: tuple
    growth: int
    # steps[w]: the numpy lane's sparse form of right multiplication by w
    steps: dict
    # every generator term's t-shift collapsed to 0: S(q) itself, see _at_t1
    at_t1: bool = False

    @property
    def label(self) -> str:
        if not self.q:
            return f"Sigma{self.D}"
        return f"S{self.q}@t1" if self.at_t1 else f"S{self.q}"

    @property
    def guard_limit(self) -> int:
        return INT64_MAX // (2 * self.growth)

    def reduce_vec(self, vec: list) -> tuple:
        return self.lattice.reduce(vec)


@dataclass(frozen=True)
class LetterStep:
    """Right multiplication by one or two generators on the numpy lane's layout.

    Row i of the running product is a [T, 2N] array whose column l*N + n holds
    basis coefficient n of entry (i, l).  The step sends (column l, index
    src) at t to (column j, index dst) at t + dt.  Pairs are sorted by
    destination: pairs starts[k] up to starts[k+1] all land on destination k.
    The arrays are int32, which holds every value (src < 2N, |coef| <= growth,
    starts < pairs); products are formed in the int64 gather.
    """

    src: np.ndarray     # source column l*N + n of each pair
    coef: np.ndarray    # integer coefficient of each pair
    starts: np.ndarray  # first pair of each destination segment
    dt_min: int
    span: int           # dt_max - dt_min: how far one step widens the window
    # (dt - dt_min, first segment, end segment, destination columns) per dt;
    # the columns are a slice when contiguous, else an index array
    blocks: tuple


def _letter_step(terms: dict, maps: tuple, N: int) -> LetterStep:
    width = 2 * N
    flat = [(l, j, dt, mp, c) for (l, j), per in terms.items() for dt, mp, c in per]
    dts = [dt for _, _, dt, _, _ in flat]
    dt_min = min(dts)
    lens = [len(maps[mp][0]) for _, _, _, mp, _ in flat]

    def per_pair(vals):
        return np.repeat(np.array(vals, dtype=np.int64), lens)

    src_idx = np.concatenate([maps[mp][0] for _, _, _, mp, _ in flat])
    dst_idx = np.concatenate([maps[mp][1] for _, _, _, mp, _ in flat])
    # key = destination * width + source, destination = (dt - dt_min) * width + j*N + dst_idx
    base = [((dt - dt_min) * width + j * N) * width + l * N for l, j, dt, _, _ in flat]
    keys = per_pair(base) + dst_idx * width + src_idx
    coefs = per_pair([c for _, _, _, _, c in flat])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    coef = np.add.reduceat(coefs[order], first)  # equal pairs summed
    keep = coef != 0
    dst, src = np.divmod(keys[first][keep], width)
    starts = np.flatnonzero(np.concatenate(([True], dst[1:] != dst[:-1])))
    off, col = np.divmod(dst[starts], width)
    blocks = []
    for o in sorted(set(off.tolist())):
        a, b = np.searchsorted(off, [o, o + 1]).tolist()
        cols = col[a:b]
        if cols[-1] - cols[0] == b - a - 1:
            cols = slice(int(cols[0]), int(cols[-1]) + 1)
        blocks.append((o, a, b, cols))
    return LetterStep(src=src.astype(np.int32), coef=coef[keep].astype(np.int32),
                      starts=starts.astype(np.int32), dt_min=dt_min,
                      span=max(dts) - dt_min, blocks=tuple(blocks))


def _matrix_terms(M, D: int) -> dict:
    """{(l, j): ((dt, map_id, coeff), ...)} of an exact Laurent matrix truncated to
    R/Sigma^D; map_id is the basis monomial's position, which indexes _shift_maps."""
    per_entry = {}
    for e, f in enumerate(M.entries()):
        terms = []
        for dt, g in f.t_coefficients().items():
            for idx, c in enumerate(g.to_truncated(D).coeffs):
                if c:
                    terms.append((dt, idx, c))
        per_entry[divmod(e, 2)] = tuple(terms)
    return per_entry


def _build_tables(D: int, q: int, lattice: IdealLattice | None) -> QuotientTables:
    from .groups import _free_generators

    N = tri_dim(D)
    maps = _shift_maps(D)
    gens = _free_generators()
    # truncation R -> R/Sigma^D is a ring map, so the step of a pair xy is
    # the step of x followed by the step of y
    mats = dict(gens, **{x + y: gens[x].mul(gens[y]) for x in gens for y in gens})
    gen_terms = {w: _matrix_terms(M, D) for w, M in mats.items()}
    growth = 1
    for per_entry in gen_terms.values():
        for j in range(2):
            tot = sum(abs(c) for l in range(2) for (_, _, c) in per_entry[(l, j)])
            growth = max(growth, tot)
    steps = {w: _letter_step(terms, maps, N) for w, terms in gen_terms.items()}
    one = (1,) + (0,) * (N - 1)
    return QuotientTables(q=q, D=D, N=N, maps=maps, gen_terms=gen_terms, lattice=lattice,
                          one=one if lattice is None else lattice.reduce(one), growth=growth,
                          steps=steps)


def _at_t1(tables: QuotientTables) -> QuotientTables:
    """The same tables with every generator term's t-shift collapsed to 0.

    Setting t = 1 is a ring map S(q)[t,t^-1] -> S(q) that commutes with
    truncation and with lattice reduction, so a lane run on these tables
    returns, at t = 0, exactly entries_at_t1 of the run on the full tables,
    while its window stays one t-slice wide.  Terms of one entry that share
    a shift map are merged into one, with the sum of their coefficients;
    growth is kept from the unmerged terms, and |c1 + c2| <= |c1| + |c2|, so
    it still bounds every column and the numpy lane's guard stays sound.
    """
    def collapse(per):
        acc = Counter()
        for _, mp, c in per:
            acc[mp] += c
        return tuple((0, mp, c) for mp, c in acc.items() if c)

    gen_terms = {w: {e: collapse(per) for e, per in terms.items()}
                 for w, terms in tables.gen_terms.items()}
    steps = {w: _letter_step(terms, tables.maps, tables.N) for w, terms in gen_terms.items()}
    return dataclasses.replace(tables, gen_terms=gen_terms, steps=steps, at_t1=True)


_CACHE: dict = {}


def sigma_tables(D: int) -> QuotientTables:
    """Tables for (R/Sigma^D)[t,t^-1]; no lattice reduction, truncation only."""
    key = ("sigma", D)
    if key not in _CACHE:
        _CACHE[key] = _build_tables(D, 0, None)
    return _CACHE[key]


def tables_for(sctx: SContext, at_t1: bool = False) -> QuotientTables:
    """Tables for S(q)[t,t^-1] with canonical reduction by the I(q)Sigma lattice.

    at_t1 gives the t = 1 tables, which evaluate words in S(q) itself.
    """
    q = sctx.params.q
    if ("s", q) not in _CACHE:
        _CACHE["s", q] = _build_tables(sctx.params.D, q, sctx.lattice)
    if at_t1 and ("t1", q) not in _CACHE:
        _CACHE["t1", q] = _at_t1(_CACHE["s", q])
    return _CACHE["t1" if at_t1 else "s", q]


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
# numpy lane: two [2 rows, T, 2N] int64 buffers over a trimmed t-window
#
# Exactness: a step is right multiplication by one generator or by the
# product of two.  An output coefficient sums one product c * v per term
# (dt, map, c) of the step's column, because each shift map is injective, so
# every pair product and every partial sum (in reduceat or in the block adds)
# is at most growth * max|v|, growth being the largest column L1 over all
# steps.  A step starts from max|v| <= guard_limit, so nothing exceeds 2^62
# before the guard looks.  When the guard trips, Sigma^D tables raise
# KernelOverflow; S(q) tables reduce the window through the lattice, whose
# mod step takes every value below q (see the python lane), far below the
# guard.  At a stop the lane reduces the window the same way and hands out
# canonical vectors; a run goes on from them.
#
# The window is re-based to row 0 on every step, so T only has to hold the
# live window: it starts at one copy's 1 + sum of spans and doubles on demand.

def _buffers(T: int, N: int) -> list:
    """Two zeroed buffers, each as (per-entry view for reduction, flat view for steps)."""
    bufs = [np.zeros((2, T, 2, N), dtype=np.int64) for _ in range(2)]
    return [(b, b.reshape(2, T, 2 * N)) for b in bufs]


def _eval_numpy(word: str, tables: QuotientTables, stops=(1,)):
    N = tables.N
    # two letters per step, an odd last letter alone; each copy is chunked on
    # its own, so the stops fall between steps
    chunks = [tables.steps[word[i:i + 2]] for i in range(0, len(word), 2)]
    T = 1 + sum(step.span for step in chunks)
    cur, nxt = _buffers(T, N)
    cur[0][0, 0, 0, 0] = 1
    cur[0][1, 0, 1, 0] = 1
    lo = hi = 0  # live rows of cur
    t0 = 0       # t-exponent of row 0 of cur
    limit = tables.guard_limit
    for copy in range(1, stops[-1] + 1):
        for k, step in enumerate(chunks):
            w = hi - lo + 1
            nw = w + step.span
            if nw > T:
                T = max(nw, 2 * T)
                grown, nxt = _buffers(T, N)
                grown[0][:, :w] = cur[0][:, lo:hi + 1]
                cur, t0, lo, hi = grown, t0 + lo, 0, w - 1
            out = nxt[1][:, :nw]
            out.fill(0)
            g = np.take(cur[1][:, lo:hi + 1], step.src, axis=2)
            g *= step.coef
            seg = np.add.reduceat(g, step.starts, axis=2)
            for off, a, b, cols in step.blocks:
                out[:, off:off + w, cols] += seg[:, :, a:b]
            t0 += lo + step.dt_min
            mags = np.abs(out).max(axis=(0, 2)).tolist()
            if max(mags) > limit:
                if not tables.q:
                    # name the step's last letter, counted over all copies
                    letter = (copy - 1) * len(word) + min(2 * k + 2, len(word)) - 1
                    raise KernelOverflow(f"{tables.label}: coefficients exceeded "
                                         f"int64 guard at letter {letter}")
                tables.lattice.reduce_rows(nxt[0][:, :nw])
                mags = np.abs(out).max(axis=(0, 2)).tolist()
            # trim t-slices that are zero in all four entries
            lo, hi = 0, nw - 1
            while lo < hi and not mags[lo]:
                lo += 1
            while hi > lo and not mags[hi]:
                hi -= 1
            cur, nxt = nxt, cur
        if copy in stops:
            if tables.q:
                tables.lattice.reduce_rows(cur[0][:, lo:hi + 1])
            out = [{}, {}, {}, {}]
            for i in range(2):
                for r in range(lo, hi + 1):
                    row = cur[1][i, r].tolist()
                    for l in range(2):
                        vec = row[l * N:(l + 1) * N]
                        if any(vec):
                            out[2 * i + l][t0 + r] = vec
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
