"""Lane-parallel word evaluation over quotient tables: agreement and fallback."""

import dataclasses
import functools
import itertools
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import burnmat.kernels as kernels
from burnmat import (
    GroupContext,
    IdealLattice,
    KernelOverflow,
    QuotientMatrix,
    SContext,
    entries_at_t1,
    eval_is_identity,
    eval_word_quotient,
    get_lane,
    random_reduced_word,
    random_zero_sum_word,
    sigma_tables,
    tables_for,
    word_inverse,
)
from test_ideals import _exact_reduce

LANES = ["python", "numpy"]
PAIRS = [x + y for x in "aAbB" for y in "aAbB"]
INT64_MAX = 2 ** 63 - 1


def test_lane_selection(monkeypatch):
    assert get_lane() == "numpy"
    assert get_lane("python") == "python"
    assert get_lane("numpy") == "numpy"
    # the environment does not select the lane
    monkeypatch.setenv("BURNMAT_KERNEL", "python")
    assert get_lane() == "numpy"
    for bad in ("numba", "auto", "bogus"):
        with pytest.raises(ValueError):
            get_lane(bad)


def test_lanes_agree_on_sigma_quotients():
    tables = sigma_tables(4)
    rng = random.Random(71)
    words = [random_reduced_word(rng, 12) for _ in range(15)]
    for w in words:
        results = [eval_word_quotient(w, tables, lane=lane) for lane in LANES]
        assert all(r == results[0] for r in results[1:])


def test_lanes_agree_on_cyclotomic_quotients(s3):
    tables = tables_for(s3)
    rng = random.Random(73)
    for _ in range(15):
        w = random_zero_sum_word(rng, 10)
        results = [eval_word_quotient(w, tables, lane=lane) for lane in LANES]
        assert all(r == results[0] for r in results[1:])


def test_inverse_words_evaluate_to_identity(s3):
    tables = tables_for(s3)
    rng = random.Random(79)
    for _ in range(10):
        w = random_reduced_word(rng, 10)
        assert eval_is_identity(w + word_inverse(w), tables)
        assert not eval_is_identity(w + word_inverse(w) + "a", tables)


def test_zero_sum_squares_vanish_over_s2(s2):
    tables = tables_for(s2)
    rng = random.Random(83)
    for _ in range(10):
        w = random_zero_sum_word(rng, 8)
        assert eval_is_identity(w * 2, tables)


def test_t1_entries_match_exact_quotient(s3, meta_ctx):
    tables = tables_for(s3)
    rng = random.Random(89)
    for _ in range(10):
        w = random_reduced_word(rng, 8)
        res = eval_word_quotient(w, tables)
        got = [tuple(v) for v in entries_at_t1(res, tables)]
        exact = [s3.reduce(f) for f in meta_ctx.eval_word(w).entries()]
        assert got == exact


def test_int64_overflow_raises_and_falls_back(monkeypatch):
    monkeypatch.setattr(kernels, "FALLBACKS", Counter())
    tables = sigma_tables(12)
    word = "ab" * 120
    with pytest.raises(KernelOverflow):
        next(kernels._eval_numpy(word, tables))
    via_numpy = eval_word_quotient(word, tables, lane="numpy")
    via_python = eval_word_quotient(word, tables, lane="python")
    assert via_numpy == via_python
    # S(q) values stay below q: the same word runs on the numpy lane
    for q in SCAN_QS:
        eval_word_quotient(word, tables_for(_sctx(q)))
        t1 = tables_for(_sctx(q), at_t1=True)
        assert eval_word_quotient(word, t1) == eval_word_quotient(word, t1, lane="python")
    assert kernels.FALLBACKS == Counter({"Sigma12": 1})


def _overflow_letter(word, tables):
    """The letter KernelOverflow names, checked to be the first after which
    the exact values pass the guard."""
    with pytest.raises(KernelOverflow) as exc:
        next(kernels._eval_numpy(word, tables))
    match = re.search(rf"^{tables.label}: .* at letter (\d+)$", str(exc.value))
    letter = int(match.group(1))
    top = [max(abs(c) for ent in next(kernels._eval_python(word[:n], tables))
               for vec in ent.values() for c in vec)
           for n in (letter, letter + 1)]
    assert top[0] <= tables.guard_limit < top[1]
    return letter


def test_kernel_overflow_names_the_letter():
    # the lane measures its window whenever its proven bound could pass the
    # guard, so it names the first letter after which the exact values do
    _overflow_letter("ab" * 120, sigma_tables(12))


def test_kernel_overflow_names_the_letter_inside_a_pair():
    # Sigma^5 steps by pairs, and runs a pair as its two letters once the pair
    # could pass the guard: a^n passes it at the second letter of a pair, and
    # one letter later after the pair Aa, which takes no step
    tables = sigma_tables(5)
    assert _pair_steps(tables)
    assert _overflow_letter("a" * 8000, tables) == 6543
    assert _overflow_letter("Aa" + "a" * 8000, tables) == 6545
    assert _overflow_letter("bab" + "a" * 8000, tables) == 6544


def test_guard_keeps_float64_exact():
    # a letter or pair run from max|v| <= guard_limit forms values of at most
    # growth * guard_limit, which must stay below 2^52 in every table: growth
    # bounds the L1 norm of every output coefficient's column of a letter or
    # pair matrix, over all its t-offsets
    for label in sorted({*TABLE_LABELS, *PAIRED_LABELS}):
        tables = _tables(label)
        assert 2 * tables.growth * tables.guard_limit <= kernels.FLOAT_EXACT
        N = tables.N
        letters = [tables.steps[ch] for ch in "aAbB"]
        for cols, _, M in [*letters, *filter(None, _pair_steps(tables).values())]:
            l1 = np.abs(M.reshape(2 * N, -1, len(cols) * N)).sum(axis=(0, 1))
            assert l1.max() <= tables.growth
    # pairs raise the bound at D = 5 from the letters' 19 to 59
    assert _tables("S5").growth == _tables("Sigma5").growth == 59


def test_products_stay_below_the_blas_thread_size(monkeypatch):
    # a wide window is multiplied a few rows at a time, so BLAS never splits
    # a product over threads that busy worker processes would starve
    sizes = []
    real_matmul = np.matmul

    def recording_matmul(x, y, **kw):
        sizes.append(x.shape[0] * x.shape[1] * y.shape[1])
        return real_matmul(x, y, **kw)

    monkeypatch.setattr(kernels.np, "matmul", recording_matmul)
    word = "b" * 30 + "aBAb" * 5 + "B" * 30
    assert _pair_steps(_tables("S4"))  # two letters per product
    for label in ("S9", "S4", "Sigma8"):
        tables = _tables(label)
        assert eval_word_quotient(word, tables) == eval_word_quotient(word, tables, lane="python")
    assert max(sizes) <= kernels.SERIAL_MNK
    assert len(sizes) > 3 * len(word)  # some letters took more than one product


def _pair_steps(tables):
    """{xy: step} of the 16 pairs, built now; {} on tables that step by letters."""
    return {xy: tables.steps[xy] for xy in PAIRS if xy in tables.steps.terms}


def test_tables_of_one_truncation_share_their_letter_matrices():
    s = {q: tables_for(_sctx(q)) for q in (4, 5, 8, 9)}
    assert s[4].steps is s[5].steps is sigma_tables(5).steps
    assert s[8].steps is s[9].steps is sigma_tables(13).steps
    assert s[4].gen_terms is s[5].gen_terms
    # pairs at D = 5, each built on first use; none at D = 13
    assert _pair_steps(s[4]) and not _pair_steps(s[8])
    with pytest.raises(KeyError):
        s[8].steps["ab"]
    fresh = kernels._letters.__wrapped__(5)[1]
    assert list(fresh) == list("aAbB")
    assert fresh["ab"] is fresh["ab"] and list(fresh) == [*"aAbB", "ab"]
    t1 = {q: tables_for(_sctx(q), at_t1=True) for q in (4, 5, 8, 9)}
    assert t1[8].steps is t1[9].steps
    assert t1[4].steps is t1[5].steps
    # the t = 1 matrices, built from the t = 1 generators, sum the offset
    # blocks of the full ones
    for full, at_t1 in ((s[8], t1[8]), (s[4], t1[4])):
        N = full.N
        for w in [*"aAbB", *_pair_steps(full)]:
            step, step1 = full.steps[w], at_t1.steps[w]
            if step is None:
                assert step1 is None
                continue
            cols, dt_min, M = step
            cols1, dt1, M1 = step1
            assert (cols1, dt1, M1.shape) == (cols, 0, (2 * N, len(cols) * N))
            assert np.array_equal(M1, M.reshape(2 * N, -1, len(cols) * N).sum(axis=1))
    # a and A change column 1 at no t-shift; b and B column 0 over two shifts
    letters = {ch: s[8].steps[ch] for ch in "aAbB"}
    assert {ch: (cols, dt_min, M.shape[1] // s[8].N)
            for ch, (cols, dt_min, M) in letters.items()} == {
        "a": ((1,), 0, 1), "A": ((1,), 0, 1), "b": ((0,), 0, 2), "B": ((0,), -1, 2)}
    # a pair changes both columns over the summed shifts; xX is the identity
    shapes = {xy: step and (step[0], step[1], step[2].shape[1] // (2 * s[4].N))
              for xy, step in _pair_steps(s[4]).items()}
    assert shapes == {
        "aa": ((0, 1), 0, 1), "aA": None, "ab": ((0, 1), 0, 2), "aB": ((0, 1), -1, 2),
        "Aa": None, "AA": ((0, 1), 0, 1), "Ab": ((0, 1), 0, 2), "AB": ((0, 1), -1, 2),
        "ba": ((0, 1), 0, 2), "bA": ((0, 1), 0, 2), "bb": ((0, 1), 0, 3), "bB": None,
        "Ba": ((0, 1), -1, 2), "BA": ((0, 1), -1, 2), "Bb": None, "BB": ((0, 1), -2, 3)}


def test_t1_growth_bounds_the_t1_terms():
    # each table's growth bounds the terms its lanes multiply by: the t = 1
    # tables merge terms that differ only in their t-shift, so theirs is lower
    full = {q: _tables(f"S{q}").growth for q in SCAN_QS}
    at_t1 = {q: _tables(f"S{q}@t1").growth for q in SCAN_QS}
    assert full == {2: 11, 3: 23, 4: 59, 5: 59, 7: 27, 8: 51, 9: 51}
    assert at_t1 == {2: 5, 3: 11, 4: 29, 5: 29, 7: 13, 8: 25, 9: 25}


def _merged_terms(terms):
    """terms with every t-shift set to 0, merging those that share a shift map."""
    out = {}
    for e, per in terms.items():
        acc = Counter()
        for _, mp, c in per:
            acc[mp] += c
        out[e] = sorted((0, mp, c) for mp, c in acc.items() if c)
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_t1_terms_are_the_full_terms_merged(q):
    # the t = 1 tables are built from the t = 1 generators, the full ones from
    # F(S[t,t^-1])'s: setting t = 1 in the full terms must give the t = 1
    # terms, for the python lane's letters and for the pairs
    full, at_t1 = tables_for(_sctx(q)), tables_for(_sctx(q), at_t1=True)
    assert at_t1.steps.terms.keys() == full.steps.terms.keys()
    for w, terms in full.steps.terms.items():
        if terms is None:
            assert at_t1.steps.terms[w] is None
            continue
        assert {e: sorted(per) for e, per in at_t1.steps.terms[w].items()} == _merged_terms(terms)
        if len(w) == 1:
            assert at_t1.gen_terms[w] is at_t1.steps.terms[w]


@pytest.mark.parametrize("D", [1, 0, -1])
def test_sigma_tables_need_two_degrees(D):
    # at D = 1 the generator a is the identity, and D <= 0 leaves no ring
    before = kernels._letters.cache_info().currsize
    with pytest.raises(ValueError, match=f"got D = {D}$"):
        sigma_tables(D)
    assert kernels._letters.cache_info().currsize == before


# ---------------------------------------------------------------------------
# property-based differential tests: numpy lane against the exact python lane

TABLE_LABELS = ["S2", "S3", "S4", "S5", "S7", "S8", "S9", "S4@t1", "S9@t1",
                "Sigma2", "Sigma4", "Sigma8", "Sigma12"]
LANE_SETTINGS = settings(max_examples=12, deadline=None, derandomize=True, database=None,
                         suppress_health_check=[HealthCheck.too_slow])


@functools.lru_cache(maxsize=None)
def _tables(label):
    if label.startswith("Sigma"):
        return sigma_tables(int(label[len("Sigma"):]))
    q, at_t1 = label[1:].removesuffix("@t1"), label.endswith("@t1")
    return tables_for(SContext.for_q(int(q)), at_t1=at_t1)


def _letters(max_size, min_size=0):
    return st.text(alphabet="aAbB", min_size=min_size, max_size=max_size)


@st.composite
def _zero_sum_words(draw):
    """Exponent sum zero in b, the letter that carries t."""
    w = draw(_letters(24))
    k = w.count("b") - w.count("B")
    return w + ("B" if k > 0 else "b") * abs(k)


@st.composite
def _repeated_words(draw):
    return draw(_letters(6)) * draw(st.integers(2, 10))


@st.composite
def _cancelling_words(draw):
    """The t-span grows, then collapses: u v u^-1 and u u^-1 v."""
    u, v = draw(_letters(16)), draw(_letters(4))
    return draw(st.sampled_from([u + v + word_inverse(u), u + word_inverse(u) + v]))


WORD_KINDS = {
    "random": _letters(32),
    "zero_sum": _zero_sum_words(),
    "power": _repeated_words(),
    "cancelling": _cancelling_words(),
}


@pytest.mark.parametrize("kind", sorted(WORD_KINDS))
@pytest.mark.parametrize("label", TABLE_LABELS)
def test_numpy_lane_matches_python_lane(label, kind):
    tables = _tables(label)

    @LANE_SETTINGS
    @given(word=WORD_KINDS[kind])
    def check(word):
        exact = next(kernels._eval_python(word, tables))
        try:
            got = next(kernels._eval_numpy(word, tables))
        except KernelOverflow:
            # only plain truncation has no lattice to bring the coefficients down
            assert tables.lattice is None
            return
        assert kernels._normalize(got, tables) == kernels._normalize(exact, tables)

    check()


@pytest.mark.parametrize("label", TABLE_LABELS)
def test_every_step_matches_python_lane(label):
    # every letter after every word of up to two letters, unreduced pairs such
    # as aA and Bb included
    tables = _tables(label)
    for n in (1, 2, 3):
        for letters in itertools.product("aAbB", repeat=n):
            word = "".join(letters)
            exact = next(kernels._eval_python(word, tables))
            got = next(kernels._eval_numpy(word, tables))
            assert kernels._normalize(got, tables) == kernels._normalize(exact, tables), word


PAIRED_LABELS = ["S2", "S3", "S4", "S5", "S2@t1", "S3@t1", "S4@t1", "S5@t1",
                 "Sigma2", "Sigma3", "Sigma4", "Sigma5"]


def test_pairs_are_on_the_small_truncations():
    for label in sorted({*TABLE_LABELS, *PAIRED_LABELS}):
        tables = _tables(label)
        paired = bool(_pair_steps(tables))
        assert paired == (tables.N <= kernels.PAIR_MAX_N) == (label in PAIRED_LABELS)
        # the lane steps by the pairs: ab, aB, then the last odd letter
        ks = [k for k, _ in kernels._steps("abaBb", tables)]
        assert ks == ([0, 2, 4] if paired else [0, 1, 2, 3, 4])


@pytest.mark.parametrize("label", PAIRED_LABELS)
def test_every_pair_step_matches_python_lane(label):
    # every word of up to four letters: each of the 16 pairs (aA and Bb, which
    # take no step, included) after each pair, and odd lengths, whose copies
    # each end on a single letter; over copies 1, 2 and 4 as in an order scan
    tables = _tables(label)
    stops = (1, 2, 4)
    for n in range(1, 5):
        for letters in itertools.product("aAbB", repeat=n):
            word = "".join(letters)
            exact = [kernels._normalize(r, tables)
                     for r in kernels._eval_python(word, tables, stops)]
            got = [kernels._normalize(r, tables) for r in kernels._eval_numpy(word, tables, stops)]
            assert got == exact, word
            if tables.q and not tables.at_t1 and word.count("b") == word.count("B"):
                assert (kernels.least_identity_power(word, tables, tables.q, lane="numpy")
                        == kernels.least_identity_power(word, tables, tables.q, lane="python"))


@pytest.mark.parametrize("label", ["S4", "S9", "S9@t1", "Sigma4"])
def test_t_runs_trim_both_window_edges(label, monkeypatch):
    # a B after a b run leaves the window's low edge zero, a b after a B run
    # its high edge.  The words below are one t-slice wide after each copy, so
    # an untrimmed window would widen by every b and B of each of 20 copies,
    # where the trimmed one never outgrows the buffers sized for one copy
    tables = _tables(label)
    real_buffers = kernels._buffers
    sizes = []

    def recording_buffers(T, N):
        sizes.append(T)
        return real_buffers(T, N)

    monkeypatch.setattr(kernels, "_buffers", recording_buffers)
    for word in ("BBBbbbbbBBa", "b" * 9 + "B" * 9, "BBBBaAbbbb"):
        sizes.clear()
        stops = (1, 2, 5, 20)
        got = list(kernels._eval_numpy(word, tables, stops))
        assert len(sizes) == 1, word
        exact = list(kernels._eval_python(word, tables, stops))
        assert ([kernels._normalize(r, tables) for r in got]
                == [kernels._normalize(r, tables) for r in exact]), word


def _forced_guard(tables):
    """The tables with growth read as 2^53 // 256, which puts the guard at
    128: above every value a reduced window holds (all below q), so the guard
    trips and reduces on short words instead of only past 2^46..2^49."""
    forced = dataclasses.replace(tables, growth=kernels.FLOAT_EXACT // 256)
    assert forced.guard_limit == 128
    return forced


@LANE_SETTINGS
@given(word=_letters(24, min_size=12))
@example(word="AABBBAaBBbAA")  # passes 128 only between the letters of Bb
@example(word="abAB" * 3)  # stays below 128
def test_forced_guard_names_the_letter_inside_a_pair(word):
    # with the guard at 128 the pairs of Sigma^5 run as letters from the
    # start, but for aA, Aa, bB and Bb: they take no step, so the lane never
    # holds the value between their letters
    tables = sigma_tables(5)
    forced = _forced_guard(tables)
    held = [n for n in range(1, len(word) + 1)
            if not (n % 2 and n < len(word) and word[n - 1] == word[n].swapcase())]
    first = next((n - 1 for n in held
                  if max((abs(c) for ent in next(kernels._eval_python(word[:n], tables))
                          for vec in ent.values() for c in vec), default=0) > 128), None)
    if first is None:
        assert kernels._normalize(next(kernels._eval_numpy(word, forced)), tables) == \
            kernels._normalize(next(kernels._eval_python(word, tables)), tables)
    else:
        with pytest.raises(KernelOverflow, match=f"at letter {first}$"):
            next(kernels._eval_numpy(word, forced))


@pytest.mark.parametrize("label", ["S4", "S8", "S9"])
def test_guard_reduction_matches_python_lane(label, monkeypatch):
    tables = _tables(label)
    forced = _forced_guard(tables)
    calls = Counter()
    real_reduce = IdealLattice.reduce_rows

    def counting_reduce(lattice, arr):
        calls["reduce"] += 1
        real_reduce(lattice, arr)

    monkeypatch.setattr(IdealLattice, "reduce_rows", counting_reduce)

    @LANE_SETTINGS
    @given(word=_letters(48, min_size=24))
    def check(word):
        calls["words"] += 1
        expected = kernels._normalize(next(kernels._eval_python(word, tables)), tables)
        assert kernels._normalize(next(kernels._eval_numpy(word, forced)), tables) == expected

    check()
    # one reduction per word is the lane's final one; the rest are the guard's
    assert calls["reduce"] > calls["words"]


# ---------------------------------------------------------------------------
# the order scan against flat evaluation of word * p^j

SCAN_QS = [2, 3, 4, 5, 7, 8, 9]
SCAN_SETTINGS = settings(max_examples=8, deadline=None, derandomize=True, database=None,
                         suppress_health_check=[HealthCheck.too_slow])


def _scan_cap(q):
    p = SContext.for_q(q).params.p
    return p, p * p * q


def _powers(p, top):
    out = [1]
    while out[-1] * p <= top:
        out.append(out[-1] * p)
    return out


def _least_power_by_flat_words(word, tables, p, cap):
    return next((d for d in _powers(p, cap) if eval_is_identity(word * d, tables)), None)


@st.composite
def _scan_words(draw):
    """Mostly zero t-sum words, which have finite order; short words of any sum."""
    if draw(st.booleans()):
        return draw(_letters(4))
    w = draw(_letters(8))
    k = w.count("b") - w.count("B")
    return w + ("B" if k > 0 else "b") * abs(k)


@pytest.mark.parametrize("lane", LANES)
@pytest.mark.parametrize("q", SCAN_QS)
def test_least_identity_power_matches_flat_powers(q, lane):
    tables = _tables(f"S{q}")
    p, cap = _scan_cap(q)

    @SCAN_SETTINGS
    @given(word=_scan_words())
    @example(word="")
    @example(word="aAbaBbB")  # not freely reduced
    @example(word="abaB")  # order p*q at q = 4, 9 and p^2*q at q = 8
    @example(word="bAB")  # order q; odd length puts copy boundaries mid-pair
    def check(word):
        # a nonzero t-sum word is never the identity, and its t-window grows
        # with every copy: scan it to q only, which still reaches None
        top = cap if word.count("b") == word.count("B") else q
        expected = _least_power_by_flat_words(word, tables, p, top)
        assert kernels.least_identity_power(word, tables, top, lane=lane) == expected

    check()


@pytest.mark.parametrize("q", [4, 8, 9])
def test_least_identity_power_through_guard_reductions(q, monkeypatch):
    # the guard at 128 as in test_guard_reduction_matches_python_lane: every
    # reduction is a tested copy's or the guard's
    tables = _tables(f"S{q}")
    forced = _forced_guard(tables)
    p, cap = _scan_cap(q)
    calls = Counter()
    real_reduce = IdealLattice.reduce_rows

    def counting_reduce(lattice, arr):
        calls["reduce"] += 1
        real_reduce(lattice, arr)

    monkeypatch.setattr(IdealLattice, "reduce_rows", counting_reduce)

    @SCAN_SETTINGS
    @given(word=_zero_sum_words())
    def check(word):
        expected = _least_power_by_flat_words(word, tables, p, cap)
        before = calls["reduce"]
        assert kernels.least_identity_power(word, forced, cap, lane="numpy") == expected
        calls["guard"] += calls["reduce"] - before - len(_powers(p, expected or cap))

    check()
    assert calls["guard"] > 0


def test_least_identity_power_needs_a_lattice():
    with pytest.raises(ValueError):
        kernels.least_identity_power("ab", sigma_tables(4), 8)


# ---------------------------------------------------------------------------
# both lanes against the exact LaurentPoly path, at full t

@functools.lru_cache(maxsize=None)
def _sctx(q):
    return SContext.for_q(q)


def _exact_quotient(word, q):
    """GroupContext("free") evaluation with each t-coefficient reduced into S(q)."""
    sctx = _sctx(q)
    entries = []
    for f in GroupContext("free").eval_word(word).entries():
        ent = {}
        for t, g in f.t_coefficients().items():
            vec = sctx.reduce(g)
            if any(vec):
                ent[t] = tuple(vec)
        entries.append(ent)
    return QuotientMatrix(q=q, D=sctx.params.D, entries=tuple(entries))


@pytest.mark.parametrize("lane", LANES)
@pytest.mark.parametrize("q", SCAN_QS)
def test_lanes_match_exact_laurent_path(q, lane):
    tables = tables_for(_sctx(q))

    @SCAN_SETTINGS
    @given(word=_letters(10))
    @example(word="b")  # -1 in column 0, which mod 2 would turn into 1
    def check(word):
        assert eval_word_quotient(word, tables, lane=lane) == _exact_quotient(word, q)

    check()


# ---------------------------------------------------------------------------
# the t = 1 tables against entries_at_t1 of the full tables

T1_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None,
                       suppress_health_check=[HealthCheck.too_slow])


def _at_t1_of(word, q):
    """entries_at_t1 of the word on the full tables, as a t = 0 QuotientMatrix.

    The full tables run on the numpy lane, which the tests above check
    against the exact python lane;
    the python lane itself is too slow here for q-th powers whose t-window
    widens with every copy.
    """
    tables = tables_for(_sctx(q))
    vecs = entries_at_t1(eval_word_quotient(word, tables), tables)
    return QuotientMatrix(q=q, D=tables.D,
                          entries=tuple({0: v} if any(v) else {} for v in vecs))


@pytest.mark.parametrize("lane", LANES)
@pytest.mark.parametrize("q", SCAN_QS)
def test_t1_tables_match_full_tables_at_t1(q, lane):
    t1 = tables_for(_sctx(q), at_t1=True)
    assert t1.label == f"S{q}@t1" and t1.q == q
    p = _sctx(q).params.p

    @T1_SETTINGS
    @given(word=_letters(12), power=st.sampled_from([1, q // p, q]))
    @example(word="", power=q)
    @example(word="bb", power=q)  # nonzero t-sum: the full window widens per copy
    def check(word, power):
        word *= power
        assert eval_word_quotient(word, t1, lane=lane) == _at_t1_of(word, q)

    check()


@pytest.mark.parametrize("lane", LANES)
@pytest.mark.parametrize("q", [4, 8, 9])
def test_t1_tables_see_a_commutator_below_the_exponent(q, lane):
    # negative control: [a,b]^(q/p) != I in S(q) at t = 1, while [a,b]^q = I
    t1 = tables_for(_sctx(q), at_t1=True)
    word = "abAB" * (q // _sctx(q).params.p)
    assert not eval_is_identity(word, t1, lane=lane)
    assert _at_t1_of(word, q) == eval_word_quotient(word, t1, lane=lane)
    assert eval_is_identity("abAB" * q, t1, lane=lane)


# ---------------------------------------------------------------------------
# S(q) lanes take every coordinate but the constant term mod q

MOD_Q_QS = [2, 3, 4, 5, 7, 8, 9, 11, 13]


@pytest.mark.parametrize("q", MOD_Q_QS)
def test_q_kills_every_coordinate_but_the_constant(q):
    # what the lanes' bound rests on: the lattice's mod step keeps a vector's
    # coset, kills q times every unit vector but the constant term's, and
    # leaves every value below q when the constant term is -1, 0 or 1
    lattice = _tables(f"S{q}").lattice
    N = lattice.dim
    assert lattice.modulus == q
    for m in range(N):
        assert any(lattice.mod_step([q * (k == m) for k in range(N)])) == (m == 0)
    rng = random.Random(q)
    big = INT64_MAX
    for _ in range(20):
        vec = [rng.choice((-1, 0, 1))] + [rng.randint(-big, big) for _ in range(N - 1)]
        step = lattice.mod_step(vec)
        assert max(map(abs, step)) < q
        assert _exact_reduce(lattice, step) == _exact_reduce(lattice, vec)


@pytest.mark.parametrize("q", MOD_Q_QS)
def test_np_reduce_below_q_stays_inside_int64(q):
    # the numpy lane reduces a t-range of its [2 rows, T, 2, N] window through
    # the lattice: each vector in the range must come out as reduce_vec's, the
    # rest untouched (tests/test_ideals.py bounds the pass inside int64)
    tables = _tables(f"S{q}")
    rng = random.Random(q)
    big = INT64_MAX
    # row 0 holds values below q; row 1 any int64, as the mod q step takes them
    vecs = [[rng.choice((-1, 0, 1))] + [rng.randrange(q) for _ in range(tables.N - 1)]
            for _ in range(20)]
    vecs += [[rng.choice((-1, 0, 1))] + [rng.randint(-big, big) for _ in range(tables.N - 1)]
             for _ in range(20)]
    window = np.array(vecs, dtype=np.int64).reshape(2, 10, 2, tables.N)
    tables.lattice.reduce_rows(window[:, 2:7])
    for k, (got, vec) in enumerate(zip(window.reshape(40, -1).tolist(), vecs)):
        t = k // 2 % 10
        assert tuple(got) == (tables.reduce_vec(vec) if 2 <= t < 7 else tuple(vec))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(word=_letters(24))
def test_constant_terms_are_the_word_at_x_y_1(word):
    # column 0 has no pivot, so the lanes keep it exact: the word at x = y = 1
    # is [[t^n, 0], [1 - t^n, 1]], n its b-exponent sum, so it is -1, 0 or 1
    n = word.count("b") - word.count("B")
    expected = [{n: 1}, {}, {0: 1, n: -1} if n else {}, {0: 1}]
    for lane in LANES:
        res = eval_word_quotient(word, _tables("S9"), lane=lane)
        assert [{t: v[0] for t, v in ent.items() if v[0]} for ent in res.entries] == expected


TRIP_SETTINGS = settings(max_examples=10, deadline=None, derandomize=True, database=None,
                         suppress_health_check=[HealthCheck.too_slow])
# the shortest power of a whose exact coefficients pass 128 at q = 4, 8, 9
TRIP_PREFIX = "a" * 10


@pytest.mark.parametrize("at_t1", [False, True])
@pytest.mark.parametrize("q", [4, 8, 9])
def test_forced_guard_trips_match_python_lane(q, at_t1, monkeypatch):
    tables = tables_for(_sctx(q), at_t1=at_t1)
    forced = _forced_guard(tables)
    # the prefix has no t: its unreduced value is the same in both tables
    exact = next(kernels._eval_python(TRIP_PREFIX, sigma_tables(tables.D)))
    assert max(abs(c) for ent in exact for vec in ent.values() for c in vec) > 128
    p, cap = _scan_cap(q)
    monkeypatch.setattr(kernels, "FALLBACKS", Counter())
    calls = Counter()
    real_reduce = IdealLattice.reduce_rows

    def counting_reduce(lattice, arr):
        calls["reduce"] += 1
        real_reduce(lattice, arr)

    monkeypatch.setattr(IdealLattice, "reduce_rows", counting_reduce)

    @TRIP_SETTINGS
    @given(tail=_scan_words())
    @example(tail="")
    @example(tail="abaB")
    def check(tail):
        word = TRIP_PREFIX + tail
        before = calls["reduce"]
        got = eval_word_quotient(word, forced, lane="numpy")
        # the guard's reductions, then the result's
        assert calls["reduce"] - before >= 2
        assert got == eval_word_quotient(word, tables, lane="python")
        top = cap if tail.count("b") == tail.count("B") else q
        assert (kernels.least_identity_power(word, forced, top, lane="numpy")
                == kernels.least_identity_power(word, tables, top, lane="python"))

    check()
    assert not kernels.FALLBACKS
