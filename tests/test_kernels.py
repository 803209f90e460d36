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

LANES = ["python", "numpy"]


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
    assert kernels.FALLBACKS == Counter({"Sigma12": 1})


def test_kernel_overflow_names_the_letter():
    # the numpy lane steps two letters at a time; the message gives the index
    # of the step's last letter, where the exact values first pass the limit
    tables = sigma_tables(12)
    with pytest.raises(KernelOverflow) as exc:
        next(kernels._eval_numpy("ab" * 120, tables))
    letter = int(re.search(r"^Sigma12: .* at letter (\d+)$", str(exc.value)).group(1))
    assert letter % 2 == 1
    before, after = kernels._eval_python("ab", tables, stops=(letter // 2, letter // 2 + 1))
    top = [max(abs(c) for ent in state for vec in ent.values() for c in vec)
           for state in (before, after)]
    assert top[0] <= tables.trip_limit < top[1]


def test_reduce_interval_does_not_change_results(s2):
    # only the python lane has a cadence; the numpy lane reduces when its guard trips
    tables = tables_for(s2)
    rng = random.Random(97)
    for _ in range(6):
        w = random_reduced_word(rng, 12)
        baseline = eval_word_quotient(w, tables, lane="numpy")
        for step in (0, 1, 3, 16, 64):
            got = next(kernels._eval_python(w, tables, step))
            assert kernels._normalize(got, tables) == baseline


# ---------------------------------------------------------------------------
# property-based differential tests: numpy lane against the exact python lane

TABLE_LABELS = ["S2", "S3", "S4", "S5", "S7", "S8", "S9", "Sigma2", "Sigma4", "Sigma8"]
REDUCE_EVERY = st.sampled_from([0, 1, 3, 16, 64])
LANE_SETTINGS = settings(max_examples=12, deadline=None, derandomize=True, database=None,
                         suppress_health_check=[HealthCheck.too_slow])


@functools.lru_cache(maxsize=None)
def _tables(label):
    if label.startswith("Sigma"):
        return sigma_tables(int(label[len("Sigma"):]))
    return tables_for(SContext.for_q(int(label[1:])))


def _letters(max_size, min_size=0):
    return st.text(alphabet="aAbB", min_size=min_size, max_size=max_size)


@st.composite
def _zero_sum_words(draw):
    """Exponent sum zero in b, the letter that carries t."""
    w = draw(_letters(24))
    k = w.count("b") - w.count("B")
    return w + ("B" if k > 0 else "b") * abs(k)


@st.composite
def _powers(draw):
    return draw(_letters(6)) * draw(st.integers(2, 10))


@st.composite
def _cancelling_words(draw):
    """The t-span grows, then collapses: u v u^-1 and u u^-1 v."""
    u, v = draw(_letters(16)), draw(_letters(4))
    return draw(st.sampled_from([u + v + word_inverse(u), u + word_inverse(u) + v]))


WORD_KINDS = {
    "random": _letters(32),
    "zero_sum": _zero_sum_words(),
    "power": _powers(),
    "cancelling": _cancelling_words(),
}


@pytest.mark.parametrize("kind", sorted(WORD_KINDS))
@pytest.mark.parametrize("label", TABLE_LABELS)
def test_numpy_lane_matches_python_lane(label, kind):
    tables = _tables(label)

    @LANE_SETTINGS
    @given(word=WORD_KINDS[kind], reduce_every=REDUCE_EVERY)
    def check(word, reduce_every):
        exact = next(kernels._eval_python(word, tables, reduce_every))
        try:
            got = next(kernels._eval_numpy(word, tables))
        except KernelOverflow:
            # only plain truncation has no lattice to bring the coefficients down
            assert not tables.rows
            return
        assert kernels._normalize(got, tables) == kernels._normalize(exact, tables)

    check()


@pytest.mark.parametrize("label", TABLE_LABELS)
def test_every_step_matches_python_lane(label):
    # all 16 two-letter steps, unreduced pairs such as aA included, and odd
    # lengths, whose last letter is a step of its own
    tables = _tables(label)
    for n in (1, 2, 3):
        for letters in itertools.product("aAbB", repeat=n):
            word = "".join(letters)
            exact = next(kernels._eval_python(word, tables))
            got = next(kernels._eval_numpy(word, tables))
            assert kernels._normalize(got, tables) == kernels._normalize(exact, tables), word


@pytest.mark.parametrize("label", ["S4", "S8", "S9"])
def test_guard_reduction_matches_python_lane(label, monkeypatch):
    # A trip limit of 64 (above every pivot) makes the guard reduce whenever
    # a coefficient passes 64 instead of only past 2^47..2^59, exercising
    # that path on short words.
    tables = _tables(label)
    tight = dataclasses.replace(tables, reduce_limit=tables.growth * 64)
    calls = Counter()
    real_reduce = kernels._np_reduce

    def counting_reduce(arr, plan):
        calls["reduce"] += 1
        real_reduce(arr, plan)

    monkeypatch.setattr(kernels, "_np_reduce", counting_reduce)

    @LANE_SETTINGS
    @given(word=_letters(48, min_size=24))
    def check(word):
        calls["words"] += 1
        expected = kernels._normalize(next(kernels._eval_python(word, tables, 0)), tables)
        assert kernels._normalize(next(kernels._eval_numpy(word, tight)), tables) == expected

    check()
    # one reduction per word is the lane's final one; the rest are the guard's
    assert calls["reduce"] > calls["words"]


def _replay_reduction(vec, tables):
    """reduce_vec in Python ints, also returning the largest magnitude it met."""
    v = list(vec)
    peak = max(map(abs, v))
    for row, c in zip(tables.rows, tables.pivot_cols):
        k = v[c] // row[c]
        for m in range(c, tables.N):
            peak = max(peak, abs(k * row[m]))
            v[m] -= k * row[m]
            peak = max(peak, abs(v[m]))
    return tuple(v), peak


@pytest.mark.parametrize("q", [4, 8, 9])
def test_np_reduce_stays_in_int64_up_to_reduce_limit(q):
    tables = _tables(f"S{q}")
    limit = tables.reduce_limit
    assert limit < kernels.INT64_MAX
    rng = random.Random(q)
    vecs = [[rng.choice((-limit, limit)) for _ in range(tables.N)] for _ in range(40)]
    vecs += [[rng.randint(-limit, limit) for _ in range(tables.N)] for _ in range(40)]
    arr = np.array(vecs, dtype=np.int64)
    kernels._np_reduce(arr, tables.reduce_plan)
    for vec, got in zip(vecs, arr.tolist()):
        expected, peak = _replay_reduction(vec, tables)
        assert peak <= kernels.INT64_MAX
        assert tuple(got) == expected == tables.reduce_vec(vec)


def test_trip_limit_is_below_guard_where_reduction_grows_values():
    for label in ("S8", "S9"):
        tables = _tables(label)
        assert tables.trip_limit == tables.reduce_limit // tables.growth < tables.guard_limit
    for label in ("S2", "Sigma8"):
        tables = _tables(label)
        assert tables.trip_limit == tables.guard_limit


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
    # Trip limit 64 as in test_guard_reduction_matches_python_lane: every
    # reduction is a tested copy's or the guard's.
    tables = _tables(f"S{q}")
    tight = dataclasses.replace(tables, reduce_limit=tables.growth * 64)
    p, cap = _scan_cap(q)
    calls = Counter()
    real_reduce = kernels._np_reduce

    def counting_reduce(arr, plan):
        calls["reduce"] += 1
        real_reduce(arr, plan)

    monkeypatch.setattr(kernels, "_np_reduce", counting_reduce)

    @SCAN_SETTINGS
    @given(word=_zero_sum_words())
    def check(word):
        expected = _least_power_by_flat_words(word, tables, p, cap)
        before = calls["reduce"]
        assert kernels.least_identity_power(word, tight, cap, lane="numpy") == expected
        calls["guard"] += calls["reduce"] - before - len(_powers(p, expected or cap))

    check()
    assert calls["guard"] > 0


@pytest.mark.parametrize("q", [4, 9])
def test_least_identity_power_falls_back_on_overflow(q, monkeypatch):
    monkeypatch.setattr(kernels, "FALLBACKS", Counter())
    tables = _tables(f"S{q}")
    tripping = dataclasses.replace(tables, reduce_limit=0)
    p, cap = _scan_cap(q)
    word = "abaB"
    expected = _least_power_by_flat_words(word, tables, p, cap)
    assert expected is not None
    assert kernels.least_identity_power(word, tripping, cap) == expected
    assert kernels.FALLBACKS == Counter({f"S{q}": 1})


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
    def check(word):
        assert eval_word_quotient(word, tables, lane=lane) == _exact_quotient(word, q)

    check()


@pytest.mark.parametrize("q", SCAN_QS)
def test_canonical_vectors_stay_below_the_trip_limit(q):
    # the numpy lane goes on from a canonically reduced window; that needs
    # every column but the constant term reduced below its pivot
    tables = _tables(f"S{q}")
    assert tables.pivot_cols == tuple(range(1, tables.N))
    assert max(row[c] for row, c in zip(tables.rows, tables.pivot_cols)) <= tables.trip_limit


# ---------------------------------------------------------------------------
# the t = 1 tables against entries_at_t1 of the full tables

T1_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None,
                       suppress_health_check=[HealthCheck.too_slow])


def _at_t1_of(word, q):
    """entries_at_t1 of the word on the full tables, as a t = 0 QuotientMatrix.

    The full tables run on the numpy lane (the python lane where it
    overflows), which the tests above check against the exact python lane;
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


@pytest.mark.parametrize("q", [4, 9])
def test_t1_tables_fall_back_on_overflow(q, monkeypatch):
    monkeypatch.setattr(kernels, "FALLBACKS", Counter())
    t1 = tables_for(_sctx(q), at_t1=True)
    tripping = dataclasses.replace(t1, reduce_limit=0)
    word = "abaB" * q
    with pytest.raises(KernelOverflow, match=f"^S{q}@t1: "):
        next(kernels._eval_numpy(word, tripping))
    assert eval_word_quotient(word, tripping) == _at_t1_of(word, q)
    assert kernels.FALLBACKS == Counter({f"S{q}@t1": 1})
