"""Shifted-parameter expansions: coefficients, valuations, and layer bounds."""

import math
import random
import warnings
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import burnmat.tadic as tadic
from burnmat import (
    ExactDivisionError,
    LaurentPoly,
    Matrix2,
    SeriesContext,
    check_derived_layer,
    commutator_word,
    divide_by_t_minus_one,
    divide_one_minus,
    flatten_tree,
    free_reduce,
    parse_poly,
    random_reduced_word,
    sample_layer_element,
    t1_valuation,
    vanishes_mod_sigma,
    word_inverse,
)
from burnmat import groups
from burnmat.groups import _KONE, _pack, _unpack

ONE = LaurentPoly.const(1)
ZERO = LaurentPoly.zero()
T_MATRIX = Matrix2(parse_poly("t"), ZERO, parse_poly("1-t"), ONE)
SHIFT = Matrix2(ONE, ZERO, -ONE, ZERO)


def formal_coefficients(g, n):
    """A_0..A_n of g = sum (t-1)^i A_i; A_0 is the t=1 specialization.

    The exact expansion the series side is checked against."""
    out = []
    gi = g
    for i in range(n + 1):
        ai = gi.map_entries(lambda f: f.specialize(t=1))
        out.append(ai)
        if i < n:
            gi = gi.sub(ai).map_entries(divide_by_t_minus_one)
    return out


def _eval_tree(tree, ctx):
    """The node of tree, children first: the oracle recursion over
    tadic._leaf and tadic._commutator, without sample_layer_element's resampling."""
    if tree[0] == "w":
        return tadic._leaf(tree[1], ctx)
    return tadic._commutator(_eval_tree(tree[1], ctx), _eval_tree(tree[2], ctx), ctx)


def eval_tree_series(tree, ctx):
    return tadic._plus_identity(_eval_tree(tree, ctx).delta, 1)


def _commutator_closed_word(rng, maxlen=4, parts=3):
    ws = [commutator_word(random_reduced_word(rng, maxlen),
                          random_reduced_word(rng, maxlen))
          for _ in range(rng.randint(1, parts))]
    return free_reduce("".join(ws))


def _depth2_word(rng, maxlen=3):
    def c():
        return commutator_word(random_reduced_word(rng, maxlen),
                               random_reduced_word(rng, maxlen))
    return free_reduce(commutator_word(c(), c()))


def test_divide_one_minus_exactness():
    f = (ONE - LaurentPoly.var_x()) * parse_poly("3 + y^-2")
    assert divide_one_minus(f, 0) == parse_poly("3 + y^-2")
    with pytest.raises(ExactDivisionError):
        divide_one_minus(ONE, 0)


def test_divide_by_t_minus_one_exactness():
    f = parse_poly("(t-1)*(x + t^-1)")
    assert divide_by_t_minus_one(f) == parse_poly("x + t^-1")
    with pytest.raises(ExactDivisionError):
        divide_by_t_minus_one(parse_poly("t + 1"))


def test_shift_matrix_decomposition():
    assert SHIFT.mul(SHIFT) == SHIFT
    assert formal_coefficients(T_MATRIX, 0)[0] == Matrix2(ONE, ZERO, ZERO, ONE)
    assert formal_coefficients(T_MATRIX, 1)[1] == SHIFT
    for i in (2, 3, 4):
        assert all(e.is_zero() for e in formal_coefficients(T_MATRIX, i)[i].entries())


def test_coefficients_of_inverse_generator(free_ctx, meta_ctx):
    g = free_ctx.eval_word("B")
    m2_inv = meta_ctx.eval_word("B")
    assert formal_coefficients(g, 0)[0] == m2_inv
    alternating = SHIFT.mul(m2_inv)
    for i in (1, 2, 3):
        expected = alternating.map_entries(lambda f: f if i % 2 == 0 else -f)
        assert formal_coefficients(g, i)[i] == expected


def test_coefficients_of_t_free_matrix(meta_ctx):
    g = meta_ctx.eval_word("aA")
    assert formal_coefficients(g, 0)[0] == g
    g = meta_ctx.eval_word("abA")
    assert formal_coefficients(g, 0)[0] == g
    assert all(e.is_zero() for e in formal_coefficients(g, 1)[1].entries())


def test_zeroth_coefficient_is_t1_specialization(free_ctx):
    rng = random.Random(101)
    for _ in range(10):
        g = free_ctx.eval_word(random_reduced_word(rng, 8))
        at_t1 = g.map_entries(lambda f: f.specialize(t=1))
        assert formal_coefficients(g, 0)[0] == at_t1


def test_finite_expansion_reconstructs(free_ctx):
    rng = random.Random(103)
    tm1 = parse_poly("t - 1")
    for _ in range(8):
        # words without inverse letters keep every t-power nonnegative
        w = "".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))
        g = free_ctx.eval_word(w)
        n = max(k for e in g.entries() for (_, _, k) in e.terms) if w.count("b") else 0
        coeffs = formal_coefficients(g, n)
        acc = Matrix2(ZERO, ZERO, ZERO, ZERO)
        power = ONE
        for c in coeffs:
            acc = Matrix2(*(a + power * e for a, e in zip(acc.entries(), c.entries())))
            power = power * tm1
        assert acc == g


def test_t1_valuation_values(free_ctx):
    assert t1_valuation(free_ctx.identity()) == float("inf")
    assert t1_valuation(T_MATRIX) == 1
    assert t1_valuation(Matrix2(parse_poly("t^-1"), ZERO, ZERO, ONE)) == 1
    assert t1_valuation(free_ctx.eval_word("ab")) == 0


def _t1_valuation_by_definition(g):
    """Every entry of g - I divided by t - 1 until it no longer vanishes at t = 1."""
    best = math.inf
    for e in g.sub(Matrix2(ONE, ZERO, ZERO, ONE)).entries():
        if e.is_zero():
            continue
        v, f = 0, e
        while f.specialize(t=1).is_zero():
            f = divide_by_t_minus_one(f)
            v += 1
        best = min(best, v)
    return best


def _vanishes_by_definition(g, d):
    return all(c.in_sigma_power(d) for e in g.sub(Matrix2(ONE, ZERO, ZERO, ONE)).entries()
               for c in e.t_coefficients().values())


def test_valuation_and_sigma_check_leave_g_unchanged(free_ctx):
    rng = random.Random(139)
    tm1 = parse_poly("t - 1")
    gs = [free_ctx.identity(), T_MATRIX,
          # zero off-diagonal entries; the diagonal stops at valuation 1, 2 or 3
          Matrix2(ONE + tm1 ** 3 * parse_poly("x"), ZERO, ZERO, ONE - tm1 ** 2),
          Matrix2(ONE + tm1, ZERO, ZERO, ONE + tm1 ** 5 * parse_poly("y^-1")),
          Matrix2(ONE, ZERO, ZERO, ONE + tm1 ** 2 * parse_poly("t^-3"))]
    gs += [free_ctx.eval_word(random_reduced_word(rng, 8)) for _ in range(8)]
    gs += [free_ctx.eval_word(_depth2_word(rng, maxlen=2)) for _ in range(4)]
    for g in gs:
        entries = g.entries()
        before = [dict(e.terms) for e in entries]
        assert t1_valuation(g) == _t1_valuation_by_definition(g)
        for d in (1, 2, 3):
            assert vanishes_mod_sigma(g, d) == _vanishes_by_definition(g, d)
        assert all(a is b for a, b in zip(g.entries(), entries))
        assert [e.terms for e in g.entries()] == before
    assert [t1_valuation(g) for g in gs[2:5]] == [2, 1, 2]


@st.composite
def _entries_over_t_minus_one(draw):
    """(t - 1)^k r: r with x, y and t exponents from -2 (or 0) to 2, k 0..3."""
    low = draw(st.sampled_from([-2, 0]))
    exps = st.tuples(*[st.integers(low, 2)] * 3)
    r = LaurentPoly(draw(st.dictionaries(exps, st.integers(-3, 3), max_size=6)))
    return parse_poly("t - 1") ** draw(st.integers(0, 3)) * r


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(fs=st.lists(_entries_over_t_minus_one(), min_size=4, max_size=4))
def test_t1_valuation_matches_its_definition_on_random_entries(fs):
    # divisible entries, and entries nonzero at t = 1, with and without
    # negative exponents: dividing until the division fails counts as
    # dividing while the entry vanishes at t = 1
    g = Matrix2(ONE + fs[0], fs[1], fs[2], ONE + fs[3])
    assert t1_valuation(g) == _t1_valuation_by_definition(g)


def test_vanishes_mod_sigma_definition(free_ctx):
    for d in (1, 2, 5):
        assert vanishes_mod_sigma(free_ctx.identity(), d)
    # all shifted coefficients of the first generator already sit inside Sigma
    assert vanishes_mod_sigma(free_ctx.eval_word("a"), 1)
    assert not vanishes_mod_sigma(free_ctx.eval_word("a"), 2)
    # the second generator breaks the bound: its top entry has a unit coefficient
    assert not vanishes_mod_sigma(free_ctx.eval_word("b"), 1)
    assert vanishes_mod_sigma(free_ctx.eval_word("abAB"), 1)


def test_commutator_closed_words_have_sigma_coefficients(free_ctx):
    rng = random.Random(107)
    done = 0
    while done < 24:
        w = _commutator_closed_word(rng)
        if not w:
            continue
        g = free_ctx.eval_word(w)
        assert vanishes_mod_sigma(g, 1)
        for c in formal_coefficients(g, 8)[1:]:
            assert all(e.sigma_valuation() >= 1 for e in c.entries())
        done += 1


def test_second_layer_remark_on_first_coefficient(free_ctx):
    # the sharper membership for the first coefficient is a reported finding,
    # not an assertion; the proved floor is valuation >= 2
    rng = random.Random(109)
    findings = []
    done = 0
    while done < 10:
        w = _depth2_word(rng)
        if not w:
            continue
        g = free_ctx.eval_word(w)
        a1 = formal_coefficients(g, 1)[1]
        vals = [e.sigma_valuation() for e in a1.entries() if not e.is_zero()]
        assert all(v >= 2 for v in vals)
        if not all(v >= 3 for v in vals):
            findings.append((w, vals))
        done += 1
    if findings:
        warnings.warn(f"first-coefficient membership below Sigma^3 on {findings}")


def test_check_derived_layer_identity(free_ctx):
    for k in (2, 3, 4):
        assert check_derived_layer(free_ctx.identity(), k)


def test_check_derived_layer_depth2(free_ctx):
    rng = random.Random(113)
    done = 0
    while done < 6:
        w = _depth2_word(rng)
        if not w:
            continue
        g = free_ctx.eval_word(w)
        assert check_derived_layer(g, 2)
        assert t1_valuation(g) >= 1
        done += 1


def test_check_derived_layer_depth3(free_ctx):
    rng = random.Random(127)
    ctx = SeriesContext(3)
    samp = sample_layer_element(rng, 3, ctx)
    g = free_ctx.eval_word(samp.word)
    assert check_derived_layer(g, 3)
    assert not check_derived_layer(free_ctx.eval_word("abAB"), 3)


def test_series_evaluation_matches_exact_truncation(free_ctx):
    rng = random.Random(131)
    m = 3
    ctx = SeriesContext(m)
    for _ in range(4):
        samp = sample_layer_element(rng, 2, ctx)
        series = eval_tree_series(samp.tree, ctx)
        g = free_ctx.eval_word(samp.word)
        if samp.certified:
            assert t1_valuation(g) == samp.valuation
        assert samp.word == free_reduce(flatten_tree(samp.tree))
        assert tadic._valuation(tadic._plus_identity(series, -1)) == samp.valuation


def test_sampled_layers_obey_bounds():
    rng = random.Random(137)
    for k in (2, 3):
        d = 1 << (k - 2)
        ctx = SeriesContext(d + 1)
        for _ in range(3):
            samp = sample_layer_element(rng, k, ctx)
            assert samp.valuation >= d


def test_tree_flattening_matches_commutator_words():
    tree = ("c", ("w", "ab"), ("w", "ba"))
    assert flatten_tree(tree) == "ab" + "ba" + word_inverse("ab") + word_inverse("ba")
    nested = ("c", tree, ("w", "a"))
    flat = flatten_tree(nested)
    assert flat == commutator_word(flatten_tree(tree), "a")


# ---------------------------------------------------------------------------
# series ring: packed products, adjugate inverses and node valuations

DIFF_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                         suppress_health_check=[HealthCheck.too_slow])

# coefficients small, or near a power of two from 2^0 to 2^80, so that the
# product bound lands on every side of a field-width boundary
COEFFS = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.builds(lambda b, sign, d: sign * ((1 << b) + d),
              st.integers(0, 80), st.sampled_from([1, -1]), st.integers(-1, 1)).filter(bool))


def _entries(m, entries):
    """Lists of series entries {slot: {key: c}}: slots below m, none empty,
    no zero coefficient."""
    exps = st.integers(-6, 6)
    poly = st.dictionaries(st.tuples(exps, exps), COEFFS, min_size=1, max_size=8).map(
        lambda p: {_pack(i, j): c for (i, j), c in p.items()})
    entry = st.dictionaries(st.integers(0, m - 1), poly, max_size=m)
    return st.lists(entry, min_size=entries, max_size=entries)


def _reference_sums(left, right, sums, m):
    """sum of left[l] * right[r] over (i, j) exponent tuples, independent of the key layout."""
    out = []
    for pairs in sums:
        acc = {}
        for l, r in pairs:
            for i, a in left[l].items():
                for j, b in right[r].items():
                    if i + j >= m:
                        continue
                    for k1, c1 in a.items():
                        for k2, c2 in b.items():
                            (x1, y1), (x2, y2) = _unpack(k1), _unpack(k2)
                            acc.setdefault(i + j, Counter())[_pack(x1 + x2, y1 + y2)] += c1 * c2
        slots = {sl: {k: c for k, c in s.items() if c} for sl, s in acc.items()}
        out.append({sl: s for sl, s in slots.items() if s})
    return out


def _dict_sums(left, right, sums, m, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(tadic, "_PACK_MIN_PAIRS", float("inf"))
        return tadic._sums(left, right, sums, m)


@pytest.mark.parametrize("kind", ["product", "matrix"])
def test_packed_products_match_dict_loop(kind, monkeypatch):
    sums = (((0, 0),),) if kind == "product" else tadic._MATRIX_SUMS
    n = 1 if kind == "product" else 4

    @DIFF_SETTINGS
    @given(data=st.data(), m=st.integers(1, 6))
    def check(data, m):
        left = data.draw(_entries(m, entries=n))
        right = data.draw(_entries(m, entries=n))
        expected = _reference_sums(left, right, sums, m)
        packed = tadic._packed_sums(left, right, sums, m, terms=float("inf"))
        assert packed == expected
        assert _dict_sums(left, right, sums, m, monkeypatch) == expected

    check()


@pytest.mark.parametrize("bits", [1, 7, 8, 15, 16, 27, 28, 55, 56, 63, 64, 100])
def test_packed_product_at_its_coefficient_bound(bits, monkeypatch):
    # every term sits on one monomial, so output slot r is (r + 1) * c * c',
    # exactly the proven bound, whatever the field width it lands in
    m = 6
    c = (1 << bits) - 1
    a = {r: {_pack(-3, 5): c} for r in range(m)}
    b = {r: {_pack(2, -7): -c} for r in range(m)}
    expected = {r: {_pack(-1, -2): -(r + 1) * c * c} for r in range(m)}
    assert tadic._packed_sums([a], [b], (((0, 0),),), m, terms=float("inf"))[0] == expected
    assert _dict_sums([a], [b], (((0, 0),),), m, monkeypatch)[0] == expected


def test_packed_product_fills_its_widest_field(monkeypatch):
    # all positive: two left terms meet the same right coefficient in one
    # output field, (u + v) * w = 2^63 - 1, the largest value of eight bytes
    # with a sign bit, and exactly the proven bound
    u, v, w = 1 << 20, (1 << 20) - 1, (1 << 42) + (1 << 21) + 1
    a = {0: {_pack(0, 0): u, _pack(1, 0): v}}
    b = {0: {_pack(1, 0): w, _pack(0, 0): w}}
    expected = {0: {_pack(0, 0): u * w, _pack(1, 0): (1 << 63) - 1,
                    _pack(2, 0): v * w}}
    assert tadic._packed_sums([a], [b], (((0, 0),),), 1, terms=float("inf"))[0] == expected
    assert _dict_sums([a], [b], (((0, 0),),), 1, monkeypatch)[0] == expected


@pytest.mark.parametrize("i, j", [(20000, 0), (0, 20000), (-20000, 20000), (40000, -35000)])
def test_large_exponents_do_not_alias(i, j, monkeypatch):
    # a 16-bit y field would wrap y^20000 * y^20000 into the x field
    a = {0: {_pack(i, j): 1}, 1: {_pack(i + 1, j + 1): 2}}
    b = {0: {_pack(i, j): 3}}
    expected = {0: {_pack(2 * i, 2 * j): 3}, 1: {_pack(2 * i + 1, 2 * j + 1): 6}}
    sums = (((0, 0),),)
    assert tadic._packed_sums([a], [b], sums, 2, terms=float("inf"))[0] == expected
    assert _dict_sums([a], [b], sums, 2, monkeypatch)[0] == expected
    assert _unpack(_pack(2 * i, 2 * j)) == (2 * i, 2 * j)


def test_sparse_operands_stay_on_the_dict_loop():
    # packing x^0 and x^100000 would need 10^5 fields for 4 terms
    a = {0: {_pack(0, 0): 1, _pack(100000, 0): 1}}
    assert tadic._packed_sums([a], [a], (((0, 0),),), 1, terms=4) is None


IDENTITY = [{0: {_KONE: 1}}, {}, {}, {0: {_KONE: 1}}]


def _well_formed(entries, m):
    """The one form of R[s]/(s^m): slots 0 <= r < m, none empty, no zero coefficient."""
    return all(0 <= sl < m and s and all(s.values()) for ent in entries for sl, s in ent.items())


def test_series_helpers_keep_the_entry_form(monkeypatch):
    # outputs of every helper that builds entries, on random operands and on
    # sums that cancel to zero, against the form _eval_steps returns

    @DIFF_SETTINGS
    @given(data=st.data(), m=st.integers(1, 6))
    def check(data, m):
        left = data.draw(_entries(m, entries=4))
        right = data.draw(_entries(m, entries=4))
        det = data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
        w = data.draw(st.text(alphabet="aAbB", max_size=10))
        ctx = SeriesContext(m)
        neg = [tadic._slot_sum(((-1, e),)) for e in left]
        cancel = tuple(((idx, 0), (4 + idx, 0)) for idx in range(4))
        outs = []
        for sums, ops in ((tadic._MATRIX_SUMS, (left, right)), (cancel, (left + neg, right))):
            outs.append(tadic._packed_sums(*ops, sums, m, terms=float("inf")))
            outs.append(_dict_sums(*ops, sums, m, monkeypatch))
        assert outs[2] == outs[3] == [{}] * 4
        outs.append([tadic._slot_sum(((1, a), (-1, b), (1, b))) for a, b in zip(left, right)])
        assert outs[-1] == left
        outs.append([tadic._slot_sum(((1, a), (-1, a)), live) for a in left
                     for live in range(m + 1)])
        X = tadic.SeriesMatrix(m, left)
        for c in (-1, 1, 2):
            outs.append(tadic._plus_identity(X, c).e)
        outs.append(tadic._over_det(X, det).e)
        value = ctx.eval_word(w)
        assert value.e == groups._eval_steps(ctx.steps, w, m)
        outs.append(value.e)
        outs.append(tadic._plus_identity(value, -1).e)
        assert tadic._plus_identity(ctx.identity(), -1).e == [{}] * 4
        for out in outs:
            assert _well_formed(out, m), out

    check()


def _adjugate(V):
    p, q, r, u = V.e
    return tadic.SeriesMatrix(V.m, [u, tadic._slot_sum(((-1, q),)),
                                    tadic._slot_sum(((-1, r),)), p])


@DIFF_SETTINGS
@given(w=st.text(alphabet="aAbB", min_size=1, max_size=8), m=st.integers(1, 5))
def test_leaf_inverse_is_adjugate_over_det(w, m):
    # V^-1 = adj(V) times the det^-1 scalar that commutator nodes with leaf
    # children divide by
    ctx = SeriesContext(m)
    V = ctx.eval_word(w)
    inv = tadic._over_det(_adjugate(V), tadic._word_det(w))
    assert V.mul(inv).e == IDENTITY
    assert inv.mul(V).e == IDENTITY
    assert inv.e == ctx.eval_word(word_inverse(w)).e


def _product_chain(ctx, w):
    """w by SeriesMatrix.mul, letter by letter: the oracle of the letter steps."""
    M = ctx.identity()
    for ch in w:
        M = M.mul(ctx.gens[ch])
    return M


@pytest.mark.parametrize("m", range(1, 6))
def test_series_eval_word_matches_generic_products(m):
    rng = random.Random(400 + m)
    words = ["", "a", "A", "b", "B", "aA", "Bb", "BBBaab"]
    words += [random_reduced_word(rng, 30, minlen=20) for _ in range(3)]
    words += ["".join(rng.choice("aAbB") for _ in range(rng.randint(1, 20)))
              for _ in range(3)]
    ctx = SeriesContext(m)
    for w in words:
        assert ctx.eval_word(w).e == _product_chain(ctx, w).e, w


def _reduced_words(n):
    """Every freely reduced word of at most n letters, the empty word included."""
    words, frontier = [""], [""]
    for _ in range(n):
        frontier = [w + ch for w in frontier for ch in "aAbB"
                    if not w or w[-1] != ch.swapcase()]
        words += frontier
    return words


@pytest.mark.parametrize("m", range(1, 4))
def test_det_shortcut_matches_evaluated_valuation(m):
    # a leaf with det != 1 takes valuation 0 unevaluated; zero-sum leaves
    # such as abAB (valuation >= 1) are evaluated
    ctx = SeriesContext(m)
    words = _reduced_words(4)
    assert len(words) == 161
    for w in words:
        node = tadic._leaf(w, ctx)
        delta = tadic._plus_identity(_product_chain(ctx, w), -1)
        assert node.valuation == tadic._valuation(delta), w
        assert node.delta.e == delta.e, w


def _zero_sum_word(rng, maxlen):
    while True:
        w = random_reduced_word(rng, maxlen, minlen=4)
        if tadic._word_det(w) == (0, 0):
            return w


@pytest.mark.parametrize("maxlen", [4, 5, 6])
def test_leaf_commutator_matches_bracket_path(maxlen):
    # a node of two leaves is its commutator word; the bracket of the
    # leaves' deltas and the delta LR D / det must give the same node
    rng = random.Random(500 + maxlen)
    for i in range(12):
        l = _zero_sum_word(rng, maxlen) if i % 2 else random_reduced_word(rng, maxlen)
        r = _zero_sum_word(rng, maxlen) if i % 3 else random_reduced_word(rng, maxlen)
        for m in range(1, 5):
            ctx = SeriesContext(m)
            L, R = tadic._leaf(l, ctx), tadic._leaf(r, ctx)
            node = tadic._commutator(L, R, ctx)
            D = tadic._bracket(L.delta, R.delta)
            det = (L.det[0] + R.det[0], L.det[1] + R.det[1])
            assert node.valuation == tadic._valuation(D), (l, r, m)
            assert node.delta.e == tadic._commutator_delta(L.delta, R.delta, D, det).e


def _subtrees(tree):
    yield tree
    if tree[0] == "c":
        yield from _subtrees(tree[1])
        yield from _subtrees(tree[2])


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32), m=st.integers(1, 4))
def test_commutator_inverse_is_adjugate(seed, m):
    # [L, R] = LR (RL)^-1 = I + LR D / det(LR), D = LR - RL, since adj is
    # linear and adj D = -D; LR is formed here as a product of values
    ctx = SeriesContext(m)
    for sub in _subtrees(sample_layer_element(random.Random(seed), 2, ctx).tree):
        if sub[0] == "c":
            L, R = _eval_tree(sub[1], ctx), _eval_tree(sub[2], ctx)
            LR = tadic._plus_identity(L.delta, 1).mul(tadic._plus_identity(R.delta, 1))
            D = tadic._bracket(L.delta, R.delta)
            det = (L.det[0] + R.det[0], L.det[1] + R.det[1])
            value = tadic._plus_identity(tadic._over_det(LR.mul(D), det), 1)
            assert value.e == ctx.eval_word(flatten_tree(sub)).e


@pytest.mark.parametrize("pack", ["dict", "packed"])
def test_bracket_matches_ab_minus_ba(pack, monkeypatch):
    # six entry products against the sixteen of AB and BA, on both product paths
    packed = []
    real = tadic._packed_sums

    def counting(*args):
        out = real(*args)
        packed.append(out is not None)
        return out

    monkeypatch.setattr(tadic, "_packed_sums", counting)
    monkeypatch.setattr(tadic, "_PACK_MIN_PAIRS", float("inf") if pack == "dict" else 0)

    @DIFF_SETTINGS
    @given(data=st.data(), m=st.integers(1, 6))
    def check(data, m):
        A = tadic.SeriesMatrix(m, data.draw(_entries(m, entries=4)))
        B = tadic.SeriesMatrix(m, data.draw(_entries(m, entries=4)))
        expected = tadic._matrix_sum(((1, A.mul(B)), (-1, B.mul(A))), m)
        assert tadic._bracket(A, B).e == expected.e

    check()
    assert any(packed) == (pack == "packed")


def _delta_of_word(tree, ctx):
    return tadic._plus_identity(ctx.eval_word(flatten_tree(tree)), -1).e


@pytest.mark.parametrize("m", range(1, 7))
def test_node_delta_with_leaf_children(m):
    # det ab = x yt and det bA = x^-1 yt, so the delta divides by y^2 t^2
    tree = ("c", ("w", "ab"), ("w", "bA"))
    ctx = SeriesContext(m)
    assert _eval_tree(tree, ctx).det == (0, 0)
    assert (tadic._word_det("ab"), tadic._word_det("bA")) == ((1, 1), (-1, 1))
    assert _eval_tree(tree, ctx).delta.e == _delta_of_word(tree, ctx)
    nested = ("c", tree, ("w", "Ba"))
    assert _eval_tree(nested, ctx).delta.e == _delta_of_word(nested, ctx)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32), k=st.integers(1, 3))
def test_node_deltas_with_one_slot(seed, k):
    ctx = SeriesContext(1)
    tree = sample_layer_element(random.Random(seed), k, ctx, maxlen=2).tree
    for sub in _subtrees(tree):
        assert _eval_tree(sub, ctx).delta.e == _delta_of_word(sub, ctx)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32), m=st.integers(2, 3))
def test_node_deltas_where_three_deltas_vanish(seed, m):
    # children of valuation >= 1 with 3 * min(val) >= m: every term of three
    # or more delta factors dies mod s^m, and the delta is D alone
    ctx = SeriesContext(m)
    rng = random.Random(seed)
    left, right = (sample_layer_element(rng, 2, ctx).tree for _ in range(2))
    tree = ("c", left, right)
    L, R = _eval_tree(left, ctx), _eval_tree(right, ctx)
    assert 3 * min(L.valuation, R.valuation) >= m
    delta = _eval_tree(tree, ctx).delta.e
    assert delta == tadic._bracket(L.delta, R.delta).e
    assert delta == _delta_of_word(tree, ctx)


@pytest.mark.parametrize("k, maxlen, examples", [(2, 3, 12), (3, 1, 4)])
def test_node_values_match_exact_words(k, maxlen, examples, free_ctx):
    # trees come from the sampler, which resamples collapsing nodes, so they
    # are nontrivial; every node is checked against its exact flattened word

    @settings(max_examples=examples, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2 ** 32), m=st.integers(2, 4))
    def check(seed, m):
        ctx = SeriesContext(m)
        tree = sample_layer_element(random.Random(seed), k, ctx, maxlen=maxlen).tree
        for sub in _subtrees(tree):
            g = free_ctx.eval_word(free_reduce(flatten_tree(sub)))
            assert _eval_tree(sub, ctx).valuation == min(t1_valuation(g), m)
            image = [tadic._laurent_to_series(e, m) for e in g.entries()]
            assert eval_tree_series(sub, ctx).e == image

    check()


@settings(max_examples=12, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 32), m=st.integers(2, 6))
def test_commutator_value_matches_letter_by_letter_product(seed, m):
    # children are depth-2 trees (valuation >= 1), so for m <= 3 the
    # (A + B + AB) D part of the delta vanishes mod s^m, and for larger m it
    # does not
    ctx = SeriesContext(m)
    rng = random.Random(seed)
    left, right = (sample_layer_element(rng, 2, ctx).tree for _ in range(2))
    node = _eval_tree(("c", left, right), ctx)
    lw, rw = flatten_tree(left), flatten_tree(right)
    expected = ctx.eval_word(lw + rw + word_inverse(lw) + word_inverse(rw))
    assert eval_tree_series(("c", left, right), ctx).e == expected.e
    assert node.valuation == tadic._valuation(tadic._plus_identity(expected, -1))
