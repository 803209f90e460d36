"""Word evaluation, normal forms, powers, commutators, and order classification."""

import random

import pytest

from burnmat import (
    GroupContext,
    LaurentPoly,
    Matrix2,
    NonConforming,
    SContext,
    UnitMonomial,
    basic_commutator,
    check_row_fixed,
    commutative_square_check,
    commutator,
    commutator_word,
    det_t_degree,
    free_reduce,
    group_closure,
    matrix_inverse,
    normal_form,
    order_in_G,
    parse_poly,
    parse_word,
    product_normal_form_rule,
    random_reduced_word,
    t_exponent_sum,
    tree_word,
    word_inverse,
)
from burnmat.groups import (balanced_commutator_word, group_context, power_from_normal_form,
                            specialize_xy1)

ONE = LaurentPoly.const(1)
X = LaurentPoly.var_x()
Y = LaurentPoly.var_y()


def _entries(M):
    return [e.render() for e in M.entries()]


def _identity_mod_sigma(M, c, identity):
    diff = M.sub(identity)
    return not any(any(e.to_truncated(c)) for e in diff.entries())


def test_eval_empty_word_is_identity(free_ctx):
    assert free_ctx.eval_word("") == free_ctx.identity()


def test_eval_generator_displays(free_ctx):
    assert _entries(free_ctx.eval_word("a")) == ["1", "1 - y", "0", "x"]
    b = free_ctx.eval_word("b")
    assert b.e11 == parse_poly("y*t") and b.e12.is_zero()
    assert b.e21 == parse_poly("1 - x*t") and b.e22 == ONE


def _product_chain(gens, w):
    """w by Matrix2.mul, letter by letter: the oracle of the letter steps."""
    M = Matrix2(ONE, LaurentPoly.zero(), LaurentPoly.zero(), ONE)
    for ch in w:
        M = M.mul(gens[ch])
    return M


def _oracle_words():
    rng = random.Random(211)
    words = ["", "a", "A", "b", "B", "aA", "Bb", "abAB", "bbbBBBaaaAAA"]
    words += [random_reduced_word(rng, 44, minlen=40) for _ in range(3)]
    # unreduced words too: the steps never cancel letters
    words += ["".join(rng.choice("aAbB") for _ in range(rng.randint(1, 30)))
              for _ in range(4)]
    assert max(map(len, words)) >= 40
    return words


@pytest.mark.parametrize("mode", GroupContext.MODES)
def test_eval_word_matches_generic_products(mode):
    ctx = GroupContext(mode)
    for w in _oracle_words():
        assert ctx.eval_word(w) == _product_chain(ctx.gens, w), w


def test_specialize_xy1_matches_generic_products(s3):
    gens = {k: M.map_entries(lambda f: f.specialize(x=1, y=1))
            for k, M in GroupContext("free").gens.items()}
    for w in _oracle_words():
        assert specialize_xy1(w) == _product_chain(gens, w), w
    assert order_in_G("abbaB", s3).certificate == (
        "specialization x=y=1 has determinant t^1, k != 0")
    assert order_in_G("BaB", s3).certificate == (
        "specialization x=y=1 has determinant t^-2, k != 0")


def test_generator_inverses_check_out(free_ctx):
    for w in ("a", "b"):
        M = free_ctx.eval_word(w)
        Minv = free_ctx.eval_word(w.upper())
        assert M.mul(Minv) == free_ctx.identity()
        assert Minv.mul(M) == free_ctx.identity()


def test_commutator_of_generators_at_t1(meta_ctx):
    got = normal_form(meta_ctx.eval_word("baBA"))
    assert got.u == UnitMonomial(1, 0, 0)
    assert got.lambda1 == -(ONE - Y)
    assert got.lambda2 == ONE - X


def test_word_inverse_and_free_reduction():
    assert word_inverse("abAB") == "baBA"
    assert free_reduce("abBA") == ""
    assert free_reduce("aAbbBa") == "ba"
    assert word_inverse(parse_word("abAB")) == "baBA"
    with pytest.raises(ValueError):
        parse_word("axq")


def test_normal_form_of_generators(meta_ctx):
    nf = normal_form(meta_ctx.eval_word("a"))
    assert (nf.u, nf.lambda1, nf.lambda2) == (UnitMonomial(1, 1, 0), ONE,
                                              LaurentPoly.zero())
    nf = normal_form(meta_ctx.eval_word("b"))
    assert (nf.u, nf.lambda1, nf.lambda2) == (UnitMonomial(1, 0, 1),
                                              LaurentPoly.zero(), ONE)
    nf = normal_form(meta_ctx.identity())
    assert (nf.u, nf.lambda1, nf.lambda2) == (UnitMonomial(1, 0, 0),
                                              LaurentPoly.zero(), LaurentPoly.zero())


def test_normal_form_rejects_nonconforming():
    from burnmat import Matrix2
    bad = Matrix2(ONE, ONE, LaurentPoly.zero(), ONE)
    with pytest.raises(NonConforming):
        normal_form(bad)


def test_normal_form_soundness_on_random_words(meta_ctx):
    rng = random.Random(23)
    for _ in range(30):
        M = meta_ctx.eval_word(random_reduced_word(rng, 10))
        nf = normal_form(M)
        assert nf.reconstruct() == M
        assert nf.constraint_holds()
        assert nf.u.is_positive


def test_power_closed_form_base_cases(meta_ctx):
    M = meta_ctx.eval_word("ab")
    assert power_from_normal_form(normal_form(M), 1) == M
    sq = power_from_normal_form(normal_form(meta_ctx.eval_word("a")), 2)
    assert sq.e12 == (ONE + X) * (ONE - Y)
    assert sq.e22 == X * X and sq.e11 == ONE and sq.e21.is_zero()


def test_power_closed_form_matches_iteration(meta_ctx):
    rng = random.Random(31)
    for _ in range(10):
        M = meta_ctx.eval_word(random_reduced_word(rng, 8))
        acc = meta_ctx.identity()
        for n in range(1, 8):
            acc = acc.mul(M)
            assert power_from_normal_form(normal_form(M), n) == acc


def test_commutator_trivial_cases(meta_ctx):
    M = meta_ctx.eval_word("ab")
    assert commutator(M, M) == meta_ctx.identity()
    assert commutator(meta_ctx.identity(), M) == meta_ctx.identity()


def test_commutator_of_generators(meta_ctx):
    C = commutator(meta_ctx.eval_word("b"), meta_ctx.eval_word("a"))
    nf = normal_form(C)
    assert nf.lambda1 == -(ONE - Y) and nf.lambda2 == ONE - X


def test_derived_subgroup_is_additive_at_t1(free_ctx):
    # what verify_burnside_exponent's comment proves: (g - I)(h - I) = 0 for
    # det-1 g, h at t = 1, so g -> g - I takes products to sums on G'
    ctx = group_context("metabelian")
    ident = ctx.identity()
    zero = ident.sub(ident)
    rng = random.Random(41)
    for _ in range(30):
        g, h = (ctx.eval_word(commutator_word(random_reduced_word(rng, 5),
                                              random_reduced_word(rng, 5)))
                for _ in range(2))
        assert g.det() == ONE and h.det() == ONE
        assert g.sub(ident).mul(h.sub(ident)) == zero
        assert g.mul(h).sub(ident).sub(g.sub(ident)) == h.sub(ident)
    # negative control: over R[t,t^-1] two commutators need not do so
    g, h = free_ctx.eval_word("abAB"), free_ctx.eval_word("baBA")
    assert not g.sub(ident).mul(h.sub(ident)) == zero


def test_matrix_inverse_round_trip(free_ctx):
    rng = random.Random(37)
    for _ in range(10):
        M = free_ctx.eval_word(random_reduced_word(rng, 8))
        assert M.mul(matrix_inverse(M)) == free_ctx.identity()


def test_basic_commutator_predictions(meta_ctx):
    expect = {
        (0, 0): (-(ONE - Y), ONE - X),
        (1, 0): (-(ONE - Y) * (ONE - X), (ONE - X) ** 2),
        (0, 1): (-(ONE - Y) ** 2, (ONE - Y) * (ONE - X)),
    }
    for (a, b), (l1, l2) in expect.items():
        word, predicted = basic_commutator(a, b)
        assert predicted.lambda1 == l1 and predicted.lambda2 == l2
        assert normal_form(meta_ctx.eval_word(word)) == predicted


def test_basic_commutator_letter_counts():
    for a in range(3):
        for b in range(3):
            word, _ = basic_commutator(a, b)
            assert word.count("a") + word.count("A") > 0
            # the two generators occur a+1 and b+1 times net of inverse pairs
            assert t_exponent_sum(word) == 0


def test_basic_commutator_lower_central_valuation(meta_ctx):
    for a in range(3):
        for b in range(3):
            _, predicted = basic_commutator(a, b)
            j = a + b + 2
            assert predicted.lambda1.sigma_valuation() >= j - 1
            assert predicted.lambda2.sigma_valuation() >= j - 1


def test_conjugation_multiplies_lambdas_by_unit(meta_ctx):
    rng = random.Random(41)
    C = meta_ctx.eval_word("baBA")
    nfc = normal_form(C)
    for _ in range(10):
        w = random_reduced_word(rng, 6)
        M = meta_ctx.eval_word(w)
        u = normal_form(M).u.as_poly()
        got = normal_form(M.mul(C).mul(matrix_inverse(M)))
        assert got.lambda1 == u * nfc.lambda1
        assert got.lambda2 == u * nfc.lambda2


def test_nilpotent_quotient_classes(meta_ctx):
    ident = meta_ctx.identity()
    for c in (2, 3, 4):
        for a in range(3):
            for b in range(3):
                if a + b + 2 >= c:
                    word, _ = basic_commutator(a, b)
                    M = meta_ctx.eval_word(word)
                    assert _identity_mod_sigma(M, c, ident)
        if c == 2:
            witness = meta_ctx.eval_word("a")
        else:
            word, _ = basic_commutator(c - 3, 0)
            witness = meta_ctx.eval_word(word)
        assert not _identity_mod_sigma(witness, c, ident)


def test_t_exponent_sum_and_det_degree(free_ctx):
    assert t_exponent_sum("") == 0
    assert t_exponent_sum("b") == 1
    assert det_t_degree(free_ctx.eval_word("b")) == 1
    assert free_ctx.eval_word("b").det() == parse_poly("y*t")
    rng = random.Random(43)
    for _ in range(15):
        w = random_reduced_word(rng, 10)
        conj = free_reduce(w + "a" + word_inverse(w))
        assert t_exponent_sum(conj) == 0
        assert det_t_degree(free_ctx.eval_word(w)) == t_exponent_sum(w)


def test_det_is_multiplicative_positive_unit(free_ctx):
    rng = random.Random(47)
    for _ in range(10):
        w1 = random_reduced_word(rng, 8)
        w2 = random_reduced_word(rng, 8)
        d1, d2 = free_ctx.eval_word(w1).det(), free_ctx.eval_word(w2).det()
        d12 = free_ctx.eval_word(w1).mul(free_ctx.eval_word(w2)).det()
        assert d12 == d1 * d2
        u = UnitMonomial.from_poly(d1)
        assert u.sign == 1


def test_order_of_generators(s2, s3):
    assert order_in_G("a", s2).order == 2
    assert order_in_G("a", s3).order == 3
    r = order_in_G("b", s3)
    assert r.is_infinite
    assert "determinant t^" in r.certificate


def test_order_of_conjugates(s3):
    rng = random.Random(53)
    for _ in range(5):
        w = random_reduced_word(rng, 6)
        conj = free_reduce(w + "a" + word_inverse(w))
        assert order_in_G(conj, s3).order == 3


def test_row_vector_is_fixed(meta_ctx):
    assert check_row_fixed(meta_ctx.identity())
    assert check_row_fixed(meta_ctx.eval_word("a"))
    rng = random.Random(59)
    for _ in range(15):
        assert check_row_fixed(meta_ctx.eval_word(random_reduced_word(rng, 10)))


def test_product_rule_for_normal_forms(meta_ctx):
    nf_a = normal_form(meta_ctx.eval_word("a"))
    nf_b = normal_form(meta_ctx.eval_word("b"))
    ident = normal_form(meta_ctx.identity())
    assert product_normal_form_rule(nf_a, ident) == nf_a
    prod = product_normal_form_rule(nf_a, nf_b)
    assert prod.u == UnitMonomial(1, 1, 1)
    assert prod.lambda1 == ONE and prod.lambda2 == X
    assert prod.constraint_holds()


def test_product_rule_matches_direct_products(meta_ctx):
    rng = random.Random(61)
    for _ in range(20):
        M1 = meta_ctx.eval_word(random_reduced_word(rng, 8))
        M2 = meta_ctx.eval_word(random_reduced_word(rng, 8))
        predicted = product_normal_form_rule(normal_form(M1), normal_form(M2))
        assert predicted == normal_form(M1.mul(M2))
        assert predicted.constraint_holds()


def test_commutative_square_basics(s2, s3):
    assert commutative_square_check("", s3)
    assert commutative_square_check("a", s3)
    assert commutative_square_check("b", s3)
    rng = random.Random(67)
    for _ in range(10):
        w = random_reduced_word(rng, 8)
        assert commutative_square_check(w, s2)
        assert commutative_square_check(w, s3)


def test_group_closure_sizes(s2, s3):
    assert group_closure(s2) == 4
    assert group_closure(s3) == 27


def test_square_and_closure_build_no_context_per_call(s2, monkeypatch):
    # each mode's GroupContext is built once per process, not per sample
    assert group_context("free") is group_context("free")
    group_context("metabelian")
    built = []
    init = GroupContext.__init__

    def counting_init(self, mode):
        built.append(mode)
        init(self, mode)

    monkeypatch.setattr(GroupContext, "__init__", counting_init)
    for w in ("ab", "aBBA", "bab"):
        assert commutative_square_check(w, s2)
    assert group_closure(s2) == 4
    assert built == []


def test_group_closure_respects_max_size():
    # the q=4 closure has 1,024 elements
    with pytest.raises(RuntimeError, match="exceeded 100 elements"):
        group_closure(SContext.for_q(4), max_size=100)


def test_tree_word_is_balanced_commutator_of_leaves_in_order():
    assert balanced_commutator_word(["a"]) == "a"
    assert balanced_commutator_word("ab") == "abAB"
    assert balanced_commutator_word("abab") == "abABabABbaBAbaBA"
    for depth in range(4):
        rng, ref = random.Random(depth), random.Random(depth)
        leaves = [random_reduced_word(ref, 3) for _ in range(1 << depth)]
        assert tree_word(rng, depth, 3) == balanced_commutator_word(leaves)


def test_short_words_separate_under_integer_specialization(free_ctx):
    # depth-first over freely reduced words; integer images must avoid I
    gens = {ch: [e.specialize(x=1, y=-1, t=-1).terms.get((0, 0, 0), 0)
                 for e in free_ctx.eval_word(ch).entries()]
            for ch in "aAbB"}
    ident = [1, 0, 0, 1]
    inv = {"a": "A", "A": "a", "b": "B", "B": "b"}
    stack = [(ident, "", 0)]
    while stack:
        mat, last, depth = stack.pop()
        for ch in "aAbB":
            if last and ch == inv[last]:
                continue
            m, g = mat, gens[ch]
            nxt = [m[0] * g[0] + m[1] * g[2], m[0] * g[1] + m[1] * g[3],
                   m[2] * g[0] + m[3] * g[2], m[2] * g[1] + m[3] * g[3]]
            assert nxt != ident
            if depth + 1 < 5:
                stack.append((nxt, ch, depth + 1))
