"""Exact Laurent arithmetic, truncation, and Sigma-valuation."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from burnmat import LaurentPoly, PolyParseError, parse_poly
from burnmat.ideals import _times_sigma
from burnmat.rings import xpow_coeffs

ONE = LaurentPoly.const(1)
X = LaurentPoly.var_x()
Y = LaurentPoly.var_y()
T = LaurentPoly.var_t()


def _unit(D, r, s, c=1):
    """c * a^r b^s in R/Sigma^D: graded-lex position (r+s)(r+s+1)/2 + r."""
    v = [0] * (D * (D + 1) // 2)
    v[(r + s) * (r + s + 1) // 2 + r] = c
    return tuple(v)


def _times_a_b(v, D):
    """(a * v, b * v) in R/Sigma^D, exact: the shifts of ideals._times_sigma."""
    return tuple(map(tuple, _times_sigma(np.array([v], dtype=object), D).tolist()))


def _add(*vecs):
    return tuple(map(sum, zip(*vecs)))


def _sub(u, v):
    return tuple(x - y for x, y in zip(u, v))


def _rand_poly(rng, with_t=False, terms=6):
    f = LaurentPoly.zero()
    for _ in range(rng.randint(1, terms)):
        k = rng.randint(-4, 4) if with_t else 0
        f = f + LaurentPoly.monomial(rng.randint(-9, 9), rng.randint(-4, 4),
                                     rng.randint(-4, 4), k)
    return f


def test_add_identity_and_additive_inverse():
    f = parse_poly("3*x^2*y^-1 - t")
    assert f + LaurentPoly.zero() == f
    assert (ONE - X) + (X - ONE) == LaurentPoly.zero()


def test_add_merges_term_maps():
    assert (ONE - X) + (ONE - Y) == parse_poly("2 - x - y")


def test_mul_identity_and_unit_inverse():
    f = parse_poly("x - 2*y + t^-3")
    assert f * ONE == f
    assert LaurentPoly.monomial(1, 1) * LaurentPoly.monomial(1, -1) == ONE


def test_mul_convolution():
    assert (ONE - X) * (ONE - Y) == parse_poly("1 - x - y + x*y")


def test_no_zero_coefficients_stored():
    f = (ONE - X) + (X - ONE) + ONE
    assert list(f.terms.values()) == [1]


def test_ring_axioms_on_random_triples():
    rng = random.Random(1)
    for _ in range(30):
        f, g, h = (_rand_poly(rng, with_t=True) for _ in range(3))
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f * ONE == f


def test_augmentation_values():
    assert (ONE - X).augmentation() == 0
    assert LaurentPoly.monomial(1, 3, -2).augmentation() == 1
    u = LaurentPoly.monomial(1, 1, 2)
    for q in (2, 3, 5):
        s = sum((u ** i for i in range(q)), LaurentPoly.zero())
        assert s.augmentation() == q


def test_augmentation_is_ring_hom():
    rng = random.Random(11)
    for _ in range(40):
        f, g = _rand_poly(rng), _rand_poly(rng)
        assert (f + g).augmentation() == f.augmentation() + g.augmentation()
        assert (f * g).augmentation() == f.augmentation() * g.augmentation()


def test_sigma_valuation_monomials():
    assert (ONE - X).sigma_valuation() == 1
    assert ((ONE - X) ** 2 * (ONE - Y)).sigma_valuation() == 3


def test_sigma_valuation_clears_negative_exponents():
    f = parse_poly("x^-1 - 1")
    assert f.sigma_valuation() == 1
    # oracle: x^-1 - 1 = x^-1 * (1 - x), and the unit does not shift valuation
    assert (f * X).sigma_valuation() == 1


def test_sigma_valuation_edge_cases():
    assert LaurentPoly.zero().sigma_valuation() == float("inf")
    assert LaurentPoly.const(5).sigma_valuation() == 0
    with pytest.raises(ValueError):
        (T - ONE).sigma_valuation()


def test_sigma_valuation_additive_on_products():
    rng = random.Random(5)
    done = 0
    while done < 40:
        f, g = _rand_poly(rng), _rand_poly(rng)
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).sigma_valuation() == f.sigma_valuation() + g.sigma_valuation()
        done += 1


def _valuation_from_tuples(f):
    """The least degree with a nonzero coordinate in the whole to_truncated(D) tuple,
    D doubling: how sigma_valuation read it before it summed degree by degree."""
    D = 1
    while True:
        v = f.to_truncated(D)
        for d in range(D):
            if any(v[d * (d + 1) // 2:(d + 1) * (d + 2) // 2]):
                return d
        D *= 2


def test_sigma_valuation_matches_the_truncated_tuples():
    rng = random.Random(11)
    for _ in range(200):
        f = _rand_poly(rng)
        # products of (1-x)^i (1-y)^j, and more y- than x-exponents
        f = f * (ONE - X) ** rng.randint(0, 5) * (ONE - Y) ** rng.randint(0, 5)
        if rng.random() < 0.3:
            f = f * (ONE - LaurentPoly.monomial(1, 0, rng.choice((-2, -1, 1, 2))))
        if not f.is_zero():
            assert f.sigma_valuation() == _valuation_from_tuples(f)


def test_sigma_valuation_memory_stays_bounded():
    # the whole to_truncated(512) tuple of (x^-1 - 1)^500 and its rows of x^i
    # peaked at 24.9 MiB; degree by degree it takes 0.25 MiB.  In y, the sums
    # are held per x-exponent instead
    for f, v in (((LaurentPoly.monomial(1, -1) - ONE) ** 500, 500),
                 ((LaurentPoly.monomial(1, 0, -1) - ONE) ** 200, 200)):
        tracemalloc.start()
        try:
            assert f.sigma_valuation() == v
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20


def test_in_sigma_power_matches_valuation():
    rng = random.Random(6)
    for _ in range(40):
        f = _rand_poly(rng)
        v = f.sigma_valuation()
        for d in range(6):
            assert f.in_sigma_power(d) == (v >= d)


def test_xpow_coeffs_are_the_binomial_rows():
    # (1-a)^n: (-1)^r C(n, r) for n >= 0, the geometric series power C(-n-1+r, r) below
    for n in range(-60, 60):
        for D in range(15):
            expect = [(-1) ** r * math.comb(n, r) if n >= 0 else math.comb(-n - 1 + r, r)
                      for r in range(D)]
            assert xpow_coeffs(n, D) == tuple(expect), (n, D)
    assert xpow_coeffs(10 ** 6, 3) == (1, -10 ** 6, math.comb(10 ** 6, 2))


def test_to_truncated_unit_vector_and_dimension():
    for D in (1, 2, 3, 5):
        tp = ONE.to_truncated(D)
        assert tp == _unit(D, 0, 0)
        assert len(tp) == D * (D + 1) // 2


def test_to_truncated_geometric_series():
    got = parse_poly("x^-1").to_truncated(3)
    expected = _add(_unit(3, 0, 0), _unit(3, 1, 0), _unit(3, 2, 0))
    assert got == expected


def test_to_truncated_degree_cutoff():
    got = parse_poly("1+x+x^2").to_truncated(2)
    expected = _add(_unit(2, 0, 0, 3), _unit(2, 1, 0, -3))
    assert got == expected


def test_truncated_unit_inverse_is_exact():
    # x = 1 - a, so the coordinates v of x^-1 satisfy v - a*v = 1
    for D in (2, 3, 5):
        v = parse_poly("x^-1").to_truncated(D)
        assert _sub(v, _times_a_b(v, D)[0]) == _unit(D, 0, 0)


def test_to_truncated_is_ring_hom():
    # additive, and x*f -> v - a*v, y*f -> v - b*v: with units x^-1 and y^-1
    # (the inverse test above) these fix the image of every product
    rng = random.Random(9)
    for _ in range(30):
        f, g = _rand_poly(rng), _rand_poly(rng)
        D = rng.randint(2, 5)
        v = f.to_truncated(D)
        assert (f + g).to_truncated(D) == _add(v, g.to_truncated(D))
        av, bv = _times_a_b(v, D)
        assert (X * f).to_truncated(D) == _sub(v, av)
        assert (Y * f).to_truncated(D) == _sub(v, bv)


def test_specialize_keeps_unassigned_variables():
    rng = random.Random(3)
    f = _rand_poly(rng, with_t=True)
    assert f.specialize() == f
    g = parse_poly("x*y*t").specialize(y=-1)
    assert g == -(X * T)


def test_specialize_generator_matrices(free_ctx):
    m1 = [e.specialize(x=1, y=-1, t=-1) for e in free_ctx.eval_word("a").entries()]
    assert m1 == [LaurentPoly.const(c) for c in (1, 2, 0, 1)]
    m2t = [e.specialize(x=1, y=-1, t=-1) for e in free_ctx.eval_word("b").entries()]
    assert m2t == [LaurentPoly.const(c) for c in (1, 0, 2, 1)]


def test_parse_render_round_trip():
    rng = random.Random(4)
    for _ in range(30):
        f = _rand_poly(rng, with_t=True)
        assert parse_poly(f.render()) == f


@pytest.mark.parametrize("text, expected", [
    ("0", "0"),
    ("-x", "-x"),
    ("7", "7"),
    ("-3*x + 1", "1 - 3*x"),
    ("x^-2*y - 2*y^-1", "x^-2*y - 2*y^-1"),
    ("t - 2*x*t^-1 + 1", "1 + t - 2*x*t^-1"),
    ("-1 + t^3*y^2", "-1 + y^2*t^3"),
    ("(1-x)*(1-y)^2", "1 - 2*y + y^2 - x + 2*x*y - x*y^2"),
])
def test_laurent_render_strings(text, expected):
    assert parse_poly(text).render() == expected


def test_parse_whitespace_and_parens():
    assert parse_poly(" ( 1 - x ) * (1-y) ") == (ONE - X) * (ONE - Y)
    assert parse_poly("x^-2") == LaurentPoly.monomial(1, -2)
    assert parse_poly("-x^2*y") == LaurentPoly.monomial(-1, 2, 1)


def test_parse_error_carries_position():
    with pytest.raises(PolyParseError) as ei:
        parse_poly("1 + * x")
    assert isinstance(ei.value.pos, int)
    assert "position" in str(ei.value)
