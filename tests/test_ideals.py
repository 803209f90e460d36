"""Cyclotomic ideal lattices, membership queries, and quotient arithmetic."""

import random

import pytest

from burnmat import (
    BurnsideParams,
    LaurentPoly,
    TruncatedPoly,
    build_ideal_lattice,
    cyclotomic_generators,
    cyclotomic_lattice,
    is_member,
    p_power_sigma_check,
    parse_poly,
    s_add,
    s_mul,
    s_reduce,
    sigma_power_lattice,
)

PARAMS = {q: BurnsideParams.from_q(q) for q in (2, 3, 4, 5, 7, 8, 9)}


def _unit(D, r, s, c=1):
    return TruncatedPoly.basis_monomial(D, r, s, c)


def test_parameter_table():
    expect = {2: (2, 1, 1, 1, 2), 3: (3, 1, 2, 2, 3), 4: (2, 2, 2, 4, 5),
              5: (5, 1, 4, 4, 5), 7: (7, 1, 6, 6, 7), 8: (2, 3, 4, 12, 13),
              9: (3, 2, 6, 12, 13)}
    for q, (p, e, phi, bound, D) in expect.items():
        pr = PARAMS[q]
        assert (pr.p, pr.e, pr.phi, pr.bound, pr.D) == (p, e, phi, bound, D)


def test_non_prime_power_rejected():
    for n in (-3, 0, 1, 6, 10, 12, 15):
        with pytest.raises(ValueError):
            BurnsideParams.from_q(n)


def test_q_is_bounded_by_13():
    assert (BurnsideParams.from_q(11).D, BurnsideParams.from_q(13).D) == (11, 13)
    for n in (14, 16, 17, 101):
        with pytest.raises(ValueError, match=f"<= 13, got {n}"):
            BurnsideParams.from_q(n)


def test_generator_at_unit_one_is_constant_q():
    for q in (2, 3, 5):
        gens = cyclotomic_generators(PARAMS[q])
        assert _unit(PARAMS[q].D, 0, 0, q) in gens


def test_generator_truncated_images():
    # 1 + x = 2 - a at D = 2
    assert _unit(2, 0, 0, 2) - _unit(2, 1, 0) in cyclotomic_generators(PARAMS[2])
    # 1 + y + y^2 = 3 - 3b + b^2 at D = 3
    target = _unit(3, 0, 0, 3) - _unit(3, 0, 1, 3) + _unit(3, 0, 2)
    assert target in cyclotomic_generators(PARAMS[3])


def test_unit_ideal_spans_everything():
    D = 3
    lat = build_ideal_lattice([TruncatedPoly.one(D)], D)
    n = D * (D + 1) // 2
    assert lat.rank == n
    assert [list(r) for r in lat.rows] == \
        [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def test_q2_lattice_rows():
    lat = cyclotomic_lattice(PARAMS[2])
    assert [list(r) for r in lat.rows] == [[2, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_q2_product_with_sigma_rows():
    lat = cyclotomic_lattice(PARAMS[2], times_sigma=True)
    assert [list(r) for r in lat.rows] == [[0, 2, 0], [0, 0, 2]]


def test_hnf_is_independent_of_generator_order():
    for q in (2, 3, 4):
        gens = cyclotomic_generators(PARAMS[q])
        rng = random.Random(q)
        shuffled = list(gens)
        rng.shuffle(shuffled)
        a = build_ideal_lattice(gens, PARAMS[q].D)
        b = build_ideal_lattice(shuffled, PARAMS[q].D)
        assert a.rows == b.rows


def test_membership_examples():
    lat3 = cyclotomic_lattice(PARAMS[3])
    assert is_member(LaurentPoly.const(3), lat3)
    assert is_member(parse_poly("(1-x)^2"), lat3)
    assert not is_member(parse_poly("1-x"), lat3)


def test_boundary_monomials_small_q():
    for q in (2, 3, 4):
        pr = PARAMS[q]
        lat = cyclotomic_lattice(pr)
        top = [_unit(pr.D, r, pr.bound - r) for r in range(pr.bound + 1)]
        assert all(is_member(m, lat) for m in top)
        below = [_unit(pr.D, r, pr.bound - 1 - r) for r in range(pr.bound)]
        assert not all(is_member(m, lat) for m in below)


def test_ideal_closure_under_a_and_b():
    for q in (2, 3, 4):
        assert cyclotomic_lattice(PARAMS[q]).verify_ideal_closure()
        assert cyclotomic_lattice(PARAMS[q], times_sigma=True).verify_ideal_closure()


def test_augmentation_obstructions():
    for q in (2, 3, 4):
        pr = PARAMS[q]
        for row in cyclotomic_lattice(pr).rows:
            assert TruncatedPoly(pr.D, row).augmentation() % q == 0
        for row in cyclotomic_lattice(pr, times_sigma=True).rows:
            assert TruncatedPoly(pr.D, row).augmentation() == 0


def test_sigma_power_lattice_membership():
    lat = sigma_power_lattice(2, 4)
    assert is_member(_unit(4, 1, 1), lat)
    assert is_member(_unit(4, 3, 0), lat)
    assert not is_member(_unit(4, 1, 0), lat)
    assert not is_member(TruncatedPoly.one(4), lat)


def test_prime_q_membership_matches_valuation(s3):
    # for e = 1 and f in Sigma: membership in the ideal ~ valuation >= phi
    rng = random.Random(17)
    lat = cyclotomic_lattice(PARAMS[3])
    for _ in range(20):
        f = LaurentPoly.zero()
        for _ in range(rng.randint(1, 4)):
            f = f + LaurentPoly.monomial(rng.randint(-5, 5), rng.randint(-3, 3),
                                         rng.randint(-3, 3))
        f = f - LaurentPoly.const(f.augmentation())
        if f.is_zero():
            continue
        if f.sigma_valuation() >= PARAMS[3].phi:
            assert is_member(f, lat)


def test_p_power_refinement_q4():
    assert p_power_sigma_check(PARAMS[4], 1, 3)
    assert p_power_sigma_check(PARAMS[4], 0, 4)


def test_p_power_refinement_preconditions():
    with pytest.raises(ValueError):
        p_power_sigma_check(PARAMS[3], 1, 2)  # needs e >= 2
    with pytest.raises(ValueError):
        p_power_sigma_check(PARAMS[4], 2, 3)  # j > e-1
    with pytest.raises(ValueError):
        p_power_sigma_check(PARAMS[4], 1, 2)  # k below the admissible range


def test_s_reduce_examples(s2):
    assert s_reduce(TruncatedPoly.zero(2), s2).is_zero()
    assert s_reduce(_unit(2, 1, 0, 2), s2).is_zero()  # 2a lies in the lattice


def test_s_reduce_idempotent(s2):
    rng = random.Random(2)
    for _ in range(25):
        v = TruncatedPoly(2, [rng.randint(-9, 9) for _ in range(3)])
        r = s_reduce(v, s2)
        assert s_reduce(TruncatedPoly(2, r.coeffs), s2) == r


def test_s_arithmetic(s2, s3):
    xbar = s_reduce(parse_poly("x").to_truncated(3), s3)
    xinv = s_reduce(parse_poly("x^-1").to_truncated(3), s3)
    one = s_reduce(TruncatedPoly.one(3), s3)
    zero = s_reduce(TruncatedPoly.zero(3), s3)
    assert s_mul(xbar, xinv) == one
    assert s_mul(xbar, zero).is_zero()
    assert s_add(xbar, zero) == xbar
    abar = s_reduce(_unit(2, 1, 0), s2)
    assert s_mul(abar, abar).is_zero()


def test_s_context_mismatch_rejected(s2, s3):
    u = s_reduce(TruncatedPoly.one(2), s2)
    v = s_reduce(TruncatedPoly.one(3), s3)
    with pytest.raises(ValueError):
        s_mul(u, v)
