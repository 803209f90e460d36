"""Cyclotomic ideal lattices, membership queries, and quotient arithmetic."""

import random
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from burnmat import (
    BurnsideParams,
    IdealLattice,
    LaurentPoly,
    build_ideal_lattice,
    cyclotomic_generators,
    cyclotomic_lattice,
    p_power_sigma_check,
    parse_poly,
    sigma_power_lattice,
)
from burnmat import ideals
from burnmat.ideals import StabilizationError, _closure_hnf, _cyclotomic_rows, _times_sigma

PARAMS = {q: BurnsideParams.from_q(q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)}


def _times_a_b(v, D):
    """(a * v, b * v) in R/Sigma^D, exact: the shifts of ideals._times_sigma."""
    return _times_sigma(np.array([v], dtype=object), D).tolist()


def _unit(D, r, s, c=1):
    """c * a^r b^s in R/Sigma^D: graded-lex position (r+s)(r+s+1)/2 + r."""
    v = [0] * (D * (D + 1) // 2)
    v[(r + s) * (r + s + 1) // 2 + r] = c
    return tuple(v)


def _add(*vecs):
    return tuple(map(sum, zip(*vecs)))


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
    assert _add(_unit(2, 0, 0, 2), _unit(2, 1, 0, -1)) in cyclotomic_generators(PARAMS[2])
    # 1 + y + y^2 = 3 - 3b + b^2 at D = 3
    target = _add(_unit(3, 0, 0, 3), _unit(3, 0, 1, -3), _unit(3, 0, 2))
    assert target in cyclotomic_generators(PARAMS[3])


def test_unit_ideal_spans_everything():
    D = 3
    lat = build_ideal_lattice([_unit(D, 0, 0)], D)
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
    for q in (2, 3, 4, 8, 9):
        gens = cyclotomic_generators(PARAMS[q])
        rng = random.Random(q)
        shuffled = list(gens)
        rng.shuffle(shuffled)
        for times_sigma in (False, True):
            a = build_ideal_lattice(gens, PARAMS[q].D, times_sigma=times_sigma)
            b = build_ideal_lattice(shuffled, PARAMS[q].D, times_sigma=times_sigma)
            assert a.rows == b.rows


def _xgcd(a, b):
    """(g, s, t) with g = gcd(a, b) = s*a + t*b, for b != 0."""
    s0, s1, r0, r1 = 1, 0, a, b
    while r1:
        k = r0 // r1
        r0, r1, s0, s1 = r1, r0 - k * r1, s1, s0 - k * s1
    return r0, s0, (r0 - s0 * a) // b


def _reference_hnf(gens, D, times_sigma, q):
    """Exact HNF of the ideal closure by Euclid merges and a saturation loop.

    The rows start as q * e_m (m >= 1 for the product with Sigma), so every
    column keeps a pivot dividing q and vectors may be reduced modulo q.
    """
    n = D * (D + 1) // 2
    start = 1 if times_sigma else 0
    rows = {m: [q * (k == m) for k in range(n)] for m in range(start, n)}

    def insert(v):
        grew = False
        v = [x % q for x in v]
        for c in range(start, n):
            r = rows[c]
            if v[c] % r[c]:
                g, s, t = _xgcd(r[c], v[c])
                u, w = v[c] // g, r[c] // g
                rows[c] = [0] * c + [g] + [(s * x + t * y) % q
                                           for x, y in zip(r[c + 1:], v[c + 1:])]
                v = [(u * x - w * y) % q for x, y in zip(r, v)]
                grew = True
            elif v[c]:
                k = v[c] // r[c]
                v = [(y - k * x) % q for x, y in zip(r, v)]
        return grew

    for g in gens:
        v = list(g)
        for w in (_times_a_b(v, D) if times_sigma else (v,)):
            insert(w)
    changed = True
    while changed:
        changed = False
        for c in range(start, n):
            for w in _times_a_b(rows[c], D):
                changed |= insert(w)
    for c in range(start, n):
        for c0 in range(start, c):
            k = rows[c0][c] // rows[c][c]
            rows[c0] = [x - k * y for x, y in zip(rows[c0], rows[c])]
    return tuple(tuple(rows[c]) for c in range(start, n))


def _assert_canonical_hnf(lat: IdealLattice):
    pivots = [next(c for c, v in enumerate(row) if v) for row in lat.rows]
    assert pivots == sorted(set(pivots))
    for i, (c, row) in enumerate(zip(pivots, lat.rows)):
        assert row[c] > 0
        assert all(0 <= above[c] < row[c] for above in lat.rows[:i])


@pytest.mark.parametrize("q", sorted(PARAMS))
@pytest.mark.parametrize("times_sigma", [False, True])
def test_lattice_is_the_canonical_hnf_of_the_ideal(q, times_sigma):
    pr = PARAMS[q]
    for grid in (pr.D, pr.D + 1):
        gens = cyclotomic_generators(pr, grid=grid)
        lat = build_ideal_lattice(gens, pr.D, times_sigma=times_sigma)
        _assert_canonical_hnf(lat)
        assert lat.rows == _reference_hnf(gens, pr.D, times_sigma, q)
        for g in gens:
            seeds = _times_a_b(g, pr.D) if times_sigma else (g,)
            assert all(lat.member(v) for v in seeds)
    assert lat == cyclotomic_lattice(pr, times_sigma=times_sigma)


def test_pivot_multiple_is_requeued():
    # basis order 1, b, a: 2 * (2b + a) = 4b + 2a leaves 2a in the lattice once
    # 4b is subtracted, and neither shift of 2b + a reaches it at D = 2
    lat = build_ideal_lattice([_unit(2, 0, 0, 4), _add(_unit(2, 0, 1, 2), _unit(2, 1, 0))], 2)
    assert lat.rows == ((4, 0, 0), (0, 2, 1), (0, 0, 2))


def test_random_generator_sets_match_the_reference():
    rng = random.Random(5)
    for _ in range(60):
        q = rng.choice((2, 3, 4, 5, 8, 9, 25))
        D = rng.randint(1, 5)
        n = D * (D + 1) // 2
        gens = [_unit(D, 0, 0, q)]
        for _ in range(rng.randint(1, 4)):
            gens.append(tuple(rng.choice((0, 0, rng.randint(-30, 30))) for _ in range(n)))
        for times_sigma in (False, True):
            lat = build_ideal_lattice(gens, D, times_sigma=times_sigma)
            _assert_canonical_hnf(lat)
            assert lat.rows == _reference_hnf(gens, D, times_sigma, q), (q, D, gens)


@pytest.mark.parametrize("q", sorted(PARAMS))
def test_mod_q_rows_match_exact_generators(q):
    pr = PARAMS[q]
    for D in (pr.D, pr.D + 2):
        for grid in (D, D + 1):
            exact = cyclotomic_generators(pr, D=D, grid=grid)
            assert _cyclotomic_rows(q, D, grid).tolist() == \
                [[c % q for c in g] for g in exact], (D, grid)


# for prime q, I(q)Sigma is q * Sigma at D = q, so the u = 1 row alone spans it
@pytest.mark.parametrize("q, times_sigma", [(q, False) for q in sorted(PARAMS)]
                         + [(q, True) for q in sorted(PARAMS) if PARAMS[q].e > 1])
def test_membership_check_rejects_a_smaller_span(q, times_sigma):
    D = PARAMS[q].D
    rows = _cyclotomic_rows(q, D, D)
    seeds = _times_sigma(rows, D) if times_sigma else rows

    def spans(gen_rows):
        # the stabilization check of cyclotomic_lattice, on these generators
        lat = IdealLattice(D, "test", _closure_hnf(gen_rows, D, times_sigma, q).tolist(), q)
        left = seeds.copy()
        lat.reduce_rows(left)
        return not left.any()

    assert spans(rows)
    # u = 1 and u = y only
    assert not spans(rows[:2])


# rows i-major on the 6 x 6 grid at q = 4: u = y^5 and u = x^5 y^5
@pytest.mark.parametrize("row", [5, 35])
@pytest.mark.parametrize("times_sigma", [False, True])
def test_cyclotomic_lattice_raises_when_the_larger_grid_adds_a_non_member(
        monkeypatch, times_sigma, row):
    def rows_with_one(q, D, grid):
        rows = _cyclotomic_rows(q, D, grid)
        rows[row] = 0
        rows[row, 0] = 1  # the generator replaced by the unit
        return rows

    monkeypatch.setattr(ideals, "_cyclotomic_rows", rows_with_one)
    with pytest.raises(StabilizationError, match="did not stabilize at D=5"):
        cyclotomic_lattice(PARAMS[4], times_sigma=times_sigma)


def _exact_reduce(lat, vec):
    """The lattice's canonical residue, pivot by pivot in exact integers, with
    no mod step (the reference for reduce)."""
    v = list(vec)
    for row in lat.rows:
        c = next(i for i, x in enumerate(row) if x)
        k = v[c] // row[c]
        v = [x - k * y for x, y in zip(v, row)]
    return tuple(v)


def _reduction_peak(lat, x):
    """Largest magnitude the HNF pass of reduce_rows can meet on vectors whose
    pivot columns lie in [0, x] after the mod step.

    Row r with pivot c and p = row[c] computes k = v[c] // p and subtracts
    k * row from v.  If |v[c]| <= B[c] then |k| <= K = ceil(B[c] / p), the
    pivot product is at most K*p, v[c] ends in [0, p), and column m > c
    (product included) stays within B[m] + K*|row[m]|.  Propagating these
    bounds row by row gives the peak.  Running the pure rows last changes no
    value the other rows see, a remainder is never larger than its input, and
    the columns before the first pivot are never touched.
    """
    first = lat.dim - lat.rank
    bound = [0] * first + [x] * lat.rank
    top = x
    for c, row in enumerate(lat.rows, first):
        p = row[c]
        k = -(-bound[c] // p)
        top = max(top, k * p)
        bound[c] = p - 1
        for m in range(c + 1, lat.dim):
            bound[m] += k * abs(row[m])
    return max(top, max(bound))


@pytest.mark.parametrize("q", sorted(PARAMS))
@pytest.mark.parametrize("times_sigma", [False, True])
def test_reduce_rows_matches_reduce(q, times_sigma):
    # at q = 9, the largest of these, the peaks are 177 and 216 at D and D + 2
    for D in (PARAMS[q].D + 2, PARAMS[q].D):
        lat = cyclotomic_lattice(PARAMS[q], D=D, times_sigma=times_sigma)
        assert _reduction_peak(lat, q - 1) <= (216 if times_sigma else 177), D
    rng = random.Random(q)
    n, first = lat.dim, lat.dim - lat.rank
    big = 2 ** 63 - 1
    vecs = [[rng.choice((-1, 0, 1)) for _ in range(first)]
            + [rng.randrange(q) for _ in range(lat.rank)] for _ in range(40)]
    # the mod step takes any int64
    vecs += [[rng.randint(-big, big) for _ in range(n)] for _ in range(40)]
    arr = np.array(vecs, dtype=np.int64)
    lat.reduce_rows(arr)
    assert [tuple(v) for v in arr.tolist()] == [lat.reduce(v) for v in vecs]
    # the mod step keeps the coset: q * e_c lies in the lattice for every pivot column
    for v in vecs[::10] + [[rng.randint(-2 ** 70, 2 ** 70) for _ in range(n)]]:
        assert lat.reduce(v) == _exact_reduce(lat, v)


def test_lattice_constructor_checks_its_rows():
    assert IdealLattice(2, "ok", [[0, 2, 1], [0, 0, 2]], 4).modulus == 4
    # the same rows with modulus 2: 2 * e_1 = row 0 - e_2 is not in the lattice,
    # and a mod 2 step would make (0, 2, 0) a member
    with pytest.raises(ValueError, match=r"modulus 2 is wrong .* 2 \* e_1 does not lie"):
        IdealLattice(2, "bad", [[0, 2, 1], [0, 0, 2]], 2)
    # two tails fail; the message names the last, where the pass is exact
    with pytest.raises(ValueError, match=r"2 \* e_1 does not lie"):
        IdealLattice(2, "bad", [[2, 1, 1], [0, 2, 1], [0, 0, 2]], 2)
    for modulus in (0, -4):
        with pytest.raises(ValueError, match=f"modulus must be positive, got {modulus}"):
            IdealLattice(2, "bad", [[0, 2, 1], [0, 0, 2]], modulus)
    # moduli from 2^15 up, 3^39 (which fits int64) and 2^70 (which does not)
    for modulus in (2 ** 15, 2 ** 16, 3 ** 39, 2 ** 70):
        with pytest.raises(ValueError, match=f"modulus {modulus} is not below 2\\^15"):
            IdealLattice(2, "bad", [[0, 2, 1], [0, 0, 2]], modulus)
    # entries after a pivot must lie in [0, the pivot of their column), checked
    # before any int64 array is built, so entries past int64 raise the same way
    for entry in (2, -1, 2 ** 70, -2 ** 70):
        with pytest.raises(ValueError, match=f"entry {entry} of row 0 at column 2 is "
                                             r"outside \[0, 2\)"):
            IdealLattice(2, "bad", [[0, 2, entry], [0, 0, 2]], 4)
    with pytest.raises(ValueError, match="pivot 3 at column 1 does not divide modulus 4"):
        IdealLattice(2, "bad", [[0, 3, 0], [0, 0, 2]], 4)
    # pivots must be the last rank columns, in order and positive
    for rows in ([[0, 2, 0]], [[0, 0, 2], [0, 2, 0]], [[0, -2, 0], [0, 0, 2]],
                 [[1, 0, 0]] * 4):
        with pytest.raises(ValueError, match="echelon"):
            IdealLattice(2, "bad", rows, 2)


@pytest.mark.parametrize("modulus", [2, 4, 8, 9, 12])
def test_lattice_constructor_proves_its_modulus(modulus):
    # the one tails pass accepts exactly the canonical rows for which
    # modulus * e_c reduces to 0 for every pivot column c, in exact integers,
    # and the mod step is then sound
    rng = random.Random(modulus)
    divisors = [d for d in range(1, modulus + 1) if modulus % d == 0]
    n = 6  # R/Sigma^3
    verdicts = Counter()
    for _ in range(300):
        rank = rng.randint(1, n)
        first = n - rank
        pivots = [rng.choice(divisors) for _ in range(rank)]
        rows = [[0] * first + [0] * r + [pivots[r]]
                + [rng.randrange(pivots[m]) for m in range(r + 1, rank)]
                for r in range(rank)]
        exact = all(not any(_exact_reduce(SimpleNamespace(rows=rows),
                                          [modulus * (k == c) for k in range(n)]))
                    for c in range(first, n))
        try:
            lat = IdealLattice(3, "hand", rows, modulus)
        except ValueError as exc:
            assert f"modulus {modulus} is wrong" in str(exc)
            lat = None
        assert (lat is not None) == exact, rows
        if lat is not None:
            v = [rng.randint(-99, 99) for _ in range(n)]
            assert lat.reduce(v) == _exact_reduce(lat, v)
        verdicts[exact] += 1
    assert min(verdicts[True], verdicts[False]) >= 30, verdicts


def test_build_ideal_lattice_checks_its_generators():
    pr = PARAMS[3]
    with pytest.raises(ValueError, match="R/Sigma\\^3"):
        build_ideal_lattice(cyclotomic_generators(pr, D=4), 3)
    with pytest.raises(ValueError, match="R/Sigma\\^3"):
        build_ideal_lattice(cyclotomic_generators(pr, D=2), 3)
    with pytest.raises(ValueError, match="nonzero constant"):
        build_ideal_lattice([_unit(3, 1, 0), (0,) * 6], 3)
    for c in (6, 12, -10, 1 << 15):
        with pytest.raises(ValueError, match=f"give {abs(c)}, which is neither"):
            build_ideal_lattice([_unit(3, 0, 0, c), _unit(3, 1, 0)], 3)
    # the constants' gcd is what counts: 4 and 6 give 2
    lat = build_ideal_lattice([_unit(3, 0, 0, 4), _unit(3, 0, 0, 6)], 3)
    assert [r[i] for i, r in enumerate(lat.rows)] == [2] * 6


def test_build_ideal_lattice_rejects_a_wrong_length_generator():
    # R/Sigma^3 has dimension 6: a 5- or 7-tuple is no element of it
    for n in (5, 7):
        with pytest.raises(ValueError, match="does not lie in R/Sigma\\^3"):
            build_ideal_lattice([_unit(3, 0, 0, 3), (0, 1) + (0,) * (n - 2)], 3)
    with pytest.raises(ValueError, match="does not lie in R/Sigma\\^3"):
        build_ideal_lattice([[3, 0, 0, 0, 0]], 3)


def test_membership_examples():
    lat3 = cyclotomic_lattice(PARAMS[3])
    assert lat3.member(LaurentPoly.const(3))
    assert lat3.member(parse_poly("(1-x)^2"))
    assert not lat3.member(parse_poly("1-x"))


def test_boundary_monomials_small_q():
    for q in (2, 3, 4):
        pr = PARAMS[q]
        lat = cyclotomic_lattice(pr)
        top = [_unit(pr.D, r, pr.bound - r) for r in range(pr.bound + 1)]
        assert all(lat.member(m) for m in top)
        below = [_unit(pr.D, r, pr.bound - 1 - r) for r in range(pr.bound)]
        assert not all(lat.member(m) for m in below)


def test_ideal_closure_under_a_and_b():
    # a and b times every basis row stays in the lattice
    for q in sorted(PARAMS):
        for times_sigma in (False, True):
            lat = cyclotomic_lattice(PARAMS[q], times_sigma=times_sigma)
            shifts = _times_sigma(np.array(lat.rows, dtype=object), lat.D).tolist()
            assert all(lat.member(v) for v in shifts), (q, times_sigma)


def test_augmentation_obstructions():
    for q in (2, 3, 4):
        pr = PARAMS[q]
        # the augmentation is the constant coordinate
        for row in cyclotomic_lattice(pr).rows:
            assert row[0] % q == 0
        for row in cyclotomic_lattice(pr, times_sigma=True).rows:
            assert row[0] == 0


def test_sigma_power_lattice_membership():
    lat = sigma_power_lattice(2, 4)
    assert lat.member(_unit(4, 1, 1))
    assert lat.member(_unit(4, 3, 0))
    assert not lat.member(_unit(4, 1, 0))
    assert not lat.member(_unit(4, 0, 0))


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
            assert lat.member(f)


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
    assert not any(s2.reduce((0, 0, 0)))
    assert not any(s2.reduce(_unit(2, 1, 0, 2)))  # 2a lies in the lattice


def test_s_reduce_idempotent(s2):
    rng = random.Random(2)
    for _ in range(25):
        v = [rng.randint(-9, 9) for _ in range(3)]
        r = s2.reduce(v)
        assert s2.reduce(r) == r


def test_s_arithmetic(s2, s3):
    # S(q) elements are canonical tuples v; x and y act as v - a*v and v - b*v
    def times_x(v, D):
        return [c - ca for c, ca in zip(v, _times_a_b(v, D)[0])]

    def times_y(v, D):
        return [c - cb for c, cb in zip(v, _times_a_b(v, D)[1])]

    xinv = s3.reduce(parse_poly("x^-1"))
    assert s3.reduce(times_x(xinv, 3)) == s3.reduce(LaurentPoly.const(1))
    f = parse_poly("2 - x*y^-1 + 3*y^2 - x^4")
    fbar = s3.reduce(f)
    assert s3.reduce(times_x(fbar, 3)) == s3.reduce(parse_poly("x") * f)
    assert s3.reduce(times_y(fbar, 3)) == s3.reduce(parse_poly("y") * f)
    abar = s2.reduce(_unit(2, 1, 0))
    assert not any(s2.reduce(_times_a_b(abar, 2)[0]))


def test_s_reduce_rejects_mismatched_truncation(s3):
    for D in (2, 4):
        n = D * (D + 1) // 2
        with pytest.raises(ValueError, match=f"vector length {n} != dimension 6"):
            s3.reduce(_unit(D, 0, 0))
    with pytest.raises(ValueError, match="vector length 5 != dimension 6"):
        s3.reduce([1, 0, 0, 0, 0])
