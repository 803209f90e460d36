"""Cyclotomic ideals as integer lattices in R/Sigma^D, and the quotient ring S(q).

I(q) is generated by 1 + u + ... + u^(q-1) over all positive units u = x^i y^j.
Its image in R/Sigma^D is spanned by the generators for u on the grid
0 <= i,j < D and their a,b-multiples (their coordinates are integer-valued
polynomials in (i,j) of degree < D per variable), which cyclotomic_lattice
checks at runtime.  The u = 1 generator is the constant q, so the rows are
computed mod q (_cyclotomic_rows) and the lattice is built in one pass mod
q = p^e (_closure_hnf) as its canonical Hermite normal form.

The lattice contract, which IdealLattice(D, label, rows, q) proves when it is
built (ValueError otherwise):
  - echelon form, pivots on the last rank coordinates, in order, each
    positive and dividing the modulus q, and 1 <= q < 2^15;
  - canonical: every entry after a pivot lies in [0, the pivot of its
    column), so equal lattices have equal rows and reduce_rows stays in int64;
  - q * e_c lies in the lattice L for every pivot column c.  The row with
    pivot p_c at c is p_c e_c + tail_c, so this says (q/p_c) tail_c lies in L.
    The tail lives on later columns; once q * e_m lies in L for each of them,
    the tail mod q has the same coset, and reducing it pivot by pivot decides
    membership exactly.  So, from the last pivot up, one reduce_rows pass over
    every scaled tail mod q proves the contract exactly when all come out 0.
Given it, mod_step (the pivot columns mod q) keeps a vector's coset, and
reduce, or reduce_rows on an int64 array in place, then goes pivot by pivot
to the canonical residue.  I(q) has a pivot on every coordinate, I(q)Sigma
on every one but the constant term, Sigma^k (modulus 1) on degrees >= k.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

import numpy as np

from .rings import LaurentPoly, monomial_list, tri_dim, xpow_coeffs, _index_table

MAX_Q = 13

# Moduli below 2^15 keep _closure_hnf inside int32 (see its docstring), and
# the constructor's tails pass and reduce_rows below 2^30.
_MAX_MODULUS = 1 << 15


def _prime_power(n: int) -> tuple[int, int] | None:
    """(p, e) with n = p^e for a prime p and e >= 1, or None; n >= 2."""
    p = next((c for c in range(2, math.isqrt(n) + 1) if n % c == 0), n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return (p, e) if n == 1 else None


@dataclass(frozen=True)
class BurnsideParams:
    """Prime power q = p^e with phi = p^e - p^(e-1), bound = e*phi, D = bound + 1.

    q is at most MAX_Q = 13: D <= 13 holds exactly for the prime powers up to
    13 (q = 16 already gives D = 33), and the lattice dimension grows as D^2.
    """

    q: int
    p: int
    e: int
    phi: int
    bound: int
    D: int

    @staticmethod
    def from_q(q: int) -> "BurnsideParams":
        if q < 2:
            raise ValueError(f"q must be a prime power >= 2, got {q}")
        if q > MAX_Q:
            raise ValueError(f"q must be a prime power <= {MAX_Q}, got {q}")
        pe = _prime_power(q)
        if pe is None:
            raise ValueError(f"q must be a prime power, got {q}")
        p, e = pe
        phi = p ** e - p ** (e - 1)
        bound = e * phi
        return BurnsideParams(q=q, p=p, e=e, phi=phi, bound=bound, D=bound + 1)


class StabilizationError(RuntimeError):
    """The finite generator grid did not span the ideal; should never fire."""


class IdealLattice:
    """Immutable HNF lattice in R/Sigma^D, the only code that reduces by one;
    its constructor proves the lattice contract (module docstring)."""

    __slots__ = ("D", "label", "rows", "modulus", "_first", "_plan")

    def __init__(self, D: int, label: str, rows: Iterable[Sequence[int]], modulus: int):
        self.D = D
        self.label = label
        self.rows = tuple(tuple(r) for r in rows)
        self.modulus = modulus
        n = tri_dim(D)
        first = self._first = n - len(self.rows)
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        if modulus >= _MAX_MODULUS:
            raise ValueError(f"modulus {modulus} is not below 2^15")
        # the contract on the python ints first, so no int64 array sees a bad entry
        pivots = []
        for c, row in enumerate(self.rows, first):
            if len(row) != n:
                raise ValueError(f"row length {len(row)} != dimension {n}")
            if c < 0 or any(row[:c]) or row[c] <= 0:
                raise ValueError(f"rows are not in echelon form with pivots on the "
                                 f"last {len(self.rows)} columns")
            if modulus % row[c]:
                raise ValueError(f"pivot {row[c]} at column {c} does not divide "
                                 f"modulus {modulus}")
            pivots.append(row[c])
        mixed, cols, mods = [], [], []  # reduce_rows' plan: see there
        for c, row in enumerate(self.rows, first):
            for m in range(c + 1, n):
                if not 0 <= row[m] < pivots[m - first]:
                    raise ValueError(f"entry {row[m]} of row {c - first} at column {m} "
                                     f"is outside [0, {pivots[m - first]})")
            if any(row[c + 1:]):
                mixed.append((c, row[c], np.array(row[c:], dtype=np.int64)))
            else:
                cols.append(c)
                mods.append(row[c])
        self._plan = (tuple(mixed), np.array(cols, dtype=np.int64),
                      np.array(mods, dtype=np.int64))
        # a pure row passes the check below; the mixed rows' tails, pivots zeroed
        tails = np.zeros((len(mixed), n), dtype=np.int64)
        for t, (c, _, row) in zip(tails, mixed):
            t[c + 1:] = row[1:]
        tails *= np.array([modulus // p for _, p, _ in mixed], dtype=np.int64)[:, None]
        tails %= modulus
        self.reduce_rows(tails)
        left = np.flatnonzero(tails.any(axis=1))
        if len(left):
            raise ValueError(f"modulus {modulus} is wrong for these rows: {modulus} * "
                             f"e_{mixed[left[-1]][0]} does not lie in the lattice")

    @property
    def dim(self) -> int:
        return tri_dim(self.D)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _vec(self, f) -> list[int]:
        """Coordinates of f: a LaurentPoly is truncated at D (sound for ideals
        containing Sigma^D), a vector must have the dimension of R/Sigma^D."""
        if isinstance(f, LaurentPoly):
            f = f.to_truncated(self.D)
        v = list(f)
        if len(v) != self.dim:
            raise ValueError(f"vector length {len(v)} != dimension {self.dim}")
        return v

    def mod_step(self, v: list[int]) -> list[int]:
        """v with every pivot column taken mod modulus: the same coset of the
        lattice, every pivot column in [0, modulus)."""
        first, q = self._first, self.modulus
        return v[:first] + [x % q for x in v[first:]]

    def reduce(self, f) -> tuple[int, ...]:
        """Canonical residue modulo the lattice: mod_step, then pivot by pivot,
        each pivot column into [0, pivot)."""
        v = self.mod_step(self._vec(f))
        for c, row in enumerate(self.rows, self._first):
            k = v[c] // row[c]
            if k:
                for m in range(c, len(v)):
                    v[m] -= k * row[m]
        return tuple(v)

    def reduce_rows(self, arr: np.ndarray) -> None:
        """reduce, in place, on every vector along the last axis of an int64 array.

        After the mod step every pivot column lies in [0, modulus); the caller
        keeps the pass inside int64.  For I(q) and I(q)Sigma, q <= MAX_Q, it
        meets no value above 216 (bounded per q in the tests, at D and D + 2).
        A pure row has no entry besides its pivot: it changes only its own
        column, which no later row reads, so the pure rows run last, at once.
        """
        arr[..., self._first:] %= self.modulus
        mixed, cols, mods = self._plan
        for c, p, tail in mixed:
            k = arr[..., c] // p
            if k.any():
                arr[..., c:] -= k[..., None] * tail
        if len(cols):
            arr[..., cols] %= mods

    def member(self, f) -> bool:
        return not any(self.reduce(f))

    def __eq__(self, other) -> bool:
        if not isinstance(other, IdealLattice):
            return NotImplemented
        return self.D == other.D and self.rows == other.rows

    def __hash__(self):
        return hash((self.D, self.rows))

    def __repr__(self):
        return f"IdealLattice({self.label}, D={self.D}, rank={self.rank})"


@cache
def _shift_maps(D: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """maps[i] = (src, dst): multiplication by the i-th monomial of the graded
    basis (_index_table) sends coordinate src of R/Sigma^D to coordinate dst,
    as int64 index arrays.  The maps run through degree D, where they are
    empty, so the maps of a and b (maps[_A] and maps[_B]) exist at D = 1 too.
    """
    index = _index_table(D)
    maps = []
    for r, s in monomial_list(D + 1):
        src = [m for (u, v), m in index.items() if u + r + v + s < D]
        dst = [index[(u + r, v + s)] for u, v in index if u + r + v + s < D]
        maps.append((np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)))
    return tuple(maps)


# positions of a and b in the graded basis 1, b, a, b^2, ...
_B, _A = 1, 2


def cyclotomic_generators(params: BurnsideParams, D: int | None = None,
                          grid: int | None = None) -> list[tuple[int, ...]]:
    """Images of 1 + u + ... + u^(q-1) in R/Sigma^D for u = x^i y^j on the grid
    0 <= i,j < grid (default D x D), i-major.

    u^m = x^(im) y^(jm) has coefficient X[im][r] * X[jm][s] at a^r b^s, where
    X[n] = xpow_coeffs(n, D) is the image of x^n (and of y^n in b).  Exact:
    cyclotomic_lattice uses the same rows modulo q (_cyclotomic_rows).
    """
    D = D or params.D
    grid = grid or D
    q = params.q
    # cols[i][r] = (X[0][r], X[i][r], ..., X[(q-1)i][r])
    cols = [list(zip(*(xpow_coeffs(i * m, D) for m in range(q)))) for i in range(grid)]
    monos = monomial_list(D)
    return [tuple(sum(map(operator.mul, xc[r], yc[s])) for r, s in monos)
            for xc in cols for yc in cols]


def _cyclotomic_rows(q: int, D: int, grid: int) -> np.ndarray:
    """cyclotomic_generators(params, D, grid) modulo q, as a (grid^2, tri_dim(D))
    int64 array in the same order.

    X[n][r] = (-1)^r C(n, r) mod q is built one n at a time from
    (1-a)^n = (1-a)^(n-1) (1-a), for n <= (grid-1)(q-1); the u = x^i y^j row has
    the sum over m < q of X[im][r] * X[jm][s] at a^r b^s.  Every term is below
    q^2, so every sum is below q^3 <= 2197 (q <= MAX_Q), far inside int64.
    """
    X = np.zeros(((grid - 1) * (q - 1) + 1, D), dtype=np.int64)
    X[0, 0] = 1
    for n in range(1, len(X)):
        X[n] = X[n - 1]
        X[n, 1:] -= X[n - 1, :-1]
        X[n] %= q
    powers = X[np.outer(np.arange(grid), np.arange(q))]  # [i, m] -> X[im]
    r, s = np.array(monomial_list(D)).T
    full = np.einsum("imr,jms->ijrs", powers, powers)
    return full[:, :, r, s].reshape(grid * grid, -1) % q


def _modulus(gens: list[Sequence[int]], D: int) -> int:
    """The gcd q of the constant generators, checked to be 1 or a prime power."""
    q = 0
    for g in gens:
        if len(g) != tri_dim(D):
            raise ValueError(f"generator {g!r} does not lie in R/Sigma^{D}")
        if not any(g[1:]):
            q = math.gcd(q, g[0])
    if q == 0:
        raise ValueError("the generators need a nonzero constant")
    if q > 1 and (q >= _MAX_MODULUS or _prime_power(q) is None):
        raise ValueError(f"the constant generators give {q}, which is neither 1 "
                         f"nor a prime power below 2^15")
    return q


def build_ideal_lattice(gens: list[Sequence[int]], D: int, label: str = "Ideal",
                        times_sigma: bool = False) -> IdealLattice:
    """Canonical HNF of the span of {a^r b^s * g : g in gens, r+s < D} (ideal closure).

    gens are coordinate vectors of length tri_dim(D) and include a nonzero
    constant (the u = 1 case of the cyclotomic generators is the constant q);
    the gcd of the constants must be 1 or a prime power.  ValueError is raised
    otherwise.  times_sigma multiplies every generator by a and b first (the
    product ideal).
    """
    q = _modulus(gens, D)
    rows = np.array([[c % q for c in g] for g in gens], dtype=np.int64)
    return IdealLattice(D, label, _closure_hnf(rows, D, times_sigma, q).tolist(), q)


def _times_sigma(rows: np.ndarray, D: int) -> np.ndarray:
    """a * rows stacked over b * rows, in R/Sigma^D."""
    maps = _shift_maps(D)
    (src_a, dst_a), (src_b, dst_b) = maps[_A], maps[_B]
    out = np.zeros((2 * len(rows), rows.shape[1]), dtype=rows.dtype)
    out[:len(rows), dst_a] = rows[:, src_a]
    out[len(rows):, dst_b] = rows[:, src_b]
    return out


def _closure_hnf(rows: np.ndarray, D: int, times_sigma: bool, q: int) -> np.ndarray:
    """Canonical HNF of the ideal closure of the generator rows, built in one
    pass modulo q; rows hold the generator coordinates reduced into [0, q).

    q * e_m lies in the lattice for every coordinate m (for the product with
    Sigma, every m >= 1; coordinate 0 is 0 there throughout), so the lattice is
    the preimage of its image in (Z/q)^n, and one elimination over Z/q = Z/p^e
    in Howell's form finds it.  Columns go in degree order (_index_table):
      - the pivot of column c is the entry of least valuation, scaled by a unit
        to p^v; it clears column c from the other rows, whose entries there
        are multiples of p^v;
      - p^(e-v) times the pivot row, which is 0 at column c, is queued, so the
        pivot rows together with q * e_c on the columns without a pivot form a
        Z-basis of the lattice;
      - the a- and b-shifts of the pivot row are queued; they raise the degree,
        so they lead at later columns and the one pass closes the ideal.
    Reducing each column into [0, pivot) above its pivot, left to right, gives
    the canonical HNF, returned as its rank x n int32 array.  Every entry stays
    in [0, q) and every product or difference below q^2 < 2^30 (q < 2^15, see
    _modulus), inside int32.
    """
    n = tri_dim(D)
    start = 1 if times_sigma else 0
    work = rows.astype(np.int32).reshape(-1, n)
    if times_sigma:
        work = _times_sigma(work, D)
    gcds = np.gcd(np.arange(q), q)
    basis = np.zeros((n, n), dtype=np.int32)
    pivot = [0] * n
    for c in range(start, n):
        live = np.flatnonzero(work[:, c])
        if not len(live):
            continue
        i = live[np.argmin(gcds[work[live, c]])]
        x = int(work[i, c])
        d = math.gcd(x, q)
        row = work[i] * pow(x // d, -1, q) % q
        work[i] = 0
        rest = live[live != i]
        # columns before c are 0 in every row
        w = work[rest, c:]
        work[rest, c:] = (w - (w[:, :1] // d) * row[c:]) % q
        basis[c], pivot[c] = row, d
        work = np.vstack([work, _times_sigma(row[None], D), (q // d) * row[None] % q])
        work = work[work.any(axis=1)]
    for c in range(start, n):
        if pivot[c]:
            basis[:c] = (basis[:c] - (basis[:c, c] // pivot[c])[:, None] * basis[c]) % q
    for c in range(start, n):
        if not pivot[c]:
            basis[c, c] = q
    return basis[start:]


def cyclotomic_lattice(params: BurnsideParams, D: int | None = None,
                       times_sigma: bool = False) -> IdealLattice:
    """I(q) or I(q)Sigma as a lattice L in R/Sigma^D, from the generator rows of
    the D x D grid.

    Stabilization check: the 2D + 1 rows that the (D+1) x (D+1) grid adds,
    times a and b for I(q)Sigma, must lie in L.  The larger grid's lattice
    contains L, and L is closed under a and b and holds q * e_m on every
    coordinate it reaches (the lattice contract), so the two are equal
    exactly when the added seeds lie in L.
    """
    D = D or params.D
    q = params.q
    label = f"CyclotomicTimesSigma({q})" if times_sigma else f"Cyclotomic({q})"
    grid = _cyclotomic_rows(q, D, D + 1).reshape(D + 1, D + 1, -1)
    basis = _closure_hnf(grid[:D, :D].reshape(D * D, -1), D, times_sigma, q)
    lattice = IdealLattice(D, label, basis.tolist(), q)
    added = np.concatenate([grid[:D, D], grid[D]])
    seeds = _times_sigma(added, D) if times_sigma else added
    lattice.reduce_rows(seeds)
    if seeds.any():
        raise StabilizationError(f"{label}: generator grid did not stabilize at D={D}")
    return lattice


def sigma_power_lattice(k: int, D: int) -> IdealLattice:
    """Image of Sigma^k in R/Sigma^D: span of the basis monomials of degree >= k."""
    n = tri_dim(D)
    rows = [[int(i == m) for i in range(n)]
            for m, (r, s) in enumerate(monomial_list(D)) if r + s >= k]
    return IdealLattice(D, f"Sigma^{k}", rows, 1)


class ParamError(ValueError):
    """Precondition violation on (q, j, k) refinement queries."""


def p_power_sigma_check(params: BurnsideParams, j: int, k: int,
                        lattice: IdealLattice | None = None) -> bool:
    """Whether p^j * Sigma^k lands in I(q), for e >= 2 and the admissible (j, k) range."""
    if params.e < 2:
        raise ParamError(f"refinement needs e >= 2, got q={params.q}")
    if not (0 <= j <= params.e - 1):
        raise ParamError(f"j must satisfy 0 <= j <= e-1, got j={j}")
    k_min = params.bound - j * (params.p ** (params.e - 1) - params.p ** (params.e - 2))
    if k < k_min:
        raise ParamError(f"k must be >= {k_min} for q={params.q}, j={j}, got k={k}")
    D = max(params.D, k + 1)
    if lattice is None or lattice.D < D:
        lattice = cyclotomic_lattice(params, D=D)
    scale = params.p ** j
    return all(lattice.member([scale * (i == m) for i in range(lattice.dim)])
               for m, (r, s) in enumerate(monomial_list(lattice.D)) if r + s == k)


# ---------------------------------------------------------------------------
# the quotient ring S(q) = R/I(q)Sigma

class SContext:
    """Shared immutable context for S(q) arithmetic: params + I(q)Sigma lattice.

    An element of S(q) is its canonical coefficient tuple, as reduce returns it.
    """

    __slots__ = ("params", "lattice")

    def __init__(self, params: BurnsideParams):
        self.params = params
        self.lattice = cyclotomic_lattice(params, times_sigma=True)

    @staticmethod
    @cache
    def for_q(q: int) -> "SContext":
        """This process's context for q, built on first use and shared."""
        return SContext(BurnsideParams.from_q(q))

    def reduce(self, f) -> tuple[int, ...]:
        """Canonical residue in S(q) of f, a LaurentPoly or a coordinate vector
        in R/Sigma^D (ValueError on another length)."""
        return self.lattice.reduce(f)

    def __repr__(self):
        return f"SContext(q={self.params.q}, D={self.params.D})"
