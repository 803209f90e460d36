"""Cyclotomic ideals as integer lattices in R/Sigma^D, and the quotient ring S(q).

I(q) is generated by 1 + u + ... + u^(q-1) over all positive units u = x^i y^j.
Its image in R/Sigma^D is spanned by the generators for u on the finite grid
0 <= i,j < D together with their a,b-multiples: the truncated coordinates of the
u-generator are integer-valued polynomials in (i,j) of degree < D per variable,
so the D x D grid already spans everything (finite-difference argument).  A
stabilization check guards that argument at runtime: the 2D + 1 generators that
the (D+1) x (D+1) grid adds must be members of the D x D lattice (_lattice says
why membership is the same as building the larger lattice and comparing).

The u = 1 generator is the constant q, so each lattice contains q times every
coordinate it can reach; its generator rows are computed modulo q
(_cyclotomic_rows), it is built in one elimination pass modulo q = p^e
(Howell form over Z/p^e, see _closure_hnf) and kept as its canonical Hermite
normal form, which depends only on the ideal, not on the generators.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .rings import (LaurentPoly, TruncatedPoly, monomial_list, tri_dim,
                    xpow_coeffs, _index_table)

MAX_Q = 13


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
    """Immutable HNF lattice in the R/Sigma^D coordinate system."""

    __slots__ = ("D", "label", "rows", "_pivots", "_M")

    def __init__(self, D: int, label: str, rows: Iterable[Sequence[int]]):
        self.D = D
        self.label = label
        self.rows = tuple(tuple(r) for r in rows)
        n = tri_dim(D)
        piv: dict[int, int] = {}
        for ri, row in enumerate(self.rows):
            if len(row) != n:
                raise ValueError(f"row length {len(row)} != dimension {n}")
            c = next((k for k, v in enumerate(row) if v), None)
            if c is None or c in piv:
                raise ValueError("rows are not in echelon form")
            piv[c] = ri
        # (pivot column, row) in column order, the order reduce applies them
        self._pivots = tuple((c, self.rows[piv[c]]) for c in sorted(piv))
        self._M = None
        if len(piv) == n:
            M = 1
            for c, row in self._pivots:
                M *= row[c]
            self._M = M

    @property
    def dim(self) -> int:
        return tri_dim(self.D)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _vec(self, f) -> list[int]:
        """Coordinates of f: a LaurentPoly is truncated at D (sound for ideals
        containing Sigma^D), a TruncatedPoly or raw vector must match D."""
        if isinstance(f, LaurentPoly):
            f = f.to_truncated(self.D)
        if isinstance(f, TruncatedPoly):
            if f.D != self.D:
                raise ValueError(f"truncation mismatch: {f.D} vs {self.D}")
            return list(f.coeffs)
        v = list(f)
        if len(v) != self.dim:
            raise ValueError(f"vector length {len(v)} != dimension {self.dim}")
        return v

    def reduce(self, f) -> tuple[int, ...]:
        """Canonical residue modulo the lattice, pivot by pivot."""
        v = self._vec(f)
        if self._M is not None:
            v = [x % self._M for x in v]
        for c, row in self._pivots:
            if v[c]:
                q = v[c] // row[c]
                if q:
                    for k in range(c, len(v)):
                        v[k] -= q * row[k]
        return tuple(v)

    def member(self, f) -> bool:
        return not any(self.reduce(f))

    def __eq__(self, other) -> bool:
        if not isinstance(other, IdealLattice):
            return NotImplemented
        return self.D == other.D and self.rows == other.rows

    def __hash__(self):
        return hash((self.D, self.rows))

    def verify_ideal_closure(self) -> bool:
        """Each basis row stays in the lattice after multiplication by a and by b."""
        for row in self.rows:
            if not self.member(mul_by_a(row, self.D)):
                return False
            if not self.member(mul_by_b(row, self.D)):
                return False
        return True

    def __repr__(self):
        return f"IdealLattice({self.label}, D={self.D}, rank={self.rank})"


@lru_cache(maxsize=None)
def _shift_maps(D: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(source, target) coordinate maps of multiplication by a and by b in R/Sigma^D."""
    idx = _index_table(D)
    monos = monomial_list(D)
    src = [m for m, (r, s) in enumerate(monos) if r + s + 1 < D]

    def target(dr: int, ds: int) -> np.ndarray:
        return np.array([idx[(monos[m][0] + dr, monos[m][1] + ds)] for m in src],
                        dtype=np.intp)

    src_arr = np.array(src, dtype=np.intp)
    return (src_arr, target(1, 0)), (src_arr, target(0, 1))


def _mul_by(vec: Sequence[int], D: int, which: int) -> list[int]:
    out = [0] * tri_dim(D)
    src, dst = _shift_maps(D)[which]
    for m, t in zip(src.tolist(), dst.tolist()):
        out[t] = vec[m]
    return out


def mul_by_a(vec: Sequence[int], D: int) -> list[int]:
    """Coordinates of a * f truncated at degree D."""
    return _mul_by(vec, D, 0)


def mul_by_b(vec: Sequence[int], D: int) -> list[int]:
    return _mul_by(vec, D, 1)


def cyclotomic_generators(params: BurnsideParams, D: int | None = None,
                          grid: int | None = None) -> list[TruncatedPoly]:
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
    return [TruncatedPoly(D, [sum(map(operator.mul, xc[r], yc[s])) for r, s in monos])
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


# Moduli below 2^15 keep _closure_hnf inside int32: see its docstring.
_MAX_MODULUS = 1 << 15


def _modulus(gens: list[TruncatedPoly], D: int) -> int:
    """The gcd q of the constant generators, checked to be 1 or a prime power."""
    q = 0
    for g in gens:
        if not isinstance(g, TruncatedPoly) or g.D != D:
            raise ValueError(f"generator {g!r} does not lie in R/Sigma^{D}")
        if not any(g.coeffs[1:]):
            q = math.gcd(q, g.coeffs[0])
    if q == 0:
        raise ValueError("the generators need a nonzero constant")
    if q > 1 and (q >= _MAX_MODULUS or _prime_power(q) is None):
        raise ValueError(f"the constant generators give {q}, which is neither 1 "
                         f"nor a prime power below 2^15")
    return q


def _rows_mod(gens: list[TruncatedPoly], q: int) -> np.ndarray:
    return np.array([[c % q for c in g.coeffs] for g in gens], dtype=np.int64)


def build_ideal_lattice(gens: list[TruncatedPoly], D: int, label: str = "Ideal",
                        times_sigma: bool = False,
                        regenerate: Callable[[int], list[TruncatedPoly]] | None = None,
                        ) -> IdealLattice:
    """Canonical HNF of the span of {a^r b^s * g : g in gens, r+s < D} (ideal closure).

    gens must lie in R/Sigma^D and include a nonzero constant (the u = 1 case of
    the cyclotomic generators is the constant q); the gcd of the constants must
    be 1 or a prime power, and ValueError is raised otherwise.  times_sigma
    multiplies every generator by a and b first (the product ideal).  When a
    regenerate(grid) callback is supplied, regenerate(D + 1) must return a
    superset of gens (ValueError otherwise), and every generator in it (times a
    and b, with times_sigma) must be a member of the lattice of gens; since the
    lattice is an ideal containing q * e_m, that holds exactly when the larger
    set spans the same lattice (stabilization check, see _lattice).
    """
    q = _modulus(gens, D)
    extra = None
    if regenerate is not None:
        more = regenerate(D + 1)
        _modulus(more, D)  # each lies in R/Sigma^D
        if not {g.coeffs for g in gens} <= {g.coeffs for g in more}:
            raise ValueError(f"{label}: regenerate(D + 1) must return a superset "
                             f"of the generators")
        extra = _rows_mod(more, q)
    return _lattice(_rows_mod(gens, q), D, label, times_sigma, q, extra)


def _lattice(rows: np.ndarray, D: int, label: str, times_sigma: bool, q: int,
             extra: np.ndarray | None) -> IdealLattice:
    """The lattice L of the generator rows, stabilization-checked against extra.

    extra holds the rows that a larger generator set adds to rows (or all of
    that set: the rows it shares with rows lie in L anyway); all entries are in
    [0, q).  The check asks that every row of extra, times a and b with
    times_sigma, lie in L.  That is the same as building the lattice of the
    larger set and comparing HNFs: the larger set contains rows, so its lattice
    contains L; and L is closed under a and b and contains q * e_m on every
    coordinate it reaches, so L is the lattice of the larger set exactly when
    the added seeds lie in L.
    """
    basis = _closure_hnf(rows, D, times_sigma, q)
    if extra is not None:
        seeds = _times_sigma(extra, D) if times_sigma else extra
        if not _spans(basis, seeds, q):
            raise StabilizationError(
                f"{label}: generator grid did not stabilize at D={D}")
    return IdealLattice(D, label, basis.tolist())


def _times_sigma(rows: np.ndarray, D: int) -> np.ndarray:
    """a * rows stacked over b * rows, in R/Sigma^D."""
    (src_a, dst_a), (src_b, dst_b) = _shift_maps(D)
    out = np.zeros((2 * len(rows), rows.shape[1]), dtype=rows.dtype)
    out[:len(rows), dst_a] = rows[:, src_a]
    out[len(rows):, dst_b] = rows[:, src_b]
    return out


def _spans(basis: np.ndarray, rows: np.ndarray, q: int) -> bool:
    """Whether every row (entries in [0, q)) lies in the lattice whose canonical
    HNF basis _closure_hnf returned.

    The lattice holds q * e_m on every coordinate it reaches (for the product
    with Sigma, every coordinate but 0, which is 0 in every a- or b-multiple),
    so all rows are reduced at once modulo q: each pivot row, in column order,
    takes its column into [0, pivot), as IdealLattice.reduce does.  Products
    stay below q^2.
    """
    v = rows.astype(np.int64)
    for c, row in zip((basis != 0).argmax(axis=1).tolist(), basis.astype(np.int64)):
        v = (v - (v[:, c] // row[c])[:, None] * row) % q
    return not v.any()


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
    """I(q) or I(q)Sigma as a lattice in R/Sigma^D, from the generator rows of
    the D x D grid, stabilization-checked against the 2D + 1 rows that the
    (D+1) x (D+1) grid adds (see _lattice)."""
    D = D or params.D
    label = f"CyclotomicTimesSigma({params.q})" if times_sigma else f"Cyclotomic({params.q})"
    grid = _cyclotomic_rows(params.q, D, D + 1).reshape(D + 1, D + 1, -1)
    added = np.concatenate([grid[:D, D], grid[D]])
    return _lattice(grid[:D, :D].reshape(D * D, -1), D, label, times_sigma, params.q,
                    added)


def sigma_power_lattice(k: int, D: int) -> IdealLattice:
    """Image of Sigma^k in R/Sigma^D: span of the basis monomials of degree >= k."""
    n = tri_dim(D)
    rows = []
    for m, (r, s) in enumerate(monomial_list(D)):
        if r + s >= k:
            v = [0] * n
            v[m] = 1
            rows.append(v)
    return IdealLattice(D, f"Sigma^{k}", rows)


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
    monos = monomial_list(lattice.D)
    idx = _index_table(lattice.D)
    for r, s in monos:
        if r + s == k:
            v = [0] * lattice.dim
            v[idx[(r, s)]] = scale
            if not lattice.member(v):
                return False
    return True


# ---------------------------------------------------------------------------
# the quotient ring S(q) = R/I(q)Sigma

class SContext:
    """Shared immutable context for S(q) arithmetic: params + I(q)Sigma lattice.

    An element of S(q) is its canonical coefficient tuple, as reduce returns it.
    """

    __slots__ = ("params", "lattice")

    def __init__(self, params: BurnsideParams, lattice: IdealLattice | None = None):
        self.params = params
        if lattice is None:
            lattice = cyclotomic_lattice(params, times_sigma=True)
        if lattice.D != params.D:
            raise ValueError(f"lattice D={lattice.D} != params D={params.D}")
        self.lattice = lattice

    @staticmethod
    def for_q(q: int) -> "SContext":
        return SContext(BurnsideParams.from_q(q))

    def reduce(self, f) -> tuple[int, ...]:
        """Canonical residue of f (LaurentPoly, TruncatedPoly or vector) in S(q)."""
        return self.lattice.reduce(f)

    def __repr__(self):
        return f"SContext(q={self.params.q}, D={self.params.D})"
