"""Cyclotomic ideals as integer lattices in R/Sigma^D, and the quotient ring S(q).

I(q) is generated by 1 + u + ... + u^(q-1) over all positive units u = x^i y^j.
Its image in R/Sigma^D is spanned by the generators for u on the finite grid
0 <= i,j < D together with their a,b-multiples: the truncated coordinates of the
u-generator are integer-valued polynomials in (i,j) of degree < D per variable,
so the D x D grid already spans everything (finite-difference argument).  A
stabilization check on the (D+1) x (D+1) grid guards that argument at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .rings import (LaurentPoly, TruncatedPoly, monomial_list, tri_dim,
                    xpow_coeffs, _index_table)

MAX_Q = 13


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
        n, p = q, None
        for cand in range(2, q + 1):
            if n % cand == 0:
                p = cand
                break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if n != 1:
            raise ValueError(f"q must be a prime power, got {q}")
        phi = p ** e - p ** (e - 1)
        bound = e * phi
        return BurnsideParams(q=q, p=p, e=e, phi=phi, bound=bound, D=bound + 1)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


class _HNFBuilder:
    """Incremental row-style Hermite normal form over Python integers.

    Canonical form is maintained after every mutation (pivots positive, entries
    above a pivot reduced into [0, pivot)); once full rank is reached, incoming
    vectors are pre-reduced modulo M = product of pivots, which is legal because
    M * Z^n is contained in any full-rank sublattice with pivot product M.
    """

    def __init__(self, n: int):
        self.n = n
        self.rows: dict[int, list[int]] = {}
        self.M: int | None = None

    def _update_M(self):
        if len(self.rows) == self.n:
            M = 1
            for c, r in self.rows.items():
                M *= r[c]
            self.M = M

    def _fix_row(self, c: int):
        """Re-canonicalize after row c changed: reduce its tail, then earlier rows against it."""
        n = self.n
        row = self.rows[c]
        if row[c] < 0:
            self.rows[c] = row = [-v for v in row]
        for c2 in range(c + 1, n):
            if c2 in self.rows and row[c2]:
                p2 = self.rows[c2][c2]
                q = row[c2] // p2
                if q:
                    r2 = self.rows[c2]
                    for k in range(c2, n):
                        row[k] -= q * r2[k]
        p = row[c]
        for c1, r1 in self.rows.items():
            if c1 < c and r1[c]:
                q = r1[c] // p
                if q:
                    for k in range(c, n):
                        r1[k] -= q * row[k]

    def insert(self, vec: Sequence[int]) -> bool:
        """Add a vector to the lattice; returns True when the lattice grew."""
        n = self.n
        v = list(vec)
        if self.M is not None:
            M = self.M
            v = [x % M for x in v]
        grew = False
        for c in range(n):
            if not v[c]:
                continue
            if c not in self.rows:
                if v[c] < 0:
                    v = [-x for x in v]
                self.rows[c] = v
                self._fix_row(c)
                self._update_M()
                return True
            r = self.rows[c]
            p = r[c]
            if v[c] % p == 0:
                q = v[c] // p
                for k in range(c, n):
                    v[k] -= q * r[k]
                continue
            g, s, t = _xgcd(p, v[c])
            pq, vq = p // g, v[c] // g
            new_r = [s * r[k] + t * v[k] for k in range(n)]
            new_v = [vq * r[k] - pq * v[k] for k in range(n)]
            self.rows[c] = new_r
            self._fix_row(c)
            self._update_M()
            v = new_v
            grew = True
        return grew

    def reduce(self, vec: Sequence[int]) -> list[int]:
        """Canonical residue of vec modulo the lattice."""
        v = list(vec)
        if self.M is not None:
            M = self.M
            v = [x % M for x in v]
        for c in sorted(self.rows):
            if v[c]:
                r = self.rows[c]
                q = v[c] // r[c]
                if q:
                    for k in range(c, self.n):
                        v[k] -= q * r[k]
        return v

    def basis(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(self.rows[c]) for c in sorted(self.rows))


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
        self._pivots = piv
        self._M = None
        if len(piv) == n:
            M = 1
            for c, ri in piv.items():
                M *= self.rows[ri][c]
            self._M = M

    @property
    def dim(self) -> int:
        return tri_dim(self.D)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _vec(self, f) -> list[int]:
        if isinstance(f, LaurentPoly):
            f = f.to_truncated(self.D)
        if isinstance(f, TruncatedPoly):
            if f.D != self.D:
                raise ValueError(f"truncation mismatch: {f.D} vs {self.D}")
            return list(f.coeffs)
        return list(f)

    def reduce(self, f) -> tuple[int, ...]:
        """Canonical residue modulo the lattice, pivot by pivot."""
        v = self._vec(f)
        if self._M is not None:
            v = [x % self._M for x in v]
        for c in sorted(self._pivots):
            if v[c]:
                row = self.rows[self._pivots[c]]
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


def mul_by_a(vec: Sequence[int], D: int) -> list[int]:
    """Coordinates of a * f truncated at degree D."""
    idx = _index_table(D)
    monos = monomial_list(D)
    out = [0] * tri_dim(D)
    for m, c in enumerate(vec):
        if c:
            r, s = monos[m]
            if r + 1 + s < D:
                out[idx[(r + 1, s)]] = c
    return out


def mul_by_b(vec: Sequence[int], D: int) -> list[int]:
    idx = _index_table(D)
    monos = monomial_list(D)
    out = [0] * tri_dim(D)
    for m, c in enumerate(vec):
        if c:
            r, s = monos[m]
            if r + s + 1 < D:
                out[idx[(r, s + 1)]] = c
    return out


def cyclotomic_generator(q: int, i: int, j: int, D: int) -> TruncatedPoly:
    """Image of 1 + u + ... + u^(q-1) for u = x^i y^j in R/Sigma^D."""
    idx = _index_table(D)
    coeffs = [0] * tri_dim(D)
    for m in range(q):
        row_x = xpow_coeffs(i * m, D)
        row_y = xpow_coeffs(j * m, D)
        for r in range(D):
            cr = row_x[r]
            if not cr:
                continue
            for s in range(D - r):
                cs = row_y[s]
                if cs:
                    coeffs[idx[(r, s)]] += cr * cs
    return TruncatedPoly(D, coeffs)


def cyclotomic_generators(params: BurnsideParams, D: int | None = None,
                          grid: int | None = None) -> list[TruncatedPoly]:
    """Generators on the grid 0 <= i,j < grid (default D x D)."""
    D = D or params.D
    grid = grid or D
    return [cyclotomic_generator(params.q, i, j, D)
            for i in range(grid) for j in range(grid)]


def build_ideal_lattice(gens: list[TruncatedPoly], D: int, label: str = "Ideal",
                        times_sigma: bool = False,
                        regenerate: Callable[[int], list[TruncatedPoly]] | None = None,
                        ) -> IdealLattice:
    """HNF of the span of {a^r b^s * g : g in gens, r+s < D} (ideal closure).

    times_sigma multiplies every generator by a and b first (the product ideal).
    When a regenerate(grid) callback is supplied, the build is repeated with the
    enlarged generator set and the two HNFs must agree (stabilization check).
    """
    basis0 = _closure_hnf(gens, D, times_sigma)
    if regenerate is not None:
        basis1 = _closure_hnf(regenerate(D + 1), D, times_sigma)
        if basis0 != basis1:
            raise StabilizationError(
                f"{label}: generator grid did not stabilize at D={D}")
    return IdealLattice(D, label, basis0)


def _closure_hnf(gens: list[TruncatedPoly], D: int,
                 times_sigma: bool) -> tuple[tuple[int, ...], ...]:
    n = tri_dim(D)
    h = _HNFBuilder(n)
    seeds: list[list[int]] = []
    for g in gens:
        v = list(g.coeffs)
        if times_sigma:
            seeds.append(mul_by_a(v, D))
            seeds.append(mul_by_b(v, D))
        else:
            seeds.append(v)
    # a constant generator c (the u=1 case gives the constant q) has closure
    # {c * a^r b^s}; inserting those first reaches full rank on the relevant
    # coordinates immediately, which keeps later reductions small
    consts = [g.coeffs[0] for g in gens if g.coeffs[0] and not any(g.coeffs[1:])]
    if consts:
        c0 = consts[0]
        start_deg = 1 if times_sigma else 0
        for m, (r, s) in enumerate(monomial_list(D)):
            if r + s >= start_deg:
                v = [0] * n
                v[m] = c0
                h.insert(v)
    queue = sorted(seeds, key=lambda v: max(abs(x) for x in v) if any(v) else 0)
    for v in queue:
        h.insert(v)
    # saturate under multiplication by a and b (ideal closure)
    changed = True
    while changed:
        changed = False
        for row in [list(r) for r in h.basis()]:
            for shifted in (mul_by_a(row, D), mul_by_b(row, D)):
                if any(shifted) and h.insert(shifted):
                    changed = True
    return h.basis()


def cyclotomic_lattice(params: BurnsideParams, D: int | None = None,
                       times_sigma: bool = False,
                       check_stabilization: bool = True) -> IdealLattice:
    """I(q) or I(q)Sigma as a lattice in R/Sigma^D, stabilization-checked."""
    D = D or params.D
    label = f"CyclotomicTimesSigma({params.q})" if times_sigma else f"Cyclotomic({params.q})"

    def regen(grid: int) -> list[TruncatedPoly]:
        return cyclotomic_generators(params, D=D, grid=grid)

    return build_ideal_lattice(regen(D), D, label=label, times_sigma=times_sigma,
                               regenerate=regen if check_stabilization else None)


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


def is_member(f, lattice: IdealLattice) -> bool:
    """Membership of f (LaurentPoly, TruncatedPoly, or vector) in the lattice.

    LaurentPoly inputs are truncated at lattice.D first; sound for ideals
    containing Sigma^(lattice.D).
    """
    return lattice.member(f)


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
        lattice = cyclotomic_lattice(params, D=D, check_stabilization=False)
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
# the quotient ring S(q) = R/I(q)Sigma and Laurent polynomials over it

class SContext:
    """Shared immutable context for S(q) arithmetic: params + I(q)Sigma lattice."""

    __slots__ = ("params", "lattice", "dimension", "_one")

    def __init__(self, params: BurnsideParams, lattice: IdealLattice | None = None):
        self.params = params
        if lattice is None:
            lattice = cyclotomic_lattice(params, times_sigma=True)
        if lattice.D != params.D:
            raise ValueError(f"lattice D={lattice.D} != params D={params.D}")
        self.lattice = lattice
        self.dimension = tri_dim(params.D)
        one = [0] * self.dimension
        one[0] = 1
        self._one = tuple(lattice.reduce(one))

    @staticmethod
    def for_q(q: int) -> "SContext":
        return SContext(BurnsideParams.from_q(q))

    def reduce(self, f) -> "SElement":
        if isinstance(f, LaurentPoly):
            f = f.to_truncated(self.params.D)
        if isinstance(f, TruncatedPoly):
            f = f.coeffs
        return SElement(self, self.lattice.reduce(f))

    def zero(self) -> "SElement":
        return SElement(self, (0,) * self.dimension)

    def one(self) -> "SElement":
        return SElement(self, self._one)

    def __repr__(self):
        return f"SContext(q={self.params.q}, D={self.params.D})"


class SElement:
    """Element of S(q): canonical residue vector modulo the I(q)Sigma lattice."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: SContext, coeffs: Iterable[int]):
        self.ctx = ctx
        self.coeffs = tuple(coeffs)

    def _check(self, other: "SElement"):
        if self.ctx is not other.ctx and self.ctx.params.q != other.ctx.params.q:
            raise ValueError("context mismatch")

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SElement):
            return NotImplemented
        return self.ctx.params.q == other.ctx.params.q and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx.params.q, self.coeffs))

    def __add__(self, other: "SElement") -> "SElement":
        self._check(other)
        return SElement(self.ctx, self.ctx.lattice.reduce(
            [a + b for a, b in zip(self.coeffs, other.coeffs)]))

    def __sub__(self, other: "SElement") -> "SElement":
        self._check(other)
        return SElement(self.ctx, self.ctx.lattice.reduce(
            [a - b for a, b in zip(self.coeffs, other.coeffs)]))

    def __neg__(self) -> "SElement":
        return SElement(self.ctx, self.ctx.lattice.reduce([-a for a in self.coeffs]))

    def __mul__(self, other) -> "SElement":
        if isinstance(other, int):
            return SElement(self.ctx, self.ctx.lattice.reduce(
                [other * a for a in self.coeffs]))
        self._check(other)
        D = self.ctx.params.D
        prod = TruncatedPoly(D, self.coeffs) * TruncatedPoly(D, other.coeffs)
        return SElement(self.ctx, self.ctx.lattice.reduce(prod.coeffs))

    __rmul__ = __mul__

    def render(self) -> str:
        return TruncatedPoly(self.ctx.params.D, self.coeffs).render()

    def __repr__(self):
        return f"SElement(q={self.ctx.params.q}, {self.render()})"


def s_reduce(v: TruncatedPoly, ctx: SContext) -> SElement:
    """Canonical residue of v in S(q)."""
    if v.D != ctx.params.D:
        raise ValueError(f"truncation mismatch: {v.D} vs {ctx.params.D}")
    return ctx.reduce(v)


def s_add(u: SElement, v: SElement) -> SElement:
    return u + v


def s_mul(u: SElement, v: SElement) -> SElement:
    return u * v


class STPoly:
    """Laurent polynomial in t with SElement coefficients."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: SContext, coeffs: dict[int, SElement] | None = None):
        self.ctx = ctx
        self.coeffs: dict[int, SElement] = {}
        if coeffs:
            for k, v in coeffs.items():
                if not v.is_zero():
                    self.coeffs[k] = v

    @staticmethod
    def from_s(v: SElement) -> "STPoly":
        return STPoly(v.ctx, {0: v})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, STPoly):
            return NotImplemented
        return self.ctx.params.q == other.ctx.params.q and self.coeffs == other.coeffs

    def __add__(self, other: "STPoly") -> "STPoly":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            w = out.get(k)
            out[k] = v if w is None else w + v
        return STPoly(self.ctx, out)

    def __sub__(self, other: "STPoly") -> "STPoly":
        return self + (-other)

    def __neg__(self) -> "STPoly":
        return STPoly(self.ctx, {k: -v for k, v in self.coeffs.items()})

    def __mul__(self, other) -> "STPoly":
        if isinstance(other, SElement):
            other = STPoly.from_s(other)
        out: dict[int, SElement] = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                k = k1 + k2
                p = v1 * v2
                w = out.get(k)
                out[k] = p if w is None else w + p
        return STPoly(self.ctx, out)

    def subs_t1(self) -> SElement:
        """Evaluate at t = 1."""
        out = self.ctx.zero()
        for v in self.coeffs.values():
            out = out + v
        return out

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            body = self.coeffs[k].render()
            if k == 0:
                parts.append(f"({body})")
            elif k == 1:
                parts.append(f"({body})*t")
            else:
                parts.append(f"({body})*t^{k}")
        return " + ".join(parts)

    def __repr__(self):
        return f"STPoly(q={self.ctx.params.q}, {self.render()})"
