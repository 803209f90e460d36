"""Words in the two generator matrices, evaluation into four coefficient rings,
normal forms, closed-form powers, commutators, and order classification.

Generators (letters a/A are the matrix and its inverse, likewise b/B):

    a = [[1, 1-y], [0, x]]        b = [[y*t, 0], [1-x*t, 1]]

The four rings: R[t,t^-1] ("free"), R at t=1 ("metabelian"), S(q)[t,t^-1]
("st"), S(q) at t=1 ("s").  Setting t=1 commutes with reducing R -> S(q),
which is the commutative-square check at the bottom of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .rings import ExactDivisionError, LaurentPoly, UnitMonomial, divide_one_minus
from .ideals import SContext, SElement, STPoly

LETTERS = "aAbB"


class GroupWord:
    """A word over a/A/b/B; a = first generator, b = second, capitals = inverses."""

    __slots__ = ("letters",)

    def __init__(self, letters: str = ""):
        bad = set(letters) - set(LETTERS)
        if bad:
            raise ValueError(f"invalid letters {sorted(bad)}; expected a, A, b, B")
        self.letters = letters

    def __str__(self):
        return self.letters

    def __repr__(self):
        return f"GroupWord({self.letters!r})"

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        if isinstance(other, str):
            return self.letters == other
        if isinstance(other, GroupWord):
            return self.letters == other.letters
        return NotImplemented

    def __hash__(self):
        return hash(self.letters)

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord(self.letters + _letters(other))

    def inverse(self) -> "GroupWord":
        return GroupWord(word_inverse(self.letters))

    def free_reduce(self) -> "GroupWord":
        return GroupWord(free_reduce(self.letters))

    def t_exponent_sum(self) -> int:
        return t_exponent_sum(self.letters)


def _letters(w) -> str:
    return w.letters if isinstance(w, GroupWord) else str(w)


def word_inverse(w) -> str:
    return _letters(w)[::-1].swapcase()


def free_reduce(w) -> str:
    out: list[str] = []
    for ch in _letters(w):
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def t_exponent_sum(w) -> int:
    """Signed count of the t-carrying generator: #b - #B."""
    s = _letters(w)
    return s.count("b") - s.count("B")


def exponent_sums(w) -> tuple[int, int]:
    s = _letters(w)
    return (s.count("a") - s.count("A"), s.count("b") - s.count("B"))


def commutator_word(w1, w2) -> str:
    w1, w2 = _letters(w1), _letters(w2)
    return w1 + w2 + word_inverse(w1) + word_inverse(w2)


def random_reduced_word(rng, maxlen: int, minlen: int = 1) -> str:
    """Freely reduced word, uniform letters, length in [minlen, maxlen]."""
    n = rng.randint(minlen, maxlen)
    out: list[str] = []
    while len(out) < n:
        ch = rng.choice(LETTERS)
        if out and out[-1] == ch.swapcase():
            continue
        out.append(ch)
    return "".join(out)


def random_zero_sum_word(rng, maxlen: int) -> str:
    """Freely reduced word with zero exponent sum in the t-carrying generator."""
    while True:
        w = random_reduced_word(rng, maxlen)
        k = t_exponent_sum(w)
        if k == 0 and w:
            return w
        fix = "B" if k > 0 else "b"
        w2 = free_reduce(w + fix * abs(k))
        if w2 and t_exponent_sum(w2) == 0 and len(w2) <= maxlen + abs(k):
            return w2


def tree_word(rng, depth: int, maxlen: int) -> str:
    """Balanced commutator tree of the given depth over random base words."""
    if depth == 0:
        return random_reduced_word(rng, maxlen)
    return commutator_word(tree_word(rng, depth - 1, maxlen),
                           tree_word(rng, depth - 1, maxlen))


# ---------------------------------------------------------------------------
# matrices

@dataclass(frozen=True)
class Matrix2:
    """2x2 matrix over any ring whose elements support + - *."""

    e11: object
    e12: object
    e21: object
    e22: object

    def mul(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(
            self.e11 * other.e11 + self.e12 * other.e21,
            self.e11 * other.e12 + self.e12 * other.e22,
            self.e21 * other.e11 + self.e22 * other.e21,
            self.e21 * other.e12 + self.e22 * other.e22,
        )

    __matmul__ = mul

    def det(self):
        return self.e11 * self.e22 - self.e12 * self.e21

    def entries(self) -> tuple:
        return (self.e11, self.e12, self.e21, self.e22)

    def map_entries(self, fn: Callable) -> "Matrix2":
        return Matrix2(fn(self.e11), fn(self.e12), fn(self.e21), fn(self.e22))

    def __eq__(self, other):
        if not isinstance(other, Matrix2):
            return NotImplemented
        return self.entries() == other.entries()

    def sub(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(self.e11 - other.e11, self.e12 - other.e12,
                       self.e21 - other.e21, self.e22 - other.e22)

    def render(self) -> str:
        es = [str(e) for e in self.entries()]
        return f"[[{es[0]}, {es[1]}], [{es[2]}, {es[3]}]]"

    def __repr__(self):
        return f"Matrix2({self.render()})"


def matrix_inverse(M: Matrix2) -> Matrix2:
    """Inverse via the adjugate; the determinant must be a unit monomial."""
    d = M.det()
    if not isinstance(d, LaurentPoly):
        raise TypeError("matrix_inverse needs LaurentPoly entries; invert words instead")
    u = UnitMonomial.from_poly(d)
    di = u.inverse().as_poly()
    return Matrix2(M.e22 * di, -M.e12 * di, -M.e21 * di, M.e11 * di)


def power(M: Matrix2, n: int, identity: Matrix2) -> Matrix2:
    out = identity
    base = M
    while n:
        if n & 1:
            out = out.mul(base)
        base = base.mul(base)
        n >>= 1
    return out


# ---------------------------------------------------------------------------
# evaluation contexts

_XI = LaurentPoly.monomial(1, -1, 0, 0)
_YI = LaurentPoly.monomial(1, 0, -1, 0)
_ONE = LaurentPoly.const(1)
_X = LaurentPoly.var_x()
_Y = LaurentPoly.var_y()
_T = LaurentPoly.var_t()


def _free_generators() -> dict[str, Matrix2]:
    zero = LaurentPoly.zero()
    a = Matrix2(_ONE, _ONE - _Y, zero, _X)
    ai = Matrix2(_ONE, -(_XI * (_ONE - _Y)), zero, _XI)
    b = Matrix2(_Y * _T, zero, _ONE - _X * _T, _ONE)
    yiti = _YI * LaurentPoly.monomial(1, 0, 0, -1)
    bi = Matrix2(yiti, zero, -(yiti * (_ONE - _X * _T)), _ONE)
    return {"a": a, "A": ai, "b": b, "B": bi}


class GroupContext:
    """Evaluation target: one of the four coefficient rings.

    mode "free" = R[t,t^-1], "metabelian" = R at t=1, "st" = S(q)[t,t^-1],
    "s" = S(q) at t=1.  The s/st modes need an SContext.
    """

    MODES = ("free", "metabelian", "st", "s")

    def __init__(self, mode: str, sctx: SContext | None = None):
        if mode not in self.MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if mode in ("st", "s") and sctx is None:
            raise ValueError(f"mode {mode!r} needs an SContext")
        self.mode = mode
        self.sctx = sctx
        self.gens = self._build_generators()
        ident = self.identity()
        for g, gi in (("a", "A"), ("b", "B")):
            if not self.gens[g].mul(self.gens[gi]) == ident:
                raise AssertionError(f"generator inverse check failed for {g}")

    def _build_generators(self) -> dict[str, Matrix2]:
        free = _free_generators()
        if self.mode == "free":
            return free
        if self.mode == "metabelian":
            return {k: m.map_entries(lambda f: f.specialize(t=1)) for k, m in free.items()}
        sctx = self.sctx
        if self.mode == "s":
            return {k: m.map_entries(lambda f: sctx.reduce(f.specialize(t=1)))
                    for k, m in free.items()}
        return {k: m.map_entries(lambda f: st_from_laurent(f, sctx))
                for k, m in free.items()}

    def zero(self):
        if self.mode in ("free", "metabelian"):
            return LaurentPoly.zero()
        if self.mode == "s":
            return self.sctx.zero()
        return STPoly(self.sctx)

    def one(self):
        if self.mode in ("free", "metabelian"):
            return LaurentPoly.const(1)
        if self.mode == "s":
            return self.sctx.one()
        return STPoly.from_s(self.sctx.one())

    def identity(self) -> Matrix2:
        one, zero = self.one(), self.zero()
        return Matrix2(one, zero, zero, one)

    def eval_word(self, w) -> Matrix2:
        M = self.identity()
        for ch in _letters(w):
            M = M.mul(self.gens[ch])
        return M


def st_from_laurent(f: LaurentPoly, sctx: SContext) -> STPoly:
    """Image of an R[t,t^-1] element in S(q)[t,t^-1]."""
    coeffs = {k: sctx.reduce(g.to_truncated(sctx.params.D))
              for k, g in f.t_coefficients().items()}
    return STPoly(sctx, coeffs)


def eval_word(w, ctx: GroupContext) -> Matrix2:
    return ctx.eval_word(w)


# ---------------------------------------------------------------------------
# normal form u*I + N with rows of N equal to lambda_i * (1-x, 1-y)

class NonConforming(ValueError):
    """Input matrix is not of the form u*I + [lambda_i * (1-x, 1-y)]."""


def divide_by_one_minus_x(f: LaurentPoly) -> LaurentPoly:
    return divide_one_minus(f, 0)


def divide_by_one_minus_y(f: LaurentPoly) -> LaurentPoly:
    return divide_one_minus(f, 1)


@dataclass(frozen=True)
class NormalForm:
    """M = u*I + N, N rows lambda_i * (1-x, 1-y); lambda_1(1-x) + lambda_2(1-y) = 1-u."""

    u: UnitMonomial
    lambda1: LaurentPoly
    lambda2: LaurentPoly

    def reconstruct(self) -> Matrix2:
        up = self.u.as_poly()
        ax, by = _ONE - _X, _ONE - _Y
        return Matrix2(up + self.lambda1 * ax, self.lambda1 * by,
                       self.lambda2 * ax, up + self.lambda2 * by)

    def constraint_holds(self) -> bool:
        lhs = self.lambda1 * (_ONE - _X) + self.lambda2 * (_ONE - _Y)
        return lhs == _ONE - self.u.as_poly()


def normal_form(M: Matrix2) -> NormalForm:
    """Extract (u, lambda_1, lambda_2) from a t-free matrix; NonConforming on failure."""
    for e in M.entries():
        if not isinstance(e, LaurentPoly):
            raise NonConforming("normal form needs LaurentPoly entries")
        if e.has_t:
            raise NonConforming("normal form is defined at t=1 (t-free entries)")
    try:
        u = UnitMonomial.from_poly(M.det())
    except ValueError as exc:
        raise NonConforming(f"determinant is not a unit monomial: {exc}") from exc
    if not u.is_positive or u.k:
        raise NonConforming(f"determinant {u.as_poly().render()} is not a positive x,y unit")
    up = u.as_poly()

    def extract(primary: LaurentPoly, primary_div, fallback: LaurentPoly, fallback_div):
        try:
            return primary_div(primary)
        except ExactDivisionError:
            return fallback_div(fallback)

    try:
        lam1 = extract(M.e11 - up, divide_by_one_minus_x, M.e12, divide_by_one_minus_y)
        lam2 = extract(M.e21, divide_by_one_minus_x, M.e22 - up, divide_by_one_minus_y)
    except ExactDivisionError as exc:
        raise NonConforming("entries are not multiples of (1-x)/(1-y)") from exc
    nf = NormalForm(u, lam1, lam2)
    if not nf.reconstruct() == M:
        raise NonConforming("reconstruction mismatch")
    if not nf.constraint_holds():
        raise NonConforming("lambda constraint violated")
    return nf


def power_closed_form(M: Matrix2, n: int) -> Matrix2:
    """M^n = u^n*I + (1 + u + ... + u^(n-1))*N for M = u*I + N in normal form."""
    return power_from_normal_form(normal_form(M), n)


def power_from_normal_form(nf: NormalForm, n: int) -> Matrix2:
    """power_closed_form for a matrix whose normal form nf is already known."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    up = nf.u.as_poly()
    geom = LaurentPoly.zero()
    upow = LaurentPoly.const(1)
    for _ in range(n):
        geom = geom + upow
        upow = upow * up
    ax, by = _ONE - _X, _ONE - _Y
    return Matrix2(upow + geom * nf.lambda1 * ax, geom * nf.lambda1 * by,
                   geom * nf.lambda2 * ax, upow + geom * nf.lambda2 * by)


def commutator(g: Matrix2, h: Matrix2) -> Matrix2:
    """[g, h] = g h g^-1 h^-1 via adjugate inverses (unit determinants)."""
    return g.mul(h).mul(matrix_inverse(g)).mul(matrix_inverse(h))


def basic_commutator(a: int, b: int) -> tuple[GroupWord, NormalForm]:
    """Left-normed [M2, M1, M2 x b, M1 x a] word and its predicted normal form.

    The second generator occurs b+1 times and the first a+1 times; predicted
    lambda_1 = -(1-y)^(b+1) (1-x)^a and lambda_2 = (1-y)^b (1-x)^(a+1).
    """
    if a < 0 or b < 0:
        raise ValueError("a, b must be >= 0")
    w = commutator_word("b", "a")
    for _ in range(b):
        w = commutator_word(w, "b")
    for _ in range(a):
        w = commutator_word(w, "a")
    lam1 = -((_ONE - _Y) ** (b + 1) * (_ONE - _X) ** a)
    lam2 = (_ONE - _Y) ** b * (_ONE - _X) ** (a + 1)
    return GroupWord(w), NormalForm(UnitMonomial(1, 0, 0, 0), lam1, lam2)


def det_t_degree(M: Matrix2) -> int:
    """t-degree of the determinant (a unit monomial for evaluated words)."""
    d = M.det()
    if isinstance(d, LaurentPoly):
        return UnitMonomial.from_poly(d).k
    if isinstance(d, STPoly):
        ks = [k for k, v in d.coeffs.items() if not v.is_zero()]
        if len(ks) != 1:
            raise ValueError("determinant is not a t-monomial")
        return ks[0]
    raise TypeError(f"unsupported entry type {type(d).__name__}")


def check_row_fixed(M: Matrix2) -> bool:
    """The row vector (1-x, 1-y) is fixed by every evaluated word at t=1."""
    v1, v2 = _ONE - _X, _ONE - _Y
    return (v1 * M.e11 + v2 * M.e21 == v1) and (v1 * M.e12 + v2 * M.e22 == v2)


def product_normal_form_rule(W1: NormalForm, W2: NormalForm) -> NormalForm:
    """Normal form of a product from the factors: (u1*u2, u1*d1 + l1, u1*d2 + l2)."""
    u1 = W1.u.as_poly()
    return NormalForm(W1.u * W2.u,
                      u1 * W2.lambda1 + W1.lambda1,
                      u1 * W2.lambda2 + W1.lambda2)


# ---------------------------------------------------------------------------
# order classification over S(q)[t,t^-1]

class ExponentLawViolation(RuntimeError):
    """An order bound that the library treats as law failed on a concrete word."""


@dataclass(frozen=True)
class OrderResult:
    word: str
    q: int
    order: int | float
    certificate: str

    @property
    def is_infinite(self) -> bool:
        return self.order == math.inf


def _divisors(q: int) -> list[int]:
    return [d for d in range(1, q + 1) if q % d == 0]


def specialize_xy1(w) -> Matrix2:
    """Evaluate the word with x = y = 1 kept exact in t (a triangular Z[t,t^-1] image)."""
    free = _free_generators()
    gens = {k: m.map_entries(lambda f: f.specialize(x=1, y=1)) for k, m in free.items()}
    one, zero = LaurentPoly.const(1), LaurentPoly.zero()
    M = Matrix2(one, zero, zero, one)
    for ch in _letters(w):
        M = M.mul(gens[ch])
    return M


def order_in_G(w, sctx: SContext, lane: str | None = None) -> OrderResult:
    """Infinite for nonzero t-exponent sum, else the least divisor d of q with w^d = I.

    The q-th power identity is always asserted in the zero-sum case; a failure
    raises ExponentLawViolation rather than returning.
    """
    from . import kernels

    word = free_reduce(w)
    q = sctx.params.q
    ts = t_exponent_sum(word)
    if ts != 0:
        M = specialize_xy1(word)
        k = det_t_degree(M)
        if k != ts:
            raise AssertionError(f"determinant t-degree {k} != exponent sum {ts}")
        return OrderResult(word, q, math.inf,
                           f"specialization x=y=1 has determinant t^{k}, k != 0")
    if not word:
        return OrderResult(word, q, 1, "empty word")
    tables = kernels.tables_for(sctx)
    if not kernels.eval_is_identity(word * q, tables, lane=lane):
        raise ExponentLawViolation(
            f"word {word!r} has zero t-exponent sum but w^{q} != I over S({q})[t,t^-1]")
    for d in _divisors(q):
        if kernels.eval_is_identity(word * d, tables, lane=lane):
            return OrderResult(word, q, d, f"w^{d} = I over S({q})[t,t^-1]")
    raise AssertionError("unreachable: w^q = I was already verified")


def commutative_square_check(w, sctx: SContext, lane: str | None = None) -> bool:
    """Two paths agree: (R[t,t^-1] -> t=1 -> S) vs (S[t,t^-1] -> t=1), entrywise.

    The first path is symbolic evaluation then reduction; the second is the
    vectorized quotient evaluation, so the comparison is computed independently.
    """
    from . import kernels

    word = _letters(w)
    free = GroupContext("free")
    M = free.eval_word(word)
    path1 = [sctx.reduce(e.specialize(t=1)) for e in M.entries()]
    tables = kernels.tables_for(sctx)
    res = kernels.eval_word_quotient(word, tables, lane=lane)
    path2 = [SElement(sctx, v) for v in kernels.entries_at_t1(res, tables)]
    return path1 == path2


def group_closure(ctx: GroupContext, max_size: int = 100000) -> int:
    """Breadth-first closure size of the generator set (finite groups only)."""
    def key(M: Matrix2):
        return tuple(e.coeffs for e in M.entries())

    ident = ctx.identity()
    seen = {key(ident)}
    frontier = [ident]
    while frontier:
        nxt = []
        for M in frontier:
            for g in ctx.gens.values():
                P = M.mul(g)
                k = key(P)
                if k not in seen:
                    seen.add(k)
                    nxt.append(P)
                    if len(seen) > max_size:
                        raise RuntimeError(f"closure exceeded {max_size} elements")
        frontier = nxt
    return len(seen)
