"""Words in the two generator matrices, their evaluation, normal forms,
closed-form powers, commutators, and order classification.

Generators (letters a/A are the matrix and its inverse, likewise b/B):

    a = [[1, 1-y], [0, x]]        b = [[y*t, 0], [1-x*t, 1]]

Words are plain strings over a/A/b/B.  One evaluator (_eval_steps, on
steps from _letter_steps) takes them one letter step at a time, over entries
{r: {key: c}}: GroupContext over R[t,t^-1] ("free") or R at t=1
("metabelian"), specialize_xy1 over Z[t,t^-1], and tadic.SeriesContext over
R[s]/(s^m).  A generator column is e_j, which leaves the product's column j
as it is, or a few terms, each a shifted, scaled copy of one column.  Words
over S(q)[t,t^-1] go through kernels.QuotientMatrix.  An element of S(q)
is its canonical coefficient tuple (SContext.reduce), so S(q) at t=1 is
reached by reducing metabelian entries.  Setting t=1 commutes with reducing R -> S(q), which is
the commutative-square check at the bottom of this module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

from .rings import (ExactDivisionError, LaurentPoly, UnitMonomial, divide_one_minus,
                    ONE as _ONE, T as _T, X as _X, Y as _Y)
from .ideals import SContext

LETTERS = "aAbB"


def parse_word(text: str) -> str:
    """text as a word; a = first generator, b = second, capitals = inverses."""
    bad = set(text) - set(LETTERS)
    if bad:
        raise ValueError(f"invalid letters {sorted(bad)}; expected a, A, b, B")
    return text


def word_inverse(w: str) -> str:
    return w[::-1].swapcase()


def free_reduce(w: str) -> str:
    out: list[str] = []
    for ch in w:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def t_exponent_sum(w: str) -> int:
    """Signed count of the t-carrying generator: #b - #B."""
    return w.count("b") - w.count("B")


def commutator_word(w1: str, w2: str) -> str:
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


def balanced_commutator_word(leaves) -> str:
    """[[l0, l1], [l2, l3]], ...: pair adjacent words until one is left."""
    layer = list(leaves)
    while len(layer) > 1:
        layer = [commutator_word(layer[i], layer[i + 1])
                 for i in range(0, len(layer), 2)]
    return layer[0]


def tree_word(rng, depth: int, maxlen: int) -> str:
    """Balanced commutator of 2^depth random base words, drawn left to right."""
    return balanced_commutator_word(random_reduced_word(rng, maxlen)
                                    for _ in range(1 << depth))


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


# ---------------------------------------------------------------------------
# evaluation contexts

_XI = LaurentPoly.monomial(1, -1, 0, 0)
_YI = LaurentPoly.monomial(1, 0, -1, 0)


def _free_generators() -> dict[str, Matrix2]:
    zero = LaurentPoly.zero()
    a = Matrix2(_ONE, _ONE - _Y, zero, _X)
    ai = Matrix2(_ONE, -(_XI * (_ONE - _Y)), zero, _XI)
    b = Matrix2(_Y * _T, zero, _ONE - _X * _T, _ONE)
    yiti = _YI * LaurentPoly.monomial(1, 0, 0, -1)
    bi = Matrix2(yiti, zero, -(yiti * (_ONE - _X * _T)), _ONE)
    return {"a": a, "A": ai, "b": b, "B": bi}


# Entries of the letter-step evaluator are {r: {key: c}}: r is the
# t-exponent over R[t,t^-1] and R, or the s-slot over R[s]/(s^m), and
# monomial x^i y^j is the int key (i << 32) + j + 2^31, so the key of a
# product is k1 + k2 - 2^31.  The x field has no bound (a floor shift reads
# it back for any i); the y field holds |j| < 2^31, while a word of n
# letters has |j| <= n.  Zero coefficients and empty slots are never kept.

_YBITS = 32
_YMASK = (1 << _YBITS) - 1
_KONE = 1 << (_YBITS - 1)  # the key of 1, which every product key subtracts once


def _pack(i: int, j: int) -> int:
    return (i << _YBITS) + j + _KONE


def _unpack(k: int) -> tuple[int, int]:
    return k >> _YBITS, (k & _YMASK) - _KONE


def _slots(f: LaurentPoly) -> dict:
    """f as an evaluator entry, its t-exponents as slots."""
    out = {}
    for (i, j, k), c in f.terms.items():
        out.setdefault(k, {})[_pack(i, j)] = c
    return out


def _matrix(entries) -> Matrix2:
    """Four evaluator entries over R[t,t^-1] as a Matrix2 of LaurentPoly."""
    polys = []
    for ent in entries:
        f = LaurentPoly()
        f.terms = {(key >> _YBITS, (key & _YMASK) - _KONE, k): c
                   for k, slot in ent.items() for key, c in slot.items()}
        polys.append(f)
    return Matrix2(*polys)


def _letter_steps(gens: dict) -> dict[str, tuple]:
    """Right multiplication by each generator as a sparse step on rows.

    gens[ch] is ch's four entries as {r: {key: c}}.  steps[ch][j] is None
    when column j of ch's matrix is e_j: the product keeps its column j.
    Otherwise it is the column's terms ((l, shift, r, c), ...), each adding
    c times entry (row, l) of the product, its keys moved by shift (the key
    of a monomial less _KONE) and its slots by r, to entry (row, j).  A
    generator column has at most three terms over R[t,t^-1], against the
    eight products and four sums of Matrix2.mul, and at most 2m + 1 over
    R[s]/(s^m).
    """
    one = {0: {_KONE: 1}}
    steps = {}
    for ch, e in gens.items():
        cols = []
        for j in range(2):
            col = (e[j], e[2 + j])
            if col[j] == one and not col[1 - j]:
                cols.append(None)
            else:
                cols.append(tuple((l, key - _KONE, r, c) for l, ent in enumerate(col)
                                  for r, slot in ent.items() for key, c in slot.items()))
        steps[ch] = tuple(cols)
    return steps


def _eval_steps(steps: dict, w: str, cap: int | None = None) -> list:
    """The identity right-multiplied by the letters of w, one step each: its
    four entries as {r: {key: c}}, with the slots r >= cap dropped."""
    rows = [[{0: {_KONE: 1}}, {}], [{}, {0: {_KONE: 1}}]]
    for ch in w:
        step = steps[ch]
        for row in rows:
            old = tuple(row)
            for j, col in enumerate(step):
                if col is None:
                    continue
                acc = {}
                for l, shift, r, c in col:
                    for sl, src in old[l].items():
                        sl += r
                        if cap is not None and sl >= cap:
                            continue
                        out = acc.get(sl)
                        if out is None:
                            acc[sl] = {k + shift: c * v for k, v in src.items()}
                            continue
                        get = out.get
                        for k, v in src.items():
                            k += shift
                            v = get(k, 0) + c * v
                            if v:
                                out[k] = v
                            elif k in out:
                                del out[k]
                        if not out:
                            del acc[sl]
                row[j] = acc
    return rows[0] + rows[1]


class GroupContext:
    """Evaluation target: one of two coefficient rings.

    mode "free" = R[t,t^-1], "metabelian" = R at t=1.  Words are evaluated
    by the generators' letter steps (_letter_steps); Matrix2.mul is the
    generic product they are tested against.
    """

    MODES = ("free", "metabelian")

    def __init__(self, mode: str):
        if mode not in self.MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.gens = self._build_generators()
        self.steps = _letter_steps({ch: [_slots(e) for e in M.entries()]
                                    for ch, M in self.gens.items()})
        ident = self.identity()
        for g, gi in (("a", "A"), ("b", "B")):
            if not self.gens[g].mul(self.gens[gi]) == ident:
                raise AssertionError(f"generator inverse check failed for {g}")

    def _build_generators(self) -> dict[str, Matrix2]:
        free = _free_generators()
        if self.mode == "free":
            return free
        return {k: m.map_entries(lambda f: f.specialize(t=1)) for k, m in free.items()}

    def identity(self) -> Matrix2:
        one, zero = LaurentPoly.const(1), LaurentPoly.zero()
        return Matrix2(one, zero, zero, one)

    def eval_word(self, w: str) -> Matrix2:
        return _matrix(_eval_steps(self.steps, w))


@functools.cache
def group_context(mode: str) -> GroupContext:
    """This process's GroupContext for mode, built on first use and shared:
    callers read its generators and never change them."""
    return GroupContext(mode)


# ---------------------------------------------------------------------------
# normal form u*I + N with rows of N equal to lambda_i * (1-x, 1-y)

class NonConforming(ValueError):
    """Input matrix is not of the form u*I + [lambda_i * (1-x, 1-y)]."""


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

    def extract(by_one_minus_x: LaurentPoly, by_one_minus_y: LaurentPoly):
        try:
            return divide_one_minus(by_one_minus_x, 0)
        except ExactDivisionError:
            return divide_one_minus(by_one_minus_y, 1)

    try:
        lam1 = extract(M.e11 - up, M.e12)
        lam2 = extract(M.e21, M.e22 - up)
    except ExactDivisionError as exc:
        raise NonConforming("entries are not multiples of (1-x)/(1-y)") from exc
    nf = NormalForm(u, lam1, lam2)
    if not nf.reconstruct() == M:
        raise NonConforming("reconstruction mismatch")
    if not nf.constraint_holds():
        raise NonConforming("lambda constraint violated")
    return nf


def power_from_normal_form(nf: NormalForm, n: int) -> Matrix2:
    """M^n = u^n*I + (1 + u + ... + u^(n-1))*N for M = u*I + N in normal form nf."""
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


def basic_commutator(a: int, b: int) -> tuple[str, NormalForm]:
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
    return w, NormalForm(UnitMonomial(1, 0, 0, 0), lam1, lam2)


def det_t_degree(M: Matrix2) -> int:
    """t-degree of the determinant (a unit monomial for evaluated words)."""
    return UnitMonomial.from_poly(M.det()).k


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
    """An order bound that the library treats as law failed on a concrete word.

    order is the probed order: the least p^j <= cap with w^(p^j) = I, or None
    when there is none; cap is the scan's bound, p^2 q.
    """

    def __init__(self, message: str, order: int | None = None, cap: int | None = None):
        super().__init__(message)
        self.order = order
        self.cap = cap


@dataclass(frozen=True)
class OrderResult:
    word: str
    q: int
    order: int | float
    certificate: str

    @property
    def is_infinite(self) -> bool:
        return self.order == math.inf


@functools.cache
def _xy1_steps() -> dict[str, tuple]:
    return _letter_steps({ch: [_slots(e.specialize(x=1, y=1)) for e in M.entries()]
                          for ch, M in _free_generators().items()})


def specialize_xy1(w: str) -> Matrix2:
    """Evaluate the word with x = y = 1 kept exact in t (a triangular Z[t,t^-1] image)."""
    return _matrix(_eval_steps(_xy1_steps(), w))


def order_in_G(w: str, sctx: SContext) -> OrderResult:
    """Infinite for nonzero t-exponent sum, else the least divisor d of q with w^d = I.

    The q-th power identity is always asserted in the zero-sum case; a failure
    raises ExponentLawViolation rather than returning.  The divisors of q are
    powers of p, so one scan of w, w, w, ... up to p^2 q finds both the order
    and, on a failure, the probed order the exception carries.
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
    p = sctx.params.p
    cap = p * p * q
    d = kernels.least_identity_power(word, kernels.tables_for(sctx), cap)
    if d is None or q % d:
        raise ExponentLawViolation(
            f"word {word!r} has zero t-exponent sum but w^{q} != I over S({q})[t,t^-1]",
            d, cap)
    return OrderResult(word, q, d, f"w^{d} = I over S({q})[t,t^-1]")


def commutative_square_check(w: str, sctx: SContext) -> bool:
    """Two paths agree: (R[t,t^-1] -> t=1 -> S) vs (S[t,t^-1] -> t=1), entrywise.

    The first path is symbolic evaluation then reduction; the second is the
    vectorized quotient evaluation, so the comparison is computed independently.
    """
    from . import kernels

    M = group_context("free").eval_word(w)
    path1 = [sctx.reduce(e.specialize(t=1)) for e in M.entries()]
    tables = kernels.tables_for(sctx)
    res = kernels.eval_word_quotient(w, tables)
    return path1 == kernels.entries_at_t1(res, tables)


def group_closure(sctx: SContext, max_size: int = 100000) -> int:
    """Breadth-first closure size of the generators over S(q) at t=1 (finite groups only).

    The search walks metabelian matrices and compares them by their entries
    reduced into S(q); R -> S(q) is a ring map, so this is the closure in S(q).
    """
    def key(M: Matrix2):
        return tuple(sctx.reduce(e) for e in M.entries())

    ctx = group_context("metabelian")
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
