"""(t-1)-adic analysis of matrices over R[t,t^-1].

Every g decomposes as g = A_0 + (t-1)A_1 + (t-1)^2 A_2 + ... with A_i over R;
the derived-layer claim at depth k (d = 2^(k-2)) is

    t1_valuation(g) >= d  and  every A_i lies in Sigma^(2d).

Both conditions have finite, quotient-sized equivalents used by the sampled
suites so that deep layers never require the exact matrix:

  * t1_valuation(g) >= d  iff  g maps to I in the series ring R[s]/(s^d),
    s = t-1, because t = 1+s embeds R[t,t^-1] into R[[s]] (t^-1 is the
    alternating geometric series, and the map is a ring embedding).
  * all (t-1)-coefficients of g - I in Sigma^(2d)  iff  g maps to I over
    (R/Sigma^(2d))[t,t^-1]: a Laurent polynomial in t is determined by its
    t-coefficients, reduced here mod Sigma^(2d) -- no power series needed,
    since a nonzero polynomial of t-span n is never divisible by (t-1)^(n+1).

SeriesContext carries exact integer x,y coefficients (no truncation), so the
valuation side is exact; the sigma side runs on the kernels module.  It
evaluates a word by the letter steps of groups._eval_steps, the evaluator
GroupContext uses in the exact ring, with the s-slots in place of t-exponents
and the slots from m on dropped.  R[s]/(s^m) has that one form throughout:
a SeriesMatrix entry is what _eval_steps returns, {slot: {key: c}} with
0 <= slot < m, and no empty slot or zero coefficient.

A commutator tree is evaluated node by node (_Node), in the one tree
recursion, sample_layer_element's.  A leaf whose determinant is not 1 has
valuation 0 and is evaluated only if a parent asks for its delta; a
commutator of two leaves is evaluated as its word by letter steps; a deeper
commutator takes the bracket of its children's deltas and builds its own
delta only when a parent asks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rings import ExactDivisionError, LaurentPoly, divide_one_minus, xpow_coeffs
from .groups import (Matrix2, _KONE, _YBITS, _YMASK, _eval_steps, _free_generators,
                     _letter_steps, _pack, commutator_word, free_reduce,
                     random_reduced_word)


def t1_valuation(g: Matrix2) -> int | float:
    """Largest d with (t-1)^d dividing every entry of g - I; +inf iff g = I.

    The entries of g - I are e11 - 1, e12, e21 and e22 - 1, so only the
    diagonal is copied.  An entry is divided by 1 - t (the sign does not
    change divisibility) only while its count is below the least so far;
    the division fails exactly when the entry is nonzero at t = 1.
    """
    e11, e12, e21, e22 = g.entries()
    best = math.inf
    for f in (e11 - 1, e12, e21, e22 - 1):
        if f.is_zero():
            continue
        v = 0
        while v < best:
            try:
                f = divide_one_minus(f, 2)
            except ExactDivisionError:
                break
            v += 1
        best = v
    return best


def vanishes_mod_sigma(g: Matrix2, d: int) -> bool:
    """Every Laurent-in-t coefficient of every entry of g - I lies in Sigma^d."""
    e11, e12, e21, e22 = g.entries()
    for f in (e11 - 1, e12, e21, e22 - 1):
        for coeff in f.t_coefficients().values():
            if not coeff.in_sigma_power(d):
                return False
    return True


def check_derived_layer(g: Matrix2, k: int) -> bool:
    """Layer-k bound, d = 2^(k-2): valuation >= d and coefficients in Sigma^(2d)."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    d = 2 ** (k - 2)
    return t1_valuation(g) >= d and vanishes_mod_sigma(g, 2 * d)


# ---------------------------------------------------------------------------
# series quotient R[s]/(s^m): an entry is {slot: {key: c}}, the form
# groups._eval_steps returns, with 0 <= slot < m, each monomial x^i y^j keyed
# by groups._pack(i, j), and no empty slot or zero coefficient.


def _p2mul_into(acc: dict, a: dict, b: dict):
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    for k1, c1 in a.items():
        k0 = k1 - _KONE
        for k2, c2 in b.items():
            k = k0 + k2
            v = get(k, 0) + c1 * c2
            if v:
                acc[k] = v
            elif k in acc:
                del acc[k]


def _p2addto(acc: dict, b: dict):
    get = acc.get
    for k, c in b.items():
        v = get(k, 0) + c
        if v:
            acc[k] = v
        elif k in acc:
            del acc[k]


# The dict loop multiplies every pair of terms; Kronecker substitution packs
# each slot into one integer instead.  Packing and decoding cost more than
# the loop until the term pairs of a product number this many (measured on
# a 2-core x86 VM, see README "Series ring").
_PACK_MIN_PAIRS = 8000

# the four entries of a 2x2 product as sums of (left entry, right entry) products
_MATRIX_SUMS = (((0, 0), (1, 2)), ((0, 1), (1, 3)), ((2, 0), (3, 2)), ((2, 1), (3, 3)))


def _sums(left: list, right: list, sums, m: int) -> list:
    """For each tuple of (l, r) in sums, sum of left[l] * right[r] in R[s]/(s^m).

    Large products go through Kronecker substitution, unless the operands
    are so sparse that the packed integers would hold more fields than they
    have terms.
    """
    terms = ([sum(map(len, ent.values())) for ent in left],
             [sum(map(len, ent.values())) for ent in right])
    if sum(terms[0][l] * terms[1][r] for pairs in sums for l, r in pairs) >= _PACK_MIN_PAIRS:
        out = _packed_sums(left, right, sums, m, sum(terms[0]) + sum(terms[1]))
        if out is not None:
            return out
    out = []
    for pairs in sums:
        acc = {}
        for l, r in pairs:
            b = right[r]
            for i, ai in left[l].items():
                for j, bj in b.items():
                    if i + j < m:
                        _p2mul_into(acc.setdefault(i + j, {}), ai, bj)
        out.append({sl: s for sl, s in acc.items() if s})
    return out


# Kronecker substitution.  A slot polynomial becomes one integer, its value
# at y = 2^w, x = 2^(w*stride): monomial x^i y^j lands on the w-bit field
# (i - x0) * stride + (j - y0), and stride is the y-span of the product, so
# every monomial of a product has a field of its own.  A coefficient of
# output slot r of sum_k a_k * b_k is at most
# sum_k sum_i L1(a_k,i) * max|b_k,r-i| in size, and w leaves a sign bit above
# that bound: adding 2^(w-1) to every field makes all fields non-negative
# with no carries, and the product reads back field by field.  This is
# evaluation at one integer point and an exact, unique decoding.
def _box(slots: list) -> tuple[int, int, int, int]:
    """Least x and (biased) y field, and the x and y spans, of the keys in slots."""
    lo = min(min(s) for s in slots)
    hi = max(max(s) for s in slots)
    ys = [k & _YMASK for s in slots for k in s]
    y0 = min(ys)
    return lo >> _YBITS, y0, (hi >> _YBITS) - (lo >> _YBITS), max(ys) - y0


def _pack_slot(poly: dict, corner: int, stride: int, wb: int, n: int) -> int:
    """poly as one integer of n fields of wb bytes; corner is the key of field 0."""
    pos = bytearray(n * wb)
    neg = bytearray(n * wb)
    for k, c in poly.items():
        d = k - corner
        o = ((d >> _YBITS) * stride + (d & _YMASK)) * wb
        if c > 0:
            pos[o:o + wb] = c.to_bytes(wb, "little")
        else:
            neg[o:o + wb] = (-c).to_bytes(wb, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack_slot(v: int, base: int, stride: int, wb: int, n: int) -> dict:
    """The nonzero fields of v as {key: coefficient}; field 0 has the key base."""
    half = 1 << (8 * wb - 1)
    field = half.to_bytes(wb, "little")
    raw = (v + int.from_bytes(field * n, "little")).to_bytes(n * wb, "little")
    live = (np.frombuffer(raw, dtype=np.uint8).reshape(n, wb)
            != np.frombuffer(field, dtype=np.uint8)).any(axis=1)
    out = {}
    for f in np.flatnonzero(live).tolist():
        x, y = divmod(f, stride)
        out[base + (x << _YBITS) + y] = int.from_bytes(raw[f * wb:f * wb + wb], "little") - half
    return out


def _slot_products(left: list, right: list, pairs, m: int) -> dict:
    """{r: sum of left[l][i] * right[r'][j] over (l, r') in pairs and the
    slots i + j = r < m}, for entries of integers: only slots both hold meet."""
    out = {}
    for l, r in pairs:
        b = right[r]
        for i, ai in left[l].items():
            for j, bj in b.items():
                if i + j < m:
                    out[i + j] = out.get(i + j, 0) + ai * bj
    return out


def _packed_sums(left: list, right: list, sums, m: int, terms: int) -> list | None:
    """_sums by Kronecker substitution, or None when the packed integers would
    hold more fields than the operands have terms.

    Each operand slot is packed once, however many products it takes part
    in, and only the output slots are decoded.
    """
    lslots = [s for ent in left for s in ent.values()]
    rslots = [s for ent in right for s in ent.values()]
    if not lslots or not rslots:
        return [{} for _ in sums]
    ax, ay, asx, asy = _box(lslots)
    bx, by, bsx, bsy = _box(rslots)
    stride = asy + bsy + 1
    na, nb = asx * stride + asy + 1, bsx * stride + bsy + 1
    if na + nb - 1 > terms:
        return None
    l1 = [{i: sum(map(abs, s.values())) for i, s in ent.items()} for ent in left]
    top = [{j: max(map(abs, s.values())) for j, s in ent.items()} for ent in right]
    # the operands' own coefficients are written into fields too
    bound = max(max(v for ent in l1 for v in ent.values()),
                max(v for ent in top for v in ent.values()))
    for pairs in sums:
        bound = max(bound, *_slot_products(l1, top, pairs, m).values(), 0)
    wb = (bound.bit_length() + 8) // 8  # field bytes, sign bit included
    ka, kb = (ax << _YBITS) + ay, (bx << _YBITS) + by
    pa = [{i: _pack_slot(s, ka, stride, wb, na) for i, s in ent.items()} for ent in left]
    pb = [{j: _pack_slot(s, kb, stride, wb, nb) for j, s in ent.items()} for ent in right]
    base = ka + kb - _KONE
    return [{sl: _unpack_slot(v, base, stride, wb, na + nb - 1)
             for sl, v in _slot_products(pa, pb, pairs, m).items() if v}
            for pairs in sums]


class SeriesMatrix:
    """2x2 matrix over R[s]/(s^m); entries are {slot: {key: c}}."""

    __slots__ = ("m", "e")

    def __init__(self, m: int, e):
        self.m = m
        self.e = e

    def mul(self, other: "SeriesMatrix", live: int | None = None) -> "SeriesMatrix":
        """self * other; with live, only the slots below live are computed."""
        return SeriesMatrix(self.m, _sums(self.e, other.e, _MATRIX_SUMS,
                                          self.m if live is None else live))


def _t_power(k: int, m: int) -> list:
    """Coefficients of t^k mod s^m: t = 1+s is x = 1-a with a = -s."""
    return [(-1) ** r * c for r, c in enumerate(xpow_coeffs(k, m))]


def _laurent_to_series(f: LaurentPoly, m: int) -> dict:
    """Image under t = 1+s in R[s]/(s^m)."""
    out = {}
    for (i, j, k), c in f.terms.items():
        key = _pack(i, j)
        for r, w in enumerate(_t_power(k, m)):
            if w:
                _p2addto(out.setdefault(r, {}), {key: c * w})
    return {r: s for r, s in out.items() if s}


class SeriesContext:
    """Generator matrices over R[s]/(s^m) and word evaluation by letter steps."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("need at least one slot")
        self.m = m
        self.gens = {letter: SeriesMatrix(m, [_laurent_to_series(e, m) for e in M.entries()])
                     for letter, M in _free_generators().items()}
        self.steps = _letter_steps({letter: g.e for letter, g in self.gens.items()})

    def identity(self) -> SeriesMatrix:
        return SeriesMatrix(self.m, [{0: {_KONE: 1}}, {}, {}, {0: {_KONE: 1}}])

    def eval_word(self, w: str) -> SeriesMatrix:
        """The identity right-multiplied by the letters of w, one step each
        (groups._eval_steps); SeriesMatrix.mul is the generic product the
        steps are tested against."""
        return SeriesMatrix(self.m, _eval_steps(self.steps, w, self.m))


# ---------------------------------------------------------------------------
# commutator trees: ("w", word) leaves, ("c", left, right) nodes

def flatten_tree(tree) -> str:
    if tree[0] == "w":
        return tree[1]
    return commutator_word(flatten_tree(tree[1]), flatten_tree(tree[2]))


def _word_det(w: str) -> tuple[int, int]:
    """(e1, e2) with det = x^e1 (yt)^e2: det a = x and det b = yt."""
    return w.count("a") - w.count("A"), w.count("b") - w.count("B")


def _slot_sum(terms, live: int | None = None) -> dict:
    """Sum of sign * X over (sign, X) in terms, X entries, in new slot dicts;
    with live, the slots from live on are left out."""
    out = {}
    for sign, X in terms:
        for sl, src in X.items():
            if live is not None and sl >= live:
                continue
            if sign < 0:
                src = {k: -c for k, c in src.items()}
            acc = out.get(sl)
            if acc is None:
                out[sl] = dict(src) if sign > 0 else src
            else:
                _p2addto(acc, src)
    return {sl: s for sl, s in out.items() if s}


def _matrix_sum(terms, m: int, live: int | None = None) -> SeriesMatrix:
    """Sum of sign * X over (sign, X) in terms, X series matrices."""
    return SeriesMatrix(m, [_slot_sum([(sign, X.e[idx]) for sign, X in terms], live)
                            for idx in range(4)])


def _plus_identity(X: SeriesMatrix, c: int) -> SeriesMatrix:
    """X + c * I; the slots it does not change are shared with X."""
    e = list(X.e)
    for idx in (0, 3):
        ent = dict(e[idx])
        s0 = dict(ent.pop(0, {}))
        _p2addto(s0, {_KONE: c})
        if s0:
            ent[0] = s0
        e[idx] = ent
    return SeriesMatrix(X.m, e)


def _valuation(delta: SeriesMatrix) -> int:
    """First s-slot where delta is nonzero, or m if none."""
    return min((sl for ent in delta.e for sl in ent), default=delta.m)


# AB - BA from entries, for 2x2 A and B over a commutative ring:
#   D11 = a12 b21 - b12 a21,  D22 = -D11,
#   D12 = a12 (b22 - b11) - b12 (a22 - a11),
#   D21 = b21 (a22 - a11) - a21 (b22 - b11).
# The operands are [a12, -b12, b21, -a21] and [b21, a21, b22 - b11, a22 - a11].
_BRACKET_SUMS = (((0, 0), (1, 1)), ((0, 2), (1, 3)), ((2, 3), (3, 2)))


def _bracket(A: SeriesMatrix, B: SeriesMatrix) -> SeriesMatrix:
    """AB - BA in six entry products instead of the sixteen of AB and BA."""
    a11, a12, a21, a22 = A.e
    b11, b12, b21, b22 = B.e
    left = [a12, _slot_sum(((-1, b12),)), b21, _slot_sum(((-1, a21),))]
    right = [b21, a21, _slot_sum(((1, b22), (-1, b11))), _slot_sum(((1, a22), (-1, a11)))]
    d11, d12, d21 = _sums(left, right, _BRACKET_SUMS, A.m)
    return SeriesMatrix(A.m, [d11, d12, d21, _slot_sum(((-1, d11),))])


_ENTRY_TIMES_SCALAR = tuple(((idx, 0),) for idx in range(4))


def _over_det(X: SeriesMatrix, det: tuple[int, int]) -> SeriesMatrix:
    """X / det for det = x^e1 (yt)^e2: times x^-e1 y^-e2 and t^-e2 = (1+s)^-e2."""
    if det == (0, 0):
        return X
    key = _pack(-det[0], -det[1])
    scalar = {r: {key: w} for r, w in enumerate(_t_power(-det[1], X.m)) if w}
    return SeriesMatrix(X.m, _sums(X.e, [scalar], _ENTRY_TIMES_SCALAR, X.m))


class _Node:
    """Tree node g: the valuation of g - I and det g up front, the delta g - I
    on demand.

    det is (e1, e2) with det g = x^e1 (yt)^e2, and (0, 0) for a commutator;
    word is a leaf's word, None otherwise.  Until a parent asks for the
    delta, _make holds the call that builds it; a sample's root never asks.
    Two kinds of node wait:

      * a leaf with det != (0, 0), whose valuation is 0 unevaluated: at
        t = 1 its det is x^e1 y^e2 != 1, so g is not I mod s;
      * a commutator with a child that is not a leaf, which keeps its
        children's deltas and its bracket for _commutator_delta.

    A zero-sum leaf and a commutator of two leaves evaluate their word at once.
    """

    __slots__ = ("valuation", "det", "word", "_delta", "_make")

    def __init__(self, valuation: int, det: tuple[int, int], word: str | None = None,
                 delta=None, make=None):
        self.valuation = valuation
        self.det = det
        self.word = word
        self._delta = delta
        self._make = make

    @property
    def delta(self) -> SeriesMatrix:
        if self._delta is None:
            fn, *args = self._make
            self._delta = fn(*args)
            self._make = None
        return self._delta


def _word_delta(w: str, ctx: SeriesContext) -> SeriesMatrix:
    return _plus_identity(ctx.eval_word(w), -1)


def _leaf(w: str, ctx: SeriesContext) -> _Node:
    det = _word_det(w)
    if det != (0, 0):
        return _Node(0, det, word=w, make=(_word_delta, w, ctx))
    delta = _word_delta(w, ctx)
    return _Node(_valuation(delta), det, word=w, delta=delta)


def _commutator(L: _Node, R: _Node, ctx: SeriesContext) -> _Node:
    """[L, R] - I = (LR - RL)(RL)^-1 and RL is a unit, so [L, R] has the
    valuation of D = LR - RL = AB - BA, for the deltas A = L - I and B = R - I.
    The node computes D by _bracket; its delta waits for a parent.

    A commutator of two leaves is its word, at most four leaf lengths long,
    evaluated by letter steps: cheaper than the children's deltas and the
    products of the bracket and the delta."""
    if L.word is not None and R.word is not None:
        delta = _word_delta(free_reduce(commutator_word(L.word, R.word)), ctx)
        return _Node(_valuation(delta), (0, 0), delta=delta)
    A, B = L.delta, R.delta
    D = _bracket(A, B)
    det = (L.det[0] + R.det[0], L.det[1] + R.det[1])
    return _Node(_valuation(D), (0, 0), make=(_commutator_delta, A, B, D, det))


def _commutator_delta(A, B, D, det) -> SeriesMatrix:
    """[L, R] - I = LR D / det(LR), with LR D = D + (A + B + AB) D.

    [L, R] = LR (RL)^-1 and RL = LR - D.  The adjugate is linear and D is
    traceless, so adj D = -D and LR adj(RL) = det(LR) I + LR D.  det(LR) is
    1 unless one child is a leaf (two leaves make a word node instead).
    (A + B + AB) D starts at slot min(val A, val B) + val D, so deep nodes
    skip most slot products.
    """
    m = D.m
    # slot i of AB and of A + B + AB meets D only if i + val D < m
    live = m - _valuation(D)
    S = _matrix_sum(((1, A), (1, B), (1, A.mul(B, live))), m, live)
    return _over_det(_matrix_sum(((1, D), (1, S.mul(D))), m), det)


@dataclass(frozen=True)
class LayerSample:
    tree: tuple
    word: str
    certified: bool  # image differs from I in R[s]/(s^m), so the element is nontrivial
    valuation: int   # first nonzero s-slot of g - I; m when not certified


_RETRIES = 8  # draws per node before a collapsed one is kept


def sample_layer_element(rng, k: int, ctx: SeriesContext, maxlen: int = 3) -> LayerSample:
    """Balanced depth-k commutator tree, resampled per node to dodge collapses."""
    m = ctx.m

    def build(depth: int):
        if depth == 0:
            for _ in range(_RETRIES):
                w = random_reduced_word(rng, maxlen)
                node = _leaf(w, ctx)
                if node.valuation < m:
                    break
            return ("w", w), node
        lt, ln = build(depth - 1)
        rt, rn = build(depth - 1)
        nd = _commutator(ln, rn, ctx)
        for _ in range(_RETRIES - 1):
            if nd.valuation < m:
                break
            rt, rn = build(depth - 1)
            nd = _commutator(ln, rn, ctx)
        return ("c", lt, rt), nd

    tree, node = build(k)
    return LayerSample(tree=tree, word=free_reduce(flatten_tree(tree)),
                       certified=node.valuation < m, valuation=node.valuation)
