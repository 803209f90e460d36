"""Exact arithmetic in Z[x,x^-1,y,y^-1,t,t^-1] and in the truncated quotient by Sigma^D.

Sigma is the augmentation ideal of R = Z[x,x^-1,y,y^-1], generated by a = 1-x and
b = 1-y.  R/Sigma^D is represented on the monomial basis a^r b^s (r+s < D) in
graded-lex order: an element is the tuple of its D(D+1)/2 integer coordinates.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Mapping


class LaurentPoly:
    """Sparse Laurent polynomial: exponent triple (i,j,k) of x^i y^j t^k -> int coeff."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int, int], int] | None = None):
        self.terms: dict[tuple[int, int, int], int] = {}
        if terms:
            for m, c in terms.items():
                if c:
                    self.terms[m] = c

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def const(c: int) -> "LaurentPoly":
        return LaurentPoly({(0, 0, 0): c})

    @staticmethod
    def monomial(c: int, i: int = 0, j: int = 0, k: int = 0) -> "LaurentPoly":
        return LaurentPoly({(i, j, k): c})

    @staticmethod
    def var_x() -> "LaurentPoly":
        return LaurentPoly.monomial(1, i=1)

    @staticmethod
    def var_y() -> "LaurentPoly":
        return LaurentPoly.monomial(1, j=1)

    @staticmethod
    def var_t() -> "LaurentPoly":
        return LaurentPoly.monomial(1, k=1)

    @property
    def has_t(self) -> bool:
        return any(k for (_, _, k) in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly()
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        res = LaurentPoly()
        res.terms = out
        return res

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-other if isinstance(other, LaurentPoly) else -LaurentPoly.const(other))

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        f, g = self.terms, other.terms
        if len(f) > len(g):
            f, g = g, f
        out: dict[tuple[int, int, int], int] = {}
        for (i1, j1, k1), c1 in f.items():
            for (i2, j2, k2), c2 in g.items():
                m = (i1 + i2, j1 + j2, k1 + k2)
                v = out.get(m, 0) + c1 * c2
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        res = LaurentPoly()
        res.terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers only via explicit inverse monomials")
        out = LaurentPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def augmentation(self) -> int:
        """Evaluation at x = y = t = 1, i.e. the coefficient sum."""
        return sum(self.terms.values())

    def specialize(self, x: int | None = None, y: int | None = None,
                   t: int | None = None) -> "LaurentPoly":
        """Substitute integer values (+1 or -1) for some variables, keep the rest.

        Values restricted to units so negative exponents stay exact.
        """
        for name, v in (("x", x), ("y", y), ("t", t)):
            if v is not None and v not in (1, -1):
                raise ValueError(f"{name} must be +1 or -1, got {v}")
        out: dict[tuple[int, int, int], int] = {}
        for (i, j, k), c in self.terms.items():
            if x is not None:
                c *= x ** (i & 1) if x == -1 else 1
                i = 0
            if y is not None:
                c *= y ** (j & 1) if y == -1 else 1
                j = 0
            if t is not None:
                c *= t ** (k & 1) if t == -1 else 1
                k = 0
            m = (i, j, k)
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        res = LaurentPoly()
        res.terms = out
        return res

    def t_coefficients(self) -> dict[int, "LaurentPoly"]:
        """Split into {t-exponent: polynomial in x,y}."""
        out: dict[int, LaurentPoly] = {}
        for (i, j, k), c in self.terms.items():
            out.setdefault(k, LaurentPoly()).terms[(i, j, 0)] = c
        return out

    def sigma_valuation(self) -> int | float:
        """Largest k with f in Sigma^k; math.inf for 0.  Rejects inputs containing t.

        The least degree with a nonzero coordinate in to_truncated(D), for D
        doubling from 1 until one appears; sound because to_truncated(D) is
        exact below degree D.  The coordinates are summed degree by degree
        from the per-y-exponent sums in a, up to the first nonzero one, so the
        whole tuple is never built.
        """
        if self.has_t:
            raise ValueError("sigma_valuation is defined on t-free polynomials")
        if not self.terms:
            return math.inf
        f = self
        if len({j for _, j, _ in self.terms}) > len({i for i, _, _ in self.terms}):
            # swapping x and y keeps every degree: hold the fewer sums
            f = LaurentPoly({(j, i, 0): c for (i, j, _), c in self.terms.items()})
        D = 1
        while True:
            sums = [(acc, xpow_coeffs(j, D)) for j, acc in f._sums_in_a(D).items()]
            # at_r[r]: the nonzero a^r coefficients, each with its row of y^j
            at_r = [[(acc[r], row_y) for acc, row_y in sums if acc[r]] for r in range(D)]
            for d in range(D):
                if any(sum(c * row_y[d - r] for c, row_y in at_r[r]) for r in range(d + 1)):
                    return d
            D *= 2

    def in_sigma_power(self, d: int) -> bool:
        """Membership f in Sigma^d: the coordinates of degree < d all vanish."""
        if d <= 0:
            return True
        if self.has_t:
            raise ValueError("in_sigma_power is defined on t-free polynomials")
        return not any(self.to_truncated(d))

    def _sums_in_a(self, D: int) -> dict[int, list[int]]:
        """{j: coordinates in Z[a]/(a^D) of the sum of c x^i over the terms c x^i y^j}.

        Terms are taken in order of i, so each row of x^i is computed once
        and only one row is held at a time: a term costs O(D).
        """
        in_a: dict[int, list[int]] = {}
        row_i, last = (), None
        for m in sorted(self.terms):
            i, j, _ = m
            if i != last:
                row_i, last = xpow_coeffs(i, D), i
            c = self.terms[m]
            acc = in_a.setdefault(j, [0] * D)
            for r, cr in enumerate(row_i):
                acc[r] += c * cr
        return in_a

    def to_truncated(self, D: int) -> tuple[int, ...]:
        """Coordinates of the image in R/Sigma^D under x -> 1-a, y -> 1-b
        (geometric series for inverses), on the a^r b^s basis of the module
        docstring.  Exact below degree D: a larger D agrees there.
        """
        if self.has_t:
            raise ValueError("to_truncated is defined on t-free polynomials")
        coeffs = [0] * tri_dim(D)
        for j, acc in self._sums_in_a(D).items():
            row_y = xpow_coeffs(j, D)
            for r, cr in enumerate(acc):
                if cr:
                    pos = tri_dim(r) + r  # a^r b^s sits at tri_dim(r+s) + r
                    for s in range(D - r):
                        coeffs[pos] += cr * row_y[s]
                        pos += r + s + 1
        return tuple(coeffs)

    def render(self) -> str:
        """Canonical text: terms sorted, c*x^i*y^j*t^k with unit coefficients,
        zero exponents and ^1 elided; "0" when empty."""
        out = []
        for m in sorted(self.terms):
            c = self.terms[m]
            factors = [name if e == 1 else f"{name}^{e}" for name, e in zip("xyt", m) if e]
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            if out:
                out.append((" - " if c < 0 else " + ") + body)
            else:
                out.append(("-" if c < 0 else "") + body)
        return "".join(out) or "0"

    __str__ = render

    def __repr__(self):
        return f"LaurentPoly({self.render()})"


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.const(1)
X = LaurentPoly.var_x()
Y = LaurentPoly.var_y()
T = LaurentPoly.var_t()


class ExactDivisionError(ValueError):
    pass


def divide_one_minus(f: LaurentPoly, axis: int) -> LaurentPoly:
    """Exact division by 1-x (axis 0), 1-y (axis 1), or 1-t (axis 2).

    Negative exponents on the axis are cleared by a unit first, so divisibility
    is unit-invariant; per residual exponent pair the quotient is a prefix sum,
    and the full sum must vanish or the division is not exact.
    """
    if f.is_zero():
        return f
    shift = min(m[axis] for m in f.terms)
    rest_axes = tuple(ax for ax in range(3) if ax != axis)
    slices: dict[tuple[int, int], dict[int, int]] = {}
    for m, c in f.terms.items():
        rest = (m[rest_axes[0]], m[rest_axes[1]])
        slices.setdefault(rest, {})[m[axis] - shift] = c
    out: dict[tuple[int, int, int], int] = {}
    for rest, row in slices.items():
        top = max(row)
        acc = 0
        for e in range(top + 1):
            acc += row.get(e, 0)
            if e == top:
                if acc != 0:
                    raise ExactDivisionError("not divisible")
                break
            if acc:
                m = [0, 0, 0]
                m[axis] = e + shift
                m[rest_axes[0]], m[rest_axes[1]] = rest
                out[tuple(m)] = acc
    res = LaurentPoly()
    res.terms = out
    return res


def divide_by_t_minus_one(f: LaurentPoly) -> LaurentPoly:
    """Exact division by t-1 = -(1-t); raises ExactDivisionError unless f(t=1) = 0."""
    return -divide_one_minus(f, 2)


def xpow_coeffs(n: int, D: int) -> tuple[int, ...]:
    """Coefficients of the image of x^n in Z[a]/(a^D), a = 1-x.

    (1-a)^n has (-1)^r C(n,r) = C(r-n-1, r) at a^r for every integer n; for
    n < 0 this is the geometric series power, exact because
    (1-a) * sum a^r = 1 mod a^D.  Each entry is the last times (r-n-1)/r,
    an exact division, so a row costs D steps whatever the size of n.
    """
    row = [1]
    for r in range(1, D):
        row.append(row[-1] * (r - n - 1) // r)
    return tuple(row[:D])


@lru_cache(maxsize=None)
def tri_dim(D: int) -> int:
    return D * (D + 1) // 2


@lru_cache(maxsize=None)
def _index_table(D: int) -> dict[tuple[int, int], int]:
    """(r,s) -> graded-lex position: degree ascending, r ascending within a degree."""
    table = {}
    for d in range(D):
        for r in range(d + 1):
            table[(r, d - r)] = len(table)
    return table


@lru_cache(maxsize=None)
def monomial_list(D: int) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(_index_table(D), key=_index_table(D).get))


class UnitMonomial:
    """A signed unit monomial +-x^i y^j t^k; group elements always have sign +1."""

    __slots__ = ("sign", "i", "j", "k")

    def __init__(self, sign: int, i: int, j: int, k: int = 0):
        if sign not in (1, -1):
            raise ValueError("sign must be +-1")
        self.sign, self.i, self.j, self.k = sign, i, j, k

    @staticmethod
    def from_poly(f: LaurentPoly) -> "UnitMonomial":
        if len(f.terms) != 1:
            raise ValueError(f"not a unit monomial: {f.render()}")
        ((i, j, k), c), = f.terms.items()
        if c not in (1, -1):
            raise ValueError(f"not a unit monomial: {f.render()}")
        return UnitMonomial(c, i, j, k)

    @property
    def is_positive(self) -> bool:
        return self.sign == 1

    def as_poly(self) -> LaurentPoly:
        return LaurentPoly.monomial(self.sign, self.i, self.j, self.k)

    def inverse(self) -> "UnitMonomial":
        return UnitMonomial(self.sign, -self.i, -self.j, -self.k)

    def __mul__(self, other: "UnitMonomial") -> "UnitMonomial":
        return UnitMonomial(self.sign * other.sign, self.i + other.i,
                            self.j + other.j, self.k + other.k)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UnitMonomial):
            return NotImplemented
        return (self.sign, self.i, self.j, self.k) == (other.sign, other.i, other.j, other.k)

    def __hash__(self):
        return hash((self.sign, self.i, self.j, self.k))

    def __repr__(self):
        return f"UnitMonomial({self.as_poly().render()})"


class PolyParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


class _Parser:
    """Recursive descent for the CLI syntax: + - * ^ ( ), vars x y t, int exponents."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> LaurentPoly:
        out = self._expr()
        self._skip()
        if self.pos != len(self.text):
            raise PolyParseError(f"unexpected {self.text[self.pos]!r}", self.pos)
        return out

    def _expr(self) -> LaurentPoly:
        ch = self._peek()
        neg = False
        if ch in ("+", "-"):
            self.pos += 1
            neg = ch == "-"
        out = self._term()
        if neg:
            out = -out
        while self._peek() in ("+", "-"):
            op = self._peek()
            self.pos += 1
            rhs = self._term()
            out = out - rhs if op == "-" else out + rhs
        return out

    def _term(self) -> LaurentPoly:
        out = self._factor()
        while True:
            ch = self._peek()
            if ch == "*":
                self.pos += 1
                out = out * self._factor()
            elif ch and (ch.isdigit() or ch in "xyt("):
                out = out * self._factor()
            else:
                return out

    def _factor(self) -> LaurentPoly:
        base = self._atom()
        if self._peek() == "^":
            self.pos += 1
            n = self._int()
            if n >= 0:
                return base ** n
            try:
                u = UnitMonomial.from_poly(base)
            except ValueError:
                raise PolyParseError("negative exponent needs a monomial base", self.pos) from None
            return LaurentPoly.monomial(u.sign if n % 2 else 1, u.i * n, u.j * n, u.k * n)
        return base

    def _atom(self) -> LaurentPoly:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            out = self._expr()
            if self._peek() != ")":
                raise PolyParseError("expected )", self.pos)
            self.pos += 1
            return out
        if ch == "x":
            self.pos += 1
            return X
        if ch == "y":
            self.pos += 1
            return Y
        if ch == "t":
            self.pos += 1
            return T
        if ch == "-":
            self.pos += 1
            return -self._factor()
        if ch.isdigit():
            return LaurentPoly.const(self._int())
        raise PolyParseError(f"unexpected {ch!r}" if ch else "unexpected end of input", self.pos)

    def _int(self) -> int:
        self._skip()
        start = self.pos
        if self._peek() == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise PolyParseError("expected integer", start)
        return int(self.text[start:self.pos])


def parse_poly(text: str) -> LaurentPoly:
    """Parse the documented polynomial syntax; raises PolyParseError with a position."""
    return _Parser(text).parse()
