"""Exact arithmetic in small cyclotomic integer rings Z[zeta_n].

Elements are residues modulo the n-th cyclotomic polynomial, with a
canonical coordinate vector of length phi(n) = deg Phi_n.  Orders are
arbitrary small integers.  No engine module imports this one: a product of
twisted copies is an integer norm (``qseries.twisted_norm``), so every
operator computes over Z.  The tests' brute-force oracles compute in
Z[zeta_n] with it, multiplying and adding ``Series`` with these values as
coefficients, which ``Series.mul`` and ``+`` allow since they use only ring
operations.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple:
    """Coefficient tuple (low to high) of Phi_n, by exact division of
    x^n - 1 by the product of Phi_d over proper divisors d of n."""
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _polydiv_exact(num, list(cyclotomic_poly(d)))
    return tuple(num)


def _polydiv_exact(a: list, b: list) -> list:
    out = [0] * (len(a) - len(b) + 1)
    a = list(a)
    for i in range(len(out) - 1, -1, -1):
        c = a[i + len(b) - 1]
        if c % b[-1]:
            raise ArithmeticError("non-exact polynomial division")
        q = c // b[-1]
        out[i] = q
        if q:
            for j, bj in enumerate(b):
                a[i + j] -= q * bj
    if any(a):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple:
    """x^k mod Phi_n for k = 0 .. 2(deg-1), as coefficient tuples."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    rows = []
    cur = [0] * deg
    if deg:
        cur[0] = 1
    for _k in range(2 * deg - 1):
        rows.append(tuple(cur))
        nxt = [0] + cur[:-1] if deg > 1 else [0]
        spill = cur[-1]
        if deg == 1:
            nxt = [0]
            spill = cur[0]
        if spill:
            for j in range(deg):
                nxt[j] -= spill * phi[j]
        cur = nxt
    rows.append(tuple(cur))
    return tuple(rows)


class Cyc:
    """An element of Z[zeta_n], reduced modulo Phi_n.

    ``res`` holds the coordinates of 1, zeta, ..., zeta^(deg-1).  Values
    that reduce to rational integers collapse to plain int in arithmetic.
    """

    __slots__ = ("order", "res")

    def __init__(self, order: int, res):
        self.order = order
        self.res = tuple(res)
        deg = len(cyclotomic_poly(order)) - 1
        if len(self.res) != deg:
            raise ValueError(f"need {deg} coordinates for order {order}")

    @classmethod
    def root(cls, order: int, exponent: int = 1):
        """zeta_n^exponent, as int when rational."""
        exponent %= order
        deg = len(cyclotomic_poly(order)) - 1
        if exponent < deg:
            v = [0] * deg
            v[exponent] = 1
            return _normalize(cls(order, v))
        # zeta^e = x^e mod Phi_n; build by repeated table lookups
        table = _power_table(order)
        cur = [0] * deg
        cur[0] = 1
        for _ in range(exponent):
            cur = _mul_by_x(cur, table, deg)
        return _normalize(cls(order, cur))

    @classmethod
    def of_int(cls, order: int, n: int) -> "Cyc":
        deg = len(cyclotomic_poly(order)) - 1
        v = [0] * deg
        v[0] = n
        return cls(order, v)

    def _coerce(self, other):
        if isinstance(other, Cyc):
            if other.order != self.order:
                raise ValueError(f"mixed cyclotomic orders {self.order} and {other.order}")
            return other
        if isinstance(other, int):
            return Cyc.of_int(self.order, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _normalize(Cyc(self.order, tuple(x + y for x, y in zip(self.res, o.res))))

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.order, tuple(-x for x in self.res))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _normalize(Cyc(self.order, tuple(x - y for x, y in zip(self.res, o.res))))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return 0
            return _normalize(Cyc(self.order, tuple(x * other for x in self.res)))
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        deg = len(self.res)
        prod = [0] * (2 * deg - 1)
        for i, a in enumerate(self.res):
            if a:
                for j, b in enumerate(o.res):
                    if b:
                        prod[i + j] += a * b
        table = _power_table(self.order)
        out = [0] * deg
        for k, c in enumerate(prod):
            if c:
                row = table[k]
                for j in range(deg):
                    if row[j]:
                        out[j] += c * row[j]
        return _normalize(Cyc(self.order, out))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            return self.res[0] == other and all(x == 0 for x in self.res[1:])
        if isinstance(other, Cyc):
            return self.order == other.order and self.res == other.res
        return NotImplemented

    def __hash__(self):
        return hash((self.order, self.res))

    def __bool__(self):
        return any(self.res)

    def __repr__(self):
        return f"Cyc({self.order}, {list(self.res)})"

    def is_rational(self) -> bool:
        return all(x == 0 for x in self.res[1:])

    def rational(self) -> int:
        if not self.is_rational():
            raise ValueError(f"not a rational integer: {self!r}")
        return self.res[0]


def _mul_by_x(cur, table, deg):
    out = [0] * deg
    for k, c in enumerate(cur):
        if c:
            row = table[k + 1]
            for j in range(deg):
                if row[j]:
                    out[j] += c * row[j]
    return out


def _normalize(x: Cyc):
    if x.is_rational():
        return x.res[0]
    return x


def as_rational_int(x) -> int:
    """Coerce a coefficient (int or Cyc) to int, failing on irrational values."""
    if isinstance(x, int):
        return x
    return x.rational()
