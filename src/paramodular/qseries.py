"""Sparse truncated Laurent series with exact integer coefficients.

A :class:`Series` holds finitely many terms of a formal expansion in one,
two or three variables (conventionally q, r, s).  Exponents are rational
with a fixed denominator per variable, so a term is keyed by its tuple of
integer numerators.  Coefficients are arbitrary-precision ints, or
:class:`~paramodular.cyclotomic.Cyc` values while root-of-unity phases are
in play.

Truncation is a contract, not a storage limit: ``trunc[v]`` is the largest
numerator of the bounded variable ``v`` up to which the stored terms are
guaranteed to be *all* terms of the underlying object (``None`` = complete
everywhere).  ``floor[v]`` is a global lower bound for the numerators of
every term of the underlying object, supplied at construction and
propagated through the arithmetic; it is what makes the recomputed
truncation bounds of products and quotients sound.  The middle variable r
is never truncated (its support is finite on every (q, s) slice of the
objects we build), so its trunc entry is always ``None``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .cyclotomic import Cyc, as_rational_int


class ExactDivisionError(ArithmeticError):
    """Division left a nonzero remainder: the inputs were not an exact quotient."""


class InsufficientBoxError(ValueError):
    """The input expansion is not deep enough for the requested output box."""


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


def bounded_vars(nvars: int) -> tuple[int, ...]:
    return (0,) if nvars <= 2 else (0, 2)


def _min_none(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def exponent_map(matrix, src_denoms, dst_denoms):
    """Integer kernel of the exponent substitution e -> M e.

    Keys are exponent numerators over ``src_denoms``; images are numerators
    over ``dst_denoms``.  The rational entries M[v][j] * dst[v] / src[j] are
    reduced once to integer rows over one common denominator D, so every
    image numerator is an integer dot product, on the lattice exactly when
    D divides it.  Returns ``image(key)``: the image key, or None when the
    image leaves the lattice.
    """
    nv = len(src_denoms)
    rows = [[Fraction(matrix[v][j]) * dst_denoms[v] / src_denoms[j]
             for j in range(nv)] for v in range(nv)]
    D = 1
    for row in rows:
        for x in row:
            D = _lcm(D, x.denominator)
    A = [tuple(int(x * D) for x in row) for row in rows]

    if nv == 3:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = A

        def image(k):
            k0, k1, k2 = k
            x = a0 * k0 + a1 * k1 + a2 * k2
            y = b0 * k0 + b1 * k1 + b2 * k2
            z = c0 * k0 + c1 * k1 + c2 * k2
            if D == 1:
                return (x, y, z)
            if x % D or y % D or z % D:
                return None
            return (x // D, y // D, z // D)
        return image

    def image(k):
        img = tuple(sum(a * x for a, x in zip(row, k)) for row in A)
        if D == 1:
            return img
        if any(x % D for x in img):
            return None
        return tuple(x // D for x in img)
    return image


class Series:
    __slots__ = ("nvars", "denoms", "coeffs", "trunc", "floor")

    def __init__(self, nvars, denoms, coeffs, trunc, floor):
        self.nvars = nvars
        self.denoms = tuple(denoms)
        self.coeffs = coeffs
        self.trunc = tuple(trunc)
        self.floor = tuple(floor)
        if len(self.denoms) != nvars or len(self.trunc) != nvars or len(self.floor) != nvars:
            raise ValueError("field lengths do not match nvars")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_terms(cls, nvars, denoms, terms, trunc, floor=None):
        """Build from an iterable of (key, coeff); caller guarantees that
        every term of the object inside the trunc box is present and that
        ``floor`` (default: the stored minimum) bounds all exponents."""
        coeffs = {}
        for key, c in terms:
            if not c:
                continue
            key = tuple(key)
            coeffs[key] = coeffs.get(key, 0) + c
        coeffs = {k: v for k, v in coeffs.items() if v}
        if floor is None:
            if not coeffs:
                floor = (0,) * nvars
            else:
                floor = tuple(min(k[i] for k in coeffs) for i in range(nvars))
        s = cls(nvars, denoms, coeffs, trunc, floor)
        s._drop_overflow()
        return s

    @classmethod
    def zero(cls, nvars, denoms, trunc=None, floor=None):
        if trunc is None:
            trunc = (None,) * nvars
        if floor is None:
            floor = (0,) * nvars
        return cls(nvars, denoms, {}, trunc, floor)

    @classmethod
    def monomial(cls, nvars, denoms, key, coeff=1):
        key = tuple(key)
        return cls(nvars, denoms, ({key: coeff} if coeff else {}),
                   (None,) * nvars, key)

    @classmethod
    def one(cls, nvars, denoms):
        return cls.monomial(nvars, denoms, (0,) * nvars, 1)

    # ------------------------------------------------------------------
    # bookkeeping helpers

    def _drop_overflow(self):
        bv = bounded_vars(self.nvars)
        drop = [k for k in self.coeffs
                if any(self.trunc[v] is not None and k[v] > self.trunc[v] for v in bv)]
        for k in drop:
            del self.coeffs[k]

    def rescaled(self, denoms) -> "Series":
        """Same object over coarser exponent denominators (must be multiples)."""
        denoms = tuple(denoms)
        if denoms == self.denoms:
            return self
        mult = []
        for d_old, d_new in zip(self.denoms, denoms):
            if d_new % d_old:
                raise ValueError("new denominators must be multiples of old ones")
            mult.append(d_new // d_old)
        sc = lambda t: tuple(a * m if a is not None else None for a, m in zip(t, mult))
        coeffs = {tuple(a * m for a, m in zip(k, mult)): c for k, c in self.coeffs.items()}
        return Series(self.nvars, denoms, coeffs, sc(self.trunc),
                      tuple(a * m for a, m in zip(self.floor, mult)))

    def coarsened(self, denoms) -> "Series":
        """Inverse of :meth:`rescaled`: move to coarser denominators, checking
        that every stored exponent is representable."""
        denoms = tuple(denoms)
        if denoms == self.denoms:
            return self
        div = []
        for d_old, d_new in zip(self.denoms, denoms):
            if d_old % d_new:
                raise ValueError("old denominators must be multiples of new ones")
            div.append(d_old // d_new)
        coeffs = {}
        for k, c in self.coeffs.items():
            if any(a % m for a, m in zip(k, div)):
                raise ValueError(f"exponent key {k} not representable over {denoms}")
            coeffs[tuple(a // m for a, m in zip(k, div))] = c
        sc = lambda t: tuple(a // m if a is not None else None for a, m in zip(t, div))
        return Series(self.nvars, denoms, coeffs, sc(self.trunc),
                      tuple(a // m for a, m in zip(self.floor, div)))

    def terms(self):
        return self.coeffs.items()

    def __bool__(self):
        return bool(self.coeffs)

    def __len__(self):
        return len(self.coeffs)

    def get(self, key):
        return self.coeffs.get(tuple(key), 0)

    def coeff_at(self, *exponents) -> int:
        """Coefficient at exact rational exponents (Fractions or ints)."""
        key = []
        for e, d in zip(exponents, self.denoms):
            f = Fraction(e) * d
            if f.denominator != 1:
                return 0
            key.append(f.numerator)
        return self.coeffs.get(tuple(key), 0)

    def exponents(self, key):
        return tuple(Fraction(n, d) for n, d in zip(key, self.denoms))

    def min_key(self):
        """Lexicographically least key by (grade, key); None if no terms."""
        if not self.coeffs:
            return None
        return min(self.coeffs, key=self._order)

    def _order(self, key):
        if self.nvars == 3:
            g = key[0] * (self.denoms[2]) + key[2] * (self.denoms[0])
        else:
            g = key[0]
        return (g,) + key

    def is_rational(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs.values())

    def rationalized(self) -> "Series":
        """Collapse Cyc coefficients to ints; error on irrational residue."""
        if self.is_rational():
            return self
        coeffs = {k: as_rational_int(c) for k, c in self.coeffs.items()}
        coeffs = {k: c for k, c in coeffs.items() if c}
        return Series(self.nvars, self.denoms, coeffs, self.trunc, self.floor)

    # ------------------------------------------------------------------
    # linear structure

    def _aligned(self, other: "Series"):
        if self.nvars != other.nvars:
            raise ValueError("incompatible numbers of variables")
        denoms = tuple(_lcm(a, b) for a, b in zip(self.denoms, other.denoms))
        return self.rescaled(denoms), other.rescaled(denoms)

    def __neg__(self):
        return Series(self.nvars, self.denoms, {k: -c for k, c in self.coeffs.items()},
                      self.trunc, self.floor)

    def __add__(self, other):
        if isinstance(other, int):
            other = Series.monomial(self.nvars, self.denoms, (0,) * self.nvars, other)
        a, b = self._aligned(other)
        trunc = tuple(_min_none(x, y) for x, y in zip(a.trunc, b.trunc))
        floor = tuple(min(x, y) for x, y in zip(a.floor, b.floor))
        coeffs = dict(a.coeffs)
        for k, c in b.coeffs.items():
            v = coeffs.get(k, 0) + c
            if v:
                coeffs[k] = v
            elif k in coeffs:
                del coeffs[k]
        s = Series(a.nvars, a.denoms, coeffs, trunc, floor)
        s._drop_overflow()
        return s

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Series) else -other)

    def scale(self, c) -> "Series":
        if not c:
            return Series(self.nvars, self.denoms, {}, self.trunc, self.floor)
        coeffs = {}
        for k, v in self.coeffs.items():
            w = v * c
            if w:
                coeffs[k] = w
        return Series(self.nvars, self.denoms, coeffs, self.trunc, self.floor)

    def scale_exact_div(self, c: int) -> "Series":
        coeffs = {}
        for k, v in self.coeffs.items():
            q, r = divmod(as_rational_int(v), c)
            if r:
                raise ExactDivisionError(f"coefficient {v} at {k} not divisible by {c}")
            if q:
                coeffs[k] = q
        return Series(self.nvars, self.denoms, coeffs, self.trunc, self.floor)

    def shift(self, key, coeff=1) -> "Series":
        """Multiply by a single monomial coeff * x^key (key in numerator units)."""
        key = tuple(key)
        coeffs = {}
        for k, c in self.coeffs.items():
            v = c * coeff
            if v:
                coeffs[tuple(a + b for a, b in zip(k, key))] = v
        trunc = tuple(t + d if t is not None else None for t, d in zip(self.trunc, key))
        floor = tuple(f + d for f, d in zip(self.floor, key))
        return Series(self.nvars, self.denoms, coeffs, trunc, floor)

    # ------------------------------------------------------------------
    # multiplication

    def _slices(self):
        """Group coefficients by the bounded-variable part of the key."""
        nv = self.nvars
        out = {}
        if nv == 1:
            for k, c in self.coeffs.items():
                out.setdefault((k[0],), {})[0] = c
        elif nv == 2:
            for k, c in self.coeffs.items():
                out.setdefault((k[0],), {})[k[1]] = c
        else:
            for k, c in self.coeffs.items():
                out.setdefault((k[0], k[2]), {})[k[1]] = c
        return out

    def mul(self, other: "Series", cap=None) -> "Series":
        """Exact truncated product.  ``cap`` optionally intersects the result
        box (numerator units per bounded variable) to keep intermediates of
        long factor chains small."""
        a, b = self._aligned(other)
        bv = bounded_vars(a.nvars)
        trunc = list(_min_none(x, y) for x, y in zip(a.trunc, b.trunc))
        for v in bv:
            cands = []
            if a.trunc[v] is not None:
                cands.append(a.trunc[v] + b.floor[v])
            if b.trunc[v] is not None:
                cands.append(b.trunc[v] + a.floor[v])
            trunc[v] = min(cands) if cands else None
        if cap is not None:
            for v, c in zip(bv, cap):
                if c is not None:
                    trunc[v] = _min_none(trunc[v], c)
        floor = tuple(x + y for x, y in zip(a.floor, b.floor))
        if not a.coeffs or not b.coeffs:
            return Series(a.nvars, a.denoms, {}, trunc, floor)

        sa, sb = a._slices(), b._slices()
        if len(sb) < len(sa):
            sa, sb = sb, sa
        bounds = [trunc[v] for v in bv]
        nv = a.nvars
        out_slices: dict = {}
        sa_items = sorted((k, sorted(p.items())) for k, p in sa.items())
        sb_items = sorted((k, sorted(p.items())) for k, p in sb.items())
        if nv == 3:
            bq, bs = bounds
            for ka, pa in sa_items:
                ka0, ka1 = ka
                for kb, pb in sb_items:
                    ks0 = ka0 + kb[0]
                    if bq is not None and ks0 > bq:
                        continue
                    ks1 = ka1 + kb[1]
                    if bs is not None and ks1 > bs:
                        continue
                    os = out_slices.get((ks0, ks1))
                    if os is None:
                        os = out_slices[(ks0, ks1)] = {}
                    get = os.get
                    if len(pa) > len(pb):
                        pa2, pb2 = pb, pa
                    else:
                        pa2, pb2 = pa, pb
                    for l1, c1 in pa2:
                        for l2, c2 in pb2:
                            ll = l1 + l2
                            v = get(ll, 0) + c1 * c2
                            if v:
                                os[ll] = v
                            elif ll in os:
                                del os[ll]
            coeffs = {}
            for (q, s), os in out_slices.items():
                for l, c in os.items():
                    if c:
                        coeffs[(q, l, s)] = c
        else:
            bq = bounds[0]
            for ka, pa in sa_items:
                ka0 = ka[0]
                for kb, pb in sb_items:
                    ks0 = ka0 + kb[0]
                    if bq is not None and ks0 > bq:
                        continue
                    os = out_slices.get(ks0)
                    if os is None:
                        os = out_slices[ks0] = {}
                    get = os.get
                    if len(pa) > len(pb):
                        pa2, pb2 = pb, pa
                    else:
                        pa2, pb2 = pa, pb
                    for l1, c1 in pa2:
                        for l2, c2 in pb2:
                            ll = l1 + l2
                            v = get(ll, 0) + c1 * c2
                            if v:
                                os[ll] = v
                            elif ll in os:
                                del os[ll]
            coeffs = {}
            if nv == 1:
                for q, os in out_slices.items():
                    c = os.get(0, 0)
                    if c:
                        coeffs[(q,)] = c
            else:
                for q, os in out_slices.items():
                    for l, c in os.items():
                        if c:
                            coeffs[(q, l)] = c
        return Series(a.nvars, a.denoms, coeffs, tuple(trunc), floor)

    def __mul__(self, other):
        if isinstance(other, (int, Cyc)):
            return self.scale(other)
        return self.mul(other)

    def __rmul__(self, other):
        if isinstance(other, (int, Cyc)):
            return self.scale(other)
        return NotImplemented

    # ------------------------------------------------------------------
    # exact division

    def _grade(self, key) -> int:
        if self.nvars == 3:
            return key[0] * self.denoms[2] + key[2] * self.denoms[0]
        return key[0]

    def div(self, other: "Series") -> "Series":
        """Exact quotient self/other; raises ExactDivisionError otherwise.

        Works grade by grade (q-numerator for 1-2 variables, combined q+s
        grade for 3), dividing each accumulated remainder slice by the
        lowest-grade slice of the divisor.  The divisor's graded-least key
        must be its per-variable corner (automatic with one or two
        variables; for three variables the lowest slice must be a single
        monomial sitting at (min q, min s)); this is what makes the
        rectangular truncation bound of the quotient sound.  The result is
        verified by multiplying back on its box.
        """
        a, b = self._aligned(other)
        if not b.coeffs:
            raise ExactDivisionError("division by the zero series")
        bv = bounded_vars(a.nvars)

        g0 = min(b._grade(k) for k in b.coeffs)
        b0 = {k: c for k, c in b.coeffs.items() if b._grade(k) == g0}
        brest = {k: c for k, c in b.coeffs.items() if b._grade(k) > g0}
        lead = min(b0, key=b._order)
        b_min = tuple(min(k[v] for k in b.coeffs) for v in range(a.nvars))
        for v in bv:
            if lead[v] != b_min[v]:
                raise ExactDivisionError(
                    "divisor's lowest-grade slice is not anchored at its exponent "
                    "corner; this quotient shape is unsupported")
        if a.nvars == 3 and any(k[0] != lead[0] or k[2] != lead[2] for k in b0):
            raise ExactDivisionError(
                "three-variable division needs the divisor's leading slice on a "
                "single (q, s) pair")

        floor = tuple(fa - bm for fa, bm in zip(a.floor, b_min))
        # emission at key k consumes a at k+lead and divisor keys up to
        # (k+lead) - floor_c, bounding both reads inside the known boxes
        trunc = []
        for v in range(a.nvars):
            if v not in bv:
                trunc.append(None)
                continue
            cands = []
            if a.trunc[v] is not None:
                cands.append(a.trunc[v] - lead[v])
            if b.trunc[v] is not None:
                cands.append(b.trunc[v] - lead[v] + floor[v])
            if not cands:
                trunc.append(None)
            else:
                trunc.append(min(cands))
        if all(trunc[v] is None for v in bv):
            raise ExactDivisionError("cannot divide: no finite truncation on either operand")

        # largest quotient grade that certified emissions can reach
        def _qcap(v):
            if trunc[v] is not None:
                return trunc[v]
            top = max((k[v] for k in a.coeffs), default=floor[v])
            return max(top, floor[v])

        if a.nvars == 3:
            d0, d2 = a.denoms[0], a.denoms[2]
            quot_grade_cap = _qcap(0) * d2 + _qcap(2) * d0
        else:
            quot_grade_cap = _qcap(0)
        read_bound = quot_grade_cap + g0

        rem = {}
        for k, c in a.coeffs.items():
            rem.setdefault(a._grade(k), {})[k] = c
        out = {}
        in_box = lambda k: all(trunc[v] is None or k[v] <= trunc[v] for v in bv)
        gi = min(rem) if rem else read_bound + 1
        while gi <= read_bound:
            rg = rem.pop(gi, None)
            gi += 1
            if not rg:
                continue
            if a.nvars <= 2:
                qg = _divide_poly_slice(rg, b0, a.nvars)
                emit = qg.items()
            else:
                emit = _divide_rslice_3var(rg, b0, lead, in_box)
            for k, c in emit:
                if not in_box(k):
                    continue
                out[k] = c
                for kb, cb in brest.items():
                    kk = tuple(x + y for x, y in zip(k, kb))
                    gg = a._grade(kk)
                    if gg > read_bound:
                        continue
                    sl = rem.setdefault(gg, {})
                    v = sl.get(kk, 0) - c * cb
                    if v:
                        sl[kk] = v
                    elif kk in sl:
                        del sl[kk]

        q = Series(a.nvars, a.denoms, out, tuple(trunc), floor)
        q._drop_overflow()
        # tripwire: verify q*b == a on the certified box
        check = q.mul(b)
        bad = check.first_mismatch(a)
        if bad is not None:
            raise ExactDivisionError(f"nonzero remainder: quotient verification "
                                     f"failed at exponent key {bad}")
        return q

    def __truediv__(self, other):
        if isinstance(other, int):
            return self.scale_exact_div(other)
        return self.div(other)

    def pow(self, e: int) -> "Series":
        if e == 0:
            return Series.one(self.nvars, self.denoms)
        if e < 0:
            return Series.one(self.nvars, self.denoms).div(self.pow(-e))
        base, acc = self, None
        n = e
        while n:
            if n & 1:
                acc = base if acc is None else acc.mul(base)
            n >>= 1
            if n:
                base = base.mul(base)
        return acc

    def __pow__(self, e: int):
        return self.pow(e)

    # ------------------------------------------------------------------
    # exponent substitution

    def substitute_linear(self, matrix, phase=None, denoms=None,
                          new_trunc=None, new_floor=None) -> "Series":
        """Map each monomial c*x^e to c*phase(key)*x^(M e).

        ``matrix`` is an nvars x nvars array of rationals acting on actual
        exponent vectors; the image keys are numerators over ``denoms``
        (default: the source denominators).  The map runs on the integer
        kernel of :func:`exponent_map`, so no Fraction is built per term;
        an image off the lattice raises ValueError.  ``phase``, if given,
        receives the source key and returns an int or a
        :class:`~paramodular.cyclotomic.Cyc`, all of a single order.

        When the matrix does not move r-content into the bounded variables
        and has nonnegative bounded-variable block, the result box is
        derived automatically; otherwise the caller must supply
        ``new_trunc``/``new_floor`` (as justified by the support structure
        of the object being mapped).
        """
        nv = self.nvars
        M = [[Fraction(x) for x in row] for row in matrix]
        denoms = tuple(denoms) if denoms is not None else self.denoms
        bv = bounded_vars(nv)
        image = exponent_map(M, self.denoms, denoms)

        coeffs = {}
        for k, c in self.coeffs.items():
            key = image(k)
            if key is None:
                raise ValueError(f"image of exponent key {k} leaves the lattice "
                                 f"over denominators {denoms}")
            if phase is not None:
                c = c * phase(k)
                if not c:
                    continue
            v = coeffs.get(key, 0) + c
            if v:
                coeffs[key] = v
            elif key in coeffs:
                del coeffs[key]

        if new_trunc is None or new_floor is None:
            # boxes can be derived automatically only when each bounded
            # output exponent depends on exactly one bounded input exponent
            # with a nonnegative coefficient (scalings, axis swaps)
            source = {}
            for v in bv:
                nonzero = [j for j in range(nv) if M[v][j] != 0]
                if (len(nonzero) > 1 or (nonzero and nonzero[0] not in bv)
                        or (nonzero and M[v][nonzero[0]] < 0)):
                    raise ValueError(
                        "substitution mixes exponents; explicit new_trunc/new_floor "
                        "boxes (justified by the object's support) are required")
                source[v] = nonzero[0] if nonzero else None
            trunc = [None] * nv
            floor = [0] * nv
            for v in range(nv):
                if v in bv:
                    j = source[v]
                    if j is not None and self.trunc[j] is not None:
                        tv = M[v][j] * Fraction(self.trunc[j], self.denoms[j])
                        trunc[v] = (tv * denoms[v]).__floor__()
                    else:
                        trunc[v] = None
                    if j is not None:
                        fv = M[v][j] * Fraction(self.floor[j], self.denoms[j]) * denoms[v]
                        floor[v] = fv.numerator // fv.denominator
                else:
                    floor[v] = min((key[v] for key in coeffs), default=0)
            if new_trunc is None:
                new_trunc = tuple(trunc)
            if new_floor is None:
                new_floor = tuple(floor)

        s = Series(nv, denoms, coeffs, new_trunc, new_floor)
        s._drop_overflow()
        return s

    # ------------------------------------------------------------------
    # comparisons and export

    def restricted(self, box) -> "Series":
        """Restriction to a smaller box (numerator units per bounded var)."""
        bv = bounded_vars(self.nvars)
        trunc = list(self.trunc)
        for v, c in zip(bv, box):
            if c is not None:
                trunc[v] = _min_none(trunc[v], c)
        s = Series(self.nvars, self.denoms, dict(self.coeffs), tuple(trunc), self.floor)
        s._drop_overflow()
        return s

    def common_box(self, other: "Series"):
        a, b = self._aligned(other)
        return tuple(_min_none(x, y) for x, y in
                     ((a.trunc[v], b.trunc[v]) for v in bounded_vars(a.nvars)))

    def first_mismatch(self, other: "Series", box=None):
        """Lex-least key where the two series differ inside the shared box."""
        a, b = self._aligned(other)
        bv = bounded_vars(a.nvars)
        if box is None:
            box = a.common_box(b)
        bad = []
        for k in set(a.coeffs) | set(b.coeffs):
            if all(c is None or k[v] <= c for v, c in zip(bv, box)):
                if a.coeffs.get(k, 0) != b.coeffs.get(k, 0):
                    bad.append(k)
        return min(bad, key=a._order) if bad else None

    def leading(self):
        """(key, coeff) of the least term in graded-lex order."""
        k = self.min_key()
        return (k, self.coeffs[k]) if k is not None else None

    def sorted_terms(self):
        return sorted(self.coeffs.items())

    def to_json_dict(self) -> dict:
        terms = [list(k) + [str(as_rational_int(c))] for k, c in self.sorted_terms()]
        return {
            "denoms": list(self.denoms),
            "floor": list(self.floor),
            "trunc": [t if t is not None else None for t in self.trunc],
            "terms": terms,
        }

    @classmethod
    def from_json_dict(cls, d) -> "Series":
        denoms = tuple(d["denoms"])
        nv = len(denoms)
        coeffs = {}
        for row in d["terms"]:
            coeffs[tuple(row[:-1])] = int(row[-1])
        trunc = tuple(t if t is not None else None for t in d["trunc"])
        return cls(nv, denoms, coeffs, trunc, tuple(d["floor"]))

    def __repr__(self):
        head = ", ".join(f"{k}:{c}" for k, c in self.sorted_terms()[:6])
        more = "" if len(self.coeffs) <= 6 else f" ... ({len(self.coeffs)} terms)"
        return (f"Series(nvars={self.nvars}, denoms={self.denoms}, "
                f"trunc={self.trunc}, [{head}{more}])")


def _coeff_div(c, d):
    """Exact coefficient division, raising on a remainder."""
    if isinstance(c, int) and isinstance(d, int):
        q, r = divmod(c, d)
        if r:
            raise ExactDivisionError(f"coefficient {c} not divisible by {d}")
        return q
    if d == 1:
        return c
    if d == -1:
        return -c
    raise ExactDivisionError("cyclotomic coefficients divide only by unit leads")


def _divide_poly_slice(rg: dict, b0: dict, nvars: int) -> dict:
    """Exact division of a complete q-slice by the divisor's lowest q-slice.

    For one variable both slices are single scalars; for two they are
    Laurent polynomials in r, divided top-down so termination is
    unconditional and a nonzero remainder is always detected.
    """
    if nvars == 1:
        (ka, ca), = rg.items()
        (kb, cb), = b0.items()
        return {(ka[0] - kb[0],): _coeff_div(ca, cb)}
    ra = {k[1]: c for k, c in rg.items()}
    rb = {k[1]: c for k, c in b0.items()}
    qa = next(iter(rg))[0]
    qb = next(iter(b0))[0]
    top_b = max(rb)
    cb = rb[top_b]
    out = {}
    while ra:
        top_a = max(ra)
        l = top_a - top_b
        if min(ra) - min(rb) > l:
            raise ExactDivisionError("nonzero remainder in r-slice division")
        c = _coeff_div(ra[top_a], cb)
        out[(qa - qb, l)] = c
        for lb, vb in rb.items():
            ll = l + lb
            v = ra.get(ll, 0) - c * vb
            if v:
                ra[ll] = v
            elif ll in ra:
                del ra[ll]
    return out


def _divide_rslice_3var(rg: dict, b0: dict, lead, in_box):
    """Division of a (possibly incomplete) three-variable grade slice by a
    divisor slice supported on a single (q, s) pair.  The remainder slice is
    grouped by (q, s); groups whose quotient key leaves the certified box
    may rest on unknown data and are skipped without a divisibility check."""
    qb, sb = lead[0], lead[2]
    groups: dict = {}
    for k, c in rg.items():
        groups.setdefault((k[0], k[2]), {})[(0, k[1])] = c
    rb = {(0, k[1]): c for k, c in b0.items()}
    for (qg, sg), poly in sorted(groups.items()):
        probe = (qg - qb, 0, sg - sb)
        if not in_box(probe):
            continue
        qpoly = _divide_poly_slice(poly, rb, 2)
        for (_z, l), c in qpoly.items():
            yield (qg - qb, l, sg - sb), c
