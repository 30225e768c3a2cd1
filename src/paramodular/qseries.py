"""Sparse truncated Laurent series with exact integer coefficients.

A :class:`Series` holds finitely many terms of a formal expansion in one,
two or three variables (conventionally q, r, s).  Exponents are rational
with a fixed denominator per variable, so a term is keyed by its tuple of
integer numerators.  Coefficients are arbitrary-precision ints.  A product
of copies of one series twisted by p-th roots of unity is an integer norm of
its class components (:func:`twisted_norm`), so no operator computes in a
cyclotomic ring.  ``mul`` and ``+`` use only ring operations on the
coefficients, so they also run on the tests' cyclotomic oracle values;
``div``, exact scaling and JSON export are integer-only.

Truncation is a contract, not a storage limit: ``trunc[v]`` is the largest
numerator of the bounded variable ``v`` up to which the stored terms are
guaranteed to be *all* terms of the underlying object (``None`` = complete
everywhere).  ``floor[v]`` of a bounded variable is a global lower bound
for the numerators of every term of the underlying object, supplied at
construction and propagated through the arithmetic; it is what makes the
recomputed truncation bounds of products and quotients sound.  The middle
variable r is never truncated (its support is finite on every (q, s) slice
of the objects we build), so its trunc entry is always ``None``; its floor
bounds the stored terms only, and no truncation bound reads it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, inf
from operator import add


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
        for v in bounded_vars(self.nvars):
            t = self.trunc[v]
            if t is not None:
                for k in [k for k in self.coeffs if k[v] > t]:
                    del self.coeffs[k]

    def check(self) -> "Series":
        """Raise AssertionError unless every key has ``nvars`` entries, every
        coefficient is a nonzero int, the floor is <= every key in every
        variable, every key lies in the bounded trunc and r is untruncated;
        return self."""
        bv = bounded_vars(self.nvars)
        if self.nvars > 1 and self.trunc[1] is not None:
            raise AssertionError(f"r is truncated at {self.trunc[1]}")
        for k, c in self.coeffs.items():
            if len(k) != self.nvars or not isinstance(c, int) or not c:
                raise AssertionError(f"bad term {k}: {c}")
            if any(x < f for x, f in zip(k, self.floor)):
                raise AssertionError(f"key {k} below the floor {self.floor}")
            if any(self.trunc[v] is not None and k[v] > self.trunc[v] for v in bv):
                raise AssertionError(f"key {k} outside the trunc {self.trunc}")
        return self

    def terms(self):
        return self.coeffs.items()

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

    # ------------------------------------------------------------------
    # linear structure

    def _aligned(self, other: "Series"):
        """The pair, refused with ValueError unless both have the same
        variables over the same denominators."""
        if (self.nvars, self.denoms) != (other.nvars, other.denoms):
            raise ValueError(f"incompatible series: {self.nvars} variables over "
                             f"{self.denoms} and {other.nvars} over {other.denoms}")
        return self, other

    def __neg__(self):
        return Series(self.nvars, self.denoms, {k: -c for k, c in self.coeffs.items()},
                      self.trunc, self.floor)

    def __add__(self, other):
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

    def __sub__(self, other):
        return self + -other

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
            q, r = divmod(v, c)
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
        """Group coefficients by the bounded-variable part of the key: a
        (q, s) pair, with s = 0 below three variables, mapped to r -> c
        (r = 0 for one variable)."""
        out = {}
        if self.nvars == 3:
            for (q, l, s), c in self.coeffs.items():
                out.setdefault((q, s), {})[l] = c
        elif self.nvars == 2:
            for (q, l), c in self.coeffs.items():
                out.setdefault((q, 0), {})[l] = c
        else:
            for (q,), c in self.coeffs.items():
                out.setdefault((q, 0), {})[0] = c
        return out

    def mul(self, other: "Series", cap=None) -> "Series":
        """Exact truncated product.  ``cap`` optionally intersects the result
        box (numerator units per bounded variable) to keep intermediates of
        long factor chains small."""
        a, b = self._aligned(other)
        trunc, floor = _product_box(a.nvars, a.trunc, a.floor, b.trunc, b.floor, cap)
        if not a.coeffs or not b.coeffs:
            return Series(a.nvars, a.denoms, {}, trunc, floor)

        sa, sb = a._slices(), b._slices()
        if len(sb) < len(sa):
            sa, sb = sb, sa
        bq, bs = trunc[0], (trunc[2] if a.nvars == 3 else None)
        out_slices: dict = {}
        sa_items = sorted((k, sorted(p.items())) for k, p in sa.items())
        sb_items = sorted((k, sorted(p.items())) for k, p in sb.items())
        for (ka0, ka1), pa in sa_items:
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
                _mul_into(os, pa, pb)
        coeffs = _unslice(a.nvars, out_slices)
        return Series(a.nvars, a.denoms, coeffs, trunc, floor)

    def mul_factors(self, factors, cap=None) -> "Series":
        """The chain ``self.mul(f, cap=cap)`` over ``factors`` in turn, on one
        sliced accumulator (the ``(q, s) -> {r: c}`` groups of :meth:`_slices`).

        Every factor has constant term 1, its other terms have (q, s) >= (0, 0)
        lexicographically, and its denominators are self's.  A factor adds
        its shifted copies of the accumulator into the slices in place,
        source slices taken from the largest (q, s) down, so each is read
        before any copy lands on it.  Each step's trunc and floor are those
        of :meth:`mul`; copies past the trunc are skipped, and the slices
        past it are dropped after the step."""
        nv, zero = self.nvars, (0,) * self.nvars
        trunc, floor = self.trunc, self.floor
        slices = self._slices()
        for fac in factors:
            if fac.denoms != self.denoms or fac.coeffs.get(zero) != 1:
                raise ValueError("factors need the same denominators and constant term 1")
            fs = fac._slices()
            del fs[(0, 0)][0]
            shifts = sorted((k, list(p.items())) for k, p in fs.items() if p)
            if shifts and shifts[0][0] < (0, 0):
                raise ValueError("a factor term lies below (q, s) = (0, 0)")
            trunc, floor = _product_box(nv, trunc, floor, fac.trunc, fac.floor, cap)
            bq = inf if trunc[0] is None else trunc[0]
            bs = inf if nv < 3 or trunc[2] is None else trunc[2]
            # a source past (lq, ls) lands no copy inside the trunc
            lq, ls = ((bq - shifts[0][0][0], bs - min(k[1] for k, _ in shifts))
                      if shifts else (-inf, -inf))
            sources = sorted((k for k in slices if k[0] <= lq and k[1] <= ls), reverse=True)
            for q, s in sources:
                src = list(slices[(q, s)].items())
                for (dq, ds), pf in shifts:
                    kq, ks = q + dq, s + ds
                    if kq > bq:
                        break
                    if ks > bs:
                        continue
                    out = slices.get((kq, ks))
                    if out is None:
                        out = slices[(kq, ks)] = {}
                    _mul_into(out, src, pf)
                    if not out:
                        del slices[(kq, ks)]
            for k in [k for k in slices if k[0] > bq or k[1] > bs]:
                del slices[k]
        return Series(nv, self.denoms, _unslice(nv, slices), trunc, floor)

    # ------------------------------------------------------------------
    # exact division

    def div(self, other: "Series") -> "Series":
        """Exact quotient self/other; raises ExactDivisionError otherwise.

        Long division on whole slices (the ``(q, s) -> {r: c}`` groups of
        :meth:`_slices`), popped in grade order: the q-numerator for 1-2
        variables, the combined q+s grade for 3.  Each remainder slice is
        divided by the divisor's lead slice, and the quotient slice times
        every other divisor slice is subtracted from the remainder slice it
        lands on, with the r-pair loop of :meth:`mul`.  The divisor's
        graded-least key must be its per-variable corner (automatic with one
        or two variables); this is what makes the rectangular truncation
        bound of the quotient sound.  With three variables that check also
        puts the lowest grade on a single slice: the lead is that grade's
        slice of least q, so any other slice of the grade has larger q,
        hence smaller s, and then the lead's s is not the divisor's least.
        Quotient slices outside that box may rest on unknown data and are
        skipped without a divisibility check.  The result is verified by
        multiplying back on its box.

        In each bounded variable, with the divisor's lead L and the
        numerator's floor F, the quotient's trunc is the lesser of two
        bounds: the numerator's trunc - L and the divisor's trunc + F - 2L.
        :func:`div_operands` inverts them.
        """
        a, b = self._aligned(other)
        if not b.coeffs:
            raise ExactDivisionError("division by the zero series")
        nv = a.nvars
        bv = bounded_vars(nv)
        d0, d2 = a.denoms[0], a.denoms[-1]
        grade = (lambda q, s: q * d2 + s * d0) if nv == 3 else (lambda q, s: q)

        sb = b._slices()
        b_min = (min(k[0] for k in sb), min(min(p) for p in sb.values()),
                 min(k[1] for k in sb))[:nv]
        g0 = min(grade(*k) for k in sb)
        lq, ls = min(k for k in sb if grade(*k) == g0)
        rb = sb.pop((lq, ls))
        lead = (lq, min(rb), ls)[:nv]
        for v in bv:
            if lead[v] != b_min[v]:
                raise ExactDivisionError(
                    "divisor's lowest-grade slice is not anchored at its exponent "
                    "corner; this quotient shape is unsupported")

        floor = tuple(fa - bm for fa, bm in zip(a.floor, b_min))
        # emission at key k consumes a at k+lead and divisor keys up to
        # (k+lead) - floor_c, bounding both reads inside the known boxes
        trunc = []
        for v in range(nv):
            if v not in bv:
                trunc.append(None)
                continue
            cands = []
            if a.trunc[v] is not None:
                cands.append(a.trunc[v] - lead[v])
            if b.trunc[v] is not None:
                cands.append(b.trunc[v] - lead[v] + floor[v])
            trunc.append(min(cands) if cands else None)
        if all(trunc[v] is None for v in bv):
            raise ExactDivisionError("cannot divide: no finite truncation on either operand")

        # largest quotient grade that certified emissions can reach
        sa = a._slices()
        cap = [trunc[v] if trunc[v] is not None
               else max([floor[v]] + [k[i] for k in sa]) for i, v in enumerate(bv)]
        read_bound = grade(cap[0], cap[-1]) + g0

        rem: dict = {}
        for k, p in sa.items():
            rem.setdefault(grade(*k), {})[k] = p
        brest = sorted((grade(*k), k, sorted(p.items())) for k, p in sb.items())
        tq, ts = trunc[0], (trunc[2] if nv == 3 else None)
        out = {}
        for g in range(min(rem, default=read_bound + 1), read_bound + 1):
            for (q, s), ra in sorted(rem.pop(g, {}).items()):
                kq, ks = q - lq, s - ls
                if not ra or (tq is not None and kq > tq) or (ts is not None and ks > ts):
                    continue
                qs = out[(kq, ks)] = _divide_poly_slice(ra, rb)
                neg = [(l, -c) for l, c in qs.items()]
                for gb, (bq, bs), pb in brest:
                    gg = g - g0 + gb
                    if gg > read_bound:
                        break
                    sl = rem.setdefault(gg, {})
                    os = sl.get((kq + bq, ks + bs))
                    if os is None:
                        os = sl[(kq + bq, ks + bs)] = {}
                    _mul_into(os, neg, pb)

        q = Series(nv, a.denoms, _unslice(nv, out), tuple(trunc), floor)
        q._drop_overflow()
        if nv > 1:  # the numerator's r-floor less the divisor's is no bound on r
            q.floor = (floor[0], min((k[1] for k in q.coeffs), default=floor[1])) + floor[2:]
        # tripwire: verify q*b == a on the certified box
        check = q.mul(b)
        bad = check.first_mismatch(a)
        if bad is not None:
            raise ExactDivisionError(f"nonzero remainder: quotient verification "
                                     f"failed at exponent key {bad}")
        return q

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

    # ------------------------------------------------------------------
    # exponent substitution

    def substitute_linear(self, matrix, denoms=None,
                          new_trunc=None, new_floor=None) -> "Series":
        """Map each monomial c*x^e to c*x^(M e).

        ``matrix`` is an nvars x nvars array of rationals acting on actual
        exponent vectors; the image keys are numerators over ``denoms``
        (default: the source denominators).  The map runs on the integer
        kernel of :func:`exponent_map`, so no Fraction is built per term;
        an image off the lattice raises ValueError.

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

    def certified(self, box) -> "Series":
        """The restriction to the box, refused when certified short of it:
        the trunc is clamped to the box, never widened."""
        s = self.restricted(box)
        for v, b in zip(bounded_vars(s.nvars), box):
            if s.trunc[v] < b:
                raise InsufficientBoxError(
                    f"certified to numerator {s.trunc[v]} in variable {v}, "
                    f"short of the requested {b}")
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

    def sorted_terms(self):
        return sorted(self.coeffs.items())

    def to_json_dict(self) -> dict:
        terms = [list(k) + [str(c)] for k, c in self.sorted_terms()]
        return {
            "denoms": list(self.denoms),
            "floor": list(self.floor),
            "trunc": list(self.trunc),
            "terms": terms,
        }

    @classmethod
    def from_json_dict(cls, d) -> "Series":
        denoms = tuple(d["denoms"])
        nv = len(denoms)
        coeffs = {}
        for row in d["terms"]:
            coeffs[tuple(row[:-1])] = int(row[-1])
        return cls(nv, denoms, coeffs, tuple(d["trunc"]), tuple(d["floor"]))

    def __repr__(self):
        head = ", ".join(f"{k}:{c}" for k, c in self.sorted_terms()[:6])
        more = "" if len(self.coeffs) <= 6 else f" ... ({len(self.coeffs)} terms)"
        return (f"Series(nvars={self.nvars}, denoms={self.denoms}, "
                f"trunc={self.trunc}, [{head}{more}])")


def div_operands(numerator, divisor, box):
    """The operands of a quotient certified on ``box``, one entry per
    bounded variable: the inverse of the two trunc bounds of
    :meth:`Series.div`.

    ``numerator`` and ``divisor`` build an operand at a given box (one
    argument per bounded variable) and return a :class:`Series` or an
    object holding one as ``series``.  A probe of the divisor, at 24 per
    bounded variable whatever the box and doubled while empty up to
    max(24, box), reads its lead L;
    the numerator is built at box + L, and the divisor at box + 2L - F, with
    F the numerator's floor, unless the probe certifies that.  The divisor's
    request is lowered by what the probe was certified beyond its own, and
    raised to box + 2L - F if that falls short.  Returns ``(numerator, divisor)``.
    """
    series = lambda x: x if isinstance(x, Series) else x.series
    box = tuple(box)
    cap = tuple(max(24, b) for b in box)
    probe = tuple(24 for _ in box)
    d = series(den := divisor(*probe))
    while not d.coeffs and probe != cap:
        probe = tuple(min(2 * p, c) for p, c in zip(probe, cap))
        d = series(den := divisor(*probe))
    if not d.coeffs:
        raise InsufficientBoxError(f"the divisor has no term in the box {cap}")
    bv = bounded_vars(d.nvars)
    lead = [min(k[v] for k in d.coeffs) for v in bv]
    num = numerator(*(b + l for b, l in zip(box, lead)))
    floor = series(num).floor
    need = [max(b, b + 2 * l - floor[v]) for b, l, v in zip(box, lead, bv)]
    short = lambda x: any(x.trunc[v] is not None and x.trunc[v] < n for v, n in zip(bv, need))
    if short(d):
        den = divisor(*(n if d.trunc[v] is None else n + p - d.trunc[v]
                        for n, p, v in zip(need, probe, bv)))
        if short(series(den)):
            den = divisor(*need)
    return num, den


def _mobius(n: int) -> int:
    return 1 if n == 1 else -sum(_mobius(d) for d in range(1, n) if n % d == 0)


def twisted_norm(parts, cap=None) -> Series:
    """The product over b mod p of sum_j zeta_p^(j b) parts[j], p = len(parts),
    in integer arithmetic.

    In Series[x]/(x^p - 1) it forms P = prod_b g(x^b), g = sum_j parts[j] x^j,
    each product capped as :meth:`Series.mul` caps it.  P is fixed by
    x -> x^a for every a prime to p, so its coefficient P_e depends only on
    gcd(e, p); as the primitive m-th roots of unity sum to mu(m), P(zeta_p)
    is the sum over d | p of mu(p/d) P_d.  The parts share their
    denominators and each carries the trunc and floor of the whole series,
    as its class components do.
    """
    p = len(parts)
    acc = {0: reduce(add, parts)}
    for b in range(1, p):
        nxt = {}
        for e, x in acc.items():
            for j, part in enumerate(parts):
                y, k = x.mul(part, cap=cap), (e + j * b) % p
                nxt[k] = nxt[k] + y if k in nxt else y
        acc = nxt
    return reduce(add, [acc[d % p].scale(_mobius(p // d))
                        for d in range(1, p + 1) if p % d == 0])


def _product_box(nvars, ta, fa, tb, fb, cap=None):
    """(trunc, floor) of a product of operands with truncs ``ta``, ``tb`` and
    floors ``fa``, ``fb``: in each bounded variable the lesser of each
    trunc plus the other operand's floor, intersected with ``cap``."""
    trunc = [_min_none(x, y) for x, y in zip(ta, tb)]
    bv = bounded_vars(nvars)
    for v in bv:
        trunc[v] = _min_none(None if ta[v] is None else ta[v] + fb[v],
                             None if tb[v] is None else tb[v] + fa[v])
    for v, c in zip(bv, cap or ()):
        trunc[v] = _min_none(trunc[v], c)
    return tuple(trunc), tuple(x + y for x, y in zip(fa, fb))


def _mul_into(out: dict, pa, pb):
    """Add the product of two r-polynomials, given as (r, c) pair lists,
    into the slice ``out`` (r -> c).  A slot that cancels to zero is
    deleted, so no zero is kept."""
    if len(pa) > len(pb):
        pa, pb = pb, pa
    get = out.get
    for l1, c1 in pa:
        for l2, c2 in pb:
            ll = l1 + l2
            v = get(ll, 0) + c1 * c2
            if v:
                out[ll] = v
            elif ll in out:
                del out[ll]


def _unslice(nvars: int, slices: dict) -> dict:
    """Coefficient dict of slices (q, s) -> {r: c}; inverse of _slices."""
    if nvars == 3:
        return {(q, l, s): c for (q, s), p in slices.items() for l, c in p.items()}
    if nvars == 2:
        return {(q, l): c for (q, _), p in slices.items() for l, c in p.items()}
    return {(q,): c for (q, _), p in slices.items() for c in p.values()}


def _divide_poly_slice(ra: dict, rb: dict) -> dict:
    """Exact division of a complete remainder slice by the divisor's lead
    slice, both r -> c (one term at r = 0 for one variable).

    The slices are Laurent polynomials in r, divided top-down so termination
    is unconditional and a nonzero remainder is always detected.  ``ra`` is
    consumed.
    """
    top_b, low_b = max(rb), min(rb)
    cb = rb[top_b]
    pb = list(rb.items())
    out = {}
    while ra:
        top_a = max(ra)
        l = top_a - top_b
        if min(ra) - low_b > l:
            raise ExactDivisionError("nonzero remainder in r-slice division")
        c, r = divmod(ra[top_a], cb)
        if r:
            raise ExactDivisionError(f"coefficient {ra[top_a]} not divisible by {cb}")
        out[l] = c
        _mul_into(ra, [(l, -c)], pb)
    return out
